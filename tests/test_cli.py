import numpy as np
import pytest

from transmission.cli import (
    EXIT_BLOWUP,
    EXIT_CONFIG,
    EXIT_NUMERIC,
    EXIT_OK,
    build_problem,
    initial_state,
    main,
)
from transmission.config import parse_config, parse_config_text

BASE = """
[geometry]
n = 8

[bulk_nonlinearity]
terms = 1.0:2.0

[interface_nonlinearity]
terms = 1.0:0.0

[time]
horizon = 0.2

[run]
seed = 3
"""

BLOWUP = """
[geometry]
n = 8

[bulk_nonlinearity]
terms = -1.0:2.0

[interface_nonlinearity]
terms = -1.0:0.0

[initial]
kind = eigenvector
scale = 25.0

[time]
horizon = 5.0
dt_max = 0.05

[run]
alpha = 3.0
"""


def write(tmp_path, text, name="cfg.ini"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_spectrum_mode_artifact(tmp_path, capsys):
    code = main(["spectrum", "--config", write(tmp_path, BASE),
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_OK
    rows = (tmp_path / "out" / "spectrum.csv").read_text().strip().splitlines()
    assert rows[0] == "k,lambda_k"
    assert len(rows) == 11


def test_spectrum_mode_with_smoothing_fit(tmp_path, capsys):
    cfg = write(tmp_path, "[geometry]\nn = 8\n\n[run]\nultra_fit = true\n", "ultra.ini")
    code = main(["spectrum", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == EXIT_OK
    rows = (tmp_path / "out" / "ultracontractivity.csv").read_text().strip().splitlines()
    assert rows[0] == "t,norm_2_to_inf"
    assert len(rows) == 13


def test_config_error_exit_code(tmp_path, capsys):
    bad = write(tmp_path, BASE + "\n[physics]\ns = 7\n")
    assert main(["spectrum", "--config", bad]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "s in (0, 1)" in err


@pytest.mark.parametrize("mode", ["simulate", "classify"])
@pytest.mark.parametrize("terms", ["nan:2.0", "1.0:nan", "inf:2.0"])
def test_nonfinite_nonlinearity_exit_code(tmp_path, capsys, mode, terms):
    bad = write(tmp_path, BASE.replace("terms = 1.0:2.0", f"terms = {terms}"))
    assert main([mode, "--config", bad, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert "bulk_nonlinearity" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("mode,old,new,flags", [
    ("simulate", "horizon = 0.2", "horizon = nan", []),
    ("classify", "seed = 3", "seed = 3\nalpha = nan", []),
    ("sweep", "", "", ["--jobs", "0"]),
    ("sweep", "[run]", "[sweep]\np_values = abc\n\n[run]", []),
    ("sweep", "[run]", "[sweep]\ncf_values = nan,1.0\n\n[run]", []),
    ("sweep", "[run]", "[sweep]\np_values =\ncf_values = 1.0\nch_values = 1.0\n\n[run]", []),
    ("spectrum", "[run]", "[physics]\nc0 = 0.5\n\n[run]", []),
    ("constants", "seed = 3", "seed = -1", []),
    ("constants", "", "", ["--seed", "-1"]),
    ("spectrum", "seed = 3", "seed = 3\nspectrum_count = 0", []),
    ("simulate", "seed = 3", "seed = 3\nsnapshot_stride = -2", []),
    ("constants", "seed = 3", "seed = 3\nsafety_factor = 0", []),
    ("pairs", "[run]", "[pairs]\nhorizon = 0\n\n[run]", []),
], ids=["nan-horizon", "nan-alpha", "zero-jobs", "p-not-a-number", "nan-cf",
        "empty-p", "removed-c0", "negative-seed", "negative-seed-flag",
        "zero-spectrum-count", "negative-snapshot-stride", "zero-safety-factor",
        "zero-pairs-horizon"])
def test_invalid_value_exit_code(tmp_path, capsys, mode, old, new, flags):
    bad = write(tmp_path, BASE.replace(old, new))
    out = tmp_path / "out"
    assert main([mode, "--config", bad, "--out", str(out), *flags]) == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert err and all(line.startswith("config error: ") for line in err)
    assert not out.exists()


def test_inelliptic_tensor_is_config_error_before_output(tmp_path, capsys, monkeypatch):
    from pathlib import Path

    # d12 = 0.9 puts the smallest eigenvalue of (1, 0.9, 1) at 0.1 < d0 = 1
    monkeypatch.setenv("TRANSMISSION_PHYSICS__D12", "0.9")
    cfg = Path(__file__).parent.parent / "configs" / "bounded.ini"
    out = tmp_path / "out"
    assert main(["constants", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: physics.")
    assert not out.exists()


def test_flags_override_environment_over_file(tmp_path, monkeypatch):
    from transmission.config import SimConfig

    validated = []
    real_validate = SimConfig.validate
    monkeypatch.setattr(SimConfig, "validate",
                        lambda cfg: validated.append(1) or real_validate(cfg))
    monkeypatch.setenv("TRANSMISSION_RUN__SEED", "4")
    monkeypatch.setenv("TRANSMISSION_RUN__SPECTRUM_COUNT", "3")
    cfg = write(tmp_path, BASE.replace(
        "seed = 3", "seed = 3\nmode = classify\nspectrum_count = 2"))
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "a")]) == EXIT_OK
    assert "mode=spectrum seed=4" in (tmp_path / "a" / "run.log").read_text()
    assert len((tmp_path / "a" / "spectrum.csv").read_text().splitlines()) == 4
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "b"),
                 "--seed", "5"]) == EXIT_OK
    assert "mode=spectrum seed=5" in (tmp_path / "b" / "run.log").read_text()
    assert validated == [1, 1]


def test_missing_config_file(tmp_path):
    assert main(["spectrum", "--config", str(tmp_path / "nope.ini")]) == EXIT_CONFIG


def test_unresolvable_interface_is_config_error(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)   # run.out defaults to ./out
    cfg = write(tmp_path, "[geometry]\nn = 8\ninterface = koch\nkoch_level = 3\n")
    assert main(["spectrum", "--config", cfg]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_simulate_completed(tmp_path, capsys):
    code = main(["simulate", "--config", write(tmp_path, BASE),
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "OUTCOME,Completed," in out
    lines = (tmp_path / "out" / "trajectory.csv").read_text().strip().splitlines()
    assert lines[0] == "t,dt,sup_norm,l2_norm,E,G,dissipation_integral"
    assert lines[-1].startswith("OUTCOME,Completed,")
    # mesh export and fit summaries accompany every simulate run
    assert (tmp_path / "out" / "mesh" / "vertices.csv").exists()
    assert (tmp_path / "out" / "mesh" / "interface_measure.csv").exists()
    diag = (tmp_path / "out" / "diagnostics.txt").read_text()
    assert "energy_inequality_max_residual=" in diag
    assert "moser_ratio=" in diag


def test_simulate_blowup_exit_code(tmp_path, capsys):
    code = main(["simulate", "--config", write(tmp_path, BLOWUP),
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_BLOWUP
    out = capsys.readouterr().out
    assert "OUTCOME,BlowUp," in out


def test_classify_writes_verdict(tmp_path, capsys):
    code = main(["classify", "--config", write(tmp_path, BASE),
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_OK
    assert "VERDICT,GlobalBounded,bulk-sink-dominates" in capsys.readouterr().out
    assert (tmp_path / "out" / "verdict.txt").exists()
    assert (tmp_path / "out" / "constants.txt").exists()


def test_constants_mode(tmp_path):
    code = main(["constants", "--config", write(tmp_path, BASE),
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_OK
    text = (tmp_path / "out" / "constants.txt").read_text()
    assert "poincare_l2=" in text
    assert "c_bar=" in text


def test_constants_failed_factorization_exits_numeric(tmp_path, monkeypatch, capsys):
    import scipy.sparse.linalg as spla

    from transmission import constants, operators

    def singular(mat, **kw):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(spla, "splu", singular)
    # no grid pencil: every eigen-solve of the report factors
    monkeypatch.setattr(operators, "_grid_pencil", lambda *args: None)
    monkeypatch.setattr(constants, "_grid_pencil", lambda *args: None)
    code = main(["constants", "--config", write(tmp_path, BASE),
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_NUMERIC
    assert "numeric error" in capsys.readouterr().err
    assert not (tmp_path / "out" / "constants.txt").exists()


def test_simulate_failed_grid_probe_exits_numeric(tmp_path, monkeypatch, capsys):
    from transmission import operators

    # a capacitance matrix blind to the grid's response fails the probe of
    # the first solver built
    monkeypatch.setattr(operators._GridPencil, "gram",
                        lambda self, lam: np.zeros((len(self.p),) * 2))
    code = main(["simulate", "--config", write(tmp_path, BASE),
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert "numeric error" in err and "probe residual" in err
    # the probe's own message names the step size; nothing wraps it again
    assert err.count("dt=") == 1
    assert "Traceback" not in err
    assert not (tmp_path / "out" / "trajectory.csv").exists()


SWEEP = """
[geometry]
n = 8

[initial]
kind = expression
expression = sin(pi*x)*sin(pi*y)

[sweep]
p_values = 0,1
q_values = 1,2,3
"""


def test_sweep_diagram_and_determinism(tmp_path):
    cfg = write(tmp_path, SWEEP)
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "a")]) == EXIT_OK
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "b")]) == EXIT_OK
    a = (tmp_path / "a" / "regime_diagram.csv").read_bytes()
    b = (tmp_path / "b" / "regime_diagram.csv").read_bytes()
    assert a == b
    rows = a.decode().strip().splitlines()
    assert rows[0] == "p,q,c_f,c_h,verdict,rule"
    diagram = {tuple(r.split(",")[:2]): r.split(",")[4] for r in rows[1:]}
    # the sink-dominates cells (q > 2p with positive signs) are all bounded
    for (p, q), verdict in diagram.items():
        if float(q) > 2 * float(p):
            assert verdict == "GlobalBounded"


def test_sweep_parallel_matches_serial(tmp_path):
    cfg = write(tmp_path, SWEEP)
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "ser"),
                 "--jobs", "1"]) == EXIT_OK
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "par"),
                 "--jobs", "2"]) == EXIT_OK
    assert ((tmp_path / "ser" / "regime_diagram.csv").read_bytes()
            == (tmp_path / "par" / "regime_diagram.csv").read_bytes())


@pytest.mark.parametrize("damage", ["deleted", "emptied", "truncated", "cut-in-the-rule",
                                    "another-cells-row", "outcome-lost", "extra-line"])
def test_sweep_resumes_from_partial_cells(tmp_path, damage):
    # the lost outcome line is a damage only where the sweep simulates
    simulate = "simulate = true\n" if damage == "outcome-lost" else ""
    cfg = write(tmp_path, SWEEP + simulate)
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_OK
    cells = sorted((out / "cells").glob("*.csv"))
    assert len(cells) == 6
    stamps = {c: c.stat().st_mtime_ns for c in cells}
    diagram, marker = (out / "regime_diagram.csv").read_bytes(), cells[0].read_text()
    # removing or damaging one cell and rerunning recomputes only that cell
    if damage == "deleted":
        cells[0].unlink()
    else:
        cells[0].write_text({"emptied": "", "truncated": marker[:9],
                             "cut-in-the-rule": marker[:-4],
                             "another-cells-row": cells[1].read_text(),
                             "outcome-lost": marker.splitlines()[0] + "\n",
                             "extra-line": marker + marker}[damage])
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_OK
    for c in cells[1:]:
        assert c.stat().st_mtime_ns == stamps[c]
    assert cells[0].exists()
    assert cells[0].read_text() == marker
    assert (out / "regime_diagram.csv").read_bytes() == diagram


def test_parallel_sweep_computes_the_constants_once_in_the_parent(tmp_path, monkeypatch):
    from transmission import cli

    calls = []
    real = cli._constants_report
    monkeypatch.setattr(cli, "_constants_report",
                        lambda *args: calls.append(1) or real(*args))
    cfg = write(tmp_path, SWEEP + "simulate = true\n")
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "out"),
                 "--jobs", "2"]) == EXIT_OK
    assert len(calls) == 1
    assert len(list((tmp_path / "out" / "cells").glob("*.csv"))) == 6
    # a finished sweep builds nothing again
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "out"),
                 "--jobs", "2"]) == EXIT_OK
    assert len(calls) == 1


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sweep_builds_the_initial_state_once(tmp_path, monkeypatch, jobs):
    from transmission import cli

    calls = []
    real = cli.initial_state
    monkeypatch.setattr(cli, "initial_state",
                        lambda *args: calls.append(1) or real(*args))
    cfg = write(tmp_path, SWEEP + "simulate = true\n")
    out = str(tmp_path / "out")
    assert main(["sweep", "--config", cfg, "--out", out, "--jobs", jobs]) == EXIT_OK
    assert len(calls) == 1
    assert len(list((tmp_path / "out" / "cells").glob("*.csv"))) == 6
    # a finished sweep builds nothing again
    assert main(["sweep", "--config", cfg, "--out", out, "--jobs", jobs]) == EXIT_OK
    assert len(calls) == 1


def test_sweep_keeps_cells_finished_before_a_crash(tmp_path, monkeypatch):
    from transmission import cli

    cfg = write(tmp_path, SWEEP)
    out = tmp_path / "out"
    real_cell = cli._sweep_cell
    done = []

    def crash_on_third(task):
        if len(done) == 2:
            raise RuntimeError("killed")
        done.append(task[1])
        return real_cell(task)

    monkeypatch.setattr(cli, "_sweep_cell", crash_on_third)
    with pytest.raises(RuntimeError):
        main(["sweep", "--config", cfg, "--out", str(out)])
    cells = sorted((out / "cells").glob("*.csv"))
    assert len(cells) == 2
    stamps = {c: c.stat().st_mtime_ns for c in cells}

    rerun = []
    monkeypatch.setattr(cli, "_sweep_cell",
                        lambda task: rerun.append(task[1]) or real_cell(task))
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_OK
    assert len(rerun) == 4
    assert not any(cell in rerun for cell in done)
    assert all(c.stat().st_mtime_ns == stamps[c] for c in cells)
    assert len(list((out / "cells").glob("*.csv"))) == 6


def test_sweep_simulation_agrees_with_verdicts(tmp_path):
    cfg = write(tmp_path, SWEEP)
    simulated = write(tmp_path, SWEEP + "simulate = true\n", "sim.ini")
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "plain")]) == EXIT_OK
    out = tmp_path / "sim"
    assert main(["sweep", "--config", simulated, "--out", str(out)]) == EXIT_OK
    markers = sorted((out / "cells").glob("*.csv"))
    assert len(markers) == 6
    assert all(m.read_text().endswith("#outcome=completed\n") for m in markers)
    assert not (out / "counterexamples.csv").exists()
    assert ((out / "regime_diagram.csv").read_bytes()
            == (tmp_path / "plain" / "regime_diagram.csv").read_bytes())


def test_sweep_records_verdict_simulation_mismatches(tmp_path, monkeypatch, capsys):
    import dataclasses

    from transmission import cli

    real_classify, real_integrate = cli.classify, cli.integrate

    def cell(f, h):
        """(p, q) of a sweep cell's pair f = c_f |u|^q u, h = c_h |u|^p u."""
        return h.growth[0], f.growth[0]

    def classify(f, h, *args, **kwargs):
        v = real_classify(f, h, *args, **kwargs)
        if cell(f, h) == (0.0, 2.0):
            v = dataclasses.replace(v, verdict="BlowUpPredicted")
        if cell(f, h) == (1.0, 1.0):
            v = dataclasses.replace(v, verdict="GlobalBounded",
                                    rule="quadratic-growth-envelope")
        return v

    def integrate(op, U0, f, h, *args, **kwargs):
        traj = real_integrate(op, U0, f, h, *args, **kwargs)
        if cell(f, h) == (1.0, 1.0):
            traj.outcome = "blowup"
        return traj

    monkeypatch.setattr(cli, "classify", classify)
    monkeypatch.setattr(cli, "integrate", integrate)
    cfg = write(tmp_path, SWEEP + "simulate = true\n")
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_OK
    assert "WARNING: 2 verdict/simulation mismatches recorded" in capsys.readouterr().out
    assert (out / "counterexamples.csv").read_text().splitlines() == [
        "p,q,c_f,c_h,verdict,rule,outcome",
        "0.0,2.0,1.0,1.0,BlowUpPredicted,bulk-sink-dominates,completed",
        "1.0,1.0,1.0,1.0,GlobalBounded,quadratic-growth-envelope,blowup",
    ]


def test_env_override_applies(tmp_path, monkeypatch):
    monkeypatch.setenv("TRANSMISSION_RUN__SPECTRUM_COUNT", "4")
    code = main(["spectrum", "--config", write(tmp_path, BASE),
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_OK
    rows = (tmp_path / "out" / "spectrum.csv").read_text().strip().splitlines()
    assert len(rows) == 5


def test_pairs_mode(tmp_path):
    cfg = write(tmp_path, BASE + "\n[pairs]\nhorizon = 2.0\n")
    code = main(["pairs", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == EXIT_OK
    text = (tmp_path / "out" / "pairs.txt").read_text()
    assert "omega=" in text
    rows = (tmp_path / "out" / "pair_distance.csv").read_text().strip().splitlines()
    assert rows[0] == "t,dist2"


# m_factor of this run comes out of max(numpy float, 1.0) as a numpy float
PAIRS_NUMPY_SCALAR = """
[geometry]
n = 8

[bulk_nonlinearity]
terms = -20.0:0.0;1.0:2.0

[initial]
kind = expression
expression = sin(pi*x)*sin(pi*y)
scale = 0.3

[time]
dt_max = 0.02

[pairs]
horizon = 3.0
"""


def test_pairs_outputs_read_back_as_floats(tmp_path):
    cfg = write(tmp_path, PAIRS_NUMPY_SCALAR)
    out = tmp_path / "out"
    assert main(["pairs", "--config", cfg, "--out", str(out)]) == EXIT_OK
    fields = dict(line.split("=", 1)
                  for line in (out / "pairs.txt").read_text().splitlines())
    assert list(fields) == ["omega", "m_factor", "k_factor",
                            "terminal_distance", "r2"]
    assert float(fields["m_factor"]) > 1.0
    for value in fields.values():
        float(value)
    rows = (out / "pair_distance.csv").read_text().splitlines()
    assert rows[0] == "t,dist2" and len(rows) == 201
    for row in rows[1:]:
        assert len([float(cell) for cell in row.split(",")]) == 2


def test_pairs_blowup_exit_code(tmp_path, capsys):
    from pathlib import Path

    cfg = Path(__file__).parent.parent / "configs" / "blowup.ini"
    out = tmp_path / "out"
    assert main(["pairs", "--config", str(cfg), "--out", str(out)]) == EXIT_BLOWUP
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and lines[0].startswith("OUTCOME,BlowUp,")
    assert sorted(p.name for p in out.iterdir()) == ["run.log"]


def test_pairs_stall_is_numeric_failure(tmp_path, capsys):
    # the blow-up run stalls once its step must fall below dt_min; it prints
    # its OUTCOME line and exits 3, as simulate does
    cfg = write(tmp_path, BLOWUP.replace("[time]", "[time]\ndt_min = 1e-4"))
    out = tmp_path / "out"
    assert main(["pairs", "--config", cfg, "--out", str(out)]) == EXIT_NUMERIC
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert len(lines) == 1 and lines[0].startswith("OUTCOME,StalledStep,")
    assert captured.err == ""
    assert sorted(p.name for p in out.iterdir()) == ["run.log"]


def test_pairs_over_a_tiny_horizon_fits_without_warnings(tmp_path, capfd, monkeypatch):
    import warnings
    from pathlib import Path

    # a time grid of width 1e-300: the fit is meaningless (r2 says so), but
    # neither numpy nor LAPACK has anything to report
    cfg = Path(__file__).parent.parent / "configs" / "bounded.ini"
    monkeypatch.setenv("TRANSMISSION_PAIRS__HORIZON", "1e-300")
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["pairs", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    assert caught == []
    captured = capfd.readouterr()
    assert captured.out.startswith(f"wrote {out / 'pairs.txt'} (omega=")
    assert captured.err == ""
    assert (out / "pairs.txt").exists() and (out / "pair_distance.csv").exists()


def test_simulate_stall_is_numeric_failure(tmp_path, capsys):
    # the run of test_pairs_stall_is_numeric_failure, alone: it prints its
    # OUTCOME line and writes its files, then exits 3 as the pair does
    cfg = write(tmp_path, BLOWUP.replace("[time]", "[time]\ndt_min = 1e-4"))
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_NUMERIC
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and lines[0].startswith("OUTCOME,StalledStep,")
    assert (out / "trajectory.csv").read_text().splitlines()[-1] == lines[0]
    assert (out / "diagnostics.txt").read_text().startswith("outcome=stalled\n")


def test_simulate_from_rest_with_a_forcing_term_completes(tmp_path, monkeypatch,
                                                          capsys):
    from pathlib import Path

    # f(0) = -1 moves the zero state at once: no growth factor rejects it
    cfg = Path(__file__).parent.parent / "configs" / "bounded.ini"
    monkeypatch.setenv("TRANSMISSION_INITIAL__SCALE", "0")
    monkeypatch.setenv("TRANSMISSION_BULK_NONLINEARITY__CONSTANT", "-1")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    assert capsys.readouterr().out.splitlines() == ["OUTCOME,Completed,3.0"]


def test_simulate_from_a_tiny_state_with_a_forcing_term_completes(
        tmp_path, monkeypatch, capsys):
    from pathlib import Path

    # f(0) = -1 moves a state of sup-norm 1e-25 far beyond growth_cap times
    # itself in one step; the growth test allows for that move
    cfg = Path(__file__).parent.parent / "configs" / "bounded.ini"
    monkeypatch.setenv("TRANSMISSION_INITIAL__SCALE", "1e-25")
    monkeypatch.setenv("TRANSMISSION_BULK_NONLINEARITY__CONSTANT", "-1")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    assert capsys.readouterr().out.splitlines() == ["OUTCOME,Completed,3.0"]


def test_constants_report_sets_up_geometry_and_fields_once(monkeypatch):
    from transmission import assembly, constants
    from transmission.constants import compute_constants_report

    calls = {"p1": 0, "fields": 0}
    geometry, draw = assembly._p1_geometry, constants._draw_smooth_fields

    def counted_geometry(mesh):
        calls["p1"] += 1
        return geometry(mesh)

    def counted_draw(op, count, seed):
        calls["fields"] += 1
        return draw(op, count, seed)

    monkeypatch.setattr(assembly, "_p1_geometry", counted_geometry)
    monkeypatch.setattr(constants, "_draw_smooth_fields", counted_draw)
    op, _, _ = build_problem(parse_config_text(BASE))
    compute_constants_report(op, seed=3)
    assert calls == {"p1": 1, "fields": 1}
    # the unit-tensor operator's bulk matrices are the ones Poincare L2 reads
    assert op.k_stiff is assembly._unit_bulk(op.mesh)[1]
    areas, _, _ = assembly.p1_gradients(op.mesh)
    fields = constants._smooth_fields(op, 20, 3)
    for shared in (areas, fields, op.k_stiff.data):
        with pytest.raises(ValueError):
            shared[0] = 1.0
    compute_constants_report(op, seed=4)
    assert calls == {"p1": 1, "fields": 2}
    assert not np.array_equal(constants._smooth_fields(op, 20, 4), fields)


def test_initial_state_expression_and_eigenvector(tmp_path):
    cfg = parse_config_text(BASE)
    op, _, _ = build_problem(cfg)
    cfg.initial.kind = "expression"
    cfg.initial.expression = "x + 0*y"
    U = initial_state(cfg, op)
    assert np.allclose(U, op.mesh.vertices[op.free_dofs, 0])

    cfg.initial.kind = "eigenvector"
    cfg.initial.index = 1
    cfg.initial.scale = 2.0
    U = initial_state(cfg, op)
    from transmission.operators import spectrum

    phi1 = spectrum(op, k=1).eigenvectors[:, 0]
    assert np.allclose(U, 2.0 * phi1)


def test_initial_state_expression_cannot_run_code(tmp_path, capsys):
    escape = "().__class__.__base__.__subclasses__()"
    cfg = write(tmp_path, BASE + f"\n[initial]\nkind = expression\nexpression = {escape}\n")
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "out" / "trajectory.csv").exists()
    # raised once, before any cell runs, the error is reported whole
    sweep = write(tmp_path, SWEEP.replace("sin(pi*x)*sin(pi*y)", escape), "sweep.ini")
    assert main(["sweep", "--config", sweep, "--out", str(tmp_path / "sw"),
                 "--jobs", "2"]) == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and escape in err[0]


def test_initial_index_beyond_free_dofs_is_config_error(tmp_path, capsys):
    # n = 4 with the left side Dirichlet leaves 20 free degrees of freedom
    cfg = write(tmp_path, BASE.replace("n = 8", "n = 4")
                + "\n[initial]\nkind = eigenvector\nindex = 100\n")
    assert main(["classify", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert err == ["config error: initial.index = 100: the operator has only 20 "
                   "free degrees of freedom"]
    assert not (tmp_path / "out" / "verdict.txt").exists()


@pytest.mark.parametrize("mode", ["classify", "simulate", "sweep", "pairs"])
@pytest.mark.parametrize("initial", [
    "kind = eigenvector\nindex = 100",
    "kind = expression\nexpression = x +",
    "kind = expression\nexpression = sqrt(x - 0.5)",
    "kind = expression\nexpression = 1/(x - 0.5)",
    # too deep for the parser (the parser's stack overflows at 20,000), and
    # too deep to evaluate though it parses
    "kind = expression\nexpression = " + "-" * 5000 + "x",
    "kind = expression\nexpression = " + "-" * 20000 + "x",
    "kind = expression\nexpression = " + "-" * 999 + "x",
    # a float power of a negative number is complex, as a scalar or an array
    "kind = expression\nexpression = (-8.0)**0.5",
    "kind = expression\nexpression = x*0+(-8.0)**0.5",
], ids=["index-beyond-free-dofs", "expression-syntax", "expression-nan", "expression-inf",
        "expression-too-deep", "expression-far-too-deep", "expression-too-deep-to-evaluate",
        "expression-complex", "expression-complex-array"])
def test_initial_state_error_leaves_no_result_files(tmp_path, capsys, mode, initial):
    one_cell = "[sweep]\np_values = 0\nq_values = 2\ncf_values = -1.0\nch_values = -1.0\n"
    cfg = write(tmp_path, BASE.replace("n = 8", "n = 4")
                + f"\n[initial]\n{initial}\n\n{one_cell}")
    out = tmp_path / "out"
    assert main([mode, "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: initial.")
    assert sorted(p.name for p in out.iterdir()) == ["run.log"]


@pytest.mark.parametrize("target", ["file", "file/sub"])
def test_output_directory_blocked_by_a_file_is_config_error(tmp_path, capsys, target):
    (tmp_path / "file").write_text("kept\n")
    out = tmp_path / target
    assert main(["spectrum", "--config", write(tmp_path, BASE),
                 "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"config error: run.out = {str(out)!r}: ")
    assert (tmp_path / "file").read_text() == "kept\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.ini", "file"]


def test_initial_state_expression_values_exact():
    cfg = parse_config_text(BASE)
    op, _, _ = build_problem(cfg)
    x, y = op.mesh.vertices[:, 0], op.mesh.vertices[:, 1]
    cfg.initial.kind = "expression"
    cases = {
        "sin(pi*x)*sin(pi*y)": np.sin(np.pi * x) * np.sin(np.pi * y),
        "-2*x**2 + exp(-y)/3 - sqrt(abs(x - 0.5))*tanh(cos(y))":
            -2.0 * x ** 2.0 + np.exp(-y) / 3.0
            - np.sqrt(np.abs(x - 0.5)) * np.tanh(np.cos(y)),
    }
    for text, full in cases.items():
        cfg.initial.expression = text
        assert initial_state(cfg, op).tobytes() == full[op.free_dofs].tobytes()


def test_initial_state_from_file(tmp_path):
    cfg = parse_config_text(BASE)
    op, _, _ = build_problem(cfg)
    path = tmp_path / "field.csv"
    full = np.arange(len(op.mesh.vertices), dtype=float)
    with open(path, "w") as fh:
        fh.write("vertex,value\n")
        for k, v in enumerate(full):
            fh.write(f"{k},{float(v)!r}\n")
    cfg.initial.kind = "file"
    cfg.initial.path = str(path)
    cfg.initial.scale = 1.0
    U = initial_state(cfg, op)
    assert np.allclose(U, full[op.free_dofs])


def _file_initial_config(tmp_path, rows):
    path = tmp_path / "field.csv"
    path.write_text("vertex,value\n" + "".join(f"{r}\n" for r in rows))
    return write(tmp_path, BASE + f"\n[initial]\nkind = file\npath = {path}\n")


def test_initial_state_from_one_row_file(tmp_path):
    cfg = parse_config(_file_initial_config(tmp_path, ["40,2.5"]))
    op, _, _ = build_problem(cfg)
    full = np.zeros(len(op.mesh.vertices))
    full[40] = 2.5
    assert initial_state(cfg, op).tobytes() == full[op.free_dofs].tobytes()


@pytest.mark.parametrize("rows", [
    ["-1,1.0"],                  # negative index: would wrap to the last vertex
    ["81,1.0"],                  # one past the last of the 81 vertices
    ["1.5,1.0"],                 # fractional index: would be truncated
    ["3,1.0", "3,2.0"],          # duplicate index
    ["3,nan"],                   # non-finite value
    ["inf,1.0"],                 # non-finite index
    ["3"],                       # no value column
], ids=["negative", "past-end", "fractional", "duplicate", "nan-value",
        "inf-index", "one-column"])
def test_initial_state_file_rejects_bad_entries(tmp_path, capsys, rows):
    cfg = _file_initial_config(tmp_path, rows)
    code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    assert "initial.path" in capsys.readouterr().err


def test_determinism_of_simulate_csv(tmp_path):
    cfg = write(tmp_path, BASE)
    main(["simulate", "--config", cfg, "--out", str(tmp_path / "r1"), "--seed", "9"])
    main(["simulate", "--config", cfg, "--out", str(tmp_path / "r2"), "--seed", "9"])
    a = (tmp_path / "r1" / "trajectory.csv").read_bytes()
    b = (tmp_path / "r2" / "trajectory.csv").read_bytes()
    assert a == b


IMPORT_GUARD = """
[geometry]
n = 4

[bulk_nonlinearity]
terms = -1.0:2.0

[interface_nonlinearity]
terms = -1.0:0.0

[initial]
kind = eigenvector
scale = 1.0

[time]
horizon = 0.05

[pairs]
horizon = 0.05

[sweep]
p_values = 0
q_values = 2
cf_values = -1.0
ch_values = -1.0

[run]
ultra_fit = true
jobs = 1
"""

# the same problem on a Koch interface, whose mesh build must not load csgraph
IMPORT_GUARD_KOCH = IMPORT_GUARD.replace(
    "n = 4", "n = 6\ninterface = koch\nkoch_level = 1\ny0 = 0.4")

# every mode in one fresh interpreter (pytest's own has loaded scipy.optimize);
# the bounded minimiser is counted, so the classifying modes are seen to use it
IMPORT_GUARD_SCRIPT = """
import json, sys
from transmission import cli, regimes
calls = []
port = regimes.minimize_scalar
regimes.minimize_scalar = lambda *a, **k: calls.append(1) or port(*a, **k)
loaded = {}
for mode in sorted(cli._RUNNERS):
    code = cli.main([mode, "--config", sys.argv[1], "--out", sys.argv[2] + "/" + mode])
    loaded[mode] = (code, sorted(m for m in sys.modules if m.startswith(
        ("scipy.optimize", "scipy.sparse.csgraph")) or m == "concurrent.futures.process"))
print(json.dumps({"loaded": loaded, "calls": len(calls)}))
"""


def _import_guard(tmp_path, config_text):
    """Every mode's exit code and forbidden imports, and the minimiser's calls."""
    import json
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_GUARD_SCRIPT, write(tmp_path, config_text),
         str(tmp_path / "out")],
        env=env, capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["loaded"] == {mode: [EXIT_OK, []] for mode in (
        "classify", "constants", "pairs", "simulate", "spectrum", "sweep")}
    assert result["calls"] > 0


def test_no_mode_imports_scipy_optimize_or_a_process_pool(tmp_path):
    _import_guard(tmp_path, IMPORT_GUARD)


def test_no_mode_imports_scipy_optimize_or_csgraph_on_a_koch_interface(tmp_path):
    _import_guard(tmp_path, IMPORT_GUARD_KOCH)


@pytest.mark.parametrize("kind", ["directory", "not-utf8"])
def test_unreadable_config_file_is_config_error(tmp_path, capsys, kind):
    path = tmp_path / "cfg.ini"
    if kind == "directory":
        path.mkdir()
    else:   # a UTF-16 file starts with the bytes ff fe
        path.write_bytes(BASE.encode("utf-16"))
    out = tmp_path / "out"
    assert main(["spectrum", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"config error: config file {str(path)!r}: ")
    assert not out.exists()


def test_total_mass_on_a_segment_is_config_error(tmp_path, capsys, monkeypatch):
    # a segment's measure is its arc length: the setting would be ignored
    monkeypatch.setenv("TRANSMISSION_GEOMETRY__TOTAL_MASS", "5")
    out = tmp_path / "out"
    assert main(["constants", "--config", write(tmp_path, BASE),
                 "--out", str(out)]) == EXIT_CONFIG
    assert "config error: geometry.total_mass = 5.0" in capsys.readouterr().err
    assert not out.exists()


def test_overflowing_weight_does_not_end_classify_in_a_traceback(tmp_path, capsys,
                                                                 monkeypatch):
    # c_star ** 2 overflows: the rules that weigh by it do not fire, and the
    # conflict scan after bulk-sink-dominates finds no quadratic gap
    monkeypatch.setenv("TRANSMISSION_RUN__SAFETY_FACTOR", "1e300")
    code = main(["classify", "--config", write(tmp_path, BASE),
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_OK
    assert "VERDICT,GlobalBounded,bulk-sink-dominates" in capsys.readouterr().out.splitlines()


# a growth cap a hair above 1 holds dt far above dt_min but far below what
# reaches the horizon; the run ends as stalled once it has tried the steps
# that integrate allows (lowered here to keep the test fast)
NEVER_ENDING = {
    "simulate": BASE.replace("terms = 1.0:2.0", "terms = -3.0:0.0"),
    "pairs": "[geometry]\nn = 2\n[physics]\nbeta = 1e6\n[bulk_nonlinearity]\n"
             "terms = 1:1e-9;-1:7\n[interface_nonlinearity]\nterms = 1.0:0.0\n",
}


@pytest.mark.parametrize("mode", sorted(NEVER_ENDING))
def test_run_that_cannot_reach_its_horizon_stalls(tmp_path, capsys, monkeypatch, mode):
    from transmission import dynamics

    monkeypatch.setattr(dynamics, "_MAX_ATTEMPTS", 300)
    monkeypatch.setenv("TRANSMISSION_TIME__GROWTH_CAP", "1.0000001")
    code = main([mode, "--config", write(tmp_path, NEVER_ENDING[mode]),
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_NUMERIC
    captured = capsys.readouterr()
    if mode == "simulate":
        assert any(line.startswith("OUTCOME,StalledStep,")
                   for line in captured.out.splitlines())
    else:   # a stalled pair run says so, as simulate does, and writes no fit
        lines = captured.out.splitlines()
        assert len(lines) == 1 and lines[0].startswith("OUTCOME,StalledStep,")
        assert captured.err == ""
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["run.log"]
