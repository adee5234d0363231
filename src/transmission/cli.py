"""Command-line front end.

    transmission <mode> --config <path> [--out <dir>] [--seed <u64>] [--jobs <k>]

Modes: simulate, spectrum, constants, classify, sweep, pairs.  Any config
key can be overridden through the environment as TRANSMISSION_SECTION__KEY;
the mode and the flags override run.mode, run.out, run.seed and run.jobs in
the same way, over both.
Exit codes: 0 success, 2 configuration error, 3 numeric failure (a stalled
simulate or pairs run among them), 4 blow-up detected by a simulate or pairs
run.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import operator
import os
import sys
import time
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from .assembly import (
    AssemblyError,
    BetaCoefficient,
    DiffusionTensor,
    KernelSpec,
    build_operator,
)
from .config import ConfigError, SimConfig, parse_config, serialize_config
from .constants import compute_constants_report, save_constants
from .diagnostics import (
    EnergyAccumulator,
    HolderModulus,
    IncompleteRun,
    SnapshotWriter,
    energy_inequality_residual,
    export_trajectory_csv,
    moser_ratio,
    outcome_line,
    squeezing_check,
)
from .dynamics import StepControl, integrate
from .geometry import (
    GeometryError,
    KochPrefractal,
    Segment,
    build_interface_measure,
    build_square_mesh,
    export_measure_csv,
    export_mesh_csv,
)
from .operators import (
    NumericError,
    export_spectrum_csv,
    export_ultracontractivity_csv,
    spectrum,
    ultracontractivity_fit,
)
from .poly import Nonlinearity
from .regimes import classify, save_verdict
from .textio import text, write_fields, write_table

EXIT_OK, EXIT_CONFIG, EXIT_NUMERIC, EXIT_BLOWUP = 0, 2, 3, 4
_OUTCOME_EXIT = {"completed": EXIT_OK, "blowup": EXIT_BLOWUP, "stalled": EXIT_NUMERIC}


def build_problem(cfg: SimConfig):
    """(op, f, h) of the config; op.mesh and op.measure are its geometry."""
    g, ph = cfg.geometry, cfg.physics
    if g.interface == "segment":
        spec = Segment(g.y0)
    else:
        spec = KochPrefractal(level=g.koch_level, y0=g.y0)
    mesh = build_square_mesh(g.n, spec, dirichlet_side=g.dirichlet_side)
    measure = build_interface_measure(mesh, total_mass=g.total_mass)
    op = build_operator(mesh, measure, DiffusionTensor(ph.d11, ph.d12, ph.d22, ph.d0),
                        BetaCoefficient(ph.beta, ph.beta0), KernelSpec(ph.s),
                        delta=ph.delta)
    return op, cfg.bulk_nonlinearity.build(), cfg.interface_nonlinearity.build()


_EXPR_FUNCTIONS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "sqrt": np.sqrt,
                   "abs": np.abs, "tanh": np.tanh}
_EXPR_BINARY = {ast.Add: operator.add, ast.Sub: operator.sub,
                ast.Mult: operator.mul, ast.Div: operator.truediv,
                ast.Pow: operator.pow}
_EXPR_UNARY = {ast.UAdd: operator.pos, ast.USub: operator.neg}


def _eval_expression(text: str, names: dict):
    """Value of an arithmetic expression in `names` and the functions of
    _EXPR_FUNCTIONS; any other construct is a configuration error."""
    def bad(reason: str) -> ConfigError:
        return ConfigError([f"initial.expression = {text!r}: {reason}"])

    def ev(node):
        if isinstance(node, ast.Constant) and type(node.value) in (int, float):
            # floats only: an integer power tower would never finish
            return float(node.value)
        if isinstance(node, ast.Name) and node.id in names:
            return names[node.id]
        if isinstance(node, ast.BinOp) and type(node.op) in _EXPR_BINARY:
            return _EXPR_BINARY[type(node.op)](ev(node.left), ev(node.right))
        if isinstance(node, ast.UnaryOp) and type(node.op) in _EXPR_UNARY:
            return _EXPR_UNARY[type(node.op)](ev(node.operand))
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in _EXPR_FUNCTIONS
                and len(node.args) == 1 and not node.keywords):
            return _EXPR_FUNCTIONS[node.func.id](ev(node.args[0]))
        raise bad(f"{ast.unparse(node)!r} is not allowed")

    # checked before parsing: the parser fails on deep nesting with a bare
    # MemoryError (20,000 nested minus signs), not a RecursionError
    if len(text) > 1000:
        raise bad("longer than 1000 characters")
    try:
        value = ev(ast.parse(text, mode="eval").body)
    except SyntaxError as exc:
        raise bad(f"syntax error: {exc.msg}") from exc
    except RecursionError as exc:   # from the parse or the evaluation
        raise bad("nested too deeply") from exc
    except ArithmeticError as exc:
        raise bad(str(exc)) from exc
    # a float power of a negative number is complex: (-8.0)**0.5
    if np.iscomplexobj(value):
        raise bad("the value is not real")
    return value


def _read_vertex_values(path: str, n_vertices: int) -> tuple[np.ndarray, np.ndarray]:
    """(vertex indices, values) of a `vertex,value` CSV with a header row;
    every index a distinct integer in [0, n_vertices), every value finite."""
    def bad(reason: str) -> ConfigError:
        return ConfigError([f"initial.path = {path!r}: {reason}"])

    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except (OSError, ValueError) as exc:
        raise bad(str(exc)) from exc
    if data.shape[1] != 2 or not len(data):
        raise bad("expected rows of two columns: vertex,value")
    index, value = data[:, 0], data[:, 1]
    if not np.isfinite(data).all():
        raise bad("non-finite entry")
    if (index != np.round(index)).any():
        raise bad("non-integer vertex index")
    if ((index < 0) | (index >= n_vertices)).any():
        raise bad(f"vertex index outside [0, {n_vertices})")
    vertex = index.astype(int)
    if len(np.unique(vertex)) != len(vertex):
        raise bad("duplicate vertex index")
    return vertex, value


def initial_state(cfg: SimConfig, op) -> np.ndarray:
    ini = cfg.initial
    if ini.kind == "eigenvector":
        if ini.index > op.n_free:
            raise ConfigError([f"initial.index = {ini.index}: the operator has "
                               f"only {op.n_free} free degrees of freedom"])
        free = spectrum(op, k=ini.index).eigenvectors[:, ini.index - 1]
    elif ini.kind == "expression":
        x, y = op.mesh.vertices.T
        # a nan or inf value is reported below, not warned about here
        with np.errstate(all="ignore"):
            value = _eval_expression(ini.expression, {"x": x, "y": y, "pi": np.pi})
        free = np.broadcast_to(np.asarray(value, dtype=float), x.shape)[op.free_dofs]
    elif ini.kind == "file":
        full = np.zeros(len(op.mesh.vertices))
        vertex, value = _read_vertex_values(ini.path, len(full))
        full[vertex] = value
        free = full[op.free_dofs]
    else:
        raise ConfigError([f"initial.kind = {ini.kind!r} not supported"])
    state = ini.scale * free   # an overflow is reported below (run ignores its warning)
    bad = int(np.count_nonzero(~np.isfinite(state)))
    if bad:
        name = (f"expression = {ini.expression!r}" if ini.kind == "expression"
                else f"scale = {ini.scale!r}")
        raise ConfigError([f"initial.{name}: the scaled initial state is not finite "
                           f"at {bad} of {op.n_free} free degrees of freedom"])
    return state


def _step_control(cfg: SimConfig) -> StepControl:
    return StepControl(**{f.name: getattr(cfg.time, f.name) for f in fields(StepControl)})


def _auto(value: str) -> float | None:
    return None if value == "auto" else float(value)


def run_spectrum(cfg: SimConfig, out: Path) -> int:
    op, _, _ = build_problem(cfg)
    spec = spectrum(op, k=min(cfg.run.spectrum_count, op.n_free))
    export_spectrum_csv(spec, out / "spectrum.csv")
    print(f"wrote {out / 'spectrum.csv'} with {spec.count} eigenvalues")
    if cfg.run.ultra_fit:
        full = spec if spec.count == op.n_free else spectrum(op)
        fit = ultracontractivity_fit(full, np.geomspace(3e-4, 3e-2, 12))
        export_ultracontractivity_csv(fit, out / "ultracontractivity.csv")
        print(f"smoothing fit slope {fit['slope']:.3f} (r2={fit['r2']:.3f})")
    return EXIT_OK


def _constants_report(cfg: SimConfig, op):
    return compute_constants_report(op, eps=_auto(cfg.run.eps),
                                    safety_factor=cfg.run.safety_factor,
                                    seed=cfg.run.seed)


def run_constants(cfg: SimConfig, out: Path) -> int:
    op, _, _ = build_problem(cfg)
    report = _constants_report(cfg, op)
    save_constants(report, out / "constants.txt")
    print(f"wrote {out / 'constants.txt'}")
    return EXIT_OK


def run_classify(cfg: SimConfig, out: Path) -> int:
    op, f, h = build_problem(cfg)
    # the report runs first: an eigenvector initial state reads its spectrum
    report = _constants_report(cfg, op)
    U0 = initial_state(cfg, op)
    save_constants(report, out / "constants.txt")
    verdict = classify(f, h, op, report, U0, alpha=_auto(cfg.run.alpha),
                       eps=_auto(cfg.run.eps))
    save_verdict(verdict, out / "verdict.txt")
    print(f"VERDICT,{verdict.verdict},{verdict.rule}")
    return EXIT_OK


def run_simulate(cfg: SimConfig, out: Path) -> int:
    op, f, h = build_problem(cfg)
    U0 = initial_state(cfg, op)
    export_mesh_csv(op.mesh, out / "mesh")
    export_measure_csv(op.mesh, op.measure, out / "mesh" / "interface_measure.csv")
    # the diagnostics take the states as the run makes them: none is kept
    energy = EnergyAccumulator(op, f, h)
    holder = HolderModulus(cfg.time.horizon)
    observers = (energy, holder)
    snap = cfg.run.snapshot_stride
    if snap:
        observers += (SnapshotWriter(op, snap, out / "snapshots"),)
    traj = integrate(op, U0, f, h, cfg.time.horizon, _step_control(cfg),
                     observers=observers)
    report = energy.report()
    export_trajectory_csv(traj, report, out / "trajectory.csv")
    _write_fit_summaries(traj, report, holder, out / "diagnostics.txt")
    print(outcome_line(traj))
    return _OUTCOME_EXIT[traj.outcome]


def _write_fit_summaries(traj, report, holder, path) -> None:
    """diagnostics.txt of a run: its energy report and the HolderModulus
    that observed it."""
    res = energy_inequality_residual(report)
    fields = {"outcome": traj.outcome, "outcome_time": traj.outcome_time,
              "energy_inequality_max_residual": res["max_residual"],
              "e0": res["e0"]}
    if traj.outcome == "completed":
        # a completed run ends at T, the last point of the sampling grid
        hm = holder.result()
        fields["holder_rho"] = hm["rho"]
        fields["holder_degenerate"] = int(hm["degenerate"])
        fields["moser_ratio"] = moser_ratio(report)
    write_fields(path, fields)


def _cell_hash(cfg_text: str, cell: tuple) -> str:
    payload = cfg_text + "|" + ",".join(map(repr, cell))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _sweep_cell(task: tuple) -> tuple[str, str | None]:
    """(diagram row, simulated outcome or None) of one cell of a sweep: task
    is ((cfg, op, constants report, initial state), (p, q, c_f, c_h))."""
    (cfg, op, report, U0), cell = task
    p, q, c_f, c_h = cell
    f, h = Nonlinearity.power(c_f, q), Nonlinearity.power(c_h, p)
    verdict = classify(f, h, op, report, U0,
                       alpha=_auto(cfg.run.alpha), eps=_auto(cfg.run.eps))
    row = ",".join(map(repr, cell)) + f",{verdict.verdict},{verdict.rule}"
    outcome = (integrate(op, U0, f, h, cfg.time.horizon, _step_control(cfg)).outcome
               if cfg.sweep.simulate else None)
    return row, outcome


def _marker_text(row: str, outcome: str | None) -> str:
    """A cell's marker: its diagram row, then its outcome if it simulated."""
    return row + "\n" + ("" if outcome is None else f"#outcome={outcome}\n")


def _write_marker(marker: Path, row: str, outcome: str | None) -> None:
    """Write a cell's marker whole or not at all.  The first marker creates
    the cells directory, so a sweep whose first cell fails leaves none."""
    marker.parent.mkdir(exist_ok=True)
    tmp = marker.with_suffix(".tmp")
    tmp.write_text(_marker_text(row, outcome))
    os.replace(tmp, marker)


def run_sweep(cfg: SimConfig, out: Path) -> int:
    cells = cfg.sweep.grid()
    # content-address cells by the problem, not by where results land
    cfg_text = serialize_config(replace(cfg, run=replace(cfg.run, out="", jobs=1)))
    markers = {cell: out / "cells" / f"{_cell_hash(cfg_text, cell)}.csv"
               for cell in cells}
    done = {}
    for cell, marker in markers.items():
        text = marker.read_text() if marker.exists() else ""
        row, _, rest = text.partition("\n")
        outcome = rest.partition("\n")[0].removeprefix("#outcome=") if cfg.sweep.simulate else None
        # whole when it is what _write_marker writes for its own cell; any other
        # (emptied, cut short, another cell's, a line lost or added) is recomputed
        if row.startswith(",".join(map(repr, cell)) + ",") and text == _marker_text(row, outcome):
            done[cell] = row, outcome
    tasks = []
    if len(done) < len(markers):
        # every cell shares one operator, report and state, built as run_classify builds them
        op, _, _ = build_problem(cfg)
        problem = (cfg, op, _constants_report(cfg, op), initial_state(cfg, op))
        tasks = [(problem, cell) for cell in markers if cell not in done]
    # each marker is written as its cell finishes, so a killed sweep keeps
    # every finished cell
    if cfg.run.jobs > 1 and tasks:
        # imported here: a serial run never loads the process-pool machinery
        from concurrent.futures import ProcessPoolExecutor, as_completed

        pool = ProcessPoolExecutor(max_workers=cfg.run.jobs)
        futures = {pool.submit(_sweep_cell, task): task[1] for task in tasks}
        finished = ((futures[fut], fut.result()) for fut in as_completed(futures))
    else:
        pool, finished = None, ((task[1], _sweep_cell(task)) for task in tasks)
    try:
        for cell, result in finished:
            done[cell] = result
            _write_marker(markers[cell], *result)
    finally:
        if pool:
            pool.shutdown(cancel_futures=True)

    rows, mismatches = [], []
    for cell in cells:
        line, outcome = done[cell]
        row = line.split(",")
        rows.append(row)
        if outcome and ((row[4] == "BlowUpPredicted" and outcome != "blowup")
                        or (row[4] == "GlobalBounded" and outcome == "blowup")):
            mismatches.append(row + [outcome])
    header = "p,q,c_f,c_h,verdict,rule"
    diagram = out / "regime_diagram.csv"
    write_table(diagram, header, *zip(*rows))
    if mismatches:
        write_table(out / "counterexamples.csv", header + ",outcome",
                    *zip(*mismatches))
        print(f"WARNING: {len(mismatches)} verdict/simulation mismatches recorded")
    print(f"wrote {diagram} with {len(rows)} cells")
    return EXIT_OK


def run_pairs(cfg: SimConfig, out: Path) -> int:
    op, f, h = build_problem(cfg)
    U0a = initial_state(cfg, op)
    rng = np.random.default_rng(cfg.run.seed)
    pert = rng.standard_normal(op.n_free)
    pert /= op.pair_norm(pert)
    U0b = U0a + cfg.pairs.perturbation * pert
    try:
        rep = squeezing_check(op, U0a, U0b, f, h, cfg.pairs.horizon,
                              _step_control(cfg))
    except IncompleteRun as exc:
        print(outcome_line(exc.trajectory))
        return _OUTCOME_EXIT[exc.trajectory.outcome]
    fit = {key: rep[key] for key in (
        "omega", "m_factor", "k_factor", "terminal_distance", "r2")}
    note = ""
    if rep["r2"] < 0.0:
        # a fit worse than a constant establishes no envelope; both runs
        # completed all the same, so the exit code stays 0
        fit["fit_established"] = 0
        note = "; fit not established"
    write_fields(out / "pairs.txt", fit)
    write_table(out / "pair_distance.csv", "t,dist2", rep["times"], rep["dist2"])
    print(f"wrote {out / 'pairs.txt'} (omega={text(rep['omega'])}{note})")
    return EXIT_OK


_RUNNERS = {
    "spectrum": run_spectrum,
    "constants": run_constants,
    "classify": run_classify,
    "simulate": run_simulate,
    "sweep": run_sweep,
    "pairs": run_pairs,
}


def run(cfg: SimConfig) -> int:
    out = Path(cfg.run.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:   # a file in the way, or no permission
        raise ConfigError([f"run.out = {cfg.run.out!r}: {exc.strerror or exc}"]) from exc
    with open(out / "run.log", "a") as fh:
        fh.write(f"{time.strftime('%Y-%m-%d %H:%M:%S')} mode={cfg.run.mode} seed={cfg.run.seed}\n")
    # no numpy warning: every non-finite value is handled where it arises (a rejected
    # step, a stalled run, a rule that does not fire, ConstantsReport.validate)
    with np.errstate(over="ignore", invalid="ignore"):
        return _RUNNERS[cfg.run.mode](cfg, out)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="transmission",
        description="Simulate and classify semilinear transmission dynamics "
                    "with nonlocal dynamic interface conditions.",
    )
    parser.add_argument("mode", choices=sorted(_RUNNERS))
    parser.add_argument("--config", required=True, help="path to the config file")
    parser.add_argument("--out", help="output directory (overrides run.out)")
    parser.add_argument("--seed", type=int, help="override run.seed")
    parser.add_argument("--jobs", type=int, help="override run.jobs")
    args = parser.parse_args(argv)
    env = dict(os.environ, TRANSMISSION_RUN__MODE=args.mode)
    for key in ("out", "seed", "jobs"):
        if getattr(args, key) is not None:
            env[f"TRANSMISSION_RUN__{key.upper()}"] = str(getattr(args, key))

    try:
        return run(parse_config(args.config, env))
    except (ConfigError, GeometryError, AssemblyError) as exc:
        # the file, a value the parser cannot judge (initial.expression), or a
        # mesh or coefficients that reject the configured problem
        for v in getattr(exc, "violations", [exc]):
            print(f"config error: {v}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
