"""A seeded fuzz of the config: files drawn with stdlib `random` around
configs/bounded.ini, over every section and every mode, at n <= 9, run
in-process through `cli.main`.  Each run must exit 0, 2, 3 or 4 with no
uncaught exception and no warning, leave no result file on a config error
(exit 2), and print well-formed `VERDICT,...` and `OUTCOME,...` lines.

The values are mostly ordinary, now and then at or past the edge of what
the config admits: floats from 1e-300 to 1e300, zero and negative values,
a growth cap a hair above 1, Koch levels the mesh cannot resolve, bad
expressions and vertex files."""

import random
import re
import signal
import warnings

import pytest

from transmission import cli, dynamics
from transmission.config import MODES
from transmission.geometry import DIRICHLET_SIDES

# a run that has not ended by then fails its test instead of hanging it
RUN_SECONDS = 5
# a run stalls after this many attempted steps (integrate's bound, lowered
# so that every draw ends well within RUN_SECONDS)
MAX_ATTEMPTS = 3000

EDGE = ("1e-300", "1e300", "0.0", "-1.0", "1e-12")
# (typical values, values at or past an edge) of each key
KEYS = {
    "geometry": {
        "n": (("8", "6", "9", "4"), ("2", "3", "1")),
        "interface": (("segment", "koch"), ("fractal",)),
        "y0": (("0.5", "0.4", "0.3"), ("1e-300", "0.999999", "1.0")),
        "koch_level": (("1", "0"), ("2", "-1")),
        "dirichlet_side": (DIRICHLET_SIDES, ("middle",)),
        "total_mass": (("1.0",), ("2.0",) + EDGE),
    },
    "physics": {
        "d11": (("1.0", "2.0"), EDGE),
        "d12": (("0.0",), ("0.3", "-0.3", "1e300")),
        "d22": (("1.0", "1.5"), EDGE),
        "d0": (("1.0", "0.5"), EDGE),
        "beta": (("1.0", "2.0"), ("1e6", "0.0", "1e300")),
        "beta0": (("1.0", "0.5"), ("0.0", "1e-300", "-1.0")),
        "s": (("0.5", "0.25", "0.75"), ("1e-9", "0.999999", "1.0")),
        "delta": (("1", "0"), ("2",)),
    },
    "bulk_nonlinearity": {
        "terms": (("1.0:2.0", "-1.0:2.0", "0.25:2.0", "1.0:1.0"),
                  ("-3.0:0.0", "1:1e-9;-1:7", "", "1e300:1.0", "-1e300:2.0",
                   "1.0:-1.0", "x:1")),
        "constant": (("0.0",), ("-1.0", "1e300", "nan")),
    },
    "interface_nonlinearity": {
        "terms": (("1.0:0.0", "-1.0:0.0", "-1.0:1.0", "1.0:1.0"),
                  ("-1e300:1.0", "1e-300:0.5", "", "2.0:1e300")),
        "constant": (("0.0",), ("1.0", "-1e300")),
    },
    "initial": {
        "kind": (("expression", "eigenvector"), ("file", "random")),
        "scale": (("10.0", "1.0", "0.5"), ("1e-25", "1e300", "0.0", "-1.0")),
        "index": (("1", "2"), ("0", "1000")),
        "expression": (("sin(pi*x)*sin(pi*y)", "x*y*(1-x)"),
                       ("x +", "exp(1000*x)", "1/x", "(-8.0)**0.5", "__import__('os')")),
    },
    "time": {
        "horizon": (("0.2", "0.05", "1.0"), ("1e-300", "1e300", "0.0")),
        "dt0": (("1e-3",), ("1e-300", "1.0")),
        "dt_min": (("1e-18",), ("1e-4", "0.0")),
        "dt_max": (("0.02", "0.1"), ("1e-300", "1e300")),
        "growth_cap": (("1.5",), ("1.0000001", "1e300", "1.0")),
        "blow_up_threshold": (("1e8",), ("1e-300", "10.0", "1e300")),
    },
    "run": {
        "seed": (("0", "3"), ("-1",)),
        "jobs": (("1",), ("0",)),
        "spectrum_count": (("10", "3"), ("1", "100000", "0")),
        "ultra_fit": (("false", "true"), ("maybe",)),
        "snapshot_stride": (("0", "5"), ("1", "-1")),
        "alpha": (("auto", "3.0", "2.5"), ("2.0000001", "1e300", "2.0", "inf")),
        "eps": (("auto", "0.25"), ("1e-300", "0.999999", "1.0")),
        "safety_factor": (("2.0", "1.0"), ("1e300", "1e200", "1e-300")),
    },
    "sweep": {
        "p_values": (("0", "1"), ("", "-1")),
        "q_values": (("2", "1", "1,2"), ("1e300",)),
        "cf_values": (("1", "-1", "0.25"), ("1e300", "-1e300")),
        "ch_values": (("1", "-1"), ("1e-300",)),
        "simulate": (("false", "true"), ()),
    },
    "pairs": {
        "perturbation": (("1e-2",), ("1e-300", "1e300", "0.0")),
        "horizon": (("0.2", "0.5"), ("1e-300", "1e300")),
    },
}

# the modes that read each section, or each run key that only some read
READERS = {
    "geometry": MODES,
    "physics": MODES,
    "bulk_nonlinearity": ("simulate", "classify", "pairs"),
    "interface_nonlinearity": ("simulate", "classify", "pairs"),
    "initial": ("simulate", "classify", "sweep", "pairs"),
    "time": ("simulate", "sweep", "pairs"),
    "run": MODES,
    "run.jobs": ("sweep",),
    "run.spectrum_count": ("spectrum",),
    "run.ultra_fit": ("spectrum",),
    "run.snapshot_stride": ("simulate",),
    "run.alpha": ("classify", "sweep"),
    "run.eps": ("constants", "classify", "sweep"),
    "run.safety_factor": ("constants", "classify", "sweep"),
    "sweep": ("sweep",),
    "pairs": ("pairs",),
}
# the keys with edge values, each the focus of one seed in turn
FOCUS = [(section, key) for section, keys in KEYS.items()
         for key, (_, edge) in keys.items() if edge]
SEEDS = range(5 * len(FOCUS))

VERDICT = re.compile(r"VERDICT,(GlobalBounded|BlowUpPredicted|Indeterminate),[a-z][a-z0-9-]*")
OUTCOME = re.compile(r"OUTCOME,(Completed|BlowUp|StalledStep),(\S+)")


def draw_config(seed: int, vertex_file: str) -> tuple[str, str]:
    """(mode, config text) of one seed.  Its focus key is at an edge, and the
    mode is one that reads it; about half the other keys are set to typical
    values, and one in four seeds puts one more key at an edge."""
    rng = random.Random(seed)
    focus = FOCUS[seed % len(FOCUS)]
    mode = rng.choice(READERS.get(".".join(focus), READERS[focus[0]]))
    edges = {focus, rng.choice(FOCUS) if rng.random() < 0.25 else focus}
    lines = []
    for section, keys in KEYS.items():
        lines.append(f"[{section}]")
        for key, (typical, edge) in keys.items():
            if (section, key) in edges:
                lines.append(f"{key} = {rng.choice(edge)}")
            elif rng.random() < 0.5:
                lines.append(f"{key} = {rng.choice(typical)}")
        if section == "initial":
            missing = rng.random() < 0.2
            lines.append(f"path = {vertex_file}{'.missing' if missing else ''}")
    return mode, "\n".join(lines) + "\n"


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout(f"the run did not end within {RUN_SECONDS} s")


@pytest.mark.parametrize("seed", SEEDS)
def test_fuzzed_config_ends_cleanly(seed, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(dynamics, "_MAX_ATTEMPTS", MAX_ATTEMPTS)
    vertex_file = tmp_path / "field.csv"
    vertex_file.write_text("vertex,value\n0,1.0\n5,-2.0\n12,0.5\n")
    mode, text = draw_config(seed, str(vertex_file))
    cfg = tmp_path / "fuzz.ini"
    cfg.write_text(text)
    out = tmp_path / "out"
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, RUN_SECONDS)
    try:
        # a CLI run prints a warning to stderr instead of raising it, so it is
        # recorded here; a valid or invalid config alike must raise none
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main([mode, "--config", str(cfg), "--out", str(out)])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    stdout = capsys.readouterr().out.splitlines()

    assert code in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_NUMERIC, cli.EXIT_BLOWUP), text
    assert [str(w.message) for w in caught] == [], text
    if code == cli.EXIT_CONFIG:
        # run.log is written once the output directory is made; nothing else
        assert not out.exists() or [p.name for p in out.iterdir()] == ["run.log"], text
    verdicts = [line for line in stdout if line.startswith("VERDICT")]
    outcomes = [line for line in stdout if line.startswith("OUTCOME")]
    assert all(VERDICT.fullmatch(line) for line in verdicts), verdicts
    for line in outcomes:
        match = OUTCOME.fullmatch(line)
        assert match and float(match[2]) >= 0.0, line
    if mode == "classify" and code == cli.EXIT_OK:
        assert len(verdicts) == 1, text
    if mode == "simulate" and code in (cli.EXIT_OK, cli.EXIT_BLOWUP):
        assert len(outcomes) == 1, text


def test_fuzz_covers_every_section_and_mode(tmp_path):
    drawn = [draw_config(seed, "field.csv") for seed in SEEDS]
    assert {mode for mode, _ in drawn} == set(MODES)
    for section, keys in KEYS.items():
        for key in keys:
            assert any(f"\n{key} = " in text.split(f"[{section}]")[1].split("\n[")[0]
                       for _, text in drawn), f"{section}.{key} never drawn"
