"""The benchmark's three workloads: configs made from a seed, the reference
outputs of the commit that defined the benchmark, and the output checks.

Each workload is one use of the toolkit from the paper, chosen so that a
different module does most of the work (why each was chosen is also the
`why` of its entry in BENCHMARK.json):

- simulate-bounded: `simulate` mode on the bounded cubic-sink problem, long
  enough (horizon 20, about 1060 accepted steps, none rejected) that
  `dynamics`, the diagnostics/CSV export and the memory of the stored
  trajectory dominate. Calls nothing in `constants` or `regimes`.
- sweep-koch: serial `sweep` over 4 (c_f, c_h) cells on a Koch level-2
  interface with the simulation cross-check on. The cells cover four rules
  (two blow-up rules, `balance-certified`, `bulk-sink-dominates`); two
  cross-check runs blow up and two complete. `regimes` (the blow-up
  certificate search) dominates; `dynamics` runs its blow-up path, which
  rejects steps and refactorises often; `geometry` takes the Koch path.
- constants-fine: `constants` mode at n=32. The dense eigen-solves of
  `operators` inside `constants` dominate; calls nothing in `dynamics` or
  `regimes`.

The sweep and constants passes are kept near 5 s (n=40 took 15 s a pass,
8 cells 10 s) so that a run holds several passes: on a shared machine the
speed changes by up to a third over tens of seconds, and the fastest of
several short passes repeats far better than one or two long ones.

The seed changes the inputs without changing the amount of work: it is the
program's own `run.seed` (random starts of the L1 Poincare search and the
sampled states of the zeta table) and, for simulate-bounded, a +-5% change of
the initial amplitude, which leaves the accepted step count unchanged.
"""

from __future__ import annotations

import math
import random
from pathlib import Path

NAMES = ("simulate-bounded", "sweep-koch", "constants-fine")

# every workload exits 0: the bounded run completes and the sweep records
# blow-ups of its cross-check runs without failing
EXPECTED_EXIT = 0

# mesh size per workload: the measured one and the tiny one of the smoke test
MESH_N = {
    "full": {"simulate-bounded": 96, "sweep-koch": 27, "constants-fine": 32},
    "tiny": {"simulate-bounded": 12, "sweep-koch": 12, "constants-fine": 8},
}

# physics of configs/bounded.ini, copied so that the workload does not change
# when that example does
_BOUNDED = """\
[geometry]
n = {n}
interface = segment
y0 = 0.5
dirichlet_side = left

[physics]
d11 = 1.0
d22 = 1.0
d0 = 1.0
beta = 1.0
beta0 = 1.0
s = 0.5
delta = 1

[bulk_nonlinearity]
terms = 1.0:2.0

[interface_nonlinearity]
terms = 1.0:0.0

[initial]
kind = expression
expression = sin(pi*x)*sin(pi*y)
scale = {scale!r}

[time]
horizon = {horizon!r}
dt0 = 1e-3
dt_max = 0.02

[run]
mode = {mode}
out = out
seed = {seed}
"""

_SWEEP = """\
[geometry]
n = {n}
interface = koch
koch_level = 2
y0 = 0.4
dirichlet_side = left

[initial]
kind = expression
expression = sin(pi*x)*sin(pi*y)
scale = 8.0

[time]
horizon = 2.0
dt0 = 1e-3
dt_max = 0.1

[sweep]
p_values = 0
q_values = 2
cf_values = -1,0.25
ch_values = -1,1
simulate = true

[run]
mode = sweep
out = out
seed = {seed}
jobs = 1
"""


def mode(name: str) -> str:
    return {"simulate-bounded": "simulate", "sweep-koch": "sweep",
            "constants-fine": "constants"}[name]


def config_text(name: str, seed: int, size: str = "full") -> str:
    """The workload's config file for this seed; the same seed gives the
    same text."""
    n = MESH_N[size][name]
    if name == "sweep-koch":
        return _SWEEP.format(n=n, seed=seed)
    if name == "simulate-bounded":
        scale = 10.0 * (1.0 + 0.05 * random.Random(seed).uniform(-1.0, 1.0))
        return _BOUNDED.format(n=n, scale=scale, horizon=20.0,
                               mode="simulate", seed=seed)
    return _BOUNDED.format(n=n, scale=10.0, horizon=3.0, mode="constants",
                           seed=seed)


# Outputs of the commit that defined the benchmark, at seed 0. The sweep
# verdicts are the same at both sizes; they and the two constants matched at
# every other seed tried.
_CELLS = {
    "0.0,2.0,-1.0,-1.0": "BlowUpPredicted,quadratic-gap-blowup-case-a",
    "0.0,2.0,-1.0,1.0": "BlowUpPredicted,quadratic-gap-blowup",
    "0.0,2.0,0.25,-1.0": "GlobalBounded,balance-certified",
    "0.0,2.0,0.25,1.0": "GlobalBounded,bulk-sink-dominates",
}
REFERENCE = {
    "full": {
        "simulate-bounded": {
            "outcome": "OUTCOME,Completed,20.0",
            "energy_inequality_max_residual": 0.0,
        },
        "sweep-koch": {"cells": _CELLS},
        "constants-fine": {
            "poincare_l2": 0.3185415932234553,
            "c_bar": 1.8387941469044375,
        },
    },
    "tiny": {
        "simulate-bounded": {
            "outcome": "OUTCOME,Completed,20.0",
            "energy_inequality_max_residual": 7.441767929434036,
        },
        "sweep-koch": {"cells": _CELLS},
        "constants-fine": {
            "poincare_l2": 0.32206072568951194,
            "c_bar": 1.8557755914464251,
        },
    },
}

# the discrete energy inequality holds up to rounding: E(t) + D(t) - E(0)
# may exceed the reference by this share of E(0)
ENERGY_RESIDUAL_TOL = 1e-9
# the L2 Poincare constant and the embedding constant are eigenvalues of
# fixed matrices; this leaves room for another LAPACK build only
CONSTANT_REL_TOL = 1e-8


def _key_values(path: Path) -> dict[str, str]:
    out = {}
    for line in path.read_text().splitlines():
        if "=" in line:
            key, value = line.split("=", 1)
            out[key] = value
    return out


def check(name: str, out: Path, stdout: str, reference: dict) -> list[str]:
    """Problems with one pass's outputs; an empty list means it is correct."""
    try:
        if name == "simulate-bounded":
            return _check_simulate(out, stdout, reference)
        if name == "sweep-koch":
            return _check_sweep(out, reference)
        return _check_constants(out, reference)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"unreadable output: {exc!r}"]


def _check_simulate(out: Path, stdout: str, ref: dict) -> list[str]:
    problems = []
    want = ref["outcome"]
    if want not in stdout.splitlines():
        problems.append(f"stdout lacks {want!r}")
    last = (out / "trajectory.csv").read_text().splitlines()[-1]
    if last != want:
        problems.append(f"trajectory.csv ends with {last!r}, expected {want!r}")
    diag = _key_values(out / "diagnostics.txt")
    residual = float(diag["energy_inequality_max_residual"])
    bound = (ref["energy_inequality_max_residual"]
             + ENERGY_RESIDUAL_TOL * abs(float(diag["e0"])))
    if not residual <= bound:
        problems.append(f"energy_inequality_max_residual {residual!r} > {bound!r}")
    return problems


def _check_sweep(out: Path, ref: dict) -> list[str]:
    problems = []
    lines = (out / "regime_diagram.csv").read_text().splitlines()[1:]
    cells = {}
    for line in lines:
        fields = line.split(",")
        cells[",".join(fields[:4])] = ",".join(fields[4:])
    for key in sorted(set(cells) | set(ref["cells"])):
        got, want = cells.get(key), ref["cells"].get(key)
        if got != want:
            problems.append(f"cell {key}: verdict,rule {got!r}, expected {want!r}")
    if (out / "counterexamples.csv").exists():
        problems.append("counterexamples.csv written")
    return problems


def _check_constants(out: Path, ref: dict) -> list[str]:
    problems = []
    values = {k: float(v) for k, v in _key_values(out / "constants.txt").items()}
    problems += [f"{k}={v!r} is not finite"
                 for k, v in values.items() if not math.isfinite(v)]
    for key in ("poincare_l2", "c_bar"):
        got, want = values[key], ref[key]
        if abs(got - want) > CONSTANT_REL_TOL * abs(want):
            problems.append(f"{key}={got!r}, expected {want!r}")
    return problems
