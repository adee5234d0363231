"""Energy and Lyapunov diagnostics along trajectories.

Per-step energy bookkeeping (form term plus nonlinearity primitives), the
discrete energy inequality residual, exponential decay fits, pairwise
squeezing fits, Hoelder-in-time modulus and sup-vs-L2 domination ratios.

The per-state quantities are streaming observers of `integrate`
(`EnergyAccumulator`, `GridSampler`, `HolderModulus`, `SnapshotWriter`): a
run passes them as its observers and keeps no states, and
`compute_energy_report` builds the report of states a caller kept.
`moser_ratio` reads the EnergyReport.
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .assembly import DiscreteOperator
from .dynamics import StepControl, Trajectory, integrate
from .operators import fit_line, quadratic_form
from .poly import Nonlinearity, PolyFunc
from .textio import text, write_table


def energy(op: DiscreteOperator, U: np.ndarray, f: Nonlinearity,
           h: Nonlinearity) -> float:
    """E(U) = 1/2 form(U, U) + sum m_i F(u_i) - sum w_i H(u_i) with F, H the
    primitives of the bulk and interface nonlinearities."""
    return _energy(op, U, f.antiderivative(), h.antiderivative())


def _energy(op: DiscreteOperator, U: np.ndarray, F: PolyFunc,
            H: PolyFunc) -> float:
    """E(U) of `energy` from the primitives F and H, each sum one dot product
    per term."""
    U = np.asarray(U, dtype=float)
    form = 0.5 * quadratic_form(op, U)
    bulk = F._dot(op.bulk_mass_diag, U)
    iface = H._dot(op.iface_weights, U[op.iface_dofs])
    return form + bulk - iface


@dataclass
class EnergyReport:
    """Per-step energy quantities of a trajectory."""

    times: np.ndarray
    E: np.ndarray
    G: np.ndarray                    # half squared pair norm
    dissipation: np.ndarray          # cumulative sum dt ||dU/dt||^2
    sup_norm: np.ndarray


class EnergyAccumulator:
    """Observer that builds the EnergyReport of a run state by state."""

    def __init__(self, op: DiscreteOperator, f: Nonlinearity, h: Nonlinearity):
        self.op = op
        self.F, self.H = f.antiderivative(), h.antiderivative()
        self._columns = {name: array("d") for name in (
            "times", "E", "G", "dissipation", "sup_norm")}
        self._prev = None

    def __call__(self, t: float, dt: float, U: np.ndarray) -> None:
        op, col = self.op, self._columns
        col["times"].append(t)
        col["E"].append(_energy(op, U, self.F, self.H))
        col["G"].append(0.5 * op.pair_norm2(U))
        col["sup_norm"].append(float(np.abs(U).max()))
        if self._prev is None:
            col["dissipation"].append(0.0)
        else:
            du = U - self._prev     # dt ||du/dt||^2_M as (du M du) / dt
            col["dissipation"].append(
                col["dissipation"][-1] + float(np.dot(du * op.mass_diag, du)) / dt)
        self._prev = U

    def report(self) -> EnergyReport:
        return EnergyReport(**{name: np.array(values)
                               for name, values in self._columns.items()})


def compute_energy_report(records, op: DiscreteOperator, f: Nonlinearity,
                          h: Nonlinearity) -> EnergyReport:
    """The EnergyReport of the accepted states `records`, each (t, dt, U) as
    a run handed it to its observers, the initial state first: what an
    EnergyAccumulator passed to that run reports."""
    acc = EnergyAccumulator(op, f, h)
    for t, dt, U in records:
        acc(t, dt, U)
    return acc.report()


def moser_ratio(report: EnergyReport, window: tuple[float, float] | None = None) -> float:
    """sup_t ||U||_inf / max(C_inf, sup_t ||U||_pair) over the states of a
    run's energy report in the window (every state if None), with
    C_inf = max(1, ||U(0)||_inf); ||U||_pair is sqrt(2 G)."""
    t_lo, t_hi = window or (-np.inf, np.inf)
    inside = (report.times >= t_lo) & (report.times <= t_hi)
    if not inside.any():
        raise ValueError("empty trajectory window")
    pair = np.sqrt(2.0 * report.G[inside].max())
    return float(report.sup_norm[inside].max() / max(1.0, report.sup_norm[0], pair))


def energy_inequality_residual(report: EnergyReport) -> dict:
    """max_n [E(t_n) + D(t_n) - E(0)] of a run's energy report; nonpositive
    for the continuous flow, O(dt) positive at worst for the discrete one."""
    residuals = report.E + report.dissipation - report.E[0]
    return {"max_residual": float(residuals.max()), "e0": float(report.E[0])}


def fit_exponential_decay(times: np.ndarray, values: np.ndarray,
                          floor: float = 0.0, hi_frac: float = 1.0,
                          lo_frac: float = 1e-2) -> dict:
    """Least squares on log(values - floor) over the window where the excess
    above the floor lies in [lo_frac, hi_frac] of its initial value.

    hi_frac < 1 drops the early transient so the fit captures the slowest
    mode; the defaults fit from the start down to a hundredth.
    """
    y = values - floor
    y0 = max(float(y[0]), 1e-300)
    mask = (y >= lo_frac * y0) & (y <= hi_frac * y0) & (y > 0)
    if mask.sum() < 3:
        mask = y > max(1e-2 * y0, 1e-300)
    if mask.sum() < 3:
        return {"rate": np.inf, "intercept": y0, "r2": 1.0, "points": int(mask.sum())}
    slope, intercept, r2 = fit_line(times[mask], np.log(y[mask]))
    return {
        "rate": -slope,
        "intercept": float(np.exp(intercept)),
        "r2": r2,
        "points": int(mask.sum()),
    }


class IncompleteRun(ValueError):
    """A run of a pair ended before the horizon; `trajectory` is that run."""

    def __init__(self, trajectory: Trajectory):
        super().__init__("squeezing fit refuses non-completed trajectories")
        self.trajectory = trajectory


def squeezing_check(op: DiscreteOperator, U0a: np.ndarray, U0b: np.ndarray,
                    f: Nonlinearity, h: Nonlinearity, T: float,
                    ctrl: StepControl) -> dict:
    """Run the pair and fit the squared-distance decay envelope
    dist2(t) <= M exp(-omega t) dist2(0) + K int_0^t dist2.  Raises
    IncompleteRun on the first run that blows up or stalls."""
    # the two runs may adapt differently; each is sampled on a shared grid
    grid = np.linspace(0.0, T, 200)
    samples = []
    for U0 in (U0a, U0b):
        sampled: list = []
        traj = integrate(op, U0, f, h, T, ctrl,
                         observers=(GridSampler(grid, sampled.append),))
        if traj.outcome != "completed":
            raise IncompleteRun(traj)
        samples.append(sampled)
    d2 = np.array([op.pair_norm2(ua - ub) for ua, ub in zip(*samples)])
    if d2.max() == 0.0:
        return {"omega": np.inf, "m_factor": 1.0, "k_factor": 0.0, "times": grid,
                "dist2": d2, "terminal_distance": 0.0, "r2": 1.0}
    d2_0 = max(d2[0], 1e-300)
    fit = fit_exponential_decay(grid, d2, floor=0.0, hi_frac=1e-1, lo_frac=1e-8)
    integral = np.concatenate([[0.0], np.cumsum(0.5 * (d2[1:] + d2[:-1]) * np.diff(grid))])
    # envelope residual after removing the fitted exponential part; the
    # multiplier is floored at 1 so the envelope is tight at t = 0
    m_factor = max(fit["intercept"] / d2_0, 1.0)
    envelope = m_factor * d2_0 * np.exp(-fit["rate"] * grid)
    with np.errstate(divide="ignore", invalid="ignore"):
        k_needed = np.where(integral > 0, np.maximum(d2 - envelope, 0.0) / integral, 0.0)
    return {
        "omega": fit["rate"],
        "m_factor": m_factor,
        "k_factor": float(np.max(k_needed)),
        "times": grid,
        "dist2": d2,
        "terminal_distance": float(np.sqrt(d2[-1])),
        "r2": fit["r2"],
    }


class GridSampler:
    """Observer that hands `sink`, for each point g of an increasing grid,
    the accepted state at the last time <= g, as soon as it is known."""

    def __init__(self, grid: np.ndarray, sink):
        self.grid, self.sink = grid, sink
        self.count = 0          # grid points handed on so far
        self._last = None

    def __call__(self, t: float, dt: float, U: np.ndarray) -> None:
        grid = self.grid
        while self.count < len(grid) and grid[self.count] <= t:
            sample = U if grid[self.count] == t else self._last
            if sample is None:
                raise ValueError("sampling grid starts before the trajectory")
            self.count += 1
            self.sink(sample)
        self._last = U


class HolderModulus:
    """Observer that fits sup-norm increments against time gaps in log-log.

    Samples the run on a uniform grid of 257 points in [T/10, T], forms
    increment statistics at the gaps of 2**0 .. 2**5 samples (1.5 decades),
    and fits the exponent; a flat (equilibrium) trajectory reports exponent
    1, flagged degenerate.  Only the samples one largest gap back are kept.
    """

    def __init__(self, T: float):
        self.grid = np.linspace(0.1 * T, T, 257)
        self.strides = [2 ** k for k in range(6)]
        self.incs = [-np.inf] * len(self.strides)
        self._ring: deque = deque(maxlen=self.strides[-1])
        self._sup0 = 0.0
        self._sampler = GridSampler(self.grid, self._sample)

    def __call__(self, t: float, dt: float, U: np.ndarray) -> None:
        self._sampler(t, dt, U)

    def _sample(self, U: np.ndarray) -> None:
        j, ring = self._sampler.count - 1, self._ring   # U is grid sample j
        if j == 0:
            self._sup0 = float(np.abs(U).max())
        for k, stride in enumerate(self.strides):
            # the increments start at every stride/2-th sample
            i = j - stride
            if i >= 0 and i % max(1, stride // 2) == 0:
                self.incs[k] = max(self.incs[k], float(np.abs(U - ring[-stride]).max()))
        ring.append(U)

    def result(self) -> dict:
        if self._sampler.count < len(self.grid):
            raise ValueError("the run ended before the end of the sampling grid")
        gaps = np.array([self.grid[s] - self.grid[0] for s in self.strides])
        incs = np.array(self.incs)
        if incs.max() <= 1e-14 * max(1.0, self._sup0):
            return {"rho": 1.0, "prefactor": 0.0, "degenerate": True, "r2": 1.0}
        slope, intercept, r2 = fit_line(np.log(gaps), np.log(np.maximum(incs, 1e-300)))
        return {
            "rho": min(max(slope, 0.0), 1.0),
            "prefactor": float(np.exp(intercept)),
            "degenerate": False,
            "r2": r2,
        }


class SnapshotWriter:
    """Observer that writes every stride-th accepted state, counted from the
    initial one, as a node-value CSV snapshot_<k>.csv in `directory`."""

    def __init__(self, op: DiscreteOperator, stride: int, directory):
        self.op, self.stride = op, stride
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._k = 0

    def __call__(self, t: float, dt: float, U: np.ndarray) -> None:
        k = self._k
        self._k += 1
        if k % self.stride:
            return
        full = self.op.embed(U)
        write_table(self.directory / f"snapshot_{k:06d}.csv", "vertex,value",
                    np.arange(len(full)), full)


# Trajectory.outcome as written on the OUTCOME lines of the CSV and stdout
OUTCOME_LABELS = {"completed": "Completed", "blowup": "BlowUp", "stalled": "StalledStep"}


def outcome_line(traj: Trajectory) -> str:
    """`OUTCOME,<label>,<time>`, ending both the trajectory CSV and stdout."""
    return f"OUTCOME,{OUTCOME_LABELS[traj.outcome]},{text(traj.outcome_time)}"


def export_trajectory_csv(traj: Trajectory, report: EnergyReport, path) -> None:
    """Trajectory CSV of a run and its energy report, with a final OUTCOME
    line."""
    write_table(path, "t,dt,sup_norm,l2_norm,E,G,dissipation_integral",
                traj.times, traj.dts, report.sup_norm, np.sqrt(2.0 * report.G),
                report.E, report.G, report.dissipation, last=outcome_line(traj))
