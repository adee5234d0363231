"""Energy and Lyapunov diagnostics along trajectories.

Per-step energy bookkeeping (form term plus nonlinearity primitives), the
discrete energy inequality residual, ensemble absorbing-ball fits, pairwise
squeezing fits, Hoelder-in-time modulus and sup-vs-L2 domination ratios.

The per-state quantities are streaming observers of `integrate`
(`EnergyAccumulator`, `GridSampler`, `HolderModulus`, `MoserRatio`,
`SnapshotWriter`): a run passes them as its observer and keeps no states.
The functions that take a stored `Trajectory` feed its states through the
same observers.
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .assembly import DiscreteOperator
from .constants import ConstantsReport
from .dynamics import StepControl, Trajectory, integrate
from .operators import fit_line, quadratic_form
from .poly import Nonlinearity
from .textio import text, write_table


@dataclass
class EnergyValue:
    total: float
    form_term: float
    bulk_primitive: float
    iface_primitive: float


def energy(op: DiscreteOperator, U: np.ndarray, f: Nonlinearity,
           h: Nonlinearity) -> EnergyValue:
    """E(U) = 1/2 form(U, U) + sum m_i F(u_i) - sum w_i H(u_i) with F, H the
    primitives of the bulk and interface nonlinearities."""
    form = 0.5 * quadratic_form(op, U)
    bulk = float(np.sum(op.bulk_mass_diag * f.antiderivative()(U)))
    iface = float(np.sum(op.iface_mass_diag * h.antiderivative()(U)))
    return EnergyValue(total=form + bulk - iface, form_term=form,
                       bulk_primitive=bulk, iface_primitive=iface)


@dataclass
class EnergyReport:
    """Per-step energy quantities of a trajectory."""

    times: np.ndarray
    E: np.ndarray
    G: np.ndarray                    # half squared pair norm
    dissipation: np.ndarray          # cumulative sum dt ||dU/dt||^2
    sup_norm: np.ndarray
    form_term: np.ndarray
    bulk_primitive: np.ndarray
    iface_primitive: np.ndarray

    @property
    def e1(self) -> np.ndarray:
        """Squared pair norm along the trajectory (twice G)."""
        return 2.0 * self.G


class EnergyAccumulator:
    """Observer that builds the EnergyReport of a run state by state."""

    def __init__(self, op: DiscreteOperator, f: Nonlinearity, h: Nonlinearity):
        self.op, self.f, self.h = op, f, h
        self._columns = {name: array("d") for name in (
            "times", "E", "G", "dissipation", "sup_norm", "form_term",
            "bulk_primitive", "iface_primitive")}
        self._prev = None

    def __call__(self, t: float, dt: float, U: np.ndarray) -> None:
        op, col = self.op, self._columns
        ev = energy(op, U, self.f, self.h)
        col["times"].append(t)
        col["E"].append(ev.total)
        col["form_term"].append(ev.form_term)
        col["bulk_primitive"].append(ev.bulk_primitive)
        col["iface_primitive"].append(ev.iface_primitive)
        col["G"].append(0.5 * op.pair_norm2(U))
        col["sup_norm"].append(float(np.abs(U).max()))
        if self._prev is None:
            col["dissipation"].append(0.0)
        else:
            du = (U - self._prev) / dt
            col["dissipation"].append(
                col["dissipation"][-1] + dt * float(np.dot(du * op.mass_diag, du)))
        self._prev = U

    def report(self) -> EnergyReport:
        return EnergyReport(**{name: np.array(values)
                               for name, values in self._columns.items()})


def observe_all(*observers):
    """One observer that hands each accepted state to every one of
    `observers` in turn."""
    def observe(t, dt, U):
        for obs in observers:
            obs(t, dt, U)
    return observe


def replay(traj: Trajectory, observer) -> None:
    """Feed the stored states of `traj` to `observer` as integrate would
    have."""
    if len(traj.states) != len(traj.times):
        raise ValueError("the trajectory kept only its last state: pass the "
                         "observer to integrate instead")
    for t, dt, U in zip(traj.times, traj.dts, traj.states):
        observer(t, dt, U)


def compute_energy_report(traj: Trajectory, op: DiscreteOperator,
                          f: Nonlinearity, h: Nonlinearity) -> EnergyReport:
    acc = EnergyAccumulator(op, f, h)
    replay(traj, acc)
    return acc.report()


def energy_inequality_residual(traj: Trajectory, op: DiscreteOperator,
                               f: Nonlinearity, h: Nonlinearity,
                               report: EnergyReport | None = None) -> dict:
    """max_n [E(t_n) + D(t_n) - E(0)]; nonpositive for the continuous flow,
    O(dt) positive at worst for the discrete one.  `report`, when given, is
    compute_energy_report(traj, op, f, h) computed by the caller."""
    rep = report if report is not None else compute_energy_report(traj, op, f, h)
    residuals = rep.E + rep.dissipation - rep.E[0]
    k = int(np.argmax(residuals))
    return {
        "max_residual": float(residuals[k]),
        "argmax_time": float(rep.times[k]),
        "residuals": residuals,
        "e0": float(rep.E[0]),
    }


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


def absorbing_ball_check(trajectories: list[Trajectory], op: DiscreteOperator,
                         constants: ConstantsReport, lambda_star: float,
                         verdict: str | None = None) -> dict:
    """Ensemble fit of E1(t) <= E1(0) exp(-eta t) + C.

    Returns the fitted decay rate (the slowest member), the fitted offset,
    the terminal E1 values, and whether they agree: either within 10 percent
    of each other or all inside 10 percent of the smallest initial energy
    (every member entered a common small ball).  Pass the classifier verdict
    to refuse non-dissipative configurations up front.
    """
    if verdict is not None and verdict != "GlobalBounded":
        raise ValueError(f"absorbing-ball fit refuses verdict {verdict!r}")
    if any(tr.outcome != "completed" for tr in trajectories):
        raise ValueError("absorbing-ball fit needs completed trajectories")
    if len(trajectories) < 3:
        raise ValueError("need at least 3 initial magnitudes")
    e1s = [np.array([op.pair_norm2(u) for u in tr.states]) for tr in trajectories]
    terminals = np.array([e[-1] for e in e1s])
    initials = np.array([e[0] for e in e1s])
    c_fit = float(np.median(terminals))
    rates, envelope_ok = [], True
    for tr, e1 in zip(trajectories, e1s):
        if e1[0] <= 10.0 * max(c_fit, 1e-300):
            continue
        # tail window: past the transient, above the floor noise
        fit = fit_exponential_decay(tr.times, e1, floor=c_fit,
                                    hi_frac=1e-2, lo_frac=1e-10)
        rates.append(fit["rate"])
        bound = e1[0] * np.exp(-fit["rate"] * tr.times) + c_fit
        envelope_ok &= bool((e1 <= 1.05 * bound + 1e-12 * e1[0]).all())
    eta_fit = float(min(rates)) if rates else np.inf
    spread = float(terminals.max() - terminals.min())
    rel_ok = terminals.max() <= 1.1 * max(terminals.min(), 1e-300)
    ball_ok = terminals.max() <= 0.1 * initials.min()
    threshold = 2.0 * (constants.c_bar - lambda_star)
    return {
        "eta_fit": eta_fit,
        "c_fit": c_fit,
        "eta_threshold": threshold,
        "envelope_holds": envelope_ok,
        "terminals": terminals,
        "terminal_agreement": bool(rel_ok or ball_ok),
        "terminal_spread": spread,
    }


def squeezing_check(op: DiscreteOperator, U0a: np.ndarray, U0b: np.ndarray,
                    f: Nonlinearity, h: Nonlinearity, T: float,
                    ctrl: StepControl | None = None) -> dict:
    """Run the pair and fit the squared-distance decay envelope
    dist2(t) <= M exp(-omega t) dist2(0) + K int_0^t dist2."""
    ctrl = ctrl or StepControl(dt0=1e-3, dt_max=0.02)
    # the two runs may adapt differently; each is sampled on a shared grid
    grid = np.linspace(0.0, T, 200)
    samples = []
    for U0 in (U0a, U0b):
        sampled: list = []
        traj = integrate(op, U0, f, h, T, ctrl,
                         observe=GridSampler(grid, sampled.append))
        if traj.outcome != "completed":
            raise ValueError("squeezing fit refuses non-completed trajectories")
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

    Samples the run on a uniform grid of 257 points in [t_lo, T] (t_lo
    defaults to T/10), forms increment statistics at dyadic gap scales
    spanning >= 1.5 decades, and fits the exponent; a flat (equilibrium)
    trajectory reports exponent 1, flagged degenerate.  Only the samples one
    largest gap back are kept.
    """

    def __init__(self, T: float, t_lo: float | None = None, n_scales: int = 6):
        if t_lo is None:
            t_lo = 0.1 * T
        self.grid = np.linspace(t_lo, T, 257)
        self.strides = [2 ** k for k in range(n_scales) if 2 ** k < len(self.grid)]
        self.incs = [-np.inf] * len(self.strides)
        self._ring: deque = deque(maxlen=max(self.strides, default=1))
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
        if len(self.strides) < 4:
            raise ValueError("fewer than 4 gap scales available for the fit")
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


def holder_time_modulus(traj: Trajectory, t_lo: float | None = None,
                        n_scales: int = 6) -> dict:
    """HolderModulus of a stored trajectory over [t_lo, its last time]."""
    acc = HolderModulus(traj.times[-1], t_lo, n_scales)
    replay(traj, acc)
    return acc.result()


class MoserRatio:
    """Observer of the ratio sup_t ||U||_inf / max(C_inf, sup_t ||U||_pair)
    over the window (every state if None), with C_inf = max(1, ||U(0)||_inf)."""

    def __init__(self, op: DiscreteOperator,
                 window: tuple[float, float] | None = None):
        self.op = op
        self.window = window if window else (-np.inf, np.inf)
        self.c_inf = None
        self.sup = self.l2 = -np.inf

    def __call__(self, t: float, dt: float, U: np.ndarray) -> None:
        if self.c_inf is None:
            self.c_inf = max(1.0, float(np.abs(U).max()))
        t_lo, t_hi = self.window
        if t_lo <= t <= t_hi:
            self.sup = max(self.sup, float(np.abs(U).max()))
            self.l2 = max(self.l2, self.op.pair_norm(U))

    def result(self) -> float:
        if self.sup == -np.inf:
            raise ValueError("empty trajectory window")
        return self.sup / max(self.c_inf, self.l2)


def moser_domination_check(traj: Trajectory, op: DiscreteOperator,
                           window: tuple[float, float] | None = None) -> float:
    """MoserRatio of a stored trajectory."""
    acc = MoserRatio(op, window)
    replay(traj, acc)
    return acc.result()


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


def export_trajectory_csv(traj: Trajectory, op: DiscreteOperator,
                          f: Nonlinearity, h: Nonlinearity, path,
                          snapshot_stride: int = 0, snapshot_dir=None,
                          report: EnergyReport | None = None) -> None:
    """Trajectory CSV with energy columns and a final OUTCOME line; optional
    field snapshots every snapshot_stride steps as node-value CSVs.
    `report`, when given, is compute_energy_report(traj, op, f, h) computed
    by the caller."""
    rep = report if report is not None else compute_energy_report(traj, op, f, h)
    write_table(path, "t,dt,sup_norm,l2_norm,E,G,dissipation_integral",
                traj.times, traj.dts, rep.sup_norm, np.sqrt(2.0 * rep.G),
                rep.E, rep.G, rep.dissipation, last=outcome_line(traj))
    if snapshot_stride > 0 and snapshot_dir is not None:
        replay(traj, SnapshotWriter(op, snapshot_stride, snapshot_dir))
