"""Energy and Lyapunov diagnostics along trajectories.

Per-step energy bookkeeping (form term plus nonlinearity primitives), the
discrete energy inequality residual, ensemble absorbing-ball fits, pairwise
squeezing fits, Hoelder-in-time modulus and sup-vs-L2 domination ratios.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import DiscreteOperator
from .constants import ConstantsReport
from .dynamics import Nonlinearity, StepControl, Trajectory, integrate
from .operators import quadratic_form


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
    bulk = float(np.sum(op.bulk_mass_diag * f.primitive(U)))
    iface = float(np.sum(op.iface_mass_diag * h.primitive(U)))
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


def compute_energy_report(traj: Trajectory, op: DiscreteOperator,
                          f: Nonlinearity, h: Nonlinearity) -> EnergyReport:
    n = len(traj.times)
    E = np.empty(n)
    G = np.empty(n)
    form = np.empty(n)
    bulk = np.empty(n)
    iface = np.empty(n)
    for k, u in enumerate(traj.states):
        ev = energy(op, u, f, h)
        E[k], form[k] = ev.total, ev.form_term
        bulk[k], iface[k] = ev.bulk_primitive, ev.iface_primitive
        G[k] = 0.5 * op.pair_norm2(u)
    diss = np.zeros(n)
    m = op.mass_diag
    for k in range(1, n):
        dt = traj.dts[k]
        du = (traj.states[k] - traj.states[k - 1]) / dt
        diss[k] = diss[k - 1] + dt * float(np.dot(du * m, du))
    return EnergyReport(times=traj.times.copy(), E=E, G=G, dissipation=diss,
                        sup_norm=traj.sup_norms, form_term=form,
                        bulk_primitive=bulk, iface_primitive=iface)


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
    t, ly = times[mask], np.log(y[mask])
    slope, intercept = np.polyfit(t, ly, 1)
    fitted = slope * t + intercept
    ss_res = float(np.sum((ly - fitted) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    return {
        "rate": float(-slope),
        "intercept": float(np.exp(intercept)),
        "r2": 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0,
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
    tra = integrate(op, U0a, f, h, T, ctrl)
    trb = integrate(op, U0b, f, h, T, ctrl)
    if tra.outcome != "completed" or trb.outcome != "completed":
        raise ValueError("squeezing fit refuses non-completed trajectories")
    # the two runs may adapt differently; resample on a shared grid
    grid = np.linspace(0.0, T, 200)

    def sample(tr):
        idx = np.searchsorted(tr.times, grid, side="right") - 1
        return [tr.states[i] for i in idx]

    d2 = np.array([op.pair_norm2(ua - ub) for ua, ub in zip(sample(tra), sample(trb))])
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


def holder_time_modulus(traj: Trajectory, t_lo: float | None = None,
                        n_scales: int = 6) -> dict:
    """Fit sup-norm increments against time gaps in log-log.

    Samples the trajectory on a uniform grid in [t_lo, T], forms increment
    statistics at dyadic gap scales spanning >= 1.5 decades, and fits the
    exponent; a flat (equilibrium) trajectory reports exponent 1, flagged
    degenerate.
    """
    T = traj.times[-1]
    if t_lo is None:
        t_lo = 0.1 * T
    grid = np.linspace(t_lo, T, 257)
    idx = np.searchsorted(traj.times, grid, side="right") - 1
    states = [traj.states[i] for i in idx]
    gaps, incs = [], []
    for k in range(n_scales):
        stride = 2 ** k
        if stride >= len(grid):
            break
        diffs = [float(np.abs(states[i + stride] - states[i]).max())
                 for i in range(0, len(grid) - stride, max(1, stride // 2))]
        gaps.append(grid[stride] - grid[0])
        incs.append(max(diffs))
    if len(gaps) < 4:
        raise ValueError("fewer than 4 gap scales available for the fit")
    gaps = np.array(gaps)
    incs = np.array(incs)
    if incs.max() <= 1e-14 * max(1.0, float(np.abs(states[0]).max())):
        return {"rho": 1.0, "prefactor": 0.0, "degenerate": True, "r2": 1.0}
    slope, intercept = np.polyfit(np.log(gaps), np.log(np.maximum(incs, 1e-300)), 1)
    fitted = slope * np.log(gaps) + intercept
    ss_res = float(np.sum((np.log(incs) - fitted) ** 2))
    ss_tot = float(np.sum((np.log(incs) - np.log(incs).mean()) ** 2))
    return {
        "rho": float(min(max(slope, 0.0), 1.0)),
        "prefactor": float(np.exp(intercept)),
        "degenerate": False,
        "r2": 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0,
    }


def moser_domination_check(traj: Trajectory, op: DiscreteOperator,
                           window: tuple[float, float] | None = None) -> float:
    """Ratio sup_t ||U||_inf / max(C_inf, sup_t ||U||_pair) over the window,
    with C_inf = max(1, ||U(0)||_inf)."""
    t_lo, t_hi = window if window else (0.0, traj.times[-1])
    mask = (traj.times >= t_lo) & (traj.times <= t_hi)
    if not mask.any():
        raise ValueError("empty trajectory window")
    sel = np.flatnonzero(mask)
    sup = max(float(np.abs(traj.states[i]).max()) for i in sel)
    l2 = max(op.pair_norm(traj.states[i]) for i in sel)
    c_inf = max(1.0, float(np.abs(traj.states[0]).max()))
    return sup / max(c_inf, l2)


def export_trajectory_csv(traj: Trajectory, op: DiscreteOperator,
                          f: Nonlinearity, h: Nonlinearity, path,
                          snapshot_stride: int = 0, snapshot_dir=None,
                          report: EnergyReport | None = None) -> None:
    """Trajectory CSV with energy columns and a final OUTCOME line; optional
    field snapshots every snapshot_stride steps as node-value CSVs.
    `report`, when given, is compute_energy_report(traj, op, f, h) computed
    by the caller."""
    rep = report if report is not None else compute_energy_report(traj, op, f, h)
    with open(path, "w") as fh:
        fh.write("t,dt,sup_norm,l2_norm,E,G,dissipation_integral\n")
        for k in range(len(traj.times)):
            l2 = np.sqrt(2.0 * rep.G[k])
            fh.write(
                f"{float(traj.times[k])!r},{float(traj.dts[k])!r},"
                f"{float(rep.sup_norm[k])!r},{float(l2)!r},"
                f"{float(rep.E[k])!r},{float(rep.G[k])!r},{float(rep.dissipation[k])!r}\n"
            )
        outcome = {"completed": "Completed", "blowup": "BlowUp", "stalled": "StalledStep"}[traj.outcome]
        fh.write(f"OUTCOME,{outcome},{float(traj.outcome_time)!r}\n")
    if snapshot_stride > 0 and snapshot_dir is not None:
        from pathlib import Path

        out = Path(snapshot_dir)
        out.mkdir(parents=True, exist_ok=True)
        for k in range(0, len(traj.times), snapshot_stride):
            full = op.embed(traj.states[k])
            with open(out / f"snapshot_{k:06d}.csv", "w") as fh:
                fh.write("vertex,value\n")
                for v, val in enumerate(full):
                    fh.write(f"{v},{float(val)!r}\n")
