"""Time integration of the nonlinear transmission dynamics.

The scheme treats the linear operator implicitly and the nonlinearities
explicitly with lumped masses:

    (M + dt A) U+ = M U - dt (m_bulk * f(U) - w_iface * h(U)),

where M = M_bulk + delta M_iface is the diagonal evolution mass.  A Picard
iteration on the variation-of-constants form provides an independent
cross-check of the integrator on short horizons.
"""

from __future__ import annotations

import math
from array import array
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import DiscreteOperator
from .operators import NumericError, SpectralData, fit_line, semigroup_apply
from .poly import Nonlinearity


# growth of integrate's target step (see StepControl)
_GROW_FACTOR = 1.2
_GROW_AFTER = 5


@dataclass(frozen=True)
class StepControl:
    """Adaptive step-size policy and blow-up detection thresholds.

    `integrate` keeps a target step: dt0 at first, times _GROW_FACTOR after
    _GROW_AFTER accepted steps in a row (at most dt_max), halved on a reject,
    and the run stalls once it falls below dt_min.  Each step is taken at
    the largest rung dt_max * 2**-k (k >= 0 an integer) not above the
    target, so the first step is the largest rung not above dt0; only a
    final step that lands on the horizon is shorter.  A run needs one LU
    factorization per rung it visits with dt ||M^-1 A||_inf above 2**-8; the
    rungs below, where a blow-up ends, are solved without one.
    """

    dt0: float = 1e-3
    dt_min: float = 1e-18
    dt_max: float = 0.1
    growth_cap: float = 1.5
    blow_up_threshold: float = 1e8

    def __post_init__(self):
        if self.dt_min >= self.dt0:
            raise ValueError("invalid step control: dt_min must be below dt0")
        if self.dt0 > self.dt_max:
            raise ValueError("invalid step control: dt0 must not exceed dt_max")
        if self.growth_cap <= 1.0:
            raise ValueError("growth_cap must exceed 1")


@dataclass(frozen=True)
class StepStats:
    """Solver counters of one integrate run."""

    attempted: int
    accepted: int
    rejected: int
    dt_min: float           # smallest and largest step size tried (0 if none)
    dt_max: float
    factorizations: int     # LU factors built during the run


@dataclass
class Trajectory:
    """Accepted times and step sizes of one integration run, and its states:
    every state, or only the last one when an observer took them."""

    times: np.ndarray
    dts: np.ndarray                 # step size used to reach each time
    states: list = field(repr=False, default_factory=list)
    outcome: str = "completed"      # completed | blowup | stalled
    outcome_time: float = 0.0
    stats: StepStats | None = None

    @property
    def sup_norms(self) -> np.ndarray:
        return np.array([np.abs(u).max() for u in self.states])


# Bound on the total SuperLU.nnz of the factors kept per operator.  It keeps
# every factor of a Koch sweep whose cells share rungs (18 factors, 0.36 M at
# n=27), and four of the seven 0.41 M factors of an n=96 run, whose rungs
# grow past each factor and never return to it.
_LU_CACHE_NNZ = 2_000_000

# Largest theta = dt * ||M^-1 A||_inf at which M + dt A is solved by a
# Neumann series instead of an LU factor.  At theta <= 2**-8 the series
# reaches full precision within 6 products with A (2 at theta <= 1e-6), and A
# has a fifth of the factor's nonzeros at n=27, a seventh at n=96.  A series
# solve then costs at most about two LU solves and a factor about forty
# (n=27), while a blow-up passes each rung this small in a few steps: a
# factor there does not pay for itself.
_SERIES_THETA = 2.0 ** -8


class _FactorCache:
    """LU factors of M + dt A by step size, least recently used first; counts
    the factorizations it builds.  Also keeps ||M^-1 A||_inf, the largest
    row sum of |A| over the mass."""

    def __init__(self, op: DiscreteOperator):
        self.factors: OrderedDict = OrderedDict()
        self.nnz = 0
        self.built = 0
        row_sums = np.asarray(abs(op.a_free).sum(axis=1)).ravel()
        self.norm = float((row_sums / op.mass_diag).max())


def _factor_cache(op: DiscreteOperator) -> _FactorCache:
    cache = op._cache.get("imex")
    if cache is None:
        cache = op._cache["imex"] = _FactorCache(op)
    return cache


class _SeriesSolver:
    """Solves (M + dt A) x = b as x = sum_{j=0..k} (-dt M^-1 A)^j M^-1 b,
    for theta = dt ||M^-1 A||_inf < 1: k is the least integer with
    theta**(k+1) / (1 - theta) <= 2**-53, which bounds the series' tail
    relative to M^-1 b in the max norm."""

    def __init__(self, op: DiscreteOperator, dt: float, theta: float):
        self.a, self.m, self.dt = op.a_free, op.mass_diag, dt
        self.terms = 0
        tail = theta / (1.0 - theta)
        while tail > 2.0 ** -53:
            tail *= theta
            self.terms += 1

    def solve(self, b: np.ndarray) -> np.ndarray:
        # non-finite entries of b spread through x, as they do through an
        # LU solve, and warn no more than it does
        with np.errstate(invalid="ignore", over="ignore"):
            term = b / self.m
            x = term.copy()
            for _ in range(self.terms):
                term = (self.a @ term) * -self.dt / self.m
                x += term
        return x


def _imex_solver(op: DiscreteOperator, dt: float):
    """A solver of M + dt A: the Neumann series of _SeriesSolver when
    dt ||M^-1 A||_inf <= _SERIES_THETA, else its LU factors, kept on the
    operator while the factors kept there total at most _LU_CACHE_NNZ
    nonzeros."""
    cache = _factor_cache(op)
    dt = float(dt)
    theta = dt * cache.norm
    if theta <= _SERIES_THETA:
        return _SeriesSolver(op, dt, theta)
    lu = cache.factors.get(dt)
    if lu is not None:
        cache.factors.move_to_end(dt)
        return lu
    mat = (op.a_free * dt + sp.diags(op.mass_diag)).tocsc()
    # the matrix is symmetric positive definite: a minimum-degree order on
    # A^T + A leaves far less fill than the default COLAMD order
    lu = spla.splu(mat, permc_spec="MMD_AT_PLUS_A")
    cache.built += 1
    cache.factors[dt] = lu
    cache.nnz += lu.nnz
    # the newest factor stays even when it alone exceeds the bound
    while cache.nnz > _LU_CACHE_NNZ and len(cache.factors) > 1:
        cache.nnz -= cache.factors.popitem(last=False)[1].nnz
    return lu


def _reaction(op: DiscreteOperator, U: np.ndarray, f: Nonlinearity,
              h: Nonlinearity) -> np.ndarray:
    """m_bulk * f(U) - w_iface * h(U), with h on the interface DOFs only."""
    out = op.bulk_mass_diag * f(U)
    out[op.iface_dofs] -= op.iface_weights * h(U[op.iface_dofs])
    return out


def imex_step(op: DiscreteOperator, U: np.ndarray, dt: float,
              f: Nonlinearity, h: Nonlinearity) -> np.ndarray:
    """One implicit-linear / explicit-nonlinear step."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    rhs = op.mass_diag * U - dt * _reaction(op, U, f, h)
    try:
        out = _imex_solver(op, dt).solve(rhs)
    except RuntimeError as exc:   # singular factorization
        raise NumericError(f"linear solve failed at dt={dt}: {exc}") from exc
    return out


def integrate(op: DiscreteOperator, U0: np.ndarray, f: Nonlinearity,
              h: Nonlinearity, T: float, ctrl: StepControl,
              observe: Callable[[float, float, np.ndarray], None] | None = None,
              ) -> Trajectory:
    """March the dynamics to time T with adaptive steps.

    Steps whose sup-norm growth factor exceeds ctrl.growth_cap (or which
    produce non-finite values) are retried with half the step.  Crossing
    ctrl.blow_up_threshold ends the run with outcome 'blowup' at the last
    accepted time; running out of step size ends it with 'stalled'.  A
    completed run ends at T exactly.  Every step but a final one that lands
    on T is a rung dt_max * 2**-k (see StepControl), so runs on one
    operator share their factorizations, and the smallest rungs need none.

    `observe(t, dt, U)`, when given, receives every accepted state, the
    initial one with t = dt = 0 included, and the trajectory keeps only the
    last state; without it the trajectory keeps every state.
    """
    U0 = np.asarray(U0, dtype=float)
    if not np.isfinite(U0).all():
        raise ValueError("initial state contains non-finite entries")
    if U0.shape != (op.n_free,):
        raise ValueError(f"initial state has shape {U0.shape}, expected ({op.n_free},)")

    stored: list = []
    if observe is None:
        # states are never written in place: the trajectory keeps each
        # solver result as it is
        def observe(t, dt, U):
            stored.append(U)

    cache = _factor_cache(op)
    built0 = cache.built
    U = U0.copy()
    times = array("d", [0.0])
    dts = array("d", [0.0])
    observe(0.0, 0.0, U)
    outcome, outcome_time = "completed", T
    t, dt = 0.0, ctrl.dt0
    sup = float(np.abs(U).max())
    accepted_in_row = attempted = 0
    dt_lo, dt_hi = np.inf, 0.0
    m_max = math.frexp(ctrl.dt_max)[0]
    while t < T * (1.0 - 1e-12):
        # the largest rung dt_max * 2**-k not above the target dt (<= dt_max):
        # dt_max's mantissa at dt's binary exponent or the one below.  This is
        # exact, so a halved rung is bit for bit the next rung down and its
        # factor is found in the cache
        m, e = math.frexp(dt)
        rung = math.ldexp(m_max, e if m_max <= m else e - 1)
        dt_try = min(rung, T - t)
        attempted += 1
        dt_lo, dt_hi = min(dt_lo, dt_try), max(dt_hi, dt_try)
        Unew = imex_step(op, U, dt_try, f, h)
        # the max propagates NaN and inf, so it also tests finiteness
        sup_new = float(np.abs(Unew).max())
        if not np.isfinite(sup_new) or sup_new / max(sup, 1e-300) > ctrl.growth_cap:
            dt *= 0.5
            accepted_in_row = 0
            if dt < ctrl.dt_min:
                outcome, outcome_time = "stalled", t
                break
            continue
        t += dt_try
        if t >= T * (1.0 - 1e-12):
            # the last step: land on T itself, not a rounding of it
            t = float(T)
        U, sup = Unew, sup_new
        times.append(t)
        dts.append(dt_try)
        observe(t, dt_try, U)
        if sup > ctrl.blow_up_threshold:
            outcome, outcome_time = "blowup", t
            break
        accepted_in_row += 1
        if accepted_in_row >= _GROW_AFTER:
            dt = min(dt * _GROW_FACTOR, ctrl.dt_max)
            accepted_in_row = 0
    accepted = len(times) - 1
    stats = StepStats(attempted=attempted, accepted=accepted,
                      rejected=attempted - accepted,
                      dt_min=dt_lo if attempted else 0.0, dt_max=dt_hi,
                      factorizations=cache.built - built0)
    return Trajectory(
        times=np.array(times), dts=np.array(dts), states=stored or [U],
        outcome=outcome, outcome_time=outcome_time, stats=stats,
    )


def nonlinear_drift(op: DiscreteOperator, U: np.ndarray, f: Nonlinearity,
                    h: Nonlinearity) -> np.ndarray:
    """Mass-normalized reaction term entering the mild formulation."""
    return _reaction(op, U, f, h) / op.mass_diag


def picard_mild(op: DiscreteOperator, spec: SpectralData, U0: np.ndarray,
                f: Nonlinearity, h: Nonlinearity, T_star: float,
                n_grid: int = 64, n_iter: int = 8) -> dict:
    """Fixed-point iteration on the variation-of-constants form.

    Evaluates V -> exp(-tA)U0 - int_0^t exp(-(t-s)A) N(V(s)) ds on a uniform
    grid with trapezoidal quadrature and full eigenexpansion propagators.
    Returns the iterates, the successive sup-norm contraction ratios, and the
    local slope bound used for the contraction budget T* Q.
    """
    if spec.count != op.n_free:
        raise ValueError("picard iteration needs the full eigendecomposition")
    U0 = np.asarray(U0, dtype=float)
    times = np.linspace(0.0, T_star, n_grid + 1)
    ds = times[1] - times[0]
    lam, V = spec.eigenvalues, spec.eigenvectors
    m = spec.mass_diag
    r_star = 2.0 * float(np.abs(U0).max())
    q_modulus = max(f.local_slope_bound(r_star), h.local_slope_bound(r_star))

    free_term = np.array([semigroup_apply(spec, t, U0) for t in times])

    def apply_map(traj: np.ndarray) -> np.ndarray:
        # coefficients of N(V(s_k)) in the eigenbasis
        drift = np.array([nonlinear_drift(op, traj[k], f, h) for k in range(len(times))])
        coef = drift @ (m[:, None] * V)          # (n_grid+1, K)
        out = free_term.copy()
        for j in range(1, len(times)):
            wts = np.full(j + 1, ds)
            wts[0] = wts[-1] = 0.5 * ds
            decay = np.exp(-np.outer(times[j] - times[: j + 1], lam))
            out[j] -= V @ (wts @ (decay * coef[: j + 1]))
        return out

    iterates = [np.tile(U0, (len(times), 1))]
    ratios: list[float] = []
    diverged = False
    prev_diff = None
    for _ in range(n_iter):
        nxt = apply_map(iterates[-1])
        if np.abs(nxt).max() > 10.0 * max(r_star, 1e-300):
            diverged = True
            break
        diff = float(np.abs(nxt - iterates[-1]).max())
        if prev_diff is not None and prev_diff > 0:
            ratios.append(diff / prev_diff)
        prev_diff = diff
        iterates.append(nxt)
        if diff == 0.0:
            break
    return {
        "times": times,
        "iterates": iterates,
        "ratios": ratios,
        "q_modulus": q_modulus,
        "r_star": r_star,
        "contraction_budget": T_star * q_modulus,
        "diverged": diverged,
    }


def fixed_step_evolve(op: DiscreteOperator, U0: np.ndarray, f: Nonlinearity,
                      h: Nonlinearity, T: float, dt: float) -> np.ndarray:
    """Fixed-dt marching; deterministic replay building block.

    When T is a multiple of dt the march is exactly round(T/dt) equal steps
    (bitwise reproducible); otherwise a final partial step covers the
    remainder.
    """
    n_steps = int(round(T / dt))
    if abs(n_steps * dt - T) > 1e-9 * max(T, dt):
        n_steps = int(T / dt)
    U = np.asarray(U0, dtype=float).copy()
    for _ in range(n_steps):
        U = imex_step(op, U, dt, f, h)
    rest = T - n_steps * dt
    if rest > 1e-12 * max(T, dt):
        U = imex_step(op, U, rest, f, h)
    return U


def semigroup_property_check(op: DiscreteOperator, U0: np.ndarray,
                             f: Nonlinearity, h: Nonlinearity,
                             t: float, s: float, method: str = "imex",
                             dt: float = 1e-2,
                             spec: SpectralData | None = None) -> float:
    """Defect || S(t+s)U0 - S(t)S(s)U0 || in the pair norm.

    'linear' evaluates the propagator by eigenexpansion (f, h ignored);
    'imex' replays fixed-dt marching, so the defect vanishes exactly when
    both t and s are multiples of dt.
    """
    if method == "linear":
        if spec is None:
            raise ValueError("linear path needs the spectral data")
        once = semigroup_apply(spec, t + s, U0)
        twice = semigroup_apply(spec, t, semigroup_apply(spec, s, U0))
    elif method == "imex":
        once = fixed_step_evolve(op, U0, f, h, t + s, dt) if t + s > 0 else np.array(U0, dtype=float)
        mid = fixed_step_evolve(op, U0, f, h, s, dt) if s > 0 else np.array(U0, dtype=float)
        twice = fixed_step_evolve(op, mid, f, h, t, dt) if t > 0 else mid
    else:
        raise ValueError(f"unknown method {method!r}")
    return op.pair_norm(once - twice)


def semigroup_defect_fit(op: DiscreteOperator, U0: np.ndarray,
                         f: Nonlinearity, h: Nonlinearity,
                         t: float, s: float, dts: tuple[float, ...]) -> dict:
    """Replay defects across step sizes with a fitted linear law C * dt.

    Misaligned split times make the one-shot and composed marches disagree
    by the local truncation error, which is first order in dt.
    """
    defects = np.array([
        semigroup_property_check(op, U0, f, h, t, s, method="imex", dt=dt)
        for dt in dts
    ])
    dts_arr = np.array(dts, dtype=float)
    c_fit = float(np.sum(defects * dts_arr) / np.sum(dts_arr * dts_arr))
    order = fit_line(np.log(dts_arr), np.log(np.maximum(defects, 1e-300)))[0] \
        if (defects > 0).all() else np.inf
    return {"dts": dts_arr, "defects": defects, "c_fit": c_fit, "order": order}


