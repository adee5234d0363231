"""Time integration of the nonlinear transmission dynamics.

The scheme treats the linear operator implicitly and the nonlinearities
explicitly with lumped masses:

    (M + dt A) U+ = M U - dt (m_bulk * f(U) - w_iface * h(U)),

where M = M_bulk + delta M_iface is the diagonal evolution mass.
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
from .operators import NumericError, _GridSolver, _pencil, _SymmetricLU
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
    final step that lands on the horizon is shorter.  A run needs one solver
    build (a grid solver or an LU factorization) per rung it visits with
    dt ||M^-1 A||_inf above 2**-8; the rungs below, where a blow-up ends, are
    solved without one.
    """

    dt0: float = 1e-3
    dt_min: float = 1e-18
    dt_max: float = 0.1
    growth_cap: float = 1.5
    blow_up_threshold: float = 1e8

    def __post_init__(self):
        # a zero dt_min never stalls: halving dt ends at 0.0, whose rung is
        # above dt_max, so every later try is rejected
        if not (0.0 < self.dt_min < self.dt0 <= self.dt_max < math.inf):
            raise ValueError("invalid step control: need finite steps with "
                             "0 < dt_min < dt0 <= dt_max")
        if self.growth_cap <= 1.0:
            raise ValueError("growth_cap must exceed 1")
        if not 0.0 < self.blow_up_threshold < math.inf:
            raise ValueError("invalid step control: blow_up_threshold must be "
                             "positive and finite")


@dataclass(frozen=True)
class StepStats:
    """Solver counters of one integrate run."""

    attempted: int
    accepted: int
    rejected: int
    dt_min: float           # smallest and largest step size tried (0 if none)
    dt_max: float
    # solvers of M + dt A built during the run, one per step size: grid
    # solvers or LU factors, whichever the operator takes
    factorizations: int
    # steps solved by the Neumann series, not by a built solver; stats
    # compare equal by their step and factor counts alone
    series_solves: int = field(default=0, compare=False)


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


# Bound on the numbers stored by the solvers kept per operator: a SuperLU
# factor counts its nnz, a grid solver the n_free + |P|**2 floats of lam and
# W (18,916 at n=96, 1,080 on the n=27 Koch level-2 mesh), so every rung of a
# run on the grid path stays.  Of isotropic SuperLU factors it kept every
# factor of a Koch sweep whose cells share rungs (18 factors, 0.36 M at
# n=27), and four of the seven 0.41 M factors of an n=96 run, whose rungs
# grow past each factor and never return to it.
_LU_CACHE_NNZ = 2_000_000

# Largest theta = dt * ||M^-1 A||_inf at which M + dt A is solved by a
# Neumann series instead of a built solver.  At theta <= 2**-8 the series
# reaches full precision within 6 products with A (2 at theta <= 1e-6).  With
# 1 BLAS thread, a 6-product series solve costs about two and a half grid
# solves on the n=27 Koch level-2 mesh and at n=96, and a grid build with its
# probe about three and two and a half series solves: a build pays for itself
# after about five steps on its rung, and the blow-up of configs/blowup.ini
# spends one to three steps on each rung this small.  On the SuperLU path A
# has a fifth of the factor's nonzeros at n=27, a seventh at n=96; a series
# solve costs at most about two and a half transposed LU solves and a factor
# about fifty, which pays for itself even later.
_SERIES_THETA = 2.0 ** -8


class _FactorCache:
    """Solvers of M + dt A by step size, least recently used first; counts
    the solvers it builds and the series solvers it hands out.  Also keeps
    ||M^-1 A||_inf, the largest row sum of |A| over the mass, and the
    operator's grid pencil (None when SuperLU factors it).  A
    is checked once to be exactly symmetric, as the transposed solve of its
    factors needs."""

    def __init__(self, op: DiscreteOperator):
        if (op.a_free != op.a_free.T).nnz:
            raise NumericError("the operator's free-DOF matrix is not symmetric")
        self.factors: OrderedDict = OrderedDict()
        self.nnz = 0
        self.built = 0
        self.series = 0
        row_sums = np.asarray(abs(op.a_free).sum(axis=1)).ravel()
        self.norm = float((row_sums / op.mass_diag).max())
        self.grid = _pencil(op)


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
    dt ||M^-1 A||_inf <= _SERIES_THETA, else a grid solver when the operator
    has a grid pencil accurate at dt and its LU factors when not, kept on the
    operator while the solvers kept there total at most _LU_CACHE_NNZ stored
    numbers.  A failed grid probe or a singular factor is a NumericError
    naming dt."""
    cache = _factor_cache(op)
    dt = float(dt)
    theta = dt * cache.norm
    if theta <= _SERIES_THETA:
        cache.series += 1
        return _SeriesSolver(op, dt, theta)
    solver = cache.factors.get(dt)
    if solver is not None:
        cache.factors.move_to_end(dt)
        return solver
    if cache.grid is not None and cache.grid.accurate_at(dt):
        solver = _GridSolver(cache.grid, dt)
    else:
        mat = (op.a_free * dt + sp.diags(op.mass_diag)).tocsc()
        # the matrix is symmetric positive definite: a minimum-degree order
        # on A^T + A leaves far less fill than the default COLAMD order
        try:
            solver = _SymmetricLU(spla.splu(mat, permc_spec="MMD_AT_PLUS_A"))
        except RuntimeError as exc:   # a singular factor
            raise NumericError(f"linear solve failed at dt={dt}: {exc}") from exc
    cache.built += 1
    cache.factors[dt] = solver
    cache.nnz += solver.nnz
    # the newest solver stays even when it alone exceeds the bound
    while cache.nnz > _LU_CACHE_NNZ and len(cache.factors) > 1:
        cache.nnz -= cache.factors.popitem(last=False)[1].nnz
    return solver


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
    rhs = _reaction(op, U, f, h)
    rhs *= -dt
    rhs += op.mass_diag * U      # M U - dt r, bit for bit
    return _imex_solver(op, dt).solve(rhs)


def integrate(op: DiscreteOperator, U0: np.ndarray, f: Nonlinearity,
              h: Nonlinearity, T: float, ctrl: StepControl,
              observe: Callable[[float, float, np.ndarray], None] | None = None,
              ) -> Trajectory:
    """March the dynamics to time T with adaptive steps.

    A step of size dt from sup-norm s is retried with half the step when it
    leaves a non-finite value or a sup-norm above ctrl.growth_cap (s + dt d0),
    with d0 = ||M^-1 r(0)||_inf the drift of the zero state.
    Crossing ctrl.blow_up_threshold ends the run with outcome 'blowup' at
    the last accepted time; running out of step size ends it with
    'stalled'.  A completed run ends at T exactly.  Every step but a final
    one that lands on T is a rung dt_max * 2**-k (see StepControl), so runs
    on one operator share their factorizations, and the smallest rungs need
    none.

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
    built0, series0 = cache.built, cache.series
    U = U0.copy()
    times = array("d", [0.0])
    dts = array("d", [0.0])
    observe(0.0, 0.0, U)
    outcome, outcome_time = "completed", T
    t, dt = 0.0, ctrl.dt0
    sup = float(np.abs(U).max())
    d0 = float(np.abs(nonlinear_drift(op, np.zeros_like(U), f, h)).max())
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
        if not np.isfinite(sup_new) or (
                sup_new / max(sup + dt_try * d0, 1e-300) > ctrl.growth_cap):
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
                      factorizations=cache.built - built0,
                      series_solves=cache.series - series0)
    return Trajectory(
        times=np.array(times), dts=np.array(dts), states=stored or [U],
        outcome=outcome, outcome_time=outcome_time, stats=stats,
    )


def nonlinear_drift(op: DiscreteOperator, U: np.ndarray, f: Nonlinearity,
                    h: Nonlinearity) -> np.ndarray:
    """Mass-normalized reaction term entering the mild formulation."""
    return _reaction(op, U, f, h) / op.mass_diag
