"""Estimation of the variational constants consumed by the regime criteria.

Three quantities are produced: the interface-mean Poincare constant (an
exact L2 eigenvalue surrogate and an empirical L1 lower bound), the best
constant of the damped coercivity embedding, and the interpolation exponent
table trading the form against the L1 pair norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg as spla

from .assembly import DiscreteOperator, _unit_bulk, p1_gradients
from .operators import (
    NumericError,
    _grid_pencil,
    _GridSolver,
    _pencil,
    factor_symmetric,
    lanczos_start,
    lowest_pairs,
    spectrum,
)
from .textio import text, write_fields

# random smooth fields drawn per seed: the L1 Poincare search and the zeta
# table draw the same ones
_SMOOTH_FIELDS = 20
# largest interpolation exponent tried; a larger need is inf
_ZETA_MAX = 64.0


def _smooth_fields(op: DiscreteOperator, count: int, seed: int) -> np.ndarray:
    """(count, n_vertices) random low-frequency fields: the sum over k, l in
    1..3 of c_kl sin(pi k x) cos(pi l y) / (k l), c_kl standard normal.
    Drawn once per operator, count and seed, and returned read-only."""
    key = ("smooth_fields", count, seed)
    if key not in op._cache:
        fields = _draw_smooth_fields(op, count, seed)
        fields.flags.writeable = False
        op._cache[key] = fields
    return op._cache[key]


def _draw_smooth_fields(op: DiscreteOperator, count: int, seed: int) -> np.ndarray:
    x, y = op.mesh.vertices.T
    wave = np.arange(1, 4)
    sin_x = np.sin(np.pi * wave[:, None] * x)
    cos_y = np.cos(np.pi * wave[:, None] * y)
    coef = np.random.default_rng(seed).standard_normal((count, 3, 3))
    coef /= np.outer(wave, wave)
    return np.einsum("skl,kn,ln->sn", coef, sin_x, cos_y)


def _l1_quotient(op: DiscreteOperator, u: np.ndarray) -> float:
    """L1 quotient ||u - interface_mean(u)||_1 / ||grad u||_1 of a field on
    all vertices (unit diffusivity, no boundary constraints)."""
    areas, gx, gy = p1_gradients(op.mesh)
    corner = u[op.mesh.triangles]
    grad = np.hypot(np.sum(gx * corner, axis=1), np.sum(gy * corner, axis=1))
    a = op.m_iface.diagonal() / op.measure.total_mass
    num = np.sum(op.m_bulk.diagonal() * np.abs(u - a @ u))
    return float(num / np.sum(areas * grad))


def poincare_mean_sigma(op: DiscreteOperator, mode: str = "L2_eig",
                        seed: int = 0) -> float:
    """Best constant in  ||u - interface_mean(u)|| <= C ||grad u||.

    'L2_eig' solves the generalized eigenvalue problem of the quotient in
    the L2 norms exactly (unit diffusivity, no boundary constraints) and
    returns 1/sqrt(lambda_min).  'L1_empirical' sweeps every level set of
    x, y, _SMOOTH_FIELDS random smooth fields and the ten lowest
    eigenvectors and returns the L1 quotient of the best indicator found, a
    lower bound on the true L1 constant.
    """
    mesh = op.mesh
    n_dof = len(mesh.vertices)
    a = op.m_iface.diagonal() / op.measure.total_mass

    if mode == "L2_eig":
        # K annihilates constants and a sums to 1, so the quotient may be
        # taken in the gauge a^T u = 0, where u - interface_mean(u) = u.  With
        # K_s = K - sigma M = (M + dt K) / dt, sigma = -1/dt as in
        # lowest_pairs, the bordered solve S f = u of  K_s u + a mu = f,
        # a^T u = 0  is a solve of K_s (on the grid, P the 4 corners, or by a
        # sparse factor) corrected by z = K_s^-1 a, and 1/(lambda_min - sigma)
        # is the top eigenvalue of M^1/2 S M^1/2
        _, k_unit = _unit_bulk(mesh)
        m_bulk = op.m_bulk.diagonal()
        sqrt_m = np.sqrt(m_bulk)
        dt = 1e6 / (k_unit.diagonal() / m_bulk).max()
        grid = _grid_pencil(mesh.vertices, np.arange(n_dof), k_unit, k_unit, m_bulk)
        solve = (factor_symmetric(op.m_bulk + dt * k_unit) if grid is None
                 else _GridSolver(grid, dt)).solve
        z = solve(a)

        def matvec(v):
            y = solve(sqrt_m * np.ravel(v))
            return sqrt_m * (y - z * ((a @ y) / (a @ z))) * dt

        op_s = spla.LinearOperator((n_dof, n_dof), matvec=matvec, dtype=float)
        try:
            top = spla.eigsh(op_s, k=1, which="LA", v0=lanczos_start(n_dof),
                             return_eigenvectors=False)[0]
        except spla.ArpackError as exc:
            raise NumericError(f"Poincare eigensolve failed: {exc}") from exc
        return float(math.sqrt(top / (1.0 - top / dt)))

    if mode == "L1_empirical":
        # Level sets approach the L1 quotient (coarea formula), so all level
        # sets of each seed field are scored at once.  S_k holds the k
        # vertices of largest value; its indicator has centred L1 norm
        # m(S)(1 - a(S)) + (M - m(S)) a(S).  On a triangle whose corners rank
        # r0 < r1 < r2 the indicator's gradient is that of phi_0 while
        # r0 < k <= r1 and that of phi_2 while r1 < k <= r2, so cumulative
        # sums of the jumps give the total variation for every k.
        areas, gx, gy = p1_gradients(mesh)
        corner_tv = (areas[:, None] * np.hypot(gx, gy)).T.copy()   # (3, n_tri)
        corners = mesh.triangles.T.copy()
        m_bulk = op.m_bulk.diagonal()
        mass = m_bulk.sum()
        seeds = [mesh.vertices[:, 0], mesh.vertices[:, 1]]
        seeds += list(_smooth_fields(op, _SMOOTH_FIELDS, seed))
        seeds += [op.embed(v) for v in spectrum(op, min(10, op.n_free)).eigenvectors.T]
        best, best_set = -1.0, None
        for u in seeds:
            order = np.argsort(-u, kind="stable")
            rank = np.empty(n_dof, dtype=int)
            rank[order] = np.arange(n_dof)
            # the ranks are a permutation: the corners of a triangle differ
            c0, c1, c2 = rank[corners]
            r0 = np.minimum(np.minimum(c0, c1), c2)
            r2 = np.maximum(np.maximum(c0, c1), c2)
            tv0 = np.where(c0 == r0, corner_tv[0],
                           np.where(c1 == r0, corner_tv[1], corner_tv[2]))
            tv2 = np.where(c0 == r2, corner_tv[0],
                           np.where(c1 == r2, corner_tv[1], corner_tv[2]))
            jumps = np.bincount(np.concatenate([r0, c0 + c1 + c2 - r0 - r2, r2]) + 1,
                                weights=np.concatenate([tv0, tv2 - tv0, -tv2]),
                                minlength=n_dof + 1)
            den = np.cumsum(jumps)[1:n_dof]
            m_in = np.cumsum(m_bulk[order])[:-1]
            a_in = np.cumsum(a[order])[:-1]
            quot = (m_in * (1.0 - a_in) + (mass - m_in) * a_in) / den
            k = int(np.argmax(quot))
            if quot[k] > best:
                best, best_set = quot[k], order[:k + 1]
        # the value returned is the quotient of an actual vertex field, so it
        # is a lower bound whatever rounding the cumulative sums carry
        indicator = np.zeros(n_dof)
        indicator[best_set] = 1.0
        return _l1_quotient(op, indicator)

    raise ValueError(f"unknown mode {mode!r}")


def best_embedding_constant(op: DiscreteOperator, eps: float) -> float:
    """Smallest eigenvalue of the damped form against the full pair mass:
    [(1 - eps/d0) K + B_beta + Theta] v = lambda (M_bulk + M_iface) v."""
    if not (0.0 < eps < op.d0):
        raise ValueError(f"eps={eps} outside (0, d0={op.d0})")
    scale = 1.0 - eps / op.d0
    damped = op.restrict(scale * op.k_stiff + op.b_beta + op.theta)
    grid = _pencil(op)   # its lines, with d11 and d22 scaled
    vals, _ = lowest_pairs(damped, op.pair_mass_diag, 1,
                           grid and grid.fit(damped, op.pair_mass_diag, scale))
    return float(vals[0])


def interpolation_zeta(op: DiscreteOperator, eps_values: tuple[float, ...],
                       seed: int = 0) -> list[tuple[float, float]]:
    """[(eps, z)] for each of eps_values, z the smallest exponent such that,
    on all sampled states,
    ||U||_X2^2 <= eps * form(U, U) + eps^-z ||U||_X1^2.

    The samples, the random smooth fields of the L1 Poincare search on free
    DOFs plus the ten lowest eigenvectors, are drawn once for every eps.
    The least z is solved for in closed form (`_least_zeta`); it is inf when
    even _ZETA_MAX fails.
    """
    for eps in eps_values:
        if not (0.0 < eps <= 1.0):
            raise ValueError(f"eps={eps} outside (0, 1]")
    samples = list(_smooth_fields(op, _SMOOTH_FIELDS, seed)[:, op.free_dofs])
    samples += list(spectrum(op, k=min(10, op.n_free)).eigenvectors.T)

    x2 = np.array([op.pair_norm2(u) for u in samples])
    # one product for every sample; each value is u @ (A u) with A u a
    # contiguous row: quadratic_form's value bit for bit below the size from
    # which it sums by stencil diagonals (4,096 free DOFs), to rounding above
    a_samples = np.ascontiguousarray((op.a_free @ np.array(samples).T).T)
    aa = np.array([u @ au for u, au in zip(samples, a_samples)])
    x1sq = np.array([op.l1_pair_norm(u) ** 2 for u in samples])
    return [(eps, _least_zeta(x2, aa, x1sq, eps, _ZETA_MAX)) for eps in eps_values]


def _least_zeta(x2: np.ndarray, aa: np.ndarray, x1sq: np.ndarray, eps: float,
                zeta_max: float) -> float:
    """Least z >= 0 with x2 <= (eps*aa + eps^-z * x1sq)(1 + 1e-12) + 1e-12 on
    every sample; inf above zeta_max, and at eps = 1 where z has no say."""
    if (x2 <= (eps * aa + x1sq) * (1.0 + 1e-12) + 1e-12).all():
        return 0.0
    if eps == 1.0:
        return math.inf
    # a sample short by need > 0 asks eps^-z >= need / x1sq, inf at x1sq = 0
    need = (x2 - 1e-12) / (1.0 + 1e-12) - eps * aa
    short = need > 0.0
    with np.errstate(divide="ignore"):
        z = np.log(need[short] / x1sq[short]).max(initial=0.0) / -math.log(eps)
    return float(z) if z <= zeta_max else math.inf


@dataclass
class ConstantsReport:
    """Variational constants handed to the regime classifier.

    The effective interface-mean constant applies a safety factor on top of
    the larger of the two estimates (conservative for every criterion that
    consumes it), and c_star folds in the measure-to-area ratio.
    """

    poincare_l2: float
    poincare_l1_lower: float
    c_bar: float
    c_bar_eps: float
    zeta_table: list = field(default_factory=list)   # [(eps, zeta)]
    safety_factor: float = 2.0
    total_mass: float = 1.0
    domain_area: float = 1.0

    @property
    def poincare_effective(self) -> float:
        return self.safety_factor * max(self.poincare_l2, self.poincare_l1_lower)

    @property
    def rho(self) -> float:
        """Interface mass per unit area of the domain."""
        return self.total_mass / self.domain_area

    @property
    def c_star(self) -> float:
        return self.poincare_effective * self.rho

    def validate(self) -> None:
        vals = [self.poincare_l2, self.poincare_l1_lower, self.c_bar, self.c_star]
        if not all(math.isfinite(v) and v >= 0.0 for v in vals):
            raise ValueError("constants must be finite and nonnegative")


def compute_constants_report(op: DiscreteOperator, eps: float | None = None,
                             safety_factor: float = 2.0, seed: int = 0) -> ConstantsReport:
    if eps is None:
        eps = op.d0 / 2.0
    report = ConstantsReport(
        poincare_l2=poincare_mean_sigma(op, "L2_eig"),
        poincare_l1_lower=poincare_mean_sigma(op, "L1_empirical", seed=seed),
        c_bar=best_embedding_constant(op, eps),
        c_bar_eps=eps,
        zeta_table=interpolation_zeta(op, (0.125, 0.25, 0.5), seed=seed),
        safety_factor=safety_factor,
        total_mass=op.measure.total_mass,
        domain_area=op.mesh.domain_area,
    )
    report.validate()
    return report


def save_constants(report: ConstantsReport, path) -> None:
    """Flat key=value serialization, one constant per line."""
    names = ("poincare_l2", "poincare_l1_lower", "poincare_effective", "c_star",
             "c_bar", "c_bar_eps", "safety_factor", "total_mass", "domain_area")
    values = {name: getattr(report, name) for name in names}
    values.update((f"zeta[{text(e)}]", z) for e, z in report.zeta_table)
    write_fields(path, values)
