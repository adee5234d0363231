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
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import DiffusionTensor, DiscreteOperator, assemble_bulk, p1_gradients
from .operators import (
    NumericError,
    lanczos_start,
    lowest_pairs,
    quadratic_form,
    spectrum,
)
from .textio import text, write_fields


def random_smooth_states(op: DiscreteOperator, count: int,
                         seed: int = 0) -> list[np.ndarray]:
    """Low-frequency random fields (modes 1 to 4) restricted to free DOFs."""
    rng = np.random.default_rng(seed)
    x = op.mesh.vertices[:, 0]
    y = op.mesh.vertices[:, 1]
    out = []
    for _ in range(count):
        field_full = np.zeros(len(x))
        for k in range(1, 5):
            for l in range(1, 5):
                c = rng.standard_normal() / (k * l)
                phase_x, phase_y = rng.uniform(0, 2 * np.pi, size=2)
                field_full += c * np.sin(np.pi * k * x + phase_x) * np.sin(np.pi * l * y + phase_y)
        out.append(field_full[op.free_dofs])
    return out


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
                        n_starts: int = 50, seed: int = 0) -> float:
    """Best constant in  ||u - interface_mean(u)|| <= C ||grad u||.

    'L2_eig' solves the generalized eigenvalue problem of the quotient in
    the L2 norms exactly (unit diffusivity, no boundary constraints) and
    returns 1/sqrt(lambda_min).  'L1_empirical' sweeps every level set of
    x, y, n_starts random smooth fields and the ten lowest eigenvectors and
    returns the L1 quotient of the best indicator found, a lower bound on
    the true L1 constant.
    """
    mesh = op.mesh
    n_dof = len(mesh.vertices)
    a = op.m_iface.diagonal() / op.measure.total_mass

    if mode == "L2_eig":
        # K annihilates constants and a sums to 1, so the quotient may be
        # taken in the gauge a^T u = 0, where u - interface_mean(u) = u.  The
        # bordered solve S f = u of  K u + a mu = f, a^T u = 0  inverts K on
        # that gauge, and 1/lambda_min is the top eigenvalue of M^1/2 S M^1/2.
        _, k_unit = assemble_bulk(mesh, DiffusionTensor.isotropic(mesh))
        sqrt_m = np.sqrt(op.m_bulk.diagonal())
        col = sp.csc_matrix(a[:, None])
        bordered = sp.bmat([[k_unit, col], [col.T, None]], format="csc")
        lu = spla.splu(bordered)
        rhs = np.zeros(n_dof + 1)

        def matvec(v):
            rhs[:n_dof] = sqrt_m * np.ravel(v)
            return sqrt_m * lu.solve(rhs)[:n_dof]

        op_s = spla.LinearOperator((n_dof, n_dof), matvec=matvec, dtype=float)
        try:
            top = spla.eigsh(op_s, k=1, which="LA", v0=lanczos_start(n_dof),
                             return_eigenvectors=False)
        except spla.ArpackError as exc:
            raise NumericError(f"Poincare eigensolve failed: {exc}") from exc
        return float(math.sqrt(top[0]))

    if mode == "L1_empirical":
        # Level sets approach the L1 quotient (coarea formula), so all level
        # sets of each seed field are scored at once.  S_k holds the k
        # vertices of largest value; its indicator has centred L1 norm
        # m(S)(1 - a(S)) + (M - m(S)) a(S).  On a triangle whose corners rank
        # r0 < r1 < r2 the indicator's gradient is that of phi_0 while
        # r0 < k <= r1 and that of phi_2 while r1 < k <= r2, so cumulative
        # sums of the jumps give the total variation for every k.
        areas, gx, gy = p1_gradients(mesh)
        corner_tv = areas[:, None] * np.hypot(gx, gy)
        rows = np.arange(len(areas))
        m_bulk = op.m_bulk.diagonal()
        mass = m_bulk.sum()
        x = mesh.vertices[:, 0]
        y = mesh.vertices[:, 1]
        wave = np.arange(1, 4)
        sin_x = np.sin(np.pi * wave[:, None] * x)
        cos_y = np.cos(np.pi * wave[:, None] * y)
        coef = np.random.default_rng(seed).standard_normal((n_starts, 3, 3))
        coef /= np.outer(wave, wave)
        seeds = [x, y]
        seeds += list(np.einsum("skl,kn,ln->sn", coef, sin_x, cos_y))
        seeds += [op.embed(v) for v in spectrum(op, min(10, op.n_free)).eigenvectors.T]
        best, best_set = -1.0, None
        for u in seeds:
            order = np.argsort(-u, kind="stable")
            rank = np.empty(n_dof, dtype=int)
            rank[order] = np.arange(n_dof)
            ranks = rank[mesh.triangles]
            first = ranks.argmin(axis=1)
            last = ranks.argmax(axis=1)
            r0, r2 = ranks[rows, first], ranks[rows, last]
            tv0, tv2 = corner_tv[rows, first], corner_tv[rows, last]
            jumps = np.bincount(np.concatenate([r0, ranks.sum(axis=1) - r0 - r2, r2]) + 1,
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
    damped = (1.0 - eps / op.d0) * op.k_stiff + op.b_beta + op.theta
    vals, _ = lowest_pairs(op.restrict(damped), op.pair_mass_diag, 1)
    return float(vals[0])


def interpolation_zeta(op: DiscreteOperator, eps: float, trials: int = 20,
                       seed: int = 0, zeta_max: float = 64.0) -> dict:
    """Smallest exponent z such that, on all sampled states,
    ||U||_X2^2 <= eps * form(U, U) + eps^-z ||U||_X1^2.

    Samples are random smooth fields plus the ten lowest eigenvectors.  The
    search is a bisection on z (feasibility is monotone in z for eps < 1).
    Returns the exponent, the worst sample index and its required factor;
    the exponent is inf when even zeta_max fails.
    """
    return _zeta_table(op, (eps,), trials, seed, zeta_max)[0]


def _zeta_table(op: DiscreteOperator, eps_values: tuple[float, ...],
                trials: int, seed: int, zeta_max: float = 64.0) -> list[dict]:
    """interpolation_zeta at each of eps_values on one draw of samples: only
    the feasibility test depends on eps."""
    for eps in eps_values:
        if not (0.0 < eps <= 1.0):
            raise ValueError(f"eps={eps} outside (0, 1]")
    samples = random_smooth_states(op, trials, seed=seed)
    samples += list(spectrum(op, k=min(10, op.n_free)).eigenvectors.T)

    x2 = np.array([op.pair_norm2(u) for u in samples])
    aa = np.array([quadratic_form(op, u) for u in samples])
    x1sq = np.array([op.l1_pair_norm(u) ** 2 for u in samples])

    def feasible(eps: float, z: float) -> bool:
        rhs = eps * aa + eps ** (-z) * x1sq
        return bool((x2 <= rhs * (1.0 + 1e-12) + 1e-12).all())

    table = []
    for eps in eps_values:
        deficit = x2 - eps * aa
        worst = int(np.argmax(deficit / np.maximum(x1sq, 1e-300)))
        if feasible(eps, 0.0):
            zeta = 0.0
        elif not feasible(eps, zeta_max):
            zeta = math.inf
        else:
            lo, hi = 0.0, zeta_max
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if feasible(eps, mid):
                    hi = mid
                else:
                    lo = mid
            zeta = hi
        table.append({"zeta": zeta, "worst_sample": worst, "eps": eps})
    return table


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
    def c_star(self) -> float:
        return self.poincare_effective * self.total_mass / self.domain_area

    def validate(self) -> None:
        vals = [self.poincare_l2, self.poincare_l1_lower, self.c_bar, self.c_star]
        if not all(math.isfinite(v) and v >= 0.0 for v in vals):
            raise ValueError("constants must be finite and nonnegative")


def compute_constants_report(op: DiscreteOperator, eps: float | None = None,
                             safety_factor: float = 2.0, seed: int = 0,
                             l1_starts: int = 20) -> ConstantsReport:
    if eps is None:
        eps = op.d0 / 2.0
    report = ConstantsReport(
        poincare_l2=poincare_mean_sigma(op, "L2_eig"),
        poincare_l1_lower=poincare_mean_sigma(op, "L1_empirical",
                                              n_starts=l1_starts, seed=seed),
        c_bar=best_embedding_constant(op, eps),
        c_bar_eps=eps,
        zeta_table=[(z["eps"], z["zeta"])
                    for z in _zeta_table(op, (0.125, 0.25, 0.5), 20, seed)],
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


def load_constants(path) -> ConstantsReport:
    raw: dict[str, float] = {}
    zetas: list[tuple[float, float]] = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            key, val = line.split("=", 1)
            if key.startswith("zeta["):
                zetas.append((float(key[5:-1]), float(val)))
            else:
                raw[key] = float(val)
    return ConstantsReport(
        poincare_l2=raw["poincare_l2"],
        poincare_l1_lower=raw["poincare_l1_lower"],
        c_bar=raw["c_bar"],
        c_bar_eps=raw["c_bar_eps"],
        zeta_table=zetas,
        safety_factor=raw["safety_factor"],
        total_mass=raw["total_mass"],
        domain_area=raw["domain_area"],
    )
