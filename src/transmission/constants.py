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


def random_smooth_states(op: DiscreteOperator, count: int, seed: int = 0,
                         max_mode: int = 4) -> list[np.ndarray]:
    """Low-frequency random fields restricted to free DOFs."""
    rng = np.random.default_rng(seed)
    x = op.mesh.vertices[:, 0]
    y = op.mesh.vertices[:, 1]
    out = []
    for _ in range(count):
        field_full = np.zeros(len(x))
        for k in range(1, max_mode + 1):
            for l in range(1, max_mode + 1):
                c = rng.standard_normal() / (k * l)
                phase_x, phase_y = rng.uniform(0, 2 * np.pi, size=2)
                field_full += c * np.sin(np.pi * k * x + phase_x) * np.sin(np.pi * l * y + phase_y)
        out.append(field_full[op.free_dofs])
    return out


def _gradient_operator(mesh) -> tuple[sp.csr_matrix, np.ndarray]:
    """Sparse map from vertex values to per-triangle (ux, uy), plus areas."""
    areas, gx, gy = p1_gradients(mesh)
    tris = mesh.triangles
    nt = len(tris)
    rows = np.concatenate([np.repeat(np.arange(nt), 3),
                           np.repeat(np.arange(nt, 2 * nt), 3)])
    cols = np.concatenate([tris.ravel(), tris.ravel()])
    vals = np.concatenate([gx.ravel(), gy.ravel()])
    G = sp.coo_matrix((vals, (rows, cols)), shape=(2 * nt, len(mesh.vertices))).tocsr()
    return G, areas


def poincare_mean_sigma(op: DiscreteOperator, mode: str = "L2_eig",
                        n_starts: int = 50, n_iters: int = 150,
                        seed: int = 0) -> float:
    """Best constant in  ||u - interface_mean(u)|| <= C ||grad u||.

    'L2_eig' solves the generalized eigenvalue problem of the quotient in
    the L2 norms exactly (unit diffusivity, no boundary constraints) and
    returns 1/sqrt(lambda_min).  'L1_empirical' runs projected subgradient
    ascent on the L1 quotient from random smooth starts and returns the
    largest quotient found, a lower bound on the true L1 constant.
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
        G, areas = _gradient_operator(mesh)
        GT = G.T.tocsr()   # a row-major transpose halves the cost of G^T x
        areas2 = np.concatenate([areas, areas])
        m_bulk = op.m_bulk.diagonal()
        nt = len(areas)
        rng = np.random.default_rng(seed)
        x = mesh.vertices[:, 0]
        y = mesh.vertices[:, 1]
        best = 0.0
        for start in range(n_starts):
            u = np.zeros(n_dof)
            for k in range(1, 4):
                for l in range(1, 4):
                    u += rng.standard_normal() / (k * l) * np.sin(np.pi * k * x) * np.cos(np.pi * l * y)
            u += 0.1 * rng.standard_normal(n_dof)
            u /= np.linalg.norm(u)
            for it in range(n_iters):
                centered = u - a @ u
                num = float(np.sum(m_bulk * np.abs(centered)))
                g = G @ u
                gt = np.hypot(g[:nt], g[nt:])
                den = float(np.sum(areas * gt))
                if den <= 1e-300:
                    break
                quot = num / den
                best = max(best, quot)
                s = np.sign(centered)
                grad_num = m_bulk * s - (np.sum(m_bulk * s)) * a
                safe = np.maximum(gt, 1e-14)
                unit = np.concatenate([g[:nt] / safe, g[nt:] / safe]) * areas2
                grad_den = GT @ unit
                grad = (grad_num * den - num * grad_den) / den**2
                gn = np.linalg.norm(grad)
                if gn <= 1e-14:
                    break
                u = u + 0.2 / math.sqrt(1.0 + it) * grad / gn
                u /= np.linalg.norm(u)
        return best

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
                       seed: int = 0, zeta_max: float = 64.0,
                       tol: float = 1e-12) -> dict:
    """Smallest exponent z such that, on all sampled states,
    ||U||_X2^2 <= eps * form(U, U) + eps^-z ||U||_X1^2.

    Samples are random smooth fields plus the ten lowest eigenvectors.  The
    search is a bisection on z (feasibility is monotone in z for eps < 1).
    Returns the exponent, the worst sample index and its required factor;
    the exponent is inf when even zeta_max fails.
    """
    if not (0.0 < eps <= 1.0):
        raise ValueError(f"eps={eps} outside (0, 1]")
    samples = random_smooth_states(op, trials, seed=seed)
    samples += list(spectrum(op, k=min(10, op.n_free)).eigenvectors.T)

    x2 = np.array([op.pair_norm2(u) for u in samples])
    aa = np.array([quadratic_form(op, u) for u in samples])
    x1sq = np.array([op.l1_pair_norm(u) ** 2 for u in samples])

    def feasible(z: float) -> bool:
        rhs = eps * aa + eps ** (-z) * x1sq
        return bool((x2 <= rhs * (1.0 + tol) + tol).all())

    deficit = x2 - eps * aa
    worst = int(np.argmax(deficit / np.maximum(x1sq, 1e-300)))
    if feasible(0.0):
        return {"zeta": 0.0, "worst_sample": worst, "eps": eps}
    if not feasible(zeta_max):
        return {"zeta": math.inf, "worst_sample": worst, "eps": eps}
    lo, hi = 0.0, zeta_max
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return {"zeta": hi, "worst_sample": worst, "eps": eps}


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
                             zeta_eps: tuple[float, ...] = (0.125, 0.25, 0.5),
                             safety_factor: float = 2.0, seed: int = 0,
                             l1_starts: int = 20, l1_iters: int = 80) -> ConstantsReport:
    if eps is None:
        eps = op.d0 / 2.0
    report = ConstantsReport(
        poincare_l2=poincare_mean_sigma(op, "L2_eig"),
        poincare_l1_lower=poincare_mean_sigma(op, "L1_empirical",
                                              n_starts=l1_starts, n_iters=l1_iters,
                                              seed=seed),
        c_bar=best_embedding_constant(op, eps),
        c_bar_eps=eps,
        zeta_table=[(e, interpolation_zeta(op, e, seed=seed)["zeta"]) for e in zeta_eps],
        safety_factor=safety_factor,
        total_mass=op.measure.total_mass,
        domain_area=op.mesh.domain_area,
    )
    report.validate()
    return report


def save_constants(report: ConstantsReport, path) -> None:
    """Flat key=value serialization, one constant per line."""
    lines = [
        f"poincare_l2={report.poincare_l2!r}",
        f"poincare_l1_lower={report.poincare_l1_lower!r}",
        f"poincare_effective={report.poincare_effective!r}",
        f"c_star={report.c_star!r}",
        f"c_bar={report.c_bar!r}",
        f"c_bar_eps={report.c_bar_eps!r}",
        f"safety_factor={report.safety_factor!r}",
        f"total_mass={report.total_mass!r}",
        f"domain_area={report.domain_area!r}",
    ]
    for e, z in report.zeta_table:
        lines.append(f"zeta[{e!r}]={z!r}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


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
