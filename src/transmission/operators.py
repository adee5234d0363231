"""Spectral and semigroup machinery for the assembled operator.

The generalized eigenproblem A v = lambda M v (M the diagonal evolution
mass) underpins exact propagator evaluation; Markov-property and smoothing
diagnostics probe the structural guarantees of the discretization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import DiscreteOperator
from .textio import write_table


class NumericError(RuntimeError):
    """Solver failure or residual beyond tolerance."""


@dataclass
class SpectralData:
    """Lowest generalized eigenpairs, eigenvectors M-orthonormal."""

    eigenvalues: np.ndarray    # (K,) nondecreasing
    eigenvectors: np.ndarray   # (n_free, K)
    mass_diag: np.ndarray      # evolution mass used in the pairing

    @property
    def count(self) -> int:
        return len(self.eigenvalues)


def quadratic_form(op: DiscreteOperator, u: np.ndarray, v: np.ndarray | None = None) -> float:
    """Energy pairing v^T A u of free-DOF states (u, u) if v omitted)."""
    u = np.asarray(u, dtype=float)
    if u.shape != (op.n_free,):
        raise ValueError(f"state has shape {u.shape}, expected ({op.n_free},)")
    if v is None:
        v = u
    elif np.asarray(v).shape != (op.n_free,):
        raise ValueError("mismatched state dimensions")
    return float(np.asarray(v) @ (op.a_free @ u))


def lanczos_start(n: int) -> np.ndarray:
    """Fixed start vector of every Lanczos solve, so that results repeat bit
    for bit; pseudo-random, so that no mode is orthogonal to it through a
    symmetry of the mesh."""
    return np.random.default_rng(0).uniform(0.5, 1.5, n)


def lowest_pairs(a_csr, m_diag: np.ndarray, k: int,
                 residual_tol: float = 1e-8) -> tuple[np.ndarray, np.ndarray]:
    """Lowest k eigenpairs of the pencil (A, diag(m)), eigenvectors
    m-orthonormal; every returned pair's residual is verified.

    The pencil is reduced to B = M^-1/2 A M^-1/2, which stays sparse.  ARPACK
    in shift-invert mode serves k < n - 1 pairs; the full basis (k >= n - 1,
    beyond ARPACK) comes from a dense eigensolve.
    """
    n = a_csr.shape[0]
    d = sp.diags(1.0 / np.sqrt(m_diag))
    B = (d @ a_csr @ d).tocsc()
    B = 0.5 * (B + B.T)
    if k >= n - 1:
        vals, vecs = scipy.linalg.eigh(B.toarray(), subset_by_index=[0, k - 1])
    else:
        # A is positive semidefinite: a shift just below zero, small against
        # the scale of B, keeps B - sigma I nonsingular even when A has a
        # kernel
        sigma = -1e-6 * B.diagonal().max()
        try:
            vals, vecs = spla.eigsh(B, k=k, sigma=sigma, which="LM",
                                    v0=lanczos_start(n))
        except spla.ArpackError as exc:
            raise NumericError(f"shift-invert Lanczos failed: {exc}") from exc
        order = np.argsort(vals)
        vals, vecs = vals[order], vecs[:, order]
    V = d @ vecs
    # column sign normalization for reproducibility across LAPACK variants
    pivot = np.argmax(np.abs(V), axis=0)
    signs = np.sign(V[pivot, np.arange(V.shape[1])])
    signs[signs == 0] = 1.0
    V = V * signs[None, :]
    res = np.linalg.norm(a_csr @ V - (m_diag[:, None] * V) * vals[None, :], axis=0)
    scale = np.linalg.norm(V, axis=0)
    bad = res > residual_tol * np.maximum(scale, 1.0) * max(np.abs(vals).max(), 1.0)
    if bad.any():
        worst = float((res / np.maximum(scale, 1.0)).max())
        raise NumericError(f"eigenpair residual {worst:.3e} exceeds {residual_tol:.1e}")
    return vals, V


def spectrum(op: DiscreteOperator, k: int | None = None) -> SpectralData:
    """Lowest k generalized eigenpairs of A v = lambda M v.

    One solve per operator: the result with the most pairs is kept on the
    operator, and a request for no more pairs gets read-only slices of it.
    """
    n = op.n_free
    if k is None:
        k = n
    if not (1 <= k <= n):
        raise ValueError(f"requested {k} eigenpairs of a {n}-DOF operator")
    full = op._cache.get("spectrum")
    if full is None or full.count < k:
        m = op.mass_diag
        if (m <= 0.0).any():
            raise NumericError("evolution mass not positive definite on free DOFs")
        vals, V = lowest_pairs(op.a_free, m, k)
        for arr in (vals, V):
            arr.flags.writeable = False
        full = SpectralData(eigenvalues=vals, eigenvectors=V, mass_diag=m)
        op._cache["spectrum"] = full
    if full.count == k:
        return full
    return SpectralData(eigenvalues=full.eigenvalues[:k],
                        eigenvectors=full.eigenvectors[:, :k],
                        mass_diag=full.mass_diag)


def semigroup_apply(spec: SpectralData, t: float, F: np.ndarray) -> np.ndarray:
    """Propagator exp(-t M^-1 A) applied to F through the eigenexpansion."""
    if t < 0:
        raise ValueError("time must be nonnegative")
    coeff = spec.eigenvectors.T @ (spec.mass_diag * F)
    return spec.eigenvectors @ (np.exp(-spec.eigenvalues * t) * coeff)


def markov_check(op: DiscreteOperator, trials: int, t_grid: np.ndarray,
                 seed: int = 0) -> dict:
    """Positivity and sup-norm contraction of backward-Euler steps.

    Runs random nonnegative initial vectors through the implicit steps
    (M + dt A) u+ = M u along t_grid and reports the minimum entry ever seen
    and the largest per-step sup-norm ratio.
    """
    from .dynamics import _imex_solver   # dynamics imports this module

    t_grid = np.asarray(t_grid, dtype=float)
    if len(t_grid) < 1 or (np.diff(t_grid) <= 0).any():
        raise ValueError("t_grid must be strictly increasing")
    dts = np.diff(np.concatenate([[0.0], t_grid]))
    # the steps of a uniform grid differ in their last bits: rounded to 12
    # significant digits they share one factorization
    dts = [float(f"{dt:.12g}") for dt in dts]
    rng = np.random.default_rng(seed)
    m = op.mass_diag
    min_entry = np.inf
    sup_ratio = 0.0
    for _ in range(trials):
        u = np.abs(rng.standard_normal(op.n_free))
        for dt in dts:
            unew = _imex_solver(op, dt).solve(m * u)
            min_entry = min(min_entry, float(unew.min()))
            denom = np.abs(u).max()
            if denom > 0:
                sup_ratio = max(sup_ratio, float(np.abs(unew).max() / denom))
            u = unew
    return {"min_entry": min_entry, "sup_ratio": sup_ratio}


def two_to_inf_norm(spec: SpectralData, t: float) -> float:
    """Operator norm of the propagator from the mass-weighted l2 norm to the
    max norm: the largest mass-weighted row norm of the eigenexpansion."""
    decay = np.exp(-2.0 * spec.eigenvalues * t)
    row2 = (spec.eigenvectors ** 2) @ decay
    return float(np.sqrt(row2.max()))


def fit_line(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """(slope, intercept, r2) of the least-squares line through (x, y)."""
    slope, intercept = np.polyfit(x, y, 1)
    ss_res = float(np.sum((y - (slope * x + intercept)) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    return float(slope), float(intercept), 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0


def ultracontractivity_fit(spec: SpectralData, t_grid: np.ndarray) -> dict:
    """Log-log fit of the 2->inf propagator norm against time.

    Returns the fitted slope/intercept/R^2 together with the small-t
    flattening scale (finite-dimensional saturation) and the crossover time
    1/lambda_1 beyond which pure spectral decay dominates.  Callers compare
    the slope against -gamma/4 themselves (see smoothing_exponent).
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if len(t_grid) < 3:
        raise ValueError("need at least 3 fit points")
    if (t_grid <= 0).any():
        raise ValueError("fit times must be positive")
    norms = np.array([two_to_inf_norm(spec, t) for t in t_grid])
    slope, intercept, r2 = fit_line(np.log(t_grid), np.log(norms))
    norm0 = float(np.sqrt(((spec.eigenvectors ** 2).sum(axis=1)).max()))
    flat = t_grid[norms >= 0.8 * norm0]
    saturation = float(flat.max()) if len(flat) else 0.0
    return {
        "t": t_grid,
        "norm": norms,
        "slope": slope,
        "intercept": intercept,
        "r2": r2,
        "saturation_scale": saturation,
        "spectral_crossover": float(1.0 / spec.eigenvalues[0]),
    }


def smoothing_exponent(dim_d: float, ambient_dim: int = 2) -> float:
    """Exponent gamma = 2d / (d - N + 2) governing the 2->inf smoothing rate
    t^(-gamma/4)."""
    return 2.0 * dim_d / (dim_d - ambient_dim + 2.0)


def export_spectrum_csv(spec: SpectralData, path) -> None:
    write_table(path, "k,lambda_k", np.arange(1, spec.count + 1), spec.eigenvalues)


def export_ultracontractivity_csv(fit: dict, path) -> None:
    write_table(path, "t,norm_2_to_inf", fit["t"], fit["norm"])
