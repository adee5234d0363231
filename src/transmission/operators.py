"""Spectral machinery for the assembled operator.

The lowest eigenpairs of A v = lambda M v (M the diagonal evolution mass),
the grid pencil solves and symmetric sparse factors that they, the constants
and the integrator solve with, and the smoothing fit of the 2->inf norm.
"""

from __future__ import annotations

import copy
import math
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


# Free DOFs from which quadratic_form sums u^T A u by stencil diagonals
# (`_DiagonalForm`) rather than by the CSR product.  At n=96 (9,312 DOFs, 1
# BLAS thread) a call takes 27 us against 47 us for the product, and 35
# against 65 us right after a grid solve, which evicts the 0.7 MB matrix from
# cache as each step of `integrate` does.  The CSR product is kept below this
# size for its values, not for speed: every smaller operator (each
# configs/*.ini, the sweep and constants workloads) keeps its energies bit
# for bit, and interpolation_zeta's one product equals the form exactly
# (test_zeta_form_values_are_the_quadratic_form).  Size does not count the
# calls that pay back the form's build (0.35 ms at n=32, 1.5 ms at n=96):
# `classify` at n >= 64 builds it for one e0.
_FORM_BY_DIAGONALS = 4096


def quadratic_form(op: DiscreteOperator, u: np.ndarray) -> float:
    """Energy u^T A u of a free-DOF state.  Below _FORM_BY_DIAGONALS free
    DOFs it is the CSR product u @ (A u); from there on it is summed by
    stencil diagonals, built once per operator, and agrees with the product
    to rounding."""
    u = np.asarray(u, dtype=float)
    if u.shape != (op.n_free,):
        raise ValueError(f"state has shape {u.shape}, expected ({op.n_free},)")
    if op.n_free >= _FORM_BY_DIAGONALS:
        if "diagonal_form" not in op._cache:
            op._cache["diagonal_form"] = _DiagonalForm.of(op.a_free)
        form = op._cache["diagonal_form"]
        if form is not None:
            return form(u)
    return float(u @ (op.a_free @ u))


def _dense_block(n: int, dofs: np.ndarray, rows: np.ndarray, cols: np.ndarray,
                 data: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """The sorted unique DOFs p of `dofs` (of n) and the dense p x p block of
    the entries (rows, cols, data) that lie in it, duplicates summed; None
    when p holds more than 4 sqrt(n) DOFs."""
    p = np.unique(dofs)
    if len(p) > 4.0 * math.sqrt(n):
        return None
    pos = np.full(n, -1)
    pos[p] = np.arange(len(p))
    pr, pc = pos[rows], pos[cols]
    on_p = (pr >= 0) & (pc >= 0)
    block = np.zeros((len(p), len(p)))
    np.add.at(block, (pr[on_p], pc[on_p]), data[on_p])
    return p, block


class _DiagonalForm:
    """u^T A u of a sparse n x n matrix A from its stored entries, grouped by
    diagonal.  The stencil diagonals are the offsets k that hold at least n/8
    stored entries, on both sides of the main diagonal (0, +-1 and +-n_x on
    a grid of rows of n_x DOFs): each is one weighted dot product of the
    shifted products u[i] u[i + k], weighted by A[i, i+k] + A[i+k, i].
    Every other entry (the nonlocal couplings among interface DOFs) goes into
    one dense block on the DOFs it touches (`_dense_block`, as the grid
    pencil's capacitance set does).  The pencil's own split is not reused:
    it exists only for d12 = 0 on a tensor grid, and its block holds the
    entries' differences from the grid stencil, not the entries."""

    __slots__ = ("diag", "offsets", "weights", "dofs", "block")

    @classmethod
    def of(cls, a) -> _DiagonalForm | None:
        """The form of the CSR matrix a; None when its dense block would
        hold more than 4 sqrt(n) DOFs."""
        n = a.shape[0]
        coo = a.tocoo()
        k = coo.col - coo.row
        offsets, counts = np.unique(k, return_counts=True)
        frequent = set(offsets[counts >= n / 8].tolist())
        stencil = sorted(d for d in frequent if d > 0 and -d in frequent)
        off = ~np.isin(k, [0] + stencil + [-d for d in stencil])
        rows, cols = coo.row[off], coo.col[off]
        split = _dense_block(n, np.concatenate([rows, cols]), rows, cols, coo.data[off])
        if split is None:
            return None
        out = cls()
        out.dofs, out.block = split
        out.diag = a.diagonal()
        out.offsets = stencil
        out.weights = [a.diagonal(d) + a.diagonal(-d) for d in stencil]
        return out

    def __call__(self, u: np.ndarray) -> float:
        """u^T A u."""
        total = float(np.dot(self.diag, u * u))
        for d, w in zip(self.offsets, self.weights):
            total += float(np.dot(w, u[:-d] * u[d:]))
        v = u[self.dofs]
        return total + float(v @ (self.block @ v))


def lanczos_start(n: int) -> np.ndarray:
    """Fixed start vector of every Lanczos solve, so that results repeat bit
    for bit; pseudo-random, so that no mode is orthogonal to it through a
    symmetry of the mesh."""
    return np.random.default_rng(0).uniform(0.5, 1.5, n)


class _SymmetricLU:
    """SuperLU factors of a symmetric matrix, solved through the transpose:
    A^T x = b is A x = b, and SuperLU's transposed solve is the faster one
    (about a fifth at n=96).  Every other attribute (nnz, L, U, ...) is the
    factor's own."""

    __slots__ = ("lu",)

    def __init__(self, lu):
        self.lu = lu

    def solve(self, b: np.ndarray) -> np.ndarray:
        return self.lu.solve(b, trans="T")

    def __getattr__(self, name):
        return getattr(self.lu, name)


def factor_symmetric(mat):
    """Sparse LU factors of a symmetric matrix in the minimum-degree order on
    A^T + A, solved through the transpose; a matrix that is not exactly
    symmetric, or a singular factor, is a NumericError."""
    mat = mat.tocsc()
    if (mat != mat.T).nnz:
        raise NumericError("factor_symmetric needs an exactly symmetric matrix")
    try:
        return _SymmetricLU(spla.splu(mat, permc_spec="MMD_AT_PLUS_A"))
    except RuntimeError as exc:
        raise NumericError(f"sparse factorization failed: {exc}") from exc


def _line_pencil(coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stiffness and lumped mass of P1 elements on the grid line `coords`."""
    h = np.diff(coords)
    k = np.diag(np.append(1.0 / h, 0.0) + np.insert(1.0 / h, 0, 0.0))
    k -= np.diag(1.0 / h, 1) + np.diag(1.0 / h, -1)
    return k, 0.5 * (np.append(h, 0.0) + np.insert(h, 0, 0.0))


# An entry of the assembled M or A that differs from the grid pencil's by at
# most this many ulp of the pencil's diagonal is taken as equal to it.  The
# assembled masses come from triangle areas, rounded relative to the mesh
# width: away from the interface and the corners they differ from the
# pencil's by up to 8 ulp at n=96 and 11 at n=243, the stiffness by 1 or 2
_GRID_ULPS = 64

# Bound on the probe residual of a grid solver: ||(M + dt A) x - b||_inf over
# ||M + dt A||_inf ||x||_inf + ||b||_inf, a backward error
_GRID_PROBE_TOL = 1e-12


class _GridPencil:
    """A diagonal mass M and a stiffness A on a tensor grid of free DOFs, as
    a pencil that fast diagonalization solves (Lynch, Rice & Thomas, Numer.
    Math. 6, 1964) plus a correction on a few DOFs (Buzbee, Dorr, George &
    Golub, SIAM J. Numer. Anal. 8, 1971).

    The free DOFs are the grid points (x_i, y_j) of the free lines, in
    row-major order.  The pencil is M_g = my (x) mx and A_g = d11 my (x) Kx
    + d22 Ky (x) mx, with (Kx, mx) and (Ky, my) the lumped P1 pencils of the
    free lines.  Their M-orthonormal eigenvectors phi_x, phi_y diagonalize
    M_g + dt A_g to lam = 1 + dt (d11 lam_x + d22 lam_y).  The assembled
    a and m of `fit` differ from them by c_m and c_a on the DOFs p, the
    capacitance set (for an operator, the interface nodes and the corners
    whose lumped mass is not the product of the lines' masses), in free-DOF
    order.  row_of[k] indexes the grid row of p[k] in phi_y_rows, and x_p[k]
    holds the x modes at its column.
    """

    def __init__(self, x_line, y_line, d11, d22):
        (self.kx, self.mx), (self.ky, self.my) = x_line, y_line
        self.d11, self.d22 = d11, d22
        self.lam_x, self.phi_x = scipy.linalg.eigh(self.kx, np.diag(self.mx))
        self.lam_y, self.phi_y = scipy.linalg.eigh(self.ky, np.diag(self.my))
        self.shape = (len(self.my), len(self.mx))

    def fit(self, a, m: np.ndarray, scale: float = 1.0) -> _GridPencil | None:
        """The pencil of the free-DOF CSR stiffness a and diagonal mass m on
        these lines, with d11 and d22 times `scale`; None when P holds more
        than 4 sqrt(n_free) DOFs (all of them when d12 != 0).  Each stored
        entry of a is compared with A_g's at its grid row and column."""
        out = copy.copy(self)
        out.d11, out.d22, out.a, out.m = scale * self.d11, scale * self.d22, a, m
        rows = np.repeat(np.arange(len(m)), np.diff(a.indptr))
        (jr, ir), (jc, ic) = np.divmod(rows, len(self.mx)), np.divmod(a.indices, len(self.mx))
        diag = (out.d11 * (self.my[:, None] * np.diag(self.kx))
                + out.d22 * (np.diag(self.ky)[:, None] * self.mx)).ravel()[rows]
        d_a = a.data - ((jr == jc) * (out.d11 * (self.my[jr] * self.kx[ir, ic]))
                        + (ir == ic) * (out.d22 * (self.ky[jr, jc] * self.mx[ir])))
        m_grid = np.outer(self.my, self.mx).ravel()
        d_m = m - m_grid
        ulps = _GRID_ULPS * np.finfo(float).eps
        off = np.abs(d_a) > ulps * diag
        # P, and the entries of d_a in P x P
        split = _dense_block(len(m), np.concatenate([
            np.flatnonzero(np.abs(d_m) > ulps * m_grid), rows[off], a.indices[off]]),
            rows, a.indices, d_a)
        if split is None:
            return None
        p, out.c_a = split
        out.p, out.c_m = p, np.diag(d_m[p])
        uniq, out.row_of = np.unique(p // len(self.mx), return_inverse=True)
        out.phi_y_rows, out.x_p = self.phi_y[uniq], self.phi_x[p % len(self.mx)]
        out.index = np.arange(len(p))
        # for every solver built on this pencil: its probe, and the row sums of |a|
        out.probe = lanczos_start(len(m))
        out.abs_row_sums = abs(a) @ np.ones(len(m))
        return out

    def gram(self, lam: np.ndarray) -> np.ndarray:
        """P^T (M_g + dt A_g)^-1 P, one grid row of p at a time: the sum over
        the y modes k of phi_y[j, k] phi_y[j', k] / lam[k, l] for every pair
        of rows j, j' of p is a row of x-mode weights between them."""
        inv = 1.0 / lam
        out = np.empty((len(self.x_p), len(self.x_p)))
        for a, row in enumerate(self.phi_y_rows):
            weights = (self.phi_y_rows * row) @ inv
            on_row = self.row_of == a
            out[on_row] = self.x_p[on_row] @ (self.x_p * weights[self.row_of]).T
        return out

    def accurate_at(self, dt: float) -> bool:
        """Whether the Woodbury correction at dt amplifies rounding by at
        most 4, that factor being about (1 + dt r) / (1 + dt g): g the lowest
        eigenvalue of (A_g, M_g), r the Rayleigh quotient of its mode on
        (a, m).  It is below 2 on every grid with a Dirichlet side; on one
        without, g = 0, and at dt = 1,000 on n = 16 the probe fails."""
        mode = np.outer(self.phi_y[:, 0], self.phi_x[:, 0]).ravel()
        r = mode @ (self.a @ mode) / (mode @ (self.m * mode))
        return 1.0 + dt * r <= 4.0 * (1.0 + dt * (self.d11 * self.lam_x[0] + self.d22 * self.lam_y[0]))


def _grid_pencil(verts: np.ndarray, free_dofs: np.ndarray, k_full, a,
                 m: np.ndarray) -> _GridPencil | None:
    """The grid pencil (`_GridPencil.fit`) of the free-DOF stiffness a and
    diagonal mass m of the vertices free_dofs, with d11 and d22 read from
    k_full, the full-vertex stiffness without interface terms; None also
    when the free DOFs are not a tensor grid."""
    side = math.isqrt(len(verts))
    xs, ys = verts[:side, 0], verts[::side, 1]
    if not np.array_equal(verts, np.column_stack([np.tile(xs, side),
                                                  np.repeat(ys, side)])):
        return None
    free = np.zeros(len(verts), dtype=bool)
    free[free_dofs] = True
    free = free.reshape(side, side)
    iy, ix = np.flatnonzero(free.any(axis=1)), np.flatnonzero(free.any(axis=0))
    if len(iy) * len(ix) != len(free_dofs):
        return None
    (kx, mx), (ky, my) = _line_pencil(xs), _line_pencil(ys)
    # d11 and d22 from the couplings of a vertex inside the square
    j = i = side // 2
    v = j * side + i
    d11 = k_full[v, v + 1] / (my[j] * kx[i, i + 1])
    d22 = k_full[v, v + side] / (ky[j, j + 1] * mx[i])
    if not (d11 > 0.0 and d22 > 0.0):
        return None
    return _GridPencil((kx[np.ix_(ix, ix)], mx[ix]), (ky[np.ix_(iy, iy)], my[iy]),
                       d11, d22).fit(a, m)


def _pencil(op: DiscreteOperator) -> _GridPencil | None:
    """The grid pencil of (A, M) on the operator's free DOFs, detected once
    and kept on the operator; None when it has none."""
    if "pencil" not in op._cache:
        op._cache["pencil"] = _grid_pencil(op.mesh.vertices, op.free_dofs, op.k_stiff,
                                           op.a_free, op.mass_diag)
    return op._cache["pencil"]


class _GridSolver:
    """Solves (M + dt A) x = b on the grid pencil by the Woodbury identity
    with C = c_m + dt c_a on P, never inverting C:
        x = y - B^-1 P z,  y = B^-1 b,  z = S^-1 C P^T y,
    with B = M_g + dt A_g solved in the eigenbasis of the grid lines and
    S = I + C P^T B^-1 P solved once, for W = S^-1 C.  It stores 1/lam and W:
    that count of floats is its `nnz` in the integrator's solver cache.  It
    solves one probe against the pencil's assembled a and m to within
    _GRID_PROBE_TOL; beyond it is a NumericError."""

    __slots__ = ("grid", "inv_lam", "w", "nnz")

    def __init__(self, grid: _GridPencil, dt: float):
        self.grid = grid
        lam = 1.0 + dt * (grid.d11 * grid.lam_x + grid.d22 * grid.lam_y[:, None])
        cap = grid.c_m + dt * grid.c_a
        s = np.eye(len(cap)) + cap @ grid.gram(lam)
        self.w = scipy.linalg.lu_solve(scipy.linalg.lu_factor(s, check_finite=False),
                                       cap, check_finite=False)
        self.inv_lam = 1.0 / lam
        self.nnz = self.inv_lam.size + self.w.size
        b = grid.probe
        x = self.solve(b)
        residual = np.abs(grid.a @ x * dt + grid.m * x - b).max()
        norm = (grid.m + dt * grid.abs_row_sums).max()   # ||M + dt A||_inf
        scale = norm * np.abs(x).max() + np.abs(b).max()
        if not residual <= _GRID_PROBE_TOL * scale:
            raise NumericError(f"grid solver probe residual {residual / scale:.3e} "
                               f"exceeds {_GRID_PROBE_TOL:.1e} at dt={dt}")

    def solve(self, b: np.ndarray) -> np.ndarray:
        g = self.grid
        # non-finite entries of b spread through x, as they do through an LU
        # solve, and warn no more than it does
        with np.errstate(invalid="ignore", over="ignore"):
            coef = g.phi_y.T @ b.reshape(g.shape) @ g.phi_x
            coef *= self.inv_lam
            # y on P: the rows of P in the x modes, each p's value at its column
            y_p = (g.x_p @ (g.phi_y_rows @ coef).T)[g.index, g.row_of]
            # B^-1 P z in the eigenbasis: the x modes of z summed row by row
            sums = np.zeros((len(g.phi_y_rows), len(y_p)))
            sums[g.row_of, g.index] = self.w @ y_p
            coef -= (g.phi_y_rows.T @ (sums @ g.x_p)) * self.inv_lam
            return (g.phi_y @ coef @ g.phi_x.T).ravel()


# Bound on the residual of every returned eigenpair, relative to the scale of
# its eigenvector and of the largest eigenvalue returned
_RESIDUAL_TOL = 1e-8


def lowest_pairs(a_csr, m_diag: np.ndarray, k: int,
                 pencil: _GridPencil | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Lowest k eigenpairs of the pencil (A, diag(m)), eigenvectors
    m-orthonormal; every returned pair's residual is verified.

    The pencil is reduced to B = M^-1/2 A M^-1/2.  ARPACK in shift-invert
    mode serves k < n - 1 pairs, solving B - sigma I by the grid solver of
    `pencil`, the grid pencil of (A, diag(m)), when given and accurate, else
    by a sparse factor; the full basis (k >= n - 1, beyond ARPACK) comes
    from a dense eigensolve.
    """
    n = a_csr.shape[0]
    inv_sqrt = 1.0 / np.sqrt(m_diag)

    def reduced():
        d = sp.diags(inv_sqrt)
        B = (d @ a_csr @ d).tocsc()
        return 0.5 * (B + B.T)

    if k >= n - 1:
        vals, vecs = scipy.linalg.eigh(reduced().toarray(), subset_by_index=[0, k - 1])
    else:
        # A is positive semidefinite: a shift just below zero, small against
        # the scale of B (its largest diagonal entry), keeps B - sigma I
        # nonsingular even when A has a kernel.  B - sigma I is
        # M^-1/2 (M + dt A) M^-1/2 / dt at dt = -1/sigma
        sigma = -1e-6 * (inv_sqrt * a_csr.diagonal() * inv_sqrt).max()
        dt = -1.0 / sigma
        if pencil is not None and pencil.accurate_at(dt):
            grid, sqrt_m = _GridSolver(pencil, dt), np.sqrt(m_diag)

            def solve(x):
                return sqrt_m * grid.solve(sqrt_m * np.ravel(x)) * dt
        else:
            # factored in minimum-degree order, it fills far less than in the
            # COLAMD order of eigsh's own factor
            solve = factor_symmetric(reduced() - sigma * sp.identity(n, format="csc")).solve
        shift_inv = spla.LinearOperator((n, n), matvec=solve, dtype=float)
        try:
            # shift-invert mode reads B only through OPinv
            vals, vecs = spla.eigsh(shift_inv, k=k, sigma=sigma, which="LM",
                                    v0=lanczos_start(n), OPinv=shift_inv)
        except spla.ArpackError as exc:
            raise NumericError(f"shift-invert Lanczos failed: {exc}") from exc
        order = np.argsort(vals)
        vals, vecs = vals[order], vecs[:, order]
    V = vecs * inv_sqrt[:, None]
    # column sign normalization for reproducibility across LAPACK variants
    pivot = np.argmax(np.abs(V), axis=0)
    signs = np.sign(V[pivot, np.arange(V.shape[1])])
    signs[signs == 0] = 1.0
    V = V * signs[None, :]
    res = np.linalg.norm(a_csr @ V - (m_diag[:, None] * V) * vals[None, :], axis=0)
    scale = np.linalg.norm(V, axis=0)
    bad = res > _RESIDUAL_TOL * np.maximum(scale, 1.0) * max(np.abs(vals).max(), 1.0)
    if bad.any():
        worst = float((res / np.maximum(scale, 1.0)).max())
        raise NumericError(f"eigenpair residual {worst:.3e} exceeds {_RESIDUAL_TOL:.1e}")
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
        vals, V = lowest_pairs(op.a_free, m, k, _pencil(op))
        for arr in (vals, V):
            arr.flags.writeable = False
        full = SpectralData(eigenvalues=vals, eigenvectors=V, mass_diag=m)
        op._cache["spectrum"] = full
    if full.count == k:
        return full
    return SpectralData(eigenvalues=full.eigenvalues[:k],
                        eigenvectors=full.eigenvectors[:, :k],
                        mass_diag=full.mass_diag)


def two_to_inf_norm(spec: SpectralData, t: float) -> float:
    """Operator norm of the propagator from the mass-weighted l2 norm to the
    max norm: the largest mass-weighted row norm of the eigenexpansion."""
    decay = np.exp(-2.0 * spec.eigenvalues * t)
    row2 = (spec.eigenvectors ** 2) @ decay
    return float(np.sqrt(row2.max()))


def fit_line(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """(slope, intercept, r2) of the least-squares line through (x, y)."""
    # x in units of a power of two near max|x|: exact, and polyfit's column
    # scaling cannot underflow on a tiny range (a pairs horizon of 1e-300)
    unit = math.ldexp(1.0, math.frexp(np.max(np.abs(x)))[1])
    slope, intercept = np.polyfit(x / unit, y, 1)
    slope /= unit
    ss_res = float(np.sum((y - (slope * x + intercept)) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    return float(slope), float(intercept), 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0


def ultracontractivity_fit(spec: SpectralData, t_grid: np.ndarray) -> dict:
    """Log-log fit of the 2->inf propagator norm against time.

    Returns the fitted slope/intercept/R^2 together with the small-t
    flattening scale (finite-dimensional saturation) and the crossover time
    1/lambda_1 beyond which pure spectral decay dominates.  Callers compare
    the slope against -gamma/4 themselves, gamma = 2d / (d - N + 2).
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


def export_spectrum_csv(spec: SpectralData, path) -> None:
    write_table(path, "k,lambda_k", np.arange(1, spec.count + 1), spec.eigenvalues)


def export_ultracontractivity_csv(fit: dict, path) -> None:
    write_table(path, "t,norm_2_to_inf", fit["t"], fit["norm"])
