"""Finite element assembly of the coupled bulk/interface bilinear form.

One degree of freedom per mesh vertex; the field is continuous across the
interface.  Five matrices realize the form: lumped bulk mass, lumped
interface mass, bulk stiffness, coefficient-weighted interface mass and the
nonlocal interface kernel matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .geometry import InterfaceMeasure, MeshedDomain, triangle_areas


class AssemblyError(ValueError):
    """Degenerate geometry or invalid coefficients at assembly time."""


class ValidationError(AssemblyError):
    """Coefficient outside its admissible range."""


@dataclass
class DiffusionTensor:
    """Per-triangle symmetric 2x2 diffusivity with an ellipticity floor d0."""

    d11: np.ndarray
    d12: np.ndarray
    d22: np.ndarray
    d0: float

    def __post_init__(self):
        self.d11 = np.asarray(self.d11, dtype=float)
        self.d12 = np.asarray(self.d12, dtype=float)
        self.d22 = np.asarray(self.d22, dtype=float)
        if self.d0 <= 0.0:
            raise ValidationError("ellipticity floor d0 must be positive")
        lam_min = self.smallest_eigenvalues()
        if (lam_min < self.d0 - 1e-12).any():
            raise ValidationError(
                "diffusion tensor eigenvalue below the ellipticity floor d0"
            )

    def smallest_eigenvalues(self) -> np.ndarray:
        half_tr = 0.5 * (self.d11 + self.d22)
        rad = np.sqrt(0.25 * (self.d11 - self.d22) ** 2 + self.d12 ** 2)
        return half_tr - rad

    @classmethod
    def isotropic(cls, mesh: MeshedDomain) -> "DiffusionTensor":
        return cls.constant(mesh, 1.0, 0.0, 1.0, d0=1.0)

    @classmethod
    def constant(cls, mesh: MeshedDomain, d11: float, d12: float, d22: float,
                 d0: float) -> "DiffusionTensor":
        m = len(mesh.triangles)
        return cls(np.full(m, d11), np.full(m, d12), np.full(m, d22), d0=d0)


@dataclass
class KernelSpec:
    """Interface interaction kernel: the power law |x - y|^-(d + 2s)."""

    s: float
    dim_d: float

    def __post_init__(self):
        if not (0.0 < self.s < 1.0):
            raise ValidationError(f"kernel exponent s={self.s} outside (0, 1)")

    def evaluate(self, r: np.ndarray) -> np.ndarray:
        return r ** (-(self.dim_d + 2.0 * self.s))


@dataclass
class BetaCoefficient:
    """Nodal reaction coefficient on the interface with floor beta0 >= 0."""

    values: np.ndarray
    beta0: float = 0.0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.beta0 < 0.0:
            raise ValidationError("beta0 must be >= 0")
        if (self.values < self.beta0 - 1e-14).any():
            raise ValidationError("interface coefficient below its floor beta0")

    @classmethod
    def constant(cls, measure: InterfaceMeasure, value: float) -> "BetaCoefficient":
        return cls(np.full(len(measure.weights), value), beta0=value)


def p1_gradients(mesh: MeshedDomain) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Triangle areas and the x and y gradients of the three barycentric
    basis functions of every triangle, each gradient array (n_tri, 3)."""
    verts, tris = mesh.vertices, mesh.triangles
    areas = triangle_areas(verts, tris)
    if (areas <= 0.0).any():
        raise AssemblyError("degenerate (zero-area) triangle")
    p0, p1, p2 = verts[tris[:, 0]], verts[tris[:, 1]], verts[tris[:, 2]]
    gx = np.stack([p1[:, 1] - p2[:, 1], p2[:, 1] - p0[:, 1], p0[:, 1] - p1[:, 1]], axis=1)
    gy = np.stack([p2[:, 0] - p1[:, 0], p0[:, 0] - p2[:, 0], p1[:, 0] - p0[:, 0]], axis=1)
    gx /= (2.0 * areas)[:, None]
    gy /= (2.0 * areas)[:, None]
    return areas, gx, gy


def assemble_bulk(mesh: MeshedDomain, D: DiffusionTensor) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """Lumped bulk mass and stiffness matrices for piecewise-linear elements."""
    verts, tris = mesh.vertices, mesh.triangles
    areas, gx, gy = p1_gradients(mesh)
    if len(D.d11) != len(tris):
        raise AssemblyError("diffusion tensor length does not match triangle count")

    dgx = D.d11[:, None] * gx + D.d12[:, None] * gy
    dgy = D.d12[:, None] * gx + D.d22[:, None] * gy
    n_dof = len(verts)
    rows, cols, vals = [], [], []
    for a in range(3):
        for b in range(3):
            rows.append(tris[:, a])
            cols.append(tris[:, b])
            vals.append(areas * (dgx[:, a] * gx[:, b] + dgy[:, a] * gy[:, b]))
    K = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n_dof, n_dof),
    ).tocsr()
    K = 0.5 * (K + K.T)   # exact symmetry against accumulation-order roundoff

    lumped = np.zeros(n_dof)
    np.add.at(lumped, tris.ravel(), np.repeat(areas / 3.0, 3))
    M = sp.diags(lumped, format="csr")
    return M, K


def assemble_interface_mass(mesh: MeshedDomain, measure: InterfaceMeasure,
                            beta: BetaCoefficient) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """Diagonal interface mass and coefficient-weighted interface mass."""
    if len(beta.values) != len(measure.weights):
        raise ValidationError("beta nodal array does not match interface node count")
    if (measure.weights <= 0.0).any():
        raise ValidationError("interface weights must be positive")
    if len(mesh.dirichlet_vertices()) == 0 and not (beta.values > 0.0).any():
        raise ValidationError(
            "beta identically zero with empty Dirichlet boundary: form not coercive"
        )
    n_dof = len(mesh.vertices)
    w_full = np.zeros(n_dof)
    w_full[mesh.interface_nodes] = measure.weights
    bw_full = np.zeros(n_dof)
    bw_full[mesh.interface_nodes] = beta.values * measure.weights
    return sp.diags(w_full, format="csr"), sp.diags(bw_full, format="csr")


def nonlocal_kernel_matrix(measure: InterfaceMeasure, kernel: KernelSpec) -> np.ndarray:
    """Dense interface-node block of the nonlocal form.

    Satisfies u^T N u = sum over ordered pairs (i != j) of
    K(x_i, x_j) (u_i - u_j)^2 w_i w_j; symmetric, positive semidefinite,
    annihilates constants.
    """
    pos = measure.node_positions
    if len(pos) < 2:
        raise AssemblyError("need at least 2 interface nodes")
    diff = pos[:, None, :] - pos[None, :, :]
    r = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    off = ~np.eye(len(pos), dtype=bool)
    if (r[off] == 0.0).any():
        raise AssemblyError("coincident interface nodes make the kernel singular")
    kvals = np.zeros_like(r)
    kvals[off] = kernel.evaluate(r[off])
    # the Laplacian below sums over unordered pairs; the factor 2 counts
    # both orders of each pair, as the docstring's form does
    edge = 2.0 * kvals * np.outer(measure.weights, measure.weights)
    return np.diag(edge.sum(axis=1)) - edge


def assemble_nonlocal(mesh: MeshedDomain, measure: InterfaceMeasure,
                      kernel: KernelSpec) -> sp.csr_matrix:
    """Nonlocal kernel matrix embedded over the full vertex set."""
    local = nonlocal_kernel_matrix(measure, kernel)
    n_dof = len(mesh.vertices)
    idx = mesh.interface_nodes
    rows = np.repeat(idx, len(idx))
    cols = np.tile(idx, len(idx))
    return sp.coo_matrix((local.ravel(), (rows, cols)), shape=(n_dof, n_dof)).tocsr()


@dataclass
class DiscreteOperator:
    """Assembled matrices of the coupled problem and its free-DOF layout.

    The five matrices are over the full vertex set.  The vertices in
    ``dirichlet_dofs`` are eliminated once, at construction: ``free_dofs``,
    the form ``a_full`` and its restriction ``a_free``, and the free-DOF
    diagonals ``bulk_mass_diag``, ``iface_mass_diag``, ``mass_diag``
    (evolution mass, bulk + delta * interface), ``pair_mass_diag``
    (pair-norm mass, bulk + interface), and ``iface_dofs`` (nonzero interface
    mass) with their ``iface_weights`` are plain attributes.  ``delta``
    switches the interface time-derivative term (1 dynamic, 0 static
    transmission condition).  ``_cache`` holds solver results only.
    """

    mesh: MeshedDomain
    measure: InterfaceMeasure
    m_bulk: sp.csr_matrix
    m_iface: sp.csr_matrix
    k_stiff: sp.csr_matrix
    b_beta: sp.csr_matrix
    theta: sp.csr_matrix
    d0: float
    delta: int = 1
    dirichlet_dofs: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=int))
    _cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.delta not in (0, 1):
            raise ValidationError("delta must be 0 or 1")
        mask = np.ones(len(self.mesh.vertices), dtype=bool)
        mask[self.dirichlet_dofs] = False
        self.free_dofs = np.flatnonzero(mask)
        self.a_full = (self.k_stiff + self.b_beta + self.theta).tocsr()
        self.a_free = self.restrict(self.a_full)
        self.bulk_mass_diag = self.m_bulk.diagonal()[self.free_dofs]
        self.iface_mass_diag = self.m_iface.diagonal()[self.free_dofs]
        self.iface_dofs = np.flatnonzero(self.iface_mass_diag)
        self.iface_weights = self.iface_mass_diag[self.iface_dofs]
        self.mass_diag = self.bulk_mass_diag + self.delta * self.iface_mass_diag
        self.pair_mass_diag = self.bulk_mass_diag + self.iface_mass_diag

    @property
    def n_free(self) -> int:
        return len(self.free_dofs)

    def restrict(self, mat: sp.spmatrix) -> sp.csr_matrix:
        """A full-vertex matrix restricted to the free DOFs."""
        f = self.free_dofs
        return mat[f][:, f].tocsr()

    # ---- norms over free-DOF states -----------------------------------
    def pair_norm2(self, u: np.ndarray) -> float:
        """Squared bulk-plus-interface L2 norm of a free-DOF state."""
        return float(np.dot(u * self.pair_mass_diag, u))

    def pair_norm(self, u: np.ndarray) -> float:
        return float(np.sqrt(max(self.pair_norm2(u), 0.0)))

    def l1_pair_norm(self, u: np.ndarray) -> float:
        """Bulk-plus-interface L1 norm of a free-DOF state."""
        return float(np.sum(self.pair_mass_diag * np.abs(u)))

    def embed(self, u: np.ndarray) -> np.ndarray:
        """Free-DOF state extended by zeros on constrained DOFs."""
        full = np.zeros(len(self.mesh.vertices))
        full[self.free_dofs] = u
        return full


def build_operator(mesh: MeshedDomain, measure: InterfaceMeasure,
                   D: DiffusionTensor, beta: BetaCoefficient, kernel: KernelSpec,
                   delta: int = 1) -> DiscreteOperator:
    """Assemble everything and constrain the mesh's Dirichlet vertices.  The
    interface may meet the Dirichlet boundary only at its two anchor
    vertices, which then get constrained like any other boundary vertex."""
    m_bulk, k_stiff = assemble_bulk(mesh, D)
    m_iface, b_beta = assemble_interface_mass(mesh, measure, beta)
    theta = assemble_nonlocal(mesh, measure, kernel)
    dv = mesh.dirichlet_vertices()
    anchors = {int(mesh.interface_nodes[0]), int(mesh.interface_nodes[-1])}
    clashing = set(map(int, np.intersect1d(dv, mesh.interface_nodes))) - anchors
    if clashing:
        raise AssemblyError(
            f"interface nodes {sorted(clashing)} lie on the Dirichlet boundary"
        )
    return DiscreteOperator(
        mesh=mesh, measure=measure, m_bulk=m_bulk, m_iface=m_iface,
        k_stiff=k_stiff, b_beta=b_beta, theta=theta,
        d0=D.d0, delta=delta, dirichlet_dofs=dv,
    )

