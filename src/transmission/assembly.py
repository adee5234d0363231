"""Finite element assembly of the coupled bulk/interface bilinear form.

One degree of freedom per mesh vertex; the field is continuous across the
interface.  Five matrices realize the form: lumped bulk mass, lumped
interface mass, bulk stiffness, coefficient-weighted interface mass and the
nonlocal interface kernel matrix.
"""

from __future__ import annotations

import math
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
    """Constant symmetric 2x2 diffusivity with an ellipticity floor d0."""

    d11: float
    d12: float
    d22: float
    d0: float

    def __post_init__(self):
        if self.d0 <= 0.0:
            raise ValidationError("ellipticity floor d0 must be positive")
        # float products, not **: config validation runs this on any finite
        # value, and a float power that overflows raises where * gives inf
        diff = self.d11 - self.d22
        rad = math.sqrt(0.25 * (diff * diff) + self.d12 * self.d12)
        if 0.5 * (self.d11 + self.d22) - rad < self.d0 - 1e-12:
            raise ValidationError(
                "diffusion tensor eigenvalue below the ellipticity floor d0"
            )


_UNIT_TENSOR = (1.0, 0.0, 1.0)


@dataclass
class KernelSpec:
    """Interface interaction kernel: the power law |x - y|^-(d + 2s), d the
    dimension of the measure it is assembled on."""

    s: float

    def __post_init__(self):
        if not (0.0 < self.s < 1.0):
            raise ValidationError(f"kernel exponent s={self.s} outside (0, 1)")


@dataclass
class BetaCoefficient:
    """Constant reaction coefficient on the interface with floor beta0 >= 0."""

    value: float
    beta0: float = 0.0

    def __post_init__(self):
        if self.beta0 < 0.0:
            raise ValidationError("beta0 must be >= 0")
        if self.value < self.beta0 - 1e-14:
            raise ValidationError("interface coefficient below its floor beta0")


def p1_gradients(mesh: MeshedDomain) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Triangle areas and the x and y gradients of the three barycentric
    basis functions of every triangle, each gradient array (n_tri, 3).
    Computed once per mesh: every call returns the same read-only arrays."""
    if "p1" not in mesh._cache:
        arrays = _p1_geometry(mesh)
        for arr in arrays:
            arr.flags.writeable = False
        mesh._cache["p1"] = arrays
    return mesh._cache["p1"]


def _p1_geometry(mesh: MeshedDomain) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
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


def _diagonal_csr(v: np.ndarray) -> sp.csr_matrix:
    """diag(v) as `sp.diags(v, format="csr")` stores it, its nonzeros only,
    built without the DIA and COO steps."""
    nz = np.flatnonzero(v).astype(np.int32)
    indptr = np.zeros(len(v) + 1, dtype=np.int32)
    np.cumsum(v != 0.0, out=indptr[1:])
    return sp.csr_matrix((v[nz], nz, indptr), shape=(len(v), len(v)))


def assemble_bulk(mesh: MeshedDomain, D: DiffusionTensor) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """Lumped bulk mass and stiffness matrices for piecewise-linear elements."""
    verts, tris = mesh.vertices, mesh.triangles
    areas, gx, gy = p1_gradients(mesh)
    dgx = D.d11 * gx + D.d12 * gy
    dgy = D.d12 * gx + D.d22 * gy
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
    return _diagonal_csr(lumped), K


def _unit_bulk(mesh: MeshedDomain) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """`assemble_bulk` with the unit tensor, assembled once per mesh and
    shared by every operator built on it and by the Poincare L2 constant;
    their stored values are read-only."""
    if "unit_bulk" not in mesh._cache:
        pair = assemble_bulk(mesh, DiffusionTensor(*_UNIT_TENSOR, d0=1.0))
        for mat in pair:
            mat.data.flags.writeable = False
        mesh._cache["unit_bulk"] = pair
    return mesh._cache["unit_bulk"]


def assemble_interface_mass(mesh: MeshedDomain, measure: InterfaceMeasure,
                            beta: BetaCoefficient) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """Diagonal interface mass and coefficient-weighted interface mass."""
    if (measure.weights <= 0.0).any():
        raise ValidationError("interface weights must be positive")
    if len(mesh.dirichlet_vertices()) == 0 and not beta.value > 0.0:
        raise ValidationError(
            "beta identically zero with empty Dirichlet boundary: form not coercive"
        )
    n_dof = len(mesh.vertices)
    w_full = np.zeros(n_dof)
    w_full[mesh.interface_nodes] = measure.weights
    bw_full = np.zeros(n_dof)
    bw_full[mesh.interface_nodes] = beta.value * measure.weights
    return _diagonal_csr(w_full), _diagonal_csr(bw_full)


def nonlocal_kernel_matrix(measure: InterfaceMeasure, kernel: KernelSpec) -> np.ndarray:
    """Dense interface-node block of the nonlocal form.

    Satisfies u^T N u = sum over ordered pairs (i != j) of
    K(x_i, x_j) (u_i - u_j)^2 w_i w_j; symmetric, positive semidefinite,
    annihilates constants.  K is the kernel's power law with d = measure.dim_d.
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
    kvals[off] = r[off] ** (-(measure.dim_d + 2.0 * kernel.s))
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
    transmission condition).  ``_cache`` holds what is derived from the
    operator once: the spectrum, the grid pencil, the integrator's solvers
    and the constants' random smooth fields.
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
    unit = (D.d11, D.d12, D.d22) == _UNIT_TENSOR
    m_bulk, k_stiff = _unit_bulk(mesh) if unit else assemble_bulk(mesh, D)
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

