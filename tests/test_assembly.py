import numpy as np
import pytest

from transmission.assembly import (
    AssemblyError,
    BetaCoefficient,
    DiffusionTensor,
    KernelSpec,
    ValidationError,
    assemble_bulk,
    assemble_interface_mass,
    assemble_nonlocal,
    build_operator,
    nonlocal_kernel_matrix,
)
from transmission.geometry import (
    InterfaceMeasure,
    Segment,
    build_interface_measure,
    build_square_mesh,
)


@pytest.fixture(scope="module")
def mesh16():
    return build_square_mesh(16, Segment(0.5))


@pytest.fixture(scope="module")
def measure16(mesh16):
    return build_interface_measure(mesh16)


def two_node_measure(distance=0.5, w=0.5):
    pos = np.array([[0.0, 0.0], [distance, 0.0]])
    return InterfaceMeasure(
        node_positions=pos,
        weights=np.array([w, w]),
        dim_d=1.0,
        segment_mass=np.array([2 * w]),
    )


def test_stiffness_kills_constants(mesh16):
    _, K = assemble_bulk(mesh16, DiffusionTensor.isotropic(mesh16))
    ones = np.ones(K.shape[0])
    assert np.abs(K @ ones).max() <= 1e-12


def test_stiffness_linear_field_energy(mesh16):
    _, K = assemble_bulk(mesh16, DiffusionTensor.isotropic(mesh16))
    u = mesh16.vertices[:, 0]
    assert u @ (K @ u) == pytest.approx(1.0, abs=1e-12)


def test_bulk_mass_totals(mesh16):
    M, _ = assemble_bulk(mesh16, DiffusionTensor.isotropic(mesh16))
    ones = np.ones(M.shape[0])
    assert ones @ (M @ ones) == pytest.approx(1.0, abs=1e-12)
    # lumped row sums are the nodal area shares
    areas = np.asarray(M.sum(axis=1)).ravel()
    assert areas.min() > 0
    assert areas.sum() == pytest.approx(1.0, abs=1e-12)


def test_anisotropic_tensor_validation(mesh16):
    m = len(mesh16.triangles)
    with pytest.raises(ValidationError):
        DiffusionTensor(np.full(m, 1.0), np.full(m, 2.0), np.full(m, 1.0), d0=0.5)
    D = DiffusionTensor.constant(mesh16, 2.0, 0.5, 1.5, d0=1.0)
    assert D.smallest_eigenvalues().min() >= 1.0


def test_interface_mass_matrices(mesh16, measure16):
    beta = BetaCoefficient.constant(measure16, 1.0)
    M_if, B = assemble_interface_mass(mesh16, measure16, beta)
    assert M_if.diagonal().sum() == pytest.approx(1.0, abs=1e-12)
    assert B.diagonal().sum() == pytest.approx(measure16.total_mass, abs=1e-12)
    nz = np.flatnonzero(M_if.diagonal())
    assert np.array_equal(np.sort(nz), np.sort(mesh16.interface_nodes))


def test_zero_beta_with_dirichlet_ok(mesh16, measure16):
    beta = BetaCoefficient(np.zeros(len(measure16.weights)), beta0=0.0)
    _, B = assemble_interface_mass(mesh16, measure16, beta)
    assert B.nnz == 0 or np.abs(B.data).max() == 0.0


def test_zero_beta_without_dirichlet_rejected(measure16):
    mesh = build_square_mesh(16, Segment(0.5), dirichlet_side="none")
    measure = build_interface_measure(mesh)
    beta = BetaCoefficient(np.zeros(len(measure.weights)), beta0=0.0)
    with pytest.raises(ValidationError):
        assemble_interface_mass(mesh, measure, beta)


def test_beta_below_floor_rejected(measure16):
    vals = np.full(len(measure16.weights), 0.5)
    with pytest.raises(ValidationError):
        BetaCoefficient(vals, beta0=1.0)


def test_nonlocal_two_node_hand_value():
    m = two_node_measure()
    kernel = KernelSpec(s=0.5, dim_d=1.0)
    N = nonlocal_kernel_matrix(m, kernel)
    u = np.array([1.0, 0.0])
    # ordered double sum: 2 pairs, each K * w^2 * 1 = 4 * 0.25 = 1
    assert u @ (N @ u) == pytest.approx(2.0, abs=1e-12)


def test_nonlocal_linear_field_exact_value(mesh16, measure16):
    # for d = 1, s = 1/2 the kernel times the squared increment of u = x is
    # identically 1, so the ordered pair sum is (sum w)^2 - sum w^2 exactly
    kernel = KernelSpec(s=0.5, dim_d=1.0)
    N = nonlocal_kernel_matrix(measure16, kernel)
    u = measure16.node_positions[:, 0]
    expected = measure16.total_mass**2 - np.sum(measure16.weights**2)
    assert u @ (N @ u) == pytest.approx(expected, abs=1e-13)


def test_nonlocal_constants_and_psd(mesh16, measure16):
    kernel = KernelSpec(s=0.5, dim_d=measure16.dim_d)
    theta = assemble_nonlocal(mesh16, measure16, kernel)
    ones = np.ones(theta.shape[0])
    assert np.abs(theta @ ones).max() <= 1e-12
    local = nonlocal_kernel_matrix(measure16, kernel)
    eig = np.linalg.eigvalsh(local)
    assert eig.min() >= -1e-12


def test_nonlocal_coincident_nodes_rejected():
    pos = np.array([[0.0, 0.0], [0.0, 0.0]])
    m = InterfaceMeasure(pos, np.array([0.5, 0.5]), 1.0, np.array([1.0]))
    with pytest.raises(AssemblyError):
        nonlocal_kernel_matrix(m, KernelSpec(s=0.5, dim_d=1.0))


def test_kernel_s_range():
    with pytest.raises(ValidationError):
        KernelSpec(s=1.5, dim_d=1.0)


def test_all_matrices_exactly_symmetric(op16):
    for mat in (op16.m_bulk, op16.m_iface, op16.k_stiff, op16.b_beta, op16.theta):
        assert (mat != mat.T).nnz == 0


def test_dirichlet_left_edge_removes_17_dofs(op16):
    assert len(op16.dirichlet_dofs) == 17
    assert op16.n_free == 17 * 17 - 17


def test_dirichlet_everywhere_keeps_interior_interface():
    mesh = build_square_mesh(16, Segment(0.5), dirichlet_side="all")
    measure = build_interface_measure(mesh)
    op = build_operator(
        mesh, measure,
        DiffusionTensor.isotropic(mesh),
        BetaCoefficient.constant(measure, 1.0),
        KernelSpec(s=0.5, dim_d=1.0),
    )
    assert len(op.dirichlet_dofs) == 4 * 16
    retained = np.intersect1d(op.free_dofs, mesh.interface_nodes)
    assert len(retained) == 17 - 2   # both anchors are boundary vertices


def test_no_dirichlet_requires_beta(op16_neumann):
    assert len(op16_neumann.dirichlet_dofs) == 0
    A = op16_neumann.a_free.toarray()
    eig = np.linalg.eigvalsh(A)
    assert eig.min() > 0


def test_ellipticity_random_vectors(op16, rng):
    A = op16.a_free
    for _ in range(100):
        v = rng.standard_normal(op16.n_free)
        assert v @ (A @ v) > 0


def test_ellipticity_floor_anisotropic(rng):
    # the assembled form dominates the floor-scaled unit-diffusivity form
    # plus the coefficient-floored interface mass
    mesh = build_square_mesh(8, Segment(0.5))
    measure = build_interface_measure(mesh)
    D = DiffusionTensor.constant(mesh, 2.0, 0.3, 1.0, d0=0.8)
    beta = BetaCoefficient.constant(measure, 1.5)
    op = build_operator(mesh, measure, D, beta, KernelSpec(s=0.5, dim_d=1.0))
    _, k_unit = assemble_bulk(mesh, DiffusionTensor.isotropic(mesh))
    f = op.free_dofs
    K_I = k_unit[f][:, f]
    M_if = op.iface_mass_diag
    A = op.a_free
    for _ in range(100):
        v = rng.standard_normal(op.n_free)
        lhs = v @ (A @ v)
        floor = 0.8 * (v @ (K_I @ v)) + 1.5 * (v @ (M_if * v))
        assert lhs >= floor - 1e-10 * abs(lhs)


def test_conservation_before_constraints(op16):
    ones = np.ones(op16.a_full.shape[0])
    assert np.abs(op16.k_stiff @ ones).max() <= 1e-12
    assert np.abs(op16.theta @ ones).max() <= 1e-12


def test_form_refinement_consistency_logged():
    # the discrete form on smooth fields converges at second order; the
    # successive-difference ratio under doubling is logged, not asserted hard
    vals = []
    for n in (8, 16, 32):
        mesh = build_square_mesh(n, Segment(0.5))
        measure = build_interface_measure(mesh)
        op = build_operator(
            mesh, measure,
            DiffusionTensor.isotropic(mesh),
            BetaCoefficient.constant(measure, 1.0),
            KernelSpec(s=0.5, dim_d=1.0),
        )
        x, y = mesh.vertices[:, 0], mesh.vertices[:, 1]
        u = np.sin(np.pi * x) * np.cos(np.pi * y)
        v = x * (1 - x) * y
        vals.append(u @ (op.a_full @ v))
    d1, d2 = vals[1] - vals[0], vals[2] - vals[1]
    ratio = abs(d2 / d1)
    print(f"form refinement successive-difference ratio: {ratio:.3f}")
    assert 0.05 < ratio < 1.0


def _operator_on(mesh, beta_value=1.0, delta=1):
    measure = build_interface_measure(mesh)
    return build_operator(
        mesh, measure,
        DiffusionTensor.isotropic(mesh),
        BetaCoefficient(np.full(len(measure.weights), beta_value), beta0=0.0),
        KernelSpec(s=0.5, dim_d=1.0),
        delta=delta,
    )


def test_interior_interface_node_on_dirichlet_edge_rejected():
    import dataclasses

    mesh = build_square_mesh(8, Segment(0.5))
    a, b = mesh.interface_nodes[1], mesh.interface_nodes[2]
    clashing = dataclasses.replace(
        mesh,
        boundary_edges=np.vstack([mesh.boundary_edges, [[a, b]]]),
        boundary_tags=np.append(mesh.boundary_tags, "dirichlet").astype("<U10"),
    )
    with pytest.raises(AssemblyError, match=r"interface nodes \[37, 38\] lie on "
                                            r"the Dirichlet boundary"):
        _operator_on(clashing)
    _operator_on(mesh)   # the unmodified mesh assembles


def test_zero_beta_without_dirichlet_rejected_by_build_operator():
    mesh = build_square_mesh(8, Segment(0.5), dirichlet_side="none")
    with pytest.raises(ValidationError):
        _operator_on(mesh, beta_value=0.0)


@pytest.mark.parametrize("delta", [0, 1])
def test_free_dof_layout_matches_full_matrix_formulas(delta):
    from conftest import default_operator

    op = default_operator(16, delta=delta)
    # the formulas of the lazily restricted views the layout replaces
    mask = np.ones(len(op.mesh.vertices), dtype=bool)
    mask[op.mesh.dirichlet_vertices()] = False
    f = np.flatnonzero(mask)
    mass = (op.m_bulk + delta * op.m_iface).tocsr().diagonal()[f]
    pair_mass = (op.m_bulk + op.m_iface).tocsr().diagonal()[f]
    a_free = (op.k_stiff + op.b_beta + op.theta).tocsr()[f][:, f].tocsr()

    assert np.array_equal(op.free_dofs, f)
    assert np.array_equal(op.mass_diag, mass)
    assert np.array_equal(op.pair_mass_diag, pair_mass)
    for part in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(op.a_free, part), getattr(a_free, part))
    assert np.array_equal(op.restrict(op.a_full).toarray(), a_free.toarray())
