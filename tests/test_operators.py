import numpy as np
import pytest

from conftest import run_recorded
from paper_checks import markov_check, semigroup_apply, smoothing_exponent
from transmission.assembly import (
    DiffusionTensor,
    DiscreteOperator,
    KernelSpec,
    assemble_bulk,
    assemble_nonlocal,
)
from transmission.geometry import Segment, build_interface_measure, build_square_mesh
from transmission.operators import (
    NumericError,
    export_spectrum_csv,
    export_ultracontractivity_csv,
    factor_symmetric,
    fit_line,
    lanczos_start,
    lowest_pairs,
    quadratic_form,
    spectrum,
    two_to_inf_norm,
    ultracontractivity_fit,
)


def test_quadratic_form_psd_and_symmetric(op16, rng):
    for _ in range(100):
        u = rng.standard_normal(op16.n_free)
        assert quadratic_form(op16, u) >= 0.0


def test_quadratic_form_on_constants_is_beta_mass(op16_neumann):
    ones = np.ones(op16_neumann.n_free)
    expected = op16_neumann.b_beta.diagonal()[op16_neumann.free_dofs].sum()
    assert quadratic_form(op16_neumann, ones) == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(1.0, abs=1e-12)


def test_quadratic_form_dimension_mismatch(op16):
    with pytest.raises(ValueError):
        quadratic_form(op16, np.zeros(op16.n_free - 1))


def test_spectrum_positive_and_ordered(op16):
    spec = spectrum(op16, k=10)
    assert spec.eigenvalues[0] > 0.0
    assert (np.diff(spec.eigenvalues) >= -1e-12).all()


def test_eigenvectors_mass_orthonormal(spec16):
    V = spec16.eigenvectors[:, :20]
    G = V.T @ (spec16.mass_diag[:, None] * V)
    assert np.abs(G - np.eye(20)).max() <= 1e-8


def _zero_form_operator():
    # diagnostic configuration: no Dirichlet part and a vanishing interface
    # coefficient; the validation is deliberately bypassed by direct assembly
    mesh = build_square_mesh(8, Segment(0.5), dirichlet_side="none")
    measure = build_interface_measure(mesh)
    m_bulk, k_stiff = assemble_bulk(mesh, DiffusionTensor(1.0, 0.0, 1.0, 1.0))
    import scipy.sparse as sp

    n_dof = len(mesh.vertices)
    w = np.zeros(n_dof)
    w[mesh.interface_nodes] = measure.weights
    m_iface = sp.diags(w, format="csr")
    b_beta = sp.csr_matrix((n_dof, n_dof))
    theta = assemble_nonlocal(mesh, measure, KernelSpec(s=0.5))
    return DiscreteOperator(
        mesh=mesh, measure=measure, m_bulk=m_bulk, m_iface=m_iface,
        k_stiff=k_stiff, b_beta=b_beta, theta=theta, d0=1.0,
    )


def test_zero_form_kernel_is_constants():
    op = _zero_form_operator()
    spec = spectrum(op, k=2)
    assert abs(spec.eigenvalues[0]) <= 1e-8
    v = spec.eigenvectors[:, 0]
    assert np.abs(v - v.mean()).max() <= 1e-6 * np.abs(v).max()


def _dense_lowest_values(a_csr, m_diag, k):
    # reference: the reduced pencil densified and solved by LAPACK
    import scipy.linalg

    inv_sqrt_m = 1.0 / np.sqrt(m_diag)
    B = inv_sqrt_m[:, None] * a_csr.toarray() * inv_sqrt_m[None, :]
    return scipy.linalg.eigh(0.5 * (B + B.T), subset_by_index=[0, k - 1],
                             eigvals_only=True)


def _pairs_case(case, request):
    from conftest import default_operator, koch_operator

    return {
        "op16": lambda: request.getfixturevalue("op16"),
        "koch": koch_operator,
        "static": lambda: default_operator(8, delta=0),
        "zero_form": _zero_form_operator,
    }[case]()


@pytest.mark.parametrize("case", ["op16", "koch", "static", "zero_form"])
@pytest.mark.parametrize("k", [1, 10])
def test_sparse_pairs_match_dense(case, k, request):
    op = _pairs_case(case, request)
    assert k < op.n_free - 1   # the sparse path serves the request
    vals, V = lowest_pairs(op.a_free, op.mass_diag, k)
    ref = _dense_lowest_values(op.a_free, op.mass_diag, k)
    assert np.abs(vals - ref).max() <= 1e-10 * max(1.0, np.abs(ref).max())
    G = V.T @ (op.mass_diag[:, None] * V)
    assert np.abs(G - np.eye(k)).max() <= 1e-8


def _scipy_shift_invert_values(a_csr, m_diag, k):
    # reference: eigsh on the same reduced matrix, shift and start vector,
    # factoring B - sigma I itself in scipy's default column order
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    d = sp.diags(1.0 / np.sqrt(m_diag))
    B = (d @ a_csr @ d).tocsc()
    B = 0.5 * (B + B.T)
    vals = spla.eigsh(B, k=k, sigma=-1e-6 * B.diagonal().max(), which="LM",
                      v0=lanczos_start(B.shape[0]), return_eigenvectors=False)
    return np.sort(vals)


@pytest.mark.parametrize("case", ["op16", "koch", "static", "zero_form"])
@pytest.mark.parametrize("k", [1, 10])
def test_sparse_pairs_match_scipy_shift_invert(case, k, request):
    # the factor order changes the rounding of each solve, nothing more
    op = _pairs_case(case, request)
    vals, _ = lowest_pairs(op.a_free, op.mass_diag, k)
    ref = _scipy_shift_invert_values(op.a_free, op.mass_diag, k)
    assert np.abs(vals - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())


def test_constants_factors_take_minimum_degree_order(op16, monkeypatch):
    import scipy.sparse.linalg as spla

    from transmission import constants
    from transmission.constants import poincare_mean_sigma

    # no grid pencil: the L2 constant factors its bordered system
    monkeypatch.setattr(constants, "_grid_pencil", lambda *args: None)
    orders = []
    splu = spla.splu
    monkeypatch.setattr(spla, "splu", lambda mat, **kw:
                        orders.append(kw.get("permc_spec")) or splu(mat, **kw))
    lowest_pairs(op16.a_free, op16.mass_diag, 3)   # the shift-invert factor
    poincare_mean_sigma(op16, "L2_eig")            # the bordered L2 system
    assert orders == ["MMD_AT_PLUS_A", "MMD_AT_PLUS_A"]


def test_failed_factorization_is_numeric_error(op16, monkeypatch):
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    from transmission import constants
    from transmission.constants import poincare_mean_sigma

    monkeypatch.setattr(constants, "_grid_pencil", lambda *args: None)
    with pytest.raises(NumericError, match="singular"):
        factor_symmetric(sp.csc_matrix((3, 3)))

    def singular(mat, **kw):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(spla, "splu", singular)
    with pytest.raises(NumericError, match="singular"):
        lowest_pairs(op16.a_free, op16.mass_diag, 3)
    with pytest.raises(NumericError, match="singular"):
        poincare_mean_sigma(op16, "L2_eig")



def test_failed_lanczos_is_numeric_error(monkeypatch):
    import scipy.sparse.linalg as spla

    from conftest import default_operator
    from transmission.constants import poincare_mean_sigma

    def no_convergence(*args, **kwargs):
        raise spla.ArpackError(-9999)

    op = default_operator(8)   # fresh: no spectrum cached on it yet
    monkeypatch.setattr(spla, "eigsh", no_convergence)
    with pytest.raises(NumericError, match="shift-invert Lanczos failed"):
        spectrum(op, k=3)
    with pytest.raises(NumericError, match="Poincare eigensolve failed"):
        poincare_mean_sigma(op, "L2_eig")


@pytest.mark.parametrize("case", ["op16", "op16_neumann", "koch", "anisotropic",
                                  "s09"])
def test_free_dof_form_is_exactly_symmetric(case, request):
    # the factors of every solve are solved through their transpose, which
    # is the same system only for an exactly symmetric matrix
    from conftest import anisotropic_operator, default_operator, koch_operator

    op = {"op16": lambda: request.getfixturevalue("op16"),
          "op16_neumann": lambda: request.getfixturevalue("op16_neumann"),
          "koch": koch_operator,
          "anisotropic": lambda: anisotropic_operator(16),
          "s09": lambda: default_operator(16, s=0.9)}[case]()
    assert (op.a_free != op.a_free.T).nnz == 0


def test_factor_symmetric_rejects_a_non_symmetric_matrix():
    import scipy.sparse as sp

    with pytest.raises(NumericError, match="symmetric"):
        factor_symmetric(sp.csc_matrix(np.array([[2.0, 1.0], [0.0, 2.0]])))
    # symmetric up to one rounding is not symmetric
    off = np.nextafter(1.0, 2.0)
    with pytest.raises(NumericError, match="symmetric"):
        factor_symmetric(sp.csc_matrix(np.array([[2.0, 1.0], [off, 2.0]])))


def test_lowest_pairs_residual_check_raises(op16, monkeypatch):
    import transmission.operators as operators

    monkeypatch.setattr(operators, "_RESIDUAL_TOL", 1e-30)
    with pytest.raises(NumericError):
        lowest_pairs(op16.a_free, op16.mass_diag, 3)


def test_spectrum_is_solved_once_per_operator(monkeypatch):
    import transmission.operators as operators
    from conftest import default_operator

    op = default_operator(8)
    calls = []
    solve = operators.lowest_pairs
    monkeypatch.setattr(operators, "lowest_pairs",
                        lambda *a, **kw: calls.append(a[2]) or solve(*a, **kw))
    big = spectrum(op, k=6)
    small = spectrum(op, k=2)
    assert calls == [6]
    assert np.array_equal(small.eigenvalues, big.eigenvalues[:2])
    assert np.array_equal(small.eigenvectors, big.eigenvectors[:, :2])
    with pytest.raises(ValueError):
        small.eigenvectors[0, 0] = 1.0
    spectrum(op, k=8)
    assert calls == [6, 8]


def test_pure_laplacian_eigenvalue_closed_form():
    # with the interface terms absent the lowest mode of the left-Dirichlet /
    # otherwise-Neumann Laplacian is sin(pi x / 2) with eigenvalue (pi/2)^2
    mesh = build_square_mesh(16, Segment(0.5))
    m_bulk, k = assemble_bulk(mesh, DiffusionTensor(1.0, 0.0, 1.0, 1.0))
    mask = np.ones(len(mesh.vertices), dtype=bool)
    mask[mesh.dirichlet_vertices()] = False
    free = np.flatnonzero(mask)
    vals, _ = lowest_pairs(k[free][:, free].tocsr(), m_bulk.diagonal()[free], 1)
    assert vals[0] == pytest.approx(np.pi**2 / 4.0, rel=2e-3)


def test_lambda1_stable_under_refinement(op16, op32):
    l16 = spectrum(op16, k=1).eigenvalues[0]
    l32 = spectrum(op32, k=1).eigenvalues[0]
    assert abs(l32 - l16) / l32 < 0.05


def test_semigroup_identity_and_decay(spec16, rng):
    F = rng.standard_normal(len(spec16.mass_diag))
    assert np.allclose(semigroup_apply(spec16, 0.0, F), F, atol=1e-10)
    big_t = 20.0 / spec16.eigenvalues[0]
    assert np.abs(semigroup_apply(spec16, big_t, F)).max() <= 1e-6 * np.abs(F).max()


def test_semigroup_law(spec16, rng):
    F = rng.standard_normal(len(spec16.mass_diag))
    once = semigroup_apply(spec16, 0.2, F)
    twice = semigroup_apply(spec16, 0.1, semigroup_apply(spec16, 0.1, F))
    assert np.linalg.norm(once - twice) <= 1e-8 * np.linalg.norm(F)


def test_semigroup_rejects_negative_time(spec16):
    with pytest.raises(ValueError):
        semigroup_apply(spec16, -0.1, np.zeros(len(spec16.mass_diag)))


def test_markov_positivity_and_contraction(op16):
    rep = markov_check(op16, trials=30, t_grid=np.linspace(0.005, 0.1, 20), seed=4)
    assert rep["min_entry"] >= -1e-10
    assert rep["sup_ratio"] <= 1.0 + 1e-10


def test_markov_constant_stays_below_its_level(op16_neumann):
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    m = op16_neumann.mass_diag
    dt = 0.05
    mat = (op16_neumann.a_free * dt).tolil()
    mat.setdiag(mat.diagonal() + m)
    solver = spla.splu(mat.tocsc())
    u = np.full(op16_neumann.n_free, 3.0)
    for _ in range(10):
        u = solver.solve(m * u)
        assert u.max() <= 3.0 + 1e-10


def test_spectrum_invariant_under_permutation(op16, rng):
    vals, _ = lowest_pairs(op16.a_free, op16.mass_diag, 8)
    perm = rng.permutation(op16.n_free)
    A_p = op16.a_free[perm][:, perm].tocsr()
    m_p = op16.mass_diag[perm]
    vals_p, _ = lowest_pairs(A_p, m_p, 8)
    assert np.abs(vals - vals_p).max() <= 1e-8 * max(1.0, vals.max())


def test_rayleigh_quotients_bound_lambda1(op16, spec16, rng):
    lam1 = spec16.eigenvalues[0]
    quot = []
    for _ in range(100):
        u = rng.standard_normal(op16.n_free)
        quot.append(quadratic_form(op16, u) / (u @ (op16.mass_diag * u)))
    assert min(quot) >= lam1 - 1e-8


def test_smoothing_exponent_value():
    assert smoothing_exponent(1.0, ambient_dim=2) == pytest.approx(2.0)
    # target power-law slope is -gamma/4 = -1/2 for a one-dimensional interface


def test_ultracontractivity_slope(spec16):
    fit = ultracontractivity_fit(spec16, np.geomspace(3e-4, 3e-2, 12))
    assert -0.8 <= fit["slope"] <= -0.3
    assert fit["r2"] > 0.9


def test_ultracontractivity_exponential_tail_flagged(spec16):
    fit = ultracontractivity_fit(spec16, np.geomspace(3e-4, 3e-2, 12))
    # beyond 1/lambda_1 the decay is spectral, not power law
    assert fit["spectral_crossover"] == pytest.approx(1.0 / spec16.eigenvalues[0])
    late = np.geomspace(2.0, 6.0, 4) / spec16.eigenvalues[0]
    norms = [two_to_inf_norm(spec16, t) for t in late]
    rates = -np.diff(np.log(norms)) / np.diff(late)
    assert np.allclose(rates, spec16.eigenvalues[0], rtol=0.05)


@pytest.mark.parametrize("k", [-1000, -3, 0, 7, 900])
def test_fit_line_scales_exactly_with_a_power_of_two(rng, k):
    x = np.sort(rng.uniform(-2.0, 5.0, 40))
    y = 0.7 * x - 1.3 + 0.1 * rng.standard_normal(40)
    slope, intercept, r2 = fit_line(x, y)
    scaled = fit_line(np.ldexp(x, k), y)
    assert scaled == (np.ldexp(slope, -k), intercept, r2)


def test_fit_line_over_a_tiny_range(rng):
    # polyfit alone would scale its columns to nan here
    x = np.linspace(0.0, 1e-300, 200)
    slope, intercept, r2 = fit_line(x, 2.0 + 3e300 * x)
    assert (slope, intercept) == pytest.approx((3e300, 2.0), rel=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)


def test_ultracontractivity_needs_three_points(spec16):
    with pytest.raises(ValueError):
        ultracontractivity_fit(spec16, np.array([1e-3, 1e-2]))


def test_static_interface_condition_spectrum():
    # delta = 0 drops the interface mass from the evolution pairing but the
    # operator itself is unchanged
    from conftest import default_operator

    op_static = default_operator(8, delta=0)
    assert np.array_equal(op_static.mass_diag, op_static.bulk_mass_diag)
    spec = spectrum(op_static, k=3)
    assert spec.eigenvalues[0] > 0
    rep = markov_check(op_static, trials=10, t_grid=np.linspace(0.01, 0.1, 10), seed=2)
    assert rep["min_entry"] >= -1e-10
    assert rep["sup_ratio"] <= 1.0 + 1e-10


def test_koch_interface_pipeline():
    from transmission.assembly import (
        BetaCoefficient,
        DiffusionTensor,
        KernelSpec,
        build_operator,
    )
    from transmission.dynamics import StepControl
    from transmission.geometry import (
        KochPrefractal,
        build_interface_measure,
        build_square_mesh,
    )
    from transmission.poly import Nonlinearity

    mesh = build_square_mesh(27, KochPrefractal(level=1, y0=0.4))
    measure = build_interface_measure(mesh)
    op = build_operator(
        mesh, measure,
        DiffusionTensor(1.0, 0.0, 1.0, 1.0),
        BetaCoefficient(1.0, 1.0),
        KernelSpec(s=0.5),
    )
    spec = spectrum(op, k=2)
    assert spec.eigenvalues[0] > 0
    rng = np.random.default_rng(3)
    U0 = rng.standard_normal(op.n_free)
    traj, _, report = run_recorded(op, U0, Nonlinearity.power(1.0, 2.0),
                                   Nonlinearity.power(1.0, 0.0), 0.5,
                                   StepControl(dt0=1e-3, dt_max=0.02))
    assert traj.outcome == "completed"
    assert np.isfinite(report.sup_norm).all()


def test_csv_exports(tmp_path, spec16):
    export_spectrum_csv(spec16, tmp_path / "spectrum.csv")
    rows = (tmp_path / "spectrum.csv").read_text().strip().splitlines()
    assert rows[0] == "k,lambda_k"
    assert len(rows) == 1 + spec16.count
    fit = ultracontractivity_fit(spec16, np.geomspace(1e-3, 1e-1, 5))
    export_ultracontractivity_csv(fit, tmp_path / "ultra.csv")
    rows = (tmp_path / "ultra.csv").read_text().strip().splitlines()
    assert rows[0] == "t,norm_2_to_inf"
    assert len(rows) == 6


def test_markov_check_factors_once_per_step_size(monkeypatch):
    from conftest import anisotropic_operator

    from transmission import dynamics

    op = anisotropic_operator(8)   # fresh, and factorized by SuperLU
    grid = np.linspace(0.005, 0.1, 20)
    # the grid's steps differ in their last bits
    assert len(np.unique(np.diff(grid))) > 1
    built = []
    splu = dynamics.spla.splu
    monkeypatch.setattr(dynamics.spla, "splu",
                        lambda mat, **kw: built.append(mat) or splu(mat, **kw))
    rep = markov_check(op, trials=3, t_grid=grid, seed=1)
    assert len(built) == 1
    assert rep["min_entry"] >= -1e-10
    assert rep["sup_ratio"] <= 1.0 + 1e-10


def _c_a_as_submatrix(base, a, m, scale, p):
    # the reference: d_a of `_GridPencil.fit` as a CSR matrix, cut to P x P
    import scipy.sparse as sp

    rows = np.repeat(np.arange(len(m)), np.diff(a.indptr))
    (jr, ir), (jc, ic) = np.divmod(rows, len(base.mx)), np.divmod(a.indices, len(base.mx))
    d11, d22 = scale * base.d11, scale * base.d22
    d_a = a.data - ((jr == jc) * (d11 * (base.my[jr] * base.kx[ir, ic]))
                    + (ir == ic) * (d22 * (base.ky[jr, jc] * base.mx[ir])))
    return sp.csr_matrix((d_a, a.indices, a.indptr), shape=a.shape)[p][:, p].toarray()


@pytest.mark.parametrize("case", ["op16", "op32", "koch"])
@pytest.mark.parametrize("damped", [False, True])
def test_grid_pencil_fit_keeps_its_capacitance_probe_and_row_sums(case, damped, request):
    from conftest import koch_operator

    from transmission.operators import _pencil

    op = koch_operator() if case == "koch" else request.getfixturevalue(case)
    base = _pencil(op)
    assert base is not None
    if damped:   # the fit of c_bar's damped form, as best_embedding_constant makes it
        scale = 1.0 - (op.d0 / 2.0) / op.d0
        a = op.restrict(scale * op.k_stiff + op.b_beta + op.theta)
        m = op.pair_mass_diag
        grid = base.fit(a, m, scale)
    else:
        scale, a, m, grid = 1.0, op.a_free, op.mass_diag, base
    assert grid is not None
    ref = _c_a_as_submatrix(base, a, m, scale, grid.p)
    assert np.array_equal(grid.c_a, ref)
    assert np.array_equal(np.signbit(grid.c_a), np.signbit(ref))
    assert np.array_equal(grid.probe, lanczos_start(len(m)))
    assert np.array_equal(grid.abs_row_sums, abs(a) @ np.ones(len(m)))
