import math

import numpy as np
import pytest

from paper_checks import load_constants
from transmission.assembly import BetaCoefficient, DiffusionTensor, KernelSpec, build_operator
from transmission.constants import (
    _l1_quotient,
    _least_zeta,
    _smooth_fields,
    best_embedding_constant,
    compute_constants_report,
    interpolation_zeta,
    poincare_mean_sigma,
    save_constants,
)
from transmission.geometry import Segment, build_interface_measure, build_square_mesh


def test_poincare_l2_stable_under_refinement(op16, op32):
    p16 = poincare_mean_sigma(op16, "L2_eig")
    p32 = poincare_mean_sigma(op32, "L2_eig")
    assert p16 > 0
    assert abs(p16 - p32) <= 0.1 * p32


def test_poincare_l2_near_classical_value(op16):
    # mid-height interface on the unit square: the minimizer is the first
    # Neumann mode in y, so the constant sits near 1/pi
    p = poincare_mean_sigma(op16, "L2_eig")
    assert p == pytest.approx(1.0 / math.pi, rel=0.02)


def test_poincare_l1_is_finite_lower_bound(op16):
    l1 = poincare_mean_sigma(op16, "L1_empirical")
    l2 = poincare_mean_sigma(op16, "L2_eig")
    assert l1 > 0
    # Cauchy-Schwarz comparison on the unit square, logged not asserted tight
    print(f"L1 lower bound {l1:.4f} vs L2 estimate {l2:.4f}")
    assert l1 < 10.0 * max(l2, 1.0)


@pytest.mark.parametrize("n", [16, 32])
def test_poincare_l1_beats_half_square_indicator(n):
    from conftest import default_operator

    op = default_operator(n)
    below = (op.mesh.vertices[:, 1] < 0.5).astype(float)
    indicator = _l1_quotient(op, below)
    assert indicator == pytest.approx(0.5 - 1.0 / (2 * n), rel=1e-12)
    assert poincare_mean_sigma(op, "L1_empirical") >= indicator


def test_poincare_l1_is_quotient_of_a_vertex_indicator(op16, monkeypatch):
    import transmission.constants as constants

    fields = []

    def recorded(op, u):
        fields.append(u.copy())
        return _l1_quotient(op, u)

    monkeypatch.setattr(constants, "_l1_quotient", recorded)
    l1 = poincare_mean_sigma(op16, "L1_empirical")
    assert len(fields) == 1
    u = fields[0]
    assert set(np.unique(u)) == {0.0, 1.0}
    assert l1 == _l1_quotient(op16, u)


def _row_wise_l1_sweep(op, n_starts, seed):
    # the reference: the L1 level-set sweep with each seed's corner ranks
    # held as (n_tri, 3) rows and the extreme corners found by argmin/argmax
    from transmission.assembly import p1_gradients
    from transmission.operators import spectrum

    mesh = op.mesh
    n_dof = len(mesh.vertices)
    a = op.m_iface.diagonal() / op.measure.total_mass
    areas, gx, gy = p1_gradients(mesh)
    corner_tv = areas[:, None] * np.hypot(gx, gy)
    rows = np.arange(len(areas))
    m_bulk = op.m_bulk.diagonal()
    mass = m_bulk.sum()
    seeds = [mesh.vertices[:, 0], mesh.vertices[:, 1]]
    seeds += list(_l1_seed_fields(op, n_starts, seed))
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
    indicator = np.zeros(n_dof)
    indicator[best_set] = 1.0
    return _l1_quotient(op, indicator)


@pytest.mark.parametrize("build", ["op32", "koch", "op16_neumann"])
@pytest.mark.parametrize("seed", range(4))
def test_poincare_l1_column_sweep_matches_row_wise(build, seed, request):
    from conftest import koch_operator

    op = koch_operator() if build == "koch" else request.getfixturevalue(build)
    got = poincare_mean_sigma(op, "L1_empirical", seed=seed)
    assert got == _row_wise_l1_sweep(op, 20, seed)


def test_poincare_l1_stable_when_seeds_double(op32, monkeypatch):
    import transmission.constants as constants

    l1 = poincare_mean_sigma(op32, "L1_empirical")
    monkeypatch.setattr(constants, "_SMOOTH_FIELDS", 40)
    more = poincare_mean_sigma(op32, "L1_empirical")
    assert abs(more - l1) <= 1e-3 * l1


def test_poincare_l1_does_not_fall_under_refinement():
    from conftest import default_operator

    vals = [poincare_mean_sigma(default_operator(n), "L1_empirical")
            for n in (16, 32, 64)]
    assert vals[0] <= vals[1] <= vals[2]


def test_poincare_rejects_unknown_mode(op16):
    with pytest.raises(ValueError):
        poincare_mean_sigma(op16, "L3")


def test_embedding_constant_monotone_in_eps(op16):
    d0 = op16.d0
    vals = [best_embedding_constant(op16, e) for e in (d0 / 8, d0 / 4, d0 / 2)]
    assert vals[0] >= vals[1] >= vals[2] > 0


def test_embedding_constant_positive_near_zero_eps(op16):
    assert best_embedding_constant(op16, 1e-6) > 0


def test_embedding_constant_monotone_in_beta():
    mesh = build_square_mesh(16, Segment(0.5))
    measure = build_interface_measure(mesh)
    kernel = KernelSpec(s=0.5)
    D = DiffusionTensor(1.0, 0.0, 1.0, 1.0)
    ops = [
        build_operator(mesh, measure, D, BetaCoefficient(b, b), kernel)
        for b in (1.0, 2.0)
    ]
    c1 = best_embedding_constant(ops[0], 0.5)
    c2 = best_embedding_constant(ops[1], 0.5)
    assert c2 >= c1 - 1e-12


def test_embedding_constant_eps_range(op16):
    with pytest.raises(ValueError):
        best_embedding_constant(op16, op16.d0)
    with pytest.raises(ValueError):
        best_embedding_constant(op16, -0.1)


def test_embedding_constant_is_min_quotient(op16, rng):
    c_bar = best_embedding_constant(op16, 0.5)
    damped = ((1.0 - 0.5 / op16.d0) * op16.k_stiff + op16.b_beta + op16.theta)
    f = op16.free_dofs
    A = damped[f][:, f]
    m = op16.pair_mass_diag
    for _ in range(100):
        u = rng.standard_normal(op16.n_free)
        quot = (u @ (A @ u)) / (u @ (m * u))
        assert quot >= c_bar - 1e-8


def _zeta(op, eps, **kwargs):
    """The exponent of interpolation_zeta's one-entry table at eps."""
    [(eps_out, z)] = interpolation_zeta(op, (eps,), **kwargs)
    assert eps_out == eps
    return z


def test_zeta_at_eps_one_reduces_to_norm_check(op16):
    # the exponent is irrelevant at eps = 1; feasibility alone decides
    assert _zeta(op16, 1.0, seed=0) in (0.0, math.inf)


def test_zeta_zero_when_form_dominates(op16):
    assert _zeta(op16, 0.9, seed=0) == 0.0


def test_zeta_never_decreases_when_eps_halves(op16):
    prev = -1.0
    for eps in (0.8, 0.4, 0.2, 0.1):
        z = _zeta(op16, eps, seed=0)
        assert z >= prev - 1e-9
        prev = z


def test_zeta_feasibility_monotone(op16, monkeypatch):
    import transmission.constants as constants

    z = _zeta(op16, 0.25, seed=0)
    monkeypatch.setattr(constants, "_ZETA_MAX", z + 1.0)
    again = _zeta(op16, 0.25, seed=0)
    assert again <= z + 1e-9


def test_zeta_eps_range(op16):
    with pytest.raises(ValueError):
        interpolation_zeta(op16, (0.5, 1.5))


def test_smooth_states_shape_and_determinism(op16):
    a = _smooth_fields(op16, 3, seed=5)
    b = _smooth_fields(op16, 3, seed=5)
    assert a.shape == (3, len(op16.mesh.vertices))
    assert np.array_equal(a, b)


def _l1_seed_fields(op, n_starts, seed):
    # the reference: the random seed fields as the L1 search built them inline
    x = op.mesh.vertices[:, 0]
    y = op.mesh.vertices[:, 1]
    wave = np.arange(1, 4)
    sin_x = np.sin(np.pi * wave[:, None] * x)
    cos_y = np.cos(np.pi * wave[:, None] * y)
    coef = np.random.default_rng(seed).standard_normal((n_starts, 3, 3))
    coef /= np.outer(wave, wave)
    return np.einsum("skl,kn,ln->sn", coef, sin_x, cos_y)


@pytest.mark.parametrize("build", ["op32", "koch"])
def test_smooth_states_are_the_l1_search_fields(build, request):
    from conftest import koch_operator

    op = koch_operator() if build == "koch" else request.getfixturevalue(build)
    # same draws in the same order and the same products: equal bit for bit
    assert np.array_equal(_smooth_fields(op, 5, seed=3), _l1_seed_fields(op, 5, 3))


@pytest.mark.parametrize("n", [8, 16, 32])
def test_poincare_l1_is_the_level_set_of_x(n):
    from conftest import default_operator

    l1 = poincare_mean_sigma(default_operator(n), "L1_empirical")
    assert l1 == pytest.approx(0.5 - 1.0 / (2 * n * n), abs=1e-12)


def _bisected_zeta(x2, aa, x1sq, eps, zeta_max):
    # the reference: a 60-step bisection of the feasibility test on z
    def feasible(z):
        rhs = eps * aa + eps ** (-z) * x1sq
        return bool((x2 <= rhs * (1.0 + 1e-12) + 1e-12).all())

    if feasible(0.0):
        return 0.0
    if not feasible(zeta_max):
        return math.inf
    lo, hi = 0.0, zeta_max
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi


# (x2, aa, x1sq) per sample; the 3e-12 sample needs the 1e-12 slack to come
# out at log2(20), the all-zero sample (x1sq = 0) must not read as short, and
# the large form moves z by 7e-10 through the 1 + 1e-12 factor
@pytest.mark.parametrize("x2, aa, x1sq, eps, kind", [
    ([1.0, 2.0], [1.0, 1.0], [1.0, 2.0], 0.5, "zero"),
    ([4.0, 1.0], [1.0, 1.0], [1.0, 1.0], 0.5, "finite"),
    ([4.0, 3e-12, 0.0], [1.0, 0.0, 0.0], [1.0, 1e-13, 0.0], 0.5, "finite"),
    ([4.0, 3e-12, 0.0], [1.0, 0.0, 0.0], [1.0, 1e-13, 0.0], 0.125, "finite"),
    ([1e3 + 2.0], [2e3], [1.0], 0.5, "finite"),
    ([1e30, 1.0], [0.0, 1.0], [1.0, 1.0], 0.5, "inf"),
    ([3.0], [1.0], [1.0], 1.0, "inf"),
    ([2.0], [1.0], [1.0], 1.0, "zero"),
    ([4.0, 2.0], [1.0, 0.0], [1.0, 0.0], 0.5, "inf"),
], ids=["zero", "finite", "slack", "slack-small-eps", "large-form",
        "above-zeta-max", "eps-one", "eps-one-feasible", "x1-zero"])
def test_least_zeta_matches_bisection(x2, aa, x1sq, eps, kind):
    x2, aa, x1sq = (np.array(v) for v in (x2, aa, x1sq))
    got = _least_zeta(x2, aa, x1sq, eps, 64.0)
    want = _bisected_zeta(x2, aa, x1sq, eps, 64.0)

    def kind_of(z):
        return "zero" if z == 0.0 else "inf" if math.isinf(z) else "finite"

    assert kind_of(got) == kind_of(want) == kind
    if kind == "finite":
        assert abs(got - want) <= 1e-12 * want


def test_report_construction_and_round_trip(op16, tmp_path):
    report = compute_constants_report(op16)
    assert report.c_star == report.poincare_effective * report.total_mass / report.domain_area
    assert report.poincare_effective == report.safety_factor * max(
        report.poincare_l2, report.poincare_l1_lower
    )
    save_constants(report, tmp_path / "constants.txt")
    loaded = load_constants(tmp_path / "constants.txt")
    assert loaded.poincare_l2 == report.poincare_l2
    assert loaded.c_bar == report.c_bar
    assert loaded.zeta_table == report.zeta_table
    assert loaded.c_star == report.c_star


def test_report_positive_finite(op16):
    report = compute_constants_report(op16)
    for val in (report.poincare_l2, report.poincare_l1_lower, report.c_bar,
                report.c_star):
        assert math.isfinite(val) and val > 0


def _dense_poincare_l2(op):
    # reference: the quotient on the sum-zero complement, densified
    import scipy.linalg

    from transmission.assembly import assemble_bulk

    mesh = op.mesh
    n_dof = len(mesh.vertices)
    w = np.zeros(n_dof)
    w[mesh.interface_nodes] = op.measure.weights
    a = w / op.measure.total_mass
    _, k_unit = assemble_bulk(mesh, DiffusionTensor(1.0, 0.0, 1.0, 1.0))
    m_bulk = op.m_bulk.diagonal()
    P = np.eye(n_dof) - np.outer(np.ones(n_dof), a)
    C_N = P.T @ (m_bulk[:, None] * P)
    Q = scipy.linalg.null_space(np.ones((1, n_dof)))
    lam = scipy.linalg.eigh(Q.T @ (k_unit.toarray() @ Q), Q.T @ (C_N @ Q),
                            subset_by_index=[0, 0], eigvals_only=True)
    return 1.0 / math.sqrt(lam[0])


@pytest.mark.parametrize("y0", [0.5, 0.3])
def test_poincare_l2_matches_dense_formula(y0):
    from conftest import default_operator

    op = default_operator(12, y0=y0)
    ref = _dense_poincare_l2(op)
    assert poincare_mean_sigma(op, "L2_eig") == pytest.approx(ref, rel=1e-10)


@pytest.mark.parametrize("build", ["op16", "koch"])
def test_grid_operator_constants_make_no_factor(build, monkeypatch):
    import scipy.sparse.linalg as spla
    from conftest import default_operator, koch_operator

    import transmission.constants as constants
    import transmission.operators as operators
    from transmission.operators import spectrum

    def no_factor(*args, **kwargs):
        raise AssertionError("a sparse factor was made")

    monkeypatch.setattr(spla, "splu", no_factor)
    monkeypatch.setattr(operators, "factor_symmetric", no_factor)
    monkeypatch.setattr(constants, "factor_symmetric", no_factor)
    # fresh operators: nothing is cached on them yet
    op = {"op16": lambda: default_operator(16), "koch": koch_operator}[build]()
    assert spectrum(op, 10).count == 10
    compute_constants_report(op)


def test_anisotropic_constants_factor_and_match_dense(monkeypatch):
    import scipy.linalg
    import scipy.sparse.linalg as spla
    from conftest import anisotropic_operator

    from transmission.operators import spectrum

    op = anisotropic_operator(16)   # d12 != 0: no grid pencil
    built = []
    splu = spla.splu
    monkeypatch.setattr(spla, "splu", lambda mat, **kw: built.append(mat) or splu(mat, **kw))
    vals = spectrum(op, 10).eigenvalues
    eps = op.d0 / 2.0
    c_bar = best_embedding_constant(op, eps)
    assert len(built) == 2
    dense = op.a_free.toarray()
    ref = scipy.linalg.eigh(dense, np.diag(op.mass_diag), eigvals_only=True)[:10]
    assert np.allclose(vals, ref, rtol=1e-10, atol=0.0)
    damped = op.restrict((1.0 - eps / op.d0) * op.k_stiff + op.b_beta + op.theta)
    ref = scipy.linalg.eigh(damped.toarray(), np.diag(op.pair_mass_diag), eigvals_only=True)[0]
    assert c_bar == pytest.approx(ref, rel=1e-10)


def test_report_runs_one_spectrum_and_one_embedding_solve(monkeypatch):
    import transmission.constants as constants
    import transmission.operators as operators
    from conftest import default_operator

    calls = []
    solve = operators.lowest_pairs

    def counted(a_csr, m_diag, k, *args, **kwargs):
        calls.append(k)
        return solve(a_csr, m_diag, k, *args, **kwargs)

    monkeypatch.setattr(operators, "lowest_pairs", counted)
    monkeypatch.setattr(constants, "lowest_pairs", counted)
    compute_constants_report(default_operator(12))
    assert sorted(calls) == [1, 10]


def test_report_draws_zeta_samples_once(op16, monkeypatch):
    import transmission.constants as constants

    draws = []
    draw = constants._smooth_fields

    def counted(op, count, seed):
        draws.append((count, seed))
        return draw(op, count, seed)

    monkeypatch.setattr(constants, "_smooth_fields", counted)
    report = compute_constants_report(op16, seed=7)
    # one draw of the 20 fields for the L1 search, one for the zeta samples
    assert sorted(draws) == [(20, 7), (20, 7)]
    # the shared samples give the table that one call per eps gives
    assert report.zeta_table == [(e, _zeta(op16, e, seed=7))
                                 for e in (0.125, 0.25, 0.5)]


def test_reports_byte_identical(tmp_path):
    from conftest import default_operator

    paths = []
    for run in range(2):
        report = compute_constants_report(default_operator(12), seed=4)
        paths.append(tmp_path / f"constants{run}.txt")
        save_constants(report, paths[-1])
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_poincare_l2_reads_the_unit_tensor_whatever_the_operator():
    # L2 is the constant of the unit tensor: a non-unit stiffness leaking in
    # would scale it (by 1/sqrt(2) for 2 I)
    mesh = build_square_mesh(12, Segment(0.5), dirichlet_side="left")
    measure = build_interface_measure(mesh)
    tensors = [DiffusionTensor(2.0, 0.0, 2.0, 1.0),
               DiffusionTensor(1.5, 0.3, 1.5, 1.0),
               DiffusionTensor(1.0, 0.0, 1.0, 1.0)]
    values = [poincare_mean_sigma(
        build_operator(mesh, measure, D, BetaCoefficient(1.0, 1.0),
                       KernelSpec(s=0.5)), "L2_eig")
        for D in tensors]
    assert values[0] == values[1] == values[2]


@pytest.mark.parametrize("case", ["op16", "op32", "koch"])
def test_zeta_form_values_are_the_quadratic_form(case, request, monkeypatch):
    import transmission.constants as constants
    from conftest import koch_operator

    from transmission.operators import quadratic_form, spectrum

    op = koch_operator() if case == "koch" else request.getfixturevalue(case)
    seen = []
    least = constants._least_zeta

    def recorded(x2, aa, x1sq, eps, zeta_max):
        seen.append(aa)
        return least(x2, aa, x1sq, eps, zeta_max)

    monkeypatch.setattr(constants, "_least_zeta", recorded)
    interpolation_zeta(op, (0.5,), seed=2)
    samples = list(_smooth_fields(op, 20, 2)[:, op.free_dofs])
    samples += list(spectrum(op, k=min(10, op.n_free)).eigenvectors.T)
    assert len(seen) == 1 and len(seen[0]) == len(samples) == 30
    assert all(aa == quadratic_form(op, u) for aa, u in zip(seen[0], samples))
