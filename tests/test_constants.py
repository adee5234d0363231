import math

import numpy as np
import pytest

from transmission.assembly import BetaCoefficient, DiffusionTensor, KernelSpec, build_operator
from transmission.constants import (
    _l1_quotient,
    best_embedding_constant,
    compute_constants_report,
    interpolation_zeta,
    load_constants,
    poincare_mean_sigma,
    random_smooth_states,
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
    l1 = poincare_mean_sigma(op16, "L1_empirical", n_starts=10)
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
    assert poincare_mean_sigma(op, "L1_empirical", n_starts=10) >= indicator


def test_poincare_l1_is_quotient_of_a_vertex_indicator(op16, monkeypatch):
    import transmission.constants as constants

    fields = []

    def recorded(op, u):
        fields.append(u.copy())
        return _l1_quotient(op, u)

    monkeypatch.setattr(constants, "_l1_quotient", recorded)
    l1 = poincare_mean_sigma(op16, "L1_empirical", n_starts=10)
    assert len(fields) == 1
    u = fields[0]
    assert set(np.unique(u)) == {0.0, 1.0}
    assert l1 == _l1_quotient(op16, u)


def test_poincare_l1_stable_when_seeds_double(op32):
    l1 = poincare_mean_sigma(op32, "L1_empirical", n_starts=20)
    more = poincare_mean_sigma(op32, "L1_empirical", n_starts=40)
    assert abs(more - l1) <= 1e-3 * l1


def test_poincare_l1_does_not_fall_under_refinement():
    from conftest import default_operator

    vals = [poincare_mean_sigma(default_operator(n), "L1_empirical", n_starts=20)
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
    kernel = KernelSpec(s=0.5, dim_d=1.0)
    D = DiffusionTensor.isotropic(mesh)
    ops = [
        build_operator(mesh, measure, D, BetaCoefficient.constant(measure, b), kernel)
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


def test_zeta_at_eps_one_reduces_to_norm_check(op16):
    res = interpolation_zeta(op16, 1.0, trials=8, seed=0)
    # the exponent is irrelevant at eps = 1; feasibility alone decides
    assert res["zeta"] in (0.0, math.inf)


def test_zeta_zero_when_form_dominates(op16):
    res = interpolation_zeta(op16, 0.9, trials=8, seed=0)
    assert res["zeta"] == 0.0


def test_zeta_never_decreases_when_eps_halves(op16):
    prev = -1.0
    for eps in (0.8, 0.4, 0.2, 0.1):
        z = interpolation_zeta(op16, eps, trials=8, seed=0)["zeta"]
        assert z >= prev - 1e-9
        prev = z


def test_zeta_feasibility_monotone(op16):
    res = interpolation_zeta(op16, 0.25, trials=8, seed=0)
    z = res["zeta"]
    again = interpolation_zeta(op16, 0.25, trials=8, seed=0, zeta_max=z + 1.0)
    assert again["zeta"] <= z + 1e-9


def test_zeta_eps_range(op16):
    with pytest.raises(ValueError):
        interpolation_zeta(op16, 1.5)


def test_smooth_states_shape_and_determinism(op16):
    a = random_smooth_states(op16, 3, seed=5)
    b = random_smooth_states(op16, 3, seed=5)
    assert len(a) == 3
    assert all(u.shape == (op16.n_free,) for u in a)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


def test_report_construction_and_round_trip(op16, tmp_path):
    report = compute_constants_report(op16, l1_starts=5)
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
    report = compute_constants_report(op16, l1_starts=5)
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
    _, k_unit = assemble_bulk(mesh, DiffusionTensor.isotropic(mesh))
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
    compute_constants_report(default_operator(12), l1_starts=2)
    assert sorted(calls) == [1, 10]


def test_report_draws_zeta_samples_once(op16, monkeypatch):
    import transmission.constants as constants

    draws = []
    draw = constants.random_smooth_states

    def counted(*args, **kwargs):
        draws.append(args)
        return draw(*args, **kwargs)

    monkeypatch.setattr(constants, "random_smooth_states", counted)
    report = compute_constants_report(op16, l1_starts=2)
    assert len(draws) == 1
    # the shared samples give the table that one call per eps gives
    assert report.zeta_table == [(e, interpolation_zeta(op16, e)["zeta"])
                                 for e in (0.125, 0.25, 0.5)]


def test_reports_byte_identical(tmp_path):
    from conftest import default_operator

    paths = []
    for run in range(2):
        report = compute_constants_report(default_operator(12), l1_starts=3,
                                          seed=4)
        paths.append(tmp_path / f"constants{run}.txt")
        save_constants(report, paths[-1])
    assert paths[0].read_bytes() == paths[1].read_bytes()
