import numpy as np
import pytest

from paper_checks import fixed_step_evolve, picard_mild, semigroup_apply, semigroup_property_check
from transmission.dynamics import (
    _GROW_AFTER,
    _GROW_FACTOR,
    StepControl,
    imex_step,
    integrate,
    nonlinear_drift,
)
from transmission.operators import spectrum
from transmission.poly import Nonlinearity

CUBIC_SINK = Nonlinearity.power(1.0, 2.0)     # u^3
LINEAR_SOURCE = Nonlinearity.power(1.0, 0.0)  # u
CUBIC_SOURCE = Nonlinearity.power(-1.0, 2.0)  # -u^3
LINEAR_SINK = Nonlinearity.power(-1.0, 0.0)   # -u
ZERO = Nonlinearity.zero()


# ---------------------------------------------------------------- nonlinearity
def test_nonlinearity_values_and_leading():
    f = Nonlinearity(terms=((2.0, 2.0), (-0.5, 0.0)), constant=0.25)
    assert f(2.0) == pytest.approx(2.0 * 4.0 * 2.0 - 0.5 * 2.0 + 0.25)
    assert f.growth == (2.0, 2.0)
    assert ZERO.growth == (0.0, 0.0)
    assert CUBIC_SINK(3.0) == pytest.approx(27.0)


@pytest.mark.parametrize("nl", [
    CUBIC_SINK,
    Nonlinearity(terms=((1.5, 2.5), (-2.0, 1.0)), constant=0.3),
    Nonlinearity.linear(-4.0),
])
def test_derivative_matches_finite_differences(nl, rng):
    taus = rng.uniform(-10, 10, size=100)
    taus = taus[np.abs(taus) > 1e-3]
    eps = 1e-6 * np.maximum(np.abs(taus), 1.0)
    fd = (nl(taus + eps) - nl(taus - eps)) / (2 * eps)
    assert np.abs(fd - nl.derivative()(taus)).max() <= 1e-6 * (1 + np.abs(fd).max())


@pytest.mark.parametrize("nl", [CUBIC_SINK, Nonlinearity(terms=((1.0, 3.0),), constant=-0.7)])
def test_primitive_differentiates_to_value(nl, rng):
    assert nl.antiderivative()(0.0) == 0.0
    taus = rng.uniform(-10, 10, size=100)
    taus = taus[np.abs(taus) > 1e-3]
    eps = 1e-6 * np.maximum(np.abs(taus), 1.0)
    fd = (nl.antiderivative()(taus + eps) - nl.antiderivative()(taus - eps)) / (2 * eps)
    assert np.abs(fd - nl(taus)).max() <= 1e-6 * (1 + np.abs(fd).max())


def test_leading_behavior_at_large_tau():
    f = Nonlinearity(terms=((2.0, 2.0), (5.0, 0.0)))
    tau = 1e4
    e, c = f.growth
    assert f(tau) / (c * abs(tau) ** e * tau) == pytest.approx(1.0, rel=0.01)


def test_negative_exponent_rejected():
    with pytest.raises(ValueError):
        Nonlinearity(terms=((1.0, -0.5),))


# ---------------------------------------------------------------- imex stepping
def test_zero_state_is_equilibrium(op16):
    U = np.zeros(op16.n_free)
    out = imex_step(op16, U, 1e-2, CUBIC_SINK, LINEAR_SOURCE)
    assert np.abs(out).max() == 0.0


def test_imex_matches_semigroup_step_for_linear(op16, spec16):
    # smooth data: one implicit step is second-order consistent per step
    U = spec16.eigenvectors[:, :3].sum(axis=1)
    errs = []
    for dt in (5e-3, 2.5e-3):
        one = imex_step(op16, U, dt, ZERO, ZERO)
        exact = semigroup_apply(spec16, dt, U)
        errs.append(op16.pair_norm(one - exact))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.35)
    assert errs[1] <= 1e-3 * op16.pair_norm(U)


def _no_reaction_operator(delta):
    # no Dirichlet part and a vanishing interface coefficient (validation
    # bypassed): the operator annihilates constants, exposing the pure
    # mass-weighted reaction balance
    import scipy.sparse as sp

    from transmission.assembly import (
        DiffusionTensor,
        DiscreteOperator,
        KernelSpec,
        assemble_bulk,
        assemble_nonlocal,
    )
    from transmission.geometry import Segment, build_interface_measure, build_square_mesh

    mesh = build_square_mesh(8, Segment(0.5), dirichlet_side="none")
    measure = build_interface_measure(mesh)
    m_bulk, k_stiff = assemble_bulk(mesh, DiffusionTensor.isotropic(mesh))
    n_dof = len(mesh.vertices)
    w = np.zeros(n_dof)
    w[mesh.interface_nodes] = measure.weights
    return DiscreteOperator(
        mesh=mesh, measure=measure, m_bulk=m_bulk,
        m_iface=sp.diags(w, format="csr"), k_stiff=k_stiff,
        b_beta=sp.csr_matrix((n_dof, n_dof)),
        theta=assemble_nonlocal(mesh, measure, KernelSpec(s=0.5, dim_d=1.0)),
        d0=1.0, delta=delta,
    )


def test_scalar_decay_hand_oracle():
    # constant state, bulk sink f(u) = u, no boundary or interface reaction
    c, dt = 2.0, 1e-2
    # static interface condition: the step is exactly the scalar (1 - dt) decay
    op0 = _no_reaction_operator(delta=0)
    out0 = imex_step(op0, np.full(op0.n_free, c), dt, LINEAR_SOURCE, ZERO)
    assert np.abs(out0 - c * (1.0 - dt)).max() <= 1e-12

    # dynamic condition: the mass-weighted mean obeys the hand-computed
    # balance (|O| + m_sigma) cbar+ = (|O| + m_sigma) c - dt |O| c
    op1 = _no_reaction_operator(delta=1)
    out1 = imex_step(op1, np.full(op1.n_free, c), dt, LINEAR_SOURCE, ZERO)
    m = op1.mass_diag
    area = op1.bulk_mass_diag.sum()
    msig = op1.iface_mass_diag.sum()
    mean_new = float(m @ out1) / m.sum()
    expected = c * (1.0 - dt * area / (area + msig))
    assert mean_new == pytest.approx(expected, rel=1e-12)


def test_equilibrium_is_fixed_point(op16):
    # an eigenvector of the (A, bulk mass) pencil balanced by a linear bulk
    # source solves A U* + m f(U*) = 0 with f(u) = -lambda u
    from transmission.operators import lowest_pairs

    vals, vecs = lowest_pairs(op16.a_free, op16.bulk_mass_diag, 1)
    U_star = vecs[:, 0]
    f_balance = Nonlinearity.linear(-float(vals[0]))
    out = imex_step(op16, U_star, 1e-2, f_balance, ZERO)
    assert np.abs(out - U_star).max() <= 1e-10 * np.abs(U_star).max()


def test_invalid_step_control():
    nan, inf = float("nan"), float("inf")
    for bad in (dict(dt0=1e-3, dt_min=1e-3), dict(dt0=0.2, dt_max=0.1),
                dict(dt_min=0.0), dict(dt_min=-1e-18), dict(dt_min=nan),
                dict(dt0=nan), dict(dt_max=nan), dict(dt_max=inf),
                dict(blow_up_threshold=0.0), dict(blow_up_threshold=-1.0),
                dict(blow_up_threshold=nan), dict(blow_up_threshold=inf)):
        with pytest.raises(ValueError):
            StepControl(**bad)


# ---------------------------------------------------------------- integrate
def test_linear_dissipative_decay(op16, spec16):
    rng = np.random.default_rng(7)
    U0 = rng.standard_normal(op16.n_free)
    traj = integrate(op16, U0, ZERO, ZERO, 3.0, StepControl(dt0=0.01, dt_max=0.05))
    assert traj.outcome == "completed"
    lam1 = spec16.eigenvalues[0]
    bound = np.exp(-lam1 * 3.0 * (1 - 0.2)) * op16.pair_norm(U0)
    assert op16.pair_norm(traj.states[-1]) <= bound


def test_bounded_cubic_sink_with_interface_source(op16):
    rng = np.random.default_rng(8)
    U0 = np.abs(rng.standard_normal(op16.n_free))
    U0 *= 10.0 / np.abs(U0).max()
    traj = integrate(op16, U0, CUBIC_SINK, LINEAR_SOURCE, 1.0,
                     StepControl(dt0=1e-3, dt_max=0.02))
    assert traj.outcome == "completed"
    assert traj.sup_norms.max() <= 10.0 * 1.0001


def test_blow_up_detected(op16, spec16):
    phi1 = spec16.eigenvectors[:, 0]
    c = 8.0 / np.abs(phi1).max()
    traj = integrate(op16, c * phi1, CUBIC_SOURCE, LINEAR_SINK, 10.0,
                     StepControl(dt0=1e-3, dt_max=0.05))
    assert traj.outcome == "blowup"
    assert traj.outcome_time < 10.0
    assert traj.sup_norms[-1] > 1e8
    # regression pin of the detected time
    assert traj.outcome_time == pytest.approx(0.0104, rel=0.2)


def test_blow_up_threshold_monotonicity(op16, spec16):
    # raising the threshold never flips a completed run to blow-up
    rng = np.random.default_rng(9)
    U0 = rng.standard_normal(op16.n_free)
    lo = integrate(op16, U0, CUBIC_SINK, ZERO, 0.5,
                   StepControl(dt0=1e-3, blow_up_threshold=1e6))
    hi = integrate(op16, U0, CUBIC_SINK, ZERO, 0.5,
                   StepControl(dt0=1e-3, blow_up_threshold=1e12))
    assert lo.outcome == "completed"
    assert hi.outcome == "completed"


def test_stalled_outcome_when_step_floor_hit(op16, spec16):
    phi1 = spec16.eigenvectors[:, 0]
    c = 8.0 / np.abs(phi1).max()
    traj = integrate(op16, c * phi1, CUBIC_SOURCE, LINEAR_SINK, 10.0,
                     StepControl(dt0=1e-3, dt_min=1e-7, dt_max=0.05))
    assert traj.outcome == "stalled"
    assert traj.outcome_time <= 0.011


def test_run_from_rest_with_a_forcing_term_completes(op16):
    # f = |u|^2 u - 1 moves the zero state at once; a step from zero has no
    # growth factor, so the run does not stall at t = 0
    f = Nonlinearity(terms=((1.0, 2.0),), constant=-1.0)
    traj = integrate(op16, np.zeros(op16.n_free), f, ZERO, 1.0, StepControl())
    assert traj.outcome == "completed"
    assert traj.times[-1] == 1.0
    assert np.abs(traj.states[-1]).max() > 0.0


@pytest.mark.parametrize("scale", [1e-25, 0.0])
def test_run_from_a_tiny_state_with_a_forcing_term_completes(op16, scale):
    # f = |u|^2 u - 1 moves a state of sup-norm 1e-25 by about dt at once; the
    # growth test allows for that move, so the run does not stall at t = 0
    f = Nonlinearity(terms=((1.0, 2.0),), constant=-1.0)
    traj = integrate(op16, np.full(op16.n_free, scale), f, ZERO, 1.0, StepControl())
    assert traj.outcome == "completed"
    assert traj.times[-1] == 1.0
    assert traj.stats.rejected == 0
    assert np.abs(traj.states[-1]).max() > 0.0


def test_positivity_preserved_for_sign_safe_nonlinearities(op16):
    # bulk sink with f(u) u >= 0 and interface damping h(u) u <= 0
    rng = np.random.default_rng(10)
    U0 = np.abs(rng.standard_normal(op16.n_free))
    traj = integrate(op16, U0, CUBIC_SINK, LINEAR_SINK, 0.5,
                     StepControl(dt0=1e-3, dt_max=0.01))
    assert traj.outcome == "completed"
    mins = min(float(u.min()) for u in traj.states)
    assert mins >= -1e-10


def test_dt_convergence_first_order(op16):
    rng = np.random.default_rng(11)
    U0 = rng.standard_normal(op16.n_free)
    U0 *= 1.0 / np.abs(U0).max()
    ref = fixed_step_evolve(op16, U0, CUBIC_SINK, LINEAR_SOURCE, 0.5, 0.5 / 4096)
    errs = []
    for nsteps in (32, 64):
        out = fixed_step_evolve(op16, U0, CUBIC_SINK, LINEAR_SOURCE, 0.5, 0.5 / nsteps)
        errs.append(np.abs(out - ref).max())
    ratio = errs[0] / errs[1]
    assert 1.5 <= ratio <= 2.5


def test_rejects_bad_initial_state(op16):
    bad = np.full(op16.n_free, np.nan)
    with pytest.raises(ValueError):
        integrate(op16, bad, ZERO, ZERO, 1.0, StepControl())
    with pytest.raises(ValueError):
        integrate(op16, np.zeros(3), ZERO, ZERO, 1.0, StepControl())


# ---------------------------------------------------------------- picard map
def test_picard_no_nonlinearity_converges_in_one_iteration(op16, spec16):
    rng = np.random.default_rng(12)
    U0 = rng.standard_normal(op16.n_free)
    rep = picard_mild(op16, spec16, U0, ZERO, ZERO, T_star=0.1, n_grid=20, n_iter=4)
    # the map is constant: the second application reproduces the first exactly
    d = np.abs(rep["iterates"][2] - rep["iterates"][1]).max()
    assert d == 0.0


def test_picard_contracts_under_small_budget(op16, spec16):
    rng = np.random.default_rng(13)
    U0 = rng.standard_normal(op16.n_free)
    U0 *= 0.5 / np.abs(U0).max()
    rep = picard_mild(op16, spec16, U0, CUBIC_SINK, LINEAR_SOURCE,
                      T_star=0.2, n_grid=100, n_iter=8)
    assert rep["contraction_budget"] < 1.0
    assert not rep["diverged"]
    assert max(rep["ratios"]) < 1.0
    tail = rep["ratios"][2:]
    assert all(b <= a * 1.02 for a, b in zip(tail, tail[1:]))


def test_picard_vs_imex_dt_refinement(op16, spec16):
    rng = np.random.default_rng(13)
    U0 = rng.standard_normal(op16.n_free)
    U0 *= 0.5 / np.abs(U0).max()
    rep = picard_mild(op16, spec16, U0, CUBIC_SINK, LINEAR_SOURCE,
                      T_star=0.2, n_grid=100, n_iter=8)
    pic = rep["iterates"][-1][-1]
    errs = []
    for dt in (0.02, 0.01):
        im = fixed_step_evolve(op16, U0, CUBIC_SINK, LINEAR_SOURCE, 0.2, dt)
        errs.append(np.abs(pic - im).max())
    assert 1.5 <= errs[0] / errs[1] <= 2.5


def test_picard_requires_full_spectrum(op16):
    partial = spectrum(op16, k=5)
    with pytest.raises(ValueError):
        picard_mild(op16, partial, np.zeros(op16.n_free), ZERO, ZERO, 0.1)


# ------------------------------------------------------- semigroup property
def test_semigroup_defect_zero_at_s_zero(op16, spec16):
    rng = np.random.default_rng(14)
    U0 = rng.standard_normal(op16.n_free)
    d = semigroup_property_check(op16, U0, ZERO, ZERO, t=0.3, s=0.0,
                                 method="linear", spec=spec16)
    assert d <= 1e-12


def test_semigroup_defect_linear_path(op16, spec16):
    rng = np.random.default_rng(15)
    U0 = rng.standard_normal(op16.n_free)
    d = semigroup_property_check(op16, U0, ZERO, ZERO, t=0.1, s=0.1,
                                 method="linear", spec=spec16)
    assert d <= 1e-8 * op16.pair_norm(U0)


def test_semigroup_imex_replay_exact(op16):
    rng = np.random.default_rng(16)
    U0 = rng.standard_normal(op16.n_free)
    d = semigroup_property_check(op16, U0, CUBIC_SINK, LINEAR_SOURCE,
                                 t=0.06, s=0.04, method="imex", dt=0.01)
    assert d == 0.0


def test_semigroup_misaligned_defect_first_order(op16):
    from paper_checks import semigroup_defect_fit

    rng = np.random.default_rng(18)
    U0 = rng.standard_normal(op16.n_free)
    # split times off the step lattice: the defect is the truncation error
    rep = semigroup_defect_fit(op16, U0, CUBIC_SINK, LINEAR_SOURCE,
                               t=0.0171, s=0.0133, dts=(0.01, 0.005, 0.0025))
    assert (np.diff(rep["defects"]) < 0).all()
    # at least first order: the linear envelope C*dt is valid with the
    # coarsest ratio, and the per-dt ratio never grows under refinement
    assert rep["order"] >= 0.9
    ratios = rep["defects"] / rep["dts"]
    assert (np.diff(ratios) <= 1e-12).all()
    assert rep["c_fit"] > 0


def test_nonlinear_drift_vanishes_for_zero(op16):
    U = np.random.default_rng(17).standard_normal(op16.n_free)
    assert np.abs(nonlinear_drift(op16, U, ZERO, ZERO)).max() == 0.0


def _full_vector_reaction(op, U, f, h):
    """m_bulk * f(U) - w_iface * h(U) with h evaluated on every free DOF,
    as the steps built it before they restricted h to the interface."""
    return op.bulk_mass_diag * f(U) - op.iface_mass_diag * h(U)


@pytest.mark.parametrize("build", ["segment", "koch"])
def test_interface_only_reaction_is_bit_identical(build):
    from conftest import default_operator, koch_operator

    from transmission.dynamics import _imex_solver

    # fresh: the step sizes below are not cached on the shared fixtures
    op = {"segment": lambda: default_operator(16), "koch": koch_operator}[build]()
    assert np.array_equal(op.iface_dofs, np.flatnonzero(op.iface_mass_diag))
    assert np.array_equal(op.iface_weights, op.iface_mass_diag[op.iface_dofs])
    assert 0 < len(op.iface_dofs) < op.n_free
    mixed_f = Nonlinearity(terms=((1.0, 2.0), (-0.5, 0.0)), constant=0.1)
    mixed_h = Nonlinearity(terms=((-1.3, 1.0), (0.7, 3.0)), constant=-0.2)
    rng = np.random.default_rng(5)
    for f, h in ((CUBIC_SINK, LINEAR_SOURCE), (CUBIC_SOURCE, LINEAR_SINK),
                 (mixed_f, mixed_h), (ZERO, mixed_h)):
        for scale in (1.0, 10.0):
            U = scale * rng.standard_normal(op.n_free)
            reaction = _full_vector_reaction(op, U, f, h)
            assert np.array_equal(nonlinear_drift(op, U, f, h),
                                  reaction / op.mass_diag)
            for dt in (1e-3, 0.02):
                rhs = op.mass_diag * U - dt * reaction
                assert np.array_equal(imex_step(op, U, dt, f, h),
                                      _imex_solver(op, dt).solve(rhs))


# ------------------------------------------- integrate loop and LU ordering
def _reference_integrate(op, U0, f, h, T, ctrl):
    # the loop of dynamics.integrate as it was before one sup-norm per step:
    # a separate finiteness pass, the previous sup-norm recomputed, each
    # accepted state copied.  Its steps are on integrate's ladder, with each
    # rung found by halving dt_max until it is not above the target dt
    U0 = np.asarray(U0, dtype=float)
    times, dts, states = [0.0], [0.0], [U0.copy()]
    outcome, outcome_time = "completed", T
    t, U, dt = 0.0, U0.copy(), ctrl.dt0
    accepted_in_row = 0
    while t < T * (1.0 - 1e-12):
        rung = ctrl.dt_max
        while rung > dt:
            rung *= 0.5
        dt_try = min(rung, T - t)
        Unew = imex_step(op, U, dt_try, f, h)
        sup_old = max(float(np.abs(U).max()), 1e-300)
        ok = bool(np.isfinite(Unew).all())
        growth = float(np.abs(Unew).max()) / sup_old if ok else np.inf
        if not ok or growth > ctrl.growth_cap:
            dt *= 0.5
            accepted_in_row = 0
            if dt < ctrl.dt_min:
                outcome, outcome_time = "stalled", t
                break
            continue
        t += dt_try
        U = Unew
        times.append(t)
        dts.append(dt_try)
        states.append(U.copy())
        if float(np.abs(U).max()) > ctrl.blow_up_threshold:
            outcome, outcome_time = "blowup", t
            break
        accepted_in_row += 1
        if accepted_in_row >= _GROW_AFTER:
            dt = min(dt * _GROW_FACTOR, ctrl.dt_max)
            accepted_in_row = 0
    return np.array(times), np.array(dts), states, outcome, outcome_time


def _run_case(case, phi1, n):
    """(U0, f, h, T, ctrl, expected outcome) of a named run."""
    bump = 8.0 * phi1 / np.abs(phi1).max()
    U0 = np.abs(np.random.default_rng(8).standard_normal(n))
    return {
        "completed": (10.0 * U0 / U0.max(), CUBIC_SINK, LINEAR_SOURCE, 1.0,
                      StepControl(dt0=1e-3, dt_max=0.02), "completed"),
        "blowup": (bump, CUBIC_SOURCE, LINEAR_SINK, 10.0,
                   StepControl(dt0=1e-3, dt_max=0.05), "blowup"),
        "stalled": (bump, CUBIC_SOURCE, LINEAR_SINK, 10.0,
                    StepControl(dt0=1e-3, dt_min=1e-7, dt_max=0.05), "stalled"),
        # u^3 overflows to inf at every step size: rejected as non-finite
        "nonfinite": (np.full(n, 1e120), CUBIC_SOURCE, ZERO, 1.0,
                      StepControl(dt0=1e-3, dt_min=1e-7), "stalled"),
    }[case]


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("case", ["completed", "blowup", "stalled", "nonfinite"])
def test_integrate_matches_reference_loop(case, op16, spec16):
    U0, f, h, T, ctrl, expected = _run_case(case, spec16.eigenvectors[:, 0],
                                            op16.n_free)
    traj = integrate(op16, U0, f, h, T, ctrl)
    times, dts, states, outcome, outcome_time = _reference_integrate(
        op16, U0, f, h, T, ctrl)
    assert traj.outcome == outcome == expected
    assert traj.outcome_time == outcome_time
    assert np.array_equal(traj.times, times)
    assert np.array_equal(traj.dts, dts)
    assert len(traj.states) == len(states)
    assert all(np.array_equal(a, b) for a, b in zip(traj.states, states))


@pytest.mark.parametrize("case", ["completed", "blowup", "stalled"])
def test_every_step_is_a_rung_of_the_ladder(case, op16, spec16, monkeypatch):
    from transmission import dynamics

    U0, f, h, T, ctrl, expected = _run_case(case, spec16.eigenvectors[:, 0],
                                            op16.n_free)
    tried = []
    step = dynamics.imex_step
    monkeypatch.setattr(dynamics, "imex_step",
                        lambda op, U, dt, f, h: tried.append(dt) or step(op, U, dt, f, h))
    traj = integrate(op16, U0, f, h, T, ctrl)

    assert traj.outcome == expected
    ladder = {ctrl.dt_max * 2.0 ** -k for k in range(64)}
    assert tried[0] == max(r for r in ladder if r <= ctrl.dt0)
    off = [dt for dt in tried if dt not in ladder]
    if case == "completed":
        # only the final step may leave the ladder, to land on T
        assert off in ([], [traj.dts[-1]]) and traj.times[-1] == T
    else:
        assert off == []
    assert len(set(tried) & ladder) > 3


def test_second_run_reuses_the_rungs_of_the_first():
    from conftest import default_operator

    op = default_operator(16)   # fresh: nothing factorized yet
    U0, f, h, T, ctrl, _ = _run_case("completed", spectrum(op, k=1).eigenvectors[:, 0],
                                     op.n_free)
    first = integrate(op, U0, f, h, T, ctrl)
    assert first.stats.factorizations == len(set(first.dts[1:]))
    # another cell: other data, nonlinearity, first step and horizon, whose
    # target steps 7e-4 * 1.2**j all differ from the first run's
    second = integrate(op, 0.5 * U0, Nonlinearity.power(2.0, 2.0), LINEAR_SOURCE,
                       0.7, StepControl(dt0=7e-4, dt_max=ctrl.dt_max))
    assert second.outcome == "completed" and second.stats.rejected == 0
    new = set(second.dts[1:]) - set(first.dts[1:])
    # at most the factor of the final partial step is built anew
    assert new <= {second.dts[-1]}
    assert second.stats.factorizations == len(new)


@pytest.mark.parametrize("build", ["op16", "koch"])
@pytest.mark.parametrize("case", ["completed", "blowup"])
def test_lu_ordering_changes_rounding_only(build, case, monkeypatch):
    import scipy.sparse.linalg as spla

    from conftest import anisotropic_operator

    from transmission import dynamics
    from transmission.geometry import KochPrefractal

    # fresh operators, factorized by SuperLU: no factorization is cached on
    # them yet
    make = {"op16": lambda: anisotropic_operator(16),
            "koch": lambda: anisotropic_operator(27, KochPrefractal(1, 0.4))}[build]
    op = make()
    U0, f, h, T, ctrl, _ = _run_case(case, spectrum(op, k=1).eigenvectors[:, 0],
                                     op.n_free)
    ordered = integrate(op, U0, f, h, T, ctrl)

    splu = spla.splu
    monkeypatch.setattr(dynamics.spla, "splu",
                        lambda mat, **kw: splu(mat, permc_spec="COLAMD"))
    colamd = integrate(make(), U0, f, h, T, ctrl)

    assert ordered.outcome == colamd.outcome
    assert ordered.outcome_time == colamd.outcome_time
    assert np.array_equal(ordered.times, colamd.times)
    assert np.array_equal(ordered.dts, colamd.dts)
    if case == "blowup":
        # the blow-up itself amplifies rounding, to ~3e-6 relative at the
        # last state: only the step sequence and the outcome must agree
        return
    for a, b in zip(ordered.states, colamd.states):
        assert np.abs(a - b).max() <= 1e-10 * np.abs(b).max()


def test_minimum_degree_order_fills_less():
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    from conftest import anisotropic_operator

    from transmission.dynamics import _imex_solver

    op = anisotropic_operator(32)   # factorized by SuperLU
    dt = 0.02
    lu = _imex_solver(op, dt)
    mat = (op.a_free * dt + sp.diags(op.mass_diag)).tocsc()
    colamd = spla.splu(mat, permc_spec="COLAMD")
    # 35,534 against 45,030 entries with scipy 1.17
    assert lu.L.nnz + lu.U.nnz < colamd.L.nnz + colamd.U.nnz


@pytest.mark.parametrize("build", ["op32", "koch"])
def test_symmetric_factors_are_solved_through_the_transpose(build, request, rng):
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    from conftest import anisotropic_operator, koch_operator

    from transmission.dynamics import _imex_solver
    from transmission.geometry import KochPrefractal
    from transmission.operators import factor_symmetric

    op = request.getfixturevalue("op32") if build == "op32" else koch_operator()
    # the integrator's solver on the same mesh with an anisotropic tensor,
    # which it factors by SuperLU
    aniso = (anisotropic_operator(32) if build == "op32"
             else anisotropic_operator(27, KochPrefractal(1, 0.4)))
    dt = 0.02
    for op, solver_of in ((op, factor_symmetric),
                          (aniso, lambda mat: _imex_solver(aniso, dt))):
        assert dt * _inf_norm(op) > 2.0 ** -8   # the LU branch, not the series
        mat = (op.a_free * dt + sp.diags(op.mass_diag)).tocsc()
        ref = spla.splu(mat, permc_spec="MMD_AT_PLUS_A")
        for b in (rng.standard_normal(op.n_free), op.mass_diag):
            transposed, plain = ref.solve(b, trans="T"), ref.solve(b)
            x = solver_of(mat).solve(b)
            assert np.array_equal(x, transposed)
            assert np.abs(x - plain).max() <= 1e-13 * np.abs(plain).max()


def test_imex_solver_rejects_a_non_symmetric_operator():
    import scipy.sparse as sp

    from conftest import default_operator

    from transmission.dynamics import _imex_solver
    from transmission.operators import NumericError

    op = default_operator(8)   # fresh: no solver cache on it yet
    skew = sp.csr_matrix(([1e-9], ([0], [1])), shape=op.a_free.shape)
    op.a_free = op.a_free + skew
    with pytest.raises(NumericError, match="not symmetric"):
        _imex_solver(op, 0.1)


# ------------------------------------------------ grid solver of M + dt A
def _grid_case(case):
    """A fresh operator whose M + dt A the grid pencil solves."""
    from conftest import anisotropic_operator, default_operator, koch_operator

    from transmission.geometry import KochPrefractal

    if case.startswith("side-"):
        return default_operator(16, dirichlet_side=case[5:])
    return {"delta0": lambda: default_operator(16, delta=0),
            "beta0": lambda: default_operator(16, beta_value=0.0),
            "y0": lambda: default_operator(16, y0=0.3125),
            "diagonal": lambda: anisotropic_operator(16, d12=0.0),
            "koch": koch_operator,
            "koch2": lambda: anisotropic_operator(27, KochPrefractal(2, 0.4),
                                                  d12=0.0)}[case]()


def _corners(op):
    """The free DOFs at the corners of the square."""
    corner = np.isin(op.mesh.vertices, (0.0, 1.0)).all(axis=1)
    return np.flatnonzero(corner[op.free_dofs])


@pytest.mark.parametrize("case", [
    "side-left", "side-right", "side-top", "side-bottom", "side-all",
    "side-none", "delta0", "beta0", "y0", "diagonal", "koch", "koch2"])
def test_grid_solve_matches_superlu(case, monkeypatch):
    import scipy.sparse as sp

    from transmission import dynamics

    op = _grid_case(case)
    built = []
    splu = dynamics.spla.splu
    monkeypatch.setattr(dynamics.spla, "splu",
                        lambda mat, **kw: built.append(mat) or splu(mat, **kw))
    grid = dynamics._factor_cache(op).grid
    # the capacitance set: the interface and the corners whose lumped mass
    # is not the product of the grid lines' masses, 6 to 21 DOFs here
    assert set(op.iface_dofs) <= set(grid.p) <= set(op.iface_dofs) | set(_corners(op))
    assert 6 <= len(grid.p) <= 21
    rng = np.random.default_rng(3)
    for dt in (0.005, 0.02, 0.1, 1.0):
        assert dt * _inf_norm(op) > 2.0 ** -8   # not the series
        solver = dynamics._imex_solver(op, dt)
        mat = (op.a_free * dt + sp.diags(op.mass_diag)).tocsc()
        ref = splu(mat, permc_spec="MMD_AT_PLUS_A")   # not counted
        for b in (rng.standard_normal(op.n_free), op.mass_diag):
            x = ref.solve(b, trans="T")
            assert np.abs(solver.solve(b) - x).max() <= 1e-12 * np.abs(x).max()
    assert built == []


def test_anisotropic_operator_is_factored_by_superlu(monkeypatch):
    from conftest import anisotropic_operator

    from transmission import dynamics

    op = anisotropic_operator(16)
    built = []
    splu = dynamics.spla.splu
    monkeypatch.setattr(dynamics.spla, "splu",
                        lambda mat, **kw: built.append(mat) or splu(mat, **kw))
    # d12 != 0 couples the diagonal neighbours, which no grid pencil does
    assert dynamics._factor_cache(op).grid is None
    for dt in (0.02, 0.1):
        dynamics._imex_solver(op, dt)
    assert len(built) == 2


@pytest.mark.parametrize("case", ["completed", "blowup"])
def test_grid_path_builds_one_solver_per_step_size(case, monkeypatch):
    from conftest import default_operator

    from transmission import dynamics

    op = default_operator(16)   # fresh: every step size is built anew
    U0, f, h, T, ctrl, _ = _run_case(case, spectrum(op, k=1).eigenvectors[:, 0],
                                     op.n_free)
    tried, built = [], []
    step, splu = dynamics.imex_step, dynamics.spla.splu
    monkeypatch.setattr(dynamics, "imex_step",
                        lambda op, U, dt, f, h: tried.append(dt) or step(op, U, dt, f, h))
    monkeypatch.setattr(dynamics.spla, "splu",
                        lambda mat, **kw: built.append(mat) or splu(mat, **kw))
    traj = integrate(op, U0, f, h, T, ctrl)
    assert traj.outcome == case
    # every step size above the series' threshold, once
    solved = {dt for dt in tried if dt * _inf_norm(op) > 2.0 ** -8}
    assert traj.stats.factorizations == len(solved) > 3
    assert integrate(op, U0, f, h, T, ctrl).stats.factorizations == 0
    assert built == []


@pytest.mark.parametrize("build", ["op16", "koch"])
@pytest.mark.parametrize("case", ["completed", "blowup"])
def test_grid_solver_changes_rounding_only(build, case, monkeypatch):
    from conftest import default_operator, koch_operator

    from transmission import dynamics, operators

    # fresh operators: no solver is cached on them yet
    make = {"op16": lambda: default_operator(16), "koch": koch_operator}[build]
    op = make()
    U0, f, h, T, ctrl, _ = _run_case(case, spectrum(op, k=1).eigenvectors[:, 0],
                                     op.n_free)
    grid = integrate(op, U0, f, h, T, ctrl)
    assert dynamics._factor_cache(op).grid is not None

    monkeypatch.setattr(operators, "_grid_pencil", lambda *args: None)
    factored = integrate(make(), U0, f, h, T, ctrl)

    assert grid.outcome == factored.outcome
    assert grid.outcome_time == factored.outcome_time
    assert np.array_equal(grid.times, factored.times)
    assert np.array_equal(grid.dts, factored.dts)
    if case == "blowup":
        # the blow-up itself amplifies rounding: only the step sequence and
        # the outcome must agree
        return
    for a, b in zip(grid.states, factored.states):
        assert np.abs(a - b).max() <= 1e-9 * np.abs(b).max()


def test_grid_without_dirichlet_side_factors_large_steps(monkeypatch):
    from conftest import default_operator

    from transmission import dynamics

    # with no Dirichlet side the Woodbury correction loses about dt lambda_1
    # to rounding: at dt = 1000 its probe would fail, so that step size is
    # factored, while dt = 0.1 keeps the grid
    op = default_operator(16, dirichlet_side="none")
    built = []
    splu = dynamics.spla.splu
    monkeypatch.setattr(dynamics.spla, "splu",
                        lambda mat, **kw: built.append(mat) or splu(mat, **kw))
    big = dynamics._imex_solver(op, 1000.0)
    assert len(built) == 1
    assert isinstance(dynamics._imex_solver(op, 0.1), dynamics._GridSolver)
    assert len(built) == 1
    b = op.mass_diag
    x = big.solve(b)
    assert np.abs(op.a_free @ x * 1000.0 + op.mass_diag * x - b).max() <= 1e-12


def test_failed_grid_probe_is_numeric_error(monkeypatch):
    from conftest import default_operator

    from transmission import dynamics, operators
    from transmission.operators import NumericError

    op = default_operator(8)
    # a capacitance matrix blind to the grid's response: the solve misses
    # the interface and corner correction, and its probe shows it
    monkeypatch.setattr(operators._GridPencil, "gram",
                        lambda self, lam: np.zeros((len(self.p),) * 2))
    with pytest.raises(NumericError, match="probe residual"):
        dynamics._imex_solver(op, 0.1)
    with pytest.raises(NumericError, match="dt=0.05"):
        imex_step(op, np.ones(op.n_free), 0.05, ZERO, ZERO)


# ------------------------------------- run end, solver counters, LU cache
def test_completed_run_ends_at_the_horizon_bit_for_bit(op16, rng):
    # ten steps of 0.1 add up to 0.9999999999999999, inside the end
    # tolerance: the run still ends at T itself
    traj = integrate(op16, rng.standard_normal(op16.n_free), ZERO, ZERO, 1.0,
                     StepControl(dt0=0.1, dt_min=1e-10, dt_max=0.1, growth_cap=1e9))
    assert traj.outcome == "completed"
    assert len(traj.times) == 11
    assert traj.times[-1] == traj.outcome_time == 1.0


@pytest.mark.parametrize("case", ["completed", "blowup"])
def test_step_stats_count_the_run(case, monkeypatch):
    from conftest import anisotropic_operator

    from transmission import dynamics

    # fresh, and factorized by SuperLU: every step size is factorized anew
    op = anisotropic_operator(16)
    U0, f, h, T, ctrl, _ = _run_case(case, spectrum(op, k=1).eigenvectors[:, 0],
                                     op.n_free)
    tried, built = [], []
    step, splu = dynamics.imex_step, dynamics.spla.splu
    monkeypatch.setattr(dynamics, "imex_step",
                        lambda op, U, dt, f, h: tried.append(dt) or step(op, U, dt, f, h))
    monkeypatch.setattr(dynamics.spla, "splu",
                        lambda mat, **kw: built.append(mat) or splu(mat, **kw))
    stats = integrate(op, U0, f, h, T, ctrl).stats
    traj = integrate(op, U0, f, h, T, ctrl)   # again: every factor is cached

    assert traj.outcome == case
    assert stats.attempted == len(tried) // 2
    assert stats.accepted == len(traj.times) - 1
    assert stats.rejected == stats.attempted - stats.accepted
    assert (stats.rejected > 0) == (case == "blowup")
    assert stats.dt_min == min(tried) and stats.dt_max == max(tried)
    # one LU factor per rung tried with dt * ||M^-1 A||_inf above 2**-8; the
    # rungs below it are solved by a series, and only the blow-up reaches them
    factored = {dt for dt in tried if dt * _inf_norm(op) > 2.0 ** -8}
    assert stats.factorizations == len(built) == len(factored)
    assert (len(factored) < len(set(tried))) == (case == "blowup")
    assert traj.stats.factorizations == 0
    assert traj.stats == dynamics.StepStats(
        attempted=stats.attempted, accepted=stats.accepted,
        rejected=stats.rejected, dt_min=stats.dt_min, dt_max=stats.dt_max,
        factorizations=0)


@pytest.mark.parametrize("case", ["completed", "blowup"])
def test_step_stats_count_the_series_solves(case, monkeypatch):
    from conftest import default_operator

    from transmission import dynamics

    op = default_operator(16)
    U0, f, h, T, ctrl, _ = _run_case(case, spectrum(op, k=1).eigenvectors[:, 0],
                                     op.n_free)
    tried = []
    step = dynamics.imex_step
    monkeypatch.setattr(dynamics, "imex_step",
                        lambda op, U, dt, f, h: tried.append(dt) or step(op, U, dt, f, h))
    stats = integrate(op, U0, f, h, T, ctrl).stats
    assert stats.attempted == len(tried)
    # one series solve per step tried with dt * ||M^-1 A||_inf at most 2**-8,
    # which only the blow-up (f = -u^3) reaches
    series = [dt for dt in tried if dt * _inf_norm(op) <= 2.0 ** -8]
    assert stats.series_solves == len(series)
    assert (stats.series_solves > 0) == (case == "blowup")


def test_observer_sees_every_accepted_state(op16, rng):
    U0 = rng.standard_normal(op16.n_free)
    ctrl = StepControl(dt0=1e-3, dt_max=0.02)
    seen = []
    streamed = integrate(op16, U0, CUBIC_SINK, LINEAR_SOURCE, 0.5, ctrl,
                         observe=lambda t, dt, U: seen.append((t, dt, U)))
    stored = integrate(op16, U0, CUBIC_SINK, LINEAR_SOURCE, 0.5, ctrl)
    assert np.array_equal([t for t, _, _ in seen], stored.times)
    assert np.array_equal([dt for _, dt, _ in seen], stored.dts)
    assert all(np.array_equal(U, V) for (_, _, U), V in zip(seen, stored.states))
    # the streamed trajectory keeps the last state only
    assert len(streamed.states) == 1
    assert np.array_equal(streamed.states[-1], stored.states[-1])
    assert np.array_equal(streamed.times, stored.times)


def test_lu_cache_evicts_the_least_recently_used_factor(monkeypatch):
    from conftest import anisotropic_operator

    from transmission import dynamics

    op = anisotropic_operator(8)   # factorized by SuperLU
    built = []
    splu = dynamics.spla.splu
    monkeypatch.setattr(dynamics.spla, "splu",
                        lambda mat, **kw: built.append(mat) or splu(mat, **kw))
    first = dynamics._imex_solver(op, 0.1)
    # room for two factors of this size, not three
    monkeypatch.setattr(dynamics, "_LU_CACHE_NNZ", 2 * first.nnz + first.nnz // 2)
    second = dynamics._imex_solver(op, 0.2)
    assert second.nnz == first.nnz
    assert dynamics._imex_solver(op, 0.1) is first   # reused: now the most recent
    dynamics._imex_solver(op, 0.3)                    # evicts 0.2, not 0.1
    assert len(built) == 3
    assert dynamics._imex_solver(op, 0.1) is first
    assert len(built) == 3
    assert dynamics._imex_solver(op, 0.2) is not second
    assert len(built) == 4
    # a factor beyond the bound on its own is still kept, alone
    monkeypatch.setattr(dynamics, "_LU_CACHE_NNZ", 1)
    alone = dynamics._imex_solver(op, 0.4)
    assert dynamics._imex_solver(op, 0.4) is alone
    assert list(op._cache["imex"].factors) == [0.4]
    assert len(built) == 5


# -------------------------------------------- series solve of the blow-up tail
def _inf_norm(op):
    """||M^-1 A||_inf, the largest row sum of |A| over the mass."""
    return (np.asarray(abs(op.a_free).sum(axis=1)).ravel() / op.mass_diag).max()


def _dt_at(theta, norm):
    """The largest dt with dt * norm <= theta in floating point."""
    dt = theta / norm
    while dt * norm > theta:
        dt = np.nextafter(dt, 0.0)
    return dt


@pytest.mark.parametrize("build", ["op16", "koch"])
def test_series_solve_matches_lu_on_tail_rungs(build):
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    from conftest import default_operator, koch_operator

    from transmission import dynamics

    op = {"op16": lambda: default_operator(16), "koch": koch_operator}[build]()
    m, norm = op.mass_diag, _inf_norm(op)
    rng = np.random.default_rng(5)
    # near the top mode of M^-1 A the series terms shrink slowest
    top = rng.standard_normal(op.n_free)
    for _ in range(200):
        top = op.a_free @ top / m
        top /= np.abs(top).max()
    for theta in (2.0 ** -8, 2.0 ** -10, 2.0 ** -16, 1e-6, 1e-9, 1e-12):
        dt = _dt_at(theta, norm)
        solver = dynamics._imex_solver(op, dt)
        lu = spla.splu((op.a_free * dt + sp.diags(m)).tocsc())
        for b in (rng.standard_normal(op.n_free), m * top):
            ref = lu.solve(b)
            assert np.abs(solver.solve(b) - ref).max() <= 1e-15 * np.abs(ref).max()
    assert dynamics._factor_cache(op).built == 0


def test_series_threshold_decides_factoring(monkeypatch):
    from conftest import anisotropic_operator

    from transmission import dynamics

    op = anisotropic_operator(8)   # fresh, and factorized by SuperLU
    built = []
    splu = dynamics.spla.splu
    monkeypatch.setattr(dynamics.spla, "splu",
                        lambda mat, **kw: built.append(mat) or splu(mat, **kw))
    norm = _inf_norm(op)
    at = _dt_at(2.0 ** -8, norm)
    above = np.nextafter(at, 1.0)
    while above * norm <= 2.0 ** -8:
        above = np.nextafter(above, 1.0)
    dynamics._imex_solver(op, at).solve(op.mass_diag)
    assert built == []
    dynamics._imex_solver(op, above).solve(op.mass_diag)
    assert len(built) == 1


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_series_passes_non_finite_values_on(monkeypatch):
    from conftest import anisotropic_operator

    from transmission import dynamics

    op = anisotropic_operator(8)   # fresh, and factorized by SuperLU
    built = []
    splu = dynamics.spla.splu
    monkeypatch.setattr(dynamics.spla, "splu",
                        lambda mat, **kw: built.append(mat) or splu(mat, **kw))
    dt = _dt_at(2.0 ** -8, _inf_norm(op))
    solver = dynamics._imex_solver(op, dt)
    for bad in (np.nan, np.inf, -np.inf):
        b = np.ones(op.n_free)
        b[op.n_free // 2] = bad
        assert not np.isfinite(solver.solve(b)).all()
    # u^3 overflows to inf: every step is rejected, down to a stall
    traj = integrate(op, np.full(op.n_free, 1e120), CUBIC_SOURCE, ZERO, 1.0,
                     StepControl(dt0=dt, dt_min=dt / 1000, dt_max=dt))
    assert traj.outcome == "stalled" and traj.stats.accepted == 0
    assert traj.stats.rejected == traj.stats.attempted == 10
    assert built == []
