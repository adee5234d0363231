import numpy as np
import pytest

from transmission.constants import ConstantsReport, best_embedding_constant
from transmission.diagnostics import (
    EnergyAccumulator,
    EnergyReport,
    HolderModulus,
    MoserRatio,
    SnapshotWriter,
    absorbing_ball_check,
    compute_energy_report,
    energy,
    energy_inequality_residual,
    export_trajectory_csv,
    fit_exponential_decay,
    holder_time_modulus,
    moser_domination_check,
    observe_all,
    squeezing_check,
)
from transmission.dynamics import StepControl, integrate
from transmission.poly import Nonlinearity

CUBIC_SINK = Nonlinearity.power(1.0, 2.0)
LINEAR_SOURCE = Nonlinearity.power(1.0, 0.0)
LINEAR_SINK = Nonlinearity.power(-1.0, 0.0)
ZERO = Nonlinearity.zero()


def fixed_ctrl(dt):
    return StepControl(dt0=dt, dt_min=dt * 1e-9, dt_max=dt, growth_cap=1e9)


@pytest.fixture(scope="module")
def constants16(op16):
    return ConstantsReport(
        poincare_l2=0.319, poincare_l1_lower=0.43,
        c_bar=best_embedding_constant(op16, 0.5), c_bar_eps=0.5,
    )


# ----------------------------------------------------------------- energy
def test_energy_zero_state(op16):
    ev = energy(op16, np.zeros(op16.n_free), CUBIC_SINK, LINEAR_SOURCE)
    assert ev.total == 0.0


def test_energy_constant_state_closed_form(op16_neumann):
    # constant c, no Dirichlet part, unit interface coefficient, f = u^3, h = 0:
    # E = (c^2 / 2) * total interface mass + (c^4 / 4) * domain area
    c = 1.7
    U = np.full(op16_neumann.n_free, c)
    ev = energy(op16_neumann, U, CUBIC_SINK, ZERO)
    expected = 0.5 * c**2 * 1.0 + 0.25 * c**4 * 1.0
    assert ev.total == pytest.approx(expected, rel=1e-12)


def test_energy_breakdown_sums(op16, rng):
    U = rng.standard_normal(op16.n_free)
    ev = energy(op16, U, CUBIC_SINK, LINEAR_SOURCE)
    assert ev.total == pytest.approx(
        ev.form_term + ev.bulk_primitive - ev.iface_primitive, abs=1e-12 * (1 + abs(ev.total))
    )


def test_energy_directional_continuity(op16, rng):
    U = rng.standard_normal(op16.n_free)
    V = rng.standard_normal(op16.n_free)
    e0 = energy(op16, U, CUBIC_SINK, LINEAR_SOURCE).total
    diffs = []
    for eps in (1e-3, 1e-4):
        e1 = energy(op16, U + eps * V, CUBIC_SINK, LINEAR_SOURCE).total
        diffs.append(abs(e1 - e0) / eps)
    # difference quotients approach the directional derivative: ratio near 1
    assert diffs[1] == pytest.approx(diffs[0], rel=0.05)


# ------------------------------------------------- energy inequality
def test_linear_run_dissipates_exactly(op16, rng):
    U0 = rng.standard_normal(op16.n_free)
    traj = integrate(op16, U0, ZERO, ZERO, 0.5, fixed_ctrl(1e-2))
    res = energy_inequality_residual(traj, op16, ZERO, ZERO)
    assert res["max_residual"] <= 1e-10 * (1 + abs(res["e0"]))


def test_gradient_flow_energy_monotone(op16, rng):
    U0 = rng.standard_normal(op16.n_free)
    traj = integrate(op16, U0, CUBIC_SINK, LINEAR_SINK, 0.3, fixed_ctrl(1e-3))
    rep = compute_energy_report(traj, op16, CUBIC_SINK, LINEAR_SINK)
    assert (np.diff(rep.E) <= 1e-10 * (1 + np.abs(rep.E[:-1]))).all()


def test_gradient_flow_residual_and_dt_refinement(op32, rng):
    U0 = rng.standard_normal(op32.n_free)
    U0 /= np.abs(U0).max()
    resids = []
    for dt in (1e-3, 5e-4):
        traj = integrate(op32, U0, CUBIC_SINK, LINEAR_SINK, 0.2, fixed_ctrl(dt))
        res = energy_inequality_residual(traj, op32, CUBIC_SINK, LINEAR_SINK)
        resids.append(max(res["max_residual"], 0.0))
        assert res["max_residual"] <= 1e-6 * (1 + abs(res["e0"]))
    tiny = 1e-12 * (1 + abs(resids[0]))
    assert resids[1] <= max(resids[0] / 1.5, tiny)


def test_dissipation_integral_nondecreasing(op16, rng):
    U0 = rng.standard_normal(op16.n_free)
    traj = integrate(op16, U0, CUBIC_SINK, LINEAR_SOURCE, 0.3, fixed_ctrl(1e-3))
    rep = compute_energy_report(traj, op16, CUBIC_SINK, LINEAR_SOURCE)
    assert (np.diff(rep.dissipation) >= -1e-15).all()


def test_g_matches_independent_recompute(op16, rng):
    U0 = rng.standard_normal(op16.n_free)
    traj = integrate(op16, U0, ZERO, ZERO, 0.1, fixed_ctrl(1e-2))
    rep = compute_energy_report(traj, op16, ZERO, ZERO)
    m = op16.pair_mass_diag
    for k, u in enumerate(traj.states):
        direct = 0.5 * float(u @ (m * u))
        assert rep.G[k] == pytest.approx(direct, abs=1e-12 * (1 + direct))


def test_e0_reproducible_from_initial_state_alone(op16, rng):
    U0 = rng.standard_normal(op16.n_free)
    traj = integrate(op16, U0, CUBIC_SINK, LINEAR_SOURCE, 0.05, fixed_ctrl(1e-2))
    rep = compute_energy_report(traj, op16, CUBIC_SINK, LINEAR_SOURCE)
    assert rep.E[0] == pytest.approx(
        energy(op16, U0, CUBIC_SINK, LINEAR_SOURCE).total, rel=1e-14
    )


# ------------------------------------------------------ absorbing ball
def test_absorbing_ball_linear_matches_spectrum(op16, spec16, constants16, rng):
    trajs = []
    for mag in (1.0, 5.0, 25.0):
        U0 = rng.standard_normal(op16.n_free)
        U0 *= mag / np.abs(U0).max()
        trajs.append(integrate(op16, U0, ZERO, ZERO, 6.0, fixed_ctrl(5e-3)))
    rep = absorbing_ball_check(trajs, op16, constants16, lambda_star=0.0)
    lam1 = spec16.eigenvalues[0]
    assert rep["eta_fit"] == pytest.approx(2 * lam1, rel=0.2)
    assert rep["terminal_agreement"]
    assert rep["envelope_holds"]


def test_absorbing_ball_dissipative_cubic(op16, constants16, rng):
    f, h = CUBIC_SINK, LINEAR_SOURCE
    trajs = []
    for mag in (1.0, 10.0, 50.0):
        U0 = rng.standard_normal(op16.n_free)
        U0 *= mag / np.abs(U0).max()
        trajs.append(integrate(op16, U0, f, h, 6.0, StepControl(dt0=1e-3, dt_max=0.02)))
    rep = absorbing_ball_check(trajs, op16, constants16, lambda_star=0.0)
    assert rep["eta_fit"] >= 0.8 * rep["eta_threshold"]
    assert rep["terminal_agreement"]


def test_absorbing_ball_refuses_bad_verdict(op16, constants16):
    with pytest.raises(ValueError):
        absorbing_ball_check([], op16, constants16, 0.0, verdict="BlowUpPredicted")


def test_absorbing_ball_refuses_blowup(op16, spec16, constants16):
    phi1 = spec16.eigenvectors[:, 0]
    c = 8.0 / np.abs(phi1).max()
    bad = integrate(op16, c * phi1, Nonlinearity.power(-1.0, 2.0), LINEAR_SINK,
                    10.0, StepControl(dt0=1e-3, dt_max=0.05))
    assert bad.outcome == "blowup"
    with pytest.raises(ValueError):
        absorbing_ball_check([bad, bad, bad], op16, constants16, 0.0)


# ----------------------------------------------------------- squeezing
def test_squeezing_identical_data(op16, rng):
    U0 = rng.standard_normal(op16.n_free)
    rep = squeezing_check(op16, U0, U0.copy(), CUBIC_SINK, LINEAR_SOURCE, 1.0,
                          StepControl(dt0=1e-3, dt_max=0.02))
    assert rep["dist2"].max() == 0.0


def test_squeezing_linear_rate(op16, spec16, rng):
    lam1 = spec16.eigenvalues[0]
    Ua = rng.standard_normal(op16.n_free)
    pert = spec16.eigenvectors[:, :5] @ rng.standard_normal(5)
    Ub = Ua + 1e-2 * pert / op16.pair_norm(pert)
    rep = squeezing_check(op16, Ua, Ub, ZERO, ZERO, 6.0, fixed_ctrl(5e-3))
    assert rep["omega"] == pytest.approx(2 * lam1, rel=0.2)
    assert rep["k_factor"] <= 0.1 * rep["omega"]


def test_squeezing_dissipative_cubic_contracts(op16, rng):
    Ua = rng.standard_normal(op16.n_free)
    Ua /= np.abs(Ua).max()
    pert = rng.standard_normal(op16.n_free)
    Ub = Ua + 1e-2 * pert / op16.pair_norm(pert)
    rep = squeezing_check(op16, Ua, Ub, CUBIC_SINK, LINEAR_SOURCE, 10.0,
                          StepControl(dt0=1e-3, dt_max=0.05))
    assert rep["omega"] > 0.0
    assert rep["terminal_distance"] < 1e-3


def test_squeezing_refuses_blowup(op16, spec16):
    phi1 = spec16.eigenvectors[:, 0]
    c = 8.0 / np.abs(phi1).max()
    with pytest.raises(ValueError):
        squeezing_check(op16, c * phi1, c * phi1 * 1.01,
                        Nonlinearity.power(-1.0, 2.0), LINEAR_SINK, 10.0,
                        StepControl(dt0=1e-3, dt_max=0.05))


# ------------------------------------------------------- time modulus
def test_holder_equilibrium_degenerate(op16):
    traj = integrate(op16, np.zeros(op16.n_free), ZERO, ZERO, 1.0, fixed_ctrl(1e-2))
    rep = holder_time_modulus(traj)
    assert rep["degenerate"]
    assert rep["rho"] == 1.0


def test_holder_linear_smooth_near_one(op16, spec16):
    U0 = spec16.eigenvectors[:, :4] @ np.array([1.0, 0.5, 0.3, 0.2])
    traj = integrate(op16, U0, ZERO, ZERO, 2.0, fixed_ctrl(2e-3))
    rep = holder_time_modulus(traj)
    assert not rep["degenerate"]
    assert 0.7 <= rep["rho"] <= 1.0
    assert rep["r2"] > 0.9


def test_holder_window_excludes_initial_time(op16, spec16):
    U0 = spec16.eigenvectors[:, :4] @ np.array([1.0, 0.5, 0.3, 0.2])
    traj = integrate(op16, U0, ZERO, ZERO, 2.0, fixed_ctrl(2e-3))
    rep = holder_time_modulus(traj, t_lo=0.5)
    assert 0.0 < rep["rho"] <= 1.0


def test_holder_needs_four_scales(op16):
    traj = integrate(op16, np.zeros(op16.n_free), ZERO, ZERO, 0.05, fixed_ctrl(1e-2))
    with pytest.raises(ValueError):
        holder_time_modulus(traj, n_scales=2)


# ------------------------------------------------------------ moser
def test_moser_ratio_constant_state_closed_form(op16_neumann):
    c = 2.0
    U = np.full(op16_neumann.n_free, c)
    traj = integrate(op16_neumann, U, ZERO, ZERO, 0.0001, fixed_ctrl(0.0001 / 2))
    ratio = moser_domination_check(traj, op16_neumann)
    l2 = op16_neumann.pair_norm(U)
    assert ratio == pytest.approx(c / max(max(1.0, c), l2), rel=1e-3)


def test_moser_bounded_over_ensemble(op16):
    local = np.random.default_rng(21)
    ratios = []
    for mag in (1.0, 10.0, 50.0):
        U0 = local.standard_normal(op16.n_free)
        U0 *= mag / np.abs(U0).max()
        traj = integrate(op16, U0, CUBIC_SINK, LINEAR_SOURCE, 2.0,
                         StepControl(dt0=1e-3, dt_max=0.02))
        ratios.append(moser_domination_check(traj, op16, window=(0.2, 2.0)))
    # the sup norm stays dominated by the larger of the datum scale and the
    # pair-norm history, uniformly across initial magnitudes
    assert 0.0 < max(ratios) < 5.0


def test_moser_stable_under_refinement(op16, op32, rng):
    ratios = []
    for op in (op16, op32):
        x = op.mesh.vertices[op.free_dofs, 0]
        y = op.mesh.vertices[op.free_dofs, 1]
        U0 = np.sin(np.pi * x) * np.sin(np.pi * y) * 5.0
        traj = integrate(op, U0, CUBIC_SINK, LINEAR_SOURCE, 1.0,
                         StepControl(dt0=1e-3, dt_max=0.02))
        ratios.append(moser_domination_check(traj, op, window=(0.1, 1.0)))
    assert max(ratios) < 3.0 * min(ratios)


# --------------------------------------------------------------- export
def test_trajectory_csv_export(tmp_path, op16, rng):
    U0 = rng.standard_normal(op16.n_free)
    traj = integrate(op16, U0, CUBIC_SINK, LINEAR_SOURCE, 0.05, fixed_ctrl(1e-2))
    out = tmp_path / "trajectory.csv"
    export_trajectory_csv(traj, op16, CUBIC_SINK, LINEAR_SOURCE, out,
                          snapshot_stride=2, snapshot_dir=tmp_path / "snaps")
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,dt,sup_norm,l2_norm,E,G,dissipation_integral"
    assert lines[-1].startswith("OUTCOME,Completed,")
    assert len(lines) == 2 + len(traj.times)
    snaps = sorted((tmp_path / "snaps").glob("snapshot_*.csv"))
    assert len(snaps) == (len(traj.times) + 1) // 2
    body = snaps[0].read_text().strip().splitlines()
    assert body[0] == "vertex,value"
    assert len(body) == 1 + len(op16.mesh.vertices)


def test_fit_exponential_decay_recovers_rate():
    t = np.linspace(0, 5, 200)
    y = 3.0 * np.exp(-1.7 * t) + 0.25
    fit = fit_exponential_decay(t, y, floor=0.25)
    assert fit["rate"] == pytest.approx(1.7, rel=1e-6)


# ------------------------------------------------- streamed diagnostics
def _run(case, op, spec):
    """(U0, f, h, T, ctrl) of a named run on op."""
    phi1 = spec.eigenvectors[:, 0]
    bump = 8.0 * phi1 / np.abs(phi1).max()
    U0 = np.abs(np.random.default_rng(8).standard_normal(op.n_free))
    source = Nonlinearity.power(-1.0, 2.0)
    return {
        "completed": (10.0 * U0 / U0.max(), CUBIC_SINK, LINEAR_SOURCE, 1.0,
                      StepControl(dt0=1e-3, dt_max=0.02)),
        "blowup": (bump, source, LINEAR_SINK, 10.0,
                   StepControl(dt0=1e-3, dt_max=0.05)),
        "stalled": (bump, source, LINEAR_SINK, 10.0,
                    StepControl(dt0=1e-3, dt_min=1e-7, dt_max=0.05)),
    }[case]


@pytest.mark.parametrize("case", ["completed", "blowup", "stalled"])
def test_streamed_diagnostics_equal_stored(case, op16, spec16, tmp_path):
    import dataclasses

    U0, f, h, T, ctrl = _run(case, op16, spec16)
    stored = integrate(op16, U0, f, h, T, ctrl)
    energy_acc = EnergyAccumulator(op16, f, h)
    holder = HolderModulus(T)
    moser = MoserRatio(op16)
    snaps = SnapshotWriter(op16, 3, tmp_path / "streamed")
    streamed = integrate(op16, U0, f, h, T, ctrl,
                         observe=observe_all(energy_acc, holder, moser, snaps))
    assert streamed.outcome == stored.outcome == case
    assert len(streamed.states) == 1

    got, want = energy_acc.report(), compute_energy_report(stored, op16, f, h)
    for fld in dataclasses.fields(EnergyReport):
        assert np.array_equal(getattr(got, fld.name), getattr(want, fld.name))
    assert moser.result() == moser_domination_check(stored, op16)
    export_trajectory_csv(stored, op16, f, h, tmp_path / "stored.csv",
                          snapshot_stride=3, snapshot_dir=tmp_path / "stored")
    names = sorted(p.name for p in (tmp_path / "stored").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "streamed").iterdir())
    assert len(names) == (len(stored.times) + 2) // 3
    for name in names:
        assert ((tmp_path / "streamed" / name).read_bytes()
                == (tmp_path / "stored" / name).read_bytes())
    if case == "completed":
        assert holder.result() == holder_time_modulus(stored)
    else:
        # the run ended before the grid over [T/10, T] was sampled
        with pytest.raises(ValueError):
            holder.result()
    # a streamed trajectory has no states to replay
    with pytest.raises(ValueError):
        compute_energy_report(streamed, op16, f, h)


def test_squeezing_samples_the_stored_runs(op16, rng):
    Ua = rng.standard_normal(op16.n_free)
    pert = rng.standard_normal(op16.n_free)
    Ub = Ua + 1e-2 * pert / op16.pair_norm(pert)
    T, ctrl = 3.0, StepControl(dt0=1e-3, dt_max=0.05)
    rep = squeezing_check(op16, Ua, Ub, CUBIC_SINK, LINEAR_SOURCE, T, ctrl)
    grid = np.linspace(0.0, T, 200)

    def sample(U0):
        traj = integrate(op16, U0, CUBIC_SINK, LINEAR_SOURCE, T, ctrl)
        idx = np.searchsorted(traj.times, grid, side="right") - 1
        return [traj.states[i] for i in idx]

    d2 = np.array([op16.pair_norm2(a - b) for a, b in zip(sample(Ua), sample(Ub))])
    assert np.array_equal(rep["times"], grid)
    assert np.array_equal(rep["dist2"], d2)


def test_streamed_run_memory_does_not_grow_with_the_horizon(rng):
    import tracemalloc

    from conftest import default_operator

    # fresh: its factor cache holds this test's step sizes only
    op = default_operator(16)
    U0 = rng.standard_normal(op.n_free)
    ctrl = fixed_ctrl(5e-3)

    def peak(T, streamed):
        observe = observe_all(HolderModulus(T), MoserRatio(op)) if streamed else None
        tracemalloc.start()
        try:
            integrate(op, U0, ZERO, ZERO, T, ctrl, observe=observe)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1.0, True), peak(10.0, True)   # every step size is factorized
    short, long = peak(1.0, True), peak(10.0, True)
    # 1,800 more steps take 58 kB more for the step times and sizes, and the
    # Hoelder ring holds more distinct states (up to 70 kB).  scipy's table
    # of live SuperLU allocations may be rebuilt during the longer run: up to
    # 0.3 MB when many factors are alive in the process.  Keeping every state
    # would take 4 MB more.
    margin = 512 * 1024
    assert long - short < margin
    assert peak(10.0, False) - short > 6 * margin
