import numpy as np
import pytest

from conftest import run_recorded
from paper_checks import absorbing_ball_check
from transmission.constants import ConstantsReport, best_embedding_constant
from transmission.diagnostics import (
    EnergyAccumulator,
    EnergyReport,
    HolderModulus,
    SnapshotWriter,
    compute_energy_report,
    energy,
    energy_inequality_residual,
    export_trajectory_csv,
    fit_exponential_decay,
    moser_ratio,
    squeezing_check,
)
from transmission.dynamics import StepControl, integrate
from transmission.poly import Nonlinearity

CUBIC_SINK = Nonlinearity.power(1.0, 2.0)
LINEAR_SOURCE = Nonlinearity.power(1.0, 0.0)
LINEAR_SINK = Nonlinearity.power(-1.0, 0.0)
ZERO = Nonlinearity()


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
    assert energy(op16, np.zeros(op16.n_free), CUBIC_SINK, LINEAR_SOURCE) == 0.0


def test_energy_constant_state_closed_form(op16_neumann):
    # constant c, no Dirichlet part, unit interface coefficient, f = u^3, h = 0:
    # E = (c^2 / 2) * total interface mass + (c^4 / 4) * domain area
    c = 1.7
    U = np.full(op16_neumann.n_free, c)
    expected = 0.5 * c**2 * 1.0 + 0.25 * c**4 * 1.0
    assert energy(op16_neumann, U, CUBIC_SINK, ZERO) == pytest.approx(expected, rel=1e-12)


def test_energy_directional_continuity(op16, rng):
    U = rng.standard_normal(op16.n_free)
    V = rng.standard_normal(op16.n_free)
    e0 = energy(op16, U, CUBIC_SINK, LINEAR_SOURCE)
    diffs = []
    for eps in (1e-3, 1e-4):
        e1 = energy(op16, U + eps * V, CUBIC_SINK, LINEAR_SOURCE)
        diffs.append(abs(e1 - e0) / eps)
    # difference quotients approach the directional derivative: ratio near 1
    assert diffs[1] == pytest.approx(diffs[0], rel=0.05)


# ------------------------------------------------- energy inequality
def test_linear_run_dissipates_exactly(op16, rng):
    U0 = rng.standard_normal(op16.n_free)
    _, _, rep = run_recorded(op16, U0, ZERO, ZERO, 0.5, fixed_ctrl(1e-2))
    res = energy_inequality_residual(rep)
    assert res["max_residual"] <= 1e-10 * (1 + abs(res["e0"]))


def test_gradient_flow_energy_monotone(op16, rng):
    U0 = rng.standard_normal(op16.n_free)
    _, _, rep = run_recorded(op16, U0, CUBIC_SINK, LINEAR_SINK, 0.3, fixed_ctrl(1e-3))
    assert (np.diff(rep.E) <= 1e-10 * (1 + np.abs(rep.E[:-1]))).all()


def test_gradient_flow_residual_and_dt_refinement(op32, rng):
    U0 = rng.standard_normal(op32.n_free)
    U0 /= np.abs(U0).max()
    resids = []
    for dt in (1e-3, 5e-4):
        _, _, rep = run_recorded(op32, U0, CUBIC_SINK, LINEAR_SINK, 0.2, fixed_ctrl(dt))
        res = energy_inequality_residual(rep)
        resids.append(max(res["max_residual"], 0.0))
        assert res["max_residual"] <= 1e-6 * (1 + abs(res["e0"]))
    tiny = 1e-12 * (1 + abs(resids[0]))
    assert resids[1] <= max(resids[0] / 1.5, tiny)


def test_dissipation_integral_nondecreasing(op16, rng):
    U0 = rng.standard_normal(op16.n_free)
    _, _, rep = run_recorded(op16, U0, CUBIC_SINK, LINEAR_SOURCE, 0.3, fixed_ctrl(1e-3))
    assert (np.diff(rep.dissipation) >= -1e-15).all()


def test_g_matches_independent_recompute(op16, rng):
    U0 = rng.standard_normal(op16.n_free)
    _, states, rep = run_recorded(op16, U0, ZERO, ZERO, 0.1, fixed_ctrl(1e-2))
    m = op16.pair_mass_diag
    for k, u in enumerate(states):
        direct = 0.5 * float(u @ (m * u))
        assert rep.G[k] == pytest.approx(direct, abs=1e-12 * (1 + direct))


def test_e0_reproducible_from_initial_state_alone(op16, rng):
    U0 = rng.standard_normal(op16.n_free)
    _, _, rep = run_recorded(op16, U0, CUBIC_SINK, LINEAR_SOURCE, 0.05, fixed_ctrl(1e-2))
    assert rep.E[0] == pytest.approx(
        energy(op16, U0, CUBIC_SINK, LINEAR_SOURCE), rel=1e-14
    )


def test_energy_report_equals_energy_state_by_state(op16, rng):
    f = Nonlinearity(terms=((1.0, 2.0), (-0.5, 0.0)), constant=0.1)
    U0 = rng.standard_normal(op16.n_free)
    _, states, rep = run_recorded(op16, U0, f, LINEAR_SOURCE, 0.1, fixed_ctrl(1e-2))
    values = [energy(op16, U, f, LINEAR_SOURCE) for U in states]
    assert len(values) == len(rep.E) == 11
    assert rep.E.tolist() == values


# ------------------------------------------------------ absorbing ball
def test_absorbing_ball_linear_matches_spectrum(op16, spec16, constants16, rng):
    runs = []
    for mag in (1.0, 5.0, 25.0):
        U0 = rng.standard_normal(op16.n_free)
        U0 *= mag / np.abs(U0).max()
        runs.append(run_recorded(op16, U0, ZERO, ZERO, 6.0, fixed_ctrl(5e-3))[:2])
    rep = absorbing_ball_check(runs, op16, constants16, lambda_star=0.0)
    lam1 = spec16.eigenvalues[0]
    assert rep["eta_fit"] == pytest.approx(2 * lam1, rel=0.2)
    assert rep["terminal_agreement"]
    assert rep["envelope_holds"]


def test_absorbing_ball_dissipative_cubic(op16, constants16, rng):
    f, h = CUBIC_SINK, LINEAR_SOURCE
    runs = []
    for mag in (1.0, 10.0, 50.0):
        U0 = rng.standard_normal(op16.n_free)
        U0 *= mag / np.abs(U0).max()
        runs.append(run_recorded(op16, U0, f, h, 6.0,
                                 StepControl(dt0=1e-3, dt_max=0.02))[:2])
    rep = absorbing_ball_check(runs, op16, constants16, lambda_star=0.0)
    assert rep["eta_fit"] >= 0.8 * rep["eta_threshold"]
    assert rep["terminal_agreement"]


def test_absorbing_ball_refuses_bad_verdict(op16, constants16):
    with pytest.raises(ValueError):
        absorbing_ball_check([], op16, constants16, 0.0, verdict="BlowUpPredicted")


def test_absorbing_ball_refuses_blowup(op16, spec16, constants16):
    phi1 = spec16.eigenvectors[:, 0]
    c = 8.0 / np.abs(phi1).max()
    bad, states, _ = run_recorded(op16, c * phi1, Nonlinearity.power(-1.0, 2.0),
                                  LINEAR_SINK, 10.0, StepControl(dt0=1e-3, dt_max=0.05))
    assert bad.outcome == "blowup"
    with pytest.raises(ValueError):
        absorbing_ball_check([(bad, states)] * 3, op16, constants16, 0.0)


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
    holder = HolderModulus(1.0)
    integrate(op16, np.zeros(op16.n_free), ZERO, ZERO, 1.0, fixed_ctrl(1e-2),
              observers=(holder,))
    rep = holder.result()
    assert rep["degenerate"]
    assert rep["rho"] == 1.0


def test_holder_linear_smooth_near_one(op16, spec16):
    U0 = spec16.eigenvectors[:, :4] @ np.array([1.0, 0.5, 0.3, 0.2])
    holder = HolderModulus(2.0)
    integrate(op16, U0, ZERO, ZERO, 2.0, fixed_ctrl(2e-3), observers=(holder,))
    rep = holder.result()
    assert not rep["degenerate"]
    assert 0.7 <= rep["rho"] <= 1.0
    assert rep["r2"] > 0.9


# ------------------------------------------------------------ moser
def test_moser_ratio_constant_state_closed_form(op16_neumann):
    c = 2.0
    U = np.full(op16_neumann.n_free, c)
    _, _, rep = run_recorded(op16_neumann, U, ZERO, ZERO, 0.0001, fixed_ctrl(0.0001 / 2))
    ratio = moser_ratio(rep)
    l2 = op16_neumann.pair_norm(U)
    assert ratio == pytest.approx(c / max(max(1.0, c), l2), rel=1e-3)


def test_moser_bounded_over_ensemble(op16):
    local = np.random.default_rng(21)
    ratios = []
    for mag in (1.0, 10.0, 50.0):
        U0 = local.standard_normal(op16.n_free)
        U0 *= mag / np.abs(U0).max()
        _, _, report = run_recorded(op16, U0, CUBIC_SINK, LINEAR_SOURCE, 2.0,
                                    StepControl(dt0=1e-3, dt_max=0.02))
        ratios.append(moser_ratio(report, window=(0.2, 2.0)))
    # the sup norm stays dominated by the larger of the datum scale and the
    # pair-norm history, uniformly across initial magnitudes
    assert 0.0 < max(ratios) < 5.0


def test_moser_stable_under_refinement(op16, op32, rng):
    ratios = []
    for op in (op16, op32):
        x = op.mesh.vertices[op.free_dofs, 0]
        y = op.mesh.vertices[op.free_dofs, 1]
        U0 = np.sin(np.pi * x) * np.sin(np.pi * y) * 5.0
        _, _, report = run_recorded(op, U0, CUBIC_SINK, LINEAR_SOURCE, 1.0,
                                    StepControl(dt0=1e-3, dt_max=0.02))
        ratios.append(moser_ratio(report, window=(0.1, 1.0)))
    assert max(ratios) < 3.0 * min(ratios)


def test_moser_ratio_of_the_report_equals_the_state_formula(op16, rng):
    U0 = 5.0 * rng.standard_normal(op16.n_free)
    traj, states, report = run_recorded(op16, U0, CUBIC_SINK, LINEAR_SOURCE, 1.0,
                                        StepControl(dt0=1e-3, dt_max=0.02))
    c_inf = max(1.0, float(np.abs(U0).max()))
    for window in (None, (0.1, 1.0), (0.3, 0.6)):
        t_lo, t_hi = window or (-np.inf, np.inf)
        inside = [U for t, U in zip(traj.times, states) if t_lo <= t <= t_hi]
        sup = max(float(np.abs(U).max()) for U in inside)
        pair = max(op16.pair_norm(U) for U in inside)
        assert moser_ratio(report, window) == sup / max(c_inf, pair)
    with pytest.raises(ValueError):
        moser_ratio(report, (2.0, 3.0))


# --------------------------------------------------------------- export
def test_trajectory_csv_export(tmp_path, op16, rng):
    U0 = rng.standard_normal(op16.n_free)
    energy_acc = EnergyAccumulator(op16, CUBIC_SINK, LINEAR_SOURCE)
    traj = integrate(op16, U0, CUBIC_SINK, LINEAR_SOURCE, 0.05, fixed_ctrl(1e-2),
                     observers=(energy_acc, SnapshotWriter(op16, 2, tmp_path / "snaps")))
    out = tmp_path / "trajectory.csv"
    export_trajectory_csv(traj, energy_acc.report(), out)
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
    energy_acc = EnergyAccumulator(op16, f, h)
    holder = HolderModulus(T)
    snaps = SnapshotWriter(op16, 3, tmp_path / "streamed")
    seen = []
    traj = integrate(op16, U0, f, h, T, ctrl,
                     observers=(energy_acc, holder, snaps,
                                lambda t, dt, U: seen.append((t, dt, U))))
    assert traj.outcome == case
    assert len(traj.states) == 1

    # the same diagnostics, fed afterwards the states kept during that run
    replayed = (HolderModulus(T), SnapshotWriter(op16, 3, tmp_path / "stored"))
    for t, dt, U in seen:
        for obs in replayed:
            obs(t, dt, U)
    got, want = energy_acc.report(), compute_energy_report(seen, op16, f, h)
    for fld in dataclasses.fields(EnergyReport):
        assert np.array_equal(getattr(got, fld.name), getattr(want, fld.name))
    assert moser_ratio(got) == moser_ratio(want)
    names = sorted(p.name for p in (tmp_path / "stored").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "streamed").iterdir())
    assert len(names) == (len(traj.times) + 2) // 3
    for name in names:
        assert ((tmp_path / "streamed" / name).read_bytes()
                == (tmp_path / "stored" / name).read_bytes())
    if case == "completed":
        assert holder.result() == replayed[0].result()
    else:
        # the run ended before the grid over [T/10, T] was sampled
        for acc in (holder, replayed[0]):
            with pytest.raises(ValueError):
                acc.result()


def test_squeezing_samples_the_stored_runs(op16, rng):
    Ua = rng.standard_normal(op16.n_free)
    pert = rng.standard_normal(op16.n_free)
    Ub = Ua + 1e-2 * pert / op16.pair_norm(pert)
    T, ctrl = 3.0, StepControl(dt0=1e-3, dt_max=0.05)
    rep = squeezing_check(op16, Ua, Ub, CUBIC_SINK, LINEAR_SOURCE, T, ctrl)
    grid = np.linspace(0.0, T, 200)

    def sample(U0):
        traj, states, _ = run_recorded(op16, U0, CUBIC_SINK, LINEAR_SOURCE, T, ctrl)
        idx = np.searchsorted(traj.times, grid, side="right") - 1
        return [states[i] for i in idx]

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

    def peak(T, observed):
        observers = (HolderModulus(T),) if observed else ()
        tracemalloc.start()
        try:
            integrate(op, U0, ZERO, ZERO, T, ctrl, observers=observers)
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
    # a run with no observer keeps no state either
    assert peak(10.0, False) - peak(1.0, False) < margin


# the two exact tests above, on an operator whose form is summed by diagonals
def test_energy_report_equals_energy_state_by_state_by_diagonals(op64):
    test_energy_report_equals_energy_state_by_state(op64, np.random.default_rng(12345))
    assert op64._cache["diagonal_form"] is not None


def test_streamed_diagnostics_equal_stored_by_diagonals(op64, tmp_path):
    from transmission.operators import spectrum

    test_streamed_diagnostics_equal_stored("completed", op64, spectrum(op64, k=1), tmp_path)
    assert op64._cache["diagonal_form"] is not None
