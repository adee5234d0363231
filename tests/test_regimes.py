import dataclasses
import math
from functools import partial

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from transmission import brent, regimes
from transmission.constants import ConstantsReport, compute_constants_report
from transmission.poly import Nonlinearity, PolyFunc
from transmission.regimes import (
    RegimeVerdict,
    alpha_defects,
    check_blowup,
    check_dissipative,
    check_global,
    classify,
    default_alpha_candidates,
    replay_certificate,
    save_verdict,
    verdict_fields,
)

CUBIC_SINK = Nonlinearity.power(1.0, 2.0)
LINEAR_SOURCE = Nonlinearity.power(1.0, 0.0)
CUBIC_SOURCE = Nonlinearity.power(-1.0, 2.0)
LINEAR_SINK = Nonlinearity.power(-1.0, 0.0)
ZERO = Nonlinearity()


@pytest.fixture(scope="module")
def constants():
    return ConstantsReport(
        poincare_l2=0.3192, poincare_l1_lower=0.4311,
        c_bar=1.8490, c_bar_eps=0.5,
        safety_factor=2.0, total_mass=1.0, domain_area=1.0,
    )


@pytest.fixture(scope="module")
def lam1(spec16):
    return float(spec16.eigenvalues[0])


# ------------------------------------------------------------- poly algebra
def test_nonlinearity_adds_terms_in_given_order(rng):
    nl = Nonlinearity(terms=((1.5, 2.5), (-2.0, 1.0), (0.7, 0.0)), constant=0.3)
    U = np.concatenate([rng.uniform(-20, 20, 64), [0.0, -1.0, 1.0]])
    a = np.abs(U)
    ref = 0.3 + 1.5 * a ** 2.5 * U + -2.0 * a ** 1.0 * U + 0.7 * a ** 0.0 * U
    assert np.array_equal(nl(U), ref)


def _former_eval(pf, tau):
    """PolyFunc's former evaluation: a zeros accumulator plus
    c * |t|**a * (t if b else 1) per term."""
    tau = np.asarray(tau, dtype=float)
    out = np.zeros(tau.shape)
    a_abs = np.abs(tau)
    for (a, b), c in pf.terms.items():
        if a >= 0.0:
            base = a_abs ** a
        else:
            with np.errstate(divide="ignore", invalid="ignore"):
                base = np.where(a_abs > 0, a_abs ** a, 0.0)
        out += c * base * (tau if b else 1.0)
    return out if out.shape else float(out)


def _config_nonlinearities():
    """(f, h) of every configs/*.ini, of each of its sweep cells, and of
    the four cells of a (p, q) = (0, 2) sweep over c_f in {-1, 0.25} and
    c_h in {-1, 1}."""
    from pathlib import Path

    from transmission.config import parse_config

    pairs = [(Nonlinearity.power(cf, 2.0), Nonlinearity.power(ch, 0.0))
             for cf in (-1.0, 0.25) for ch in (-1.0, 1.0)]
    for path in sorted((Path(__file__).parents[1] / "configs").glob("*.ini")):
        cfg = parse_config(path)
        pairs.append((cfg.bulk_nonlinearity.build(),
                      cfg.interface_nonlinearity.build()))
        sw = cfg.sweep
        pairs += [(Nonlinearity.power(cf, q), Nonlinearity.power(ch, p))
                  for p in sw.p_values for q in sw.q_values
                  for cf in sw.cf_values for ch in sw.ch_values]
    return pairs


def _samples(rng):
    return np.concatenate([rng.uniform(-20, 20, 200), rng.standard_normal(50),
                           [0.0, -0.0, 1.0, -1.0, 1e-20, -3e10]])


def test_evaluation_bit_identical_at_exponents_zero_and_two(rng):
    U = _samples(rng)
    checked = 0
    for pair in _config_nonlinearities():
        for nl in pair:
            if all(a in (0.0, 2.0) for a, _ in nl.terms):
                checked += 1
                assert np.array_equal(nl(U), _former_eval(nl, U))
    assert checked >= 12
    both = PolyFunc({(2.0, 0): 1.0, (2.0, 1): -3.0, (0.0, 1): 1.0, (0.0, 0): 2.0})
    assert np.array_equal(both(U), _former_eval(both, U))


@pytest.mark.parametrize("exponent", range(1, 9))
def test_integer_powers_agree_with_pow(exponent, rng):
    U = _samples(rng)
    for b in (0, 1):
        for c in (1.0, -2.5):
            pf = PolyFunc({(float(exponent), b): c})
            want = _former_eval(pf, U)
            assert np.allclose(pf(U), want, rtol=1e-15, atol=0.0)


def test_mixed_terms_and_products_agree_with_pow(rng):
    U = _samples(rng)
    mixed = PolyFunc({(1.0, 0): 0.5, (3.0, 1): -1.25, (4.0, 0): 2.0,
                      (6.0, 1): 0.125, (7.0, 0): -3.0, (8.0, 0): 1.0})
    polys = [mixed, mixed * mixed.derivative()]
    for f, h in _config_nonlinearities():
        polys += [*alpha_defects(f, h, 3.0), f.antiderivative(), h.antiderivative()]
    for pf in polys:
        # the terms differ from pow by a few ulp each: relative to the sum of
        # the terms' magnitudes, as sums of several terms may cancel
        scale = sum(abs(c) * np.abs(U) ** (a + b) for (a, b), c in pf.terms.items())
        assert np.all(np.abs(pf(U) - _former_eval(pf, U)) <= 1e-15 * scale)


def test_other_exponents_evaluate_as_before(rng):
    U = _samples(rng)
    for a in (0.5, 2.5, 9.0, 12.0, -1.0, -0.5):
        for b in (0, 1):
            pf = PolyFunc({(a, b): -1.5, (1.0, 1): 1.0})
            assert np.array_equal(pf(U), _former_eval(pf, U))
    # a negative power reads 0 at t = 0
    assert PolyFunc({(-1.0, 0): 2.0})(0.0) == 0.0
    assert PolyFunc({(-1.0, 1): 2.0})(np.zeros(3)).tolist() == [0.0] * 3


def test_evaluation_propagates_non_finite_values_as_before():
    U = np.array([np.nan, np.inf, -np.inf, 0.0, 2.0, -3.0])
    polys = [CUBIC_SINK, LINEAR_SOURCE, Nonlinearity(constant=1.5),
             PolyFunc({(4.0, 0): 1.0, (1.0, 1): -2.0, (0.0, 0): 1.0}),
             PolyFunc({(-1.0, 1): 1.0, (3.0, 1): 1.0}), PolyFunc({(0.5, 0): 2.0})]
    for pf in polys:
        with np.errstate(invalid="ignore"):
            got, want = pf(U), _former_eval(pf, U)
        assert np.array_equal(np.isnan(got), np.isnan(want))
        assert np.array_equal(got[np.isinf(got)], want[np.isinf(got)])
        fin = np.isfinite(want)
        assert np.allclose(got[fin], want[fin], rtol=1e-15, atol=0.0)


def test_evaluation_shapes_and_fresh_results():
    for pf in (CUBIC_SINK, LINEAR_SOURCE, ZERO, Nonlinearity(constant=2.0),
               PolyFunc({(2.0, 0): 1.0}), PolyFunc({(-1.0, 0): 1.0})):
        assert type(pf(1.5)) is float
        assert pf(1.5) == _former_eval(pf, 1.5)
        U = np.array([[1.0, -2.0], [0.5, 3.0]])
        out = pf(U)
        assert out.shape == U.shape and out is not U
        # the result is the caller's to change: no input or kept power
        # shares its memory
        out += 1.0
        assert U.tolist() == [[1.0, -2.0], [0.5, 3.0]]
    assert ZERO(np.ones(4)).tolist() == [0.0] * 4
    assert PolyFunc({})(2.0) == 0.0
    square_twice = PolyFunc({(2.0, 0): 1.0, (2.0, 1): 1.0})
    assert square_twice(np.array([2.0, -3.0])).tolist() == [12.0, -18.0]


def test_nonlinearity_growth_is_top_odd_term():
    assert Nonlinearity().growth == (0.0, 0.0)
    assert Nonlinearity(constant=2.0).growth == (0.0, 0.0)
    assert Nonlinearity(terms=((1, 2), (-1, 2), (3, 0))).growth == (0.0, 3.0)


def test_polyfunc_product_and_leading(rng):
    p = CUBIC_SINK                                       # t^3
    q = p * p                                            # t^6
    taus = rng.uniform(-5, 5, 32)
    assert np.allclose(q(taus), taus**6, rtol=1e-12)
    assert q.leading() == (6.0, 1.0)
    assert PolyFunc({}).leading() == (0.0, 0.0)


def test_alpha_defect_hand_values():
    # f = t^3, alpha = 3: defect = 3 t^4/4 - t^4 = -t^4/4
    g, l = alpha_defects(CUBIC_SINK, LINEAR_SOURCE, 3.0)
    assert g(2.0) == pytest.approx(-(2.0**4) / 4.0, abs=1e-12)
    # h = t, alpha = 3: defect = 3 t^2/2 - t^2 = t^2/2
    assert l(2.0) == pytest.approx(2.0**2 / 2.0, abs=1e-12)


def test_alpha_defect_vanishes_at_matching_exponent():
    g, _ = alpha_defects(CUBIC_SINK, ZERO, 4.0)   # alpha = q + 2
    assert not g.terms


def test_alpha_defect_requires_alpha_above_two():
    with pytest.raises(ValueError):
        alpha_defects(CUBIC_SINK, ZERO, 2.0)


# ----------------------------------------------------- bounded minimisation
def _minimize_cases():
    """Seeded (fun, lo, hi) problems of _refined_sup's shape: the negated
    polynomial on the brackets around its five largest _scan_grid() values,
    brackets about 1e-9 wide, a constant, minima at either end, and step
    functions."""
    rng = np.random.default_rng(2024)
    grid = regimes._scan_grid()
    cases = []
    for _ in range(60):
        pf = PolyFunc({(float(rng.integers(0, 4)), int(rng.integers(0, 2))):
                       float(rng.standard_normal()) for _ in range(3)})
        # a bump at c keeps the largest values off the grid's ends
        c = float(rng.uniform(-900.0, 900.0))
        pf = pf.scale(1e-6) + PolyFunc({(2.0, 0): -1.0, (0.0, 1): 2.0 * c,
                                        (0.0, 0): -c * c})
        fun = partial(lambda pf, t: -pf(np.array(t)), pf)
        for k in np.argsort(pf(grid))[::-1][:5]:
            cases.append((fun, grid[max(k - 1, 0)], grid[min(k + 1, len(grid) - 1)]))
        lo = float(rng.uniform(-10.0, 10.0))
        cases.append((fun, lo, lo + 1e-9))
    cases += [(lambda t: 1.0, -1.0, 1.0), (lambda t: float(t), -1.0, 2.0),
              (lambda t: -float(t), -1.0, 2.0), (lambda t: abs(float(t)), 0.0, 3.0)]
    # plateaus tie values, which the bracket update's <= tests then decide
    cases += [(lambda t, k=k: math.floor(k * float(t)) ** 2, lo, hi)
              for k, lo, hi in ((5, -1.0, 1.0), (14, -0.3, 1.7))]
    return cases


def test_minimize_scalar_port_matches_scipy_bit_for_bit():
    for fun, lo, hi in _minimize_cases():
        ours = regimes.minimize_scalar(fun, bounds=(lo, hi), method="bounded",
                                       options={"xatol": 1e-12})
        ref = minimize_scalar(fun, bounds=(lo, hi), method="bounded",
                              options={"xatol": 1e-12})
        assert (ours.x, ours.fun) == (ref.x, ref.fun), (lo, hi)
    # xatol = 0 never converges on t^2: both stop at 500 evaluations
    fun = lambda t: float(t) ** 2   # noqa: E731
    ours = regimes.minimize_scalar(fun, (-1.0, 1.0), options={"xatol": 0.0})
    ref = minimize_scalar(fun, bounds=(-1.0, 1.0), method="bounded",
                          options={"xatol": 0.0})
    assert ref.nfev == 500 and (ours.x, ours.fun) == (ref.x, ref.fun)


def test_minimize_scalar_sign_is_numpy_sign_plus_zero_test():
    for r in (-2.5, -0.0, 0.0, 1e-300, 3.0):
        assert brent._sign(r) == np.sign(r) + (r == 0)
    assert math.isnan(brent._sign(math.nan))


# ------------------------------------------------------------- global rules
def test_sink_dominates_rule(constants):
    v = check_global(CUBIC_SINK, LINEAR_SOURCE, constants, d0=1.0)
    assert v is not None
    assert v.verdict == "GlobalBounded"
    assert v.rule == "bulk-sink-dominates"


def test_boundary_exponent_does_not_fire_sink_rule(constants):
    # q = 2p: the dominant-sink rule must not fire, and no other rule may
    # soundly certify the pair
    f = Nonlinearity.power(1.0, 2.0)
    h = Nonlinearity.power(1.0, 1.0)
    v = check_global(f, h, constants, d0=1.0)
    assert v is None


def test_quadratic_envelope_rule(constants):
    v = check_global(Nonlinearity.power(-1.0, 0.0), LINEAR_SOURCE, constants, d0=1.0)
    assert v is not None
    assert v.rule == "quadratic-growth-envelope"
    assert v.certificate["c_f_envelope"] >= 0.0
    # f(t) t = -t^2 >= -C (t^2 + 1) far beyond the scan grid too
    assert v.certificate["c_f_envelope"] >= 1.0


@pytest.mark.parametrize("f, h", [
    (Nonlinearity.power(-1.0, 1.0), LINEAR_SOURCE),
    (Nonlinearity.power(1.0, 1.0), Nonlinearity.power(1.0, 1.0)),
], ids=["bulk-source", "interface-source"])
def test_quadratic_envelope_rejects_superlinear_source(constants, f, h):
    # u' = |u|u blows up: f(t) t >= -C (t^2 + 1) or h(t) t <= C (t^2 + 1)
    # fails for every C, and no other rule certifies the pair
    assert check_global(f, h, constants, d0=1.0) is None


def test_balance_certificate_for_zero_pair(constants):
    v = check_global(ZERO, ZERO, constants, d0=1.0)
    assert v is not None
    assert v.verdict == "GlobalBounded"


def test_balance_certified_fit_shape(constants):
    # superquadratic sink vs linear source at the sampled moments
    f = Nonlinearity(terms=((1.0, 2.0), (-0.5, 0.0)))
    h = LINEAR_SOURCE
    v = check_global(f, h, constants, d0=1.0)
    assert v.rule == "bulk-sink-dominates" or v.rule == "balance-certified"


# ------------------------------------------------------------ dissipativity
def test_dissipative_cubic_pair(constants):
    res = check_dissipative(CUBIC_SINK, LINEAR_SOURCE, constants, eps=0.5, d0=1.0)
    assert res["success"]
    assert res["lambda_star"] == 0.0
    assert res["c_fh"] > 0.0


def test_dissipative_zero_pair(constants):
    res = check_dissipative(ZERO, ZERO, constants, eps=0.5, d0=1.0)
    assert res["success"]
    assert res["lambda_star"] == 0.0
    assert res["c_fh"] == 0.0


def test_dissipative_superquadratic_source_fails(constants):
    res = check_dissipative(ZERO, Nonlinearity.power(1.0, 2.0), constants, eps=0.5,
                            d0=1.0)
    assert not res["success"]
    assert res == {"success": False,
                   "reason": "reaction grows like |tau|^6 with positive "
                             "coefficient: no quadratic absorption"}


def test_dissipative_eps_range(constants):
    with pytest.raises(ValueError):
        check_dissipative(ZERO, ZERO, constants, eps=1.5, d0=1.0)


# ----------------------------------------------------------------- blow-up
def test_blowup_fires_above_threshold(constants, lam1):
    res = check_blowup(CUBIC_SOURCE, LINEAR_SINK, 3.0, constants,
                       u0_norm2=100.0, e0=-500.0, d0=1.0, lam1=lam1,
                       eps_values=(0.25,))
    assert res["fired"]
    assert res["D1"] > 0.0
    assert res["poly_case"] in ("a", "c")


def test_blowup_zero_datum_never_fires(constants, lam1):
    res = check_blowup(CUBIC_SOURCE, LINEAR_SINK, 3.0, constants,
                       u0_norm2=0.0, e0=0.0, d0=1.0, lam1=lam1,
                       eps_values=(0.25,))
    assert not res["fired"]


def test_blowup_case_b_inequality(constants, lam1):
    # q = 2p = 2: the coefficient inequality decides whether the quadratic
    # gap survives; a strong bulk source passes, a weak one against a strong
    # interface sink does not (alpha away from p + 2 keeps the squared
    # derivative term alive)
    f = Nonlinearity.power(-50.0, 2.0)
    h = Nonlinearity.power(-0.1, 1.0)
    res = check_blowup(f, h, 2.5, constants, u0_norm2=100.0, e0=-1000.0,
                       d0=1.0, lam1=lam1, eps_values=(0.125,))
    assert res["poly_case"] == "b"
    assert res["fired"]

    weak = check_blowup(Nonlinearity.power(-1e-3, 2.0), Nonlinearity.power(-10.0, 1.0),
                        2.5, constants, u0_norm2=100.0, e0=-1000.0,
                        d0=1.0, lam1=lam1, eps_values=(0.125,))
    assert weak.get("poly_case", "") == ""
    assert not weak["fired"]

    # c_h = -1e300: c_h ** 2 would raise where c_h * c_h gives inf, and the
    # coefficient inequality fails rather than erroring
    assert regimes._polynomial_case(CUBIC_SOURCE, Nonlinearity.power(-1e300, 1.0),
                                    2.5, 0.125, constants) == ""


# Reference: the eager search, which refines the sup of every ladder rung of
# every defect at every call and takes max() over all candidates.
def _eager_tau_grid(tau_max=1e3, n=4001):
    lin = np.linspace(-tau_max, tau_max, n)
    logs = np.geomspace(1e-3, tau_max, n // 4)
    return np.unique(np.concatenate([lin, logs, -logs, [0.0]]))


def _eager_refined_sup(fun, tau_max=1e3):
    grid = _eager_tau_grid(tau_max)
    vals = fun(grid)
    order = np.argsort(vals)[::-1][:5]
    best_val, best_tau = -math.inf, 0.0
    for k in order:
        lo = grid[max(k - 1, 0)]
        hi = grid[min(k + 1, len(grid) - 1)]
        if lo == hi:
            cand_val, cand_tau = float(vals[k]), float(grid[k])
        else:
            res = minimize_scalar(lambda t: -fun(np.array(t)),
                                  bounds=(lo, hi), method="bounded",
                                  options={"xatol": 1e-12})
            cand_val, cand_tau = float(-res.fun), float(res.x)
            if vals[k] > cand_val:
                cand_val, cand_tau = float(vals[k]), float(grid[k])
        if cand_val > best_val:
            best_val, best_tau = cand_val, cand_tau
    return best_val, best_tau


# the eager result is a function of (lhs, ladder); keeping it only saves the
# test's time on the g and -l gaps, which repeat at each eps of one alpha
_EAGER_GAPS: dict = {}


def _eager_best_quadratic_gap(lhs, ladder):
    key = (tuple(sorted(lhs.terms.items())), ladder.tobytes())
    if key not in _EAGER_GAPS:
        _EAGER_GAPS[key] = _eager_best_quadratic_gap_uncached(lhs, ladder)
    return _EAGER_GAPS[key]


def _eager_best_quadratic_gap_uncached(lhs, ladder):
    deg, coeff = lhs.leading()
    if coeff <= 0.0 or deg < 2.0 - 1e-12:
        return []
    if abs(deg - 2.0) <= 1e-12:
        ladder = ladder[ladder <= coeff * (1.0 - 1e-9)]
    out = []
    for c1 in ladder:
        sup_val, _ = _eager_refined_sup(lambda t: c1 * t * t - lhs(t))
        out.append((float(c1), max(0.0, sup_val) * (1.0 + 1e-9)))
    return out


def _eager_check_blowup(f, h, alpha, constants, u0_norm2, e0, d0, lam1, eps):
    rho = constants.total_mass / constants.domain_area
    kappa = constants.c_star ** 2 / (4.0 * eps)
    c_tilde = 1.0 / lam1
    g, l = alpha_defects(f, h, alpha)
    ladder = np.geomspace(1e-4, 1e4, 33)
    area = constants.domain_area
    mu = constants.total_mass
    candidates = []
    lhs2 = g - l.scale(rho) - l.derivative().square().scale(kappa)
    for c1, c2 in _eager_best_quadratic_gap(lhs2, ladder):
        d1 = 2.0 * ((1.0 / d0) * ((alpha / 2.0 - 1.0) * d0 - eps) * c_tilde + c1)
        d2 = c2 * area
        candidates.append({
            "route": "quadratic-gap", "C1": c1, "C2": c2,
            "D1": d1, "D2": d2, "margin": d1 * u0_norm2 - alpha * e0 - d2,
        })
    gap_g = _eager_best_quadratic_gap(g, ladder)
    gap_l = _eager_best_quadratic_gap(l.scale(-1.0), ladder)
    if gap_g and gap_l:
        for cf, cfp in gap_g[:: max(1, len(gap_g) // 8)]:
            for ch, chp in gap_l[:: max(1, len(gap_l) // 8)]:
                d1 = 2.0 * ((alpha / 2.0 - 1.0) * c_tilde + min(cf, ch))
                d2 = cfp * area + chp * mu
                candidates.append({
                    "route": "sign-pair", "C_f": cf, "C_f_prime": cfp,
                    "C_h": ch, "C_h_prime": chp,
                    "D1": d1, "D2": d2, "margin": d1 * u0_norm2 - alpha * e0 - d2,
                })
    if not candidates:
        return {"fired": False, "reason": "no quadratic gap at this alpha",
                "alpha": alpha, "eps": eps}
    best = max(candidates, key=lambda c: c["margin"])
    best.update({
        "fired": bool(best["margin"] > 0.0),
        "alpha": alpha, "eps": eps, "c_star": constants.c_star,
        "c_tilde": c_tilde, "u0_norm2": u0_norm2, "e0": e0,
        "poly_case": regimes._polynomial_case(f, h, alpha, eps, constants),
    })
    return best


def _seeded_pairs(seed, count):
    rng = np.random.default_rng(seed)

    def draw():
        return Nonlinearity(terms=tuple(
            (float(rng.choice([-1.0, 1.0]) * rng.choice([0.1, 1.0, 50.0])),
             float(rng.choice([0.0, 0.5, 1.0, 1.5, 2.0, 3.0])))
            for _ in range(int(rng.integers(1, 3)))))

    for _ in range(count):
        f, h = draw(), draw()
        yield f, h, float(rng.choice([10.0, 1e4])), float(rng.choice([-1000.0, 5.0]))


def test_lazy_blowup_search_matches_eager(constants, lam1):
    # the seeded pairs cover both routes, fired and not, the degree-2 ladder
    # cap (poly_case b) and alphas with no gap at all
    routes = set()
    for f, h, u0_norm2, e0 in _seeded_pairs(17, 4):
        for alpha in default_alpha_candidates(f, h):
            eps_values = tuple(share * (alpha / 2.0 - 1.0) for share in (0.25, 0.5, 0.75))
            refs = []
            for eps in eps_values:
                ref = _eager_check_blowup(f, h, alpha, constants, u0_norm2, e0,
                                          1.0, lam1, eps)
                got = check_blowup(f, h, alpha, constants, u0_norm2, e0, d0=1.0,
                                   lam1=lam1, eps_values=(eps,))
                assert got == ref
                routes.add((ref.get("route"), ref.get("poly_case")))
                refs.append(ref)
            # all three eps in one search: the first of largest margin among
            # the references, or the no-gap result of the first eps
            with_margin = [ref for ref in refs if "margin" in ref]
            want = max(with_margin, key=lambda ref: ref["margin"]) if with_margin else refs[0]
            assert check_blowup(f, h, alpha, constants, u0_norm2, e0, d0=1.0,
                                lam1=lam1, eps_values=eps_values) == want
    assert {("quadratic-gap", "b"), ("sign-pair", ""), (None, None)} <= routes


def test_lazy_selection_is_first_largest_margin(rng):
    # small integer margins make ties and rank changes between the bound and
    # the refined value common
    for _ in range(500):
        n = int(rng.integers(1, 12))
        exact = rng.integers(-5, 5, size=n).astype(float)
        bound = exact + rng.integers(0, 4, size=n)
        refined = []

        def make(k, is_refined):
            if is_refined:
                refined.append(k)
            return {"margin": exact[k] if is_refined else bound[k], "k": k}

        best = regimes._first_best([partial(make, k) for k in range(n)])
        first = max(range(n), key=lambda k: exact[k])
        assert best["k"] == first
        # a candidate is refined only while its bound can reach the best,
        # and one that can at most tie it is refined only ahead of the best
        assert all(bound[k] > exact[first] or bound[k] == exact[first] and k <= first
                   for k in refined)


def test_blowup_classify_refines_few_rungs(op16, spec16, constants,
                                           monkeypatch):
    # the eager search made 4835 minimize_scalar calls for this classify
    calls = []

    def counting(*args, **kwargs):
        calls.append(None)
        return minimize_scalar(*args, **kwargs)

    monkeypatch.setattr(regimes, "minimize_scalar", counting)
    v = classify(CUBIC_SOURCE, LINEAR_SINK, op16, constants,
                 8.0 * spec16.eigenvectors[:, 0])
    assert v.rule == "quadratic-gap-blowup-case-a"
    assert 0 < len(calls) <= 4835 // 10
    # one search over every eps of an alpha refines one rung (five
    # minimize_scalar calls) at each of the four alphas; a search per eps
    # refined one rung per eps, 60 calls
    assert len(calls) <= 20


def _former_grid_c2(lhs, ladder):
    """_QuadraticGap's former grid-level C2: the same ladder cap, then every
    rung's max from one (rungs x grid) array."""
    deg, coeff = lhs.leading()
    if coeff <= 0.0 or deg < 2.0 - 1e-12:
        ladder = ladder[:0]
    elif abs(deg - 2.0) <= 1e-12:
        ladder = ladder[ladder <= coeff * (1.0 - 1e-9)]
    grid = regimes._scan_grid()
    sup = ((ladder[:, None] * grid) * grid - lhs(grid)).max(axis=1)
    return [max(0.0, v) * (1.0 + 1e-9) for v in sup.tolist()]


def _problem(text):
    """(f, h, op, constants, lam1) of a config, as the CLI builds them."""
    from transmission.cli import _constants_report, build_problem
    from transmission.config import parse_config_text
    from transmission.operators import spectrum

    cfg = parse_config_text(text)
    op, f, h = build_problem(cfg)
    lam1 = float(spectrum(op, k=1).eigenvalues[0])
    return f, h, op, _constants_report(cfg, op), lam1


def test_grid_c2_bit_identical_to_the_rungs_x_grid_array(monkeypatch):
    from pathlib import Path

    made = []

    class Recorded(regimes._QuadraticGap):
        def __init__(self, lhs, ladder):
            super().__init__(lhs, ladder)
            made.append((lhs, ladder, self))

    monkeypatch.setattr(regimes, "_QuadraticGap", Recorded)

    def scan(f, h, op, constants, lam1, alphas):
        # every alpha and eps that classify tries, one eps per call: each
        # call builds its g and -l gaps again
        for alpha in alphas:
            eps_cap = (alpha / 2.0 - 1.0) * op.d0
            for share in (0.25, 0.5, 0.75):
                check_blowup(f, h, alpha, constants, 1.0, 0.0, d0=op.d0,
                             lam1=lam1, eps_values=(share * eps_cap,))

    # the four cells of the sweep-koch benchmark workload
    _, _, op, constants, lam1 = _problem(
        "[geometry]\nn = 27\ninterface = koch\nkoch_level = 2\ny0 = 0.4\n"
        "dirichlet_side = left\n[run]\nseed = 0\n")
    for cf in (-1.0, 0.25):
        for ch in (-1.0, 1.0):
            f, h = Nonlinearity.power(cf, 2.0), Nonlinearity.power(ch, 0.0)
            scan(f, h, op, constants, lam1, default_alpha_candidates(f, h))
    path = Path(__file__).parents[1] / "configs" / "blowup.ini"
    f, h, op, constants, lam1 = _problem(path.read_text())
    scan(f, h, op, constants, lam1, [3.0])

    ladder = np.geomspace(1e-4, 1e4, 33)
    # a leading |t|^2 term caps the ladder below its coefficient; a falling
    # or subquadratic lhs leaves it empty
    for lhs in (PolyFunc({(2.0, 0): 3.0, (1.0, 1): -2.0, (0.0, 0): 5.0}),
                PolyFunc({(4.0, 0): -1.0, (2.0, 0): 7.0}),
                PolyFunc({(1.0, 0): 2.0})):
        Recorded(lhs, ladder)

    sizes = [len(gap) for _, _, gap in made]
    assert 0 in sizes and 33 in sizes and any(0 < k < 33 for k in sizes)
    assert len(made) >= 100
    for lhs, rungs, gap in made:
        assert np.array_equal(gap._grid_c2, _former_grid_c2(lhs, rungs))
        # verdict.txt prints C2 by repr: an np.float64 would read differently
        assert all(type(c2) is float for c2 in gap._grid_c2)


def test_quadratic_gap_scans_the_ladder_in_a_few_grid_rows():
    import tracemalloc

    g, l = alpha_defects(CUBIC_SOURCE, LINEAR_SINK, 3.0)
    lhs = regimes._quadratic_gap_lhs(g, l, 1.0, 1.0, 0.25)
    ladder = np.geomspace(1e-4, 1e4, 33)
    n = len(regimes._scan_grid())   # built, and cached, outside the trace
    tracemalloc.start()
    try:
        gap = regimes._QuadraticGap(lhs, ladder)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(gap) == 33
    # the (33 x grid) array and its temporaries took about 67 grid rows
    assert peak <= 8 * n * 8


def test_blowup_alpha_validation(constants, lam1):
    with pytest.raises(ValueError):
        check_blowup(CUBIC_SOURCE, LINEAR_SINK, 2.0, constants, 1.0, 0.0,
                     d0=1.0, lam1=lam1, eps_values=(0.25,))
    with pytest.raises(ValueError):
        check_blowup(CUBIC_SOURCE, LINEAR_SINK, 3.0, constants, 1.0, 0.0,
                     d0=1.0, lam1=lam1, eps_values=(10.0,))


@pytest.mark.parametrize("safety_factor", [1e300, 1e150])
def test_rules_whose_weight_overflows_do_not_fire(constants, lam1, safety_factor):
    # c_star^2 / 4 eps is past every float: c_star ** 2 raises at 1e300, and at
    # 1e150 the division gives inf, which the defect polynomial would prune
    # away; rules weighing by it do not fire, and the others are unchanged
    report = dataclasses.replace(constants, safety_factor=safety_factor)
    eps = 1e-10
    assert regimes._balance_lhs(CUBIC_SINK, LINEAR_SOURCE, 1.0, report.c_star, eps, 1) is None
    diss = check_dissipative(LINEAR_SINK, Nonlinearity.power(-0.5, 0.0), report,
                             eps=eps, d0=1.0)
    assert not diss["success"]
    assert check_global(Nonlinearity.power(0.25, 2.0), LINEAR_SINK, report, d0=1.0,
                        eps=eps) is None
    res = check_blowup(CUBIC_SOURCE, LINEAR_SINK, 3.0, report, u0_norm2=100.0,
                       e0=-500.0, d0=1.0, lam1=lam1, eps_values=(eps,))
    assert res["route"] == "sign-pair"
    # q = 2p with both signs of case b: its coefficient test overflows too
    res = check_blowup(Nonlinearity.power(-50.0, 2.0), Nonlinearity.power(-0.1, 1.0),
                       3.5, report, u0_norm2=100.0, e0=-1000.0, d0=1.0, lam1=lam1,
                       eps_values=(eps,))
    assert res["poly_case"] == ""


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_blowup_search_stops_at_tied_margins(monkeypatch):
    # e0 is about -8.8e298, so every margin rounds to about -alpha e0 and
    # every bound ties the best refined margin: a search that stops only
    # below the best refined every candidate, 2655 minimize_scalar calls
    from conftest import default_operator

    from transmission.operators import spectrum

    op = default_operator(8)
    report = compute_constants_report(op)
    calls = []

    def counting(*args, **kwargs):
        calls.append(None)
        return minimize_scalar(*args, **kwargs)

    monkeypatch.setattr(regimes, "minimize_scalar", counting)
    v = classify(Nonlinearity.power(-1e300, 2.0), Nonlinearity.power(1.0, 1.0), op,
                 report, spectrum(op, k=1).eigenvectors[:, 0])
    assert len(calls) <= 50
    fields = verdict_fields(v)
    assert (fields["verdict"], fields["rule"]) == ("BlowUpPredicted", "quadratic-gap-blowup")
    assert (fields["cert.route"], fields["cert.alpha"], fields["cert.eps"]) == \
        ("'quadratic-gap'", "3.6", "0.2")
    assert v.certificate["margin"] == pytest.approx(3.1708713959236277e+299, rel=1e-9)


# ------------------------------------------------------------------ classify
def test_classify_sink_pair(op16, constants):
    v = classify(CUBIC_SINK, LINEAR_SOURCE, op16, constants,
                 np.zeros(op16.n_free))
    assert v.verdict == "GlobalBounded"


def test_classify_blowup_pair_with_large_datum(op16, spec16, constants):
    phi1 = spec16.eigenvectors[:, 0]
    v = classify(CUBIC_SOURCE, LINEAR_SINK, op16, constants, 8.0 * phi1,
                 alpha=3.0)
    assert v.verdict == "BlowUpPredicted"
    assert v.lhs_value > v.threshold_value


def test_classify_cubic_cubic_indeterminate(op16, constants):
    v = classify(Nonlinearity.power(1.0, 2.0), Nonlinearity.power(1.0, 2.0),
                 op16, constants, np.zeros(op16.n_free))
    assert v.verdict == "Indeterminate"


def test_classify_sums_repeated_exponents(op16):
    # 2 t^3 - t^3 is t^3: same verdict, rule and certificate as t^3 itself
    report = compute_constants_report(op16)
    x, y = op16.mesh.vertices[op16.free_dofs].T
    U0 = 10.0 * np.sin(np.pi * x) * np.sin(np.pi * y)
    h = Nonlinearity.power(-1.0, 0.0)
    split = classify(Nonlinearity(terms=((2.0, 2.0), (-1.0, 2.0))), h, op16, report, U0)
    whole = classify(Nonlinearity.power(1.0, 2.0), h, op16, report, U0)
    assert (split.verdict, split.rule) == (whole.verdict, whole.rule)
    assert split.certificate == whole.certificate


def test_classify_zero_datum_below_threshold(op16, constants):
    v = classify(CUBIC_SOURCE, LINEAR_SINK, op16, constants,
                 np.zeros(op16.n_free), alpha=3.0)
    assert v.verdict == "Indeterminate"
    assert v.rule == "threshold-not-met"


def test_threshold_monotone_in_datum_scale(op16, spec16, constants):
    phi1 = spec16.eigenvectors[:, 0]
    fired = []
    for c in (1.0, 2.0, 4.0, 8.0):
        v = classify(CUBIC_SOURCE, LINEAR_SINK, op16, constants, c * phi1,
                     alpha=3.0)
        fired.append(v.verdict == "BlowUpPredicted")
    # once the predicate fires it stays fired for every doubled datum
    for a, b in zip(fired, fired[1:]):
        assert b or not a


def test_classifier_deterministic(op16, spec16, constants):
    phi1 = spec16.eigenvectors[:, 0]
    a = classify(CUBIC_SOURCE, LINEAR_SINK, op16, constants, 4.0 * phi1,
                 alpha=3.0)
    b = classify(CUBIC_SOURCE, LINEAR_SINK, op16, constants, 4.0 * phi1,
                 alpha=3.0)
    assert verdict_fields(a) == verdict_fields(b)


def test_alpha_candidates_respect_growth():
    cands = default_alpha_candidates(CUBIC_SOURCE, LINEAR_SINK)
    assert all(2.0 < a < 4.0 for a in cands)
    assert 3.0 in cands


# -------------------------------------------------------------------- replay
@pytest.mark.parametrize("f,h,datum_scale,alpha", [
    (CUBIC_SOURCE, LINEAR_SINK, 8.0, 3.0),
    (CUBIC_SINK, LINEAR_SOURCE, 0.0, None),
    (Nonlinearity.power(-1.0, 0.0), LINEAR_SOURCE, 0.0, None),
])
def test_certificate_replay(op16, spec16, constants, f, h, datum_scale, alpha):
    U0 = datum_scale * spec16.eigenvectors[:, 0]
    v = classify(f, h, op16, constants, U0, alpha=alpha)
    if v.rule in ("none",):
        pytest.skip("no certificate emitted")
    viol = replay_certificate(v, f, h, constants, n_samples=10_000, seed=7)
    assert viol <= 1e-8


def test_replay_dissipative_rule(op16, constants):
    # force the dissipative path: superlinear sink without sign-dominance
    f = Nonlinearity(terms=((1.0, 2.0),), constant=0.0)
    h = Nonlinearity.power(0.5, 0.0)
    v = check_dissipative(f, h, constants, 0.5, d0=1.0)
    verdict = RegimeVerdict(verdict="GlobalBounded", rule="dissipative-balance",
                            certificate={k: val for k, val in v.items() if k != "success"})
    assert replay_certificate(verdict, f, h, constants) <= 1e-8


@pytest.mark.parametrize("f,h,datum,rule,perturb", [
    # superlinear bulk sink against a weaker superlinear interface source
    (Nonlinearity.power(10.0, 2.0), Nonlinearity.power(0.1, 1.0), None,
     "dissipative-balance", lambda c: {"c_fh": -1.0}),
    (Nonlinearity.power(1.0, 3.0), Nonlinearity.power(-1.0, 0.5), 1.0,
     "balance-certified", lambda c: {"balance_c": c["balance_c"] / 10.0}),
    (Nonlinearity(terms=((-1.0, 1.5), (-50.0, 0.0))), Nonlinearity.power(0.1, 1.0),
     10.0, "sign-pair-blowup", lambda c: {"C_f_prime": 0.0}),
], ids=["dissipative", "balance", "sign-pair"])
def test_classify_reaches_rule_and_replays(op16, spec16, constants,
                                           f, h, datum, rule, perturb):
    # datum None is U0 = 1, otherwise a multiple of the first eigenvector
    U0 = np.ones(op16.n_free) if datum is None else datum * spec16.eigenvectors[:, 0]
    v = classify(f, h, op16, constants, U0)
    assert (v.rule, v.conflict) == (rule, False)
    assert replay_certificate(v, f, h, constants) == 0.0
    broken = RegimeVerdict(verdict=v.verdict, rule=v.rule,
                           certificate={**v.certificate, **perturb(v.certificate)})
    assert replay_certificate(broken, f, h, constants) > 0.1


def test_fractional_exponents_supported(op16, spec16, constants):
    # non-integer growth: the tail algebra works on real exponents
    f = Nonlinearity.power(1.0, 2.5)
    h = LINEAR_SOURCE
    v = check_global(f, h, constants, d0=1.0)
    assert v is not None and v.rule == "bulk-sink-dominates"

    fb = Nonlinearity.power(-1.0, 1.5)
    phi1 = spec16.eigenvectors[:, 0]
    v = classify(fb, LINEAR_SINK, op16, constants, 10.0 * phi1)
    assert v.verdict in ("BlowUpPredicted", "Indeterminate")
    if v.verdict == "BlowUpPredicted":
        assert replay_certificate(v, fb, LINEAR_SINK, constants) <= 1e-8


def test_verdict_serialization(tmp_path, op16, constants):
    v = classify(CUBIC_SINK, LINEAR_SOURCE, op16, constants,
                 np.zeros(op16.n_free))
    save_verdict(v, tmp_path / "verdict.txt")
    text = (tmp_path / "verdict.txt").read_text()
    assert "verdict=GlobalBounded" in text
    assert "rule=bulk-sink-dominates" in text
