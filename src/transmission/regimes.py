"""Regime classification for polynomial nonlinearity pairs.

Three families of sufficient conditions are checked, in order: global
boundedness (bulk sink dominating the interface source, or subquadratic
growth, or a sampled moment-balance certificate), dissipativity (quadratic
absorption of the coupled reaction terms below the embedding constant), and
finite-time blow-up (a quadratic gap for the alpha-weighted defect
functions, plus an initial-datum threshold).  All tail behavior is decided
exactly on the polynomial representation; finite-tau constants come from
dense grids with local refinement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, partial

import numpy as np

from .assembly import DiscreteOperator
from .brent import minimize_scalar
from .constants import ConstantsReport
from .diagnostics import energy
from .operators import fit_line, spectrum
from .poly import Nonlinearity, PolyFunc
from .textio import write_fields


def alpha_defects(f: Nonlinearity, h: Nonlinearity, alpha: float) -> tuple[PolyFunc, PolyFunc]:
    """The alpha-weighted primitive defects (for w in {f, h}):
    defect_w(t) = alpha * W(t) - w(t) t, with W the primitive of w."""
    if alpha <= 2.0:
        raise ValueError("alpha must exceed 2")
    return tuple(w.antiderivative().scale(alpha) - w.times_tau() for w in (f, h))


@cache
def _scan_grid(tau_max: float = 1e3) -> np.ndarray:
    """The read-only grid of every finite-tau sup over [-tau_max, tau_max].
    Built on first use rather than at import, which every CLI mode does: the
    sort that builds it pages in memory that modes without regimes never
    need."""
    lin = np.linspace(-tau_max, tau_max, 4001)
    logs = np.geomspace(1e-3, tau_max, 1000)
    grid = np.unique(np.concatenate([lin, logs, -logs, [0.0]]))
    grid.flags.writeable = False
    return grid


def _refined_sup(fun, vals: np.ndarray | None = None) -> float:
    """Sup of fun over [-1e3, 1e3]: local bounded refinement around the five
    largest of its values on _scan_grid() (vals, when the caller has them)."""
    grid = _scan_grid()
    if vals is None:
        vals = fun(grid)
    best = -math.inf
    for k in np.argsort(vals)[::-1][:5]:
        lo = grid[max(k - 1, 0)]
        hi = grid[min(k + 1, len(grid) - 1)]
        cand = float(vals[k])
        if lo != hi:
            res = minimize_scalar(lambda t: -fun(np.array(t)),
                                  bounds=(lo, hi), method="bounded",
                                  options={"xatol": 1e-12})
            cand = max(float(-res.fun), cand)
        best = max(best, cand)
    return best


# ------------------------------------------------- certified inequalities
# Each rule's defect polynomial is built here only, so that a replay tests
# the inequality that was certified.  A defect is None, and its rule does not
# fire, when its weight kappa = c_star^2 / (4 m eps) is not a finite float.
def _kappa(c_star: float, eps: float, m: int = 1) -> float | None:
    try:
        kappa = c_star ** 2 / (4.0 * m * eps)
    except OverflowError:   # a float ** raises where * gives inf
        return None
    return kappa if math.isfinite(kappa) else None


def _balance_lhs(f: Nonlinearity, h: Nonlinearity, rho: float, c_star: float,
                 eps: float, m: int) -> PolyFunc | None:
    """Moment-m defect of 'balance-certified', bounded by
    balance_c m^balance_lambda (|t|^(m+1) + 1) for |t| >= tau0:
    -f(t)|t|^(m-1)t + rho h(t)|t|^(m-1)t
        + (c_star^2 / 4 m eps) |t|^(m-1) (h'(t) t + m h(t))^2.
    At m = 1, the defect of 'dissipative-balance' (lambda_star t^2 + c_fh)."""
    if (kappa := _kappa(c_star, eps, m)) is None:
        return None
    mono = PolyFunc({(float(m - 1), 1): 1.0})   # |t|^{m-1} t
    return (f * mono).scale(-1.0) + (h * mono).scale(rho) \
        + PolyFunc({(float(m - 1), 0): kappa}) \
        * (h.derivative().times_tau() + h.scale(float(m))).square()


def _quadratic_gap_lhs(g: PolyFunc, l: PolyFunc, rho: float, c_star: float,
                       eps: float) -> PolyFunc | None:
    """Combined defect of the 'quadratic-gap' blow-up route, bounded below
    by C1 t^2 - C2: g(t) - rho l(t) - (c_star^2 / 4 eps) l'(t)^2."""
    if (kappa := _kappa(c_star, eps)) is None:
        return None
    return g - l.scale(rho) - l.derivative().square().scale(kappa)


def _level(p: PolyFunc | None, grid: np.ndarray, k: float, sign: float = 1.0) -> float:
    """Max of sign p(t) / (|t|^k + 1) over the grid, raised to the ratio's
    limit sign * (leading coefficient) when p has degree k; inf when sign p
    grows faster, or when it is None (a weight that overflows)."""
    deg, lead = p.leading() if p is not None else (math.inf, sign)
    if deg > k + 1e-12 and sign * lead > 0.0:
        return math.inf
    level = float(np.max(sign * p(grid) / (np.abs(grid) ** k + 1.0)))
    if abs(deg - k) <= 1e-12:
        level = max(level, sign * lead)
    return level


@dataclass
class RegimeVerdict:
    verdict: str                    # GlobalBounded | BlowUpPredicted | Indeterminate
    rule: str
    certificate: dict = field(default_factory=dict)
    threshold_value: float = math.nan
    lhs_value: float = math.nan
    e0: float = math.nan
    conflict: bool = False
    notes: str = ""


# --------------------------------------------------------------- global rules
def check_global(f: Nonlinearity, h: Nonlinearity, constants: ConstantsReport,
                 d0: float, eps: float | None = None) -> RegimeVerdict | None:
    """Global-boundedness rules; None when none of them fires."""
    q, c_f = f.growth
    p, c_h = h.growth

    if c_f > 0.0 and c_h > 0.0 and q > 2.0 * p:
        return RegimeVerdict(
            verdict="GlobalBounded", rule="bulk-sink-dominates",
            certificate={"q": q, "p": p, "c_f": c_f, "c_h": c_h},
        )

    # f(t) t >= -C (t^2 + 1) and h(t) t <= C (t^2 + 1): the energy grows at most
    # exponentially.  A superlinear source (an infinite level) has no such C
    if q <= 1.0 and p <= 1.0:
        grid = _scan_grid(1e4)
        cf_env = _level(f.times_tau(), grid, 2.0, -1.0)
        ch_env = _level(h.times_tau(), grid, 2.0)
        if max(cf_env, ch_env) < math.inf:
            return RegimeVerdict(
                verdict="GlobalBounded", rule="quadratic-growth-envelope",
                certificate={"q": q, "p": p, "c_f_envelope": max(cf_env, 0.0),
                             "c_h_envelope": max(ch_env, 0.0)},
            )

    # sampled moment balance with exact tail screening per sampled moment
    eps = d0 / 2.0 if eps is None else eps
    if c_h != 0.0 and p > 0.0 and abs(q - 2.0 * p) < 1e-12:
        # the squared-derivative moment term grows linearly in the moment
        # index at the same tau-degree as the sink: no certificate can cover
        # every moment
        return None

    m_grid, tau0 = (1, 2, 4, 8, 16), 1.0
    grid = _scan_grid()
    grid = grid[np.abs(grid) >= tau0]
    needed = []
    for m in m_grid:
        level = _level(_balance_lhs(f, h, constants.rho, constants.c_star, eps, m),
                       grid, m + 1.0)
        if level == math.inf:
            return None
        needed.append(max(level, 1e-12))

    ms = np.array(m_grid, dtype=float)
    needs = np.array(needed)
    lam_fit, logc, _ = fit_line(np.log(ms), np.log(needs))
    lam_fit = max(lam_fit, 0.0)   # the growth law is a positive power
    c_fit = float(np.exp(logc))
    cover = needs / (c_fit * ms ** lam_fit)
    c_fit *= float(np.max(cover)) * (1.0 + 1e-9)
    return RegimeVerdict(
        verdict="GlobalBounded", rule="balance-certified",
        certificate={"balance_c": c_fit, "balance_lambda": lam_fit,
                     "eps": eps, "c_star": constants.c_star, "tau0": tau0,
                     "m_grid": list(m_grid),
                     "needed": [float(v) for v in needed]},
    )


# ----------------------------------------------------------- dissipativity
def check_dissipative(f: Nonlinearity, h: Nonlinearity,
                      constants: ConstantsReport, eps: float, d0: float) -> dict:
    """Smallest quadratic absorption (lambda_star, c_fh) of the first-moment
    balance defect (_balance_lhs, m = 1); succeeds when lambda_star < c_bar."""
    if not (0.0 < eps < d0):
        raise ValueError(f"eps={eps} outside (0, d0={d0})")
    lhs = _balance_lhs(f, h, constants.rho, constants.c_star, eps, 1)
    if lhs is None:
        return {"success": False, "reason": "c_star^2 / 4 eps overflows"}
    deg, coeff = lhs.leading()
    if deg > 2.0 + 1e-12 and coeff > 0.0:
        return {"success": False,
                "reason": f"reaction grows like |tau|^{deg:.3g} with positive "
                          "coefficient: no quadratic absorption"}
    lam_star = max(0.0, lhs.coeff_at(2.0)) if abs(deg - 2.0) <= 1e-12 else 0.0
    c_fh = max(0.0, _refined_sup(lambda t: lhs(t) - lam_star * t * t)) * (1.0 + 1e-9)
    return {
        "success": bool(lam_star < constants.c_bar),
        "lambda_star": lam_star,
        "c_fh": c_fh,
        "c_bar": constants.c_bar,
        "eps": eps,
    }


# ----------------------------------------------------------------- blow-up
class _QuadraticGap:
    """Minorants C1 t^2 - C2 of lhs on the scanned range, one per feasible
    ladder rung C1; none when lhs is None (a weight that overflows).

    lhs is evaluated once on _scan_grid(), and the rungs' grid-level C2 are
    taken rung by rung in one reused row: a (rungs x grid) array would take
    three fresh multi-MB temporaries per call.  The refined C2 of a rung is
    computed on first request and kept.  The refinement maximises over the
    grid values too, so the grid-level C2 never exceeds the refined one.
    """

    def __init__(self, lhs: PolyFunc | None, ladder: np.ndarray):
        deg, coeff = lhs.leading() if lhs is not None else (0.0, 0.0)
        if coeff <= 0.0 or deg < 2.0 - 1e-12:
            ladder = ladder[:0]
        elif abs(deg - 2.0) <= 1e-12:
            ladder = ladder[ladder <= coeff * (1.0 - 1e-9)]
        self.lhs = lhs
        self.c1 = ladder
        self._refined: dict[int, float] = {}
        self._grid_c2: list[float] = []
        if len(ladder):
            grid = _scan_grid()
            self._lhs_grid = lhs(grid)
            row = np.empty_like(grid)
            for c1 in ladder:
                # (c1 * grid) * grid - lhs(grid), as the refinement takes it
                np.multiply(c1, grid, out=row)
                row *= grid
                row -= self._lhs_grid
                self._grid_c2.append(max(0.0, float(row.max())) * (1.0 + 1e-9))

    def __len__(self) -> int:
        return len(self.c1)

    def c2(self, i: int, refined: bool) -> float:
        """C2 of rung i: refined, or its grid-level lower bound."""
        if not refined:
            return self._grid_c2[i]
        if i not in self._refined:
            c1, lhs = self.c1[i], self.lhs
            grid = _scan_grid()
            # the grid values are fun(grid), bit for bit
            sup_val = _refined_sup(lambda t: c1 * t * t - lhs(t),
                                   (c1 * grid) * grid - self._lhs_grid)
            self._refined[i] = max(0.0, sup_val) * (1.0 + 1e-9)
        return self._refined[i]


def _first_best(makers: list) -> dict:
    """The candidate max(..., key=margin) picks from the refined candidates
    [make(True) for make in makers]: the first of largest margin.

    make(False) builds a candidate from grid-level C2 values, and the margin
    only falls as a C2 rises, so its margin bounds the refined one from
    above.  Candidates are refined in decreasing order of that bound until
    the next one can at most tie the best refined margin: a bound below it,
    or equal to it at a later candidate, which a tie does not pick.
    """
    bounds = [make(False)["margin"] for make in makers]
    best, best_k = None, -1
    for k in sorted(range(len(makers)), key=lambda k: (-bounds[k], k)):
        if best is not None and (bounds[k] < best["margin"]
                                 or bounds[k] == best["margin"] and k > best_k):
            break
        cand = makers[k](True)
        if best is None or cand["margin"] > best["margin"] \
                or (cand["margin"] == best["margin"] and k < best_k):
            best, best_k = cand, k
    return best


def check_blowup(f: Nonlinearity, h: Nonlinearity, alpha: float,
                 constants: ConstantsReport, u0_norm2: float, e0: float,
                 d0: float, lam1: float, eps_values: tuple[float, ...]) -> dict:
    """Blow-up certificates at a fixed alpha, over every eps of eps_values.

    Route 'quadratic-gap': the combined defect
        g(t) - rho l(t) - (c_star^2 / 4 eps) l'(t)^2
    admits a positive quadratic minorant C1 t^2 - C2.  Route 'sign-pair':
    g >= C_f t^2 - C_f' and l <= -C_h t^2 + C_h' separately.  Either way the
    verdict fires when D1 ||U0||^2 > alpha E(0) + D2 for the route's
    constants; the embedding constant of the operator domain is estimated
    by 1/lambda_1.  The first candidate of largest margin over the C1
    ladder and eps_values is returned.

    The sign-pair route does not depend on eps: its candidates are offered
    once, after those of the first eps, whose value they report.
    """
    if alpha <= 2.0:
        raise ValueError("alpha must exceed 2")
    eps_cap = (alpha / 2.0 - 1.0) * d0
    if not eps_values or not all(0.0 < eps < eps_cap for eps in eps_values):
        raise ValueError(f"eps_values={eps_values} not all in "
                         f"(0, (alpha/2-1) d0 = {eps_cap})")
    rho = constants.rho
    c_tilde = 1.0 / lam1
    g, l = alpha_defects(f, h, alpha)
    ladder = np.geomspace(1e-4, 1e4, 33)
    area = constants.domain_area
    mu = constants.total_mass
    gap_g = _QuadraticGap(g, ladder)
    # the route needs both gaps
    gap_l = _QuadraticGap(l.scale(-1.0), ladder) if gap_g else None

    def quadratic_gap(eps: float, quad: _QuadraticGap, i: int, refined: bool) -> dict:
        c1, c2 = float(quad.c1[i]), quad.c2(i, refined)
        d1 = 2.0 * ((1.0 / d0) * ((alpha / 2.0 - 1.0) * d0 - eps) * c_tilde + c1)
        d2 = c2 * area
        return {
            "route": "quadratic-gap", "C1": c1, "C2": c2, "eps": eps,
            "D1": d1, "D2": d2, "margin": d1 * u0_norm2 - alpha * e0 - d2,
        }

    def sign_pair(i: int, j: int, refined: bool) -> dict:
        cf, cfp = float(gap_g.c1[i]), gap_g.c2(i, refined)
        ch, chp = float(gap_l.c1[j]), gap_l.c2(j, refined)
        d1 = 2.0 * ((alpha / 2.0 - 1.0) * c_tilde + min(cf, ch))
        d2 = cfp * area + chp * mu
        return {
            "route": "sign-pair", "C_f": cf, "C_f_prime": cfp,
            "C_h": ch, "C_h_prime": chp, "eps": eps_values[0],
            "D1": d1, "D2": d2, "margin": d1 * u0_norm2 - alpha * e0 - d2,
        }

    makers = []
    for k, eps in enumerate(eps_values):
        quad = _QuadraticGap(_quadratic_gap_lhs(g, l, rho, constants.c_star, eps),
                             ladder)
        makers += [partial(quadratic_gap, eps, quad, i) for i in range(len(quad))]
        if k == 0 and gap_g and gap_l:
            makers += [partial(sign_pair, i, j)
                       for i in range(0, len(gap_g), max(1, len(gap_g) // 8))
                       for j in range(0, len(gap_l), max(1, len(gap_l) // 8))]

    if not makers:
        return {"fired": False, "reason": "no quadratic gap at this alpha",
                "alpha": alpha, "eps": eps_values[0]}
    best = _first_best(makers)
    best.update({
        "fired": bool(best["margin"] > 0.0),
        "alpha": alpha, "c_star": constants.c_star,
        "c_tilde": c_tilde, "u0_norm2": u0_norm2, "e0": e0,
        "poly_case": _polynomial_case(f, h, alpha, best["eps"], constants),
    })
    return best


def _polynomial_case(f: Nonlinearity, h: Nonlinearity, alpha: float,
                     eps: float, constants: ConstantsReport) -> str:
    """Shortcut labels for pure sign-flipped polynomial pairs."""
    q, c_f = f.growth
    p, c_h = h.growth
    if not (c_f < 0.0 and c_h <= 0.0):
        return ""
    if p + 2.0 < alpha < q + 2.0 and q > 2.0 * p:
        return "a"
    if abs(q - 2.0 * p) < 1e-12 and q > 0:
        if (kappa := _kappa(constants.c_star, eps)) is None:
            return ""
        lhs = -c_f * (1.0 - alpha / (q + 2.0))
        # c_h * c_h, not c_h ** 2: a float ** raises where * gives inf
        return "b" if lhs > kappa * (c_h * c_h) * (p + 2.0 - alpha) ** 2 else ""
    if 2.0 < alpha < q + 2.0 and q > 2.0 * p:
        return "c"
    return ""


# ------------------------------------------------------------------ classify
def default_alpha_candidates(f: Nonlinearity, h: Nonlinearity) -> list[float]:
    q, _ = f.growth
    p, _ = h.growth
    cands = {2.25, 2.5, 3.0, 4.0}
    if q > 0:
        cands |= {0.5 * (p + 2.0 + q + 2.0), 0.5 * (2.0 + q + 2.0), 0.9 * (q + 2.0)}
        cands = {a for a in cands if 2.0 < a < q + 2.0}
    else:
        cands = {a for a in cands if a > 2.0}
    return sorted(round(a, 6) for a in cands)


def classify(f: Nonlinearity, h: Nonlinearity, op: DiscreteOperator,
             constants: ConstantsReport, U0: np.ndarray,
             alpha: float | None = None, eps: float | None = None) -> RegimeVerdict:
    """Deterministic verdict for the nonlinearity pair and initial datum.

    Precedence: global rules, then dissipativity, then blow-up; a blow-up
    certificate that also fires under a global rule is reported as a
    conflict diagnostic on the global verdict.  lambda_1 is the operator's
    own, from its cached spectrum.
    """
    lam1 = float(spectrum(op, k=1).eigenvalues[0])
    U0 = np.asarray(U0, dtype=float)
    u0_norm2 = op.pair_norm2(U0)
    e0 = energy(op, U0, f, h)

    alphas = [alpha] if alpha is not None else default_alpha_candidates(f, h)

    def blowup_scan():
        best = None
        for a in alphas:
            eps_cap = (a / 2.0 - 1.0) * op.d0
            tried = [eps] if eps is not None else [0.25 * eps_cap, 0.5 * eps_cap, 0.75 * eps_cap]
            eps_values = tuple(e for e in tried if 0.0 < e < eps_cap)
            if not eps_values:
                continue
            res = check_blowup(f, h, a, constants, u0_norm2, e0, d0=op.d0,
                               lam1=lam1, eps_values=eps_values)
            if "margin" in res and (best is None or res["margin"] > best["margin"]):
                best = res
        return best

    glob = check_global(f, h, constants, op.d0, eps=eps)
    if glob is not None:
        glob.e0 = e0
        blow = blowup_scan()
        if blow is not None and blow.get("fired"):
            glob.conflict = True
            glob.notes = "blow-up certificate also fired; global rule wins"
        return glob

    try:
        diss = check_dissipative(f, h, constants,
                                 eps if eps is not None else op.d0 / 2.0, d0=op.d0)
    except ValueError:
        diss = {"success": False}
    if diss.get("success"):
        return RegimeVerdict(
            verdict="GlobalBounded", rule="dissipative-balance",
            certificate={k: v for k, v in diss.items() if k != "success"},
            e0=e0,
        )

    blow = blowup_scan()
    if blow is None:
        return RegimeVerdict(verdict="Indeterminate", rule="none", e0=e0,
                             certificate={"alphas_scanned": alphas},
                             notes="no sufficient condition applies")
    # the scan keeps candidates with a margin: fired, or below the threshold
    if blow.pop("fired"):
        rule = "quadratic-gap-blowup" if blow["route"] == "quadratic-gap" else "sign-pair-blowup"
        if blow["poly_case"]:
            rule += f"-case-{blow['poly_case']}"
        verdict, notes = "BlowUpPredicted", ""
    else:
        verdict, rule = "Indeterminate", "threshold-not-met"
        notes = "blow-up inequality certified but the datum is below threshold"
    return RegimeVerdict(
        verdict=verdict, rule=rule, certificate=blow,
        threshold_value=blow["alpha"] * e0 + blow["D2"], lhs_value=blow["D1"] * u0_norm2,
        e0=e0, notes=notes,
    )


# -------------------------------------------------------------------- replay
def replay_certificate(verdict: RegimeVerdict, f: Nonlinearity, h: Nonlinearity,
                       constants: ConstantsReport, n_samples: int = 10_000,
                       seed: int = 0) -> float:
    """Re-evaluate the emitted inequality at fresh tau samples in [-1e3, 1e3];
    returns the maximum relative violation (0 when it replays cleanly)."""
    rng = np.random.default_rng(seed)
    taus = rng.uniform(-1e3, 1e3, size=n_samples)
    cert = verdict.certificate
    rho = constants.rho

    def rel(excess: np.ndarray, scale: np.ndarray) -> float:
        return float(np.max(np.maximum(excess, 0.0) / scale))

    if verdict.rule == "bulk-sink-dominates":
        # tail-sign rule: check the defining limits rather than an inequality
        q, c_f = f.growth
        p, c_h = h.growth
        ok = (c_f > 0) and (c_h > 0) and (q > 2 * p)
        return 0.0 if ok else math.inf
    if verdict.rule == "quadratic-growth-envelope":
        sq = taus * taus + 1.0
        exc_f = -f.times_tau()(taus) - cert["c_f_envelope"] * sq
        exc_h = h.times_tau()(taus) - cert["c_h_envelope"] * sq
        return rel(np.maximum(exc_f, exc_h), sq)
    if verdict.rule == "balance-certified":
        worst = 0.0
        sel = taus[np.abs(taus) >= cert["tau0"]]
        for m in cert["m_grid"]:
            lhs = _balance_lhs(f, h, rho, cert["c_star"], cert["eps"], m)
            bound = cert["balance_c"] * m ** cert["balance_lambda"] \
                * (np.abs(sel) ** (m + 1.0) + 1.0)
            worst = max(worst, rel(lhs(sel) - bound, bound))
        return worst
    if verdict.rule == "dissipative-balance":
        lhs = _balance_lhs(f, h, rho, constants.c_star, cert["eps"], 1)
        bound = cert["lambda_star"] * taus * taus + cert["c_fh"]
        return rel(lhs(taus) - bound, np.abs(bound) + 1.0)
    if verdict.rule.startswith(("quadratic-gap-blowup", "sign-pair-blowup")) \
            or verdict.rule == "threshold-not-met":
        g, l = alpha_defects(f, h, cert["alpha"])
        if cert["route"] == "quadratic-gap":
            lhs = _quadratic_gap_lhs(g, l, rho, cert["c_star"], cert["eps"])
            bound = cert["C1"] * taus * taus - cert["C2"]
            return rel(bound - lhs(taus), np.abs(bound) + 1.0)
        exc1 = cert["C_f"] * taus * taus - cert["C_f_prime"] - g(taus)
        exc2 = l(taus) - (-cert["C_h"] * taus * taus + cert["C_h_prime"])
        scale = taus * taus + 1.0
        return rel(np.maximum(exc1, exc2), scale)
    raise ValueError(f"no replayable certificate for rule {verdict.rule!r}")


# -------------------------------------------------------------- serialization
def verdict_fields(v: RegimeVerdict) -> dict:
    """The key=value entries of verdict.txt; numbers and certificate values
    as repr text, so that strings stay quoted."""
    fields = {"verdict": v.verdict, "rule": v.rule,
              "threshold_value": repr(v.threshold_value),
              "lhs_value": repr(v.lhs_value), "e0": repr(v.e0),
              "conflict": int(v.conflict), "notes": v.notes}
    fields.update((f"cert.{key}", repr(v.certificate[key]))
                  for key in sorted(v.certificate))
    return fields


def save_verdict(v: RegimeVerdict, path) -> None:
    write_fields(path, verdict_fields(v))
