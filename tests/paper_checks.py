"""Reference checks of the paper's properties that the tests hold the library
to: the mild (variation-of-constants) form, the semigroup law, the Markov
property, the absorbing ball and Ahlfors regularity of the interface measure.
"""

import numpy as np

from transmission.assembly import DiscreteOperator
from transmission.constants import ConstantsReport
from transmission.diagnostics import fit_exponential_decay
from transmission.dynamics import Trajectory, _imex_solver, imex_step, nonlinear_drift
from transmission.geometry import InterfaceMeasure
from transmission.operators import SpectralData, fit_line
from transmission.poly import Nonlinearity


def local_slope_bound(nl: Nonlinearity, radius: float) -> float:
    """Upper bound on |f'| over [-radius, radius]: term-wise triangle
    inequality, so sign cancellations between terms are ignored."""
    r = abs(radius)
    return float(sum(abs(c) * (e + 1.0) * r ** e
                     for (e, b), c in nl.terms.items() if b))


def semigroup_apply(spec: SpectralData, t: float, F: np.ndarray) -> np.ndarray:
    """Propagator exp(-t M^-1 A) applied to F through the eigenexpansion."""
    if t < 0:
        raise ValueError("time must be nonnegative")
    coeff = spec.eigenvectors.T @ (spec.mass_diag * F)
    return spec.eigenvectors @ (np.exp(-spec.eigenvalues * t) * coeff)


def smoothing_exponent(dim_d: float, ambient_dim: int = 2) -> float:
    """Exponent gamma = 2d / (d - N + 2) governing the 2->inf smoothing rate
    t^(-gamma/4)."""
    return 2.0 * dim_d / (dim_d - ambient_dim + 2.0)


def markov_check(op: DiscreteOperator, trials: int, t_grid: np.ndarray,
                 seed: int = 0) -> dict:
    """Positivity and sup-norm contraction of backward-Euler steps.

    Runs random nonnegative initial vectors through the implicit steps
    (M + dt A) u+ = M u along t_grid and reports the minimum entry ever seen
    and the largest per-step sup-norm ratio.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if len(t_grid) < 1 or (np.diff(t_grid) <= 0).any():
        raise ValueError("t_grid must be strictly increasing")
    dts = np.diff(np.concatenate([[0.0], t_grid]))
    # the steps of a uniform grid differ in their last bits: rounded to 12
    # significant digits they share one factorization
    dts = [float(f"{dt:.12g}") for dt in dts]
    rng = np.random.default_rng(seed)
    m = op.mass_diag
    min_entry = np.inf
    sup_ratio = 0.0
    for _ in range(trials):
        u = np.abs(rng.standard_normal(op.n_free))
        for dt in dts:
            unew = _imex_solver(op, dt).solve(m * u)
            min_entry = min(min_entry, float(unew.min()))
            denom = np.abs(u).max()
            if denom > 0:
                sup_ratio = max(sup_ratio, float(np.abs(unew).max() / denom))
            u = unew
    return {"min_entry": min_entry, "sup_ratio": sup_ratio}


def picard_mild(op: DiscreteOperator, spec: SpectralData, U0: np.ndarray,
                f: Nonlinearity, h: Nonlinearity, T_star: float,
                n_grid: int = 64, n_iter: int = 8) -> dict:
    """Fixed-point iteration on the variation-of-constants form.

    Evaluates V -> exp(-tA)U0 - int_0^t exp(-(t-s)A) N(V(s)) ds on a uniform
    grid with trapezoidal quadrature and full eigenexpansion propagators.
    Returns the iterates, the successive sup-norm contraction ratios, and the
    local slope bound used for the contraction budget T* Q.
    """
    if spec.count != op.n_free:
        raise ValueError("picard iteration needs the full eigendecomposition")
    U0 = np.asarray(U0, dtype=float)
    times = np.linspace(0.0, T_star, n_grid + 1)
    ds = times[1] - times[0]
    lam, V = spec.eigenvalues, spec.eigenvectors
    m = spec.mass_diag
    r_star = 2.0 * float(np.abs(U0).max())
    q_modulus = max(local_slope_bound(f, r_star), local_slope_bound(h, r_star))

    free_term = np.array([semigroup_apply(spec, t, U0) for t in times])

    def apply_map(traj: np.ndarray) -> np.ndarray:
        # coefficients of N(V(s_k)) in the eigenbasis
        drift = np.array([nonlinear_drift(op, traj[k], f, h) for k in range(len(times))])
        coef = drift @ (m[:, None] * V)          # (n_grid+1, K)
        out = free_term.copy()
        for j in range(1, len(times)):
            wts = np.full(j + 1, ds)
            wts[0] = wts[-1] = 0.5 * ds
            decay = np.exp(-np.outer(times[j] - times[: j + 1], lam))
            out[j] -= V @ (wts @ (decay * coef[: j + 1]))
        return out

    iterates = [np.tile(U0, (len(times), 1))]
    ratios: list[float] = []
    diverged = False
    prev_diff = None
    for _ in range(n_iter):
        nxt = apply_map(iterates[-1])
        if np.abs(nxt).max() > 10.0 * max(r_star, 1e-300):
            diverged = True
            break
        diff = float(np.abs(nxt - iterates[-1]).max())
        if prev_diff is not None and prev_diff > 0:
            ratios.append(diff / prev_diff)
        prev_diff = diff
        iterates.append(nxt)
        if diff == 0.0:
            break
    return {
        "times": times,
        "iterates": iterates,
        "ratios": ratios,
        "q_modulus": q_modulus,
        "r_star": r_star,
        "contraction_budget": T_star * q_modulus,
        "diverged": diverged,
    }


def fixed_step_evolve(op: DiscreteOperator, U0: np.ndarray, f: Nonlinearity,
                      h: Nonlinearity, T: float, dt: float) -> np.ndarray:
    """Fixed-dt marching; deterministic replay building block.

    When T is a multiple of dt the march is exactly round(T/dt) equal steps
    (bitwise reproducible); otherwise a final partial step covers the
    remainder.
    """
    n_steps = int(round(T / dt))
    if abs(n_steps * dt - T) > 1e-9 * max(T, dt):
        n_steps = int(T / dt)
    U = np.asarray(U0, dtype=float).copy()
    for _ in range(n_steps):
        U = imex_step(op, U, dt, f, h)
    rest = T - n_steps * dt
    if rest > 1e-12 * max(T, dt):
        U = imex_step(op, U, rest, f, h)
    return U


def semigroup_property_check(op: DiscreteOperator, U0: np.ndarray,
                             f: Nonlinearity, h: Nonlinearity,
                             t: float, s: float, method: str = "imex",
                             dt: float = 1e-2,
                             spec: SpectralData | None = None) -> float:
    """Defect || S(t+s)U0 - S(t)S(s)U0 || in the pair norm.

    'linear' evaluates the propagator by eigenexpansion (f, h ignored);
    'imex' replays fixed-dt marching, so the defect vanishes exactly when
    both t and s are multiples of dt.
    """
    if method == "linear":
        if spec is None:
            raise ValueError("linear path needs the spectral data")
        once = semigroup_apply(spec, t + s, U0)
        twice = semigroup_apply(spec, t, semigroup_apply(spec, s, U0))
    elif method == "imex":
        once = fixed_step_evolve(op, U0, f, h, t + s, dt) if t + s > 0 else np.array(U0, dtype=float)
        mid = fixed_step_evolve(op, U0, f, h, s, dt) if s > 0 else np.array(U0, dtype=float)
        twice = fixed_step_evolve(op, mid, f, h, t, dt) if t > 0 else mid
    else:
        raise ValueError(f"unknown method {method!r}")
    return op.pair_norm(once - twice)


def semigroup_defect_fit(op: DiscreteOperator, U0: np.ndarray,
                         f: Nonlinearity, h: Nonlinearity,
                         t: float, s: float, dts: tuple[float, ...]) -> dict:
    """Replay defects across step sizes with a fitted linear law C * dt.

    Misaligned split times make the one-shot and composed marches disagree
    by the local truncation error, which is first order in dt.
    """
    defects = np.array([
        semigroup_property_check(op, U0, f, h, t, s, method="imex", dt=dt)
        for dt in dts
    ])
    dts_arr = np.array(dts, dtype=float)
    c_fit = float(np.sum(defects * dts_arr) / np.sum(dts_arr * dts_arr))
    order = fit_line(np.log(dts_arr), np.log(np.maximum(defects, 1e-300)))[0] \
        if (defects > 0).all() else np.inf
    return {"dts": dts_arr, "defects": defects, "c_fit": c_fit, "order": order}


def absorbing_ball_check(trajectories: list[Trajectory], op: DiscreteOperator,
                         constants: ConstantsReport, lambda_star: float,
                         verdict: str | None = None) -> dict:
    """Ensemble fit of E1(t) <= E1(0) exp(-eta t) + C.

    Returns the fitted decay rate (the slowest member), the fitted offset,
    the terminal E1 values, and whether they agree: either within 10 percent
    of each other or all inside 10 percent of the smallest initial energy
    (every member entered a common small ball).  Pass the classifier verdict
    to refuse non-dissipative configurations up front.
    """
    if verdict is not None and verdict != "GlobalBounded":
        raise ValueError(f"absorbing-ball fit refuses verdict {verdict!r}")
    if any(tr.outcome != "completed" for tr in trajectories):
        raise ValueError("absorbing-ball fit needs completed trajectories")
    if len(trajectories) < 3:
        raise ValueError("need at least 3 initial magnitudes")
    e1s = [np.array([op.pair_norm2(u) for u in tr.states]) for tr in trajectories]
    terminals = np.array([e[-1] for e in e1s])
    initials = np.array([e[0] for e in e1s])
    c_fit = float(np.median(terminals))
    rates, envelope_ok = [], True
    for tr, e1 in zip(trajectories, e1s):
        if e1[0] <= 10.0 * max(c_fit, 1e-300):
            continue
        # tail window: past the transient, above the floor noise
        fit = fit_exponential_decay(tr.times, e1, floor=c_fit,
                                    hi_frac=1e-2, lo_frac=1e-10)
        rates.append(fit["rate"])
        bound = e1[0] * np.exp(-fit["rate"] * tr.times) + c_fit
        envelope_ok &= bool((e1 <= 1.05 * bound + 1e-12 * e1[0]).all())
    eta_fit = float(min(rates)) if rates else np.inf
    spread = float(terminals.max() - terminals.min())
    rel_ok = terminals.max() <= 1.1 * max(terminals.min(), 1e-300)
    ball_ok = terminals.max() <= 0.1 * initials.min()
    threshold = 2.0 * (constants.c_bar - lambda_star)
    return {
        "eta_fit": eta_fit,
        "c_fit": c_fit,
        "eta_threshold": threshold,
        "envelope_holds": envelope_ok,
        "terminals": terminals,
        "terminal_agreement": bool(rel_ok or ball_ok),
        "terminal_spread": spread,
    }


def load_constants(path) -> ConstantsReport:
    raw: dict[str, float] = {}
    zetas: list[tuple[float, float]] = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            key, val = line.split("=", 1)
            if key.startswith("zeta["):
                zetas.append((float(key[5:-1]), float(val)))
            else:
                raw[key] = float(val)
    return ConstantsReport(
        poincare_l2=raw["poincare_l2"],
        poincare_l1_lower=raw["poincare_l1_lower"],
        c_bar=raw["c_bar"],
        c_bar_eps=raw["c_bar_eps"],
        zeta_table=zetas,
        safety_factor=raw["safety_factor"],
        total_mass=raw["total_mass"],
        domain_area=raw["domain_area"],
    )


def _ball_polyline_mass(measure: InterfaceMeasure, center: np.ndarray,
                        r: float) -> float:
    """Mass of the interface inside the closed ball B(center, r), computed
    from exact chord overlaps with each polyline edge (mass uniform per edge)."""
    a = measure.node_positions[:-1]
    b = measure.node_positions[1:]
    d = b - a
    L2 = np.einsum("ij,ij->i", d, d)
    # parameter interval of |a + t d - c| <= r, clipped to [0, 1]
    f = a - center
    B = np.einsum("ij,ij->i", f, d)
    C = np.einsum("ij,ij->i", f, f) - r * r
    disc = B * B - L2 * C
    ok = disc > 0.0
    sq = np.sqrt(np.maximum(disc, 0.0))
    t0 = np.clip((-B - sq) / L2, 0.0, 1.0)
    t1 = np.clip((-B + sq) / L2, 0.0, 1.0)
    overlap = np.where(ok, t1 - t0, 0.0)
    return float(np.sum(overlap * measure.segment_mass))


def ahlfors_upper_check(measure: InterfaceMeasure, n_samples: int,
                        radii: list[float], seed: int = 0) -> float:
    """Empirical upper-regularity diagnostic: the maximum of
    mass(B(x, r)) / r^d over sampled interface centers x and the given radii.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    radii = list(radii)
    if not radii:
        return 0.0
    if any(r <= 0.0 or r > 1.0 for r in radii):
        raise ValueError("radii must lie in (0, 1]")
    rng = np.random.default_rng(seed)
    k = len(measure.node_positions)
    idx = rng.choice(k, size=min(n_samples, k), replace=False)
    worst = 0.0
    for i in idx:
        c = measure.node_positions[i]
        for r in radii:
            ratio = _ball_polyline_mass(measure, c, r) / r ** measure.dim_d
            worst = max(worst, ratio)
    return worst
