"""Traced passes: spans around the public functions of every module of
`transmission`, recorded from outside the package.

`install` wraps each public function in the module that defines it and
rebinds the wrapper under every name a module of the package holds it by
(`cli.integrate`, `constants.spectrum`, `constants.lowest_pairs`, entries of
`cli._RUNNERS`, ...), so calls through any import are seen. Two calls into
scipy are wrapped at the boundary where the package makes them:
`regimes.minimize_scalar` and the `splu` factorisations of `dynamics`.
Untraced passes never import this module, so they run without wrappers.

A span is `[name, start, end, parent, attrs]`: `parent` is the index of the
enclosing span (None for the root `cli.main`), `attrs` holds the few values
read from arguments or results that the per-layer metrics need. The layer of
a span is the first component of its name.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import time

MODULES = ("cli", "config", "geometry", "assembly", "operators", "constants",
           "dynamics", "diagnostics", "regimes")

# Expected effect of each per-layer metric: the end-to-end metric it should
# move, and on which workloads. A later performance change names its claim
# by one of these pairs.
MOVES = {
    "config.parse_config.s": "setup_s, all workloads",
    "geometry.build_square_mesh.s": "setup_s, mostly sweep-koch",
    "geometry.build_interface_measure.s": "setup_s, mostly sweep-koch",
    "geometry.export_s": "wall_s on simulate-bounded",
    "assembly.build_operator.s": "setup_s, all workloads",
    "operators.lowest_pairs.calls": "wall_s on constants-fine, then sweep-koch",
    "operators.lowest_pairs.s": "wall_s on constants-fine, then sweep-koch",
    "operators.spectrum.calls": "wall_s on constants-fine, then sweep-koch",
    "operators.dense_bytes": "peak_rss_mb on constants-fine",
    "constants.poincare_l2.s": "wall_s on constants-fine, then sweep-koch",
    "constants.poincare_l1.s": "wall_s on constants-fine, then sweep-koch",
    "constants.best_embedding_constant.s": "wall_s on constants-fine, then sweep-koch",
    "constants.interpolation_zeta.s": "wall_s on constants-fine, then sweep-koch",
    "constants.compute_constants_report.s": "wall_s on constants-fine, then sweep-koch",
    "dynamics.integrate.s": "wall_s on simulate-bounded and sweep-koch",
    "dynamics.steps_attempted": "wall_s on simulate-bounded and sweep-koch",
    "dynamics.steps_accepted": "wall_s on simulate-bounded and sweep-koch",
    "dynamics.accept_ratio": "wall_s on simulate-bounded and sweep-koch",
    "dynamics.factorizations": "wall_s on sweep-koch, then simulate-bounded",
    "dynamics.factorize.s": "wall_s on sweep-koch, then simulate-bounded",
    "dynamics.states_bytes": "peak_rss_mb on simulate-bounded",
    "diagnostics.compute_energy_report.calls": "wall_s on simulate-bounded",
    "diagnostics.compute_energy_report.s": "wall_s on simulate-bounded",
    "diagnostics.export_trajectory_csv.s": "wall_s on simulate-bounded",
    "diagnostics.fit_summaries.s": "wall_s on simulate-bounded",
    "regimes.classify.calls": "wall_s on sweep-koch",
    "regimes.classify.s": "wall_s on sweep-koch",
    "regimes.check_global.s": "wall_s on sweep-koch",
    "regimes.check_dissipative.s": "wall_s on sweep-koch",
    "regimes.check_blowup.calls": "wall_s on sweep-koch",
    "regimes.check_blowup.s": "wall_s on sweep-koch",
    "regimes.minimize_scalar.calls": "wall_s on sweep-koch",
    **{f"{layer}.self_s": "wall_s on the workloads where the layer runs"
       for layer in MODULES},
    "trace_overhead_s": "none: the cost of tracing itself",
}

# the self times of a traced pass must add up to its wall time, timed
# outside the root span, within this share of it plus this many seconds
SELF_TIME_REL_TOL = 0.01
SELF_TIME_ABS_TOL = 0.005


def _integrate_attrs(args, result):
    states = result.states
    return {"accepted": len(result.times) - 1,
            "states_bytes": len(states) * states[0].nbytes}


# span attributes read from the bound arguments and the result
_ATTRS = {
    "operators.lowest_pairs": lambda args, result: {"n": args["a_csr"].shape[0]},
    "constants.poincare_mean_sigma": lambda args, result: {"mode": args["mode"]},
    "dynamics.integrate": _integrate_attrs,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        spans, open_ = self.spans, self._open
        attrs = _ATTRS.get(name)
        sig = inspect.signature(fn) if attrs else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, open_[-1] if open_ else None, None]
            open_.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                open_.pop()
            if attrs:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                rec[4] = attrs(bound.arguments, result)
            return result

        return traced


class _ModuleView:
    """A module with some attributes replaced, for one importer only."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


def install(tracer: Tracer) -> None:
    mods = {m: importlib.import_module(f"transmission.{m}") for m in MODULES}
    wrappers = {}
    for short, mod in mods.items():
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not attr.startswith("_")):
                wrappers[obj] = tracer.wrap(f"{short}.{attr}", obj)
    cli = mods["cli"]
    wrappers[cli._write_fit_summaries] = tracer.wrap(
        "diagnostics.fit_summaries", cli._write_fit_summaries)
    for mod in mods.values():
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(mod, attr, wrappers[obj])
            elif isinstance(obj, dict):   # dispatch tables such as cli._RUNNERS
                for key, value in obj.items():
                    if inspect.isfunction(value) and value in wrappers:
                        obj[key] = wrappers[value]
    regimes, dynamics = mods["regimes"], mods["dynamics"]
    regimes.minimize_scalar = tracer.wrap("regimes.minimize_scalar",
                                          regimes.minimize_scalar)
    dynamics.spla = _ModuleView(
        dynamics.spla, splu=tracer.wrap("dynamics.splu", dynamics.spla.splu))


def self_times(spans: list[list]) -> dict[str, float]:
    """Seconds per layer spent in its own spans, outside their child spans."""
    own = [end - start for _, start, end, _, _ in spans]
    for name, start, end, parent, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    out = {layer: 0.0 for layer in MODULES}
    for (name, *_), seconds in zip(spans, own):
        out[name.split(".", 1)[0]] += seconds
    return out


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    calls: dict[str, int] = {}
    secs: dict[str, float] = {}
    poincare = {"L2_eig": 0.0, "L1_empirical": 0.0}
    dense_bytes = accepted = states_bytes = 0
    for name, start, end, _, attrs in spans:
        calls[name] = calls.get(name, 0) + 1
        secs[name] = secs.get(name, 0.0) + (end - start)
        if name == "operators.lowest_pairs":
            # each solve densifies an n x n matrix and frees it on return:
            # the largest is what is held at once
            dense_bytes = max(dense_bytes, 8 * attrs["n"] ** 2)
        elif name == "constants.poincare_mean_sigma":
            poincare[attrs["mode"]] += end - start
        elif name == "dynamics.integrate":
            accepted += attrs["accepted"]
            # trajectories are dropped after each call: the largest is what
            # is held at once
            states_bytes = max(states_bytes, attrs["states_bytes"])
    attempted = calls.get("dynamics.imex_step", 0)
    out = {
        "geometry.export_s": secs.get("geometry.export_mesh_csv", 0.0)
        + secs.get("geometry.export_measure_csv", 0.0),
        "operators.dense_bytes": dense_bytes,
        "constants.poincare_l2.s": poincare["L2_eig"],
        "constants.poincare_l1.s": poincare["L1_empirical"],
        "dynamics.steps_attempted": attempted,
        "dynamics.steps_accepted": accepted,
        "dynamics.accept_ratio": accepted / attempted if attempted else 0.0,
        "dynamics.factorizations": calls.get("dynamics.splu", 0),
        "dynamics.factorize.s": secs.get("dynamics.splu", 0.0),
        "dynamics.states_bytes": states_bytes,
        **{f"{layer}.self_s": s for layer, s in self_times(spans).items()},
    }
    for metric in MOVES:
        base, _, kind = metric.rpartition(".")
        if metric not in out and kind in ("s", "calls"):
            out[metric] = (secs if kind == "s" else calls).get(base, 0)
    return out


def self_time_problem(spans: list[list], wall_s: float) -> str | None:
    total = sum(self_times(spans).values())
    if abs(total - wall_s) > SELF_TIME_REL_TOL * wall_s + SELF_TIME_ABS_TOL:
        return f"self times sum to {total!r} s, traced wall is {wall_s!r} s"
    return None


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
