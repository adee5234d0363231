"""The benchmark's tracer (perfbench/tracing.py) wraps functions of the
package by name: a renamed or removed hook point must fail here rather than
in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path


def _load_tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_on_every_hook_point():
    tracing = _load_tracing()
    mods = [importlib.import_module(f"transmission.{m}") for m in tracing.MODULES]
    # install rebinds module attributes and dispatch-table entries: keep the
    # originals so that later tests run untraced
    saved = [(mod, {k: v for k, v in vars(mod).items() if not k.startswith("__")})
             for mod in mods]
    tables = [(d, dict(d)) for _, attrs in saved for d in attrs.values()
              if isinstance(d, dict)]
    wrapped = []

    class Recording(tracing.Tracer):
        def wrap(self, name, fn):
            wrapped.append(name)
            return super().wrap(name, fn)

    try:
        tracing.install(Recording())
    finally:
        for mod, attrs in saved:
            for key, value in attrs.items():
                setattr(mod, key, value)
        for table, items in tables:
            table.clear()
            table.update(items)

    # spans the per-layer metrics read: one per '<span>.s' / '<span>.calls'
    # metric, except those derived from other spans, plus the spans that
    # layer_metrics names itself
    derived = {"constants.poincare_l2", "constants.poincare_l1",
               "dynamics.factorize"}
    needed = {metric.rpartition(".")[0] for metric in tracing.MOVES
              if metric.rpartition(".")[2] in ("s", "calls")} - derived
    needed |= {"constants.poincare_mean_sigma", "dynamics.imex_step",
               "dynamics.splu", "geometry.export_mesh_csv",
               "geometry.export_measure_csv"}
    assert {"regimes.minimize_scalar", "regimes.check_blowup",
            "regimes.classify"} <= needed
    assert needed <= set(wrapped)
