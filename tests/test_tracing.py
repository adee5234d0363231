"""The benchmark's tracer (perfbench/tracing.py) wraps functions of the
package by name: a renamed or removed hook point must fail here rather than
in a traced benchmark run."""

import contextlib
import importlib
import importlib.util
from pathlib import Path

import numpy as np


def _load_tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@contextlib.contextmanager
def _installed(tracing, tracer):
    """The tracer installed on the package for the duration of the block."""
    mods = [importlib.import_module(f"transmission.{m}") for m in tracing.MODULES]
    # install rebinds module attributes and dispatch-table entries: keep the
    # originals so that later tests run untraced
    saved = [(mod, {k: v for k, v in vars(mod).items() if not k.startswith("__")})
             for mod in mods]
    tables = [(d, dict(d)) for _, attrs in saved for d in attrs.values()
              if isinstance(d, dict)]
    try:
        tracing.install(tracer)
        yield
    finally:
        for mod, attrs in saved:
            for key, value in attrs.items():
                setattr(mod, key, value)
        for table, items in tables:
            table.clear()
            table.update(items)


def test_tracer_installs_on_every_hook_point():
    tracing = _load_tracing()
    wrapped = []

    class Recording(tracing.Tracer):
        def wrap(self, name, fn):
            wrapped.append(name)
            return super().wrap(name, fn)

    with _installed(tracing, Recording()):
        pass

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


def test_tracer_counts_one_factorization_per_step_size():
    from conftest import anisotropic_operator
    from paper_checks import markov_check

    from transmission import dynamics, poly

    tracing = _load_tracing()
    tracer = tracing.Tracer()
    # fresh, and factorized by SuperLU, whose factors the tracer counts
    op = anisotropic_operator(8)
    U0 = np.full(op.n_free, 0.5)
    ctrl = dynamics.StepControl(dt0=1e-3, dt_max=0.02)
    # the run starts on the rung 0.02 / 32 below dt0; the Markov grid shares
    # that step size with the run and adds the rung 0.005, which the run
    # does not reach by T = 0.05
    markov_dts = {0.000625, 0.005}
    with _installed(tracing, tracer):
        traj = dynamics.integrate(op, U0, poly.Nonlinearity.power(1.0, 2.0),
                                  poly.Nonlinearity.zero(), 0.05, ctrl)
        markov_check(op, trials=2, t_grid=np.cumsum([0.000625, 0.000625, 0.005]))

    metrics = tracing.layer_metrics(tracer.spans)
    # no step was rejected, so the accepted step sizes are all that were tried
    assert metrics["dynamics.steps_attempted"] == metrics["dynamics.steps_accepted"] > 0
    assert 0.000625 in traj.dts and 0.005 not in traj.dts
    assert metrics["dynamics.factorizations"] == len(set(traj.dts[1:]) | markov_dts)


def test_constants_report_traces_one_zeta_table():
    from conftest import default_operator

    from transmission import constants

    tracing = _load_tracing()
    tracer = tracing.Tracer()
    op = default_operator(8)
    with _installed(tracing, tracer):
        constants.compute_constants_report(op)

    names = [span[0] for span in tracer.spans]
    assert names.count("constants.compute_constants_report") == 1
    assert names.count("constants.interpolation_zeta") == 1
    assert tracing.layer_metrics(tracer.spans)["constants.interpolation_zeta.s"] > 0.0
