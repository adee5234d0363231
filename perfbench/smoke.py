"""Smoke test of the benchmark itself, about a minute:

    python3 perfbench/smoke.py

Runs every workload once at a tiny mesh, untraced and traced, and checks that
every metric of BENCHMARK.json is reported with its unit and that no pass
fails; then runs each once more against a deliberately wrong reference and
checks that the pass is counted as failed. Exits 1 on the first failure.
"""

from __future__ import annotations

import copy
import sys

import run
import tracing
import workloads


def _wrong_reference(name: str) -> dict:
    ref = copy.deepcopy(workloads.REFERENCE["tiny"][name])
    if name == "simulate-bounded":
        ref["outcome"] = "OUTCOME,BlowUp,20.0"
    elif name == "sweep-koch":
        key = min(ref["cells"])
        ref["cells"][key] = "GlobalBounded,none"
    else:
        ref["poincare_l2"] *= 2.0
    return ref


def _expect(ok: bool, message: str) -> None:
    if not ok:
        print(f"FAIL: {message}")
        sys.exit(1)


def main() -> int:
    spec = run.load_spec()
    _expect([w["name"] for w in spec["workloads"]] == list(workloads.NAMES),
             "BENCHMARK.json workloads differ from workloads.NAMES")
    _expect([m["name"] for m in spec["per_layer"]] == list(tracing.MOVES),
            "per-layer metrics of BENCHMARK.json differ from tracing.MOVES")
    for name in workloads.NAMES:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result = run.run_workload(name, 0, 0, trace, size="tiny")["result"]
            label = f"{name} trace={int(trace)}"
            _expect(result["correct"] and result["failed"] == 0,
                    f"{label}: {result['failed']} failed")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v.get("unit") for k, v in result["metrics"].items()}
            _expect(got == want, f"{label}: metrics {got} != {want}")
            _expect(all(isinstance(v["value"], (int, float))
                        for v in result["metrics"].values()),
                    f"{label}: a metric value is not a number")
            print(f"ok {label}: {result['attempted']} ops, {len(want)} metrics")
        record = run.run_workload(name, 0, 0, False, size="tiny",
                                  reference=_wrong_reference(name))
        _expect(record["summary"]["fail_ratio"] > 0 and not record["result"]["correct"],
                f"{name}: a wrong reference was not detected")
        print(f"ok {name} wrong reference: fail_ratio "
              f"{record['summary']['fail_ratio']:.2f}, "
              f"{record['failures'][0]['problems'][0]}")
    print("smoke ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
