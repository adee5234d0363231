"""Benchmark of the transmission toolkit: one run of one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from anywhere; it benchmarks the checkout that holds this file, importing
`transmission` from its `src/`. A run first times three set-up-only probes,
then makes passes until `--seconds` have gone by. Each pass is a fresh child
process (`child.py`) that calls `transmission.cli.main` on the workload's
config in its own temporary directory, with the BLAS thread count pinned.
Every pass's outputs are checked against the workload's reference
(`workloads.py`); a pass fails if it exits with another code than expected,
if a check fails, or if it touches the checkout's tracked `out/run.log`.

With `--trace 0` the passes are untraced and the last line of stdout is a
JSON object carrying the end-to-end metrics of BENCHMARK.json:

- `wall_s`: the mean wall time of the untraced passes' `cli.main` call,
  rescaled to the reference machine speed (`calibrate.py`): their summed
  time, times `calibrate.REFERENCE_S`, over the sum of the means of the
  calibration kernel's times right before and right after each pass's
  process. The kernel brackets a pass only at its ends, so the speed is
  averaged over the run rather than taken pass by pass. On a shared 2-core
  VM the raw time drifted by more than a third over minutes, as other
  tenants came and went: over ten seeds, the fastest raw pass of a run
  spread (interquartile range over median) by up to 43 % on
  simulate-bounded. The quartiles of the passes rescaled one by one, the
  raw fastest, median and quartiles, and the machine speed, are printed and
  recorded with it.
- `setup_s`: the median over the probes and passes of the time to import
  `transmission`, parse the config and run `cli.build_problem`, each rescaled
  by the kernel's time right before its process. Raw, the median of a run
  spread 12-38 % across seeds. The raw fastest and median are printed.
- `peak_rss_mb`: median peak resident memory of a pass's process.
- `pass_ratio`: operations (probes and passes) that passed, over those
  attempted; 1 - fail_ratio, which is printed. It is never 0, as a metric
  must be, while the program works.

With `--trace 1` untraced and traced passes alternate, and it carries the
per-layer metrics of the traced ones (`tracing.py`), plus the tracing
overhead: `wall_s` of the traced passes minus that of the untraced. The
full record of the run, with the environment and, when traced, every span,
is written to `perfbench/results/<workload>-seed<n>-trace<t>.json`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

import calibrate
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

# With two BLAS threads (the machine's nproc) the pass-to-pass spread of a
# prototype run was 25-40 %; with one it was 3-20 %.
BLAS_THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_PROBES = 3
# a run must end within 180 s: no pass may run past this
DEADLINE_S = 170.0


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _child_env() -> dict[str, str]:
    # the CLI reads config overrides from TRANSMISSION_SECTION__KEY variables
    env = {k: v for k, v in os.environ.items() if not k.startswith("TRANSMISSION_")}
    env.update({var: str(BLAS_THREADS) for var in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _log_stamp():
    try:
        st = (ROOT / "out" / "run.log").stat()
    except FileNotFoundError:
        return None
    return st.st_mtime_ns, st.st_size


def run_pass(name: str, config: str, reference: dict, timeout: float,
             trace: bool = False, setup_only: bool = False) -> dict:
    """One child process in a fresh temporary directory; returns its record
    with the list of problems found ('problems' empty when it passed)."""
    RESULTS.mkdir(exist_ok=True)
    stamp = _log_stamp()
    # the kernel runs here, not in the child, so that it leaves nothing in
    # the child's memory
    cal_before = calibrate.kernel()
    with tempfile.TemporaryDirectory(dir=RESULTS, prefix="pass-") as tmp:
        tmp = Path(tmp)
        (tmp / "config.ini").write_text(config)
        cmd = [sys.executable, str(HERE / "child.py"), "config.ini", "out",
               workloads.mode(name), "result.json"]
        cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
        problems = []
        with open(tmp / "stdout.txt", "w") as fh:
            try:
                code = subprocess.run(cmd, cwd=tmp, env=_child_env(), stdout=fh,
                                      stderr=subprocess.STDOUT,
                                      timeout=max(timeout, 1.0)).returncode
            except subprocess.TimeoutExpired:
                code = None
                problems.append(f"killed after {timeout:.0f} s")
        cal_after = None if setup_only else calibrate.kernel()
        stdout = (tmp / "stdout.txt").read_text()
        try:
            rec = json.loads((tmp / "result.json").read_text())
        except (FileNotFoundError, ValueError):   # the child died before writing it
            rec = {}
        if code is not None and code != workloads.EXPECTED_EXIT:
            tail = " | ".join(stdout.strip().splitlines()[-3:])
            problems.append(f"exit code {code}, expected "
                            f"{workloads.EXPECTED_EXIT}: {tail}")
        if code is not None and not rec:
            problems.append("no result written")
        if rec and not Path(rec["module"]).is_relative_to(ROOT / "src"):
            problems.append(f"imported transmission from {rec['module']}")
        if rec and not setup_only and code == workloads.EXPECTED_EXIT:
            problems += workloads.check(name, tmp / "out", stdout, reference)
        if "spans" in rec:
            problem = tracing.self_time_problem(rec["spans"], rec["wall_s"])
            problems += [problem] if problem else []
        if _log_stamp() != stamp:
            problems.append("the checkout's out/run.log changed")
    rec.update(problems=problems, traced=trace, setup_only=setup_only,
               cal_before_s=cal_before, cal_after_s=cal_after)
    return rec


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _rescale(op: dict) -> None:
    """Add the op's times rescaled to the reference machine speed, by the
    calibration kernel's times next to them."""
    if "setup_s" in op:
        op["setup_rescaled_s"] = op["setup_s"] * calibrate.REFERENCE_S / op["cal_before_s"]
    if "wall_s" in op:
        op["cal_s"] = (op["cal_before_s"] + op["cal_after_s"]) / 2.0
        op["wall_rescaled_s"] = op["wall_s"] * calibrate.REFERENCE_S / op["cal_s"]


def _rescaled_mean(passes: list[dict]) -> float:
    return calibrate.REFERENCE_S * (sum(p["wall_s"] for p in passes)
                                    / sum(p["cal_s"] for p in passes))


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 size: str = "full", reference: dict | None = None) -> dict:
    """Probe set-up, make passes for `seconds`, check and aggregate them."""
    if reference is None:
        reference = workloads.REFERENCE[size][name]
    config = workloads.config_text(name, seed, size)
    start = time.perf_counter()

    def remaining() -> float:
        return DEADLINE_S - (time.perf_counter() - start)

    probes = [run_pass(name, config, reference, remaining(), setup_only=True)
              for _ in range(SETUP_PROBES)]
    passes: list[dict] = []
    # a traced run needs at least one untraced and one traced pass
    min_passes = 2 if trace else 1
    while remaining() > 0 and (len(passes) < min_passes
                               or time.perf_counter() - start < seconds):
        passes.append(run_pass(name, config, reference, remaining(),
                               trace=trace and len(passes) % 2 == 1))

    ops = probes + passes
    failed = sum(1 for op in ops if op["problems"])
    for op in ops:
        _rescale(op)
    done = [p for p in passes if "wall_s" in p]
    untraced = [p for p in done if not p["traced"]]
    traced = [p for p in done if "spans" in p]
    if not untraced or (trace and not traced):
        raise RuntimeError(f"no pass of {name} completed: "
                           + "; ".join(p for op in ops for p in op["problems"]))
    walls = [p["wall_rescaled_s"] for p in untraced]
    raw = [p["wall_s"] for p in untraced]
    setups = [op["setup_rescaled_s"] for op in ops if "setup_rescaled_s" in op]
    raw_setups = [op["setup_s"] for op in ops if "setup_rescaled_s" in op]
    q1, q3 = _quartiles(walls)
    raw_q1, raw_q3 = _quartiles(raw)
    summary = {
        "wall_s": _rescaled_mean(untraced), "wall_q1_s": q1, "wall_q3_s": q3,
        "passes": len(untraced),
        "wall_raw_min_s": min(raw), "wall_raw_median_s": statistics.median(raw),
        "wall_raw_q1_s": raw_q1, "wall_raw_q3_s": raw_q3,
        "setup_s": statistics.median(setups),
        "setup_raw_min_s": min(raw_setups),
        "setup_raw_median_s": statistics.median(raw_setups),
        "speed": calibrate.REFERENCE_S / statistics.median(
            op["cal_before_s"] for op in ops),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in untraced),
        "fail_ratio": failed / len(ops),
    }
    spec = load_spec()
    if trace:
        values = tracing.median_metrics(
            [tracing.layer_metrics(p["spans"]) for p in traced])
        values["trace_overhead_s"] = _rescaled_mean(traced) - summary["wall_s"]
        wanted = spec["per_layer"]
    else:
        values = dict(summary, pass_ratio=1.0 - summary["fail_ratio"])
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    spans = [[i, *span] for i, p in enumerate(passes) for span in p.pop("spans", [])]
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "size": size, "config": config, "environment": environment(seed),
        "summary": summary,
        "failures": [{"op": i, "setup_only": op["setup_only"],
                      "problems": op["problems"]}
                     for i, op in enumerate(ops) if op["problems"]],
        "probes": probes, "passes": passes,
        "result": {"correct": failed == 0, "attempted": len(ops),
                   "failed": failed, "metrics": metrics},
        "spans_columns": ["pass", "name", "start", "end", "parent", "attrs"],
        "spans": spans,
    }


def environment(seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "transmission").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "commit": commit, "source_sha256": digest.hexdigest(),
        "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy"),
        "python": sys.version.split()[0], "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS, "seed": seed,
    }


def report_lines(record: dict) -> list[str]:
    s, res = record["summary"], record["result"]
    lines = [f"{record['workload']} seed={record['seed']} trace={record['trace']}: "
             f"{len(record['passes'])} passes, {len(record['probes'])} set-up probes, "
             f"{BLAS_THREADS} BLAS thread(s)"]
    lines += [f"FAILED op {f['op']}: {p}" for f in record["failures"]
              for p in f["problems"]]
    lines += [
        f"machine speed {s['speed']:.3f} of the reference (calibration kernel)",
        f"wall_s {s['wall_s']:.4f} s (rescaled mean of {s['passes']} untraced "
        f"passes; q1 {s['wall_q1_s']:.4f}, q3 {s['wall_q3_s']:.4f}; raw fastest "
        f"{s['wall_raw_min_s']:.4f}, median {s['wall_raw_median_s']:.4f}, "
        f"q1 {s['wall_raw_q1_s']:.4f}, q3 {s['wall_raw_q3_s']:.4f})",
        f"setup_s {s['setup_s']:.4f} s (median of {len(record['probes'])} probes "
        f"and the passes, rescaled; raw fastest {s['setup_raw_min_s']:.4f}, "
        f"median {s['setup_raw_median_s']:.4f})",
        f"peak_rss_mb {s['peak_rss_mb']:.1f} MiB (median)",
        f"fail_ratio {s['fail_ratio']:.4f} ({res['failed']}/{res['attempted']})",
    ]
    if record["trace"]:
        lines += [f"{k} {v['value']:.6g} {v['unit']}"
                  for k, v in res["metrics"].items()]
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for need in (ROOT / "BENCHMARK.json", ROOT / "src" / "transmission" / "cli.py"):
        if not need.is_file():
            print(f"missing {need}: run in a checkout of the repository",
                  file=sys.stderr)
            return 2
    try:
        record = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record))
    print("\n".join(report_lines(record)))
    print(f"record: {out.relative_to(ROOT)}")
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
