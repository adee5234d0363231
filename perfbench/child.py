"""One benchmark pass in a fresh process: set up, then one `cli.main` call.

    python3 child.py <config> <out> <mode> <result.json> [--trace] [--setup-only]

Set-up is timed from the start of this script: importing `transmission`,
parsing the config and `cli.build_problem`. The pass then times the mode's
`cli.main` call, untraced or traced, and writes its timings, its peak
resident memory and, when traced, its spans to the result file. It exits with
the code `cli.main` returned.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("config")
    parser.add_argument("out")
    parser.add_argument("mode")
    parser.add_argument("result")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import transmission
    from transmission import cli
    from transmission.config import parse_config

    cli.build_problem(parse_config(args.config))
    result = {"setup_s": time.perf_counter() - START,
              "module": transmission.__file__}
    code = 0
    if not args.setup_only:
        tracer = None
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
            tracing.install(tracer)
        start = time.perf_counter()
        code = cli.main([args.mode, "--config", args.config, "--out", args.out])
        result["wall_s"] = time.perf_counter() - start
        if tracer is not None:
            result["spans"] = tracer.spans
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sys.stdout.flush()
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
