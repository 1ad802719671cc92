"""One kgsig CLI invocation, timed, in a process of its own.

Usage: python3 child.py RESULT_JSON ITERATION TRACE -- [KGSIG_ARGS...]

The parent sets PYTHONPATH to the package sources and pins the BLAS thread
variables in the environment, so they hold before numpy loads. This file
writes RESULT_JSON with the exit code, `setup_s` (first statement until
numpy and kgsig.cli are imported), `wall_s` (time inside
`kgsig.cli.main(argv)`), `maxrss_kb`, and, with TRACE = 1, the spans and the
distinct-argument counts of the traced run. It exits with the CLI's code.
With no KGSIG_ARGS it only records `setup_s`.
"""

import time

_START = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import numpy  # noqa: E402,F401
import kgsig.cli  # noqa: E402

SETUP_S = time.perf_counter() - _START

# Distinct first arguments of these functions are counted in a traced run.
TRACK_FIRST_ARG = ("dynamics.causal_fundamental",)


def run(argv: list[str], iteration: int, trace: bool) -> dict:
    tracer = None
    if trace:
        from spans import Tracer, install_tracer

        tracer = Tracer(iteration)
        install_tracer(tracer, TRACK_FIRST_ARG)
    started = time.perf_counter()
    try:
        code = kgsig.cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc()
        code = 1
    wall = time.perf_counter() - started
    record = {
        "exit_code": code,
        "setup_s": SETUP_S,
        "wall_s": wall,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        tracer.restore()
        record["spans"] = tracer.spans
        record["distinct_args"] = {k: len(v) for k, v in tracer.arg_ids.items()}
    return record


def main() -> int:
    result_path, iteration, trace, sep, *argv = sys.argv[1:]
    if sep != "--":
        print("usage: child.py RESULT_JSON ITERATION TRACE -- ARGS...", file=sys.stderr)
        return 64
    if not argv:  # a set-up probe: imports only
        record = {"exit_code": 0, "setup_s": SETUP_S}
    else:
        record = run(argv, int(iteration), trace == "1")
    with open(result_path, "w") as handle:
        json.dump(record, handle)
    return record["exit_code"]


if __name__ == "__main__":
    sys.exit(main())
