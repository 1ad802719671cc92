"""Repeat the benchmark over several seeds and collect the results in one file.

Run from the repository root:

    python3 bench/steady.py --runs 10 --out RESULTS_JSON
                            [--workload NAME ...] [--first-seed N] [--trace 0|1]

Each run is `bench/run.py` with seed first_seed + i and the run length of
BENCHMARK.json. Runs go round-robin over the workloads, so slow phases of a
shared machine spread over all of them. `compare.py` reads the file.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", required=True, metavar="RESULTS_JSON")
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    out = Path(args.out).resolve()
    scratch = out.with_suffix(".run.json")
    collected: dict = {"run_seconds": spec["run_seconds"], "trace": args.trace, "runs": {}}
    for i in range(args.runs):
        seed = args.first_seed + i
        for name in args.workload or names:
            cmd = [
                sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
                "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                "--trace", str(args.trace), "--out", str(scratch),
            ]  # fmt: skip
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            record = json.loads(scratch.read_text())
            scratch.unlink()
            collected.setdefault("env", record["env"])
            collected["runs"].setdefault(name, []).append(
                {key: record[key] for key in ("seed", "iterations", "attempted", "failed",
                                              "correct", "metrics", "samples", "problems")}
            )  # fmt: skip
            values = ", ".join(
                f"{m} {v['value']:.4g}" for m, v in record["metrics"].items() if "." not in m
            )
            print(f"{name} seed {seed}: failed {record['failed']}/{record['attempted']} {values}")
            sys.stdout.flush()
            out.write_text(json.dumps(collected, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
