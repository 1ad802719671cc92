"""Compare two benchmark result files against the bounds in BENCHMARK.json.

Run from the repository root:

    python3 bench/compare.py BASE_JSON [NEW_JSON]

Both files come from `steady.py`; `bench/baseline/` holds two sets of ten
runs, and one traced run, of the commit that added the benchmark. For every
workload and end-to-end metric it prints each side's median and quartiles
over the runs (as
`statistics.quantiles(values, n=4)` gives them) and the spread, the
quartile distance as a share of the median. With two files it also prints
the change of NEW's median against BASE's in the metric's worse direction.
A line ends in FAIL when a spread other than `setup_s` exceeds the metric's
bound, or the new median is worse than the base median by more than the
bound; the exit code is 1 if any line fails.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def summary(values: list[float]) -> tuple[float, float, float, float]:
    """Median, first and third quartile, and (q3 - q1) / median."""
    med = statistics.median(values)
    q1, q3 = (values[0], values[0]) if len(values) < 2 else statistics.quantiles(values, n=4)[::2]
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def worse_by(base: float, new: float, better: str) -> float:
    """How much worse `new` is than `base`, as a share of `base` (< 0: better)."""
    change = (new - base) / base if base else float("inf")
    return change if better == "lower" else -change


def compare(spec: dict, base: dict, new: dict | None) -> list[str]:
    lines, failed = [], False
    for workload in spec["workloads"]:
        name = workload["name"]
        if name not in base["runs"]:
            continue
        for metric in spec["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            sides = [base] + ([new] if new else [])
            stats = []
            for side in sides:
                runs = side["runs"].get(name, [])
                stats.append(summary([run["metrics"][key]["value"] for run in runs]))
            ok = all(s[3] <= bound for s in stats) or key == "setup_s"
            text = f"{name:<12} {key:<12} n={len(base['runs'][name]):<3}"
            for med, q1, q3, spread in stats:
                text += f" | median {med:10.5g} q1 {q1:10.5g} q3 {q3:10.5g} spread {spread:6.1%}"
            if new:
                change = worse_by(stats[0][0], stats[1][0], metric["better"])
                ok = ok and change <= bound
                text += f" | worse by {change:+6.1%}"
            text += f" (bound {bound:.0%}) {'ok' if ok else 'FAIL'}"
            failed = failed or not ok
            lines.append(text)
    lines.append("FAIL" if failed else "all within bounds")
    return lines


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if not 1 <= len(args) <= 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    files = [json.loads(Path(path).read_text()) for path in args]
    lines = compare(spec, files[0], files[1] if len(files) > 1 else None)
    print("\n".join(lines))
    return 1 if lines[-1] == "FAIL" else 0


if __name__ == "__main__":
    sys.exit(main())
