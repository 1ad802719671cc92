"""Benchmark of the kgsig command line: one workload, timed, checked, reported.

Run from the repository root:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
                         [--tiny] [--out RESULT_JSON]

Workloads (see BENCHMARK.json for why each is there): reconstruct,
massdecomp, causal, spectral. The benchmark writes each workload's config
into a scratch directory `.bench_work/` under the root, then repeats
iterations while another one is expected to end within S seconds (at least
one). An iteration runs each
of the workload's kgsig commands once, with `--seed N`, in a fresh child
process (`child.py`), one at a time, with BLAS threads pinned to 1. Every
output is checked against the acceptance-suite tolerances and against the
first iteration's bytes.

With `--trace 0` the last stdout line reports the end-to-end metrics: `wall_s`
(median over iterations of the summed in-child `main(argv)` times), `setup_s`
(median over child processes, five of them import-only, of the numpy +
kgsig.cli import time) and
`peak_rss_mb` (largest child ru_maxrss). `fail_ratio` is `failed / attempted`
over command invocations. With `--trace 1` the run alternates untraced and
traced iterations and reports per-layer call counts, total and self times,
work counts from the outputs, and the tracing overhead. `--tiny` shrinks every
grid to n = 4 for smoke tests. `--out` also writes the full record, with the
environment and every sample, for `compare.py`.

The run exits 0 after printing its result, 1 if no invocation produced a
timing, and 2 if the kgsig sources are not there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from compare import summary
from spans import layer_times
from workloads import (
    WORKLOADS,
    check_outputs,
    config_text,
    grid_size,
    output_files,
    work_counts,
)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# The children's BLAS thread count, set in their environment before numpy loads.
PINNED_THREADS = {
    var: "1"
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "KGSIG_THREADS",
    )
}
# Every run must end within 180 s; no child may start or run past this.
HARD_LIMIT_S = 170.0
# Import-only children per run, so that setup_s is a median of several
# samples even on a workload with one long command.
SETUP_PROBES = 5

# Per-layer counts read from span names: metric -> span names summed.
SPAN_COUNTS = {
    "dynamics.causal_calls": ("dynamics.causal_fundamental",),
    "state.two_point_calls": ("state.two_point",),
    "lattice.basis_builds": ("lattice.spectral_decompose",),
    "lattice.transform_calls": (
        "lattice.SpectralBasis.analyze",
        "lattice.SpectralBasis.synthesize",
    ),
    "massfamily.families": ("massfamily.make_family",),
}
# Counts read from the outputs; absent on a workload, they read 0.
OUTPUT_COUNTS = (
    "massfamily.stages",
    "massfamily.final_t",
    "massfamily.max_rel_err",
    "signature.block_dev",
)
# Units of per-layer metrics other than `*_s` (seconds) and counts.
UNITS = {
    "massfamily.final_t": "1",
    "massfamily.max_rel_err": "1",
    "signature.block_dev": "1",
    "state.causal_reuse": "1",
    "cli.bytes_written": "B",
}


@dataclass
class Invocation:
    command: str
    exit_code: int | None = None
    setup_s: float | None = None
    wall_s: float | None = None
    maxrss_kb: int | None = None
    spans: list = field(default_factory=list)
    distinct_args: dict = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)


@dataclass
class Iteration:
    index: int
    traced: bool
    invocations: list[Invocation]
    counts: dict[str, float]

    @property
    def wall_s(self) -> float | None:
        walls = [inv.wall_s for inv in self.invocations]
        return None if None in walls else sum(walls)


def compare_outputs(reference: dict[str, bytes], current: dict[str, bytes]) -> list[str]:
    """Problems where `current` output files differ from the reference bytes."""
    problems = [f"{name} missing" for name in reference if name not in current]
    problems += [
        f"{name} differs from the first iteration"
        for name, data in current.items()
        if name in reference and reference[name] != data
    ]
    problems += [f"{name} is new" for name in current if name not in reference]
    return problems


class Runner:
    """Runs one workload's commands in child processes and checks them."""

    def __init__(self, workload, seed: int, tiny: bool, work_dir: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.sizes = {c: grid_size(config, tiny) for c, config in workload.commands.items()}
        self.work_dir = work_dir
        for command, config in workload.commands.items():
            (work_dir / f"{command}.ini").write_text(config_text(config, tiny))
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **PINNED_THREADS)
        # Children reuse cached bytecode, as an installed kgsig does, so that
        # setup_s does not depend on the caller's environment.
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.reference: dict[str, dict[str, bytes]] = {}
        self.started = time.perf_counter()
        self.timed_out = False

    def remaining(self) -> float:
        return HARD_LIMIT_S - (time.perf_counter() - self.started)

    def _child(self, result_path: Path, index: int, traced: bool, cli_args: list[str]):
        argv = [sys.executable, str(BENCH_DIR / "child.py"), str(result_path), str(index),
                "1" if traced else "0", "--", *cli_args]  # fmt: skip
        try:
            return subprocess.run(
                argv, cwd=ROOT, env=self.env, capture_output=True, text=True,
                timeout=max(1.0, self.remaining()),
            )  # fmt: skip
        except subprocess.TimeoutExpired:
            self.timed_out = True
            return None

    def probe_setup(self) -> float | None:
        """Set-up time of one child that only imports numpy and kgsig.cli."""
        result_path = self.work_dir / "probe.json"
        proc = self._child(result_path, 0, False, [])
        if proc is None or proc.returncode != 0:
            return None
        return json.loads(result_path.read_text())["setup_s"]

    def invoke(self, command: str, index: int, traced: bool, out_dir: Path) -> Invocation:
        inv = Invocation(command)
        result_path = self.work_dir / f"{index}-{command}.json"
        config = self.work_dir / f"{command}.ini"
        cli_args = [command, "--config", str(config), "--seed", str(self.seed),
                    "--out", str(out_dir), "--quiet"]  # fmt: skip
        proc = self._child(result_path, index, traced, cli_args)
        if proc is None:
            inv.problems.append("timed out")
            return inv
        inv.exit_code = proc.returncode
        if proc.returncode != 0:
            inv.problems.append(f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}")
        if "Traceback" in proc.stderr:
            inv.problems.append("traceback on stderr")
        try:
            record = json.loads(result_path.read_text())
        except (OSError, ValueError) as exc:
            inv.problems.append(f"no child record: {exc!r}")
            return inv
        result_path.unlink()
        inv.setup_s, inv.wall_s = record["setup_s"], record["wall_s"]
        inv.maxrss_kb = record["maxrss_kb"]
        inv.spans = record.get("spans", [])
        inv.distinct_args = record.get("distinct_args", {})
        return inv

    def iteration(self, index: int, traced: bool) -> Iteration:
        out_dir = self.work_dir / f"it{index}"
        invocations, counts = [], {"cli.bytes_written": 0}
        for command in self.workload.commands:
            if self.remaining() <= 0:
                self.timed_out = True
            if self.timed_out:
                invocations.append(Invocation(command, problems=["out of time"]))
                continue
            inv = self.invoke(command, index, traced, out_dir)
            invocations.append(inv)
            if inv.exit_code is None:
                continue
            inv.problems += check_outputs(command, out_dir, self.sizes[command])
            files = {p.name: p.read_bytes() for p in output_files(command, out_dir) if p.is_file()}
            counts["cli.bytes_written"] += sum(len(data) for data in files.values())
            inv.problems += compare_outputs(self.reference.setdefault(command, files), files)
            try:
                counts.update(work_counts(command, out_dir))
            except (OSError, ValueError, KeyError) as exc:
                inv.problems.append(f"work counts unreadable: {exc!r}")
        shutil.rmtree(out_dir, ignore_errors=True)
        return Iteration(index, traced, invocations, counts)


def per_layer_metrics(iterations: list[Iteration], setups: list[float]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics: medians over the (timed) traced iterations."""
    traced = [it for it in iterations if it.traced]
    untraced_walls = [it.wall_s for it in iterations if not it.traced]
    traced_walls = [it.wall_s for it in traced]
    rows: list[dict[str, float]] = []
    for it in traced:
        row: dict[str, float] = {}
        for inv in it.invocations:  # span ids are unique within one child only
            for layer, times in layer_times(inv.spans).items():
                for key, value in times.items():
                    name = f"{layer}.{key}"
                    row[name] = row.get(name, 0) + value
        names = Counter(span[1] for inv in it.invocations for span in inv.spans)
        for metric, span_names in SPAN_COUNTS.items():
            row[metric] = sum(names[name] for name in span_names)
        row["state.test_functions"] = sum(
            inv.distinct_args.get("dynamics.causal_fundamental", 0) for inv in it.invocations
        )
        calls = row["dynamics.causal_calls"]
        row["state.causal_reuse"] = row["state.test_functions"] / calls if calls else 0.0
        for metric in OUTPUT_COUNTS:
            row[metric] = it.counts.get(metric, 0.0)
        row["cli.bytes_written"] = it.counts["cli.bytes_written"]
        rows.append(row)
    median = statistics.median
    values = {name: median([row[name] for row in rows]) for name in rows[0]}
    values["import.total_s"] = median(setups)
    values["trace.untraced_wall_s"] = median(untraced_walls)
    values["trace.traced_wall_s"] = median(traced_walls)
    values["trace.overhead_s"] = median(traced_walls) - median(untraced_walls)
    return {
        name: (value, UNITS.get(name, "s" if name.endswith("_s") else "count"))
        for name, value in values.items()
    }


def end_to_end_metrics(iterations: list[Iteration], setups: list[float]) -> dict[str, tuple[float, str]]:
    walls = [it.wall_s for it in iterations if it.wall_s is not None]
    rss = [inv.maxrss_kb for it in iterations for inv in it.invocations if inv.wall_s is not None]
    return {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (max(rss) / 1024.0, "MiB"),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict[str, object]:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": PINNED_THREADS,
        "git_commit": _git_commit(),
    }


def run(args) -> dict | None:
    """Run one workload; the full record, or None if nothing was timed."""
    workload = WORKLOADS[args.workload]
    work_dir = ROOT / ".bench_work" / f"{workload.name}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(workload, args.seed, args.tiny, work_dir)
        probes = [runner.probe_setup() for _ in range(SETUP_PROBES)]
        plan = (False, True) if args.trace else (False,)
        iterations: list[Iteration] = []
        measured_from = time.perf_counter()
        while not runner.timed_out:
            round_from = time.perf_counter()
            for traced in plan:
                iterations.append(runner.iteration(len(iterations), traced))
            # Start another round only if one like the last ends in the window.
            now = time.perf_counter()
            if (now - measured_from) + (now - round_from) > args.seconds:
                break
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass
    invocations = [inv for it in iterations for inv in it.invocations]
    attempted = len(invocations)
    failed = sum(1 for inv in invocations if inv.problems)
    timed = [it for it in iterations if it.wall_s is not None]
    if {it.traced for it in timed} != set(plan):
        for inv in invocations:
            print(f"{inv.command}: {'; '.join(inv.problems)}", file=sys.stderr)
        return None
    setups = [t for t in probes if t is not None]
    setups += [inv.setup_s for inv in invocations if inv.setup_s is not None]
    metrics = (per_layer_metrics if args.trace else end_to_end_metrics)(timed, setups)
    return {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "tiny": args.tiny,
        "seconds": args.seconds,
        "env": environment(),
        "iterations": len(iterations),
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "correct": failed == 0,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "samples": {
            "wall_s": [it.wall_s for it in timed if not it.traced],
            "traced_wall_s": [it.wall_s for it in timed if it.traced],
            "setup_s": setups,
        },
        "problems": [
            f"iteration {it.index} {inv.command}: {problem}"
            for it in iterations
            for inv in it.invocations
            for problem in inv.problems
        ],
    }


def report(record: dict) -> None:
    """Human-readable lines: every metric with unit and sample count."""
    samples = record["samples"]
    print(
        f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}"
        f"  iterations {record['iterations']}  invocations {record['attempted']}"
    )
    notes = {
        "wall_s": ("median", samples["wall_s"], "untraced iterations"),
        "setup_s": ("median", samples["setup_s"], f"child processes, {SETUP_PROBES} import-only"),
        "peak_rss_mb": ("max", range(record["attempted"]), "command processes"),
        "trace.untraced_wall_s": ("median", samples["wall_s"], "untraced iterations"),
        "trace.traced_wall_s": ("median", samples["traced_wall_s"], "traced iterations"),
    }
    for name, metric in record["metrics"].items():
        line = f"  {name:<26} = {metric['value']:.6g} {metric['unit']}"
        if name in notes:
            how, values, what = notes[name]
            line += f"  ({how} of {len(values)} {what}"
            if how == "median":
                _, q1, q3, _ = summary(values)
                line += f"; q1 {q1:.6g}, q3 {q3:.6g}"
            line += ")"
        print(line)
    self_times = {
        name[: -len(".self_s")]: metric["value"]
        for name, metric in record["metrics"].items()
        if name.endswith(".self_s")
    }
    if self_times:
        total = sum(self_times.values()) or 1.0
        ranked = sorted(self_times.items(), key=lambda item: -item[1])[:3]
        print("  self-time shares: " + ", ".join(f"{k} {v / total:.1%}" for k, v in ranked))
    print(
        f"  {'fail_ratio':<26} = {record['fail_ratio']:.6g} 1"
        f"  ({record['failed']} failed of {record['attempted']} invocations)"
    )
    for problem in record["problems"]:
        print(f"  FAILED {problem}")
    print("env " + json.dumps(record["env"], sort_keys=True))


def parse_args(argv: list[str] | None = None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="grid n = 4 (smoke test)")
    parser.add_argument("--out", metavar="RESULT_JSON", help="also write the full record")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "kgsig" / "cli.py").is_file():
        print(f"kgsig sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    record = run(args)
    if record is None:
        print("no invocation produced a timing", file=sys.stderr)
        return 1
    report(record)
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    result = {key: record[key] for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
