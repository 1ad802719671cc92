"""Tests of the benchmark itself: smoke runs, failure detection, span math.

Run from the repository root: python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import compare  # noqa: E402
from run import compare_outputs  # noqa: E402
from spans import Tracer, install_tracer, layer_times  # noqa: E402
from workloads import WORKLOADS, check_outputs, output_files  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )  # fmt: skip


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tiny_smoke_run(workload):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", "0", "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(WORKLOADS[workload].commands)
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert "fail_ratio" in proc.stdout and "env " in proc.stdout


def test_tiny_traced_run_reports_every_per_layer_metric():
    proc = _bench("--workload", "causal", "--seed", "3", "--seconds", "0", "--trace", "1", "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics = result["metrics"]
    assert result["correct"] and result["attempted"] == 6
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert all(metrics[name]["unit"] == unit for name, unit in units.items())
    calls = metrics["dynamics.causal_calls"]["value"]
    assert calls > 0 and metrics["massfamily.calls"]["value"] == 0
    assert metrics["state.causal_reuse"]["value"] == pytest.approx(
        metrics["state.test_functions"]["value"] / calls
    )


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "spectral", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)  # fmt: skip
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.fixture
def evolve_outputs(tmp_path):
    from kgsig.cli import main

    (tmp_path / "tiny.ini").write_text("[grid]\nn = 4\n")
    assert main(["evolve", "--config", str(tmp_path / "tiny.ini"), "--out", str(tmp_path),
                 "--quiet"]) == 0  # fmt: skip
    assert check_outputs("evolve", tmp_path, 4) == []
    return tmp_path


def _set_result(out_dir: Path, key: str, literal: str) -> None:
    path = out_dir / "evolve_summary.json"
    lines = path.read_text().splitlines(keepends=True)
    for i, line in enumerate(lines):
        if line.strip().startswith(f'"{key}":'):
            comma = "," if line.rstrip().endswith(",") else ""
            lines[i] = line.split(":")[0] + f": {literal}{comma}\n"
    path.write_text("".join(lines))


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "nan", "1e-3"])
def test_bad_or_non_finite_field_is_a_failure(evolve_outputs, literal):
    _set_result(evolve_outputs, "max_norm_drift", literal)
    assert check_outputs("evolve", evolve_outputs, 4)


def test_altered_summary_byte_is_a_failure(evolve_outputs):
    files = {p.name: p.read_bytes() for p in output_files("evolve", evolve_outputs)}
    assert compare_outputs(files, dict(files)) == []
    altered = dict(files)
    data = bytearray(altered["evolve_summary.json"])
    data[-3] ^= 1
    altered["evolve_summary.json"] = bytes(data)
    assert compare_outputs(files, altered) == ["evolve_summary.json differs from the first iteration"]
    del altered["evolve_drift.csv"]
    assert "evolve_drift.csv missing" in compare_outputs(files, altered)


def test_self_time_on_a_synthetic_span_tree():
    # (id, name, start, end, parent, iteration)
    spans = [
        (0, "cli.main", 0.0, 10.0, -1, 0),
        (1, "massfamily.spacetime_gram", 1.0, 7.0, 0, 0),
        (2, "lattice.SpectralBasis.analyze", 2.0, 3.0, 1, 0),
        (3, "massfamily.integrate_p", 4.0, 6.0, 1, 0),
        (4, "config.load_config", 8.0, 9.0, 0, 0),
    ]
    times = layer_times(spans)
    assert times["cli"] == {"calls": 1, "total_s": 10.0, "self_s": 3.0}
    assert times["massfamily"] == {"calls": 2, "total_s": 6.0, "self_s": 5.0}
    assert times["lattice"] == {"calls": 1, "total_s": 1.0, "self_s": 1.0}
    assert times["config"] == {"calls": 1, "total_s": 1.0, "self_s": 1.0}
    assert times["state"] == {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    assert sum(t["self_s"] for t in times.values()) == 10.0


def test_overlapping_children_are_covered_once():
    spans = [
        (0, "state.two_point", 0.0, 4.0, -1, 0),
        (1, "dynamics.causal_fundamental", 1.0, 3.0, 0, 0),
        (2, "dynamics.causal_fundamental", 2.0, 5.0, 0, 0),
    ]
    assert layer_times(spans)["state"]["self_s"] == 1.0


def test_tracer_wraps_every_binding_and_restores():
    import kgsig.cli
    import kgsig.lattice
    import kgsig.state

    originals = (kgsig.cli.dirichlet_basis, kgsig.lattice.SpectralBasis.analyze,
                 kgsig.state.causal_fundamental)  # fmt: skip
    tracer = Tracer(iteration=7)
    install_tracer(tracer, ("lattice.dirichlet_basis",))
    try:
        basis = kgsig.cli.dirichlet_basis(4, 10.0)
        basis.analyze(basis.vectors[:, 0])
        assert kgsig.state.causal_fundamental is not originals[2]
    finally:
        tracer.restore()
    names = [span[1] for span in tracer.spans]
    assert "lattice.dirichlet_basis" in names and "lattice.spectral_decompose" in names
    assert "lattice.SpectralBasis.analyze" in names
    assert {span[5] for span in tracer.spans} == {7}
    assert len(tracer.arg_ids["lattice.dirichlet_basis"]) == 1
    assert (kgsig.cli.dirichlet_basis, kgsig.lattice.SpectralBasis.analyze,
            kgsig.state.causal_fundamental) == originals  # fmt: skip


def test_compare_reports_spread_and_regression():
    def result(values):
        return {"runs": {"spectral": [
            {"metrics": {"wall_s": {"value": v}, "setup_s": {"value": 0.1},
                         "peak_rss_mb": {"value": 80.0}}} for v in values]}}  # fmt: skip

    base = result([1.0, 1.0, 1.01, 0.99, 1.0])
    lines = compare.compare(SPEC, base, result([1.02, 1.01, 1.0, 1.03, 1.02]))
    assert lines[-1] == "all within bounds"
    lines = compare.compare(SPEC, base, result([2.0, 2.1, 2.0, 1.9, 2.0]))
    assert lines[-1] == "FAIL" and "worse by +100.0%" in lines[0]
    assert compare.worse_by(2.0, 1.0, "higher") == pytest.approx(0.5)
    med, q1, q3, spread = compare.summary([1.0, 2.0, 3.0, 4.0])
    assert (med, q1, q3) == (2.5, 1.25, 3.75) and math.isclose(spread, 1.0)
