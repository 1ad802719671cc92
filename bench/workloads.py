"""The benchmark's workloads and the checks on their CLI outputs.

Each workload is a config plus the kgsig commands it runs, one child
process per command. The checks use the acceptance-suite tolerances; every
comparison fails on NaN and inf (`finite and x <= tol`, never `not x > tol`).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path


Config = dict[str, dict[str, object]]


@dataclass(frozen=True)
class Workload:
    name: str
    commands: dict[str, Config]  # kgsig command -> its config sections


_CAUSAL: Config = {"grid": {"n": 64}, "run": {"trials": 40, "wick_order": 4}}
# At the default dt = 0.05 the time quadrature of some random sources is not
# yet accurate enough for the acceptance tolerances: the dt-halving ratio of
# `green` is below 3 (down to 1.9) for 170 of seeds 0-999, and the commutator
# identity of `state` misses 1e-6 (1.1e-6) for seed 100. At dt = 0.025 every
# one of those seeds passes. `wick` checks exact identities and keeps 0.05.
_CAUSAL_FINE: Config = {**_CAUSAL, "quadrature": {"dt": 0.025}}
_SPECTRAL: Config = {"grid": {"n": 1024}}

# Why each workload is there is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("reconstruct", {"reconstruct": {"grid": {"n": 8}}}),
        Workload("massdecomp", {"massdecomp": {}}),
        Workload(
            "causal",
            {
                "state": _CAUSAL_FINE,
                "wick": _CAUSAL,
                "green": _CAUSAL_FINE,
            },
        ),
        Workload(
            "spectral",
            {c: _SPECTRAL for c in ("spectrum", "evolve", "signature", "masslimit", "crosscheck")},
        ),
    )
}

TINY_N = 4


def config_text(config: Config, tiny: bool = False) -> str:
    """INI text of a command's config; `tiny` sets `[grid] n = 4`."""
    sections = {name: dict(keys) for name, keys in config.items()}
    if tiny:
        sections.setdefault("grid", {})["n"] = TINY_N
    lines = []
    for name, keys in sections.items():
        lines.append(f"[{name}]")
        lines.extend(f"{key} = {value}" for key, value in keys.items())
    return "\n".join(lines) + "\n"


def grid_size(config: Config, tiny: bool = False) -> int:
    return TINY_N if tiny else int(config.get("grid", {}).get("n", 16))


def output_files(command: str, out_dir: Path) -> list[Path]:
    """The deterministic outputs of one command: its summary and CSV tables."""
    return sorted(out_dir.glob(f"{command}_*.csv")) + [out_dir / f"{command}_summary.json"]


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _le(x, bound: float) -> bool:
    return _finite(x) and x <= bound


def _ge(x, bound: float) -> bool:
    return _finite(x) and x >= bound


def _rows(out_dir: Path, command: str, table: str) -> list[dict[str, str]]:
    with (out_dir / f"{command}_{table}.csv").open(newline="") as handle:
        return list(csv.DictReader(handle))


def _check_reconstruct(r, out_dir, n):
    dev, halved = r.get("deviation_at_half_width"), r.get("deviation_at_halved")
    problems = []
    if not _le(dev, 1e-3):
        problems.append(f"deviation at half width {dev} > 1e-3")
    if not (_finite(halved) and _finite(dev) and halved < dev):
        problems.append(f"deviation at halved width {halved} not below {dev}")
    return problems


def _check_massdecomp(r, out_dir, n):
    problems = []
    if r.get("converged") is not True:
        problems.append("pairing did not converge")
    if r.get("pair_count") != 10:
        problems.append(f"pair_count {r.get('pair_count')} != 10")
    if not _le(r.get("max_relative_error"), 1e-3):
        problems.append(f"max_relative_error {r.get('max_relative_error')} > 1e-3")
    return problems


def _check_state(r, out_dir, n):
    problems = []
    if not _ge(r.get("min_gram_eigenvalue"), -1e-8):
        problems.append(f"min Gram eigenvalue {r.get('min_gram_eigenvalue')} < -1e-8")
    for key in ("im_identity_worst", "ccr_identity_worst"):
        if not _le(r.get(key), 1e-6):
            problems.append(f"{key} {r.get(key)} > 1e-6")
    return problems


def _check_wick(r, out_dir, n):
    problems = []
    if r.get("pairing_count") != 105:
        problems.append(f"pairing_count {r.get('pairing_count')} != 105")
    if r.get("odd_case_re") != 0 or r.get("odd_case_im") != 0:
        problems.append("odd case is not exactly 0")
    value = complex(r.get("value_re", math.nan), r.get("value_im", math.nan))
    total = sum(
        complex(float(row["product_re"]), float(row["product_im"]))
        for row in _rows(out_dir, "wick", "matchings")
    )
    if not _le(abs(value - total), 1e-12 * abs(total)):
        problems.append(f"value {value} != sum of matching products {total}")
    return problems


def _check_green(r, out_dir, n):
    return [
        f"{key} {r.get(key)} < 3"
        for key in ("retarded_refinement_ratio", "advanced_refinement_ratio")
        if not _ge(r.get(key), 3.0)
    ]


def _check_evolve(r, out_dir, n):
    return [
        f"{key} {r.get(key)} > 1e-11"
        for key in ("max_symplectic_drift", "max_norm_drift")
        if not _le(r.get(key), 1e-11)
    ]


def _check_signature(r, out_dir, n):
    problems = []
    if not _le(r.get("max_deviation_from_pi"), 1e-10):
        problems.append(f"deviation from pi {r.get('max_deviation_from_pi')} > 1e-10")
    if r.get("negative_count") != n or r.get("positive_count") != n:
        problems.append(
            f"signs {r.get('negative_count')} - / {r.get('positive_count')} +, want {n} / {n}"
        )
    return problems


def _check_masslimit(r, out_dir, n):
    problems = []
    if r.get("monotone_decrease") is not True:
        problems.append("norm difference does not decrease monotonically")
    if not _le(r.get("max_mode_ratio"), 2.0):
        problems.append(f"max_mode_ratio {r.get('max_mode_ratio')} > 2")
    return problems


def _check_crosscheck(r, out_dir, n):
    if not _le(r.get("max_block_deviation"), 1e-14):
        return [f"block deviation {r.get('max_block_deviation')} > 1e-14"]
    return []


def _check_spectrum(r, out_dir, n):
    eigenvalues = [float(row["eigenvalue"]) for row in _rows(out_dir, "spectrum", "modes")]
    if r.get("all_positive") is not True or len(eigenvalues) != n or not all(
        _finite(x) and x > 0.0 for x in eigenvalues
    ):
        return ["eigenvalues are not all positive"]
    return []


_CHECKS = {
    "reconstruct": _check_reconstruct,
    "massdecomp": _check_massdecomp,
    "state": _check_state,
    "wick": _check_wick,
    "green": _check_green,
    "evolve": _check_evolve,
    "signature": _check_signature,
    "masslimit": _check_masslimit,
    "crosscheck": _check_crosscheck,
    "spectrum": _check_spectrum,
}


def read_results(command: str, out_dir: Path) -> dict:
    """The `results` block of a command's summary (JSON with NaN allowed)."""
    summary = json.loads((out_dir / f"{command}_summary.json").read_text())
    if summary.get("command") != command or not isinstance(summary.get("results"), dict):
        raise ValueError("summary names another command or has no results")
    return summary["results"]


def check_outputs(command: str, out_dir: Path, n: int) -> list[str]:
    """Problems found in one command's outputs; an empty list means correct."""
    try:
        results = read_results(command, out_dir)
        return _CHECKS[command](results, out_dir, n)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]


def work_counts(command: str, out_dir: Path) -> dict[str, float]:
    """Work counts and raw errors the command's outputs report."""
    r = read_results(command, out_dir)
    if command == "massdecomp":
        return {
            "massfamily.stages": r["stages"],
            "massfamily.final_t": r["final_t"],
            "massfamily.max_rel_err": r["max_relative_error"],
        }
    if command == "reconstruct":
        rows = _rows(out_dir, "reconstruct", "convergence")
        return {
            "massfamily.stages": sum(int(row["stages"]) for row in rows),
            "massfamily.final_t": max(float(row["final_t"]) for row in rows),
            "signature.block_dev": r["deviation_at_half_width"],
        }
    if command == "crosscheck":
        return {"signature.block_dev": r["max_block_deviation"]}
    return {}
