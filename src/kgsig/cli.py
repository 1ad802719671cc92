"""Command-line front end: runs experiments, writes JSON + CSV results.

Each `cmd_<command>` returns its scalar results and one table of named
columns, `{table name: {column name: sequence}}` in CSV order. Every command
writes <command>_summary.json (config echo plus scalar results) and one
<command>_<table>.csv into the output directory, keys and rows in a fixed
order. Summary floats take Python's shortest round-trip form (what `json`
writes); CSV floats take 17 significant digits, which formats faster. Both
read back to the same double, and reruns with the same config and seed are
byte-identical. Wall-clock runtime goes to a separate <command>_meta.json
sidecar, the one file excluded from that guarantee. Each output replaces
what its path held: a file or link there is unlinked and a new file created,
so nothing is truncated in place or written through a link.

Exit codes: 0 success, 2 usage error, configuration error or output that
cannot be written (also when stdout, full or closed, cannot take what a
run prints), 3 non-convergence or a non-finite result (nothing is written
then). A stderr that cannot take a message loses the message, not the exit
code.
"""

from __future__ import annotations

import errno
import getopt
import json
import os
import sys
import time
from collections.abc import Sequence
from pathlib import Path
from typing import NoReturn, TextIO

import numpy as np

from .config import ConfigError, ExperimentConfig, load_config, validate_config
from .dynamics import causal_fundamental, green_residuals, propagate, time_window
from .lattice import SpectralBasis, dirichlet_basis, omega
from .massfamily import (
    ConvergenceError,
    MassInterval,
    interval_weight,
    make_family,
    mass_decomposition_gram,
    spacetime_gram,
)
from .minkowski import cross_check_lattice
from .random_fields import Draws, random_datum, random_test_function
from .signature import (
    BLOCK_TOL_DEFAULT,
    block_eigenvalues,
    scalar_product,
    signature_analytic,
    signature_reconstruct,
    massless_limit,
)
from .state import (
    build_state,
    pair_matchings,
    pair_matrix,
    state_positivity_suite,
    wick_n_point,
    wick_terms,
)
from .symplectic import gm_form, symplectic


def _create(path: Path) -> TextIO:
    """Open `path` as a new file for writing. A file or link already there is
    unlinked first, so an earlier output is replaced, not truncated in place,
    and a link is replaced, not written through; "x" fails, not follows, if
    another file appears there in between."""
    path.unlink(missing_ok=True)
    return path.open("x", newline="")


def _write_json(path: Path, payload: dict) -> None:
    text = json.dumps(payload, indent=2, allow_nan=False) + "\n"
    with _create(path) as handle:
        handle.write(text)


def _write_csv(path: Path, columns: dict[str, Sequence]) -> None:
    """The header, then one line per row through one `%` template per table,
    built from the first row: floats (numpy float64 is one) to 17 significant
    digits, other cells through str. Each column holds one type and no comma,
    quote or newline, so no cell needs quoting. Rows stream into the file as
    they are formatted; unequal columns raise ValueError before it is
    opened."""
    if len({len(cells) for cells in columns.values()}) > 1:
        raise ValueError("table columns differ in length")
    first = [cells[0] for cells in columns.values()]
    template = ",".join("%.17g" if isinstance(c, float) else "%s" for c in first) + "\n"
    with _create(path) as handle:
        handle.write(",".join(columns) + "\n")
        handle.writelines(template % row for row in zip(*columns.values()))


def _non_finite(results: dict, tables: dict[str, dict[str, Sequence]]) -> str | None:
    """The first result or table column holding NaN or inf, or None."""
    columns = [(f"result {key}", [value]) for key, value in results.items()]
    for name, table in tables.items():
        columns += [(f"{name} column {c}", cells) for c, cells in table.items()]
    for where, cells in columns:
        values = np.asarray(cells)  # str, int and bool columns hold no NaN
        if values.dtype.kind == "f" and not np.isfinite(values).all():
            return where


def _emit(
    command: str,
    config: ExperimentConfig,
    results: dict,
    tables: dict[str, dict[str, Sequence]],
    out_dir: Path,
    quiet: bool,
    started: float,
) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = [out_dir / f"{command}_summary.json"]
    _write_json(paths[0], {"command": command, "config": config.as_dict(), "results": results})
    for name, columns in tables.items():
        paths.append(out_dir / f"{command}_{name}.csv")
        _write_csv(paths[-1], columns)
    _write_json(
        out_dir / f"{command}_meta.json",
        {"command": command, "runtime_seconds": time.monotonic() - started},
    )
    if not quiet:
        _print("\n".join([*(f"{key}: {value}" for key, value in results.items()),
                          *(f"wrote {path}" for path in paths)]))


def _mode_columns(basis: SpectralBasis, mass: float) -> dict[str, Sequence]:
    """The mode, eigenvalue and frequency columns of the per-mode tables."""
    frequencies = omega(basis.eigenvalues, mass)
    return {"mode": range(basis.size), "eigenvalue": basis.eigenvalues, "frequency": frequencies}


def cmd_spectrum(config: ExperimentConfig, basis: SpectralBasis):
    results = {
        "num_modes": basis.size,
        "min_eigenvalue": float(basis.eigenvalues[0]),
        "max_eigenvalue": float(basis.eigenvalues[-1]),
        "all_positive": bool(basis.eigenvalues[0] > 0.0),
    }
    return results, {"modes": _mode_columns(basis, config.m)}


def cmd_evolve(config: ExperimentConfig, basis: SpectralBasis):
    sig = signature_analytic(config.m, basis)
    rng = Draws(config.seed)
    a, b = random_datum(rng, basis), random_datum(rng, basis)
    ref_sym = symplectic(a, b)
    ref_norm = scalar_product(sig, a, a)
    times = np.linspace(0.0, config.time, config.samples)
    sym_drift, norm_drift = [], []
    for t in times:
        at, bt = propagate(a, t, config.m), propagate(b, t, config.m)
        sym_drift.append(abs(symplectic(at, bt) - ref_sym) / abs(ref_sym))
        norm_drift.append(abs(scalar_product(sig, at, at) - ref_norm) / abs(ref_norm))
    results = {
        "time_span": config.time,
        "max_symplectic_drift": np.max(sym_drift),  # np.max keeps a NaN drift
        "max_norm_drift": np.max(norm_drift),
    }
    columns = {"t": times, "symplectic_drift": sym_drift, "norm_drift": norm_drift}
    return results, {"drift": columns}


def cmd_green(config: ExperimentConfig, basis: SpectralBasis):
    steps = [config.dt, config.dt / 2]
    windows = [time_window(-config.window / 2, config.window / 2, dt) for dt in steps]
    retarded, advanced = zip(*(
        green_residuals(random_test_function(Draws(config.seed), basis, times), config.m)
        for times in windows
    ))
    results = {
        "retarded_refinement_ratio": retarded[0] / retarded[1],
        "advanced_refinement_ratio": advanced[0] / advanced[1],
    }
    columns = {"dt": steps, "retarded_residual": retarded, "advanced_residual": advanced}
    return results, {"residuals": columns}


def cmd_signature(config: ExperimentConfig, basis: SpectralBasis):
    vals = block_eigenvalues(signature_analytic(config.m, basis).blocks)
    lo, hi = vals.T  # each mode's pair ascending
    results = {
        "mass": config.m,
        "max_deviation_from_pi": float(np.abs(np.abs(vals) - np.pi).max()),
        "negative_count": int((vals < 0).sum()),
        "positive_count": int((vals > 0).sum()),
    }
    return results, {"spectrum": _mode_columns(basis, config.m) | {"eig_minus": lo, "eig_plus": hi}}


def cmd_massdecomp(config: ExperimentConfig, basis: SpectralBasis):
    interval = MassInterval(config.m_lo, config.m_hi)
    weight = interval_weight(interval)
    rng = Draws(config.seed)
    families = [
        make_family(random_datum(rng, basis), weight, interval)
        for _ in range(config.families)
    ]
    gram, report = spacetime_gram(families, tol=config.tol, t_ceiling=config.t_ceiling)
    i, j = np.triu_indices(config.families)
    lhs, rhs = gram[i, j], mass_decomposition_gram(families)[i, j]
    rel = np.abs(lhs - rhs) / np.maximum(np.abs(rhs), 1e-300)
    results = {
        "family_count": config.families,
        "pair_count": config.families * (config.families - 1) // 2,
        "max_relative_error": rel.max(),
        "converged": report.converged,
        "final_t": report.final_t,
        "stages": report.stages,
        "last_increment": report.last_increment,
    }
    columns = {
        "i": i, "j": j, "lhs_re": lhs.real, "lhs_im": lhs.imag,
        "rhs_re": rhs.real, "rhs_im": rhs.imag, "relative_error": rel,
    }
    return results, {"pairs": columns}


def cmd_reconstruct(config: ExperimentConfig, basis: SpectralBasis):
    interval = MassInterval(config.m_lo, config.m_hi)
    analytic = signature_analytic(config.m, basis)
    widths = [config.half_width, config.half_width / 2]
    runs = [
        signature_reconstruct(
            config.m, basis, hw, tol=config.tol, interval=interval, t_ceiling=config.t_ceiling
        )
        for hw in widths
    ]
    deviations = [float(np.abs(rec.blocks - analytic.blocks).max()) for rec, _ in runs]
    results = {
        "block_tolerance": config.tol,
        "deviation_at_half_width": deviations[0],
        "deviation_at_halved": deviations[1],
        "improvement_ratio": deviations[0] / deviations[1],
        "within_tolerance": bool(deviations[0] <= config.tol),
    }
    columns = {
        "half_width": widths,
        "max_deviation": deviations,
        "final_t": [report.final_t for _, report in runs],
        "stages": [report.stages for _, report in runs],
    }
    return results, {"convergence": columns}


def cmd_state(config: ExperimentConfig, basis: SpectralBasis):
    state = build_state(config.m, basis)
    times = time_window(-config.window / 2, config.window / 2, config.dt)
    # the suite's sources are dropped when it returns
    suite = state_positivity_suite(
        state, random_test_function(Draws(config.seed), basis, times, real=True, size=config.trials)
    )
    fs = random_test_function(Draws(config.seed + 1), basis, times, real=True, size=6)
    solved = causal_fundamental(fs, config.m)  # pairs (f, g): entries k, k + 1
    pair = pair_matrix(state, solved)
    w_fg, w_gf = pair[0::2, 1::2].diagonal(), pair[1::2, 0::2].diagonal()
    sigma = symplectic(solved[0::2], solved[1::2])  # sigma(G f, G g)
    im_worst = np.abs(w_fg.imag - 0.5 * sigma.real).max()
    ccr_worst = np.abs(w_fg - w_gf - 1j * gm_form(fs[0::2], fs[1::2], config.m)).max()
    results = {
        "trials": config.trials,
        "min_gram_eigenvalue": suite.min_eigenvalue,
        "hermiticity_defect": suite.hermiticity_defect,
        "diag_imag_max": suite.diag_imag_max,
        "im_identity_worst": im_worst,
        "ccr_identity_worst": ccr_worst,
    }
    columns = {"index": range(len(suite.eigenvalues)), "eigenvalue": suite.eigenvalues}
    return results, {"gram": columns}


def cmd_masslimit(config: ExperimentConfig, basis: SpectralBasis):
    _, table = massless_limit(basis)
    results = {
        "monotone_decrease": bool(np.all(np.diff(table.norms) < 0)),
        "max_mode_ratio": float((table.mode_norms / table.mode_bounds).max()),
    }
    columns = {
        "mass": table.masses, "norm_difference": table.norms, "bound": table.bounds,
        "ratio": table.norms / table.bounds,
    }
    return results, {"norms": columns}


def cmd_crosscheck(config: ExperimentConfig, basis: SpectralBasis):
    report = cross_check_lattice(config.m, basis)
    results = {
        "max_block_deviation": report.max_block_deviation,
        "max_eigenvalue_deviation": report.max_eigenvalue_deviation,
    }
    columns = _mode_columns(basis, config.m) | {"block_deviation": report.block_deviations}
    return results, {"blocks": columns}


def cmd_wick(config: ExperimentConfig, basis: SpectralBasis):
    state = build_state(config.m, basis)
    times = time_window(-config.window / 2, config.window / 2, config.dt)
    count = 2 * config.wick_order
    fs = random_test_function(Draws(config.seed), basis, times, size=count)
    terms = wick_terms(state, fs)
    value = sum(terms, 0j)
    odd_value = wick_n_point(state, fs[: count - 1])
    matchings = pair_matchings(count)
    results = {
        "order": config.wick_order,
        "pairing_count": len(matchings),
        "value_re": value.real,
        "value_im": value.imag,
        "odd_case_re": odd_value.real,
        "odd_case_im": odd_value.imag,
    }
    columns = {
        "index": range(len(matchings)),
        "pairs": ["|".join(f"{i}-{j}" for i, j in matching) for matching in matchings],
        "product_re": [term.real for term in terms],
        "product_im": [term.imag for term in terms],
    }
    return results, {"matchings": columns}


_COMMANDS = {
    "spectrum": "lattice eigenvalues and frequencies",
    "evolve": "propagation with conservation drift report",
    "green": "Green operator residuals under time refinement",
    "signature": "analytic signature operator and its spectrum",
    "massdecomp": "spacetime pairing vs mass-decomposition identity",
    "reconstruct": "signature blocks from narrow-weight pairings",
    "state": "two-point positivity and commutation identities",
    "masslimit": "operator-norm convergence to the massless limit",
    "crosscheck": "lattice blocks vs closed-form mode blocks",
    "wick": "quasi-free n-point function over pair matchings",
}


_USAGE = "kgsig <command> [--config PATH] [--out DIR] [--seed INT] [--tol FLOAT] [--quiet]"
_HELP = f"""usage: {_USAGE}

signature-operator experiments on lattice Klein-Gordon fields

options (before or after the command):
  -h, --help     show this help and exit
  --config PATH  key = value config file
  --out DIR      output directory (default: results)
  --seed INT     override the run seed
  --tol FLOAT    override the tolerance
  --quiet        suppress progress output

commands:
""" + "\n".join(f"  {k:<12} {v}" for k, v in _COMMANDS.items())


def _print(text: str, flush: bool = False) -> None:
    """Print `text` to stdout. With file descriptor 1 closed Python sets
    sys.stdout to None, and print() would drop the text without an error;
    here that raises OSError, as a full stdout does."""
    if sys.stdout is None:
        raise OSError(errno.EBADF, "stdout is closed")
    print(text, flush=flush)


def _fail(code: int, message: str) -> int:
    """Print `message` to stderr and return `code`; a stderr that cannot take
    it (closed, full, a reader that closed the pipe) loses the message only."""
    try:
        print(message, file=sys.stderr)
    except OSError:
        pass
    return code


def _usage_error(message: str) -> NoReturn:
    raise SystemExit(_fail(2, f"usage: {_USAGE}\nkgsig: error: {message}"))


def _convert(option: str, value: str, kind):
    try:
        return kind(value)
    except ValueError:
        _usage_error(f"argument {option}: invalid {kind.__name__} value: {value!r}")


def parse_args(argv: list[str]) -> dict:
    """The command line as a dict: one positional command, options before or
    after it, `--opt value` or `--opt=value`, long options by unique prefix.

    A usage error prints the usage line and a message to stderr and raises
    SystemExit(2); -h/--help prints the help to stdout and raises SystemExit(0),
    or SystemExit(2) with an output error on stderr if stdout cannot take it.
    """
    try:
        options, positionals = getopt.gnu_getopt(
            argv, "h", ["help", "quiet", "config=", "out=", "seed=", "tol="]
        )
    except getopt.GetoptError as exc:
        _usage_error(str(exc))
    args = {"config": None, "out": "results", "seed": None, "tol": None, "quiet": False}
    for option, value in options:
        if option in ("-h", "--help"):
            try:
                _print(_HELP, flush=True)
            except OSError as exc:  # a full disk, a reader that closed the pipe, a closed stdout
                if sys.stdout is not None:
                    # anything the failed flush kept goes to devnull, not to the exit flush
                    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
                raise SystemExit(_fail(2, f"output error: {exc}"))
            raise SystemExit(0)
        if option == "--seed":
            args["seed"] = _convert(option, value, int)
        elif option == "--tol":
            args["tol"] = _convert(option, value, float)
        elif option == "--quiet":
            args["quiet"] = True
        else:  # --config, --out
            args[option[2:]] = value
    if not positionals:
        _usage_error("the following arguments are required: command")
    command, *extra = positionals
    if command not in _COMMANDS:
        _usage_error(
            f"argument command: invalid choice: {command!r} "
            f"(choose from {', '.join(map(repr, _COMMANDS))})"
        )
    if extra:
        _usage_error(f"unrecognized arguments: {' '.join(extra)}")
    for option in ("config", "out"):  # Path('') is '.'
        if args[option] == "":
            _usage_error(f"argument --{option}: expected a path, got ''")
    args["command"] = command
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    started = time.monotonic()
    command = args["command"]
    overrides = {key: args[key] for key in ("seed", "tol") if args[key] is not None}
    if command == "reconstruct":  # runs at its block tolerance, not the file's tol
        overrides.setdefault("tol", BLOCK_TOL_DEFAULT)
    try:
        config = load_config(args["config"])._replace(**overrides)
        validate_config(config, command)
    except (ConfigError, OSError) as exc:
        return _fail(2, f"configuration error: {exc}")
    out_dir = Path(args["out"])
    # a file in the way would stop mkdir only after the run: check it first
    for path in (out_dir, *out_dir.parents):
        if path.exists() and not path.is_dir():
            return _fail(2, f"output error: {path} is not a directory")
    basis = dirichlet_basis(config.n, config.l)
    try:
        results, tables = globals()[f"cmd_{command}"](config, basis)
    except ConvergenceError as exc:
        return _fail(3, f"non-convergence: {exc}")
    if where := _non_finite(results, tables):
        return _fail(3, f"non-finite result: {where}; nothing was written")
    try:
        _emit(command, config, results, tables, out_dir, args["quiet"], started)
    except OSError as exc:
        return _fail(2, f"output error: {exc}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
