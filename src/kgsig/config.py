"""Experiment configuration: declarative key = value sections.

The file format is INI-style (configparser): sections [grid], [mass],
[quadrature], [run]. Every value has a default, so an empty or missing file
is valid; unknown sections or keys are rejected rather than ignored so that
typos surface as configuration errors (exit code 2 at the CLI).
`ExperimentConfig` is the schema: `SECTIONS` lays its fields out in sections,
and each key is cast to the type of its default. It is a NamedTuple, so an
override is one `_replace`.
"""

from __future__ import annotations

import configparser
import math
import sys
from pathlib import Path
from typing import NamedTuple

from . import massfamily
from .lattice import SpatialGrid
from .signature import check_massless_grid, reconstruction_weight
from .state import WICK_ARGUMENTS_MAX


class ConfigError(ValueError):
    """Invalid configuration file or parameter combination."""


# time nodes x grid points of one spacetime array: 64 MiB of complex values.
# No command holds such an array whole: sources are kept as their terms' time
# profiles and shapes, and the Duhamel passes hold blocks of time rows, so the
# cap bounds time more than memory. Near it (n = 64), `green` at dt = 1.84e-4
# peaks at 35 MiB RSS in 1.1 s, and `state` at dt = 9.2e-5 at 155 MiB in
# 1.6-1.8 s, set by the positivity suite below (2-core Xeon, numpy 2.4.6, one
# BLAS thread)
SPACETIME_SAMPLES_MAX = 1 << 22
# trials x (time nodes x grid points + trials) complex values: the cap on the
# state suite, which holds far less: 3 trials time profiles and shapes, two
# time nodes x grid points phase tables and the Gram (a 95 MiB tracemalloc peak
# at 20 trials near the spacetime cap above, most of it the profiles' draw)
SUITE_SAMPLES_MAX = 32 * SPACETIME_SAMPLES_MAX
# rows of a written table: evolve's samples, one Python iteration each (65536
# samples at n = 1 take 3.7-4.2 s on a 2-core Xeon), the modes of spectrum,
# signature and crosscheck, or massdecomp's family pairs, read off two Grams
TABLE_ROWS_MAX = SPACETIME_SAMPLES_MAX >> 6


# section -> keys, in `ExperimentConfig`'s field order; a key's type is its default's
SECTIONS = {
    "grid": ("n", "l"),
    "mass": ("m", "m_lo", "m_hi", "half_width"),
    "quadrature": ("dt", "tol", "t_ceiling"),
    "run": ("seed", "trials", "families", "time", "samples", "window", "wick_order"),
}


class ExperimentConfig(NamedTuple):
    n: int = 16
    l: float = 10.0
    m: float = 1.5
    m_lo: float = 1.0
    m_hi: float = 2.0
    half_width: float = 0.05
    dt: float = 0.05
    tol: float = massfamily.TOL_DEFAULT
    t_ceiling: float = massfamily.T_CEILING_DEFAULT
    seed: int = 0
    trials: int = 20
    families: int = 5
    time: float = 100.0
    samples: int = 11
    window: float = 6.0
    wick_order: int = 2

    def as_dict(self) -> dict[str, object]:
        return {
            section: {key: getattr(self, key) for key in keys}
            for section, keys in SECTIONS.items()
        }


def load_config(path: str | Path | None) -> ExperimentConfig:
    if path is None:
        return ExperimentConfig()
    # values are read as written (no % interpolation), and [DEFAULT] is a
    # section like any other: no file header names the default section ""
    parser = configparser.ConfigParser(
        inline_comment_prefixes=(";", "#"), interpolation=None, default_section=""
    )
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config is not UTF-8 text: {exc}") from exc
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config: {exc}") from exc
    values: dict[str, object] = {}
    for section in parser.sections():
        if section not in SECTIONS:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if key not in SECTIONS[section]:
                raise ConfigError(f"unknown key '{key}' in section [{section}]")
            caster = type(ExperimentConfig._field_defaults[key])
            try:
                values[key] = caster(raw)
            except ValueError as exc:
                raise ConfigError(
                    f"key '{key}' in [{section}] expects {caster.__name__}: {raw!r}"
                ) from exc
    return ExperimentConfig(**values)


def _check_size(key: str, rows: int, samples: int, what: str) -> None:
    if rows > TABLE_ROWS_MAX:
        raise ConfigError(
            f"{key} too large: {rows} table rows exceed TABLE_ROWS_MAX = {TABLE_ROWS_MAX}"
        )
    if samples > SPACETIME_SAMPLES_MAX:
        raise ConfigError(
            f"{key} too large: {what} = {samples} exceeds "
            f"SPACETIME_SAMPLES_MAX = {SPACETIME_SAMPLES_MAX}"
        )


def _library(check, *args):
    """Run a library constructor or check; its ValueError is a ConfigError."""
    try:
        return check(*args)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def validate_config(config: ExperimentConfig, command: str) -> None:
    """Reject values the command cannot run with; `reconstruct` reads `tol` as
    its block tolerance. The rules of the grid (its floating-point range
    included), the mass interval, reconstruct's weight and masslimit's
    rounding are the library's (`SpatialGrid`, `MassInterval`,
    `reconstruction_weight`, `check_massless_grid`), run here with their own
    messages, and `wick_order` is bounded by `state.WICK_ARGUMENTS_MAX`.
    Checked here are finiteness, the size caps (with the overflow of m^2,
    m_hi^2 and the evolve phase past the grid's `eigenvalue_bound`), each
    command's counts, the seed, the time-window rules and the T_START
    ceiling."""
    for key, default in ExperimentConfig._field_defaults.items():
        if isinstance(default, float) and not math.isfinite(getattr(config, key)):
            raise ConfigError(f"{key} must be finite")
    # every command holds n-vectors; three write one table row per mode
    rows = config.n if command in ("spectrum", "signature", "crosscheck") else 0
    _check_size("n", rows, config.n, "grid points")
    grid = _library(SpatialGrid, config.n, config.l)
    # the lattice frequencies reach sqrt(m^2 + 4 / h^2) (massdecomp and
    # masslimit do not read m); products, so no check raises OverflowError
    bound = grid.eigenvalue_bound
    if config.m < 0.0:
        raise ConfigError("mass must be nonnegative")
    if command not in ("massdecomp", "masslimit") and math.isinf(config.m * config.m + bound):
        raise ConfigError("mass too large: m^2 + 4 / h^2 overflows")
    if config.seed < 0:
        raise ConfigError("seed must be nonnegative")
    for name in ("dt", "tol", "t_ceiling", "half_width"):
        if getattr(config, name) <= 0.0:
            raise ConfigError(f"{name} must be positive")
    if command in ("massdecomp", "reconstruct"):
        interval = _library(massfamily.MassInterval, config.m_lo, config.m_hi)
        # the mass rules' frequencies reach sqrt(m_hi^2 + 4 / h^2)
        if math.isinf(config.m_hi * config.m_hi + bound):
            raise ConfigError("m_hi too large: m_hi^2 + 4 / h^2 overflows")
        first_end = 2.0 * massfamily.T_START  # where the first stage ends
        if config.t_ceiling < first_end:
            raise ConfigError(
                f"t_ceiling = {config.t_ceiling:g} is below 2 * T_START = {first_end:g}"
            )
    if command == "masslimit":
        _library(check_massless_grid, grid)
    if command == "reconstruct":
        _library(reconstruction_weight, config.m, config.half_width, config.tol, interval)
    # wick pairs 2 wick_order sources
    if command == "wick" and not 1 <= config.wick_order <= WICK_ARGUMENTS_MAX // 2:
        raise ConfigError(f"wick_order must be between 1 and {WICK_ARGUMENTS_MAX // 2}")
    counts = {"evolve": "samples", "state": "trials", "massdecomp": "families"}
    if command in counts and getattr(config, counts[command]) < 1:
        raise ConfigError(f"{counts[command]} must be positive")
    if command == "evolve":  # one propagated n-mode pair per sample
        samples = config.samples
        _check_size("samples", samples, samples * config.n, "samples x grid points")
        if math.isinf(math.sqrt(config.m * config.m + bound) * abs(config.time)):
            raise ConfigError("time too large: the phase sqrt(m^2 + 4 / h^2) |time| overflows")
    if command == "massdecomp":  # the Gram contracts a (2, n, families, families) kernel
        f = config.families
        _check_size("families", f * (f + 1) // 2, f * f * config.n, "families^2 x grid points")
    if command in ("state", "green", "wick"):
        if not config.window > 0.0:
            raise ConfigError("window must be positive")
        # the random sources' Gaussian profiles square distances of up to 0.75 l
        if math.isinf(config.l * config.l):
            raise ConfigError("grid length too large: l^2 overflows in the random sources")
        # time_window takes at most window / dt + 3 nodes; green also halves dt,
        # so it doubles the count (a halved dt may round to 0)
        refine = 2 if command == "green" else 1
        samples = (refine * (config.window / config.dt) + 3) * config.n
        if samples > SPACETIME_SAMPLES_MAX:
            raise ConfigError(
                "window / dt too large: a spacetime array would exceed "
                f"{SPACETIME_SAMPLES_MAX} samples (time nodes x grid points)"
            )
        # the node spacing, about min(dt, window / 2), is squared by the Green layer
        dt = config.dt / refine
        for step in {min(dt, config.window / 2), min(config.dt, config.window / 2)}:
            if not sys.float_info.min <= step * step < math.inf:
                raise ConfigError(f"time step min(dt, window / 2) = {step:g} squared "
                                  "leaves the normal float range")
        # time_window takes 3 nodes whatever dt says once ceil(window / dt) <= 2
        if math.ceil(config.window / config.dt) <= 2:
            raise ConfigError(f"window / dt = {config.window / config.dt:g} is at most 2: "
                              "the time grid would have 3 nodes whatever dt is")
        trials = min(config.trials, SUITE_SAMPLES_MAX)  # no float overflow
        if command == "state" and trials * (samples + trials) > SUITE_SAMPLES_MAX:
            raise ConfigError(
                "trials too large: the state suite would hold more than "
                f"SUITE_SAMPLES_MAX = {SUITE_SAMPLES_MAX} complex values"
            )
