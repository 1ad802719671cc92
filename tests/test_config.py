import pytest

from kgsig.config import (
    SPACETIME_SAMPLES_MAX,
    SUITE_SAMPLES_MAX,
    SECTIONS,
    TABLE_ROWS_MAX,
    ConfigError,
    ExperimentConfig,
    load_config,
    validate_config,
)
from kgsig.dynamics import time_window
from kgsig.massfamily import MassInterval, interval_weight
from kgsig.signature import BLOCK_TOL_DEFAULT

# reconstruct reads tol as its block tolerance: the CLI's default for it
RECONSTRUCT_TOL = {"tol": BLOCK_TOL_DEFAULT}


def test_defaults_load_without_file():
    config = load_config(None)
    assert config == ExperimentConfig()
    assert config.n == 16
    assert config.m_lo < config.m - config.half_width
    assert config.m + config.half_width < config.m_hi


def test_defaults_validate_for_every_command():
    config = load_config(None)
    for command in (
        "spectrum",
        "evolve",
        "green",
        "signature",
        "massdecomp",
        "reconstruct",
        "state",
        "masslimit",
        "crosscheck",
        "wick",
    ):
        tol = BLOCK_TOL_DEFAULT if command == "reconstruct" else config.tol
        validate_config(config._replace(tol=tol), command)
    # the file default tol = 1e-6 is too tight a block tolerance for half_width 0.05
    with pytest.raises(ConfigError, match="half-width too large"):
        validate_config(config, "reconstruct")


def test_file_overrides_defaults(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[grid]\nn = 8\nl = 5.0\n\n[run]\nseed = 7\n")
    config = load_config(path)
    assert (config.n, config.l, config.seed) == (8, 5.0, 7)
    assert config.m == ExperimentConfig().m


def test_unknown_section_rejected(tmp_path):
    path = tmp_path / "run.ini"
    # configparser's [DEFAULT] was ignored alone and copied into every section
    for text in ("[grids]\nn = 8\n", "[DEFAULT]\nn = 8\n", "[DEFAULT]\nn = 8\n[grid]\nl = 5\n"):
        path.write_text(text)
        with pytest.raises(ConfigError, match="unknown config section"):
            load_config(path)


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[grid]\npoints = 8\n")
    with pytest.raises(ConfigError, match="unknown key"):
        load_config(path)


def test_config_that_is_not_utf8_rejected(tmp_path):
    path = tmp_path / "run.ini"
    path.write_bytes(b"[grid]\nn = 8 ; \xff\n")
    with pytest.raises(ConfigError, match="not UTF-8"):
        load_config(path)


def test_bad_cast_reports_key_and_type(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[grid]\nn = sixteen\n")
    with pytest.raises(ConfigError, match="'n' in \\[grid\\] expects int"):
        load_config(path)
    # a % is part of the value, not an interpolation (which raised outside ConfigError)
    for value in ("%(l)s", "1%"):
        path.write_text(f"[grid]\nl = 5\n\n[mass]\nm = {value}\n")
        with pytest.raises(ConfigError, match="'m' in \\[mass\\] expects float"):
            load_config(path)


def test_interval_must_avoid_zero():
    config = ExperimentConfig(m_lo=0.0)
    with pytest.raises(ConfigError, match="0 ∉ Ī"):
        validate_config(config, "massdecomp")
    validate_config(config, "spectrum")  # interval unused there


def test_interval_must_be_ordered():
    config = ExperimentConfig(m_lo=2.0, m_hi=1.0)
    with pytest.raises(ConfigError, match="m_lo < m_hi"):
        validate_config(config, "massdecomp")


def test_reconstruction_window_must_sit_inside_interval():
    config = ExperimentConfig(m=1.0)  # [0.95, 1.05] leaks below m_lo = 1
    with pytest.raises(ConfigError, match="support outside I"):
        validate_config(config, "reconstruct")
    validate_config(config, "massdecomp")
    # the window may fill the closed interval: [1.45, 1.55] around m = 1.5
    validate_config(ExperimentConfig(m_lo=1.45, m_hi=1.55, **RECONSTRUCT_TOL), "reconstruct")


def test_scalar_bounds():
    with pytest.raises(ConfigError, match="interior point"):
        validate_config(ExperimentConfig(n=0), "spectrum")
    with pytest.raises(ConfigError, match="dt must be positive"):
        validate_config(ExperimentConfig(dt=0.0), "spectrum")
    with pytest.raises(ConfigError, match="wick_order"):
        validate_config(ExperimentConfig(wick_order=5), "wick")
    with pytest.raises(ConfigError, match="trials"):
        validate_config(ExperimentConfig(trials=0), "state")
    with pytest.raises(ConfigError, match="mass must be nonnegative"):
        validate_config(ExperimentConfig(m=-1.0), "spectrum")


def test_state_trials_capped_by_the_suite_size():
    # checked only: the rejected counts are never allocated or run
    for trials in (10**9, 10**400):
        with pytest.raises(ConfigError, match="SUITE_SAMPLES_MAX"):
            validate_config(ExperimentConfig(trials=trials), "state")
    # 241 nodes x 64 points as in the bench state config: about 6200 trials fit
    validate_config(ExperimentConfig(n=64, dt=0.025, trials=6000), "state")
    assert 6000 * (241 * 64 + 6000) <= SUITE_SAMPLES_MAX
    with pytest.raises(ConfigError, match="SUITE_SAMPLES_MAX"):
        validate_config(ExperimentConfig(n=64, dt=0.025, trials=6500), "state")
    for command in ("wick", "green", "massdecomp"):
        validate_config(ExperimentConfig(trials=10**9), command)


def test_evolve_and_massdecomp_size_caps_sit_at_their_boundaries():
    # the largest accepted counts, then one more: validation builds nothing
    validate_config(ExperimentConfig(n=1, samples=TABLE_ROWS_MAX), "evolve")
    with pytest.raises(ConfigError, match="TABLE_ROWS_MAX"):
        validate_config(ExperimentConfig(n=1, samples=TABLE_ROWS_MAX + 1), "evolve")
    n = 1024
    validate_config(ExperimentConfig(n=n, samples=SPACETIME_SAMPLES_MAX // n), "evolve")
    with pytest.raises(ConfigError, match="SPACETIME_SAMPLES_MAX"):
        validate_config(ExperimentConfig(n=n, samples=SPACETIME_SAMPLES_MAX // n + 1), "evolve")
    # 361 families make 65341 pairs, 362 make 65703
    validate_config(ExperimentConfig(n=1, families=361), "massdecomp")
    with pytest.raises(ConfigError, match="TABLE_ROWS_MAX"):
        validate_config(ExperimentConfig(n=1, families=362), "massdecomp")
    # 64^2 x 1024 = 2^22 Gram operand entries
    validate_config(ExperimentConfig(n=n, families=64), "massdecomp")
    with pytest.raises(ConfigError, match="SPACETIME_SAMPLES_MAX"):
        validate_config(ExperimentConfig(n=n, families=65), "massdecomp")
    for command in ("spectrum", "state", "reconstruct"):  # read neither count
        validate_config(ExperimentConfig(samples=10**9, families=10**9, **RECONSTRUCT_TOL), command)


def test_grid_size_caps_sit_at_their_boundaries():
    # spectrum, signature and crosscheck write a row per mode; every command
    # holds n-vectors. Validation builds nothing
    for command in ("spectrum", "signature", "crosscheck"):
        validate_config(ExperimentConfig(n=TABLE_ROWS_MAX), command)
        with pytest.raises(ConfigError, match="n too large.*TABLE_ROWS_MAX"):
            validate_config(ExperimentConfig(n=TABLE_ROWS_MAX + 1), command)
    # an l that keeps masslimit's smallest mass above the rounding of lambda
    n, l = SPACETIME_SAMPLES_MAX, 1e7
    for command in ("reconstruct", "masslimit", "evolve", "massdecomp"):
        config = ExperimentConfig(l=l, samples=1, families=1, **RECONSTRUCT_TOL)
        validate_config(config._replace(n=n), command)
        with pytest.raises(ConfigError, match="n too large.*SPACETIME_SAMPLES_MAX"):
            validate_config(config._replace(n=n + 1), command)


def test_massdecomp_checks_families_not_trials():
    with pytest.raises(ConfigError, match="families"):
        validate_config(ExperimentConfig(families=0), "massdecomp")
    validate_config(ExperimentConfig(trials=0), "massdecomp")


@pytest.mark.parametrize("key", ["l", "tol", "window"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_floats_rejected(key, value):
    with pytest.raises(ConfigError, match=f"{key} must be finite"):
        validate_config(ExperimentConfig(**{key: value}), "spectrum")


def test_as_dict_round_trips_sections():
    d = ExperimentConfig().as_dict()
    assert set(d) == {"grid", "mass", "quadrature", "run"}
    assert [key for keys in SECTIONS.values() for key in keys] == list(ExperimentConfig._fields)
    assert d["grid"]["n"] == 16
    assert d["quadrature"]["t_ceiling"] == 51200.0


@pytest.mark.parametrize("m_hi", [1e20, 1e150, 1e160])
@pytest.mark.parametrize("command", ["massdecomp", "reconstruct"])
def test_interval_too_wide_for_its_midpoint_form(m_hi, command):
    # 0.5 * (1 + m_hi) - 0.5 * (m_hi - 1) rounds to 0: the weight would leave I
    with pytest.raises(ConfigError, match="too wide"):
        validate_config(ExperimentConfig(m_hi=m_hi), command)
    with pytest.raises(ValueError, match="too wide"):
        MassInterval(1.0, m_hi)


def test_widest_exact_interval_still_builds_its_weight():
    interval = MassInterval(1.0, 1e15)  # midpoint form still exact here
    weight = interval_weight(interval)
    assert weight.center - weight.half_width == 1.0
    validate_config(ExperimentConfig(m_hi=1e15), "massdecomp")


@pytest.mark.parametrize("command", ["massdecomp", "reconstruct"])
def test_m_hi_whose_square_overflows_rejected(command):
    # the mass rules square the weight's upper edge: 1.34e154 squares to
    # 1.796e308, 1.5e154 overflows (an OverflowError in the Gram before)
    edge = dict(m=1.2e154, half_width=1e153, m_lo=1e154, **RECONSTRUCT_TOL)
    validate_config(ExperimentConfig(m_hi=1.34e154, **edge), command)
    for m_hi in (1.5e154, 2e154):
        with pytest.raises(ConfigError, match="m_hi too large"):
            validate_config(ExperimentConfig(m_hi=m_hi, **edge), command)
    validate_config(ExperimentConfig(m_hi=1.5e154, **edge), "spectrum")  # reads no m_hi


@pytest.mark.parametrize("command, dt_scale", [("state", 1), ("wick", 1), ("green", 2)])
def test_largest_accepted_window_stays_within_the_sample_cap(command, dt_scale):
    # the cap must bound what time_window really builds, green's dt / 2 included
    n, dt = 16, 0.05
    window = (SPACETIME_SAMPLES_MAX / n - 3) * (dt / dt_scale)
    validate_config(ExperimentConfig(n=n, dt=dt, window=window), command)
    times = time_window(-window / 2, window / 2, dt / dt_scale)
    assert times.size * n <= SPACETIME_SAMPLES_MAX
    with pytest.raises(ConfigError, match="window / dt"):
        validate_config(ExperimentConfig(n=n, dt=dt, window=1.01 * window), command)


def test_bench_causal_configs_sit_far_below_the_sample_cap():
    for dt in (0.05, 0.025):
        config = ExperimentConfig(n=64, dt=dt)
        for command in ("state", "wick", "green"):
            validate_config(config, command)
    assert 100 * 481 * 64 < SPACETIME_SAMPLES_MAX
