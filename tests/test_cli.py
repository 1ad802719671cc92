import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import kgsig
from kgsig import massfamily, signature
from kgsig.cli import (
    _COMMANDS,
    _USAGE,
    _write_csv,
    _write_json,
    cmd_crosscheck,
    cmd_evolve,
    cmd_masslimit,
    cmd_signature,
    cmd_spectrum,
    main,
    parse_args,
)
from kgsig.config import SECTIONS, ExperimentConfig
from kgsig.lattice import SpatialGrid, dirichlet_basis
from kgsig.minkowski import cauchy_signature_blocks
from kgsig.signature import block_eigenvalues, signature_analytic

SMALL = "[grid]\nn = 4\nl = 6.0\n\n[quadrature]\ntol = 1e-5\n\n[run]\nfamilies = 3\n"


def run(tmp_path, args, config_text=None):
    argv = list(args) + ["--out", str(tmp_path / "out"), "--quiet"]
    if config_text is not None:
        path = tmp_path / "run.ini"
        path.write_text(config_text)
        argv += ["--config", str(path)]
    return main(argv), tmp_path / "out"


def read_summary(out_dir, command):
    return json.loads((out_dir / f"{command}_summary.json").read_text())


def test_spectrum_writes_summary_and_table(tmp_path):
    code, out = run(tmp_path, ["spectrum"], SMALL)
    assert code == 0
    summary = read_summary(out, "spectrum")
    assert summary["results"]["num_modes"] == 4
    assert summary["results"]["all_positive"] is True
    with (out / "spectrum_modes.csv").open() as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["mode", "eigenvalue", "frequency"]
    assert len(rows) == 5
    # serialized floats round-trip exactly
    lam0 = float(rows[1][1])
    assert lam0 == summary["results"]["min_eigenvalue"]
    text = (out / "spectrum_summary.json").read_text()
    assert text == json.dumps(summary, indent=2) + "\n"


def test_signature_two_mode_example(tmp_path):
    # unit spacing: l = 3 with two interior points puts the eigenvalues at
    # 4 sin^2(k pi / 6), i.e. 1 and 3, with frequencies sqrt(2) and 2 at m = 1
    code, out = run(
        tmp_path, ["signature"], "[grid]\nn = 2\nl = 3.0\n\n[mass]\nm = 1.0\n"
    )
    assert code == 0
    summary = read_summary(out, "signature")
    assert summary["results"]["max_deviation_from_pi"] < 1e-12
    assert summary["results"]["negative_count"] == 2
    assert summary["results"]["positive_count"] == 2
    with (out / "signature_spectrum.csv").open() as handle:
        rows = list(csv.reader(handle))[1:]
    lams = [float(r[1]) for r in rows]
    oms = [float(r[2]) for r in rows]
    assert np.allclose(lams, [1.0, 3.0], atol=1e-12)
    assert np.allclose(oms, [np.sqrt(2.0), 2.0], atol=1e-12)
    for r in rows:
        assert abs(float(r[3]) + np.pi) < 1e-12
        assert abs(float(r[4]) - np.pi) < 1e-12


def test_bad_interval_exits_2(tmp_path, capsys):
    code, _ = run(tmp_path, ["massdecomp"], "[mass]\nm_lo = 0.0\n")
    assert code == 2
    assert "0 ∉" in capsys.readouterr().err
    # a half-width that rounds to 0 built no weight: this ended in a traceback
    code, _ = run(tmp_path, ["massdecomp"], "[mass]\nm_lo = 5e-324\nm_hi = 1e-323\n")
    assert code == 2
    assert "too wide" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args, text, library",
    [
        (["spectrum"], "[grid]\nn = 0\n", lambda: SpatialGrid(0, 10.0)),
        (["spectrum"], "[grid]\nl = 0\n", lambda: SpatialGrid(16, 0.0)),
        (["spectrum"], "[grid]\nl = 1e-160\n", lambda: SpatialGrid(16, 1e-160)),
        (["masslimit"], "[grid]\nl = 1e-5\n",
         lambda: signature.massless_limit(dirichlet_basis(16, 1e-5))),
        (["masslimit"], "[grid]\nl = 1e155\n",
         lambda: signature.massless_limit(dirichlet_basis(16, 1e155))),
        (["massdecomp"], "[mass]\nm_lo = 0\n", lambda: massfamily.MassInterval(0.0, 2.0)),
        (["massdecomp"], "[mass]\nm_lo = 2\nm_hi = 1\n",
         lambda: massfamily.MassInterval(2.0, 1.0)),
        (["massdecomp"], "[mass]\nm_hi = 1e160\n", lambda: massfamily.MassInterval(1.0, 1e160)),
        (["reconstruct"], "[mass]\nm = 1.0\n", lambda: signature.reconstruction_weight(
            1.0, 0.05, signature.BLOCK_TOL_DEFAULT, massfamily.MassInterval(1.0, 2.0))),
        (["reconstruct"], "[mass]\nm = 0.04\n", lambda: signature.reconstruction_weight(
            0.04, 0.05, signature.BLOCK_TOL_DEFAULT, massfamily.MassInterval(1.0, 2.0))),
        (["reconstruct", "--tol", "1e-5"], "", lambda: signature.reconstruction_weight(
            1.5, 0.05, 1e-5, massfamily.MassInterval(1.0, 2.0))),
    ],
    ids=["n", "l", "spacing", "masslimit-spacing", "masslimit-coarse", "m_lo", "order", "too-wide", "support",
         "positive-mass", "half-width"],
)
def test_config_error_is_the_library_error(tmp_path, capsys, args, text, library):
    # validate_config restates no rule of the grid, the interval, the weight or
    # the massless table: the message is the library's own for the same values
    with pytest.raises(ValueError) as raised:
        library()
    code, out = run(tmp_path, args, text)
    assert code == 2
    assert capsys.readouterr().err == f"configuration error: {raised.value}\n"
    assert not out.exists()


def test_malformed_value_exits_2(tmp_path, capsys):
    code, _ = run(tmp_path, ["spectrum"], "[grid]\nn = sixteen\n")
    assert code == 2
    assert "expects int" in capsys.readouterr().err


@pytest.mark.parametrize("length", ["0", "-1"])
def test_grid_length_that_is_not_positive_exits_2(tmp_path, capsys, length):
    code, out = run(tmp_path, ["spectrum"], f"[grid]\nl = {length}\n")
    assert code == 2
    assert "grid length must be positive" in capsys.readouterr().err
    assert not out.exists()


def test_dephasing_stall_on_a_short_grid_names_its_t(tmp_path, capsys):
    # at l = 1e-7 lambda ~ 1e17 dwarfs m^2: sqrt(lam + hi^2) - sqrt(lam + lo^2)
    # cancelled to 0 and named no T, though T = 1.4e9 dephases every mode
    code, out = run(tmp_path, ["massdecomp"], "[grid]\nl = 1e-7\n")
    assert code == 3
    assert "it needs T = 2 pi / min spread = 1.41811e+09" in capsys.readouterr().err
    assert not out.exists()


def test_reconstruct_window_may_fill_the_interval(tmp_path):
    # [m - half_width, m + half_width] = [1.45, 1.55] is the interval's
    # closure; the deviations do not depend on the interval (A6)
    results = []
    for text in ("[mass]\nm_lo = 1.45\nm_hi = 1.55\n", ""):
        code, out = run(tmp_path, ["reconstruct"], text)
        assert code == 0
        results.append(read_summary(out, "reconstruct")["results"])
    assert results[0] == results[1]
    assert results[0]["deviation_at_half_width"] == 6.013554976265212e-4
    assert results[0]["deviation_at_halved"] == 1.5033890795201899e-4


def test_stalled_convergence_exits_3(tmp_path, capsys):
    text = (
        "[grid]\nn = 2\nl = 3.0\n\n"
        "[quadrature]\ntol = 1e-30\nt_ceiling = 400\n\n"
        "[run]\nfamilies = 2\n"
    )
    code, _ = run(tmp_path, ["massdecomp"], text)
    assert code == 3
    assert "did not converge" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["massdecomp", "reconstruct"])
def test_ceiling_below_first_stage_exits_2(tmp_path, capsys, command):
    # the first doubling stage [T_START, 2 T_START] would already end past it
    code, out = run(tmp_path, [command], "[quadrature]\nt_ceiling = 300\n")
    assert code == 2
    err = capsys.readouterr().err
    assert "t_ceiling = 300" in err and "2 * T_START = 400" in err
    assert not (out / f"{command}_summary.json").exists()


def test_rerun_is_byte_identical_except_meta(tmp_path):
    config = tmp_path / "run.ini"
    config.write_text(SMALL)
    for name in ("a", "b"):
        code = main(
            ["massdecomp", "--config", str(config), "--out", str(tmp_path / name), "--quiet"]
        )
        assert code == 0
    names_a = sorted(p.name for p in (tmp_path / "a").iterdir())
    names_b = sorted(p.name for p in (tmp_path / "b").iterdir())
    assert names_a == names_b and "massdecomp_meta.json" in names_a
    for name in names_a:
        if name == "massdecomp_meta.json":
            continue
        assert (tmp_path / "a" / name).read_bytes() == (
            tmp_path / "b" / name
        ).read_bytes()


def test_massdecomp_matches_identity(tmp_path):
    for families in (3, 100):
        text = SMALL.replace("families = 3", f"families = {families}")
        code, out = run(tmp_path, ["massdecomp"], text)  # rewrites both files
        assert code == 0
        results = read_summary(out, "massdecomp")["results"]
        assert results["converged"] is True
        assert results["pair_count"] == families * (families - 1) // 2
        assert results["max_relative_error"] < 1e-5
        with open(out / "massdecomp_pairs.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        # every pair once, diagonal included, row by row of the upper triangle
        assert [(int(r["i"]), int(r["j"])) for r in rows] == [
            (i, j) for i in range(families) for j in range(i, families)
        ]
        assert results["max_relative_error"] == max(float(r["relative_error"]) for r in rows)


def test_seed_override_changes_wick_value(tmp_path):
    values = []
    for seed in ("0", "1"):
        code = main(
            [
                "wick",
                "--config",
                str(write_config(tmp_path, SMALL)),
                "--out",
                str(tmp_path / f"s{seed}"),
                "--seed",
                seed,
                "--quiet",
            ]
        )
        assert code == 0
        summary = json.loads((tmp_path / f"s{seed}" / "wick_summary.json").read_text())
        assert summary["config"]["run"]["seed"] == int(seed)
        assert summary["results"]["odd_case_re"] == 0
        values.append(summary["results"]["value_re"])
    assert values[0] != values[1]


def write_config(tmp_path, text):
    path = tmp_path / "run.ini"
    path.write_text(text)
    return path


def test_quiet_flag_silences_stdout(tmp_path, capsys):
    code, _ = run(tmp_path, ["spectrum"], SMALL)
    assert code == 0
    assert capsys.readouterr().out == ""
    code = main(["spectrum", "--out", str(tmp_path / "loud")])
    assert code == 0
    text = capsys.readouterr().out
    assert "num_modes" in text and "wrote" in text


def test_meta_carries_runtime_only(tmp_path):
    _, out = run(tmp_path, ["spectrum"], SMALL)
    meta = json.loads((out / "spectrum_meta.json").read_text())
    assert set(meta) == {"command", "runtime_seconds"}
    assert meta["runtime_seconds"] >= 0.0


def test_state_command_reports_positivity(tmp_path):
    text = SMALL + "trials = 5\n"
    code, out = run(tmp_path, ["state"], text)
    assert code == 0
    results = read_summary(out, "state")["results"]
    assert results["min_gram_eigenvalue"] > -1e-10
    assert results["ccr_identity_worst"] < 1e-5


def test_non_finite_value_exits_2(tmp_path, capsys):
    code, out = run(tmp_path, ["evolve"], "[mass]\nm = nan\n")
    assert code == 2
    assert "m must be finite" in capsys.readouterr().err
    assert not (out / "evolve_summary.json").exists()


def test_worst_case_drift_keeps_nan(monkeypatch):
    # the mass guards refuse NaN, so NaN propagated data stand in for it
    with pytest.raises(ValueError, match="nonnegative"):
        cmd_evolve(ExperimentConfig(n=4, m=float("nan"), samples=3), dirichlet_basis(4, 10.0))
    monkeypatch.setattr("kgsig.cli.propagate", lambda datum, t, mass: datum * float("nan"))
    results, _ = cmd_evolve(ExperimentConfig(n=4, samples=3), dirichlet_basis(4, 10.0))
    assert np.isnan(results["max_symplectic_drift"])
    assert np.isnan(results["max_norm_drift"])


@pytest.mark.parametrize("value", [float("nan"), float("inf"), np.float64("-inf")])
def test_render_json_refuses_non_finite(tmp_path, value):
    with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
        _write_json(tmp_path / "s.json", {"results": {"x": value}})
    assert not (tmp_path / "s.json").exists()


def test_zero_families_exits_2(tmp_path, capsys):
    code, _ = run(tmp_path, ["massdecomp"], "[run]\nfamilies = 0\n")
    assert code == 2
    assert "families must be positive" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, text, message",
    [
        # a 2.33 TiB Gram operand, and a 1e8-row drift table
        ("massdecomp", "[run]\nfamilies = 100000\n", "families too large"),
        ("evolve", "[run]\nsamples = 100000000\n", "samples too large"),
    ],
    ids=["massdecomp-families1e5", "evolve-samples1e8"],
)
def test_size_caps_exit_2_before_any_draw(tmp_path, capsys, monkeypatch, command, text, message):
    def no_draw(*args, **kwargs):
        raise AssertionError("data were drawn before validation")

    monkeypatch.setattr("kgsig.cli.random_datum", no_draw)
    code, out = run(tmp_path, [command], text)
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (out / f"{command}_summary.json").exists()


def test_reconstruct_tolerance_below_width_error_exits_2(tmp_path, capsys):
    code, _ = run(tmp_path, ["reconstruct", "--tol", "1e-5"])
    assert code == 2
    assert "half-width too large" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["state", "green", "wick"])
def test_empty_window_exits_2(tmp_path, capsys, command):
    code, _ = run(tmp_path, [command], "[run]\nwindow = 0\n")
    assert code == 2
    assert "window must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("samples", [0, -1])
def test_evolve_without_samples_exits_2(tmp_path, capsys, samples):
    code, out = run(tmp_path, ["evolve"], f"[run]\nsamples = {samples}\n")
    assert code == 2
    assert "samples must be positive" in capsys.readouterr().err
    assert not (out / "evolve_summary.json").exists()


@pytest.mark.parametrize("time, code", [("1e308", 2), ("-1e308", 2), ("100", 0), ("-50", 0)])
def test_evolve_time_whose_phases_overflow_exits_2(tmp_path, capsys, time, code):
    # omega t overflowed to inf, sin and cos gave NaN, and the summary's
    # JSON rendering raised: exit 1 with a traceback
    assert run(tmp_path, ["evolve"], f"[run]\ntime = {time}\n")[0] == code
    err = capsys.readouterr().err
    assert ("time too large" in err) == (code == 2) and "Traceback" not in err


HUGE_STEP = "[quadrature]\ndt = {0}\n\n[run]\nwindow = {0}\n"


@pytest.mark.parametrize(
    "command, text, code, message",
    [
        ("green", "[run]\nwindow = 1e-160\n", 2, "time step min(dt, window / 2) = 5e-161 squared"),
        ("green", "[run]\nwindow = 1e-155\n", 2, "time step min(dt, window / 2) = 5e-156 squared"),
        ("green", HUGE_STEP.format("1e200"), 2, "time step min(dt, window / 2) = 5e+199 squared"),
        ("state", HUGE_STEP.format("1e200"), 2, "time step min(dt, window / 2) = 5e+199 squared"),
        ("wick", HUGE_STEP.format("1e200"), 2, "time step min(dt, window / 2) = 5e+199 squared"),
        ("wick", HUGE_STEP.format("1e100"), 2, "window / dt = 1 is at most 2"),
        ("wick", "[quadrature]\ndt = 1e100\n\n[run]\nwindow = 1e101\n", 3,
         "non-finite result: result value_re;"),
        ("green", "[run]\nwindow = 1e-100\n", 2, "window / dt = 2e-99 is at most 2"),
        ("green", HUGE_STEP.format("1e150"), 2, "window / dt = 1 is at most 2"),
        ("state", HUGE_STEP.format("1e150"), 2, "window / dt = 1 is at most 2"),
        ("wick", "[run]\nwindow = 0.1\n", 2, "window / dt = 2 is at most 2"),
        ("green", "[quadrature]\ndt = 5e-324\n", 2, "window / dt too large"),
    ],
    ids=["green-w1e-160", "green-w1e-155", "green-1e200", "state-1e200", "wick-1e200",
         "wick-1e100", "wick-1e100-w1e101", "green-w1e-100", "green-1e150", "state-1e150",
         "wick-w0.1", "green-dt5e-324"],
)
def test_extreme_time_steps_exit_2_or_3(tmp_path, capsys, recwarn, command, text, code, message):
    # these ended in tracebacks: a node spacing squared to a subnormal or to
    # inf (NaN residuals, OverflowError, LinAlgError), or Wick products
    # overflowing to NaN; a window of at most 2 dt ran on 3 time nodes
    # whatever dt said (green ratio 1, state Gram eigenvalue -3.6e283); green's
    # halved dt = 5e-324 rounded to 0 and divided the window
    assert run(tmp_path, [command], text)[0] == code
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_green_residual_past_the_float_range_exits_3_without_warnings(tmp_path, capsys, recwarn):
    # at m = 1e154 the squares in the residual norm overflowed and cmd_green
    # divided inf by inf: three RuntimeWarnings (a traceback as errors), exit 3
    code, out = run(tmp_path, ["green"], "[mass]\nm = 1e154\n\n[run]\nwindow = 100\n")
    assert code == 3
    err = capsys.readouterr().err
    assert err == "non-finite result: result retarded_refinement_ratio; nothing was written\n"
    assert not out.exists()
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("window", ["1e-150", "1e-100"])
@pytest.mark.parametrize("command", ["green", "state", "wick"])
def test_tiny_windows_whose_step_squares_still_run(tmp_path, command, window):
    dt = float(window) / 100
    text = f"[quadrature]\ndt = {dt!r}\n\n[run]\nwindow = {window}\n"
    assert run(tmp_path, [command], text)[0] == 0


def test_non_finite_table_cell_exits_3_and_writes_nothing(tmp_path, capsys, monkeypatch):
    def nan_row(config, basis):
        return {"x": 1.0}, {"t": {"k": range(2), "label": ["a", "b"], "value": [1.0, np.nan]}}

    monkeypatch.setattr(kgsig.cli, "cmd_spectrum", nan_row)
    assert run(tmp_path, ["spectrum"])[0] == 3
    assert "non-finite result: t column value" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_write_csv_matches_the_per_cell_rule(tmp_path):
    columns = {
        "i": [0, np.int64(1), 2, np.int64(3), 4],
        "x": (1.5, np.float64(1e300), -0.0, np.float64(-0.0), 0.1),
        "s": ["a", "b", "c", "d", "e"],
        "b": [True, np.bool_(False), False, np.True_, True],
    }
    _write_csv(tmp_path / "t.csv", columns)
    rows = zip(*columns.values())
    lines = ["i,x,s,b"] + [f"{i},{format(x, '.17g')},{s},{b}" for i, x, s, b in rows]
    assert (tmp_path / "t.csv").read_bytes() == ("\n".join(lines) + "\n").encode()
    # numpy columns format as their cells would
    _write_csv(tmp_path / "n.csv", {"i": np.arange(2), "x": np.array([0.1, -0.0])})
    assert (tmp_path / "n.csv").read_text() == "i,x\n0,0.10000000000000001\n1,-0\n"
    # the first row's cell types set the template: an int cell under a float
    # column is formatted as a float, a float cell under an int column by str
    _write_csv(tmp_path / "u.csv", {"i": [0, 0.1], "x": [0.1, 2]})
    assert (tmp_path / "u.csv").read_text() == "i,x\n0,0.10000000000000001\n0.1,2\n"


@pytest.mark.parametrize("short", ["i", "x"])
def test_write_csv_refuses_a_ragged_table_before_writing(tmp_path, short):
    columns = {"i": range(3), "x": [0.5, 1.5, 2.5]}
    columns[short] = columns[short][:2]
    with pytest.raises(ValueError, match="columns differ in length"):
        _write_csv(tmp_path / "r.csv", columns)
    assert not (tmp_path / "r.csv").exists()


def test_a_shared_directory_ends_as_fresh_ones(tmp_path):
    # each output replaces the one before it: two commands run twice into one
    # directory leave the files that each writes into a directory of its own,
    # the same bytes but for each command's runtime
    config = tmp_path / "run.ini"
    config.write_text(SMALL)
    commands = ("spectrum", "signature")
    for out, sequence in [("shared", commands * 2), *((c, (c,)) for c in commands)]:
        for command in sequence:
            argv = [command, "--config", str(config), "--out", str(tmp_path / out), "--quiet"]
            assert main(argv) == 0
    fresh = {p.name: p.read_bytes() for c in commands for p in (tmp_path / c).iterdir()}
    shared = {p.name: p.read_bytes() for p in (tmp_path / "shared").iterdir()}
    assert shared.keys() == fresh.keys()
    for name, text in shared.items():
        assert name.endswith("_meta.json") or text == fresh[name], name
    for command in commands:
        assert json.loads(shared[f"{command}_meta.json"])["command"] == command


@pytest.mark.parametrize(
    "name", ["spectrum_summary.json", "spectrum_modes.csv", "spectrum_meta.json"]
)
def test_an_output_that_is_a_link_is_replaced_not_written_through(tmp_path, name):
    target = tmp_path / "elsewhere.txt"
    target.write_text("kept\n")
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / name).symlink_to(target)
    code, out = run(tmp_path, ["spectrum"], SMALL)
    assert code == 0
    assert (out / name).is_file() and not (out / name).is_symlink()
    assert target.read_text() == "kept\n"
    assert read_summary(out, "spectrum")["results"]["num_modes"] == 4


def test_spectral_commands_call_no_lapack(monkeypatch):
    # the signature blocks' eigenvalues and vectors are closed forms, so the
    # five commands of the spectral benchmark never load LAPACK's code
    def refuse(*args, **kwargs):
        raise AssertionError("a spectral command called numpy.linalg")

    for name in ("eig", "eigh", "eigvals", "eigvalsh", "svd"):
        monkeypatch.setattr(np.linalg, name, refuse)
    config = ExperimentConfig(n=1024)
    basis = dirichlet_basis(config.n, config.l)
    for command in (cmd_spectrum, cmd_evolve, cmd_signature, cmd_masslimit, cmd_crosscheck):
        command(config, basis)


@pytest.mark.parametrize("n", [16, 1024])
@pytest.mark.parametrize("mass", [0.0, 1.5])
def test_signature_and_crosscheck_read_one_block_spectrum(mass, n):
    # both commands report signature.block_eigenvalues, bit for bit
    config = ExperimentConfig(n=n, m=mass)
    basis = dirichlet_basis(config.n, config.l)
    sig = signature_analytic(mass, basis)
    vals = block_eigenvalues(sig.blocks)
    results, tables = cmd_signature(config, basis)
    assert np.array_equal(tables["spectrum"]["eig_minus"], vals[:, 0])
    assert np.array_equal(tables["spectrum"]["eig_plus"], vals[:, 1])
    assert results["max_deviation_from_pi"] == np.abs(np.abs(vals) - np.pi).max()
    assert (results["negative_count"], results["positive_count"]) == (n, n)
    mink = block_eigenvalues(cauchy_signature_blocks(sig.frequencies))
    results, _ = cmd_crosscheck(config, basis)
    assert results["max_eigenvalue_deviation"] == np.abs(mink - [-np.pi, np.pi]).max()


def test_seed_and_tol_flags_override_the_file(tmp_path):
    text = "[quadrature]\ntol = 1e-7\n\n[run]\nseed = 5\n"
    code, out = run(tmp_path, ["spectrum"], text)
    assert code == 0
    config = read_summary(out, "spectrum")["config"]
    assert (config["run"]["seed"], config["quadrature"]["tol"]) == (5, 1e-7)
    code, out = run(tmp_path, ["spectrum", "--seed", "3", "--tol", "1e-9"], text)
    assert code == 0
    config = read_summary(out, "spectrum")["config"]
    assert (config["run"]["seed"], config["quadrature"]["tol"]) == (3, 1e-9)


@pytest.mark.parametrize(
    "text", ["n = 8\n", "[grid]\nn = 8\nn = 9\n"], ids=["no-section", "repeated-key"]
)
def test_unparsable_config_is_named_by_its_path(tmp_path, capsys, text):
    code, out = run(tmp_path, ["spectrum"], text)
    assert code == 2
    err = capsys.readouterr().err
    assert "cannot parse config" in err and repr(str(tmp_path / "run.ini")) in err
    assert not out.exists()


def test_reconstruct_echoes_the_tolerance_it_used(tmp_path):
    text = "[grid]\nn = 2\nl = 3.0\n\n[quadrature]\ntol = 1e-9\n"
    code, out = run(tmp_path, ["reconstruct"], text)
    assert code == 0
    summary = read_summary(out, "reconstruct")
    assert summary["results"]["block_tolerance"] == 1e-3
    assert summary["config"]["quadrature"]["tol"] == 1e-3


@pytest.mark.parametrize(
    "args, text",
    [(["--seed", "-1"], None), ([], "[run]\nseed = -3\n")],
    ids=["flag", "file"],
)
@pytest.mark.parametrize("command", ["evolve", "state", "wick", "green", "massdecomp"])
def test_negative_seed_exits_2(tmp_path, capsys, command, args, text):
    code, out = run(tmp_path, [command, *args], text)
    assert code == 2
    assert "seed must be nonnegative" in capsys.readouterr().err
    assert not (out / f"{command}_summary.json").exists()


@pytest.mark.parametrize(
    "command, text, message",
    [
        ("spectrum", "[mass]\nm = 1e200\n", "mass too large"),
        ("green", "[mass]\nm = 1e200\n", "mass too large"),
        ("state", "[mass]\nm = 1e200\n", "mass too large"),
        ("evolve", "[mass]\nm = 1e155\n", "mass too large"),
        ("spectrum", "[grid]\nl = 1e200\n", "grid spacing"),
        ("spectrum", "[grid]\nl = 1e-200\n", "grid spacing"),
        ("signature", "[grid]\nl = 1e-160\n", "grid spacing"),
        ("crosscheck", "[grid]\nl = 1e-160\n", "grid spacing"),
        ("massdecomp", "[mass]\nm_lo = 1e154\nm_hi = 1.5e154\n", "m_hi too large"),
        (
            "reconstruct",
            "[mass]\nm = 1.3e154\nhalf_width = 1e153\nm_lo = 1e154\nm_hi = 1.5e154\n",
            "m_hi too large",
        ),
        ("green", "[grid]\nn = 7\nl = 1e155\n", "l^2 overflows"),
        ("state", "[grid]\nn = 7\nl = 1e155\n", "l^2 overflows"),
        ("wick", "[grid]\nn = 7\nl = 1e155\n", "l^2 overflows"),
    ],
    ids=[
        "spectrum-m1e200",
        "green-m1e200",
        "state-m1e200",
        "evolve-m1e155",
        "spectrum-l1e200",
        "spectrum-l1e-200",
        "signature-l1e-160",
        "crosscheck-l1e-160",
        "massdecomp-m_hi1.5e154",
        "reconstruct-m_hi1.5e154",
        "green-l1e155",
        "state-l1e155",
        "wick-l1e155",
    ],
)
def test_extreme_magnitudes_exit_2(tmp_path, capsys, command, text, message):
    # m^2, m_hi^2, h^2, 4 / h^2 or the sources' l^2 leaves the float range:
    # these ended in tracebacks
    code, out = run(tmp_path, [command], text)
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (out / f"{command}_summary.json").exists()


@pytest.mark.parametrize(
    "command, text",
    [
        ("spectrum", "[mass]\nm = 1e154\n"),
        ("spectrum", "[grid]\nl = 1e150\n"),
        # massdecomp takes its masses from [m_lo, m_hi], not from m
        ("massdecomp", SMALL + "\n[mass]\nm = 1e200\n"),
    ],
    ids=["spectrum-m1e154", "spectrum-l1e150", "massdecomp-m1e200"],
)
def test_large_representable_magnitudes_still_run(tmp_path, command, text):
    code, _ = run(tmp_path, [command], text)
    assert code == 0


def _power_of_ten(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0**e)


# a moderate value for every config key
FUZZ_SECTIONS = {
    "grid": {"n": st.integers(1, 8), "l": st.floats(0.5, 50.0)},
    "mass": {
        "m": st.floats(0.0, 4.0),
        "m_lo": st.floats(0.0, 1.5),
        "m_hi": st.floats(1.5, 4.0),
        "half_width": _power_of_ten(-2.5, np.log10(0.5)),
    },
    "quadrature": {
        "dt": st.floats(0.01, 1.0),
        "tol": _power_of_ten(-8.0, -2.0),
        "t_ceiling": st.floats(0.0, 3200.0),
    },
    "run": {
        "seed": st.integers(-5, 1000),
        "trials": st.integers(-1, 8),
        "families": st.integers(-1, 6),
        "time": st.floats(-200.0, 200.0),
        "samples": st.integers(-1, 12),
        "window": st.floats(0.5, 12.0),
        "wick_order": st.integers(0, 5),
    },
}
# edge magnitudes of either sign, which an example puts into up to two keys
# (every key but n): most configs with more are rejected at the first check
FUZZ_EDGES = {
    float: st.sampled_from(
        [sign * x for x in (5e-324, 1e-300, 1e-155, 1e-8, 1e8, 1e155, 1e300) for sign in (1, -1)]
    ),
    int: st.sampled_from([10**12, -(10**12)]),
}
FUZZ_EDGE_KEYS = [(name, key) for name, keys in SECTIONS.items() for key in keys if key != "n"]


@st.composite
def fuzz_configs(draw):
    sections = {
        name: {key: draw(value) for key, value in keys.items()}
        for name, keys in FUZZ_SECTIONS.items()
    }
    for name, key in draw(st.lists(st.sampled_from(FUZZ_EDGE_KEYS), max_size=2, unique=True)):
        sections[name][key] = draw(FUZZ_EDGES[type(ExperimentConfig._field_defaults[key])])
    return sections


def test_fuzz_draws_every_config_key():
    assert {name: set(keys) for name, keys in FUZZ_SECTIONS.items()} == {
        name: set(keys) for name, keys in SECTIONS.items()
    }


# every example overwrites the same config file and output directory
@settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(command=st.sampled_from(sorted(_COMMANDS)), sections=fuzz_configs())
def test_cli_fuzz_ends_in_result_message_or_nonconvergence(
    tmp_path, capsys, command, sections
):
    text = "".join(
        f"[{section}]\n" + "".join(f"{key} = {value!r}\n" for key, value in keys.items())
        for section, keys in sections.items()
    )
    code, out = run(tmp_path, [command], text)
    assert code in (0, 2, 3)
    assert "Traceback" not in capsys.readouterr().err
    if code == 0:
        results = read_summary(out, command)["results"]
        assert all(math.isfinite(value) for value in results.values()), results
        for table in out.glob(f"{command}_*.csv"):
            for row in csv.reader(table.read_text().splitlines()[1:]):
                for cell in row:
                    try:
                        value = float(cell)
                    except ValueError:  # wick's matching labels
                        continue
                    assert math.isfinite(value), (table.name, row)


@pytest.mark.parametrize("length", ["1e-6", "1e-50", "1e-150"])
def test_masslimit_rejects_mass_lost_to_rounding(tmp_path, capsys, length):
    # m^2 drowned in lambda + m^2 collapsed the per-mode distances: a
    # max_mode_ratio of 0 (or 4.39 at l = 1e-6) was reported with exit 0
    code, out = run(tmp_path, ["masslimit"], f"[grid]\nl = {length}\n")
    assert code == 2
    assert "lost to rounding" in capsys.readouterr().err
    assert not (out / "masslimit_summary.json").exists()


def test_evolve_and_signature_meet_acceptance_on_the_fft_grid(tmp_path):
    # n = 1024 runs the lattice transforms through numpy.fft
    text = "[grid]\nn = 1024\n"
    code, out = run(tmp_path, ["evolve"], text)
    assert code == 0
    drift = read_summary(out, "evolve")["results"]
    assert 0.0 <= drift["max_symplectic_drift"] <= 1e-11
    assert 0.0 <= drift["max_norm_drift"] <= 1e-11
    code, out = run(tmp_path, ["signature"], text)
    assert code == 0
    spectrum = read_summary(out, "signature")["results"]
    assert 0.0 <= spectrum["max_deviation_from_pi"] <= 1e-10
    assert spectrum["negative_count"] == spectrum["positive_count"] == 1024


@pytest.mark.parametrize(
    "text",
    [None, "[grid]\nl = 1e-3\n", "[grid]\nn = 1024\n"],
    ids=["default", "l1e-3", "n1024"],
)
def test_masslimit_controls_still_run(tmp_path, text):
    code, out = run(tmp_path, ["masslimit"], text)
    assert code == 0
    results = read_summary(out, "masslimit")["results"]
    assert results["monotone_decrease"] is True
    assert results["max_mode_ratio"] > 0.5


@pytest.mark.parametrize(
    "command, text, message",
    [
        ("massdecomp", "[mass]\nm_hi = 1e160\n", "too wide"),
        # the node count and the first window are fixed; files that still
        # name them are refused
        ("massdecomp", "[quadrature]\nmass_nodes = 200\n", "unknown key 'mass_nodes'"),
        ("massdecomp", "[quadrature]\nt_max = 200\n", "unknown key 't_max'"),
    ],
    ids=["massdecomp-m_hi1e160", "massdecomp-mass_nodes", "massdecomp-t_max"],
)
def test_mass_quadrature_inputs_rejected_before_any_rule(tmp_path, capsys, command, text, message):
    code, _ = run(tmp_path, [command], text)
    assert code == 2
    assert message in capsys.readouterr().err


HUGE_GRID = "[grid]\nn = 100000000000000000000000\n"


@pytest.mark.parametrize(
    "command, text, message",
    [
        ("green", "[quadrature]\ndt = 1e-300\n", "window / dt too large"),
        ("state", "[run]\nwindow = 1e300\n", "window / dt too large"),
        ("wick", "[run]\nwindow = 1e300\n", "window / dt too large"),
        *[(command, HUGE_GRID, "n too large") for command in sorted(_COMMANDS)],
    ],
    ids=["green-dt1e-300", "state-window1e300", "wick-window1e300",
         *[f"{command}-n1e23" for command in sorted(_COMMANDS)]],
)
def test_spacetime_sample_cap_exits_2(tmp_path, capsys, command, text, message):
    # these ended in numpy's "Maximum allowed size exceeded", from time_window
    # or (spectrum, signature, crosscheck, reconstruct at n = 1e23) the grid
    code, out = run(tmp_path, [command], text)
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (out / f"{command}_summary.json").exists()


def test_config_that_is_not_utf8_exits_2(tmp_path, capsys):
    # a UnicodeDecodeError traceback before
    (tmp_path / "run.ini").write_bytes(b"; \xff\n[grid]\nn = 4\n")
    code = main(["spectrum", "--config", str(tmp_path / "run.ini"), "--out", str(tmp_path)])
    assert code == 2
    assert "not UTF-8" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.ini"]


def _never_run(config, basis):
    raise AssertionError("the command ran although its output cannot be written")


@pytest.mark.parametrize("out", ["taken", "taken/sub"])
def test_out_through_a_file_exits_2_before_the_run(tmp_path, capsys, monkeypatch, out):
    # mkdir met the file only after the run, in a FileExistsError (or
    # NotADirectoryError) traceback
    (tmp_path / "taken").write_text("kept\n")
    monkeypatch.setattr(kgsig.cli, "cmd_spectrum", _never_run)
    code = main(["spectrum", "--out", str(tmp_path / out), "--quiet"])
    assert code == 2
    assert f"{tmp_path / 'taken'} is not a directory" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]
    assert (tmp_path / "taken").read_text() == "kept\n"


def test_write_error_exits_2(tmp_path, capsys):
    # a directory where the summary goes: an IsADirectoryError traceback before
    (tmp_path / "out" / "spectrum_summary.json").mkdir(parents=True)
    code, out = run(tmp_path, ["spectrum"], SMALL)
    assert code == 2
    assert "output error" in capsys.readouterr().err


def _no_fft(*args, **kwargs):
    raise AssertionError("a Gram mass rule was built above the node cap")


def test_wide_mass_interval_exits_3_before_building_a_rule(tmp_path, capsys, monkeypatch):
    # (1, 1000) passes validation, but its first Gram mass rule would need
    # about 254k nodes per mode: exit 3 naming the cap, before any rule
    monkeypatch.setattr(np.fft, "rfft", _no_fft)
    code, out = run(tmp_path, ["massdecomp"], "[mass]\nm_hi = 1000\n")
    assert code == 3
    err = capsys.readouterr().err
    assert "T = 400" in err and "RULE_NODES_MAX = 65536" in err
    assert not (out / "massdecomp_summary.json").exists()


def test_largest_squarable_m_hi_still_exits_3_at_the_rule_cap(tmp_path, capsys):
    # m_hi^2 stays finite at 1.3e154, so validation passes; the rule cap stops it
    code, _ = run(tmp_path, ["massdecomp"], "[mass]\nm_lo = 1e154\nm_hi = 1.3e154\n")
    assert code == 3
    assert "RULE_NODES_MAX = 65536" in capsys.readouterr().err


def test_rule_size_cap_exits_3_before_building_an_over_cap_rule(tmp_path, capsys, monkeypatch):
    # n = 4096 passes validation, but the [3200, 6400] rule would hold 16.3M
    # mode-nodes, about 3 GiB: exit 3 naming the cap before that rule exists.
    # A stub stands in for the rules so that the test builds none of them.
    sizes = []

    def stub(weight, lam, powers, period, nodes):
        sizes.append(lam.size * powers.size**2 * nodes)
        return lambda t_lo, t_hi: np.zeros((2, lam.size, powers.size, powers.size))

    monkeypatch.setattr(massfamily, "_uniform_rule", stub)
    code, out = run(tmp_path, ["massdecomp"], "[grid]\nn = 4096\n")
    assert code == 3
    err = capsys.readouterr().err
    assert "T = 6400 needs 16297984 mode-nodes" in err and "RULE_SIZE_MAX = 8388608" in err
    assert all(size <= massfamily.RULE_SIZE_MAX for size in sizes)
    assert not (out / "massdecomp_summary.json").exists()


def test_state_solves_each_identity_function_once(tmp_path, monkeypatch):
    # one causal solve per stack, each from its sources' factors: the suite's
    # 5 sources, then the identity pairs' 6, whose solve the imaginary-part
    # identity reuses
    import kgsig.dynamics

    calls = []
    solve = kgsig.dynamics.causal_fundamental

    def counted(f, mass):
        calls.append(f.shape)
        return solve(f, mass)

    for name in ("cli", "state", "symplectic"):
        monkeypatch.setattr(f"kgsig.{name}.causal_fundamental", counted, raising=False)
    code, _ = run(tmp_path, ["state"], SMALL + "trials = 5\n")
    assert code == 0
    assert calls == [(5,), (6,)]


@pytest.mark.parametrize("command, sources", [("green", 2), ("state", 5 + 6), ("wick", 4)])
def test_each_source_is_analyzed_once_and_nothing_synthesized(
    tmp_path, monkeypatch, transforms, command, sources
):
    # each draw analyzes the (3 S, N) stack of its S sources' spatial shapes
    # once; the Duhamel, causal and two-point layers read the analyzed shapes
    import kgsig.random_fields

    per_draw = []
    factors = kgsig.random_fields._source_factors

    def drawn(rng, basis, times, real, count):
        before = len(transforms)
        result = factors(rng, basis, times, real, count)
        per_draw.append((count, transforms[before:]))
        return result

    monkeypatch.setattr(kgsig.random_fields, "_source_factors", drawn)
    code, _ = run(tmp_path, [command], SMALL + "trials = 5\n")
    assert code == 0
    assert sum(count for count, _ in per_draw) == sources
    for count, calls in per_draw:
        assert [(name, np.shape(u)) for name, u in calls] == [("analyze", (3 * count, 4))]
    assert len(transforms) == len(per_draw) == (2 if command != "wick" else 1)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["bogus"], "invalid choice: 'bogus'"),
        ([], "required: command"),
        (["spectrum", "wick"], "unrecognized arguments: wick"),
        (["spectrum", "--bogus"], "--bogus not recognized"),
        (["spectrum", "--seed", "x"], "argument --seed: invalid int value: 'x'"),
        (["spectrum", "--tol", "abc"], "argument --tol: invalid float value: 'abc'"),
        (["spectrum", "--seed"], "--seed requires argument"),
        # Path('') is '.': an empty --out wrote into the working directory
        (["spectrum", "--out", ""], "argument --out"),
        (["spectrum", "--out="], "argument --out"),
        # Path('') is '.' too: an empty --config read the directory
        (["spectrum", "--config", ""], "argument --config"),
        (["spectrum", "--config="], "argument --config"),
    ],
    ids=["bogus", "no-command", "two-commands", "unknown-option", "seed-x", "tol-abc",
         "seed-no-value", "empty-out", "empty-out-equals", "empty-config",
         "empty-config-equals"],
)
def test_unknown_command_exits_2(tmp_path, capsys, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(kgsig.cli, "cmd_spectrum", _never_run)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: {_USAGE}\nkgsig: error: ") and message in err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_usage_line_is_the_readme_line():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    assert f"\n{_USAGE}\n" in readme.read_text()


def test_options_parse_the_same_before_and_after_the_command():
    options = ["--config", "run.ini", "--out", "o", "--seed", "3", "--tol", "1e-4", "--quiet"]
    after = parse_args(["wick", *options])
    assert after == parse_args([*options, "wick"])
    assert after == parse_args([*options[:4], "wick", *options[4:]])
    # --opt=value and a unique prefix of a long option
    assert after == parse_args(["--conf", "run.ini", "wick", "--seed=3", "--out=o", "--to",
                                "1e-4", "--q"])
    assert after == {
        "command": "wick", "config": "run.ini", "out": "o", "seed": 3, "tol": 1e-4,
        "quiet": True,
    }


def test_help_names_every_command(capsys):
    for flag in ("--help", "-h"):
        with pytest.raises(SystemExit) as exc:
            main([flag])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        assert text.startswith(f"usage: {_USAGE}\n")
        for name, summary in _COMMANDS.items():
            assert f"{name} " in text and summary in text


def _child(args: list[str], **streams) -> subprocess.CompletedProcess:
    """`python -m kgsig.cli *args` in a child process with the given streams."""
    src = str(Path(kgsig.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    return subprocess.run([sys.executable, "-m", "kgsig.cli", *args], env=env, text=True, **streams)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_help_to_a_full_device_is_an_output_error():
    with open("/dev/full", "w") as full:
        done = _child(["--help"], stdout=full, stderr=subprocess.PIPE)
    assert done.returncode == 2
    assert "output error" in done.stderr and "Traceback" not in done.stderr


def test_help_to_a_closed_pipe_is_an_output_error():
    # the read end is closed before the child writes: EPIPE, BrokenPipeError
    read, write = os.pipe()
    os.close(read)
    try:
        done = _child(["--help"], stdout=write, stderr=subprocess.PIPE)
    finally:
        os.close(write)
    assert done.returncode == 2
    assert "output error" in done.stderr and "Traceback" not in done.stderr
    assert "Exception ignored" not in done.stderr


@pytest.mark.parametrize(
    ("args", "code"),
    [(["--help"], 2), (["spectrum", "--out", "out"], 2),
     (["spectrum", "--out", "out", "--quiet"], 0)],
    ids=["help", "run", "quiet-run"],
)
def test_a_closed_stdout_is_an_output_error_when_there_is_output(tmp_path, args, code):
    # file descriptor 1 closed, as by `>&-`: Python sets sys.stdout to None,
    # and print() would drop the text and exit 0; a quiet run prints nothing
    done = _child(args, stderr=subprocess.PIPE, cwd=tmp_path, preexec_fn=lambda: os.close(1))
    assert done.returncode == code
    if code:
        assert "output error" in done.stderr and "Traceback" not in done.stderr
    else:
        assert done.stderr == ""
    if "--out" in args:  # the files are written before anything is printed
        written = sorted(path.name for path in (tmp_path / "out").iterdir())
        assert written == ["spectrum_meta.json", "spectrum_modes.csv", "spectrum_summary.json"]


# a usage error, a configuration error and a non-convergence (no window up to
# t_ceiling dephases every mode at this l), each with its documented code
_FAILING_RUNS = [
    pytest.param(["bogus"], "", 2, id="usage-error"),
    pytest.param(["spectrum"], "[grid]\nn = 0\n", 2, id="configuration-error"),
    pytest.param(["massdecomp"], "[grid]\nl = 1e-7\n", 3, id="non-convergence"),
]


def _failing_run(tmp_path, args, text, stderr) -> int:
    config = tmp_path / "run.ini"
    config.write_text(text)
    out = tmp_path / "out"
    done = _child([*args, "--config", str(config), "--out", str(out)], stderr=stderr)
    assert not out.exists()
    return done.returncode


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize(("args", "text", "code"), _FAILING_RUNS)
def test_a_full_stderr_keeps_the_exit_code(tmp_path, args, text, code):
    with open("/dev/full", "w") as full:
        assert _failing_run(tmp_path, args, text, full) == code


@pytest.mark.parametrize(("args", "text", "code"), _FAILING_RUNS)
def test_a_stderr_pipe_with_no_reader_keeps_the_exit_code(tmp_path, args, text, code):
    read, write = os.pipe()
    os.close(read)
    try:
        assert _failing_run(tmp_path, args, text, write) == code
    finally:
        os.close(write)


def test_evolve_makes_no_transform(tmp_path, transforms):
    # the random data are drawn, propagated and paired as mode stacks
    code, _ = run(tmp_path, ["evolve"], SMALL)
    assert code == 0
    assert transforms == []


def test_no_command_imports_numpy_random(tmp_path):
    """Every command draws from the stdlib stream that numpy already loaded,
    so none pays the numpy.random import, massdecomp's mass rule is a
    uniform grid, so none loads numpy.polynomial, no type is a dataclass, and
    the command line is read without argparse, whose gettext calls import
    locale; one interpreter runs all ten."""
    (tmp_path / "tiny.ini").write_text("[grid]\nn = 4\n")
    script = (
        "import sys\n"
        "from kgsig.cli import _COMMANDS, main\n"
        "codes = [main([c, '--config', 'tiny.ini', '--out', 'out', '--quiet'])"
        " for c in _COMMANDS]\n"
        "assert codes == [0] * len(_COMMANDS), codes\n"
        "assert 'numpy.random' not in sys.modules, 'numpy.random was imported'\n"
        "assert 'numpy.polynomial' not in sys.modules, 'numpy.polynomial was imported'\n"
        "assert 'dataclasses' not in sys.modules, 'dataclasses was imported'\n"
        "assert 'argparse' not in sys.modules, 'argparse was imported'\n"
        "assert 'locale' not in sys.modules, 'locale was imported'\n"
    )
    src = str(Path(kgsig.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    done = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
