"""CLI: subcommand columns, output formats, exit codes."""

import contextlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spdckit import classical, cli, filters, overlap, quantum, validation
from spdckit.output import rows_of
from spdckit.cli import build_parser, main
from spdckit.config import load_and_build
from spdckit.optimizer import SweepAxis, optimize_focus, sweep
from spdckit.quantities import to_si

MHZ = 2.0 * math.pi * 1e6


@pytest.fixture(scope="module")
def config_path():
    from importlib import resources

    return str(resources.files("spdckit").joinpath("data/ppktp_800_typeII.cfg"))


def run_ndjson(capsys, argv):
    code = main(argv + ["--format", "ndjson"])
    out = capsys.readouterr()
    lines = out.out.strip().splitlines()
    meta = json.loads(lines[0])["_meta"]
    rows = [json.loads(line) for line in lines[1:]]
    return code, meta, rows, out.err


def test_sfg_matches_library(capsys, config_path):
    code, meta, rows, _ = run_ndjson(capsys, ["sfg", "--config", config_path])
    assert code == 0
    assert meta == {"command": "sfg", "config": config_path}
    (row,) = rows
    assert list(row) == [
        "kappa", "zeta_R", "R_k",
        "upsilon_re", "upsilon_im", "abs_upsilon_sq", "objective",
        "i_sfg_re", "i_sfg_im", "abs_i_sfg_sq", "q_sfg_per_W",
    ]
    built = load_and_build(config_path)
    ups = overlap.upsilon(built.fp)
    i_sfg = overlap.i_sfg_gaussian(built.waves, built.crystal, built.fp)
    # JSON floats round-trip exactly, and the CLI runs the same code path.
    assert row["kappa"] == built.fp.kappa
    assert row["zeta_R"] == 0.18
    assert row["upsilon_re"] == ups.value.real
    assert row["abs_upsilon_sq"] == ups.abs_sq
    assert row["objective"] == 0.18 * ups.abs_sq
    assert row["abs_i_sfg_sq"] == i_sfg.abs_sq
    assert row["q_sfg_per_W"] == classical.q_sfg(built.waves, built.crystal, i_sfg.abs_sq)


def test_csv_and_table_formats(capsys, config_path):
    assert main(["sfg", "--config", config_path, "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "# command: sfg"
    assert lines[1] == f"# config: {config_path}"
    header = lines[2].split(",")
    assert header[:3] == ["kappa", "zeta_R", "R_k"]
    assert len(lines) == 4
    assert len(lines[3].split(",")) == len(header)

    assert main(["sfg", "--config", config_path, "--format", "table"]) == 0
    tlines = capsys.readouterr().out.strip().splitlines()
    assert tlines[2].split()[:2] == ["kappa", "zeta_R"]


def test_pairs_frozen_numbers(capsys, config_path):
    code, _, rows, _ = run_ndjson(capsys, ["pairs", "--config", config_path])
    assert code == 0
    (row,) = rows
    # 2 MHz matched filters halve exactly.
    assert row["gamma_eff_rad_s"] == MHZ
    assert row["gamma_eff_MHz"] == 1.0
    assert row["q_sfg_per_W"] == pytest.approx(0.007935497935223417, rel=1e-10)
    assert row["w2_per_s"] == pytest.approx(3.116262751984356, rel=1e-10)
    # 1 mW pump and 1 MHz effective width, so the normalized rate coincides.
    assert row["pairs_per_s_mW_MHz"] == pytest.approx(row["w2_per_s"], rel=1e-12)


@pytest.mark.parametrize("zeta_r", ["0.004", "0.01"])
def test_pairs_at_tight_focus_takes_the_pair_side(capsys, config_path, tmp_path, zeta_r):
    # The order-40 mode sums that pairs used to run failed here ("raise
    # basis_order") and pairs exited 1, though W2 depends on I_SFG alone.
    text = Path(config_path).read_text(encoding="utf-8")
    assert "zeta_R        = 0.18" in text
    cfg = tmp_path / "tight.cfg"
    cfg.write_text(text.replace("zeta_R        = 0.18", f"zeta_R = {zeta_r}"), encoding="utf-8")
    code, _, rows, _ = run_ndjson(capsys, ["pairs", "--config", str(cfg)])
    assert code == 0
    built = load_and_build(str(cfg))
    gamma_eff = filters.gamma_eff_pair(built.filter_s, built.filter_i)
    i_sfg = overlap.i_sfg_gaussian(built.waves, built.crystal, built.fp)
    q = classical.q_conversion(built.waves, built.crystal, i_sfg.abs_sq)
    assert rows[0]["w2_per_s"] == quantum.pair_rate(built.waves, built.pump_power, q, gamma_eff)


@pytest.mark.parametrize("zeta_r", ["0.004", "0.01"])
def test_singles_at_tight_focus_sums_every_mode(capsys, config_path, tmp_path, zeta_r):
    # The order-40 mode sums made singles exit 1 here ("relative tail
    # 2.35e-03" at 0.004, "not decaying, ratio 2.028" at 0.01). W1 of each
    # arm is (omega / 4 omega_partner) Gamma_eff,single P Q_DFG, with the
    # total |I_DFG|^2 from the closed-form oracle.
    text = Path(config_path).read_text(encoding="utf-8")
    assert "zeta_R        = 0.18" in text
    cfg = tmp_path / "tight.cfg"
    cfg.write_text(text.replace("zeta_R        = 0.18", f"zeta_R = {zeta_r}"), encoding="utf-8")
    code, _, rows, _ = run_ndjson(capsys, ["singles", "--config", str(cfg)])
    assert code == 0
    built = load_and_build(str(cfg))
    waves, crystal, fp = built.waves, built.crystal, built.fp
    for column, arm, basis, flt in (
        ("w1_signal_per_s", "signal", "idler", built.filter_s),
        ("w1_idler_per_s", "idler", "signal", built.filter_i),
    ):
        total, _ = validation.dfg_total_closed(waves, crystal.length, fp.kappa, fp.zeta_r, basis)
        q = classical.q_arm(waves, crystal, total, arm)
        w1 = quantum.singles_rate(waves, built.pump_power, q, filters.gamma_eff_single(flt), arm)
        assert rows[0][column] == pytest.approx(w1, rel=1e-9), column


def test_singles_frozen_numbers(capsys, config_path):
    code, _, rows, _ = run_ndjson(capsys, ["singles", "--config", config_path])
    assert code == 0
    (row,) = rows
    assert row["w2_per_s"] == pytest.approx(3.116262751984356, rel=1e-10)
    assert row["w1_signal_per_s"] == pytest.approx(6.306153755913043, rel=1e-10)
    assert row["w1_idler_per_s"] == pytest.approx(6.294486587710997, rel=1e-10)
    assert row["eta_signal"] == pytest.approx(0.49416219023558594, rel=1e-10)
    assert row["eta_idler"] == pytest.approx(0.495078146336569, rel=1e-10)
    assert row["gamma_s_rad_s"] == 2.0 * MHZ
    assert row["gamma_i_rad_s"] == 2.0 * MHZ
    assert row["gamma_eff_rad_s"] == MHZ


def test_correlation_trace(capsys, config_path):
    code, meta, rows, _ = run_ndjson(
        capsys,
        ["correlation", "--config", config_path, "--points", "101", "--tau-max", "2e-7"],
    )
    assert code == 0
    assert len(rows) == 101
    assert rows[0]["tau_s"] == -2e-7
    assert rows[-1]["tau_s"] == 2e-7
    center = rows[50]
    assert abs(center["tau_s"]) < 1e-20
    assert center["abs_f_sq"] == max(r["abs_f_sq"] for r in rows)
    for r in rows[::10]:
        assert r["abs_f_sq"] == pytest.approx(r["f_re"] ** 2 + r["f_im"] ** 2, rel=1e-12)
    # Density is one overall scale times the shape.
    scale = center["w2_density_per_s2"] / center["abs_f_sq"]
    assert scale > 0
    for r in rows[1:-1:7]:
        assert r["w2_density_per_s2"] == pytest.approx(scale * r["abs_f_sq"], rel=1e-12)
    assert float(meta["gamma_eff_rad_s"]) == MHZ
    assert float(meta["a_sq"]) > 0


def test_singles_basis_order_below_one_names_the_option(capsys, config_path):
    # It used to exit 1 with the library's "basis_order must be >= 1".
    with pytest.raises(SystemExit) as exc:
        main(["singles", "--config", config_path, "--basis-order", "0"])
    assert exc.value.code == 2
    assert "argument --basis-order: must be from 1 to 4096, got '0'" in capsys.readouterr().err


def test_sweep_basis_order_below_one_is_a_usage_error(capsys, config_path):
    # It used to exit 0 with one ValueError row per point.
    argv = ["sweep", "--config", config_path, "--basis-order", "0", "--sweep", "P_p=1:2:2"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and "argument --basis-order: must be from 1 to 4096, got '0'" in out.err


def test_correlation_bad_tau_max(capsys, config_path):
    # -1 used to exit 1 while inf exited 2; both are usage errors now.
    with pytest.raises(SystemExit) as exc:
        main(["correlation", "--config", config_path, "--tau-max", "-1"])
    assert exc.value.code == 2
    assert "argument --tau-max: must be > 0, got '-1'" in capsys.readouterr().err


@pytest.mark.parametrize("option", ["--tau-max=inf", "--tau-max=nan", "--tau-max=-inf"])
def test_correlation_non_finite_tau_max_is_a_usage_error(capsys, config_path, option):
    with pytest.raises(SystemExit) as exc:
        main(["correlation", "--config", config_path, option])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --tau-max: must be finite" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "option", ["--kappa-min", "--kappa-max", "--zeta-min", "--zeta-max", "--tol"]
)
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_optimize_non_finite_box_is_a_usage_error(capsys, option, value):
    with pytest.raises(SystemExit) as exc:
        main(["optimize", "--rk", "0", f"{option}={value}"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {option}: must be finite" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["pairs", "singles", "sweep"])
@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1e-9", "x"])
def test_quad_tol_must_be_finite_and_positive(capsys, config_path, command, value):
    argv = [command, "--config", config_path, "--quad-tol", value]
    if command == "sweep":
        argv += ["--sweep", "P_p=1:2:2"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "basis_order" not in err
    # pairs runs no mode sum, so it has no --quad-tol to check.
    if command == "pairs":
        assert f"unrecognized arguments: --quad-tol {value}" in err
    else:
        assert "argument --quad-tol:" in err


def test_sweep_non_finite_endpoint_names_the_range(capsys, config_path):
    code = main(["sweep", "--config", config_path, "--sweep", "P_p=1:inf:3"])
    err = capsys.readouterr().err
    assert code == 1
    assert err == "error: sweep range '1:inf:3' needs a finite start and stop\n"


@pytest.mark.parametrize("command", ["pairs", "correlation"])
@pytest.mark.parametrize(
    "old, new, key",
    [
        ("pump_power    = 1 mW", "pump_power    = inf mW", "pump_power"),
        ("filter_s      = lorentzian 2 MHz", "filter_s      = lorentzian inf MHz", "filter_s"),
    ],
    ids=["power", "width"],
)
def test_non_finite_config_value_is_one_error_line(
    capsys, config_path, tmp_path, command, old, new, key
):
    text = Path(config_path).read_text(encoding="utf-8")
    assert old in text
    bad = tmp_path / "bad.cfg"
    bad.write_text(text.replace(old, new), encoding="utf-8")
    code = main([command, "--config", str(bad)])
    out = capsys.readouterr()
    assert code == 2 and out.out == ""
    lines = out.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert f"{key}: value must be finite" in lines[0]
    assert "Traceback" not in out.err


@pytest.mark.parametrize(
    "option, message",
    [
        ("--restarts=100000000", "argument --restarts: must be from 0 to 1000, got '100000000'"),
        ("--restarts=-1", "argument --restarts: must be from 0 to 1000, got '-1'"),
        ("--restarts=2.5", "argument --restarts: not an integer: '2.5'"),
        ("--seed=-1", "argument --seed: must be >= 0, got '-1'"),
    ],
)
def test_optimize_restarts_and_seed_are_usage_errors(capsys, option, message):
    # --restarts 100000000 used to run without end, and --seed -1 to exit 1
    # with numpy's "expected non-negative integer", which names no option.
    with pytest.raises(SystemExit) as exc:
        main(["optimize", "--rk", "0", option])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize(
    "options, message",
    [
        (
            ["--kappa-min", "5", "--kappa-max", "-5"],
            "error: --kappa-min/--kappa-max must be ordered (low, high), got (5.0, -5.0)",
        ),
        (
            ["--zeta-min", "3", "--zeta-max", "2"],
            "error: --zeta-min/--zeta-max must be ordered (low, high), got (3.0, 2.0)",
        ),
        (
            ["--zeta-min", "0.001"],
            "error: --zeta-min/--zeta-max must have low >= 0.01, got (0.001, 5.0)",
        ),
    ],
)
def test_optimize_bad_box_is_a_usage_error(capsys, monkeypatch, options, message):
    # A reversed box and a zeta_R floor below 0.01 used to exit 1 with
    # "bounds must be ordered (low, high)" or "zeta_R lower bound must be
    # >= 0.01", naming no option. They are refused before any evaluation.
    from spdckit import optimizer

    def no_evaluation(*args):
        raise AssertionError("merit evaluated")

    monkeypatch.setattr(optimizer, "_objective", no_evaluation)
    assert main(["optimize", "--rk", "0", *options]) == 2
    err = capsys.readouterr().err
    assert err == message + "\n"


def test_exponent_form_negative_values_are_values(capsys):
    # argparse's own negative-number pattern has no exponent, so
    # "--kappa-min -1e3" used to exit 2 with "expected one argument".
    argv = ["optimize", "--rk", "-1e-2", "--kappa-min", "-1e3", "--kappa-max", "5"]
    code, meta, rows, _ = run_ndjson(capsys, argv + ["--restarts", "0", "--tol", "1e-3"])
    assert code == 0 and meta["r_k"] == "-0.01"
    ref = optimize_focus(-1e-2, kappa_bounds=(-1e3, 5.0), rel_tol=1e-3, restarts=0, seed=7)
    assert rows[0]["best_objective"] == ref.best_objective


@pytest.mark.parametrize(
    "argv, dest, value",
    [
        (["optimize", "--rk", "0", "--kappa-max", "-1E-1"], "kappa_max", -0.1),
        (["optimize", "--rk", "0", "--zeta-min", "-.5e+1"], "zeta_min", -5.0),
        (["optimize", "--rk", "-2.5e-2"], "rk", -0.025),
        (["correlation", "--config", "c", "--tau-max", "-1e-9"], "tau_max", -1e-9),
    ],
)
def test_every_numeric_option_takes_exponent_form_negatives(capsys, argv, dest, value):
    if dest != "tau_max":
        assert getattr(build_parser().parse_args(argv), dest) == value
        return
    # Read as a value, so the refusal is --tau-max's own, not "expected one argument".
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 2
    assert "argument --tau-max: must be > 0, got '-1e-9'" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["-inf", "-INF", "-Infinity", "-nan", "-NaN"])
def test_negative_non_finite_values_reach_the_finite_check(capsys, value):
    # "--kappa-min -inf" used to exit 2 with "expected one argument", while
    # "--kappa-min=-inf" named the problem; both now give the finite check.
    for argv in (["--kappa-min", value], [f"--kappa-min={value}"]):
        with pytest.raises(SystemExit) as exc:
            main(["optimize", "--rk", "0", *argv])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --kappa-min: must be finite, got '{value}'" in err, argv


def test_optimize_matches_library(capsys):
    argv = ["optimize", "--rk", "0.04", "--restarts", "1", "--tol", "1e-3", "--seed", "3"]
    code, meta, rows, _ = run_ndjson(capsys, argv)
    assert code == 0
    assert meta == {"command": "optimize", "r_k": "0.04"}
    (row,) = rows
    ref = optimize_focus(
        0.04,
        kappa_bounds=(-20.0, 5.0),
        zeta_bounds=(0.02, 5.0),
        rel_tol=1e-3,
        restarts=1,
        seed=3,
    )
    assert row["best_kappa"] == ref.best_kappa
    assert row["best_zeta_R"] == ref.best_zeta_r
    assert row["best_objective"] == ref.best_objective
    assert row["evaluations"] == ref.evaluations
    assert row["converged"] is ref.converged
    assert "z_R_m" not in row


def test_optimize_config_adds_hardware_columns(capsys, config_path):
    argv = ["optimize", "--config", config_path, "--restarts", "1", "--tol", "1e-3"]
    code, meta, rows, _ = run_ndjson(capsys, argv)
    assert code == 0
    (row,) = rows
    built = load_and_build(config_path)
    assert row["r_k"] == built.fp.r_k
    assert row["z_R_m"] == pytest.approx(row["best_zeta_R"] * 0.01, rel=1e-12)
    assert row["poling_period_m"] > 0
    assert meta["config"] == config_path


def test_optimize_trace_rows(capsys):
    argv = ["optimize", "--rk", "0.0", "--restarts", "1", "--tol", "1e-2", "--trace"]
    code, meta, rows, _ = run_ndjson(capsys, argv)
    assert code == 0
    assert len(rows) > 10
    assert all(list(r) == ["kappa", "zeta_R", "objective"] for r in rows)
    assert meta["converged"] in ("true", "false")
    best = float(meta["best_objective"])
    assert best == max(r["objective"] for r in rows)


def test_optimize_requires_rk_or_config(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["optimize"])
    assert exc.value.code == 2
    assert "one of the arguments --config --rk is required" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--rk", "1"], "argument --rk: must satisfy |R_k| < 1, got '1'"),
        (["--rk", "-1"], "argument --rk: must satisfy |R_k| < 1, got '-1'"),
        (["--rk", "1e300"], "argument --rk: must satisfy |R_k| < 1, got '1e300'"),
        (["--rk=nan"], "argument --rk: must be finite, got 'nan'"),
        (["--rk=inf"], "argument --rk: must be finite, got 'inf'"),
        (["--rk", "-inf"], "argument --rk: must be finite, got '-inf'"),
        (["--rk", "x"], "argument --rk: not a number: 'x'"),
    ],
)
def test_optimize_rk_outside_its_range_is_a_usage_error(capsys, argv, message):
    # These used to exit 1 with "r_k must satisfy |r_k| < 1", which named no
    # option and gave NaN the wrong reason.
    with pytest.raises(SystemExit) as exc:
        main(["optimize", *argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def test_optimize_takes_rk_or_config_not_both(capsys, config_path):
    # Both used to exit 0, ignoring the config and its hardware columns.
    with pytest.raises(SystemExit) as exc:
        main(["optimize", "--config", config_path, "--rk", "0"])
    assert exc.value.code == 2
    assert "argument --rk: not allowed with argument --config" in capsys.readouterr().err


def test_missing_config_is_usage_error(capsys):
    code = main(["pairs", "--config", "/no/such/file.cfg"])
    err = capsys.readouterr().err
    assert code == 2
    assert "error:" in err and "cannot read" in err


@pytest.mark.parametrize("command", ["sfg", "pairs", "correlation", "optimize"])
def test_quad_tol_only_on_mode_sum_commands(capsys, config_path, command):
    # Upsilon has no quadrature; --quad-tol sets the mode-sum tolerance only.
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", config_path, "--quad-tol", "1e-8"])
    assert exc.value.code == 2
    assert "--quad-tol" in capsys.readouterr().err
    assert main(["singles", "--config", config_path, "--quad-tol", "1e-8"]) == 0


def test_sweep_power_axis(capsys, config_path):
    argv = ["sweep", "--config", config_path, "--sweep", "P_p=0.5:2:4"]
    code, _, rows, _ = run_ndjson(capsys, argv)
    assert code == 0
    assert [r["P_p_mW"] for r in rows] == [0.5, 1.0, 1.5, 2.0]
    assert all(r["error"] is None for r in rows)
    base = rows[1]["w2_per_s"]
    for r in rows:
        assert r["w2_per_s"] == pytest.approx(base * r["P_p_mW"], rel=1e-12)
        assert r["gamma_eff_rad_s"] == MHZ


def test_sweep_gamma_axis_display_units(capsys, config_path):
    argv = ["sweep", "--config", config_path, "--sweep", "Gamma_s=1:3:3"]
    code, _, rows, _ = run_ndjson(capsys, argv)
    assert code == 0
    assert [r["Gamma_s_MHz"] for r in rows] == [1.0, 2.0, 3.0]
    # Idler arm stays at 2 MHz; matched point halves exactly.
    assert rows[1]["gamma_eff_rad_s"] == MHZ
    assert rows[0]["gamma_eff_rad_s"] == pytest.approx(MHZ * 1.0 * 2.0 / 3.0, rel=1e-12)
    assert rows[2]["gamma_eff_rad_s"] == pytest.approx(MHZ * 3.0 * 2.0 / 5.0, rel=1e-12)


def test_sweep_csv_prints_plain_floats(capsys, config_path):
    # Axis values come off np.linspace; csv/table must unwrap the numpy
    # scalars instead of printing repr like "np.float64(0.5)".
    argv = ["sweep", "--config", config_path, "--sweep", "P_p=0.5:2:4",
            "--format", "csv"]
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    assert "np.float64" not in out
    body = [line for line in out.splitlines() if not line.startswith("#")]
    header = body[0].split(",")
    first = dict(zip(header, body[1].split(",")))
    assert float(first["P_p_mW"]) == 0.5
    assert float(first["w2_per_s"]) > 0


def test_sweep_huge_count_is_one_error_line(capsys, config_path):
    code = main(["sweep", "--config", config_path, "--sweep", "P_p=0.1:1:10000000000000"])
    err = capsys.readouterr().err
    assert code == 1
    assert err == (
        "error: sweep range '0.1:1:10000000000000' needs a count from 1 to 1000000\n"
    )


def test_sweep_bad_axis(capsys, config_path):
    code = main(["sweep", "--config", config_path, "--sweep", "bogus=1:2:3"])
    err = capsys.readouterr().err
    assert code == 1
    assert "unknown sweep axis" in err


def test_validate_passes(capsys):
    assert main(["validate", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "# command: validate"
    header = lines[1].split(",")
    assert header == ["name", "main_value", "oracle_value", "rel_diff", "tolerance", "passed"]
    data = lines[2:]
    assert len(data) >= 7
    assert all(line.endswith("true") for line in data)


def test_module_entry_point(config_path):
    proc = subprocess.run(
        [sys.executable, "-m", "spdckit", "sfg", "--config", config_path, "--format", "csv"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("# command: sfg")


def test_correlation_too_coarse_names_the_fix(capsys, config_path):
    # 201 points over the default span land on the 0.4/gamma limit in exact
    # arithmetic and just above it in floating point.
    code = main(["correlation", "--config", config_path, "--points", "201"])
    err = capsys.readouterr().err
    assert code == 1
    assert "d_tau*gamma = 0.4000000000000041" in err
    assert "use --points 202 or more" in err and "--tau-max" in err
    assert main(["correlation", "--config", config_path, "--points", "202"]) == 0


def test_correlation_default_points_follow_the_filters(capsys, config_path, tmp_path):
    text = Path(config_path).read_text(encoding="utf-8")
    text = text.replace("filter_s      = lorentzian 2 MHz", "filter_s = lorentzian 3 MHz")
    text = text.replace("filter_i      = lorentzian 2 MHz", "filter_i = lorentzian 40 MHz")
    wide = tmp_path / "wide.cfg"
    wide.write_text(text, encoding="utf-8")
    # 2001 points resolve the bundled matched pair but not a 3/40 MHz pair,
    # which gets the 2668 points its span needs.
    for path, expected in ((config_path, 2001), (str(wide), 2668)):
        code, _, rows, _ = run_ndjson(capsys, ["correlation", "--config", path])
        assert code == 0 and len(rows) == expected
    assert main(["correlation", "--config", str(wide), "--points", "2001"]) == 1
    assert "use --points 2668 or more" in capsys.readouterr().err


@pytest.mark.parametrize(
    "extra",
    [[], ["--tau-max", "1e-6"], ["--tau-max", "1e-6", "--points", "2001"]],
    ids=["default-span", "tau-max", "explicit-grid"],
)
def test_correlation_with_a_dark_table_is_one_error_line(capsys, config_path, tmp_path, extra):
    # A table that transmits nothing used to end in a ZeroDivisionError
    # traceback from sizing the tau grid. On an explicit grid, which is not
    # sized from the filters, it used to give rows of zeros.
    text = Path(config_path).read_text(encoding="utf-8")
    text = text.replace("filter_i      = lorentzian 2 MHz", "filter_i = table dark.txt")
    (tmp_path / "dark.txt").write_text("units: MHz\n-1 0\n0 0\n1 0\n", encoding="utf-8")
    cfg = tmp_path / "dark.cfg"
    cfg.write_text(text, encoding="utf-8")
    code = main(["correlation", "--config", str(cfg), *extra])
    out = capsys.readouterr()
    assert code == 1 and out.out == ""
    assert out.err == "error: filter_i transmits nothing: its transmission is 0 everywhere\n"


def test_correlation_refuses_passbands_that_do_not_overlap(capsys, config_path, tmp_path):
    # Both tables pass only 10-12 MHz, so T_s(W) T_i(-W) is 0 everywhere:
    # correlation used to print gamma_eff_rad_s 0.0 and rows of zeros.
    text = Path(config_path).read_text(encoding="utf-8")
    text = text.replace("filter_s      = lorentzian 2 MHz", "filter_s = table band.txt")
    text = text.replace("filter_i      = lorentzian 2 MHz", "filter_i = table band.txt")
    (tmp_path / "band.txt").write_text("units: MHz\n10 1\n11 1\n12 1\n", encoding="utf-8")
    cfg = tmp_path / "band.cfg"
    cfg.write_text(text, encoding="utf-8")
    for command in ("pairs", "correlation"):
        code = main([command, "--config", str(cfg)])
        out = capsys.readouterr()
        assert code == 1 and out.out == "", command
        assert out.err.startswith(
            "error: the passbands of filter_s and filter_i do not overlap"
        ), command



@pytest.mark.parametrize("command", ["pairs", "singles", "sweep"])
def test_huge_basis_order_is_refused(capsys, config_path, command):
    # An order of 1e11 used to end in numpy's 1.46 TiB allocation traceback,
    # then in exit 1, and in sweep in one ValueError row per point.
    argv = [command, "--config", config_path, "--basis-order", "100000000000"]
    if command == "sweep":
        argv += ["--sweep", "P_p=1:2:2"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and "Traceback" not in out.err
    # pairs runs no mode sum, so it has no --basis-order.
    if command == "pairs":
        assert "unrecognized arguments: --basis-order 100000000000" in out.err
    else:
        assert "argument --basis-order: must be from 1 to 4096, got '100000000000'" in out.err



@pytest.mark.parametrize("points", ["10000000000000", "-5", "8", "1000001", "2.5"])
def test_correlation_points_out_of_range_is_a_usage_error(capsys, config_path, points):
    # 1e13 points used to end in a 72.8 TiB allocation traceback, and -5 in
    # numpy's message, which does not name the option.
    with pytest.raises(SystemExit) as exit_info:
        main(["correlation", "--config", config_path, "--points", points])
    err = capsys.readouterr().err
    assert exit_info.value.code == 2
    assert "argument --points: " in err and "Traceback" not in err
    args = build_parser().parse_args(["correlation", "--config", config_path, "--points", "1000000"])
    assert args.points == 1_000_000


def test_correlation_span_beyond_any_grid_names_the_fix(capsys, config_path):
    # The count for +-1e6 s used to be picked on a 457 TiB grid.
    assert main(["correlation", "--config", config_path, "--tau-max", "1e6"]) == 1
    err = capsys.readouterr().err
    assert err == (
        "error: a tau grid on +-1000000.0 s needs 64725618625374 points for these filters, "
        "more than --points allows (1000000); use a smaller --tau-max\n"
    )


# --------------------------------------------------------------------------
# Output bytes: the emitter against a per-cell reference


def _reference_fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _reference_jsonable(value):
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    return value


def _reference_emit(rows, meta, fmt) -> str:
    """The emitter as it was written cell by cell: the bytes to keep."""
    out = io.StringIO()
    columns = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    if fmt == "ndjson":
        out.write(json.dumps({"_meta": meta}) + "\n")
        for row in rows:
            out.write(json.dumps({k: _reference_jsonable(v) for k, v in row.items()}) + "\n")
        return out.getvalue()
    for key, value in meta.items():
        out.write(f"# {key}: {value}\n")
    if fmt == "csv":
        out.write(",".join(columns) + "\n")
        for row in rows:
            out.write(",".join(_reference_fmt(row.get(c)) for c in columns) + "\n")
        return out.getvalue()
    cells = [[_reference_fmt(row.get(c)) for c in columns] for row in rows]
    widths = [
        max(len(col), *(len(r[j]) for r in cells)) if cells else len(col)
        for j, col in enumerate(columns)
    ]
    out.write("  ".join(col.ljust(w) for col, w in zip(columns, widths)).rstrip() + "\n")
    for r in cells:
        out.write("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip() + "\n")
    return out.getvalue()


def _emitted(rows, meta, fmt) -> str:
    out = io.StringIO()
    cli.emit(rows, meta, fmt, out)
    return out.getvalue()


_ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True)
_CELLS = st.one_of(
    _ANY_FLOAT,
    _ANY_FLOAT.map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(),
    st.integers(-5, 5).map(np.int64),
    st.booleans(),
    st.none(),
    st.text(max_size=4),
)
# Columns of one kind each, or of any cells.
_COLUMN_KINDS = st.sampled_from([
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
    _ANY_FLOAT,
    _CELLS,
])


@st.composite
def _column_rows(draw):
    kinds = draw(st.lists(_COLUMN_KINDS, min_size=1, max_size=4))
    n = draw(st.integers(0, 6))
    columns = [draw(st.lists(kind, min_size=n, max_size=n)) for kind in kinds]
    names = [f"c{j}" for j in range(len(kinds))]
    return [dict(zip(names, values)) for values in zip(*columns)]


_META = {"command": "test", "config": "x.cfg"}


@pytest.mark.parametrize("fmt", ["table", "csv", "ndjson"])
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(rows=_column_rows())
@example(rows=[])
@example(rows=[{"x": math.nan, "y": math.inf, "z": -math.inf, "w": -0.0}])
@example(rows=[{"x": 1.5, "y": -0.0}, {"x": math.nan, "y": 2.0}])
@example(rows=[
    {"x": None, "y": True, "z": 3, "s": "abc"},
    {"x": 1.0, "y": False, "z": -2, "s": ""},
])
@example(rows=[
    {"x": np.float64(0.1), "y": np.float32(0.1)},
    {"x": np.float64(math.nan), "y": np.float32(2.5)},
])
# Names that hold the % of the ndjson row template.
@example(rows=[{"100%": 1.0, "%s": "x", "%%": None}])
# A text cell that holds the NUL the table's kept columns are joined with.
@example(rows=[{"s": "a\0b", "x": 1.0}, {"s": "", "x": 2.0}])
# More rows than one block; a column's kind changes within the second block.
@example(rows=[{"a": i / 7, "b": None} for i in range(300)] + [{"a": 2.0, "b": "x"}] * 300)
def test_emit_matches_the_per_cell_reference(fmt, rows):
    assert _emitted(rows_of(rows), _META, fmt) == _reference_emit(rows, _META, fmt)


@pytest.fixture
def emitted_rows(monkeypatch):
    """Run main and keep the rows and meta it hands to emit."""
    seen = []
    real = cli.emit

    def spy(rows, meta, fmt, out=None):
        seen.append((rows, meta))
        real(rows, meta, fmt, out)

    monkeypatch.setattr(cli, "emit", spy)
    return seen


def _library_sweep_rows(config: str, texts: list[str]) -> list[dict]:
    """A CLI sweep's rows as dicts, made from the library optimizer.sweep rows."""
    built = load_and_build(config)
    axes, names, values = [], [], []
    for text in texts:
        axis = SweepAxis.parse(text)
        unit = cli._SWEEP_UNITS.get(axis.name)
        names.append(axis.name + (f"_{unit}" if unit else ""))
        values.append(axis.values)
        if unit is not None:
            axis = SweepAxis(axis.name, tuple(to_si(v, unit) for v in axis.values))
        axes.append(axis)
    source = (built.waves, built.crystal, built.z_r, built.filter_s, built.filter_i)
    rows = []
    for combo, res in zip(itertools.product(*values), sweep(*source, built.pump_power, axes)):
        rep = res.report
        rows.append({
            **dict(zip(names, combo)),
            "w2_per_s": None if rep is None else rep.pair_rate_w2,
            "eta_signal": None if rep is None else rep.eta_signal,
            "eta_idler": None if rep is None else rep.eta_idler,
            "gamma_eff_rad_s": None if rep is None else rep.gamma_eff,
            "error": res.error,
        })
    return rows


def _sweep_matches_the_library_rows(capsys, config: str, texts: list[str]) -> None:
    rows = _library_sweep_rows(config, texts)
    meta = {"command": "sweep", "config": config}
    argv = ["sweep", "--config", config, *itertools.chain(*(["--sweep", t] for t in texts))]
    for fmt in ("table", "csv", "ndjson"):
        assert main([*argv, "--format", fmt]) == 0
        assert capsys.readouterr().out == _reference_emit(rows, meta, fmt), fmt


@pytest.mark.parametrize(
    "argv",
    [
        ["correlation", "--points", "300000"],
        # 40 x 40 points, 709 of them with an error and empty rate cells.
        ["sweep", "--sweep", "P_p=-0.5:1:40", "--sweep", "Gamma_s=-1:5:40"],
    ],
    ids=["correlation-300000", "sweep-40x40-errors"],
)
def test_large_outputs_match_the_per_cell_reference(capsys, config_path, emitted_rows, argv):
    # A sweep's reference is the library rows; correlation's, the row dicts
    # of the columns it hands emit.
    if argv[0] == "sweep":
        _sweep_matches_the_library_rows(capsys, config_path, argv[2::2])
        return
    assert main([*argv, "--config", config_path, "--format", "csv"]) == 0
    source, meta = emitted_rows[0]
    rows = [dict(zip(source.columns, row)) for row in zip(*source.values(0, len(source)))]
    assert capsys.readouterr().out == _reference_emit(rows, meta, "csv")
    for fmt in ("table", "ndjson"):
        assert _emitted(source, meta, fmt) == _reference_emit(rows, meta, fmt)


_GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize(
    "config, texts",
    [
        # P_p outer: a 256-row block takes its points from many runs.
        (None, ["P_p=-0.5:3:9", "Gamma_s=0.5:20:60"]),
        # Runs of 70 powers, which blocks split.
        (None, ["kappa=-6:2:5", "P_p=0.5:2:70"]),
        (None, ["P_p=-1:4:600"]),
        (None, ["Gamma_s=-1:5:20", "Gamma_i=0.5:3:15"]),
        # kappa = -3000 is past the mode-sum kernel's node cap: error rows.
        (None, ["kappa=-3000:-3:3", "P_p=-1:2:4"]),
        (None, ["P_p=-0:1:3", "Gamma_s=1:1:300"]),
        (None, ["Gamma_s=2:2:3", "P_p=1:1:100"]),
        # An unfiltered idler: empty eta_idler cells.
        ("tabulated.cfg", ["P_p=-0.5:2:300"]),
        ("tabulated.cfg", ["Gamma_s=1:2:2", "P_p=0.5:2:3"]),
        ("degenerate.cfg", ["P_p=2:0:5", "kappa=-4:-2:60"]),
    ],
)
def test_sweep_output_is_the_library_rows(capsys, config_path, config, texts):
    # The CLI writes a sweep block by block from its runs; every format
    # gives the bytes of the library rows through the per-cell reference.
    path = config_path if config is None else str(_GOLDEN_DIR / config)
    _sweep_matches_the_library_rows(capsys, path, texts)


def test_rate_only_sweep_holds_one_block(config_path):
    # 100k points, P_p outer: the CLI holds one block of cells and the runs'
    # stages, not a record per point (about 0.85 KB each when it did).
    argv = ["sweep", "--config", config_path, "--format", "csv",
            "--sweep", "P_p=0.1:5:200", "--sweep", "Gamma_s=0.5:40:500"]
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        assert main(argv) == 0  # warm: parser, imports
        tracemalloc.start()
        try:
            assert main(argv) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak < 16e6, peak


def test_correlation_holds_one_block(config_path):
    # 300000 tau points: the CLI holds the trace's arrays and one block of
    # cells, not a row dict per point (about 0.3 KB each when it did).
    argv = ["correlation", "--config", config_path, "--format", "csv"]
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        assert main(argv) == 0  # warm: parser, imports
        tracemalloc.start()
        try:
            assert main([*argv, "--points", "300000"]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak < 32e6, peak


def _run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_one_parser_serves_a_sequence_of_calls(monkeypatch, config_path):
    sequence = [
        ["sweep", "--config", config_path, "--sweep", "P_p=0.5:2:3", "--quad-tol", "1e-6"],
        ["pairs", "--config", config_path, "--format", "csv"],
        ["pairs", "--config", config_path, "--restarts", "1"],
        ["validate", "--format", "ndjson"],
        ["optimize", "--rk", "0.0", "--restarts", "1", "--tol", "1e-2", "--trace"],
    ]
    fresh = []
    for argv in sequence:
        cli._parser.cache_clear()
        fresh.append(_run_main(argv))
    assert [code for code, _, _ in fresh] == [0, 0, 2, 0, 0]

    cli._parser.cache_clear()
    builds = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
    assert [_run_main(argv) for argv in sequence] == fresh
    assert len(builds) == 1
