"""CLI: subcommand columns, output formats, exit codes."""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from spdckit import classical, overlap
from spdckit.cli import build_parser, main
from spdckit.config import load_and_build
from spdckit.optimizer import optimize_focus

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
    code = main(["singles", "--config", config_path, "--basis-order", "0"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and "basis_order must be >= 1" in err


def test_correlation_bad_tau_max(capsys, config_path):
    code = main(["correlation", "--config", config_path, "--tau-max", "-1"])
    err = capsys.readouterr().err
    assert code == 1
    assert "error:" in err and "--tau-max" in err


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
    assert "argument --quad-tol:" in err and "basis_order" not in err


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
    code = main(["optimize"])
    err = capsys.readouterr().err
    assert code == 2
    assert "optimize needs --rk or --config" in err


def test_missing_config_is_usage_error(capsys):
    code = main(["pairs", "--config", "/no/such/file.cfg"])
    err = capsys.readouterr().err
    assert code == 2
    assert "error:" in err and "cannot read" in err


@pytest.mark.parametrize("command", ["sfg", "correlation", "optimize"])
def test_quad_tol_only_on_mode_sum_commands(capsys, config_path, command):
    # Upsilon has no quadrature; --quad-tol sets the mode-sum tolerance only.
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", config_path, "--quad-tol", "1e-8"])
    assert exc.value.code == 2
    assert "--quad-tol" in capsys.readouterr().err
    assert main(["pairs", "--config", config_path, "--quad-tol", "1e-8"]) == 0


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



@pytest.mark.parametrize("command", ["pairs", "singles"])
def test_huge_basis_order_is_refused(capsys, config_path, command):
    # An order of 1e11 used to end in numpy's 1.46 TiB allocation traceback.
    code = main([command, "--config", config_path, "--basis-order", "100000000000"])
    assert code == 1
    assert capsys.readouterr().err == "error: basis_order must be <= 4096, got 100000000000\n"


def test_huge_basis_order_fails_each_sweep_row(capsys, config_path):
    argv = ["sweep", "--config", config_path, "--basis-order", "100000000000"]
    code, _, rows, err = run_ndjson(capsys, argv + ["--sweep", "P_p=1:2:2"])
    assert code == 0 and not err
    message = "ValueError: basis_order must be <= 4096, got 100000000000"
    assert [row["error"] for row in rows] == [message] * 2



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
