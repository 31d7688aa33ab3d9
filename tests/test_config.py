"""Run-configuration parsing, cross-key validation and build."""

import math

import pytest

from spdckit import filters
from spdckit.config import (
    ConfigError,
    RunConfig,
    build,
    load_and_build,
    load_config,
    parse_config,
)

GOOD = """\
# minimal inline source
lambda_s    = 800 nm
lambda_i    = 800 nm
n_s         = 1.844
n_i         = 1.757
n_p         = 1.964
d_eff       = 2.4 pm/V
length      = 10 mm
poling_period = 2.4461974377389637 um
zeta_R      = 0.18
pump_power  = 1 mW
filter_s    = lorentzian 2 MHz
filter_i    = lorentzian 2 MHz
"""


def test_parse_good_config():
    cfg = parse_config(GOOD, name="good")
    assert math.isclose(cfg.lambda_s, 800e-9, rel_tol=1e-15)
    assert math.isclose(cfg.length, 1e-2, rel_tol=1e-15)
    assert math.isclose(cfg.pump_power, 1e-3, rel_tol=1e-15)
    assert cfg.zeta_r == 0.18
    assert isinstance(cfg.filter_s, filters.LorentzianFilter)
    assert math.isclose(cfg.filter_s.gamma, 2.0 * 2.0 * math.pi * 1e6, rel_tol=1e-15)
    assert not cfg.degenerate
    assert cfg.material is None


def test_build_good_config(ref_waves):
    built = build(parse_config(GOOD, name="good"))
    assert math.isclose(built.fp.kappa, -3.0, abs_tol=1e-9)
    assert built.fp.zeta_r == 0.18
    assert math.isclose(built.waves.k_minus0, ref_waves.k_minus0, rel_tol=1e-12)
    assert math.isclose(built.z_r, 1.8e-3, rel_tol=1e-15)


def test_material_reference_config(tmp_path):
    text = """\
material      = PPKTP-800-typeII
lambda_s      = 800 nm
lambda_i      = 800 nm
length        = 10 mm
auto_qpm      = true
z_R           = 1.8 mm
pump_power    = 500 uW
"""
    built = build(parse_config(text, base_dir=tmp_path, name="mat"))
    assert built.waves.signal.refractive_index == 1.844
    # auto_qpm cancels the mismatch entirely.
    assert abs(built.fp.kappa) < 1e-6
    assert built.crystal.material_name == "PPKTP-800-typeII"
    assert isinstance(built.filter_s, filters.Unfiltered)
    assert math.isclose(built.pump_power, 5e-4, rel_tol=1e-15)


def test_all_errors_collected_at_once():
    bad = """\
lambda_s  = 800 nm
lambda_s  = 900 nm
waist     = 30 um
n_s       = 0.5
filter_s  = brickwall 2 MHz
zeta_R    = 0.18
z_R       = 1 mm
"""
    with pytest.raises(ConfigError) as info:
        parse_config(bad, name="bad")
    message = str(info.value)
    assert "line 2: duplicate key" in message
    assert "line 3: unknown key" in message
    assert "line 4: n_s" in message
    assert "line 5: filter_s" in message
    assert "exactly one of z_R or zeta_R" in message
    assert "missing required key 'lambda_i'" in message
    assert len(info.value.errors) >= 6


@pytest.mark.parametrize(
    "mutation, message",
    [
        (("zeta_R      = 0.18", "zeta_R = 0.18\nz_R = 1 mm"), "exactly one of z_R"),
        (("zeta_R      = 0.18", ""), "exactly one of z_R"),
        (("poling_period = 2.4461974377389637 um", ""), "poling_period or auto_qpm"),
        (
            ("poling_period = 2.4461974377389637 um", "poling_period = 2 um\nauto_qpm = true"),
            "mutually exclusive",
        ),
        (("n_s         = 1.844", "n_s = 1.844\nmaterial = PPKTP-800-typeII"), "inline constants"),
        (("n_p         = 1.964", ""), "missing n_p"),
        (("800 nm", "800"), "<number> <unit>"),
        (("2.4 pm/V", "2.4 nm"), "unit must be one of"),
        (("= 1 mW", "= -1 mW"), "must be positive"),
        (("0.18", "0.18 mm"), "bare number"),
        (("lorentzian 2 MHz", "lorentzian 2"), "lorentzian <width>"),
        (("lorentzian 2 MHz", "lorentzian 0 MHz"), "must be positive"),
        (("filter_i    = lorentzian 2 MHz", "filter_i ="), "empty value"),
        (("= 1 mW", "= inf mW"), "line 11: pump_power: value must be finite"),
        (("lorentzian 2 MHz", "lorentzian inf MHz"), "filter_s: value must be finite"),
        # Finite as written, but 2 pi 1e9 times it overflows.
        (("lorentzian 2 MHz", "lorentzian 1e300 GHz"), "filter_s: value must be finite"),
        (("10 mm", "nan mm"), "length: value must be finite"),
        (("0.18", "inf"), "zeta_R: value must be finite"),
        (("1.844", "inf"), "n_s: value must be finite"),
    ],
)
def test_single_violations(mutation, message):
    old, new = mutation
    text = GOOD.replace(old, new)
    assert text != GOOD
    with pytest.raises(ConfigError, match=message):
        parse_config(text, name="mut")


def test_material_db_requires_material():
    text = GOOD + "material_db = local.db\n"
    with pytest.raises(ConfigError, match="material_db requires"):
        parse_config(text, name="db")


def test_filter_table_resolved_relative_to_config(tmp_path):
    (tmp_path / "etalon.txt").write_text(
        "units: MHz\n-4 0.0\n0 1.0\n4 0.0\n", encoding="utf-8"
    )
    text = GOOD.replace("filter_i    = lorentzian 2 MHz", "filter_i = table etalon.txt")
    cfg = parse_config(text, base_dir=tmp_path, name="tab")
    assert isinstance(cfg.filter_i, filters.TabulatedFilter)
    missing = GOOD.replace("filter_i    = lorentzian 2 MHz", "filter_i = table nope.txt")
    with pytest.raises(ConfigError, match="filter_i"):
        parse_config(missing, base_dir=tmp_path, name="tab")


def test_build_unknown_material():
    text = """\
material   = vaporware
lambda_s   = 800 nm
lambda_i   = 800 nm
length     = 10 mm
auto_qpm   = true
zeta_R     = 0.18
pump_power = 1 mW
"""
    with pytest.raises(ConfigError, match="vaporware"):
        build(parse_config(text, name="vapor"))


def test_build_wavelength_outside_material_range():
    text = """\
material   = PPKTP-800-typeII
lambda_s   = 1600 nm
lambda_i   = 1600 nm
length     = 10 mm
auto_qpm   = true
zeta_R     = 0.18
pump_power = 1 mW
"""
    with pytest.raises(ConfigError, match="outside the valid range"):
        build(parse_config(text, name="range"))


def test_build_degenerate_needs_identical_modes():
    text = GOOD + "degenerate = true\n"
    with pytest.raises(ConfigError, match="identical signal and idler"):
        build(parse_config(text, name="deg"))
    ok = text.replace("n_i         = 1.757", "n_i         = 1.844")
    built = build(parse_config(ok, name="deg-ok"))
    assert built.waves.degenerate


def test_build_auto_qpm_needs_normal_dispersion():
    text = """\
lambda_s   = 800 nm
lambda_i   = 800 nm
n_s        = 1.8
n_i        = 1.8
n_p        = 1.2
d_eff      = 2.4 pm/V
length     = 10 mm
auto_qpm   = true
zeta_R     = 0.18
pump_power = 1 mW
"""
    with pytest.raises(ConfigError, match="auto_qpm"):
        build(parse_config(text, name="anom"))


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "absent.cfg")


def test_shipped_sample_config():
    from importlib import resources

    path = resources.files("spdckit").joinpath("data/ppktp_800_typeII.cfg")
    built = load_and_build(str(path))
    assert math.isclose(built.fp.kappa, -3.0, abs_tol=1e-9)
    assert built.fp.zeta_r == 0.18
    assert math.isclose(built.pump_power, 1e-3, rel_tol=1e-15)
    assert isinstance(built.filter_s, filters.LorentzianFilter)


def test_run_config_is_plain_data():
    cfg = parse_config(GOOD, name="good")
    assert isinstance(cfg, RunConfig)
    assert cfg.source == "good"
