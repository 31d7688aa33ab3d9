"""Value objects, derived wave quantities and unit conversion."""

import dataclasses
import math
import pickle

import pytest

from spdckit.quantities import (
    C_LIGHT,
    EPS0,
    HBAR,
    CrystalSpec,
    FocusParams,
    OpticalWave,
    WaveTriple,
    derive_focus_params,
    from_si,
    to_si,
)

# CODATA-2018 exact/recommended values.
def test_constants():
    assert C_LIGHT == 299792458.0
    assert EPS0 == 8.8541878128e-12
    assert HBAR == 1.054571817e-34


def test_optical_wave_derived_quantities():
    wave = OpticalWave(vacuum_wavelength=1e-6, refractive_index=2.0)
    # k = 2 pi n / lambda, omega = 2 pi c / lambda, by hand.
    assert math.isclose(wave.wavenumber, 4.0 * math.pi * 1e6, rel_tol=1e-15)
    assert math.isclose(
        wave.angular_frequency, 2.0 * math.pi * 299792458.0 * 1e6, rel_tol=1e-15
    )


def test_cached_wave_quantities_keep_value_semantics():
    # angular_frequency and wavenumber are cached on first read; equality,
    # hash, replace(), pickling and frozenness must not notice.
    lam, n = 812.5e-9, 1.84
    read = OpticalWave(lam, n)
    assert read.angular_frequency == 2.0 * math.pi * C_LIGHT / lam
    assert read.wavenumber == 2.0 * math.pi * n / lam
    fresh = OpticalWave(lam, n)
    assert read == fresh and hash(read) == hash(fresh)
    assert read != OpticalWave(lam, 1.85)
    moved = dataclasses.replace(read, vacuum_wavelength=2.0 * lam)
    assert moved.angular_frequency == 2.0 * math.pi * C_LIGHT / (2.0 * lam)
    assert moved.wavenumber == 2.0 * math.pi * n / (2.0 * lam)
    copy = pickle.loads(pickle.dumps(read))
    assert copy == fresh and hash(copy) == hash(fresh)
    assert copy.angular_frequency == read.angular_frequency
    for field in ("vacuum_wavelength", "refractive_index"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(read, field, 1.0)

    waves = WaveTriple.from_wavelengths(800e-9, 810e-9, 1.844, 1.757, 1.964)
    twin = WaveTriple.from_wavelengths(800e-9, 810e-9, 1.844, 1.757, 1.964)
    # __post_init__ has read every angular_frequency; k_minus0 reads every wavenumber.
    assert waves.k_minus0 == twin.k_minus0
    assert waves == twin and hash(waves) == hash(twin)
    assert pickle.loads(pickle.dumps(waves)) == twin
    swapped = dataclasses.replace(waves, signal=waves.idler, idler=waves.signal)
    assert swapped != waves and swapped.signal.wavenumber == waves.idler.wavenumber
    with pytest.raises(dataclasses.FrozenInstanceError):
        waves.degenerate = True


def test_optical_wave_validation():
    with pytest.raises(ValueError, match="wavelength"):
        OpticalWave(0.0, 1.5)
    with pytest.raises(ValueError, match="refractive_index"):
        OpticalWave(800e-9, 0.99)


def test_from_wavelengths_pins_pump_by_energy_conservation():
    waves = WaveTriple.from_wavelengths(800e-9, 800e-9, 1.844, 1.757, 1.964)
    assert math.isclose(waves.pump.vacuum_wavelength, 400e-9, rel_tol=1e-15)
    non_deg = WaveTriple.from_wavelengths(700e-9, 900e-9, 1.8, 1.8, 1.9)
    lam_p = 1.0 / (1.0 / 700e-9 + 1.0 / 900e-9)
    assert math.isclose(non_deg.pump.vacuum_wavelength, lam_p, rel_tol=1e-15)


def test_energy_conservation_enforced():
    with pytest.raises(ValueError, match="energy conservation"):
        WaveTriple(
            pump=OpticalWave(399e-9, 1.9),
            signal=OpticalWave(800e-9, 1.8),
            idler=OpticalWave(800e-9, 1.8),
        )


def test_degenerate_flag_requires_identical_modes():
    with pytest.raises(ValueError, match="degenerate"):
        WaveTriple.from_wavelengths(800e-9, 800e-9, 1.844, 1.757, 1.964, degenerate=True)
    ok = WaveTriple.from_wavelengths(800e-9, 800e-9, 1.8, 1.8, 1.9, degenerate=True)
    assert ok.degenerate


def test_reference_triple_wavenumbers(ref_waves):
    # Frozen from the bundled PPKTP index set: regression anchors for
    # everything downstream.
    assert math.isclose(ref_waves.signal.wavenumber, 14482742.133048948, rel_tol=1e-15)
    assert math.isclose(ref_waves.idler.wavenumber, 13799445.730893165, rel_tol=1e-15)
    assert math.isclose(ref_waves.pump.wavenumber, 30850439.85825177, rel_tol=1e-15)
    assert math.isclose(ref_waves.k_plus, 59132627.72219388, rel_tol=1e-15)
    assert math.isclose(ref_waves.k_minus0, 2568251.9943096563, rel_tol=1e-12)
    assert math.isclose(ref_waves.r_k, 0.04343206269092842, rel_tol=1e-12)


def test_crystal_spec():
    spec = CrystalSpec(length=1e-2, d_eff=2.4e-12, poling_period=2.0 * math.pi)
    assert math.isclose(spec.qpm_wavenumber, 1.0, rel_tol=1e-15)
    assert CrystalSpec(length=1e-2, d_eff=2.4e-12).qpm_wavenumber == 0.0
    with pytest.raises(ValueError, match="length"):
        CrystalSpec(length=0.0, d_eff=2.4e-12)
    with pytest.raises(ValueError, match="d_eff"):
        CrystalSpec(length=1e-2, d_eff=0.0)
    with pytest.raises(ValueError, match="poling_period"):
        CrystalSpec(length=1e-2, d_eff=2.4e-12, poling_period=-1e-6)


def test_focus_params_validation():
    with pytest.raises(ValueError, match="zeta_r"):
        FocusParams(kappa=0.0, zeta_r=0.0, r_k=0.0)
    with pytest.raises(ValueError, match="r_k"):
        FocusParams(kappa=0.0, zeta_r=0.5, r_k=1.0)


def test_derive_focus_params(ref_waves, ref_crystal):
    fp = derive_focus_params(ref_waves, ref_crystal, 0.18 * ref_crystal.length)
    # Poling was chosen so Delta_k L = -3 exactly.
    assert fp.kappa == -3.0
    assert fp.zeta_r == 0.18
    assert fp.r_k == ref_waves.r_k
    assert fp.rayleigh_range == 0.18 * ref_crystal.length
    with pytest.raises(ValueError, match="z_R"):
        derive_focus_params(ref_waves, ref_crystal, 0.0)


def test_unit_conversions_round_trip():
    for value, unit in [(800.0, "nm"), (10.0, "mm"), (2.4, "pm/V"), (5.0, "mW")]:
        assert math.isclose(from_si(to_si(value, unit), unit), value, rel_tol=1e-15)


def test_frequency_units_are_angular():
    # The one deliberate non-metric conversion: ordinary MHz to rad/s.
    assert to_si(1.0, "MHz") == 2.0 * math.pi * 1e6
    assert to_si(1.0, "GHz") == 2.0 * math.pi * 1e9
    assert to_si(3.5, "rad/s") == 3.5


def test_unknown_unit_rejected():
    with pytest.raises(ValueError, match="unknown unit"):
        to_si(1.0, "furlong")
    with pytest.raises(ValueError, match="unknown unit"):
        from_si(1.0, "THz")
