"""Conversion efficiencies: formula checks, scalings and the degenerate factor."""

import math

import pytest

from spdckit import classical
from spdckit.classical import (
    EfficiencyReport,
    q_apg,
    q_arm,
    q_conversion,
    q_dfg,
    q_sfg,
    q_shg,
)
from spdckit.quantities import C_LIGHT, EPS0, CrystalSpec, WaveTriple

I_SQ = 47154.760598322726  # reference overlap, frozen in test_overlap


def test_q_sfg_hand_formula(ref_waves, ref_crystal):
    w_p = ref_waves.pump.angular_frequency
    by_hand = (
        2.0
        * w_p**2
        * (2.4e-12) ** 2
        * I_SQ
        / (C_LIGHT**3 * EPS0 * 1.964 * 1.844 * 1.757)
    )
    assert math.isclose(q_sfg(ref_waves, ref_crystal, I_SQ), by_hand, rel_tol=1e-12)


def test_q_sfg_frozen_value(ref_waves, ref_crystal):
    assert math.isclose(
        q_sfg(ref_waves, ref_crystal, I_SQ), 0.007935497935239955, rel_tol=1e-12
    )


def test_q_scalings(ref_waves, ref_crystal):
    base = q_sfg(ref_waves, ref_crystal, I_SQ)
    assert math.isclose(q_sfg(ref_waves, ref_crystal, 2.0 * I_SQ), 2.0 * base, rel_tol=1e-14)
    doubled_d = CrystalSpec(
        length=ref_crystal.length,
        d_eff=2.0 * ref_crystal.d_eff,
        poling_period=ref_crystal.poling_period,
    )
    assert math.isclose(q_sfg(ref_waves, doubled_d, I_SQ), 4.0 * base, rel_tol=1e-14)


def test_degenerate_factor_four():
    # Same indices, same overlap: the single-field process converts 4x less.
    deg = WaveTriple.from_wavelengths(800e-9, 800e-9, 1.8, 1.8, 1.9, degenerate=True)
    non_deg = WaveTriple.from_wavelengths(800e-9, 800e-9, 1.8, 1.8, 1.9)
    crystal = CrystalSpec(length=1e-2, d_eff=2.4e-12)
    assert math.isclose(
        q_shg(deg, crystal, I_SQ), q_sfg(non_deg, crystal, I_SQ) / 4.0, rel_tol=1e-14
    )
    assert math.isclose(
        q_apg(deg, crystal, I_SQ), q_dfg(non_deg, crystal, I_SQ), rel_tol=1e-14
    )


def test_q_dfg_generated_arm():
    waves = WaveTriple.from_wavelengths(700e-9, 900e-9, 1.8, 1.8, 1.9)
    crystal = CrystalSpec(length=1e-2, d_eff=2.4e-12)
    q_idler_out = q_dfg(waves, crystal, I_SQ, generated="idler")
    q_signal_out = q_dfg(waves, crystal, I_SQ, generated="signal")
    w_ratio = waves.signal.angular_frequency / waves.idler.angular_frequency
    assert math.isclose(q_signal_out / q_idler_out, w_ratio**2, rel_tol=1e-12)
    with pytest.raises(ValueError, match="generated"):
        q_dfg(waves, crystal, I_SQ, generated="pump")


def test_degenerate_routing_enforced(ref_waves, ref_crystal):
    deg = WaveTriple.from_wavelengths(800e-9, 800e-9, 1.8, 1.8, 1.9, degenerate=True)
    with pytest.raises(ValueError, match="use q_shg"):
        q_sfg(deg, ref_crystal, I_SQ)
    with pytest.raises(ValueError, match="degenerate"):
        q_shg(ref_waves, ref_crystal, I_SQ)
    with pytest.raises(ValueError, match="use q_apg"):
        q_dfg(deg, ref_crystal, I_SQ)
    with pytest.raises(ValueError, match="degenerate"):
        q_apg(ref_waves, ref_crystal, I_SQ)


def test_negative_overlap_rejected(ref_waves, ref_crystal):
    with pytest.raises(ValueError, match=">= 0"):
        q_sfg(ref_waves, ref_crystal, -1.0)


def test_dispatch_picks_the_process(ref_waves, ref_crystal):
    deg = WaveTriple.from_wavelengths(800e-9, 800e-9, 1.8, 1.8, 1.9, degenerate=True)
    assert q_conversion(ref_waves, ref_crystal, I_SQ) == q_sfg(ref_waves, ref_crystal, I_SQ)
    assert q_conversion(deg, ref_crystal, I_SQ) == q_shg(deg, ref_crystal, I_SQ)
    # The signal singles come from the idler the pump generates off the signal.
    assert q_arm(ref_waves, ref_crystal, I_SQ, "signal") == q_dfg(
        ref_waves, ref_crystal, I_SQ, generated="idler"
    )
    assert q_arm(ref_waves, ref_crystal, I_SQ, "idler") == q_dfg(
        ref_waves, ref_crystal, I_SQ, generated="signal"
    )
    for arm in ("signal", "idler"):
        assert q_arm(deg, ref_crystal, I_SQ, arm) == q_apg(deg, ref_crystal, I_SQ)
    for waves in (ref_waves, deg):
        with pytest.raises(ValueError, match="collected"):
            q_arm(waves, ref_crystal, I_SQ, "pump")


def test_efficiency_report_validation():
    report = EfficiencyReport(q_conversion=1e-3, q_signal_arm=2e-3, q_idler_arm=3e-3)
    assert report.q_conversion == 1e-3
    assert (report.q_signal_arm, report.q_idler_arm) == (2e-3, 3e-3)
    for name in ("q_conversion", "q_signal_arm", "q_idler_arm"):
        values = {"q_conversion": 1e-3, "q_signal_arm": 1e-3, "q_idler_arm": 1e-3}
        values[name] = -1e-3
        with pytest.raises(ValueError, match=f"{name} must be >= 0"):
            EfficiencyReport(**values)


def test_module_exports():
    for name in classical.__all__:
        assert getattr(classical, name) is not None
