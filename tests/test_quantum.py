"""Pair/singles rates, heralding identity and the full source pipeline."""

import math

import pytest

from spdckit import filters
from spdckit.quantities import CrystalSpec, WaveTriple, derive_focus_params
from spdckit.quantum import (
    OverlapBundle,
    SourceReport,
    compute_overlaps,
    conditional_efficiency,
    correlation_amplitude_sq,
    evaluate_source,
    pair_rate,
    singles_rate,
)

MHZ = 2.0 * math.pi * 1e6
LORENTZIAN_2MHZ = filters.LorentzianFilter(2.0 * MHZ)


@pytest.fixture(scope="module")
def deg_setup():
    """Degenerate triple plus an index-matched non-degenerate twin."""
    deg = WaveTriple.from_wavelengths(800e-9, 800e-9, 1.8, 1.8, 1.9, degenerate=True)
    non_deg = WaveTriple.from_wavelengths(800e-9, 800e-9, 1.8, 1.8, 1.9)
    length = 1e-2
    poling = 2.0 * math.pi / (deg.k_minus0 + 3.0 / length)
    crystal = CrystalSpec(length=length, d_eff=2.4e-12, poling_period=poling)
    fp = derive_focus_params(deg, crystal, 0.18 * length)
    return deg, non_deg, crystal, fp


def test_pair_rate_formula(ref_waves):
    w_s = ref_waves.signal.angular_frequency
    w_i = ref_waves.idler.angular_frequency
    w_p = ref_waves.pump.angular_frequency
    got = pair_rate(ref_waves, 1e-3, 8e-3, MHZ)
    assert math.isclose(got, MHZ * (w_i * w_s / (4.0 * w_p**2)) * 1e-3 * 8e-3, rel_tol=1e-14)
    with pytest.raises(ValueError, match=">= 0"):
        pair_rate(ref_waves, -1e-3, 8e-3, MHZ)


def test_singles_rate_arms(ref_waves):
    w_s = ref_waves.signal.angular_frequency
    w_i = ref_waves.idler.angular_frequency
    sig = singles_rate(ref_waves, 1e-3, 8e-3, MHZ, collected="signal")
    idl = singles_rate(ref_waves, 1e-3, 8e-3, MHZ, collected="idler")
    assert math.isclose(sig / idl, (w_s / w_i) ** 2, rel_tol=1e-14)
    with pytest.raises(ValueError, match="collected"):
        singles_rate(ref_waves, 1e-3, 8e-3, MHZ, collected="pump")


def test_conditional_efficiency_identity(ref_waves, ref_crystal, ref_fp):
    # eta must equal W2/W1 through the rate formulas, not by construction.
    overlaps = compute_overlaps(ref_waves, ref_crystal, ref_fp)
    gamma_pair = filters.gamma_eff_pair(LORENTZIAN_2MHZ, LORENTZIAN_2MHZ)
    gamma_one = filters.gamma_eff_single(LORENTZIAN_2MHZ)
    from spdckit import classical

    q_conv = classical.q_sfg(ref_waves, ref_crystal, overlaps.i_sfg_sq)
    q_gen = classical.q_dfg(ref_waves, ref_crystal, overlaps.i_dfg_sq_signal_arm)
    w2 = pair_rate(ref_waves, 1e-3, q_conv, gamma_pair)
    w1 = singles_rate(ref_waves, 1e-3, q_gen, gamma_one, collected="signal")
    eta = conditional_efficiency(
        ref_waves, gamma_pair, gamma_one, overlaps.i_sfg_sq, overlaps.i_dfg_sq_signal_arm
    )
    assert math.isclose(eta, w2 / w1, rel_tol=1e-12)


def test_conditional_efficiency_validation(ref_waves):
    with pytest.raises(ValueError, match="denominator"):
        conditional_efficiency(ref_waves, MHZ, MHZ, 1.0, 0.0)
    with pytest.raises(ValueError, match="denominator"):
        conditional_efficiency(ref_waves, MHZ, 0.0, 1.0, 1.0)


def test_correlation_amplitude_hand_formula(ref_waves):
    from spdckit.quantities import C_LIGHT, EPS0, HBAR

    scale = correlation_amplitude_sq(ref_waves, 1e-3, 8e-3)
    w_s = ref_waves.signal.angular_frequency
    w_i = ref_waves.idler.angular_frequency
    w_p = ref_waves.pump.angular_frequency
    a_sq = (
        HBAR**2 * w_i**2 * w_s**2 / (4.0 * C_LIGHT**2 * EPS0**2 * 1.844 * 1.757 * w_p**2)
    ) * 1e-3 * 8e-3
    assert math.isclose(scale.a_sq, a_sq, rel_tol=1e-12)
    assert math.isclose(
        scale.w2_prefactor, (w_s * w_i / w_p**2) * 1e-3 * 8e-3, rel_tol=1e-12
    )


def test_correlation_density_integrates_to_pair_rate(ref_waves, ref_crystal, ref_fp):
    # Gamma_eff = 4 Int |f|^2 dtau makes w2_prefactor * Gamma_eff / 4 the
    # total coincidence rate; both sides through separate call chains.
    from spdckit import classical, overlap

    i_sfg = overlap.i_sfg_gaussian(ref_waves, ref_crystal, ref_fp)
    q_conv = classical.q_sfg(ref_waves, ref_crystal, i_sfg.abs_sq)
    gamma = filters.gamma_eff_pair(LORENTZIAN_2MHZ, LORENTZIAN_2MHZ)
    scale = correlation_amplitude_sq(ref_waves, 1e-3, q_conv)
    w2 = pair_rate(ref_waves, 1e-3, q_conv, gamma)
    assert math.isclose(scale.w2_prefactor * gamma / 4.0, w2, rel_tol=1e-12)


def test_compute_overlaps_frozen(ref_waves, ref_crystal, ref_fp):
    bundle = compute_overlaps(ref_waves, ref_crystal, ref_fp)
    assert math.isclose(bundle.i_sfg_sq, 47154.760598322726, rel_tol=1e-10)
    assert math.isclose(bundle.i_dfg_sq_signal_arm, 47711.82572248832, rel_tol=1e-9)
    assert math.isclose(bundle.i_dfg_sq_idler_arm, 47623.5529150877, rel_tol=1e-9)


def test_compute_overlaps_degenerate_arms_coincide(deg_setup):
    deg, _, crystal, fp = deg_setup
    bundle = compute_overlaps(deg, crystal, fp)
    assert bundle.i_dfg_sq_signal_arm == bundle.i_dfg_sq_idler_arm


def test_evaluate_source_frozen_report(ref_waves, ref_crystal, ref_fp):
    report = evaluate_source(
        ref_waves, ref_crystal, ref_fp, LORENTZIAN_2MHZ, LORENTZIAN_2MHZ, 1e-3
    )
    assert report.gamma_eff == MHZ  # matched 2 MHz pair halves exactly
    assert math.isclose(report.pair_rate_w2, 3.1162627519908517, rel_tol=1e-10)
    assert math.isclose(report.singles_rate_signal, 6.306153755926731, rel_tol=1e-10)
    assert math.isclose(report.singles_rate_idler, 6.294486587724589, rel_tol=1e-10)
    assert math.isclose(report.eta_signal, 0.4941621902355433, rel_tol=1e-10)
    assert math.isclose(report.eta_idler, 0.495078146336532, rel_tol=1e-10)
    assert math.isclose(
        report.efficiencies.q_conversion, 0.007935497935239955, rel_tol=1e-10
    )
    # The heralding identity between independent code paths.
    assert math.isclose(
        report.eta_signal,
        report.pair_rate_w2 / report.singles_rate_signal,
        rel_tol=1e-12,
    )
    assert report.narrowband_ok is None


def test_evaluate_source_unfiltered_arm(ref_waves, ref_crystal, ref_fp):
    report = evaluate_source(
        ref_waves, ref_crystal, ref_fp, LORENTZIAN_2MHZ, filters.Unfiltered(), 1e-3
    )
    assert report.gamma_eff == LORENTZIAN_2MHZ.gamma
    assert report.singles_rate_idler is None
    assert report.eta_idler is None
    assert report.gamma_eff_i is None
    assert report.singles_rate_signal is not None


def test_evaluate_source_names_filters_without_a_shared_passband(ref_waves, ref_crystal, ref_fp):
    # T_i(-W) of this line lives on -3..-1 MHz, so it never meets itself.
    line = filters.TabulatedFilter([1.0 * MHZ, 2.0 * MHZ, 3.0 * MHZ], [0.2, 1.0, 0.2])
    dark = filters.TabulatedFilter([-MHZ, MHZ], [0.0, 0.0])
    cases = [
        (line, line, "passbands of filter_s and filter_i do not overlap"),
        (dark, LORENTZIAN_2MHZ, "filter_s transmits nothing"),
        (LORENTZIAN_2MHZ, dark, "filter_i transmits nothing"),
        (filters.Unfiltered(), dark, "filter_i transmits nothing"),
    ]
    for f_s, f_i, message in cases:
        assert filters.gamma_eff_pair(f_s, f_i) == 0.0
        with pytest.raises(ValueError, match=message):
            evaluate_source(ref_waves, ref_crystal, ref_fp, f_s, f_i, 1e-3)


def test_evaluate_source_precomputed_overlaps(ref_waves, ref_crystal, ref_fp):
    bundle = compute_overlaps(ref_waves, ref_crystal, ref_fp)
    direct = evaluate_source(
        ref_waves, ref_crystal, ref_fp, LORENTZIAN_2MHZ, LORENTZIAN_2MHZ, 1e-3
    )
    cached = evaluate_source(
        ref_waves,
        ref_crystal,
        ref_fp,
        LORENTZIAN_2MHZ,
        LORENTZIAN_2MHZ,
        1e-3,
        overlaps=bundle,
    )
    assert cached.pair_rate_w2 == direct.pair_rate_w2


def test_evaluate_source_narrowband_flag(ref_waves, ref_crystal, ref_fp):
    wide = evaluate_source(
        ref_waves,
        ref_crystal,
        ref_fp,
        LORENTZIAN_2MHZ,
        LORENTZIAN_2MHZ,
        1e-3,
        pm_bandwidth=1e12,
    )
    assert wide.narrowband_ok is True
    narrow = evaluate_source(
        ref_waves,
        ref_crystal,
        ref_fp,
        LORENTZIAN_2MHZ,
        LORENTZIAN_2MHZ,
        1e-3,
        pm_bandwidth=1e3,
    )
    assert narrow.narrowband_ok is False


def test_degenerate_source_factors(deg_setup):
    # Equal geometry: non-degenerate pairs 4x brighter, singles equal,
    # so degenerate heralding drops by the same factor 4.
    deg, non_deg, crystal, fp = deg_setup
    r_deg = evaluate_source(deg, crystal, fp, LORENTZIAN_2MHZ, LORENTZIAN_2MHZ, 1e-3)
    r_non = evaluate_source(non_deg, crystal, fp, LORENTZIAN_2MHZ, LORENTZIAN_2MHZ, 1e-3)
    assert math.isclose(r_non.pair_rate_w2, 4.0 * r_deg.pair_rate_w2, rel_tol=1e-12)
    assert math.isclose(
        r_non.singles_rate_signal, r_deg.singles_rate_signal, rel_tol=1e-12
    )
    assert math.isclose(r_non.eta_signal, 4.0 * r_deg.eta_signal, rel_tol=1e-12)
    # Degenerate identity holds with its own factor.
    assert math.isclose(
        r_deg.eta_signal, r_deg.pair_rate_w2 / r_deg.singles_rate_signal, rel_tol=1e-12
    )
    # The degenerate report holds Q_SHG / Q_APG, the two-field one Q_SFG / Q_DFG.
    from spdckit import classical

    i_sfg_sq, i_apg_sq = r_deg.overlaps.i_sfg_sq, r_deg.overlaps.i_dfg_sq_signal_arm
    assert r_deg.efficiencies.q_conversion == classical.q_shg(deg, crystal, i_sfg_sq)
    assert r_deg.efficiencies.q_signal_arm == classical.q_apg(deg, crystal, i_apg_sq)
    assert r_deg.efficiencies.q_idler_arm == r_deg.efficiencies.q_signal_arm
    assert r_non.efficiencies.q_conversion == classical.q_sfg(non_deg, crystal, i_sfg_sq)


def test_degenerate_eta_factor_follows_the_triple(deg_setup):
    # The 1/4 comes from the triple, so it cannot be set against it.
    deg, non_deg, _, _ = deg_setup
    args = (MHZ, 2.0 * MHZ, 3.0, 5.0)
    assert conditional_efficiency(deg, *args) == 0.25 * conditional_efficiency(non_deg, *args)


def test_compute_overlaps_degenerate_one_mode_sum(
    deg_setup, ref_waves, ref_crystal, ref_fp, monkeypatch
):
    from spdckit import modebasis

    deg, non_deg, crystal, fp = deg_setup
    calls = []
    real = modebasis.i_dfg_sq

    def counting(*args, **kwargs):
        calls.append(kwargs["arm"])
        return real(*args, **kwargs)

    monkeypatch.setattr(modebasis, "i_dfg_sq", counting)
    # Equal signal and idler waves share one mode sum, with or without the
    # degenerate flag.
    for waves in (deg, non_deg):
        bundle = compute_overlaps(waves, crystal, fp)
        assert calls == ["idler"]
        assert bundle.i_dfg_sq_signal_arm == bundle.i_dfg_sq_idler_arm
        calls.clear()
    ref = compute_overlaps(ref_waves, ref_crystal, ref_fp)
    assert calls == ["idler", "signal"]
    assert ref.i_dfg_sq_signal_arm != ref.i_dfg_sq_idler_arm


def test_source_report_invariants_enforced():
    from spdckit.classical import EfficiencyReport

    eff = EfficiencyReport(1e-3, 1e-3, 1e-3)
    bundle = OverlapBundle(1.0, 1.0, 1.0)
    common = dict(
        gamma_eff=MHZ,
        gamma_eff_s=MHZ,
        gamma_eff_i=MHZ,
        pump_power=1e-3,
        efficiencies=eff,
        overlaps=bundle,
    )
    with pytest.raises(ValueError, match="outside"):
        SourceReport(
            pair_rate_w2=1.0,
            singles_rate_signal=2.0,
            singles_rate_idler=2.0,
            eta_signal=1.5,
            eta_idler=0.5,
            **common,
        )
    with pytest.raises(ValueError, match="exceeds"):
        SourceReport(
            pair_rate_w2=3.0,
            singles_rate_signal=2.0,
            singles_rate_idler=2.0,
            eta_signal=0.5,
            eta_idler=0.5,
            **common,
        )
