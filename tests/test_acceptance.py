"""Shipping gate: the ten acceptance criteria, one test each.

Every test carries an ``acceptance`` marker; conftest prints a one-line
PASS/FAIL summary per criterion at the end of the run. Tolerances and
runtime budgets are pinned here and nowhere else.
"""

import math
import time

import numpy as np
import pytest

from spdckit import classical, overlap, quantum, validation
from spdckit.filters import (
    LorentzianFilter,
    Unfiltered,
    correlation_shape,
    default_tau_grid,
    gamma_eff_pair,
)
from spdckit.optimizer import optimize_focus
from spdckit.quantities import (
    C_LIGHT,
    EPS0,
    CrystalSpec,
    FocusParams,
    WaveTriple,
    derive_focus_params,
    to_si,
)

TWO_PI = 2.0 * math.pi


@pytest.mark.acceptance(number=1, title="focusing optimum at R_k = 0.04")
def test_focusing_optimum():
    start = time.monotonic()
    result = optimize_focus(0.04, restarts=2, rel_tol=1e-6)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    assert result.best_objective == pytest.approx(0.054, rel=0.05)
    assert abs(result.best_kappa - (-3.0)) <= 0.1
    assert abs(result.best_zeta_r - 0.18) <= 0.01


@pytest.mark.acceptance(number=2, title="absolute conversion efficiency, 10 mm type-II source")
def test_absolute_conversion_efficiency(ref_waves, ref_crystal, ref_fp):
    """Two-field Q_SFG = P_p / (P_s P_i) of the reference source.

    The pin is validation.absolute_q_fresnel at this configuration
    (7.9355e-3 per watt), rounded: driven-wave-equation fields in SI,
    independent of the classical module. The historical pin 2.0e-3 per watt
    was the single-field (second-harmonic convention) number of this
    crystal, a factor 4 lower; docs/normalization.md derives both.
    """
    start = time.monotonic()
    i_sfg = overlap.i_sfg_gaussian(ref_waves, ref_crystal, ref_fp)
    q_sfg = classical.q_sfg(ref_waves, ref_crystal, i_sfg.abs_sq)
    assert time.monotonic() - start < 1.0
    assert q_sfg == pytest.approx(7.9e-3, rel=0.10)


@pytest.mark.acceptance(number=3, title="absolute pair rate at 1 mW and 1 MHz joint width")
def test_absolute_pair_rate(ref_waves, ref_crystal, ref_fp):
    """W2 of the reference source at 1 mW and Gamma_eff = 2 pi x 1 MHz.

    The pin is validation.absolute_pair_rate_fresnel with matched 2 MHz
    Lorentzian filters (3.1162 pairs per second), rounded: seeded
    difference-frequency photon gain times the joint filter bandwidth,
    never through quantum.pair_rate. The historical pin 0.785 was
    Gamma_eff P Q / 16 evaluated with the single-field 2.0e-3 per watt.
    """
    start = time.monotonic()
    i_sfg = overlap.i_sfg_gaussian(ref_waves, ref_crystal, ref_fp)
    q_sfg = classical.q_sfg(ref_waves, ref_crystal, i_sfg.abs_sq)
    w2 = quantum.pair_rate(ref_waves, 1e-3, q_sfg, gamma_eff=TWO_PI * 1e6)
    assert time.monotonic() - start < 1.0
    assert w2 == pytest.approx(3.12, rel=0.10)


@pytest.mark.acceptance(number=4, title="filter width consistency triangle")
def test_filter_width_triangle():
    rng = np.random.default_rng(41)
    for _ in range(20):
        lo, hi = math.log(TWO_PI * 0.8e6), math.log(TWO_PI * 32e6)
        f_s = LorentzianFilter(math.exp(rng.uniform(lo, hi)))
        f_i = LorentzianFilter(math.exp(rng.uniform(lo, hi)))
        closed = gamma_eff_pair(f_s, f_i)
        spectral = validation.gamma_eff_pair_spectral(f_s, f_i)
        tau = default_tau_grid(f_s, f_i, points=2**21 + 1)
        temporal = correlation_shape(f_s, f_i, tau=tau).temporal_gamma_eff()
        for a, b in ((closed, spectral), (closed, temporal), (spectral, temporal)):
            assert abs(a - b) <= 1e-6 * max(a, b)
    for gamma in (TWO_PI * 1e6, TWO_PI * 7.3e6, 977.0, 2.0):
        matched = gamma_eff_pair(LorentzianFilter(gamma), LorentzianFilter(gamma))
        assert matched == 0.5 * gamma


@pytest.mark.acceptance(number=5, title="correlation shape limits")
def test_correlation_shape_limits():
    gamma_i = 2.0
    tau = np.linspace(-16.0 / gamma_i, 16.0 / gamma_i, 4001)
    one_sided = correlation_shape(Unfiltered(), LorentzianFilter(gamma_i), tau=tau)
    expected = np.where(tau > 0, 0.0, 0.5 * gamma_i * np.exp(0.5 * gamma_i * tau))
    peak = 0.5 * gamma_i
    assert np.max(np.abs(one_sided.f - expected)) <= 1e-9 * peak

    gamma = 1.5
    tau = np.linspace(-20.0 / gamma, 20.0 / gamma, 4001)
    matched = correlation_shape(LorentzianFilter(gamma), LorentzianFilter(gamma), tau=tau)
    expected = 0.25 * gamma * np.exp(-0.5 * gamma * np.abs(tau))
    assert np.max(np.abs(matched.f - expected)) <= 1e-9 * (0.25 * gamma)


@pytest.mark.acceptance(number=6, title="reduced 1D overlap vs direct 3D quadrature")
def test_reduced_vs_direct_overlap():
    rng = np.random.default_rng(20240811)
    start = time.monotonic()
    worst = 0.0
    for _ in range(100):
        kappa = rng.uniform(-20.0, 20.0)
        zeta_r = rng.uniform(0.05, 5.0)
        r_k = max(rng.uniform(0.0, 0.2), 1e-9)
        # Invert the draw into wavelengths and indices: r_k fixes k_p/k.
        k = 1.4e7
        k_p = 2.0 * k * (1.0 + r_k) / (1.0 - r_k)
        lambda_s = 800e-9
        n_s = k * lambda_s / TWO_PI
        n_p = k_p * (lambda_s / 2.0) / TWO_PI
        waves = WaveTriple.from_wavelengths(lambda_s, lambda_s, n_s, n_s, n_p)
        length = 0.01
        if kappa > 0 and waves.k_minus0 * length < 2.0 * kappa:
            # Keep the poling wavenumber positive for positive mismatch.
            length = 2.0 * kappa / waves.k_minus0
        q = waves.k_minus0 - kappa / length
        poling = None if q == 0 else TWO_PI / q
        crystal = CrystalSpec(length=length, d_eff=2.4e-12, poling_period=poling)
        fp = derive_focus_params(waves, crystal, zeta_r * length)
        reduced = overlap.i_sfg_gaussian(waves, crystal, fp)
        direct = overlap.i_sfg_direct3d(waves, crystal, fp)
        rel = abs(reduced.i_value - direct.i_value) / abs(direct.i_value)
        worst = max(worst, rel)
        assert rel <= 1e-4
    assert time.monotonic() - start < 60.0
    assert worst <= 1e-4


@pytest.mark.acceptance(number=7, title="closed-form spot value of the focusing integral")
def test_closed_form_spot_value():
    ups = overlap.upsilon(FocusParams(kappa=0.0, zeta_r=0.5, r_k=0.0))
    assert abs(ups.value - 0.25) <= 1e-9


@pytest.mark.acceptance(number=8, title="loose-focus rate equivalence")
def test_loose_focus_rate_equivalence():
    report = validation.ling_comparator(zeta_r=50.0)
    assert report.rel_diff < 1e-3
    assert report.passed


@pytest.mark.acceptance(number=9, title="heralding bound and rate identity")
def test_heralding_bound():
    rng = np.random.default_rng(97)
    for _ in range(200):
        n_s = rng.uniform(1.5, 2.0)
        n_i = rng.uniform(1.5, 2.0)
        n_p = rng.uniform(max(n_s, n_i) + 0.01, 2.2)
        lambda_s = rng.uniform(700e-9, 900e-9)
        lambda_i = rng.uniform(700e-9, 900e-9)
        waves = WaveTriple.from_wavelengths(lambda_s, lambda_i, n_s, n_i, n_p)
        length = 0.01
        kappa = rng.uniform(-6.0, 1.0)
        # k_minus0 L is >= O(10^3) here, so the poling wavenumber stays positive.
        q = waves.k_minus0 - kappa / length
        crystal = CrystalSpec(length=length, d_eff=2.4e-12, poling_period=TWO_PI / q)
        fp = derive_focus_params(waves, crystal, rng.uniform(0.1, 2.0) * length)
        f_s = LorentzianFilter(to_si(rng.uniform(0.5, 20.0), "MHz"))
        f_i = LorentzianFilter(to_si(rng.uniform(0.5, 20.0), "MHz"))
        power = rng.uniform(1e-4, 1e-2)
        report = quantum.evaluate_source(waves, crystal, fp, f_s, f_i, power)
        assert 0.0 < report.eta_signal <= 1.0
        floor = min(report.singles_rate_signal, report.singles_rate_idler)
        assert report.pair_rate_w2 <= floor * (1.0 + 1e-12)
        ratio = report.pair_rate_w2 / report.singles_rate_signal
        assert abs(report.eta_signal - ratio) <= 1e-12 * ratio


@pytest.mark.acceptance(number=10, title="second-harmonic conversion identity at R_k = 0")
def test_second_harmonic_identity():
    waves = WaveTriple.from_wavelengths(800e-9, 800e-9, 1.8, 1.8, 1.8, degenerate=True)
    crystal = CrystalSpec(length=0.01, d_eff=2.4e-12)
    w_s = waves.signal.angular_frequency
    k_s = waves.signal.wavenumber
    n_p = waves.pump.refractive_index
    n_s = waves.signal.refractive_index
    for zeta_r in (0.1, 0.18, 1.0, 2.84):
        fp = derive_focus_params(waves, crystal, zeta_r * crystal.length)
        assert fp.kappa == 0.0 and fp.r_k == 0.0
        i_sfg = overlap.i_sfg_gaussian(waves, crystal, fp)
        q_route = classical.q_shg(waves, crystal, i_sfg.abs_sq)
        ups = overlap.upsilon(fp)
        converted = (
            4.0
            * math.pi
            * w_s**2
            * k_s
            * crystal.d_eff**2
            * fp.rayleigh_range
            * ups.abs_sq
            / (C_LIGHT**3 * EPS0 * n_p * n_s**2)
        )
        assert q_route == pytest.approx(converted, rel=1e-10)
