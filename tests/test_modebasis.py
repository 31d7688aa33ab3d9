"""Laguerre-Gauss projections and the Parseval mode-sum totals."""

import math

import numpy as np
import pytest

from spdckit import modebasis, overlap, quadrature
from spdckit.modebasis import ModeSumError, i_dfg_sq
from spdckit.quantities import CrystalSpec, FocusParams, WaveTriple, derive_focus_params


def test_term0_is_collection_mode_overlap(ref_waves, ref_crystal, ref_fp):
    # Basis mode 0 is the collection mode, so term 0 must reproduce
    # |I_SFG|^2 through an entirely different integrand.
    i_sfg = overlap.i_sfg_gaussian(ref_waves, ref_crystal, ref_fp)
    psum = i_dfg_sq(ref_waves, ref_crystal, ref_fp)
    assert math.isclose(psum.term0, i_sfg.abs_sq, rel_tol=1e-10)


def test_mode_sum_frozen_totals(ref_waves, ref_crystal, ref_fp):
    idler_basis_sum = i_dfg_sq(ref_waves, ref_crystal, ref_fp)
    signal_basis_sum = i_dfg_sq(ref_waves, ref_crystal, ref_fp, arm="signal")
    assert math.isclose(idler_basis_sum.total, 47711.82572248832, rel_tol=1e-9)
    assert math.isclose(signal_basis_sum.total, 47623.5529150877, rel_tol=1e-9)
    # Collection captures ~98.8% of the generated light at this focus.
    ratio = idler_basis_sum.term0 / idler_basis_sum.total
    assert math.isclose(ratio, 0.9883243804710866, rel_tol=1e-9)


def _power_form_coeffs(waves, fp, arm, order, integrate):
    """Coefficient integrals with r(z)^n taken as a complex power.

    Reference for the running product in modebasis._mode_sum: the same
    integrand and quadrature, with base * ratio ** n written out directly.
    """
    k_s, k_i = waves.signal.wavenumber, waves.idler.wavenumber
    k_a, k_b = (k_s, k_i) if arm == "idler" else (k_i, k_s)
    k_p = waves.pump.wavenumber
    k_plus = k_p + k_a + k_b
    k_minus0 = k_p - k_a - k_b
    zeta_r = fp.zeta_r
    orders = np.arange(order + 1)

    def integrand(z):
        qh = z - 1j * zeta_r
        qhc = z + 1j * zeta_r
        s = (k_plus * zeta_r - 1j * k_minus0 * z) / (2.0 * k_b * zeta_r)
        base = np.exp(1j * fp.kappa * z) / (qhc * s)
        ratio = (qh / qhc) * (s - 1.0) / s
        return base * ratio ** orders[:, None]

    return integrate(integrand, -0.5, 0.5, rel_tol=1e-9)


def test_running_product_matches_power_form(ref_waves, ref_crystal, monkeypatch):
    integrate = quadrature.integrate
    seen = []

    def recording(f, a, b, **kwargs):
        seen.append(integrate(f, a, b, **kwargs))
        return seen[-1]

    monkeypatch.setattr(quadrature, "integrate", recording)
    degenerate = WaveTriple.from_wavelengths(800e-9, 800e-9, 1.8, 1.8, 1.9, degenerate=True)
    rng = np.random.default_rng(2024)
    cases = []
    for order in (1, 40, 99, 100, 120, 200):
        for arm in ("idler", "signal"):
            for _ in range(3):
                kappa = float(rng.uniform(-12.0, 5.0))
                zeta_r = float(math.exp(rng.uniform(math.log(0.02), math.log(10.0))))
                cases.append((ref_waves, kappa, zeta_r, arm, order))
    cases.append((degenerate, -3.0, 0.18, "signal", 120))
    for waves, kappa, zeta_r, arm, order in cases:
        fp = FocusParams(kappa=kappa, zeta_r=zeta_r, r_k=waves.r_k)
        calls = len(seen)
        try:
            i_dfg_sq(waves, ref_crystal, fp, arm=arm, basis_order=order, tail_tol=1.0)
        except ModeSumError:
            pass  # a short basis may fail the decay test; its coefficients still count
        assert len(seen) == calls + 1
        got = seen[-1]
        want = _power_form_coeffs(waves, fp, arm, order, integrate)
        case = (kappa, zeta_r, arm, order)
        assert got.n_panels == want.n_panels, case
        got_terms = np.abs(got.value) ** 2
        want_terms = np.abs(want.value) ** 2
        assert math.isclose(got_terms.sum(), want_terms.sum(), rel_tol=1e-13), case
        assert np.max(np.abs(got_terms - want_terms)) <= 1e-13 * want_terms.max(), case


def test_terms_decay_and_tail_is_small(ref_waves, ref_crystal, ref_fp):
    psum = i_dfg_sq(ref_waves, ref_crystal, ref_fp)
    terms = np.asarray(psum.terms)
    assert terms.shape == (41,)
    assert psum.tail_estimate < 1e-4
    assert math.isclose(psum.total, float(terms.sum()), rel_tol=1e-15)
    # Geometric decay on average (individual ratios oscillate).
    assert float(terms[-5:].max()) < 1e-12 * float(terms[0])


def test_truncation_error_raises(ref_waves, ref_crystal, ref_fp):
    with pytest.raises(ModeSumError, match="raise basis_order"):
        i_dfg_sq(ref_waves, ref_crystal, ref_fp, basis_order=3, tail_tol=1e-10)


def test_noise_floor_tail_is_accepted():
    # Strongly asymmetric arms: the terms crash below the quadrature noise
    # floor well before order 40, then fluctuate non-monotonically there.
    # The decay guard must read that as converged, not as a rising tail.
    waves = WaveTriple.from_wavelengths(
        7.547484470465369e-07,
        8.628323342693564e-07,
        1.5016521851294073,
        1.9524999749294167,
        2.0425521158290882,
    )
    length = 1e-2
    poling = 2.0 * math.pi / (waves.k_minus0 - 0.6222343954418017 / length)
    crystal = CrystalSpec(length=length, d_eff=2.4e-12, poling_period=poling)
    fp = derive_focus_params(waves, crystal, 1.5656052797011497 * length)
    psum = i_dfg_sq(waves, crystal, fp)
    terms = np.asarray(psum.terms)
    window = terms[-5:]
    # Trailing window is noise: tiny, and not monotonically decaying.
    assert float(window.max()) < 1e-18 * float(terms.max())
    assert float(window[-1]) > float(window[0])
    assert psum.tail_estimate < 1e-12


def test_arm_must_be_signal_or_idler(ref_waves, ref_crystal, ref_fp):
    with pytest.raises(ValueError, match="arm must be 'signal' or 'idler'"):
        i_dfg_sq(ref_waves, ref_crystal, ref_fp, arm="pump")
    with pytest.raises(ValueError, match="basis_order must be >= 1"):
        i_dfg_sq(ref_waves, ref_crystal, ref_fp, basis_order=0)


def test_module_constants():
    assert modebasis.DEFAULT_MAX_ORDER == 40
    assert modebasis.DEFAULT_TAIL_TOL == 1e-4
