"""Laguerre-Gauss projections and the Parseval mode-sum totals."""

import math

import numpy as np
import pytest

from spdckit import modebasis, overlap
from spdckit.modebasis import LGBasisSpec, ModeSumError, default_basis, i_apg_sq, i_dfg_sq, lg_mode
from spdckit.quantities import CrystalSpec, WaveTriple, derive_focus_params


def test_basis_spec_validation():
    with pytest.raises(ValueError, match="max_radial_order"):
        LGBasisSpec(800e-9, 1.8, 1.8e-3, 0)
    with pytest.raises(ValueError, match="rayleigh_range"):
        LGBasisSpec(800e-9, 1.8, 0.0, 10)


def test_default_basis_arm_selection(ref_waves, ref_crystal, ref_fp):
    b_i = default_basis(ref_waves, ref_crystal, ref_fp, "idler")
    b_s = default_basis(ref_waves, ref_crystal, ref_fp, "signal")
    assert b_i.refractive_index == ref_waves.idler.refractive_index
    assert b_s.refractive_index == ref_waves.signal.refractive_index
    assert b_i.rayleigh_range == ref_fp.zeta_r * ref_crystal.length
    with pytest.raises(ValueError, match="arm"):
        default_basis(ref_waves, ref_crystal, ref_fp, "pump")


def test_lg_modes_orthonormal_on_plane():
    spec = LGBasisSpec(800e-9, 1.8, 1.8e-3, 6)
    w_sq = 2.0 * (0.5e-3**2 + spec.rayleigh_range**2) / (
        spec.wavenumber * spec.rayleigh_range
    )
    r = np.linspace(0.0, 12.0 * math.sqrt(w_sq), 40001)
    z = 0.5e-3
    for n, m in [(0, 0), (1, 1), (3, 3), (0, 1), (1, 2), (0, 3)]:
        u_n = lg_mode(spec, n, r, z)
        u_m = lg_mode(spec, m, r, z)
        inner = np.trapezoid(np.conj(u_n) * u_m * 2.0 * math.pi * r, r)
        want = 1.0 if n == m else 0.0
        assert abs(inner - want) < 1e-6


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


def test_apg_requires_degenerate_modes(ref_waves, ref_crystal, ref_fp):
    with pytest.raises(ValueError, match="identical signal and idler"):
        i_apg_sq(ref_waves, ref_crystal, ref_fp)


def test_apg_equals_signal_basis_dfg_for_degenerate_config():
    waves = WaveTriple.from_wavelengths(800e-9, 800e-9, 1.8, 1.8, 1.9, degenerate=True)
    length = 1e-2
    poling = 2.0 * math.pi / (waves.k_minus0 + 3.0 / length)
    crystal = CrystalSpec(length=length, d_eff=2.4e-12, poling_period=poling)
    fp = derive_focus_params(waves, crystal, 0.18 * length)
    apg = i_apg_sq(waves, crystal, fp)
    dfg = i_dfg_sq(waves, crystal, fp, arm="signal")
    assert apg == dfg


def test_module_constants():
    assert modebasis.DEFAULT_MAX_ORDER == 40
    assert modebasis.DEFAULT_TAIL_TOL == 1e-4
