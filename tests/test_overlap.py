"""Focusing integral and Gaussian overlap, pinned against closed forms."""

import cmath
import math

import numpy as np
import pytest

from spdckit import overlap, quadrature
from spdckit.quantities import CrystalSpec, FocusParams, derive_focus_params


def closed_form_kappa0(zeta_r: float) -> complex:
    # Residue evaluation of the kappa = 0, r_k = 0 integral: the partial
    # fraction collapses to a single log of the endpoint ratio.
    return cmath.log((0.5 - 1j * zeta_r) / (-0.5 - 1j * zeta_r)) / (2j * math.pi)


@pytest.mark.parametrize("zeta_r", [0.1, 0.18, 0.5, 1.0, 2.0, 10.0])
def test_upsilon_matches_closed_form_at_kappa0(zeta_r):
    got = overlap.upsilon(FocusParams(kappa=0.0, zeta_r=zeta_r, r_k=0.0))
    want = closed_form_kappa0(zeta_r)
    assert abs(got.value - want) < 1e-12 * abs(want)


def test_upsilon_spot_value_quarter():
    # log(i) = i pi / 2 turns the closed form into exactly 1/4 at zeta_R = 0.5.
    got = overlap.upsilon(FocusParams(kappa=0.0, zeta_r=0.5, r_k=0.0))
    assert abs(got.value - 0.25) < 1e-12


def test_upsilon_is_real_for_real_arguments():
    # Pairing +z with -z conjugates the integrand, so the integral is real.
    rng = np.random.default_rng(11)
    for _ in range(25):
        fp = FocusParams(
            kappa=float(rng.uniform(-20.0, 20.0)),
            zeta_r=float(rng.uniform(0.05, 5.0)),
            r_k=float(rng.uniform(-0.3, 0.3)),
        )
        res = overlap.upsilon(fp)
        assert abs(res.value.imag) < 1e-12 * max(abs(res.value.real), 1e-6)


def test_upsilon_not_even_in_kappa():
    plus = overlap.upsilon(FocusParams(3.0, 0.18, 0.04))
    minus = overlap.upsilon(FocusParams(-3.0, 0.18, 0.04))
    assert abs(plus.value - minus.value) > 0.1


def test_upsilon_frozen_reference(ref_fp):
    # Regression anchors for the kappa = -3, zeta_R = 0.18 working point.
    spec_form = overlap.upsilon(ref_fp)
    assert math.isclose(spec_form.value.real, 0.5472096562597857, rel_tol=1e-10)
    flipped = overlap.upsilon(FocusParams(ref_fp.kappa, ref_fp.zeta_r, -ref_fp.r_k))
    assert math.isclose(flipped.value.real, 0.543665619381169, rel_tol=1e-10)


UPSILON_REL_TOL = 1e-10
# est_error may exceed the relative bound where partial-fraction terms
# cancel; away from r_k -> -1 it stays within this multiple of it.
EST_ERROR_SLACK = 10.0


def _upsilon_by_quadrature(kappa, zeta_r, r_k, **kwargs):
    """Upsilon by adaptive quadrature of the raw integrand: (value, error).

    The absolute floor is 1e-13 in Upsilon units, so the tiny values at
    large |kappa| terminate; the returned error is the quadrature's own
    estimate in the same units.
    """

    def integrand(z):
        return np.exp(-1j * kappa * z) / ((z - 1j * zeta_r) * (r_k * z + 1j * zeta_r))

    scale = zeta_r / (2.0 * math.pi)
    kwargs.setdefault("rel_tol", 1e-13)
    kwargs.setdefault("abs_floor", 1e-13 / scale)
    res = quadrature.integrate(integrand, -0.5, 0.5, **kwargs)
    return scale * res.value, scale * res.est_error


def _assert_matches_quadrature(kappa, zeta_r, r_k, **kwargs):
    want, want_err = _upsilon_by_quadrature(kappa, zeta_r, r_k, **kwargs)
    got = overlap.upsilon(FocusParams(kappa, zeta_r, r_k))
    assert abs(got.value - want) <= got.est_error + want_err, (kappa, zeta_r, r_k)
    if r_k >= -0.5:
        assert got.est_error <= EST_ERROR_SLACK * UPSILON_REL_TOL * abs(got.value)
    return got


def test_upsilon_matches_quadrature_over_domain():
    # kappa in {0, +-1e-12} or log-uniform up to 1e3 in size, either sign;
    # zeta_R log-uniform over [0.003, 1e3]; r_k in {0, 1e-8} or uniform
    # over |r_k| < 0.99.
    rng = np.random.default_rng(2026)
    n = 1000
    kind = rng.integers(0, 10, n)
    kappa = np.where(kind == 0, 0.0, np.where(kind == 1, 1e-12, 10.0 ** rng.uniform(-12, 3, n)))
    kappa *= rng.choice([-1.0, 1.0], n)
    zeta_r = 10.0 ** rng.uniform(math.log10(0.003), 3.0, n)
    kind = rng.integers(0, 10, n)
    r_k = np.where(kind == 0, 0.0, np.where(kind == 1, 1e-8, rng.uniform(-0.99, 0.99, n)))
    compared = tight = 0
    for k, z, r in zip(kappa.tolist(), zeta_r.tolist(), r_k.tolist()):
        try:
            got = _assert_matches_quadrature(k, z, r)
        except quadrature.QuadratureError:
            continue
        compared += 1
        tight += got.est_error <= 1.01 * UPSILON_REL_TOL * abs(got.value)
    assert compared >= 900
    # For most of the domain est_error is the relative bound itself.
    assert tight >= compared // 2


@pytest.mark.parametrize("r_k", [-0.999, -0.999999])
@pytest.mark.parametrize("kappa, zeta_r", [(-1e-6, 500.0), (-3.0, 10.0), (3.0, 0.18)])
def test_upsilon_error_bound_as_the_poles_merge(kappa, zeta_r, r_k):
    # At r_k -> -1 the pole at -i zeta_R / r_k approaches the one at
    # i zeta_R; the difference of their terms loses digits, and est_error
    # must grow with it.
    _assert_matches_quadrature(kappa, zeta_r, r_k, max_panels=20000)


@pytest.mark.parametrize("kappa", [-0.5, -3.0, -30.0, -300.0])
@pytest.mark.parametrize("zeta_r", [0.01, 0.18, 3.0])
@pytest.mark.parametrize("r_k", [-0.5, 0.0, 0.0434, 0.9])
def test_upsilon_across_the_branch_cut(kappa, zeta_r, r_k):
    # kappa < 0 puts the pole at i zeta_R on the far side of the E1 branch
    # cut; for r_k > 0 the pole at -i zeta_R / r_k crosses it as well.
    _assert_matches_quadrature(kappa, zeta_r, r_k)


@pytest.mark.parametrize("kappa", [-3.0, 0.0, 2.5, 400.0])
@pytest.mark.parametrize("zeta_r", [0.02, 0.5, 50.0])
def test_upsilon_continuous_as_r_k_vanishes(kappa, zeta_r):
    at_zero = overlap.upsilon(FocusParams(kappa, zeta_r, 0.0)).value
    # At 5e-324 the far pole -i zeta_R / r_k overflows to infinity.
    for r_k in (1e-12, -1e-12, 5e-324):
        near = overlap.upsilon(FocusParams(kappa, zeta_r, r_k)).value
        assert abs(near - at_zero) <= 1e-9 * abs(at_zero)


@pytest.mark.parametrize("zeta_r", [0.003, 0.18, 0.5, 20.0, 1e3])
@pytest.mark.parametrize("r_k", [-0.9, 0.0, 0.0434, 0.9])
def test_upsilon_continuous_as_kappa_vanishes(zeta_r, r_k):
    at_zero = overlap.upsilon(FocusParams(0.0, zeta_r, r_k)).value
    # +-5e-324 underflows kappa * zeta_r: the kappa = 0 branch must take it.
    for kappa in (1e-12, -1e-12, 5e-324, -5e-324):
        near = overlap.upsilon(FocusParams(kappa, zeta_r, r_k)).value
        assert abs(near - at_zero) <= UPSILON_REL_TOL * abs(at_zero)


@pytest.mark.parametrize("kappa", [1e4, -1e4])
def test_upsilon_far_from_phase_matching(kappa):
    # Adaptive quadrature needs far more than its default 2000 panels here.
    got = _assert_matches_quadrature(
        kappa, 0.5, 0.0434, rel_tol=1e-10, abs_floor=1e-13, max_panels=100000
    )
    assert math.isfinite(got.value.real) and got.value.imag == 0.0


def test_upsilon_rejects_non_finite_input():
    for kappa, zeta_r in [(math.nan, 0.5), (math.inf, 0.5), (1.0, math.inf)]:
        with pytest.raises(ValueError, match="finite"):
            overlap.upsilon(FocusParams(kappa, zeta_r, 0.04))


def test_i_sfg_reduction_structure(ref_waves, ref_crystal, ref_fp):
    # I_SFG = (4 i / k_plus) sqrt(pi k_p k_s k_i z_R) Upsilon(kappa, zeta, -r_k):
    # the value is purely imaginary and carries the flipped-sign Upsilon.
    res = overlap.i_sfg_gaussian(ref_waves, ref_crystal, ref_fp)
    assert res.method == "reduced-1d"
    assert abs(res.i_value.real) < 1e-9 * abs(res.i_value)
    z_r = ref_fp.zeta_r * ref_crystal.length
    pref = (4.0 / ref_waves.k_plus) * math.sqrt(
        math.pi
        * ref_waves.pump.wavenumber
        * ref_waves.signal.wavenumber
        * ref_waves.idler.wavenumber
        * z_r
    )
    ups = overlap.upsilon(FocusParams(ref_fp.kappa, ref_fp.zeta_r, -ref_fp.r_k))
    assert abs(res.i_value - 1j * pref * ups.value) < 1e-12 * abs(res.i_value)


def test_i_sfg_frozen_reference(ref_waves, ref_crystal, ref_fp):
    res = overlap.i_sfg_gaussian(ref_waves, ref_crystal, ref_fp)
    assert math.isclose(res.i_value.imag, 217.15146925204704, rel_tol=1e-10)
    assert math.isclose(res.abs_sq, 47154.760598322726, rel_tol=1e-10)


def test_i_sfg_scale_invariance(ref_waves, ref_crystal, ref_fp):
    # |I| is dimensionless: scaling every length (wavelengths, crystal,
    # poling period, Rayleigh range) by the same factor leaves it unchanged.
    from spdckit.quantities import CrystalSpec, WaveTriple, derive_focus_params

    s = 2.0
    scaled_waves = WaveTriple.from_wavelengths(
        s * ref_waves.signal.vacuum_wavelength,
        s * ref_waves.idler.vacuum_wavelength,
        ref_waves.signal.refractive_index,
        ref_waves.idler.refractive_index,
        ref_waves.pump.refractive_index,
    )
    scaled_crystal = CrystalSpec(
        length=s * ref_crystal.length,
        d_eff=ref_crystal.d_eff,
        poling_period=s * ref_crystal.poling_period,
    )
    scaled_fp = derive_focus_params(
        scaled_waves, scaled_crystal, ref_fp.zeta_r * scaled_crystal.length
    )
    assert math.isclose(scaled_fp.kappa, ref_fp.kappa, rel_tol=1e-12)
    assert math.isclose(scaled_fp.r_k, ref_fp.r_k, rel_tol=1e-12)
    base = overlap.i_sfg_gaussian(ref_waves, ref_crystal, ref_fp)
    scaled = overlap.i_sfg_gaussian(scaled_waves, scaled_crystal, scaled_fp)
    assert abs(scaled.i_value - base.i_value) < 1e-10 * abs(base.i_value)


def test_direct3d_agrees_with_reduction(ref_waves, ref_crystal, ref_fp):
    reduced = overlap.i_sfg_gaussian(ref_waves, ref_crystal, ref_fp)
    direct = overlap.i_sfg_direct3d(ref_waves, ref_crystal, ref_fp)
    assert direct.method == "direct-3d"
    assert abs(direct.i_value - reduced.i_value) < 1e-9 * abs(reduced.i_value)


def _geometry(waves, kappa, zeta_r):
    length = 1e-2
    poling = 2.0 * math.pi / (waves.k_minus0 - kappa / length)
    crystal = CrystalSpec(length=length, d_eff=2.4e-12, poling_period=poling)
    return crystal, derive_focus_params(waves, crystal, zeta_r * length)


@pytest.mark.parametrize(
    "kappa,zeta_r", [(-3.0, 0.18), (-3.0, 0.0005), (-300.0, 0.18), (-800.0, 0.02)]
)
def test_direct3d_error_bounds_gap_to_reduction(ref_waves, kappa, zeta_r):
    crystal, fp = _geometry(ref_waves, kappa, zeta_r)
    reduced = overlap.i_sfg_gaussian(ref_waves, crystal, fp)
    direct = overlap.i_sfg_direct3d(ref_waves, crystal, fp)
    assert abs(direct.i_value - reduced.i_value) <= direct.est_error
    assert direct.est_error <= 1e-10 * abs(direct.i_value)


def test_direct3d_raises_when_it_does_not_converge(ref_waves):
    # Over a hundred oscillations across the crystal the 1e-10 target is not
    # met within the panel budget; no value with a larger error comes back.
    crystal, fp = _geometry(ref_waves, -3000.0, 0.18)
    with pytest.raises(quadrature.QuadratureError, match="no convergence"):
        overlap.i_sfg_direct3d(ref_waves, crystal, fp)


def test_focus_consistency_enforced(ref_waves, ref_crystal, ref_fp):
    wrong_kappa = FocusParams(kappa=1.0, zeta_r=ref_fp.zeta_r, r_k=ref_fp.r_k)
    with pytest.raises(ValueError, match="kappa"):
        overlap.i_sfg_gaussian(ref_waves, ref_crystal, wrong_kappa)
    wrong_rk = FocusParams(kappa=ref_fp.kappa, zeta_r=ref_fp.zeta_r, r_k=0.2)
    with pytest.raises(ValueError, match="r_k"):
        overlap.i_sfg_direct3d(ref_waves, ref_crystal, wrong_rk)
