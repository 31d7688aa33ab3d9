"""Focusing integral and Gaussian three-beam overlap.

The dimensionless focusing integral

    Upsilon(kappa, zeta_r, r_k)
        = (zeta_r / 2 pi) * Int_{-1/2}^{1/2} dz
          exp(-i kappa z) / [(z - i zeta_r)(r_k z + i zeta_r)]

carries the whole geometry dependence of collinear Gaussian-beam conversion:
kappa = Delta_k * L is the accumulated phase mismatch, zeta_r = z_R / L the
normalized Rayleigh range, r_k the wavenumber ratio. For r_k = 0 it reduces
to the zero-walk-off Boyd-Kleinman focusing function (up to the conventional
2 pi^2 zeta_r scaling checked in the tests).

Upsilon is real for all real arguments: pairing the integrand at +z and -z
gives complex-conjugate values. It is not even in kappa, which is why the
optimum sits at negative kappa.

``upsilon`` evaluates it in closed form. Partial fractions split the
integrand into two simple poles, a = i zeta_r and c = -i zeta_r / r_k:

    Upsilon = [J(a) - J(c)] / (2 pi i (1 + r_k)),   J(a) / (2 pi i) at r_k = 0,
    J(p)    = Int_{-1/2}^{1/2} exp(-i kappa z) / (z - p) dz.

For kappa != 0, J(p) = e^{i kappa/2} g(t1) - e^{-i kappa/2} g(t2) with
t1,2 = i kappa (-+1/2 - p) and g(t) = e^t E1(t) the scaled exponential
integral (Abramowitz & Stegun 5.1.1). Both poles lie on the imaginary
axis, so t2 = conj(t1) and g(conj t) = conj g(t): the two terms are
complex conjugates, J(p) / 2i is the imaginary part of the first one, and
one E1 evaluation per pole gives Upsilon as an exactly real number.
The path from t1 to t2 runs at Re t = kappa Im p; when that is negative it
crosses the branch cut of E1 on the negative real axis, and J picks up
-sign(kappa) 2 pi i e^{-i kappa p}, a factor of size at most 1. For
|kappa| < 1e-15, kappa = 0 included, J(p) is the log of the endpoint ratio,
log(1/2 - p) - log(-1/2 - p) = 2 i atan(1 / (2 Im p)), written so that a
far pole keeps its digits.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import exp1

from .quadrature import integrate
from .quantities import CrystalSpec, FocusParams, WaveTriple

__all__ = [
    "UpsilonResult",
    "OverlapResult",
    "upsilon",
    "i_sfg_gaussian",
    "i_sfg_direct3d",
]


# Relative error bound of upsilon, held against adaptive quadrature at
# rel_tol 1e-13 over |kappa| <= 1e4, zeta_r in [0.003, 1e3], |r_k| < 0.99.
_UPSILON_REL_ERROR = 1e-10
# Below this |kappa|, J(p) is taken at kappa = 0: it moves by O(kappa)
# relative, far inside the error bound, and t can underflow to 0.
_KAPPA_ZERO = 1e-15
# Rounding error of a partial-fraction term relative to its size.
_TERM_ROUNDING = 1e-14
# Above this |t|, g(t) = e^t E1(t) comes from its asymptotic series, which
# then reaches 1e-17 of the sum within 9 terms. Below it, e^t and E1(t) are
# both far from overflow and the product is good to about 1e-15.
_SERIES_MIN_ABS = 500.0


@dataclass(frozen=True)
class UpsilonResult:
    """Value of the focusing integral with its error bound.

    The value is within est_error of the exact integral: 1e-10 * |value|
    plus 1e-14 of the summed sizes of the partial-fraction terms, over
    |kappa| <= 1e4, zeta_r in [0.003, 1e3] and |r_k| < 0.99. The second
    part matters only where those terms cancel: near a zero of Upsilon, as
    r_k -> -1 merges the two poles, and at small |kappa| on the far side of
    the E1 branch cut. The tests check the bound against adaptive
    quadrature.
    """

    value: complex
    est_error: float

    @property
    def abs_sq(self) -> float:
        return abs(self.value) ** 2


@dataclass(frozen=True)
class OverlapResult:
    """Three-beam overlap integral I (dimensionless).

    Mode functions are normalized on a transverse plane (each carries 1/m),
    so the volume integral cancels every length. ``method`` records which
    route produced the value ("reduced-1d" or "direct-3d").
    """

    i_value: complex
    method: str
    est_error: float

    @property
    def abs_sq(self) -> float:
        return abs(self.i_value) ** 2


def _scaled_e1(t: complex) -> complex:
    """g(t) = e^t E1(t) on the principal branch of E1."""
    if abs(t) <= _SERIES_MIN_ABS:
        return cmath.exp(t) * complex(exp1(t))
    # g(t) ~ sum_n (-1)^n n! / t^(n+1) (A&S 5.1.51); the terms shrink while
    # n < |t|, so the cut at 1e-17 of the sum comes long before they grow.
    inv = 1.0 / t
    term = total = inv
    for n in range(1, 16):
        term *= -n * inv
        total += term
        if abs(term) <= 1e-17 * abs(total):
            break
    return total


def _pole_term(kappa: float, y: float) -> tuple[float, float]:
    """K(y) = J(i y) / 2i for real y != 0, and the size of the terms in it."""
    if abs(kappa) < _KAPPA_ZERO:
        k = math.atan(0.5 / y)
        return k, abs(k)
    ky = kappa * y
    k = (cmath.exp(0.5j * kappa) * _scaled_e1(complex(ky, -0.5 * kappa))).imag
    size = abs(k)
    if ky < 0.0:
        # The path from t1 to t2 crossed the branch cut of E1.
        cut = math.copysign(math.pi, kappa) * math.exp(ky)
        k -= cut
        size += abs(cut)
    return k, size


def upsilon(fp: FocusParams) -> UpsilonResult:
    """Evaluate the focusing integral in closed form (see the module doc).

    Valid for every finite kappa. The value is real, as it must be for real
    arguments; est_error is described on UpsilonResult.
    """
    kappa, zr, rk = fp.kappa, fp.zeta_r, fp.r_k
    if not (math.isfinite(kappa) and math.isfinite(zr)):
        raise ValueError("kappa and zeta_r must be finite")
    value, size = _upsilon_core(kappa, zr, rk)
    est_error = _UPSILON_REL_ERROR * abs(value) + _TERM_ROUNDING * size / math.pi
    return UpsilonResult(value=complex(value), est_error=est_error)


def _upsilon_core(kappa: float, zr: float, rk: float) -> tuple[float, float]:
    """Real Upsilon and the summed size of its partial-fraction terms.

    The caller guarantees finite kappa, zr > 0 and |rk| < 1.
    """
    k, size = _pole_term(kappa, zr)
    if rk != 0.0:
        k_far, size_far = _pole_term(kappa, -zr / rk)
        k = (k - k_far) / (1.0 + rk)
        size = (size + size_far) / (1.0 + rk)
    return k / math.pi, size


def _check_focus_consistency(
    waves: WaveTriple, crystal: CrystalSpec, fp: FocusParams
) -> None:
    kappa = (waves.k_minus0 - crystal.qpm_wavenumber) * crystal.length
    if abs(fp.kappa - kappa) > 1e-6 * (1.0 + abs(kappa)):
        raise ValueError(
            f"FocusParams.kappa = {fp.kappa:.6g} does not match the physical "
            f"configuration (expected {kappa:.6g})"
        )
    if abs(fp.r_k - waves.r_k) > 1e-9 * (1.0 + abs(waves.r_k)):
        raise ValueError(
            f"FocusParams.r_k = {fp.r_k:.6g} does not match the wave triple "
            f"(expected {waves.r_k:.6g})"
        )


def i_sfg_gaussian(
    waves: WaveTriple,
    crystal: CrystalSpec,
    fp: FocusParams,
) -> OverlapResult:
    """Sum-frequency overlap of three equal-Rayleigh-range Gaussian modes.

    Evaluates the reduced one-dimensional form

        I_SFG = (4 i / k_plus) sqrt(pi k_p k_s k_i z_R)
                * Upsilon(kappa, zeta_r, -r_k).

    The radial integral against the conjugated pump mode flips the sign of
    the r_k term and carries twice the amplitude a naive reduction suggests;
    both facts are pinned against i_sfg_direct3d in the test suite.
    """
    _check_focus_consistency(waves, crystal, fp)
    k_p = waves.pump.wavenumber
    k_s = waves.signal.wavenumber
    k_i = waves.idler.wavenumber
    z_r = fp.zeta_r * crystal.length
    ups = upsilon(FocusParams(fp.kappa, fp.zeta_r, -fp.r_k))
    prefactor = (4.0 / waves.k_plus) * math.sqrt(math.pi * k_p * k_s * k_i * z_r)
    return OverlapResult(
        i_value=1j * prefactor * ups.value,
        method="reduced-1d",
        est_error=prefactor * ups.est_error,
    )


def i_sfg_direct3d(
    waves: WaveTriple,
    crystal: CrystalSpec,
    fp: FocusParams,
) -> OverlapResult:
    """Brute-force overlap: volume integral of the three Gaussian modes.

    The transverse integral of the Gaussian product is done analytically,
    the longitudinal integral numerically, at relative tolerance 1e-10, by
    the adaptive Gauss-Kronrod engine of quadrature.py rather than through
    Upsilon, so this is an oracle for i_sfg_gaussian rather than a rescaled
    copy of it. Raises QuadratureError when that engine does not converge.
    """
    _check_focus_consistency(waves, crystal, fp)
    k_p = waves.pump.wavenumber
    k_s = waves.signal.wavenumber
    k_i = waves.idler.wavenumber
    z_r = fp.zeta_r * crystal.length
    delta_k = waves.k_minus0 - crystal.qpm_wavenumber
    half_l = 0.5 * crystal.length
    pref = math.sqrt(k_p * k_s * k_i * z_r**3 / math.pi**3)

    def line_density(z):
        # M_p* M_s M_i integrated over the transverse plane at height z.
        q = z - 1j * z_r
        qb = z + 1j * z_r
        a = (k_s + k_i) / (2.0 * q) - k_p / (2.0 * qb)
        return pref * np.exp(-1j * delta_k * z) / (qb * q * q) * (1j * math.pi / a)

    res = integrate(line_density, -half_l, half_l, rel_tol=1e-10)
    return OverlapResult(i_value=res.value, method="direct-3d", est_error=res.est_error)
