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
# Below this |t| the derivatives of a pole term come from _entire_jet, whose
# Ein series needs at most 19 terms here. Against 60-digit references at
# |y| from 0.02 to 2000, both forms are good to 2e-14 absolute at |t| = 1
# for |y| <= 60; below it the E1 form loses up to 2e-12 (4e-10 at
# |y| = 2000), and the series form keeps to 1e-12.
_JET_SERIES_MAX_ABS = 1.0


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
    return _asymptotic_jet(t)[0]


def _asymptotic_jet(t: complex) -> tuple[complex, complex, complex]:
    """g(t), g'(t) and g''(t) for |t| > _SERIES_MIN_ABS.

    g(t) ~ sum_n (-1)^n n! / t^(n+1) (A&S 5.1.51); the terms shrink while
    n < |t|, so the cut at 1e-17 of the sum comes long before they grow.
    As g' = g - 1/t and g'' = g' + 1/t^2, the derivatives are the tails of
    the same sum from n = 1 and from n = 2, which cancel nothing.
    """
    inv = 1.0 / t
    term = total = inv
    tail1 = tail2 = 0j
    for n in range(1, 16):
        term *= -n * inv
        total += term
        tail1 += term
        if n > 1:
            tail2 += term
        if abs(term) <= 1e-17 * abs(total):
            break
    return total, tail1, tail2


def _scaled_e1_jet(t: complex) -> tuple[complex, complex, complex]:
    """g(t) as _scaled_e1 gives it, with g' = g - 1/t and g'' = g' + 1/t^2.

    E1'(t) = -e^{-t} / t (A&S 5.1.26) gives both derivatives. Below
    _SERIES_MIN_ABS, g'' loses up to about eps |t|^2 relative to the
    cancelling sum, 6e-11 at its edge.
    """
    if abs(t) > _SERIES_MIN_ABS:
        return _asymptotic_jet(t)
    g = cmath.exp(t) * complex(exp1(t))
    inv = 1.0 / t
    g1 = g - inv
    return g, g1, g1 + inv * inv


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


def _ein_jet(s: complex) -> tuple[complex, complex, complex]:
    """Ein(s) = Int_0^s (1 - e^{-u}) / u du with its first two derivatives.

    Ein is entire: with a_j = (-s)^j / (j + 1)!, Ein' = sum a_j,
    Ein = s sum a_j / (j + 1) and Ein'' = -sum (j + 1) a_j / (j + 2). For
    |s| < _JET_SERIES_MAX_ABS the terms fall below 1e-17 within 19.
    """
    a = 1.0 + 0j
    d0 = d1 = a
    d2 = 0.5 * a
    for j in range(1, 20):
        a *= -s / (j + 1)
        d0 += a / (j + 1)
        d1 += a
        d2 += (j + 1) * a / (j + 2)
        if abs(a) <= 1e-17:
            break
    return s * d0, d1, -d2


def _pole_jet(kappa: float, y: float) -> tuple[float, tuple[float, ...]]:
    """K(kappa, y) of _pole_term with (K_k, K_y, K_kk, K_ky, K_yy).

    The value is _pole_term's, bit for bit, and the derivatives come from
    the same E1 evaluation: with h = e^{i kappa/2} g(t), t = kappa w and
    w = y - i/2,

        h_k  = e^{i kappa/2} (i g / 2 + g' w)
        h_kk = e^{i kappa/2} (-g / 4 + i g' w + g'' w^2)
        h_ky = e^{i kappa/2} (g' + i kappa g' / 2 + kappa g'' w)
        h_y  = e^{i kappa/2} kappa g',   h_yy = e^{i kappa/2} kappa^2 g'',

    and the branch-cut term pi sign(kappa) e^{kappa y} differentiates as
    e^{kappa y} does. At small |t| the 1/t and 1/t^2 in g' and g'' cancel
    to a part in 1/kappa^2; there _entire_jet takes over.
    """
    t = complex(kappa * y, -0.5 * kappa)
    if abs(t) < _JET_SERIES_MAX_ABS:
        return _pole_term(kappa, y)[0], _entire_jet(kappa, y, t)
    g, g1, g2 = _scaled_e1_jet(t)
    w = complex(y, -0.5)
    rot = cmath.exp(0.5j * kappa)
    k = (rot * g).imag
    d_k = (rot * (0.5j * g + g1 * w)).imag
    d_y = (rot * kappa * g1).imag
    d_kk = (rot * (-0.25 * g + 1j * g1 * w + g2 * w * w)).imag
    d_ky = (rot * (g1 + 0.5j * kappa * g1 + kappa * g2 * w)).imag
    d_yy = (rot * kappa * kappa * g2).imag
    ky = kappa * y
    if ky < 0.0:
        cut = math.copysign(math.pi, kappa) * math.exp(ky)
        k -= cut
        d_k -= y * cut
        d_y -= kappa * cut
        d_kk -= y * y * cut
        d_ky -= (1.0 + ky) * cut
        d_yy -= kappa * kappa * cut
    if abs(kappa) < _KAPPA_ZERO:
        k = math.atan(0.5 / y)  # _pole_term's value there, for a far pole
    return k, (d_k, d_y, d_kk, d_ky, d_yy)


def _entire_jet(kappa: float, y: float, t: complex) -> tuple[float, ...]:
    """(K_k, K_y, K_kk, K_ky, K_yy) from K = e^{kappa y} [atan(1/(2y)) + Im Ein(t)].

    That form follows from J(p) = e^{-i kappa p} Int e^{-i kappa u} / u du
    over u from -1/2 - p to 1/2 - p. It is entire in kappa, holds on both
    sides of the branch cut and cancels nothing at small |t|.
    """
    ein, ein1, ein2 = _ein_jet(t)
    w = complex(y, -0.5)
    q = 4.0 * y * y + 1.0
    b = math.atan(0.5 / y) + ein.imag
    b_k = (ein1 * w).imag
    b_y = kappa * ein1.imag - 2.0 / q
    b_kk = (ein2 * w * w).imag
    b_ky = (ein2 * kappa * w + ein1).imag
    b_yy = kappa * kappa * ein2.imag + 16.0 * y / (q * q)
    e = math.exp(kappa * y)
    return (
        e * (y * b + b_k),
        e * (kappa * b + b_y),
        e * (y * y * b + 2.0 * y * b_k + b_kk),
        e * ((1.0 + kappa * y) * b + y * b_y + kappa * b_k + b_ky),
        e * (kappa * kappa * b + 2.0 * kappa * b_y + b_yy),
    )


def _upsilon_jet(kappa: float, zr: float, rk: float) -> tuple[float, tuple[float, ...]]:
    """Upsilon of _upsilon_core, bit for bit, with its derivatives in (kappa, zr).

    Returns (U, (U_k, U_z, U_kk, U_kz, U_zz)). The far pole sits at
    y = -zr / rk, so its zr-derivatives carry -1/rk and 1/rk^2. The caller
    guarantees what _upsilon_core's does.
    """
    k, d = _pole_jet(kappa, zr)
    if rk == 0.0:
        return k / math.pi, tuple(x / math.pi for x in d)
    k_far, f = _pole_jet(kappa, -zr / rk)
    scale = math.pi * (1.0 + rk)
    inv = 1.0 / rk
    return ((k - k_far) / (1.0 + rk)) / math.pi, (
        (d[0] - f[0]) / scale,
        (d[1] + f[1] * inv) / scale,
        (d[2] - f[2]) / scale,
        (d[3] + f[3] * inv) / scale,
        (d[4] - f[4] * inv * inv) / scale,
    )


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
