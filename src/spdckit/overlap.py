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

g with g' and g'' has one evaluator, _scaled_e1: the values (_pole_term),
the derivatives (_pole_jet) and validation's pole integrals all call it.
Every scalar call stays scalar: a numpy version of one Upsilon costs far
more than the Python one. The one array form is _pole_terms, the pole
term over a whole optimizer presample, bit for bit _pole_term's.
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
# From this |y| on, the derivatives of a pole term come from its moment
# series (_moment_jet), whose terms fall by about 1 / (2 |y|) each. Against
# 30-digit references over |kappa| <= 30, the E1 and Ein forms lose up to
# 6e-13 absolute at |y| = 12 and 6e-12 at 16 (2e-10 at 1000), where the
# series of _MOMENT_TERMS terms keeps to 3e-18; at |y| = 8 it keeps to
# 5e-17 and the other forms to 8e-14.
_MOMENT_MIN_ABS_Y = 16.0
_MOMENT_TERMS = 12


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


def _scaled_e1(t: complex) -> tuple[complex, complex, complex]:
    """g(t) = e^t E1(t) on the principal branch of E1, with g'(t) and g''(t).

    Up to |t| = _SERIES_MIN_ABS, g is that product, and E1' = -e^{-t} / t
    (A&S 5.1.26) gives g' = g - 1/t and g'' = g' + 1/t^2, where g'' loses
    up to about eps |t|^2 relative, 6e-11 at the edge. Above it, and where
    |t| overflows, g ~ sum_n (-1)^n n! / t^(n+1) (A&S 5.1.51), whose terms
    shrink while n < |t|: the cut at 1e-17 of the sum comes long before
    they grow. g' and g'' are its tails from n = 1 and 2; they cancel nothing.
    """
    try:
        near = abs(t) <= _SERIES_MIN_ABS
    except OverflowError:
        near = False
    inv = 1.0 / t
    if near:
        g = cmath.exp(t) * complex(exp1(t))
        g1 = g - inv
        return g, g1, g1 + inv * inv
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


def _pole_term(kappa: float, y: float) -> tuple[float, float]:
    """K(y) = J(i y) / 2i for real y != 0, and the size of the terms in it."""
    if abs(kappa) < _KAPPA_ZERO:
        k = math.atan(0.5 / y)
        return k, abs(k)
    ky = kappa * y
    k = (cmath.exp(0.5j * kappa) * _scaled_e1(complex(ky, -0.5 * kappa))[0]).imag
    size = abs(k)
    if ky < 0.0:
        # The path from t1 to t2 crossed the branch cut of E1.
        cut = math.copysign(math.pi, kappa) * math.exp(ky)
        k -= cut
        size += abs(cut)
    return k, size


def _pole_terms(kappa: np.ndarray, y: np.ndarray) -> np.ndarray:
    """K of _pole_term, bit for bit, over 1-D float arrays of kappa and y.

    The E1 lanes run in numpy, with one exp1 call, and take each complex
    product from real and imaginary parts as Python's complex multiply
    does; numpy's own complex multiply and real exp round differently. The
    branch-cut term is taken per lane with math.exp. Lanes at
    |kappa| < _KAPPA_ZERO or |t| > _SERIES_MIN_ABS go to _pole_term, so the
    kappa = 0 branch and the asymptotic series of _scaled_e1 have one form.
    Only the E1 lanes are computed here, so kappa y cannot overflow: a
    lane with |kappa| > 1000 or |y| > 1e300 has |t| > 500.
    """
    out = np.empty(kappa.shape)
    a, b = np.abs(kappa), np.abs(y)
    lanes = np.flatnonzero((a >= _KAPPA_ZERO) & (a <= 1e3) & (b <= 1e300))
    k = kappa[lanes]
    ky = k * y[lanes]
    near = np.hypot(ky, 0.5 * k) <= _SERIES_MIN_ABS
    lanes, k, ky = lanes[near], k[near], ky[near]
    t = ky.astype(complex)
    t.imag = -0.5 * k
    e1, et = exp1(t), np.exp(t)
    g_re = et.real * e1.real - et.imag * e1.imag
    g_im = et.real * e1.imag + et.imag * e1.real
    rot = np.zeros(k.shape, complex)
    rot.imag = 0.5 * k
    rot = np.exp(rot)
    value = rot.real * g_im + rot.imag * g_re
    cut = np.flatnonzero(ky < 0.0)
    value[cut] -= np.copysign(math.pi, k[cut]) * [math.exp(v) for v in ky[cut].tolist()]
    out[lanes] = value
    rest = np.ones(kappa.shape, bool)
    rest[lanes] = False
    for i, kr, yr in zip(np.flatnonzero(rest), kappa[rest].tolist(), y[rest].tolist()):
        out[i] = _pole_term(kr, yr)[0]
    return out


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
    to a part in 1/kappa^2; there _entire_jet takes over. From
    |y| = _MOMENT_MIN_ABS_Y on, where both cancel terms of size |y|,
    _moment_jet does, up to a far pole at y = inf.
    """
    if abs(y) >= _MOMENT_MIN_ABS_Y:
        return _pole_term(kappa, y)[0], _moment_jet(kappa, y)
    t = complex(kappa * y, -0.5 * kappa)
    # As |t| >= |kappa| / 2, the first test decides wherever |t| could overflow.
    if abs(kappa) < 2.0 * _JET_SERIES_MAX_ABS and abs(t) < _JET_SERIES_MAX_ABS:
        return _pole_term(kappa, y)[0], _entire_jet(kappa, y, t)
    g, g1, g2 = _scaled_e1(t)
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
    return k, (d_k, d_y, d_kk, d_ky, d_yy)


def _entire_jet(kappa: float, y: float, t: complex) -> tuple[float, ...]:
    """(K_k, K_y, K_kk, K_ky, K_yy) from K = e^{kappa y} [atan(1/(2y)) + Im Ein(t)].

    That form follows from J(p) = e^{-i kappa p} Int e^{-i kappa u} / u du
    over u from -1/2 - p to 1/2 - p. It is entire in kappa, holds on both
    sides of the branch cut and cancels nothing at small |t|. With
    a_j = (-t)^j / (j + 1)!, Ein(t) = Int_0^t (1 - e^{-u}) / u du is
    t sum a_j / (j + 1), Ein' = sum a_j and Ein'' = -sum (j + 1) a_j / (j + 2);
    for |t| < _JET_SERIES_MAX_ABS the terms fall below 1e-17 within 19.
    """
    a = d0 = d1 = 1.0 + 0j
    d2 = 0.5 * a
    for j in range(1, 20):
        a *= -t / (j + 1)
        d0 += a / (j + 1)
        d1 += a
        d2 += (j + 1) * a / (j + 2)
        if abs(a) <= 1e-17:
            break
    ein, ein1, ein2 = t * d0, d1, -d2
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


def _moments(kappa: float, count: int) -> list[float]:
    """S_n = Int_{-1/2}^{1/2} (-i z)^n e^{-i kappa z} dz for n < count.

    S_n is real, the n-th kappa-derivative of S_0 = 2 sin(kappa/2) / kappa.
    Integrating by parts, kappa S_n = c_n - n S_(n-1) with
    c_n = 2^(1-n) (-1)^(n//2) times sin(kappa/2) for even n, cos(kappa/2)
    for odd n. An error in S_(n-1) reaches S_n times n / |kappa|, so the
    recurrence runs upward while n < |kappa|, and downward from
    S_(count+32) = 0 for the rest, where an error shrinks by |kappa| / n.
    """
    half = 0.5 * kappa
    sin, cos = math.sin(half), math.cos(half)

    def c(n):
        return math.ldexp(-1.0 if n // 2 % 2 else 1.0, 1 - n) * (cos if n % 2 else sin)

    up = min(count, math.floor(abs(kappa)))
    moments = []
    for n in range(up):
        moments.append((c(n) - n * moments[-1]) / kappa if n else c(0) / kappa)
    down, s_n = [], 0.0
    for n in range(count + 32, up, -1):
        s_n = (c(n) - kappa * s_n) / n
        if n <= count:
            down.append(s_n)
    return moments + down[::-1]


def _moment_jet(kappa: float, y: float) -> tuple[float, ...]:
    """(K_k, K_y, K_kk, K_ky, K_yy) for |y| >= _MOMENT_MIN_ABS_Y.

    For |p| > 1/2, J(p) = -sum_n M_n / p^(n+1) with M_n the moments of
    e^{-i kappa z} on [-1/2, 1/2], so K = (1/2) sum_n S_n(kappa) / y^(n+1)
    with S_n of _moments. Each derivative is a sum of the same kind, which
    cancels nothing, where the E1 and Ein forms sum terms of size about
    |y| to a result of size 1/|y|. At |y| = inf every one is 0.
    """
    s = 1.0 / y
    m = _moments(kappa, _MOMENT_TERMS + 2)
    d_k = d_y = d_kk = d_ky = d_yy = 0.0
    power = s  # s^(n+1)
    for n in range(_MOMENT_TERMS):
        d_k += m[n + 1] * power
        d_kk += m[n + 2] * power
        d_y -= (n + 1) * m[n] * power
        d_ky -= (n + 1) * m[n + 1] * power
        d_yy += (n + 1) * (n + 2) * m[n] * power
        power *= s
    return 0.5 * d_k, 0.5 * s * d_y, 0.5 * d_kk, 0.5 * s * d_ky, 0.5 * s * s * d_yy


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
    if math.isinf(inv):
        # |rk| < 2^-1024: the far pole's zr-derivatives, of order rk / zr^2,
        # are 0 to within 1e-300, and 0 * inf would make them NaN.
        inv = 0.0
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
