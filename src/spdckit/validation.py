"""Independent cross-checks of the main computational routes.

Every oracle here recomputes a package quantity by a genuinely different
method: closed forms, direct Fresnel propagation of thin source slices
(each one Gaussian in r, so plane integrals are exact Gaussian moments), a
thin-crystal plane-wave rate formula, and the Boyd-Kleinman focusing
constant. The package quadrature engine (adaptive Gauss-Kronrod) runs on
no rate path; it is the oracle of routes that do not use it: the closed
form of Upsilon, the Lorentzian joint linewidth Gamma_eff
(gamma_eff_pair_spectral), the mode-sum kernel (dfg_total_closed, whose
inner integral is in closed form, at the bundled and at a tight focus)
and, through i_sfg_direct3d, the reduced I_SFG. Every other integration in
this module is a Gauss-Legendre rule over slices in asinh(z / z_R) or a
plain trapezoid sum.

The absolute route (absolute_q_fresnel, absolute_pair_rate_fresnel) fixes
the absolute scale of Q_SFG and W2 from SI fields and the driven wave
equation alone. It is slower than the rest and stays out of
run_all_oracles; the test suite compares it with the package.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from . import classical, filters, overlap, quadrature, quantum
from .optimizer import optimize_focus
from .quantities import (
    C_LIGHT,
    EPS0,
    HBAR,
    CrystalSpec,
    FocusParams,
    OpticalWave,
    WaveTriple,
    derive_focus_params,
)

__all__ = [
    "OracleReport",
    "closed_form_upsilon_kappa0",
    "oracle_upsilon_closed_form",
    "oracle_upsilon_vs_quadrature",
    "dfg_total_closed",
    "oracle_dfg_closed",
    "gamma_eff_pair_spectral",
    "oracle_reduction_vs_direct",
    "oracle_fresnel_self_test",
    "oracle_dfg_fresnel",
    "oracle_dfg_thin_crystal",
    "ling_comparator",
    "boyd_kleinman_report",
    "ABSOLUTE_ROUTE_TOL",
    "absolute_q_fresnel",
    "absolute_pair_rate_fresnel",
    "run_all_oracles",
]


@dataclass(frozen=True)
class OracleReport:
    """One main-route value against its independently computed twin."""

    name: str
    main_value: float
    oracle_value: float
    rel_diff: float
    tolerance: float
    passed: bool


def _report(name: str, main: float, oracle: float, tol: float) -> OracleReport:
    rel = abs(main - oracle) / max(abs(oracle), 1e-300)
    return OracleReport(
        name=name,
        main_value=float(main),
        oracle_value=float(oracle),
        rel_diff=float(rel),
        tolerance=float(tol),
        passed=bool(rel <= tol),
    )


# A representative type-II configuration used by several oracles: equal
# 800 nm signal/idler wavelengths with distinct indices, 1 cm crystal.
_N_S, _N_I, _N_P = 1.844, 1.757, 1.964
_LAMBDA = 800e-9
_D_EFF = 2.4e-12
_LENGTH = 1e-2


def _reference_point(
    kappa: float, zeta_r: float
) -> tuple[WaveTriple, CrystalSpec, FocusParams]:
    """The reference waves, their crystal poled for kappa, and its focus at zeta_r."""
    waves = WaveTriple.from_wavelengths(_LAMBDA, _LAMBDA, _N_S, _N_I, _N_P)
    q = waves.k_minus0 - kappa / _LENGTH
    crystal = CrystalSpec(length=_LENGTH, d_eff=_D_EFF, poling_period=2.0 * math.pi / q)
    return waves, crystal, derive_focus_params(waves, crystal, zeta_r * _LENGTH)


def closed_form_upsilon_kappa0(zeta_r: float) -> float:
    """Upsilon(0, zeta_r, 0) = log[(1/2 - i zeta_r)/(-1/2 - i zeta_r)] / (2 pi i).

    Direct antiderivative of 1/((z - i zeta_r)(i zeta_r)) ... the kappa = 0,
    r_k = 0 integrand collapses to a single pole and integrates to a log.
    """
    ratio = (0.5 - 1j * zeta_r) / (-0.5 - 1j * zeta_r)
    value = cmath.log(ratio) / (2.0j * math.pi)
    return value.real


def oracle_upsilon_closed_form(zeta_r: float = 0.5) -> OracleReport:
    fp = FocusParams(kappa=0.0, zeta_r=zeta_r, r_k=0.0)
    main = overlap.upsilon(fp).value.real
    oracle = closed_form_upsilon_kappa0(zeta_r)
    return _report(f"upsilon-closed-form-{zeta_r:g}", main, oracle, 1e-9)


def oracle_upsilon_vs_quadrature() -> OracleReport:
    """Closed-form Upsilon against adaptive quadrature of its raw integrand."""
    # The bundled reference point; r_k is its R_k = 0.0434320627, rounded.
    kappa, zeta_r, r_k = -3.0, 0.18, 0.0434

    def integrand(z: np.ndarray) -> np.ndarray:
        return np.exp(-1j * kappa * z) / ((z - 1j * zeta_r) * (r_k * z + 1j * zeta_r))

    scale = zeta_r / (2.0 * math.pi)
    res = quadrature.integrate(integrand, -0.5, 0.5, rel_tol=1e-13, abs_floor=1e-13 / scale)
    main = overlap.upsilon(FocusParams(kappa=kappa, zeta_r=zeta_r, r_k=r_k)).value.real
    return _report("upsilon-vs-quadrature", main, (scale * res.value).real, 1e-10)


def _pole_integrals(kappa: float, p: np.ndarray) -> np.ndarray:
    """J(p) = Int_{-1/2}^{1/2} exp(-i kappa z) / (z - p) dz at complex poles p off the segment.

    As in overlap: J = e^{i kappa/2} g(t1) - e^{-i kappa/2} g(t2) with
    t1,2 = i kappa (-+1/2 - p) and g(t) = e^t E1(t). The path from t1 to t2
    runs at Re t = kappa Im p and crosses the branch cut of E1 when that is
    negative and |Re p| < 1/2; J then picks up -sign(kappa) 2 pi i e^{-i kappa p}.
    At |kappa| < overlap._KAPPA_ZERO, J is the log of the endpoint ratio.
    """
    if abs(kappa) < overlap._KAPPA_ZERO:
        return np.log(0.5 - p) - np.log(-0.5 - p)
    t = 1j * kappa * np.stack([-0.5 - p, 0.5 - p])
    near = np.abs(t) <= overlap._SERIES_MIN_ABS
    g = np.exp(np.where(near, t, 0.0)) * special.exp1(np.where(near, t, 1.0))
    for j in zip(*np.nonzero(~near)):
        g[j] = overlap._scaled_e1(complex(t[j]))
    value = cmath.exp(0.5j * kappa) * g[0] - cmath.exp(-0.5j * kappa) * g[1]
    cut = (kappa * p.imag < 0.0) & (np.abs(p.real) < 0.5)
    jump = 2j * math.copysign(math.pi, kappa) * np.exp(-1j * kappa * np.where(cut, p, 0.0))
    return value - np.where(cut, jump, 0.0)


def dfg_total_closed(
    waves: WaveTriple, length: float, kappa: float, zeta_r: float, arm: str = "idler"
) -> tuple[float, float]:
    """The total |I_DFG|^2 on the given arm's basis, with its error bound.

    The mode sum is Int Int exp(i kappa (z - z')) K(z, z') dz dz' with
    K = base(z) conj(base(z')) / (1 - r(z) conj(r(z'))) (modebasis). For
    fixed z, conj(base(z')) / (1 - r(z) conj(r(z'))) = 1 / Q(z'), with Q
    the quadratic (z' - i zeta_R) conj(s(z')) - r(z) (z' + i zeta_R)
    (conj(s(z')) - 1). So the inner integral is two E1 pole terms,
    [J(p_near) - J(p_far)] / sqrt(disc), over the roots of Q; the outer one
    runs on adaptive quadrature to 1e-12 in u = asinh(z / zeta_R), which
    spreads the focus's width zeta_R over the span.
    """
    k_p = waves.pump.wavenumber
    k_s, k_i = waves.signal.wavenumber, waves.idler.wavenumber
    k_a, k_b = (k_s, k_i) if arm == "idler" else (k_i, k_s)
    alpha = (k_p + k_a + k_b) / (2.0 * k_b)
    beta = (k_p - k_a - k_b) / (2.0 * k_b * zeta_r)

    def integrand(z: np.ndarray) -> np.ndarray:
        s = alpha - 1j * beta * z
        r = (z - 1j * zeta_r) / (z + 1j * zeta_r) * (s - 1.0) / s
        a2 = 1j * beta * (1.0 - r)
        a1 = alpha + beta * zeta_r - r * (alpha - 1.0 - beta * zeta_r)
        a0 = -1j * zeta_r * (alpha + r * (alpha - 1.0))
        root = np.sqrt(a1 * a1 - 4.0 * a2 * a0)
        root = np.where((a1.conj() * root).real >= 0.0, root, -root)
        q = -0.5 * (a1 + root)  # the roots of Q are a0 / q and q / a2, without cancellation
        near, far = _pole_integrals(kappa, np.stack([a0 / q, q / a2]))
        inner = (near - far) / root
        return np.exp(1j * kappa * z) * inner / ((z + 1j * zeta_r) * s)

    def outer(u: np.ndarray) -> np.ndarray:
        return integrand(zeta_r * np.sinh(u)) * (zeta_r * np.cosh(u))  # dz = zeta_R cosh(u) du

    u_max = math.asinh(0.5 / zeta_r)
    res = quadrature.integrate(outer, -u_max, u_max, rel_tol=1e-12)
    prefactor = k_p * k_a * zeta_r * length / (math.pi * k_b)
    return prefactor * res.value.real, prefactor * res.est_error


def oracle_dfg_closed(kappa: float = -3.0, zeta_r: float = 0.18) -> OracleReport:
    """Singles total of the hot path against its closed-form inner integral.

    The main side is quantum.compute_overlaps' idler-basis total (signal
    arm) on the reference waves; the oracle side is dfg_total_closed, which
    shares no code with modebasis.
    """
    waves, crystal, fp = _reference_point(kappa, zeta_r)
    main = quantum.compute_overlaps(waves, crystal, fp).i_dfg_sq_signal_arm
    oracle, _ = dfg_total_closed(waves, _LENGTH, fp.kappa, fp.zeta_r)
    return _report(f"dfg-closed-{zeta_r:g}", main, oracle, 1e-10)


def gamma_eff_pair_spectral(f_s: filters.FilterSpec, f_i: filters.FilterSpec) -> float:
    """(2/pi) Int T_s(W) T_i(-W) dW of two table-free arms by adaptive quadrature [rad/s].

    The oracle for the closed forms of filters.gamma_eff_pair. W = s tan(theta)
    maps the real line onto an interval, so the adaptive rule sees the
    Lorentzian tails. A tabulated arm raises ValueError: its Gamma_eff is
    already exact, and the tests check it against an exact integral.
    """
    if isinstance(f_s, filters.TabulatedFilter) or isinstance(f_i, filters.TabulatedFilter):
        raise ValueError("gamma_eff_pair_spectral takes table-free pairs only")
    gammas = [f.gamma for f in (f_s, f_i) if isinstance(f, filters.LorentzianFilter)]
    if not gammas:
        raise ValueError("gamma_eff is undefined with both arms unfiltered")
    scale = 0.25 * sum(gammas)

    def integrand(theta):
        w = scale * np.tan(theta)
        jac = scale / np.cos(theta) ** 2
        return f_s.transmission(w) * f_i.transmission(-w) * jac

    res = quadrature.integrate(
        integrand, -0.5 * math.pi + 1e-12, 0.5 * math.pi - 1e-12, rel_tol=1e-10
    )
    return (2.0 / math.pi) * float(np.real(res.value))


def oracle_reduction_vs_direct() -> OracleReport:
    """Reduced 1D sum-frequency overlap against the direct 3D integral."""
    waves, crystal, fp = _reference_point(-3.0, 0.18)  # kappa = -3: a generic point
    main = overlap.i_sfg_gaussian(waves, crystal, fp).abs_sq
    oracle = overlap.i_sfg_direct3d(waves, crystal, fp).abs_sq
    return _report("sfg-reduction-vs-3d", main, oracle, 1e-9)


def _fresnel_field(
    z0: float,
    z_mid: np.ndarray,
    dz: np.ndarray | float,
    k_gen: float,
    amp: float,
    slice_source,
) -> tuple[np.ndarray, np.ndarray]:
    """Field at the plane z0 as sum_j coef_j exp(c_j r^2): (coef, c).

    slice_source(z) returns (beta, q_prod, carrier) for the slices at z,
    whose source density is amp * carrier / q_prod * exp(i beta r^2). Each
    slice goes through the exact paraxial Fresnel kernel of wavenumber
    k_gen; the radial Gaussian integral against J0 has a closed form.
    """
    beta, q_prod, carrier = slice_source(z_mid)
    d_prop = z0 - z_mid
    a = -1j * (beta + k_gen / (2.0 * d_prop))
    coef = dz * (k_gen / (1j * d_prop)) * amp / q_prod * carrier / (2.0 * a)
    # Kernel phase exp(i k r^2 / 2d) times the J0 Gaussian integral
    # exp(-b^2 / 4a) with b = k r / d: one exponential, linear in r^2.
    c = 1j * k_gen / (2.0 * d_prop) - (k_gen / d_prop) ** 2 / (4.0 * a)
    return coef, c


# Gauss-Legendre nodes and weights on [-1, 1], built once per count.
_legendre_rule = functools.cache(np.polynomial.legendre.leggauss)


def _generated_field(
    k_gen: float,
    k_a: float,
    k_b: float,
    conj_b: bool,
    mismatch: float,
    length: float,
    z_r: float,
    n_slices: int,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Field driven by a unit source at the plane z0, as (z0, coef, c).

    The source density is u_a v_b exp(i mismatch z) inside the crystal, with
    u the unit-power Gaussian envelopes of common Rayleigh range z_r and v_b
    = u_b, or its conjugate when conj_b. Its n_slices Gauss-Legendre slices
    in u = asinh(z / z_r), crowded near a tight focus and weighted dz = z_r
    span cosh(u) w, are propagated to the plane z0 = L/2 + 5 z_R by _fresnel_field.
    """
    z0 = 0.5 * length + 5.0 * z_r
    x, w = _legendre_rule(n_slices)
    span = math.asinh(0.5 * length / z_r)
    u = span * x
    z_mid = z_r * np.sinh(u)
    dz = z_r * span * np.cosh(u) * w

    def source(zp: np.ndarray):
        q = zp - 1j * z_r
        carrier = np.exp(1j * mismatch * zp)
        if conj_b:
            q_b = np.conj(q)
            return k_a / (2.0 * q) - k_b / (2.0 * q_b), (1j * q) * (-1j * q_b), carrier
        return (k_a + k_b) / (2.0 * q), (1j * q) ** 2, carrier

    amp = math.sqrt(k_a * k_b) * z_r / math.pi
    return (z0, *_fresnel_field(z0, z_mid, dz, k_gen, amp, source))


def _driven(waves: WaveTriple, crystal: CrystalSpec, z_r: float, generated: str) -> tuple:
    """_generated_field's arguments but the slice count, for the generated wave.

    "pump": signal and idler drive sum-frequency generation. "idler": the
    pump and a signal seed drive seeded difference-frequency generation.
    """
    k_p, k_s, k_i = waves.pump.wavenumber, waves.signal.wavenumber, waves.idler.wavenumber
    qpm = crystal.qpm_wavenumber
    if generated == "pump":
        return k_p, k_s, k_i, False, k_s + k_i + qpm - k_p, crystal.length, z_r
    return k_i, k_p, k_s, True, k_p - k_s - qpm - k_i, crystal.length, z_r


def _doubled(measure, size, tol: float, what: str):
    """measure(n) at n = 64 and 128 slices: the latter, once size() of the two agree to tol."""
    coarse, fine = measure(64), measure(128)
    if abs(size(fine) - size(coarse)) > tol * abs(size(fine)):
        raise ValueError(f"{what} not converged: {coarse!r} vs {fine!r} after doubling")
    return fine


def _check_decay(c: np.ndarray) -> None:
    """ValueError unless every slice's Gaussian exp(c_j r^2) decays, Re c_j < 0."""
    bad = np.flatnonzero(~(c.real < 0.0))
    if bad.size:
        raise ValueError(f"the field of slice {bad[0]} does not decay: Re c = {c[bad[0]].real!r}")


def _plane_power(coef: np.ndarray, c: np.ndarray) -> float:
    """Int |sum_j coef_j exp(c_j r^2)|^2 dA = pi sum_jk coef_j conj(coef_k) / -(c_j + conj c_k)."""
    _check_decay(c)
    gram = coef[:, None] * np.conj(coef) / -(c[:, None] + np.conj(c))
    return math.pi * float(np.sum(gram).real)


def oracle_fresnel_self_test() -> OracleReport:
    """Propagate a unit-norm collection mode with the same kernel; power = 1."""
    k_b = 2.0 * math.pi * _N_I / _LAMBDA
    z_r = 1.8e-3
    # One source slice at z = 0, through the kernel both Fresnel routes use.
    q_b = -1j * z_r
    amp = math.sqrt(k_b * z_r / math.pi)
    coef, c = _fresnel_field(
        5.0 * z_r, np.zeros(1), 1.0, k_b, amp, lambda zp: (k_b / (2.0 * q_b), q_b, 1.0)
    )
    return _report("fresnel-propagator-self-test", _plane_power(coef, c), 1.0, 1e-12)


def oracle_dfg_fresnel() -> OracleReport:
    """Mode-sum |I_DFG|^2 total against direct Fresnel propagation.

    At zeta_R = 0.18 and kappa = -3, the plane power of the idler field the
    pump and signal modes drive equals the all-mode Parseval total. The
    oracle side doubles its slice count, 64 to 128 nodes, and requires
    self-consistency to 1e-10 before it is trusted.
    """
    waves, crystal, fp = _reference_point(-3.0, 0.18)
    main = quantum.compute_overlaps(waves, crystal, fp).i_dfg_sq_signal_arm
    args = _driven(waves, crystal, fp.rayleigh_range, "idler")
    power = _doubled(
        lambda n: _plane_power(*_generated_field(*args, n)[1:]), abs, 1e-10, "Fresnel oracle"
    )
    return _report("dfg-parseval-vs-fresnel", main, power, 1e-10)


def oracle_dfg_thin_crystal(zeta_r: float = 2000.0) -> OracleReport:
    """Thin-crystal limit: |I_DFG|^2 -> L^2 k_p k_s / (pi z_R (k_p + k_s))."""
    waves, crystal, fp = _reference_point(0.0, zeta_r)
    main = quantum.compute_overlaps(waves, crystal, fp).i_dfg_sq_signal_arm
    k_p = waves.pump.wavenumber
    k_s = waves.signal.wavenumber
    oracle = _LENGTH**2 * k_p * k_s / (math.pi * fp.rayleigh_range * (k_p + k_s))
    return _report("dfg-thin-crystal-limit", main, oracle, 1e-4)


def _joint_trapezoid(
    filter_s: filters.LorentzianFilter, filter_i: filters.LorentzianFilter
) -> float:
    """Int T_s(W) T_i(-W) dW [rad/s] of two Lorentzians at most 100 times apart.

    A trapezoid sum over +-300 of the wider FWHM, in steps of 1/20 of the
    narrower: 12001 points at equal widths.
    """
    wide = max(filter_s.gamma, filter_i.gamma)
    narrow = min(filter_s.gamma, filter_i.gamma)
    if wide > 100.0 * narrow:
        raise ValueError("filter widths more than 100 times apart")
    omega = np.linspace(-300.0 * wide, 300.0 * wide, int(12000 * wide / narrow) + 1)
    return float(np.trapezoid(filter_s.transmission(omega) * filter_i.transmission(-omega), omega))


def ling_comparator(zeta_r: float = 50.0, gamma: float = 2.0 * math.pi * 2e6) -> OracleReport:
    """Loose-focus pair rate against a thin-crystal plane-wave rate formula.

    The oracle route never touches the focusing integral: it uses the
    thin-crystal overlap Phi with waists sqrt(2 z_R / k_m), a plane-wave
    spectral rate density, and its own trapezoid filter integral. Agreement
    is O(1/zeta_R), so it is only meaningful at loose focus (zeta_r >= 50)
    and exact phase matching.

    Its prefactor omega_s omega_i d^2 Gamma_eff / (2 c^3 eps0 n_p n_s n_i)
    is the same algebra as pair_rate(q_sfg(...)), so this checks geometry
    (focusing integral against thin-crystal overlap) and the filter
    integral, not the absolute scale; absolute_pair_rate_fresnel does that.
    """
    if zeta_r < 50.0:
        raise ValueError("comparator is only valid at loose focus (zeta_r >= 50)")
    waves, crystal, fp = _reference_point(0.0, zeta_r)  # the plane-wave route needs kappa = 0
    z_r = fp.rayleigh_range
    pump_power = 1e-3
    flt = filters.LorentzianFilter(gamma=gamma)

    i_sfg = overlap.i_sfg_gaussian(waves, crystal, fp)
    q_sfg = classical.q_sfg(waves, crystal, i_sfg.abs_sq)
    gamma_eff = filters.gamma_eff_pair(flt, flt)
    main = quantum.pair_rate(waves, pump_power, q_sfg, gamma_eff)

    k_p, k_s, k_i = (w.wavenumber for w in (waves.pump, waves.signal, waves.idler))
    n_p, n_s, n_i = (w.refractive_index for w in (waves.pump, waves.signal, waves.idler))
    w_s, w_i = waves.signal.angular_frequency, waves.idler.angular_frequency
    # Thin-crystal overlap of three Gaussians with waists sqrt(2 z_R / k_m),
    # mode amplitudes alpha^2 = 2 / (pi W^2) = k / (pi z_R).
    inv_w_sq = (k_p + k_s + k_i) / (2.0 * z_r)
    phi = _LENGTH * math.pi / inv_w_sq
    mode_factor_sq = (
        (k_p / (math.pi * z_r)) * (k_s / (math.pi * z_r)) * (k_i / (math.pi * z_r)) * phi**2
    )
    rate_density = (
        w_s * w_i * _D_EFF**2 / (math.pi * C_LIGHT**3 * EPS0 * n_p * n_s * n_i)
    ) * pump_power * mode_factor_sq
    oracle = rate_density * _joint_trapezoid(flt, flt)
    return _report(f"ling-rate-equivalence-{zeta_r:g}", main, oracle, 1e-3)


def boyd_kleinman_report() -> OracleReport:
    """Focusing optimum against the Boyd-Kleinman constant h_max = 1.0679.

    The merit zeta_R |Upsilon|^2 maps onto the classic second-harmonic
    focusing function as h = 2 pi^2 zeta_R |Upsilon|^2 at r_k = 0, whose
    tabulated maximum is 1.0679 near xi = L / (2 z_R) = 2.84.
    """
    result = optimize_focus(0.0, restarts=2, rel_tol=1e-8)
    h = 2.0 * math.pi**2 * result.best_objective
    return _report("boyd-kleinman-hmax", h, 1.0679, 1e-3)


# Absolute route to the conversion efficiency and the pair rate. Nothing
# below uses classical, quantum or the overlap prefactors. A field of
# angular frequency omega is E(r, t) = Re[E(r) e^{-i omega t}] and carries
# the power P = n eps0 c Int |E|^2 dA / 2. The polarization P_NL = 2 eps0 d
# E(t)^2 then has the complex amplitude 2 eps0 d E_1 E_2 at a sum or
# difference of two distinct fields (the cross term of the square counts
# twice) and eps0 d E^2 at the second harmonic of a single field. The
# envelope A of a generated field A e^{ikz} obeys the paraxial driven wave
# equation dA/dz = (i / 2k) lap_T A + (i omega / (2 n eps0 c)) P_NL e^{-ikz}.

ABSOLUTE_ROUTE_TOL = 1e-8
"""Relative agreement the absolute route demands of itself on grid doubling."""


def _mode_projection(
    k_gen: float,
    k_a: float,
    k_b: float,
    conj_b: bool,
    mismatch: float,
    length: float,
    z_r: float,
    n_slices: int,
) -> complex:
    """Generated-mode content of the field driven by a unit source.

    The _generated_field of these arguments, sum_j coef_j exp(c_j r^2), is
    projected exactly, pi conj(g0) sum_j coef_j / -(c_j + conj gamma), onto
    the unit-power mode g0 exp(gamma r^2) of wavenumber k at its plane z0:
    g0 = sqrt(k z_R / pi) / (i q), gamma = i k / 2q and q = z0 - i z_R.
    """
    if not z_r > 0.0:
        raise ValueError(f"the collection mode of Rayleigh range {z_r!r} m does not decay")
    z0, coef, c = _generated_field(k_gen, k_a, k_b, conj_b, mismatch, length, z_r, n_slices)
    q = z0 - 1j * z_r
    gamma = 1j * k_gen / (2.0 * q)
    _check_decay(c)
    g0 = math.sqrt(k_gen * z_r / math.pi) / (1j * q)
    return complex(math.pi * g0.conjugate() * np.sum(coef / -(c + gamma.conjugate())))


def _field_amplitude(wave: OpticalWave, power: float) -> float:
    """|E| [V/m] of a beam of the given power in a unit-power mode."""
    return math.sqrt(2.0 * power / (wave.refractive_index * EPS0 * C_LIGHT))


def _generated_power(
    gen: OpticalWave, polarization: complex, projection: complex
) -> float:
    """Power [W] in gen's mode driven by polarization times the unit source."""
    n = gen.refractive_index
    coupling = 1j * gen.angular_frequency / (2.0 * n * EPS0 * C_LIGHT)
    return 0.5 * n * EPS0 * C_LIGHT * abs(coupling * polarization * projection) ** 2


def absolute_q_fresnel(
    waves: WaveTriple, crystal: CrystalSpec, z_r: float, single_field: bool = False
) -> float:
    """Conversion efficiency into the pump mode [1/W] by the absolute route.

    Signal and idler beams in Gaussian modes of Rayleigh range z_r drive the
    polarization 2 eps0 d E_s E_i; the result is P_p,mode / (P_s P_i), the
    quantity classical.q_sfg documents. With single_field the signal beam
    alone drives eps0 d E_s^2 and the result is P_p,mode / P_s^2, that of
    classical.q_shg; this needs a degenerate triple. The poling enters as
    the first-order phase e^{iQz}, so the source runs with exp(-i Delta_k z).
    Trusted to ABSOLUTE_ROUTE_TOL; ValueError if the grids do not settle.
    """
    if single_field and not waves.degenerate:
        raise ValueError("a single driving field needs a degenerate triple")
    args = _driven(waves, crystal, z_r, "pump")
    projection = _doubled(
        lambda n: _mode_projection(*args, n), lambda p: abs(p) ** 2,
        ABSOLUTE_ROUTE_TOL, "absolute route",
    )
    p_in = 1.0  # W in each driving beam
    e_s = _field_amplitude(waves.signal, p_in)
    if single_field:
        polarization = EPS0 * crystal.d_eff * e_s * e_s
    else:
        polarization = 2.0 * EPS0 * crystal.d_eff * e_s * _field_amplitude(waves.idler, p_in)
    return _generated_power(waves.pump, polarization, projection) / p_in**2


def absolute_pair_rate_fresnel(
    waves: WaveTriple,
    crystal: CrystalSpec,
    z_r: float,
    pump_power: float,
    filter_s: filters.LorentzianFilter,
    filter_i: filters.LorentzianFilter,
) -> float:
    """Pair rate W2 [1/s] by the absolute route, without quantum.pair_rate.

    Seeded difference-frequency generation: the pump in its mode and a
    signal seed in the signal collection mode drive 2 eps0 d E_p E_s^*, and
    the power it sends into the idler collection mode gives the photon-number
    gain G = (P_i / hbar omega_i) / (P_s / hbar omega_s). Spontaneous
    emission is the same process seeded by vacuum, one photon per mode per
    unit bandwidth, so pairs reach the two collection modes at
    W2 = G Int T_s(W) T_i(-W) dW / 2 pi, the integral by _joint_trapezoid.
    Two-field sources and Lorentzian filters at most 100 times apart only.
    """
    if waves.degenerate:
        raise ValueError("the absolute pair-rate route covers two-field sources only")
    if not (
        isinstance(filter_s, filters.LorentzianFilter)
        and isinstance(filter_i, filters.LorentzianFilter)
    ):
        raise ValueError("the absolute pair-rate route needs Lorentzian filters")
    joint = _joint_trapezoid(filter_s, filter_i)
    args = _driven(waves, crystal, z_r, "idler")
    projection = _doubled(
        lambda n: _mode_projection(*args, n), lambda p: abs(p) ** 2,
        ABSOLUTE_ROUTE_TOL, "absolute route",
    )
    pump, signal, idler = waves.pump, waves.signal, waves.idler
    p_seed = 1.0  # W
    polarization = (
        2.0 * EPS0 * crystal.d_eff
        * _field_amplitude(pump, pump_power)
        * _field_amplitude(signal, p_seed)
    )
    p_idler = _generated_power(idler, polarization, projection)
    gain = (p_idler / (HBAR * idler.angular_frequency)) / (
        p_seed / (HBAR * signal.angular_frequency)
    )
    return gain * joint / (2.0 * math.pi)


def run_all_oracles() -> list[OracleReport]:
    """Every oracle at its default configuration; all are expected to pass."""
    return [
        oracle_upsilon_closed_form(0.18),
        oracle_upsilon_closed_form(0.5),
        oracle_upsilon_closed_form(2.0),
        oracle_reduction_vs_direct(),
        oracle_fresnel_self_test(),
        oracle_dfg_fresnel(),
        oracle_dfg_thin_crystal(),
        ling_comparator(),
        boyd_kleinman_report(),
        oracle_upsilon_vs_quadrature(),
        oracle_dfg_closed(-3.0, 0.18),
        oracle_dfg_closed(-3.0, 0.005),
    ]
