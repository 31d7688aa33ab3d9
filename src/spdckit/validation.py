"""Independent cross-checks of the main computational routes.

Every oracle here recomputes a package quantity by a genuinely different
method: closed forms, direct Fresnel beam propagation on a radial grid,
a thin-crystal plane-wave rate formula, and the Boyd-Kleinman focusing
constant. Only two closed forms, which use no quadrature themselves, are
checked against the package quadrature engine: Upsilon and the Lorentzian
joint linewidth Gamma_eff (gamma_eff_pair_spectral). Every other
integration in this module is a plain trapezoid sum or scipy.quad, so a
defect in the mode-sum integrator cannot cancel out of the comparison.

The absolute route (absolute_q_fresnel, absolute_pair_rate_fresnel) fixes
the absolute scale of Q_SFG and W2 from SI fields and the driven wave
equation alone. It is slower than the rest and stays out of
run_all_oracles; the test suite compares it with the package.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import classical, filters, modebasis, overlap, quadrature, quantum
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
    description: str
    main_value: float
    oracle_value: float
    rel_diff: float
    tolerance: float
    passed: bool


def _report(
    name: str, description: str, main: float, oracle: float, tol: float
) -> OracleReport:
    rel = abs(main - oracle) / max(abs(oracle), 1e-300)
    return OracleReport(
        name=name,
        description=description,
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


def _reference_waves() -> WaveTriple:
    return WaveTriple.from_wavelengths(_LAMBDA, _LAMBDA, _N_S, _N_I, _N_P)


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
    return _report(
        f"upsilon-closed-form-{zeta_r:g}",
        "closed-form kappa=0 branch vs log antiderivative at r_k=0",
        main,
        closed_form_upsilon_kappa0(zeta_r),
        1e-9,
    )


def oracle_upsilon_vs_quadrature() -> OracleReport:
    """Closed-form Upsilon against adaptive quadrature of its raw integrand."""
    # The reference geometry of oracle_reduction_vs_direct.
    kappa, zeta_r, r_k = -3.0, 0.18, 0.0434

    def integrand(z: np.ndarray) -> np.ndarray:
        return np.exp(-1j * kappa * z) / ((z - 1j * zeta_r) * (r_k * z + 1j * zeta_r))

    scale = zeta_r / (2.0 * math.pi)
    res = quadrature.integrate(integrand, -0.5, 0.5, rel_tol=1e-13, abs_floor=1e-13 / scale)
    main = overlap.upsilon(FocusParams(kappa=kappa, zeta_r=zeta_r, r_k=r_k)).value.real
    return _report(
        "upsilon-vs-quadrature",
        f"closed form vs adaptive quadrature at kappa={kappa:g}, "
        f"zeta_R={zeta_r:g}, r_k={r_k:g}",
        main,
        (scale * res.value).real,
        1e-10,
    )


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
    waves = _reference_waves()
    z_r = 0.18 * _LENGTH
    # Poling tuned for kappa = -3 so the check runs at a generic point.
    q = waves.k_minus0 + 3.0 / _LENGTH
    crystal = CrystalSpec(length=_LENGTH, d_eff=_D_EFF, poling_period=2.0 * math.pi / q)
    fp = derive_focus_params(waves, crystal, z_r)
    main = overlap.i_sfg_gaussian(waves, crystal, fp).abs_sq
    oracle = overlap.i_sfg_direct3d(waves, crystal, fp).abs_sq
    return _report(
        "sfg-reduction-vs-3d",
        "reduced single-integral |I_SFG|^2 vs direct 3D quadrature",
        main,
        oracle,
        1e-6,
    )


def _fresnel_grid(
    length: float,
    z_r: float,
    k_gen: float,
    n_slices: int,
    r_points: int,
    r_max_factor: float,
) -> tuple[float, float, np.ndarray, np.ndarray]:
    """Output plane z0 = L/2 + 5 z_R, slice width, slice midpoints, radii."""
    z0 = 0.5 * length + 5.0 * z_r
    dz = length / n_slices
    z_mid = (np.arange(n_slices) + 0.5) * dz - 0.5 * length
    # The generated fundamental mode waist at the output plane sets the
    # radial extent that must be resolved.
    w_out = math.sqrt(2.0 * (z0**2 + z_r**2) / (k_gen * z_r))
    return z0, dz, z_mid, np.linspace(0.0, r_max_factor * w_out, r_points)


def _fresnel_field(
    r: np.ndarray,
    z0: float,
    z_mid: np.ndarray,
    dz: float,
    k_gen: float,
    amp: float,
    slice_source,
) -> np.ndarray:
    """Generated field at the plane z0, summed over thin source slices.

    slice_source(z) returns (beta, q_prod, carrier) for the slice at height
    z, whose source density is amp * carrier / q_prod * exp(i beta r^2).
    Each slice goes through the exact paraxial Fresnel kernel of wavenumber
    k_gen; the radial Gaussian integral against J0 has a closed form.
    """
    field = np.zeros(r.size, dtype=complex)
    for zp in z_mid:
        beta, q_prod, carrier = slice_source(zp)
        d_prop = z0 - zp
        a = -1j * (beta + k_gen / (2.0 * d_prop))
        b = k_gen * r / d_prop
        coef = dz * (k_gen / (1j * d_prop)) * amp / q_prod * carrier / (2.0 * a)
        field += coef * np.exp(1j * k_gen * r**2 / (2.0 * d_prop)) * np.exp(-(b**2) / (4.0 * a))
    return field


def _fresnel_plane_total(
    k_p: float,
    k_collected: float,
    k_gen: float,
    q_poling: float,
    length: float,
    z_r: float,
    n_slices: int,
    r_points: int,
    r_max_factor: float,
) -> float:
    """Plane integral of the generated field propagated slice by slice.

    The crystal is cut into slices; each slice's source profile (pump mode
    times conjugated collection mode) is sent through the exact paraxial
    Fresnel kernel to a plane at z0 = L/2 + 5 z_R, where the radial Gaussian
    integral has a closed form. The plane integral of |field|^2 equals the
    all-mode Parseval total, and is independent of z0 by unitarity.
    """
    z0, dz, z_mid, r = _fresnel_grid(length, z_r, k_gen, n_slices, r_points, r_max_factor)
    amp = math.sqrt(k_p * k_collected) * z_r / math.pi

    def source(zp: float):
        q = zp - 1j * z_r
        q_bar = zp + 1j * z_r
        carrier = cmath.exp(1j * ((k_p - k_collected - q_poling) * zp + k_gen * (z0 - zp)))
        return k_p / (2.0 * q) - k_collected / (2.0 * q_bar), q * q_bar, carrier

    field = _fresnel_field(r, z0, z_mid, dz, k_gen, amp, source)
    return float(np.trapezoid(2.0 * math.pi * r * np.abs(field) ** 2, r))


def oracle_fresnel_self_test() -> OracleReport:
    """Propagate a unit-norm collection mode with the same kernel; power = 1."""
    k_b = 2.0 * math.pi * _N_I / _LAMBDA
    z_r = 1.8e-3
    z0 = 5.0 * z_r
    w_out = math.sqrt(2.0 * (z0**2 + z_r**2) / (k_b * z_r))
    r = np.linspace(0.0, 16.0 * w_out, 40001)
    q_b = -1j * z_r  # source slice at z = 0
    a = -1j * k_b * (1.0 / (2.0 * q_b) + 1.0 / (2.0 * z0))
    b = k_b * r / z0
    coef = (k_b / (1j * z0)) * math.sqrt(k_b * z_r / math.pi) / q_b / (2.0 * a)
    field = coef * np.exp(1j * k_b * r**2 / (2.0 * z0)) * np.exp(-(b**2) / (4.0 * a))
    total = float(np.trapezoid(2.0 * math.pi * r * np.abs(field) ** 2, r))
    return _report(
        "fresnel-propagator-self-test",
        "Fresnel kernel applied to a normalized mode keeps unit power",
        total,
        1.0,
        1e-6,
    )


def oracle_dfg_fresnel(
    zeta_r: float = 0.18,
    kappa: float = -3.0,
    n_slices: int = 400,
    r_points: int = 4000,
    r_max_factor: float = 12.0,
) -> OracleReport:
    """Mode-sum |I_DFG|^2 total against direct Fresnel propagation.

    The oracle side doubles its grids and requires self-consistency before
    it is trusted.
    """
    waves = _reference_waves()
    q = waves.k_minus0 - kappa / _LENGTH
    if q <= 0:
        raise ValueError("kappa too large for a positive poling wavenumber here")
    crystal = CrystalSpec(length=_LENGTH, d_eff=_D_EFF, poling_period=2.0 * math.pi / q)
    z_r = zeta_r * _LENGTH
    fp = derive_focus_params(waves, crystal, z_r)
    main = modebasis.i_dfg_sq(waves, crystal, fp).total

    args = (
        waves.pump.wavenumber,
        waves.signal.wavenumber,
        waves.idler.wavenumber,
        crystal.qpm_wavenumber,
        _LENGTH,
        z_r,
    )
    coarse = _fresnel_plane_total(*args, n_slices, r_points, r_max_factor)
    fine = _fresnel_plane_total(*args, 2 * n_slices, 2 * r_points, r_max_factor)
    if abs(fine - coarse) > 1e-3 * abs(fine):
        raise ValueError(
            f"Fresnel oracle not converged: {coarse!r} vs {fine!r} after doubling"
        )
    return _report(
        "dfg-parseval-vs-fresnel",
        "Laguerre-Gauss Parseval total vs propagated plane integral",
        main,
        fine,
        1e-3,
    )


def oracle_dfg_thin_crystal(zeta_r: float = 2000.0) -> OracleReport:
    """Thin-crystal limit: |I_DFG|^2 -> L^2 k_p k_s / (pi z_R (k_p + k_s))."""
    waves = _reference_waves()
    q = waves.k_minus0  # kappa = 0 exactly
    crystal = CrystalSpec(length=_LENGTH, d_eff=_D_EFF, poling_period=2.0 * math.pi / q)
    z_r = zeta_r * _LENGTH
    fp = derive_focus_params(waves, crystal, z_r)
    main = modebasis.i_dfg_sq(waves, crystal, fp).total
    k_p = waves.pump.wavenumber
    k_s = waves.signal.wavenumber
    oracle = _LENGTH**2 * k_p * k_s / (math.pi * z_r * (k_p + k_s))
    return _report(
        "dfg-thin-crystal-limit",
        "mode-sum total vs single-slice closed form at very loose focus",
        main,
        oracle,
        1e-4,
    )


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
    waves = _reference_waves()
    q = waves.k_minus0  # kappa = 0: the plane-wave route assumes it
    crystal = CrystalSpec(length=_LENGTH, d_eff=_D_EFF, poling_period=2.0 * math.pi / q)
    z_r = zeta_r * _LENGTH
    fp = derive_focus_params(waves, crystal, z_r)
    pump_power = 1e-3
    flt = filters.LorentzianFilter(gamma=gamma)

    i_sfg = overlap.i_sfg_gaussian(waves, crystal, fp)
    q_sfg = classical.q_sfg(waves, crystal, i_sfg.abs_sq)
    gamma_eff = filters.gamma_eff_pair(flt, flt)
    main = quantum.pair_rate(waves, pump_power, q_sfg, gamma_eff)

    k_p = waves.pump.wavenumber
    k_s = waves.signal.wavenumber
    k_i = waves.idler.wavenumber
    w_s = waves.signal.angular_frequency
    w_i = waves.idler.angular_frequency
    n_p = waves.pump.refractive_index
    n_s = waves.signal.refractive_index
    n_i = waves.idler.refractive_index
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
    omega = np.linspace(-300.0 * gamma, 300.0 * gamma, 240001)
    t_product = flt.transmission(omega) * flt.transmission(-omega)
    oracle = rate_density * float(np.trapezoid(t_product, omega))
    return _report(
        f"ling-rate-equivalence-{zeta_r:g}",
        "focused pair rate vs plane-wave spectral density at loose focus",
        main,
        oracle,
        1e-3,
    )


def boyd_kleinman_report() -> OracleReport:
    """Focusing optimum against the Boyd-Kleinman constant h_max = 1.0679.

    The merit zeta_R |Upsilon|^2 maps onto the classic second-harmonic
    focusing function as h = 2 pi^2 zeta_R |Upsilon|^2 at r_k = 0, whose
    tabulated maximum is 1.0679 near xi = L / (2 z_R) = 2.84.
    """
    result = optimize_focus(0.0, restarts=2, rel_tol=1e-8)
    h = 2.0 * math.pi**2 * result.best_objective
    return _report(
        "boyd-kleinman-hmax",
        "2 pi^2 max(zeta_R |Upsilon|^2) vs tabulated h_max",
        h,
        1.0679,
        1e-3,
    )


# Absolute route to the conversion efficiency and the pair rate. Nothing
# below uses classical, quantum or the overlap prefactors. A field of
# angular frequency omega is E(r, t) = Re[E(r) e^{-i omega t}] and carries
# the power P = n eps0 c Int |E|^2 dA / 2. The polarization P_NL = 2 eps0 d
# E(t)^2 then has the complex amplitude 2 eps0 d E_1 E_2 at a sum or
# difference of two distinct fields (the cross term of the square counts
# twice) and eps0 d E^2 at the second harmonic of a single field. The
# envelope A of a generated field A e^{ikz} obeys the paraxial driven wave
# equation dA/dz = (i / 2k) lap_T A + (i omega / (2 n eps0 c)) P_NL e^{-ikz}.

ABSOLUTE_ROUTE_TOL = 1e-4
"""Relative agreement the absolute route demands of itself on grid doubling."""

_ABSOLUTE_SLICES = 200
_ABSOLUTE_R_POINTS = 2000
_ABSOLUTE_R_MAX_FACTOR = 12.0


def _gaussian_mode(k: float, z_r: float, r: np.ndarray, z: float) -> np.ndarray:
    """Unit-power Gaussian envelope sqrt(k z_R / pi) exp(i k r^2 / 2q) / (i q).

    q = z - i z_R; the mode has waist W^2 = 2 z_R / k at z = 0.
    """
    q = z - 1j * z_r
    return math.sqrt(k * z_r / math.pi) / (1j * q) * np.exp(1j * k * r**2 / (2.0 * q))


def _mode_projection(
    k_gen: float,
    k_a: float,
    k_b: float,
    conj_b: bool,
    mismatch: float,
    length: float,
    z_r: float,
    n_slices: int,
    r_points: int,
) -> complex:
    """Generated-mode content of the field driven by a unit source.

    The source density is u_a v_b exp(i mismatch z) inside the crystal, with
    u the unit-power Gaussian envelopes of common Rayleigh range z_r and v_b
    = u_b, or its conjugate when conj_b. It is propagated slice by slice to
    the plane z0 = L/2 + 5 z_R and projected there, by a radial trapezoid
    sum, onto the unit-power mode of wavenumber k_gen.
    """
    z0, dz, z_mid, r = _fresnel_grid(
        length, z_r, k_gen, n_slices, r_points, _ABSOLUTE_R_MAX_FACTOR
    )

    def source(zp: float):
        q = zp - 1j * z_r
        carrier = cmath.exp(1j * mismatch * zp)
        if conj_b:
            q_b = q.conjugate()
            return k_a / (2.0 * q) - k_b / (2.0 * q_b), (1j * q) * (-1j * q_b), carrier
        return (k_a + k_b) / (2.0 * q), (1j * q) ** 2, carrier

    amp = math.sqrt(k_a * k_b) * z_r / math.pi
    field = _fresnel_field(r, z0, z_mid, dz, k_gen, amp, source)
    density = 2.0 * math.pi * r * np.conj(_gaussian_mode(k_gen, z_r, r, z0)) * field
    return complex(np.trapezoid(density, r))


def _converged_projection(*args) -> complex:
    """_mode_projection on doubled grids; raises unless they agree."""
    coarse = _mode_projection(*args, _ABSOLUTE_SLICES, _ABSOLUTE_R_POINTS)
    fine = _mode_projection(*args, 2 * _ABSOLUTE_SLICES, 2 * _ABSOLUTE_R_POINTS)
    if abs(abs(fine) ** 2 - abs(coarse) ** 2) > ABSOLUTE_ROUTE_TOL * abs(fine) ** 2:
        raise ValueError(
            f"absolute route not converged: {coarse!r} vs {fine!r} after doubling"
        )
    return fine


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
    pump, signal, idler = waves.pump, waves.signal, waves.idler
    mismatch = signal.wavenumber + idler.wavenumber + crystal.qpm_wavenumber - pump.wavenumber
    projection = _converged_projection(
        pump.wavenumber, signal.wavenumber, idler.wavenumber, False, mismatch,
        crystal.length, z_r,
    )
    p_in = 1.0  # W in each driving beam
    e_s = _field_amplitude(signal, p_in)
    if single_field:
        polarization = EPS0 * crystal.d_eff * e_s * e_s
    else:
        polarization = 2.0 * EPS0 * crystal.d_eff * e_s * _field_amplitude(idler, p_in)
    return _generated_power(pump, polarization, projection) / p_in**2


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
    W2 = G Int T_s(W) T_i(-W) dW / 2 pi. The integral is a trapezoid sum
    over +-300 of the wider filter's FWHM, in steps of 1/20 of the narrower.
    Two-field sources and Lorentzian filters at most 100 times apart only.
    """
    if waves.degenerate:
        raise ValueError("the absolute pair-rate route covers two-field sources only")
    if not (
        isinstance(filter_s, filters.LorentzianFilter)
        and isinstance(filter_i, filters.LorentzianFilter)
    ):
        raise ValueError("the absolute pair-rate route needs Lorentzian filters")
    wide = max(filter_s.gamma, filter_i.gamma)
    narrow = min(filter_s.gamma, filter_i.gamma)
    if wide > 100.0 * narrow:
        raise ValueError("filter widths more than 100 times apart")
    pump, signal, idler = waves.pump, waves.signal, waves.idler
    mismatch = pump.wavenumber - signal.wavenumber - crystal.qpm_wavenumber - idler.wavenumber
    projection = _converged_projection(
        idler.wavenumber, pump.wavenumber, signal.wavenumber, True, mismatch,
        crystal.length, z_r,
    )
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
    omega = np.linspace(-300.0 * wide, 300.0 * wide, int(12000 * wide / narrow) + 1)
    joint = np.trapezoid(filter_s.transmission(omega) * filter_i.transmission(-omega), omega)
    return gain * float(joint) / (2.0 * math.pi)


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
    ]
