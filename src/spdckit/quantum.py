"""Absolute pair rates, singles rates and heralding efficiency.

The emission rates of a narrow-band down-conversion source follow from the
classical conversion efficiencies of the reverse processes:

    pairs:   W2 = Gamma_eff (omega_i omega_s / 4 omega_p^2) P Q_conv,
    singles: W1_s = (omega_s / 4 omega_i) Gamma_eff_s P Q_arm(signal),

and the heralding efficiency eta_s = W2 / W1_s collapses to
(Gamma_eff / Gamma_eff_s) |I_SFG|^2 / |I_DFG|^2, which conditional_efficiency
computes directly so the two routes can be checked against each other.

The same formulas serve the two-field and the degenerate (single-field)
process. classical.q_conversion and classical.q_arm pick Q_SFG/Q_DFG or
Q_SHG/Q_APG for the triple; at omega_s = omega_i the frequency factors are
exactly 1/16 and 1/4. At equal overlap Q_SHG = Q_SFG / 4, so the degenerate
pair rate and heralding efficiency are a quarter of the two-field ones;
pair_rate says how its 1/16 counts the identical photons.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import classical, filters, modebasis, overlap
from .quantities import C_LIGHT, EPS0, HBAR, CrystalSpec, FocusParams, WaveTriple

__all__ = [
    "CorrelationScale",
    "OverlapBundle",
    "SourceReport",
    "pair_rate",
    "singles_rate",
    "conditional_efficiency",
    "correlation_amplitude_sq",
    "compute_overlaps",
    "evaluate_source",
]


def _check_nonneg(**kwargs: float) -> None:
    for name, value in kwargs.items():
        if value < 0:
            raise ValueError(f"{name} must be >= 0")


def pair_rate(
    waves: WaveTriple, pump_power: float, q_conversion: float, gamma_eff: float
) -> float:
    """Two-photon coincidence rate W2 [1/s].

    q_conversion is classical.q_conversion of the triple (Q_SFG, or Q_SHG
    for a degenerate source); gamma_eff the joint collection linewidth
    [rad/s]. For a degenerate source the prefactor is
    omega_s omega_i / (4 omega_p^2) at omega_s = omega_i = omega_p / 2,
    written as an exact 1/16 because the float product of the frequencies
    is not always exactly 1/16. That /16 counts coincidences of the
    identical photons behind a 50:50 splitter; counting each pair once
    would give /8 (docs/normalization.md, section 5).
    """
    _check_nonneg(pump_power=pump_power, q_conversion=q_conversion, gamma_eff=gamma_eff)
    if waves.degenerate:
        return gamma_eff * pump_power * q_conversion / 16.0
    w_s = waves.signal.angular_frequency
    w_i = waves.idler.angular_frequency
    w_p = waves.pump.angular_frequency
    return gamma_eff * (w_i * w_s / (4.0 * w_p**2)) * pump_power * q_conversion


def singles_rate(
    waves: WaveTriple,
    pump_power: float,
    q_generation: float,
    gamma_eff_single: float,
    collected: str = "signal",
) -> float:
    """Single-arm detection rate W1 [1/s] behind that arm's filter.

    q_generation is classical.q_arm for the collected arm: Q_DFG over the
    full basis of the partner arm, or Q_APG for a degenerate source (where
    the frequency ratio below is exactly 1/4).
    """
    _check_nonneg(
        pump_power=pump_power,
        q_generation=q_generation,
        gamma_eff_single=gamma_eff_single,
    )
    if collected not in ("signal", "idler"):
        raise ValueError("collected must be 'signal' or 'idler'")
    w_s = waves.signal.angular_frequency
    w_i = waves.idler.angular_frequency
    ratio = w_s / (4.0 * w_i) if collected == "signal" else w_i / (4.0 * w_s)
    return ratio * gamma_eff_single * pump_power * q_generation


def conditional_efficiency(
    waves: WaveTriple,
    gamma_eff: float,
    gamma_eff_single: float,
    i_sfg_sq: float,
    i_dfg_sq: float,
) -> float:
    """Probability of collecting the partner photon given a detection.

    eta = (gamma_eff / gamma_eff_single) * |I_SFG|^2 / |I_DFG|^2, an
    independent route to pair_rate / singles_rate (the identity is pinned
    to 1e-12 in the tests). A degenerate source carries an extra 1/4: its
    pair-rate 1/16 over its singles-rate 1/4, since there Q_SHG / Q_APG is
    exactly |I_SFG|^2 / |I_DFG|^2.
    """
    if i_dfg_sq <= 0 or gamma_eff_single <= 0:
        raise ValueError("singles denominator must be positive")
    _check_nonneg(gamma_eff=gamma_eff, i_sfg_sq=i_sfg_sq)
    eta = (gamma_eff / gamma_eff_single) * (i_sfg_sq / i_dfg_sq)
    return 0.25 * eta if waves.degenerate else eta


@dataclass(frozen=True)
class CorrelationScale:
    """Scale factors tying the correlation amplitude to absolute rates.

    a_sq is the squared two-photon amplitude |A|^2; w2_prefactor turns
    |f(tau)|^2 [1/s^2] into the coincidence density W2(tau) [1/s^2] via
    W2(tau) = w2_prefactor * |f(tau)|^2, so that Int W2(tau) dtau equals
    the pair rate (Gamma_eff = 4 Int |f|^2 dtau).
    """

    a_sq: float
    w2_prefactor: float


def correlation_amplitude_sq(
    waves: WaveTriple, pump_power: float, q_conversion: float
) -> CorrelationScale:
    """Two-photon amplitude |A|^2 and the |f|^2 -> W2(tau) prefactor.

    q_conversion is classical.q_conversion of the triple, as in pair_rate.
    """
    _check_nonneg(pump_power=pump_power, q_conversion=q_conversion)
    w_s = waves.signal.angular_frequency
    w_i = waves.idler.angular_frequency
    w_p = waves.pump.angular_frequency
    n_s = waves.signal.refractive_index
    n_i = waves.idler.refractive_index
    a_sq = (
        HBAR**2
        * w_i**2
        * w_s**2
        / (4.0 * C_LIGHT**2 * EPS0**2 * n_s * n_i * w_p**2)
        * pump_power
        * q_conversion
    )
    w2_prefactor = (w_s * w_i / w_p**2) * pump_power * q_conversion
    return CorrelationScale(a_sq=a_sq, w2_prefactor=w2_prefactor)


@dataclass(frozen=True)
class OverlapBundle:
    """Geometry-dependent overlap magnitudes, cacheable across filter sweeps.

    Each arm's total is the mode sum on its partner's basis. For a
    degenerate source the two arms coincide: both hold |I_APG|^2.
    """

    i_sfg_sq: float
    i_dfg_sq_signal_arm: float  # idler-basis sum; controls signal singles
    i_dfg_sq_idler_arm: float  # signal-basis sum; controls idler singles


def compute_overlaps(
    waves: WaveTriple,
    crystal: CrystalSpec,
    fp: FocusParams,
    basis_order: int = modebasis.DEFAULT_MAX_ORDER,
    quad_tol: float = 1e-9,
) -> OverlapBundle:
    """Evaluate |I_SFG|^2 and both arms' mode-sum totals for one geometry.

    The signal arm's total is the mode sum on the idler basis and the idler
    arm's on the signal basis, each of radial orders 0..basis_order. When
    the signal and idler waves are equal (always so for a degenerate
    triple) the two bases coincide and one mode sum serves both arms.
    """
    i_sfg = overlap.i_sfg_gaussian(waves, crystal, fp)

    def total(arm: str) -> float:
        return modebasis.i_dfg_sq(
            waves, crystal, fp, arm=arm, basis_order=basis_order, quad_tol=quad_tol
        ).total

    signal_arm = total("idler")
    idler_arm = signal_arm if waves.signal == waves.idler else total("signal")
    return OverlapBundle(i_sfg.abs_sq, signal_arm, idler_arm)


@dataclass(frozen=True)
class SourceReport:
    """Everything computed for one source configuration.

    Rates are None for an arm whose filter is Unfiltered (its singles rate
    is unbounded in the narrow-band model). narrowband_ok is None unless a
    phase-matching bandwidth estimate was supplied; the package does not
    estimate it, it only compares when told.
    """

    pair_rate_w2: float
    singles_rate_signal: float | None
    singles_rate_idler: float | None
    eta_signal: float | None
    eta_idler: float | None
    gamma_eff: float
    gamma_eff_s: float | None
    gamma_eff_i: float | None
    pump_power: float
    efficiencies: classical.EfficiencyReport
    overlaps: OverlapBundle
    narrowband_ok: bool | None = None

    def __post_init__(self) -> None:
        for eta in (self.eta_signal, self.eta_idler):
            if eta is not None and not 0.0 < eta <= 1.0 + 1e-9:
                raise ValueError(f"heralding efficiency {eta} outside (0, 1]")
        for singles in (self.singles_rate_signal, self.singles_rate_idler):
            if singles is not None and self.pair_rate_w2 > singles * (1.0 + 1e-9):
                raise ValueError("pair rate exceeds a singles rate")


def _no_passband_message(filter_s: filters.FilterSpec, filter_i: filters.FilterSpec) -> str:
    """Why Gamma_eff is 0: an arm that transmits nothing, or passbands that miss."""
    for name, flt in (("filter_s", filter_s), ("filter_i", filter_i)):
        if not isinstance(flt, filters.Unfiltered) and filters.gamma_eff_single(flt) == 0.0:
            return f"{name} transmits nothing: its transmission is 0 everywhere"
    return (
        "the passbands of filter_s and filter_i do not overlap: T_s(W) T_i(-W) is 0 "
        "at every offset W, so no pair reaches both detectors"
    )


def evaluate_source(
    waves: WaveTriple,
    crystal: CrystalSpec,
    fp: FocusParams,
    filter_s: filters.FilterSpec,
    filter_i: filters.FilterSpec,
    pump_power: float,
    *,
    basis_order: int = modebasis.DEFAULT_MAX_ORDER,
    quad_tol: float = 1e-9,
    pm_bandwidth: float | None = None,
    overlaps: OverlapBundle | None = None,
) -> SourceReport:
    """Full pipeline: overlaps, efficiencies, linewidths, rates, heralding.

    Precomputed overlaps may be passed in when only powers or filters vary
    (that is what the sweep engine does).
    """
    if pump_power < 0:
        raise ValueError("pump_power must be >= 0")
    gamma_eff = filters.gamma_eff_pair(filter_s, filter_i)
    if gamma_eff == 0.0:
        raise ValueError(_no_passband_message(filter_s, filter_i))
    if overlaps is None:
        overlaps = compute_overlaps(waves, crystal, fp, basis_order, quad_tol)

    q_conv = classical.q_conversion(waves, crystal, overlaps.i_sfg_sq)

    def arm(collected: str, flt: filters.FilterSpec, i_dfg_sq: float):
        """(Q, Gamma_eff, W1, eta) of one arm; None for an unfiltered arm."""
        q = classical.q_arm(waves, crystal, i_dfg_sq, collected)
        if isinstance(flt, filters.Unfiltered):
            return q, None, None, None
        gamma = filters.gamma_eff_single(flt)
        return (
            q,
            gamma,
            singles_rate(waves, pump_power, q, gamma, collected=collected),
            conditional_efficiency(waves, gamma_eff, gamma, overlaps.i_sfg_sq, i_dfg_sq),
        )

    q_s, gamma_s, w1_s, eta_s = arm("signal", filter_s, overlaps.i_dfg_sq_signal_arm)
    q_i, gamma_i, w1_i, eta_i = arm("idler", filter_i, overlaps.i_dfg_sq_idler_arm)

    return SourceReport(
        pair_rate_w2=pair_rate(waves, pump_power, q_conv, gamma_eff),
        singles_rate_signal=w1_s,
        singles_rate_idler=w1_i,
        eta_signal=eta_s,
        eta_idler=eta_i,
        gamma_eff=gamma_eff,
        gamma_eff_s=gamma_s,
        gamma_eff_i=gamma_i,
        pump_power=pump_power,
        efficiencies=classical.EfficiencyReport(q_conv, q_s, q_i),
        overlaps=overlaps,
        narrowband_ok=None if pm_bandwidth is None else bool(gamma_eff <= pm_bandwidth),
    )
