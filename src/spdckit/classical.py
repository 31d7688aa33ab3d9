"""Classical conversion efficiencies Q [1/W] from overlap magnitudes.

Each efficiency is a pure function of the wave triple, the crystal and a
dimensionless overlap magnitude |I|^2 computed elsewhere; nothing here re-runs
quadrature, so sweep engines can cache the expensive part.

The four paper-named formulas cover two processes: the two-field one
(q_sfg, q_dfg) and the degenerate single-field one (q_shg, q_apg), whose
conversion amplitude carries a factor 1/2, hence a conversion efficiency a
factor 4 below q_sfg at equal overlap. Each formula refuses the other
process. q_conversion and q_arm pick the right formula for a triple; this
is the one place where the package chooses between the two processes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .quantities import C_LIGHT, EPS0, CrystalSpec, WaveTriple

__all__ = [
    "EfficiencyReport",
    "q_conversion",
    "q_arm",
    "q_sfg",
    "q_shg",
    "q_dfg",
    "q_apg",
]

_PARTNER = {"signal": "idler", "idler": "signal"}


@dataclass(frozen=True)
class EfficiencyReport:
    """Conversion efficiencies of one configuration [1/W].

    q_conversion is q_conversion() of the triple (Q_SFG, or Q_SHG when
    degenerate); each arm's value is q_arm() for that arm, the efficiency
    that sets its singles rate.
    """

    q_conversion: float
    q_signal_arm: float
    q_idler_arm: float

    def __post_init__(self) -> None:
        q_c, q_s, q_i = self.q_conversion, self.q_signal_arm, self.q_idler_arm
        if not (0.0 <= q_c < math.inf and 0.0 <= q_s < math.inf and 0.0 <= q_i < math.inf):
            _check_nonneg(q_conversion=q_c, q_signal_arm=q_s, q_idler_arm=q_i)


def _check_nonneg(**kwargs: float) -> None:
    """Raise a ValueError naming the first value that is not finite and >= 0.

    The keyword call costs several times the comparison, so the checks that
    run once per sweep geometry or filter pair test 0.0 <= x < inf first.
    """
    for name, value in kwargs.items():
        if not 0.0 <= value < math.inf:
            if value < 0:
                raise ValueError(f"{name} must be >= 0")
            raise ValueError(f"{name} must be finite, got {value!r}")


def q_conversion(waves: WaveTriple, crystal: CrystalSpec, i_sfg_sq: float) -> float:
    """Efficiency of the up-conversion that mirrors pair emission [1/W].

    Q_SHG for a degenerate triple, Q_SFG otherwise; i_sfg_sq is |I_SFG|^2
    (|I_SHG|^2 when degenerate).
    """
    return (q_shg if waves.degenerate else q_sfg)(waves, crystal, i_sfg_sq)


def q_arm(
    waves: WaveTriple, crystal: CrystalSpec, i_dfg_sq: float, collected: str
) -> float:
    """Generation efficiency that sets the singles rate of one arm [1/W].

    Q_APG for a degenerate triple; otherwise Q_DFG generating the partner
    of the collected arm. i_dfg_sq is the mode-sum total on the partner's
    basis.
    """
    if collected not in _PARTNER:
        raise ValueError("collected must be 'signal' or 'idler'")
    if waves.degenerate:
        return q_apg(waves, crystal, i_dfg_sq)
    return q_dfg(waves, crystal, i_dfg_sq, generated=_PARTNER[collected])


def q_sfg(waves: WaveTriple, crystal: CrystalSpec, i_sfg_sq: float) -> float:
    """Sum-frequency efficiency Q_SFG = P_pump / (P_signal P_idler) [1/W].

    Q_SFG = 2 omega_p^2 d^2 |I_SFG|^2 / (c^3 eps0 n_p n_s n_i).
    """
    if not 0.0 <= i_sfg_sq < math.inf:
        _check_nonneg(i_sfg_sq=i_sfg_sq)
    if waves.degenerate:
        raise ValueError("degenerate configuration: use q_shg")
    w_p = waves.pump.angular_frequency
    n_prod = (
        waves.pump.refractive_index
        * waves.signal.refractive_index
        * waves.idler.refractive_index
    )
    return 2.0 * w_p**2 * crystal.d_eff**2 * i_sfg_sq / (C_LIGHT**3 * EPS0 * n_prod)


def q_shg(waves: WaveTriple, crystal: CrystalSpec, i_shg_sq: float) -> float:
    """Second-harmonic efficiency Q_SHG = P_2w / P_w^2 [1/W].

    Q_SHG = omega_p^2 d^2 |I_SHG|^2 / (2 c^3 eps0 n_p n_s^2): the single
    driving field halves the conversion amplitude, so this is q_sfg / 4 at
    equal overlap and matched indices.
    """
    if not 0.0 <= i_shg_sq < math.inf:
        _check_nonneg(i_shg_sq=i_shg_sq)
    if not waves.degenerate:
        raise ValueError("q_shg needs a degenerate configuration")
    w_p = waves.pump.angular_frequency
    n_p = waves.pump.refractive_index
    n_s = waves.signal.refractive_index
    return w_p**2 * crystal.d_eff**2 * i_shg_sq / (2.0 * C_LIGHT**3 * EPS0 * n_p * n_s**2)


def q_dfg(
    waves: WaveTriple,
    crystal: CrystalSpec,
    i_dfg_sq: float,
    generated: str = "idler",
) -> float:
    """Difference-frequency efficiency Q_DFG = P_generated / (P_pump P_seed) [1/W].

    Q_DFG = 2 omega_gen^2 d^2 |I_DFG|^2 / (c^3 eps0 n_s n_i n_p), with
    omega_gen the generated (unseeded) arm: 'idler' when the signal is
    seeded and vice versa.
    """
    if not 0.0 <= i_dfg_sq < math.inf:
        _check_nonneg(i_dfg_sq=i_dfg_sq)
    if waves.degenerate:
        raise ValueError("degenerate configuration: use q_apg")
    if generated == "idler":
        w_gen = waves.idler.angular_frequency
    elif generated == "signal":
        w_gen = waves.signal.angular_frequency
    else:
        raise ValueError("generated must be 'signal' or 'idler'")
    n_prod = (
        waves.pump.refractive_index
        * waves.signal.refractive_index
        * waves.idler.refractive_index
    )
    return 2.0 * w_gen**2 * crystal.d_eff**2 * i_dfg_sq / (C_LIGHT**3 * EPS0 * n_prod)


def q_apg(waves: WaveTriple, crystal: CrystalSpec, i_apg_sq: float) -> float:
    """Average parametric gain Q_APG [1/W], degenerate analogue of q_dfg.

    Q_APG = 2 omega_s^2 d^2 |I_APG|^2 / (c^3 eps0 n_s^2 n_p).
    """
    if not 0.0 <= i_apg_sq < math.inf:
        _check_nonneg(i_apg_sq=i_apg_sq)
    if not waves.degenerate:
        raise ValueError("q_apg needs a degenerate configuration")
    w_s = waves.signal.angular_frequency
    n_p = waves.pump.refractive_index
    n_s = waves.signal.refractive_index
    return 2.0 * w_s**2 * crystal.d_eff**2 * i_apg_sq / (C_LIGHT**3 * EPS0 * n_p * n_s**2)
