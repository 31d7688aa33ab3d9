"""Core value objects and unit handling shared by every other module.

All internal computation is in SI (m, s, W, rad/s, m/V). The conversion
helpers here are the only place lab units (nm, pm/V, MHz, ...) are mapped to
SI, so unit mistakes stay confined to one file. Note the one non-obvious
convention: "MHz" is ordinary frequency and converts to angular frequency,
1 MHz -> 2*pi*1e6 rad/s, because every linewidth in this package is angular.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

__all__ = [
    "C_LIGHT",
    "EPS0",
    "HBAR",
    "OpticalWave",
    "WaveTriple",
    "CrystalSpec",
    "FocusParams",
    "derive_focus_params",
    "to_si",
    "from_si",
]

C_LIGHT = 299792458.0  # m/s
EPS0 = 8.8541878128e-12  # F/m
HBAR = 1.054571817e-34  # J s

# Relative tolerance for pump = signal + idler frequency bookkeeping. Inputs
# are computed, not measured, so anything looser than this is a caller bug.
ENERGY_TOL = 1e-9


@dataclass(frozen=True)
class OpticalWave:
    """One monochromatic field: vacuum wavelength [m] and refractive index."""

    vacuum_wavelength: float
    refractive_index: float

    def __post_init__(self) -> None:
        if not self.vacuum_wavelength > 0:
            raise ValueError("vacuum_wavelength must be positive")
        if self.refractive_index < 1.0:
            raise ValueError("refractive_index must be >= 1")

    # Cached in the instance __dict__, which the frozen dataclass's field-based
    # equality, hash and replace() never look at.
    @cached_property
    def angular_frequency(self) -> float:
        """omega = 2 pi c / lambda [rad/s]."""
        return 2.0 * math.pi * C_LIGHT / self.vacuum_wavelength

    @cached_property
    def wavenumber(self) -> float:
        """k = n omega / c = 2 pi n / lambda [rad/m], in the medium."""
        return 2.0 * math.pi * self.refractive_index / self.vacuum_wavelength


@dataclass(frozen=True)
class WaveTriple:
    """Pump, signal and idler fields of one three-wave process.

    ``degenerate`` marks the single-field process (signal and idler are the
    same mode, as in second-harmonic generation run backwards). A type-II
    source with equal signal and idler wavelengths but distinct polarization
    modes is NOT degenerate in this sense.
    """

    pump: OpticalWave
    signal: OpticalWave
    idler: OpticalWave
    degenerate: bool = False

    def __post_init__(self) -> None:
        w_p = self.pump.angular_frequency
        w_si = self.signal.angular_frequency + self.idler.angular_frequency
        if abs(w_p - w_si) > ENERGY_TOL * w_p:
            raise ValueError(
                "energy conservation violated: omega_p != omega_s + omega_i "
                f"(relative error {abs(w_p - w_si) / w_p:.3e})"
            )
        if self.degenerate and self.signal != self.idler:
            raise ValueError("degenerate triple requires identical signal and idler")

    @classmethod
    def from_wavelengths(
        cls,
        lambda_s: float,
        lambda_i: float,
        n_s: float,
        n_i: float,
        n_p: float,
        degenerate: bool = False,
    ) -> "WaveTriple":
        """Build a triple with the pump wavelength fixed by energy conservation."""
        lambda_p = 1.0 / (1.0 / lambda_s + 1.0 / lambda_i)
        return cls(
            pump=OpticalWave(lambda_p, n_p),
            signal=OpticalWave(lambda_s, n_s),
            idler=OpticalWave(lambda_i, n_i),
            degenerate=degenerate,
        )

    @property
    def k_plus(self) -> float:
        """k_p + k_s + k_i [rad/m]."""
        return self.pump.wavenumber + self.signal.wavenumber + self.idler.wavenumber

    @property
    def k_minus0(self) -> float:
        """k_p - k_s - k_i [rad/m], before any poling correction."""
        return self.pump.wavenumber - self.signal.wavenumber - self.idler.wavenumber

    @property
    def r_k(self) -> float:
        """Dimensionless wavenumber ratio (k_p - k_s - k_i)/(k_p + k_s + k_i)."""
        return self.k_minus0 / self.k_plus


@dataclass(frozen=True)
class CrystalSpec:
    """Nonlinear crystal geometry: length [m], d_eff [m/V], poling period [m].

    ``poling_period = None`` means an unpoled crystal (Q = 0). d_eff already
    contains any quasi-phase-matching reduction factor.
    """

    length: float
    d_eff: float
    poling_period: float | None = None
    material_name: str = ""

    def __post_init__(self) -> None:
        if not self.length > 0:
            raise ValueError("crystal length must be positive")
        if not self.d_eff > 0:
            raise ValueError("d_eff must be positive")
        if self.poling_period is not None and not self.poling_period > 0:
            raise ValueError("poling_period must be positive when given")

    @property
    def qpm_wavenumber(self) -> float:
        """Q = 2 pi / poling period [rad/m]; 0 for an unpoled crystal."""
        if self.poling_period is None:
            return 0.0
        return 2.0 * math.pi / self.poling_period


@dataclass(frozen=True)
class FocusParams:
    """Dimensionless focusing geometry.

    kappa  = Delta_k * L with Delta_k = k_p - k_s - k_i - Q,
    zeta_r = z_R / L,
    r_k    = (k_p - k_s - k_i) / (k_p + k_s + k_i)   (poling excluded).

    ``rayleigh_range`` keeps the physical z_R [m] when the parameters came
    from a physical configuration; purely dimensionless studies leave it None.
    """

    kappa: float
    zeta_r: float
    r_k: float
    rayleigh_range: float | None = None

    def __post_init__(self) -> None:
        if not self.zeta_r > 0:
            raise ValueError("zeta_r must be positive")
        if not abs(self.r_k) < 1:
            raise ValueError("|r_k| must be < 1")


def derive_focus_params(
    waves: WaveTriple, crystal: CrystalSpec, z_r: float
) -> FocusParams:
    """Reduce a physical configuration to (kappa, zeta_r, r_k).

    z_r is the common Rayleigh range [m] of all three beams (the Gaussian
    reduction assumes they are equal).
    """
    if not z_r > 0:
        raise ValueError("z_R must be positive")
    delta_k = waves.k_minus0 - crystal.qpm_wavenumber
    return FocusParams(
        kappa=delta_k * crystal.length,
        zeta_r=z_r / crystal.length,
        r_k=waves.r_k,
        rayleigh_range=z_r,
    )


# Lab units accepted at the package boundary, as factors to SI. "MHz" is the
# single intentional exception to plain metric scaling: it is ordinary
# frequency converted to angular rad/s.
_UNIT_TO_SI = {
    "m": 1.0,
    "cm": 1e-2,
    "mm": 1e-3,
    "um": 1e-6,
    "µm": 1e-6,
    "nm": 1e-9,
    "pm/V": 1e-12,
    "W": 1.0,
    "mW": 1e-3,
    "uW": 1e-6,
    "MHz": 2.0 * math.pi * 1e6,
    "GHz": 2.0 * math.pi * 1e9,
    "rad/s": 1.0,
    "s": 1.0,
    "ms": 1e-3,
    "us": 1e-6,
    "ns": 1e-9,
    "ps": 1e-12,
}


def to_si(value: float, unit: str) -> float:
    """Convert a value in a lab unit to SI (MHz and GHz become rad/s)."""
    try:
        return value * _UNIT_TO_SI[unit]
    except KeyError:
        raise ValueError(f"unknown unit {unit!r}") from None


def from_si(value: float, unit: str) -> float:
    """Inverse of to_si."""
    try:
        return value / _UNIT_TO_SI[unit]
    except KeyError:
        raise ValueError(f"unknown unit {unit!r}") from None
