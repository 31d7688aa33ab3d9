"""Laguerre-Gauss mode sums for the difference-frequency overlap totals.

Collecting a single Gaussian mode captures only part of the light a pump and
signal beam generate; the singles rate needs the total |I_DFG|^2 summed over
a complete transverse basis on the output plane. For circular Gaussian
sources only the l = 0 radial Laguerre-Gauss modes contribute, and each
projection reduces to a one-dimensional integral: the radial integral of the
Gaussian source against an LG polynomial is the Laguerre generating-function
Laplace transform

    Int_0^inf L_n(x) exp(-s x) dx = (s - 1)^n / s^(n+1),

so the n-th coefficient just carries an extra factor of a fixed complex
ratio to the n-th power. Basis mode 0 is the collection mode itself, which
makes term 0 exactly |I_SFG|^2 and the heralding bound structural.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import eval_laguerre

from . import quadrature
from .quantities import CrystalSpec, FocusParams, WaveTriple

__all__ = [
    "ModeSumError",
    "LGBasisSpec",
    "ParsevalSum",
    "default_basis",
    "lg_mode",
    "i_dfg_sq",
    "i_apg_sq",
]

DEFAULT_MAX_ORDER = 40
DEFAULT_TAIL_TOL = 1e-4


class ModeSumError(RuntimeError):
    """Mode sum truncated before the tail estimate met its threshold."""


@dataclass(frozen=True)
class LGBasisSpec:
    """Radial (l = 0) Laguerre-Gauss basis on a given carrier.

    The basis waist is tied to the collection mode: same wavelength, index
    and Rayleigh range, so mode 0 is the collection mode itself.
    """

    wavelength: float  # m
    refractive_index: float
    rayleigh_range: float  # m
    max_radial_order: int

    def __post_init__(self) -> None:
        if self.max_radial_order < 1:
            raise ValueError("max_radial_order must be >= 1")
        if self.rayleigh_range <= 0:
            raise ValueError("rayleigh_range must be positive")

    @property
    def wavenumber(self) -> float:
        return 2.0 * math.pi * self.refractive_index / self.wavelength


@dataclass(frozen=True)
class ParsevalSum:
    """Per-order contributions |c_n|^2 (dimensionless), their total and tail bound."""

    terms: tuple[float, ...]
    total: float
    tail_estimate: float  # relative to total

    @property
    def term0(self) -> float:
        return self.terms[0]


def default_basis(
    waves: WaveTriple,
    crystal: CrystalSpec,
    fp: FocusParams,
    arm: str = "idler",
    max_order: int = DEFAULT_MAX_ORDER,
) -> LGBasisSpec:
    """Basis matched to the signal or idler collection mode of a configuration."""
    if arm not in ("signal", "idler"):
        raise ValueError("arm must be 'signal' or 'idler'")
    wave = waves.idler if arm == "idler" else waves.signal
    return LGBasisSpec(
        wavelength=wave.vacuum_wavelength,
        refractive_index=wave.refractive_index,
        rayleigh_range=fp.zeta_r * crystal.length,
        max_radial_order=max_order,
    )


def lg_mode(spec: LGBasisSpec, n: int, r: np.ndarray, z: float) -> np.ndarray:
    """Field of radial LG mode n at height z; plane-normalized to unit power."""
    k = spec.wavenumber
    z_r = spec.rayleigh_range
    q = z - 1j * z_r
    w_sq = 2.0 * (z**2 + z_r**2) / (k * z_r)
    r = np.asarray(r, dtype=float)
    return (
        math.sqrt(k * z_r / math.pi)
        * (1.0 / q)
        * (np.conj(q) / q) ** n
        * eval_laguerre(n, 2.0 * r**2 / w_sq)
        * np.exp(1j * k * z)
        * np.exp(1j * k * r**2 / (2.0 * q))
    )


def _mode_sum(
    k_p: float,
    k_a: float,
    k_b: float,
    kappa: float,
    zeta_r: float,
    length: float,
    max_order: int,
    quad_tol: float,
    tail_tol: float,
) -> ParsevalSum:
    """Sum of |c_n|^2 for basis wavenumber k_b driven by pump k_p and k_a.

    All lengths enter through (kappa, zeta_r) and the wavenumbers; the
    integral runs over the scaled coordinate z/L in [-1/2, 1/2].
    """
    k_plus = k_p + k_a + k_b
    k_minus0 = k_p - k_a - k_b
    orders = np.arange(max_order + 1)

    def integrand(z: np.ndarray) -> np.ndarray:
        qh = z - 1j * zeta_r
        qhc = z + 1j * zeta_r
        s = (k_plus * zeta_r - 1j * k_minus0 * z) / (2.0 * k_b * zeta_r)
        base = np.exp(1j * kappa * z) / (qhc * s)
        ratio = (qh / qhc) * (s - 1.0) / s
        return base * ratio ** orders[:, None]

    res = quadrature.integrate(integrand, -0.5, 0.5, rel_tol=quad_tol)
    z_r = zeta_r * length
    prefactor = math.sqrt(k_p * k_a * z_r / (math.pi * k_b))
    coeffs = prefactor * np.asarray(res.value)
    terms = np.abs(coeffs) ** 2
    total = float(np.sum(terms))

    # Geometric tail bound from the last few orders. terms[n] decays like
    # |(s-1)/s|^(2n), so the running ratio is the honest extrapolation.
    window = min(5, max_order + 1)
    t_last = float(terms[-1])
    t_first = float(terms[-window])
    # |c_n| is only resolved down to ~quad_tol of the largest coefficient;
    # below that the ratio test would measure quadrature noise, not decay.
    noise_floor = (10.0 * quad_tol) ** 2 * float(np.max(terms))
    if t_last == 0.0 or total == 0.0:
        tail_rel = 0.0
    elif t_first <= noise_floor and t_last <= noise_floor:
        tail_rel = window * noise_floor / total
    else:
        ratio = (t_last / t_first) ** (1.0 / (window - 1)) if t_first > 0 else 1.0
        if ratio >= 1.0:
            raise ModeSumError(
                f"mode terms not decaying at order {max_order} "
                f"(last-term ratio {ratio:.3f}); raise basis_order"
            )
        tail = t_last * ratio / (1.0 - ratio)
        tail_rel = tail / (total + tail)
    if tail_rel > tail_tol:
        raise ModeSumError(
            f"mode sum truncated at order {max_order} with relative tail "
            f"{tail_rel:.2e} > {tail_tol:.0e}; raise basis_order"
        )
    return ParsevalSum(terms=tuple(float(t) for t in terms), total=total, tail_estimate=tail_rel)


def i_dfg_sq(
    waves: WaveTriple,
    crystal: CrystalSpec,
    fp: FocusParams,
    arm: str = "idler",
    basis_order: int = DEFAULT_MAX_ORDER,
    quad_tol: float = 1e-9,
    tail_tol: float = DEFAULT_TAIL_TOL,
) -> ParsevalSum:
    """Total difference-frequency overlap |I_DFG|^2 (dimensionless).

    The basis of radial orders 0..basis_order sits on the given arm, with
    that arm's collection mode as mode 0 (default_basis). An idler basis
    (default) gives the quantity that controls the signal singles rate, and
    vice versa.
    """
    if arm not in ("signal", "idler"):
        raise ValueError("arm must be 'signal' or 'idler'")
    if basis_order < 1:
        raise ValueError("basis_order must be >= 1")
    k_s = waves.signal.wavenumber
    k_i = waves.idler.wavenumber
    k_a, k_b = (k_s, k_i) if arm == "idler" else (k_i, k_s)
    return _mode_sum(
        k_p=waves.pump.wavenumber,
        k_a=k_a,
        k_b=k_b,
        kappa=fp.kappa,
        zeta_r=fp.zeta_r,
        length=crystal.length,
        max_order=basis_order,
        quad_tol=quad_tol,
        tail_tol=tail_tol,
    )


def i_apg_sq(
    waves: WaveTriple,
    crystal: CrystalSpec,
    fp: FocusParams,
    basis_order: int = DEFAULT_MAX_ORDER,
    quad_tol: float = 1e-9,
    tail_tol: float = DEFAULT_TAIL_TOL,
) -> ParsevalSum:
    """Total average-parametric-gain overlap |I_APG|^2 (dimensionless).

    Degenerate analogue of i_dfg_sq: signal and idler are the same mode, the
    basis sits on the signal arm.
    """
    if waves.signal != waves.idler:
        raise ValueError(
            "average parametric gain needs identical signal and idler modes"
        )
    return i_dfg_sq(waves, crystal, fp, "signal", basis_order, quad_tol, tail_tol)
