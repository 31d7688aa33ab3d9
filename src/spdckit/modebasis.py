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
ratio to the n-th power, which a doubling table supplies for every order.
Basis mode 0 is the collection mode itself, which makes term 0 exactly
|I_SFG|^2 and the heralding bound structural.

The coefficient integrals run on a composite Gauss-Legendre rule in
u = asinh(z / zeta_R), which spreads the nodes over the focal region at
tight focus, with the panel count doubling until two rules agree. The
phase mismatch kappa enters only through exp(i kappa z), so the
coefficients of many kappa at one zeta_R come from one matrix product;
quantum._overlaps uses that for the points that share a zeta_R.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .quadrature import QuadratureError
from .quantities import CrystalSpec, FocusParams, WaveTriple

__all__ = [
    "ModeSumError",
    "ParsevalSum",
    "i_dfg_sq",
]

DEFAULT_MAX_ORDER = 40
DEFAULT_TAIL_TOL = 1e-4

# Composite Gauss-Legendre rule of the coefficient integrals: nodes per
# panel, the panel-count cap, and the node block that bounds memory.
_PANEL_NODES = 64
_MAX_PANELS = 256
_BLOCK_NODES = 2048
_RULES: dict[int, tuple[np.ndarray, np.ndarray]] = {}
# Highest basis order: one _BLOCK_NODES block of the mode columns G is then
# at most 4097 x 2048 complex values (128 MiB).
_MAX_ORDER = 4096


class ModeSumError(RuntimeError):
    """Mode sum truncated before the tail estimate met its threshold."""


@dataclass(frozen=True)
class ParsevalSum:
    """Per-order contributions |c_n|^2 (dimensionless), their total and tail bound.

    n_nodes is the size of the quadrature rule the coefficients came from,
    and quad_error the max-norm difference of its coefficients from the
    rule of half as many nodes, relative to the largest coefficient.
    """

    terms: tuple[float, ...]
    total: float
    tail_estimate: float  # relative to total
    n_nodes: int
    quad_error: float

    @property
    def term0(self) -> float:
        return self.terms[0]


def _panel_rule(panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre nodes and weights on [-1, 1], cached per panel count.

    Each of the equal panels carries _PANEL_NODES nodes. Panel counts are
    powers of two up to _MAX_PANELS, so the cache holds at most nine rules.
    """
    rule = _RULES.get(panels)
    if rule is None:
        t, w = special.roots_legendre(_PANEL_NODES)
        left = -1.0 + 2.0 * np.arange(panels) / panels
        nodes = (left[:, None] + (t + 1.0) / panels).ravel()
        rule = _RULES[panels] = (nodes, np.tile(w / panels, panels))
    return rule


def _coefficients(
    k_plus: float,
    k_minus0: float,
    k_b: float,
    kappas: np.ndarray,
    zeta_r: float,
    max_order: int,
    panels: int,
) -> np.ndarray:
    """Coefficient integrals c_n(kappa) on the rule of the given panel count.

    With u = asinh(z/zeta_R) the poles at z = +-i zeta_R no longer crowd the
    nodes at tight focus. The integrand of c_n is exp(i kappa z) G_n(z), where
    row n of G is base * ratio^n, built by doubling: row 1 is row 0 times
    ratio, then for m = 2, 4, ... power = ratio^m and rows m..2m-1 are rows
    0..m-1 times power. That is log2(max_order) broadcast multiplies, one
    complex multiply per entry. kappa enters only through the exponential,
    so every kappa shares G and all of them come from one matrix product.
    Its exponential takes len(kappas) x _BLOCK_NODES complex values.
    Returns shape (len(kappas), max_order + 1).
    """
    x, w = _panel_rule(panels)
    half_span = math.asinh(0.5 / zeta_r)
    out = np.zeros((kappas.size, max_order + 1), dtype=complex)
    # Blocks of nodes bound the memory of G at the largest rules.
    for lo in range(0, x.size, _BLOCK_NODES):
        u = half_span * x[lo : lo + _BLOCK_NODES]
        z = zeta_r * np.sinh(u)
        dz = (half_span * zeta_r) * np.cosh(u) * w[lo : lo + _BLOCK_NODES]
        qh = z - 1j * zeta_r
        qhc = z + 1j * zeta_r
        s = (k_plus * zeta_r - 1j * k_minus0 * z) / (2.0 * k_b * zeta_r)
        g = np.empty((max_order + 1, z.size), dtype=complex)
        g[0] = dz / (qhc * s)
        power = (qh / qhc) * (s - 1.0) / s
        np.multiply(g[0], power, out=g[1])
        m = 2
        while m <= max_order:
            power *= power
            np.multiply(g[: min(m, max_order + 1 - m)], power, out=g[m : 2 * m])
            m *= 2
        e = np.exp(1j * np.outer(kappas, z))
        # One kappa takes numpy's own loops: a BLAS product this small can
        # stall on idle BLAS threads when their count is left at its default.
        out += np.einsum("kj,nj->kn", e, g) if kappas.size == 1 else e @ g.T
    return out


def _tail_estimate(terms: np.ndarray, total: float, quad_tol: float, tail_tol: float) -> float:
    """Relative tail beyond the last order; raises ModeSumError above tail_tol."""
    max_order = terms.size - 1
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
    return tail_rel


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
    that arm's collection mode (same wavelength, index and Rayleigh range)
    as mode 0. An idler basis (default) gives the quantity that controls
    the signal singles rate, and vice versa. With identical signal and
    idler modes either basis gives the average-parametric-gain total
    |I_APG|^2.
    """
    (result,) = _arm_mode_sums(
        waves, crystal.length, [fp.kappa], fp.zeta_r, arm, basis_order, quad_tol, tail_tol
    )
    if isinstance(result, Exception):
        raise result
    return result


def _arm_mode_sums(
    waves: WaveTriple,
    length: float,
    kappas,
    zeta_r: float,
    arm: str,
    basis_order: int,
    quad_tol: float,
    tail_tol: float = DEFAULT_TAIL_TOL,
) -> list[ParsevalSum | ModeSumError | QuadratureError]:
    """i_dfg_sq for every kappa at one zeta_R, in order.

    Each entry is the ParsevalSum, or the error i_dfg_sq raises at that
    kappa alone; invalid options raise ValueError for the whole call. With
    the basis on the given arm, the sum is over |c_n|^2 for basis wavenumber
    k_b driven by the pump and the other arm's k_a. All lengths enter
    through (kappa, zeta_r) and the wavenumbers; the integral runs over the
    scaled coordinate z/L in [-1/2, 1/2]. The panel count doubles from 1
    until the rules of P and 2P panels agree to quad_tol (max norm over the
    orders, relative to the largest coefficient). Each kappa keeps the 2P
    rule of the first pair that agrees for it, so it gets the same rule in
    a batch as alone, and the same result to rounding.
    """
    if arm not in ("signal", "idler"):
        raise ValueError("arm must be 'signal' or 'idler'")
    if basis_order < 1:
        raise ValueError("basis_order must be >= 1")
    if basis_order > _MAX_ORDER:
        raise ValueError(f"basis_order must be <= {_MAX_ORDER}, got {basis_order}")
    if not (math.isfinite(quad_tol) and quad_tol > 0):
        raise ValueError(f"quad_tol must be finite and > 0, got {quad_tol!r}")
    kappas = np.asarray(kappas, dtype=float)
    if not (np.all(np.isfinite(kappas)) and math.isfinite(zeta_r)):
        raise ValueError("kappa and zeta_R must be finite")
    k_p = waves.pump.wavenumber
    k_s, k_i = waves.signal.wavenumber, waves.idler.wavenumber
    k_a, k_b = (k_s, k_i) if arm == "idler" else (k_i, k_s)
    k_plus = k_p + k_a + k_b
    k_minus0 = k_p - k_a - k_b
    prefactor = math.sqrt(k_p * k_a * zeta_r * length / (math.pi * k_b))
    results: list = [None] * kappas.size
    active = np.arange(kappas.size)
    panels = 1
    prev = _coefficients(k_plus, k_minus0, k_b, kappas, zeta_r, basis_order, panels)
    while active.size:
        panels *= 2
        cur = _coefficients(k_plus, k_minus0, k_b, kappas[active], zeta_r, basis_order, panels)
        scale = np.max(np.abs(cur), axis=1)
        diff = np.max(np.abs(cur - prev), axis=1)
        done = diff <= quad_tol * scale
        for j, coeffs, err, ok in zip(active, cur, diff / scale, done):
            if ok:
                terms = np.abs(prefactor * coeffs) ** 2
                total = float(np.sum(terms))
                try:
                    tail = _tail_estimate(terms, total, quad_tol, tail_tol)
                except ModeSumError as exc:
                    results[j] = exc
                else:
                    results[j] = ParsevalSum(
                        tuple(terms.tolist()), total, tail, _PANEL_NODES * panels, float(err)
                    )
            elif panels == _MAX_PANELS:
                results[j] = QuadratureError(
                    f"mode-sum quadrature not converged at kappa={kappas[j]:.6g}, "
                    f"zeta_R={zeta_r:.6g}: the rules of {_PANEL_NODES * panels // 2} and "
                    f"{_PANEL_NODES * panels} nodes differ by {err:.2e} > quad_tol {quad_tol:.0e}"
                )
        if panels == _MAX_PANELS:
            break
        active, prev = active[~done], cur[~done]
    return results
