"""Adaptive Gauss-Kronrod quadrature for complex and vector integrands.

This is the oracle engine of validation.py, kept apart from every hot
path: the closed-form Upsilon, the mode-sum kernel (through its closed-form
inner integral), the table-free joint linewidth and, through the direct 3D
overlap, the reduced I_SFG are each checked against it. Their integrands
are smooth but oscillatory, sharply peaked near the beam focus for small
zeta_R, and complex valued (sometimes vector valued).
scipy's quad handles none of those in a single pass, so this module
provides a small deterministic engine: a 15-point Kronrod rule with
embedded 7-point Gauss error estimate, plus worst-interval-first
subdivision.

All intervals are evaluated with the same rule, so results are reproducible
bit for bit for a given integrand and tolerance. QuadratureError is also
what the mode sums raise when their own rule does not converge."""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["QuadratureError", "QuadratureResult", "integrate"]


class QuadratureError(RuntimeError):
    """Raised when the subdivision budget is exhausted before convergence."""


# 15-point Kronrod nodes on [-1, 1] in ascending order. Odd positions are the
# embedded 7-point Gauss nodes. Values are the standard published abscissae.
_XK_HALF = np.array(
    [
        0.991455371120813,
        0.949107912342759,
        0.864864423359769,
        0.741531185599394,
        0.586087235467691,
        0.405845151377397,
        0.207784955007898,
        0.0,
    ]
)
_WK_HALF = np.array(
    [
        0.022935322010529,
        0.063092092629979,
        0.104790010322250,
        0.140653259715525,
        0.169004726639267,
        0.190350578064785,
        0.204432940075298,
        0.209482141084728,
    ]
)
# 7-point Gauss weights, matching nodes _XK_HALF[1], [3], [5], [7].
_WG_HALF = np.array(
    [
        0.129484966168870,
        0.279705391489277,
        0.381830050505119,
        0.417959183673469,
    ]
)

NODES = np.concatenate([-_XK_HALF[:-1], _XK_HALF[::-1]])
KRONROD_WEIGHTS = np.concatenate([_WK_HALF[:-1], _WK_HALF[::-1]])
GAUSS_WEIGHTS = np.zeros(15)
GAUSS_WEIGHTS[1::2] = np.concatenate([_WG_HALF[:-1], _WG_HALF[::-1]])


@dataclass(frozen=True)
class QuadratureResult:
    """Integral value with an error estimate and evaluation statistics."""

    value: complex | np.ndarray
    est_error: float
    n_panels: int
    n_evaluations: int


def _panel(f: Callable, a: float, b: float):
    """One Kronrod panel on [a, b]: returns (integral, error, fcount)."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    fv = np.asarray(f(mid + half * NODES))
    if fv.ndim == 0 or fv.shape[-1] != NODES.size:
        raise ValueError("integrand must be vectorized over its last axis")
    if not np.all(np.isfinite(fv)):
        raise ValueError(f"integrand returned a non-finite value on [{a}, {b}]")
    kron = half * (fv @ KRONROD_WEIGHTS)
    gauss = half * (fv @ GAUSS_WEIGHTS)
    err = float(np.max(np.abs(kron - gauss)))
    return kron, err, NODES.size


def integrate(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    *,
    rel_tol: float = 1e-9,
    abs_floor: float = 1e-15,
    max_panels: int = 2000,
) -> QuadratureResult:
    """Integrate a vectorized complex (or vector-valued) function over [a, b].

    Parameters
    ----------
    f:
        Callable mapping an array of points (shape ``(n,)``) to values of
        shape ``(n,)`` or ``(..., n)``. Complex output is expected.
    rel_tol:
        Target relative accuracy. The loop refines until the summed panel
        error estimate satisfies ``est <= rel_tol*|value| + abs_floor``
        (max-norm over components for vector integrands).
    max_panels:
        Subdivision budget; exceeding it raises QuadratureError, which for
        the overlap integrals signals pathological inputs rather than a
        tolerance problem.
    """
    if not b > a:
        raise ValueError("integration interval must satisfy b > a")
    if rel_tol <= 0:
        raise ValueError("rel_tol must be positive")

    value, err, n_eval = _panel(f, a, b)
    # Heap entries: (-error, insertion order, a, b, panel value, error).
    # Insertion order breaks ties so subdivision is deterministic.
    order = 0
    heap = [(-err, order, a, b, value, err)]
    total_err = err
    n_panels = 1

    def _norm(v) -> float:
        return float(np.max(np.abs(v)))

    while total_err > rel_tol * _norm(value) + abs_floor:
        if n_panels >= max_panels:
            raise QuadratureError(
                f"no convergence within {max_panels} panels "
                f"(est_error={total_err:.3e}, value_norm={_norm(value):.3e})"
            )
        neg_err, _, pa, pb, pval, perr = heapq.heappop(heap)
        pm = 0.5 * (pa + pb)
        lval, lerr, c1 = _panel(f, pa, pm)
        rval, rerr, c2 = _panel(f, pm, pb)
        value = value - pval + lval + rval
        total_err = total_err - perr + lerr + rerr
        n_eval += c1 + c2
        n_panels += 1
        order += 1
        heapq.heappush(heap, (-lerr, order, pa, pm, lval, lerr))
        order += 1
        heapq.heappush(heap, (-rerr, order, pm, pb, rval, rerr))

    if np.ndim(value) == 0:
        value = complex(value)
    return QuadratureResult(
        value=value, est_error=total_err, n_panels=n_panels, n_evaluations=n_eval
    )
