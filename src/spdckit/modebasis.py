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
coefficients of many kappa at one zeta_R share one table of mode columns.
_mode_sums computes all of them in one pass over tasks: a task is one
(waves, crystal length, zeta_R, arm) with its kappas, and the tasks of a
group double their rule in step, so the tasks of a block build their
nodes, mode columns and exponentials in the same array operations. quantum._overlaps hands it every geometry of a sweep at once;
i_dfg_sq is its one-task call. One cap, _BLOCK_ELEMENTS, bounds the mode
columns of a block (tasks x nodes x orders) and its exponentials.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

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
# panel and the panel-count cap.
_PANEL_NODES = 64
_MAX_PANELS = 256
_RULES: dict[int, tuple[np.ndarray, np.ndarray]] = {}
# Complex values of one block of the coefficient pass: its mode columns G
# (orders x tasks x nodes) hold at most this many (768 KiB), and so does its
# exp(i kappa z) block.
_BLOCK_ELEMENTS = 3 * 2**14
# Highest basis order: a block of G then still spans 11 nodes.
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
    The panel rule is numpy's: scipy's Legendre roots would import
    scipy.linalg, 7 MB and 57 ms on the first mode sum.
    """
    rule = _RULES.get(panels)
    if rule is None:
        t, w = np.polynomial.legendre.leggauss(_PANEL_NODES)
        left = -1.0 + 2.0 * np.arange(panels) / panels
        nodes = (left[:, None] + (t + 1.0) / panels).ravel()
        rule = _RULES[panels] = (nodes, np.tile(w / panels, panels))
    return rule


def _constants(waves: WaveTriple, zeta_r: float, arm: str) -> tuple[complex, ...]:
    """Rule constants of a basis on the given arm at zeta_R: one row of _coefficients' consts.

    With half_span = asinh(1 / (2 zeta_R)), the basis wavenumber k_b and
    k_plus, k_minus0 the sum and difference of the pump and both arms, they
    are half_span, zeta_R, half_span zeta_R, i zeta_R, k_plus zeta_R,
    i k_minus0 and 2 k_b zeta_R.
    """
    k_p = waves.pump.wavenumber
    k_s, k_i = waves.signal.wavenumber, waves.idler.wavenumber
    k_a, k_b = (k_s, k_i) if arm == "idler" else (k_i, k_s)
    half_span = math.asinh(0.5 / zeta_r)
    return (
        half_span,
        zeta_r,
        half_span * zeta_r,
        1j * zeta_r,
        (k_p + k_a + k_b) * zeta_r,
        1j * (k_p - k_a - k_b),
        2.0 * k_b * zeta_r,
    )


def _coefficients(
    consts: np.ndarray, kappas: list[np.ndarray], max_order: int, panels: int
) -> np.ndarray:
    """Coefficient integrals c_n(kappa) of every task on the rule of the given panel count.

    Row t of the complex array consts holds task t's _constants, and
    kappas[t] its kappas, at most max_order + 1 of them. With
    u = asinh(z/zeta_R) the poles at z = +-i zeta_R no longer crowd the
    nodes at tight focus. The integrand of c_n is exp(i kappa z) G_n(z), where
    row n of G is base * ratio^n, built by doubling: row 1 is row 0 times
    ratio, then for m = 2, 4, ... power = ratio^m and rows m..2m-1 are rows
    0..m-1 times power. That is log2(max_order) broadcast multiplies, one
    complex multiply per entry. kappa enters only through the exponential,
    so a task's kappas share its G and come from one matrix product.

    The tasks of a block (_blocks) build their nodes, G and exponentials in
    the same array operations. No block's exponentials outgrow its G, since
    no task has more kappas than orders. A task's nodes split the same way
    in any call, so it gets the same values in a batch as alone. Returns
    shape (total kappa count, max_order + 1), each task's rows in turn.
    """
    x, w = _panel_rule(panels)
    width = max_order + 1
    starts = [0, *itertools.accumulate(k.size for k in kappas)]
    out = np.zeros((starts[-1], width), dtype=complex)
    # One kappa per task: each block takes one product for all its tasks.
    single = np.concatenate(kappas)[:, None] if starts[-1] == len(kappas) else None
    work = None
    for tasks, nodes in _blocks(len(kappas), x.size, width):
        block = kappas[tasks]
        # One (tasks, 1) column per constant, or for one task scalars, which
        # numpy operates on faster. The complex ones meet complex operands,
        # so no operation casts them.
        columns = consts[tasks.start].tolist() if len(block) == 1 else consts[tasks].T[..., None]
        half_span, zeta_r, stretch = (c.real for c in columns[:3])
        pole, k_plus_z, i_k_minus0, k_b_z = columns[3:]
        u = half_span * x[nodes]
        z = zeta_r * np.sinh(u)
        dz = stretch * np.cosh(u) * w[nodes]
        qh = z - pole
        qhc = z + pole
        s = (k_plus_z - i_k_minus0 * z) / k_b_z
        # G[n] holds order n of every task: the doubling then reads and
        # writes disjoint row ranges, which numpy multiplies without a copy.
        size = width * len(block) * z.shape[-1]
        if work is None:  # the first block is the largest; the others reuse its G
            work = np.empty(size, dtype=complex)
        g = work[:size].reshape(width, len(block), -1)
        g[0] = dz / (qhc * s)
        power = (qh / qhc) * (s - 1.0) / s
        np.multiply(g[0], power, out=g[1])
        m = 2
        while m <= max_order:
            power *= power
            np.multiply(g[: min(m, width - m)], power, out=g[m : 2 * m])
            m *= 2
        if single is not None:
            out[tasks] += np.einsum("tj,ntj->tn", np.exp(1j * (single[tasks] * z)), g)
            continue
        tasks_g, tasks_z = g.swapaxes(0, 1), z.reshape(len(block), -1)
        for t, (k, g_t, z_t) in enumerate(zip(block, tasks_g, tasks_z), tasks.start):
            e = np.exp(1j * np.outer(k, z_t))
            # One kappa takes numpy's own loops: a BLAS product this small can
            # stall on idle BLAS threads when their count is left at its default.
            prod = np.einsum("kj,nj->kn", e, g_t) if k.size == 1 else e @ g_t.T
            out[starts[t] : starts[t + 1]] += prod
    return out


def _blocks(n_tasks: int, n_nodes: int, width: int):
    """(task slice, node slice) of each block of _coefficients, in order.

    The G of a block, tasks x nodes x width, holds at most _BLOCK_ELEMENTS
    values. A task whose nodes alone exceed that has them split into spans
    that depend only on n_nodes and width.
    """
    span = min(n_nodes, _BLOCK_ELEMENTS // width)
    per_block = _BLOCK_ELEMENTS // (span * width)
    for lo in range(0, n_tasks, per_block):
        for node in range(0, n_nodes, span):
            yield slice(lo, min(lo + per_block, n_tasks)), slice(node, min(node + span, n_nodes))


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
    |I_APG|^2. This is the one-task call of _mode_sums.
    """
    task = (waves, crystal.length, fp.zeta_r, arm, [fp.kappa])
    ((result,),) = _mode_sums([task], basis_order, quad_tol, tail_tol)
    if isinstance(result, Exception):
        raise result
    return result


def _mode_sums(
    tasks: list[tuple],
    basis_order: int,
    quad_tol: float,
    tail_tol: float = DEFAULT_TAIL_TOL,
) -> list[list[ParsevalSum | ModeSumError | QuadratureError | ValueError]]:
    """i_dfg_sq at every kappa of every task, in one pass.

    A task is (waves, crystal length, zeta_R, arm, kappas). Per task, the
    result lists each kappa's ParsevalSum in order, or the error i_dfg_sq
    raises at that kappa alone: a non-finite kappa or zeta_R fails its task
    only. Invalid options raise ValueError for the whole call. With the
    basis on the given arm, the sum is over |c_n|^2 for basis wavenumber k_b
    driven by the pump and the other arm's k_a. All lengths enter through
    (kappa, zeta_r) and the wavenumbers; the integral runs over the scaled
    coordinate z/L in [-1/2, 1/2].

    A task's kappas go to _coefficients at most basis_order + 1 at a time,
    so that their exponentials are no larger than their G. The tasks then
    converge in groups of as many as one block of the first rule holds,
    one group after the other (_converge), so that only one group's
    coefficient rows are held at a time.
    """
    if any(task[3] not in ("signal", "idler") for task in tasks):
        raise ValueError("arm must be 'signal' or 'idler'")
    if basis_order < 1:
        raise ValueError("basis_order must be >= 1")
    if basis_order > _MAX_ORDER:
        raise ValueError(f"basis_order must be <= {_MAX_ORDER}, got {basis_order}")
    if not (math.isfinite(quad_tol) and quad_tol > 0):
        raise ValueError(f"quad_tol must be finite and > 0, got {quad_tol!r}")
    width = basis_order + 1
    results: list[list] = []
    # Per task as _converge takes them: its kappas, where their results go
    # (result list, positions) with its mode-sum prefactor, and its row of
    # rule constants.
    kappas: list[np.ndarray] = []
    owners: list[tuple[list, list[int], float]] = []
    rows: list[tuple[complex, ...]] = []
    for waves, length, zeta_r, arm, task_kappas in tasks:
        out: list = [None] * len(task_kappas)
        results.append(out)
        if not (all(map(math.isfinite, task_kappas)) and math.isfinite(zeta_r)):
            out[:] = [ValueError("kappa and zeta_R must be finite")] * len(out)
            continue
        k_p = waves.pump.wavenumber
        k_s, k_i = waves.signal.wavenumber, waves.idler.wavenumber
        k_a, k_b = (k_s, k_i) if arm == "idler" else (k_i, k_s)
        prefactor = math.sqrt(k_p * k_a * zeta_r * length / (math.pi * k_b))
        rule = _constants(waves, zeta_r, arm)
        for lo in range(0, len(out), width):
            positions = list(range(lo, min(lo + width, len(out))))
            kappas.append(np.array([task_kappas[j] for j in positions], dtype=float))
            owners.append((out, positions, prefactor))
            rows.append(rule)
    consts = np.array(rows, dtype=complex)
    group = max(1, _BLOCK_ELEMENTS // (_PANEL_NODES * width))
    for lo in range(0, len(kappas), group):
        hi = lo + group
        _converge(consts[lo:hi], kappas[lo:hi], owners[lo:hi], basis_order, quad_tol, tail_tol)
    return results


def _converge(consts, kappas, owners, basis_order, quad_tol, tail_tol) -> None:
    """Settle every kappa of a group of _mode_sums' tasks into its owner's result list.

    The panel count of every task doubles from 1 until the rules of P and
    2P panels agree to quad_tol (max norm over the orders, relative to the
    largest coefficient). Each kappa keeps the 2P rule of the first pair
    that agrees for it, so it gets the same rule in a batch as alone, and
    the same result to rounding.
    """
    panels, prev = 1, None
    while kappas:
        cur = _coefficients(consts, kappas, basis_order, panels)
        if prev is not None:
            scale = np.max(np.abs(cur), axis=1)
            diff = np.max(np.abs(cur - prev), axis=1)
            done = diff <= quad_tol * scale
            rows = zip(cur, (diff / scale).tolist(), done.tolist())
            live = []
            for t, ((out, positions, prefactor), task_kappas) in enumerate(zip(owners, kappas)):
                left = []
                for i, (j, kappa, (coeffs, err, ok)) in enumerate(
                    zip(positions, task_kappas.tolist(), rows)
                ):
                    if ok:
                        terms = np.abs(prefactor * coeffs) ** 2
                        total = float(np.sum(terms))
                        try:
                            tail = _tail_estimate(terms, total, quad_tol, tail_tol)
                        except ModeSumError as exc:
                            out[j] = exc
                        else:
                            out[j] = ParsevalSum(
                                tuple(terms.tolist()), total, tail, _PANEL_NODES * panels, err
                            )
                    elif panels == _MAX_PANELS:
                        out[j] = QuadratureError(
                            f"mode-sum quadrature not converged at kappa={kappa:.6g}, "
                            f"zeta_R={consts[t, 1].real:.6g}: the rules of "
                            f"{_PANEL_NODES * panels // 2} and {_PANEL_NODES * panels} nodes "
                            f"differ by {err:.2e} > quad_tol {quad_tol:.0e}"
                        )
                    else:
                        left.append(i)
                if left:  # the task's unsettled kappas go on to the next rule
                    kappas[t] = task_kappas[left]
                    owners[t] = out, [positions[i] for i in left], prefactor
                    live.append(t)
            kappas = [kappas[t] for t in live]
            owners = [owners[t] for t in live]
            consts, cur = consts[live], cur[~done]
        prev, panels = cur, 2 * panels
