"""Singles totals: the difference-frequency overlap summed over every collection mode.

The singles rate needs the total |I_DFG|^2 that a pump and signal beam
generate, summed over the radial Laguerre-Gauss basis of the other arm. With
z in units of the crystal length, the coefficient of order n is
c_n = Int exp(i kappa z) base(z) r(z)^n dz over [-1/2, 1/2], where

    base = 1 / ((z + i zeta_R) s),  r = ((z - i zeta_R) / (z + i zeta_R)) (s - 1) / s,
    s = alpha - i beta z,  alpha = k_plus / 2 k_b,  beta = k_minus0 / (2 k_b zeta_R),

k_b is the basis wavenumber, k_a the other arm's, k_plus = k_p + k_a + k_b
and k_minus0 = k_p - k_a - k_b. Since |r| < 1 (Re s = alpha > 1/2), the
sum over all orders is a geometric series under a double integral:

    Sum_n |c_n|^2 = Int Int exp(i kappa (z - z')) K(z, z') dz dz',
    K(z, z') = base(z) conj(base(z')) / (1 - r(z) conj(r(z'))),

so the total, (k_p k_a zeta_R L / pi k_b) times the double integral, has no
basis order and no tail. docs/normalization.md section 8 derives it, and
validation.dfg_total_closed computes it with the inner integral in closed
form. Mode 0 is the collection mode, so |c_0|^2 is |I_SFG|^2.

The double integral runs on a composite Gauss-Legendre rule in
u = asinh(z / zeta_R), which crowds the nodes near a tight focus; the panel
count doubles from 1 until the totals of two rules agree to quad_tol, and
past _MAX_PANELS a kappa raises QuadratureError naming kappa and zeta_R.
The rule is symmetric about z = 0, where base(-z) = -conj(base(z)) and
r(-z) = conj(r(z)). With e = w exp(i kappa z) base on the nodes z > 0 alone
(weights w folded in), the total is therefore

    2 Re [e^T A conj(e) - e^T B e],  A = 1 / (1 - r r'*),  B = 1 / (1 - r r'),

half the kernel of the whole rule. kappa enters only through e, so the
kappas of a geometry share their kernel. _mode_sums takes every total of a
sweep in one pass over tasks, each one (waves, crystal length, zeta_R, arm)
with its kappas; one cap, _BLOCK_ELEMENTS, bounds a block's kernel rows.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .quadrature import QuadratureError

__all__: list[str] = []

# Composite Gauss-Legendre rule: nodes per panel and the panel-count cap. The
# kernel total settles on far fewer nodes than high-order coefficients do: at
# zeta_R = 0.18, kappa = -3 the rules of 32 and 64 nodes agree to 1.2e-11.
# zeta_R = 0.002 settles on 1024 nodes at |kappa| <= 12, and kappa = -2117
# (an R_k sweep) at zeta_R = 0.18 on 4096, the cap.
_PANEL_NODES = 32
_MAX_PANELS = 128
_RULES: dict[int, tuple[np.ndarray, np.ndarray]] = {}
# Complex values in one block's kernel rows (tasks x rows x columns), 768 KiB.
_BLOCK_ELEMENTS = 3 * 2**14
# Kappas of one task per round: their exponentials on the largest rule fit a block.
_KAPPA_CHUNK = _BLOCK_ELEMENTS // (_PANEL_NODES * _MAX_PANELS)


@dataclass(frozen=True)
class ParsevalSum:
    """A total |I_DFG|^2 (dimensionless) and the rule it came from.

    quad_error is the relative difference of the total from that of the
    rule of half as many nodes; the total is within quad_error of the
    double integral, plus rounding of about 1e-14 relative.
    """

    total: float
    n_nodes: int
    quad_error: float


def _panel_rule(panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre nodes and weights on [-1, 1], cached per panel count.

    Each of the equal panels carries _PANEL_NODES nodes; panel counts are
    powers of two up to _MAX_PANELS. The panel rule is numpy's: scipy's
    Legendre roots would import scipy.linalg, 7 MB and 57 ms.
    """
    rule = _RULES.get(panels)
    if rule is None:
        t, w = np.polynomial.legendre.leggauss(_PANEL_NODES)
        left = -1.0 + 2.0 * np.arange(panels) / panels
        nodes = (left[:, None] + (t + 1.0) / panels).ravel()
        rule = _RULES[panels] = (nodes, np.tile(w / panels, panels))
    return rule


def _totals(consts: np.ndarray, kappas: list[np.ndarray], panels: int) -> np.ndarray:
    """Kernel totals of every kappa of every task on the rule of the given panel count.

    Row t of consts is task t's (asinh(1 / 2 zeta_R), zeta_R, alpha, beta)
    and kappas[t] its kappas. On the rule's m nodes z > 0 a task's kernel
    rows are 1 / (1 - r_j c_k) with c = (conj r, r), and each kappa's total
    is 2 Re sum_j e_j (kernel (conj e, -e))_j. The tasks of a block
    (_blocks) build their nodes, kernel rows and exponentials in the same
    array operations, and take one batched matrix product when they have
    equally many kappas; the row blocks of one task share its nodes. A
    task's rows split the same way in any call, so it gets the same total
    in a batch as alone. Returns the totals, each task's in turn.
    """
    x, w = _panel_rule(panels)
    m = x.size // 2
    x, w = x[m:], w[m:]
    sizes = [k.size for k in kappas]
    starts = [0, *itertools.accumulate(sizes)]
    out = np.zeros(starts[-1])
    work = current = None
    for tasks, rows in _blocks(len(kappas), m, 2 * m):
        if tasks != current:
            current = tasks
            half_span, zeta_r, alpha, beta = consts[tasks].T[..., None]
            u = half_span * x
            z = zeta_r * np.sinh(u)
            s = alpha - 1j * beta * z
            q = z + 1j * zeta_r
            base = zeta_r * half_span * np.cosh(u) * w / (q * s)
            r = (z - 1j * zeta_r) / q * (s - 1.0) / s
            columns = np.concatenate([r.conj(), r], axis=1)[:, None]
            steps = [(t, t + 1) for t in range(len(r))]
            if len(set(sizes[tasks])) == 1:
                steps = [(0, len(r))]
            parts = []
            for lo, hi in steps:
                e = np.exp(1j * np.stack(kappas[tasks][lo:hi])[..., None] * z[lo:hi, None])
                e *= base[lo:hi, None]
                parts.append((lo, hi, e, np.concatenate([e.conj(), -e], axis=2)))
        size = len(r) * (rows.stop - rows.start) * 2 * m
        if work is None:  # the first block is the largest; the others reuse its rows
            work = np.empty(size, dtype=complex)
        kernel = work[:size].reshape(len(r), -1, 2 * m)
        np.multiply(r[:, rows, None], columns, out=kernel)
        np.subtract(1.0, kernel, out=kernel)
        np.reciprocal(kernel, out=kernel)
        for lo, hi, e, v in parts:
            total = 2.0 * np.einsum("tkj,tkj->tk", e[..., rows] @ kernel[lo:hi], v).real
            out[starts[tasks.start + lo] : starts[tasks.start + hi]] += total.ravel()
    return out


def _blocks(n_tasks: int, n_rows: int, width: int):
    """(task slice, row slice) of each block of _totals, in order.

    The kernel rows of a block, tasks x rows x width, hold at most
    _BLOCK_ELEMENTS values. A task whose rows alone exceed that has them
    split into spans that depend only on n_rows and width.
    """
    span = min(n_rows, _BLOCK_ELEMENTS // width)
    per_block = _BLOCK_ELEMENTS // (span * width)
    for lo in range(0, n_tasks, per_block):
        for row in range(0, n_rows, span):
            yield slice(lo, min(lo + per_block, n_tasks)), slice(row, min(row + span, n_rows))


def _mode_sums(
    tasks: list[tuple], quad_tol: float
) -> list[list[ParsevalSum | QuadratureError | ValueError]]:
    """The total |I_DFG|^2 at every kappa of every task, in one pass.

    A task is (waves, crystal length, zeta_R, arm, kappas), with the basis
    on the given arm and that arm's collection mode as mode 0. An idler
    basis gives the total of the signal singles rate, and vice versa; with
    identical signal and idler modes either gives |I_APG|^2. Per task, the
    result lists each kappa's ParsevalSum in order, or the error at that
    kappa alone: a non-finite kappa or zeta_R fails its task only. Invalid
    options raise ValueError for the whole call. A task's kappas go to
    _totals at most _KAPPA_CHUNK at a time, and the tasks converge in groups
    of as many as one block of the first rule holds (_converge).
    """
    if any(task[3] not in ("signal", "idler") for task in tasks):
        raise ValueError("arm must be 'signal' or 'idler'")
    if not (math.isfinite(quad_tol) and quad_tol > 0):
        raise ValueError(f"quad_tol must be finite and > 0, got {quad_tol!r}")
    results: list[list] = []
    # Per task as _converge takes them: its kappas, where their results go
    # (result list, positions) with the total's prefactor, and its constants.
    kappas: list[np.ndarray] = []
    owners: list[tuple[list, list[int], float]] = []
    rows: list[tuple[float, ...]] = []
    for waves, length, zeta_r, arm, task_kappas in tasks:
        out: list = [None] * len(task_kappas)
        results.append(out)
        if not (all(map(math.isfinite, task_kappas)) and math.isfinite(zeta_r)):
            out[:] = [ValueError("kappa and zeta_R must be finite")] * len(out)
            continue
        k_p = waves.pump.wavenumber
        k_s, k_i = waves.signal.wavenumber, waves.idler.wavenumber
        k_a, k_b = (k_s, k_i) if arm == "idler" else (k_i, k_s)
        prefactor = k_p * k_a * zeta_r * length / (math.pi * k_b)
        alpha, beta = (k_p + k_a + k_b) / (2.0 * k_b), (k_p - k_a - k_b) / (2.0 * k_b * zeta_r)
        for lo in range(0, len(out), _KAPPA_CHUNK):
            positions = list(range(lo, min(lo + _KAPPA_CHUNK, len(out))))
            kappas.append(np.array([task_kappas[j] for j in positions], dtype=float))
            owners.append((out, positions, prefactor))
            rows.append((math.asinh(0.5 / zeta_r), zeta_r, alpha, beta))
    consts = np.array(rows, dtype=float).reshape(-1, 4)
    group = 2 * _BLOCK_ELEMENTS // _PANEL_NODES**2
    for lo in range(0, len(kappas), group):
        hi = lo + group
        _converge(consts[lo:hi], kappas[lo:hi], owners[lo:hi], quad_tol)
    return results


def _converge(consts, kappas, owners, quad_tol) -> None:
    """Settle every kappa of a group of _mode_sums' tasks into its owner's result list.

    The panel count of every task doubles from 1 until the totals of the
    rules of P and 2P panels agree to quad_tol, relative. Each kappa keeps
    the 2P rule of the first pair that agrees for it, so it gets the same
    rule in a batch as alone, and the same result to rounding.
    """
    panels, prev = 1, None
    while kappas:
        cur = _totals(consts, kappas, panels)
        if prev is not None:
            err = np.abs(cur - prev) / np.abs(cur)
            done = err <= quad_tol
            settled = zip(cur.tolist(), err.tolist(), done.tolist())
            live = []
            for t, ((out, positions, prefactor), task_kappas) in enumerate(zip(owners, kappas)):
                left = []
                for i, j, kappa, (total, diff, ok) in zip(
                    itertools.count(), positions, task_kappas.tolist(), settled
                ):
                    if ok:
                        out[j] = ParsevalSum(prefactor * total, _PANEL_NODES * panels, diff)
                    elif panels == _MAX_PANELS:
                        out[j] = QuadratureError(
                            f"mode-sum quadrature not converged at kappa={kappa:.6g}, "
                            f"zeta_R={consts[t, 1]:.6g}: the rules of "
                            f"{_PANEL_NODES * panels // 2} and {_PANEL_NODES * panels} nodes "
                            f"differ by {diff:.2e} > quad_tol {quad_tol:.0e}"
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
