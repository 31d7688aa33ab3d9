"""Focusing optimization and parameter sweeps.

The focusing merit function is zeta_R |Upsilon(kappa, zeta_R, R_k)|^2, the
quantity proportional to conversion efficiency once wavelengths and material
are fixed. It is smooth but multimodal in kappa (phase-mismatch lobes), so
the optimizer is a multistart Nelder-Mead: one deterministic start near the
known R_k = 0 optimum plus seeded random restarts, each restart warmed by a
coarse presample so it lands in the global basin before refining.

The sweep engine re-evaluates a full source pipeline while one or two
parameters vary. When only filter widths or pump power vary, the spatial
overlaps and the efficiencies Q that follow from them are computed once and
shared across all points, which then only add their linewidths and rates.
Otherwise the points that share waves, crystal length and zeta_R (a kappa
axis, or each zeta_R row of a kappa x zeta_R grid) take their mode sums
from one matrix product per arm, in groups of at most 64 points.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass

import numpy as np
from scipy import optimize as _sp_optimize

from . import filters, quantum
from .overlap import upsilon
from .quantities import CrystalSpec, FocusParams, OpticalWave, WaveTriple, derive_focus_params

__all__ = [
    "OptimizationResult",
    "SweepAxis",
    "SweepRow",
    "focusing_objective",
    "optimize_focus",
    "sweep",
]

# Presamples per restart; sized so a seeded restart starts inside the global
# basin rather than a secondary phase-mismatch lobe.
_PRESAMPLES = 64
_MAX_SWEEP_POINTS = 1_000_000
# Geometry points per mode-sum call: the rule's exp(i kappa z) block is
# 64 x 2048 complex values at most (2 MB), whatever the length of the axis.
_GROUP_POINTS = 64

AXIS_NAMES = ("kappa", "zeta_R", "R_k", "z_R", "Gamma_s", "Gamma_i", "P_p")
# Axes that leave the spatial geometry untouched, so overlaps can be reused.
_RATE_ONLY_AXES = frozenset({"Gamma_s", "Gamma_i", "P_p"})


def focusing_objective(kappa: float, zeta_r: float, r_k: float) -> float:
    """Merit zeta_R |Upsilon|^2 to be maximized over (kappa, zeta_R)."""
    fp = FocusParams(kappa=kappa, zeta_r=zeta_r, r_k=r_k)
    return zeta_r * upsilon(fp).abs_sq


@dataclass(frozen=True)
class OptimizationResult:
    best_kappa: float
    best_zeta_r: float
    best_objective: float
    converged: bool
    # (kappa, zeta_r, objective) for every merit evaluation, in order.
    trace: tuple[tuple[float, float, float], ...]

    def __post_init__(self) -> None:
        if self.trace:
            peak = max(t[2] for t in self.trace)
            if self.best_objective < peak:
                raise ValueError("best_objective below a traced evaluation")

    @property
    def evaluations(self) -> int:
        return len(self.trace)


def optimize_focus(
    r_k: float,
    kappa_bounds: tuple[float, float] = (-20.0, 5.0),
    zeta_bounds: tuple[float, float] = (0.02, 5.0),
    rel_tol: float = 1e-6,
    restarts: int = 5,
    seed: int = 7,
) -> OptimizationResult:
    """Maximize the focusing merit over the given (kappa, zeta_R) box.

    Returns the best point found even when the restarts disagree; converged
    is True only when every start refines to the same objective within
    2 * rel_tol and the simplex terminations were clean.
    """
    if not abs(r_k) < 1.0:
        raise ValueError("r_k must satisfy |r_k| < 1")
    k_lo, k_hi = map(float, kappa_bounds)
    z_lo, z_hi = map(float, zeta_bounds)
    if k_lo > k_hi or z_lo > z_hi:
        raise ValueError("bounds must be ordered (low, high)")
    if z_lo < 0.01:
        raise ValueError("zeta_R lower bound must be >= 0.01")
    if rel_tol <= 0:
        raise ValueError("rel_tol must be positive")
    if restarts < 0:
        raise ValueError("restarts must be >= 0")

    trace: list[tuple[float, float, float]] = []

    def merit(kappa: float, zeta_r: float) -> float:
        value = focusing_objective(kappa, zeta_r, r_k)
        trace.append((float(kappa), float(zeta_r), float(value)))
        return value

    # Single-point box: nothing to search.
    if k_lo == k_hi and z_lo == z_hi:
        value = merit(k_lo, z_lo)
        return OptimizationResult(k_lo, z_lo, value, True, tuple(trace))

    k_span = max(k_hi - k_lo, 1e-9)
    z_span = max(z_hi - z_lo, 1e-9)

    def neg_merit(x: np.ndarray) -> float:
        # Out-of-box points are evaluated at the clipped coordinates with a
        # linear pull-back so the simplex cannot wander outside.
        kc = min(max(x[0], k_lo), k_hi)
        zc = min(max(x[1], z_lo), z_hi)
        dist = np.hypot((x[0] - kc) / k_span, (x[1] - zc) / z_span)
        return -merit(kc, zc) + dist

    rng = np.random.default_rng(seed)
    starts = [(min(max(-3.0, k_lo), k_hi), min(max(0.18, z_lo), z_hi))]
    for _ in range(restarts):
        cand_k = rng.uniform(k_lo, k_hi, _PRESAMPLES)
        cand_z = rng.uniform(z_lo, z_hi, _PRESAMPLES)
        values = [merit(ck, cz) for ck, cz in zip(cand_k, cand_z)]
        j = int(np.argmax(values))
        starts.append((cand_k[j], cand_z[j]))

    finals: list[float] = []
    clean = True
    for x0 in starts:
        res = _sp_optimize.minimize(
            neg_merit,
            np.asarray(x0, dtype=float),
            method="Nelder-Mead",
            options={"xatol": 1e-7, "fatol": rel_tol * 1e-3, "maxfev": 2000},
        )
        finals.append(-float(res.fun))
        clean = clean and bool(res.success)

    best_k, best_z, best_f = max(trace, key=lambda t: t[2])
    spread = max(finals) - min(finals)
    converged = clean and spread <= 2.0 * rel_tol * max(abs(best_f), 1e-30)
    return OptimizationResult(
        best_kappa=best_k,
        best_zeta_r=best_z,
        best_objective=best_f,
        converged=converged,
        trace=tuple(trace),
    )


@dataclass(frozen=True)
class SweepAxis:
    """One swept parameter: a name from AXIS_NAMES and its value grid."""

    name: str
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.name not in AXIS_NAMES:
            raise ValueError(
                f"unknown sweep axis {self.name!r}; choose from {', '.join(AXIS_NAMES)}"
            )
        if not self.values:
            raise ValueError("sweep axis needs at least one value")
        bad = [float(v) for v in self.values if not np.isfinite(v)]
        if bad:
            raise ValueError(f"sweep axis {self.name} needs finite values, got {bad[0]!r}")

    @classmethod
    def parse(cls, text: str) -> "SweepAxis":
        """Parse 'name=start:stop:count', e.g. 'kappa=-10:2:200'."""
        head, sep, tail = text.partition("=")
        if not sep:
            raise ValueError(f"sweep axis {text!r} must look like name=start:stop:count")
        parts = tail.split(":")
        if len(parts) != 3:
            raise ValueError(f"sweep range {tail!r} must look like start:stop:count")
        try:
            start, stop = float(parts[0]), float(parts[1])
            count = int(parts[2])
        except ValueError as exc:
            raise ValueError(f"bad sweep range {tail!r}: {exc}") from None
        if not (np.isfinite(start) and np.isfinite(stop)):
            raise ValueError(f"sweep range {tail!r} needs a finite start and stop")
        # Checked before linspace, which would try to allocate any count.
        if not 1 <= count <= _MAX_SWEEP_POINTS:
            raise ValueError(
                f"sweep range {tail!r} needs a count from 1 to {_MAX_SWEEP_POINTS}"
            )
        return cls(head.strip(), tuple(np.linspace(start, stop, count)))


@dataclass(frozen=True)
class SweepRow:
    """One sweep grid point. Exactly one of report/error is set."""

    coords: dict[str, float]
    report: quantum.SourceReport | None
    error: str | None = None


def _apply_point(
    waves: WaveTriple,
    crystal: CrystalSpec,
    z_r: float,
    filter_s: filters.FilterSpec,
    filter_i: filters.FilterSpec,
    pump_power: float,
    coords: dict[str, float],
) -> tuple[WaveTriple, CrystalSpec, float, filters.FilterSpec, filters.FilterSpec, float]:
    for name, value in coords.items():
        if name == "P_p":
            pump_power = value
        elif name in ("Gamma_s", "Gamma_i"):
            base = filter_s if name == "Gamma_s" else filter_i
            if isinstance(base, filters.TabulatedFilter):
                raise ValueError(f"{name} sweep needs a Lorentzian or absent filter")
            new = filters.LorentzianFilter(gamma=value)
            if name == "Gamma_s":
                filter_s = new
            else:
                filter_i = new
        elif name == "z_R":
            z_r = value
        elif name == "zeta_R":
            z_r = value * crystal.length
        elif name == "kappa":
            # kappa = (k_minus0 - Q) L, so retune the poling wavenumber.
            q = waves.k_minus0 - value / crystal.length
            if q < 0:
                raise ValueError(
                    f"kappa={value} unreachable here: poling wavenumber would be negative"
                )
            period = None if q == 0.0 else 2.0 * np.pi / q
            crystal = dataclasses.replace(crystal, poling_period=period)
        elif name == "R_k":
            if not abs(value) < 1.0:
                raise ValueError("R_k must satisfy |R_k| < 1")
            k_p_new = (waves.signal.wavenumber + waves.idler.wavenumber) * (
                1.0 + value
            ) / (1.0 - value)
            lam_p = waves.pump.vacuum_wavelength
            n_p_new = k_p_new * lam_p / (2.0 * np.pi)
            if n_p_new < 1.0:
                raise ValueError(f"R_k={value} needs a pump index below 1")
            waves = WaveTriple(
                pump=OpticalWave(lam_p, n_p_new),
                signal=waves.signal,
                idler=waves.idler,
                degenerate=waves.degenerate,
            )
        else:
            raise ValueError(f"unknown sweep axis {name!r}")
    return waves, crystal, z_r, filter_s, filter_i, pump_power


def sweep(
    waves: WaveTriple,
    crystal: CrystalSpec,
    z_r: float,
    filter_s: filters.FilterSpec,
    filter_i: filters.FilterSpec,
    pump_power: float,
    axes: list[SweepAxis],
    *,
    quad_tol: float = 1e-9,
    basis_order: int = 40,
) -> list[SweepRow]:
    """Evaluate the source over a 1D or 2D grid, first axis outermost.

    A failing point is recorded as a SweepRow with an error string instead
    of aborting the grid. Rows come back in grid order.
    """
    if not 1 <= len(axes) <= 2:
        raise ValueError("sweep takes one or two axes")
    names = [ax.name for ax in axes]
    if len(set(names)) != len(names):
        raise ValueError("sweep axes must be distinct")
    total = 1
    for ax in axes:
        total *= len(ax.values)
    if total > _MAX_SWEEP_POINTS:
        raise ValueError(f"sweep grid of {total} points exceeds {_MAX_SWEEP_POINTS}")

    grids = [ax.values for ax in axes]
    points = [dict(zip(names, combo)) for combo in itertools.product(*grids)]

    # A rate-only grid cannot move waves, crystal or z_R: derive the focus
    # parameters, overlaps and efficiencies once and hand them to every point.
    # If the overlaps fail, every point reports that error after its own
    # power and filter checks, as evaluate_source would.
    shared_fp = shared = shared_eff = None
    if set(names) <= _RATE_ONLY_AXES:
        shared_fp = derive_focus_params(waves, crystal, z_r)
        try:
            shared = quantum.compute_overlaps(waves, crystal, shared_fp, basis_order, quad_tol)
            shared_eff = quantum._efficiencies(waves, crystal, shared)
        except Exception as exc:
            shared = exc

    def setup(coords: dict[str, float]):
        """evaluate_source's positional arguments at one point, or the error."""
        try:
            w, c, zr, fs, fi, power = _apply_point(
                waves, crystal, z_r, filter_s, filter_i, pump_power, coords
            )
            fp = shared_fp if shared_fp is not None else derive_focus_params(w, c, zr)
            return w, c, fp, fs, fi, power
        except Exception as exc:
            return exc

    prepared = [setup(coords) for coords in points]
    if shared is None:
        bundles = _grouped_overlaps(prepared, basis_order, quad_tol)
    else:
        bundles = [shared] * len(points)

    def run_point(coords: dict[str, float], point, bundle) -> SweepRow:
        """evaluate_source at one point, its steps in the same order."""
        try:
            if isinstance(point, Exception):
                raise point
            w, c, _, fs, fi, power = point
            gamma_eff = quantum._pair_linewidth(fs, fi, power)
            if isinstance(bundle, Exception):
                # The group's error object is shared, so it is reported,
                # not raised again.
                return failed(coords, bundle)
            eff = shared_eff if shared_eff is not None else quantum._efficiencies(w, c, bundle)
            report = quantum._report(w, eff, bundle, fs, fi, power, gamma_eff)
            return SweepRow(coords=coords, report=report)
        except Exception as exc:
            return failed(coords, exc)

    def failed(coords: dict[str, float], exc: Exception) -> SweepRow:
        return SweepRow(coords=coords, report=None, error=f"{type(exc).__name__}: {exc}")

    return [run_point(*args) for args in zip(points, prepared, bundles)]


def _grouped_overlaps(prepared: list, basis_order: int, quad_tol: float) -> list:
    """Overlap bundles of geometry points, one mode-sum call per arm and group.

    Points that share waves, crystal length and zeta_R form groups of at
    most _GROUP_POINTS. A point gets its OverlapBundle, the error
    compute_overlaps raises there, or None if its set-up failed.
    """
    groups: dict[tuple, list[int]] = {}
    for j, point in enumerate(prepared):
        if not isinstance(point, Exception):
            w, c, fp = point[:3]
            groups.setdefault((w, c.length, fp.zeta_r), []).append(j)
    bundles: list = [None] * len(prepared)
    for (w, _, _), members in groups.items():
        for lo in range(0, len(members), _GROUP_POINTS):
            block = members[lo : lo + _GROUP_POINTS]
            try:
                got = quantum._overlap_group(
                    w, [prepared[j][1:3] for j in block], basis_order, quad_tol
                )
            except Exception as exc:
                got = [exc] * len(block)  # an error every point raises alone
            for j, bundle in zip(block, got):
                bundles[j] = bundle
    return bundles
