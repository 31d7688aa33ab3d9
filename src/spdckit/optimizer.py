"""Focusing optimization and parameter sweeps.

The focusing merit function is zeta_R |Upsilon(kappa, zeta_R, R_k)|^2, the
quantity proportional to conversion efficiency once wavelengths and material
are fixed. It is smooth but multimodal in kappa (phase-mismatch lobes), so
the optimizer is a multistart Nelder-Mead: one deterministic start near the
known R_k = 0 optimum plus seeded random restarts, each restart warmed by a
coarse presample so it lands in the global basin before refining. The
simplex is written here on plain floats and takes exactly the steps of
scipy.optimize.minimize(method="Nelder-Mead") with adaptive=False: the same
coefficients, initial simplex, stable sort, xatol/fatol test and maxfev
rule, so every merit evaluation is the one scipy would make.

The sweep engine re-evaluates a full source pipeline while one or two
parameters vary, following the paper's split of every rate into a geometry
part and a filter/power part. The geometry axes (kappa, zeta_R, z_R, R_k)
fix the waves, crystal and focus parameters; each distinct geometry of the
grid is set up once, and its overlaps and efficiencies Q are computed once,
through quantum._overlaps, which decides which geometries share a mode sum.
Each point then applies only its filter widths and pump power and adds its
linewidths and rates. A grid of rate axes alone is the case of one geometry.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import filters, quantum
from .overlap import _upsilon_core
from .quantities import CrystalSpec, OpticalWave, WaveTriple, derive_focus_params

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
# Restarts per optimize_focus call. Each costs 1-2 ms and keeps its merit
# evaluations in the trace, so an unbounded count runs without end.
_MAX_RESTARTS = 1000

AXIS_NAMES = ("kappa", "zeta_R", "R_k", "z_R", "Gamma_s", "Gamma_i", "P_p")
# Axes that move the spatial geometry; the others set filters or pump power.
_GEOMETRY_AXES = ("kappa", "zeta_R", "R_k", "z_R")


# Nelder-Mead reflection, expansion, contraction and shrink coefficients and
# the initial simplex steps, as scipy sets them with adaptive=False.
_RHO, _CHI, _PSI, _SIGMA = 1, 2, 0.5, 0.5
_NONZDELT, _ZDELT = 0.05, 0.00025


def focusing_objective(kappa: float, zeta_r: float, r_k: float) -> float:
    """Merit zeta_R |Upsilon|^2 to be maximized over (kappa, zeta_R)."""
    if not zeta_r > 0:
        raise ValueError("zeta_r must be positive")
    if not abs(r_k) < 1:
        raise ValueError("|r_k| must be < 1")
    if not (math.isfinite(kappa) and math.isfinite(zeta_r)):
        raise ValueError("kappa and zeta_r must be finite")
    return _objective(kappa, zeta_r, r_k)


def _objective(kappa: float, zeta_r: float, r_k: float) -> float:
    # focusing_objective without its checks, for points that optimize_focus
    # has confined to a box it checked once.
    return zeta_r * abs(_upsilon_core(kappa, zeta_r, r_k)[0]) ** 2


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
    # These checks cover every merit evaluation: a clipped point lies in the
    # box, so its kappa is finite and its zeta_R at least 0.01.
    if not abs(r_k) < 1.0:
        raise ValueError("r_k must satisfy |r_k| < 1")
    k_lo, k_hi = map(float, kappa_bounds)
    z_lo, z_hi = map(float, zeta_bounds)
    for name, lo, hi in (("kappa_bounds", k_lo, k_hi), ("zeta_bounds", z_lo, z_hi)):
        # A finite difference also rules out a span the presample cannot draw.
        if not math.isfinite(hi - lo):
            raise ValueError(f"{name} must be finite, got ({lo!r}, {hi!r})")
    if k_lo > k_hi or z_lo > z_hi:
        raise ValueError("bounds must be ordered (low, high)")
    if z_lo < 0.01:
        raise ValueError("zeta_R lower bound must be >= 0.01")
    if not (math.isfinite(rel_tol) and rel_tol > 0):
        raise ValueError(f"rel_tol must be finite and positive, got {rel_tol!r}")
    if not 0 <= restarts <= _MAX_RESTARTS:
        raise ValueError(f"restarts must be from 0 to {_MAX_RESTARTS}, got {restarts!r}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed!r}")

    trace: list[tuple[float, float, float]] = []

    def merit(kappa: float, zeta_r: float) -> float:
        value = _objective(kappa, zeta_r, r_k)
        trace.append((kappa, zeta_r, value))
        return value

    # Single-point box: nothing to search.
    if k_lo == k_hi and z_lo == z_hi:
        value = merit(k_lo, z_lo)
        return OptimizationResult(k_lo, z_lo, value, True, tuple(trace))

    k_span = max(k_hi - k_lo, 1e-9)
    z_span = max(z_hi - z_lo, 1e-9)

    def neg_merit(kappa: float, zeta_r: float) -> float:
        # Out-of-box points are evaluated at the clipped coordinates with a
        # linear pull-back so the simplex cannot wander outside.
        kc = min(max(kappa, k_lo), k_hi)
        zc = min(max(zeta_r, z_lo), z_hi)
        if kc == kappa and zc == zeta_r:
            dist = 0.0  # what np.hypot(0.0, 0.0) gives
        else:
            dist = float(np.hypot((kappa - kc) / k_span, (zeta_r - zc) / z_span))
        return -merit(kc, zc) + dist

    rng = np.random.default_rng(seed)
    starts = [(min(max(-3.0, k_lo), k_hi), min(max(0.18, z_lo), z_hi))]
    for _ in range(restarts):
        cand_k = rng.uniform(k_lo, k_hi, _PRESAMPLES).tolist()
        cand_z = rng.uniform(z_lo, z_hi, _PRESAMPLES).tolist()
        values = [merit(ck, cz) for ck, cz in zip(cand_k, cand_z)]
        j = int(np.argmax(values))
        starts.append((cand_k[j], cand_z[j]))

    finals: list[float] = []
    clean = True
    for x0 in starts:
        low, ok = _nelder_mead(neg_merit, x0, xatol=1e-7, fatol=rel_tol * 1e-3, maxfev=2000)
        finals.append(-low)
        clean = clean and ok

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


class _OutOfEvaluations(Exception):
    """The evaluation budget is spent (scipy's _MaxFuncCallError)."""


def _nelder_mead(func, x0, *, xatol: float, fatol: float, maxfev: int) -> tuple[float, bool]:
    """Minimize func(x, y) from x0 = (x, y) with scipy's 2-D Nelder-Mead steps.

    Returns the lowest value in the final simplex and whether the search
    stopped on the xatol/fatol test rather than at maxfev evaluations.
    Each step is scipy's arithmetic on floats instead of length-2 arrays,
    so the evaluations and their order are the same bit for bit.
    """
    calls = 0

    def f(x: float, y: float) -> float:
        nonlocal calls
        if calls >= maxfev:
            raise _OutOfEvaluations
        calls += 1
        return func(x, y)

    def step(coef: float, c: float, w: float) -> float:
        # A point on the line through the centroid c and the worst vertex w.
        return (1 + coef) * c - coef * w

    x, y = x0
    sim = [
        (x, y),
        ((1 + _NONZDELT) * x if x != 0 else _ZDELT, y),
        (x, (1 + _NONZDELT) * y if y != 0 else _ZDELT),
    ]
    fs = [math.inf] * 3
    try:
        for k in range(3):
            fs[k] = f(*sim[k])
    except _OutOfEvaluations:
        pass

    while True:
        # A stable sort, as numpy's argsort is on three values.
        order = sorted(range(3), key=fs.__getitem__)
        sim = [sim[k] for k in order]
        fs = [fs[k] for k in order]
        if calls >= maxfev:
            break
        (bx, by), (mx, my), (wx, wy) = sim
        if (
            abs(mx - bx) <= xatol
            and abs(my - by) <= xatol
            and abs(wx - bx) <= xatol
            and abs(wy - by) <= xatol
            and abs(fs[0] - fs[1]) <= fatol
            and abs(fs[0] - fs[2]) <= fatol
        ):
            break
        cx, cy = (bx + mx) / 2, (by + my) / 2
        try:
            xr = (step(_RHO, cx, wx), step(_RHO, cy, wy))
            fxr = f(*xr)
            if fxr < fs[0]:
                xe = (step(_RHO * _CHI, cx, wx), step(_RHO * _CHI, cy, wy))
                fxe = f(*xe)
                sim[2], fs[2] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fs[1]:
                sim[2], fs[2] = xr, fxr
            else:
                if fxr < fs[2]:
                    # Outside contraction.
                    xc = (step(_PSI * _RHO, cx, wx), step(_PSI * _RHO, cy, wy))
                    fxc = f(*xc)
                    shrink = not fxc <= fxr
                else:
                    # Inside contraction.
                    xc = ((1 - _PSI) * cx + _PSI * wx, (1 - _PSI) * cy + _PSI * wy)
                    fxc = f(*xc)
                    shrink = not fxc < fs[2]
                if not shrink:
                    sim[2], fs[2] = xc, fxc
                else:
                    for j in (1, 2):
                        sx, sy = sim[j]
                        sim[j] = (bx + _SIGMA * (sx - bx), by + _SIGMA * (sy - by))
                        fs[j] = f(*sim[j])
        except _OutOfEvaluations:
            pass
    return fs[0], calls < maxfev


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


def _geometry_step(
    waves: WaveTriple, crystal: CrystalSpec, z_r: float, name: str, value: float
) -> tuple[WaveTriple, CrystalSpec, float]:
    """The waves, crystal and z_R after one geometry axis takes its value."""
    if name == "z_R":
        return waves, crystal, value
    if name == "zeta_R":
        return waves, crystal, value * crystal.length
    if name == "kappa":
        # kappa = (k_minus0 - Q) L, so retune the poling wavenumber.
        q = waves.k_minus0 - value / crystal.length
        if q < 0:
            raise ValueError(
                f"kappa={value} unreachable here: poling wavenumber would be negative"
            )
        period = None if q == 0.0 else 2.0 * np.pi / q
        return waves, dataclasses.replace(crystal, poling_period=period), z_r
    # R_k retunes the pump index at fixed wavelengths.
    if not abs(value) < 1.0:
        raise ValueError("R_k must satisfy |R_k| < 1")
    k_p_new = (waves.signal.wavenumber + waves.idler.wavenumber) * (
        1.0 + value
    ) / (1.0 - value)
    lam_p = waves.pump.vacuum_wavelength
    n_p_new = k_p_new * lam_p / (2.0 * np.pi)
    if n_p_new < 1.0:
        raise ValueError(f"R_k={value} needs a pump index below 1")
    pump = OpticalWave(lam_p, n_p_new)
    return dataclasses.replace(waves, pump=pump), crystal, z_r


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
    of aborting the grid. Rows come back in grid order, each equal to what
    evaluate_source gives at its point, with the axes applied in axis order.
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

    points = [dict(zip(names, combo)) for combo in itertools.product(*(ax.values for ax in axes))]
    geometry_names = [name for name in names if name in _GEOMETRY_AXES]
    keys = [tuple(coords[name] for name in geometry_names) for coords in points]

    # Each distinct geometry is set up once, and its overlaps and
    # efficiencies computed once: they do not depend on filters or power.
    # A failed set-up keeps the axis whose step raised, so each point raises
    # it in axis order among its rate steps, or None for an error of
    # derive_focus_params, which comes after every axis is applied.
    setups: dict[tuple, tuple[str | None, object]] = {}
    for key in dict.fromkeys(keys):
        w, c, zr = waves, crystal, z_r
        try:
            for failed_axis, value in zip(geometry_names, key):
                w, c, zr = _geometry_step(w, c, zr, failed_axis, value)
            failed_axis = None
            setups[key] = None, (w, c, derive_focus_params(w, c, zr))
        except Exception as exc:
            setups[key] = failed_axis, exc
    ready = {key: setup for key, (_, setup) in setups.items() if not isinstance(setup, Exception)}
    rates = dict(zip(ready, quantum._overlaps(list(ready.values()), basis_order, quad_tol)))
    for key, bundle in rates.items():
        if not isinstance(bundle, Exception):
            w, c, _ = ready[key]
            try:
                rates[key] = w, bundle, quantum._efficiencies(w, c, bundle)
            except Exception as exc:
                rates[key] = exc

    def run_point(coords: dict[str, float], key: tuple) -> SweepRow:
        """evaluate_source at one point, its steps in the same order."""
        failed_axis, setup = setups[key]
        flt = {"Gamma_s": filter_s, "Gamma_i": filter_i}
        power = pump_power
        try:
            for name, value in coords.items():
                if name == "P_p":
                    power = value
                elif name in flt:
                    if isinstance(flt[name], filters.TabulatedFilter):
                        raise ValueError(f"{name} sweep needs a Lorentzian or absent filter")
                    flt[name] = filters.LorentzianFilter(gamma=value)
                elif name == failed_axis:
                    return failed(coords, setup)
            if isinstance(setup, Exception):
                return failed(coords, setup)
            fs, fi = flt["Gamma_s"], flt["Gamma_i"]
            gamma_eff = quantum._pair_linewidth(fs, fi, power)
            # Errors shared by a geometry's points are reported, not raised again.
            if isinstance(rates[key], Exception):
                return failed(coords, rates[key])
            w, bundle, eff = rates[key]
            return SweepRow(coords, quantum._report(w, eff, bundle, fs, fi, power, gamma_eff))
        except Exception as exc:
            return failed(coords, exc)

    def failed(coords: dict[str, float], exc: Exception) -> SweepRow:
        return SweepRow(coords=coords, report=None, error=f"{type(exc).__name__}: {exc}")

    return [run_point(coords, key) for coords, key in zip(points, keys)]
