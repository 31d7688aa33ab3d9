"""Focusing optimization and parameter sweeps.

The focusing merit function is zeta_R |Upsilon(kappa, zeta_R, R_k)|^2, the
quantity proportional to conversion efficiency once wavelengths and material
are fixed. It is smooth but multimodal in kappa (phase-mismatch lobes), so
optimize_focus refines several starts: one deterministic start near the
known R_k = 0 optimum plus seeded restarts, each the best of a coarse
presample, so that it starts in the global basin. Upsilon is the
difference of a near and a far pole term, and only the far one depends on
R_k: _presample draws a box's presample once per (box, restarts, seed)
and keeps it with its near-pole terms in a small cache, and each call adds
the far pole over the whole presample in one array pass
(overlap._pole_terms). Every presample value is _objective's, bit for bit,
so each restart's best point is the one a scalar loop would pick, and its
refine's first call repeats that value. Each start is refined by
Newton steps on the exact gradient and Hessian of the merit, which
overlap._upsilon_jet gives with the value from one E1 evaluation per pole.
Each step is damped by the quadratic hill-climbing shift (Goldfeld, Quandt
& Trotter 1966), taken from a closed-form eigen-split of the 2 x 2 Hessian;
a box edge is held while the gradient points out of the box, so an
optimum on an edge ends as a KKT point. A start stops once its quadratic
model bounds the merit's remaining rise by 1e-3 rel_tol of it, after one
more Newton step. The result carries that certificate: the gradient norm
and Hessian eigenvalues at the best point. A start stuck on a saddle ends
uncertified, as an indefinite Hessian never certifies.

The sweep hands quantum._evaluate, the runner of the rate pipeline, one
run per combination of the axes other than P_p: that combination's waves,
crystal, focus parameters and filters, each distinct combination set up
once, with every pump power (_grid). The runner computes each step once
per distinct input and maps each row of the grid to its run and power.
sweep builds its rows from the runs' columns, and the CLI writes its
output from the same runs a block at a time.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from . import filters, quantum
from .overlap import _pole_terms, _upsilon_core, _upsilon_jet
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
# Restarts per optimize_focus call. Each costs about 0.3 ms (64 presamples,
# with their near poles cached, and a refine of about 6 merit evaluations;
# about 0.5 ms on a cold cache) and keeps its evaluations in the trace, so
# an unbounded count runs without end.
_MAX_RESTARTS = 1000
# Presamples kept with their near-pole terms, one per (box, restarts, seed);
# one of _MAX_RESTARTS restarts holds 64000 points in about 1.5 MB.
_PRESAMPLE_CACHE = 8
_MIN_ZETA_R = 0.01  # lowest zeta_R an optimizer box may reach

AXIS_NAMES = ("kappa", "zeta_R", "R_k", "z_R", "Gamma_s", "Gamma_i", "P_p")
# Axes that move the spatial geometry; the others set filters or pump power.
_GEOMETRY_AXES = ("kappa", "zeta_R", "R_k", "z_R")


# Merit evaluations per refine, its first included. The refine ends sooner
# once certified; the cap ends one whose certificate rel_tol puts out of reach.
_REFINE_CALLS = 40
# Longest first step of a refine, in units of the box's spans.
_FIRST_RADIUS = 0.1
# A certified point's quadratic model rises by at most this times rel_tol of it.
_CERTIFY = 1e-3


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


def _merit_jet(kappa: float, zeta_r: float, r_k: float):
    """_objective, bit for bit, with its gradient and Hessian in (kappa, zeta_R).

    Returns (f, (f_k, f_z), (f_kk, f_kz, f_zz)) for f = zeta_R U^2.
    """
    u, (u_k, u_z, u_kk, u_kz, u_zz) = _upsilon_jet(kappa, zeta_r, r_k)
    a = 2.0 * zeta_r * u
    return (
        zeta_r * abs(u) ** 2,
        (a * u_k, u * u + a * u_z),
        (
            2.0 * zeta_r * u_k * u_k + a * u_kk,
            2.0 * u * u_k + 2.0 * zeta_r * u_z * u_k + a * u_kz,
            4.0 * u * u_z + 2.0 * zeta_r * u_z * u_z + a * u_zz,
        ),
    )


@dataclass(frozen=True)
class OptimizationResult:
    best_kappa: float
    best_zeta_r: float
    best_objective: float
    converged: bool
    # (kappa, zeta_r, objective) for every merit evaluation, in order.
    trace: tuple[tuple[float, float, float], ...]
    # The certificate at the best point, on its free coordinates: those not
    # held at a box edge by a gradient pointing out of the box. The norm of
    # the merit's gradient there and the Hessian's eigenvalues, ascending.
    gradient_norm: float = math.inf
    hessian_eigenvalues: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.trace:
            peak = max(t[2] for t in self.trace)
            if self.best_objective < peak:
                raise ValueError("best_objective below a traced evaluation")

    @property
    def evaluations(self) -> int:
        return len(self.trace)

    @property
    def gain_bound(self) -> float:
        """How far the merit's quadratic model rises above the best point.

        gradient_norm^2 / (2 min |eigenvalue|) when every eigenvalue is
        negative, 0 at a corner held by both edges, inf otherwise.
        """
        return _gain_bound(self.gradient_norm, self.hessian_eigenvalues)


def _gain_bound(gnorm: float, eigs: tuple[float, ...]) -> float:
    if not all(e < 0.0 for e in eigs):
        return math.inf
    if not eigs:
        return 0.0 if gnorm == 0.0 else math.inf
    return gnorm**2 / (2.0 * min(-e for e in eigs))


def _check_box(name: str, low: float, high: float, floor: float = -math.inf) -> None:
    """Raise a ValueError naming the box unless floor <= low <= high, all finite."""
    # A finite difference also rules out a span the presample cannot draw.
    if not math.isfinite(high - low):
        raise ValueError(f"{name} must be finite, got ({low!r}, {high!r})")
    if low > high:
        raise ValueError(f"{name} must be ordered (low, high), got ({low!r}, {high!r})")
    if low < floor:
        raise ValueError(f"{name} must have low >= {floor}, got ({low!r}, {high!r})")


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
    is True only when the best point is certified (gain_bound at most
    1e-3 * rel_tol of its merit: an interior maximum, or a KKT point on an
    edge) and every start refines to the same objective within 2 * rel_tol.
    """
    # These checks cover every merit evaluation: each lies in the box, so
    # its kappa is finite and its zeta_R at least 0.01.
    if not abs(r_k) < 1.0:
        raise ValueError("r_k must satisfy |r_k| < 1")
    k_lo, k_hi = map(float, kappa_bounds)
    z_lo, z_hi = map(float, zeta_bounds)
    _check_box("kappa_bounds", k_lo, k_hi)
    _check_box("zeta_bounds", z_lo, z_hi, _MIN_ZETA_R)
    if not (math.isfinite(rel_tol) and rel_tol > 0):
        raise ValueError(f"rel_tol must be finite and positive, got {rel_tol!r}")
    if not 0 <= restarts <= _MAX_RESTARTS:
        raise ValueError(f"restarts must be from 0 to {_MAX_RESTARTS}, got {restarts!r}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed!r}")

    # Single-point box: nothing to search, and no coordinate is free.
    if k_lo == k_hi and z_lo == z_hi:
        value = _objective(k_lo, z_lo, r_k)
        return OptimizationResult(k_lo, z_lo, value, True, ((k_lo, z_lo, value),), 0.0, ())

    # The presample's merit, each value _objective's bit for bit.
    cand_k, cand_z, u = _presample(
        k_lo, k_hi, z_lo, z_hi, operator.index(restarts), operator.index(seed)
    )
    if r_k != 0.0:
        # As in Python's float division, a far pole beyond 1e308 lies at inf.
        with np.errstate(over="ignore"):
            y = -cand_z / r_k
        u = (u - _pole_terms(cand_k, y)) / (1.0 + r_k)
    cand_k, cand_z = cand_k.tolist(), cand_z.tolist()
    values = [cz * abs(cu) ** 2 for cz, cu in zip(cand_z, (u / math.pi).tolist())]
    trace: list[tuple[float, float, float]] = list(zip(cand_k, cand_z, values))
    starts = [(min(max(-3.0, k_lo), k_hi), min(max(0.18, z_lo), z_hi))]
    for j in np.argmax(np.reshape(values, (-1, _PRESAMPLES)), axis=1) + np.arange(
        0, len(values), _PRESAMPLES
    ):
        starts.append((cand_k[j], cand_z[j]))

    refined: list[tuple] = []  # (f, x, gradient, Hessian) of each refine call

    def jet(x: tuple[float, float]):
        value, grad, hess = _merit_jet(*x, r_k)
        trace.append((*x, value))
        refined.append((value, x, grad, hess))
        return value, grad, hess

    box = (k_lo, z_lo), (k_hi, z_hi)
    ftol = _CERTIFY * rel_tol
    finals = [_refine(jet, x0, *box, ftol) for x0 in starts]

    # Each start's first call repeats its presample's best point, bit for
    # bit, so the best refine call is the best of the whole trace.
    best_f, (best_k, best_z), grad, hess = max(refined, key=lambda r: r[0])
    gnorm, eigs = _certificate(_free((best_k, best_z), grad, *box), grad, hess)
    spread = max(finals) - min(finals)
    converged = (
        _gain_bound(gnorm, eigs) <= ftol * abs(best_f)
        and spread <= 2.0 * rel_tol * max(abs(best_f), 1e-30)
    )
    return OptimizationResult(best_k, best_z, best_f, converged, tuple(trace), gnorm, eigs)


@functools.lru_cache(maxsize=_PRESAMPLE_CACHE)
def _presample(k_lo, k_hi, z_lo, z_hi, restarts: int, seed: int):
    """The seeded presample of a checked box and its near pole, read-only.

    Per restart, _PRESAMPLES kappa then _PRESAMPLES zeta_R from the seed's
    generator. Returns the kappa and zeta_R of every restart in order, and
    the near-pole term K(kappa, zeta_R) there, which does not depend on r_k.
    """
    rng = np.random.default_rng(seed)
    draws = np.empty((restarts, 2, _PRESAMPLES))
    for row in draws:
        row[0] = rng.uniform(k_lo, k_hi, _PRESAMPLES)
        row[1] = rng.uniform(z_lo, z_hi, _PRESAMPLES)
    cand_k, cand_z = draws.transpose(1, 0, 2).reshape(2, -1)
    near = _pole_terms(cand_k, cand_z)
    for a in (cand_k, cand_z, near):
        a.flags.writeable = False
    return cand_k, cand_z, near


def _free(x, grad, lo, hi) -> list[int]:
    """Coordinates of x that may move: not a degenerate span, nor held at an
    edge by a gradient pointing out of the box."""
    return [
        i
        for i in (0, 1)
        if lo[i] < hi[i]
        and not (x[i] <= lo[i] and grad[i] < 0.0)
        and not (x[i] >= hi[i] and grad[i] > 0.0)
    ]


def _certificate(free, grad, hess) -> tuple[float, tuple[float, ...]]:
    """Gradient norm and ascending Hessian eigenvalues on the free coordinates."""
    if len(free) == 2:
        return math.hypot(*grad), _eigen2(*hess)
    if free:
        return abs(grad[free[0]]), (hess[2 * free[0]],)
    return 0.0, ()


def _eigen2(a: float, b: float, c: float) -> tuple[float, float]:
    """Eigenvalues lo <= hi of [[a, b], [b, c]].

    The eigenvalue of larger size comes from the mean and radius, the other
    from the determinant, so neither loses digits to cancellation.
    """
    mean, rad = 0.5 * (a + c), math.hypot(0.5 * (a - c), b)
    if rad == 0.0:
        return mean, mean
    det = a * c - b * b
    if mean >= 0.0:
        hi = mean + rad
        return det / hi, hi
    lo = mean - rad
    return lo, det / lo


def _damped_step(g: list[float], b: list[list[float]], nu: float) -> list[float]:
    """p = -(B + mu I)^-1 g with mu = max(0, -lambda_min(B)) + nu, on one or two coordinates.

    The quadratic hill-climbing shift (Goldfeld, Quandt & Trotter 1966):
    B + mu I has every eigenvalue at least nu, so p descends the model
    g.p + p.B.p / 2 with |p| <= |g| / nu; a zero g takes no step. The 2 x 2
    solve divides the adjugate by (lam1 + mu)(lam2 + mu), which does not
    cancel; where that product underflows to 0, it takes no step.
    """
    if not any(g):
        return [0.0] * len(g)
    if len(g) == 1:
        return [-g[0] / (max(b[0][0], 0.0) + nu)]
    lam1, lam2 = _eigen2(b[0][0], b[0][1], b[1][1])
    mu = max(0.0, -lam1) + nu
    det = (max(lam1, 0.0) + nu) * (lam2 + mu)
    if det == 0.0:
        return [0.0, 0.0]
    a, c = b[0][0] + mu, b[1][1] + mu
    return [(b[0][1] * g[1] - c * g[0]) / det, (b[0][1] * g[0] - a * g[1]) / det]


def _refine(jet, x, lo, hi, ftol: float) -> float:
    """Damped Newton ascent of the merit from x inside the box.

    Works in coordinates scaled by the box's spans. Each step is
    _damped_step on the free coordinates; a step that points out of the
    box at an edge it sits on holds that coordinate, and a step that would
    leave the box stops where it meets the edge. The damping nu starts at
    |g| / _FIRST_RADIUS; it doubles after a step whose merit gains less
    than a quarter of its model's gain, and falls eightfold after one that
    gains more than three quarters. The search is certified once the gain
    bound of the current point is at most ftol of its merit; it then takes
    one more step, which squares the gap, and stops. Returns the best
    merit it reached.
    """
    span = (hi[0] - lo[0], hi[1] - lo[1])
    f, grad, hess = jet(x)
    nu = math.hypot(*(grad[i] * span[i] for i in _free(x, grad, lo, hi))) / _FIRST_RADIUS
    certified = False
    for _ in range(_REFINE_CALLS - 1):
        if certified:
            break
        free = _free(x, grad, lo, hi)
        certified = _gain_bound(*_certificate(free, grad, hess)) <= ftol * abs(f)
        while free:
            g = [-grad[i] * span[i] for i in free]
            b = [[-hess[i + j] * span[i] * span[j] for j in free] for i in free]
            p = _damped_step(g, b, nu)
            held = [
                i for i, pi in zip(free, p)
                if (pi < 0.0 and x[i] <= lo[i]) or (pi > 0.0 and x[i] >= hi[i])
            ]
            if not held:
                break
            free = [i for i in free if i not in held]
        if not free:
            break
        # The longest part of p that stays in the box.
        frac, edge = 1.0, None
        for i, pi in zip(free, p):
            if pi != 0.0:
                bound = hi[i] if pi > 0.0 else lo[i]
                room = (bound - x[i]) / span[i] / pi
                if room < frac:
                    frac, edge = room, (i, bound)
        trial = list(x)
        for i, pi in zip(free, p):
            trial[i] = min(max(x[i] + frac * pi * span[i], lo[i]), hi[i])
        if edge is not None:
            trial[edge[0]] = edge[1]
        trial = tuple(trial)
        gp = sum(gi * pi for gi, pi in zip(g, p))
        pbp = sum(p[i] * b[i][j] * p[j] for i in range(len(p)) for j in range(len(p)))
        gain = -frac * (gp + 0.5 * frac * pbp)
        if not gain > 0.0 or trial == x:
            break
        f_t, grad_t, hess_t = jet(trial)
        rho = (f_t - f) / gain
        if rho < 0.25:
            nu *= 2.0
        elif rho > 0.75:
            nu /= 8.0
        if rho > 0.0:
            x, f, grad, hess = trial, f_t, grad_t, hess_t
    return f


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


def _axis_names(axes: list[SweepAxis]) -> list[str]:
    """The names of a sweep's axes, checked: one or two, distinct, a grid within the cap."""
    if not 1 <= len(axes) <= 2:
        raise ValueError("sweep takes one or two axes")
    names = [ax.name for ax in axes]
    if len(set(names)) != len(names):
        raise ValueError("sweep axes must be distinct")
    total = math.prod(len(ax.values) for ax in axes)
    if total > _MAX_SWEEP_POINTS:
        raise ValueError(f"sweep grid of {total} points exceeds {_MAX_SWEEP_POINTS}")
    return names


def _grid(
    waves: WaveTriple,
    crystal: CrystalSpec,
    z_r: float,
    filter_s: filters.FilterSpec,
    filter_i: filters.FilterSpec,
    pump_power: float,
    axes: list[SweepAxis],
    quad_tol: float,
) -> quantum._Runs:
    """The runs of a sweep grid in grid order, each with its stage from quantum._evaluate."""
    names = _axis_names(axes)
    powers = axes[names.index("P_p")].values if "P_p" in names else (pump_power,)
    others = [name for name in names if name != "P_p"]
    geometry = [name for name in others if name in _GEOMETRY_AXES]
    widths = [name for name in others if name in ("Gamma_s", "Gamma_i")]
    # A run per combination of the other axes takes every power. Each distinct
    # combination sets up its waves, crystal, fp and filters once, axes in
    # axis order, so the first axis that raises gives the run's error.
    geometries, filter_pairs, setups, runs = {}, {}, {}, []
    for combo in itertools.product(*(ax.values for ax in axes if ax.name != "P_p")):
        coords = dict(zip(others, combo))
        key = g, f = tuple([coords[n] for n in geometry]), tuple([coords[n] for n in widths])
        if key not in setups:
            w, c, zr = waves, crystal, z_r
            flt = {"Gamma_s": filter_s, "Gamma_i": filter_i}
            try:
                for name, value in coords.items():
                    if name in flt:
                        if isinstance(flt[name], filters.TabulatedFilter):
                            raise ValueError(f"{name} sweep needs a Lorentzian or absent filter")
                        flt[name] = filters.LorentzianFilter(gamma=value)
                    else:
                        w, c, zr = _geometry_step(w, c, zr, name, value)
                geometries[g] = w, c, derive_focus_params(w, c, zr)
                filter_pairs[f] = flt["Gamma_s"], flt["Gamma_i"]
                setups[key] = key
            except Exception as exc:
                setups[key] = exc
        runs.append(setups[key])
    return quantum._evaluate(geometries, filter_pairs, runs, powers, quad_tol, names[0] == "P_p")


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
    of aborting the grid. Rows come back in grid order, each the report or
    error evaluate_source gives at its point with the axes applied in axis
    order. basis_order is accepted and ignored: the mode sums have no basis
    order (modebasis).
    """
    # The coords come first, as the set-ups and reports then live through
    # fewer collections of the young generations: fewer reach the oldest,
    # whose full collections (about 20 ms each) land in later sweeps.
    names = _axis_names(axes)
    grid = [dict(zip(names, combo)) for combo in itertools.product(*(ax.values for ax in axes))]
    runs = _grid(waves, crystal, z_r, filter_s, filter_i, pump_power, axes, quad_tol)
    results = runs.results(*runs.index(0, len(runs)))
    return [
        SweepRow(coords, None, f"{type(r).__name__}: {r}")
        if isinstance(r, Exception)
        else SweepRow(coords, r)
        for coords, r in zip(grid, results)
    ]
