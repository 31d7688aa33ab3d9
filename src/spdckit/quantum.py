"""Absolute pair rates, singles rates and heralding efficiency.

The emission rates of a narrow-band down-conversion source follow from the
classical conversion efficiencies of the reverse processes:

    pairs:   W2 = Gamma_eff (omega_i omega_s / 4 omega_p^2) P Q_conv,
    singles: W1_s = (omega_s / 4 omega_i) Gamma_eff_s P Q_arm(signal),

and the heralding efficiency eta_s = W2 / W1_s collapses to
(Gamma_eff / Gamma_eff_s) |I_SFG|^2 / |I_DFG|^2, which conditional_efficiency
computes directly so the two routes can be checked against each other.

The same formulas serve the two-field and the degenerate (single-field)
process. classical.q_conversion and classical.q_arm pick Q_SFG/Q_DFG or
Q_SHG/Q_APG for the triple; at omega_s = omega_i the frequency factors are
exactly 1/16 and 1/4. At equal overlap Q_SHG = Q_SFG / 4, so the degenerate
pair rate and heralding efficiency are a quarter of the two-field ones;
pair_rate says how its 1/16 counts the identical photons.

_evaluate is the one runner of the rate pipeline. It splits the work as
the paper splits the rates: the linewidths Gamma_eff depend on the filter
pair, the overlaps and efficiencies Q on the geometry, eta and each rate's
factor f of W = (f P) Q on both, and only the last products on the pump
power P. Its unit of work is a run, one set-up of geometry and filters
with the pump powers of the grid: it hands over each run's stage once,
and _Runs forms the products over any points as float64 arrays, checks
them as arrays, and builds reports from those columns. Each step runs
once per distinct input, and a point reports the first error of: its
set-up, pump power, linewidths, overlaps, efficiencies, eta and rates.
evaluate_source is a call with one run and one power, and optimizer
makes a run per combination of its other axes. _overlaps alone decides
which geometries share a mode-sum task (equal waves, crystal length and
zeta_R, one task per arm) and hands the tasks of all its geometries to
one modebasis._mode_sums pass, whose one block cap bounds its memory;
compute_overlaps is its one-geometry call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import classical, filters, modebasis, overlap
from .classical import _check_nonneg
from .quantities import C_LIGHT, EPS0, HBAR, CrystalSpec, FocusParams, WaveTriple

__all__ = [
    "CorrelationScale",
    "OverlapBundle",
    "SourceReport",
    "pair_rate",
    "singles_rate",
    "conditional_efficiency",
    "correlation_amplitude_sq",
    "compute_overlaps",
    "evaluate_source",
]


def _pair_factor(waves: WaveTriple, q_conversion: float, gamma_eff: float) -> tuple[float, float]:
    """(f, q) of W2 = (f P) q: all of pair_rate but the pump power."""
    if not (0.0 <= q_conversion < math.inf and 0.0 <= gamma_eff < math.inf):
        _check_nonneg(q_conversion=q_conversion, gamma_eff=gamma_eff)
    if waves.degenerate:
        return gamma_eff / 16.0, q_conversion
    w_s = waves.signal.angular_frequency
    w_i = waves.idler.angular_frequency
    w_p = waves.pump.angular_frequency
    return gamma_eff * (w_i * w_s / (4.0 * w_p**2)), q_conversion


def _singles_factor(waves: WaveTriple, q: float, gamma: float, arm: str) -> tuple[float, float]:
    """(f, q) of W1 = (f P) q: all of singles_rate but the pump power."""
    if not (0.0 <= q < math.inf and 0.0 <= gamma < math.inf):
        _check_nonneg(q_generation=q, gamma_eff_single=gamma)
    if arm not in ("signal", "idler"):
        raise ValueError("collected must be 'signal' or 'idler'")
    w_s = waves.signal.angular_frequency
    w_i = waves.idler.angular_frequency
    return (w_s / (4.0 * w_i) if arm == "signal" else w_i / (4.0 * w_s)) * gamma, q


def pair_rate(
    waves: WaveTriple, pump_power: float, q_conversion: float, gamma_eff: float
) -> float:
    """Two-photon coincidence rate W2 [1/s].

    q_conversion is classical.q_conversion of the triple (Q_SFG, or Q_SHG
    for a degenerate source); gamma_eff the joint collection linewidth
    [rad/s]. For a degenerate source the prefactor is
    omega_s omega_i / (4 omega_p^2) at omega_s = omega_i = omega_p / 2,
    written as an exact 1/16 because the float product of the frequencies
    is not always exactly 1/16. That /16 counts coincidences of the
    identical photons behind a 50:50 splitter; counting each pair once
    would give /8 (docs/normalization.md, section 5).
    """
    _check_nonneg(pump_power=pump_power)
    f, q = _pair_factor(waves, q_conversion, gamma_eff)
    return f * pump_power * q


def singles_rate(
    waves: WaveTriple,
    pump_power: float,
    q_generation: float,
    gamma_eff_single: float,
    collected: str = "signal",
) -> float:
    """Single-arm detection rate W1 [1/s] behind that arm's filter.

    q_generation is classical.q_arm for the collected arm: Q_DFG over the
    full basis of the partner arm, or Q_APG for a degenerate source (where
    the frequency ratio below is exactly 1/4).
    """
    _check_nonneg(pump_power=pump_power)
    f, q = _singles_factor(waves, q_generation, gamma_eff_single, collected)
    return f * pump_power * q


def conditional_efficiency(
    waves: WaveTriple,
    gamma_eff: float,
    gamma_eff_single: float,
    i_sfg_sq: float,
    i_dfg_sq: float,
) -> float:
    """Probability of collecting the partner photon given a detection.

    eta = (gamma_eff / gamma_eff_single) * |I_SFG|^2 / |I_DFG|^2, an
    independent route to pair_rate / singles_rate (the identity is pinned
    to 1e-12 in the tests). A degenerate source carries an extra 1/4: its
    pair-rate 1/16 over its singles-rate 1/4, since there Q_SHG / Q_APG is
    exactly |I_SFG|^2 / |I_DFG|^2.
    """
    if i_dfg_sq <= 0 or gamma_eff_single <= 0:
        raise ValueError("singles denominator must be positive")
    _check_nonneg(
        gamma_eff=gamma_eff, gamma_eff_single=gamma_eff_single, i_sfg_sq=i_sfg_sq, i_dfg_sq=i_dfg_sq
    )
    eta = (gamma_eff / gamma_eff_single) * (i_sfg_sq / i_dfg_sq)
    return 0.25 * eta if waves.degenerate else eta


@dataclass(frozen=True)
class CorrelationScale:
    """Scale factors tying the correlation amplitude to absolute rates.

    a_sq is the squared two-photon amplitude |A|^2; w2_prefactor turns
    |f(tau)|^2 [1/s^2] into the coincidence density W2(tau) [1/s^2] via
    W2(tau) = w2_prefactor * |f(tau)|^2, so that Int W2(tau) dtau equals
    the pair rate (Gamma_eff = 4 Int |f|^2 dtau).
    """

    a_sq: float
    w2_prefactor: float


def correlation_amplitude_sq(
    waves: WaveTriple, pump_power: float, q_conversion: float
) -> CorrelationScale:
    """Two-photon amplitude |A|^2 and the |f|^2 -> W2(tau) prefactor.

    q_conversion is classical.q_conversion of the triple, as in pair_rate.
    """
    _check_nonneg(pump_power=pump_power, q_conversion=q_conversion)
    w_s = waves.signal.angular_frequency
    w_i = waves.idler.angular_frequency
    w_p = waves.pump.angular_frequency
    n_s = waves.signal.refractive_index
    n_i = waves.idler.refractive_index
    a_sq = (
        HBAR**2
        * w_i**2
        * w_s**2
        / (4.0 * C_LIGHT**2 * EPS0**2 * n_s * n_i * w_p**2)
        * pump_power
        * q_conversion
    )
    w2_prefactor = (w_s * w_i / w_p**2) * pump_power * q_conversion
    return CorrelationScale(a_sq=a_sq, w2_prefactor=w2_prefactor)


@dataclass(frozen=True)
class OverlapBundle:
    """Geometry-dependent overlap magnitudes, cacheable across filter sweeps.

    Each arm's total is the mode sum on its partner's basis. For a
    degenerate source the two arms coincide: both hold |I_APG|^2.
    """

    i_sfg_sq: float
    i_dfg_sq_signal_arm: float  # idler-basis sum; controls signal singles
    i_dfg_sq_idler_arm: float  # signal-basis sum; controls idler singles


def compute_overlaps(
    waves: WaveTriple,
    crystal: CrystalSpec,
    fp: FocusParams,
    quad_tol: float = 1e-9,
) -> OverlapBundle:
    """Evaluate |I_SFG|^2 and both arms' mode-sum totals for one geometry.

    The signal arm's total is the sum over every mode of the idler basis
    and the idler arm's over the signal basis (modebasis). When the signal
    and idler waves are equal (always so for a degenerate triple) the two
    bases coincide and one mode sum serves both arms.
    """
    (result,) = _overlaps([(waves, crystal, fp)], quad_tol)
    if isinstance(result, Exception):
        raise result
    return result


def _overlaps(
    points: list[tuple[WaveTriple, CrystalSpec, FocusParams]],
    quad_tol: float,
) -> list[OverlapBundle | Exception]:
    """compute_overlaps at each (waves, crystal, fp): its bundle or the error it raises there.

    kappa enters the mode sums only through exp(i kappa z), so the points
    that share waves, crystal length and zeta_R make one mode-sum task per
    arm, each distinct kappa summed once. Every task of every group goes to
    one modebasis._mode_sums call, which bounds its own memory however many
    points there are.
    """
    results: list = [None] * len(points)
    groups: dict[tuple, list[int]] = {}
    for j, (waves, crystal, fp) in enumerate(points):
        try:
            results[j] = overlap.i_sfg_gaussian(waves, crystal, fp).abs_sq
        except Exception as exc:
            results[j] = exc
        else:
            groups.setdefault((waves, crystal.length, fp.zeta_r), []).append(j)
    # Per group, the idler arm's task, then the signal arm's where its basis differs.
    tasks = []
    for (waves, length, zeta_r), members in groups.items():
        kappas = list(dict.fromkeys(points[j][2].kappa for j in members))
        for arm in ("idler",) if waves.signal == waves.idler else ("idler", "signal"):
            tasks.append((waves, length, zeta_r, arm, kappas))
    try:
        sums = modebasis._mode_sums(tasks, quad_tol)
    except Exception as exc:  # an error of the options: every point raises it
        sums = [[exc] * len(task[4]) for task in tasks]
    done = iter(zip(tasks, sums))
    for members in groups.values():
        task, signal_arm = next(done)
        idler_arm = signal_arm if task[0].signal == task[0].idler else next(done)[1]
        by_kappa = dict(zip(task[4], zip(signal_arm, idler_arm)))
        for j in members:
            s, i = by_kappa[points[j][2].kappa]
            if isinstance(s, Exception):
                results[j] = s
            elif isinstance(i, Exception):
                results[j] = i
            else:
                results[j] = OverlapBundle(results[j], s.total, i.total)
    return results


@dataclass(frozen=True)
class SourceReport:
    """Everything computed for one source configuration.

    Rates are None for an arm whose filter is Unfiltered (its singles rate
    is unbounded in the narrow-band model). The runner that makes every
    report checks its invariants: each eta in (0, 1], and a pair rate no
    larger than either singles rate (_check_eta, _EXCEEDS).
    """

    pair_rate_w2: float
    singles_rate_signal: float | None
    singles_rate_idler: float | None
    eta_signal: float | None
    eta_idler: float | None
    gamma_eff: float
    gamma_eff_s: float | None
    gamma_eff_i: float | None
    pump_power: float
    efficiencies: classical.EfficiencyReport
    overlaps: OverlapBundle


# SourceReport's invariants, checked by the runner: eta once per stage, the
# rates over arrays of points.
_EXCEEDS = "pair rate exceeds a singles rate"


def _check_eta(*etas: float | None) -> None:
    """Raise the ValueError of the first heralding efficiency outside (0, 1]."""
    for eta in etas:
        if eta is not None and not 0.0 < eta <= 1.0 + 1e-9:
            raise ValueError(f"heralding efficiency {eta} outside (0, 1]")


def _linewidths(
    filter_s: filters.FilterSpec, filter_i: filters.FilterSpec
) -> tuple[float, float | None, float | None]:
    """Gamma_eff of the filter pair, then Gamma_eff,single of each arm (None if unfiltered)."""
    gamma_eff = filters.gamma_eff_pair(filter_s, filter_i)
    singles = [
        None if isinstance(flt, filters.Unfiltered) else filters.gamma_eff_single(flt)
        for flt in (filter_s, filter_i)
    ]
    if gamma_eff == 0.0:
        # An arm that transmits nothing, or passbands that miss.
        for name, single in zip(("filter_s", "filter_i"), singles):
            if single == 0.0:
                raise ValueError(f"{name} transmits nothing: its transmission is 0 everywhere")
        raise ValueError(
            "the passbands of filter_s and filter_i do not overlap: T_s(W) T_i(-W) is 0 "
            "at every offset W, so no pair reaches both detectors"
        )
    return gamma_eff, *singles


def evaluate_source(
    waves: WaveTriple,
    crystal: CrystalSpec,
    fp: FocusParams,
    filter_s: filters.FilterSpec,
    filter_i: filters.FilterSpec,
    pump_power: float,
    *,
    quad_tol: float = 1e-9,
    overlaps: OverlapBundle | None = None,
) -> SourceReport:
    """Full pipeline: linewidths, overlaps, efficiencies, heralding, rates.

    Precomputed overlaps may be passed in when only powers or filters vary.
    This is the one-point call of _evaluate; the checks come in its order:
    pump power, linewidths, overlaps.
    """
    geometries, filter_pairs = {0: (waves, crystal, fp)}, {0: (filter_s, filter_i)}
    runs = _evaluate(geometries, filter_pairs, [(0, 0)], (pump_power,), quad_tol, False, overlaps)
    (result,) = runs.results(*runs.index(0, 1))
    if isinstance(result, Exception):
        raise result
    return result


def _attempt(step, *args, **kwargs):
    """step(*args, **kwargs), or the error it raises; the first error among args instead."""
    for arg in args:
        if isinstance(arg, Exception):
            return arg
    try:
        return step(*args, **kwargs)
    except Exception as exc:
        return exc


class _Stage(NamedTuple):
    """All of a run's reports but the pump power."""

    factors: tuple  # f and q of W = (f P) q for W2, W1_s, W1_i; NaN for an unfiltered arm
    fields: tuple  # eta_s, eta_i, Gamma_eff, Gamma_eff_s, Gamma_eff_i (None if unfiltered)
    efficiencies: classical.EfficiencyReport
    overlaps: OverlapBundle


class _Runs:
    """The runs of a grid as columns: each run's stage, and the pump powers all runs take.

    Point (j, i) is power i of run j, and the grid's row i * S + j (S runs)
    if the powers are its outer axis, else its row j * P + i (P powers).
    A run's stage is a _Stage, or the error its points report: before their
    own power check if it is the error of the run's set-up (early), after
    it if not. columns forms W = (f P) q over any points in float64 arrays;
    each IEEE product is the scalar one bit for bit.
    """

    def __init__(self, setups: list, powers: tuple, outer: bool, stage) -> None:
        """The runs of set-ups taking powers; stage(setup) gives a set-up's stage."""
        self.powers, self._outer, self._setups = powers, outer, setups
        self._p = np.array(powers, dtype=float)
        self._bad = bad = [not 0.0 <= power < math.inf for power in powers]
        # Nothing runs when no power passes its check: each point checks it first.
        self.stages = stages = list(setups) if all(bad) else [stage(s) for s in setups]
        failed = (math.nan,) * 6
        self._factors = np.array([s.factors if isinstance(s, _Stage) else failed for s in stages])
        self._failed = [not isinstance(s, _Stage) for s in stages]

    def __len__(self) -> int:
        return len(self.stages) * len(self.powers)

    def index(self, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
        """The run and power index of each row from start to stop."""
        shape = len(self.stages), len(self.powers)
        return np.unravel_index(np.arange(start, stop), shape, order="F" if self._outer else "C")

    def columns(self, jj: np.ndarray, ii: np.ndarray):
        """W2, W1_s and W1_i at each point (jj[k], ii[k]) as lists, and each point's error.

        A rate of an unfiltered arm is NaN. An error is None, or the one
        evaluate_source raises at the point.
        """
        f = self._factors[jj]
        with np.errstate(all="ignore"):
            w = f[:, 0::2] * self._p[ii, None] * f[:, 1::2]  # W2, W1_s, W1_i as columns
            # W2 above either W1; fmin skips an unfiltered NaN
            exceeds = w[:, 0] > np.fmin(w[:, 1], w[:, 2]) * (1.0 + 1e-9)
        bad, failed, errors = self._bad, self._failed, [None] * len(w)
        flagged = np.flatnonzero(exceeds).tolist() if exceeds.any() else []
        if any(bad) or any(failed):
            points = enumerate(zip(jj.tolist(), ii.tolist()))
            flagged += [k for k, (j, i) in points if bad[i] or failed[j]]
        for k in flagged:
            j, i = jj[k], ii[k]
            if isinstance(self._setups[j], Exception) or (failed[j] and not bad[i]):
                errors[k] = self.stages[j]
            elif bad[i]:
                errors[k] = _attempt(_check_nonneg, pump_power=self.powers[i])
            else:
                errors[k] = ValueError(_EXCEEDS)
        return *w.T.tolist(), errors

    def results(self, jj: np.ndarray, ii: np.ndarray) -> list:
        """The SourceReport, or the error evaluate_source raises, at each point.

        A rate is a float, or a numpy float64 where the pump power is a
        numpy scalar, as the scalar product (f P) q would be.
        """
        *rates, errors = self.columns(jj, ii)
        jj, ii, stages, powers = jj.tolist(), ii.tolist(), self.stages, self.powers
        if any(isinstance(power, np.generic) for power in powers):
            for k, i in enumerate(ii):
                if isinstance(powers[i], np.generic):
                    for col in rates:
                        col[k] = np.float64(col[k])
        out = []
        for j, i, error, a, b, c in zip(jj, ii, errors, *rates):
            if error is None:
                _, fields, eff, bundle = stages[j]
                b = None if fields[3] is None else b
                c = None if fields[4] is None else c
                error = SourceReport(a, b, c, *fields, powers[i], eff, bundle)
            out.append(error)
        return out


def _evaluate(
    geometries: dict,
    filter_pairs: dict,
    setups: list,
    powers: tuple,
    quad_tol: float,
    power_outer: bool = False,
    overlaps: OverlapBundle | None = None,
) -> _Runs:
    """The runs of a grid: each run's stage, every run taking all the powers.

    geometries maps a key to (waves, crystal, fp) and filter_pairs a key to
    (filter_s, filter_i). Run j has setups[j], a (geometry key, filter key)
    or the error of its own set-up, which its points report before their
    power check. The linewidths run once per filter pair. The overlaps (the
    bundle given, else _overlaps) and Q run once per geometry, for all at
    once when a run first passes its linewidths. eta, its check and the
    rate factors run once per set-up. A step that receives an earlier
    step's error passes it on.
    """

    def efficiencies(waves, crystal, bundle):
        """The bundle and its Q: they depend on the geometry, not the filters or power."""
        return bundle, classical.EfficiencyReport(
            classical.q_conversion(waves, crystal, bundle.i_sfg_sq),
            classical.q_arm(waves, crystal, bundle.i_dfg_sq_signal_arm, "signal"),
            classical.q_arm(waves, crystal, bundle.i_dfg_sq_idler_arm, "idler"),
        )

    def geometry_steps() -> dict:
        """Each geometry's overlaps and Q, or the error of either, from one _overlaps call."""
        if overlaps is None:
            bundles = _overlaps(list(geometries.values()), quad_tol)
        else:
            bundles = [overlaps] * len(geometries)
        return {
            g: _attempt(efficiencies, waves, crystal, bundle)
            for (g, (waves, crystal, _)), bundle in zip(geometries.items(), bundles)
        }

    def rate_factors(waves, linewidths, geometry) -> _Stage:
        """All of a report but P: eta of each arm (None if unfiltered), each rate as its (f, q)."""
        bundle, eff = geometry
        gamma_eff, *singles = linewidths
        dfg = (bundle.i_dfg_sq_signal_arm, bundle.i_dfg_sq_idler_arm)
        eta = [
            None if gs is None else conditional_efficiency(waves, gamma_eff, gs, bundle.i_sfg_sq, d)
            for gs, d in zip(singles, dfg)
        ]
        _check_eta(*eta)
        arms = zip(singles, (eff.q_signal_arm, eff.q_idler_arm), ("signal", "idler"))
        w1 = [
            (math.nan, math.nan) if gs is None else _singles_factor(waves, q, gs, arm)
            for gs, q, arm in arms
        ]
        pair = _pair_factor(waves, eff.q_conversion, gamma_eff)
        return _Stage((*pair, *w1[0], *w1[1]), (*eta, *linewidths), eff, bundle)

    lines, shared, stages = {}, {}, {}

    def stage(setup):
        if isinstance(setup, Exception):
            return setup
        if setup not in stages:
            g, f = setup
            if f not in lines:
                lines[f] = _attempt(_linewidths, *filter_pairs[f])
            if not shared and not isinstance(lines[f], Exception):
                shared.update(geometry_steps())
            stages[setup] = _attempt(rate_factors, geometries[g][0], lines[f], shared.get(g))
        return stages[setup]

    return _Runs(setups, powers, power_outer, stage)
