"""Command line interface.

Every subcommand reads a run configuration (validate is self-contained,
and optimize takes --rk or --config), computes, and prints rows as table,
csv or ndjson (output.emit). Output is deterministic for a given input:
no timestamps.

correlation hands emit its trace's arrays, and sweep its grid's runs
(optimizer._grid), as columns; emit writes them a block at a time, so
neither holds a record per point.

sfg, pairs and correlation take only the pair side of the source: I_SFG
and its Q (_pair_side), and for pairs and correlation the filter pair's
Gamma_eff. Only singles and sweep run the rate runner and its mode sums
(quantum.evaluate_source, optimizer._grid), so only they take --quad-tol.
The mode sums run over every mode, with no basis order; singles and sweep
still accept --basis-order (1 to 4096) and ignore it.

main builds the argparse parser once per process, on its first call, and
reuses it for every later call.

Exit codes: 0 success, 2 configuration or usage problems, 1 runtime
failures. Errors go to stderr as a single 'error: ...' line.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys

import numpy as np

from . import classical, filters, overlap, quantum, validation
from .config import ConfigError, load_and_build
from .optimizer import _MAX_RESTARTS, _MIN_ZETA_R, AXIS_NAMES, SweepAxis, optimize_focus
from .optimizer import _check_box, _grid
from .output import Columns, _SweepRows, _fmt, emit, rows_of
from .quantities import from_si, to_si

__all__ = ["main"]

_FORMATS = ("table", "csv", "ndjson")
_NEGATIVE_NUMBER = re.compile(
    r"^-((\d+\.?\d*|\.\d+)(e[+-]?\d+)?|inf|infinity|nan)$", re.IGNORECASE
)
# Default correlation grid size; raised to what the filters need when
# --points is not given. No grid exceeds _MAX_TAU_POINTS, which bounds the
# rows the command holds and prints.
_TAU_POINTS = 2001
_MAX_TAU_POINTS = 1_000_000

# Units used for sweep axis values on the command line; bare names are
# dimensionless. The engine itself works in SI.
_SWEEP_UNITS = {"z_R": "mm", "Gamma_s": "MHz", "Gamma_i": "MHz", "P_p": "mW"}


def _base_meta(args, command: str) -> dict:
    meta = {"command": command}
    if getattr(args, "config", None):
        meta["config"] = str(args.config)
    return meta


def _q_column(waves) -> str:
    """Column label of the conversion efficiency: Q_SHG for a degenerate source."""
    return "q_shg_per_W" if waves.degenerate else "q_sfg_per_W"


def _pair_side(built):
    """I_SFG of the geometry and its Q: all of the overlaps that a pair rate takes."""
    i_sfg = overlap.i_sfg_gaussian(built.waves, built.crystal, built.fp)
    return i_sfg, classical.q_conversion(built.waves, built.crystal, i_sfg.abs_sq)


def _cmd_sfg(args) -> int:
    built = load_and_build(args.config)
    fp = built.fp
    ups = overlap.upsilon(fp)
    i_sfg, q_value = _pair_side(built)
    row = {
        "kappa": fp.kappa,
        "zeta_R": fp.zeta_r,
        "R_k": fp.r_k,
        "upsilon_re": ups.value.real,
        "upsilon_im": ups.value.imag,
        "abs_upsilon_sq": ups.abs_sq,
        "objective": fp.zeta_r * ups.abs_sq,
        "i_sfg_re": i_sfg.i_value.real,
        "i_sfg_im": i_sfg.i_value.imag,
        "abs_i_sfg_sq": i_sfg.abs_sq,
        _q_column(built.waves): q_value,
    }
    emit(rows_of([row]), _base_meta(args, "sfg"), args.format)
    return 0


def _cmd_pairs(args) -> int:
    built = load_and_build(args.config)
    gamma_eff = quantum._linewidths(built.filter_s, built.filter_i)[0]
    _, q_value = _pair_side(built)
    w2 = quantum.pair_rate(built.waves, built.pump_power, q_value, gamma_eff)
    gamma_mhz = from_si(gamma_eff, "MHz")
    row = {
        "gamma_eff_rad_s": gamma_eff,
        "gamma_eff_MHz": gamma_mhz,
        _q_column(built.waves): q_value,
        "w2_per_s": w2,
        "pairs_per_s_mW_MHz": w2 / (from_si(built.pump_power, "mW") * gamma_mhz),
    }
    emit(rows_of([row]), _base_meta(args, "pairs"), args.format)
    return 0


def _cmd_singles(args) -> int:
    built = load_and_build(args.config)
    source = (built.waves, built.crystal, built.fp, built.filter_s, built.filter_i)
    report = quantum.evaluate_source(*source, built.pump_power, quad_tol=args.quad_tol)
    row = {
        "w2_per_s": report.pair_rate_w2,
        "w1_signal_per_s": report.singles_rate_signal,
        "w1_idler_per_s": report.singles_rate_idler,
        "eta_signal": report.eta_signal,
        "eta_idler": report.eta_idler,
        "gamma_eff_rad_s": report.gamma_eff,
        "gamma_s_rad_s": report.gamma_eff_s,
        "gamma_i_rad_s": report.gamma_eff_i,
    }
    emit(rows_of([row]), _base_meta(args, "singles"), args.format)
    return 0


def _cmd_correlation(args) -> int:
    built = load_and_build(args.config)
    # Refuse a pair that passes no photon pair, as pairs does; an explicit
    # grid would otherwise give a trace of zeros.
    quantum._linewidths(built.filter_s, built.filter_i)
    _, q_value = _pair_side(built)
    scale = quantum.correlation_amplitude_sq(built.waves, built.pump_power, q_value)
    points = _TAU_POINTS if args.points is None else args.points
    if args.tau_max is not None:
        tau = np.linspace(-args.tau_max, args.tau_max, points)
    else:
        tau = filters.default_tau_grid(built.filter_s, built.filter_i, points=points)
    if args.points is None:
        need = _tau_points_needed(built, float(tau[-1]))
        if need > points:
            tau = np.linspace(tau[0], tau[-1], need)
    try:
        trace = filters.correlation_shape(
            built.filter_s, built.filter_i, tau=tau, w2_prefactor=scale.w2_prefactor
        )
    except filters.TauGridError as exc:
        need = _tau_points_needed(built, float(tau[-1]))
        raise ValueError(
            f"{exc}; use --points {need} or more for this span, or a smaller --tau-max"
        ) from None

    def values(start, stop):
        # abs of a Python complex is hypot, as for a numpy scalar; np.abs of
        # an array may round otherwise.
        f = trace.f[start:stop]
        return [
            trace.tau[start:stop].tolist(),
            f.real.tolist(),
            f.imag.tolist(),
            [abs(z) ** 2 for z in f.tolist()],
            trace.w2_density[start:stop].tolist(),
        ]

    names = ["tau_s", "f_re", "f_im", "abs_f_sq", "w2_density_per_s2"]
    meta = _base_meta(args, "correlation")
    meta["gamma_eff_rad_s"] = repr(trace.gamma_eff)
    meta["a_sq"] = repr(scale.a_sq)
    emit(Columns(names, len(trace.tau), values), meta, args.format)
    return 0


def _tau_points_needed(built, half_span: float) -> int:
    """min_tau_points of the filters, refused if --points could not give it."""
    need = filters.min_tau_points(built.filter_s, built.filter_i, half_span)
    if need > _MAX_TAU_POINTS:
        raise ValueError(
            f"a tau grid on +-{half_span!r} s needs {need} points for these filters, "
            f"more than --points allows ({_MAX_TAU_POINTS}); use a smaller --tau-max"
        )
    return need


def _cmd_optimize(args) -> int:
    try:
        _check_box("--kappa-min/--kappa-max", args.kappa_min, args.kappa_max)
        _check_box("--zeta-min/--zeta-max", args.zeta_min, args.zeta_max, _MIN_ZETA_R)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    built = None if args.config is None else load_and_build(args.config)
    r_k = args.rk if built is None else built.fp.r_k
    result = optimize_focus(
        r_k,
        kappa_bounds=(args.kappa_min, args.kappa_max),
        zeta_bounds=(args.zeta_min, args.zeta_max),
        rel_tol=args.tol,
        restarts=args.restarts,
        seed=args.seed,
    )
    meta = _base_meta(args, "optimize")
    meta["r_k"] = repr(r_k)
    if args.trace:
        rows = [
            {"kappa": k, "zeta_R": z, "objective": f}
            for k, z, f in result.trace
        ]
        meta["best_objective"] = repr(result.best_objective)
        meta["converged"] = _fmt(result.converged)
        emit(rows_of(rows), meta, args.format)
        return 0
    row = {
        "r_k": r_k,
        "best_kappa": result.best_kappa,
        "best_zeta_R": result.best_zeta_r,
        "best_objective": result.best_objective,
        "evaluations": result.evaluations,
        "converged": result.converged,
    }
    if built is not None:
        # Translate the dimensionless optimum back to hardware numbers.
        length = built.crystal.length
        q = built.waves.k_minus0 - result.best_kappa / length
        row["z_R_m"] = result.best_zeta_r * length
        row["poling_period_m"] = None if q <= 0 else 2.0 * np.pi / q
    emit(rows_of([row]), meta, args.format)
    return 0


def _cmd_sweep(args) -> int:
    built = load_and_build(args.config)
    axes, names, display = [], [], []
    for text in args.sweep:
        axis = SweepAxis.parse(text)
        unit = _SWEEP_UNITS.get(axis.name)
        names.append(axis.name + (f"_{unit}" if unit else ""))
        display.append(axis.values)
        if unit is not None:
            axis = SweepAxis(axis.name, tuple(to_si(v, unit) for v in axis.values))
        axes.append(axis)
    source = (built.waves, built.crystal, built.z_r, built.filter_s, built.filter_i)
    runs = _grid(*source, built.pump_power, axes, args.quad_tol)
    power = next((k for k, axis in enumerate(axes) if axis.name == "P_p"), None)
    emit(_SweepRows(runs, names, display, power), _base_meta(args, "sweep"), args.format)
    return 0


def _cmd_validate(args) -> int:
    reports = validation.run_all_oracles()
    rows = [
        {
            "name": r.name,
            "main_value": r.main_value,
            "oracle_value": r.oracle_value,
            "rel_diff": r.rel_diff,
            "tolerance": r.tolerance,
            "passed": r.passed,
        }
        for r in reports
    ]
    emit(rows_of(rows), {"command": "validate"}, args.format)
    return 0 if all(r.passed for r in reports) else 1


def _finite_float(text: str) -> float:
    """argparse type: a finite number, so that inf and nan are usage errors."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _positive_float(text: str) -> float:
    """argparse type: a finite number above 0."""
    value = _finite_float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text!r}")
    return value


def _wavenumber_ratio(text: str) -> float:
    """argparse type for --rk: a finite number with |R_k| < 1."""
    value = _finite_float(text)
    if not abs(value) < 1.0:
        raise argparse.ArgumentTypeError(f"must satisfy |R_k| < 1, got {text!r}")
    return value


def _int_range(low: int, high: int | None = None):
    """argparse type: an integer from low to high, or from low up if high is None."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if high is None and value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {text!r}")
        if high is not None and not low <= value <= high:
            raise argparse.ArgumentTypeError(f"must be from {low} to {high}, got {text!r}")
        return value

    return parse


def _add_common(p, *, basis=False):
    p.add_argument("--config", required=True, help="run configuration file")
    p.add_argument("--format", choices=_FORMATS, default="table")
    if basis:
        p.add_argument(
            "--quad-tol",
            type=_positive_float,
            default=1e-9,
            help="relative mode-sum quadrature tolerance",
        )
        p.add_argument(
            "--basis-order",
            type=_int_range(1, 4096),
            help="ignored: the mode sums run over every mode",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spdckit",
        description="Narrow-band photon pair source rates, overlaps and optimization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sfg", help="focusing integral and conversion efficiency")
    _add_common(p)
    p.set_defaults(func=_cmd_sfg)

    p = sub.add_parser("pairs", help="filtered pair rate")
    _add_common(p)
    p.set_defaults(func=_cmd_pairs)

    p = sub.add_parser("singles", help="singles rates and heralding efficiencies")
    _add_common(p, basis=True)
    p.set_defaults(func=_cmd_singles)

    p = sub.add_parser("correlation", help="signal-idler correlation trace")
    _add_common(p)
    p.add_argument(
        "--points",
        type=_int_range(9, _MAX_TAU_POINTS),
        help=f"tau grid size (default {_TAU_POINTS} or more)",
    )
    p.add_argument("--tau-max", type=_positive_float, default=None, help="half-span in seconds")
    p.set_defaults(func=_cmd_correlation)

    p = sub.add_parser("optimize", help="maximize zeta_R |Upsilon|^2 over focusing")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--config", help="take R_k (and hardware translation) from a config")
    source.add_argument("--rk", type=_wavenumber_ratio, help="wavenumber ratio R_k")
    p.add_argument("--kappa-min", type=_finite_float, default=-20.0)
    p.add_argument("--kappa-max", type=_finite_float, default=5.0)
    p.add_argument("--zeta-min", type=_finite_float, default=0.02)
    p.add_argument("--zeta-max", type=_finite_float, default=5.0)
    p.add_argument("--tol", type=_positive_float, default=1e-6)
    p.add_argument("--restarts", type=_int_range(0, _MAX_RESTARTS), default=5)
    p.add_argument("--seed", type=_int_range(0), default=7)
    p.add_argument("--trace", action="store_true", help="print every evaluation")
    p.add_argument("--format", choices=_FORMATS, default="table")
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("sweep", help="re-evaluate the source over a parameter grid")
    _add_common(p, basis=True)
    p.add_argument(
        "--sweep",
        action="append",
        required=True,
        metavar="NAME=START:STOP:COUNT",
        help=f"axis to sweep (repeatable, max 2); names: {', '.join(AXIS_NAMES)}; "
        "units: z_R mm, Gamma_s/Gamma_i MHz, P_p mW, others dimensionless",
    )
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("validate", help="run the independent oracle suite")
    p.add_argument("--format", choices=_FORMATS, default="table")
    p.set_defaults(func=_cmd_validate)

    # argparse's own negative-number pattern has no exponent and no -inf or
    # -nan; read them as values, so each option's own check names them.
    for p in (parser, *sub.choices.values()):
        p._negative_number_matcher = _NEGATIVE_NUMBER
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of this process, built on the first call to main."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
