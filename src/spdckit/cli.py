"""Command line interface.

Every subcommand reads a run configuration (except validate, which is
self-contained), computes, and prints rows in one of three formats:

    table    aligned columns for eyes
    csv      comma separated, header row first
    ndjson   one JSON object per row

table and csv are preceded by '#' metadata lines; ndjson instead starts
with one {"_meta": {...}} object. Output is deterministic for a given
input: floats print with repr (shortest round-trip), no timestamps.
Formatting goes by column: a column of 64-bit floats is converted by
float.__repr__ in one pass, any other column cell by cell, with the same
bytes either way.

main builds the argparse parser once per process, on its first call, and
reuses it for every later call.

Exit codes: 0 success, 2 configuration or usage problems, 1 runtime
failures. Errors go to stderr as a single 'error: ...' line.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys

import numpy as np

from . import classical, filters, overlap, quantum, validation
from .config import ConfigError, load_and_build
from .optimizer import _MAX_RESTARTS, AXIS_NAMES, SweepAxis, optimize_focus, sweep
from .quantities import from_si, to_si

__all__ = ["main"]

_FORMATS = ("table", "csv", "ndjson")
# Default correlation grid size; raised to what the filters need when
# --points is not given. No grid exceeds _MAX_TAU_POINTS, which bounds the
# rows the command holds and prints.
_TAU_POINTS = 2001
_MAX_TAU_POINTS = 1_000_000

# Units used for sweep axis values on the command line; bare names are
# dimensionless. The engine itself works in SI.
_SWEEP_UNITS = {"z_R": "mm", "Gamma_s": "MHz", "Gamma_i": "MHz", "P_p": "mW"}

# Rows per block: csv and ndjson are formatted and written, and the
# correlation rows built, a block at a time. This bounds the temporaries,
# so a 300000-row trace peaks no higher than writing row by row did.
_BLOCK_ROWS = 256
_FLOAT_TYPES = {float, np.float64}


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, np.generic):
        # numpy scalars repr as np.float64(...) under numpy 2; unwrap first
        value = value.item()
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _jsonable(value):
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    return value


def _json_cell(value) -> str:
    return json.dumps(_jsonable(value))


def _cells(values: list, fmt: str) -> list[str]:
    """One column's text, with one converter picked for the whole column.

    A column of Python or numpy 64-bit floats prints with float.__repr__,
    which is what _fmt and json.dumps give each of them, except that JSON
    spells non-finite floats NaN/Infinity. Any other column is converted
    cell by cell.
    """
    if set(map(type, values)) <= _FLOAT_TYPES and (
        fmt != "ndjson" or all(map(math.isfinite, values))
    ):
        return list(map(float.__repr__, values))
    return list(map(_json_cell if fmt == "ndjson" else _fmt, values))


def _lines(columns: list[list[str]], n_rows: int):
    """Rows of cells from columns of cells; a row without columns is empty."""
    return zip(*columns) if columns else [()] * n_rows


def _csv_block(rows: list[dict], columns: list[str]) -> str:
    cells = [_cells([row.get(c) for row in rows], "csv") for c in columns]
    return "".join(",".join(line) + "\n" for line in _lines(cells, len(rows)))


def _ndjson_block(rows: list[dict]) -> str:
    keys = list(rows[0])
    if not all(list(row) == keys for row in rows):
        return "".join(
            json.dumps({k: _jsonable(v) for k, v in row.items()}) + "\n" for row in rows
        )
    # Every row has the same keys in the same order: pre-encode the heads.
    heads = [json.dumps(k) + ": " for k in keys]
    cells = [
        [head + cell for cell in _cells([row[k] for row in rows], "ndjson")]
        for k, head in zip(keys, heads)
    ]
    return "".join("{" + ", ".join(line) + "}\n" for line in _lines(cells, len(rows)))


def emit(rows: list[dict], meta: dict, fmt: str, out=None) -> None:
    out = out or sys.stdout
    blocks = range(0, len(rows), _BLOCK_ROWS)
    if fmt == "ndjson":
        out.write(json.dumps({"_meta": meta}) + "\n")
        for start in blocks:
            out.write(_ndjson_block(rows[start : start + _BLOCK_ROWS]))
        return
    for key, value in meta.items():
        out.write(f"# {key}: {value}\n")
    columns = list(dict.fromkeys(itertools.chain.from_iterable(rows)))
    if fmt == "csv":
        out.write(",".join(columns) + "\n")
        for start in blocks:
            out.write(_csv_block(rows[start : start + _BLOCK_ROWS], columns))
        return
    # Widths span every row, so a table holds all its cells.
    cells = [_cells([row.get(c) for row in rows], fmt) for c in columns]
    widths = [max([len(c), *map(len, col)]) for c, col in zip(columns, cells)]
    out.write("  ".join(c.ljust(w) for c, w in zip(columns, widths)).rstrip() + "\n")
    for start in blocks:
        stop = min(start + _BLOCK_ROWS, len(rows))
        block = [[c.ljust(w) for c in col[start:stop]] for col, w in zip(cells, widths)]
        lines = _lines(block, stop - start)
        out.write("".join("  ".join(line).rstrip() + "\n" for line in lines))


def _base_meta(args, command: str) -> dict:
    meta = {"command": command}
    if getattr(args, "config", None):
        meta["config"] = str(args.config)
    return meta


def _q_column(waves) -> str:
    """Column label of the conversion efficiency: Q_SHG for a degenerate source."""
    return "q_shg_per_W" if waves.degenerate else "q_sfg_per_W"


def _cmd_sfg(args) -> int:
    built = load_and_build(args.config)
    fp = built.fp
    ups = overlap.upsilon(fp)
    i_sfg = overlap.i_sfg_gaussian(built.waves, built.crystal, fp)
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
        _q_column(built.waves): classical.q_conversion(built.waves, built.crystal, i_sfg.abs_sq),
    }
    emit([row], _base_meta(args, "sfg"), args.format)
    return 0


def _evaluate(args, built):
    return quantum.evaluate_source(
        built.waves,
        built.crystal,
        built.fp,
        built.filter_s,
        built.filter_i,
        built.pump_power,
        basis_order=args.basis_order,
        quad_tol=args.quad_tol,
    )


def _cmd_pairs(args) -> int:
    built = load_and_build(args.config)
    report = _evaluate(args, built)
    gamma_mhz = from_si(report.gamma_eff, "MHz")
    power_mw = from_si(report.pump_power, "mW")
    row = {
        "gamma_eff_rad_s": report.gamma_eff,
        "gamma_eff_MHz": gamma_mhz,
        _q_column(built.waves): report.efficiencies.q_conversion,
        "w2_per_s": report.pair_rate_w2,
        "pairs_per_s_mW_MHz": report.pair_rate_w2 / (power_mw * gamma_mhz),
    }
    emit([row], _base_meta(args, "pairs"), args.format)
    return 0


def _cmd_singles(args) -> int:
    built = load_and_build(args.config)
    report = _evaluate(args, built)
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
    emit([row], _base_meta(args, "singles"), args.format)
    return 0


def _cmd_correlation(args) -> int:
    built = load_and_build(args.config)
    waves = built.waves
    i_sfg = overlap.i_sfg_gaussian(waves, built.crystal, built.fp)
    q_value = classical.q_conversion(waves, built.crystal, i_sfg.abs_sq)
    scale = quantum.correlation_amplitude_sq(waves, built.pump_power, q_value)
    points = _TAU_POINTS if args.points is None else args.points
    if args.tau_max is not None:
        if args.tau_max <= 0:
            raise ValueError("--tau-max must be positive seconds")
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
    # Python floats from whole columns, a block at a time. abs of a Python
    # complex is hypot, as for a numpy scalar; np.abs of an array may round
    # otherwise.
    rows = []
    for start in range(0, len(trace.tau), _BLOCK_ROWS):
        block = slice(start, start + _BLOCK_ROWS)
        rows += [
            {
                "tau_s": t,
                "f_re": f.real,
                "f_im": f.imag,
                "abs_f_sq": abs(f) ** 2,
                "w2_density_per_s2": w,
            }
            for t, f, w in zip(
                trace.tau[block].tolist(), trace.f[block].tolist(), trace.w2_density[block].tolist()
            )
        ]
    meta = _base_meta(args, "correlation")
    meta["gamma_eff_rad_s"] = repr(trace.gamma_eff)
    meta["a_sq"] = repr(scale.a_sq)
    emit(rows, meta, args.format)
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
    built = None
    if args.rk is not None:
        r_k = args.rk
    elif args.config:
        built = load_and_build(args.config)
        r_k = built.fp.r_k
    else:
        print("error: optimize needs --rk or --config", file=sys.stderr)
        return 2
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
        emit(rows, meta, args.format)
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
    emit([row], meta, args.format)
    return 0


def _cmd_sweep(args) -> int:
    built = load_and_build(args.config)
    axes = []
    display = []
    for text in args.sweep:
        axis = SweepAxis.parse(text)
        unit = _SWEEP_UNITS.get(axis.name)
        display.append((axis.name + (f"_{unit}" if unit else ""), axis.values))
        if unit is not None:
            axis = SweepAxis(axis.name, tuple(to_si(v, unit) for v in axis.values))
        axes.append(axis)
    rows_out = []
    results = sweep(
        built.waves,
        built.crystal,
        built.z_r,
        built.filter_s,
        built.filter_i,
        built.pump_power,
        axes,
        quad_tol=args.quad_tol,
        basis_order=args.basis_order,
    )
    # Rows arrive in product order; rebuild the display coordinates the same way.
    coords_disp = [
        dict(zip((name for name, _ in display), combo))
        for combo in itertools.product(*(vals for _, vals in display))
    ]
    for disp, res in zip(coords_disp, results):
        row = dict(disp)
        rep = res.report
        row["w2_per_s"] = None if rep is None else rep.pair_rate_w2
        row["eta_signal"] = None if rep is None else rep.eta_signal
        row["eta_idler"] = None if rep is None else rep.eta_idler
        row["gamma_eff_rad_s"] = None if rep is None else rep.gamma_eff
        row["error"] = res.error
        rows_out.append(row)
    emit(rows_out, _base_meta(args, "sweep"), args.format)
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
    emit(rows, {"command": "validate"}, args.format)
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


def _add_common(p, *, config_required=True, basis=False):
    if config_required:
        p.add_argument("--config", required=True, help="run configuration file")
    p.add_argument("--format", choices=_FORMATS, default="table")
    if basis:
        p.add_argument(
            "--quad-tol",
            type=_positive_float,
            default=1e-9,
            help="relative mode-sum quadrature tolerance",
        )
        p.add_argument("--basis-order", type=int, default=40, help="highest radial mode order")


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
    _add_common(p, basis=True)
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
    p.add_argument("--tau-max", type=_finite_float, default=None, help="half-span in seconds")
    p.set_defaults(func=_cmd_correlation)

    p = sub.add_parser("optimize", help="maximize zeta_R |Upsilon|^2 over focusing")
    p.add_argument("--config", help="take R_k (and hardware translation) from a config")
    p.add_argument("--rk", type=float, default=None, help="wavenumber ratio R_k")
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
