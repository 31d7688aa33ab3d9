"""The ops of the four workloads: how each one runs and how it is checked.

Every op is checked against golden outputs stored per catalog op, within
the library's own stated error, and against independent routes that need
no golden: the Boyd-Kleinman constant, Parseval in the time domain, the
closed-form Lorentzian linewidth and correlation, and eta = W2 / W1.

A unit is an op, a sweep point or an oracle. A unit fails when its op
raised, when it carries an error row or a non-finite value, or when it
misses a check. Failures are counted, never fatal.

Only public functions are used, and nothing planned for removal: no
``threads``, no private helpers, no ``EfficiencyReport.inputs``.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from pathlib import Path
from time import perf_counter

import numpy as np

from spdckit import cli, config, filters, optimizer, quantum

from inputs import Catalog, Op

H_MAX = 1.0679  # Boyd-Kleinman h_max, reached at R_k = 0

TOL_QUAD = 1e-7  # values that only pass through quadrature
TOL_ETA = 2e-4  # mode-sum tail_tol
TOL_OBJECTIVE = 1e-6
# A maximum's position moves with the square root of the objective error;
# its scale here is set by the simplex tolerances of optimize_focus.
TOL_POSITION = 1e-3
TOL_IDENTITY = 1e-12  # algebraic identities such as eta = W2 / W1
TOL_TEMPORAL = 1e-3  # 4 Int |f|^2 dtau against gamma_eff_pair
TOL_H = 1e-3

_FIELD_TOL = {
    "eta_s": TOL_ETA,
    "eta_i": TOL_ETA,
    "eta_signal": TOL_ETA,
    "eta_idler": TOL_ETA,
    "w1_signal_per_s": TOL_ETA,
    "w1_idler_per_s": TOL_ETA,
    "c_s": TOL_ETA,
    "c_i": TOL_ETA,
    "best_objective": TOL_OBJECTIVE,
    "best_kappa": TOL_POSITION,
    "best_zeta_R": TOL_POSITION,
    "z_R_m": TOL_POSITION,
    "poling_period_m": 1e-6,
    "main_value": 1e-6,
    "oracle_value": 1e-6,
}
# Fields that describe how a value was found, not the value.
_UNCHECKED = {"evaluations", "rel_diff"}


class Tally:
    """Attempted and failed units, plus the largest deviation from a golden."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.max_rel_dev = 0.0
        self.notes: list[str] = []

    def fail(self, label: str, why: str, count: int = 1) -> None:
        self.attempted += count
        self.failed += count
        if len(self.notes) < 20:
            self.notes.append(f"{label}: {why}")

    def close(self, got, want, tol, scale=None, golden=True) -> np.ndarray:
        """Elementwise |got - want| <= tol * scale, scale defaulting to |want|."""
        got = np.asarray(got, dtype=float)
        want = np.asarray(want, dtype=float)
        scale = np.abs(want) if scale is None else np.asarray(scale, dtype=float)
        with np.errstate(invalid="ignore", divide="ignore"):
            dev = np.abs(got - want) / np.where(scale > 0, scale, 1.0)
        finite = dev[np.isfinite(dev)]
        if golden and finite.size:
            self.max_rel_dev = max(self.max_rel_dev, float(finite.max()))
        return np.isfinite(got) & (dev <= tol)

    def units(self, label: str, checks: list) -> None:
        """Count one unit per element; each check is (name, boolean array)."""
        n = len(checks[0][1])
        ok = np.ones(n, dtype=bool)
        for _, passed in checks:
            ok &= passed
        bad = np.flatnonzero(~ok)
        self.attempted += n - bad.size
        if bad.size:
            k = int(bad[0])
            name = next(name for name, passed in checks if not passed[k])
            self.fail(f"{label}[{k}]", f"{name} check failed", bad.size)

    @contextlib.contextmanager
    def unit(self, label: str):
        u = _Unit(self)
        try:
            yield u
        except Exception as exc:  # a check that cannot run is a failed unit
            u.problems.append(f"check raised {type(exc).__name__}: {exc}")
        if u.problems:
            self.fail(label, u.problems[0])
        else:
            self.attempted += 1


class _Unit:
    def __init__(self, tally: Tally) -> None:
        self.tally = tally
        self.problems: list[str] = []

    def expect(self, cond: bool, what: str) -> None:
        if not cond:
            self.problems.append(what)

    def close(self, name, got, want, tol, scale=None, golden=True) -> None:
        """|got - want| <= tol * scale, scale defaulting to |want|."""
        if got is None or want is None or isinstance(want, (bool, str)):
            self.expect(got == want, f"{name} = {got!r}, expected {want!r}")
            return
        got, want = float(got), float(want)
        scale = abs(want) if scale is None else scale
        dev = abs(got - want) / scale if scale > 0 else abs(got - want)
        if golden and math.isfinite(dev):
            self.tally.max_rel_dev = max(self.tally.max_rel_dev, dev)
        self.expect(
            math.isfinite(got) and dev <= tol,
            f"{name} = {got!r}, expected {want!r} (rel dev {dev:.2e} > {tol:.0e})",
        )

    def fields(self, got: dict, want: dict) -> None:
        """Compare every golden field, complex parts relative to their modulus."""
        for name, value in want.items():
            if name in _UNCHECKED:
                continue
            scale = None
            for part, partner in (("_re", "_im"), ("_im", "_re")):
                if name.endswith(part) and name[: -len(part)] + partner in want:
                    scale = math.hypot(value, want[name[: -len(part)] + partner])
            self.close(name, got.get(name), value, _FIELD_TOL.get(name, TOL_QUAD), scale)


# --------------------------------------------------------------------------
# Preparing and running ops


def prepare(catalog: Catalog, root: Path) -> dict:
    """Build what every op needs (configs, axes, argv) and return runners by key."""
    built: dict[str, config.BuiltConfig] = {}

    def get(path: str) -> config.BuiltConfig:
        if path not in built:
            built[path] = config.load_and_build(root / path)
        return built[path]

    runners = {}
    for op in catalog.ops():
        p = op.params
        if op.kind == "focus":
            runners[op.key] = _focus_runner(p["r_k"])
        elif op.kind in ("geometry", "rates"):
            b = get(p["config"])
            axes = [_sweep_axis(b, name, values) for name, values in p["axes"]]
            runners[op.key] = _sweep_runner(b, axes, p.get("order", 40))
        elif op.kind == "filter_design":
            axes = [optimizer.SweepAxis(name, tuple(values)) for name, values in p["axes"]]
            runners[op.key] = _filter_runner(root / p["config"], p["n_tau"], axes)
        elif op.kind == "cli":
            argv = [str(root / a) if a.endswith(".cfg") else a for a in p["argv"]]
            runners[op.key] = _cli_runner(argv)
        else:
            raise ValueError(f"unknown op kind {op.kind!r}")
    return runners


def execute(runner):
    """Run one op; returns (output, exception, seconds). A raising op is a
    failed unit, never the end of the run."""
    t0 = perf_counter()
    try:
        out, exc = runner(), None
    except Exception as e:
        out, exc = None, e
    return out, exc, perf_counter() - t0


def _sweep_axis(b: config.BuiltConfig, name: str, values: list) -> optimizer.SweepAxis:
    if name == "z_R/L":
        return optimizer.SweepAxis("z_R", tuple(v * b.crystal.length for v in values))
    if name == "R_k@kappa":
        # The R_k axis retunes the pump index at fixed poling, so kappa moves
        # by L * dk_p. Map the wanted kappa span onto R_k for this source.
        k_si = b.waves.signal.wavenumber + b.waves.idler.wavenumber
        k_p = b.waves.pump.wavenumber
        length = b.crystal.length
        r_k = []
        for kappa in values:
            k_new = k_p + (kappa - b.fp.kappa) / length
            r_k.append((k_new - k_si) / (k_new + k_si))
        return optimizer.SweepAxis("R_k", tuple(r_k))
    return optimizer.SweepAxis(name, tuple(values))


def _focus_runner(r_k: float):
    return lambda: optimizer.optimize_focus(r_k)


def _sweep_runner(b: config.BuiltConfig, axes, order: int):
    def run():
        return optimizer.sweep(
            b.waves, b.crystal, b.z_r, b.filter_s, b.filter_i, b.pump_power, axes,
            basis_order=order,
        )

    return run


def _filter_runner(path: Path, n_tau: int, axes):
    def run():
        b = config.load_and_build(path)
        report = quantum.evaluate_source(
            b.waves, b.crystal, b.fp, b.filter_s, b.filter_i, b.pump_power
        )
        # A window of 20 / gamma_eff holds the whole coincidence peak; the
        # spacing stays inside correlation_shape's resolution limit.
        widths = [g for g in (report.gamma_eff_s, report.gamma_eff_i) if g is not None]
        span = min(20.0 / report.gamma_eff, 0.38 * (n_tau - 1) / (2.0 * max(widths)))
        tau = np.linspace(-span, span, n_tau)
        trace = filters.correlation_shape(b.filter_s, b.filter_i, tau=tau)
        rows = optimizer.sweep(
            b.waves, b.crystal, b.z_r,
            filters.LorentzianFilter(gamma=axes[0].values[0]), b.filter_i,
            b.pump_power, axes,
        )
        return report, trace, rows

    return run


def _cli_runner(argv: list[str]):
    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(argv)
            except SystemExit as exc:  # argparse usage errors
                rc = exc.code
        return rc, out.getvalue(), err.getvalue()

    return run


# --------------------------------------------------------------------------
# Golden summaries


def _consts(report) -> dict:
    """Quantities that stay fixed while only pump power and filters vary."""
    return {
        "k_w2": report.pair_rate_w2 / (report.pump_power * report.gamma_eff),
        "c_s": report.eta_signal * report.gamma_eff_s / report.gamma_eff,
        "c_i": report.eta_idler * report.gamma_eff_i / report.gamma_eff,
    }


def _f_samples(n: int) -> list[int]:
    return [round(k * (n - 1) / 8) for k in range(9)]


def summarize(op: Op, out) -> dict:
    """The key outputs of one op, as stored in the golden file."""
    if op.kind == "focus":
        return {"op": {
            "best_objective": out.best_objective,
            "best_kappa": out.best_kappa,
            "best_zeta_R": out.best_zeta_r,
            "converged": out.converged,
        }}
    if op.kind == "geometry":
        return {
            "op": {"gamma_eff": out[0].report.gamma_eff},
            "units": [
                {"w2": r.report.pair_rate_w2, "eta_s": r.report.eta_signal, "eta_i": r.report.eta_idler}
                for r in out
            ],
        }
    if op.kind == "rates":
        return {"op": _consts(out[0].report)}
    if op.kind == "filter_design":
        report, trace, rows = out
        f = trace.f
        return {
            "op": {
                "w2": report.pair_rate_w2,
                "eta_s": report.eta_signal,
                "eta_i": report.eta_idler,
                "gamma_eff": report.gamma_eff,
                "gamma_s": report.gamma_eff_s,
                "gamma_i": report.gamma_eff_i,
                "pump": report.pump_power,
                "f_peak": float(np.max(np.abs(f))),
                "f": [[float(f[k].real), float(f[k].imag)] for k in _f_samples(len(f))],
            },
            "units": [{"gamma_eff": r.report.gamma_eff} for r in rows],
        }
    if op.kind == "cli":
        rc, stdout, _ = out
        check = op.params["check"]
        if check == "row":
            return {"op": _csv_rows(stdout)[0]}
        if check == "correlation":
            meta, rows = _ndjson(stdout)
            peak = max(rows, key=lambda r: r["abs_f_sq"])
            return {"op": {
                "gamma_eff": float(meta["gamma_eff_rad_s"]),
                "a_sq": float(meta["a_sq"]),
                "prefactor": peak["w2_density_per_s2"] / peak["abs_f_sq"],
            }}
        if check == "sweep":
            return {"op": _cli_consts(_csv_rows(stdout)[0])}
        if check == "validate":
            return {"units": [
                {"name": r["name"], "main_value": r["main_value"], "oracle_value": r["oracle_value"]}
                for r in _csv_rows(stdout)
            ]}
        return {}
    raise ValueError(f"unknown op kind {op.kind!r}")


# --------------------------------------------------------------------------
# Checks


def grid_size(op: Op) -> int:
    """Sweep points (or oracles) an op is expected to produce."""
    p = op.params
    if "axes" in p:
        return math.prod(len(v) for _, v in p["axes"])
    if op.kind == "cli" and p["check"] == "sweep":
        return math.prod(int(a.rsplit(":", 1)[1]) for a in p["argv"] if a.count(":") == 2)
    return 0


def check(op: Op, out, exc: BaseException | None, golden: dict | None, tally: Tally) -> None:
    """Count the units of one op as passed or failed."""
    label = op.key
    sub = grid_size(op) or len((golden or {}).get("units", []))
    if exc is not None:
        tally.fail(label, f"raised {type(exc).__name__}: {exc}", 1 + sub)
        return
    if golden is None or golden.get("sig") != op.sig:
        tally.fail(label, "no golden output for this op", 1 + sub)
        return
    _CHECKS[op.kind](op, out, golden, tally)


def _report_identities(u: _Unit, report) -> None:
    for arm, eta, w1 in (
        ("signal", report.eta_signal, report.singles_rate_signal),
        ("idler", report.eta_idler, report.singles_rate_idler),
    ):
        u.expect(eta is not None and w1 is not None, f"no {arm} heralding result")
        u.close(f"eta_{arm} vs W2/W1", eta, report.pair_rate_w2 / w1, TOL_IDENTITY, golden=False)


_REPORT_FIELDS = (
    "pair_rate_w2", "eta_signal", "eta_idler", "gamma_eff", "gamma_eff_s", "gamma_eff_i",
    "singles_rate_signal", "singles_rate_idler", "pump_power",
)


def _row_arrays(rows) -> dict[str, np.ndarray]:
    """Report fields of sweep rows as arrays; NaN where a row has no value."""
    out = {f: np.full(len(rows), np.nan) for f in _REPORT_FIELDS}
    out["no_error"] = np.array([row.error is None and row.report is not None for row in rows])
    for k, row in enumerate(rows):
        if row.report is not None:
            for f in _REPORT_FIELDS:
                value = getattr(row.report, f)
                if value is not None:
                    out[f][k] = value
    return out


def _row_checks(tally: Tally, a: dict) -> list:
    """Checks of every sweep row: no error row, eta = W2 / W1 on both arms."""
    w2 = a["pair_rate_w2"]
    return [
        ("error row", a["no_error"]),
        ("eta_signal vs W2/W1", tally.close(a["eta_signal"], w2 / a["singles_rate_signal"],
                                            TOL_IDENTITY, golden=False)),
        ("eta_idler vs W2/W1", tally.close(a["eta_idler"], w2 / a["singles_rate_idler"],
                                           TOL_IDENTITY, golden=False)),
    ]


def _const_checks(tally: Tally, a: dict, consts: dict) -> list:
    """Rows that share overlaps keep W2/(P Gamma_eff) and eta Gamma_arm/Gamma_eff fixed."""
    geff = a["gamma_eff"]
    return [
        ("k_w2", tally.close(a["pair_rate_w2"] / (a["pump_power"] * geff), consts["k_w2"],
                             TOL_QUAD)),
        ("c_s", tally.close(a["eta_signal"] * a["gamma_eff_s"] / geff, consts["c_s"], TOL_ETA)),
        ("c_i", tally.close(a["eta_idler"] * a["gamma_eff_i"] / geff, consts["c_i"], TOL_ETA)),
    ]


def _check_focus(op, out, golden, tally):
    with tally.unit(op.key) as u:
        u.fields(summarize(op, out)["op"], golden["op"])
        if op.params["r_k"] == 0.0:
            h = 2.0 * math.pi**2 * out.best_objective
            u.close("Boyd-Kleinman h", h, H_MAX, TOL_H, golden=False)


def _check_count(op, rows, expected: int, tally: Tally) -> None:
    with tally.unit(op.key) as u:
        u.expect(len(rows) == expected, f"{len(rows)} rows, expected {expected}")
    if len(rows) < expected:
        tally.fail(op.key, "missing rows", expected - len(rows))


def _check_geometry(op, rows, golden, tally):
    want = golden["units"]
    _check_count(op, rows, len(want), tally)
    rows = rows[: len(want)]
    a = _row_arrays(rows)
    gold = {f: np.array([w[f] for w in want[: len(rows)]]) for f in ("w2", "eta_s", "eta_i")}
    tally.units(op.key, _row_checks(tally, a) + [
        ("w2", tally.close(a["pair_rate_w2"], gold["w2"], TOL_QUAD)),
        ("eta_s", tally.close(a["eta_signal"], gold["eta_s"], TOL_ETA)),
        ("eta_i", tally.close(a["eta_idler"], gold["eta_i"], TOL_ETA)),
        ("gamma_eff", tally.close(a["gamma_eff"], golden["op"]["gamma_eff"], TOL_QUAD)),
    ])


def _check_rates(op, rows, golden, tally):
    _check_count(op, rows, grid_size(op), tally)
    a = _row_arrays(rows)
    g_s = np.array([row.coords["Gamma_s"] for row in rows])
    g_i = op.params["gamma_i"]
    tally.units(op.key, _row_checks(tally, a) + _const_checks(tally, a, golden["op"]) + [
        ("gamma_eff closed form", tally.close(a["gamma_eff"], g_s * g_i / (g_s + g_i),
                                              TOL_IDENTITY, golden=False)),
    ])


def _check_filter(op, out, golden, tally):
    report, trace, rows = out
    want = golden["op"]
    with tally.unit(op.key) as u:
        for name, got in (
            ("w2", report.pair_rate_w2), ("eta_s", report.eta_signal), ("eta_i", report.eta_idler),
            ("gamma_eff", report.gamma_eff), ("gamma_s", report.gamma_eff_s),
            ("gamma_i", report.gamma_eff_i),
        ):
            u.close(name, got, want[name], _FIELD_TOL.get(name, TOL_QUAD))
        _report_identities(u, report)
        u.expect(len(trace.tau) == op.params["n_tau"], f"{len(trace.tau)} tau points")
        u.expect(bool(np.all(np.isfinite(trace.f))), "non-finite correlation amplitude")
        for k, (re, im) in zip(_f_samples(len(trace.f)), want["f"]):
            u.close(f"f[{k}].re", trace.f[k].real, re, TOL_QUAD, scale=want["f_peak"])
            u.close(f"f[{k}].im", trace.f[k].imag, im, TOL_QUAD, scale=want["f_peak"])
        u.close("gamma_eff (trace)", trace.gamma_eff, report.gamma_eff, TOL_IDENTITY, golden=False)
        u.close("4 Int |f|^2 dtau", trace.temporal_gamma_eff(), report.gamma_eff, TOL_TEMPORAL,
                golden=False)
    wanted_rows = golden["units"]
    _check_count(op, rows, len(wanted_rows), tally)
    rows = rows[: len(wanted_rows)]
    a = _row_arrays(rows)
    consts = {
        "k_w2": want["w2"] / (want["pump"] * want["gamma_eff"]),
        "c_s": want["eta_s"] * want["gamma_s"] / want["gamma_eff"],
        "c_i": want["eta_i"] * want["gamma_i"] / want["gamma_eff"],
    }
    gold_geff = np.array([w["gamma_eff"] for w in wanted_rows[: len(rows)]])
    tally.units(op.key, _row_checks(tally, a) + _const_checks(tally, a, consts) + [
        ("gamma_eff", tally.close(a["gamma_eff"], gold_geff, TOL_QUAD)),
    ])


def _csv_rows(text: str) -> list[dict]:
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    return [{k: _cell(v) for k, v in row.items()} for row in csv.DictReader(lines)]


def _cell(text: str):
    if text == "":
        return None
    if text in ("true", "false"):
        return text == "true"
    try:
        return float(text)
    except ValueError:
        return text


def _ndjson(text: str) -> tuple[dict, list[dict]]:
    objs = [json.loads(line) for line in text.splitlines() if line.strip()]
    return objs[0]["_meta"], objs[1:]


def _cli_consts(row: dict) -> dict:
    g_s = row["Gamma_s_MHz"] * 2.0 * math.pi * 1e6
    return {
        "k_w2": row["w2_per_s"] / (row["P_p_mW"] * row["gamma_eff_rad_s"]),
        "c_s": row["eta_signal"] * g_s / row["gamma_eff_rad_s"],
        "c_i": row["eta_idler"] / row["gamma_eff_rad_s"],
    }


def _lorentzian_f(tau: float, g_s: float, g_i: float) -> float:
    pref = g_s * g_i / (2.0 * (g_s + g_i))
    return pref * (math.exp(-0.5 * g_s * tau) if tau >= 0 else math.exp(0.5 * g_i * tau))


def _check_cli(op, out, golden, tally):
    rc, stdout, stderr = out
    p = op.params
    check = p["check"]
    if check == "broken":
        with tally.unit(op.key) as u:
            u.expect(rc == 2, f"exit code {rc}, expected 2")
            u.expect(f"line {p['line']}:" in stderr, f"error does not name line {p['line']}: {stderr!r}")
        return
    if check == "validate":
        _check_validate(op, rc, stdout, golden, tally)
        return
    if check == "sweep":
        _check_cli_sweep(op, rc, stdout, golden, tally)
        return
    with tally.unit(op.key) as u:
        u.expect(rc == 0, f"exit code {rc}: {stderr.strip()}")
        if check == "row":
            (row,) = _csv_rows(stdout)
            u.fields(row, golden["op"])
            if "eta_signal" in row:
                u.close("eta_signal vs w2/w1", row["eta_signal"],
                        row["w2_per_s"] / row["w1_signal_per_s"], TOL_IDENTITY, golden=False)
                u.close("eta_idler vs w2/w1", row["eta_idler"],
                        row["w2_per_s"] / row["w1_idler_per_s"], TOL_IDENTITY, golden=False)
        elif check == "correlation":
            meta, rows = _ndjson(stdout)
            want = golden["op"]
            u.close("gamma_eff", float(meta["gamma_eff_rad_s"]), want["gamma_eff"], TOL_QUAD)
            u.close("a_sq", float(meta["a_sq"]), want["a_sq"], TOL_QUAD)
            g_s, g_i = p["gamma_s_mhz"] * 2e6 * math.pi, p["gamma_i_mhz"] * 2e6 * math.pi
            peak = g_s * g_i / (2.0 * (g_s + g_i))
            tau = np.array([r["tau_s"] for r in rows])
            f_sq = np.array([r["abs_f_sq"] for r in rows])
            u.expect(len(rows) == 2001, f"{len(rows)} correlation rows")
            worst = max(abs(r["f_re"] - _lorentzian_f(r["tau_s"], g_s, g_i)) + abs(r["f_im"])
                        for r in rows)
            u.close("f vs closed form", worst, 0.0, 1e-9, scale=peak, golden=False)
            u.close("4 Int |f|^2 dtau", 4.0 * float(np.trapezoid(f_sq, tau)),
                    float(meta["gamma_eff_rad_s"]), TOL_TEMPORAL, golden=False)
            top = max(rows, key=lambda r: r["abs_f_sq"])
            u.close("prefactor", top["w2_density_per_s2"] / top["abs_f_sq"], want["prefactor"],
                    TOL_QUAD)


def _check_cli_sweep(op, rc, stdout, golden, tally):
    rows = _csv_rows(stdout) if rc == 0 else []
    with tally.unit(op.key) as u:
        u.expect(rc == 0, f"exit code {rc}")
    _check_count(op, rows, grid_size(op), tally)
    if not rows:
        return

    def col(name):
        return np.array([np.nan if r[name] is None else r[name] for r in rows], dtype=float)

    g_s = col("Gamma_s_MHz") * 2e6 * math.pi
    g_i = op.params["gamma_i_mhz"] * 2e6 * math.pi
    geff, w2 = col("gamma_eff_rad_s"), col("w2_per_s")
    want = golden["op"]
    tally.units(op.key, [
        ("error row", np.array([r["error"] is None for r in rows])),
        ("gamma_eff closed form", tally.close(geff, g_s * g_i / (g_s + g_i), TOL_IDENTITY,
                                              golden=False)),
        ("k_w2", tally.close(w2 / (col("P_p_mW") * geff), want["k_w2"], TOL_QUAD)),
        ("c_s", tally.close(col("eta_signal") * g_s / geff, want["c_s"], TOL_ETA)),
        ("c_i", tally.close(col("eta_idler") / geff, want["c_i"], TOL_ETA)),
    ])


def _check_validate(op, rc, stdout, golden, tally):
    rows = {r["name"]: r for r in _csv_rows(stdout)}
    with tally.unit(op.key) as u:
        u.expect(rc == 0, f"exit code {rc}")
        missing = [g["name"] for g in golden["units"] if g["name"] not in rows]
        u.expect(not missing, f"oracles missing: {missing}")
    gold = {g["name"]: g for g in golden["units"]}
    for name, row in rows.items():
        with tally.unit(f"{op.key}[{name}]") as u:
            u.expect(row["passed"] is True, f"oracle {name} failed")
            if name in gold:
                u.fields(row, gold[name])


_CHECKS = {
    "focus": _check_focus,
    "geometry": _check_geometry,
    "rates": _check_rates,
    "filter_design": _check_filter,
    "cli": _check_cli,
}
