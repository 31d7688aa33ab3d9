"""Outside-in tracing of spdckit's public functions.

The tracer wraps each listed function at every module binding inside the
package (``optimizer`` imports ``upsilon`` by name, ``cli`` and
``validation`` import ``optimize_focus`` by name, and so on), so every call
records a span whatever route it takes. A span holds its name, start, end,
parent span and op id; spans stay in memory until the run ends. A span's
self time is its duration minus the part its child spans cover. Counts are
read from the returned objects.
"""

from __future__ import annotations

import gzip
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

PACKAGE = "spdckit"
ROOT = "bench.op"  # span of one whole op, opened by the benchmark


def _count_integrate(c, r, args, kwargs):
    c["panels"] += r.n_panels
    c["evals"] += r.n_evaluations
    c["values"] += int(np.size(r.value))


def _count_optimize(c, r, args, kwargs):
    c["merit_evals"] += r.evaluations
    c["converged"] += bool(r.converged)


def _count_sweep(c, r, args, kwargs):
    c["points"] += len(r)
    c["error_rows"] += sum(row.error is not None for row in r)


def _count_evaluate(c, r, args, kwargs):
    c["overlap_reuse"] += kwargs.get("overlaps") is not None


def _count_oracles(c, r, args, kwargs):
    c["oracles"] += len(r)
    c["oracles_passed"] += sum(bool(x.passed) for x in r)


def _count_emit(c, r, args, kwargs):
    c["rows"] += len(args[0] if args else kwargs["rows"])


def _count_orders(c, r, args, kwargs):
    c["orders"] += len(r.terms)


def _count_tau(c, r, args, kwargs):
    c["tau_points"] += len(r.tau)


def _count_table(c, r, args, kwargs):
    c["rows"] += len(r.omega)


# (module, function, span name, counter). The four q_* efficiencies share
# one span name.
TARGETS = (
    ("quadrature", "integrate", "quadrature.integrate", _count_integrate),
    ("overlap", "upsilon", "overlap.upsilon", None),
    ("overlap", "i_sfg_gaussian", "overlap.i_sfg_gaussian", None),
    ("modebasis", "i_dfg_sq", "modebasis.i_dfg_sq", _count_orders),
    ("modebasis", "i_apg_sq", "modebasis.i_apg_sq", None),
    ("optimizer", "optimize_focus", "optimizer.optimize_focus", _count_optimize),
    ("optimizer", "sweep", "optimizer.sweep", _count_sweep),
    ("quantum", "compute_overlaps", "quantum.compute_overlaps", None),
    ("quantum", "evaluate_source", "quantum.evaluate_source", _count_evaluate),
    ("classical", "q_sfg", "classical.q", None),
    ("classical", "q_shg", "classical.q", None),
    ("classical", "q_dfg", "classical.q", None),
    ("classical", "q_apg", "classical.q", None),
    ("filters", "gamma_eff_pair", "filters.gamma_eff_pair", None),
    ("filters", "gamma_eff_single", "filters.gamma_eff_single", None),
    ("filters", "correlation_shape", "filters.correlation_shape", _count_tau),
    ("filters", "load_filter_table", "filters.load_filter_table", _count_table),
    ("config", "load_and_build", "config.load_and_build", None),
    ("materials", "get_material", "materials.get_material", None),
    ("validation", "run_all_oracles", "validation.run_all_oracles", _count_oracles),
    ("cli", "main", "cli.main", None),
    ("cli", "emit", "cli.emit", _count_emit),
)

SPAN_NAMES = tuple(dict.fromkeys([ROOT] + [t[2] for t in TARGETS]))


class Tracer:
    """Span recorder; install() patches the package, uninstall() restores it."""

    def __init__(self) -> None:
        self.names = list(SPAN_NAMES)
        self._name_id = {n: k for k, n in enumerate(self.names)}
        self.spans: list[list] = []  # [name id, start, end, parent, op]
        self.counts: dict[str, defaultdict] = {n: defaultdict(int) for n in self.names}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.op_id = -1

    def _wrap(self, fn, name: str, counter):
        nid = self._name_id[name]
        spans, stack, counts = self.spans, self._stack, self.counts[name]

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [nid, perf_counter(), 0.0, stack[-1] if stack else -1, self.op_id]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                counts["errors"] += 1
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
            if counter is not None:
                counter(counts, result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for mod_name, attr, name, counter in TARGETS:
            # A function a later version removes is traced as never called.
            original = getattr(sys.modules.get(f"{PACKAGE}.{mod_name}"), attr, None)
            if original is None:
                continue
            wrapper = self._wrap(original, name, counter)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patches):
            setattr(mod, key, original)
        self._patches.clear()

    def run_op(self, op_id: int, fn):
        """Run one op under a root span; returns (result, exception, seconds)."""
        self.op_id = op_id
        root = self._wrap(fn, ROOT, None)
        t0 = perf_counter()
        try:
            return root(), None, perf_counter() - t0
        except Exception as exc:
            return None, exc, perf_counter() - t0

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id,name,start,end,parent,op\n")
            for k, (nid, start, end, parent, op) in enumerate(self.spans):
                fh.write(f"{k},{self.names[nid]},{start!r},{end!r},{parent},{op}\n")


def self_times(spans) -> list[float]:
    """Per span: duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for k, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(k)
    out = []
    for k, span in enumerate(spans):
        start, end = span[1], span[2]
        covered = 0.0
        cur_lo = cur_hi = None
        for c in sorted(children.get(k, ()), key=lambda c: spans[c][1]):
            lo, hi = max(spans[c][1], start), min(spans[c][2], end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics named <module>.<function>.<stat>."""
    calls = defaultdict(int)
    self_s = defaultdict(float)
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        name = tracer.names[span[0]]
        calls[name] += 1
        self_s[name] += own
    c = tracer.counts
    m = {}
    for name in SPAN_NAMES:
        key = "bench" if name == ROOT else name
        m[f"{key}.self_s"] = self_s[name]
        if name != ROOT:
            m[f"{key}.calls"] = calls[name]
    q = c["quadrature.integrate"]
    m.update({
        "quadrature.integrate.panels": q["panels"],
        "quadrature.integrate.evals": q["evals"],
        "quadrature.integrate.values": q["values"],
        "quadrature.integrate.errors": q["errors"],
        "modebasis.i_dfg_sq.orders": c["modebasis.i_dfg_sq"]["orders"],
        "modebasis.i_dfg_sq.errors": c["modebasis.i_dfg_sq"]["errors"],
        "optimizer.optimize_focus.merit_evals": c["optimizer.optimize_focus"]["merit_evals"],
        "optimizer.optimize_focus.converged_ratio": _ratio(
            c["optimizer.optimize_focus"]["converged"], calls["optimizer.optimize_focus"]),
        "optimizer.sweep.points": c["optimizer.sweep"]["points"],
        "optimizer.sweep.error_rows": c["optimizer.sweep"]["error_rows"],
        "quantum.evaluate_source.overlap_reuse": _ratio(
            c["quantum.evaluate_source"]["overlap_reuse"], calls["quantum.evaluate_source"]),
        "filters.correlation_shape.tau_points": c["filters.correlation_shape"]["tau_points"],
        "filters.load_filter_table.rows": c["filters.load_filter_table"]["rows"],
        "validation.oracles.passed_ratio": _ratio(
            c["validation.run_all_oracles"]["oracles_passed"],
            c["validation.run_all_oracles"]["oracles"]),
        "cli.emit.rows": c["cli.emit"]["rows"],
    })
    return m
