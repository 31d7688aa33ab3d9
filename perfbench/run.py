"""Benchmark runner for spdckit.

Run from the root of a checkout:

    python3 perfbench/run.py --workload focus_opt --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Load model: a closed loop with one client in one process, no worker
threads; the next op starts when the previous one returns. Each workload
runs in a fresh process, so set-up includes ``import spdckit``. Inputs are
made by inputs.py from the seed; every op is checked by workloads.py.

--trace 0 measures the end-to-end metrics op after op until --seconds of
busy time have passed, with times scaled to a reference machine speed by
calibrate.py; the run length is counted at that speed too, up to
RAW_BUSY_CAP times --seconds of measured busy time.
--trace 1 runs a fixed number of catalog cycles untraced, then the same ops
traced (tracing.py), and reports the per-layer metrics and the overhead.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# The load model has no worker threads. Idle BLAS threads also keep
# spinning after a call and slow whatever runs next on a 2-core host.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from inputs import WORKLOADS  # noqa: E402  (standard library only)

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 5  # set-ups per run: this process plus four fresh ones
# Catalog cycles in a traced run: a fixed op list, so that the counts of a
# seed repeat exactly. Each pass takes 5-10 s at the commit that defined
# the benchmark.
TRACE_CYCLES = {"focus_opt": 2, "sweep_grid": 8, "filter_chain": 2, "cli_session": 6}
# A timed run stops at this multiple of --seconds of measured busy time even
# if the machine is so slow that less has passed at the reference speed.
RAW_BUSY_CAP = 1.25
# Workloads whose ops are nearly all a large-array spectral sum; their op
# times are scaled by calibrate.block_kernel (see calibrate.py).
BLOCK_CALIBRATED = {"filter_chain"}
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_s.p50", "s"),
    ("op_s.tail", "s"),
    ("peak_rss_mb", "MB"),
)


def _parse(argv):
    p = argparse.ArgumentParser(description="spdckit benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def setup(workload: str, seed: int, root: Path):
    """Import, input generation and config build; returns its time first."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(root / "src"))
    import spdckit  # noqa: F401  (import time is part of set-up)

    import inputs
    import workloads

    catalog = inputs.catalog(workload)
    scratch = root / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=scratch))
    inputs.write_files(catalog, tmp)
    runners = workloads.prepare(catalog, tmp)
    cycles = inputs.schedule(catalog, seed)
    return time.perf_counter() - t0, runners, cycles, tmp


def _probe_setup(workload: str, seed: int, root: Path) -> float:
    res = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--setup-probe"],
        cwd=root, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(res.stdout.strip().splitlines()[-1])["setup_s"]


def _load_goldens(workload: str) -> dict:
    path = HERE / "golden" / f"{workload}.json"
    return json.loads(path.read_text(encoding="utf-8"))["ops"] if path.is_file() else {}


def _scaled_setup(setup_s: float) -> float:
    import calibrate

    speed = calibrate.SpeedLog()
    speed.measure(calibrate.NEAREST)
    return setup_s * speed.scale(speed.times[-1])


def _timed(args, root: Path) -> dict:
    setup_s, runners, cycles, tmp = setup(args.workload, args.seed, root)
    import calibrate
    import stats
    import workloads

    try:
        setups = [_scaled_setup(setup_s)] + [
            _probe_setup(args.workload, args.seed, root) for _ in range(SETUP_SAMPLES - 1)
        ]
        goldens = _load_goldens(args.workload)
        tally = workloads.Tally()
        if args.workload in BLOCK_CALIBRATED:
            speed = calibrate.SpeedLog(calibrate.block_kernel, calibrate.BLOCK_REFERENCE_S)
        else:
            speed = calibrate.SpeedLog()
        speed.measure(calibrate.NEAREST)
        stamps, raw = [], []
        # Op by op until --seconds of busy time at the reference speed, so
        # that the op count follows the program's speed, not the machine's.
        # A run of filter_chain holds about 20 one-second ops; stopping on
        # measured time after whole four-op cycles made its op count jump
        # between 20 and 24 with machine speed, which moved op_s.tail
        # between the 50th and the 58th percentile.
        ops = (op for cycle in cycles for op in cycle)
        busy = raw_busy = 0.0
        while busy < args.seconds and raw_busy < RAW_BUSY_CAP * args.seconds:
            op = next(ops)
            speed.maybe_measure()
            out, exc, dt = workloads.execute(runners[op.key])
            now = time.perf_counter()
            stamps.append(now - 0.5 * dt)
            raw.append(dt)
            raw_busy += dt
            busy += dt * speed.scale(now)
            workloads.check(op, out, exc, goldens.get(op.key), tally)
            del out
        speed.measure(calibrate.NEAREST)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    latencies = [dt * speed.scale(t) for t, dt in zip(stamps, raw)]
    tail, pct, n = stats.tail(latencies)
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": n / sum(latencies),
        "op_s.p50": statistics.median(latencies),
        "op_s.tail": tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print(f"workload {args.workload}, seed {args.seed}: {n} ops in {sum(raw):.2f} s busy "
          f"(unscaled: {n / sum(raw):.6g} ops/s, p50 {statistics.median(raw):.6g} s), "
          f"{len(setups)} set-ups, times scaled to the reference speed by "
          f"{sum(latencies) / sum(raw):.4f}")
    for name, unit in END_TO_END:
        extra = f"  (p{pct:.1f} of n={n})" if name == "op_s.tail" else ""
        print(f"  {name:<12} {values[name]:.6g} {unit}{extra}")
    print(f"  {'failed_frac':<12} {tally.failed / max(tally.attempted, 1):.6g}  "
          f"({tally.failed} of {tally.attempted} units)")
    return _result(tally, {name: (values[name], unit) for name, unit in END_TO_END})


def _traced(args, root: Path) -> dict:
    _, runners, cycles, tmp = setup(args.workload, args.seed, root)
    import tracing
    import workloads

    try:
        goldens = _load_goldens(args.workload)
        tally = workloads.Tally()
        op_list = [op for _ in range(TRACE_CYCLES[args.workload]) for op in next(cycles)]
        untraced = 0.0
        for op in op_list:
            out, exc, dt = workloads.execute(runners[op.key])
            untraced += dt
            workloads.check(op, out, exc, goldens.get(op.key), tally)
            del out
        tracer = tracing.Tracer()
        tracer.install()
        traced = 0.0
        try:
            for k, op in enumerate(op_list):
                out, exc, dt = tracer.run_op(k, runners[op.key])
                traced += dt
                workloads.check(op, out, exc, goldens.get(op.key), tally)
                del out
        finally:
            tracer.uninstall()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    layers = tracing.layer_metrics(tracer)
    layers["trace.wall_s"] = traced
    layers["trace.overhead_s"] = traced - untraced
    layers["accuracy.max_rel_dev"] = tally.max_rel_dev
    layers["accuracy.failed_frac"] = tally.failed / max(tally.attempted, 1)
    tracer.write(root / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.csv.gz")
    self_sum = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    print(f"workload {args.workload}, seed {args.seed}: {len(op_list)} ops traced, "
          f"{len(tracer.spans)} spans, self times sum to {self_sum:.6f} s of {traced:.6f} s")
    for name in sorted(layers):
        print(f"  {name:<42} {layers[name]:.6g}")
    return _result(tally, {name: (value, _layer_unit(name)) for name, value in layers.items()})


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_reuse", "_dev", "_frac")):
        return "ratio"
    return "count"


def _result(tally, metrics: dict) -> dict:
    if tally.notes:
        print("failed units (first few):", *tally.notes, sep="\n  ", file=sys.stderr)
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def _run_all(args, root: Path) -> int:
    """Every workload in its own process; prints all metrics per workload."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        res = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=root, capture_output=True, text=True, timeout=900,
        )
        lines = res.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(res.stderr)
        if res.returncode != 0 or not lines:
            print(f"workload {workload}: exit code {res.returncode}")
            total["correct"] = False
            continue
        one = json.loads(lines[-1])
        total["correct"] = total["correct"] and one["correct"]
        total["attempted"] += one["attempted"]
        total["failed"] += one["failed"]
        for name, metric in one["metrics"].items():
            total["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(total))
    return 0 if total["correct"] else 1


def main(argv=None) -> int:
    args = _parse(argv)
    root = Path.cwd()
    if not (root / "src" / "spdckit" / "__init__.py").is_file():
        print("error: run from the root of an spdckit checkout (no src/spdckit here)",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args, root)
    if args.setup_probe:
        setup_s, _, _, tmp = setup(args.workload, args.seed, root)
        shutil.rmtree(tmp, ignore_errors=True)
        print(json.dumps({"setup_s": _scaled_setup(setup_s)}))
        return 0
    result = _traced(args, root) if args.trace else _timed(args, root)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
