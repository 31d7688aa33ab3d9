"""Self-tests of the benchmark harness.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import dataclasses
import itertools
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import inputs  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _golden(workload: str) -> dict:
    return json.loads((BENCH / "golden" / f"{workload}.json").read_text())["ops"]


def _prepared(workload: str, tmp_path: Path):
    catalog = inputs.catalog(workload)
    inputs.write_files(catalog, tmp_path)
    return catalog, workloads.prepare(catalog, tmp_path)


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload, tmp_path):
    a, b = inputs.catalog(workload), inputs.catalog(workload)
    assert a == b
    inputs.write_files(a, tmp_path / "a")
    inputs.write_files(b, tmp_path / "b")
    for rel in a.files:
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()

    def keys(seed):
        return [op.key for cycle in itertools.islice(inputs.schedule(a, seed), 10) for op in cycle]

    assert keys(3) == keys(3)
    assert keys(3) != keys(4)
    assert set(keys(3)) <= {op.key for op in a.ops()}


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_every_catalog_op_has_a_current_golden(workload):
    golden = _golden(workload)
    for op in inputs.catalog(workload).ops():
        assert golden[op.key]["sig"] == op.sig, op.key


def _geometry_op(catalog):
    return next(op for op in catalog.ops() if op.kind == "geometry" and op.params["order"] == 40)


@pytest.mark.parametrize("with_singles", [False, True], ids=["w2_only", "w2_and_singles"])
def test_perturbed_w2_is_one_failed_unit(tmp_path, with_singles):
    # Scaling the singles rates too keeps eta = W2 / W1 exact, so only the
    # golden comparison can catch it.
    catalog, runners = _prepared("sweep_grid", tmp_path)
    op = _geometry_op(catalog)
    golden = _golden("sweep_grid")[op.key]
    rows, exc, _ = workloads.execute(runners[op.key])
    assert exc is None

    clean = workloads.Tally()
    workloads.check(op, rows, None, golden, clean)
    assert clean.failed == 0
    assert clean.attempted == 1 + len(rows)

    k = len(rows) // 2
    report = rows[k].report
    scale = 1.0 + 1e-5
    changes = {"pair_rate_w2": report.pair_rate_w2 * scale}
    if with_singles:
        changes["singles_rate_signal"] = report.singles_rate_signal * scale
        changes["singles_rate_idler"] = report.singles_rate_idler * scale
    bad = dataclasses.replace(report, **changes)
    rows = rows[:k] + [dataclasses.replace(rows[k], report=bad)] + rows[k + 1 :]
    tally = workloads.Tally()
    workloads.check(op, rows, None, golden, tally)
    assert (tally.attempted, tally.failed) == (clean.attempted, 1)
    assert f"[{k}]" in tally.notes[0]


def test_raising_op_is_counted_and_the_run_goes_on(tmp_path):
    catalog, runners = _prepared("sweep_grid", tmp_path)
    op = _geometry_op(catalog)
    golden = _golden("sweep_grid")[op.key]

    def boom():
        raise RuntimeError("boom")

    tally = workloads.Tally()
    out, exc, _ = workloads.execute(boom)
    assert out is None and isinstance(exc, RuntimeError)
    workloads.check(op, out, exc, golden, tally)
    assert tally.failed == tally.attempted == 1 + workloads.grid_size(op)

    rows, exc, _ = workloads.execute(runners[op.key])
    workloads.check(op, rows, exc, golden, tally)
    assert tally.failed == 1 + workloads.grid_size(op)
    assert tally.attempted == 2 * (1 + workloads.grid_size(op))


def test_op_without_a_matching_golden_fails():
    op = inputs.catalog("focus_opt").ops()[0]
    tally = workloads.Tally()
    workloads.check(op, object(), None, {"sig": "stale"}, tally)
    assert tally.failed == 1


def test_self_time_of_a_synthetic_span_tree():
    # root 0..10 with children 1..4 and 5..6; child 1..4 has a grandchild
    # 2..3; a second root 11..12.
    spans = [
        [0, 0.0, 10.0, -1, 0],
        [1, 1.0, 4.0, 0, 0],
        [1, 5.0, 6.0, 0, 0],
        [2, 2.0, 3.0, 1, 0],
        [0, 11.0, 12.0, -1, 1],
    ]
    own = tracing.self_times(spans)
    assert own == pytest.approx([6.0, 2.0, 1.0, 1.0, 1.0])
    assert sum(own) == pytest.approx(10.0 + 1.0)
    # Overlapping children cover their union once.
    assert tracing.self_times([[0, 0.0, 10.0, -1, 0], [1, 1.0, 4.0, 0, 0], [1, 3.0, 6.0, 0, 0]])[0] == (
        pytest.approx(5.0)
    )


@pytest.mark.parametrize(
    "n, index, percentile",
    [(100, 89, 90.0), (263, 252, 100.0 * 253 / 263), (11, 0, 100.0 / 11), (10, 9, 100.0), (1, 0, 100.0)],
)
def test_tail_percentile_leaves_ten_samples_beyond(n, index, percentile):
    samples = [float(k) for k in range(n)][::-1]
    value, pct, count = stats.tail(samples)
    assert (value, count) == (float(index), n)
    assert pct == pytest.approx(percentile)
    if n > stats.TAIL_BEYOND:
        assert sum(s > value for s in samples) == stats.TAIL_BEYOND


def test_tracer_sees_every_call(tmp_path):
    catalog, runners = _prepared("focus_opt", tmp_path)
    cli_catalog, cli_runners = _prepared("cli_session", tmp_path / "cli")
    import spdckit.optimizer
    import spdckit.overlap

    original = spdckit.overlap.upsilon
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert spdckit.optimizer.upsilon is not original
        ops = [op for op in catalog.ops() if op.params["r_k"] != 0.0][:2]
        for k, op in enumerate(ops):
            _, exc, _ = tracer.run_op(k, runners[op.key])
            assert exc is None
        m = tracing.layer_metrics(tracer)
        assert m["optimizer.optimize_focus.calls"] == 2
        assert m["overlap.upsilon.calls"] == m["optimizer.optimize_focus.merit_evals"]
        assert m["quadrature.integrate.calls"] == m["overlap.upsilon.calls"]
        assert m["quadrature.integrate.evals"] == 15 * (2 * m["quadrature.integrate.panels"]
                                                        - m["quadrature.integrate.calls"])

        # The CLI reaches optimize_focus through its own binding.
        cli_op = next(op for op in cli_catalog.ops() if op.key.endswith("/optimize"))
        _, exc, _ = tracer.run_op(len(ops), cli_runners[cli_op.key])
        assert exc is None
    finally:
        tracer.uninstall()
    assert spdckit.optimizer.upsilon is original
    m = tracing.layer_metrics(tracer)
    assert m["optimizer.optimize_focus.calls"] == 3
    assert m["cli.main.calls"] == m["cli.emit.calls"] == 1
    roots = sum(s[2] - s[1] for s in tracer.spans if s[3] == -1)
    assert sum(v for k, v in m.items() if k.endswith(".self_s")) == pytest.approx(roots, rel=1e-9)
