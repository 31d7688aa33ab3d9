"""Focusing optimizer and the parameter sweep engine."""

import dataclasses
import itertools
import math
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from spdckit import classical, config, filters, optimizer, quantum
from spdckit.optimizer import (
    AXIS_NAMES,
    OptimizationResult,
    SweepAxis,
    focusing_objective,
    optimize_focus,
    sweep,
)
from spdckit.quantities import CrystalSpec, OpticalWave, WaveTriple, derive_focus_params

MHZ = 2.0 * math.pi * 1e6


def test_focusing_objective_definition():
    from spdckit.overlap import upsilon
    from spdckit.quantities import FocusParams

    fp = FocusParams(kappa=-3.0, zeta_r=0.18, r_k=0.04)
    assert math.isclose(
        focusing_objective(-3.0, 0.18, 0.04), 0.18 * upsilon(fp).abs_sq, rel_tol=1e-12
    )


def test_optimum_at_rk_zero():
    result = optimize_focus(0.0, restarts=2)
    assert result.converged
    # Frozen optimum of the r_k = 0 merit surface.
    assert math.isclose(result.best_kappa, -3.2551381268144852, rel_tol=1e-3)
    assert math.isclose(result.best_zeta_r, 0.17621026850753807, rel_tol=1e-3)
    assert math.isclose(result.best_objective, 0.05409157912385302, rel_tol=1e-6)


def test_optimum_at_rk_004():
    result = optimize_focus(0.04, restarts=2)
    assert result.converged
    assert math.isclose(result.best_kappa, -3.0187746361960057, rel_tol=1e-3)
    assert math.isclose(result.best_zeta_r, 0.17775037423162615, rel_tol=1e-3)
    assert math.isclose(result.best_objective, 0.053930016675488905, rel_tol=1e-6)


def test_optimizer_deterministic():
    a = optimize_focus(0.04, restarts=1)
    b = optimize_focus(0.04, restarts=1)
    assert a.best_kappa == b.best_kappa
    assert a.evaluations == b.evaluations
    assert a.trace == b.trace


def test_trace_is_complete_and_consistent():
    result = optimize_focus(0.0, restarts=0)
    assert len(result.trace) == result.evaluations
    best_seen = max(t[2] for t in result.trace)
    assert result.best_objective == best_seen
    # Every trace point stays inside the search box (merit sees clipped points).
    for kappa, zeta_r, _ in result.trace:
        assert -20.0 - 1e-9 <= kappa <= 5.0 + 1e-9
        assert 0.02 - 1e-9 <= zeta_r <= 5.0 + 1e-9


def test_single_point_box():
    result = optimize_focus(0.0, kappa_bounds=(-3.0, -3.0), zeta_bounds=(0.18, 0.18))
    assert result.evaluations == 1
    assert result.best_kappa == -3.0
    assert result.best_zeta_r == 0.18
    assert result.converged


def test_optimize_focus_validation():
    with pytest.raises(ValueError, match="r_k"):
        optimize_focus(1.0)
    with pytest.raises(ValueError, match="ordered"):
        optimize_focus(0.0, kappa_bounds=(5.0, -5.0))
    with pytest.raises(ValueError, match=">= 0.01"):
        optimize_focus(0.0, zeta_bounds=(1e-4, 5.0))
    with pytest.raises(ValueError, match="rel_tol"):
        optimize_focus(0.0, rel_tol=0.0)
    with pytest.raises(ValueError, match="restarts"):
        optimize_focus(0.0, restarts=-1)


@pytest.mark.parametrize(
    "kwargs, match",
    [
        ({"restarts": 100_000_000}, "restarts must be from 0 to 1000, got 100000000"),
        ({"restarts": 1001}, "restarts must be from 0 to 1000, got 1001"),
        ({"seed": -1}, "seed must be >= 0, got -1"),
    ],
)
@pytest.mark.parametrize("box", [{}, {"kappa_bounds": (-3.0, -3.0), "zeta_bounds": (0.18, 0.18)}])
def test_optimize_focus_bounds_restarts_and_seed(monkeypatch, kwargs, match, box):
    # 1e8 restarts used to run without end while the trace grew, and seed -1
    # failed inside numpy with "expected non-negative integer". Both are
    # refused before the first merit evaluation, also for a one-point box.
    def no_evaluation(*args):
        raise AssertionError("merit evaluated")

    monkeypatch.setattr(optimizer, "_objective", no_evaluation)
    with pytest.raises(ValueError, match=match):
        optimize_focus(0.0, **box, **kwargs)


def test_optimize_focus_takes_the_largest_restart_count():
    result = optimize_focus(0.0, kappa_bounds=(-3.0, -3.0), zeta_bounds=(0.18, 0.18),
                            restarts=1000, seed=0)
    assert len(result.trace) == 1


@pytest.mark.parametrize(
    "kwargs, match",
    [
        ({"kappa_bounds": (-20.0, math.nan)}, r"kappa_bounds must be finite, got \(-20.0, nan\)"),
        ({"kappa_bounds": (-math.inf, 5.0)}, r"kappa_bounds must be finite, got \(-inf, 5.0\)"),
        ({"kappa_bounds": (-1e308, 1e308)}, "kappa_bounds must be finite"),
        ({"zeta_bounds": (0.02, math.inf)}, r"zeta_bounds must be finite, got \(0.02, inf\)"),
        ({"zeta_bounds": (math.nan, 5.0)}, "zeta_bounds must be finite"),
        ({"rel_tol": math.nan}, "rel_tol must be finite and positive, got nan"),
        ({"rel_tol": math.inf}, "rel_tol must be finite and positive, got inf"),
    ],
)
@pytest.mark.parametrize("restarts", [0, 2])
def test_optimize_focus_rejects_non_finite_inputs(kwargs, match, restarts):
    # A nan bound used to run 2000 evaluations to a bogus point, an infinite
    # (or overflowing) span to fail inside numpy's uniform draw, and a nan
    # rel_tol to pass the positivity check.
    with pytest.raises(ValueError, match=match):
        optimize_focus(0.0, restarts=restarts, **kwargs)


def test_focusing_objective_checks_its_arguments():
    for args, match in [
        ((-3.0, 0.0, 0.0), "zeta_r must be positive"),
        ((-3.0, 0.18, -1.0), "r_k"),
        ((math.nan, 0.18, 0.0), "must be finite"),
        ((-3.0, math.inf, 0.0), "must be finite"),
    ]:
        with pytest.raises(ValueError, match=match):
            focusing_objective(*args)


def test_optimization_result_invariants():
    with pytest.raises(ValueError, match="below a traced"):
        OptimizationResult(
            best_kappa=0.0,
            best_zeta_r=0.1,
            best_objective=0.5,
            converged=True,
            trace=((0.0, 0.1, 0.9),),
        )


def _scipy_reference(
    r_k, kappa_bounds=(-20.0, 5.0), zeta_bounds=(0.02, 5.0), rel_tol=1e-6, restarts=5, seed=7
):
    """optimize_focus written on scipy's Nelder-Mead: the same starts, the
    same pull-back merit, the merit built from FocusParams and upsilon."""
    from scipy import optimize as sp_optimize

    from spdckit.overlap import upsilon
    from spdckit.quantities import FocusParams

    k_lo, k_hi = map(float, kappa_bounds)
    z_lo, z_hi = map(float, zeta_bounds)
    trace = []

    def merit(kappa, zeta_r):
        value = zeta_r * upsilon(FocusParams(kappa, zeta_r, r_k)).abs_sq
        trace.append((float(kappa), float(zeta_r), float(value)))
        return value

    k_span = max(k_hi - k_lo, 1e-9)
    z_span = max(z_hi - z_lo, 1e-9)

    def neg_merit(x):
        kc = min(max(x[0], k_lo), k_hi)
        zc = min(max(x[1], z_lo), z_hi)
        dist = np.hypot((x[0] - kc) / k_span, (x[1] - zc) / z_span)
        return -merit(kc, zc) + dist

    rng = np.random.default_rng(seed)
    starts = [(min(max(-3.0, k_lo), k_hi), min(max(0.18, z_lo), z_hi))]
    for _ in range(restarts):
        cand_k = rng.uniform(k_lo, k_hi, optimizer._PRESAMPLES)
        cand_z = rng.uniform(z_lo, z_hi, optimizer._PRESAMPLES)
        values = [merit(ck, cz) for ck, cz in zip(cand_k, cand_z)]
        j = int(np.argmax(values))
        starts.append((cand_k[j], cand_z[j]))

    finals = []
    clean = True
    for x0 in starts:
        res = sp_optimize.minimize(
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
    return OptimizationResult(best_k, best_z, best_f, converged, tuple(trace))


def _assert_same_run(got, ref):
    assert got.trace == ref.trace
    assert got.converged == ref.converged
    assert got.best_kappa == ref.best_kappa
    assert got.best_zeta_r == ref.best_zeta_r
    assert got.best_objective == ref.best_objective


_ORACLE_RKS = [float(r) for r in np.random.default_rng(2008).uniform(-0.9, 0.9, 40)]


@pytest.mark.parametrize("r_k", _ORACLE_RKS)
def test_optimize_focus_takes_scipy_steps(r_k):
    # Every merit evaluation, in order, bit for bit: the optimum feeds the
    # absolute rates, so the search must not move by a rounding.
    _assert_same_run(optimize_focus(r_k), _scipy_reference(r_k))


@pytest.mark.parametrize(
    "kwargs",
    [
        {"kappa_bounds": (-3.0, -3.0)},
        {"rel_tol": 1e-12},
        {"rel_tol": 1e-300, "restarts": 1},
    ],
    ids=["one-axis-box", "tight-tol", "maxfev"],
)
def test_optimize_focus_edge_boxes_take_scipy_steps(kwargs):
    got = optimize_focus(0.0, **kwargs)
    _assert_same_run(got, _scipy_reference(0.0, **kwargs))
    if kwargs.get("rel_tol") == 1e-300:
        # fatol 1e-303 is never met: each start stops at maxfev = 2000.
        assert not got.converged
        assert got.evaluations == 2000 * 2 + optimizer._PRESAMPLES


def test_sweep_axis_parse():
    axis = SweepAxis.parse("kappa=-10:2:4")
    assert axis.name == "kappa"
    assert np.allclose(axis.values, [-10.0, -6.0, -2.0, 2.0])
    single = SweepAxis.parse("P_p=5:5:1")
    assert single.values == (5.0,)
    for bad in ["kappa", "kappa=1:2", "kappa=a:2:3", "kappa=1:2:0", "waist=1:2:3"]:
        with pytest.raises(ValueError):
            SweepAxis.parse(bad)
    assert set(AXIS_NAMES) == {"kappa", "zeta_R", "R_k", "z_R", "Gamma_s", "Gamma_i", "P_p"}


@pytest.mark.parametrize("text", ["P_p=1:inf:3", "P_p=-inf:1:3", "kappa=nan:2:3", "R_k=0:nan:1"])
def test_sweep_axis_parse_rejects_non_finite_endpoints(text):
    with pytest.raises(ValueError, match="needs a finite start and stop"):
        SweepAxis.parse(text)


@pytest.mark.parametrize("count", [0, 10**13])
def test_sweep_axis_parse_rejects_a_count_outside_the_grid_limit(count):
    # 10**13 points would need 73 TiB: the count is refused before linspace.
    limit = optimizer._MAX_SWEEP_POINTS
    with pytest.raises(ValueError, match=f"needs a count from 1 to {limit}$"):
        SweepAxis.parse(f"P_p=0.1:1:{count}")


def test_sweep_axis_rejects_non_finite_values():
    with pytest.raises(ValueError, match="sweep axis Gamma_s needs finite values, got inf"):
        SweepAxis("Gamma_s", (1.0, math.inf))


@pytest.fixture(scope="module")
def sweep_setup():
    waves = WaveTriple.from_wavelengths(800e-9, 800e-9, 1.844, 1.757, 1.964)
    length = 1e-2
    poling = 2.0 * math.pi / (waves.k_minus0 + 3.0 / length)
    crystal = CrystalSpec(length=length, d_eff=2.4e-12, poling_period=poling)
    z_r = 0.18 * length
    flt = filters.LorentzianFilter(2.0 * MHZ)
    return waves, crystal, z_r, flt


def test_sweep_power_axis_is_linear(sweep_setup):
    waves, crystal, z_r, flt = sweep_setup
    axis = SweepAxis("P_p", (1e-3, 2e-3, 4e-3))
    rows = sweep(waves, crystal, z_r, flt, flt, 1e-3, [axis])
    assert len(rows) == 3
    w2 = [row.report.pair_rate_w2 for row in rows]
    assert math.isclose(w2[1], 2.0 * w2[0], rel_tol=1e-12)
    assert math.isclose(w2[2], 4.0 * w2[0], rel_tol=1e-12)
    assert rows[0].coords == {"P_p": 1e-3}
    assert rows[0].error is None


def test_sweep_matches_direct_evaluation(sweep_setup):
    waves, crystal, z_r, flt = sweep_setup
    gamma_axis = SweepAxis("Gamma_s", (1.0 * MHZ, 3.0 * MHZ))
    rows = sweep(waves, crystal, z_r, flt, flt, 1e-3, [gamma_axis])
    fp = derive_focus_params(waves, crystal, z_r)
    for row, gamma in zip(rows, gamma_axis.values):
        direct = quantum.evaluate_source(
            waves, crystal, fp, filters.LorentzianFilter(gamma), flt, 1e-3
        )
        assert math.isclose(row.report.pair_rate_w2, direct.pair_rate_w2, rel_tol=1e-12)


def test_sweep_2d_grid_order(sweep_setup):
    waves, crystal, z_r, flt = sweep_setup
    rows = sweep(
        waves,
        crystal,
        z_r,
        flt,
        flt,
        1e-3,
        [SweepAxis("P_p", (1e-3, 2e-3)), SweepAxis("Gamma_s", (1.0 * MHZ, 3.0 * MHZ))],
    )
    # First axis outermost, itertools.product order.
    coords = [(row.coords["P_p"], row.coords["Gamma_s"]) for row in rows]
    assert coords == [
        (1e-3, 1.0 * MHZ),
        (1e-3, 3.0 * MHZ),
        (2e-3, 1.0 * MHZ),
        (2e-3, 3.0 * MHZ),
    ]


def test_sweep_kappa_axis_retunes_poling(sweep_setup):
    waves, crystal, z_r, flt = sweep_setup
    rows = sweep(waves, crystal, z_r, flt, flt, 1e-3, [SweepAxis("kappa", (-3.0,))])
    fp = derive_focus_params(waves, crystal, z_r)
    direct = quantum.evaluate_source(waves, crystal, fp, flt, flt, 1e-3)
    # kappa = -3 rebuilds the same poling as the fixture crystal.
    assert math.isclose(
        rows[0].report.pair_rate_w2, direct.pair_rate_w2, rel_tol=1e-9
    )


def test_sweep_zeta_and_rk_axes(sweep_setup):
    waves, crystal, z_r, flt = sweep_setup
    rows = sweep(
        waves, crystal, z_r, flt, flt, 1e-3, [SweepAxis("zeta_R", (0.18, 0.25))]
    )
    assert all(row.report is not None for row in rows)
    # Tighter focus at the merit optimum beats looser here.
    rows_rk = sweep(waves, crystal, z_r, flt, flt, 1e-3, [SweepAxis("R_k", (0.04,))])
    assert rows_rk[0].report is not None


def test_sweep_error_rows_do_not_abort(sweep_setup):
    waves, crystal, z_r, flt = sweep_setup
    # Gamma_s = 0 is an invalid filter; the point must fail alone.
    rows = sweep(waves, crystal, z_r, flt, flt, 1e-3, [SweepAxis("Gamma_s", (0.0, MHZ))])
    assert rows[0].report is None
    assert "gamma" in rows[0].error
    assert rows[1].report is not None


def test_sweep_validation(sweep_setup):
    waves, crystal, z_r, flt = sweep_setup
    ax = SweepAxis("P_p", (1e-3,))
    with pytest.raises(ValueError, match="one or two"):
        sweep(waves, crystal, z_r, flt, flt, 1e-3, [])
    with pytest.raises(ValueError, match="distinct"):
        sweep(waves, crystal, z_r, flt, flt, 1e-3, [ax, ax])
    big = SweepAxis("P_p", tuple(np.linspace(1e-3, 2e-3, 1001)))
    big2 = SweepAxis("Gamma_s", tuple(np.linspace(MHZ, 2 * MHZ, 1001)))
    with pytest.raises(ValueError, match="exceeds"):
        sweep(waves, crystal, z_r, flt, flt, 1e-3, [big, big2])


def test_rate_only_sweep_rows_equal_direct_evaluation(sweep_setup):
    # A rate-only grid derives its focus parameters and overlaps once; every
    # row must still be exactly the report evaluate_source gives at its point.
    waves, crystal, z_r, flt = sweep_setup
    axes = [SweepAxis("P_p", (1e-3, 2.5e-3)), SweepAxis("Gamma_i", (1.0 * MHZ, 4.0 * MHZ))]
    rows = sweep(waves, crystal, z_r, flt, flt, 1e-3, axes)
    fp = derive_focus_params(waves, crystal, z_r)
    overlaps = quantum.compute_overlaps(waves, crystal, fp)
    assert len(rows) == 4
    for row in rows:
        direct = quantum.evaluate_source(
            waves,
            crystal,
            fp,
            flt,
            filters.LorentzianFilter(row.coords["Gamma_i"]),
            row.coords["P_p"],
            overlaps=overlaps,
        )
        assert row.report == direct


def test_geometry_sweep_rows_equal_direct_evaluation(sweep_setup):
    # Every row of a kappa and a kappa x zeta_R sweep is the report
    # evaluate_source gives at its point. At zeta_R = 0.005 some kappa fail
    # the order-40 tail test; those rows carry the error of the direct call.
    waves, crystal, z_r, flt = sweep_setup
    length = crystal.length
    kappas = (-5.0, -4.0, -3.0, -2.0, -1.0)
    grids = (
        [SweepAxis("kappa", kappas)],
        [SweepAxis("kappa", kappas), SweepAxis("zeta_R", (0.005, 0.18))],
    )
    errors = 0
    for axes in grids:
        rows = sweep(waves, crystal, z_r, flt, flt, 1e-3, axes)
        assert len(rows) == math.prod(len(ax.values) for ax in axes)
        for row in rows:
            kappa = row.coords["kappa"]
            poling = 2.0 * math.pi / (waves.k_minus0 - kappa / length)
            point = CrystalSpec(length=length, d_eff=crystal.d_eff, poling_period=poling)
            zr = row.coords["zeta_R"] * length if "zeta_R" in row.coords else z_r
            fp = derive_focus_params(waves, point, zr)
            try:
                direct = quantum.evaluate_source(waves, point, fp, flt, flt, 1e-3)
            except Exception as exc:
                assert row.report is None
                assert row.error == f"{type(exc).__name__}: {exc}"
                assert row.error.startswith("ModeSumError: ")
                errors += 1
                continue
            assert row.error is None, row.coords
            got = row.report
            for name in ("pair_rate_w2", "singles_rate_signal", "singles_rate_idler",
                         "eta_signal", "eta_idler"):
                assert math.isclose(
                    getattr(got, name), getattr(direct, name), rel_tol=1e-13
                ), (row.coords, name)
            for name in ("i_sfg_sq", "i_dfg_sq_signal_arm", "i_dfg_sq_idler_arm"):
                assert math.isclose(
                    getattr(got.overlaps, name), getattr(direct.overlaps, name), rel_tol=1e-13
                ), (row.coords, name)
    # The zeta_R = 0.005 group mixes failing and converged points.
    assert 0 < errors < len(kappas)


def test_long_kappa_axis_is_summed_in_bounded_groups(sweep_setup, monkeypatch):
    # A long kappa axis at one zeta_R is split into blocks of at most
    # quantum._KAPPA_BLOCK kappa, so no rule product sees more than that. Points
    # whose mode sums fail take their group's error: none is evaluated alone.
    from spdckit import modebasis

    waves, crystal, z_r, flt = sweep_setup
    sizes = []
    real = modebasis._coefficients

    def recording(k_plus, k_minus0, k_b, kappas, *args):
        sizes.append(kappas.size)
        return real(k_plus, k_minus0, k_b, kappas, *args)

    def alone(*args, **kwargs):
        raise AssertionError("a sweep point was evaluated alone")

    monkeypatch.setattr(modebasis, "_coefficients", recording)
    monkeypatch.setattr(quantum, "compute_overlaps", alone)
    axes = [SweepAxis("kappa", tuple(np.linspace(-5.0, -1.0, 150))), SweepAxis("zeta_R", (0.005,))]
    rows = sweep(waves, crystal, z_r, flt, flt, 1e-3, axes)
    assert max(sizes) == quantum._KAPPA_BLOCK
    # Three blocks (64 + 64 + 22 kappa), each summed for both arms.
    assert sizes.count(quantum._KAPPA_BLOCK) >= 4 and 22 in sizes
    failed = [row for row in rows if row.error is not None]
    assert 0 < len(failed) < len(rows)
    assert all(row.error.startswith("ModeSumError: ") for row in failed)


def test_failed_group_point_reports_the_direct_error_first(sweep_setup):
    # evaluate_source checks the pump power before the overlaps, so a point
    # whose mode sums fail still reports the power error the direct call gives.
    waves, crystal, z_r, flt = sweep_setup
    axes = [SweepAxis("kappa", (-5.0, -3.0)), SweepAxis("zeta_R", (0.005,))]
    rows = sweep(waves, crystal, z_r, flt, flt, -1e-3, axes)
    assert [row.error for row in rows] == ["ValueError: pump_power must be >= 0"] * 2


_GOLDEN = Path(__file__).resolve().parent / "golden"


def _built(name: str) -> config.BuiltConfig:
    if name == "bundled":
        return config.load_and_build(
            resources.files("spdckit").joinpath("data/ppktp_800_typeII.cfg")
        )
    return config.load_and_build(_GOLDEN / f"{name}.cfg")


@pytest.mark.parametrize(
    "name, unfiltered_s, axes",
    [
        ("bundled", False, [("P_p", (1e-3, -2e-3, 4e-3)), ("Gamma_s", (MHZ, 0.0, 5.0 * MHZ))]),
        ("degenerate", False, [("P_p", (1e-3, -2e-3, 4e-3)), ("Gamma_s", (MHZ, 5.0 * MHZ))]),
        ("bundled", True, [("Gamma_i", (MHZ, 3.0 * MHZ)), ("P_p", (1e-3, -1e-3))]),
        ("tabulated", False, [("P_p", (1e-3, -2e-3, 3e-3))]),
        ("tabulated", False, [("Gamma_s", (MHZ, 2.0 * MHZ)), ("P_p", (1e-3, 2e-3))]),
    ],
)
def test_rate_only_rows_equal_direct_evaluation(name, unfiltered_s, axes):
    # Every row of a rate-only grid is exactly the report evaluate_source
    # gives at its point, and an error row carries the text it raises there.
    b = _built(name)
    filter_s = filters.Unfiltered() if unfiltered_s else b.filter_s
    grid = [SweepAxis(axis, values) for axis, values in axes]
    fp = derive_focus_params(b.waves, b.crystal, b.z_r)
    rows = sweep(b.waves, b.crystal, b.z_r, filter_s, b.filter_i, b.pump_power, grid)
    assert len(rows) == math.prod(len(values) for _, values in axes)
    errors = 0
    for row in rows:
        fs, fi, power = filter_s, b.filter_i, b.pump_power
        try:
            for axis, value in row.coords.items():
                if axis == "P_p":
                    power = value
                elif isinstance(fs if axis == "Gamma_s" else fi, filters.TabulatedFilter):
                    raise ValueError(f"{axis} sweep needs a Lorentzian or absent filter")
                elif axis == "Gamma_s":
                    fs = filters.LorentzianFilter(gamma=value)
                else:
                    fi = filters.LorentzianFilter(gamma=value)
            direct = quantum.evaluate_source(b.waves, b.crystal, fp, fs, fi, power)
        except Exception as exc:
            assert row.report is None, row.coords
            assert row.error == f"{type(exc).__name__}: {exc}"
            errors += 1
            continue
        assert row.error is None, row.coords
        assert row.report == direct, row.coords
    assert errors > 0


def test_rate_only_grid_with_failing_overlaps_gives_error_rows(sweep_setup):
    # At zeta_R = 0.005 the order-40 mode sum fails at kappa = -5. A
    # rate-only grid there reports that error on every row, after the power
    # check each point makes first, instead of aborting the grid.
    waves, crystal, _, flt = sweep_setup
    length = crystal.length
    point = dataclasses.replace(
        crystal, poling_period=2.0 * math.pi / (waves.k_minus0 + 5.0 / length)
    )
    z_r = 0.005 * length
    fp = derive_focus_params(waves, point, z_r)
    powers = (1e-3, -1e-3)
    rows = sweep(waves, point, z_r, flt, flt, 1e-3, [SweepAxis("P_p", powers)])
    for row, power in zip(rows, powers):
        with pytest.raises(Exception) as direct:
            quantum.evaluate_source(waves, point, fp, flt, flt, power)
        assert row.report is None
        assert row.error == f"{type(direct.value).__name__}: {direct.value}"
    assert rows[0].error.startswith("ModeSumError: ")
    assert rows[1].error == "ValueError: pump_power must be >= 0"


def _evaluate_point(waves, crystal, z_r, flt, power, coords, overlaps=None):
    """evaluate_source at one sweep point, its axes applied in axis order."""
    fs = fi = flt
    length = crystal.length
    for axis, value in coords.items():
        if axis == "P_p":
            power = value
        elif axis == "Gamma_s":
            fs = filters.LorentzianFilter(gamma=value)
        elif axis == "Gamma_i":
            fi = filters.LorentzianFilter(gamma=value)
        elif axis == "zeta_R":
            z_r = value * length
        elif axis == "z_R":
            z_r = value
        elif axis == "kappa":
            q = waves.k_minus0 - value / length
            if q < 0:
                raise ValueError(
                    f"kappa={value} unreachable here: poling wavenumber would be negative"
                )
            crystal = dataclasses.replace(crystal, poling_period=2.0 * math.pi / q)
        else:
            if not abs(value) < 1.0:
                raise ValueError("R_k must satisfy |R_k| < 1")
            k_si = waves.signal.wavenumber + waves.idler.wavenumber
            lam_p = waves.pump.vacuum_wavelength
            n_p = k_si * (1.0 + value) / (1.0 - value) * lam_p / (2.0 * math.pi)
            if n_p < 1.0:
                raise ValueError(f"R_k={value} needs a pump index below 1")
            waves = WaveTriple(OpticalWave(lam_p, n_p), waves.signal, waves.idler)
    fp = derive_focus_params(waves, crystal, z_r)
    return quantum.evaluate_source(waves, crystal, fp, fs, fi, power, overlaps=overlaps)


@pytest.mark.parametrize(
    "axes",
    [
        [("kappa", (-5.0, -3.0, -1.0, 3e4)), ("P_p", (1e-3, -1e-3, 4e-3))],
        [("P_p", (1e-3, -1e-3)), ("kappa", (-3.0, 3e4))],
        [("zeta_R", (-0.1, 0.0, 0.005, 0.18)), ("Gamma_s", (0.0, MHZ, 3.0 * MHZ))],
        [("Gamma_s", (0.0, MHZ, 3.0 * MHZ)), ("zeta_R", (-0.1, 0.0, 0.005, 0.18))],
        [("R_k", (-0.99, 0.0, 0.04, 1.0)), ("Gamma_i", (0.0, 2.0 * MHZ))],
        [("Gamma_i", (0.0, 2.0 * MHZ)), ("R_k", (-0.99, 0.04, 1.0))],
        [("z_R", (-1e-3, 2e-3)), ("P_p", (1e-3, -1e-3))],
    ],
    ids=lambda axes: "-".join(name for name, _ in axes),
)
def test_mixed_grid_rows_equal_direct_evaluation(sweep_setup, axes):
    # A grid with a geometry axis and a rate axis: every row is the report
    # evaluate_source gives at its point, or carries the error it raises
    # there, the axes applied in axis order. A kappa group's mode sums come
    # from one matrix product, so its overlaps match to rounding only; the
    # rest of the report must be equal given those overlaps.
    waves, crystal, z_r, flt = sweep_setup
    grid = [SweepAxis(name, values) for name, values in axes]
    rows = sweep(waves, crystal, z_r, flt, flt, 1e-3, grid)
    assert len(rows) == math.prod(len(values) for _, values in axes)
    assert [row.coords for row in rows] == [
        dict(zip((name for name, _ in axes), combo))
        for combo in itertools.product(*(values for _, values in axes))
    ]
    errors = 0
    for row in rows:
        try:
            direct = _evaluate_point(waves, crystal, z_r, flt, 1e-3, row.coords)
        except Exception as exc:
            assert row.report is None, row.coords
            assert row.error == f"{type(exc).__name__}: {exc}", row.coords
            errors += 1
            continue
        assert row.error is None, row.coords
        for name in ("i_sfg_sq", "i_dfg_sq_signal_arm", "i_dfg_sq_idler_arm"):
            got, want = getattr(row.report.overlaps, name), getattr(direct.overlaps, name)
            assert math.isclose(got, want, rel_tol=1e-13), (row.coords, name)
        given = _evaluate_point(
            waves, crystal, z_r, flt, 1e-3, row.coords, overlaps=row.report.overlaps
        )
        assert row.report == given, row.coords
    assert errors


def test_efficiencies_are_computed_once_per_overlap_bundle(sweep_setup, monkeypatch):
    # A rate-only grid shares one overlap bundle, so its efficiencies are
    # computed once; each point of a kappa axis has its own bundle.
    waves, crystal, z_r, flt = sweep_setup
    calls = {"q_conversion": 0, "q_arm": 0}

    def spy(name):
        real = getattr(classical, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(classical, name, counted)

    spy("q_conversion")
    spy("q_arm")
    powers = SweepAxis("P_p", tuple(np.linspace(1e-4, 1e-2, 40)))
    widths = SweepAxis("Gamma_s", tuple(np.linspace(1.0 * MHZ, 20.0 * MHZ, 40)))
    rows = sweep(waves, crystal, z_r, flt, flt, 1e-3, [powers, widths])
    assert len(rows) == 1600 and all(row.error is None for row in rows)
    assert calls == {"q_conversion": 1, "q_arm": 2}

    calls.update(q_conversion=0, q_arm=0)
    kappas = SweepAxis("kappa", tuple(np.linspace(-5.0, -1.0, 24)))
    rows = sweep(waves, crystal, z_r, flt, flt, 1e-3, [kappas])
    assert len(rows) == 24 and all(row.error is None for row in rows)
    assert calls == {"q_conversion": 24, "q_arm": 48}

    # A kappa x P_p grid has 24 geometries: each sets up, takes |I_SFG|^2
    # and its efficiencies once, whatever the number of powers.
    from spdckit import overlap

    calls.update(q_conversion=0, q_arm=0, i_sfg_gaussian=0)
    real_sfg = overlap.i_sfg_gaussian

    def counted_sfg(*args, **kwargs):
        calls["i_sfg_gaussian"] += 1
        return real_sfg(*args, **kwargs)

    monkeypatch.setattr(overlap, "i_sfg_gaussian", counted_sfg)
    rows = sweep(waves, crystal, z_r, flt, flt, 1e-3, [kappas, powers])
    assert len(rows) == 960 and all(row.error is None for row in rows)
    assert calls == {"q_conversion": 24, "q_arm": 48, "i_sfg_gaussian": 24}


def test_efficiency_error_stays_in_its_geometry_rows(sweep_setup, monkeypatch):
    # An error of the efficiencies at one geometry is reported on that
    # geometry's rows, after each point's own checks; other rows are whole.
    waves, crystal, z_r, flt = sweep_setup
    real = quantum._efficiencies

    def failing(w, c, bundle):
        if bundle.i_sfg_sq == target:
            raise ValueError("efficiency failed here")
        return real(w, c, bundle)

    rows = sweep(waves, crystal, z_r, flt, flt, 1e-3, [SweepAxis("zeta_R", (0.1, 0.2))])
    target = rows[1].report.overlaps.i_sfg_sq
    monkeypatch.setattr(quantum, "_efficiencies", failing)
    axes = [SweepAxis("zeta_R", (0.1, 0.2)), SweepAxis("P_p", (1e-3, -1e-3))]
    rows = sweep(waves, crystal, z_r, flt, flt, 1e-3, axes)
    assert [row.error for row in rows] == [
        None,
        "ValueError: pump_power must be >= 0",
        "ValueError: efficiency failed here",
        "ValueError: pump_power must be >= 0",
    ]
