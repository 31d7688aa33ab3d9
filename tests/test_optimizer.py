"""Focusing optimizer and the parameter sweep engine."""

import dataclasses
import itertools
import math
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spdckit import classical, config, filters, optimizer, quantum
from spdckit.optimizer import (
    AXIS_NAMES,
    OptimizationResult,
    SweepAxis,
    focusing_objective,
    optimize_focus,
    sweep,
)
from spdckit.quantities import (
    CrystalSpec,
    FocusParams,
    OpticalWave,
    WaveTriple,
    derive_focus_params,
)

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
    # Every trace point stays inside the search box.
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


def _forbid_merit(monkeypatch):
    """Make every route to a merit value raise: the scalar merit, the cached
    presample with its array pole terms, and the refine's jet."""

    def no_evaluation(*args):
        raise AssertionError("merit evaluated")

    for name in ("_objective", "_presample", "_pole_terms", "_merit_jet"):
        monkeypatch.setattr(optimizer, name, no_evaluation)


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
    _forbid_merit(monkeypatch)
    with pytest.raises(ValueError, match=match):
        optimize_focus(0.0, **box, **kwargs)


@pytest.mark.parametrize(
    "kwargs, match",
    [
        ({"kappa_bounds": (5.0, -5.0)}, r"kappa_bounds must be ordered \(low, high\), got \(5.0, -5.0\)"),
        ({"zeta_bounds": (3.0, 2.0)}, r"zeta_bounds must be ordered \(low, high\), got \(3.0, 2.0\)"),
        ({"zeta_bounds": (0.001, 5.0)}, r"zeta_bounds must have low >= 0.01, got \(0.001, 5.0\)"),
        ({"zeta_bounds": (0.001, 0.001)}, r"zeta_bounds must have low >= 0.01, got \(0.001, 0.001\)"),
    ],
)
def test_optimize_focus_names_a_bad_box(monkeypatch, kwargs, match):
    # A reversed box or a zeta_R floor below 0.01 used to raise "bounds must
    # be ordered (low, high)" or "zeta_R lower bound must be >= 0.01", which
    # name no argument. Both are refused before the first merit evaluation.
    _forbid_merit(monkeypatch)
    with pytest.raises(ValueError, match=match):
        optimize_focus(0.0, **kwargs)


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


_ORACLE_RKS = [float(r) for r in np.random.default_rng(2008).uniform(-0.9, 0.9, 40)]


def _assert_at_least_scipy(got, ref):
    # The optimum feeds the absolute rates: the refine may not stop short of
    # what scipy's Nelder-Mead reaches from the same starts.
    assert got.best_objective >= ref.best_objective * (1.0 - 1e-12)


@pytest.mark.parametrize("r_k", _ORACLE_RKS)
def test_optimize_focus_takes_scipy_steps(r_k):
    # Held against the steps of scipy's Nelder-Mead from the same starts:
    # the refine ends at least as high, and certified.
    got = optimize_focus(r_k)
    _assert_at_least_scipy(got, _scipy_reference(r_k))
    assert got.converged
    assert len(got.hessian_eigenvalues) == 2
    assert got.gain_bound <= optimizer._CERTIFY * 1e-6 * got.best_objective


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
    _assert_at_least_scipy(got, _scipy_reference(0.0, **kwargs))
    if kwargs.get("rel_tol") == 1e-300:
        # No gain bound reaches 1e-303 of the merit: each start stops at the
        # refine's cap (or where its steps no longer gain), uncertified.
        assert not got.converged
        assert got.evaluations <= optimizer._PRESAMPLES + 2 * optimizer._REFINE_CALLS
    else:
        assert got.converged
    if "kappa_bounds" in kwargs:
        assert len(got.hessian_eigenvalues) == 1


def test_optimum_on_a_box_edge_is_a_kkt_point():
    # The free optimum sits at kappa = -3.26, outside this box: the best
    # point is on the edge kappa = -2, where the merit still rises outward.
    got = optimize_focus(0.0, kappa_bounds=(-2.0, 5.0))
    _assert_at_least_scipy(got, _scipy_reference(0.0, kappa_bounds=(-2.0, 5.0)))
    assert got.converged
    assert got.best_kappa == -2.0
    grad = optimizer._merit_jet(got.best_kappa, got.best_zeta_r, 0.0)[1]
    assert grad[0] < 0.0
    assert len(got.hessian_eigenvalues) == 1 and got.hessian_eigenvalues[0] < 0.0
    assert got.gradient_norm == abs(grad[1])


def test_refine_holds_an_edge_its_step_points_out_of():
    # The start is the corner (-7.77, 1.394). The merit rises inward along
    # kappa, but the damped Newton step also points below zeta_R = 1.394;
    # taken whole it would stop at once. Holding zeta_R at its edge, the
    # refine walks along it to a KKT point.
    kwargs = {
        "kappa_bounds": (-15.564508299010487, -7.772090000858727),
        "zeta_bounds": (1.39427562333073, 1.9017755077548943),
        "restarts": 0,
    }
    got = optimize_focus(0.5385484144492558, **kwargs)
    _assert_at_least_scipy(got, _scipy_reference(0.5385484144492558, **kwargs))
    assert got.converged
    assert got.best_zeta_r == 1.39427562333073
    assert len(got.hessian_eigenvalues) == 1


def test_optimize_focus_keeps_its_evaluation_budget():
    # A machine-independent guard of the refine's cost: 5 x 64 presamples
    # and six refines. The Nelder-Mead runs they replaced took about 1000
    # calls an op; the six refines take 665 in all over these 16 R_k.
    r_ks = [0.0] + [-0.3 + 0.6 * (j + u) / 15 for j, u in enumerate(
        np.random.default_rng(31).uniform(size=15))]
    refine_calls = 0
    for r_k in r_ks:
        result = optimize_focus(r_k)
        assert result.converged, r_k
        assert result.evaluations <= 450, r_k
        refine_calls += result.evaluations - 5 * optimizer._PRESAMPLES
    assert refine_calls <= 720


def _five_point(fun, x, h):
    return (8.0 * (fun(x + h) - fun(x - h)) - (fun(x + 2 * h) - fun(x - 2 * h))) / (12.0 * h)


_DERIVATIVE_GRID = list(
    itertools.product(
        [0.0, 1e-9, -1e-9, 1e-6, -1e-6, 1e-3, -1e-3, -3.0, 4.0, -120.0],
        [0.02, 0.18, 1.3, 150.0],
        [0.0, 0.29, -0.29, 0.9, -0.9],
    )
)
_DERIVATIVE_POLES = [
    (k, y) for k, z, r in _DERIVATIVE_GRID for y in ([z] if r == 0 else [z, -z / r])
]


def test_derivative_grid_covers_every_branch():
    from spdckit import overlap

    poles = _DERIVATIVE_POLES
    assert any(abs(y) >= overlap._MOMENT_MIN_ABS_Y for k, y in poles)
    # The E1 and Ein forms take the other poles.
    poles = [(k, y) for k, y in poles if abs(y) < overlap._MOMENT_MIN_ABS_Y]
    sizes = [abs(complex(k * y, -0.5 * k)) for k, y in poles]
    assert any(k * y < 0 for k, y in poles) and any(k * y > 0 for k, y in poles)
    assert any(t > overlap._SERIES_MIN_ABS for t in sizes)
    assert any(overlap._JET_SERIES_MAX_ABS <= t <= overlap._SERIES_MIN_ABS for t in sizes)
    assert any(0.0 < t < overlap._JET_SERIES_MAX_ABS for t in sizes)
    assert any(t == 0.0 for t in sizes)


@pytest.mark.parametrize("kappa, zeta_r, r_k", _DERIVATIVE_GRID)
def test_merit_derivatives_match_central_differences(kappa, zeta_r, r_k):
    # Fourth-order central differences of the merit (for the gradient) and
    # of the analytic gradient (for the Hessian). Near kappa = 0 the 1/t and
    # 1/t^2 of the E1 form once cancelled to parts in 1/kappa^2 (and divided
    # by zero at kappa = 0); the entire form there is pinned here.
    def jet(k, z):
        return optimizer._merit_jet(k, z, r_k)

    value, grad, hess = jet(kappa, zeta_r)
    assert value == optimizer._objective(kappa, zeta_r, r_k)
    hk, hz = 3e-3, 3e-3 * zeta_r
    fd_grad = (
        _five_point(lambda k: jet(k, zeta_r)[0], kappa, hk),
        _five_point(lambda z: jet(kappa, z)[0], zeta_r, hz),
    )
    fd_hess = (
        _five_point(lambda k: jet(k, zeta_r)[1][0], kappa, hk),
        _five_point(lambda z: jet(kappa, z)[1][0], zeta_r, hz),
        _five_point(lambda k: jet(k, zeta_r)[1][1], kappa, hk),
        _five_point(lambda z: jet(kappa, z)[1][1], zeta_r, hz),
    )
    g_scale = max(map(abs, grad))
    h_scale = max(map(abs, hess))
    assert max(abs(a - b) for a, b in zip(grad, fd_grad)) <= 1e-6 * g_scale
    want = (hess[0], hess[1], hess[1], hess[2])
    assert max(abs(a - b) for a, b in zip(want, fd_hess)) <= 1e-6 * h_scale


_BATCH_RKS = [0.0, 0.29, -0.29, 0.9, -0.9, 5e-324, -5e-324]


def _pole_grid():
    """(kappa, y) reaching every lane of _pole_terms: both sides of the cut,
    |t| above _SERIES_MIN_ABS, |kappa| below _KAPPA_ZERO, a far pole at inf,
    and |kappa| near the float range, where kappa y is finite but |t| is not."""
    from spdckit import overlap

    rng = np.random.default_rng(33)
    kappa = np.concatenate([
        rng.uniform(-20.0, 5.0, 400),
        rng.uniform(-1e4, 1e4, 100),
        [0.0, -0.0, 1e-16, -9e-16, 1e-15, -1e-15, 1e-12, 1e3, -1e3, 1e3 + 1e-9],
    ])
    zeta = rng.uniform(0.01, 5.0, kappa.size)
    with np.errstate(over="ignore"):  # -zeta / +-5e-324 is +-inf, as in Python
        y = np.concatenate([zeta if r == 0.0 else -zeta / r for r in _BATCH_RKS])
    kappa = np.tile(kappa, len(_BATCH_RKS))
    finite = np.isfinite(y)
    t = np.full(y.shape, math.inf)
    t[finite] = np.hypot(kappa[finite] * y[finite], 0.5 * kappa[finite])
    assert (t[finite] > overlap._SERIES_MIN_ABS).any() and (t < overlap._SERIES_MIN_ABS).any()
    assert (np.abs(kappa) < overlap._KAPPA_ZERO).any() and (~finite).any()
    ky = kappa[finite] * y[finite]
    assert (ky < 0.0).any() and (ky > 0.0).any()
    return np.append(kappa, [1.7e308, -1.7e308]), np.append(y, [1.0, 1.0])


def test_pole_terms_equal_the_scalar_pole_term_bit_for_bit():
    from spdckit import overlap

    kappa, y = _pole_grid()
    got = overlap._pole_terms(kappa, y)
    want = [overlap._pole_term(k, v)[0] for k, v in zip(kappa.tolist(), y.tolist())]
    assert got.tolist() == want
    assert np.array_equal(np.signbit(got), np.signbit(want))


def test_pole_jet_value_is_the_pole_term_bit_for_bit():
    # The presample's values come from _pole_term and the refine's from
    # _pole_jet; each refine's first call repeats its presample best.
    from spdckit import overlap

    kappa, y = _pole_grid()
    for k, v in [*zip(kappa.tolist(), y.tolist()), *_DERIVATIVE_POLES]:
        got, want = overlap._pole_jet(k, v)[0], overlap._pole_term(k, v)[0]
        assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want), (k, v)


def test_kappa_near_the_float_range_gives_a_finite_merit():
    # kappa y and kappa / 2 are finite here, but |t| = |kappa (y - i/2)|
    # overflowed in Python's complex abs and raised OverflowError.
    from spdckit import overlap

    assert math.isfinite(overlap.upsilon(FocusParams(1.7e308, 1.0, 0.0)).value.real)
    assert math.isfinite(focusing_objective(-1.7e308, 1.0, 0.3))
    assert math.isfinite(overlap._pole_jet(1.7e308, 1.0)[0])


@pytest.mark.parametrize("r_k", _BATCH_RKS)
def test_presample_values_equal_the_scalar_merit(monkeypatch, r_k):
    # The presample runs as one array pass; each of its trace entries is the
    # scalar merit's, bit for bit, and each refine's first call repeats its
    # restart's best presample point and value. At +-5e-324 the far pole
    # -zeta_R / r_k overflows to inf, which Python's division does silently.
    firsts = []
    refine = optimizer._refine

    def spy(jet, x, *args):
        seen = []

        def first(point):
            value = jet(point)
            if not seen:
                seen.append((point, value[0]))
            return value

        out = refine(first, x, *args)
        firsts.extend(seen)
        return out

    monkeypatch.setattr(optimizer, "_refine", spy)
    restarts = 3
    result = optimize_focus(r_k, kappa_bounds=(-1e3, 50.0), restarts=restarts, seed=33)
    presample = result.trace[: restarts * optimizer._PRESAMPLES]
    for kappa, zeta_r, value in presample:
        want = optimizer._objective(kappa, zeta_r, r_k)
        assert value == want and math.copysign(1.0, value) == math.copysign(1.0, want)
    assert len(firsts) == restarts + 1
    for r in range(restarts):
        block = presample[r * optimizer._PRESAMPLES : (r + 1) * optimizer._PRESAMPLES]
        j = int(np.argmax([v for _, _, v in block]))
        assert firsts[r + 1] == (block[j][:2], block[j][2])


def test_presample_cache_keys_on_the_checked_box_restarts_and_seed():
    optimizer._presample.cache_clear()
    base = dict(kappa_bounds=(-20.0, 5.0), zeta_bounds=(0.02, 5.0), restarts=2, seed=7)
    cold = optimize_focus(0.1, **base)
    warm = optimize_focus(0.1, **base)
    assert warm.trace == cold.trace and optimizer._presample.cache_info().hits == 1
    # A different box, restart count or seed never shares an entry.
    variants = [
        dict(base, kappa_bounds=(-20.0, 4.0)),
        dict(base, zeta_bounds=(0.03, 5.0)),
        dict(base, restarts=3),
        dict(base, seed=8),
    ]
    draws = {optimizer._presample(-20.0, 5.0, 0.02, 5.0, 2, 7)[0].tobytes()}
    for kwargs in variants:
        optimizer._presample.cache_clear()
        fresh = optimize_focus(0.1, **kwargs)
        assert optimize_focus(0.1, **kwargs).trace == fresh.trace
        k_lo, k_hi = kwargs["kappa_bounds"]
        z_lo, z_hi = kwargs["zeta_bounds"]
        entry = optimizer._presample(k_lo, k_hi, z_lo, z_hi, kwargs["restarts"], kwargs["seed"])
        draws.add(entry[0].tobytes() + entry[1].tobytes())
    assert len(draws) == 1 + len(variants)
    # An evicted entry comes back the same.
    for seed in range(optimizer._PRESAMPLE_CACHE + 1):
        optimize_focus(0.1, **dict(base, seed=100 + seed))
    assert optimizer._presample.cache_info().currsize == optimizer._PRESAMPLE_CACHE
    assert optimize_focus(0.1, **base).trace == cold.trace
    # -0.0 and 0.0 bounds hash alike and draw alike.
    optimizer._presample.cache_clear()
    signed = optimize_focus(0.1, kappa_bounds=(-0.0, 5.0), restarts=2)
    assert optimize_focus(0.1, kappa_bounds=(0.0, 5.0), restarts=2).trace == signed.trace
    optimizer._presample.cache_clear()
    assert optimize_focus(0.1, kappa_bounds=(0.0, 5.0), restarts=2).trace == signed.trace


def test_presample_cache_holds_read_only_arrays_of_bounded_size():
    assert optimizer._presample.cache_info().maxsize == optimizer._PRESAMPLE_CACHE <= 16
    entry = optimizer._presample(-20.0, 5.0, 0.02, 5.0, optimizer._MAX_RESTARTS, 0)
    assert [a.shape for a in entry] == [(optimizer._MAX_RESTARTS * optimizer._PRESAMPLES,)] * 3
    assert sum(a.nbytes for a in entry) <= 1.6e6
    for a in entry:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0
    optimizer._presample.cache_clear()


@pytest.mark.parametrize("name", ["seed", "restarts"])
def test_presample_keys_refuse_a_float_count(name):
    # 7.0 hashes as 7, so a key on the raw value would let it through; the
    # generator and range() refuse a float, and so does the cache's key.
    optimize_focus(0.0, restarts=2, seed=7)
    with pytest.raises(TypeError):
        optimize_focus(0.0, **{"restarts": 2, "seed": 7, name: 7.0 if name == "seed" else 2.0})


@pytest.mark.parametrize("r_k", [-5e-324, 5e-324, 1e-13])
def test_tiny_r_k_reaches_the_r_k_zero_optimum(r_k):
    # The far pole -zeta_R / r_k sits at |y| >= 1.8e11 (inf at +-5e-324).
    # Its derivatives once cancelled terms of size |y| (f_kk off by 1e7 at
    # r_k = 1e-13) or were NaN, and the refine stopped at its start.
    box = {"kappa_bounds": (0.0, 0.0), "zeta_bounds": (0.02, 5.0), "restarts": 0}
    want = optimize_focus(0.0, **box)
    got = optimize_focus(r_k, **box)
    assert want.converged and got.converged
    assert got.best_objective == pytest.approx(want.best_objective, rel=1e-12)
    assert got.best_zeta_r == pytest.approx(want.best_zeta_r, rel=1e-6)


@pytest.mark.parametrize("r_k", [1e-12, 1e-13, 1e-50, 5e-324, -5e-324])
@pytest.mark.parametrize("kappa, zeta_r", [(0.0, 0.18), (1e-12, 0.18), (-3.0, 0.18), (2.5, 0.02), (1e-9, 1.3)])
def test_merit_jet_tends_to_the_r_k_zero_jet(kappa, zeta_r, r_k):
    # The far pole's terms vanish as r_k -> 0; its moment series takes
    # them at large |y|, down to 0 at y = inf.
    def flat(jet):
        return [jet[0], *jet[1], *jet[2]]

    want = flat(optimizer._merit_jet(kappa, zeta_r, 0.0))
    got = flat(optimizer._merit_jet(kappa, zeta_r, r_k))
    assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-9 * max(map(abs, want))


@pytest.mark.parametrize("kappa", [0.0, 1e-9, -1e-3, 0.5, -2.0, 2.0 + 1e-12, -3.0, 14.2, -1e3])
@pytest.mark.parametrize("y", [16.0, -16.0, 200.0, -3e4, 1e12, math.inf, -math.inf])
def test_moment_jet_matches_the_pole_integrals(kappa, y):
    # The moments and the derivatives of K = J(i y) / 2i against a composite
    # Gauss-Legendre rule on [-1/2, 1/2], where at |y| >= 16 each integrand
    # is smooth and the rule loses nothing to cancellation.
    from spdckit import overlap

    panels = max(1, int(abs(kappa) / 8))
    x, v = np.polynomial.legendre.leggauss(24)
    edges = np.linspace(-0.5, 0.5, panels + 1)
    half = 0.5 * (edges[1] - edges[0])
    z = ((edges[:-1] + edges[1:])[:, None] * 0.5 + half * x).ravel()
    w = np.tile(half * v, panels)
    phase = w * np.exp(-1j * kappa * z)
    count = overlap._MOMENT_TERMS + 2
    got = overlap._moments(kappa, count)
    for n in range(count):
        # |S_n| <= 2^-n / (n + 1); each keeps to 1e-13 of that bound, about
        # the rounding of the rule.
        want = np.sum(phase * (-1j * z) ** n).real
        assert abs(got[n] - want) <= 1e-13 * 2.0**-n / (n + 1), n
    jet = overlap._moment_jet(kappa, y)
    if math.isinf(y):
        assert jet == (0.0,) * 5
        return
    q = 1.0 / (z - 1j * y)
    want = [
        (np.sum(phase * f) / 2j).real
        for f in (-1j * z * q, 1j * q * q, -z * z * q, z * q * q, -2.0 * q**3)
    ]
    assert np.abs(np.subtract(jet, want)).max() <= 1e-13 * np.abs(want).max() + 1e-300


@pytest.mark.parametrize(
    "g, b, nu",
    [
        ((1.0, -2.0), ((4.0, 1.0), (1.0, 3.0)), 1e-9),
        ((1.0, -2.0), ((4.0, 1.0), (1.0, 3.0)), 20.0),
        ((0.3, 0.5), ((-1.0, 0.4), (0.4, 2.0)), 0.7),
        ((0.0, 1.0), ((-1.0, 0.0), (0.0, 2.0)), 1.0),
        ((1e-14, 1.0), ((-1.0, 0.0), (0.0, 2.0)), 1e-3),
        ((0.0, 0.0), ((-1.0, 0.0), (0.0, -1.0)), 0.0),
        ((0.2, 0.1), ((0.0, 0.0), (0.0, 0.0)), 0.5),
        ((0.2, 0.1), ((1.0, 2.0), (2.0, 4.0)), 1e-3),
        ((0.7,), ((-2.0,),), 0.3),
        ((-0.7,), ((3.0,),), 1e-9),
    ],
    ids=[
        "positive-definite",
        "positive-definite-damped",
        "indefinite",
        "no-gradient-along-the-lowest-eigenvector",
        "next-to-it",
        "zero-gradient",
        "no-curvature",
        "singular",
        "one-coordinate-negative",
        "one-coordinate-positive",
    ],
)
def test_damped_step_solves_the_shifted_newton_system(g, b, nu):
    p = optimizer._damped_step(list(g), [list(row) for row in b], nu)
    if not any(g):
        # nu = 0, the first damping at a zero gradient, leaves B + mu I
        # singular here: no step, and no division by zero.
        assert p == [0.0] * len(g)
        return
    # Where B has a negative eigenvalue, the adjugate's diagonal B_ii + mu
    # loses about mu / nu ulps to cancellation: at nu = 1e-6 below
    # lambda_min = -1 the step holds to 1e-10 only, at 1e-3 to 1e-12.
    mu = max(0.0, -np.linalg.eigvalsh(b)[0]) + nu
    want = np.linalg.solve(np.asarray(b) + mu * np.eye(len(g)), -np.asarray(g))
    assert np.abs(np.subtract(p, want)).max() <= 1e-12 * np.abs(want).max()
    assert np.dot(g, p) < 0.0
    assert math.hypot(*p) <= math.hypot(*g) / nu * (1.0 + 1e-12)


def test_damped_step_takes_no_step_where_its_determinant_underflows():
    # From a zeta_R box of span 1e300: (lam1 + mu)(lam2 + mu) ~ 1.4e-599 is
    # 0.0, and so are both numerators; the division used to raise.
    p = optimizer._damped_step([-2.34e-301, -0.0], [[-3.56e-300, -0.0], [-0.0, -0.0]], 2.34e-300)
    assert p == [0.0, 0.0]


@pytest.mark.parametrize("zeta_bounds", [(0.01, 1e300), (1e300, 1e301)])
def test_a_zeta_box_near_the_float_range_returns_a_result_in_it(zeta_bounds):
    (k_lo, k_hi), (z_lo, z_hi) = (-20.0, 5.0), zeta_bounds
    result = optimize_focus(0.1, zeta_bounds=zeta_bounds)
    assert result.trace
    for kappa, zeta_r, objective in result.trace:
        assert k_lo <= kappa <= k_hi and z_lo <= zeta_r <= z_hi and math.isfinite(objective)


def test_refine_stops_uncertified_on_a_saddle():
    # A start on a saddle of the merit has a zero gradient: it takes no
    # step, and its indefinite Hessian is never certified.
    calls = []

    def jet(x):
        calls.append(x)
        return x[0] ** 2 - x[1] ** 2, (2.0 * x[0], -2.0 * x[1]), (2.0, 0.0, -2.0)

    assert optimizer._refine(jet, (0.0, 0.0), (-1.0, -1.0), (1.0, 1.0), 1e-9) == 0.0
    assert calls == [(0.0, 0.0)]
    certificate = optimizer._certificate([0, 1], (0.0, 0.0), (2.0, 0.0, -2.0))
    assert optimizer._gain_bound(*certificate) == math.inf


def test_eigen_split_matches_numpy():
    rng = np.random.default_rng(5)
    for a, b, c in rng.normal(size=(50, 3)) * rng.choice([1e-3, 1.0, 1e3], size=(50, 1)):
        lo, hi = optimizer._eigen2(a, b, c)
        want = np.linalg.eigvalsh([[a, b], [b, c]])
        assert lo == pytest.approx(want[0], rel=1e-12, abs=1e-15 * abs(want).max())
        assert hi == pytest.approx(want[1], rel=1e-12, abs=1e-15 * abs(want).max())


@st.composite
def _boxes(draw):
    def span(low, high):
        a = draw(st.floats(low, high))
        b = draw(st.one_of(st.just(a), st.floats(low, high)))
        return (min(a, b), max(a, b))

    kappa_bounds, zeta_bounds = span(-20.0, 5.0), span(0.02, 5.0)
    if kappa_bounds[0] == kappa_bounds[1] and zeta_bounds[0] == zeta_bounds[1]:
        zeta_bounds = (0.02, 5.0)
    return kappa_bounds, zeta_bounds


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    st.floats(-0.95, 0.95),
    _boxes(),
    st.integers(0, 2),
    st.sampled_from([1e-6, 1e-9]),
)
def test_refine_stays_in_its_box_and_meets_its_certificate(r_k, box, restarts, rel_tol):
    (k_lo, k_hi), (z_lo, z_hi) = box
    result = optimize_focus(r_k, *box, rel_tol=rel_tol, restarts=restarts)
    for kappa, zeta_r, _ in result.trace:
        assert k_lo <= kappa <= k_hi and z_lo <= zeta_r <= z_hi
    assert result.best_objective == max(t[2] for t in result.trace)
    free = (k_lo < k_hi) + (z_lo < z_hi)
    assert len(result.hessian_eigenvalues) <= free
    if result.converged:
        assert all(e < 0.0 for e in result.hessian_eigenvalues)
        assert result.gain_bound <= optimizer._CERTIFY * rel_tol * result.best_objective


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


def test_table_linewidth_is_resampled_once_per_table(sweep_setup, monkeypatch):
    # Gamma_eff,single of a table is a trapezoid sum on a resampled grid; the
    # source, its correlation and a Gamma_s x P_p sweep with the table on the
    # idler arm all share the one sum of each table object.
    waves, crystal, z_r, _ = sweep_setup
    table_s = filters.TabulatedFilter(
        np.linspace(-3.0, 3.0, 7) * MHZ, [0.0, 0.3, 0.8, 1.0, 0.8, 0.3, 0.0]
    )
    table_i = filters.TabulatedFilter(np.linspace(-2.0, 4.0, 5) * MHZ, [0.1, 0.9, 1.0, 0.6, 0.0])
    grids = []
    trapezoid = np.trapezoid

    def spy(y, x=None, *args, **kwargs):
        grids.append((float(x[0]), float(x[-1])))
        return trapezoid(y, x, *args, **kwargs)

    monkeypatch.setattr(np, "trapezoid", spy)
    fp = derive_focus_params(waves, crystal, z_r)
    report = quantum.evaluate_source(waves, crystal, fp, table_s, table_i, 1e-3)
    filters.correlation_shape(table_s, table_i, tau=np.linspace(-2e-6, 2e-6, 201))
    axes = [SweepAxis("Gamma_s", (1.0 * MHZ, 3.0 * MHZ)), SweepAxis("P_p", (1e-3, 2e-3))]
    rows = sweep(waves, crystal, z_r, filters.LorentzianFilter(MHZ), table_i, 1e-3, axes)
    assert all(row.report.gamma_eff_i == report.gamma_eff_i for row in rows)
    assert sorted(grids) == sorted([table_s.support, table_i.support])


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
    # evaluate_source gives at its point. kappa = -3000 outruns the largest
    # mode-sum rule; its rows carry the error of the direct call.
    waves, crystal, z_r, flt = sweep_setup
    length = crystal.length
    kappas = (-5.0, -4.0, -3.0, -2.0, -3000.0)
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
                assert row.error.startswith("QuadratureError: ")
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
    # Each zeta_R group mixes failing and converged points.
    assert errors == 3


def _record_blocks(monkeypatch):
    """Record each mode-sum pass and the blocks of its kernel rounds.

    Returns (passes, blocks, task_sizes): the task count of each
    modebasis._mode_sums call; per block its task count, kernel row count,
    kernel width (columns) and kappa count; and the kappa count of every
    task that reached a round.
    """
    from spdckit import modebasis

    passes, blocks, task_sizes = [], [], []
    real_pass, real_totals, real_blocks = (
        modebasis._mode_sums, modebasis._totals, modebasis._blocks
    )
    sizes = []

    def mode_sums(tasks, *args, **kwargs):
        passes.append(len(tasks))
        return real_pass(tasks, *args, **kwargs)

    def totals(consts, kappas, *args):
        sizes[:] = [k.size for k in kappas]
        task_sizes.extend(sizes)
        return real_totals(consts, kappas, *args)

    def recording(n_tasks, n_rows, width):
        for tasks, rows in real_blocks(n_tasks, n_rows, width):
            n_kappa = sum(sizes[tasks])
            blocks.append((tasks.stop - tasks.start, rows.stop - rows.start, width, n_kappa))
            yield tasks, rows

    monkeypatch.setattr(modebasis, "_mode_sums", mode_sums)
    monkeypatch.setattr(modebasis, "_totals", totals)
    monkeypatch.setattr(modebasis, "_blocks", recording)
    return passes, blocks, task_sizes


def _assert_blocks_within_cap(blocks):
    from spdckit import modebasis

    cap = modebasis._BLOCK_ELEMENTS
    for n_tasks, n_rows, width, n_kappa in blocks:
        assert n_tasks * n_rows * width <= cap  # the kernel rows K
        assert n_kappa * width <= cap  # the exp(i kappa z) columns


def test_long_kappa_axis_is_summed_in_bounded_groups(sweep_setup, monkeypatch):
    # A long kappa axis at one zeta_R makes one task per arm, whose kappas
    # go to the kernel rounds 12 at a time, so that no block's exponentials
    # outgrow the block cap on the largest rule. Points whose mode sums fail
    # (kappa = -3000 and -4000 outrun that rule) take their group's error:
    # none is evaluated alone.
    waves, crystal, z_r, flt = sweep_setup
    passes, blocks, task_sizes = _record_blocks(monkeypatch)

    def alone(*args, **kwargs):
        raise AssertionError("a sweep point was evaluated alone")

    monkeypatch.setattr(quantum, "compute_overlaps", alone)
    kappas = (*np.linspace(-5.0, -1.0, 148), -3000.0, -4000.0)
    axes = [SweepAxis("kappa", kappas), SweepAxis("zeta_R", (0.005,))]
    rows = sweep(waves, crystal, z_r, flt, flt, 1e-3, axes)
    assert passes == [2]
    _assert_blocks_within_cap(blocks)
    # Each arm's 150 kappas start as 12 rounds of 12 and one of 6.
    assert task_sizes[:26] == ([12] * 12 + [6]) * 2
    assert max(task_sizes) == 12
    failed = [row for row in rows if row.error is not None]
    assert [row.coords["kappa"] for row in failed] == [-3000.0, -4000.0]
    assert all(row.error.startswith("QuadratureError: ") for row in failed)


def test_zeta_r_groups_share_one_pass_within_the_cap(sweep_setup, monkeypatch):
    # 30 zeta_R groups are 60 one-kappa tasks of one pass. Its blocks hold
    # several tasks each, and none goes over the cap. The basis order a
    # caller passes is ignored.
    waves, crystal, z_r, flt = sweep_setup
    passes, blocks, _ = _record_blocks(monkeypatch)
    axes = [SweepAxis("zeta_R", tuple(np.geomspace(0.05, 3.0, 30)))]
    rows = sweep(waves, crystal, z_r, flt, flt, 1e-3, axes, basis_order=200)
    assert passes == [60]
    _assert_blocks_within_cap(blocks)
    assert max(n_tasks for n_tasks, *_ in blocks) > 1
    assert all(row.error is None for row in rows)


def test_failed_group_point_reports_the_direct_error_first(sweep_setup):
    # evaluate_source checks the pump power before the overlaps, so a point
    # whose mode sums fail (zeta_R = 2e-4 outruns the largest rule) still
    # reports the power error the direct call gives.
    waves, crystal, z_r, flt = sweep_setup
    axes = [SweepAxis("kappa", (-5.0, -3.0)), SweepAxis("zeta_R", (2e-4,))]
    rows = sweep(waves, crystal, z_r, flt, flt, -1e-3, axes)
    assert [row.error for row in rows] == ["ValueError: pump_power must be >= 0"] * 2
    # The filter pair's linewidth error comes next, also before the overlaps.
    none = filters.Unfiltered()
    rows = sweep(waves, crystal, z_r, none, none, 1e-3, axes)
    fp = derive_focus_params(waves, crystal, z_r)
    with pytest.raises(ValueError) as direct:
        quantum.evaluate_source(waves, crystal, fp, none, none, 1e-3)
    assert "both arms unfiltered" in str(direct.value)
    assert [row.error for row in rows] == [f"ValueError: {direct.value}"] * 2


@pytest.mark.parametrize("power", [math.nan, math.inf])
def test_non_finite_pump_power_rows_carry_the_direct_error(sweep_setup, power):
    # Each row carries the error evaluate_source raises at its point: the
    # set-up errors of its axes, then the pump power, before the overlaps
    # of the mode sums that fail at kappa = 3e4.
    waves, crystal, z_r, flt = sweep_setup
    axes = [("kappa", (-5.0, -3.0, 3e4)), ("zeta_R", (0.005, 0.18)), ("Gamma_s", (0.0, MHZ))]
    for pair in itertools.combinations(axes, 2):
        rows = sweep(waves, crystal, z_r, flt, flt, power, [SweepAxis(*axis) for axis in pair])
        assert all(row.report is None for row in rows), pair
        for row in rows:
            with pytest.raises(Exception) as direct:
                _evaluate_point(waves, crystal, z_r, flt, power, row.coords)
            assert row.error == f"{type(direct.value).__name__}: {direct.value}", row.coords
        assert f"ValueError: pump_power must be finite, got {power!r}" in [r.error for r in rows]


@pytest.mark.parametrize("name", ["bundled", "degenerate"])
def test_report_rates_are_the_rate_formulas_bitwise(name):
    # A sweep row and evaluate_source apply the pump power to factors set up
    # once per stage; W2 and each W1 must be exactly what pair_rate and
    # singles_rate give on the same inputs.
    b = _built(name)
    fp = derive_focus_params(b.waves, b.crystal, b.z_r)
    axes = [
        SweepAxis("P_p", (1e-4, 1e-3, 3.3e-3, 0.0)),
        SweepAxis("Gamma_s", (0.7 * MHZ, 2.0 * MHZ, 13.0 * MHZ)),
    ]
    rows = sweep(b.waves, b.crystal, b.z_r, b.filter_s, b.filter_i, b.pump_power, axes)
    reports = [row.report for row in rows]
    reports.append(
        quantum.evaluate_source(b.waves, b.crystal, fp, b.filter_s, b.filter_i, b.pump_power)
    )
    for report in reports:
        p, q = report.pump_power, report.efficiencies
        assert report.pair_rate_w2 == quantum.pair_rate(
            b.waves, p, q.q_conversion, report.gamma_eff
        )
        assert report.singles_rate_signal == quantum.singles_rate(
            b.waves, p, q.q_signal_arm, report.gamma_eff_s
        )
        assert report.singles_rate_idler == quantum.singles_rate(
            b.waves, p, q.q_idler_arm, report.gamma_eff_i, "idler"
        )
    assert b.waves.degenerate == (name == "degenerate")


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
        # Cached stages must not leak to the wrong point: repeated values,
        # 0.0 next to -0.0 (equal as keys, both invalid widths), two widths.
        ("bundled", False, [("P_p", (1e-3, 1e-3, -1e-3, 1e-3)), ("Gamma_s", (MHZ, 0.0, MHZ, -0.0))]),
        ("bundled", False, [("Gamma_s", (MHZ, 3.0 * MHZ, 0.0)), ("Gamma_i", (-0.0, MHZ, 3.0 * MHZ))]),
        ("bundled", True, [("Gamma_i", (MHZ, 0.0, MHZ, -0.0)), ("Gamma_s", (MHZ,))]),
        ("degenerate", False, [("Gamma_i", (2.0 * MHZ, MHZ, 2.0 * MHZ)), ("Gamma_s", (MHZ, -0.0))]),
        ("tabulated", False, [("Gamma_i", (MHZ, MHZ)), ("Gamma_s", (MHZ, 0.0, MHZ))]),
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
    # At zeta_R = 2e-4 the mode sum outruns its largest rule at kappa = -5.
    # A rate-only grid there reports that error on every row, after the
    # power check each point makes first, instead of aborting the grid.
    waves, crystal, _, flt = sweep_setup
    length = crystal.length
    point = dataclasses.replace(
        crystal, poling_period=2.0 * math.pi / (waves.k_minus0 + 5.0 / length)
    )
    z_r = 2e-4 * length
    fp = derive_focus_params(waves, point, z_r)
    powers = (1e-3, -1e-3)
    rows = sweep(waves, point, z_r, flt, flt, 1e-3, [SweepAxis("P_p", powers)])
    for row, power in zip(rows, powers):
        with pytest.raises(Exception) as direct:
            quantum.evaluate_source(waves, point, fp, flt, flt, power)
        assert row.report is None
        assert row.error == f"{type(direct.value).__name__}: {direct.value}"
    assert rows[0].error.startswith("QuadratureError: ")
    assert rows[1].error == "ValueError: pump_power must be >= 0"


def test_each_check_reports_in_pipeline_order(sweep_setup):
    # One point fails every check: a negative pump power, an idler filter
    # that transmits nothing and the mode sum at kappa = -5, zeta_R = 2e-4,
    # past its largest rule. Mending one check at a time brings up the next, and a
    # one-point sweep reports the text evaluate_source raises.
    waves, crystal, _, flt = sweep_setup
    length = crystal.length
    point = dataclasses.replace(
        crystal, poling_period=2.0 * math.pi / (waves.k_minus0 + 5.0 / length)
    )
    z_r = 2e-4 * length
    fp = derive_focus_params(waves, point, z_r)
    dark = filters.TabulatedFilter(np.linspace(-1.0, 1.0, 3) * MHZ, [0.0, 0.0, 0.0])
    cases = [
        (-1e-3, dark, "ValueError: pump_power must be >= 0"),
        (1e-3, dark, "ValueError: filter_i transmits nothing: its transmission is 0 everywhere"),
        (1e-3, flt, "QuadratureError: "),
    ]
    for power, filter_i, text in cases:
        with pytest.raises(Exception) as direct:
            quantum.evaluate_source(waves, point, fp, flt, filter_i, power)
        message = f"{type(direct.value).__name__}: {direct.value}"
        assert message.startswith(text)
        (row,) = sweep(waves, point, z_r, flt, filter_i, 1e-3, [SweepAxis("P_p", (power,))])
        assert row.report is None and row.error == message


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
        # Repeated values and 0.0 next to -0.0 on a width axis: a cached
        # stage or error that reached the wrong point would show here.
        [("kappa", (-3.0, 3e4, -3.0, -1.0)), ("Gamma_s", (MHZ, 0.0, -0.0, MHZ))],
        [("Gamma_i", (0.0, 2.0 * MHZ, -0.0, 2.0 * MHZ)), ("zeta_R", (0.18, 0.0, 0.18, 0.005))],
        [("R_k", (0.04, 1.0, 0.04)), ("P_p", (1e-3, -1e-3, 1e-3))],
        # Rate-only grids, one run of powers per width: with P_p outermost,
        # power i of run j is row i * S + j. Invalid, signed-zero and repeated
        # powers pin each row's error and place in both layouts.
        [("P_p", (1e-3, -1e-3, -0.0, 1e-3, 4e-3)), ("Gamma_s", (MHZ, 0.0, 3.0 * MHZ, MHZ))],
        [("P_p", (1e-3, -1e-3, -0.0, 1e-3, 4e-3))],
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


def test_linewidths_are_computed_once_per_filter_pair(sweep_setup, monkeypatch):
    # A P_p x Gamma_s grid has one geometry and 40 filter pairs: each pair
    # takes its linewidths once, and each eta once, whatever the powers.
    waves, crystal, z_r, flt = sweep_setup
    calls = {"gamma_eff_pair": 0, "conditional_efficiency": 0, "table_single": 0}
    real_pair, real_eta = filters.gamma_eff_pair, quantum.conditional_efficiency
    real_single = filters.gamma_eff_single

    def counted_pair(*args):
        calls["gamma_eff_pair"] += 1
        return real_pair(*args)

    def counted_eta(*args):
        calls["conditional_efficiency"] += 1
        return real_eta(*args)

    def counted_single(f):
        calls["table_single"] += isinstance(f, filters.TabulatedFilter)
        return real_single(f)

    monkeypatch.setattr(filters, "gamma_eff_pair", counted_pair)
    monkeypatch.setattr(quantum, "conditional_efficiency", counted_eta)
    monkeypatch.setattr(filters, "gamma_eff_single", counted_single)
    powers = SweepAxis("P_p", tuple(np.linspace(1e-4, 1e-2, 40)))
    widths = SweepAxis("Gamma_s", tuple(np.linspace(1.0 * MHZ, 20.0 * MHZ, 40)))
    rows = sweep(waves, crystal, z_r, flt, flt, 1e-3, [powers, widths])
    assert len(rows) == 1600 and all(row.error is None for row in rows)
    assert calls == {"gamma_eff_pair": 40, "conditional_efficiency": 80, "table_single": 0}

    # With a tabulated idler, each of the 4 signal widths resamples the
    # table once, not once per point.
    table = _built("tabulated").filter_s
    assert isinstance(table, filters.TabulatedFilter)
    axes = [SweepAxis("Gamma_s", (MHZ, 2.0 * MHZ, 3.0 * MHZ, 4.0 * MHZ)),
            SweepAxis("P_p", (1e-3, 2e-3, 3e-3))]
    rows = sweep(waves, crystal, z_r, flt, table, 1e-3, axes)
    assert len(rows) == 12 and all(row.error is None for row in rows)
    assert 0 < calls["table_single"] <= 4


@pytest.mark.parametrize("power_outer", [True, False])
def test_rate_factors_are_computed_once_per_setup(sweep_setup, monkeypatch, power_outer):
    # A 40 x 40 grid of P_p and Gamma_s, each of 20 widths given twice, has
    # 20 distinct set-ups: each makes its pair factor once, whichever axis is
    # outer, and its 80 points then take only their power.
    waves, crystal, z_r, flt = sweep_setup
    calls = []
    real = quantum._pair_factor

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(quantum, "_pair_factor", counted)
    powers = SweepAxis("P_p", tuple(np.linspace(1e-4, 1e-2, 40)))
    widths = SweepAxis("Gamma_s", tuple(np.linspace(1.0 * MHZ, 20.0 * MHZ, 20)) * 2)
    axes = [powers, widths] if power_outer else [widths, powers]
    rows = sweep(waves, crystal, z_r, flt, flt, 1e-3, axes)
    assert len(rows) == 1600 and all(row.error is None for row in rows)
    assert len(calls) == 20


def test_efficiency_error_stays_in_its_geometry_rows(sweep_setup, monkeypatch):
    # An error of the efficiencies at one geometry is reported on that
    # geometry's rows, after each point's own checks; other rows are whole.
    waves, crystal, z_r, flt = sweep_setup
    real = classical.q_conversion

    def failing(w, c, i_sfg_sq):
        if i_sfg_sq == target:
            raise ValueError("efficiency failed here")
        return real(w, c, i_sfg_sq)

    rows = sweep(waves, crystal, z_r, flt, flt, 1e-3, [SweepAxis("zeta_R", (0.1, 0.2))])
    target = rows[1].report.overlaps.i_sfg_sq
    monkeypatch.setattr(classical, "q_conversion", failing)
    axes = [SweepAxis("zeta_R", (0.1, 0.2)), SweepAxis("P_p", (1e-3, -1e-3))]
    rows = sweep(waves, crystal, z_r, flt, flt, 1e-3, axes)
    assert [row.error for row in rows] == [
        None,
        "ValueError: pump_power must be >= 0",
        "ValueError: efficiency failed here",
        "ValueError: pump_power must be >= 0",
    ]


@pytest.mark.parametrize("power_outer", [True, False])
def test_heralding_check_fails_exactly_its_run(sweep_setup, monkeypatch, power_outer):
    # conditional_efficiency gives 1.5 at one signal width. The eta check
    # runs once per run, over the run's array of powers: exactly that run's
    # rows carry the error evaluate_source raises there, and every other
    # row is a report.
    waves, crystal, z_r, flt = sweep_setup
    target = 3.0 * MHZ
    real = quantum.conditional_efficiency

    def patched(w, gamma_eff, gamma_eff_single, i_sfg_sq, i_dfg_sq):
        if gamma_eff_single == target:
            return 1.5
        return real(w, gamma_eff, gamma_eff_single, i_sfg_sq, i_dfg_sq)

    monkeypatch.setattr(quantum, "conditional_efficiency", patched)
    fp = derive_focus_params(waves, crystal, z_r)
    powers = SweepAxis("P_p", (1e-3, 2e-3, 3e-3, 0.0))
    widths = SweepAxis("Gamma_s", (MHZ, target, 5.0 * MHZ))
    axes = [powers, widths] if power_outer else [widths, powers]
    rows = sweep(waves, crystal, z_r, flt, flt, 1e-3, axes)
    assert len(rows) == 12
    for row in rows:
        fs = filters.LorentzianFilter(row.coords["Gamma_s"])
        if row.coords["Gamma_s"] != target:
            assert row.error is None and row.report is not None, row.coords
            continue
        with pytest.raises(ValueError) as direct:
            quantum.evaluate_source(waves, crystal, fp, fs, flt, row.coords["P_p"])
        assert row.report is None
        assert row.error == f"ValueError: {direct.value}"
        assert row.error == "ValueError: heralding efficiency 1.5 outside (0, 1]"


def test_rate_check_fails_exactly_its_points(sweep_setup, monkeypatch):
    # A signal rate factor a tenth of its value at one width puts W1_s below
    # W2 at every power but 0 (where both are 0): the rate check runs over
    # the arrays of W2 and W1, so exactly those points carry the error
    # evaluate_source raises there.
    waves, crystal, z_r, flt = sweep_setup
    target = 3.0 * MHZ
    real = quantum._singles_factor

    def patched(w, q, gamma, arm):
        f, q = real(w, q, gamma, arm)
        return (0.1 * f if arm == "signal" and gamma == target else f), q

    monkeypatch.setattr(quantum, "_singles_factor", patched)
    fp = derive_focus_params(waves, crystal, z_r)
    axes = [SweepAxis("P_p", (1e-3, 0.0, -1e-3)), SweepAxis("Gamma_s", (MHZ, target))]
    rows = sweep(waves, crystal, z_r, flt, flt, 1e-3, axes)
    errors = []
    for row in rows:
        fs = filters.LorentzianFilter(row.coords["Gamma_s"])
        try:
            direct = quantum.evaluate_source(waves, crystal, fp, fs, flt, row.coords["P_p"])
        except ValueError as exc:
            assert row.error == f"ValueError: {exc}", row.coords
            errors.append(row.error)
        else:
            assert row.error is None and row.report == direct, row.coords
    assert errors == [
        "ValueError: pair rate exceeds a singles rate",
        "ValueError: pump_power must be >= 0",
        "ValueError: pump_power must be >= 0",
    ]
