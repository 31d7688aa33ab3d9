"""Filter linewidths and correlation shapes against closed forms."""

import math
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from spdckit import filters
from spdckit.filters import (
    CorrelationTrace,
    LorentzianFilter,
    TabulatedFilter,
    TauGridError,
    Unfiltered,
    correlation_shape,
    default_tau_grid,
    gamma_eff_pair,
    gamma_eff_single,
    load_filter_table,
    min_tau_points,
)
from spdckit.validation import gamma_eff_pair_spectral

MHZ = 2.0 * math.pi * 1e6


def test_lorentzian_transmission_shape():
    f = LorentzianFilter(gamma=2.0 * MHZ)
    assert f.transmission(np.array([0.0]))[0] == 1.0
    # FWHM: half transmission at offset gamma / 2.
    assert math.isclose(float(f.transmission(np.array([f.gamma / 2.0]))[0]), 0.5, rel_tol=1e-15)
    omega = np.linspace(-5.0 * f.gamma, 5.0 * f.gamma, 101)
    assert np.allclose(np.abs(f.amplitude_ft(omega)) ** 2, f.transmission(omega), rtol=1e-14)
    for bad in (0.0, -math.inf, math.inf, math.nan):
        with pytest.raises(ValueError, match="gamma must be positive and finite"):
            LorentzianFilter(gamma=bad)


def test_tabulated_filter_validation():
    with pytest.raises(ValueError, match="strictly increasing"):
        TabulatedFilter(np.array([0.0, 0.0, 1.0]), np.array([1.0, 1.0, 1.0]))
    with pytest.raises(ValueError, match="lie in"):
        TabulatedFilter(np.array([0.0, 1.0]), np.array([0.5, 1.5]))
    with pytest.raises(ValueError, match="at least 2"):
        TabulatedFilter(np.array([0.0]), np.array([1.0]))
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="lie in"):
            TabulatedFilter(np.array([0.0, 1.0, 2.0]), np.array([0.5, bad, 0.5]))
        with pytest.raises(ValueError, match="finite"):
            TabulatedFilter(np.array([0.0, 1.0, bad]), np.array([0.5, 0.5, 0.5]))
        with pytest.raises(ValueError, match="finite"):
            TabulatedFilter(np.array([-bad, 1.0, 2.0]), np.array([0.5, 0.5, 0.5]))
    f = TabulatedFilter(np.array([-1.0, 0.0, 1.0]), np.array([0.0, 1.0, 0.0]))
    # Outside the table the transmission is zero, not extrapolated.
    assert f.transmission(np.array([2.0]))[0] == 0.0
    assert f.transmission(np.array([0.5]))[0] == 0.5


def test_gamma_eff_pair_closed_form():
    g_s, g_i = 2.0 * MHZ, 6.0 * MHZ
    got = gamma_eff_pair(LorentzianFilter(g_s), LorentzianFilter(g_i))
    assert math.isclose(got, g_s * g_i / (g_s + g_i), rel_tol=1e-15)


def test_gamma_eff_pair_matched_is_exactly_half():
    for gamma in [1.7 * MHZ, 2.0 * MHZ, 3.9999 * MHZ, 977.0]:
        f = LorentzianFilter(gamma)
        assert gamma_eff_pair(f, f) == 0.5 * gamma


def test_gamma_eff_pair_spectral_agrees_with_closed():
    rng = np.random.default_rng(5)
    for _ in range(5):
        g_s, g_i = rng.uniform(0.5, 20.0, 2) * MHZ
        f_s, f_i = LorentzianFilter(g_s), LorentzianFilter(g_i)
        closed = gamma_eff_pair(f_s, f_i)
        spectral = gamma_eff_pair_spectral(f_s, f_i)
        assert math.isclose(closed, spectral, rel_tol=1e-9)


def test_gamma_eff_pair_unfiltered_arm():
    f = LorentzianFilter(2.0 * MHZ)
    assert gamma_eff_pair(f, Unfiltered()) == f.gamma
    assert gamma_eff_pair(Unfiltered(), f) == f.gamma
    with pytest.raises(ValueError, match="both arms unfiltered"):
        gamma_eff_pair(Unfiltered(), Unfiltered())
    with pytest.raises(ValueError, match="both arms unfiltered"):
        gamma_eff_pair_spectral(Unfiltered(), Unfiltered())


def test_gamma_eff_single():
    f = LorentzianFilter(3.0 * MHZ)
    assert gamma_eff_single(f) == f.gamma
    with pytest.raises(ValueError, match="unfiltered"):
        gamma_eff_single(Unfiltered())


def _tabulate_lorentzian(gamma: float, span: float, n: int) -> TabulatedFilter:
    omega = np.linspace(-span, span, n)
    return TabulatedFilter(omega, gamma**2 / (gamma**2 + 4.0 * omega**2))


def test_gamma_eff_single_tabulated_matches_lorentzian():
    gamma = 2.0 * MHZ
    tab = _tabulate_lorentzian(gamma, 400.0 * gamma, 80001)
    # Truncation at +-400 gamma costs ~1/(200 pi) of the area.
    assert math.isclose(gamma_eff_single(tab), gamma, rel_tol=5e-3)


def test_gamma_eff_pair_tabulated_route():
    gamma = 2.0 * MHZ
    tab = _tabulate_lorentzian(gamma, 400.0 * gamma, 80001)
    got = gamma_eff_pair(tab, LorentzianFilter(gamma))
    assert math.isclose(got, 0.5 * gamma, rel_tol=5e-3)
    with pytest.raises(ValueError, match="table-free"):
        gamma_eff_pair_spectral(tab, LorentzianFilter(gamma))


def test_correlation_matched_closed_form():
    gamma = 2.0 * MHZ
    f = LorentzianFilter(gamma)
    tau = default_tau_grid(f, f)
    trace = correlation_shape(f, f, tau=tau)
    expected = (gamma / 4.0) * np.exp(-gamma * np.abs(tau) / 2.0)
    assert np.max(np.abs(trace.f - expected)) < 1e-12 * gamma
    assert trace.gamma_eff == 0.5 * gamma


def test_correlation_asymmetric_closed_form():
    g_s, g_i = 2.0 * MHZ, 8.0 * MHZ
    f_s, f_i = LorentzianFilter(g_s), LorentzianFilter(g_i)
    tau = default_tau_grid(f_s, f_i)
    trace = correlation_shape(f_s, f_i, tau=tau)
    pref = g_s * g_i / (2.0 * (g_s + g_i))
    expected = pref * np.where(
        tau >= 0.0, np.exp(-0.5 * g_s * np.maximum(tau, 0.0)),
        np.exp(0.5 * g_i * np.minimum(tau, 0.0)),
    )
    assert np.max(np.abs(trace.f - expected)) < 1e-12 * pref


def test_correlation_single_sided_limits():
    gamma = 4.0 * MHZ
    lor = LorentzianFilter(gamma)
    tau = np.linspace(-10.0 / gamma, 10.0 / gamma, 2001)
    # No signal filter: the idler photon always arrives later (tau <= 0).
    trace = correlation_shape(Unfiltered(), lor, tau=tau)
    on = tau <= 0.0
    assert np.max(np.abs(trace.f[~on])) == 0.0
    expected = 0.5 * gamma * np.exp(0.5 * gamma * tau[on])
    assert np.max(np.abs(trace.f[on] - expected)) < 1e-12 * gamma
    # Mirror case: no idler filter.
    trace2 = correlation_shape(lor, Unfiltered(), tau=tau)
    on2 = tau >= 0.0
    assert np.max(np.abs(trace2.f[~on2])) == 0.0
    expected2 = 0.5 * gamma * np.exp(-0.5 * gamma * tau[on2])
    assert np.max(np.abs(trace2.f[on2] - expected2)) < 1e-12 * gamma


def test_temporal_route_matches_closed_gamma_eff():
    g_s, g_i = 1.5 * MHZ, 11.0 * MHZ
    f_s, f_i = LorentzianFilter(g_s), LorentzianFilter(g_i)
    tau = default_tau_grid(f_s, f_i, points=2**20 + 1)
    trace = correlation_shape(f_s, f_i, tau=tau)
    closed = gamma_eff_pair(f_s, f_i)
    assert math.isclose(trace.temporal_gamma_eff(), closed, rel_tol=1e-6)


def test_correlation_spectral_route_for_tabulated():
    gamma = 2.0 * MHZ
    tab = _tabulate_lorentzian(gamma, 400.0 * gamma, 80001)
    tau = default_tau_grid(LorentzianFilter(gamma), LorentzianFilter(gamma), points=4097)
    trace = correlation_shape(tab, tab, tau=tau)
    # Zero-phase reconstruction of a symmetric table: f is real and even.
    assert np.max(np.abs(trace.f.imag)) < 1e-9 * gamma
    assert np.max(np.abs(trace.f - trace.f[::-1])) < 1e-9 * gamma
    # Parseval ties the temporal integral to the same truncated spectrum.
    assert math.isclose(trace.temporal_gamma_eff(), trace.gamma_eff, rel_tol=5e-3)


# Two asymmetric tables with different, partly overlapping supports, so f is
# complex and the joint support differs from either table.
_OMEGA_A = np.linspace(-30.0, 50.0, 401) * MHZ
_TABLE_A = TabulatedFilter(
    _OMEGA_A,
    (0.9 + 0.1 * np.tanh(_OMEGA_A / (10.0 * MHZ)))
    / (1.0 + ((_OMEGA_A - 2.0 * MHZ) / (2.0 * MHZ)) ** 2),
)
_OMEGA_B = np.linspace(-40.0, 25.0, 257) * MHZ
_SHAPE_B = np.exp(-0.5 * ((_OMEGA_B + MHZ) / (3.0 * MHZ)) ** 2) + 0.2 * np.exp(
    -0.5 * ((_OMEGA_B - 6.0 * MHZ) / (2.0 * MHZ)) ** 2
)
_TABLE_B = TabulatedFilter(_OMEGA_B, _SHAPE_B / _SHAPE_B.max())
_LORENTZ = LorentzianFilter(3.0 * MHZ)
SPECTRAL_PAIRS = {
    "table-table": (_TABLE_A, _TABLE_B),
    "table-lorentzian": (_TABLE_A, _LORENTZ),
    "lorentzian-table": (_LORENTZ, _TABLE_B),
    "table-unfiltered": (_TABLE_B, Unfiltered()),
    "unfiltered-table": (Unfiltered(), _TABLE_A),
}
# tau grid and the stride of the points the oracle checks.
TAU_GRIDS = {
    "symmetric-odd": (np.linspace(-1e-6, 1e-6, 2001), 50),
    "symmetric-even": (np.linspace(-1e-6, 1e-6, 1000), 25),
    "off-centre": (np.linspace(-0.4e-6, 1.3e-6, 777), 19),
    "minimum": (np.linspace(-30e-9, 50e-9, 9), 1),
    "more-tau-than-omega": (np.linspace(-2e-6, 2e-6, 40001), 1000),
    # The --points cap, and so the widest chirp.
    "widest": (np.linspace(-5e-6, 5e-6, 1_000_000), 50_000),
}


def _direct_correlation(f_s, f_i, tau: np.ndarray) -> np.ndarray:
    """Reference f(tau): the chirp-z's trapezoid sum over the joint support, term by term."""
    sup_i = None if f_i.support is None else (-f_i.support[1], -f_i.support[0])
    bounds = [b for b in (f_s.support, sup_i) if b is not None]
    lo, hi = max(b[0] for b in bounds), min(b[1] for b in bounds)
    w = np.linspace(lo, hi, filters._SPECTRAL_POINTS)
    weights = np.full(w.size, w[1] - w[0])
    weights[[0, -1]] *= 0.5
    weighted = f_s.amplitude_ft(w) * f_i.amplitude_ft(-w) * weights / (2.0 * math.pi)
    return np.array([np.sum(weighted * np.exp(-1j * w * t)) for t in tau])


@pytest.mark.parametrize("grid", TAU_GRIDS)
@pytest.mark.parametrize("pair", SPECTRAL_PAIRS)
def test_spectral_correlation_matches_direct_sum(pair, grid):
    f_s, f_i = SPECTRAL_PAIRS[pair]
    tau, stride = TAU_GRIDS[grid]
    f = correlation_shape(f_s, f_i, tau=tau).f
    idx = np.union1d(np.arange(0, tau.size, stride), [tau.size - 1, np.argmax(np.abs(f))])
    expected = _direct_correlation(f_s, f_i, tau[idx])
    assert np.max(np.abs(f[idx] - expected)) <= 1e-10 * np.max(np.abs(expected))


@pytest.mark.parametrize("n", [9, 255, 256, 257, 32001, 1_000_000])
@pytest.mark.parametrize("q_sign", [1.0, -1.0])
@pytest.mark.parametrize("l_sign", [1.0, -1.0, 0.0])
def test_quadratic_phasor_is_as_accurate_as_the_rounded_phase(n, q_sign, l_sign):
    # Phases of a few thousand radians at the last index, as in the chirp-z.
    q = q_sign * math.e * 1e3 / n**2
    l = l_sign * math.pi * 1e2 / n
    j = np.arange(n, dtype=np.longdouble)
    exact = np.longdouble(q) * j * j + np.longdouble(l) * j
    cos, sin = np.cos(exact), np.sin(exact)

    def error(z):
        return float(np.max(np.hypot(z.real - cos, z.imag - sin)))

    j = np.arange(n, dtype=float)
    rounded = filters._phasor(q * j**2 + l * j)
    # Each entry is a few rounded products of phasors: a few ulp of 1 on top.
    bound = error(rounded) + 16.0 * np.finfo(float).eps
    assert error(filters._quadratic_phasor(q, l, n)) <= bound


@pytest.mark.parametrize(
    "f_s, f_i", [(_LORENTZ, _LORENTZ), (_TABLE_A, _LORENTZ)], ids=["closed", "spectral"]
)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_correlation_refuses_a_non_finite_tau(f_s, f_i, bad):
    tau = np.linspace(-0.5e-6, 0.5e-6, 101)
    assert np.all(np.isfinite(correlation_shape(f_s, f_i, tau=tau).f))
    broken = tau.copy()
    broken[[37, 80]] = bad
    with pytest.raises(ValueError, match=rf"tau must be finite: tau\[37\] = {bad!r}"):
        correlation_shape(f_s, f_i, tau=broken)


@pytest.mark.parametrize(
    "f_s, f_i", [(_LORENTZ, _LORENTZ), (_TABLE_A, _LORENTZ)], ids=["closed", "spectral"]
)
def test_correlation_leaves_the_callers_tau_writable(f_s, f_i):
    # The trace used to freeze the caller's own array: a later tau[i] = x
    # raised "assignment destination is read-only".
    tau = np.linspace(-0.5e-6, 0.5e-6, 101)
    trace = correlation_shape(f_s, f_i, tau=tau)
    tau[3] = 0.0
    assert tau.flags.writeable and not trace.tau.flags.writeable
    assert trace.tau[3] == np.linspace(-0.5e-6, 0.5e-6, 101)[3]
    with pytest.raises(ValueError, match="read-only"):
        trace.tau[3] = 0.0


def test_tabulated_correlation_needs_uniform_tau():
    tau = np.linspace(-1e-6, 1e-6, 2001)
    step = tau[1] - tau[0]
    bent = tau.copy()
    bent[700] += 1e-6 * step
    two_steps = np.concatenate([np.linspace(-1e-6, 0.0, 1001), np.linspace(0.0, 1e-6, 501)[1:]])
    # Closed forms take any grid.
    closed = [(_LORENTZ, _LORENTZ), (Unfiltered(), _LORENTZ), (_LORENTZ, Unfiltered())]
    for grid in (bent, two_steps):
        for f_s, f_i in SPECTRAL_PAIRS.values():
            with pytest.raises(TauGridError, match="np.linspace or default_tau_grid"):
                correlation_shape(f_s, f_i, tau=grid)
        for f_s, f_i in closed:
            assert np.array_equal(correlation_shape(f_s, f_i, tau=grid).tau, grid)
    # An offset far inside the 1e-9 * d_tau tolerance is taken as rounding.
    nudged = tau.copy()
    nudged[700] += 1e-12 * step
    assert correlation_shape(_TABLE_A, _LORENTZ, tau=nudged).f.shape == tau.shape


def test_decreasing_tau_grid_is_checked_like_an_increasing_one():
    f = LorentzianFilter(2.0 * MHZ)
    with pytest.raises(TauGridError, match="too coarse"):
        correlation_shape(f, f, tau=np.linspace(1e-3, -1e-3, 64))
    for f_s, f_i in [(f, f), SPECTRAL_PAIRS["table-lorentzian"]]:
        tau = default_tau_grid(f_s, f_i, points=2001)
        up = correlation_shape(f_s, f_i, tau=tau)
        down = correlation_shape(f_s, f_i, tau=tau[::-1])
        assert np.max(np.abs(down.f - up.f[::-1])) <= 1e-10 * np.max(np.abs(up.f))
        assert math.isclose(down.temporal_gamma_eff(), up.temporal_gamma_eff(), rel_tol=1e-10)


def test_disjoint_supports_give_zero():
    # The idler table covers +1..+3 MHz, so T_i(-W) lives on -3..-1 MHz and
    # never meets the same table on the signal arm.
    line = TabulatedFilter(np.array([1.0, 2.0, 3.0]) * MHZ, np.array([0.2, 1.0, 0.2]))
    assert gamma_eff_pair(line, line) == 0.0
    trace = correlation_shape(line, line, tau=np.linspace(-1e-6, 1e-6, 101))
    assert trace.gamma_eff == 0.0
    assert np.all(trace.f == 0.0)


def test_a_dark_table_has_no_tau_grid():
    # A table that transmits nothing has Gamma_eff,single = 0 and so no time
    # scale: sizing a grid from it used to divide by zero. An explicit grid
    # still gives the zero correlation.
    dark = TabulatedFilter(np.array([-1.0, 0.0, 1.0]) * MHZ, np.zeros(3))
    lorentzian = LorentzianFilter(2.0 * MHZ)
    for f_s, f_i, name in [(lorentzian, dark, "filter_i"), (dark, Unfiltered(), "filter_s")]:
        message = f"{name} transmits nothing: its transmission is 0 everywhere"
        with pytest.raises(ValueError, match=message):
            default_tau_grid(f_s, f_i)
        with pytest.raises(ValueError, match=message):
            min_tau_points(f_s, f_i, 1e-6)
        with pytest.raises(ValueError, match=message):
            correlation_shape(f_s, f_i)
        trace = correlation_shape(f_s, f_i, tau=np.linspace(-1e-6, 1e-6, 101))
        assert trace.gamma_eff == 0.0
        assert np.all(trace.f == 0.0)


def _exact_pair_integral(f_s, f_i) -> float:
    """Int T_s(W) T_i(-W) dW by adaptive quadrature between the merged breakpoints.

    Between two breakpoints (table nodes, mirrored for the idler arm, and the
    Lorentzian centre) the integrand is smooth: a quadratic for two tables,
    a line times a Lorentzian otherwise.
    """
    tables = [f.omega for f in (f_s,) if isinstance(f, TabulatedFilter)]
    tables += [-f.omega[::-1] for f in (f_i,) if isinstance(f, TabulatedFilter)]
    lo = max(nodes[0] for nodes in tables)
    hi = min(nodes[-1] for nodes in tables)
    if not lo < hi:
        return 0.0
    breaks = np.concatenate([[lo, 0.0, hi], *tables])
    breaks = np.unique(breaks[(breaks >= lo) & (breaks <= hi)])

    def integrand(w):
        return float(f_s.transmission(np.array([w]))[0] * f_i.transmission(np.array([-w]))[0])

    pieces = [
        scipy.integrate.quad(integrand, a, b, epsabs=0.0, epsrel=2e-14, limit=200)[0]
        for a, b in zip(breaks[:-1], breaks[1:])
    ]
    return math.fsum(pieces)


def _table(offsets_mhz, values) -> TabulatedFilter:
    return TabulatedFilter(np.asarray(offsets_mhz, dtype=float) * MHZ, np.asarray(values, dtype=float))


_GRID_C = np.arange(-10.0, 7.5001, 0.5)
_GRID_D = np.arange(-12.0, 12.0001, 0.25)
_GRID_E = np.linspace(-20.0, 20.0, 161)
ORACLE_PAIRS = {
    **{name: SPECTRAL_PAIRS[name] for name in ("table-table", "table-lorentzian", "lorentzian-table")},
    "two-row-lorentzian": (_table([-3.0, 5.0], [0.2, 0.9]), _LORENTZ),
    "lorentzian-two-row": (_LORENTZ, _table([-3.0, 5.0], [0.2, 0.9])),
    "two-row-table": (_table([-3.0, 5.0], [0.2, 0.9]), _TABLE_B),
    # Symmetric grid: the mirrored idler nodes coincide with the signal nodes.
    "identical-nodes": (
        _table(_GRID_E, np.exp(-((_GRID_E / 6.0) ** 2))),
        _table(_GRID_E, 0.5 + 0.5 * np.cos(_GRID_E / 4.0)),
    ),
    # Both edges of the signal table fall on mirrored idler nodes.
    "edge-on-node": (
        _table(_GRID_C, 0.5 + 0.4 * np.sin(_GRID_C)),
        _table(_GRID_D, 1.0 / (1.0 + (_GRID_D / 3.0) ** 2)),
    ),
    # Segments thousands of gamma wide, some at |W| >> gamma, where the two
    # Lorentzian moments in B - a A partly cancel.
    "wide-segments-lorentzian": (
        _table([-5000.0, -3000.0, 200.0, 4000.0, 9000.0], [0.3, 0.9, 0.5, 1.0, 0.1]),
        LorentzianFilter(0.5 * MHZ),
    ),
    "lorentzian-far-segment": (LorentzianFilter(0.5 * MHZ), _table([800.0, 4000.0], [1.0, 0.0])),
}


@pytest.mark.parametrize("pair", ORACLE_PAIRS)
def test_tabulated_gamma_eff_pair_matches_exact_integral(pair):
    f_s, f_i = ORACLE_PAIRS[pair]
    exact = (2.0 / math.pi) * _exact_pair_integral(f_s, f_i)
    assert exact > 0.0
    assert math.isclose(gamma_eff_pair(f_s, f_i), exact, rel_tol=1e-13)


def test_tabulated_gamma_eff_pair_of_disjoint_or_touching_supports_is_zero():
    signal = _table([0.0, 1.0, 2.0], [0.5, 1.0, 0.5])
    # T_i(-W) lives on [-3, -2.5] MHz (disjoint) or [-2, 0] MHz (touching at 0).
    for idler in (_table([2.5, 3.0], [1.0, 1.0]), _table([0.0, 2.0], [1.0, 1.0])):
        assert _exact_pair_integral(signal, idler) == 0.0
        assert gamma_eff_pair(signal, idler) == 0.0
        assert gamma_eff_pair(idler, signal) == 0.0


def test_tabulated_gamma_eff_pair_with_unfiltered_arm_is_gamma_eff_single():
    for table in (_TABLE_A, _TABLE_B, _table([-3.0, 5.0], [0.2, 0.9])):
        single = gamma_eff_single(table)
        assert gamma_eff_pair(table, Unfiltered()) == single
        assert gamma_eff_pair(Unfiltered(), table) == single


@st.composite
def _tables(draw):
    """2-40 rows, 10 Hz to 1 GHz wide, starting within +-50 MHz.

    Pairs of these are often narrow, disjoint or single-segment.
    """
    n = draw(st.integers(2, 40))
    start = draw(st.floats(-50.0, 50.0))
    scale = draw(st.sampled_from([1e-3, 1.0, 30.0]))
    steps = draw(st.lists(st.floats(0.01, 1.0), min_size=n - 1, max_size=n - 1))
    values = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    return _table(start + scale * np.concatenate([[0.0], np.cumsum(steps)]), values)


# Hypothesis also draws from the literals in the package source, so the
# derandomized examples drift whenever a constant in src/ changes; that is
# accepted. The pairs this suite depends on are pinned below: the sliver
# overlap that once gave different values in the two arm orders, disjoint
# and touching supports, and single-segment tables.
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_tables(), _tables())
@example(
    TabulatedFilter(np.array([0.0, 2e3 * math.pi]), np.array([1.0, 0.0])),
    TabulatedFilter(np.array([-5.64836829e-16, 2e3 * math.pi]), np.array([0.0, 1.0])),
)
@example(_table([0.0, 1.0, 2.0], [0.5, 1.0, 0.5]), _table([2.5, 3.0], [1.0, 1.0]))
@example(_table([0.0, 1.0, 2.0], [0.5, 1.0, 0.5]), _table([0.0, 2.0], [1.0, 1.0]))
@example(_table([-3.0, 5.0], [0.2, 0.9]), _table([-1.0, 2.0], [1.0, 0.4]))
@example(_table([-3.0, 5.0], [0.2, 0.9]), _TABLE_B)
def test_tabulated_gamma_eff_pair_properties(a, b):
    ab, ba = gamma_eff_pair(a, b), gamma_eff_pair(b, a)
    assert math.isfinite(ab)
    assert math.isclose(ab, ba, rel_tol=1e-13)
    # T_b <= 1, so the pair integral is at most the area under T_a; the slack
    # is for rounding where T_b = 1 across the whole support of T_a.
    bound = (2.0 / math.pi) * float(np.trapezoid(a.transmission_values, a.omega))
    assert 0.0 <= ab <= bound * (1.0 + 1e-13)


def test_tabulated_gamma_eff_pair_of_a_sliver_overlap_is_symmetric():
    # The joint support is [0, 5.6e-16] rad/s, where T_i(-W) ~ 9e-20 falls
    # to 0 at a node 2 pi kHz away. Interpolating from the far node gave 0
    # for one arm order and 1.6e-35 rad/s for the other.
    ramp_down = TabulatedFilter(np.array([0.0, 2e3 * math.pi]), np.array([1.0, 0.0]))
    ramp_up = TabulatedFilter(np.array([-5.64836829e-16, 2e3 * math.pi]), np.array([0.0, 1.0]))
    ab, ba = gamma_eff_pair(ramp_down, ramp_up), gamma_eff_pair(ramp_up, ramp_down)
    # (2/pi) h t / 2 with h = 5.6e-16 and t = h / (2 pi kHz).
    want = 5.64836829e-16**2 / (2e3 * math.pi**2)
    assert math.isclose(ab, want, rel_tol=1e-12)
    assert math.isclose(ba, want, rel_tol=1e-12)


def test_min_tau_points_is_worked_out_without_a_grid():
    # The count's grid is accepted and one of two points fewer is not; one
    # point fewer is accepted only where the limit is within rounding of it.
    rng = np.random.default_rng(14)
    ratios = [1.0, 2.0, 200.0, *rng.uniform(1.0, 300.0, 57)]
    for gamma_s, ratio, width in zip(rng.uniform(0.5, 5.0, 60), ratios, rng.uniform(10, 60, 60)):
        f_s, f_i = LorentzianFilter(gamma_s * MHZ), LorentzianFilter(gamma_s * ratio * MHZ)
        half_span = width / (gamma_s * MHZ)
        n = min_tau_points(f_s, f_i, half_span)
        correlation_shape(f_s, f_i, tau=np.linspace(-half_span, half_span, n))
        with pytest.raises(TauGridError):
            correlation_shape(f_s, f_i, tau=np.linspace(-half_span, half_span, n - 2))
        spacing = 2.0 * half_span / (n - 2) * gamma_s * ratio * MHZ
        if abs(spacing - 0.4) > 1e-12:
            with pytest.raises(TauGridError):
                correlation_shape(f_s, f_i, tau=np.linspace(-half_span, half_span, n - 1))
    # A span of 1e6 s needs 6.5e13 points at 2 MHz, which were once built
    # (457 TiB) to pick the count.
    matched = LorentzianFilter(2.0 * MHZ)
    assert min_tau_points(matched, matched, 1e6) == 64725618625374


def test_default_tau_grid_resolves_unequal_widths():
    # 32769 points over +-40/gamma_min resolve width ratios up to ~164; a
    # wider ratio gets as many points as min_tau_points asks for.
    f_s, f_i = LorentzianFilter(1.0 * MHZ), LorentzianFilter(200.0 * MHZ)
    tau = default_tau_grid(f_s, f_i)
    assert tau.size == min_tau_points(f_s, f_i, float(tau[-1])) > 32769
    assert correlation_shape(f_s, f_i).tau.size == tau.size
    matched = LorentzianFilter(2.0 * MHZ)
    assert default_tau_grid(matched, matched).size == 32769
    # An explicit point count is taken as given.
    with pytest.raises(TauGridError):
        correlation_shape(f_s, f_i, tau=default_tau_grid(f_s, f_i, points=32769))


def test_correlation_carries_w2_density():
    gamma = 2.0 * MHZ
    f = LorentzianFilter(gamma)
    trace = correlation_shape(f, f, w2_prefactor=3.0)
    assert trace.w2_density is not None
    assert np.allclose(trace.w2_density, 3.0 * np.abs(trace.f) ** 2, rtol=1e-14)
    bare = correlation_shape(f, f)
    assert bare.w2_density is None


def test_correlation_grid_validation():
    f = LorentzianFilter(2.0 * MHZ)
    with pytest.raises(ValueError, match="too coarse"):
        correlation_shape(f, f, tau=np.linspace(-1e-3, 1e-3, 64))
    with pytest.raises(ValueError, match="at least 9"):
        correlation_shape(f, f, tau=np.zeros(4))
    with pytest.raises(ValueError, match="both arms unfiltered"):
        correlation_shape(Unfiltered(), Unfiltered())
    with pytest.raises(ValueError, match="finite-bandwidth"):
        default_tau_grid(Unfiltered(), Unfiltered())


def test_correlation_trace_arrays_frozen():
    f = LorentzianFilter(2.0 * MHZ)
    trace = correlation_shape(f, f)
    with pytest.raises(ValueError):
        trace.f[0] = 0.0
    assert isinstance(trace, CorrelationTrace)


def test_load_filter_table(tmp_path):
    table = tmp_path / "etalon.txt"
    table.write_text(
        "# measured transmission\nunits: MHz\n-4 0.05\n-1 0.8\n0 1.0\n1 0.8\n4 0.05\n",
        encoding="utf-8",
    )
    flt = load_filter_table(table)
    assert flt.omega[0] == -4.0 * MHZ
    assert flt.transmission_values[2] == 1.0


@pytest.mark.parametrize(
    "body, message",
    [
        ("-1 0.5\n1 0.5\n", "units"),
        ("units: THz\n-1 0.5\n1 0.5\n", "units"),
        ("units: MHz\n-1 0.5 9\n", "offset transmission"),
        ("units: MHz\n-1 fast\n", "not numeric"),
        ("units: MHz\n-1 0.5\n-2 0.5\n", "strictly increasing"),
        ("units: MHz\n-1 0.5\n1 0.5\n1 0.7\n", "line 4: offsets must be strictly increasing: '1 0.7'"),
        ("units: MHz\n-1 0.5\n0 1.5\n1 0.5\n", r"line 3: transmission must lie in \[0, 1\]: '0 1.5'"),
        ("units: MHz\n-1 0.5\n0 nan\n1 0.5\n", "line 3: not finite: '0 nan'"),
        ("units: rad/s\n-inf 0.5\n1 0.5\n", "line 2: not finite"),
        ("# scan\nunits: MHz\n-1 0.5\n1e308 0.5\n", "line 4: not finite"),
        ("", "missing 'units:'"),
        ("units: MHz\n-1 0.5\n", "bad.txt: a table needs at least 2 data rows, got 1$"),
        ("# empty scan\nunits: rad/s\n\n", "bad.txt: a table needs at least 2 data rows, got 0$"),
        # Two bad rows of different kinds: the first in the file is named.
        ("units: MHz\n-2 0.5\n-1 1.5\n0 fast\n", r"line 3: transmission must lie in \[0, 1\]"),
        ("units: MHz\n-2 0.5\n-1 fast\n0 1.5\n", "line 3: not numeric: '-1 fast'"),
        ("units: MHz\n-2 0.5\n-3 0.5\n0 0.5 9\n", "line 3: offsets must be strictly increasing"),
        ("units: MHz\n-2 0.5\n0 0.5 9\n-3 0.5\n", "line 3: expected 'offset transmission'$"),
        ("units: MHz\n-2 0.5\n\n# gap\n-1 nan\n-1 2\n", "line 5: not finite: '-1 nan'"),
    ],
)
def test_load_filter_table_errors(tmp_path, body, message):
    table = tmp_path / "bad.txt"
    table.write_text(body, encoding="utf-8")
    with pytest.raises(ValueError, match=message):
        load_filter_table(table)


def _reference_load(path) -> tuple[np.ndarray, np.ndarray]:
    """The table loader written row by row: the numbers and messages to keep."""
    unit = None
    offsets: list[float] = []
    values: list[float] = []
    for line_no, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if unit is None:
            key, _, value = line.partition(":")
            if key.strip() != "units" or value.strip() not in ("MHz", "rad/s"):
                raise ValueError(
                    f"{path}: line {line_no}: expected a header 'units: MHz' or "
                    "'units: rad/s' before the data rows"
                )
            unit = value.strip()
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"{path}: line {line_no}: expected 'offset transmission'")
        try:
            offset, value = float(parts[0]), float(parts[1])
        except ValueError:
            raise ValueError(f"{path}: line {line_no}: not numeric: {line!r}") from None
        offset *= MHZ if unit == "MHz" else 1.0
        if not (math.isfinite(offset) and math.isfinite(value)):
            raise ValueError(f"{path}: line {line_no}: not finite: {line!r}")
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{path}: line {line_no}: transmission must lie in [0, 1]: {line!r}")
        if offsets and not offset > offsets[-1]:
            raise ValueError(
                f"{path}: line {line_no}: offsets must be strictly increasing: {line!r}"
            )
        offsets.append(offset)
        values.append(value)
    if unit is None:
        raise ValueError(f"{path}: missing 'units:' header")
    if len(offsets) < 2:
        raise ValueError(f"{path}: a table needs at least 2 data rows, got {len(offsets)}")
    return np.array(offsets), np.array(values)


# float() spellings beyond the plain decimal, and tokens it refuses.
_ODD_TOKENS = [
    "1_0", "+.5e-3", "Infinity", "-iNF", "nan", "-0.0", "1.5", "1e308", "0x10", "1,5", "0.5."
]
_HEADERS = ["units: MHz", "units: rad/s", "units:MHz # scan", "\tunits :  rad/s"]


@st.composite
def _table_texts(draw):
    """A table file: rows in varied float() syntax between comments and blank lines.

    Most files are valid; an odd token, a rounded duplicate offset or a row
    of the wrong width makes some of them fail, and the loader must then
    give the reference's message.
    """
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    filler = st.sampled_from(["", "   ", "\t", "# note", "  # indented # twice"])
    lines = draw(st.lists(filler, max_size=2))
    lines.append(draw(st.sampled_from(_HEADERS)))
    n = draw(st.integers(0, 12))
    offsets = np.cumsum(draw(st.lists(st.floats(1e-4, 5.0), min_size=n, max_size=n))) - 8.0
    for offset in offsets.tolist():
        value = draw(st.floats(0.0, 1.0))
        cells = [
            draw(st.sampled_from([repr(x), f"{x:.4g}", f"{x:+.3e}", f"{x:_}", f" {x!r}"]))
            for x in (offset, value)
        ]
        if draw(st.integers(0, 9)) == 0:
            cells[draw(st.integers(0, 1))] = draw(st.sampled_from(_ODD_TOKENS))
        if draw(st.integers(0, 19)) == 0:
            cells = cells[: draw(st.sampled_from([1, 3]))] + ["0.5"]
        sep = draw(st.sampled_from([" ", "\t", "  \t "]))
        tail = draw(st.sampled_from(["", "  ", " # ok", "#"]))
        lines.append(sep.join(cells) + tail)
        lines += draw(st.lists(filler, max_size=1))
    return eol.join(lines) + draw(st.sampled_from(["", eol]))


# The drawn files drift with the literals in src/ (see above); the examples
# pin the float() spellings, CRLF and comment placements the loader must keep.
@settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(_table_texts())
@example("# etalon\r\nunits: MHz\r\n-1_0\t0.5 # edge\r\n\r\n \t\r\n+.5e-3 1\r\n1_0 +.5e-3\r\n")
@example("units: rad/s\n-Infinity 0.5\n1 0.5\n")
@example("units: rad/s\n0 Infinity\n1 0.5\n")
@example("  # header below\nunits:MHz# tight\n\t-2\t0\n2 1  \n")
@example("units: MHz\n-1 0.5\n1 nan\n1 1.5\n")
@example("units: MHz\n-1e308 0.5\n1e308 0.5\n")
@example("units: MHz\n# only a comment\n")
def test_load_filter_table_matches_the_row_by_row_reference(tmp_path, text):
    table = tmp_path / "table.txt"
    table.write_bytes(text.encode("utf-8"))
    try:
        omega, values = _reference_load(table)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            load_filter_table(table)
        assert str(got.value) == str(exc)
        return
    flt = load_filter_table(table)
    assert flt.omega.tobytes() == omega.tobytes()
    assert flt.transmission_values.tobytes() == values.tobytes()


def test_filters_module_exports():
    for name in filters.__all__:
        assert getattr(filters, name) is not None
