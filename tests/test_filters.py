"""Filter linewidths and correlation shapes against closed forms."""

import math

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
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
    with pytest.raises(ValueError, match="gamma"):
        LorentzianFilter(gamma=0.0)


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
}


def _direct_correlation(f_s, f_i, tau: np.ndarray) -> np.ndarray:
    """Reference f(tau): the 32001-point trapezoid sum over the joint support, term by term."""
    sup_i = None if f_i.support is None else (-f_i.support[1], -f_i.support[0])
    bounds = [b for b in (f_s.support, sup_i) if b is not None]
    w = np.linspace(max(b[0] for b in bounds), min(b[1] for b in bounds), 32001)
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


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_tables(), _tables())
def test_tabulated_gamma_eff_pair_properties(a, b):
    ab, ba = gamma_eff_pair(a, b), gamma_eff_pair(b, a)
    assert math.isfinite(ab)
    assert math.isclose(ab, ba, rel_tol=1e-13)
    # T_b <= 1, so the pair integral is at most the area under T_a; the slack
    # is for rounding where T_b = 1 across the whole support of T_a.
    bound = (2.0 / math.pi) * float(np.trapezoid(a.transmission_values, a.omega))
    assert 0.0 <= ab <= bound * (1.0 + 1e-13)


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
    ],
)
def test_load_filter_table_errors(tmp_path, body, message):
    table = tmp_path / "bad.txt"
    table.write_text(body, encoding="utf-8")
    with pytest.raises(ValueError, match=message):
        load_filter_table(table)


def test_filters_module_exports():
    for name in filters.__all__:
        assert getattr(filters, name) is not None
