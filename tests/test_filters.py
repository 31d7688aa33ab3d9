"""Filter linewidths and correlation shapes against closed forms."""

import math

import numpy as np
import pytest

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
        closed = gamma_eff_pair(f_s, f_i, method="closed")
        spectral = gamma_eff_pair(f_s, f_i, method="spectral")
        assert math.isclose(closed, spectral, rel_tol=1e-9)


def test_gamma_eff_pair_unfiltered_arm():
    f = LorentzianFilter(2.0 * MHZ)
    assert gamma_eff_pair(f, Unfiltered()) == f.gamma
    assert gamma_eff_pair(Unfiltered(), f) == f.gamma
    with pytest.raises(ValueError, match="both arms unfiltered"):
        gamma_eff_pair(Unfiltered(), Unfiltered())
    with pytest.raises(ValueError, match="method"):
        gamma_eff_pair(f, f, method="fourier")


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
    with pytest.raises(ValueError, match="closed form"):
        gamma_eff_pair(tab, LorentzianFilter(gamma), method="closed")


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


def test_disjoint_supports_give_zero():
    # The idler table covers +1..+3 MHz, so T_i(-W) lives on -3..-1 MHz and
    # never meets the same table on the signal arm.
    line = TabulatedFilter(np.array([1.0, 2.0, 3.0]) * MHZ, np.array([0.2, 1.0, 0.2]))
    assert gamma_eff_pair(line, line) == 0.0
    trace = correlation_shape(line, line, tau=np.linspace(-1e-6, 1e-6, 101))
    assert trace.gamma_eff == 0.0
    assert np.all(trace.f == 0.0)


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
