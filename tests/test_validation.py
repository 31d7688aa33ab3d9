"""The independent-oracle suite must agree with the main implementation."""

import math
import tracemalloc

import numpy as np
import pytest

from spdckit import classical, overlap, quantum, validation
from spdckit.filters import LorentzianFilter, Unfiltered, gamma_eff_pair
from spdckit.quantities import C_LIGHT, EPS0, CrystalSpec, WaveTriple


def test_closed_form_kappa0_hand_value():
    # The log form equals arctan(1/(2 zeta))/pi, which is 1/4 at zeta = 1/2.
    assert math.isclose(validation.closed_form_upsilon_kappa0(0.5), 0.25, rel_tol=1e-13)
    zeta = 1.7
    assert math.isclose(
        validation.closed_form_upsilon_kappa0(zeta),
        math.atan(0.5 / zeta) / math.pi,
        rel_tol=1e-13,
    )


def test_all_oracles_pass():
    reports = validation.run_all_oracles()
    names = [r.name for r in reports]
    assert len(names) == len(set(names))
    assert len(reports) >= 7
    for r in reports:
        assert r.passed, f"{r.name}: rel_diff {r.rel_diff} > {r.tolerance}"
        assert r.rel_diff <= r.tolerance
        assert math.isfinite(r.main_value)
        assert math.isfinite(r.oracle_value)
        assert 0 < r.tolerance <= 1e-2


# Each `validate` row as (name, tolerance, main_value, oracle_value), to the
# repr digit, as the CLI goldens pin their cells.
_VALIDATE_ROWS = [
    ("upsilon-closed-form-0.18", 1e-09, 0.3900062424748615, 0.3900062424748615),
    ("upsilon-closed-form-0.5", 1e-09, 0.25, 0.25),
    ("upsilon-closed-form-2", 1e-09, 0.07797913037736932, 0.07797913037736934),
    ("sfg-reduction-vs-3d", 1e-09, 47154.76059832304, 47154.760598322755),
    ("fresnel-propagator-self-test", 1e-12, 1.0, 1.0),
    ("dfg-parseval-vs-fresnel", 1e-10, 47711.82572248864, 47711.82572248864),
    ("dfg-thin-crystal-limit", 0.0001, 15.686137874632806, 15.686139986139986),
    ("ling-rate-equivalence-50", 0.001, 0.029671385036158817, 0.02967345269818193),
    ("boyd-kleinman-hmax", 0.001, 1.0677249747653113, 1.0679),
    ("upsilon-vs-quadrature", 1e-10, 0.5472111174518993, 0.5472111174518977),
    ("dfg-closed-0.18", 1e-10, 47711.82572248864, 47711.82572248847),
    ("dfg-closed-0.005", 1e-10, 1327.733948795741, 1327.7339487957222),
]


def test_validate_rows_are_pinned():
    rows = [
        (r.name, r.tolerance, r.main_value, r.oracle_value)
        for r in validation.run_all_oracles()
    ]
    assert [row[0] for row in rows] == [row[0] for row in _VALIDATE_ROWS]
    for row, pin in zip(rows, _VALIDATE_ROWS):
        assert row == pin, row[0]


def test_reports_cover_both_routes():
    names = {r.name for r in validation.run_all_oracles()}
    assert any("fresnel" in n for n in names)
    assert any("thin-crystal" in n for n in names)
    assert any("rate" in n for n in names)
    assert any("closed-form" in n for n in names)
    assert "upsilon-vs-quadrature" in names
    # The singles total at the bundled and at a tight focus.
    assert {"dfg-closed-0.18", "dfg-closed-0.005"} <= names
    # The absolute route is a test-time oracle, not part of `spdckit validate`.
    assert not any("absolute" in n for n in names)


def test_mode_sum_oracle_compares_the_hot_path_total():
    # kappa = -3 at zeta_R = 0.18 and 0.005: the idler-basis totals of the
    # reference source (the oracle's waves are the same triple). At 0.005
    # the order-40 mode sum gave 1325.899005, 1.4e-3 low, so this row would
    # have failed there.
    report = validation.oracle_dfg_closed(-3.0, 0.18)
    assert report.main_value == pytest.approx(47711.82572248832, rel=1e-12)
    assert report.rel_diff <= 1e-12 and report.tolerance == 1e-10
    tight = validation.oracle_dfg_closed(-3.0, 0.005)
    assert tight.main_value == pytest.approx(1327.733948795726, rel=1e-12)
    assert tight.rel_diff <= 1e-12 and tight.tolerance == 1e-10
    assert abs(1325.899005 - tight.oracle_value) > 1e-3 * tight.oracle_value


# (zeta_R, kappa, rounded value): the reference source of criteria 2 and 3,
# a tight focus whose slices must crowd near z = 0, and a loose focus far off
# phase matching, where 200/400 midpoint slices did not settle to 1e-4.
@pytest.mark.parametrize(
    "zeta_r, kappa, pin", [(0.18, -3.0, 7.9e-3), (0.02, -3.0, 1.1e-3), (2.0, -10.0, 7.9e-5)]
)
def test_absolute_route_two_field_matches_q_sfg(zeta_r, kappa, pin):
    waves, crystal, fp = validation._reference_point(kappa, zeta_r)
    route = validation.absolute_q_fresnel(waves, crystal, fp.rayleigh_range)
    i_sfg = overlap.i_sfg_gaussian(waves, crystal, fp)
    program = classical.q_sfg(waves, crystal, i_sfg.abs_sq)
    assert math.isclose(route, program, rel_tol=1e-12)
    assert float(f"{route:.2g}") == pin  # criterion 2 pin at (0.18, -3)


def test_absolute_route_single_field_matches_boyd_kleinman():
    # Criterion 10's configuration: kappa = 0 and R_k = 0, where Upsilon has
    # the closed form arctan(1 / 2 zeta_R) / pi.
    waves = WaveTriple.from_wavelengths(800e-9, 800e-9, 1.8, 1.8, 1.8, degenerate=True)
    crystal = CrystalSpec(length=0.01, d_eff=2.4e-12)
    zeta_r = 0.18
    z_r = zeta_r * crystal.length
    one = validation.absolute_q_fresnel(waves, crystal, z_r, single_field=True)
    two = validation.absolute_q_fresnel(waves, crystal, z_r)
    w_s = waves.signal.angular_frequency
    k_s = waves.signal.wavenumber
    n = waves.signal.refractive_index
    ups = validation.closed_form_upsilon_kappa0(zeta_r)
    boyd_kleinman = (
        4.0 * math.pi * w_s**2 * k_s * crystal.d_eff**2 * z_r * ups**2
        / (C_LIGHT**3 * EPS0 * n**3)
    )
    assert math.isclose(one, boyd_kleinman, rel_tol=1e-12)
    # Equal overlap: two distinct driving fields convert four times better.
    assert math.isclose(two / one, 4.0, rel_tol=1e-12)


@pytest.mark.parametrize(
    "zeta_r, kappa, pin", [(0.18, -3.0, 3.12), (0.02, -3.0, 0.435), (2.0, -10.0, 0.031)]
)
def test_absolute_route_pair_rate_matches_pair_rate(zeta_r, kappa, pin):
    # The route's floor is its +-300-FWHM filter trapezoid, 2.0e-9 here.
    waves, crystal, fp = validation._reference_point(kappa, zeta_r)
    flt = LorentzianFilter(2.0 * math.pi * 2e6)  # Gamma_eff = 2 pi x 1 MHz
    route = validation.absolute_pair_rate_fresnel(
        waves, crystal, fp.rayleigh_range, 1e-3, flt, flt
    )
    i_sfg = overlap.i_sfg_gaussian(waves, crystal, fp)
    q_sfg = classical.q_sfg(waves, crystal, i_sfg.abs_sq)
    program = quantum.pair_rate(waves, 1e-3, q_sfg, gamma_eff_pair(flt, flt))
    assert math.isclose(route, program, rel_tol=validation.ABSOLUTE_ROUTE_TOL)
    assert float(f"{route:.3g}") == pin  # criterion 3 pin at (0.18, -3)


def test_absolute_route_rejects_unsupported_inputs(ref_waves, ref_crystal):
    z_r = 0.18 * ref_crystal.length
    with pytest.raises(ValueError, match="degenerate triple"):
        validation.absolute_q_fresnel(ref_waves, ref_crystal, z_r, single_field=True)
    degenerate = WaveTriple.from_wavelengths(800e-9, 800e-9, 1.8, 1.8, 1.8, degenerate=True)
    flt = LorentzianFilter(1e7)
    with pytest.raises(ValueError, match="two-field"):
        validation.absolute_pair_rate_fresnel(degenerate, ref_crystal, z_r, 1e-3, flt, flt)
    with pytest.raises(ValueError, match="Lorentzian"):
        validation.absolute_pair_rate_fresnel(
            ref_waves, ref_crystal, z_r, 1e-3, flt, Unfiltered()
        )
    with pytest.raises(ValueError, match="100 times"):
        validation.absolute_pair_rate_fresnel(
            ref_waves, ref_crystal, z_r, 1e-3, flt, LorentzianFilter(2e9)
        )


def test_fresnel_field_single_exponential_matches_two_factor_form():
    # The slice kernel exp(i k r^2 / 2d) * exp(-b^2 / 4a), b = k r / d, is
    # returned as one Gaussian per slice; on a radial grid of its own, the
    # sum must equal the two-factor product.
    length, z_r = 1e-2, 1.8e-3
    k_p, k_c, k_gen = 2.4e7, 1.4e7, 1.5e7
    z0 = 0.5 * length + 5.0 * z_r
    dz = length / 50
    z_mid = (np.arange(50) + 0.5) * dz - 0.5 * length
    w_out = math.sqrt(2.0 * (z0**2 + z_r**2) / (k_gen * z_r))
    r = np.linspace(0.0, 12.0 * w_out, 500)
    amp = math.sqrt(k_p * k_c) * z_r / math.pi

    def source(zp):
        q, q_bar = zp - 1j * z_r, zp + 1j * z_r
        carrier = np.exp(1j * (1e3 * zp + k_gen * (z0 - zp)))
        return k_p / (2.0 * q) - k_c / (2.0 * q_bar), q * q_bar, carrier

    want = np.zeros(r.size, dtype=complex)
    for zp in z_mid:
        beta, q_prod, carrier = source(zp)
        d = z0 - zp
        a = -1j * (beta + k_gen / (2.0 * d))
        b = k_gen * r / d
        coef = dz * (k_gen / (1j * d)) * amp / q_prod * carrier / (2.0 * a)
        want += coef * np.exp(1j * k_gen * r**2 / (2.0 * d)) * np.exp(-(b**2) / (4.0 * a))
    coef, c = validation._fresnel_field(z0, z_mid, dz, k_gen, amp, source)
    got = np.sum(coef[:, None] * np.exp(c[:, None] * r**2), axis=0)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("arm", ["idler", "pump"])
def test_fresnel_closed_forms_match_dense_trapezoid(ref_waves, ref_crystal, arm):
    # The exact Gaussian moments of _plane_power and _mode_projection
    # against a radial trapezoid of the same 50-slice Gaussian sum, 40001
    # radii out to 16 output waists (the trapezoid's own error is 4e-8 to
    # 6e-8 here, O(h^2) from the r = 0 end).
    # "idler": the DFG field of oracle_dfg_fresnel and the pair-rate route;
    # "pump": the SFG field of absolute_q_fresnel.
    z_r = 0.18 * ref_crystal.length
    args = validation._driven(ref_waves, ref_crystal, z_r, arm)
    k_gen = args[0]
    z0, coef, c = validation._generated_field(*args, 50)
    w_out = math.sqrt(2.0 * (z0**2 + z_r**2) / (k_gen * z_r))
    r = np.linspace(0.0, 16.0 * w_out, 40001)
    field = np.zeros(r.size, dtype=complex)
    for coef_j, c_j in zip(coef, c):
        field += coef_j * np.exp(c_j * r**2)
    power = np.trapezoid(2.0 * math.pi * r * np.abs(field) ** 2, r)
    q = z0 - 1j * z_r
    mode = math.sqrt(k_gen * z_r / math.pi) / (1j * q) * np.exp(1j * k_gen * r**2 / (2.0 * q))
    projection = np.trapezoid(2.0 * math.pi * r * np.conj(mode) * field, r)
    assert validation._plane_power(coef, c) == pytest.approx(power, rel=1e-7)
    exact = validation._mode_projection(*args, 50)
    assert abs(exact - projection) <= 1e-7 * abs(exact)


def test_fresnel_closed_forms_refuse_a_growing_gaussian(ref_waves, ref_crystal):
    coef = np.array([1.0, 2.0 - 1.0j, 0.5j, 1.0])
    c = np.array([-1.0 + 2.0j, -0.5 + 0.0j, 0.25 - 1.0j, -2.0 + 0.0j])
    with pytest.raises(ValueError, match="slice 2 does not decay"):
        validation._plane_power(coef, c)
    with pytest.raises(ValueError, match="slice 0 does not decay"):
        validation._plane_power(coef[:1], np.array([1e-3j]))
    with pytest.raises(ValueError, match="slice 1 does not decay"):
        validation._plane_power(coef[:2], np.array([-1.0, np.nan]))
    for z_r in (-1.8e-3, 0.0):
        args = validation._driven(ref_waves, ref_crystal, z_r, "idler")
        with pytest.raises(ValueError, match="Rayleigh range"):
            validation._mode_projection(*args, 50)


def test_fresnel_oracles_meet_the_tight_tolerances():
    self_test = validation.oracle_fresnel_self_test()
    assert self_test.tolerance == 1e-12 and self_test.passed
    dfg = validation.oracle_dfg_fresnel()
    assert dfg.tolerance == 1e-10
    assert dfg.rel_diff <= 1e-12


@pytest.mark.parametrize("zeta_r", [0.02, 0.18, 2.0])
@pytest.mark.parametrize("kappa", [-10.0, -3.0, 2.0])
def test_fresnel_plane_power_matches_the_mode_sum_across_the_domain(zeta_r, kappa):
    # The second route of oracle_dfg_fresnel away from its reference point:
    # the 128-node plane power against the mode-sum total of the hot path.
    waves, crystal, fp = validation._reference_point(kappa, zeta_r)
    args = validation._driven(waves, crystal, fp.rayleigh_range, "idler")
    power = validation._plane_power(*validation._generated_field(*args, 128)[1:])
    total = quantum.compute_overlaps(waves, crystal, fp).i_dfg_sq_signal_arm
    assert power == pytest.approx(total, rel=1e-12)


def test_oracles_build_fresnel_fields_on_64_and_128_nodes_only(monkeypatch):
    # A machine-independent cost guard: the slice sums of run_all_oracles
    # are O(N^2) in the node count N, so no oracle may bring back 800.
    counts = []
    build = validation._generated_field

    def counted(*args):
        counts.append(args[-1])
        return build(*args)

    monkeypatch.setattr(validation, "_generated_field", counted)
    validation.run_all_oracles()
    assert sorted(counts) == [64, 128]


@pytest.mark.parametrize("kappa, zeta_r", [(2.0, 0.02), (-3.0, 0.005)])
def test_fresnel_oracle_doubles_its_slices_at_tight_focus(monkeypatch, kappa, zeta_r):
    # Here 64 and 128 slices differ by 4.7e-9 and 6.8e-8 of the plane
    # power, 128 and 256 by 8.9e-14 and 1.4e-14: the oracle doubles once
    # more, and 256 slices match the mode-sum total to 1.3e-14 and 9.8e-15.
    counts = []
    build = validation._generated_field

    def counted(*args):
        counts.append(args[-1])
        return build(*args)

    monkeypatch.setattr(validation, "_generated_field", counted)
    report = validation.oracle_dfg_fresnel(kappa, zeta_r)
    assert counts == [64, 128, 256]
    assert report.passed and report.rel_diff <= 1e-13


def test_slice_doubling_stops_at_its_cap_naming_the_last_two_counts():
    counts = []

    def measure(n):
        counts.append(n)
        return float(n)

    match = r"^test route not converged: 512\.0 at 512 slices vs 1024\.0 at 1024$"
    with pytest.raises(ValueError, match=match):
        validation._doubled(measure, abs, 1e-10, "test route")
    assert counts == [64, 128, 256, 512, 1024]


def test_fresnel_oracle_holds_no_slice_by_slice_matrix():
    # The 128 x 128 complex Gram matrix of the fine plane power is 256 KB,
    # a traced peak of 0.8 MB when measured; one 800 x 800 matrix, as the
    # midpoint slices needed, was 10.2 MB.
    validation.oracle_dfg_fresnel()  # fill the mode-sum rule caches first
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        validation.oracle_dfg_fresnel()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak < 2e6
