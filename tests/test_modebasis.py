"""Laguerre-Gauss projections and the Parseval mode-sum totals."""

import math

import numpy as np
import pytest

from spdckit import modebasis, overlap, quadrature
from spdckit.modebasis import ModeSumError, i_dfg_sq
from spdckit.quantities import CrystalSpec, FocusParams, WaveTriple, derive_focus_params


def test_term0_is_collection_mode_overlap(ref_waves, ref_crystal, ref_fp):
    # Basis mode 0 is the collection mode, so term 0 must reproduce
    # |I_SFG|^2 through an entirely different integrand.
    i_sfg = overlap.i_sfg_gaussian(ref_waves, ref_crystal, ref_fp)
    psum = i_dfg_sq(ref_waves, ref_crystal, ref_fp)
    assert math.isclose(psum.term0, i_sfg.abs_sq, rel_tol=1e-10)


def test_mode_sum_frozen_totals(ref_waves, ref_crystal, ref_fp):
    idler_basis_sum = i_dfg_sq(ref_waves, ref_crystal, ref_fp)
    signal_basis_sum = i_dfg_sq(ref_waves, ref_crystal, ref_fp, arm="signal")
    assert math.isclose(idler_basis_sum.total, 47711.82572248832, rel_tol=1e-9)
    assert math.isclose(signal_basis_sum.total, 47623.5529150877, rel_tol=1e-9)
    # Collection captures ~98.8% of the generated light at this focus.
    ratio = idler_basis_sum.term0 / idler_basis_sum.total
    assert math.isclose(ratio, 0.9883243804710866, rel_tol=1e-9)


def _power_form_integrand(waves, fp, arm, order):
    """Coefficient integrand with r(z)^n taken as a complex power.

    Reference for the doubling table in modebasis._coefficients: the same
    integrand, with base * ratio ** n written out directly.
    """
    k_s, k_i = waves.signal.wavenumber, waves.idler.wavenumber
    k_a, k_b = (k_s, k_i) if arm == "idler" else (k_i, k_s)
    k_p = waves.pump.wavenumber
    k_plus = k_p + k_a + k_b
    k_minus0 = k_p - k_a - k_b
    zeta_r = fp.zeta_r
    orders = np.arange(order + 1)

    def integrand(z):
        qh = z - 1j * zeta_r
        qhc = z + 1j * zeta_r
        s = (k_plus * zeta_r - 1j * k_minus0 * z) / (2.0 * k_b * zeta_r)
        base = np.exp(1j * fp.kappa * z) / (qhc * s)
        ratio = (qh / qhc) * (s - 1.0) / s
        return base * ratio ** orders[:, None]

    return integrand


def _power_form_coeffs(waves, fp, arm, order, integrate):
    """Power-form coefficient integrals by an adaptive quadrature engine."""
    return integrate(_power_form_integrand(waves, fp, arm, order), -0.5, 0.5, rel_tol=1e-9)


def _power_form_on_rule(waves, fp, arm, order, panels):
    """Power-form coefficients on the mode sum's rule of the given panel count."""
    x, w = modebasis._panel_rule(panels)
    half_span = math.asinh(0.5 / fp.zeta_r)
    z = fp.zeta_r * np.sinh(half_span * x)
    dz = half_span * fp.zeta_r * np.cosh(half_span * x) * w
    return _power_form_integrand(waves, fp, arm, order)(z) @ dz


def _one_task_coefficients(waves, kappa, zeta_r, arm, order, panels):
    """modebasis._coefficients of one task with one kappa."""
    consts = np.array([modebasis._constants(waves, zeta_r, arm)])
    return modebasis._coefficients(consts, [np.array([kappa])], order, panels)[0]


def test_running_product_matches_power_form(ref_waves, ref_crystal):
    # The order table of _coefficients (built by doubling) against the
    # power form on the same rule, at seeded geometries of both arms.
    degenerate = WaveTriple.from_wavelengths(800e-9, 800e-9, 1.8, 1.8, 1.9, degenerate=True)
    rng = np.random.default_rng(2024)
    cases = []
    for order in (1, 40, 99, 100, 120, 200):
        for arm in ("idler", "signal"):
            for _ in range(3):
                kappa = float(rng.uniform(-12.0, 5.0))
                zeta_r = float(math.exp(rng.uniform(math.log(0.02), math.log(10.0))))
                cases.append((ref_waves, kappa, zeta_r, arm, order))
    cases.append((degenerate, -3.0, 0.18, "signal", 120))
    for waves, kappa, zeta_r, arm, order in cases:
        fp = FocusParams(kappa=kappa, zeta_r=zeta_r, r_k=waves.r_k)
        case = (kappa, zeta_r, arm, order)
        try:
            psum = i_dfg_sq(waves, ref_crystal, fp, arm=arm, basis_order=order, tail_tol=1.0)
        except ModeSumError:
            psum = None  # a short basis may fail the decay test; its coefficients still count
        panels = 2 if psum is None else psum.n_nodes // modebasis._PANEL_NODES
        got = _one_task_coefficients(waves, kappa, zeta_r, arm, order, panels)
        want = _power_form_on_rule(waves, fp, arm, order, panels)
        got_terms = np.abs(got) ** 2
        want_terms = np.abs(want) ** 2
        assert math.isclose(got_terms.sum(), want_terms.sum(), rel_tol=1e-13), case
        assert np.max(np.abs(got_terms - want_terms)) <= 1e-13 * want_terms.max(), case
        if psum is not None:
            # The mode sum's terms are these coefficients, scaled.
            k_s, k_i = waves.signal.wavenumber, waves.idler.wavenumber
            k_a, k_b = (k_s, k_i) if arm == "idler" else (k_i, k_s)
            scale = waves.pump.wavenumber * k_a * zeta_r * ref_crystal.length / (math.pi * k_b)
            assert np.allclose(psum.terms, scale * got_terms, rtol=1e-14, atol=0), case


@pytest.mark.parametrize(
    "order", [1, 2, 3, 4, 63, 64, 65, 127, 128, 129, 200, modebasis._MAX_ORDER]
)
def test_doubling_table_matches_power_form_at_each_split(ref_waves, ref_crystal, order):
    # The doubling fills rows m..2m-1 from rows 0..m-1 for m = 2, 4, ...,
    # so orders at and around a power of two end it on a full, a one-row
    # and a partial last step.
    degenerate = WaveTriple.from_wavelengths(800e-9, 800e-9, 1.8, 1.8, 1.9, degenerate=True)
    cases = [
        (ref_waves, -3.0, 0.18, "idler", 2),
        (ref_waves, 2.0, 1.0, "signal", 4),
        (ref_waves, -10.0, 0.02, "idler", 8),
        (degenerate, -3.0, 0.18, "signal", 2),
    ]
    for waves, kappa, zeta_r, arm, panels in cases:
        fp = FocusParams(kappa=kappa, zeta_r=zeta_r, r_k=waves.r_k)
        got = _one_task_coefficients(waves, kappa, zeta_r, arm, order, panels)
        want_terms = np.abs(_power_form_on_rule(waves, fp, arm, order, panels)) ** 2
        assert got.shape == (order + 1,)
        gap = np.max(np.abs(np.abs(got) ** 2 - want_terms))
        assert gap <= 1e-13 * want_terms.max(), (kappa, zeta_r, arm, gap / want_terms.max())


def test_mode_sum_matches_adaptive_reference(ref_waves, ref_crystal):
    # Seeded points over |kappa| <= 1e3 and zeta_R 0.005-100, both arms and
    # both source kinds: each total agrees with adaptive Gauss-Kronrod
    # quadrature of the power-form coefficients, or the call fails the tail
    # test. Where the reference converges the rule must converge too; points
    # where the reference itself does not converge are skipped.
    degenerate = WaveTriple.from_wavelengths(800e-9, 800e-9, 1.8, 1.8, 1.9, degenerate=True)
    rng = np.random.default_rng(11)
    compared = 0
    for k in range(48):
        waves = ref_waves if k % 2 else degenerate
        arm = ("idler", "signal")[(k // 2) % 2]
        order = (1, 40, 200)[k % 3]
        kappa = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-1.0, 3.0))
        zeta_r = float(math.exp(rng.uniform(math.log(0.005), math.log(100.0))))
        fp = FocusParams(kappa=kappa, zeta_r=zeta_r, r_k=waves.r_k)
        case = (kappa, zeta_r, arm, order)
        try:
            want = _power_form_coeffs(waves, fp, arm, order, quadrature.integrate)
        except quadrature.QuadratureError:
            continue
        try:
            got = i_dfg_sq(waves, ref_crystal, fp, arm=arm, basis_order=order)
        except ModeSumError:
            continue  # the tail test, which the reference does not apply
        k_s, k_i = waves.signal.wavenumber, waves.idler.wavenumber
        k_a, k_b = (k_s, k_i) if arm == "idler" else (k_i, k_s)
        z_r = zeta_r * ref_crystal.length
        prefactor_sq = waves.pump.wavenumber * k_a * z_r / (math.pi * k_b)
        total = prefactor_sq * float(np.sum(np.abs(want.value) ** 2))
        assert math.isclose(got.total, total, rel_tol=1e-10), case
        compared += 1
    assert compared >= 24


def test_terms_decay_and_tail_is_small(ref_waves, ref_crystal, ref_fp):
    psum = i_dfg_sq(ref_waves, ref_crystal, ref_fp)
    terms = np.asarray(psum.terms)
    assert terms.shape == (41,)
    assert psum.tail_estimate < 1e-4
    assert math.isclose(psum.total, float(terms.sum()), rel_tol=1e-15)
    # Geometric decay on average (individual ratios oscillate).
    assert float(terms[-5:].max()) < 1e-12 * float(terms[0])


def test_truncation_error_raises(ref_waves, ref_crystal, ref_fp):
    with pytest.raises(ModeSumError, match="raise basis_order"):
        i_dfg_sq(ref_waves, ref_crystal, ref_fp, basis_order=3, tail_tol=1e-10)


def test_noise_floor_tail_is_accepted():
    # Strongly asymmetric arms: the terms crash below the quadrature noise
    # floor well before order 40, then fluctuate non-monotonically there.
    # The decay guard must read that as converged, not as a rising tail.
    waves = WaveTriple.from_wavelengths(
        7.547484470465369e-07,
        8.628323342693564e-07,
        1.5016521851294073,
        1.9524999749294167,
        2.0425521158290882,
    )
    length = 1e-2
    poling = 2.0 * math.pi / (waves.k_minus0 - 0.6222343954418017 / length)
    crystal = CrystalSpec(length=length, d_eff=2.4e-12, poling_period=poling)
    fp = derive_focus_params(waves, crystal, 1.5656052797011497 * length)
    psum = i_dfg_sq(waves, crystal, fp)
    terms = np.asarray(psum.terms)
    window = terms[-5:]
    # Trailing window is noise: tiny, and not monotonically decaying.
    assert float(window.max()) < 1e-18 * float(terms.max())
    assert float(window[-1]) > float(window[0])
    assert psum.tail_estimate < 1e-12


def test_rule_size_and_error_are_reported(ref_waves, ref_crystal, ref_fp):
    psum = i_dfg_sq(ref_waves, ref_crystal, ref_fp)
    assert psum.n_nodes % modebasis._PANEL_NODES == 0
    panels = psum.n_nodes // modebasis._PANEL_NODES
    assert panels >= 2 and panels & (panels - 1) == 0
    assert 0.0 <= psum.quad_error <= 1e-9
    # A tighter tolerance needs at least as large a rule.
    tight = i_dfg_sq(ref_waves, ref_crystal, ref_fp, quad_tol=1e-13)
    assert tight.n_nodes >= psum.n_nodes and tight.quad_error <= 1e-13
    assert math.isclose(tight.total, psum.total, rel_tol=1e-12)


def test_rule_cache_is_bounded():
    for panels in (1, 2, 256):
        x, w = modebasis._panel_rule(panels)
        assert x.size == w.size == modebasis._PANEL_NODES * panels
        assert math.isclose(w.sum(), 2.0, rel_tol=1e-14)
        assert np.all(np.diff(x) > 0) and -1.0 < x[0] and x[-1] < 1.0
    assert set(modebasis._RULES) <= {2**p for p in range(9)}
    assert sum(x.nbytes + w.nbytes for x, w in modebasis._RULES.values()) <= 524288


def test_unconverged_rule_names_kappa_and_zeta_r(ref_waves, ref_crystal):
    # 1e6 / (2 pi) oscillations over the crystal outrun the largest rule.
    fp = FocusParams(kappa=1e6, zeta_r=0.18, r_k=ref_waves.r_k)
    with pytest.raises(quadrature.QuadratureError, match=r"kappa=1e\+06, zeta_R=0\.18"):
        i_dfg_sq(ref_waves, ref_crystal, fp)


def test_batch_matches_single_kappa(ref_waves, ref_crystal):
    # One pass over tasks of both source kinds, both arms and three zeta_R,
    # with kappa that converge, that outrun the largest rule (1e6) and that
    # fail the order-40 tail test at tight focus. Each kappa keeps its own
    # rule, so each (task, kappa) gets the sum or the error of its one-task
    # call.
    degenerate = WaveTriple.from_wavelengths(800e-9, 800e-9, 1.8, 1.8, 1.9, degenerate=True)
    kappas = [-3.0, 1e6, -5.0, 0.0, -40.0, -3.0]
    tasks = [
        (waves, ref_crystal.length, zeta_r, arm, kappas)
        for waves in (ref_waves, degenerate)
        for zeta_r in (0.005, 0.18, 2.0)
        for arm in ("idler", "signal")
    ]
    batch = modebasis._mode_sums(tasks, 40, 1e-9)
    kinds = set()
    for (waves, _, zeta_r, arm, _), results in zip(tasks, batch):
        assert len(results) == len(kappas)
        for kappa, got in zip(kappas, results):
            case = (waves.degenerate, zeta_r, arm, kappa)
            kinds.add(type(got))
            fp = FocusParams(kappa=kappa, zeta_r=zeta_r, r_k=waves.r_k)
            try:
                alone = i_dfg_sq(waves, ref_crystal, fp, arm=arm)
            except (ModeSumError, quadrature.QuadratureError) as exc:
                assert type(got) is type(exc) and str(got) == str(exc), case
                continue
            assert got.n_nodes == alone.n_nodes, case
            assert math.isclose(got.total, alone.total, rel_tol=1e-13), case
    assert kinds == {modebasis.ParsevalSum, ModeSumError, quadrature.QuadratureError}
    assert all(isinstance(results[1], quadrature.QuadratureError) for results in batch)


def test_non_finite_zeta_r_fails_only_its_task(ref_waves, ref_crystal):
    length = ref_crystal.length
    tasks = [
        (ref_waves, length, 0.18, "idler", [-3.0, -2.0]),
        (ref_waves, length, math.nan, "idler", [-3.0, -2.0]),
        (ref_waves, length, math.inf, "signal", [-3.0]),
        (ref_waves, length, 0.18, "signal", [-3.0]),
    ]
    good_idler, nan_task, inf_task, good_signal = modebasis._mode_sums(tasks, 40, 1e-9)
    for got in nan_task + inf_task:
        assert isinstance(got, ValueError) and str(got) == "kappa and zeta_R must be finite"
    for (waves, _, zeta_r, arm, kappas), results in zip(tasks[::3], (good_idler, good_signal)):
        for kappa, got in zip(kappas, results):
            alone = i_dfg_sq(waves, ref_crystal, FocusParams(kappa, zeta_r, waves.r_k), arm=arm)
            assert got.n_nodes == alone.n_nodes
            assert math.isclose(got.total, alone.total, rel_tol=1e-13)


def test_arm_must_be_signal_or_idler(ref_waves, ref_crystal, ref_fp):
    with pytest.raises(ValueError, match="arm must be 'signal' or 'idler'"):
        i_dfg_sq(ref_waves, ref_crystal, ref_fp, arm="pump")
    with pytest.raises(ValueError, match="basis_order must be >= 1"):
        i_dfg_sq(ref_waves, ref_crystal, ref_fp, basis_order=0)
    # An order whose mode columns would not fit in memory is refused up front.
    for bad in (modebasis._MAX_ORDER + 1, 100_000_000_000):
        with pytest.raises(ValueError, match=f"basis_order must be <= 4096, got {bad}"):
            i_dfg_sq(ref_waves, ref_crystal, ref_fp, basis_order=bad)
    for bad in (0.0, -1e-9, math.inf, math.nan):
        with pytest.raises(ValueError, match="quad_tol must be finite and > 0"):
            i_dfg_sq(ref_waves, ref_crystal, ref_fp, quad_tol=bad)


def test_module_constants():
    assert modebasis.DEFAULT_MAX_ORDER == 40
    assert modebasis.DEFAULT_TAIL_TOL == 1e-4
