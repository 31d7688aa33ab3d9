"""The kernel totals |I_DFG|^2 over every mode, against per-order sums and the closed form."""

import math
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spdckit import modebasis, overlap, quadrature, validation
from spdckit.quantities import CrystalSpec, WaveTriple, derive_focus_params

LENGTH = 1e-2
DEGENERATE = WaveTriple.from_wavelengths(800e-9, 800e-9, 1.8, 1.8, 1.9, degenerate=True)


def _one(waves, kappa, zeta_r, arm="idler", quad_tol=1e-9, length=LENGTH):
    """modebasis._mode_sums of one task with one kappa: its ParsevalSum, or the error."""
    ((result,),) = modebasis._mode_sums([(waves, length, zeta_r, arm, [kappa])], quad_tol)
    return result


def _rule_form(waves, kappa, zeta_r, arm, panels, length=LENGTH):
    """(prefactor, u, r) of the per-order sum on the kernel's whole rule of the given panels.

    The coefficient of order n is sum_j u_j r_j^n, and the total of that
    order is prefactor |c_n|^2.
    """
    k_s, k_i = waves.signal.wavenumber, waves.idler.wavenumber
    k_a, k_b = (k_s, k_i) if arm == "idler" else (k_i, k_s)
    k_p = waves.pump.wavenumber
    x, w = modebasis._panel_rule(panels)
    half_span = math.asinh(0.5 / zeta_r)
    z = zeta_r * np.sinh(half_span * x)
    dz = half_span * zeta_r * np.cosh(half_span * x) * w
    s = ((k_p + k_a + k_b) * zeta_r - 1j * (k_p - k_a - k_b) * z) / (2.0 * k_b * zeta_r)
    u = np.exp(1j * kappa * z) * dz / ((z + 1j * zeta_r) * s)
    r = (z - 1j * zeta_r) / (z + 1j * zeta_r) * (s - 1.0) / s
    prefactor = k_p * k_a * zeta_r * length / (math.pi * k_b)
    return prefactor, u, r


def _order_table(u, r, order):
    """Rows u r^n for n = 0..order, built by doubling: rows m..2m-1 are rows 0..m-1 times r^m."""
    table = np.empty((order + 1, u.size), dtype=complex)
    table[0] = u
    power, m = r.copy(), 1
    while m <= order:
        np.multiply(table[: min(m, order + 1 - m)], power, out=table[m : 2 * m])
        power *= power
        m *= 2
    return table


def _reference_terms(waves, kappa, zeta_r, arm, order, panels, chunk=256):
    """Per-order totals prefactor |c_n|^2 for n = 0..order on the kernel's rule.

    The reference the kernel replaced: the order table is built in chunks of
    orders, so order 2000 on 2048 nodes holds 8 MB at a time.
    """
    prefactor, u, r = _rule_form(waves, kappa, zeta_r, arm, panels)
    terms = []
    for start in range(0, order + 1, chunk):
        table = _order_table(u * r**start, r, min(chunk, order + 1 - start) - 1)
        terms.append(prefactor * np.abs(table.sum(axis=1)) ** 2)
    return np.concatenate(terms)


def _kernel_form(waves, kappa, zeta_r, arm, panels, weight=None):
    """The kernel total on the whole rule, written out: sum_jk v_j conj(v_k) / (1 - r_j conj(r_k)).

    v = u times weight. This is the form of the module doc without the
    mirror symmetry modebasis uses.
    """
    prefactor, u, r = _rule_form(waves, kappa, zeta_r, arm, panels)
    v = u if weight is None else u * weight(r)
    kernel = 1.0 / (1.0 - np.multiply.outer(r, r.conj()))
    return prefactor * float((v @ kernel @ v.conj()).real)


def test_term0_is_collection_mode_overlap(ref_waves, ref_crystal, ref_fp):
    # Basis mode 0 is the collection mode, so order 0 of the per-order sum
    # must reproduce |I_SFG|^2 through an entirely different integrand, and
    # the total over every mode bounds it from above.
    i_sfg = overlap.i_sfg_gaussian(ref_waves, ref_crystal, ref_fp)
    got = _one(ref_waves, ref_fp.kappa, ref_fp.zeta_r)
    panels = got.n_nodes // modebasis._PANEL_NODES
    term0 = _reference_terms(ref_waves, ref_fp.kappa, ref_fp.zeta_r, "idler", 0, panels)[0]
    assert math.isclose(term0, i_sfg.abs_sq, rel_tol=1e-10)
    assert i_sfg.abs_sq < got.total


def test_mode_sum_frozen_totals(ref_waves, ref_crystal, ref_fp):
    idler_basis_sum = _one(ref_waves, ref_fp.kappa, ref_fp.zeta_r)
    signal_basis_sum = _one(ref_waves, ref_fp.kappa, ref_fp.zeta_r, arm="signal")
    assert math.isclose(idler_basis_sum.total, 47711.82572248832, rel_tol=1e-9)
    assert math.isclose(signal_basis_sum.total, 47623.5529150877, rel_tol=1e-9)
    # Collection captures ~98.8% of the generated light at this focus.
    ratio = overlap.i_sfg_gaussian(ref_waves, ref_crystal, ref_fp).abs_sq / idler_basis_sum.total
    assert math.isclose(ratio, 0.9883243804710866, rel_tol=1e-9)


def test_running_product_matches_power_form(ref_waves):
    # The reference's chunked running product r^start against r^n taken as
    # a complex power, and the kernel on the same rule against the
    # reference summed to order 1000, at seeded geometries of both arms.
    rng = np.random.default_rng(2024)
    for k in range(8):
        waves = ref_waves if k % 4 else DEGENERATE
        arm = ("idler", "signal")[k % 2]
        kappa = float(rng.uniform(-12.0, 5.0))
        zeta_r = float(math.exp(rng.uniform(math.log(0.02), math.log(10.0))))
        case = (waves.degenerate, kappa, zeta_r, arm)
        got = _one(waves, kappa, zeta_r, arm)
        panels = got.n_nodes // modebasis._PANEL_NODES
        terms = _reference_terms(waves, kappa, zeta_r, arm, 1000, panels, chunk=100)
        prefactor, u, r = _rule_form(waves, kappa, zeta_r, arm, panels)
        power = prefactor * np.abs((u * r ** np.arange(1001)[:, None]).sum(axis=1)) ** 2
        assert np.max(np.abs(terms - power)) <= 1e-13 * power.max(), case
        assert math.isclose(got.total, float(terms.sum()), rel_tol=1e-12), case


@pytest.mark.parametrize(
    "order", [1, 2, 3, 4, 63, 64, 65, 127, 128, 129, 200, 4096]
)
def test_doubling_table_matches_power_form_at_each_split(ref_waves, order):
    # The reference's order table is built by doubling: rows m..2m-1 from
    # rows 0..m-1 for m = 2, 4, ..., so orders at and around a power of two
    # end it on a full, a one-row and a partial last step. At each split the
    # geometric series holds on the rule: the kernel total is the per-order
    # sum to that order plus the kernel of the rest, u r^(order + 1).
    cases = [
        (ref_waves, -3.0, 0.18, "idler"),
        (ref_waves, 2.0, 1.0, "signal"),
        (ref_waves, -10.0, 0.02, "idler"),
        (DEGENERATE, -3.0, 0.18, "signal"),
    ]
    for waves, kappa, zeta_r, arm in cases:
        case = (waves.degenerate, kappa, zeta_r, arm)
        got = _one(waves, kappa, zeta_r, arm)
        panels = got.n_nodes // modebasis._PANEL_NODES
        prefactor, u, r = _rule_form(waves, kappa, zeta_r, arm, panels)
        table = _order_table(u, r, order)
        want = u * r ** np.arange(order + 1)[:, None]
        assert table.shape == (order + 1, u.size)
        gap = np.max(np.abs(np.abs(table.sum(axis=1)) ** 2 - np.abs(want.sum(axis=1)) ** 2))
        assert gap <= 1e-13 * np.max(np.abs(want.sum(axis=1)) ** 2), case
        partial = prefactor * float(np.sum(np.abs(table.sum(axis=1)) ** 2))
        rest = _kernel_form(waves, kappa, zeta_r, arm, panels, weight=lambda r: r ** (order + 1))
        assert math.isclose(partial + rest, got.total, rel_tol=1e-13), case
        # The mirror-halved kernel of modebasis is the whole rule's kernel.
        whole = _kernel_form(waves, kappa, zeta_r, arm, panels)
        assert math.isclose(whole, got.total, rel_tol=1e-13), case


@pytest.mark.parametrize(
    ("kappa", "zeta_r", "rel"),
    [
        (-3.0, 0.18, 1e-12),
        (-3.0, 0.05, 1e-12),
        (-3.0, 0.005, 1e-12),
        (2.0, 1.0, 1e-12),
        (-10.0, 0.02, 1e-12),
        # The order-2000 sum itself is only this good here: its terms
        # decay slowly at such tight focus.
        (-3.0, 0.002, 3e-10),
    ],
)
def test_kernel_matches_order_2000_reference(ref_waves, kappa, zeta_r, rel):
    # The order-40 mode sum this kernel replaced was 1.4e-3 low at
    # zeta_R = 0.005 and 2.4e-2 low at 0.002 while it reported a tail below
    # 1e-6. The reference sums orders 0..2000 on the kernel's own rule.
    got = _one(ref_waves, kappa, zeta_r)
    panels = got.n_nodes // modebasis._PANEL_NODES
    want = float(np.sum(_reference_terms(ref_waves, kappa, zeta_r, "idler", 2000, panels)))
    assert math.isclose(got.total, want, rel_tol=rel), (got.total, want)


def test_mode_sum_matches_adaptive_reference(ref_waves):
    # Seeded points over |kappa| <= 1e3 and zeta_R 0.005-100, both arms and
    # both source kinds: each total agrees with the closed-form inner
    # integral on adaptive quadrature (validation.dfg_total_closed), or the
    # rule raises QuadratureError past its cap. Points where the reference
    # itself does not converge are skipped.
    rng = np.random.default_rng(11)
    compared = 0
    for k in range(32):
        waves = ref_waves if k % 2 else DEGENERATE
        arm = ("idler", "signal")[(k // 2) % 2]
        kappa = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-1.0, 3.0))
        zeta_r = float(math.exp(rng.uniform(math.log(0.005), math.log(100.0))))
        case = (kappa, zeta_r, arm)
        try:
            want, error = validation.dfg_total_closed(waves, LENGTH, kappa, zeta_r, arm)
        except quadrature.QuadratureError:
            continue
        got = _one(waves, kappa, zeta_r, arm)
        if isinstance(got, quadrature.QuadratureError):
            assert abs(kappa) > 300.0, case
            continue
        assert math.isclose(got.total, want, rel_tol=1e-10), case
        compared += 1
    assert compared >= 16


_WAVES = {"two-field": None, "degenerate": DEGENERATE}


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    kappa=st.floats(-12.0, 4.0),
    log_zeta=st.floats(math.log(0.002), math.log(10.0)),
    source=st.sampled_from(
        [("two-field", "idler"), ("two-field", "signal"), ("degenerate", "idler")]
    ),
)
@example(kappa=-3.0, log_zeta=math.log(0.005), source=("two-field", "idler"))
@example(kappa=-3.0, log_zeta=math.log(0.002), source=("two-field", "idler"))
def test_totals_lie_within_their_error_of_the_closed_form(ref_waves, kappa, log_zeta, source):
    # Each total is within its stated error of the closed-form oracle: the
    # difference of its rule from the rule of half as many nodes
    # (quad_error), plus the rounding of a sum over the kernel's entries
    # (1e-13), plus the oracle's own error. Or the call raises a typed
    # error. The order-40 sum this kernel replaced was 1.4e-3 low at
    # kappa = -3, zeta_R = 0.005 and reported no error.
    name, arm = source
    waves = _WAVES[name] or ref_waves
    zeta_r = math.exp(log_zeta)
    got = _one(waves, kappa, zeta_r, arm)
    if isinstance(got, quadrature.QuadratureError):
        return
    want, want_error = validation.dfg_total_closed(waves, LENGTH, kappa, zeta_r, arm)
    bound = (got.quad_error + 1e-13) * got.total + want_error
    assert abs(got.total - want) <= bound, (got, want, want_error)


def test_terms_decay_and_tail_is_small(ref_waves, ref_crystal, ref_fp):
    # At the bundled focus the per-order terms decay geometrically on
    # average, the total over every mode exceeds each partial sum until the
    # terms fall below its rounding (order 20 here), and order 40 leaves out
    # less than that rounding.
    got = _one(ref_waves, ref_fp.kappa, ref_fp.zeta_r)
    panels = got.n_nodes // modebasis._PANEL_NODES
    terms = _reference_terms(ref_waves, ref_fp.kappa, ref_fp.zeta_r, "idler", 200, panels)
    assert float(terms[36:41].max()) < 1e-18 * float(terms[0])
    partial = np.cumsum(terms)
    assert np.all(np.diff(partial[:20]) > 0) and np.all(partial[:20] < got.total)
    assert math.isclose(partial[40], got.total, rel_tol=1e-14)


def test_rule_size_and_error_are_reported(ref_waves, ref_fp):
    got = _one(ref_waves, ref_fp.kappa, ref_fp.zeta_r)
    assert got.n_nodes % modebasis._PANEL_NODES == 0
    panels = got.n_nodes // modebasis._PANEL_NODES
    assert panels >= 2 and panels & (panels - 1) == 0
    assert 0.0 <= got.quad_error <= 1e-9
    # A tighter tolerance needs at least as large a rule.
    tight = _one(ref_waves, ref_fp.kappa, ref_fp.zeta_r, quad_tol=1e-13)
    assert tight.n_nodes >= got.n_nodes and tight.quad_error <= 1e-13
    assert math.isclose(tight.total, got.total, rel_tol=1e-12)


def test_rule_cache_is_bounded():
    for panels in (1, 2, modebasis._MAX_PANELS):
        x, w = modebasis._panel_rule(panels)
        assert x.size == w.size == modebasis._PANEL_NODES * panels
        assert math.isclose(w.sum(), 2.0, rel_tol=1e-14)
        assert np.all(np.diff(x) > 0) and -1.0 < x[0] and x[-1] < 1.0
        # The kernel takes the nodes z > 0 and mirrors them.
        assert np.max(np.abs(x[::-1] + x)) <= 1e-15 and np.allclose(w[::-1], w, rtol=1e-14)
    assert set(modebasis._RULES) <= {2**p for p in range(8)}
    assert sum(x.nbytes + w.nbytes for x, w in modebasis._RULES.values()) <= 524288


def test_unconverged_rule_names_kappa_and_zeta_r(ref_waves):
    # 1e6 / (2 pi) oscillations over the crystal, and a focus 2e-4 of the
    # crystal long, outrun the largest rule. Past the cap the call raises,
    # in bounded time: the kernel of the cap rule is built once.
    for kappa, zeta_r, text in ((1e6, 0.18, r"kappa=1e\+06, zeta_R=0\.18"),
                                (-3.0, 2e-4, r"kappa=-3, zeta_R=0\.0002")):
        start = time.perf_counter()
        got = _one(ref_waves, kappa, zeta_r)
        assert time.perf_counter() - start < 5.0
        assert isinstance(got, quadrature.QuadratureError)
        with pytest.raises(quadrature.QuadratureError, match=text):
            raise got
        assert "the rules of 2048 and 4096 nodes" in str(got)


def test_batch_matches_single_kappa(ref_waves):
    # One pass over tasks of both source kinds, both arms and three zeta_R,
    # with kappa that converge and that outrun the largest rule (1e6). Each
    # kappa keeps its own rule, so each (task, kappa) gets the sum or the
    # error of its one-task call.
    kappas = [-3.0, 1e6, -5.0, 0.0, -40.0, -3.0]
    tasks = [
        (waves, LENGTH, zeta_r, arm, kappas)
        for waves in (ref_waves, DEGENERATE)
        for zeta_r in (0.005, 0.18, 2.0)
        for arm in ("idler", "signal")
    ]
    batch = modebasis._mode_sums(tasks, 1e-9)
    kinds = set()
    for (waves, _, zeta_r, arm, _), results in zip(tasks, batch):
        assert len(results) == len(kappas)
        for kappa, got in zip(kappas, results):
            case = (waves.degenerate, zeta_r, arm, kappa)
            kinds.add(type(got))
            alone = _one(waves, kappa, zeta_r, arm)
            if isinstance(alone, Exception):
                assert type(got) is type(alone) and str(got) == str(alone), case
                continue
            assert got.n_nodes == alone.n_nodes, case
            assert math.isclose(got.total, alone.total, rel_tol=1e-13), case
    assert kinds == {modebasis.ParsevalSum, quadrature.QuadratureError}
    assert all(isinstance(results[1], quadrature.QuadratureError) for results in batch)


def test_non_finite_zeta_r_fails_only_its_task(ref_waves):
    tasks = [
        (ref_waves, LENGTH, 0.18, "idler", [-3.0, -2.0]),
        (ref_waves, LENGTH, math.nan, "idler", [-3.0, -2.0]),
        (ref_waves, LENGTH, math.inf, "signal", [-3.0]),
        (ref_waves, LENGTH, 0.18, "signal", [-3.0]),
    ]
    good_idler, nan_task, inf_task, good_signal = modebasis._mode_sums(tasks, 1e-9)
    for got in nan_task + inf_task:
        assert isinstance(got, ValueError) and str(got) == "kappa and zeta_R must be finite"
    for (waves, _, zeta_r, arm, kappas), results in zip(tasks[::3], (good_idler, good_signal)):
        for kappa, got in zip(kappas, results):
            alone = _one(waves, kappa, zeta_r, arm)
            assert got.n_nodes == alone.n_nodes
            assert math.isclose(got.total, alone.total, rel_tol=1e-13)


def test_arm_must_be_signal_or_idler(ref_waves):
    with pytest.raises(ValueError, match="arm must be 'signal' or 'idler'"):
        modebasis._mode_sums([(ref_waves, LENGTH, 0.18, "pump", [-3.0])], 1e-9)
    for bad in (0.0, -1e-9, math.inf, math.nan):
        with pytest.raises(ValueError, match="quad_tol must be finite and > 0"):
            modebasis._mode_sums([(ref_waves, LENGTH, 0.18, "idler", [-3.0])], bad)


def test_module_constants():
    # The largest rule has 4096 nodes; the kernel of a task on it holds
    # 4096^2 / 2 values, built in blocks of _BLOCK_ELEMENTS.
    assert modebasis._PANEL_NODES * modebasis._MAX_PANELS == 4096
    assert modebasis._BLOCK_ELEMENTS == 3 * 2**14
    assert modebasis._KAPPA_CHUNK * 4096 // 2 <= modebasis._BLOCK_ELEMENTS


def test_kernel_at_strongly_asymmetric_arms():
    # Strongly asymmetric arms: the per-order terms crash below rounding well
    # before order 40 and then fluctuate there. The kernel has no tail to
    # estimate, and agrees with the order-200 reference and the closed form.
    waves = WaveTriple.from_wavelengths(
        7.547484470465369e-07,
        8.628323342693564e-07,
        1.5016521851294073,
        1.9524999749294167,
        2.0425521158290882,
    )
    poling = 2.0 * math.pi / (waves.k_minus0 - 0.6222343954418017 / LENGTH)
    crystal = CrystalSpec(length=LENGTH, d_eff=2.4e-12, poling_period=poling)
    fp = derive_focus_params(waves, crystal, 1.5656052797011497 * LENGTH)
    got = _one(waves, fp.kappa, fp.zeta_r)
    panels = got.n_nodes // modebasis._PANEL_NODES
    terms = _reference_terms(waves, fp.kappa, fp.zeta_r, "idler", 200, panels)
    assert float(terms[-5:].max()) < 1e-18 * float(terms.max())
    assert math.isclose(got.total, float(terms.sum()), rel_tol=1e-13)
    want, error = validation.dfg_total_closed(waves, LENGTH, fp.kappa, fp.zeta_r)
    assert abs(got.total - want) <= 1e-12 * want + error
