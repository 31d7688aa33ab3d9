"""Collection filters, effective linewidths and the pair time correlation.

Narrow-band collection turns the two-photon amplitude into a product of
filter responses, so every rate in this package depends on the filters only
through two angular-frequency scalars and one shape:

  gamma_eff_pair    joint linewidth  (2/pi) Int T_s(W) T_i(-W) dW,
  gamma_eff_single  single-arm linewidth 4 Int |F(t)|^2 dt,
  correlation_shape amplitude f(tau) whose square is the coincidence
                    histogram; tau = t_signal - t_idler.

A Lorentzian filter of angular FWHM Gamma has transmission
T(W) = Gamma^2/(Gamma^2 + 4 W^2), causal impulse response
F(t) = (Gamma/2) exp(-Gamma t / 2) for t > 0, and closed forms for all
three quantities; those are used wherever possible, and
validation.gamma_eff_pair_spectral checks the joint linewidth by adaptive
quadrature of the spectral integral. Tabulated filters reconstruct
|F_hat| = sqrt(T) with zero phase: gamma_eff and |f| depend only on the
transmission magnitudes, so the unknown true phase drops out of every
quantity this package reports.

All three filter kinds offer transmission(W), amplitude_ft(W) and support,
the offset interval outside which T vanishes (None if it never does); an
unfiltered arm transmits 1. gamma_eff_pair computes each pair one way.
A table's T(W) is piecewise linear, so a tabulated arm is exact too, with
no sampling grid:

  table x table       a quadratic on each interval of the merged nodes,
                      h/6 (2 s_a t_a + s_a t_b + s_b t_a + 2 s_b t_b);
  table x Lorentzian  per table segment, the atan and log moments of the
                      Lorentzian times the segment's line;
  table x unfiltered  gamma_eff_single(table).

gamma_eff_single still samples a table on a uniform grid, once per table
object, which keeps the value. So does the correlation: sqrt(T) is not
piecewise polynomial, so its spectral sum runs on a uniform grid over the
joint support of T_s(W) T_i(-W), at every tau at once as a chirp-z
transform, and a tabulated arm needs a uniform tau grid. Its two length-N
phasors take O(sqrt N) cos and sin values each; its three FFTs run in place.

load_filter_table converts every data token in one float() pass and lets
TabulatedFilter check the arrays; only a table that fails is read again row
by row, so that the error names its first bad line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np
import scipy.fft

from .quantities import to_si

__all__ = [
    "LorentzianFilter",
    "TabulatedFilter",
    "Unfiltered",
    "FilterSpec",
    "CorrelationTrace",
    "gamma_eff_pair",
    "gamma_eff_single",
    "correlation_shape",
    "default_tau_grid",
    "min_tau_points",
    "TauGridError",
    "load_filter_table",
]

# Largest tau spacing, as a fraction of 1/gamma of the fastest filter decay,
# that correlation_shape accepts.
_MAX_STEP_GAMMA = 0.4
# Largest offset of a tau point from the uniform grid tau_0 + m d_tau, as a
# fraction of d_tau, that the chirp-z correlation of a tabulated filter accepts.
_MAX_TAU_OFF_GRID = 1e-9
# Points of the uniform joint-support grid of the tabulated spectral sum.
_SPECTRAL_POINTS = 32001
# Block B of the split j = a B + b in _quadratic_phasor.
_PHASOR_BLOCK = 256


class TauGridError(ValueError):
    """Tau grid too coarse to resolve the fastest filter decay."""


@dataclass(frozen=True)
class LorentzianFilter:
    """Lorentzian transmission with angular-frequency FWHM gamma [rad/s]."""

    gamma: float
    support = None

    def __post_init__(self) -> None:
        if not 0 < self.gamma < math.inf:
            raise ValueError("gamma must be positive and finite")

    def transmission(self, omega: np.ndarray) -> np.ndarray:
        return self.gamma**2 / (self.gamma**2 + 4.0 * np.asarray(omega) ** 2)

    def amplitude_ft(self, omega: np.ndarray) -> np.ndarray:
        """Fourier transform of the causal impulse response; |.|^2 = T."""
        return self.gamma / (self.gamma - 2j * np.asarray(omega))


@dataclass(frozen=True)
class TabulatedFilter:
    """Measured transmission T(omega) on a strictly increasing offset grid [rad/s]."""

    omega: np.ndarray
    transmission_values: np.ndarray

    def __post_init__(self) -> None:
        omega = np.asarray(self.omega, dtype=float).copy()
        trans = np.asarray(self.transmission_values, dtype=float).copy()
        if omega.ndim != 1 or omega.shape != trans.shape or omega.size < 2:
            raise ValueError("need matching 1-d arrays with at least 2 points")
        if not np.all(np.isfinite(omega)):
            raise ValueError("offsets must be finite")
        if not np.all(np.diff(omega) > 0):
            raise ValueError("offset grid must be strictly increasing")
        # Written so that NaN fails too.
        if not np.all((trans >= 0) & (trans <= 1)):
            raise ValueError("transmission must lie in [0, 1]")
        omega.flags.writeable = False
        trans.flags.writeable = False
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "transmission_values", trans)

    @property
    def support(self) -> tuple[float, float]:
        return float(self.omega[0]), float(self.omega[-1])

    def transmission(self, omega: np.ndarray) -> np.ndarray:
        return np.interp(np.asarray(omega), self.omega, self.transmission_values, left=0.0, right=0.0)

    def amplitude_ft(self, omega: np.ndarray) -> np.ndarray:
        return np.sqrt(self.transmission(omega))

    # Cached in the instance __dict__, which the frozen dataclass's field-based
    # equality, hash and replace() never look at.
    @cached_property
    def _gamma_eff_single(self) -> float:
        """(2/pi) Int T dW by the trapezoid rule on max(4n, 4001) uniform points."""
        w = np.linspace(*self.support, max(4 * self.omega.size, 4001))
        return (2.0 / math.pi) * float(np.trapezoid(self.transmission(w), w))


@dataclass(frozen=True)
class Unfiltered:
    """Explicitly unfiltered arm; handled by analytic limits, never a huge gamma."""

    support = None

    def transmission(self, omega: np.ndarray) -> np.ndarray:
        return np.ones_like(np.asarray(omega), dtype=float)

    def amplitude_ft(self, omega: np.ndarray) -> np.ndarray:
        return np.ones_like(np.asarray(omega), dtype=complex)


FilterSpec = LorentzianFilter | TabulatedFilter | Unfiltered


@dataclass(frozen=True)
class CorrelationTrace:
    """Correlation amplitude f(tau) [1/s] on a time grid, tau = t_s - t_i."""

    tau: np.ndarray
    f: np.ndarray
    gamma_eff: float
    w2_density: np.ndarray | None = None

    def __post_init__(self) -> None:
        for name in ("tau", "f", "w2_density"):
            arr = getattr(self, name)
            if arr is None:
                continue
            arr = np.asarray(arr)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def temporal_gamma_eff(self) -> float:
        """4 Int |f|^2 dtau, the time-domain route to gamma_eff (either grid order)."""
        return 4.0 * abs(float(np.trapezoid(np.abs(self.f) ** 2, self.tau)))


def _joint_grid(f_s: FilterSpec, f_i: FilterSpec, points: int) -> np.ndarray:
    """Uniform grid on the support of T_s(W) T_i(-W), empty if disjoint; one arm is tabulated."""
    sup_i = None if f_i.support is None else (-f_i.support[1], -f_i.support[0])
    bounds = [b for b in (f_s.support, sup_i) if b is not None]
    lo, hi = max(b[0] for b in bounds), min(b[1] for b in bounds)
    return np.linspace(lo, hi, points) if lo < hi else np.empty(0)


def _lerp(w: np.ndarray, nodes: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Piecewise-linear table at w inside its range, exact at the nodes.

    Both weights are distances to a node, so a small value near either node
    keeps its digits; np.interp starts every segment at its left node and
    loses one near the right node to cancellation.
    """
    j = np.searchsorted(nodes[1:-1], w, "right")
    x_a, x_c = nodes[j], nodes[j + 1]
    h = x_c - x_a
    return values[j] * ((x_c - w) / h) + values[j + 1] * ((w - x_a) / h)


def _table_pair_integral(
    nodes_s: np.ndarray, t_s: np.ndarray, nodes_i: np.ndarray, t_i: np.ndarray
) -> float:
    """Exact Int of the product of two piecewise-linear tables; 0 off the joint support.

    On each interval of the merged nodes the product of two lines is a
    quadratic, integrated from its endpoint values alone:
    h/6 (2 s_a t_a + s_a t_b + s_b t_a + 2 s_b t_b).
    """
    lo, hi = max(nodes_s[0], nodes_i[0]), min(nodes_s[-1], nodes_i[-1])
    if not lo < hi:
        return 0.0
    inner = [
        nodes[np.searchsorted(nodes, lo, "right") : np.searchsorted(nodes, hi, "left")]
        for nodes in (nodes_s, nodes_i)
    ]
    # A stable sort merges the sorted runs in linear time. Duplicate nodes
    # make zero-width intervals, which add nothing.
    w = np.sort(np.concatenate([[lo, hi], *inner]), kind="stable")
    s = _lerp(w, nodes_s, t_s)
    t = _lerp(w, nodes_i, t_i)
    return float(
        np.sum(np.diff(w) * (s[:-1] * (2.0 * t[:-1] + t[1:]) + s[1:] * (t[:-1] + 2.0 * t[1:])))
    ) / 6.0


def _table_lorentzian_integral(flt: TabulatedFilter, gamma: float) -> float:
    """Exact Int T(W) L(W) dW of a piecewise-linear table and a Lorentzian.

    On a table segment [a, c], T = T_a + m (W - a), and with x = 2W/gamma
    the Lorentzian moments are A = Int L = (gamma/2) atan2(x_c - x_a, 1 + x_a x_c)
    and B = Int W L = (gamma^2/8) log1p((x_c - x_a)(x_c + x_a)/(1 + x_a^2)),
    so the segment adds T_a A + m (B - a A). L is even, so the same sum
    serves T_i(-W) L_s(W).
    """
    nodes, values = flt.omega, flt.transmission_values
    x = 2.0 * nodes / gamma
    x_a, x_c = x[:-1], x[1:]
    dx = 2.0 * np.diff(nodes) / gamma
    area = 0.5 * gamma * np.arctan2(dx, 1.0 + x_a * x_c)
    moment = 0.125 * gamma**2 * np.log1p(dx * (x_c + x_a) / (1.0 + x_a**2))
    slope = np.diff(values) / np.diff(nodes)
    return float(np.sum(values[:-1] * area + slope * (moment - nodes[:-1] * area)))


def gamma_eff_pair(f_s: FilterSpec, f_i: FilterSpec) -> float:
    """Joint effective linewidth Gamma_eff = (2/pi) Int T_s(W) T_i(-W) dW [rad/s].

    Every pair has an exact form. An unfiltered arm leaves the other arm's
    gamma_eff_single, and two Lorentzians give Gamma_s Gamma_i / (Gamma_s +
    Gamma_i). A tabulated T(W) is piecewise linear, so table x table sums a
    quadratic per merged interval and table x Lorentzian a closed form per
    segment. validation.gamma_eff_pair_spectral is the quadrature oracle for
    table-free pairs.
    """
    if isinstance(f_s, Unfiltered) and isinstance(f_i, Unfiltered):
        raise ValueError(
            "gamma_eff is undefined with both arms unfiltered: the narrow-band "
            "model needs at least one finite collection bandwidth"
        )
    if isinstance(f_i, Unfiltered):
        return gamma_eff_single(f_s)
    if isinstance(f_s, Unfiltered):
        return gamma_eff_single(f_i)
    if isinstance(f_s, LorentzianFilter) and isinstance(f_i, LorentzianFilter):
        # Matched pair reduced by hand: Gamma^2/(2 Gamma) = Gamma/2. The
        # generic expression below misses exact halving in float.
        if f_s.gamma == f_i.gamma:
            return 0.5 * f_s.gamma
        return f_s.gamma * f_i.gamma / (f_s.gamma + f_i.gamma)
    if isinstance(f_i, LorentzianFilter):
        return (2.0 / math.pi) * _table_lorentzian_integral(f_s, f_i.gamma)
    if isinstance(f_s, LorentzianFilter):
        return (2.0 / math.pi) * _table_lorentzian_integral(f_i, f_s.gamma)
    return (2.0 / math.pi) * _table_pair_integral(
        f_s.omega, f_s.transmission_values, -f_i.omega[::-1], f_i.transmission_values[::-1]
    )


def gamma_eff_single(flt: FilterSpec) -> float:
    """Single-arm effective linewidth Gamma_eff,s = 4 Int |F(t)|^2 dt [rad/s].

    Equals gamma exactly for a Lorentzian; for tabulated data it is computed
    through Parseval as (2/pi) Int T(W) dW, a trapezoid sum on a uniform
    resampling of the table, worked out once per table. Undefined for an
    unfiltered arm.
    """
    if isinstance(flt, Unfiltered):
        raise ValueError("gamma_eff_single is undefined for an unfiltered arm")
    if isinstance(flt, LorentzianFilter):
        return flt.gamma
    return flt._gamma_eff_single


def _gamma_scales(f_s: FilterSpec, f_i: FilterSpec) -> dict[str, float]:
    """Gamma_eff,single of each filtered arm, by arm name."""
    arms = (("filter_s", f_s), ("filter_i", f_i))
    return {name: gamma_eff_single(f) for name, f in arms if not isinstance(f, Unfiltered)}


def _grid_scales(f_s: FilterSpec, f_i: FilterSpec) -> list[float]:
    """The scales a tau grid is sized from; an arm that transmits nothing has none."""
    scales = _gamma_scales(f_s, f_i)
    for name, gamma in scales.items():
        if gamma == 0.0:
            raise ValueError(f"{name} transmits nothing: its transmission is 0 everywhere")
    return list(scales.values())


def default_tau_grid(f_s: FilterSpec, f_i: FilterSpec, points: int | None = None) -> np.ndarray:
    """Symmetric tau grid on +-40/gamma_min, wide enough for 1e-6 trapezoid work.

    points defaults to 32769, or to min_tau_points for the span if larger.
    """
    scales = _grid_scales(f_s, f_i)
    if not scales:
        raise ValueError("need at least one finite-bandwidth filter")
    span = 40.0 / min(scales)
    if points is None:
        points = max(32769, min_tau_points(f_s, f_i, span))
    return np.linspace(-span, span, points)


def _step_gamma(tau: np.ndarray, gamma_max: float) -> float:
    return float(np.max(np.abs(np.diff(tau)))) * gamma_max


def min_tau_points(f_s: FilterSpec, f_i: FilterSpec, half_span: float) -> int:
    """Fewest points of a grid on [-half_span, half_span] that correlation_shape accepts.

    Worked out from the spacing 2 half_span / (n - 1), so no grid is built,
    however large. np.linspace puts each point within 2 ulp of half_span of
    its exact place, so the spacing is held 8 ulp and a few roundings below
    the limit; where the limit falls that close to a whole count, the count
    is one more than a check of the built grid would need. Where those ulp
    alone exceed the limit, no grid numpy can hold resolves the span, and
    the count is that of the exact spacing.
    """
    gamma_max = max(_grid_scales(f_s, f_i))
    limit = _MAX_STEP_GAMMA / gamma_max
    step = limit * (1.0 - 4.0 * math.ulp(1.0)) - 8.0 * math.ulp(half_span)
    return max(9, math.ceil(2.0 * half_span / (step if step > 0.0 else limit)) + 1)


def correlation_shape(
    f_s: FilterSpec,
    f_i: FilterSpec,
    tau: np.ndarray | None = None,
    w2_prefactor: float | None = None,
) -> CorrelationTrace:
    """Signal-idler correlation amplitude f(tau) on a time grid.

    Closed piecewise exponentials for Lorentzian (and one-sided unfiltered)
    pairs, on any grid; for tabulated filters the spectral sum by chirp-z,
    which needs a uniform grid (TauGridError otherwise). With w2_prefactor
    given, the trace also carries the coincidence density
    W2_density = w2_prefactor * |f|^2 [1/s^2].
    """
    if isinstance(f_s, Unfiltered) and isinstance(f_i, Unfiltered):
        raise ValueError("correlation shape is undefined with both arms unfiltered")
    # The trace freezes its tau, so a caller's grid is copied rather than
    # frozen in the caller's hands.
    tau = default_tau_grid(f_s, f_i) if tau is None else np.array(tau, dtype=float)
    if tau.ndim != 1 or tau.size < 9:
        raise ValueError("tau must be a 1-d grid with at least 9 points")
    # A NaN passes every comparison below, so both routes refuse it here.
    bad = np.flatnonzero(~np.isfinite(tau))
    if bad.size:
        raise ValueError(f"tau must be finite: tau[{bad[0]}] = {float(tau[bad[0]])!r}")
    gamma_max = max(_gamma_scales(f_s, f_i).values())
    step_gamma = _step_gamma(tau, gamma_max)
    if step_gamma > _MAX_STEP_GAMMA:
        raise TauGridError(
            f"tau grid too coarse: spacing d_tau = {step_gamma / gamma_max!r} s gives "
            f"d_tau*gamma = {step_gamma!r} for the fastest filter decay "
            f"gamma = {gamma_max!r} rad/s, above the limit {_MAX_STEP_GAMMA}"
        )

    # Exponents are clipped to the active side so the inactive np.where
    # branch cannot overflow.
    late, early = np.maximum(tau, 0.0), np.minimum(tau, 0.0)
    if isinstance(f_s, LorentzianFilter) and isinstance(f_i, LorentzianFilter):
        g_s, g_i = f_s.gamma, f_i.gamma
        pref = g_s * g_i / (2.0 * (g_s + g_i))
        shape = np.where(tau >= 0.0, np.exp(-0.5 * g_s * late), np.exp(0.5 * g_i * early))
        f_vals = pref * shape.astype(complex)
    elif isinstance(f_s, LorentzianFilter) and isinstance(f_i, Unfiltered):
        # No idler filter: the signal photon trails its twin.
        g_s = f_s.gamma
        f_vals = np.where(tau >= 0.0, 0.5 * g_s * np.exp(-0.5 * g_s * late), 0.0).astype(complex)
    elif isinstance(f_i, LorentzianFilter) and isinstance(f_s, Unfiltered):
        # No signal filter: the idler photon always arrives later.
        g_i = f_i.gamma
        f_vals = np.where(tau <= 0.0, 0.5 * g_i * np.exp(0.5 * g_i * early), 0.0).astype(complex)
    else:
        f_vals = _spectral_correlation(f_s, f_i, tau)

    gamma_eff = gamma_eff_pair(f_s, f_i)
    w2_density = None if w2_prefactor is None else w2_prefactor * np.abs(f_vals) ** 2
    return CorrelationTrace(tau=tau, f=f_vals, gamma_eff=gamma_eff, w2_density=w2_density)


def _spectral_correlation(f_s: FilterSpec, f_i: FilterSpec, tau: np.ndarray) -> np.ndarray:
    """f(tau) = (1/2pi) Int Fhat_s(W) Fhat_i(-W) exp(-i W tau) dW, by chirp-z.

    At least one arm is tabulated, so the joint support is finite. The
    integral is the trapezoid sum over the _SPECTRAL_POINTS-point joint grid
    W_k = W_0 + k dW. On a uniform tau grid tau_m = tau_0 + m dtau that sum
    is a chirp-z transform: with mk = (m^2 + k^2 - (m - k)^2)/2 it becomes
    one FFT convolution of length >= N + M - 1 (Bluestein's algorithm), so
    the cost is O((N + M) log(N + M)) rather than O(N M). The chirp and the
    premultiplier come from _quadratic_phasor; the three FFTs run in place.
    """
    d_tau = (tau[-1] - tau[0]) / (tau.size - 1)
    off = np.abs(tau - np.linspace(tau[0], tau[-1], tau.size))
    if np.max(off) > _MAX_TAU_OFF_GRID * abs(d_tau):
        worst = int(np.argmax(off))
        raise TauGridError(
            f"tau grid not uniform: tau[{worst}] lies {off[worst]!r} s off tau_0 + m*d_tau "
            f"(d_tau = {d_tau!r} s); a tabulated filter needs a uniform grid, "
            "e.g. from np.linspace or default_tau_grid"
        )
    w = _joint_grid(f_s, f_i, _SPECTRAL_POINTS)
    if w.size == 0:
        return np.zeros(tau.size, dtype=complex)
    d_w = w[1] - w[0]
    half_theta = 0.5 * d_w * d_tau
    # chirp[j] = exp(i theta j^2 / 2), theta = dW dtau.
    chirp = _quadratic_phasor(half_theta, 0.0, max(w.size, tau.size))
    size = scipy.fft.next_fast_len(w.size + tau.size - 1)
    padded = np.zeros(size, dtype=complex)
    # exp(-i (dW tau_0 k + theta k^2 / 2)) times the trapezoid-weighted amplitudes.
    premultiplier = _quadratic_phasor(-half_theta, -d_w * tau[0], w.size)
    spectrum = np.multiply(premultiplier, f_s.amplitude_ft(w), out=padded[: w.size])
    spectrum *= f_i.amplitude_ft(-w)
    spectrum *= d_w / (2.0 * math.pi)
    spectrum[[0, -1]] *= 0.5
    # chirp[m - k] for m - k in (-N, M), wrapped so a cyclic convolution is linear.
    kernel = np.zeros(size, dtype=complex)
    kernel[: tau.size] = chirp[: tau.size]
    kernel[size - w.size + 1 :] = chirp[w.size - 1 : 0 : -1]
    conv = scipy.fft.fft(padded, overwrite_x=True)
    conv *= scipy.fft.fft(kernel, overwrite_x=True)
    conv = scipy.fft.ifft(conv, overwrite_x=True)[: tau.size]
    return _phasor(-w[0] * tau) * chirp[: tau.size].conj() * conv


def _quadratic_phasor(q: float, l: float, n: int) -> np.ndarray:
    """exp(i (q j^2 + l j)) for j < n, from O(sqrt n) cos and sin values.

    With j = a B + b the phase is q (aB)^2 + l aB per row, q b^2 + l b per
    column and 2 q aB b across; r_a^b, r_a = exp(2i q aB), fills by doubling,
    g[:, m:2m] = g[:, :m] r_a^m. Each factor is the phasor of its own rounded
    phase, none larger than the full one, and an entry is a product of at
    most log2(B) + 2 of them.
    """
    a = _PHASOR_BLOCK * np.arange(-(-n // _PHASOR_BLOCK), dtype=float)
    b = np.arange(min(n, _PHASOR_BLOCK), dtype=float)
    g = np.empty((a.size, b.size), dtype=complex)
    g[:, 0] = _phasor(q * a**2 + l * a)
    m = 1
    while m < b.size:
        k = min(m, b.size - m)
        np.multiply(g[:, :k], _phasor((2.0 * m * q) * a)[:, None], out=g[:, m : m + k])
        m *= 2
    g *= _phasor(q * b**2 + l * b)
    return g.reshape(-1)[:n]


def _phasor(phase: np.ndarray) -> np.ndarray:
    """exp(i phase) of a real phase: cos and sin written into one complex buffer.

    Complex np.exp spends its time on the exp of a real part that is 0 here.
    _quadratic_phasor calls it on O(sqrt n) phases for a length-n phasor.
    """
    out = np.empty(phase.shape, dtype=complex)
    np.cos(phase, out=out.real)
    np.sin(phase, out=out.imag)
    return out


def load_filter_table(path: str | Path) -> TabulatedFilter:
    """Read a two-column transmission table.

    Format: optional '#' comment lines, then a header ``units: MHz`` or
    ``units: rad/s`` declaring the offset unit (MHz meaning ordinary
    frequency), then one ``offset transmission`` pair per line, with
    offsets strictly increasing and transmissions in [0, 1]. A bad row
    raises ValueError naming its line.

    All data tokens are converted by one float() pass and checked as arrays;
    only a table that fails is scanned row by row, to name its first bad line.
    """
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    # Rows stay strings: a list per row, all alive at once, would set off
    # garbage collections of the whole heap.
    text = [raw.partition("#")[0].strip() for raw in lines]
    header = next((k for k, line in enumerate(text) if line), None)
    if header is None:
        raise ValueError(f"{path}: missing 'units:' header")
    key, _, unit = text[header].partition(":")
    unit = unit.strip()
    if key.strip() != "units" or unit not in ("MHz", "rad/s"):
        raise ValueError(
            f"{path}: line {header + 1}: expected a header 'units: MHz' or "
            "'units: rad/s' before the data rows"
        )
    rows = [line for line in text[header + 1 :] if line]
    try:
        if set(map(len, map(str.split, rows))) == {2}:
            table = np.fromiter(map(float, " ".join(rows).split()), float, 2 * len(rows))
            # 1e308 MHz overflows to inf, which the table refuses as not finite.
            with np.errstate(over="ignore"):
                offsets = to_si(table[0::2], unit)
            return TabulatedFilter(omega=offsets, transmission_values=table[1::2])
    except ValueError:
        pass
    _raise_first_bad_row(path, text, header, unit)
    raise ValueError(f"{path}: a table needs at least 2 data rows, got {len(rows)}")


def _raise_first_bad_row(path: str | Path, text: list[str], header: int, unit: str) -> None:
    """Raise a ValueError naming the first bad data row after the header, if any.

    text holds each line of the file without its comment and outer whitespace.
    """
    previous = -math.inf
    for line_no, line in enumerate(text[header + 1 :], start=header + 2):
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"{path}: line {line_no}: expected 'offset transmission'")
        try:
            offset, value = float(parts[0]), float(parts[1])
        except ValueError:
            raise ValueError(f"{path}: line {line_no}: not numeric: {line!r}") from None
        offset = to_si(offset, unit)
        if not (math.isfinite(offset) and math.isfinite(value)):
            raise ValueError(f"{path}: line {line_no}: not finite: {line!r}")
        if not 0.0 <= value <= 1.0:
            raise ValueError(
                f"{path}: line {line_no}: transmission must lie in [0, 1]: {line!r}"
            )
        if not offset > previous:
            raise ValueError(
                f"{path}: line {line_no}: offsets must be strictly increasing: {line!r}"
            )
        previous = offset
