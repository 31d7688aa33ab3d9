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

gamma_eff_single still samples a table on a uniform grid, and so does the
correlation: sqrt(T) is not piecewise polynomial, so its spectral sum runs
on a uniform grid over the joint support of T_s(W) T_i(-W), at every tau at
once as a chirp-z transform, and a tabulated arm needs a uniform tau grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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


class TauGridError(ValueError):
    """Tau grid too coarse to resolve the fastest filter decay."""


@dataclass(frozen=True)
class LorentzianFilter:
    """Lorentzian transmission with angular-frequency FWHM gamma [rad/s]."""

    gamma: float
    support = None

    def __post_init__(self) -> None:
        if not self.gamma > 0:
            raise ValueError("gamma must be positive")

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
        return np.sqrt(self.transmission(omega)).astype(complex)


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
    s = np.interp(w, nodes_s, t_s)
    t = np.interp(w, nodes_i, t_i)
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
    resampling of the table. Undefined for an unfiltered arm.
    """
    if isinstance(flt, Unfiltered):
        raise ValueError("gamma_eff_single is undefined for an unfiltered arm")
    if isinstance(flt, LorentzianFilter):
        return flt.gamma
    w = np.linspace(*flt.support, max(4 * flt.omega.size, 4001))
    return (2.0 / math.pi) * float(np.trapezoid(flt.transmission(w), w))


def _gamma_scales(f_s: FilterSpec, f_i: FilterSpec) -> list[float]:
    return [gamma_eff_single(f) for f in (f_s, f_i) if not isinstance(f, Unfiltered)]


def default_tau_grid(f_s: FilterSpec, f_i: FilterSpec, points: int | None = None) -> np.ndarray:
    """Symmetric tau grid on +-40/gamma_min, wide enough for 1e-6 trapezoid work.

    points defaults to 32769, or to min_tau_points for the span if larger.
    """
    scales = _gamma_scales(f_s, f_i)
    if not scales:
        raise ValueError("need at least one finite-bandwidth filter")
    span = 40.0 / min(scales)
    if points is None:
        points = max(32769, min_tau_points(f_s, f_i, span))
    return np.linspace(-span, span, points)


def _step_gamma(tau: np.ndarray, gamma_max: float) -> float:
    return float(np.max(np.abs(np.diff(tau)))) * gamma_max


def min_tau_points(f_s: FilterSpec, f_i: FilterSpec, half_span: float) -> int:
    """Fewest points of a grid on [-half_span, half_span] that correlation_shape accepts."""
    gamma_max = max(_gamma_scales(f_s, f_i))
    n = max(9, math.ceil(2.0 * half_span * gamma_max / _MAX_STEP_GAMMA) + 1)
    while _step_gamma(np.linspace(-half_span, half_span, n), gamma_max) > _MAX_STEP_GAMMA:
        n += 1
    return n


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
    if tau is None:
        tau = default_tau_grid(f_s, f_i)
    tau = np.asarray(tau, dtype=float)
    if tau.ndim != 1 or tau.size < 9:
        raise ValueError("tau must be a 1-d grid with at least 9 points")
    gamma_max = max(_gamma_scales(f_s, f_i))
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
    integral is the trapezoid sum over the 32001-point joint grid
    W_k = W_0 + k dW. On a uniform tau grid tau_m = tau_0 + m dtau that sum
    is a chirp-z transform: with mk = (m^2 + k^2 - (m - k)^2)/2 it becomes
    one FFT convolution of length >= N + M - 1 (Bluestein's algorithm), so
    the cost is O((N + M) log(N + M)) rather than O(N M).
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
    w = _joint_grid(f_s, f_i, 32001)
    if w.size == 0:
        return np.zeros(tau.size, dtype=complex)
    d_w = w[1] - w[0]
    weights = np.full(w.size, d_w)
    weights[0] *= 0.5
    weights[-1] *= 0.5
    # conj(chirp[j]) = exp(-i theta j^2 / 2), theta = dW dtau; j^2 is exact in float.
    chirp = np.exp(0.5j * d_w * d_tau * np.arange(max(w.size, tau.size), dtype=float) ** 2)
    spectrum = f_s.amplitude_ft(w) * f_i.amplitude_ft(-w) * weights / (2.0 * math.pi)
    spectrum *= np.exp(-1j * (d_w * tau[0]) * np.arange(w.size)) * chirp[: w.size].conj()
    size = scipy.fft.next_fast_len(w.size + tau.size - 1)
    # chirp[m - k] for m - k in (-N, M), wrapped so a cyclic convolution is linear.
    kernel = np.zeros(size, dtype=complex)
    kernel[: tau.size] = chirp[: tau.size]
    kernel[size - w.size + 1 :] = chirp[w.size - 1 : 0 : -1]
    conv = scipy.fft.ifft(scipy.fft.fft(spectrum, size) * scipy.fft.fft(kernel))[: tau.size]
    return np.exp(-1j * w[0] * tau) * chirp[: tau.size].conj() * conv


def load_filter_table(path: str | Path) -> TabulatedFilter:
    """Read a two-column transmission table.

    Format: optional '#' comment lines, then a header ``units: MHz`` or
    ``units: rad/s`` declaring the offset unit (MHz meaning ordinary
    frequency), then one ``offset transmission`` pair per line, with
    offsets strictly increasing and transmissions in [0, 1]. A bad row
    raises ValueError naming its line.
    """
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    unit: str | None = None
    offsets: list[float] = []
    values: list[float] = []
    for line_no, raw in enumerate(lines, start=1):
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
        offset = to_si(offset, unit)
        if not (math.isfinite(offset) and math.isfinite(value)):
            raise ValueError(f"{path}: line {line_no}: not finite: {line!r}")
        if not 0.0 <= value <= 1.0:
            raise ValueError(
                f"{path}: line {line_no}: transmission must lie in [0, 1]: {line!r}"
            )
        if offsets and not offset > offsets[-1]:
            raise ValueError(
                f"{path}: line {line_no}: offsets must be strictly increasing: {line!r}"
            )
        offsets.append(offset)
        values.append(value)
    if unit is None:
        raise ValueError(f"{path}: missing 'units:' header")
    try:
        return TabulatedFilter(omega=np.array(offsets), transmission_values=np.array(values))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
