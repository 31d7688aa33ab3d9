"""Seeded input generator for the spdckit benchmark.

Each workload draws its operations ("ops") from a fixed catalog of cycles.
A cycle is a small set of ops that together cover the input properties the
workload varies (R_k, kappa/zeta_R span, basis order, N_tau, table shape,
length and support, one or two tabulated arms, degenerate or two-field
sources), so that every stretch of a run sees the same mix. The catalog is
a pure function of the workload name; the run seed picks the order of the
cycles and of the ops inside each cycle. Golden outputs are stored per
catalog op (see make_golden.py), so any seed can be checked.

This module uses the standard library only: it runs inside the timed
set-up, and it must not depend on the package under test.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("focus_opt", "sweep_grid", "filter_chain", "cli_session")

# Cycles per catalog. Sized so that one run of the default length wraps
# around the catalog at most about twice.
CYCLES = {"focus_opt": 8, "sweep_grid": 12, "filter_chain": 6, "cli_session": 8}

MHZ = 2.0 * math.pi * 1e6  # 1 MHz of ordinary frequency in rad/s

# Poling period of the bundled 800 nm config (kappa = -3 at zeta_R = 0.18).
_BUNDLED_PERIOD_UM = 2.4461974377389637


@dataclass(frozen=True)
class Op:
    """One catalog operation: a stable key, a kind and JSON-able parameters."""

    key: str
    kind: str
    params: dict = field(hash=False)

    @property
    def sig(self) -> str:
        """Fingerprint of the parameters; goldens are only valid for it."""
        text = json.dumps([self.kind, self.params], sort_keys=True)
        return hashlib.sha1(text.encode()).hexdigest()[:12]


@dataclass(frozen=True)
class Catalog:
    workload: str
    cycles: tuple[tuple[Op, ...], ...]
    files: dict  # relative path -> text, written into the input directory

    def ops(self) -> list[Op]:
        return [op for cycle in self.cycles for op in cycle]


def _lin(a: float, b: float, n: int) -> list[float]:
    return [a + (b - a) * k / (n - 1) for k in range(n)]


def _source_lines(kind: str, rng: random.Random) -> tuple[list[str], dict]:
    """Config lines for one source kind, with the Lorentzian widths used.

    bundled:    fixed-index material record, two-field, explicit poling;
    degenerate: inline constants with n_s = n_i, the i_apg_sq path;
    auto_qpm:   Sellmeier material (KTP-y-axis), two-field, auto_qpm.
    """
    if kind == "bundled":
        period = _BUNDLED_PERIOD_UM + rng.uniform(-3e-4, 3e-4)
        lines = [
            "material      = PPKTP-800-typeII",
            "lambda_s      = 800 nm",
            "lambda_i      = 800 nm",
            "length        = 10 mm",
            f"poling_period = {period:.12f} um",
        ]
    elif kind == "degenerate":
        lam = rng.uniform(790.0, 830.0)
        n = rng.uniform(1.78, 1.86)
        lines = [
            f"lambda_s   = {lam:.3f} nm",
            f"lambda_i   = {lam:.3f} nm",
            f"n_s        = {n:.5f}",
            f"n_i        = {n:.5f}",
            f"n_p        = {rng.uniform(1.93, 1.99):.5f}",
            f"d_eff      = {rng.uniform(2.0, 3.0):.3f} pm/V",
            "degenerate = true",
            f"length     = {rng.uniform(5.0, 15.0):.3f} mm",
            "auto_qpm   = true",
        ]
    elif kind == "auto_qpm":
        lines = [
            "material = KTP-y-axis",
            f"lambda_s = {rng.uniform(790.0, 812.0):.3f} nm",
            f"lambda_i = {rng.uniform(815.0, 860.0):.3f} nm",
            f"length   = {rng.uniform(10.0, 25.0):.3f} mm",
            "auto_qpm = true",
        ]
    else:
        raise ValueError(f"unknown source kind {kind!r}")
    g_s = rng.uniform(1.0, 10.0)
    g_i = rng.uniform(1.0, 10.0)
    lines += [
        f"zeta_R     = {rng.uniform(0.12, 0.8):.6f}",
        f"pump_power = {rng.uniform(0.5, 5.0):.4f} mW",
    ]
    return lines, {"gamma_s_mhz": round(g_s, 4), "gamma_i_mhz": round(g_i, 4)}


def _lorentzian_config(kind: str, rng: random.Random) -> tuple[str, dict]:
    lines, widths = _source_lines(kind, rng)
    lines += [
        f"filter_s   = lorentzian {widths['gamma_s_mhz']:.4f} MHz",
        f"filter_i   = lorentzian {widths['gamma_i_mhz']:.4f} MHz",
    ]
    return f"# generated {kind} source\n" + "\n".join(lines) + "\n", widths


# --------------------------------------------------------------------------
# focus_opt


def _focus_catalog() -> Catalog:
    cycles = []
    for c in range(CYCLES["focus_opt"]):
        rng = random.Random(f"focus_opt/{c}")
        ops = [Op(f"c{c}/rk0", "focus", {"r_k": 0.0})]
        # Stratified draws: uniform over (-0.3, 0.3), one per fifteenth, so
        # every cycle spans the whole range.
        for j in range(15):
            r_k = -0.3 + 0.6 * (j + rng.random()) / 15
            ops.append(Op(f"c{c}/rk{j + 1}", "focus", {"r_k": round(r_k, 9)}))
        cycles.append(tuple(ops))
    return Catalog("focus_opt", tuple(cycles), {})


# --------------------------------------------------------------------------
# sweep_grid

_SOURCE_KINDS = ("bundled", "degenerate", "auto_qpm")
_GEOMETRY_GRIDS = ("kappa", "kappa_zeta", "zr_rk")


def _sweep_catalog() -> Catalog:
    files = {}
    cycles = []
    for c in range(CYCLES["sweep_grid"]):
        rng = random.Random(f"sweep_grid/{c}")
        # Basis orders spread over the nine geometry grids of a cycle; five
        # cheap ones keep the median inside one cluster, the two order-200
        # grids set the tail.
        orders = [40] * 5 + [120] * 2 + [200] * 2
        rng.shuffle(orders)
        ops = []
        for s, kind in enumerate(_SOURCE_KINDS):
            path = f"sweep/c{c}_{kind}.cfg"
            files[path], widths = _lorentzian_config(kind, rng)
            for g, grid in enumerate(_GEOMETRY_GRIDS):
                k_lo, k_hi = rng.uniform(-12.0, -6.0), rng.uniform(0.0, 4.0)
                z_lo, z_hi = rng.uniform(0.06, 0.15), rng.uniform(1.5, 4.0)
                if grid == "kappa":
                    axes = [["kappa", _lin(k_lo, k_hi, 24)]]
                elif grid == "kappa_zeta":
                    axes = [["kappa", _lin(k_lo, k_hi, 6)], ["zeta_R", _lin(z_lo, z_hi, 5)]]
                else:
                    # zeta_R span in units of the crystal length and a kappa
                    # span that set-up maps onto R_k for this source.
                    axes = [["z_R/L", _lin(z_lo, z_hi, 6)], ["R_k@kappa", _lin(k_lo, k_hi, 5)]]
                params = {"config": path, "order": orders[3 * s + g], "axes": axes}
                ops.append(Op(f"c{c}/{kind}/{grid}", "geometry", params))
            p_lo, p_hi = rng.uniform(0.05, 0.5), rng.uniform(2.0, 10.0)
            g_lo, g_hi = rng.uniform(0.5, 2.0), rng.uniform(10.0, 60.0)
            params = {
                "config": path,
                "axes": [
                    ["P_p", [p * 1e-3 for p in _lin(p_lo, p_hi, 40)]],
                    ["Gamma_s", [g * MHZ for g in _lin(g_lo, g_hi, 40)]],
                ],
                "gamma_i": widths["gamma_i_mhz"] * MHZ,
            }
            ops.append(Op(f"c{c}/{kind}/rates", "rates", params))
        cycles.append(tuple(ops))
    return Catalog("sweep_grid", tuple(cycles), files)


# --------------------------------------------------------------------------
# filter_chain

_SHAPES = ("lorentzian_power", "airy", "super_gaussian")
_N_TAU_BANDS = ((256, 400), (600, 632), (600, 632), (880, 1024))


def _table_text(shape: str, width: float, narrow: bool, rng: random.Random) -> str:
    """Transmission table of one filter shape; width is an FWHM-like scale in MHz."""
    rows = rng.randint(201, 2001)
    if shape == "lorentzian_power":
        power = rng.choice((2, 3))
        half = width * (rng.uniform(2.0, 3.0) if narrow else rng.uniform(4.0, 8.0))

        def trans(f):
            return (1.0 + (2.0 * f / width) ** 2) ** (-power)

        label = f"Lorentzian^{power}"
    elif shape == "airy":
        # The table covers one free spectral range, as a measured etalon
        # scan does; its support is fixed by the finesse.
        coeff = rng.uniform(30.0, 80.0)
        fsr = width * math.pi * math.sqrt(coeff) / 2.0
        half = 0.5 * fsr

        def trans(f):
            return 1.0 / (1.0 + coeff * math.sin(math.pi * f / fsr) ** 2)

        label = f"Airy etalon F={coeff:.3f}"
    else:
        order = rng.choice((2, 3, 4))
        half = width * (rng.uniform(1.0, 1.6) if narrow else rng.uniform(4.0, 8.0))

        def trans(f):
            return math.exp(-math.log(2.0) * abs(2.0 * f / width) ** (2 * order))

        label = f"super-Gaussian order {order}"
    unit = rng.choice(("MHz", "rad/s"))
    scale = 1.0 if unit == "MHz" else MHZ
    lines = [f"# {label}, width {width:.4f} MHz, {rows} rows", f"units: {unit}"]
    for f in _lin(-half, half, rows):
        lines.append(f"{f * scale:.10g} {min(max(trans(f), 0.0), 1.0):.10g}")
    return "\n".join(lines) + "\n"


def _filter_catalog() -> Catalog:
    files = {}
    cycles = []
    for c in range(CYCLES["filter_chain"]):
        rng = random.Random(f"filter_chain/{c}")
        degenerate_slot = rng.randrange(4)
        ops = []
        for j in range(4):
            # N_tau bands of a cycle: one short, two middle, one long, so
            # that the median op of a run falls inside the middle band.
            lo, hi = _N_TAU_BANDS[j]
            n_tau = rng.randint(lo, hi)
            two_tables = rng.random() < 0.5
            width = rng.uniform(3.0, 20.0)
            kind = "degenerate" if j == degenerate_slot else "bundled"
            lines, _ = _source_lines(kind, rng)
            base = f"filter/c{c}_{j}"
            shape_i = rng.choice(_SHAPES)
            files[f"{base}_i.txt"] = _table_text(shape_i, width, rng.random() < 0.4, rng)
            lines.append(f"filter_i   = table c{c}_{j}_i.txt")
            other = width * rng.uniform(0.6, 1.6)
            if two_tables:
                shape_s = rng.choice(_SHAPES)
                files[f"{base}_s.txt"] = _table_text(shape_s, other, rng.random() < 0.4, rng)
                lines.append(f"filter_s   = table c{c}_{j}_s.txt")
            else:
                shape_s = "lorentzian"
                lines.append(f"filter_s   = lorentzian {other:.4f} MHz")
            files[f"{base}.cfg"] = f"# generated {kind} source, tabulated filters\n" + "\n".join(lines) + "\n"
            g_lo, g_hi = width * rng.uniform(0.6, 0.9), width * rng.uniform(1.3, 2.0)
            p_lo, p_hi = rng.uniform(0.2, 1.0), rng.uniform(2.0, 8.0)
            params = {
                "config": f"{base}.cfg",
                "n_tau": n_tau,
                "arms": f"{shape_s}/{shape_i}",
                "axes": [
                    ["Gamma_s", [g * MHZ for g in _lin(g_lo, g_hi, 4)]],
                    ["P_p", [p * 1e-3 for p in _lin(p_lo, p_hi, 3)]],
                ],
            }
            ops.append(Op(f"c{c}/d{j}", "filter_design", params))
        cycles.append(tuple(ops))
    return Catalog("filter_chain", tuple(cycles), files)


# --------------------------------------------------------------------------
# cli_session

# Broken configs: (description, mutation of a good config's lines). Each
# mutation returns the new lines and the 1-based line the error must name.
def _break_missing_unit(lines):
    out = [("length     = 10" if x.startswith("length") else x) for x in lines]
    return out, next(k for k, x in enumerate(out, 1) if x.startswith("length"))


def _break_unknown_key(lines):
    return lines + ["lamda_s = 800 nm"], len(lines) + 1


def _break_duplicate_key(lines):
    dup = next(x for x in lines if x.startswith("lambda_s"))
    return lines + [dup], len(lines) + 1


def _break_not_numeric(lines):
    out = [("zeta_R     = wide" if x.startswith("zeta_R") else x) for x in lines]
    return out, next(k for k, x in enumerate(out, 1) if x.startswith("zeta_R"))


def _break_filter_kind(lines):
    out = [("filter_s   = gaussian 2 MHz" if x.startswith("filter_s") else x) for x in lines]
    return out, next(k for k, x in enumerate(out, 1) if x.startswith("filter_s"))


def _break_table_row(lines):
    out = [("filter_i   = table broken_table.txt" if x.startswith("filter_i") else x) for x in lines]
    return out, next(k for k, x in enumerate(out, 1) if x.startswith("filter_i"))


_BREAKERS = (
    _break_missing_unit,
    _break_unknown_key,
    _break_duplicate_key,
    _break_not_numeric,
    _break_filter_kind,
    _break_table_row,
)


def _cli_catalog() -> Catalog:
    files = {"cli/broken_table.txt": "units: MHz\n-1 0.5\n0 one\n1 0.5\n"}
    cycles = []
    for c in range(CYCLES["cli_session"]):
        rng = random.Random(f"cli_session/{c}")
        ops = []

        def add(name, argv, check, **extra):
            ops.append(Op(f"c{c}/{name}", "cli", {"argv": argv, "check": check, **extra}))

        # Every cycle holds all three source kinds and all three basis
        # orders, so every cycle has the same mix of ops.
        configs = []
        for j, kind in enumerate(_SOURCE_KINDS):
            text, widths = _lorentzian_config(kind, rng)
            path = f"cli/c{c}_{kind}.cfg"
            files[path] = text
            configs.append((kind, path, text, widths))
            cfg = ["--config", path]
            order = (40, 120, 200)[(c + j) % 3]
            add(f"{kind}/sfg", ["sfg", *cfg, "--format", "csv"], "row")
            add(f"{kind}/pairs", ["pairs", *cfg, "--format", "csv"], "row")
            add(f"{kind}/singles{order}",
                ["singles", *cfg, "--basis-order", str(order), "--format", "csv"], "row")
        kind, path, _, widths = configs[c % 3]
        add(f"{kind}/correlation", ["correlation", "--config", path, "--format", "ndjson"],
            "correlation", **widths)
        kind, path, _, _ = configs[(c + 1) % 3]
        add(f"{kind}/optimize", ["optimize", "--config", path, "--restarts", "0", "--format", "csv"],
            "row")
        kind, path, _, widths = configs[(c + 2) % 3]
        p_hi, g_hi = rng.uniform(2.0, 10.0), rng.uniform(10.0, 60.0)
        add(
            f"{kind}/sweep",
            ["sweep", "--config", path, "--format", "csv",
             "--sweep", f"P_p=0.1:{p_hi:.3f}:40", "--sweep", f"Gamma_s=0.5:{g_hi:.3f}:40"],
            "sweep",
            **widths,
        )
        add("validate", ["validate", "--format", "csv"], "validate")
        for b, breaker in enumerate(rng.sample(_BREAKERS, 2)):
            _, _, text, _ = configs[rng.randrange(3)]
            bad_lines, line_no = breaker(text.splitlines())
            bad_path = f"cli/c{c}_broken{b}.cfg"
            files[bad_path] = "\n".join(bad_lines) + "\n"
            command = rng.choice(("sfg", "pairs", "singles"))
            add(f"broken{b}", [command, "--config", bad_path], "broken", line=line_no)
        cycles.append(tuple(ops))
    return Catalog("cli_session", tuple(cycles), files)


_BUILDERS = {
    "focus_opt": _focus_catalog,
    "sweep_grid": _sweep_catalog,
    "filter_chain": _filter_catalog,
    "cli_session": _cli_catalog,
}


def catalog(workload: str) -> Catalog:
    try:
        return _BUILDERS[workload]()
    except KeyError:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}") from None


def write_files(catalog: Catalog, root: Path) -> None:
    for rel, text in catalog.files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")


def schedule(catalog: Catalog, seed: int):
    """Endless sequence of cycles for one seed: the catalog's cycles in a
    shuffled order, pass after pass, each with its ops shuffled."""
    rng = random.Random(seed)
    while True:
        for c in rng.sample(range(len(catalog.cycles)), len(catalog.cycles)):
            ops = list(catalog.cycles[c])
            rng.shuffle(ops)
            yield ops
