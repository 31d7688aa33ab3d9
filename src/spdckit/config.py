"""Run configuration files.

One run of the pipeline is described by a small key = value text file:

    # 800 nm type-II source
    material     = PPKTP-800-typeII
    lambda_s     = 800 nm
    lambda_i     = 800 nm
    length       = 10 mm
    poling_period = 24.4 um
    zeta_R       = 0.18
    pump_power   = 1 mW
    filter_s     = lorentzian 2 MHz
    filter_i     = lorentzian 2 MHz

Dimensional keys require a unit token; dimensionless ones forbid it.
Alternatives are exclusive pairs: material XOR inline (n_s, n_i, n_p, d_eff);
poling_period XOR auto_qpm = true; z_R XOR zeta_R. Parsing collects every
problem it can find and reports them together instead of stopping at the
first one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from . import filters, materials
from .quantities import (
    CrystalSpec,
    FocusParams,
    WaveTriple,
    derive_focus_params,
    to_si,
)

__all__ = [
    "ConfigError",
    "RunConfig",
    "BuiltConfig",
    "parse_config",
    "load_config",
    "build",
    "load_and_build",
]


class ConfigError(ValueError):
    """All problems found in one configuration, joined into one message."""

    def __init__(self, errors: list[str], name: str = "<config>"):
        self.errors = list(errors)
        self.name = name
        super().__init__(f"{name}: " + "; ".join(self.errors))


@dataclass(frozen=True)
class RunConfig:
    """Parsed configuration, SI values, before material resolution."""

    source: str
    lambda_s: float
    lambda_i: float
    length: float
    pump_power: float
    material: str | None = None
    material_db: Path | None = None
    n_s: float | None = None
    n_i: float | None = None
    n_p: float | None = None
    d_eff: float | None = None
    poling_period: float | None = None
    auto_qpm: bool = False
    z_r: float | None = None
    zeta_r: float | None = None
    filter_s: filters.FilterSpec = filters.Unfiltered()
    filter_i: filters.FilterSpec = filters.Unfiltered()
    degenerate: bool = False


@dataclass(frozen=True)
class BuiltConfig:
    """Physical objects assembled from a RunConfig."""

    waves: WaveTriple
    crystal: CrystalSpec
    fp: FocusParams
    z_r: float
    filter_s: filters.FilterSpec
    filter_i: filters.FilterSpec
    pump_power: float


_WAVE_UNITS = ("nm", "um", "µm")
_LENGTH_UNITS = ("um", "µm", "mm", "cm", "m")
_POWER_UNITS = ("uW", "mW", "W")
_RATE_UNITS = ("MHz", "GHz", "rad/s")


def _finite(x: float) -> float:
    if not math.isfinite(x):
        raise ValueError("value must be finite")
    return x


def _quantity(value: str, units: tuple[str, ...]) -> float:
    parts = value.split()
    if len(parts) != 2:
        raise ValueError(f"expected '<number> <unit>' with unit in {', '.join(units)}")
    try:
        number = float(parts[0])
    except ValueError:
        raise ValueError(f"not a number: {parts[0]!r}") from None
    if parts[1] not in units:
        raise ValueError(f"unit must be one of {', '.join(units)}, got {parts[1]!r}")
    # inf, nan, or a number the unit scaling overflows.
    return _finite(to_si(number, parts[1]))


def _positive_quantity(value: str, units: tuple[str, ...]) -> float:
    x = _quantity(value, units)
    if not x > 0:
        raise ValueError("value must be positive")
    return x


def _bare_float(value: str) -> float:
    if len(value.split()) != 1:
        raise ValueError("dimensionless key takes a bare number, no unit")
    try:
        number = float(value)
    except ValueError:
        raise ValueError(f"not a number: {value!r}") from None
    return _finite(number)


def _bool(value: str) -> bool:
    low = value.lower()
    if low in ("true", "false"):
        return low == "true"
    raise ValueError(f"expected true or false, got {value!r}")


def _index(value: str) -> float:
    x = _bare_float(value)
    if x < 1.0:
        raise ValueError("refractive index must be >= 1")
    return x


def _filter_spec(value: str, base: Path) -> filters.FilterSpec:
    parts = value.split()
    if parts == ["unfiltered"]:
        return filters.Unfiltered()
    if parts and parts[0] == "lorentzian":
        if len(parts) != 3:
            raise ValueError("expected 'lorentzian <width> <MHz|GHz|rad/s>'")
        gamma = _positive_quantity(" ".join(parts[1:]), _RATE_UNITS)
        return filters.LorentzianFilter(gamma=gamma)
    if parts and parts[0] == "table":
        if len(parts) != 2:
            raise ValueError("expected 'table <path>'")
        return filters.load_filter_table(base / parts[1])
    raise ValueError(
        f"unknown filter {value!r}; use 'lorentzian <width> <unit>', "
        "'table <path>' or 'unfiltered'"
    )


def _converters(base: Path) -> dict:
    return {
        "material": lambda v: v,
        "material_db": lambda v: base / v,
        "n_s": _index,
        "n_i": _index,
        "n_p": _index,
        "d_eff": lambda v: _positive_quantity(v, ("pm/V",)),
        "lambda_s": lambda v: _positive_quantity(v, _WAVE_UNITS),
        "lambda_i": lambda v: _positive_quantity(v, _WAVE_UNITS),
        "length": lambda v: _positive_quantity(v, _LENGTH_UNITS),
        "poling_period": lambda v: _positive_quantity(v, _LENGTH_UNITS),
        "auto_qpm": _bool,
        "z_R": lambda v: _positive_quantity(v, _LENGTH_UNITS),
        "zeta_R": _bare_float,
        "pump_power": lambda v: _positive_quantity(v, _POWER_UNITS),
        "filter_s": lambda v: _filter_spec(v, base),
        "filter_i": lambda v: _filter_spec(v, base),
        "degenerate": _bool,
    }


def parse_config(text: str, base_dir: str | Path = ".", name: str = "<config>") -> RunConfig:
    """Parse configuration text; raises ConfigError listing every problem."""
    base = Path(base_dir)
    converters = _converters(base)
    errors: list[str] = []
    seen: dict[str, tuple[str, int]] = {}

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key:
            errors.append(f"line {line_no}: expected 'key = value'")
            continue
        if key not in converters:
            errors.append(f"line {line_no}: unknown key {key!r}")
            continue
        if key in seen:
            errors.append(f"line {line_no}: duplicate key {key!r}")
            continue
        if not value:
            errors.append(f"line {line_no}: empty value for {key!r}")
            continue
        seen[key] = (value, line_no)

    parsed: dict[str, object] = {}
    for key, (value, line_no) in seen.items():
        try:
            parsed[key] = converters[key](value)
        except (ValueError, OSError) as exc:
            errors.append(f"line {line_no}: {key}: {exc}")

    given = set(seen)
    for key in ("lambda_s", "lambda_i", "length", "pump_power"):
        if key not in given:
            errors.append(f"missing required key {key!r}")

    has_period = "poling_period" in given
    has_auto = parsed.get("auto_qpm") is True
    if has_period and has_auto:
        errors.append("poling_period and auto_qpm = true are mutually exclusive")
    elif not has_period and not has_auto:
        errors.append("give exactly one of poling_period or auto_qpm = true")

    if ("z_R" in given) == ("zeta_R" in given):
        errors.append("give exactly one of z_R or zeta_R")

    inline = {"n_s", "n_i", "n_p", "d_eff"}
    if "material" in given:
        clash = sorted(inline & given)
        if clash:
            errors.append(
                "material and inline constants are mutually exclusive; remove "
                + ", ".join(clash)
            )
    else:
        missing = sorted(inline - given)
        if missing:
            errors.append(
                "without material, all inline constants are required; missing "
                + ", ".join(missing)
            )
        if "material_db" in given:
            errors.append("material_db requires a material key")

    if errors:
        raise ConfigError(errors, name)

    return RunConfig(
        source=name,
        lambda_s=parsed["lambda_s"],
        lambda_i=parsed["lambda_i"],
        length=parsed["length"],
        pump_power=parsed["pump_power"],
        material=parsed.get("material"),
        material_db=parsed.get("material_db"),
        n_s=parsed.get("n_s"),
        n_i=parsed.get("n_i"),
        n_p=parsed.get("n_p"),
        d_eff=parsed.get("d_eff"),
        poling_period=parsed.get("poling_period"),
        auto_qpm=bool(parsed.get("auto_qpm", False)),
        z_r=parsed.get("z_R"),
        zeta_r=parsed.get("zeta_R"),
        filter_s=parsed.get("filter_s", filters.Unfiltered()),
        filter_i=parsed.get("filter_i", filters.Unfiltered()),
        degenerate=bool(parsed.get("degenerate", False)),
    )


def load_config(path: str | Path) -> RunConfig:
    """Read and parse a configuration file; paths resolve next to it."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError([f"cannot read: {exc}"], str(path)) from None
    return parse_config(text, base_dir=p.parent, name=str(path))


def build(cfg: RunConfig) -> BuiltConfig:
    """Resolve materials and assemble physical objects from a RunConfig."""
    errors: list[str] = []
    n_s = n_i = n_p = d_eff = None
    material_name = ""

    lambda_p = 1.0 / (1.0 / cfg.lambda_s + 1.0 / cfg.lambda_i)

    if cfg.material is not None:
        material_name = cfg.material
        try:
            record = materials.get_material(cfg.material, cfg.material_db)
        except (KeyError, ValueError, OSError) as exc:
            raise ConfigError([str(exc)], cfg.source) from None
        d_eff = record.d_eff
        for attr, lam, axis in (
            ("n_s", cfg.lambda_s, "s"),
            ("n_i", cfg.lambda_i, "i"),
            ("n_p", lambda_p, "p"),
        ):
            try:
                value = materials.index_at(record, lam, axis)
            except ValueError as exc:
                errors.append(f"{attr}: {exc}")
                continue
            if attr == "n_s":
                n_s = value
            elif attr == "n_i":
                n_i = value
            else:
                n_p = value
    else:
        n_s, n_i, n_p, d_eff = cfg.n_s, cfg.n_i, cfg.n_p, cfg.d_eff

    if cfg.degenerate:
        if cfg.lambda_s != cfg.lambda_i:
            errors.append("degenerate = true needs lambda_s == lambda_i")
        elif None not in (n_s, n_i) and n_s != n_i:
            errors.append("degenerate = true needs identical signal and idler indices")

    if errors:
        raise ConfigError(errors, cfg.source)

    try:
        waves = WaveTriple.from_wavelengths(
            cfg.lambda_s, cfg.lambda_i, n_s, n_i, n_p, degenerate=cfg.degenerate
        )
    except ValueError as exc:
        raise ConfigError([str(exc)], cfg.source) from None

    if cfg.auto_qpm:
        k_minus0 = waves.k_minus0
        if not k_minus0 > 0:
            raise ConfigError(
                ["auto_qpm needs k_p > k_s + k_i (normal dispersion)"], cfg.source
            )
        poling_period = 2.0 * math.pi / k_minus0
    else:
        poling_period = cfg.poling_period

    crystal = CrystalSpec(
        length=cfg.length,
        d_eff=d_eff,
        poling_period=poling_period,
        material_name=material_name,
    )
    z_r = cfg.z_r if cfg.z_r is not None else cfg.zeta_r * cfg.length
    if not z_r > 0:
        raise ConfigError(["zeta_R must be positive"], cfg.source)
    fp = derive_focus_params(waves, crystal, z_r)
    return BuiltConfig(
        waves=waves,
        crystal=crystal,
        fp=fp,
        z_r=z_r,
        filter_s=cfg.filter_s,
        filter_i=cfg.filter_i,
        pump_power=cfg.pump_power,
    )


def load_and_build(path: str | Path) -> BuiltConfig:
    return build(load_config(path))
