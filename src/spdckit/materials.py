"""Crystal optical constants: a small text database format plus built-ins.

The database is a hand-editable UTF-8 file of sections::

    [PPKTP-800-typeII]
    type = fixed
    n_s = 1.844
    n_i = 1.757
    n_p = 1.964
    d_eff_pm_per_V = 2.4
    lambda_min_nm = 390
    lambda_max_nm = 810

    [KTP-y-axis]
    type = sellmeier
    sellmeier_s = 2.0993, 0.922683, 0.0467695, -0.0138408
    ...

A ``fixed`` record carries one index triple valid across its declared
wavelength range. A ``sellmeier`` record carries per-axis coefficients
(a, b, c, d) for n^2 = a + b*u/(u - c) + d*u with u = (wavelength in um)^2.
Unknown keys are rejected with a line number: these files are edited by
hand and silent typos (n_s vs ns) are the realistic failure mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from pathlib import Path

__all__ = [
    "MaterialParseError",
    "SellmeierCoefficients",
    "MaterialRecord",
    "load_material_db",
    "loads_material_db",
    "builtin_db",
    "get_material",
    "index_at",
]

_AXES = {"s": "s", "i": "i", "p": "p", "signal": "s", "idler": "i", "pump": "p"}


class MaterialParseError(ValueError):
    """Database file rejected; message carries the offending line number."""


@dataclass(frozen=True)
class SellmeierCoefficients:
    """n^2 = a + b*u/(u - c) + d*u with u = (lambda in um)^2."""

    a: float
    b: float
    c: float
    d: float

    def index(self, wavelength: float) -> float:
        u = (wavelength * 1e6) ** 2
        n_sq = self.a + self.b * u / (u - self.c) + self.d * u
        if n_sq < 1.0:
            raise ValueError(f"Sellmeier model gives n^2 = {n_sq:.4f} < 1")
        return math.sqrt(n_sq)


@dataclass(frozen=True)
class MaterialRecord:
    name: str
    kind: str  # "fixed" | "sellmeier"
    d_eff: float  # m/V
    wavelength_range: tuple[float, float]  # m
    fixed_indices: tuple[float, float, float] | None = None  # (n_s, n_i, n_p)
    sellmeier: tuple[
        SellmeierCoefficients, SellmeierCoefficients, SellmeierCoefficients
    ] | None = None


def index_at(record: MaterialRecord, wavelength: float, axis: str) -> float:
    """Refractive index of one axis ('s'/'i'/'p' or long names) at wavelength [m]."""
    try:
        ax = _AXES[axis]
    except KeyError:
        raise ValueError(f"unknown axis {axis!r}; expected s, i or p") from None
    lo, hi = record.wavelength_range
    if not lo <= wavelength <= hi:
        raise ValueError(
            f"wavelength {wavelength * 1e9:.1f} nm outside the valid range "
            f"[{lo * 1e9:.1f}, {hi * 1e9:.1f}] nm of material {record.name!r}"
        )
    pos = "sip".index(ax)
    if record.kind == "fixed":
        assert record.fixed_indices is not None
        return record.fixed_indices[pos]
    assert record.sellmeier is not None
    return record.sellmeier[pos].index(wavelength)


_COMMON_KEYS = {"type", "d_eff_pm_per_V", "lambda_min_nm", "lambda_max_nm"}
_FIXED_KEYS = _COMMON_KEYS | {"n_s", "n_i", "n_p"}
_SELLMEIER_KEYS = _COMMON_KEYS | {"sellmeier_s", "sellmeier_i", "sellmeier_p"}


def _parse_float(text: str, line_no: int, key: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise MaterialParseError(
            f"line {line_no}: key {key!r} needs a number, got {text!r}"
        ) from None


def _parse_coeffs(text: str, line_no: int, key: str) -> SellmeierCoefficients:
    parts = [p for p in text.replace(",", " ").split() if p]
    if len(parts) != 4:
        raise MaterialParseError(
            f"line {line_no}: key {key!r} needs 4 coefficients (a, b, c, d)"
        )
    a, b, c, d = (_parse_float(p, line_no, key) for p in parts)
    return SellmeierCoefficients(a, b, c, d)


def _finalize(name: str, keys: dict[str, tuple[str, int]], header_line: int) -> MaterialRecord:
    def take(key: str) -> tuple[str, int]:
        if key not in keys:
            raise MaterialParseError(
                f"material {name!r} (line {header_line}): missing key {key!r}"
            )
        return keys[key]

    kind_text, kind_line = take("type")
    if kind_text not in ("fixed", "sellmeier"):
        raise MaterialParseError(
            f"line {kind_line}: type must be 'fixed' or 'sellmeier', got {kind_text!r}"
        )
    allowed = _FIXED_KEYS if kind_text == "fixed" else _SELLMEIER_KEYS
    for key, (_, line_no) in keys.items():
        if key not in allowed:
            raise MaterialParseError(
                f"line {line_no}: unknown key {key!r} for a {kind_text} record"
            )

    def take_float(key: str) -> float:
        text, line_no = take(key)
        return _parse_float(text, line_no, key)

    d_eff = take_float("d_eff_pm_per_V")
    lo = take_float("lambda_min_nm")
    hi = take_float("lambda_max_nm")
    if d_eff <= 0:
        raise MaterialParseError(f"material {name!r}: d_eff_pm_per_V must be positive")
    if not 0 < lo < hi:
        raise MaterialParseError(
            f"material {name!r}: need 0 < lambda_min_nm < lambda_max_nm"
        )
    wavelength_range = (lo * 1e-9, hi * 1e-9)

    if kind_text == "fixed":
        indices = tuple(take_float(k) for k in ("n_s", "n_i", "n_p"))
        for n in indices:
            if n < 1.0:
                raise MaterialParseError(f"material {name!r}: indices must be >= 1")
        return MaterialRecord(
            name=name,
            kind="fixed",
            d_eff=d_eff * 1e-12,
            wavelength_range=wavelength_range,
            fixed_indices=indices,  # type: ignore[arg-type]
        )

    coeffs = tuple(
        _parse_coeffs(*take(k), k) for k in ("sellmeier_s", "sellmeier_i", "sellmeier_p")
    )
    record = MaterialRecord(
        name=name,
        kind="sellmeier",
        d_eff=d_eff * 1e-12,
        wavelength_range=wavelength_range,
        sellmeier=coeffs,  # type: ignore[arg-type]
    )
    # The declared range is a promise that the model is physical there.
    for lam in [lo * 1e-9 + k * (hi - lo) * 1e-9 / 256 for k in range(257)]:
        for axis in "sip":
            try:
                index_at(record, lam, axis)
            except ValueError as exc:
                raise MaterialParseError(
                    f"material {name!r}: invalid index inside declared range "
                    f"at {lam * 1e9:.1f} nm ({exc})"
                ) from None
    return record


def loads_material_db(text: str) -> list[MaterialRecord]:
    """Parse database text into records; see load_material_db."""
    records: list[MaterialRecord] = []
    names: set[str] = set()
    section: str | None = None
    section_line = 0
    keys: dict[str, tuple[str, int]] = {}

    def close_section() -> None:
        nonlocal section, keys
        if section is not None:
            records.append(_finalize(section, keys, section_line))
        section, keys = None, {}

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            close_section()
            section = line[1:-1].strip()
            section_line = line_no
            if not section:
                raise MaterialParseError(f"line {line_no}: empty material name")
            if section in names:
                raise MaterialParseError(
                    f"line {line_no}: duplicate material name {section!r}"
                )
            names.add(section)
            continue
        if "=" not in line:
            raise MaterialParseError(
                f"line {line_no}: expected 'key = value' or a [section] header"
            )
        if section is None:
            raise MaterialParseError(
                f"line {line_no}: key/value outside any [material] section"
            )
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key in keys:
            raise MaterialParseError(f"line {line_no}: duplicate key {key!r}")
        if key not in (_FIXED_KEYS | _SELLMEIER_KEYS):
            raise MaterialParseError(f"line {line_no}: unknown key {key!r}")
        keys[key] = (value, line_no)
    close_section()
    return records


def load_material_db(path: str | Path) -> list[MaterialRecord]:
    """Load and validate a material database file."""
    return loads_material_db(Path(path).read_text(encoding="utf-8"))


@lru_cache(maxsize=1)
def builtin_db() -> tuple[MaterialRecord, ...]:
    """Records bundled with the package (spdckit/data/materials.db)."""
    text = (
        resources.files("spdckit").joinpath("data/materials.db").read_text("utf-8")
    )
    return tuple(loads_material_db(text))


def get_material(name: str, db_path: str | Path | None = None) -> MaterialRecord:
    """Look up a record by name in a database file or, by default, the built-ins."""
    records = load_material_db(db_path) if db_path is not None else builtin_db()
    for r in records:
        if r.name == name:
            return r
    known = ", ".join(r.name for r in records) or "(none)"
    raise KeyError(f"material {name!r} not found; known: {known}")
