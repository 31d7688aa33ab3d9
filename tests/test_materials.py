"""Material database parsing, lookup and index evaluation."""

import math
from importlib import resources

import pytest

from spdckit import materials
from spdckit.materials import (
    MaterialParseError,
    SellmeierCoefficients,
    get_material,
    index_at,
    load_material_db,
    loads_material_db,
)


def test_builtin_fixed_record():
    rec = get_material("PPKTP-800-typeII")
    assert rec.kind == "fixed"
    assert rec.fixed_indices == (1.844, 1.757, 1.964)
    assert math.isclose(rec.d_eff, 2.4e-12, rel_tol=1e-15)
    assert math.isclose(rec.wavelength_range[0], 390e-9, rel_tol=1e-15)
    assert math.isclose(rec.wavelength_range[1], 810e-9, rel_tol=1e-15)
    assert index_at(rec, 800e-9, "s") == 1.844
    assert index_at(rec, 800e-9, "idler") == 1.757
    assert index_at(rec, 400e-9, "pump") == 1.964


def test_builtin_sellmeier_record_hand_value():
    rec = get_material("KTP-y-axis")
    # n^2 = a + b u/(u - c) + d u at u = (0.8)^2, written out by hand.
    u = 0.8**2
    n_sq = 2.0993 + 0.922683 * u / (u - 0.0467695) - 0.0138408 * u
    assert math.isclose(index_at(rec, 800e-9, "s"), math.sqrt(n_sq), rel_tol=1e-15)
    # All three axes share the same coefficient set in this record.
    assert index_at(rec, 800e-9, "i") == index_at(rec, 800e-9, "s")


def test_sellmeier_coefficients_reject_unphysical_index():
    bad = SellmeierCoefficients(a=0.5, b=0.0, c=0.01, d=0.0)
    with pytest.raises(ValueError, match="< 1"):
        bad.index(800e-9)


def test_index_at_validation():
    rec = get_material("PPKTP-800-typeII")
    with pytest.raises(ValueError, match="unknown axis"):
        index_at(rec, 800e-9, "x")
    with pytest.raises(ValueError, match="outside the valid range"):
        index_at(rec, 1064e-9, "s")


def test_get_material_unknown_name_lists_known():
    with pytest.raises(KeyError, match="PPKTP-800-typeII"):
        get_material("unobtainium")


def _records_equivalent(a, b) -> bool:
    # Unit scaling costs an ulp on the nm/pm fields; everything else is exact.
    return (
        a.name == b.name
        and a.kind == b.kind
        and a.fixed_indices == b.fixed_indices
        and a.sellmeier == b.sellmeier
        and math.isclose(a.d_eff, b.d_eff, rel_tol=1e-12)
        and all(
            math.isclose(x, y, rel_tol=1e-12)
            for x, y in zip(a.wavelength_range, b.wavelength_range)
        )
    )


def test_load_from_file(tmp_path):
    db = tmp_path / "local.db"
    db.write_text(
        resources.files("spdckit").joinpath("data/materials.db").read_text("utf-8"),
        encoding="utf-8",
    )
    rec = get_material("KTP-y-axis", db_path=db)
    assert _records_equivalent(rec, get_material("KTP-y-axis"))


GOOD = """\
[demo]
type = fixed
n_s = 1.8
n_i = 1.8
n_p = 1.9
d_eff_pm_per_V = 2.0
lambda_min_nm = 400
lambda_max_nm = 900
"""


@pytest.mark.parametrize(
    "mutant, message",
    [
        (GOOD.replace("n_s", "ns"), "unknown key"),
        (GOOD.replace("[demo]", "[demo]\nn_i = 1.7"), "duplicate key"),
        (GOOD + GOOD, "duplicate material"),
        (GOOD.replace("fixed", "tabulated"), "type must be"),
        (GOOD.replace("n_p = 1.9\n", ""), "missing key"),
        (GOOD.replace("1.8", "fast"), "needs a number"),
        (GOOD.replace("n_s = 1.8", "n_s = 0.5"), "indices must be >= 1"),
        (GOOD.replace("400", "1200"), "lambda_min_nm < lambda_max_nm"),
        (GOOD.replace("2.0", "-2.0"), "must be positive"),
        (GOOD.replace("[demo]\n", ""), "outside any"),
        (GOOD.replace("[demo]", "[]"), "empty material name"),
        (GOOD.replace("type = fixed", "type"), "expected 'key = value'"),
    ],
)
def test_parse_errors(mutant, message):
    with pytest.raises(MaterialParseError, match=message):
        loads_material_db(mutant)


def test_parse_error_carries_line_number():
    broken = GOOD.replace("n_p = 1.9", "np = 1.9")
    with pytest.raises(MaterialParseError, match="line 5"):
        loads_material_db(broken)


def test_sellmeier_needs_four_coefficients():
    text = GOOD.replace("type = fixed", "type = sellmeier").replace(
        "n_s = 1.8\nn_i = 1.8\nn_p = 1.9",
        "sellmeier_s = 2.0, 0.9\nsellmeier_i = 2.0, 0.9, 0.04, 0.0\n"
        "sellmeier_p = 2.0, 0.9, 0.04, 0.0",
    )
    with pytest.raises(MaterialParseError, match="4 coefficients"):
        loads_material_db(text)


def test_sellmeier_validated_across_declared_range():
    # c inside the declared range puts a pole there; the loader must refuse.
    text = """\
[poley]
type = sellmeier
sellmeier_s = 2.0, 0.9, 0.36, 0.0
sellmeier_i = 2.0, 0.9, 0.36, 0.0
sellmeier_p = 2.0, 0.9, 0.36, 0.0
d_eff_pm_per_V = 2.0
lambda_min_nm = 400
lambda_max_nm = 900
"""
    with pytest.raises(MaterialParseError, match="inside declared range"):
        loads_material_db(text)


def test_comments_and_blank_lines_ignored():
    text = "# leading comment\n\n" + GOOD.replace(
        "n_s = 1.8", "n_s = 1.8  # inline comment"
    )
    records = loads_material_db(text)
    assert len(records) == 1 and records[0].name == "demo"


def test_materials_module_exports():
    for name in materials.__all__:
        assert getattr(materials, name) is not None
