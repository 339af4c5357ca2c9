import json
import math
import re

import pytest

from dakit import (
    Catalog,
    CatalogError,
    Substrate,
    TransistorModel,
    builtin_table1,
    effective_gate_capacitance,
    load_catalog,
)
from dakit.device import transistor_from_entry, transistor_to_entry

GOOD_CATALOG = """
{"transistors": [
  {"name": "A", "gm_S": 0.05, "cgs_F": 1.79e-12, "cds_F": 3.0e-13},
  {"name": "B", "gm_S": 0.08, "cgs_F": 1.4e-13, "cds_F": 5e-14,
   "ri_ohm": 1.0, "rds_ohm": 200.0, "reference": "pHEMT"}
]}
"""


def test_transistor_defaults():
    t = TransistorModel("x", gm=0.01, cgs=1e-12, cds=1e-13)
    assert t.ri == 0.0
    assert math.isinf(t.rds)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"gm": 0.0},
        {"gm": -0.01},
        {"cgs": 0.0},
        {"cds": -1e-15},
        {"ri": -0.5},
        {"rds": 0.0},
        {"rds": -200.0},
        {"gm": math.nan},
        {"gm": math.inf},
        {"cgs": math.nan},
        {"cds": math.inf},
        {"ri": math.nan},
        {"ri": math.inf},
        {"rds": math.nan},
    ],
)
def test_transistor_rejects_bad_values(kwargs):
    base = {"name": "x", "gm": 0.01, "cgs": 1e-12, "cds": 1e-13}
    base.update(kwargs)
    with pytest.raises(CatalogError):
        TransistorModel(**base)


def test_substrate_validation():
    Substrate(er=1.0, h_mm=0.1, t_mm=0.0)
    with pytest.raises(CatalogError):
        Substrate(er=0.9, h_mm=1.0)
    with pytest.raises(CatalogError):
        Substrate(er=4.4, h_mm=0.0)
    with pytest.raises(CatalogError):
        Substrate(er=4.4, h_mm=1.6, t_mm=-0.01)
    for bad in (
        {"er": math.nan, "h_mm": 1.6},
        {"er": math.inf, "h_mm": 1.6},
        {"er": 4.4, "h_mm": math.nan},
        {"er": 4.4, "h_mm": math.inf},
        {"er": 4.4, "h_mm": 1.6, "t_mm": math.nan},
    ):
        with pytest.raises(CatalogError):
            Substrate(**bad)


@pytest.mark.parametrize("field", ["gm", "cgs", "cds", "ri", "rds"])
@pytest.mark.parametrize("bad", [True, "1", None])
def test_transistor_refuses_non_numbers(field, bad):
    # an int is a number; a bool passed the range comparisons, and a str
    # or None raised a bare TypeError
    base = {"name": "x", "gm": 0.01, "cgs": 1e-12, "cds": 1e-13}
    assert getattr(TransistorModel(**{**base, field: 1}), field) == 1
    with pytest.raises(CatalogError, match=field):
        TransistorModel(**{**base, field: bad})


@pytest.mark.parametrize("field", ["er", "h_mm", "t_mm"])
@pytest.mark.parametrize("bad", [True, "4", None])
def test_substrate_refuses_non_numbers(field, bad):
    base = {"er": 4.4, "h_mm": 1.6, "t_mm": 0.035}
    assert getattr(Substrate(**{**base, field: 1}), field) == 1
    with pytest.raises(CatalogError, match="got " + re.escape(repr(bad))):
        Substrate(**{**base, field: bad})


@pytest.mark.parametrize("kwargs", [{"name": 123}, {"name": None}, {"reference": 5}])
def test_transistor_refuses_non_string_name_and_reference(kwargs):
    # a report written from such a model could not be read back
    base = {"name": "x", "gm": 0.01, "cgs": 1e-12, "cds": 1e-13}
    with pytest.raises(CatalogError, match="must be a string"):
        TransistorModel(**{**base, **kwargs})


@pytest.mark.parametrize("key", ["name", "reference"])
def test_load_catalog_refuses_non_string_name_and_reference(key):
    entry = {"name": "A", "gm_S": 0.05, "cgs_F": 1e-12, "cds_F": 1e-13, key: 5}
    with pytest.raises(CatalogError, match="must be a string, got 5"):
        load_catalog(json.dumps({"transistors": [entry]}))


@pytest.mark.parametrize(
    "transistors",
    [("x",), [TransistorModel("x", 0.01, 1e-12, 1e-13)], None],
    ids=["tuple of str", "list of models", "None"],
)
def test_catalog_refuses_anything_but_a_tuple_of_models(transistors):
    # a list would leave the catalog unhashable, and a str has no name
    with pytest.raises(CatalogError):
        Catalog(transistors)


def test_transistor_infinite_rds_is_valid():
    assert math.isinf(TransistorModel("x", gm=0.01, cgs=1e-12, cds=1e-13, rds=math.inf).rds)


def test_load_catalog_happy_path():
    cat = load_catalog(GOOD_CATALOG, source="inline")
    assert cat.source == "inline"
    assert len(cat.transistors) == 2
    a = cat.get("A")
    assert a.gm == 0.05 and a.cgs == 1.79e-12 and a.cds == 3.0e-13
    assert a.ri == 0.0 and math.isinf(a.rds)
    b = cat.get("B")
    assert b.ri == 1.0 and b.rds == 200.0 and b.reference == "pHEMT"


def test_load_catalog_rejects_bad_json():
    with pytest.raises(CatalogError):
        load_catalog("{not json")


def test_load_catalog_rejects_wrong_shape():
    with pytest.raises(CatalogError):
        load_catalog('{"devices": []}')
    with pytest.raises(CatalogError):
        load_catalog('{"transistors": {}}')
    with pytest.raises(CatalogError, match="^entry 0 is not an object$"):
        load_catalog('{"transistors": [5]}')


def test_load_catalog_rejects_unknown_keys():
    text = '{"transistors": [{"name": "A", "gm_S": 0.05, "cgs_F": 1e-12, "cds_F": 1e-13, "beta": 2}]}'
    with pytest.raises(CatalogError, match="unknown keys"):
        load_catalog(text)


def test_load_catalog_rejects_missing_keys():
    text = '{"transistors": [{"name": "A", "gm_S": 0.05, "cgs_F": 1e-12}]}'
    with pytest.raises(CatalogError, match="missing"):
        load_catalog(text)


@pytest.mark.parametrize(
    "key, value",
    [
        ("gm_S", math.nan),
        ("cgs_F", math.inf),
        ("cds_F", -math.inf),
        ("ri_ohm", math.nan),
        ("gm_S", True),
        ("cgs_F", False),
        ("rds_ohm", True),
    ],
)
def test_load_catalog_rejects_non_finite_and_boolean_numbers(key, value):
    # json writes these as NaN, Infinity, -Infinity, true and false
    entry = {"name": "A", "gm_S": 0.05, "cgs_F": 1e-12, "cds_F": 1e-13, key: value}
    with pytest.raises(CatalogError):
        load_catalog(json.dumps({"transistors": [entry]}))


def test_load_catalog_rejects_duplicate_names():
    text = """
    {"transistors": [
      {"name": "A", "gm_S": 0.05, "cgs_F": 1e-12, "cds_F": 1e-13},
      {"name": "A", "gm_S": 0.06, "cgs_F": 2e-12, "cds_F": 2e-13}
    ]}
    """
    with pytest.raises(CatalogError, match="duplicate"):
        load_catalog(text)


def test_catalog_get_missing_name():
    cat = load_catalog(GOOD_CATALOG)
    with pytest.raises(CatalogError):
        cat.get("missing")


def test_serialize_round_trip_is_exact():
    """Three entries covering defaulted, partial and fully-specified fields,
    through the codec that catalogs and design reports share."""
    models = (
        TransistorModel("plain", gm=0.05, cgs=1.79e-12, cds=2.9833333333333334e-13),
        TransistorModel("lossy", gm=0.08, cgs=1.4e-13, cds=5e-14, ri=1.0, rds=200.0),
        TransistorModel("tagged", gm=0.003, cgs=1.2384e-13, cds=2e-14, reference="ref [16]"),
    )
    text = json.dumps({"transistors": [transistor_to_entry(t) for t in models]}, indent=2)
    assert load_catalog(text).transistors == models
    entries = json.loads(text)["transistors"]
    assert tuple(transistor_from_entry(e, "entry") for e in entries) == models
    # an infinite rds is omitted, not written
    assert "rds_ohm" not in entries[0] and entries[1]["rds_ohm"] == 200.0


def test_effective_capacitance_no_series_is_identity():
    assert effective_gate_capacitance(1.79e-12) == 1.79e-12


def test_effective_capacitance_series_combination():
    c = effective_gate_capacitance(1.79e-12, 0.3580e-12)
    assert math.isclose(c, 2.983333333333333e-13, rel_tol=1e-12)
    # below both constituents, as any series combination must be
    assert c < 0.3580e-12


def test_effective_capacitance_rejects_nonpositive():
    with pytest.raises(CatalogError):
        effective_gate_capacitance(0.0, 1e-13)
    with pytest.raises(CatalogError):
        effective_gate_capacitance(1e-12, 0.0)
    for cgs, cseries in ((math.nan, None), (math.inf, None), (1e-12, math.nan), (1e-12, math.inf)):
        with pytest.raises(CatalogError):
            effective_gate_capacitance(cgs, cseries)


def test_builtin_table_shape_and_values():
    rows = builtin_table1()
    assert len(rows) == 9
    tags = [r.reference_tag for r in rows]
    assert tags == ["[4]", "[5]", "[9]", "[10]", "[13]", "[14]", "[15]", "[16]", "[17]"]
    caps = [r.effective_capacitance for r in rows]
    assert caps == [20e-15, 97e-15, 0.28e-12, 0.3e-12, 0.3e-12, 0.14e-12, 1.79e-12, 124e-15, 138e-15]
    limits = [r.claimed_limit_hz for r in rows]
    assert limits == [318e9, 65.6e9, 22.7e9, 21.2e9, 21.2e9, 45e9, 3.55e9, 51e9, 46e9]


def test_builtin_table_limits_consistent_with_formula():
    for row in builtin_table1():
        computed = 1.0 / (math.pi * 50.0 * row.effective_capacitance)
        assert math.isclose(computed, row.claimed_limit_hz, rel_tol=0.02), row.reference_tag
