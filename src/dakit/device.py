"""Transistor small-signal data and the reference device survey.

All values are SI (farads, siemens, ohms). A transistor with no output
resistance given is treated as lossless on the drain side (rds = inf),
and ri defaults to 0 for a lossless gate.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .errors import CatalogError

_ENTRY_KEYS = {"name", "gm_S", "cgs_F", "cds_F", "ri_ohm", "rds_ohm", "reference"}


@dataclass(frozen=True)
class TransistorModel:
    """Unilateral FET small-signal model used throughout the toolkit."""

    name: str
    gm: float
    cgs: float
    cds: float
    ri: float = 0.0
    rds: float = math.inf
    reference: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise CatalogError("transistor name must be non-empty")
        # written as "not in range" so that NaN, which fails every
        # comparison, is rejected too
        if not 0 < self.gm < math.inf:
            raise CatalogError(f"{self.name}: gm must be positive and finite, got {self.gm}")
        if not 0 < self.cgs < math.inf:
            raise CatalogError(f"{self.name}: cgs must be positive and finite, got {self.cgs}")
        if not 0 < self.cds < math.inf:
            raise CatalogError(f"{self.name}: cds must be positive and finite, got {self.cds}")
        if not 0 <= self.ri < math.inf:
            raise CatalogError(f"{self.name}: ri must be >= 0 and finite, got {self.ri}")
        if not 0 < self.rds <= math.inf:
            raise CatalogError(f"{self.name}: rds must be positive, got {self.rds}")


@dataclass(frozen=True)
class Substrate:
    """Board stackup: relative permittivity, height and copper thickness in mm."""

    er: float
    h_mm: float
    t_mm: float = 0.0

    def __post_init__(self) -> None:
        if not 1 <= self.er < math.inf:
            raise CatalogError(f"relative permittivity must be >= 1 and finite, got {self.er}")
        if not 0 < self.h_mm < math.inf:
            raise CatalogError(f"substrate height must be positive and finite, got {self.h_mm}")
        if not 0 <= self.t_mm < math.inf:
            raise CatalogError(f"conductor thickness must be >= 0 and finite, got {self.t_mm}")


@dataclass(frozen=True)
class Catalog:
    """Named collection of transistor models loaded from one source."""

    transistors: tuple[TransistorModel, ...]
    source: str = ""

    def __post_init__(self) -> None:
        seen = set()
        for t in self.transistors:
            if t.name in seen:
                raise CatalogError(f"duplicate transistor name: {t.name!r}")
            seen.add(t.name)

    def get(self, name: str) -> TransistorModel:
        for t in self.transistors:
            if t.name == name:
                return t
        raise CatalogError(f"no transistor named {name!r} in catalog")


@dataclass(frozen=True)
class VerificationRow:
    """One row of the published-amplifier survey.

    effective_capacitance and claimed_limit_hz are numeric; the remaining
    columns are reference metadata kept as printed, not recomputed.
    """

    reference_tag: str
    effective_capacitance: float
    claimed_limit_hz: float
    pout_w: str = ""
    pae_pct: str = ""
    gain_db: str = ""
    achieved_band_ghz: str = ""


def load_catalog(text: str, source: str = "") -> Catalog:
    """Parse a JSON transistor catalog.

    Expected shape: {"transistors": [{"name": ..., "gm_S": ..., "cgs_F": ...,
    "cds_F": ..., "ri_ohm"?: ..., "rds_ohm"?: ..., "reference"?: ...}, ...]}.
    Unknown keys are rejected so silent typos cannot change a design.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CatalogError(f"catalog is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise CatalogError("catalog JSON is nested too deeply to read") from exc
    if not isinstance(doc, dict) or set(doc) != {"transistors"}:
        raise CatalogError('catalog must be an object with a single "transistors" array')
    entries = doc["transistors"]
    if not isinstance(entries, list):
        raise CatalogError('"transistors" must be an array')
    models = tuple(transistor_from_entry(e, f"entry {i}") for i, e in enumerate(entries))
    return Catalog(transistors=models, source=source)


def serialize_catalog(catalog: Catalog) -> str:
    """Render a catalog back to its JSON form.

    load_catalog(serialize_catalog(c)) reproduces c exactly.
    """
    entries = [transistor_to_entry(t) for t in catalog.transistors]
    return json.dumps({"transistors": entries}, indent=2)


def transistor_from_entry(entry: object, where: str) -> TransistorModel:
    """Validate one catalog entry (a decoded JSON object) into a model.

    where names the entry in error messages. Catalogs and design reports
    both read their transistors through here.
    """
    if not isinstance(entry, dict):
        raise CatalogError(f"{where} is not an object")
    unknown = set(entry) - _ENTRY_KEYS
    if unknown:
        raise CatalogError(f"{where}: unknown keys {sorted(unknown)}")
    missing = {"name", "gm_S", "cgs_F", "cds_F"} - set(entry)
    if missing:
        raise CatalogError(f"{where}: missing keys {sorted(missing)}")
    if not isinstance(entry["name"], str):
        raise CatalogError(f"{where}: name must be a string")
    if not isinstance(entry.get("reference", ""), str):
        raise CatalogError(f"{where}: reference must be a string")
    return TransistorModel(
        name=entry["name"],
        gm=json_number(entry["gm_S"], where, "gm_S"),
        cgs=json_number(entry["cgs_F"], where, "cgs_F"),
        cds=json_number(entry["cds_F"], where, "cds_F"),
        ri=json_number(entry.get("ri_ohm", 0.0), where, "ri_ohm"),
        rds=json_number(entry.get("rds_ohm", math.inf), where, "rds_ohm"),
        reference=entry.get("reference", ""),
    )


def transistor_to_entry(t: TransistorModel) -> dict:
    """The catalog entry of a model; an infinite rds is expressed by
    omitting rds_ohm, matching transistor_from_entry's default."""
    entry: dict = {"name": t.name, "gm_S": t.gm, "cgs_F": t.cgs, "cds_F": t.cds}
    entry["ri_ohm"] = t.ri
    if math.isfinite(t.rds):
        entry["rds_ohm"] = t.rds
    entry["reference"] = t.reference
    return entry


def json_number(value: object, where: str, key: str) -> float:
    """A decoded JSON number as a float; range checks are the caller's."""
    # exact types: json gives bool for true/false, and bool is an int
    if type(value) not in (int, float):
        raise CatalogError(f"{where}: {key} must be a number, got {value!r}")
    return float(value)


def effective_gate_capacitance(cgs: float, cseries: float | None = None) -> float:
    """Input capacitance seen by the gate line.

    A capacitor placed in series with the gate reduces the loading to the
    series combination cseries*cgs/(cseries+cgs); with no series element
    the line sees cgs itself.
    """
    if not 0 < cgs < math.inf:
        raise CatalogError(f"cgs must be positive and finite, got {cgs}")
    if cseries is None:
        return cgs
    if not 0 < cseries < math.inf:
        raise CatalogError(f"series capacitance must be positive and finite, got {cseries}")
    return cseries * cgs / (cseries + cgs)


def builtin_table1() -> tuple[VerificationRow, ...]:
    """Survey of published distributed amplifiers with their input-capacitance
    bandwidth limits on 50 ohm lines.

    The row with 1.79 pF belongs to the packaged GaN device used for the
    worked designs elsewhere in this package; its drain capacitance is a
    sixth of the gate capacitance.
    """
    rows = [
        ("[4]", 20e-15, 318e9, "0.06", "12.5", "10.5", "1-160"),
        ("[5]", 97e-15, 65.6e9, "0.12", "14.5", "18.3", "12-46"),
        ("[9]", 0.28e-12, 22.7e9, "0.02", "5-22", "7-13", "1-10"),
        ("[10]", 0.3e-12, 21.2e9, "10.6-24.3", "15.5-26.6", "15.3-23.2", "6-18"),
        ("[13]", 0.3e-12, 21.2e9, "14.5-26.3", "13.2-23.7", "17-21", "6-18"),
        ("[14]", 0.14e-12, 45e9, "0.015", "4-10.6", "9.8", "1-15.2"),
        ("[15]", 1.79e-12, 3.55e9, "13", "27", "22", "DC-3.4"),
        ("[16]", 124e-15, 51e9, "1.26-2.19", "9.4-16.8", "3-5.5", "5-38"),
        ("[17]", 138e-15, 46e9, "0.088", "6", "22", "14-34"),
    ]
    return tuple(VerificationRow(*row) for row in rows)
