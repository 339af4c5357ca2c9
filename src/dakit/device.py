"""Transistor small-signal data, screening against a target bandwidth, and
the reference device survey with its recomputed limits.

All values are SI (farads, siemens, ohms). A transistor with no output
resistance given is treated as lossless on the drain side (rds = inf),
and ri defaults to 0 for a lossless gate.
"""

from __future__ import annotations

import math

from ._record import Record, in_range, instance_of, positive
from .errors import CatalogError, DesignError
from .ladder import _inverse_pi_product, cutoff_frequency

_ENTRY_KEYS = {"name", "gm_S", "cgs_F", "cds_F", "ri_ohm", "rds_ohm", "reference"}
# the line impedance of the survey's claimed limits (builtin_table1)
_SURVEY_Z0 = 50.0


class TransistorModel(Record):
    """Unilateral FET small-signal model used throughout the toolkit."""

    __slots__ = ("name", "gm", "cgs", "cds", "ri", "rds", "reference")
    _defaults = {"ri": 0.0, "rds": math.inf, "reference": ""}

    def __post_init__(self) -> None:
        name, reference = self.name, self.reference
        if not isinstance(name, str):
            raise CatalogError(f"transistor name must be a string, got {name!r}")
        if not name:
            raise CatalogError(f"transistor name must be non-empty, got {name!r}")
        if not isinstance(reference, str):
            raise CatalogError(f"{name}: reference must be a string, got {reference!r}")
        try:
            positive(self.gm, "gm", CatalogError)
            positive(self.cgs, "cgs", CatalogError)
            positive(self.cds, "cds", CatalogError)
            in_range(self.ri, "ri", CatalogError, ">= 0 and finite")
            in_range(self.rds, "rds", CatalogError, "positive")
        except CatalogError as exc:
            # the name is formatted into a message only when one is raised
            raise CatalogError(f"{name}: {exc}") from None


class Substrate(Record):
    """Board stackup: relative permittivity, height and copper thickness in mm."""

    __slots__ = ("er", "h_mm", "t_mm")
    _defaults = {"t_mm": 0.0}

    def __post_init__(self) -> None:
        in_range(self.er, "relative permittivity", CatalogError, ">= 1 and finite")
        positive(self.h_mm, "substrate height", CatalogError)
        in_range(self.t_mm, "conductor thickness", CatalogError, ">= 0 and finite")


class Catalog(Record):
    """Named collection of transistor models loaded from one source."""

    __slots__ = ("transistors", "source")
    _defaults = {"source": ""}

    def __post_init__(self) -> None:
        transistors = self.transistors
        # a tuple, so that the catalog hashes
        instance_of(transistors, tuple, "transistors", CatalogError)
        seen = set()
        for t in transistors:
            instance_of(t, TransistorModel, "catalog entry", CatalogError)
            if t.name in seen:
                raise CatalogError(f"duplicate transistor name, got {t.name!r}")
            seen.add(t.name)
        instance_of(self.source, str, "catalog source", CatalogError)

    def get(self, name: str) -> TransistorModel:
        for t in self.transistors:
            if t.name == name:
                return t
        raise CatalogError(f"no transistor named {name!r} in catalog")


class VerificationRow(Record):
    """One row of the published-amplifier survey.

    effective_capacitance and claimed_limit_hz are numeric; the remaining
    columns are reference metadata kept as printed, not recomputed.
    """

    __slots__ = (
        "reference_tag",
        "effective_capacitance",
        "claimed_limit_hz",
        "pout_w",
        "pae_pct",
        "gain_db",
        "achieved_band_ghz",
    )
    _defaults = {"pout_w": "", "pae_pct": "", "gain_db": "", "achieved_band_ghz": ""}


class ScreeningResult(Record):
    """Outcome of screening one transistor against a target bandwidth."""

    __slots__ = (
        "name",
        "direct_pass",
        "required_series_cap",
        "resulting_fc",
        "gain_penalty_factor",
        "note",
    )
    _defaults = {"note": ""}


class Table1Check(Record):
    """Recomputed bandwidth limit for one survey row."""

    __slots__ = (
        "tag",
        "effective_capacitance",
        "claimed_limit_hz",
        "computed_limit_hz",
        "rel_error",
    )

    @property
    def passed(self) -> bool:
        return self.rel_error <= 0.02


def load_catalog(text: str, source: str = "") -> Catalog:
    """Parse a JSON transistor catalog.

    Expected shape: {"transistors": [{"name": ..., "gm_S": ..., "cgs_F": ...,
    "cds_F": ..., "ri_ohm"?: ..., "rds_ohm"?: ..., "reference"?: ...}, ...]}.
    Unknown keys are rejected so silent typos cannot change a design.
    """
    # here, not at the top: verify loads device and reads no JSON
    import json

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


def max_capacitance_for_bandwidth(f: float, z0: float = 50.0) -> float:
    """Largest shunt capacitance per cell keeping the cutoff at or above f."""
    positive(f, "frequency", DesignError)
    positive(z0, "impedance", DesignError)
    return _inverse_pi_product(z0, f, "capacitance for {1} Hz at {0} ohm")


def series_cap_for_target(cgs: float, c_eff_target: float) -> tuple[float, float]:
    """Series capacitance producing a given effective load, with gain penalty.

    Solving cs*cgs/(cs+cgs) = target gives cs = target*cgs/(cgs - target);
    the voltage divider leaves a fraction target/cgs of the drive on the
    gate, which is the multiplicative gain penalty.
    """
    positive(cgs, "cgs", DesignError)
    positive(c_eff_target, "target capacitance", DesignError)
    if c_eff_target >= cgs:
        raise DesignError(
            f"target {c_eff_target} F is not below cgs {cgs} F; "
            "a series capacitor can only reduce the effective load"
        )
    cs = c_eff_target * cgs / (cgs - c_eff_target)
    if not 0 < cs < math.inf:
        raise DesignError(
            f"a series capacitor taking cgs {cgs} F to {c_eff_target} F would be {cs} F; "
            "it must be positive and finite"
        )
    return cs, c_eff_target / cgs


def screen_catalog(
    catalog: Catalog,
    f_target: float,
    z0: float = 50.0,
    allow_series: bool = False,
) -> list[ScreeningResult]:
    """Rank catalog devices by the line cutoff they achieve at z0.

    A device whose raw gate loading already meets f_target passes directly.
    Otherwise, when allow_series is set, the series capacitor bringing the
    effective load to the bandwidth limit is computed (at its gain cost);
    devices that still miss the target are kept with a note rather than
    dropped, so the ranking shows the whole field.
    """
    instance_of(catalog, Catalog, "catalog", CatalogError)
    positive(f_target, "target cutoff", DesignError)
    results = []
    for t in catalog.transistors:
        fc = cutoff_frequency(z0, t.cgs)
        if fc >= f_target:
            results.append(ScreeningResult(t.name, True, None, fc, 1.0))
            continue
        if allow_series:
            c_target = max_capacitance_for_bandwidth(f_target, z0)
            cs, penalty = series_cap_for_target(t.cgs, c_target)
            results.append(
                ScreeningResult(
                    t.name,
                    False,
                    cs,
                    cutoff_frequency(z0, c_target),
                    penalty,
                    note="requires series capacitor",
                )
            )
        else:
            results.append(
                ScreeningResult(
                    t.name,
                    False,
                    None,
                    fc,
                    1.0,
                    note="cutoff below target; series capacitor not allowed",
                )
            )
    results.sort(key=lambda r: r.resulting_fc, reverse=True)
    return results


def verify_table1() -> list[Table1Check]:
    """Recompute every survey row's bandwidth limit on 50 ohm lines and
    compare."""
    checks = []
    for row in builtin_table1():
        computed = cutoff_frequency(_SURVEY_Z0, row.effective_capacitance)
        rel = abs(computed - row.claimed_limit_hz) / row.claimed_limit_hz
        checks.append(
            Table1Check(
                tag=row.reference_tag,
                effective_capacitance=row.effective_capacitance,
                claimed_limit_hz=row.claimed_limit_hz,
                computed_limit_hz=computed,
                rel_error=rel,
            )
        )
    return checks
