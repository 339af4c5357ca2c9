"""Transistor small-signal data, screening against a target bandwidth, and
the reference device survey with its recomputed limits.

All values are SI (farads, siemens, ohms). A transistor with no output
resistance given is treated as lossless on the drain side (rds = inf),
and ri defaults to 0 for a lossless gate.
"""

from __future__ import annotations

import json
import math

from ._record import Record, is_number, is_positive_number, set_field
from .errors import CatalogError, DesignError
from .ladder import cutoff_frequency

_ENTRY_KEYS = {"name", "gm_S", "cgs_F", "cds_F", "ri_ohm", "rds_ohm", "reference"}


class TransistorModel(Record):
    """Unilateral FET small-signal model used throughout the toolkit."""

    __slots__ = ("name", "gm", "cgs", "cds", "ri", "rds", "reference")

    def __init__(
        self,
        name: str,
        gm: float,
        cgs: float,
        cds: float,
        ri: float = 0.0,
        rds: float = math.inf,
        reference: str = "",
    ) -> None:
        if not name:
            raise CatalogError("transistor name must be non-empty")
        # written as "not in range" so that NaN, which fails every
        # comparison, is rejected too; a float, the usual value, is checked
        # without a call, and anything else must be an int or a float
        inf = math.inf
        if not (type(gm) is float and 0.0 < gm < inf or is_positive_number(gm)):
            raise CatalogError(f"{name}: gm must be positive and finite, got {gm!r}")
        if not (type(cgs) is float and 0.0 < cgs < inf or is_positive_number(cgs)):
            raise CatalogError(f"{name}: cgs must be positive and finite, got {cgs!r}")
        if not (type(cds) is float and 0.0 < cds < inf or is_positive_number(cds)):
            raise CatalogError(f"{name}: cds must be positive and finite, got {cds!r}")
        if not ((type(ri) is float or is_number(ri)) and 0 <= ri < inf):
            raise CatalogError(f"{name}: ri must be >= 0 and finite, got {ri!r}")
        if not ((type(rds) is float or is_number(rds)) and 0 < rds <= inf):
            raise CatalogError(f"{name}: rds must be positive, got {rds!r}")
        set_field(self, "name", name)
        set_field(self, "gm", gm)
        set_field(self, "cgs", cgs)
        set_field(self, "cds", cds)
        set_field(self, "ri", ri)
        set_field(self, "rds", rds)
        set_field(self, "reference", reference)


class Substrate(Record):
    """Board stackup: relative permittivity, height and copper thickness in mm."""

    __slots__ = ("er", "h_mm", "t_mm")

    def __init__(self, er: float, h_mm: float, t_mm: float = 0.0) -> None:
        inf = math.inf
        if not ((type(er) is float or is_number(er)) and 1 <= er < inf):
            raise CatalogError(f"relative permittivity must be >= 1 and finite, got {er!r}")
        if not (type(h_mm) is float and 0.0 < h_mm < inf or is_positive_number(h_mm)):
            raise CatalogError(f"substrate height must be positive and finite, got {h_mm!r}")
        if not ((type(t_mm) is float or is_number(t_mm)) and 0 <= t_mm < inf):
            raise CatalogError(f"conductor thickness must be >= 0 and finite, got {t_mm!r}")
        set_field(self, "er", er)
        set_field(self, "h_mm", h_mm)
        set_field(self, "t_mm", t_mm)


class Catalog(Record):
    """Named collection of transistor models loaded from one source."""

    __slots__ = ("transistors", "source")

    def __init__(self, transistors: tuple[TransistorModel, ...], source: str = "") -> None:
        seen = set()
        for t in transistors:
            if t.name in seen:
                raise CatalogError(f"duplicate transistor name: {t.name!r}")
            seen.add(t.name)
        set_field(self, "transistors", transistors)
        set_field(self, "source", source)

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

    def __init__(
        self,
        reference_tag: str,
        effective_capacitance: float,
        claimed_limit_hz: float,
        pout_w: str = "",
        pae_pct: str = "",
        gain_db: str = "",
        achieved_band_ghz: str = "",
    ) -> None:
        set_field(self, "reference_tag", reference_tag)
        set_field(self, "effective_capacitance", effective_capacitance)
        set_field(self, "claimed_limit_hz", claimed_limit_hz)
        set_field(self, "pout_w", pout_w)
        set_field(self, "pae_pct", pae_pct)
        set_field(self, "gain_db", gain_db)
        set_field(self, "achieved_band_ghz", achieved_band_ghz)


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

    def __init__(
        self,
        name: str,
        direct_pass: bool,
        required_series_cap: float | None,
        resulting_fc: float,
        gain_penalty_factor: float,
        note: str = "",
    ) -> None:
        set_field(self, "name", name)
        set_field(self, "direct_pass", direct_pass)
        set_field(self, "required_series_cap", required_series_cap)
        set_field(self, "resulting_fc", resulting_fc)
        set_field(self, "gain_penalty_factor", gain_penalty_factor)
        set_field(self, "note", note)


class Table1Check(Record):
    """Recomputed bandwidth limit for one survey row."""

    __slots__ = (
        "tag",
        "effective_capacitance",
        "claimed_limit_hz",
        "computed_limit_hz",
        "rel_error",
    )

    def __init__(
        self,
        tag: str,
        effective_capacitance: float,
        claimed_limit_hz: float,
        computed_limit_hz: float,
        rel_error: float,
    ) -> None:
        set_field(self, "tag", tag)
        set_field(self, "effective_capacitance", effective_capacitance)
        set_field(self, "claimed_limit_hz", claimed_limit_hz)
        set_field(self, "computed_limit_hz", computed_limit_hz)
        set_field(self, "rel_error", rel_error)

    @property
    def passed(self) -> bool:
        return self.rel_error <= 0.02


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


def max_capacitance_for_bandwidth(f: float, z0: float = 50.0) -> float:
    """Largest shunt capacitance per cell keeping the cutoff at or above f."""
    if not (0 < f < math.inf and 0 < z0 < math.inf):
        raise DesignError(
            f"frequency and impedance must be positive and finite, got {f} and {z0}"
        )
    product = math.pi * z0 * f
    # as in cutoff_frequency: 0, inf, or a subnormal whose reciprocal is inf
    if not (0 < product < math.inf and 1.0 / product < math.inf):
        raise DesignError(f"capacitance for {f} Hz at {z0} ohm is out of range")
    return 1.0 / product


def series_cap_for_target(cgs: float, c_eff_target: float) -> tuple[float, float]:
    """Series capacitance producing a given effective load, with gain penalty.

    Solving cs*cgs/(cs+cgs) = target gives cs = target*cgs/(cgs - target);
    the voltage divider leaves a fraction target/cgs of the drive on the
    gate, which is the multiplicative gain penalty.
    """
    if not (0 < cgs < math.inf and 0 < c_eff_target < math.inf):
        raise DesignError(
            f"capacitances must be positive and finite, got {cgs} and {c_eff_target}"
        )
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
    catalog,
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
    if not 0 < f_target < math.inf:
        raise DesignError(f"target cutoff must be positive and finite, got {f_target}")
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


def verify_table1(z0: float = 50.0) -> list[Table1Check]:
    """Recompute every survey row's bandwidth limit and compare."""
    checks = []
    for row in builtin_table1():
        computed = cutoff_frequency(z0, row.effective_capacitance)
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
