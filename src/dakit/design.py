"""Design synthesis and the design report codec: device + board + options
in, a design report and its JSON text out, and back.

The flow mirrors how the amplifier is actually sized by hand (a tapered
design realizes its section strips first, so that a board which cannot
make them is refused before the rest is sized):

1. settle the gate loading (optionally behind a series capacitor),
2. pick the stage count (requested, loss-optimal, or the default 4),
3. size both line cells at the system impedance,
4. realize each cell inductance as a strip of microstrip,
5. evaluate gain figures, velocity alignment and the predicted band,
6. optionally step the line impedances and re-evaluate the band.

Reports serialize to design_report_v2: the inputs (transistor, substrate,
options) and every derived figure. Loading one synthesizes it again from
its inputs and refuses it, naming the field, if a stored float is more
than a relative 1e-9 from the fresh one or any other field differs. A
design_report_v1 holds no options and is refused too: re-run `dakit
design ... --out` to write the report again.

Screening a catalog against a target cutoff and the survey check live in
device, next to the data they read.
"""

from __future__ import annotations

import json
import math

from . import device, gain as gain_mod, ladder, microstrip, taper as taper_mod
from ._record import Record, is_positive_number, set_field
from .device import Substrate, TransistorModel, series_cap_for_target

# screening and the survey live in device; the names stay bound here too,
# where bench/spans.py traces them as design.screen_catalog and
# design.verify_table1
from .device import screen_catalog, verify_table1  # noqa: F401
from .errors import DakitError, DesignError
from .gain import GainFigures
from .ladder import LineCell
from .microstrip import MicrostripLine
from .taper import TaperProfile, TaperReport

MATCH_DRAIN = "match-drain"
_SCHEMA = "design_report_v2"

_DEFAULT_STAGES = 4
_REL_TOL = 1e-9  # relative slack of a stored float against a fresh synthesis


class DesignOptions(Record):
    """Knobs for synthesize_design and predict_bandwidth.

    series_cap is None (no series capacitor), a capacitance in farads, or
    the string "match-drain" to equalize the two line loadings. taper is
    None, "ginzton" for the declining-impedance profile, or an explicit
    (gate, drain) TaperProfile pair. design_frequency_hz defaults to half
    the uniform gate cutoff and only matters when the device has losses.
    """

    __slots__ = (
        "system_impedance",
        "stages",
        "taper",
        "series_cap",
        "include_microstrip_parasitics",
        "design_frequency_hz",
    )

    def __init__(
        self,
        system_impedance: float = 50.0,
        stages: int | None = None,
        taper: object = None,
        series_cap: object = None,
        include_microstrip_parasitics: bool = False,
        design_frequency_hz: float | None = None,
    ) -> None:
        z0, n, pair, cap = system_impedance, stages, taper, series_cap
        if not is_positive_number(z0):
            raise DesignError(f"system impedance must be positive and finite, got {z0!r}")
        if n is not None and (isinstance(n, bool) or not isinstance(n, int) or n < 1):
            raise DesignError(f"stages must be a positive integer, got {n!r}")
        if not (pair in (None, "ginzton") or _is_profile_pair(pair)):
            raise DesignError(f"taper must be None, 'ginzton' or a (gate, drain) pair: {pair!r}")
        if not (cap in (None, MATCH_DRAIN) or is_positive_number(cap)):
            raise DesignError(f"series_cap must be None, {MATCH_DRAIN!r} or farads, got {cap!r}")
        if not isinstance(include_microstrip_parasitics, bool):
            raise DesignError("include_microstrip_parasitics must be True or False")
        f = design_frequency_hz
        if not (f is None or is_positive_number(f)):
            raise DesignError(f"design frequency must be positive and finite, got {f!r}")
        set_field(self, "system_impedance", system_impedance)
        set_field(self, "stages", stages)
        set_field(self, "taper", taper)
        set_field(self, "series_cap", series_cap)
        set_field(self, "include_microstrip_parasitics", include_microstrip_parasitics)
        set_field(self, "design_frequency_hz", design_frequency_hz)


class DesignReport(Record):
    """Complete synthesis result for one device on one board, with the
    options it was synthesized under."""

    __slots__ = (
        "transistor",
        "options",
        "effective_cgs",
        "series_capacitor",
        "gain_penalty_factor",
        "stages",
        "gate_cell",
        "drain_cell",
        "gate_line",
        "drain_line",
        "velocity_mismatch",
        "phase_per_cell_gate",
        "phase_per_cell_drain",
        "design_frequency_hz",
        "gains",
        "taper",
        "taper_gate_profile",
        "taper_drain_profile",
        "gate_section_lines",
        "drain_section_lines",
        "predicted_fc",
    )

    def __init__(
        self,
        transistor: TransistorModel,
        options: DesignOptions,
        effective_cgs: float,
        series_capacitor: float | None,
        gain_penalty_factor: float,
        stages: int,
        gate_cell: LineCell,
        drain_cell: LineCell,
        gate_line: MicrostripLine,
        drain_line: MicrostripLine,
        velocity_mismatch: float,
        phase_per_cell_gate: float,
        phase_per_cell_drain: float,
        design_frequency_hz: float,
        gains: GainFigures,
        taper: TaperReport | None,
        taper_gate_profile: TaperProfile | None,
        taper_drain_profile: TaperProfile | None,
        gate_section_lines: tuple[MicrostripLine, ...] | None,
        drain_section_lines: tuple[MicrostripLine, ...] | None,
        predicted_fc: float,
    ) -> None:
        set_field(self, "transistor", transistor)
        set_field(self, "options", options)
        set_field(self, "effective_cgs", effective_cgs)
        set_field(self, "series_capacitor", series_capacitor)
        set_field(self, "gain_penalty_factor", gain_penalty_factor)
        set_field(self, "stages", stages)
        set_field(self, "gate_cell", gate_cell)
        set_field(self, "drain_cell", drain_cell)
        set_field(self, "gate_line", gate_line)
        set_field(self, "drain_line", drain_line)
        set_field(self, "velocity_mismatch", velocity_mismatch)
        set_field(self, "phase_per_cell_gate", phase_per_cell_gate)
        set_field(self, "phase_per_cell_drain", phase_per_cell_drain)
        set_field(self, "design_frequency_hz", design_frequency_hz)
        set_field(self, "gains", gains)
        set_field(self, "taper", taper)
        set_field(self, "taper_gate_profile", taper_gate_profile)
        set_field(self, "taper_drain_profile", taper_drain_profile)
        set_field(self, "gate_section_lines", gate_section_lines)
        set_field(self, "drain_section_lines", drain_section_lines)
        set_field(self, "predicted_fc", predicted_fc)

    @property
    def system_impedance(self) -> float:
        return self.gate_cell.z0


def predict_bandwidth(t: TransistorModel, options: DesignOptions | None = None) -> float:
    """Cutoff of the full amplifier under the given options.

    Uniform lines: the lower of the gate and drain cell cutoffs. Tapered
    lines: the re-evaluated cutoff at the equivalent impedances.
    """
    options = options or DesignOptions()
    z0 = options.system_impedance
    c_eff, *_, profiles = _resolve(t, options)
    if profiles is None:
        return min(ladder.cutoff_frequency(z0, c_eff), ladder.cutoff_frequency(z0, t.cds))
    return taper_mod.analyze_taper(*profiles, c_eff, t.cds).fc_total


def synthesize_design(
    t: TransistorModel,
    substrate: Substrate,
    options: DesignOptions | None = None,
) -> DesignReport:
    """Produce the full design report for one device on one board."""
    options = options or DesignOptions()
    z0 = options.system_impedance
    c_eff, cseries, penalty, f_design, ag, ad, n_opt, n, profiles = _resolve(t, options)

    gate_profile, drain_profile = profiles or (None, None)
    taper_report = gate_strips = drain_strips = None
    if profiles is not None:
        # the drain sections first of all: their n*z0 needs the narrowest
        # strips, so a board that cannot realize one is refused before any
        # other strip is built or the taper analysed
        drain_strips = tuple(
            _cell_and_strip(zk, substrate, t.cds, options)[1] for zk in drain_profile.sections
        )
        gate_strips = tuple(
            _cell_and_strip(zk, substrate, c_eff, options)[1] for zk in gate_profile.sections
        )
        taper_report = taper_mod.analyze_taper(gate_profile, drain_profile, c_eff, t.cds)

    gate_cell, gate_line = _cell_and_strip(z0, substrate, c_eff, options)
    drain_cell, drain_line = _cell_and_strip(z0, substrate, t.cds, options)

    phase_g, phase_d = (
        microstrip.phase_shift(line.length_cm, f_design, line.l_nh_per_cm, line.c_pf_per_cm)
        for line in (gate_line, drain_line)
    )

    gm_eff = t.gm * penalty
    gains = GainFigures(
        av=gain_mod.voltage_gain(gm_eff, z0, n),
        gp_lossless=gain_mod.power_gain_lossless(gm_eff, z0, z0, n),
        gp_lossy=gain_mod.power_gain_lossy(gm_eff, z0, z0, ag, ad, n),
        n_opt_continuous=n_opt,
        n_recommended=gain_mod.recommended_n(n_opt),
    )

    if taper_report is not None:
        predicted = taper_report.fc_total
    else:
        predicted = min(gate_cell.fc, drain_cell.fc)

    return DesignReport(
        transistor=t,
        options=options,
        effective_cgs=c_eff,
        series_capacitor=cseries,
        gain_penalty_factor=penalty,
        stages=n,
        gate_cell=gate_cell,
        drain_cell=drain_cell,
        gate_line=gate_line,
        drain_line=drain_line,
        velocity_mismatch=_velocity_mismatch(gate_cell, drain_cell),
        phase_per_cell_gate=phase_g,
        phase_per_cell_drain=phase_d,
        design_frequency_hz=f_design,
        gains=gains,
        taper=taper_report,
        taper_gate_profile=gate_profile,
        taper_drain_profile=drain_profile,
        gate_section_lines=gate_strips,
        drain_section_lines=drain_strips,
        predicted_fc=predicted,
    )


def report_to_json(report: DesignReport) -> str:
    """Serialize a report to the design_report_v2 layout.

    Infinities never reach the file: an infinite rds is omitted (catalog
    convention) and an unbounded n_opt becomes null. The text is
    json.dumps(doc, indent=2, allow_nan=False) byte for byte.
    """
    out: list[str] = []
    _write_json(_report_doc(report), out, "\n")
    return "".join(out)


_escape = json.encoder.encode_basestring_ascii


def _write_json(value: object, out: list[str], newline: str) -> None:
    """Append json.dumps(value, indent=2, allow_nan=False) to out, with str
    keys only. Any indented dump takes json's pure-Python encoder; this one
    appends to a list instead of chaining generators. Types are tested in
    json's order, so int and float subclasses (numpy.float64) encode as
    json encodes them."""
    if type(value) is float and value - value == 0.0:  # a finite float
        out.append(float.__repr__(value))
    elif isinstance(value, str):
        out.append(_escape(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
        out.append(float.__repr__(value))
    elif isinstance(value, (list, tuple)):
        inner, sep = newline + "  ", "["
        for item in value:
            out.append(sep + inner)
            _write_json(item, out, inner)
            sep = ","
        out.append(newline + "]" if value else "[]")
    elif isinstance(value, dict):
        inner, sep = newline + "  ", "{"
        for key, item in value.items():
            out.append(f"{sep}{inner}{_escape(key)}: ")
            _write_json(item, out, inner)
            sep = ","
        out.append(newline + "}" if value else "{}")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def report_from_json(text: str) -> DesignReport:
    """Synthesize a report again from its stored inputs and return it, after
    checking the stored figures against it (see the module docstring)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DesignError(f"report is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise DesignError("report JSON is nested too deeply to read") from exc
    schema = doc.get("schema") if isinstance(doc, dict) else None
    if schema == "design_report_v1":
        raise DesignError("design_report_v1 is no longer read; re-run `dakit design ... --out`")
    if schema != _SCHEMA:
        raise DesignError(f'not a {_SCHEMA} document (missing/incorrect "schema")')
    try:
        sub = doc["substrate"]
        substrate = Substrate(
            *(device.json_number(sub[k], "substrate", k) for k in ("er", "h_mm", "t_mm"))
        )
        t = device.transistor_from_entry(doc["transistor"], "transistor")
        report = synthesize_design(t, substrate, _options_from_doc(doc["options"]))
    except DakitError:
        # already a domain error with its own message (DakitError is a ValueError)
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        # a missing field, a wrong JSON type, or an integer too large for a float
        raise DesignError(f"malformed {_SCHEMA} document: {exc!r}") from exc
    fresh = _report_doc(report)
    if fresh != doc:
        _check_same(doc, fresh, "")
    return report


def _report_doc(report: DesignReport) -> dict:
    sub = report.gate_line.substrate
    gains = report.gains
    doc: dict = {
        "schema": _SCHEMA,
        "transistor": device.transistor_to_entry(report.transistor),
        "substrate": {"er": sub.er, "h_mm": sub.h_mm, "t_mm": sub.t_mm},
        "options": _options_doc(report.options),
        "effective_cgs_F": report.effective_cgs,
        "series_capacitor_F": report.series_capacitor,
        "gain_penalty": report.gain_penalty_factor,
        "gate_cell": _cell_doc(report.gate_cell),
        "drain_cell": _cell_doc(report.drain_cell),
        "gate_line": {"w_mm": report.gate_line.width_mm, "len_cm": report.gate_line.length_cm},
        "drain_line": {"w_mm": report.drain_line.width_mm, "len_cm": report.drain_line.length_cm},
        "velocity_mismatch": report.velocity_mismatch,
        "phase_per_cell_gate_rad": report.phase_per_cell_gate,
        "phase_per_cell_drain_rad": report.phase_per_cell_drain,
        "design_frequency_hz": report.design_frequency_hz,
        "gains": {
            "av": gains.av,
            "gp_lossless": gains.gp_lossless,
            "gp_lossy": gains.gp_lossy,
            "n_opt": gains.n_opt_continuous if math.isfinite(gains.n_opt_continuous) else None,
            "n": report.stages,
        },
        "taper": None,
        "predicted_fc_Hz": report.predicted_fc,
    }
    if report.taper is not None:
        doc["taper"] = {
            "gamma_g": report.taper.gamma_gate,
            "gamma_d": report.taper.gamma_drain,
            "z_g_ohm": report.taper.z_gate,
            "z_d_ohm": report.taper.z_drain,
            "fc_g_Hz": report.taper.fc_gate,
            "fc_d_Hz": report.taper.fc_drain,
            "sections_g_ohm": list(report.taper_gate_profile.sections),
            "sections_d_ohm": list(report.taper_drain_profile.sections),
        }
    return doc


def _cell_doc(cell: LineCell) -> dict:
    return {"l_H": cell.inductance, "c_F": cell.capacitance, "z0_ohm": cell.z0, "fc_Hz": cell.fc}


def _options_doc(options: DesignOptions) -> dict:
    taper = options.taper
    if isinstance(taper, tuple):
        taper = {
            p.side: {"sections_ohm": list(p.sections), "terminal_ohm": p.terminal_impedance}
            for p in taper
        }
    return {
        "system_impedance_ohm": options.system_impedance,
        "stages": options.stages,
        "series_cap": options.series_cap,
        "taper": taper,
        "include_microstrip_parasitics": options.include_microstrip_parasitics,
        "design_frequency_hz": options.design_frequency_hz,
    }


def _options_from_doc(doc: dict) -> DesignOptions:
    # DesignOptions and TaperProfile check every value; json_number names
    # the field of a bad profile impedance
    taper = doc["taper"]
    if isinstance(taper, dict):
        num = device.json_number
        taper = tuple(
            TaperProfile(
                side,
                tuple(num(z, "options.taper", side) for z in taper[side]["sections_ohm"]),
                num(taper[side]["terminal_ohm"], "options.taper", side),
            )
            for side in (taper_mod.GATE, taper_mod.DRAIN)
        )
    return DesignOptions(
        system_impedance=doc["system_impedance_ohm"],
        stages=doc["stages"],
        taper=taper,
        series_cap=doc["series_cap"],
        include_microstrip_parasitics=doc["include_microstrip_parasitics"],
        design_frequency_hz=doc["design_frequency_hz"],
    )


def _check_same(stored: object, fresh: object, path: str) -> None:
    """Raise DesignError at the first field where a stored document departs
    from the fresh one: floats by more than _REL_TOL, anything else at all.
    Values compare as the fast path's == does, so 4.0 stands for 4."""
    if isinstance(fresh, dict) and isinstance(stored, dict):
        odd = stored.keys() ^ fresh.keys()
        if odd:
            raise DesignError(f"{path or 'report'} has unexpected or missing keys {sorted(odd)}")
        for key, value in fresh.items():
            _check_same(stored[key], value, f"{path}.{key}" if path else key)
        return
    if isinstance(fresh, list) and isinstance(stored, list) and len(stored) == len(fresh):
        for i, (s, f) in enumerate(zip(stored, fresh)):
            _check_same(s, f, f"{path}[{i}]")
        return
    if type(fresh) is float:
        if isinstance(stored, (int, float)) and math.isclose(stored, fresh, rel_tol=_REL_TOL):
            return
    elif stored == fresh:
        return
    raise DesignError(
        f"report field {path} is {stored!r}, but its inputs synthesize {fresh!r}; "
        "the report was edited or written by another version"
    )


def _resolve(t: TransistorModel, options: DesignOptions):
    """The option-dependent quantities synthesis and prediction share.

    Returns (effective cgs, series capacitor or None, gain penalty, design
    frequency, gate and drain loss per cell, continuous optimum stage count,
    stage count, (gate, drain) taper profiles or None).
    """
    z0 = options.system_impedance
    policy = options.series_cap
    if policy is None:
        c_eff, cseries, penalty = t.cgs, None, 1.0
    elif policy == MATCH_DRAIN:
        if t.cds >= t.cgs:
            raise DesignError(
                f"{t.name}: cds {t.cds} F is not below cgs {t.cgs} F; "
                "the drain loading cannot be matched with a series capacitor"
            )
        cseries, penalty = series_cap_for_target(t.cgs, t.cds)
        # effective load is the match target itself, kept exact so the two
        # lines come out identical
        c_eff = t.cds
    else:
        cseries = float(policy)
        c_eff = device.effective_gate_capacitance(t.cgs, cseries)
        penalty = c_eff / t.cgs

    f_design = options.design_frequency_hz
    if f_design is None:
        f_design = 0.5 * ladder.cutoff_frequency(z0, c_eff)

    ag = ladder.gate_loss_per_cell(f_design, t.ri, c_eff, z0)
    ad = ladder.drain_loss_per_cell(z0, t.rds)
    n_opt = gain_mod.n_opt_from_losses(ag, ad)
    if options.stages is not None:
        n = options.stages
    elif math.isfinite(n_opt):
        n = gain_mod.recommended_n(n_opt)
    else:
        n = _DEFAULT_STAGES

    if options.taper is None:
        return c_eff, cseries, penalty, f_design, ag, ad, n_opt, n, None
    if options.taper == "ginzton":
        gate, drain = taper_mod.ginzton_profiles(n, z0)
    else:
        gate, drain = options.taper
    if len(drain.sections) != n or len(gate.sections) not in (n, n + 1):
        raise DesignError(
            f"taper profiles have {len(gate.sections)} gate and {len(drain.sections)} drain "
            f"sections for {n} stages (expected n or n+1, and n)"
        )
    return c_eff, cseries, penalty, f_design, ag, ad, n_opt, n, (gate, drain)


def _is_profile_pair(pair: object) -> bool:
    return (
        isinstance(pair, tuple)
        and len(pair) == 2
        and all(isinstance(p, TaperProfile) for p in pair)
        and (pair[0].side, pair[1].side) == (taper_mod.GATE, taper_mod.DRAIN)
    )


def _cell_and_strip(
    z0: float,
    substrate: Substrate,
    c_load: float,
    options: DesignOptions,
) -> tuple[LineCell, MicrostripLine]:
    """Size one cell and its strip, optionally folding in the strip's own
    capacitance (a single correction pass; the updated strip is not
    re-corrected)."""
    cell = ladder.cell_for_impedance(z0, c_load)
    if options.include_microstrip_parasitics:
        # the uncorrected strip's capacitance, from its constants and length
        l_nh, c_pf = microstrip.line_constants(z0, substrate.er)
        c_par = c_pf * 1e-12 * microstrip.segment_length(cell.inductance, l_nh)
        cell = ladder.cell_for_impedance(z0, c_load + c_par)
    return cell, microstrip.synthesize_strip(z0, substrate, cell.inductance)


def _velocity_mismatch(gate_cell: LineCell, drain_cell: LineCell) -> float:
    """Fractional spread of per-cell delays, 0 when the lines run in step.

    Uses the fourth root of the LC-product ratio, the square root of the
    per-cell delay ratio: two same-impedance lines whose capacitances
    differ by a factor r report 1 - sqrt(r).
    """
    lc_g = gate_cell.inductance * gate_cell.capacitance
    lc_d = drain_cell.inductance * drain_cell.capacitance
    if lc_g == lc_d:
        return 0.0
    ratio = min(lc_g, lc_d) / max(lc_g, lc_d)
    return 1.0 - ratio**0.25
