"""End-to-end synthesis: device + board + options in, build report out.

The flow mirrors how the amplifier is actually sized by hand:

1. settle the gate loading (optionally behind a series capacitor),
2. pick the stage count (requested, loss-optimal, or the default 4),
3. size both line cells at the system impedance,
4. realize each cell inductance as a strip of microstrip,
5. evaluate gain figures, velocity alignment and the predicted band,
6. optionally step the line impedances and re-evaluate the band.

Reports serialize to a stable JSON layout (design_report_v1) carrying
everything needed to rebuild the simulation network from file.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from . import gain as gain_mod
from . import ladder, microstrip, taper as taper_mod
from .device import Substrate, TransistorModel, builtin_table1
from .errors import DakitError, DesignError
from .gain import GainFigures
from .ladder import LineCell
from .microstrip import MicrostripLine
from .taper import TaperProfile, TaperReport

MATCH_DRAIN = "match-drain"

_DEFAULT_STAGES = 4


@dataclass(frozen=True)
class DesignOptions:
    """Knobs for synthesize_design and predict_bandwidth.

    series_cap is None (no series capacitor), a capacitance in farads, or
    the string "match-drain" to equalize the two line loadings. taper is
    None, "ginzton" for the declining-impedance profile, or an explicit
    (gate, drain) TaperProfile pair. design_frequency_hz defaults to half
    the uniform gate cutoff and only matters when the device has losses.
    """

    system_impedance: float = 50.0
    stages: int | None = None
    taper: object = None
    series_cap: object = None
    include_microstrip_parasitics: bool = False
    design_frequency_hz: float | None = None

    def __post_init__(self) -> None:
        if self.system_impedance <= 0:
            raise DesignError("system impedance must be positive")
        if self.stages is not None and (not isinstance(self.stages, int) or self.stages < 1):
            raise DesignError(f"stages must be a positive integer, got {self.stages!r}")
        if isinstance(self.taper, str) and self.taper != "ginzton":
            raise DesignError(f"unknown taper policy {self.taper!r}")
        if isinstance(self.series_cap, str) and self.series_cap != MATCH_DRAIN:
            raise DesignError(f"unknown series capacitor policy {self.series_cap!r}")
        if isinstance(self.series_cap, (int, float)) and self.series_cap <= 0:
            raise DesignError("explicit series capacitance must be positive")
        if self.design_frequency_hz is not None and self.design_frequency_hz <= 0:
            raise DesignError("design frequency must be positive")


@dataclass(frozen=True)
class ScreeningResult:
    """Outcome of screening one transistor against a target bandwidth."""

    name: str
    direct_pass: bool
    required_series_cap: float | None
    resulting_fc: float
    gain_penalty_factor: float
    note: str = ""


@dataclass(frozen=True)
class Table1Check:
    """Recomputed bandwidth limit for one survey row."""

    tag: str
    effective_capacitance: float
    claimed_limit_hz: float
    computed_limit_hz: float
    rel_error: float

    @property
    def passed(self) -> bool:
        return self.rel_error <= 0.02


@dataclass(frozen=True)
class DesignReport:
    """Complete synthesis result for one device on one board."""

    transistor: TransistorModel
    effective_cgs: float
    series_capacitor: float | None
    gain_penalty_factor: float
    stages: int
    gate_cell: LineCell
    drain_cell: LineCell
    gate_line: MicrostripLine
    drain_line: MicrostripLine
    velocity_mismatch: float
    phase_per_cell_gate: float
    phase_per_cell_drain: float
    design_frequency_hz: float
    gains: GainFigures
    taper: TaperReport | None
    taper_gate_profile: TaperProfile | None
    taper_drain_profile: TaperProfile | None
    gate_section_lines: tuple[MicrostripLine, ...] | None
    drain_section_lines: tuple[MicrostripLine, ...] | None
    predicted_fc: float

    @property
    def system_impedance(self) -> float:
        return self.gate_cell.z0


def max_capacitance_for_bandwidth(f: float, z0: float = 50.0) -> float:
    """Largest shunt capacitance per cell keeping the cutoff at or above f."""
    if f <= 0 or z0 <= 0:
        raise DesignError("frequency and impedance must be positive")
    return 1.0 / (math.pi * z0 * f)


def series_cap_for_target(cgs: float, c_eff_target: float) -> tuple[float, float]:
    """Series capacitance producing a given effective load, with gain penalty.

    Solving cs*cgs/(cs+cgs) = target gives cs = target*cgs/(cgs - target);
    the voltage divider leaves a fraction target/cgs of the drive on the
    gate, which is the multiplicative gain penalty.
    """
    if cgs <= 0 or c_eff_target <= 0:
        raise DesignError("capacitances must be positive")
    if c_eff_target >= cgs:
        raise DesignError(
            f"target {c_eff_target} F is not below cgs {cgs} F; "
            "a series capacitor can only reduce the effective load"
        )
    cs = c_eff_target * cgs / (cgs - c_eff_target)
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
    if f_target <= 0:
        raise DesignError("target cutoff must be positive")
    results = []
    for t in catalog.transistors:
        fc = ladder.cutoff_frequency(z0, t.cgs)
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
                    ladder.cutoff_frequency(z0, c_target),
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


def predict_bandwidth(t: TransistorModel, options: DesignOptions | None = None) -> float:
    """Cutoff of the full amplifier under the given options.

    Uniform lines: the lower of the gate and drain cell cutoffs. Tapered
    lines: the re-evaluated cutoff at the equivalent impedances.
    """
    options = options or DesignOptions()
    z0 = options.system_impedance
    c_eff, _, _ = _resolve_series(t, options)
    if options.taper is None:
        return min(
            ladder.cutoff_frequency(z0, c_eff),
            ladder.cutoff_frequency(z0, t.cds),
        )
    gate_p, drain_p = _resolve_taper(t, options, c_eff)
    return taper_mod.analyze_taper(gate_p, drain_p, c_eff, t.cds).fc_total


def synthesize_design(
    t: TransistorModel,
    substrate: Substrate,
    options: DesignOptions | None = None,
) -> DesignReport:
    """Produce the full design report for one device on one board."""
    options = options or DesignOptions()
    z0 = options.system_impedance
    c_eff, cseries, penalty = _resolve_series(t, options)
    f_design = options.design_frequency_hz
    if f_design is None:
        f_design = 0.5 * ladder.cutoff_frequency(z0, c_eff)
    n = _resolve_stages(t, options, c_eff, f_design, z0)

    gate_cell, gate_line = _cell_and_strip(z0, substrate, c_eff, options)
    drain_cell, drain_line = _cell_and_strip(z0, substrate, t.cds, options)

    taper_report = None
    gate_profile = drain_profile = None
    gate_strips = drain_strips = None
    if options.taper is not None:
        gate_profile, drain_profile = _resolve_taper(t, options, c_eff, n)
        _check_profiles(gate_profile, drain_profile, n)
        taper_report = taper_mod.analyze_taper(gate_profile, drain_profile, c_eff, t.cds)
        gate_strips = tuple(
            _cell_and_strip(zk, substrate, c_eff, options)[1] for zk in gate_profile.sections
        )
        drain_strips = tuple(
            _cell_and_strip(zk, substrate, t.cds, options)[1] for zk in drain_profile.sections
        )

    phase_g = microstrip.phase_shift(
        gate_line.length_cm, f_design, gate_line.l_nh_per_cm, gate_line.c_pf_per_cm
    )
    phase_d = microstrip.phase_shift(
        drain_line.length_cm, f_design, drain_line.l_nh_per_cm, drain_line.c_pf_per_cm
    )

    gm_eff = t.gm * penalty
    ag = ladder.gate_loss_per_cell(f_design, t.ri, c_eff, z0)
    ad = ladder.drain_loss_per_cell(z0, t.rds)
    n_opt = gain_mod.n_opt_from_losses(ag, ad)
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


def verify_table1(z0: float = 50.0) -> list[Table1Check]:
    """Recompute every survey row's bandwidth limit and compare."""
    checks = []
    for row in builtin_table1():
        computed = ladder.cutoff_frequency(z0, row.effective_capacitance)
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


def report_to_json(report: DesignReport) -> str:
    """Serialize a report to the design_report_v1 layout.

    Infinities never reach the file: an infinite rds is omitted (catalog
    convention) and an unbounded n_opt becomes null.
    """
    t = report.transistor
    tr: dict = {"name": t.name, "gm_S": t.gm, "cgs_F": t.cgs, "cds_F": t.cds}
    tr["ri_ohm"] = t.ri
    if math.isfinite(t.rds):
        tr["rds_ohm"] = t.rds
    tr["reference"] = t.reference
    sub = report.gate_line.substrate
    doc: dict = {
        "schema": "design_report_v1",
        "transistor": tr,
        "substrate": {"er": sub.er, "h_mm": sub.h_mm, "t_mm": sub.t_mm},
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
            "av": report.gains.av,
            "gp_lossless": report.gains.gp_lossless,
            "gp_lossy": report.gains.gp_lossy,
            "n_opt": report.gains.n_opt_continuous
            if math.isfinite(report.gains.n_opt_continuous)
            else None,
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
    return json.dumps(doc, indent=2, allow_nan=False)


def report_from_json(text: str) -> DesignReport:
    """Rebuild a DesignReport from its design_report_v1 serialization."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DesignError(f"report is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("schema") != "design_report_v1":
        raise DesignError('not a design_report_v1 document (missing/incorrect "schema")')
    try:
        tr = doc["transistor"]
        t = TransistorModel(
            name=tr["name"],
            gm=float(tr["gm_S"]),
            cgs=float(tr["cgs_F"]),
            cds=float(tr["cds_F"]),
            ri=float(tr.get("ri_ohm", 0.0)),
            rds=float(tr.get("rds_ohm", math.inf)),
            reference=tr.get("reference", ""),
        )
        sub = Substrate(
            er=float(doc["substrate"]["er"]),
            h_mm=float(doc["substrate"]["h_mm"]),
            t_mm=float(doc["substrate"]["t_mm"]),
        )
        gate_cell = _cell_from_doc(doc["gate_cell"])
        drain_cell = _cell_from_doc(doc["drain_cell"])
        gate_line = _line_from_doc(doc["gate_line"], gate_cell.z0, sub)
        drain_line = _line_from_doc(doc["drain_line"], drain_cell.z0, sub)
        g = doc["gains"]
        n_opt = math.inf if g["n_opt"] is None else float(g["n_opt"])
        gains = GainFigures(
            av=float(g["av"]),
            gp_lossless=float(g["gp_lossless"]),
            gp_lossy=float(g["gp_lossy"]),
            n_opt_continuous=n_opt,
            n_recommended=gain_mod.recommended_n(n_opt),
        )
        stages = int(g["n"])
        if stages < 1:
            raise DesignError(f"report stage count must be >= 1, got {stages}")
        taper_report = None
        gate_profile = drain_profile = None
        gate_strips = drain_strips = None
        if doc.get("taper") is not None:
            tp = doc["taper"]
            taper_report = TaperReport(
                gamma_gate=float(tp["gamma_g"]),
                gamma_drain=float(tp["gamma_d"]),
                z_gate=float(tp["z_g_ohm"]),
                z_drain=float(tp["z_d_ohm"]),
                fc_gate=float(tp["fc_g_Hz"]),
                fc_drain=float(tp["fc_d_Hz"]),
                fc_total=min(float(tp["fc_g_Hz"]), float(tp["fc_d_Hz"])),
            )
            gate_profile = TaperProfile(
                taper_mod.GATE, tuple(float(z) for z in tp["sections_g_ohm"]), gate_cell.z0
            )
            drain_profile = TaperProfile(
                taper_mod.DRAIN, tuple(float(z) for z in tp["sections_d_ohm"]), drain_cell.z0
            )
            gate_strips = tuple(
                microstrip.synthesize_strip(zk, sub, zk * zk * gate_cell.capacitance)
                for zk in gate_profile.sections
            )
            drain_strips = tuple(
                microstrip.synthesize_strip(zk, sub, zk * zk * drain_cell.capacitance)
                for zk in drain_profile.sections
            )
        series = doc["series_capacitor_F"]
        return DesignReport(
            transistor=t,
            effective_cgs=float(doc["effective_cgs_F"]),
            series_capacitor=None if series is None else float(series),
            gain_penalty_factor=float(doc["gain_penalty"]),
            stages=stages,
            gate_cell=gate_cell,
            drain_cell=drain_cell,
            gate_line=gate_line,
            drain_line=drain_line,
            velocity_mismatch=float(doc["velocity_mismatch"]),
            phase_per_cell_gate=float(doc["phase_per_cell_gate_rad"]),
            phase_per_cell_drain=float(doc["phase_per_cell_drain_rad"]),
            design_frequency_hz=float(doc["design_frequency_hz"]),
            gains=gains,
            taper=taper_report,
            taper_gate_profile=gate_profile,
            taper_drain_profile=drain_profile,
            gate_section_lines=gate_strips,
            drain_section_lines=drain_strips,
            predicted_fc=float(doc["predicted_fc_Hz"]),
        )
    except DakitError:
        # already a domain error with its own message (DakitError is a ValueError)
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        # a missing field, a wrong JSON type, a string that is not a number,
        # or an infinite count
        raise DesignError(f"malformed design_report_v1 document: {exc!r}") from exc


def _cell_doc(cell: LineCell) -> dict:
    return {
        "l_H": cell.inductance,
        "c_F": cell.capacitance,
        "z0_ohm": cell.z0,
        "fc_Hz": cell.fc,
    }


def _cell_from_doc(doc: dict) -> LineCell:
    return LineCell(inductance=float(doc["l_H"]), capacitance=float(doc["c_F"]))


def _line_from_doc(doc: dict, z0: float, sub: Substrate) -> MicrostripLine:
    l_nh, c_pf = microstrip.line_constants(z0, sub.er)
    return MicrostripLine(
        width_mm=float(doc["w_mm"]),
        length_cm=float(doc["len_cm"]),
        substrate=sub,
        z0=z0,
        l_nh_per_cm=l_nh,
        c_pf_per_cm=c_pf,
    )


def _resolve_series(t: TransistorModel, options: DesignOptions):
    """Return (effective cgs, series capacitor or None, gain penalty)."""
    policy = options.series_cap
    if policy is None:
        return t.cgs, None, 1.0
    if policy == MATCH_DRAIN:
        if t.cds >= t.cgs:
            raise DesignError(
                f"{t.name}: cds {t.cds} F is not below cgs {t.cgs} F; "
                "the drain loading cannot be matched with a series capacitor"
            )
        cs, penalty = series_cap_for_target(t.cgs, t.cds)
        # effective load is the match target itself, kept exact so the two
        # lines come out identical
        return t.cds, cs, penalty
    cs = float(policy)
    if cs <= 0:
        raise DesignError("series capacitance must be positive")
    c_eff = cs * t.cgs / (cs + t.cgs)
    return c_eff, cs, c_eff / t.cgs


def _resolve_stages(
    t: TransistorModel,
    options: DesignOptions,
    c_eff: float,
    f_design: float,
    z0: float,
) -> int:
    if options.stages is not None:
        return options.stages
    if t.ri > 0 and math.isfinite(t.rds):
        n_opt = gain_mod.n_opt_from_params(f_design, t.ri, c_eff, t.rds, z0)
        return gain_mod.recommended_n(n_opt)
    return _DEFAULT_STAGES


def _resolve_taper(
    t: TransistorModel,
    options: DesignOptions,
    c_eff: float,
    n: int | None = None,
) -> tuple[TaperProfile, TaperProfile]:
    if options.taper == "ginzton":
        if n is None:
            f_design = options.design_frequency_hz
            if f_design is None:
                f_design = 0.5 * ladder.cutoff_frequency(options.system_impedance, c_eff)
            n = _resolve_stages(t, options, c_eff, f_design, options.system_impedance)
        return taper_mod.ginzton_profiles(n, options.system_impedance)
    pair = options.taper
    if (
        isinstance(pair, tuple)
        and len(pair) == 2
        and isinstance(pair[0], TaperProfile)
        and isinstance(pair[1], TaperProfile)
    ):
        return pair
    raise DesignError("taper must be None, 'ginzton' or a (gate, drain) profile pair")


def _check_profiles(gate: TaperProfile, drain: TaperProfile, n: int) -> None:
    if gate.side != taper_mod.GATE or drain.side != taper_mod.DRAIN:
        raise DesignError("taper profiles must be a (gate, drain) pair")
    if len(drain.sections) != n:
        raise DesignError(
            f"drain profile has {len(drain.sections)} sections for {n} stages"
        )
    if len(gate.sections) not in (n, n + 1):
        raise DesignError(
            f"gate profile has {len(gate.sections)} sections for {n} stages "
            "(expected n or n+1)"
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
    strip = microstrip.synthesize_strip(z0, substrate, cell.inductance)
    if not options.include_microstrip_parasitics:
        return cell, strip
    c_par = strip.c_pf_per_cm * 1e-12 * strip.length_cm
    cell = ladder.cell_for_impedance(z0, c_load + c_par)
    strip = microstrip.synthesize_strip(z0, substrate, cell.inductance)
    return cell, strip


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
