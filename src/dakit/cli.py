"""Command-line front end.

Subcommands: bandwidth, screen, design, taper, simulate, verify. All
numeric flags take plain decimal SI values (farads, hertz, ohms; board
geometry in mm). Exit codes: 0 on success, 1 on a domain error (the
message goes to stderr), 2 on a usage error.

Output is plain "name = value" text with 10 significant digits, so a run
with the same arguments is byte-identical and the printed values are
machine-readable as-is. A command writes its files and then its stdout:
each handler returns its exit code and lines, and run prints them once it
has returned. A failing command prints only its "error:" or "usage
error:" line, on stderr.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .errors import DakitError, SimulationError

# each handler imports the modules it runs, so a command compiles and
# loads no more of the package than it uses, and only simulate loads the
# simulator, numpy and typing; type checkers take any TYPE_CHECKING as true
TYPE_CHECKING = False
if TYPE_CHECKING:
    from . import mna
    from .design import DesignReport
    from .taper import TaperReport

# the Touchstone and CSV writers render every field of their rows as "%.9e",
# the format of _fmt, in one vectorized pass over the sweep: _e9.e9_rows,
# which only simulate compiles and loads


def main() -> int:
    return run()


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        code, lines = args.handler(args)
    except _Usage as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except DakitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if lines:
        print("\n".join(lines))
    return code


def write_touchstone(swp: mna.TwoPortSweep, destination) -> None:
    """Write a version-1 two-port Touchstone file (Hz, real/imaginary), whose
    header names one reference impedance: a sweep whose ports differ is refused."""
    import numpy as np

    from ._e9 import e9_rows

    if swp.reference_impedance is None:
        raise SimulationError(
            "a Touchstone v1 file has one reference impedance, but this sweep's ports differ"
        )

    n = len(swp.frequencies)
    table = np.empty((n, 9))
    table[:, 0] = swp.frequencies
    # S holds S11, S12, S21, S22 of each point in turn; the columns are S11,
    # S21, S12, S22 as re/im pairs
    s = swp.s_matrices.view(np.float64).reshape(n, 4, 2)
    table[:, 1:] = s[:, [0, 2, 1, 3]].reshape(n, 8)
    header = f"! two-port S-parameters\n# HZ S RI R {swp.reference_impedance:g}\n"
    _write_text(destination, header + e9_rows(table, " "))


def write_csv(swp: mna.TwoPortSweep, destination) -> None:
    """Write magnitudes in dB and the forward phase in degrees as CSV.

    A zero magnitude renders as -inf rather than raising.
    """
    import numpy as np

    from ._e9 import e9_rows

    n = len(swp.frequencies)
    # the sweep's dB are S11, S12, S21 and S22 of each point; the columns
    # are S11, S21, S12, S22. The phase stays with math's atan2, which
    # numpy's arctan2 does not match to the last bit; math.degrees(x) is
    # x * (180 / pi), one rounding, so one numpy multiply is its bit for bit
    s21 = swp.s_matrices[:, 1, 0]
    table = np.empty((n, 6))
    table[:, 0] = swp.frequencies
    table[:, 1:5] = swp.s_db[:, [0, 2, 1, 3]]
    radians = np.fromiter(map(math.atan2, s21.imag.tolist(), s21.real.tolist()), float, n)
    np.multiply(radians, 180.0 / math.pi, out=table[:, 5])
    header = "freq_hz,s11_db,s21_db,s12_db,s22_db,s21_phase_deg\n"
    _write_text(destination, header + e9_rows(table, ","))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dakit",
        description="Distributed amplifier design toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bandwidth", help="predict line cutoffs for a gate loading")
    p.add_argument("--cgs", type=float, required=True, help="gate capacitance in F")
    p.add_argument("--cds", type=float, help="drain capacitance in F")
    p.add_argument("--z0", type=float, default=50.0, help="system impedance in ohm")
    p.add_argument("--cseries", type=float, help="series gate capacitor in F")
    p.add_argument("--taper", choices=["ginzton"], help="step the line impedances")
    p.add_argument("--n", type=int, help="stage count (required with --taper)")
    p.set_defaults(handler=_cmd_bandwidth)

    p = sub.add_parser("screen", help="rank catalog devices against a target cutoff")
    p.add_argument("--catalog", required=True, help="catalog JSON path")
    p.add_argument("--target-fc", type=float, required=True, help="target cutoff in Hz")
    p.add_argument("--z0", type=float, default=50.0)
    p.add_argument("--allow-series", action="store_true", help="permit series capacitors")
    p.set_defaults(handler=_cmd_screen)

    p = sub.add_parser("design", help="synthesize a full design report")
    p.add_argument("--catalog", required=True)
    p.add_argument("--transistor", required=True, help="catalog entry name")
    p.add_argument("--er", type=float, required=True, help="substrate permittivity")
    p.add_argument("--h", type=float, required=True, help="substrate height in mm")
    p.add_argument("--t", type=float, required=True, help="copper thickness in mm")
    p.add_argument("--z0", type=float, default=50.0)
    p.add_argument("--n", type=int, help="stage count override")
    p.add_argument("--taper", choices=["ginzton"])
    p.add_argument("--series", type=_series_value, help='"match-drain" or a value in F')
    p.add_argument("--f-loss", type=float, help="frequency for loss evaluation in Hz")
    p.add_argument(
        "--include-parasitics",
        action="store_true",
        help="fold the strips' own capacitance into the cells (one pass)",
    )
    p.add_argument("--out", help="write the report JSON here")
    p.set_defaults(handler=_cmd_design)

    p = sub.add_parser("taper", help="stepped-impedance analysis of both lines")
    p.add_argument("--n", type=int, required=True, help="stage count")
    p.add_argument("--z0", type=float, default=50.0)
    p.add_argument("--cgs", type=float, default=1.79e-12, help="gate loading in F")
    p.add_argument("--cds", type=float, help="drain loading in F (default cgs/6)")
    p.set_defaults(handler=_cmd_taper)

    p = sub.add_parser("simulate", help="sweep a design report's network")
    p.add_argument("--design", required=True, help="report JSON path")
    p.add_argument("--fstart", type=float, required=True)
    p.add_argument("--fstop", type=float, required=True)
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--spacing", choices=["linear", "log"], default="linear")
    p.add_argument("--out", help="write a Touchstone .s2p here")
    p.add_argument("--csv", help="write dB/phase CSV here")
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("verify", help="recompute the built-in survey table")
    p.add_argument("--table1", action="store_true", required=True)
    p.set_defaults(handler=_cmd_verify)

    return parser


def _cmd_bandwidth(args) -> tuple[int, list[str]]:
    from .device import effective_gate_capacitance
    from .ladder import cutoff_frequency

    c_eff = effective_gate_capacitance(args.cgs, args.cseries)
    lines = []
    if args.cseries is not None:
        lines.append(f"effective_cgs_f = {_fmt(c_eff)}")
        lines.append(f"gain_penalty = {_fmt(c_eff / args.cgs)}")
    fc_gate = cutoff_frequency(args.z0, c_eff)
    lines.append(f"fc_gate_hz = {_fmt(fc_gate)}")
    if args.cds is not None:
        fc_drain = cutoff_frequency(args.z0, args.cds)
        lines.append(f"fc_drain_hz = {_fmt(fc_drain)}")
        lines.append(f"fc_total_hz = {_fmt(min(fc_gate, fc_drain))}")
    if args.taper is not None:
        if args.n is None or args.cds is None:
            raise _Usage("--taper needs both --n and --cds")
        from .taper import analyze_taper, ginzton_profiles

        gate_p, drain_p = ginzton_profiles(args.n, args.z0)
        rep = analyze_taper(gate_p, drain_p, c_eff, args.cds)
        lines += _taper_lines(rep)
    return 0, lines


def _cmd_screen(args) -> tuple[int, list[str]]:
    from .device import load_catalog, screen_catalog

    catalog = load_catalog(_read_text(args.catalog), source=args.catalog)
    results = screen_catalog(
        catalog, args.target_fc, z0=args.z0, allow_series=args.allow_series
    )
    lines = []
    for r in results:
        status = "pass" if r.direct_pass else ("series" if r.required_series_cap else "fail")
        line = f"{r.name} {status} resulting_fc_hz={_fmt(r.resulting_fc)}"
        if r.required_series_cap is not None:
            line += f" cseries_f={_fmt(r.required_series_cap)}"
            line += f" gain_penalty={_fmt(r.gain_penalty_factor)}"
        if r.note:
            line += f" note={r.note!r}"
        lines.append(line)
    return 0, lines


def _cmd_design(args) -> tuple[int, list[str]]:
    from .design import DesignOptions, report_to_json, synthesize_design
    from .device import Substrate, load_catalog

    catalog = load_catalog(_read_text(args.catalog), source=args.catalog)
    t = catalog.get(args.transistor)
    substrate = Substrate(er=args.er, h_mm=args.h, t_mm=args.t)
    options = DesignOptions(
        system_impedance=args.z0,
        stages=args.n,
        taper=args.taper,
        series_cap=args.series,
        include_microstrip_parasitics=args.include_parasitics,
        design_frequency_hz=args.f_loss,
    )
    report = synthesize_design(t, substrate, options)
    lines = _report_lines(report)
    if args.out:
        _write_text(args.out, report_to_json(report))
        lines.append(f"report_written = {args.out}")
    return 0, lines


def _cmd_taper(args) -> tuple[int, list[str]]:
    from .taper import analyze_taper, ginzton_profiles

    cds = args.cds if args.cds is not None else args.cgs / 6.0
    gate_p, drain_p = ginzton_profiles(args.n, args.z0)
    rep = analyze_taper(gate_p, drain_p, args.cgs, cds)
    return 0, [
        f"gate_sections_ohm = {' '.join(_fmt(z) for z in gate_p.sections)}",
        f"drain_sections_ohm = {' '.join(_fmt(z) for z in drain_p.sections)}",
        *_taper_lines(rep),
    ]


def _cmd_simulate(args) -> tuple[int, list[str]]:
    from . import mna
    from .design import report_from_json

    report = report_from_json(_read_text(args.design))
    net = mna.build_network(report)
    swp = mna.sweep(net, args.fstart, args.fstop, args.points, spacing=args.spacing)
    metrics = mna.extract_metrics(swp)
    cutoff = "none" if metrics.cutoff_hz is None else _fmt(metrics.cutoff_hz)
    lines = [
        f"low_freq_gain_db = {_fmt(metrics.low_freq_gain_db)}",
        f"cutoff_hz = {cutoff}",
        f"worst_s11_db = {_fmt(metrics.worst_s11_db)}",
    ]
    if args.out:
        write_touchstone(swp, args.out)
        lines.append(f"touchstone_written = {args.out}")
    if args.csv:
        write_csv(swp, args.csv)
        lines.append(f"csv_written = {args.csv}")
    return 0, lines


def _cmd_verify(args) -> tuple[int, list[str]]:
    from .device import verify_table1

    checks = verify_table1()
    lines = [
        f"{c.tag} c_f={_fmt(c.effective_capacitance)} "
        f"claimed_hz={_fmt(c.claimed_limit_hz)} "
        f"computed_hz={_fmt(c.computed_limit_hz)} "
        f"rel_error={_fmt(c.rel_error)} {'PASS' if c.passed else 'FAIL'}"
        for c in checks
    ]
    failed = sum(not c.passed for c in checks)
    lines.append(f"rows_failed = {failed}")
    return (1 if failed else 0), lines


def _taper_lines(rep: TaperReport) -> list[str]:
    return [
        f"gamma_gate = {_fmt(rep.gamma_gate)}",
        f"gamma_drain = {_fmt(rep.gamma_drain)}",
        f"z_gate_ohm = {_fmt(rep.z_gate)}",
        f"z_drain_ohm = {_fmt(rep.z_drain)}",
        f"fc_gate_hz = {_fmt(rep.fc_gate)}",
        f"fc_drain_hz = {_fmt(rep.fc_drain)}",
        f"fc_total_hz = {_fmt(rep.fc_total)}",
    ]


def _report_lines(report: DesignReport) -> list[str]:
    lines = [
        f"transistor = {report.transistor.name}",
        f"stages = {report.stages}",
        f"effective_cgs_f = {_fmt(report.effective_cgs)}",
    ]
    if report.series_capacitor is not None:
        lines.append(f"series_capacitor_f = {_fmt(report.series_capacitor)}")
        lines.append(f"gain_penalty = {_fmt(report.gain_penalty_factor)}")
    for label, cell, line in (
        ("gate", report.gate_cell, report.gate_line),
        ("drain", report.drain_cell, report.drain_line),
    ):
        lines += [
            f"{label}_cell_l_h = {_fmt(cell.inductance)}",
            f"{label}_cell_c_f = {_fmt(cell.capacitance)}",
            f"{label}_cell_z0_ohm = {_fmt(cell.z0)}",
            f"{label}_cell_fc_hz = {_fmt(cell.fc)}",
            f"{label}_line_w_mm = {_fmt(line.width_mm)}",
            f"{label}_line_len_cm = {_fmt(line.length_cm)}",
        ]
    gains = report.gains
    lines += [
        f"velocity_mismatch = {_fmt(report.velocity_mismatch)}",
        f"phase_per_cell_gate_rad = {_fmt(report.phase_per_cell_gate)}",
        f"phase_per_cell_drain_rad = {_fmt(report.phase_per_cell_drain)}",
        f"design_frequency_hz = {_fmt(report.design_frequency_hz)}",
        f"av = {_fmt(gains.av)}",
        f"gp_lossless = {_fmt(gains.gp_lossless)}",
        f"gp_lossy = {_fmt(gains.gp_lossy)}",
        f"n_opt = {_fmt(gains.n_opt_continuous)}",
        f"n_recommended = {gains.n_recommended}",
    ]
    if report.taper is not None:
        lines += _taper_lines(report.taper)
    lines.append(f"predicted_fc_hz = {_fmt(report.predicted_fc)}")
    return lines


def _series_value(text: str):
    from .design import MATCH_DRAIN

    if text == MATCH_DRAIN:
        return text
    return float(text)


class _Usage(Exception):
    pass


def _fmt(value: float) -> str:
    return f"{value:.9e}"


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise DakitError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DakitError(f"cannot read {path}: not UTF-8 text ({exc})") from exc


def _write_text(destination, text: str) -> None:
    if hasattr(destination, "write"):
        destination.write(text)
        return
    try:
        Path(destination).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise DakitError(f"cannot write {destination}: {exc}") from exc


if __name__ == "__main__":
    sys.exit(run())
