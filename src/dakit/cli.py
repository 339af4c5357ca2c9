"""Command-line front end.

Subcommands: bandwidth, screen, design, taper, simulate, verify. All
numeric flags take plain decimal SI values (farads, hertz, ohms; board
geometry in mm). Exit codes: 0 on success, 1 on a domain error (the
message goes to stderr), 2 on a usage error.

Output is plain "name = value" text with 10 significant digits, so a run
with the same arguments is byte-identical and the printed values are
machine-readable as-is.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from . import design as design_mod
from . import device as device_mod
from . import ladder
from . import taper as taper_mod
from .errors import DakitError

if TYPE_CHECKING:
    # the simulator is imported by the code that uses it, so that the
    # subcommands that never simulate do not load it
    from . import mna

# one %-format per row; "%.9e" renders every float exactly as _fmt does
_TOUCHSTONE_ROW = " ".join(["%.9e"] * 9)
_CSV_ROW = ",".join(["%.9e"] * 6)


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
        return args.handler(args)
    except _Usage as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except DakitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def write_touchstone(swp: mna.TwoPortSweep, destination) -> None:
    """Write a version-1 two-port Touchstone file (Hz, real/imaginary)."""
    lines = ["! two-port S-parameters", f"# HZ S RI R {swp.reference_impedance:g}"]
    for f, ((s11, s12), (s21, s22)) in zip(swp.frequencies, swp.s_matrices):
        lines.append(
            _TOUCHSTONE_ROW
            % (
                f,
                s11.real,
                s11.imag,
                s21.real,
                s21.imag,
                s12.real,
                s12.imag,
                s22.real,
                s22.imag,
            )
        )
    _write_text(destination, "\n".join(lines) + "\n")


def write_csv(swp: mna.TwoPortSweep, destination) -> None:
    """Write magnitudes in dB and the forward phase in degrees as CSV.

    A zero magnitude renders as -inf rather than raising.
    """
    from .mna import _db as db

    lines = ["freq_hz,s11_db,s21_db,s12_db,s22_db,s21_phase_deg"]
    for f, ((s11, s12), (s21, s22)) in zip(swp.frequencies, swp.s_matrices):
        phase = math.degrees(math.atan2(s21.imag, s21.real))
        lines.append(
            _CSV_ROW
            % (f, db(abs(s11)), db(abs(s21)), db(abs(s12)), db(abs(s22)), phase)
        )
    _write_text(destination, "\n".join(lines) + "\n")


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


def _cmd_bandwidth(args) -> int:
    # every value is computed before anything is printed, so a failing
    # command leaves stdout empty
    c_eff = device_mod.effective_gate_capacitance(args.cgs, args.cseries)
    lines = []
    if args.cseries is not None:
        lines.append(f"effective_cgs_f = {_fmt(c_eff)}")
        lines.append(f"gain_penalty = {_fmt(c_eff / args.cgs)}")
    fc_gate = ladder.cutoff_frequency(args.z0, c_eff)
    lines.append(f"fc_gate_hz = {_fmt(fc_gate)}")
    if args.cds is not None:
        fc_drain = ladder.cutoff_frequency(args.z0, args.cds)
        lines.append(f"fc_drain_hz = {_fmt(fc_drain)}")
        lines.append(f"fc_total_hz = {_fmt(min(fc_gate, fc_drain))}")
    if args.taper is not None:
        if args.n is None or args.cds is None:
            _usage("--taper needs both --n and --cds")
        gate_p, drain_p = taper_mod.ginzton_profiles(args.n, args.z0)
        rep = taper_mod.analyze_taper(gate_p, drain_p, c_eff, args.cds)
        lines += _taper_lines(rep)
    print("\n".join(lines))
    return 0


def _cmd_screen(args) -> int:
    catalog = device_mod.load_catalog(_read_text(args.catalog), source=args.catalog)
    results = design_mod.screen_catalog(
        catalog, args.target_fc, z0=args.z0, allow_series=args.allow_series
    )
    for r in results:
        status = "pass" if r.direct_pass else ("series" if r.required_series_cap else "fail")
        line = f"{r.name} {status} resulting_fc_hz={_fmt(r.resulting_fc)}"
        if r.required_series_cap is not None:
            line += f" cseries_f={_fmt(r.required_series_cap)}"
            line += f" gain_penalty={_fmt(r.gain_penalty_factor)}"
        if r.note:
            line += f" note={r.note!r}"
        print(line)
    return 0


def _cmd_design(args) -> int:
    catalog = device_mod.load_catalog(_read_text(args.catalog), source=args.catalog)
    t = catalog.get(args.transistor)
    substrate = device_mod.Substrate(er=args.er, h_mm=args.h, t_mm=args.t)
    options = design_mod.DesignOptions(
        system_impedance=args.z0,
        stages=args.n,
        taper=args.taper,
        series_cap=args.series,
        include_microstrip_parasitics=args.include_parasitics,
        design_frequency_hz=args.f_loss,
    )
    report = design_mod.synthesize_design(t, substrate, options)
    # files are written before anything is printed, so a failed write
    # leaves stdout empty
    if args.out:
        _write_text(args.out, design_mod.report_to_json(report))
    _print_report(report)
    if args.out:
        print(f"report_written = {args.out}")
    return 0


def _cmd_taper(args) -> int:
    cds = args.cds if args.cds is not None else args.cgs / 6.0
    gate_p, drain_p = taper_mod.ginzton_profiles(args.n, args.z0)
    rep = taper_mod.analyze_taper(gate_p, drain_p, args.cgs, cds)
    lines = [
        f"gate_sections_ohm = {' '.join(_fmt(z) for z in gate_p.sections)}",
        f"drain_sections_ohm = {' '.join(_fmt(z) for z in drain_p.sections)}",
        *_taper_lines(rep),
    ]
    print("\n".join(lines))
    return 0


def _cmd_simulate(args) -> int:
    from . import mna

    report = design_mod.report_from_json(_read_text(args.design))
    net = mna.build_network(report)
    swp = mna.sweep(net, args.fstart, args.fstop, args.points, spacing=args.spacing)
    metrics = mna.extract_metrics(swp)
    if args.out:
        write_touchstone(swp, args.out)
    if args.csv:
        write_csv(swp, args.csv)
    print(f"low_freq_gain_db = {_fmt(metrics.low_freq_gain_db)}")
    if metrics.cutoff_hz is None:
        print("cutoff_hz = none")
    else:
        print(f"cutoff_hz = {_fmt(metrics.cutoff_hz)}")
    print(f"worst_s11_db = {_fmt(metrics.worst_s11_db)}")
    if args.out:
        print(f"touchstone_written = {args.out}")
    if args.csv:
        print(f"csv_written = {args.csv}")
    return 0


def _cmd_verify(args) -> int:
    checks = design_mod.verify_table1()
    failed = 0
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        print(
            f"{c.tag} c_f={_fmt(c.effective_capacitance)} "
            f"claimed_hz={_fmt(c.claimed_limit_hz)} "
            f"computed_hz={_fmt(c.computed_limit_hz)} "
            f"rel_error={_fmt(c.rel_error)} {status}"
        )
        if not c.passed:
            failed += 1
    print(f"rows_failed = {failed}")
    return 1 if failed else 0


def _taper_lines(rep: taper_mod.TaperReport) -> list[str]:
    return [
        f"gamma_gate = {_fmt(rep.gamma_gate)}",
        f"gamma_drain = {_fmt(rep.gamma_drain)}",
        f"z_gate_ohm = {_fmt(rep.z_gate)}",
        f"z_drain_ohm = {_fmt(rep.z_drain)}",
        f"fc_gate_hz = {_fmt(rep.fc_gate)}",
        f"fc_drain_hz = {_fmt(rep.fc_drain)}",
        f"fc_total_hz = {_fmt(rep.fc_total)}",
    ]


def _print_report(report: design_mod.DesignReport) -> None:
    print(f"transistor = {report.transistor.name}")
    print(f"stages = {report.stages}")
    print(f"effective_cgs_f = {_fmt(report.effective_cgs)}")
    if report.series_capacitor is not None:
        print(f"series_capacitor_f = {_fmt(report.series_capacitor)}")
        print(f"gain_penalty = {_fmt(report.gain_penalty_factor)}")
    for label, cell, line in (
        ("gate", report.gate_cell, report.gate_line),
        ("drain", report.drain_cell, report.drain_line),
    ):
        print(f"{label}_cell_l_h = {_fmt(cell.inductance)}")
        print(f"{label}_cell_c_f = {_fmt(cell.capacitance)}")
        print(f"{label}_cell_z0_ohm = {_fmt(cell.z0)}")
        print(f"{label}_cell_fc_hz = {_fmt(cell.fc)}")
        print(f"{label}_line_w_mm = {_fmt(line.width_mm)}")
        print(f"{label}_line_len_cm = {_fmt(line.length_cm)}")
    print(f"velocity_mismatch = {_fmt(report.velocity_mismatch)}")
    print(f"phase_per_cell_gate_rad = {_fmt(report.phase_per_cell_gate)}")
    print(f"phase_per_cell_drain_rad = {_fmt(report.phase_per_cell_drain)}")
    print(f"design_frequency_hz = {_fmt(report.design_frequency_hz)}")
    print(f"av = {_fmt(report.gains.av)}")
    print(f"gp_lossless = {_fmt(report.gains.gp_lossless)}")
    print(f"gp_lossy = {_fmt(report.gains.gp_lossy)}")
    if math.isfinite(report.gains.n_opt_continuous):
        print(f"n_opt = {_fmt(report.gains.n_opt_continuous)}")
    else:
        print("n_opt = inf")
    print(f"n_recommended = {report.gains.n_recommended}")
    if report.taper is not None:
        print("\n".join(_taper_lines(report.taper)))
    print(f"predicted_fc_hz = {_fmt(report.predicted_fc)}")


def _series_value(text: str):
    if text == design_mod.MATCH_DRAIN:
        return text
    return float(text)


def _usage(message: str) -> None:
    raise _Usage(message)


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
