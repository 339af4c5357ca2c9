"""Distributed amplifier design toolkit.

Sizing of the artificial gate/drain lines around a transistor's parasitic
capacitances, microstrip realization of the series inductors, gain and
optimum-stage-count figures, stepped-impedance (tapered) line analysis,
and a nodal small-signal simulator to check a finished design.

Importing the package loads none of its modules. Each public name, and
each module named in _HOME, is loaded on first use (PEP 562), so a
program compiles and runs only the modules whose names it reads.
"""

__version__ = "0.1.0"

_DESIGN_NAMES = (
    "MATCH_DRAIN",
    "DesignOptions",
    "DesignReport",
    "report_from_json",
    "report_to_json",
    "synthesize_design",
)
_DEVICE_NAMES = (
    "Catalog",
    "ScreeningResult",
    "Substrate",
    "Table1Check",
    "TransistorModel",
    "VerificationRow",
    "builtin_table1",
    "load_catalog",
    "max_capacitance_for_bandwidth",
    "screen_catalog",
    "series_cap_for_target",
    "verify_table1",
)
_ERRORS_NAMES = ("CatalogError", "DakitError", "DesignError", "GeometryError", "SimulationError")
_GAIN_NAMES = (
    "GainFigures",
    "n_opt_from_losses",
    "n_opt_from_params",
    "power_gain_lossless",
    "power_gain_lossy",
    "recommended_n",
    "voltage_gain",
)
_LADDER_NAMES = (
    "LineCell",
    "LineSection",
    "cell_for_impedance",
    "cutoff_frequency",
    "drain_loss_per_cell",
    "drain_section",
    "effective_gate_capacitance",
    "gate_loss_per_cell",
    "gate_section",
    "propagation_constant",
)
_MICROSTRIP_NAMES = (
    "ImpedanceResult",
    "MicrostripLine",
    "line_constants",
    "phase_shift",
    "segment_length",
    "synthesize_strip",
    "width_for",
    "z0_of",
)
_MNA_NAMES = (
    "LINEAR",
    "LOG",
    "Capacitor",
    "Inductor",
    "Network",
    "Port",
    "Resistor",
    "SweepMetrics",
    "TwoPortSweep",
    "Vccs",
    "build_network",
    "extract_metrics",
    "s_parameters_at",
    "sweep",
)
_TAPER_NAMES = (
    "DRAIN",
    "GATE",
    "TaperProfile",
    "TaperReport",
    "analyze_taper",
    "equivalent_impedance",
    "ginzton_profiles",
    "junction_gammas",
    "overall_gamma",
    "overall_gamma_quarterwave",
)

# public name -> the module that defines it
_HOME = {
    name: module
    for module, names in (
        ("design", _DESIGN_NAMES),
        ("device", _DEVICE_NAMES),
        ("errors", _ERRORS_NAMES),
        ("gain", _GAIN_NAMES),
        ("ladder", _LADDER_NAMES),
        ("microstrip", _MICROSTRIP_NAMES),
        ("mna", _MNA_NAMES),
        ("taper", _TAPER_NAMES),
    )
    for name in names
}

__all__ = list(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None and name not in _HOME.values():
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # not "from . import ...": that asks this function for the module again
    import importlib

    home = importlib.import_module(f"{__name__}.{module or name}")
    if module is None:
        return home  # the import has bound the submodule here
    # not bound here: a name rebound in its home module (a tracer's wrapper,
    # say, and its removal) reads the same through the package
    return getattr(home, name)
