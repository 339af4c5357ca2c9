"""Distributed amplifier design toolkit.

Sizing of the artificial gate/drain lines around a transistor's parasitic
capacitances, microstrip realization of the series inductors, gain and
optimum-stage-count figures, stepped-impedance (tapered) line analysis,
and a nodal small-signal simulator to check a finished design.
"""

from .design import (
    MATCH_DRAIN,
    DesignOptions,
    DesignReport,
    ScreeningResult,
    Table1Check,
    max_capacitance_for_bandwidth,
    predict_bandwidth,
    report_from_json,
    report_to_json,
    screen_catalog,
    series_cap_for_target,
    synthesize_design,
    verify_table1,
)
from .device import (
    Catalog,
    Substrate,
    TransistorModel,
    VerificationRow,
    builtin_table1,
    effective_gate_capacitance,
    load_catalog,
    serialize_catalog,
)
from .errors import CatalogError, DakitError, DesignError, GeometryError, SimulationError
from .gain import (
    GainFigures,
    n_opt_from_losses,
    n_opt_from_params,
    power_gain_lossless,
    power_gain_lossy,
    recommended_n,
    voltage_gain,
)
from .ladder import (
    LineCell,
    LineSection,
    cell_for_impedance,
    cutoff_frequency,
    drain_loss_per_cell,
    drain_section,
    gate_loss_per_cell,
    gate_section,
    propagation_constant,
)
from .microstrip import (
    ImpedanceResult,
    MicrostripLine,
    line_constants,
    phase_shift,
    segment_length,
    synthesize_strip,
    width_for,
    z0_of,
)
from .taper import (
    DRAIN,
    GATE,
    TaperProfile,
    TaperReport,
    analyze_taper,
    equivalent_impedance,
    ginzton_profiles,
    junction_gammas,
    overall_gamma,
    overall_gamma_quarterwave,
)

__version__ = "0.1.0"

# the simulator's names, loaded with dakit.mna on first use (PEP 562), so
# that importing the package does not load the module or its dataclasses
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

__all__ = [
    "MATCH_DRAIN",
    "DesignOptions",
    "DesignReport",
    "ScreeningResult",
    "Table1Check",
    "max_capacitance_for_bandwidth",
    "predict_bandwidth",
    "report_from_json",
    "report_to_json",
    "screen_catalog",
    "series_cap_for_target",
    "synthesize_design",
    "verify_table1",
    "Catalog",
    "Substrate",
    "TransistorModel",
    "VerificationRow",
    "builtin_table1",
    "effective_gate_capacitance",
    "load_catalog",
    "serialize_catalog",
    "CatalogError",
    "DakitError",
    "DesignError",
    "GeometryError",
    "SimulationError",
    "GainFigures",
    "n_opt_from_losses",
    "n_opt_from_params",
    "power_gain_lossless",
    "power_gain_lossy",
    "recommended_n",
    "voltage_gain",
    "LineCell",
    "LineSection",
    "cell_for_impedance",
    "cutoff_frequency",
    "drain_loss_per_cell",
    "drain_section",
    "gate_loss_per_cell",
    "gate_section",
    "propagation_constant",
    "ImpedanceResult",
    "MicrostripLine",
    "line_constants",
    "phase_shift",
    "segment_length",
    "synthesize_strip",
    "width_for",
    "z0_of",
    *_MNA_NAMES,
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
]


def __getattr__(name: str):
    if name == "mna" or name in _MNA_NAMES:
        # not "from . import mna": that asks this function for "mna" again
        import importlib

        mna = importlib.import_module(f"{__name__}.mna")
        return mna if name == "mna" else getattr(mna, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
