"""Every public callable that takes a number or a record refuses what is
not one.

One row per callable: valid arguments, and for each numeric or record
position the values it must refuse. A bool, a string and None are never a
quantity; NaN and the infinities are refused wherever the range excludes
them. Where a record is read, None, a string and a record of another class
are refused, and a source name must be a string. Each refusal is a
DakitError whose message names the value with its repr, so the CLI exits 1
with that message and never prints a traceback.
"""

import math
import re

import pytest

from dakit import (
    Capacitor,
    Catalog,
    DakitError,
    DesignOptions,
    Inductor,
    LineCell,
    LineSection,
    MicrostripLine,
    Network,
    Port,
    Resistor,
    Substrate,
    TaperProfile,
    TransistorModel,
    TwoPortSweep,
    Vccs,
    analyze_taper,
    build_network,
    cell_for_impedance,
    cutoff_frequency,
    drain_loss_per_cell,
    drain_section,
    effective_gate_capacitance,
    equivalent_impedance,
    extract_metrics,
    gate_loss_per_cell,
    gate_section,
    ginzton_profiles,
    junction_gammas,
    line_constants,
    max_capacitance_for_bandwidth,
    n_opt_from_losses,
    n_opt_from_params,
    overall_gamma,
    overall_gamma_quarterwave,
    phase_shift,
    power_gain_lossless,
    power_gain_lossy,
    propagation_constant,
    recommended_n,
    report_to_json,
    s_parameters_at,
    screen_catalog,
    segment_length,
    series_cap_for_target,
    sweep,
    synthesize_design,
    synthesize_strip,
    voltage_gain,
    width_for,
    z0_of,
)

nan, inf = math.nan, math.inf

NON_NUMBERS = (True, "1", None)
# (0, inf), [0, inf), [1, inf) and any finite value all exclude NaN and both infinities
FINITE = NON_NUMBERS + (nan, inf, -inf)
# (0, inf]: an infinite rds or n_opt is the lossless limit
UP_TO_INF = NON_NUMBERS + (nan, -inf)
# None stands for "not given" where a quantity is optional
OPTIONAL = (True, "1", nan, inf, -inf)
COUNTS = (True, "4", None, 4.0)
# an immittance may be real or complex, but no part of it may be NaN or infinite
COMPLEX = FINITE + (complex(1.0, nan), complex(inf, 1.0))
# a record of another class is refused as surely as None
NOT_RECORDS = (None, "x", Port(1, 50.0))
# a name or source is text, never None, a number or bytes
NOT_STRINGS = (None, 1, b"x")

FR4 = Substrate(4.4, 1.6, 0.035)
CATALOG = Catalog((TransistorModel("GAN-1", 0.05, 1.79e-12, 2.983e-13),))
CELL = LineCell(2e-9, 8e-13)
GATE, DRAIN = ginzton_profiles(4, 50.0)


def _network(r, c, l, gm, z1, z2):
    elements = (
        Resistor(1, 0, r),
        Inductor(1, 2, l),
        Capacitor(2, 0, c),
        Vccs(2, 0, 1, 0, gm),
        Resistor(2, 0, 50.0),
    )
    return Network(3, elements, Port(1, z1), Port(2, z2))


NET = _network(50.0, 1e-12, 2e-9, 0.05, 50.0, 50.0)
# a Network reads Port records, so a LineCell stands for a record of another class
NOT_PORTS = (None, "x", CELL)
GAN = CATALOG.get("GAN-1")
REPORT = synthesize_design(GAN, FR4)

# a sweep holds one 2x2 complex S-matrix per frequency, at least one; S is
# checked as a whole, each of its entries as an immittance
FREQS = (1e9, 2e9)
MATRIX = ((0.1 + 0j, 0j), (1 + 0j, 0j))
NOT_MATRICES = (
    None, "x", ((1, 2),), (MATRIX,), (MATRIX,) * 3, ((MATRIX[0],),) * 2,
    (((1, 2, 3), (4, 5, 6)),) * 2, ((MATRIX, MATRIX),) * 2,
)


def _sweep_with_entry(value):
    return TwoPortSweep(FREQS, (((value, 0j), (1 + 0j, 0j)), MATRIX), 50.0)


# (id, callable, valid arguments, {position: values to refuse there})
ROWS = [
    (
        "TransistorModel",
        TransistorModel,
        ("x", 0.01, 1e-12, 1e-13, 1.0, 200.0),
        {0: NOT_STRINGS + ("",), 1: FINITE, 2: FINITE, 3: FINITE, 4: FINITE, 5: UP_TO_INF},
    ),
    ("Substrate", Substrate, (4.4, 1.6, 0.035), {0: FINITE, 1: FINITE, 2: FINITE}),
    (
        "Catalog",
        lambda entry, source: Catalog((entry,), source),
        (GAN, "catalog.json"),
        {0: NOT_RECORDS, 1: NOT_STRINGS},
    ),
    # a catalog's entries are a tuple, so that it hashes
    ("Catalog-transistors", Catalog, ((GAN,),), {0: (None, "x", [GAN])}),
    # the second entry's name must differ from the first's
    (
        "Catalog-names",
        lambda name: Catalog((GAN, TransistorModel(name, 0.08, 1.4e-13, 5e-14))),
        ("PHEMT-1",),
        {0: ("GAN-1",)},
    ),
    ("effective_gate_capacitance", effective_gate_capacitance, (1e-12, 1e-13),
     {0: FINITE, 1: OPTIONAL}),
    ("max_capacitance_for_bandwidth", max_capacitance_for_bandwidth, (1e9, 50.0),
     {0: FINITE, 1: FINITE}),
    ("series_cap_for_target", series_cap_for_target, (1.79e-12, 3e-13), {0: FINITE, 1: FINITE}),
    ("screen_catalog", screen_catalog, (CATALOG, 1e10, 50.0, True),
     {0: NOT_RECORDS, 1: FINITE, 2: FINITE}),
    ("LineCell", LineCell, (2e-9, 8e-13), {0: FINITE, 1: FINITE}),
    # L and C each in range, but L/C or L*C overflows or underflows
    (
        "LineCell-pair",
        lambda pair: LineCell(*pair),
        ((2e-9, 8e-13),),
        {0: ((1e-300, 1e300), (1e300, 1e-300), (1e200, 1e200), (1e-200, 1e-200))},
    ),
    ("LineSection", LineSection, (2j, 0.5 + 3j), {0: COMPLEX, 1: COMPLEX}),
    ("cell_for_impedance", cell_for_impedance, (50.0, 1e-12), {0: FINITE, 1: FINITE}),
    ("cutoff_frequency", cutoff_frequency, (50.0, 1e-12), {0: FINITE, 1: FINITE}),
    ("gate_loss_per_cell", gate_loss_per_cell, (1e9, 1.0, 1e-12, 50.0),
     {0: FINITE, 1: FINITE, 2: FINITE, 3: FINITE}),
    ("drain_loss_per_cell", drain_loss_per_cell, (50.0, 200.0), {0: FINITE, 1: UP_TO_INF}),
    ("gate_section", gate_section, (1e9, CELL, 0.5, 1.0, 1e-12),
     {0: FINITE, 1: NOT_RECORDS, 2: FINITE, 3: FINITE, 4: FINITE}),
    ("drain_section", drain_section, (1e9, CELL, 0.5, 200.0, 1e-13),
     {0: FINITE, 1: NOT_RECORDS, 2: FINITE, 3: UP_TO_INF, 4: FINITE}),
    ("propagation_constant", propagation_constant, (LineSection(2j, 0.5 + 3j),),
     {0: NOT_RECORDS}),
    ("voltage_gain", voltage_gain, (0.05, 50.0, 4), {0: FINITE, 1: FINITE, 2: COUNTS}),
    ("power_gain_lossless", power_gain_lossless, (0.05, 50.0, 50.0, 4),
     {0: FINITE, 1: FINITE, 2: FINITE, 3: COUNTS}),
    ("power_gain_lossy", power_gain_lossy, (0.05, 50.0, 50.0, 0.01, 0.02, 4),
     {0: FINITE, 1: FINITE, 2: FINITE, 3: FINITE, 4: FINITE, 5: COUNTS}),
    ("n_opt_from_losses", n_opt_from_losses, (0.01, 0.02), {0: FINITE, 1: FINITE}),
    ("n_opt_from_params", n_opt_from_params, (1e9, 1.0, 1e-12, 200.0, 50.0),
     {0: FINITE, 1: FINITE, 2: FINITE, 3: FINITE, 4: FINITE}),
    ("recommended_n", recommended_n, (4.2,), {0: UP_TO_INF}),
    # c' = 1000*l'/z0^2 = 2.0, so any other c' is inconsistent with l' and z0
    ("MicrostripLine", MicrostripLine, (3.0, 0.5, FR4, 50.0, 5.0, 2.0),
     {0: FINITE, 1: FINITE, 2: NOT_RECORDS, 3: FINITE, 4: FINITE, 5: FINITE + (1.0, 2.1)}),
    ("z0_of", z0_of, (1.0, FR4), {0: FINITE, 1: NOT_RECORDS}),
    ("width_for", width_for, (50.0, FR4), {0: FINITE, 1: NOT_RECORDS}),
    ("line_constants", line_constants, (50.0, 4.4), {0: FINITE, 1: FINITE}),
    ("segment_length", segment_length, (1e-9, 2.77), {0: FINITE, 1: FINITE}),
    ("phase_shift", phase_shift, (1.0, 1e9, 2.77, 1.1),
     {0: FINITE, 1: FINITE, 2: FINITE, 3: FINITE}),
    ("synthesize_strip", synthesize_strip, (50.0, FR4, 1e-9),
     {0: FINITE, 1: NOT_RECORDS, 2: FINITE}),
    (
        "TaperProfile",
        lambda z, terminal: TaperProfile("gate", (50.0, z), terminal),
        (25.0, 50.0),
        {0: FINITE, 1: FINITE},
    ),
    (
        "TaperProfile-sections",
        lambda sections: TaperProfile("gate", sections),
        ((50.0, 25.0),),
        {0: (None, [50.0, 25.0], ())},
    ),
    (
        "overall_gamma",
        lambda g, theta: overall_gamma((0.1, g), theta),
        (-0.1, 1.0),
        {0: FINITE, 1: FINITE},
    ),
    (
        "overall_gamma_quarterwave",
        lambda g: overall_gamma_quarterwave((0.1, g)),
        (-0.1,),
        {0: FINITE},
    ),
    ("junction_gammas", junction_gammas, (GATE,), {0: NOT_RECORDS}),
    # a stage count is at most MAX_STAGES
    ("ginzton_profiles", ginzton_profiles, (4, 50.0), {0: COUNTS + (1001,), 1: FINITE}),
    ("equivalent_impedance", equivalent_impedance, (0.1, "gate", 50.0),
     {0: FINITE, 2: FINITE}),
    ("analyze_taper", analyze_taper, (GATE, DRAIN, 1e-12, 2e-13),
     {0: NOT_RECORDS, 1: NOT_RECORDS, 2: FINITE, 3: FINITE}),
    (
        "DesignOptions",
        DesignOptions,
        (50.0, 4, None, 1e-12, False, 1e9),
        {
            0: FINITE,
            1: (True, "4", 4.0, 1001),
            2: ("x", GATE, (GATE, GATE), [GATE, DRAIN]),
            3: OPTIONAL,
            4: (None, 0, "False"),
            5: OPTIONAL,
        },
    ),
    (
        "Network",
        _network,
        (50.0, 1e-12, 2e-9, 0.05, 50.0, 50.0),
        {0: FINITE, 1: FINITE, 2: FINITE, 3: FINITE, 4: FINITE, 5: FINITE},
    ),
    (
        "Network-elements",
        lambda element: Network(3, NET.elements + (element,), NET.port1, NET.port2),
        (Resistor(2, 0, 75.0),),
        {0: (None, "x", CELL, Resistor(1.0, 0, 50.0), Capacitor(True, 0, 1e-12),
             Vccs(2, 0, 1.0, 0, 0.05))},
    ),
    (
        "Network-ports",
        lambda port1, port2: Network(3, NET.elements, port1, port2),
        (Port(1, 50.0), Port(2, 50.0)),
        {0: NOT_PORTS, 1: NOT_PORTS},
    ),
    (
        "synthesize_design",
        synthesize_design,
        (GAN, FR4, DesignOptions()),
        # None stands for the default options
        {0: NOT_RECORDS, 1: NOT_RECORDS, 2: (True, "x", Port(1, 50.0))},
    ),
    ("report_to_json", report_to_json, (REPORT,), {0: NOT_RECORDS}),
    ("build_network", build_network, (REPORT,), {0: NOT_RECORDS}),
    ("s_parameters_at", s_parameters_at, (NET, 1e9), {0: NOT_RECORDS, 1: FINITE}),
    ("sweep", sweep, (NET, 1e8, 1e10, 11), {0: NOT_RECORDS, 1: FINITE, 2: FINITE, 3: COUNTS}),
    ("extract_metrics", extract_metrics, (sweep(NET, 1e8, 1e10, 11),), {0: NOT_RECORDS}),
    (
        "TwoPortSweep",
        TwoPortSweep,
        (FREQS, (MATRIX,) * 2, 50.0),
        {0: (None, "x", list(FREQS)), 1: NOT_MATRICES, 2: OPTIONAL + (0.0, -50.0)},
    ),
    (
        "TwoPortSweep-frequency",
        lambda f: TwoPortSweep((1e9, f), (MATRIX,) * 2, None),
        (2e9,),
        {0: FINITE + (0.0, -1e9)},
    ),
    ("TwoPortSweep-S-entry", _sweep_with_entry, (0.1 + 0j,), {0: COMPLEX}),
]


@pytest.fixture(params=ROWS, ids=[row[0] for row in ROWS])
def row(request):
    return request.param


def test_valid_arguments_are_accepted(row):
    _, func, args, _ = row
    func(*args)


def test_each_number_is_checked(row):
    _, func, args, bad_values = row
    missed = []
    for position, values in bad_values.items():
        for bad in values:
            call = list(args)
            call[position] = bad
            try:
                func(*call)
            except DakitError as exc:
                if not re.search("got " + re.escape(repr(bad)), str(exc)):
                    missed.append((position, bad, f"message {str(exc)!r}"))
            except Exception as exc:  # noqa: BLE001 - the failure under test
                missed.append((position, bad, f"{type(exc).__name__}: {exc}"))
            else:
                missed.append((position, bad, "accepted"))
    assert not missed, missed
