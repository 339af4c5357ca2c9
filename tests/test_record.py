"""The package's records behave as the frozen dataclasses they replace:
construction, equality, hashing, repr, immutability, copy and pickle. A
network's stamped state is no field: it is left out of all of these."""

import copy
import importlib
import inspect
import math
import pickle
import pkgutil

import numpy as np
import pytest

import dakit
from dakit import (
    Capacitor,
    Catalog,
    DakitError,
    DesignOptions,
    DesignReport,
    GainFigures,
    ImpedanceResult,
    Inductor,
    LineCell,
    LineSection,
    MicrostripLine,
    Network,
    Port,
    Resistor,
    ScreeningResult,
    Substrate,
    Table1Check,
    TaperProfile,
    TaperReport,
    SweepMetrics,
    TransistorModel,
    Vccs,
    VerificationRow,
    build_network,
    sweep,
    synthesize_design,
)
from dakit._record import Record
from dakit.mna import _analyse
from blocks import group_stamps

_GAN = dict(
    name="GAN-1", gm=0.05, cgs=1.79e-12, cds=2.983e-13, ri=0.0, rds=math.inf, reference=""
)
_GAN_REPR = (
    "TransistorModel(name='GAN-1', gm=0.05, cgs=1.79e-12, cds=2.983e-13, ri=0.0, rds=inf, "
    "reference='')"
)

# (class, every field by name in constructor order, a shorter call that
# leaves the defaults out as (args, kwargs), the dataclass repr)
CASES = [
    (TransistorModel, _GAN, (("GAN-1", 0.05, 1.79e-12, 2.983e-13), {}), _GAN_REPR),
    (
        Substrate,
        dict(er=4.4, h_mm=1.6, t_mm=0.0),
        ((4.4, 1.6), {}),
        "Substrate(er=4.4, h_mm=1.6, t_mm=0.0)",
    ),
    (
        Catalog,
        dict(transistors=(TransistorModel(**_GAN),), source=""),
        (((TransistorModel(**_GAN),),), {}),
        f"Catalog(transistors=({_GAN_REPR},), source='')",
    ),
    (
        VerificationRow,
        dict(
            reference_tag="[15]",
            effective_capacitance=1.79e-12,
            claimed_limit_hz=3.55e9,
            pout_w="",
            pae_pct="",
            gain_db="",
            achieved_band_ghz="",
        ),
        (("[15]", 1.79e-12, 3.55e9), {}),
        "VerificationRow(reference_tag='[15]', effective_capacitance=1.79e-12, "
        "claimed_limit_hz=3550000000.0, pout_w='', pae_pct='', gain_db='', achieved_band_ghz='')",
    ),
    (
        DesignOptions,
        dict(
            system_impedance=50.0,
            stages=3,
            taper=None,
            series_cap=None,
            include_microstrip_parasitics=False,
            design_frequency_hz=None,
        ),
        ((), {"stages": 3}),
        "DesignOptions(system_impedance=50.0, stages=3, taper=None, series_cap=None, "
        "include_microstrip_parasitics=False, design_frequency_hz=None)",
    ),
    (
        ScreeningResult,
        dict(
            name="GAN-1",
            direct_pass=True,
            required_series_cap=None,
            resulting_fc=1e10,
            gain_penalty_factor=1.0,
            note="",
        ),
        (("GAN-1", True, None, 1e10, 1.0), {}),
        "ScreeningResult(name='GAN-1', direct_pass=True, required_series_cap=None, "
        "resulting_fc=10000000000.0, gain_penalty_factor=1.0, note='')",
    ),
    (
        Table1Check,
        dict(
            tag="[4]",
            effective_capacitance=2e-14,
            claimed_limit_hz=3.18e11,
            computed_limit_hz=3.183e11,
            rel_error=0.001,
        ),
        None,
        "Table1Check(tag='[4]', effective_capacitance=2e-14, claimed_limit_hz=318000000000.0, "
        "computed_limit_hz=318300000000.0, rel_error=0.001)",
    ),
    (
        DesignReport,
        {
            name: k
            for k, name in enumerate(
                (
                    "transistor",
                    "options",
                    "effective_cgs",
                    "series_capacitor",
                    "gain_penalty_factor",
                    "stages",
                    "gate_cell",
                    "drain_cell",
                    "gate_cells",
                    "drain_cells",
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
            )
        },
        None,
        "DesignReport(transistor=0, options=1, effective_cgs=2, series_capacitor=3, "
        "gain_penalty_factor=4, stages=5, gate_cell=6, drain_cell=7, gate_cells=8, "
        "drain_cells=9, gate_line=10, drain_line=11, velocity_mismatch=12, "
        "phase_per_cell_gate=13, phase_per_cell_drain=14, design_frequency_hz=15, gains=16, "
        "taper=17, taper_gate_profile=18, taper_drain_profile=19, gate_section_lines=20, "
        "drain_section_lines=21, predicted_fc=22)",
    ),
    (
        LineCell,
        dict(inductance=1e-9, capacitance=4e-13),
        None,
        "LineCell(inductance=1e-09, capacitance=4e-13)",
    ),
    (
        LineSection,
        dict(z_series=2j, y_shunt=0.5 + 3j),
        None,
        "LineSection(z_series=2j, y_shunt=(0.5+3j))",
    ),
    (
        TaperProfile,
        dict(side="gate", sections=(50.0, 25.0), terminal_impedance=50.0),
        (("gate", (50.0, 25.0)), {}),
        "TaperProfile(side='gate', sections=(50.0, 25.0), terminal_impedance=50.0)",
    ),
    (
        TaperReport,
        dict(
            gamma_gate=0.1,
            gamma_drain=-0.2,
            z_gate=60.0,
            z_drain=40.0,
            fc_gate=3e9,
            fc_drain=4e9,
            fc_total=3e9,
        ),
        None,
        "TaperReport(gamma_gate=0.1, gamma_drain=-0.2, z_gate=60.0, z_drain=40.0, "
        "fc_gate=3000000000.0, fc_drain=4000000000.0, fc_total=3000000000.0)",
    ),
    (
        GainFigures,
        dict(av=2.5, gp_lossless=6.25, gp_lossy=5.0, n_opt_continuous=math.inf, n_recommended=6),
        None,
        "GainFigures(av=2.5, gp_lossless=6.25, gp_lossy=5.0, n_opt_continuous=inf, "
        "n_recommended=6)",
    ),
    (
        MicrostripLine,
        dict(
            width_mm=3.0,
            length_cm=0.5,
            substrate=Substrate(4.4, 1.6, 0.035),
            z0=50.0,
            l_nh_per_cm=5.0,
            c_pf_per_cm=2.0,
        ),
        None,
        "MicrostripLine(width_mm=3.0, length_cm=0.5, "
        "substrate=Substrate(er=4.4, h_mm=1.6, t_mm=0.035), z0=50.0, l_nh_per_cm=5.0, "
        "c_pf_per_cm=2.0)",
    ),
    (
        ImpedanceResult,
        dict(z0=50.0, valid=True),
        None,
        "ImpedanceResult(z0=50.0, valid=True)",
    ),
    (Resistor, dict(a=1, b=0, ohms=50.0), None, "Resistor(a=1, b=0, ohms=50.0)"),
    (Capacitor, dict(a=1, b=2, farads=1e-12), None, "Capacitor(a=1, b=2, farads=1e-12)"),
    (Inductor, dict(a=1, b=2, henries=2e-09), None, "Inductor(a=1, b=2, henries=2e-09)"),
    (
        Vccs,
        dict(out_p=2, out_m=0, ctrl_p=1, ctrl_m=0, gm=0.05),
        None,
        "Vccs(out_p=2, out_m=0, ctrl_p=1, ctrl_m=0, gm=0.05)",
    ),
    (Port, dict(node=1, z0=50.0), ((1,), {}), "Port(node=1, z0=50.0)"),
    (
        Network,
        dict(
            node_count=3,
            elements=(
                Resistor(1, 0, 50.0),
                Inductor(1, 2, 2e-9),
                Resistor(2, 0, 50.0),
                Vccs(2, 0, 1, 0, 0.05),
            ),
            port1=Port(1, 50.0),
            port2=Port(2, 50.0),
        ),
        None,
        "Network(node_count=3, elements=(Resistor(a=1, b=0, ohms=50.0), "
        "Inductor(a=1, b=2, henries=2e-09), Resistor(a=2, b=0, ohms=50.0), "
        "Vccs(out_p=2, out_m=0, ctrl_p=1, ctrl_m=0, gm=0.05)), port1=Port(node=1, z0=50.0), "
        "port2=Port(node=2, z0=50.0))",
    ),
    (
        SweepMetrics,
        dict(low_freq_gain_db=10.0, cutoff_hz=None, worst_s11_db=-12.5),
        None,
        "SweepMetrics(low_freq_gain_db=10.0, cutoff_hz=None, worst_s11_db=-12.5)",
    ),
]
_IDS = [case[0].__name__ for case in CASES]


@pytest.fixture(params=CASES, ids=_IDS)
def case(request):
    return request.param


def test_positional_keyword_and_default_construction_agree(case):
    cls, fields, short, _ = case
    record = cls(*fields.values())
    assert cls(**fields) == record
    for name, value in fields.items():
        assert getattr(record, name) is value
    if short is not None:
        args, kwargs = short
        assert cls(*args, **kwargs) == record


def test_equal_fields_give_equal_records_and_hashes(case):
    cls, fields, _, _ = case
    a, b = cls(**fields), cls(**fields)
    assert a is not b
    assert a == b and not a != b
    # a frozen dataclass hashes the tuple of its fields
    assert hash(a) == hash(b) == hash(tuple(fields.values()))


def test_records_of_another_class_never_compare_equal(case):
    cls, fields, _, _ = case
    other_cls = type(f"Other{cls.__name__}", (cls,), {})
    record, other = cls(**fields), other_cls(**fields)
    assert record != other and other != record
    assert record != tuple(fields.values())


def test_two_classes_holding_the_same_values_differ():
    assert LineCell(1e-9, 4e-13) != LineSection(1e-9, 4e-13)
    assert Substrate(4.4, 1.6, 0.035) != TaperReport(4.4, 1.6, 0.035, 1, 2, 3, 4)


def test_a_changed_field_breaks_equality():
    assert Substrate(4.4, 1.6) != Substrate(4.4, 1.6, 0.035)
    assert LineCell(1e-9, 4e-13) != LineCell(1e-9, 5e-13)
    assert DesignOptions(stages=3) != DesignOptions(stages=4)
    assert TransistorModel(**_GAN) != TransistorModel(**{**_GAN, "rds": 200.0})


def test_repr_is_the_dataclass_form(case):
    cls, fields, _, text = case
    assert repr(cls(**fields)) == text


def test_assignment_and_deletion_raise(case):
    cls, fields, _, _ = case
    record = cls(**fields)
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, 1)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert record == cls(**fields)


def test_copy_and_pickle_give_equal_records(case):
    cls, fields, _, _ = case
    record = cls(**fields)
    for clone in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(clone) is cls
        assert clone == record


def test_network_copies_are_stamped_again_and_solve_bit_identically():
    fields = dict(CASES[_IDS.index("Network")][1])
    net = Network(**fields)
    # two networks built alike hold distinct stamped arrays and still compare
    # equal: the arrays are no fields
    again = Network(**fields)
    assert again == net and hash(again) == hash(net)
    assert group_stamps(again) is not group_stamps(net)
    s = np.array(sweep(net, 1e8, 1e10, 21).s_matrices)
    for clone in (copy.copy(net), copy.deepcopy(net), pickle.loads(pickle.dumps(net))):
        assert clone == net and group_stamps(clone) is not group_stamps(net)
        assert np.array(sweep(clone, 1e8, 1e10, 21).s_matrices).tobytes() == s.tobytes()


def test_plans_analysed_apart_compare_and_hash_without_raising(gan, fr4):
    # a plan holds numpy arrays, so it is no Record: it equals only itself
    report = synthesize_design(gan, fr4)
    _analyse.cache_clear()
    first = build_network(report)
    _analyse.cache_clear()
    second = build_network(report)
    assert first._plan is not second._plan
    assert first._plan == first._plan and first._plan != second._plan
    assert isinstance(hash(first._plan), int) and isinstance(hash(second._plan), int)
    assert first == second and hash(first) == hash(second)


def _package_records():
    for module in pkgutil.iter_modules(dakit.__path__):
        importlib.import_module(f"dakit.{module.name}")
    return {cls for cls in Record.__subclasses__() if cls.__module__.startswith("dakit.")}


def test_every_record_is_a_case_and_takes_its_fields_in_order():
    # __reduce__ rebuilds a record from its field values, positionally
    records = _package_records()
    assert records == {case[0] for case in CASES}
    for cls in records:
        assert list(inspect.signature(cls).parameters) == list(cls._fields), cls


def test_every_record_gets_a_compiled_init_under_its_own_name():
    for cls in _package_records():
        # the __init__ in the class's own dict is the compiled one, so no
        # record writes its own
        init = vars(cls)["__init__"]
        assert init.__code__.co_filename == f"<{cls.__module__}.{cls.__qualname__}.__init__>"
        assert init.__qualname__ == f"{cls.__qualname__}.__init__"
    # a subclass of a checking record keeps its check
    with pytest.raises(DakitError):
        type("Checked", (Substrate,), {})(True, 1.6)


# every record's signature: parameter names in order, with their defaults;
# every parameter is positional-or-keyword, as __reduce__ needs
SIGNATURES = {
    TransistorModel: "name, gm, cgs, cds, ri=0.0, rds=inf, reference=''",
    Substrate: "er, h_mm, t_mm=0.0",
    Catalog: "transistors, source=''",
    VerificationRow: (
        "reference_tag, effective_capacitance, claimed_limit_hz, pout_w='', pae_pct='', "
        "gain_db='', achieved_band_ghz=''"
    ),
    DesignOptions: (
        "system_impedance=50.0, stages=None, taper=None, series_cap=None, "
        "include_microstrip_parasitics=False, design_frequency_hz=None"
    ),
    ScreeningResult: (
        "name, direct_pass, required_series_cap, resulting_fc, gain_penalty_factor, note=''"
    ),
    Table1Check: "tag, effective_capacitance, claimed_limit_hz, computed_limit_hz, rel_error",
    DesignReport: (
        "transistor, options, effective_cgs, series_capacitor, gain_penalty_factor, stages, "
        "gate_cell, drain_cell, gate_cells, drain_cells, gate_line, drain_line, "
        "velocity_mismatch, phase_per_cell_gate, phase_per_cell_drain, design_frequency_hz, "
        "gains, taper, taper_gate_profile, taper_drain_profile, gate_section_lines, "
        "drain_section_lines, predicted_fc"
    ),
    LineCell: "inductance, capacitance",
    LineSection: "z_series, y_shunt",
    TaperProfile: "side, sections, terminal_impedance=50.0",
    TaperReport: "gamma_gate, gamma_drain, z_gate, z_drain, fc_gate, fc_drain, fc_total",
    GainFigures: "av, gp_lossless, gp_lossy, n_opt_continuous, n_recommended",
    MicrostripLine: "width_mm, length_cm, substrate, z0, l_nh_per_cm, c_pf_per_cm",
    ImpedanceResult: "z0, valid",
    Resistor: "a, b, ohms",
    Capacitor: "a, b, farads",
    Inductor: "a, b, henries",
    Vccs: "out_p, out_m, ctrl_p, ctrl_m, gm",
    Port: "node, z0=50.0",
    Network: "node_count, elements, port1, port2",
    SweepMetrics: "low_freq_gain_db, cutoff_hz, worst_s11_db",
}


def test_each_record_keeps_its_parameter_names_kinds_and_defaults():
    assert set(SIGNATURES) == _package_records()
    for cls, expected in SIGNATURES.items():
        params = inspect.signature(cls).parameters.values()
        assert {p.kind for p in params} == {inspect.Parameter.POSITIONAL_OR_KEYWORD}, cls
        rendered = ", ".join(
            p.name if p.default is p.empty else f"{p.name}={p.default!r}" for p in params
        )
        assert rendered == expected, cls


# the records that check their fields
CHECKED = [case[:2] for case in CASES if hasattr(case[0], "__post_init__")]


@pytest.mark.parametrize("cls, fields", CHECKED, ids=[cls.__name__ for cls, _ in CHECKED])
def test_copies_of_a_checked_record_are_checked_again(cls, fields):
    record = cls(**fields)
    # a first field forced to None, past the frozen record's guard
    object.__setattr__(record, cls._fields[0], None)
    for clone in (copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))):
        with pytest.raises(DakitError, match="got None$"):
            clone(record)


def _drop_a_required_field(cls, fields):
    """The call without its first field that has no default, or None when
    every field has one, as in DesignOptions."""
    required = [name for name in fields if name not in getattr(cls, "_defaults", {})]
    if not required:
        return None
    return (), {name: value for name, value in fields.items() if name != required[0]}


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(_drop_a_required_field, id="missing"),
        pytest.param(lambda cls, fields: ((), {**fields, "unknown": 1}), id="unknown"),
        pytest.param(lambda cls, fields: ((*fields.values(), 1), {}), id="extra"),
        pytest.param(
            lambda cls, fields: ((next(iter(fields.values())),), fields), id="duplicate"
        ),
    ],
)
def test_compiled_init_refuses_a_bad_call_with_type_error(call):
    for cls, fields, _, _ in CASES:
        bad = call(cls, fields)
        if bad is None:
            continue
        args, kwargs = bad
        with pytest.raises(TypeError, match=rf"^{cls.__qualname__}\.__init__\(\) "):
            cls(*args, **kwargs)
