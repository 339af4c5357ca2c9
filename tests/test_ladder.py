import cmath
import math
import random

import pytest

from dakit import (
    DesignError,
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


def test_cell_for_impedance_sizes_inductor():
    cell = cell_for_impedance(50.0, 1.79e-12)
    assert math.isclose(cell.inductance, 4.475e-9, rel_tol=1e-12)
    assert math.isclose(cell.z0, 50.0, rel_tol=1e-12)


def test_cell_for_impedance_cutoff():
    cell = cell_for_impedance(50.0, 1e-12)
    assert math.isclose(cell.fc, 6366197723.675813, rel_tol=1e-12)


def test_cell_round_trip_impedance():
    rng = random.Random(7)
    for _ in range(200):
        z0 = rng.uniform(5.0, 400.0)
        c = 10 ** rng.uniform(-14.0, -10.0)
        cell = cell_for_impedance(z0, c)
        assert math.isclose(cell.z0, z0, rel_tol=1e-12)
        assert math.isclose(cell.fc, 1.0 / (math.pi * z0 * c), rel_tol=1e-12)


def test_cell_derived_fields_consistent():
    cell = LineCell(inductance=2.5e-9, capacitance=1e-12)
    assert cell.z0 == math.sqrt(cell.inductance / cell.capacitance)
    assert cell.fc == 1.0 / (math.pi * math.sqrt(cell.inductance * cell.capacitance))


def test_cell_rejects_nonpositive():
    with pytest.raises(DesignError):
        LineCell(inductance=0.0, capacitance=1e-12)
    with pytest.raises(DesignError):
        LineCell(inductance=1e-9, capacitance=-1e-12)


@pytest.mark.parametrize(
    "inductance, capacitance", [(1e-300, 1e-300), (1e300, 1e300), (1e300, 1e-300)]
)
def test_cell_out_of_range_products_rejected(inductance, capacitance):
    # L*C underflows to 0 or overflows, or L/C overflows: fc was a
    # ZeroDivisionError or 0 Hz, or z0 was inf
    with pytest.raises(DesignError, match="out of range"):
        LineCell(inductance=inductance, capacitance=capacitance)


@pytest.mark.parametrize("value", [1e-300, 1e300])
def test_cutoff_out_of_range_rejected(value):
    # pi*z0*C underflows to 0 (a ZeroDivisionError) or overflows (0 Hz)
    with pytest.raises(DesignError, match="out of range"):
        cutoff_frequency(value, value)


def test_cutoff_of_a_subnormal_product_rejected():
    # pi*z0*C is about 3e-310, whose reciprocal overflows: the cutoff was inf
    with pytest.raises(DesignError, match="out of range"):
        cutoff_frequency(1e-10, 1e-300)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_values_rejected(bad):
    with pytest.raises(DesignError):
        LineCell(inductance=bad, capacitance=1e-12)
    with pytest.raises(DesignError):
        LineCell(inductance=1e-9, capacitance=bad)
    with pytest.raises(DesignError):
        cell_for_impedance(bad, 1e-12)
    with pytest.raises(DesignError):
        cell_for_impedance(50.0, bad)
    with pytest.raises(DesignError):
        cutoff_frequency(bad, 1e-12)
    with pytest.raises(DesignError):
        cutoff_frequency(50.0, bad)
    for z, y in ((bad, 1j), (1j, bad), (complex(1.0, bad), 1j), (1j, complex(bad, 1.0))):
        with pytest.raises(DesignError, match="immittances must be finite"):
            LineSection(z_series=z, y_shunt=y)
    cell = cell_for_impedance(50.0, 1e-12)
    calls = [
        (gate_loss_per_cell, (bad, 1.0, 1e-12, 50.0)),
        (gate_loss_per_cell, (2e9, bad, 1e-12, 50.0)),
        (gate_loss_per_cell, (2e9, 1.0, bad, 50.0)),
        (gate_loss_per_cell, (2e9, 1.0, 1e-12, bad)),
        (drain_loss_per_cell, (bad, 200.0)),
        (gate_section, (bad, cell, 1.0, 1.0, 1e-12)),
        (gate_section, (1e9, cell, bad, 1.0, 1e-12)),
        (gate_section, (1e9, cell, 1.0, bad, 1e-12)),
        (gate_section, (1e9, cell, 1.0, 1.0, bad)),
        (drain_section, (bad, cell, 1.0, 200.0, 1e-12)),
        (drain_section, (1e9, cell, bad, 200.0, 1e-12)),
        (drain_section, (1e9, cell, 1.0, 200.0, bad)),
    ]
    for func, args in calls:
        with pytest.raises(DesignError):
            func(*args)


def test_cutoff_frequency_values():
    assert math.isclose(cutoff_frequency(50.0, 1.79e-12), 3556535041.1596723, rel_tol=1e-12)
    assert math.isclose(cutoff_frequency(50.0, 1.79e-12), 3.557e9, rel_tol=1e-3)


def test_gate_loss_per_cell_value():
    a = gate_loss_per_cell(2e9, 1.0, 1.79e-12, 50.0)
    assert math.isclose(a, 0.012649279784612166, rel_tol=1e-12)


def test_gate_loss_zero_ri():
    assert gate_loss_per_cell(2e9, 0.0, 1.79e-12, 50.0) == 0.0


def test_drain_loss_per_cell():
    assert drain_loss_per_cell(50.0, 200.0) == 0.125
    assert drain_loss_per_cell(50.0, math.inf) == 0.0


def test_loss_preconditions():
    with pytest.raises(DesignError):
        gate_loss_per_cell(0.0, 1.0, 1e-12, 50.0)
    with pytest.raises(DesignError):
        drain_loss_per_cell(-50.0, 200.0)
    # rds = inf is the lossless limit; only NaN is refused
    with pytest.raises(DesignError):
        drain_loss_per_cell(50.0, math.nan)
    with pytest.raises(DesignError):
        drain_section(1e9, cell_for_impedance(50.0, 1e-12), 1.0, math.nan, 1e-12)


def test_gate_section_immittances():
    cell = cell_for_impedance(50.0, 1.79e-12)
    sec = gate_section(1e9, cell, 1.0, ri=1.0, cgs=1.79e-12)
    assert cmath.isclose(sec.z_series, 28.11725424962865j, rel_tol=1e-12)
    w = 2 * math.pi * 1e9
    expected_y = 1j * w * 1.79e-12 / (1 + 1j * w * 1.79e-12)
    assert cmath.isclose(sec.y_shunt, expected_y, rel_tol=1e-12)


def test_gate_section_flag_adds_line_capacitance():
    cell = cell_for_impedance(50.0, 1.79e-12)
    w = 2 * math.pi * 1e9
    off = gate_section(1e9, cell, 2.0, ri=1.0, cgs=1.79e-12)
    on = gate_section(1e9, cell, 2.0, ri=1.0, cgs=1.79e-12, include_line_capacitance=True)
    assert on.z_series == off.z_series
    assert cmath.isclose(on.y_shunt - off.y_shunt, 1j * w * cell.capacitance / 2.0, rel_tol=1e-12)


def test_drain_section_immittances():
    cell = cell_for_impedance(50.0, 1e-12)
    sec = drain_section(2e9, cell, 1.0, rds=1000.0, cds=1e-12)
    assert cmath.isclose(sec.z_series, 31.41592653589793j, rel_tol=1e-12)
    assert cmath.isclose(sec.y_shunt, 0.001 + 0.012566370614359173j, rel_tol=1e-12)


def test_drain_section_lossless_drops_conductance():
    cell = cell_for_impedance(50.0, 1e-12)
    sec = drain_section(2e9, cell, 1.0, rds=math.inf, cds=1e-12)
    assert sec.y_shunt.real == 0.0


def test_propagation_constant_gate_example():
    cell = cell_for_impedance(50.0, 1.79e-12)
    sec = gate_section(1e9, cell, 1.0, ri=1.0, cgs=1.79e-12)
    g = propagation_constant(sec)
    assert math.isclose(g.real, 0.00316206996436825, rel_tol=1e-12)
    # small-loss closed form stays within a tenth of a percent here
    closed = gate_loss_per_cell(1e9, 1.0, 1.79e-12, 50.0)
    assert math.isclose(g.real, closed, rel_tol=1e-3)


def test_propagation_constant_drain_example():
    cell = cell_for_impedance(50.0, 1e-12)
    sec = drain_section(2e9, cell, 1.0, rds=1000.0, cds=1e-12)
    g = propagation_constant(sec)
    assert math.isclose(g.real, 0.024980265328858345, rel_tol=1e-12)
    assert math.isclose(g.real, drain_loss_per_cell(50.0, 1000.0), rel_tol=0.05)


def test_propagation_constant_nonnegative_real_part():
    rng = random.Random(11)
    for _ in range(300):
        cell = cell_for_impedance(rng.uniform(10, 200), 10 ** rng.uniform(-13.5, -11.5))
        f = 10 ** rng.uniform(7, 10.5)
        if rng.random() < 0.5:
            sec = gate_section(f, cell, rng.uniform(0.1, 5), rng.uniform(0, 10), cell.capacitance)
        else:
            sec = drain_section(f, cell, rng.uniform(0.1, 5), rng.uniform(20, 2000), cell.capacitance)
        assert propagation_constant(sec).real >= 0.0


def test_gate_loss_agreement_in_small_loss_regime():
    """Closed form matches the exact propagation constant while w*ri*cgs <= 0.1."""
    rng = random.Random(23)
    checked = 0
    while checked < 200:
        z0 = rng.uniform(20, 120)
        cgs = 10 ** rng.uniform(-13.5, -11.5)
        ri = rng.uniform(0.05, 20)
        f = 10 ** rng.uniform(7.5, 10.5)
        if 2 * math.pi * f * ri * cgs > 0.1:
            continue
        cell = cell_for_impedance(z0, cgs)
        sec = gate_section(f, cell, 1.0, ri, cgs)
        exact = propagation_constant(sec).real
        closed = gate_loss_per_cell(f, ri, cgs, z0)
        assert math.isclose(exact, closed, rel_tol=0.05)
        checked += 1


def test_drain_loss_agreement_in_high_rc_regime():
    """Closed form matches the exact propagation constant while w*rds*cds >= 5."""
    rng = random.Random(29)
    checked = 0
    while checked < 200:
        z0 = rng.uniform(20, 120)
        cds = 10 ** rng.uniform(-13.5, -11.5)
        rds = rng.uniform(50, 5000)
        f = 10 ** rng.uniform(8, 11)
        if 2 * math.pi * f * rds * cds < 5.0:
            continue
        cell = cell_for_impedance(z0, cds)
        sec = drain_section(f, cell, 1.0, rds, cds)
        exact = propagation_constant(sec).real
        closed = drain_loss_per_cell(z0, rds)
        assert math.isclose(exact, closed, rel_tol=0.05)
        checked += 1
