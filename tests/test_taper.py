import cmath
import math
import random

import pytest

from dakit import (
    DRAIN,
    GATE,
    DesignError,
    TaperProfile,
    analyze_taper,
    cutoff_frequency,
    equivalent_impedance,
    ginzton_profiles,
    junction_gammas,
    overall_gamma,
    overall_gamma_quarterwave,
)


def test_ginzton_profiles_shape():
    gate, drain = ginzton_profiles(4, 50.0)
    assert gate.sections == (50.0, 25.0, 50.0 / 3, 12.5, 10.0)
    assert drain.sections == (200.0, 100.0, 200.0 / 3, 50.0)
    assert gate.terminal_impedance == 50.0
    assert drain.terminal_impedance == 50.0


def test_junction_gammas_gate():
    gate, _ = ginzton_profiles(4, 50.0)
    gammas = junction_gammas(gate)
    assert len(gammas) == len(gate.sections)
    assert gammas[0] == 0.0
    for k, g in enumerate(gammas[1:], start=1):
        assert math.isclose(g, -1.0 / (2 * k + 1), rel_tol=1e-12)


def test_junction_gammas_drain():
    _, drain = ginzton_profiles(4, 50.0)
    gammas = junction_gammas(drain)
    assert len(gammas) == len(drain.sections)
    assert gammas[-1] == 0.0
    expected = (-1.0 / 3, -1.0 / 5, -1.0 / 7)
    for g, e in zip(gammas[:-1], expected):
        assert math.isclose(g, e, rel_tol=1e-12)


def test_overall_gamma_phasing():
    g = overall_gamma((0.1, 0.1), math.pi / 4)
    assert cmath.isclose(g, 0.1 - 0.1j, rel_tol=1e-12)


def test_quarterwave_matches_phased_sum():
    rng = random.Random(71)
    for _ in range(100):
        gammas = tuple(rng.uniform(-0.3, 0.3) for _ in range(rng.randint(1, 9)))
        alt = overall_gamma_quarterwave(gammas)
        phased = overall_gamma(gammas, math.pi / 2)
        assert abs(phased.imag) < 1e-12
        assert math.isclose(alt, phased.real, rel_tol=0, abs_tol=1e-12)


def test_equivalent_impedance_mappings_invert():
    for gamma in (-0.5, -0.1, 0.0, 0.2, 0.6):
        zg = equivalent_impedance(gamma, GATE, 50.0)
        zd = equivalent_impedance(gamma, DRAIN, 50.0)
        assert math.isclose(zg * zd, 2500.0, rel_tol=1e-12)


def test_equivalent_impedance_rejects_total_reflection():
    with pytest.raises(DesignError):
        equivalent_impedance(1.0, GATE)
    with pytest.raises(DesignError):
        equivalent_impedance(-1.2, DRAIN)


def test_analyze_taper_four_stage_values():
    gate, drain = ginzton_profiles(4, 50.0)
    cgs = 1.79e-12
    report = analyze_taper(gate, drain, cgs, cgs / 6.0)
    assert math.isclose(report.gamma_gate, 0.16507936507936516, rel_tol=1e-12)
    assert math.isclose(report.gamma_drain, -0.27619047619047626, rel_tol=1e-12)
    assert math.isclose(report.z_gate, 69.77186311787074, rel_tol=1e-12)
    assert math.isclose(report.z_drain, 88.15789473684214, rel_tol=1e-12)
    assert math.isclose(report.fc_gate, 2548688598.978184, rel_tol=1e-12)
    assert math.isclose(report.fc_drain, 12102835662.453806, rel_tol=1e-12)
    assert report.fc_total == min(report.fc_gate, report.fc_drain)


def test_flat_profile_reduces_to_uniform_line():
    gate = TaperProfile(GATE, (50.0,) * 5, 50.0)
    drain = TaperProfile(DRAIN, (50.0,) * 4, 50.0)
    report = analyze_taper(gate, drain, 1.79e-12, 1.79e-12 / 6.0)
    assert report.gamma_gate == 0.0
    assert report.gamma_drain == 0.0
    assert math.isclose(report.z_gate, 50.0, rel_tol=1e-12)
    assert math.isclose(report.fc_gate, cutoff_frequency(50.0, 1.79e-12), rel_tol=1e-12)


def test_tapered_gate_cutoff_below_uniform():
    cgs = 1.79e-12
    uniform = cutoff_frequency(50.0, cgs)
    for n in range(2, 9):
        gate, drain = ginzton_profiles(n, 50.0)
        report = analyze_taper(gate, drain, cgs, cgs / 6.0)
        assert report.fc_gate < uniform


def test_profile_validation():
    with pytest.raises(DesignError):
        TaperProfile("source", (50.0,))
    with pytest.raises(DesignError):
        TaperProfile(GATE, ())
    # a list would pass the value checks, then break junction_gammas and hash()
    with pytest.raises(DesignError):
        TaperProfile(GATE, [50.0, 25.0])
    with pytest.raises(DesignError):
        TaperProfile(GATE, (50.0, -25.0))
    with pytest.raises(DesignError):
        TaperProfile(GATE, (50.0,), terminal_impedance=0.0)


@pytest.mark.parametrize("bad", ["a", None, True, False, 1j, (50.0,)])
def test_non_numeric_impedances_rejected(bad):
    # True would otherwise pass "0 < z < inf" as a 1 ohm section
    with pytest.raises(DesignError, match="section impedances"):
        TaperProfile(GATE, (bad, 25.0))
    with pytest.raises(DesignError, match="section impedances"):
        TaperProfile(DRAIN, (100.0, bad))
    with pytest.raises(DesignError, match="terminal impedance"):
        TaperProfile(GATE, (50.0,), terminal_impedance=bad)


def test_int_impedances_accepted():
    profile = TaperProfile(DRAIN, (200, 100.0), terminal_impedance=50)
    assert profile.sections == (200, 100.0)
    assert profile.terminal_impedance == 50


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_values_rejected(bad):
    with pytest.raises(DesignError):
        TaperProfile(GATE, (50.0, bad))
    with pytest.raises(DesignError):
        TaperProfile(GATE, (50.0,), terminal_impedance=bad)
    gate, drain = ginzton_profiles(3, 50.0)
    with pytest.raises(DesignError):
        analyze_taper(gate, drain, bad, 1e-12)
    with pytest.raises(DesignError):
        analyze_taper(gate, drain, 1e-12, bad)
    with pytest.raises(DesignError):
        equivalent_impedance(bad, GATE)
    with pytest.raises(DesignError):
        equivalent_impedance(0.1, DRAIN, bad)
    with pytest.raises(DesignError, match="system impedance"):
        ginzton_profiles(3, bad)
    with pytest.raises(DesignError, match="theta"):
        overall_gamma((0.1, -0.05), bad)
    with pytest.raises(DesignError, match="gamma"):
        overall_gamma((0.1, bad), math.pi / 2)


def test_analyze_taper_requires_gate_drain_pair():
    gate, drain = ginzton_profiles(3, 50.0)
    with pytest.raises(DesignError):
        analyze_taper(drain, drain, 1e-12, 1e-12)
    with pytest.raises(DesignError):
        analyze_taper(gate, gate, 1e-12, 1e-12)
    with pytest.raises(DesignError):
        analyze_taper(gate, drain, 0.0, 1e-12)


def test_ginzton_validation():
    with pytest.raises(DesignError):
        ginzton_profiles(0, 50.0)
    with pytest.raises(DesignError):
        ginzton_profiles(4, -50.0)


@pytest.mark.parametrize("n", [2.5, True, 0])
def test_ginzton_stage_count_must_be_a_positive_integer(n):
    with pytest.raises(DesignError, match="stage count must be a positive integer"):
        ginzton_profiles(n, 50.0)
