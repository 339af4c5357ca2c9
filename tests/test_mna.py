import copy
import dataclasses
import math
import pickle
import re
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dakit import (
    LINEAR,
    LOG,
    Capacitor,
    DesignError,
    DesignOptions,
    GeometryError,
    Inductor,
    Network,
    Port,
    Resistor,
    SimulationError,
    TransistorModel,
    TwoPortSweep,
    Vccs,
    build_network,
    extract_metrics,
    s_parameters_at,
    sweep,
    synthesize_design,
)
from dakit import mna
from dakit.mna import _BUDGET, _analyse, _block_width, _db
from blocks import block_points, block_rows, points_for, slot_program
from records import replace

# matched symmetric pi attenuator, voltage ratio A: shunt z0(A+1)/(A-1),
# series z0(A^2-1)/(2A); reflectionless with |S21| = 1/A by construction
def pi_pad(a: float = 2.0, z0: float = 50.0) -> Network:
    r_shunt = z0 * (a + 1.0) / (a - 1.0)
    r_series = z0 * (a * a - 1.0) / (2.0 * a)
    return Network(
        node_count=3,
        elements=(
            Resistor(1, 0, r_shunt),
            Resistor(1, 2, r_series),
            Resistor(2, 0, r_shunt),
        ),
        port1=Port(1, z0),
        port2=Port(2, z0),
    )


def lc_ladder(n: int = 4, henries: float = 2.5e-9, farads: float = 1e-12) -> Network:
    # passive T-section chain, matched terminations left to the ports
    nodes = list(range(1, n + 2))
    elements: list = []
    for i, (a, b) in enumerate(zip(nodes, nodes[1:])):
        half = i == 0 or i == n - 1
        elements.append(Inductor(a, b, henries / 2.0 if half else henries))
    for node in nodes[1:-1] if n > 1 else nodes:
        elements.append(Capacitor(node, 0, farads))
    return Network(
        node_count=n + 2,
        elements=tuple(elements),
        port1=Port(1, 50.0),
        port2=Port(nodes[-1], 50.0),
    )


def proto_amp():
    t = TransistorModel(name="PROTO", gm=0.05, cgs=1e-12, cds=1e-12)
    from dakit import Substrate

    sub = Substrate(er=4.4, h_mm=1.6, t_mm=0.035)
    return synthesize_design(t, sub, DesignOptions(stages=4))


def lossy_series_amp(fr4):
    t = TransistorModel(name="L", gm=0.04, cgs=1.2e-12, cds=0.2e-12, ri=1.5, rds=220.0)
    return synthesize_design(t, fr4, DesignOptions(stages=3, series_cap=0.4e-12))


_LOAD2 = Resistor(2, 0, 50.0)
_LOADS = (Resistor(1, 0, 50.0), _LOAD2)


class TestNetworkValidation:
    def test_needs_two_nodes(self):
        with pytest.raises(DesignError):
            Network(1, (), Port(0), Port(0))

    def test_port_range_and_ground(self):
        r = (Resistor(1, 0, 50.0),)
        with pytest.raises(DesignError):
            Network(3, r, Port(0), Port(1))
        with pytest.raises(DesignError):
            Network(3, r, Port(1), Port(5))

    def test_ports_distinct(self):
        with pytest.raises(DesignError):
            Network(2, (Resistor(1, 0, 50.0),), Port(1), Port(1))

    def test_port_impedance_positive(self):
        with pytest.raises(DesignError):
            Network(3, (Resistor(1, 0, 50.0), Resistor(2, 0, 50.0)), Port(1, 0.0), Port(2))

    def test_element_values_positive(self):
        with pytest.raises(DesignError):
            Network(3, (Resistor(1, 0, -1.0), Resistor(2, 0, 50.0)), Port(1), Port(2))
        with pytest.raises(DesignError):
            Network(3, (Capacitor(1, 0, 0.0), Resistor(2, 0, 50.0)), Port(1), Port(2))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_values_rejected(self, bad):
        load = Resistor(2, 0, 50.0)
        for element in (Resistor(1, 0, bad), Capacitor(1, 0, bad), Inductor(1, 0, bad)):
            with pytest.raises(DesignError):
                Network(3, (element, load), Port(1), Port(2))
        with pytest.raises(DesignError):
            Network(3, (Resistor(1, 0, 50.0), load, Vccs(2, 0, 1, 0, bad)), Port(1), Port(2))
        with pytest.raises(DesignError):
            Network(3, (Resistor(1, 0, 50.0), load), Port(1, bad), Port(2))

    # the topology checks run in the cached analysis; a refused topology is
    # not cached, so building the same bad network again is refused again

    def test_self_loop_rejected(self):
        for _ in range(2):
            with pytest.raises(DesignError):
                Network(3, (Resistor(1, 1, 50.0), Resistor(2, 0, 50.0)), Port(1), Port(2))
            # both ports grounded, so only the self-short check refuses it
            loads = (Resistor(1, 0, 50.0), Resistor(2, 0, 50.0))
            with pytest.raises(DesignError, match="itself"):
                Network(3, (*loads, Capacitor(2, 2, 1e-12)), Port(1), Port(2))

    def test_element_nodes_in_range(self):
        for _ in range(2):
            with pytest.raises(DesignError):
                Network(3, (Resistor(1, 7, 50.0),), Port(1), Port(2))
            with pytest.raises(DesignError):
                Network(3, (Vccs(1, 0, 9, 0, 0.01), Resistor(1, 0, 50.0), Resistor(2, 0, 50.0)), Port(1), Port(2))

    # refused with DesignError, not TypeError or AttributeError; a bool or a
    # float is not taken for the int it equals, even once the well-typed
    # topology is cached
    @pytest.mark.parametrize(
        "args",
        [
            (3, (Resistor(1.0, 0, 50.0), _LOAD2), Port(1), Port(2)),
            (3, (Resistor(True, 0, 50.0), _LOAD2), Port(1), Port(2)),
            (3, (*_LOADS, Vccs(2, 0, 1.0, 0, 0.05)), Port(1), Port(2)),
            (3, (Resistor(1, 0, "50"), _LOAD2), Port(1), Port(2)),
            (3, (Resistor(1, 0, True), _LOAD2), Port(1), Port(2)),
            (3, (*_LOADS, Vccs(2, 0, 1, 0, 0.05 + 0j)), Port(1), Port(2)),
            (3, (*_LOADS, Vccs(2, 0, 1, 0, True)), Port(1), Port(2)),
            (3.0, _LOADS, Port(1), Port(2)),
            (3, list(_LOADS), Port(1), Port(2)),
            (3, _LOADS, 1, Port(2)),
            (3, _LOADS, Port(1.0), Port(2)),
            (3, _LOADS, Port(1, "50"), Port(2)),
        ],
        ids=[
            "float-node",
            "bool-node",
            "float-control-node",
            "str-ohms",
            "bool-ohms",
            "complex-gm",
            "bool-gm",
            "float-node-count",
            "list-elements",
            "int-port",
            "float-port-node",
            "str-port-z0",
        ],
    )
    def test_ill_typed_input_rejected(self, args):
        Network(3, (*_LOADS, Vccs(2, 0, 1, 0, 0.05)), Port(1), Port(2))
        with pytest.raises(DesignError):
            Network(*args)

    def test_unknown_element_rejected(self):
        with pytest.raises(DesignError):
            Network(3, ("not an element",), Port(1), Port(2))

    def test_floating_port_rejected(self):
        # node 2 is only driven by the vccs; no passive path to ground
        for _ in range(2):
            with pytest.raises(DesignError):
                Network(
                    3,
                    (Resistor(1, 0, 50.0), Vccs(2, 0, 1, 0, 0.05)),
                    Port(1),
                    Port(2),
                )


class TestSParameters:
    def test_rejects_nonpositive_frequency(self):
        with pytest.raises(SimulationError):
            s_parameters_at(pi_pad(), 0.0)

    @pytest.mark.parametrize("f", [1e-300, 1e308])
    def test_extreme_frequency_is_simulation_error(self, f):
        # Gamma/(jw) or w itself overflows, so S is not finite; no numpy
        # warning escapes
        with pytest.raises(SimulationError, match=re.escape(f"non-finite S-parameters at {f} Hz")):
            s_parameters_at(lc_ladder(), f)

    def test_matched_attenuator(self):
        s = s_parameters_at(pi_pad(a=2.0), 1e9)
        assert abs(s[0][0]) < 1e-12
        assert abs(s[1][1]) < 1e-12
        assert math.isclose(abs(s[1][0]), 0.5, rel_tol=1e-12)
        assert math.isclose(abs(s[0][1]), 0.5, rel_tol=1e-12)

    def test_attenuator_depth_sweep(self):
        for a in (1.5, 2.0, 4.0, 10.0):
            s = s_parameters_at(pi_pad(a=a), 2e9)
            assert abs(s[0][0]) < 1e-12
            assert math.isclose(abs(s[1][0]), 1.0 / a, rel_tol=1e-12)

    def test_no_internal_nodes_branch(self):
        net = Network(
            3,
            (Resistor(1, 0, 50.0), Resistor(1, 2, 100.0), Resistor(2, 0, 50.0)),
            Port(1),
            Port(2),
        )
        s = s_parameters_at(net, 1e9)
        assert abs(s[0][1] - s[1][0]) < 1e-12
        assert abs(s[1][0]) < 1.0

    def test_passive_ladder_reciprocal_and_lossless(self):
        net = lc_ladder()
        for f in (1e8, 1e9, 3e9, 5e9):
            s = s_parameters_at(net, f)
            assert abs(s[0][1] - s[1][0]) < 1e-12
            power = abs(s[0][0]) ** 2 + abs(s[1][0]) ** 2
            assert math.isclose(power, 1.0, rel_tol=0, abs_tol=1e-9)


class TestBuildNetwork:
    def test_plain_report_structure(self):
        net = build_network(proto_amp())
        assert net.node_count == 13
        assert len(net.elements) == 24
        gate_l = [e.henries for e in net.elements if isinstance(e, Inductor)][:5]
        expected = [1.25e-9, 2.5e-9, 2.5e-9, 2.5e-9, 1.25e-9]
        for got, want in zip(gate_l, expected):
            assert math.isclose(got, want, rel_tol=1e-12)
        terms = [e for e in net.elements if isinstance(e, Resistor)]
        assert len(terms) == 2
        assert all(r.ohms == 50.0 for r in terms)
        assert sum(isinstance(e, Vccs) for e in net.elements) == 4

    def test_lossy_series_report_structure(self, fr4):
        net = build_network(lossy_series_amp(fr4))
        # per stage: series cap, ri, cgs, rds, cds, vccs; chains 4+4; 2 terms
        assert sum(isinstance(e, Capacitor) for e in net.elements) == 3 * 3
        assert sum(isinstance(e, Resistor) for e in net.elements) == 2 + 2 * 3
        assert sum(isinstance(e, Vccs) for e in net.elements) == 3

    @pytest.mark.parametrize("series", [None, "match-drain"], ids=["no-series", "match-drain"])
    @pytest.mark.parametrize("parasitics", [False, True], ids=["plain", "parasitics"])
    @pytest.mark.parametrize("taper", [None, "ginzton"], ids=["uniform", "ginzton"])
    def test_line_chains_stamp_the_report_cells(self, gan, fr4, taper, parasitics, series):
        options = DesignOptions(
            stages=4, taper=taper, series_cap=series, include_microstrip_parasitics=parasitics
        )
        rep = synthesize_design(gan, fr4, options)
        net = build_network(rep)
        inductors = [e for e in net.elements if isinstance(e, Inductor)]
        for chain, cells in ((inductors[:5], rep.gate_cells), (inductors[5:], rep.drain_cells)):
            l = [cell.inductance for cell in cells]
            assert len(l) == 4
            # half cells at the ends, adjacent halves merged in between
            want = [l[0] / 2.0, *[(a + b) / 2.0 for a, b in zip(l, l[1:])], l[3] / 2.0]
            assert [e.henries for e in chain] == want
            assert all(a.b == b.a for a, b in zip(chain, chain[1:]))
        # both terminations and both ports at the requested impedance
        assert [e.ohms for e in net.elements if isinstance(e, Resistor)] == [50.0, 50.0]
        assert net.port1.z0 == net.port2.z0 == 50.0

    @pytest.mark.parametrize("stages", [3, 5])
    def test_stage_count_must_match_the_cells(self, stages):
        # an edited report: fewer stages than cells would stamp full cells
        # at the line ends, more would leave the output port floating
        with pytest.raises(DesignError, match=f"{stages} stages but 4 gate and 4 drain cells"):
            build_network(replace(proto_amp(), stages=stages))

    def test_device_override(self):
        rep = proto_amp()
        hot = TransistorModel(name="HOT", gm=0.1, cgs=1e-12, cds=1e-12)
        s_base = s_parameters_at(build_network(rep), 10e6)
        s_hot = s_parameters_at(build_network(replace(rep, transistor=hot)), 10e6)
        assert math.isclose(abs(s_hot[1][0]) / abs(s_base[1][0]), 2.0, rel_tol=1e-4)


class TestAmplifierResponse:
    def test_low_frequency_gain(self):
        net = build_network(proto_amp())
        s = s_parameters_at(net, 10e6)
        assert math.isclose(abs(s[1][0]), 5.0000123363967175, rel_tol=1e-12)
        # n*gm*z0/2 with everything matched
        assert math.isclose(abs(s[1][0]), 5.0, rel_tol=1e-4)

    def test_gain_scales_with_stage_count(self, fr4):
        t = TransistorModel(name="PROTO", gm=0.05, cgs=1e-12, cds=1e-12)
        mags = {}
        for n in range(1, 7):
            rep = synthesize_design(t, fr4, DesignOptions(stages=n))
            s = s_parameters_at(build_network(rep), 10e6)
            mags[n] = abs(s[1][0])
        base = mags[1]
        for n, mag in mags.items():
            assert math.isclose(mag, n * base, rel_tol=5e-3)

    def test_cutoff_near_line_cutoff(self):
        rep = proto_amp()
        net = build_network(rep)
        metrics = extract_metrics(sweep(net, 10e6, 15e9, 401))
        assert math.isclose(metrics.low_freq_gain_db, 13.979421517210023, rel_tol=1e-12)
        assert metrics.cutoff_hz is not None
        assert math.isclose(metrics.cutoff_hz, 6379776991.434338, rel_tol=1e-12)
        assert math.isclose(metrics.cutoff_hz, rep.predicted_fc, rel_tol=0.15)


class TestSweep:
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_frequencies_rejected(self, bad):
        with pytest.raises(SimulationError):
            sweep(pi_pad(), 1e6, bad, 11)
        with pytest.raises(SimulationError):
            sweep(pi_pad(), bad, 1e9, 11)
        with pytest.raises(SimulationError):
            s_parameters_at(pi_pad(), bad)

    def test_validation(self):
        net = pi_pad()
        with pytest.raises(SimulationError):
            sweep(net, 0.0, 1e9, 11)
        with pytest.raises(SimulationError):
            sweep(net, 2e9, 1e9, 11)
        with pytest.raises(SimulationError):
            sweep(net, 1e8, 1e9, 1)
        with pytest.raises(SimulationError):
            sweep(net, 1e6, 2e6, 2.5)
        with pytest.raises(SimulationError):
            sweep(net, 1e6, 2e6, True)
        with pytest.raises(SimulationError):
            sweep(net, 1e8, 1e9, 11, spacing="decade")

    def test_sweep_from_a_tiny_frequency_names_it(self):
        with pytest.raises(SimulationError, match=r"non-finite S-parameters at 1e-300 Hz"):
            sweep(lc_ladder(), 1e-300, 1e9, 5)

    @pytest.mark.parametrize("points", [2, 3, 1001, 4001])
    @pytest.mark.parametrize("f_start, f_stop", [(10e6, 15e9), (1e4, 1e10), (0.3, 7.0)])
    def test_grid_is_cpythons_per_point_formula(self, points, f_start, f_stop):
        step = (f_stop - f_start) / (points - 1)
        lstep = (math.log(f_stop) - math.log(f_start)) / (points - 1)
        grids = {
            LINEAR: [f_start + k * step for k in range(points)],
            LOG: [math.exp(math.log(f_start) + k * lstep) for k in range(points)],
        }
        for spacing, grid in grids.items():
            freqs = sweep(pi_pad(), f_start, f_stop, points, spacing).frequencies
            assert freqs.__class__ is np.ndarray and freqs.dtype == np.float64
            assert freqs.shape == (points,) and freqs.flags.c_contiguous
            assert not freqs.flags.writeable
            # the ends are the requested ones, whatever the formula gives
            assert freqs[0].hex() == float(f_start).hex()
            assert freqs[-1].hex() == float(f_stop).hex()
            inner = freqs[1:-1].tolist()
            assert list(map(float.hex, inner)) == list(map(float.hex, grid[1:-1]))

    def test_linear_grid(self):
        swp = sweep(pi_pad(), 1e8, 1e9, 10)
        assert swp.frequencies[0] == 1e8
        assert swp.frequencies[-1] == 1e9
        diffs = [b - a for a, b in zip(swp.frequencies, swp.frequencies[1:])]
        assert max(diffs) - min(diffs) < 1e-3

    def test_log_grid(self):
        swp = sweep(pi_pad(), 1e6, 1e9, 4, spacing="log")
        assert swp.frequencies[0] == 1e6
        assert swp.frequencies[-1] == 1e9
        ratios = [b / a for a, b in zip(swp.frequencies, swp.frequencies[1:])]
        for r in ratios:
            assert math.isclose(r, 10.0, rel_tol=1e-9)

    def test_deterministic(self):
        net = build_network(proto_amp())
        assert sweep(net, 10e6, 10e9, 21) == sweep(net, 10e6, 10e9, 21)

    def test_s_is_one_read_only_array(self):
        net = build_network(proto_amp())
        swp = sweep(net, 10e6, 10e9, 21)
        assert swp.s_matrices.shape == (21, 2, 2)
        assert swp.s_matrices.dtype == np.complex128
        with pytest.raises(ValueError, match="read-only"):
            swp.s_matrices[0, 1, 0] = 0.0
        single = s_parameters_at(net, 10e6)
        assert single.shape == (2, 2)
        with pytest.raises(ValueError, match="read-only"):
            single[1, 0] = 0.0

    def test_sweeps_of_one_network_compare_and_hash_equal(self):
        net = build_network(proto_amp())
        first, second = sweep(net, 10e6, 10e9, 21), sweep(net, 10e6, 10e9, 21)
        assert first.s_matrices is not second.s_matrices
        assert first == second and hash(first) == hash(second)
        # nested lists of Python complex are converted once, to the same bytes
        rebuilt = TwoPortSweep(first.frequencies, first.s_matrices.tolist(), 50.0)
        assert rebuilt == first and hash(rebuilt) == hash(first)
        assert not rebuilt.s_matrices.flags.writeable
        # and so are a tuple of frequencies and nested tuples of S
        nested = TwoPortSweep(
            tuple(first.frequencies.tolist()),
            tuple(tuple(map(tuple, m)) for m in first.s_matrices.tolist()),
            50.0,
        )
        assert nested == first and hash(nested) == hash(first)
        assert not nested.frequencies.flags.writeable

    def test_sweep_one_ulp_apart_compares_unequal(self):
        swp = sweep(build_network(proto_amp()), 10e6, 10e9, 21)
        s = swp.s_matrices.copy()
        s21 = complex(s[7, 1, 0])
        s[7, 1, 0] = complex(math.nextafter(s21.real, math.inf), s21.imag)
        nudged = TwoPortSweep(swp.frequencies, s, swp.reference_impedance)
        assert nudged != swp
        # the constructor copied the writeable array it was given
        s[7, 1, 0] = s21
        assert nudged != swp
        assert swp != dataclasses.replace(swp, reference_impedance=75.0)
        # a frequency one ulp off, from an array or a tuple
        freqs = swp.frequencies.copy()
        freqs[7] = math.nextafter(freqs[7], math.inf)
        for nudged in (freqs, tuple(freqs.tolist())):
            assert TwoPortSweep(nudged, swp.s_matrices, 50.0) != swp
        # the constructor copied the writeable array of frequencies too
        moved = TwoPortSweep(freqs, swp.s_matrices, 50.0)
        freqs[7] = swp.frequencies[7]
        assert moved != swp and not moved.frequencies.flags.writeable

    @pytest.mark.parametrize(
        "clone",
        [copy.copy, copy.deepcopy, lambda s: pickle.loads(pickle.dumps(s)), dataclasses.replace],
        ids=["copy", "deepcopy", "pickle", "replace"],
    )
    def test_copies_stay_read_only(self, clone):
        swp = sweep(pi_pad(), 1e8, 1e9, 3)
        copied = clone(swp)
        assert copied == swp and hash(copied) == hash(swp)
        assert not copied.s_matrices.flags.writeable
        freqs = copied.frequencies
        assert freqs.__class__ is np.ndarray and freqs.dtype == np.float64
        assert freqs.flags.c_contiguous and not freqs.flags.writeable

    @pytest.mark.parametrize("bad", [0.0, -3.0, math.nan, math.inf, -math.inf])
    def test_the_first_bad_frequency_of_an_array_is_named(self, bad):
        # as a Python float, as the tuple's check names it
        s = (((0.1 + 0j, 0j), (1 + 0j, 0j)),) * 4
        freqs = np.array([1e9, 2e9, bad, -1.0])
        freqs.flags.writeable = False
        message = f"frequency must be positive and finite, got {bad!r}"
        with pytest.raises(SimulationError, match=f"^{re.escape(message)}$"):
            TwoPortSweep(freqs, s, 50.0)

    @pytest.mark.parametrize(
        "freqs", [np.array([1, 2]), np.array([[1e9, 2e9]]), [1e9, 2e9]], ids=["int", "2-D", "list"]
    )
    def test_frequencies_of_another_type_are_refused(self, freqs):
        s = (((0.1 + 0j, 0j), (1 + 0j, 0j)),) * 2
        with pytest.raises(SimulationError, match="^frequencies must be a tuple, got "):
            TwoPortSweep(freqs, s, 50.0)

    def test_non_finite_array_refused(self):
        swp = sweep(pi_pad(), 1e8, 1e9, 3)
        s = swp.s_matrices.copy()
        s[2, 0, 1] = complex(1.0, math.nan)
        s.flags.writeable = False
        with pytest.raises(SimulationError, match=re.escape("got (1+nanj)")):
            TwoPortSweep(swp.frequencies, s, 50.0)

    def test_a_sweep_equals_the_checked_sweep_of_its_values(self):
        # sweep stores its grid and S without the constructor's checks
        swp = sweep(build_network(proto_amp()), 10e6, 10e9, 21, spacing=LOG)
        rebuilt = TwoPortSweep(swp.frequencies, swp.s_matrices, swp.reference_impedance)
        assert rebuilt == swp

    @pytest.mark.parametrize(
        "freqs, bad",
        [((1e9, 2, -3.0), -3.0), ((1e9, 2e9, math.nan), math.nan), ((True, 2e9), True),
         ((1e9, 2, 3e9), None), ((1e9, 0.0, -3e9), 0.0), ((1e9, "2e9"), "2e9")],
    )
    def test_the_first_bad_frequency_is_named(self, freqs, bad):
        # ints pass as positive passes them
        s = (((0.1 + 0j, 0j), (1 + 0j, 0j)),) * len(freqs)
        if bad is None:
            got = TwoPortSweep(freqs, s, 50.0).frequencies.tolist()
            assert list(map(float.hex, got)) == [float(f).hex() for f in freqs]
            return
        message = f"frequency must be positive and finite, got {bad!r}"
        with pytest.raises(SimulationError, match=f"^{re.escape(message)}$"):
            TwoPortSweep(freqs, s, 50.0)


# entries that a frequency must not be; the first three are good entries of S
_BAD_ENTRIES = (
    0.0, -1, -1.0, math.nan, math.inf, -math.inf, True, "1", None,
    complex(math.nan, 1.0), complex(1.0, math.inf),
)


def _nested(values: list, shape: tuple) -> tuple:
    """values as nested tuples of shape, in C order."""
    if len(shape) == 1:
        return tuple(values)
    step = len(values) // shape[0]
    return tuple(_nested(values[k * step : (k + 1) * step], shape[1:]) for k in range(shape[0]))


@st.composite
def sweep_inputs(draw):
    """Frequencies and the entries of S in C order, S's shape, maybe wrong,
    and whether the constructor must refuse them: maybe one entry of either
    is bad."""
    points = draw(st.integers(1, 5))
    freqs = draw(st.lists(st.floats(1e-3, 1e12), min_size=points, max_size=points))
    good_shape = (points, 2, 2)
    shape = draw(st.sampled_from([good_shape, (points + 1, 2, 2), (points, 4), (points, 2, 1)]))
    finite = st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False)
    s = draw(st.lists(finite, min_size=math.prod(shape), max_size=math.prod(shape)))
    refused = shape != good_shape
    target = draw(st.sampled_from([None, freqs, s]))
    if target is not None:
        bad = draw(st.sampled_from(_BAD_ENTRIES))
        target[draw(st.integers(0, len(target) - 1))] = bad
        refused |= target is freqs or bad not in _BAD_ENTRIES[:3]
    return freqs, s, shape, refused


def _built(freqs, s):
    """The sweep of freqs and s, or the message that refuses them, with S's
    repr, which the shape message shows, in one spelling for every form."""
    try:
        return TwoPortSweep(freqs, s, 50.0)
    except SimulationError as exc:
        return str(exc).replace(repr(s), "<S>")


@settings(max_examples=400, deadline=None, derandomize=True)
@given(sweep_inputs(), st.booleans(), st.booleans(), st.booleans())
def test_array_and_tuple_forms_build_the_same_sweep(inputs, freq_array, s_array, read_only):
    # either input is a float64 or complex128 array when every entry fits
    # one, with the same entries as its tuple form, and the two forms build
    # equal sweeps or are refused with the same message
    freqs, s, shape, refused = inputs
    as_tuples = (tuple(freqs), _nested(s, shape))
    freqs_in, s_in = as_tuples
    if freq_array and all(type(f) is float for f in freqs):
        freqs_in = np.array(freqs)
        freqs_in.flags.writeable = not read_only
    if s_array and all(type(v) is complex for v in s):
        s_in = np.array(s).reshape(shape)
        s_in.flags.writeable = not read_only
    want, got = _built(*as_tuples), _built(freqs_in, s_in)
    assert isinstance(want, TwoPortSweep) is not refused
    assert got == want
    if not refused:
        assert not got.frequencies.flags.writeable and not got.s_matrices.flags.writeable
        assert got.frequencies is not freqs_in and got.s_matrices is not s_in


class TestDbTable:
    """A sweep computes the dB of each |S| entry once, on first use."""

    @staticmethod
    def amp_sweep(points):
        return sweep(build_network(proto_amp()), 10e6, 15e9, points)

    def test_the_table_is_db_of_s_bit_for_bit_and_kept(self):
        points = block_points(build_network(proto_amp()), 3)
        swp = self.amp_sweep(points)
        table = swp.s_db
        assert table is swp.s_db
        assert table.shape == (points, 4) and table.dtype == np.float64
        assert not table.flags.writeable
        assert table.tobytes() == _db(swp.s_matrices).tobytes()

        def db(s):
            return 20.0 * math.log10(abs(s)) if abs(s) else -math.inf

        # S11, S12, S21 and S22 of each point, from CPython's abs and log10
        want = [[db(s) for s in (*row1, *row2)] for row1, row2 in swp.s_matrices.tolist()]
        assert [list(map(float.hex, row)) for row in table.tolist()] == [
            list(map(float.hex, row)) for row in want
        ]

    @pytest.mark.parametrize(
        "clone",
        [copy.copy, copy.deepcopy, lambda s: pickle.loads(pickle.dumps(s)), dataclasses.replace],
        ids=["copy", "deepcopy", "pickle", "replace"],
    )
    def test_a_copy_computes_its_own_table(self, clone):
        swp = self.amp_sweep(21)
        table = swp.s_db
        copied = clone(swp)
        assert "s_db" not in vars(copied)
        assert copied.s_db is not table
        assert copied.s_db.tobytes() == table.tobytes()

    def test_a_replaced_s_gets_the_table_of_its_own_s(self):
        swp = self.amp_sweep(21)
        table = swp.s_db
        halved = dataclasses.replace(swp, s_matrices=swp.s_matrices * 0.5)
        assert halved.s_db.tobytes() == _db(halved.s_matrices).tobytes()
        assert halved.s_db.tobytes() != table.tobytes()

    @pytest.mark.parametrize("points", [3, 513, "3-partial"])
    def test_metrics_and_csv_take_each_db_once(self, points, monkeypatch):
        import io

        from dakit import mna
        from dakit.cli import write_csv

        points = points_for(build_network(proto_amp()), points)

        def outputs(swp, csv_first):
            csv = io.StringIO()
            if csv_first:
                write_csv(swp, csv)
            metrics = repr(extract_metrics(swp))
            if not csv_first:
                write_csv(swp, csv)
            return metrics, csv.getvalue()

        swp, other = self.amp_sweep(points), self.amp_sweep(points)
        logs = []

        class CountingMath:
            inf = math.inf

            @staticmethod
            def log10(x):
                logs.append(x)
                return math.log10(x)

        monkeypatch.setattr(mna, "math", CountingMath)
        metrics, csv = outputs(swp, csv_first=False)
        # S12 of the unilateral amplifier is 0, which costs no log10
        assert swp.s_matrices[:, 0, 1].tolist() == [0j] * points
        assert len(logs) == 3 * points
        # the same bytes whichever reader fills the table, and as from a
        # sweep that the constructor checked
        assert outputs(other, csv_first=True) == (metrics, csv)
        rebuilt = TwoPortSweep(swp.frequencies, swp.s_matrices.tolist(), 50.0)
        assert outputs(rebuilt, csv_first=False) == (metrics, csv)

        # and as per point from CPython's abs, log10, atan2 and degrees
        def db(s):
            return 20.0 * math.log10(abs(s)) if abs(s) else -math.inf

        rows, s11_dbs, s21_dbs = [], [], []
        for f, ((s11, s12), (s21, s22)) in zip(swp.frequencies, swp.s_matrices.tolist()):
            phase = math.degrees(math.atan2(s21.imag, s21.real))
            fields = (f, db(s11), db(s21), db(s12), db(s22), phase)
            rows.append(",".join("%.9e" % v for v in fields))
            s11_dbs.append(db(s11))
            s21_dbs.append(db(s21))
        assert csv.splitlines()[1:] == rows
        m = extract_metrics(swp)
        assert m.low_freq_gain_db.hex() == s21_dbs[0].hex()
        cutoff = math.inf if m.cutoff_hz is None else m.cutoff_hz
        in_band = [d for f, d in zip(swp.frequencies, s11_dbs) if f <= cutoff]
        assert m.worst_s11_db.hex() == max(in_band).hex()


def dense_reference(net: Network, f: float) -> np.ndarray:
    # per-frequency solve of the whole nodal system: both ports terminated
    # in z0 and driven by the Norton equivalent of a unit incident wave
    w = 2.0 * math.pi * f
    size = net.node_count - 1
    y = np.zeros((size, size), dtype=complex)

    def add(i: int, j: int, adm: complex) -> None:
        if i and j:
            y[i - 1, j - 1] += adm

    for e in net.elements:
        if isinstance(e, Vccs):
            for out, sign_out in ((e.out_p, 1.0), (e.out_m, -1.0)):
                for ctrl, sign_ctrl in ((e.ctrl_p, 1.0), (e.ctrl_m, -1.0)):
                    add(out, ctrl, sign_out * sign_ctrl * e.gm)
            continue
        if isinstance(e, Resistor):
            adm = 1.0 / e.ohms
        elif isinstance(e, Capacitor):
            adm = 1j * w * e.farads
        else:
            adm = 1.0 / (1j * w * e.henries)
        add(e.a, e.a, adm)
        add(e.b, e.b, adm)
        add(e.a, e.b, -adm)
        add(e.b, e.a, -adm)
    ports = (net.port1, net.port2)
    rhs = np.zeros((size, 2), dtype=complex)
    for k, port in enumerate(ports):
        y[port.node - 1, port.node - 1] += 1.0 / port.z0
        rhs[port.node - 1, k] = 2.0 / math.sqrt(port.z0)
    v = np.linalg.solve(y, rhs)
    s = np.array([v[port.node - 1, :] / math.sqrt(port.z0) for port in ports])
    return s - np.eye(2)


class TestBatchedKernel:
    @pytest.mark.parametrize("spacing", [LINEAR, LOG])
    def test_sweep_matches_single_frequency_bits(self, spacing, fr4):
        for net in (build_network(proto_amp()), build_network(lossy_series_amp(fr4))):
            swp = sweep(net, 10e6, 15e9, block_points(net, 3), spacing)
            for f, s in zip(swp.frequencies, swp.s_matrices):
                # bytes, not ==, also tell -0.0 from 0.0
                assert s.tobytes() == s_parameters_at(net, f).tobytes()

    # 16, 17 and 33 straddle a 16-wide block, 128 and 129 a 128-wide one,
    # 256, 257 and 513 the 256-wide blocks of a fixed width: they stay as
    # grids within one block, beside each network's own boundaries, where
    # one block is full, and where two and three blocks end in a partial one
    @pytest.mark.parametrize(
        "points", [2, 16, 17, 33, 128, 129, 256, 257, 513, "1-full", "2-partial", "3-partial"]
    )
    @pytest.mark.parametrize("spacing", [LINEAR, LOG])
    def test_grid_matches_dense_reference(self, points, spacing, fr4):
        nets = (build_network(proto_amp()), build_network(lossy_series_amp(fr4)), lc_ladder())
        for net in nets:
            count = points_for(net, points)
            swp = sweep(net, 10e6, 15e9, count, spacing)
            assert len(swp.s_matrices) == count
            for f, s in zip(swp.frequencies, swp.s_matrices):
                want = dense_reference(net, f)
                err = np.max(np.abs(np.array(s) - want))
                assert err <= 1e-10 * max(1.0, np.max(np.abs(want)))

    def test_singular_nodal_system_names_frequency(self):
        # node 3 is connected to nothing, so the internal block is singular
        net = Network(4, (Resistor(1, 0, 50.0), Resistor(2, 0, 50.0)), Port(1), Port(2))
        with pytest.raises(SimulationError, match=r"nodal system at 2000000000\.0 Hz"):
            s_parameters_at(net, 2e9)
        with pytest.raises(SimulationError, match=r"nodal system at 100000000\.0 Hz"):
            sweep(net, 1e8, 1e9, 11)

    def test_singular_frequency_inside_a_block(self):
        # node 3 hangs 1 H parallel with 1 F, resonant at w = 1 rad/s exactly:
        # only the grid's last point is singular, and it is not a block's first
        f_res = 1.0 / (2.0 * math.pi)
        tank = (Inductor(3, 0, 1.0), Capacitor(3, 0, 1.0))
        net = Network(4, (Resistor(1, 0, 50.0), Resistor(2, 0, 50.0)) + tank, Port(1), Port(2))
        with pytest.raises(SimulationError, match=f"nodal system at {f_res} Hz"):
            sweep(net, f_res / 10.0, f_res, block_points(net, 2))

    # S forms once over the whole sweep, after the blocks: each error names
    # the sweep's own frequency when its point ends a full second block or
    # a partial second or third block, where the index within its block
    # would name another frequency. 512 and 513 points, which ended the
    # second and third blocks of a fixed 256-wide partition, stay as grids
    # within one block
    past_the_first_block = pytest.mark.parametrize(
        "points", [512, 513, "2-full", "2-partial", "3-partial"]
    )

    @past_the_first_block
    def test_zero_pivot_past_the_first_block_names_frequency(self, points):
        f_res = 1.0 / (2.0 * math.pi)
        tank = (Inductor(3, 0, 1.0), Capacitor(3, 0, 1.0))
        net = Network(4, (Resistor(1, 0, 50.0), Resistor(2, 0, 50.0)) + tank, Port(1), Port(2))
        points = points_for(net, points)
        with pytest.raises(SimulationError, match=f"^singular nodal system at {f_res} Hz$"):
            sweep(net, f_res / 10.0, f_res, points)

    @past_the_first_block
    def test_singular_port_past_the_first_block_names_frequency(self, points):
        # -1 S on port 1 and a 1 H, 1 F tank: 1 + z1*Y11 = 0 at w = 1 rad/s only
        f_res = 1.0 / (2.0 * math.pi)
        net = Network(
            3,
            (Resistor(1, 0, 1.0), Vccs(1, 0, 1, 0, -2.0), Inductor(1, 0, 1.0),
             Capacitor(1, 0, 1.0), Resistor(2, 0, 50.0)),
            Port(1, 1.0),
            Port(2),
        )
        points = points_for(net, points)
        with pytest.raises(SimulationError, match=f"^singular port system at {f_res} Hz$"):
            sweep(net, f_res / 10.0, f_res, points)

    @past_the_first_block
    def test_non_finite_s_past_the_first_block_names_frequency(self, points):
        # w = 2 pi f overflows at the last point, 1e308 Hz, and S turns NaN;
        # w is still finite at the point before it, which is below 2.8e307
        # Hz when the grid has at most 540 points: a ladder of 250 sections
        # has narrow blocks, so that three of them take fewer
        net = lc_ladder(250)
        points = points_for(net, points)
        assert points <= 540
        with pytest.raises(SimulationError, match=r"^non-finite S-parameters at 1e\+308 Hz$"):
            sweep(net, 1e10, 1e308, points, LOG)

    def test_singular_port_system_names_frequency(self):
        # a transconductance of -2 S across the 1 S port-1 load: 1 + z1*Y11 = 0
        net = Network(
            3,
            (Resistor(1, 0, 1.0), Vccs(1, 0, 1, 0, -2.0), Resistor(2, 0, 50.0)),
            Port(1, 1.0),
            Port(2),
        )
        with pytest.raises(SimulationError, match=r"port system at 1000000000\.0 Hz"):
            s_parameters_at(net, 1e9)


class TestPartition:
    """A sweep is solved in as few blocks of equal width as keep each block's
    work buffer, the plan's registers and the network's group table, within
    _BUDGET bytes, the last block no wider."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(st.integers(1, 100_000), st.integers(1, 10**6))
    def test_blocks_are_equal_and_within_the_budget(self, rows, points):
        width = _block_width(rows, points)
        # the blocks of the solve's loop
        sizes = [min(width, points - start) for start in range(0, points, width)]
        assert all(size == width for size in sizes[:-1]) and 1 <= sizes[-1] <= width
        assert sum(sizes) == points
        # a (rows, width) complex128 buffer; a network whose one frequency
        # is over the budget solves one frequency at a time
        assert rows * width * 16 <= _BUDGET or width == 1
        # one block fewer of the widest that the budget allows would not do
        widest = max(1, _BUDGET // (16 * rows))
        assert (len(sizes) - 1) * widest < points

    @pytest.mark.parametrize("spacing", [LINEAR, LOG])
    def test_each_point_of_one_two_and_more_blocks_is_its_single_solve(self, spacing, fr4):
        # point counts of one block, of two and of three, the last partial
        one, two = build_network(proto_amp()), build_network(lossy_series_amp(fr4))
        three = lc_ladder()
        cases = ((one, 1001, 1), (two, block_points(two, 2), 2), (three, block_points(three, 3), 3))
        for net, points, blocks in cases:
            width = _block_width(block_rows(net), points)
            # the last of several blocks is partial
            assert -(-points // width) == blocks and (blocks == 1 or points % width)
            swp = sweep(net, 10e6, 15e9, points, spacing)
            for f, s in zip(swp.frequencies, swp.s_matrices):
                assert s.tobytes() == s_parameters_at(net, f).tobytes()


_LADDER_VALUES = {
    Resistor: st.floats(1.0, 1e3),
    Inductor: st.floats(0.1e-9, 10e-9),
    Capacitor: st.floats(0.1e-12, 10e-12),
}


@st.composite
def passive_ladders(draw) -> Network:
    # a series and a shunt element per section, each an R, L or C, with
    # resistive loads on both port nodes
    sections = draw(st.integers(1, 6))
    elements: list = []
    for k in range(1, sections + 1):
        for a, b in ((k, k + 1), (k + 1, 0)):
            kind = draw(st.sampled_from(tuple(_LADDER_VALUES)))
            elements.append(kind(a, b, draw(_LADDER_VALUES[kind])))
    last = sections + 1
    ohms = st.floats(10.0, 200.0)
    elements += [Resistor(1, 0, draw(ohms)), Resistor(last, 0, draw(ohms))]
    return Network(last + 1, tuple(elements), Port(1, draw(ohms)), Port(last, draw(ohms)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(passive_ladders())
def test_passive_ladder_reciprocal_and_bounded(net):
    swp = sweep(net, 10e6, 100e9, 257, LOG)
    for (s11, s12), (s21, s22) in swp.s_matrices:
        assert abs(s12 - s21) <= 1e-12
        largest = np.linalg.norm(np.array([[s11, s12], [s21, s22]]), 2)
        assert largest <= 1.0 + 1e-12


def assert_matches_dense(net: Network, swp: TwoPortSweep) -> None:
    for f, s in zip(swp.frequencies, swp.s_matrices):
        want = dense_reference(net, f)
        err = np.max(np.abs(np.array(s) - want))
        assert err <= 1e-10 * max(1.0, np.max(np.abs(want))), f


@st.composite
def active_ladders(draw) -> Network:
    # an RLC ladder whose shunts may be two-element leaves (series LC, RC
    # or RL through a node of their own), plus random VCCS, some feeding
    # back toward port 1
    sections = draw(st.integers(1, 6))
    last = sections + 1
    nodes = last + 1
    elements: list = []
    for k in range(1, sections + 1):
        kind = draw(st.sampled_from(tuple(_LADDER_VALUES)))
        elements.append(kind(k, k + 1, draw(_LADDER_VALUES[kind])))
        leaf = draw(st.sampled_from((None, (Inductor, Capacitor), (Resistor, Capacitor), (Resistor, Inductor))))
        if leaf is None:
            kind = draw(st.sampled_from(tuple(_LADDER_VALUES)))
            elements.append(kind(k + 1, 0, draw(_LADDER_VALUES[kind])))
        else:
            first, second = draw(st.permutations(leaf))
            elements.append(first(k + 1, nodes, draw(_LADDER_VALUES[first])))
            elements.append(second(nodes, 0, draw(_LADDER_VALUES[second])))
            nodes += 1
    ohms = st.floats(10.0, 200.0)
    elements += [Resistor(1, 0, draw(ohms)), Resistor(last, 0, draw(ohms))]
    node = st.integers(0, nodes - 1)
    for _ in range(draw(st.integers(0, 3))):
        # forward sources drive toward port 2, feedback ones toward port 1
        lo, hi = sorted(draw(st.tuples(st.integers(1, nodes - 1), st.integers(1, nodes - 1))))
        out, ctrl = (lo, hi) if draw(st.booleans()) else (hi, lo)
        gm = draw(st.floats(-0.05, 0.05))
        elements.append(Vccs(out, draw(node), ctrl, draw(node), gm))
    return Network(nodes, tuple(elements), Port(1, draw(ohms)), Port(last, draw(ohms)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(active_ladders())
def test_active_ladder_matches_dense_reference(net):
    assert_matches_dense(net, sweep(net, 10e6, 100e9, 41, LOG))


def test_series_lc_shunt_across_resonance():
    # a series 2 nH + 0.5 pF leaf from the middle of a 50-ohm through path
    # to ground: a notch at f0 = 1/(2 pi sqrt(LC)) = 5.03 GHz
    henries, farads = 2e-9, 0.5e-12
    net = Network(
        5,
        (
            Resistor(1, 0, 50.0),
            Inductor(1, 2, 1e-9),
            Inductor(2, 3, 1e-9),
            Inductor(2, 4, henries),
            Capacitor(4, 0, farads),
            Resistor(3, 0, 50.0),
        ),
        Port(1),
        Port(3),
    )
    f0 = 1.0 / (2.0 * math.pi * math.sqrt(henries * farads))
    swp = sweep(net, 0.9 * f0, 1.1 * f0, 513)
    assert_matches_dense(net, swp)
    s21 = [abs(m[1][0]) for m in swp.s_matrices]
    notch = min(range(len(s21)), key=s21.__getitem__)
    assert abs(swp.frequencies[notch] - f0) <= 0.2 * f0 / 512
    assert s21[notch] < 1e-3 < s21[0]


def test_same_topology_shares_one_analysis():
    rep = proto_amp()
    hot_rep = replace(
        rep, transistor=TransistorModel(name="HOT", gm=0.1, cgs=0.8e-12, cds=0.3e-12)
    )
    _analyse.cache_clear()
    base, other = build_network(rep), build_network(hot_rep)
    assert base.elements != other.elements
    assert _analyse.cache_info().misses == 1
    assert base._plan is other._plan
    cached = [sweep(net, 10e6, 15e9, 257) for net in (base, other)]
    # networks rebuilt after a clear get a freshly analysed plan
    _analyse.cache_clear()
    rebuilt = (build_network(rep), build_network(hot_rep))
    assert rebuilt[0]._plan is not base._plan
    fresh = [sweep(net, 10e6, 15e9, 257) for net in rebuilt]
    assert cached == fresh
    assert cached[0] != cached[1]


def test_construction_analyses_each_topology_once():
    rep = proto_amp()
    hot = TransistorModel(name="HOT", gm=0.1, cgs=0.8e-12, cds=0.3e-12)
    _analyse.cache_clear()
    build_network(rep)
    build_network(replace(rep, transistor=hot))
    assert _analyse.cache_info().misses == 1


def test_solve_looks_up_no_plan():
    net = build_network(proto_amp())
    before = _analyse.cache_info()
    sweep(net, 10e6, 15e9, 257)
    s_parameters_at(net, 10e6)
    assert _analyse.cache_info() == before


def rebuilt(net: Network) -> Network:
    return Network(net.node_count, net.elements, net.port1, net.port2)


def fresh_s(net: Network, *grid) -> bytes:
    """The bytes of S of net's sweep over grid, built on an empty plan cache."""
    _analyse.cache_clear()
    return sweep(rebuilt(net), *grid).s_matrices.tobytes()


def assert_shared_plan_sweeps_as_fresh(nets, orders, *grid) -> None:
    """Build nets in each order from an empty cache, sweeping each one as it
    is built and all of them at the end: every S has the bytes of a sweep
    of the same network built on an empty cache."""
    want = [fresh_s(net, *grid) for net in nets]
    for order in orders:
        _analyse.cache_clear()
        built = []
        for k in order:
            built.append(rebuilt(nets[k]))
            assert built[-1]._plan is built[0]._plan
            assert sweep(built[-1], *grid).s_matrices.tobytes() == want[k]
        # later networks may have refined the plan's grouping
        for k, net in zip(order, built):
            assert sweep(net, *grid).s_matrices.tobytes() == want[k]
        # which now holds for each of them: the designs can alternate
        # without a grouping being made again
        grouping = built[0]._plan.grouping
        for k in order:
            rebuilt(nets[k])
        assert built[0]._plan.grouping is grouping


@pytest.mark.parametrize("orders", [[(0, 1, 2)], [(2, 1, 0, 2)], [(1, 0, 1), (0, 2, 1, 0)]])
def test_designs_of_one_topology_sweep_as_with_a_fresh_cache(gan, fr4, orders):
    # the README's uniform match-drain design, its Ginzton taper and the
    # taper with the strips' parasitics: one topology, and three sets of
    # stamp values that share some groups and split others
    nets = [
        build_network(synthesize_design(gan, fr4, DesignOptions(
            stages=4, series_cap="match-drain", taper=taper, include_microstrip_parasitics=strips
        )))
        for taper, strips in ((None, False), ("ginzton", False), ("ginzton", True))
    ]
    assert_shared_plan_sweeps_as_fresh(nets, orders, 10e6, 15e9, 401)


def incomparable_ladders() -> list[Network]:
    """Two ladders of one topology, neither of whose groupings is finer
    than the other's: a has equal capacitors and end inductors half the
    others, b equal inductors and unequal capacitors."""
    a = lc_ladder(4)
    b = replace(a, elements=tuple(
        replace(e, henries=2.5e-9) if isinstance(e, Inductor) else replace(e, farads=e.a * 1e-12)
        for e in a.elements
    ))
    return [a, b]


def test_a_plans_grouping_keeps_what_each_network_needs():
    orders = [(0, 1, 0, 1), (1, 0)]
    assert_shared_plan_sweeps_as_fresh(incomparable_ladders(), orders, 10e6, 15e9, 101)


def test_networks_built_in_threads_sweep_as_with_a_fresh_cache():
    # threads that build networks of one plan at once may each replace its
    # grouping; each network still uses a grouping it has checked or made
    nets, grid = incomparable_ladders(), (10e6, 15e9, 101)
    want = [fresh_s(net, *grid) for net in nets]
    _analyse.cache_clear()
    built, errors = [], []

    def build(k):
        try:
            for i in range(50):
                built.append(((k + i) % 2, rebuilt(nets[(k + i) % 2])))
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(k,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads) and not errors
    assert len(built) == 200
    for k, net in built:
        assert sweep(net, *grid).s_matrices.tobytes() == want[k]


_VALUE_FIELD = {Resistor: "ohms", Capacitor: "farads", Inductor: "henries", Vccs: "gm"}


@st.composite
def retuned_pairs(draw) -> tuple[Network, Network]:
    """A ladder whose element j takes the value of element i of its kind,
    where there is one, and the same ladder with element j one ulp away."""
    net = draw(active_ladders())
    elements = list(net.elements)
    i = draw(st.integers(0, len(elements) - 1))
    kind, field = type(elements[i]), _VALUE_FIELD[type(elements[i])]
    value = getattr(elements[i], field)
    mates = [j for j, e in enumerate(elements) if type(e) is kind and j != i]
    j = draw(st.sampled_from(mates)) if mates else i
    elements[j] = replace(elements[j], **{field: value})
    equal = replace(net, elements=tuple(elements))
    elements[j] = replace(elements[j], **{field: math.nextafter(value, draw(
        st.sampled_from((math.inf, -math.inf))
    ))})
    return equal, replace(net, elements=tuple(elements))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(retuned_pairs())
def test_retuned_networks_of_one_plan_sweep_as_with_a_fresh_cache(nets):
    # a grouping made for one network must not carry over to the other,
    # which differs from it in one element by one ulp
    assert_shared_plan_sweeps_as_fresh(nets, [(0, 1, 0), (1, 0, 1)], 10e6, 100e9, 41, LOG)


def test_pivots_come_first_and_port_entries_last(fr4):
    # port 1 at node 1, port 3 at node 3, node 2 between them: one pivot;
    # the VCCS stamps Y31 only, and eliminating node 2 fills in Y13
    net = Network(
        4,
        (Resistor(1, 0, 2.0), Resistor(1, 2, 4.0), Resistor(2, 3, 8.0), Resistor(3, 0, 0.5),
         Vccs(3, 0, 1, 0, 0.0625)),
        Port(1),
        Port(3),
    )
    plan = net._plan
    g = net._g[net._grouping[0]]
    assert plan.pivots == 1 and plan.slots == 9
    assert g[0] == 0.25 + 0.125
    assert g[-4:].tolist() == [0.5 + 0.25, 0.0, 0.0625, 0.125 + 2.0]
    # node 2's pivot is never written, so the table's row is copied into
    # register 0; its elimination writes all four port entries, which end
    # in the other four registers
    assert plan.copied.tolist() == [0] and plan.code[0][0] == 0
    assert plan.registers == 5 and sorted(net._grouping[7].tolist()) == [1, 2, 3, 4]
    for net in (lc_ladder(5), build_network(proto_amp()), build_network(lossy_series_amp(fr4))):
        plan = net._plan
        # the plan keeps the register program only
        assert not hasattr(plan, "program")
        # each step eliminates the next pivot slot
        assert [kk for kk, _, _ in slot_program(net)] == list(range(plan.pivots))
        # into the pivot's own register: the never-written pivots first,
        # then the others, each in elimination order
        copied = plan.copied.tolist()
        order = copied + [kk for kk in range(plan.pivots) if kk not in copied]
        assert [plan.code[kk][0] for kk in order] == list(range(plan.pivots))


def reference_port_admittance(net: Network, freqs: np.ndarray) -> np.ndarray:
    """Yp as the slot program computes it, one full row a slot: Y of each
    stamp group with the solve's own ufuncs, each slot's row copied from
    its group's, then the slot program run on the slots."""
    group = net._grouping[0]
    w = 2.0 * math.pi * freqs
    reactive = len(net._c)
    table = np.zeros((len(net._g), len(w)), dtype=complex)
    table.real[:reactive] = np.divide.outer(net._gamma, w)
    table.imag[:reactive] = np.multiply.outer(net._c, w) - table.real[:reactive]
    table.real[...] = net._g[:, None]
    y = table[group]
    for kk, kjs, updates in slot_program(net):
        for kj in kjs:
            y[kj] = y[kj] / y[kk]
        for ij, ik, kj in updates:
            y[ij] = y[ij] - y[ik] * y[kj]
    return y[-4:]


def assert_registers_hold_what_is_read(net) -> None:
    """Run the register program of net's plan on symbols: a register holds
    (slot, write count) of the slot last written into it. Every read must
    get the latest value of its slot, from its register or, if the slot
    was never written, from its own table row; so no register is
    overwritten while it still holds a value that is read later. The pivot
    rows end up holding every pivot's value, and the port rows Y11, Y12,
    Y21, Y22."""
    plan, program = net._plan, slot_program(net)
    registers = plan.registers
    regs = [None] * registers
    writes = [0] * plan.slots
    for r, kk in enumerate(plan.copied.tolist()):
        regs[r] = (kk, 0)

    def read(row, slot):
        if row < registers:
            assert regs[row] == (slot, writes[slot]), (row, slot)
        else:
            assert row - registers == slot and writes[slot] == 0, (row, slot)

    def write(row, slot):
        writes[slot] += 1
        regs[row] = (slot, writes[slot])

    assert len(plan.code) == len(program)
    for (kk, kjs, updates), (pivot, divides, steps) in zip(program, plan.code):
        assert pivot < plan.pivots and len(divides) == len(kjs) and len(steps) == len(updates)
        read(pivot, kk)
        for kj, (src, dst) in zip(kjs, divides):
            read(src, kj)
            write(dst, kj)
        for (ij, ik, kj), (src, dst, rik, rkj) in zip(updates, steps):
            read(rik, ik)
            read(rkj, kj)
            read(src, ij)
            write(dst, ij)
    assert sorted(regs[: plan.pivots]) == [(kk, writes[kk]) for kk in range(plan.pivots)]
    for row, slot in zip(plan.ports, range(plan.slots - 4, plan.slots)):
        read(row, slot)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.one_of(passive_ladders(), active_ladders()), st.integers(1, 12), st.integers(1, 3))
def test_register_program_computes_the_slot_program(net, points, narrow):
    assert_registers_hold_what_is_read(net)
    freqs = np.geomspace(10e6, 100e9, points)
    want = reference_port_admittance(net, freqs)
    rows = block_rows(net)
    with np.errstate(all="ignore"):
        assert mna._port_admittance(net, freqs).tobytes() == want.tobytes()
        # a budget so small that each block is 1 to 3 points wide
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mna, "_BUDGET", 16 * rows * narrow)
            assert _block_width(rows, points) <= narrow
            assert mna._port_admittance(net, freqs).tobytes() == want.tobytes()


_PHEMT = TransistorModel(name="PHEMT-1", gm=0.08, cgs=1.4e-13, cds=5e-14, ri=1.0, rds=200.0)


def test_benchmark_designs_hold_their_registers_and_solve_1001_points_in_one_block(gan, fr4):
    # the README's uniform match-drain design and its Ginzton taper share a
    # plan and its grouping; PHEMT-1 and the 12-stage design have their own
    cases = (
        (gan, {"series_cap": "match-drain"}, 19),
        (gan, {"series_cap": "match-drain", "taper": "ginzton"}, 19),
        (_PHEMT, {}, 27),
        (gan, {"series_cap": "match-drain", "stages": 12}, 51),
    )
    for transistor, options, registers in cases:
        net = build_network(synthesize_design(transistor, fr4, DesignOptions(**options)))
        assert net._plan.registers == registers < net._plan.slots
        assert_registers_hold_what_is_read(net)
        assert _block_width(block_rows(net), 1001) == 1001


# registers of each design-flow topology on FR-4 at each stage count, None
# where synthesis refuses the design: no strip on the board is narrow
# enough for the Ginzton taper's high-impedance sections
_FLOW_STAGES = (1, 3, 5, 8, 12)
_FLOW_REGISTERS = {
    ("GAN-1", None, None): (7, 11, 17, 27, 39),
    ("GAN-1", None, "ginzton"): (7, 11, None, None, None),
    ("GAN-1", "match-drain", None): (8, 15, 23, 35, 51),
    ("GAN-1", "match-drain", "ginzton"): (8, 15, None, None, None),
    ("PHEMT-1", None, None): (8, 15, 23, 35, 51),
    ("PHEMT-1", None, "ginzton"): (8, 15, None, None, None),
    ("PHEMT-1", "match-drain", None): (9, 18, 28, 43, 63),
    ("PHEMT-1", "match-drain", "ginzton"): (9, 18, None, None, None),
}


@pytest.mark.parametrize("stages", _FLOW_STAGES)
@pytest.mark.parametrize(
    "design", list(_FLOW_REGISTERS), ids=["-".join(map(str, d)) for d in _FLOW_REGISTERS]
)
def test_design_flow_topologies_compile_to_their_registers(gan, fr4, design, stages):
    # the lossless GaN device and the lossy pHEMT, each with and without
    # the drain-matching series capacitor and the Ginzton taper
    name, series, taper = design
    registers = _FLOW_REGISTERS[design][_FLOW_STAGES.index(stages)]
    transistor = gan if name == "GAN-1" else _PHEMT
    options = DesignOptions(stages=stages, series_cap=series, taper=taper)
    if registers is None:
        with pytest.raises(GeometryError):
            synthesize_design(transistor, fr4, options)
        return
    net = build_network(synthesize_design(transistor, fr4, options))
    assert net._plan.registers == registers
    assert_registers_hold_what_is_read(net)
    freqs = np.geomspace(10e6, 100e9, 41)
    want = reference_port_admittance(net, freqs)
    with np.errstate(all="ignore"):
        assert mna._port_admittance(net, freqs).tobytes() == want.tobytes()


def synthetic_sweep(freqs, s21_mags, s11_mags):
    mats = tuple(
        ((complex(s11), 0j), (complex(s21), 0j))
        for s21, s11 in zip(s21_mags, s11_mags)
    )
    return TwoPortSweep(frequencies=tuple(freqs), s_matrices=mats, reference_impedance=50.0)


class TestMetrics:
    def test_interpolated_cutoff(self):
        swp = synthetic_sweep([1.0, 2.0, 3.0, 4.0], [1.0, 1.0, 0.5, 0.25], [0.1, 0.2, 0.05, 0.9])
        m = extract_metrics(swp)
        assert m.low_freq_gain_db == 0.0
        expected = 2.0 + 3.0 / (20.0 * math.log10(2.0))
        assert math.isclose(m.cutoff_hz, expected, rel_tol=1e-12)
        assert math.isclose(m.worst_s11_db, 20.0 * math.log10(0.2), rel_tol=1e-12)

    def test_exact_sample_cutoff(self):
        mag = 10.0 ** (-3.0 / 20.0)
        swp = synthetic_sweep([1.0, 2.0], [1.0, mag], [0.1, 0.1])
        m = extract_metrics(swp)
        assert m.cutoff_hz == 2.0

    def test_no_cutoff_in_sweep(self):
        swp = synthetic_sweep([1.0, 2.0, 3.0], [1.0, 1.0, 1.01], [0.1, 0.3, 0.2])
        m = extract_metrics(swp)
        assert m.cutoff_hz is None
        assert math.isclose(m.worst_s11_db, 20.0 * math.log10(0.3), rel_tol=1e-12)

    @pytest.mark.parametrize("points, matrices", [(0, 0), (2, 1), (1, 2)])
    def test_misshapen_sweep_rejected(self, points, matrices):
        # an empty sweep has no reference gain; zip would cut the longer
        # short: the constructor refuses both
        mats = (((0.1 + 0j, 0j), (1 + 0j, 0j)),) * matrices
        with pytest.raises(SimulationError, match="one S-matrix per frequency"):
            TwoPortSweep(tuple(1e9 * (k + 1) for k in range(points)), mats, 50.0)

    # values frozen from the per-point dB lists that extract_metrics used
    # before it took one pass
    @pytest.mark.parametrize(
        "freqs, s21_mags, s11_mags, want",
        [
            # out of frequency order: the cutoff falls between 4 and 2, and
            # only the points at 1 and 2 lie below it
            (
                (1.0, 4.0, 2.0, 3.0), (1.0, 0.9, 0.6, 0.3), (0.1, 0.5, 0.2, 0.7),
                (0.0, 2.816039932949055, -13.979400086720375),
            ),
            # |S21| = 0 at the first point: the reference and threshold are
            # -inf, so the next zero is the cutoff
            (
                (1.0, 2.0, 3.0, 4.0), (0.0, 0.5, 0.0, 1.0), (0.3, 0.1, 0.2, 0.9),
                (-math.inf, 3.0, -10.457574905606752),
            ),
            (
                (1.0, 2.0, 3.0), (0.0, 0.5, 0.25), (0.3, 0.6, 0.2),
                (-math.inf, None, -4.436974992327127),
            ),
            # the -3 dB point lands exactly on the second sample
            (
                (1.0, 2.0, 3.0, 4.0), (2.0, 2.0 * 10.0 ** (-3.0 / 20.0), 0.1, 0.05),
                (0.1, 0.4, 0.2, 0.8),
                (6.020599913279624, 2.0, -7.958800173440752),
            ),
            # no cutoff inside the sweep: S11 over every point
            (
                (3.0, 1.0, 2.0), (1.0, 1.2, 0.8), (0.3, 0.5, 0.4),
                (0.0, None, -6.020599913279624),
            ),
        ],
    )
    def test_frozen_metrics(self, freqs, s21_mags, s11_mags, want):
        m = extract_metrics(synthetic_sweep(freqs, s21_mags, s11_mags))
        assert (m.low_freq_gain_db, m.cutoff_hz, m.worst_s11_db) == want

    def test_zero_s11_reports_neg_inf(self):
        swp = synthetic_sweep([1.0, 2.0, 3.0], [1.0, 1.0, 1.0], [0.0, 0.0, 0.0])
        m = extract_metrics(swp)
        assert m.worst_s11_db == -math.inf
