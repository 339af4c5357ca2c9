import math
import re

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
from dakit.mna import _BLOCK, _analyse
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

    def test_tapered_drain_inductors(self, gan, fr4):
        rep = synthesize_design(
            gan, fr4, DesignOptions(stages=4, taper="ginzton", series_cap="match-drain")
        )
        net = build_network(rep)
        inductors = [e.henries for e in net.elements if isinstance(e, Inductor)]
        gate_chain, drain_chain = inductors[:5], inductors[5:]
        c_load = rep.transistor.cds
        section_l = [z * z * c_load for z in rep.taper_drain_profile.sections]
        expected = [
            section_l[0] / 2.0,
            (section_l[0] + section_l[1]) / 2.0,
            (section_l[1] + section_l[2]) / 2.0,
            (section_l[2] + section_l[3]) / 2.0,
            section_l[3] / 2.0,
        ]
        for got, want in zip(drain_chain, expected):
            assert math.isclose(got, want, rel_tol=1e-12)
        # gate chain uses the first n of the n+1 tapered sections
        gate_l = [z * z * rep.effective_cgs for z in rep.taper_gate_profile.sections[:4]]
        assert math.isclose(gate_chain[0], gate_l[0] / 2.0, rel_tol=1e-12)
        assert math.isclose(gate_chain[1], (gate_l[0] + gate_l[1]) / 2.0, rel_tol=1e-12)

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
            swp = sweep(net, 10e6, 15e9, 2 * _BLOCK + 1, spacing)
            for f, s in zip(swp.frequencies, swp.s_matrices):
                assert s == s_parameters_at(net, f)

    # 16, 17 and 33 straddle a 16-wide block, 128 and 129 a 128-wide one:
    # they stay as grids that fill part of one block, beside the boundaries
    # of the current _BLOCK
    @pytest.mark.parametrize(
        "points", [2, 16, 17, 33, 128, 129, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1]
    )
    @pytest.mark.parametrize("spacing", [LINEAR, LOG])
    def test_grid_matches_dense_reference(self, points, spacing, fr4):
        nets = (build_network(proto_amp()), build_network(lossy_series_amp(fr4)), lc_ladder())
        for net in nets:
            swp = sweep(net, 10e6, 15e9, points, spacing)
            assert len(swp.s_matrices) == points
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
            sweep(net, f_res / 10.0, f_res, _BLOCK + 2)

    # S forms once over the whole sweep, after the blocks: each error names
    # the sweep's own frequency when its point ends the second block or is
    # the one point of a partial last block, where the index within its
    # block would name another frequency
    @pytest.mark.parametrize("points", [2 * _BLOCK, 2 * _BLOCK + 1])
    def test_zero_pivot_past_the_first_block_names_frequency(self, points):
        f_res = 1.0 / (2.0 * math.pi)
        tank = (Inductor(3, 0, 1.0), Capacitor(3, 0, 1.0))
        net = Network(4, (Resistor(1, 0, 50.0), Resistor(2, 0, 50.0)) + tank, Port(1), Port(2))
        with pytest.raises(SimulationError, match=f"^singular nodal system at {f_res} Hz$"):
            sweep(net, f_res / 10.0, f_res, points)

    @pytest.mark.parametrize("points", [2 * _BLOCK, 2 * _BLOCK + 1])
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
        with pytest.raises(SimulationError, match=f"^singular port system at {f_res} Hz$"):
            sweep(net, f_res / 10.0, f_res, points)

    @pytest.mark.parametrize("points", [2 * _BLOCK, 2 * _BLOCK + 1])
    def test_non_finite_s_past_the_first_block_names_frequency(self, points):
        # w = 2 pi f overflows at the last point, 1e308 Hz, and S turns NaN;
        # the point before it is near 2.6e307 Hz, where w is still finite
        with pytest.raises(SimulationError, match=r"^non-finite S-parameters at 1e\+308 Hz$"):
            sweep(lc_ladder(), 1e10, 1e308, points, LOG)

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
    swp = sweep(net, 10e6, 100e9, _BLOCK + 1, LOG)
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
    swp = sweep(net, 0.9 * f0, 1.1 * f0, 2 * _BLOCK + 1)
    assert_matches_dense(net, swp)
    s21 = [abs(m[1][0]) for m in swp.s_matrices]
    notch = min(range(len(s21)), key=s21.__getitem__)
    assert abs(swp.frequencies[notch] - f0) <= 0.2 * f0 / (2 * _BLOCK)
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
    cached = [sweep(net, 10e6, 15e9, _BLOCK + 1) for net in (base, other)]
    # networks rebuilt after a clear get a freshly analysed plan
    _analyse.cache_clear()
    rebuilt = (build_network(rep), build_network(hot_rep))
    assert rebuilt[0]._plan is not base._plan
    fresh = [sweep(net, 10e6, 15e9, _BLOCK + 1) for net in rebuilt]
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
    sweep(net, 10e6, 15e9, _BLOCK + 1)
    s_parameters_at(net, 10e6)
    assert _analyse.cache_info() == before


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
        # an empty sweep has no reference gain; zip would cut the longer short
        mats = (((0.1 + 0j, 0j), (1 + 0j, 0j)),) * matrices
        swp = TwoPortSweep(tuple(1e9 * (k + 1) for k in range(points)), mats, 50.0)
        with pytest.raises(SimulationError, match="one S-matrix per frequency"):
            extract_metrics(swp)

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
