"""Small-signal two-port simulation by nodal analysis.

Networks are R/L/C elements plus voltage-controlled current sources on an
integer node set with ground fixed at node 0. Line terminations are
ordinary resistors inside the network; only the two port nodes are
excited.

The nodal admittance follows Ho, Ruehli and Brennan's modified nodal
approach: G (conductances and VCCS transconductances), C (capacitances)
and Gamma (inverse inductances), so that at angular frequency w

    Y(w) = G + jwC + Gamma/(jw).

A solve is split in two, after KLU (Davis and Palamadai Natarajan, ACM
TOMS 2010). The symbolic analysis depends only on the topology: the node
count, the port nodes and each element's kind and nodes. It fixes a slot
for every entry of Y that is stamped or filled in, an elimination order
and the update program y[ij] -= y[ik] * (y[kj] / y[kk]). It is cached per
topology (a least-recently-used cache of 64), so the many networks of one
amplifier structure share it. The checks that depend on the topology
alone (node ranges, distinct ports, self-shorts, a passive path from each
port to ground) live in that analysis too, so they run once per topology.
A Network is stamped once, at construction: one pass over its elements
checks their values and collects its topology, the analysis refuses a bad
topology with DesignError or returns the plan, and the values are stamped
into the plan's slots as G, C and Gamma, which the network keeps with its
plan. A solve then works through the sweep _BLOCK frequencies at a time.
A block holds Y at its frequencies as one contiguous (slots, frequencies)
array, assembled from those arrays; the program runs on its rows and
eliminates the internal nodes, leaving the 2x2 port admittance Yp in the
port slots, and the block's pivots are checked. The block then copies
its four Yp rows (Y11, Y12, Y21, Y22) into a (4, frequencies) array for
the whole sweep, and its buffer serves the next block. Only after the
last block is S formed, once over the whole sweep: with real reference
impedances and y' = D Yp D, D = diag(sqrt(z1), sqrt(z2)),

    S = (I - y') (I + y')^-1,

written out in closed form for the 2x2 case. The port-system and
finiteness checks run on that sweep-wide S too, and the nested result
tuples are built in C from its four rows.

There is no pivoting. The order is the passive-branch (R, L or C)
breadth-first distance from the two ports, farthest node first, ties by
node number; a node with no passive path to a port goes first of all. In
an amplifier network the ladders are then eliminated from their
terminations toward the ports, so each line node's pivot is the
driving-point admittance of a sub-network that already contains its
termination resistor: its real part is positive, so it cannot vanish.
The stage branches are leaves, eliminated before the line node they hang
from; a branch pivot is the admittance of the branch's own elements, such
as jw(Cs + Cgs) behind a series capacitor, which vanishes at no w > 0. An
exact zero pivot, as at a node with nothing connected or an LC tank at
its resonance, raises SimulationError("singular nodal system at f Hz")
naming the first such frequency; each pivot is checked once, after the
program has run, since no pivot is written after its own elimination. A
zero determinant of I + y' raises "singular port system at f Hz". An
entry of S that is still not finite, as when w is so small that Gamma/(jw)
overflows, raises "non-finite S-parameters at f Hz". Each message names
a frequency of the sweep, not of a block. Pivots are checked block by
block, before S is formed, so a zero pivot anywhere in the sweep is
reported ahead of a port-system or S error at a lower frequency.

Determinism: same inputs give the same bytes; a sweep entry equals
s_parameters_at at that frequency bit for bit, because every operation
acts on each frequency alone. Results are not bit-identical to the dense
LU solver that came before; they agree within 1e-10 relative to
max(1, max|S|).

numpy is imported inside the functions that use it, not when this module
loads: the first Network construction loads it. This module is loaded
only on use too: the package re-exports its names through a module
__getattr__, and of the CLI subcommands only simulate imports it. So the
other five pay for neither numpy, this module nor the dataclasses module
of TwoPortSweep. A Network's plan and stamps sit in its underscore slots.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from ._record import Record, is_positive_number, set_field
from .design import DesignReport
from .errors import DesignError, SimulationError

LINEAR = "linear"
LOG = "log"

# frequencies per elimination pass: each step of the program is one numpy
# call per row, so longer blocks spread the call overhead. On the 1001-point
# benchmark sweeps, 128 ran 10% faster than 64 at no more peak RSS. With S
# formed once per sweep, 256 solves the four benchmark designs 17-22%
# faster than 128 (minima of 150 interleaved sweeps, 2-vCPU Xeon) for
# 0.4 MB more peak RSS in a sweep-dense loop (35.6 against 35.2 MB), about
# what the parent's 128 took. A block is kept contiguous: a strided
# partial last block had numpy copy all of it, 1 MB more.
_BLOCK = 256

# stamp kinds: which of G, C and Gamma an element's value goes to
_G, _C, _GAMMA = 0, 1, 2


class Resistor(Record):
    __slots__ = ("a", "b", "ohms")

    def __init__(self, a: int, b: int, ohms: float) -> None:
        set_field(self, "a", a)
        set_field(self, "b", b)
        set_field(self, "ohms", ohms)


class Capacitor(Record):
    __slots__ = ("a", "b", "farads")

    def __init__(self, a: int, b: int, farads: float) -> None:
        set_field(self, "a", a)
        set_field(self, "b", b)
        set_field(self, "farads", farads)


class Inductor(Record):
    __slots__ = ("a", "b", "henries")

    def __init__(self, a: int, b: int, henries: float) -> None:
        set_field(self, "a", a)
        set_field(self, "b", b)
        set_field(self, "henries", henries)


class Vccs(Record):
    """Current gm*(V(ctrl_p) - V(ctrl_m)) flowing from out_p to out_m."""

    __slots__ = ("out_p", "out_m", "ctrl_p", "ctrl_m", "gm")

    def __init__(self, out_p: int, out_m: int, ctrl_p: int, ctrl_m: int, gm: float) -> None:
        set_field(self, "out_p", out_p)
        set_field(self, "out_m", out_m)
        set_field(self, "ctrl_p", ctrl_p)
        set_field(self, "ctrl_m", ctrl_m)
        set_field(self, "gm", gm)


class Port(Record):
    __slots__ = ("node", "z0")

    def __init__(self, node: int, z0: float = 50.0) -> None:
        set_field(self, "node", node)
        set_field(self, "z0", z0)


class Network(Record):
    """Two-port element network with ground at node 0."""

    __slots__ = ("node_count", "elements", "port1", "port2", "_plan", "_g", "_c", "_gamma")

    def __init__(self, node_count: int, elements: tuple, port1: Port, port2: Port) -> None:
        if type(node_count) is not int:
            raise DesignError(f"node count must be an int, got {node_count!r}")
        if not isinstance(elements, tuple):
            raise DesignError(f"elements must be a tuple, got {elements!r}")
        for port in (port1, port2):
            if not isinstance(port, Port):
                raise DesignError(f"not a Port: {port!r}")
            if type(port.node) is not int:
                raise DesignError(f"port node must be an int, got {port.node!r}")
            if not is_positive_number(port.z0):
                raise DesignError(
                    f"port reference impedance must be positive and finite, got {port.z0!r}"
                )
        # one pass over the elements checks each value and collects the
        # topology entry and stamp value of each
        topology = []
        values = []
        for e in elements:
            if isinstance(e, Vccs):
                real = isinstance(e.gm, (int, float)) and not isinstance(e.gm, bool)
                if not (real and math.isfinite(e.gm)):
                    raise DesignError(f"transconductance must be a finite real number: {e}")
                entry = (_G, e.out_p, e.out_m, e.ctrl_p, e.ctrl_m)
                if set(map(type, entry)) != {int}:
                    raise DesignError(f"element nodes must be ints: {e}")
                topology.append(entry)
                values.append(e.gm)
                continue
            if isinstance(e, Inductor):
                kind, value = _GAMMA, e.henries
            elif isinstance(e, Capacitor):
                kind, value = _C, e.farads
            elif isinstance(e, Resistor):
                kind, value = _G, e.ohms
            else:
                raise DesignError(f"unknown element type: {e!r}")
            # a float, the usual value, is checked without a call
            if not (type(value) is float and 0.0 < value < math.inf or is_positive_number(value)):
                raise DesignError(f"element value must be positive and finite: {e}")
            # a bool or float node equals its int, and would even share its
            # cached plan
            a, b = e.a, e.b
            if type(a) is not int or type(b) is not int:
                raise DesignError(f"element nodes must be ints: {e}")
            topology.append((kind, a, b))
            values.append(value if kind == _C else 1.0 / value)
        import numpy as np

        # refuses a bad topology here; a cached topology was checked before
        plan = _analyse(node_count, port1.node, port2.node, tuple(topology))
        weights = np.array(values)[plan.stamp_element] * plan.stamp_sign
        g, c, gamma = np.bincount(plan.stamp_slot, weights, 3 * plan.slots).reshape(3, -1)
        set_field(self, "node_count", node_count)
        set_field(self, "elements", elements)
        set_field(self, "port1", port1)
        set_field(self, "port2", port2)
        set_field(self, "_plan", plan)
        set_field(self, "_g", g)
        set_field(self, "_c", c[: plan.reactive])
        set_field(self, "_gamma", gamma[: plan.reactive])


@dataclass(frozen=True)
class TwoPortSweep:
    """Frequencies with the S-matrix ((s11, s12), (s21, s22)) at each."""

    frequencies: tuple[float, ...]
    s_matrices: tuple[tuple[tuple[complex, complex], tuple[complex, complex]], ...]
    reference_impedance: float


class SweepMetrics(Record):
    __slots__ = ("low_freq_gain_db", "cutoff_hz", "worst_s11_db")

    def __init__(
        self, low_freq_gain_db: float, cutoff_hz: float | None, worst_s11_db: float
    ) -> None:
        set_field(self, "low_freq_gain_db", low_freq_gain_db)
        set_field(self, "cutoff_hz", cutoff_hz)
        set_field(self, "worst_s11_db", worst_s11_db)


def build_network(report: DesignReport) -> Network:
    """Amplifier network from a design report.

    Both lines are chains of T-sections with adjacent half-inductors
    merged; the far gate end and the near drain end are terminated in the
    system impedance, leaving the gate input as port 1 and the drain
    output as port 2. Each stage hangs its input branch (optional series
    capacitor, then ri, then cgs to ground) off its gate node and its
    output (rds if finite, cds, and the controlled source) off its drain
    node. Tapered reports size each stage's inductance from its profile
    section.
    """
    t = report.transistor
    n = report.stages
    z0 = report.system_impedance
    l_gate = _cell_inductances(report, gate=True)
    l_drain = _cell_inductances(report, gate=False)

    counter = [1]

    def new_node() -> int:
        k = counter[0]
        counter[0] += 1
        return k

    elements: list = []
    p1 = new_node()
    gate_nodes = [new_node() for _ in range(n)]
    gate_term = new_node()
    drain_term = new_node()
    drain_nodes = [new_node() for _ in range(n)]
    p2 = new_node()

    _chain(elements, [p1] + gate_nodes + [gate_term], l_gate)
    elements.append(Resistor(gate_term, 0, z0))
    _chain(elements, [drain_term] + drain_nodes + [p2], l_drain)
    elements.append(Resistor(drain_term, 0, z0))

    for g_node, d_node in zip(gate_nodes, drain_nodes):
        node = g_node
        if report.series_capacitor is not None:
            nxt = new_node()
            elements.append(Capacitor(node, nxt, report.series_capacitor))
            node = nxt
        if t.ri > 0:
            nxt = new_node()
            elements.append(Resistor(node, nxt, t.ri))
            node = nxt
        elements.append(Capacitor(node, 0, t.cgs))
        ctrl = node
        if math.isfinite(t.rds):
            elements.append(Resistor(d_node, 0, t.rds))
        elements.append(Capacitor(d_node, 0, t.cds))
        elements.append(Vccs(d_node, 0, ctrl, 0, t.gm))

    return Network(
        node_count=counter[0],
        elements=tuple(elements),
        port1=Port(p1, z0),
        port2=Port(p2, z0),
    )


def s_parameters_at(net: Network, f: float):
    """S-matrix of the network at a single frequency, as a nested tuple."""
    if not 0 < f < math.inf:
        raise SimulationError(f"frequency must be positive and finite, got {f}")
    return _solve(net, [f])[0]


def sweep(
    net: Network,
    f_start: float,
    f_stop: float,
    points: int,
    spacing: str = LINEAR,
) -> TwoPortSweep:
    """Evaluate the network over a frequency grid, in grid order."""
    if not 0 < f_start < f_stop < math.inf:
        raise SimulationError(f"need 0 < f_start < f_stop < inf, got {f_start} and {f_stop}")
    # bool is an int, but True is no point count
    if isinstance(points, bool) or not isinstance(points, int) or points < 2:
        raise SimulationError(f"need at least 2 points, got {points!r}")
    if spacing == LINEAR:
        step = (f_stop - f_start) / (points - 1)
        freqs = [f_start + k * step for k in range(points)]
    elif spacing == LOG:
        lstep = (math.log(f_stop) - math.log(f_start)) / (points - 1)
        freqs = [math.exp(math.log(f_start) + k * lstep) for k in range(points)]
    else:
        raise SimulationError(f"spacing must be {LINEAR!r} or {LOG!r}, got {spacing!r}")
    freqs[0] = f_start
    freqs[-1] = f_stop
    return TwoPortSweep(
        frequencies=tuple(freqs),
        s_matrices=tuple(_solve(net, freqs)),
        reference_impedance=net.port1.z0,
    )


def extract_metrics(swp: TwoPortSweep) -> SweepMetrics:
    """Low-frequency gain, -3 dB cutoff, and worst in-band input match.

    The cutoff is taken relative to the gain at the first sweep point and
    located by linear interpolation in dB between samples. When the gain
    never drops 3 dB inside the sweep, cutoff_hz is None and the input
    match is reported over the whole sweep instead.
    """
    count = len(swp.frequencies)
    if not count or len(swp.s_matrices) != count:
        raise SimulationError(
            f"a sweep needs one S-matrix per frequency, at least one: got "
            f"{len(swp.s_matrices)} for {count} frequencies"
        )
    # 20 log10 |s|, -inf for a zero magnitude, inlined: S21 is read only up
    # to the cutoff and S11 only where f <= cutoff keeps it
    log10, inf = math.log10, math.inf
    freqs, mats = swp.frequencies, swp.s_matrices
    mag = abs(mats[0][1][0])
    ref = 20.0 * log10(mag) if mag else -inf
    threshold = ref - 3.0
    cutoff = None
    db_lo = ref
    for i in range(1, count):
        mag = abs(mats[i][1][0])
        db = 20.0 * log10(mag) if mag else -inf
        if db <= threshold:
            if db == threshold:
                cutoff = freqs[i]
            else:
                f_lo, f_hi = freqs[i - 1], freqs[i]
                cutoff = f_lo + (db_lo - threshold) * (f_hi - f_lo) / (db_lo - db)
            break
        db_lo = db
    if cutoff is not None:
        # a hand-built sweep need not be in frequency order, so filter
        mats = [m for f, m in zip(freqs, mats) if f <= cutoff]
    s11_mags = [abs(m[0][0]) for m in mats]
    worst = max([20.0 * log10(mag) if mag else -inf for mag in s11_mags])
    return SweepMetrics(low_freq_gain_db=ref, cutoff_hz=cutoff, worst_s11_db=worst)


class _Plan(Record):
    """What a topology fixes about its solve: slots, stamps and the program.

    Every entry of Y that is ever nonzero, stamped or filled in, has a slot:
    a row of the (slots, frequencies) array the solve works on. The first
    `reactive` slots are those a capacitor or an inductor stamps. Stamp k
    adds the value of element stamp_element[k], times stamp_sign[k], at
    stamp_slot[k] = kind * slots + slot. program holds (kk, (kj, ...),
    ((ij, ik, kj), ...)) per pivot, in order; pivots holds the pivot slots
    and ports the slots of Y11, Y12, Y21 and Y22.
    """

    __slots__ = ("slots", "reactive", "stamp_slot", "stamp_element", "stamp_sign", "program",
                 "pivots", "ports")

    def __init__(
        self, slots, reactive, stamp_slot, stamp_element, stamp_sign, program, pivots, ports
    ) -> None:
        set_field(self, "slots", slots)
        set_field(self, "reactive", reactive)
        set_field(self, "stamp_slot", stamp_slot)
        set_field(self, "stamp_element", stamp_element)
        set_field(self, "stamp_sign", stamp_sign)
        set_field(self, "program", program)
        set_field(self, "pivots", pivots)
        set_field(self, "ports", ports)


@functools.lru_cache(maxsize=64)
def _analyse(node_count: int, port1: int, port2: int, topology: tuple) -> _Plan:
    """Slot layout, elimination order and update program of a topology.

    topology holds (kind, a, b) for each two-terminal element and
    (_G, out_p, out_m, ctrl_p, ctrl_m) for each VCCS, in element order.
    Entries are keyed by (row node, column node) until slots are numbered.

    It also refuses a bad topology with DesignError. Exceptions are not
    cached, so the same topology is refused again the next time.
    """
    import numpy as np

    if node_count < 2:
        raise DesignError("network needs at least ground and one more node")
    for port in (port1, port2):
        if not 0 < port < node_count:
            raise DesignError(f"port node {port} out of range (and not ground)")
    if port1 == port2:
        raise DesignError("ports must sit on distinct nodes")
    entries = dict.fromkeys((k, k) for k in range(1, node_count))
    entries.update(dict.fromkeys(((port1, port1), (port1, port2), (port2, port1), (port2, port2))))
    stamps = []  # (kind, entry, element, sign)
    passive: list[list[int]] = [[] for _ in range(node_count)]
    for element, (kind, *nodes) in enumerate(topology):
        for n in nodes:
            if not 0 <= n < node_count:
                raise DesignError(f"node {n} out of range in element {element}")
        if len(nodes) == 4:
            out_p, out_m, ctrl_p, ctrl_m = nodes
            pairs = ((out_p, ctrl_p, 1.0), (out_p, ctrl_m, -1.0),
                     (out_m, ctrl_p, -1.0), (out_m, ctrl_m, 1.0))
        else:
            a, b = nodes
            if a == b:
                raise DesignError(f"element {element} shorts node {a} to itself")
            passive[a].append(b)
            passive[b].append(a)
            pairs = ((a, a, 1.0), (b, b, 1.0), (a, b, -1.0), (b, a, -1.0))
        stamps += [(kind, (i, j), element, sign) for i, j, sign in pairs if i and j]
    entries.update(dict.fromkeys(entry for _, entry, _, _ in stamps))

    # DC-wise floating ports make the port admittance meaningless, so
    # require a passive path to ground before any solve is attempted
    grounded = {0}
    frontier = [0]
    while frontier:
        for nxt in passive[frontier.pop()]:
            if nxt not in grounded:
                grounded.add(nxt)
                frontier.append(nxt)
    for port in (port1, port2):
        if port not in grounded:
            raise DesignError(f"port node {port} has no passive path to ground")

    # passive-branch distance from the ports, not through ground; nodes
    # with no such path to a port go first
    distance = [node_count] * node_count
    distance[port1] = distance[port2] = 0
    frontier = [port1, port2]
    while frontier:
        reached = []
        for node in frontier:
            for nxt in passive[node]:
                if nxt and distance[nxt] == node_count:
                    distance[nxt] = distance[node] + 1
                    reached.append(nxt)
        frontier = reached
    order = sorted(
        (k for k in range(1, node_count) if k not in (port1, port2)),
        key=lambda k: (-distance[k], k),
    )

    # symbolic elimination over the off-diagonal pattern of rows and columns
    row_cols: list[set[int]] = [set() for _ in range(node_count)]
    col_rows: list[set[int]] = [set() for _ in range(node_count)]
    for i, j in entries:
        if i != j:
            row_cols[i].add(j)
            col_rows[j].add(i)
    program = []
    for k in order:
        rows, cols = sorted(col_rows[k]), sorted(row_cols[k])
        updates = []
        for i in rows:
            row_cols[i].discard(k)
            for j in cols:
                updates.append(((i, j), (i, k), (k, j)))
                if i != j:
                    row_cols[i].add(j)
                    col_rows[j].add(i)
        for j in cols:
            col_rows[j].discard(k)
        program.append(((k, k), [(k, j) for j in cols], updates))
        entries.update(dict.fromkeys(ij for ij, _, _ in updates))

    # number the slots, reactive ones first
    reactive = dict.fromkeys(entry for kind, entry, _, _ in stamps if kind != _G)
    slot = {entry: index for index, entry in enumerate({**reactive, **entries})}
    count = len(slot)
    kinds, stamped, elements, signs = zip(*stamps)
    return _Plan(
        slots=count,
        reactive=len(reactive),
        stamp_slot=np.array(kinds, dtype=np.intp) * count
        + np.array([slot[e] for e in stamped], dtype=np.intp),
        stamp_element=np.array(elements, dtype=np.intp),
        stamp_sign=np.array(signs),
        program=tuple(
            (
                slot[kk],
                tuple(slot[kj] for kj in kjs),
                tuple((slot[ij], slot[ik], slot[kj]) for ij, ik, kj in updates),
            )
            for kk, kjs, updates in program
        ),
        pivots=np.array([slot[k, k] for k in order], dtype=np.intp),
        ports=np.array([slot[port1, port1], slot[port1, port2], slot[port2, port1],
                        slot[port2, port2]], dtype=np.intp),
    )


def _solve(net: Network, freqs: list[float]) -> list:
    """S-matrices at the frequencies, as nested tuples."""
    import numpy as np

    # a zero pivot turns its frequency's entries into inf and nan, and so
    # does a frequency so low that Gamma/(jw) overflows, or so high that w
    # does; pivots are checked block by block, and S once it is formed
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # the blocks' buffers are freed on return, before S is formed
        s = _port_admittance(net, freqs)
        # S = (I - y')(I + y')^-1 with y' = D Yp D, D = diag(sqrt(z1), sqrt(z2)),
        # written out for 2x2, once over the whole sweep; S takes the place
        # of Yp's rows
        z1, z2 = net.port1.z0, net.port2.z0
        cross = math.sqrt(z1 * z2)
        a, b, c, d = s[0] * z1, s[1] * cross, s[2] * cross, s[3] * z2
        det = (1.0 + a) * (1.0 + d) - b * c
        zero = np.flatnonzero(det == 0)
        if zero.size:
            raise SimulationError(f"singular port system at {freqs[zero[0]]} Hz")
        s[0] = ((1.0 - a) * (1.0 + d) + b * c) / det
        s[1] = -2.0 * b / det
        s[2] = -2.0 * c / det
        s[3] = ((1.0 + a) * (1.0 - d) + b * c) / det
        if not np.isfinite(s).all():
            bad = np.flatnonzero(~np.isfinite(s).all(axis=0))[0]
            raise SimulationError(f"non-finite S-parameters at {freqs[bad]} Hz")
    s11, s12, s21, s22 = s.tolist()
    return list(zip(zip(s11, s12), zip(s21, s22)))


def _port_admittance(net: Network, freqs: list[float]):
    """Rows Y11, Y12, Y21 and Y22 of Yp, as a (4, frequencies) array.

    Each block of _BLOCK frequencies assembles Y, runs the program on it
    and checks its pivots, which are never written after their own
    elimination; then it copies out the four port rows. It runs under
    _solve's errstate.
    """
    import numpy as np

    plan = net._plan
    reactive = plan.reactive
    width = min(len(freqs), _BLOCK)
    work = np.empty(plan.slots * width, dtype=complex)
    yp = np.empty((4, len(freqs)), dtype=complex)
    divide, multiply, subtract = np.divide, np.multiply, np.subtract
    for start in range(0, len(freqs), width):
        w = 2.0 * math.pi * np.array(freqs[start : start + width])
        count = len(w)
        # contiguous in a partial last block too, so no step copies it
        y = work[: plan.slots * count].reshape(plan.slots, count)
        # Y = G + jwC + Gamma/(jw), the imaginary part only where C or
        # Gamma stamps; Gamma/w goes through the real part, which G then
        # overwrites
        y_reactive = y.imag[:reactive]
        multiply.outer(net._c, w, out=y_reactive)
        divide.outer(net._gamma, w, out=y.real[:reactive])
        subtract(y_reactive, y.real[:reactive], out=y_reactive)
        y.real = net._g[:, None]
        y.imag[reactive:] = 0.0
        rows = list(y)
        scratch = np.empty(count, dtype=complex)
        for kk, kjs, updates in plan.program:
            pivot = rows[kk]
            for kj in kjs:
                divide(rows[kj], pivot, rows[kj])
            for ij, ik, kj in updates:
                multiply(rows[ik], rows[kj], scratch)
                subtract(rows[ij], scratch, rows[ij])
        zero = np.flatnonzero((y[plan.pivots] == 0).any(axis=0))
        if zero.size:
            raise SimulationError(f"singular nodal system at {freqs[start + zero[0]]} Hz")
        # "clip" writes straight into the strided out, where the default
        # mode would buffer; the port slots are always in range
        y.take(plan.ports, axis=0, out=yp[:, start : start + count], mode="clip")
    return yp


def _chain(elements: list, nodes: list[int], cell_l: list[float]) -> None:
    """Series inductors down a line: half cells at the ends, merged middles."""
    count = len(nodes) - 1
    for i in range(count):
        if i == 0:
            value = cell_l[0] / 2.0
        elif i == count - 1:
            value = cell_l[-1] / 2.0
        else:
            value = (cell_l[i - 1] + cell_l[i]) / 2.0
        elements.append(Inductor(nodes[i], nodes[i + 1], value))


def _cell_inductances(report: DesignReport, gate: bool) -> list[float]:
    n = report.stages
    if report.taper is None:
        cell = report.gate_cell if gate else report.drain_cell
        return [cell.inductance] * n
    profile = report.taper_gate_profile if gate else report.taper_drain_profile
    if profile is None:
        raise DesignError("tapered report is missing its profiles")
    sections = profile.sections
    expected = (n, n + 1) if gate else (n,)
    if len(sections) not in expected:
        raise DesignError(
            f"{'gate' if gate else 'drain'} profile has {len(sections)} sections "
            f"for {n} stages"
        )
    c_load = report.effective_cgs if gate else report.transistor.cds
    return [z * z * c_load for z in sections[:n]]
