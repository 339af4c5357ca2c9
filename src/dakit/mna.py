"""Small-signal two-port simulation by nodal analysis.

Networks are R/L/C elements plus voltage-controlled current sources on an
integer node set with ground fixed at node 0. Line terminations are
ordinary resistors inside the network; only the two port nodes are
excited. The nodal admittance follows Ho, Ruehli and Brennan's modified
nodal approach: G (conductances and VCCS transconductances), C
(capacitances) and Gamma (inverse inductances), so that at angular
frequency w

    Y(w) = G + jwC + Gamma/(jw).

The analysis. A solve is split in two, after KLU (Davis and Palamadai
Natarajan, ACM TOMS 2010). The symbolic analysis depends only on the
topology: the node count, the port nodes and each element's kind and
nodes. It checks what the topology alone decides (node ranges, distinct
ports, self-shorts, a passive path from each port to ground), fixes a
slot for every entry of Y that is stamped or filled in, an elimination
order and the update program y[ij] -= y[ik] * (y[kj] / y[kk]), and
compiles that program onto a register file by linear scan (see
_compile). The plan it returns keeps the register program only, and is
cached per topology (a least-recently-used cache of 64). A Network is
stamped once, at construction, into the plan's slots; slots whose stamp
values have the same bits share a group, and Y is formed once per group
(see _Plan). A sweep solves its frequencies in blocks of equal width, as
few as keep each block's work buffer within _BUDGET bytes, and leaves the
2x2 port admittance Yp. S is then formed once over the whole sweep: with
real reference impedances and y' = D Yp D, D = diag(sqrt(z1), sqrt(z2)),

    S = (I - y') (I + y')^-1,

written out in closed form for the 2x2 case, into a read-only
(frequencies, 2, 2) complex128 array.

There is no pivoting. The order is the passive-branch (R, L or C)
breadth-first distance from the two ports, farthest node first, ties by
node number; a node with no passive path to a port goes first of all. In
an amplifier network the ladders are then eliminated from their
terminations toward the ports, so each line node's pivot is the
driving-point admittance of a sub-network that already contains its
termination resistor: its real part is positive, so it cannot vanish.
The stage branches are leaves, eliminated before the line node they hang
from; a branch pivot is the admittance of the branch's own elements, such
as jw(Cs + Cgs) behind a series capacitor, which vanishes at no w > 0.

Errors. A bad topology raises DesignError, from the analysis, each time
it is built. An exact zero pivot, as at a node with nothing connected or
an LC tank at its resonance, raises SimulationError("singular nodal
system at f Hz") naming the first such frequency; each pivot is checked
once, after the program has run, since no pivot is written after its own
elimination. A zero determinant of I + y' raises "singular port system at
f Hz". An entry of S that is still not finite, as when w is so small that
Gamma/(jw) overflows, raises "non-finite S-parameters at f Hz". Each
message names a frequency of the sweep, not of a block. Pivots are
checked block by block, before S is formed, so a zero pivot anywhere in
the sweep is reported ahead of a port-system or S error at a lower
frequency.

Determinism: same inputs give the same bytes, whatever the plan cache
holds; a sweep entry has the same bytes as s_parameters_at at that
frequency, because every operation acts on each frequency alone. Results
are not bit-identical to the dense LU solver that came before; they agree
within 1e-10 relative to max(1, max|S|).

numpy is imported inside the functions that use it, not when this module
loads: the first Network construction loads it. This module is loaded
only on use too: the package re-exports its names through a module
__getattr__, and of the CLI subcommands only simulate imports it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from ._record import Record, count, finite_complex, in_range, instance_of, positive, set_field
from .design import DesignReport
from .errors import DesignError, SimulationError

# numpy loads on first use; type checkers take any TYPE_CHECKING as true
TYPE_CHECKING = False
if TYPE_CHECKING:
    import numpy

LINEAR = "linear"
LOG = "log"

# bytes of a block's (registers + groups, frequencies) complex128 work
# buffer, at most: each step of the register program is one numpy call per
# row and each block one assembly of Y, so the fewest blocks spread both.
# At 1 MiB each of the four benchmark designs (17, 17, 23 and 41 nodes)
# solves 1001 points in one block, and their sweeps took 307, 303, 361 and
# 728 us, against 347, 343, 412 and 797 at 512 KiB (two blocks each) and
# 379, 376, 456 and 1025 at 256 KiB (minima of 150 interleaved sweeps,
# 2-vCPU Xeon); 2 MiB took the same as 1 MiB. A block is kept contiguous:
# a strided partial last block had numpy copy all of it.
_BUDGET = 1 << 20

# stamp kinds: which of G, C and Gamma an element's value goes to
_G, _C, _GAMMA = 0, 1, 2


class Resistor(Record):
    __slots__ = ("a", "b", "ohms")


class Capacitor(Record):
    __slots__ = ("a", "b", "farads")


class Inductor(Record):
    __slots__ = ("a", "b", "henries")


class Vccs(Record):
    """Current gm*(V(ctrl_p) - V(ctrl_m)) flowing from out_p to out_m."""

    __slots__ = ("out_p", "out_m", "ctrl_p", "ctrl_m", "gm")


class Port(Record):
    __slots__ = ("node", "z0")
    _defaults = {"z0": 50.0}


class Network(Record):
    """Two-port element network with ground at node 0."""

    __slots__ = (
        "node_count", "elements", "port1", "port2", "_plan", "_grouping", "_g", "_c", "_gamma"
    )

    def __post_init__(self) -> None:
        node_count, elements, port1, port2 = self.node_count, self.elements, self.port1, self.port2
        if type(node_count) is not int:
            raise DesignError(f"node count must be an int, got {node_count!r}")
        instance_of(elements, tuple, "elements", DesignError)
        for port in (port1, port2):
            instance_of(port, Port, "port", DesignError)
            if type(port.node) is not int:
                raise DesignError(f"port node must be an int, got {port.node!r}")
            positive(port.z0, "port reference impedance", DesignError)
        # one pass over the elements checks each value and collects the
        # topology entry and stamp value of each
        topology = []
        values = []
        for e in elements:
            if isinstance(e, Vccs):
                in_range(e.gm, "transconductance", DesignError, "finite")
                entry = (_G, e.out_p, e.out_m, e.ctrl_p, e.ctrl_m)
                if set(map(type, entry)) != {int}:
                    raise DesignError(f"element nodes must be ints, got {e!r}")
                topology.append(entry)
                values.append(e.gm)
                continue
            if isinstance(e, Inductor):
                kind, value = _GAMMA, e.henries
                positive(value, "inductance", DesignError)
            elif isinstance(e, Capacitor):
                kind, value = _C, e.farads
                positive(value, "capacitance", DesignError)
            elif isinstance(e, Resistor):
                kind, value = _G, e.ohms
                positive(value, "resistance", DesignError)
            else:
                raise DesignError(f"unknown element type, got {e!r}")
            # a bool or float node equals its int, and would even share its
            # cached plan
            a, b = e.a, e.b
            if type(a) is not int or type(b) is not int:
                raise DesignError(f"element nodes must be ints, got {e!r}")
            topology.append((kind, a, b))
            values.append(value if kind == _C else 1.0 / value)
        import numpy as np

        # refuses a bad topology here; a cached topology was checked before
        plan = _analyse(node_count, port1.node, port2.node, tuple(topology))
        weights = np.array(values)[plan.stamp_element] * plan.stamp_sign
        stamps = np.bincount(plan.stamp_slot, weights, 3 * plan.slots)
        # the plan's grouping holds if each stamp has the bytes of its
        # group leader's, so that Y of a group is Y of each of its slots
        grouping = plan.grouping
        if grouping is None or stamps.take(grouping[1]).tobytes() != stamps.tobytes():
            grouping = _refine(plan, stamps)
        picks, groups, reactive = grouping[2:5]
        table = stamps.take(picks)
        set_field(self, "_plan", plan)
        set_field(self, "_grouping", grouping)
        set_field(self, "_g", table[:groups])
        set_field(self, "_c", table[groups : groups + reactive])
        set_field(self, "_gamma", table[groups + reactive :])


@dataclass(frozen=True, eq=False)
class TwoPortSweep:
    """Frequencies, the S-matrix at each, and the ports' common reference
    impedance, None if the two differ.

    frequencies is one read-only, C-contiguous float64 array of shape (n,),
    and s_matrices one read-only complex128 array of shape (n, 2, 2), whose
    entry k is ((s11, s12), (s21, s22)) at frequencies[k]. The constructor
    checks every input one way, entry by entry: the frequencies, a tuple
    or a 1-D float64 array read as the tuple of its values, with positive,
    and each entry of S, nested tuples or an array, in C order with
    finite_complex. It then stores new read-only arrays of them, so a
    sweep never shares the arrays it was given. Sweeps compare and hash by
    the bytes of their frequencies and of S and by the reference
    impedance, and copy and pickle through the constructor, so a copy holds
    new arrays too. sweep stores what it made without the constructor's
    checks, which it has made itself.
    """

    frequencies: numpy.ndarray
    s_matrices: numpy.ndarray
    reference_impedance: float | None

    def __post_init__(self) -> None:
        import numpy as np

        freqs, s, z0 = self.frequencies, self.s_matrices, self.reference_impedance
        # an array of frequencies, such as a copy's, is read as its values
        if freqs.__class__ is np.ndarray and freqs.dtype == float and freqs.ndim == 1:
            freqs = tuple(freqs.tolist())
        instance_of(freqs, tuple, "frequencies", SimulationError)
        for f in freqs:
            positive(f, "frequency", SimulationError)
        if z0 is not None:
            positive(z0, "reference impedance", SimulationError)
        # as objects, so that numpy takes no bool or str for a number
        s = np.array(s, dtype=object)
        if not freqs or s.shape != (len(freqs), 2, 2):
            raise SimulationError(
                f"a sweep needs one S-matrix per frequency, at least one, each "
                f"2x2: got {self.s_matrices!r}"
            )
        for value in s.flat:
            finite_complex(value, "S-parameter", SimulationError)
        freqs = np.array(freqs, dtype=float)
        s = s.astype(complex)
        freqs.flags.writeable = s.flags.writeable = False
        set_field(self, "frequencies", freqs)
        set_field(self, "s_matrices", s)

    @classmethod
    def _made(cls, frequencies, s_matrices, reference_impedance) -> TwoPortSweep:
        """The sweep of values that their maker has checked: sweep's
        read-only grid, positive and finite from checked ends, and the S of
        _solve, which refuses one that is not finite."""
        swp = object.__new__(cls)
        set_field(swp, "frequencies", frequencies)
        set_field(swp, "s_matrices", s_matrices)
        set_field(swp, "reference_impedance", reference_impedance)
        return swp

    @functools.cached_property
    def s_db(self) -> numpy.ndarray:
        """20 log10 |S|, -inf where |S| is 0, as a read-only (n, 4) float64
        array whose row k holds S11, S12, S21 and S22 at frequencies[k].

        Computed on first use and kept, so that extract_metrics and
        write_csv take each entry's dB once a sweep. It is no field: a
        copy, an unpickled sweep or a dataclasses.replace computes its own.
        """
        db = _db(self.s_matrices).reshape(-1, 4)
        db.flags.writeable = False
        return db

    def __eq__(self, other: object):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self.reference_impedance == other.reference_impedance
            and self.frequencies.tobytes() == other.frequencies.tobytes()
            and self.s_matrices.tobytes() == other.s_matrices.tobytes()
        )

    def __hash__(self) -> int:
        return hash(
            (self.frequencies.tobytes(), self.s_matrices.tobytes(), self.reference_impedance)
        )

    def __reduce__(self):
        # copy and pickle rebuild a sweep through the constructor, which
        # checks the arrays again and stores read-only arrays of its own
        return self.__class__, (self.frequencies, self.s_matrices, self.reference_impedance)


class SweepMetrics(Record):
    __slots__ = ("low_freq_gain_db", "cutoff_hz", "worst_s11_db")


def build_network(report: DesignReport) -> Network:
    """Amplifier network from a design report.

    Both lines are chains of T-sections with adjacent half-inductors
    merged; the far gate end and the near drain end are terminated in the
    system impedance, leaving the gate input as port 1 and the drain
    output as port 2. Each stage hangs its input branch (optional series
    capacitor, then ri, then cgs to ground) off its gate node and its
    output (rds if finite, cds, and the controlled source) off its drain
    node. Each line stamps the report's per-stage cells, so a tapered
    line steps its inductance from stage to stage; the terminations and
    ports are at the requested system impedance.
    """
    instance_of(report, DesignReport, "report", DesignError)
    t = report.transistor
    n = report.stages
    z0 = report.options.system_impedance
    # a report's constructor checks nothing, so an edited one may disagree
    if not len(report.gate_cells) == len(report.drain_cells) == n:
        raise DesignError(
            f"report has {n} stages but {len(report.gate_cells)} gate and "
            f"{len(report.drain_cells)} drain cells"
        )

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

    _chain(elements, [p1] + gate_nodes + [gate_term], report.gate_cells)
    elements.append(Resistor(gate_term, 0, z0))
    _chain(elements, [drain_term] + drain_nodes + [p2], report.drain_cells)
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
    """S-matrix of the network at a single frequency, as a read-only (2, 2)
    complex128 array."""
    instance_of(net, Network, "network", SimulationError)
    positive(f, "frequency", SimulationError)
    import numpy as np

    return _solve(net, np.array([f], dtype=float))[0]


def sweep(
    net: Network,
    f_start: float,
    f_stop: float,
    points: int,
    spacing: str = LINEAR,
) -> TwoPortSweep:
    """Evaluate the network over a frequency grid, in grid order.

    The grid is one read-only float64 array, each point rounded as CPython
    rounds f_start + k*step, or exp(log(f_start) + k*lstep) for a log grid;
    its ends are f_start and f_stop themselves.
    """
    import numpy as np

    instance_of(net, Network, "network", SimulationError)
    positive(f_start, "f_start", SimulationError)
    positive(f_stop, "f_stop", SimulationError)
    if not f_start < f_stop:
        raise SimulationError(f"need f_start < f_stop, got {f_start} and {f_stop}")
    count(points, "point count", SimulationError, 2)
    if spacing == LINEAR:
        step = (f_stop - f_start) / (points - 1)
        # k*step, then + f_start: the two roundings of f_start + k*step
        freqs = np.arange(points) * step + f_start
    elif spacing == LOG:
        log_start = math.log(f_start)
        lstep = (math.log(f_stop) - log_start) / (points - 1)
        # numpy's exp does not match math's to the last bit
        exponents = (np.arange(points) * lstep + log_start).tolist()
        freqs = np.fromiter(map(math.exp, exponents), float, points)
    else:
        raise SimulationError(f"spacing must be {LINEAR!r} or {LOG!r}, got {spacing!r}")
    freqs[0] = f_start
    freqs[-1] = f_stop
    freqs.flags.writeable = False
    return TwoPortSweep._made(
        freqs,
        _solve(net, freqs),
        net.port1.z0 if net.port1.z0 == net.port2.z0 else None,
    )


def _db(s: numpy.ndarray) -> numpy.ndarray:
    """20 log10 |s| of each entry of the complex array s, as a float64 array
    of s's shape, -inf where |s| is 0, which costs no log10. numpy's hypot
    is the libm hypot that abs(complex) calls, so |s| is abs's bit for bit;
    the log10 stay with math's, which numpy's does not match to the last
    bit, mapped over the nonzero magnitudes straight into an array. numpy's
    multiply by 20 is Python's, one IEEE rounding, and keeps -inf."""
    import numpy as np

    m = np.hypot(s.real, s.imag)
    db = np.empty(m.shape)
    db.fill(-math.inf)
    nonzero = m != 0.0
    mags = m[nonzero]
    db[nonzero] = np.fromiter(map(math.log10, mags.tolist()), float, mags.size)
    db *= 20.0
    return db


def extract_metrics(swp: TwoPortSweep) -> SweepMetrics:
    """Low-frequency gain, -3 dB cutoff, and worst in-band input match.

    The cutoff is taken relative to the gain at the first sweep point and
    located by linear interpolation in dB between samples. When the gain
    never drops 3 dB inside the sweep, cutoff_hz is None and the input
    match is reported over the whole sweep instead.
    """
    import numpy as np

    instance_of(swp, TwoPortSweep, "sweep", SimulationError)
    freqs, db = swp.frequencies, swp.s_db
    s11, s21 = db[:, 0], db[:, 2]
    ref = float(s21[0])
    threshold = ref - 3.0
    # the first point after the first that is at or below the threshold
    below = s21 <= threshold
    below[0] = False
    i = int(below.argmax())
    if below[i]:
        (f_lo, f_hi), (db_lo, db_hi) = freqs[i - 1 : i + 1].tolist(), s21[i - 1 : i + 1].tolist()
        if db_hi == threshold:
            cutoff = f_hi
        else:
            cutoff = f_lo + (db_lo - threshold) * (f_hi - f_lo) / (db_lo - db_hi)
        # a hand-built sweep need not be in frequency order, so filter
        worst = np.maximum.reduce(s11, where=freqs <= cutoff, initial=-math.inf)
    else:
        cutoff, worst = None, np.maximum.reduce(s11)
    return SweepMetrics(low_freq_gain_db=ref, cutoff_hz=cutoff, worst_s11_db=float(worst))


class _Plan:
    """What a topology fixes about its solve: slots, stamps and the register
    program.

    Every entry of Y that is ever nonzero, stamped or filled in, has a
    slot. The first `pivots` slots are the pivots, in elimination order,
    and the last four are Y11, Y12, Y21 and Y22. Stamp k adds the value of
    element stamp_element[k], times stamp_sign[k], at stamp_slot[k] = kind
    * slots + slot. code is the elimination as _compile makes it, on the
    rows of a block: `registers` registers, the pivots' first, then the
    table row of each slot. copied holds the pivots that the program never
    writes, whose table rows a block copies into registers 0, 1, ...;
    ports the rows of Y11, Y12, Y21 and Y22 at the end.

    grouping, None until a network is stamped, is (group, leaders, picks,
    groups, reactive, copies, reads, ports). Slot s belongs to group
    group[s], whose leader is its first slot; the first `reactive` of the
    `groups` groups are those a capacitor or an inductor stamps. A
    network's stamps are G, C and Gamma of each slot in turn, 3 * slots
    floats: leaders indexes, for each of them, the leader's stamp of the
    same kind, and picks G of each group, then C and Gamma of each
    reactive group. The last three place code on a block, whose rows are
    the registers and then the table of Y of each group: the group of each
    copied pivot, the block row of each slot's table row, and the block
    rows of Y11, Y12, Y21 and Y22. A network whose stamps have the bytes of
    their leaders' uses the grouping as it is; any other replaces it with
    the common refinement of the two groupings (_refine). So it only ever
    gets finer, and once the networks of each design of a topology have
    been stamped it holds for all of them, where a grouping made anew by
    each network would be made again whenever the designs alternate. A
    network keeps the grouping it was stamped with. Networks built in
    several threads at once may each replace the grouping; each still uses
    one that it checked or made, so a lost refinement is made again, and
    no result changes.

    No Record: its fields hold numpy arrays, which neither compare to a
    bool nor hash, so a plan equals only itself. A Network leaves it out of
    its own equality.
    """

    __slots__ = ("slots", "pivots", "stamp_slot", "stamp_element", "stamp_sign",
                 "registers", "code", "copied", "ports", "grouping")

    def __init__(self, **fields) -> None:
        for name, value in fields.items():
            setattr(self, name, value)
        self.grouping = None


@functools.lru_cache(maxsize=64)
def _analyse(node_count: int, port1: int, port2: int, topology: tuple) -> _Plan:
    """The plan of a topology: _symbolic's slots and stamps, and its program
    compiled onto registers. The slot program is not kept.

    It also refuses a bad topology with DesignError. Exceptions are not
    cached, so the same topology is refused again the next time.
    """
    import numpy as np

    slot, stamps, program = _symbolic(node_count, port1, port2, topology)
    slots = len(slot)
    kinds, stamped, elements, signs = zip(*stamps)
    registers, code, copied, ports = _compile(program, slot)
    return _Plan(
        slots=slots,
        pivots=len(program),
        stamp_slot=np.array(kinds, dtype=np.intp) * slots
        + np.array([slot[e] for e in stamped], dtype=np.intp),
        stamp_element=np.array(elements, dtype=np.intp),
        stamp_sign=np.array(signs),
        registers=registers,
        code=code,
        copied=np.array(copied, dtype=np.intp),
        ports=ports,
    )


def _symbolic(node_count: int, port1: int, port2: int, topology: tuple) -> tuple:
    """Slot layout, elimination order and update program of a topology:
    (slot, stamps, program).

    topology holds (kind, a, b) for each two-terminal element and
    (_G, out_p, out_m, ctrl_p, ctrl_m) for each VCCS, in element order.
    Entries of Y are keyed by (row node, column node), and slot numbers
    each of them. stamps holds (kind, entry, element, sign) per stamp, and
    program (kk, [kj, ...], [(ij, ik, kj), ...]) per pivot, in elimination
    order, on entries: y[kj] /= y[kk], then y[ij] -= y[ik] * y[kj].
    """
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

    # number the slots: the pivots in elimination order, the entries off the
    # diagonal in the order they were found, then Y11, Y12, Y21 and Y22
    ports = [(port1, port1), (port1, port2), (port2, port1), (port2, port2)]
    others = [(i, j) for i, j in entries if i != j and (i, j) not in ports]
    slot = {entry: index for index, entry in enumerate([(k, k) for k in order] + others + ports)}
    return slot, stamps, program


def _compile(program: list, slot: dict) -> tuple:
    """The register program of _symbolic's program, by linear scan
    register allocation (Poletto and Sarkar, ACM TOPLAS 1999): (registers,
    code, copied, ports), as _Plan keeps them.

    The first len(program) registers are the pivots' own rows: first the
    pivots that the program never writes, which copied lists, then the
    others, each in elimination order. Every other slot that the program
    writes is live from its first write to its last read, the four port
    entries to the end, and holds a register only for that interval: a
    first write takes the lowest free register. Each time step is a
    divide or an update's multiply or subtract, and a multiply has run
    when its subtract writes, so that subtract may write a register that
    the multiply read last.

    code holds (pivot, ((src, dst), ...), ((src, dst, ik, kj), ...)) per
    pivot: rows of a list that has the registers first and then, at
    registers + s, the table row of slot s. A first write reads its slot's
    table row, any later one its register, and a read of a slot that is
    never written its table row. ports holds the rows of Y11, Y12, Y21 and
    Y22 at the end.
    """
    slots, pivots = len(slot), len(program)
    # number the time steps once, renaming entries to slots: the code names
    # the register of slot s by s and its table row by slots + s
    first, last = [-1] * slots, [0] * slots
    written = []  # the written slots, in the order of their first writes
    named = []
    time = 0
    for kk, kjs, updates in program:
        divides = []
        for kj in kjs:
            kj = slot[kj]
            if first[kj] < 0:
                first[kj] = time
                written.append(kj)
            divides.append((kj if first[kj] < time else slots + kj, kj))
            last[kj] = time
            time += 1
        steps = []
        for ij, ik, kj in updates:
            ij, ik, kj = slot[ij], slot[ik], slot[kj]
            # kj was written by this pivot's divides, and ik, in the
            # pivot's column, is never written after this read
            last[ik] = last[kj] = time
            time += 1
            if first[ij] < 0:
                first[ij] = time
                written.append(ij)
            steps.append((ij if first[ij] < time else slots + ij, ij, ik, kj))
            last[ij] = time
            time += 1
        named.append((slot[kk], divides, steps))
    last[slots - 4 :] = [time] * 4

    register = [None] * slots
    copied = [kk for kk in range(pivots) if first[kk] < 0]
    for r, kk in enumerate(copied + [kk for kk in range(pivots) if first[kk] >= 0]):
        register[kk] = r
    # scan the other written slots' intervals by start, each taking the
    # lowest register whose interval has ended
    until = []  # the end of the last interval in each register after the pivots'
    for s in written:
        if s < pivots:
            continue
        for free, end in enumerate(until):
            if end < first[s]:
                until[free] = last[s]
                break
        else:
            free = len(until)
            until.append(last[s])
        register[s] = pivots + free
    registers = pivots + len(until)

    # rename: a slot that is never written is read from its table row
    row = [registers + s if r is None else r for s, r in enumerate(register)]
    row += range(registers, registers + slots)
    code = []
    for kk, divides, steps in named:
        divides = tuple([(row[src], row[dst]) for src, dst in divides])
        steps = tuple([(row[src], row[dst], row[ik], row[kj]) for src, dst, ik, kj in steps])
        code.append((row[kk], divides, steps))
    return registers, tuple(code), copied, tuple(row[slots - 4 : slots])


def _refine(plan: _Plan, stamps: numpy.ndarray) -> tuple:
    """Store in the plan, and return, the common refinement of its grouping
    and the grouping of a network's stamps, G, C and Gamma of each slot in
    turn: slots stay together where both groupings put them together, and
    where their stamps have the same bits.

    Groups are numbered in the order of (resistive, old group, bits), so
    the groups with a nonzero C or Gamma come first. A slot is either
    stamped by a capacitor or an inductor in every network of the plan or
    in none, and such stamps, all of one sign and never zero, cannot sum to
    zero, so the split follows the topology.
    """
    import numpy as np

    slots = plan.slots
    g, c, gamma = stamps.view(np.int64).reshape(3, slots).tolist()
    old = [0] * slots if plan.grouping is None else plan.grouping[0].tolist()
    # in Python: a few hundred slots, refined a few times per topology, and
    # numpy's sorts would fault in about 0.5 MB of their code per process
    keys = [(not (cs or ys), o, gs, cs, ys) for o, gs, cs, ys in zip(old, g, c, gamma)]
    # filled from the last slot back, so each key keeps its first slot
    firsts = dict(zip(reversed(keys), range(slots - 1, -1, -1)))
    ranked = sorted(firsts)
    number = {key: index for index, key in enumerate(ranked)}
    group = np.array([number[key] for key in keys], dtype=np.intp)
    first = np.array([firsts[key] for key in ranked], dtype=np.intp)
    reactive = sum(not key[0] for key in ranked)
    leader = first[group]
    # the block row of each slot's table row: its group's, after the
    # registers
    registers = plan.registers
    reads = (group + registers).tolist()
    grouping = (
        group,
        np.concatenate((leader, leader + slots, leader + 2 * slots)),
        np.concatenate((first, first[:reactive] + slots, first[:reactive] + 2 * slots)),
        len(first),
        reactive,
        group.take(plan.copied),
        reads,
        np.array([r if r < registers else reads[r - registers] for r in plan.ports], np.intp),
    )
    plan.grouping = grouping
    return grouping


def _solve(net: Network, freqs: numpy.ndarray):
    """S-matrices at the float64 array of frequencies, as one read-only
    (frequencies, 2, 2) complex128 array."""
    import numpy as np

    # a zero pivot turns its frequency's entries into inf and nan, and so
    # does a frequency so low that Gamma/(jw) overflows, or so high that w
    # does; pivots are checked block by block, and S once it is formed
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # the blocks' buffers are freed on return, before S is formed
        yp = _port_admittance(net, freqs)
        # S = (I - y')(I + y')^-1 with y' = D Yp D, D = diag(sqrt(z1), sqrt(z2)),
        # written out for 2x2, once over the whole sweep, into the rows
        # S11, S12, S21 and S22 of a (4, frequencies) view of the result
        z1, z2 = net.port1.z0, net.port2.z0
        cross = math.sqrt(z1 * z2)
        a, b, c, d = yp[0] * z1, yp[1] * cross, yp[2] * cross, yp[3] * z2
        # 1 + a, 1 + d and bc appear twice each, and are formed once
        ap, dp, bc = 1.0 + a, 1.0 + d, b * c
        det = ap * dp - bc
        if not det.all():
            zero = np.flatnonzero(det == 0)
            raise SimulationError(f"singular port system at {freqs[zero[0]].item()} Hz")
        s = np.empty((len(freqs), 2, 2), dtype=complex)
        rows = s.reshape(-1, 4).T
        divide = np.divide
        divide((1.0 - a) * dp + bc, det, out=rows[0])
        divide(-2.0 * b, det, out=rows[1])
        divide(-2.0 * c, det, out=rows[2])
        divide(ap * (1.0 - d) + bc, det, out=rows[3])
        if not np.isfinite(s).all():
            bad = np.flatnonzero(~np.isfinite(rows).all(axis=0))[0]
            raise SimulationError(f"non-finite S-parameters at {freqs[bad].item()} Hz")
    s.flags.writeable = False
    return s


def _block_width(rows: int, points: int) -> int:
    """Width of the blocks that a sweep of points solves in: as few blocks
    of equal width, the last one no wider, as keep each block's
    (rows, width) complex128 buffer within _BUDGET bytes. A network too
    large for the budget solves one frequency at a time."""
    widest = max(1, _BUDGET // (16 * rows))
    blocks = -(-points // widest)
    return -(-points // blocks)


def _port_admittance(net: Network, freqs: numpy.ndarray):
    """Rows Y11, Y12, Y21 and Y22 of Yp, as a (4, frequencies) array.

    A block of _block_width frequencies holds a row of each of the plan's
    registers and, after them, of the network's group table. The block
    forms Y of each group in the table, copies the rows of the pivots that
    the program never writes into their registers with one take, runs the
    register program and checks the pivots, which are never written after
    their own elimination; then it copies out the four port rows with
    another take. It runs under _solve's errstate.
    """
    import numpy as np

    plan = net._plan
    registers, pivots = plan.registers, plan.pivots
    _, _, _, groups, reactive, copies, reads, ports = net._grouping
    c, gamma = net._c, net._gamma
    height = registers + groups
    points = len(freqs)
    width = _block_width(height, points)
    work = np.empty(height * width, dtype=complex)
    yp = np.empty((4, points), dtype=complex)
    w = 2.0 * math.pi * freqs
    g = net._g[:, None]
    divide, multiply, subtract = np.divide, np.multiply, np.subtract
    size = 0
    for start in range(0, points, width):
        block = w[start : start + width]
        if len(block) != size:
            # the first block, or a narrower last one
            size = len(block)
            # contiguous in a partial last block too, so no step copies it
            y = work[: height * size].reshape(height, size)
            copied, checked, table = y[: len(copies)], y[:pivots], y[registers:]
            views = list(y)
            rows = views[:registers] + [views[k] for k in reads]
            scratch = np.empty(size, dtype=complex)
            table_real, table_imag = table.real, table.imag
            real_reactive, imag_reactive = table_real[:reactive], table_imag[:reactive]
            imag_resistive = table_imag[reactive:]
        # Y = G + jwC + Gamma/(jw) of each group, the imaginary part only
        # where C or Gamma stamps, which keeps it 0 even where w overflows;
        # Gamma/w goes through the real part, which G then overwrites
        multiply.outer(c, block, out=imag_reactive)
        divide.outer(gamma, block, out=real_reactive)
        subtract(imag_reactive, real_reactive, out=imag_reactive)
        table_real[...] = g
        imag_resistive[...] = 0.0
        # "clip" writes straight into the out, where the default mode would
        # buffer; the rows taken are always in range
        table.take(copies, axis=0, out=copied, mode="clip")
        for kk, divides, updates in plan.code:
            pivot = rows[kk]
            for src, dst in divides:
                divide(rows[src], pivot, rows[dst])
            for src, dst, ik, kj in updates:
                multiply(rows[ik], rows[kj], scratch)
                subtract(rows[src], scratch, rows[dst])
        if not checked.all():
            zero = np.flatnonzero((checked == 0).any(axis=0))[0]
            raise SimulationError(f"singular nodal system at {freqs[start + zero].item()} Hz")
        y.take(ports, axis=0, out=yp[:, start : start + size], mode="clip")
    return yp


def _chain(elements: list, nodes: list[int], cells: tuple) -> None:
    """Series inductors down a line of cells: half cells at the ends,
    merged middles."""
    h = [cell.inductance for cell in cells]
    values = [h[0] / 2.0, *[(a + b) / 2.0 for a, b in zip(h, h[1:])], h[-1] / 2.0]
    for a, b, value in zip(nodes, nodes[1:], values):
        elements.append(Inductor(a, b, value))
