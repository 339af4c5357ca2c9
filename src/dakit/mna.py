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
plan. A solve then only assembles Y for a block of _BLOCK frequencies as
a (slots, frequencies) array from those arrays and runs the program on
its rows. Internal nodes are eliminated and the ports are left, which
gives the 2x2 port admittance Yp. With real reference impedances and
y' = D Yp D, D = diag(sqrt(z1), sqrt(z2)),

    S = (I - y') (I + y')^-1,

written out in closed form for the 2x2 case.

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
overflows, raises "non-finite S-parameters at f Hz".

Determinism: same inputs give the same bytes; a sweep entry equals
s_parameters_at at that frequency bit for bit, because every operation
acts on each frequency alone. Results are not bit-identical to the dense
LU solver that came before; they agree within 1e-10 relative to
max(1, max|S|).

numpy is imported inside the functions that use it, not when this module
loads: the first Network construction loads it. This module is loaded
only on use too: the package re-exports its names through a module
__getattr__, and of the CLI subcommands only simulate imports it. So the
other five subcommands pay for neither numpy nor this module and its
dataclasses.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

from .design import DesignReport
from .errors import DesignError, SimulationError

if TYPE_CHECKING:
    import numpy as np

LINEAR = "linear"
LOG = "log"

# frequencies per elimination pass: each step of the program is one numpy
# call per row, so longer blocks spread the call overhead. On the 1001-point
# benchmark sweeps, 128 ran 10% faster than 64 at no more peak RSS; 256 ran
# 7% faster again for 0.8 MB.
_BLOCK = 128

# stamp kinds: which of G, C and Gamma an element's value goes to
_G, _C, _GAMMA = 0, 1, 2


@dataclass(frozen=True)
class Resistor:
    a: int
    b: int
    ohms: float


@dataclass(frozen=True)
class Capacitor:
    a: int
    b: int
    farads: float


@dataclass(frozen=True)
class Inductor:
    a: int
    b: int
    henries: float


@dataclass(frozen=True)
class Vccs:
    """Current gm*(V(ctrl_p) - V(ctrl_m)) flowing from out_p to out_m."""

    out_p: int
    out_m: int
    ctrl_p: int
    ctrl_m: int
    gm: float


@dataclass(frozen=True)
class Port:
    node: int
    z0: float = 50.0


@dataclass(frozen=True)
class Network:
    """Two-port element network with ground at node 0."""

    node_count: int
    elements: tuple
    port1: Port
    port2: Port

    def __post_init__(self) -> None:
        for port in (self.port1, self.port2):
            # "not in range" rejects NaN too
            if not 0 < port.z0 < math.inf:
                raise DesignError(
                    f"port reference impedance must be positive and finite, got {port.z0}"
                )
        # one pass over the elements checks each value and collects the
        # topology entry and stamp value of each
        topology = []
        values = []
        for e in self.elements:
            if isinstance(e, Vccs):
                if not math.isfinite(e.gm):
                    raise DesignError(f"transconductance must be finite: {e}")
                topology.append((_G, e.out_p, e.out_m, e.ctrl_p, e.ctrl_m))
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
            if not 0 < value < math.inf:
                raise DesignError(f"element value must be positive and finite: {e}")
            topology.append((kind, e.a, e.b))
            values.append(value if kind == _C else 1.0 / value)
        import numpy as np

        # refuses a bad topology here; a cached topology was checked before
        plan = _analyse(self.node_count, self.port1.node, self.port2.node, tuple(topology))
        weights = np.array(values)[plan.stamp_element] * plan.stamp_sign
        g, c, gamma = np.bincount(plan.stamp_slot, weights, 3 * plan.slots).reshape(3, -1)
        object.__setattr__(self, "_plan", plan)
        object.__setattr__(self, "_g", g)
        object.__setattr__(self, "_c", c[: plan.reactive])
        object.__setattr__(self, "_gamma", gamma[: plan.reactive])


@dataclass(frozen=True)
class TwoPortSweep:
    """Frequencies with the S-matrix ((s11, s12), (s21, s22)) at each."""

    frequencies: tuple[float, ...]
    s_matrices: tuple[tuple[tuple[complex, complex], tuple[complex, complex]], ...]
    reference_impedance: float


@dataclass(frozen=True)
class SweepMetrics:
    low_freq_gain_db: float
    cutoff_hz: float | None
    worst_s11_db: float


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
    s21_db = [_db(abs(m[1][0])) for m in swp.s_matrices]
    s11_db = [_db(abs(m[0][0])) for m in swp.s_matrices]
    ref = s21_db[0]
    threshold = ref - 3.0
    cutoff = None
    for i in range(1, len(s21_db)):
        if s21_db[i] <= threshold:
            if s21_db[i] == threshold:
                cutoff = swp.frequencies[i]
            else:
                f_lo, f_hi = swp.frequencies[i - 1], swp.frequencies[i]
                db_lo, db_hi = s21_db[i - 1], s21_db[i]
                cutoff = f_lo + (db_lo - threshold) * (f_hi - f_lo) / (db_lo - db_hi)
            break
    if cutoff is None:
        worst = max(s11_db)
    else:
        worst = max(
            db for f, db in zip(swp.frequencies, s11_db) if f <= cutoff
        )
    return SweepMetrics(low_freq_gain_db=ref, cutoff_hz=cutoff, worst_s11_db=worst)


class _Plan(NamedTuple):
    """What a topology fixes about its solve: slots, stamps and the program.

    Every entry of Y that is ever nonzero, stamped or filled in, has a slot:
    a row of the (slots, frequencies) array the solve works on. The first
    `reactive` slots are those a capacitor or an inductor stamps.
    """

    slots: int
    reactive: int
    stamp_slot: np.ndarray  # kind * slots + slot, for each stamp
    stamp_element: np.ndarray  # the element each stamp takes its value from
    stamp_sign: np.ndarray
    program: tuple  # (kk, (kj, ...), ((ij, ik, kj), ...)) per pivot, in order
    pivots: np.ndarray
    ports: tuple[int, int, int, int]  # slots of Y11, Y12, Y21, Y22


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
        ports=(slot[port1, port1], slot[port1, port2], slot[port2, port1], slot[port2, port2]),
    )


def _solve(net: Network, freqs: list[float]) -> list:
    """S-matrices at the frequencies, as nested tuples, _BLOCK at a time."""
    import numpy as np

    plan = net._plan
    reactive = plan.reactive
    width = min(len(freqs), _BLOCK)
    work = np.empty((plan.slots, width), dtype=complex)
    inductive = np.empty((reactive, width))
    s = np.empty((len(freqs), 2, 2), dtype=complex)
    divide, multiply, subtract = np.divide, np.multiply, np.subtract
    z1, z2 = net.port1.z0, net.port2.z0
    cross = math.sqrt(z1 * z2)
    i11, i12, i21, i22 = plan.ports
    # a zero pivot turns its frequency's entries into inf and nan, and so
    # does a frequency so low that Gamma/(jw) overflows, or so high that w
    # does; pivot slots are never written after their elimination, so they
    # are checked once the program has run, and S is checked last
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        w_all = 2.0 * math.pi * np.array(freqs)
        for start in range(0, len(freqs), width):
            w = w_all[start : start + width]
            count = len(w)
            y = work[:, :count]
            # Y = G + jwC + Gamma/(jw), the imaginary part only where C or
            # Gamma stamps
            y.real = net._g[:, None]
            y_reactive = y.imag[:reactive]
            multiply.outer(net._c, w, out=y_reactive)
            divide.outer(net._gamma, w, out=inductive[:, :count])
            subtract(y_reactive, inductive[:, :count], out=y_reactive)
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
            # S = (I - y')(I + y')^-1 with y' = D Yp D, D = diag(sqrt(z1), sqrt(z2)),
            # written out for 2x2
            a, b, c, d = y[i11] * z1, y[i12] * cross, y[i21] * cross, y[i22] * z2
            det = (1.0 + a) * (1.0 + d) - b * c
            zero = np.flatnonzero(det == 0)
            if zero.size:
                raise SimulationError(f"singular port system at {freqs[start + zero[0]]} Hz")
            block = s[start : start + count]
            block[:, 0, 0] = ((1.0 - a) * (1.0 + d) + b * c) / det
            block[:, 0, 1] = -2.0 * b / det
            block[:, 1, 0] = -2.0 * c / det
            block[:, 1, 1] = ((1.0 + a) * (1.0 - d) + b * c) / det
            if not np.isfinite(block).all():
                bad = np.flatnonzero(~np.isfinite(block).all(axis=(1, 2)))[0]
                raise SimulationError(f"non-finite S-parameters at {freqs[start + bad]} Hz")
    return [(tuple(row1), tuple(row2)) for row1, row2 in s.tolist()]


def _db(magnitude: float) -> float:
    if magnitude == 0.0:
        return -math.inf
    return 20.0 * math.log10(magnitude)


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
