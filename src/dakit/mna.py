"""Small-signal two-port simulation by nodal analysis.

Networks are R/L/C elements plus voltage-controlled current sources on an
integer node set with ground fixed at node 0. Line terminations are
ordinary resistors inside the network; only the two port nodes are
excited.

Each network is compiled once into three real matrices, after Ho, Ruehli
and Brennan's modified nodal approach: G (conductances and VCCS
transconductances), C (capacitances) and Gamma (inverse inductances), so
that the nodal admittance at angular frequency w is

    Y(w) = G + jwC + Gamma/(jw).

Rows and columns are ordered port 1, port 2, then the internal nodes.
A sweep assembles Y for a fixed-length block of frequencies at once and
eliminates the internal nodes with one stacked solve, giving the 2x2 port
admittance as the Schur complement Yp = Ypp - Ypi Yii^-1 Yip. With real
reference impedances and y' = D Yp D, D = diag(sqrt(z1), sqrt(z2)),

    S = (I - y') (I + y')^-1,

written out in closed form for the 2x2 case. s_parameters_at is the same
kernel on a block of one frequency.

Solves are dense complex LU with partial pivoting (LAPACK gesv through
numpy.linalg.solve), one factorization per frequency, so a frequency's
result does not depend on the block it was solved in: the same inputs
give the same bytes, and a sweep entry equals s_parameters_at at that
frequency bit for bit.

numpy is imported inside the three functions that use it, on the first
solve, not when this module loads. The package imports this module for
its public names, and only a sweep needs numpy, so the CLI subcommands
that never simulate do not pay numpy's import time (about half of their
start-up).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

from .design import DesignReport
from .device import TransistorModel
from .errors import DesignError, SimulationError

if TYPE_CHECKING:
    import numpy as np

LINEAR = "linear"
LOG = "log"

# frequencies per stacked solve: longer blocks spend less on numpy call
# overhead but hold more memory. On the 1001-point benchmark sweeps, 16 ran
# 15% faster than 8 at the same peak RSS; 32 gained 5% more for 0.8 MB.
_BLOCK = 16


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
        if self.node_count < 2:
            raise DesignError("network needs at least ground and one more node")
        for port in (self.port1, self.port2):
            if not 0 < port.node < self.node_count:
                raise DesignError(f"port node {port.node} out of range (and not ground)")
            # "not in range" rejects NaN too
            if not 0 < port.z0 < math.inf:
                raise DesignError(
                    f"port reference impedance must be positive and finite, got {port.z0}"
                )
        if self.port1.node == self.port2.node:
            raise DesignError("ports must sit on distinct nodes")
        for e in self.elements:
            self._check_element(e)
        self._check_port_grounding()

    def _check_element(self, e) -> None:
        if isinstance(e, (Resistor, Capacitor, Inductor)):
            nodes = (e.a, e.b)
            value = e.ohms if isinstance(e, Resistor) else (
                e.farads if isinstance(e, Capacitor) else e.henries
            )
            if not 0 < value < math.inf:
                raise DesignError(f"element value must be positive and finite: {e}")
            if e.a == e.b:
                raise DesignError(f"element shorts a node to itself: {e}")
        elif isinstance(e, Vccs):
            if not math.isfinite(e.gm):
                raise DesignError(f"transconductance must be finite: {e}")
            nodes = (e.out_p, e.out_m, e.ctrl_p, e.ctrl_m)
        else:
            raise DesignError(f"unknown element type: {e!r}")
        for n in nodes:
            if not 0 <= n < self.node_count:
                raise DesignError(f"node {n} out of range in {e}")

    def _check_port_grounding(self) -> None:
        # DC-wise floating ports make the port admittance meaningless, so
        # require a passive path to ground before any solve is attempted
        adj: dict[int, set[int]] = {}
        for e in self.elements:
            if isinstance(e, (Resistor, Capacitor, Inductor)):
                adj.setdefault(e.a, set()).add(e.b)
                adj.setdefault(e.b, set()).add(e.a)
        reached = {0}
        frontier = [0]
        while frontier:
            node = frontier.pop()
            for nxt in adj.get(node, ()):
                if nxt not in reached:
                    reached.add(nxt)
                    frontier.append(nxt)
        for port in (self.port1, self.port2):
            if port.node not in reached:
                raise DesignError(
                    f"port node {port.node} has no passive path to ground"
                )


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


def build_network(report: DesignReport, t: TransistorModel | None = None) -> Network:
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
    if t is None:
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
    return _solve_block(_compile(net), [f])[0]


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
    if points < 2:
        raise SimulationError(f"need at least 2 points, got {points}")
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
    compiled = _compile(net)
    matrices: list = []
    for k in range(0, points, _BLOCK):
        matrices += _solve_block(compiled, freqs[k : k + _BLOCK])
    return TwoPortSweep(
        frequencies=tuple(freqs),
        s_matrices=tuple(matrices),
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


class _Compiled(NamedTuple):
    """A network's frequency-independent nodal matrices, ports first.

    G, C and Gamma are kept at the flat indices where any of them is
    nonzero; every other entry of Y is zero at every frequency.
    """

    size: int
    nonzero: np.ndarray
    g: np.ndarray  # conductances and transconductances
    c: np.ndarray  # capacitances
    gamma: np.ndarray  # inverse inductances
    scale: np.ndarray  # sqrt(z_j * z_k): port admittance to normalised form


def _compile(net: Network) -> _Compiled:
    """Stamp every element once; Y(w) = G + jwC + Gamma/(jw)."""
    import numpy as np

    p1, p2 = net.port1.node, net.port2.node
    size = net.node_count - 1
    # each node's row in the ports-first order; ground has none (-1)
    index = [k + 1 - (p1 < k) - (p2 < k) for k in range(net.node_count)]
    index[0], index[p1], index[p2] = -1, 0, 1
    stamps = np.zeros((3, size, size))
    g, c, gamma = stamps
    for e in net.elements:
        if isinstance(e, Vccs):
            for out, sign_out in ((e.out_p, 1.0), (e.out_m, -1.0)):
                for ctrl, sign_ctrl in ((e.ctrl_p, 1.0), (e.ctrl_m, -1.0)):
                    if out and ctrl:
                        g[index[out], index[ctrl]] += sign_out * sign_ctrl * e.gm
            continue
        if isinstance(e, Resistor):
            target, value = g, 1.0 / e.ohms
        elif isinstance(e, Capacitor):
            target, value = c, e.farads
        else:
            target, value = gamma, 1.0 / e.henries
        a, b = index[e.a], index[e.b]
        if a >= 0:
            target[a, a] += value
        if b >= 0:
            target[b, b] += value
        if a >= 0 and b >= 0:
            target[a, b] -= value
            target[b, a] -= value
    nonzero = np.flatnonzero(stamps.any(axis=0))
    g, c, gamma = stamps.reshape(3, -1)[:, nonzero]
    z1, z2 = net.port1.z0, net.port2.z0
    cross = math.sqrt(z1 * z2)
    return _Compiled(size, nonzero, g, c, gamma, np.array([[z1, cross], [cross, z2]]))


def _solve_block(net: _Compiled, freqs: list[float]) -> list:
    """S-matrices at a block of frequencies, solved as one stack."""
    import numpy as np

    count = len(freqs)
    w = 2.0 * math.pi * np.array(freqs)[:, None]
    y = np.zeros((count, net.size * net.size), dtype=complex)
    y[:, net.nonzero] = net.g + 1j * (w * net.c - net.gamma / w)
    y = y.reshape(count, net.size, net.size)
    y_port = y[:, :2, :2]
    if net.size > 2:
        y_ii = y[:, 2:, 2:]
        try:
            v_int = np.linalg.solve(y_ii, y[:, 2:, :2])
        except np.linalg.LinAlgError as exc:
            f = _first_singular(freqs, y_ii)
            raise SimulationError(f"singular nodal system at {f} Hz: {exc}") from exc
        y_port = y_port - y[:, :2, 2:] @ v_int
    # S = (I - y')(I + y')^-1 with y' = D Yp D, D = diag(sqrt(z1), sqrt(z2)),
    # written out for 2x2
    yn = y_port * net.scale
    a, b, c, d = yn[:, 0, 0], yn[:, 0, 1], yn[:, 1, 0], yn[:, 1, 1]
    det = (1.0 + a) * (1.0 + d) - b * c
    zero = np.flatnonzero(det == 0)
    if zero.size:
        raise SimulationError(f"singular port system at {freqs[zero[0]]} Hz")
    s = np.empty((count, 2, 2), dtype=complex)
    s[:, 0, 0] = ((1.0 - a) * (1.0 + d) + b * c) / det
    s[:, 0, 1] = -2.0 * b / det
    s[:, 1, 0] = -2.0 * c / det
    s[:, 1, 1] = ((1.0 + a) * (1.0 - d) + b * c) / det
    return [(tuple(row1), tuple(row2)) for row1, row2 in s.tolist()]


def _first_singular(freqs: list[float], y_ii: np.ndarray) -> float:
    """First frequency whose internal block LU meets an exact zero pivot."""
    import numpy as np

    for f, m in zip(freqs, y_ii):
        try:
            np.linalg.solve(m, m[:, :1])
        except np.linalg.LinAlgError:
            return f
    return freqs[0]


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
