"""The benchmark's own plain dense nodal solve, used to check simulated S.

It shares no code with dakit.mna beyond the element types. It terminates
both ports in their reference impedances, drives port k with the Norton
equivalent of an incident wave a_k = 1, solves the whole nodal system at
once and reads S_jk = V_j / sqrt(z0_j) - delta_jk. dakit.mna instead
eliminates the internal nodes and converts a 2x2 port admittance, so the
two agree only if both are right.
"""

from __future__ import annotations

import math

import numpy as np

from dakit.mna import Capacitor, Inductor, Resistor, Vccs

from common import OpFailed

# Captured at import, before a tracer can patch numpy.linalg, so that
# checks never appear in a trace.
_solve = np.linalg.solve

# absolute below |S| = 1, relative to the largest |S| entry above it: a
# 30 dB gain stage with a condition number near 3e5 leaves both solves
# about 1e-10 from the exact S in absolute terms, but 3e-12 in relative
S_TOLERANCE = 1e-10


def reference_s(net, f: float) -> np.ndarray:
    """2x2 S-matrix of `net` at `f` by a full dense nodal solve."""
    w = 2.0 * math.pi * f
    size = net.node_count - 1
    y = np.zeros((size, size), dtype=complex)

    def stamp(a: int, b: int, adm: complex) -> None:
        for i, j, sign in ((a, a, 1), (b, b, 1), (a, b, -1), (b, a, -1)):
            if i and j:
                y[i - 1, j - 1] += sign * adm

    for e in net.elements:
        if isinstance(e, Resistor):
            stamp(e.a, e.b, 1.0 / e.ohms)
        elif isinstance(e, Capacitor):
            stamp(e.a, e.b, 1j * w * e.farads)
        elif isinstance(e, Inductor):
            stamp(e.a, e.b, -1j / (w * e.henries))
        elif isinstance(e, Vccs):
            for out, so in ((e.out_p, 1), (e.out_m, -1)):
                for ctrl, sc in ((e.ctrl_p, 1), (e.ctrl_m, -1)):
                    if out and ctrl:
                        y[out - 1, ctrl - 1] += so * sc * e.gm
        else:
            raise TypeError(f"unknown element {e!r}")
    ports = (net.port1, net.port2)
    rhs = np.zeros((size, 2), dtype=complex)
    for k, port in enumerate(ports):
        y[port.node - 1, port.node - 1] += 1.0 / port.z0
        rhs[port.node - 1, k] = 2.0 / math.sqrt(port.z0)
    v = _solve(y, rhs)
    s = np.empty((2, 2), dtype=complex)
    for j, port in enumerate(ports):
        s[j, :] = v[port.node - 1, :] / math.sqrt(port.z0)
    return s - np.eye(2)


def check_s(net, swp, indices) -> None:
    """Raise OpFailed unless S at the given grid indices matches the reference."""
    for i in indices:
        want = reference_s(net, swp.frequencies[i])
        got = np.array(swp.s_matrices[i], dtype=complex)
        err = float(np.max(np.abs(got - want)))
        if not err <= S_TOLERANCE * max(1.0, float(np.max(np.abs(want)))):
            raise OpFailed(
                f"S at {swp.frequencies[i]:.6g} Hz is off the dense reference by {err:.3g}"
            )
