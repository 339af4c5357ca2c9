"""Lumped artificial transmission lines built from series L / shunt C cells.

A ladder of identical T-sections behaves as a low-pass line with

    Z0 = sqrt(L/C)          fc = 1/(pi*sqrt(L*C)) = 1/(pi*Z0*C)

where L and C are the per-cell values. Per-cell attenuation of the loaded
lines (series input resistance on one side, finite output resistance on the
other) follows from the real part of the propagation constant; the small-loss
closed forms used for quick sizing are gate_loss_per_cell and
drain_loss_per_cell.
"""

from __future__ import annotations

import cmath
import math

from ._record import Record, set_field
from .errors import DesignError


class LineCell(Record):
    """One section of an artificial line: series inductance, shunt capacitance."""

    __slots__ = ("inductance", "capacitance")

    def __init__(self, inductance: float, capacitance: float) -> None:
        # written as "not in range" so that NaN, which fails every
        # comparison, is rejected too
        if not 0 < inductance < math.inf:
            raise DesignError(f"cell inductance must be positive and finite, got {inductance}")
        if not 0 < capacitance < math.inf:
            raise DesignError(f"cell capacitance must be positive and finite, got {capacitance}")
        set_field(self, "inductance", inductance)
        set_field(self, "capacitance", capacitance)

    @property
    def z0(self) -> float:
        return math.sqrt(self.inductance / self.capacitance)

    @property
    def fc(self) -> float:
        return 1.0 / (math.pi * math.sqrt(self.inductance * self.capacitance))


class LineSection(Record):
    """Per-unit-length immittances of a (possibly lossy) line segment."""

    __slots__ = ("z_series", "y_shunt")

    def __init__(self, z_series: complex, y_shunt: complex) -> None:
        if not (cmath.isfinite(z_series) and cmath.isfinite(y_shunt)):
            raise DesignError(f"immittances must be finite, got {z_series} and {y_shunt}")
        set_field(self, "z_series", z_series)
        set_field(self, "y_shunt", y_shunt)


def cell_for_impedance(z0: float, capacitance: float) -> LineCell:
    """Size the cell inductance L = Z0^2*C that pairs with a given shunt C."""
    if not 0 < z0 < math.inf:
        raise DesignError(f"characteristic impedance must be positive and finite, got {z0}")
    if not 0 < capacitance < math.inf:
        raise DesignError(f"capacitance must be positive and finite, got {capacitance}")
    return LineCell(inductance=z0 * z0 * capacitance, capacitance=capacitance)


def cutoff_frequency(z0: float, capacitance: float) -> float:
    """Bragg cutoff 1/(pi*Z0*C) of a constant-k line."""
    if not (0 < z0 < math.inf and 0 < capacitance < math.inf):
        raise DesignError(
            f"impedance and capacitance must be positive and finite, got {z0} and {capacitance}"
        )
    return 1.0 / (math.pi * z0 * capacitance)


def gate_loss_per_cell(f: float, ri: float, cgs: float, z0: float) -> float:
    """Small-loss gate attenuation per cell in nepers.

    For a series-RC input branch with omega*ri*cgs << 1 the per-cell
    attenuation reduces to (2*pi*f)^2 * ri * cgs^2 * z0 / 2.
    """
    _check_frequency(f)
    if not (0 <= ri < math.inf and 0 < cgs < math.inf and 0 < z0 < math.inf):
        raise DesignError("ri must be >= 0 and finite; cgs and z0 must be positive and finite")
    w = 2.0 * math.pi * f
    return w * w * ri * cgs * cgs * z0 / 2.0


def drain_loss_per_cell(z0: float, rds: float) -> float:
    """Per-cell drain attenuation z0/(2*rds) in nepers; 0 for rds = inf."""
    # rds = inf is the lossless limit, so only z0 must be finite
    if not (0 < z0 < math.inf and 0 < rds <= math.inf):
        raise DesignError("z0 and rds must be positive, and z0 finite")
    return z0 / (2.0 * rds)


def gate_section(
    f: float,
    cell: LineCell,
    length: float,
    ri: float,
    cgs: float,
    include_line_capacitance: bool = False,
) -> LineSection:
    """Per-unit-length immittances of a loaded gate-line segment.

    The device input branch (cgs behind ri) is spread over the cell's
    physical length. The segment's own distributed capacitance, taken as
    cell.capacitance/length, is normally neglected; the flag adds it back.
    """
    _check_frequency(f)
    _check_length(length)
    if not (0 <= ri < math.inf and 0 < cgs < math.inf):
        raise DesignError("ri must be >= 0 and finite; cgs must be positive and finite")
    w = 2.0 * math.pi * f
    z = 1j * w * cell.inductance / length
    y = 1j * w * cgs / (length * (1.0 + 1j * w * ri * cgs))
    if include_line_capacitance:
        y += 1j * w * cell.capacitance / length
    return LineSection(z_series=z, y_shunt=y)


def drain_section(
    f: float,
    cell: LineCell,
    length: float,
    rds: float,
    cds: float,
    include_line_capacitance: bool = False,
) -> LineSection:
    """Per-unit-length immittances of a loaded drain-line segment.

    The device output (cds shunted by rds) is spread over the cell's
    physical length; rds = inf drops the conductance term.
    """
    _check_frequency(f)
    _check_length(length)
    if not (0 < rds <= math.inf and 0 < cds < math.inf):
        raise DesignError("rds and cds must be positive, and cds finite")
    w = 2.0 * math.pi * f
    g = 0.0 if math.isinf(rds) else 1.0 / (rds * length)
    y = g + 1j * w * cds / length
    if include_line_capacitance:
        y += 1j * w * cell.capacitance / length
    return LineSection(z_series=1j * w * cell.inductance / length, y_shunt=y)


def propagation_constant(section: LineSection) -> complex:
    """Principal sqrt(z*y) per unit length, real part >= 0."""
    g = cmath.sqrt(section.z_series * section.y_shunt)
    if g.real < 0:
        g = -g
    return g


def _check_frequency(f: float) -> None:
    if not 0 < f < math.inf:
        raise DesignError(f"frequency must be positive and finite, got {f}")


def _check_length(length: float) -> None:
    if not 0 < length < math.inf:
        raise DesignError(f"length must be positive and finite, got {length}")
