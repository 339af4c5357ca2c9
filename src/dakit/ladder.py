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
from dataclasses import dataclass

from .errors import DesignError


@dataclass(frozen=True)
class LineCell:
    """One section of an artificial line: series inductance, shunt capacitance."""

    inductance: float
    capacitance: float

    def __post_init__(self) -> None:
        # written as "not in range" so that NaN, which fails every
        # comparison, is rejected too
        if not 0 < self.inductance < math.inf:
            raise DesignError(
                f"cell inductance must be positive and finite, got {self.inductance}"
            )
        if not 0 < self.capacitance < math.inf:
            raise DesignError(
                f"cell capacitance must be positive and finite, got {self.capacitance}"
            )

    @property
    def z0(self) -> float:
        return math.sqrt(self.inductance / self.capacitance)

    @property
    def fc(self) -> float:
        return 1.0 / (math.pi * math.sqrt(self.inductance * self.capacitance))


@dataclass(frozen=True)
class LineSection:
    """Per-unit-length immittances of a (possibly lossy) line segment."""

    z_series: complex
    y_shunt: complex


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
    if f <= 0:
        raise DesignError(f"frequency must be positive, got {f}")
    if ri < 0 or cgs <= 0 or z0 <= 0:
        raise DesignError("ri must be >= 0; cgs and z0 must be positive")
    w = 2.0 * math.pi * f
    return w * w * ri * cgs * cgs * z0 / 2.0


def drain_loss_per_cell(z0: float, rds: float) -> float:
    """Per-cell drain attenuation z0/(2*rds) in nepers; 0 for rds = inf."""
    if z0 <= 0 or rds <= 0:
        raise DesignError("z0 and rds must be positive")
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
    if f <= 0:
        raise DesignError(f"frequency must be positive, got {f}")
    if length <= 0:
        raise DesignError(f"length must be positive, got {length}")
    if ri < 0 or cgs <= 0:
        raise DesignError("ri must be >= 0 and cgs positive")
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
    if f <= 0:
        raise DesignError(f"frequency must be positive, got {f}")
    if length <= 0:
        raise DesignError(f"length must be positive, got {length}")
    if rds <= 0 or cds <= 0:
        raise DesignError("rds and cds must be positive")
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
