"""Lumped artificial transmission lines built from series L / shunt C cells.

A ladder of identical T-sections behaves as a low-pass line with

    Z0 = sqrt(L/C)          fc = 1/(pi*sqrt(L*C)) = 1/(pi*Z0*C)

where L and C are the per-cell values. Per-cell attenuation of the loaded
lines (series input resistance on one side, finite output resistance on the
other) follows from the real part of the propagation constant; the small-loss
closed forms used for quick sizing are gate_loss_per_cell and
drain_loss_per_cell. A capacitor in series with each gate lightens the gate
line's loading to effective_gate_capacitance.
"""

from __future__ import annotations

import cmath
import math

from ._record import Record, finite_complex, in_range, instance_of, positive
from .errors import CatalogError, DesignError


class LineCell(Record):
    """One section of an artificial line: series inductance, shunt capacitance."""

    __slots__ = ("inductance", "capacitance")

    def __post_init__(self) -> None:
        inductance, capacitance = self.inductance, self.capacitance
        positive(inductance, "cell inductance", DesignError)
        positive(capacitance, "cell capacitance", DesignError)
        # z0 and fc need L/C and L*C as positive finite floats, which
        # extreme values underflow or overflow
        ratio, product = inductance / capacitance, inductance * capacitance
        if not (0 < ratio < math.inf and 0 < product < math.inf):
            raise DesignError(
                f"cell L (H) and C (F) are out of range, got {(inductance, capacitance)!r}"
            )

    @property
    def z0(self) -> float:
        return math.sqrt(self.inductance / self.capacitance)

    @property
    def fc(self) -> float:
        return 1.0 / (math.pi * math.sqrt(self.inductance * self.capacitance))


class LineSection(Record):
    """Per-unit-length immittances of a (possibly lossy) line segment."""

    __slots__ = ("z_series", "y_shunt")

    def __post_init__(self) -> None:
        finite_complex(self.z_series, "immittances", DesignError)
        finite_complex(self.y_shunt, "immittances", DesignError)


def cell_for_impedance(z0: float, capacitance: float) -> LineCell:
    """Size the cell inductance L = Z0^2*C that pairs with a given shunt C."""
    positive(z0, "characteristic impedance", DesignError)
    positive(capacitance, "capacitance", DesignError)
    return LineCell(inductance=z0 * z0 * capacitance, capacitance=capacitance)


def effective_gate_capacitance(cgs: float, cseries: float | None = None) -> float:
    """Input capacitance seen by the gate line.

    A capacitor placed in series with the gate reduces the loading to the
    series combination cseries*cgs/(cseries+cgs); with no series element
    the line sees cgs itself.
    """
    positive(cgs, "cgs", CatalogError)
    if cseries is None:
        return cgs
    positive(cseries, "series capacitance", CatalogError)
    return cseries * cgs / (cseries + cgs)


def cutoff_frequency(z0: float, capacitance: float) -> float:
    """Bragg cutoff 1/(pi*Z0*C) of a constant-k line."""
    positive(z0, "impedance", DesignError)
    positive(capacitance, "capacitance", DesignError)
    return _inverse_pi_product(z0, capacitance, "cutoff of {0} ohm and {1} F")


def _inverse_pi_product(z0: float, x: float, what: str) -> float:
    """1/(pi*z0*x), for checked z0 and x: the cutoff of a line of impedance
    z0 and cell capacitance x, or the cell capacitance that puts the cutoff
    of a z0 line at x. what.format(z0, x) names the result in an error."""
    product = math.pi * z0 * x
    # extreme values underflow the product to 0 or overflow it to inf, and
    # a subnormal product has a reciprocal that overflows to inf
    if not (0 < product < math.inf and 1.0 / product < math.inf):
        raise DesignError(f"{what.format(z0, x)} is out of range")
    return 1.0 / product


def gate_loss_per_cell(f: float, ri: float, cgs: float, z0: float) -> float:
    """Small-loss gate attenuation per cell in nepers.

    For a series-RC input branch with omega*ri*cgs << 1 the per-cell
    attenuation reduces to (2*pi*f)^2 * ri * cgs^2 * z0 / 2: 0 for a lossless
    gate (ri = 0) at any frequency, and refused, naming f, where the
    product overflows.
    """
    positive(f, "frequency", DesignError)
    in_range(ri, "ri", DesignError, ">= 0 and finite")
    positive(cgs, "cgs", DesignError)
    positive(z0, "z0", DesignError)
    if ri == 0:
        # the lossless gate; the product below would be inf * 0 = nan
        # where omega^2 overflows
        return 0.0
    w = 2.0 * math.pi * f
    a = w * w * ri * cgs * cgs * z0 / 2.0
    if not a < math.inf:
        raise DesignError(f"gate attenuation per cell overflows at frequency (Hz), got {f!r}")
    return a


def drain_loss_per_cell(z0: float, rds: float) -> float:
    """Per-cell drain attenuation z0/(2*rds) in nepers; 0 for rds = inf."""
    positive(z0, "z0", DesignError)
    # rds = inf is the lossless limit
    in_range(rds, "rds", DesignError, "positive")
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
    positive(f, "frequency", DesignError)
    instance_of(cell, LineCell, "cell", DesignError)
    positive(length, "length", DesignError)
    in_range(ri, "ri", DesignError, ">= 0 and finite")
    positive(cgs, "cgs", DesignError)
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
    positive(f, "frequency", DesignError)
    instance_of(cell, LineCell, "cell", DesignError)
    positive(length, "length", DesignError)
    in_range(rds, "rds", DesignError, "positive")
    positive(cds, "cds", DesignError)
    w = 2.0 * math.pi * f
    g = 0.0 if math.isinf(rds) else 1.0 / (rds * length)
    y = g + 1j * w * cds / length
    if include_line_capacitance:
        y += 1j * w * cell.capacitance / length
    return LineSection(z_series=1j * w * cell.inductance / length, y_shunt=y)


def propagation_constant(section: LineSection) -> complex:
    """Principal sqrt(z*y) per unit length, real part >= 0."""
    instance_of(section, LineSection, "section", DesignError)
    g = cmath.sqrt(section.z_series * section.y_shunt)
    if g.real < 0:
        g = -g
    return g
