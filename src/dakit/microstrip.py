"""Microstrip synthesis for the series inductors of an artificial line.

Closed forms for narrow strips (w/h between 0.1 and 3):

    z0 = 87/sqrt(er + 1.41) * ln(5.98*h / (0.8*w + t))        [ohm]
    l' = 2*z0*sqrt(er + 1.41)/87                               [nH/cm]
    c' = 1000*l'/z0^2                                          [pF/cm]

Geometry is in mm (w, h, t) and cm (lengths); these are the units the
formulas were fitted in, so they are kept at this boundary while the rest
of the package stays SI.
"""

from __future__ import annotations

import math

from ._record import Record, in_range, instance_of, positive
from .device import Substrate
from .errors import GeometryError

_WH_MIN = 0.1
_WH_MAX = 3.0


class ImpedanceResult(Record):
    """A strip's impedance, and whether its w/h is in the fit window."""

    __slots__ = ("z0", "valid")


class MicrostripLine(Record):
    """Synthesized strip: width/length plus its distributed constants."""

    __slots__ = ("width_mm", "length_cm", "substrate", "z0", "l_nh_per_cm", "c_pf_per_cm")

    def __post_init__(self) -> None:
        z0, l_nh_per_cm, c_pf_per_cm = self.z0, self.l_nh_per_cm, self.c_pf_per_cm
        positive(self.width_mm, "strip width", GeometryError)
        positive(self.length_cm, "strip length", GeometryError)
        instance_of(self.substrate, Substrate, "substrate", GeometryError)
        positive(z0, "strip impedance", GeometryError)
        positive(l_nh_per_cm, "l'", GeometryError)
        positive(c_pf_per_cm, "c'", GeometryError)
        expected_c = 1000.0 * l_nh_per_cm / (z0 * z0)
        if abs(expected_c - c_pf_per_cm) > 1e-9 * abs(expected_c):
            raise GeometryError(
                f"inconsistent distributed constants: c' != 1000*l'/z0^2, got {c_pf_per_cm!r}"
            )


def z0_of(width_mm: float, substrate: Substrate) -> ImpedanceResult:
    """Characteristic impedance of a strip; valid flags the w/h fit window."""
    positive(width_mm, "width", GeometryError)
    instance_of(substrate, Substrate, "substrate", GeometryError)
    arg = 5.98 * substrate.h_mm / (0.8 * width_mm + substrate.t_mm)
    if arg <= 0:
        raise GeometryError("non-positive log argument; check h, w, t")
    z0 = 87.0 / math.sqrt(substrate.er + 1.41) * math.log(arg)
    ratio = width_mm / substrate.h_mm
    return ImpedanceResult(z0=z0, valid=_WH_MIN <= ratio <= _WH_MAX)


def width_for(z0: float, substrate: Substrate) -> float:
    """Strip width in mm that realizes z0; exact inverse of z0_of.

    w = 7.475*h*exp(-z0*sqrt(er+1.41)/87) - 1.25*t, where 7.475 = 5.98/0.8
    and 1.25 = 1/0.8.
    """
    positive(z0, "impedance", GeometryError)
    instance_of(substrate, Substrate, "substrate", GeometryError)
    w = 7.475 * substrate.h_mm * math.exp(-z0 * math.sqrt(substrate.er + 1.41) / 87.0)
    w -= 1.25 * substrate.t_mm
    if w <= 0:
        raise GeometryError(
            f"no realizable width for z0={z0} ohm on this substrate "
            f"(er={substrate.er}, h={substrate.h_mm} mm, t={substrate.t_mm} mm)"
        )
    return w


def line_constants(z0: float, er: float) -> tuple[float, float]:
    """Distributed inductance (nH/cm) and capacitance (pF/cm) of the strip."""
    positive(z0, "impedance", GeometryError)
    in_range(er, "relative permittivity", GeometryError, ">= 1 and finite")
    l_nh = 2.0 * z0 * math.sqrt(er + 1.41) / 87.0
    c_pf = 1000.0 * l_nh / (z0 * z0)
    return l_nh, c_pf


def segment_length(inductance: float, l_nh_per_cm: float) -> float:
    """Length in cm of strip needed to realize a cell inductance in henries."""
    positive(inductance, "inductance", GeometryError)
    positive(l_nh_per_cm, "l'", GeometryError)
    return inductance * 1e9 / l_nh_per_cm


def phase_shift(length_cm: float, f: float, l_nh_per_cm: float, c_pf_per_cm: float) -> float:
    """Electrical length in radians of a strip segment at frequency f.

    Uses the strip's own phase velocity 1/sqrt(l'*c'), so the result is
    2*pi*f*length*sqrt(l'*c') with the distributed constants in SI per cm.
    """
    positive(length_cm, "length", GeometryError)
    positive(f, "frequency", GeometryError)
    positive(l_nh_per_cm, "l'", GeometryError)
    positive(c_pf_per_cm, "c'", GeometryError)
    delay_per_cm = math.sqrt(l_nh_per_cm * 1e-9 * c_pf_per_cm * 1e-12)
    return 2.0 * math.pi * f * length_cm * delay_per_cm


def synthesize_strip(z0: float, substrate: Substrate, inductance: float) -> MicrostripLine:
    """Build the full strip record realizing one cell inductance at z0."""
    w = width_for(z0, substrate)
    l_nh, c_pf = line_constants(z0, substrate.er)
    length = segment_length(inductance, l_nh)
    return MicrostripLine(
        width_mm=w,
        length_cm=length,
        substrate=substrate,
        z0=z0,
        l_nh_per_cm=l_nh,
        c_pf_per_cm=c_pf,
    )
