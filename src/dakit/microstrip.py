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

from ._record import Record, is_positive_number, set_field
from .device import Substrate
from .errors import GeometryError

_WH_MIN = 0.1
_WH_MAX = 3.0


class ImpedanceResult(Record):
    """A strip's impedance, and whether its w/h is in the fit window."""

    __slots__ = ("z0", "valid")

    def __init__(self, z0: float, valid: bool) -> None:
        set_field(self, "z0", z0)
        set_field(self, "valid", valid)


class MicrostripLine(Record):
    """Synthesized strip: width/length plus its distributed constants."""

    __slots__ = ("width_mm", "length_cm", "substrate", "z0", "l_nh_per_cm", "c_pf_per_cm")

    def __init__(
        self,
        width_mm: float,
        length_cm: float,
        substrate: Substrate,
        z0: float,
        l_nh_per_cm: float,
        c_pf_per_cm: float,
    ) -> None:
        # written as "not in range" so that NaN, which fails every
        # comparison, is rejected too
        inf = math.inf
        if not (
            0 < width_mm < inf
            and 0 < length_cm < inf
            and 0 < z0 < inf
            and 0 < l_nh_per_cm < inf
            and 0 < c_pf_per_cm < inf
        ):
            figures = (width_mm, length_cm, z0, l_nh_per_cm, c_pf_per_cm)
            raise GeometryError(f"strip figures must be positive and finite, got {figures}")
        expected_c = 1000.0 * l_nh_per_cm / (z0 * z0)
        if abs(expected_c - c_pf_per_cm) > 1e-9 * abs(expected_c):
            raise GeometryError("inconsistent distributed constants: c' != 1000*l'/z0^2")
        set_field(self, "width_mm", width_mm)
        set_field(self, "length_cm", length_cm)
        set_field(self, "substrate", substrate)
        set_field(self, "z0", z0)
        set_field(self, "l_nh_per_cm", l_nh_per_cm)
        set_field(self, "c_pf_per_cm", c_pf_per_cm)


def z0_of(width_mm: float, substrate: Substrate) -> ImpedanceResult:
    """Characteristic impedance of a strip; valid flags the w/h fit window."""
    if not (type(width_mm) is float and 0.0 < width_mm < math.inf or is_positive_number(width_mm)):
        raise GeometryError(f"width must be positive and finite, got {width_mm!r}")
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
    _check_impedance(z0)
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
    _check_impedance(z0)
    if not 1 <= er < math.inf:
        raise GeometryError(f"relative permittivity must be >= 1 and finite, got {er}")
    l_nh = 2.0 * z0 * math.sqrt(er + 1.41) / 87.0
    c_pf = 1000.0 * l_nh / (z0 * z0)
    return l_nh, c_pf


def segment_length(inductance: float, l_nh_per_cm: float) -> float:
    """Length in cm of strip needed to realize a cell inductance in henries."""
    if not 0 < inductance < math.inf:
        raise GeometryError(f"inductance must be positive and finite, got {inductance}")
    if not 0 < l_nh_per_cm < math.inf:
        raise GeometryError(f"l' must be positive and finite, got {l_nh_per_cm}")
    return inductance * 1e9 / l_nh_per_cm


def phase_shift(length_cm: float, f: float, l_nh_per_cm: float, c_pf_per_cm: float) -> float:
    """Electrical length in radians of a strip segment at frequency f.

    Uses the strip's own phase velocity 1/sqrt(l'*c'), so the result is
    2*pi*f*length*sqrt(l'*c') with the distributed constants in SI per cm.
    """
    if not (0 < length_cm < math.inf and 0 < f < math.inf):
        raise GeometryError("length and frequency must be positive and finite")
    if not (0 < l_nh_per_cm < math.inf and 0 < c_pf_per_cm < math.inf):
        raise GeometryError("distributed constants must be positive and finite")
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


def _check_impedance(z0: float) -> None:
    if not 0 < z0 < math.inf:
        raise GeometryError(f"impedance must be positive and finite, got {z0}")
