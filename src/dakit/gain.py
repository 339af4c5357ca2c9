"""Gain figures and optimum stage count for additive amplification.

With n identical stages feeding matched lines the low-frequency figures are

    Av = gm*z0d*n/2
    Gp = gm^2*z0g*z0d*n^2/4                      (lossless)
    Gp = gm^2*z0g*z0d/4 *
         ((exp(-n*ag) - exp(-n*ad)) / (exp(-ag) - exp(-ad)))^2   (lossy)

where ag and ad are per-cell attenuations in nepers. The lossy form has a
well-defined maximum in n; past it, added stages contribute less than the
extra line loss they bring.
"""

from __future__ import annotations

import math

from ._record import Record, count, in_range, positive
from .errors import DesignError

_STAGE_MIN = 3
_STAGE_MAX = 6


class GainFigures(Record):
    """Gain summary attached to a synthesized design."""

    __slots__ = ("av", "gp_lossless", "gp_lossy", "n_opt_continuous", "n_recommended")


def voltage_gain(gm: float, z0d: float, n: int) -> float:
    """Low-frequency voltage gain n*gm*z0d/2."""
    positive(gm, "gm", DesignError)
    positive(z0d, "drain line impedance", DesignError)
    count(n, "stage count", DesignError)
    return gm * z0d * n / 2.0


def power_gain_lossless(gm: float, z0g: float, z0d: float, n: int) -> float:
    """Power gain n^2*gm^2*z0g*z0d/4 with lossless lines: the lossy form
    with no attenuation."""
    return power_gain_lossy(gm, z0g, z0d, 0.0, 0.0, n)


def power_gain_lossy(gm: float, z0g: float, z0d: float, ag: float, ad: float, n: int) -> float:
    """Power gain with per-cell gate/drain attenuations ag, ad in nepers.

    When ag == ad the exponential-difference quotient degenerates; its limit
    n*exp(-(n-1)*ag) is used instead, which also reproduces the lossless
    figure at ag = ad = 0.
    """
    positive(gm, "gm", DesignError)
    positive(z0g, "gate line impedance", DesignError)
    positive(z0d, "drain line impedance", DesignError)
    count(n, "stage count", DesignError)
    in_range(ag, "gate attenuation", DesignError, ">= 0 and finite")
    in_range(ad, "drain attenuation", DesignError, ">= 0 and finite")
    base = gm * gm * z0g * z0d / 4.0
    if abs(ag - ad) < 1e-12:
        factor = n * math.exp(-(n - 1) * ag)
    else:
        factor = (math.exp(-n * ag) - math.exp(-n * ad)) / (math.exp(-ag) - math.exp(-ad))
    return base * factor * factor


def n_opt_from_losses(ag: float, ad: float) -> float:
    """Stage count maximizing the lossy power gain: ln(ag/ad)/(ag - ad).

    Returns inf when either attenuation is zero (gain then grows with n).
    """
    in_range(ag, "gate attenuation", DesignError, ">= 0 and finite")
    in_range(ad, "drain attenuation", DesignError, ">= 0 and finite")
    if ag == 0.0 or ad == 0.0:
        return math.inf
    if abs(ag - ad) < 1e-12:
        return 1.0 / ag
    return math.log(ag / ad) / (ag - ad)


def n_opt_from_params(f: float, ri: float, cgs: float, rds: float, z0: float) -> float:
    """Optimum stage count straight from device parameters.

    With x = (2*pi*f)^2*ri*cgs^2*rds this is 2*rds*ln(x)/(z0*(x - 1)),
    algebraically the same point as n_opt_from_losses applied to the
    small-loss per-cell attenuations. x -> 1 degenerates to 2*rds/z0.
    """
    positive(f, "f", DesignError)
    positive(ri, "ri", DesignError)
    positive(cgs, "cgs", DesignError)
    positive(rds, "rds", DesignError)
    positive(z0, "z0", DesignError)
    w = 2.0 * math.pi * f
    x = w * w * ri * cgs * cgs * rds
    if abs(x - 1.0) < 1e-9:
        return 2.0 * rds / z0
    return 2.0 * rds * math.log(x) / (z0 * (x - 1.0))


def recommended_n(n_opt: float) -> int:
    """Round the continuous optimum half-up and clamp to the practical 3..6."""
    in_range(n_opt, "n_opt", DesignError, "positive")
    if math.isinf(n_opt):
        return _STAGE_MAX
    rounded = math.floor(n_opt + 0.5)
    return min(_STAGE_MAX, max(_STAGE_MIN, rounded))

