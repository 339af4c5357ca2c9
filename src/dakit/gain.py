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
from dataclasses import dataclass

from .errors import DesignError

_STAGE_MIN = 3
_STAGE_MAX = 6


@dataclass(frozen=True)
class GainFigures:
    """Gain summary attached to a synthesized design."""

    av: float
    gp_lossless: float
    gp_lossy: float
    n_opt_continuous: float
    n_recommended: int


def voltage_gain(gm: float, z0d: float, n: int) -> float:
    """Low-frequency voltage gain n*gm*z0d/2."""
    _check_common(gm, z0d, z0d, n)
    return gm * z0d * n / 2.0


def power_gain_lossless(gm: float, z0g: float, z0d: float, n: int) -> float:
    """Power gain n^2*gm^2*z0g*z0d/4 with lossless lines."""
    _check_common(gm, z0g, z0d, n)
    return gm * gm * z0g * z0d * n * n / 4.0


def power_gain_lossy(gm: float, z0g: float, z0d: float, ag: float, ad: float, n: int) -> float:
    """Power gain with per-cell gate/drain attenuations ag, ad in nepers.

    When ag == ad the exponential-difference quotient degenerates; its limit
    n*exp(-(n-1)*ag) is used instead, which also reproduces the lossless
    figure at ag = ad = 0.
    """
    _check_common(gm, z0g, z0d, n)
    _check_losses(ag, ad)
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
    _check_losses(ag, ad)
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
    # written as "not in range" so that NaN, which fails every comparison,
    # is rejected too
    if not all(0 < x < math.inf for x in (f, ri, cgs, z0)):
        raise DesignError("f, ri, cgs and z0 must be positive and finite")
    if not 0 < rds < math.inf:
        raise DesignError("rds must be positive and finite")
    w = 2.0 * math.pi * f
    x = w * w * ri * cgs * cgs * rds
    if abs(x - 1.0) < 1e-9:
        return 2.0 * rds / z0
    return 2.0 * rds * math.log(x) / (z0 * (x - 1.0))


def recommended_n(n_opt: float) -> int:
    """Round the continuous optimum half-up and clamp to the practical 3..6."""
    if not n_opt > 0:
        raise DesignError(f"n_opt must be positive, got {n_opt}")
    if math.isinf(n_opt):
        return _STAGE_MAX
    rounded = math.floor(n_opt + 0.5)
    return min(_STAGE_MAX, max(_STAGE_MIN, rounded))


def _check_common(gm: float, z0g: float, z0d: float, n: int) -> None:
    if not 0 < gm < math.inf:
        raise DesignError(f"gm must be positive and finite, got {gm}")
    if not (0 < z0g < math.inf and 0 < z0d < math.inf):
        raise DesignError("line impedances must be positive and finite")
    if not isinstance(n, int) or n < 1:
        raise DesignError(f"stage count must be a positive integer, got {n!r}")


def _check_losses(ag: float, ad: float) -> None:
    if not (0 <= ag < math.inf and 0 <= ad < math.inf):
        raise DesignError("per-cell attenuations must be >= 0 and finite")
