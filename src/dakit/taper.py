"""Impedance tapering of the amplifier lines by small-reflection analysis.

Stepping the section impedances (instead of keeping one uniform line)
absorbs each stage's current without a mid-line dummy load. The price is a
net input reflection: for small steps the overall coefficient is the
phased sum of the junction coefficients,

    Gamma(theta) = sum_k Gamma_k * exp(-2j*k*theta)

which at quarter-wave spacing (theta = pi/2) collapses to the alternating
sum. The line then behaves like a uniform line of the equivalent impedance
that produces the same reflection against the 50 ohm system, and the
cutoff must be re-evaluated at that impedance.

The declining-impedance profile z0/1, z0/2, ... (gate side: n+1 sections
ending at z0/(n+1); drain side: n*z0/1 ... n*z0/n, ending matched at z0)
makes each junction step small and is the profile used by the synthesizer.
"""

from __future__ import annotations

import cmath
import math

from ._record import Record, is_positive_number, set_field
from .errors import DesignError
from .ladder import cutoff_frequency

GATE = "gate"
DRAIN = "drain"


class TaperProfile(Record):
    """Ordered section impedances of one tapered line.

    Gate profiles run from the source end to the last stage; drain profiles
    from the first stage to the output end. terminal_impedance is the system
    impedance the line faces (source for gate, load for drain).
    """

    __slots__ = ("side", "sections", "terminal_impedance")

    def __init__(
        self, side: str, sections: tuple[float, ...], terminal_impedance: float = 50.0
    ) -> None:
        if side not in (GATE, DRAIN):
            raise DesignError(f"side must be {GATE!r} or {DRAIN!r}, got {side!r}")
        # a tuple, so that the profile hashes and junction_gammas can extend it
        if not isinstance(sections, tuple):
            raise DesignError(f"sections must be a tuple, got {type(sections).__name__}")
        if not sections:
            raise DesignError("profile needs at least one section")
        for z in sections:
            if not is_positive_number(z):
                raise DesignError(
                    f"section impedances must be positive and finite, got {sections}"
                )
        if not is_positive_number(terminal_impedance):
            raise DesignError(
                f"terminal impedance must be positive and finite, got {terminal_impedance!r}"
            )
        set_field(self, "side", side)
        set_field(self, "sections", sections)
        set_field(self, "terminal_impedance", terminal_impedance)


class TaperReport(Record):
    """Overall reflection, equivalent impedances and resulting cutoffs."""

    __slots__ = (
        "gamma_gate",
        "gamma_drain",
        "z_gate",
        "z_drain",
        "fc_gate",
        "fc_drain",
        "fc_total",
    )

    def __init__(
        self,
        gamma_gate: float,
        gamma_drain: float,
        z_gate: float,
        z_drain: float,
        fc_gate: float,
        fc_drain: float,
        fc_total: float,
    ) -> None:
        set_field(self, "gamma_gate", gamma_gate)
        set_field(self, "gamma_drain", gamma_drain)
        set_field(self, "z_gate", z_gate)
        set_field(self, "z_drain", z_drain)
        set_field(self, "fc_gate", fc_gate)
        set_field(self, "fc_drain", fc_drain)
        set_field(self, "fc_total", fc_total)


def junction_gammas(profile: TaperProfile) -> tuple[float, ...]:
    """Reflection coefficient of every junction along the line, in order.

    The terminal junction is included: first for a gate profile (source
    joins section 1), last for a drain profile (last section joins the
    load). Length always equals the section count.
    """
    if profile.side == GATE:
        zs = (profile.terminal_impedance,) + profile.sections
    else:
        zs = profile.sections + (profile.terminal_impedance,)
    return tuple(
        (zs[i + 1] - zs[i]) / (zs[i + 1] + zs[i]) for i in range(len(zs) - 1)
    )


def overall_gamma(gammas: tuple[float, ...], theta: float) -> complex:
    """Phased small-reflection sum at electrical section length theta."""
    if not (math.isfinite(theta) and all(math.isfinite(g) for g in gammas)):
        raise DesignError(f"theta and every gamma must be finite, got {theta} and {gammas}")
    return sum(g * cmath.exp(-2j * k * theta) for k, g in enumerate(gammas))


def overall_gamma_quarterwave(gammas: tuple[float, ...]) -> float:
    """Alternating sum: the phased sum at theta = pi/2, where it is real."""
    return math.fsum(g if k % 2 == 0 else -g for k, g in enumerate(gammas))


def ginzton_profiles(n: int, z0: float) -> tuple[TaperProfile, TaperProfile]:
    """Declining-impedance profiles for an n-stage amplifier at system z0.

    Gate: z0/1 ... z0/(n+1), one extra section carrying the line past the
    last stage. Drain: n*z0/1 ... n*z0/n, matched to z0 at the output.
    """
    # bool is an int, but True is no stage count
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise DesignError(f"stage count must be a positive integer, got {n!r}")
    if not 0 < z0 < math.inf:
        raise DesignError(f"system impedance must be positive and finite, got {z0}")
    gate = TaperProfile(GATE, tuple(z0 / k for k in range(1, n + 2)), z0)
    drain = TaperProfile(DRAIN, tuple(n * z0 / k for k in range(1, n + 1)), z0)
    return gate, drain


def equivalent_impedance(gamma: float, side: str, z_ref: float = 50.0) -> float:
    """Uniform impedance producing the same reflection against z_ref.

    A gate line reflecting gamma looks like z_ref*(1+gamma)/(1-gamma); the
    drain side is driven from the line, so the mapping inverts.
    """
    # written as "not below" so that NaN, which fails every comparison, is
    # rejected too
    if not abs(gamma) < 1:
        raise DesignError(f"|gamma| must be < 1, got {gamma}")
    if not 0 < z_ref < math.inf:
        raise DesignError(f"reference impedance must be positive and finite, got {z_ref}")
    if side == GATE:
        return z_ref * (1.0 + gamma) / (1.0 - gamma)
    if side == DRAIN:
        return z_ref * (1.0 - gamma) / (1.0 + gamma)
    raise DesignError(f"side must be {GATE!r} or {DRAIN!r}, got {side!r}")


def analyze_taper(
    gate: TaperProfile,
    drain: TaperProfile,
    cgs: float,
    cds: float,
) -> TaperReport:
    """Quarter-wave analysis of a tapered line pair loaded by cgs/cds.

    Cutoffs use the equivalent impedances: fc = 1/(pi*Z_equiv*C); the band
    of the whole amplifier is the smaller of the two.
    """
    if gate.side != GATE or drain.side != DRAIN:
        raise DesignError("profiles must be a (gate, drain) pair")
    if not (0 < cgs < math.inf and 0 < cds < math.inf):
        raise DesignError(f"cgs and cds must be positive and finite, got {cgs} and {cds}")
    gamma_g = overall_gamma_quarterwave(junction_gammas(gate))
    gamma_d = overall_gamma_quarterwave(junction_gammas(drain))
    z_g = equivalent_impedance(gamma_g, GATE, gate.terminal_impedance)
    z_d = equivalent_impedance(gamma_d, DRAIN, drain.terminal_impedance)
    fc_g = cutoff_frequency(z_g, cgs)
    fc_d = cutoff_frequency(z_d, cds)
    return TaperReport(
        gamma_gate=gamma_g,
        gamma_drain=gamma_d,
        z_gate=z_g,
        z_drain=z_d,
        fc_gate=fc_g,
        fc_drain=fc_d,
        fc_total=min(fc_g, fc_d),
    )
