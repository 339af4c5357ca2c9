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

from ._record import Record, count, in_range, instance_of, positive
from .errors import DesignError
from .ladder import cutoff_frequency

GATE = "gate"
DRAIN = "drain"

# the most stages that a design or a Ginzton taper may have: practical
# amplifiers have 2 to 12, and each stage costs sections, strips and nodes
MAX_STAGES = 1000


class TaperProfile(Record):
    """Ordered section impedances of one tapered line.

    Gate profiles run from the source end to the last stage; drain profiles
    from the first stage to the output end. terminal_impedance is the system
    impedance the line faces (source for gate, load for drain).
    """

    __slots__ = ("side", "sections", "terminal_impedance")
    _defaults = {"terminal_impedance": 50.0}

    def __post_init__(self) -> None:
        side, sections = self.side, self.sections
        if side not in (GATE, DRAIN):
            raise DesignError(f"side must be {GATE!r} or {DRAIN!r}, got {side!r}")
        # a tuple, so that the profile hashes and junction_gammas can extend it
        instance_of(sections, tuple, "sections", DesignError)
        if not sections:
            raise DesignError(f"profile needs at least one section, got {sections!r}")
        for z in sections:
            positive(z, "section impedances", DesignError)
        positive(self.terminal_impedance, "terminal impedance", DesignError)


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


def junction_gammas(profile: TaperProfile) -> tuple[float, ...]:
    """Reflection coefficient of every junction along the line, in order.

    The terminal junction is included: first for a gate profile (source
    joins section 1), last for a drain profile (last section joins the
    load). Length always equals the section count.
    """
    instance_of(profile, TaperProfile, "profile", DesignError)
    if profile.side == GATE:
        zs = (profile.terminal_impedance,) + profile.sections
    else:
        zs = profile.sections + (profile.terminal_impedance,)
    return tuple(
        (zs[i + 1] - zs[i]) / (zs[i + 1] + zs[i]) for i in range(len(zs) - 1)
    )


def overall_gamma(gammas: tuple[float, ...], theta: float) -> complex:
    """Phased small-reflection sum at electrical section length theta."""
    in_range(theta, "theta", DesignError, "finite")
    for g in gammas:
        in_range(g, "gamma", DesignError, "finite")
    return sum(g * cmath.exp(-2j * k * theta) for k, g in enumerate(gammas))


def overall_gamma_quarterwave(gammas: tuple[float, ...]) -> float:
    """Alternating sum: the phased sum at theta = pi/2, where it is real."""
    for g in gammas:
        in_range(g, "gamma", DesignError, "finite")
    return math.fsum(g if k % 2 == 0 else -g for k, g in enumerate(gammas))


def ginzton_profiles(n: int, z0: float) -> tuple[TaperProfile, TaperProfile]:
    """Declining-impedance profiles for an n-stage amplifier at system z0.

    Gate: z0/1 ... z0/(n+1), one extra section carrying the line past the
    last stage. Drain: n*z0/1 ... n*z0/n, matched to z0 at the output.
    n is at most MAX_STAGES.
    """
    count(n, "stage count", DesignError)
    if n > MAX_STAGES:
        raise DesignError(f"stage count must be at most {MAX_STAGES}, got {n!r}")
    positive(z0, "system impedance", DesignError)
    gate = TaperProfile(GATE, tuple(z0 / k for k in range(1, n + 2)), z0)
    drain = TaperProfile(DRAIN, tuple(n * z0 / k for k in range(1, n + 1)), z0)
    return gate, drain


def equivalent_impedance(gamma: float, side: str, z_ref: float = 50.0) -> float:
    """Uniform impedance producing the same reflection against z_ref.

    A gate line reflecting gamma looks like z_ref*(1+gamma)/(1-gamma); the
    drain side is driven from the line, so the mapping inverts.
    """
    in_range(gamma, "gamma", DesignError, "between -1 and 1")
    positive(z_ref, "reference impedance", DesignError)
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
    instance_of(gate, TaperProfile, "gate profile", DesignError)
    instance_of(drain, TaperProfile, "drain profile", DesignError)
    if gate.side != GATE or drain.side != DRAIN:
        raise DesignError("profiles must be a (gate, drain) pair")
    positive(cgs, "cgs", DesignError)
    positive(cds, "cds", DesignError)
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
