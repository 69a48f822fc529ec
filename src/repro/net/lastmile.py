"""Last-mile access technologies and their latency behaviour.

The paper's §4.3 ("Nature of last-mile access") hinges on the last mile
being the latency bottleneck, with wireless probes ~2.5x slower than wired
ones.  This module models each access technology as an additive RTT
component with a floor (best case), a typical excess (queueing in the home
gateway / scheduler grants / DOCSIS request-grant cycles), and a
bufferbloat regime of occasional large spikes.

Parameter sources: the home-broadband and cellular measurement literature
the paper cites (Sundaresan et al., Jiang et al., Nguyen et al.) — e.g.
LTE adds tens of milliseconds at best and seconds under bufferbloat, DSL
interleaving adds ~10-20 ms, ethernet is sub-millisecond.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.errors import NetworkModelError


class AccessTechnology(enum.Enum):
    """How a probe reaches its first-hop ISP."""

    ETHERNET = "ethernet"
    FIBRE = "fibre"
    CABLE = "cable"
    DSL = "dsl"
    WIFI = "wifi"
    LTE = "lte"
    SATELLITE = "satellite"

    @property
    def is_wireless(self) -> bool:
        """Wireless in the sense of the paper's Figure 7 cohort split."""
        return self in _WIRELESS

    @property
    def atlas_tag(self) -> str:
        """The user tag a probe host would apply on RIPE Atlas."""
        return _ATLAS_TAGS[self]


_WIRELESS = frozenset(
    {AccessTechnology.WIFI, AccessTechnology.LTE, AccessTechnology.SATELLITE}
)

_ATLAS_TAGS: Dict[AccessTechnology, str] = {
    AccessTechnology.ETHERNET: "ethernet",
    AccessTechnology.FIBRE: "fibre",
    AccessTechnology.CABLE: "cable",
    AccessTechnology.DSL: "dsl",
    AccessTechnology.WIFI: "wifi",
    AccessTechnology.LTE: "lte",
    AccessTechnology.SATELLITE: "satellite",
}


@dataclass(frozen=True)
class AccessProfile:
    """Latency behaviour of one access technology.

    ``floor_ms``
        Added RTT in the best observed case (the nine-month minimum
        converges to this).
    ``typical_excess_ms``
        Mean additional RTT above the floor in normal operation.
    ``spread``
        Gamma shape inverse — larger means heavier day-to-day variation.
    ``bloat_probability``
        Per-sample probability of a bufferbloat episode.
    ``bloat_scale_ms``
        Mean magnitude of a bufferbloat spike (exponentially distributed).
    """

    floor_ms: float
    typical_excess_ms: float
    spread: float
    bloat_probability: float
    bloat_scale_ms: float


PROFILES: Dict[AccessTechnology, AccessProfile] = {
    AccessTechnology.ETHERNET: AccessProfile(0.3, 0.5, 0.6, 0.004, 40.0),
    AccessTechnology.FIBRE: AccessProfile(0.8, 0.9, 0.6, 0.004, 30.0),
    AccessTechnology.CABLE: AccessProfile(4.0, 5.0, 0.8, 0.010, 60.0),
    AccessTechnology.DSL: AccessProfile(9.0, 8.0, 0.8, 0.015, 80.0),
    AccessTechnology.WIFI: AccessProfile(2.5, 9.0, 1.3, 0.030, 100.0),
    AccessTechnology.LTE: AccessProfile(18.0, 22.0, 1.1, 0.050, 150.0),
    AccessTechnology.SATELLITE: AccessProfile(480.0, 60.0, 0.5, 0.020, 120.0),
}

#: Access-technology mix of Atlas probes by country infrastructure tier.
#: Probes skew wired everywhere (they are hosted by network enthusiasts
#: and operators), but poorer infrastructure shifts mass to DSL and LTE.
TECH_MIX: Dict[int, Tuple[Tuple[AccessTechnology, float], ...]] = {
    1: (
        (AccessTechnology.ETHERNET, 0.56),
        (AccessTechnology.FIBRE, 0.14),
        (AccessTechnology.CABLE, 0.09),
        (AccessTechnology.DSL, 0.08),
        (AccessTechnology.WIFI, 0.07),
        (AccessTechnology.LTE, 0.05),
        (AccessTechnology.SATELLITE, 0.01),
    ),
    2: (
        (AccessTechnology.ETHERNET, 0.48),
        (AccessTechnology.FIBRE, 0.10),
        (AccessTechnology.CABLE, 0.10),
        (AccessTechnology.DSL, 0.14),
        (AccessTechnology.WIFI, 0.08),
        (AccessTechnology.LTE, 0.09),
        (AccessTechnology.SATELLITE, 0.01),
    ),
    3: (
        (AccessTechnology.ETHERNET, 0.40),
        (AccessTechnology.FIBRE, 0.06),
        (AccessTechnology.CABLE, 0.08),
        (AccessTechnology.DSL, 0.20),
        (AccessTechnology.WIFI, 0.10),
        (AccessTechnology.LTE, 0.14),
        (AccessTechnology.SATELLITE, 0.02),
    ),
    4: (
        (AccessTechnology.ETHERNET, 0.30),
        (AccessTechnology.FIBRE, 0.03),
        (AccessTechnology.CABLE, 0.05),
        (AccessTechnology.DSL, 0.22),
        (AccessTechnology.WIFI, 0.14),
        (AccessTechnology.LTE, 0.22),
        (AccessTechnology.SATELLITE, 0.04),
    ),
}

#: Multiplier applied to last-mile latencies per infrastructure tier —
#: the same DSLAM is slower and more congested on a tier-4 network.
TIER_SCALE: Dict[int, float] = {1: 1.0, 2: 1.15, 3: 1.35, 4: 1.6}


def profile_for(tech: AccessTechnology) -> AccessProfile:
    return PROFILES[tech]


def floor_ms(tech: AccessTechnology, tier: int) -> float:
    """Best-case added RTT of this access technology on a given tier."""
    return PROFILES[tech].floor_ms * _tier_scale(tier)


def sample_ms(
    tech: AccessTechnology, tier: int, rng: np.random.Generator, utilization: float = 0.0
) -> float:
    """One sampled last-mile RTT contribution.

    ``utilization`` in [0, 1) scales queueing: a busy evening adds more
    excess delay and makes bufferbloat more likely.
    """
    if not 0.0 <= utilization < 1.0:
        raise NetworkModelError(f"utilization must be in [0, 1): {utilization}")
    profile = PROFILES[tech]
    scale = _tier_scale(tier)
    busy = 1.0 + 1.8 * utilization
    shape = 1.0 / profile.spread
    excess = rng.gamma(shape, profile.typical_excess_ms * profile.spread) * busy
    value = (profile.floor_ms + excess) * scale
    bloat_p = profile.bloat_probability * (1.0 + 2.5 * utilization)
    if rng.random() < bloat_p:
        value += rng.exponential(profile.bloat_scale_ms)
    return value


def gamma_shape(tech: AccessTechnology) -> float:
    """Gamma shape parameter of the excess-delay draw for a technology."""
    return 1.0 / PROFILES[tech].spread


def access_constants(tech: AccessTechnology, tier: int) -> Tuple[float, ...]:
    """The per-flow constants :func:`access_ms_from_draws` reads.

    ``(floor_ms, excess_ms, tier_scale, bloat_probability,
    bloat_scale_ms)``, each computed exactly as :func:`sample_ms`
    computes it (``excess_ms`` is the gamma scale
    ``typical_excess_ms * spread``).
    """
    profile = PROFILES[tech]
    return (
        profile.floor_ms,
        profile.typical_excess_ms * profile.spread,
        _tier_scale(tier),
        profile.bloat_probability,
        profile.bloat_scale_ms,
    )


def access_ms_from_draws(
    floor_ms: np.ndarray,
    excess_ms: np.ndarray,
    tier_scale: np.ndarray,
    bloat_probability: np.ndarray,
    bloat_scale_ms: np.ndarray,
    gamma_draws: np.ndarray,
    bloat_uniforms: np.ndarray,
    bloat_exponentials: np.ndarray,
    utilization: np.ndarray,
) -> np.ndarray:
    """Last-mile RTT contributions composed from pre-drawn randomness.

    The vectorizable core of :func:`sample_ms`.  The first five arguments
    are each row's :func:`access_constants`, ``(ticks,)`` columns like
    ``utilization``, so one call serves flows of any technology and tier.
    ``gamma_draws`` are standard-gamma draws of shape :func:`gamma_shape`,
    ``bloat_uniforms`` decide bufferbloat episodes, ``bloat_exponentials``
    are standard exponentials sized to the bloat scale; all three are
    ``(ticks, packets)``.  Operation order mirrors :func:`sample_ms`
    exactly, so one row equals a scalar sample built from the same draws
    bit for bit.
    """
    utilization = np.asarray(utilization, dtype=np.float64)[:, None]
    busy = 1.0 + 1.8 * utilization
    excess = gamma_draws * excess_ms[:, None] * busy
    value = (floor_ms[:, None] + excess) * tier_scale[:, None]
    bloat_p = bloat_probability[:, None] * (1.0 + 2.5 * utilization)
    bloat = np.where(
        bloat_uniforms < bloat_p, bloat_exponentials * bloat_scale_ms[:, None], 0.0
    )
    return value + bloat


def choose_technology(tier: int, rng: np.random.Generator) -> AccessTechnology:
    """Draw an access technology from the tier's probe mix."""
    mix = _tier_mix(tier)
    probabilities = np.asarray([weight for _, weight in mix])
    probabilities = probabilities / probabilities.sum()
    index = rng.choice(len(mix), p=probabilities)
    return mix[index][0]


def _tier_scale(tier: int) -> float:
    try:
        return TIER_SCALE[tier]
    except KeyError:
        raise NetworkModelError(f"unknown infrastructure tier: {tier}") from None


def _tier_mix(tier: int) -> Tuple[Tuple[AccessTechnology, float], ...]:
    try:
        return TECH_MIX[tier]
    except KeyError:
        raise NetworkModelError(f"unknown infrastructure tier: {tier}") from None
