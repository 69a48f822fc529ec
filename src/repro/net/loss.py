"""Packet-loss model.

Ping measurements occasionally lose packets — more often on wireless and
on poorly provisioned networks — and sometimes entire measurements fail.
The Atlas result format reports ``sent`` and ``rcvd`` per ping, and the
sagan-style parsers in :mod:`repro.atlas.results` surface them, so the
analysis pipeline must cope with partial and empty results exactly as the
authors' tooling did.

Losses within a ping burst are **bursty**, not independent: a fade or a
queue overflow eats consecutive packets.  The burst structure follows the
classic Gilbert-Elliott two-state channel, parameterized so its
stationary loss rate equals the per-probe target probability — the
averages the calibration depends on stay put, while all-packets-lost
measurements become realistically common.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.errors import NetworkModelError
from repro.net.lastmile import AccessTechnology

#: Baseline per-packet loss probability of the wide-area path, by the
#: probe country's infrastructure tier.
TIER_LOSS: Dict[int, float] = {1: 0.002, 2: 0.004, 3: 0.008, 4: 0.015}

#: Additional per-packet loss contributed by the access technology.
ACCESS_LOSS: Dict[AccessTechnology, float] = {
    AccessTechnology.ETHERNET: 0.000,
    AccessTechnology.FIBRE: 0.000,
    AccessTechnology.CABLE: 0.002,
    AccessTechnology.DSL: 0.003,
    AccessTechnology.WIFI: 0.010,
    AccessTechnology.LTE: 0.012,
    AccessTechnology.SATELLITE: 0.025,
}

#: Loss grows under congestion (droptail queues fill up).
_UTILIZATION_FACTOR = 2.0


def packet_loss_probability(
    tech: AccessTechnology, tier: int, utilization: float = 0.0
) -> float:
    """Per-packet loss probability for a probe of this tech and tier."""
    if not 0.0 <= utilization < 1.0:
        raise NetworkModelError(f"utilization must be in [0, 1): {utilization}")
    probability = base_loss_probability(tech, tier) * (
        1.0 + _UTILIZATION_FACTOR * utilization
    )
    return min(probability, 0.5)


def base_loss_probability(tech: AccessTechnology, tier: int) -> float:
    """Per-packet loss probability of an idle path (tier + access)."""
    try:
        base = TIER_LOSS[tier]
    except KeyError:
        raise NetworkModelError(f"unknown infrastructure tier: {tier}") from None
    return base + ACCESS_LOSS[tech]


#: Gilbert-Elliott parameters: recovery probability out of the bad state
#: and the loss probability while in it.
_GE_RECOVERY = 0.5
_GE_BAD_LOSS = 0.75


def gilbert_elliott_losses(
    sent: int, target_loss: float, rng: np.random.Generator
) -> int:
    """Packets lost out of ``sent`` under a two-state bursty channel.

    The good->bad transition probability is solved so the chain's
    stationary loss rate equals ``target_loss``; the chain starts in its
    stationary distribution.
    """
    if sent <= 0:
        raise NetworkModelError(f"sent must be positive: {sent}")
    if not 0.0 <= target_loss < _GE_BAD_LOSS:
        target_loss = min(max(target_loss, 0.0), _GE_BAD_LOSS * 0.99)
    if target_loss == 0.0:
        return 0
    # stationary bad-state share pi = p_gb / (p_gb + p_bg);
    # loss = pi * BAD_LOSS  =>  p_gb = loss * p_bg / (BAD_LOSS - loss)
    pi_bad = target_loss / _GE_BAD_LOSS
    p_gb = pi_bad * _GE_RECOVERY / (1.0 - pi_bad)
    bad = bool(rng.random() < pi_bad)
    lost = 0
    for _ in range(sent):
        if bad and rng.random() < _GE_BAD_LOSS:
            lost += 1
        if bad:
            bad = not (rng.random() < _GE_RECOVERY)
        else:
            bad = rng.random() < p_gb
    return lost


def packets_received(
    sent: int,
    tech: AccessTechnology,
    tier: int,
    utilization: float,
    rng: np.random.Generator,
) -> int:
    """Number of echo replies received out of ``sent`` requests."""
    if sent <= 0:
        raise NetworkModelError(f"sent must be positive: {sent}")
    p_loss = packet_loss_probability(tech, tier, utilization)
    return sent - gilbert_elliott_losses(sent, p_loss, rng)


# -- fixed-layout (vectorizable) channel -----------------------------------
#
# The draw-as-you-go chain above consumes a data-dependent number of
# uniforms per burst, which pins every ping to a Python loop.  The batch
# synthesis fast path instead runs the same Gilbert-Elliott chain on a
# *fixed* block of ``2*sent + 1`` pre-drawn uniforms per burst (initial
# state, then a loss draw and a transition draw per packet, consumed
# whether or not the state needs them).  The chain's transition structure
# and stationary loss rate are untouched, and because the layout is fixed
# the uniforms for any number of bursts pool into one Generator call.


def fixed_uniforms_per_burst(sent: int) -> int:
    """Uniform draws one burst consumes under the fixed layout."""
    return 2 * sent + 1


def packet_loss_probability_batch(
    base: np.ndarray, utilization: np.ndarray
) -> np.ndarray:
    """Vectorized :func:`packet_loss_probability` over per-row columns.

    ``base`` is each row's :func:`base_loss_probability`.  Mirrors the
    scalar formula operation for operation, so each element is
    bit-identical to the scalar call on the same utilization value.
    """
    probability = base * (
        1.0 + _UTILIZATION_FACTOR * np.asarray(utilization, dtype=np.float64)
    )
    return np.minimum(probability, 0.5)


def gilbert_elliott_losses_fixed(
    uniforms: np.ndarray, target_loss: np.ndarray
) -> np.ndarray:
    """Packets lost per burst, from pre-drawn fixed-layout uniforms.

    ``uniforms`` has shape ``(bursts, 2*sent + 1)`` and ``target_loss``
    shape ``(bursts,)``; returns the lost count per burst.  Row ``i``
    consumes its uniforms exactly as a scalar fixed-layout chain would,
    so scalar (one-row) and batch calls agree bitwise.
    """
    uniforms = np.atleast_2d(np.asarray(uniforms, dtype=np.float64))
    bursts, width = uniforms.shape
    if width < 3 or width % 2 == 0:
        raise NetworkModelError(
            f"fixed-layout uniforms must have 2*sent+1 columns, got {width}"
        )
    sent = (width - 1) // 2
    target_loss = np.minimum(
        np.maximum(np.asarray(target_loss, dtype=np.float64), 0.0),
        _GE_BAD_LOSS * 0.99,
    )
    pi_bad = target_loss / _GE_BAD_LOSS
    p_gb = pi_bad * _GE_RECOVERY / (1.0 - pi_bad)
    bad = uniforms[:, 0] < pi_bad
    lost = np.zeros(bursts, dtype=np.int64)
    for packet in range(sent):
        lost += bad & (uniforms[:, 1 + 2 * packet] < _GE_BAD_LOSS)
        transition = uniforms[:, 2 + 2 * packet]
        bad = np.where(bad, ~(transition < _GE_RECOVERY), transition < p_gb)
    # A zero-loss channel loses nothing; its draws are still consumed so
    # the fixed layout stays fixed.
    return np.where(target_loss == 0.0, 0, lost)
