"""Diurnal congestion model.

Wide-area and access-network queueing follows the day/night rhythm of the
population behind the link: utilization rises through the local day, peaks
in the evening (the "Netflix hour"), and collapses at night.  The paper's
nine-month ping series inherit this pattern, which is why figures built on
*all* samples (Figure 6) have heavier tails than the minima (Figures 4/5).

Utilization maps to queueing delay with the standard M/M/1-style blow-up
``rho / (1 - rho)``, bounded to keep tail samples finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.errors import NetworkModelError

#: Seconds per day / hour.
DAY_S = 86_400
HOUR_S = 3_600

#: Peak local hour for residential traffic.
_PEAK_HOUR = 20.5

#: Weekday/weekend modulation: weekends shift load up slightly all day.
_WEEKEND_BOOST = 0.05


@dataclass(frozen=True)
class CongestionParams:
    """Tier-dependent congestion behaviour."""

    base_utilization: float
    diurnal_amplitude: float
    queue_scale_ms: float


#: Parameters per infrastructure tier: poorer networks run hotter and
#: queue longer.
TIER_PARAMS: Dict[int, CongestionParams] = {
    1: CongestionParams(0.22, 0.18, 1.2),
    2: CongestionParams(0.30, 0.22, 2.2),
    3: CongestionParams(0.55, 0.26, 16.0),
    4: CongestionParams(0.62, 0.28, 24.0),
}

#: Utilization ceiling: keeps the M/M/1 term finite.
_MAX_UTILIZATION = 0.93


def local_hour(timestamp: int, longitude_deg: float) -> float:
    """Approximate local time-of-day (hours) from UTC time and longitude."""
    utc_hours = (timestamp % DAY_S) / HOUR_S
    hour = (utc_hours + longitude_deg / 15.0) % 24.0
    # Floating-point modulo can land exactly on 24.0 for inputs a hair
    # below a day boundary; normalize back into [0, 24).
    return hour if hour < 24.0 else 0.0


def is_weekend(timestamp: int) -> bool:
    """True on Saturday/Sunday (Unix epoch began on a Thursday)."""
    day_index = (timestamp // DAY_S + 4) % 7  # 0 = Sunday
    return day_index in (0, 6)


def utilization(timestamp: int, longitude_deg: float, tier: int) -> float:
    """Deterministic utilization of the local network at this instant."""
    params = _params(tier)
    hour = local_hour(timestamp, longitude_deg)
    # Cosine bump centred on the evening peak.
    phase = math.cos((hour - _PEAK_HOUR) / 24.0 * 2.0 * math.pi)
    value = params.base_utilization + params.diurnal_amplitude * (phase + 1.0) / 2.0
    if is_weekend(timestamp):
        value += _WEEKEND_BOOST
    return min(value, _MAX_UTILIZATION)


#: Ends a :class:`UtilizationMemo` key table; above every real key.
_NO_KEY = np.iinfo(np.int64).max


class UtilizationMemo:
    """Vectorized :func:`utilization` over rows of many flows, memoized.

    Utilization depends on a timestamp only through its position in the
    day and its weekend flag, so the rows of a whole campaign map onto
    few distinct ``(day position, weekend, longitude, tier)`` keys.  Each
    key is evaluated once through the *scalar* function — ``math.cos``
    and ``np.cos`` are not guaranteed to round identically — which makes
    every element bit-identical to the scalar call by construction.  The
    values live in one sorted key table, so a window's rows are looked up
    with a single ``searchsorted``.
    """

    def __init__(self):
        self._places: Dict[Tuple[float, int], int] = {}
        # (sorted keys, values), replaced whole so a reader never sees a
        # half-merged table.  A sentinel above every key ends it, so every
        # lookup lands on a slot.
        self._table = (np.asarray([_NO_KEY]), np.asarray([np.nan]))

    def place(self, longitude_deg: float, tier: int) -> int:
        """The stable id of a ``(longitude, tier)`` place."""
        return self._places.setdefault((longitude_deg, tier), len(self._places))

    def rows(self, timestamps: np.ndarray, place_rows: np.ndarray) -> np.ndarray:
        """Utilization of row ``i`` at ``timestamps[i]`` and place
        ``place_rows[i]`` (an id from :meth:`place`)."""
        timestamps = np.asarray(timestamps, dtype=np.int64)
        day_index = (timestamps // DAY_S + 4) % 7
        weekend = (day_index == 0) | (day_index == 6)
        keys = (
            np.asarray(place_rows, dtype=np.int64) * (2 * DAY_S)
            + (timestamps % DAY_S) * 2
            + weekend
        )
        table_keys, values = self._table
        slots = np.searchsorted(table_keys, keys)
        missing = np.flatnonzero(table_keys[slots] != keys)
        if len(missing):
            new_keys, first = np.unique(keys[missing], return_index=True)
            places = list(self._places)
            new_values = [
                utilization(int(timestamps[row]), *places[key // (2 * DAY_S)])
                for key, row in zip(new_keys.tolist(), missing[first].tolist())
            ]
            merged = np.concatenate([table_keys, new_keys])
            order = np.argsort(merged, kind="stable")
            table_keys = merged[order]
            values = np.concatenate([values, new_values])[order]
            self._table = (table_keys, values)
            slots = np.searchsorted(table_keys, keys)
        return values[slots]


def queue_scale_ms(tier: int) -> float:
    """Scale of a tier's M/M/1 queueing term."""
    return _params(tier).queue_scale_ms


def queue_mean_ms(rho, scale_ms):
    """M/M/1 mean queueing delay at utilization ``rho`` for a queue of
    scale ``scale_ms`` (scalars or arrays)."""
    return scale_ms * rho / (1.0 - rho)


def queue_delay_ms(
    timestamp: int,
    longitude_deg: float,
    tier: int,
    rng: np.random.Generator,
) -> float:
    """Sampled queueing delay for one packet at this time and place."""
    rho = utilization(timestamp, longitude_deg, tier)
    mean_ms = queue_mean_ms(rho, queue_scale_ms(tier))
    # Exponential service-time variation around the M/M/1 mean.
    return float(rng.exponential(mean_ms))


def path_noise_scale_ms(path_km: float) -> float:
    """Exponential scale of core-network jitter for a path length."""
    if path_km < 0:
        raise NetworkModelError(f"path length must be non-negative: {path_km}")
    return 0.08 * math.sqrt(1.0 + path_km / 100.0)


def path_noise_ms(path_km: float, rng: np.random.Generator) -> float:
    """Small core-network jitter, growing slowly with path length."""
    return float(rng.exponential(path_noise_scale_ms(path_km)))


def _params(tier: int) -> CongestionParams:
    try:
        return TIER_PARAMS[tier]
    except KeyError:
        raise NetworkModelError(f"unknown infrastructure tier: {tier}") from None
