"""Country-level transit routing on the gateway graph.

Composes the gateway/cable map of :mod:`repro.net.cables` into end-to-end
probe-to-datacenter routes:

* **domestic** traffic takes a direct route, inflated by the country's
  infrastructure tier (national backbones are never straight lines);
* **international** traffic exits through one of the country's gateways,
  rides the cable graph (all-pairs shortest paths, precomputed), and enters
  through a gateway of the destination country;
* well-connected neighbouring countries (both tier <= 2, same continent,
  close by) additionally get a **direct cross-border** candidate, modelling
  the dense peering of regions like Western Europe and North America —
  without it, a Vancouver probe would trombone through Toronto to reach an
  Oregon datacenter;
* the cheapest candidate wins.

The output of :meth:`TransitModel.route` is a :class:`Route` carrying the
effective one-way path length and the resulting floor RTT.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Tuple

import networkx as nx

from repro.errors import NetworkModelError
from repro.geo.coordinates import LatLon
from repro.geo.countries import Country, all_countries
from repro.net import physics
from repro.net.cables import COUNTRY_GATEWAY_OVERRIDES, GATEWAYS, LINKS, link_length_km

#: Domestic path inflation over the great circle, by infrastructure tier.
DOMESTIC_INFLATION: Dict[int, float] = {1: 1.45, 2: 1.70, 3: 2.05, 4: 2.50}

#: Fixed RTT penalty (ms) for under-provisioned national/peering
#: infrastructure, charged on the probe side of every route.
TIER_PEERING_RTT_MS: Dict[int, float] = {1: 0.3, 2: 1.2, 3: 5.0, 4: 12.0}

#: Number of automatically assigned gateways for countries without a
#: curated override.
_AUTO_GATEWAYS = 2

#: Parameters of the direct cross-border candidate.
_DIRECT_MAX_KM = 2500.0
_DIRECT_MAX_TIER = 2
_DIRECT_BORDER_KM = 150.0


@dataclass(frozen=True)
class Route:
    """A resolved probe-to-target route."""

    path_km: float
    kind: str  # "domestic", "gateway" or "direct"
    via: Tuple[str, ...]
    peering_ms: float

    @property
    def floor_rtt_ms(self) -> float:
        """Minimum achievable RTT on this route (no queueing, no last mile)."""
        return physics.wire_rtt_ms(self.path_km) + self.peering_ms


class TransitModel:
    """Routing engine over the gateway graph.

    Build once, share everywhere: construction precomputes all-pairs
    shortest paths over the ~60-node gateway graph.
    """

    def __init__(self):
        self._graph = nx.Graph()
        for name in GATEWAYS:
            self._graph.add_node(name)
        for a, b, kind in LINKS:
            self._graph.add_edge(a, b, weight=link_length_km(a, b, kind))
        if not nx.is_connected(self._graph):
            components = list(nx.connected_components(self._graph))
            raise NetworkModelError(
                f"gateway graph is disconnected: {len(components)} components"
            )
        self._apsp: Dict[str, Dict[str, float]] = dict(
            nx.all_pairs_dijkstra_path_length(self._graph, weight="weight")
        )
        self._country_gateways: Dict[str, Tuple[str, ...]] = {}
        for country in all_countries():
            self._country_gateways[country.iso2] = self._assign_gateways(country)
        #: ``(gateway, inflated km)`` from a point to each gateway of its
        #: country, keyed by ``(point, iso2, tier)``: an endpoint meets
        #: many routes, so its tails are computed once.
        self._tails: Dict[Tuple[LatLon, str, int], Tuple[Tuple[str, float], ...]] = {}

    # -- gateway assignment -------------------------------------------------

    def _assign_gateways(self, country: Country) -> Tuple[str, ...]:
        override = COUNTRY_GATEWAY_OVERRIDES.get(country.iso2)
        if override:
            for name in override:
                if name not in GATEWAYS:
                    raise NetworkModelError(
                        f"override for {country.iso2} names unknown gateway {name!r}"
                    )
            return tuple(override)
        # A country with gateways on its own soil enters/exits through all
        # of them (a probe in Seattle peers at Seattle, not Chicago).
        domestic = tuple(
            name for name, gw in GATEWAYS.items() if gw.country == country.iso2
        )
        if domestic:
            return domestic
        candidates = [
            (country.centroid.distance_km(gw.location), name)
            for name, gw in GATEWAYS.items()
            if gw.continent == country.continent
        ]
        if not candidates:
            raise NetworkModelError(
                f"no gateway available for {country.iso2} in {country.continent}"
            )
        candidates.sort()
        return tuple(name for _, name in candidates[:_AUTO_GATEWAYS])

    def gateways_for(self, country: Country) -> Tuple[str, ...]:
        """Gateway names assigned to ``country``."""
        return self._country_gateways[country.iso2]

    def gateway_path_km(self, a: str, b: str) -> float:
        """Shortest cable path between two gateways, in kilometres."""
        try:
            return self._apsp[a][b]
        except KeyError as exc:
            raise NetworkModelError(f"unknown gateway pair ({a}, {b})") from exc

    # -- routing ------------------------------------------------------------

    def route(
        self,
        origin: LatLon,
        origin_country: Country,
        target: LatLon,
        target_country: Country,
    ) -> Route:
        """Cheapest route from ``origin`` to ``target``."""
        if origin_country.iso2 == target_country.iso2:
            return self._domestic_route(origin, origin_country, target)
        candidates = [
            self._gateway_route(origin, origin_country, target, target_country)
        ]
        direct = self._direct_route(origin, origin_country, target, target_country)
        if direct is not None:
            candidates.append(direct)
        return min(candidates, key=lambda route: route.floor_rtt_ms)

    def _domestic_route(
        self, origin: LatLon, country: Country, target: LatLon
    ) -> Route:
        inflation = DOMESTIC_INFLATION[country.infra_tier]
        path_km = origin.distance_km(target) * inflation
        # Domestic traffic still pays a fraction of the tier penalty: the
        # same under-provisioned networks serve in-country routes.
        peering = 0.4 * TIER_PEERING_RTT_MS[country.infra_tier]
        return Route(path_km=path_km, kind="domestic", via=(), peering_ms=peering)

    def _gateway_tails(
        self, point: LatLon, country: Country
    ) -> Tuple[Tuple[str, float], ...]:
        """``(gateway, km)`` per gateway of ``country``: the great circle
        from ``point`` inflated by the country's tier, memoized."""
        key = (point, country.iso2, country.infra_tier)
        tails = self._tails.get(key)
        if tails is None:
            inflation = DOMESTIC_INFLATION[country.infra_tier]
            tails = tuple(
                (name, point.distance_km(GATEWAYS[name].location) * inflation)
                for name in self._country_gateways[country.iso2]
            )
            self._tails[key] = tails
        return tails

    def _gateway_route(
        self,
        origin: LatLon,
        origin_country: Country,
        target: LatLon,
        target_country: Country,
    ) -> Route:
        best_km = None
        best_via: Tuple[str, ...] = ()
        tails_in = self._gateway_tails(target, target_country)
        for gw_out, tail_out in self._gateway_tails(origin, origin_country):
            for gw_in, tail_in in tails_in:
                total = tail_out + self._apsp[gw_out][gw_in] + tail_in
                if best_km is None or total < best_km:
                    best_km = total
                    best_via = (gw_out, gw_in) if gw_out != gw_in else (gw_out,)
        peering = (
            TIER_PEERING_RTT_MS[origin_country.infra_tier]
            + 0.5 * TIER_PEERING_RTT_MS[target_country.infra_tier]
        )
        return Route(path_km=best_km, kind="gateway", via=best_via, peering_ms=peering)

    def _direct_route(
        self,
        origin: LatLon,
        origin_country: Country,
        target: LatLon,
        target_country: Country,
    ) -> "Route | None":
        if origin_country.continent != target_country.continent:
            return None
        if max(origin_country.infra_tier, target_country.infra_tier) > _DIRECT_MAX_TIER:
            return None
        crow_km = origin.distance_km(target)
        if crow_km > _DIRECT_MAX_KM:
            return None
        inflation = 0.5 * (
            DOMESTIC_INFLATION[origin_country.infra_tier]
            + DOMESTIC_INFLATION[target_country.infra_tier]
        )
        path_km = crow_km * inflation + _DIRECT_BORDER_KM
        peering = (
            TIER_PEERING_RTT_MS[origin_country.infra_tier]
            + 0.5 * TIER_PEERING_RTT_MS[target_country.infra_tier]
        )
        return Route(path_km=path_km, kind="direct", via=(), peering_ms=peering)


@lru_cache(maxsize=1)
def default_transit_model() -> TransitModel:
    """Process-wide shared :class:`TransitModel` (construction is not free)."""
    return TransitModel()
