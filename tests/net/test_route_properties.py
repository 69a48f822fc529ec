"""Property-based invariants of the routing and latency models."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo.coordinates import LatLon, destination_point
from repro.geo.countries import all_countries, get_country
from repro.net.cables import GATEWAYS
from repro.net.lastmile import AccessTechnology
from repro.net.pathmodel import LatencyModel
from repro.net.physics import wire_rtt_ms
from repro.net.topology import (
    DOMESTIC_INFLATION,
    TIER_PEERING_RTT_MS,
    Route,
    TransitModel,
    default_transit_model,
)

_COUNTRIES = all_countries()

country_strategy = st.sampled_from(_COUNTRIES)
bearing_strategy = st.floats(0.0, 359.9)
offset_strategy = st.floats(0.0, 400.0)


def _point_near(country, bearing, offset) -> LatLon:
    point = destination_point(country.centroid, bearing, offset)
    lat = min(max(point.lat, -89.0), 89.0)
    return LatLon(lat, point.lon)


class TestRouteInvariants:
    @given(country_strategy, country_strategy, bearing_strategy, offset_strategy)
    @settings(max_examples=150, deadline=None)
    def test_path_never_beats_great_circle(self, a, b, bearing, offset):
        """Physical lower bound: no route is shorter than the geodesic."""
        model = default_transit_model()
        origin = _point_near(a, bearing, offset)
        target = b.centroid
        route = model.route(origin, a, target, b)
        crow = origin.distance_km(target)
        assert route.path_km >= crow * 0.999

    @given(country_strategy, country_strategy)
    @settings(max_examples=100, deadline=None)
    def test_floor_bounded_below_by_physics(self, a, b):
        model = default_transit_model()
        route = model.route(a.centroid, a, b.centroid, b)
        crow = a.centroid.distance_km(b.centroid)
        assert route.floor_rtt_ms >= wire_rtt_ms(crow) - 1e-9

    @given(country_strategy, country_strategy)
    @settings(max_examples=100, deadline=None)
    def test_floor_positive_and_finite(self, a, b):
        model = default_transit_model()
        route = model.route(a.centroid, a, b.centroid, b)
        assert 0.0 < route.floor_rtt_ms < 1_000.0

    @given(country_strategy)
    @settings(max_examples=60, deadline=None)
    def test_domestic_kind_for_same_country(self, country):
        model = default_transit_model()
        route = model.route(
            country.centroid, country, country.centroid, country
        )
        assert route.kind == "domestic"


def _reference_route(model, origin, origin_country, target, target_country):
    """The unmemoized route formula: every haversine computed afresh."""
    if origin_country.iso2 == target_country.iso2:
        return model._domestic_route(origin, origin_country, target)
    infl_out = DOMESTIC_INFLATION[origin_country.infra_tier]
    infl_in = DOMESTIC_INFLATION[target_country.infra_tier]
    best_km, best_via = None, ()
    for gw_out in model.gateways_for(origin_country):
        tail_out = origin.distance_km(GATEWAYS[gw_out].location) * infl_out
        for gw_in in model.gateways_for(target_country):
            tail_in = target.distance_km(GATEWAYS[gw_in].location) * infl_in
            total = tail_out + model.gateway_path_km(gw_out, gw_in) + tail_in
            if best_km is None or total < best_km:
                best_km = total
                best_via = (gw_out, gw_in) if gw_out != gw_in else (gw_out,)
    peering = (
        TIER_PEERING_RTT_MS[origin_country.infra_tier]
        + 0.5 * TIER_PEERING_RTT_MS[target_country.infra_tier]
    )
    candidates = [Route(path_km=best_km, kind="gateway", via=best_via, peering_ms=peering)]
    direct = model._direct_route(origin, origin_country, target, target_country)
    if direct is not None:
        candidates.append(direct)
    return min(candidates, key=lambda route: route.floor_rtt_ms)


#: Country pairs whose centroids route domestic, direct and via gateways.
_KIND_PAIRS = {"domestic": ("DE", "DE"), "direct": ("DE", "NL"), "gateway": ("BR", "DE")}


class TestMemoizedTails:
    def test_pairs_cover_every_route_kind(self):
        model = TransitModel()
        for kind, (a, b) in _KIND_PAIRS.items():
            a, b = get_country(a), get_country(b)
            assert model.route(a.centroid, a, b.centroid, b).kind == kind

    @given(
        st.sampled_from(sorted(_KIND_PAIRS.values()) + [("US", "CA"), ("NG", "ZA")]),
        country_strategy,
        bearing_strategy,
        offset_strategy,
        bearing_strategy,
        offset_strategy,
    )
    @settings(max_examples=200, deadline=None)
    def test_memoized_route_equals_the_formula(
        self, pair, other, bearing_a, offset_a, bearing_b, offset_b
    ):
        """Bit-identical routes, on a fresh model and again on memo hits,
        whichever endpoint meets which partner first."""
        model = TransitModel()
        a, b = (get_country(code) for code in pair)
        origin = _point_near(a, bearing_a, offset_a)
        target = _point_near(b, bearing_b, offset_b)
        ends = [(origin, a, target, b), (target, b, origin, a),
                (origin, a, other.centroid, other), (other.centroid, other, target, b)]
        for _ in range(2):
            for end in ends:
                assert model.route(*end) == _reference_route(model, *end)


class TestLatencyModelInvariants:
    @given(
        country_strategy,
        country_strategy,
        st.sampled_from(list(AccessTechnology)),
        st.integers(1_567_296_000, 1_590_000_000),
    )
    @settings(max_examples=80, deadline=None)
    def test_ping_rtts_respect_floor(self, a, b, tech, timestamp):
        model = LatencyModel(seed=77)
        floor = model.floor_rtt_ms(a.centroid, a, tech, b.centroid, b)
        obs = model.ping(
            a.centroid, a, tech, b.centroid, b, timestamp,
            origin_id=1, target_id="prop", packets=3,
        )
        for rtt in obs.rtts_ms:
            assert rtt >= floor - 1e-6

    @given(country_strategy, st.integers(1_567_296_000, 1_570_000_000))
    @settings(max_examples=60, deadline=None)
    def test_wireless_floor_dominates_wired(self, country, timestamp):
        model = LatencyModel(seed=78)
        target = _COUNTRIES[0]
        wired = model.floor_rtt_ms(
            country.centroid, country, AccessTechnology.ETHERNET,
            target.centroid, target,
        )
        wireless = model.floor_rtt_ms(
            country.centroid, country, AccessTechnology.LTE,
            target.centroid, target,
        )
        assert wireless > wired
