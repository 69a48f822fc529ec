"""Property test for the window kernel: many flows in one call.

The contract under test (DESIGN.md §6c): one
:meth:`LatencyModel.ping_batch` call over many flows — mixed access
technologies, infrastructure tiers, countries and target adjustments,
with any number of rows per flow, zero included — is **bit-identical**
both to one call per flow and to the scalar :meth:`LatencyModel.ping`
loop, when every path consumes the same flow streams.  Only the draws
are per flow; every other step runs once over all rows, so a flow's
bits must not depend on which flows share its call.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo.countries import get_country
from repro.net.lastmile import AccessTechnology
from repro.net.pathmodel import (
    EndpointAdjustment,
    LatencyModel,
    PingDrawStreams,
    PingFlow,
)

T0 = 1_567_296_000

#: Origin countries spanning tiers 1-4 (DE/GB, PL/RU, BR/KE, NG/VE).
COUNTRIES = ("DE", "GB", "PL", "RU", "BR", "KE", "NG", "VE")

#: The af=6 target adjustment the platform applies.
V6 = EndpointAdjustment(path_factor=1.03, peering_factor=1.20, extra_ms=1.5)

flow_specs = st.lists(
    st.tuples(
        st.sampled_from(list(AccessTechnology)),
        st.sampled_from(COUNTRIES),
        st.booleans(),                                   # af=6 adjustment
        st.integers(min_value=0, max_value=40),          # ticks
        st.integers(min_value=0, max_value=86_399),      # first tick offset
        st.integers(min_value=60, max_value=21_600),     # interval
    ),
    min_size=1,
    max_size=6,
)


def build(specs, seed):
    """Flows (with fresh streams) and their per-flow timestamps."""
    frankfurt = get_country("DE")
    flows, stamps = [], []
    for index, (tech, code, v6, ticks, offset, interval) in enumerate(specs):
        country = get_country(code)
        flows.append(
            PingFlow(
                country.centroid, country, tech,
                frankfurt.centroid, frankfurt,
                origin_id=index,
                target_id="aws:eu-central-1" + ("#v6" if v6 else ""),
                adjustment=V6 if v6 else EndpointAdjustment(),
                draws=PingDrawStreams(seed, "window", index),
            )
        )
        stamps.append(T0 + offset + interval * np.arange(ticks, dtype=np.int64))
    return flows, stamps


def same_bits(left: np.ndarray, right: np.ndarray) -> bool:
    return left.shape == right.shape and left.tobytes() == right.tobytes()


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32),
    specs=flow_specs,
    packets=st.integers(min_value=1, max_value=5),
)
def test_window_equals_per_flow_calls_and_scalar_loop(seed, specs, packets):
    model = LatencyModel(seed=seed)
    flows, stamps = build(specs, seed)
    window = model.ping_batch(
        flows, np.concatenate(stamps), [len(ts) for ts in stamps], packets=packets
    )
    assert len(window.rtt_min) == sum(len(ts) for ts in stamps)

    # One call per flow, each on fresh copies of the same streams.
    flows, stamps = build(specs, seed)
    singles = [
        model.ping_batch([flow], ts, packets=packets)
        for flow, ts in zip(flows, stamps)
    ]
    for name in ("received", "rtts_ms", "rtt_min", "rtt_avg"):
        assert same_bits(
            getattr(window, name),
            np.concatenate([getattr(batch, name) for batch in singles]),
        ), name

    # The scalar loop: one ping() per tick, streams consumed tick by tick.
    flows, stamps = build(specs, seed)
    row = 0
    for flow, ts in zip(flows, stamps):
        for timestamp in ts:
            obs = model.ping(
                flow.origin, flow.origin_country, flow.tech,
                flow.target, flow.target_country, int(timestamp),
                origin_id=flow.origin_id, target_id=flow.target_id,
                packets=packets, adjustment=flow.adjustment, draws=flow.draws,
            )
            assert window.observation(row) == obs
            if obs.succeeded:
                assert window.rtt_min[row] == obs.rtt_min
                assert window.rtt_avg[row] == obs.rtt_avg
            else:
                assert np.isnan(window.rtt_min[row])
                assert np.isnan(window.rtt_avg[row])
            row += 1
