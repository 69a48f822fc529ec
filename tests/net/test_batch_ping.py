"""Property tests for the vectorized ping batch — scalar parity.

The contract under test (DESIGN.md, "fast path"): fed the same flow
streams, :meth:`LatencyModel.ping_batch` over ``n`` timestamps is
**bit-identical** to ``n`` scalar :meth:`LatencyModel.ping` calls
consuming the streams tick by tick — min, avg, received counts, and the
raw per-packet RTTs alike.  Hypothesis drives the seed, tick count,
packet count, technology, and timing grid so the equality is a property
of the design, not of one lucky configuration.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo.coordinates import LatLon
from repro.geo.countries import get_country
from repro.net.lastmile import AccessTechnology
from repro.net.pathmodel import LatencyModel, PingDrawStreams, PingFlow

MUNICH = LatLon(48.1, 11.6)
FRANKFURT = LatLon(50.1, 8.7)
LAGOS = LatLon(6.5, 3.4)
T0 = 1_567_296_000

TECHS = (
    AccessTechnology.ETHERNET,
    AccessTechnology.LTE,
    AccessTechnology.SATELLITE,
)


def _scalar_pings(model, timestamps, tech, packets, draws):
    germany = get_country("DE")
    return [
        model.ping(
            MUNICH, germany, tech, FRANKFURT, germany, int(ts),
            origin_id=1, target_id="aws:eu-central-1",
            packets=packets, draws=draws,
        )
        for ts in timestamps
    ]


def _batch(model, timestamps, tech, packets, draws):
    germany = get_country("DE")
    return model.ping_batch(
        [PingFlow(
            MUNICH, germany, tech, FRANKFURT, germany,
            origin_id=1, target_id="aws:eu-central-1", draws=draws,
        )],
        timestamps, packets=packets,
    )


def _assert_batch_equals_scalars(batch, observations):
    assert len(batch) == len(observations)
    for row, obs in enumerate(observations):
        assert int(batch.received[row]) == obs.received
        got = batch.observation(row)
        assert got == obs
        # The reduced columns are the exact scalar reductions — bitwise,
        # not approximately.
        if obs.succeeded:
            assert batch.rtt_min[row] == obs.rtt_min
            assert batch.rtt_avg[row] == obs.rtt_avg
        else:
            assert np.isnan(batch.rtt_min[row])
            assert np.isnan(batch.rtt_avg[row])


class TestBatchScalarParity:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        ticks=st.integers(min_value=1, max_value=40),
        packets=st.integers(min_value=1, max_value=5),
        tech=st.sampled_from(TECHS),
        interval=st.integers(min_value=60, max_value=21_600),
    )
    def test_batch_equals_scalar_loop(self, seed, ticks, packets, tech, interval):
        """Same seed and flow labels: batch columns == N scalar pings."""
        model = LatencyModel(seed=seed)
        timestamps = np.arange(ticks, dtype=np.int64) * interval + T0
        scalar = _scalar_pings(
            model, timestamps, tech, packets,
            PingDrawStreams(seed, "flow", 1),
        )
        batch = _batch(
            model, timestamps, tech, packets,
            PingDrawStreams(seed, "flow", 1),
        )
        _assert_batch_equals_scalars(batch, scalar)

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        ticks=st.integers(min_value=2, max_value=30),
        split=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_split_pooling_invariant(self, seed, ticks, split):
        """Drawing ``a`` ticks then ``b`` ticks == drawing ``a+b`` at
        once — the stream property windowed fetches and pre-window skips
        stand on."""
        cut = int(round(split * ticks))
        timestamps = np.arange(ticks, dtype=np.int64) * 3_600 + T0
        model = LatencyModel(seed=seed)

        whole = _batch(
            model, timestamps, AccessTechnology.ETHERNET, 3,
            PingDrawStreams(seed, "flow", 2),
        )
        parts = PingDrawStreams(seed, "flow", 2)
        head = _batch(model, timestamps[:cut], AccessTechnology.ETHERNET, 3, parts)
        tail = _batch(model, timestamps[cut:], AccessTechnology.ETHERNET, 3, parts)

        stitched_min = np.concatenate([head.rtt_min, tail.rtt_min])
        stitched_avg = np.concatenate([head.rtt_avg, tail.rtt_avg])
        assert np.array_equal(whole.rtt_min, stitched_min, equal_nan=True)
        assert np.array_equal(whole.rtt_avg, stitched_avg, equal_nan=True)
        assert np.array_equal(
            whole.rtts_ms, np.concatenate([head.rtts_ms, tail.rtts_ms])
        )

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32))
    def test_default_streams_are_the_flow_streams(self, seed):
        """Omitting ``draws`` derives the same per-flow streams both
        paths document — so the default batch equals the default scalar
        loop fed explicit streams."""
        model = LatencyModel(seed=seed)
        timestamps = np.arange(12, dtype=np.int64) * 7_200 + T0
        germany = get_country("DE")
        implicit = model.ping_batch(
            [PingFlow(
                MUNICH, germany, AccessTechnology.ETHERNET, FRANKFURT, germany,
                origin_id=5, target_id="gcp:europe-west3",
            )],
            timestamps,
        )
        explicit = model.ping_batch(
            [PingFlow(
                MUNICH, germany, AccessTechnology.ETHERNET, FRANKFURT, germany,
                origin_id=5, target_id="gcp:europe-west3",
                draws=PingDrawStreams(seed, "ping", 5, "gcp:europe-west3"),
            )],
            timestamps,
        )
        assert np.array_equal(implicit.rtts_ms, explicit.rtts_ms)
        assert np.array_equal(implicit.received, explicit.received)


class TestBatchAcrossTiers:
    """Parity holds on high-loss, high-congestion paths too (tier-4
    origin, satellite uplink) where bursty loss and bufferbloat branches
    actually fire."""

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        tech=st.sampled_from(TECHS),
    )
    def test_lossy_path_parity(self, seed, tech):
        model = LatencyModel(seed=seed)
        nigeria = get_country("NG")
        gb = get_country("GB")
        london = LatLon(51.5, -0.1)
        timestamps = np.arange(30, dtype=np.int64) * 5_400 + T0
        draws = PingDrawStreams(seed, "lossy", 9)
        scalar = [
            model.ping(
                LAGOS, nigeria, tech, london, gb, int(ts),
                origin_id=9, target_id="azure:uksouth", packets=3,
                draws=draws,
            )
            for ts in timestamps
        ]
        batch = model.ping_batch(
            [PingFlow(
                LAGOS, nigeria, tech, london, gb,
                origin_id=9, target_id="azure:uksouth",
                draws=PingDrawStreams(seed, "lossy", 9),
            )],
            timestamps, packets=3,
        )
        _assert_batch_equals_scalars(batch, scalar)
        # The property is only interesting if some bursts actually lose
        # packets on this path; tier 4 + 30 ticks makes that overwhelmingly
        # likely, but do not fail a rare all-clear draw.
        losses = sum(obs.sent - obs.received for obs in scalar)
        assert losses >= 0


class TestBatchShape:
    def test_empty_timestamps(self):
        model = LatencyModel(seed=3)
        batch = _batch(
            model, np.asarray([], dtype=np.int64), AccessTechnology.ETHERNET,
            3, None,
        )
        assert len(batch) == 0
        assert batch.rtts_ms.shape == (0, 3)

    def test_quantized_to_platform_precision(self):
        model = LatencyModel(seed=3)
        timestamps = np.arange(50, dtype=np.int64) * 3_600 + T0
        batch = _batch(model, timestamps, AccessTechnology.ETHERNET, 3, None)
        finite = batch.rtt_min[~np.isnan(batch.rtt_min)]
        assert np.array_equal(np.round(finite, 3), finite)

    def test_zero_packets_rejected(self):
        from repro.errors import NetworkModelError

        model = LatencyModel(seed=3)
        with pytest.raises(NetworkModelError):
            _batch(model, np.asarray([T0]), AccessTechnology.ETHERNET, 0, None)
