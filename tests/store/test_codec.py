"""Lossless chunk encodings: byte-exact round trips and corruption.

Every comparison here is of bytes, never of values: ``NaN != NaN`` and
``-0.0 == 0.0`` would hide exactly the changes the encodings must never
make.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StoreIntegrityError, StoreRepairError
from repro.store import StoreReader, StoreWriter, scrub
from repro.store.codec import ENCODINGS, RAW, decode, encode, encode_as, fits
from repro.store.format import SAMPLE_SCHEMA, Manifest
from repro.store.scrub import repair

from tests.store.conftest import columns_equal, synthetic_columns

SCHEMA_DTYPES = sorted({dtype for _, dtype in SAMPLE_SCHEMA})
INT_DTYPES = [dtype for dtype in SCHEMA_DTYPES if np.dtype(dtype).kind == "i"]


def round_trip(array: np.ndarray) -> str:
    """Encode, decode, and require the raw bytes back; returns the encoding."""
    encoding, data = encode(array)
    decoded = decode(data, encoding, array.dtype, len(array))
    assert decoded.dtype == array.dtype
    assert decoded.tobytes() == array.tobytes(), encoding
    assert fits(encoding, array.dtype, len(array), len(data))
    # The choice is a pure function of the values: the same bytes again,
    # and exactly what re-encoding in the recorded encoding produces.
    assert encode(array.copy()) == (encoding, data)
    assert encode_as(array, encoding) == data
    assert len(data) <= array.nbytes
    return encoding


def _ints(dtype: str):
    info = np.iinfo(np.dtype(dtype))
    full = st.integers(int(info.min), int(info.max))
    small = st.integers(-3, 12)
    return st.one_of(
        st.lists(full, max_size=300),
        st.lists(small, max_size=300),
        # Runs of repeated values.
        st.lists(st.tuples(full, st.integers(1, 40)), max_size=20).map(
            lambda runs: [value for value, count in runs for _ in range(count)]
        ),
        # Steps drawn from a few differences, wrapping past the dtype's
        # range as they go.
        st.tuples(full, st.lists(st.sampled_from([0, 1, 7, 43_200, -5, info.max]), max_size=300)).map(
            lambda start_steps: list(
                np.cumsum([start_steps[0], *start_steps[1]], dtype=np.int64)
                .astype(np.dtype(dtype))
            )
        ),
    ).map(lambda values: np.asarray(values, dtype=np.int64).astype(np.dtype(dtype)))


_SPECIAL_FLOATS = [np.nan, -0.0, 0.0, np.inf, -np.inf, 0.1234567, 1e300, 2_147_483.648, -2_147_483.648]

_floats = st.one_of(
    st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=300),
    # Whole thousandths, as the platform quantizes RTTs, with NaN gaps.
    st.lists(
        st.one_of(st.integers(-2_147_483_647, 2_147_483_647).map(lambda k: k / 1000.0),
                  st.just(np.nan)),
        max_size=300,
    ),
    st.lists(
        st.one_of(st.integers(0, 400_000).map(lambda k: k / 1000.0),
                  st.sampled_from(_SPECIAL_FLOATS)),
        max_size=300,
    ),
).map(lambda values: np.asarray(values, dtype="<f8"))


class TestRoundTrip:
    @pytest.mark.parametrize("dtype", INT_DTYPES)
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_every_int_dtype(self, dtype, data):
        round_trip(data.draw(_ints(dtype)))

    @given(array=_floats)
    @settings(max_examples=300, deadline=None)
    def test_float64(self, array):
        encoding = round_trip(array)
        assert encoding in (RAW, "milli", "mean")

    @pytest.mark.parametrize("dtype", SCHEMA_DTYPES)
    def test_empty_one_row_and_constant_chunks(self, dtype):
        floats = np.dtype(dtype).kind == "f"
        assert round_trip(np.empty(0, dtype=dtype)) == RAW
        assert round_trip(np.ones(1, dtype=dtype)) == ("milli" if floats else RAW)
        constant = round_trip(np.full(1000, 3, dtype=dtype))
        assert constant == ("milli" if floats else "rle")

    @pytest.mark.parametrize("dtype", INT_DTYPES)
    def test_integer_edges(self, dtype):
        info = np.iinfo(np.dtype(dtype))
        edges = np.array([info.min, info.max, 0, -1, info.min + 1, info.max - 1] * 50, dtype=dtype)
        round_trip(edges)
        round_trip(np.repeat(np.array([info.min, info.max], dtype=dtype), 100))

    def test_more_than_256_distinct_deltas_is_not_delta(self):
        steps = np.repeat(np.arange(1, 301, dtype=np.int64), 7)
        timestamps = (1_500_000_000 + np.cumsum(steps)).astype("<i8")
        assert round_trip(timestamps) != "delta"
        assert encode_as(timestamps, "delta") is None
        assert round_trip(timestamps[: 256 * 7]) == "delta"

    def test_sampled_dictionary_finds_rare_deltas(self):
        # One delta dominates; the rest occur once each, where a strided
        # sample misses them.
        steps = np.full(100_000, 43_200, dtype=np.int64)
        steps[np.arange(37, 100_000, 997)[:100]] = np.arange(1, 101) * -1_000
        timestamps = (1_567_296_000 + np.cumsum(steps)).astype("<i8")
        assert round_trip(timestamps) == "delta"

    def test_each_encoding_where_it_is_smallest(self):
        rows = 4096
        assert round_trip(np.repeat(np.arange(8, dtype="<i4"), rows // 8)) == "rle"
        assert round_trip(np.arange(rows, dtype="<i2") % 4) == "pack"
        assert round_trip(np.arange(rows, dtype="<i8") * 43_200) == "delta"
        assert round_trip(np.round(np.linspace(0, 300, rows), 3)) == "milli"


class TestRawFallback:
    @pytest.mark.parametrize("value", [-0.0, np.inf, -np.inf, 1e300])
    def test_float_that_cannot_round_trip_keeps_the_chunk_raw(self, value):
        array = np.round(np.linspace(1.0, 300.0, 1000), 3)
        array[500] = value
        assert round_trip(array) == RAW
        assert encode_as(array, "milli") is None

    @pytest.mark.parametrize("value", [0.0005, float.fromhex("0x1.0000000000001p+0")])
    def test_milli_misfit_falls_through_to_mean(self, value):
        """Half a thousandth, and 1.0 one ULP up, are no whole number of
        thousandths but are (1 / 1000) / 2 and 1.0 moved by one ULP."""
        array = np.round(np.linspace(1.0, 300.0, 1000), 3)
        array[500] = value
        assert encode_as(array, "milli") is None
        assert round_trip(array) == "mean"

    def test_nan_payloads_other_than_the_canonical_one_stay_raw(self):
        array = np.round(np.linspace(1.0, 300.0, 1000), 3)
        array[10] = np.nan
        assert round_trip(array) == "milli"
        array.view("<u8")[10] = 0xFFF8000000000000  # a negative quiet NaN
        assert round_trip(array) == RAW
        array.view("<u8")[10] = 0x7FF0000000000001  # a signalling NaN
        assert round_trip(array) == RAW

    def test_thousandths_at_the_sentinel_stay_raw(self):
        array = np.array([-2_147_483.648, 1.0] * 100)
        assert round_trip(array) == RAW

    def test_writer_falls_back_per_chunk(self, tmp_path):
        columns = synthetic_columns(192, seed=4)
        columns["rtt_min"] = np.round(np.linspace(1.0, 250.0, 192), 3)
        columns["rtt_min"][70] = -0.0  # the second of three shards
        writer = StoreWriter(tmp_path / "s", rows_per_shard=64)
        writer.append_columns(columns)
        manifest = writer.finalize()
        encodings = [shard.chunks["rtt_min"].encoding for shard in manifest.shards]
        assert encodings == ["milli", RAW, "milli"]
        assert [shard.chunks["rtt_avg"].encoding for shard in manifest.shards] == [RAW] * 3
        assert columns_equal(StoreReader(tmp_path / "s").columns(), columns)


def _means(rows: int, packets: int = 3) -> np.ndarray:
    """Means of ``packets`` 3-decimal RTTs per row, as the kernel reduces
    them (a float sum divided by the count), most of them no whole
    number of thousandths."""
    rtts = np.round(np.linspace(1.0, 250.0, rows * packets), 3).reshape(rows, packets)
    return rtts.sum(axis=1) / packets


def _encoded_store(tmp_path):
    path = tmp_path / "s"
    columns = synthetic_columns(300, seed=6)
    columns["rtt_min"] = np.round(np.linspace(1.0, 250.0, 300), 3)
    columns["rtt_avg"] = _means(300)
    writer = StoreWriter(path, rows_per_shard=128)
    writer.append_columns(columns)
    writer.finalize()
    return path, columns


def _encoded_chunks(path):
    manifest = Manifest.load(path)
    return [
        (column, meta)
        for shard in manifest.shards
        for column, meta in shard.chunks.items()
        if meta.encoding != RAW
    ]


def _bits(array: np.ndarray) -> bytes:
    return np.ascontiguousarray(array, dtype="<f8").view("<u8").tobytes()


@st.composite
def _kernel_batches(draw):
    """A block as the kernel reduces it: ``packets`` 3-decimal RTTs per
    row, a random received count each (0 to ``packets``)."""
    from repro.net.pathmodel import _reduce_batch

    packets = draw(st.integers(1, 5))
    rows = draw(st.integers(1, 120))
    thousandths = draw(
        st.lists(st.integers(0, 6_000_000), min_size=rows * packets, max_size=rows * packets)
    )
    received = np.asarray(
        draw(st.lists(st.integers(0, packets), min_size=rows, max_size=rows)), dtype=np.int64
    )
    rtts = np.round(np.asarray(thousandths, dtype=np.float64).reshape(rows, packets) / 1000.0, 3)
    batch = _reduce_batch(np.zeros(rows, dtype=np.int64), packets, received, rtts)
    return batch.rtt_avg, received


class TestMean:
    """``mean``: a float sum of 3-decimal RTTs over 1-3 packets."""

    @given(batch=_kernel_batches())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_kernel_means_round_trip_bit_for_bit(self, batch):
        means, received = batch
        encoding, data = encode(means)
        assert _bits(decode(data, encoding, means.dtype, len(means))) == _bits(means)
        if received.max() <= 3:
            # Every row fits a code; milli wins the tie when the means
            # all happen to be whole thousandths.
            assert encoding in ("milli", "mean")
            assert encode_as(means, "mean") is not None

    def test_canonical_nan_is_the_null_code(self):
        means = _means(64)
        means[[0, 9]] = np.nan
        encoding, data = encode(means)
        assert encoding == "mean"
        assert np.frombuffer(data, "<i4")[[0, 9]].tolist() == [4, 4]
        assert _bits(decode(data, "mean", "<f8", 64)) == _bits(means)

    @pytest.mark.parametrize(
        "value",
        [
            -0.0,
            np.inf,
            -np.inf,
            # The smallest subnormal and one 3 ULPs above zero: a zero
            # total decodes to +0.0 only.
            float.fromhex("0x0.0000000000001p-1022"),
            float.fromhex("0x0.0000000000003p-1022"),
            # A total of 2**26 thousandths over 3, past the code range.
            (2 ** 26 / 1000.0) / 3,
            # A mean of RTTs that are not whole thousandths, which milli
            # cannot take either.
            (1.0004 + 2.0 + 3.0) / 3,
        ],
    )
    def test_values_outside_the_code_keep_the_chunk_raw(self, value):
        means = _means(256)
        assert encode(means)[0] == "mean"
        means[100] = value
        assert encode_as(means, "mean") is None
        assert round_trip(means) == RAW

    @pytest.mark.parametrize("bits", [0xFFF8000000000000, 0x7FF0000000000001, 0x7FF8000000000001])
    def test_non_canonical_nan_keeps_the_chunk_raw(self, bits):
        means = _means(256)
        means.view("<u8")[100] = bits
        assert encode_as(means, "mean") is None
        assert round_trip(means) == RAW

    def test_milli_keeps_its_tie_on_thousandths(self):
        minima = np.round(np.linspace(1.0, 250.0, 512), 3)
        assert encode_as(minima, "mean") is not None
        assert round_trip(minima) == "milli"

    def test_a_nan_code_with_stray_bits_does_not_decode(self):
        codes = np.full(8, 4, dtype="<i4")
        codes[3] = (1 << 5) | 4  # n = 0 with a total of 1
        with pytest.raises(StoreIntegrityError):
            decode(codes.tobytes(), "mean", "<f8", 8)


class TestCorruption:
    def test_store_has_every_integer_encoding(self, tmp_path):
        path, _ = _encoded_store(tmp_path)
        assert {meta.encoding for _, meta in _encoded_chunks(path)} == set(ENCODINGS) - {RAW}

    @pytest.mark.parametrize("damage", ["truncate", "flip", "extend"])
    def test_damaged_encoded_chunk_never_reads(self, tmp_path, damage):
        path, columns = _encoded_store(tmp_path)
        for column, meta in _encoded_chunks(path):
            chunk = path / meta.file
            original = chunk.read_bytes()
            if damage == "truncate":
                chunk.write_bytes(original[:-1])
            elif damage == "extend":
                chunk.write_bytes(original + b"\0")
            else:
                flipped = bytearray(original)
                flipped[len(flipped) // 2] ^= 0x04
                chunk.write_bytes(bytes(flipped))
            # The checksum (or the size check) catches it at open...
            with pytest.raises(StoreIntegrityError):
                StoreReader(path, verify="full")
            # ...and decoding catches it when nothing was verified.
            with pytest.raises(StoreIntegrityError):
                StoreReader(path, verify="off").column(column)
            chunk.write_bytes(original)
        assert columns_equal(StoreReader(path, verify="off").columns(), columns)

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_decoder_never_returns_the_wrong_length(self, data):
        dtype = data.draw(st.sampled_from(SCHEMA_DTYPES))
        array = (
            data.draw(_floats) if np.dtype(dtype).kind == "f" else data.draw(_ints(dtype))
        )
        encoding, payload = encode(array)
        mangled = bytearray(payload)
        cut = data.draw(st.integers(0, len(mangled)))
        if data.draw(st.booleans()) and mangled:
            mangled[data.draw(st.integers(0, len(mangled) - 1))] ^= 1 << data.draw(st.integers(0, 7))
        else:
            del mangled[cut:]
        rows = len(array) + data.draw(st.sampled_from([0, 0, 1, -1]))
        try:
            values = decode(bytes(mangled), encoding, dtype, max(rows, 0))
        except StoreIntegrityError:
            return
        assert len(values) == max(rows, 0)
        assert values.dtype == np.dtype(dtype)

    def test_scrub_flags_a_chunk_its_manifest_misdescribes(self, tmp_path):
        path, _ = _encoded_store(tmp_path)
        manifest_path = path / "manifest.json"
        payload = json.loads(manifest_path.read_text())
        payload["shards"][0]["chunks"]["rtt_min"]["encoding"] = RAW
        manifest_path.write_text(json.dumps(payload))
        report = scrub(path)
        assert [(d.kind, d.repairable) for d in report.damage] == [
            ("undecodable_chunk", False)
        ]
        with pytest.raises(StoreRepairError, match="re-collect"):
            repair(path)

    def test_manifest_naming_a_foreign_encoding_is_refused(self, tmp_path):
        path, _ = _encoded_store(tmp_path)
        manifest_path = path / "manifest.json"
        payload = json.loads(manifest_path.read_text())
        payload["shards"][0]["chunks"]["probe_id"]["encoding"] = "milli"
        manifest_path.write_text(json.dumps(payload))
        with pytest.raises(StoreIntegrityError):
            StoreReader(path, verify="off")

    def test_legacy_manifest_cannot_name_an_encoding(self, tmp_path):
        path, _ = _encoded_store(tmp_path)
        manifest_path = path / "manifest.json"
        payload = json.loads(manifest_path.read_text())
        payload["version"] = 2
        manifest_path.write_text(json.dumps(payload))
        with pytest.raises(StoreIntegrityError):
            StoreReader(path, verify="off")
