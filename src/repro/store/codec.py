"""Lossless column-chunk encodings: the chunk bytes of store formats v3
and v4.

Each column chunk is stored in the smallest of a few fixed encodings for
its dtype when that encoding's decode reproduces the chunk's raw
little-endian bytes exactly, and raw otherwise.  The rule is byte
equality, not value equality: a NaN payload, a ``-0.0`` or a value that
no float encoding reproduces keeps its chunk raw, so no stored value can
change.  The choice is a pure function of the chunk's values,
so the same rows encode to the same bytes whichever process cut the
shard, and a repair that re-synthesizes them reproduces the manifest's
checksums.

==========  ========  ==================================================
encoding    dtypes    payload (every field little-endian)
==========  ========  ==================================================
``raw``     any       the values
``rle``     integer   one value per run (column dtype), then each run's
                      length (``<u4``)
``pack``    integer   base ``<i8``, bit width ``<i8`` (1, 2, 4 or 8),
                      then ``value - base`` packed ``8 // width`` to a
                      byte, lowest bits first
``delta``   integer   first value ``<i8``, dictionary size ``<i8``, the
                      sorted distinct successive differences ``<i8``,
                      then one ``<u1`` dictionary code per difference
``milli``   ``<f8``   ``rint(value * 1000)`` as ``<i4``, NaN as
                      ``INT32_MIN``
``mean``    ``<f8``   one ``<i4`` per value, ``T << 5 | n << 3 | k + 4``:
                      the bits of ``(T / 1000) / n`` moved by ``k``
                      ULPs, for a total of ``T`` thousandths
                      (``|T| < 2**26``), a divisor ``n`` of 1-3 and
                      ``-4 <= k <= 3``; ``n = 0`` (code 4) is the
                      canonical NaN
==========  ========  ==================================================

``mean`` fits a mean of a few 3-decimal RTTs, which
:func:`repro.net.pathmodel._reduce_batch` computes as a float sum
divided by the packets received.  The encoder finds each row's triple
itself (``n`` = 3, then 2, then 1) from the value alone, so the column
needs no other column to decode.  A zero total decodes to ``+0.0``
only, so no subnormal is stored as ``mean``.

The encoder never sorts a whole chunk: the ``delta`` dictionary comes
from a strided sample, checked against every difference by
``searchsorted``, and only the misses are added.  :func:`decode` is the
one decoder of every reader (store reads, scans, zone-map backfill,
scrub); it raises :class:`~repro.errors.StoreIntegrityError` on any
payload that does not describe exactly ``rows`` values.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.errors import StoreIntegrityError

RAW = "raw"

#: Every encoding, in tie-break order: raw wins any tie.
ENCODINGS = (RAW, "rle", "pack", "delta", "milli", "mean")

#: The store format version that introduced each encoding: a manifest
#: of an older version may not name it.
INTRODUCED = {RAW: 1, "rle": 3, "pack": 3, "delta": 3, "milli": 3, "mean": 4}

_I64 = np.iinfo(np.int64)

#: NaN's code in a ``milli`` chunk; no finite value encodes to it.
_MILLI_NULL = np.iinfo(np.int32).min
_MILLI_MAX = np.iinfo(np.int32).max

#: Leading values a ``milli`` or ``mean`` chunk must round-trip before
#: the whole chunk is tried, so a column that does not fit is rejected
#: cheaply.
_FLOAT_PROBE = 256

#: ``mean`` code fields: the total above ``_MEAN_SHIFT`` bits, then the
#: divisor in 2 bits and ``k + _MEAN_ULPS`` in 3.
_MEAN_SHIFT = 5
_MEAN_TOTALS = 1 << 26
_MEAN_ULPS = 4
#: Divisors in the order the encoder tries them.
_MEAN_DIVISORS = (3, 2, 1)
#: The one NaN a ``mean`` chunk holds, and its code (``n = 0``).
_NAN_BITS = int(np.array(np.nan).view(np.int64))
_MEAN_NULL = _MEAN_ULPS

#: Bit widths a ``pack`` chunk may use.
_PACK_WIDTHS = (1, 2, 4, 8)

#: Most distinct differences a ``delta`` chunk's one-byte codes address.
_DELTA_CODES = 256

#: Differences sampled to seed the ``delta`` dictionary.
_DELTA_SAMPLE = 1024

_HEADER = np.dtype("<i8")
_HEADER_BYTES = 2 * _HEADER.itemsize

#: Per bit width below 8: each byte value's ``8 // width`` packed values.
_UNPACK = {
    width: (
        (np.arange(256, dtype=np.uint8)[:, None] >> np.arange(0, 8, width, dtype=np.uint8))
        & np.uint8((1 << width) - 1)
    )
    for width in _PACK_WIDTHS[:-1]
}


def _is_int(dtype: np.dtype) -> bool:
    return dtype.kind in "iu"


def _is_f8(dtype: np.dtype) -> bool:
    return dtype.kind == "f" and dtype.itemsize == 8


def applies(encoding: str, dtype) -> bool:
    """Whether this build can decode ``encoding`` into ``dtype``."""
    dtype = np.dtype(dtype)
    if encoding == RAW:
        return True
    if encoding in ("rle", "pack", "delta"):
        return _is_int(dtype)
    return encoding in ("milli", "mean") and _is_f8(dtype)


def fits(encoding: str, dtype, rows: int, size: int) -> bool:
    """Whether ``encoding`` can take ``size`` bytes for ``rows`` values of
    ``dtype`` — the length check a manifest allows without reading the
    chunk (decoding checks the rest)."""
    dtype = np.dtype(dtype)
    if encoding == RAW:
        return size == rows * dtype.itemsize
    if not applies(encoding, dtype):
        return False
    if encoding in ("milli", "mean"):
        return size == 4 * rows
    if encoding == "rle":
        run = dtype.itemsize + 4
        return size % run == 0 and min(rows, 1) * run <= size <= rows * run
    if encoding == "pack":
        return any(size == _HEADER_BYTES + -(-rows // (8 // w)) for w in _PACK_WIDTHS)
    entries, extra = divmod(size - _HEADER_BYTES - (rows - 1), _HEADER.itemsize)
    return rows >= 1 and not extra and (rows == 1) == (entries == 0) and 0 <= entries <= _DELTA_CODES


# -- encoders -------------------------------------------------------------------------
#
# A planner returns ``(size, build)`` — the exact encoded size and a
# thunk producing the payload (or None where the values turn out not to
# fit) — or None where the encoding cannot apply.  Sizes come first so
# payloads are built smallest first, and only until one fits.

Plan = Tuple[int, Callable[[], Optional[bytes]]]


def _plan_rle(array: np.ndarray) -> Optional[Plan]:
    if len(array) >= 1 << 32:
        return None
    runs = 1 + int(np.count_nonzero(array[1:] != array[:-1]))

    def build() -> bytes:
        starts = np.concatenate(([0], np.flatnonzero(array[1:] != array[:-1]) + 1))
        lengths = np.diff(np.append(starts, len(array))).astype("<u4")
        return array[starts].tobytes() + lengths.tobytes()

    return runs * (array.dtype.itemsize + 4), build


def _plan_pack(array: np.ndarray) -> Optional[Plan]:
    base, top = int(array.min()), int(array.max())
    if base < _I64.min or top > _I64.max:
        return None
    width = next((w for w in _PACK_WIDTHS if top - base < (1 << w)), None)
    if width is None:
        return None
    per_byte = 8 // width

    def build() -> bytes:
        offsets = np.zeros(-(-len(array) // per_byte) * per_byte, dtype=np.uint8)
        offsets[: len(array)] = array.astype(np.int64) - base
        packed = offsets[::per_byte].copy()
        for slot in range(1, per_byte):
            packed |= offsets[slot::per_byte] << np.uint8(slot * width)
        header = np.array([base, width], dtype=_HEADER).tobytes()
        return header + packed.tobytes()

    return _HEADER_BYTES + -(-len(array) // per_byte), build


def _delta_floor(rows: int) -> int:
    """The smallest ``delta`` chunk of ``rows`` values: one code per
    difference plus at least one dictionary entry."""
    return _HEADER_BYTES + _HEADER.itemsize + rows - 1


def _plan_delta(array: np.ndarray) -> Optional[Plan]:
    rows = len(array)
    # Differences wrap modulo 2**64 exactly as the decoder's running sum
    # does, so every integer dtype round-trips through <i8 arithmetic.
    wide = array.astype(np.int64, copy=False)
    deltas = np.diff(wide)
    dictionary = np.unique(deltas[:: max(1, len(deltas) // _DELTA_SAMPLE)])
    if len(dictionary) > _DELTA_CODES:
        return None
    codes = np.searchsorted(dictionary, deltas)
    missed = np.take(dictionary, codes, mode="clip") != deltas
    if missed.any():
        rare = deltas[missed]
        grown = np.union1d(dictionary, rare)
        if len(grown) > _DELTA_CODES:
            return None
        # Re-point the sampled codes and look up only the misses.
        codes = np.take(np.searchsorted(grown, dictionary), codes, mode="clip")
        codes[missed] = np.searchsorted(grown, rare)
        dictionary = grown

    def build() -> bytes:
        header = np.array([wide[0], len(dictionary)], dtype=_HEADER).tobytes()
        return header + dictionary.astype(_HEADER).tobytes() + codes.astype(np.uint8).tobytes()

    return _HEADER_BYTES + len(dictionary) * _HEADER.itemsize + rows - 1, build


def _milli_codes(array: np.ndarray) -> Optional[np.ndarray]:
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = np.rint(array * 1000.0)
    nulls = np.isnan(array)
    scaled[nulls] = 0.0
    if len(scaled) and not -_MILLI_MAX <= scaled.min() <= scaled.max() <= _MILLI_MAX:
        return None
    codes = scaled.astype("<i4")
    codes[nulls] = _MILLI_NULL
    return codes


def _plan_codes(
    array: np.ndarray,
    codes_of: Callable[[np.ndarray], Optional[np.ndarray]],
    decoder: Callable[[bytes, np.dtype, int], np.ndarray],
) -> Plan:
    """A 4-byte-per-value plan whose build first tries the leading
    :data:`_FLOAT_PROBE` values alone."""

    def build() -> Optional[bytes]:
        probe = array[:_FLOAT_PROBE]
        head = codes_of(probe)
        if head is None or not _same_bytes(
            decoder(head.tobytes(), array.dtype, len(probe)), probe
        ):
            return None
        codes = codes_of(array)
        return None if codes is None else codes.tobytes()

    return 4 * len(array), build


def _plan_milli(array: np.ndarray) -> Optional[Plan]:
    return _plan_codes(array, _milli_codes, _decode_milli)


def _mean_codes(array: np.ndarray) -> Optional[np.ndarray]:
    """Each row's code under the first divisor (3, 2, 1) whose decode
    lies within the correction's reach of the row's bits, or None where
    some row has no code."""
    bits = array.view(np.int64)
    nulls = np.isnan(array)
    if (bits[nulls] != _NAN_BITS).any():
        return None
    codes = np.full(len(array), _MEAN_NULL, dtype="<i4")
    pending = ~nulls
    for divisor in _MEAN_DIVISORS:
        rows = np.flatnonzero(pending)
        if not len(rows):
            break
        with np.errstate(over="ignore", invalid="ignore"):
            scaled = np.rint(array[rows] * (1000.0 * divisor))
            inside = np.abs(scaled) < _MEAN_TOTALS
        totals = np.where(inside, scaled, 0.0).astype(np.int64)
        ulps = bits[rows] - ((totals / 1000.0) / divisor).view(np.int64)
        fit = inside & (ulps >= -_MEAN_ULPS) & (ulps < _MEAN_ULPS)
        # A zero total decodes to +0.0 only, so no subnormal is coded.
        fit &= (totals != 0) | (ulps == 0)
        rows, totals, ulps = rows[fit], totals[fit], ulps[fit]
        codes[rows] = (
            (totals << _MEAN_SHIFT) | (divisor << 3) | (ulps + _MEAN_ULPS)
        ).astype("<i4")
        pending[rows] = False
    return None if pending.any() else codes


def _plan_mean(array: np.ndarray) -> Optional[Plan]:
    return _plan_codes(array, _mean_codes, _decode_mean)


_PLANNERS = {
    "rle": _plan_rle,
    "pack": _plan_pack,
    "delta": _plan_delta,
    "milli": _plan_milli,
    "mean": _plan_mean,
}


# -- decoders -------------------------------------------------------------------------


def _corrupt(encoding: str, detail: str) -> StoreIntegrityError:
    return StoreIntegrityError(f"{encoding} chunk does not decode: {detail}")


def _header(encoding: str, data: bytes) -> Tuple[int, int]:
    if len(data) < _HEADER_BYTES:
        raise _corrupt(encoding, f"{len(data)} bytes is shorter than its header")
    first, second = np.frombuffer(data, dtype=_HEADER, count=2)
    return int(first), int(second)


def _decode_raw(data: bytes, dtype: np.dtype, rows: int) -> np.ndarray:
    if len(data) != rows * dtype.itemsize:
        raise _corrupt(RAW, f"{len(data)} bytes for {rows} rows of {dtype.str}")
    return np.frombuffer(data, dtype=dtype)


def _decode_rle(data: bytes, dtype: np.dtype, rows: int) -> np.ndarray:
    width = dtype.itemsize + 4
    if len(data) % width:
        raise _corrupt("rle", f"{len(data)} bytes is not a whole number of runs")
    runs = len(data) // width
    values = np.frombuffer(data, dtype=dtype, count=runs)
    lengths = np.frombuffer(data, dtype="<u4", offset=runs * dtype.itemsize)
    if (lengths == 0).any() or int(lengths.sum(dtype=np.int64)) != rows:
        raise _corrupt("rle", f"run lengths do not sum to {rows} rows")
    return np.repeat(values, lengths.astype(np.intp))


def _decode_pack(data: bytes, dtype: np.dtype, rows: int) -> np.ndarray:
    base, width = _header("pack", data)
    if width not in _PACK_WIDTHS:
        raise _corrupt("pack", f"bit width {width}")
    packed = np.frombuffer(data, dtype=np.uint8, offset=_HEADER_BYTES)
    per_byte = 8 // width
    if len(packed) != -(-rows // per_byte):
        raise _corrupt("pack", f"{len(packed)} packed bytes for {rows} rows")
    if per_byte > 1:
        packed = np.take(_UNPACK[width], packed, axis=0).reshape(-1)[:rows]
    return (packed.astype(np.int64) + base).astype(dtype)


def _decode_delta(data: bytes, dtype: np.dtype, rows: int) -> np.ndarray:
    first, size = _header("delta", data)
    codes_at = _HEADER_BYTES + size * _HEADER.itemsize
    if rows < 1 or not 0 <= size <= _DELTA_CODES or len(data) != codes_at + rows - 1:
        raise _corrupt("delta", f"{len(data)} bytes for {rows} rows, {size} differences")
    dictionary = np.frombuffer(data, dtype=_HEADER, count=size, offset=_HEADER_BYTES)
    codes = np.frombuffer(data, dtype=np.uint8, offset=codes_at)
    if len(codes) and int(codes.max()) >= size:
        raise _corrupt("delta", f"code past a {size}-entry dictionary")
    if size == 1:
        # One difference throughout (a regularly sampled series): the
        # closed form, wrapping modulo 2**64 exactly as a running sum.
        out = np.arange(rows, dtype=np.int64)
        out *= dictionary[0]
        out += first
    else:
        # One allocation: the differences land behind the first value
        # and a running sum in place turns them into the values.
        out = np.empty(rows, dtype=np.int64)
        out[0] = first
        np.take(dictionary, codes, out=out[1:], mode="clip")
        np.cumsum(out, out=out)
    return out.astype(dtype, copy=False)


def _decode_milli(data: bytes, dtype: np.dtype, rows: int) -> np.ndarray:
    if len(data) != 4 * rows:
        raise _corrupt("milli", f"{len(data)} bytes for {rows} rows")
    codes = np.frombuffer(data, dtype="<i4")
    out = codes / 1000.0
    out[codes == _MILLI_NULL] = np.nan
    return out.astype(dtype, copy=False)


def _decode_mean(data: bytes, dtype: np.dtype, rows: int) -> np.ndarray:
    if len(data) != 4 * rows:
        raise _corrupt("mean", f"{len(data)} bytes for {rows} rows")
    codes = np.frombuffer(data, dtype="<i4")
    divisors = (codes >> 3) & 3
    nulls = divisors == 0
    if (codes[nulls] != _MEAN_NULL).any():
        raise _corrupt("mean", "a NaN code carries a total or a correction")
    with np.errstate(divide="ignore", invalid="ignore"):
        out = (codes >> _MEAN_SHIFT) / 1000.0
        out /= divisors
    bits = out.view(np.int64)
    bits += (codes & 7) - _MEAN_ULPS
    out[nulls] = np.nan
    return out.astype(dtype, copy=False)


_DECODERS = {
    RAW: _decode_raw,
    "rle": _decode_rle,
    "pack": _decode_pack,
    "delta": _decode_delta,
    "milli": _decode_milli,
    "mean": _decode_mean,
}


def decode(data: bytes, encoding: str, dtype, rows: int) -> np.ndarray:
    """The ``rows`` values of one chunk, as a read-only array of ``dtype``."""
    dtype = np.dtype(dtype)
    if not applies(encoding, dtype):
        raise StoreIntegrityError(
            f"chunk encoding {encoding!r} does not apply to {dtype.str}"
        )
    values = _DECODERS[encoding](data, dtype, rows)
    if len(values) != rows:
        raise _corrupt(encoding, f"{len(values)} values for {rows} rows")
    values.setflags(write=False)
    return values


# -- choosing -------------------------------------------------------------------------


def _same_bytes(decoded: np.ndarray, array: np.ndarray) -> bool:
    """Bit equality (a NaN equals only the same NaN, ``-0.0`` not ``0.0``)."""
    if decoded.dtype != array.dtype or len(decoded) != len(array):
        return False
    size = array.dtype.itemsize
    bits = np.dtype(f"<u{size}") if size in (1, 2, 4, 8) else np.dtype(np.uint8)
    return np.array_equal(
        decoded.view(bits), np.ascontiguousarray(array).view(bits)
    )


def _payload(array: np.ndarray, encoding: str, plan: Optional[Plan]) -> Optional[bytes]:
    """The planned payload when its decode reproduces ``array`` exactly."""
    data = plan[1]() if plan is not None else None
    if data is None:
        return None
    try:
        decoded = decode(data, encoding, array.dtype, len(array))
    except StoreIntegrityError:
        return None
    return data if _same_bytes(decoded, array) else None


def encode_as(array: np.ndarray, encoding: str) -> Optional[bytes]:
    """``array``'s bytes in ``encoding``, or None where that encoding
    cannot reproduce them exactly."""
    array = np.ascontiguousarray(array)
    if encoding == RAW:
        return array.tobytes()
    if encoding not in _PLANNERS or not applies(encoding, array.dtype) or not len(array):
        return None
    return _payload(array, encoding, _PLANNERS[encoding](array))


def encode(array: np.ndarray) -> Tuple[str, bytes]:
    """``(encoding, bytes)`` of one chunk: the smallest encoding (earliest
    in :data:`ENCODINGS` on a tie) whose decode reproduces ``array``'s
    raw bytes, else raw.

    Candidates are built smallest first and only until one succeeds: a
    float chunk that ``milli`` cannot take falls through to ``mean``.
    """
    array = np.ascontiguousarray(array)
    raw_size = len(array) * array.dtype.itemsize
    plans: List[Tuple[int, str, Plan]] = []
    for encoding in ENCODINGS[1:]:
        if not len(array) or not applies(encoding, array.dtype):
            continue
        smallest = min([raw_size, *(size for size, _, _ in plans)])
        if encoding == "delta" and _delta_floor(len(array)) >= smallest:
            # A code byte per row cannot beat the size in hand, and the
            # integer builds in hand never fail.
            continue
        plan = _PLANNERS[encoding](array)
        if plan is not None and plan[0] < raw_size:
            plans.append((plan[0], encoding, plan))
    # A stable sort: the earlier encoding wins a tie.
    for _, encoding, plan in sorted(plans, key=lambda entry: entry[0]):
        data = _payload(array, encoding, plan)
        if data is not None:
            return encoding, data
    return RAW, array.tobytes()
