"""Frame serialization: CSV and JSON round-trips.

The paper publishes its raw dataset for public use; :mod:`repro.core.dataset`
uses these helpers to export the synthetic equivalent in the same spirit.

CSV writes are **atomic** (private temp file + rename, the same
discipline as checkpoint saves) so a crash mid-export can never leave a
truncated file that a later read half-parses.  With ``dtypes=True`` the
CSV carries a leading ``#dtypes`` annotation row, and
:func:`from_csv_text` uses it to rebuild every column at its exact
original dtype — integer columns (probe ids, timestamps) come back as
the same integer type they were written from instead of being re-inferred
cell by cell.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path
from typing import List, Union

import numpy as np

from repro.errors import FrameError
from repro.frame.frame import Frame

PathLike = Union[str, Path]

#: First cell of the optional dtype-annotation row.
DTYPE_MARKER = "#dtypes"


def _coerce(text: str):
    """Best-effort typed parse of a CSV cell: int, then float, then str."""
    if text == "":
        return ""
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def _dtype_token(values) -> str:
    """Portable dtype name for one column: ``str``, ``bool``, or a numpy
    scalar dtype name like ``int32`` / ``float64``."""
    kind = np.asarray(values).dtype.kind
    if kind in ("U", "S", "O"):
        return "str"
    if kind == "b":
        return "bool"
    return np.asarray(values).dtype.name


def _cast_cells(cells: List[str], token: str):
    """Rebuild one column's cells at its annotated dtype."""
    if token == "str":
        return list(cells)
    if token == "bool":
        return np.asarray([cell == "True" for cell in cells], dtype=bool)
    try:
        dtype = np.dtype(token)
    except TypeError as exc:
        raise FrameError(f"unknown dtype annotation {token!r}") from exc
    if dtype.kind in ("i", "u"):
        return np.asarray([int(cell) for cell in cells], dtype=dtype)
    if dtype.kind == "f":
        return np.asarray([float(cell) for cell in cells], dtype=dtype)
    raise FrameError(f"unsupported dtype annotation {token!r}")


def to_csv_text(frame: Frame, dtypes: bool = False) -> str:
    """Serialize a frame to CSV text (header + rows).

    ``dtypes=True`` prepends a ``#dtypes`` row mapping each column to its
    storage dtype, which :func:`from_csv_text` consumes for a
    dtype-exact round trip (older readers see it as a comment-ish row
    and must be tolerant; ours strips it).
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    if dtypes:
        writer.writerow(
            [DTYPE_MARKER]
            + [f"{name}={_dtype_token(frame[name])}" for name in frame.columns]
        )
    writer.writerow(frame.columns)
    for row in frame.iter_rows():
        writer.writerow([row[name] for name in frame.columns])
    return buffer.getvalue()


def from_csv_text(text: str) -> Frame:
    """Parse CSV text produced by :func:`to_csv_text`.

    A leading ``#dtypes`` annotation row, when present, drives an exact
    per-column dtype rebuild; without one, numeric-looking cells are
    coerced to int/float cell by cell (the legacy behavior, which can
    widen dtypes and mistake numeric-looking strings).
    """
    reader = csv.reader(io.StringIO(text))
    rows = list(reader)
    if not rows:
        raise FrameError("cannot parse empty CSV")
    annotations = None
    if rows[0] and rows[0][0] == DTYPE_MARKER:
        annotations = {}
        for cell in rows[0][1:]:
            name, _, token = cell.partition("=")
            if not token:
                raise FrameError(f"malformed dtype annotation {cell!r}")
            annotations[name] = token
        rows = rows[1:]
        if not rows:
            raise FrameError("dtype-annotated CSV is missing its header row")
    header = rows[0]
    body = rows[1:]
    if annotations is None:
        records = [
            {name: _coerce(cell) for name, cell in zip(header, row)} for row in body
        ]
        return Frame.from_records(records, columns=header)
    missing = [name for name in header if name not in annotations]
    if missing:
        raise FrameError(f"dtype annotations missing columns {missing}")
    columns = {}
    for position, name in enumerate(header):
        cells = [row[position] for row in body]
        columns[name] = _cast_cells(cells, annotations[name])
    return Frame(columns)


def write_csv(
    frame: Frame, path: PathLike, dtypes: bool = False, fs=None
) -> None:
    """Durably write ``frame`` as CSV (temp file + fsync + rename, then a
    directory fsync) through :func:`repro.store.format.atomic_write_bytes`;
    a failed write leaves no temp file."""
    # Imported here: a bare ``import repro.frame`` stays free of the store.
    from repro.store.format import atomic_write_bytes

    data = to_csv_text(frame, dtypes=dtypes).encode("utf-8")
    atomic_write_bytes(Path(path), data, fs=fs, fsync=True)


def read_csv(path: PathLike) -> Frame:
    return from_csv_text(Path(path).read_text(encoding="utf-8"))


def to_json_text(frame: Frame, indent: int = None) -> str:
    """Serialize to a JSON object of column arrays (compact and typed)."""
    payload = {}
    for name in frame.columns:
        values = frame[name]
        payload[name] = [_jsonable(value) for value in values]
    return json.dumps(payload, indent=indent)


def _jsonable(value):
    """Convert numpy scalars to plain Python for json.dumps."""
    if hasattr(value, "item"):
        return value.item()
    return value


def from_json_text(text: str) -> Frame:
    payload = json.loads(text)
    if not isinstance(payload, dict):
        raise FrameError("frame JSON must be an object of column arrays")
    return Frame(payload)


def write_json(frame: Frame, path: PathLike, indent: int = None) -> None:
    Path(path).write_text(to_json_text(frame, indent=indent), encoding="utf-8")


def read_json(path: PathLike) -> Frame:
    return from_json_text(Path(path).read_text(encoding="utf-8"))
