"""Self time per layer from recorded spans.

A span's self time is its duration minus the part of it that its
children cover.  Children on the span's own thread are nested and
sequential.  Children on other threads or in forked processes run while
the span waits, so the time they cover is the span's *wait*, not its
self time.  Folded leaf calls are same-thread work of their own layer;
their time is taken first, and waiting covers only what remains.

For every thread this gives an exact identity::

    sum of its roots' durations
        = sum over its spans of (self + wait + folded leaf time)

Root self time (gaps between layer calls) plus all wait is reported as
``unaccounted``, so layer self times plus ``unaccounted`` equal the
traced wall time, thread by thread.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Tuple

from perfbench.spans import ROOT_LAYER

Interval = Tuple[float, float]


def merge_intervals(intervals: Iterable[Interval]) -> List[Interval]:
    """Sorted, disjoint union of half-open intervals."""
    merged: List[List[float]] = []
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return [(start, end) for start, end in merged]


def covered(merged: Sequence[Interval]) -> float:
    return sum(end - start for start, end in merged)


def overlap(a: Sequence[Interval], b: Sequence[Interval]) -> float:
    """Length of the intersection of two merged interval lists."""
    total = 0.0
    i = j = 0
    while i < len(a) and j < len(b):
        start = max(a[i][0], b[j][0])
        end = min(a[i][1], b[j][1])
        if end > start:
            total += end - start
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return total


@dataclass
class Attribution:
    """Where the traced wall time went."""

    layer_self: Dict[str, float] = field(default_factory=lambda: defaultdict(float))
    #: Root self time plus all wait: time no layer's own work explains.
    unaccounted_s: float = 0.0
    #: The part of ``unaccounted_s`` spent waiting on other threads.
    wait_s: float = 0.0
    #: Sum of root durations over every thread and process.
    wall_s: float = 0.0
    #: Per thread: roots' duration minus everything attributed on it.
    residuals: Dict[int, float] = field(default_factory=dict)
    #: Per ``layer|name``: calls, inclusive seconds, units.
    calls: Dict[str, int] = field(default_factory=lambda: defaultdict(int))
    seconds: Dict[str, float] = field(default_factory=lambda: defaultdict(float))
    units: Dict[str, int] = field(default_factory=lambda: defaultdict(int))
    #: Per ``layer|name`` of recorded spans: each call's duration.
    durations: Dict[str, List[float]] = field(
        default_factory=lambda: defaultdict(list)
    )
    roots: List[Dict[str, object]] = field(default_factory=list)


def attribute(records: Sequence[Dict[str, object]]) -> Attribution:
    """Self time per layer, wait, and the per-thread identity check."""
    known = {record["sid"] for record in records}
    children: Dict[int, List[Dict[str, object]]] = defaultdict(list)
    for record in records:
        if record["parent"] in known:
            children[record["parent"]].append(record)
    out = Attribution()
    walls: Dict[int, float] = defaultdict(float)
    accounted: Dict[int, float] = defaultdict(float)
    for record in records:
        start, end, tkey = record["start"], record["end"], record["tkey"]
        duration = end - start
        kids = children.get(record["sid"], ())
        same = merge_intervals(
            (kid["start"], kid["end"]) for kid in kids if kid["tkey"] == tkey
        )
        cross = merge_intervals(
            (max(kid["start"], start), min(kid["end"], end))
            for kid in kids
            if kid["tkey"] != tkey
        )
        folded = sum(entry[1] for entry in record["fold"].values())
        free = max(0.0, duration - covered(same) - folded)
        wait = min(covered(cross) - overlap(cross, same), free)
        own = free - wait
        out.wait_s += wait
        out.unaccounted_s += wait
        if record["layer"] == ROOT_LAYER:
            out.unaccounted_s += own
            out.wall_s += duration
            walls[tkey] += duration
            out.roots.append(record)
        else:
            out.layer_self[record["layer"]] += own
            key = f"{record['layer']}|{record['name']}"
            out.calls[key] += 1
            out.seconds[key] += duration
            out.units[key] += record["units"]
            out.durations[key].append(duration)
        for key, (calls, seconds, units) in record["fold"].items():
            out.layer_self[key.split("|", 1)[0]] += seconds
            out.calls[key] += calls
            out.seconds[key] += seconds
            out.units[key] += units
        accounted[tkey] += own + wait + folded
    for tkey in set(walls) | set(accounted):
        out.residuals[tkey] = walls[tkey] - accounted[tkey]
    return out
