"""Correctness checks and operation accounting.

Every check ends as ``ok``, ``FAIL`` or ``skipped``.  A digest check is
skipped on a seed with no pinned digest; any ``FAIL`` makes the run
incorrect and fails the operations it covers.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

#: Sample columns in store schema order.
SAMPLE_COLUMNS = (
    "probe_id", "target_index", "timestamp", "rtt_min", "rtt_avg", "sent", "rcvd",
)

#: ``[lo, hi)`` of ``target_index`` for the pruned window queries: ten
#: of the 101 targets.
TARGET_WINDOW = (45, 55)

#: Digests pinned for the shipped seed, per workload: the decoded sample
#: columns of the committed store (:func:`column_digest`) for the ingest
#: workloads, the report text for ``analyze_store``.  The chaos store
#: equals a clean TINY collection, so its digest is that one's.
PINNED: Dict[str, Dict[int, str]] = {
    "ingest_clean": {7: "ca3c2802d4f4a4ed1be68e8da767828b62d50f20c6a5a94f4edcfeec46f48486"},
    "ingest_chaos": {7: "56d157e270b8ba4911eefa854251cdd1eade11dce534bdefeea81848e67eb7c5"},
    "analyze_store": {7: "648c3653051b2a8d60ffbb080ea147b5e1d0edd073a92f368bff54da00bd5931"},
}


@dataclass
class Check:
    name: str
    status: str  # "ok" | "FAIL" | "skipped"
    detail: str = ""


@dataclass
class Checks:
    """An ordered list of check outcomes."""

    items: List[Check] = field(default_factory=list)

    def add(self, name: str, passed: bool, detail: str = "") -> bool:
        self.items.append(Check(name, "ok" if passed else "FAIL", detail))
        return passed

    def skip(self, name: str, detail: str) -> None:
        self.items.append(Check(name, "skipped", detail))

    def pinned(self, name: str, workload: str, seed: int, digest: str) -> bool:
        """Compare ``digest`` with the one pinned for ``seed``, if any."""
        expected = PINNED.get(workload, {}).get(seed)
        if expected is None:
            self.skip(name, f"no digest pinned for seed {seed} (got {digest})")
            return True
        return self.add(name, digest == expected, f"sha256 {digest}")

    @property
    def passed(self) -> bool:
        return all(check.status != "FAIL" for check in self.items)


@dataclass
class Ledger:
    """Operations attempted and failed, summed over a run's jobs.

    An operation is a measurement window (ingest) or the report or one
    query (analyze).  A failed check fails every operation it covers.
    """

    attempted: int = 0
    failed: int = 0

    def record(self, attempted: int, failed: int) -> None:
        if not 0 <= failed <= attempted:
            raise ValueError(f"failed {failed} outside [0, {attempted}]")
        self.attempted += attempted
        self.failed += failed

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


# -- column digests -------------------------------------------------------------


def canonical(array) -> np.ndarray:
    """A column as little-endian int64 or float64, whatever its encoding."""
    array = np.asarray(array)
    wide = "<f8" if array.dtype.kind == "f" else "<i8"
    return np.ascontiguousarray(array, dtype=wide)


def column_digest(columns: Mapping[str, np.ndarray]) -> str:
    """SHA-256 over the decoded sample columns, in schema order."""
    digest = hashlib.sha256()
    for name in SAMPLE_COLUMNS:
        values = canonical(columns[name])
        digest.update(f"{name}:{values.dtype.str}:{len(values)}\n".encode())
        digest.update(values.tobytes())
    return digest.hexdigest()


def columns_equal(
    left: Mapping[str, np.ndarray], right: Mapping[str, np.ndarray]
) -> Tuple[bool, str]:
    for name in SAMPLE_COLUMNS:
        a, b = canonical(left[name]), canonical(right[name])
        if len(a) != len(b):
            return False, f"{name}: {len(a)} rows vs {len(b)}"
        if a.tobytes() != b.tobytes():
            return False, f"{name}: values differ"
    return True, f"{len(canonical(left['probe_id']))} rows"


# -- report ---------------------------------------------------------------------


def validation_lines(report: str) -> List[str]:
    """The ``[PASS]``/``[FAIL]`` lines of the report's validation section."""
    match = re.search(r"^## Paper-shape validation\n(.*?)(?=^## |\Z)", report, re.M | re.S)
    if match is None:
        return []
    return re.findall(r"^\[(?:PASS|FAIL)\].*$", match.group(1), re.M)


def check_report(checks: Checks, report: str, seed: int) -> bool:
    """The pinned digest, and every paper-shape verdict rendered.

    The verdicts are statistical claims about one synthetic campaign:
    they are all PASS on the pinned seed, where the digest fixes them, but
    a band can miss on another seed (the wireless penalty does on some
    MEDIUM seeds).  There the PASS count is printed, not required.
    """
    from repro.core.validation import PAPER_CHECKS

    digest = hashlib.sha256(report.encode("utf-8")).hexdigest()
    ok = checks.pinned("report_sha256", "analyze_store", seed, digest)
    lines = validation_lines(report)
    passing = [line for line in lines if line.startswith("[PASS]")]
    detail = f"{len(passing)}/{len(lines)} PASS"
    ok &= checks.add("report_validation_rendered", len(lines) == len(PAPER_CHECKS),
                     f"{len(lines)} verdicts")
    if seed in PINNED["analyze_store"]:
        ok &= checks.add("report_validation_all_pass", len(passing) == len(lines), detail)
    else:
        failing = "; ".join(line for line in lines if line.startswith("[FAIL]"))
        checks.skip("report_validation_all_pass",
                    f"{detail}, required on pinned seeds only {failing}".rstrip())
    return ok


# -- queries against numpy --------------------------------------------------------


def ecdf_quantile(sorted_values: np.ndarray, q: float) -> float:
    """Smallest value whose cumulative fraction reaches ``q`` (NaN last)."""
    n = len(sorted_values)
    if q <= 0.0:
        return float(sorted_values[0])
    if q >= 1.0:
        return float(sorted_values[-1])
    fractions = np.arange(1, n + 1, dtype=np.float64) / n
    index = min(int(np.searchsorted(fractions, q, side="left")), n - 1)
    return float(sorted_values[index])


def _same(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


def digest_within(estimate: float, sorted_values: np.ndarray, q: float, eps: float) -> bool:
    """A t-digest estimate lies between the exact quantiles at q -/+ eps."""
    lo = ecdf_quantile(sorted_values, max(0.0, q - eps))
    hi = ecdf_quantile(sorted_values, min(1.0, q + eps))
    return lo <= estimate <= hi


def summary_matches(summary, values: np.ndarray, rank_eps) -> Tuple[bool, str]:
    """Exact count/min/max, close mean, digest quantiles within rank eps."""
    values = np.sort(values)
    n = len(values)
    if summary.count != n:
        return False, f"count {summary.count} != {n}"
    if summary.minimum != values[0] or summary.maximum != values[-1]:
        return False, "min/max differ"
    if not math.isclose(summary.mean, float(np.mean(values)), rel_tol=1e-9):
        return False, f"mean {summary.mean} != {np.mean(values)}"
    eps = rank_eps(n)
    for q, estimate in ((0.25, summary.p25), (0.5, summary.median),
                        (0.75, summary.p75), (0.95, summary.p95)):
        if not digest_within(estimate, values, q, eps):
            return False, f"q{q} estimate {estimate} outside rank eps {eps:.2e}"
    return True, f"{n} values"


def check_queries(
    checks: Checks,
    answers: Mapping[str, object],
    columns: Mapping[str, np.ndarray],
    window: Tuple[int, int],
    rank_eps,
) -> Dict[str, bool]:
    """Check each query answer against numpy; returns pass per query."""
    rtt_min = np.asarray(columns["rtt_min"], dtype=np.float64)
    rtt_avg = np.asarray(columns["rtt_avg"], dtype=np.float64)
    timestamp = np.asarray(columns["timestamp"])
    target = np.asarray(columns["target_index"])
    finite = ~np.isnan(rtt_min)
    in_targets = (target >= TARGET_WINDOW[0]) & (target < TARGET_WINDOW[1])
    outcome: Dict[str, bool] = {}

    def record(name: str, passed: bool, detail: str = "") -> None:
        outcome[name] = checks.add(f"query_{name}", passed, detail)

    for name, answer in answers.items():
        if isinstance(answer, Exception):
            record(name, False, f"raised {type(answer).__name__}: {answer}")
            continue
        if name.startswith("count_rtt_min_le_"):
            bound = float(name.rsplit("_", 1)[1])
            expected = int(np.count_nonzero(rtt_min <= bound))
            record(name, answer == expected, f"{answer} vs {expected}")
        elif name in ("summary_rtt_min", "summary_rtt_min_cached"):
            record(name, *summary_matches(answer, rtt_min[finite], rank_eps))
        elif name == "summary_rtt_avg_le_100":
            record(name, *summary_matches(answer, rtt_avg[rtt_avg <= 100.0], rank_eps))
        elif name == "ecdf_rtt_min":
            ordered = np.sort(rtt_min[finite])
            expected = np.searchsorted(ordered, answer.x, side="right") / len(rtt_min)
            grid_ok = answer.x[0] == ordered[0] and answer.x[-1] == ordered[-1]
            record(name, grid_ok and np.array_equal(answer.p, expected),
                   f"{len(answer.x)} edges")
        elif name == "p95_rtt_avg_exact":
            expected = ecdf_quantile(np.sort(rtt_avg), 0.95)
            record(name, _same(answer, expected), f"{answer} vs {expected}")
        elif name == "group_by_target":
            record(name, *_group_matches(answer, target[finite], rtt_min[finite], rank_eps))
        elif name == "window_count":
            inside = (timestamp >= window[0]) & (timestamp < window[1])
            expected = int(np.count_nonzero(inside))
            record(name, answer == expected, f"{answer} vs {expected}")
        elif name == "window_summary":
            inside = (timestamp >= window[0]) & (timestamp < window[1]) & finite
            record(name, *summary_matches(answer, rtt_min[inside], rank_eps))
        elif name == "target_window_count":
            expected = int(np.count_nonzero(in_targets))
            record(name, answer == expected, f"{answer} vs {expected}")
        elif name == "target_window_summary":
            record(name, *summary_matches(answer, rtt_min[in_targets & finite], rank_eps))
        else:
            record(name, False, "no numpy reference for this query")
    first, again = answers.get("summary_rtt_min"), answers.get("summary_rtt_min_cached")
    if first is not None and again is not None and not isinstance(again, Exception):
        same = not isinstance(first, Exception) and all(
            _same(a, b) for a, b in zip(first.as_dict().values(), again.as_dict().values())
        )
        outcome["summary_rtt_min_cached"] &= checks.add(
            "query_summary_rtt_min_cached_equals_first", same
        )
    return outcome


def _group_matches(frame, keys: np.ndarray, values: np.ndarray, rank_eps) -> Tuple[bool, str]:
    order = np.argsort(keys, kind="stable")
    keys, values = keys[order], values[order]
    groups, starts = np.unique(keys, return_index=True)
    bounds = dict(zip(groups.tolist(), zip(starts, np.append(starts[1:], len(keys)))))
    got = list(frame["target_index"])
    if sorted(got) != sorted(bounds):
        return False, f"{len(got)} groups vs {len(bounds)}"
    for key, median, p95, count in zip(got, frame["median"], frame["p95"], frame["count"]):
        lo, hi = bounds[key]
        group = np.sort(values[lo:hi])
        if count != len(group):
            return False, f"group {key}: count {count} != {len(group)}"
        eps = rank_eps(len(group))
        if not (digest_within(median, group, 0.5, eps) and digest_within(p95, group, 0.95, eps)):
            return False, f"group {key}: quantile outside rank eps"
    return True, f"{len(got)} groups"


def store_checks(
    checks: Checks,
    path,
    workload: str,
    seed: int,
    reference: Optional[Mapping[str, np.ndarray]] = None,
) -> bool:
    """Committed, scrub-intact, fully verified, pinned, equal to reference."""
    from repro.errors import StoreError
    from repro.store import StoreReader
    from repro.store.format import is_store_dir
    from repro.store.scrub import scrub

    committed = path is not None and is_store_dir(path)
    if not checks.add("store_committed", committed, str(path)):
        return False
    ok = checks.add("store_scrub_intact", scrub(path).intact)
    try:
        columns = StoreReader(path, verify="full").columns()
    except StoreError as exc:
        return checks.add("store_verify_full", False, str(exc))
    ok &= checks.add("store_verify_full", True)
    ok &= checks.pinned("columns_sha256", workload, seed, column_digest(columns))
    if reference is not None:
        ok &= checks.add("columns_equal_clean_collection", *columns_equal(columns, reference))
    return ok
