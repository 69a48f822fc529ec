"""Operation accounting and the numpy-side checks."""

import numpy as np
import pytest

from perfbench.checks import (
    Checks,
    Ledger,
    check_queries,
    check_report,
    column_digest,
    ecdf_quantile,
    validation_lines,
)
from perfbench.workloads import Job, Workload, check_ingest


def test_ledger_sums_jobs_and_rejects_impossible_counts():
    ledger = Ledger()
    ledger.record(101, 0)
    ledger.record(12, 3)
    assert (ledger.attempted, ledger.failed) == (113, 3)
    assert ledger.failed_share == pytest.approx(3 / 113)
    with pytest.raises(ValueError):
        ledger.record(5, 6)
    assert Ledger().failed_share == 0.0


def test_failed_ingest_check_fails_every_window():
    checks = Checks()
    job = Job(wall_s=1.0, cpu_s=1.0, samples=0, operations=101, store=None)
    failed = check_ingest(job, Workload("w", "ingest", "tiny"), 7, checks)
    assert failed == 101
    assert not checks.passed
    assert [c.name for c in checks.items] == ["store_committed"]


def test_failed_job_fails_every_window():
    checks = Checks()
    job = Job(wall_s=1.0, cpu_s=1.0, samples=0, operations=101, error="boom")
    assert check_ingest(job, Workload("w", "ingest", "tiny"), 7, checks) == 101
    assert checks.items[0].status == "FAIL"


def test_pinned_digest_is_skipped_on_other_seeds(monkeypatch):
    from perfbench import checks as module

    monkeypatch.setitem(module.PINNED, "ingest_clean", {7: "abc"})
    checks = Checks()
    assert checks.pinned("columns_sha256", "ingest_clean", 8, "zzz")
    assert checks.items[-1].status == "skipped"
    assert not checks.pinned("columns_sha256", "ingest_clean", 7, "zzz")
    assert checks.pinned("columns_sha256", "ingest_clean", 7, "abc")
    assert [c.status for c in checks.items] == ["skipped", "FAIL", "ok"]
    assert not checks.passed


def test_column_digest_ignores_the_encoding_width():
    narrow = {name: np.arange(5, dtype="<i4") for name in
              ("probe_id", "target_index", "timestamp", "sent", "rcvd")}
    narrow.update(rtt_min=np.array([1.5, np.nan, 2, 3, 4]), rtt_avg=np.linspace(0, 1, 5))
    wide = {name: (a.astype("<i8") if a.dtype.kind == "i" else a) for name, a in narrow.items()}
    assert column_digest(narrow) == column_digest(wide)
    changed = dict(wide, rcvd=np.array([0, 1, 2, 3, 5]))
    assert column_digest(changed) != column_digest(wide)


def test_ecdf_quantile_is_the_smallest_value_reaching_q():
    values = np.array([1.0, 2.0, 3.0, 4.0, np.nan])
    assert ecdf_quantile(values, 0.0) == 1.0
    assert ecdf_quantile(values, 0.4) == 2.0
    assert ecdf_quantile(values, 0.41) == 3.0
    assert np.isnan(ecdf_quantile(values, 0.95))


def test_validation_lines_read_only_their_section():
    report = ("## Headline\n\n[FAIL] not this one\n"
              "## Paper-shape validation\n\n```\n[PASS] a: x\n[FAIL] b: y\n"
              "1/2 paper-shape checks passed\n```\n\n## Figure 1\n\n[PASS] nor this\n")
    assert validation_lines(report) == ["[PASS] a: x", "[FAIL] b: y"]


def test_a_wrong_query_answer_fails_only_that_query():
    rng = np.random.default_rng(0)
    columns = {
        "rtt_min": np.where(rng.random(1000) < 0.05, np.nan, rng.uniform(1, 300, 1000)),
        "rtt_avg": rng.uniform(1, 300, 1000),
        "timestamp": np.arange(1000),
        "target_index": rng.integers(0, 5, 1000),
    }
    truth = int(np.count_nonzero(columns["rtt_min"] <= 20.0))
    answers = {
        "count_rtt_min_le_20": truth,
        "count_rtt_min_le_100": -1,
        "window_count": RuntimeError("scan failed"),
    }
    checks = Checks()
    outcome = check_queries(checks, answers, columns, (0, 100), lambda n: 0.01)
    assert outcome == {"count_rtt_min_le_20": True, "count_rtt_min_le_100": False,
                       "window_count": False}
    assert sum(not ok for ok in outcome.values()) == 2
    assert not checks.passed


def _report(*verdicts):
    return ("## Paper-shape validation\n\n```\n" + "\n".join(verdicts)
            + "\n```\n\n## Figure 1\n")


def test_validation_must_all_pass_on_the_pinned_seed_only():
    from repro.core.validation import PAPER_CHECKS

    verdicts = ["[PASS] check: x"] * (len(PAPER_CHECKS) - 1) + ["[FAIL] wireless: y"]
    pinned, other = Checks(), Checks()
    assert not check_report(pinned, _report(*verdicts), 7)
    assert check_report(other, _report(*verdicts), 8)
    statuses = {c.name: c.status for c in other.items}
    assert statuses == {"report_sha256": "skipped", "report_validation_rendered": "ok",
                        "report_validation_all_pass": "skipped"}
    assert "[FAIL] wireless" in other.items[-1].detail
    missing = Checks()
    assert not check_report(missing, _report(*verdicts[:-1]), 8)
