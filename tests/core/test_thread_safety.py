"""Thread-safety regression tests for shared collection state.

Any multi-threaded client — a caller collecting several windows at once,
or saving a checkpoint while marks land — hits :class:`CreditAccount`
and :class:`CollectionCheckpoint` concurrently.
These tests hammer the exact races their locks exist to close: lost
updates in check-then-apply charging, lost high-water advances, and torn
checkpoint files.  Without the locks each of these fails within a few
runs; with them they must pass every time.
"""

import json
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.atlas.credits import CreditAccount
from repro.core.campaign import CollectionCheckpoint
from repro.errors import QuotaExceededError

THREADS = 8
ROUNDS = 250


def _hammer(worker, threads=THREADS):
    """Run ``worker(thread_index)`` on every thread through a barrier so
    they pile onto the shared state at the same instant."""
    barrier = threading.Barrier(threads)

    def runner(index):
        barrier.wait()
        return worker(index)

    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = [pool.submit(runner, index) for index in range(threads)]
        return [future.result() for future in futures]


class TestCreditAccountConcurrency:
    def test_concurrent_charges_conserve_credits(self):
        """No lost updates: N threads x M unit charges debit exactly N*M
        from the balance, the total, and the per-day spend map."""
        account = CreditAccount(key="k", balance=10 ** 9, daily_limit=10 ** 9)
        start = account.balance

        _hammer(lambda _i: [account.charge(1, timestamp=0) for _ in range(ROUNDS)])

        expected = THREADS * ROUNDS
        assert start - account.balance == expected
        assert account.spent_total == expected
        assert account.spent_on_day(0) == expected

    def test_concurrent_overdraw_never_goes_negative(self):
        """The check-then-apply in charge() is atomic: with a balance
        covering only half the attempted charges, exactly balance-many
        succeed and the rest raise — never a negative balance."""
        balance = THREADS * ROUNDS // 2
        account = CreditAccount(key="k", balance=balance, daily_limit=10 ** 9)

        def worker(_index):
            succeeded = 0
            for _ in range(ROUNDS):
                try:
                    account.charge(1, timestamp=0)
                    succeeded += 1
                except QuotaExceededError:
                    pass
            return succeeded

        succeeded = sum(_hammer(worker))
        assert succeeded == balance
        assert account.balance == 0
        assert account.spent_total == balance

    def test_concurrent_daily_limit_is_exact(self):
        """Same atomicity for the daily limit path."""
        limit = THREADS * ROUNDS // 4
        account = CreditAccount(key="k", balance=10 ** 9, daily_limit=limit)

        def worker(_index):
            succeeded = 0
            for _ in range(ROUNDS):
                try:
                    account.charge(1, timestamp=86_400 * 3)
                    succeeded += 1
                except QuotaExceededError:
                    pass
            return succeeded

        succeeded = sum(_hammer(worker))
        assert succeeded == limit
        assert account.spent_on_day(86_400 * 3) == limit


class TestCheckpointConcurrency:
    def test_concurrent_marks_keep_every_high_water(self):
        """Interleaved marks on disjoint measurements lose nothing, and
        racing marks on a shared measurement keep the maximum."""
        checkpoint = CollectionCheckpoint()

        def worker(index):
            for round_index in range(ROUNDS):
                checkpoint.mark(index, round_index)  # private msm
                checkpoint.mark(10_000, index * ROUNDS + round_index)  # shared

        _hammer(worker)

        for index in range(THREADS):
            assert checkpoint.high_water[index] == ROUNDS - 1
        assert checkpoint.high_water[10_000] == THREADS * ROUNDS - 1

    def test_mark_never_regresses(self):
        checkpoint = CollectionCheckpoint()
        checkpoint.mark(1, 100)
        checkpoint.mark(1, 50)
        assert checkpoint.high_water[1] == 100

    def test_save_racing_marks_is_always_valid_json(self, tmp_path):
        """A saver looping against markers: every on-disk state must
        parse and round-trip — the atomic tmp-file-plus-rename write
        never exposes a torn file."""
        checkpoint = CollectionCheckpoint()
        path = tmp_path / "checkpoint.json"
        stop = threading.Event()
        failures = []

        def marker(index):
            for round_index in range(ROUNDS):
                checkpoint.mark(index, round_index)

        def saver():
            while not stop.is_set():
                checkpoint.save(path)
                try:
                    loaded = CollectionCheckpoint.load(path)
                except (json.JSONDecodeError, ValueError) as exc:
                    failures.append(exc)
                    return
                for msm_id, through in loaded.high_water.items():
                    if not (0 <= through < ROUNDS):
                        failures.append((msm_id, through))
                        return

        saver_thread = threading.Thread(target=saver)
        saver_thread.start()
        try:
            _hammer(marker)
        finally:
            stop.set()
            saver_thread.join()

        assert failures == []
        checkpoint.save(path)
        final = CollectionCheckpoint.load(path)
        assert final.high_water == checkpoint.high_water
        # No stray tmp files left behind by the atomic writes.
        assert list(tmp_path.glob("*.tmp")) == []

    def test_concurrent_saves_leave_one_coherent_file(self, tmp_path):
        """Many threads saving the same checkpoint concurrently: the
        pid/tid-unique temp names mean no cross-thread clobbering, and
        the survivor is a complete snapshot."""
        checkpoint = CollectionCheckpoint()
        for index in range(50):
            checkpoint.mark(index, index * 10)
        path = tmp_path / "checkpoint.json"

        _hammer(lambda _i: [checkpoint.save(path) for _ in range(50)])

        loaded = CollectionCheckpoint.load(path)
        assert loaded.high_water == checkpoint.high_water
        assert list(tmp_path.glob("*.tmp")) == []
