"""The filesystem fault-injection seam itself.

Before the crash matrix can mean anything, the seam's model has to be
right: unsynced data dies with the power, un-dirsynced renames roll
back, torn writes leave a durable prefix, crash-point replay hits
exactly the enumerated site, and seeded profiles replay their fault
schedule byte for byte.  This suite also pins the durability policy of
the two small-file writers (manifest, CSV) whose missing parent-dirsync
was an observable bug under this model.
"""

from __future__ import annotations

import errno

import numpy as np
import pytest

from repro.errors import ReproError, SimulatedCrashError, StoreError
from repro.store.fsim import (
    CRASH_KINDS_BY_OP,
    FSIM_PROFILES,
    CountingFS,
    CrashPoint,
    FaultyFS,
    FsFaultProfile,
    RealFS,
    crash_points,
    ensure_fs,
    get_fs_profile,
)

from tests.store.conftest import synthetic_columns


class TestSeamBasics:
    def test_real_fs_round_trip(self, tmp_path):
        fs = RealFS()
        target = tmp_path / "data.bin"
        fs.write_bytes(target, b"payload", point="t")
        fs.fsync_path(target, point="t")
        fs.replace(target, tmp_path / "final.bin", point="t")
        fs.fsync_dir(tmp_path, point="t")
        assert (tmp_path / "final.bin").read_bytes() == b"payload"
        fs.unlink(tmp_path / "final.bin", point="t")
        assert not (tmp_path / "final.bin").exists()

    def test_ensure_fs_normalizes_none(self):
        assert ensure_fs(None).name == "real"
        counting = CountingFS()
        assert ensure_fs(counting) is counting

    def test_counting_fs_records_ordered_sites(self, tmp_path):
        fs = CountingFS()
        fs.write_bytes(tmp_path / "a.tmp", b"x", point="a")
        fs.fsync_path(tmp_path / "a.tmp", point="a")
        fs.replace(tmp_path / "a.tmp", tmp_path / "a", point="a")
        fs.fsync_dir(tmp_path, point="a")
        assert [(s.step, s.op, s.point) for s in fs.sites] == [
            (0, "write", "a"),
            (1, "fsync", "a"),
            (2, "rename", "a"),
            (3, "dirsync", "a"),
        ]

    def test_crash_points_expand_kinds_per_op(self, tmp_path):
        fs = CountingFS()
        fs.write_bytes(tmp_path / "a.tmp", b"x", point="a")
        fs.replace(tmp_path / "a.tmp", tmp_path / "a", point="a")
        points = crash_points(fs.sites)
        assert [p.kind for p in points if p.op == "write"] == list(
            CRASH_KINDS_BY_OP["write"]
        )
        assert [p.kind for p in points if p.op == "rename"] == list(
            CRASH_KINDS_BY_OP["rename"]
        )

    def test_unknown_profile_rejected(self):
        with pytest.raises(ReproError, match="unknown fsim profile"):
            get_fs_profile("raid-fire")
        assert get_fs_profile("gremlin") is FSIM_PROFILES["gremlin"]
        custom = FsFaultProfile(name="mine", enospc=1.0)
        assert get_fs_profile(custom) is custom


class TestPowerLossModel:
    def test_unsynced_write_dies_with_the_power(self, tmp_path):
        fs = FaultyFS()
        fs.write_bytes(tmp_path / "cached", b"never flushed", point="t")
        fs.power_loss()
        assert not (tmp_path / "cached").exists()

    def test_fsynced_write_survives(self, tmp_path):
        fs = FaultyFS()
        fs.write_bytes(tmp_path / "flushed", b"durable", point="t")
        fs.fsync_path(tmp_path / "flushed", point="t")
        fs.power_loss()
        assert (tmp_path / "flushed").read_bytes() == b"durable"

    def test_rename_without_dirsync_rolls_back(self, tmp_path):
        target = tmp_path / "config"
        target.write_bytes(b"old generation")
        fs = FaultyFS()
        fs.write_bytes(tmp_path / "config.tmp", b"new generation", point="t")
        fs.fsync_path(tmp_path / "config.tmp", point="t")
        fs.replace(tmp_path / "config.tmp", target, point="t")
        assert target.read_bytes() == b"new generation"  # visible pre-crash
        fs.power_loss()
        assert target.read_bytes() == b"old generation"

    def test_rename_onto_nothing_rolls_back_to_absent(self, tmp_path):
        fs = FaultyFS()
        fs.write_bytes(tmp_path / "fresh.tmp", b"x", point="t")
        fs.fsync_path(tmp_path / "fresh.tmp", point="t")
        fs.replace(tmp_path / "fresh.tmp", tmp_path / "fresh", point="t")
        fs.power_loss()
        assert not (tmp_path / "fresh").exists()

    def test_dirsync_makes_the_rename_durable(self, tmp_path):
        fs = FaultyFS()
        fs.write_bytes(tmp_path / "kept.tmp", b"x", point="t")
        fs.fsync_path(tmp_path / "kept.tmp", point="t")
        fs.replace(tmp_path / "kept.tmp", tmp_path / "kept", point="t")
        fs.fsync_dir(tmp_path, point="t")
        fs.power_loss()
        assert (tmp_path / "kept").read_bytes() == b"x"

    def test_power_loss_is_idempotent(self, tmp_path):
        fs = FaultyFS()
        fs.write_bytes(tmp_path / "gone", b"x", point="t")
        fs.power_loss()
        fs.power_loss()
        assert not (tmp_path / "gone").exists()


class TestCrashPointReplay:
    def test_crashes_at_exactly_the_enumerated_step(self, tmp_path):
        point = CrashPoint(step=1, op="fsync", point="t", kind="crash_before_fsync")
        fs = FaultyFS.at(point)
        fs.write_bytes(tmp_path / "a.tmp", b"x", point="t")  # step 0: fine
        with pytest.raises(SimulatedCrashError) as excinfo:
            fs.fsync_path(tmp_path / "a.tmp", point="t")  # step 1: boom
        assert excinfo.value.kind == "crash_before_fsync"
        assert excinfo.value.step == 1
        assert fs.crashed
        # The crash applied the power-loss model: the unsynced temp died.
        assert not (tmp_path / "a.tmp").exists()

    def test_torn_write_leaves_a_durable_prefix(self, tmp_path):
        point = CrashPoint(step=0, op="write", point="t", kind="torn_write")
        fs = FaultyFS.at(point)
        with pytest.raises(SimulatedCrashError):
            fs.write_bytes(tmp_path / "torn", b"0123456789", point="t")
        assert (tmp_path / "torn").read_bytes() == b"01234"

    def test_replay_divergence_is_an_error_not_a_crash(self, tmp_path):
        point = CrashPoint(step=0, op="rename", point="t", kind="crash_before_rename")
        fs = FaultyFS.at(point)
        with pytest.raises(ReproError, match="diverged"):
            fs.write_bytes(tmp_path / "a", b"x", point="t")


class TestErrorPathFaults:
    def test_enospc_raises_oserror(self, tmp_path):
        fs = FaultyFS(profile=FsFaultProfile(name="t", enospc=1.0))
        with pytest.raises(OSError) as excinfo:
            fs.write_bytes(tmp_path / "full", b"x", point="t")
        assert excinfo.value.errno == errno.ENOSPC
        assert fs.stats() == {"enospc": 1}

    def test_short_write_leaves_half_and_raises(self, tmp_path):
        fs = FaultyFS(profile=FsFaultProfile(name="t", short_write=1.0))
        with pytest.raises(OSError) as excinfo:
            fs.write_bytes(tmp_path / "short", b"0123456789", point="t")
        assert excinfo.value.errno == errno.EIO
        assert (tmp_path / "short").read_bytes() == b"01234"

    def test_lost_fsync_silently_keeps_data_volatile(self, tmp_path):
        fs = FaultyFS(profile=FsFaultProfile(name="t", lost_fsync=1.0))
        fs.write_bytes(tmp_path / "volatile", b"x", point="t")
        fs.fsync_path(tmp_path / "volatile", point="t")  # no error, no flush
        fs.power_loss()
        assert not (tmp_path / "volatile").exists()
        assert fs.stats()["lost_fsync"] == 1

    def test_seeded_profile_replays_its_schedule(self, tmp_path):
        def soak(seed, root):
            fs = FaultyFS(seed=seed, profile="gremlin")
            outcomes = []
            for index in range(200):
                try:
                    fs.write_bytes(root / f"f{index}", b"payload", point="soak")
                    outcomes.append("ok")
                except OSError as exc:
                    outcomes.append(errno.errorcode[exc.errno])
                except SimulatedCrashError as exc:
                    outcomes.append(exc.kind)
            return outcomes, fs.stats()

        for name in ("a", "b", "c"):
            (tmp_path / name).mkdir()
        left = soak(42, tmp_path / "a")
        right = soak(42, tmp_path / "b")
        assert left == right
        assert soak(43, tmp_path / "c")[0] != left[0]  # the seed matters
        assert any(o != "ok" for o in left[0])  # gremlin actually fires


class _RenameFails(RealFS):
    """The real disk, except that every rename fails."""

    def replace(self, src, dst, point=""):
        raise OSError(errno.EIO, "injected rename failure")


class TestDurabilityRegressions:
    """The two small-file writers must survive a power cut post-commit."""

    def test_manifest_save_survives_power_loss(self, tmp_path):
        from repro.store import StoreReader, StoreWriter

        fs = FaultyFS()
        writer = StoreWriter(
            tmp_path / "store", rows_per_shard=16, fs=fs, durable=True
        )
        writer.append_columns(synthetic_columns(24, seed=3))
        writer.finalize()
        fs.power_loss()
        # Without the parent-dirsync after the manifest rename, the
        # commit record would roll back here and the store would vanish.
        reader = StoreReader(tmp_path / "store", verify="full")
        assert reader.manifest.rows == 24

    def test_write_csv_survives_power_loss(self, tmp_path):
        from repro.frame import Frame
        from repro.frame.io import read_csv, write_csv

        frame = Frame({"x": np.arange(5), "y": np.arange(5) * 2.5})
        fs = FaultyFS()
        write_csv(frame, tmp_path / "out.csv", fs=fs)
        fs.power_loss()
        back = read_csv(tmp_path / "out.csv")
        assert np.array_equal(back["x"].astype(int), frame["x"])

    def test_checkpoint_enospc_is_one_line_store_error(self, tmp_path):
        from repro.core.campaign import CollectionCheckpoint

        checkpoint = CollectionCheckpoint(high_water={100001: 1_500_000_000})
        fs = FaultyFS(profile=FsFaultProfile(name="t", enospc=1.0))
        with pytest.raises(StoreError, match="checkpoint save failed") as excinfo:
            checkpoint.save(tmp_path / "checkpoint.json", fs=fs)
        assert "No space left" in str(excinfo.value)
        assert str(tmp_path / "checkpoint.json") in str(excinfo.value)
        # The rename never ran, so no partial file landed at the target.
        assert not (tmp_path / "checkpoint.json").exists()

    def test_checkpoint_failed_rename_leaves_no_temp_file(self, tmp_path):
        from repro.core.campaign import CollectionCheckpoint

        checkpoint = CollectionCheckpoint(high_water={100001: 1_500_000_000})
        with pytest.raises(StoreError, match="checkpoint save failed"):
            checkpoint.save(tmp_path / "checkpoint.json", fs=_RenameFails())
        assert list(tmp_path.iterdir()) == []

    def test_write_csv_failed_rename_leaves_no_temp_file(self, tmp_path):
        from repro.frame import Frame
        from repro.frame.io import write_csv

        frame = Frame({"x": np.arange(5)})
        with pytest.raises(OSError, match="injected rename"):
            write_csv(frame, tmp_path / "out.csv", fs=_RenameFails())
        assert list(tmp_path.iterdir()) == []

    def test_writer_enospc_is_one_line_store_error(self, tmp_path):
        from repro.store import StoreWriter

        fs = FaultyFS(profile=FsFaultProfile(name="t", enospc=1.0))
        writer = StoreWriter(tmp_path / "store", rows_per_shard=8, fs=fs)
        with pytest.raises(StoreError, match="chunk write failed") as excinfo:
            writer.append_columns(synthetic_columns(16, seed=5))
        assert "repro store gc" in str(excinfo.value)
