"""The checkpoint journal's durability and self-healing contracts."""

import json
import pickle
import socket
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.atomicio import atomic_write_bytes, atomic_write_text
from repro.core.errors import CheckpointError
from repro.perf import (
    JournalEntry,
    JournalLock,
    PointResult,
    ShardedCheckpoint,
    SweepCheckpoint,
    checkpoint_directory,
    merge_journal_loads,
    spec_digest,
)
from repro.perf.journal import CHECKPOINT_DIR_ENV, DEFAULT_CHECKPOINT_DIR, JOURNAL_FORMAT


def _ok(index, value):
    return PointResult(index=index, point=index, value=value, elapsed_s=0.25)


def _failed(index):
    return PointResult(
        index=index,
        point=index,
        value=None,
        elapsed_s=0.1,
        status="failed",
        attempts=3,
        error="ValueError('boom')",
    )


class TestSpecDigest:
    def test_digest_is_stable_and_spec_sensitive(self):
        assert spec_digest("s", {"n": 16}) == spec_digest("s", {"n": 16})
        assert spec_digest("s", {"n": 16}) != spec_digest("s", {"n": 17})
        assert spec_digest("s", {"n": 16}) != spec_digest("t", {"n": 16})

    def test_digest_ignores_key_order(self):
        assert spec_digest("s", {"a": 1, "b": 2}) == spec_digest("s", {"b": 2, "a": 1})


class TestCheckpointDirectory:
    def test_default_directory(self, monkeypatch):
        monkeypatch.delenv(CHECKPOINT_DIR_ENV, raising=False)
        assert str(checkpoint_directory()) == DEFAULT_CHECKPOINT_DIR

    def test_environment_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv(CHECKPOINT_DIR_ENV, str(tmp_path / "elsewhere"))
        assert checkpoint_directory() == tmp_path / "elsewhere"


class TestSweepCheckpoint:
    def test_round_trip_restores_only_ok_entries(self, tmp_path):
        spec = {"n": 4}
        with SweepCheckpoint.open("unit", spec, directory=tmp_path) as checkpoint:
            checkpoint.record(_ok(0, {"area": 12.5}))
            checkpoint.record(_failed(1))
            checkpoint.record(_ok(2, (1, 2.5, "three")))
        reopened = SweepCheckpoint.open("unit", spec, directory=tmp_path)
        done = reopened.load()
        reopened.close()
        assert set(done) == {0, 2}
        assert done[0].value == {"area": 12.5}
        assert done[2].value == (1, 2.5, "three")
        assert isinstance(done[0], JournalEntry)
        assert reopened.completed == 2

    def test_skipped_outcomes_are_not_rejournalled(self, tmp_path):
        with SweepCheckpoint.open("unit", {}, directory=tmp_path) as checkpoint:
            checkpoint.record(_ok(0, 1))
            restored = PointResult(
                index=0, point=0, value=1, elapsed_s=0.0, status="skipped"
            )
            checkpoint.record(restored)
            lines = checkpoint.path.read_text().splitlines()
        assert len(lines) == 2  # header + the one real record

    def test_record_on_a_closed_checkpoint_raises(self, tmp_path):
        checkpoint = SweepCheckpoint.open("unit", {}, directory=tmp_path)
        checkpoint.close()
        checkpoint.close()  # idempotent
        with pytest.raises(ValueError, match="not open"):
            checkpoint.record(_ok(0, 1))

    def test_truncated_tail_is_dropped(self, tmp_path):
        spec = {"n": 4}
        with SweepCheckpoint.open("unit", spec, directory=tmp_path) as checkpoint:
            checkpoint.record(_ok(0, "zero"))
            checkpoint.record(_ok(1, "one"))
            path = checkpoint.path
        # Simulate a crash mid-append: half a JSON record at the tail.
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"index": 2, "status": "o')
        reopened = SweepCheckpoint.open("unit", spec, directory=tmp_path)
        done = reopened.load()
        reopened.close()
        assert set(done) == {0, 1}

    def test_header_mismatch_starts_a_fresh_journal(self, tmp_path):
        with SweepCheckpoint.open("unit", {"n": 1}, directory=tmp_path) as checkpoint:
            checkpoint.record(_ok(0, 1))
            path = checkpoint.path
        # Corrupt the header wholesale; reopening must not trust the file.
        content = path.read_text().splitlines()
        content[0] = json.dumps({"format": "something-else/9"})
        path.write_text("\n".join(content) + "\n")
        reopened = SweepCheckpoint.open("unit", {"n": 1}, directory=tmp_path)
        try:
            assert reopened.load() == {}
            header = json.loads(reopened.path.read_text().splitlines()[0])
            assert header["format"] == JOURNAL_FORMAT
        finally:
            reopened.close()

    def test_stale_pickle_truncates_from_there(self, tmp_path):
        spec = {"n": 1}
        with SweepCheckpoint.open("unit", spec, directory=tmp_path) as checkpoint:
            checkpoint.record(_ok(0, 1))
            path = checkpoint.path
        record = {
            "index": 1,
            "status": "ok",
            "attempts": 1,
            "elapsed_s": 0.1,
            "error": None,
            "value": "bm90LXBpY2tsZQ==",  # valid base64, not a pickle
        }
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
        reopened = SweepCheckpoint.open("unit", spec, directory=tmp_path)
        done = reopened.load()
        reopened.close()
        assert set(done) == {0}

    def test_unknown_status_is_rejected(self, tmp_path):
        from repro.core.durable import encode_record

        spec = {"n": 1}
        with SweepCheckpoint.open("unit", spec, directory=tmp_path) as checkpoint:
            checkpoint.record(_ok(0, 1))
            path = checkpoint.path
        # Checksummed and well-formed JSON, but not a sweep outcome.
        with open(path, "ab") as handle:
            handle.write(encode_record({"index": 1, "status": "maybe"}))
            handle.write(encode_record({"index": "zero", "status": "ok"}))
        reopened = SweepCheckpoint.open("unit", spec, directory=tmp_path)
        done = reopened.load()
        reopened.close()
        assert set(done) == {0}


def _corrupt_record(path, index, mutate):
    """Rewrite the journal record for ``index`` through ``mutate``.

    The mutated record is re-serialised as valid JSON with its *original*
    ``crc`` untouched, so only the checksum — not the JSON parser, not the
    pickle decoder — can tell the record went bad.
    """
    lines = path.read_text(encoding="utf-8").splitlines()
    for position, line in enumerate(lines[1:], start=1):
        record = json.loads(line)
        if isinstance(record, dict) and record.get("index") == index:
            mutate(record)
            lines[position] = json.dumps(record, sort_keys=True)
            break
    else:  # pragma: no cover - would mean the test setup is wrong
        raise AssertionError(f"no record for index {index} in {path}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestRecordChecksums:
    """Per-record CRCs turn silent bit rot into a drop-and-rerun.

    The log format itself (CRC, legacy records, torn tails) is pinned once
    in ``tests/core/test_durable.py``; this is the sweep-level consequence.
    """

    def test_resume_recomputes_only_the_corrupted_point(self, tmp_path):
        from repro.perf import sweep

        spec = {"kind": "crc-resume"}
        with SweepCheckpoint.open("unit", spec, directory=tmp_path) as checkpoint:
            sweep(lambda x: x * 10, range(4), checkpoint=checkpoint)
            path = checkpoint.path
        _corrupt_record(path, 2, lambda record: record.update(elapsed_s=1e9))
        recomputed = []

        def traced(x):
            recomputed.append(x)
            return x * 10

        with SweepCheckpoint.open("unit", spec, directory=tmp_path) as checkpoint:
            result = sweep(traced, range(4), checkpoint=checkpoint)
        assert list(result.values) == [0, 10, 20, 30]
        assert recomputed == [2]


class TestAtomicWrites:
    def test_atomic_write_text_replaces_content(self, tmp_path):
        target = tmp_path / "artifact.txt"
        atomic_write_text(target, "first")
        atomic_write_text(target, "second")
        assert target.read_text() == "second"
        # No stray temp files left behind.
        assert [p.name for p in tmp_path.iterdir()] == ["artifact.txt"]

    def test_atomic_write_bytes_creates_parents_file(self, tmp_path):
        target = tmp_path / "nested" / "artifact.bin"
        target.parent.mkdir()
        written = atomic_write_bytes(target, b"\x00\x01")
        assert written == target
        assert target.read_bytes() == b"\x00\x01"

    def test_export_write_csv_is_atomic_and_crlf(self, tmp_path):
        from repro.reporting.export import rows_to_csv, write_csv

        target = tmp_path / "table.csv"
        write_csv(target, ("a", "b"), [(1, 2), (3, 4)])
        data = target.read_bytes()
        assert data == rows_to_csv(("a", "b"), [(1, 2), (3, 4)]).encode()
        assert b"\r\n" in data


def _deterministic(index):
    """The outcome for ``index``, identical wherever it is computed.

    Point functions are pure, so two records for the same index — a
    stolen lease finishing twice, a re-queued point landing on another
    worker — are byte-equal. Index 5 mod 7 fails, exercising the rule
    that only ``ok`` records count as progress.
    """
    if index % 7 == 5:
        return PointResult(
            index=index, point=index, value=None, elapsed_s=0.25,
            status="failed", attempts=2, error="ValueError('boom')",
        )
    return PointResult(index=index, point=index, value=index * index, elapsed_s=0.25)


class TestShardedCheckpoint:
    def test_records_route_to_the_home_shard(self, tmp_path):
        with ShardedCheckpoint.open("route", {}, shards=3, directory=tmp_path) as cp:
            for index in range(7):
                cp.record(_deterministic(index))
            for shard, path in enumerate(cp.paths):
                assert f"route.s{shard}of3" in path.name
                recorded = [
                    json.loads(line)["index"]
                    for line in path.read_text().splitlines()[1:]
                ]
                assert recorded == [i for i in range(7) if i % 3 == shard]

    def test_load_and_completed_span_all_shards(self, tmp_path):
        spec = {"n": 9}
        with ShardedCheckpoint.open("span", spec, shards=4, directory=tmp_path) as cp:
            for index in range(9):
                cp.record(_deterministic(index))
        with ShardedCheckpoint.open("span", spec, shards=4, directory=tmp_path) as cp:
            done = cp.load()
            assert cp.completed == 8  # index 5 failed, so it is not progress
        assert set(done) == set(range(9)) - {5}
        assert done[3].value == 9

    def test_invalid_shard_count_is_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="shards"):
            ShardedCheckpoint.open("bad", {}, shards=0, directory=tmp_path)

    def test_changed_shard_count_ignores_the_old_shards(self, tmp_path):
        spec = {"n": 4}
        with ShardedCheckpoint.open("re", spec, shards=2, directory=tmp_path) as cp:
            cp.record(_deterministic(0))
        with ShardedCheckpoint.open("re", spec, shards=4, directory=tmp_path) as cp:
            # Different shard names: old progress is invisible, never mis-merged.
            assert cp.load() == {}

    def test_partial_open_failure_releases_earlier_shards(self, tmp_path):
        spec = {"n": 2}
        # Hold the lock on what will be shard 1 of 2; opening the set
        # must fail on that shard and release shard 0 on the way out.
        blocker = SweepCheckpoint.open("part.s1of2", spec, directory=tmp_path)
        try:
            with pytest.raises(CheckpointError):
                ShardedCheckpoint.open("part", spec, shards=2, directory=tmp_path)
        finally:
            blocker.close()
        # Shard 0's lock was released: the set opens cleanly now.
        ShardedCheckpoint.open("part", spec, shards=2, directory=tmp_path).close()


class TestMergeProperty:
    """Satellite invariant: sharding is invisible in the merged load.

    However points were interleaved, duplicated (stolen leases) or
    re-ordered across shard journals, merging the shards back must give
    a progress map *bit-identical* — pickled bytes, not just ``==`` —
    to a single journal fed the same outcomes.
    """

    @given(
        indices=st.lists(st.integers(min_value=0, max_value=31), max_size=40),
        shards=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=20, deadline=None)
    def test_any_interleaving_matches_a_single_journal_bit_exactly(
        self, indices, shards
    ):
        spec = {"grid": 32}
        with tempfile.TemporaryDirectory() as tmp:
            base = Path(tmp)
            with ShardedCheckpoint.open(
                "prop", spec, shards=shards, directory=base / "sharded"
            ) as sharded:
                for index in indices:
                    sharded.record(_deterministic(index))
            with SweepCheckpoint.open(
                "prop", spec, directory=base / "single"
            ) as single:
                for index in indices:
                    single.record(_deterministic(index))
            with ShardedCheckpoint.open(
                "prop", spec, shards=shards, directory=base / "sharded"
            ) as sharded:
                merged = sharded.load()
            with SweepCheckpoint.open(
                "prop", spec, directory=base / "single"
            ) as single:
                flat = single.load()
        assert pickle.dumps(tuple(sorted(merged.items()))) == pickle.dumps(
            tuple(sorted(flat.items()))
        )

    @given(
        indices=st.lists(st.integers(min_value=0, max_value=31), max_size=40),
        order=st.randoms(use_true_random=False),
    )
    @settings(max_examples=20, deadline=None)
    def test_merge_is_independent_of_shard_order(self, indices, order):
        loads = {}
        for index in indices:
            entry = _deterministic(index)
            if entry.status != "ok":
                continue
            loads.setdefault(index % 4, {})[index] = JournalEntry(
                index=index, status="ok", attempts=1, elapsed_s=0.25,
                error=None, value=entry.value,
            )
        shard_loads = list(loads.values())
        baseline = merge_journal_loads(shard_loads)
        order.shuffle(shard_loads)
        shuffled = merge_journal_loads(shard_loads)
        assert pickle.dumps(tuple(sorted(baseline.items()))) == pickle.dumps(
            tuple(sorted(shuffled.items()))
        )


class TestJournalLock:
    def test_concurrent_open_fails_fast_with_the_holder(self, tmp_path):
        from repro.core.errors import CheckpointError

        spec = {"n": 1}
        first = SweepCheckpoint.open("unit", spec, directory=tmp_path)
        try:
            with pytest.raises(CheckpointError, match="locked by another") as info:
                SweepCheckpoint.open("unit", spec, directory=tmp_path)
            # The error names the live holder so the operator can find it.
            import os

            assert f"{socket.gethostname()}:{os.getpid()}" in str(info.value)
        finally:
            first.close()

    def test_reopen_after_close_succeeds(self, tmp_path):
        spec = {"n": 1}
        with SweepCheckpoint.open("unit", spec, directory=tmp_path) as checkpoint:
            checkpoint.record(_ok(0, 1))
        with SweepCheckpoint.open("unit", spec, directory=tmp_path) as reopened:
            assert set(reopened.load()) == {0}

    def test_different_specs_do_not_contend(self, tmp_path):
        first = SweepCheckpoint.open("unit", {"n": 1}, directory=tmp_path)
        second = SweepCheckpoint.open("unit", {"n": 2}, directory=tmp_path)
        first.close()
        second.close()

    def test_stale_sidecar_is_reclaimed(self, tmp_path):
        from repro.perf import JournalLock

        journal = tmp_path / "unit-cafe.jsonl"
        sidecar = tmp_path / "unit-cafe.jsonl.lock"
        # A crashed run leaves its metadata behind; the kernel released
        # the flock with the dead process, so the next run reclaims it.
        sidecar.write_text('{"pid": 99999999, "started": "2026-01-01T00:00:00"}\n')
        lock = JournalLock(journal).acquire()
        try:
            assert lock.held
            assert lock.reclaimed_from == 99999999
        finally:
            lock.release()
        assert not lock.held

    def test_release_truncates_but_keeps_the_sidecar(self, tmp_path):
        from repro.perf import JournalLock

        lock = JournalLock(tmp_path / "unit-beef.jsonl").acquire()
        assert lock.path.read_text().strip()  # holder metadata recorded
        lock.release()
        assert lock.path.exists()
        assert lock.path.read_text() == ""  # empty sidecar = nobody writing
        lock.release()  # idempotent

    def test_close_releases_the_lock_even_unused(self, tmp_path):
        spec = {"n": 3}
        checkpoint = SweepCheckpoint.open("unit", spec, directory=tmp_path)
        checkpoint.close()
        checkpoint.close()  # idempotent
        SweepCheckpoint.open("unit", spec, directory=tmp_path).close()


class TestJournalLockCrossHost:
    """Stale-lock reclaim must never reach across machines."""

    def test_foreign_host_sidecar_refuses_reclaim(self, tmp_path):
        journal = tmp_path / "unit-d15c.jsonl"
        sidecar = tmp_path / "unit-d15c.jsonl.lock"
        sidecar.write_text(
            json.dumps(
                {"host": "some-other-box", "pid": 4242,
                 "started": "2026-01-01T00:00:00"}
            )
            + "\n"
        )
        lock = JournalLock(journal)
        with pytest.raises(CheckpointError, match="different host") as info:
            lock.acquire()
        # The refusal names the foreign owner and tells the operator
        # what evidence is needed before removing the sidecar by hand.
        assert "some-other-box:4242" in str(info.value)
        assert not lock.held
        # The sidecar is untouched — refusal must not clobber the
        # foreign owner's metadata.
        assert json.loads(sidecar.read_text())["host"] == "some-other-box"

    def test_same_host_dead_pid_is_reclaimed(self, tmp_path):
        journal = tmp_path / "unit-5a3e.jsonl"
        sidecar = tmp_path / "unit-5a3e.jsonl.lock"
        sidecar.write_text(
            json.dumps(
                {"host": socket.gethostname(), "pid": 99999999,
                 "started": "2026-01-01T00:00:00"}
            )
            + "\n"
        )
        lock = JournalLock(journal).acquire()
        try:
            assert lock.held
            assert lock.reclaimed_from == 99999999
        finally:
            lock.release()

    def test_describe_holder_tolerates_every_payload_shape(self):
        describe = JournalLock._describe_holder
        assert describe(None) == "an unknown process"
        assert describe({"pid": 7}) == "pid 7"  # pre-host sidecar
        assert describe({"host": "box", "pid": 7}) == "box:7"
