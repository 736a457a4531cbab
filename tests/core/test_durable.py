"""The durability core, tested once against the faults disks produce.

Every durable consumer (sweep checkpoints, the job store, fabric shard
journals) appends through :func:`repro.core.durable.append_record`, so the
log format and its failure behaviour are pinned here: ENOSPC and EIO on
append, a failed ``fsync``, short writes (injected and through a real
``RLIMIT_FSIZE``), torn tails, mid-file bit flips and a lost header
rename. Consumer tests keep only what is theirs (resume recomputes the
corrupted point, byte-identical job and fabric resume, lock policy).
"""

import errno
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import textwrap
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import durable
from repro.core.durable import (
    FlockClaim,
    RestartBudget,
    append_record,
    create_log,
    decode_record,
    encode_record,
    load_log,
    seeded_backoff,
)
from repro.perf import PointResult, SweepCheckpoint, sweep
from repro.serve.jobs import JOB_JOURNAL_FORMAT, JobManager, JobStore

SRC = Path(__file__).resolve().parents[2] / "src"
PARENT_WRITTEN = Path(__file__).resolve().parent / "data" / "parent_written"
HEADER = {"format": "test-log/1"}


def _ok(index, value):
    return PointResult(index=index, point=index, value=value, elapsed_s=0.25)


def _log_with(path, *records):
    create_log(path, HEADER, *records)
    return path


def _flip_bit(path, offset, bit):
    data = bytearray(path.read_bytes())
    data[offset] ^= 1 << bit
    path.write_bytes(bytes(data))


class TestRecordChecksums:
    """The shared line format: canonical JSON + CRC32, legacy tolerated."""

    def test_bit_rotted_record_is_dropped_but_neighbours_survive(self, tmp_path):
        log = _log_with(tmp_path / "log.jsonl", *({"seq": i} for i in range(3)))
        lines = log.read_text().splitlines()
        # Valid JSON with its original crc: only the checksum can tell.
        tampered = json.loads(lines[2])
        tampered["seq"] = 7
        lines[2] = json.dumps(tampered, sort_keys=True)
        log.write_text("\n".join(lines) + "\n")
        assert load_log(log) == [{"seq": 0}, {"seq": 2}]

    def test_tampered_metadata_fails_the_crc_too(self, tmp_path):
        log = _log_with(tmp_path / "log.jsonl", {"seq": 0, "attempts": 1})
        text = log.read_text().replace('"attempts": 1', '"attempts": 99')
        log.write_text(text)
        assert load_log(log) == []

    def test_legacy_record_without_crc_still_loads(self, tmp_path):
        log = _log_with(tmp_path / "log.jsonl", {"seq": 0})
        with open(log, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({"seq": 1}) + "\n")
        assert load_log(log) == [{"seq": 0}, {"seq": 1}]

    def test_corrupt_journal_records_are_dropped(self, tmp_path):
        store = JobStore(tmp_path)
        record, _ = store.submit("population", {"size": 8})
        store.append_event(record.job_id, "started")
        path = store.events_path(record.job_id)
        good = path.read_text()
        # A torn tail and a bit-flipped record must both be ignored.
        path.write_text(good + '{"event": "succeeded", "ts": 9.0, "crc": 1}\n' + '{"ev')
        loaded = store.get(record.job_id)
        assert loaded.state == "running"
        assert loaded.attempts == 1

    def test_malformed_lines_are_rejected(self):
        assert decode_record(b"not json") is None
        assert decode_record(b"[1, 2, 3]") is None
        assert decode_record(b'{"seq": \xff}') is None  # invalid UTF-8
        assert decode_record(b'{"seq": 1}', require_crc=True) is None
        assert decode_record(encode_record({"seq": 1}), require_crc=True) == {"seq": 1}

    def test_encoding_is_the_historical_byte_format(self):
        # crc of the canonical body, then the record re-dumped sorted.
        assert encode_record({"index": 0, "status": "ok"}) == (
            b'{"crc": 239517663, "index": 0, "status": "ok"}\n'
        )


class TestHeader:
    def test_header_must_carry_every_expected_field(self, tmp_path):
        log = _log_with(tmp_path / "log.jsonl", {"seq": 0})
        assert load_log(log, format="test-log/1") == [{"seq": 0}]
        assert load_log(log, format="other/1") is None
        assert load_log(log, format="test-log/1", spec_sha256="abc") is None

    @pytest.mark.parametrize("content", [b"", b"[]\n", b'{"form', b'{"seq": 0}\n'])
    def test_unusable_header_is_none(self, tmp_path, content):
        path = tmp_path / "log.jsonl"
        path.write_bytes(content)
        assert load_log(path, format="test-log/1") is None

    def test_missing_log_is_none(self, tmp_path):
        assert load_log(tmp_path / "absent.jsonl") is None


class _FaultyOS:
    """``os`` as the durability core sees it, with one call made to fail."""

    def __init__(self, **overrides):
        self._overrides = overrides

    def __getattr__(self, name):
        return self._overrides.get(name, getattr(os, name))


def _raise(code):
    def failing(*_args):
        raise OSError(code, os.strerror(code))

    return failing


def _short_write(fd, data):
    return os.write(fd, data[: len(data) // 2])


FAULTS = {
    "enospc": {"write": _raise(errno.ENOSPC)},
    "eio": {"write": _raise(errno.EIO)},
    "fsync": {"fsync": _raise(errno.EIO)},
    "short-write": {"write": _short_write},
}


class TestAppendFaults:
    """Every failed append raises and leaves no in-memory progress behind."""

    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_log_append_raises(self, tmp_path, monkeypatch, fault):
        log = _log_with(tmp_path / "log.jsonl", {"seq": 0})
        monkeypatch.setattr(durable, "os", _FaultyOS(**FAULTS[fault]))
        with pytest.raises(OSError):
            append_record(log, {"seq": 1})
        monkeypatch.undo()
        append_record(log, {"seq": 2})
        loaded = [record["seq"] for record in load_log(log)]
        # A failed fsync may leave its bytes on disk (durability unknown);
        # every other fault must not. The next good record always survives.
        expected = [0, 1, 2] if fault == "fsync" else [0, 2]
        assert loaded == expected

    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_sweep_checkpoint_keeps_its_view_honest(self, tmp_path, monkeypatch, fault):
        checkpoint = SweepCheckpoint.open("unit", {"n": 3}, directory=tmp_path)
        try:
            checkpoint.record(_ok(0, "zero"))
            monkeypatch.setattr(durable, "os", _FaultyOS(**FAULTS[fault]))
            with pytest.raises(OSError):
                checkpoint.record(_ok(1, "one"))
            monkeypatch.undo()
            assert set(checkpoint.load()) == {0}
            checkpoint.record(_ok(2, "two"))
        finally:
            checkpoint.close()
        with SweepCheckpoint.open("unit", {"n": 3}, directory=tmp_path) as reopened:
            assert {0, 2} <= set(reopened.load())

    @pytest.mark.parametrize("fault", ["enospc", "eio", "short-write"])
    def test_job_event_is_never_reported_durable(self, tmp_path, monkeypatch, fault):
        store = JobStore(tmp_path)
        record, _ = store.submit("population", {"size": 8})
        monkeypatch.setattr(durable, "os", _FaultyOS(**FAULTS[fault]))
        with pytest.raises(OSError):
            store.append_event(record.job_id, "started")
        monkeypatch.undo()
        assert store.get(record.job_id).state == "queued"
        store.append_event(record.job_id, "cancelled")
        assert store.get(record.job_id).state == "cancelled"


_RLIMIT_CHILD = textwrap.dedent(
    """
    import json, resource, signal, sys
    from repro.perf import PointResult, SweepCheckpoint
    from repro.serve.jobs import JobStore

    signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
    soft, hard = resource.getrlimit(resource.RLIMIT_FSIZE)

    def limited(path, call):
        resource.setrlimit(resource.RLIMIT_FSIZE, (path.stat().st_size + 20, hard))
        try:
            call()
        except OSError:
            return "raised"
        finally:
            resource.setrlimit(resource.RLIMIT_FSIZE, (soft, hard))
        return "returned"

    mode, root, ident = sys.argv[1:]
    if mode == "job":
        store = JobStore(root)
        outcome = limited(
            store.events_path(ident), lambda: store.append_event(ident, "started")
        )
        store.append_event(ident, "succeeded")
        print(json.dumps({"append": outcome}))
    else:
        def ok(index):
            return PointResult(index=index, point=index, value=index, elapsed_s=0.0)

        with SweepCheckpoint.open("fsize", {}, directory=root) as checkpoint:
            checkpoint.record(ok(0))
            outcome = limited(checkpoint.path, lambda: checkpoint.record(ok(1)))
            checkpoint.record(ok(2))
            view = sorted(checkpoint.load())
        print(json.dumps({"append": outcome, "view": view}))
    """
)


def _run_rlimit_child(*args):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    completed = subprocess.run(
        [sys.executable, "-c", _RLIMIT_CHILD, *map(str, args)],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
        check=True,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.skipif(not hasattr(signal, "SIGXFSZ"), reason="needs RLIMIT_FSIZE")
class TestRealShortWrite:
    """A real kernel short write: ``RLIMIT_FSIZE`` lets 20 bytes through."""

    def test_job_append_raises_and_the_next_record_survives(self, tmp_path):
        store = JobStore(tmp_path)
        record, _ = store.submit("population", {"size": 8})
        child = _run_rlimit_child("job", tmp_path, record.job_id)
        assert child["append"] == "raised"
        loaded = store.get(record.job_id)
        assert loaded.state == "succeeded"
        assert loaded.attempts == 0  # the torn "started" never counted

    def test_sweep_record_raises_and_reload_matches_memory(self, tmp_path):
        child = _run_rlimit_child("sweep", tmp_path, "-")
        assert child == {"append": "raised", "view": [0, 2]}
        with SweepCheckpoint.open("fsize", {}, directory=tmp_path) as reopened:
            assert sorted(reopened.load()) == child["view"]


class TestOnDiskDamage:
    def test_torn_tail_is_dropped_and_the_next_append_starts_a_new_line(self, tmp_path):
        log = _log_with(tmp_path / "log.jsonl", {"seq": 0})
        with open(log, "ab") as handle:
            handle.write(encode_record({"seq": 1})[:9])
        assert load_log(log) == [{"seq": 0}]
        append_record(log, {"seq": 2})
        assert load_log(log) == [{"seq": 0}, {"seq": 2}]

    def test_mid_file_bit_flip_drops_only_that_record(self, tmp_path):
        log = _log_with(tmp_path / "log.jsonl", *({"seq": i} for i in range(3)))
        middle = log.read_bytes().index(b'"seq": 1')
        _flip_bit(log, middle + len('"seq": '), 1)
        assert load_log(log) == [{"seq": 0}, {"seq": 2}]

    def test_flipped_newline_keeps_the_record_behind_it(self, tmp_path):
        log = _log_with(tmp_path / "log.jsonl", *({"seq": i} for i in range(3)))
        data = log.read_bytes()
        first_record_end = data.index(b"\n", data.index(b"\n") + 1)
        _flip_bit(log, first_record_end, 5)
        assert load_log(log) == [{"seq": 1}, {"seq": 2}]

    def test_lost_header_rename_restarts_a_sweep_journal(self, tmp_path, monkeypatch):
        import repro.core.atomicio as atomicio

        monkeypatch.setattr(atomicio.os, "replace", _raise(errno.EIO))
        with pytest.raises(OSError):
            SweepCheckpoint.open("unit", {"n": 1}, directory=tmp_path)
        monkeypatch.undo()
        assert not list(tmp_path.glob("*.jsonl"))  # no half-made journal
        with SweepCheckpoint.open("unit", {"n": 1}, directory=tmp_path) as checkpoint:
            assert checkpoint.load() == {}
            checkpoint.record(_ok(0, "zero"))
        with SweepCheckpoint.open("unit", {"n": 1}, directory=tmp_path) as checkpoint:
            assert set(checkpoint.load()) == {0}

    def test_lost_header_rename_leaves_the_job_invisible(self, tmp_path, monkeypatch):
        import repro.core.atomicio as atomicio

        store = JobStore(tmp_path)
        monkeypatch.setattr(atomicio.os, "replace", _raise(errno.EIO))
        with pytest.raises(OSError):
            store.submit("population", {"size": 8})
        monkeypatch.undo()
        (orphan,) = store.jobs_root.iterdir()
        assert store.get(orphan.name) is None
        # A late appender recreates a headerless journal: still invisible.
        store.append_event(orphan.name, "started")
        assert store.get(orphan.name) is None
        assert store.list_jobs() == []


def _record_spans(data):
    """``(start, end)`` byte spans of each record line, newline included."""
    spans, start = [], data.index(b"\n") + 1
    while start < len(data):
        end = data.index(b"\n", start) + 1
        spans.append((start, end))
        start = end
    return spans


class TestDamageProperty:
    """Damage anywhere after the header costs at most the record it hits."""

    @given(
        texts=st.lists(st.text(max_size=12), min_size=1, max_size=6),
        where=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
        bit=st.integers(min_value=-1, max_value=7),
    )
    @settings(max_examples=150, deadline=None)
    def test_truncation_or_bit_flip_loses_only_the_damaged_record(
        self, texts, where, bit
    ):
        records = [{"seq": i, "payload": {"text": text}} for i, text in enumerate(texts)]
        with tempfile.TemporaryDirectory() as tmp:
            log = _log_with(Path(tmp) / "log.jsonl", *records)
            data = log.read_bytes()
            spans = _record_spans(data)
            offset = spans[0][0] + int(where * (len(data) - spans[0][0]))
            if bit < 0:  # truncate at the offset
                log.write_bytes(data[:offset])
                intact = {i for i, (_, end) in enumerate(spans) if end - 1 <= offset}
            else:
                _flip_bit(log, offset, bit)
                intact = {
                    i for i, (start, end) in enumerate(spans) if not start <= offset < end
                }
            loaded = load_log(log)
        seqs = [record["seq"] for record in loaded]
        assert seqs == sorted(set(seqs))
        assert intact <= set(seqs)
        assert len(set(seqs) - intact) <= 1
        for record in loaded:
            # A flip inside the "crc" key name leaves the data intact.
            original = records[record["seq"]]
            assert {key: record[key] for key in original} == original

    @given(cut=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=30, deadline=None)
    def test_resume_after_a_crash_anywhere_matches_an_uninterrupted_sweep(self, cut):
        points = list(range(6))
        with tempfile.TemporaryDirectory() as tmp:
            with SweepCheckpoint.open("crash", {}, directory=tmp) as checkpoint:
                sweep(lambda x: x * x, points, checkpoint=checkpoint)
                path = checkpoint.path
            data = path.read_bytes()
            path.write_bytes(data[: int(cut * len(data))])
            with SweepCheckpoint.open("crash", {}, directory=tmp) as checkpoint:
                resumed = sweep(lambda x: x * x, points, checkpoint=checkpoint)
        assert resumed.values == tuple(x * x for x in points)


class TestConcurrentAppends:
    def test_concurrent_appenders_interleave_whole_records(self, tmp_path):
        import threading

        log = _log_with(tmp_path / "log.jsonl")

        def appender(writer):
            for seq in range(40):
                append_record(log, {"writer": writer, "seq": seq, "pad": "x" * 300})

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=appender, args=(w,)) for w in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        loaded = load_log(log)
        assert len(loaded) == 6 * 40
        for writer in range(6):
            mine = [record["seq"] for record in loaded if record["writer"] == writer]
            assert mine == list(range(40))


class TestFlockClaim:
    def test_claim_is_exclusive_and_release_truncates(self, tmp_path):
        first, second = FlockClaim(tmp_path / "x.lock"), FlockClaim(tmp_path / "x.lock")
        assert first.acquire()
        first.write("holder\n")
        assert not second.acquire()
        first.release()
        first.release()  # idempotent
        assert (tmp_path / "x.lock").read_text() == ""  # kept, emptied
        assert second.acquire()
        second.release()

    @pytest.mark.skipif(not hasattr(signal, "SIGKILL"), reason="needs POSIX signals")
    def test_the_kernel_frees_a_dead_holders_claim(self, tmp_path):
        path = tmp_path / "x.lock"
        with subprocess.Popen(
            [
                sys.executable,
                "-c",
                "import time; from repro.core.durable import FlockClaim; "
                f"claim = FlockClaim({str(path)!r}); assert claim.acquire(); "
                "print('held', flush=True); time.sleep(60)",
            ],
            stdout=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        ) as holder:
            try:
                assert holder.stdout.readline().strip() == "held"
                assert not FlockClaim(path).acquire()
            finally:
                holder.kill()
        claim = FlockClaim(path)
        assert claim.acquire()
        claim.release()


class TestSeededBackoff:
    def test_geometric_with_bounded_jitter(self):
        for step in range(1, 6):
            delay = seeded_backoff(0.1, 2.0, step, jitter=0.25, seed=3, salts=(7, step))
            base = 0.1 * 2.0 ** (step - 1)
            assert base <= delay <= base * 1.25

    def test_cap_applies_after_jitter(self):
        delays = [
            seeded_backoff(1.0, 2.0, 2, jitter=1.0, seed=seed, salts=(0,), cap=2.5)
            for seed in range(32)
        ]
        assert max(delays) == 2.5
        assert min(delays) >= 2.0

    def test_pure_function_of_its_arguments(self):
        args = (0.25, 2.0, 3)
        same = seeded_backoff(*args, jitter=0.25, seed=9, salts=(0, 1, 3))
        assert same == seeded_backoff(*args, jitter=0.25, seed=9, salts=(0, 1, 3))
        assert same != seeded_backoff(*args, jitter=0.25, seed=9, salts=(0, 2, 3))

    def test_step_is_one_based(self):
        with pytest.raises(ValueError, match="1-based"):
            seeded_backoff(1.0, 2.0, 0, jitter=0.0, seed=0, salts=(0,))


class TestRestartBudget:
    def test_sliding_window(self):
        budget = RestartBudget(2, 10.0)
        assert budget.spend(0.0) and budget.spend(5.0)
        assert not budget.spend(9.0)  # two already inside the window
        assert budget.spend(10.5)  # the first restart aged out
        assert not budget.spend(14.0)

    def test_zero_budget_never_restarts(self):
        assert not RestartBudget(0, 1.0).spend(0.0)


def _copy_parent_written(tmp_path):
    target = tmp_path / "parent_written"
    shutil.copytree(PARENT_WRITTEN, target)
    return target


class TestParentWrittenFiles:
    """Journals and job stores from before the core existed load and resume."""

    def test_sweep_journal_restores_and_resumes(self, tmp_path):
        journals = _copy_parent_written(tmp_path) / "journals"
        recomputed = []

        def square(x):
            recomputed.append(x)
            return {"square": x * x}

        with SweepCheckpoint.open("squares", {"n": 6}, directory=journals) as checkpoint:
            assert sorted(checkpoint.load()) == [0, 1, 2, 4]  # 4 is a legacy record
            result = sweep(square, range(6), checkpoint=checkpoint)
        assert recomputed == [3, 5]
        assert result.values == tuple({"square": x * x} for x in range(6))

    def test_job_store_loads_dedupes_and_resumes_byte_identically(self, tmp_path):
        root = _copy_parent_written(tmp_path) / "store"
        store = JobStore(root)
        jobs = {record.idempotency_key: record for record in store.list_jobs()}
        assert jobs["fixture-done"].state == "succeeded"
        assert jobs["fixture-partial"].state == "queued"
        events = load_log(
            store.events_path(jobs["fixture-done"].job_id), format=JOB_JOURNAL_FORMAT
        )
        assert events[-1]["event"] == "cancel_requested"  # legacy, no crc
        again, deduped = store.submit("population", {}, idempotency_key="fixture-done")
        assert deduped and again.job_id == jobs["fixture-done"].job_id

        partial = jobs["fixture-partial"].job_id
        (journal,) = store.checkpoint_dir(partial).glob("*.jsonl")
        restored = len(journal.read_text().splitlines())
        resumer = JobManager(root, runners=1, poll_s=0.02)
        fresh = JobManager(tmp_path / "fresh", runners=1, poll_s=0.02)
        try:
            params = {"size": "64", "chunk": "16", "seed": "3"}
            baseline, _ = fresh.submit("population", params)
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline and not (
                store.get(partial).terminal and fresh.store.get(baseline.job_id).terminal
            ):
                time.sleep(0.02)
        finally:
            resumer.drain(5.0)
            fresh.drain(5.0)
        assert store.get(partial).state == "succeeded"
        assert (
            store.result_path(partial).read_bytes()
            == fresh.store.result_path(baseline.job_id).read_bytes()
        )
        # Only the chunk the interrupted run had not journalled was computed.
        assert len(journal.read_text().splitlines()) == restored + 1

