"""Checkpoint journals: crash-safe sweep progress for ``--resume``.

A :class:`SweepCheckpoint` is an append-only JSONL file under
``artifacts/checkpoints/`` (overridable via the
``REPRO_CHECKPOINT_DIR`` environment variable), keyed by a SHA-256
content hash of the *sweep spec* — the sweep's name plus every
parameter that shapes its point grid. Two runs over the same spec share
a journal; changing any parameter changes the digest, the filename and
therefore the journal, so a resume can never mix incompatible runs.

File layout::

    {"format": "repro-sweep-journal/1", "name": ..., "spec_sha256": ...}
    {"index": 0, "status": "ok", "attempts": 1, "elapsed_s": ..., "value": "<b64 pickle>"}
    {"index": 3, "status": "failed", "attempts": 3, "error": "ValueError(...)", ...}

Durability is :mod:`repro.core.durable`'s append contract: the header
is written atomically, each record is one CRC'd, fsync'd append that
either lands whole or raises, and the loader drops torn or corrupt
records one by one (see the "Durability core" section of
``docs/robustness.md``). A journal whose header does not match the spec
simply starts afresh.

Only ``status == "ok"`` records count as done: failed, timed-out and
crashed points are journalled for post-mortems but re-run on resume.
Values round-trip through pickle (base64-wrapped inside the JSON), so
restored points are bit-identical to freshly computed ones — the
property the byte-identical ``--resume`` artifact tests pin down. Treat
journals like any local pickle: data you wrote, not data you downloaded.

Single-writer discipline: opening a journal takes a :class:`JournalLock`
on a ``.lock`` sidecar, so two concurrent ``--resume`` runs over the same
spec fail fast with :class:`~repro.core.errors.CheckpointError` instead
of interleaving appends. The lock dies with its holder, so a crashed
run's sidecar is reclaimed — on the same host only.

The distributed sweep fabric (:mod:`repro.perf.fabric`) journals
through a :class:`ShardedCheckpoint`: the index space is partitioned
across a fixed number of shard journals (each an ordinary
:class:`SweepCheckpoint`), and :func:`merge_journal_loads` folds them
back into one progress map deterministically — the property the merge
tests pin down is that any interleaving or reassignment of points over
shards loads back bit-identically to a single journal.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import pickle
import socket
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Mapping

from repro.core.durable import FlockClaim, append_record, create_log, load_log
from repro.core.errors import CheckpointError

__all__ = [
    "CHECKPOINT_DIR_ENV",
    "DEFAULT_CHECKPOINT_DIR",
    "DEFAULT_SHARDS",
    "JOURNAL_FORMAT",
    "JournalEntry",
    "JournalLock",
    "ShardedCheckpoint",
    "SweepCheckpoint",
    "checkpoint_directory",
    "merge_journal_loads",
    "spec_digest",
]

#: Schema tag written into (and required of) every journal header.
JOURNAL_FORMAT = "repro-sweep-journal/1"

#: Environment variable overriding where journals live.
CHECKPOINT_DIR_ENV = "REPRO_CHECKPOINT_DIR"

#: Where journals land when the environment does not say otherwise.
DEFAULT_CHECKPOINT_DIR = "artifacts/checkpoints"

#: How many shard journals a :class:`ShardedCheckpoint` opens by
#: default. Fixed (not derived from the worker count) so a resumed
#: fabric sweep finds its shards no matter how many workers rejoin.
DEFAULT_SHARDS = 8


def checkpoint_directory() -> Path:
    """The journal directory: ``$REPRO_CHECKPOINT_DIR`` or the default."""
    return Path(os.environ.get(CHECKPOINT_DIR_ENV) or DEFAULT_CHECKPOINT_DIR)


def spec_digest(name: str, spec: Any) -> str:
    """SHA-256 over the canonical JSON encoding of ``(name, spec)``."""
    canonical = json.dumps(
        {"name": name, "spec": spec}, sort_keys=True, separators=(",", ":"), default=str
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class JournalLock:
    """Single-writer lock on a journal's ``.lock`` sidecar, with holder metadata.

    A :class:`~repro.core.durable.FlockClaim` does the locking; this class
    adds the policy. The sidecar records the holder's host, pid and start
    time, quoted in the :class:`CheckpointError` on contention; reclaiming
    a stale sidecar (lock free, previous holder dead) remembers its pid on
    :attr:`reclaimed_from`. A sidecar written by a *different host* is
    never reclaimed: ``flock`` state lives in one kernel and pids collide
    across machines, so it must be removed by hand once that host's run is
    confirmed gone. Sidecars without a recorded host reclaim as before.
    """

    def __init__(self, journal_path: "str | os.PathLike"):
        self.path = Path(str(journal_path) + ".lock")
        self._claim = FlockClaim(self.path)
        #: pid recorded in a stale sidecar this acquisition reclaimed.
        self.reclaimed_from: "int | None" = None

    @property
    def held(self) -> bool:
        """True while this process holds the lock."""
        return self._claim.held

    def acquire(self) -> "JournalLock":
        """Take the lock or raise :class:`CheckpointError` naming the holder."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        stale = self._read_holder()
        owner_host = stale.get("host") if stale else None
        if owner_host is not None and owner_host != socket.gethostname():
            raise CheckpointError(
                f"checkpoint journal {self.path.stem!r} is locked by "
                f"{self._describe_holder(stale)} on a different host; "
                f"flock state does not span hosts, so this run cannot "
                f"tell a dead owner from a live one — remove {self.path} "
                f"only after confirming that host's run is gone"
            )
        if not self._claim.acquire():
            holder = self._read_holder()
            detail = (
                f" (held by {self._describe_holder(holder)} since {holder['started']})"
                if holder
                else ""
            )
            raise CheckpointError(
                f"checkpoint journal {self.path.stem!r} is locked by another "
                f"--resume run{detail}; wait for it to finish or remove "
                f"{self.path} if that process is truly gone"
            )
        if stale:
            self.reclaimed_from = stale.get("pid")
        self._claim.write(
            json.dumps(
                {
                    "host": socket.gethostname(),
                    "pid": os.getpid(),
                    "started": time.strftime("%Y-%m-%dT%H:%M:%S"),
                },
                sort_keys=True,
            )
            + "\n"
        )
        return self

    @staticmethod
    def _describe_holder(holder: "Mapping[str, Any] | None") -> str:
        """A ``host:pid`` label for lock diagnostics (tolerates old payloads)."""
        if not holder:
            return "an unknown process"
        host = holder.get("host")
        pid = holder.get("pid")
        return f"pid {pid}" if host is None else f"{host}:{pid}"

    def _read_holder(self) -> "dict[str, Any] | None":
        """The sidecar's recorded holder metadata, if parseable."""
        try:
            record = json.loads(self.path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            return None
        return record if isinstance(record, dict) else None

    def release(self) -> None:
        """Drop the lock, leaving an empty sidecar (safe to call twice)."""
        self._claim.release()


@dataclass(frozen=True, slots=True)
class JournalEntry:
    """One journalled point outcome, decoded."""

    index: int
    status: str
    attempts: int
    elapsed_s: float
    error: "str | None"
    value: Any


class SweepCheckpoint:
    """An open journal: load prior progress, append new outcomes.

    Use :meth:`open` (or the context-manager form) rather than the
    constructor; it derives the path from the spec digest, validates any
    existing file's header and holds the journal's lock until :meth:`close`.
    """

    def __init__(self, path: "str | os.PathLike", name: str, spec: Any):
        self.path = Path(path)
        self.name = name
        self.digest = spec_digest(name, spec)
        self._entries: dict[int, JournalEntry] = {}
        self._lock: "JournalLock | None" = None

    @classmethod
    def open(
        cls, name: str, spec: Any, *, directory: "str | os.PathLike | None" = None
    ) -> "SweepCheckpoint":
        """Open (or create) the journal for ``(name, spec)``.

        Takes the journal's advisory :class:`JournalLock` first, so a
        second concurrent run over the same spec fails fast with
        :class:`~repro.core.errors.CheckpointError` rather than
        interleaving appends into the same file.
        """
        base = Path(directory) if directory is not None else checkpoint_directory()
        digest = spec_digest(name, spec)
        checkpoint = cls(base / f"{name}-{digest[:16]}.jsonl", name, spec)
        lock = JournalLock(checkpoint.path).acquire()
        try:
            checkpoint._load_or_start()
        except BaseException:
            lock.release()
            raise
        checkpoint._lock = lock
        return checkpoint

    def _load_or_start(self) -> None:
        """Restore the journal's points, or atomically start a fresh journal."""
        records = load_log(self.path, format=JOURNAL_FORMAT, spec_sha256=self.digest)
        if records is None:
            create_log(
                self.path,
                {"format": JOURNAL_FORMAT, "name": self.name, "spec_sha256": self.digest},
            )
            records = []
        self._entries = {}
        for entry in map(_entry_from_record, records):
            if entry is not None:
                self._entries[entry.index] = entry

    def load(self) -> dict[int, JournalEntry]:
        """Completed (``status == "ok"``) entries, keyed by point index."""
        return {
            index: entry
            for index, entry in self._entries.items()
            if entry.status == "ok"
        }

    @property
    def completed(self) -> int:
        """How many points this journal already holds values for."""
        return len(self.load())

    def record(self, outcome: Any) -> None:
        """Append one freshly computed outcome, fsync'd, or raise :class:`OSError`.

        A failed append leaves the in-memory progress untouched. Restored
        (``"skipped"``) outcomes are not re-journalled — they are already
        on disk from the run that computed them.
        """
        if self._lock is None:
            raise ValueError(f"checkpoint {self.path} is not open")
        if outcome.status == "skipped":
            return
        payload = None
        if outcome.status == "ok":
            payload = base64.b64encode(pickle.dumps(outcome.value)).decode("ascii")
        append_record(
            self.path,
            {
                "index": outcome.index,
                "status": outcome.status,
                "attempts": outcome.attempts,
                "elapsed_s": outcome.elapsed_s,
                "error": outcome.error,
                "value": payload,
            },
        )
        self._entries[outcome.index] = JournalEntry(
            index=outcome.index,
            status=outcome.status,
            attempts=outcome.attempts,
            elapsed_s=outcome.elapsed_s,
            error=outcome.error,
            value=outcome.value if outcome.status == "ok" else None,
        )

    def close(self) -> None:
        """Release the advisory lock (idempotent)."""
        if self._lock is not None:
            self._lock.release()
            self._lock = None

    def __enter__(self) -> "SweepCheckpoint":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def merge_journal_loads(
    loads: "Iterable[Mapping[int, JournalEntry]]",
) -> dict[int, JournalEntry]:
    """Fold per-shard journal loads into one progress map, deterministically.

    The merge is a pure function of the *sequence* of loads: shards are
    folded in the order given and, within a shard, indices in ascending
    order, with the first entry seen for an index winning. Because a
    sweep's point function is pure, duplicate entries for an index (a
    stolen lease completed twice, a point journalled by two shards
    under reassignment) carry equal values — the tie-break exists so
    the merged map is bit-identical across re-merges, not to pick a
    "better" result.

        >>> from repro.perf.journal import JournalEntry, merge_journal_loads
        >>> a = {0: JournalEntry(0, "ok", 1, 0.1, None, "zero")}
        >>> b = {1: JournalEntry(1, "ok", 1, 0.2, None, "one"),
        ...      0: JournalEntry(0, "ok", 2, 0.9, None, "zero")}
        >>> merged = merge_journal_loads([a, b])
        >>> sorted(merged) == [0, 1] and merged[0].attempts == 1
        True
    """
    merged: dict[int, JournalEntry] = {}
    for load in loads:
        for index in sorted(load):
            merged.setdefault(index, load[index])
    return merged


class ShardedCheckpoint:
    """A checkpoint journal partitioned across a fixed set of shard files.

    The distributed sweep fabric journals progress here: each shard is
    an ordinary :class:`SweepCheckpoint` (same header, locking,
    fsync-per-record and self-healing-tail contract) named
    ``<name>.s<k>of<n>``, and a point's outcome always lands in shard
    ``index % shards`` — a placement that is a pure function of the
    point, never of which worker computed it. :meth:`load` merges the
    shards through :func:`merge_journal_loads`, so a resumed sweep sees
    one progress map bit-identical to what a single journal would hold,
    no matter how points were leased, stolen or re-queued across
    workers in the interrupted run.

    ``shards`` must match across runs of the same sweep (the default is
    :data:`DEFAULT_SHARDS`); a changed count changes the shard names,
    and the old shards are simply ignored rather than mis-merged.
    """

    def __init__(self, checkpoints: "list[SweepCheckpoint]", name: str):
        self._shards = checkpoints
        self.name = name

    @classmethod
    def open(
        cls,
        name: str,
        spec: Any,
        *,
        shards: int = DEFAULT_SHARDS,
        directory: "str | os.PathLike | None" = None,
    ) -> "ShardedCheckpoint":
        """Open (or create) every shard journal for ``(name, spec)``.

        Each shard takes its own advisory lock; a partial failure
        releases the shards already opened before re-raising, so a lost
        race never leaves stragglers locked.
        """
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        opened: list[SweepCheckpoint] = []
        try:
            for shard in range(shards):
                opened.append(
                    SweepCheckpoint.open(
                        f"{name}.s{shard}of{shards}", spec, directory=directory
                    )
                )
        except BaseException:
            for checkpoint in opened:
                checkpoint.close()
            raise
        return cls(opened, name)

    @property
    def paths(self) -> tuple[Path, ...]:
        """Every shard journal's path, in shard order."""
        return tuple(shard.path for shard in self._shards)

    def load(self) -> dict[int, JournalEntry]:
        """Completed entries merged across all shards, keyed by index."""
        return merge_journal_loads(shard.load() for shard in self._shards)

    @property
    def completed(self) -> int:
        """How many points the shard set already holds values for."""
        return len(self.load())

    def record(self, outcome: Any) -> None:
        """Journal one outcome into its index's home shard."""
        self._shards[outcome.index % len(self._shards)].record(outcome)

    def close(self) -> None:
        """Close every shard (idempotent)."""
        for shard in self._shards:
            shard.close()

    def __enter__(self) -> "ShardedCheckpoint":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _entry_from_record(record: "dict[str, Any]") -> "JournalEntry | None":
    """One verified journal record as a :class:`JournalEntry`; None if unusable."""
    status = record.get("status")
    if not isinstance(record.get("index"), int):
        return None
    if status not in ("ok", "failed", "timed_out", "crashed"):
        return None
    value = None
    if status == "ok":
        try:
            value = pickle.loads(base64.b64decode(record["value"]))
        except Exception:
            return None  # stale pickle (code drift) — recompute instead
    return JournalEntry(
        index=record["index"],
        status=status,
        attempts=int(record.get("attempts", 1)),
        elapsed_s=float(record.get("elapsed_s", 0.0)),
        error=record.get("error"),
        value=value,
    )
