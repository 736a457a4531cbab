"""Durable asynchronous jobs: crash-safe long-running work behind ``/v1/jobs``.

The request/response plane caps every answer at one request deadline;
this module is the substrate for work that does not fit — survey-scale
costing sweeps, population analytics, and (per the roadmap) surrogate-
guided search. A *job* is submitted, journalled, executed by a bounded
runner, and polled to completion; every lifecycle transition is durable
before it is observable, so a SIGKILL of the server (or of any pre-fork
worker) loses nothing: on restart the incomplete job is re-claimed and
its sweep resumes from its checkpoint journal, producing a result
artifact byte-identical to the uninterrupted run.

Lifecycle (journalled, monotone — a terminal state is final)::

    queued ──▶ running ──▶ succeeded
       ▲          │   ├──▶ failed      (permanent error / retries spent)
       │          │   ├──▶ cancelled   (cooperative, between sweep points)
       └──────────┘   └──▶ expired     (per-job wall-clock deadline)
        retrying /
        interrupted (drain)

Durability rests on :mod:`repro.core.durable`, whose contract the
"Durability core" section of ``docs/robustness.md`` states once. Each
job owns an append-only ``events.jsonl`` (header + one record per
transition, appended before the transition is acted on). The result
artifact is written atomically *before* the ``succeeded`` record, so a
crash between the two re-runs the job and rewrites identical bytes.
Execution ownership is a :class:`~repro.core.durable.FlockClaim` on the
job's ``claim.lock``, shared by every pre-fork worker: a ``running`` job
whose claim is free has a dead owner, and any scanner may resume it.
Idempotency keys live in an ``O_CREAT|O_EXCL``-claimed index file per
key, so a retried submission returns the original job id untouched.

Job *kinds* are registered in a process-wide table
(:func:`register_job_kind`); each kind validates its parameters with
the same strict helpers the synchronous endpoints use and runs its
sweep through :meth:`JobContext.run_sweep`, which threads cooperative
cancellation, drain interruption, per-job deadlines and the checkpoint
journal through every point. The built-in kinds are ``survey-costs``
(the ``/v1/survey?costs=true`` workload) and ``population`` (synthetic
signature generation + class-occupancy analytics); roadmap item 2's
surrogate-guided search plugs in as just another kind.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import secrets
import shutil
import threading
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping

from repro.core.atomicio import atomic_write_bytes, atomic_write_text
from repro.core.durable import FlockClaim, append_record, create_log, load_log
from repro.core.errors import FaultError, ReproError
from repro.obs import metrics as _metrics
from repro.perf.engine import RetryPolicy, sweep
from repro.perf.journal import SweepCheckpoint
from repro.serve.errors import (
    BadRequestError,
    ConflictError,
    NotFoundError,
)
from repro.serve.router import Request, Response, Router
from repro.serve.validation import (
    MAX_DESIGN_N,
    choice_field,
    float_field,
    int_field,
    require_known,
    string_field,
)

__all__ = [
    "JOB_STATES",
    "TERMINAL_STATES",
    "JobContext",
    "JobKind",
    "JobManager",
    "JobRecord",
    "JobStore",
    "JobsApi",
    "TransientJobError",
    "fold_events",
    "get_job_kind",
    "job_kinds",
    "register_job_kind",
]

#: Schema tag written into (and required of) every job journal header.
JOB_JOURNAL_FORMAT = "repro-job-journal/1"

#: Every state a job can report, in lifecycle order.
JOB_STATES: tuple[str, ...] = (
    "queued", "running", "succeeded", "failed", "cancelled", "expired",
)

#: States a job never leaves; TTL garbage collection only touches these.
TERMINAL_STATES: tuple[str, ...] = ("succeeded", "failed", "cancelled", "expired")

#: Defaults a submission may override (within the validated bounds).
DEFAULT_DEADLINE_S = 300.0
DEFAULT_TTL_S = 3600.0
DEFAULT_MAX_ATTEMPTS = 3

_SUBMITTED = _metrics.REGISTRY.counter("jobs.submitted", help="jobs accepted for execution")
_DEDUPED = _metrics.REGISTRY.counter(
    "jobs.deduplicated", help="submissions answered by an existing idempotency key"
)
_STARTED = _metrics.REGISTRY.counter("jobs.started", help="job execution attempts begun")
_RESUMED = _metrics.REGISTRY.counter(
    "jobs.resumed", help="interrupted jobs re-claimed after a crash or drain"
)
_SUCCEEDED = _metrics.REGISTRY.counter("jobs.succeeded", help="jobs that produced a result")
_FAILED = _metrics.REGISTRY.counter("jobs.failed", help="jobs that exhausted their attempts")
_CANCELLED = _metrics.REGISTRY.counter("jobs.cancelled", help="jobs cancelled cooperatively")
_EXPIRED = _metrics.REGISTRY.counter("jobs.expired", help="jobs past their wall-clock deadline")
_RETRIES = _metrics.REGISTRY.counter("jobs.retries", help="transient failures requeued with backoff")
_INTERRUPTED = _metrics.REGISTRY.counter(
    "jobs.interrupted", help="running jobs checkpointed back to queued by a drain"
)
_GC_REMOVED = _metrics.REGISTRY.counter(
    "jobs.gc_removed", help="terminal jobs (and artifacts) removed by TTL GC"
)
_QUEUED_G = _metrics.REGISTRY.gauge("jobs.queued", help="jobs currently waiting for a runner")
_RUNNING_G = _metrics.REGISTRY.gauge("jobs.running", help="jobs currently executing")
_LATENCY = _metrics.REGISTRY.histogram(
    "jobs.latency_s",
    boundaries=(0.01, 0.1, 1.0, 10.0, 60.0, 600.0),
    help="submit-to-terminal job latency (s)",
)


class TransientJobError(ReproError):
    """A job failure worth retrying (seeded backoff, bounded attempts).

    Job kinds raise this — instead of a bare exception — when the
    failure is environmental rather than inherent to the parameters.
    Injected :class:`~repro.core.errors.FaultError` chaos and OS-level
    errors are classified transient automatically.
    """


class _JobCancelled(Exception):
    """Control flow: the job observed its cancel flag between points."""


class _JobInterrupted(Exception):
    """Control flow: a drain asked the job to checkpoint and requeue."""


class _JobExpired(Exception):
    """Control flow: the job's wall-clock deadline passed."""


# -- the journalled record -------------------------------------------------


@dataclass
class JobRecord:
    """One job's current state, folded from its event journal."""

    job_id: str
    kind: str
    params: dict[str, Any] = field(default_factory=dict)
    idempotency_key: "str | None" = None
    created_at: float = 0.0
    updated_at: float = 0.0
    state: str = "queued"
    attempts: int = 0
    max_attempts: int = DEFAULT_MAX_ATTEMPTS
    deadline_s: float = DEFAULT_DEADLINE_S
    ttl_s: float = DEFAULT_TTL_S
    error: "str | None" = None
    not_before: "float | None" = None
    finished_at: "float | None" = None
    cancel_requested: bool = False

    @property
    def terminal(self) -> bool:
        """Whether this job has reached a final state."""
        return self.state in TERMINAL_STATES

    def payload(self) -> dict[str, Any]:
        """The REST representation served by ``GET /v1/jobs/{id}``."""
        return {
            "id": self.job_id,
            "kind": self.kind,
            "state": self.state,
            "params": self.params,
            "idempotency_key": self.idempotency_key,
            "created_at": round(self.created_at, 6),
            "updated_at": round(self.updated_at, 6),
            "attempts": self.attempts,
            "max_attempts": self.max_attempts,
            "deadline_s": self.deadline_s,
            "ttl_s": self.ttl_s,
            "error": self.error,
            "cancel_requested": self.cancel_requested,
        }


def fold_events(events: "list[dict[str, Any]]") -> "JobRecord | None":
    """Fold a job's journalled events into its current :class:`JobRecord`.

    The fold is a pure function of the event sequence: terminal events
    are final (later events are ignored), ``started`` moves a queued or
    interrupted job to ``running`` and counts an attempt, ``retrying``
    and ``interrupted`` move a running job back to ``queued``.

        >>> submitted = {"event": "submitted", "ts": 1.0, "job_id": "j-1",
        ...              "kind": "population", "params": {"size": 8}}
        >>> fold_events([submitted]).state
        'queued'
        >>> fold_events([submitted, {"event": "started", "ts": 2.0}]).state
        'running'
        >>> done = fold_events([submitted, {"event": "started", "ts": 2.0},
        ...                     {"event": "succeeded", "ts": 3.0},
        ...                     {"event": "cancel_requested", "ts": 4.0}])
        >>> done.state, done.attempts  # terminal states are final
        ('succeeded', 1)
    """
    record: "JobRecord | None" = None
    for event in events:
        name = event.get("event")
        ts = float(event.get("ts", 0.0))
        if name == "submitted":
            if record is not None:
                continue
            record = JobRecord(
                job_id=str(event.get("job_id", "")),
                kind=str(event.get("kind", "")),
                params=dict(event.get("params") or {}),
                idempotency_key=event.get("idempotency_key"),
                created_at=ts,
                updated_at=ts,
                max_attempts=int(event.get("max_attempts", DEFAULT_MAX_ATTEMPTS)),
                deadline_s=float(event.get("deadline_s", DEFAULT_DEADLINE_S)),
                ttl_s=float(event.get("ttl_s", DEFAULT_TTL_S)),
            )
            continue
        if record is None or record.terminal:
            continue
        record.updated_at = ts
        if name == "started":
            record.state = "running"
            record.attempts += 1
            record.not_before = None
        elif name == "retrying":
            record.state = "queued"
            record.not_before = float(event.get("not_before", ts))
            record.error = event.get("error")
        elif name == "interrupted":
            record.state = "queued"
        elif name == "cancel_requested":
            record.cancel_requested = True
        elif name in TERMINAL_STATES:
            record.state = name
            record.error = event.get("error", record.error)
            record.finished_at = ts
    return record


def backoff_delay(job_id: str, attempt: int, *, policy: "RetryPolicy | None" = None) -> float:
    """The seeded backoff before retry ``attempt`` (1-based) of a job.

    A pure function of ``(job_id, attempt, policy)`` — two processes
    scheduling the same retry agree on the delay exactly, the same
    property :class:`repro.perf.engine.RetryPolicy` pins for sweeps.

        >>> backoff_delay("j-1", 1) == backoff_delay("j-1", 1)
        True
        >>> backoff_delay("j-1", 2) > backoff_delay("j-1", 1) / 2
        True
    """
    chosen = policy if policy is not None else RetryPolicy(backoff_s=0.1, seed=0)
    return chosen.delay_s(zlib.crc32(job_id.encode("utf-8")), attempt)


# -- the durable store -----------------------------------------------------


class JobStore:
    """The shared on-disk job table: journals, claims, artifacts, index.

    Layout under ``root``::

        jobs/<id>/events.jsonl   append-only lifecycle journal (fsync'd)
        jobs/<id>/result.json    atomic result artifact (stable JSON)
        jobs/<id>/checkpoints/   the job's sweep checkpoint journals
        jobs/<id>/claim.lock     flock'd while a runner owns the job
        jobs/<id>/cancel.flag    cross-process cancellation request
        idempotency/<sha256>.json  idempotency key -> job id

    Every pre-fork worker opens the same store: reads fold the journal
    on demand, writes are whole-record fsync'd appends, and the
    claim protocol serialises execution — no in-memory state needs to
    survive or be shared.
    """

    def __init__(self, root: "str | os.PathLike", *, clock: Callable[[], float] = time.time):
        self.root = Path(root)
        self.jobs_root = self.root / "jobs"
        self.index_root = self.root / "idempotency"
        self.jobs_root.mkdir(parents=True, exist_ok=True)
        self.index_root.mkdir(parents=True, exist_ok=True)
        self._clock = clock

    # -- paths -----------------------------------------------------------

    def job_dir(self, job_id: str) -> Path:
        """The directory holding one job's journal and artifacts."""
        return self.jobs_root / job_id

    def events_path(self, job_id: str) -> Path:
        """The job's append-only lifecycle journal."""
        return self.job_dir(job_id) / "events.jsonl"

    def result_path(self, job_id: str) -> Path:
        """The job's result artifact (exists only once succeeded)."""
        return self.job_dir(job_id) / "result.json"

    def checkpoint_dir(self, job_id: str) -> Path:
        """Where the job's sweep checkpoints journal their points."""
        return self.job_dir(job_id) / "checkpoints"

    def cancel_flag(self, job_id: str) -> Path:
        """The cross-process cancellation marker."""
        return self.job_dir(job_id) / "cancel.flag"

    # -- submission ------------------------------------------------------

    def submit(
        self,
        kind: str,
        params: "dict[str, Any]",
        *,
        idempotency_key: "str | None" = None,
        deadline_s: float = DEFAULT_DEADLINE_S,
        ttl_s: float = DEFAULT_TTL_S,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    ) -> "tuple[JobRecord, bool]":
        """Journal a new job; returns ``(record, deduplicated)``.

        With an idempotency key, the key's index file is claimed with
        ``O_CREAT|O_EXCL`` — exactly one concurrent submitter wins and
        creates the job; everyone else (including any later retry of the
        same submission) reads the winner's job id back and returns the
        existing record untouched. An index whose job has since been
        garbage-collected is stale and is atomically re-pointed.
        """
        index_path: "Path | None" = None
        if idempotency_key is not None:
            digest = hashlib.sha256(idempotency_key.encode("utf-8")).hexdigest()
            index_path = self.index_root / f"{digest}.json"
            if not self._claim_index(index_path):
                existing = self._read_index(index_path)
                if existing is not None:
                    record = self.get(existing)
                    if record is not None:
                        return record, True
                # Stale index: the job was GC'd or the winner crashed
                # before writing it — fall through and re-point it.
        job_id = "j-" + secrets.token_hex(8)
        job_dir = self.job_dir(job_id)
        self.checkpoint_dir(job_id).mkdir(parents=True, exist_ok=True)
        now = self._clock()
        submitted = {
            "event": "submitted",
            "ts": now,
            "job_id": job_id,
            "kind": kind,
            "params": params,
            "idempotency_key": idempotency_key,
            "deadline_s": deadline_s,
            "ttl_s": ttl_s,
            "max_attempts": max_attempts,
        }
        # The journal appears whole (header + submission) or not at all.
        create_log(
            self.events_path(job_id), {"format": JOB_JOURNAL_FORMAT, "job_id": job_id}, submitted
        )
        if index_path is not None:
            atomic_write_text(
                index_path,
                json.dumps(
                    {"job_id": job_id, "key": idempotency_key}, sort_keys=True
                )
                + "\n",
            )
        record = self.get(job_id)
        assert record is not None
        return record, False

    @staticmethod
    def _claim_index(path: Path) -> bool:
        """Win the ``O_EXCL`` race to own one idempotency key, or lose it."""
        try:
            os.close(os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644))
        except FileExistsError:
            return False
        return True

    @staticmethod
    def _read_index(path: Path, *, attempts: int = 100) -> "str | None":
        """Read the key's job id, briefly waiting out a winner mid-write."""
        for attempt in range(attempts):
            try:
                payload = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, json.JSONDecodeError):
                payload = None
            if isinstance(payload, dict) and isinstance(payload.get("job_id"), str):
                return payload["job_id"]
            if attempt + 1 < attempts:
                time.sleep(0.01)
        return None

    # -- journal reads and appends ---------------------------------------

    def get(self, job_id: str) -> "JobRecord | None":
        """Fold one job's journal into its current record; None if gone."""
        records = load_log(self.events_path(job_id), format=JOB_JOURNAL_FORMAT)
        if records is None:
            return None  # no journal, or an unusable header: the job is invisible
        record = fold_events([r for r in records if isinstance(r.get("event"), str)])
        if record is not None and self.cancel_flag(job_id).exists():
            record.cancel_requested = True
        return record

    def list_jobs(
        self, *, state: "str | None" = None, kind: "str | None" = None
    ) -> "list[JobRecord]":
        """Every job's record, oldest submission first, optionally filtered."""
        records = []
        try:
            entries = sorted(self.jobs_root.iterdir())
        except OSError:
            return []
        for entry in entries:
            record = self.get(entry.name)
            if record is None:
                continue
            if state is not None and record.state != state:
                continue
            if kind is not None and record.kind != kind:
                continue
            records.append(record)
        records.sort(key=lambda r: (r.created_at, r.job_id))
        return records

    def append_event(self, job_id: str, event: str, **fields: Any) -> None:
        """Append one CRC'd lifecycle record, fsync'd, or raise :class:`OSError`.

        Concurrent appenders (a canceller in one worker, the runner in
        another) interleave whole records, never bytes.
        """
        append_record(self.events_path(job_id), {"event": event, "ts": self._clock(), **fields})

    # -- execution ownership ---------------------------------------------

    def claim(self, job_id: str) -> "FlockClaim | None":
        """Try to own the job's execution; ``None`` when already owned."""
        claim = FlockClaim(self.job_dir(job_id) / "claim.lock")
        try:
            acquired = claim.acquire()
        except OSError:
            return None  # job dir GC'd underneath us
        return claim if acquired else None

    def request_cancel(self, job_id: str) -> "JobRecord | None":
        """Ask a job to stop; immediate for unclaimed jobs, cooperative else.

        The cancel flag is visible to whichever process owns the claim
        (checked between sweep points). When nobody owns it — queued, or
        orphaned by a dead owner — this call claims it and finalises the
        cancellation on the spot.
        """
        record = self.get(job_id)
        if record is None or record.terminal:
            return record
        atomic_write_text(self.cancel_flag(job_id), "cancelled\n")
        claim = self.claim(job_id)
        if claim is None:
            self.append_event(job_id, "cancel_requested")
            return self.get(job_id)
        try:
            fresh = self.get(job_id)
            if fresh is not None and not fresh.terminal:
                self.append_event(job_id, "cancelled")
                _CANCELLED.inc()
        finally:
            claim.release()
        return self.get(job_id)

    # -- results ---------------------------------------------------------

    def write_result(self, job_id: str, payload: "dict[str, Any]") -> None:
        """Atomically persist the result artifact (byte-stable JSON)."""
        from repro.serve.validation import stable_json

        atomic_write_bytes(self.result_path(job_id), stable_json(payload))

    def read_result(self, job_id: str) -> "dict[str, Any] | None":
        """Load the result artifact; ``None`` when absent or unreadable."""
        try:
            return json.loads(self.result_path(job_id).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            return None

    # -- TTL garbage collection ------------------------------------------

    def gc(self) -> int:
        """Remove terminal jobs past their TTL (journal, artifacts, all).

        Deletion happens under the job's claim so a job cannot be
        collected while a runner still owns it; stale idempotency
        indexes pointing at collected jobs are pruned afterwards.
        """
        removed = 0
        now = self._clock()
        for record in self.list_jobs():
            if not record.terminal or record.finished_at is None:
                continue
            if now - record.finished_at < record.ttl_s:
                continue
            claim = self.claim(record.job_id)
            if claim is None:
                continue
            try:
                shutil.rmtree(self.job_dir(record.job_id), ignore_errors=True)
                removed += 1
            finally:
                claim.release()
        if removed:
            for index in self.index_root.glob("*.json"):
                job_id = self._read_index(index, attempts=1)
                if job_id is not None and not self.events_path(job_id).exists():
                    index.unlink(missing_ok=True)
        return removed

    # -- observability ---------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """The backlog view ``/v1/readyz`` serves under its ``jobs`` key.

        Because every pre-fork worker shares this store, any worker's
        stats are already fleet-wide — no bus aggregation needed.
        """
        tallies = {state: 0 for state in JOB_STATES}
        oldest_queued: "float | None" = None
        for record in self.list_jobs():
            tallies[record.state] = tallies.get(record.state, 0) + 1
            if record.state == "queued":
                if oldest_queued is None or record.created_at < oldest_queued:
                    oldest_queued = record.created_at
        return {
            "queued": tallies["queued"],
            "running": tallies["running"],
            "states": tallies,
            "oldest_queued_age_s": (
                None
                if oldest_queued is None
                else round(max(self._clock() - oldest_queued, 0.0), 3)
            ),
        }


# -- job kinds -------------------------------------------------------------


@dataclass(frozen=True)
class JobKind:
    """One registered job type: a validator and a runner.

    ``validate`` maps raw string parameters (query/body fields) onto a
    normalised JSON-typed dict — journalled verbatim, so a crash-resumed
    execution sees exactly the parameters the original validated.
    ``run(params, context)`` produces the JSON result document; it must
    be a pure function of ``params`` (given the checkpoint journal) for
    the byte-identical resume contract to hold.
    """

    name: str
    summary: str
    validate: Callable[[Mapping[str, str]], dict[str, Any]]
    run: Callable[[dict[str, Any], "JobContext"], dict[str, Any]]


_JOB_KINDS: dict[str, JobKind] = {}


def register_job_kind(kind: JobKind, *, replace: bool = False) -> None:
    """Add a kind to the process-wide registry (roadmap item 2's hook)."""
    if not replace and kind.name in _JOB_KINDS:
        raise ValueError(f"job kind {kind.name!r} is already registered")
    _JOB_KINDS[kind.name] = kind


def job_kinds() -> tuple[str, ...]:
    """Every registered kind name, sorted."""
    return tuple(sorted(_JOB_KINDS))


def get_job_kind(name: str) -> JobKind:
    """Look up a registered kind; raises ``KeyError`` when unknown."""
    return _JOB_KINDS[name]


class JobContext:
    """What a running job kind may touch: checkpoints and checkpoints only.

    The context threads the job's cooperative obligations — cancel
    flag, drain signal, wall-clock deadline — through every sweep point
    via :meth:`heartbeat`, and owns the per-job checkpoint directory
    that makes a SIGKILLed execution resumable.
    """

    def __init__(
        self,
        record: JobRecord,
        store: JobStore,
        *,
        drain: "threading.Event | None" = None,
        clock: Callable[[], float] = time.time,
    ):
        self.job_id = record.job_id
        self.params = record.params
        self._store = store
        self._drain = drain if drain is not None else threading.Event()
        self._clock = clock
        self._deadline_at = (
            record.created_at + record.deadline_s if record.deadline_s > 0 else None
        )

    @property
    def checkpoint_dir(self) -> Path:
        """The job's private checkpoint directory (created on demand)."""
        path = self._store.checkpoint_dir(self.job_id)
        path.mkdir(parents=True, exist_ok=True)
        return path

    def heartbeat(self) -> None:
        """The per-point checkpoint: raises when the job must stop now."""
        if self._drain.is_set():
            raise _JobInterrupted(self.job_id)
        if self._store.cancel_flag(self.job_id).exists():
            raise _JobCancelled(self.job_id)
        if self._deadline_at is not None and self._clock() > self._deadline_at:
            raise _JobExpired(self.job_id)

    def run_sweep(
        self,
        name: str,
        fn: Callable[[Any], Any],
        points: "list[Any]",
        *,
        spec: "dict[str, Any]",
        throttle_s: float = 0.0,
    ) -> list[Any]:
        """Evaluate a checkpointed sweep with cooperative interruption.

        Every point is journalled as it completes (fsync'd), so however
        this execution ends — crash, cancel, drain, deadline — the next
        attempt restores the finished points bit-identically and only
        computes the remainder. ``throttle_s`` sleeps before each
        *fresh* point (restored points pay nothing): a chaos/testing aid
        that shapes scheduling, never values.
        """

        def guarded(point: Any) -> Any:
            self.heartbeat()
            if throttle_s > 0.0:
                time.sleep(throttle_s)
            return fn(point)

        checkpoint = SweepCheckpoint.open(
            name, spec, directory=str(self.checkpoint_dir)
        )
        try:
            result = sweep(guarded, points, executor="serial", checkpoint=checkpoint)
        finally:
            checkpoint.close()
        return list(result.values)


# -- built-in kinds --------------------------------------------------------


def _validate_survey_costs(params: Mapping[str, str]) -> dict[str, Any]:
    """Validate ``survey-costs`` parameters (the async survey workload)."""
    require_known(params, ("n", "throttle"))
    return {
        "n": int_field(params, "n", default=16, minimum=1, maximum=MAX_DESIGN_N),
        "throttle": float_field(
            params, "throttle", default=0.0, minimum=0.0, maximum=5.0
        ),
    }


def _run_survey_costs(params: "dict[str, Any]", context: JobContext) -> dict[str, Any]:
    """Price the 25-machine survey through a checkpointed serial sweep."""
    from repro.analysis.survey_costs import cost_point
    from repro.registry.architectures import all_architectures

    records = list(all_architectures())
    n = int(params["n"])
    worker = functools.partial(cost_point, default_n=n, cache=None)
    points = context.run_sweep(
        "survey-costs",
        worker,
        records,
        spec={"default_n": n, "records": [record.name for record in records]},
        throttle_s=float(params.get("throttle", 0.0)),
    )
    rows = [
        {
            "name": point.name,
            "class": point.taxonomic_name,
            "flexibility": point.flexibility,
            "n_effective": point.n_effective,
            "area_ge": point.area_ge,
            "config_bits": point.config_bits,
            "energy_per_op_pj": point.energy_per_op_pj,
            "reconfig_cycles": point.reconfig_cycles,
        }
        for point in points
    ]
    return {"kind": "survey-costs", "default_n": n, "count": len(rows), "points": rows}


def _validate_population(params: Mapping[str, str]) -> dict[str, Any]:
    """Validate ``population`` parameters (generation + occupancy analytics)."""
    from repro.registry.populations import POPULATION_MODES

    require_known(params, ("size", "seed", "mode", "max-n", "chunk", "throttle"))
    return {
        "size": int_field(params, "size", default=1024, minimum=1, maximum=1_000_000),
        "seed": int_field(params, "seed", default=0, minimum=0),
        "mode": choice_field(params, "mode", POPULATION_MODES, default="stratified"),
        "max_n": int_field(params, "max-n", default=256, minimum=2, maximum=4096),
        "chunk": int_field(params, "chunk", default=512, minimum=1, maximum=65536),
        "throttle": float_field(
            params, "throttle", default=0.0, minimum=0.0, maximum=5.0
        ),
    }


def _population_chunk(
    index: int, *, size: int, chunk: int, seed: int, mode: str, max_n: int
) -> dict[int, int]:
    """Class occupancy of one seed-offset population chunk (pure)."""
    from repro.registry.populations import (
        PopulationSpec,
        class_occupancy,
        generate_signatures,
    )

    count = min(chunk, size - index * chunk)
    spec = PopulationSpec(size=count, seed=seed + index, mode=mode, max_n=max_n)
    return class_occupancy(generate_signatures(spec))


def _run_population(params: "dict[str, Any]", context: JobContext) -> dict[str, Any]:
    """Generate a chunked synthetic population and fold its occupancy.

    Each chunk is an independent seed-offset
    :class:`~repro.registry.populations.PopulationSpec`, so a chunk's
    occupancy is a pure function of ``(params, chunk index)`` — the
    property that makes the per-chunk checkpoint journal resumable and
    the merged analytics deterministic.
    """
    size, chunk = int(params["size"]), int(params["chunk"])
    indices = list(range((size + chunk - 1) // chunk))
    worker = functools.partial(
        _population_chunk,
        size=size,
        chunk=chunk,
        seed=int(params["seed"]),
        mode=str(params["mode"]),
        max_n=int(params["max_n"]),
    )
    spec = {key: params[key] for key in ("size", "seed", "mode", "max_n", "chunk")}
    chunks = context.run_sweep(
        "population",
        worker,
        indices,
        spec=spec,
        throttle_s=float(params.get("throttle", 0.0)),
    )
    occupancy: dict[str, int] = {}
    for counts in chunks:
        for serial, count in counts.items():
            key = str(serial)
            occupancy[key] = occupancy.get(key, 0) + count
    return {
        "kind": "population",
        "size": size,
        "seed": int(params["seed"]),
        "mode": str(params["mode"]),
        "chunks": len(indices),
        "classes": len(occupancy),
        "total": sum(occupancy.values()),
        "occupancy": occupancy,
    }


register_job_kind(
    JobKind(
        name="survey-costs",
        summary="price the 25 surveyed architectures (async /v1/survey?costs=true)",
        validate=_validate_survey_costs,
        run=_run_survey_costs,
    )
)
register_job_kind(
    JobKind(
        name="population",
        summary="generate a synthetic signature population and its class occupancy",
        validate=_validate_population,
        run=_run_population,
    )
)


# -- the bounded runner ----------------------------------------------------


class JobManager:
    """The bounded job runner: claims, executes, retries, GCs, drains.

    ``runners`` daemon threads loop over the shared store: claim the
    oldest eligible job (queued and due, or ``running`` with a free
    claim — an orphan whose owner died), execute its kind, journal the
    outcome. The scan loop doubles as the TTL garbage collector and the
    gauge refresher. :meth:`drain` is the SIGTERM path: running jobs are
    interrupted at their next heartbeat, journalled back to ``queued``
    (their completed points already fsync'd) and picked up by the next
    process to open the store.
    """

    def __init__(
        self,
        directory: "str | os.PathLike",
        *,
        runners: int = 2,
        poll_s: float = 0.25,
        default_deadline_s: float = DEFAULT_DEADLINE_S,
        default_ttl_s: float = DEFAULT_TTL_S,
        default_max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        retry: "RetryPolicy | None" = None,
        clock: Callable[[], float] = time.time,
    ):
        if runners < 1:
            raise ValueError(f"runners must be >= 1, got {runners}")
        if poll_s <= 0:
            raise ValueError(f"poll_s must be positive, got {poll_s}")
        self.store = JobStore(directory, clock=clock)
        self.runners = runners
        self._poll_s = poll_s
        self._defaults = {
            "deadline_s": default_deadline_s,
            "ttl_s": default_ttl_s,
            "max_attempts": default_max_attempts,
        }
        self._retry = retry if retry is not None else RetryPolicy(backoff_s=0.1, seed=0)
        self._clock = clock
        self._wake = threading.Event()
        self._stop = threading.Event()
        self._drain_event = threading.Event()
        self._threads = [
            threading.Thread(target=self._run_loop, name=f"job-runner-{i}", daemon=True)
            for i in range(runners)
        ]
        for thread in self._threads:
            thread.start()

    # -- the public surface ----------------------------------------------

    def submit(
        self,
        kind_name: str,
        params: Mapping[str, str],
        *,
        idempotency_key: "str | None" = None,
        deadline_s: "float | None" = None,
        ttl_s: "float | None" = None,
        max_attempts: "int | None" = None,
    ) -> "tuple[JobRecord, bool]":
        """Validate and journal one submission; returns (record, deduped)."""
        kind = get_job_kind(kind_name)
        normalized = kind.validate(params)
        record, deduped = self.store.submit(
            kind_name,
            normalized,
            idempotency_key=idempotency_key,
            deadline_s=self._defaults["deadline_s"] if deadline_s is None else deadline_s,
            ttl_s=self._defaults["ttl_s"] if ttl_s is None else ttl_s,
            max_attempts=(
                self._defaults["max_attempts"] if max_attempts is None else max_attempts
            ),
        )
        if deduped:
            _DEDUPED.inc()
        else:
            _SUBMITTED.inc()
            self._wake.set()
        return record, deduped

    def cancel(self, job_id: str) -> "JobRecord | None":
        """Request cancellation; immediate when no runner owns the job."""
        return self.store.request_cancel(job_id)

    def stats(self) -> dict[str, Any]:
        """Store-wide backlog stats plus this process's runner bound."""
        return {**self.store.stats(), "runners": self.runners}

    def drain(self, timeout_s: float = 5.0) -> bool:
        """Stop claiming, interrupt running jobs, join the runner threads.

        Running jobs observe the drain at their next heartbeat and are
        journalled back to ``queued`` — every point they completed is
        already on disk, so the next opener resumes, not restarts.
        """
        self._drain_event.set()
        self._stop.set()
        self._wake.set()
        clean = True
        for thread in self._threads:
            thread.join(timeout_s)
            clean = clean and not thread.is_alive()
        return clean

    # -- the runner loop -------------------------------------------------

    def _run_loop(self) -> None:
        while not self._stop.is_set():
            claimed = self._claim_next()
            if claimed is None:
                try:
                    removed = self.store.gc()
                except OSError:  # pragma: no cover - GC is best-effort
                    removed = 0
                if removed:
                    _GC_REMOVED.inc(removed)
                self._refresh_gauges()
                self._wake.wait(timeout=self._poll_s)
                self._wake.clear()
                continue
            record, claim = claimed
            try:
                self._execute(record)
            finally:
                claim.release()

    def _claim_next(self) -> "tuple[JobRecord, FlockClaim] | None":
        """The oldest eligible job we can own, re-validated under its claim."""
        if self._drain_event.is_set():
            return None
        now = self._clock()
        for record in self.store.list_jobs():
            if record.state == "queued":
                if record.not_before is not None and record.not_before > now:
                    continue
            elif record.state != "running":
                continue  # terminal, or a state we never execute
            claim = self.store.claim(record.job_id)
            if claim is None:
                continue
            fresh = self.store.get(record.job_id)
            if (
                fresh is None
                or fresh.terminal
                or (
                    fresh.state == "queued"
                    and fresh.not_before is not None
                    and fresh.not_before > self._clock()
                )
            ):
                claim.release()
                continue
            if fresh.state == "running":
                # Free claim + running state = the previous owner died
                # mid-execution; we are adopting its checkpointed work.
                _RESUMED.inc()
            return fresh, claim

        return None

    def _execute(self, record: JobRecord) -> None:
        """Run one claimed job to a journalled outcome."""
        job_id = record.job_id
        if record.cancel_requested:
            self.store.append_event(job_id, "cancelled")
            _CANCELLED.inc()
            return
        self.store.append_event(job_id, "started")
        _STARTED.inc()
        self._refresh_gauges()
        fresh = self.store.get(job_id)
        if fresh is None:
            return
        context = JobContext(
            fresh, self.store, drain=self._drain_event, clock=self._clock
        )
        try:
            context.heartbeat()
            kind = get_job_kind(fresh.kind)
            payload = kind.run(fresh.params, context)
        except _JobCancelled:
            self.store.append_event(job_id, "cancelled")
            _CANCELLED.inc()
        except _JobInterrupted:
            self.store.append_event(job_id, "interrupted")
            _INTERRUPTED.inc()
        except _JobExpired:
            self.store.append_event(
                job_id, "expired", error=f"deadline of {fresh.deadline_s:g}s exceeded"
            )
            _EXPIRED.inc()
        except KeyError:
            self.store.append_event(
                job_id, "failed", error=f"unknown job kind {fresh.kind!r}"
            )
            _FAILED.inc()
        except Exception as error:  # noqa: BLE001 - journalled, never raised
            self._fail_or_retry(fresh, error)
        else:
            # Artifact before verdict: a crash between the two re-runs
            # the job and atomically rewrites identical bytes.
            self.store.write_result(job_id, payload)
            self.store.append_event(job_id, "succeeded")
            _SUCCEEDED.inc()
            _LATENCY.observe(max(self._clock() - fresh.created_at, 0.0))
        self._refresh_gauges()

    def _fail_or_retry(self, record: JobRecord, error: Exception) -> None:
        """Journal a failure: seeded-backoff requeue when transient."""
        transient = isinstance(
            error, (TransientJobError, FaultError, OSError, TimeoutError)
        )
        if transient and record.attempts < record.max_attempts:
            delay = backoff_delay(record.job_id, record.attempts, policy=self._retry)
            self.store.append_event(
                record.job_id,
                "retrying",
                not_before=self._clock() + delay,
                error=repr(error),
            )
            _RETRIES.inc()
            return
        self.store.append_event(record.job_id, "failed", error=repr(error))
        _FAILED.inc()

    def _refresh_gauges(self) -> None:
        stats = self.store.stats()
        _QUEUED_G.set(stats["queued"])
        _RUNNING_G.set(stats["running"])


# -- the REST surface ------------------------------------------------------

#: Submission parameters the API consumes before kind validation sees
#: the rest.
_RESERVED_SUBMIT_PARAMS = ("kind", "idempotency-key", "deadline", "ttl", "max-attempts")


class JobsApi:
    """The ``/v1/jobs`` endpoint handlers over one :class:`JobManager`."""

    def __init__(self, manager: JobManager):
        self.manager = manager

    def register(self, router: Router) -> None:
        """Mount the job routes (exact list/submit, prefixed poll/cancel)."""
        router.add("POST", "/v1/jobs", self.handle_submit)
        router.add("GET", "/v1/jobs", self.handle_list)
        router.add_prefix("GET", "/v1/jobs", self.handle_get)
        router.add_prefix("DELETE", "/v1/jobs", self.handle_cancel)

    # -- handlers --------------------------------------------------------

    def handle_submit(self, request: Request) -> Response:
        """``POST /v1/jobs`` — submit (or idempotently re-submit) a job."""
        params = dict(request.params)
        kind_name = string_field(params, "kind", required=True)
        idempotency_key = string_field(params, "idempotency-key")
        deadline_s = float_field(params, "deadline", minimum=0.1, maximum=86400.0)
        ttl_s = float_field(params, "ttl", minimum=0.0, maximum=604800.0)
        max_attempts = int_field(params, "max-attempts", minimum=1, maximum=10)
        for reserved in _RESERVED_SUBMIT_PARAMS:
            params.pop(reserved, None)
        try:
            get_job_kind(kind_name)
        except KeyError:
            raise BadRequestError(
                f"unknown job kind {kind_name!r}; "
                f"registered kinds: {', '.join(job_kinds())}"
            ) from None
        request.check_deadline("validating the submission")
        record, deduplicated = self.manager.submit(
            kind_name,
            params,
            idempotency_key=idempotency_key,
            deadline_s=deadline_s,
            ttl_s=ttl_s,
            max_attempts=max_attempts,
        )
        return Response(
            status=200 if deduplicated else 202,
            payload={"job": record.payload(), "deduplicated": deduplicated},
        )

    def handle_list(self, request: Request) -> Response:
        """``GET /v1/jobs`` — every job, filterable by state and kind."""
        params = request.params
        require_known(params, ("state", "kind"))
        state = choice_field(params, "state", JOB_STATES)
        kind = string_field(params, "kind")
        records = self.manager.store.list_jobs(state=state, kind=kind)
        return Response(
            payload={
                "count": len(records),
                "jobs": [record.payload() for record in records],
            }
        )

    def handle_get(self, request: Request) -> Response:
        """``GET /v1/jobs/{id}`` poll and ``GET /v1/jobs/{id}/result``."""
        job_id, rest = self._split(request.path)
        if rest == "":
            record = self._record_or_404(job_id)
            return Response(payload={"job": record.payload()})
        if rest == "result":
            return self._handle_result(job_id)
        raise NotFoundError(f"no such endpoint: {request.path}")

    def _handle_result(self, job_id: str) -> Response:
        record = self._record_or_404(job_id)
        if record.state == "succeeded":
            result = self.manager.store.read_result(job_id)
            if result is None:
                raise ConflictError(
                    f"job {job_id} succeeded but its result artifact is gone "
                    "(collected or corrupt)"
                )
            return Response(payload=result)
        if record.terminal:
            raise ConflictError(
                f"job {job_id} ended in state {record.state!r}"
                + (f": {record.error}" if record.error else "")
            )
        raise ConflictError(
            f"job {job_id} is {record.state}; the result is not ready",
            retry_after_s=1.0,
        )

    def handle_cancel(self, request: Request) -> Response:
        """``DELETE /v1/jobs/{id}`` — request cooperative cancellation."""
        job_id, rest = self._split(request.path)
        if rest != "":
            raise NotFoundError(f"no such endpoint: {request.path}")
        record = self.manager.cancel(job_id)
        if record is None:
            raise NotFoundError(f"no such job: {job_id}")
        return Response(payload={"job": record.payload()})

    # -- helpers ---------------------------------------------------------

    @staticmethod
    def _split(path: str) -> "tuple[str, str]":
        """``/v1/jobs/{id}[/suffix]`` → ``(id, suffix)``."""
        remainder = path[len("/v1/jobs/"):]
        job_id, _, rest = remainder.partition("/")
        if not job_id:
            raise NotFoundError(f"no such endpoint: {path}")
        return job_id, rest

    def _record_or_404(self, job_id: str) -> JobRecord:
        record = self.manager.store.get(job_id)
        if record is None:
            raise NotFoundError(f"no such job: {job_id}")
        return record
