"""The distributed sweep fabric: one sweep, many hosts, zero lost points.

:func:`fabric_sweep` is the multi-host sibling of
:func:`repro.perf.engine.sweep`: the same pure-function-over-points
contract, the same :class:`~repro.perf.engine.PointResult` outcome
taxonomy, the same deterministic input-order results — but the points
are evaluated by *worker processes on other hosts*, connected over
plain TCP (stdlib only, like everything else in this package).

Topology
--------

Workers are servers; the coordinator dials them::

    repro-taxonomy sweep-worker --listen 0.0.0.0:7070     # on each host
    repro-taxonomy costs --workers hostA:7070,hostB:7070  # coordinator

The coordinator shards the point grid into *leases* (``lease_size``
points each), hands leases to workers as they ask for work, and tracks
every lease against its worker's heartbeat. The design is
robustness-first, because at fleet scale worker death is the normal
case, not the exception:

* **failure detection** — a dead socket (the worker was SIGKILLed, its
  host rebooted) or a missed heartbeat (``lease_ttl_s`` without a sign
  of life — the worker is wedged or partitioned) expires the worker:
  every point it held is re-queued and evaluated elsewhere;
* **elastic membership** — a lost endpoint is not lost capacity: the
  coordinator re-dials it with seeded exponential backoff + jitter
  (:class:`MembershipPolicy`), and an optional listen socket lets
  brand-new workers *register* mid-sweep (``listen=``) — late joins and
  rejoins are issued leases immediately;
* **quarantine** — a per-worker health ledger (consecutive losses,
  crash-budget spend, heartbeat gap) spots flapping workers; past
  ``quarantine_losses`` consecutive losses a worker sits out a
  geometric probation (mirroring the serve circuit breaker) and is
  ejected for good once it exhausts ``max_quarantines``;
* **adaptive leases** — each worker's observed points/sec (EWMA) sizes
  its next lease between ``lease_size`` and ``max_lease_size``, so
  stragglers stop hoarding work and fast workers stop round-tripping;
* **work-stealing** — an idle worker with nothing left in the queue
  duplicates the oldest outstanding lease of a straggler; the first
  result for a point wins and later duplicates are discarded, which is
  sound because point functions are pure;
* **bounded crash retry** — a point whose holder died is re-queued at
  most ``max_point_crashes`` times; past that it is treated as a
  *poison point* (the same identification PR 4's single-host engine
  performs) and finished through the engine's last-resort path instead
  of wedging the fleet;
* **graceful degradation** — if no worker joins within
  ``join_deadline_s``, or every worker is lost and none can possibly
  return within a lease TTL, the coordinator finishes the remaining
  points locally: a lost fleet costs wall-clock, never a lost sweep;
* **checkpointing** — pass a
  :class:`~repro.perf.journal.ShardedCheckpoint` and every completed
  point is fsync-journalled into its index's home shard as results
  arrive; a killed coordinator resumes bit-identically, exactly like
  the single-host ``--resume``.

Results are byte-identical to a single-host run: outcomes are keyed by
point index, values are whatever the pure point function returns, and
the fabric's scheduling (which worker, in what order, stolen, rejoined
or not) leaves no trace in the output.

Fleet health (state per endpoint, rejoin counts, lease latency) is
published through :func:`fleet_health` and ``fabric.*`` gauges so the
serve plane's ``/v1/readyz`` — and any orchestrator scraping it — can
watch the fleet breathe.

Trust model: the worker executes a function object shipped by whoever
connects to it — the same trust level as unpickling a checkpoint
journal. Bind workers to loopback or a network you trust.
"""

from __future__ import annotations

import base64
import copy
import json
import os
import pickle
import socket
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from repro.core.durable import check_backoff, seeded_backoff
from repro.core.errors import FabricError
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.perf import engine as _engine
from repro.perf.engine import PointResult, RetryPolicy, SweepResult

__all__ = [
    "DEFAULT_HEARTBEAT_S",
    "DEFAULT_JOIN_DEADLINE_S",
    "DEFAULT_LEASE_SIZE",
    "DEFAULT_MAX_POINT_CRASHES",
    "FABRIC_PROTOCOL",
    "FABRIC_PROTOCOLS",
    "MembershipPolicy",
    "WORKER_ENV",
    "FabricWorker",
    "fabric_sweep",
    "fleet_health",
    "parse_endpoints",
]

#: Protocol tag this build speaks natively (offered in every handshake).
FABRIC_PROTOCOL = "repro-sweep-fabric/2"

#: Protocol tags the coordinator accepts, newest first. A v1 worker's
#: hello is answered with a v1 job frame (the coordinator echoes the
#: worker's protocol), so old fleets keep working against new drivers.
FABRIC_PROTOCOLS = ("repro-sweep-fabric/2", "repro-sweep-fabric/1")

#: Environment variable set to ``"1"`` inside ``sweep-worker`` processes,
#: so point functions can tell whether they run on a worker or locally.
WORKER_ENV = "REPRO_SWEEP_WORKER"

#: Points per lease. Small leases keep re-queue cost and steal
#: granularity low; raise it only when points are very cheap.
DEFAULT_LEASE_SIZE = 1

#: Seconds a worker may go silent before its leases expire (multiples
#: of the heartbeat interval; see :func:`fabric_sweep`).
DEFAULT_LEASE_TTL_BEATS = 4

#: Default worker heartbeat interval in seconds.
DEFAULT_HEARTBEAT_S = 0.5

#: How long the coordinator waits for workers before degrading to
#: local execution.
DEFAULT_JOIN_DEADLINE_S = 2.0

#: Times a point may crash (lose) its worker before it is treated as
#: poison and finished through the last-resort path.
DEFAULT_MAX_POINT_CRASHES = 2

_FABRIC_SWEEPS = _metrics.REGISTRY.counter(
    "fabric.sweeps", help="fabric_sweep() invocations (including local fallbacks)"
)
_WORKERS_JOINED = _metrics.REGISTRY.counter(
    "fabric.workers_joined", help="workers that completed the join handshake"
)
_WORKERS_LOST = _metrics.REGISTRY.counter(
    "fabric.workers_lost", help="workers lost mid-sweep (dead socket or expired lease)"
)
_WORKERS_REJOINED = _metrics.REGISTRY.counter(
    "fabric.workers_rejoined", help="lost endpoints re-admitted after a successful re-dial"
)
_LATE_JOINS = _metrics.REGISTRY.counter(
    "fabric.late_joins", help="workers that registered on the listen socket mid-sweep"
)
_WORKERS_QUARANTINED = _metrics.REGISTRY.counter(
    "fabric.workers_quarantined", help="flapping workers put on re-admission probation"
)
_WORKERS_EJECTED = _metrics.REGISTRY.counter(
    "fabric.workers_ejected", help="workers ejected after exhausting their quarantine budget"
)
_LEASES_EXPIRED = _metrics.REGISTRY.counter(
    "fabric.leases_expired", help="leases expired by missed heartbeats"
)
_POINTS_STOLEN = _metrics.REGISTRY.counter(
    "fabric.points_stolen", help="straggler points duplicated onto idle workers"
)
_POINTS_REQUEUED = _metrics.REGISTRY.counter(
    "fabric.points_requeued", help="points re-queued after their worker was lost"
)
_POINTS_RESPAWNED = _metrics.REGISTRY.counter(
    "fabric.poison_points", help="points that exhausted their crash budget"
)
_LOCAL_FALLBACKS = _metrics.REGISTRY.counter(
    "fabric.local_fallbacks", help="sweeps (or sweep tails) finished locally for lack of workers"
)
_LIVE_WORKERS = _metrics.REGISTRY.gauge(
    "fabric.live_workers", help="workers currently holding a live fabric session"
)
_QUARANTINED_WORKERS = _metrics.REGISTRY.gauge(
    "fabric.quarantined_workers", help="workers currently sitting out a probation window"
)
_PENDING_POINTS = _metrics.REGISTRY.gauge(
    "fabric.pending_points", help="points queued and not yet leased (scale on this)"
)
_LEASE_LATENCY = _metrics.REGISTRY.histogram(
    "fabric.lease_latency_s", help="seconds from lease issue to its result frame"
)


# -- wire helpers ----------------------------------------------------------


def parse_endpoints(value: "str | Iterable[Any]") -> "tuple[tuple[str, int], ...]":
    """Normalise worker endpoints into ``(host, port)`` pairs.

    Accepts the CLI's comma-separated string or any iterable of
    ``"host:port"`` strings / ``(host, port)`` pairs.

        >>> parse_endpoints("127.0.0.1:7070, hostB:7071")
        (('127.0.0.1', 7070), ('hostB', 7071))
        >>> parse_endpoints([("hostA", 9000)])
        (('hostA', 9000),)
    """
    if isinstance(value, str):
        tokens: "list[Any]" = [t.strip() for t in value.split(",") if t.strip()]
    else:
        tokens = list(value)
    endpoints: list[tuple[str, int]] = []
    for token in tokens:
        if isinstance(token, str):
            host, _, port_text = token.rpartition(":")
            if not host or not port_text.isdigit():
                raise FabricError(
                    f"worker endpoint must look like HOST:PORT, got {token!r}"
                )
            endpoints.append((host, int(port_text)))
        else:
            host, port = token
            endpoints.append((str(host), int(port)))
    if not endpoints:
        raise FabricError("at least one worker endpoint is required")
    return tuple(endpoints)


def _pack(obj: Any) -> str:
    """Pickle ``obj`` and wrap it for transport inside a JSON frame."""
    return base64.b64encode(pickle.dumps(obj)).decode("ascii")


def _unpack(text: str) -> Any:
    """Inverse of :func:`_pack`."""
    return pickle.loads(base64.b64decode(text))


def _send(wfile: Any, wlock: threading.Lock, message: "dict[str, Any]") -> None:
    """Write one newline-delimited JSON frame (thread-safe per link)."""
    line = json.dumps(message, sort_keys=True)
    with wlock:
        wfile.write(line + "\n")
        wfile.flush()


def _recv(rfile: Any) -> "dict[str, Any] | None":
    """Read one frame; ``None`` on a closed connection."""
    line = rfile.readline()
    if not line:
        return None
    try:
        frame = json.loads(line)
    except json.JSONDecodeError as error:
        raise FabricError(f"malformed fabric frame: {line[:80]!r}") from error
    if not isinstance(frame, dict) or "type" not in frame:
        raise FabricError(f"fabric frame without a type: {line[:80]!r}")
    return frame


# -- membership policy -----------------------------------------------------


@dataclass(frozen=True)
class MembershipPolicy:
    """How the coordinator heals, polices and prunes fleet membership.

    Two :func:`~repro.core.durable.seeded_backoff` schedules (the one
    every retry and recovery delay in the package uses) drive the two
    halves of the lifecycle; each ``max_*`` ceiling holds after jitter:

    * **rejoin** — a lost endpoint is re-dialed after
      ``rejoin_backoff_s``, doubling (``rejoin_factor``) per failed
      dial up to ``max_rejoin_backoff_s``; ``max_dial_failures``
      consecutive connection failures write the endpoint off as
      unreachable. ``rejoin_backoff_s = 0`` disables re-dialing
      entirely (the pre-elastic fabric's behaviour).
    * **quarantine** — ``quarantine_losses`` consecutive session losses
      (or any loss while on probation) quarantine the worker for
      ``probation_s``, doubling per quarantine up to
      ``max_probation_s``; more than ``max_quarantines`` quarantines
      eject it for the rest of the sweep.

    Jitter is deterministic: ``seed`` is hash-mixed with the endpoint
    ordinal and attempt number, so a membership schedule replays
    identically — which is what lets hypothesis pin the determinism
    contract over join/leave/quarantine interleavings.
    """

    rejoin_backoff_s: float = 0.25
    rejoin_factor: float = 2.0
    rejoin_jitter: float = 0.25
    max_rejoin_backoff_s: float = 2.0
    max_dial_failures: int = 3
    quarantine_losses: int = 3
    probation_s: float = 1.0
    probation_factor: float = 2.0
    max_probation_s: float = 30.0
    max_quarantines: int = 2
    seed: int = 0

    def __post_init__(self):
        """Validate the knobs; raises :class:`ValueError` on nonsense."""
        check_backoff(
            self, "rejoin_backoff_s", "rejoin_factor", "rejoin_jitter", "max_rejoin_backoff_s"
        )
        if self.max_dial_failures < 1:
            raise ValueError(
                f"max_dial_failures must be >= 1, got {self.max_dial_failures}"
            )
        if self.quarantine_losses < 1:
            raise ValueError(
                f"quarantine_losses must be >= 1, got {self.quarantine_losses}"
            )
        if self.probation_s <= 0.0:
            raise ValueError(f"probation_s must be positive, got {self.probation_s}")
        check_backoff(self, "probation_s", "probation_factor", "rejoin_jitter", "max_probation_s")
        if self.max_quarantines < 0:
            raise ValueError(
                f"max_quarantines must be >= 0, got {self.max_quarantines}"
            )

    def rejoin_delay_s(self, ordinal: int, attempt: int) -> float:
        """Seconds before re-dial ``attempt`` (1-based) of endpoint ``ordinal``."""
        return seeded_backoff(
            self.rejoin_backoff_s,
            self.rejoin_factor,
            attempt,
            jitter=self.rejoin_jitter,
            seed=self.seed,
            salts=(0, ordinal + 1, attempt),
            cap=self.max_rejoin_backoff_s,
        )

    def probation_delay_s(self, ordinal: int, quarantine_count: int) -> float:
        """Seconds quarantine ``quarantine_count`` (1-based) sidelines the worker."""
        return seeded_backoff(
            self.probation_s,
            self.probation_factor,
            quarantine_count,
            jitter=self.rejoin_jitter,
            seed=self.seed,
            salts=(0, -(ordinal + 1), quarantine_count),
            cap=self.max_probation_s,
        )


@dataclass
class _EndpointHealth:
    """The coordinator's health ledger entry for one worker identity.

    States: ``connecting`` (a dial is in flight), ``live`` (session up),
    ``lost`` (awaiting a rejoin backoff), ``quarantined`` (flapping —
    sitting out probation), ``unreachable`` (dial budget exhausted, or
    an inbound registration that cannot be re-dialed), ``ejected``
    (quarantine budget exhausted; out for the rest of the sweep).
    """

    ordinal: int
    endpoint: str
    addr: "tuple[str, int] | None"
    state: str = "connecting"
    link_id: "int | None" = None
    label: str = "?"
    losses: int = 0
    consecutive_losses: int = 0
    dial_failures: int = 0
    rejoins: int = 0
    quarantines: int = 0
    crash_spend: int = 0
    probation: bool = False
    gap_ewma_s: float = 0.0
    rate_ewma: float = 0.0
    next_attempt: float = 0.0
    dialing: bool = False

    def snapshot(self) -> "dict[str, Any]":
        """A JSON-safe view of this entry for :func:`fleet_health`."""
        return {
            "endpoint": self.endpoint,
            "identity": self.label,
            "state": self.state,
            "losses": self.losses,
            "consecutive_losses": self.consecutive_losses,
            "dial_failures": self.dial_failures,
            "rejoins": self.rejoins,
            "quarantines": self.quarantines,
            "crash_spend": self.crash_spend,
            "probation": self.probation,
            "heartbeat_gap_s": round(self.gap_ewma_s, 4),
            "points_per_s": round(self.rate_ewma, 3),
        }


# -- fleet health ----------------------------------------------------------

_FLEET_LOCK = threading.Lock()
_FLEET: "dict[str, Any]" = {"active": False, "workers": []}


def fleet_health() -> "dict[str, Any]":
    """A snapshot of the most recent (or in-flight) fabric sweep's fleet.

    ``{"active": bool, "workers": [ledger entries], "counts": {state:
    n}, "points": {"total", "done", "pending"}, "rejoins",
    "late_joins", "lease": {...}}``. Published once per coordinator
    tick; after the sweep ends the final tallies stay readable with
    ``active`` false. Concurrent sweeps overwrite each other — the
    serve plane runs one fabric sweep at a time, which is the intended
    consumer (``/v1/readyz``).
    """
    with _FLEET_LOCK:
        return copy.deepcopy(_FLEET)


def _publish(snapshot: "dict[str, Any]") -> None:
    """Replace the module-level fleet snapshot atomically."""
    with _FLEET_LOCK:
        _FLEET.clear()
        _FLEET.update(snapshot)


# -- coordinator -----------------------------------------------------------


@dataclass
class _Link:
    """One connected worker, as the coordinator sees it."""

    id: int
    endpoint: str
    sock: socket.socket
    rfile: Any
    wfile: Any
    host: str = "?"
    pid: int = 0
    wlock: threading.Lock = field(default_factory=threading.Lock)
    last_seen: float = field(default_factory=time.monotonic)
    lost: bool = False
    rate_ewma: float = 0.0
    gap_ewma_s: float = 0.0

    @property
    def label(self) -> str:
        """``host:pid`` identity for spans and diagnostics."""
        return f"{self.host}:{self.pid}"


@dataclass
class _Lease:
    """One batch of points out with a worker."""

    id: int
    worker: int
    pairs: "list[tuple[int, Any]]"
    issued: float
    stolen: bool = False


def _handshake(
    sock: socket.socket,
    endpoint: str,
    link_id: int,
    *,
    fn_blob: str,
    spec_blob: str,
    heartbeat_s: float,
    lease_ttl_s: float,
    timeout_s: float,
) -> _Link:
    """Complete the coordinator side of the handshake on a raw socket.

    The worker speaks first (hello) on *both* the dial and the
    registration path, which is what makes inbound registration a
    one-line reuse of this function. The job frame echoes whichever
    protocol the worker offered, so v1 workers — which check for an
    exact protocol match — keep working. Raises :class:`OSError` or
    :class:`FabricError`; the caller owns closing the socket then.
    """
    sock.settimeout(timeout_s)
    rfile = sock.makefile("r", encoding="utf-8", newline="\n")
    wfile = sock.makefile("w", encoding="utf-8", newline="\n")
    hello = _recv(rfile)
    if (
        hello is None
        or hello.get("type") != "hello"
        or hello.get("protocol") not in FABRIC_PROTOCOLS
    ):
        raise FabricError(
            f"worker {endpoint} spoke an unexpected protocol: {hello!r}"
        )
    link = _Link(
        id=link_id,
        endpoint=endpoint,
        sock=sock,
        rfile=rfile,
        wfile=wfile,
        host=str(hello.get("host", "?")),
        pid=int(hello.get("pid", 0)),
    )
    _send(
        wfile,
        link.wlock,
        {
            "type": "job",
            "protocol": str(hello.get("protocol")),
            "fn": fn_blob,
            "spec": spec_blob,
            "heartbeat_s": heartbeat_s,
            "lease_ttl_s": lease_ttl_s,
        },
    )
    sock.settimeout(None)
    return link


def _dial_once(
    endpoint: "tuple[str, int]",
    link_id: int,
    *,
    fn_blob: str,
    spec_blob: str,
    heartbeat_s: float,
    lease_ttl_s: float,
    timeout_s: float,
) -> _Link:
    """One connection + handshake attempt; raises on any failure."""
    host, port = endpoint
    sock = socket.create_connection((host, port), timeout=timeout_s)
    try:
        return _handshake(
            sock,
            f"{host}:{port}",
            link_id,
            fn_blob=fn_blob,
            spec_blob=spec_blob,
            heartbeat_s=heartbeat_s,
            lease_ttl_s=lease_ttl_s,
            timeout_s=timeout_s,
        )
    except (OSError, FabricError):
        try:
            sock.close()
        except OSError:
            pass
        raise


class _Coordinator:
    """Shard, lease, watch, steal, heal, merge — the fabric's control loop.

    One instance drives one sweep. Reader threads (one per worker link)
    handle the message traffic; the caller's thread runs :meth:`run`,
    which polices heartbeats, re-dials lost endpoints, admits
    late-registering workers, finishes poison points, and degrades to
    local execution when the fleet is gone for good. All shared state
    is guarded by one lock — the fabric's scale ceiling is network
    round-trips, not this lock.
    """

    def __init__(
        self,
        fn: Callable[[Any], Any],
        pairs: "list[tuple[int, Any]]",
        links: "list[_Link]",
        *,
        endpoints: "tuple[tuple[str, int], ...]",
        fn_blob: str,
        spec_blob: str,
        spec: Any,
        checkpoint: Any,
        lease_size: int,
        max_lease_size: int,
        heartbeat_s: float,
        lease_ttl_s: float,
        max_point_crashes: int,
        policy: MembershipPolicy,
        listener: "socket.socket | None",
        connect_timeout_s: float,
        span: Any,
    ):
        self._fn = fn
        self._fn_blob = fn_blob
        self._spec_blob = spec_blob
        self._spec = spec
        self._checkpoint = checkpoint
        self._lease_size = lease_size
        self._max_lease_size = max_lease_size
        self._heartbeat_s = heartbeat_s
        self._lease_ttl_s = lease_ttl_s
        self._max_point_crashes = max_point_crashes
        self._policy = policy
        self._listener = listener
        self._connect_timeout_s = connect_timeout_s
        self._span = span
        self._total = len(pairs)
        self._lock = threading.Lock()
        self._pending: "deque[tuple[int, Any]]" = deque(pairs)
        self._leases: dict[int, _Lease] = {}
        self._covered: dict[int, int] = {}
        self._results: dict[int, PointResult] = {}
        self._crashes: dict[int, int] = {}
        self._poison: "list[tuple[int, Any]]" = []
        self._poisoned: set[int] = set()
        self._links: dict[int, _Link] = {link.id: link for link in links}
        self._lease_seq = 0
        self._latency_ewma_s = 0.0
        self._late_joins = 0
        self._complete = threading.Event()
        self._tick_s = max(0.01, min(0.05, heartbeat_s / 4.0))
        self._readers: "list[threading.Thread]" = []
        # The health ledger: one entry per dialable endpoint up front
        # (ordinal == join-time link id), grown by registrations.
        now = time.monotonic()
        self._health: "list[_EndpointHealth]" = []
        self._health_by_link: "dict[int, _EndpointHealth]" = {}
        for ordinal, (host, port) in enumerate(endpoints):
            health = _EndpointHealth(
                ordinal=ordinal, endpoint=f"{host}:{port}", addr=(host, port)
            )
            link = self._links.get(ordinal)
            if link is not None:
                health.state = "live"
                health.link_id = ordinal
                health.label = link.label
                self._health_by_link[ordinal] = health
            elif policy.rejoin_backoff_s <= 0.0:
                health.state = "unreachable"
            else:
                health.state = "lost"
                health.next_attempt = now + policy.rejoin_delay_s(ordinal, 1)
            self._health.append(health)
        self._link_seq = len(endpoints)

    # -- lifecycle -------------------------------------------------------

    def run(self) -> "list[PointResult]":
        """Drive the sweep to completion; returns fresh outcomes."""
        for link in self._links.values():
            self._start_reader(link)
        if self._listener is not None:
            threading.Thread(
                target=self._accept_loop, name="fabric-accept", daemon=True
            ).start()
        try:
            if self._total == 0:
                self._complete.set()
            while not self._complete.is_set():
                self._complete.wait(self._tick_s)
                self._expire_stale_links()
                self._finish_poison_points()
                self._membership_tick()
                self._publish_fleet()
                with self._lock:
                    done = len(self._results) >= self._total
                    possible = self._workers_possible(time.monotonic())
                if done:
                    self._complete.set()
                elif not possible and not self._poison:
                    self._finish_locally()
        finally:
            self._complete.set()
            self._close_listener()
            self._shutdown_links()
            self._publish_fleet(active=False)
        with self._lock:
            readers = list(self._readers)
        for reader in readers:
            reader.join(timeout=2.0)
        with self._lock:
            return sorted(self._results.values(), key=lambda r: r.index)

    def _start_reader(self, link: _Link) -> None:
        """Spin up (and track) the reader thread for one link."""
        reader = threading.Thread(
            target=self._read_loop,
            args=(link,),
            name=f"fabric-worker-{link.id}",
            daemon=True,
        )
        with self._lock:
            self._readers.append(reader)
        reader.start()

    def _close_listener(self) -> None:
        """Stop accepting registrations (best effort)."""
        if self._listener is None:
            return
        try:
            self._listener.close()
        except OSError:
            pass

    def _shutdown_links(self) -> None:
        """Best-effort ``done`` + close on every link that is still up."""
        for link in list(self._links.values()):
            if link.lost:
                continue
            try:
                _send(link.wfile, link.wlock, {"type": "done"})
            except OSError:
                pass
            self._sever(link)

    @staticmethod
    def _sever(link: _Link) -> None:
        """Tear a link's socket down, unblocking its reader thread."""
        try:
            link.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            link.sock.close()
        except OSError:
            pass

    # -- elastic membership ----------------------------------------------

    def _workers_possible(self, now: float) -> bool:
        """Could any worker still produce results? (lock held).

        True while a link is live, a dial is in flight, or a lost /
        quarantined endpoint's next re-dial lands within one lease TTL
        — the horizon past which waiting costs more than finishing the
        tail locally.
        """
        if any(not link.lost for link in self._links.values()):
            return True
        for health in self._health:
            if health.dialing or health.state == "connecting":
                return True
            if (
                health.addr is not None
                and health.state in ("lost", "quarantined")
                and health.next_attempt <= now + self._lease_ttl_s
            ):
                return True
        return False

    def _membership_tick(self) -> None:
        """Schedule re-dials for every endpoint whose backoff has lapsed."""
        now = time.monotonic()
        due: "list[tuple[_EndpointHealth, int]]" = []
        with self._lock:
            if self._complete.is_set():
                return
            for health in self._health:
                if health.dialing or health.addr is None:
                    continue
                if health.state not in ("lost", "quarantined"):
                    continue
                if health.next_attempt > now:
                    continue
                if health.state == "quarantined":
                    health.probation = True
                health.dialing = True
                health.state = "connecting"
                self._link_seq += 1
                due.append((health, self._link_seq))
        for health, link_id in due:
            threading.Thread(
                target=self._redial,
                args=(health, link_id),
                name=f"fabric-redial-{health.ordinal}",
                daemon=True,
            ).start()

    def _redial(self, health: _EndpointHealth, link_id: int) -> None:
        """One re-dial attempt for a lost endpoint (own thread)."""
        try:
            link = _dial_once(
                health.addr,  # type: ignore[arg-type]
                link_id,
                fn_blob=self._fn_blob,
                spec_blob=self._spec_blob,
                heartbeat_s=self._heartbeat_s,
                lease_ttl_s=self._lease_ttl_s,
                timeout_s=self._connect_timeout_s,
            )
        except (OSError, FabricError):
            self._redial_failed(health)
            return
        if not self._admit(link, health, event="worker_rejoined"):
            return

    def _redial_failed(self, health: _EndpointHealth) -> None:
        """Bookkeeping after a failed re-dial: back off or write off."""
        unreachable = False
        with self._lock:
            health.dialing = False
            health.dial_failures += 1
            if health.dial_failures >= self._policy.max_dial_failures:
                health.state = "unreachable"
                unreachable = True
            else:
                health.state = "lost"
                health.next_attempt = time.monotonic() + self._policy.rejoin_delay_s(
                    health.ordinal, health.dial_failures + 1
                )
        if unreachable and not self._complete.is_set():
            self._span.add_event(
                "worker_unreachable",
                endpoint=health.endpoint,
                dial_failures=health.dial_failures,
            )

    def _admit(self, link: _Link, health: _EndpointHealth, *, event: str,
               start_reader: bool = True) -> bool:
        """Register a freshly-handshaken link (rejoin or late join)."""
        with self._lock:
            if self._complete.is_set():
                health.dialing = False
                if health.state == "connecting":
                    health.state = "lost"
                self._sever(link)
                return False
            self._links[link.id] = link
            self._health_by_link[link.id] = health
            health.link_id = link.id
            health.label = link.label
            health.state = "live"
            health.dialing = False
            health.dial_failures = 0
            if event == "worker_rejoined":
                health.rejoins += 1
            else:
                self._late_joins += 1
        _WORKERS_JOINED.inc()
        if event == "worker_rejoined":
            _WORKERS_REJOINED.inc()
        else:
            _LATE_JOINS.inc()
        self._span.add_event(
            event, worker=link.id, endpoint=link.endpoint, identity=link.label
        )
        if start_reader:
            self._start_reader(link)
        return True

    def _accept_loop(self) -> None:
        """Accept inbound worker registrations until the sweep settles."""
        while not self._complete.is_set():
            try:
                conn, _ = self._listener.accept()  # type: ignore[union-attr]
            except OSError:
                return  # listener closed under us
            threading.Thread(
                target=self._admit_registration,
                args=(conn,),
                name="fabric-register",
                daemon=True,
            ).start()

    def _admit_registration(self, conn: socket.socket) -> None:
        """Handshake one inbound registration and admit it as a late join."""
        try:
            peer = conn.getpeername()
            endpoint = f"{peer[0]}:{peer[1]}"
        except OSError:
            endpoint = "registered:?"
        with self._lock:
            self._link_seq += 1
            link_id = self._link_seq
        try:
            link = _handshake(
                conn,
                endpoint,
                link_id,
                fn_blob=self._fn_blob,
                spec_blob=self._spec_blob,
                heartbeat_s=self._heartbeat_s,
                lease_ttl_s=self._lease_ttl_s,
                timeout_s=self._connect_timeout_s,
            )
        except (OSError, FabricError):
            try:
                conn.close()
            except OSError:
                pass
            return
        # Inbound workers have no dialable address: if the session is
        # lost it is gone unless it registers again of its own accord.
        with self._lock:
            health = _EndpointHealth(
                ordinal=len(self._health), endpoint=endpoint, addr=None
            )
            self._health.append(health)
        self._admit(link, health, event="late_join")

    def _publish_fleet(self, *, active: bool = True) -> None:
        """Refresh :func:`fleet_health` and the fleet gauges."""
        with self._lock:
            counts: "dict[str, int]" = {}
            for health in self._health:
                counts[health.state] = counts.get(health.state, 0) + 1
            snapshot = {
                "active": active,
                "workers": [health.snapshot() for health in self._health],
                "counts": counts,
                "points": {
                    "total": self._total,
                    "done": len(self._results),
                    "pending": len(self._pending),
                },
                "rejoins": sum(health.rejoins for health in self._health),
                "late_joins": self._late_joins,
                "lease": {
                    "latency_ewma_s": round(self._latency_ewma_s, 6),
                    "size_min": self._lease_size,
                    "size_max": self._max_lease_size,
                },
            }
            pending = len(self._pending)
        if active:
            _LIVE_WORKERS.set(counts.get("live", 0))
            _QUARANTINED_WORKERS.set(counts.get("quarantined", 0))
            _PENDING_POINTS.set(pending)
        else:
            _LIVE_WORKERS.set(0)
            _QUARANTINED_WORKERS.set(0)
            _PENDING_POINTS.set(0)
        _publish(snapshot)

    # -- per-link reader -------------------------------------------------

    def _read_loop(self, link: _Link) -> None:
        """Handle one worker's traffic until it finishes or is lost."""
        reason = "connection closed"
        try:
            while not self._complete.is_set():
                frame = _recv(link.rfile)
                if frame is None:
                    break
                now = time.monotonic()
                gap = now - link.last_seen
                link.gap_ewma_s = (
                    gap if link.gap_ewma_s <= 0.0 else 0.8 * link.gap_ewma_s + 0.2 * gap
                )
                link.last_seen = now
                kind = frame["type"]
                if kind == "heartbeat":
                    continue
                if kind == "ready":
                    self._offer_work(link)
                elif kind == "result":
                    self._accept_result(link, frame)
                else:
                    reason = f"unexpected {kind!r} frame"
                    break
        except (OSError, ValueError, FabricError) as error:
            reason = repr(error)
        finally:
            self._lose_worker(link, reason)

    def _offer_work(self, link: _Link) -> None:
        """Answer a ``ready``: a lease, a stolen lease, a wait, or done."""
        with self._lock:
            if len(self._results) >= self._total:
                reply: "dict[str, Any]" = {"type": "done"}
            else:
                chunk = self._next_chunk(link)
                if chunk is None:
                    reply = {"type": "wait", "delay_s": round(self._tick_s * 2, 4)}
                else:
                    reply = {
                        "type": "lease",
                        "id": chunk.id,
                        "points": _pack(chunk.pairs),
                    }
        try:
            _send(link.wfile, link.wlock, reply)
        except OSError:
            self._lose_worker(link, "send failed")

    def _lease_target(self, link: _Link) -> int:
        """Points to lease this worker now: rate EWMA × two heartbeats.

        With ``max_lease_size == lease_size`` (the default) this is the
        fixed pre-elastic behaviour; otherwise a worker that proved it
        can chew N points/sec is handed roughly two heartbeats' worth,
        clamped into ``[lease_size, max_lease_size]``.
        """
        if self._max_lease_size <= self._lease_size or link.rate_ewma <= 0.0:
            return self._lease_size
        target = int(link.rate_ewma * 2.0 * self._heartbeat_s)
        return max(self._lease_size, min(self._max_lease_size, target))

    def _next_chunk(self, link: _Link) -> "_Lease | None":
        """Pop a fresh lease, or steal from a straggler (lock held)."""
        pairs: "list[tuple[int, Any]]" = []
        limit = self._lease_target(link)
        while self._pending and len(pairs) < limit:
            index, point = self._pending.popleft()
            if index not in self._results:
                pairs.append((index, point))
        stolen = False
        if not pairs:
            victim = self._steal_candidate(link)
            if victim is None:
                return None
            pairs = [
                (index, point)
                for index, point in victim.pairs
                if index not in self._results and self._covered.get(index, 0) < 2
            ]
            if not pairs:
                return None
            stolen = True
            _POINTS_STOLEN.inc(len(pairs))
            self._span.add_event(
                "steal",
                points=len(pairs),
                from_worker=victim.worker,
                to_worker=link.id,
            )
        self._lease_seq += 1
        lease = _Lease(
            id=self._lease_seq,
            worker=link.id,
            pairs=pairs,
            issued=time.monotonic(),
            stolen=stolen,
        )
        self._leases[lease.id] = lease
        for index, _ in pairs:
            self._covered[index] = self._covered.get(index, 0) + 1
        return lease

    def _steal_candidate(self, thief: _Link) -> "_Lease | None":
        """The oldest outstanding lease held by a *different* worker."""
        candidates = [
            lease
            for lease in self._leases.values()
            if lease.worker != thief.id
            and any(
                index not in self._results and self._covered.get(index, 0) < 2
                for index, _ in lease.pairs
            )
        ]
        if not candidates:
            return None
        return min(candidates, key=lambda lease: lease.issued)

    def _accept_result(self, link: _Link, frame: "dict[str, Any]") -> None:
        """Record a lease's outcomes; duplicates (stolen races) are dropped."""
        outcomes: "list[PointResult]" = _unpack(frame["outcomes"])
        now = time.monotonic()
        with self._lock:
            lease = self._leases.pop(int(frame["id"]), None)
            if lease is not None:
                elapsed = max(now - lease.issued, 1e-9)
                _LEASE_LATENCY.observe(elapsed)
                self._latency_ewma_s = (
                    elapsed
                    if self._latency_ewma_s <= 0.0
                    else 0.8 * self._latency_ewma_s + 0.2 * elapsed
                )
                rate = len(lease.pairs) / elapsed
                link.rate_ewma = (
                    rate if link.rate_ewma <= 0.0 else 0.7 * link.rate_ewma + 0.3 * rate
                )
                for index, _ in lease.pairs:
                    self._covered[index] = max(0, self._covered.get(index, 0) - 1)
            health = self._health_by_link.get(link.id)
            if health is not None:
                # A delivered result proves the worker is wholesome again.
                health.consecutive_losses = 0
                health.probation = False
                health.rate_ewma = link.rate_ewma
                health.gap_ewma_s = link.gap_ewma_s
            for outcome in outcomes:
                self._settle(outcome)

    def _settle(self, outcome: PointResult) -> None:
        """First result for an index wins; journal it (lock held)."""
        if outcome.index in self._results:
            return
        self._results[outcome.index] = outcome
        if self._checkpoint is not None:
            self._checkpoint.record(outcome)
        if len(self._results) >= self._total:
            self._complete.set()

    # -- failure handling ------------------------------------------------

    def _lose_worker(self, link: _Link, reason: str) -> None:
        """Expire a worker: re-queue its points, update its health ledger."""
        now = time.monotonic()
        quarantined = ejected = False
        health: "_EndpointHealth | None" = None
        with self._lock:
            if link.lost:
                return
            link.lost = True
            orphaned = [
                lease for lease in self._leases.values() if lease.worker == link.id
            ]
            for lease in orphaned:
                del self._leases[lease.id]
            requeued = crashed = 0
            for lease in orphaned:
                for index, point in lease.pairs:
                    self._covered[index] = max(0, self._covered.get(index, 0) - 1)
                    if index in self._results or index in self._poisoned:
                        continue
                    self._crashes[index] = self._crashes.get(index, 0) + 1
                    crashed += 1
                    if self._crashes[index] > self._max_point_crashes:
                        self._poisoned.add(index)
                        self._poison.append((index, point))
                        _POINTS_RESPAWNED.inc()
                    elif self._covered.get(index, 0) == 0:
                        self._pending.appendleft((index, point))
                        requeued += 1
            if not self._complete.is_set():
                health = self._health_by_link.get(link.id)
                if health is not None:
                    health.link_id = None
                    health.losses += 1
                    health.consecutive_losses += 1
                    health.crash_spend += crashed
                    policy = self._policy
                    if health.addr is None or policy.rejoin_backoff_s <= 0.0:
                        health.state = "unreachable"
                    elif (
                        health.probation
                        or health.consecutive_losses >= policy.quarantine_losses
                    ):
                        health.quarantines += 1
                        health.probation = False
                        health.consecutive_losses = 0
                        if health.quarantines > policy.max_quarantines:
                            health.state = "ejected"
                            ejected = True
                        else:
                            health.state = "quarantined"
                            health.dial_failures = 0
                            health.next_attempt = now + policy.probation_delay_s(
                                health.ordinal, health.quarantines
                            )
                            quarantined = True
                    else:
                        health.state = "lost"
                        health.dial_failures = 0
                        health.next_attempt = now + policy.rejoin_delay_s(
                            health.ordinal, 1
                        )
        if self._complete.is_set():
            return  # orderly shutdown, not a failure
        _WORKERS_LOST.inc()
        if requeued:
            _POINTS_REQUEUED.inc(requeued)
        self._span.add_event(
            "worker_lost",
            worker=link.id,
            identity=link.label,
            reason=reason,
            requeued=requeued,
        )
        if quarantined and health is not None:
            _WORKERS_QUARANTINED.inc()
            self._span.add_event(
                "worker_quarantined",
                endpoint=health.endpoint,
                identity=health.label,
                quarantines=health.quarantines,
            )
        if ejected and health is not None:
            _WORKERS_EJECTED.inc()
            self._span.add_event(
                "worker_ejected",
                endpoint=health.endpoint,
                identity=health.label,
                losses=health.losses,
            )
        self._sever(link)

    def _expire_stale_links(self) -> None:
        """Drop workers whose heartbeats stopped (wedged or partitioned)."""
        now = time.monotonic()
        for link in list(self._links.values()):
            if link.lost or now - link.last_seen <= self._lease_ttl_s:
                continue
            with self._lock:
                expired = sum(
                    1 for lease in self._leases.values() if lease.worker == link.id
                )
            _LEASES_EXPIRED.inc(max(expired, 1))
            self._span.add_event(
                "lease_expired",
                worker=link.id,
                identity=link.label,
                silent_s=round(now - link.last_seen, 3),
                leases=expired,
            )
            self._sever(link)  # the reader thread observes EOF and re-queues

    def _finish_poison_points(self) -> None:
        """Run crash-budget-exhausted points through the last-resort path."""
        with self._lock:
            pairs, self._poison = self._poison, []
        if not pairs:
            return
        outcomes = _engine._sweep_last_resort(
            self._fn, sorted(pairs), self._spec, self._span, None
        )
        with self._lock:
            for outcome in outcomes:
                self._settle(outcome)

    def _finish_locally(self) -> None:
        """No worker can return: finish the remaining points in-process."""
        with self._lock:
            remaining = sorted(
                {
                    index: point
                    for index, point in self._pending
                    if index not in self._results
                }.items()
            )
            self._pending.clear()
        _LOCAL_FALLBACKS.inc()
        self._span.add_event("fallback_local", points=len(remaining))
        outcomes = _engine._sweep_serial(
            self._fn, remaining, spec=self._spec, checkpoint=None
        )
        with self._lock:
            for outcome in outcomes:
                self._settle(outcome)
            if len(self._results) >= self._total:
                self._complete.set()


# -- joining ---------------------------------------------------------------


def _dial(
    endpoint: "tuple[str, int]",
    link_id: int,
    *,
    fn_blob: str,
    spec_blob: str,
    heartbeat_s: float,
    lease_ttl_s: float,
    connect_timeout_s: float,
    give_up: threading.Event,
) -> "_Link | None":
    """Connect to one worker and complete the handshake (with retries)."""
    while not give_up.is_set():
        try:
            return _dial_once(
                endpoint,
                link_id,
                fn_blob=fn_blob,
                spec_blob=spec_blob,
                heartbeat_s=heartbeat_s,
                lease_ttl_s=lease_ttl_s,
                timeout_s=connect_timeout_s,
            )
        except (OSError, FabricError):
            if give_up.wait(0.05):
                return None
    return None


def _join(
    endpoints: "tuple[tuple[str, int], ...]",
    *,
    fn_blob: str,
    spec_blob: str,
    heartbeat_s: float,
    lease_ttl_s: float,
    join_deadline_s: float,
    connect_timeout_s: float,
    span: Any,
) -> "list[_Link]":
    """Dial every endpoint in parallel; return whoever joined in time.

    Endpoints are retried until the join deadline. Once at least one
    worker has joined, stragglers get a short grace period rather than
    the full deadline — a half-up fleet should start sweeping, not
    wait. (Under an elastic :class:`MembershipPolicy` the stragglers
    are not abandoned either way: the coordinator keeps re-dialing
    them once the sweep is in flight.)
    """
    give_up = threading.Event()
    joined: "list[_Link]" = []
    joined_lock = threading.Lock()

    def attempt(endpoint: "tuple[str, int]", link_id: int) -> None:
        """Dial one endpoint until it joins or the fleet gives up."""
        link = _dial(
            endpoint,
            link_id,
            fn_blob=fn_blob,
            spec_blob=spec_blob,
            heartbeat_s=heartbeat_s,
            lease_ttl_s=lease_ttl_s,
            connect_timeout_s=connect_timeout_s,
            give_up=give_up,
        )
        if link is not None:
            with joined_lock:
                joined.append(link)

    dialers = [
        threading.Thread(target=attempt, args=(endpoint, index), daemon=True)
        for index, endpoint in enumerate(endpoints)
    ]
    for dialer in dialers:
        dialer.start()
    deadline = time.monotonic() + join_deadline_s
    first_join: "float | None" = None
    grace_s = min(0.25, join_deadline_s / 4.0)
    while time.monotonic() < deadline:
        with joined_lock:
            count = len(joined)
        if count == len(endpoints):
            break
        if count and first_join is None:
            first_join = time.monotonic()
        if first_join is not None and time.monotonic() - first_join > grace_s:
            break
        time.sleep(0.02)
    give_up.set()
    for dialer in dialers:
        dialer.join(timeout=max(connect_timeout_s, 0.1) + 0.5)
    with joined_lock:
        links = sorted(joined, key=lambda link: link.id)
    _WORKERS_JOINED.inc(len(links))
    for link in links:
        span.add_event("worker_joined", worker=link.id, endpoint=link.endpoint, identity=link.label)
    return links


# -- the public sweep entry point ------------------------------------------


def fabric_sweep(
    fn: Callable[[Any], Any],
    points: "Iterable[Any]",
    *,
    workers: "str | Iterable[Any]",
    lease_size: int = DEFAULT_LEASE_SIZE,
    max_lease_size: "int | None" = None,
    on_error: str = "raise",
    retry: "RetryPolicy | None" = None,
    timeout_s: "float | None" = None,
    checkpoint: Any = None,
    heartbeat_s: float = DEFAULT_HEARTBEAT_S,
    lease_ttl_s: "float | None" = None,
    join_deadline_s: float = DEFAULT_JOIN_DEADLINE_S,
    connect_timeout_s: float = 1.0,
    max_point_crashes: int = DEFAULT_MAX_POINT_CRASHES,
    membership: "MembershipPolicy | None" = None,
    listen: "str | socket.socket | None" = None,
    fallback_executor: str = "process",
    fallback_jobs: "int | None" = None,
) -> SweepResult:
    """Evaluate ``fn`` over ``points`` on a fleet of TCP-connected workers.

    The distributed counterpart of :func:`repro.perf.sweep`, returning
    the same :class:`~repro.perf.engine.SweepResult` (``executor`` is
    ``"fabric"``, ``jobs`` is the number of workers that joined up
    front) with values in input order, byte-identical to a single-host
    run of the same sweep. ``on_error``/``retry``/``timeout_s`` are the
    engine's failure policies, enforced *on the workers*; under
    ``"raise"`` the coordinator raises
    :class:`~repro.core.errors.FabricError` for the lowest-indexed
    failing point once the sweep settles.

    Membership is elastic: lost endpoints are re-dialed under
    ``membership`` (a :class:`MembershipPolicy`; the default re-dials
    with 0.25 s seeded exponential backoff and quarantines flappers),
    and passing ``listen`` (a ``"host:port"`` string or a pre-bound
    listening socket, which the fabric takes ownership of and closes)
    lets new workers :meth:`FabricWorker.register` mid-sweep. Lease
    sizes autoscale per worker between ``lease_size`` and
    ``max_lease_size`` from observed throughput; the default
    (``max_lease_size=None``) keeps them fixed at ``lease_size``.

    ``checkpoint`` should be a
    :class:`~repro.perf.journal.ShardedCheckpoint` (any object with the
    checkpoint interface works): completed points are journalled as
    they arrive, and a resumed call restores them without recomputing.

    If no worker joins within ``join_deadline_s`` the sweep runs
    locally through :func:`repro.perf.sweep` with ``fallback_executor``
    / ``fallback_jobs`` — callers never need a fleet to make progress.
    """
    endpoints = parse_endpoints(workers)
    if lease_size < 1:
        raise ValueError(f"lease_size must be >= 1, got {lease_size}")
    max_lease = lease_size if max_lease_size is None else int(max_lease_size)
    if max_lease < lease_size:
        raise ValueError(
            f"max_lease_size ({max_lease}) must be >= lease_size ({lease_size})"
        )
    if on_error not in _engine.ON_ERROR_POLICIES:
        raise ValueError(
            f"unknown on_error {on_error!r}: expected one of "
            f"{', '.join(_engine.ON_ERROR_POLICIES)}"
        )
    if retry is not None and on_error != "retry":
        raise ValueError("a retry policy requires on_error='retry'")
    if timeout_s is not None and timeout_s <= 0.0:
        raise ValueError(f"timeout_s must be positive, got {timeout_s}")
    if heartbeat_s <= 0.0:
        raise ValueError(f"heartbeat_s must be positive, got {heartbeat_s}")
    if max_point_crashes < 0:
        raise ValueError(f"max_point_crashes must be >= 0, got {max_point_crashes}")
    ttl_s = (
        lease_ttl_s if lease_ttl_s is not None else heartbeat_s * DEFAULT_LEASE_TTL_BEATS
    )
    if ttl_s <= heartbeat_s:
        raise ValueError(
            f"lease_ttl_s ({ttl_s:g}) must exceed heartbeat_s ({heartbeat_s:g})"
        )
    policy = membership if membership is not None else MembershipPolicy()
    listener: "socket.socket | None" = None
    if listen is not None:
        if isinstance(listen, socket.socket):
            listener = listen
        else:
            bind_points = parse_endpoints(listen)
            if len(bind_points) != 1:
                raise ValueError(f"listen takes one HOST:PORT, got {listen!r}")
            listener = socket.create_server(bind_points[0], backlog=8)
    spec = _engine._EvalSpec(
        on_error=on_error,
        retry=(retry or RetryPolicy()) if on_error == "retry" else None,
        timeout_s=timeout_s,
    )
    fn_blob, spec_blob = _pack(fn), _pack(spec)
    indexed: "list[tuple[int, Any]]" = list(enumerate(points))
    _FABRIC_SWEEPS.inc()
    start = time.perf_counter()
    try:
        with _trace.span(
            "perf.fabric",
            endpoints=len(endpoints),
            points=len(indexed),
            lease_size=lease_size,
            on_error=on_error,
        ) as span:
            links = _join(
                endpoints,
                fn_blob=fn_blob,
                spec_blob=spec_blob,
                heartbeat_s=heartbeat_s,
                lease_ttl_s=ttl_s,
                join_deadline_s=join_deadline_s,
                connect_timeout_s=connect_timeout_s,
                span=span,
            )
            if not links:
                _LOCAL_FALLBACKS.inc()
                span.add_event("fallback_local", points=len(indexed), reason="no workers joined")
                return _engine.sweep(
                    fn,
                    [point for _, point in indexed],
                    executor=fallback_executor,
                    jobs=fallback_jobs,
                    on_error=on_error,
                    retry=retry,
                    timeout_s=timeout_s,
                    checkpoint=checkpoint,
                )
            restored, remaining = _engine._restore_from_checkpoint(checkpoint, indexed)
            if restored:
                span.add_event("resume", restored=len(restored), remaining=len(remaining))
            coordinator = _Coordinator(
                fn,
                remaining,
                links,
                endpoints=endpoints,
                fn_blob=fn_blob,
                spec_blob=spec_blob,
                spec=spec,
                checkpoint=checkpoint,
                lease_size=lease_size,
                max_lease_size=max_lease,
                heartbeat_s=heartbeat_s,
                lease_ttl_s=ttl_s,
                max_point_crashes=max_point_crashes,
                policy=policy,
                listener=listener,
                connect_timeout_s=connect_timeout_s,
                span=span,
            )
            listener = None  # the coordinator owns (and closes) it now
            fresh = coordinator.run()
            outcomes = sorted(restored + fresh, key=lambda r: r.index)
            if on_error == "raise":
                first_bad = next((o for o in outcomes if not o.ok), None)
                if first_bad is not None:
                    raise FabricError(
                        f"point {first_bad.index} {first_bad.status} on the fabric: "
                        f"{first_bad.error}"
                    )
            wall = time.perf_counter() - start
            result = SweepResult(
                values=tuple(r.value for r in outcomes),
                timings=tuple(r.elapsed_s for r in outcomes),
                executor="fabric",
                jobs=len(links),
                chunksize=lease_size,
                wall_s=wall,
                outcomes=tuple(outcomes),
                resumed=len(restored),
                respawns=0,
            )
            span.set_attributes(
                workers=len(links),
                wall_s=result.wall_s,
                point_s=result.point_s,
                resumed=result.resumed,
            )
    finally:
        if listener is not None:
            try:
                listener.close()
            except OSError:
                pass
    _engine._SWEEP_RUNS.inc()
    _engine._SWEEP_POINTS.inc(len(result))
    _engine._SWEEP_WALL.observe(result.wall_s)
    _engine._SWEEP_COMPUTE.observe(result.point_s)
    _engine._observe_outcomes(fresh, restored, 0)
    return result


# -- the worker ------------------------------------------------------------


class FabricWorker:
    """One sweep worker: listen, handshake, evaluate leases, heartbeat.

    Sessions are sequential — one coordinator at a time; further
    coordinators queue in the listen backlog. Inside a session the
    worker asks for work (``ready``), evaluates each leased point under
    the sweep's shipped policy (retries, deadlines), ships results
    back, and heartbeats from a side thread the whole time — liveness
    is decoupled from point completion, so a slow-but-legal point never
    trips the coordinator's ``lease_ttl_s``. A vanished coordinator
    (dead socket mid-session) returns the worker to listening —
    workers outlive the sweeps they serve, and a coordinator under an
    elastic :class:`MembershipPolicy` re-dials them right back in.

    Workers can also take the first step themselves:
    :meth:`register` dials a coordinator's ``listen`` socket and runs
    one session over that connection — the late-join path for fleets
    that scale up mid-sweep.

    ``throttle_s`` sleeps before every point evaluation: an operational
    chaos aid for exercising work-stealing, failure detection and the
    chaos CI job against sweeps that would otherwise finish in
    milliseconds. ``heartbeat_override_s`` replaces the
    coordinator-commanded heartbeat interval — set it above the
    coordinator's lease TTL to rehearse the missed-heartbeat expiry
    path without freezing a process.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        throttle_s: float = 0.0,
        heartbeat_override_s: "float | None" = None,
        max_sessions: "int | None" = None,
    ):
        if throttle_s < 0.0:
            raise ValueError(f"throttle_s must be >= 0, got {throttle_s}")
        if max_sessions is not None and max_sessions < 1:
            raise ValueError(f"max_sessions must be >= 1, got {max_sessions}")
        self._throttle_s = throttle_s
        self._heartbeat_override_s = heartbeat_override_s
        self._max_sessions = max_sessions
        self._closed = threading.Event()
        self._listener = socket.create_server((host, port), backlog=8)

    @property
    def address(self) -> "tuple[str, int]":
        """The actually-bound ``(host, port)`` (port 0 resolves here)."""
        host, port = self._listener.getsockname()[:2]
        return host, port

    def serve_forever(self) -> int:
        """Accept coordinator sessions until closed; returns sessions served."""
        sessions = 0
        while not self._closed.is_set() and (
            self._max_sessions is None or sessions < self._max_sessions
        ):
            try:
                conn, _ = self._listener.accept()
            except OSError:
                break  # listener closed under us
            sessions += 1
            self._serve_session(conn)
        return sessions

    def register(
        self, host: str, port: int, *, connect_timeout_s: float = 1.0
    ) -> None:
        """Dial a coordinator's ``listen`` socket and serve one session.

        The wire sequence is identical to an accepted session — the
        worker speaks first (hello) on both paths — so registration is
        a connect plus the ordinary session loop. Returns when the
        coordinator says ``done`` or the connection dies.
        """
        conn = socket.create_connection((host, port), timeout=connect_timeout_s)
        conn.settimeout(None)
        self._serve_session(conn)

    def close(self) -> None:
        """Stop accepting sessions (unblocks :meth:`serve_forever`)."""
        self._closed.set()
        try:
            self._listener.close()
        except OSError:  # pragma: no cover - close is best-effort
            pass

    # -- one coordinator session -----------------------------------------

    def _serve_session(self, conn: socket.socket) -> None:
        """Run one coordinator's sweep until done (or the socket dies)."""
        rfile = conn.makefile("r", encoding="utf-8", newline="\n")
        wfile = conn.makefile("w", encoding="utf-8", newline="\n")
        wlock = threading.Lock()
        stop = threading.Event()
        beat: "threading.Thread | None" = None
        try:
            _send(
                wfile,
                wlock,
                {
                    "type": "hello",
                    "protocol": FABRIC_PROTOCOL,
                    "host": socket.gethostname(),
                    "pid": os.getpid(),
                },
            )
            job = _recv(rfile)
            if (
                job is None
                or job.get("type") != "job"
                or job.get("protocol") not in FABRIC_PROTOCOLS
            ):
                return
            fn = _unpack(job["fn"])
            spec = _unpack(job["spec"])
            interval = (
                self._heartbeat_override_s
                if self._heartbeat_override_s is not None
                else float(job["heartbeat_s"])
            )
            worker_spec = _engine._EvalSpec(
                # Workers never raise: under "raise" the coordinator owns
                # the deterministic lowest-index raise, so failures ship
                # back as structured outcomes instead.
                on_error="skip" if spec.on_error == "raise" else spec.on_error,
                retry=spec.retry,
                timeout_s=spec.timeout_s,
            )
            beat = threading.Thread(
                target=self._heartbeat_loop,
                args=(wfile, wlock, stop, interval),
                name="fabric-heartbeat",
                daemon=True,
            )
            beat.start()
            self._work_loop(rfile, wfile, wlock, fn, worker_spec)
        except (OSError, ValueError, EOFError, FabricError):
            pass  # the coordinator vanished; go back to listening
        finally:
            stop.set()
            if beat is not None:
                beat.join(timeout=1.0)
            for stream in (rfile, wfile):
                try:
                    stream.close()
                except OSError:
                    pass
            try:
                conn.close()
            except OSError:  # pragma: no cover - close is best-effort
                pass

    def _work_loop(
        self,
        rfile: Any,
        wfile: Any,
        wlock: threading.Lock,
        fn: Callable[[Any], Any],
        spec: Any,
    ) -> None:
        """ready → lease → evaluate → result, until the coordinator says done."""
        while True:
            _send(wfile, wlock, {"type": "ready"})
            frame = _recv(rfile)
            if frame is None or frame["type"] == "done":
                return
            if frame["type"] == "wait":
                time.sleep(float(frame["delay_s"]))
                continue
            if frame["type"] != "lease":
                raise FabricError(f"unexpected {frame['type']!r} frame from coordinator")
            pairs = _unpack(frame["points"])
            outcomes = []
            for index, point in pairs:
                if self._throttle_s:
                    time.sleep(self._throttle_s)
                outcomes.append(_engine._eval_point(fn, index, point, spec))
            _send(
                wfile,
                wlock,
                {"type": "result", "id": frame["id"], "outcomes": _pack(outcomes)},
            )

    @staticmethod
    def _heartbeat_loop(
        wfile: Any, wlock: threading.Lock, stop: threading.Event, interval: float
    ) -> None:
        """Prove liveness every ``interval`` seconds until the session ends."""
        while not stop.wait(interval):
            try:
                _send(wfile, wlock, {"type": "heartbeat"})
            except OSError:
                return
