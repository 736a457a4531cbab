"""The distributed sweep fabric, driven with in-process workers.

Workers here are :class:`FabricWorker` instances served from threads in
the test process — real sockets, real wire protocol, no subprocesses —
which keeps every contract (parity with the local engine, failure
policies, stealing, lease expiry, local fallback, checkpoint resume)
fast enough for the tier-1 suite. Process-level chaos (SIGKILL) lives
in ``test_fabric_chaos.py`` and ``scripts/chaos_fabric.py``.
"""

import pickle
import socket
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import FabricError
from repro.perf import (
    MembershipPolicy,
    PointResult,
    RetryPolicy,
    ShardedCheckpoint,
    fabric_sweep,
    fleet_health,
    parse_endpoints,
    sweep,
)
from repro.perf import engine as _engine
from repro.perf.fabric import (
    _LATE_JOINS,
    _LOCAL_FALLBACKS,
    _POINTS_STOLEN,
    _WORKERS_EJECTED,
    _WORKERS_LOST,
    _WORKERS_QUARANTINED,
    _WORKERS_REJOINED,
    FabricWorker,
    _Coordinator,
    _EndpointHealth,
    _Link,
    _pack,
    _recv,
    _unpack,
)


def square(x):
    return x * x


def flaky(x):
    if x == 3:
        raise ValueError("boom at 3")
    return x * x


def sluggish(x):
    import time

    time.sleep(0.25)
    return x * x


@pytest.fixture
def fleet():
    """Two in-thread workers; yields the ``HOST:PORT,HOST:PORT`` string."""
    workers = [FabricWorker(), FabricWorker()]
    threads = [
        threading.Thread(target=worker.serve_forever, daemon=True)
        for worker in workers
    ]
    for thread in threads:
        thread.start()
    yield ",".join(f"{w.address[0]}:{w.address[1]}" for w in workers)
    for worker in workers:
        worker.close()


class TestParseEndpoints:
    def test_comma_separated_string(self):
        assert parse_endpoints("a:1,b:2, c:3") == (("a", 1), ("b", 2), ("c", 3))

    def test_iterables_and_pairs(self):
        assert parse_endpoints([("h", 9), "i:10"]) == (("h", 9), ("i", 10))

    @pytest.mark.parametrize("bad", ["", "hostonly", "host:", ":7070", "h:x"])
    def test_malformed_endpoints_raise(self, bad):
        with pytest.raises(FabricError):
            parse_endpoints(bad)


class TestFabricSweepParity:
    def test_values_match_local_sweep_exactly(self, fleet):
        local = sweep(square, range(25))
        distributed = fabric_sweep(square, range(25), workers=fleet, heartbeat_s=0.1)
        assert pickle.dumps(tuple(local.values)) == pickle.dumps(
            tuple(distributed.values)
        )
        assert distributed.executor == "fabric"
        assert distributed.jobs == 2
        assert distributed.resumed == 0
        assert [o.index for o in distributed.outcomes] == list(range(25))
        assert all(o.status == "ok" for o in distributed.outcomes)

    def test_empty_grid(self, fleet):
        result = fabric_sweep(square, [], workers=fleet, heartbeat_s=0.1)
        assert list(result.values) == []

    def test_lease_size_batches_points(self, fleet):
        result = fabric_sweep(
            square, range(10), workers=fleet, lease_size=4, heartbeat_s=0.1
        )
        assert list(result.values) == [x * x for x in range(10)]
        assert result.chunksize == 4


class TestFailurePolicies:
    def test_raise_reports_the_lowest_failing_index(self, fleet):
        with pytest.raises(FabricError, match="point 3"):
            fabric_sweep(flaky, range(8), workers=fleet, heartbeat_s=0.1)

    def test_skip_keeps_going_with_structured_outcomes(self, fleet):
        result = fabric_sweep(
            flaky, range(8), workers=fleet, on_error="skip", heartbeat_s=0.1
        )
        assert result.values[3] is None
        assert result.outcomes[3].status == "failed"
        assert "boom at 3" in result.outcomes[3].error
        assert [result.values[i] for i in (0, 1, 2, 4, 5, 6, 7)] == [
            x * x for x in (0, 1, 2, 4, 5, 6, 7)
        ]

    def test_retry_policy_travels_to_the_worker(self, fleet):
        result = fabric_sweep(
            flaky,
            range(5),
            workers=fleet,
            on_error="retry",
            retry=RetryPolicy(max_retries=2, backoff_s=0.0),
            heartbeat_s=0.1,
        )
        assert result.outcomes[3].status == "failed"
        assert result.outcomes[3].attempts == 3  # retried on the worker

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"lease_size": 0},
            {"on_error": "explode"},
            {"retry": RetryPolicy()},
            {"timeout_s": 0.0},
            {"heartbeat_s": 0.0},
            {"max_point_crashes": -1},
            {"lease_ttl_s": 0.01},
        ],
    )
    def test_invalid_arguments_are_rejected(self, fleet, kwargs):
        with pytest.raises(ValueError):
            fabric_sweep(square, range(3), workers=fleet, **kwargs)


class TestDegradation:
    def test_no_workers_falls_back_to_local_sweep(self):
        before = _LOCAL_FALLBACKS.value
        result = fabric_sweep(
            square,
            range(6),
            workers="127.0.0.1:1",  # nothing listens there
            join_deadline_s=0.2,
            connect_timeout_s=0.1,
        )
        assert list(result.values) == [x * x for x in range(6)]
        assert result.executor != "fabric"  # the plain engine served it
        assert _LOCAL_FALLBACKS.value == before + 1

    def test_heartbeat_expiry_loses_the_worker_but_not_the_sweep(self):
        # The worker never heartbeats (override far above the TTL) and
        # evaluates slowly, so the coordinator must expire its lease and
        # finish the points elsewhere — here, locally.
        worker = FabricWorker(throttle_s=0.0, heartbeat_override_s=60.0)
        thread = threading.Thread(target=worker.serve_forever, daemon=True)
        thread.start()
        lost_before = _WORKERS_LOST.value
        try:
            result = fabric_sweep(
                sluggish,
                range(3),
                workers=[worker.address],
                heartbeat_s=0.02,
                lease_ttl_s=0.1,
            )
        finally:
            worker.close()
        assert list(result.values) == [0, 1, 4]
        assert all(o.status == "ok" for o in result.outcomes)
        assert _WORKERS_LOST.value == lost_before + 1


class TestWorkStealing:
    def test_idle_worker_steals_from_the_straggler(self):
        # Worker A is throttled to a crawl; worker B finishes the queue
        # and must start duplicating A's outstanding leases.
        slow = FabricWorker(throttle_s=0.4)
        fast = FabricWorker()
        for worker in (slow, fast):
            threading.Thread(target=worker.serve_forever, daemon=True).start()
        stolen_before = _POINTS_STOLEN.value
        try:
            result = fabric_sweep(
                square,
                range(8),
                workers=[slow.address, fast.address],
                heartbeat_s=0.1,
            )
        finally:
            slow.close()
            fast.close()
        assert list(result.values) == [x * x for x in range(8)]
        assert _POINTS_STOLEN.value > stolen_before


class TestCheckpointResume:
    def test_sharded_journal_resumes_bit_identically(self, tmp_path):
        spec = {"grid": list(range(12))}
        workers = [FabricWorker(), FabricWorker()]
        for worker in workers:
            threading.Thread(target=worker.serve_forever, daemon=True).start()
        endpoints = [w.address for w in workers]
        try:
            with ShardedCheckpoint.open("fab", spec, directory=tmp_path) as first:
                uninterrupted = fabric_sweep(
                    square,
                    range(12),
                    workers=endpoints,
                    heartbeat_s=0.1,
                    checkpoint=first,
                )
            with ShardedCheckpoint.open("fab", spec, directory=tmp_path) as again:
                resumed = fabric_sweep(
                    square,
                    range(12),
                    workers=endpoints,
                    heartbeat_s=0.1,
                    checkpoint=again,
                )
        finally:
            for worker in workers:
                worker.close()
        assert resumed.resumed == 12  # every point restored, none recomputed
        assert pickle.dumps(tuple(uninterrupted.values)) == pickle.dumps(
            tuple(resumed.values)
        )

    def test_partial_journal_restores_and_computes_the_rest(self, tmp_path):
        spec = {"grid": 6}
        with ShardedCheckpoint.open("part", spec, directory=tmp_path) as seed:
            for index in (0, 2, 4):
                seed.record(
                    PointResult(
                        index=index, point=index, value=index * index, elapsed_s=0.1
                    )
                )
        worker = FabricWorker()
        threading.Thread(target=worker.serve_forever, daemon=True).start()
        try:
            with ShardedCheckpoint.open("part", spec, directory=tmp_path) as journal:
                result = fabric_sweep(
                    square,
                    range(6),
                    workers=[worker.address],
                    heartbeat_s=0.1,
                    checkpoint=journal,
                )
        finally:
            worker.close()
        assert result.resumed == 3
        assert list(result.values) == [x * x for x in range(6)]
        statuses = [o.status for o in result.outcomes]
        assert statuses == ["skipped", "ok", "skipped", "ok", "skipped", "ok"]


class TestWorkerLifecycle:
    def test_max_sessions_bounds_the_worker(self):
        worker = FabricWorker(max_sessions=1)
        thread = threading.Thread(target=worker.serve_forever, daemon=True)
        thread.start()
        try:
            fabric_sweep(square, range(4), workers=[worker.address], heartbeat_s=0.1)
            thread.join(timeout=5.0)
            assert not thread.is_alive()  # served its one session and returned
        finally:
            worker.close()

    def test_worker_survives_a_vanishing_coordinator(self):
        import socket as _socket

        worker = FabricWorker()
        threading.Thread(target=worker.serve_forever, daemon=True).start()
        try:
            # A client that connects and hangs up mid-handshake.
            drive_by = _socket.create_connection(worker.address, timeout=2.0)
            drive_by.close()
            # The worker must still serve a real sweep afterwards.
            result = fabric_sweep(
                square, range(5), workers=[worker.address], heartbeat_s=0.1
            )
        finally:
            worker.close()
        assert list(result.values) == [x * x for x in range(5)]

    def test_invalid_worker_construction(self):
        with pytest.raises(ValueError):
            FabricWorker(throttle_s=-1.0)
        with pytest.raises(ValueError):
            FabricWorker(max_sessions=0)


class CrashySessionWorker(FabricWorker):
    """A worker whose first ``crash_sessions`` sessions die mid-handshake.

    The listener stays up throughout, so the coordinator's re-dial
    loop reconnects to the *same* worker — the in-process stand-in for
    SIGKILLing a worker process and relaunching it on the same port.
    """

    def __init__(self, *args, crash_sessions=1, **kwargs):
        super().__init__(*args, **kwargs)
        self.crash_sessions = crash_sessions
        self.sessions = 0

    def _work_loop(self, rfile, wfile, wlock, fn, spec):
        self.sessions += 1
        if self.sessions <= self.crash_sessions:
            raise FabricError("simulated worker crash")
        super()._work_loop(rfile, wfile, wlock, fn, spec)


class TestElasticMembership:
    def test_crashed_worker_rejoins_and_serves_the_sweep(self):
        # Session 1 dies immediately; the membership loop must re-dial
        # the same endpoint and finish the sweep over session 2 — no
        # local fallback, no lost points.
        worker = CrashySessionWorker(crash_sessions=1)
        threading.Thread(target=worker.serve_forever, daemon=True).start()
        rejoined_before = _WORKERS_REJOINED.value
        try:
            result = fabric_sweep(
                square,
                range(10),
                workers=[worker.address],
                heartbeat_s=0.1,
                membership=MembershipPolicy(rejoin_backoff_s=0.05, seed=1),
            )
        finally:
            worker.close()
        assert list(result.values) == [x * x for x in range(10)]
        assert result.executor == "fabric"
        assert worker.sessions >= 2  # the rejoin really served points
        assert _WORKERS_REJOINED.value >= rejoined_before + 1

    def test_worker_registers_into_a_listening_sweep_mid_flight(self):
        # The coordinator listens on a pre-bound socket; a second
        # worker dials in with register() while the sweep is running
        # and must be admitted as a late join.
        listener = socket.create_server(("127.0.0.1", 0), backlog=4)
        host, port = listener.getsockname()[:2]
        plodder = FabricWorker(throttle_s=0.05)
        threading.Thread(target=plodder.serve_forever, daemon=True).start()
        joiner = FabricWorker()
        late_before = _LATE_JOINS.value

        def register_late():
            import time

            time.sleep(0.2)  # well into the throttled sweep
            joiner.register(host, port)

        registrar = threading.Thread(target=register_late, daemon=True)
        registrar.start()
        try:
            result = fabric_sweep(
                square,
                range(24),
                workers=[plodder.address],
                heartbeat_s=0.1,
                listen=listener,
            )
        finally:
            registrar.join(timeout=10.0)
            plodder.close()
            joiner.close()
        assert list(result.values) == [x * x for x in range(24)]
        assert _LATE_JOINS.value >= late_before + 1
        fleet = fleet_health()
        assert fleet["late_joins"] >= 1
        assert len(fleet["workers"]) >= 2  # the registrant entered the ledger

    def test_flapping_worker_is_quarantined_then_ejected(self):
        # The flapper crashes every session: two losses trip quarantine
        # (quarantine_losses=2), the probation probe crashes too, and a
        # second quarantine exceeds max_quarantines=1 → ejection. The
        # healthy worker carries the sweep to a correct finish meanwhile.
        flapper = CrashySessionWorker(crash_sessions=10_000)
        steady = FabricWorker(throttle_s=0.02)
        flapper_endpoint = "{}:{}".format(*flapper.address)
        for worker in (flapper, steady):
            threading.Thread(target=worker.serve_forever, daemon=True).start()
        quarantined_before = _WORKERS_QUARANTINED.value
        ejected_before = _WORKERS_EJECTED.value
        try:
            result = fabric_sweep(
                square,
                range(60),
                workers=[flapper.address, steady.address],
                heartbeat_s=0.1,
                membership=MembershipPolicy(
                    rejoin_backoff_s=0.02,
                    max_rejoin_backoff_s=0.04,
                    quarantine_losses=2,
                    probation_s=0.05,
                    max_probation_s=0.1,
                    max_quarantines=1,
                    seed=3,
                ),
            )
        finally:
            flapper.close()
            steady.close()
        assert list(result.values) == [x * x for x in range(60)]
        assert all(o.status == "ok" for o in result.outcomes)
        assert _WORKERS_QUARANTINED.value >= quarantined_before + 1
        assert _WORKERS_EJECTED.value >= ejected_before + 1
        states = {w["endpoint"]: w["state"] for w in fleet_health()["workers"]}
        assert states[flapper_endpoint] == "ejected"

    def test_heartbeats_cover_points_slower_than_the_lease_ttl(self):
        # Satellite regression: liveness is decoupled from point
        # completion, so a point that takes longer than lease_ttl_s
        # (0.25s vs 0.15s here) must NOT cost the worker its session.
        worker = FabricWorker()
        threading.Thread(target=worker.serve_forever, daemon=True).start()
        lost_before = _WORKERS_LOST.value
        try:
            result = fabric_sweep(
                sluggish,
                range(4),
                workers=[worker.address],
                heartbeat_s=0.05,
                lease_ttl_s=0.15,
            )
        finally:
            worker.close()
        assert list(result.values) == [x * x for x in range(4)]
        assert _WORKERS_LOST.value == lost_before

    def test_adaptive_leases_stay_within_bounds(self):
        fleet = [FabricWorker(), FabricWorker()]
        for worker in fleet:
            threading.Thread(target=worker.serve_forever, daemon=True).start()
        endpoints = [w.address for w in fleet]
        try:
            result = fabric_sweep(
                square,
                range(64),
                workers=endpoints,
                heartbeat_s=0.1,
                lease_size=1,
                max_lease_size=8,
            )
        finally:
            for worker in fleet:
                worker.close()
        assert list(result.values) == [x * x for x in range(64)]
        assert result.chunksize == 1  # the floor, as documented

    def test_max_lease_size_below_lease_size_is_rejected(self, fleet):
        with pytest.raises(ValueError, match="max_lease_size"):
            fabric_sweep(
                square, range(4), workers=fleet, lease_size=4, max_lease_size=2
            )

    def test_lease_target_scales_with_observed_rate(self):
        coordinator = object.__new__(_Coordinator)
        coordinator._lease_size = 1
        coordinator._max_lease_size = 8
        coordinator._heartbeat_s = 0.5
        link = _Link(id=0, endpoint="x:1", sock=None, rfile=None, wfile=None)
        assert coordinator._lease_target(link) == 1  # no rate yet → floor
        link.rate_ewma = 100.0
        assert coordinator._lease_target(link) == 8  # clamped to the cap
        link.rate_ewma = 4.0
        assert coordinator._lease_target(link) == 4  # two heartbeats' worth
        coordinator._max_lease_size = 1
        assert coordinator._lease_target(link) == 1  # elastic leases off


class TestMembershipPolicy:
    def test_delays_are_deterministic_and_bounded(self):
        policy = MembershipPolicy(seed=42)
        again = MembershipPolicy(seed=42)
        for attempt in range(1, 6):
            delay = policy.rejoin_delay_s(0, attempt)
            assert delay == again.rejoin_delay_s(0, attempt)
            base = min(
                policy.rejoin_backoff_s * policy.rejoin_factor ** (attempt - 1),
                policy.max_rejoin_backoff_s,
            )
            assert base <= delay <= base * (1.0 + policy.rejoin_jitter)
            assert delay <= policy.max_rejoin_backoff_s
        probation = policy.probation_delay_s(1, 1)
        assert probation == again.probation_delay_s(1, 1)
        assert probation >= policy.probation_s
        assert policy.probation_delay_s(1, 9) <= policy.max_probation_s

    def test_different_seeds_jitter_differently(self):
        schedules = {
            tuple(
                MembershipPolicy(seed=seed).rejoin_delay_s(0, attempt)
                for attempt in range(1, 4)
            )
            for seed in range(8)
        }
        assert len(schedules) > 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rejoin_backoff_s": -0.1},
            {"rejoin_factor": 0.5},
            {"rejoin_jitter": 1.5},
            {"max_rejoin_backoff_s": 0.1, "rejoin_backoff_s": 0.5},
            {"max_dial_failures": 0},
            {"quarantine_losses": 0},
            {"probation_s": 0.0},
            {"probation_factor": 0.9},
            {"max_probation_s": 0.5},
            {"max_quarantines": -1},
        ],
    )
    def test_invalid_policies_are_rejected(self, kwargs):
        with pytest.raises(ValueError):
            MembershipPolicy(**kwargs)

    def test_one_based_arguments_are_enforced(self):
        policy = MembershipPolicy()
        with pytest.raises(ValueError):
            policy.rejoin_delay_s(0, 0)
        with pytest.raises(ValueError):
            policy.probation_delay_s(0, 0)


class _FakeSpan:
    """A span double for driving the coordinator without tracing."""

    def add_event(self, *args, **kwargs):
        pass

    def set_attributes(self, **kwargs):
        pass


class _ScriptedFleet:
    """Drives a thread-free ``_Coordinator`` through a membership script.

    Workers are socketpair-backed links admitted through the real
    ``_admit`` path; leases flow through ``_offer_work`` and results
    through ``_accept_result``, so the scheduling state machine under
    test is the production one — only the network and threads are gone.
    """

    def __init__(self, points, policy):
        spec = _engine._EvalSpec(on_error="skip", retry=None, timeout_s=None)
        self.spec = spec
        self.coordinator = _Coordinator(
            square,
            list(enumerate(points)),
            [],
            endpoints=(),
            fn_blob=_pack(square),
            spec_blob=_pack(spec),
            spec=spec,
            checkpoint=None,
            lease_size=1,
            max_lease_size=3,
            heartbeat_s=0.5,
            lease_ttl_s=2.0,
            max_point_crashes=2,
            policy=policy,
            listener=None,
            connect_timeout_s=0.1,
            span=_FakeSpan(),
        )
        self.links = {}  # worker ordinal -> (link, peer reader file)
        self.healths = {}
        self.sockets = []
        self.link_seq = 0

    def join(self, worker):
        if worker in self.links:
            return
        ours, theirs = socket.socketpair()
        self.sockets += [ours, theirs]
        self.link_seq += 1
        link = _Link(
            id=self.link_seq,
            endpoint=f"sim:{worker}",
            sock=ours,
            rfile=ours.makefile("r", encoding="utf-8", newline="\n"),
            wfile=ours.makefile("w", encoding="utf-8", newline="\n"),
            host="sim",
            pid=worker,
        )
        health = self.healths.setdefault(
            worker,
            _EndpointHealth(
                ordinal=worker, endpoint=f"sim:{worker}", addr=("sim", worker + 1)
            ),
        )
        peer = theirs.makefile("r", encoding="utf-8", newline="\n")
        if self.coordinator._admit(
            link, health, event="worker_rejoined", start_reader=False
        ):
            self.links[worker] = (link, peer)

    def work(self, worker):
        entry = self.links.get(worker)
        if entry is None:
            return
        link, peer = entry
        self.coordinator._offer_work(link)
        try:
            frame = _recv(peer)
        except (OSError, ValueError, FabricError):
            return
        if frame is None or frame["type"] != "lease":
            return
        outcomes = [
            _engine._eval_point(square, index, point, self.spec)
            for index, point in _unpack(frame["points"])
        ]
        self.coordinator._accept_result(
            link, {"id": frame["id"], "outcomes": _pack(outcomes)}
        )

    def lose(self, worker):
        entry = self.links.pop(worker, None)
        if entry is None:
            return
        link, _ = entry
        self.coordinator._lose_worker(link, "scripted loss")

    def settle(self):
        """Finish whatever the script left behind, the production way."""
        for worker in list(self.links):
            self.lose(worker)
        self.coordinator._finish_poison_points()
        self.coordinator._finish_locally()
        results = sorted(
            self.coordinator._results.values(), key=lambda r: r.index
        )
        for sock in self.sockets:
            try:
                sock.close()
            except OSError:
                pass
        return results


class TestMembershipDeterminism:
    @settings(deadline=None, max_examples=30)
    @given(
        script=st.lists(
            st.tuples(
                st.sampled_from(["join", "work", "lose"]), st.integers(0, 2)
            ),
            max_size=40,
        )
    )
    def test_any_membership_schedule_yields_identical_artifacts(self, script):
        # The determinism contract: joins, losses, rejoins and
        # quarantines are scheduling events only. Whatever interleaving
        # hypothesis finds, the settled values must be byte-identical
        # to the plain serial evaluation of the same grid.
        points = list(range(12))
        policy = MembershipPolicy(
            rejoin_backoff_s=0.01,
            max_rejoin_backoff_s=0.02,
            quarantine_losses=1,
            probation_s=0.01,
            max_probation_s=0.02,
            max_quarantines=1,
            seed=7,
        )
        fleet = _ScriptedFleet(points, policy)
        for action, worker in script:
            getattr(fleet, {"join": "join", "work": "work", "lose": "lose"}[action])(
                worker
            )
        results = fleet.settle()
        assert [r.index for r in results] == points
        assert all(r.status == "ok" for r in results)
        assert pickle.dumps(tuple(r.value for r in results)) == pickle.dumps(
            tuple(x * x for x in points)
        )


class TestWireProtocol:
    def test_malformed_frame_raises_fabric_error(self):
        import io

        with pytest.raises(FabricError, match="malformed"):
            _recv(io.StringIO("this is not json\n"))
        with pytest.raises(FabricError, match="without a type"):
            _recv(io.StringIO('{"no": "type"}\n'))
        assert _recv(io.StringIO("")) is None
