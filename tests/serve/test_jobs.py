"""The durable job subsystem: journal, store, runner, and REST surface."""

import errno
import json
import time

import pytest

from repro.serve.errors import BadRequestError
from repro.serve.jobs import (
    JobContext,
    JobKind,
    JobManager,
    JobStore,
    TransientJobError,
    backoff_delay,
    fold_events,
    get_job_kind,
    job_kinds,
    register_job_kind,
)
from repro.serve.router import Router
from repro.serve.server import ServerConfig, ServiceApp

SUBMITTED = {
    "event": "submitted", "ts": 1.0, "job_id": "j-1",
    "kind": "population", "params": {"size": 8},
}


def wait_for(predicate, timeout_s=20.0, interval_s=0.02):
    """Poll ``predicate`` until truthy; fail the test on timeout."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(interval_s)
    raise AssertionError("condition not reached in time")


class TestFoldEvents:
    def test_empty_journal_is_none(self):
        assert fold_events([]) is None

    def test_submission_fields_carried(self):
        record = fold_events([
            {**SUBMITTED, "idempotency_key": "k", "deadline_s": 9.0,
             "ttl_s": 5.0, "max_attempts": 7},
        ])
        assert record.state == "queued"
        assert record.idempotency_key == "k"
        assert (record.deadline_s, record.ttl_s, record.max_attempts) == (9.0, 5.0, 7)

    def test_retrying_requeues_with_not_before(self):
        record = fold_events([
            SUBMITTED,
            {"event": "started", "ts": 2.0},
            {"event": "retrying", "ts": 3.0, "not_before": 4.5, "error": "boom"},
        ])
        assert record.state == "queued"
        assert record.not_before == 4.5
        assert record.attempts == 1
        assert record.error == "boom"

    def test_interrupted_requeues_and_next_start_counts(self):
        record = fold_events([
            SUBMITTED,
            {"event": "started", "ts": 2.0},
            {"event": "interrupted", "ts": 3.0},
            {"event": "started", "ts": 4.0},
        ])
        assert record.state == "running"
        assert record.attempts == 2

    def test_terminal_states_are_final(self):
        record = fold_events([
            SUBMITTED,
            {"event": "started", "ts": 2.0},
            {"event": "cancelled", "ts": 3.0},
            {"event": "started", "ts": 4.0},
            {"event": "succeeded", "ts": 5.0},
        ])
        assert record.state == "cancelled"
        assert record.finished_at == 3.0

    def test_unknown_events_only_touch_updated_at(self):
        record = fold_events([SUBMITTED, {"event": "mystery", "ts": 9.0}])
        assert record.state == "queued"
        assert record.updated_at == 9.0


class TestBackoff:
    def test_deterministic_across_calls(self):
        assert backoff_delay("j-abc", 1) == backoff_delay("j-abc", 1)

    def test_positive_and_growing_on_average(self):
        delays = [backoff_delay("j-abc", attempt) for attempt in (1, 2, 3)]
        assert all(delay > 0 for delay in delays)
        assert delays[2] > delays[0]


class TestJobStore:
    def test_submit_get_round_trip(self, tmp_path):
        store = JobStore(tmp_path)
        record, deduped = store.submit("population", {"size": 8})
        assert not deduped
        loaded = store.get(record.job_id)
        assert loaded.state == "queued"
        assert loaded.params == {"size": 8}

    def test_idempotency_key_dedupes(self, tmp_path):
        store = JobStore(tmp_path)
        first, _ = store.submit("population", {"size": 8}, idempotency_key="k1")
        second, deduped = store.submit("population", {"size": 8}, idempotency_key="k1")
        assert deduped
        assert second.job_id == first.job_id

    def test_claim_is_exclusive_and_releasable(self, tmp_path):
        store = JobStore(tmp_path)
        record, _ = store.submit("population", {"size": 8})
        claim = store.claim(record.job_id)
        assert claim is not None
        assert store.claim(record.job_id) is None
        claim.release()
        again = store.claim(record.job_id)
        assert again is not None
        again.release()

    def test_cancel_unclaimed_job_is_immediate(self, tmp_path):
        store = JobStore(tmp_path)
        record, _ = store.submit("population", {"size": 8})
        cancelled = store.request_cancel(record.job_id)
        assert cancelled.state == "cancelled"

    def test_gc_removes_expired_terminal_jobs_and_stale_index(self, tmp_path):
        now = [100.0]
        store = JobStore(tmp_path, clock=lambda: now[0])
        record, _ = store.submit(
            "population", {"size": 8}, idempotency_key="k", ttl_s=10.0
        )
        store.append_event(record.job_id, "started")
        store.append_event(record.job_id, "succeeded")
        assert store.gc() == 0  # not yet past TTL
        now[0] = 200.0
        assert store.gc() == 1
        assert store.get(record.job_id) is None
        # The stale index was pruned, so the key mints a fresh job.
        fresh, deduped = store.submit("population", {"size": 8}, idempotency_key="k")
        assert not deduped
        assert fresh.job_id != record.job_id

    def test_stats_tallies_and_oldest_age(self, tmp_path):
        now = [50.0]
        store = JobStore(tmp_path, clock=lambda: now[0])
        store.submit("population", {"size": 8})
        now[0] = 53.0
        stats = store.stats()
        assert stats["queued"] == 1
        assert stats["states"]["succeeded"] == 0
        assert stats["oldest_queued_age_s"] == pytest.approx(3.0)


@pytest.fixture()
def manager(tmp_path):
    """A fast-polling single-runner manager over a fresh store."""
    managers = []

    def boot(**overrides):
        options = {"runners": 1, "poll_s": 0.02}
        options.update(overrides)
        instance = JobManager(tmp_path / "jobs", **options)
        managers.append(instance)
        return instance

    yield boot
    for instance in managers:
        instance.drain(5.0)


class TestJobManager:
    def test_population_job_succeeds_with_result(self, manager):
        boss = manager()
        record, _ = boss.submit("population", {"size": "64", "chunk": "16"})
        done = wait_for(lambda: boss.store.get(record.job_id).terminal
                        and boss.store.get(record.job_id))
        assert done.state == "succeeded"
        result = boss.store.read_result(record.job_id)
        assert result["total"] == 64
        assert result["classes"] >= 1

    def test_submit_dedupes_on_idempotency_key(self, manager):
        boss = manager()
        first, deduped_a = boss.submit("population", {"size": "8"}, idempotency_key="k")
        second, deduped_b = boss.submit("population", {"size": "8"}, idempotency_key="k")
        assert (deduped_a, deduped_b) == (False, True)
        assert second.job_id == first.job_id

    def test_cancel_mid_sweep_is_cooperative(self, manager):
        boss = manager()
        record, _ = boss.submit(
            "population", {"size": "2000", "chunk": "10", "throttle": "0.05"}
        )
        wait_for(lambda: boss.store.get(record.job_id).state == "running")
        boss.cancel(record.job_id)
        done = wait_for(lambda: boss.store.get(record.job_id).terminal
                        and boss.store.get(record.job_id))
        assert done.state == "cancelled"
        assert boss.store.read_result(record.job_id) is None

    def test_deadline_expires_a_slow_job(self, manager):
        boss = manager()
        record, _ = boss.submit(
            "population", {"size": "2000", "chunk": "10", "throttle": "0.05"},
            deadline_s=0.2,
        )
        done = wait_for(lambda: boss.store.get(record.job_id).terminal
                        and boss.store.get(record.job_id))
        assert done.state == "expired"
        assert "deadline" in done.error

    def test_ttl_gc_collects_terminal_jobs(self, manager):
        boss = manager()
        record, _ = boss.submit("population", {"size": "8"}, ttl_s=0.05)
        wait_for(lambda: boss.store.get(record.job_id) is not None
                 and boss.store.get(record.job_id).terminal)
        # The idle runner loop doubles as the GC; the journal disappears.
        wait_for(lambda: boss.store.get(record.job_id) is None)

    def test_transient_failures_retry_then_succeed(self, manager, monkeypatch):
        attempts = []

        def flaky(params, context):
            attempts.append(1)
            if len(attempts) < 3:
                raise TransientJobError("try again")
            return {"ok": True}

        self._register(monkeypatch, "flaky-kind", flaky)
        boss = manager()
        record, _ = boss.submit("flaky-kind", {}, max_attempts=5)
        done = wait_for(lambda: boss.store.get(record.job_id).terminal
                        and boss.store.get(record.job_id))
        assert done.state == "succeeded"
        assert done.attempts == 3

    def test_permanent_failure_spends_no_retries(self, manager, monkeypatch):
        def broken(params, context):
            raise ValueError("inherent to the parameters")

        self._register(monkeypatch, "broken-kind", broken)
        boss = manager()
        record, _ = boss.submit("broken-kind", {})
        done = wait_for(lambda: boss.store.get(record.job_id).terminal
                        and boss.store.get(record.job_id))
        assert done.state == "failed"
        assert done.attempts == 1
        assert "inherent" in done.error

    def test_runner_survives_a_failing_journal_append(self, manager, monkeypatch):
        from repro.serve.jobs import _RUNNER_ERRORS

        boss = manager()
        original = boss.store.append_event
        failing = [True]
        failures = []

        def append_event(job_id, event, **fields):
            if failing[0] and event == "started":
                failures.append(job_id)
                raise OSError(errno.EIO, "injected journal append failure")
            return original(job_id, event, **fields)

        monkeypatch.setattr(boss.store, "append_event", append_event)
        errors_before = _RUNNER_ERRORS.value
        record, _ = boss.submit("population", {"size": "8"})
        wait_for(lambda: len(failures) >= 2)
        # The runner outlived the failed appends, and the job was never
        # started: it is still queued, its claim free for the next try.
        assert boss.stats()["runners_alive"] == 1
        assert boss.store.get(record.job_id).state == "queued"
        assert _RUNNER_ERRORS.value - errors_before >= 2
        failing[0] = False
        done = wait_for(lambda: boss.store.get(record.job_id).terminal
                        and boss.store.get(record.job_id))
        assert done.state == "succeeded"
        assert done.attempts == 1

    def test_drain_interrupts_and_a_new_manager_resumes(self, manager):
        boss = manager()
        record, _ = boss.submit(
            "population", {"size": "2000", "chunk": "10", "throttle": "0.05"}
        )
        wait_for(lambda: boss.store.get(record.job_id).state == "running")
        assert boss.drain(10.0)
        interrupted = boss.store.get(record.job_id)
        assert interrupted.state == "queued"
        events = [
            json.loads(line)["event"]
            for line in boss.store.events_path(record.job_id)
            .read_text().splitlines()[1:]
        ]
        assert "interrupted" in events
        successor = manager()
        done = wait_for(lambda: successor.store.get(record.job_id).terminal
                        and successor.store.get(record.job_id))
        assert done.state == "succeeded"
        assert successor.store.read_result(record.job_id)["total"] == 2000

    @staticmethod
    def _register(monkeypatch, name, run):
        import repro.serve.jobs as jobs_module

        monkeypatch.setitem(
            jobs_module._JOB_KINDS,
            name,
            JobKind(name=name, summary="test", validate=lambda params: {}, run=run),
        )


class TestKindRegistry:
    def test_builtin_kinds_registered(self):
        assert "survey-costs" in job_kinds()
        assert "population" in job_kinds()
        assert get_job_kind("population").name == "population"

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError):
            register_job_kind(get_job_kind("population"))

    def test_survey_costs_validation_bounds(self):
        validate = get_job_kind("survey-costs").validate
        assert validate({"n": "8"})["n"] == 8
        with pytest.raises(BadRequestError):
            validate({"n": "0"})
        with pytest.raises(BadRequestError):
            validate({"mystery": "1"})


class TestRouterPrefix:
    def test_exact_route_wins_over_prefix(self):
        router = Router()
        router.add("GET", "/v1/jobs", lambda request: "exact")
        router.add_prefix("GET", "/v1/jobs", lambda request: "prefix")
        assert router._match("/v1/jobs")["GET"](None) == "exact"
        assert router._match("/v1/jobs/j-1")["GET"](None) == "prefix"

    def test_prefix_never_matches_siblings(self):
        router = Router()
        router.add_prefix("GET", "/v1/jobs", lambda request: "prefix")
        assert router._match("/v1/jobsx") is None
        assert router._match("/v1/job") is None


@pytest.fixture()
def app(tmp_path):
    """An in-process ServiceApp with the job subsystem enabled."""
    instance = ServiceApp(ServerConfig(
        port=0,
        jobs_dir=str(tmp_path / "jobs"),
        job_runners=1,
        job_poll_s=0.02,
    ))
    yield instance
    instance.shutdown(drain_s=5.0)


def call(app, method, target, body=b""):
    """Dispatch one request; returns (status, payload)."""
    response = app.dispatch(method, target, body)
    return response.status, response.payload


class TestJobsApi:
    def test_submit_poll_result_round_trip(self, app):
        status, payload = call(
            app, "POST", "/v1/jobs",
            json.dumps({"kind": "population", "size": 32, "chunk": 8}).encode(),
        )
        assert status == 202
        assert payload["deduplicated"] is False
        job_id = payload["job"]["id"]

        def finished():
            status, polled = call(app, "GET", f"/v1/jobs/{job_id}")
            assert status == 200
            return polled["job"]["state"] in ("succeeded", "failed") and polled

        wait_for(finished)
        status, result = call(app, "GET", f"/v1/jobs/{job_id}/result")
        assert status == 200
        assert result["total"] == 32

    def test_result_before_completion_is_409_with_retry_after(self, app):
        _, payload = call(
            app, "POST", "/v1/jobs",
            json.dumps({
                "kind": "population", "size": 2000, "chunk": 10, "throttle": 0.05,
            }).encode(),
        )
        job_id = payload["job"]["id"]
        status, error = call(app, "GET", f"/v1/jobs/{job_id}/result")
        assert status == 409
        assert error["error"]["code"] == "conflict"

    def test_submit_dedup_returns_200(self, app):
        body = json.dumps({
            "kind": "population", "size": 8, "idempotency-key": "api-key",
        }).encode()
        status_a, first = call(app, "POST", "/v1/jobs", body)
        status_b, second = call(app, "POST", "/v1/jobs", body)
        assert (status_a, status_b) == (202, 200)
        assert second["deduplicated"] is True
        assert second["job"]["id"] == first["job"]["id"]

    def test_unknown_kind_is_400_listing_kinds(self, app):
        status, payload = call(
            app, "POST", "/v1/jobs", json.dumps({"kind": "nope"}).encode()
        )
        assert status == 400
        assert "population" in payload["error"]["message"]

    def test_unknown_job_is_404(self, app):
        status, payload = call(app, "GET", "/v1/jobs/j-missing")
        assert status == 404
        status, payload = call(app, "DELETE", "/v1/jobs/j-missing")
        assert status == 404

    def test_list_filters_by_state_and_kind(self, app):
        _, payload = call(
            app, "POST", "/v1/jobs", json.dumps({"kind": "population", "size": 8}).encode()
        )
        job_id = payload["job"]["id"]
        wait_for(lambda: call(app, "GET", f"/v1/jobs/{job_id}")[1]["job"]["state"]
                 == "succeeded")
        status, listed = call(app, "GET", "/v1/jobs?state=succeeded")
        assert status == 200
        assert any(job["id"] == job_id for job in listed["jobs"])
        status, listed = call(app, "GET", "/v1/jobs?state=cancelled")
        assert listed["count"] == 0
        status, payload = call(app, "GET", "/v1/jobs?state=bogus")
        assert status == 400

    def test_delete_cancels(self, app):
        _, payload = call(
            app, "POST", "/v1/jobs",
            json.dumps({
                "kind": "population", "size": 2000, "chunk": 10, "throttle": 0.05,
            }).encode(),
        )
        job_id = payload["job"]["id"]
        status, cancelled = call(app, "DELETE", f"/v1/jobs/{job_id}")
        assert status == 200
        assert cancelled["job"]["cancel_requested"] or cancelled["job"]["state"] == "cancelled"
        done = wait_for(lambda: call(app, "GET", f"/v1/jobs/{job_id}")[1]["job"]
                        ["state"] in ("cancelled",) and True)
        assert done

    def test_readyz_reports_jobs_backlog(self, app):
        status, payload = call(app, "GET", "/v1/readyz")
        assert status == 200
        assert payload["jobs"]["runners"] == 1
        assert set(payload["jobs"]["states"]) == {
            "queued", "running", "succeeded", "failed", "cancelled", "expired",
        }

    def test_readyz_is_503_without_live_runners(self, app):
        assert call(app, "GET", "/v1/readyz")[1]["jobs"]["runners_alive"] == 1
        assert app.jobs.drain(5.0)
        status, payload = call(app, "GET", "/v1/readyz")
        assert status == 503
        assert payload["status"] == "not_ready"
        assert payload["jobs"]["runners_alive"] == 0

    def test_jobs_disabled_without_jobs_dir(self, tmp_path):
        plain = ServiceApp(ServerConfig(port=0))
        try:
            status, payload = call(plain, "POST", "/v1/jobs", b'{"kind": "population"}')
            assert status == 404
            status, payload = call(plain, "GET", "/v1/readyz")
            assert "jobs" not in payload
        finally:
            plain.shutdown(drain_s=1.0)


class TestJobContextHeartbeat:
    def test_deadline_trips_heartbeat(self, tmp_path):
        from repro.serve.jobs import _JobExpired

        store = JobStore(tmp_path)
        record, _ = store.submit("population", {"size": 8}, deadline_s=5.0)
        now = [record.created_at]
        context = JobContext(record, store, clock=lambda: now[0])
        context.heartbeat()  # within the deadline
        now[0] = record.created_at + 6.0
        with pytest.raises(_JobExpired):
            context.heartbeat()

    def test_cancel_flag_trips_heartbeat(self, tmp_path):
        from repro.serve.jobs import _JobCancelled

        store = JobStore(tmp_path)
        record, _ = store.submit("population", {"size": 8})
        context = JobContext(record, store)
        context.heartbeat()
        store.cancel_flag(record.job_id).write_text("cancelled\n")
        with pytest.raises(_JobCancelled):
            context.heartbeat()
