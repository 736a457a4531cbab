"""Lifecycle tests: graceful drain, the soak test and the chaos test."""

import json
import signal
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path

import pytest

from repro.faults import FaultPlan
from repro.serve.breaker import BreakerPolicy
from repro.serve.errors import DrainingError
from repro.serve.lifecycle import DrainController, install_signal_handlers
from repro.serve.server import ServerConfig, ServiceApp, run_server

REPO_ROOT = Path(__file__).resolve().parent.parent.parent

CLASSIFY = "/v1/classify?ips=1&dps=n&ip-dp=1-n&ip-im=1-1&dp-dm=nxn&dp-dp=nxn"


class TestDrainController:
    def test_admit_and_release_track_inflight(self):
        controller = DrainController()
        token = controller.admit()
        assert controller.inflight == 1
        with token:
            pass
        assert controller.inflight == 0

    def test_begin_drain_flips_once(self):
        controller = DrainController()
        fired = []
        controller.on_drain = lambda: fired.append(1)
        assert controller.begin_drain()
        assert not controller.begin_drain()  # idempotent
        assert fired == [1]
        assert controller.draining

    def test_admission_refused_mid_drain(self):
        controller = DrainController()
        controller.begin_drain()
        with pytest.raises(DrainingError, match="draining"):
            controller.admit()

    def test_wait_drained_blocks_for_inflight_work(self):
        controller = DrainController()
        token = controller.admit()
        assert not controller.wait_drained(0.05)  # still in flight
        with token:
            pass
        assert controller.wait_drained(0.05)

    def test_wait_drained_waits_for_the_response_write(self):
        controller = DrainController()
        with controller.responding():
            with controller.admit():
                pass
            assert controller.inflight == 0
            assert not controller.wait_drained(0.05)  # response not yet written
        assert controller.wait_drained(0.05)

    def test_wait_for_drain_signal(self):
        controller = DrainController()
        assert not controller.wait_for_drain_signal(0.01)
        controller.begin_drain()
        assert controller.wait_for_drain_signal(0.01)

    def test_signal_handlers_refused_off_main_thread(self):
        results = []
        thread = threading.Thread(
            target=lambda: results.append(install_signal_handlers(DrainController()))
        )
        thread.start()
        thread.join()
        assert results == [False]


class TestSoak:
    def test_hammering_threads_see_only_200s_and_clean_drains(self):
        """N threads hammer classify while a drain lands mid-flight.

        The contract: every response is either a 200 (admitted before
        the drain) or a structured 503 ``draining`` (admitted after) —
        never a 500, never an exception — and the drain completes.
        """
        app = ServiceApp(ServerConfig(workers=4, queue_depth=32, deadline_s=10.0))
        statuses = []
        lock = threading.Lock()
        start = threading.Barrier(9)

        def hammer():
            start.wait()
            for _ in range(25):
                response = app.dispatch("GET", CLASSIFY)
                with lock:
                    statuses.append(response.status)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        start.wait()  # all threads are mid-hammer when the drain begins
        app.drain.begin_drain()
        for thread in threads:
            thread.join(30.0)
        assert app.shutdown()
        assert len(statuses) == 8 * 25
        assert set(statuses) <= {200, 503}
        assert 503 in statuses  # the drain did reject some requests
        # The headline: zero 5xx other than the structured drain shed.
        assert all(status != 500 for status in statuses)

    def test_sigterm_drains_and_exits_zero(self):
        """The subprocess flavour: boot, load, SIGTERM mid-flight, exit 0."""
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "--port", "0", "--workers", "2"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            cwd=REPO_ROOT,
        )
        try:
            line = proc.stdout.readline().strip()
            assert line.startswith("listening on ")
            url = line.removeprefix("listening on ")
            for _ in range(10):
                with urllib.request.urlopen(url + CLASSIFY, timeout=10.0) as response:
                    assert response.status == 200
            proc.send_signal(signal.SIGTERM)
            status = proc.wait(timeout=30.0)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert status == 0
        assert "drained cleanly" in proc.stderr.read()


class TestKeepAliveBatchDrain:
    def test_sigterm_mid_batch_finishes_the_batch_then_closes(self):
        """SIGTERM with a batch POST in flight: finish it, close, exit 0.

        The batch is parked behind a slow fabric-backed survey on a
        1-thread pool, so the SIGTERM reliably lands while the batch
        holds an admission token but has not yet run. The drain contract:
        the batch still completes (200, every item answered), its
        keep-alive connection is told ``Connection: close``, and the
        server exits 0 reporting a clean drain.
        """
        import http.client
        from urllib.parse import urlsplit

        worker = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "sweep-worker",
                "--listen", "127.0.0.1:0", "--throttle", "0.25",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            cwd=REPO_ROOT,
        )
        proc = None
        connection = None
        try:
            announced = worker.stdout.readline().strip()
            assert announced.startswith("worker listening on ")
            endpoint = announced.removeprefix("worker listening on ")
            proc = subprocess.Popen(
                [
                    sys.executable, "-m", "repro.serve",
                    "--port", "0", "--workers", "1",
                    "--deadline", "30", "--drain-deadline", "30",
                    "--keepalive-idle", "30",
                    "--fabric-workers", endpoint,
                ],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
                cwd=REPO_ROOT,
            )
            line = proc.stdout.readline().strip()
            assert line.startswith("listening on ")
            url = urlsplit(line.removeprefix("listening on "))
            connection = http.client.HTTPConnection(
                url.hostname, url.port, timeout=60.0
            )

            # Prove the connection really is keep-alive before the drain.
            connection.request("GET", CLASSIFY)
            with connection.getresponse() as warmup:
                assert warmup.status == 200
                assert warmup.getheader("Connection") == "keep-alive"
                warmup.read()

            # Occupy the single worker thread with a throttled,
            # fabric-backed sweep (~22 survey machines x 0.25s each).
            base_url = line.removeprefix("listening on ")
            survey_status = []

            def slow_survey():
                with urllib.request.urlopen(
                    base_url + "/v1/survey?costs=true&n=64", timeout=60.0
                ) as response:
                    survey_status.append(response.status)

            survey = threading.Thread(target=slow_survey, daemon=True)
            survey.start()
            # Wait until readyz reports the fabric sweep mid-flight, so
            # the batch below reliably queues behind it.
            deadline = time.monotonic() + 15.0
            while time.monotonic() < deadline:
                with urllib.request.urlopen(
                    base_url + "/v1/readyz", timeout=10.0
                ) as probe:
                    if json.loads(probe.read())["fabric"].get("active"):
                        break
                time.sleep(0.05)
            else:
                pytest.fail("the survey sweep never reached the fabric")

            items = [{"serial": 1 + (k % 47), "n": 1 + k} for k in range(32)]
            connection.request(
                "POST",
                "/v1/costs",
                body=json.dumps({"items": items}),
                headers={"Content-Type": "application/json"},
            )
            time.sleep(0.5)  # the batch is queued, token held
            proc.send_signal(signal.SIGTERM)

            with connection.getresponse() as response:
                assert response.status == 200
                assert response.getheader("Connection") == "close"
                payload = json.loads(response.read())
            assert payload["count"] == len(items)
            assert payload["errors"] == 0
            survey.join(60.0)
            assert survey_status == [200]
            status = proc.wait(timeout=60.0)
            assert status == 0
            assert "drained cleanly" in proc.stderr.read()
        finally:
            if connection is not None:
                connection.close()
            for leftover in (proc, worker):
                if leftover is not None and leftover.poll() is None:
                    leftover.kill()
                    leftover.wait()


class TestRunServer:
    def test_run_server_in_process_drains_and_returns_zero(self, capsys):
        """Drive the blocking entry point end to end without a subprocess.

        ``ready`` hands us the bound server; a drain begun from the test
        thread must unwind ``serve_forever`` and return 0 (clean drain).
        """
        booted = threading.Event()
        captured = {}

        def ready(server):
            captured["server"] = server
            booted.set()

        config = ServerConfig(port=0, workers=2, drain_s=5.0)
        result = []
        runner = threading.Thread(
            target=lambda: result.append(run_server(config, ready=ready)),
            daemon=True,
        )
        runner.start()
        assert booted.wait(10.0)
        server = captured["server"]
        with urllib.request.urlopen(server.url + CLASSIFY, timeout=10.0) as response:
            assert response.status == 200
        server.app.drain.begin_drain()
        runner.join(30.0)
        assert result == [0]
        assert "listening on " in capsys.readouterr().out

    def test_module_main_builds_config_from_flags(self, monkeypatch):
        """``python -m repro.serve`` flag parsing, without binding a port."""
        from repro.serve import __main__ as module_main

        seen = {}

        def fake_run_server(config):
            seen["config"] = config
            return 0

        monkeypatch.setattr(module_main, "run_server", fake_run_server)
        assert module_main.main(
            ["--port", "0", "--workers", "3", "--fault-seed", "7", "--rate", "2.5"]
        ) == 0
        config = seen["config"]
        assert config.workers == 3
        assert config.rate == 2.5
        assert config.fault_plan is not None
        # No --fault-seed -> no chaos plan.
        assert module_main.main(["--port", "0"]) == 0
        assert seen["config"].fault_plan is None


class TestChaos:
    def test_injected_faults_open_the_breaker_then_recover(self):
        """Seeded chaos: breaker opens, readyz flips 503, then recovers.

        Seed 1 at rate 1.0 over a 2-cycle horizon schedules faults on
        protected-request ordinals 1 and 2 only — deterministic, so the
        test needs no sleeps or probabilities, just a fake clock.
        """
        clock_now = [0.0]
        policy = BreakerPolicy(failure_threshold=2, recovery_s=10.0, jitter=0.0)
        app = ServiceApp(
            ServerConfig(
                deadline_s=None,
                breaker=policy,
                fault_plan=FaultPlan.random(1, 1.0, n_pes=2, horizon=2),
            ),
            clock=lambda: clock_now[0],
        )
        survey = "/v1/survey?costs=true&n=4"

        # Ordinals 1 and 2 fault -> two sanitised 500s, breaker opens.
        first = app.dispatch("GET", survey)
        assert first.status == 500
        assert first.payload["error"]["code"] == "internal"
        assert "Traceback" not in json.dumps(first.payload)
        assert app.dispatch("GET", survey).status == 500

        # Open: instant structured 503s, readyz not ready (healthz fine).
        shed = app.dispatch("GET", survey)
        assert shed.status == 503
        assert shed.payload["error"]["code"] == "breaker_open"
        ready = app.dispatch("GET", "/v1/readyz")
        assert ready.status == 503
        assert ready.payload["status"] == "not_ready"
        assert ready.payload["breaker"]["state"] == "open"
        assert app.dispatch("GET", "/v1/healthz").status == 200

        # Past the recovery interval: half-open probe succeeds (the
        # fault plan is exhausted), breaker closes, readiness returns.
        clock_now[0] += policy.recovery_delay_s(1) + 0.001
        probe = app.dispatch("GET", survey)
        assert probe.status == 200
        recovered = app.dispatch("GET", "/v1/readyz")
        assert recovered.status == 200
        assert recovered.payload["breaker"]["state"] == "closed"
        assert app.shutdown()
