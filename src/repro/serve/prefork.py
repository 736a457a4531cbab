"""The pre-fork front end: N worker processes, one shared port.

``run_server`` handles one process's worth of traffic; this module
multiplies it. The parent binds a *probe* socket with ``SO_REUSEPORT``
— never listening, just holding the port (and resolving ``port=0`` to
a concrete ephemeral port before any child exists) — then forks
``config.processes`` workers. Each worker binds the same address with
``SO_REUSEPORT`` and runs the full single-process pipeline; the kernel
load-balances accepted connections across the listening workers.

The parent's lifecycle contract is exactly the single-process one, so
orchestration scripts cannot tell the difference:

* it prints ``listening on http://HOST:PORT`` on stdout once every
  worker has bound and is accepting;
* SIGTERM/SIGINT are forwarded to every worker, which each run their
  own graceful drain (stop accepting, finish in-flight work, shed the
  rest with structured 503s);
* it prints ``drained cleanly, exiting`` on stderr and exits 0 only
  when *every* worker drained cleanly — any worker's failure is the
  fleet's failure (exit 1).

Workers discover each other through a parent-owned fleet directory of
unix-socket stats buses (:mod:`repro.serve.fleet`), which is what lets
``/v1/metrics`` and ``/v1/readyz`` answer for the whole fleet no
matter which worker a scrape lands on. On platforms without ``fork``
or ``SO_REUSEPORT`` the front end degrades to a single process with a
warning rather than failing to start.

The parent also *supervises*: a worker that dies outside a drain
(segfault, OOM kill, SIGKILL chaos) is respawned onto the same shared
port, under a per-slot restart-rate limit (``config.respawn_max``
respawns inside ``config.respawn_window_s``) so a crash-looping
workload degrades the fleet instead of forking forever. Respawn counts
are published to ``fleet_dir/respawns.json``, which every worker
surfaces under ``/v1/readyz``'s ``fleet.respawns`` key.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import socket
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

from repro.core.atomicio import atomic_write_text
from repro.core.durable import RestartBudget
from repro.serve.server import ServerConfig, TaxonomyHTTPServer, run_server

__all__ = ["run_prefork", "supports_prefork"]


def supports_prefork() -> bool:
    """True when this platform can fork workers onto a shared port."""
    return hasattr(os, "fork") and hasattr(socket, "SO_REUSEPORT")


def _bind_probe(config: ServerConfig) -> "tuple[socket.socket, int]":
    """Reserve the listen port without listening on it.

    A bound-but-not-listening ``SO_REUSEPORT`` socket receives no
    connections, but it pins the port: ``port=0`` resolves to one
    concrete ephemeral port that every forked worker then shares, with
    no bind race and no window where another process could take it.
    """
    probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        probe.bind((config.host, config.port))
    except BaseException:
        probe.close()
        raise
    return probe, probe.getsockname()[1]


def _spawn_worker(
    worker_config: ServerConfig, probe: socket.socket
) -> "tuple[int, int]":
    """Fork one worker; returns ``(pid, readiness_read_fd)``.

    The worker writes one byte to the readiness pipe the moment its
    listener is bound and about to accept, then serves until signalled.
    It always leaves through ``os._exit`` so a worker crash can never
    fall back into the parent's stack.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid > 0:  # parent
        os.close(write_fd)
        return pid, read_fd
    # worker: nothing below may return into the caller's frames.
    status = 1
    try:
        os.close(read_fd)
        probe.close()

        def ready(server: TaxonomyHTTPServer) -> None:
            """Signal the parent that this worker is accepting."""
            os.write(write_fd, b"1")
            os.close(write_fd)

        status = run_server(worker_config, ready=ready, announce=False)
    except BaseException as error:  # noqa: BLE001 - worker's last words
        print(f"worker {os.getpid()} crashed: {error}", file=sys.stderr)
    finally:
        os._exit(status)
    raise AssertionError("unreachable")  # pragma: no cover


def run_prefork(config: ServerConfig) -> int:
    """Run ``config.processes`` forked workers on one shared port.

    Blocks until every worker has exited (normally after a forwarded
    SIGTERM/SIGINT triggered their drains). Returns 0 only when every
    worker drained cleanly.
    """
    if config.processes < 2:
        return run_server(config)
    if not supports_prefork():
        print(
            "warning: this platform lacks fork/SO_REUSEPORT; "
            "serving from a single process",
            file=sys.stderr,
        )
        return run_server(replace(config, processes=1))

    probe, port = _bind_probe(config)
    fleet_dir = tempfile.mkdtemp(prefix="repro-serve-fleet-")
    worker_config = replace(
        config,
        port=port,
        processes=1,
        reuse_port=True,
        fleet_dir=fleet_dir,
    )
    live: dict[int, int] = {}  # pid -> worker slot
    budgets = [
        RestartBudget(config.respawn_max, config.respawn_window_s)
        for _ in range(config.processes)
    ]
    ledger = {"respawns": 0, "given_up": 0}
    draining = False
    drain_signum = signal.SIGTERM
    try:
        _write_respawn_ledger(fleet_dir, ledger)
        ready_fds: list[int] = []
        for slot in range(config.processes):
            pid, read_fd = _spawn_worker(worker_config, probe)
            live[pid] = slot
            ready_fds.append(read_fd)

        def forward(signum: int, frame: object) -> None:
            """Relay the shutdown signal to every live worker."""
            nonlocal draining, drain_signum
            draining = True
            drain_signum = signum
            for pid in list(live):
                try:
                    os.kill(pid, signum)
                except ProcessLookupError:  # pragma: no cover - already gone
                    pass

        signal.signal(signal.SIGTERM, forward)
        signal.signal(signal.SIGINT, forward)

        # A worker that dies before binding closes its pipe unwritten;
        # announce only once every worker reported in (or gave up).
        ready_count = 0
        for read_fd in ready_fds:
            if os.read(read_fd, 1):
                ready_count += 1
            os.close(read_fd)
        if ready_count == len(live):
            print(f"listening on http://{config.host}:{port}", flush=True)
        else:
            print(
                f"warning: only {ready_count}/{len(live)} workers came up",
                file=sys.stderr,
            )

        failures = 0
        while live:
            try:
                pid, status = os.waitpid(-1, 0)
            except ChildProcessError:  # pragma: no cover - all reaped
                break
            slot = live.pop(pid, None)
            if slot is None:  # pragma: no cover - not one of ours
                continue
            exitcode = os.waitstatus_to_exitcode(status)
            if draining:
                # Expected exits: the forwarded signal triggered drains.
                if exitcode != 0:
                    failures += 1
                continue
            # Unexpected death (crash, OOM, SIGKILL chaos): respawn the
            # slot under its restart-rate limit.
            if not budgets[slot].spend():
                print(
                    f"worker slot {slot} exceeded {config.respawn_max} respawns "
                    f"in {config.respawn_window_s:g}s; giving up on it",
                    file=sys.stderr,
                )
                ledger["given_up"] += 1
                _write_respawn_ledger(fleet_dir, ledger)
                failures += 1
                continue
            new_pid, read_fd = _spawn_worker(worker_config, probe)
            os.read(read_fd, 1)
            os.close(read_fd)
            live[new_pid] = slot
            ledger["respawns"] += 1
            _write_respawn_ledger(fleet_dir, ledger)
            print(
                f"worker {pid} (slot {slot}) exited {exitcode} unexpectedly; "
                f"respawned as {new_pid}",
                file=sys.stderr,
            )
            if draining:  # the drain signal raced our respawn
                try:  # pragma: no cover - narrow race window
                    os.kill(new_pid, drain_signum)
                except ProcessLookupError:  # pragma: no cover
                    pass
    finally:
        probe.close()
        shutil.rmtree(fleet_dir, ignore_errors=True)
    if failures == 0:
        print("drained cleanly, exiting", file=sys.stderr)
        return 0
    print(
        f"{failures} of {config.processes} worker slot(s) exited uncleanly",
        file=sys.stderr,
    )
    return 1


def _write_respawn_ledger(fleet_dir: str, ledger: "dict[str, int]") -> None:
    """Publish the supervision counters workers serve via ``/v1/readyz``."""
    try:
        atomic_write_text(
            Path(fleet_dir) / "respawns.json",
            json.dumps(ledger, sort_keys=True) + "\n",
        )
    except OSError:  # pragma: no cover - fleet dir racing teardown
        pass
