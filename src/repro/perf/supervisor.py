"""A local worker supervisor: spawn, watch, respawn — within a budget.

:class:`WorkerSupervisor` manages a small fleet of ``sweep-worker``
subprocesses on the local host. Each worker announces its bound port
on stdout; the supervisor parses the announcement, watches the process
and — when it dies for any reason — respawns it *on the same port*, so
a coordinator re-dialing the endpoint under its
:class:`~repro.perf.fabric.MembershipPolicy` finds the replacement
exactly where the casualty was.

Respawning is rate-limited per worker slot: more than
``max_restarts`` restarts inside ``restart_window_s`` and the slot is
given up (a worker that dies that often is a crash loop, and feeding
it leases would just spend the fleet's crash budgets). The limiter is
the process-level sibling of the fabric's quarantine ledger — the
supervisor stops paying for a flapper's respawns just like the
coordinator stops paying for its leases.

The CLI's ``--supervise N`` flag wraps a sweep in one of these, which
is also the intended library idiom::

    with WorkerSupervisor(2, throttle_s=0.1) as fleet:
        result = fabric_sweep(fn, points, workers=",".join(fleet.endpoints))

Everything is stdlib: :mod:`subprocess` children, one monitor thread,
no process groups or signals beyond terminate/kill.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any

from repro.core.durable import RestartBudget
from repro.core.errors import FabricError
from repro.obs import metrics as _metrics

__all__ = ["WorkerSupervisor"]

#: What a booting worker prints once its listen socket is bound.
_ANNOUNCE_RE = re.compile(r"worker listening on (\S+):(\d+)")

_SUPERVISED = _metrics.REGISTRY.gauge(
    "fabric.supervised_workers", help="locally-supervised worker processes alive"
)
_RESPAWNS = _metrics.REGISTRY.counter(
    "fabric.worker_respawns", help="supervised workers respawned after dying"
)
_GIVEUPS = _metrics.REGISTRY.counter(
    "fabric.respawn_giveups", help="supervised worker slots abandoned to crash loops"
)


class _Slot:
    """One supervised worker position: a port, a process, a restart budget."""

    def __init__(self, ordinal: int, max_restarts: int, window_s: float):
        self.ordinal = ordinal
        self.host = ""
        self.port = 0
        self.process: "subprocess.Popen[str] | None" = None
        self.budget = RestartBudget(max_restarts, window_s)
        self.given_up = False


class WorkerSupervisor:
    """Keep ``count`` local ``sweep-worker`` processes alive.

    ``throttle_s`` is forwarded to the workers (chaos pacing);
    ``max_restarts`` / ``restart_window_s`` bound the respawn rate per
    worker slot before the supervisor gives the slot up; ``poll_s`` is
    how often the monitor thread checks for corpses. ``python``
    overrides the interpreter used to launch workers (defaults to
    :data:`sys.executable`).
    """

    def __init__(
        self,
        count: int,
        *,
        host: str = "127.0.0.1",
        throttle_s: float = 0.0,
        max_restarts: int = 5,
        restart_window_s: float = 30.0,
        poll_s: float = 0.1,
        python: "str | None" = None,
    ):
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        if throttle_s < 0.0:
            raise ValueError(f"throttle_s must be >= 0, got {throttle_s}")
        if poll_s <= 0.0:
            raise ValueError(f"poll_s must be positive, got {poll_s}")
        self._host = host
        self._throttle_s = throttle_s
        self._poll_s = poll_s
        self._python = python or sys.executable
        self._slots = [_Slot(ordinal, max_restarts, restart_window_s) for ordinal in range(count)]
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._monitor: "threading.Thread | None" = None
        self._started = False

    # -- lifecycle -------------------------------------------------------

    @property
    def endpoints(self) -> "tuple[str, ...]":
        """``host:port`` strings for every slot (valid after :meth:`start`)."""
        return tuple(f"{slot.host}:{slot.port}" for slot in self._slots)

    def start(self) -> "tuple[str, ...]":
        """Launch every worker; returns their endpoints once all announce."""
        if self._started:
            raise FabricError("the supervisor is already running")
        self._started = True
        try:
            for slot in self._slots:
                self._spawn(slot, port=0)
        except Exception:
            self.stop()
            raise
        self._monitor = threading.Thread(
            target=self._watch, name="fabric-supervisor", daemon=True
        )
        self._monitor.start()
        _SUPERVISED.set(self._alive_count())
        return self.endpoints

    def stop(self) -> None:
        """Terminate every worker and stop respawning (idempotent)."""
        self._stop.set()
        if self._monitor is not None:
            self._monitor.join(timeout=max(1.0, self._poll_s * 4))
            self._monitor = None
        with self._lock:
            processes = [
                slot.process for slot in self._slots if slot.process is not None
            ]
        for process in processes:
            if process.poll() is None:
                process.terminate()
        deadline = time.monotonic() + 2.0
        for process in processes:
            budget = max(0.0, deadline - time.monotonic())
            try:
                process.wait(timeout=budget)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=1.0)
        _SUPERVISED.set(0)

    def __enter__(self) -> "WorkerSupervisor":
        """Context-manager entry: :meth:`start` the fleet."""
        self.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        """Context-manager exit: :meth:`stop` the fleet."""
        self.stop()

    # -- spawning --------------------------------------------------------

    def _command(self, port: int) -> "list[str]":
        """The ``sweep-worker`` argv for one worker bound to ``port``."""
        command = [
            self._python,
            "-m",
            "repro.cli",
            "sweep-worker",
            "--listen",
            f"{self._host}:{port}",
        ]
        if self._throttle_s:
            command += ["--throttle", str(self._throttle_s)]
        return command

    def _environment(self) -> "dict[str, str]":
        """The child environment, with this ``repro`` importable."""
        env = dict(os.environ)
        package_root = str(Path(__file__).resolve().parents[2])
        existing = env.get("PYTHONPATH", "")
        if package_root not in existing.split(os.pathsep):
            env["PYTHONPATH"] = (
                package_root + (os.pathsep + existing if existing else "")
            )
        return env

    def _spawn(self, slot: _Slot, *, port: int) -> None:
        """Start one worker and wait for its port announcement."""
        process = subprocess.Popen(
            self._command(port),
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            env=self._environment(),
        )
        announced: "list[str]" = []

        def read_announcement() -> None:
            """Pull the first stdout line (the bind announcement)."""
            line = process.stdout.readline() if process.stdout else ""
            announced.append(line)

        reader = threading.Thread(target=read_announcement, daemon=True)
        reader.start()
        reader.join(timeout=10.0)
        match = _ANNOUNCE_RE.search(announced[0]) if announced else None
        if match is None:
            process.kill()
            process.wait(timeout=2.0)
            raise FabricError(
                f"supervised worker {slot.ordinal} never announced its port"
            )
        threading.Thread(
            target=self._drain, args=(process,), daemon=True
        ).start()
        with self._lock:
            slot.host = match.group(1)
            slot.port = int(match.group(2))
            slot.process = process

    @staticmethod
    def _drain(process: "subprocess.Popen[str]") -> None:
        """Discard a worker's remaining stdout so it never blocks on the pipe."""
        if process.stdout is None:
            return
        for _ in process.stdout:
            pass

    # -- monitoring ------------------------------------------------------

    def _alive_count(self) -> int:
        """Workers currently running."""
        with self._lock:
            return sum(
                1
                for slot in self._slots
                if slot.process is not None and slot.process.poll() is None
            )

    def _watch(self) -> None:
        """Respawn dead workers (same port) until stopped or given up."""
        while not self._stop.wait(self._poll_s):
            for slot in self._slots:
                with self._lock:
                    process = slot.process
                    given_up = slot.given_up
                if given_up or process is None or process.poll() is None:
                    continue
                if self._stop.is_set():
                    return
                self._respawn(slot)
            _SUPERVISED.set(self._alive_count())

    def _respawn(self, slot: _Slot) -> None:
        """One worker died: relaunch it on its port, within the rate budget."""
        if not slot.budget.spend():
            slot.given_up = True
            _GIVEUPS.inc()
            return
        try:
            self._spawn(slot, port=slot.port)
        except (FabricError, OSError):
            # The replacement never came up (port still draining, fork
            # pressure): leave the corpse for the next poll, which
            # retries under the same rate budget.
            return
        _RESPAWNS.inc()
