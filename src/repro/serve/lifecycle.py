"""Graceful shutdown: stop accepting, drain in-flight work, exit clean.

The drain contract the tests and the CI smoke step assert:

1. SIGTERM/SIGINT flips the :class:`DrainController` to *draining* —
   from that instant every newly arriving request is rejected with a
   structured 503 (``code: "draining"``), never silently dropped;
2. requests already admitted keep running; the controller counts them
   and :meth:`wait_drained` blocks until the count reaches zero and
   every owed response is written, or the drain deadline lapses;
3. a drain that completes inside the deadline exits 0 with zero
   dropped accepted requests; a forced exit after the deadline reports
   the stragglers and exits non-zero.

Signal handlers are only installed from the main thread (Python's
rule); embedded servers — tests, notebooks — call
:meth:`DrainController.begin_drain` directly instead, which is exactly
what the handler does.
"""

from __future__ import annotations

import contextlib
import signal
import threading
from typing import Callable, Iterator

from repro.obs import metrics as _metrics
from repro.serve.errors import DrainingError

__all__ = ["DrainController", "install_signal_handlers"]


_DRAINS = _metrics.REGISTRY.counter(
    "serve.drains", help="graceful drains initiated (SIGTERM/SIGINT or API)"
)


class DrainController:
    """Tracks in-flight requests and the accepting/draining transition."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)
        self._inflight = 0
        self._responding = 0
        self._draining = threading.Event()
        #: Called once when the drain begins (the server hooks its
        #: listener shutdown here).
        self.on_drain: "Callable[[], None] | None" = None

    @property
    def draining(self) -> bool:
        """True once a drain has begun (never reset)."""
        return self._draining.is_set()

    @property
    def inflight(self) -> int:
        """Requests admitted and not yet finished."""
        with self._lock:
            return self._inflight

    def admit(self) -> "_InflightToken":
        """Admit one request; raises :class:`DrainingError` mid-drain.

        Use as a context manager so completion is recorded on every
        path, including handler exceptions.
        """
        with self._lock:
            if self._draining.is_set():
                raise DrainingError("server is draining; connection refused")
            self._inflight += 1
        return _InflightToken(self)

    @contextlib.contextmanager
    def responding(self) -> "Iterator[None]":
        """Hold the drain open until one HTTP response is written (never refused)."""
        with self._lock:
            self._responding += 1
        try:
            yield
        finally:
            with self._lock:
                self._responding -= 1
                self._idle.notify_all()

    def _release(self) -> None:
        with self._lock:
            self._inflight -= 1
            if self._inflight == 0:
                self._idle.notify_all()

    def begin_drain(self) -> bool:
        """Flip to draining; True only for the call that flipped it."""
        with self._lock:
            if self._draining.is_set():
                return False
            self._draining.set()
        _DRAINS.inc()
        callback = self.on_drain
        if callback is not None:
            callback()
        return True

    def wait_drained(self, timeout_s: "float | None") -> bool:
        """Block until no request is in flight or owed a response; False on timeout."""
        with self._lock:
            return self._idle.wait_for(lambda: not (self._inflight or self._responding), timeout_s)

    def wait_for_drain_signal(self, timeout_s: "float | None" = None) -> bool:
        """Block until a drain begins (used by the serve main loop)."""
        return self._draining.wait(timeout_s)


class _InflightToken:
    """Context manager pairing one admit with exactly one release."""

    __slots__ = ("_controller", "_released")

    def __init__(self, controller: DrainController):
        self._controller = controller
        self._released = False

    def __enter__(self) -> "_InflightToken":
        return self

    def __exit__(self, *exc_info: object) -> None:
        if not self._released:
            self._released = True
            self._controller._release()


def install_signal_handlers(
    controller: DrainController,
    *,
    signals: "tuple[int, ...]" = (signal.SIGTERM, signal.SIGINT),
) -> bool:
    """Route SIGTERM/SIGINT into :meth:`DrainController.begin_drain`.

    Returns False (and installs nothing) when called off the main
    thread, where CPython forbids ``signal.signal``; embedded callers
    drive the controller directly.
    """
    if threading.current_thread() is not threading.main_thread():
        return False

    def _handle(signum: int, frame: object) -> None:
        controller.begin_drain()

    for signum in signals:
        signal.signal(signum, _handle)
    return True
