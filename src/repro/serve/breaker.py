"""Circuit breaking for expensive sweep-backed queries.

A :class:`CircuitBreaker` guards one dependency (here: the survey cost
sweep) with the classic three-state machine:

* **closed** — calls pass through; consecutive failures are counted;
* **open** — after ``failure_threshold`` consecutive failures, calls
  are rejected instantly with :class:`BreakerOpenError` for a recovery
  interval, so a struggling dependency is given air instead of a
  thundering herd;
* **half-open** — once the interval lapses, up to ``probe_limit``
  concurrent probe calls are admitted; ``success_threshold`` probe
  successes close the breaker, any probe failure re-opens it with a
  longer interval.

The recovery schedule is *deterministic*, in the same style as
:class:`repro.perf.RetryPolicy`: interval ``k`` (1-based, one per
consecutive open) is::

    recovery_s * factor**(k - 1) * (1 + jitter * u)   capped at max_recovery_s

with ``u`` drawn from a PRNG seeded purely by ``(seed, k)`` — two
breakers with the same policy trace byte-identical state timelines
under the same fault sequence, which is what the chaos tests pin down.

State is exported through the ``serve.breaker_state`` gauge
(0 closed / 1 half-open / 2 open) and a transition counter, and the
``/v1/readyz`` endpoint reports 503 while the breaker is open.
"""

from __future__ import annotations

import enum
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable

from repro.core.durable import check_backoff, seeded_backoff
from repro.obs import metrics as _metrics
from repro.serve.errors import BreakerOpenError

__all__ = ["BreakerPolicy", "BreakerState", "CircuitBreaker"]


_BREAKER_STATE = _metrics.REGISTRY.gauge(
    "serve.breaker_state", help="circuit breaker state (0 closed, 1 half-open, 2 open)"
)
_BREAKER_TRANSITIONS = _metrics.REGISTRY.counter(
    "serve.breaker_transitions", help="circuit breaker state transitions"
)
_BREAKER_REJECTED = _metrics.REGISTRY.counter(
    "serve.breaker_rejected", help="calls rejected by an open circuit breaker"
)


class BreakerState(enum.Enum):
    """The three classic breaker states."""

    CLOSED = "closed"
    HALF_OPEN = "half-open"
    OPEN = "open"

    @property
    def gauge_value(self) -> int:
        """Numeric encoding for the ``serve.breaker_state`` gauge."""
        return {"closed": 0, "half-open": 1, "open": 2}[self.value]


@dataclass(frozen=True, slots=True)
class BreakerPolicy:
    """Deterministic breaker tuning, :class:`~repro.perf.RetryPolicy`-style.

        >>> BreakerPolicy(seed=7).recovery_schedule(3) == \\
        ...     BreakerPolicy(seed=7).recovery_schedule(3)
        True
    """

    failure_threshold: int = 5
    recovery_s: float = 1.0
    factor: float = 2.0
    jitter: float = 0.25
    max_recovery_s: float = 60.0
    probe_limit: int = 1
    success_threshold: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError(f"failure_threshold must be >= 1, got {self.failure_threshold}")
        if self.recovery_s <= 0:
            raise ValueError(f"recovery_s must be > 0, got {self.recovery_s}")
        check_backoff(self, "recovery_s", "factor", "jitter", "max_recovery_s")
        if self.probe_limit < 1:
            raise ValueError(f"probe_limit must be >= 1, got {self.probe_limit}")
        if self.success_threshold < 1:
            raise ValueError(f"success_threshold must be >= 1, got {self.success_threshold}")

    def recovery_delay_s(self, open_count: int) -> float:
        """The deterministic recovery interval for consecutive open ``open_count``."""
        return seeded_backoff(
            self.recovery_s,
            self.factor,
            open_count,
            jitter=self.jitter,
            seed=self.seed,
            salts=(open_count, 0),
            cap=self.max_recovery_s,
        )

    def recovery_schedule(self, count: int) -> tuple[float, ...]:
        """The first ``count`` recovery intervals."""
        return tuple(self.recovery_delay_s(k) for k in range(1, count + 1))


class CircuitBreaker:
    """Thread-safe three-state breaker around one guarded callable."""

    def __init__(
        self,
        policy: "BreakerPolicy | None" = None,
        *,
        name: str = "sweep",
        clock: Callable[[], float] = time.monotonic,
    ):
        self.policy = policy if policy is not None else BreakerPolicy()
        self.name = name
        self._clock = clock
        self._lock = threading.Lock()
        self._state = BreakerState.CLOSED
        self._failures = 0          # consecutive failures while closed
        self._open_count = 0        # consecutive opens (drives the backoff)
        self._opened_at = 0.0
        self._probes = 0            # probes in flight while half-open
        self._probe_successes = 0
        _BREAKER_STATE.set(self._state.gauge_value)

    # -- state inspection ------------------------------------------------

    @property
    def state(self) -> BreakerState:
        """The breaker's current state (advancing open→half-open lazily)."""
        with self._lock:
            self._maybe_half_open()
            return self._state

    def snapshot(self) -> dict[str, Any]:
        """JSON-ready state for ``/v1/readyz``."""
        with self._lock:
            self._maybe_half_open()
            body: dict[str, Any] = {
                "name": self.name,
                "state": self._state.value,
                "consecutive_failures": self._failures,
                "open_count": self._open_count,
            }
            if self._state is BreakerState.OPEN:
                body["retry_after_s"] = round(max(self._remaining_open(), 0.0), 3)
            return body

    def _remaining_open(self) -> float:
        return self.policy.recovery_delay_s(self._open_count) - (
            self._clock() - self._opened_at
        )

    def _maybe_half_open(self) -> None:
        """Lazy open → half-open transition once the interval has lapsed."""
        if self._state is BreakerState.OPEN and self._remaining_open() <= 0.0:
            self._transition(BreakerState.HALF_OPEN)
            self._probes = 0
            self._probe_successes = 0

    def _transition(self, state: BreakerState) -> None:
        if state is not self._state:
            self._state = state
            _BREAKER_STATE.set(state.gauge_value)
            _BREAKER_TRANSITIONS.inc()

    # -- the guarded call ------------------------------------------------

    def call(self, fn: Callable[[], Any]) -> Any:
        """Run ``fn`` under the breaker; exceptions count as failures."""
        with self._admit():
            return fn()

    def _admit(self) -> "_Admission":
        with self._lock:
            self._maybe_half_open()
            if self._state is BreakerState.OPEN:
                _BREAKER_REJECTED.inc()
                raise BreakerOpenError(
                    f"circuit breaker {self.name!r} is open",
                    retry_after_s=max(self._remaining_open(), 0.0),
                )
            if self._state is BreakerState.HALF_OPEN:
                if self._probes >= self.policy.probe_limit:
                    _BREAKER_REJECTED.inc()
                    raise BreakerOpenError(
                        f"circuit breaker {self.name!r} is half-open and probing",
                        retry_after_s=self.policy.recovery_s,
                    )
                self._probes += 1
        return _Admission(self)

    def _record_success(self) -> None:
        with self._lock:
            if self._state is BreakerState.HALF_OPEN:
                self._probes -= 1
                self._probe_successes += 1
                if self._probe_successes >= self.policy.success_threshold:
                    self._transition(BreakerState.CLOSED)
                    self._failures = 0
                    self._open_count = 0
            else:
                self._failures = 0

    def _record_failure(self) -> None:
        with self._lock:
            if self._state is BreakerState.HALF_OPEN:
                self._probes -= 1
                self._open(self._open_count + 1)
            elif self._state is BreakerState.CLOSED:
                self._failures += 1
                if self._failures >= self.policy.failure_threshold:
                    self._open(self._open_count + 1)

    def _open(self, open_count: int) -> None:
        self._open_count = open_count
        self._opened_at = self._clock()
        self._failures = 0
        self._transition(BreakerState.OPEN)


class _Admission:
    """Context manager recording the guarded call's outcome."""

    __slots__ = ("_breaker",)

    def __init__(self, breaker: CircuitBreaker):
        self._breaker = breaker

    def __enter__(self) -> "_Admission":
        return self

    def __exit__(self, exc_type: "type | None", *exc_info: object) -> bool:
        if exc_type is None:
            self._breaker._record_success()
        else:
            self._breaker._record_failure()
        return False
