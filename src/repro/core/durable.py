"""The durability core: one log, one claim, one backoff, one restart budget.

Sweep checkpoint journals, the job store, the fabric's membership policy,
the serve circuit breaker and both process supervisors are built from
these four mechanisms, tested once under injected disk faults. The append
contract and what each fault does are stated in the "Durability core"
section of ``docs/robustness.md``: an append lands whole and fsync'd or
raises :class:`OSError` — never retried into silence (PostgreSQL's
"fsyncgate", https://wiki.postgresql.org/wiki/Fsync_Errors).
"""

from __future__ import annotations

import errno
import json
import os
import random
import time
import zlib
from collections import deque
from pathlib import Path
from typing import Any, Mapping

try:  # pragma: no cover - import guard exercised only off-POSIX
    import fcntl
except ImportError:  # pragma: no cover - Windows: advisory locking disabled
    fcntl = None  # type: ignore[assignment]

from repro.core.atomicio import atomic_write_bytes

__all__ = [
    "FlockClaim",
    "RestartBudget",
    "append_record",
    "check_backoff",
    "create_log",
    "decode_record",
    "encode_record",
    "load_log",
    "seeded_backoff",
]


def _crc(body: "Mapping[str, Any]") -> int:
    """CRC32 of a record body's canonical JSON (sans the ``crc`` key)."""
    return zlib.crc32(json.dumps(body, sort_keys=True).encode("utf-8"))


def encode_record(body: "Mapping[str, Any]") -> bytes:
    """One log line: the body's canonical JSON plus its ``crc``, newline-ended."""
    return (json.dumps({**body, "crc": _crc(body)}, sort_keys=True) + "\n").encode("utf-8")


def decode_record(line: "str | bytes", *, require_crc: bool = False) -> "dict[str, Any] | None":
    """One log line back into its body; ``None`` when torn or corrupt.

    A record that fails its checksum is rejected like unparseable bytes.
    Legacy records, written before checksums existed, carry no ``crc``
    and are accepted unless ``require_crc``.
    """
    try:
        record = json.loads(line)
    except ValueError:  # bad JSON or bad UTF-8
        return None
    if not isinstance(record, dict):
        return None
    crc = record.pop("crc", None)
    if (crc is None and require_crc) or (crc is not None and crc != _crc(record)):
        return None
    return record


def create_log(
    path: "str | os.PathLike", header: "Mapping[str, Any]", *records: "Mapping[str, Any]"
) -> None:
    """Atomically (re)write a log as a JSON ``header`` line plus ``records``."""
    data = (json.dumps(header, sort_keys=True) + "\n").encode("utf-8")
    atomic_write_bytes(path, data + b"".join(map(encode_record, records)))


def load_log(path: "str | os.PathLike", **expect: Any) -> "list[dict[str, Any]] | None":
    """Every intact record, in order; ``None`` when there is no usable header.

    The header must carry every ``expect``ed key/value pair; what an
    unusable header means is the caller's decision. Torn and corrupt
    records are dropped one by one, never hiding the records after them;
    a checksummed record glued behind damage on its line (torn bytes, a
    flipped newline) is kept.
    """
    try:
        with open(path, "rb") as handle:  # bad UTF-8 from bit rot then fails the CRC
            lines = handle.read().decode("utf-8", "replace").split("\n")
        header = json.loads(lines[0])
    except (OSError, ValueError):
        return None
    if not isinstance(header, dict) or any(
        header.get(key) != value for key, value in expect.items()
    ):
        return None
    records = []
    for line in filter(None, lines[1:]):
        record, start = decode_record(line), line.find('{"', 1)
        while record is None and start != -1:
            record = decode_record(line[start:], require_crc=True)
            start = line.find('{"', start + 1)
        if record is not None:
            records.append(record)
    return records


def append_record(path: "str | os.PathLike", body: "Mapping[str, Any]") -> None:
    """Append one CRC'd record and fsync it, or raise :class:`OSError`.

    The line is one ``os.write`` on an ``O_APPEND`` descriptor, so
    concurrent appenders interleave whole records. When the file does not
    end in a newline an earlier append was torn, and this record starts a
    fresh line; nothing is truncated, since the fragment may sit before
    another appender's whole record.
    """
    line = encode_record(body)
    fd = os.open(path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o644)
    try:
        size = os.fstat(fd).st_size
        if size and os.pread(fd, 1, size - 1) != b"\n":
            line = b"\n" + line
        written = os.write(fd, line)
        if written != len(line):
            raise OSError(errno.EIO, f"short append: wrote {written} of {len(line)} bytes")
        os.fsync(fd)
    finally:
        os.close(fd)


class FlockClaim:
    """A non-blocking exclusive ``flock`` on a sidecar file.

    The lock follows the open file description, so two threads conflict
    exactly like two processes, and the kernel frees it when the holder
    dies. Release truncates the sidecar rather than unlinking it, so two
    claimants can never lock *different* inodes under the same name.
    """

    def __init__(self, path: "str | os.PathLike"):
        self.path = Path(path)
        self._handle: Any = None

    @property
    def held(self) -> bool:
        """True while this object holds the claim."""
        return self._handle is not None

    def acquire(self) -> bool:
        """Take the claim; ``False`` means a live holder already has it."""
        handle = open(self.path, "a+", encoding="utf-8")
        if fcntl is not None:
            try:
                fcntl.flock(handle.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
            except OSError:
                handle.close()
                return False
        self._handle = handle
        return True

    def write(self, text: str) -> None:
        """Replace the sidecar's content (holder metadata) while held."""
        self._handle.seek(0)
        self._handle.truncate()
        self._handle.write(text)
        self._handle.flush()

    def release(self) -> None:
        """Empty the sidecar and drop the claim (idempotent)."""
        if self._handle is None:
            return
        self.write("")
        if fcntl is not None:
            fcntl.flock(self._handle.fileno(), fcntl.LOCK_UN)
        self._handle.close()
        self._handle = None


def seeded_backoff(
    base: float,
    factor: float,
    step: int,
    *,
    jitter: float,
    seed: int,
    salts: "tuple[int, ...]",
    cap: "float | None" = None,
) -> float:
    """``base · factor^(step-1) · (1 + jitter·u)``, capped after jitter.

    ``u`` comes from a :class:`random.Random` seeded by hash-mixing
    ``seed`` with ``salts`` (the first joins the seed, each later one adds
    a mixing round), so a delay is a pure function of its arguments.
    """
    if step < 1:
        raise ValueError(f"the backoff step is 1-based, got {step}")
    mixed = (seed & 0xFFFFFFFF) * 0x9E3779B1 + salts[0]
    for salt in salts[1:]:
        mixed = (mixed ^ (mixed >> 16)) * 0x85EBCA6B + salt
    delay = base * factor ** (step - 1) * (1.0 + jitter * random.Random(mixed).random())
    return delay if cap is None else min(delay, cap)


def check_backoff(policy: Any, base: str, factor: str, jitter: str, cap: str = "") -> None:
    """Validate a policy's :func:`seeded_backoff` fields, naming them on error."""
    value = {name: getattr(policy, name) for name in (base, factor, jitter, cap) if name}
    if value[base] < 0.0:
        raise ValueError(f"{base} must be >= 0, got {value[base]}")
    if value[factor] < 1.0:
        raise ValueError(f"{factor} must be >= 1, got {value[factor]}")
    if not 0.0 <= value[jitter] <= 1.0:
        raise ValueError(f"{jitter} must lie in [0, 1], got {value[jitter]}")
    if cap and value[cap] < value[base]:
        raise ValueError(f"{cap} ({value[cap]:g}) must be >= {base} ({value[base]:g})")


class RestartBudget:
    """At most ``max_restarts`` restarts inside any sliding ``window_s``."""

    def __init__(self, max_restarts: int, window_s: float):
        if max_restarts < 0:
            raise ValueError(f"max_restarts must be >= 0, got {max_restarts}")
        if window_s <= 0.0:
            raise ValueError(f"window_s must be positive, got {window_s}")
        self.max_restarts = max_restarts
        self.window_s = window_s
        self._spent: "deque[float]" = deque()

    def spend(self, now: "float | None" = None) -> bool:
        """Record one restart at ``now``; ``False`` when the budget is spent."""
        now = time.monotonic() if now is None else now
        while self._spent and now - self._spent[0] > self.window_s:
            self._spent.popleft()
        if len(self._spent) >= self.max_restarts:
            return False
        self._spent.append(now)
        return True
