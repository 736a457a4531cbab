"""Shared machinery: the server under test, HTTP, statistics, spans, ledgers.

Everything here drives the program from outside: the server is a child
process booted with its defaults (only the port, and for the jobs
workload the jobs directory, are set), requests go over keep-alive
sockets, and in-process replays call the layers' public functions.
"""

from __future__ import annotations

import json
import math
import os
import platform
import selectors
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout (listed in .gitignore).
WORK = ROOT / ".perfbench"

#: Seconds a child process may take to announce it is listening.
BOOT_TIMEOUT_S = 60.0


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing program, server died, ...)."""


def require_program() -> None:
    """Fail fast when the checkout holds no program to measure."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program under {SRC}: nothing to benchmark")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def pin_to_one_cpu() -> int:
    """Confine this process, and every process it starts, to one CPU.

    On a small virtual machine, wake-ups that cross CPUs made open-loop
    latency swing 2-5x between back-to-back runs of the same inputs; on
    one CPU the same runs agree to ~15%. The highest-numbered CPU is
    chosen, away from the interrupts CPU 0 usually takes. Returns it.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def child_env() -> dict[str, str]:
    """The environment for program subprocesses: ``src`` importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env.pop("REPRO_CHECKPOINT_DIR", None)
    return env


def scratch_dir(prefix: str) -> Path:
    """A fresh directory under the checkout's scratch space."""
    WORK.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=prefix, dir=WORK))


def remove_tree(path: Path) -> None:
    """Delete a scratch directory (and the scratch root once empty)."""
    shutil.rmtree(path, ignore_errors=True)
    try:
        WORK.rmdir()
    except OSError:
        pass


# -- the server under test ---------------------------------------------------


class Server:
    """One ``python -m repro.serve`` child on an ephemeral port."""

    def __init__(self, *flags: str):
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "--port", "0", *flags],
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        try:
            line = _read_line(self.proc, BOOT_TIMEOUT_S)
            if not line.startswith("listening on http://"):
                raise BenchError(f"server did not start: {line!r}")
        except BaseException:
            self.stop()
            raise
        self.port = int(line.strip().rsplit(":", 1)[1])

    def connect(self) -> "Connection":
        """A keep-alive connection (reopened transparently when closed)."""
        return Connection(self.port)

    def get(self, path: str) -> "tuple[int, bytes]":
        """One GET on a fresh connection (control-plane reads)."""
        conn = self.connect()
        try:
            return conn.request("GET", path)
        finally:
            conn.close()

    def rss_mb(self) -> float:
        """Peak resident set size of the server so far (MB)."""
        return peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        """SIGTERM, wait for the drain, SIGKILL a straggler; always reaped."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGCONT)
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()


def _read_line(proc: subprocess.Popen, timeout_s: float) -> str:
    """One stdout line from ``proc``, or BenchError after ``timeout_s``."""
    assert proc.stdout is not None
    with selectors.DefaultSelector() as selector:
        selector.register(proc.stdout, selectors.EVENT_READ)
        if not selector.select(timeout_s):
            raise BenchError(f"no output from {proc.args} within {timeout_s:g}s")
    return proc.stdout.readline()


def peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of a live process, in MB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


def run_child(args: list[str], *, timeout_s: float = 120.0) -> "tuple[int, str, float, float]":
    """Run a program child to completion: (code, output, wall s, peak RSS MB).

    The child is reaped with ``wait4`` so its own peak RSS is known;
    output is stdout, or stdout plus stderr when the exit code is not 0.
    """
    WORK.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryFile("w+", dir=WORK) as out, \
            tempfile.TemporaryFile("w+", dir=WORK) as err:
        started = time.perf_counter()
        proc = subprocess.Popen(args, cwd=ROOT, env=child_env(), stdout=out, stderr=err)
        timer = threading.Timer(timeout_s, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - started
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        text = out.read() if code == 0 else out.read() + err.read()
    if code < 0:
        raise BenchError(f"{args} exceeded {timeout_s:g}s or was killed")
    return code, text, wall, usage.ru_maxrss / 1024.0


# -- the host-speed reference ------------------------------------------------

#: A fresh interpreter importing stdlib modules and round-tripping a fixed
#: JSON document; it touches no program code.
REFERENCE_CODE = (
    "import json, csv, argparse, dataclasses, decimal, fractions, email.parser, http.client, "
    "xml.dom.minidom, unittest, statistics, textwrap, difflib\n"
    "doc = {'k%d' % i: [i, str(i) * 3, {'x': i / 7}] for i in range(2000)}\n"
    "for _ in range(8): json.loads(json.dumps(doc, sort_keys=True))\n"
)
#: Scaled times read "on a host where the reference takes this long" (s).
REFERENCE_S = 0.15


class HostClock:
    """Scales measurements to a host where the reference takes ``REFERENCE_S``.

    The shared virtual machine this was built on slows as a whole, by up
    to 2.5x for seconds to minutes at a time, so raw times measure it. Each
    measurement window is bracketed by runs of the reference child, and
    :meth:`scale` returns ``REFERENCE_S`` over the mean of the two walls:
    a time is multiplied by it, a rate divided. While the reference runs,
    the server under test is stopped (SIGSTOP), so no program code runs
    beside it and a change to the program moves scaled figures in full.
    """

    def __init__(self, server: "Server | None" = None):
        self.server = server
        self.walls: list[float] = []
        self._last = self._reference()

    def _reference(self) -> float:
        pid = self.server.proc.pid if self.server is not None else None
        if pid is not None:
            os.kill(pid, signal.SIGSTOP)
        try:
            code, _, wall, _ = run_child([sys.executable, "-c", REFERENCE_CODE])
        finally:
            if pid is not None:
                os.kill(pid, signal.SIGCONT)
        if code != 0:
            raise BenchError("the host-speed reference failed")
        self.walls.append(wall)
        return wall

    def scale(self) -> float:
        """Close the window just measured: run the reference, return its scale."""
        now = self._reference()
        scale = REFERENCE_S / ((self._last + now) / 2)
        self._last = now
        return scale

    def describe(self) -> str:
        """The reference walls seen, for the report."""
        return (f"host-speed reference: {len(self.walls)} runs, median "
                f"{median(self.walls):.4f} s (min {min(self.walls):.4f}, max "
                f"{max(self.walls):.4f}); figures scaled to {REFERENCE_S} s")


def scaled_setups(
    boot: "Callable[[], tuple]", setups: int
) -> "tuple[tuple, list[float], list[float]]":
    """Boot ``setups`` times between references, stopping all but the last server.

    ``boot`` returns ``(server, setup seconds, ...)``. Returns the last
    boot's tuple, the scaled set-up times and the raw ones.
    """
    clock = HostClock()
    scaled, raw = [], []
    for attempt in range(setups):
        booted = boot()
        raw.append(booted[1])
        last = attempt == setups - 1
        if not last:
            booted[0].stop()
        clock.server = booted[0] if last else None
        try:
            scaled.append(raw[-1] * clock.scale())
        except BaseException:
            booted[0].stop()
            raise
    return booted, scaled, raw


class Connection:
    """A minimal HTTP/1.1 keep-alive client over one socket.

    Requests are written as prepared bytes and responses framed by
    ``Content-Length`` (the server always sends it), so the client adds
    little of its own time to a measured round trip. The connection is
    reopened when the server closes it (``Connection: close`` after its
    per-connection request budget, or an idle timeout before a request).
    """

    def __init__(self, port: int):
        self.port = port
        self.sock: "socket.socket | None" = None
        self.buffer = b""

    def _open(self) -> socket.socket:
        sock = socket.create_connection(("127.0.0.1", self.port), timeout=60)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock, self.buffer = sock, b""
        return sock

    def close(self) -> None:
        """Close the socket (idempotent)."""
        if self.sock is not None:
            self.sock.close()
            self.sock = None

    def request(self, method: str, path: str, body: bytes = b"") -> "tuple[int, bytes]":
        """One request: (status, body bytes)."""
        head = (f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n")
        message = head.encode("ascii") + body
        fresh = self.sock is None
        sock = self.sock or self._open()
        try:
            sock.sendall(message)
            return self._response()
        except ConnectionError:
            if fresh:
                raise
        # The server closed the idle connection before this request: retry once.
        self.close()
        self._open().sendall(message)
        return self._response()

    def _fill(self) -> None:
        assert self.sock is not None
        chunk = self.sock.recv(1 << 18)
        if not chunk:
            raise ConnectionResetError("server closed the connection")
        self.buffer += chunk

    def _response(self) -> "tuple[int, bytes]":
        while b"\r\n\r\n" not in self.buffer:
            self._fill()
        header, self.buffer = self.buffer.split(b"\r\n\r\n", 1)
        lines = header.split(b"\r\n")
        status = int(lines[0].split()[1])
        length, close = 0, False
        for line in lines[1:]:
            name, _, value = line.partition(b":")
            name = name.strip().lower()
            if name == b"content-length":
                length = int(value)
            elif name == b"connection":
                close = value.strip().lower() == b"close"
        while len(self.buffer) < length:
            self._fill()
        body, self.buffer = self.buffer[:length], self.buffer[length:]
        if close:
            self.close()
        return status, body


def scrape(server: Server) -> dict[str, float]:
    """The server's ``/v1/metrics`` exposition as ``{series: value}``."""
    status, body = server.get("/v1/metrics")
    if status != 200:
        raise BenchError(f"/v1/metrics answered {status}")
    series: dict[str, float] = {}
    for line in body.decode("utf-8").splitlines():
        if line and not line.startswith("#"):
            name, _, value = line.rpartition(" ")
            series[name] = float(value)
    return series


def delta(before: dict[str, float], after: dict[str, float], name: str) -> float:
    """How much a counter grew between two scrapes (absent counters read 0)."""
    key = "repro_" + name.replace(".", "_") + "_total"
    return after.get(key, 0.0) - before.get(key, 0.0)


def hit_ratio(before: dict[str, float], after: dict[str, float], name: str) -> float:
    """``name_hits / (name_hits + name_misses)`` between two scrapes (0 if idle)."""
    hits = delta(before, after, name + "_hits")
    misses = delta(before, after, name + "_misses")
    return hits / (hits + misses) if hits + misses else 0.0


def in_parallel(fn: "Callable[[], None]", count: int) -> None:
    """Run ``fn`` on ``count`` threads; re-raise the first failure."""
    with ThreadPoolExecutor(count) as pool:
        for future in [pool.submit(fn) for _ in range(count)]:
            future.result()


def histogram_tail(before: dict[str, float], after: dict[str, float], name: str) -> float:
    """Upper bucket bound (s) of the tail percentile of a histogram's delta."""
    prefix = "repro_" + name.replace(".", "_") + "_bucket{le=\""
    buckets = []
    for key, value in after.items():
        if key.startswith(prefix):
            bound = key[len(prefix):-2]
            buckets.append((math.inf if bound == "+Inf" else float(bound),
                            value - before.get(key, 0.0)))
    buckets.sort()
    total = buckets[-1][1] if buckets else 0.0
    if total <= 0:
        return 0.0
    pct = tail_percentile(int(total))
    for bound, cumulative in buckets:
        if cumulative >= total * pct / 100.0:
            return bound
    return buckets[-1][0]


# -- statistics --------------------------------------------------------------

#: Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 50.0)


def percentile(values: "list[float]", pct: float) -> float:
    """Nearest-rank percentile of ``values`` (not necessarily sorted)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def tail_percentile(n: int) -> float:
    """The highest candidate percentile with at least 10 of ``n`` samples beyond it.

    With fewer than 11 samples none qualifies: 100, the maximum.
    """
    for pct in TAIL_PERCENTILES:
        if n - max(1, math.ceil(pct / 100.0 * n)) >= 10:
            return pct
    return 100.0


def tail_of(values: Any) -> "tuple[float, float, int]":
    """(value, percentile, n) of the tail; see :func:`tail_percentile`."""
    ordered = list(values)
    pct = tail_percentile(len(ordered))
    return (percentile(ordered, pct) if ordered else 0.0), pct, len(ordered)


def median(values: "list[float]") -> float:
    """Median (0 for no samples)."""
    return statistics.median(values) if values else 0.0


def windows(values: list, size: int) -> list[list]:
    """Consecutive windows of at least ``size`` samples (one when fewer)."""
    count = max(1, len(values) // size)
    bounds = [round(i * len(values) / count) for i in range(count + 1)]
    return [values[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def windowed_tail(values: list, size: int) -> "tuple[float, float, int]":
    """(value, percentile, windows): the median of consecutive windows' tails.

    Each window holds at least ``size`` samples in arrival order and its
    tail is taken at :func:`tail_percentile` of ``size``, so every window
    has ten samples beyond it and every run reports the same percentile.
    A host stall lifts the tail of the window it lands in; the median
    over many windows moves only when most windows are hit.
    """
    parts = windows(values, size)
    pct = tail_percentile(size)
    return median([percentile(part, pct) for part in parts]), pct, len(parts)


# -- spans and the layer ledger ---------------------------------------------


class Spans:
    """In-memory spans recorded around calls into the program's layers.

    Each span is ``(name, start_ns, end_ns, parent_index)``; a layer's
    self time is its duration minus the time its child spans cover.
    """

    def __init__(self) -> None:
        self.records: list[list[Any]] = []
        self._stack: list[int] = []

    def span(self, name: str) -> "_Span":
        """Context manager recording one span under the current one."""
        return _Span(self, name)

    def self_ns(self) -> dict[str, int]:
        """Total self time per span name."""
        totals: dict[str, int] = {}
        children: dict[int, int] = {}
        for record in self.records:
            parent = record[3]
            if parent is not None:
                children[parent] = children.get(parent, 0) + record[2] - record[1]
        for index, (name, start, end, _) in enumerate(self.records):
            totals[name] = totals.get(name, 0) + (end - start) - children.get(index, 0)
        return totals


class _Span:
    __slots__ = ("spans", "name", "index")

    def __init__(self, spans: Spans, name: str):
        self.spans = spans
        self.name = name

    def __enter__(self) -> "_Span":
        spans = self.spans
        parent = spans._stack[-1] if spans._stack else None
        self.index = len(spans.records)
        spans.records.append([self.name, time.perf_counter_ns(), 0, parent])
        spans._stack.append(self.index)
        return self

    def __exit__(self, *exc: object) -> None:
        self.spans.records[self.index][2] = time.perf_counter_ns()
        self.spans._stack.pop()


class NoSpans:
    """The untraced twin of :class:`Spans`, for the tracing-overhead figure."""

    class _Null:
        def __enter__(self) -> None:
            return None

        def __exit__(self, *exc: object) -> None:
            return None

    _NULL = _Null()

    def span(self, name: str) -> "NoSpans._Null":
        """A span that records nothing."""
        return self._NULL


def span_cost_us(samples: int = 20000) -> float:
    """What recording one span adds over the untraced twin (us)."""
    costs = []
    for recorder in (Spans(), NoSpans()):
        started = time.perf_counter()
        for _ in range(samples):
            with recorder.span("probe"):
                pass
        costs.append(time.perf_counter() - started)
    return (costs[0] - costs[1]) / samples * 1e6


def print_ledger(
    title: str, unit: str, rows: "list[tuple[str, float]]", total_label: str, total: float
) -> float:
    """Print layer self times beside the end-to-end figure; return the gap share.

    The ``unattributed`` row is ``total`` minus the attributed rows; a
    gap over 10% of the end-to-end figure is flagged.
    """
    attributed = sum(value for _, value in rows)
    gap = total - attributed
    share = gap / total if total else 0.0
    print(f"-- layer ledger: {title} ({unit}) --")
    for name, value in rows:
        print(f"  {name:<46} {value:12.3f}  {value / total:7.1%}" if total else name)
    print(f"  {'unattributed':<46} {gap:12.3f}  {share:7.1%}"
          + ("   <-- gap over 10%" if abs(share) > 0.10 else ""))
    print(f"  {total_label:<46} {total:12.3f}  100.0%")
    return share


# -- results -----------------------------------------------------------------


@dataclass
class Outcome:
    """What one run of a workload produced."""

    metrics: dict[str, float]
    attempted: int
    failed: int
    correct: bool
    notes: list[str] = field(default_factory=list)
    #: Workload-specific environment stamp fields (e.g. generator lateness).
    stamp: dict[str, Any] = field(default_factory=dict)

    def fail(self, message: str) -> None:
        """Record a correctness or input-property violation."""
        self.correct = False
        self.notes.append(message)


def environment(seed: int, state: str) -> dict[str, Any]:
    """The stamp every result carries."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": _commit(),
        "seed": seed,
        "state": state,
    }


def _commit() -> str:
    """The checkout's git commit, or ``unknown`` outside a repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def dump(label: str, payload: Any) -> None:
    """Print one labelled JSON line of the human-readable report."""
    print(f"{label}: {json.dumps(payload, sort_keys=True)}")
