"""classify-batch: the population-annotation client, closed loop.

Two keep-alive connections each POST ``/v1/classify`` batches of 256
distinct uniform-mode signatures and wait for the reply before sending
the next. The pool holds 8192 distinct items, eight times the response
cache, so every item misses the cache: the run measures parse,
validation, SoA build, kernel gather, payload render and serialize.
The load runs in 2-second windows, each scaled by the host-speed
reference that brackets it (:class:`harness.HostClock`).
"""

from __future__ import annotations

import json
import threading
import time

from harness import (
    HostClock,
    NoSpans,
    Outcome,
    Server,
    Spans,
    hit_ratio,
    in_parallel,
    median,
    print_ledger,
    scaled_setups,
    scrape,
    windowed_tail,
)
from inputs import SERVER_CACHE_SIZE, classify_pool

BATCH_SIZE = 256
POOL_BATCHES = 32
CONNECTIONS = 2
SETUPS = 3
#: Seconds of load between two host-speed references.
WINDOW_S = 2.0
#: Batches per tail window (p95).
TAIL_WINDOW = 200


def _check(body: bytes, expected: tuple) -> int:
    """Items of one response that disagree with the scalar classifier."""
    payload = json.loads(body)
    results = payload.get("results", [])
    wrong = abs(len(expected) - len(results)) + int(payload.get("errors", 0))
    for result, (serial, short_name, flexibility) in zip(results, expected):
        cls = result.get("class") or {}
        if (cls.get("serial"), cls.get("short_name"), result.get("flexibility")) != (
            serial, short_name, flexibility,
        ):
            wrong += 1
    return min(wrong, len(expected))


def _boot(pool) -> "tuple[Server, float]":
    """Spawn, wait for listening, warm up (first batch compiles the kernel)."""
    started = time.perf_counter()
    server = Server()
    conn = server.connect()
    status, _ = conn.request("POST", "/v1/classify", pool.warm_body)
    conn.close()
    if status != 200:
        server.stop()
        raise RuntimeError(f"warm-up batch answered {status}")
    return server, time.perf_counter() - started


def _closed_loop(server: Server, pool, cursor: list, seconds: float) -> "tuple[list, float, int]":
    """Both connections POST batches for ``seconds``: (latencies s, elapsed s, wrong)."""
    latencies: list[float] = []
    wrong = [0]
    lock = threading.Lock()
    end = time.perf_counter() + seconds

    def client() -> None:
        conn = server.connect()
        while time.perf_counter() < end:
            with lock:
                index = cursor[0] % len(pool.bodies)
                cursor[0] += 1
            sent = time.perf_counter()
            status, body = conn.request("POST", "/v1/classify", pool.bodies[index])
            done = time.perf_counter()
            bad = _check(body, pool.expected[index]) if status == 200 else BATCH_SIZE
            with lock:
                latencies.append(done - sent)
                wrong[0] += bad
        conn.close()

    started = time.perf_counter()
    in_parallel(client, CONNECTIONS)
    return latencies, time.perf_counter() - started, wrong[0]


def measure(seed: int, seconds: float, setups: int = SETUPS) -> Outcome:
    """The untraced run: end-to-end metrics, scaled to the reference host."""
    pool = classify_pool(seed, batches=POOL_BATCHES, batch_size=BATCH_SIZE)
    (server, _), setup_times, setup_raw = scaled_setups(lambda: _boot(pool), setups)
    try:
        clock = HostClock(server)
        before = scrape(server)
        batch_ms: list[float] = []
        raw_ms: list[float] = []
        rates: list[float] = []
        wrong = 0
        cursor = [0]
        count = max(1, round(seconds / WINDOW_S))
        for _ in range(count):
            latencies, elapsed, bad = _closed_loop(server, pool, cursor, seconds / count)
            scale = clock.scale()
            wrong += bad
            raw_ms += [value * 1000.0 for value in latencies]
            batch_ms += [value * scale * 1000.0 for value in latencies]
            rates.append(len(latencies) / elapsed / scale)
        after = scrape(server)
        rss = server.rss_mb()
    finally:
        server.stop()
    items = len(batch_ms) * BATCH_SIZE
    tail, pct, tail_windows = windowed_tail(batch_ms, TAIL_WINDOW)
    items_per_s = median(rates) * BATCH_SIZE
    cache_ratio = hit_ratio(before, after, "serve.cache")
    outcome = Outcome(
        metrics={
            "throughput_per_s": items_per_s,
            "p50_ms": median(batch_ms),
            "tail_ms": tail,
            "setup_s": median(setup_times),
            "rss_mb": rss,
        },
        attempted=items,
        failed=wrong,
        correct=wrong == 0,
    )
    print(f"items_per_s {items_per_s:.1f} 1/s scaled (median of {count} windows of "
          f"{seconds / count:.2f} s; {items} items)")
    print(f"batch_p50_ms {median(batch_ms):.3f} ms scaled, {median(raw_ms):.3f} ms raw "
          f"({len(batch_ms)} batches)")
    print(f"batch_tail_ms {tail:.3f} ms scaled (median of {tail_windows} windows' p{pct:g} "
          f"of >= {TAIL_WINDOW} batches)")
    print(f"setup_s {median(setup_times):.4f} s scaled, {median(setup_raw):.4f} s raw "
          f"(median of {setups})")
    print(clock.describe())
    print(f"rss_mb {rss:.1f} MB")
    print(f"input shape: {pool.distinct} distinct items of {pool.items} "
          f"(share {pool.distinct / pool.items:.3f}), reuse distance {pool.items} "
          f"> cache {SERVER_CACHE_SIZE}, response-cache hit ratio {cache_ratio:.4f}")
    if pool.distinct != pool.items or cache_ratio > 0.01:
        outcome.fail(f"input shape violated: distinct {pool.distinct}/{pool.items}, "
                     f"cache hit ratio {cache_ratio:.4f} (must be ~0)")
    return outcome


def _staged(service, pool_body: bytes, spans) -> bytes:
    """The dispatch pipeline's stages, one span around each layer call."""
    from repro.core.batch import SignatureBatch, classify_batch
    from repro.serve.router import Request
    from repro.serve.validation import parse_body, stable_json

    with spans.span("serve.validation.parse_body"):
        _, items = parse_body(pool_body)
    signatures = []
    for item in items:
        with spans.span("serve.router.parse_classify_request"):
            signatures.append(
                service.parse_classify_request(Request("POST", "/v1/classify", item))
            )
    with spans.span("core.batch.from_signatures"):
        columns = SignatureBatch.from_signatures(signatures)
    with spans.span("core.batch.classify_batch"):
        classified = classify_batch(columns)
    results = []
    for row, signature in enumerate(signatures):
        with spans.span("serve.router.classify_payload"):
            results.append(
                service.classify_payload(signature, classified.classification(row, signature))
            )
    with spans.span("serve.validation.stable_json"):
        return stable_json({"count": len(results), "errors": 0, "results": results})


STAGES = (
    "serve.validation.parse_body",
    "serve.router.parse_classify_request",
    "core.batch.from_signatures",
    "core.batch.classify_batch",
    "serve.router.classify_payload",
    "serve.validation.stable_json",
)


def trace(seed: int, seconds: float) -> Outcome:
    """The traced run: per-layer self times per item, and the ledger."""
    from repro.serve.server import ServerConfig, ServiceApp

    pool = classify_pool(seed, batches=POOL_BATCHES, batch_size=BATCH_SIZE)
    budget = seconds / 3.0
    # 1. Client round trip over one connection (no queueing behind a peer).
    server, _ = _boot(pool)
    wrong = 0
    round_trips = []
    try:
        conn = server.connect()
        before = scrape(server)
        for index in _cycle(len(pool.bodies), budget):
            sent = time.perf_counter()
            status, body = conn.request("POST", "/v1/classify", pool.bodies[index])
            round_trips.append(time.perf_counter() - sent)
            wrong += _check(body, pool.expected[index]) if status == 200 else BATCH_SIZE
        cache_ratio = hit_ratio(before, scrape(server), "serve.cache")
        conn.close()
    finally:
        server.stop()
    # 2. The same bodies through the in-process pipeline: whole dispatch
    #    untraced, then stage by stage under spans, then stage by stage
    #    without spans (the tracing overhead).
    app = ServiceApp(ServerConfig())
    try:
        app.dispatch("POST", "/v1/classify", pool.warm_body)
        dispatch = []
        for index in _cycle(len(pool.bodies), budget / 2):
            sent = time.perf_counter()
            response = app.dispatch("POST", "/v1/classify", pool.bodies[index])
            dispatch.append(time.perf_counter() - sent)
            if response.status != 200:
                wrong += BATCH_SIZE
        spans = Spans()
        traced_wall = untraced_wall = 0.0
        replays = 0
        for index in _cycle(len(pool.bodies), budget / 2):
            sent = time.perf_counter()
            body = _staged(app.service, pool.bodies[index], spans)
            traced_wall += time.perf_counter() - sent
            wrong += _check(body, pool.expected[index])
            sent = time.perf_counter()
            _staged(app.service, pool.bodies[index], NoSpans())
            untraced_wall += time.perf_counter() - sent
            replays += 1
    finally:
        app.shutdown(drain_s=1.0)
    per_item = 1e6 / BATCH_SIZE
    self_ns = spans.self_ns()
    stages = {name: self_ns.get(name, 0) / 1e3 / replays / BATCH_SIZE for name in STAGES}
    dispatch_us = median(dispatch) * per_item
    round_trip_us = median(round_trips) * per_item
    transport_us = round_trip_us - dispatch_us
    unattributed_us = dispatch_us - sum(stages.values())
    share = print_ledger(
        "classify-batch, per item, medians", "us",
        [(name + "_us", value) for name, value in stages.items()]
        + [("http.transport_us (round trip - dispatch)", transport_us)],
        "client round trip per item", round_trip_us,
    )
    overhead = (traced_wall - untraced_wall) / replays * per_item
    print(f"tracing overhead: {overhead:.3f} us/item "
          f"({overhead / (untraced_wall / replays * per_item):.1%} of the staged pipeline)")
    print(f"response-cache hit ratio during the round trips: {cache_ratio:.4f}")
    metrics = {name + "_us": value for name, value in stages.items()}
    metrics.update({
        "serve.server.dispatch_us": dispatch_us,
        "http.transport_us": transport_us,
        "unattributed_us": unattributed_us,
        "serve.cache.hit_ratio": cache_ratio,
        "ledger.unattributed_share": share,
    })
    attempted = (len(round_trips) + len(dispatch) + replays) * BATCH_SIZE
    outcome = Outcome(metrics, attempted=attempted, failed=wrong, correct=wrong == 0)
    if cache_ratio > 0.01:
        outcome.fail(f"response-cache hit ratio {cache_ratio:.4f} (must be ~0)")
    return outcome


def _cycle(length: int, seconds: float):
    """Pool indices in order, cycling, until ``seconds`` have passed (>= 2 rounds)."""
    end = time.perf_counter() + seconds
    index = 0
    while index < 2 or time.perf_counter() < end:
        yield index % length
        index += 1
