"""jobs-backlog: durable writes beside reads through the same serve layer.

One client submits bursts of ``population`` and ``survey-costs`` jobs
in a fixed proportion through ``POST /v1/jobs``, each with an
idempotency key and each resubmitted once (the retry must be
deduplicated onto the original id), then polls every job and fetches
its result. Each burst is scaled by the host-speed reference that runs
after it, with every job finished (:class:`harness.HostClock`). The
store is pre-seeded with retained terminal jobs, because every claim
folds every job in the store; its size is recorded at the start and the
end of the run. It is the only workload that
exercises fsync'd journal appends, flock claims and the per-point sweep
checkpoint; the traced run's ledger shows where its time goes.
"""

from __future__ import annotations

import json
import shutil
import time
from pathlib import Path
from urllib.parse import urlencode

from harness import (
    HostClock,
    Outcome,
    Server,
    Spans,
    delta,
    median,
    print_ledger,
    remove_tree,
    scaled_setups,
    scrape,
    scratch_dir,
    span_cost_us,
    tail_of,
)
from inputs import job_burst

#: Terminal jobs retained in the store before the burst.
RETAINED = 200
#: Jobs per second of ``--seconds`` in the burst, and the population share.
JOBS_PER_SECOND = 4
POPULATION_SHARE = 0.75
POPULATION_SIZE = 2048
SETUPS = 3
POLL_S = 0.05
#: Jobs per burst; the host-speed reference runs between two bursts.
BURST = 20
#: Points in the trivial sweep that isolates the engine's per-point overhead.
SWEEP_POINTS = 2000


def _seed_store(directory: Path) -> None:
    """Write ``RETAINED`` succeeded jobs through the store's public API."""
    from repro.serve.jobs import JobStore

    store = JobStore(directory)
    for index in range(RETAINED):
        kind = "population" if index % 4 else "survey-costs"
        params = ({"size": 64, "seed": index, "mode": "uniform", "max_n": 256, "chunk": 512,
                   "throttle": 0.0} if kind == "population" else {"n": 16, "throttle": 0.0})
        record, _ = store.submit(kind, params, idempotency_key=f"retained-{index}")
        store.append_event(record.job_id, "started")
        store.write_result(record.job_id, {"kind": kind, "retained": index})
        store.append_event(record.job_id, "succeeded")


def _boot(template: Path, work: Path) -> "tuple[Server, float, Path]":
    """Copy the pre-seeded store, then spawn, listen and fold it once."""
    jobs_dir = Path(shutil.copytree(template, work / f"store-{time.monotonic_ns()}"))
    started = time.perf_counter()
    server = Server("--jobs-dir", str(jobs_dir))
    status, body = server.get("/v1/jobs")
    if status != 200 or json.loads(body)["count"] != RETAINED:
        server.stop()
        raise RuntimeError(f"pre-seeded store not served: {status}")
    return server, time.perf_counter() - started, jobs_dir


def _expected_survey(n: int) -> list[dict]:
    """``survey-costs`` result rows from the library's ``evaluate_survey``."""
    from repro.analysis.survey_costs import evaluate_survey

    return [
        {"name": p.name, "class": p.taxonomic_name, "flexibility": p.flexibility,
         "n_effective": p.n_effective, "area_ge": p.area_ge, "config_bits": p.config_bits,
         "energy_per_op_pj": p.energy_per_op_pj, "reconfig_cycles": p.reconfig_cycles}
        for p in evaluate_survey(default_n=n, workers=None)
    ]


def _run_burst(server: Server, jobs: list) -> dict:
    """Submit, resubmit, poll and fetch every job; check every answer."""
    conn = server.connect()
    submit_ms: list[float] = []
    ids: list[str] = []
    wrong = 0
    deduped = 0
    for spec in jobs:
        body = urlencode({"kind": spec.kind, "idempotency-key": spec.key, **spec.params})
        for attempt in range(2):
            sent = time.perf_counter()
            status, raw = conn.request("POST", "/v1/jobs?" + body)
            submit_ms.append((time.perf_counter() - sent) * 1000.0)
            payload = json.loads(raw)
            if attempt == 0:
                if status != 202:
                    wrong += 1
                ids.append(payload.get("job", {}).get("id", ""))
            elif status == 200 and payload.get("deduplicated") and \
                    payload["job"]["id"] == ids[-1]:
                deduped += 1
            else:
                wrong += 1
    # Runners claim the oldest queued job first, so jobs finish nearly in
    # submission order: wait on each in turn. Sweeping every pending job
    # each round would load the shared CPU with the client's own reads.
    records: dict[int, dict] = {}
    for index, job_id in enumerate(ids):
        while True:
            status, raw = conn.request("GET", f"/v1/jobs/{job_id}")
            job = json.loads(raw).get("job", {}) if status == 200 else {"state": "failed"}
            if job.get("state") in ("succeeded", "failed", "cancelled", "expired"):
                records[index] = job
                break
            time.sleep(POLL_S)
    expected_rows: dict[int, list] = {}
    for index, spec in enumerate(jobs):
        job = records[index]
        if job["state"] != "succeeded":
            wrong += 1
            continue
        status, raw = conn.request("GET", f"/v1/jobs/{ids[index]}/result")
        result = json.loads(raw) if status == 200 else {}
        if spec.kind == "population":
            size = int(spec.params["size"])
            ok = result.get("total") == size and sum(result.get("occupancy", {}).values()) == size
        else:
            n = int(spec.params["n"])
            if n not in expected_rows:
                expected_rows[n] = _expected_survey(n)
            ok = result.get("points") == expected_rows[n]
        wrong += not ok
    conn.close()
    makespan = max(job["updated_at"] for job in records.values()) - min(
        job["created_at"] for job in records.values())
    return {"submit_ms": submit_ms, "ids": ids, "wrong": wrong, "deduped": deduped,
            "makespan": makespan, "records": records}


def _burst(seed: int, seconds: float) -> list:
    count = max(4, round(JOBS_PER_SECOND * seconds))
    return job_burst(seed, count, populations=round(count * POPULATION_SHARE),
                     size=POPULATION_SIZE)


def _journal(jobs_dir: Path, job_id: str) -> list[dict]:
    """A job's lifecycle records (the journal's lines after its header)."""
    lines = (jobs_dir / "jobs" / job_id / "events.jsonl").read_text().splitlines()
    return [json.loads(line) for line in lines[1:]]


def _journal_records(jobs_dir: Path, ids: list[str]) -> float:
    """Mean lifecycle records per job."""
    return sum(len(_journal(jobs_dir, job_id)) for job_id in ids) / len(ids)


def _service_ms(jobs_dir: Path, ids: list[str]) -> list[float]:
    """Per-job service time (ms): its last ``started`` record to its last record.

    Unlike turnaround from submission, it does not grow with the job's
    place in the burst: it is the runner's claim-to-finish path, with
    its fsync'd lifecycle appends, sweep checkpoints and result write.
    """
    out = []
    for job_id in ids:
        events = _journal(jobs_dir, job_id)
        started = [e["ts"] for e in events if e.get("event") == "started"]
        out.append((events[-1]["ts"] - started[-1]) * 1000.0 if started else 0.0)
    return out


def _store_size(jobs_dir: Path) -> int:
    """Jobs in the store, counted on disk."""
    return sum(1 for _ in (jobs_dir / "jobs").iterdir())


def measure(seed: int, seconds: float, setups: int = SETUPS) -> Outcome:
    """The untraced run: end-to-end metrics, scaled to the reference host.

    The jobs go out in consecutive bursts of ``BURST``; between two,
    with every job finished, the host-speed reference runs.
    """
    work = scratch_dir("jobs-")
    try:
        template = work / "template"
        _seed_store(template)
        jobs = _burst(seed, seconds)
        (server, _, jobs_dir), setup_times, setup_raw = scaled_setups(
            lambda: _boot(template, work), setups)
        bursts = []
        try:
            clock = HostClock(server)
            for start in range(0, len(jobs), BURST):
                result = _run_burst(server, jobs[start:start + BURST])
                bursts.append((result, clock.scale()))
            rss = server.rss_mb()
        finally:
            server.stop()
        store_end = _store_size(jobs_dir)
        service_ms = [value * scale for result, scale in bursts
                      for value in _service_ms(jobs_dir, result["ids"])]
    finally:
        remove_tree(work)
    submit_ms = [value for result, _ in bursts for value in result["submit_ms"]]
    submit_tail, submit_pct, submit_n = tail_of(submit_ms)
    turnaround_ms = [(job["updated_at"] - job["created_at"]) * 1000.0
                     for result, _ in bursts for job in result["records"].values()]
    tail, pct, n = tail_of(service_ms)
    jobs_per_s = median([len(result["ids"]) / result["makespan"] / scale
                         for result, scale in bursts])
    wrong = sum(result["wrong"] for result, _ in bursts)
    deduped = sum(result["deduped"] for result, _ in bursts)
    makespan = sum(result["makespan"] for result, _ in bursts)
    populations = sum(spec.kind == "population" for spec in jobs)
    outcome = Outcome(
        metrics={
            "throughput_per_s": jobs_per_s,
            "p50_ms": median(service_ms),
            "tail_ms": tail,
            "setup_s": median(setup_times),
            "rss_mb": rss,
        },
        attempted=len(jobs) * 2,
        failed=wrong,
        correct=wrong == 0,
    )
    print(f"jobs_per_s {jobs_per_s:.3f} 1/s scaled (median of {len(bursts)} bursts of "
          f"<= {BURST}; {len(jobs)} jobs, raw makespans sum to {makespan:.3f} s)")
    print(f"service_p50_ms {median(service_ms):.1f} ms scaled (started to finished, per job)")
    print(f"service_tail_ms {tail:.1f} ms (p{pct:g} of {n} jobs)")
    print(f"submit_p50_ms {median(submit_ms):.3f} ms")
    print(f"submit_tail_ms {submit_tail:.3f} ms (p{submit_pct:g} of {submit_n} submissions, "
          "half of them retries)")
    print(f"turnaround_p50_ms {median(turnaround_ms):.1f} ms (submission to finish)")
    print(f"setup_s {median(setup_times):.4f} s scaled, {median(setup_raw):.4f} s raw "
          f"(median of {setups}, store of {RETAINED})")
    print(clock.describe())
    print(f"rss_mb {rss:.1f} MB")
    print(f"input shape: {populations} population ({POPULATION_SIZE} signatures) + "
          f"{len(jobs) - populations} survey-costs jobs; store {RETAINED} jobs at start, "
          f"{store_end} at end; {deduped} of {len(jobs)} retries deduplicated")
    if store_end != RETAINED + len(jobs):
        outcome.fail(f"store holds {store_end} jobs, expected {RETAINED + len(jobs)}")
    return outcome


def trace(seed: int, seconds: float) -> Outcome:
    """The traced run: one burst through the server, then the layers in-process."""
    import functools

    from repro.analysis.survey_costs import cost_point
    from repro.core.classify import canonical_class
    from repro.perf.engine import PointResult, sweep
    from repro.perf.journal import SweepCheckpoint
    from repro.registry.architectures import all_architectures
    from repro.registry.populations import PopulationSpec, generate_signatures
    from repro.serve.jobs import JobStore

    work = scratch_dir("jobs-")
    spans = Spans()
    try:
        template = work / "template"
        _seed_store(template)
        jobs = _burst(seed, seconds / 2)
        server, _, jobs_dir = _boot(template, work)
        store_start = _store_size(jobs_dir)
        try:
            before = scrape(server)
            result = _run_burst(server, jobs)
            after = scrape(server)
        finally:
            server.stop()
        records_per_job = _journal_records(jobs_dir, result["ids"])
        store_end = _store_size(jobs_dir)
        # The layers a job runs through, on a copy of the same store.
        store = JobStore(Path(shutil.copytree(template, work / "replay")))
        end_store = JobStore(jobs_dir)
        for _ in range(5):
            with spans.span("serve.jobs.list_jobs_start"):
                store.list_jobs()
            with spans.span("serve.jobs.list_jobs_end"):
                end_store.list_jobs()
        population_result = {"kind": "population", "occupancy": {str(s): 40 for s in range(47)}}
        for index, spec in enumerate(jobs):
            with spans.span("serve.jobs.submit"):
                record, _ = store.submit(spec.kind, dict(spec.params),
                                         idempotency_key=f"replay-{index}")
            with spans.span("serve.jobs.append_event"):
                store.append_event(record.job_id, "started")
            with spans.span("serve.jobs.write_result"):
                store.write_result(record.job_id, population_result)
        with SweepCheckpoint.open("bench", {"seed": seed}, directory=str(work)) as checkpoint:
            for index in range(50):
                with spans.span("perf.journal.record"):
                    checkpoint.record(PointResult(index, index, {"v": index}, 0.0))
        records = list(all_architectures())
        worker = functools.partial(cost_point, default_n=16, cache=None)
        for _ in range(4):
            with spans.span("analysis.survey_costs.cost_point"):
                for record in records:
                    worker(record)
        # Engine overhead: a serial sweep of a trivial function minus the bare loop.
        trivial = list(range(SWEEP_POINTS))
        for _ in range(3):
            with spans.span("perf.engine.bare_loop"):
                [abs(point) for point in trivial]
            with spans.span("perf.engine.sweep"):
                sweep(abs, trivial, executor="serial")
        # The first call builds the generator's lookup state (~0.1 s); the
        # server's runners paid that once, before most of the burst.
        for signature in generate_signatures(PopulationSpec(size=512, seed=seed - 1,
                                                            mode="uniform")):
            canonical_class(signature)
        for index in range(4):
            spec = PopulationSpec(size=512, seed=seed + index, mode="uniform")
            with spans.span("registry.populations.generate"):
                signatures = generate_signatures(spec)
            with spans.span("core.classify.canonical_class"):
                for signature in signatures:
                    canonical_class(signature)
    finally:
        remove_tree(work)
    ns = spans.self_ns()
    calls = {}
    for name, *_ in spans.records:
        calls[name] = calls.get(name, 0) + 1

    def per_call_ms(name: str) -> float:
        return ns.get(name, 0) / calls.get(name, 1) / 1e6

    points = 4 * len(records)
    cost_ms = ns["analysis.survey_costs.cost_point"] / points / 1e6
    sweep_overhead_us = (ns["perf.engine.sweep"] - ns["perf.engine.bare_loop"]) \
        / (3 * SWEEP_POINTS) / 1e3
    generate_us = ns["registry.populations.generate"] / (4 * 512) / 1e3
    canonical_us = ns["core.classify.canonical_class"] / (4 * 512) / 1e3
    succeeded = delta(before, after, "jobs.succeeded")
    metrics = {
        "serve.jobs.submit_ms": per_call_ms("serve.jobs.submit"),
        "serve.jobs.append_event_ms": per_call_ms("serve.jobs.append_event"),
        "serve.jobs.list_jobs_start_ms": per_call_ms("serve.jobs.list_jobs_start"),
        "serve.jobs.list_jobs_end_ms": per_call_ms("serve.jobs.list_jobs_end"),
        "serve.jobs.write_result_ms": per_call_ms("serve.jobs.write_result"),
        "perf.journal.record_ms": per_call_ms("perf.journal.record"),
        "perf.engine.sweep_overhead_us": sweep_overhead_us,
        "registry.populations.generate_us": generate_us,
        "core.classify.canonical_class_us": canonical_us,
        "analysis.survey_costs.cost_point_ms": cost_ms,
        "serve.jobs.journal_records_per_job": records_per_job,
        "serve.jobs.store_jobs_start": store_start,
        "serve.jobs.store_jobs_end": store_end,
        "jobs.succeeded": succeeded,
        "jobs.failed": delta(before, after, "jobs.failed"),
        "jobs.retries": delta(before, after, "jobs.retries"),
        "jobs.dedupe_ratio": result["deduped"] / len(jobs),
    }
    # Ledger: the serial work one job of the mix costs, beside the
    # measured makespan per job (two runner threads share one GIL).
    populations = sum(spec.kind == "population" for spec in jobs)
    chunks = POPULATION_SIZE // 512
    surveys = len(jobs) - populations
    per_job = 1.0 / len(jobs)
    records_total = populations * chunks + surveys * len(records)
    list_ms = (metrics["serve.jobs.list_jobs_start_ms"]
               + metrics["serve.jobs.list_jobs_end_ms"]) / 2
    rows = [
        ("serve.jobs.submit (x2 per job)", 2 * metrics["serve.jobs.submit_ms"]),
        ("serve.jobs.list_jobs (claim + 2 gauge refreshes)", 3 * list_ms),
        ("serve.jobs.append_event (x records)",
         (records_per_job - 1) * metrics["serve.jobs.append_event_ms"]),
        ("serve.jobs.write_result", metrics["serve.jobs.write_result_ms"]),
        ("perf.journal.record (x points)",
         records_total * per_job * metrics["perf.journal.record_ms"]),
        ("perf.engine sweep overhead (x points)",
         records_total * per_job * sweep_overhead_us / 1e3),
        ("registry.populations.generate",
         populations * per_job * POPULATION_SIZE * generate_us / 1e3),
        ("core.classify.canonical_class",
         populations * per_job * POPULATION_SIZE * canonical_us / 1e3),
        ("analysis.survey_costs.cost_point", surveys * per_job * len(records) * cost_ms),
    ]
    makespan_per_job_ms = result["makespan"] / len(jobs) * 1000.0
    metrics["ledger.unattributed_share"] = print_ledger(
        "jobs-backlog, per job", "ms", rows, "makespan per job", makespan_per_job_ms)
    print(f"store: {store_start} jobs at start, {store_end} at end; "
          f"journal records per job {records_per_job:.2f}")
    print(f"tracing overhead: {len(spans.records)} spans at {span_cost_us():.3f} us each, "
          "recorded in the in-process replay only (the server burst is untraced)")
    wrong = result["wrong"] + (succeeded != len(jobs))
    outcome = Outcome(metrics, attempted=len(jobs) * 2, failed=wrong, correct=wrong == 0)
    if store_start != RETAINED or store_end != store_start + len(jobs):
        outcome.fail(f"store held {store_start} jobs at start and {store_end} at end, "
                     f"expected {RETAINED} and {RETAINED + len(jobs)}")
    return outcome
