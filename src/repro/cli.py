"""Command-line front end: regenerate any paper artifact from a shell.

::

    repro-taxonomy table1            # the 47-class extended taxonomy
    repro-taxonomy table2            # flexibility values per class
    repro-taxonomy table3            # the 25-architecture survey
    repro-taxonomy fig 7             # any of figures 1..7
    repro-taxonomy classify --ips 1 --dps 64 --ip-dp 1-64 \\
        --ip-im 1-1 --dp-dm 64-1 --dp-dp 64x64
    repro-taxonomy explain MorphoSys # survey entry + derivation
    repro-taxonomy dse --min-flexibility 4
    repro-taxonomy dse --trace trace.json   # span tree of the run
    repro-taxonomy costs --profile          # cProfile top-N to artifacts/
    repro-taxonomy metrics                  # counters after a calibration run
    repro-taxonomy serve --port 0           # hardened HTTP query service
    repro-taxonomy jobs submit --kind survey-costs --param n=32 --wait
    repro-taxonomy jobs status j-abc123     # poll a durable async job
"""

from __future__ import annotations

import argparse
import contextlib
import sys

from repro.analysis.dse import Objective, Requirements, explore
from repro.core.classify import classify
from repro.core.errors import FabricError, FaultError, ReproError
from repro.core.signature import make_signature
from repro.registry.architectures import architecture
from repro.registry.survey import errata_report
from repro.reporting.figures import (
    render_fig1,
    render_fig2,
    render_fig3,
    render_fig4,
    render_fig5,
    render_fig6,
    render_fig7,
)
from repro.reporting.tables import render_table1, render_table2, render_table3

__all__ = ["main", "build_parser"]

_FIGURES = {
    1: render_fig1,
    2: render_fig2,
    3: render_fig3,
    4: render_fig4,
    5: render_fig5,
    6: render_fig6,
    7: render_fig7,
}


def build_parser() -> argparse.ArgumentParser:
    """The full ``repro-taxonomy`` argparse tree (also drives ``docs/cli.md``)."""
    parser = argparse.ArgumentParser(
        prog="repro-taxonomy",
        description=(
            "Extended Skillicorn taxonomy of massively parallel computer "
            "architectures (Shami & Hemani reproduction)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for table in ("table1", "table2", "table3"):
        table_parser = sub.add_parser(table, help=f"render {table}")
        table_parser.add_argument(
            "--markdown", action="store_true", help="Markdown layout"
        )

    fig_parser = sub.add_parser("fig", help="render a figure (1..7)")
    fig_parser.add_argument("number", type=int, choices=sorted(_FIGURES))

    classify_parser = sub.add_parser(
        "classify", help="classify an architecture from its structure"
    )
    classify_parser.add_argument("--ips", required=True)
    classify_parser.add_argument("--dps", required=True)
    classify_parser.add_argument("--ip-ip", default="none")
    classify_parser.add_argument("--ip-dp", default="none")
    classify_parser.add_argument("--ip-im", default="none")
    classify_parser.add_argument("--dp-dm", default="none")
    classify_parser.add_argument("--dp-dp", default="none")

    explain_parser = sub.add_parser(
        "explain", help="explain a surveyed architecture's classification"
    )
    explain_parser.add_argument("name")

    dse_parser = sub.add_parser(
        "dse", help="recommend a class for given requirements"
    )
    dse_parser.add_argument("--min-flexibility", type=int, default=0)
    dse_parser.add_argument("--max-area-ge", type=float, default=None)
    dse_parser.add_argument("--max-config-bits", type=int, default=None)
    dse_parser.add_argument("--n", type=int, default=16)
    dse_parser.add_argument(
        "--objective",
        choices=["config", "area", "flex-per-area"],
        default="config",
    )
    _add_jobs_argument(dse_parser)
    _add_resilience_arguments(dse_parser)
    _add_fabric_argument(dse_parser)
    _add_batch_kernel_argument(dse_parser)
    _add_trace_argument(dse_parser)
    _add_profile_argument(dse_parser)

    costs_parser = sub.add_parser(
        "costs", help="cost out the 25 surveyed architectures (Eq. 1/2 + energy)"
    )
    costs_parser.add_argument(
        "--n", type=int, default=16,
        help="design size for template (n/m/v) architectures (default 16)",
    )
    _add_jobs_argument(costs_parser)
    _add_resilience_arguments(costs_parser)
    _add_fabric_argument(costs_parser)
    _add_batch_kernel_argument(costs_parser)
    _add_trace_argument(costs_parser)
    _add_profile_argument(costs_parser)

    report_parser = sub.add_parser(
        "report", help="write every artifact (tables, figures, JSON) to a directory"
    )
    report_parser.add_argument("outdir")
    _add_trace_argument(report_parser)

    faults_parser = sub.add_parser(
        "faults",
        help="fault-injection demo + survey-wide resilience sweep",
    )
    faults_parser.add_argument(
        "--seed", type=int, default=0, help="fault-plan seed (default 0)"
    )
    faults_parser.add_argument(
        "--rate", type=float, default=0.05,
        help="per-resource fault rate for the machine demo (default 0.05)",
    )
    faults_parser.add_argument(
        "--rates", default=None,
        help="comma-separated sweep rates (default 0.01,0.02,0.05,0.1,0.2)",
    )
    faults_parser.add_argument(
        "--n", type=int, default=16, help="design size for the sweep"
    )
    faults_parser.add_argument(
        "--spares", type=int, default=0, help="spare PEs granted to remap"
    )
    faults_parser.add_argument(
        "--policy", default="remap",
        help="demo policy: fail-fast | retry[:N[:B]] | remap[:S] | degrade",
    )
    faults_parser.add_argument(
        "--out", default="artifacts/resilience.csv",
        help="CSV destination ('-' to skip writing)",
    )
    _add_jobs_argument(faults_parser)
    _add_resilience_arguments(faults_parser)
    _add_fabric_argument(faults_parser)
    _add_trace_argument(faults_parser)
    _add_profile_argument(faults_parser)

    worker_parser = sub.add_parser(
        "sweep-worker",
        help="serve sweep points to distributed coordinators (see --workers)",
    )
    worker_parser.add_argument(
        "--listen", default="127.0.0.1:0", metavar="HOST:PORT",
        help="bind address; port 0 picks an ephemeral port "
        "(default 127.0.0.1:0; the bound address is printed on stdout)",
    )
    worker_parser.add_argument(
        "--max-sessions", type=int, default=None, metavar="N",
        help="exit after serving N coordinator sessions (default: serve until killed)",
    )
    worker_parser.add_argument(
        "--throttle", type=float, default=0.0, metavar="S",
        help="sleep S seconds before each point evaluation — a chaos/tuning "
        "aid for rehearsing failure detection against fast sweeps (default 0)",
    )
    worker_parser.add_argument(
        "--heartbeat", type=float, default=None, metavar="S",
        help="override the coordinator-commanded heartbeat interval; setting "
        "it above the coordinator's lease TTL rehearses lease expiry",
    )

    metrics_parser = sub.add_parser(
        "metrics",
        help="run a calibration workload, then print the process metrics registry",
    )
    metrics_parser.add_argument(
        "--n", type=int, default=16,
        help="design size for the calibration sweeps (default 16)",
    )
    metrics_parser.add_argument(
        "--json", action="store_true",
        help="emit the registry snapshot as JSON instead of a table",
    )
    metrics_parser.add_argument(
        "--prometheus", action="store_true",
        help="emit the registry in Prometheus text exposition format "
        "(the same formatter the serve /v1/metrics endpoint uses)",
    )

    serve_parser = sub.add_parser(
        "serve",
        help="run the hardened HTTP query service (classify/costs/survey/metrics)",
    )
    serve_parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (default 127.0.0.1)"
    )
    serve_parser.add_argument(
        "--port", type=int, default=8080,
        help="bind port; 0 picks an ephemeral port (default 8080)",
    )
    serve_parser.add_argument(
        "--workers", type=int, default=4,
        help="worker threads executing taxonomy work (default 4)",
    )
    serve_parser.add_argument(
        "--processes", type=int, default=1,
        help="pre-fork worker processes sharing the port via SO_REUSEPORT "
        "(default 1 = single process)",
    )
    serve_parser.add_argument(
        "--queue-depth", type=int, default=16,
        help="requests allowed to wait for a worker before 503s (default 16)",
    )
    serve_parser.add_argument(
        "--keepalive-requests", type=int, default=100,
        help="requests served per keep-alive connection before it closes "
        "(default 100; 0 disables keep-alive)",
    )
    serve_parser.add_argument(
        "--keepalive-idle", type=float, default=5.0, metavar="S",
        help="idle seconds before a keep-alive connection is closed (default 5)",
    )
    serve_parser.add_argument(
        "--cache-size", type=int, default=1024,
        help="response-cache entries over /v1/classify and /v1/costs "
        "(default 1024; 0 disables caching)",
    )
    serve_parser.add_argument(
        "--deadline", type=float, default=2.0, metavar="S",
        help="per-request deadline in seconds (default 2.0)",
    )
    serve_parser.add_argument(
        "--rate", type=float, default=0.0,
        help="token-bucket rate limit in requests/s (default 0 = off)",
    )
    serve_parser.add_argument(
        "--burst", type=int, default=None,
        help="token-bucket burst capacity (default max(1, rate))",
    )
    serve_parser.add_argument(
        "--drain-deadline", type=float, default=5.0, metavar="S",
        help="seconds granted to in-flight requests on SIGTERM/SIGINT (default 5)",
    )
    serve_parser.add_argument(
        "--breaker-failures", type=int, default=5,
        help="consecutive failures that open the circuit breaker (default 5)",
    )
    serve_parser.add_argument(
        "--breaker-recovery", type=float, default=1.0, metavar="S",
        help="base breaker recovery interval in seconds (default 1.0)",
    )
    serve_parser.add_argument(
        "--fault-seed", type=int, default=None,
        help="inject a seeded chaos FaultPlan into sweep-backed handlers",
    )
    serve_parser.add_argument(
        "--fault-rate", type=float, default=0.1,
        help="per-resource fault rate for --fault-seed (default 0.1)",
    )
    serve_parser.add_argument(
        "--log-requests", action="store_true",
        help="emit one access-log line per request to stderr",
    )
    serve_parser.add_argument(
        "--fabric-workers", default=None, metavar="HOST:PORT,...",
        help="route the sweep-backed survey endpoint over the distributed "
        "sweep fabric (comma-separated sweep-worker endpoints)",
    )
    serve_parser.add_argument(
        "--jobs-dir", default=None, metavar="DIR",
        help="enable the durable /v1/jobs subsystem, persisting job "
        "journals, checkpoints and result artifacts under DIR "
        "(default: disabled)",
    )
    serve_parser.add_argument(
        "--job-runners", type=int, default=2,
        help="async job-runner threads per process (default 2)",
    )
    serve_parser.add_argument(
        "--job-ttl", type=float, default=3600.0, metavar="S",
        help="seconds a finished job (and its result artifact) is kept "
        "before TTL garbage collection (default 3600)",
    )
    serve_parser.add_argument(
        "--job-poll", type=float, default=0.25, metavar="S",
        help="job-runner scan interval: queue polls, orphan adoption and "
        "GC all run on this cadence (default 0.25)",
    )

    jobs_parser = sub.add_parser(
        "jobs",
        help="submit, poll and manage durable async jobs on a running server",
    )
    jobs_sub = jobs_parser.add_subparsers(dest="jobs_command", required=True)

    def _add_url(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--url", default="http://127.0.0.1:8080",
            help="base URL of the serving endpoint (default http://127.0.0.1:8080)",
        )

    jobs_submit = jobs_sub.add_parser(
        "submit", help="submit a job (POST /v1/jobs) and print its record"
    )
    _add_url(jobs_submit)
    jobs_submit.add_argument(
        "--kind", required=True,
        help="registered job kind (e.g. survey-costs, population)",
    )
    jobs_submit.add_argument(
        "--param", action="append", default=[], metavar="KEY=VALUE",
        help="one job parameter; repeat for several (e.g. --param n=32)",
    )
    jobs_submit.add_argument(
        "--idempotency-key", default=None, metavar="KEY",
        help="dedupe key: resubmitting with the same key returns the "
        "original job instead of running it again",
    )
    jobs_submit.add_argument(
        "--deadline", type=float, default=None, metavar="S",
        help="per-job wall-clock deadline in seconds (server default 300)",
    )
    jobs_submit.add_argument(
        "--ttl", type=float, default=None, metavar="S",
        help="seconds the finished job outlives completion (server default)",
    )
    jobs_submit.add_argument(
        "--max-attempts", type=int, default=None, metavar="N",
        help="execution attempts before a transient failure turns permanent",
    )
    jobs_submit.add_argument(
        "--wait", action="store_true",
        help="poll until the job reaches a terminal state, then print the "
        "result document on success",
    )
    jobs_submit.add_argument(
        "--poll-interval", type=float, default=0.2, metavar="S",
        help="seconds between --wait polls (default 0.2)",
    )

    jobs_status = jobs_sub.add_parser(
        "status", help="print one job's current record (GET /v1/jobs/ID)"
    )
    _add_url(jobs_status)
    jobs_status.add_argument("job_id")

    jobs_result = jobs_sub.add_parser(
        "result",
        help="print a succeeded job's result document, byte-identical to "
        "its on-disk artifact (GET /v1/jobs/ID/result)",
    )
    _add_url(jobs_result)
    jobs_result.add_argument("job_id")

    jobs_cancel = jobs_sub.add_parser(
        "cancel", help="request cooperative cancellation (DELETE /v1/jobs/ID)"
    )
    _add_url(jobs_cancel)
    jobs_cancel.add_argument("job_id")

    jobs_list = jobs_sub.add_parser(
        "list", help="list jobs, oldest first (GET /v1/jobs)"
    )
    _add_url(jobs_list)
    jobs_list.add_argument(
        "--state", default=None,
        choices=["queued", "running", "succeeded", "failed", "cancelled", "expired"],
        help="only jobs currently in this state",
    )
    jobs_list.add_argument(
        "--kind", default=None, help="only jobs of this kind"
    )

    populations_parser = sub.add_parser(
        "populations",
        help="generate or describe a seeded synthetic signature population",
    )
    populations_parser.add_argument(
        "action", choices=["generate", "describe"],
        help="generate: one canonical signature per line; "
        "describe: class-occupancy table for the same draw",
    )
    populations_parser.add_argument(
        "--size", type=int, default=1000,
        help="number of signatures to draw (default 1000)",
    )
    populations_parser.add_argument(
        "--seed", type=int, default=0,
        help="population seed; same seed, same population (default 0)",
    )
    populations_parser.add_argument(
        "--mode", choices=["stratified", "uniform"], default="stratified",
        help="stratified cycles the 47 class structures round-robin; "
        "uniform draws from all 406 valid structures (default stratified)",
    )
    populations_parser.add_argument(
        "--max-n", type=int, default=256, dest="max_n",
        help="largest concrete count decorated onto n/m/v placeholders "
        "(default 256)",
    )
    populations_parser.add_argument(
        "--out", default=None, metavar="FILE",
        help="write the output to FILE instead of stdout",
    )

    sub.add_parser("errata", help="paper-vs-derived discrepancies")
    sub.add_parser("audit", help="run the library self-consistency audit")
    sub.add_parser("baselines", help="compare against Flynn and Skillicorn 1988")
    return parser


def _add_jobs_argument(parser: argparse.ArgumentParser) -> None:
    """The shared ``--jobs`` flag: sweep parallelism, artifact-invariant.

    Results are byte-identical for every value — the sweep engine
    preserves input ordering — so ``--jobs`` trades wall-clock only.
    ``0`` means one worker per core.
    """
    parser.add_argument(
        "--jobs", type=_jobs_count, default=1, metavar="N",
        help="worker processes for the sweep (default 1 = serial, 0 = all cores)",
    )


def _add_resilience_arguments(parser: argparse.ArgumentParser) -> None:
    """The shared sweep-resilience flags: ``--on-error``, ``--timeout``,
    ``--resume``.

    ``--on-error raise`` (the default) keeps the historical fail-fast
    behaviour and byte-identical artifacts; ``skip`` drops failing
    points from the output, ``retry`` re-attempts them on a seeded
    deterministic backoff schedule first. ``--timeout`` bounds each
    point attempt. ``--resume`` journals completed points under
    ``artifacts/checkpoints/`` (override with ``$REPRO_CHECKPOINT_DIR``)
    and skips them bit-identically on a re-run after an interrupt.
    """
    parser.add_argument(
        "--on-error", choices=["raise", "skip", "retry"], default="raise",
        dest="on_error",
        help="per-point failure policy: raise (default), skip, or retry with backoff",
    )
    parser.add_argument(
        "--timeout", type=float, default=None, metavar="S",
        help="per-point deadline in seconds (over-budget points time out)",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="journal completed sweep points and skip them on re-run",
    )


def _add_fabric_argument(parser: argparse.ArgumentParser) -> None:
    """The shared fabric flags: ``--workers``, ``--supervise``,
    ``--max-lease-size``, ``--rejoin-backoff``.

    ``--workers`` endpoints name running ``sweep-worker`` processes
    (coordinator dials workers). Results stay byte-identical to a local
    run; if no worker answers within the join deadline the sweep
    silently runs locally instead. With ``--resume`` the checkpoint
    journal shards by point index (``.s0of8`` … files) and merges
    deterministically. ``--supervise N`` launches (and respawns) N
    local workers for the duration of the command; the other two tune
    the elastic-membership scheduler — none of the three can change an
    artifact.
    """
    parser.add_argument(
        "--workers", default=None, metavar="HOST:PORT,...",
        help="distribute the sweep over these sweep-worker endpoints "
        "(default: run locally)",
    )
    parser.add_argument(
        "--supervise", type=int, default=0, metavar="N",
        help="launch N supervised local sweep workers for this command "
        "(crashed workers respawn on the same port; default 0)",
    )
    parser.add_argument(
        "--max-lease-size", type=int, default=None, metavar="N",
        dest="max_lease_size",
        help="let per-worker lease sizes autoscale up to N points from "
        "observed throughput (default: fixed at the base lease size)",
    )
    parser.add_argument(
        "--rejoin-backoff", type=float, default=None, metavar="S",
        dest="rejoin_backoff",
        help="base seconds before re-dialing a lost worker endpoint "
        "(exponential with jitter; 0 disables rejoin; default 0.25)",
    )


@contextlib.contextmanager
def _fabric_fleet(args: argparse.Namespace):
    """Resolve the fabric flags into ``(workers, fabric_options)``.

    Builds the :func:`~repro.perf.fabric_sweep` option dict from
    ``--max-lease-size`` / ``--rejoin-backoff``, and — under
    ``--supervise N`` — boots a :class:`~repro.perf.WorkerSupervisor`
    whose endpoints are appended to ``--workers`` for the duration of
    the command. The supervisor (and its workers) are torn down on the
    way out, success or not. Out-of-range flag values surface as
    :class:`~repro.core.errors.FabricError` so the CLI's usual
    ``error: ...`` / exit-2 contract holds.
    """
    options: "dict[str, object]" = {}
    if getattr(args, "max_lease_size", None) is not None:
        if args.max_lease_size < 1:
            raise FabricError(
                f"--max-lease-size must be >= 1, got {args.max_lease_size}"
            )
        options["max_lease_size"] = args.max_lease_size
    if getattr(args, "rejoin_backoff", None) is not None:
        from repro.perf.fabric import MembershipPolicy

        try:
            options["membership"] = MembershipPolicy(
                rejoin_backoff_s=args.rejoin_backoff
            )
        except ValueError as error:
            raise FabricError(f"--rejoin-backoff: {error}") from error
    workers = args.workers
    supervise = getattr(args, "supervise", 0)
    if not supervise:
        yield workers, options
        return
    from repro.perf.supervisor import WorkerSupervisor

    try:
        supervisor = WorkerSupervisor(supervise)
    except ValueError as error:
        raise FabricError(f"--supervise: {error}") from error
    endpoints = ",".join(supervisor.start())
    merged = f"{workers},{endpoints}" if workers else endpoints
    try:
        yield merged, options
    finally:
        supervisor.stop()


def _add_batch_kernel_argument(parser: argparse.ArgumentParser) -> None:
    """The shared ``--batch-kernel/--no-batch-kernel`` flag.

    The vectorized :mod:`repro.core.batch` fast path is bit-exact, so
    the flag never changes any artifact — ``--no-batch-kernel`` exists
    for A/B debugging and for timing the scalar path.
    """
    parser.add_argument(
        "--batch-kernel",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="route single-job default-model evaluations through the "
        "vectorized batch kernel (default on; output is byte-identical "
        "either way)",
    )


def _jobs_count(text: str) -> int:
    """Parse a ``--jobs`` value: any non-negative integer."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _add_trace_argument(parser: argparse.ArgumentParser) -> None:
    """The shared ``--trace FILE`` flag: record the run as a span tree.

    The tracer is enabled for the duration of the command and the
    collected spans are written to ``FILE`` as schema-versioned JSON
    (see :func:`repro.obs.validate_trace`). The note confirming the
    write goes to stderr so stdout artifacts stay byte-identical.
    """
    parser.add_argument(
        "--trace", default=None, metavar="FILE",
        help="record a span tree of this run and write it to FILE as JSON",
    )


def _add_profile_argument(parser: argparse.ArgumentParser) -> None:
    """The shared ``--profile`` flag: cProfile the command into artifacts/."""
    parser.add_argument(
        "--profile", action="store_true",
        help="profile this command and write a top-N table to "
        "artifacts/profile_<command>.txt",
    )


def _run_metrics(args: argparse.Namespace) -> int:
    """The ``metrics`` subcommand: exercise the hot paths, dump counters.

    Metrics are process-local, so a fresh CLI process must generate some
    work before its registry says anything useful. The calibration
    workload touches each instrumented subsystem: the survey cost sweep
    twice (the second pass is all ModelCache hits), a short resilience
    sweep, and one machine run.
    """
    from repro.analysis.resilience import resilience_sweep
    from repro.analysis.survey_costs import evaluate_survey
    from repro.machine.array_processor import ArrayProcessor, ArraySubtype
    from repro.machine.kernels import simd_vector_add
    from repro.obs import REGISTRY

    evaluate_survey(default_n=args.n)
    evaluate_survey(default_n=args.n)  # repeat pass: pure cache hits
    resilience_sweep((0.01, 0.05, 0.2), n=args.n)
    lanes = max(args.n, 2)
    machine = ArrayProcessor(lanes, ArraySubtype.IAP_IV)
    machine.scatter(0, list(range(lanes * 8)))
    machine.scatter(64, list(range(lanes * 8)))
    machine.run(simd_vector_add(8))

    if args.prometheus:
        from repro.obs import render_prometheus

        print(render_prometheus(REGISTRY), end="")
    elif args.json:
        import json

        print(json.dumps(REGISTRY.snapshot(), indent=2))
    else:
        print(f"process metrics after the calibration workload (n={args.n}):")
        print()
        print(REGISTRY.render())
    return 0


def _run_serve(args: argparse.Namespace) -> int:
    """The ``serve`` subcommand: run the hardened HTTP query service.

    Blocks until SIGTERM/SIGINT, then drains in-flight requests within
    ``--drain-deadline`` seconds and exits 0 on a clean drain (1 if the
    deadline expired with work still in flight). ``--fault-seed`` arms a
    deterministic chaos plan against the sweep-backed handlers so the
    circuit breaker and ``/v1/readyz`` behaviour can be demonstrated
    without real failures.
    """
    from repro.faults import FaultPlan
    from repro.serve import BreakerPolicy, ServerConfig, run_server

    fault_plan = None
    if args.fault_seed is not None:
        fault_plan = FaultPlan.random(
            args.fault_seed, args.fault_rate, n_pes=64, horizon=64
        )
    config = ServerConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        processes=args.processes,
        queue_depth=args.queue_depth,
        deadline_s=args.deadline,
        rate=args.rate,
        burst=args.burst,
        drain_s=args.drain_deadline,
        breaker=BreakerPolicy(
            failure_threshold=args.breaker_failures,
            recovery_s=args.breaker_recovery,
        ),
        fault_plan=fault_plan,
        log_requests=args.log_requests,
        fabric_workers=args.fabric_workers,
        keepalive_requests=args.keepalive_requests,
        keepalive_idle_s=args.keepalive_idle,
        cache_size=args.cache_size,
        jobs_dir=args.jobs_dir,
        job_runners=args.job_runners,
        job_ttl_s=args.job_ttl,
        job_poll_s=args.job_poll,
    )
    return run_server(config)


def _jobs_http(url: str, *, method: str = "GET", payload: "dict | None" = None) -> bytes:
    """One request against the jobs API; HTTP errors become ReproError.

    The server's structured error body carries a user-facing message;
    surfacing it through :class:`~repro.core.errors.ReproError` reuses
    the CLI's ``error: ...`` / exit-2 contract.
    """
    import json
    import urllib.error
    import urllib.request

    body = None if payload is None else json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        url,
        data=body,
        method=method,
        headers={"Content-Type": "application/json"} if body else {},
    )
    try:
        with urllib.request.urlopen(request, timeout=30.0) as response:
            return response.read()
    except urllib.error.HTTPError as error:
        raw = error.read()
        try:
            message = json.loads(raw)["error"]["message"]
        except (ValueError, KeyError, TypeError):
            message = raw.decode("utf-8", "replace").strip() or str(error)
        raise ReproError(f"{error.code}: {message}") from None
    except urllib.error.URLError as error:
        raise ReproError(f"cannot reach {url}: {error.reason}") from None


def _run_jobs(args: argparse.Namespace) -> int:
    """The ``jobs`` subcommand group: an HTTP client over ``/v1/jobs``.

    ``result`` writes the response body verbatim — the same bytes as
    the server's on-disk ``result.json`` artifact — so shell pipelines
    can diff results across runs and restarts.
    """
    import json
    import time as _time

    base = args.url.rstrip("/")
    if args.jobs_command == "submit":
        payload: "dict[str, object]" = {"kind": args.kind}
        for pair in args.param:
            key, sep, value = pair.partition("=")
            if not sep or not key:
                raise ReproError(f"--param must look like KEY=VALUE, got {pair!r}")
            payload[key] = value
        if args.idempotency_key is not None:
            payload["idempotency-key"] = args.idempotency_key
        if args.deadline is not None:
            payload["deadline"] = args.deadline
        if args.ttl is not None:
            payload["ttl"] = args.ttl
        if args.max_attempts is not None:
            payload["max-attempts"] = args.max_attempts
        raw = _jobs_http(f"{base}/v1/jobs", method="POST", payload=payload)
        submitted = json.loads(raw)
        job = submitted["job"]
        if not args.wait:
            sys.stdout.write(raw.decode("utf-8"))
            return 0
        job_id = job["id"]
        while job["state"] not in ("succeeded", "failed", "cancelled", "expired"):
            _time.sleep(args.poll_interval)
            job = json.loads(_jobs_http(f"{base}/v1/jobs/{job_id}"))["job"]
        if job["state"] != "succeeded":
            raise ReproError(
                f"job {job_id} ended in state {job['state']}"
                + (f": {job['error']}" if job.get("error") else "")
            )
        sys.stdout.buffer.write(_jobs_http(f"{base}/v1/jobs/{job_id}/result"))
        return 0
    if args.jobs_command == "status":
        sys.stdout.write(
            _jobs_http(f"{base}/v1/jobs/{args.job_id}").decode("utf-8")
        )
        return 0
    if args.jobs_command == "result":
        sys.stdout.buffer.write(_jobs_http(f"{base}/v1/jobs/{args.job_id}/result"))
        return 0
    if args.jobs_command == "cancel":
        sys.stdout.write(
            _jobs_http(f"{base}/v1/jobs/{args.job_id}", method="DELETE").decode("utf-8")
        )
        return 0
    query = []
    if args.state is not None:
        query.append(f"state={args.state}")
    if args.kind is not None:
        query.append(f"kind={args.kind}")
    suffix = ("?" + "&".join(query)) if query else ""
    sys.stdout.write(_jobs_http(f"{base}/v1/jobs{suffix}").decode("utf-8"))
    return 0


def _run_populations(args: argparse.Namespace) -> int:
    """The ``populations`` subcommand: seeded synthetic signature sets.

    ``generate`` prints one canonical signature per line — exactly the
    population a :class:`repro.core.batch.SignatureBatch` would be built
    from; ``describe`` prints the class-occupancy table for the same
    draw. Both are pure functions of (size, seed, mode, max-n):
    re-running a command reproduces its output byte-for-byte.
    """
    from repro.registry.populations import (
        PopulationSpec,
        describe_population,
        generate_signatures,
    )

    spec = PopulationSpec(
        size=args.size, seed=args.seed, mode=args.mode, max_n=args.max_n
    )
    signatures = generate_signatures(spec)
    if args.action == "describe":
        text = describe_population(signatures)
    else:
        text = "\n".join(signature.describe() for signature in signatures)
    if args.out and args.out != "-":
        from pathlib import Path

        path = Path(args.out)
        if path.parent != Path(""):
            path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text + "\n", encoding="utf-8")
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


def _run_sweep_worker(args: argparse.Namespace) -> int:
    """The ``sweep-worker`` subcommand: one node of the sweep fabric.

    Binds the listen address (printing the resolved ``HOST:PORT`` so
    scripts can use ``--listen HOST:0``), marks the process via
    ``$REPRO_SWEEP_WORKER`` so sweep functions can detect worker
    context, and serves coordinator sessions until killed (or after
    ``--max-sessions``). The worker is stateless: all journalling
    happens coordinator-side, so killing a worker loses nothing.
    """
    import os

    from repro.perf.fabric import WORKER_ENV, FabricWorker, parse_endpoints

    ((host, port),) = parse_endpoints(args.listen)
    os.environ[WORKER_ENV] = "1"
    worker = FabricWorker(
        host,
        port,
        throttle_s=args.throttle,
        heartbeat_override_s=args.heartbeat,
        max_sessions=args.max_sessions,
    )
    bound_host, bound_port = worker.address
    print(f"worker listening on {bound_host}:{bound_port}", flush=True)
    try:
        sessions = worker.serve_forever()
    finally:
        worker.close()
    print(f"served {sessions} sweep session(s)", file=sys.stderr)
    return 0


def _run_faults(args: argparse.Namespace) -> int:
    """The ``faults`` subcommand: demo two classes, then sweep the survey.

    Everything below is a pure function of (seed, rate, n, spares,
    policy): running the same command twice produces byte-identical
    output — determinism is the point of seeded fault plans.
    """
    from repro.analysis.resilience import (
        DEFAULT_FAULT_RATES,
        render_resilience_table,
        resilience_csv_rows,
        resilience_sweep,
    )
    from repro.faults import FaultPlan, FaultPolicy
    from repro.machine.array_processor import ArrayProcessor, ArraySubtype
    from repro.machine.kernels import simd_vector_add
    from repro.models.area import redundancy_overhead

    policy = FaultPolicy.parse(args.policy)
    n_lanes = max(args.n, 2)
    plan = FaultPlan.random(args.seed, args.rate, n_pes=n_lanes)
    print(plan.describe())
    print()

    # The taxonomy's flexibility argument, executed: the same plan and
    # policy against the all-direct IAP-I and the all-switched IAP-IV.
    program = simd_vector_add(8)
    for subtype in (ArraySubtype.IAP_I, ArraySubtype.IAP_IV):
        machine = ArrayProcessor(n_lanes, subtype)
        machine.scatter(0, list(range(n_lanes * 8)))
        machine.scatter(64, list(range(n_lanes * 8)))
        try:
            result = machine.run(program, faults=plan, policy=policy)
        except ReproError as error:
            print(f"{subtype.label:8s} {policy.describe():12s} FAULT: {error}")
            continue
        print(
            f"{subtype.label:8s} {policy.describe():12s} "
            f"cycles={result.cycles} operations={result.operations} "
            f"remaps={result.stats.get('remap_events', 0)} "
            f"achieved={result.stats.get('achieved_parallelism', 0.0):.2f}/"
            f"{result.stats.get('nominal_parallelism', 0.0):.0f}"
        )
    print()

    if policy.spares or args.spares:
        spares = policy.spares or args.spares
        from repro.core.signature import make_signature

        iap_iv = make_signature(
            1, "n", ip_dp="1-n", ip_im="1-1", dp_dm="nxn", dp_dp="nxn"
        )
        print(redundancy_overhead(iap_iv, n=args.n, spares=spares).describe())
        print()

    if args.rates:
        try:
            rates = tuple(float(token) for token in args.rates.split(","))
        except ValueError:
            raise FaultError(
                f"--rates must be a comma-separated list of numbers, "
                f"got {args.rates!r}"
            ) from None
    else:
        rates = DEFAULT_FAULT_RATES
    with _fabric_fleet(args) as (workers, fabric_options):
        points = resilience_sweep(
            rates,
            n=args.n,
            spares=args.spares,
            jobs=args.jobs,
            on_error=args.on_error,
            timeout_s=args.timeout,
            resume=args.resume,
            workers=workers,
            fabric_options=fabric_options,
        )
    print(render_resilience_table(points))

    if args.out != "-":
        from repro.reporting.export import write_csv

        rows = resilience_csv_rows(points)
        write_csv(args.out, rows[0], rows[1:])
        print()
        print(f"wrote {args.out}")
    return 0


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "table1":
        print(render_table1(markdown=args.markdown))
    elif args.command == "table2":
        print(render_table2(markdown=args.markdown))
    elif args.command == "table3":
        print(render_table3(markdown=args.markdown))
    elif args.command == "fig":
        print(_FIGURES[args.number]())
    elif args.command == "classify":
        signature = make_signature(
            args.ips,
            args.dps,
            ip_ip=args.ip_ip,
            ip_dp=args.ip_dp,
            ip_im=args.ip_im,
            dp_dm=args.dp_dm,
            dp_dp=args.dp_dp,
        )
        print(classify(signature).explain())
    elif args.command == "explain":
        record = architecture(args.name)
        print(f"{record.name} ({record.year}) — {record.family.value}")
        print(record.description)
        print()
        print(record.classification.explain())
    elif args.command == "dse":
        objective = {
            "config": Objective.CONFIG_BITS,
            "area": Objective.AREA,
            "flex-per-area": Objective.FLEXIBILITY_PER_AREA,
        }[args.objective]
        requirements = Requirements(
            min_flexibility=args.min_flexibility,
            max_area_ge=args.max_area_ge,
            max_config_bits=args.max_config_bits,
            n=args.n,
        )
        with _fabric_fleet(args) as (workers, fabric_options):
            recommendation = explore(
                requirements,
                objective=objective,
                jobs=args.jobs,
                on_error=args.on_error,
                timeout_s=args.timeout,
                resume=args.resume,
                workers=workers,
                fabric_options=fabric_options,
                batch_kernel=args.batch_kernel,
            )
        print(recommendation.explain())
    elif args.command == "costs":
        from repro.analysis.survey_costs import survey_cost_table

        with _fabric_fleet(args) as (workers, fabric_options):
            print(
                survey_cost_table(
                    default_n=args.n,
                    jobs=args.jobs,
                    on_error=args.on_error,
                    timeout_s=args.timeout,
                    resume=args.resume,
                    workers=workers,
                    fabric_options=fabric_options,
                    batch_kernel=args.batch_kernel,
                )
            )
    elif args.command == "report":
        from repro.reporting.bundle import generate_report

        files = generate_report(args.outdir)
        for path in files:
            print(path)
        print(f"wrote {len(files)} artifact files to {args.outdir}")
    elif args.command == "errata":
        report = errata_report()
        print("\n".join(report) if report else "no discrepancies")
    elif args.command == "audit":
        from repro.audit import run_audit

        audit = run_audit()
        print(audit.summary())
        return 0 if audit.passed else 1
    elif args.command == "faults":
        return _run_faults(args)
    elif args.command == "metrics":
        return _run_metrics(args)
    elif args.command == "populations":
        return _run_populations(args)
    elif args.command == "serve":
        return _run_serve(args)
    elif args.command == "jobs":
        return _run_jobs(args)
    elif args.command == "sweep-worker":
        return _run_sweep_worker(args)
    elif args.command == "baselines":
        from repro.core import baseline_resolution, extension_report

        print(extension_report().summary())
        print()
        for label, row in baseline_resolution().items():
            members = ", ".join(row.extended_classes)
            print(f"{label:12s} ({row.resolution_gain:2d}): {members}")
    return 0


def _dispatch_observed(args: argparse.Namespace) -> int:
    """Dispatch under the optional ``--profile`` wrapper."""
    if not getattr(args, "profile", False):
        return _dispatch(args)
    from repro.obs import Profiler

    with Profiler(args.command, top=20, memory=True) as profiler:
        status = _dispatch(args)
    assert profiler.report is not None
    path = profiler.report.write("artifacts")
    print(f"wrote profile to {path}", file=sys.stderr)
    return status


def main(argv: "list[str] | None" = None) -> int:
    """Parse and dispatch; library errors become a one-line diagnostic.

    Any :class:`ReproError` — bad signature, unknown architecture,
    untolerated fault, … — prints ``error: <message>`` on stderr and
    returns exit code 2 (argparse's own usage-error convention), so
    shell pipelines can distinguish "the machine broke" from "the tool
    crashed". Ctrl-C prints one ``interrupted`` line and returns 130
    (the shell's SIGINT convention) after an orderly pool shutdown —
    sweep progress journalled under ``--resume`` survives the
    interrupt. Non-library exceptions still traceback: those are bugs.

    ``--trace FILE`` (on ``dse``, ``costs``, ``faults`` and ``report``)
    records the whole command as a span tree; the JSON lands in FILE
    even when the command fails, so a trace of a crashing run is still
    inspectable.
    """
    args = build_parser().parse_args(argv)
    trace_file = getattr(args, "trace", None)
    if trace_file is not None:
        from repro.obs import trace as obs_trace

        obs_trace.reset()
        obs_trace.enable()
    try:
        return _dispatch_observed(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print(
            "interrupted — completed sweep points are kept when --resume is used",
            file=sys.stderr,
        )
        return 130
    finally:
        if trace_file is not None:
            obs_trace.disable()
            path = obs_trace.tracer().write_json(trace_file)
            print(f"wrote trace to {path}", file=sys.stderr)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
