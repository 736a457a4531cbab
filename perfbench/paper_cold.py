"""paper-cold: the researcher reproducing the paper, fresh processes only.

One session is ``repro-taxonomy report`` into a scratch directory
followed by ``repro-taxonomy classify`` of one seeded Table-I signature,
each a fresh interpreter, run one at a time. Every file the report
writes must be byte-identical to the committed ``artifacts/`` (read,
never written), and the classify output must equal the library's
``classify(...).explain()``. This is the only workload that pays import
time, the ``compile_taxonomy`` table build, the report renders, the
resilience sweep and the audit.

On the shared host this was built on, report and classify walls moved
together by up to 1.45x between runs while their ratio held to ~3%, so
every session and set-up probe is bracketed by the host-speed reference
(:class:`harness.HostClock`) and its times are scaled by it. No program
process is alive while the reference runs. Raw walls are printed beside
the scaled ones.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from harness import (
    ROOT,
    HostClock,
    Outcome,
    median,
    print_ledger,
    remove_tree,
    run_child,
    scratch_dir,
    windowed_tail,
)
from inputs import cli_signature

SETUPS = 3
#: Sessions run even when ``--seconds`` would allow fewer.
MIN_SESSIONS = 3
#: A run holds too few sessions for a percentile with ten beyond it but
#: the median, so the tail is the median over windows of this many
#: consecutive sessions of each window's slowest.
TAIL_WINDOW = 5
PROBE = str(Path(__file__).resolve().parent / "cold_probe.py")
SETUP_CODE = "from repro.core.batch import compile_taxonomy; compile_taxonomy()"


def _artifacts() -> dict[str, bytes]:
    """The committed artifact bundle, by file name."""
    return {path.name: path.read_bytes()
            for path in (ROOT / "artifacts").iterdir() if path.is_file()}


def _report_wrong(outdir: Path, committed: dict[str, bytes]) -> int:
    """Files missing, extra or differing from the committed bundle."""
    written = {path.name: path.read_bytes() for path in outdir.iterdir() if path.is_file()}
    names = set(written) | set(committed)
    return sum(written.get(name) != committed.get(name) for name in names)


def _session(index: int, seed: int, work: Path, committed: dict) -> dict:
    """One report + classify pair: walls, report RSS, wrong outputs."""
    outdir = work / f"report-{index}"
    code, out, report_s, rss = run_child(
        [sys.executable, "-m", "repro.cli", "report", str(outdir)])
    wrong = _report_wrong(outdir, committed) if code == 0 else len(committed)
    flags, signature = cli_signature(seed, index)
    code, out, classify_s, _ = run_child([sys.executable, "-m", "repro.cli", "classify", *flags])
    from repro.core.classify import classify

    wrong += code != 0 or out != classify(signature).explain() + "\n"
    return {"report_s": report_s, "classify_s": classify_s, "rss": rss, "wrong": wrong,
            "files": len(committed)}


def measure(seed: int, seconds: float, setups: int = SETUPS) -> Outcome:
    """The untraced run: end-to-end metrics, scaled to the reference host."""
    committed = _artifacts()
    clock = HostClock()
    setup_raw, setup_times = [], []
    for _ in range(setups):
        setup_raw.append(run_child([sys.executable, "-c", SETUP_CODE])[2])
        setup_times.append(setup_raw[-1] * clock.scale())
    work = scratch_dir("cold-")
    sessions: list[dict] = []
    try:
        end = time.perf_counter() + seconds
        while len(sessions) < MIN_SESSIONS or time.perf_counter() < end:
            session = _session(len(sessions), seed, work, committed)
            session["scale"] = clock.scale()
            sessions.append(session)
    finally:
        remove_tree(work)
    walls = [(s["report_s"] + s["classify_s"]) * s["scale"] * 1000.0 for s in sessions]
    tail, _, tail_windows = windowed_tail(walls, TAIL_WINDOW)
    report_s = median([s["report_s"] * s["scale"] for s in sessions])
    wrong = sum(s["wrong"] for s in sessions)
    outcome = Outcome(
        metrics={
            "throughput_per_s": 1.0 / report_s,
            "p50_ms": median(walls),
            "tail_ms": tail,
            "setup_s": median(setup_times),
            "rss_mb": median([s["rss"] for s in sessions]),
        },
        attempted=sum(s["files"] + 1 for s in sessions),
        failed=wrong,
        correct=wrong == 0,
    )
    raw_report = median([s["report_s"] for s in sessions])
    raw_walls = [(s["report_s"] + s["classify_s"]) * 1000.0 for s in sessions]
    print(f"report_cold_s {report_s:.4f} s scaled, {raw_report:.4f} s raw (median of "
          f"{len(sessions)} fresh processes; throughput_per_s is its inverse)")
    print(f"cli_cold_s {median([s['classify_s'] * s['scale'] for s in sessions]):.4f} s scaled, "
          f"{median([s['classify_s'] for s in sessions]):.4f} s raw")
    print(f"session p50 {median(walls):.1f} ms scaled, {median(raw_walls):.1f} ms raw, of "
          f"{len(walls)}; tail {tail:.1f} ms scaled (median of {tail_windows} windows' slowest "
          f"of >= {TAIL_WINDOW} sessions)")
    print(clock.describe())
    print(f"setup_s {median(setup_times):.4f} s scaled, {median(setup_raw):.4f} s raw (fresh "
          f"import + compile_taxonomy, median of {setups})")
    print(f"rss_mb {outcome.metrics['rss_mb']:.1f} MB (report process peak)")
    print(f"input shape: {len(committed)} committed artifacts compared byte for byte "
          f"per report; {len(sessions)} sessions")
    return outcome


def trace(seed: int, seconds: float) -> Outcome:
    """The traced run: stage times in fresh probe processes, and the ledger."""
    work = scratch_dir("cold-")
    committed = _artifacts()
    report_probes, classify_probes, report_walls, classify_walls = [], [], [], []
    wrong = 0
    try:
        for index in range(3):
            outdir = work / f"probe-{index}"
            code, out, _, _ = run_child([sys.executable, PROBE, "report", str(outdir)])
            report_probes.append(json.loads(out.splitlines()[-1]))
            wrong += code != 0 or _report_wrong(outdir, committed) > 0
            flags, _ = cli_signature(seed, index)
            code, out, _, _ = run_child([sys.executable, PROBE, "classify", *flags])
            classify_probes.append(json.loads(out.splitlines()[-1]))
            session = _session(index, seed, work, committed)
            report_walls.append(session["report_s"] * 1000.0)
            classify_walls.append(session["classify_s"] * 1000.0)
            wrong += session["wrong"]
        start_ms = median([run_child([sys.executable, "-c", "pass"])[2] * 1000.0
                           for _ in range(3)])
    finally:
        remove_tree(work)

    def stage(probes: list[dict], name: str) -> float:
        return median([probe[name] for probe in probes])

    report_stages = {name: stage(report_probes, name) for name in report_probes[0]}
    metrics = dict(report_stages)
    metrics["import.repro_ms"] = median(
        [p["import.repro_ms"] for p in report_probes + classify_probes])
    metrics["import.repro_cli_ms"] = median(
        [p["import.repro_cli_ms"] for p in report_probes + classify_probes])
    metrics["core.classify.classify_ms"] = stage(classify_probes, "core.classify.classify_ms")
    report_wall = median(report_walls)
    metrics["ledger.unattributed_share"] = print_ledger(
        "paper-cold report, fresh process, medians of 3", "ms",
        [("python interpreter start", start_ms)] + list(report_stages.items()),
        "report_cold wall (interpreter start included)",
        report_wall)
    classify_stages = {name: stage(classify_probes, name) for name in classify_probes[0]}
    print_ledger("paper-cold classify, fresh process, medians of 3", "ms",
                 [("python interpreter start", start_ms)] + list(classify_stages.items()),
                 "cli_cold wall (interpreter start included)",
                 median(classify_walls))
    probe_wall = median([sum(probe.values()) for probe in report_probes]) + start_ms
    print(f"tracing overhead: traced probe {probe_wall:.1f} ms (stages + interpreter start) "
          f"vs untraced report {report_wall:.1f} ms: {probe_wall - report_wall:+.1f} ms")
    return Outcome(metrics, attempted=6, failed=wrong, correct=wrong == 0)
