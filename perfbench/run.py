"""The repository benchmark: one workload per run, one JSON result line.

Usage, from the repository root::

    python3 perfbench/run.py --workload classify-batch --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is the
separate traced run that prints the layer ledger and emits the
per-layer metrics. Human-readable lines come first; the last line of
standard output is the result object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

The program is run from ``src/`` of the checkout; without it the
benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import signal
import sys
import time
import traceback

from catalog import END_TO_END, PER_LAYER, WORKLOADS
from harness import (
    WORK,
    BenchError,
    dump,
    environment,
    pin_to_one_cpu,
    remove_tree,
    require_program,
)

#: Workload name -> implementing module.
MODULES = {
    "classify-batch": "classify_batch",
    "serve-mix": "serve_mix",
    "jobs-backlog": "jobs_backlog",
    "paper-cold": "paper_cold",
}


def run(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    """Run one workload and return the result object (also printed)."""
    require_program()
    cpu = pin_to_one_cpu()
    module = importlib.import_module(MODULES[workload])
    started = time.perf_counter()
    outcome = module.trace(seed, seconds) if traced else module.measure(seed, seconds)
    catalog = PER_LAYER if traced else END_TO_END
    unknown = sorted(set(outcome.metrics) - set(catalog))
    if unknown:
        raise BenchError(f"metrics missing from BENCHMARK.json: {unknown}")
    if not traced and set(outcome.metrics) != set(catalog):
        missing = sorted(set(catalog) - set(outcome.metrics))
        raise BenchError(f"end-to-end metrics not measured: {missing}")
    # A layer this workload never calls spends no time in it: 0.
    metrics = {
        name: {"value": float(outcome.metrics.get(name, 0.0)), "unit": unit}
        for name, (unit, _) in catalog.items()
    }
    stamp = environment(seed, "cold" if workload == "paper-cold" else "warm")
    stamp.update(outcome.stamp)
    stamp.update({"workload": workload, "trace": int(traced), "pinned_cpu": cpu,
                  "wall_s": round(time.perf_counter() - started, 3)})
    dump("environment", stamp)
    failed_share = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    print(f"failed_share {failed_share:.6f} ({outcome.failed} of {outcome.attempted})")
    for note in outcome.notes:
        print(f"CHECK FAILED: {note}")
    return {
        "correct": bool(outcome.correct),
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": metrics,
    }


def main(argv: "list[str] | None" = None) -> int:
    """Parse the command-line flags, run, print the result line."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    # SIGTERM unwinds like an exception, so every server child is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    except Exception:  # noqa: BLE001 - the run failed; no result is printed
        traceback.print_exc()
        return 1
    finally:
        remove_tree(WORK)
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
