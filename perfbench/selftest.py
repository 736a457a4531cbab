"""Fast self-test of the benchmark: a few operations per workload.

Usage, from the repository root::

    python3 perfbench/selftest.py

Checks that every workload's untraced and traced runs end in a correct
result line carrying every metric ``BENCHMARK.json`` names, with its
unit, and that without the program the benchmark exits non-zero and
prints no result.
Exits 0 when all checks pass.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

from catalog import END_TO_END, PER_LAYER, WORKLOADS
from harness import ROOT, remove_tree, scratch_dir

RUN = ["python3", "perfbench/run.py"]


def check_run(workload: str, trace: int, cwd=ROOT) -> list[str]:
    """One short run: a correct result line with every metric and unit."""
    out = subprocess.run(
        RUN + ["--workload", workload, "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    label = f"{workload} --trace {trace}"
    if out.returncode != 0:
        return [f"{label}: exit {out.returncode}: {out.stderr.strip()[-500:]}"]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{label}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{label}: correct={result['correct']} failed={result['failed']} "
                        f"attempted={result['attempted']}")
    catalog = PER_LAYER if trace else END_TO_END
    emitted = {name: metric["unit"] for name, metric in result["metrics"].items()}
    if emitted != {name: unit for name, (unit, _) in catalog.items()}:
        problems.append(f"{label}: metrics or units differ from BENCHMARK.json")
    for name, metric in result["metrics"].items():
        if not isinstance(metric["value"], (int, float)):
            problems.append(f"{label}: {name} is not a number")
        elif not trace and metric["value"] <= 0:
            problems.append(f"{label}: end-to-end {name} is {metric['value']}")
    return problems


def check_without_program() -> list[str]:
    """Only BENCHMARK.json and perfbench/: exit non-zero, no result line."""
    bare = scratch_dir("bare-")
    try:
        shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        out = subprocess.run(
            RUN + ["--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        remove_tree(bare)
    if out.returncode == 0 or '"metrics"' in out.stdout:
        return ["without the program the benchmark still printed a result"]
    return []


def main() -> int:
    """Run every check; print the problems; 0 when there are none."""
    problems = check_without_program()
    for workload in WORKLOADS:
        for trace in (0, 1):
            found = check_run(workload, trace)
            print(f"{workload} --trace {trace}: {'ok' if not found else 'FAILED'}", flush=True)
            problems += found
    for problem in problems:
        print(f"problem: {problem}")
    print("selftest " + ("passed" if not problems else f"failed ({len(problems)} problems)"))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
