"""The benchmark's metric catalogue, read from ``BENCHMARK.json``.

``BENCHMARK.json`` at the repository root is the one list of workloads
and metrics; this module only indexes it.

End-to-end metrics are emitted by every workload (``--trace 0``); each
workload defines them over its own unit of work (see ``README.md``).
Per-layer metrics are emitted by every traced run (``--trace 1``); a
layer the workload never calls reads 0, which is itself the prediction
that a change to that layer leaves the workload alone.
"""

from __future__ import annotations

import json
from pathlib import Path

MANIFEST = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

_SPEC = json.loads(MANIFEST.read_text())

#: name -> (unit, better)
END_TO_END: dict[str, tuple[str, str]] = {
    m["name"]: (m["unit"], m["better"]) for m in _SPEC["end_to_end"]
}
PER_LAYER: dict[str, tuple[str, str]] = {
    m["name"]: (m["unit"], m["better"]) for m in _SPEC["per_layer"]
}
WORKLOADS: tuple[str, ...] = tuple(w["name"] for w in _SPEC["workloads"])
