"""Fresh-process probe for paper-cold: time each layer the report calls.

Run as ``python perfbench/cold_probe.py report OUTDIR`` or
``python perfbench/cold_probe.py classify FLAG...`` with ``src`` on
``PYTHONPATH``. It repeats, layer by layer, what ``repro-taxonomy
report`` (or ``classify``) does, with a span around each call, and
prints one JSON object of stage milliseconds. Nothing is imported
before the first span, so the imports are measured cold.
"""

from __future__ import annotations

import json
import sys
import time


def _ms(started: float) -> float:
    return (time.perf_counter() - started) * 1000.0


def report(outdir: str) -> dict[str, float]:
    """The ``report`` bundle, one stage at a time."""
    from pathlib import Path

    stages: dict[str, float] = {}
    started = time.perf_counter()
    import repro  # noqa: F401

    stages["import.repro_ms"] = _ms(started)
    started = time.perf_counter()
    import repro.cli  # noqa: F401

    stages["import.repro_cli_ms"] = _ms(started)
    from repro.core.batch import compile_taxonomy

    started = time.perf_counter()
    compile_taxonomy()
    stages["core.batch.compile_taxonomy_ms"] = _ms(started)

    from repro.reporting import figures, tables
    from repro.reporting.export import rows_to_csv, survey_to_json, taxonomy_to_json

    files: dict[str, str] = {}
    started = time.perf_counter()
    files["table1.txt"] = tables.render_table1()
    files["table1.md"] = tables.render_table1(markdown=True)
    files["table1.csv"] = rows_to_csv(tables.TABLE1_HEADER, tables.table1_rows())
    files["table2.txt"] = tables.render_table2()
    files["table2.csv"] = rows_to_csv(("class", "flexibility"), tables.table2_rows())
    files["table3.txt"] = tables.render_table3()
    files["table3.md"] = tables.render_table3(markdown=True)
    files["table3.csv"] = rows_to_csv(tables.TABLE3_HEADER, tables.table3_rows())
    stages["reporting.tables.render_ms"] = _ms(started)

    started = time.perf_counter()
    for name in ("fig1_trends", "fig2_hierarchy", "fig3_dataflow", "fig4_array",
                 "fig5_spatial", "fig6_universal", "fig7_flexibility"):
        files[name + ".txt"] = getattr(figures, "render_fig" + name[3])()
    years, series = figures.fig1_series()
    files["fig1_series.csv"] = rows_to_csv(
        ["year"] + list(series),
        [[year] + [series[topic][i] for topic in series] for i, year in enumerate(years)],
    )
    names, values = figures.fig7_series()
    files["fig7_series.csv"] = rows_to_csv(("architecture", "flexibility"), zip(names, values))
    stages["reporting.figures.render_ms"] = _ms(started)

    from repro.analysis.survey_costs import survey_cost_table

    started = time.perf_counter()
    files["survey_costs.txt"] = survey_cost_table()
    stages["analysis.survey_costs.survey_cost_table_ms"] = _ms(started)

    from repro.analysis.resilience import (
        render_resilience_table,
        resilience_csv_rows,
        resilience_sweep,
    )

    started = time.perf_counter()
    points = resilience_sweep()
    files["resilience.txt"] = render_resilience_table(points)
    rows = resilience_csv_rows(points)
    files["resilience.csv"] = rows_to_csv(rows[0], rows[1:])
    stages["analysis.resilience.resilience_sweep_ms"] = _ms(started)

    from repro.audit import run_audit

    started = time.perf_counter()
    files["audit.txt"] = run_audit().summary()
    stages["audit.run_audit_ms"] = _ms(started)

    from repro.reporting.export import write_artifact

    started = time.perf_counter()
    files["taxonomy.json"] = taxonomy_to_json()
    files["survey.json"] = survey_to_json()
    base = Path(outdir)
    base.mkdir(parents=True, exist_ok=True)
    for name, content in files.items():
        write_artifact(base / name, content)
    stages["reporting.export.write_artifact_ms"] = _ms(started)
    return stages


def classify(flags: list[str]) -> dict[str, float]:
    """The ``classify`` subcommand: cold import, then one classification."""
    stages: dict[str, float] = {}
    started = time.perf_counter()
    import repro  # noqa: F401

    stages["import.repro_ms"] = _ms(started)
    started = time.perf_counter()
    import repro.cli  # noqa: F401

    stages["import.repro_cli_ms"] = _ms(started)
    from repro.core.classify import classify as classify_signature
    from repro.core.signature import make_signature

    values = dict(zip(flags[0::2], flags[1::2]))
    started = time.perf_counter()
    signature = make_signature(
        values.pop("--ips"), values.pop("--dps"),
        **{key[2:].replace("-", "_"): value for key, value in values.items()},
    )
    classify_signature(signature).explain()
    stages["core.classify.classify_ms"] = _ms(started)
    return stages


if __name__ == "__main__":
    mode, *rest = sys.argv[1:]
    result = report(rest[0]) if mode == "report" else classify(rest)
    print(json.dumps(result, sort_keys=True))
