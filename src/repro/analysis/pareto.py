"""Flexibility / area / configuration-overhead trade-off analysis.

§III-B frames the design space as a trade between flexibility and
reconfiguration overhead, with ASIC and FPGA at the extremes and the
CGRA classes between them. This module evaluates every implementable
taxonomy class with the Eq.-1 and Eq.-2 models at a common design point
and computes the Pareto frontier of (max flexibility, min area, min
configuration bits) — the chart a designer would consult.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any, Mapping

from repro.core.flexibility import flexibility
from repro.core.naming import MachineType
from repro.core.taxonomy import TaxonomyClass, implementable_classes
from repro.models.area import AreaModel
from repro.models.configbits import ConfigBitsModel
from repro.obs import trace as _trace
from repro.perf import (
    ModelCache,
    ShardedCheckpoint,
    SweepCheckpoint,
    evaluate_models,
    fabric_sweep,
    sweep,
)

__all__ = ["DesignPoint", "evaluate_classes", "pareto_frontier"]


@dataclass(frozen=True, slots=True)
class DesignPoint:
    """One taxonomy class evaluated at a concrete size."""

    name: str
    serial: int
    machine_type: MachineType
    flexibility: int
    area_ge: float
    config_bits: int
    n: int

    def dominates(self, other: "DesignPoint") -> bool:
        """Pareto dominance: no worse on all axes, better on at least one.

        Axes: flexibility (higher better), area and config bits (lower
        better).
        """
        no_worse = (
            self.flexibility >= other.flexibility
            and self.area_ge <= other.area_ge
            and self.config_bits <= other.config_bits
        )
        better = (
            self.flexibility > other.flexibility
            or self.area_ge < other.area_ge
            or self.config_bits < other.config_bits
        )
        return no_worse and better

    def row(self) -> tuple[str, ...]:
        """The record as a tuple of formatted table cells."""
        return (
            self.name,
            str(self.flexibility),
            f"{self.area_ge:,.0f}",
            f"{self.config_bits:,}",
        )


def _design_point(
    cls: TaxonomyClass, *, n: int, cache: "ModelCache | None"
) -> DesignPoint:
    """Price one taxonomy class — the sweep's per-point worker."""
    assert cls.name is not None
    estimates = evaluate_models(cls.signature, n=n, cache=cache)
    return DesignPoint(
        name=cls.name.short,
        serial=cls.serial,
        machine_type=cls.name.machine_type,
        flexibility=flexibility(cls.signature),
        area_ge=estimates.area_ge,
        config_bits=estimates.config_bits,
        n=n,
    )


def _evaluate_classes_kernel(
    classes: "list[TaxonomyClass]",
    *,
    n: int,
    area_model: "AreaModel | None",
    config_model: "ConfigBitsModel | None",
) -> "list[DesignPoint] | None":
    """Vectorized fast path through :mod:`repro.core.batch`.

    Returns ``None`` for model configurations the kernel cannot
    reproduce bit-exactly, so the caller falls
    back to the scalar sweep. When it does run, every field of every
    :class:`DesignPoint` is bit-identical to the scalar path's.
    """
    from repro.core import batch as _batch

    if not _batch.kernel_supports(area_model, config_model):
        return None
    with _trace.span(
        "analysis.evaluate_classes", classes=len(classes), n=n, jobs=1, kernel=True
    ):
        columns = _batch.SignatureBatch.from_signatures(
            cls.signature for cls in classes
        )
        classified = _batch.classify_batch(columns)
        estimates = _batch.price_batch(
            columns, n=n, area_model=area_model, config_model=config_model
        )
        points = []
        for index, cls in enumerate(classes):
            assert cls.name is not None
            points.append(
                DesignPoint(
                    name=cls.name.short,
                    serial=cls.serial,
                    machine_type=cls.name.machine_type,
                    flexibility=int(classified.flexibility[index]),
                    area_ge=float(estimates.area_ge[index]),
                    config_bits=int(estimates.config_bits[index]),
                    n=n,
                )
            )
        return points


def evaluate_classes(
    *,
    n: int = 16,
    area_model: "AreaModel | None" = None,
    config_model: "ConfigBitsModel | None" = None,
    classes: "tuple[TaxonomyClass, ...] | None" = None,
    jobs: int = 1,
    executor: str = "process",
    on_error: str = "raise",
    timeout_s: "float | None" = None,
    resume: bool = False,
    checkpoint_dir: "str | None" = None,
    workers: "str | None" = None,
    fabric_options: "Mapping[str, Any] | None" = None,
    batch_kernel: bool = True,
) -> list[DesignPoint]:
    """Evaluate Eq. 1 and Eq. 2 for every (given) implementable class.

    ``jobs``/``executor`` fan the per-class model evaluation out through
    :func:`repro.perf.sweep`; results are identical (and identically
    ordered) for any job count. Custom models get a private cache so the
    shared one never mixes parameter sets. ``on_error``/``timeout_s``
    set the engine's failure policy (failed classes are dropped from the
    result), and ``resume=True`` journals completed classes so an
    interrupted evaluation restarts where it stopped.

    ``workers`` (``"HOST:PORT,HOST:PORT"``) routes the sweep through the
    distributed fabric (:func:`repro.perf.fabric_sweep`); the journal
    then shards by point index so any worker mix resumes bit-exactly.
    ``fabric_options`` forwards extra keyword arguments to
    :func:`~repro.perf.fabric_sweep` (``max_lease_size``,
    ``membership``, ``listen``, …) — scheduling knobs only, never
    artifact-affecting.

    ``batch_kernel=True`` (the default) routes plain single-job
    evaluations through the vectorized :mod:`repro.core.batch` kernel —
    results are bit-identical either way, and
    anything the kernel cannot serve exactly (custom per-site switch
    models, resumable/parallel/fault-tolerant sweeps) silently uses the
    scalar path.
    """
    cache = (
        None
        if area_model is None and config_model is None
        else ModelCache(area_model=area_model, config_model=config_model)
    )
    chosen = classes if classes is not None else implementable_classes()
    implementable = [cls for cls in chosen if cls.implementable]
    if (
        batch_kernel
        and jobs == 1
        and workers is None
        and not resume
        and on_error == "raise"
        and timeout_s is None
    ):
        points = _evaluate_classes_kernel(
            implementable, n=n, area_model=area_model, config_model=config_model
        )
        if points is not None:
            return points
    worker = functools.partial(_design_point, n=n, cache=cache)
    checkpoint = None
    if resume:
        spec = {
            "n": n,
            "classes": [cls.serial for cls in implementable],
            "models": [repr(area_model), repr(config_model)],
        }
        opener = ShardedCheckpoint if workers else SweepCheckpoint
        checkpoint = opener.open("classes", spec, directory=checkpoint_dir)
    chosen_executor = "serial" if jobs == 1 else executor
    try:
        with _trace.span("analysis.evaluate_classes", classes=len(implementable), n=n, jobs=jobs):
            if workers:
                result = fabric_sweep(
                    worker,
                    implementable,
                    workers=workers,
                    on_error=on_error,
                    timeout_s=timeout_s,
                    checkpoint=checkpoint,
                    fallback_executor=chosen_executor,
                    fallback_jobs=jobs,
                    **dict(fabric_options or {}),
                )
            else:
                result = sweep(
                    worker,
                    implementable,
                    executor=chosen_executor,
                    jobs=jobs,
                    on_error=on_error,
                    timeout_s=timeout_s,
                    checkpoint=checkpoint,
                )
    finally:
        if checkpoint is not None:
            checkpoint.close()
    return [point for point in result if point is not None]


def pareto_frontier(points: "list[DesignPoint]") -> list[DesignPoint]:
    """Non-dominated subset, sorted by flexibility then area.

    Comparisons respect the paper's caveat: data-flow and
    instruction-flow points never dominate each other (their flexibility
    values are incommensurable); universal-flow points compare against
    everything.
    """
    def comparable(a: DesignPoint, b: DesignPoint) -> bool:
        if MachineType.UNIVERSAL_FLOW in (a.machine_type, b.machine_type):
            return True
        return a.machine_type is b.machine_type

    frontier = [
        p
        for p in points
        if not any(
            other.dominates(p)
            for other in points
            if other is not p and comparable(other, p)
        )
    ]
    frontier.sort(key=lambda p: (p.flexibility, p.area_ge, p.config_bits))
    return frontier
