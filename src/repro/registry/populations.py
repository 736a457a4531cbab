"""Seeded synthetic signature populations for the batch kernel.

The batch-classification kernel (:mod:`repro.core.batch`) earns its keep
on *populations* — thousands to millions of signatures stepped as
structure-of-arrays columns — but the survey only supplies 25 machines.
This module manufactures arbitrarily large, **deterministic** synthetic
populations:

* ``stratified`` mode walks the 47 Table-I classes round-robin in serial
  order, so every class (including the four NI rows) is represented and
  class shares are uniform to within one signature;
* ``uniform`` mode samples uniformly over the 406 *constructible*
  structural combinations (every valid point of the
  4 x 4 x 3^5 signature space), exercising structure the class table
  collapses — e.g. direct links at sites where only switches change the
  class.

Either way, plural populations are decorated with concrete counts drawn
from the seeded generator, so pricing sees a realistic mix of symbolic
(``n``/``v``) and fixed-size machines.

Determinism contract: the same :class:`PopulationSpec` always yields the
same signatures, byte for byte, on every platform — generation uses one
``random.Random(seed)`` stream consumed in a fixed per-row order, which
the determinism tests pin.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

from repro.core.batch import (
    SignatureBatch,
    signature_index,
    struct_ranks,
    structural_signature,
    valid_structures,
)
from repro.core.classify import canonical_class
from repro.core.components import ComponentCount, Multiplicity
from repro.core.errors import ReproError
from repro.core.signature import Signature
from repro.core.taxonomy import all_classes, class_by_serial
from repro.reporting.tables import format_table

__all__ = [
    "POPULATION_MODES",
    "PopulationSpec",
    "generate_signatures",
    "generate_batch",
    "class_occupancy",
    "describe_population",
]

#: Supported sampling strategies.
POPULATION_MODES: tuple[str, ...] = ("stratified", "uniform")

#: Largest concrete population a generated machine may declare; matches
#: the serve layer's design-size admission cap (MAX_DESIGN_N).
MAX_POPULATION_N: int = 4096


@dataclass(frozen=True)
class PopulationSpec:
    """A reproducible recipe for one synthetic population.

    ``size`` signatures are drawn with the strategy named by ``mode``
    (see :data:`POPULATION_MODES`); plural (``n``) and variable (``v``)
    processor populations receive a concrete count in ``2..max_n`` /
    ``1..max_n`` with probability ``value_probability``, otherwise they
    stay symbolic. Equal specs generate equal populations.
    """

    size: int
    seed: int = 0
    mode: str = "stratified"
    max_n: int = 256
    value_probability: float = 0.5

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ReproError("population size must be non-negative")
        if self.mode not in POPULATION_MODES:
            raise ReproError(
                f"unknown population mode {self.mode!r}; "
                f"expected one of {', '.join(POPULATION_MODES)}"
            )
        if not 2 <= self.max_n <= MAX_POPULATION_N:
            raise ReproError(f"max_n must lie in 2..{MAX_POPULATION_N}")
        if not 0.0 <= self.value_probability <= 1.0:
            raise ReproError("value_probability must lie in 0..1")


def _decorated_count(
    count: ComponentCount, rng: random.Random, spec: PopulationSpec
) -> ComponentCount:
    """Maybe attach a concrete value to a plural/variable population.

    The generator always consumes exactly one ``random()`` draw per
    plural population (and one ``randint`` when a value is attached), so
    the stream position — and hence every later row — is a pure function
    of the spec.
    """
    multiplicity = count.multiplicity
    if multiplicity is Multiplicity.MANY:
        if rng.random() < spec.value_probability:
            return ComponentCount(multiplicity, rng.randint(2, spec.max_n))
        return count
    if multiplicity is Multiplicity.VARIABLE:
        if rng.random() < spec.value_probability:
            return ComponentCount(multiplicity, rng.randint(1, spec.max_n))
        return count
    return count


def generate_signatures(spec: PopulationSpec) -> tuple[Signature, ...]:
    """Generate the population as scalar :class:`Signature` objects."""
    rng = random.Random(spec.seed)
    if spec.mode == "stratified":
        structures: Sequence[tuple[int, int, Sequence[int]]] = [
            struct_ranks(signature_index(cls.signature)) for cls in all_classes()
        ]
    else:
        structures = valid_structures()
    out: list[Signature] = []
    for row in range(spec.size):
        if spec.mode == "stratified":
            ips_rank, dps_rank, kinds = structures[row % len(structures)]
        else:
            ips_rank, dps_rank, kinds = structures[rng.randrange(len(structures))]
        base = structural_signature(ips_rank, dps_rank, kinds)
        out.append(
            replace(
                base,
                ips=_decorated_count(base.ips, rng, spec),
                dps=_decorated_count(base.dps, rng, spec),
            )
        )
    return tuple(out)


def generate_batch(spec: PopulationSpec) -> SignatureBatch:
    """Generate the population directly as kernel-ready SoA columns.

    The rows are exactly ``generate_signatures(spec)`` in order.
    """
    return SignatureBatch.from_signatures(generate_signatures(spec))


def class_occupancy(signatures: Iterable[Signature]) -> dict[int, int]:
    """Count population members per Table-I class serial (ascending)."""
    counts: dict[int, int] = {}
    for signature in signatures:
        serial = canonical_class(signature).serial
        counts[serial] = counts.get(serial, 0) + 1
    return dict(sorted(counts.items()))


def describe_population(signatures: Sequence[Signature]) -> str:
    """Render a per-class occupancy table for a generated population."""
    counts = class_occupancy(signatures)
    total = len(signatures)
    rows = []
    for serial, count in counts.items():
        cls = class_by_serial(serial)
        share = f"{count / total:.1%}" if total else "-"
        rows.append((str(serial), cls.comment, str(count), share))
    table = format_table(("Serial", "Class", "Count", "Share"), rows)
    return f"{table}\n{total} signatures across {len(counts)} of 47 classes"
