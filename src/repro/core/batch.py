"""Columnar batch classification: the taxonomy compiled to flat tables.

Every decision :func:`repro.core.classify.canonical_class` and
:func:`repro.core.flexibility.score_signature` make depends on exactly
seven small integers — the IP and DP multiplicity ranks (0..3) and the
five link-kind ranks (0..2) in Table-I column order. That makes the
whole 47-class decision logic a function over a **structural space** of
``4 x 4 x 3^5 = 3888`` combinations, most of which the signature
validator rejects. :func:`compile_taxonomy` enumerates that space once,
runs the *scalar* classifier over every constructible combination, and
stores the answers in flat NumPy tables; classifying a population is
then one gather per column instead of a Python branch tree per machine.

Populations travel as :class:`SignatureBatch` — structure-of-arrays
columns (multiplicity ranks, link kinds, optional concrete counts) —
and two vectorized passes cover the paper's pipeline:

* :func:`classify_batch` — Table-I serial, implementability and
  Table-II flexibility for every row;
* :func:`price_batch` — Eq.-1 area (gate equivalents) and Eq.-2
  configuration bits for every row at a per-row design size.

**Parity contract.** Both passes are bit-exact against the scalar path,
not merely close: classification and flexibility come out of tables
*built by the scalar classifier itself*, and the pricing pass groups
rows by structure and replays the scalar models' exact floating-point
association order per group (integer Eq.-2 terms are exact anyway).
``tests/core/test_batch.py`` enforces ``==`` — including float
equality — over the full survey and hypothesis-random signatures.

The kernel degrades loudly, not wrongly: model configurations it
cannot reproduce bit-exactly (per-site ``switch_models`` overrides) are
refused via :func:`kernel_supports` and :class:`KernelUnavailableError`
rather than approximated.

**Render rows.** A ``/v1/classify`` answer, bar its echoed cells, is a
function of the structure too: :func:`render_row` renders it once per
structure, lazily on first use, from the scalar classifier's own
objects and ``explain()`` text.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Iterable, Iterator, Sequence

import numpy as _np

from repro.core.classify import Classification, canonical_class, classify
from repro.core.components import ComponentCount, Granularity, Multiplicity
from repro.core.connectivity import LINK_SITES, Link, LinkKind, LinkSite
from repro.core.errors import ClassificationError, ReproError, SignatureError
from repro.core.flexibility import FlexibilityScore, score_signature
from repro.core.signature import Signature
from repro.core.taxonomy import TaxonomyClass, class_by_serial

__all__ = [
    "STRUCT_SPACE",
    "KernelUnavailableError",
    "CompiledTaxonomy",
    "compile_taxonomy",
    "SignatureBatch",
    "BatchClassification",
    "BatchEstimates",
    "classify_batch",
    "price_batch",
    "kernel_supports",
    "RenderRow",
    "render_row",
    "signature_index",
    "struct_ranks",
    "structural_signature",
    "valid_structures",
]

#: Size of the structural space: 4 IP ranks x 4 DP ranks x 3^5 link kinds.
STRUCT_SPACE: int = 4 * 4 * 3**5

_MULTIPLICITIES: tuple[Multiplicity, ...] = (
    Multiplicity.ZERO,
    Multiplicity.ONE,
    Multiplicity.MANY,
    Multiplicity.VARIABLE,
)
_KINDS: tuple[LinkKind, ...] = (LinkKind.NONE, LinkKind.DIRECT, LinkKind.SWITCHED)

#: Which population each link-site endpoint renders from (True = IPs).
_SITE_ENDPOINTS: dict[LinkSite, tuple[bool, bool]] = {
    LinkSite.IP_IP: (True, True),
    LinkSite.IP_DP: (True, False),
    LinkSite.IP_IM: (True, True),
    LinkSite.DP_DM: (False, False),
    LinkSite.DP_DP: (False, False),
}


class KernelUnavailableError(ReproError):
    """Raised for model configurations the kernel cannot price bit-exactly."""


def struct_index(ips_rank: int, dps_rank: int, kinds: Sequence[int]) -> int:
    """Flatten (IP rank, DP rank, five link-kind ranks) into a table index."""
    index = ips_rank * 4 + dps_rank
    for kind in kinds:
        index = index * 3 + kind
    return index


def signature_index(signature: Signature) -> int:
    """The :func:`struct_index` of one scalar :class:`Signature`."""
    index = signature.ips.multiplicity.rank * 4 + signature.dps.multiplicity.rank
    for link in (
        signature.ip_ip, signature.ip_dp, signature.ip_im, signature.dp_dm, signature.dp_dp
    ):
        index = index * 3 + link.kind.rank
    return index


def struct_ranks(index: Any) -> "tuple[Any, Any, list[Any]]":
    """Invert :func:`struct_index`: ``(ips_rank, dps_rank, kinds)``.

    Works element-wise on integer arrays as well as on plain ints.
    """
    kinds = []
    for _ in range(5):
        kinds.append(index % 3)
        index = index // 3
    kinds.reverse()
    return index // 4, index % 4, kinds


def structural_signature(
    ips_rank: int, dps_rank: int, kinds: Sequence[int]
) -> Signature:
    """Build the canonical :class:`Signature` of one structural combination.

    Granularity is implied (the validator forces FINE exactly when a
    population is variable), endpoint symbols are the multiplicity
    letters, and no concrete counts are attached. Raises
    :class:`SignatureError` for combinations the validator rejects.
    """
    ips = _MULTIPLICITIES[ips_rank]
    dps = _MULTIPLICITIES[dps_rank]
    granularity = (
        Granularity.FINE
        if Multiplicity.VARIABLE in (ips, dps)
        else Granularity.COARSE
    )
    links: dict[str, Link] = {}
    for site, kind_rank in zip(LINK_SITES, kinds):
        kind = _KINDS[kind_rank]
        if kind is LinkKind.NONE:
            link = Link.none()
        else:
            left_is_ip, right_is_ip = _SITE_ENDPOINTS[site]
            link = Link(
                kind,
                (ips if left_is_ip else dps).value,
                (ips if right_is_ip else dps).value,
            )
        links[site.label.lower().replace("-", "_")] = link
    return Signature(
        granularity=granularity,
        ips=ComponentCount(ips),
        dps=ComponentCount(dps),
        **links,
    )


def _iter_structures() -> Iterator[tuple[int, int, int, tuple[int, ...]]]:
    """Yield ``(index, ips_rank, dps_rank, kinds)`` over the whole space."""
    for ips_rank in range(4):
        for dps_rank in range(4):
            for kinds in itertools.product(range(3), repeat=5):
                yield struct_index(ips_rank, dps_rank, kinds), ips_rank, dps_rank, kinds


@lru_cache(maxsize=1)
def valid_structures() -> tuple[tuple[int, int, tuple[int, ...]], ...]:
    """Every constructible ``(ips_rank, dps_rank, kinds)`` combination.

    Pure Python (no NumPy needed) — this is the sample space of the
    synthetic population generator as well as the row set of the
    compiled tables.
    """
    valid: list[tuple[int, int, tuple[int, ...]]] = []
    for _, ips_rank, dps_rank, kinds in _iter_structures():
        try:
            structural_signature(ips_rank, dps_rank, kinds)
        except SignatureError:
            continue
        valid.append((ips_rank, dps_rank, kinds))
    return tuple(valid)


@dataclass(frozen=True)
class CompiledTaxonomy:
    """The 47-class decision logic lowered to flat per-structure tables.

    Every array has :data:`STRUCT_SPACE` entries, indexed by
    :func:`struct_index`. Invalid structures carry ``valid=False`` and
    zeros elsewhere. The tables are *derived from the scalar
    classifier* at compile time, which is what makes table lookups
    bit-exact by construction.
    """

    valid: "object"
    serial: "object"
    implementable: "object"
    flexibility: "object"


@lru_cache(maxsize=1)
def compile_taxonomy() -> CompiledTaxonomy:
    """Enumerate the structural space once and freeze the scalar answers.

    For each of the 3888 combinations the scalar validator decides
    constructibility, then :func:`~repro.core.classify.canonical_class`
    and :func:`~repro.core.flexibility.score_signature` fill the row.
    The result is cached for the process lifetime.
    """
    valid = _np.zeros(STRUCT_SPACE, dtype=bool)
    serial = _np.zeros(STRUCT_SPACE, dtype=_np.int16)
    implementable = _np.zeros(STRUCT_SPACE, dtype=bool)
    flexibility = _np.zeros(STRUCT_SPACE, dtype=_np.int16)
    for index, ips_rank, dps_rank, kinds in _iter_structures():
        try:
            signature = structural_signature(ips_rank, dps_rank, kinds)
            taxonomy_class = canonical_class(signature)
        except (SignatureError, ClassificationError):
            continue
        valid[index] = True
        serial[index] = taxonomy_class.serial
        implementable[index] = taxonomy_class.implementable
        flexibility[index] = score_signature(signature).total
    return CompiledTaxonomy(
        valid=valid, serial=serial, implementable=implementable, flexibility=flexibility
    )


@dataclass(frozen=True, slots=True)
class RenderRow:
    """One structure's scalar class and score, and its classify answer bar the cells.

    ``explain_tail`` is ``Classification.explain()`` minus its leading
    ``structure: ...`` line, the only line that echoes the cells.
    """

    taxonomy_class: TaxonomyClass
    score: FlexibilityScore
    class_block: "dict[str, Any]"
    flexibility: int
    switched_sites: tuple[str, ...]
    explain_tail: str


#: Render rows by structure index, filled on first use. Two threads
#: racing on one structure both render it; the rows are equal.
_RENDER_ROWS: dict[int, RenderRow] = {}


def render_row(index: int) -> RenderRow:
    """The :class:`RenderRow` of structure ``index`` (see :func:`struct_index`).

    Built by the scalar classifier from the structure's canonical
    signature, so a gathered payload equals the scalar one by
    construction. Raises :class:`SignatureError` for an invalid structure.
    """
    row = _RENDER_ROWS.get(index)
    if row is None:
        result = classify(structural_signature(*struct_ranks(index)))
        _, _, tail = result.explain().partition("\n")
        name = result.name
        row = _RENDER_ROWS[index] = RenderRow(
            taxonomy_class=result.taxonomy_class,
            score=result.score,
            class_block={
                "serial": result.taxonomy_class.serial,
                "short_name": result.short_name,
                "name": None if name is None else name.long,
                "implementable": result.implementable,
            },
            flexibility=result.flexibility,
            switched_sites=tuple(site.label for site in result.score.switched_sites),
            explain_tail=tail,
        )
    return row


@dataclass(frozen=True)
class SignatureBatch:
    """A population of signatures as structure-of-arrays columns.

    Columns (all length N): ``ips_rank``/``dps_rank`` are multiplicity
    ranks (uint8, 0..3), ``kinds`` is an ``(N, 5)`` uint8 matrix of
    link-kind ranks in Table-I column order, and ``ips_value`` /
    ``dps_value`` hold concrete populations as int64 with ``-1``
    meaning "symbolic" (resolved against the design size ``n`` at
    pricing time, exactly like
    :meth:`repro.core.components.ComponentCount.resolve`).
    """

    ips_rank: "object"
    dps_rank: "object"
    kinds: "object"
    ips_value: "object"
    dps_value: "object"

    def __len__(self) -> int:
        return int(self.ips_rank.shape[0])

    @classmethod
    def from_signatures(cls, signatures: Iterable[Signature]) -> "SignatureBatch":
        """Columnize scalar :class:`Signature` objects (always valid rows)."""
        rows = list(signatures)
        count = len(rows)
        index = _np.fromiter(map(signature_index, rows), dtype=_np.int64, count=count)
        ips_rank, dps_rank, kinds = struct_ranks(index)
        ips_value = _np.fromiter(
            (-1 if sig.ips.value is None else sig.ips.value for sig in rows),
            dtype=_np.int64,
            count=count,
        )
        dps_value = _np.fromiter(
            (-1 if sig.dps.value is None else sig.dps.value for sig in rows),
            dtype=_np.int64,
            count=count,
        )
        return cls(
            ips_rank=ips_rank.astype(_np.uint8),
            dps_rank=dps_rank.astype(_np.uint8),
            kinds=_np.stack(kinds, axis=1).astype(_np.uint8),
            ips_value=ips_value,
            dps_value=dps_value,
        )

    @classmethod
    def from_columns(
        cls,
        ips_rank: "object",
        dps_rank: "object",
        kinds: "object",
        ips_value: "object | None" = None,
        dps_value: "object | None" = None,
    ) -> "SignatureBatch":
        """Build a batch from raw columns, validating every row.

        Rank bounds, kind bounds, structural validity (against the
        compiled tables) and value/multiplicity consistency are all
        checked; a bad row raises :class:`SignatureError` naming its
        index, mirroring what the scalar constructor would have raised.
        """
        ips = _np.ascontiguousarray(ips_rank, dtype=_np.int64)
        dps = _np.ascontiguousarray(dps_rank, dtype=_np.int64)
        kind_matrix = _np.ascontiguousarray(kinds, dtype=_np.int64)
        count = ips.shape[0]
        if dps.shape != (count,) or kind_matrix.shape != (count, 5):
            raise SignatureError(
                "column shapes disagree: expected ips_rank (N,), dps_rank (N,), kinds (N, 5)"
            )
        iv = (
            _np.full(count, -1, dtype=_np.int64)
            if ips_value is None
            else _np.ascontiguousarray(ips_value, dtype=_np.int64)
        )
        dv = (
            _np.full(count, -1, dtype=_np.int64)
            if dps_value is None
            else _np.ascontiguousarray(dps_value, dtype=_np.int64)
        )
        if iv.shape != (count,) or dv.shape != (count,):
            raise SignatureError("value columns must have shape (N,)")
        if count and (
            ips.min() < 0 or ips.max() > 3 or dps.min() < 0 or dps.max() > 3
        ):
            raise SignatureError("multiplicity ranks must lie in 0..3")
        if count and (kind_matrix.min() < 0 or kind_matrix.max() > 2):
            raise SignatureError("link-kind ranks must lie in 0..2")
        batch = cls(
            ips_rank=ips.astype(_np.uint8),
            dps_rank=dps.astype(_np.uint8),
            kinds=kind_matrix.astype(_np.uint8),
            ips_value=iv,
            dps_value=dv,
        )
        tables = compile_taxonomy()
        bad = _np.nonzero(~tables.valid[batch.struct_index()])[0]
        if bad.size:
            row = int(bad[0])
            raise SignatureError(
                f"row {row} encodes an unconstructible structure "
                f"(ips rank {int(ips[row])}, dps rank {int(dps[row])}, "
                f"kinds {kind_matrix[row].tolist()})"
            )
        for label, ranks, values in (("ips", ips, iv), ("dps", dps, dv)):
            concrete = values >= 0
            expected = _np.minimum(values, 2)  # 0->0, 1->1, >=2 -> MANY rank
            mismatched = concrete & (ranks != 3) & (ranks != expected)
            if mismatched.any():
                row = int(_np.nonzero(mismatched)[0][0])
                raise SignatureError(
                    f"row {row}: {label} count {int(values[row])} is inconsistent "
                    f"with multiplicity rank {int(ranks[row])}"
                )
        return batch

    def struct_index(self) -> "object":
        """Per-row :func:`struct_index` into the compiled tables (int64)."""
        index = self.ips_rank.astype(_np.int64) * 4 + self.dps_rank
        for column in range(5):
            index = index * 3 + self.kinds[:, column]
        return index

    def resolve_populations(self, n: "object") -> "tuple[object, object]":
        """Resolved (n_ip, n_dp) per row: concrete value, else 0/1/``n``.

        ``n`` may be a scalar or a per-row array, matching
        :meth:`~repro.core.components.ComponentCount.resolve` row-wise.
        """
        default = _np.broadcast_to(
            _np.asarray(n, dtype=_np.int64), (len(self),)
        )
        resolved = []
        for ranks, values in (
            (self.ips_rank, self.ips_value),
            (self.dps_rank, self.dps_value),
        ):
            symbolic = _np.where(ranks == 0, 0, _np.where(ranks == 1, 1, default))
            resolved.append(_np.where(values >= 0, values, symbolic))
        return resolved[0], resolved[1]

    def signature(self, row: int) -> Signature:
        """Reconstruct the scalar :class:`Signature` of one row."""
        ips = _MULTIPLICITIES[int(self.ips_rank[row])]
        dps = _MULTIPLICITIES[int(self.dps_rank[row])]
        base = structural_signature(
            int(self.ips_rank[row]),
            int(self.dps_rank[row]),
            [int(k) for k in self.kinds[row]],
        )
        iv = int(self.ips_value[row])
        dv = int(self.dps_value[row])
        if iv < 0 and dv < 0:
            return base
        from dataclasses import replace

        return replace(
            base,
            ips=ComponentCount(ips, None if iv < 0 else iv),
            dps=ComponentCount(dps, None if dv < 0 else dv),
        )

    def signatures(self) -> Iterator[Signature]:
        """Iterate the batch back out as scalar signatures (row order)."""
        for row in range(len(self)):
            yield self.signature(row)


@dataclass(frozen=True)
class BatchClassification:
    """Vectorized classification results for one :class:`SignatureBatch`.

    Arrays are row-aligned with the batch; ``structure`` holds each
    row's :func:`struct_index`. The scalar accessors (:meth:`score`,
    :meth:`taxonomy_class`, :meth:`classification`) return the exact
    objects the scalar path would have produced — same cached
    :class:`~repro.core.taxonomy.TaxonomyClass` instances,
    field-identical :class:`~repro.core.flexibility.FlexibilityScore`.
    """

    serial: "object"
    implementable: "object"
    flexibility: "object"
    structure: "object"

    def __len__(self) -> int:
        return int(self.serial.shape[0])

    def taxonomy_class(self, row: int) -> TaxonomyClass:
        """The row's Table-I class (the shared cached instance)."""
        return class_by_serial(int(self.serial[row]))

    def score(self, row: int) -> FlexibilityScore:
        """The row's itemised :class:`FlexibilityScore` (its :func:`render_row`'s)."""
        return render_row(int(self.structure[row])).score

    def classification(self, row: int, signature: Signature) -> Classification:
        """A scalar :class:`~repro.core.classify.Classification` for one row.

        Its class and score are the row's structure's
        :func:`render_row` objects, shared by every row of that structure.
        """
        rendered = render_row(int(self.structure[row]))
        return Classification(
            signature=signature,
            taxonomy_class=rendered.taxonomy_class,
            score=rendered.score,
        )


def classify_batch(batch: SignatureBatch) -> BatchClassification:
    """Classify and flexibility-score a whole batch via table gathers."""
    tables = compile_taxonomy()
    index = batch.struct_index()
    invalid = _np.nonzero(~tables.valid[index])[0]
    if invalid.size:
        raise SignatureError(
            f"batch row {int(invalid[0])} encodes an unconstructible structure"
        )
    return BatchClassification(
        serial=tables.serial[index],
        implementable=tables.implementable[index],
        flexibility=tables.flexibility[index],
        structure=index,
    )


@dataclass(frozen=True)
class BatchEstimates:
    """Vectorized Eq.-1 / Eq.-2 results, row-aligned with the batch."""

    area_ge: "object"
    config_bits: "object"

    def __len__(self) -> int:
        return int(self.area_ge.shape[0])


def kernel_supports(area_model=None, config_model=None) -> bool:
    """Whether the kernel can price these model configurations bit-exactly.

    Per-site ``switch_models`` overrides are refused (their cost
    functions are arbitrary Python); custom
    :class:`~repro.models.area.ComponentAreas` /
    :class:`~repro.models.configbits.ComponentConfigWords`, datapath
    widths and the ``reconfigurable_components`` flag are all supported.
    """
    for model in (area_model, config_model):
        if model is not None and getattr(model, "switch_models", None):
            return False
    return True


def _ceil_log2_array(values: "object") -> "object":
    """Vectorized ``ceil(log2(v))`` with values <= 1 costing 0 bits.

    For ``v > 1`` this is ``bit_length(v - 1)``, recovered exactly from
    the float64 exponent (``frexp``) — identical to the scalar
    :func:`repro.models.switches._ceil_log2` over the kernel's domain.
    """
    shifted = _np.maximum(values - 1, 1).astype(_np.float64)
    exponents = _np.frexp(shifted)[1].astype(_np.int64)
    return _np.where(values <= 1, 0, exponents)


def _site_ports(
    site_column: int, n_ip: "object", n_dp: "object"
) -> "tuple[object, object]":
    """Per-row (inputs, outputs) for one link site (memories pair 1:1)."""
    site = LINK_SITES[site_column]
    ports = {
        LinkSite.IP_IP: (n_ip, n_ip),
        LinkSite.IP_DP: (n_ip, n_dp),
        LinkSite.IP_IM: (n_ip, n_ip),
        LinkSite.DP_DM: (n_dp, n_dp),
        LinkSite.DP_DP: (n_dp, n_dp),
    }
    return ports[site]


def _area_group(
    ips_rank: int,
    kinds: Sequence[int],
    n_ip: "object",
    n_dp: "object",
    is_universal: bool,
    areas,
    width_bits: int,
) -> "object":
    """Eq.-1 logic area for one structure group, scalar op order replayed."""
    if is_universal:
        from repro.models.area import _CELLS_PER_SOFT_DP, _CELLS_PER_SOFT_IP

        ip_logic = n_ip * areas.lut_cell_ge * _CELLS_PER_SOFT_IP
        dp_logic = n_dp * areas.lut_cell_ge * _CELLS_PER_SOFT_DP
    else:
        ip_logic = n_ip * areas.ip_ge
        dp_logic = n_dp * areas.dp_ge
    if ips_rank == 0:  # data-flow: Eq. 1 ignores the IP terms
        ip_logic = _np.zeros_like(n_ip, dtype=_np.float64)
    switch_sum = _np.zeros_like(n_ip, dtype=_np.float64)
    for column, kind in enumerate(kinds):
        if kind == 0:
            continue
        inputs, outputs = _site_ports(column, n_ip, n_dp)
        if kind == 1:  # direct wiring: DirectLinkModel.area_ge
            term = _np.maximum(inputs, outputs) * width_bits * 0.5
        else:  # full crossbar: FullCrossbarModel.area_ge
            mux_cells = _np.maximum(inputs - 1, 1)
            term = _np.where(
                (inputs == 0) | (outputs == 0),
                0.0,
                outputs * mux_cells * width_bits * 3.0,
            )
        switch_sum = switch_sum + term
    return (ip_logic + dp_logic) + switch_sum


def _config_group(
    ips_rank: int,
    kinds: Sequence[int],
    n_ip: "object",
    n_dp: "object",
    is_universal: bool,
    words,
    width_bits: int,
    reconfigurable: bool,
) -> "object":
    """Eq.-2 configuration bits for one structure group (exact ints)."""
    if is_universal:
        from repro.models.area import _CELLS_PER_SOFT_DP, _CELLS_PER_SOFT_IP

        cell_cw = words.lut_cell_cw
        ip_bits = n_ip * _CELLS_PER_SOFT_IP * cell_cw
        dp_bits = n_dp * _CELLS_PER_SOFT_DP * cell_cw
        im_bits = n_ip * words.im_cw
        dm_bits = n_dp * words.dm_cw
    elif reconfigurable:
        ip_bits = n_ip * words.ip_cw
        dp_bits = n_dp * words.dp_cw
        im_bits = n_ip * words.im_cw
        dm_bits = n_dp * words.dm_cw
    else:
        zero = _np.zeros_like(n_ip)
        ip_bits = dp_bits = im_bits = dm_bits = zero
    if ips_rank == 0:  # data-flow: no IP, no IM
        zero = _np.zeros_like(n_ip)
        ip_bits = zero
        im_bits = zero
    total = ip_bits + dp_bits + im_bits + dm_bits
    for column, kind in enumerate(kinds):
        if kind != 2:  # direct wiring has nothing to configure
            continue
        inputs, outputs = _site_ports(column, n_ip, n_dp)
        bits = outputs * _ceil_log2_array(inputs + 1)
        total = total + _np.where((inputs == 0) | (outputs == 0), 0, bits)
    return total


def price_batch(
    batch: SignatureBatch,
    *,
    n: "int | object" = 16,
    area_model=None,
    config_model=None,
) -> BatchEstimates:
    """Eq.-1 area and Eq.-2 config bits for every row, bit-exact.

    ``n`` substitutes for symbolic populations and may be a scalar or a
    per-row array (the survey prices each record at its own size). Rows
    are grouped by structure; within a group the scalar models' exact
    operation order is replayed over the resolved population arrays, so
    every float matches :meth:`repro.models.area.AreaModel.total_ge`
    and every int matches
    :meth:`repro.models.configbits.ConfigBitsModel.total` to the bit.
    Raises :class:`KernelUnavailableError` for unsupported model
    configurations (see :func:`kernel_supports`).
    """
    from repro.models.area import AreaModel
    from repro.models.configbits import ConfigBitsModel

    area = area_model if area_model is not None else AreaModel()
    config = config_model if config_model is not None else ConfigBitsModel()
    if area.switch_models or config.switch_models:
        raise KernelUnavailableError(
            "per-site switch_models overrides are not supported by the batch "
            "kernel; use the scalar models"
        )
    count = len(batch)
    sizes = _np.broadcast_to(_np.asarray(n, dtype=_np.int64), (count,))
    if count and sizes.min() <= 0:
        raise ValueError("n must be positive")
    n_ip, n_dp = batch.resolve_populations(sizes)
    index = batch.struct_index()
    area_out = _np.empty(count, dtype=_np.float64)
    bits_out = _np.empty(count, dtype=_np.int64)
    unique, inverse = _np.unique(index, return_inverse=True)
    for group, structure in enumerate(unique):
        rows = _np.nonzero(inverse == group)[0]
        ips_rank, dps_rank, kinds = struct_ranks(int(structure))
        is_universal = 3 in (ips_rank, dps_rank)
        g_ip = n_ip[rows]
        g_dp = n_dp[rows]
        area_out[rows] = _area_group(
            ips_rank, kinds, g_ip, g_dp, is_universal, area.areas, area.width_bits
        )
        bits_out[rows] = _config_group(
            ips_rank,
            kinds,
            g_ip,
            g_dp,
            is_universal,
            config.words,
            config.width_bits,
            config.reconfigurable_components,
        )
    return BatchEstimates(area_ge=area_out, config_bits=bits_out)
