"""Render rows and memoized cell parsing against independent renderings.

A ``/v1/classify`` payload is gathered from its structure's
:func:`repro.core.batch.render_row` plus one ``describe()`` string, and
wire cells are parsed through bounded memos. These tests rebuild every
payload independently — from the :class:`Signature` fields and the
scalar :meth:`Classification.explain` — for all 406 constructible
structures in three token spellings, the 47 Table-I classes and the
Table-III survey, through both the scalar and the batch classifier.
"""

import subprocess
import sys

import pytest

from repro.core.batch import SignatureBatch, classify_batch, valid_structures
from repro.core.classify import classify
from repro.core.components import COUNT_MEMO_SIZE, ComponentCount, _parse_count
from repro.core.connectivity import LINK_MEMO_SIZE, LINK_SITES, Link, _parse_cell
from repro.core.errors import ClassificationError, SignatureError
from repro.core.signature import make_signature
from repro.serve.router import Request, TaxonomyService
from repro.serve.validation import stable_json
from tests.golden.paper_data import TABLE1, TABLE3

#: Classify request fields in Table-I column order (paper_data's order).
_FIELDS = ("ips", "dps", "ip-ip", "ip-dp", "ip-im", "dp-dm", "dp-dp")

#: Which population each link site's (left, right) endpoint belongs to.
_SITE_SIDES = {
    "ip-ip": ("ips", "ips"),
    "ip-dp": ("ips", "dps"),
    "ip-im": ("ips", "ips"),
    "dp-dm": ("dps", "dps"),
    "dp-dp": ("dps", "dps"),
}

#: Count tokens per multiplicity rank (0, 1, n, v) for each spelling.
_COUNT_TOKENS = {
    "symbolic": {"ips": ("0", "1", "n", "v"), "dps": ("0", "1", "n", "v")},
    "concrete": {"ips": ("0", "1", "12", "v"), "dps": ("0", "1", "64", "v")},
    "non-canonical": {"ips": ("0", " 1 ", "24xn", "V"), "dps": ("0", "1", " 64 ", "v")},
}

#: Non-canonical cells: (direct, switched) spellings cycled over the sites.
_ODD_CELLS = ((" 24n - 1 ", "nx14"), ("1-24n", " 64 x 64 "), ("n - n", "24nx24n"))


def structure_item(ips_rank, dps_rank, kinds, spelling):
    """One structure as classify request fields in the given spelling."""
    tokens = _COUNT_TOKENS[spelling]
    item = {"ips": tokens["ips"][ips_rank], "dps": tokens["dps"][dps_rank]}
    ranks = {"ips": ips_rank, "dps": dps_rank}
    for column, (site, kind) in enumerate(zip(_SITE_SIDES, kinds)):
        if kind == 0:
            continue
        if spelling == "non-canonical":
            item[site] = _ODD_CELLS[column % len(_ODD_CELLS)][kind - 1]
        else:
            left, right = (tokens[side][ranks[side]].strip() for side in _SITE_SIDES[site])
            item[site] = f"{left}{'-x'[kind - 1]}{right}"
    return item


def independent_payload(signature):
    """The classify payload rebuilt from Signature fields and explain()."""
    result = classify(signature)
    cells = list(signature.iter_cells())
    structure = (
        f"granularity={signature.granularity.value}, IPs={cells[0]}, DPs={cells[1]}, "
        + ", ".join(f"{site.label}={cell}" for site, cell in zip(LINK_SITES, cells[2:]))
    )
    explain = result.explain()
    assert explain.startswith(f"structure: {structure}\n")
    name = result.taxonomy_class.name
    return {
        "class": {
            "serial": result.taxonomy_class.serial,
            "short_name": result.taxonomy_class.comment,
            "name": None if name is None else name.long,
            "implementable": result.taxonomy_class.implementable,
        },
        "flexibility": result.score.total,
        "signature": structure,
        "switched_sites": [site.label for site in LINK_SITES if signature.link(site).is_switched],
        "explain": explain,
    }


def assert_payload_parity(items):
    """Scalar and batch payloads of every item equal the independent bytes."""
    service = TaxonomyService()
    signatures = [
        service.parse_classify_request(Request("POST", "/v1/classify", item))
        for item in items
    ]
    classified = classify_batch(SignatureBatch.from_signatures(signatures))
    for row, signature in enumerate(signatures):
        expected = stable_json(independent_payload(signature))
        scalar = service.classify_payload(signature, classify(signature))
        batch = service.classify_payload(signature, classified.classification(row, signature))
        assert stable_json(scalar) == expected, items[row]
        assert stable_json(batch) == expected, items[row]


@pytest.mark.parametrize("spelling", sorted(_COUNT_TOKENS))
def test_every_structure_renders_like_the_scalar_path(spelling):
    structures = valid_structures()
    assert len(structures) == 406
    assert_payload_parity(
        [structure_item(ips, dps, kinds, spelling) for ips, dps, kinds in structures]
    )


def test_table1_classes_render_like_the_scalar_path():
    assert_payload_parity(
        [{"granularity": row[1], **dict(zip(_FIELDS, row[2:9]))} for row in TABLE1]
    )


def test_table3_survey_renders_like_the_scalar_path():
    assert_payload_parity([dict(zip(_FIELDS, row[1:8])) for row in TABLE3])


def test_payload_refuses_a_classification_of_another_structure():
    iap = make_signature(1, "n", ip_dp="1-n", ip_im="1-1", dp_dm="nxn", dp_dp="nxn")
    dup = make_signature(0, 1, dp_dm="1-1")
    with pytest.raises(ClassificationError, match="serial"):
        TaxonomyService.classify_payload(iap, classify(dup))


@pytest.mark.parametrize("row", TABLE3, ids=[row[0] for row in TABLE3])
def test_describe_is_the_labelled_cell_join(row):
    item = dict(zip(_FIELDS, row[1:8]))
    signature = TaxonomyService().parse_classify_request(Request.get("/v1/classify", item))
    labels = ["IPs", "DPs"] + [site.label for site in LINK_SITES]
    cells = zip(labels, signature.iter_cells())
    joined = ", ".join(f"{label}={cell}" for label, cell in cells)
    assert signature.describe() == f"granularity={signature.granularity.value}, {joined}"


@pytest.mark.parametrize(
    ("parse", "token", "message"),
    [
        (Link.parse, "nxnxn", "unparseable connectivity cell: 'nxnxn'"),
        (Link.parse, "1+1", "unparseable connectivity cell: '1+1'"),
        (ComponentCount.of, "q", "unrecognised multiplicity symbol: 'q'"),
        (ComponentCount.of, "-3", "component count must be non-negative, got -3"),
    ],
)
def test_malformed_tokens_raise_the_same_error_every_time(parse, token, message):
    errors = []
    for _ in range(3):
        with pytest.raises(SignatureError) as caught:
            parse(token)
        errors.append(str(caught.value))
    assert errors == [message] * 3


def test_memos_share_one_value_per_token():
    assert Link.parse(" 64 x 64 ") is Link.parse(" 64 x 64 ")
    assert Link.parse(" 64 x 64 ").render() == "64x64"
    assert ComponentCount.of("24xn") is ComponentCount.of("24xn")
    assert str(ComponentCount.of("24xn")) == "n"


def test_memos_are_bounded():
    assert _parse_cell.cache_info().maxsize == LINK_MEMO_SIZE
    assert _parse_count.cache_info().maxsize == COUNT_MEMO_SIZE
    assert 0 < LINK_MEMO_SIZE <= COUNT_MEMO_SIZE <= 1 << 16


def test_compile_fills_no_render_rows():
    code = (
        "import repro.core.batch as batch\n"
        "batch.compile_taxonomy()\n"
        "assert not batch._RENDER_ROWS, len(batch._RENDER_ROWS)\n"
        "batch.render_row(batch.struct_index(1, 2, (0, 1, 1, 2, 2)))\n"
        "assert len(batch._RENDER_ROWS) == 1\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True)
