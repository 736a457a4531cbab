"""Byte-identity of batch ``/v1/classify`` results with single requests.

Classify batches run through the vectorized :mod:`repro.core.batch`
kernel and the per-structure render rows; single requests run through
the scalar classifier. Both must be unobservable from outside: every
entry of a batch's ``results`` encodes to the exact bytes a single
``POST /v1/classify`` of the same item answers with (its payload, or its
structured error body), and the response cache counts one lookup per
item.
"""

import json

import pytest

from repro.serve.server import ServerConfig, ServiceApp
from repro.serve.validation import stable_json

GOOD = {
    "ips": "1", "dps": "n", "ip-dp": "1-n", "ip-im": "1-1",
    "dp-dm": "nxn", "dp-dp": "nxn",
}
CONCRETE = {
    "ips": "1", "dps": "64", "ip-dp": "1-64", "ip-im": "1-1",
    "dp-dm": "64x64", "dp-dp": "64x64",
}
DATAFLOW = {"ips": "0", "dps": "1", "dp-dm": "1-1"}
BAD = {"nonsense": "x"}

MIXED_BATCH = [GOOD, CONCRETE, BAD, DATAFLOW, GOOD, {"ips": "9", "dps": "q"}]


@pytest.fixture
def make_app():
    """ServiceApp factory; every app it builds is shut down afterwards."""
    apps = []

    def build(**config):
        app = ServiceApp(ServerConfig(port=0, **config))
        apps.append(app)
        return app

    yield build
    for app in apps:
        app.shutdown()


def batch_body(items):
    """Encode a batch request body."""
    return json.dumps({"items": items}).encode()


def batch_results(app, path, items):
    """Each result of one batch POST, encoded on its own."""
    response = app.dispatch("POST", path, batch_body(items))
    assert response.status == 200
    return [stable_json(result) for result in response.payload["results"]]


def single_bytes(app, path, item):
    """The encoded body of a single POST of one item."""
    return stable_json(app.dispatch("POST", path, json.dumps(item).encode()).payload)


def cache_counts(app):
    stats = app.response_cache.stats()
    return stats["hits"], stats["misses"], stats["size"]


@pytest.mark.parametrize("cache_size", [1024, 0])
def test_mixed_batch_bytes_identical(make_app, cache_size):
    app = make_app(cache_size=cache_size)
    reference = make_app(cache_size=0)
    assert batch_results(app, "/v1/classify", MIXED_BATCH) == [
        single_bytes(reference, "/v1/classify", item) for item in MIXED_BATCH
    ]


def test_error_isolation_matches(make_app):
    app = make_app()
    reference = make_app(cache_size=0)
    response = app.dispatch("POST", "/v1/classify", batch_body([BAD, GOOD, BAD]))
    payload = response.payload
    assert payload["errors"] == 2
    assert payload["results"][1]["class"]["short_name"] == "IAP-IV"
    assert [stable_json(result) for result in payload["results"]] == [
        single_bytes(reference, "/v1/classify", item) for item in (BAD, GOOD, BAD)
    ]


def test_cache_hits_and_misses_are_counted_per_item(make_app):
    app = make_app()
    # GOOD misses, its duplicate waits for GOOD's answer and then hits,
    # CONCRETE misses; both classified items are stored.
    batch_results(app, "/v1/classify", [GOOD, GOOD, CONCRETE])
    assert cache_counts(app) == (1, 2, 2)
    # A malformed item is probed (a miss) but never stored.
    batch_results(app, "/v1/classify", [BAD, DATAFLOW, BAD])
    assert cache_counts(app) == (1, 5, 3)


def test_repeat_batch_served_from_cache(make_app):
    app = make_app()
    first = batch_results(app, "/v1/classify", [GOOD, CONCRETE])
    assert cache_counts(app) == (0, 2, 2)
    second = batch_results(app, "/v1/classify", [GOOD, CONCRETE])
    assert cache_counts(app) == (2, 2, 2)
    assert first == second


def test_batch_matches_single_requests_with_kernel(make_app):
    app = make_app(cache_size=0)
    query = "&".join(f"{k}={v}" for k, v in GOOD.items())
    single = app.dispatch("GET", "/v1/classify?" + query)
    assert batch_results(app, "/v1/classify", [GOOD]) == [stable_json(single.payload)]


def test_costs_batches_match_single_requests(make_app):
    app = make_app(cache_size=0)
    items = [{"class": "IAP-IV", "n": n} for n in (4, 16)]
    assert batch_results(app, "/v1/costs", items) == [
        single_bytes(app, "/v1/costs", item) for item in items
    ]
