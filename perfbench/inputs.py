"""Seeded workload inputs: the same seed always yields the same inputs.

The program only ever receives what these functions generate; the
expected answers are computed beside them, in-process, from the
library's own scalar functions (the correctness oracle).
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, replace
from urllib.parse import urlencode

from repro.core.classify import classify
from repro.core.components import ComponentCount, Multiplicity
from repro.core.signature import LINK_SITES, Signature
from repro.core.taxonomy import all_classes
from repro.models.technology import NODES
from repro.registry.architectures import all_architectures
from repro.registry.populations import PopulationSpec, generate_signatures

#: Response-cache capacity the server boots with (``ServerConfig.cache_size``).
SERVER_CACHE_SIZE = 1024


def wire_item(signature: Signature) -> dict[str, str]:
    """A signature as classify request fields (concrete counts kept).

    A variable population travels as ``v``: its count is not part of the
    wire grammar and never changes the class.
    """

    def count(value) -> str:
        return "v" if value.multiplicity is Multiplicity.VARIABLE else str(value)

    item = {"ips": count(signature.ips), "dps": count(signature.dps)}
    for site in LINK_SITES:
        cell = signature.link(site).render()
        if cell != "none":
            item[site.label.lower()] = cell
    return item


def expected_class(signature: Signature) -> tuple[int, str, int]:
    """(serial, short name, flexibility) from the scalar classifier."""
    result = classify(signature)
    return result.taxonomy_class.serial, result.short_name, result.flexibility


# -- classify-batch ----------------------------------------------------------


@dataclass(frozen=True)
class ClassifyPool:
    """Distinct classify items, cut into batches, with expected answers."""

    bodies: tuple[bytes, ...]
    expected: tuple[tuple[tuple[int, str, int], ...], ...]
    warm_body: bytes
    items: int
    distinct: int


def classify_pool(seed: int, *, batches: int, batch_size: int) -> ClassifyPool:
    """``batches`` x ``batch_size`` distinct uniform-mode items, plus a warm-up item.

    Every item is distinct, so cycling the pool revisits an item only
    after ``batches * batch_size`` others: with more items than the
    response cache holds, every request misses it by construction.
    """
    wanted = batches * batch_size + 1
    seen: set[str] = set()
    items: list[dict[str, str]] = []
    expected: list[tuple[int, str, int]] = []
    chunk = 0
    while len(items) < wanted:
        spec = PopulationSpec(
            size=2048, seed=seed * 7919 + chunk, mode="uniform", max_n=4096,
            value_probability=1.0,
        )
        chunk += 1
        for signature in generate_signatures(spec):
            item = wire_item(signature)
            key = json.dumps(item, sort_keys=True)
            if key in seen:
                continue
            seen.add(key)
            items.append(item)
            expected.append(expected_class(signature))
            if len(items) == wanted:
                break
    warm = items.pop()
    expected.pop()
    bodies = []
    answers = []
    for start in range(0, len(items), batch_size):
        bodies.append(json.dumps({"items": items[start:start + batch_size]}).encode())
        answers.append(tuple(expected[start:start + batch_size]))
    return ClassifyPool(
        bodies=tuple(bodies),
        expected=tuple(answers),
        warm_body=json.dumps({"items": [warm]}).encode(),
        items=len(items),
        distinct=len({json.dumps(item, sort_keys=True) for item in items}),
    )


# -- serve-mix ---------------------------------------------------------------

#: Request-kind shares of the mix (they sum to 1).
MIX: dict[str, float] = {
    "classify": 0.6,
    "costs": 0.3,
    "survey_name": 0.05,
    "survey_costs": 0.05,
}
#: Concrete design sizes a classify variant substitutes for ``n``.
VARIANT_SIZES = (4, 16, 64, 256)
#: Design sizes the costed survey is asked for.
SURVEY_SIZES = (8, 16, 32, 64)


@dataclass(frozen=True)
class MixRequest:
    """One request of the serve mix."""

    kind: str
    path: str


def _classify_paths() -> list[str]:
    """The 47 Table-I signatures and their concrete-size variants."""
    paths = []
    for cls in all_classes():
        signature = cls.signature
        variants = [signature]
        if signature.dps.multiplicity is Multiplicity.MANY:
            variants += [
                replace(signature, dps=ComponentCount(Multiplicity.MANY, size))
                for size in VARIANT_SIZES
            ]
        paths += ["/v1/classify?" + urlencode(wire_item(variant)) for variant in variants]
    return paths


class ServeMix:
    """The seeded request stream of the serve-mix workload.

    Costs keys are ranked by a fixed shuffle of class x n x technology
    and drawn with seeded Zipf draws; the key space (47 x 4096 x nodes) is
    far larger than the response cache.
    """

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.classify_paths = _classify_paths()
        self.survey_names = [record.name for record in all_architectures()]
        self.nodes = tuple(sorted(NODES))
        self.key_space = 47 * 4096 * len(self.nodes)
        # Zipf with exponent 1 over ranks 1..key_space, drawn through
        # the inverse of its continuous CDF (log-uniform ranks).
        self._log_space = math.log(self.key_space)
        self._block: list[str] = []

    def costs_key(self, rank: int) -> tuple[int, int, str]:
        """The (serial, n, technology) key at a popularity rank (0-based)."""
        # A fixed bijection of the rank onto the key space: the seed
        # draws requests, it does not change which keys are popular.
        index = (rank * 2654435761 + 12345) % self.key_space
        serial, rest = divmod(index, 4096 * len(self.nodes))
        n, node = divmod(rest, len(self.nodes))
        return serial + 1, n + 1, self.nodes[node]

    def _next_kind(self) -> str:
        """Kinds come in shuffled blocks of 20 that hold the exact mix shares."""
        if not self._block:
            self._block = [kind for kind, share in MIX.items() for _ in range(round(share * 20))]
            self.rng.shuffle(self._block)
        return self._block.pop()

    def draw(self) -> MixRequest:
        """The next request of the stream."""
        kind = self._next_kind()
        if kind == "classify":
            return MixRequest(kind, self.rng.choice(self.classify_paths))
        if kind == "costs":
            rank = int(math.exp(self.rng.random() * self._log_space)) - 1
            serial, n, node = self.costs_key(rank)
            return MixRequest(
                kind, "/v1/costs?" + urlencode({"serial": serial, "n": n, "technology": node})
            )
        if kind == "survey_name":
            return MixRequest(kind, "/v1/survey?" + urlencode(
                {"name": self.rng.choice(self.survey_names)}))
        return MixRequest(kind, "/v1/survey?" + urlencode(
            {"costs": "true", "n": self.rng.choice(SURVEY_SIZES)}))

    def schedule(
        self, rate: float, seconds: float, offset: float
    ) -> list[tuple[float, MixRequest]]:
        """Poisson arrivals at ``rate``/s for ``seconds``, due times from ``offset``."""
        due = offset
        out = []
        while True:
            due += self.rng.expovariate(rate)
            if due >= offset + seconds:
                return out
            out.append((due, self.draw()))


# -- jobs-backlog ------------------------------------------------------------


@dataclass(frozen=True)
class JobSpec:
    """One job of the backlog burst."""

    kind: str
    params: dict[str, str]
    key: str


def job_burst(seed: int, burst: int, *, populations: int, size: int) -> list[JobSpec]:
    """``burst`` jobs: ``populations`` population jobs, the rest survey-costs.

    The kinds interleave in a fixed order (the seed draws parameters,
    not the order); idempotency keys are unique per seed and position.
    """
    rng = random.Random(seed)
    kinds = [
        "population" if (index * populations) // burst != ((index + 1) * populations) // burst
        else "survey-costs"
        for index in range(burst)
    ]
    jobs = []
    for index, kind in enumerate(kinds):
        if kind == "population":
            params = {"size": str(size), "seed": str(rng.randrange(10**6)), "mode": "uniform"}
        else:
            params = {"n": str(rng.choice(SURVEY_SIZES))}
        jobs.append(JobSpec(kind, params, f"bench-{seed}-{index}-{rng.randrange(10**9)}"))
    return jobs


# -- paper-cold --------------------------------------------------------------


def cli_signature(seed: int, index: int) -> tuple[list[str], Signature]:
    """A Table-I class signature as ``classify`` CLI flags, seeded.

    Only classes the CLI's flag grammar rebuilds exactly are drawn.
    """
    rng = random.Random(seed * 1_000_003 + index)
    signature = rng.choice(_cli_classes())
    return _cli_flags(signature), signature


def _cli_flags(signature: Signature) -> list[str]:
    flags = ["--ips", str(signature.ips), "--dps", str(signature.dps)]
    for site in LINK_SITES:
        flags += ["--" + site.label.lower(), signature.link(site).render()]
    return flags


def _cli_classes() -> list[Signature]:
    from repro.core.signature import make_signature

    out = []
    for cls in all_classes():
        flags = _cli_flags(cls.signature)
        values = dict(zip(flags[0::2], flags[1::2]))
        rebuilt = make_signature(
            values["--ips"], values["--dps"],
            **{site.label.lower().replace("-", "_"): values["--" + site.label.lower()]
               for site in LINK_SITES},
        )
        if rebuilt == cls.signature:
            out.append(cls.signature)
    return out
