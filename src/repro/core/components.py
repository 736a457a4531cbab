"""Basic building blocks of Skillicorn's (extended) taxonomy.

The paper decomposes every computer architecture into four component
kinds — Instruction Processor (IP), Data Processor (DP), Instruction
Memory (IM) and Data Memory (DM) — and classifies machines by *how many*
IPs and DPs they contain and *how* the components are connected.

This module defines the component kinds and the multiplicity algebra.
The paper's multiplicity symbols are ``0``, ``1``, ``n`` (a fixed,
design-time constant greater than one) and the extension ``v`` (variable:
fine-grained fabrics whose cells can assume either the IP or the DP role,
so the count changes on reconfiguration, ``v >= 0``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache

from repro.core.errors import SignatureError

__all__ = [
    "ComponentKind",
    "Multiplicity",
    "Granularity",
    "ComponentCount",
    "multiplicity_of_count",
    "COUNT_MEMO_SIZE",
]

#: Bound on the memo behind :meth:`ComponentCount.of` for string tokens.
COUNT_MEMO_SIZE = 8192


class ComponentKind(enum.Enum):
    """The four Skillicorn building blocks."""

    IP = "IP"  #: instruction processor — the state machine choosing the next instruction
    DP = "DP"  #: data processor — performs arithmetic/logic on data
    IM = "IM"  #: instruction memory
    DM = "DM"  #: data memory

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value

    @property
    def is_processor(self) -> bool:
        """True for IP and DP (the kinds whose count drives classification)."""
        return self in (ComponentKind.IP, ComponentKind.DP)

    @property
    def is_memory(self) -> bool:
        """True for IM and DM."""
        return self in (ComponentKind.IM, ComponentKind.DM)


class Multiplicity(enum.Enum):
    """How many instances of a component a machine contains.

    The ordering ``ZERO < ONE < MANY < VARIABLE`` reflects increasing
    structural richness and is used by the flexibility scoring system:
    ``MANY`` and ``VARIABLE`` each contribute one flexibility point, and
    ``VARIABLE`` additionally marks the machine as universal-flow.
    """

    ZERO = "0"
    ONE = "1"
    MANY = "n"
    VARIABLE = "v"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value

    @property
    def rank(self) -> int:
        """Total order used for comparisons (0 for ZERO .. 3 for VARIABLE)."""
        return _MULTIPLICITY_RANK[self._value_]

    def __lt__(self, other: "Multiplicity") -> bool:
        if not isinstance(other, Multiplicity):
            return NotImplemented
        return self.rank < other.rank

    def __le__(self, other: "Multiplicity") -> bool:
        if not isinstance(other, Multiplicity):
            return NotImplemented
        return self.rank <= other.rank

    def __gt__(self, other: "Multiplicity") -> bool:
        if not isinstance(other, Multiplicity):
            return NotImplemented
        return self.rank > other.rank

    def __ge__(self, other: "Multiplicity") -> bool:
        if not isinstance(other, Multiplicity):
            return NotImplemented
        return self.rank >= other.rank

    @property
    def is_plural(self) -> bool:
        """True when the multiplicity earns a flexibility point (n or v)."""
        return self._value_ in ("n", "v")

    @classmethod
    def parse(cls, text: str) -> "Multiplicity":
        """Parse a paper-style multiplicity symbol.

        Accepts ``"0"``, ``"1"``, ``"n"``, ``"v"`` (case-insensitive),
        template letters such as ``"m"`` (treated as ``n`` — Table III
        uses ``m`` for a second independent constant, e.g. RaPiD), compound
        constants such as ``"24xn"`` (GARP's 24·n data processors, still a
        design-time constant, hence ``n``), and plain integers.
        """
        token = text.strip().lower()
        if not token:
            raise SignatureError("empty multiplicity symbol")
        if token == "0":
            return cls.ZERO
        if token == "1":
            return cls.ONE
        if token == "v":
            return cls.VARIABLE
        if token in ("n", "m") or ("n" in token and any(c.isdigit() or c in "xn*" for c in token)):
            return cls.MANY
        try:
            value = int(token)
        except ValueError as exc:
            raise SignatureError(f"unrecognised multiplicity symbol: {text!r}") from exc
        return multiplicity_of_count(value)


#: Rank by symbol (a str key hashes faster than ``Enum.__hash__``).
_MULTIPLICITY_RANK = {"0": 0, "1": 1, "n": 2, "v": 3}


def multiplicity_of_count(count: int) -> Multiplicity:
    """Map a concrete instance count to the paper's multiplicity symbol.

    ``0 -> ZERO``, ``1 -> ONE``, and anything larger is the design-time
    constant ``n`` (the paper replaces ``n`` with actual values "where
    ever it is possible", but classification only cares about the symbol).
    """
    if count < 0:
        raise SignatureError(f"component count must be non-negative, got {count}")
    if count == 0:
        return Multiplicity.ZERO
    if count == 1:
        return Multiplicity.ONE
    return Multiplicity.MANY


class Granularity(enum.Enum):
    """Granularity of the basic building block.

    Coarse-grained machines are built from whole IPs/DPs; fine-grained
    (universal-flow) machines are built from LUT-level cells that can
    assume any role.
    """

    COARSE = "IP/DP"
    FINE = "LUTs"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True, slots=True)
class ComponentCount:
    """A concrete component population: the symbol plus an optional value.

    ``Multiplicity`` alone suffices for classification; area and
    configuration-bit estimation additionally need the numeric value,
    which this record carries when known (e.g. MorphoSys has 64 DPs).
    """

    multiplicity: Multiplicity
    value: int | None = None

    def __post_init__(self) -> None:
        if self.value is not None:
            if self.value < 0:
                raise SignatureError("component value must be non-negative")
            expected = multiplicity_of_count(self.value)
            if self.multiplicity is Multiplicity.VARIABLE:
                return  # a variable fabric may be instantiated at any size
            if expected is not self.multiplicity:
                raise SignatureError(
                    f"count {self.value} is inconsistent with multiplicity "
                    f"{self.multiplicity.value!r}"
                )

    @classmethod
    def of(cls, raw: "int | str | Multiplicity | ComponentCount") -> "ComponentCount":
        """Coerce ints, paper symbols or multiplicities into a count."""
        if isinstance(raw, str):
            return _parse_count(raw)
        if isinstance(raw, ComponentCount):
            return raw
        if isinstance(raw, Multiplicity):
            return cls(raw)
        if isinstance(raw, int):
            return cls(multiplicity_of_count(raw), raw)
        raise SignatureError(f"cannot interpret component count: {raw!r}")

    def resolve(self, default_n: int) -> int:
        """The numeric population, substituting ``default_n`` for ``n``/``v``."""
        if self.value is not None:
            return self.value
        if self.multiplicity is Multiplicity.ZERO:
            return 0
        if self.multiplicity is Multiplicity.ONE:
            return 1
        return default_n

    def __str__(self) -> str:
        if self.value is not None and self.multiplicity.is_plural:
            return str(self.value)
        return self.multiplicity._value_


@lru_cache(maxsize=COUNT_MEMO_SIZE)
def _parse_count(raw: str) -> ComponentCount:
    """:meth:`ComponentCount.of` for a string (frozen result; errors are not cached)."""
    token = raw.strip()
    try:
        value = int(token)
    except ValueError:
        return ComponentCount(Multiplicity.parse(token))
    return ComponentCount(multiplicity_of_count(value), value)
