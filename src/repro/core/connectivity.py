"""Connectivity relations between taxonomy components.

The extended taxonomy characterises a machine by five link *sites*:
IP-IP (the paper's new column), IP-DP, IP-IM, DP-DM and DP-DP. Each site
either has no connection, a direct (fixed, ``'-'``) connection, or a
switched (``'x'``, crossbar-style) connection whose endpoints can be
re-associated at run time. Switched links are what the flexibility
scoring system counts, and they are the expensive term in the area and
configuration-bit models.

Table I renders a link as ``<left><sep><right>`` where the separator is
``-`` for direct and ``x`` for switched, and the sides are the endpoint
multiplicities (``1-1``, ``1-n``, ``n-n``, ``nxn``, ``vxv`` …). This
module provides the codec between those cell strings and the structured
:class:`Link` representation.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from functools import lru_cache

from repro.core.components import ComponentKind, Multiplicity
from repro.core.errors import SignatureError

__all__ = ["LinkKind", "LinkSite", "Link", "LINK_SITES", "LINK_MEMO_SIZE"]

#: Bound on the memo behind :meth:`Link.parse` for string cells.
LINK_MEMO_SIZE = 4096


class LinkKind(enum.Enum):
    """How two component populations are connected.

    The ordering ``NONE < DIRECT < SWITCHED`` is the flexibility order:
    upgrading a link never removes capability. Only ``SWITCHED`` earns a
    flexibility point.
    """

    NONE = "none"
    DIRECT = "-"
    SWITCHED = "x"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value

    @property
    def rank(self) -> int:
        """Ordering key: absent < direct < switched."""
        return _LINK_RANK[self._value_]

    def __lt__(self, other: "LinkKind") -> bool:
        if not isinstance(other, LinkKind):
            return NotImplemented
        return self.rank < other.rank

    def __le__(self, other: "LinkKind") -> bool:
        if not isinstance(other, LinkKind):
            return NotImplemented
        return self.rank <= other.rank

    def __gt__(self, other: "LinkKind") -> bool:
        if not isinstance(other, LinkKind):
            return NotImplemented
        return self.rank > other.rank

    def __ge__(self, other: "LinkKind") -> bool:
        if not isinstance(other, LinkKind):
            return NotImplemented
        return self.rank >= other.rank

    @property
    def is_switched(self) -> bool:
        """True for the switched ``x`` kind."""
        return self is LinkKind.SWITCHED

    @property
    def exists(self) -> bool:
        """True for any present (non-absent) kind."""
        return self is not LinkKind.NONE


#: Rank by symbol (a str key hashes faster than ``Enum.__hash__``).
_LINK_RANK = {"none": 0, "-": 1, "x": 2}


class LinkSite(enum.Enum):
    """The five connectivity columns of the extended Table I."""

    IP_IP = ("IP-IP", ComponentKind.IP, ComponentKind.IP)
    IP_DP = ("IP-DP", ComponentKind.IP, ComponentKind.DP)
    IP_IM = ("IP-IM", ComponentKind.IP, ComponentKind.IM)
    DP_DM = ("DP-DM", ComponentKind.DP, ComponentKind.DM)
    DP_DP = ("DP-DP", ComponentKind.DP, ComponentKind.DP)

    def __init__(self, label: str, left: ComponentKind, right: ComponentKind):
        self.label = label
        self.left = left
        self.right = right

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.label

    @property
    def involves_ip(self) -> bool:
        """Whether this link site involves the instruction processors."""
        return ComponentKind.IP in (self.left, self.right) or ComponentKind.IM in (
            self.left,
            self.right,
        )

    @property
    def is_self_link(self) -> bool:
        """True for the IP-IP and DP-DP peer-to-peer sites."""
        return self.left == self.right


#: Table-I column order for the five link sites.
LINK_SITES: tuple[LinkSite, ...] = (
    LinkSite.IP_IP,
    LinkSite.IP_DP,
    LinkSite.IP_IM,
    LinkSite.DP_DM,
    LinkSite.DP_DP,
)


# Endpoint tokens are digits and the paper's multiplicity letters (n, m,
# v, possibly compounded like "24n"); 'x' is reserved as the switched
# separator so cells like "nxnxn" are rejected as malformed.
_CELL_RE = re.compile(
    r"^\s*(?P<left>[0-9nmv]+)\s*(?P<sep>[x\-])\s*(?P<right>[0-9nmv]+)\s*$",
    re.IGNORECASE,
)


@dataclass(frozen=True, slots=True)
class Link:
    """One connectivity cell: the link kind plus the rendered endpoints.

    ``left``/``right`` carry the multiplicity symbols used when the link
    is rendered back to a Table-I style string; they are presentation
    data — classification depends only on :attr:`kind`.
    """

    kind: LinkKind
    left: str = ""
    right: str = ""

    @classmethod
    def none(cls) -> "Link":
        """The absent link."""
        return cls(LinkKind.NONE)

    @classmethod
    def direct(cls, left: "str | Multiplicity" = "1", right: "str | Multiplicity" = "1") -> "Link":
        """A direct ``-`` link with the given end multiplicities."""
        return cls(LinkKind.DIRECT, str(left), str(right))

    @classmethod
    def switched(cls, left: "str | Multiplicity" = "n", right: "str | Multiplicity" = "n") -> "Link":
        """A switched ``x`` link with the given end multiplicities."""
        return cls(LinkKind.SWITCHED, str(left), str(right))

    @classmethod
    def parse(cls, cell: "str | Link | LinkKind | None") -> "Link":
        """Parse a Table-I/Table-III connectivity cell.

        Accepts ``"none"`` (or ``None``/empty), direct cells such as
        ``"1-1"``, ``"1-n"``, ``"64-1"``, ``"48-48"``, and switched cells
        such as ``"nxn"``, ``"64x64"``, ``"5x10"``, ``"nx14"``, ``"vxv"``.
        The separator decides the kind: ``-`` is direct, ``x`` is
        switched. Endpoint tokens are preserved verbatim for re-rendering.
        """
        if isinstance(cell, str):
            return _parse_cell(cell)
        if cell is None:
            return cls.none()
        if isinstance(cell, Link):
            return cell
        if isinstance(cell, LinkKind):
            if cell is LinkKind.NONE:
                return cls.none()
            return cls(cell, "n", "n")
        raise SignatureError(f"cannot interpret connectivity cell: {cell!r}")

    def render(self) -> str:
        """Format as a Table-I cell string (a present kind's value is its separator)."""
        symbol = self.kind._value_
        return symbol if symbol == "none" else f"{self.left}{symbol}{self.right}"

    def __str__(self) -> str:
        return self.render()

    def with_endpoints(self, left: "str | Multiplicity", right: "str | Multiplicity") -> "Link":
        """Same kind, new rendered endpoints."""
        if self.kind is LinkKind.NONE:
            return self
        return Link(self.kind, str(left), str(right))

    @property
    def is_switched(self) -> bool:
        """True when this link is switched."""
        return self.kind.is_switched

    @property
    def exists(self) -> bool:
        """True when this link is present."""
        return self.kind.exists


@lru_cache(maxsize=LINK_MEMO_SIZE)
def _parse_cell(cell: str) -> Link:
    """:meth:`Link.parse` for a string (frozen result; errors are not cached)."""
    token = cell.strip()
    if not token or token.lower() in ("none", "no", "-", "--"):
        return Link.none()
    match = _CELL_RE.match(token)
    if match is None:
        raise SignatureError(f"unparseable connectivity cell: {cell!r}")
    kind = LinkKind.SWITCHED if match.group("sep").lower() == "x" else LinkKind.DIRECT
    return Link(kind, match.group("left"), match.group("right"))
