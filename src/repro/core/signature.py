"""Architecture signatures — the classification key of the taxonomy.

A :class:`Signature` captures exactly the information the extended
taxonomy uses to place a machine in a class: the granularity of its
building blocks, the multiplicity of its instruction and data processors,
and the kind of each of the five connectivity sites. Everything in
:mod:`repro.core` (enumeration, naming, flexibility, classification)
operates on signatures.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator, Mapping

from repro.core.components import ComponentCount, Granularity, Multiplicity
from repro.core.connectivity import LINK_SITES, Link, LinkKind, LinkSite
from repro.core.errors import SignatureError

__all__ = ["Signature", "make_signature"]


@dataclass(frozen=True, slots=True)
class Signature:
    """The taxonomy-visible structure of a machine.

    Instances are immutable and hashable so they can key caches and sets.
    Use :func:`make_signature` for the permissive constructor that accepts
    paper-style strings.
    """

    granularity: Granularity
    ips: ComponentCount
    dps: ComponentCount
    ip_ip: Link
    ip_dp: Link
    ip_im: Link
    dp_dm: Link
    dp_dp: Link

    def __post_init__(self) -> None:
        self._validate()

    # -- validation ----------------------------------------------------

    def _validate(self) -> None:
        ips = self.ips.multiplicity
        dps = self.dps.multiplicity
        if dps is Multiplicity.ZERO:
            raise SignatureError("a machine must contain at least one data processor")
        if ips is Multiplicity.ZERO:
            # Data-flow machine: no instruction processor, hence no IP-side links.
            for site, link in (
                (LinkSite.IP_IP, self.ip_ip),
                (LinkSite.IP_DP, self.ip_dp),
                (LinkSite.IP_IM, self.ip_im),
            ):
                if link.exists:
                    raise SignatureError(
                        f"data-flow machine (0 IPs) cannot have a {site.label} connection"
                    )
        else:
            if not self.ip_dp.exists:
                raise SignatureError(
                    "an instruction-flow machine requires an IP-DP connection"
                )
            if not self.ip_im.exists:
                raise SignatureError(
                    "an instruction-flow machine requires an IP-IM connection"
                )
        if not self.dp_dm.exists:
            raise SignatureError("every machine requires a DP-DM connection")
        if ips is Multiplicity.ONE and self.ip_ip.exists:
            raise SignatureError("a single IP cannot have an IP-IP connection")
        if dps is Multiplicity.ONE and self.dp_dp.exists:
            raise SignatureError("a single DP cannot have a DP-DP connection")
        variable = Multiplicity.VARIABLE in (ips, dps)
        if self.granularity is Granularity.FINE and not variable:
            raise SignatureError(
                "fine-grained (LUT) machines must declare variable IPs or DPs"
            )
        if variable and self.granularity is not Granularity.FINE:
            raise SignatureError(
                "variable IP/DP multiplicity requires fine (LUT) granularity"
            )

    # -- link access ---------------------------------------------------

    def link(self, site: LinkSite) -> Link:
        """The connectivity cell at a given site."""
        return _SITE_FIELD[site].__get__(self)  # type: ignore[no-any-return]

    @property
    def links(self) -> Mapping[LinkSite, Link]:
        """All five link cells, keyed by site in Table-I column order."""
        return {site: self.link(site) for site in LINK_SITES}

    def link_kinds(self) -> tuple[LinkKind, ...]:
        """The five link kinds in Table-I column order."""
        return tuple(self.link(site).kind for site in LINK_SITES)

    def switched_sites(self) -> tuple[LinkSite, ...]:
        """The sites carrying an ``x`` switch — the flexibility earners."""
        return tuple(site for site in LINK_SITES if self.link(site).is_switched)

    def iter_cells(self) -> Iterator[str]:
        """Rendered Table-I cells (IPs, DPs, then the five links)."""
        yield str(self.ips)
        yield str(self.dps)
        for site in LINK_SITES:
            yield self.link(site).render()

    # -- derived structure --------------------------------------------

    @property
    def is_data_flow(self) -> bool:
        """True when the signature describes a data-flow (DF) machine."""
        return self.ips.multiplicity is Multiplicity.ZERO

    @property
    def is_instruction_flow(self) -> bool:
        """True when the signature describes an instruction-flow (IF) machine."""
        return self.ips.multiplicity in (Multiplicity.ONE, Multiplicity.MANY)

    @property
    def is_universal_flow(self) -> bool:
        """True when the signature describes a universal-flow (UF) machine."""
        return Multiplicity.VARIABLE in (self.ips.multiplicity, self.dps.multiplicity)

    @property
    def has_variable_components(self) -> bool:
        """Whether any population is symbolic (``n``/``m``) rather than fixed."""
        return self.is_universal_flow

    # -- transformation ------------------------------------------------

    def with_link(self, site: LinkSite, link: "Link | str | LinkKind") -> "Signature":
        """A copy with one connectivity site replaced (re-validated)."""
        parsed = Link.parse(link) if not isinstance(link, Link) else link
        return replace(self, **{_SITE_NAME[site]: parsed})

    def upgraded(self, site: LinkSite) -> "Signature":
        """A copy with the given site promoted one flexibility rank.

        ``NONE -> DIRECT -> SWITCHED``; upgrading a SWITCHED site is a
        no-op. Endpoint symbols are preserved where present, otherwise
        derived from the site's component multiplicities.
        """
        current = self.link(site)
        if current.kind is LinkKind.SWITCHED:
            return self
        if current.kind is LinkKind.DIRECT:
            return self.with_link(site, Link(LinkKind.SWITCHED, current.left, current.right))
        left = str(self._endpoint_multiplicity(site, left_side=True))
        right = str(self._endpoint_multiplicity(site, left_side=False))
        return self.with_link(site, Link(LinkKind.DIRECT, left, right))

    def _endpoint_multiplicity(self, site: LinkSite, left_side: bool) -> Multiplicity:
        kind = site.left if left_side else site.right
        if kind.name in ("IP", "IM"):
            return self.ips.multiplicity
        return self.dps.multiplicity

    # -- presentation ----------------------------------------------------

    def describe(self) -> str:
        """One-line human-readable structure description.

        The :meth:`iter_cells` cells labelled in Table-I column order,
        spelled out field by field (every classify response prints it).
        """
        return (
            f"granularity={self.granularity.value}, IPs={self.ips}, DPs={self.dps}, "
            f"IP-IP={self.ip_ip.render()}, IP-DP={self.ip_dp.render()}, "
            f"IP-IM={self.ip_im.render()}, DP-DM={self.dp_dm.render()}, "
            f"DP-DP={self.dp_dp.render()}"
        )


_SITE_NAME = {
    LinkSite.IP_IP: "ip_ip",
    LinkSite.IP_DP: "ip_dp",
    LinkSite.IP_IM: "ip_im",
    LinkSite.DP_DM: "dp_dm",
    LinkSite.DP_DP: "dp_dp",
}

_SITE_FIELD = {site: getattr(Signature, name) for site, name in _SITE_NAME.items()}


def make_signature(
    ips: "int | str | Multiplicity | ComponentCount",
    dps: "int | str | Multiplicity | ComponentCount",
    *,
    ip_ip: "str | Link | LinkKind | None" = None,
    ip_dp: "str | Link | LinkKind | None" = None,
    ip_im: "str | Link | LinkKind | None" = None,
    dp_dm: "str | Link | LinkKind | None" = None,
    dp_dp: "str | Link | LinkKind | None" = None,
    granularity: "Granularity | str | None" = None,
) -> Signature:
    """Permissive signature constructor accepting paper-style notation.

    Examples
    --------
    >>> sig = make_signature(1, 64, ip_dp="1-64", ip_im="1-1",
    ...                      dp_dm="64-1", dp_dp="64x64")
    >>> sig.dps.multiplicity.value
    'n'
    """
    ip_count = ComponentCount.of(ips)
    dp_count = ComponentCount.of(dps)
    if granularity is None:
        variable = Multiplicity.VARIABLE in (ip_count.multiplicity, dp_count.multiplicity)
        gran = Granularity.FINE if variable else Granularity.COARSE
    elif isinstance(granularity, Granularity):
        gran = granularity
    else:
        token = granularity.strip().lower()
        if token in ("luts", "lut", "fine", "gates"):
            gran = Granularity.FINE
        elif token in ("ip/dp", "coarse"):
            gran = Granularity.COARSE
        else:
            raise SignatureError(f"unknown granularity: {granularity!r}")
    return Signature(
        granularity=gran,
        ips=ip_count,
        dps=dp_count,
        ip_ip=Link.parse(ip_ip),
        ip_dp=Link.parse(ip_dp),
        ip_im=Link.parse(ip_im),
        dp_dm=Link.parse(dp_dm),
        dp_dp=Link.parse(dp_dp),
    )
