"""Input shaping: registrable-domain extraction under public-suffix rules,
nameserver/glue resolution against an authoritative resolver, and expansion
into the domain-nameserver pair universe the scanner consumes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from importlib import resources
from typing import Iterable, Optional

from .transport import Transport, exchange_message
from .wire import DnsName, InvalidLabel, Rcode, RType, WireError, content_lines, make_query

_DEFAULT_SNAPSHOT = "data/public_suffix_snapshot.dat"
QUERY_TIMEOUT = 1.0  # seconds per attempt at the resolver
QUERY_RETRIES = 1


@dataclass(frozen=True)
class SuffixRuleSet:
    """Public-suffix rules: plain, wildcard (`*.`), and exception (`!`) entries.

    Lookup is deterministic longest-match; names that match no rule fall to
    the implicit `*` rule (the rightmost label is the suffix).
    """

    rules: frozenset[DnsName]
    wildcards: frozenset[DnsName]   # the name after the `*.` label
    exceptions: frozenset[DnsName]
    version: str = "custom"

    @classmethod
    def from_text(cls, text: str, version: str = "custom") -> "SuffixRuleSet":
        rules, wildcards, exceptions = set(), set(), set()
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("//") or line.startswith("#"):
                continue
            try:
                rule = DnsName.from_text(line.lstrip("!"))
            except (UnicodeEncodeError, InvalidLabel):
                continue  # unicode rules and invalid names never match a wire-format name
            if line.startswith("!"):
                exceptions.add(rule)
            elif rule.labels[:1] == (b"*",):
                wildcards.add(rule.parent())
            else:
                rules.add(rule)
        return cls(frozenset(rules), frozenset(wildcards), frozenset(exceptions), version)

    @classmethod
    def bundled(cls) -> "SuffixRuleSet":
        text = resources.files(__package__).joinpath(_DEFAULT_SNAPSHOT).read_text("utf-8")
        version = "bundled"
        for line in text.splitlines():
            if line.startswith("// snapshot:"):
                version = line.split(":", 1)[1].strip()
                break
        return cls.from_text(text, version)

    @classmethod
    def from_file(cls, path: str) -> "SuffixRuleSet":
        with open(path, encoding="utf-8") as fh:
            return cls.from_text(fh.read(), version=path)

    def suffix_label_count(self, name: DnsName) -> int:
        """Number of trailing labels forming the public suffix of ``name``."""
        tails = [*name.suffixes()][::-1]  # tails[k] is the suffix of k labels
        best_exception = 0
        best = 0
        for k in range(1, len(tails)):
            tail = tails[k]
            if tail in self.exceptions:
                best_exception = max(best_exception, k - 1)
            if tail in self.rules:
                best = max(best, k)
            if k >= 2 and tails[k - 1] in self.wildcards:
                best = max(best, k)
        if best_exception:
            return best_exception
        return best if best else min(1, len(tails) - 1)


def registrable_domain(name: DnsName, rules: SuffixRuleSet) -> Optional[DnsName]:
    """Suffix-plus-one-label, or None when the name is a bare public suffix."""
    count = rules.suffix_label_count(name)
    tails = [*name.suffixes()]  # tails[-1 - k] is the suffix of k labels
    if len(tails) - 1 <= count:
        return None
    return tails[-2 - count]


# --- resolution into the pair universe ---


@dataclass
class TargetUniverse:
    """Everything the scanner needs: zones, their NS names, and glue addresses."""

    domains: set[DnsName] = field(default_factory=set)
    ns_names: dict[DnsName, set[DnsName]] = field(default_factory=dict)
    ns_addresses: dict[DnsName, set[str]] = field(default_factory=dict)

    @property
    def pairs(self) -> set[tuple[DnsName, str]]:
        out = set()
        for zone in self.domains:
            for ns in self.ns_names.get(zone, ()):
                for addr in self.ns_addresses.get(ns, ()):
                    out.add((zone, addr))
        return out

    def counts(self) -> dict:
        return {
            "domains": len(self.domains),
            "ns_names": len({n for names in self.ns_names.values() for n in names}),
            "ns_addresses": len({a for addrs in self.ns_addresses.values() for a in addrs}),
            "pairs": len(self.pairs),
        }


@dataclass
class ResolutionStats:
    resolved_domains: int = 0
    domains_without_ns: int = 0
    domains_without_soa: int = 0
    unresolved_ns: int = 0


@dataclass(frozen=True)
class IngestConfig:
    require_soa: bool = False     # optional liveness pre-filter
    include_ipv6: bool = False    # also collect AAAA glue


def resolve_targets(domains: Iterable[DnsName], resolver_address: str,
                    transport: Transport, cfg: IngestConfig = IngestConfig(),
                    rng: Optional[random.Random] = None) -> tuple[TargetUniverse, ResolutionStats]:
    """NS-then-address resolution with caching and negative memoization.

    NS data is taken from answers or, for delegations, from referral
    authority sections; glue arriving in additional sections is harvested
    so it is not re-queried. Domains whose nameservers cannot be resolved
    contribute no pairs and are counted, never fatal; a reply that does not
    decode or does not answer its query counts as no answer. A domain listed
    twice is resolved once. Query ids come from ``rng``, else the global ``random``.
    """
    universe = TargetUniverse()
    stats = ResolutionStats()
    address_cache: dict[DnsName, set[str]] = {}
    negative: set[DnsName] = set()
    address_types = (RType.A, RType.AAAA) if cfg.include_ipv6 else (RType.A,)

    def query(name: DnsName, rtype: int):
        reply = exchange_message(transport, resolver_address, make_query(name, rtype, rng=rng),
                                 timeout=QUERY_TIMEOUT, retries=QUERY_RETRIES)
        if reply is None or reply.rcode != Rcode.NOERROR:
            return None
        for rr in reply.additional:
            if rr.rtype in address_types:
                address_cache.setdefault(rr.name, set()).add(str(rr.rdata))
        return reply

    def ns_set(zone: DnsName) -> set[DnsName]:
        reply = query(zone, RType.NS)
        if reply is None:
            return set()
        records = [rr for rr in reply.answers if rr.rtype == RType.NS and rr.name == zone]
        if not records:  # a referral carries the delegation in the authority section
            records = [rr for rr in reply.authority if rr.rtype == RType.NS and rr.name == zone]
        return {rr.rdata for rr in records if isinstance(rr.rdata, DnsName)}

    def addresses_for(ns: DnsName) -> set[str]:
        if address_cache.get(ns):
            return address_cache[ns]
        if ns in negative:
            return set()
        for rtype in address_types:
            reply = query(ns, rtype)
            if reply is None:
                continue
            for rr in reply.answers:
                if rr.rtype == rtype and rr.name == ns:
                    address_cache.setdefault(ns, set()).add(str(rr.rdata))
        found = address_cache.get(ns, set())
        if not found:
            negative.add(ns)
            stats.unresolved_ns += 1
        return found

    def has_soa(zone: DnsName) -> bool:
        reply = query(zone, RType.SOA)
        if reply is None:
            return False
        return any(rr.rtype == RType.SOA and rr.name == zone
                   for rr in reply.answers + reply.authority)

    seen: set[DnsName] = set()
    for zone in domains:
        if zone in seen:
            continue
        seen.add(zone)
        if cfg.require_soa and not has_soa(zone):
            stats.domains_without_soa += 1
            continue
        ns_names = ns_set(zone)
        if not ns_names:
            stats.domains_without_ns += 1
            continue
        zone_has_address = False
        for ns in ns_names:
            found = addresses_for(ns)
            if found:
                zone_has_address = True
            universe.ns_addresses.setdefault(ns, set()).update(found)
        if not zone_has_address:
            stats.domains_without_ns += 1
            continue
        universe.domains.add(zone)
        universe.ns_names.setdefault(zone, set()).update(ns_names)
        stats.resolved_domains += 1
    return universe, stats


def read_domain_lines(lines: Iterable[str]) -> list[DnsName]:
    """One domain per line; blank lines and #-comments skipped."""
    out = []
    for lineno, line in content_lines(lines):
        try:
            out.append(DnsName.from_text(line))
        except (ValueError, WireError) as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    return out
