"""Time `registrable_domain` per hostname and `resolve_targets` per domain.

Usage: PYTHONPATH=src python3 tools/bench_ingest.py [--seed N] [--repeats N]

It draws 2,000 seeded domains under five public suffixes of the bundled
rules, one of them (`x.ck`) by the wildcard `*.ck` beside the exception
`!www.ck`; each domain and three names below it, one upper-cased, are the
hostnames. One simulated server holds a parent zone per suffix, where each
domain has two nameservers: nine in ten inside it with A glue (and AAAA
glue for every other domain), the rest under a name that does not exist.
It times `registrable_domain` over every hostname, and `resolve_targets`
over the distinct domains on a fresh bus each repeat, and prints the
median µs per hostname and per domain and the counts the two steps give.
"""

from __future__ import annotations

import random
from ipaddress import IPv6Address

import _kit as kit
from zptoolkit import authsim, ingest, transport
from zptoolkit.wire import DnsName, RClass, ResourceRecord, RType

SUFFIXES = ("com", "net", "co.uk", "co.jp", "x.ck")
DOMAINS = 2_000
PARENT = "198.51.100.53"


def inputs(rng: random.Random) -> tuple[list[DnsName], list[tuple[str, authsim.ZoneConfig]]]:
    """(hostnames, the parent zones by server address)."""
    records = {suffix: [] for suffix in SUFFIXES}
    hostnames = []
    for j in range(DOMAINS):
        suffix = SUFFIXES[j % len(SUFFIXES)]
        domain = DnsName.from_text(f"{kit.label(rng)}{j}.{suffix}")
        texts = [domain.to_text()] + [f"{kit.name(rng, 3).to_text()}.{domain.to_text()}"
                                      for _ in range(3)]
        hostnames += map(DnsName.from_text, texts[:3] + [texts[3].upper()])
        for k in (1, 2):
            if rng.random() < 0.9:
                ns = domain.prepend(f"ns{k}")
                records[suffix].append(ResourceRecord(ns, RType.A, RClass.IN, 86400,
                                                      kit.address(rng)))
                if j % 2:
                    records[suffix].append(ResourceRecord(
                        ns, RType.AAAA, RClass.IN, 86400, IPv6Address(rng.getrandbits(128))))
            else:
                ns = DnsName.from_text(f"ns{k}.gone{j}.{suffix}")
            records[suffix].append(ResourceRecord(domain, RType.NS, RClass.IN, 86400, ns))
    rng.shuffle(hostnames)
    zones = []
    for suffix, extra in records.items():
        apex = DnsName.from_text(suffix)
        soa_ns = [authsim.make_soa(apex), ResourceRecord(apex, RType.NS, RClass.IN, 86400,
                                                         apex.prepend("a-ns"))]
        zones.append((PARENT, authsim.ZoneConfig.build(apex, authsim.Primary(), authsim.Deny(),
                                                       soa_ns + extra)))
    return hostnames, zones


def measure(seed: int, repeats: int) -> dict:
    hostnames, zones = inputs(random.Random(seed))
    rules = ingest.SuffixRuleSet.bundled()
    found = {}

    def registrable() -> None:
        found["domains"] = list(dict.fromkeys(ingest.registrable_domain(h, rules)
                                              for h in hostnames))

    def fresh_bus(_repeat: int) -> transport.SimTransport:
        bus = transport.DatagramBus(clock=transport.ManualClock())
        authsim.build_fleet(bus, zones)
        return transport.SimTransport(bus, "ingest.client")

    def resolve(client: transport.SimTransport) -> None:
        found["universe"], found["stats"] = ingest.resolve_targets(
            found["domains"], PARENT, client, ingest.IngestConfig(include_ipv6=True),
            random.Random(seed))

    per_host = kit.per_call(registrable, repeats, len(hostnames))
    per_domain = kit.per_call(resolve, repeats, len(found["domains"]), setup=fresh_bus)
    return {"hostnames": len(hostnames), "domains": len(found["domains"]),
            "pairs": found["universe"].counts()["pairs"], **vars(found["stats"]),
            "registrable_us_median": round(per_host.median * 1e6, 3),
            "resolve_us_per_domain_median": round(per_domain.median * 1e6, 2)}


if __name__ == "__main__":
    kit.main(measure, repeats=5)
