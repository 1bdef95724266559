"""Time `AttributionMap.lookup` against the number of prefixes in the map.

Usage: PYTHONPATH=src python3 tools/bench_attribution.py [--seed N] [--repeats N]

For each map size it builds a seeded IPv4 map: 80% of the prefixes are
/16 to /22 blocks, and 20% are /24 more-specifics inside them. It then
looks up a fixed list of addresses, 10% of which no prefix covers (they
are drawn from 240.0.0.0/4, which no prefix reaches), each repeat on a
freshly built map, since a map keeps each answer. It prints, per size, the
median over the repeats of the µs per lookup and of the ms to build the map.
"""

from __future__ import annotations

import random
from ipaddress import IPv4Address

import _kit as kit
from zptoolkit.analytics import Attribution, AttributionMap

SIZES = (300, 3_000, 30_000)
ADDRESSES = 2_000


def seeded_map_inputs(size: int, rng: random.Random) -> tuple[list, list[str]]:
    """(prefixes, addresses) for one map size."""
    bases = []
    for _ in range(size - size // 5):
        length = rng.randrange(16, 23)
        network = rng.randrange(1 << 24, 224 << 24) >> (32 - length) << (32 - length)
        bases.append((network, length))
    specifics = []
    for _ in range(size // 5):
        network, length = rng.choice(bases)
        specifics.append((network | rng.randrange(1 << (24 - length)) << 8, 24))
    blocks = bases + specifics
    prefixes = [(f"{IPv4Address(network)}/{length}", Attribution(str(64500 + k), "ZZ", ()))
                for k, (network, length) in enumerate(blocks)]
    addresses = []
    for _ in range(ADDRESSES):
        if rng.random() < 0.1:
            addresses.append(str(IPv4Address((240 << 24) | rng.randrange(1 << 28))))
        else:
            network, length = rng.choice(blocks)
            addresses.append(str(IPv4Address(network | rng.randrange(1 << (32 - length)))))
    return prefixes, addresses


def measure_size(size: int, seed: int, repeats: int) -> dict:
    prefixes, addresses = seeded_map_inputs(size, random.Random(seed * 1_000_003 + size))
    unknown = []

    def lookups(amap: AttributionMap) -> None:
        unknown.append(sum(amap.lookup(a).asn == "unknown" for a in addresses))

    lookup = kit.per_call(lookups, repeats, len(addresses),
                          setup=lambda _: AttributionMap(prefixes))
    build = kit.per_call(lambda: AttributionMap(prefixes), repeats)
    return {"prefixes": size, "lookups": len(addresses), "unattributed": unknown[-1],
            "lookup_us_median": round(lookup.median * 1e6, 2),
            "build_ms_median": round(build.median * 1e3, 2)}


def measure(seed: int, repeats: int) -> dict:
    return {"sizes": [measure_size(size, seed, repeats) for size in SIZES]}


if __name__ == "__main__":
    kit.main(measure, repeats=3)
