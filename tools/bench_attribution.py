"""Time `AttributionMap.lookup` against the number of prefixes in the map.

Usage: PYTHONPATH=src python3 tools/bench_attribution.py [--seed N] [--repeats N]

For each map size it builds a seeded IPv4 map: 80% of the prefixes are
/16 to /22 blocks, and 20% are /24 more-specifics inside them. It then
looks up a fixed list of addresses, 10% of which no prefix covers (they
are drawn from 240.0.0.0/4, which no prefix reaches). It prints one JSON
object: per size, the median over the repeats of the µs per lookup and
of the ms to build the map. The zptoolkit on PYTHONPATH is the one
measured, so the same command times two checkouts.
"""

from __future__ import annotations

import argparse
import json
import platform
import random
import statistics
import time
from ipaddress import IPv4Address

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


def measure(size: int, seed: int, repeats: int) -> dict:
    prefixes, addresses = seeded_map_inputs(size, random.Random(seed * 1_000_003 + size))
    build_ms, lookup_us = [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        amap = AttributionMap(prefixes)
        t1 = time.perf_counter()
        unknown = sum(amap.lookup(a).asn == "unknown" for a in addresses)
        t2 = time.perf_counter()
        build_ms.append((t1 - t0) * 1e3)
        lookup_us.append((t2 - t1) * 1e6 / len(addresses))
    return {"prefixes": size, "lookups": len(addresses), "unattributed": unknown,
            "lookup_us_median": round(statistics.median(lookup_us), 2),
            "build_ms_median": round(statistics.median(build_ms), 2)}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()
    print(json.dumps({
        "python": platform.python_version(),
        "seed": args.seed,
        "repeats": args.repeats,
        "sizes": [measure(size, args.seed, args.repeats) for size in SIZES],
    }, indent=2))


if __name__ == "__main__":
    main()
