"""Measure what one scanner exchange costs, and what the bus keeps of it.

Usage: PYTHONPATH=src python3 tools/bench_exchange.py [--seed N] [--repeats N]

It prints one JSON object with three measurements:

- probe_us: µs per ``run_probe`` on a small bus with one server per kind,
  the minimum over the repeats of a batch of probes, each repeat on a
  fresh bus. A refused probe is one exchange (a ``deny`` zone answers
  REFUSED), a vulnerable probe four (update, lookup, delete, re-check on
  an ``open`` zone), and a dark probe three sends that time out (no server
  at the address).
- tap_entry: what ``DatagramBus.send`` keeps per datagram in the tap:
  GC-tracked objects (``gc.get_objects()`` before and after) and retained
  bytes (``tracemalloc``), the payload included, over 2,000 datagrams of
  40-79 bytes, each payload made for its send, that the bus then drops.
- fleet_scan: the full (generation 2) collections that one ``run_scan``
  of a fleet-scan-shaped fleet triggers, counted and timed by
  ``gc.callbacks``: 10,000 one-zone servers under the four policy
  archetypes, 10% dark, 5-105 ms seeded one-way delays. Set-up is not
  counted.

The zptoolkit on PYTHONPATH is the one measured, so the same command
measures two checkouts.
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import random
import time
import tracemalloc
from ipaddress import IPv4Address

from zptoolkit import authsim, scanner, tsig
from zptoolkit.authsim import Deny, IpAcl, Open, Primary, SignedKey, ZoneConfig, make_soa
from zptoolkit.transport import DatagramBus, ManualClock, SimDatagram, SimTransport
from zptoolkit.wire import DnsName, RClass, ResourceRecord, RType

SCANNER = "scanner.client"
BATCH = {"refused": 2_000, "vulnerable": 500, "dark": 1_000}
SERVERS = {"refused": "10.0.0.1", "vulnerable": "10.0.0.2", "dark": "10.0.0.3"}
TAP_DATAGRAMS = 2_000
FLEET = 10_000
KEY = tsig.TsigKey(DnsName.from_text("fleet-key"), b"fleet-secret-0123456789")


def _zone(apex: DnsName, policy, size: int, rng: random.Random) -> ZoneConfig:
    ns = apex.prepend("ns1")
    records = [make_soa(apex), ResourceRecord(apex, RType.NS, RClass.IN, 3600, ns),
               ResourceRecord(ns, RType.A, RClass.IN, 3600, IPv4Address("192.0.2.53"))]
    for k in range(size - len(records)):
        records.append(ResourceRecord(apex.prepend(f"h{k}"), RType.A, RClass.IN, 300,
                                      IPv4Address(0xC6120000 + rng.randrange(1 << 17))))
    return ZoneConfig.build(apex, Primary(), policy, records)


def probe_us(seed: int, repeats: int) -> dict:
    """Minimum µs per probe of each kind over ``repeats`` batches."""
    out = {}
    cfg = scanner.ProbeConfig()
    for kind, batch in BATCH.items():
        best = float("inf")
        for repeat in range(repeats):
            rng = random.Random(f"{seed}:{kind}:{repeat}")
            bus = DatagramBus(clock=ManualClock(), rng=random.Random(seed))
            apex = DnsName.from_text("zone.example")
            authsim.build_fleet(bus, [(SERVERS["refused"], _zone(apex, Deny(), 8, rng)),
                                      (SERVERS["vulnerable"], _zone(apex, Open(), 8, rng))])
            client = SimTransport(bus, SCANNER)
            target = scanner.ProbeTarget(apex, SERVERS[kind])
            expected = {"refused": scanner.Verdict.NOT_VULNERABLE,
                        "vulnerable": scanner.Verdict.VULNERABLE_CONFIRMED,
                        "dark": scanner.Verdict.UNREACHABLE}[kind]
            if scanner.run_probe(target, cfg, client, bus.clock, rng).verdict is not expected:
                raise SystemExit(f"{kind}: the probe did not read {expected}")
            t0 = time.perf_counter()
            for _ in range(batch):
                scanner.run_probe(target, cfg, client, bus.clock, rng)
            best = min(best, (time.perf_counter() - t0) * 1e6 / batch)
        out[kind] = round(best, 2)
    return out


def tap_entry(seed: int) -> dict:
    """GC-tracked objects and bytes that the tap keeps per datagram sent."""
    rng = random.Random(f"{seed}:tap")
    # each send gets a payload of its own, as each encoded message is
    payloads = [bytearray(rng.randrange(256) for _ in range(rng.randrange(40, 80)))
                for _ in range(TAP_DATAGRAMS)]
    sources = [f"10.0.{i >> 8}.{i & 255}" for i in range(TAP_DATAGRAMS)]
    bus = DatagramBus(clock=ManualClock(), drop_filter=lambda dgram: True)
    gc.collect()
    objects = len(gc.get_objects())
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for source, payload in zip(sources, payloads):
            bus.send(SimDatagram(source, "10.0.0.1", bytes(payload)))
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    gc.collect()
    tracked = len(gc.get_objects()) - objects
    if len(bus.tap) != TAP_DATAGRAMS:
        raise SystemExit("the tap did not record every datagram")
    return {
        "gc_objects": round(tracked / TAP_DATAGRAMS, 3),
        "retained_bytes": round((after - before) / TAP_DATAGRAMS, 1),
        "payload_bytes": round(sum(map(len, payloads)) / TAP_DATAGRAMS, 1),
    }


def _fleet(seed: int):
    rng = random.Random(f"fleet:{seed}")
    dark = set(rng.sample(range(FLEET), FLEET // 10))
    fleet, targets, delays = [], [], {}
    for i in range(FLEET):
        apex = DnsName.from_text(f"zone{i}.example")
        address = f"10.{(i >> 16) & 0xFF}.{(i >> 8) & 0xFF}.{i & 0xFF}"
        choice = rng.randrange(4)
        if choice == 2:
            allowed = {SCANNER} if rng.random() < 0.5 else set()
            policy = IpAcl(frozenset(allowed | {"203.0.113.7"}))
        else:
            policy = (Deny(), Open(), None, SignedKey((KEY,)))[choice]
        targets.append(scanner.ProbeTarget(apex, address))
        zone = _zone(apex, policy, 4 + rng.randrange(9), rng)
        if i not in dark:
            fleet.append((address, zone))
            delays[address] = 0.005 + 0.1 * rng.random()

    def delay(dgram) -> float:
        return delays.get(dgram.destination, delays.get(dgram.source, 0.0))

    bus = DatagramBus(clock=ManualClock(), rng=random.Random(seed), delay_fn=delay)
    authsim.build_fleet(bus, fleet)
    return bus, targets


def fleet_scan(seed: int) -> dict:
    """Full collections during one fleet-scan-shaped ``run_scan``."""
    bus, targets = _fleet(seed)
    full, started = [], []

    def on_gc(phase: str, info: dict) -> None:
        if info["generation"] != 2:
            return
        if phase == "start":
            started.append(time.perf_counter())
        else:
            full.append(time.perf_counter() - started.pop())

    gc.collect()
    gc.callbacks.append(on_gc)
    try:
        t0 = time.perf_counter()
        result = scanner.run_scan(targets, scanner.ProbeConfig(), SimTransport(bus, SCANNER),
                                  clock=bus.clock, rng=random.Random(seed))
        scan_s = time.perf_counter() - t0
    finally:
        gc.callbacks.remove(on_gc)
    return {
        "pairs": len(result.outcomes),
        "tap_entries": len(bus.tap),
        "scan_s": round(scan_s, 3),
        "full_collections": len(full),
        "full_collection_s": round(sum(full), 3),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=7)
    args = parser.parse_args()
    print(json.dumps({
        "python": platform.python_version(),
        "seed": args.seed,
        "repeats": args.repeats,
        "probe_us_min": probe_us(args.seed, args.repeats),
        "tap_entry": tap_entry(args.seed),
        "fleet_scan": fleet_scan(args.seed),
    }, indent=2))


if __name__ == "__main__":
    main()
