"""Time the zone write path, and count the hashing it does, per UPDATE; time
the scanner's probe cycle, whose last query reads the zone it has just written;
time and count the building of whole zones.

Usage: PYTHONPATH=src python3 tools/bench_zone_write.py [--seed N] [--repeats N]

It builds seeded zones of 8, 300 and 3,000 records (SOA, apex NS and A,
glue, then host A records), and of 20,000 for the probe cycle, and measures
seven things:

- apply: µs per one-record add plus its exact delete, through
  ``authsim.apply_update``, at each zone size: the scanner's probe and
  cleanup;
- push: µs per update for a primary with one secondary, through the public
  datagram entry point: the primary decodes, applies and pushes the IXFR
  diff, and the secondary decodes the push and applies it;
- hashes: per one-record add and per delete through ``apply_update``, the
  number of ``DnsName.__hash__``, dataclass ``__hash__`` (the records and
  rdata classes of ``zptoolkit.wire``) and ``IPv4Address.__hash__`` calls,
  counted by wrapping those methods here. The counts do not depend on the
  host or the hash seed, so they are the numbers to compare;
- read: µs per probe cycle at 8, 300, 3,000 and 20,000 records, all through
  ``NameServer.handle_datagram``: add the sentinel, query it, delete exactly
  it, then query it again. That last query is the first NXDOMAIN answer of
  a fresh zone version, and its µs are reported on their own;
- read calls: Python-level function calls (``sys.setprofile`` call events)
  in that first NXDOMAIN answer, at each size. This count depends on
  neither the host nor the hash seed, and it grows with the zone when the
  answer scans the zone;
- build: µs per ``ZoneConfig.build`` from the zone's records, and per
  ``dataclasses.replace(zone, role=Secondary(...))``, the copy a secondary
  gets, at 8, 300 and 3,000 records; and per build and per replace, the
  same three ``__hash__`` counts and the number of ``DnsName.labels_below``
  calls, which depend on neither the host nor the hash seed;
- constructors: µs per ``ResourceRecord(...)``, the public constructor,
  against ``wire._record(...)``, the builder that skips ``__init__``.

Timed loops run with the garbage collector off, as timeit does. It prints
one JSON object with the medians over the repeats. The zptoolkit on
PYTHONPATH is the one measured, so the same command times two checkouts.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import platform
import random
import statistics
import sys
import time
import timeit
from collections import Counter
from contextlib import contextmanager
from ipaddress import IPv4Address

from zptoolkit import authsim, wire
from zptoolkit.authsim import NameServer, Open, Primary, Secondary, ZoneConfig, make_soa
from zptoolkit.transport import SimDatagram
from zptoolkit.wire import (AddRecord, DeleteExactRecord, DnsName, RClass, Rcode, ResourceRecord,
                            RType, decode_message, encode_message, make_query, make_update)

SIZES = (8, 300, 3_000)
READ_SIZES = (*SIZES, 20_000)
PAIRS = 500  # add+delete pairs per timed round
CYCLES = 50  # probe cycles per timed round
ROUNDS_PER_VALUE = 20_000  # records made per timed round of the constructors
RECORDS_PER_BUILD_ROUND = 30_000  # records per timed round of builds or replaces, at any size
PRIMARY, SECONDARY, CLIENT = "10.0.0.1", "10.0.0.2", "198.51.100.1"


def seeded_records(size: int, rng: random.Random) -> tuple[DnsName, list[ResourceRecord]]:
    """The apex and records of a seeded zone of ``size`` records."""
    apex = DnsName.from_text(f"z{rng.randrange(10**6)}.example")
    ns = apex.prepend("ns1")
    records = [make_soa(apex),
               ResourceRecord(apex, RType.NS, RClass.IN, 3600, ns),
               ResourceRecord(ns, RType.A, RClass.IN, 3600, IPv4Address("192.0.2.53")),
               ResourceRecord(apex, RType.A, RClass.IN, 3600, IPv4Address("192.0.2.1"))]
    for k in range(size - len(records)):
        records.append(ResourceRecord(apex.prepend(f"h{k}"), RType.A, RClass.IN, 300,
                                      IPv4Address(0xC6120000 + rng.randrange(1 << 17))))
    return apex, records


def seeded_zone(size: int, rng: random.Random) -> ZoneConfig:
    apex, records = seeded_records(size, rng)
    return ZoneConfig.build(apex, Primary(), Open(), records)


def probe_pair(zone: ZoneConfig, rng: random.Random):
    """The scanner's probe and its cleanup: add one A record, then delete exactly it."""
    record = ResourceRecord(zone.apex.prepend("researchstudyzp"), RType.A, RClass.IN, 120,
                            IPv4Address(rng.randrange(1 << 24, 224 << 24)))
    return (make_update(zone.apex, [AddRecord(record)], rng=rng),
            make_update(zone.apex, [DeleteExactRecord(record)], rng=rng))


def timed(fn, rounds: int) -> float:
    """Seconds for ``rounds`` calls of ``fn``, with the collector off."""
    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(rounds):
            fn()
        return time.perf_counter() - t0
    finally:
        gc.enable()


def measure_apply(size: int, seed: int, repeats: int) -> dict:
    rng = random.Random(f"{seed}:apply:{size}")
    zone = seeded_zone(size, rng)
    add, delete = probe_pair(zone, rng)

    def one_pair():
        added, _ = authsim.apply_update(zone, add)
        authsim.apply_update(added, delete)

    runs = [timed(one_pair, PAIRS) * 1e6 / PAIRS for _ in range(repeats)]
    return {"records": size, "add_delete_us_median": round(statistics.median(runs), 2)}


def measure_push(size: int, seed: int, repeats: int) -> dict:
    rng = random.Random(f"{seed}:push:{size}")
    zone = seeded_zone(size, rng)
    primary = NameServer(PRIMARY, [zone])
    secondary = NameServer(SECONDARY, [dataclasses.replace(zone, role=Secondary(PRIMARY))])
    primary.register_secondary(zone.apex, SECONDARY)
    payloads = [encode_message(m) for m in probe_pair(zone, rng)]
    spent = {"primary": 0.0, "secondary": 0.0}

    def one_update(payload: bytes):
        t0 = time.perf_counter()
        _, push = primary.handle_datagram(SimDatagram(CLIENT, PRIMARY, payload), 0.0)
        t1 = time.perf_counter()
        secondary.handle_datagram(push, 0.0)
        spent["primary"] += t1 - t0
        spent["secondary"] += time.perf_counter() - t1

    primary_us, secondary_us = [], []
    for _ in range(repeats):
        spent.update(primary=0.0, secondary=0.0)
        timed(lambda: [one_update(p) for p in payloads], PAIRS)
        primary_us.append(spent["primary"] * 1e6 / (2 * PAIRS))
        secondary_us.append(spent["secondary"] * 1e6 / (2 * PAIRS))
    if secondary.zones[zone.apex].records != primary.zones[zone.apex].records:
        raise SystemExit(f"push at {size} records: the secondary does not match its primary")
    return {"records": size,
            "primary_update_us_median": round(statistics.median(primary_us), 2),
            "secondary_apply_us_median": round(statistics.median(secondary_us), 2)}


def probe_cycle(size: int, seed: int):
    """The probe cycle's four steps on a server holding a seeded zone of ``size``
    records, each a function that hands its request to the server and returns
    the reply. The first step puts the zone as built back on the server, as a
    scan finds each zone once, so no cycle reuses what an earlier one left."""
    rng = random.Random(f"{seed}:read:{size}")
    zone = seeded_zone(size, rng)
    server = NameServer(PRIMARY, [zone])
    add, delete = probe_pair(zone, rng)
    query = make_query(zone.apex.prepend("researchstudyzp"), RType.A, msg_id=9)
    payloads = [encode_message(m) for m in (add, query, delete, query)]
    steps = []
    for payload in payloads:
        request = SimDatagram(CLIENT, PRIMARY, payload)
        steps.append(lambda request=request: server.handle_datagram(request, 0.0)[0])

    def first_step():
        server.add_zone(zone)
        return steps[0]()

    return [first_step, *steps[1:]]


def _check_cycle(steps, size: int) -> None:
    add, verify, delete, recheck = (decode_message(step().payload) for step in steps)
    if (add.rcode, delete.rcode, recheck.rcode) != (Rcode.NOERROR, Rcode.NOERROR, Rcode.NXDOMAIN) \
            or not verify.answers:
        raise SystemExit(f"probe cycle at {size} records: unexpected replies")


def measure_read(size: int, seed: int, repeats: int) -> dict:
    steps = probe_cycle(size, seed)
    _check_cycle(steps, size)
    add, verify, delete, recheck = steps
    spent = {"cycle": 0.0, "answer": 0.0}

    def one_cycle():
        t0 = time.perf_counter()
        add()
        verify()
        delete()
        t1 = time.perf_counter()
        recheck()
        t2 = time.perf_counter()
        spent["cycle"] += t2 - t0
        spent["answer"] += t2 - t1

    cycle_us, answer_us = [], []
    for _ in range(repeats):
        spent.update(cycle=0.0, answer=0.0)
        timed(one_cycle, CYCLES)
        cycle_us.append(spent["cycle"] * 1e6 / CYCLES)
        answer_us.append(spent["answer"] * 1e6 / CYCLES)
    return {"records": size, "cycle_us_median": round(statistics.median(cycle_us), 2),
            "first_nxdomain_us_median": round(statistics.median(answer_us), 2)}


def count_read_calls(size: int, seed: int) -> dict:
    """Python-level calls in the first NXDOMAIN answer of a fresh zone version."""
    add, _, delete, recheck = probe_cycle(size, seed)
    add()
    delete()
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(profile)
    try:
        recheck()
    finally:
        sys.setprofile(None)
    return {"records": size, "python_calls_per_first_nxdomain": calls}


def _hashed_classes() -> dict[str, list[type]]:
    records = [cls for cls in vars(wire).values()
               if dataclasses.is_dataclass(cls) and isinstance(cls, type)
               and cls.__module__ == wire.__name__ and cls.__hash__ is not None]
    return {"DnsName": [DnsName], "dataclass": records, "IPv4Address": [IPv4Address]}


HASHED = ("DnsName", "dataclass", "IPv4Address")


@contextmanager
def counted(counts: Counter):
    """Count, into ``counts``, each ``__hash__`` call of the classes of
    ``_hashed_classes`` by their label, and each ``DnsName.labels_below``
    call as ``labels_below``, by wrapping those methods until the block ends."""
    wrapped = [(cls, "__hash__", label) for label, classes in _hashed_classes().items()
               for cls in classes]
    wrapped.append((DnsName, "labels_below", "labels_below"))
    originals = []
    for cls, attr, label in wrapped:
        inherited = getattr(cls, attr)

        def counting(*args, _label=label, _method=inherited):
            counts[_label] += 1
            return _method(*args)

        originals.append((cls, attr, cls.__dict__.get(attr)))
        setattr(cls, attr, counting)
    try:
        yield
    finally:
        for cls, attr, original in reversed(originals):
            if original is None:
                delattr(cls, attr)
            else:
                setattr(cls, attr, original)


def count_hashes(seed: int) -> dict:
    """``__hash__`` calls per one-record add and per its delete on an 8-record zone."""
    rng = random.Random(f"{seed}:hashes")
    zone = seeded_zone(8, rng)
    add, delete = probe_pair(zone, rng)
    counts: Counter = Counter()
    out = {"records": len(zone.records)}
    with counted(counts):
        for step, msg in (("add", add), ("delete", delete)):
            counts.clear()
            zone, _ = authsim.apply_update(zone, msg)
            out[step] = {label: counts[label] for label in HASHED}
    return out


def measure_build(size: int, seed: int, repeats: int) -> dict:
    """µs per build and per replace of a seeded zone of ``size`` records, and
    the hashes and ``labels_below`` calls each makes."""
    rng = random.Random(f"{seed}:build:{size}")
    apex, records = seeded_records(size, rng)
    zone = ZoneConfig.build(apex, Primary(), Open(), records)
    role = Secondary(PRIMARY)
    steps = {"build": lambda: ZoneConfig.build(apex, Primary(), Open(), records),
             "replace": lambda: dataclasses.replace(zone, role=role)}
    rounds = RECORDS_PER_BUILD_ROUND // size
    out = {"records": size}
    for step, fn in steps.items():
        runs = [timed(fn, rounds) * 1e6 / rounds for _ in range(repeats)]
        out[f"{step}_us_median"] = round(statistics.median(runs), 2)
    counts: Counter = Counter()
    with counted(counts):
        for step, fn in steps.items():
            counts.clear()
            fn()
            out[f"{step}_calls"] = {label: counts[label] for label in (*HASHED, "labels_below")}
    return out


def measure_constructors(repeats: int) -> dict:
    """µs per A record made by the public constructor and by the builder."""
    names = {"ResourceRecord": ResourceRecord, "_record": wire._record,
             "name": DnsName.from_text("www.example.com"), "ip": IPv4Address("192.0.2.1")}
    out = {}
    for label in ("ResourceRecord", "_record"):
        timer = timeit.Timer(f"{label}(name, 1, 1, 300, ip)", globals=names)  # collector off
        runs = [timer.timeit(ROUNDS_PER_VALUE) * 1e6 / ROUNDS_PER_VALUE for _ in range(repeats)]
        out[f"{label}_us_median"] = round(statistics.median(runs), 3)
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()
    print(json.dumps({
        "python": platform.python_version(),
        "seed": args.seed,
        "repeats": args.repeats,
        "hashes_per_update": count_hashes(args.seed),
        "apply": [measure_apply(size, args.seed, args.repeats) for size in SIZES],
        "push": [measure_push(size, args.seed, args.repeats) for size in SIZES],
        "read": [measure_read(size, args.seed, args.repeats) for size in READ_SIZES],
        "read_calls": [count_read_calls(size, args.seed) for size in READ_SIZES],
        "build": [measure_build(size, args.seed, args.repeats) for size in SIZES],
        "constructors": measure_constructors(args.repeats),
    }, indent=2))


if __name__ == "__main__":
    main()
