"""Time the zone write path, and count the hashing it does, per UPDATE; time
the scanner's probe cycle, whose last query reads the zone it has just written;
time and count the building of whole zones.

Usage: PYTHONPATH=src python3 tools/bench_zone_write.py [--seed N] [--repeats N]

It builds seeded zones of 8, 300 and 3,000 records (SOA, apex NS and A,
glue, then host A records), and of 20,000 for the probe cycle, and measures
six things:

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
- read: µs per probe cycle at 300, 3,000 and 20,000 records, all through
  ``NameServer.handle_datagram``: add the sentinel, query it, delete exactly
  it, then query it again. That last query is the first NXDOMAIN answer of
  a fresh zone version, and its µs are reported on their own. The same
  four messages on an 8-record zone are timed by ``tools/bench_exchange.py``
  (``server_us``), the 8-record reference, and not again here;
- read calls: Python-level function calls (``sys.setprofile`` call events)
  in that first NXDOMAIN answer, at 8, 300, 3,000 and 20,000 records. This
  count depends on neither the host nor the hash seed, and it grows with
  the zone when the answer scans the zone;
- build: µs per ``ZoneConfig.build`` from the zone's records, and per
  ``dataclasses.replace(zone, role=Secondary(...))``, the copy a secondary
  gets, at 8, 300 and 3,000 records; and per build and per replace, the
  same three ``__hash__`` counts and the number of ``DnsName.labels_below``
  calls, which depend on neither the host nor the hash seed.

It prints the medians over the repeats. The public ``ResourceRecord(...)``
constructor is timed beside ``wire._record`` by ``tools/bench_values.py``.
"""

from __future__ import annotations

import dataclasses
import random
import sys
import time
from collections import Counter
from contextlib import contextmanager
from ipaddress import IPv4Address

import _kit as kit
from zptoolkit import authsim, wire
from zptoolkit.authsim import NameServer, Open, Primary, Secondary, ZoneConfig, make_soa
from zptoolkit.transport import SimDatagram
from zptoolkit.wire import (AddRecord, DeleteExactRecord, DnsName, RClass, Rcode, ResourceRecord,
                            RType, decode_message, encode_message, make_query, make_update)

SIZES = (8, 300, 3_000)
READ_SIZES = (*SIZES, 20_000)
TIMED_READ_SIZES = READ_SIZES[1:]  # bench_exchange's server_us times the 8-record cycle
PAIRS = 500  # add+delete pairs per timed round
CYCLES = 50  # probe cycles per timed round
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
                            kit.address(rng))
    return (make_update(zone.apex, [AddRecord(record)], rng=rng),
            make_update(zone.apex, [DeleteExactRecord(record)], rng=rng))


def measure_apply(size: int, seed: int, repeats: int) -> dict:
    rng = random.Random(f"{seed}:apply:{size}")
    zone = seeded_zone(size, rng)
    add, delete = probe_pair(zone, rng)

    def one_pair():
        added, _ = authsim.apply_update(zone, add)
        authsim.apply_update(added, delete)

    return {"records": size,
            "add_delete_us_median": round(kit.over(one_pair, [()], repeats, PAIRS).median * 1e6, 2)}


def measure_push(size: int, seed: int, repeats: int) -> dict:
    rng = random.Random(f"{seed}:push:{size}")
    zone = seeded_zone(size, rng)
    primary = NameServer(PRIMARY, [zone])
    secondary = NameServer(SECONDARY, [dataclasses.replace(zone, role=Secondary(PRIMARY))])
    primary.register_secondary(zone.apex, SECONDARY)
    payloads = [encode_message(m) for m in probe_pair(zone, rng)]

    def updates():
        primary_s = secondary_s = 0.0
        for _ in range(PAIRS):
            for payload in payloads:
                t0 = time.perf_counter()
                _, push = primary.handle_datagram(SimDatagram(CLIENT, PRIMARY, payload), 0.0)
                t1 = time.perf_counter()
                secondary.handle_datagram(push, 0.0)
                primary_s += t1 - t0
                secondary_s += time.perf_counter() - t1
        return {"primary": primary_s / (2 * PAIRS), "secondary": secondary_s / (2 * PAIRS)}

    us = kit.per_call(updates, repeats, parts=True)
    if secondary.zones[zone.apex].records != primary.zones[zone.apex].records:
        raise SystemExit(f"push at {size} records: the secondary does not match its primary")
    return {"records": size,
            "primary_update_us_median": round(us["primary"].median * 1e6, 2),
            "secondary_apply_us_median": round(us["secondary"].median * 1e6, 2)}


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


def measure_read(size: int, seed: int, repeats: int) -> dict:
    steps = probe_cycle(size, seed)
    add, verify, delete, recheck = (decode_message(step().payload) for step in steps)
    if (add.rcode, delete.rcode, recheck.rcode) != (Rcode.NOERROR, Rcode.NOERROR, Rcode.NXDOMAIN) \
            or not verify.answers:
        raise SystemExit(f"probe cycle at {size} records: unexpected replies")
    add, verify, delete, recheck = steps

    def cycles():
        cycle_s = answer_s = 0.0
        for _ in range(CYCLES):
            t0 = time.perf_counter()
            add()
            verify()
            delete()
            t1 = time.perf_counter()
            recheck()
            t2 = time.perf_counter()
            cycle_s += t2 - t0
            answer_s += t2 - t1
        return {"cycle": cycle_s / CYCLES, "answer": answer_s / CYCLES}

    us = kit.per_call(cycles, repeats, parts=True)
    return {"records": size, "cycle_us_median": round(us["cycle"].median * 1e6, 2),
            "first_nxdomain_us_median": round(us["answer"].median * 1e6, 2)}


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
        out[f"{step}_us_median"] = round(kit.over(fn, [()], repeats, rounds).median * 1e6, 2)
    counts: Counter = Counter()
    with counted(counts):
        for step, fn in steps.items():
            counts.clear()
            fn()
            out[f"{step}_calls"] = {label: counts[label] for label in (*HASHED, "labels_below")}
    return out


def measure(seed: int, repeats: int) -> dict:
    return {"hashes_per_update": count_hashes(seed),
            "apply": [measure_apply(size, seed, repeats) for size in SIZES],
            "push": [measure_push(size, seed, repeats) for size in SIZES],
            "read": [measure_read(size, seed, repeats) for size in TIMED_READ_SIZES],
            "read_calls": [count_read_calls(size, seed) for size in READ_SIZES],
            "build": [measure_build(size, seed, repeats) for size in SIZES]}


if __name__ == "__main__":
    kit.main(measure, repeats=5)
