"""Count the bytes that each value the simulator keeps in bulk retains, and
time the decoding of one record and each positional builder.

Usage: PYTHONPATH=src python3 tools/bench_values.py [--seed N] [--repeats N]

It makes each value 2,000 times from seeded inputs made beforehand, and
counts with ``tracemalloc`` the bytes that stay allocated, per value:

- a-record: ``ResourceRecord(name, A, IN, ttl, address)``, the name and the
  address made beforehand;
- a-record-decoded: ``wire._read_record`` on an encoded A record, counting
  the record, its name and its address, as a decoded UPDATE adds them to a
  zone;
- soa-record: ``authsim._with_serial``, the SOA record and rdata that each
  zone version gets, counting the new serial;
- datagram: ``SimDatagram(source, destination, payload)``, its three fields
  made beforehand;
- tap-entry: what ``DatagramBus.send`` keeps in the bus's tap per datagram,
  counting the timestamp and the payload; each send gets a payload of its
  own, as each encoded message does, and the bus drops the datagram;
- probe-outcome: ``ProbeOutcome`` of a confirmed probe, counting its three
  millisecond floats and its timestamp;
- zone-version: ``ZoneConfig._patch`` of a one-name zone (the apex, holding
  SOA, NS and A), the patched tuple made beforehand: the version and its
  copy of the owner-name index.

These counts depend on the Python build, not on the host, so they are
counted once per run. It also times ``wire._read_record`` on encoded A and
SOA records, and each builder that ``wire._builder`` makes (record, SOA
rdata, question, message, datagram, tap entry, zone version, remediation
subject) on 2,000 seeded argument tuples, with the garbage collector off.
It prints one JSON object with the counts, the median µs per decoded record
and the median ns per builder call over the repeats.
The zptoolkit on PYTHONPATH is the one measured, so the same command
measures two checkouts.
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import random
import statistics
import string
import time
import tracemalloc
from ipaddress import IPv4Address

from zptoolkit import analytics, authsim, transport, wire
from zptoolkit.authsim import Open, Primary, ZoneConfig, make_soa
from zptoolkit.scanner import ProbeOutcome, ProbeTarget, Verdict
from zptoolkit.transport import DatagramBus, ManualClock, SimDatagram
from zptoolkit.wire import DnsName, Opcode, Question, RClass, Rcode, ResourceRecord, RType

VALUES = 2_000
ROUNDS = 4  # timed passes over the records per repeat


def _label(rng: random.Random) -> str:
    return "".join(rng.choices(string.ascii_lowercase + string.digits, k=rng.randrange(3, 13)))


def _name(rng: random.Random) -> DnsName:
    return DnsName.from_text(".".join(_label(rng) for _ in range(rng.randrange(2, 5))))


def _address(rng: random.Random) -> IPv4Address:
    return IPv4Address(rng.randrange(1 << 24, 224 << 24))


def retained_bytes(make, items: list) -> float:
    """Bytes that the values ``make`` builds from ``items`` keep alive, per value."""
    kept = [None] * len(items)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i, item in enumerate(items):
            kept[i] = make(item)
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return round((after - before) / len(items), 1)


def _one_name_zone(rng: random.Random) -> ZoneConfig:
    apex = _name(rng)
    return ZoneConfig.build(apex, Primary(), Open(), [
        make_soa(apex), ResourceRecord(apex, RType.NS, RClass.IN, 3600, apex.prepend("ns1")),
        ResourceRecord(apex, RType.A, RClass.IN, 3600, _address(rng))])


def measure_retained(seed: int) -> dict:
    rng = random.Random(f"{seed}:values")
    names = [_name(rng) for _ in range(VALUES)]
    addresses = [_address(rng) for _ in range(VALUES)]
    a_records = [ResourceRecord(n, RType.A, RClass.IN, 300, a) for n, a in zip(names, addresses)]
    encoded = [wire._encode_record(rr) for rr in a_records]
    soa = make_soa(names[0], serial=1 << 20)
    payloads = [bytes(rng.randrange(256) for _ in range(rng.randrange(40, 80)))
                for _ in range(VALUES)]
    datagrams = [SimDatagram(f"10.0.{i >> 8}.{i & 255}", "10.0.0.1", p)
                 for i, p in enumerate(payloads)]
    times = [rng.uniform(0, 1e4) for _ in range(VALUES)]
    bus = DatagramBus(clock=ManualClock(), drop_filter=lambda dgram: True)
    unsent = list(map(bytearray, payloads))
    targets = [ProbeTarget(n, "10.0.0.1") for n in names]
    zones = [_one_name_zone(rng) for _ in range(VALUES)]
    patches = [(zone.apex, zone.records_at(zone.apex)[::-1]) for zone in zones]

    def outcome(i):
        t = times[i]
        return ProbeOutcome(targets[i], Verdict.VULNERABLE_CONFIRMED, Rcode.NOERROR, t * 1e3,
                            t * 2e3, t * 3e3, True, 1, 1, t + 1.0)

    def tapped(i):
        bus.send(SimDatagram(datagrams[i].source, "10.0.0.1", bytes(unsent[i])))

    indexes = list(range(VALUES))
    return {
        "a-record": retained_bytes(
            lambda i: ResourceRecord(names[i], RType.A, RClass.IN, 300, addresses[i]), indexes),
        "a-record-decoded": retained_bytes(lambda e: wire._read_record(e, 0)[0], encoded),
        "soa-record": retained_bytes(lambda i: authsim._with_serial(soa, (1 << 20) + i), indexes),
        "datagram": retained_bytes(lambda i: SimDatagram(datagrams[i].source, "10.0.0.1",
                                                         payloads[i]), indexes),
        "tap-entry": retained_bytes(tapped, indexes),
        "probe-outcome": retained_bytes(outcome, indexes),
        "zone-version": retained_bytes(lambda i: zones[i]._patch([patches[i]]), indexes),
    }


def median_per_call(call, inputs: list[tuple], repeats: int) -> float:
    """Median over ``repeats`` of the seconds per ``call(*args)`` over ``inputs``,
    with the collector off."""
    runs = []
    gc.collect()
    gc.disable()
    try:
        for _ in range(repeats):
            t0 = time.perf_counter()
            for _ in range(ROUNDS):
                for args in inputs:
                    call(*args)
            runs.append((time.perf_counter() - t0) / (ROUNDS * len(inputs)))
    finally:
        gc.enable()
    return statistics.median(runs)


def decode_us(encoded: list[bytes], repeats: int) -> float:
    """Median over ``repeats`` of the µs per ``_read_record``, with the collector off."""
    return round(median_per_call(wire._read_record, [(data, 0) for data in encoded],
                                 repeats) * 1e6, 3)


def measure_decode(seed: int, repeats: int) -> dict:
    rng = random.Random(f"{seed}:decode")
    names = [_name(rng) for _ in range(VALUES)]
    shapes = {
        "a": [ResourceRecord(n, RType.A, RClass.IN, 300, _address(rng)) for n in names],
        "soa": [make_soa(n, serial=rng.randrange(1, 1 << 31)) for n in names],
    }
    out = {}
    for shape, records in shapes.items():
        encoded = [wire._encode_record(rr) for rr in records]
        if [wire._read_record(e, 0)[0] for e in encoded] != records:
            raise SystemExit(f"{shape}: a record does not survive encode and decode")
        out[shape] = decode_us(encoded, repeats)
    return out


def measure_builders(seed: int, repeats: int) -> dict:
    """Median ns per call of each positional builder, on seeded arguments."""
    rng = random.Random(f"{seed}:builders")
    names = [_name(rng) for _ in range(VALUES)]
    addresses = [_address(rng) for _ in range(VALUES)]
    times = [rng.uniform(0, 1e4) for _ in range(VALUES)]
    sources = [f"10.0.{i >> 8}.{i & 255}" for i in range(VALUES)]
    payloads = [bytes(rng.randrange(256) for _ in range(rng.randrange(40, 80)))
                for _ in range(VALUES)]
    datagrams = [SimDatagram(s, "10.0.0.1", p) for s, p in zip(sources, payloads)]
    questions = [Question(n, RType.A, RClass.IN) for n in names]
    zones = [_one_name_zone(rng) for _ in range(VALUES)]
    inputs = {
        "record": (wire._record, [(n, RType.A, RClass.IN, 300, a)
                                  for n, a in zip(names, addresses)]),
        "soa": (wire._soa, [(n, n, rng.randrange(1, 1 << 31), 3600, 600, 86400, 300)
                            for n in names]),
        "question": (wire._question, [(n, RType.A, RClass.IN) for n in names]),
        "message": (wire._message, [(i, Opcode.QUERY, Rcode.NOERROR, False, False, (q,), (), (),
                                     (), 0) for i, q in enumerate(questions)]),
        "datagram": (transport._datagram, [(s, "10.0.0.1", p) for s, p in zip(sources, payloads)]),
        "tap-entry": (transport._tap_entry, list(zip(times, datagrams))),
        "zone-version": (authsim._zone_config, [(z.apex, z.role, z.policy, z.by_name, z._below)
                                                for z in zones]),
        "remediation-subject": (analytics._swept_subject, [(0.0, t, t + 1.0, "") for t in times]),
    }
    return {shape: round(median_per_call(build, args, repeats) * 1e9, 1)
            for shape, (build, args) in inputs.items()}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()
    print(json.dumps({
        "python": platform.python_version(),
        "seed": args.seed,
        "repeats": args.repeats,
        "retained_bytes_per_value": measure_retained(args.seed),
        "decode_record_us_median": measure_decode(args.seed, args.repeats),
        "builder_ns_median": measure_builders(args.seed, args.repeats),
    }, indent=2))


if __name__ == "__main__":
    main()
