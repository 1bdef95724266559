"""Count the bytes that each value the simulator keeps in bulk retains, and
time the decoding of one record and each positional builder.

Usage: PYTHONPATH=src python3 tools/bench_values.py [--seed N] [--repeats N]

It makes each value 2,000 times from seeded inputs made beforehand, and
counts with ``tracemalloc`` the bytes that stay allocated, per value:

- a-record: ``ResourceRecord(name, A, IN, ttl, address)``, the name and the
  address made beforehand;
- a-record-decoded: ``wire._read_records`` of one encoded A record,
  counting the record, its name and its address, as a decoded UPDATE adds
  them to a zone;
- soa-record: ``authsim._with_serial``, the SOA record and rdata that each
  zone version gets, counting the new serial;
- datagram: ``SimDatagram(source, destination, payload)``, its three fields
  made beforehand;
- probe-outcome: ``ProbeOutcome`` of a confirmed probe, counting its three
  millisecond floats and its timestamp;
- zone-version: ``ZoneConfig._patch`` of a one-name zone (the apex, holding
  SOA, NS and A), the patched tuple made beforehand: the version and its
  copy of the owner-name index.

What the bus tap keeps per datagram is counted by ``tools/bench_exchange.py``
(``tap_entry``). It also times ``wire._read_records`` of one encoded A or
SOA record, and, on 2,000 seeded argument tuples, each builder that
``wire._builder`` makes (record, SOA rdata, question, message, datagram, tap
entry, zone version, remediation subject) and, beside the record builder,
the public ``ResourceRecord(...)`` constructor (record-constructor). It
prints the counts, the median µs per decoded record and the median ns per
builder call over the repeats.
"""

from __future__ import annotations

import random

import _kit as kit
from zptoolkit import analytics, authsim, transport, wire
from zptoolkit.authsim import Open, Primary, ZoneConfig, make_soa
from zptoolkit.scanner import ProbeOutcome, ProbeTarget, Verdict
from zptoolkit.transport import SimDatagram
from zptoolkit.wire import Opcode, Question, RClass, Rcode, ResourceRecord, RType

VALUES = 2_000


def _one_name_zone(rng: random.Random) -> ZoneConfig:
    apex = kit.name(rng)
    return ZoneConfig.build(apex, Primary(), Open(), [
        make_soa(apex), ResourceRecord(apex, RType.NS, RClass.IN, 3600, apex.prepend("ns1")),
        ResourceRecord(apex, RType.A, RClass.IN, 3600, kit.address(rng))])


def measure_retained(seed: int) -> dict:
    rng = random.Random(f"{seed}:values")
    names = [kit.name(rng) for _ in range(VALUES)]
    addresses = [kit.address(rng) for _ in range(VALUES)]
    a_records = [ResourceRecord(n, RType.A, RClass.IN, 300, a) for n, a in zip(names, addresses)]
    encoded = [wire._encode_record(rr) for rr in a_records]
    soa = make_soa(names[0], serial=1 << 20)
    payloads = [bytes(rng.randrange(256) for _ in range(rng.randrange(40, 80)))
                for _ in range(VALUES)]
    datagrams = [SimDatagram(f"10.0.{i >> 8}.{i & 255}", "10.0.0.1", p)
                 for i, p in enumerate(payloads)]
    times = [rng.uniform(0, 1e4) for _ in range(VALUES)]
    targets = [ProbeTarget(n, "10.0.0.1") for n in names]
    zones = [_one_name_zone(rng) for _ in range(VALUES)]
    patches = [(zone.apex, zone.records_at(zone.apex)[::-1]) for zone in zones]

    def outcome(i):
        t = times[i]
        return ProbeOutcome(targets[i], Verdict.VULNERABLE_CONFIRMED, Rcode.NOERROR, t * 1e3,
                            t * 2e3, t * 3e3, True, 1, 1, t + 1.0)

    indexes = list(range(VALUES))
    return {
        "a-record": kit.census(
            lambda i: ResourceRecord(names[i], RType.A, RClass.IN, 300, addresses[i]), indexes),
        "a-record-decoded": kit.census(lambda e: wire._read_records(e, 0, 1)[0][0], encoded),
        "soa-record": kit.census(lambda i: authsim._with_serial(soa, (1 << 20) + i), indexes),
        "datagram": kit.census(lambda i: SimDatagram(datagrams[i].source, "10.0.0.1",
                                                     payloads[i]), indexes),
        "probe-outcome": kit.census(outcome, indexes),
        "zone-version": kit.census(lambda i: zones[i]._patch([patches[i]]), indexes),
    }


def measure_decode(seed: int, repeats: int) -> dict:
    """Median µs per ``_read_records`` of one record, A or SOA."""
    rng = random.Random(f"{seed}:decode")
    names = [kit.name(rng) for _ in range(VALUES)]
    shapes = {
        "a": [ResourceRecord(n, RType.A, RClass.IN, 300, kit.address(rng)) for n in names],
        "soa": [make_soa(n, serial=rng.randrange(1, 1 << 31)) for n in names],
    }
    out = {}
    for shape, records in shapes.items():
        inputs = [(wire._encode_record(rr), 0, 1) for rr in records]
        if [wire._read_records(*args)[0][0] for args in inputs] != records:
            raise SystemExit(f"{shape}: a record does not survive encode and decode")
        out[shape] = round(kit.over(wire._read_records, inputs, repeats).median * 1e6, 3)
    return out


def measure_builders(seed: int, repeats: int) -> dict:
    """Median ns per call of each positional builder, and of the public record
    constructor, on seeded arguments."""
    rng = random.Random(f"{seed}:builders")
    names = [kit.name(rng) for _ in range(VALUES)]
    addresses = [kit.address(rng) for _ in range(VALUES)]
    times = [rng.uniform(0, 1e4) for _ in range(VALUES)]
    sources = [f"10.0.{i >> 8}.{i & 255}" for i in range(VALUES)]
    payloads = [bytes(rng.randrange(256) for _ in range(rng.randrange(40, 80)))
                for _ in range(VALUES)]
    datagrams = [SimDatagram(s, "10.0.0.1", p) for s, p in zip(sources, payloads)]
    questions = [Question(n, RType.A, RClass.IN) for n in names]
    zones = [_one_name_zone(rng) for _ in range(VALUES)]
    records = [(n, RType.A, RClass.IN, 300, a) for n, a in zip(names, addresses)]
    inputs = {
        "record": (wire._record, records),
        "record-constructor": (ResourceRecord, records),
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
    return {shape: round(kit.over(build, args, repeats).median * 1e9, 1)
            for shape, (build, args) in inputs.items()}


def measure(seed: int, repeats: int) -> dict:
    return {"retained_bytes_per_value": measure_retained(seed),
            "decode_record_us_median": measure_decode(seed, repeats),
            "builder_ns_median": measure_builders(seed, repeats)}


if __name__ == "__main__":
    kit.main(measure, repeats=5)
