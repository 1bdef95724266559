"""Time `encode_message` and `decode_message` on the messages a campaign exchanges.

Usage: PYTHONPATH=src python3 tools/bench_wire.py [--seed N] [--repeats N]

It builds seeded messages of seven shapes, through the public builders:

- probe-update: the scanner's probe, an UPDATE adding one A record at
  `<sentinel>.<zone>` (``scanner.build_probe``);
- a-answer: an authoritative answer to an A query, one A record;
- nxdomain: an NXDOMAIN answer with the zone's SOA as authority;
- ixfr-diff: an IXFR push of 50 records (RFC 1995 section 4): new SOA,
  old SOA, 23 deleted A records, new SOA, 23 added A records, new SOA;
- signed-update: a tenant's UPDATE adding one A record, signed with
  TSIG (``tsig.sign_message``), so it carries a TSIG record too;
- ixfr-push: the push of a one-record change to a secondary: new SOA,
  old SOA, new SOA, the added A record, new SOA;
- refused: a server's REFUSED reply to the scanner's probe, the probe's
  question and nothing else.

For each shape it encodes and then decodes the same messages, and it
decodes wire names of two to five labels on their own. It also makes
names three ways, by ``DnsName.from_text``, by ``prepend`` onto a zone
name and by decoding, and counts the bytes that each new name keeps
alive with ``tracemalloc`` (once per run: the count does not depend on
the host). It prints one JSON object: per shape, the median over the
repeats of the µs per encode and per decode; per name, the µs per
decode, ``hash``, ``from_text`` and ``prepend``; and the retained bytes
per name of each kind. The zptoolkit on PYTHONPATH is the one measured,
so the same command times two checkouts.
"""

from __future__ import annotations

import argparse
import json
import platform
import random
import statistics
import string
import time
import tracemalloc
from ipaddress import IPv4Address

from zptoolkit import tsig, wire
from zptoolkit.scanner import ProbeConfig, ProbeTarget, build_probe
from zptoolkit.wire import (AddRecord, DnsMessage, DnsName, Question, RClass, Rcode, ResourceRecord,
                            RType, SoaData, decode_message, encode_message, make_query, make_update)

MESSAGES = 500  # distinct messages per shape; each is timed ROUNDS times
ROUNDS = 4
NAMES = 2_000
DIFF_CHANGES = 23  # deleted and added records each, so 2 * 23 + 4 SOAs = 50 records
KEY = tsig.TsigKey(DnsName.from_text("tenant-key"), b"tenant-secret-0123456789")


def _label(rng: random.Random) -> str:
    return "".join(rng.choices(string.ascii_lowercase + string.digits, k=rng.randrange(3, 13)))


def _zone(rng: random.Random) -> DnsName:
    return DnsName.from_text(".".join(_label(rng) for _ in range(rng.randrange(2, 4))))


def _address(rng: random.Random) -> IPv4Address:
    return IPv4Address(rng.randrange(1 << 24, 224 << 24))


def _soa(zone: DnsName, serial: int) -> ResourceRecord:
    return ResourceRecord(zone, RType.SOA, RClass.IN, 3600,
                          SoaData(zone.prepend("ns1"), zone.prepend("hostmaster"),
                                  serial, 7200, 900, 1209600, 300))


def _response(query: DnsMessage, rcode: Rcode, **sections) -> DnsMessage:
    return DnsMessage(id=query.id, opcode=query.opcode, rcode=rcode, is_response=True,
                      authoritative=True, question=query.question, **sections)


def probe_update(rng: random.Random) -> DnsMessage:
    return build_probe(ProbeTarget(_zone(rng), "10.0.0.1"), ProbeConfig(), rng=rng)


def a_answer(rng: random.Random) -> DnsMessage:
    name = _zone(rng).prepend("www")
    query = make_query(name, RType.A, rng=rng)
    return _response(query, Rcode.NOERROR,
                     answers=(ResourceRecord(name, RType.A, RClass.IN, 300, _address(rng)),))


def nxdomain(rng: random.Random) -> DnsMessage:
    zone = _zone(rng)
    query = make_query(zone.prepend(_label(rng)), RType.A, rng=rng)
    return _response(query, Rcode.NXDOMAIN, authority=(_soa(zone, rng.randrange(1, 1 << 31)),))


def ixfr_diff(rng: random.Random) -> DnsMessage:
    zone = _zone(rng)
    serial = rng.randrange(1, 1 << 31)
    old, new = _soa(zone, serial), _soa(zone, serial + 1)
    deleted, added = (tuple(ResourceRecord(zone.prepend(_label(rng)), RType.A, RClass.IN, 300,
                                           _address(rng)) for _ in range(DIFF_CHANGES))
                      for _ in range(2))
    return DnsMessage(id=(serial + 1) & 0xFFFF, is_response=True, authoritative=True,
                      question=(Question(zone, RType.IXFR, RClass.IN),),
                      answers=(new, old, *deleted, new, *added, new))


def signed_update(rng: random.Random) -> DnsMessage:
    zone = _zone(rng)
    record = ResourceRecord(zone.prepend(_label(rng)), RType.A, RClass.IN, 300, _address(rng))
    update = make_update(zone, [AddRecord(record)], rng=rng)
    return tsig.sign_message(update, KEY, rng.randrange(1 << 31))


def ixfr_push(rng: random.Random) -> DnsMessage:
    zone = _zone(rng)
    serial = rng.randrange(1, 1 << 31)
    old, new = _soa(zone, serial), _soa(zone, serial + 1)
    added = ResourceRecord(zone.prepend(_label(rng)), RType.A, RClass.IN, 300, _address(rng))
    return DnsMessage(id=(serial + 1) & 0xFFFF, is_response=True, authoritative=True,
                      question=(Question(zone, RType.IXFR, RClass.IN),),
                      answers=(new, old, new, added, new))


def refused(rng: random.Random) -> DnsMessage:
    probe = probe_update(rng)
    return DnsMessage(id=probe.id, opcode=probe.opcode, rcode=Rcode.REFUSED, is_response=True,
                      question=probe.question)


SHAPES = {"probe-update": probe_update, "a-answer": a_answer, "nxdomain": nxdomain,
          "ixfr-diff": ixfr_diff, "signed-update": signed_update, "ixfr-push": ixfr_push,
          "refused": refused}


def per_call_us(fn, items: list) -> float:
    t0 = time.perf_counter()
    for _ in range(ROUNDS):
        for item in items:
            fn(item)
    return (time.perf_counter() - t0) * 1e6 / (ROUNDS * len(items))


def measure_shape(shape: str, seed: int, repeats: int) -> dict:
    rng = random.Random(f"{seed}:{shape}")
    messages = [SHAPES[shape](rng) for _ in range(MESSAGES)]
    blobs = [encode_message(m) for m in messages]
    if any(decode_message(b) != m for b, m in zip(blobs, messages)):
        raise SystemExit(f"{shape}: a message does not survive encode and decode")
    encode_us = [per_call_us(encode_message, messages) for _ in range(repeats)]
    decode_us = [per_call_us(decode_message, blobs) for _ in range(repeats)]
    first = messages[0]
    return {"shape": shape,
            "records": len(first.answers) + len(first.authority) + len(first.additional),
            "bytes_mean": round(statistics.mean(map(len, blobs)), 1),
            "encode_us_median": round(statistics.median(encode_us), 2),
            "decode_us_median": round(statistics.median(decode_us), 2)}


def retained_bytes(make, items: list) -> float:
    """Bytes that the names ``make`` builds from ``items`` keep alive, per name."""
    kept = [None] * len(items)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i, item in enumerate(items):
            kept[i] = make(item)
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return (after - before) / len(items)


def measure_names(seed: int, repeats: int) -> dict:
    rng = random.Random(f"{seed}:names")
    texts = [".".join(_label(rng) for _ in range(rng.randrange(2, 6))) for _ in range(NAMES)]
    names = [DnsName.from_text(text) for text in texts]
    # each name as a question's, followed by its type and class, so that a
    # decoded name is a slice of a larger message, as in a real decode
    encoded = [n.to_wire() + b"\x00\x01\x00\x01" for n in names]
    if [wire._read_name(e, 0)[0] for e in encoded] != names:
        raise SystemExit("names: a name does not survive encode and decode")
    zones = [_zone(rng) for _ in range(NAMES)]
    prepends = [(zone, _label(rng)) for zone in zones]

    def median_us(fn, items):
        return round(statistics.median(per_call_us(fn, items) for _ in range(repeats)), 3)

    return {"names": NAMES, "labels_mean": round(statistics.mean(map(len, names)), 2),
            "decode_us_median": median_us(lambda e: wire._read_name(e, 0), encoded),
            "hash_us_median": median_us(hash, names),
            "from_text_us_median": median_us(DnsName.from_text, texts),
            "prepend_us_median": median_us(lambda p: p[0].prepend(p[1]), prepends),
            "retained_bytes_per_name": {
                "from_text": round(retained_bytes(DnsName.from_text, texts), 1),
                "prepend": round(retained_bytes(lambda p: p[0].prepend(p[1]), prepends), 1),
                "decode": round(retained_bytes(lambda e: wire._read_name(e, 0)[0], encoded), 1)}}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()
    print(json.dumps({
        "python": platform.python_version(),
        "seed": args.seed,
        "repeats": args.repeats,
        "shapes": [measure_shape(shape, args.seed, args.repeats) for shape in SHAPES],
        "name": measure_names(args.seed, args.repeats),
    }, indent=2))


if __name__ == "__main__":
    main()
