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
alive with ``tracemalloc``. It prints, per shape, the median over the
repeats of the µs per encode and per decode; per name, the µs per
decode, ``hash``, ``from_text`` and ``prepend``; and the retained bytes
per name of each kind.
"""

from __future__ import annotations

import random
import statistics

import _kit as kit
from zptoolkit import tsig, wire
from zptoolkit.scanner import ProbeConfig, ProbeTarget, build_probe
from zptoolkit.wire import (AddRecord, DnsMessage, DnsName, Question, RClass, Rcode, ResourceRecord,
                            RType, SoaData, decode_message, encode_message, make_query, make_update)

MESSAGES = 500  # distinct messages per shape; each is timed four times per repeat
NAMES = 2_000
DIFF_CHANGES = 23  # deleted and added records each, so 2 * 23 + 4 SOAs = 50 records
KEY = tsig.TsigKey(DnsName.from_text("tenant-key"), b"tenant-secret-0123456789")


def _soa(zone: DnsName, serial: int) -> ResourceRecord:
    return ResourceRecord(zone, RType.SOA, RClass.IN, 3600,
                          SoaData(zone.prepend("ns1"), zone.prepend("hostmaster"),
                                  serial, 7200, 900, 1209600, 300))


def _response(query: DnsMessage, rcode: Rcode, **sections) -> DnsMessage:
    return DnsMessage(id=query.id, opcode=query.opcode, rcode=rcode, is_response=True,
                      authoritative=True, question=query.question, **sections)


def probe_update(rng: random.Random) -> DnsMessage:
    return build_probe(ProbeTarget(kit.name(rng, 3), "10.0.0.1"), ProbeConfig(), rng=rng)


def a_answer(rng: random.Random) -> DnsMessage:
    name = kit.name(rng, 3).prepend("www")
    query = make_query(name, RType.A, rng=rng)
    return _response(query, Rcode.NOERROR,
                     answers=(ResourceRecord(name, RType.A, RClass.IN, 300, kit.address(rng)),))


def nxdomain(rng: random.Random) -> DnsMessage:
    zone = kit.name(rng, 3)
    query = make_query(zone.prepend(kit.label(rng)), RType.A, rng=rng)
    return _response(query, Rcode.NXDOMAIN, authority=(_soa(zone, rng.randrange(1, 1 << 31)),))


def ixfr_diff(rng: random.Random) -> DnsMessage:
    zone = kit.name(rng, 3)
    serial = rng.randrange(1, 1 << 31)
    old, new = _soa(zone, serial), _soa(zone, serial + 1)
    deleted, added = (tuple(ResourceRecord(zone.prepend(kit.label(rng)), RType.A, RClass.IN, 300,
                                           kit.address(rng)) for _ in range(DIFF_CHANGES))
                      for _ in range(2))
    return DnsMessage(id=(serial + 1) & 0xFFFF, is_response=True, authoritative=True,
                      question=(Question(zone, RType.IXFR, RClass.IN),),
                      answers=(new, old, *deleted, new, *added, new))


def signed_update(rng: random.Random) -> DnsMessage:
    zone = kit.name(rng, 3)
    record = ResourceRecord(zone.prepend(kit.label(rng)), RType.A, RClass.IN, 300, kit.address(rng))
    update = make_update(zone, [AddRecord(record)], rng=rng)
    return tsig.sign_message(update, KEY, rng.randrange(1 << 31))


def ixfr_push(rng: random.Random) -> DnsMessage:
    zone = kit.name(rng, 3)
    serial = rng.randrange(1, 1 << 31)
    old, new = _soa(zone, serial), _soa(zone, serial + 1)
    added = ResourceRecord(zone.prepend(kit.label(rng)), RType.A, RClass.IN, 300, kit.address(rng))
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


def measure_shape(shape: str, seed: int, repeats: int) -> dict:
    rng = random.Random(f"{seed}:{shape}")
    messages = [SHAPES[shape](rng) for _ in range(MESSAGES)]
    blobs = [encode_message(m) for m in messages]
    if any(decode_message(b) != m for b, m in zip(blobs, messages)):
        raise SystemExit(f"{shape}: a message does not survive encode and decode")
    first = messages[0]
    return {"shape": shape,
            "records": len(first.answers) + len(first.authority) + len(first.additional),
            "bytes_mean": round(statistics.mean(map(len, blobs)), 1),
            "encode_us_median": _median_us(encode_message, messages, repeats, 2),
            "decode_us_median": _median_us(decode_message, blobs, repeats, 2)}


def _median_us(fn, items: list, repeats: int, digits: int) -> float:
    return round(kit.over(fn, [(item,) for item in items], repeats).median * 1e6, digits)


def measure_names(seed: int, repeats: int) -> dict:
    rng = random.Random(f"{seed}:names")
    texts = [".".join(kit.label(rng) for _ in range(rng.randrange(2, 6))) for _ in range(NAMES)]
    names = [DnsName.from_text(text) for text in texts]
    # each name as a question's, followed by its type and class, so that a
    # decoded name is a slice of a larger message, as in a real decode
    encoded = [n.to_wire() + b"\x00\x01\x00\x01" for n in names]
    if [wire._read_name(e, 0)[0] for e in encoded] != names:
        raise SystemExit("names: a name does not survive encode and decode")
    zones = [kit.name(rng, 3) for _ in range(NAMES)]
    prepends = [(zone, kit.label(rng)) for zone in zones]
    return {"names": NAMES, "labels_mean": round(statistics.mean(map(len, names)), 2),
            "decode_us_median": _median_us(lambda e: wire._read_name(e, 0), encoded, repeats, 3),
            "hash_us_median": _median_us(hash, names, repeats, 3),
            "from_text_us_median": _median_us(DnsName.from_text, texts, repeats, 3),
            "prepend_us_median": _median_us(lambda p: p[0].prepend(p[1]), prepends, repeats, 3),
            "retained_bytes_per_name": {
                "from_text": kit.census(DnsName.from_text, texts),
                "prepend": kit.census(lambda p: p[0].prepend(p[1]), prepends),
                "decode": kit.census(lambda e: wire._read_name(e, 0)[0], encoded)}}


def measure(seed: int, repeats: int) -> dict:
    return {"shapes": [measure_shape(shape, seed, repeats) for shape in SHAPES],
            "name": measure_names(seed, repeats)}


if __name__ == "__main__":
    kit.main(measure, repeats=3)
