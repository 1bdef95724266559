"""The zone write path: what one UPDATE leaves at each name, and what the
servers put on the wire because of it."""

import dataclasses
import hashlib
import json
import random
from ipaddress import IPv4Address, IPv6Address

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zptoolkit import authsim, transport
from zptoolkit.authsim import (IpAcl, NameServer, Open, Primary, Secondary, SignedKey, ZoneConfig,
                               make_soa)
from zptoolkit.scanner import ProbeConfig, ProbeTarget, Verdict, run_scan
from zptoolkit.tsig import sign_message
from zptoolkit.wire import (AddRecord, DeleteAllAtName, DeleteExactRecord, DeleteRRset,
                            DnsMessage, DnsName, MxData, Opcode, OversizeMessage, Question,
                            RClass, Rcode, ResourceRecord, RType, SoaData, TxtData,
                            decode_message, encode_message, make_query, make_update)

from conftest import LAB_KEY, SCANNER_SOURCE, basic_zone, random_fleet

# --- golden tap: a seeded mini hosting fleet, hashed datagram by datagram ---

# sha256 over every tap entry of ``_golden_fleet_run(seed=3)``; a change to what the
# servers send changes it. Recorded when secondaries began forwarding under ids of
# their own and transfers began carrying records in the primary's order; against the
# one before, only those ids and that order differ, entry by entry
GOLDEN_TAP_DIGEST = "415a8fce87a32ec766f93bb472255b57e4b3cf94d869498cea3949c428e47550"

TENANT = "198.51.100.77"
PAIRS = [("10.1.0.53", "10.2.0.53"), ("10.3.0.53", "10.4.0.53")]  # (primary, secondary)


def _qtype(payload: bytes) -> int:
    question = decode_message(payload).question
    return question[0].rtype if question else 0


def _golden_zone(apex: DnsName, policy, rng: random.Random) -> ZoneConfig:
    """SOA, apex NS and A, glue, then hosts: some with several A records, an AAAA,
    an MX, a TXT, a CNAME, and a delegated child with glue."""
    ns1 = apex.prepend("ns1")
    records = [
        make_soa(apex, serial=rng.randrange(1, 1000)),
        ResourceRecord(apex, RType.NS, RClass.IN, 3600, ns1),
        ResourceRecord(apex, RType.NS, RClass.IN, 3600, apex.prepend("ns2")),
        ResourceRecord(ns1, RType.A, RClass.IN, 3600, IPv4Address("192.0.2.53")),
        ResourceRecord(apex, RType.A, RClass.IN, 3600, IPv4Address("192.0.2.1")),
        ResourceRecord(apex, RType.MX, RClass.IN, 600, MxData(10, apex.prepend("mail"))),
        ResourceRecord(apex, RType.TXT, RClass.IN, 600, TxtData.from_text("v=spf1 -all")),
        ResourceRecord(apex.prepend("www"), RType.CNAME, RClass.IN, 300, apex),
    ]
    for k in range(rng.randrange(3, 40)):
        host = apex.prepend(f"h{k}")
        for _ in range(rng.choice((1, 1, 2, 3))):
            records.append(ResourceRecord(host, RType.A, RClass.IN, rng.choice((60, 300)),
                                          IPv4Address(0xC6120000 + rng.randrange(1 << 16))))
    records.append(ResourceRecord(apex.prepend("h0"), RType.AAAA, RClass.IN, 300,
                                  IPv6Address("2001:db8::1")))
    child = apex.prepend("child")
    records += [ResourceRecord(child, RType.NS, RClass.IN, 3600, child.prepend("ns")),
                ResourceRecord(child.prepend("ns"), RType.A, RClass.IN, 3600,
                               IPv4Address("192.0.2.99"))]
    return ZoneConfig.build(apex, Primary(), policy, records)


def _tenant_changes(apex: DnsName, zone: ZoneConfig, rng: random.Random) -> list:
    """One batch of the changes a tenant sends: adds, TTL replacements, exact,
    rrset and name deletes, apex deletes the server must refuse to carry out,
    SOA adds it must ignore, and no-ops."""
    hosts = sorted({rr.name for rr in zone.records if rr.rtype == RType.A and rr.name != apex})
    host = rng.choice(hosts)
    fresh = apex.prepend(f"t{rng.randrange(50)}")
    at_host = zone.rrset(host, RType.A)
    kind = rng.randrange(9)
    if kind == 0:
        return [AddRecord(ResourceRecord(fresh, RType.A, RClass.IN, 300,
                                         IPv4Address(0x0A640000 + rng.randrange(256))))]
    if kind == 1 and at_host:
        old = rng.choice(at_host)
        return [AddRecord(ResourceRecord(host, RType.A, RClass.IN, old.ttl + 7, old.rdata)),
                AddRecord(ResourceRecord(host, RType.A, RClass.IN, 120,
                                         IPv4Address(0x0A650000 + rng.randrange(256))))]
    if kind == 2 and at_host:
        return [DeleteExactRecord(rng.choice(at_host))]
    if kind == 3:
        return [DeleteRRset(host, RType.A), AddRecord(ResourceRecord(
            host, RType.A, RClass.IN, 60, IPv4Address(0x0A660000 + rng.randrange(256))))]
    if kind == 4:
        return [DeleteAllAtName(host)]
    if kind == 5:
        return [DeleteRRset(apex, RType.NS), DeleteAllAtName(apex),
                AddRecord(make_soa(apex, serial=999_999))]
    if kind == 6 and at_host:
        same = rng.choice(at_host)
        return [AddRecord(same), DeleteExactRecord(ResourceRecord(
            apex.prepend("absent"), RType.A, RClass.IN, 0, IPv4Address("192.0.2.250")))]
    if kind == 7:
        mx = ResourceRecord(apex, RType.MX, RClass.IN, 900, MxData(20, apex.prepend("mx2")))
        return [AddRecord(mx), DeleteExactRecord(mx), AddRecord(mx)]
    return [DeleteExactRecord(ResourceRecord(apex, RType.NS, RClass.IN, 0,
                                             apex.prepend("ns2"))),
            AddRecord(ResourceRecord(apex.prepend("www"), RType.A, RClass.IN, 60,
                                     IPv4Address("192.0.2.8")))]


def _golden_fleet_run(seed: int, journal_sink=None):
    """Two primaries with a secondary each, 16 zones on each pair: a scan of
    every zone on both servers, then TSIG-signed tenant updates, with the first
    push of one zone dropped so that its secondary resyncs by AXFR. Every server
    journals to ``journal_sink`` when one is given."""
    rng = random.Random(f"golden:{seed}")
    delay_rng = random.Random(seed)
    dropped = []

    def drop_one_push(dgram):
        if not dropped and (dgram.source, dgram.destination) == PAIRS[0] \
                and _qtype(dgram.payload) == RType.IXFR:
            dropped.append(dgram)
            return True
        return False

    bus = transport.DatagramBus(clock=transport.ManualClock(), rng=random.Random(seed),
                                drop_filter=drop_one_push,
                                delay_fn=lambda d: delay_rng.uniform(0.001, 0.02))
    fleet, zones = [], []
    policies = [Open(), IpAcl(frozenset({SCANNER_SOURCE, TENANT})), SignedKey((LAB_KEY,)),
                IpAcl(frozenset({"203.0.113.7"}))]
    for p, (primary, secondary) in enumerate(PAIRS):
        for j in range(16):
            apex = DnsName.from_text(f"z{j}.host{p}.example")
            zone = _golden_zone(apex, policies[(j + p) % 4], rng)
            fleet += [(primary, zone), (secondary, ZoneConfig(apex, Secondary(primary),
                                                              zone.policy, zone.by_name))]
            zones.append((apex, primary, secondary))
    servers = authsim.build_fleet(bus, fleet, honeypot=journal_sink is not None,
                                  journal_sink=journal_sink)
    scanner = transport.SimTransport(bus, SCANNER_SOURCE)
    targets = [ProbeTarget(apex, addr) for apex, *addrs in zones for addr in addrs]
    result = run_scan(targets, ProbeConfig(timeout=0.5), scanner, bus.clock, random.Random(seed))
    tenant = transport.ClientEndpoint(bus, TENANT)
    for k in range(120):
        apex, primary, secondary = rng.choice(zones)
        changes = _tenant_changes(apex, servers[primary].zones[apex], rng)
        msg = make_update(apex, changes, rng=rng)
        if isinstance(servers[primary].zones[apex].policy, SignedKey) or k % 3:
            msg = sign_message(msg, LAB_KEY, int(bus.clock.now()))
        transport.exchange_message(tenant, primary if k % 5 else secondary, msg, timeout=1.0)
    bus.pump()
    return bus, servers, zones, result, dropped


def _tap_digest(bus) -> str:
    digest = hashlib.sha256()
    for entry in bus.tap:
        d = entry.datagram
        digest.update(repr((entry.ts, d.source, d.destination)).encode() + d.payload)
    return digest.hexdigest()


def test_golden_tap_is_unchanged():
    bus, servers, zones, result, dropped = _golden_fleet_run(seed=3)
    assert dropped, "the run must lose one push, so that an AXFR follows"
    assert any((e.datagram.source, e.datagram.destination) == PAIRS[0]
               and _qtype(e.datagram.payload) == RType.AXFR for e in bus.tap)
    for apex, primary, secondary in zones:
        _assert_same_zone(servers[primary].zones[apex], servers[secondary].zones[apex])
    assert sum(o.vulnerable for o in result.outcomes) > 0
    assert _tap_digest(bus) == GOLDEN_TAP_DIGEST


# --- golden journal: the honeypot's JSONL file, byte for byte ---

# sha256 of the journal file ``_golden_journal_run`` leaves: accepted, refused and
# forwarded updates from the golden fleet run, then malformed and odd-named ones.
# Recorded while the sink still rendered each line with ``json.dumps``; re-recorded
# when name texts began to escape a label's backslash (b8f55ed3... before), and when
# they began to write a byte outside 0x21-0x7E as \DDD (3b7e30f8... before); each
# moved only the four lines of the odd-named update
GOLDEN_JOURNAL_DIGEST = "80a9541db5ecf6f3e67942b532877a1365649084480c9a44fb46fa2a82130bb4"


def _golden_journal_run(path) -> None:
    sink = authsim.open_journal(str(path))
    try:
        bus, servers, zones, _, _ = _golden_fleet_run(seed=3, journal_sink=sink)
        apex, primary, secondary = zones[0]
        tenant = transport.ClientEndpoint(bus, TENANT)
        odd = DnsName([b'q"uo\\te', "\u00e9t\u00e9".encode(), b"\xff\x00 ", *apex.labels])
        add = AddRecord(ResourceRecord(odd, RType.A, RClass.IN, 60, IPv4Address("192.0.2.7")))
        for payload, destination in [
                (b"\x00\x01junk", primary),                                 # undecodable
                (b"\x12\x34\x80\x00junk", secondary),                        # undecodable response
                (encode_message(make_update(apex, [add], msg_id=5)), primary),  # odd owner name
                (encode_message(make_update(odd, [add], msg_id=6)), primary),   # not authoritative
                (encode_message(DnsMessage(id=7, opcode=Opcode.UPDATE)), secondary),  # no zone
                (encode_message(make_update(apex, [add], msg_id=8)), secondary)]:  # forwarded
            tenant.send(payload, destination)
            bus.pump()
    finally:
        sink.close()


def test_golden_journal_is_unchanged(tmp_path):
    path = tmp_path / "journal.jsonl"
    _golden_journal_run(path)
    rcodes = {json.loads(line)["rcode"] for line in path.read_text().splitlines()}
    assert {"NOERROR", "REFUSED", "FORWARDED", "FORMERR", "DROPPED", "NOTAUTH"} <= rcodes
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_JOURNAL_DIGEST


# --- golden outcomes: every field of every outcome a seeded scan reports ---

# sha256 over ``to_json_obj()`` of every outcome of ``_golden_fleet_run(seed=3)``:
# verdicts, rcodes, phase times, send counts and start times. Recorded before the
# probe cycle was rewritten to build its messages and outcomes slot by slot
GOLDEN_OUTCOME_DIGEST = "7969dc998fea823b13c1dbdc4b5244aebac686ccd6ff2204024c1d80ac25c767"
# the same over ``_lossy_fleet_scan(seed=5)``. Re-recorded when a reply that does
# not answer began to be dropped and its request resent: 10.9.0.2, which answers
# every UPDATE under another id, is now unreachable once a retry meets the loss,
# and its extra sends move the loss draws of every probe after it. Re-recorded
# again when an unreachable outcome began to say ``cleanup_ok`` false, not null,
# since its probe may have landed: only the five unreachable outcomes changed
LOSSY_OUTCOME_DIGEST = "1014beabce5ed711a4f1c35e28ee7404448372da3feb0444179c1391146fe3fb"


def _outcome_digest(outcomes) -> str:
    digest = hashlib.sha256()
    for outcome in outcomes:
        digest.update(json.dumps(outcome.to_json_obj(), sort_keys=True).encode() + b"\n")
    return digest.hexdigest()


def _lossy_fleet_scan(seed: int):
    """A random_fleet scan on a bus that loses a fifth of all datagrams and
    delays each by 1-250 ms, beside targets that reach every other verdict: dark
    addresses, a zone too long for the sentinel, a server that answers queries
    with junk, one that answers an UPDATE under another id, one that accepts
    updates it never stores, one that never receives a delete, and a zone
    that already holds another sentinel address."""
    rng = random.Random(f"lossy:{seed}")
    delay_rng = random.Random(seed)
    cfg = ProbeConfig(timeout=0.5)

    def no_deletes(dgram) -> bool:  # the delete of the cleanup never reaches 10.9.0.4
        if dgram.destination != "10.9.0.4" or dgram.payload[2] & 0xF8 != Opcode.UPDATE << 3:
            return False
        return decode_message(dgram.payload).updates[0].rclass == RClass.NONE

    bus = transport.DatagramBus(clock=transport.ManualClock(), rng=random.Random(seed),
                                loss_rate=0.2, drop_filter=no_deletes,
                                delay_fn=lambda d: delay_rng.uniform(0.001, 0.25))
    _, targets, _ = random_fleet(bus, rng, 60)

    def answering(address, answer):
        def handle(dgram, now):
            msg = decode_message(dgram.payload)
            return [transport.SimDatagram(address, dgram.source, answer(msg))]
        bus.attach(address, handle)

    def reply(msg, msg_id=None, answers=()):
        return encode_message(dataclasses.replace(msg, id=msg.id if msg_id is None else msg_id,
                                                  is_response=True, answers=answers))

    answering("10.9.0.1", lambda m: reply(m) if m.opcode == Opcode.UPDATE else b"\x00junk")
    answering("10.9.0.2", lambda m: reply(m, msg_id=m.id ^ 1))
    answering("10.9.0.3", lambda m: reply(m))
    apex = DnsName.from_text("crowded.example")
    sentinel = apex.prepend(cfg.sentinel_label)
    authsim.build_fleet(bus, [
        ("10.9.0.4", basic_zone("nodelete.example", Open())),
        ("10.9.0.5", basic_zone("crowded.example", Open(), extra=[ResourceRecord(
            sentinel, RType.A, RClass.IN, 60, IPv4Address("198.51.100.1"))])),
    ])
    extra = [ProbeTarget(DnsName.from_text(f"odd{i}.example"), f"10.9.0.{i}") for i in (1, 2, 3)]
    extra += [ProbeTarget(DnsName.from_text("nodelete.example"), "10.9.0.4"),
              ProbeTarget(apex, "10.9.0.5"),
              ProbeTarget(DnsName.from_text("dark.example"), "10.9.0.6"),
              ProbeTarget(DnsName([b"a" * 63] * 3 + [b"b" * 51]), "10.9.0.5")]
    targets = targets + extra + [rng.choice(targets) for _ in range(5)]
    return run_scan(targets, cfg, transport.SimTransport(bus, SCANNER_SOURCE), bus.clock,
                    random.Random(seed))


def test_golden_outcomes_are_unchanged():
    _, _, _, result, _ = _golden_fleet_run(seed=3)
    assert _outcome_digest(result.outcomes) == GOLDEN_OUTCOME_DIGEST


def test_lossy_scan_outcomes_are_unchanged():
    result = _lossy_fleet_scan(seed=5)
    verdicts = {o.verdict for o in result.outcomes}
    assert verdicts == set(Verdict), f"the scan must reach every verdict: {verdicts}"
    assert _outcome_digest(result.outcomes) == LOSSY_OUTCOME_DIGEST


# --- differential test: apply_update and derive against the algorithm they replaced ---
#
# The oracle below is the dict-and-set algorithm the one-pass write path
# replaced, with two fixes: a CNAME add replaces the CNAME at its name
# (RFC 2136 §3.4.2.2), and the prescan refuses the meta types of §3.4.1.3.
# Its derive also refuses what the zone invariant forbids: two CNAMEs at a
# name, and two records sharing name, type and rdata but not TTL or class.

APEX = DnsName.from_text("example.com")
NAMES = [APEX, *(APEX.prepend(label) for label in ("a", "b", "w", "fresh"))]
ADDRESSES = [IPv4Address(f"192.0.2.{i}") for i in (1, 2, 3)]
TARGETS = [DnsName.from_text(t) for t in ("a.example.net", "b.example.net")]
NS_TARGETS = [APEX.prepend("ns1"), APEX.prepend("ns2"), APEX.prepend("ns3")]
_META = (RType.ANY, RType.AXFR, 253, 254)


def _oracle_prescan(apex, updates):
    for rr in updates:
        if not rr.name.is_subdomain_of(apex):
            return Rcode.NOTZONE
        if rr.rclass == RClass.IN:
            if rr.rtype in (*_META, RType.TSIG) or rr.rdata == b"":
                return Rcode.FORMERR
        elif rr.rclass == RClass.ANY:
            if rr.ttl != 0 or rr.rdata != b"" or rr.rtype in _META[1:]:
                return Rcode.FORMERR
        elif rr.rclass == RClass.NONE:
            if rr.ttl != 0 or rr.rtype in _META:
                return Rcode.FORMERR
        else:
            return Rcode.FORMERR
    return Rcode.NOERROR


def _oracle_check_name(apex, name, rrs):
    soas = [rr for rr in rrs if rr.rtype == RType.SOA]
    if len(soas) != (name == apex) or soas and not isinstance(soas[0].rdata, SoaData):
        raise ValueError("SOA")
    types = [rr.rtype for rr in rrs]
    if RType.CNAME in types and len(types) > 1:
        raise ValueError("CNAME")
    if len({(rr.rtype, rr.rdata) for rr in rrs}) != len(rrs):
        raise ValueError("clash")


def oracle_derive(zone, removed, added):
    """{name: records in order} for every touched name; raises ValueError."""
    removed, added = set(removed), list(added)
    touched = {rr.name: dict.fromkeys(zone.records_at(rr.name)) for rr in (*removed, *added)}
    for rr in removed:
        if rr not in touched[rr.name]:
            raise ValueError("not in the zone")
        del touched[rr.name][rr]
    for rr in added:
        touched[rr.name][rr] = None
    for name, new in touched.items():
        _oracle_check_name(zone.apex, name, new)
    return {name: tuple(new) for name, new in touched.items()}


def oracle_apply(zone, msg):
    """(rcode, serial after, {name: records in order} for every name the UPDATE touched)."""
    if len(msg.question) != 1 or msg.question[0].rtype != RType.SOA:
        return Rcode.FORMERR, zone.soa_serial, {}
    if msg.question[0].name != zone.apex:
        return Rcode.NOTZONE, zone.soa_serial, {}
    rc = _oracle_prescan(zone.apex, msg.updates)
    if rc != Rcode.NOERROR:
        return rc, zone.soa_serial, {}
    apex = zone.apex
    touched = {rr.name: {(old.rtype, old.rdata): old for old in zone.records_at(rr.name)}
               for rr in msg.updates}
    for rr in msg.updates:
        at_name = touched[rr.name]
        key = (rr.rtype, rr.rdata)
        if rr.rclass == RClass.IN:
            if rr.rtype == RType.SOA:
                continue
            types_at_name = {t for t, _ in at_name}
            if rr.rtype == RType.CNAME and types_at_name - {RType.CNAME}:
                continue
            if rr.rtype != RType.CNAME and RType.CNAME in types_at_name:
                continue
            if rr.rtype == RType.CNAME:
                for k in [k for k in at_name if k[0] == RType.CNAME and k != key]:
                    del at_name[k]
            at_name[key] = rr
        elif rr.rclass == RClass.ANY:
            protected = (RType.SOA, RType.NS) if rr.name == apex else ()
            for t, rdata in list(at_name):
                if t not in protected and rr.rtype in (RType.ANY, t):
                    del at_name[(t, rdata)]
        else:
            if rr.rtype == RType.SOA or key not in at_name:
                continue
            if rr.name == apex and rr.rtype == RType.NS and \
                    sum(t == RType.NS for t, _ in at_name) == 1:
                continue
            del at_name[key]
    before = [old for name in touched for old in zone.records_at(name)]
    after = [new for at_name in touched.values() for new in at_name.values()]
    before_set, after_set = set(before), set(after)
    if after_set == before_set:
        return Rcode.NOERROR, zone.soa_serial, {name: zone.records_at(name) for name in touched}
    soa = zone.soa
    new_soa = ResourceRecord(soa.name, soa.rtype, soa.rclass, soa.ttl, SoaData(
        soa.rdata.mname, soa.rdata.rname, (soa.rdata.serial + 1) & 0xFFFFFFFF, soa.rdata.refresh,
        soa.rdata.retry, soa.rdata.expire, soa.rdata.minimum))
    removed = [soa, *(rr for rr in before if rr not in after_set)]
    added = [*(rr for rr in after if rr not in before_set), new_soa]
    return Rcode.NOERROR, new_soa.rdata.serial, oracle_derive(zone, removed, added)


@st.composite
def zones(draw):
    """A valid zone over NAMES: the apex SOA and NS, A records at a few names (one
    name may hold a CNAME instead), an MX, with TTLs drawn from two values."""
    records = [make_soa(APEX, serial=draw(st.sampled_from([1, 2**32 - 1]))),
               ResourceRecord(APEX, RType.NS, RClass.IN, 3600, NS_TARGETS[0])]
    if draw(st.booleans()):
        records.append(ResourceRecord(APEX, RType.NS, RClass.IN, 3600, NS_TARGETS[1]))
    cname_at = draw(st.sampled_from([None, *NAMES[1:]]))
    for name in NAMES:
        if name == cname_at:
            records.append(ResourceRecord(name, RType.CNAME, RClass.IN, 300,
                                          draw(st.sampled_from(TARGETS))))
            continue
        for addr in draw(st.lists(st.sampled_from(ADDRESSES), unique=True, max_size=3)):
            records.append(ResourceRecord(name, RType.A, RClass.IN,
                                          draw(st.sampled_from([60, 300])), addr))
    if draw(st.booleans()):
        records.append(ResourceRecord(APEX, RType.MX, RClass.IN, 300, MxData(10, NAMES[1])))
    order = draw(st.permutations(records[1:]))
    return ZoneConfig.build(APEX, Primary(), Open(), [records[0], *order])


@st.composite
def update_records(draw):
    """One update record: adds (with TTL replacement likely), CNAME and SOA adds,
    rrset and name deletes, exact deletes at and off the apex, and meta types."""
    name = draw(st.sampled_from(NAMES))
    kind = draw(st.sampled_from(["add-a", "add-a", "add-a", "add-cname", "add-ns", "add-soa",
                                 "del-rrset", "del-all", "del-exact-a", "del-exact-a",
                                 "del-exact-ns", "del-exact-soa", "meta"]))
    if kind == "add-a":
        return ResourceRecord(name, RType.A, RClass.IN, draw(st.sampled_from([60, 300])),
                              draw(st.sampled_from(ADDRESSES)))
    if kind == "add-cname":
        return ResourceRecord(name, RType.CNAME, RClass.IN, 300, draw(st.sampled_from(TARGETS)))
    if kind == "add-ns":
        return ResourceRecord(name, RType.NS, RClass.IN, 3600, draw(st.sampled_from(NS_TARGETS)))
    if kind == "add-soa":
        return make_soa(name, serial=99)
    if kind == "del-rrset":
        rtype = draw(st.sampled_from([RType.A, RType.NS, RType.SOA, RType.CNAME, RType.MX]))
        return ResourceRecord(name, rtype, RClass.ANY, 0, b"")
    if kind == "del-all":
        return ResourceRecord(name, RType.ANY, RClass.ANY, 0, b"")
    if kind == "del-exact-a":
        return ResourceRecord(name, RType.A, RClass.NONE, 0, draw(st.sampled_from(ADDRESSES)))
    if kind == "del-exact-ns":
        return ResourceRecord(APEX, RType.NS, RClass.NONE, 0, draw(st.sampled_from(NS_TARGETS)))
    if kind == "del-exact-soa":
        return ResourceRecord(APEX, RType.SOA, RClass.NONE, 0, make_soa(APEX).rdata)
    rclass = draw(st.sampled_from([RClass.IN, RClass.ANY, RClass.NONE]))
    return ResourceRecord(name, draw(st.sampled_from([RType.ANY, RType.AXFR, 253, 254])), rclass,
                          0 if rclass != RClass.IN else 60, b"" if rclass != RClass.IN else b"\x01")


def _update(records, msg_id=1):
    return DnsMessage(id=msg_id, opcode=Opcode.UPDATE,
                      question=(Question(APEX, RType.SOA, RClass.IN),), authority=tuple(records))


def _check_against_oracle(zone, msg):
    rcode, serial, expected = oracle_apply(zone, msg)
    new, got_rcode = authsim.apply_update(zone, msg)
    assert got_rcode == rcode
    assert new.soa_serial == serial
    if rcode != Rcode.NOERROR or serial == zone.soa_serial:
        assert new is zone
    for name, records in expected.items():
        assert new.records_at(name) == records, name
    for name, records in zone.by_name.items():
        if name not in expected:
            assert new.records_at(name) is records  # untouched names are shared, not copied
    return new


@given(zones(), st.lists(st.lists(update_records(), min_size=1, max_size=6), min_size=1,
                         max_size=4))
@settings(max_examples=400, deadline=None)
def test_apply_update_matches_the_oracle(zone, batches):
    for i, records in enumerate(batches):
        zone = _check_against_oracle(zone, _update(records, i))


@given(zones(), st.data())
@settings(max_examples=300, deadline=None)
def test_derive_matches_the_oracle(zone, data):
    pool = sorted(zone.records, key=repr)
    removed = data.draw(st.lists(st.sampled_from(pool), max_size=4)) if pool else []
    ghosts = [ResourceRecord(NAMES[2], RType.A, RClass.IN, 60, ADDRESSES[0])]
    removed += data.draw(st.lists(st.sampled_from(ghosts), max_size=1))
    adds = data.draw(st.lists(update_records().filter(lambda rr: rr.rclass == RClass.IN),
                              max_size=4))
    try:
        expected = oracle_derive(zone, removed, adds)
    except ValueError:
        with pytest.raises(ValueError):
            zone.derive(removed, adds)
        return
    derived = zone.derive(removed, adds)
    for name, records in expected.items():
        assert derived.records_at(name) == records


A1, A2, A3 = ADDRESSES


@pytest.mark.parametrize("records, at_a, serial", [
    pytest.param([ResourceRecord(NAMES[1], RType.A, RClass.IN, 300, A1),
                  ResourceRecord(NAMES[1], RType.A, RClass.IN, 300, A3)],
                 [(A2, 60), (A1, 300), (A3, 300)], 2,
                 id="ttl-replaced-record-moves-behind-the-survivors"),
    pytest.param([ResourceRecord(NAMES[1], RType.A, RClass.NONE, 0, A1),
                  ResourceRecord(NAMES[1], RType.A, RClass.IN, 60, A1)],
                 [(A1, 60), (A2, 60)], 1, id="deleted-and-added-back-is-a-no-op"),
    pytest.param([ResourceRecord(NAMES[1], RType.A, RClass.IN, 60, A2),
                  ResourceRecord(NAMES[3], RType.A, RClass.NONE, 0, A3)],
                 [(A1, 60), (A2, 60)], 1, id="re-adding-and-deleting-nothing-is-a-no-op"),
])
def test_apply_update_order_and_serial(records, at_a, serial):
    """Where a TTL replacement lands and what a no-op does to the serial."""
    zone = ZoneConfig.build(APEX, Primary(), Open(), [
        make_soa(APEX), ResourceRecord(APEX, RType.NS, RClass.IN, 3600, NS_TARGETS[0]),
        ResourceRecord(NAMES[1], RType.A, RClass.IN, 60, A1),
        ResourceRecord(NAMES[1], RType.A, RClass.IN, 60, A2)])
    new = _check_against_oracle(zone, _update(records))
    assert [(rr.rdata, rr.ttl) for rr in new.records_at(NAMES[1])] == at_a
    assert new.soa_serial == serial


# --- a secondary stores what its primary stores, in its order ---

PRIMARY, SECONDARY, CLIENT = "10.5.0.1", "10.5.0.2", "198.51.100.5"


def _assert_same_zone(primary: ZoneConfig, secondary: ZoneConfig) -> None:
    """Same records at every name, in the same order, and the same answer to ANY at the apex."""
    assert primary.by_name.keys() == secondary.by_name.keys()
    for name in primary.by_name:
        assert secondary.records_at(name) == primary.records_at(name), name
    query = encode_message(make_query(primary.apex, RType.ANY, msg_id=7))
    answers = []
    for addr, zone in ((PRIMARY, primary), (SECONDARY, secondary)):
        (reply,) = NameServer(addr, [zone]).handle_datagram(
            transport.SimDatagram(CLIENT, addr, query), 0.0)
        answers.append(reply.payload)
    assert answers[0] == answers[1]


def _primary_and_secondary(zone: ZoneConfig, drop_filter=None):
    bus = transport.DatagramBus(clock=transport.ManualClock(), rng=random.Random(0),
                                drop_filter=drop_filter)
    primary, secondary = NameServer(PRIMARY, [zone]), NameServer(
        SECONDARY, [dataclasses.replace(zone, role=Secondary(PRIMARY))])
    primary.attach(bus)
    secondary.attach(bus)
    primary.register_secondary(zone.apex, SECONDARY)
    return bus, primary, secondary


def test_secondary_keeps_the_primary_order_after_an_apex_add():
    zone = ZoneConfig.build(APEX, Primary(), Open(), [
        make_soa(APEX), ResourceRecord(APEX, RType.NS, RClass.IN, 3600, NS_TARGETS[0]),
        ResourceRecord(APEX, RType.A, RClass.IN, 300, A1)])
    bus, primary, secondary = _primary_and_secondary(zone)
    txt = ResourceRecord(APEX, RType.TXT, RClass.IN, 300, TxtData.from_text("v=spf1 -all"))
    reply = transport.exchange_message(transport.ClientEndpoint(bus, CLIENT), PRIMARY,
                                       make_update(APEX, [AddRecord(txt)], msg_id=1), timeout=1.0)
    bus.pump()
    assert reply.rcode == Rcode.NOERROR
    assert [rr.rtype for rr in primary.zones[APEX].records_at(APEX)] == \
        [RType.NS, RType.A, RType.TXT, RType.SOA]
    _assert_same_zone(primary.zones[APEX], secondary.zones[APEX])


@given(zones(), st.lists(st.tuples(st.lists(update_records(), min_size=1, max_size=5),
                                   st.booleans()), min_size=1, max_size=6))
@settings(max_examples=150, deadline=None)
def test_secondary_matches_its_primary_name_by_name(zone, steps):
    """After each UPDATE, whether its IXFR push arrived or was lost and the next one
    made the secondary resynchronise by AXFR."""
    losing = [False]

    def lose_push(dgram):
        return losing[0] and dgram.source == PRIMARY and _qtype(dgram.payload) == RType.IXFR

    bus, primary, secondary = _primary_and_secondary(zone, lose_push)
    tenant = transport.ClientEndpoint(bus, CLIENT)
    for k, (records, lost) in enumerate(steps):
        losing[0] = lost
        tenant.send(encode_message(_update(records, k)), PRIMARY)
        bus.pump()
        if secondary.zones[APEX].soa_serial == primary.zones[APEX].soa_serial:
            _assert_same_zone(primary.zones[APEX], secondary.zones[APEX])
    # one more change, pushed for sure, brings a secondary that lost the last push back
    losing[0] = False
    txt = ResourceRecord(APEX, RType.TXT, RClass.IN, 60, TxtData.from_text("last"))
    tenant.send(encode_message(_update([txt], len(steps))), PRIMARY)
    bus.pump()
    _assert_same_zone(primary.zones[APEX], secondary.zones[APEX])


# --- IXFR pushes against the message they replaced, encoded whole ---


def _pushes_encoded_whole(server, old, new, updates):
    """``NameServer._push_diff`` as it was: the RFC 1995 message built as a
    ``DnsMessage`` and rendered by ``encode_message``, each SOA in each place."""
    secondaries = server.secondaries.get(new.apex)
    if not secondaries:
        return []
    old_soa, new_soa = old.soa, new.soa
    deleted, added = [new_soa, old_soa], [new_soa]
    seen = set()
    for update in updates:
        name = update.name
        if name in seen:
            continue
        seen.add(name)
        before, after = old.by_name.get(name, ()), new.by_name.get(name, ())
        if before is after:
            continue
        old_ids, new_ids = set(map(id, before)), set(map(id, after))
        deleted += [rr for rr in before if id(rr) not in new_ids and rr.rtype != RType.SOA]
        added += [rr for rr in after if id(rr) not in old_ids and rr.rtype != RType.SOA]
    added.append(new_soa)
    msg = DnsMessage(id=new_soa.rdata.serial & 0xFFFF, is_response=True, authoritative=True,
                     question=(Question(new.apex, RType.IXFR, RClass.IN),),
                     answers=(*deleted, *added))
    try:
        payload = encode_message(msg)
    except OversizeMessage:
        return server._zone_stream(new, msg.id, secondaries)
    return [transport.SimDatagram(server.address, addr, payload) for addr in secondaries]


def _wide_txt(count: int) -> list:
    """``count`` TXT records at the apex of ~280 wire bytes each: 235 of them
    fill a message, so a diff that deletes them all goes out as the zone."""
    return [ResourceRecord(APEX, RType.TXT, RClass.IN, 60, TxtData((b"%03d" % i + b"t" * 252,)))
            for i in range(count)]


def _assert_same_pushes(zone, msg):
    server = NameServer(PRIMARY, [zone])
    for secondary in (SECONDARY, "10.5.0.3"):
        server.register_secondary(APEX, secondary)
    new, _ = authsim.apply_update(zone, msg)
    if new is zone:
        return zone
    ours = server._push_diff(zone, new, msg.updates)
    theirs = _pushes_encoded_whole(server, zone, new, msg.updates)
    assert [(d.source, d.destination, d.payload) for d in ours] == \
        [(d.source, d.destination, d.payload) for d in theirs]
    return new


@given(zones(), st.sampled_from([0, 200, 250]), st.booleans(),
       st.lists(st.lists(update_records(), min_size=1, max_size=6), min_size=1, max_size=3))
@settings(max_examples=150, deadline=None)
def test_push_is_the_whole_message_encoded(zone, wide, clear_apex, batches):
    """Every push's bytes, for drawn zones and UPDATEs: one message when the diff
    fits (200 wide TXT records deleted do), the zone as a stream when not (250)."""
    if wide:
        zone = zone.derive([], _wide_txt(wide))
    if clear_apex:
        batches[0] = [ResourceRecord(APEX, RType.ANY, RClass.ANY, 0, b""), *batches[0]]
    for i, records in enumerate(batches):
        zone = _assert_same_pushes(zone, _update(records, i))


def test_a_record_too_large_for_any_message_raises_as_it_did():
    """An rdata past the 16-bit length field fits in no push: both ways raise."""
    zone = ZoneConfig.build(APEX, Primary(), Open(), [
        make_soa(APEX), ResourceRecord(APEX, RType.NS, RClass.IN, 3600, NS_TARGETS[0])])
    huge = ResourceRecord(APEX, RType.TXT, RClass.IN, 60, TxtData((b"t" * 255,) * 260))
    new, _ = authsim.apply_update(zone, _update([huge]))
    server = NameServer(PRIMARY, [zone])
    server.register_secondary(APEX, SECONDARY)
    for push in (server._push_diff, lambda *args: _pushes_encoded_whole(server, *args)):
        with pytest.raises(OversizeMessage):
            push(zone, new, [huge])


def test_owner_outside_the_apex_is_refused():
    outside = [ResourceRecord(DnsName.from_text(text), RType.A, RClass.IN, 300, A1)
               for text in ("www.other.org", "badexample.com", "com")]
    seed = "@policy open\nexample.com 3600 IN SOA ns1.example.com. hostmaster.example.com. " \
           "1 7200 900 1209600 86400\nwww.other.org 300 IN A 192.0.2.1\n"
    with pytest.raises(ValueError, match="outside"):
        authsim.parse_zone_text(seed)
    zone = ZoneConfig.build(APEX, Primary(), Open(), [
        make_soa(APEX), ResourceRecord(APEX, RType.NS, RClass.IN, 3600, NS_TARGETS[0])])
    for rr in outside:
        with pytest.raises(ValueError, match="outside"):
            ZoneConfig.build(APEX, Primary(), Open(), [make_soa(APEX), rr])
        with pytest.raises(ValueError, match="outside"):
            zone.derive([], [rr])
    # a secondary handed a transfer that holds one keeps serving its last good copy
    bus, primary, secondary = _primary_and_secondary(zone)
    good = secondary.zones[APEX]
    old_soa, new_soa = zone.soa, authsim._with_serial(zone.soa, 2)
    for qtype, answers in ((RType.IXFR, (new_soa, old_soa, new_soa, outside[0], new_soa)),
                           (RType.AXFR, (new_soa, *zone.records_at(APEX)[:1], outside[1],
                                         new_soa))):
        push = DnsMessage(id=2, is_response=True, authoritative=True,
                          question=(Question(APEX, qtype),), answers=answers)
        secondary.handle_datagram(transport.SimDatagram(PRIMARY, SECONDARY,
                                                        encode_message(push)), 0.0)
        assert secondary.zones[APEX] is good
    assert secondary.faults == 0
