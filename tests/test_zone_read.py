"""The zone read path: which names exist, and what a query for a missing one is told.

``ZoneConfig.has_node`` and the NXDOMAIN versus NOERROR/NODATA choice of a
server's answer are checked against a brute-force scan of the zone's owner
names (RFC 1034 §4.3.2, RFC 8020), on zones with owners one to four labels
below the apex, over every way a zone version is made.
"""

import dataclasses
from ipaddress import IPv4Address

from hypothesis import given, settings
from hypothesis import strategies as st

from zptoolkit import authsim
from zptoolkit.authsim import NameServer, Open, Primary, Secondary, ZoneConfig, make_soa
from zptoolkit.transport import SimDatagram
from zptoolkit.wire import (AddRecord, DeleteAllAtName, DeleteExactRecord, DeleteRRset, DnsName,
                            RClass, Rcode, ResourceRecord, RType, decode_message, encode_message,
                            make_query, make_update)

APEX = DnsName.from_text("example.com")
LABELS = (b"a", b"b", b"c")
ADDRESSES = [IPv4Address("192.0.2.1"), IPv4Address("192.0.2.2")]
SERVER, CLIENT = "10.0.0.1", "198.51.100.9"


def _cased(draw, labels) -> tuple[bytes, ...]:
    """``labels`` with each one drawn in lower or upper case."""
    return tuple(label.upper() if draw(st.booleans()) else label for label in labels)


@st.composite
def owner_names(draw):
    """A name one to four labels below the apex, in mixed case."""
    labels = draw(st.lists(st.sampled_from(LABELS), min_size=1, max_size=4))
    return DnsName(_cased(draw, labels) + _cased(draw, APEX.labels))


@st.composite
def records(draw):
    """An A or TXT record at a name below the apex; now and then an NS, which is a zone cut."""
    name = draw(owner_names())
    kind = draw(st.sampled_from(["A", "A", "A", "TXT", "NS"]))
    if kind == "A":
        return ResourceRecord(name, RType.A, RClass.IN, 300, draw(st.sampled_from(ADDRESSES)))
    if kind == "TXT":
        return ResourceRecord(name, RType.TXT, RClass.IN, 300, b"\x01x")
    return ResourceRecord(name, RType.NS, RClass.IN, 3600, APEX.prepend("ns1"))


@st.composite
def query_names(draw):
    """A name five labels below the apex at most, or at or above it, or beside it, in mixed case."""
    depth = draw(st.integers(-2, 5))
    if depth < 0:
        base = DnsName.from_text("example.org") if depth == -1 else APEX
        return DnsName(_cased(draw, base.labels[draw(st.integers(0, len(base))):]))
    labels = draw(st.lists(st.sampled_from(LABELS), min_size=depth, max_size=depth))
    return DnsName(_cased(draw, labels) + _cased(draw, APEX.labels))


def brute_has_node(zone: ZoneConfig, name: DnsName) -> bool:
    return any(owner.is_subdomain_of(name) for owner in zone.by_name)


def brute_answer(zone: ZoneConfig, name: DnsName) -> tuple[Rcode, bool]:
    """(rcode, authoritative) of an A query for ``name`` to a server holding only ``zone``."""
    if not name.is_subdomain_of(zone.apex):
        return Rcode.REFUSED, False
    if any(rr.rtype == RType.NS and rr.name != zone.apex and name.is_subdomain_of(rr.name)
           for rr in zone.records):
        return Rcode.NOERROR, False  # a referral
    if brute_has_node(zone, name):
        return Rcode.NOERROR, True
    return Rcode.NXDOMAIN, True


def answers(zone: ZoneConfig, names) -> list[tuple]:
    """For each name: has_node, then the rcode and AA flag of an A query answered by a server."""
    server = NameServer(SERVER, [zone])
    out = []
    for name in names:
        request = SimDatagram(CLIENT, SERVER, encode_message(make_query(name, RType.A, msg_id=1)))
        (reply,) = server.handle_datagram(request, 0.0)
        reply = decode_message(reply.payload)
        out.append((zone.has_node(name), reply.rcode, reply.authoritative))
    return out


def expected(zone: ZoneConfig, names) -> list[tuple]:
    return [(brute_has_node(zone, name), *brute_answer(zone, name)) for name in names]


def _changes(draw, zone: ZoneConfig) -> list:
    """One UPDATE's worth of adds and deletes, mostly at names the zone holds."""
    owners = [owner for owner in zone.by_name if owner != APEX]
    out = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["add", "add", "all", "rrset", "exact"]))
        if kind == "add" or not owners:
            out.append(AddRecord(draw(records())))
            continue
        name = draw(st.sampled_from(owners))
        name = DnsName(_cased(draw, name.labels))
        if kind == "all":
            out.append(DeleteAllAtName(name))
        elif kind == "rrset":
            out.append(DeleteRRset(name, draw(st.sampled_from([RType.A, RType.TXT, RType.NS]))))
        else:
            out.append(DeleteExactRecord(ResourceRecord(
                name, RType.A, RClass.IN, 300, draw(st.sampled_from(ADDRESSES)))))
    return out


@st.composite
def versions(draw):
    """A zone built from drawn records, then versions made from it by ``apply_update``,
    ``derive`` and ``dataclasses.replace``, each from one drawn earlier version."""
    base = [make_soa(APEX), ResourceRecord(APEX, RType.NS, RClass.IN, 3600, APEX.prepend("ns1"))]
    out = [ZoneConfig.build(APEX, Primary(), Open(), base + draw(st.lists(records(), max_size=8)))]
    for step in range(draw(st.integers(1, 6))):
        parent = draw(st.sampled_from(out))
        how = draw(st.sampled_from(["update", "update", "derive", "replace"]))
        if how == "update":
            zone, _ = authsim.apply_update(parent, make_update(APEX, _changes(draw, parent),
                                                               msg_id=step))
        elif how == "derive":
            pool = sorted((rr for rr in parent.records if rr.rtype != RType.SOA), key=repr)
            removed = draw(st.lists(st.sampled_from(pool), unique=True, max_size=3)) if pool else []
            # one TTL per type in ``records``, so no added record clashes with one held
            zone = parent.derive(removed, list(dict.fromkeys(draw(st.lists(records(), max_size=3)))))
        else:
            zone = dataclasses.replace(parent, role=Secondary("10.0.0.2"))
        out.append(zone)
    return out


@given(versions(), st.lists(query_names(), min_size=1, max_size=12))
@settings(max_examples=100, deadline=None)
def test_read_path_matches_a_brute_force_scan(zones, names):
    names = [*names, APEX, APEX.parent(), DnsName(()), *zones[-1].by_name,
             *(owner.parent() for owner in zones[-1].by_name if len(owner) > len(APEX))]
    for zone in zones:
        assert answers(zone, names) == expected(zone, names)


@given(versions(), st.lists(query_names(), min_size=1, max_size=12))
@settings(max_examples=60, deadline=None)
def test_a_later_version_never_changes_an_earlier_ones_answers(zones, names):
    # versions share their indexes: each one's answers are taken before and after
    # more versions are made from it, which add and drop names deep below the apex
    names = [*names, *(owner for zone in zones for owner in zone.by_name)]
    before = [answers(zone, names) for zone in zones]
    deep = APEX.prepend("b").prepend("deep").prepend("x")
    for zone in zones:
        authsim.apply_update(zone, make_update(APEX, [
            AddRecord(ResourceRecord(deep, RType.A, RClass.IN, 1, ADDRESSES[0])),
            *(DeleteAllAtName(owner) for owner in zone.by_name if owner != APEX)]))
        zone.derive([], [ResourceRecord(deep, RType.A, RClass.IN, 1, ADDRESSES[0])])
    assert [answers(zone, names) for zone in zones] == before


def test_empty_non_terminals_are_nodata_and_missing_names_nxdomain():
    deep = DnsName.from_text("x.y.Z.example.com")
    zone = ZoneConfig.build(APEX, Primary(), Open(), [
        make_soa(APEX), ResourceRecord(deep, RType.A, RClass.IN, 300, ADDRESSES[0])])
    names = [DnsName.from_text(t) for t in
             ("y.z.example.com", "Z.EXAMPLE.com", "x.y.z.example.com", "w.y.z.example.com",
              "q.example.com", "example.com", "com", ".", "example.org")]
    assert answers(zone, names) == [
        (True, Rcode.NOERROR, True), (True, Rcode.NOERROR, True), (True, Rcode.NOERROR, True),
        (False, Rcode.NXDOMAIN, True), (False, Rcode.NXDOMAIN, True),
        (True, Rcode.NOERROR, True), (True, Rcode.REFUSED, False),
        (True, Rcode.REFUSED, False), (False, Rcode.REFUSED, False)]
    # deleting the one deep owner removes its empty non-terminals with it
    gone, _ = authsim.apply_update(zone, make_update(APEX, [DeleteAllAtName(deep)]))
    assert [gone.has_node(n) for n in names[:3]] == [False, False, False]
    assert [zone.has_node(n) for n in names[:3]] == [True, True, True]


def test_zones_one_label_deep_share_one_empty_ancestor_index():
    # every benchmark zone looks like this: the index stays empty and is never copied
    hosts = [ResourceRecord(APEX.prepend(f"h{k}"), RType.A, RClass.IN, 300, ADDRESSES[0])
             for k in range(50)]
    zone = ZoneConfig.build(APEX, Primary(), Open(), [make_soa(APEX), *hosts])
    added, _ = authsim.apply_update(zone, make_update(APEX, [AddRecord(
        ResourceRecord(APEX.prepend("researchstudyzp"), RType.A, RClass.IN, 120, ADDRESSES[1]))]))
    assert zone._below == {} and added._below is zone._below
    deeper = added.derive([], [ResourceRecord(DnsName.from_text("a.b.example.com"), RType.A,
                                              RClass.IN, 300, ADDRESSES[0])])
    assert deeper._below == {DnsName.from_text("b.example.com"): 1} and added._below == {}
