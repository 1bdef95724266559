"""Whole-zone construction: ``ZoneConfig.build`` and the constructor's checks
and ancestor index, against the nested-dict build and the label walk over
every owner that they replaced, kept here as oracles.

Zones are drawn over owners at, one label below and several labels below
the apex, in mixed case, and now and then outside it (a parent, a sibling,
another tree, and a name whose bytes end with the apex's inside a label),
with repeated and clashing records, and SOAs and CNAMEs where they may not
be.
"""

import os
import pickle
import subprocess
import sys
from ipaddress import IPv4Address, IPv6Address
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from zptoolkit import authsim
from zptoolkit.authsim import Open, Primary, ZoneConfig, make_soa
from zptoolkit.wire import DnsName, MxData, RClass, ResourceRecord, RType

APEXES = [DnsName.from_text(t) for t in ("example.com", "Example.COM", "com")]
INSIDE = [DnsName.from_text(t) for t in (
    "example.com", "EXAMPLE.com", "www.example.com", "WWW.example.com", "mail.example.com",
    "a.b.example.com", "x.A.b.example.com", "b.example.com")]  # deep, and an ancestor as owner
# beside the apex, a parent, another tree at the apex's length and at one label deeper's
OUTSIDE = [DnsName.from_text(t) for t in ("com", "badexample.com", "example.org", "x.example.org",
                                          "www.example.org")]
OUTSIDE.append(DnsName([b"a\x07example", b"com"]))  # ends with the apex's bytes, not at a label
RDATA = [
    (RType.A, IPv4Address("192.0.2.1")), (RType.A, IPv4Address("192.0.2.2")),
    (RType.AAAA, IPv6Address("2001:db8::1")),
    (RType.NS, DnsName.from_text("ns1.example.com")), (RType.NS, DnsName.from_text("NS1.example.com")),
    (RType.MX, MxData(10, DnsName.from_text("mail.example.com"))),
    (RType.TXT, b"\x01x"),
]
# what breaks a zone rule: a CNAME (beside anything else), an SOA off the apex or without SOA rdata
RULE_BREAKERS = [(RType.CNAME, DnsName.from_text("target.example.net")),
                 (RType.SOA, make_soa(APEXES[0]).rdata), (RType.SOA, b"")]


def oracle_build(records) -> dict:
    """The build this replaced: one dict per name, keyed by (type, rdata)."""
    index: dict = {}
    for rr in records:
        first = index.setdefault(rr.name, {}).setdefault((rr.rtype, rr.rdata), rr)
        if first is not rr and not authsim._same(first, rr):
            raise ValueError(authsim._CLASH.format(rr.name.to_text()))
    return {name: tuple(rrs.values()) for name, rrs in index.items()}


def oracle_index(apex: DnsName, by_name) -> dict:
    """The constructor's checks as they were, with ``labels_below`` over every
    owner; returns a fresh ancestor index."""
    depths = [name.labels_below(apex) for name in by_name]
    if min(depths, default=0) < 0:
        outside = next(name for name, d in zip(by_name, depths) if d < 0)
        raise ValueError(authsim._OUTSIDE.format(outside.to_text(), apex.to_text()))
    for name, rrs in by_name.items():  # the rules, owner by owner in index order
        if name == apex or any(rr.rtype in (RType.SOA, RType.CNAME) for rr in rrs):
            authsim._check_name(apex, name, rrs)
    if apex not in by_name:
        authsim._check_name(apex, apex, ())
    below: dict = {}
    for name, d in zip(by_name, depths):
        if d > 1:
            authsim._count_ancestors(below, name, 1, d)
    return below


@st.composite
def zone_records(draw):
    """Records at owners in the zone, with an apex SOA most of the time; now
    and then an owner outside it or a record that breaks a zone rule; and
    some given twice: as the same object, as an equal copy, or with another
    TTL or class. Returns the apex and the records."""
    apex = draw(st.sampled_from(APEXES))
    records = [make_soa(apex)] if draw(st.integers(0, 7)) else []
    for _ in range(draw(st.integers(0, 10))):
        rtype, rdata = draw(st.sampled_from(RDATA))
        records.append(ResourceRecord(draw(st.sampled_from(INSIDE)), rtype, RClass.IN, 300, rdata))
    if draw(st.integers(0, 3)) == 0:
        rtype, rdata = draw(st.sampled_from(RDATA))
        records.append(ResourceRecord(draw(st.sampled_from(OUTSIDE)), rtype, RClass.IN, 300, rdata))
    if draw(st.integers(0, 3)) == 0:
        rtype, rdata = draw(st.sampled_from(RULE_BREAKERS))
        records.append(ResourceRecord(draw(st.sampled_from(INSIDE)), rtype, RClass.IN, 300, rdata))
    for _ in range(draw(st.integers(0, 3)) if records else 0):
        again = draw(st.sampled_from(records))
        ttl, rclass = draw(st.sampled_from([(300, RClass.IN), (300, RClass.IN), (60, RClass.IN),
                                            (300, RClass.ANY)]))
        records.append(draw(st.sampled_from(
            [again, ResourceRecord(again.name, again.rtype, rclass, ttl, again.rdata)])))
    return apex, draw(st.permutations(records))


def _outcome(fn):
    try:
        return fn(), None
    except ValueError as exc:
        return None, str(exc)


SHALLOW = [make_soa(APEXES[0]),
           ResourceRecord(INSIDE[2], RType.A, RClass.IN, 300, RDATA[0][1]),
           ResourceRecord(INSIDE[2], RType.A, RClass.IN, 60, RDATA[0][1])]


# six owners that each hold two CNAMEs; a set of them iterates in an order
# that follows the hash seed
TWO_CNAMES_TEXT = "\n".join([
    "example.com. 3600 IN SOA ns1.example.com. hostmaster.example.com. 1 7200 900 1209600 86400",
    *(f"{owner}.example.com. 300 IN CNAME t{k}.example.net." for owner in "abcdef" for k in (1, 2))])
TWO_CNAMES = [make_soa(APEXES[0]), *(
    ResourceRecord(APEXES[0].prepend(owner), RType.CNAME, RClass.IN, 300,
                   DnsName.from_text(f"t{k}.example.net")) for owner in "abcdef" for k in (1, 2))]


@given(zone_records())
@example((APEXES[0], SHALLOW))  # a clash at a name given two records
# one record given with its type and class as members and again as plain numbers
@example((APEXES[0], [*SHALLOW[:2], ResourceRecord(INSIDE[2], 1, 1, 300, RDATA[0][1])]))
@example((APEXES[0], TWO_CNAMES))
@example((APEXES[0], [*SHALLOW[:2], ResourceRecord(OUTSIDE[-1], RType.A, RClass.IN, 1, b"x")]))
@example((APEXES[0], [*SHALLOW[:2], ResourceRecord(OUTSIDE[3], RType.A, RClass.IN, 1, b"x")]))
@settings(max_examples=400, deadline=None)
def test_build_matches_the_oracle(drawn):
    apex, records = drawn
    built, error = _outcome(lambda: ZoneConfig.build(apex, Primary(), Open(), records))
    by_name, expected_error = _outcome(lambda: oracle_build(records))
    if expected_error is None:
        below, expected_error = _outcome(lambda: oracle_index(apex, by_name))
    assert error == expected_error
    if error is not None:
        return
    assert list(built.by_name) == list(by_name)
    # the same key objects, holding the same record objects, in the same order
    for (name, rrs), (expected_name, expected) in zip(built.by_name.items(), by_name.items()):
        assert name is expected_name
        assert len(rrs) == len(expected) and all(a is b for a, b in zip(rrs, expected))
    assert dict(built._below) == below
    assert (built._below is authsim._NO_ANCESTORS) == (not below)


@given(zone_records())
@settings(max_examples=300, deadline=None)
def test_constructor_matches_the_oracle(drawn):
    apex, records = drawn
    by_name, error = _outcome(lambda: oracle_build(records))
    if error is not None:
        return
    zone, error = _outcome(lambda: ZoneConfig(apex, Primary(), Open(), by_name))
    below, expected_error = _outcome(lambda: oracle_index(apex, by_name))
    assert error == expected_error
    if error is None:
        assert zone.by_name is by_name and dict(zone._below) == below


def test_zones_without_deep_owners_share_one_empty_index_that_no_version_mutates():
    zone = ZoneConfig.build(APEXES[0], Primary(), Open(), SHALLOW[:2])
    empty = zone._below
    assert empty is authsim._NO_ANCESTORS and empty == {}
    assert ZoneConfig.build(APEXES[0], Primary(), Open(), SHALLOW[:2])._below is empty
    assert pickle.loads(pickle.dumps(zone))._below == {}
    deep = ResourceRecord(INSIDE[5], RType.A, RClass.IN, 1, b"x")
    deeper = zone.derive([], [deep])
    assert deeper._below == {INSIDE[7]: 1} and zone._below is empty and empty == {}
    assert deeper.derive([deep], [])._below == {} and deeper._below == {INSIDE[7]: 1}


def test_build_hashes_no_rdata_where_each_name_holds_one_record(monkeypatch):
    calls = {"rdata": 0, "labels_below": 0}
    original_hash, labels_below = IPv4Address.__hash__, DnsName.labels_below

    def counted_hash(self):
        calls["rdata"] += 1
        return original_hash(self)

    def counted_labels_below(self, other):
        calls["labels_below"] += 1
        return labels_below(self, other)

    apex = APEXES[0]
    hosts = [ResourceRecord(apex.prepend(f"h{k}"), RType.A, RClass.IN, 300,
                            IPv4Address(0xC0000200 + k)) for k in range(50)]
    monkeypatch.setattr(IPv4Address, "__hash__", counted_hash)
    monkeypatch.setattr(DnsName, "labels_below", counted_labels_below)
    zone = ZoneConfig.build(apex, Primary(), Open(), [make_soa(apex), *hosts])
    assert calls == {"rdata": 0, "labels_below": 0}
    # a second record at one name is matched there field by field
    ZoneConfig.build(apex, Primary(), Open(), [make_soa(apex), *hosts, hosts[3]])
    assert calls == {"rdata": 0, "labels_below": 0}
    assert len(zone.by_name) == 51


# the error of the seed given as the first argument, built by ``build`` and
# loaded as a fleet file, one line each
_FIRST_FAULT_SCRIPT = """
import sys
from zptoolkit.authsim import Open, Primary, ZoneConfig, parse_fleet_text
from zptoolkit.wire import DnsName, RClass, ResourceRecord, rdata_from_text, rtype_from_text
text = sys.argv[1]
records = []
for line in text.splitlines():
    name, ttl, _, rtype, rdata = line.split(None, 4)
    rtype = rtype_from_text(rtype)
    records.append(ResourceRecord(DnsName.from_text(name), rtype, RClass.IN, int(ttl),
                                  rdata_from_text(rtype, rdata)))
for load in (lambda: ZoneConfig.build(records[0].name, Primary(), Open(), records),
             lambda: parse_fleet_text("@server 192.0.2.53\\n" + text)):
    try:
        load()
    except ValueError as exc:
        print(exc)
"""


def test_a_zone_with_several_faults_names_its_first_owner_under_every_hash_seed():
    src = str(Path(authsim.__file__).parents[1])
    for seed in (0, 1, 2):
        out = subprocess.run(
            [sys.executable, "-c", _FIRST_FAULT_SCRIPT, TWO_CNAMES_TEXT], capture_output=True,
            text=True, check=True, env={**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": src},
        ).stdout.splitlines()
        assert out == ["a.example.com holds more than one CNAME",
                       "@server 192.0.2.53: line 1: a.example.com holds more than one CNAME"], seed
