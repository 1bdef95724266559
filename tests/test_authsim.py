"""Server-side RFC 2136 semantics: policies, prerequisites, update application,
query answering, propagation, forwarding, honeypot journaling, seed files."""

import dataclasses
import json
import os
import random
import subprocess
import sys
import tempfile
from ipaddress import IPv4Address, IPv6Address
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zptoolkit import authsim
from zptoolkit.authsim import (
    Deny,
    HoneypotEvent,
    IpAcl,
    NameServer,
    Open,
    Primary,
    Secondary,
    SignedKey,
    ZoneConfig,
    acl_check,
    apply_update,
    build_fleet,
    evaluate_prerequisites,
    make_soa,
    parse_fleet_text,
    parse_policy,
    parse_zone_text,
)
from zptoolkit.transport import DatagramBus, ManualClock, SimDatagram
from zptoolkit.tsig import TsigKey, sign_message
from zptoolkit.wire import (
    AddRecord,
    DeleteAllAtName,
    DeleteExactRecord,
    DeleteRRset,
    DnsMessage,
    DnsName,
    MxData,
    Opcode,
    Question,
    RClass,
    Rcode,
    ResourceRecord,
    RType,
    decode_message,
    encode_message,
    make_query,
    make_update,
)

from conftest import attach_server, basic_zone, client

APEX = DnsName.from_text("example.com")
SENTINEL = APEX.prepend("researchstudyzp")
PROBE_IP = IPv4Address("192.0.2.80")
KEY = TsigKey(DnsName.from_text("update-key"), b"update-key-secret-123456")


def a_record(name, address, ttl=3600):
    return ResourceRecord(name, RType.A, RClass.IN, ttl, IPv4Address(address))


def ns_record(name, target):
    return ResourceRecord(name, RType.NS, RClass.IN, 3600, target)


def add_sentinel(msg_id=1, ttl=120):
    rr = ResourceRecord(SENTINEL, RType.A, RClass.IN, ttl, PROBE_IP)
    return make_update(APEX, [AddRecord(rr)], msg_id=msg_id)


# --- read-path fixtures: cuts, glue, empty non-terminals, nested apexes ---

CUT_A = APEX.prepend("a")
CUT_B = CUT_A.prepend("b")
CUT_A_NS = ns_record(CUT_A, CUT_A.prepend("ns"))
CUT_A_GLUE = a_record(CUT_A.prepend("ns"), "192.0.2.7")
CUT_B_NS = ns_record(CUT_B, CUT_B.prepend("ns"))
CUT_B_GLUE = a_record(CUT_B.prepend("ns"), "192.0.2.8")
DEEP_A = a_record(APEX.prepend("host").prepend("deep"), "192.0.2.9")
SUB_APEX = APEX.prepend("sub")
APEX_SOA = make_soa(APEX)
APEX_RECORDS = (APEX_SOA, ns_record(APEX, APEX.prepend("ns1")), a_record(APEX, "192.0.2.1"))

# (extra records in example.com, extra zones on the server, qname, qtype,
#  rcode, authoritative, answers, authority, additional)
READ_PATH_CASES = {
    "empty-non-terminal": (
        [DEEP_A], [], APEX.prepend("host"), RType.A,
        Rcode.NOERROR, True, (), (APEX_SOA,), ()),
    "nested-cuts-refer-the-higher": (
        [CUT_A_NS, CUT_A_GLUE, CUT_B_NS, CUT_B_GLUE], [], CUT_B.prepend("www"), RType.A,
        Rcode.NOERROR, False, (), (CUT_A_NS,), (CUT_A_GLUE,)),
    "glue-name-below-cut-is-referred": (
        [CUT_A_NS, CUT_A_GLUE], [], CUT_A_GLUE.name, RType.A,
        Rcode.NOERROR, False, (), (CUT_A_NS,), (CUT_A_GLUE,)),
    "longer-apex-answers": (
        [], ["sub.example.com"], SUB_APEX, RType.SOA,
        Rcode.NOERROR, True, (make_soa(SUB_APEX),), (), ()),
    "any-returns-every-type": (
        [], [], APEX, RType.ANY,
        Rcode.NOERROR, True, APEX_RECORDS, (), ()),
}


class TestAclCheck:
    def test_open_allows_any_source(self):
        msg = add_sentinel()
        assert acl_check(Open(), "203.0.113.9", msg, 0) is msg

    def test_deny_refuses(self):
        assert acl_check(Deny(), "203.0.113.9", add_sentinel(), 0) is Rcode.REFUSED

    def test_ipacl_trusts_the_claimed_source(self):
        policy = IpAcl(frozenset({"192.0.2.10"}))
        msg = add_sentinel()
        # the source field is attacker-controlled; a forged listed value passes
        assert acl_check(policy, "192.0.2.10", msg, 0) is msg
        assert acl_check(policy, "203.0.113.9", msg, 0) is Rcode.REFUSED

    def test_ipacl_depends_only_on_source_field(self):
        policy = IpAcl(frozenset({"192.0.2.10"}))
        for msg in (add_sentinel(1), add_sentinel(999, ttl=7)):
            assert acl_check(policy, "192.0.2.10", msg, 0) is msg
            assert acl_check(policy, "198.51.100.1", msg, 0) is Rcode.REFUSED

    def test_signedkey_paths(self):
        policy = SignedKey((KEY,))
        unsigned = add_sentinel()
        assert acl_check(policy, "x", unsigned, 0) is Rcode.REFUSED  # NoSignature
        signed = sign_message(unsigned, KEY, now=100)
        allowed = acl_check(policy, "x", signed, 100)
        assert allowed == unsigned  # TSIG stripped before application
        wrong = sign_message(unsigned, TsigKey(DnsName.from_text("other"), b"0123456789abcdef"), 100)
        assert acl_check(policy, "x", wrong, 100) is Rcode.NOTAUTH
        stale = sign_message(unsigned, KEY, now=100)
        assert acl_check(policy, "x", stale, 100 + 301) is Rcode.NOTAUTH

    def test_ipacl_requires_nonempty_set(self):
        with pytest.raises(ValueError):
            IpAcl(frozenset())


class TestPrerequisites:
    # oracle: the RFC 2136 §3.2.5 decision table applied by hand
    def zone(self):
        www = ResourceRecord(APEX.prepend("www"), RType.A, RClass.IN, 60, PROBE_IP)
        return basic_zone("example.com", Open(), extra=[www])

    def prereq(self, name, rtype, rclass):
        return ResourceRecord(name, rtype, rclass, 0, b"")

    def test_empty_list_is_vacuously_ok(self):
        assert evaluate_prerequisites(self.zone(), []) == Rcode.NOERROR

    def test_rrset_exists_satisfied(self):
        p = self.prereq(APEX.prepend("www"), RType.A, RClass.ANY)
        assert evaluate_prerequisites(self.zone(), [p]) == Rcode.NOERROR

    def test_rrset_exists_violated(self):
        p = self.prereq(APEX.prepend("www"), RType.MX, RClass.ANY)
        assert evaluate_prerequisites(self.zone(), [p]) == Rcode.NXRRSET

    def test_rrset_absent_forms(self):
        exists = self.prereq(APEX.prepend("www"), RType.A, RClass.NONE)
        assert evaluate_prerequisites(self.zone(), [exists]) == Rcode.YXRRSET
        absent = self.prereq(APEX.prepend("www"), RType.MX, RClass.NONE)
        assert evaluate_prerequisites(self.zone(), [absent]) == Rcode.NOERROR

    def test_name_in_use_forms(self):
        in_use = self.prereq(APEX.prepend("www"), RType.ANY, RClass.ANY)
        assert evaluate_prerequisites(self.zone(), [in_use]) == Rcode.NOERROR
        missing = self.prereq(APEX.prepend("nope"), RType.ANY, RClass.ANY)
        assert evaluate_prerequisites(self.zone(), [missing]) == Rcode.NXDOMAIN

    def test_name_not_in_use_forms(self):
        free = self.prereq(APEX.prepend("nope"), RType.ANY, RClass.NONE)
        assert evaluate_prerequisites(self.zone(), [free]) == Rcode.NOERROR
        taken = self.prereq(APEX.prepend("www"), RType.ANY, RClass.NONE)
        assert evaluate_prerequisites(self.zone(), [taken]) == Rcode.YXDOMAIN

    def test_first_violation_wins_in_order(self):
        p1 = self.prereq(APEX.prepend("www"), RType.MX, RClass.ANY)   # NXRRSET
        p2 = self.prereq(APEX.prepend("www"), RType.ANY, RClass.NONE)  # YXDOMAIN
        assert evaluate_prerequisites(self.zone(), [p1, p2]) == Rcode.NXRRSET
        assert evaluate_prerequisites(self.zone(), [p2, p1]) == Rcode.YXDOMAIN

    def test_unsupported_and_malformed_forms(self):
        value_dep = ResourceRecord(APEX, RType.A, RClass.IN, 0, PROBE_IP)
        assert evaluate_prerequisites(self.zone(), [value_dep]) == Rcode.FORMERR
        nonzero_ttl = ResourceRecord(APEX, RType.A, RClass.ANY, 60, b"")
        assert evaluate_prerequisites(self.zone(), [nonzero_ttl]) == Rcode.FORMERR
        out_of_zone = self.prereq(DnsName.from_text("other.test"), RType.A, RClass.ANY)
        assert evaluate_prerequisites(self.zone(), [out_of_zone]) == Rcode.NOTZONE


class TestApplyUpdate:
    def test_add_inserts_and_bumps_serial(self):
        zone = basic_zone("example.com", Open())
        new_zone, rcode = apply_update(zone, add_sentinel())
        assert rcode == Rcode.NOERROR
        assert new_zone.rrset(SENTINEL, RType.A)
        assert new_zone.soa_serial == zone.soa_serial + 1
        assert new_zone.soa.rdata.serial == new_zone.soa_serial

    def test_idempotent_delete(self):
        zone, _ = apply_update(basic_zone("example.com", Open()), add_sentinel())
        delete = make_update(APEX, [DeleteRRset(SENTINEL, RType.A)], msg_id=2)
        after, rcode = apply_update(zone, delete)
        assert rcode == Rcode.NOERROR
        assert not after.rrset(SENTINEL, RType.A)
        assert after.soa_serial == zone.soa_serial + 1
        again, rcode = apply_update(after, delete)
        assert rcode == Rcode.NOERROR
        assert again.soa_serial == after.soa_serial  # no change, no bump
        assert again.records == after.records

    def test_apex_soa_and_ns_protected(self):
        # oracle: RFC 2136 §3.4.2.3, deletes never remove the apex SOA/NS
        zone = basic_zone("example.com", Open())
        for change in (DeleteRRset(APEX, RType.SOA), DeleteRRset(APEX, RType.NS),
                       DeleteAllAtName(APEX)):
            after, rcode = apply_update(zone, make_update(APEX, [change], msg_id=5))
            assert rcode == Rcode.NOERROR
            assert after.rrset(APEX, RType.SOA)
            assert after.rrset(APEX, RType.NS)

    def test_delete_all_at_apex_removes_other_types(self):
        zone = basic_zone("example.com", Open())
        after, _ = apply_update(zone, make_update(APEX, [DeleteAllAtName(APEX)], msg_id=5))
        assert not after.rrset(APEX, RType.A)

    def test_delete_exact_record(self):
        other = ResourceRecord(SENTINEL, RType.A, RClass.IN, 60, IPv4Address("198.51.100.1"))
        zone, _ = apply_update(basic_zone("example.com", Open()),
                               make_update(APEX, [AddRecord(other)], msg_id=1))
        zone, _ = apply_update(zone, add_sentinel(2))
        assert len(zone.rrset(SENTINEL, RType.A)) == 2
        ours = ResourceRecord(SENTINEL, RType.A, RClass.IN, 0, PROBE_IP)
        after, rcode = apply_update(zone, make_update(APEX, [DeleteExactRecord(ours)], msg_id=3))
        assert rcode == Rcode.NOERROR
        remaining = after.rrset(SENTINEL, RType.A)
        assert [rr.rdata for rr in remaining] == [IPv4Address("198.51.100.1")]

    def test_add_existing_triple_replaces_ttl(self):
        zone, _ = apply_update(basic_zone("example.com", Open()), add_sentinel(1, ttl=120))
        again, rcode = apply_update(zone, add_sentinel(2, ttl=999))
        assert rcode == Rcode.NOERROR
        (rr,) = again.rrset(SENTINEL, RType.A)
        assert rr.ttl == 999
        assert again.soa_serial == zone.soa_serial + 1
        same, _ = apply_update(again, add_sentinel(3, ttl=999))
        assert same.soa_serial == again.soa_serial  # byte-identical add is a no-op

    def test_zone_mismatch_is_notzone_and_leaves_zone_identical(self):
        zone = basic_zone("example.com", Open())
        foreign = make_update(DnsName.from_text("other.test"),
                              [DeleteRRset(SENTINEL, RType.A)], msg_id=1)
        after, rcode = apply_update(zone, foreign)
        assert rcode == Rcode.NOTZONE
        assert after is zone

    def test_out_of_zone_update_record_is_notzone(self):
        zone = basic_zone("example.com", Open())
        stray = ResourceRecord(DnsName.from_text("other.test"), RType.A, RClass.IN, 60, PROBE_IP)
        after, rcode = apply_update(zone, make_update(APEX, [AddRecord(stray)], msg_id=1))
        assert rcode == Rcode.NOTZONE
        assert after is zone

    def test_cname_exclusivity(self):
        zone = basic_zone("example.com", Open())
        cname = ResourceRecord(APEX.prepend("alias"), RType.CNAME, RClass.IN, 60,
                               DnsName.from_text("target.test"))
        zone, _ = apply_update(zone, make_update(APEX, [AddRecord(cname)], msg_id=1))
        a_at_alias = ResourceRecord(APEX.prepend("alias"), RType.A, RClass.IN, 60, PROBE_IP)
        after, rcode = apply_update(zone, make_update(APEX, [AddRecord(a_at_alias)], msg_id=2))
        assert rcode == Rcode.NOERROR  # silently ignored per RFC 2136 §3.4.2.2
        assert not after.rrset(APEX.prepend("alias"), RType.A)
        cname_at_www = ResourceRecord(APEX, RType.CNAME, RClass.IN, 60,
                                      DnsName.from_text("target.test"))
        after2, _ = apply_update(zone, make_update(APEX, [AddRecord(cname_at_www)], msg_id=3))
        assert not after2.rrset(APEX, RType.CNAME)

    def test_cname_add_replaces_the_cname_at_its_name(self):
        # oracle: RFC 2136 §3.4.2.2, "otherwise replace the CNAME Zone RR with the CNAME Update RR"
        www = APEX.prepend("www")
        first, second = (ResourceRecord(www, RType.CNAME, RClass.IN, 300, DnsName.from_text(t))
                         for t in ("a.example.net", "b.example.net"))
        zone = basic_zone("example.com", Open(), extra=[first])
        after, rcode = apply_update(zone, make_update(APEX, [AddRecord(second)], msg_id=1))
        assert rcode == Rcode.NOERROR
        assert after.records_at(www) == (second,)
        assert after.soa_serial == 2

    @pytest.mark.parametrize("rclass, rtype", [
        pytest.param(RClass.NONE, RType.ANY, id="none-any"),
        pytest.param(RClass.NONE, RType.AXFR, id="none-axfr"),
        pytest.param(RClass.NONE, 253, id="none-mailb"),
        pytest.param(RClass.NONE, 254, id="none-maila"),
        pytest.param(RClass.ANY, RType.AXFR, id="any-axfr"),
        pytest.param(RClass.ANY, 253, id="any-mailb"),
        pytest.param(RClass.ANY, 254, id="any-maila"),
        pytest.param(RClass.IN, 253, id="in-mailb"),
        pytest.param(RClass.IN, 254, id="in-maila"),
    ])
    def test_meta_type_update_records_are_formerr(self, rclass, rtype):
        # oracle: the RFC 2136 §3.4.1.3 prescan pseudocode
        rdata = b"\x01" if rclass == RClass.IN else b""
        rr = ResourceRecord(SENTINEL, rtype, rclass, 0, rdata)
        msg = DnsMessage(id=1, opcode=Opcode.UPDATE, question=(Question(APEX, RType.SOA),),
                         authority=(rr,))
        zone = basic_zone("example.com", Open())
        after, rcode = apply_update(zone, msg)
        assert rcode == Rcode.FORMERR
        assert after is zone

    def test_incoming_soa_add_is_ignored(self):
        zone = basic_zone("example.com", Open())
        rogue_soa = make_soa(APEX, serial=999)
        after, rcode = apply_update(zone, make_update(APEX, [AddRecord(rogue_soa)], msg_id=1))
        assert rcode == Rcode.NOERROR
        assert after.soa_serial == zone.soa_serial

    def test_changes_applied_in_order(self):
        zone = basic_zone("example.com", Open())
        msg = make_update(APEX, [
            AddRecord(ResourceRecord(SENTINEL, RType.A, RClass.IN, 60, PROBE_IP)),
            DeleteRRset(SENTINEL, RType.A),
        ], msg_id=1)
        after, rcode = apply_update(zone, msg)
        assert rcode == Rcode.NOERROR
        assert not after.rrset(SENTINEL, RType.A)


    def test_answer_order_does_not_depend_on_the_hash_seed(self):
        src = str(Path(authsim.__file__).parents[1])
        orders = {subprocess.run(
            [sys.executable, "-c", _ANSWER_ORDER_SCRIPT], capture_output=True, text=True,
            check=True, env={**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": src},
        ).stdout for seed in (1, 2, 3)}
        assert orders == {"192.0.2.1 192.0.2.2 192.0.2.3 192.0.2.4 192.0.2.5\n"}


# one five-record UPDATE at www.example.com, then the A answer's addresses in order
_ANSWER_ORDER_SCRIPT = """
from ipaddress import IPv4Address
from zptoolkit.authsim import NameServer, Open, Primary, ZoneConfig, make_soa
from zptoolkit.transport import SimDatagram
from zptoolkit.wire import (AddRecord, DnsName, RClass, ResourceRecord, RType, decode_message,
                            encode_message, make_query, make_update)
apex = DnsName.from_text("example.com")
www = apex.prepend("www")
server = NameServer("192.0.2.53", [ZoneConfig.build(apex, Primary(), Open(), [make_soa(apex)])])
adds = [AddRecord(ResourceRecord(www, RType.A, RClass.IN, 60, IPv4Address(f"192.0.2.{i}")))
        for i in range(1, 6)]
for msg in (make_update(apex, adds, msg_id=1), make_query(www, RType.A, msg_id=2)):
    (reply,) = server.handle_datagram(SimDatagram("198.51.100.1", "192.0.2.53",
                                                  encode_message(msg)), 0.0)
print(" ".join(str(rr.rdata) for rr in decode_message(reply.payload).answers))
"""


class TestZoneConfig:
    def test_exactly_one_soa_enforced(self):
        with pytest.raises(ValueError):
            ZoneConfig.build(APEX, Primary(), Open(), [])
        records = [make_soa(APEX), make_soa(APEX.prepend("sub"))]
        with pytest.raises(ValueError):
            ZoneConfig.build(APEX, Primary(), Open(), records)

    def test_serial_is_read_from_the_soa(self):
        zone = ZoneConfig.build(APEX, Primary(), Open(), [make_soa(APEX, serial=5)])
        assert zone.soa_serial == 5
        bumped = zone.derive([make_soa(APEX, serial=5)], [make_soa(APEX, serial=6)])
        assert bumped.soa_serial == 6 and zone.soa_serial == 5

    @pytest.mark.parametrize("ghost", [
        pytest.param(a_record(SENTINEL, "192.0.2.80"), id="name-not-in-zone"),
        pytest.param(a_record(APEX, "192.0.2.250"), id="other-rdata-at-a-name-in-zone"),
    ])
    def test_derive_rejects_removing_a_record_not_in_the_zone(self, ghost):
        zone = basic_zone("example.com", Open())
        with pytest.raises(ValueError, match="not in the zone"):
            zone.derive([ghost], [])

    def test_two_cnames_at_one_name_rejected(self):
        alias = APEX.prepend("alias")
        cnames = [ResourceRecord(alias, RType.CNAME, RClass.IN, 60, DnsName.from_text(t))
                  for t in ("a.example.net", "b.example.net")]
        with pytest.raises(ValueError, match="more than one CNAME"):
            ZoneConfig.build(APEX, Primary(), Open(), [make_soa(APEX), *cnames])
        zone = ZoneConfig.build(APEX, Primary(), Open(), [make_soa(APEX), cnames[0]])
        with pytest.raises(ValueError, match="more than one CNAME"):
            zone.derive([], [cnames[1]])

    def test_one_record_per_name_type_and_rdata(self):
        # the zone is a set: a second TTL for one record is a clash, not a second record
        short, long = a_record(SENTINEL, "192.0.2.80", ttl=60), a_record(SENTINEL, "192.0.2.80")
        with pytest.raises(ValueError, match="share type and rdata"):
            ZoneConfig.build(APEX, Primary(), Open(), [make_soa(APEX), short, long])
        zone = ZoneConfig.build(APEX, Primary(), Open(), [make_soa(APEX), short, short])
        assert zone.records_at(SENTINEL) == (short,)
        with pytest.raises(ValueError, match="share type and rdata"):
            zone.derive([], [long])
        assert zone.derive([short], [long]).records_at(SENTINEL) == (long,)

    def test_cname_coexistence_rejected(self):
        alias = APEX.prepend("alias")
        records = [
            make_soa(APEX),
            ResourceRecord(alias, RType.CNAME, RClass.IN, 60, DnsName.from_text("t.test")),
            ResourceRecord(alias, RType.A, RClass.IN, 60, PROBE_IP),
        ]
        with pytest.raises(ValueError):
            ZoneConfig.build(APEX, Primary(), Open(), records)


class TestQueries:
    def run_query(self, bus, endpoint, server_addr, name, rtype):
        raw = endpoint.exchange(encode_message(make_query(name, rtype, msg_id=4)),
                                server_addr, timeout=1.0)
        return decode_message(raw) if raw else None

    def test_answer_for_just_added_record(self, bus):
        server = attach_server(bus, "10.0.0.1", basic_zone("example.com", Open()))
        c = client(bus)
        c.exchange(encode_message(add_sentinel()), "10.0.0.1", 1.0)
        reply = self.run_query(bus, c, "10.0.0.1", SENTINEL, RType.A)
        assert reply.rcode == Rcode.NOERROR and reply.authoritative
        assert [rr.rdata for rr in reply.answers] == [PROBE_IP]

    def test_nxdomain_and_nodata(self, bus):
        attach_server(bus, "10.0.0.1", basic_zone("example.com", Open()))
        c = client(bus)
        reply = self.run_query(bus, c, "10.0.0.1", APEX.prepend("missing"), RType.A)
        assert reply.rcode == Rcode.NXDOMAIN
        assert reply.authority[0].rtype == RType.SOA
        reply = self.run_query(bus, c, "10.0.0.1", APEX, RType.MX)
        assert reply.rcode == Rcode.NOERROR and not reply.answers

    def test_unknown_zone_refused(self, bus):
        attach_server(bus, "10.0.0.1", basic_zone("example.com", Open()))
        c = client(bus)
        reply = self.run_query(bus, c, "10.0.0.1", DnsName.from_text("other.test"), RType.A)
        assert reply.rcode == Rcode.REFUSED

    def test_cname_answered_without_chasing(self, bus):
        alias = APEX.prepend("alias")
        extra = [ResourceRecord(alias, RType.CNAME, RClass.IN, 60, APEX.prepend("www")),
                 ResourceRecord(APEX.prepend("www"), RType.A, RClass.IN, 60, PROBE_IP)]
        attach_server(bus, "10.0.0.1", basic_zone("example.com", Open(), extra=extra))
        c = client(bus)
        reply = self.run_query(bus, c, "10.0.0.1", alias, RType.A)
        assert [rr.rtype for rr in reply.answers] == [RType.CNAME]

    @pytest.mark.parametrize(
        "extra, extra_zones, qname, qtype, rcode, authoritative, answers, authority, additional",
        list(READ_PATH_CASES.values()), ids=list(READ_PATH_CASES))
    def test_read_path(self, bus, extra, extra_zones, qname, qtype, rcode, authoritative,
                       answers, authority, additional):
        zones = [basic_zone("example.com", Open(), extra=extra)]
        zones += [basic_zone(apex, Open()) for apex in extra_zones]
        attach_server(bus, "10.0.0.1", *zones)
        reply = self.run_query(bus, client(bus), "10.0.0.1", qname, qtype)
        assert reply.rcode == rcode
        assert reply.authoritative is authoritative
        assert set(reply.answers) == set(answers) and len(reply.answers) == len(answers)
        assert reply.authority == authority
        assert reply.additional == additional

    def test_referral_glue_is_a_then_aaaa_for_each_target(self, bus):
        """A referral's glue, in bytes: for each NS target in the order the cut
        holds them, its A records and then its AAAA records, in the order the
        zone holds each type, whatever the types' order at the target."""
        ns1, ns2 = CUT_A.prepend("ns1"), CUT_A.prepend("ns2")

        def aaaa(name, address):
            return ResourceRecord(name, RType.AAAA, RClass.IN, 3600, IPv6Address(address))

        cut = (ns_record(CUT_A, ns2), ns_record(CUT_A, ns1))
        mx = ResourceRecord(ns1, RType.MX, RClass.IN, 3600, MxData(10, APEX))
        extra = [*cut, aaaa(ns1, "2001:db8::11"), mx, a_record(ns1, "192.0.2.11"),
                 aaaa(ns1, "2001:db8::12"), a_record(ns2, "192.0.2.21"),
                 aaaa(ns2, "2001:db8::21"), a_record(ns2, "192.0.2.22")]
        attach_server(bus, "10.0.0.1", basic_zone("example.com", Open(), extra=extra))
        query = make_query(CUT_A.prepend("www"), RType.A, msg_id=4)
        raw = client(bus).exchange(encode_message(query), "10.0.0.1", timeout=1.0)
        glue = (a_record(ns2, "192.0.2.21"), a_record(ns2, "192.0.2.22"),
                aaaa(ns2, "2001:db8::21"), a_record(ns1, "192.0.2.11"),
                aaaa(ns1, "2001:db8::11"), aaaa(ns1, "2001:db8::12"))
        assert raw == encode_message(DnsMessage(id=4, is_response=True, question=query.question,
                                                authority=cut, additional=glue))

    @pytest.mark.parametrize("questions", [0, 2])
    def test_query_without_exactly_one_question_gets_formerr(self, bus, questions):
        attach_server(bus, "10.0.0.1", basic_zone("example.com", Open()))
        query = DnsMessage(id=6, question=(Question(APEX, RType.A),) * questions)
        reply = decode_message(client(bus).exchange(encode_message(query), "10.0.0.1", 1.0))
        assert (reply.id, reply.rcode, reply.answers) == (6, Rcode.FORMERR, ())

    def test_malformed_payload_gets_formerr(self, bus):
        attach_server(bus, "10.0.0.1", basic_zone("example.com", Open()))
        c = client(bus)
        raw = c.exchange(b"\x12\x34garbage", "10.0.0.1", 1.0)
        assert decode_message(raw).rcode == Rcode.FORMERR
        assert decode_message(raw).id == 0x1234

    @pytest.mark.parametrize("flags, answered", [(0x8400, False), (0x0400, True)],
                             ids=["response", "request"])
    def test_malformed_response_gets_no_reply(self, flags, answered):
        # 12 header bytes promising one question, then 4 bytes of its name:
        # a truncated message, which is answered only when QR marks a request
        events = []
        server = NameServer("10.0.0.1", [basic_zone("example.com", Open())],
                            honeypot=True, journal_sink=events.append)
        payload = b"\x43\x21" + flags.to_bytes(2, "big") + b"\x00\x01" + bytes(6) + b"\x07exa"
        assert len(payload) == 16
        out = server.handle_datagram(SimDatagram("10.0.0.2", "10.0.0.1", payload), 0.0)
        if answered:
            [reply] = out
            assert decode_message(reply.payload).rcode == Rcode.FORMERR
        else:
            assert out == []
        # the journal names what went back: FORMERR, or nothing at all
        journaled = "FORMERR" if answered else "DROPPED"
        assert [(e.source, e.rcode) for e in events] == [("10.0.0.2", journaled)]
        assert server.faults == 0

    def test_violated_prerequisite_rejected_on_the_wire(self, bus):
        import dataclasses

        zone = basic_zone("example.com", Open())
        server = attach_server(bus, "10.0.0.1", zone)
        c = client(bus)
        prereq = ResourceRecord(APEX.prepend("www2"), RType.A, RClass.ANY, 0, b"")
        msg = dataclasses.replace(add_sentinel(), answers=(prereq,))
        raw = c.exchange(encode_message(msg), "10.0.0.1", 1.0)
        assert decode_message(raw).rcode == Rcode.NXRRSET
        assert server.zones[APEX].records == zone.records  # untouched on failure


class TestForwardingAndPropagation:
    def build_pair(self, bus, primary_policy, secondary_policy):
        primary_zone = basic_zone("example.com", primary_policy)
        secondary_zone = dataclasses.replace(primary_zone, role=Secondary("10.0.1.1"),
                                             policy=secondary_policy)
        primary = attach_server(bus, "10.0.1.1", primary_zone)
        secondary = attach_server(bus, "10.0.1.2", secondary_zone)
        primary.register_secondary(APEX, "10.0.1.2")
        return primary, secondary

    def test_update_to_primary_propagates_to_secondary(self, bus):
        primary, secondary = self.build_pair(bus, Open(), Deny())
        c = client(bus)
        raw = c.exchange(encode_message(add_sentinel()), "10.0.1.1", 1.0)
        assert decode_message(raw).rcode == Rcode.NOERROR
        assert primary.zones[APEX].records == secondary.zones[APEX].records
        assert secondary.zones[APEX].rrset(SENTINEL, RType.A)

    def test_update_to_secondary_forwards_and_both_converge(self, bus):
        # secondary accepts from anyone, primary only from the secondary
        primary, secondary = self.build_pair(bus, IpAcl(frozenset({"10.0.1.2"})), Open())
        c = client(bus)
        raw = c.exchange(encode_message(add_sentinel()), "10.0.1.2", 1.0)
        assert decode_message(raw).rcode == Rcode.NOERROR
        assert primary.zones[APEX].rrset(SENTINEL, RType.A)
        assert secondary.zones[APEX].rrset(SENTINEL, RType.A)
        assert primary.zones[APEX].records == secondary.zones[APEX].records

    def test_secondary_applies_no_local_write_when_refused_by_primary(self, bus):
        primary, secondary = self.build_pair(bus, Deny(), Open())
        c = client(bus)
        raw = c.exchange(encode_message(add_sentinel()), "10.0.1.2", 1.0)
        assert decode_message(raw).rcode == Rcode.REFUSED  # relayed verbatim
        assert not primary.zones[APEX].rrset(SENTINEL, RType.A)
        assert not secondary.zones[APEX].rrset(SENTINEL, RType.A)

    def test_secondary_own_policy_checked_before_forwarding(self, bus):
        primary, secondary = self.build_pair(bus, Open(), Deny())
        c = client(bus)
        raw = c.exchange(encode_message(add_sentinel()), "10.0.1.2", 1.0)
        assert decode_message(raw).rcode == Rcode.REFUSED
        assert not primary.zones[APEX].rrset(SENTINEL, RType.A)

    @pytest.mark.parametrize("forged, applied", [
        pytest.param([make_soa(SUB_APEX, serial=9), ns_record(APEX, APEX.prepend("ns1"))],
                     False, id="soa-off-the-apex"),
        pytest.param([make_soa(APEX, serial=9),
                      ResourceRecord(SENTINEL, RType.CNAME, RClass.IN, 60, APEX),
                      a_record(SENTINEL, "192.0.2.80")],
                     False, id="cname-beside-a"),
        pytest.param([ResourceRecord(APEX, RType.SOA, RClass.IN, 3600, b"")],
                     False, id="soa-without-rdata"),
        pytest.param([make_soa(APEX, serial=9), a_record(SENTINEL, "192.0.2.80"),
                      make_soa(APEX, serial=9)],
                     True, id="valid"),
    ])
    def test_forged_transfer_never_aborts_the_simulation(self, bus, forged, applied):
        # the bus lets any endpoint claim the primary's address
        _, secondary = self.build_pair(bus, Open(), Deny())
        before = secondary.zones[APEX]
        transfer = DnsMessage(id=9, is_response=True, authoritative=True,
                              question=(Question(APEX, RType.AXFR, RClass.IN),),
                              answers=tuple(forged))
        client(bus).send(encode_message(transfer), "10.0.1.2", source="10.0.1.1")
        bus.pump()
        after = secondary.zones[APEX]
        if applied:
            assert after.records == frozenset(forged) and after.soa_serial == 9
        else:
            assert after.records == before.records  # the SOA, so the serial too

    @staticmethod
    def secondary_server():
        zone = dataclasses.replace(basic_zone("example.com", Open()), role=Secondary("10.0.1.1"))
        return NameServer("10.0.1.2", [zone])

    @staticmethod
    def from_primary(server, msg):
        return server.handle_datagram(SimDatagram("10.0.1.1", "10.0.1.2", encode_message(msg)), 0.0)

    @staticmethod
    def axfr_part(msg_id, *answers):
        return DnsMessage(id=msg_id, is_response=True, authoritative=True,
                          question=(Question(APEX, RType.AXFR, RClass.IN),), answers=answers)

    def test_transfer_with_a_new_id_restarts_a_partial_stream(self):
        secondary = self.secondary_server()
        soa = make_soa(APEX, serial=9)
        stale = a_record(APEX.prepend("stale"), "192.0.2.7")
        fresh = a_record(SENTINEL, "192.0.2.80")
        assert self.from_primary(secondary, self.axfr_part(1, soa, stale)) == []  # never closed
        assert self.from_primary(secondary, self.axfr_part(2, soa)) == []
        assert self.from_primary(secondary, self.axfr_part(2, fresh, soa)) == []
        assert secondary.zones[APEX].records == {soa, fresh}

    def test_completed_stream_that_is_not_a_zone_keeps_the_last_good_copy(self):
        secondary = self.secondary_server()
        before = secondary.zones[APEX]
        soa = make_soa(APEX, serial=9)
        cname = ResourceRecord(SENTINEL, RType.CNAME, RClass.IN, 60, APEX)
        self.from_primary(secondary, self.axfr_part(3, soa, cname))
        self.from_primary(secondary, self.axfr_part(3, a_record(SENTINEL, "192.0.2.80"), soa))
        assert secondary.zones[APEX] is before
        # the dropped stream leaves nothing behind: a fresh one installs on its own
        good = a_record(SENTINEL, "192.0.2.81")
        self.from_primary(secondary, self.axfr_part(3, soa, good, soa))
        assert secondary.zones[APEX].records == {soa, good}
        assert secondary.faults == 0

    def test_relayed_rcode_that_nothing_waits_for_is_dropped(self):
        secondary = self.secondary_server()
        update = add_sentinel(msg_id=21)
        for msg_id in (1, 21):  # before any forward, no reply is waited for
            early = DnsMessage(id=msg_id, opcode=update.opcode, rcode=Rcode.NOERROR,
                               is_response=True, question=update.question)
            assert self.from_primary(secondary, early) == []
        # once the update is forwarded, the primary's reply is relayed exactly once
        request = SimDatagram("198.51.100.99", "10.0.1.2", encode_message(update))
        (forward,) = secondary.handle_datagram(request, 0.0)
        assert forward.destination == "10.0.1.1"
        forward_id = decode_message(forward.payload).id
        reply = DnsMessage(id=forward_id, opcode=update.opcode, rcode=Rcode.NOERROR,
                           is_response=True, question=update.question)
        # a reply from anyone but the primary, or under another id, waits for nothing
        stray = SimDatagram("203.0.113.7", "10.0.1.2", encode_message(reply))
        assert secondary.handle_datagram(stray, 0.0) == []
        assert self.from_primary(secondary, dataclasses.replace(reply, id=forward_id ^ 1)) == []
        # the primary's reply goes to the client under the client's id
        (relayed,) = self.from_primary(secondary, reply)
        assert relayed.destination == "198.51.100.99"
        assert decode_message(relayed.payload) == dataclasses.replace(reply, id=21)
        assert self.from_primary(secondary, reply) == []
        assert secondary.faults == 0

    def test_forwarded_reply_after_its_deadline_is_dropped(self):
        secondary = self.secondary_server()
        update = add_sentinel(msg_id=21)
        request = SimDatagram("198.51.100.99", "10.0.1.2", encode_message(update))
        (forward,) = secondary.handle_datagram(request, 100.0)
        reply = DnsMessage(id=decode_message(forward.payload).id, opcode=update.opcode,
                           rcode=Rcode.NOERROR, is_response=True, question=update.question)
        late = SimDatagram("10.0.1.1", "10.0.1.2", encode_message(reply))
        assert secondary.handle_datagram(late, 100.0 + authsim.FORWARD_EXPIRY_S + 1) == []

    def test_forward_table_is_bounded(self):
        secondary = self.secondary_server()
        ids = set()
        for k in range(authsim.FORWARDS_MAX + 5):
            request = SimDatagram(f"198.51.100.{k % 200}", "10.0.1.2",
                                  encode_message(add_sentinel(msg_id=7)))
            (forward,) = secondary.handle_datagram(request, 0.0)
            ids.add(decode_message(forward.payload).id)
        assert len(ids) == authsim.FORWARDS_MAX + 5  # every forward in flight has its own id
        assert len(secondary._forwards) == authsim.FORWARDS_MAX

    def test_clients_sharing_an_id_through_one_secondary_get_their_own_rcodes(self, bus):
        # one secondary serves two zones whose primary accepts one and denies the other;
        # both clients pick id 4242 and both requests are in flight at once
        other = DnsName.from_text("example.org")
        open_zone, deny_zone = basic_zone("example.com", Open()), basic_zone("example.org", Deny())
        attach_server(bus, "10.0.1.1", open_zone, deny_zone)
        attach_server(bus, "10.0.1.2",
                      *(dataclasses.replace(z, role=Secondary("10.0.1.1"), policy=Open())
                        for z in (open_zone, deny_zone)))
        to_open, to_deny = client(bus, "198.51.100.1"), client(bus, "198.51.100.2")
        probe = ResourceRecord(other.prepend("researchstudyzp"), RType.A, RClass.IN, 60, PROBE_IP)
        to_open.send(encode_message(add_sentinel(msg_id=4242)), "10.0.1.2")
        to_deny.send(encode_message(make_update(other, [AddRecord(probe)], msg_id=4242)),
                     "10.0.1.2")
        bus.pump()
        replies = [[decode_message(d.payload) for d in c.inbox] for c in (to_open, to_deny)]
        assert [[(r.id, r.rcode) for r in got] for got in replies] == \
            [[(4242, Rcode.NOERROR)], [(4242, Rcode.REFUSED)]]

    def test_update_to_large_zone_without_secondaries_is_answered(self):
        # ~98 KB of zone data: a full transfer would not fit one message, but
        # no transfer is built when no secondary is registered
        hosts = [a_record(APEX.prepend(f"h{i}"), "192.0.2.10") for i in range(3000)]
        server = NameServer("10.0.0.1", [basic_zone("example.com", Open(), extra=hosts)])
        request = SimDatagram("198.51.100.99", "10.0.0.1", encode_message(add_sentinel()))
        (reply,) = server.handle_datagram(request, 0.0)
        assert decode_message(reply.payload).rcode == Rcode.NOERROR
        assert server.zones[APEX].rrset(SENTINEL, RType.A)

    def test_full_transfer_gives_a_stale_secondary_the_primary_zone(self, bus):
        primary_zone = basic_zone("example.com", Open(), serial=7)
        stale = dataclasses.replace(basic_zone("example.com", Open(), serial=5),
                                    role=Secondary("10.0.1.1"))
        attach_server(bus, "10.0.1.1", primary_zone).register_secondary(APEX, "10.0.1.2")
        secondary = attach_server(bus, "10.0.1.2", stale)
        c = client(bus)
        for msg_id in (1, 2):  # a repeated transfer changes nothing
            # the secondary's own AXFR query, sent as it does after a missed push
            c.send(encode_message(make_query(APEX, RType.AXFR, msg_id=msg_id)), "10.0.1.1",
                   source="10.0.1.2")
            bus.pump()
            assert secondary.zones[APEX].soa_serial == 7
            assert secondary.zones[APEX].records == primary_zone.records

    def test_pushes_match_after_adds_and_delete(self, bus):
        primary, secondary = self.build_pair(bus, Open(), Deny())
        c = client(bus)
        for i in range(3):
            rr = ResourceRecord(APEX.prepend(f"n{i}"), RType.A, RClass.IN, 60, PROBE_IP)
            c.exchange(encode_message(make_update(APEX, [AddRecord(rr)], msg_id=i)),
                       "10.0.1.1", 1.0)
        c.exchange(encode_message(make_update(APEX, [DeleteRRset(APEX, RType.A)], msg_id=9)),
                   "10.0.1.1", 1.0)
        bus.pump()
        assert primary.zones[APEX].soa_serial == 5  # four mutating updates from serial 1
        assert secondary.zones[APEX].records == primary.zones[APEX].records  # oracle: set equality


def hosts(n):
    return [a_record(APEX.prepend(f"h{i}"), "192.0.2.10") for i in range(n)]


class TestIncrementalTransfers:
    """Each accepted UPDATE reaches the secondaries as one IXFR diff (RFC 1995);
    a secondary that missed one resyncs by an AXFR stream (RFC 5936)."""

    def build_pair(self, bus, extra=()):
        primary_zone = basic_zone("example.com", Open(), extra=extra)
        secondary_zone = dataclasses.replace(primary_zone, role=Secondary("10.0.1.1"))
        primary = attach_server(bus, "10.0.1.1", primary_zone)
        secondary = attach_server(bus, "10.0.1.2", secondary_zone)
        primary.register_secondary(APEX, "10.0.1.2")
        return primary, secondary

    @staticmethod
    def pushes(bus):
        return [e.datagram.payload for e in bus.tap
                if (e.datagram.source, e.datagram.destination) == ("10.0.1.1", "10.0.1.2")]

    def test_update_to_large_zone_with_secondary_is_answered_and_copied(self, bus):
        # ~98 KB of zone data, far over one message
        primary, secondary = self.build_pair(bus, hosts(3000))
        raw = client(bus).exchange(encode_message(add_sentinel()), "10.0.1.1", 1.0)
        assert decode_message(raw).rcode == Rcode.NOERROR
        assert secondary.zones[APEX].records == primary.zones[APEX].records
        assert secondary.zones[APEX].soa_serial == 2

    def test_push_for_one_record_is_the_same_size_at_any_zone_size(self):
        sizes = []
        for n in (10, 3000):
            bus = DatagramBus(clock=ManualClock(), rng=random.Random(0))
            self.build_pair(bus, hosts(n))
            client(bus).exchange(encode_message(add_sentinel()), "10.0.1.1", 1.0)
            (push,) = self.pushes(bus)
            msg = decode_message(push)
            assert msg.question == (Question(APEX, RType.IXFR, RClass.IN),)
            assert [rr.rtype for rr in msg.answers] == [RType.SOA] * 3 + [RType.A, RType.SOA]
            sizes.append(len(push))
        assert sizes[0] == sizes[1]

    def test_lost_push_is_repaired_by_a_split_axfr(self, bus):
        primary, secondary = self.build_pair(bus, hosts(3000))
        lost = []

        def drop_first_push(dgram):
            if not lost and (dgram.source, dgram.destination) == ("10.0.1.1", "10.0.1.2"):
                lost.append(dgram)
                return True
            return False

        bus.drop_filter = drop_first_push
        c = client(bus)
        c.exchange(encode_message(add_sentinel(1)), "10.0.1.1", 1.0)
        assert lost and secondary.zones[APEX].soa_serial == 1
        second = ResourceRecord(APEX.prepend("second"), RType.A, RClass.IN, 60, PROBE_IP)
        c.exchange(encode_message(make_update(APEX, [AddRecord(second)], msg_id=2)),
                   "10.0.1.1", 1.0)
        stream = [decode_message(p) for p in self.pushes(bus)[2:]]
        assert len(stream) >= 2
        assert all(m.question[0].rtype == RType.AXFR for m in stream)
        assert stream[0].answers[0] == stream[-1].answers[-1] == primary.zones[APEX].soa
        assert secondary.zones[APEX].records == primary.zones[APEX].records
        assert secondary.zones[APEX].soa_serial == 3

    def test_diff_too_large_for_one_message_goes_out_as_the_zone(self, bus):
        wide = [a_record(SENTINEL, str(IPv4Address(0xC0000000 + i))) for i in range(3000)]
        primary, secondary = self.build_pair(bus, wide)
        delete = make_update(APEX, [DeleteRRset(SENTINEL, RType.A)], msg_id=3)
        raw = client(bus).exchange(encode_message(delete), "10.0.1.1", 1.0)
        assert decode_message(raw).rcode == Rcode.NOERROR
        # the diff deletes ~130 KB of records; the zone left is one small message
        (push,) = self.pushes(bus)
        assert decode_message(push).question[0].rtype == RType.AXFR
        assert secondary.zones[APEX].records == primary.zones[APEX].records
        assert not secondary.zones[APEX].rrset(SENTINEL, RType.A)

    def test_axfr_query_from_a_non_secondary_is_refused(self, bus):
        self.build_pair(bus)
        raw = client(bus).exchange(encode_message(make_query(APEX, RType.AXFR, msg_id=4)),
                                   "10.0.1.1", 1.0)
        assert decode_message(raw).rcode == Rcode.REFUSED

    NEW_SOA = make_soa(APEX, serial=2)
    SUB_SOA = make_soa(SUB_APEX, serial=2)

    @pytest.mark.parametrize("source, answers, applied", [
        pytest.param("10.0.1.1", [NEW_SOA, make_soa(APEX, serial=5), NEW_SOA,
                                  a_record(SENTINEL, "192.0.2.80"), NEW_SOA],
                     False, id="wrong-base-serial"),
        pytest.param("10.0.1.1", [NEW_SOA, APEX_SOA, NEW_SOA, a_record(SENTINEL, "192.0.2.80")],
                     False, id="missing-closing-soa"),
        pytest.param("10.0.1.1", [SUB_SOA, APEX_SOA, SUB_SOA, SUB_SOA],
                     False, id="soa-off-the-apex"),
        pytest.param("10.0.1.1", [NEW_SOA, APEX_SOA, NEW_SOA,
                                  ResourceRecord(APEX.prepend("ns1"), RType.CNAME, RClass.IN, 60,
                                                 APEX),
                                  NEW_SOA],
                     False, id="cname-beside-a"),
        pytest.param("203.0.113.9", [NEW_SOA, APEX_SOA, NEW_SOA, a_record(SENTINEL, "192.0.2.80"),
                                     NEW_SOA],
                     False, id="not-the-primary"),
        pytest.param("10.0.1.1", [NEW_SOA, APEX_SOA, NEW_SOA, a_record(SENTINEL, "192.0.2.80"),
                                  NEW_SOA],
                     True, id="valid"),
    ])
    def test_forged_ixfr_never_aborts_the_simulation(self, bus, source, answers, applied):
        _, secondary = self.build_pair(bus)
        before = secondary.zones[APEX]
        diff = DnsMessage(id=2, is_response=True, authoritative=True,
                          question=(Question(APEX, RType.IXFR, RClass.IN),),
                          answers=tuple(answers))
        client(bus).send(encode_message(diff), "10.0.1.2", source=source)
        bus.pump()
        after = secondary.zones[APEX]
        if applied:
            assert after.records == before.records - {APEX_SOA} | {self.NEW_SOA, answers[3]}
            assert after.soa_serial == 2
        else:
            assert after.records == before.records  # the SOA, so the serial too


class TestHoneypot:
    def test_every_update_journaled_regardless_of_outcome(self, bus, tmp_path):
        journal = tmp_path / "journal.jsonl"
        sink = authsim.open_journal(str(journal))
        attach_server(bus, "10.0.0.1", basic_zone("example.com", Deny()),
                      honeypot=True, journal_sink=sink)
        c = client(bus)
        c.exchange(encode_message(add_sentinel(1)), "10.0.0.1", 1.0)   # refused
        c.exchange(b"\x00\x01junk", "10.0.0.1", 1.0)                   # malformed
        c.exchange(encode_message(make_query(APEX, RType.A, msg_id=2)), "10.0.0.1", 1.0)
        sink.close()
        lines = [json.loads(l) for l in journal.read_text().splitlines()]
        assert len(lines) == 2  # queries are not update attempts
        assert set(lines[0]) == {"ts", "src", "zone", "kinds", "names", "rcode", "raw_hex"}
        assert lines[0]["zone"] == "example.com"
        assert lines[0]["kinds"] == ["add"]
        assert lines[0]["names"] == ["researchstudyzp.example.com"]
        assert lines[0]["rcode"] == "REFUSED"
        assert lines[1]["rcode"] == "FORMERR"
        assert bytes.fromhex(lines[1]["raw_hex"]) == b"\x00\x01junk"

    def test_journal_lines_are_the_events_before_close(self, bus, tmp_path):
        journal = tmp_path / "journal.jsonl"
        sink = authsim.open_journal(str(journal))
        events = []

        def record_and_write(event):
            events.append(event)
            sink(event)

        attach_server(bus, "10.0.0.1", basic_zone("example.com", Open()),
                      honeypot=True, journal_sink=record_and_write)
        c = client(bus)
        for i in range(3):
            c.exchange(encode_message(add_sentinel(i)), "10.0.0.1", 1.0)
        lines = [json.loads(l) for l in journal.read_text().splitlines()]
        assert lines == [e.to_json_obj() for e in events] and len(lines) == 3
        sink.close()

    def test_journal_names_each_kind_of_change(self, bus):
        events = []
        attach_server(bus, "10.0.0.1", basic_zone("example.com", Open()),
                      honeypot=True, journal_sink=events.append)
        www = APEX.prepend("www")
        probe = a_record(SENTINEL, "192.0.2.80")
        update = make_update(APEX, [AddRecord(probe), DeleteExactRecord(probe),
                                    DeleteRRset(APEX, RType.MX), DeleteAllAtName(www)], msg_id=3)
        client(bus).exchange(encode_message(update), "10.0.0.1", 1.0)
        (event,) = events
        assert event.kinds == ("add", "delete_exact", "delete_rrset", "delete_name")
        assert event.names == (SENTINEL.to_text(), SENTINEL.to_text(), APEX.to_text(),
                               www.to_text())
        assert event.rcode == "NOERROR"

    def test_update_record_of_another_class_is_journaled_unknown_and_gets_formerr(self, bus):
        events = []
        server = attach_server(bus, "10.0.0.1", basic_zone("example.com", Open()),
                               honeypot=True, journal_sink=events.append)
        before = server.zones[APEX]
        chaos = ResourceRecord(APEX.prepend("ch"), RType.A, 3, 60, IPv4Address("192.0.2.7"))
        update = DnsMessage(id=9, opcode=Opcode.UPDATE, question=(Question(APEX, RType.SOA),),
                            authority=(chaos,))
        reply = decode_message(client(bus).exchange(encode_message(update), "10.0.0.1", 1.0))
        assert (reply.id, reply.rcode) == (9, Rcode.FORMERR)
        assert [(e.kinds, e.names, e.rcode) for e in events] == [
            (("unknown",), ("ch.example.com",), "FORMERR")]
        assert server.zones[APEX] is before

    @pytest.mark.parametrize("zone_section", [(), (Question(APEX, RType.A),),
                                              (Question(APEX, RType.SOA),) * 2],
                             ids=["none", "not-soa", "two"])
    def test_update_whose_zone_section_is_not_one_soa_gets_formerr(self, bus, zone_section):
        events = []
        server = attach_server(bus, "10.0.0.1", basic_zone("example.com", Open()),
                               honeypot=True, journal_sink=events.append)
        before = server.zones[APEX]
        update = DnsMessage(id=8, opcode=Opcode.UPDATE, question=zone_section,
                            authority=add_sentinel().authority)
        reply = decode_message(client(bus).exchange(encode_message(update), "10.0.0.1", 1.0))
        assert (reply.id, reply.rcode) == (8, Rcode.FORMERR)
        assert [(e.kinds, e.rcode) for e in events] == [(("add",), "FORMERR")]
        assert server.zones[APEX] is before

    def test_accepted_updates_also_journaled(self, bus):
        events = []
        attach_server(bus, "10.0.0.1", basic_zone("example.com", Open()),
                      honeypot=True, journal_sink=events.append)
        c = client(bus)
        c.exchange(encode_message(add_sentinel()), "10.0.0.1", 1.0)
        assert [e.rcode for e in events] == ["NOERROR"]
        assert events[0].source == c.address

    def test_events_are_append_only_values(self, bus):
        events = []
        attach_server(bus, "10.0.0.1", basic_zone("example.com", Open()),
                      honeypot=True, journal_sink=events.append)
        c = client(bus)
        c.exchange(encode_message(add_sentinel()), "10.0.0.1", 1.0)
        event = events[0]
        assert isinstance(event, HoneypotEvent)
        with pytest.raises(AttributeError):
            event.rcode = "changed"


class _JsonDumpsSink:
    """The journal sink as it was: each line through ``json.dumps`` on a text handle."""

    def __init__(self, path: str):
        self._fh = open(path, "a", encoding="utf-8")

    def __call__(self, event: HoneypotEvent) -> None:
        self._fh.write(json.dumps(event.to_json_obj()) + "\n")
        self._fh.flush()

    def close(self) -> None:
        self._fh.close()


# labels that ``to_text`` leaves as they are, escapes to JSON, or backslash-escapes
odd_labels = st.lists(st.sampled_from([b'"', b"\\", b"\xe9", b"\xff", b"\x00", b" ", b"a", b"."]),
                      min_size=1, max_size=6).map(b"".join)
event_names = st.lists(odd_labels, min_size=1, max_size=3).map(
    lambda labels: DnsName([*labels, b"example"]).to_text())
journal_events = st.builds(
    authsim._honeypot_event,
    st.one_of(st.floats(), st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0])),
    st.text(max_size=12), st.one_of(event_names, st.just("")),
    st.lists(st.sampled_from(["add", "delete_exact", "delete_rrset", "delete_name", "unknown"]),
             max_size=3).map(tuple),
    st.lists(event_names, max_size=3).map(tuple),
    st.sampled_from(["NOERROR", "REFUSED", "FORWARDED", "DROPPED", "FORMERR"]),
    st.binary(max_size=40))


@given(st.lists(journal_events, min_size=1, max_size=5))
@settings(max_examples=200, deadline=None)
def test_journal_lines_equal_json_dumps(events):
    """The sink's file is byte for byte what the json.dumps sink wrote, and holds
    each event as soon as the sink returns."""
    with tempfile.TemporaryDirectory() as tmp:
        ours, theirs = os.path.join(tmp, "ours.jsonl"), os.path.join(tmp, "theirs.jsonl")
        sink, oracle = authsim.open_journal(ours), _JsonDumpsSink(theirs)
        try:
            for event in events:
                sink(event)
                oracle(event)
                with open(ours, "rb") as fh, open(theirs, "rb") as oracle_fh:
                    assert fh.read() == oracle_fh.read()
        finally:
            sink.close()
            oracle.close()


class TestSeedFiles:
    ZONE_TEXT = """\
@policy open
@role primary
example.com. 3600 IN SOA ns1.example.com. hostmaster.example.com. 1 7200 900 1209600 86400
example.com. 3600 IN NS ns1.example.com.
ns1.example.com. 3600 IN A 192.0.2.53
example.com. 3600 IN A 192.0.2.1
example.com. 3600 IN MX 10 mail.example.com.
example.com. 3600 IN TXT "v=spf1 mx -all"
"""

    def test_parse_zone_text(self):
        zone = parse_zone_text(self.ZONE_TEXT)
        assert zone.apex == APEX
        assert isinstance(zone.policy, Open)
        assert isinstance(zone.role, Primary)
        assert zone.soa_serial == 1
        (mx,) = zone.rrset(APEX, RType.MX)
        assert mx.rdata == MxData(10, APEX.prepend("mail"))
        (txt,) = zone.rrset(APEX, RType.TXT)
        assert txt.rdata.to_text() == "v=spf1 mx -all"

    SOA_LINE = "example.com. {ttl} IN SOA ns1.example.com. hostmaster.example.com. {nums}\n"
    NUMS = "1 7200 900 1209600 86400"

    def _seed(self, ttl="3600", nums=NUMS, mx="10"):
        return (self.SOA_LINE.format(ttl=ttl, nums=nums)
                + f"example.com. 3600 IN MX {mx} mail.example.com.\n")

    def test_numbers_at_their_bounds_load(self):
        zone = parse_zone_text(self._seed(ttl=str(2**31 - 1), nums=" ".join([str(2**32 - 1)] * 5),
                                          mx="65535"))
        assert zone.soa.ttl == 2**31 - 1 and zone.soa_serial == 2**32 - 1
        assert zone.soa.rdata.minimum == 2**32 - 1
        assert zone.rrset(APEX, RType.MX)[0].rdata.preference == 65535
        assert parse_zone_text(self._seed(ttl="0", nums="0 0 0 0 0", mx="0")).soa_serial == 0

    @pytest.mark.parametrize("ttl", ["-5", str(2**31), str(2**32 + 5)])
    def test_ttl_outside_31_bits_is_refused(self, ttl):
        # it was served wrapped: -5 as 4294967291, 2**32 + 5 as 5
        with pytest.raises(ValueError, match=f"line 1: TTL {ttl} is outside"):
            parse_zone_text(self._seed(ttl=ttl))

    @pytest.mark.parametrize("field, nums", [("serial", "4294967296 7200 900 1209600 86400"),
                                             ("refresh", "1 -1 900 1209600 86400"),
                                             ("minimum", "1 7200 900 1209600 4294967296")])
    def test_soa_number_outside_32_bits_is_refused(self, field, nums):
        # a serial of 2**32 loaded, and then every answer holding the SOA was a SERVFAIL
        with pytest.raises(ValueError, match=f"line 1: SOA {field} .* is outside"):
            parse_zone_text(self._seed(nums=nums))

    @pytest.mark.parametrize("pref", ["70000", "-1"])
    def test_mx_preference_outside_16_bits_is_refused(self, pref):
        # it loaded, and encoding the record raised struct.error
        with pytest.raises(ValueError, match=f"line 2: MX preference {pref} is outside"):
            parse_zone_text(self._seed(mx=pref))

    @pytest.mark.parametrize("token", ["TYPE70000", "TYPE65536", "TYPE-1"])
    def test_record_type_outside_16_bits_is_refused(self, token):
        # TYPE70000 loaded, and every ANY answer holding it was a SERVFAIL
        with pytest.raises(ValueError, match=f"line 2: record type {token[4:]} is outside"):
            parse_zone_text(self.SOA_LINE.format(ttl="3600", nums=self.NUMS)
                            + f"example.com. 300 IN {token} abcd\n")

    @pytest.mark.parametrize("rdata", ['"' + "x" * 256 + '"', '"short" "' + "y" * 300 + '"'],
                             ids=["one-string-of-256", "second-string-of-300"])
    def test_txt_string_over_255_bytes_is_refused(self, rdata):
        # it loaded, and every TXT answer holding it was a SERVFAIL
        with pytest.raises(ValueError, match="line 2: TXT character-string length .* is outside"):
            parse_zone_text(self.SOA_LINE.format(ttl="3600", nums=self.NUMS)
                            + f"example.com. 300 IN TXT {rdata}\n")

    def test_record_type_and_txt_at_their_bounds_are_served(self, bus):
        zone = parse_zone_text(self.SOA_LINE.format(ttl="3600", nums=self.NUMS)
                               + "example.com. 300 IN TYPE65535 abcd\n"
                               + 'example.com. 300 IN TXT "' + "x" * 255 + '"\n')
        server = attach_server(bus, "10.0.0.1", zone)
        for rtype in (RType.ANY, RType.TXT, 65535):
            reply = decode_message(client(bus).exchange(
                encode_message(make_query(APEX, rtype, msg_id=7)), "10.0.0.1", 1.0))
            assert reply.rcode == Rcode.NOERROR and reply.answers
        assert server.faults == 0

    def test_parse_policies(self):
        assert isinstance(parse_policy("deny"), Deny)
        acl = parse_policy("ipacl 192.0.2.1, 192.0.2.2")
        assert acl == IpAcl(frozenset({"192.0.2.1", "192.0.2.2"}))
        signed = parse_policy("key update-key", {"update-key": KEY})
        assert signed == SignedKey((KEY,))
        with pytest.raises(ValueError):
            parse_policy("key ghost", {})
        with pytest.raises(ValueError):
            parse_policy("carrier-pigeon")

    def test_fleet_text_round_trip(self, bus):
        fleet_text = (
            "@server 10.0.1.1\n" + self.ZONE_TEXT +
            "@server 10.0.1.2\n" + self.ZONE_TEXT.replace("@role primary",
                                                          "@role secondary 10.0.1.1")
        )
        fleet = parse_fleet_text(fleet_text)
        assert [addr for addr, _ in fleet] == ["10.0.1.1", "10.0.1.2"]
        servers = build_fleet(bus, fleet)
        assert servers["10.0.1.1"].secondaries[APEX] == ["10.0.1.2"]
        c = client(bus)
        c.exchange(encode_message(add_sentinel()), "10.0.1.1", 1.0)
        assert servers["10.0.1.2"].zones[APEX].rrset(SENTINEL, RType.A)


# --- property tests ---


@st.composite
def _random_changes(draw):
    name = APEX.prepend(draw(st.sampled_from("abcdefgh")))
    kind = draw(st.integers(0, 3))
    if kind == 0:
        addr = IPv4Address(draw(st.integers(0, 2**32 - 1)))
        return AddRecord(ResourceRecord(name, RType.A, RClass.IN,
                                        draw(st.integers(0, 3600)), addr))
    if kind == 1:
        return DeleteRRset(name, RType.A)
    if kind == 2:
        addr = IPv4Address(draw(st.integers(0, 2**32 - 1)))
        return DeleteExactRecord(ResourceRecord(name, RType.A, RClass.IN, 0, addr))
    return DeleteAllAtName(name)


@given(st.lists(st.lists(_random_changes(), min_size=1, max_size=4), min_size=1, max_size=8))
@settings(max_examples=60, deadline=None)
def test_serial_monotonic_and_bumps_once_per_mutating_message(batches):
    zone = basic_zone("example.com", Open())
    for i, changes in enumerate(batches):
        before = zone
        zone, rcode = apply_update(zone, make_update(APEX, changes, msg_id=i))
        assert rcode == Rcode.NOERROR
        assert zone.soa_serial >= before.soa_serial
        if zone.records == before.records:
            assert zone.soa_serial == before.soa_serial
        else:
            assert zone.soa_serial == before.soa_serial + 1


@given(st.lists(_random_changes(), min_size=1, max_size=4), st.integers(0, 2**16 - 1))
@settings(max_examples=60, deadline=None)
def test_signedkey_policy_sound_unsigned_never_mutates(changes, msg_id):
    bus = DatagramBus(clock=ManualClock(), rng=random.Random(0))
    zone = basic_zone("example.com", SignedKey((KEY,)))
    server = attach_server(bus, "10.0.0.1", zone)
    c = client(bus)
    msg = make_update(APEX, changes, msg_id=msg_id)
    raw = c.exchange(encode_message(msg), "10.0.0.1", 1.0)
    assert decode_message(raw).rcode in (Rcode.REFUSED, Rcode.NOTAUTH)
    assert server.zones[APEX].records == zone.records

    wrong_key = TsigKey(DnsName.from_text("not-the-key"), b"0123456789abcdef")
    raw = c.exchange(encode_message(sign_message(msg, wrong_key, 0)), "10.0.0.1", 1.0)
    assert decode_message(raw).rcode == Rcode.NOTAUTH
    assert server.zones[APEX].records == zone.records


def test_a_primary_reads_only_the_last_additional_record_as_tsig(bus):
    """A TSIG record anywhere but last, a repeated one included, makes the
    UPDATE FORMERR (RFC 8945 §5.2) before the zone's policy is read: answered
    and journaled so, on a signed-key zone and on an open one alike."""
    events = []
    zones = {"10.0.0.1": basic_zone("example.com", SignedKey((KEY,))),
             "10.0.0.2": basic_zone("example.com", Open())}
    servers = {address: attach_server(bus, address, zone, honeypot=True,
                                      journal_sink=events.append)
               for address, zone in zones.items()}
    c = client(bus)
    glue = ResourceRecord(APEX.prepend("ns1"), RType.A, RClass.IN, 60, IPv4Address("192.0.2.53"))
    signed = sign_message(add_sentinel(), KEY, now=0)
    (tsig_rr,) = signed.additional
    for address, zone in zones.items():
        for additional in [(tsig_rr, tsig_rr), (tsig_rr, glue)]:  # repeated; not last
            events.clear()
            raw = c.exchange(encode_message(dataclasses.replace(signed, additional=additional)),
                             address, 1.0)
            assert decode_message(raw).rcode == Rcode.FORMERR
            assert [event.rcode for event in events] == ["FORMERR"]
            assert servers[address].zones[APEX].records == zone.records
    raw = c.exchange(encode_message(signed), "10.0.0.1", 1.0)
    assert decode_message(raw).rcode == Rcode.NOERROR
    assert servers["10.0.0.1"].zones[APEX].rrset(SENTINEL, RType.A)


@given(st.integers(0, 2**32 - 1), st.integers(0, 2**16 - 1))
@settings(max_examples=60, deadline=None)
def test_open_policy_complete_wellformed_update_mutates(addr, msg_id):
    bus = DatagramBus(clock=ManualClock(), rng=random.Random(0))
    zone = basic_zone("example.com", Open())
    server = attach_server(bus, "10.0.0.1", zone)
    c = client(bus)
    rr = ResourceRecord(APEX.prepend("fresh"), RType.A, RClass.IN, 60, IPv4Address(addr))
    raw = c.exchange(encode_message(make_update(APEX, [AddRecord(rr)], msg_id=msg_id)),
                     "10.0.0.1", 1.0)
    assert decode_message(raw).rcode == Rcode.NOERROR
    assert server.zones[APEX].rrset(APEX.prepend("fresh"), RType.A)
    assert server.zones[APEX].soa_serial == zone.soa_serial + 1


# names with empty non-terminals (b.a, x.b.a) and one above the apex
NODE_NAMES = [APEX, APEX.prepend("a"), APEX.prepend("a").prepend("b"),
              APEX.prepend("a").prepend("b").prepend("x"), APEX.prepend("c"), SUB_APEX]
QUERY_NAMES = NODE_NAMES + [APEX.prepend("zz"), APEX.parent(), DnsName.from_text(".")]


@st.composite
def _zone_records(draw):
    name = draw(st.sampled_from(NODE_NAMES))
    kind = draw(st.sampled_from(["A", "A", "CNAME", "NS", "SOA", "SOA-no-rdata"]))
    if kind == "A":
        return a_record(name, str(IPv4Address(0xC0000200 + draw(st.integers(0, 3)))))
    if kind == "CNAME":
        return ResourceRecord(name, RType.CNAME, RClass.IN, 60, draw(st.sampled_from(NODE_NAMES)))
    if kind == "NS":
        return ns_record(name, draw(st.sampled_from(NODE_NAMES)))
    if kind == "SOA":
        return make_soa(name, serial=draw(st.integers(1, 3)))
    return ResourceRecord(name, RType.SOA, RClass.IN, 3600, b"")


def _has_node_brute_force(zone, name):
    return any(rr.name.is_subdomain_of(name) for rr in zone.records)


@given(st.lists(_zone_records(), max_size=6), st.data())
@settings(max_examples=150, deadline=None)
def test_derive_matches_build(extra, data):
    zone = basic_zone("example.com", Open(), extra=[rr for rr in extra if rr.rtype == RType.A])
    removed = data.draw(st.sets(st.sampled_from(sorted(zone.records, key=repr))))
    added = set(data.draw(st.lists(_zone_records(), max_size=4)))
    try:
        expected = ZoneConfig.build(APEX, zone.role, zone.policy, zone.records - removed | added)
    except ValueError:
        with pytest.raises(ValueError):
            zone.derive(removed, added)
        return
    derived = zone.derive(removed, added)
    assert derived.records == expected.records
    assert derived.normalized_records() == expected.normalized_records()
    assert derived.soa_serial == expected.soa_serial
    for name in QUERY_NAMES:
        assert set(derived.records_at(name)) == set(expected.records_at(name))
        assert derived.has_node(name) == _has_node_brute_force(derived, name)


@given(st.lists(st.lists(_zone_records(), min_size=1, max_size=3), min_size=1, max_size=6))
@settings(max_examples=80, deadline=None)
def test_has_node_matches_brute_force_across_updates(batches):
    zone = basic_zone("example.com", Open())
    for i, records in enumerate(batches):
        changes = [AddRecord(rr) if i % 2 == 0 else DeleteAllAtName(rr.name) for rr in records
                   if rr.name.is_subdomain_of(APEX)]
        if changes:
            zone, _ = apply_update(zone, make_update(APEX, changes, msg_id=i))
        for name in QUERY_NAMES:
            assert zone.has_node(name) == _has_node_brute_force(zone, name)
