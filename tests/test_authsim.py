"""Server-side RFC 2136 semantics: policies, prerequisites, update application,
query answering, propagation, forwarding, honeypot journaling, seed files."""

import dataclasses
import json
import random
from ipaddress import IPv4Address

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zptoolkit import authsim
from zptoolkit.authsim import (
    Allow,
    Deny,
    HoneypotEvent,
    IpAcl,
    NameServer,
    Open,
    Primary,
    Refuse,
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
    propagate_zone,
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
        assert acl_check(Open(), "203.0.113.9", add_sentinel(), 0) == Allow(add_sentinel())

    def test_deny_refuses(self):
        assert acl_check(Deny(), "203.0.113.9", add_sentinel(), 0) == Refuse(Rcode.REFUSED)

    def test_ipacl_trusts_the_claimed_source(self):
        policy = IpAcl(frozenset({"192.0.2.10"}))
        # the source field is attacker-controlled; a forged listed value passes
        assert isinstance(acl_check(policy, "192.0.2.10", add_sentinel(), 0), Allow)
        assert acl_check(policy, "203.0.113.9", add_sentinel(), 0) == Refuse(Rcode.REFUSED)

    def test_ipacl_depends_only_on_source_field(self):
        policy = IpAcl(frozenset({"192.0.2.10"}))
        for msg in (add_sentinel(1), add_sentinel(999, ttl=7)):
            assert isinstance(acl_check(policy, "192.0.2.10", msg, 0), Allow)
            assert isinstance(acl_check(policy, "198.51.100.1", msg, 0), Refuse)

    def test_signedkey_paths(self):
        policy = SignedKey((KEY,))
        unsigned = add_sentinel()
        assert acl_check(policy, "x", unsigned, 0) == Refuse(Rcode.REFUSED)  # NoSignature
        signed = sign_message(unsigned, KEY, now=100)
        allowed = acl_check(policy, "x", signed, 100)
        assert isinstance(allowed, Allow)
        assert allowed.message == unsigned  # TSIG stripped before application
        wrong = sign_message(unsigned, TsigKey(DnsName.from_text("other"), b"0123456789abcdef"), 100)
        assert acl_check(policy, "x", wrong, 100) == Refuse(Rcode.NOTAUTH)
        stale = sign_message(unsigned, KEY, now=100)
        assert acl_check(policy, "x", stale, 100 + 301) == Refuse(Rcode.NOTAUTH)

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


class TestZoneConfig:
    def test_exactly_one_soa_enforced(self):
        with pytest.raises(ValueError):
            ZoneConfig.build(APEX, Primary(), Open(), [])
        records = [make_soa(APEX), make_soa(APEX.prepend("sub"))]
        with pytest.raises(ValueError):
            ZoneConfig.build(APEX, Primary(), Open(), records)

    def test_serial_must_match_soa(self):
        records = frozenset([make_soa(APEX, serial=5)])
        with pytest.raises(ValueError):
            ZoneConfig(APEX, Primary(), Open(), records, soa_serial=6)

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

    def test_malformed_payload_gets_formerr(self, bus):
        attach_server(bus, "10.0.0.1", basic_zone("example.com", Open()))
        c = client(bus)
        raw = c.exchange(b"\x12\x34garbage", "10.0.0.1", 1.0)
        assert decode_message(raw).rcode == Rcode.FORMERR
        assert decode_message(raw).id == 0x1234

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
        secondary_zone = ZoneConfig(APEX, Secondary("10.0.1.1"), secondary_policy,
                                    primary_zone.records, primary_zone.soa_serial)
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
            assert after == before

    def test_update_to_large_zone_without_secondaries_is_answered(self):
        # ~98 KB of zone data: a full transfer would not fit one message, but
        # no transfer is built when no secondary is registered
        hosts = [a_record(APEX.prepend(f"h{i}"), "192.0.2.10") for i in range(3000)]
        server = NameServer("10.0.0.1", [basic_zone("example.com", Open(), extra=hosts)])
        request = SimDatagram("198.51.100.99", "10.0.0.1", encode_message(add_sentinel()))
        (reply,) = server.handle_datagram(request, 0.0)
        assert decode_message(reply.payload).rcode == Rcode.NOERROR
        assert server.zones[APEX].rrset(SENTINEL, RType.A)

    def test_propagate_zone_examples(self):
        primary7 = basic_zone("example.com", Open(), serial=7)
        secondary5 = ZoneConfig(APEX, Secondary("p"), Open(),
                                basic_zone("example.com", Open(), serial=5).records, 5)
        merged = propagate_zone(primary7, secondary5)
        assert merged.soa_serial == 7 and merged.records == primary7.records
        again = propagate_zone(primary7, merged)
        assert again.records == merged.records and again.soa_serial == 7

    def test_propagate_zone_matches_after_adds_and_delete(self):
        zone = basic_zone("example.com", Open(), serial=5)
        for i in range(3):
            rr = ResourceRecord(APEX.prepend(f"n{i}"), RType.A, RClass.IN, 60, PROBE_IP)
            zone, _ = apply_update(zone, make_update(APEX, [AddRecord(rr)], msg_id=i))
        zone, _ = apply_update(zone, make_update(APEX, [DeleteRRset(APEX, RType.A)], msg_id=9))
        secondary = ZoneConfig(APEX, Secondary("p"), Open(),
                               basic_zone("example.com", Open(), serial=5).records, 5)
        assert propagate_zone(zone, secondary).records == zone.records  # oracle: set equality


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
            assert after == before


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
        server = attach_server(bus, "10.0.0.1", basic_zone("example.com", Open()),
                               honeypot=True, journal_sink=sink)
        c = client(bus)
        for i in range(3):
            c.exchange(encode_message(add_sentinel(i)), "10.0.0.1", 1.0)
        lines = [json.loads(l) for l in journal.read_text().splitlines()]
        assert lines == [e.to_json_obj() for e in server.events] and len(lines) == 3
        sink.close()

    def test_accepted_updates_also_journaled(self, bus):
        server = attach_server(bus, "10.0.0.1", basic_zone("example.com", Open()),
                               honeypot=True)
        c = client(bus)
        c.exchange(encode_message(add_sentinel()), "10.0.0.1", 1.0)
        assert [e.rcode for e in server.events] == ["NOERROR"]
        assert server.events[0].source == c.address

    def test_events_are_append_only_values(self, bus):
        server = attach_server(bus, "10.0.0.1", basic_zone("example.com", Open()),
                               honeypot=True)
        c = client(bus)
        c.exchange(encode_message(add_sentinel()), "10.0.0.1", 1.0)
        event = server.events[0]
        assert isinstance(event, HoneypotEvent)
        with pytest.raises(AttributeError):
            event.rcode = "changed"


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


@given(st.lists(_zone_records(), max_size=6), st.data(), st.booleans())
@settings(max_examples=150, deadline=None)
def test_derive_matches_build(extra, data, indexed_ancestors):
    zone = basic_zone("example.com", Open(), extra=[rr for rr in extra if rr.rtype == RType.A])
    if indexed_ancestors:
        zone.has_node(APEX)  # the ancestor map exists, so derive patches it
    removed = data.draw(st.sets(st.sampled_from(sorted(zone.records, key=repr))))
    added = set(data.draw(st.lists(_zone_records(), max_size=4)))
    try:
        expected = ZoneConfig.build(APEX, zone.role, zone.policy, zone.records - removed | added)
    except ValueError:
        with pytest.raises(ValueError):
            zone.derive(removed, added)
        return
    derived = zone.derive(removed, added)
    assert derived == expected
    assert derived.soa_serial == expected.soa_serial
    for name in QUERY_NAMES:
        assert set(derived.records_at(name)) == set(expected.records_at(name))
        assert derived.has_node(name) == _has_node_brute_force(derived, name)


@given(st.lists(st.lists(_zone_records(), min_size=1, max_size=3), min_size=1, max_size=6))
@settings(max_examples=80, deadline=None)
def test_has_node_matches_brute_force_across_updates(batches):
    zone = basic_zone("example.com", Open())
    zone.has_node(APEX)
    for i, records in enumerate(batches):
        changes = [AddRecord(rr) if i % 2 == 0 else DeleteAllAtName(rr.name) for rr in records
                   if rr.name.is_subdomain_of(APEX)]
        if changes:
            zone, _ = apply_update(zone, make_update(APEX, changes, msg_id=i))
        for name in QUERY_NAMES:
            assert zone.has_node(name) == _has_node_brute_force(zone, name)
