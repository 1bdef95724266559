"""Scanner pipeline: verdict soundness, no-residue, single-datagram detection,
pacing, collision handling, and snapshot bookkeeping."""

import dataclasses
import gc
import random
import time
from ipaddress import IPv4Address, IPv6Address

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zptoolkit import authsim, wire
from zptoolkit.authsim import Deny, IpAcl, Open, Secondary, SignedKey
from zptoolkit.scanner import (
    MAX_TIMEOUT_S,
    RETRIES_CLEANUP,
    RETRIES_VERIFY,
    AttestationRequired,
    Pacer,
    ProbeConfig,
    ProbeOutcome,
    ProbeTarget,
    Verdict,
    build_probe,
    parse_pair_lines,
    run_probe,
    run_scan,
)
from zptoolkit.transport import (DatagramBus, ManualClock, SimDatagram, SimTransport, SystemClock,
                                 TapEntry, UdpTransport)
from zptoolkit.wire import (
    AddRecord,
    DnsName,
    Opcode,
    RClass,
    Rcode,
    ResourceRecord,
    RType,
    SoaData,
    decode_message,
    encode_message,
    make_update,
)

from conftest import LAB_KEY, SCANNER_SOURCE, attach_server, basic_zone, random_fleet

APEX = DnsName.from_text("example.com")
SENTINEL = APEX.prepend("researchstudyzp")
CFG = ProbeConfig()


def probe(bus, address, cfg=CFG, seed=1):
    transport = SimTransport(bus, SCANNER_SOURCE)
    target = ProbeTarget(APEX, address)
    return run_probe(target, cfg, transport, bus.clock, random.Random(seed))


class TestBuildProbe:
    def test_sentinel_under_zone(self):
        msg = build_probe(ProbeTarget(APEX, "10.0.0.1"), CFG, random.Random(1))
        assert msg.opcode == Opcode.UPDATE
        (rr,) = msg.updates
        assert rr.name == SENTINEL
        assert (rr.rtype, rr.rclass, rr.ttl) == (RType.A, RClass.IN, 120)
        assert rr.rdata == CFG.probe_address

    def test_sentinel_under_full_registrable_domain(self):
        target = ProbeTarget(DnsName.from_text("example.co.uk"), "10.0.0.1")
        msg = build_probe(target, CFG, random.Random(1))
        assert msg.updates[0].name == DnsName.from_text("researchstudyzp.example.co.uk")

    def test_ipv6_probe_address_emits_aaaa(self):
        cfg = ProbeConfig(probe_address=IPv6Address("2001:db8::80"))
        msg = build_probe(ProbeTarget(APEX, "10.0.0.1"), cfg, random.Random(1))
        assert msg.updates[0].rtype == RType.AAAA

    def test_sentinel_label_validation(self):
        with pytest.raises(ValueError):
            ProbeConfig(sentinel_label=b"not.a.label")
        with pytest.raises(ValueError):
            ProbeConfig(sentinel_label=b"")

    @pytest.mark.parametrize("field,value", [
        ("ttl", -5), ("ttl", 2**31), ("timeout", 0.0), ("timeout", -1.0),
        ("timeout", float("nan")), ("timeout", float("inf")), ("timeout", 1e10),
        ("per_nameserver_rate", 0.0), ("per_nameserver_rate", -1.0),
        ("per_nameserver_rate", float("nan"))])
    def test_impossible_ttl_or_timeout_rejected(self, field, value):
        # RFC 2181 section 8: a TTL is 0..2^31-1; the encoder would mask -5 to 4294967291.
        # An endless wait moves a sim clock to inf and overflows a socket timeout, and
        # a rate that is not above 0 would silently turn pacing off
        with pytest.raises(ValueError):
            ProbeConfig(**{field: value})

    def test_timeout_and_rate_bounds_accepted(self):
        ProbeConfig(timeout=MAX_TIMEOUT_S)
        cfg = ProbeConfig(per_nameserver_rate=float("inf"))
        assert Pacer(ManualClock(), cfg.per_nameserver_rate).min_gap == 0.0  # no gap

    def test_ttl_bounds_accepted(self):
        for ttl in (0, wire.MAX_TTL):
            build_probe(ProbeTarget(APEX, "10.0.0.1"), ProbeConfig(ttl=ttl), random.Random(1))


class TestRunProbe:
    def test_open_zone_vulnerable_confirmed_with_no_residue(self, bus):
        zone = basic_zone("example.com", Open())
        server = attach_server(bus, "10.0.0.1", zone)
        out = probe(bus, "10.0.0.1")
        assert out.verdict is Verdict.VULNERABLE_CONFIRMED
        assert out.update_rcode == Rcode.NOERROR
        assert out.cleanup_confirmed is True
        assert server.zones[APEX].normalized_records() == zone.normalized_records()

    def test_deny_zone_not_vulnerable_refused(self, bus):
        attach_server(bus, "10.0.0.1", basic_zone("example.com", Deny()))
        out = probe(bus, "10.0.0.1")
        assert out.verdict is Verdict.NOT_VULNERABLE
        assert out.update_rcode == Rcode.REFUSED

    def test_signedkey_zone_not_vulnerable_notauth_or_refused(self, bus):
        attach_server(bus, "10.0.0.1", basic_zone("example.com", SignedKey((LAB_KEY,))))
        out = probe(bus, "10.0.0.1")
        assert out.verdict is Verdict.NOT_VULNERABLE
        assert out.update_rcode == Rcode.REFUSED  # unsigned probe

    def test_ipacl_zone_listing_scanner_source_is_vulnerable(self, bus):
        attach_server(bus, "10.0.0.1",
                      basic_zone("example.com", IpAcl(frozenset({SCANNER_SOURCE}))))
        out = probe(bus, "10.0.0.1")
        assert out.verdict is Verdict.VULNERABLE_CONFIRMED

    def test_secondary_forwarding_path_vulnerable(self, bus):
        primary_zone = basic_zone("example.com", IpAcl(frozenset({"10.0.1.2"})))
        secondary_zone = dataclasses.replace(primary_zone, role=Secondary("10.0.1.1"),
                                             policy=Open())
        primary = attach_server(bus, "10.0.1.1", primary_zone)
        secondary = attach_server(bus, "10.0.1.2", secondary_zone)
        primary.register_secondary(APEX, "10.0.1.2")
        out = probe(bus, "10.0.1.2")
        assert out.verdict is Verdict.VULNERABLE_CONFIRMED
        assert primary.zones[APEX].normalized_records() == primary_zone.normalized_records()
        assert secondary.zones[APEX].normalized_records() == secondary_zone.normalized_records()

    def test_lagging_secondary_probe_is_deleted(self, bus):
        # the primary's IXFR pushes land after the verify and the re-check, so
        # neither sees the record the primary took from the forwarded probe
        primary_zone = basic_zone("example.com", IpAcl(frozenset({"10.0.1.2"})))
        secondary_zone = dataclasses.replace(primary_zone, role=Secondary("10.0.1.1"),
                                             policy=Open())
        primary = attach_server(bus, "10.0.1.1", primary_zone)
        secondary = attach_server(bus, "10.0.1.2", secondary_zone)
        primary.register_secondary(APEX, "10.0.1.2")
        bus.delay_fn = lambda d: 5.0 if d.source == "10.0.1.1" and any(
            q.rtype == RType.IXFR for q in decode_message(d.payload).question) else 0.0
        out = probe(bus, "10.0.1.2", ProbeConfig(timeout=3))
        assert out.verdict is Verdict.UPDATE_ACCEPTED_NOT_VISIBLE
        assert out.cleanup_confirmed is not None
        bus.pump()
        assert primary.zones[APEX].normalized_records() == primary_zone.normalized_records()
        assert secondary.zones[APEX].normalized_records() == secondary_zone.normalized_records()

    def test_unreachable_after_retries(self, bus):
        bus.drop_filter = lambda d: d.destination == "10.9.9.9"
        out = probe(bus, "10.9.9.9")
        assert out.verdict is Verdict.UNREACHABLE
        assert out.detection_updates_sent == RETRIES_VERIFY + 1
        assert out.t_update_ms >= CFG.timeout * 1000 * (RETRIES_VERIFY + 1)

    def test_dark_target_retries_one_encoded_probe(self, bus, monkeypatch):
        encoded = []
        encode = wire.encode_message
        monkeypatch.setattr(wire, "encode_message", lambda msg: encoded.append(msg) or encode(msg))
        out = probe(bus, "10.9.9.9")  # no server attached
        assert out.verdict is Verdict.UNREACHABLE
        assert out.detection_updates_sent == RETRIES_VERIFY + 1
        assert len(bus.updates_seen("10.9.9.9")) == RETRIES_VERIFY + 1
        assert len(encoded) == 1

    def test_retransmission_only_after_timeout_can_still_succeed(self, bus):
        attach_server(bus, "10.0.0.1", basic_zone("example.com", Open()))
        dropped = []

        def drop_first_update(dgram):
            if not dropped and dgram.destination == "10.0.0.1":
                dropped.append(dgram)
                return True
            return False

        bus.drop_filter = drop_first_update
        out = probe(bus, "10.0.0.1")
        assert out.verdict is Verdict.VULNERABLE_CONFIRMED
        assert out.detection_updates_sent == 2  # one loss, one timeout-gated retry
        stamps = [e.ts for e in bus.updates_seen("10.0.0.1")
                  if e.datagram.source == SCANNER_SOURCE]
        assert stamps[1] - stamps[0] >= CFG.timeout  # the retry waited out the timeout

    def test_single_update_datagram_on_detection(self, bus):
        attach_server(bus, "10.0.0.1", basic_zone("example.com", Deny()))
        attach_server(bus, "10.0.0.2", basic_zone("example.com", Open()))
        probe(bus, "10.0.0.1", seed=3)
        probe(bus, "10.0.0.2", seed=4)
        from_scanner = [e for e in bus.updates_seen()
                        if e.datagram.source == SCANNER_SOURCE]
        to_deny = [e for e in from_scanner if e.datagram.destination == "10.0.0.1"]
        to_open = [e for e in from_scanner if e.datagram.destination == "10.0.0.2"]
        assert len(to_deny) == 1            # refusal decided by one datagram
        assert len(to_open) == 2            # probe insert + cleanup delete
        outcomes = [probe(bus, "10.0.0.1", seed=5), probe(bus, "10.0.0.2", seed=6)]
        assert [o.detection_updates_sent for o in outcomes] == [1, 1]

    def test_update_accepted_not_visible_when_server_lies(self, bus):
        def liar(dgram, now):
            msg = decode_message(dgram.payload)
            reply = encode_message(
                type(msg)(id=msg.id, opcode=msg.opcode, rcode=Rcode.NOERROR,
                          is_response=True, question=msg.question))
            return [SimDatagram("10.0.0.9", dgram.source, reply)]

        bus.attach("10.0.0.9", liar)
        out = probe(bus, "10.0.0.9")
        assert out.verdict is Verdict.UPDATE_ACCEPTED_NOT_VISIBLE
        assert out.update_rcode == Rcode.NOERROR

    @pytest.mark.parametrize("truncated, verdict", [
        (lambda n: n == 1, Verdict.VULNERABLE_CONFIRMED),  # the retried verify sees the record
        (lambda n: True, Verdict.UPDATE_ACCEPTED_NOT_VISIBLE),
    ], ids=["first-query", "every-query"])
    def test_truncated_query_answers_are_retried(self, bus, truncated, verdict):
        # the n-th query gets an empty TC=1 answer when truncated(n), as a rate
        # limiter's "slip" sends; the probe is deleted either way
        zone = basic_zone("example.com", Open())
        server = attach_server(bus, "10.0.0.1", zone)
        queries = []

        def slipping(dgram, now):
            msg = decode_message(dgram.payload)
            if msg.opcode == Opcode.QUERY:
                queries.append(msg)
                if truncated(len(queries)):
                    reply = dataclasses.replace(msg, is_response=True, extra_flags=0x0200)
                    return [SimDatagram("10.0.0.1", dgram.source, encode_message(reply))]
            return server.handle_datagram(dgram, now)

        bus.attach("10.0.0.1", slipping)
        assert probe(bus, "10.0.0.1").verdict is verdict
        assert server.zones[APEX].normalized_records() == zone.normalized_records()

    def test_malformed_reply(self, bus):
        bus.attach("10.0.0.9", lambda d, now: [SimDatagram("10.0.0.9", d.source, b"\xff\xff\xff")])
        out = probe(bus, "10.0.0.9")
        assert out.verdict is Verdict.MALFORMED_REPLY

    def test_unmatched_query_replies_are_malformed(self, bus):
        # the UPDATE is answered properly, but every query reply carries the
        # wrong id: the first shows the sentinel, the later ones do not. None
        # of them may confirm the insert or its removal.
        queries = []

        def forger(dgram, now):
            msg = decode_message(dgram.payload)
            msg_id, answers = msg.id, ()
            if msg.opcode == Opcode.QUERY:
                queries.append(msg)
                msg_id ^= 1
                if len(queries) == 1:
                    answers = (ResourceRecord(SENTINEL, RType.A, RClass.IN, 120,
                                              CFG.probe_address),)
            reply = type(msg)(id=msg_id, opcode=msg.opcode, rcode=Rcode.NOERROR,
                              is_response=True, question=msg.question, answers=answers)
            return [SimDatagram("10.0.0.9", dgram.source, encode_message(reply))]

        bus.attach("10.0.0.9", forger)
        out = probe(bus, "10.0.0.9")
        assert out.verdict is Verdict.MALFORMED_REPLY
        assert out.update_rcode == Rcode.NOERROR
        assert out.cleanup_confirmed is False
        assert len(queries) > 1

    def test_preexisting_sentinel_collision_preserved(self, bus):
        # a sentinel rrset already exists with someone else's address: verdict
        # degrades and only our own triple is deleted
        foreign = ResourceRecord(SENTINEL, RType.A, RClass.IN, 3600,
                                 IPv4Address("198.51.100.77"))
        zone = basic_zone("example.com", Open(), extra=[foreign])
        server = attach_server(bus, "10.0.0.1", zone)
        out = probe(bus, "10.0.0.1")
        assert out.verdict is Verdict.UPDATE_ACCEPTED_NOT_VISIBLE
        assert out.cleanup_confirmed is True
        remaining = server.zones[APEX].rrset(SENTINEL, RType.A)
        assert [rr.rdata for rr in remaining] == [IPv4Address("198.51.100.77")]

    def test_cleanup_failed_still_counts_vulnerable(self, bus):
        zone = basic_zone("example.com", Open())
        server = attach_server(bus, "10.0.0.1", zone)
        original = server.handle_datagram

        def no_deletes(dgram, now):
            msg = decode_message(dgram.payload)
            if msg.opcode == Opcode.UPDATE and any(rr.rclass != RClass.IN for rr in msg.updates):
                reply = type(msg)(id=msg.id, opcode=msg.opcode, rcode=Rcode.NOERROR,
                                  is_response=True, question=msg.question)
                return [SimDatagram("10.0.0.1", dgram.source, encode_message(reply))]
            return original(dgram, now)

        bus.attach("10.0.0.1", no_deletes)
        out = probe(bus, "10.0.0.1")
        assert out.verdict is Verdict.CLEANUP_FAILED
        assert out.cleanup_confirmed is False
        assert out.vulnerable
        assert out.cleanup_updates_sent == RETRIES_CLEANUP

    def test_cleanup_spares_a_record_added_after_the_check(self, bus):
        # another client joins the sentinel rrset between our check and our
        # cleanup: the delete names our rdata alone, so its record stays
        zone = basic_zone("example.com", Open())
        server = attach_server(bus, "10.0.0.1", zone)
        original = server.handle_datagram
        foreign = ResourceRecord(SENTINEL, RType.A, RClass.IN, 3600, IPv4Address("198.51.100.77"))
        updates, queries = [], []

        def racing(dgram, now):
            replies = original(dgram, now)
            msg = decode_message(dgram.payload)
            (updates if msg.opcode == Opcode.UPDATE else queries).append(msg)
            if len(queries) == 1 and msg.opcode == Opcode.QUERY:
                other = make_update(APEX, [AddRecord(foreign)], msg_id=77)
                original(SimDatagram("198.51.100.50", "10.0.0.1", encode_message(other)), now)
            return replies

        bus.attach("10.0.0.1", racing)
        out = probe(bus, "10.0.0.1")
        assert out.verdict is Verdict.VULNERABLE_CONFIRMED
        assert out.cleanup_confirmed is True and out.cleanup_updates_sent == 1
        (delete,) = updates[1].updates
        assert (delete.name, delete.rtype, delete.rclass, delete.rdata) == (
            SENTINEL, RType.A, RClass.NONE, CFG.probe_address)
        remaining = server.zones[APEX].rrset(SENTINEL, RType.A)
        assert [rr.rdata for rr in remaining] == [IPv4Address("198.51.100.77")]

    def test_a_port_that_refuses_the_delete_ends_the_cleanup(self, bus):
        """A refusal (``ConnectionRefusedError``) is read as an unanswered exchange
        with nothing resent: the cleanup stops at its first delete, unconfirmed."""
        server = attach_server(bus, "10.0.0.1", basic_zone("example.com", Open()))
        inner = SimTransport(bus, SCANNER_SOURCE)
        sent = []

        class RefusingDeletes:  # the bus, where the port refuses every delete
            clock = bus.clock

            def exchange(self, payload, destination, timeout):
                sent.append(payload)
                msg = decode_message(payload)
                if msg.opcode == Opcode.UPDATE and msg.updates[0].rclass == RClass.NONE:
                    raise ConnectionRefusedError
                return inner.exchange(payload, destination, timeout)

        out = run_probe(ProbeTarget(APEX, "10.0.0.1"), CFG, RefusingDeletes(), bus.clock,
                        random.Random(1))
        assert out.verdict is Verdict.CLEANUP_FAILED
        assert (out.cleanup_confirmed, out.cleanup_updates_sent) == (False, 1)
        assert len(sent) == 3  # probe, verify, one refused delete
        assert server.zones[APEX].rrset(SENTINEL, RType.A)

    def test_attestation_gate_for_udp(self):
        with pytest.raises(AttestationRequired):
            run_probe(ProbeTarget(APEX, "127.0.0.1:5399"), ProbeConfig(), UdpTransport())

    def test_attestation_gate_for_a_udp_scan_comes_first(self):
        def targets():
            raise AssertionError("a target was read before the attestation was checked")
            yield

        with pytest.raises(AttestationRequired):
            run_scan(targets(), ProbeConfig(), UdpTransport())


class TestRunScan:
    def test_fleet_counts_match_policy_ground_truth(self, bus):
        rng = random.Random(7)
        servers, targets, truly_vulnerable = random_fleet(bus, rng, 100)
        result = run_scan(targets, CFG, SimTransport(bus, SCANNER_SOURCE), bus.clock,
                          random.Random(8))
        verdicts = {o.target.zone.to_text(): o for o in result.outcomes}
        flagged = {z for z, o in verdicts.items() if o.vulnerable}
        assert flagged == truly_vulnerable  # zero false positives or negatives
        assert result.snapshot.vulnerable.domains == len(truly_vulnerable)
        assert result.snapshot.vulnerable.nameservers == len(truly_vulnerable)
        assert result.snapshot.vulnerable.pairs == len(truly_vulnerable)
        assert result.snapshot.tested.pairs == len(targets)

    def test_hundred_server_fleet_composition(self, bus):
        # 30 open / 50 deny / 15 ip-acl (scanner unlisted) / 5 signed-key,
        # one zone each: exactly the 30 open zones are vulnerable
        policies = ([Open()] * 30 + [Deny()] * 50
                    + [IpAcl(frozenset({"203.0.113.9"}))] * 15
                    + [SignedKey((LAB_KEY,))] * 5)
        targets = []
        for i, policy in enumerate(policies):
            addr = f"10.60.{i // 250}.{i % 250 + 1}"
            zone = basic_zone(f"fleet{i}.example", policy)
            attach_server(bus, addr, zone)
            targets.append(ProbeTarget(zone.apex, addr))
        result = run_scan(targets, CFG, SimTransport(bus, SCANNER_SOURCE), bus.clock,
                          random.Random(6))
        snap = result.snapshot
        assert snap.tested.pairs == 100
        assert (snap.vulnerable.domains, snap.vulnerable.nameservers, snap.vulnerable.pairs) == (30, 30, 30)
        flagged = {o.target.zone.to_text() for o in result.outcomes if o.vulnerable}
        assert flagged == {f"fleet{i}.example" for i in range(30)}

    def test_same_domain_one_open_one_deny_nameserver(self, bus):
        attach_server(bus, "10.0.0.1", basic_zone("example.com", Open()))
        attach_server(bus, "10.0.0.2", basic_zone("example.com", Deny()))
        targets = [ProbeTarget(APEX, "10.0.0.1"), ProbeTarget(APEX, "10.0.0.2")]
        result = run_scan(targets, CFG, SimTransport(bus, SCANNER_SOURCE), bus.clock,
                          random.Random(1))
        snap = result.snapshot
        assert snap.tested.pairs == 2 and snap.tested.domains == 1 and snap.tested.nameservers == 2
        assert (snap.vulnerable.domains, snap.vulnerable.nameservers, snap.vulnerable.pairs) == (1, 1, 1)

    def test_case_variants_of_one_zone_are_one_domain(self, bus):
        attach_server(bus, "10.0.0.1", basic_zone("example.com", Open()))
        attach_server(bus, "10.0.0.2", basic_zone("example.com", Open()))
        targets = [ProbeTarget(DnsName.from_text("Example.COM"), "10.0.0.1"),
                   ProbeTarget(APEX, "10.0.0.2"),
                   ProbeTarget(DnsName.from_text("EXAMPLE.com"), "10.0.0.2")]
        result = run_scan(targets, CFG, SimTransport(bus, SCANNER_SOURCE), bus.clock,
                          random.Random(1))
        snap = result.snapshot
        assert len(result.outcomes) == 2
        assert snap.tested.domains == snap.vulnerable.domains == 1
        assert snap.tested.pairs == snap.vulnerable.pairs == 2
        assert snap.vulnerable_pairs == {("example.com", "10.0.0.1"), ("example.com", "10.0.0.2")}

    def test_a_label_holding_a_dot_is_not_two_labels(self, bus):
        # two names that differ only in where a dot sits: each is its own pair,
        # and case variants stay one
        dotted, split = DnsName([b"a.b", b"example"]), DnsName.from_text("a.b.example")
        assert dotted != split and dotted.to_text() == "a\\.b.example"
        attach_server(bus, "10.0.0.1")
        targets = [ProbeTarget(dotted, "10.0.0.1"), ProbeTarget(split, "10.0.0.1"),
                   ProbeTarget(DnsName([b"A.B", b"EXAMPLE"]), "10.0.0.1")]
        result = run_scan(targets, CFG, SimTransport(bus, SCANNER_SOURCE), bus.clock,
                          random.Random(1))
        assert [o.target.zone for o in result.outcomes] == [dotted, split]
        assert result.snapshot.tested.pairs == 2 and result.snapshot.tested.domains == 2

    def test_zones_that_differ_in_a_dot_are_two_vulnerable_domains(self, bus):
        """Their texts differ (RFC 1035 §5.1 escapes), so the snapshot and the
        outcomes' JSON keep the two vulnerable zones apart."""
        dotted, split = DnsName([b"a.b", b"example"]), DnsName.from_text("a.b.example")
        attach_server(bus, "10.0.0.1", *(authsim.ZoneConfig.build(
            apex, authsim.Primary(), Open(), [authsim.make_soa(apex)]) for apex in (dotted, split)))
        result = run_scan([ProbeTarget(dotted, "10.0.0.1"), ProbeTarget(split, "10.0.0.1")], CFG,
                          SimTransport(bus, SCANNER_SOURCE), bus.clock, random.Random(1))
        assert [o.verdict for o in result.outcomes] == [Verdict.VULNERABLE_CONFIRMED] * 2
        snap = result.snapshot
        assert snap.tested.domains == snap.vulnerable.domains == 2
        zones = [o.to_json_obj()["zone"] for o in result.outcomes]
        assert zones == ["a\\.b.example", "a.b.example"]
        assert [DnsName.from_text(zone) for zone in zones] == [dotted, split]

    def test_faulty_update_handler_answers_servfail(self, bus, monkeypatch, caplog):
        broken = DnsName.from_text("broken.example")
        apply_update = authsim.apply_update

        def faulty(zone, msg):
            if zone.apex == broken:
                raise RuntimeError("injected fault")
            return apply_update(zone, msg)

        monkeypatch.setattr(authsim, "apply_update", faulty)
        healthy = attach_server(bus, "10.0.0.1", basic_zone("example.com", Open()))
        faulty_server = attach_server(bus, "10.0.0.2", basic_zone("broken.example", Open()))
        targets = [ProbeTarget(APEX, "10.0.0.1"), ProbeTarget(broken, "10.0.0.2")]
        result = run_scan(targets, CFG, SimTransport(bus, SCANNER_SOURCE), bus.clock,
                          random.Random(1))
        by_zone = {o.target.zone: o for o in result.outcomes}
        assert by_zone[APEX].verdict == Verdict.VULNERABLE_CONFIRMED
        assert by_zone[broken].verdict == Verdict.NOT_VULNERABLE
        assert by_zone[broken].update_rcode == Rcode.SERVFAIL
        assert (healthy.faults, faulty_server.faults) == (0, 1)
        assert "injected fault" in caplog.text

    def test_faulty_secondary_response_handler_is_contained(self, bus, monkeypatch, caplog):
        def faulty(self, zone, msg):
            raise RuntimeError("injected fault")

        monkeypatch.setattr(authsim.NameServer, "_apply_diff", faulty)
        zone = basic_zone("example.com", Open())
        primary = attach_server(bus, "10.0.1.1", zone)
        secondary = attach_server(bus, "10.0.1.2",
                                  dataclasses.replace(zone, role=Secondary("10.0.1.1")))
        primary.register_secondary(APEX, "10.0.1.2")
        result = run_scan([ProbeTarget(APEX, "10.0.1.1")], CFG,
                          SimTransport(bus, SCANNER_SOURCE), bus.clock, random.Random(1))
        (outcome,) = result.outcomes
        assert outcome.verdict == Verdict.VULNERABLE_CONFIRMED
        assert (primary.faults, secondary.faults > 0) == (0, True)
        assert "injected fault" in caplog.text

    def test_empty_target_stream(self, bus):
        result = run_scan([], CFG, SimTransport(bus, SCANNER_SOURCE), bus.clock)
        snap = result.snapshot
        assert snap.tested.pairs == 0 and snap.vulnerable.pairs == 0

    def test_duplicate_targets_probed_once(self, bus):
        attach_server(bus, "10.0.0.1", basic_zone("example.com", Open()))
        targets = [ProbeTarget(APEX, "10.0.0.1")] * 3
        result = run_scan(targets, CFG, SimTransport(bus, SCANNER_SOURCE), bus.clock,
                          random.Random(1))
        assert len(result.outcomes) == 1

    def test_zone_too_long_for_the_sentinel_is_an_outcome(self, bus):
        # 245 wire bytes: with the 16 of the default sentinel label, 261 > 255
        long_zone = DnsName.from_text(".".join(["a" * 63] * 3 + ["b" * 51]))
        assert len(long_zone.to_wire()) == 245
        attach_server(bus, "10.0.0.1", basic_zone("example.com", Open()))
        targets = [ProbeTarget(long_zone, "10.0.0.2"), ProbeTarget(APEX, "10.0.0.1")]
        result = run_scan(targets, CFG, SimTransport(bus, SCANNER_SOURCE), bus.clock,
                          random.Random(1))
        skipped, probed = result.outcomes
        assert skipped.verdict is Verdict.NOT_PROBED and not skipped.vulnerable
        assert skipped.update_rcode is None
        assert (skipped.detection_updates_sent, skipped.cleanup_updates_sent) == (0, 0)
        assert not any(e.datagram.destination == "10.0.0.2" for e in bus.tap)
        assert probed.verdict is Verdict.VULNERABLE_CONFIRMED
        assert result.snapshot.tested.pairs == 2 and result.snapshot.vulnerable.pairs == 1

    def test_quiet_bus_keeps_no_datagram_objects(self, bus):
        _, targets, _ = random_fleet(bus, random.Random(5), 12)
        targets.append(ProbeTarget(DnsName.from_text("dark.example"), "10.9.9.9"))

        def census():
            gc.collect()
            return sum(isinstance(o, (SimDatagram, TapEntry)) for o in gc.get_objects())

        before = census()
        result = run_scan(targets, CFG, SimTransport(bus, SCANNER_SOURCE), bus.clock,
                          random.Random(1))
        bus.pump()
        assert len(result.outcomes) == 13 and len(bus.tap) > 2 * 13
        assert census() == before

    def test_per_nameserver_pacing_respected(self, bus):
        attach_server(bus, "10.0.0.1",
                      basic_zone("zone0.example", Deny()),
                      basic_zone("zone1.example", Deny()),
                      basic_zone("zone2.example", Deny()))
        targets = [ProbeTarget(DnsName.from_text(f"zone{i}.example"), "10.0.0.1")
                   for i in range(3)]
        cfg = ProbeConfig(per_nameserver_rate=2.0)
        run_scan(targets, cfg, SimTransport(bus, SCANNER_SOURCE), bus.clock, random.Random(1))
        stamps = [e.ts for e in bus.updates_seen("10.0.0.1")
                  if e.datagram.source == SCANNER_SOURCE]
        gaps = [b - a for a, b in zip(stamps, stamps[1:])]
        assert all(gap >= 0.5 - 1e-9 for gap in gaps)

    def test_scan_without_a_clock_runs_on_the_transport_clock(self, bus, monkeypatch):
        def real_sleep(seconds):
            raise AssertionError(f"the scan slept {seconds} s of real time")

        monkeypatch.setattr(time, "sleep", real_sleep)
        other = DnsName.from_text("example.org")
        attach_server(bus, "10.0.0.1", basic_zone("example.com", Open()),
                      basic_zone("example.org", Open()))
        transport = SimTransport(bus, SCANNER_SOURCE)
        # two zones on one server: the pacer waits between them, on the bus clock
        result = run_scan([ProbeTarget(APEX, "10.0.0.1"), ProbeTarget(other, "10.0.0.1")], CFG,
                          transport, rng=random.Random(1))
        assert [o.verdict for o in result.outcomes] == [Verdict.VULNERABLE_CONFIRMED] * 2
        # the bus delivers at once, so each probe takes no sim time
        assert [o.ts for o in result.outcomes] == [0.0, 1 / CFG.per_nameserver_rate]
        assert result.snapshot.timestamp == bus.clock.now() == 1 / CFG.per_nameserver_rate
        assert transport.clock is bus.clock
        assert isinstance(UdpTransport().clock, SystemClock)


def test_parse_pair_lines():
    lines = ["example.com,10.0.0.1", "# comment", "", "other.test,10.0.0.2  # trailing"]
    targets = list(parse_pair_lines(lines))
    assert [(t.zone.to_text(), t.nameserver) for t in targets] == [
        ("example.com", "10.0.0.1"), ("other.test", "10.0.0.2")]
    with pytest.raises(ValueError, match="^line 2: pair line needs"):
        list(parse_pair_lines(["# pairs", "no-comma-here"]))
    with pytest.raises(ValueError, match="^line 3: label"):
        list(parse_pair_lines(["example.com,10.0.0.1", "", "a..example.com,10.0.0.1"]))


@pytest.mark.parametrize("nameserver", ["127.0.0.1:abc", "127.0.0.1:70000", "127.0.0.1:",
                                        "[::1]:99999", "[::1", ":53", "[]:53"])
def test_target_endpoint_checked_when_read(nameserver):
    with pytest.raises(ValueError):
        list(parse_pair_lines(["example.com,10.0.0.1", f"example.com,{nameserver}"]))
    with pytest.raises(ValueError):
        ProbeTarget(APEX, nameserver)


def test_outcome_json_shape(bus):
    attach_server(bus, "10.0.0.1", basic_zone("example.com", Open()))
    out = probe(bus, "10.0.0.1")
    obj = out.to_json_obj()
    assert set(obj) == {"zone", "ns", "verdict", "rcode", "t_update_ms", "t_verify_ms",
                        "t_cleanup_ms", "cleanup_ok", "detection_updates_sent",
                        "cleanup_updates_sent", "ts"}
    assert obj["zone"] == "example.com" and obj["verdict"] == "vulnerable_confirmed"
    assert obj["rcode"] == "NOERROR" and obj["cleanup_ok"] is True
    assert obj["detection_updates_sent"] == 1 and obj["cleanup_updates_sent"] == 1
    assert obj["t_cleanup_ms"] == round(out.t_cleanup_ms, 3)


# --- every input is an outcome, never an exception ---

# nameserver endpoints: each written form, answering or dark
ANSWERING = ["10.0.0.1", "10.0.0.2:5353", "[2001:db8::1]", "[2001:db8::1]:53", "2001:db8::2"]
DARK = ["198.51.100.7", "[2001:db8::dead]:5300"]
SHORT = DnsName.from_text("ns.example")  # SOA and NS targets that fit beside any apex
LABEL_BYTES = b"abcxyzABC019-"


@st.composite
def label(draw, size: int) -> bytes:
    head = bytes([draw(st.sampled_from(LABEL_BYTES))])
    return head + bytes([draw(st.sampled_from(LABEL_BYTES))]) * (size - 1)


@st.composite
def zone_name(draw) -> DnsName:
    """A name of up to 255 wire bytes, often close to that bound."""
    size = draw(st.one_of(st.integers(3, 64), st.integers(3, 255), st.integers(192, 255)))
    room = size - 1  # wire bytes for the labels: the root's zero byte is the last
    labels = []
    while room >= 2:
        n = draw(st.integers(1, min(63, room - 1)))
        labels.append(draw(label(n)))
        room -= n + 1
    return DnsName(labels)


# an open zone whose server never receives the cleanup's delete
STICKY = "sticky"


@st.composite
def scans(draw):
    """Targets over drawn zones and endpoints, a policy per answering pair
    (open, deny or sticky), a sentinel label."""
    zones = draw(st.lists(zone_name(), min_size=1, max_size=4))
    targets = []
    for _ in range(draw(st.integers(1, 6))):
        zone = draw(st.sampled_from(zones))
        if draw(st.booleans()):  # the same zone in another case
            zone = DnsName(z.swapcase() for z in zone.labels)
        targets.append(ProbeTarget(zone, draw(st.sampled_from(ANSWERING + DARK))))
    policies = {t: draw(st.sampled_from([Open(), Deny(), STICKY])) for t in targets}
    sentinel = draw(label(draw(st.integers(1, 63))))
    address = draw(st.sampled_from([IPv4Address("192.0.2.80"), IPv6Address("2001:db8::80")]))
    return targets, policies, ProbeConfig(sentinel_label=sentinel, probe_address=address)


def _served_zone(apex: DnsName, policy) -> authsim.ZoneConfig:
    soa = SoaData(SHORT, SHORT, 1, 7200, 900, 1209600, 86400)
    return authsim.ZoneConfig.build(apex, authsim.Primary(), policy, [
        ResourceRecord(apex, RType.SOA, RClass.IN, 3600, soa),
        ResourceRecord(apex, RType.NS, RClass.IN, 3600, SHORT)])


@given(scans())
@example(([ProbeTarget(DnsName([b"a" * 63] * 3 + [b"b" * 51]), "10.0.0.1")], {},
          ProbeConfig()))  # 245 bytes, and 16 more for the sentinel
@settings(max_examples=150, deadline=None)
def test_every_scan_input_is_an_outcome(scan):
    targets, policies, cfg = scan
    sticky = set()  # (nameserver, zone) pairs whose deletes are lost

    def lose_deletes(dgram) -> bool:
        if dgram.payload[2] & 0xF8 != Opcode.UPDATE << 3:
            return False
        msg = decode_message(dgram.payload)
        return msg.updates[0].rclass == RClass.NONE and (dgram.destination,
                                                         msg.question[0].name) in sticky

    bus = DatagramBus(clock=ManualClock(), rng=random.Random(0), drop_filter=lose_deletes)
    servers = {}
    for target in targets:
        if target.nameserver in ANSWERING:
            if target.nameserver not in servers:
                servers[target.nameserver] = attach_server(bus, target.nameserver)
            policy = policies.get(target, Open())
            key = (target.nameserver, target.zone)  # a later case variant serves in its place
            sticky.discard(key)
            if policy == STICKY:
                sticky.add(key)
                policy = Open()
            servers[target.nameserver].add_zone(_served_zone(target.zone, policy))
    result = run_scan(targets, cfg, SimTransport(bus, SCANNER_SOURCE), bus.clock,
                      random.Random(1))
    pairs = list(dict.fromkeys((t.zone.to_text().lower(), t.nameserver) for t in targets))
    assert [(o.target.zone.to_text().lower(), o.target.nameserver)
            for o in result.outcomes] == pairs
    assert result.snapshot.tested.pairs == len(pairs)
    for outcome in result.outcomes:
        # run_probe fills outcomes slot by slot, past ProbeOutcome.__post_init__:
        # the public constructor must accept each one as it stands
        rebuilt = ProbeOutcome(*(getattr(outcome, f.name) for f in dataclasses.fields(outcome)))
        assert rebuilt == outcome
        zone, nameserver = outcome.target.zone, outcome.target.nameserver
        too_long = len(zone.to_wire()) + 1 + len(cfg.sentinel_label) > 255
        assert (outcome.verdict is Verdict.NOT_PROBED) == too_long
        if too_long:
            assert outcome.detection_updates_sent == 0
        elif nameserver in DARK:
            assert outcome.verdict is Verdict.UNREACHABLE
        elif (nameserver, zone) in sticky:
            assert outcome.verdict is Verdict.CLEANUP_FAILED
            assert outcome.cleanup_confirmed is False
            assert outcome.cleanup_updates_sent == RETRIES_CLEANUP
        else:
            served = servers[nameserver].zones[zone]
            expected = Verdict.VULNERABLE_CONFIRMED if isinstance(served.policy, Open) \
                else Verdict.NOT_VULNERABLE
            assert outcome.verdict is expected
            assert outcome.cleanup_confirmed is (
                True if expected is Verdict.VULNERABLE_CONFIRMED else None)
            assert served.rrset(zone.prepend(cfg.sentinel_label), cfg.record_type) == ()
    assert all(server.faults == 0 for server in servers.values())
