"""Acceptance suite: every release criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -s` to see the criterion lines.
"""

import dataclasses
import math
import random
import time
from contextlib import contextmanager
from ipaddress import IPv4Address, IPv6Address

from zptoolkit import attacklab
from zptoolkit.analytics import (
    CategoryCounts,
    NotificationEntry,
    NotificationTemplate,
    RemediationSubject,
    ScanSnapshot,
    compute_rates,
    derive_counts,
    diff_scans,
    kaplan_meier,
    make_notification_batch,
)
from zptoolkit.attacklab import AttackLab, ScenarioName, run_taxonomy_matrix
from zptoolkit.authsim import IpAcl, Open, Secondary
from zptoolkit.scanner import ProbeConfig, Verdict, run_scan
from zptoolkit.transport import ClientEndpoint, DatagramBus, ManualClock, SimTransport
from zptoolkit.wire import (
    AddRecord,
    DnsMessage,
    DnsName,
    MxData,
    Opcode,
    Question,
    RClass,
    Rcode,
    ResourceRecord,
    RType,
    SoaData,
    TxtData,
    WireError,
    decode_message,
    encode_message,
    make_update,
)

from conftest import SCANNER_SOURCE, attach_server, basic_zone, random_fleet


@contextmanager
def criterion(number: int, title: str, budget_seconds: float = None):
    started = time.monotonic()
    try:
        yield
        elapsed = time.monotonic() - started
        if budget_seconds is not None:
            assert elapsed < budget_seconds, f"exceeded {budget_seconds}s budget: {elapsed:.1f}s"
    except BaseException:
        print(f"criterion {number:2d} [FAIL] {title}")
        raise
    print(f"criterion {number:2d} [PASS] {title} ({time.monotonic() - started:.1f}s)")


# --- 1: wire round-trip and fuzz totality ---

_LABELS = ["a", "zone", "ns1", "mail", "researchstudyzp", "x" * 30, "b-2"]


def _random_name(rng):
    return DnsName.from_text(".".join(rng.choice(_LABELS) for _ in range(rng.randint(1, 4))))


def _random_record(rng):
    name = _random_name(rng)
    ttl = rng.randrange(2**32)
    kind = rng.randrange(8)
    if kind == 0:
        return ResourceRecord(name, RType.A, RClass.IN, ttl, IPv4Address(rng.randrange(2**32)))
    if kind == 1:
        return ResourceRecord(name, RType.AAAA, RClass.IN, ttl, IPv6Address(rng.randrange(2**128)))
    if kind == 2:
        return ResourceRecord(name, RType.NS, RClass.IN, ttl, _random_name(rng))
    if kind == 3:
        return ResourceRecord(name, RType.CNAME, RClass.IN, ttl, _random_name(rng))
    if kind == 4:
        return ResourceRecord(name, RType.MX, RClass.IN, ttl,
                              MxData(rng.randrange(2**16), _random_name(rng)))
    if kind == 5:
        strings = tuple(rng.randbytes(rng.randrange(30)) for _ in range(rng.randint(1, 3)))
        return ResourceRecord(name, RType.TXT, RClass.IN, ttl, TxtData(strings))
    if kind == 6:
        return ResourceRecord(name, RType.SOA, RClass.IN, ttl,
                              SoaData(_random_name(rng), _random_name(rng),
                                      *(rng.randrange(2**32) for _ in range(5))))
    return ResourceRecord(name, rng.randrange(256, 65000), RClass.IN, ttl,
                          rng.randbytes(rng.randrange(24)))


def _random_message(rng):
    return DnsMessage(
        id=rng.randrange(2**16),
        opcode=rng.choice([Opcode.QUERY, Opcode.UPDATE]),
        rcode=rng.choice(list(Rcode)),
        is_response=rng.random() < 0.5,
        authoritative=rng.random() < 0.5,
        question=(Question(_random_name(rng), rng.choice([1, 6, 255])),),
        answers=tuple(_random_record(rng) for _ in range(rng.randrange(3))),
        authority=tuple(_random_record(rng) for _ in range(rng.randrange(3))),
        additional=tuple(_random_record(rng) for _ in range(rng.randrange(2))),
    )


def test_criterion_1_wire_round_trip_and_fuzz():
    with criterion(1, "10,000 message round-trips and 100,000-input fuzz, no crashes",
                   budget_seconds=60):
        rng = random.Random(0xD06)
        for _ in range(10_000):
            msg = _random_message(rng)
            assert decode_message(encode_message(msg)) == msg
        for _ in range(100_000):
            blob = rng.randbytes(rng.randrange(64))
            try:
                decode_message(blob)
            except WireError:
                pass


# --- 2 and 3: policy truth table, no-residue, single-datagram detection ---


def _scan_fleet(size=220, seed=0xF1EE7):
    bus = DatagramBus(clock=ManualClock(), rng=random.Random(seed))
    servers, targets, truly_vulnerable = random_fleet(bus, random.Random(seed), size)
    baseline = {addr: {apex: zone.normalized_records() for apex, zone in server.zones.items()}
                for addr, server in servers.items()}
    result = run_scan(targets, ProbeConfig(), SimTransport(bus, SCANNER_SOURCE),
                      bus.clock, random.Random(seed + 1))
    return bus, servers, targets, truly_vulnerable, baseline, result


def test_criterion_2_policy_truth_table_and_no_residue():
    with criterion(2, "scanner verdicts match a 220-zone fleet's ground truth, no residue",
                   budget_seconds=120):
        bus, servers, targets, truly_vulnerable, baseline, result = _scan_fleet()
        assert len(targets) >= 200
        flagged = {o.target.zone.to_text() for o in result.outcomes if o.vulnerable}
        assert flagged == truly_vulnerable  # zero false positives, zero false negatives
        for outcome in result.outcomes:
            if outcome.verdict is Verdict.VULNERABLE_CONFIRMED:
                server = servers[outcome.target.nameserver]
                for apex, zone in server.zones.items():
                    assert zone.normalized_records() == baseline[outcome.target.nameserver][apex]


def test_criterion_3_single_datagram_detection():
    with criterion(3, "exactly one UPDATE datagram per detection on responsive targets"):
        bus, servers, targets, _, _, result = _scan_fleet(size=120, seed=0x51D)
        updates_by_ns = {}
        for entry in bus.updates_seen():
            if entry.datagram.source == SCANNER_SOURCE:
                updates_by_ns[entry.datagram.destination] = (
                    updates_by_ns.get(entry.datagram.destination, 0) + 1)
        for outcome in result.outcomes:
            assert outcome.verdict is not Verdict.UNREACHABLE
            assert outcome.detection_updates_sent == 1
            expected = 1 + outcome.cleanup_updates_sent  # detection + cleanup deletes
            assert updates_by_ns[outcome.target.nameserver] == expected


# --- 4: propagation in both directions ---


def test_criterion_4_propagation():
    with criterion(4, "updates materialize on both primary and secondary"):
        apex = DnsName.from_text("example.com")
        rr = ResourceRecord(apex.prepend("researchstudyzp"), RType.A, RClass.IN, 120,
                            IPv4Address("192.0.2.80"))

        def build(primary_policy, secondary_policy):
            bus = DatagramBus(clock=ManualClock(), rng=random.Random(4))
            primary_zone = basic_zone("example.com", primary_policy)
            secondary_zone = dataclasses.replace(primary_zone, role=Secondary("10.0.1.1"),
                                                 policy=secondary_policy)
            primary = attach_server(bus, "10.0.1.1", primary_zone)
            secondary = attach_server(bus, "10.0.1.2", secondary_zone)
            primary.register_secondary(apex, "10.0.1.2")
            return bus, primary, secondary

        # update sent to the secondary: forwarded, applied at the primary,
        # transferred back -> both hold the record
        bus, primary, secondary = build(IpAcl(frozenset({"10.0.1.2"})), Open())
        client = ClientEndpoint(bus, "198.51.100.6")
        raw = client.exchange(encode_message(make_update(apex, [AddRecord(rr)], msg_id=1)),
                              "10.0.1.2", 1.0)
        assert decode_message(raw).rcode == Rcode.NOERROR
        assert primary.zones[apex].rrset(rr.name, RType.A)
        assert secondary.zones[apex].rrset(rr.name, RType.A)
        assert primary.zones[apex].records == secondary.zones[apex].records

        # update sent to the primary: the secondary converges
        bus, primary, secondary = build(Open(), Open())
        client = ClientEndpoint(bus, "198.51.100.6")
        client.exchange(encode_message(make_update(apex, [AddRecord(rr)], msg_id=2)),
                        "10.0.1.1", 1.0)
        assert primary.zones[apex].records == secondary.zones[apex].records
        assert secondary.zones[apex].rrset(rr.name, RType.A)


# --- 5: spoofed-source ACL bypass ---


def test_criterion_5_spoofing_bypass():
    with criterion(5, "IP ACL refuses true sources yet accepts a forged listed source"):
        bus = DatagramBus(clock=ManualClock(), rng=random.Random(5))
        apex = DnsName.from_text("example.com")
        zone = basic_zone("example.com", IpAcl(frozenset({"192.0.2.10"})))
        server = attach_server(bus, "10.0.0.1", zone)
        attacker = ClientEndpoint(bus, "198.51.100.66", allow_spoofing=True)
        rr = ResourceRecord(apex.prepend("intruder"), RType.A, RClass.IN, 120,
                            IPv4Address("203.0.113.80"))
        update = encode_message(make_update(apex, [AddRecord(rr)], msg_id=9))

        raw = attacker.exchange(update, "10.0.0.1", 1.0)
        assert decode_message(raw).rcode == Rcode.REFUSED
        assert not server.zones[apex].rrset(rr.name, RType.A)

        reply = attacker.exchange(update, "10.0.0.1", 1.0, source="192.0.2.10")
        assert reply is None  # the response went to the forged address
        assert server.zones[apex].rrset(rr.name, RType.A)


# --- 6: taxonomy matrix with stealth and restoration contracts ---


def test_criterion_6_taxonomy_matrix():
    with criterion(6, "11 scenarios: all succeed on open, all fail on signed-key; "
                      "stealth and restoration contracts hold", budget_seconds=60):
        matrix = run_taxonomy_matrix(seed=6)
        assert len(matrix.cells) == 11
        for _, row in matrix.cells:
            succeeded = dict(zip(matrix.policies, row))
            assert succeeded["open"] is True
            assert succeeded["signedkey"] is False
        dos = {ScenarioName.DOS_DELETE_A, ScenarioName.DOS_DELETE_MX,
               ScenarioName.DOS_SPF_LOCKOUT}
        shadow = {ScenarioName.SHADOW_ADD_A, ScenarioName.SHADOW_DELEGATE_NS}
        dcv = {ScenarioName.DCV_HTTP_REDIRECT, ScenarioName.DCV_CNAME_INSERT}
        for scenario in sorted(dos, key=lambda s: s.value):
            lab = AttackLab(Open(), seed=6)
            before = {(rr.name, rr.rtype): rr for rr in lab.zone().normalized_records()}
            lab.run(scenario)
            after = {(rr.name, rr.rtype): rr for rr in lab.zone().normalized_records()}
            assert any(before[k] != after.get(k) for k in before)  # existing names changed
        for scenario in sorted(shadow, key=lambda s: s.value):
            lab = AttackLab(Open(), seed=6)
            before = lab.zone().normalized_records()
            lab.run(scenario)
            assert before <= lab.zone().normalized_records()  # additions only
        for scenario in sorted(dcv, key=lambda s: s.value):
            lab = AttackLab(Open(), seed=6)
            report = lab.run(scenario)
            assert report.succeeded and lab.fixture_intact()


# --- 7: published rate arithmetic ---


def test_criterion_7_rate_arithmetic():
    with criterion(7, "global and subdomain scan percentages match at stated rounding"):
        global_snap = ScanSnapshot.from_counts(
            0.0, CategoryCounts(353_870_510, 3_855_615, 5_032_117_394),
            CategoryCounts(381_965, 5_575, 679_930))
        rows = compute_rates(global_snap, decimals=3)
        assert [rows[c].percent for c in ("domains", "nameservers", "pairs")] == [
            "0.108%", "0.145%", "0.014%"]
        sub_snap = ScanSnapshot.from_counts(
            0.0, CategoryCounts(35_382_217, 722_989, 104_955_041),
            CategoryCounts(399, 401, 520))
        rows = compute_rates(sub_snap, decimals=4)
        assert [rows[c].percent for c in ("domains", "nameservers", "pairs")] == [
            "0.0011%", "0.0555%", "0.0005%"]


# --- 8: remediation diffing ---


def _snapshot(pairs, ts=0.0):
    pairs = frozenset(pairs)
    return ScanSnapshot.from_pairs(ts, derive_counts(pairs), pairs)


def test_criterion_8_remediation_diffing():
    with criterion(8, "campaign-end remediation rates and 1,000 random partition checks"):
        fixed_block = {(f"d{i}.test", f"ns{i % 5_359}") for i in range(9_796)}
        persistent_block = {(f"d{9_796 + (j % 204)}.test", f"ns{5_359 + j}")
                            for j in range(4_641)}
        diff = diff_scans(_snapshot(fixed_block | persistent_block, 1.0),
                          _snapshot(persistent_block, 2.0))
        assert f"{diff.domains.remediated_rate:.2%}" == "97.96%"
        assert f"{diff.nameservers.remediated_rate:.2%}" == "53.59%"

        rng = random.Random(8)
        domains = [f"d{i}.test" for i in range(30)]
        nameservers = [f"n{i}" for i in range(10)]
        for _ in range(1_000):
            earlier = {(rng.choice(domains), rng.choice(nameservers))
                       for _ in range(rng.randrange(40))}
            later = {(rng.choice(domains), rng.choice(nameservers))
                     for _ in range(rng.randrange(40))}
            diff = diff_scans(_snapshot(earlier, 1.0), _snapshot(later, 2.0))
            assert diff.pairs.remediated | diff.pairs.persistent == frozenset(earlier)
            assert diff.pairs.remediated & diff.pairs.persistent == frozenset()
            assert diff.pairs.new & frozenset(earlier) == frozenset()
            for scope in (diff.domains, diff.nameservers):
                assert scope.remediated & scope.persistent == frozenset()
                assert scope.new & (scope.remediated | scope.persistent) == frozenset()


# --- 9: Kaplan-Meier against the brute-force oracle ---


def test_criterion_9_kaplan_meier():
    with criterion(9, "estimator equals empirical survival for 500 uncensored samples "
                      "and the worked 4-subject example"):
        rng = random.Random(9)
        for _ in range(500):
            n = rng.randrange(1, 40)
            times = [round(rng.uniform(0.1, 50.0), 1) for _ in range(n)]
            curve = kaplan_meier([RemediationSubject(0.0, t, t) for t in times])
            for t in sorted(set(times)):
                empirical = sum(1 for u in times if u > t) / n
                assert math.isclose(curve.survival_at(t), empirical, abs_tol=1e-12)
        curve = kaplan_meier([
            RemediationSubject(0.0, 1.0, 1.0),
            RemediationSubject(0.0, 2.0, None),
            RemediationSubject(0.0, 3.0, 3.0),
            RemediationSubject(0.0, 4.0, None),
        ])
        assert math.isclose(curve.survival_at(1.0), 0.75, abs_tol=1e-12)
        assert math.isclose(curve.survival_at(3.0), 0.375, abs_tol=1e-12)


# --- 10: notification subject template ---


def test_criterion_10_notification_format():
    with criterion(10, "subject template byte-exact over 100 randomized aggregates"):
        rng = random.Random(10)
        template = NotificationTemplate(guide_url="https://guide.test/fix")
        for i in range(100):
            n_domains = rng.randrange(1, 5_000)
            n_fixed = rng.randrange(0, 2_000)
            entry = NotificationEntry(
                csirt_id=f"cert-{i}",
                recipient=f"CERT {i}",
                vulnerable_domains=tuple(f"d{k}.test" for k in range(n_domains)),
                vulnerable_nameservers=(f"10.0.0.{i % 250 + 1}",),
                nameservers_fixed=n_fixed,
            )
            (note,) = make_notification_batch([entry], template)
            expected = (f"{n_domains} domain(s) still vulnerable to zone poisoning, "
                        f"{n_fixed} nameservers fixed")
            assert note.subject == expected
            body_lines = note.body.splitlines()
            order = [body_lines.index(h) for h in
                     ("i. Problem", "ii. Vulnerable resources",
                      "iii. Managing organizations", "iv. Remediation steps")]
            assert order == sorted(order)
