"""Cross-module soaks: scanning mixed primary/secondary fleets, honeypot
journaling under scan traffic, and verdict soundness on lossy transports."""

import dataclasses
import random

from zptoolkit.authsim import Deny, IpAcl, NameServer, Open, Secondary, SignedKey
from zptoolkit.scanner import ProbeConfig, ProbeTarget, Verdict, run_scan
from zptoolkit.transport import DatagramBus, ManualClock, SimTransport
from zptoolkit.wire import DnsName, RType

from conftest import LAB_KEY, SCANNER_SOURCE, attach_server, basic_zone


def build_pair_fleet(bus, rng, pairs):
    """One primary+secondary per zone; the secondary's policy is randomized,
    the primary trusts only its secondary. Scan targets hit the secondary."""
    servers = {}
    targets = []
    vulnerable = set()
    for i in range(pairs):
        apex_text = f"pair{i}.example"
        p_addr, s_addr = f"10.20.{i}.1", f"10.20.{i}.2"
        secondary_policy = rng.choice([Open(), Deny(),
                                       IpAcl(frozenset({SCANNER_SOURCE})),
                                       IpAcl(frozenset({"203.0.113.9"})),
                                       SignedKey((LAB_KEY,))])
        primary_zone = basic_zone(apex_text, IpAcl(frozenset({s_addr})))
        secondary_zone = dataclasses.replace(primary_zone, role=Secondary(p_addr),
                                             policy=secondary_policy)
        primary = attach_server(bus, p_addr, primary_zone)
        secondary = attach_server(bus, s_addr, secondary_zone)
        primary.register_secondary(primary_zone.apex, s_addr)
        servers[apex_text] = (primary, secondary)
        targets.append(ProbeTarget(primary_zone.apex, s_addr))
        accepts = isinstance(secondary_policy, Open) or (
            isinstance(secondary_policy, IpAcl) and SCANNER_SOURCE in secondary_policy.allowed)
        if accepts:
            vulnerable.add(apex_text)
    return servers, targets, vulnerable


def test_scanning_through_secondaries_matches_ground_truth_and_converges():
    bus = DatagramBus(clock=ManualClock(), rng=random.Random(0))
    rng = random.Random(0xBEEF)
    servers, targets, vulnerable = build_pair_fleet(bus, rng, 40)
    result = run_scan(targets, ProbeConfig(), SimTransport(bus, SCANNER_SOURCE),
                      bus.clock, random.Random(1))
    flagged = {o.target.zone.to_text() for o in result.outcomes if o.vulnerable}
    assert flagged == vulnerable
    # quiescent network: every secondary equals its primary, and no probe residue
    for apex_text, (primary, secondary) in servers.items():
        apex = DnsName.from_text(apex_text)
        assert primary.zones[apex].records == secondary.zones[apex].records
        assert not primary.zones[apex].rrset(apex.prepend("researchstudyzp"), RType.A)


def test_honeypot_fleet_journals_every_update_attempt():
    bus = DatagramBus(clock=ManualClock(), rng=random.Random(0))
    zones = [("10.30.0.1", basic_zone("hp0.example", Open())),
             ("10.30.0.2", basic_zone("hp1.example", Deny())),
             ("10.30.0.3", basic_zone("hp2.example", IpAcl(frozenset({"203.0.113.9"}))))]
    events = {addr: [] for addr, _ in zones}
    servers = {addr: attach_server(bus, addr, zone, honeypot=True,
                                   journal_sink=events[addr].append) for addr, zone in zones}
    targets = [ProbeTarget(zone.apex, addr) for addr, zone in zones]
    run_scan(targets, ProbeConfig(), SimTransport(bus, SCANNER_SOURCE),
             bus.clock, random.Random(2))
    for addr in servers:
        from_scanner = [e for e in bus.updates_seen(addr)
                        if e.datagram.source == SCANNER_SOURCE]
        assert len(events[addr]) == len(from_scanner)  # one event per attempt
        assert all(e.source == SCANNER_SOURCE for e in events[addr])
    assert [e.rcode for e in events["10.30.0.2"]] == ["REFUSED"]
    accepted = [e.rcode for e in events["10.30.0.1"]]
    assert accepted == ["NOERROR", "NOERROR"]  # probe insert, cleanup delete


def test_lossy_transport_never_yields_false_positives():
    rng = random.Random(0xCAFE)
    bus = DatagramBus(clock=ManualClock(), rng=random.Random(7), loss_rate=0.15)
    targets = []
    vulnerable_truth = {}
    for i in range(60):
        apex_text = f"lossy{i}.example"
        addr = f"10.40.0.{i + 1}"
        policy = rng.choice([Open(), Deny(), SignedKey((LAB_KEY,))])
        attach_server(bus, addr, basic_zone(apex_text, policy))
        targets.append(ProbeTarget(DnsName.from_text(apex_text), addr))
        vulnerable_truth[apex_text] = isinstance(policy, Open)
    result = run_scan(targets, ProbeConfig(timeout=0.5), SimTransport(bus, SCANNER_SOURCE),
                      bus.clock, random.Random(3))
    saw_unreachable = False
    for outcome in result.outcomes:
        zone_text = outcome.target.zone.to_text()
        if outcome.vulnerable:
            assert vulnerable_truth[zone_text]  # soundness survives packet loss
        if outcome.verdict is Verdict.NOT_VULNERABLE:
            assert not vulnerable_truth[zone_text]
        saw_unreachable |= outcome.verdict is Verdict.UNREACHABLE
    assert saw_unreachable  # the loss rate actually bit


def test_multi_zone_single_server_scan():
    bus = DatagramBus(clock=ManualClock(), rng=random.Random(0))
    server = NameServer("10.50.0.1")
    for i, policy in enumerate([Open(), Deny(), Open()]):
        server.add_zone(basic_zone(f"multi{i}.example", policy))
    server.attach(bus)
    targets = [ProbeTarget(DnsName.from_text(f"multi{i}.example"), "10.50.0.1")
               for i in range(3)]
    result = run_scan(targets, ProbeConfig(), SimTransport(bus, SCANNER_SOURCE),
                      bus.clock, random.Random(4))
    snap = result.snapshot
    assert snap.tested.nameservers == 1 and snap.tested.domains == 3
    assert snap.vulnerable.domains == 2 and snap.vulnerable.nameservers == 1
