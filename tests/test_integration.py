"""Cross-module soaks: scanning mixed primary/secondary fleets, honeypot
journaling under scan traffic, and verdict soundness on lossy transports."""

import dataclasses
import random

import pytest

from zptoolkit.authsim import Deny, IpAcl, NameServer, Open, Secondary, SignedKey
from zptoolkit.scanner import ProbeConfig, ProbeTarget, Verdict, run_scan
from zptoolkit.transport import DatagramBus, ManualClock, SimDatagram, SimTransport
from zptoolkit.wire import DnsName, Opcode, RType

from conftest import LAB_KEY, SCANNER_SOURCE, attach_server, basic_zone, random_fleet


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


def _misnumbering(server: NameServer):
    """``server``'s handler, answering every UPDATE under an id one off the request's."""
    def handle(dgram, now):
        out = server.handle_datagram(dgram, now)
        if out and (dgram.payload[2] >> 3) & 0xF == Opcode.UPDATE:
            reply = out[0]
            wrong_id = (int.from_bytes(reply.payload[:2], "big") ^ 1).to_bytes(2, "big")
            out[0] = SimDatagram(reply.source, reply.destination, wrong_id + reply.payload[2:])
        return out
    return handle


def _late_reply_scan(seed: int):
    """The fleet of 200 zones scanned with a 0.5 s timeout over one-way delays of
    1-900 ms, so that replies land in later exchanges, then left to go quiet.
    Beside it, three open zones whose servers store every update but answer
    each UPDATE under another id, so that no reply ever answers a probe."""
    delay_rng = random.Random(seed)
    misnumbering = [f"10.9.0.{i}" for i in range(3)]

    def delay(dgram) -> float:  # the misnumbering servers answer in time
        late = delay_rng.uniform(0.001, 0.9)
        if dgram.source in misnumbering or dgram.destination in misnumbering:
            return 0.001
        return late

    bus = DatagramBus(clock=ManualClock(), rng=random.Random(seed), delay_fn=delay)
    servers, targets, vulnerable = random_fleet(bus, random.Random("late"), 200)
    zones = dict(zip(servers.values(), (target.zone for target in targets)))
    for i, address in enumerate(misnumbering):
        zone = basic_zone(f"misnumbered{i}.example", Open())
        server = NameServer(address, [zone])
        bus.attach(server.address, _misnumbering(server))
        zones[server] = zone.apex
        targets.append(ProbeTarget(zone.apex, server.address))
    before = {server: server.zones[apex].normalized_records() for server, apex in zones.items()}
    result = run_scan(targets, ProbeConfig(timeout=0.5), SimTransport(bus, SCANNER_SOURCE),
                      bus.clock, random.Random(seed))
    bus.pump(until=bus.clock.now() + 10.0)
    changed = {apex.to_text() for server, apex in zones.items()
               if server.zones[apex].normalized_records() != before[server]}
    return result, vulnerable, changed


@pytest.mark.parametrize("seed", [5, 6, 7, 8, 9])
def test_a_late_reply_is_dropped_and_a_probe_that_may_have_landed_is_cleaned_up(seed):
    """A reply to an earlier exchange does not make a pair malformed, and a probe
    that no reply answered is deleted all the same: a zone left changed belongs
    to a pair reported unreachable, whose probe may have landed unseen."""
    result, vulnerable, changed = _late_reply_scan(seed)
    verdicts = {o.target.zone.to_text(): o.verdict for o in result.outcomes}
    assert not [zone for zone in vulnerable if verdicts[zone] is Verdict.MALFORMED_REPLY]
    assert [verdicts[f"misnumbered{i}.example"] for i in range(3)] == [Verdict.MALFORMED_REPLY] * 3
    assert {zone: verdicts[zone] for zone in changed
            if verdicts[zone] is not Verdict.UNREACHABLE} == {}


def _lossy_scan(seed: int):
    """The fleet of 200 zones scanned with a 0.5 s timeout on a bus that loses a
    fifth of all datagrams, then left to go quiet: the outcome of each zone, and
    the zones whose records changed."""
    bus = DatagramBus(clock=ManualClock(), rng=random.Random(seed), loss_rate=0.2)
    servers, targets, _ = random_fleet(bus, random.Random(seed), 200)
    before = {address: server.zones[target.zone].normalized_records()
              for (address, server), target in zip(servers.items(), targets)}
    result = run_scan(targets, ProbeConfig(timeout=0.5), SimTransport(bus, SCANNER_SOURCE),
                      bus.clock, random.Random(seed))
    bus.pump(until=bus.clock.now() + 10.0)
    changed = {target.zone.to_text() for (address, server), target in zip(servers.items(), targets)
               if server.zones[target.zone].normalized_records() != before[address]}
    return {o.target.zone.to_text(): o for o in result.outcomes}, changed


@pytest.mark.parametrize("seed", [5, 6, 7, 8, 9])
def test_a_probe_that_may_have_landed_is_flagged(seed):
    """Under loss, a probe whose every reply was lost may still have been applied.
    Each zone left changed belongs to an outcome that does not claim a confirmed
    cleanup: its ``cleanup_confirmed`` is False, never None."""
    outcomes, changed = _lossy_scan(seed)
    assert changed, "the repro leaves some sentinel behind"
    assert {zone: outcomes[zone].cleanup_confirmed for zone in changed
            if outcomes[zone].cleanup_confirmed is not False} == {}
    assert all(o.cleanup_confirmed is False for o in outcomes.values()
               if o.verdict is Verdict.UNREACHABLE)
