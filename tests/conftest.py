"""Shared fixtures: simulated buses, victim zones, and randomized fleets."""

from __future__ import annotations

import random
from ipaddress import IPv4Address
from pathlib import Path

import pytest

from zptoolkit import authsim
from zptoolkit.authsim import (
    Deny,
    IpAcl,
    NameServer,
    Open,
    SignedKey,
    ZoneConfig,
    make_soa,
)
from zptoolkit.transport import ClientEndpoint, DatagramBus, ManualClock, SimTransport
from zptoolkit.tsig import TsigKey
from zptoolkit.wire import DnsName, RClass, ResourceRecord, RType

SCANNER_SOURCE = "scanner.client"

# set on the items here rather than in pyproject.toml, which perfbench's self-test also reads
LEAK_FILTERS = ("error::ResourceWarning", "error::pytest.PytestUnraisableExceptionWarning")


def pytest_collection_modifyitems(items):
    """A file or socket that a test here leaves open fails the run."""
    here = Path(__file__).parent
    for item in items:
        if here in item.path.parents:
            for spec in LEAK_FILTERS:
                item.add_marker(pytest.mark.filterwarnings(spec))


LAB_KEY = TsigKey(DnsName.from_text("fleet-key"), b"fleet-secret-0123456789")


def basic_zone(apex_text: str, policy, serial: int = 1, extra=()) -> ZoneConfig:
    apex = DnsName.from_text(apex_text)
    records = [
        make_soa(apex, serial=serial),
        ResourceRecord(apex, RType.NS, RClass.IN, 3600, apex.prepend("ns1")),
        ResourceRecord(apex.prepend("ns1"), RType.A, RClass.IN, 3600, IPv4Address("192.0.2.53")),
        ResourceRecord(apex, RType.A, RClass.IN, 3600, IPv4Address("192.0.2.1")),
        *extra,
    ]
    return ZoneConfig.build(apex, authsim.Primary(), policy, records)


@pytest.fixture
def bus() -> DatagramBus:
    return DatagramBus(clock=ManualClock(), rng=random.Random(0))


@pytest.fixture
def sim_transport(bus) -> SimTransport:
    return SimTransport(bus, SCANNER_SOURCE)


def attach_server(bus, address: str, *zones, honeypot=False, journal_sink=None) -> NameServer:
    server = NameServer(address, zones, honeypot=honeypot, journal_sink=journal_sink)
    server.attach(bus)
    return server


def client(bus, address: str = "198.51.100.99", allow_spoofing: bool = True) -> ClientEndpoint:
    return ClientEndpoint(bus, address, allow_spoofing=allow_spoofing)


def random_fleet(bus, rng: random.Random, size: int, scanner_source: str = SCANNER_SOURCE):
    """Mixed-policy fleet with known ground truth.

    Returns (servers, targets, truly_vulnerable) where truly_vulnerable is
    the set of zone texts whose policy accepts the scanner's true source.
    """
    from zptoolkit.scanner import ProbeTarget

    servers = {}
    targets = []
    vulnerable = set()
    for i in range(size):
        apex_text = f"zone{i}.example"
        address = f"10.{(i >> 8) & 0xFF}.{i & 0xFF}.53"
        choice = rng.randrange(4)
        if choice == 0:
            policy = Deny()
        elif choice == 1:
            policy = Open()
        elif choice == 2:
            # half the ACLs list the scanner itself (vulnerable in the
            # trusted-source sense); the rest list an unrelated host
            if rng.random() < 0.5:
                policy = IpAcl(frozenset({scanner_source, "203.0.113.7"}))
            else:
                policy = IpAcl(frozenset({"203.0.113.7"}))
        else:
            policy = SignedKey((LAB_KEY,))
        zone = basic_zone(apex_text, policy)
        servers[address] = attach_server(bus, address, zone)
        targets.append(ProbeTarget(zone.apex, address))
        if isinstance(policy, Open) or (isinstance(policy, IpAcl) and scanner_source in policy.allowed):
            vulnerable.add(apex_text)
    return servers, targets, vulnerable
