"""Executable attack scenarios against a simulated victim nameserver.

Each scenario scripts one poisoning technique (DoS by deletion, hijack,
MITM redirection, domain shadowing, DCV compromise, spoofed-ACL bypass)
and checks its effect with authoritative queries afterwards. A scenario
always runs on a fresh fixture, so the taxonomy matrix cells stay
independent.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from ipaddress import IPv4Address
from typing import Callable, Iterable, Optional

from . import authsim
from .authsim import (
    Deny,
    IpAcl,
    Open,
    SignedKey,
    UpdatePolicy,
    ZoneConfig,
    make_soa,
    policy_label,
)
from .transport import ClientEndpoint, DatagramBus, ManualClock, SimDatagram, exchange_message
from .tsig import TsigKey
from .wire import (
    AddRecord,
    DeleteRRset,
    DnsMessage,
    DnsName,
    MxData,
    RClass,
    ResourceRecord,
    RType,
    TxtData,
    encode_message,
    make_query,
    make_update,
)


class AttackLabError(Exception):
    pass


class FixtureMismatch(AttackLabError):
    """The victim fixture lacks a record the scenario manipulates."""


class ScenarioName(Enum):
    DOS_DELETE_A = "DosDeleteA"
    DOS_DELETE_MX = "DosDeleteMx"
    DOS_SPF_LOCKOUT = "DosSpfLockout"
    HIJACK_A = "HijackA"
    HIJACK_MX = "HijackMx"
    MITM_REDIRECT = "MitmRedirect"
    SHADOW_ADD_A = "ShadowAddA"
    SHADOW_DELEGATE_NS = "ShadowDelegateNs"
    DCV_HTTP_REDIRECT = "DcvHttpRedirect"
    DCV_CNAME_INSERT = "DcvCnameInsert"
    SPOOFED_ACL_BYPASS = "SpoofedAclBypass"


@dataclass(frozen=True)
class AttackReport:
    """A scenario's verdict against one policy, with what its checks saw.

    The datagrams a scenario sent stay on its lab's ``bus.tap``.
    """

    scenario: ScenarioName
    policy: str
    succeeded: bool
    observations: tuple[str, ...]


# --- the lab fixture (victim zone, attacker assets, traffic stubs) ---

VICTIM_APEX = DnsName.from_text("example.com")
VICTIM_NS_ADDRESS = "10.0.0.53"
VICTIM_WEB = IPv4Address("198.51.100.80")
VICTIM_MAIL = IPv4Address("198.51.100.25")
TRUSTED_SOURCE = "192.0.2.10"  # the one address an IpAcl fixture allows

ATTACKER_SOURCE = "198.51.100.66"
ATTACKER_WEB = IPv4Address("203.0.113.80")
ATTACKER_PROXY = IPv4Address("203.0.113.99")
ATTACKER_NS_ADDRESS = "203.0.113.53"
ATTACKER_MAIL = DnsName.from_text("mail.attacker-mail.test")
ATTACKER_CNAME_TARGET = DnsName.from_text("proof.attacker-mail.test")

SHADOW_SUBDOMAIN_COUNT = 10
SHADOW_ADDRESS_POOL = 5
REFERRAL_HOPS = 4  # servers a referral chase asks before it gives up

_LAB_KEY = TsigKey(DnsName.from_text("lab-update-key"), b"lab-secret-0123456789abcdef")


def victim_zone(policy: UpdatePolicy) -> ZoneConfig:
    apex = VICTIM_APEX
    ns_name = apex.prepend("ns1")
    mail_name = apex.prepend("mail")
    records = [
        make_soa(apex),
        ResourceRecord(apex, RType.NS, RClass.IN, 3600, ns_name),
        ResourceRecord(ns_name, RType.A, RClass.IN, 3600, IPv4Address(VICTIM_NS_ADDRESS)),
        ResourceRecord(apex, RType.A, RClass.IN, 3600, VICTIM_WEB),
        ResourceRecord(apex.prepend("www"), RType.A, RClass.IN, 3600, VICTIM_WEB),
        ResourceRecord(apex, RType.MX, RClass.IN, 3600, MxData(10, mail_name)),
        ResourceRecord(mail_name, RType.A, RClass.IN, 3600, VICTIM_MAIL),
        ResourceRecord(apex, RType.TXT, RClass.IN, 3600, TxtData.from_text("v=spf1 mx -all")),
    ]
    return ZoneConfig.build(apex, authsim.Primary(), policy, records)


def attacker_zone() -> ZoneConfig:
    """The attacker's own open zone, which a shadow delegation points at."""
    apex = VICTIM_APEX.prepend("account")
    records = [
        make_soa(apex),
        ResourceRecord(apex, RType.NS, RClass.IN, 300, apex.prepend("ns1")),
        ResourceRecord(apex.prepend("ns1"), RType.A, RClass.IN, 300,
                       IPv4Address(ATTACKER_NS_ADDRESS)),
        ResourceRecord(apex.prepend("paypal"), RType.A, RClass.IN, 300, ATTACKER_WEB),
    ]
    return ZoneConfig.build(apex, authsim.Primary(), Open(), records)


def signed_key_policy() -> SignedKey:
    return SignedKey((_LAB_KEY,))


class RelayStub:
    """Minimal MITM proxy: forwards every payload to the original service."""

    def __init__(self, bus: DatagramBus, address: str, forward_to: str):
        self.address = address
        self.forward_to = forward_to
        self.forwarded: list[SimDatagram] = []
        bus.attach(address, self._recv)

    def _recv(self, dgram: SimDatagram, now: float) -> list:
        forward = SimDatagram(self.address, self.forward_to, dgram.payload)
        self.forwarded.append(forward)
        return [forward]


class AttackLab:
    """One disposable attack environment: the victim's and the attacker's
    nameservers, the attacker's endpoint, the web host and the proxy."""

    def __init__(self, policy: UpdatePolicy, *, spoofing_enabled: bool = True, seed: int = 0):
        self.rng = random.Random(seed)
        self.bus = DatagramBus(clock=ManualClock(), rng=random.Random(seed + 1))
        self.policy = policy
        fleet = [(VICTIM_NS_ADDRESS, victim_zone(policy)), (ATTACKER_NS_ADDRESS, attacker_zone())]
        self.victim = authsim.build_fleet(self.bus, fleet)[VICTIM_NS_ADDRESS]
        self.attacker = ClientEndpoint(self.bus, ATTACKER_SOURCE, allow_spoofing=spoofing_enabled)
        self.web_sink = ClientEndpoint(self.bus, str(VICTIM_WEB))  # records what reaches it
        self.proxy = RelayStub(self.bus, str(ATTACKER_PROXY), str(VICTIM_WEB))
        self.fixture_records = self.zone().normalized_records()

    def run(self, scenario: ScenarioName) -> AttackReport:
        """Run one scenario on this lab and evaluate its effect predicate."""
        succeeded, observations = _SCENARIOS[scenario](self)
        return AttackReport(scenario, policy_label(self.policy), succeeded, tuple(observations))

    # -- attacker actions --

    def send_update(self, changes: Iterable, *, source: Optional[str] = None) -> None:
        """Fire one UPDATE at the victim; scenarios judge its effect by querying afterwards."""
        if not self.attacker.allow_spoofing:
            source = None  # the endpoint refuses to forge; the claim collapses to the truth
        msg = make_update(VICTIM_APEX, list(changes), rng=self.rng)
        self.attacker.exchange(encode_message(msg), VICTIM_NS_ADDRESS, timeout=1.0, source=source)

    def query(self, name: DnsName, rtype: int, server: str = VICTIM_NS_ADDRESS) -> Optional[DnsMessage]:
        """The reply answering one query; None when nothing answers it."""
        return exchange_message(self.attacker, server, make_query(name, rtype, rng=self.rng))

    def addresses(self, name: DnsName, rtype: int = RType.A) -> set:
        """The rdata of the ``rtype`` answers at ``name``; empty when nothing answers."""
        reply = self.query(name, rtype)
        if reply is None:
            return set()
        return {rr.rdata for rr in reply.answers if rr.rtype == rtype and rr.name == name}

    def resolve_following_referrals(self, name: DnsName, rtype: int) -> set:
        """Chase NS referrals with glue from the victim, as a validating client would."""
        server = VICTIM_NS_ADDRESS
        for _ in range(REFERRAL_HOPS):
            reply = self.query(name, rtype, server)
            if reply is None:
                return set()
            answers = {rr.rdata for rr in reply.answers if rr.rtype == rtype and rr.name == name}
            if answers:
                return answers
            glue = [rr for rr in reply.additional if rr.rtype in (RType.A, RType.AAAA)]
            if not glue:
                return set()
            server = str(glue[0].rdata)
        return set()

    def zone(self) -> ZoneConfig:
        return self.victim.zones[VICTIM_APEX]

    def fixture_intact(self) -> bool:
        return self.zone().normalized_records() == self.fixture_records

    def require_fixture(self, *needed: tuple[DnsName, int]) -> None:
        zone = self.zone()
        for name, rtype in needed:
            if not zone.rrset(name, rtype):
                raise FixtureMismatch(f"fixture lacks {name.to_text()} type {rtype}")


# --- the scenarios ---


def _replace_rrset(name: DnsName, rtype: int, record: ResourceRecord) -> list:
    return [DeleteRRset(name, rtype), AddRecord(record)]


def _dos_delete_a(lab: AttackLab) -> tuple[bool, list[str]]:
    lab.require_fixture((VICTIM_APEX, RType.A))
    lab.send_update([DeleteRRset(VICTIM_APEX, RType.A)])
    remaining = lab.addresses(VICTIM_APEX)
    return not remaining, [f"apex A answers after attack: {sorted(map(str, remaining))}"]


def _dos_delete_mx(lab: AttackLab) -> tuple[bool, list[str]]:
    lab.require_fixture((VICTIM_APEX, RType.MX))
    lab.send_update([DeleteRRset(VICTIM_APEX, RType.MX)])
    mx = lab.addresses(VICTIM_APEX, RType.MX)
    return not mx, [f"MX answers after attack: {len(mx)}"]


def _dos_spf_lockout(lab: AttackLab) -> tuple[bool, list[str]]:
    lab.require_fixture((VICTIM_APEX, RType.TXT))
    lockout = ResourceRecord(VICTIM_APEX, RType.TXT, RClass.IN, 300,
                             TxtData.from_text("v=spf1 -all"))
    lab.send_update(_replace_rrset(VICTIM_APEX, RType.TXT, lockout))
    texts = {txt.to_text() for txt in lab.addresses(VICTIM_APEX, RType.TXT)}
    return texts == {"v=spf1 -all"}, [f"apex TXT after attack: {sorted(texts)}"]


def _hijack_a(lab: AttackLab) -> tuple[bool, list[str]]:
    lab.require_fixture((VICTIM_APEX, RType.A))
    hijacked = ResourceRecord(VICTIM_APEX, RType.A, RClass.IN, 300, ATTACKER_WEB)
    lab.send_update(_replace_rrset(VICTIM_APEX, RType.A, hijacked))
    seen = lab.addresses(VICTIM_APEX)
    return seen == {ATTACKER_WEB}, [f"apex A after attack: {sorted(map(str, seen))}"]


def _hijack_mx(lab: AttackLab) -> tuple[bool, list[str]]:
    lab.require_fixture((VICTIM_APEX, RType.MX))
    malicious = ResourceRecord(VICTIM_APEX, RType.MX, RClass.IN, 300, MxData(10, ATTACKER_MAIL))
    lab.send_update(_replace_rrset(VICTIM_APEX, RType.MX, malicious))
    exchanges = {mx.exchange for mx in lab.addresses(VICTIM_APEX, RType.MX)}
    glue = lab.addresses(VICTIM_APEX.prepend("mail"))
    hijacked = ATTACKER_MAIL in exchanges or glue == {ATTACKER_WEB}
    return hijacked, [f"MX exchanges after attack: {sorted(e.to_text() for e in exchanges)}"]


def _mitm_redirect(lab: AttackLab) -> tuple[bool, list[str]]:
    lab.require_fixture((VICTIM_APEX, RType.A))
    proxied = ResourceRecord(VICTIM_APEX, RType.A, RClass.IN, 300, ATTACKER_PROXY)
    lab.send_update(_replace_rrset(VICTIM_APEX, RType.A, proxied))
    resolved = lab.addresses(VICTIM_APEX)
    if resolved != {ATTACKER_PROXY}:
        return False, [f"apex A after attack: {sorted(map(str, resolved))}"]
    # a client request now lands on the proxy, which must relay it onward
    canned = b"GET / HTTP/1.1\r\nHost: example.com\r\n\r\n"
    client = ClientEndpoint(lab.bus, "198.51.100.201", allow_spoofing=False)
    client.send(canned, str(next(iter(resolved))))
    lab.bus.pump()
    relayed = any(d.payload == canned for d in lab.proxy.forwarded)
    delivered = any(d.payload == canned and d.source == lab.proxy.address
                    for d in lab.web_sink.inbox)
    return relayed and delivered, [
        f"proxy relayed: {relayed}", f"original host received relayed request: {delivered}"]


def _shadow_add_a(lab: AttackLab) -> tuple[bool, list[str]]:
    lab.require_fixture((VICTIM_APEX, RType.A))
    before = lab.zone().normalized_records()
    pool = [IPv4Address(f"203.0.113.{10 + i}") for i in range(SHADOW_ADDRESS_POOL)]
    wanted = {}
    changes = []
    for i in range(SHADOW_SUBDOMAIN_COUNT):
        name = VICTIM_APEX.prepend(f"promo{i}")
        addr = pool[i % len(pool)]  # fast-flux style rotation over the pool
        wanted[name] = addr
        changes.append(AddRecord(ResourceRecord(name, RType.A, RClass.IN, 120, addr)))
    lab.send_update(changes)
    resolved_ok = all(lab.addresses(name) == {addr} for name, addr in wanted.items())
    apex_intact = lab.addresses(VICTIM_APEX) == {VICTIM_WEB}
    additions_only = before <= lab.zone().normalized_records()
    return resolved_ok and apex_intact and additions_only, [
        f"shadow subdomains resolving: {resolved_ok}",
        f"pre-existing records untouched: {apex_intact and additions_only}"]


def _shadow_delegate_ns(lab: AttackLab) -> tuple[bool, list[str]]:
    before = lab.zone().normalized_records()
    delegated = VICTIM_APEX.prepend("account")
    ns_name = delegated.prepend("ns1")
    lab.send_update([
        AddRecord(ResourceRecord(delegated, RType.NS, RClass.IN, 300, ns_name)),
        AddRecord(ResourceRecord(ns_name, RType.A, RClass.IN, 300,
                                 IPv4Address(ATTACKER_NS_ADDRESS))),
    ])
    target = delegated.prepend("paypal")
    seen = lab.resolve_following_referrals(target, RType.A)
    additions_only = before <= lab.zone().normalized_records()
    return seen == {ATTACKER_WEB} and additions_only, [
        f"{target.to_text()} resolved via delegation to: {sorted(map(str, seen))}"]


def _dcv_http_redirect(lab: AttackLab) -> tuple[bool, list[str]]:
    lab.require_fixture((VICTIM_APEX, RType.A))
    original = ResourceRecord(VICTIM_APEX, RType.A, RClass.IN, 3600, VICTIM_WEB)
    swapped = ResourceRecord(VICTIM_APEX, RType.A, RClass.IN, 60, ATTACKER_WEB)
    lab.send_update(_replace_rrset(VICTIM_APEX, RType.A, swapped))
    validator_saw = lab.addresses(VICTIM_APEX)  # the CA validates during the window
    lab.send_update(_replace_rrset(VICTIM_APEX, RType.A, original))
    restored = lab.fixture_intact()
    return validator_saw == {ATTACKER_WEB} and restored, [
        f"validator resolved apex to: {sorted(map(str, validator_saw))}",
        f"zone restored to fixture: {restored}"]


def _dcv_cname_insert(lab: AttackLab) -> tuple[bool, list[str]]:
    challenge = VICTIM_APEX.prepend("_dcv-challenge")
    token_rr = ResourceRecord(challenge, RType.CNAME, RClass.IN, 60, ATTACKER_CNAME_TARGET)
    lab.send_update([AddRecord(token_rr)])
    seen = lab.addresses(challenge, RType.CNAME)
    lab.send_update([DeleteRRset(challenge, RType.CNAME)])
    restored = lab.fixture_intact()
    return seen == {ATTACKER_CNAME_TARGET} and restored, [
        f"validator resolved challenge CNAME to: {sorted(n.to_text() for n in seen)}",
        f"zone restored to fixture: {restored}"]


def _spoofed_acl_bypass(lab: AttackLab) -> tuple[bool, list[str]]:
    planted = ResourceRecord(VICTIM_APEX.prepend("intruder"), RType.A, RClass.IN, 120,
                             ATTACKER_WEB)
    # fired with a forged source; any reply goes to the spoofed address,
    # so success is confirmed by querying, exactly like a blind attacker
    lab.send_update([AddRecord(planted)], source=TRUSTED_SOURCE)
    seen = lab.addresses(planted.name)
    return seen == {ATTACKER_WEB}, [f"planted record resolves to: {sorted(map(str, seen))}"]


_SCENARIOS: dict[ScenarioName, Callable[[AttackLab], tuple[bool, list[str]]]] = {
    ScenarioName.DOS_DELETE_A: _dos_delete_a,
    ScenarioName.DOS_DELETE_MX: _dos_delete_mx,
    ScenarioName.DOS_SPF_LOCKOUT: _dos_spf_lockout,
    ScenarioName.HIJACK_A: _hijack_a,
    ScenarioName.HIJACK_MX: _hijack_mx,
    ScenarioName.MITM_REDIRECT: _mitm_redirect,
    ScenarioName.SHADOW_ADD_A: _shadow_add_a,
    ScenarioName.SHADOW_DELEGATE_NS: _shadow_delegate_ns,
    ScenarioName.DCV_HTTP_REDIRECT: _dcv_http_redirect,
    ScenarioName.DCV_CNAME_INSERT: _dcv_cname_insert,
    ScenarioName.SPOOFED_ACL_BYPASS: _spoofed_acl_bypass,
}


def all_policies() -> tuple[UpdatePolicy, ...]:
    return Deny(), Open(), IpAcl(frozenset({TRUSTED_SOURCE})), signed_key_policy()


def execute_scenario(scenario: ScenarioName, policy: UpdatePolicy = Open(), *,
                     spoofing_enabled: bool = True, seed: int = 0) -> AttackReport:
    """Run one scenario on a fresh fixture and evaluate its effect predicate."""
    return AttackLab(policy, spoofing_enabled=spoofing_enabled, seed=seed).run(scenario)


@dataclass(frozen=True)
class TaxonomyMatrix:
    policies: tuple[str, ...]
    cells: tuple[tuple[ScenarioName, tuple[bool, ...]], ...]

    def to_csv(self) -> str:
        lines = ["scenario," + ",".join(self.policies)]
        for name, row in self.cells:
            lines.append(name.value + "," + ",".join("success" if v else "fail" for v in row))
        return "\n".join(lines) + "\n"

    def format_table(self) -> str:
        width = max(len(name.value) for name, _ in self.cells)
        header = "scenario".ljust(width) + "  " + "  ".join(p.ljust(9) for p in self.policies)
        lines = [header, "-" * len(header)]
        for name, row in self.cells:
            cells = "  ".join(("success" if v else "fail").ljust(9) for v in row)
            lines.append(name.value.ljust(width) + "  " + cells)
        return "\n".join(lines)


def run_taxonomy_matrix(*, spoofing_enabled: bool = True, seed: int = 0) -> TaxonomyMatrix:
    """Every scenario against every policy, each cell on an isolated fixture."""
    policies = all_policies()
    labels = tuple(policy_label(p) for p in policies)
    cells = []
    for scenario in ScenarioName:
        row = []
        for i, policy in enumerate(policies):
            report = execute_scenario(scenario, policy, spoofing_enabled=spoofing_enabled,
                                      seed=seed * 1000 + i)
            row.append(report.succeeded)
        cells.append((scenario, tuple(row)))
    return TaxonomyMatrix(labels, tuple(cells))
