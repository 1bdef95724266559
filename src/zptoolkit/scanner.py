"""Non-secure dynamic-update detection: probe, verify, clean up, classify.

One UPDATE datagram inserting a sentinel A/AAAA record decides the verdict
for a responsive nameserver; an authoritative lookup confirms visibility,
and a delete plus re-check guarantees the zone is left as found. Records
the scanner did not create are never deleted.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from ipaddress import IPv4Address, IPv6Address
from typing import Iterable, Iterator, Optional, Union

from .analytics import ScanSnapshot, derive_counts
from .transport import (
    SystemClock,
    Transport,
    UdpTransport,
    _exchange,
    exchange_message,
    parse_endpoint,
)
from .wire import (
    AddRecord,
    DecodeError,
    DeleteExactRecord,
    DnsMessage,
    DnsName,
    InvalidLabel,
    RClass,
    Rcode,
    ResourceRecord,
    RType,
    _record,
    encode_message,
    make_query,
    make_update,
)

DEFAULT_SENTINEL = b"researchstudyzp"
# extra attempts for the probe UPDATE and each verification lookup; each
# retransmission only ever follows a timeout
RETRIES_VERIFY = 2
# delete-and-recheck rounds before a failed cleanup is surfaced
RETRIES_CLEANUP = 5


class ScannerError(Exception):
    pass


class AttestationRequired(ScannerError):
    """Real-socket probing demands the probe-address ownership attestation."""


@dataclass(frozen=True, slots=True)
class ProbeTarget:
    zone: DnsName
    nameserver: str

    def __post_init__(self):
        if not len(self.zone):
            raise ValueError("probe zone must be non-root")
        if not parse_endpoint(self.nameserver)[0]:
            raise ValueError("probe target needs a nameserver address")


@dataclass(frozen=True)
class ProbeConfig:
    """Scanner knobs.

    ``probe_address`` must point at an operator-controlled host that
    explains the scan; ``probe_address_attested`` asserts that ownership
    and is required for real-socket scans. Probes run one at a time, paced
    to ``per_nameserver_rate`` probes/second per target address; retry
    counts are the module constants ``RETRIES_VERIFY`` and
    ``RETRIES_CLEANUP``. A reply counts only when it answers the request
    (id, opcode and question); any other reply is a ``MALFORMED_REPLY``.
    """

    probe_address: Union[IPv4Address, IPv6Address] = IPv4Address("192.0.2.80")
    sentinel_label: bytes = DEFAULT_SENTINEL
    ttl: int = 120
    timeout: float = 3.0
    per_nameserver_rate: float = 2.0
    probe_address_attested: bool = False

    def __post_init__(self):
        if not self.sentinel_label or len(self.sentinel_label) > 63 or b"." in self.sentinel_label:
            raise ValueError("sentinel_label must be a single valid DNS label")

    @property
    def record_type(self) -> int:
        return RType.AAAA if isinstance(self.probe_address, IPv6Address) else RType.A


class Verdict(Enum):
    VULNERABLE_CONFIRMED = "vulnerable_confirmed"
    UPDATE_ACCEPTED_NOT_VISIBLE = "update_accepted_not_visible"
    NOT_VULNERABLE = "not_vulnerable"
    UNREACHABLE = "unreachable"
    MALFORMED_REPLY = "malformed_reply"
    CLEANUP_FAILED = "cleanup_failed"
    # `<sentinel>.<zone>` would exceed 255 wire bytes: no probe can be built
    NOT_PROBED = "not_probed"


VULNERABLE_VERDICTS = {Verdict.VULNERABLE_CONFIRMED, Verdict.CLEANUP_FAILED}


@dataclass(frozen=True, slots=True)
class ProbeOutcome:
    target: ProbeTarget
    verdict: Verdict
    update_rcode: Optional[Rcode]
    t_update_ms: float
    t_verify_ms: float
    t_cleanup_ms: float
    cleanup_confirmed: Optional[bool]
    detection_updates_sent: int
    cleanup_updates_sent: int
    ts: float

    def __post_init__(self):
        if self.verdict is Verdict.VULNERABLE_CONFIRMED:
            assert self.update_rcode == Rcode.NOERROR and self.cleanup_confirmed
        if self.verdict is Verdict.CLEANUP_FAILED:
            assert self.update_rcode == Rcode.NOERROR

    @property
    def vulnerable(self) -> bool:
        return self.verdict in VULNERABLE_VERDICTS

    def to_json_obj(self) -> dict:
        return {
            "zone": self.target.zone.to_text(),
            "ns": self.target.nameserver,
            "verdict": self.verdict.value,
            "rcode": self.update_rcode.name if self.update_rcode is not None else None,
            "t_update_ms": round(self.t_update_ms, 3),
            "t_verify_ms": round(self.t_verify_ms, 3),
            "t_cleanup_ms": round(self.t_cleanup_ms, 3),
            "cleanup_ok": self.cleanup_confirmed,
            "detection_updates_sent": self.detection_updates_sent,
            "cleanup_updates_sent": self.cleanup_updates_sent,
            "ts": self.ts,
        }


def sentinel_name(target: ProbeTarget, cfg: ProbeConfig) -> DnsName:
    """`<sentinel>.<zone>`; raises InvalidLabel when it exceeds 255 wire bytes."""
    return target.zone.prepend(cfg.sentinel_label)


def _probe_record(sentinel: DnsName, cfg: ProbeConfig) -> ResourceRecord:
    """The record a probe adds, and the one its cleanup deletes by rdata."""
    return _record(sentinel, cfg.record_type, RClass.IN, cfg.ttl, cfg.probe_address)


def build_probe(target: ProbeTarget, cfg: ProbeConfig, *,
                msg_id: Optional[int] = None, rng: Optional[random.Random] = None) -> DnsMessage:
    """The single detection datagram: an UPDATE adding `<sentinel>.<zone>`."""
    record = _probe_record(sentinel_name(target, cfg), cfg)
    return make_update(target.zone, [AddRecord(record)], msg_id=msg_id, rng=rng)


def run_probe(target: ProbeTarget, cfg: ProbeConfig, transport: Transport,
              clock=None, rng: Optional[random.Random] = None) -> ProbeOutcome:
    """Classify one domain-nameserver pair.

    Phase 1 sends the probe UPDATE: a refusal rcode is NotVulnerable,
    silence after retries is Unreachable, and a reply that does not answer
    the request is MalformedReply, as in phase 2. Phase 2 queries the nameserver
    directly for the sentinel record. Phase 3 deletes it and confirms the
    removal. Every path is an outcome, never an exception: a zone too long
    to carry the sentinel label is NotProbed, with nothing sent.
    """
    clock = clock or SystemClock()
    rng = rng or random.Random()
    if isinstance(transport, UdpTransport) and not cfg.probe_address_attested:
        raise AttestationRequired("refusing real-socket probes without --i-own-the-probe-address")
    started = clock.now()

    def outcome(verdict, update_rcode=None, *, t_update=0.0, t_verify=0.0, t_cleanup=0.0,
                cleanup_confirmed=None, detection_sends=0, cleanup_sends=0) -> ProbeOutcome:
        return ProbeOutcome(
            target=target, verdict=verdict, update_rcode=update_rcode,
            t_update_ms=t_update * 1000, t_verify_ms=t_verify * 1000,
            t_cleanup_ms=t_cleanup * 1000, cleanup_confirmed=cleanup_confirmed,
            detection_updates_sent=detection_sends, cleanup_updates_sent=cleanup_sends,
            ts=started,
        )

    try:
        sentinel = sentinel_name(target, cfg)
    except InvalidLabel:
        return outcome(Verdict.NOT_PROBED)
    record = _probe_record(sentinel, cfg)

    # phase 1: one UPDATE datagram decides; retransmit only after a timeout
    probe = make_update(target.zone, [AddRecord(record)], rng=rng)
    t0 = clock.now()
    reply, detection_sends = _exchange(transport, target.nameserver, probe, cfg.timeout,
                                       RETRIES_VERIFY)
    t_update = clock.now() - t0
    if isinstance(reply, DecodeError):
        return outcome(Verdict.MALFORMED_REPLY, t_update=t_update, detection_sends=detection_sends)
    if reply is None:
        return outcome(Verdict.UNREACHABLE, t_update=t_update, detection_sends=detection_sends)
    if reply.rcode != Rcode.NOERROR:
        return outcome(Verdict.NOT_VULNERABLE, reply.rcode, t_update=t_update,
                       detection_sends=detection_sends)

    # phase 2: the update claims success; look for the sentinel record
    t1 = clock.now()
    verdict = Verdict.UPDATE_ACCEPTED_NOT_VISIBLE
    try:
        answers = _query_addresses(transport, target.nameserver, sentinel, cfg, rng)
    except DecodeError:
        answers, verdict = None, Verdict.MALFORMED_REPLY
    common = dict(t_update=t_update, t_verify=clock.now() - t1, detection_sends=detection_sends)
    if answers is not None and cfg.probe_address not in answers:
        # nothing of ours is visible; issue no deletion for data we did not create
        return outcome(Verdict.UPDATE_ACCEPTED_NOT_VISIBLE, Rcode.NOERROR, **common)

    # phase 3: our record may be in the zone; delete exactly it and confirm removal.
    # Only a check that saw our record alone confirms the insert: a timeout, a
    # bad reply or a pre-existing sentinel rrset keeps the weaker verdict
    removed, cleanup_sends, t_cleanup = _cleanup_own_record(target, record, cfg, transport,
                                                            clock, rng)
    if answers == {cfg.probe_address}:
        verdict = Verdict.VULNERABLE_CONFIRMED if removed else Verdict.CLEANUP_FAILED
    return outcome(verdict, Rcode.NOERROR, cleanup_confirmed=removed,
                   cleanup_sends=cleanup_sends, t_cleanup=t_cleanup, **common)


def _query_addresses(transport, destination, name, cfg, rng):
    """Resolve the sentinel rrset directly at the target nameserver.

    Returns the answer address set, or None after all attempts time out;
    a reply that does not decode or does not answer the query raises
    DecodeError.
    """
    query = make_query(name, cfg.record_type, rng=rng)
    reply = exchange_message(transport, destination, query, cfg.timeout, RETRIES_VERIFY)
    if reply is None:
        return None
    return {rr.rdata for rr in reply.answers
            if rr.rtype == cfg.record_type and rr.name == name
            and isinstance(rr.rdata, (IPv4Address, IPv6Address))}


def _cleanup_own_record(target, record, cfg, transport, clock, rng):
    """Delete exactly our sentinel record (RFC 2136 §2.5.4) and confirm its absence.

    The delete names our rdata, so a record another client holds in the
    sentinel rrset is never touched.
    """
    sentinel = record.name
    change = DeleteExactRecord(record)
    t0 = clock.now()
    sends = 0
    for _ in range(RETRIES_CLEANUP):
        sends += 1
        delete = make_update(target.zone, [change], rng=rng)
        transport.exchange(encode_message(delete), target.nameserver, cfg.timeout)
        try:
            answers = _query_addresses(transport, target.nameserver, sentinel, cfg, rng)
        except DecodeError:
            continue
        if answers is not None and cfg.probe_address not in answers:
            return True, sends, clock.now() - t0
    return False, sends, clock.now() - t0


class Pacer:
    """Per-nameserver send gate: consecutive probes to one address keep a minimum gap."""

    def __init__(self, clock, rate_per_second: float):
        self.clock = clock
        self.min_gap = 1.0 / rate_per_second if rate_per_second > 0 else 0.0
        self._next_slot: dict[str, float] = {}

    def wait(self, nameserver: str) -> None:
        now = self.clock.now()
        slot = self._next_slot.get(nameserver, now)
        if slot > now:
            self.clock.sleep(slot - now)
        self._next_slot[nameserver] = max(slot, now) + self.min_gap


@dataclass
class ScanResult:
    outcomes: list[ProbeOutcome]
    snapshot: ScanSnapshot


def run_scan(targets: Iterable[ProbeTarget], cfg: ProbeConfig, transport: Transport,
             clock=None, rng: Optional[random.Random] = None) -> ScanResult:
    """Probe every distinct target once, paced per nameserver, and fold a snapshot."""
    clock = clock or SystemClock()
    rng = rng or random.Random()
    pacer = Pacer(clock, cfg.per_nameserver_rate)
    pairs: set[tuple[str, str]] = set()
    outcomes: list[ProbeOutcome] = []
    vulnerable: set[tuple[str, str]] = set()
    for target in targets:
        key = (target.zone.to_text().lower(), target.nameserver)
        if key in pairs:
            continue
        pairs.add(key)
        pacer.wait(target.nameserver)
        result = run_probe(target, cfg, transport, clock, rng)
        outcomes.append(result)
        if result.vulnerable:
            vulnerable.add(key)
    snapshot = ScanSnapshot.from_pairs(clock.now(), derive_counts(pairs), vulnerable)
    return ScanResult(outcomes, snapshot)


def parse_pair_lines(lines: Iterable[str]) -> Iterator[ProbeTarget]:
    """`zone,nameserver` records, one per line; blank lines and #-comments skipped."""
    for line in lines:
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        zone_text, _, ns = line.partition(",")
        if not ns:
            raise ValueError(f"pair line needs 'zone,nameserver': {line!r}")
        yield ProbeTarget(DnsName.from_text(zone_text.strip()), ns.strip())
