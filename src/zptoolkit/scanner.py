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
    Transport,
    UdpTransport,
    _exchange,
    parse_endpoint,
)
from .wire import (
    MAX_TTL,
    DecodeError,
    DnsMessage,
    DnsName,
    InvalidLabel,
    Opcode,
    RClass,
    Rcode,
    RType,
    WireError,
    _bounded,
    _builder,
    _message,
    _question,
    _record,
    _slot_init,
    content_lines,
    encode_message,
)

DEFAULT_SENTINEL = b"researchstudyzp"
# extra attempts for the probe UPDATE and each verification lookup; each
# retransmission only ever follows a timeout
RETRIES_VERIFY = 2
# delete-and-recheck rounds before a failed cleanup is surfaced
RETRIES_CLEANUP = 5
# the longest wait for one reply, in seconds; a sim clock or a socket needs a finite one
MAX_TIMEOUT_S = 3600


class ScannerError(Exception):
    pass


class AttestationRequired(ScannerError):
    """Real-socket probing demands the probe-address ownership attestation."""


@_slot_init
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
    (id, opcode and question); one that does not is dropped and the
    request resent, and a reply that does not decode, or only such replies
    to every attempt, make a ``MALFORMED_REPLY``. A truncated reply counts
    as a lost attempt.
    """

    probe_address: Union[IPv4Address, IPv6Address] = IPv4Address("192.0.2.80")
    sentinel_label: bytes = DEFAULT_SENTINEL
    ttl: int = 120
    timeout: float = 3.0  # seconds per reply: above 0, at most MAX_TIMEOUT_S
    per_nameserver_rate: float = 2.0  # above 0; inf leaves no gap
    probe_address_attested: bool = False

    def __post_init__(self):
        if not self.sentinel_label or len(self.sentinel_label) > 63 or b"." in self.sentinel_label:
            raise ValueError("sentinel_label must be a single valid DNS label")
        _bounded(self.ttl, MAX_TTL, "ttl")
        if not 0 < self.timeout <= MAX_TIMEOUT_S:  # NaN fails too
            raise ValueError(f"timeout must be in (0, {MAX_TIMEOUT_S}] s, got {self.timeout}")
        if not self.per_nameserver_rate > 0:  # NaN fails too
            raise ValueError(f"per_nameserver_rate must be > 0, got {self.per_nameserver_rate}")

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


@_slot_init
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
        verdict = self.verdict
        return verdict is Verdict.VULNERABLE_CONFIRMED or verdict is Verdict.CLEANUP_FAILED

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


# every outcome is filled slot by slot; each branch of ``run_probe`` holds
# what ``ProbeOutcome.__post_init__`` asserts: a confirmed verdict comes only
# with NOERROR and a confirmed cleanup, a failed cleanup only with NOERROR
_outcome = _builder(ProbeOutcome)
# enum members read once here: a member read through its class costs a lookup
_NOT_PROBED, _UNREACHABLE, _MALFORMED_REPLY = (Verdict.NOT_PROBED, Verdict.UNREACHABLE,
                                               Verdict.MALFORMED_REPLY)
_NOT_VULNERABLE, _NOT_VISIBLE = Verdict.NOT_VULNERABLE, Verdict.UPDATE_ACCEPTED_NOT_VISIBLE
_VULNERABLE_CONFIRMED, _CLEANUP_FAILED = Verdict.VULNERABLE_CONFIRMED, Verdict.CLEANUP_FAILED
_IN, _NONE, _SOA, _UPDATE, _QUERY = RClass.IN, RClass.NONE, RType.SOA, Opcode.UPDATE, Opcode.QUERY
_NOERROR = Rcode.NOERROR
_ADDRESSES = (IPv4Address, IPv6Address)


def build_probe(target: ProbeTarget, cfg: ProbeConfig, rng: random.Random) -> DnsMessage:
    """The single detection datagram: an UPDATE adding `<sentinel>.<zone>`,
    its id drawn from ``rng``.

    The message ``make_update`` makes for that one add, built directly: its
    zone section, ``question``, is (zone, SOA, IN), and its one update
    record, ``updates[0]``, is the class IN record that the cleanup deletes
    by rdata. Raises InvalidLabel when `<sentinel>.<zone>` would exceed 255
    wire bytes.
    """
    zone = target.zone
    record = _record(zone.prepend(cfg.sentinel_label), cfg.record_type, _IN, cfg.ttl,
                     cfg.probe_address)
    return _message(rng.randrange(0x10000), _UPDATE, _NOERROR, False, False,
                    (_question(zone, _SOA, _IN),), (), (record,), (), 0)


def run_probe(target: ProbeTarget, cfg: ProbeConfig, transport: Transport,
              clock=None, rng: Optional[random.Random] = None) -> ProbeOutcome:
    """Classify one domain-nameserver pair.

    Phase 1 sends the probe UPDATE and decides whether the probe goes on:
    silence after retries is Unreachable, with ``cleanup_confirmed`` False,
    since a send may have landed with only its reply lost, and a refusal
    rcode is NotVulnerable. After a NOERROR, phase 2 queries the nameserver
    directly for the sentinel record; a probe that drew only replies that do
    not decode or do not answer it is a MalformedReply with no rcode and
    skips it. Phase 3 follows either way, as the probe may have landed: it
    deletes the record and confirms the removal. Every path is an outcome,
    never an exception: a zone too long to carry the sentinel label is
    NotProbed, with nothing sent. Times come from ``clock``, by default the
    transport's own, read once as each phase ends; the outcome's ``ts`` is
    when phase 1 began.
    """
    _require_attestation(cfg, transport)
    clock = clock or transport.clock
    rng = rng or random.Random()
    try:
        probe = build_probe(target, cfg, rng)
    except InvalidLabel:
        return _outcome(target, _NOT_PROBED, None, 0.0, 0.0, 0.0, None, 0, 0, clock.now())
    record = probe.updates[0]

    # phase 1: one UPDATE datagram decides; retransmit only after a timeout
    started = clock.now()
    reply, detection_sends = _exchange(transport, target.nameserver, probe, cfg.timeout,
                                       RETRIES_VERIFY)
    t1 = clock.now()
    t_update = (t1 - started) * 1000
    if reply is None:
        return _outcome(target, _UNREACHABLE, None, t_update, 0.0, 0.0, False, detection_sends, 0,
                        started)
    answered = isinstance(reply, DnsMessage)
    if answered and reply.rcode is not _NOERROR:
        return _outcome(target, _NOT_VULNERABLE, reply.rcode, t_update, 0.0, 0.0, None,
                        detection_sends, 0, started)
    question = (_question(record.name, record.rtype, _IN),)
    # no reply answered the probe, yet a send of it may have been applied
    rcode, verdict, answers, t2 = None, _MALFORMED_REPLY, None, t1
    if answered:
        # phase 2: the update claims success; look for the sentinel record
        rcode, verdict = _NOERROR, _NOT_VISIBLE
        try:
            answers = _query_addresses(transport, target.nameserver, question, cfg, rng)
        except DecodeError:
            verdict = _MALFORMED_REPLY
        t2 = clock.now()

    # phase 3: the server may hold our record, though a lagging copy may not show
    # it yet; delete exactly it whatever phase 2 saw, and confirm removal. Only a
    # check that saw our record alone confirms the insert: an empty answer, a
    # timeout, a bad reply or a pre-existing sentinel rrset keeps the weaker verdict
    removed, cleanup_sends = _cleanup_own_record(target.nameserver, probe, question, cfg,
                                                 transport, rng)
    t_cleanup = (clock.now() - t2) * 1000
    if answers and answers.count(cfg.probe_address) == len(answers):
        verdict = _VULNERABLE_CONFIRMED if removed else _CLEANUP_FAILED
    return _outcome(target, verdict, rcode, t_update, (t2 - t1) * 1000, t_cleanup, removed,
                    detection_sends, cleanup_sends, started)


def _require_attestation(cfg: ProbeConfig, transport: Transport) -> None:
    if isinstance(transport, UdpTransport) and not cfg.probe_address_attested:
        raise AttestationRequired("refusing real-socket probes without --i-own-the-probe-address")


def _query_addresses(transport, destination, question, cfg, rng):
    """Resolve the sentinel rrset directly at the target nameserver.

    ``question`` is the query's question section, which the verify and
    every re-check share. Returns the answer addresses, or None when no
    attempt got an answer and one timed out; a reply that does not decode,
    or replies to every attempt that do not answer the query, raise
    DecodeError.
    """
    query = _message(rng.randrange(0x10000), _QUERY, _NOERROR, False, False, question,
                     (), (), (), 0)
    reply, _ = _exchange(transport, destination, query, cfg.timeout, RETRIES_VERIFY)
    if reply is None:
        return None
    if not isinstance(reply, DnsMessage):
        raise reply
    name, rtype = question[0].name, question[0].rtype
    return [rr.rdata for rr in reply.answers
            if rr.rtype == rtype and rr.name == name and isinstance(rr.rdata, _ADDRESSES)]


def _cleanup_own_record(nameserver, probe, question, cfg, transport, rng):
    """Delete exactly our sentinel record (RFC 2136 §2.5.4) and confirm its absence.

    The delete names the rdata of ``probe``'s one update record, so a record
    another client holds in the sentinel rrset is never touched. Each round
    sends a fresh delete under the probe's zone section, and its reply is not
    read: the re-check, asking ``question``, decides. A port that refuses the
    delete ends the cleanup unconfirmed. Returns whether the removal was
    confirmed, and the deletes sent.
    """
    record = probe.updates[0]
    deleted = (_record(record.name, record.rtype, _NONE, 0, record.rdata),)
    for sends in range(1, RETRIES_CLEANUP + 1):
        delete = _message(rng.randrange(0x10000), _UPDATE, _NOERROR, False, False, probe.question,
                          (), deleted, (), 0)
        try:
            transport.exchange(encode_message(delete), nameserver, cfg.timeout)
        except ConnectionRefusedError:  # a closed port: nothing is resent
            return False, sends
        try:
            answers = _query_addresses(transport, nameserver, question, cfg, rng)
        except DecodeError:
            continue
        if answers is not None and cfg.probe_address not in answers:
            return True, sends
    return False, RETRIES_CLEANUP


class Pacer:
    """Per-nameserver send gate: consecutive probes to one address keep a gap of 1 / rate."""

    def __init__(self, clock, rate_per_second: float):
        self.clock = clock
        self.min_gap = 1.0 / rate_per_second
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
    """Probe every distinct target once, paced per nameserver, and fold a snapshot.

    Pacing, outcomes and the snapshot read ``clock``, by default the transport's own.
    A real-socket scan without the attestation raises before anything is sent.
    """
    _require_attestation(cfg, transport)
    clock = clock or transport.clock
    rng = rng or random.Random()
    pacer = Pacer(clock, cfg.per_nameserver_rate)
    # (zone, nameserver) pairs, the zone by its lower-cased wire bytes: a label
    # that holds a "." byte is not two labels, and case variants are one zone
    pairs: set[tuple[bytes, str]] = set()
    outcomes: list[ProbeOutcome] = []
    vulnerable: set[tuple[str, str]] = set()
    for target in targets:
        zone, nameserver = target.zone, target.nameserver
        key = (zone._key, nameserver)
        if key in pairs:
            continue
        pairs.add(key)
        pacer.wait(nameserver)
        result = run_probe(target, cfg, transport, clock, rng)
        outcomes.append(result)
        if result.vulnerable:
            vulnerable.add((zone.to_text().lower(), nameserver))
    snapshot = ScanSnapshot.from_pairs(clock.now(), derive_counts(pairs), vulnerable)
    return ScanResult(outcomes, snapshot)


def parse_pair_lines(lines: Iterable[str]) -> Iterator[ProbeTarget]:
    """`zone,nameserver` records, one per line; blank lines and #-comments skipped."""
    for lineno, line in content_lines(lines):
        zone_text, _, ns = line.partition(",")
        try:
            if not ns:
                raise ValueError(f"pair line needs 'zone,nameserver': {line!r}")
            target = ProbeTarget(DnsName.from_text(zone_text.strip()), ns.strip())
        except (ValueError, WireError) as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        yield target
