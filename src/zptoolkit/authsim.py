"""In-process authoritative nameserver with RFC 2136 server-side semantics.

Zones carry one of four update-policy archetypes (deny / open / source-IP
ACL / signed-key). Servers speak over the in-memory datagram bus, forward
updates from secondaries to their primary, and can journal every update
attempt in honeypot mode. After a mutating update the primary pushes the
zone's registered secondaries one IXFR diff (RFC 1995); a secondary whose
copy is not the diff's base asks for the whole zone, which comes back as an
AXFR stream split over as many messages as it needs (RFC 5936).

A zone is stored as one owner-name index, and each version is made from
the last in one pass: ``apply_update`` walks the UPDATE once, builds the
new record tuple of every owner name it touched, and hands those tuples,
with the apex and its bumped SOA, to one patch primitive, which copies the
index once and checks only the patched names. A record that survives keeps
its object across versions, so the IXFR diff of an update is read off the
touched names by identity. Nothing on that path hashes a record or its
rdata: records at one name are compared field by field.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, Collection, Iterable, Mapping, Optional, Sequence, Union

from . import tsig as tsig_mod
from .transport import DatagramBus, SimDatagram, _datagram
from .wire import (
    DecodeError,
    DnsMessage,
    DnsName,
    Opcode,
    OversizeMessage,
    RClass,
    Rcode,
    ResourceRecord,
    RType,
    SoaData,
    WireError,
    _message,
    _question,
    _record,
    _slot_setters,
    _soa,
    decode_message,
    encode_message,
    encode_stream,
    make_query,
    rdata_from_text,
    rtype_from_text,
)

log = logging.getLogger(__name__)

# --- update policies ---


@dataclass(frozen=True)
class Deny:
    pass


@dataclass(frozen=True)
class Open:
    pass


@dataclass(frozen=True)
class IpAcl:
    allowed: frozenset[str]

    def __post_init__(self):
        if not self.allowed:
            raise ValueError("IpAcl needs at least one allowed source address")


@dataclass(frozen=True)
class SignedKey:
    keyring: tuple[tsig_mod.TsigKey, ...]


UpdatePolicy = Union[Deny, Open, IpAcl, SignedKey]


def policy_label(policy: UpdatePolicy) -> str:
    return {Deny: "deny", Open: "open", IpAcl: "ipacl", SignedKey: "signedkey"}[type(policy)]


def parse_policy(text: str, keys: Optional[Mapping[str, tsig_mod.TsigKey]] = None) -> UpdatePolicy:
    parts = text.split(None, 1)
    kind = parts[0].lower()
    if kind == "deny":
        return Deny()
    if kind == "open":
        return Open()
    if kind == "ipacl":
        if len(parts) < 2:
            raise ValueError("ipacl policy needs a source list: ipacl a,b,c")
        return IpAcl(frozenset(a.strip() for a in parts[1].split(",") if a.strip()))
    if kind == "key":
        if len(parts) < 2:
            raise ValueError("key policy needs a key name: key <name>")
        name = parts[1].strip()
        if not keys or name not in keys:
            raise ValueError(f"policy references unknown TSIG key {name!r}")
        return SignedKey((keys[name],))
    raise ValueError(f"unknown policy {text!r}")


# --- roles ---


@dataclass(frozen=True)
class Primary:
    pass


@dataclass(frozen=True)
class Secondary:
    primary_address: str


Role = Union[Primary, Secondary]


# --- zone state ---

# the write path compares types and classes dozens of times per UPDATE, and
# each ``RType.X`` is a class attribute lookup several times dearer than a global
_SOA, _NS, _CNAME, _ANY = RType.SOA, RType.NS, RType.CNAME, RType.ANY
_IN, _CLASS_ANY, _CLASS_NONE = RClass.IN, RClass.ANY, RClass.NONE


@dataclass(frozen=True, eq=False, slots=True)
class ZoneConfig:
    """One zone's full state: apex, role, policy, and two indexes over its owner names.

    The owner-name index, ``by_name``, maps each name to its tuple of
    records. It is the only record store: every lookup goes through it, and
    ``records`` and ``soa_serial`` are read from it. The ancestor index,
    ``_below``, maps each name strictly between the apex and an owner to
    the number of owners below it. Only such a name can be an empty
    non-terminal (RFC 1034 §4.3.2), because the apex holds the SOA, so
    ``has_node`` is one lookup in one of the two. The index is built with
    the zone, and it is empty when every owner sits at most one label below
    the apex. Every owner lies at or below the apex: the constructor and
    ``_patch`` raise ValueError for any other.

    Each later version comes from ``_patch``, which copies ``by_name`` once
    and replaces only the patched names' tuples, and copies ``_below`` only
    when an owner two or more labels below the apex comes or goes;
    ``apply_update`` and ``derive`` are its two front ends. No two records
    share name, type and rdata (``build`` and ``derive`` refuse a second TTL
    or class for one; adds replace the TTL instead). Neither index is
    mutated after construction, because versions share them, and
    ``dataclasses.replace`` shares ``by_name``. Zones compare by identity.
    """

    apex: DnsName
    role: Role
    policy: UpdatePolicy
    by_name: Mapping[DnsName, tuple[ResourceRecord, ...]]
    _below: Mapping[DnsName, int] = field(init=False, repr=False)

    def __post_init__(self):
        apex = self.apex
        depths = [name.labels_below(apex) for name in self.by_name]
        if min(depths, default=0) < 0:
            outside = next(name for name, d in zip(self.by_name, depths) if d < 0)
            raise ValueError(_OUTSIDE.format(outside.to_text(), apex.to_text()))
        # a name breaks a rule only through an SOA or a CNAME, so only those
        # names, and the apex that must hold the SOA, are checked
        marked = {rr.name for rrs in self.by_name.values() for rr in rrs
                  if rr.rtype == _SOA or rr.rtype == _CNAME}
        for name in marked | {apex}:
            _check_name(apex, name, self.by_name.get(name, ()))
        below: dict[DnsName, int] = {}
        for name, d in zip(self.by_name, depths):
            if d > 1:
                _count_ancestors(below, name, 1, d)
        object.__setattr__(self, "_below", below)

    @classmethod
    def build(cls, apex: DnsName, role: Role, policy: UpdatePolicy,
              records: Iterable[ResourceRecord]) -> "ZoneConfig":
        """Zone holding ``records`` de-duplicated, each name's records in the order first given.

        Raises ValueError as the constructor does, and when two records
        share name, type and rdata but not TTL or class.
        """
        index: dict[DnsName, dict[tuple, ResourceRecord]] = {}
        for rr in records:
            first = index.setdefault(rr.name, {}).setdefault((rr.rtype, rr.rdata), rr)
            if first is not rr and not _same(first, rr):
                raise ValueError(_CLASH.format(rr.name.to_text()))
        return cls(apex, role, policy,
                   {name: tuple(rrs.values()) for name, rrs in index.items()})

    def derive(self, removed: Iterable[ResourceRecord],
               added: Iterable[ResourceRecord]) -> "ZoneConfig":
        """The next version: this zone's records less ``removed``, plus ``added``.

        Holds the same records as ``build`` on the same records, and raises
        ValueError exactly when it does, or when a removed record is not in
        the zone. A touched name keeps its surviving records, as the same
        objects and in their order, and then takes the added ones in the
        order given, so answers do not depend on the hash seed. The touched
        names go to ``_patch`` as one batch.
        """
        removed, added = list(removed), list(added)
        # owner name -> its records as they become
        touched = {rr.name: list(self.records_at(rr.name)) for rr in (*removed, *added)}
        for rr in removed:
            if not any(_same(old, rr) for old in self.records_at(rr.name)):
                raise ValueError("a removed record is not in the zone")
            now = touched[rr.name]
            now[:] = [old for old in now if not _same(old, rr)]
        for rr in added:
            now = touched[rr.name]
            i = _find(now, rr.rtype, rr.rdata)
            if i < 0:
                now.append(rr)
            elif not _same(now[i], rr):
                raise ValueError(_CLASH.format(rr.name.to_text()))
        return self._patch([(name, tuple(now)) for name, now in touched.items()])

    def _patch(self, patches: Iterable[tuple[DnsName, tuple[ResourceRecord, ...]]]) -> "ZoneConfig":
        """This zone with each patched name holding exactly the records given (none drops it).

        The one way to make a later version: the owner-name index is copied
        once, each patched name is checked on its own (it must lie at or
        below the apex, and ``_check_name``) and costs one hash of the name,
        and the ancestor index is copied only when a name two or more labels
        below the apex comes or goes. The rest of the zone is shared with
        this version unchecked.
        """
        apex = self.apex
        by_name = dict(self.by_name)
        below = self._below
        copied = False
        for name, rrs in patches:
            d = name.labels_below(apex)
            if d < 0:
                raise ValueError(_OUTSIDE.format(name.to_text(), apex.to_text()))
            _check_name(apex, name, rrs)
            size = len(by_name)
            if rrs:
                by_name[name] = rrs
            else:
                by_name.pop(name, None)
            if len(by_name) != size and d > 1:
                if not copied:
                    below, copied = dict(below), True
                _count_ancestors(below, name, 1 if rrs else -1, d)
        zone = object.__new__(ZoneConfig)  # checked above: skip the whole-zone constructor
        _set_apex(zone, apex)
        _set_role(zone, self.role)
        _set_policy(zone, self.policy)
        _set_by_name(zone, by_name)
        _set_below(zone, below)
        return zone

    @property
    def records(self) -> frozenset[ResourceRecord]:
        """Every record in the zone, built from the index on each read."""
        return frozenset(rr for rrs in self.by_name.values() for rr in rrs)

    @property
    def soa(self) -> ResourceRecord:
        return self.rrset(self.apex, RType.SOA)[0]

    @property
    def soa_serial(self) -> int:
        return self.soa.rdata.serial

    def rrset(self, name: DnsName, rtype: int) -> tuple[ResourceRecord, ...]:
        return tuple(rr for rr in self.records_at(name) if rr.rtype == rtype)

    def records_at(self, name: DnsName) -> tuple[ResourceRecord, ...]:
        return self.by_name.get(name, ())

    def has_node(self, name: DnsName) -> bool:
        """True when the name exists, including as an empty non-terminal (RFC 8020).

        A name exists when it is an owner, when the apex lies at or below it,
        or when it is an indexed ancestor of an owner.
        """
        return name in self.by_name or self.apex.is_subdomain_of(name) or name in self._below

    def delegation(self, name: DnsName) -> Optional[DnsName]:
        """The highest zone cut at or above ``name``, below the apex (RFC 1034 §4.3.2).

        ``name`` must lie in the zone. Walks from just below the apex down to
        ``name`` and returns the first owner with an NS rrset, or None.
        """
        for owner in reversed([*islice(name.suffixes(), name.labels_below(self.apex))]):
            if self.rrset(owner, RType.NS):
                return owner
        return None

    def normalized_records(self) -> frozenset[ResourceRecord]:
        """Record set with the SOA serial zeroed, for before/after comparisons.

        Every mutating update bumps the serial by contract, so residue and
        fixture-equality checks compare record sets modulo that field.
        """
        soa = self.soa
        return self.records - {soa} | {_with_serial(soa, 0)}


_set_apex, _set_role, _set_policy, _set_by_name, _set_below = _slot_setters(ZoneConfig)

_CLASH = "two records at {} share type and rdata but not TTL or class"
_OUTSIDE = "owner {} lies outside the zone {}"


def _check_name(apex: DnsName, name: DnsName, rrs: Collection[ResourceRecord]) -> None:
    """The zone rules that hold name by name: one SOA, at the apex, with SOA
    rdata; one CNAME at most, beside no other type. Raises ValueError."""
    soas = cnames = 0
    soa_rdata_ok = True
    for rr in rrs:
        if rr.rtype == _SOA:
            soas += 1
            soa_rdata_ok = soa_rdata_ok and isinstance(rr.rdata, SoaData)
        elif rr.rtype == _CNAME:
            cnames += 1
    if soas != (name == apex) or not soa_rdata_ok:
        raise ValueError("zone must hold exactly one SOA record, at the apex, with SOA rdata")
    if cnames > 1:
        raise ValueError(f"{name.to_text()} holds more than one CNAME")
    if cnames and len(rrs) > 1:
        raise ValueError(f"CNAME at {name.to_text()} cannot coexist with other types")


def _same(a: ResourceRecord, b: ResourceRecord) -> bool:
    """Record equality for two records known to share an owner name, without hashing."""
    return a is b or (a.rtype == b.rtype and a.ttl == b.ttl and a.rclass == b.rclass
                      and a.rdata == b.rdata)


def _find(rrs: Sequence[ResourceRecord], rtype: int, rdata) -> int:
    """Index of the record of ``rtype`` and ``rdata`` in ``rrs``, or -1."""
    for i, rr in enumerate(rrs):
        if rr.rtype == rtype and rr.rdata == rdata:
            return i
    return -1


def _count_ancestors(below: dict[DnsName, int], name: DnsName, step: int, depth: int) -> None:
    """Add ``step`` to the count of every name strictly between ``name`` and
    the apex, which ``name`` lies ``depth`` labels below, dropping zeros."""
    for ancestor in islice(name.suffixes(), 1, depth):
        count = below.get(ancestor, 0) + step
        if count:
            below[ancestor] = count
        else:
            del below[ancestor]


def _with_serial(soa: ResourceRecord, serial: int) -> ResourceRecord:
    """``soa`` with another serial, for the next zone version. Filled slot by
    slot, as the decoder fills records: the same slotted values as the two
    constructors build, about 2 µs sooner, on every zone-changing UPDATE."""
    old = soa.rdata
    return _record(soa.name, soa.rtype, soa.rclass, soa.ttl,
                   _soa(old.mname, old.rname, serial, old.refresh, old.retry, old.expire,
                        old.minimum))


# --- ACL evaluation ---


@dataclass(frozen=True)
class Allow:
    """Update may proceed; ``message`` is the (possibly TSIG-stripped) core message."""

    message: DnsMessage


@dataclass(frozen=True)
class Refuse:
    rcode: Rcode


AclResult = Union[Allow, Refuse]

# a refusal carries nothing but its rcode, so every refusal is one of these
_REFUSED = Refuse(Rcode.REFUSED)
_NOTAUTH = Refuse(Rcode.NOTAUTH)


def acl_check(policy: UpdatePolicy, datagram_source: str, msg: DnsMessage, now: float) -> AclResult:
    """Decide whether an UPDATE from a claimed source may proceed.

    The IpAcl arm trusts the datagram's source field as-is: that naivety is
    the spoofing vulnerability this toolkit demonstrates, so it must stay.
    """
    if isinstance(policy, Deny):
        return _REFUSED
    if isinstance(policy, Open):
        return Allow(msg)
    if isinstance(policy, IpAcl):
        if datagram_source in policy.allowed:
            return Allow(msg)
        return _REFUSED
    if isinstance(policy, SignedKey):
        result = tsig_mod.verify_message(msg, policy.keyring, now)
        if isinstance(result, tsig_mod.Accept):
            return Allow(result.message)
        if result.reason is tsig_mod.RejectReason.NO_SIGNATURE:
            return _REFUSED
        return _NOTAUTH
    raise TypeError(f"not an UpdatePolicy: {policy!r}")


# --- prerequisite evaluation (RFC 2136 §3.2, the four canonical forms) ---


def evaluate_prerequisites(zone: ZoneConfig, prereqs: Iterable[ResourceRecord]) -> Rcode:
    """Return NOERROR or the rcode of the first violated prerequisite."""
    for rr in prereqs:
        if rr.ttl != 0:
            return Rcode.FORMERR
        if not rr.name.is_subdomain_of(zone.apex):
            return Rcode.NOTZONE
        if rr.rclass == RClass.ANY:
            if rr.rdata != b"":
                return Rcode.FORMERR
            if rr.rtype == RType.ANY:
                if not zone.records_at(rr.name):
                    return Rcode.NXDOMAIN
            elif not zone.rrset(rr.name, rr.rtype):
                return Rcode.NXRRSET
        elif rr.rclass == RClass.NONE:
            if rr.rdata != b"":
                return Rcode.FORMERR
            if rr.rtype == RType.ANY:
                if zone.records_at(rr.name):
                    return Rcode.YXDOMAIN
            elif zone.rrset(rr.name, rr.rtype):
                return Rcode.YXRRSET
        else:
            # value-dependent prerequisites are outside the supported subset
            return Rcode.FORMERR
    return Rcode.NOERROR


# --- update application (RFC 2136 §3.4) ---


# meta types that no update record may carry as data (RFC 2136 §3.4.1.3)
_MAILB, _MAILA = 253, 254
_NOT_ADDABLE = (_ANY, RType.AXFR, _MAILB, _MAILA, RType.TSIG)
_NOT_DELETABLE_AS_RRSET = (RType.AXFR, _MAILB, _MAILA)
_NOT_DELETABLE_EXACTLY = (_ANY, RType.AXFR, _MAILB, _MAILA)


def _prescan_updates(zone: ZoneConfig, updates: Iterable[ResourceRecord]) -> Rcode:
    for rr in updates:
        if not rr.name.is_subdomain_of(zone.apex):
            return Rcode.NOTZONE
        if rr.rclass == _IN:
            if rr.rtype in _NOT_ADDABLE or rr.rdata == b"":
                return Rcode.FORMERR
        elif rr.rclass == _CLASS_ANY:
            if rr.ttl != 0 or rr.rdata != b"" or rr.rtype in _NOT_DELETABLE_AS_RRSET:
                return Rcode.FORMERR
        elif rr.rclass == _CLASS_NONE:
            if rr.ttl != 0 or rr.rtype in _NOT_DELETABLE_EXACTLY:
                return Rcode.FORMERR
        else:
            return Rcode.FORMERR
    return Rcode.NOERROR


def apply_update(zone: ZoneConfig, msg: DnsMessage) -> tuple[ZoneConfig, Rcode]:
    """Apply an UPDATE's changes in order; non-NOERROR outcomes leave the zone untouched.

    The SOA serial advances by exactly one per message that changed
    anything; deleting data that is not there is a silent no-op. Incoming
    SOA adds are ignored so that the serial stays server-managed; a CNAME
    add replaces the CNAME at its name (RFC 2136 §3.4.2.2).

    One pass: the changes are walked once over a working list per touched
    name, matched on type and rdata. Each touched name then keeps its
    surviving records, as the same objects and in their order, followed by
    the records the UPDATE added, in the order the list holds them; a TTL
    replacement is an added record. The apex ends with its bumped SOA. The
    changed names go to ``ZoneConfig._patch`` in one batch.
    """
    if msg.zone is None or msg.zone.rtype != _SOA:
        return zone, Rcode.FORMERR
    apex = zone.apex
    if msg.zone.name != apex:
        return zone, Rcode.NOTZONE
    rc = _prescan_updates(zone, msg.updates)
    if rc != Rcode.NOERROR:
        return zone, rc
    # owner name -> (records before, working list of records after)
    touched: dict[DnsName, tuple[tuple[ResourceRecord, ...], list[ResourceRecord]]] = {}
    for rr in msg.updates:
        name = rr.name
        entry = touched.get(name)
        if entry is None:
            before = zone.records_at(name)
            entry = touched[name] = (before, list(before))
        now = entry[1]
        rtype = rr.rtype
        if rr.rclass == _IN:
            if rtype == _SOA:
                continue
            if rtype == _CNAME:
                if not any(old.rtype != _CNAME for old in now):
                    now[:] = [rr]  # at most one CNAME was there: this one replaces it
                continue
            if any(old.rtype == _CNAME for old in now):
                continue
            i = _find(now, rtype, rr.rdata)
            if i < 0:
                now.append(rr)
            else:
                now[i] = rr
        elif rr.rclass == _CLASS_ANY:
            protected = (_SOA, _NS) if name == apex else ()
            now[:] = [old for old in now
                      if old.rtype in protected or rtype != _ANY and rtype != old.rtype]
        elif rtype != _SOA:  # class NONE
            i = _find(now, rtype, rr.rdata)
            if i < 0 or rtype == _NS and name == apex and \
                    sum(old.rtype == _NS for old in now) == 1:
                continue
            del now[i]
    changed = {name: rrs for name, (before, now) in touched.items()
               if (rrs := _survivors_then_added(before, now)) is not before}
    if not changed:
        return zone, Rcode.NOERROR
    at_apex = changed.pop(apex, zone.records_at(apex))
    soa = next(rr for rr in at_apex if rr.rtype == _SOA)  # an UPDATE never removes it
    new_soa = _with_serial(soa, (soa.rdata.serial + 1) & 0xFFFFFFFF)
    at_apex = (*(rr for rr in at_apex if rr is not soa), new_soa)
    return zone._patch([*changed.items(), (apex, at_apex)]), Rcode.NOERROR


def _survivors_then_added(before: tuple[ResourceRecord, ...],
                          now: list[ResourceRecord]) -> tuple[ResourceRecord, ...]:
    """One name's records after an UPDATE, or ``before`` itself when they are equal.

    A record in ``now`` equal to one in ``before`` (say, deleted and added
    back, or re-added with its own TTL) is that survivor, kept as its old
    object in its old place; the rest follow in the order ``now`` holds them.
    """
    if not before:
        return tuple(now) if now else before
    old_ids = set(map(id, before))
    now = [rr if id(rr) in old_ids else _survivor_equal_to(before, rr) for rr in now]
    kept = set(map(id, now))
    survivors = [rr for rr in before if id(rr) in kept]
    if len(survivors) == len(now) == len(before):
        return before
    return (*survivors, *(rr for rr in now if id(rr) not in old_ids))


def _survivor_equal_to(before: tuple[ResourceRecord, ...], rr: ResourceRecord) -> ResourceRecord:
    """The record in ``before`` equal to ``rr``, or ``rr`` when there is none."""
    i = _find(before, rr.rtype, rr.rdata)
    return before[i] if i >= 0 and _same(before[i], rr) else rr


# --- zone transfers (RFC 1995 IXFR diffs, RFC 5936 AXFR streams) ---


def _is_apex_soa(rr: ResourceRecord, apex: DnsName) -> bool:
    return rr.rtype == RType.SOA and rr.name == apex and isinstance(rr.rdata, SoaData)


def _parse_diff(apex: DnsName, answers: tuple[ResourceRecord, ...]):
    """(old SOA, new SOA, deleted, added) from one RFC 1995 difference
    sequence, or None when the answers are not one."""
    if len(answers) < 4 or not (_is_apex_soa(answers[0], apex) and _is_apex_soa(answers[1], apex)):
        return None
    new_soa, body = answers[0], answers[2:-1]
    marks = [i for i, rr in enumerate(body) if rr.rtype == RType.SOA]
    if answers[-1] != new_soa or len(marks) != 1 or body[marks[0]] != new_soa:
        return None
    return answers[1], new_soa, body[:marks[0]], body[marks[0] + 1:]


# --- honeypot journal ---


@dataclass(frozen=True)
class HoneypotEvent:
    ts: float
    source: str
    zone: str
    kinds: tuple[str, ...]
    names: tuple[str, ...]
    rcode: str
    raw: bytes

    def to_json_obj(self) -> dict:
        return {
            "ts": self.ts,
            "src": self.source,
            "zone": self.zone,
            "kinds": list(self.kinds),
            "names": list(self.names),
            "rcode": self.rcode,
            "raw_hex": self.raw.hex(),
        }


def _change_kind(rr: ResourceRecord) -> str:
    if rr.rclass == RClass.IN:
        return "add"
    if rr.rclass == RClass.ANY:
        return "delete_name" if rr.rtype == RType.ANY else "delete_rrset"
    if rr.rclass == RClass.NONE:
        return "delete_exact"
    return "unknown"


class _JournalSink:
    """Append-only JSONL sink on one open handle, flushed after every event."""

    def __init__(self, path: str):
        self._fh = open(path, "a", encoding="utf-8")

    def __call__(self, event: HoneypotEvent) -> None:
        self._fh.write(json.dumps(event.to_json_obj()) + "\n")
        self._fh.flush()

    def close(self) -> None:
        self._fh.close()


def open_journal(path: str) -> _JournalSink:
    """Open an append-only JSONL journal: call the sink per event, close it when done."""
    return _JournalSink(path)


# --- the server ---

# UPDATEs a secondary has forwarded and not yet seen answered: at most this
# many at once, each for at most this many seconds; when the table is full
# the oldest entry goes, and its client is left to time out
FORWARDS_MAX = 1024
FORWARD_EXPIRY_S = 30.0


class NameServer:
    """One authoritative server: zones, a bus address, and per-zone secondaries.

    Datagrams addressed to one server are processed serially in arrival
    order; distinct servers share nothing but the bus.
    """

    def __init__(self, address: str, zones: Iterable[ZoneConfig] = (), *,
                 honeypot: bool = False,
                 journal_sink: Optional[Callable[[HoneypotEvent], None]] = None):
        self.address = address
        self.zones: dict[DnsName, ZoneConfig] = {}
        self.secondaries: dict[DnsName, list[str]] = {}
        self.honeypot = honeypot
        self.journal_sink = journal_sink
        # forwarded id -> (primary, requester, the requester's id as sent, deadline)
        self._forwards: dict[int, tuple[str, str, bytes, float]] = {}
        self._last_forward_id = 0
        self._streams: dict[DnsName, tuple[int, list[ResourceRecord]]] = {}
        self.faults = 0  # messages whose handling raised: requests get SERVFAIL, responses dropped
        for zone in zones:
            self.add_zone(zone)

    def add_zone(self, zone: ZoneConfig) -> None:
        self.zones[zone.apex] = zone

    def register_secondary(self, apex: DnsName, address: str) -> None:
        self.secondaries.setdefault(apex, []).append(address)

    def attach(self, bus: DatagramBus) -> None:
        bus.attach(self.address, self.handle_datagram)

    # -- datagram entry point --

    def handle_datagram(self, dgram: SimDatagram, now: float) -> list[SimDatagram]:
        try:
            msg = decode_message(dgram.payload)
        except DecodeError:
            if len(dgram.payload) >= 4 and dgram.payload[2] & 0x80:
                # QR set: a response is never answered, even a malformed one
                self._journal(now, dgram, None, "DROPPED")
                return []
            self._journal(now, dgram, None, Rcode.FORMERR)
            return [self._raw_formerr(dgram)]
        try:
            if msg.is_response:
                return self._handle_response(msg, dgram, now)
            if msg.opcode == Opcode.UPDATE:
                return self._handle_update(msg, dgram, now)
            if len(msg.question) == 1 and msg.question[0].rtype == RType.AXFR:
                return self._answer_axfr(msg, dgram)
            return [self._reply(dgram, self._answer_query(msg))]
        except Exception:
            # a fault in this server must not take down the bus and every scan on it
            self.faults += 1
            log.exception("%s: fault handling a datagram from %s", self.address, dgram.source)
            return [] if msg.is_response else [self._reply(dgram, self._response(msg, Rcode.SERVFAIL))]

    # -- queries --

    def _answer_query(self, msg: DnsMessage) -> DnsMessage:
        if len(msg.question) != 1:
            return self._response(msg, Rcode.FORMERR)
        q = msg.question[0]
        zone = self._zone_for(q.name)
        if zone is None:
            return self._response(msg, Rcode.REFUSED)
        cut = zone.delegation(q.name)
        if cut is not None:
            ns_rrset = zone.rrset(cut, RType.NS)
            glue = []
            for ns in ns_rrset:
                glue += zone.rrset(ns.rdata, RType.A) + zone.rrset(ns.rdata, RType.AAAA)
            return self._response(msg, Rcode.NOERROR, authority=ns_rrset,
                                  additional=tuple(glue), authoritative=False)
        at_name = zone.records_at(q.name)
        if not at_name:
            if zone.has_node(q.name):
                return self._response(msg, Rcode.NOERROR, authority=(zone.soa,), authoritative=True)
            return self._response(msg, Rcode.NXDOMAIN, authority=(zone.soa,), authoritative=True)
        if q.rtype == RType.ANY:
            answers = at_name
        else:
            answers = tuple(rr for rr in at_name if rr.rtype == q.rtype)
            if not answers and q.rtype != RType.CNAME:
                answers = tuple(rr for rr in at_name if rr.rtype == RType.CNAME)
        if not answers:
            return self._response(msg, Rcode.NOERROR, authority=(zone.soa,), authoritative=True)
        return self._response(msg, Rcode.NOERROR, answers=answers, authoritative=True)

    def _zone_for(self, name: DnsName) -> Optional[ZoneConfig]:
        """The zone with the longest apex at or above ``name``: suffixes, longest first."""
        for suffix in name.suffixes():
            zone = self.zones.get(suffix)
            if zone is not None:
                return zone
        return None

    # -- updates --

    def _handle_update(self, msg: DnsMessage, dgram: SimDatagram, now: float) -> list[SimDatagram]:
        """Work out the rcode (None when forwarded) and the datagrams the update
        adds, then journal it once and answer it once, ahead of any IXFR push."""
        out: list[SimDatagram] = []
        if len(msg.question) != 1 or msg.question[0].rtype != RType.SOA:
            rc = Rcode.FORMERR
        elif (zone := self.zones.get(msg.question[0].name)) is None:
            rc = Rcode.NOTAUTH
        elif isinstance(acl := acl_check(zone.policy, dgram.source, msg, now), Refuse):
            rc = acl.rcode
        elif isinstance(zone.role, Secondary):
            # no local write: hand the request to the primary and relay
            # whatever rcode it returns
            rc = None
            out.append(self._forward(dgram, zone.role.primary_address, now))
        else:
            core = acl.message
            rc = evaluate_prerequisites(zone, core.prerequisites)
            new_zone = zone
            if rc == Rcode.NOERROR:
                new_zone, rc = apply_update(zone, core)
            if new_zone is not zone:
                self.zones[zone.apex] = new_zone
                out += self._push_diff(zone, new_zone, core.updates)
        self._journal(now, dgram, msg, "FORWARDED" if rc is None else rc)
        return out if rc is None else [self._reply(dgram, self._response(msg, rc)), *out]

    def _forward(self, dgram: SimDatagram, primary: str, now: float) -> SimDatagram:
        """The request, for ``primary``, under an id of this server's own (RFC 2136 §6).

        Two clients may send one id through this server, so the primary's
        reply is matched on the fresh id alone, and relayed under the
        client's. A signed request stays verifiable: TSIG keeps the id it
        was signed under (RFC 8945 §4.3). Expired entries go first, then the
        oldest while the table is full. Ids come from a counter, so a run
        is the same on every seed of the hash.
        """
        forwards = self._forwards
        while forwards:
            oldest = next(iter(forwards))
            if len(forwards) < FORWARDS_MAX and forwards[oldest][3] >= now:
                break
            del forwards[oldest]
        forward_id = self._last_forward_id
        while True:
            forward_id = (forward_id + 1) & 0xFFFF
            if forward_id not in forwards:
                break
        self._last_forward_id = forward_id
        payload = dgram.payload
        forwards[forward_id] = (primary, dgram.source, payload[:2], now + FORWARD_EXPIRY_S)
        return _datagram(self.address, primary, forward_id.to_bytes(2, "big") + payload[2:])

    # -- zone transfers: primary side --

    def _push_diff(self, old: ZoneConfig, new: ZoneConfig,
                   updates: Iterable[ResourceRecord]) -> list[SimDatagram]:
        """Send each registered secondary the change ``updates`` made as one IXFR message.

        The answers run new SOA, old SOA, deleted records, new SOA, added
        records, new SOA (RFC 1995 section 4). ``new`` must come from
        ``old`` by ``apply_update``: a record that survived is the same
        object in both, so the diff at each touched name is read off by
        identity. The diff keeps this server's order, the touched names in
        the order the UPDATE names them and each name's records in their
        stored order, so a secondary that appends the added records, and
        the new SOA last, stores what this server stores. A diff too large
        for one message goes out as the whole zone instead.
        """
        secondaries = self.secondaries.get(new.apex)
        if not secondaries:
            return []
        deleted, added = [], []
        for name in dict.fromkeys(rr.name for rr in updates):
            before, after = old.records_at(name), new.records_at(name)
            if before is after:
                continue
            old_ids, new_ids = set(map(id, before)), set(map(id, after))
            deleted += [rr for rr in before if id(rr) not in new_ids and rr.rtype != RType.SOA]
            added += [rr for rr in after if id(rr) not in old_ids and rr.rtype != RType.SOA]
        old_soa, new_soa = old.soa, new.soa
        msg = _message(new_soa.rdata.serial & 0xFFFF, Opcode.QUERY, Rcode.NOERROR, True, True,
                       (_question(new.apex, RType.IXFR, RClass.IN),),
                       (new_soa, old_soa, *deleted, new_soa, *added, new_soa), (), (), 0)
        try:
            payload = encode_message(msg)
        except OversizeMessage:
            return self._zone_stream(new, msg.id, secondaries)
        return [_datagram(self.address, addr, payload) for addr in secondaries]

    def _answer_axfr(self, msg: DnsMessage, dgram: SimDatagram) -> list[SimDatagram]:
        """A zone transfer, for the zone's registered secondaries only."""
        apex = msg.question[0].name
        zone = self.zones.get(apex)
        if zone is None or dgram.source not in self.secondaries.get(apex, ()):
            return [self._reply(dgram, self._response(msg, Rcode.REFUSED))]
        return self._zone_stream(zone, msg.id, [dgram.source])

    def _zone_stream(self, zone: ZoneConfig, msg_id: int,
                     destinations: Iterable[str]) -> list[SimDatagram]:
        """The whole zone, SOA first and last, in as many messages as it needs (RFC 5936 §2.2).

        The records in between go in index order, so a secondary that
        stores them as they come, and the SOA last, stores what this server
        stores once an UPDATE has moved its SOA behind the apex's records.
        """
        soa = zone.soa
        body = [rr for rrs in zone.by_name.values() for rr in rrs if rr is not soa]
        head = _message(msg_id, Opcode.QUERY, Rcode.NOERROR, True, True,
                        (_question(zone.apex, RType.AXFR, RClass.IN),), (), (), (), 0)
        payloads = encode_stream(head, [soa, *body, soa])
        return [_datagram(self.address, addr, payload)
                for addr in destinations for payload in payloads]

    # -- responses arriving at this server (transfers, relayed rcodes) --

    def _handle_response(self, msg: DnsMessage, dgram: SimDatagram, now: float) -> list[SimDatagram]:
        if len(msg.question) == 1 and msg.question[0].rtype in (RType.IXFR, RType.AXFR):
            zone = self.zones.get(msg.question[0].name)
            if zone is None or not isinstance(zone.role, Secondary) or \
                    dgram.source != zone.role.primary_address:
                return []
            if msg.question[0].rtype == RType.IXFR:
                return self._apply_diff(zone, msg)
            return self._apply_stream(zone, msg)
        entry = self._forwards.get(msg.id)
        if entry is None or entry[0] != dgram.source:
            return []
        del self._forwards[msg.id]
        _, requester, original_id, deadline = entry
        if now > deadline:
            return []
        return [_datagram(self.address, requester, original_id + dgram.payload[2:])]

    # -- zone transfers: secondary side --

    def _apply_diff(self, zone: ZoneConfig, msg: DnsMessage) -> list[SimDatagram]:
        """Apply a pushed IXFR diff whose base is this copy; otherwise ask for the whole zone.

        A malformed diff, or one that would not leave a valid zone, is
        dropped and the last good copy kept.
        """
        diff = _parse_diff(zone.apex, msg.answers)
        if diff is None:
            return []
        old_soa, new_soa, deleted, added = diff
        if old_soa.rdata.serial != zone.soa_serial:
            # a push went missing: resynchronise from the primary
            query = make_query(zone.apex, RType.AXFR, msg_id=zone.soa_serial)
            return [_datagram(self.address, zone.role.primary_address, encode_message(query))]
        try:
            # the new SOA last, where the primary's UPDATE put it
            self.zones[zone.apex] = zone.derive((old_soa, *deleted), (*added, new_soa))
        except ValueError:
            pass  # a diff that would not leave a valid zone: keep serving the last good copy
        return []

    def _apply_stream(self, zone: ZoneConfig, msg: DnsMessage) -> list[SimDatagram]:
        """Collect an AXFR stream, one partial stream per zone; install it once the SOA closes it.

        A message with another id than the partial stream's starts a new
        stream, which must open with the apex SOA. A stream that is not a
        valid zone is dropped and the last good copy kept.
        """
        apex = zone.apex
        stream_id, records = self._streams.pop(apex, (msg.id, []))
        if stream_id != msg.id:
            records = []
        records += msg.answers
        if not records or not _is_apex_soa(records[0], apex):
            return []
        if len(records) < 2 or records[-1] != records[0]:
            self._streams[apex] = (msg.id, records)
            return []
        try:
            # the SOA that closes the stream goes last at the apex, as on the primary
            self.zones[apex] = ZoneConfig.build(apex, zone.role, zone.policy, records[1:])
        except ValueError:
            pass  # a transfer that is not a valid zone: keep serving the last good copy
        return []

    # -- plumbing --

    def _reply(self, dgram: SimDatagram, msg: DnsMessage) -> SimDatagram:
        return _datagram(self.address, dgram.source, encode_message(msg))

    def _response(self, request: DnsMessage, rcode: Rcode, *,
                  answers: tuple = (), authority: tuple = (), additional: tuple = (),
                  authoritative: bool = False) -> DnsMessage:
        return _message(request.id, request.opcode, rcode, True, authoritative, request.question,
                        answers, authority, additional, 0)

    def _raw_formerr(self, dgram: SimDatagram) -> SimDatagram:
        msg_id = int.from_bytes(dgram.payload[:2], "big") if len(dgram.payload) >= 2 else 0
        reply = _message(msg_id, Opcode.QUERY, Rcode.FORMERR, True, False, (), (), (), (), 0)
        return _datagram(self.address, dgram.source, encode_message(reply))

    def _journal(self, now: float, dgram: SimDatagram, msg: Optional[DnsMessage],
                 outcome: Union[Rcode, str]) -> None:
        """Record one UPDATE attempt; ``outcome`` is the rcode sent back,
        ``FORWARDED`` when the primary answers, or ``DROPPED`` when nothing does."""
        if not self.honeypot or self.journal_sink is None:
            return
        if msg is None:
            zone_name, kinds, names = "", (), ()
        else:
            zone_name = msg.zone.name.to_text() if msg.zone else ""
            kinds = tuple(_change_kind(rr) for rr in msg.updates)
            names = tuple(rr.name.to_text() for rr in msg.updates)
        event = HoneypotEvent(
            ts=now,
            source=dgram.source,
            zone=zone_name,
            kinds=kinds,
            names=names,
            rcode=outcome if isinstance(outcome, str) else outcome.name,
            raw=dgram.payload,
        )
        self.journal_sink(event)


# --- zone seed files and fleets ---


def parse_zone_text(text: str, keys: Optional[Mapping[str, tsig_mod.TsigKey]] = None) -> ZoneConfig:
    """Parse one zone seed: '@policy ...', '@role ...', then 'name TTL class type rdata' lines."""
    policy: UpdatePolicy = Deny()
    role: Role = Primary()
    records = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("@policy"):
            arg = line[len("@policy"):].strip()
            if not arg:
                raise ValueError(f"line {lineno}: expected '@policy <policy>'")
            policy = parse_policy(arg, keys)
            continue
        if line.startswith("@role"):
            parts = line.split()[1:]
            kind = parts[0].lower() if parts else ""
            if kind == "primary":
                role = Primary()
            elif kind == "secondary" and len(parts) > 1:
                role = Secondary(parts[1])
            else:
                raise ValueError(f"line {lineno}: expected '@role primary' or "
                                 "'@role secondary <primary address>'")
            continue
        fields = line.split(None, 4)
        if len(fields) != 5:
            raise ValueError(f"line {lineno}: expected 'name TTL class type rdata'")
        name_text, ttl_text, rclass_text, rtype_text, rdata_text = fields
        if rclass_text.upper() != "IN":
            raise ValueError(f"line {lineno}: only class IN zone data is supported")
        try:
            rtype = rtype_from_text(rtype_text)
            records.append(ResourceRecord(
                DnsName.from_text(name_text), rtype, RClass.IN, int(ttl_text),
                rdata_from_text(rtype, rdata_text),
            ))
        except (ValueError, WireError) as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    soas = [rr for rr in records if rr.rtype == RType.SOA]
    if len(soas) != 1:
        raise ValueError("zone seed must contain exactly one SOA record")
    return ZoneConfig.build(soas[0].name, role, policy, records)


def parse_fleet_text(text: str, keys: Optional[Mapping[str, tsig_mod.TsigKey]] = None) -> list[tuple[str, ZoneConfig]]:
    """Parse a fleet file: '@server <address>' opens a block holding one zone seed."""
    blocks: list[tuple[str, list[str]]] = []
    current: Optional[list[str]] = None
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if stripped.startswith("@server"):
            parts = stripped.split()
            if len(parts) < 2:
                raise ValueError(f"line {lineno}: expected '@server <address>'")
            current = []
            blocks.append((parts[1], current))
            continue
        if current is None:
            if stripped:
                raise ValueError(f"line {lineno}: fleet file must start with a @server line")
            continue
        current.append(line)
    fleet = []
    for addr, lines in blocks:
        try:
            fleet.append((addr, parse_zone_text("\n".join(lines), keys)))
        except ValueError as exc:
            raise ValueError(f"@server {addr}: {exc}") from None
    return fleet


def build_fleet(bus: DatagramBus, zones_by_address: Iterable[tuple[str, ZoneConfig]], *,
                honeypot: bool = False,
                journal_sink: Optional[Callable[[HoneypotEvent], None]] = None) -> dict[str, NameServer]:
    """Attach one server per address and wire secondary registration to primaries."""
    servers: dict[str, NameServer] = {}
    for address, zone in zones_by_address:
        server = servers.get(address)
        if server is None:
            server = NameServer(address, honeypot=honeypot, journal_sink=journal_sink)
            servers[address] = server
            server.attach(bus)
        server.add_zone(zone)
    for address, server in servers.items():
        for zone in server.zones.values():
            if isinstance(zone.role, Secondary):
                primary = servers.get(zone.role.primary_address)
                if primary is not None and zone.apex in primary.zones:
                    primary.register_secondary(zone.apex, address)
    return servers


def make_soa(apex: DnsName, serial: int = 1, ttl: int = 3600) -> ResourceRecord:
    """Convenience SOA for fixtures: ns1.<apex> / hostmaster.<apex>."""
    return ResourceRecord(
        apex, RType.SOA, RClass.IN, ttl,
        SoaData(apex.prepend("ns1"), apex.prepend("hostmaster"), serial, 7200, 900, 1209600, 86400),
    )
