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
from collections.abc import Mapping
from dataclasses import dataclass, field
from ipaddress import IPv4Address
from itertools import islice
from json.encoder import encode_basestring_ascii as _json_str
from math import isfinite
from typing import Callable, Collection, Iterable, Optional, Sequence, Union

from . import tsig as tsig_mod
from .transport import DatagramBus, SimDatagram, _datagram
from .wire import (
    MAX_MESSAGE_SIZE,
    MAX_TTL,
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
    _bounded,
    _builder,
    _encode_record,
    _message,
    _pack_header,
    _pack_question,
    _put_records,
    _question,
    _record,
    _slot_init,
    _soa,
    content_lines,
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

# the write path compares types and classes dozens of times per UPDATE, the
# query and refusal paths a few per request, and each ``RType.X`` is a class
# attribute lookup several times dearer than a global
_SOA, _NS, _CNAME, _ANY, _AXFR = RType.SOA, RType.NS, RType.CNAME, RType.ANY, RType.AXFR
_A, _AAAA = RType.A, RType.AAAA
_IXFR, _TSIG = RType.IXFR, RType.TSIG
_IN, _CLASS_ANY, _CLASS_NONE = RClass.IN, RClass.ANY, RClass.NONE
_NOERROR, _FORMERR, _NXDOMAIN = Rcode.NOERROR, Rcode.FORMERR, Rcode.NXDOMAIN
_REFUSED, _YXDOMAIN, _YXRRSET, _NXRRSET = Rcode.REFUSED, Rcode.YXDOMAIN, Rcode.YXRRSET, Rcode.NXRRSET
_NOTAUTH, _NOTZONE = Rcode.NOTAUTH, Rcode.NOTZONE
_QUERY, _UPDATE = Opcode.QUERY, Opcode.UPDATE
_RCODE_NAME = {rcode: rcode.name for rcode in Rcode}  # the journal's names, without ``.name``


@_slot_init
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
    the zone: the constructor reads the depth of an owner at the apex or
    one label below it off the owner's first length byte, and walks the
    labels of deeper owners only. When no owner lies two or more labels
    below the apex, the index is ``_NO_ANCESTORS``, one empty dict that
    all such zones share. Every owner lies at or below the
    apex: the constructor and ``_patch`` raise ValueError for any other.

    ``build`` hashes each record's owner name once and hashes rdata only at
    names given more than one record, where it drops a repeated (type,
    rdata); a zone whose names each hold one record costs one dict
    operation per record.

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
        tail = apex._key
        below: dict[DnsName, int] = {}
        for name in self.by_name:
            key = name._key
            extra = len(key) - len(tail)
            if (extra == 0 or extra == key[0] + 1) and key.endswith(tail):
                continue  # the apex, or one label below it: no ancestor to index
            d = name.labels_below(apex)
            if d < 0:
                raise ValueError(_OUTSIDE.format(name.to_text(), apex.to_text()))
            _count_ancestors(below, name, 1, d)
        # a name breaks a rule only through an SOA or a CNAME, so only those
        # names, and the apex that must hold the SOA, are checked
        marked = {rr.name for rrs in self.by_name.values() for rr in rrs
                  if rr.rtype == _SOA or rr.rtype == _CNAME}
        for name in marked | {apex}:
            _check_name(apex, name, self.by_name.get(name, ()))
        object.__setattr__(self, "_below", below or _NO_ANCESTORS)

    @classmethod
    def build(cls, apex: DnsName, role: Role, policy: UpdatePolicy,
              records: Iterable[ResourceRecord]) -> "ZoneConfig":
        """Zone holding ``records`` de-duplicated, each name's records in the order first given.

        Raises ValueError as the constructor does, and when two records
        share name, type and rdata but not TTL or class.
        """
        by_name: dict[DnsName, tuple[ResourceRecord, ...]] = {}
        # owner name -> its records by (type, rdata), for names given more than one
        crowded: dict[DnsName, dict[tuple, ResourceRecord]] = {}
        for rr in records:
            alone = (rr,)
            first = by_name.setdefault(rr.name, alone)
            if first is alone:
                continue
            kept = crowded.setdefault(rr.name, {})
            if not kept:  # the name's second record: index its first
                (head,) = first
                kept[(head.rtype, head.rdata)] = head
            old = kept.setdefault((rr.rtype, rr.rdata), rr)
            if old is not rr and not _same(old, rr):
                raise ValueError(_CLASH.format(rr.name.to_text()))
        for name, kept in crowded.items():
            by_name[name] = tuple(kept.values())
        return cls(apex, role, policy, by_name)

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
        by_name = self.by_name
        touched: dict[DnsName, list[ResourceRecord]] = {}  # owner name -> its records as they become
        for rr in removed:
            name = rr.name
            now = touched.get(name)
            if now is None:
                now = touched[name] = list(by_name.get(name, ()))
            i = _find_same(now, rr)
            if i >= 0:
                del now[i]
            elif _find_same(by_name.get(name, ()), rr) < 0:  # not removed twice: never there
                raise ValueError("a removed record is not in the zone")
        for rr in added:
            name = rr.name
            now = touched.get(name)
            if now is None:
                now = touched[name] = list(by_name.get(name, ()))
            i = _find(now, rr.rtype, rr.rdata)
            if i < 0:
                now.append(rr)
            elif not _same(now[i], rr):
                raise ValueError(_CLASH.format(name.to_text()))
        patches = []
        for name, now in touched.items():
            patches.append((name, tuple(now)))
        return self._patch(patches)

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
        # each patched name is checked above, so skip the whole-zone check
        return _zone_config(apex, self.role, self.policy, by_name, below)

    @property
    def records(self) -> frozenset[ResourceRecord]:
        """Every record in the zone, built from the index on each read."""
        return frozenset(rr for rrs in self.by_name.values() for rr in rrs)

    @property
    def soa(self) -> ResourceRecord:
        for rr in self.by_name[self.apex]:
            if rr.rtype == _SOA:
                return rr

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

        ``name`` must lie in the zone. Walks up from ``name`` to just below
        the apex and returns the last owner with an NS rrset it meets, or None.
        """
        by_name = self.by_name
        cut = None
        owner = name
        for depth in range(name.labels_below(self.apex), 0, -1):
            for rr in by_name.get(owner, ()):
                if rr.rtype == _NS:
                    cut = owner
                    break
            if depth > 1:
                owner = owner.parent()
        return cut

    def normalized_records(self) -> frozenset[ResourceRecord]:
        """Record set with the SOA serial zeroed, for before/after comparisons.

        Every mutating update bumps the serial by contract, so residue and
        fixture-equality checks compare record sets modulo that field.
        """
        soa = self.soa
        return self.records - {soa} | {_with_serial(soa, 0)}


_zone_config = _builder(ZoneConfig)


# the ancestor index shared by every zone with no owner two labels below its apex
_NO_ANCESTORS: dict[DnsName, int] = {}

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


def _find_same(rrs: Sequence[ResourceRecord], rr: ResourceRecord) -> int:
    """Index of the record in ``rrs`` equal to ``rr``, or -1."""
    i = _find(rrs, rr.rtype, rr.rdata)
    return i if i >= 0 and _same(rrs[i], rr) else -1


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
    """``soa`` with another serial, for the next zone version, made by the
    builders, as the decoder makes records: the same slotted values as the
    two constructors make, on every zone-changing UPDATE."""
    old = soa.rdata
    return _record(soa.name, soa.rtype, soa.rclass, soa.ttl,
                   _soa(old.mname, old.rname, serial, old.refresh, old.retry, old.expire,
                        old.minimum))


# --- ACL evaluation ---


def acl_check(policy: UpdatePolicy, datagram_source: str, msg: DnsMessage,
              now: float) -> Union[DnsMessage, Rcode]:
    """The message an UPDATE from a claimed source applies, or the rcode that refuses it.

    The message is ``msg`` itself, or under SignedKey its core without the TSIG record.
    The IpAcl arm trusts the datagram's source field as-is: that naivety is
    the spoofing vulnerability this toolkit demonstrates, so it must stay.
    """
    if isinstance(policy, Deny):
        return _REFUSED
    if isinstance(policy, Open):
        return msg
    if isinstance(policy, IpAcl):
        return msg if datagram_source in policy.allowed else _REFUSED
    if isinstance(policy, SignedKey):
        result = tsig_mod.verify_message(msg, policy.keyring, now)
        if isinstance(result, tsig_mod.Accept):
            return result.message
        return _REFUSED if result.reason is tsig_mod.RejectReason.NO_SIGNATURE else _NOTAUTH
    raise TypeError(f"not an UpdatePolicy: {policy!r}")


# --- prerequisite evaluation (RFC 2136 §3.2, the four canonical forms) ---


def evaluate_prerequisites(zone: ZoneConfig, prereqs: Iterable[ResourceRecord]) -> Rcode:
    """Return NOERROR or the rcode of the first violated prerequisite."""
    apex, by_name = zone.apex, zone.by_name
    for rr in prereqs:
        if rr.ttl != 0:
            return _FORMERR
        if not rr.name.is_subdomain_of(apex):
            return _NOTZONE
        rclass, rtype = rr.rclass, rr.rtype
        if rclass != _CLASS_ANY and rclass != _CLASS_NONE:
            # value-dependent prerequisites are outside the supported subset
            return _FORMERR
        if rr.rdata != b"":
            return _FORMERR
        at_name = by_name.get(rr.name, ())
        if rtype == _ANY:
            exists = bool(at_name)
        else:
            exists = False
            for old in at_name:
                if old.rtype == rtype:
                    exists = True
                    break
        if rclass == _CLASS_ANY:
            if not exists:
                return _NXDOMAIN if rtype == _ANY else _NXRRSET
        elif exists:
            return _YXDOMAIN if rtype == _ANY else _YXRRSET
    return _NOERROR


# --- update application (RFC 2136 §3.4) ---


# meta types that no update record may carry as data (RFC 2136 §3.4.1.3)
_MAILB, _MAILA = 253, 254
_NOT_ADDABLE = (_ANY, _AXFR, _MAILB, _MAILA, _TSIG)
_NOT_DELETABLE_AS_RRSET = (_AXFR, _MAILB, _MAILA)
_NOT_DELETABLE_EXACTLY = (_ANY, _AXFR, _MAILB, _MAILA)


def _prescan_updates(zone: ZoneConfig, updates: Iterable[ResourceRecord]) -> Rcode:
    apex = zone.apex
    for rr in updates:
        if not rr.name.is_subdomain_of(apex):
            return _NOTZONE
        rclass = rr.rclass
        if rclass == _IN:
            rdata = rr.rdata
            # an address never equals b"", and asking it costs a caught AttributeError
            if rr.rtype in _NOT_ADDABLE or (rdata.__class__ is not IPv4Address and rdata == b""):
                return _FORMERR
        elif rclass == _CLASS_ANY:
            if rr.ttl != 0 or rr.rdata != b"" or rr.rtype in _NOT_DELETABLE_AS_RRSET:
                return _FORMERR
        elif rclass == _CLASS_NONE:
            if rr.ttl != 0 or rr.rtype in _NOT_DELETABLE_EXACTLY:
                return _FORMERR
        else:
            return _FORMERR
    return _NOERROR


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
    question = msg.question
    if not question or question[0].rtype != _SOA:
        return zone, _FORMERR
    apex = zone.apex
    if question[0].name != apex:
        return zone, _NOTZONE
    updates = msg.authority
    rc = _prescan_updates(zone, updates)
    if rc != _NOERROR:
        return zone, rc
    by_name = zone.by_name
    # owner name -> (records before, working list of records after)
    touched: dict[DnsName, tuple[tuple[ResourceRecord, ...], list[ResourceRecord]]] = {}
    for rr in updates:
        name = rr.name
        entry = touched.get(name)
        if entry is None:
            before = by_name.get(name, ())
            entry = touched[name] = (before, list(before))
        now = entry[1]
        rtype, rclass = rr.rtype, rr.rclass
        if rclass == _IN:
            if rtype == _SOA:
                continue
            if rtype == _CNAME:
                for old in now:
                    if old.rtype != _CNAME:
                        break
                else:
                    now[:] = [rr]  # at most one CNAME was there: this one replaces it
                continue
            for old in now:
                if old.rtype == _CNAME:
                    break
            else:
                i = _find(now, rtype, rr.rdata)
                if i < 0:
                    now.append(rr)
                else:
                    now[i] = rr
        elif rclass == _CLASS_ANY:
            at_apex = name == apex
            kept = []
            for old in now:
                if at_apex and (old.rtype == _SOA or old.rtype == _NS) or \
                        rtype != _ANY and rtype != old.rtype:
                    kept.append(old)
            now[:] = kept
        elif rtype != _SOA:  # class NONE
            i = _find(now, rtype, rr.rdata)
            if i < 0:
                continue
            if rtype == _NS and name == apex:
                ns_count = 0
                for old in now:
                    if old.rtype == _NS:
                        ns_count += 1
                if ns_count == 1:
                    continue
            del now[i]
    before_apex = by_name.get(apex, ())
    apex_entry = touched.pop(apex, None)
    at_apex = before_apex if apex_entry is None else _survivors_then_added(*apex_entry)
    patches = []
    for name, (before, now) in touched.items():
        rrs = _survivors_then_added(before, now)
        if rrs is not before:
            patches.append((name, rrs))
    if not patches and at_apex is before_apex:
        return zone, _NOERROR
    rest = []
    soa = None
    for rr in at_apex:
        if soa is None and rr.rtype == _SOA:  # an UPDATE never removes it
            soa = rr
        else:
            rest.append(rr)
    rest.append(_with_serial(soa, (soa.rdata.serial + 1) & 0xFFFFFFFF))
    patches.append((apex, tuple(rest)))
    return zone._patch(patches), _NOERROR


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
    kept = set()
    added = []
    for rr in now:
        if id(rr) not in old_ids:
            i = _find_same(before, rr)
            if i < 0:
                added.append(rr)
                continue
            rr = before[i]
        kept.add(id(rr))
    survivors = []
    for rr in before:
        if id(rr) in kept:
            survivors.append(rr)
    if len(survivors) == len(now) == len(before):
        return before
    return (*survivors, *added)


# --- zone transfers (RFC 1995 IXFR diffs, RFC 5936 AXFR streams) ---


def _is_apex_soa(rr: ResourceRecord, apex: DnsName) -> bool:
    return rr.rtype == _SOA and rr.name == apex and isinstance(rr.rdata, SoaData)


def _parse_diff(apex: DnsName, answers: tuple[ResourceRecord, ...]):
    """(old SOA, new SOA, deleted, added) from one RFC 1995 difference
    sequence, or None when the answers are not one."""
    last = len(answers) - 1
    if last < 3 or not (_is_apex_soa(answers[0], apex) and _is_apex_soa(answers[1], apex)):
        return None
    new_soa = answers[0]
    mark = 0  # the one SOA between the old SOA and the last record
    for i in range(2, last):
        if answers[i].rtype == _SOA:
            if mark:
                return None
            mark = i
    if not mark or answers[last] != new_soa or answers[mark] != new_soa:
        return None
    return answers[1], new_soa, answers[2:mark], answers[mark + 1:last]


# --- honeypot journal ---


@_slot_init
@dataclass(frozen=True, slots=True)
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


_honeypot_event = _builder(HoneypotEvent)


def _change_kind(rr: ResourceRecord) -> str:
    rclass = rr.rclass
    if rclass == _IN:
        return "add"
    if rclass == _CLASS_ANY:
        return "delete_name" if rr.rtype == _ANY else "delete_rrset"
    if rclass == _CLASS_NONE:
        return "delete_exact"
    return "unknown"


_float_repr = float.__repr__


def _journal_line(event: HoneypotEvent) -> bytes:
    """``json.dumps(event.to_json_obj()) + "\\n"``, rendered field by field:
    the same escapes and number forms, with no dict or encoder built."""
    ts = event.ts
    if ts.__class__ is float and isfinite(ts):
        ts = _float_repr(ts)
    else:  # NaN, an infinity, or not a float: json's own spelling
        ts = json.dumps(ts)
    return (f'{{"ts": {ts}, "src": {_json_str(event.source)}, "zone": {_json_str(event.zone)}, '
            f'"kinds": [{", ".join(map(_json_str, event.kinds))}], '
            f'"names": [{", ".join(map(_json_str, event.names))}], '
            f'"rcode": {_json_str(event.rcode)}, "raw_hex": "{event.raw.hex()}"}}\n'
            ).encode("ascii")


class _JournalSink:
    """Append-only JSONL sink on one binary handle: one write and one flush per
    event, so every event is in the file when the call returns."""

    def __init__(self, path: str):
        self._fh = open(path, "ab")

    def __call__(self, event: HoneypotEvent) -> None:
        self._fh.write(_journal_line(event))
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

# an IXFR push's header flags (QR and AA: an authoritative response to a
# QUERY, NOERROR) and the type and class that follow its question's name
_PUSH_FLAGS = 0x8400
_PUSH_QUESTION = _pack_question(_IXFR, _IN)


class NameServer:
    """One authoritative server: zones, a bus address, and per-zone secondaries.

    Datagrams addressed to one server are processed serially in arrival
    order; distinct servers share nothing but the bus.
    """

    __slots__ = ("address", "zones", "secondaries", "journal_sink", "_forwards",
                 "_last_forward_id", "_streams", "faults")

    def __init__(self, address: str, zones: Iterable[ZoneConfig] = (), *,
                 honeypot: bool = False,
                 journal_sink: Optional[Callable[[HoneypotEvent], None]] = None):
        self.address = address
        self.zones: dict[DnsName, ZoneConfig] = {}
        self.secondaries: dict[DnsName, list[str]] = {}
        self.journal_sink = journal_sink if honeypot else None
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
            if msg.opcode == _UPDATE:
                return self._handle_update(msg, dgram, now)
            if len(msg.question) == 1 and msg.question[0].rtype == _AXFR:
                return self._answer_axfr(msg, dgram)
            return [self._reply(dgram, self._answer_query(msg))]
        except Exception:
            # a fault in this server must not take down the bus and every scan on it
            self.faults += 1
            log.exception("%s: fault handling a datagram from %s", self.address, dgram.source)
            return [] if msg.is_response else [self._reply(dgram, self._response(msg, Rcode.SERVFAIL))]

    # -- queries --

    def _answer_query(self, msg: DnsMessage) -> DnsMessage:
        """The answer to a QUERY. The two the scanner sends, a lookup of a name
        that holds only the asked type and one of a name that does not exist,
        are answered with no tuple or list built beyond the response's own
        authority section: the stored records are the answer section."""
        question = msg.question
        if len(question) != 1:
            return self._response(msg, _FORMERR)
        q = question[0]
        name, rtype = q.name, q.rtype
        zone = self._zone_for(name)
        if zone is None:
            return self._response(msg, _REFUSED)
        cut = zone.delegation(name)
        if cut is not None:
            ns_rrset = zone.rrset(cut, _NS)
            by_name = zone.by_name
            glue = []
            for ns in ns_rrset:  # one owner lookup per target: its A records, then its AAAA
                at_target = by_name.get(ns.rdata)
                if at_target:
                    glue += [rr for rr in at_target if rr.rtype == _A]
                    glue += [rr for rr in at_target if rr.rtype == _AAAA]
            return _message(msg.id, msg.opcode, _NOERROR, True, False, question, (), ns_rrset,
                            tuple(glue), 0)
        at_name = zone.by_name.get(name)
        if at_name is None:
            rcode = _NOERROR if zone.has_node(name) else _NXDOMAIN
            return _message(msg.id, msg.opcode, rcode, True, True, question, (), (zone.soa,), (), 0)
        answers = at_name
        if rtype != _ANY:
            for rr in at_name:
                if rr.rtype != rtype:  # the name holds other types too: keep the asked one
                    answers = tuple(rr for rr in at_name if rr.rtype == rtype)
                    if not answers and rtype != _CNAME:
                        answers = tuple(rr for rr in at_name if rr.rtype == _CNAME)
                    break
        if not answers:
            return _message(msg.id, msg.opcode, _NOERROR, True, True, question, (), (zone.soa,),
                            (), 0)
        return _message(msg.id, msg.opcode, _NOERROR, True, True, question, answers, (), (), 0)

    def _zone_for(self, name: DnsName) -> Optional[ZoneConfig]:
        """The zone with the longest apex at or above ``name``: suffixes, longest first."""
        zones = self.zones
        zone = zones.get(name)
        if zone is not None:
            return zone
        wire = name._wire
        pos = 0
        while wire[pos]:
            pos += wire[pos] + 1
            zone = zones.get(name._suffix_at(pos))
            if zone is not None:
                return zone
        return None

    # -- updates --

    def _handle_update(self, msg: DnsMessage, dgram: SimDatagram, now: float) -> list[SimDatagram]:
        """Work out the rcode and the datagrams the update adds, then journal
        it once and answer it once, ahead of any IXFR push; a secondary
        journals a forwarded update and sends only the forward."""
        question = msg.question
        pushes = ()
        if len(question) != 1 or question[0].rtype != _SOA:
            rc = _FORMERR
        elif len(additional := msg.additional) > 1 and \
                any(rr.rtype == _TSIG for rr in additional[:-1]):  # a TSIG not last: RFC 8945 §5.2
            rc = _FORMERR
        elif (zone := self.zones.get(question[0].name)) is None:
            rc = _NOTAUTH
        elif (core := acl_check(zone.policy, dgram.source, msg, now)).__class__ is not DnsMessage:
            rc = core
        elif isinstance(zone.role, Secondary):
            # no local write: hand the request to the primary and relay
            # whatever rcode it returns
            forwarded = self._forward(dgram, zone.role.primary_address, now)
            self._journal(now, dgram, msg, "FORWARDED")
            return [forwarded]
        else:
            rc = evaluate_prerequisites(zone, core.prerequisites)
            new_zone = zone
            if rc == _NOERROR:
                new_zone, rc = apply_update(zone, core)
            if new_zone is not zone:
                self.zones[zone.apex] = new_zone
                pushes = self._push_diff(zone, new_zone, core.updates)
        self._journal(now, dgram, msg, rc)
        return [self._reply(dgram, self._response(msg, rc)), *pushes]

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
        deleted, added = [old.soa], []  # each half of the diff, after its opening new SOA
        old_by_name, new_by_name = old.by_name, new.by_name
        seen = set()
        for update in updates:
            name = update.name
            if name in seen:
                continue
            seen.add(name)
            before, after = old_by_name.get(name, ()), new_by_name.get(name, ())
            if before is after:
                continue
            old_ids, new_ids = set(map(id, before)), set(map(id, after))
            for rr in before:
                if id(rr) not in new_ids and rr.rtype != _SOA:
                    deleted.append(rr)
            for rr in after:
                if id(rr) not in old_ids and rr.rtype != _SOA:
                    added.append(rr)
        # what encode_message gives for that message, with every record
        # rendered once: the new SOA's bytes stand in all three of its places
        new_soa = new.soa
        msg_id = new_soa.rdata.serial & 0xFFFF
        soa_wire = _encode_record(new_soa)
        payload = bytearray(_pack_header(msg_id, _PUSH_FLAGS, 1,
                                         len(deleted) + len(added) + 3, 0, 0))
        payload += new.apex._wire
        payload += _PUSH_QUESTION
        payload += soa_wire
        try:
            _put_records(payload, deleted)
            payload += soa_wire
            _put_records(payload, added)
        except OversizeMessage:  # an rdata too long for its 16-bit length field
            return self._zone_stream(new, msg_id, secondaries)
        payload += soa_wire
        if len(payload) > MAX_MESSAGE_SIZE:
            return self._zone_stream(new, msg_id, secondaries)
        payload = bytes(payload)
        return [_datagram(self.address, addr, payload) for addr in secondaries]

    def _answer_axfr(self, msg: DnsMessage, dgram: SimDatagram) -> list[SimDatagram]:
        """A zone transfer, for the zone's registered secondaries only."""
        apex = msg.question[0].name
        zone = self.zones.get(apex)
        if zone is None or dgram.source not in self.secondaries.get(apex, ()):
            return [self._reply(dgram, self._response(msg, _REFUSED))]
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
        head = _message(msg_id, _QUERY, _NOERROR, True, True,
                        (_question(zone.apex, _AXFR, _IN),), (), (), (), 0)
        payloads = encode_stream(head, [soa, *body, soa])
        return [_datagram(self.address, addr, payload)
                for addr in destinations for payload in payloads]

    # -- responses arriving at this server (transfers, relayed rcodes) --

    def _handle_response(self, msg: DnsMessage, dgram: SimDatagram, now: float) -> list[SimDatagram]:
        question = msg.question
        if len(question) == 1 and (question[0].rtype == _IXFR or question[0].rtype == _AXFR):
            zone = self.zones.get(question[0].name)
            if zone is None or not isinstance(zone.role, Secondary) or \
                    dgram.source != zone.role.primary_address:
                return []
            if question[0].rtype == _IXFR:
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
            query = make_query(zone.apex, _AXFR, msg_id=zone.soa_serial)
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

    def _response(self, request: DnsMessage, rcode: Rcode) -> DnsMessage:
        """The reply to ``request`` that carries only its question and ``rcode``."""
        return _message(request.id, request.opcode, rcode, True, False, request.question,
                        (), (), (), 0)

    def _raw_formerr(self, dgram: SimDatagram) -> SimDatagram:
        msg_id = int.from_bytes(dgram.payload[:2], "big") if len(dgram.payload) >= 2 else 0
        reply = _message(msg_id, Opcode.QUERY, Rcode.FORMERR, True, False, (), (), (), (), 0)
        return _datagram(self.address, dgram.source, encode_message(reply))

    def _journal(self, now: float, dgram: SimDatagram, msg: Optional[DnsMessage],
                 outcome: Union[Rcode, str]) -> None:
        """Record one UPDATE attempt; ``outcome`` is the rcode sent back,
        ``FORWARDED`` when the primary answers, or ``DROPPED`` when nothing does."""
        if self.journal_sink is None:
            return
        if msg is None:
            zone_name, kinds, names = "", (), ()
        else:
            question = msg.question
            zone_name = question[0].name.to_text() if question else ""
            kinds, names = [], []
            for rr in msg.authority:
                kinds.append(_change_kind(rr))
                names.append(rr.name.to_text())
            kinds, names = tuple(kinds), tuple(names)
        rcode = outcome if isinstance(outcome, str) else _RCODE_NAME[outcome]
        self.journal_sink(_honeypot_event(now, dgram.source, zone_name, kinds, names, rcode,
                                          dgram.payload))


# --- zone seed files and fleets ---


def parse_zone_text(text: str, keys: Optional[Mapping[str, tsig_mod.TsigKey]] = None) -> ZoneConfig:
    """Parse one zone seed: '@policy ...', '@role ...', then 'name TTL class type rdata' lines."""
    return _seed_zone(content_lines(text.splitlines()), keys)


def _seed_zone(lines: Iterable[tuple[int, str]], keys: Optional[Mapping[str, tsig_mod.TsigKey]],
               opened_at: Optional[int] = None) -> ZoneConfig:
    """The zone of one seed's numbered lines. An error names its line; one about
    the seed as a whole names ``opened_at``, the fleet line that opens it, if any."""
    policy: UpdatePolicy = Deny()
    role: Role = Primary()
    records = []
    for lineno, line in lines:
        try:
            if line.startswith("@policy"):
                arg = line[len("@policy"):].strip()
                if not arg:
                    raise ValueError("expected '@policy <policy>'")
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
                    raise ValueError("expected '@role primary' or "
                                     "'@role secondary <primary address>'")
                continue
            fields = line.split(None, 4)
            if len(fields) != 5:
                raise ValueError("expected 'name TTL class type rdata'")
            name_text, ttl_text, rclass_text, rtype_text, rdata_text = fields
            if rclass_text.upper() != "IN":
                raise ValueError("only class IN zone data is supported")
            rtype = rtype_from_text(rtype_text)
            records.append(ResourceRecord(
                DnsName.from_text(name_text), rtype, RClass.IN,
                _bounded(int(ttl_text), MAX_TTL, "TTL"),
                rdata_from_text(rtype, rdata_text),
            ))
        except (ValueError, WireError) as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    try:
        soas = [rr for rr in records if rr.rtype == RType.SOA]
        if len(soas) != 1:
            raise ValueError("zone seed must contain exactly one SOA record")
        return ZoneConfig.build(soas[0].name, role, policy, records)
    except ValueError as exc:
        if opened_at is None:
            raise
        raise ValueError(f"line {opened_at}: {exc}") from None


def parse_fleet_text(text: str, keys: Optional[Mapping[str, tsig_mod.TsigKey]] = None) -> list[tuple[str, ZoneConfig]]:
    """Parse a fleet file: '@server <address>' opens a block holding one zone seed.

    An error names the address of its block and its line in the file.
    """
    blocks: list[tuple[int, str, list[tuple[int, str]]]] = []
    for lineno, line in content_lines(text.splitlines()):
        if line.startswith("@server"):
            parts = line.split()
            if len(parts) < 2:
                raise ValueError(f"line {lineno}: expected '@server <address>'")
            blocks.append((lineno, parts[1], []))
        elif blocks:
            blocks[-1][2].append((lineno, line))
        else:
            raise ValueError(f"line {lineno}: fleet file must start with a @server line")
    fleet = []
    for lineno, addr, lines in blocks:
        try:
            fleet.append((addr, _seed_zone(lines, keys, lineno)))
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


def make_soa(apex: DnsName, serial: int = 1) -> ResourceRecord:
    """Convenience SOA for fixtures: ns1.<apex> / hostmaster.<apex>, TTL 3600."""
    return _record(apex, _SOA, _IN, 3600, _soa(apex.prepend("ns1"), apex.prepend("hostmaster"),
                                              serial, 7200, 900, 1209600, 86400))
