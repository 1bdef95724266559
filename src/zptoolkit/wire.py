"""DNS message wire codec for the QUERY/UPDATE subset this toolkit speaks.

Covers RFC 1035 framing plus the RFC 2136 section repurposing
(Zone/Prerequisite/Update/Additional), and splits a zone transfer over as
many messages as it needs (RFC 5936). Names are emitted uncompressed;
compression pointers are accepted on decode. Record types outside the
supported set decode to opaque rdata and re-encode byte-identically.

A ``DnsName`` is its uncompressed wire form: the case-preserving bytes
that go on the wire, and those bytes lower-cased, which equality and
hashing compare. Its public constructor, ``from_text`` and ``prepend``
check every label and the 255-byte bound, and the decoder bounds what it
reads the same way, so every name is valid and the encoder appends its bytes
unchecked. The decoder slices an uncompressed name out of the message in
one piece and joins the runs of a compressed one, and it coerces its input
to ``bytes`` once, so that no name holds a mutable buffer.

Records, their rdata, questions and messages are slotted frozen
dataclasses: an instance holds its fields in slots and has no dict,
however it was built. There is one construction path besides the
constructors: the decoder and the message builders, here and in the
server and TSIG modules, fill records, SOA rdata, questions and messages
positionally through the slots' descriptors (``_record``, ``_soa``,
``_question``, ``_message``), in about half the time of the generated
``__init__`` and its per-field ``object.__setattr__`` calls. That path
skips ``__post_init__``, so it serves only classes without one, and every
field must be given, in field order.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass
from enum import IntEnum
from ipaddress import IPv4Address, IPv6Address
from typing import Iterable, Iterator, Optional, Union

MAX_MESSAGE_SIZE = 65535
MAX_LABEL_LENGTH = 63
MAX_NAME_WIRE_LENGTH = 255

_HEADER = struct.Struct("!HHHHHH")
_QUESTION = struct.Struct("!HH")
_RECORD = struct.Struct("!HHIH")

_new = object.__new__


class WireError(Exception):
    """Base class for every encoding/decoding failure."""


class InvalidLabel(WireError):
    """A label is empty, longer than 63 bytes, or the name exceeds 255 wire bytes."""


class OversizeMessage(WireError):
    """Encoding would exceed the 65,535-byte UDP message limit."""


class EmptyChangeList(WireError):
    """make_update was called with no changes."""


class DecodeError(WireError):
    """Base class for parse failures; decoding never raises anything else."""


class TruncatedMessage(DecodeError):
    """Input ended before the structure it promised."""


class MalformedPointer(DecodeError):
    """A compression pointer loops, references forward, or is reserved."""


class BadOpcode(DecodeError):
    """Header opcode is neither QUERY (0) nor UPDATE (5)."""


class Opcode(IntEnum):
    QUERY = 0
    UPDATE = 5


class Rcode(IntEnum):
    NOERROR = 0
    FORMERR = 1
    SERVFAIL = 2
    NXDOMAIN = 3
    NOTIMP = 4
    REFUSED = 5
    YXDOMAIN = 6
    YXRRSET = 7
    NXRRSET = 8
    NOTAUTH = 9
    NOTZONE = 10


class RType(IntEnum):
    A = 1
    NS = 2
    CNAME = 5
    SOA = 6
    MX = 15
    TXT = 16
    AAAA = 28
    TSIG = 250
    IXFR = 251
    AXFR = 252
    ANY = 255


class RClass(IntEnum):
    IN = 1
    NONE = 254
    ANY = 255


_OPCODES = {int(op): op for op in Opcode}
_RCODES = {int(rc): rc for rc in Rcode}


class DnsName:
    """A domain name, held as its uncompressed wire form (RFC 1035 §3.1).

    ``_wire`` is the case-preserving wire bytes: each label behind its
    length byte, then the root's zero byte. ``_key`` is ``_wire.lower()``,
    the very same object when the name holds no upper-case letter; ASCII
    lowering never touches a length byte (0x01-0x3F). Equality and hashing
    compare ``_key``, and ordering compares the lower-cased labels left to
    right. ``labels``, ``key`` and ``len()`` are read off the bytes on each
    call. Every way in checks that each label is 1-63 bytes and the name at
    most 255 wire bytes, so an invalid name cannot exist.
    """

    __slots__ = ("_wire", "_key")

    def __new__(cls, labels: Iterable[bytes] = ()) -> "DnsName":
        out = bytearray()
        for label in labels:
            label = bytes(label)
            if not label or len(label) > MAX_LABEL_LENGTH:
                raise InvalidLabel(f"label {label!r} must be 1-{MAX_LABEL_LENGTH} bytes")
            out.append(len(label))
            out += label
        out.append(0)
        return _named(bytes(out))

    @classmethod
    def from_text(cls, text: str) -> "DnsName":
        text = text.rstrip(".")
        return cls(text.encode("ascii").split(b".") if text else ())

    def to_text(self) -> str:
        wire = self._wire
        if len(wire) == 1:
            return "."
        text = bytearray(wire[1:-1])  # the labels, with a length byte between each two
        pos = wire[0]
        while pos < len(text):
            step = text[pos] + 1
            text[pos] = 0x2E  # "."
            pos += step
        return text.decode("ascii", errors="backslashreplace")

    @property
    def labels(self) -> tuple[bytes, ...]:
        """The labels as given, leftmost first."""
        return _split(self._wire)

    @property
    def key(self) -> tuple[bytes, ...]:
        """The lower-cased labels, leftmost first."""
        return _split(self._key)

    def to_wire(self) -> bytes:
        return self._wire

    def prepend(self, label: bytes | str) -> "DnsName":
        raw = label.encode("ascii") if isinstance(label, str) else bytes(label)
        if not raw or len(raw) > MAX_LABEL_LENGTH:
            raise InvalidLabel(f"label {label!r} must be 1-{MAX_LABEL_LENGTH} bytes")
        return _named(bytes((len(raw),)) + raw + self._wire)

    def parent(self) -> "DnsName":
        wire = self._wire
        if len(wire) == 1:
            return self
        return self._suffix_at(wire[0] + 1)

    def suffixes(self) -> Iterator["DnsName"]:
        """This name, then each name above it, longest first, ending with the root.

        Each suffix is a slice of this name's bytes at a label boundary.
        """
        yield self
        wire = self._wire
        pos = 0
        while wire[pos]:
            pos += wire[pos] + 1
            yield self._suffix_at(pos)

    def _suffix_at(self, pos: int) -> "DnsName":
        """The name whose wire form starts at label boundary ``pos`` of this one's."""
        name = _new(DnsName)
        name._wire = wire = self._wire[pos:]
        name._key = wire if self._key is self._wire else self._key[pos:]
        return name

    def is_subdomain_of(self, other: "DnsName") -> bool:
        """True when self equals other or sits below it."""
        return self.labels_below(other) >= 0

    def labels_below(self, other: "DnsName") -> int:
        """How many labels this name has below ``other``: 0 when the two are
        equal, and -1 when this name does not lie at or below ``other``."""
        key, tail = self._key, other._key
        start = len(key) - len(tail)
        if start < 0 or not key.endswith(tail):
            return -1
        pos = count = 0
        while pos < start:  # the tail must start at a label boundary
            pos += key[pos] + 1
            count += 1
        return count if pos == start else -1

    def __len__(self) -> int:
        wire = self._wire
        pos = count = 0
        while wire[pos]:
            pos += wire[pos] + 1
            count += 1
        return count

    def __eq__(self, other: object) -> bool:
        return isinstance(other, DnsName) and self._key == other._key

    def __lt__(self, other: "DnsName") -> bool:
        # label by label, as tuples of lower-cased labels compare
        a, b = self._key, other._key
        pos = 0
        while True:
            n, m = a[pos], b[pos]
            if not n or not m:
                return not n and m != 0
            left, right = a[pos + 1:pos + 1 + n], b[pos + 1:pos + 1 + m]
            if left != right:
                return left < right
            pos += n + 1

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        return f"DnsName({self.to_text()!r})"


def _named(wire: bytes) -> DnsName:
    """The name whose uncompressed wire form is ``wire``, with labels of 1-63
    bytes; raises InvalidLabel when it is longer than 255 bytes."""
    if len(wire) > MAX_NAME_WIRE_LENGTH:
        raise InvalidLabel(f"a name of {len(wire)} wire bytes exceeds {MAX_NAME_WIRE_LENGTH}")
    name = _new(DnsName)
    key = wire.lower()
    name._wire = wire
    name._key = wire if key == wire else key
    return name


def _split(wire: bytes) -> tuple[bytes, ...]:
    labels = []
    pos = 0
    while n := wire[pos]:
        labels.append(wire[pos + 1:pos + 1 + n])
        pos += n + 1
    return tuple(labels)


@dataclass(frozen=True, slots=True)
class SoaData:
    mname: DnsName
    rname: DnsName
    serial: int
    refresh: int
    retry: int
    expire: int
    minimum: int


@dataclass(frozen=True, slots=True)
class MxData:
    preference: int
    exchange: DnsName


@dataclass(frozen=True, slots=True)
class TxtData:
    strings: tuple[bytes, ...]

    @classmethod
    def from_text(cls, *parts: str) -> "TxtData":
        return cls(tuple(p.encode("ascii") for p in parts))

    def to_text(self) -> str:
        return " ".join(s.decode("ascii", errors="backslashreplace") for s in self.strings)


@dataclass(frozen=True, slots=True)
class TsigData:
    algorithm: DnsName
    time_signed: int
    fudge: int
    mac: bytes
    original_id: int
    error: int
    other: bytes


Rdata = Union[IPv4Address, IPv6Address, DnsName, SoaData, MxData, TxtData, TsigData, bytes]


@dataclass(frozen=True, slots=True)
class ResourceRecord:
    name: DnsName
    rtype: int
    rclass: int
    ttl: int
    rdata: Rdata


def _slot_setters(cls) -> tuple:
    """The ``__set__`` of each field's slot in the slotted dataclass ``cls``,
    in field order: calling them fills an instance made by ``object.__new__``
    without its ``__init__`` and past a frozen ``__setattr__``."""
    return tuple(cls.__dict__[name].__set__ for name in cls.__dataclass_fields__)


_set_name, _set_rtype, _set_rclass, _set_ttl, _set_rdata = _slot_setters(ResourceRecord)


def _record(name: DnsName, rtype: int, rclass: int, ttl: int, rdata: Rdata) -> ResourceRecord:
    """``ResourceRecord(name, rtype, rclass, ttl, rdata)``, filled slot by slot
    without a kwargs dict or the generated ``__init__``."""
    rr = _new(ResourceRecord)
    _set_name(rr, name)
    _set_rtype(rr, rtype)
    _set_rclass(rr, rclass)
    _set_ttl(rr, ttl)
    _set_rdata(rr, rdata)
    return rr


(_set_mname, _set_rname, _set_serial, _set_refresh, _set_retry, _set_expire,
 _set_minimum) = _slot_setters(SoaData)


def _soa(mname: DnsName, rname: DnsName, serial: int, refresh: int, retry: int, expire: int,
         minimum: int) -> SoaData:
    """``SoaData(...)`` of the same fields, filled slot by slot as ``_record`` fills a record."""
    soa = _new(SoaData)
    _set_mname(soa, mname)
    _set_rname(soa, rname)
    _set_serial(soa, serial)
    _set_refresh(soa, refresh)
    _set_retry(soa, retry)
    _set_expire(soa, expire)
    _set_minimum(soa, minimum)
    return soa


@dataclass(frozen=True, slots=True)
class Question:
    name: DnsName
    rtype: int
    rclass: int = RClass.IN


_set_qname, _set_qtype, _set_qclass = _slot_setters(Question)


def _question(name: DnsName, rtype: int, rclass: int) -> Question:
    """``Question(name, rtype, rclass)``, filled slot by slot as ``_record`` fills a record."""
    q = _new(Question)
    _set_qname(q, name)
    _set_qtype(q, rtype)
    _set_qclass(q, rclass)
    return q


@dataclass(frozen=True, slots=True)
class DnsMessage:
    """One DNS message; carries both QUERY and UPDATE payloads.

    Section names follow RFC 1035; for UPDATE messages the ``zone``,
    ``prerequisites``, and ``updates`` properties give the RFC 2136 view
    of the same four sections.
    """

    id: int
    opcode: int = Opcode.QUERY
    rcode: int = Rcode.NOERROR
    is_response: bool = False
    authoritative: bool = False
    question: tuple[Question, ...] = ()
    answers: tuple[ResourceRecord, ...] = ()
    authority: tuple[ResourceRecord, ...] = ()
    additional: tuple[ResourceRecord, ...] = ()
    # tc/rd/ra/z bits, preserved so decode -> encode is byte-faithful
    extra_flags: int = 0

    @property
    def zone(self) -> Optional[Question]:
        return self.question[0] if self.question else None

    @property
    def prerequisites(self) -> tuple[ResourceRecord, ...]:
        return self.answers

    @property
    def updates(self) -> tuple[ResourceRecord, ...]:
        return self.authority


(_set_id, _set_opcode, _set_rcode, _set_is_response, _set_authoritative, _set_question,
 _set_answers, _set_authority, _set_additional, _set_extra_flags) = _slot_setters(DnsMessage)


def _message(msg_id: int, opcode: int, rcode: int, is_response: bool, authoritative: bool,
             question: tuple[Question, ...], answers: tuple[ResourceRecord, ...],
             authority: tuple[ResourceRecord, ...], additional: tuple[ResourceRecord, ...],
             extra_flags: int) -> DnsMessage:
    """``DnsMessage(...)`` of the same fields, in field order, filled slot by slot
    as ``_record`` fills a record."""
    msg = _new(DnsMessage)
    _set_id(msg, msg_id)
    _set_opcode(msg, opcode)
    _set_rcode(msg, rcode)
    _set_is_response(msg, is_response)
    _set_authoritative(msg, authoritative)
    _set_question(msg, question)
    _set_answers(msg, answers)
    _set_authority(msg, authority)
    _set_additional(msg, additional)
    _set_extra_flags(msg, extra_flags)
    return msg


# --- update change descriptions (the make_update vocabulary) ---


@dataclass(frozen=True)
class AddRecord:
    record: ResourceRecord


@dataclass(frozen=True)
class DeleteRRset:
    name: DnsName
    rtype: int


@dataclass(frozen=True)
class DeleteExactRecord:
    record: ResourceRecord


@dataclass(frozen=True)
class DeleteAllAtName:
    name: DnsName


UpdateChange = Union[AddRecord, DeleteRRset, DeleteExactRecord, DeleteAllAtName]


def _draw_id(msg_id: Optional[int], rng: Optional[random.Random]) -> int:
    if msg_id is not None:
        return msg_id & 0xFFFF
    return (rng or random).randrange(0x10000)


def make_query(
    name: DnsName,
    rtype: int,
    *,
    msg_id: Optional[int] = None,
    rng: Optional[random.Random] = None,
) -> DnsMessage:
    return _message(_draw_id(msg_id, rng), Opcode.QUERY, Rcode.NOERROR, False, False,
                    (_question(name, rtype, RClass.IN),), (), (), (), 0)


def make_update(
    zone: DnsName,
    changes: Iterable[UpdateChange],
    *,
    msg_id: Optional[int] = None,
    rng: Optional[random.Random] = None,
) -> DnsMessage:
    """Build an UPDATE message from a list of add/delete changes.

    The zone section holds (zone, SOA, IN). Adds keep the caller's TTL and
    are forced to class IN, so an add of a class IN record carries the
    caller's record itself; RRset deletes go out as class ANY, TTL 0, empty
    rdata; exact deletes as class NONE, TTL 0.
    """
    if not len(zone):
        raise InvalidLabel("update zone must be non-root")
    update_rrs = []
    for change in changes:
        if isinstance(change, AddRecord):
            rr = change.record
            update_rrs.append(rr if rr.rclass == RClass.IN
                              else _record(rr.name, rr.rtype, RClass.IN, rr.ttl, rr.rdata))
        elif isinstance(change, DeleteRRset):
            update_rrs.append(_record(change.name, change.rtype, RClass.ANY, 0, b""))
        elif isinstance(change, DeleteExactRecord):
            rr = change.record
            update_rrs.append(_record(rr.name, rr.rtype, RClass.NONE, 0, rr.rdata))
        elif isinstance(change, DeleteAllAtName):
            update_rrs.append(_record(change.name, RType.ANY, RClass.ANY, 0, b""))
        else:
            raise TypeError(f"not an UpdateChange: {change!r}")
    if not update_rrs:
        raise EmptyChangeList("an UPDATE needs at least one change")
    return _message(_draw_id(msg_id, rng), Opcode.UPDATE, Rcode.NOERROR, False, False,
                    (_question(zone, RType.SOA, RClass.IN),), (), tuple(update_rrs), (), 0)


# --- encoding ---


def _encode_rdata(rtype: int, rdata: Rdata) -> bytes:
    if isinstance(rdata, bytes):
        return rdata
    if rtype in (RType.A, RType.AAAA):
        return rdata.packed
    if rtype in (RType.NS, RType.CNAME):
        return rdata._wire
    if rtype == RType.MX:
        return struct.pack("!H", rdata.preference) + rdata.exchange._wire
    if rtype == RType.TXT:
        out = bytearray()
        for s in rdata.strings:
            if len(s) > 255:
                raise WireError("TXT character-string longer than 255 bytes")
            out.append(len(s))
            out += s
        return bytes(out)
    if rtype == RType.SOA:
        return (
            rdata.mname._wire
            + rdata.rname._wire
            + struct.pack("!IIIII", rdata.serial, rdata.refresh, rdata.retry, rdata.expire, rdata.minimum)
        )
    if rtype == RType.TSIG:
        return (
            rdata.algorithm._wire
            + rdata.time_signed.to_bytes(6, "big")
            + struct.pack("!H", rdata.fudge)
            + struct.pack("!H", len(rdata.mac))
            + rdata.mac
            + struct.pack("!HH", rdata.original_id, rdata.error)
            + struct.pack("!H", len(rdata.other))
            + rdata.other
        )
    raise WireError(f"cannot encode rdata {rdata!r} for rtype {rtype}")


def _encode_record(rr: ResourceRecord) -> bytes:
    rdata = _encode_rdata(rr.rtype, rr.rdata)
    if len(rdata) > 0xFFFF:
        raise OversizeMessage(f"{len(rdata)}-byte rdata exceeds the 16-bit length field")
    return (
        rr.name._wire
        + struct.pack("!HHIH", rr.rtype, rr.rclass, rr.ttl & 0xFFFFFFFF, len(rdata))
        + rdata
    )


def encode_message(msg: DnsMessage) -> bytes:
    """Render a message to RFC-compliant wire bytes; names are never compressed."""
    flags = 0
    if msg.is_response:
        flags |= 0x8000
    flags |= (int(msg.opcode) & 0xF) << 11
    if msg.authoritative:
        flags |= 0x0400
    flags |= msg.extra_flags & 0x03F0
    flags |= int(msg.rcode) & 0xF
    out = bytearray(
        _HEADER.pack(
            msg.id & 0xFFFF,
            flags,
            len(msg.question),
            len(msg.answers),
            len(msg.authority),
            len(msg.additional),
        )
    )
    for q in msg.question:
        out += q.name._wire
        out += struct.pack("!HH", q.rtype, q.rclass)
    for section in (msg.answers, msg.authority, msg.additional):
        for rr in section:
            out += _encode_record(rr)
    if len(out) > MAX_MESSAGE_SIZE:
        raise OversizeMessage(f"{len(out)} bytes exceeds {MAX_MESSAGE_SIZE}")
    return bytes(out)


def encode_stream(head: DnsMessage, records: Iterable[ResourceRecord]) -> list[bytes]:
    """Encode ``records``, in order, as the answers of as many messages as they need.

    Every message repeats ``head``, a message with a header and question
    but no records, and carries the next run of records that fits in
    MAX_MESSAGE_SIZE: a zone transfer spread over several messages (RFC
    5936 section 2.2). Only a record too large for a message of its own
    raises OversizeMessage.
    """
    prefix = encode_message(head)
    runs: list[list[bytes]] = [[]]
    size = len(prefix)
    for rr in records:
        encoded = _encode_record(rr)
        if len(prefix) + len(encoded) > MAX_MESSAGE_SIZE:
            raise OversizeMessage(f"a {len(encoded)}-byte record fits in no message")
        if size + len(encoded) > MAX_MESSAGE_SIZE:
            runs.append([])
            size = len(prefix)
        runs[-1].append(encoded)
        size += len(encoded)
    return [prefix[:6] + struct.pack("!H", len(run)) + prefix[8:] + b"".join(run) for run in runs]


# --- decoding ---


def _read_name(data: bytes, offset: int) -> tuple[DnsName, int]:
    """The name at ``offset`` and the offset after it: one slice of ``data``
    when it is uncompressed, the joined runs between its pointers when not."""
    pos = start = offset
    runs = None  # the runs before each pointer followed so far
    total = 1  # wire bytes, counting the root label, of the runs before ``start``
    end = None
    size = len(data)
    while True:
        if pos >= size:
            raise TruncatedMessage("name ran off the end of the message")
        b0 = data[pos]
        if 0 < b0 < 0x40:
            pos += 1 + b0
            if pos > size:
                raise TruncatedMessage("label ran off the end of the message")
        elif b0 == 0:
            if total + pos - start > MAX_NAME_WIRE_LENGTH:
                raise DecodeError("decoded name exceeds 255 wire bytes")
            if runs is None:
                return _named(data[start:pos + 1]), pos + 1
            runs.append(data[start:pos + 1])
            return _named(b"".join(runs)), end
        elif b0 >= 0xC0:
            if pos + 1 >= size:
                raise TruncatedMessage("pointer missing its second byte")
            target = ((b0 & 0x3F) << 8) | data[pos + 1]
            if end is None:
                end, runs = pos + 2, []
            if target >= pos:
                raise MalformedPointer(f"pointer at {pos} references offset {target}")
            # a pointer back to a label ahead of itself loops; the length bound ends it
            total += pos - start
            if total > MAX_NAME_WIRE_LENGTH:
                raise DecodeError("decoded name exceeds 255 wire bytes")
            runs.append(data[start:pos])
            pos = start = target
        else:
            raise MalformedPointer(f"reserved label type 0x{b0 & 0xC0:02x} at offset {pos}")


def _decode_rdata(data: bytes, rdata_start: int, rdlength: int, rtype: int) -> Rdata:
    """Rdata of any type but a well-formed A or AAAA, which ``_read_record`` decodes inline."""
    if rdlength == 0:
        return b""
    end = rdata_start + rdlength
    if rtype in (RType.NS, RType.CNAME):
        name, pos = _read_name(data, rdata_start)
        return name if pos <= end else data[rdata_start:end]
    if rtype == RType.MX and rdlength >= 3:
        (pref,) = struct.unpack_from("!H", data, rdata_start)
        name, pos = _read_name(data, rdata_start + 2)
        return MxData(pref, name) if pos <= end else data[rdata_start:end]
    if rtype == RType.TXT:
        strings = []
        pos = rdata_start
        while pos < end:
            n = data[pos]
            if pos + 1 + n > end:
                raise TruncatedMessage("TXT character-string overruns rdata")
            strings.append(data[pos + 1 : pos + 1 + n])
            pos += 1 + n
        return TxtData(tuple(strings))
    if rtype == RType.SOA:
        mname, pos = _read_name(data, rdata_start)
        rname, pos = _read_name(data, pos)
        if pos + 20 > end:
            raise TruncatedMessage("SOA numeric fields truncated")
        serial, refresh, retry, expire, minimum = struct.unpack_from("!IIIII", data, pos)
        return _soa(mname, rname, serial, refresh, retry, expire, minimum)
    if rtype == RType.TSIG:
        alg, pos = _read_name(data, rdata_start)
        if pos + 10 > end:
            raise TruncatedMessage("TSIG fixed fields truncated")
        time_signed = int.from_bytes(data[pos : pos + 6], "big")
        (fudge, mac_size) = struct.unpack_from("!HH", data, pos + 6)
        pos += 10
        if pos + mac_size + 6 > end:
            raise TruncatedMessage("TSIG MAC truncated")
        mac = data[pos : pos + mac_size]
        pos += mac_size
        original_id, error, other_len = struct.unpack_from("!HHH", data, pos)
        pos += 6
        if pos + other_len > end:
            raise TruncatedMessage("TSIG other data truncated")
        return TsigData(alg, time_signed, fudge, mac, original_id, error, data[pos : pos + other_len])
    # unknown types, or known types with off-contract lengths, stay opaque
    return data[rdata_start:end]


def _read_record(data: bytes, offset: int) -> tuple[ResourceRecord, int]:
    name, pos = _read_name(data, offset)
    if pos + 10 > len(data):
        raise TruncatedMessage("record fixed fields truncated")
    rtype, rclass, ttl, rdlength = _RECORD.unpack_from(data, pos)
    pos += 10
    end = pos + rdlength
    if end > len(data):
        raise TruncatedMessage("rdata truncated")
    if rtype == 1 and rdlength == 4:  # A
        rdata = IPv4Address(data[pos:end])
    elif rtype == 28 and rdlength == 16:  # AAAA
        rdata = IPv6Address(data[pos:end])
    else:
        rdata = _decode_rdata(data, pos, rdlength, rtype)
    return _record(name, rtype, rclass, ttl, rdata), end


def decode_message(data: bytes) -> DnsMessage:
    """Parse wire bytes (or any bytes-like) into a DnsMessage; all failures raise a DecodeError subclass."""
    data = bytes(data)  # once, so every slice below is a bytes object
    if len(data) < 12:
        raise TruncatedMessage(f"{len(data)}-byte input is shorter than the 12-byte header")
    msg_id, flags, qdcount, ancount, nscount, arcount = _HEADER.unpack_from(data, 0)
    opcode = _OPCODES.get((flags >> 11) & 0xF)
    if opcode is None:
        raise BadOpcode(f"opcode {(flags >> 11) & 0xF} outside {{0, 5}}")
    rcode = _RCODES.get(flags & 0xF)
    if rcode is None:
        raise DecodeError(f"unassigned rcode {flags & 0xF}")
    pos = 12
    question = []
    for _ in range(qdcount):
        name, pos = _read_name(data, pos)
        if pos + 4 > len(data):
            raise TruncatedMessage("question fixed fields truncated")
        rtype, rclass = _QUESTION.unpack_from(data, pos)
        pos += 4
        question.append(_question(name, rtype, rclass))
    sections = []
    for count in (ancount, nscount, arcount):
        records = []
        for _ in range(count):
            rr, pos = _read_record(data, pos)
            records.append(rr)
        sections.append(tuple(records))
    answers, authority, additional = sections
    return _message(msg_id, opcode, rcode, bool(flags & 0x8000), bool(flags & 0x0400),
                    tuple(question), answers, authority, additional, flags & 0x03F0)


# --- zone-file style text forms (seed files, reports) ---

_TYPE_BY_NAME = {t.name: t for t in RType}


def rtype_from_text(token: str) -> int:
    token = token.upper()
    if token in _TYPE_BY_NAME:
        return int(_TYPE_BY_NAME[token])
    if token.startswith("TYPE"):
        return int(token[4:])
    raise ValueError(f"unknown record type {token!r}")


def rdata_from_text(rtype: int, text: str) -> Rdata:
    text = text.strip()
    if rtype == RType.A:
        return IPv4Address(text)
    if rtype == RType.AAAA:
        return IPv6Address(text)
    if rtype in (RType.NS, RType.CNAME):
        return DnsName.from_text(text)
    if rtype == RType.MX:
        pref, exchange = text.split(None, 1)
        return MxData(int(pref), DnsName.from_text(exchange))
    if rtype == RType.TXT:
        parts = [p.strip('"') for p in text.split('" "')] if '" "' in text else [text.strip('"')]
        return TxtData.from_text(*parts)
    if rtype == RType.SOA:
        mname, rname, *nums = text.split()
        if len(nums) != 5:
            raise ValueError(f"SOA needs 7 fields, got {text!r}")
        return SoaData(DnsName.from_text(mname), DnsName.from_text(rname), *map(int, nums))
    return bytes.fromhex(text)


def rdata_to_text(rtype: int, rdata: Rdata) -> str:
    if isinstance(rdata, (IPv4Address, IPv6Address)):
        return str(rdata)
    if isinstance(rdata, DnsName):
        return rdata.to_text() + "."
    if isinstance(rdata, MxData):
        return f"{rdata.preference} {rdata.exchange.to_text()}."
    if isinstance(rdata, TxtData):
        return " ".join('"%s"' % s.decode("ascii", errors="backslashreplace") for s in rdata.strings)
    if isinstance(rdata, SoaData):
        return (
            f"{rdata.mname.to_text()}. {rdata.rname.to_text()}. "
            f"{rdata.serial} {rdata.refresh} {rdata.retry} {rdata.expire} {rdata.minimum}"
        )
    if isinstance(rdata, bytes):
        return rdata.hex()
    raise ValueError(f"no text form for {rdata!r}")
