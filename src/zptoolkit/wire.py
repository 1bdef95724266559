"""DNS message wire codec for the QUERY/UPDATE subset this toolkit speaks.

Covers RFC 1035 framing plus the RFC 2136 section repurposing
(Zone/Prerequisite/Update/Additional), and splits a zone transfer over as
many messages as it needs (RFC 5936). Names are emitted uncompressed;
compression pointers are accepted on decode. Record types outside the
supported set decode to opaque rdata and re-encode byte-identically.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass
from enum import IntEnum
from ipaddress import IPv4Address, IPv6Address
from typing import Iterable, Optional, Union

MAX_MESSAGE_SIZE = 65535
MAX_LABEL_LENGTH = 63
MAX_NAME_WIRE_LENGTH = 255

_HEADER = struct.Struct("!HHHHHH")


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


class DnsName:
    """A domain name as an ordered tuple of byte labels.

    Equality, hashing, and ordering ignore ASCII case. The raw constructor
    does not validate label lengths (the encoder does); use ``from_text``
    for checked construction.
    """

    __slots__ = ("labels", "_key")

    def __init__(self, labels: Iterable[bytes] = ()):
        self.labels: tuple[bytes, ...] = tuple(bytes(l) for l in labels)
        self._key = tuple(l.lower() for l in self.labels)

    @classmethod
    def from_text(cls, text: str) -> "DnsName":
        text = text.rstrip(".")
        if not text:
            return cls(())
        labels = []
        for part in text.split("."):
            raw = part.encode("ascii", errors="strict") if isinstance(part, str) else part
            if not raw or len(raw) > MAX_LABEL_LENGTH:
                raise InvalidLabel(f"label {part!r} must be 1-{MAX_LABEL_LENGTH} bytes")
            labels.append(raw)
        name = cls(labels)
        if name.wire_length() > MAX_NAME_WIRE_LENGTH:
            raise InvalidLabel(f"name {text!r} exceeds {MAX_NAME_WIRE_LENGTH} wire bytes")
        return name

    def to_text(self) -> str:
        if not self.labels:
            return "."
        return ".".join(l.decode("ascii", errors="backslashreplace") for l in self.labels)

    @property
    def key(self) -> tuple[bytes, ...]:
        """The lower-cased labels that equality and hashing compare."""
        return self._key

    def wire_length(self) -> int:
        return sum(len(l) + 1 for l in self.labels) + 1

    def to_wire(self) -> bytes:
        out = bytearray()
        for label in self.labels:
            if not label or len(label) > MAX_LABEL_LENGTH:
                raise InvalidLabel(f"label of {len(label)} bytes in {self.to_text()!r}")
            out.append(len(label))
            out += label
        out.append(0)
        if len(out) > MAX_NAME_WIRE_LENGTH:
            raise InvalidLabel(f"name {self.to_text()!r} exceeds {MAX_NAME_WIRE_LENGTH} wire bytes")
        return bytes(out)

    def prepend(self, label: bytes | str) -> "DnsName":
        raw = label.encode("ascii") if isinstance(label, str) else bytes(label)
        if not raw or len(raw) > MAX_LABEL_LENGTH:
            raise InvalidLabel(f"label {label!r} must be 1-{MAX_LABEL_LENGTH} bytes")
        return DnsName((raw,) + self.labels)

    def parent(self) -> "DnsName":
        return DnsName(self.labels[1:])

    def is_subdomain_of(self, other: "DnsName") -> bool:
        """True when self equals other or sits below it."""
        n = len(other._key)
        if n == 0:
            return True
        return len(self._key) >= n and self._key[-n:] == other._key

    def __len__(self) -> int:
        return len(self.labels)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, DnsName) and self._key == other._key

    def __lt__(self, other: "DnsName") -> bool:
        return self._key < other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        return f"DnsName({self.to_text()!r})"


@dataclass(frozen=True)
class SoaData:
    mname: DnsName
    rname: DnsName
    serial: int
    refresh: int
    retry: int
    expire: int
    minimum: int


@dataclass(frozen=True)
class MxData:
    preference: int
    exchange: DnsName


@dataclass(frozen=True)
class TxtData:
    strings: tuple[bytes, ...]

    @classmethod
    def from_text(cls, *parts: str) -> "TxtData":
        return cls(tuple(p.encode("ascii") for p in parts))

    def to_text(self) -> str:
        return " ".join(s.decode("ascii", errors="backslashreplace") for s in self.strings)


@dataclass(frozen=True)
class TsigData:
    algorithm: DnsName
    time_signed: int
    fudge: int
    mac: bytes
    original_id: int
    error: int
    other: bytes


Rdata = Union[IPv4Address, IPv6Address, DnsName, SoaData, MxData, TxtData, TsigData, bytes]


@dataclass(frozen=True)
class ResourceRecord:
    name: DnsName
    rtype: int
    rclass: int
    ttl: int
    rdata: Rdata


@dataclass(frozen=True)
class Question:
    name: DnsName
    rtype: int
    rclass: int = RClass.IN


@dataclass(frozen=True)
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
    return DnsMessage(
        id=_draw_id(msg_id, rng),
        opcode=Opcode.QUERY,
        question=(Question(name, rtype, RClass.IN),),
    )


def make_update(
    zone: DnsName,
    changes: Iterable[UpdateChange],
    *,
    msg_id: Optional[int] = None,
    rng: Optional[random.Random] = None,
) -> DnsMessage:
    """Build an UPDATE message from a list of add/delete changes.

    The zone section holds (zone, SOA, IN). Adds keep the caller's TTL and
    are forced to class IN; RRset deletes go out as class ANY, TTL 0, empty
    rdata; exact deletes as class NONE, TTL 0.
    """
    if not len(zone):
        raise InvalidLabel("update zone must be non-root")
    update_rrs = []
    for change in changes:
        if isinstance(change, AddRecord):
            rr = change.record
            update_rrs.append(ResourceRecord(rr.name, rr.rtype, RClass.IN, rr.ttl, rr.rdata))
        elif isinstance(change, DeleteRRset):
            update_rrs.append(ResourceRecord(change.name, change.rtype, RClass.ANY, 0, b""))
        elif isinstance(change, DeleteExactRecord):
            rr = change.record
            update_rrs.append(ResourceRecord(rr.name, rr.rtype, RClass.NONE, 0, rr.rdata))
        elif isinstance(change, DeleteAllAtName):
            update_rrs.append(ResourceRecord(change.name, RType.ANY, RClass.ANY, 0, b""))
        else:
            raise TypeError(f"not an UpdateChange: {change!r}")
    if not update_rrs:
        raise EmptyChangeList("an UPDATE needs at least one change")
    return DnsMessage(
        id=_draw_id(msg_id, rng),
        opcode=Opcode.UPDATE,
        question=(Question(zone, RType.SOA, RClass.IN),),
        authority=tuple(update_rrs),
    )


# --- encoding ---


def _encode_rdata(rtype: int, rdata: Rdata) -> bytes:
    if isinstance(rdata, bytes):
        return rdata
    if rtype in (RType.A, RType.AAAA):
        return rdata.packed
    if rtype in (RType.NS, RType.CNAME):
        return rdata.to_wire()
    if rtype == RType.MX:
        return struct.pack("!H", rdata.preference) + rdata.exchange.to_wire()
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
            rdata.mname.to_wire()
            + rdata.rname.to_wire()
            + struct.pack("!IIIII", rdata.serial, rdata.refresh, rdata.retry, rdata.expire, rdata.minimum)
        )
    if rtype == RType.TSIG:
        return (
            rdata.algorithm.to_wire()
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
        rr.name.to_wire()
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
        out += q.name.to_wire()
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
    labels = []
    total = 0
    pos = offset
    end = None
    while True:
        if pos >= len(data):
            raise TruncatedMessage("name ran off the end of the message")
        b0 = data[pos]
        if b0 & 0xC0 == 0xC0:
            if pos + 1 >= len(data):
                raise TruncatedMessage("pointer missing its second byte")
            target = ((b0 & 0x3F) << 8) | data[pos + 1]
            if end is None:
                end = pos + 2
            if target >= pos:
                raise MalformedPointer(f"pointer at {pos} references offset {target}")
            pos = target
        elif b0 & 0xC0:
            raise MalformedPointer(f"reserved label type 0x{b0 & 0xC0:02x} at offset {pos}")
        elif b0 == 0:
            if end is None:
                end = pos + 1
            return DnsName(labels), end
        else:
            if pos + 1 + b0 > len(data):
                raise TruncatedMessage("label ran off the end of the message")
            labels.append(data[pos + 1 : pos + 1 + b0])
            total += b0 + 1
            if total + 1 > MAX_NAME_WIRE_LENGTH:
                raise DecodeError("decoded name exceeds 255 wire bytes")
            pos += 1 + b0


def _decode_rdata(data: bytes, rdata_start: int, rdlength: int, rtype: int) -> Rdata:
    raw = data[rdata_start : rdata_start + rdlength]
    if rdlength == 0:
        return b""
    end = rdata_start + rdlength
    if rtype == RType.A and rdlength == 4:
        return IPv4Address(raw)
    if rtype == RType.AAAA and rdlength == 16:
        return IPv6Address(raw)
    if rtype in (RType.NS, RType.CNAME):
        name, pos = _read_name(data, rdata_start)
        return name if pos <= end else raw
    if rtype == RType.MX and rdlength >= 3:
        (pref,) = struct.unpack_from("!H", data, rdata_start)
        name, pos = _read_name(data, rdata_start + 2)
        return MxData(pref, name) if pos <= end else raw
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
        return SoaData(mname, rname, serial, refresh, retry, expire, minimum)
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
        return TsigData(alg, time_signed, fudge, bytes(mac), original_id, error, bytes(data[pos : pos + other_len]))
    # unknown types, or known types with off-contract lengths, stay opaque
    return bytes(raw)


def _read_record(data: bytes, offset: int) -> tuple[ResourceRecord, int]:
    name, pos = _read_name(data, offset)
    if pos + 10 > len(data):
        raise TruncatedMessage("record fixed fields truncated")
    rtype, rclass, ttl, rdlength = struct.unpack_from("!HHIH", data, pos)
    pos += 10
    if pos + rdlength > len(data):
        raise TruncatedMessage("rdata truncated")
    rdata = _decode_rdata(data, pos, rdlength, rtype)
    return ResourceRecord(name, rtype, rclass, ttl, rdata), pos + rdlength


def decode_message(data: bytes) -> DnsMessage:
    """Parse wire bytes into a DnsMessage; all failures raise a DecodeError subclass."""
    if len(data) < 12:
        raise TruncatedMessage(f"{len(data)}-byte input is shorter than the 12-byte header")
    msg_id, flags, qdcount, ancount, nscount, arcount = _HEADER.unpack_from(data, 0)
    opcode = (flags >> 11) & 0xF
    if opcode not in (Opcode.QUERY, Opcode.UPDATE):
        raise BadOpcode(f"opcode {opcode} outside {{0, 5}}")
    rcode_value = flags & 0xF
    try:
        rcode = Rcode(rcode_value)
    except ValueError:
        raise DecodeError(f"unassigned rcode {rcode_value}") from None
    pos = 12
    question = []
    for _ in range(qdcount):
        name, pos = _read_name(data, pos)
        if pos + 4 > len(data):
            raise TruncatedMessage("question fixed fields truncated")
        rtype, rclass = struct.unpack_from("!HH", data, pos)
        pos += 4
        question.append(Question(name, rtype, rclass))
    sections = []
    for count in (ancount, nscount, arcount):
        records = []
        for _ in range(count):
            rr, pos = _read_record(data, pos)
            records.append(rr)
        sections.append(tuple(records))
    return DnsMessage(
        id=msg_id,
        opcode=Opcode(opcode),
        rcode=rcode,
        is_response=bool(flags & 0x8000),
        authoritative=bool(flags & 0x0400),
        question=tuple(question),
        answers=sections[0],
        authority=sections[1],
        additional=sections[2],
        extra_flags=flags & 0x03F0,
    )


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
