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
unchecked. The decoder reads a name in one walk over its label lengths: an
uncompressed name, which is every name this package encodes, is then one
slice of the message, and only a name that reaches a pointer goes on to
the reader that follows pointers and joins the runs between them. It
coerces its input to ``bytes`` once, so that no name holds a mutable buffer.

The codec compares record types as plain ints held in module globals
(``_A``, ``_SOA``, ...), never as ``RType`` members read through their
class, which costs several times as much per read. The encoder appends
each record to the message buffer as it goes, its fixed fields in one
precompiled struct; the decoder reads each section in one loop, and a
section with no records is ``()``. A record that repeats the first of its
section byte for byte is read once, as an IXFR diff's new SOA and an AXFR
stream's closing SOA are. Decoded record types and classes are plain
ints; the opcode and rcode are ``Opcode`` and ``Rcode`` members.

Records, their rdata, questions and messages are slotted frozen
dataclasses: an instance holds its fields in slots and has no dict,
however it was built. One generator, ``_slot_filler``, writes the code
that fills those slots for every slotted value in the package, in two
forms. ``@_slot_init`` makes it the class's ``__init__``, with the
parameters, defaults and ``__post_init__`` check of the one
``dataclasses`` makes; it fills each slot through its descriptor, where
that one goes through ``object.__setattr__`` at about twice the cost.
``_builder(cls)`` makes a function that takes every field, in field order,
and skips ``__init__`` and ``__post_init__``, so its caller must already
hold what that check would check, and says so at the call. A builder
fills a layout twin of the class, the same slots on ``object`` with no
frozen ``__setattr__``, by plain attribute stores, which the interpreter
turns into direct slot writes, and then retypes it to the class, so a
record is built at about half the cost of descriptor fills and what comes
back is an instance of the class itself. Constructors keep their
descriptor fills: their instance is already of the class when
``__init__`` runs, and making it any other way would change how it
unpickles and the ``__init__`` signature. Each builder is bound once, at
module level: ``_record``, the rdata builders ``_soa``, ``_mx``, ``_txt``
and ``_tsig_data``, ``_question`` and ``_message`` here, and those of
datagrams, tap entries, zone versions, honeypot events, probe outcomes
and remediation subjects beside their classes.
"""

from __future__ import annotations

import random
import struct
from dataclasses import MISSING, dataclass, fields
from enum import IntEnum
from ipaddress import IPv4Address, IPv6Address
from typing import Iterable, Iterator, Optional, Union

MAX_MESSAGE_SIZE = 65535
MAX_LABEL_LENGTH = 63
MAX_NAME_WIRE_LENGTH = 255
MAX_TTL = 2**31 - 1  # RFC 2181 section 8: a TTL is a 31-bit unsigned number

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


# bytes that a name's text holds as themselves, besides the dots between labels
_PLAIN = bytes(b for b in range(0x21, 0x7F) if b != 0x5C)
# the text of each byte inside a label (RFC 1035 §5.1)
_LABEL_TEXT = tuple("\\" + chr(b) if b in b".\\" else chr(b) if b in _PLAIN else f"\\{b:03d}"
                    for b in range(256))


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
        """Labels between dots, where ``\\X`` is the character X and ``\\DDD`` the
        byte of decimal value DDD (RFC 1035 §5.1)."""
        raw = text.encode("ascii")
        if b"\\" not in raw:
            raw = raw.rstrip(b".")
            return cls(raw.split(b".") if raw else ())
        labels, label, pos = [], bytearray(), 0
        while pos < len(raw):
            byte = raw[pos]
            pos += 1
            if byte == 0x2E:  # "."
                labels.append(label)
                label = bytearray()
            elif byte != 0x5C:  # "\\"
                label.append(byte)
            elif len(digits := raw[pos:pos + 3]) == 3 and digits.isdigit() and int(digits) <= 0xFF:
                label.append(int(digits))
                pos += 3
            elif digits and not digits[:1].isdigit():
                label.append(digits[0])
                pos += 1
            else:
                raise InvalidLabel(f"{text!r}: a backslash takes a character or three digits "
                                   "up to 255")
        labels.append(label)
        while not labels[-1]:  # trailing dots
            labels.pop()
        return cls(labels)

    def to_text(self) -> str:
        """Labels between dots; in a label, ``.`` and ``\\`` are escaped as ``\\.`` and
        ``\\\\``, and a byte outside 0x21-0x7E as ``\\DDD`` (RFC 1035 §5.1)."""
        wire = self._wire
        if len(wire) == 1:
            return "."
        if b"." not in wire:  # the "." may be only a length byte of 46
            text = bytearray(wire[1:-1])  # the labels, with a length byte between each two
            pos = wire[0]
            while pos < len(text):
                step = text[pos] + 1
                text[pos] = 0x2E  # "."
                pos += step
            if not text.translate(None, _PLAIN):  # every byte stands for itself
                return text.decode("ascii")
        return ".".join("".join(map(_LABEL_TEXT.__getitem__, label)) for label in _split(wire))

    @property
    def labels(self) -> tuple[bytes, ...]:
        """The labels as given, leftmost first."""
        return _split(self._wire)

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
        return _split(self._key) < _split(other._key)

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


def _slot_filler(cls, init: bool):
    """The function that fills the slots of the slotted dataclass ``cls``
    past its frozen ``__setattr__``.

    With ``init`` it is ``cls.__init__``: the parameters, defaults and
    annotations of the ``__init__`` that ``dataclasses`` made, which it
    replaces. Its instance is already a ``cls``, so it fills each slot
    through its descriptor, and then runs ``__post_init__`` when the class
    has one. Without, it is the class's builder: one parameter per field,
    ``init=False`` ones too, no defaults, and no ``__init__`` or
    ``__post_init__`` run. It makes an instance of the class's twin, a plain
    class of the same ``__slots__`` on ``object`` made here once, fills each
    field by an ordinary attribute store, which the interpreter specialises
    to a direct slot write, and then sets its ``__class__`` to ``cls``, which
    CPython allows between two identical layouts. What it returns is a
    ``cls`` like any other, frozen and pickling as one. A class whose layout
    the twin cannot copy (a base besides ``object``, no ``__slots__``, or a
    ``__dict__``) raises TypeError here, and so does a retype that the
    interpreter refuses, tried once on a throwaway instance.

    The source is generated from the field names, as ``dataclasses``
    generates ``__init__``, so the fills are unrolled, and its globals are
    few, so each is one specialised global load. No field name can clash
    with them: a class body mangles a name that starts with two underscores
    and does not end with two. A field that only the ``dataclasses``
    ``__init__`` handles (a default factory, a keyword-only field, an
    ``init=False`` default, a field named ``self``) raises TypeError.
    """
    for f in fields(cls):
        if (f.default_factory is not MISSING or f.kw_only or f.name == "self"
                or (not f.init and f.default is not MISSING)):
            raise TypeError(f"{cls.__name__}.{f.name}: only plain fields are filled by slot")
    filled = [f.name for f in fields(cls) if f.init or not init]
    if init:
        namespace = {f"__set_{i}": cls.__dict__[name].__set__ for i, name in enumerate(filled)}
        body = "".join(f"    __set_{i}(self, {name})\n" for i, name in enumerate(filled))
        if hasattr(cls, "__post_init__"):
            body += "    self.__post_init__()\n"
        exec(f"def __init__({', '.join(['self', *filled])}):\n{body}", namespace)
        made, init_fn = cls.__init__, namespace["__init__"]
        init_fn.__defaults__, init_fn.__annotations__ = made.__defaults__, dict(made.__annotations__)
        init_fn.__qualname__, init_fn.__module__ = made.__qualname__, made.__module__
        return init_fn
    if cls.__bases__ != (object,) or "__slots__" not in cls.__dict__ or "__dict__" in cls.__dict__:
        raise TypeError(f"{cls.__name__}: a builder needs a slotted class on object alone")
    twin = type(f"{cls.__name__}Twin", (), {"__slots__": cls.__slots__})
    _new(twin).__class__ = cls  # a layout the interpreter refuses fails here, not on a call
    body = "".join(f"    self.{name} = {name}\n" for name in filled)
    namespace = {"__new": _new, "__twin": twin, "__cls": cls}
    exec(f"def build({', '.join(filled)}):\n    self = __new(__twin)\n{body}"
         "    self.__class__ = __cls\n    return self\n", namespace)
    build = namespace["build"]
    build.__qualname__ = f"_builder({cls.__name__})"
    build.__doc__ = f"``{cls.__name__}({', '.join(filled)})``, filled slot by slot."
    return build


def _builder(cls):
    """A function of one argument per field of the slotted dataclass ``cls``,
    in field order, that returns the instance holding those values and runs
    no check: it fills a twin of ``cls``'s layout by plain stores and
    retypes it to ``cls`` (see ``_slot_filler``)."""
    return _slot_filler(cls, init=False)


def _slot_init(cls):
    """Class decorator, above ``@dataclass(frozen=True, slots=True)``: the
    class's ``__init__`` becomes one that fills each slot through its
    descriptor (see ``_slot_filler``), with the same signature as the one
    ``dataclasses`` made."""
    cls.__init__ = _slot_filler(cls, init=True)
    return cls


@_slot_init
@dataclass(frozen=True, slots=True)
class SoaData:
    mname: DnsName
    rname: DnsName
    serial: int
    refresh: int
    retry: int
    expire: int
    minimum: int


@_slot_init
@dataclass(frozen=True, slots=True)
class MxData:
    preference: int
    exchange: DnsName


@_slot_init
@dataclass(frozen=True, slots=True)
class TxtData:
    strings: tuple[bytes, ...]

    @classmethod
    def from_text(cls, *parts: str) -> "TxtData":
        return cls(tuple(p.encode("ascii") for p in parts))

    def to_text(self) -> str:
        return " ".join(s.decode("ascii", errors="backslashreplace") for s in self.strings)


@_slot_init
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


@_slot_init
@dataclass(frozen=True, slots=True)
class ResourceRecord:
    name: DnsName
    rtype: int
    rclass: int
    ttl: int
    rdata: Rdata


_record = _builder(ResourceRecord)
_soa = _builder(SoaData)
_mx = _builder(MxData)
_txt = _builder(TxtData)
_tsig_data = _builder(TsigData)


@_slot_init
@dataclass(frozen=True, slots=True)
class Question:
    name: DnsName
    rtype: int
    rclass: int = RClass.IN


_question = _builder(Question)


@_slot_init
@dataclass(frozen=True, slots=True)
class DnsMessage:
    """One DNS message; carries both QUERY and UPDATE payloads.

    Section names follow RFC 1035. An UPDATE's zone section is ``question``,
    and the ``prerequisites`` and ``updates`` properties give the RFC 2136
    names of its answer and authority sections.
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
    def prerequisites(self) -> tuple[ResourceRecord, ...]:
        return self.answers

    @property
    def updates(self) -> tuple[ResourceRecord, ...]:
        return self.authority


_message = _builder(DnsMessage)


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

# Type codes as plain ints: the codec compares them per record, and an enum
# member read through its class costs several times a module global
_A, _NS, _CNAME, _SOA, _MX, _TXT, _AAAA, _TSIG = map(int, (
    RType.A, RType.NS, RType.CNAME, RType.SOA, RType.MX, RType.TXT, RType.AAAA, RType.TSIG))

_pack_header = _HEADER.pack
_pack_question = _QUESTION.pack
_pack_record = _RECORD.pack
_pack_u16 = struct.Struct("!H").pack
_pack_soa_numbers = struct.Struct("!IIIII").pack
_pack_tsig_sizes = struct.Struct("!HH").pack  # fudge, MAC size
_pack_tsig_tail = struct.Struct("!HHH").pack  # original id, error, other size


def _put_records(out: bytearray, records: Iterable[ResourceRecord]) -> None:
    """Append each record's wire form to ``out``: the owner, the fixed fields
    in one pack, and the rdata, whose type is read as a plain int."""
    for rr in records:
        rtype, rdata = rr.rtype, rr.rdata
        if isinstance(rdata, bytes):
            raw = rdata
        elif rtype == _A or rtype == _AAAA:
            raw = rdata.packed
        elif rtype == _SOA:
            raw = rdata.mname._wire + rdata.rname._wire + _pack_soa_numbers(
                rdata.serial, rdata.refresh, rdata.retry, rdata.expire, rdata.minimum)
        elif rtype == _NS or rtype == _CNAME:
            raw = rdata._wire
        elif rtype == _MX:
            raw = _pack_u16(rdata.preference) + rdata.exchange._wire
        elif rtype == _TXT:
            raw = bytearray()
            for s in rdata.strings:
                if len(s) > 255:
                    raise WireError("TXT character-string longer than 255 bytes")
                raw.append(len(s))
                raw += s
        elif rtype == _TSIG:
            mac, other = rdata.mac, rdata.other
            raw = (rdata.algorithm._wire + rdata.time_signed.to_bytes(6, "big")
                   + _pack_tsig_sizes(rdata.fudge, len(mac)) + mac
                   + _pack_tsig_tail(rdata.original_id, rdata.error, len(other)) + other)
        else:
            raise WireError(f"cannot encode rdata {rdata!r} for rtype {rtype}")
        size = len(raw)
        if size > 0xFFFF:
            raise OversizeMessage(f"{size}-byte rdata exceeds the 16-bit length field")
        out += rr.name._wire
        out += _pack_record(rtype, rr.rclass, rr.ttl & 0xFFFFFFFF, size)
        out += raw


def _encode_record(rr: ResourceRecord) -> bytes:
    out = bytearray()
    _put_records(out, (rr,))
    return bytes(out)


def encode_message(msg: DnsMessage) -> bytes:
    """Render a message to RFC-compliant wire bytes; names are never compressed."""
    question, answers, authority, additional = (msg.question, msg.answers, msg.authority,
                                                msg.additional)
    flags = ((msg.opcode & 0xF) << 11) | (msg.extra_flags & 0x03F0) | (msg.rcode & 0xF)
    if msg.is_response:
        flags |= 0x8000
    if msg.authoritative:
        flags |= 0x0400
    out = bytearray(_pack_header(msg.id & 0xFFFF, flags, len(question), len(answers),
                                 len(authority), len(additional)))
    for q in question:
        out += q.name._wire
        out += _pack_question(q.rtype, q.rclass)
    if answers:
        _put_records(out, answers)
    if authority:
        _put_records(out, authority)
    if additional:
        _put_records(out, additional)
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
    return [prefix[:6] + _pack_u16(len(run)) + prefix[8:] + b"".join(run) for run in runs]


# --- decoding ---

_unpack_header = _HEADER.unpack_from
_unpack_question = _QUESTION.unpack_from
_unpack_record = _RECORD.unpack_from
_unpack_u16 = struct.Struct("!H").unpack_from
_unpack_soa_numbers = struct.Struct("!IIIII").unpack_from
_unpack_tsig_sizes = struct.Struct("!HH").unpack_from
_unpack_tsig_tail = struct.Struct("!HHH").unpack_from


def _read_name(data: bytes, offset: int) -> tuple[DnsName, int]:
    """The name at ``offset`` and the offset after it.

    One walk over the labels; an uncompressed name, which every name this
    package encodes is, is then one slice of ``data``. At the first byte
    that is not a label length the walk hands over to ``_read_compressed``.
    """
    pos = offset
    try:
        n = data[pos]
        while 0 < n < 0x40:
            pos += n + 1
            n = data[pos]
    except IndexError:
        raise TruncatedMessage("name ran off the end of the message") from None
    if n:
        return _read_compressed(data, offset, pos)
    pos += 1
    if pos - offset > MAX_NAME_WIRE_LENGTH:
        raise DecodeError("decoded name exceeds 255 wire bytes")
    wire = data[offset:pos]
    name = _new(DnsName)
    key = wire.lower()
    name._wire = wire
    name._key = wire if key == wire else key
    return name, pos


def _read_compressed(data: bytes, offset: int, pos: int) -> tuple[DnsName, int]:
    """``_read_name`` from ``pos``, the first byte of the name at ``offset``
    that is not a label length: the joined runs between its pointers."""
    start = offset
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


def _decode_rdata(data: bytes, pos: int, end: int, rtype: int) -> Rdata:
    """Rdata of any type but a well-formed A, which ``_read_records`` decodes
    inline, running from ``pos`` to ``end``."""
    if pos == end:
        return b""
    if rtype == _SOA:
        mname, pos = _read_name(data, pos)
        rname, pos = _read_name(data, pos)
        if pos + 20 > end:
            raise TruncatedMessage("SOA numeric fields truncated")
        return _soa(mname, rname, *_unpack_soa_numbers(data, pos))
    if rtype == _AAAA and end - pos == 16:
        return IPv6Address(data[pos:end])
    if rtype == _NS or rtype == _CNAME:
        name, after = _read_name(data, pos)
        return name if after <= end else data[pos:end]
    if rtype == _MX and end - pos >= 3:
        name, after = _read_name(data, pos + 2)
        return _mx(_unpack_u16(data, pos)[0], name) if after <= end else data[pos:end]
    if rtype == _TXT:
        strings = []
        while pos < end:
            n = data[pos]
            if pos + 1 + n > end:
                raise TruncatedMessage("TXT character-string overruns rdata")
            strings.append(data[pos + 1:pos + 1 + n])
            pos += 1 + n
        return _txt(tuple(strings))
    if rtype == _TSIG:
        alg, pos = _read_name(data, pos)
        if pos + 10 > end:
            raise TruncatedMessage("TSIG fixed fields truncated")
        time_signed = int.from_bytes(data[pos:pos + 6], "big")
        fudge, mac_size = _unpack_tsig_sizes(data, pos + 6)
        pos += 10
        if pos + mac_size + 6 > end:
            raise TruncatedMessage("TSIG MAC truncated")
        mac = data[pos:pos + mac_size]
        original_id, error, other_size = _unpack_tsig_tail(data, pos + mac_size)
        pos += mac_size + 6
        if pos + other_size > end:
            raise TruncatedMessage("TSIG other data truncated")
        return _tsig_data(alg, time_signed, fudge, mac, original_id, error,
                          data[pos:pos + other_size])
    # unknown types, or known types with off-contract lengths, stay opaque
    return data[pos:end]


def _read_records(data: bytes, pos: int, count: int) -> tuple[tuple[ResourceRecord, ...], int]:
    """The ``count`` records from ``pos`` on, and the offset after them.

    A later record whose bytes repeat those of the section's first is the
    first record's object, read once: the same bytes further on decode to
    the same values, as a pointer valid at one place is valid at any later
    one. An IXFR diff repeats its new SOA, and an AXFR stream its SOA. A
    record with opaque rdata is no template: its name may have run past it.
    """
    size = len(data)
    records = []
    append = records.append
    first = first_wire = None  # the first record and its bytes, in a section of two or more
    for _ in range(count):
        if first_wire is not None and data.startswith(first_wire, pos):
            append(first)
            pos += len(first_wire)
            continue
        start = pos
        name, pos = _read_name(data, pos)
        if pos + 10 > size:
            raise TruncatedMessage("record fixed fields truncated")
        rtype, rclass, ttl, rdlength = _unpack_record(data, pos)
        pos += 10
        end = pos + rdlength
        if end > size:
            raise TruncatedMessage("rdata truncated")
        if rtype == _A and rdlength == 4:
            rdata = IPv4Address(data[pos:end])
        else:
            rdata = _decode_rdata(data, pos, end, rtype)
        rr = _record(name, rtype, rclass, ttl, rdata)
        append(rr)
        if first is None and count > 1 and rdata.__class__ is not bytes:
            first, first_wire = rr, data[start:end]
        pos = end
    return tuple(records), pos


def decode_message(data: bytes) -> DnsMessage:
    """Parse wire bytes (or any bytes-like) into a DnsMessage; all failures raise a DecodeError subclass."""
    data = bytes(data)  # once, so every slice below is a bytes object
    size = len(data)
    if size < 12:
        raise TruncatedMessage(f"{size}-byte input is shorter than the 12-byte header")
    msg_id, flags, qdcount, ancount, nscount, arcount = _unpack_header(data)
    opcode = _OPCODES.get((flags >> 11) & 0xF)
    if opcode is None:
        raise BadOpcode(f"opcode {(flags >> 11) & 0xF} outside {{0, 5}}")
    rcode = _RCODES.get(flags & 0xF)
    if rcode is None:
        raise DecodeError(f"unassigned rcode {flags & 0xF}")
    pos = 12
    question = answers = authority = additional = ()
    if qdcount:
        questions = []
        for _ in range(qdcount):
            name, pos = _read_name(data, pos)
            if pos + 4 > size:
                raise TruncatedMessage("question fixed fields truncated")
            rtype, rclass = _unpack_question(data, pos)
            pos += 4
            questions.append(_question(name, rtype, rclass))
        question = tuple(questions)
    if ancount:
        answers, pos = _read_records(data, pos, ancount)
    if nscount:
        authority, pos = _read_records(data, pos, nscount)
    if arcount:
        additional, pos = _read_records(data, pos, arcount)
    return _message(msg_id, opcode, rcode, bool(flags & 0x8000), bool(flags & 0x0400),
                    question, answers, authority, additional, flags & 0x03F0)


# --- zone-file style text forms (seed files, reports) ---

def content_lines(lines: Iterable[str]) -> Iterator[tuple[int, str]]:
    """(line number from 1, text) for each line that keeps any text once its
    ``#`` comment and the blanks around it are cut: the one reader of every
    line-based input file, so that an error can name its line."""
    for lineno, line in enumerate(lines, 1):
        text = line.split("#", 1)[0].strip()
        if text:
            yield lineno, text


_TYPE_BY_NAME = {t.name: t for t in RType}


def rtype_from_text(token: str) -> int:
    token = token.upper()
    if token in _TYPE_BY_NAME:
        return int(_TYPE_BY_NAME[token])
    if token.startswith("TYPE"):
        return _bounded(int(token[4:]), 0xFFFF, "record type")
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
        return MxData(_bounded(int(pref), 0xFFFF, "MX preference"), DnsName.from_text(exchange))
    if rtype == RType.TXT:
        parts = [p.strip('"') for p in text.split('" "')] if '" "' in text else [text.strip('"')]
        txt = TxtData.from_text(*parts)
        for string in txt.strings:  # RFC 1035 §3.3: a length byte, then the string
            _bounded(len(string), 0xFF, "TXT character-string length")
        return txt
    if rtype == RType.SOA:
        mname, rname, *nums = text.split()
        if len(nums) != 5:
            raise ValueError(f"SOA needs 7 fields, got {text!r}")
        numbers = [_bounded(int(n), 0xFFFFFFFF, "SOA " + field)
                   for n, field in zip(nums, ("serial", "refresh", "retry", "expire", "minimum"))]
        return SoaData(DnsName.from_text(mname), DnsName.from_text(rname), *numbers)
    return bytes.fromhex(text)


def _bounded(value: int, top: int, what: str) -> int:
    """``value``, when it lies in 0..``top``; else ValueError naming ``what``."""
    if not 0 <= value <= top:
        raise ValueError(f"{what} {value} is outside 0-{top}")
    return value
