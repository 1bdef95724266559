"""The wire codec against the encoder and decoder it replaced, kept here as oracles.

``oracle_encode`` and ``oracle_decode`` are the enum-dispatched codec as it
stood before rdata types were read as plain ints, records were packed
straight into the message buffer and names were read in one walk. The
codec must give the same bytes for every message, and for every input
either the same message, field for field and type for type, or a failure
of the same ``DecodeError`` subclass.

Inputs are drawn messages (every rdata type including TSIG, opaque unknown
types, A and AAAA rdata of other lengths, mixed-case names with any byte
in a label, sections of 0-4 records whose first record now and then
repeats, whole or all but its last bit), the same messages with their names compressed by hand, and
those bytes truncated, flipped or overwritten, plus raw names over the
255-byte bound and forward pointers.
"""

import struct
from ipaddress import IPv4Address, IPv6Address

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zptoolkit import wire
from zptoolkit.wire import (DecodeError, DnsMessage, DnsName, MxData, Opcode, OversizeMessage,
                            Question, RClass, Rcode, ResourceRecord, RType, SoaData, TruncatedMessage,
                            TsigData, TxtData, WireError, decode_message, encode_message)

# --- the oracles ---


def _oracle_rdata(rtype, rdata):
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
        return (rdata.mname._wire + rdata.rname._wire
                + struct.pack("!IIIII", rdata.serial, rdata.refresh, rdata.retry, rdata.expire,
                              rdata.minimum))
    if rtype == RType.TSIG:
        return (rdata.algorithm._wire + rdata.time_signed.to_bytes(6, "big")
                + struct.pack("!H", rdata.fudge) + struct.pack("!H", len(rdata.mac)) + rdata.mac
                + struct.pack("!HH", rdata.original_id, rdata.error)
                + struct.pack("!H", len(rdata.other)) + rdata.other)
    raise WireError(f"cannot encode rdata {rdata!r} for rtype {rtype}")


def _oracle_record(rr):
    rdata = _oracle_rdata(rr.rtype, rr.rdata)
    if len(rdata) > 0xFFFF:
        raise OversizeMessage(f"{len(rdata)}-byte rdata exceeds the 16-bit length field")
    return rr.name._wire + struct.pack("!HHIH", rr.rtype, rr.rclass, rr.ttl & 0xFFFFFFFF,
                                       len(rdata)) + rdata


def oracle_encode(msg):
    flags = 0
    if msg.is_response:
        flags |= 0x8000
    flags |= (int(msg.opcode) & 0xF) << 11
    if msg.authoritative:
        flags |= 0x0400
    flags |= msg.extra_flags & 0x03F0
    flags |= int(msg.rcode) & 0xF
    out = bytearray(struct.pack("!HHHHHH", msg.id & 0xFFFF, flags, len(msg.question),
                                len(msg.answers), len(msg.authority), len(msg.additional)))
    for q in msg.question:
        out += q.name._wire
        out += struct.pack("!HH", q.rtype, q.rclass)
    for section in (msg.answers, msg.authority, msg.additional):
        for rr in section:
            out += _oracle_record(rr)
    if len(out) > wire.MAX_MESSAGE_SIZE:
        raise OversizeMessage(f"{len(out)} bytes exceeds {wire.MAX_MESSAGE_SIZE}")
    return bytes(out)


def _oracle_name(data, offset):
    pos = start = offset
    runs = None
    total = 1
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
            if total + pos - start > wire.MAX_NAME_WIRE_LENGTH:
                raise DecodeError("decoded name exceeds 255 wire bytes")
            if runs is None:
                return wire._named(data[start:pos + 1]), pos + 1
            runs.append(data[start:pos + 1])
            return wire._named(b"".join(runs)), end
        elif b0 >= 0xC0:
            if pos + 1 >= size:
                raise TruncatedMessage("pointer missing its second byte")
            target = ((b0 & 0x3F) << 8) | data[pos + 1]
            if end is None:
                end, runs = pos + 2, []
            if target >= pos:
                raise wire.MalformedPointer(f"pointer at {pos} references offset {target}")
            total += pos - start
            if total > wire.MAX_NAME_WIRE_LENGTH:
                raise DecodeError("decoded name exceeds 255 wire bytes")
            runs.append(data[start:pos])
            pos = start = target
        else:
            raise wire.MalformedPointer(f"reserved label type 0x{b0 & 0xC0:02x} at offset {pos}")


def _oracle_rdata_decode(data, rdata_start, rdlength, rtype):
    if rdlength == 0:
        return b""
    end = rdata_start + rdlength
    if rtype in (RType.NS, RType.CNAME):
        name, pos = _oracle_name(data, rdata_start)
        return name if pos <= end else data[rdata_start:end]
    if rtype == RType.MX and rdlength >= 3:
        (pref,) = struct.unpack_from("!H", data, rdata_start)
        name, pos = _oracle_name(data, rdata_start + 2)
        return MxData(pref, name) if pos <= end else data[rdata_start:end]
    if rtype == RType.TXT:
        strings = []
        pos = rdata_start
        while pos < end:
            n = data[pos]
            if pos + 1 + n > end:
                raise TruncatedMessage("TXT character-string overruns rdata")
            strings.append(data[pos + 1:pos + 1 + n])
            pos += 1 + n
        return TxtData(tuple(strings))
    if rtype == RType.SOA:
        mname, pos = _oracle_name(data, rdata_start)
        rname, pos = _oracle_name(data, pos)
        if pos + 20 > end:
            raise TruncatedMessage("SOA numeric fields truncated")
        return SoaData(mname, rname, *struct.unpack_from("!IIIII", data, pos))
    if rtype == RType.TSIG:
        alg, pos = _oracle_name(data, rdata_start)
        if pos + 10 > end:
            raise TruncatedMessage("TSIG fixed fields truncated")
        time_signed = int.from_bytes(data[pos:pos + 6], "big")
        fudge, mac_size = struct.unpack_from("!HH", data, pos + 6)
        pos += 10
        if pos + mac_size + 6 > end:
            raise TruncatedMessage("TSIG MAC truncated")
        mac = data[pos:pos + mac_size]
        pos += mac_size
        original_id, error, other_len = struct.unpack_from("!HHH", data, pos)
        pos += 6
        if pos + other_len > end:
            raise TruncatedMessage("TSIG other data truncated")
        return TsigData(alg, time_signed, fudge, mac, original_id, error,
                        data[pos:pos + other_len])
    return data[rdata_start:end]


def _oracle_read_record(data, offset):
    name, pos = _oracle_name(data, offset)
    if pos + 10 > len(data):
        raise TruncatedMessage("record fixed fields truncated")
    rtype, rclass, ttl, rdlength = struct.unpack_from("!HHIH", data, pos)
    pos += 10
    end = pos + rdlength
    if end > len(data):
        raise TruncatedMessage("rdata truncated")
    if rtype == 1 and rdlength == 4:
        rdata = IPv4Address(data[pos:end])
    elif rtype == 28 and rdlength == 16:
        rdata = IPv6Address(data[pos:end])
    else:
        rdata = _oracle_rdata_decode(data, pos, rdlength, rtype)
    return ResourceRecord(name, rtype, rclass, ttl, rdata), end


_ORACLE_OPCODES = {int(op): op for op in Opcode}
_ORACLE_RCODES = {int(rc): rc for rc in Rcode}


def oracle_decode(data):
    data = bytes(data)
    if len(data) < 12:
        raise TruncatedMessage(f"{len(data)}-byte input is shorter than the 12-byte header")
    msg_id, flags, qdcount, ancount, nscount, arcount = struct.unpack_from("!HHHHHH", data, 0)
    opcode = _ORACLE_OPCODES.get((flags >> 11) & 0xF)
    if opcode is None:
        raise wire.BadOpcode(f"opcode {(flags >> 11) & 0xF} outside {{0, 5}}")
    rcode = _ORACLE_RCODES.get(flags & 0xF)
    if rcode is None:
        raise DecodeError(f"unassigned rcode {flags & 0xF}")
    pos = 12
    question = []
    for _ in range(qdcount):
        name, pos = _oracle_name(data, pos)
        if pos + 4 > len(data):
            raise TruncatedMessage("question fixed fields truncated")
        rtype, rclass = struct.unpack_from("!HH", data, pos)
        pos += 4
        question.append(Question(name, rtype, rclass))
    sections = []
    for count in (ancount, nscount, arcount):
        records = []
        for _ in range(count):
            rr, pos = _oracle_read_record(data, pos)
            records.append(rr)
        sections.append(tuple(records))
    return DnsMessage(msg_id, opcode, rcode, bool(flags & 0x8000), bool(flags & 0x0400),
                      tuple(question), *sections, flags & 0x03F0)


# --- field-for-field, type-for-type comparison ---


def _same_value(a, b) -> bool:
    if type(a) is not type(b):
        return False
    if isinstance(a, DnsName):
        # the same bytes, and the key shared with the wire bytes exactly when it was
        return a._wire == b._wire and a._key == b._key and \
            (a._key is a._wire) == (b._key is b._wire)
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(_same_value, a, b))
    if hasattr(a, "__dataclass_fields__"):
        return all(_same_value(getattr(a, f), getattr(b, f)) for f in a.__dataclass_fields__)
    return a == b


def _outcome(decode, data):
    try:
        return decode(data)
    except DecodeError as exc:
        return type(exc)


def assert_decodes_alike(data):
    got, expected = _outcome(decode_message, data), _outcome(oracle_decode, data)
    if isinstance(expected, type):
        assert got is expected, f"{got!r} instead of {expected.__name__}"
    else:
        assert _same_value(got, expected), (got, expected)


# --- drawn messages ---

_labels = st.one_of(
    st.sampled_from([b"www", b"Example", b"COM", b"ns1", b"a.b", b"x"]),
    st.binary(min_size=1, max_size=12),  # any byte: ".", upper case, 0x00, 0xC0
    st.binary(min_size=40, max_size=63))


@st.composite
def _names(draw, room: int = 255):
    labels, size = [], 1
    for label in draw(st.lists(_labels, max_size=5)):
        if size + 1 + len(label) > room:
            break
        labels.append(label)
        size += 1 + len(label)
    return DnsName(labels)


_u16, _u32 = st.integers(0, 0xFFFF), st.integers(0, 0xFFFFFFFF)
_KNOWN = {int(t) for t in RType}


@st.composite
def _rdata(draw):
    """(rtype, rdata) of every kind the codec knows, and of none."""
    kind = draw(st.sampled_from(["A", "AAAA", "NS", "CNAME", "MX", "TXT", "SOA", "TSIG",
                                 "opaque", "off-length", "empty"]))
    if kind == "A":
        return RType.A, IPv4Address(draw(_u32))
    if kind == "AAAA":
        return RType.AAAA, IPv6Address(draw(st.integers(0, 2**128 - 1)))
    if kind in ("NS", "CNAME"):
        return RType[kind], draw(_names())
    if kind == "MX":
        return RType.MX, MxData(draw(_u16), draw(_names()))
    if kind == "TXT":
        return RType.TXT, TxtData(tuple(draw(st.lists(st.binary(max_size=300), max_size=3))))
    if kind == "SOA":
        return RType.SOA, SoaData(draw(_names(120)), draw(_names(120)),
                                  *(draw(_u32) for _ in range(5)))
    if kind == "TSIG":
        return RType.TSIG, TsigData(draw(_names()), draw(st.integers(0, 2**48 - 1)), draw(_u16),
                                    draw(st.binary(max_size=40)), draw(_u16), draw(_u16),
                                    draw(st.binary(max_size=12)))
    if kind == "opaque":
        rtype = draw(st.integers(0, 0xFFFF).filter(lambda t: t not in _KNOWN))
        return rtype, draw(st.binary(max_size=40))
    if kind == "off-length":  # a known type whose rdata is not of its length
        rtype = draw(st.sampled_from([RType.A, RType.AAAA, RType.MX, RType.SOA, RType.TSIG]))
        return rtype, draw(st.binary(min_size=1, max_size=20).filter(lambda b: len(b) not in (4, 16)))
    return draw(st.sampled_from(list(RType))), b""


@st.composite
def _records(draw):
    rtype, rdata = draw(_rdata())
    rtype = draw(st.sampled_from([rtype, int(rtype)]))  # an enum member or a plain int
    rclass = draw(st.sampled_from([RClass.IN, RClass.ANY, RClass.NONE, 3]))
    return ResourceRecord(draw(_names()), rtype, rclass, draw(_u32), rdata)


def _near_copy(rr: ResourceRecord) -> ResourceRecord:
    """``rr`` with the last bit of its wire form flipped, where that is its
    rdata's last bit, and with another TTL elsewhere."""
    rdata = rr.rdata
    if isinstance(rdata, IPv4Address):
        rdata = IPv4Address(int(rdata) ^ 1)
    elif isinstance(rdata, bytes) and rdata:
        rdata = rdata[:-1] + bytes((rdata[-1] ^ 1,))
    else:
        return ResourceRecord(rr.name, rr.rtype, rr.rclass, rr.ttl ^ 1, rdata)
    return ResourceRecord(rr.name, rr.rtype, rr.rclass, rr.ttl, rdata)


@st.composite
def _section(draw, size: int):
    """Up to ``size`` records, now and then with the first repeated further on,
    as an IXFR diff repeats its new SOA, or all but repeated."""
    records = draw(st.lists(_records(), max_size=size))
    if records and draw(st.booleans()):
        copy = draw(st.sampled_from([records[0], _near_copy(records[0])]))
        records.insert(draw(st.integers(1, len(records))), copy)
    return tuple(records)


@st.composite
def messages(draw):
    return DnsMessage(
        id=draw(_u16),
        opcode=draw(st.sampled_from([Opcode.QUERY, Opcode.UPDATE, 0, 5])),
        rcode=draw(st.sampled_from([*Rcode, 3])),
        is_response=draw(st.booleans()),
        authoritative=draw(st.booleans()),
        question=tuple(Question(draw(_names()), draw(_u16), draw(_u16))
                       for _ in range(draw(st.integers(0, 2)))),
        answers=draw(_section(3)),
        authority=draw(_section(3)),
        additional=draw(_section(2)),
        extra_flags=draw(_u16),
    )


def _encoded(msg):
    try:
        return oracle_encode(msg), None
    except WireError as exc:
        return None, type(exc)


def _compressed(blob: bytes, choices) -> bytes:
    """``blob`` with names written as pointers to earlier copies of a suffix.

    Walks the message as the oracle reads it and rewrites every name whose
    suffix was seen before, as far as ``choices`` (a list of booleans, one per
    name) allows. Rdata lengths are fixed up. Returns ``blob`` for a message
    that does not decode."""
    try:
        msg = oracle_decode(blob)
    except DecodeError:
        return blob
    out = bytearray(blob[:12])
    seen: dict[bytes, int] = {}
    turn = iter(choices)

    def put_name(name: DnsName) -> None:
        w, pos = name._wire, 0
        while w[pos]:
            suffix = w[pos:]
            if suffix in seen and next(turn, False):
                out.extend(w[:pos])
                out.extend(struct.pack("!H", 0xC000 | seen[suffix]))
                return
            if len(out) + pos < 0x3FFF:
                seen.setdefault(suffix, len(out) + pos)
            pos += w[pos] + 1
        out.extend(w)

    for q in msg.question:
        put_name(q.name)
        out += struct.pack("!HH", q.rtype, q.rclass)
    for rr in msg.answers + msg.authority + msg.additional:
        put_name(rr.name)
        head = len(out)
        out += struct.pack("!HHIH", rr.rtype, rr.rclass, rr.ttl, 0)
        rdata, start = rr.rdata, len(out)
        if isinstance(rdata, DnsName):
            put_name(rdata)
        elif isinstance(rdata, MxData):
            out += struct.pack("!H", rdata.preference)
            put_name(rdata.exchange)
        elif isinstance(rdata, SoaData):
            put_name(rdata.mname)
            put_name(rdata.rname)
            out += struct.pack("!IIIII", rdata.serial, rdata.refresh, rdata.retry, rdata.expire,
                               rdata.minimum)
        else:
            out += _oracle_rdata(rr.rtype, rdata)
        struct.pack_into("!H", out, head + 8, len(out) - start)
    return bytes(out)


# two equal MX records whose exchange runs past their rdata: the first into
# the second, opaque, the second off the end of the message
_OVERRUN_MX = ResourceRecord(DnsName.from_text("."), RType.MX, RClass.IN, 0, b"\x00\x00\x02\x00\x00")


@given(messages(), st.lists(st.booleans(), max_size=40))
@settings(max_examples=250, deadline=None)
@example(DnsMessage(0, additional=(_OVERRUN_MX, _OVERRUN_MX)), [])
def test_codec_matches_the_oracle_on_messages(msg, choices):
    blob, error = _encoded(msg)
    if error is not None:
        with pytest.raises(error):
            encode_message(msg)
        return
    assert encode_message(msg) == blob
    assert_decodes_alike(blob)
    assert_decodes_alike(_compressed(blob, choices))


@given(messages(), st.lists(st.booleans(), max_size=40), st.integers(0, 2**16),
       st.sampled_from(["truncate", "flip", "overwrite"]), st.integers(0, 255))
@settings(max_examples=250, deadline=None)
@example(DnsMessage(1, question=(Question(DnsName.from_text("a.example"), 1, 1),)), [], 12,
         "overwrite", 0xC0)  # a pointer to the byte after itself
def test_decoder_matches_the_oracle_on_damaged_bytes(msg, choices, where, how, value):
    blob, error = _encoded(msg)
    if error is not None:
        return
    data = bytearray(_compressed(blob, choices))
    at = where % len(data)
    if how == "truncate":
        del data[at:]
    elif how == "flip":
        data[at] ^= 1 << (value % 8)
    else:
        data[at] = value
    assert_decodes_alike(bytes(data))


def _query_wire(name_wire: bytes, qtype: int = 1) -> bytes:
    return struct.pack("!HHHHHH", 7, 0, 1, 0, 0, 0) + name_wire + struct.pack("!HH", qtype, 1)


@given(st.lists(st.binary(min_size=1, max_size=63), min_size=1, max_size=8), st.integers(0, 3))
@settings(max_examples=200, deadline=None)
@example([b"a" * 63] * 4, 0)  # 257 bytes, uncompressed
@example([b"a" * 63] * 3 + [b"b" * 62], 0)  # 255 bytes, the most a name may have
def test_names_near_the_length_bound(labels, compressed_tail):
    """Raw names of any length, uncompressed, or with their last labels
    behind a pointer to a copy of them in an earlier question."""
    name_wire = b"".join(bytes((len(label),)) + label for label in labels) + b"\0"
    assert_decodes_alike(_query_wire(name_wire))
    split = sum(len(label) + 1 for label in labels[:max(0, len(labels) - compressed_tail)])
    first = name_wire[split:]
    second = name_wire[:split] + struct.pack("!H", 0xC000 | 12)
    data = struct.pack("!HHHHHH", 7, 0, 2, 0, 0, 0) + first + b"\0\1\0\1" + second + b"\0\1\0\1"
    assert_decodes_alike(data)


@given(st.integers(0, 0x3FFF), st.integers(0, 3))
@settings(max_examples=100, deadline=None)
@example(12, 0)  # a pointer to itself
@example(14, 0)  # a pointer ahead of itself, to a byte that reads as the root
def test_pointers_forward_and_back(target, owner_labels):
    """A record owner of ``owner_labels`` labels ending in a pointer to
    ``target``: back into the question name, to itself, or ahead of it."""
    question = b"\3www\7example\3com\0"
    owner = b"\1x" * owner_labels + struct.pack("!H", 0xC000 | target)
    record = owner + struct.pack("!HHIH", 1, 1, 300, 4) + b"\xc0\0\2\1"
    data = struct.pack("!HHHHHH", 7, 0x8000, 1, 1, 0, 0) + question + b"\0\1\0\1" + record
    assert_decodes_alike(data)
    data = struct.pack("!HHHHHH", 7, 0, 1, 0, 0, 0) + owner + b"\0\1\0\1"
    assert_decodes_alike(data)


def test_an_empty_section_is_the_empty_tuple():
    msg = decode_message(encode_message(DnsMessage(1)))
    assert msg.question == msg.answers == msg.authority == msg.additional == ()
    assert type(msg.answers) is tuple and msg.opcode is Opcode.QUERY and msg.rcode is Rcode.NOERROR
