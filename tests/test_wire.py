"""Wire codec: round-trips, boundary cases, make_update semantics, fuzz totality."""

import dataclasses
import struct
from ipaddress import IPv4Address, IPv6Address

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zptoolkit.wire import (
    MAX_MESSAGE_SIZE,
    AddRecord,
    BadOpcode,
    DecodeError,
    DeleteAllAtName,
    DeleteExactRecord,
    DeleteRRset,
    DnsMessage,
    DnsName,
    EmptyChangeList,
    InvalidLabel,
    MalformedPointer,
    MxData,
    Opcode,
    OversizeMessage,
    Question,
    RClass,
    Rcode,
    ResourceRecord,
    RType,
    SoaData,
    TruncatedMessage,
    TxtData,
    WireError,
    decode_message,
    encode_message,
    encode_stream,
    make_query,
    make_update,
)

EXAMPLE = DnsName.from_text("example.com")
SENTINEL = DnsName.from_text("researchstudyzp.example.com")
PROBE_IP = IPv4Address("192.0.2.80")


class TestDnsName:
    def test_case_insensitive_equality_and_hash(self):
        a = DnsName.from_text("ReSearchStudyZP.Example.COM")
        b = DnsName.from_text("researchstudyzp.example.com")
        assert a == b
        assert hash(a) == hash(b)

    def test_text_round_trip(self):
        assert SENTINEL.to_text() == "researchstudyzp.example.com"
        assert DnsName.from_text("example.com.") == EXAMPLE
        assert DnsName(()).to_text() == "."

    def test_label_length_rules(self):
        with pytest.raises(InvalidLabel):
            DnsName.from_text("a." + "b" * 64 + ".com")
        with pytest.raises(InvalidLabel):
            DnsName.from_text("a..com")
        DnsName.from_text("a." + "b" * 63 + ".com")  # boundary is fine

    def test_total_name_length_rule(self):
        label = "a" * 63
        with pytest.raises(InvalidLabel):
            DnsName.from_text(".".join([label] * 4))

    def test_subdomain_and_parent(self):
        assert SENTINEL.is_subdomain_of(EXAMPLE)
        assert EXAMPLE.is_subdomain_of(EXAMPLE)
        assert not EXAMPLE.is_subdomain_of(SENTINEL)
        assert SENTINEL.parent() == EXAMPLE
        assert EXAMPLE.prepend("www").to_text() == "www.example.com"


class TestEncodeDecode:
    def test_minimal_query_is_29_bytes_and_round_trips(self):
        msg = make_query(EXAMPLE, RType.A, msg_id=0x1234)
        blob = encode_message(msg)
        assert len(blob) == 29
        assert decode_message(blob) == msg

    def test_update_round_trip(self):
        rr = ResourceRecord(SENTINEL, RType.A, RClass.IN, 120, PROBE_IP)
        msg = make_update(EXAMPLE, [AddRecord(rr)], msg_id=7)
        assert decode_message(encode_message(msg)) == msg

    def test_oversize_label_rejected_at_encode(self):
        # no invalid name can be built, so none can reach the encoder
        with pytest.raises(InvalidLabel):
            DnsName((b"x" * 66,) + EXAMPLE.labels)
        with pytest.raises(InvalidLabel):
            DnsName((b"",) + EXAMPLE.labels)
        with pytest.raises(InvalidLabel):
            EXAMPLE.prepend(b"x" * 64)
        # 63-byte labels: three and the root make 193 wire bytes, a fourth 257
        long = DnsName.from_text(".".join(["a" * 63] * 3))
        assert len(long.to_wire()) == 193
        assert len(long.prepend(b"b" * 61).to_wire()) == 255
        with pytest.raises(InvalidLabel):
            long.prepend(b"b" * 62)
        with pytest.raises(InvalidLabel):
            DnsName((b"b" * 62,) + long.labels)

    def test_oversize_message(self):
        txt = ResourceRecord(EXAMPLE, RType.TXT, RClass.IN, 60,
                             TxtData((b"x" * 255,) * 200))
        msg = DnsMessage(id=1, question=(Question(EXAMPLE, RType.TXT),),
                         answers=(txt,) * 2)
        with pytest.raises(OversizeMessage):
            encode_message(msg)

    def test_oversize_rdata(self):
        txt = ResourceRecord(EXAMPLE, RType.TXT, RClass.IN, 60,
                             TxtData((b"x" * 255,) * 256))
        msg = DnsMessage(id=1, answers=(txt,))
        with pytest.raises(OversizeMessage):
            encode_message(msg)

    def test_stream_splits_records_in_order_across_messages(self):
        head = DnsMessage(id=7, is_response=True, question=(Question(EXAMPLE, RType.AXFR),))
        records = [ResourceRecord(EXAMPLE.prepend(f"h{i}"), RType.A, RClass.IN, 60, PROBE_IP)
                   for i in range(3000)]
        payloads = encode_stream(head, records)
        assert len(payloads) == 2 and all(len(p) <= MAX_MESSAGE_SIZE for p in payloads)
        messages = [decode_message(p) for p in payloads]
        assert all((m.id, m.question) == (head.id, head.question) for m in messages)
        assert [rr for m in messages for rr in m.answers] == records
        assert encode_stream(head, records[:3]) == [
            encode_message(DnsMessage(id=7, is_response=True, question=head.question,
                                      answers=tuple(records[:3])))]

    def test_stream_record_too_large_for_any_message(self):
        # 65,511 bytes of rdata: a legal record, but over 64 KB with a header and question
        txt = ResourceRecord(EXAMPLE, RType.TXT, RClass.IN, 60,
                             TxtData((b"x" * 255,) * 255 + (b"x" * 230,)))
        with pytest.raises(OversizeMessage):
            encode_stream(DnsMessage(id=1, question=(Question(EXAMPLE, RType.AXFR),)), [txt])

    def test_truncated_header(self):
        with pytest.raises(TruncatedMessage):
            decode_message(b"\x00" * 11)

    def test_bad_opcode(self):
        blob = bytearray(encode_message(make_query(EXAMPLE, RType.A, msg_id=1)))
        blob[2] = (blob[2] & ~0x78) | (4 << 3)  # opcode NOTIFY
        with pytest.raises(BadOpcode):
            decode_message(bytes(blob))

    def test_compression_pointer_to_offset_12(self):
        # hand-built per RFC 1035 §4.1.4: one question (example.com A/IN) and
        # one answer whose owner is a pointer to offset 12, where the
        # question name starts
        blob = (
            struct.pack("!HHHHHH", 0x0001, 0x8000, 1, 1, 0, 0)
            + b"\x07example\x03com\x00" + struct.pack("!HH", 1, 1)
            + b"\xc0\x0c" + struct.pack("!HHIH", 1, 1, 60, 4) + PROBE_IP.packed
        )
        msg = decode_message(blob)
        assert msg.answers[0].name == EXAMPLE
        assert msg.answers[0].rdata == PROBE_IP

    def test_forward_pointer_rejected(self):
        blob = (
            struct.pack("!HHHHHH", 1, 0, 1, 0, 0, 0)
            + b"\xc0\x20" + struct.pack("!HH", 1, 1)
        )
        with pytest.raises(MalformedPointer):
            decode_message(blob)

    def test_self_pointer_rejected(self):
        blob = (
            struct.pack("!HHHHHH", 1, 0, 1, 0, 0, 0)
            + b"\xc0\x0c" + struct.pack("!HH", 1, 1)
        )
        with pytest.raises(MalformedPointer):
            decode_message(blob)

    def test_pointer_loop_through_a_label_rejected(self):
        # offset 12 holds label "a", then a pointer back to offset 12: every
        # pointer goes backwards, yet the name never ends
        blob = (
            struct.pack("!HHHHHH", 1, 0, 1, 0, 0, 0)
            + b"\x01a\xc0\x0c" + struct.pack("!HH", 1, 1)
        )
        with pytest.raises(DecodeError):
            decode_message(blob)

    @pytest.mark.parametrize("pointer", [False, True])
    def test_decoded_name_over_255_bytes_rejected(self, pointer):
        # four 63-byte labels and the root make 257 wire bytes; with a pointer
        # the second question's name takes its last two labels from the first
        label = b"\x3f" + b"x" * 63
        fixed = struct.pack("!HH", 1, 1)
        if pointer:
            body = label * 2 + b"\x00" + fixed + label * 2 + b"\xc0\x0c" + fixed
        else:
            body = label * 4 + b"\x00" + fixed
        blob = struct.pack("!HHHHHH", 1, 0, 2 if pointer else 1, 0, 0, 0) + body
        with pytest.raises(DecodeError, match="exceeds 255"):
            decode_message(blob)
        longest = label * 3 + b"\x3d" + b"x" * 61 + b"\x00"
        blob = struct.pack("!HHHHHH", 1, 0, 1, 0, 0, 0) + longest + fixed
        assert decode_message(blob).question[0].name.to_wire() == longest

    def test_label_reached_through_a_pointer_ending_at_the_message_end(self):
        # the pointer at offset 12 names offset 11, the header's last byte: a
        # 2-byte label there spans the pointer itself and ends the message
        blob = struct.pack("!HHHHHH", 1, 0, 1, 0, 0, 2) + b"\xc0\x0b"
        with pytest.raises(TruncatedMessage, match="name ran off"):
            decode_message(blob)

    @pytest.mark.parametrize("rtype, rdata, match", [
        # root names, then 19 of the 20 bytes of serial, refresh, retry, expire, minimum
        (RType.SOA, b"\x00\x00" + b"\x00" * 19, "SOA numeric fields"),
        # a root algorithm name, then 9 of the 10 bytes of time, fudge and MAC size
        (RType.TSIG, b"\x00" + b"\x00" * 9, "TSIG fixed fields"),
    ])
    def test_rdata_short_of_its_fixed_fields(self, rtype, rdata, match):
        blob = (struct.pack("!HHHHHH", 1, 0, 0, 0, 0, 1)
                + b"\x00" + struct.pack("!HHIH", rtype, RClass.ANY, 0, len(rdata)) + rdata)
        with pytest.raises(TruncatedMessage, match=match):
            decode_message(blob)

    def test_rdata_the_encoder_cannot_carry(self):
        long_string = ResourceRecord(EXAMPLE, RType.TXT, RClass.IN, 60, TxtData((b"x" * 256,)))
        untyped = ResourceRecord(EXAMPLE, 999, RClass.IN, 60, PROBE_IP)
        for rr in (long_string, untyped):
            with pytest.raises(WireError):
                encode_message(DnsMessage(id=1, answers=(rr,)))

    def test_unknown_rtype_survives_round_trip_as_opaque(self):
        rr = ResourceRecord(EXAMPLE, 999, RClass.IN, 60, b"\x01\x02\x03")
        msg = DnsMessage(id=5, question=(Question(EXAMPLE, 999),), answers=(rr,))
        assert decode_message(encode_message(msg)) == msg

    def test_typed_rdata_round_trips(self):
        apex = EXAMPLE
        records = (
            ResourceRecord(apex, RType.AAAA, RClass.IN, 60, IPv6Address("2001:db8::80")),
            ResourceRecord(apex, RType.NS, RClass.IN, 60, apex.prepend("ns1")),
            ResourceRecord(apex, RType.CNAME, RClass.IN, 60, DnsName.from_text("other.test")),
            ResourceRecord(apex, RType.MX, RClass.IN, 60, MxData(10, apex.prepend("mail"))),
            ResourceRecord(apex, RType.TXT, RClass.IN, 60, TxtData.from_text("v=spf1", "-all")),
            ResourceRecord(apex, RType.SOA, RClass.IN, 60,
                           SoaData(apex.prepend("ns1"), apex.prepend("hostmaster"),
                                   7, 1, 2, 3, 4)),
        )
        msg = DnsMessage(id=9, question=(Question(apex, RType.ANY),), answers=records)
        assert decode_message(encode_message(msg)) == msg


class TestMakeUpdate:
    def test_add_record_shape(self):
        rr = ResourceRecord(SENTINEL, RType.A, RClass.IN, 120, PROBE_IP)
        msg = make_update(EXAMPLE, [AddRecord(rr)], msg_id=3)
        assert msg.opcode == Opcode.UPDATE
        assert msg.question == (Question(EXAMPLE, RType.SOA, RClass.IN),)
        (update,) = msg.updates
        assert (update.rclass, update.ttl, update.rdata) == (RClass.IN, 120, PROBE_IP)

    def test_delete_rrset_shape(self):
        msg = make_update(EXAMPLE, [DeleteRRset(SENTINEL, RType.A)], msg_id=3)
        (update,) = msg.updates
        assert (update.rclass, update.ttl, update.rdata) == (RClass.ANY, 0, b"")

    def test_delete_exact_and_delete_all(self):
        rr = ResourceRecord(SENTINEL, RType.A, RClass.IN, 120, PROBE_IP)
        msg = make_update(EXAMPLE, [DeleteExactRecord(rr), DeleteAllAtName(SENTINEL)], msg_id=3)
        exact, all_at = msg.updates
        assert (exact.rclass, exact.ttl, exact.rdata) == (RClass.NONE, 0, PROBE_IP)
        assert (all_at.rtype, all_at.rclass, all_at.rdata) == (RType.ANY, RClass.ANY, b"")

    def test_empty_change_list(self):
        with pytest.raises(EmptyChangeList):
            make_update(EXAMPLE, [])

    def test_root_zone_and_non_change_refused(self):
        add = AddRecord(ResourceRecord(SENTINEL, RType.A, RClass.IN, 120, PROBE_IP))
        root = DnsName(())
        with pytest.raises(InvalidLabel):
            make_update(root, [add])
        with pytest.raises(TypeError):
            make_update(EXAMPLE, [add, SENTINEL])

    def test_message_id_from_injected_rng(self):
        import random

        a = make_update(EXAMPLE, [DeleteRRset(SENTINEL, RType.A)], rng=random.Random(42))
        b = make_update(EXAMPLE, [DeleteRRset(SENTINEL, RType.A)], rng=random.Random(42))
        assert a.id == b.id


# --- property tests ---

_labels = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789-", min_size=1, max_size=12)
_names = st.lists(_labels, min_size=1, max_size=4).map(
    lambda ls: DnsName.from_text(".".join(ls)))
_ttls = st.integers(min_value=0, max_value=2**32 - 1)


@st.composite
def _records(draw):
    name = draw(_names)
    kind = draw(st.sampled_from(["A", "AAAA", "NS", "CNAME", "MX", "TXT", "SOA", "opaque"]))
    ttl = draw(_ttls)
    if kind == "A":
        return ResourceRecord(name, RType.A, RClass.IN, ttl,
                              IPv4Address(draw(st.integers(0, 2**32 - 1))))
    if kind == "AAAA":
        return ResourceRecord(name, RType.AAAA, RClass.IN, ttl,
                              IPv6Address(draw(st.integers(0, 2**128 - 1))))
    if kind in ("NS", "CNAME"):
        return ResourceRecord(name, RType[kind], RClass.IN, ttl, draw(_names))
    if kind == "MX":
        return ResourceRecord(name, RType.MX, RClass.IN, ttl,
                              MxData(draw(st.integers(0, 65535)), draw(_names)))
    if kind == "TXT":
        strings = draw(st.lists(st.binary(min_size=0, max_size=40), min_size=1, max_size=3))
        return ResourceRecord(name, RType.TXT, RClass.IN, ttl, TxtData(tuple(strings)))
    if kind == "SOA":
        nums = [draw(st.integers(0, 2**32 - 1)) for _ in range(5)]
        return ResourceRecord(name, RType.SOA, RClass.IN, ttl,
                              SoaData(draw(_names), draw(_names), *nums))
    return ResourceRecord(name, draw(st.integers(256, 65000)), RClass.IN, ttl,
                          draw(st.binary(min_size=0, max_size=32)))


@st.composite
def messages(draw):
    opcode = draw(st.sampled_from([Opcode.QUERY, Opcode.UPDATE]))
    question = (Question(draw(_names), draw(st.sampled_from([int(RType.A), int(RType.SOA),
                                                             int(RType.ANY)]))),)
    sections = [tuple(draw(st.lists(_records(), max_size=3))) for _ in range(3)]
    return DnsMessage(
        id=draw(st.integers(0, 0xFFFF)),
        opcode=opcode,
        rcode=draw(st.sampled_from(list(Rcode))),
        is_response=draw(st.booleans()),
        authoritative=draw(st.booleans()),
        question=question,
        answers=sections[0],
        authority=sections[1],
        additional=sections[2],
    )


@given(messages())
@settings(max_examples=250, deadline=None)
def test_round_trip_property(msg):
    assert decode_message(encode_message(msg)) == msg


def _names_in(msg):
    """Every DnsName a message holds: question and owner names, and names in rdata."""
    for q in msg.question:
        yield q.name
    for rr in msg.answers + msg.authority + msg.additional:
        yield rr.name
        if isinstance(rr.rdata, DnsName):
            yield rr.rdata
        elif isinstance(rr.rdata, MxData):
            yield rr.rdata.exchange
        elif isinstance(rr.rdata, SoaData):
            yield rr.rdata.mname
            yield rr.rdata.rname


def _byte_strings_in(msg):
    """Every label, TXT string and opaque rdata a message holds."""
    for name in _names_in(msg):
        yield from name.labels
    for rr in msg.answers + msg.authority + msg.additional:
        if isinstance(rr.rdata, TxtData):
            yield from rr.rdata.strings
        elif isinstance(rr.rdata, bytes):
            yield rr.rdata


def _recased(name):
    return DnsName.from_text(name.to_text().swapcase())


@given(messages())
@settings(max_examples=200, deadline=None)
def test_decoded_values_match_public_construction(msg):
    # the decoder builds names and records without their public
    # constructors; what it builds must behave exactly like what they build
    blob = encode_message(msg)
    decoded = decode_message(blob)
    for source in (bytearray(blob), memoryview(blob)):
        again = decode_message(source)
        assert again == decoded and hash(again.question) == hash(decoded.question)
        assert all(type(s) is bytes for s in _byte_strings_in(again))
    assert all(type(s) is bytes for s in _byte_strings_in(decoded))
    for name in _names_in(decoded):
        public = _recased(name)
        assert public == name and hash(public) == hash(name)
    records = msg.answers + msg.authority + msg.additional
    for built, rr in zip(records, decoded.answers + decoded.authority + decoded.additional):
        public = ResourceRecord(_recased(rr.name), rr.rtype, rr.rclass, rr.ttl, rr.rdata)
        assert public == rr == built and hash(public) == hash(rr) == hash(built)
    assert dataclasses.replace(decoded, id=decoded.id ^ 1, additional=()) == \
        dataclasses.replace(msg, id=msg.id ^ 1, additional=())


@given(st.binary(min_size=0, max_size=100))
@settings(max_examples=500, deadline=None)
def test_decoder_totality_random_bytes(blob):
    try:
        decode_message(blob)
    except WireError:
        pass  # typed failure is the contract; anything else propagates


@given(messages(), st.integers(min_value=0))
@settings(max_examples=250, deadline=None)
def test_decoder_totality_bit_flips(msg, position):
    blob = bytearray(encode_message(msg))
    blob[position % len(blob)] ^= 1 << (position % 8)
    try:
        decode_message(bytes(blob))
    except WireError:
        pass


@st.composite
def _changes(draw):
    name = draw(_names)
    kind = draw(st.integers(0, 3))
    if kind == 0:
        rr = ResourceRecord(name, RType.A, RClass.IN, draw(_ttls),
                            IPv4Address(draw(st.integers(0, 2**32 - 1))))
        return AddRecord(rr)
    if kind == 1:
        return DeleteRRset(name, draw(st.sampled_from([int(RType.A), int(RType.MX)])))
    if kind == 2:
        rr = ResourceRecord(name, RType.A, RClass.IN, 0,
                            IPv4Address(draw(st.integers(0, 2**32 - 1))))
        return DeleteExactRecord(rr)
    return DeleteAllAtName(name)


@given(_names, st.lists(_changes(), min_size=1, max_size=5), st.integers(0, 0xFFFF))
@settings(max_examples=150, deadline=None)
def test_builder_messages_round_trip(zone, changes, msg_id):
    update = make_update(zone, changes, msg_id=msg_id)
    assert decode_message(encode_message(update)) == update
    query = make_query(zone, RType.A, msg_id=msg_id)
    assert decode_message(encode_message(query)) == query


@given(_names, _names)
@settings(max_examples=100, deadline=None)
def test_name_comparison_consistency(a, b):
    assert (a == b) == (hash(a) == hash(b)) or a != b
    upper = DnsName(tuple(l.upper() for l in a.labels))
    assert upper == a and hash(upper) == hash(a)
