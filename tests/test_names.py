"""DnsName against a reference model that holds a name as a tuple of labels.

The model is the plain reading of RFC 1035 §3.1 and RFC 4343: a name is
its labels, compared without ASCII case, at most 63 bytes a label and 255
wire bytes a name. Names are drawn in mixed case, with binary labels whose
bytes look like length bytes, and up to 255 bytes long; pairs are drawn so
that one is often the other recased, a suffix of it, or a name whose wire
bytes end the other's away from a label boundary.
"""

import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zptoolkit.wire import (MAX_LABEL_LENGTH, MAX_NAME_WIRE_LENGTH, DecodeError, DnsMessage,
                            DnsName, InvalidLabel, Question, RClass, ResourceRecord, RType,
                            decode_message, encode_message)

# letters in both cases, bytes that read as length bytes (0x01-0x3F), a dot,
# a backslash and a byte outside ASCII
_BYTES = [0x01, 0x02, 0x03, 0x3F, ord("."), ord("\\"), 0xC8, ord("-"), ord("0"),
          ord("a"), ord("A"), ord("b"), ord("B"), ord("m"), ord("M")]
_short = st.lists(st.sampled_from(_BYTES), min_size=1, max_size=3).map(bytes)
# a short label repeated to 40-63 bytes: long names without drawing every byte
_long = st.tuples(_short, st.integers(40, MAX_LABEL_LENGTH)).map(lambda t: (t[0] * 63)[:t[1]])
_labels = st.one_of(_short, _short, _short, _long)


def wire_of(labels) -> bytes:
    return b"".join(bytes((len(label),)) + label for label in labels) + b"\x00"


def text_of(label: bytes) -> str:
    """A label in master-file text (RFC 1035 §5.1): ``\\`` and ``.`` escaped as
    ``\\\\`` and ``\\.``, a byte outside 0x21-0x7E as ``\\DDD``, its decimal value."""
    return "".join("\\" + chr(b) if b in b"\\." else chr(b) if 0x21 <= b <= 0x7E
                   else f"\\{b:03d}" for b in label)


def valid(labels) -> bool:
    return all(0 < len(label) <= MAX_LABEL_LENGTH for label in labels) \
        and len(wire_of(labels)) <= MAX_NAME_WIRE_LENGTH


def key_of(labels) -> tuple:
    return tuple(label.lower() for label in labels)


def below(a, b) -> bool:
    """True when ``a`` equals ``b`` or sits below it."""
    return len(a) >= len(b) and key_of(a[len(a) - len(b):]) == key_of(b)


def recased(labels, flips) -> tuple:
    return tuple(label.swapcase() if flip else label for label, flip in zip(labels, flips))


label_tuples = st.lists(_labels, max_size=8).map(tuple).filter(valid)


@st.composite
def pairs(draw):
    """Two label tuples, the second often related to the first."""
    a = draw(label_tuples)
    how = draw(st.sampled_from(["any", "recased", "suffix", "embedded", "same"]))
    if how == "recased":
        b = recased(a, draw(st.lists(st.booleans(), min_size=len(a), max_size=len(a))))
    elif how == "suffix":
        b = a[draw(st.integers(0, len(a))):]
    elif how == "same":
        b = a
    elif how == "embedded":
        # a label that ends in another name's wire bytes, less its root byte:
        # the two wire forms share a tail that starts inside a label
        b = draw(label_tuples)
        inner = draw(_short) + wire_of(b)[:-1]
        a = (inner,) + a if valid((inner,) + a) else a
    else:
        b = draw(label_tuples)
    return a, b


@given(pairs())
@example(((b"x\x03com",), (b"com",)))
@example(((b"Example", b"COM"), (b"example", b"com")))
@settings(max_examples=400, deadline=None)
def test_names_match_the_label_tuple_model(pair):
    a, b = pair
    x, y = DnsName(a), DnsName(b)
    for labels, name in ((a, x), (b, y)):
        assert name.labels == labels
        assert name == DnsName(key_of(labels)) and hash(name) == hash(DnsName(key_of(labels)))
        assert len(name) == len(labels)
        assert name.to_wire() == wire_of(labels)
        assert name.to_text() == (".".join(text_of(l) for l in labels) or ".")
        assert name.parent() == DnsName(labels[1:])
        assert name.parent().labels == labels[1:]
        assert [s.labels for s in name.suffixes()] == [labels[i:] for i in range(len(labels) + 1)]
    assert (x == y) == (key_of(a) == key_of(b))
    if x == y:
        assert hash(x) == hash(y)
    assert (x < y) == (key_of(a) < key_of(b))
    assert (y < x) == (key_of(b) < key_of(a))
    assert x.is_subdomain_of(y) == below(a, b)
    assert y.is_subdomain_of(x) == below(b, a)
    assert x.labels_below(y) == (len(a) - len(b) if below(a, b) else -1)
    assert sorted([x, y]) == [DnsName(t) for t in sorted([a, b], key=key_of)]


@given(pairs())
@example(((b"a.b", b"example"), (b"a", b"b", b"example")))
@example(((b"a\\", b"x"), (b"a\\.x",)))
@settings(max_examples=300, deadline=None)
def test_text_is_one_to_one_and_reads_back(pair):
    """Two names print the same only when their labels are the same bytes, and
    a name's text reads back as the name, case kept."""
    a, b = pair
    x, y = DnsName(a), DnsName(b)
    assert (x.to_text() == y.to_text()) == (a == b)
    for labels, name in ((a, x), (b, y)):
        assert DnsName.from_text(name.to_text()).labels == labels
        assert DnsName.from_text(name.to_text() + ".").labels == labels


_any_labels = st.lists(st.binary(min_size=1, max_size=MAX_LABEL_LENGTH), max_size=4).map(tuple) \
    .filter(valid)


@given(_any_labels)
@example((b"\xc8t\xc3", b"example"))
@example((b"\x00", b" ", b"\x7f", b"\\065", b"a.b"))
@settings(max_examples=300, deadline=None)
def test_every_name_reads_back_from_its_text(labels):
    """Over all 256 byte values: the text is printable ASCII without blanks, and
    reads back as the name's labels, case kept (RFC 1035 §5.1)."""
    text = DnsName(labels).to_text()
    assert text.isascii() and text.isprintable() and " " not in text
    assert DnsName.from_text(text).labels == labels


@pytest.mark.parametrize("text", ["a\\", "a\\1", "a\\12.b", "a\\256", "a\\12x"])
def test_an_escape_without_a_character_or_three_digits_is_refused(text):
    with pytest.raises(InvalidLabel, match="backslash"):
        DnsName.from_text(text)


@given(label_tuples, _labels)
@settings(max_examples=300, deadline=None)
def test_prepend_and_construction_check_the_bounds(labels, label):
    name = DnsName(labels)
    longer = (label,) + labels
    if valid(longer):
        assert name.prepend(label).labels == longer
        assert name.prepend(label) == DnsName(longer)
    else:
        with pytest.raises(InvalidLabel):
            name.prepend(label)
        with pytest.raises(InvalidLabel):
            DnsName(longer)
    with pytest.raises(InvalidLabel):
        name.prepend(b"")
    with pytest.raises(InvalidLabel):
        name.prepend(b"x" * (MAX_LABEL_LENGTH + 1))


@given(label_tuples, label_tuples, st.data())
@settings(max_examples=200, deadline=None)
def test_names_behind_pointers_decode_equal_and_encode_uncompressed(first, prefix, data):
    # the question holds ``first``; the answer's owner is ``prefix`` and then a
    # pointer to one of ``first``'s suffixes, each recased now and then
    start = data.draw(st.integers(0, len(first)))
    flips = data.draw(st.lists(st.booleans(), min_size=len(prefix), max_size=len(prefix)))
    owner = recased(prefix, flips)
    offset = 12 + len(wire_of(first[:start])) - 1
    blob = (struct.pack("!HHHHHH", 1, 0x8000, 1, 1, 0, 0)
            + wire_of(first) + struct.pack("!HH", RType.A, RClass.IN)
            + wire_of(owner)[:-1] + struct.pack("!H", 0xC000 | offset)
            + struct.pack("!HHIH", RType.A, RClass.IN, 60, 4) + bytes(4))
    expected = owner + first[start:]
    if not valid(expected):
        with pytest.raises(DecodeError):
            decode_message(blob)
        return
    msg = decode_message(blob)
    name = msg.answers[0].name
    assert name == DnsName(expected) and hash(name) == hash(DnsName(expected))
    assert name.labels == expected and name.to_wire() == wire_of(expected)
    assert encode_message(msg) == encode_message(DnsMessage(
        id=1, is_response=True, question=(Question(DnsName(first), RType.A),),
        answers=(ResourceRecord(DnsName(expected), RType.A, RClass.IN, 60, msg.answers[0].rdata),)))
