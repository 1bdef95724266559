"""Bus semantics: tap, loss, delay, spoofed-reply routing, UDP endpoint parsing."""

import dataclasses
import random

import pytest

from zptoolkit.transport import (
    ClientEndpoint,
    DatagramBus,
    ManualClock,
    SimDatagram,
    exchange_message,
    parse_endpoint,
)
from zptoolkit.wire import (
    DecodeError,
    DnsName,
    Opcode,
    Question,
    RType,
    decode_message,
    encode_message,
    make_query,
)


def echo_server(address):
    def handler(dgram, now):
        return [SimDatagram(address, dgram.source, b"echo:" + dgram.payload)]

    return handler


def test_exchange_round_trip_and_tap():
    bus = DatagramBus(clock=ManualClock())
    bus.attach("srv", echo_server("srv"))
    client = ClientEndpoint(bus, "cli")
    assert client.exchange(b"hi", "srv", 1.0) == b"echo:hi"
    assert [(e.datagram.source, e.datagram.destination) for e in bus.tap] == [
        ("cli", "srv"), ("srv", "cli")]


def test_loss_produces_timeout_and_advances_clock():
    bus = DatagramBus(clock=ManualClock(), drop_filter=lambda d: d.destination == "srv")
    bus.attach("srv", echo_server("srv"))
    client = ClientEndpoint(bus, "cli")
    assert client.exchange(b"hi", "srv", 2.5) is None
    assert bus.clock.now() == 2.5


def test_random_loss_is_seed_deterministic():
    results = []
    for _ in range(2):
        bus = DatagramBus(clock=ManualClock(), rng=random.Random(3), loss_rate=0.5)
        bus.attach("srv", echo_server("srv"))
        client = ClientEndpoint(bus, "cli")
        results.append([client.exchange(bytes([i]), "srv", 1.0) for i in range(12)])
    assert results[0] == results[1]
    assert any(r is None for r in results[0]) and any(r is not None for r in results[0])


def test_delay_within_deadline_is_delivered_late_but_delivered():
    bus = DatagramBus(clock=ManualClock(), delay_fn=lambda d: 0.2)
    bus.attach("srv", echo_server("srv"))
    client = ClientEndpoint(bus, "cli")
    assert client.exchange(b"hi", "srv", 1.0) == b"echo:hi"
    assert bus.clock.now() == 0.4  # request and reply each took 0.2


def test_delay_past_deadline_is_a_timeout():
    bus = DatagramBus(clock=ManualClock(), delay_fn=lambda d: 3.0)
    received = []
    bus.attach("srv", lambda d, now: received.append((now, d)) or [])
    client = ClientEndpoint(bus, "cli")
    assert client.exchange(b"hi", "srv", 1.0) is None
    assert not received          # still in flight at the deadline
    bus.pump()
    assert received and received[0][0] == 3.0  # the straggler lands later


def test_reply_to_spoofed_source_is_dropped():
    bus = DatagramBus(clock=ManualClock())
    bus.attach("srv", echo_server("srv"))
    client = ClientEndpoint(bus, "cli", allow_spoofing=True)
    assert client.exchange(b"hi", "srv", 1.0, source="someone-else") is None


def test_spoofing_disabled_endpoint_refuses_forged_source():
    bus = DatagramBus(clock=ManualClock())
    client = ClientEndpoint(bus, "cli", allow_spoofing=False)
    try:
        client.send(b"x", "srv", source="forged")
    except PermissionError:
        pass
    else:
        raise AssertionError("expected PermissionError")


def dns_server(address, reply_to):
    """A server answering each request with ``reply_to(request)`` bytes."""

    def handler(dgram, now):
        return [SimDatagram(address, dgram.source, reply_to(decode_message(dgram.payload)))]

    return handler


def answer(msg, **changes):
    return encode_message(dataclasses.replace(msg, is_response=True, **changes))


QUERY = make_query(DnsName.from_text("www.example.com"), RType.A, msg_id=4242)


def test_exchange_message_returns_the_matching_reply():
    bus = DatagramBus(clock=ManualClock())
    bus.attach("srv", dns_server("srv", answer))
    reply = exchange_message(ClientEndpoint(bus, "cli"), "srv", QUERY)
    assert reply.is_response and reply.id == QUERY.id and reply.question == QUERY.question


@pytest.mark.parametrize("reply_to", [
    lambda m: answer(m, id=m.id ^ 1),
    lambda m: answer(m, question=(Question(DnsName.from_text("other.test"), RType.A),)),
    lambda m: answer(m, opcode=Opcode.UPDATE),
    lambda m: encode_message(m),  # the request echoed back, not a response
    lambda m: b"\xff\xff\xff",
], ids=["wrong-id", "wrong-question", "wrong-opcode", "not-a-response", "undecodable"])
def test_exchange_message_rejects_a_reply_that_does_not_answer(reply_to):
    bus = DatagramBus(clock=ManualClock())
    bus.attach("srv", dns_server("srv", reply_to))
    with pytest.raises(DecodeError):
        exchange_message(ClientEndpoint(bus, "cli"), "srv", QUERY, retries=2)
    assert len(bus.tap) == 2  # one request, one reply: no retransmission


def test_exchange_message_timeout_after_retries_plus_one_sends():
    bus = DatagramBus(clock=ManualClock(), drop_filter=lambda d: d.destination == "srv")
    bus.attach("srv", dns_server("srv", answer))
    assert exchange_message(ClientEndpoint(bus, "cli"), "srv", QUERY,
                            timeout=0.5, retries=2) is None
    assert [e.datagram.payload for e in bus.tap] == [encode_message(QUERY)] * 3
    assert bus.clock.now() == 1.5


def test_parse_endpoint_forms():
    assert parse_endpoint("192.0.2.1") == ("192.0.2.1", 53)
    assert parse_endpoint("192.0.2.1:5300") == ("192.0.2.1", 5300)
    assert parse_endpoint("[2001:db8::1]:5300") == ("2001:db8::1", 5300)
    assert parse_endpoint("[2001:db8::1]") == ("2001:db8::1", 53)
    assert parse_endpoint(":5300") == ("", 5300)
    assert parse_endpoint("192.0.2.1:65535") == ("192.0.2.1", 65535)


@pytest.mark.parametrize("address", ["192.0.2.1:abc", "192.0.2.1:70000", "192.0.2.1:",
                                     "192.0.2.1:-1", "192.0.2.1:+53", "[2001:db8::1]:65536",
                                     "[2001:db8::1]:x", "[2001:db8::1]53", "[2001:db8::1"])
def test_parse_endpoint_rejects_bad_ports(address):
    with pytest.raises(ValueError):
        parse_endpoint(address)
