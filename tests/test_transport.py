"""Bus semantics: tap, loss, delay, spoofed-reply routing, UDP endpoint parsing."""

import dataclasses
import random
import socket
import threading
import time

import pytest

from zptoolkit import transport
from zptoolkit.transport import (
    ClientEndpoint,
    DatagramBus,
    ManualClock,
    SimDatagram,
    TapEntry,
    UdpTransport,
    exchange_message,
    parse_endpoint,
)
from zptoolkit.wire import (
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


def test_tap_reads_as_a_sequence_of_the_datagrams_sent():
    clock = ManualClock(1.5)
    bus = DatagramBus(clock=clock, drop_filter=lambda d: d.destination == "lost")
    sent = [SimDatagram("cli", "srv", b""), SimDatagram("cli", "lost", b"\x00" * 300),
            SimDatagram("srv", "cli", b"reply"), SimDatagram("cli", "srv", bytearray(b"buf"))]
    for dgram in sent:
        bus.send(dgram)
        clock.advance(0.25)
    expected = [TapEntry(1.5 + 0.25 * i, dgram) for i, dgram in enumerate(sent)]
    tap = bus.tap
    assert len(tap) == 4
    assert [tap[i] for i in range(4)] == expected
    assert [tap[i] for i in range(-4, 0)] == expected
    for index in (4, -5, 100):
        with pytest.raises(IndexError):
            tap[index]
    assert tap[1:] == expected[1:] and tap[::2] == expected[::2]
    assert tap[::-1] == expected[::-1] and tap[-1:0:-2] == expected[-1:0:-2]
    assert tap[5:9] == [] and isinstance(tap[:2], list)
    assert list(tap) == expected
    assert all(type(e.datagram.payload) is bytes for e in tap)
    assert expected[1] in tap and tap.index(expected[2]) == 2


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


def test_pump_stops_a_datagram_storm(monkeypatch):
    """Two handlers that answer each other forever: the pump gives up after
    ``PUMP_MAX_STEPS`` deliveries instead of running on."""
    monkeypatch.setattr(transport, "PUMP_MAX_STEPS", 50)
    bus = DatagramBus(clock=ManualClock())
    bus.attach("ping", echo_server("ping"))
    bus.attach("pong", echo_server("pong"))
    bus.send(SimDatagram("pong", "ping", b""))
    with pytest.raises(RuntimeError, match="datagram storm"):
        bus.pump()
    assert len(bus.tap) == 51  # the first datagram and the 50 delivered ones' replies


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


@pytest.mark.parametrize("reply_to, sends", [
    (lambda m: answer(m, id=m.id ^ 1), 3),
    (lambda m: answer(m, question=(Question(DnsName.from_text("other.test"), RType.A),)), 3),
    (lambda m: answer(m, opcode=Opcode.UPDATE), 3),
    (lambda m: encode_message(m), 3),  # the request echoed back, not a response
    (lambda m: answer(m, extra_flags=0x0200), 3),  # TC set: no TCP to retry over
    (lambda m: b"\xff\xff\xff", 1),
], ids=["wrong-id", "wrong-question", "wrong-opcode", "not-a-response", "truncated",
        "undecodable"])
def test_exchange_message_rejects_a_reply_that_does_not_answer(reply_to, sends):
    """A reply that decodes but does not answer, or is truncated, is dropped and the
    request resent, the same bytes each time; when every attempt got such a reply,
    nothing answered. A reply that does not decode ends the exchange at once, as no
    answer."""
    bus = DatagramBus(clock=ManualClock())
    bus.attach("srv", dns_server("srv", reply_to))
    assert exchange_message(ClientEndpoint(bus, "cli"), "srv", QUERY, retries=2) is None
    requests = [e.datagram.payload for e in bus.tap if e.datagram.destination == "srv"]
    assert requests == [encode_message(QUERY)] * sends
    assert len(bus.tap) == 2 * sends  # one reply to each


def test_exchange_message_waits_out_a_late_reply_to_an_earlier_request():
    """The reply to an abandoned request lands in the next exchange's window and is
    dropped; the retry, the same request again, gets the answer."""
    bus = DatagramBus(clock=ManualClock(), delay_fn=lambda d: 0.4 if d.source == "srv" else 0.0)
    bus.attach("srv", dns_server("srv", answer))
    client = ClientEndpoint(bus, "cli")
    earlier = make_query(DnsName.from_text("earlier.example.com"), RType.A, msg_id=7)
    assert exchange_message(client, "srv", earlier, timeout=0.3) is None
    reply = exchange_message(client, "srv", QUERY, timeout=0.3, retries=2)
    assert reply.id == QUERY.id and reply.question == QUERY.question
    assert [decode_message(e.datagram.payload).id for e in bus.tap
            if e.datagram.destination == "srv"] == [7, QUERY.id, QUERY.id]


def test_the_answer_behind_a_late_reply_is_taken_without_a_resend():
    """A late reply to an earlier request and the answer land in one window: the
    exchange takes the datagram that carries the request's id, so the request
    goes out once."""
    bus = DatagramBus(clock=ManualClock(), delay_fn=lambda d: 0.25 if d.source == "srv" else 0.0)
    bus.attach("srv", dns_server("srv", answer))
    client = ClientEndpoint(bus, "cli")
    earlier = make_query(DnsName.from_text("earlier.example.com"), RType.A, msg_id=7)
    assert exchange_message(client, "srv", earlier, timeout=0.2) is None
    reply = exchange_message(client, "srv", QUERY, timeout=0.3, retries=2)
    assert reply.id == QUERY.id and reply.question == QUERY.question
    assert [decode_message(e.datagram.payload).id for e in bus.tap
            if e.datagram.destination == "srv"] == [7, QUERY.id]


def test_exchange_takes_the_reply_from_the_destination_only():
    """A datagram from another address, such as a late reply from the last server
    asked, is dropped: the exchange returns the destination's reply, or times out."""
    bus = DatagramBus(clock=ManualClock(),
                      delay_fn=lambda d: {"old": 0.1, "srv": 0.2}.get(d.source, 0.0))
    bus.attach("old", echo_server("old"))
    bus.attach("srv", echo_server("srv"))
    client = ClientEndpoint(bus, "cli")
    assert client.exchange(b"first", "old", 0.05) is None
    assert client.exchange(b"second", "srv", 1.0) == b"echo:second"
    assert client.exchange(b"third", "old", 0.05) is None
    bus.detach("srv")
    assert client.exchange(b"fourth", "srv", 1.0) is None  # only old's late echo came


def test_exchange_message_timeout_after_retries_plus_one_sends():
    bus = DatagramBus(clock=ManualClock(), drop_filter=lambda d: d.destination == "srv")
    bus.attach("srv", dns_server("srv", answer))
    assert exchange_message(ClientEndpoint(bus, "cli"), "srv", QUERY,
                            timeout=0.5, retries=2) is None
    assert [e.datagram.payload for e in bus.tap] == [encode_message(QUERY)] * 3
    assert bus.clock.now() == 1.5


def _free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def test_udp_exchange_takes_the_reply_from_the_destination_port_only():
    """Over loopback, a datagram from a second port reaches the client before the
    server's answer; the connected socket drops it and the answer is returned."""
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as server, \
            socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as intruder:
        server.bind(("127.0.0.1", 0))
        intruder.bind(("127.0.0.1", 0))
        server.settimeout(5.0)

        def serve():
            request, client = server.recvfrom(512)
            intruder.sendto(b"wrong port", client)
            time.sleep(0.05)  # the intruder's datagram is queued first
            server.sendto(b"answer:" + request, client)

        thread = threading.Thread(target=serve)
        thread.start()
        try:
            reply = UdpTransport().exchange(b"hi", f"127.0.0.1:{server.getsockname()[1]}", 5.0)
        finally:
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert reply == b"answer:hi"


def test_udp_exchange_to_a_closed_port_raises_before_the_timeout():
    """The refused port's ICMP error ends the attempt at once, as the exception."""
    started = time.monotonic()
    with pytest.raises(ConnectionRefusedError):
        UdpTransport().exchange(b"hi", f"127.0.0.1:{_free_port()}", 5.0)
    assert time.monotonic() - started < 2.5


def test_udp_exchange_to_a_silent_socket_is_none_after_the_timeout():
    """A bound socket that never answers: the attempt waits out its timeout."""
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as silent:
        try:
            silent.bind(("127.0.0.1", 0))
        except OSError:
            pytest.skip("no loopback UDP")
        started = time.monotonic()
        reply = UdpTransport().exchange(b"hi", f"127.0.0.1:{silent.getsockname()[1]}", 0.2)
        waited = time.monotonic() - started
        assert silent.recv(512) == b"hi"
    assert reply is None
    assert waited >= 0.15


class CountingUdp(UdpTransport):
    """A UdpTransport that counts its exchanges, one datagram each."""

    sends = 0

    def exchange(self, payload, destination, timeout):
        self.sends += 1
        return super().exchange(payload, destination, timeout)


def test_a_probe_of_a_closed_port_sends_one_datagram():
    """The refusal ends the whole exchange: the probe is not resent, and the pair
    is unreachable, its one send possibly landed, so its cleanup is unconfirmed."""
    from zptoolkit.scanner import ProbeConfig, ProbeTarget, Verdict, run_probe

    udp = CountingUdp()
    target = ProbeTarget(DnsName.from_text("example.com"), f"127.0.0.1:{_free_port()}")
    started = time.monotonic()
    outcome = run_probe(target, ProbeConfig(timeout=5.0, probe_address_attested=True), udp,
                        rng=random.Random(1))
    assert time.monotonic() - started < 2.5
    assert udp.sends == 1
    assert (outcome.verdict, outcome.detection_updates_sent) == (Verdict.UNREACHABLE, 1)
    assert outcome.cleanup_confirmed is False


def test_a_query_to_a_closed_port_is_not_resent():
    udp = CountingUdp()
    query = make_query(DnsName.from_text("example.com"), RType.SOA, rng=random.Random(1))
    assert exchange_message(udp, f"127.0.0.1:{_free_port()}", query, 5.0, retries=3) is None
    assert udp.sends == 1


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
