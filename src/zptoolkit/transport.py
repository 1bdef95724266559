"""Datagram transports: a deterministic in-memory bus and a thin UDP socket.

The bus is the only place where source addresses can be forged; spoofing
over real sockets is deliberately unsupported. Every datagram placed on
the bus is recorded in a tap with its send timestamp, which is what the
single-datagram and pacing assertions read.

The tap keeps no object per datagram. It stores columns: the send times
in an ``array('d')``, the sources and destinations in two lists (which
share the address strings the endpoints hold), and every payload appended
to one ``bytearray`` with its end offset in an ``array('Q')``. A datagram
costs the tap 32 bytes plus its payload, and the collector nothing, since
arrays and byte buffers hold no references. The tap reads as a sequence
of ``TapEntry`` values, each built, with its ``SimDatagram`` and a copy of
its payload, only when it is indexed, sliced or iterated.
"""

from __future__ import annotations

import heapq
import random
import socket
import time
from array import array
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Callable, Optional, Protocol, Union

from . import wire

# deliveries one ``DatagramBus.pump`` makes before it calls the traffic a storm
PUMP_MAX_STEPS = 100_000
# the port of a nameserver written without one
DNS_PORT = 53


@wire._slot_init
@dataclass(frozen=True, slots=True)
class SimDatagram:
    """One simulated UDP datagram. The source field is a claim, not a fact."""

    source: str
    destination: str
    payload: bytes


@wire._slot_init
@dataclass(frozen=True, slots=True)
class TapEntry:
    ts: float
    datagram: SimDatagram


_datagram = wire._builder(SimDatagram)
_tap_entry = wire._builder(TapEntry)


class Tap(Sequence):
    """Every datagram placed on a bus, in send order, as read-only ``TapEntry`` values.

    Stored as columns (see the module docstring); an entry is built when it
    is read, so two reads of one index give equal entries, not the same
    object. Slices are lists.
    """

    __slots__ = ("_ts", "_sources", "_destinations", "_payloads", "_ends")

    def __init__(self):
        self._ts = array("d")
        self._sources: list[str] = []
        self._destinations: list[str] = []
        self._payloads = bytearray()
        self._ends = array("Q")

    def _append(self, ts: float, dgram: SimDatagram) -> None:
        self._ts.append(ts)
        self._sources.append(dgram.source)
        self._destinations.append(dgram.destination)
        payloads = self._payloads
        payloads += dgram.payload
        self._ends.append(len(payloads))

    def _entry(self, index: int) -> TapEntry:
        """The entry at ``index``, which must be in range."""
        start = self._ends[index - 1] if index else 0
        payload = bytes(self._payloads[start:self._ends[index]])
        return _tap_entry(self._ts[index],
                          _datagram(self._sources[index], self._destinations[index], payload))

    def __len__(self) -> int:
        return len(self._ts)

    def __getitem__(self, index: Union[int, slice]):
        size = len(self._ts)
        if isinstance(index, slice):
            return [self._entry(i) for i in range(*index.indices(size))]
        if index < 0:
            index += size
        if not 0 <= index < size:
            raise IndexError("tap index out of range")
        return self._entry(index)


class ManualClock:
    """Deterministic clock; advances only when told to."""

    def __init__(self, start: float = 0.0):
        self._now = float(start)

    def now(self) -> float:
        return self._now

    def advance(self, seconds: float) -> None:
        self._now += seconds

    def sleep(self, seconds: float) -> None:
        self.advance(seconds)


class SystemClock:
    def now(self) -> float:
        return time.time()

    def sleep(self, seconds: float) -> None:
        time.sleep(seconds)


Handler = Callable[[SimDatagram, float], list]


class DatagramBus:
    """In-memory datagram network with injectable loss and delay.

    Handlers attached to an address are invoked synchronously during
    ``pump``; anything they return is re-enqueued. Datagrams addressed to
    an address with no handler are dropped (exactly what happens to a
    response sent to a spoofed source). Delivery order is by scheduled
    time, FIFO within a tie, so runs are deterministic.
    """

    def __init__(self, clock: Optional[ManualClock] = None, rng: Optional[random.Random] = None,
                 loss_rate: float = 0.0, drop_filter: Optional[Callable[[SimDatagram], bool]] = None,
                 delay_fn: Optional[Callable[[SimDatagram], float]] = None):
        self.clock = clock or ManualClock()
        self.rng = rng or random.Random(0)
        self.loss_rate = loss_rate
        self.drop_filter = drop_filter
        self.delay_fn = delay_fn
        self.tap = Tap()
        self._handlers: dict[str, Handler] = {}
        self._queue: list[tuple[float, int, SimDatagram]] = []
        self._seq = 0

    def attach(self, address: str, handler: Handler) -> None:
        self._handlers[address] = handler

    def detach(self, address: str) -> None:
        self._handlers.pop(address, None)

    def send(self, dgram: SimDatagram) -> None:
        now = self.clock.now()
        self.tap._append(now, dgram)
        if self.drop_filter is not None and self.drop_filter(dgram):
            return
        if self.loss_rate and self.rng.random() < self.loss_rate:
            return
        delay = self.delay_fn(dgram) if self.delay_fn else 0.0
        self._seq += 1
        heapq.heappush(self._queue, (now + delay, self._seq, dgram))

    def pump(self, until: Optional[float] = None) -> None:
        """Deliver due datagrams; with ``until``, stop at that sim instant."""
        steps = 0
        while self._queue:
            deliver_at, _, dgram = self._queue[0]
            if until is not None and deliver_at > until:
                return
            steps += 1
            if steps > PUMP_MAX_STEPS:
                raise RuntimeError("datagram storm: pump exceeded PUMP_MAX_STEPS")
            heapq.heappop(self._queue)
            if deliver_at > self.clock.now():
                self.clock.advance(deliver_at - self.clock.now())
            handler = self._handlers.get(dgram.destination)
            if handler is None:
                continue
            for out in handler(dgram, self.clock.now()):
                self.send(out)

    def updates_seen(self, destination: Optional[str] = None) -> list[TapEntry]:
        """Tap entries whose payload parses as an UPDATE request (opcode 5, not a response).

        The header byte is read in the tap's columns, so only the entries
        returned are built.
        """
        tap = self.tap
        payloads, ends, destinations = tap._payloads, tap._ends, tap._destinations
        out = []
        start = 0
        for index, end in enumerate(ends):
            if end - start >= 12 and (destination is None or destinations[index] == destination):
                flags = payloads[start + 2]  # QR, then the four opcode bits
                if (flags >> 3) & 0xF == wire.Opcode.UPDATE and not flags & 0x80:
                    out.append(tap._entry(index))
            start = end
        return out


class ClientEndpoint:
    """A bus endpoint for request/response exchanges, with optional source forgery."""

    def __init__(self, bus: DatagramBus, address: str, allow_spoofing: bool = True):
        self.bus = bus
        self.address = address
        self.allow_spoofing = allow_spoofing
        self.inbox: deque[SimDatagram] = deque()
        bus.attach(address, self._receive)

    @property
    def clock(self) -> ManualClock:
        """The bus's clock, which every exchange on this endpoint reads and advances."""
        return self.bus.clock

    def _receive(self, dgram: SimDatagram, now: float) -> list:
        self.inbox.append(dgram)
        return []

    def send(self, payload: bytes, destination: str, source: Optional[str] = None) -> None:
        if source is not None and source != self.address and not self.allow_spoofing:
            raise PermissionError("source spoofing is disabled on this endpoint")
        self.bus.send(_datagram(source or self.address, destination, payload))

    def exchange(self, payload: bytes, destination: str, timeout: float,
                 source: Optional[str] = None) -> Optional[bytes]:
        """Send, run the network until the deadline, and take the reply from
        ``destination``: the first datagram from it that starts with the
        request's id, else the first from it; a datagram from anywhere else
        is dropped.

        Returns None on timeout: nothing came back from ``destination`` in
        time (dropped, delayed past the deadline, or the reply went to a
        forged source) and the clock lands on the deadline.
        """
        inbox = self.inbox
        inbox.clear()  # anything older belongs to an abandoned exchange
        deadline = self.bus.clock.now() + timeout
        self.send(payload, destination, source)
        self.bus.pump(until=deadline)
        msg_id = payload[:2]
        first = None
        for dgram in inbox:
            if dgram.source == destination:
                if dgram.payload.startswith(msg_id):
                    return dgram.payload
                if first is None:
                    first = dgram.payload
        if first is not None:
            return first
        if deadline > self.bus.clock.now():
            self.bus.clock.advance(deadline - self.bus.clock.now())
        return None


class Transport(Protocol):
    """What the scanner and ingest send through. The bus endpoints and
    ``UdpTransport`` also carry the ``clock`` their exchanges run on, which
    the scanner reads when it is given no clock of its own."""

    def exchange(self, payload: bytes, destination: str, timeout: float) -> Optional[bytes]:
        ...


def parse_endpoint(address: str) -> tuple[str, int]:
    """Split 'host', 'host:port', '[v6]' or '[v6]:port' into (host, port),
    the port ``DNS_PORT`` when none is given.

    A port that is not a decimal number in 0-65535 raises ValueError.
    """
    if address.startswith("["):
        host, bracket, port = address[1:].partition("]")
        if not bracket or (port and not port.startswith(":")):
            raise ValueError(f"malformed endpoint {address!r}")
        if not port:
            return host, DNS_PORT
        port = port[1:]
    elif address.count(":") == 1:
        host, _, port = address.partition(":")
    else:
        return address, DNS_PORT
    if not (port.isascii() and port.isdigit()) or int(port) > 65535:
        raise ValueError(f"endpoint port must be a number in 0-65535: {address!r}")
    return host, int(port)


class UdpTransport:
    """Real-socket transport for desk-scale interop; no spoofing, ever."""

    def __init__(self):
        self.clock = SystemClock()

    def exchange(self, payload: bytes, destination: str, timeout: float) -> Optional[bytes]:
        host, port = parse_endpoint(destination)
        family = socket.AF_INET6 if ":" in host else socket.AF_INET
        with socket.socket(family, socket.SOCK_DGRAM) as sock:
            sock.settimeout(timeout)
            try:
                sock.connect((host, port))  # the kernel drops datagrams from anyone else
                sock.send(payload)
                return sock.recv(65535)
            except OSError:  # a timeout, or the port refused (ICMP), which ends it at once
                return None


class SimTransport(ClientEndpoint):
    """The scanner's Transport on the bus: a ClientEndpoint that never forges its source."""

    def __init__(self, bus: DatagramBus, address: str = "scanner.client"):
        super().__init__(bus, address, allow_spoofing=False)


def exchange_message(transport: Transport, destination: str, msg: "wire.DnsMessage",
                     timeout: float = 1.0, retries: int = 0) -> Optional["wire.DnsMessage"]:
    """Send one message and return the reply that answers it, or None.

    The message is encoded once and retransmitted, under the same id, only
    after an attempt that got no answer. A reply answers the request when it
    comes from ``destination`` and is a response with the request's id,
    opcode and question (RFC 5452 section 9.1). A reply that does not
    answer, such as a late reply to an earlier exchange, is dropped and its
    attempt counts as timed out; a reply that does not decode reads as no
    answer too. A truncated reply (TC set) counts as a lost attempt and the
    request is resent: RFC 7766 section 5 has the client retry over TCP,
    which neither transport speaks.
    """
    reply, _ = _exchange(transport, destination, msg, timeout, retries)
    return reply if isinstance(reply, wire.DnsMessage) else None


def _exchange(transport: Transport, destination: str, msg: "wire.DnsMessage", timeout: float,
              retries: int) -> tuple[Union["wire.DnsMessage", "wire.DecodeError", None], int]:
    """``exchange_message``'s work, for the scanner, which tells a malformed reply
    from silence: the reply, a ``DecodeError`` (a reply that did not decode, or
    no attempt answered and none timed out) or None, and the sends made."""
    payload = wire.encode_message(msg)
    mismatched = 0  # attempts whose reply decoded but did not answer: each is dropped
    for sends in range(1, retries + 2):
        raw = transport.exchange(payload, destination, timeout)
        if raw is None:
            continue
        try:
            reply = wire.decode_message(raw)
        except wire.DecodeError as exc:
            return exc, sends
        if reply.extra_flags & 0x0200:  # TC: a truncated reply is a lost attempt
            continue
        if reply.is_response and reply.id == msg.id and reply.opcode == msg.opcode \
                and reply.question == msg.question:
            return reply, sends
        mismatched += 1
    if mismatched <= retries:  # some attempt timed out
        return None, retries + 1
    return wire.DecodeError(f"no reply answers request {msg.id}"), retries + 1
