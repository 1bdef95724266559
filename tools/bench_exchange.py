"""Measure what one scanner exchange costs, and what the bus keeps of it.

Usage: PYTHONPATH=src python3 tools/bench_exchange.py [--seed N] [--repeats N]

It prints five measurements:

- probe_us: µs per ``run_probe`` on a small bus with one server per kind,
  the minimum over the repeats of a batch of probes, each repeat on a
  fresh bus. A refused probe is one exchange (a ``deny`` zone answers
  REFUSED), a vulnerable probe four (update, lookup, delete, re-check on
  an ``open`` zone), and a dark probe three sends that time out (no server
  at the address).
- vulnerable_exchanges_us: the vulnerable probe split into its four
  exchanges, probe, verify, delete and recheck, each the minimum over the
  repeats of its mean µs in a batch. One exchange's share runs from the
  moment the one before it returned (for the probe, from the call of
  ``run_probe``) to the moment it returns: the client's reading of the
  last reply, the building and encoding of this request, and the bus and
  server. The recheck also takes what ``run_probe`` does after it.
  Measured through a client transport that stamps the time as each
  exchange returns, so the four add up to slightly more than probe_us.
- server_us: µs of ``NameServer.handle_datagram`` per message kind, from
  the same batches (and from refused probes for ``refusal``): an accepted
  add, a delete, a lookup hit, an NXDOMAIN lookup, and a refusal. Each is
  the minimum over the repeats of its mean in a batch, timed by a wrapper
  around the handler that the bus calls. Its zones hold 8 records, so
  these are the 8-record reference for the probe cycle that
  ``tools/bench_zone_write.py`` times on larger zones.
- tenant_pair_us: µs per tenant pair, the unit behind hosting-scan's
  ``op_ms_p50``: a TSIG-signed UPDATE adding one A record and one deleting
  it, each sent by ``exchange_message`` to a primary whose signed-key zone
  (12 records) has one secondary. The primary journals each update to a
  JSONL file and pushes each change to the secondary as one IXFR message,
  which the secondary applies. The minimum over the repeats of the mean
  of a batch, each repeat on a fresh bus and journal file.
- tap_entry: what ``DatagramBus.send`` keeps per datagram in the tap:
  GC-tracked objects (``gc.get_objects()`` before and after) and retained
  bytes (``tracemalloc``), the payload included, over 2,000 datagrams of
  40-79 bytes, each payload made for its send, that the bus then drops.
"""

from __future__ import annotations

import dataclasses
import os
import random
import tempfile
import time
from contextlib import ExitStack, closing
from ipaddress import IPv4Address

import _kit as kit
from zptoolkit import authsim, scanner, tsig
from zptoolkit.authsim import Deny, Open, Primary, Secondary, SignedKey, ZoneConfig, make_soa
from zptoolkit.transport import DatagramBus, ManualClock, SimDatagram, SimTransport, exchange_message
from zptoolkit.wire import (AddRecord, DeleteExactRecord, DnsName, RClass, Rcode, ResourceRecord,
                            RType, make_update)

SCANNER = "scanner.client"
BATCH = {"refused": 2_000, "vulnerable": 500, "dark": 1_000}
SERVERS = {"refused": "10.0.0.1", "vulnerable": "10.0.0.2", "dark": "10.0.0.3"}
VERDICTS = {"refused": scanner.Verdict.NOT_VULNERABLE,
            "vulnerable": scanner.Verdict.VULNERABLE_CONFIRMED,
            "dark": scanner.Verdict.UNREACHABLE}
APEX = DnsName.from_text("zone.example")
TENANT = "tenant.client"
PRIMARY, SECONDARY = "10.0.1.1", "10.0.1.2"
TENANT_PAIRS = 300
TAP_DATAGRAMS = 2_000
KEY = tsig.TsigKey(DnsName.from_text("fleet-key"), b"fleet-secret-0123456789")


def _zone(apex: DnsName, policy, size: int, rng: random.Random) -> ZoneConfig:
    ns = apex.prepend("ns1")
    records = [make_soa(apex), ResourceRecord(apex, RType.NS, RClass.IN, 3600, ns),
               ResourceRecord(ns, RType.A, RClass.IN, 3600, IPv4Address("192.0.2.53"))]
    for k in range(size - len(records)):
        records.append(ResourceRecord(apex.prepend(f"h{k}"), RType.A, RClass.IN, 300,
                                      IPv4Address(0xC6120000 + rng.randrange(1 << 17))))
    return ZoneConfig.build(apex, Primary(), policy, records)


def probe_us(kind: str, seed: int, repeats: int) -> float:
    """Minimum µs per probe of ``kind`` over ``repeats`` batches, each on a fresh bus."""
    cfg = scanner.ProbeConfig()
    target = scanner.ProbeTarget(APEX, SERVERS[kind])

    def fresh_bus(repeat: int):
        rng = random.Random(f"{seed}:{kind}:{repeat}")
        bus = DatagramBus(clock=ManualClock(), rng=random.Random(seed))
        authsim.build_fleet(bus, [(SERVERS["refused"], _zone(APEX, Deny(), 8, rng)),
                                  (SERVERS["vulnerable"], _zone(APEX, Open(), 8, rng))])
        client = SimTransport(bus, SCANNER)
        if scanner.run_probe(target, cfg, client, bus.clock, rng).verdict is not VERDICTS[kind]:
            raise SystemExit(f"{kind}: the probe did not read {VERDICTS[kind]}")
        return client, bus.clock, rng

    def probes(state) -> None:
        client, clock, rng = state
        for _ in range(BATCH[kind]):
            scanner.run_probe(target, cfg, client, clock, rng)

    return round(kit.per_call(probes, repeats, BATCH[kind], setup=fresh_bus).min * 1e6, 2)


class _StampedTransport:
    """A client transport that records ``perf_counter`` as each exchange returns."""

    def __init__(self, inner: SimTransport):
        self.inner = inner
        self.stamps: list[float] = []

    def exchange(self, payload: bytes, destination: str, timeout: float):
        reply = self.inner.exchange(payload, destination, timeout)
        self.stamps.append(time.perf_counter())
        return reply


EXCHANGES = ("probe", "verify", "delete", "recheck")
SERVER_KINDS = ("accepted_add", "lookup_hit", "delete", "nxdomain")  # in a vulnerable probe's order


def split_us(seed: int, repeats: int) -> tuple[dict, dict]:
    """Minimum µs per exchange of a vulnerable probe and per server message kind."""
    cfg = scanner.ProbeConfig()
    perf = time.perf_counter
    vulnerable = scanner.ProbeTarget(APEX, SERVERS["vulnerable"])
    refused = scanner.ProbeTarget(APEX, SERVERS["refused"])

    def fresh_bus(repeat: int):
        rng = random.Random(f"{seed}:split:{repeat}")
        bus = DatagramBus(clock=ManualClock(), rng=random.Random(seed))
        handled: dict[str, list[float]] = {SERVERS["refused"]: [], SERVERS["vulnerable"]: []}
        for kind, policy in (("refused", Deny()), ("vulnerable", Open())):
            server = authsim.NameServer(SERVERS[kind], [_zone(APEX, policy, 8, rng)])
            times = handled[SERVERS[kind]]

            def timed(dgram, now, handle=server.handle_datagram, times=times):
                t0 = perf()
                out = handle(dgram, now)
                times.append(perf() - t0)
                return out

            bus.attach(SERVERS[kind], timed)
        client = _StampedTransport(SimTransport(bus, SCANNER))
        for target in (vulnerable, refused):  # one untimed probe of each first
            scanner.run_probe(target, cfg, client, bus.clock, rng)
        for times in handled.values():
            times.clear()
        return client, bus.clock, rng, handled

    def probes(state) -> dict:
        client, clock, rng, handled = state
        sums = dict.fromkeys(EXCHANGES, 0.0)
        batch = BATCH["vulnerable"]
        for _ in range(batch):
            client.stamps.clear()
            t0 = perf()
            outcome = scanner.run_probe(vulnerable, cfg, client, clock, rng)
            end = perf()
            if outcome.verdict is not scanner.Verdict.VULNERABLE_CONFIRMED or \
                    len(client.stamps) != len(EXCHANGES):
                raise SystemExit("split: the vulnerable probe did not make its four exchanges")
            marks = [t0, *client.stamps[:-1], end]
            for name, start, stop in zip(EXCHANGES, marks, marks[1:]):
                sums[name] += stop - start
        parts = {("exchange", name): spent / batch for name, spent in sums.items()}
        times = handled[SERVERS["vulnerable"]]
        for i, name in enumerate(SERVER_KINDS):
            parts["server", name] = sum(times[i::len(SERVER_KINDS)]) / batch
        for _ in range(BATCH["refused"]):
            scanner.run_probe(refused, cfg, client, clock, rng)
        parts["server", "refusal"] = sum(handled[SERVERS["refused"]]) / BATCH["refused"]
        return parts

    us = kit.per_call(probes, repeats, setup=fresh_bus, parts=True)
    return ({name: round(us["exchange", name].min * 1e6, 2) for name in EXCHANGES},
            {name: round(us["server", name].min * 1e6, 2) for name in (*SERVER_KINDS, "refusal")})


def _tenant_pair(bus: DatagramBus, client: SimTransport, apex: DnsName, k: int,
                 rng: random.Random) -> None:
    """A signed add and then a signed delete of ``tenant<k>.<apex>``, each answered NOERROR."""
    record = ResourceRecord(apex.prepend(f"tenant{k}"), RType.A, RClass.IN, 300,
                            IPv4Address(0x0A640000 + k))
    for change in (AddRecord(record), DeleteExactRecord(record)):
        signed = tsig.sign_message(make_update(apex, [change], rng=rng), KEY,
                                   int(bus.clock.now()))
        reply = exchange_message(client, PRIMARY, signed, timeout=1.0)
        if reply is None or reply.rcode is not Rcode.NOERROR:
            raise SystemExit("tenant: a signed update was not answered NOERROR")


def tenant_pair_us(seed: int, repeats: int) -> float:
    """Minimum µs per tenant pair over ``repeats`` batches."""
    apex = DnsName.from_text("tenant.example")
    fleets = []
    with tempfile.TemporaryDirectory() as tmp, ExitStack() as journals:
        def fresh_bus(repeat: int):
            rng = random.Random(f"{seed}:tenant:{repeat}")
            bus = DatagramBus(clock=ManualClock(), rng=random.Random(seed))
            zone = _zone(apex, SignedKey((KEY,)), 12, rng)
            sink = journals.enter_context(
                closing(authsim.open_journal(os.path.join(tmp, f"journal-{repeat}.jsonl"))))
            secondary = dataclasses.replace(zone, role=Secondary(PRIMARY))
            fleets.append(authsim.build_fleet(bus, [(PRIMARY, zone), (SECONDARY, secondary)],
                                              honeypot=True, journal_sink=sink))
            client = SimTransport(bus, TENANT)
            _tenant_pair(bus, client, apex, 0, rng)  # one untimed pair first
            return bus, client, rng

        def pairs(state) -> None:
            bus, client, rng = state
            for k in range(1, TENANT_PAIRS + 1):
                _tenant_pair(bus, client, apex, k, rng)

        timing = kit.per_call(pairs, repeats, TENANT_PAIRS, setup=fresh_bus)
    for servers in fleets:
        if servers[SECONDARY].zones[apex].records != servers[PRIMARY].zones[apex].records:
            raise SystemExit("tenant: the secondary differs from its primary")
    return round(timing.min * 1e6, 2)


def tap_entry(seed: int) -> dict:
    """GC-tracked objects and bytes that the tap keeps per datagram sent."""
    rng = random.Random(f"{seed}:tap")
    # each send gets a payload of its own, as each encoded message is
    payloads = [bytearray(rng.randrange(256) for _ in range(rng.randrange(40, 80)))
                for _ in range(TAP_DATAGRAMS)]
    sources = [f"10.0.{i >> 8}.{i & 255}" for i in range(TAP_DATAGRAMS)]
    bus = DatagramBus(clock=ManualClock(), drop_filter=lambda dgram: True)
    gc_objects, retained = kit.census(
        lambda i: bus.send(SimDatagram(sources[i], "10.0.0.1", bytes(payloads[i]))),
        range(TAP_DATAGRAMS), gc_objects=True)
    if len(bus.tap) != TAP_DATAGRAMS:
        raise SystemExit("the tap did not record every datagram")
    return {"gc_objects": gc_objects, "retained_bytes": retained,
            "payload_bytes": round(sum(map(len, payloads)) / TAP_DATAGRAMS, 1)}


def measure(seed: int, repeats: int) -> dict:
    exchanges, server = split_us(seed, repeats)
    return {"probe_us_min": {kind: probe_us(kind, seed, repeats) for kind in BATCH},
            "vulnerable_exchanges_us_min": exchanges,
            "server_us_min": server,
            "tenant_pair_us_min": tenant_pair_us(seed, repeats),
            "tap_entry": tap_entry(seed)}


if __name__ == "__main__":
    kit.main(measure, repeats=7)
