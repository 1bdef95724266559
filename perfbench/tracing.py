"""Span tracing from outside the package, for the benchmark's per-layer run.

``Tracer.install()`` rebinds public zptoolkit functions and methods to
wrappers that record a span per call: its name, duration and parent (the
span that was open when it started). Spans are folded into per-name
totals as they close, so memory stays flat: calls, self time (duration
minus the time covered by child spans, which is charged to the parent)
and the exceptions that escaped the span, by type. ``uninstall()``
restores every original binding.

Two traps are handled here. Modules import ``encode_message`` and
``decode_message`` by name, so a function is rebound in every zptoolkit
module that holds it, not only where it is defined. And
``NameServer.attach`` captures the bound ``handle_datagram`` when a fleet
is built, so the class attribute is wrapped before any fleet exists. For
the same reason a journal sink is wrapped where ``open_journal`` makes it,
so ``install()`` must run before the workload's set-up.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from typing import Callable

from zptoolkit import analytics, authsim, ingest, scanner, transport, tsig, wire

perf = time.perf_counter

AXFR = 252


def _is_transfer(payload: bytes) -> bool:
    """A response whose question type is AXFR, read without the codec."""
    if len(payload) < 12 or not payload[2] & 0x80 or payload[4:6] == b"\0\0":
        return False
    offset = 12
    while offset < len(payload) and payload[offset]:
        offset += 1 + payload[offset]
    return payload[offset + 1:offset + 3] == AXFR.to_bytes(2, "big")


class Tracer:
    def __init__(self, clients: frozenset[str]):
        self.clients = clients
        self.calls: Counter = Counter()
        self.self_time: defaultdict = defaultdict(float)
        self.errors: Counter = Counter()       # (span, exception type) -> count
        self.counts: defaultdict = defaultdict(float)
        self._stack: list[list[float]] = []    # open spans, innermost last: [child seconds]
        self._saved: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        for table in (self.calls, self.self_time, self.errors, self.counts):
            table.clear()

    # -- spans --

    def wrap(self, name: str, fn: Callable, after: Callable | None = None) -> Callable:
        """``fn`` recording a span named ``name``; ``after(result, args)`` adds counts."""
        stack, calls, self_time, errors = self._stack, self.calls, self.self_time, self.errors

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                errors[(name, type(exc).__name__)] += 1
                raise
            finally:
                elapsed = perf() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed  # the parent's child time
                calls[name] += 1
                self_time[name] += elapsed - frame[0]
            if after is not None:
                after(result, args)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installation --

    def _rebind(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _rebind_everywhere(self, original: Callable, replacement: Callable) -> None:
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("zptoolkit") and \
                    getattr(module, original.__name__, None) is original:
                self._rebind(module, original.__name__, replacement)

    def install(self) -> None:
        import zptoolkit.attacklab  # noqa: F401  (binds the codec by name too)

        counts = self.counts
        wrap = self.wrap

        def add(key: str, amount: float = 1.0) -> None:
            counts[key] += amount

        self._rebind_everywhere(wire.encode_message, wrap(
            "wire.encode", wire.encode_message, lambda out, a: add("wire.encode.bytes", len(out))))
        self._rebind_everywhere(wire.decode_message, wrap(
            "wire.decode", wire.decode_message, lambda out, a: add("wire.decode.bytes", len(a[0]))))
        self._rebind_everywhere(tsig.sign_message, wrap("tsig.sign", tsig.sign_message))
        self._rebind_everywhere(tsig.verify_message, wrap(
            "tsig.verify", tsig.verify_message,
            lambda out, a: add("tsig.verify.accepted", isinstance(out, tsig.Accept))))

        clients = self.clients
        send = transport.DatagramBus.send

        def counted_send(bus, dgram):
            counts["transport.datagrams"] += 1
            counts["transport.bytes"] += len(dgram.payload)
            payload = dgram.payload
            if len(payload) >= 12:
                if _is_transfer(payload):
                    counts["authsim.transfer.datagrams"] += 1
                    counts["authsim.transfer.bytes"] += len(payload)
                elif (payload[2] >> 3) & 0xF == wire.Opcode.UPDATE and not payload[2] & 0x80 \
                        and dgram.source not in clients:
                    counts["authsim.forwards"] += 1
            return send(bus, dgram)

        self._rebind(transport.DatagramBus, "send", counted_send)
        self._rebind(transport.DatagramBus, "pump", wrap("transport.pump", transport.DatagramBus.pump))
        exchange = transport.ClientEndpoint.exchange

        def exchange_with_timeouts(endpoint, payload, destination, timeout, source=None):
            before = endpoint.bus.clock.now()
            reply = exchange(endpoint, payload, destination, timeout, source)
            if reply is None:
                counts["transport.exchange.timeouts"] += 1
                counts["transport.timeout_wait_sim_s"] += endpoint.bus.clock.now() - before
            return reply

        self._rebind(transport.ClientEndpoint, "exchange",
                     wrap("transport.exchange", exchange_with_timeouts))

        open_journal = authsim.open_journal
        self._rebind_everywhere(open_journal,
                                lambda path: wrap("authsim.journal", open_journal(path)))
        self._rebind(authsim.NameServer, "handle_datagram",
                     wrap("authsim.handle_datagram", authsim.NameServer.handle_datagram))
        for attr, span in (("apply_update", "authsim.apply_update"),
                           ("evaluate_prerequisites", "authsim.prerequisites"),
                           ("acl_check", "authsim.acl_check")):
            self._rebind_everywhere(getattr(authsim, attr), wrap(span, getattr(authsim, attr)))

        pacer_wait = scanner.Pacer.wait

        def timed_wait(pacer, nameserver):
            before = pacer.clock.now()
            pacer_wait(pacer, nameserver)
            counts["scanner.pacer_wait_sim_s"] += pacer.clock.now() - before

        self._rebind(scanner.Pacer, "wait", timed_wait)
        self._rebind_everywhere(scanner.run_scan, wrap("scanner.run_scan", scanner.run_scan))
        self._rebind_everywhere(scanner.run_probe, wrap("scanner.run_probe", scanner.run_probe))

        self._rebind_everywhere(ingest.registrable_domain,
                                wrap("ingest.registrable", ingest.registrable_domain))
        self._rebind_everywhere(ingest.resolve_targets,
                                wrap("ingest.resolve", ingest.resolve_targets))

        for attr, span in (("aggregate", "analytics.aggregate"),
                           ("aggregate_csv", "analytics.aggregate"),
                           ("diff_scans", "analytics.diff"),
                           ("subjects_from_snapshots", "analytics.subjects"),
                           ("kaplan_meier", "analytics.kaplan_meier"),
                           ("survival_by_group", "analytics.kaplan_meier"),
                           ("remediation_summary", "analytics.remediation_summary"),
                           ("notification_entries", "analytics.notification"),
                           ("make_notification_batch", "analytics.notification")):
            self._rebind_everywhere(getattr(analytics, attr), wrap(span, getattr(analytics, attr)))
        self._rebind(analytics.AttributionMap, "lookup",
                     wrap("analytics.attribution_lookup", analytics.AttributionMap.lookup))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- results --

    def layer_metrics(self) -> dict[str, float]:
        c, s, counts = self.calls, self.self_time, self.counts
        verify_calls = c["tsig.verify"]
        out = {
            "wire.encode.calls": c["wire.encode"], "wire.encode.self_s": s["wire.encode"],
            "wire.encode.bytes": counts["wire.encode.bytes"],
            "wire.decode.calls": c["wire.decode"], "wire.decode.self_s": s["wire.decode"],
            "wire.decode.bytes": counts["wire.decode.bytes"],
            "tsig.sign.calls": c["tsig.sign"], "tsig.sign.self_s": s["tsig.sign"],
            "tsig.verify.calls": verify_calls, "tsig.verify.self_s": s["tsig.verify"],
            "tsig.verify.accept_ratio":
                counts["tsig.verify.accepted"] / verify_calls if verify_calls else 0.0,
            "transport.datagrams": counts["transport.datagrams"],
            "transport.bytes": counts["transport.bytes"],
            "transport.pump.calls": c["transport.pump"], "transport.pump.self_s": s["transport.pump"],
            "transport.exchange.calls": c["transport.exchange"],
            "transport.exchange.timeouts": counts["transport.exchange.timeouts"],
            "transport.timeout_wait_sim_s": counts["transport.timeout_wait_sim_s"],
            "authsim.handle_datagram.calls": c["authsim.handle_datagram"],
            "authsim.handle_datagram.self_s": s["authsim.handle_datagram"],
            "authsim.handle_datagram.errors":
                sum(n for (span, _), n in self.errors.items() if span == "authsim.handle_datagram"),
            "authsim.handle_datagram.oversize_errors":
                self.errors[("authsim.handle_datagram", "OversizeMessage")],
            "authsim.apply_update.calls": c["authsim.apply_update"],
            "authsim.apply_update.self_s": s["authsim.apply_update"],
            "authsim.prerequisites.self_s": s["authsim.prerequisites"],
            "authsim.acl_check.self_s": s["authsim.acl_check"],
            "authsim.transfer.datagrams": counts["authsim.transfer.datagrams"],
            "authsim.transfer.bytes": counts["authsim.transfer.bytes"],
            "authsim.forwards": counts["authsim.forwards"],
            "authsim.journal.events": c["authsim.journal"],
            "authsim.journal.self_s": s["authsim.journal"],
            "scanner.run_scan.calls": c["scanner.run_scan"],
            "scanner.run_scan.self_s": s["scanner.run_scan"],
            "scanner.run_probe.calls": c["scanner.run_probe"],
            "scanner.run_probe.self_s": s["scanner.run_probe"],
            "scanner.pacer_wait_sim_s": counts["scanner.pacer_wait_sim_s"],
            "ingest.registrable.calls": c["ingest.registrable"],
            "ingest.registrable.self_s": s["ingest.registrable"],
            "ingest.resolve.self_s": s["ingest.resolve"],
            "analytics.attribution_lookup.calls": c["analytics.attribution_lookup"],
            "analytics.attribution_lookup.self_s": s["analytics.attribution_lookup"],
        }
        for span in ("aggregate", "diff", "subjects", "kaplan_meier", "remediation_summary",
                     "notification"):
            out[f"analytics.{span}.self_s"] = s[f"analytics.{span}"]
        return {k: float(v) for k, v in out.items()}

    def error_chains(self) -> list[str]:
        """Exceptions that escaped spans, innermost first, e.g. where a lost shard came from."""
        return [f"{etype} escaped {span} x{n}" for (span, etype), n in self.errors.items()]
