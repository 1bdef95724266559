"""zptool: operator surface for the dynamic-update security toolkit.

Subcommands: scan (probe pairs), sim (run a fleet, optionally on a real
UDP socket), attack (taxonomy matrix), ingest (domains to pairs), report
(rates, aggregation, diffs, survival, notifications).

Exit codes: 0 success, 1 usage error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import random
import socket
import sys
import time
from ipaddress import ip_address

from . import analytics, attacklab, authsim, ingest, scanner
from .transport import (
    DatagramBus,
    ManualClock,
    SimDatagram,
    SimTransport,
    UdpTransport,
    parse_endpoint,
)
from .tsig import TsigKey
from .wire import DnsName, WireError, content_lines

ATTRIBUTION_ENV = "ZPTOOL_ATTRIBUTION"


class _Parser(argparse.ArgumentParser):
    """argparse with the documented exit code for usage errors (1, not 2)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _load_keys(path: str | None) -> dict[str, TsigKey]:
    """Key file: `name secret` per line; the secret is UTF-8, at least 16 bytes."""
    if not path:
        return {}
    keys = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in content_lines(fh):
            name, _, secret = line.partition(" ")
            try:
                keys[name] = TsigKey(DnsName.from_text(name), secret.strip().encode("utf-8"))
            except (ValueError, WireError) as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
    return keys


def _build_sim(fleet_path: str, keys_path: str | None,
               journal_sink=None) -> tuple[DatagramBus, dict[str, authsim.NameServer]]:
    keys = _load_keys(keys_path)
    with open(fleet_path, encoding="utf-8") as fh:
        fleet = authsim.parse_fleet_text(fh.read(), keys)
    bus = DatagramBus(clock=ManualClock())
    servers = authsim.build_fleet(bus, fleet, honeypot=journal_sink is not None,
                                  journal_sink=journal_sink)
    return bus, servers


def _write_or_print(path: str | None, text: str) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# --- scan ---


def _cmd_scan(args) -> int:
    if not args.pairs and not args.domains:
        raise RuntimeError("scan needs --pairs (pair mode) or --domains (auto-resolve mode)")
    cfg = scanner.ProbeConfig(
        probe_address=ip_address(args.probe_address),
        sentinel_label=args.sentinel.encode("ascii"),
        ttl=args.ttl,
        timeout=args.timeout,
        per_nameserver_rate=args.rate,
        probe_address_attested=args.i_own_the_probe_address,
    )
    rng = random.Random(args.seed)
    if args.transport == "sim":
        if not args.fleet:
            raise RuntimeError("sim transport needs --fleet")
        bus, _ = _build_sim(args.fleet, args.keys)
        transport = SimTransport(bus)
    else:
        transport = UdpTransport()
    # auto-resolve mode sends queries too: refuse an unattested UDP scan first
    scanner._require_attestation(cfg, transport)
    if args.pairs:
        with open(args.pairs, encoding="utf-8") as fh:
            targets = list(scanner.parse_pair_lines(fh))
    else:
        if not args.resolver:
            raise RuntimeError("auto-resolve mode needs --resolver")
        with open(args.domains, encoding="utf-8") as fh:
            zones = ingest.read_domain_lines(fh)
        universe, _ = ingest.resolve_targets(zones, args.resolver, transport,
                                             rng=random.Random(args.seed))
        targets = [scanner.ProbeTarget(zone, addr) for zone, addr in sorted(universe.pairs)]
    result = scanner.run_scan(targets, cfg, transport, rng=rng)
    lines = [json.dumps(o.to_json_obj()) for o in result.outcomes]
    _write_or_print(args.out, "\n".join(lines) + ("\n" if lines else ""))
    snapshot_json = json.dumps(result.snapshot.to_json_obj(), indent=2) + "\n"
    if args.snapshot:
        _write_or_print(args.snapshot, snapshot_json)
    vulnerable = sum(1 for o in result.outcomes if o.vulnerable)
    failed = sum(1 for o in result.outcomes if o.verdict is scanner.Verdict.CLEANUP_FAILED)
    # pairs whose record may remain though no failed delete showed it, as an unanswered probe
    unconfirmed = sum(1 for o in result.outcomes if o.cleanup_confirmed is False) - failed
    print(f"scanned {len(result.outcomes)} pairs: {vulnerable} vulnerable, {failed} cleanup failed, "
          f"{unconfirmed} unconfirmed", file=sys.stderr)
    return 0


# --- sim ---


def _cmd_sim(args) -> int:
    journal = authsim.open_journal(args.honeypot) if args.honeypot else None
    try:
        _, servers = _build_sim(args.fleet, args.keys, journal)
        for address, server in sorted(servers.items()):
            for apex, zone in sorted(server.zones.items(), key=lambda e: e[0].to_text()):
                role = "secondary" if isinstance(zone.role, authsim.Secondary) else "primary"
                print(f"{address}  {apex.to_text()}  policy={authsim.policy_label(zone.policy)}"
                      f"  role={role}  serial={zone.soa_serial}")
        if not args.bind:
            return 0
        if len(servers) != 1:
            raise RuntimeError("--bind serves exactly one fleet server; split the fleet file")
        (server,) = servers.values()
        host, port = parse_endpoint(args.bind)
        served = serve_udp(server, host or "127.0.0.1", port, max_requests=args.max_requests)
        print(f"served {served} datagrams", file=sys.stderr)
        return 0
    finally:
        if journal is not None:
            journal.close()


def serve_udp(server: authsim.NameServer, host: str, port: int,
              max_requests: int | None = None) -> int:
    """Serve one server on a real UDP socket (desk-scale interop): each datagram
    reaches it at wall-clock time, and only what it addresses to the peer goes back."""
    sock = socket.socket(socket.AF_INET6 if ":" in host else socket.AF_INET, socket.SOCK_DGRAM)
    try:
        sock.bind((host, port))
        handled = 0
        while max_requests is None or handled < max_requests:
            data, peer = sock.recvfrom(65535)
            handled += 1
            request = SimDatagram(peer[0], server.address, data)
            for dgram in server.handle_datagram(request, time.time()):
                if dgram.destination == peer[0]:
                    sock.sendto(dgram.payload, peer)
        return handled
    finally:
        sock.close()


# --- attack ---

_POLICIES = {authsim.policy_label(p): p for p in attacklab.all_policies()}


def _cmd_attack(args) -> int:
    if args.scenario:
        report = attacklab.execute_scenario(
            attacklab.ScenarioName(args.scenario), _POLICIES[args.policy],
            spoofing_enabled=not args.no_spoofing, seed=args.seed)
        print(f"{report.scenario.value} vs {report.policy}: "
              f"{'success' if report.succeeded else 'fail'}")
        for line in report.observations:
            print(f"  {line}")
        return 0
    matrix = attacklab.run_taxonomy_matrix(spoofing_enabled=not args.no_spoofing, seed=args.seed)
    if args.out:
        _write_or_print(args.out, matrix.to_csv())
    print(matrix.format_table())
    return 0


# --- ingest ---


def _cmd_ingest(args) -> int:
    rules = ingest.SuffixRuleSet.from_file(args.psl) if args.psl else ingest.SuffixRuleSet.bundled()
    with open(args.domains, encoding="utf-8") as fh:
        names = ingest.read_domain_lines(fh)
    registrable = []
    seen = set()
    for name in names:
        reg = ingest.registrable_domain(name, rules)
        if reg is not None and reg not in seen:
            seen.add(reg)
            registrable.append(reg)
    if not args.resolver:
        _write_or_print(args.domains_out, "".join(f"{d.to_text()}\n" for d in registrable))
        return 0
    if not args.fleet:
        raise RuntimeError("--resolver needs --fleet (simulated resolution)")
    bus, _ = _build_sim(args.fleet, args.keys)
    transport = SimTransport(bus)
    cfg = ingest.IngestConfig(require_soa=args.require_soa, include_ipv6=args.ipv6)
    universe, stats = ingest.resolve_targets(registrable, args.resolver, transport, cfg,
                                             random.Random(args.seed))
    pair_lines = sorted(f"{zone.to_text()},{addr}" for zone, addr in universe.pairs)
    _write_or_print(args.pairs_out, "".join(line + "\n" for line in pair_lines))
    summary = dict(universe.counts(), **vars(stats))
    if args.universe_out:
        _write_or_print(args.universe_out, json.dumps(summary, indent=2) + "\n")
    print(json.dumps(summary), file=sys.stderr)
    return 0


# --- report ---


def _load_snapshot(path: str) -> analytics.ScanSnapshot:
    with open(path, encoding="utf-8") as fh:
        return analytics.ScanSnapshot.from_json_obj(json.load(fh))


def _load_attribution(args) -> analytics.AttributionMap:
    path = args.attribution or os.environ.get(ATTRIBUTION_ENV)
    if not path:
        raise RuntimeError(f"attribution map required: --attribution or ${ATTRIBUTION_ENV}")
    with open(path, encoding="utf-8") as fh:
        prefix_csv = fh.read()
    csirt_csv = ""
    if args.csirts:
        with open(args.csirts, encoding="utf-8") as fh:
            csirt_csv = fh.read()
    return analytics.AttributionMap.from_csv(prefix_csv, csirt_csv)


def _cmd_report(args) -> int:
    if args.mode == "rates":
        rows = analytics.compute_rates(_load_snapshot(args.snapshot), decimals=args.decimals)
        for category, row in rows.items():
            print(f"{category}: {row.vulnerable:,} / {row.tested:,} ({row.percent})")
        return 0
    if args.mode == "aggregate":
        attribution = _load_attribution(args)
        report = analytics.aggregate(_load_snapshot(args.snapshot), attribution,
                                     analytics.AggregationKey(args.key))
        csirts = attribution.csirts if args.key == "csirt" and attribution.csirts else None
        _write_or_print(args.out, analytics.aggregate_csv(report, csirts))
        c = report.concentration
        print(f"top-{c.top_k} nameserver share: {c.top_share:.1%}; "
              f"mean domains/ns: {c.mean_domains_per_nameserver:.1f}; "
              f"mean pairs/ns: {c.mean_pairs_per_nameserver:.1f}", file=sys.stderr)
        return 0
    if args.mode == "diff":
        diff = analytics.diff_scans(_load_snapshot(args.earlier), _load_snapshot(args.later))
        out = {}
        for scope in ("domains", "nameservers", "pairs"):
            sets = getattr(diff, scope)
            out[scope] = {
                "remediated": len(sets.remediated),
                "persistent": len(sets.persistent),
                "new": len(sets.new),
                "remediated_rate": round(sets.remediated_rate, 6),
            }
        _write_or_print(args.out, json.dumps(out, indent=2) + "\n")
        return 0
    if args.mode == "survival":
        snapshots = [_load_snapshot(args.baseline)] + [_load_snapshot(p) for p in args.rescans]
        subjects = analytics.subjects_from_snapshots(snapshots, args.notified_at,
                                                     scope=args.scope)
        curve = analytics.kaplan_meier(subjects)
        _write_or_print(args.out, analytics.survival_series_csv(curve))
        return 0
    # notify
    entries = analytics.notification_entries(_load_snapshot(args.baseline),
                                             _load_snapshot(args.current),
                                             _load_attribution(args))
    template = analytics.NotificationTemplate(guide_url=args.guide_url)
    batch = analytics.make_notification_batch(entries, template)
    lines = [json.dumps({"recipient": n.recipient, "subject": n.subject, "body": n.body})
             for n in batch]
    _write_or_print(args.out, "\n".join(lines) + ("\n" if lines else ""))
    print(f"{len(batch)} notification(s) generated", file=sys.stderr)
    return 0


# --- parser wiring ---


def build_parser() -> _Parser:
    parser = _Parser(prog="zptool", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("scan", help="probe domain-nameserver pairs")
    p.add_argument("--pairs", help="CSV of zone,nameserver lines")
    p.add_argument("--domains", help="bare zone list; resolved via --resolver instead")
    p.add_argument("--resolver", help="resolver address for auto-resolve mode")
    p.add_argument("--transport", choices=["sim", "udp"], default="sim")
    p.add_argument("--fleet", help="fleet spec for sim transport")
    p.add_argument("--keys", help="TSIG key file (name secret per line)")
    p.add_argument("--out", help="outcome JSONL path (default stdout)")
    p.add_argument("--snapshot", help="snapshot JSON path")
    probe = scanner.ProbeConfig()  # the one source of each probe default
    p.add_argument("--probe-address", default=str(probe.probe_address))
    p.add_argument("--sentinel", default=probe.sentinel_label.decode("ascii"))
    p.add_argument("--ttl", type=int, default=probe.ttl)
    p.add_argument("--timeout", type=float, default=probe.timeout)
    p.add_argument("--rate", type=float, default=probe.per_nameserver_rate,
                   help="per-nameserver probes/second")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--i-own-the-probe-address", action="store_true",
                   help="attest the probe address is operator-owned (required for udp)")
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("sim", help="run an authoritative fleet")
    p.add_argument("--fleet", required=True)
    p.add_argument("--keys")
    p.add_argument("--honeypot", help="append-only JSONL journal of every update attempt")
    p.add_argument("--bind", help="serve one fleet server on a real UDP host:port or [v6]:port")
    p.add_argument("--max-requests", type=int, help="stop after N datagrams (testing)")
    p.set_defaults(func=_cmd_sim)

    p = sub.add_parser("attack", help="run the attack taxonomy")
    p.add_argument("--scenario", choices=[s.value for s in attacklab.ScenarioName])
    p.add_argument("--policy", choices=list(_POLICIES), default="open")
    p.add_argument("--no-spoofing", action="store_true")
    p.add_argument("--out", help="matrix CSV path")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_attack)

    p = sub.add_parser("ingest", help="domains -> scanning pairs")
    p.add_argument("--domains", required=True)
    p.add_argument("--psl", help="public-suffix rule file (default: bundled snapshot)")
    p.add_argument("--resolver", help="resolver address on the sim fleet")
    p.add_argument("--fleet")
    p.add_argument("--keys")
    p.add_argument("--require-soa", action="store_true", help="drop domains without SOA")
    p.add_argument("--ipv6", action="store_true", help="collect AAAA glue as well")
    p.add_argument("--pairs-out")
    p.add_argument("--domains-out")
    p.add_argument("--universe-out")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("report", help="campaign analytics")
    p.set_defaults(func=_cmd_report)
    modes = p.add_subparsers(dest="mode", required=True, parser_class=_Parser)

    m = modes.add_parser("rates", help="vulnerable share of tested domains, nameservers, pairs")
    m.add_argument("--snapshot", required=True)
    m.add_argument("--decimals", type=int,
                   default=inspect.signature(analytics.compute_rates).parameters["decimals"].default)

    m = modes.add_parser("aggregate", help="vulnerable resources per ASN, country or CSIRT")
    m.add_argument("--snapshot", required=True)
    m.add_argument("--attribution", help=f"prefix CSV (or ${ATTRIBUTION_ENV})")
    m.add_argument("--csirts", help="CSIRT metadata CSV")
    m.add_argument("--key", choices=["asn", "country", "csirt"], default="csirt")
    m.add_argument("--out")

    m = modes.add_parser("diff", help="remediated, persistent and new between two scans")
    m.add_argument("--earlier", required=True)
    m.add_argument("--later", required=True)
    m.add_argument("--out")

    m = modes.add_parser("survival", help="Kaplan-Meier remediation curve")
    m.add_argument("--baseline", required=True)
    m.add_argument("--rescans", nargs="*", default=[])
    m.add_argument("--notified-at", type=float, default=0.0)
    m.add_argument("--scope", choices=["domain", "nameserver", "pair"], default="domain")
    m.add_argument("--out")

    m = modes.add_parser("notify", help="CSIRT notification batch")
    m.add_argument("--baseline", required=True)
    m.add_argument("--current", required=True)
    m.add_argument("--attribution", help=f"prefix CSV (or ${ATTRIBUTION_ENV})")
    m.add_argument("--csirts", help="CSIRT metadata CSV")
    m.add_argument("--guide-url", default="https://dnsinstitute.com/documentation/")
    m.add_argument("--out")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except (OSError, RuntimeError, ValueError, KeyError, WireError, scanner.ScannerError,
            attacklab.AttackLabError, analytics.AnalyticsError) as exc:
        print(f"zptool: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
