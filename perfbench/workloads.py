"""The benchmark's three campaign workloads: generators, runners and checks.

Every input is derived from the workload seed (never from ``hash()``), and
every call into zptoolkit goes through a module attribute
(``scanner.run_scan``, ``tsig.sign_message`` ...) so that the traced run can
rebind those names. A workload is driven in passes: ``setup()`` builds a
fresh fleet from the seed, ``run(state, timer)`` does the measured work
once, timing each item on the :class:`timing.Timer` (a
:class:`timing.NullTimer` in traced passes), and returns a
:class:`Pass` holding deterministic counts and the names of any failed
correctness checks. Items are recorded in the same order in every pass, so
``run.py`` can take each item's fastest time across passes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import os
import random
import time
from dataclasses import dataclass, field
from ipaddress import IPv4Address
from pathlib import Path

from zptoolkit import analytics, authsim, ingest, scanner, transport, tsig
from zptoolkit.authsim import Deny, IpAcl, Open, Primary, Secondary, SignedKey
from zptoolkit.scanner import ProbeConfig, ProbeTarget, Verdict
from zptoolkit.wire import (
    AddRecord,
    DeleteExactRecord,
    DnsName,
    Opcode,
    RClass,
    Rcode,
    ResourceRecord,
    RType,
    make_update,
)

from timing import Timer

perf = time.perf_counter

WORK_DIR = Path(__file__).resolve().parent / ".work"  # hosting-scan's journal files
SCANNER = "scanner.client"
TENANT = "tenant.client"
INGEST_CLIENT = "ingest.client"
UNRELATED_HOST = "203.0.113.7"
FLEET_KEY = tsig.TsigKey(DnsName.from_text("fleet-key"), b"fleet-secret-0123456789")
PROBE_CONFIG = ProbeConfig()
CLIENTS = frozenset({SCANNER, TENANT, INGEST_CLIENT})


@dataclass
class Pass:
    """One pass of a workload.

    ``counts`` are deterministic for a seed; ``layer`` holds the
    workload's own per-layer counts. ``times`` maps a stage to per-item
    seconds in recording order, and ``seconds`` is the whole pass, both
    filled in by run.py from the pass's Timer.
    """

    counts: dict[str, float]
    layer: dict[str, float]
    failed_checks: list[str] = field(default_factory=list)
    times: dict[str, list[float]] = field(default_factory=dict)
    seconds: float = 0.0


def stable_unit(*parts) -> float:
    """A uniform draw in [0, 1) fixed by its parts, independent of PYTHONHASHSEED."""
    digest = hashlib.blake2b(":".join(map(str, parts)).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") / 2.0 ** 64


class CountingTransport:
    """The Transport a client hands to zptoolkit; counts the datagrams it sends."""

    def __init__(self, bus: transport.DatagramBus, address: str):
        self.inner = transport.SimTransport(bus, address)
        self.sent = 0

    def exchange(self, payload: bytes, destination: str, timeout: float):
        self.sent += 1
        return self.inner.exchange(payload, destination, timeout)


def make_zone(apex: DnsName, policy, size: int, rng: random.Random) -> authsim.ZoneConfig:
    """A primary zone of ``size`` records: SOA, NS, glue, apex A, then host A records."""
    ns = apex.prepend("ns1")
    records = [
        authsim.make_soa(apex),
        ResourceRecord(apex, RType.NS, RClass.IN, 3600, ns),
        ResourceRecord(ns, RType.A, RClass.IN, 3600, IPv4Address("192.0.2.53")),
        ResourceRecord(apex, RType.A, RClass.IN, 3600, IPv4Address("192.0.2.1")),
    ]
    for k in range(size - len(records)):
        records.append(ResourceRecord(apex.prepend(f"h{k}"), RType.A, RClass.IN, 300,
                                      IPv4Address(0xC6120000 + rng.randrange(1 << 17))))
    return authsim.ZoneConfig.build(apex, Primary(), policy, records)


def scan_policy(kind: str, extra_allowed: frozenset = frozenset()):
    """The random_fleet policy archetypes; returns (policy, accepts the scanner)."""
    if kind == "deny":
        return Deny(), False
    if kind == "open":
        return Open(), True
    if kind == "ipacl-scanner":
        return IpAcl(frozenset({SCANNER, UNRELATED_HOST}) | extra_allowed), True
    if kind == "ipacl-other":
        return IpAcl(frozenset({UNRELATED_HOST}) | extra_allowed), False
    return SignedKey((FLEET_KEY,)), False


def random_fleet_kind(rng: random.Random) -> str:
    """Policy draw of the test suite's random_fleet: four archetypes, ACLs split in half."""
    choice = rng.randrange(4)
    if choice == 2:
        return "ipacl-scanner" if rng.random() < 0.5 else "ipacl-other"
    return ("deny", "open", None, "signedkey")[choice]


def expected_verdict(vulnerable: bool, dark: bool = False) -> Verdict:
    if dark:
        return Verdict.UNREACHABLE
    return Verdict.VULNERABLE_CONFIRMED if vulnerable else Verdict.NOT_VULNERABLE


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


@dataclass
class ShardOutcome:
    result: object          # ScanResult, or None when run_scan raised
    error: Exception | None
    sim_s: float
    datagrams: int


def scan_shard(targets: list[ProbeTarget], bus, rng, timer: Timer) -> ShardOutcome:
    """One run_scan call, timed per pair; a raised exception marks the whole shard lost.

    The time after the last pair handed out is the pair that raised, or
    else run_scan's own tail (stage "rest").
    """
    client = CountingTransport(bus, SCANNER)
    start_sim = bus.clock.now()
    try:
        result = scanner.run_scan(timer.each("pairs", targets), PROBE_CONFIG, client,
                                  clock=bus.clock, rng=rng)
        error = None
    except Exception as exc:  # the known defect: an escaped handler exception
        result, error = None, exc
    timer.add("pairs" if error else "rest", timer.cursor, perf())
    bus.detach(SCANNER)
    return ShardOutcome(result, error, bus.clock.now() - start_sim, client.sent)


def verdict_counts(outcomes) -> dict[str, float]:
    counts = {f"scanner.verdict.{v.value}": 0 for v in Verdict}
    for o in outcomes:
        counts[f"scanner.verdict.{o.verdict.value}"] += 1
    return counts


# --- fleet-scan ---------------------------------------------------------------


class FleetScan:
    """~10k single-zone servers under the random_fleet policy mix, 10% dark,
    5-105 ms seeded one-way delay per server, probed by one run_scan."""

    name = "fleet-scan"

    def __init__(self, seed: int):
        self.seed = seed
        self.n = 10_000

    def setup(self):
        rng = random.Random(f"fleet-scan:{self.seed}")
        dark = set(rng.sample(range(self.n), self.n // 10))
        delays: dict[str, float] = {}
        fleet, targets, expected = [], [], []
        for i in range(self.n):
            apex = DnsName.from_text(f"zone{i}.example")
            address = f"10.{(i >> 16) & 0xFF}.{(i >> 8) & 0xFF}.{i & 0xFF}"
            policy, vulnerable = scan_policy(random_fleet_kind(rng))
            zone = make_zone(apex, policy, 4 + rng.randrange(9), rng)
            targets.append(ProbeTarget(apex, address))
            expected.append(expected_verdict(vulnerable, i in dark))
            if i not in dark:
                fleet.append((address, zone))
                delays[address] = 0.005 + 0.1 * stable_unit(self.seed, address)

        def delay(dgram) -> float:
            return delays.get(dgram.destination, delays.get(dgram.source, 0.0))

        bus = transport.DatagramBus(clock=transport.ManualClock(), rng=random.Random(self.seed),
                                    delay_fn=delay)
        servers = authsim.build_fleet(bus, fleet)
        return dict(bus=bus, servers=servers, targets=targets, expected=expected, zones=fleet)

    def run(self, st, timer: Timer) -> Pass:
        bus = st["bus"]
        shard = scan_shard(st["targets"], bus, random.Random(self.seed), timer)
        failed_checks = []
        if shard.error is not None:
            failed_checks.append(f"fleet-scan: run_scan raised {shard.error!r}")
            outcomes, completed = [], 0
        else:
            outcomes, completed = shard.result.outcomes, len(st["targets"])
            verdicts = [o.verdict for o in outcomes]
            if verdicts != st["expected"]:
                wrong = sum(a != b for a, b in zip(verdicts, st["expected"]))
                failed_checks.append(f"fleet-scan: {wrong} verdicts differ from ground truth")
        changed = sum(st["servers"][addr].zones[z.apex].normalized_records() != z.normalized_records()
                      for addr, z in st["zones"])
        if changed:
            failed_checks.append(f"fleet-scan: {changed} zones not left as found")
        n = len(st["targets"])
        counts = dict(attempted=n, failed=n - completed, completed_pairs=completed,
                      client_datagrams=shard.datagrams if completed else 0, sim_s=shard.sim_s)
        layer = verdict_counts(outcomes)
        layer.update(updates_sent(outcomes), **{
            "scanner.shards_failed": int(shard.error is not None),
            "scanner.residue_zones": changed,
            "transport.tap_entries": len(bus.tap),
        })
        return Pass(counts, layer, failed_checks)

    @staticmethod
    def summarize(best: dict[str, list[float]], counts) -> dict[str, float]:
        scan_s = sum(best["pairs"]) + sum(best.get("rest", ()))
        return {**scan_metrics(best["pairs"], scan_s, scan_s, counts), "stage.scan_s": scan_s}


def updates_sent(outcomes) -> dict[str, float]:
    sent = sum(o.detection_updates_sent + o.cleanup_updates_sent for o in outcomes)
    return {"scanner.updates_per_pair": sent / len(outcomes) if outcomes else 0.0}


def scan_metrics(op_times: list[float], pair_s: float, run_s: float, counts) -> dict[str, float]:
    completed = counts["completed_pairs"] or math.nan  # nothing completed: no rate to report
    op_times = op_times or [math.nan]
    return {
        "pairs_per_s": completed / pair_s,
        "sim_pairs_per_hour": completed / (counts["sim_s"] or math.nan) * 3600.0,
        "datagrams_per_pair": counts["client_datagrams"] / completed,
        "op_ms_p50": nearest_rank(op_times, 0.50) * 1000.0,
        "op_ms_p95": nearest_rank(op_times, 0.95) * 1000.0,
        "run_s": run_s,
        "completed_share": 1.0 - counts["failed"] / counts["attempted"],
    }


# --- hosting-scan -------------------------------------------------------------

HOSTING_KINDS = ("deny", "open", "ipacl", "signedkey")
# per primary, zones above the 64 KB transfer limit: (policy kind, base size)
HUGE_ZONES = (("open", 2400), ("ipacl-scanner", 2800), ("signedkey", 2600), ("deny", 3000))
SHARD_PAIRS = 60
TENANT_PAIRS_PER_ZONE = 3


def update_requests_to(bus, start: int, servers) -> int:
    """UPDATE requests placed on the bus since tap index ``start`` and addressed to a server."""
    count = 0
    for entry in bus.tap[start:]:
        payload = entry.datagram.payload
        if entry.datagram.destination in servers and len(payload) >= 12:
            flags = int.from_bytes(payload[2:4], "big")
            if (flags >> 11) & 0xF == Opcode.UPDATE and not flags & 0x8000:
                count += 1
    return count


class HostingScan:
    """3 primaries with 200 heavy-tailed zones each, mirrored on secondaries,
    journaling; sharded scans interleaved with TSIG-signed tenant updates."""

    name = "hosting-scan"

    def __init__(self, seed: int):
        self.seed = seed
        self.primaries = 3
        self.regular = 196
        self.huge = HUGE_ZONES
        self.shard_pairs = SHARD_PAIRS  # whole rounds of one zone per primary, two pairs per zone
        WORK_DIR.mkdir(exist_ok=True)
        self.journal_path = WORK_DIR / f"journal-{os.getpid()}.jsonl"

    def _zone_specs(self, rng: random.Random) -> list[tuple[str, int, int]]:
        """(policy kind, size, primary index) for every zone, in scan order.

        Sizes are fixed quantiles of a Pareto(5, 1) capped at 1200 records
        (median 10). Policies rotate through each block of four sizes, so
        every archetype gets the same sizes on every seed, and each primary
        holds one oversize zone per archetype. The scan visits the
        primaries in rounds, one zone of each per round in a seeded order,
        as a scanner spreading its load would. The oversize zones that
        accept the scanner sit mid-shard in evenly spaced shards, so each
        aborts a shard of its own at the same point. Cost, simulated time
        and failed share thus move little between seeds, while names,
        order and record data all follow the seed.
        """
        queues, aborting = [], []
        for p in range(self.primaries):
            n = self.regular
            sizes = [min(1200, max(4, int(5 / (1 - (k + 0.5) / n)))) for k in range(n)]
            specs = []
            for block in range(0, n, 4):
                turn = block // 4
                kinds = HOSTING_KINDS[turn % 4:] + HOSTING_KINDS[:turn % 4]
                for size, kind in zip(sizes[block:block + 4], kinds):
                    if kind == "ipacl":
                        kind = ("ipacl-scanner", "ipacl-other")[turn // 4 % 2]
                    specs.append((kind, size, p))
            for kind, base in self.huge:
                spec = (kind, base + rng.randrange(400), p)
                (aborting if scan_policy(kind)[1] else specs).append(spec)
            rng.shuffle(specs)
            queues.append(specs)
        rng.shuffle(aborting)
        rounds_per_shard = self.shard_pairs // (2 * self.primaries)
        shards = (len(queues[0]) + len(aborting) // self.primaries) // rounds_per_shard
        offset = rng.random()
        for j, spec in enumerate(aborting):
            shard = int((j + offset) * shards / len(aborting))
            queues[spec[2]].insert(shard * rounds_per_shard + rounds_per_shard // 2, spec)
        primaries = list(range(self.primaries))
        rng.shuffle(primaries)
        order = []
        for r in range(max(map(len, queues))):
            order += [queues[p][r] for p in primaries if r < len(queues[p])]
        return order

    def setup(self):
        rng = random.Random(f"hosting-scan:{self.seed}")
        if self.journal_path.exists():
            self.journal_path.unlink()
        primaries = [f"172.16.{p}.53" for p in range(self.primaries)]
        secondaries = [f"172.17.{p}.53" for p in range(self.primaries)]
        fleet, zones, targets = [], [], []
        token = rng.getrandbits(24)
        for j, (kind, size, p) in enumerate(self._zone_specs(rng)):
            apex = DnsName.from_text(f"z{j}-{token:06x}.hosting{p}.example")
            # forwarded updates reach the primary from the secondary's address
            policy, vulnerable = scan_policy(kind, frozenset({secondaries[p]}))
            zone = make_zone(apex, policy, size, rng)
            fleet.append((primaries[p], zone))
            fleet.append((secondaries[p], dataclasses.replace(zone, role=Secondary(primaries[p]))))
            zones.append((zone, p, vulnerable))
            targets.append((ProbeTarget(apex, primaries[p]), vulnerable, j))
            targets.append((ProbeTarget(apex, secondaries[p]), vulnerable, j))
        signed = [j for j, (z, _, _) in enumerate(zones) if isinstance(z.policy, SignedKey)]
        rng.shuffle(signed)
        tenant = signed * TENANT_PAIRS_PER_ZONE
        journal = {"events": 0}
        sink = authsim.open_journal(str(self.journal_path))

        def counted_sink(event) -> None:
            journal["events"] += 1
            sink(event)

        bus = transport.DatagramBus(clock=transport.ManualClock(), rng=random.Random(self.seed))
        servers = authsim.build_fleet(bus, fleet, honeypot=True,
                                      journal_sink=counted_sink)
        return dict(bus=bus, servers=servers, zones=zones, targets=targets, tenant=tenant,
                    primaries=primaries, secondaries=secondaries, journal=journal)

    def _tenant_pair(self, st, zone_index: int, k: int, rng, client) -> int:
        """A signed add then delete of one tenant record; returns failed updates (0-2)."""
        zone, p, _ = st["zones"][zone_index]
        record = ResourceRecord(zone.apex.prepend(f"tenant{k}"), RType.A, RClass.IN, 300,
                                IPv4Address(0x0A640000 + k))
        failed = 0
        for change in (AddRecord(record), DeleteExactRecord(record)):
            msg = make_update(zone.apex, [change], rng=rng)
            try:
                signed = tsig.sign_message(msg, FLEET_KEY, int(st["bus"].clock.now()))
                reply = transport.exchange_message(client, st["primaries"][p], signed, timeout=1.0)
            except Exception:  # the same escaped-handler defect, on the write path
                failed += 1
                continue
            if reply is None or reply.rcode != Rcode.NOERROR:
                failed += 1
        return failed

    def run(self, st, timer: Timer) -> Pass:
        bus, servers = st["bus"], st["servers"]
        rng = random.Random(self.seed)
        tenant_rng = random.Random(self.seed + 1)
        client = CountingTransport(bus, TENANT)
        targets = st["targets"]
        step = self.shard_pairs
        shards = [targets[i:i + step] for i in range(0, len(targets), step)]
        per_gap = -(-len(st["tenant"]) // len(shards))
        failed_checks, outcomes = [], []
        dirty: set[int] = set()
        completed = datagrams = failed_updates = shards_failed = residue = 0
        sim_s = 0.0
        for s, shard in enumerate(shards):
            tap_start, events_start = len(bus.tap), st["journal"]["events"]
            out = scan_shard([t for t, _, _ in shard], bus, rng, timer)
            sim_s += out.sim_s
            received = update_requests_to(bus, tap_start, servers)
            journaled = st["journal"]["events"] - events_start
            if out.error is not None:
                shards_failed += 1
                touched = {j for _, _, j in shard}
                dirty |= touched
                residue += sum(self._changed(st, j) for j in touched)
            else:
                completed += len(shard)
                datagrams += out.datagrams
                outcomes += out.result.outcomes
                wrong = sum(o.verdict != expected_verdict(v)
                            for o, (_, v, _) in zip(out.result.outcomes, shard))
                if wrong:
                    failed_checks.append(f"hosting-scan: shard {s}: {wrong} verdicts differ "
                                         "from ground truth")
                if received != journaled:
                    failed_checks.append(f"hosting-scan: shard {s}: {journaled} journal events "
                                         f"for {received} update datagrams")
            for k in range(s * per_gap, min((s + 1) * per_gap, len(st["tenant"]))):
                tap_start, events_start = len(bus.tap), st["journal"]["events"]
                start = perf()
                failed = self._tenant_pair(st, st["tenant"][k], k, tenant_rng, client)
                timer.add("op_fail" if failed else "ops", start, perf())
                failed_updates += failed
                received = update_requests_to(bus, tap_start, servers)
                journaled = st["journal"]["events"] - events_start
                if failed:
                    dirty.add(st["tenant"][k])
                elif received != journaled:
                    failed_checks.append(f"hosting-scan: tenant update {k}: {journaled} journal "
                                         f"events for {received} update datagrams")
        bus.detach(TENANT)
        failed_checks += self._check_zones(st, dirty)
        with open(self.journal_path, encoding="utf-8") as fh:
            lines = sum(1 for _ in fh)
        self.journal_path.unlink()
        if lines != st["journal"]["events"]:
            failed_checks.append(f"hosting-scan: journal file has {lines} lines for "
                                 f"{st['journal']['events']} events")
        pairs = len(targets)
        updates = 2 * len(st["tenant"])
        counts = dict(attempted=pairs + updates, failed=pairs - completed + failed_updates,
                      completed_pairs=completed, client_datagrams=datagrams, sim_s=sim_s)
        layer = verdict_counts(outcomes)
        layer.update(updates_sent(outcomes), **{
            "scanner.shards_failed": shards_failed,
            "scanner.residue_zones": residue,
            "transport.tap_entries": len(bus.tap),
        })
        return Pass(counts, layer, failed_checks)

    def _changed(self, st, j: int) -> bool:
        zone, p, _ = st["zones"][j]
        current = st["servers"][st["primaries"][p]].zones[zone.apex]
        return current.normalized_records() != zone.normalized_records()

    def _check_zones(self, st, dirty: set[int]) -> list[str]:
        changed = unsynced = 0
        for j, (zone, p, _) in enumerate(st["zones"]):
            if j in dirty:
                continue
            primary = st["servers"][st["primaries"][p]].zones[zone.apex]
            secondary = st["servers"][st["secondaries"][p]].zones[zone.apex]
            changed += primary.normalized_records() != zone.normalized_records()
            unsynced += secondary.records != primary.records
        out = []
        if changed:
            out.append(f"hosting-scan: {changed} zones not left as found")
        if unsynced:
            out.append(f"hosting-scan: {unsynced} secondaries differ from their primary")
        return out

    @staticmethod
    def summarize(best: dict[str, list[float]], counts) -> dict[str, float]:
        scan_s = sum(best["pairs"]) + sum(best.get("rest", ()))
        tenant_s = sum(best["ops"]) + sum(best.get("op_fail", ()))
        return {**scan_metrics(best["ops"], scan_s, scan_s + tenant_s, counts),
                "stage.scan_s": scan_s, "stage.tenant_s": tenant_s}


# --- ingest-report ------------------------------------------------------------

SUFFIX_MIX = (("com", 60), ("net", 8), ("org", 8), ("de", 6), ("co.uk", 6),
              ("com.au", 4), ("co.jp", 4), ("com.br", 4))
NS_KINDS = (("glue", 50), ("hosted", 45), ("lame", 5))
PARENT = "198.51.100.53"
PARENT_ONE_WAY_S = 0.02
HOSTING_PROVIDERS = 20
COUNTRIES = ("us", "de", "gb", "fr", "nl", "jp", "br", "au", "in", "cn", "ru", "pl", "it", "es",
             "se", "ca", "kr", "tw", "sg", "za", "mx", "ar", "tr", "ua", "ch", "at", "be", "cz",
             "dk", "fi")
WEEK = 7 * 86400.0


def _stratified(rng: random.Random, n: int, weights) -> list:
    """Exactly round(n * w / total) of each value, shuffled; pads with the first value."""
    total = sum(w for _, w in weights)
    out = []
    for value, w in weights:
        out += [value] * round(n * w / total)
    out = (out + [weights[0][0]] * n)[:n]
    rng.shuffle(out)
    return out


def registrable_domains(hostnames, rules) -> list[DnsName]:
    """Distinct registrable domains of the hostnames, in first-seen order."""
    domains, seen = [], set()
    for host in hostnames:
        domain = ingest.registrable_domain(host, rules)
        if domain is not None and domain not in seen:
            seen.add(domain)
            domains.append(domain)
    return domains


class IngestReport:
    """Ingest: hostnames -> registrable domains -> NS/glue resolution against one
    parent server. Report: a baseline plus 8 weekly rescans through analytics."""

    name = "ingest-report"

    def __init__(self, seed: int):
        self.seed = seed
        self.domains = 1000
        self.tested_pairs = 100_000
        self.prefixes = 300

    # ingest inputs

    def _ingest_inputs(self, rng: random.Random):
        # NS kinds in the same proportions under every suffix, so that the
        # costly lame and shared-host lookups fall on zones of fixed sizes
        pairs = [(suffix, kind) for suffix, percent in SUFFIX_MIX
                 for kind in _stratified(rng, round(self.domains * percent / 100), NS_KINDS)]
        rng.shuffle(pairs)
        token = rng.getrandbits(24)
        hostnames, truth = [], set()
        zones: dict[str, list[ResourceRecord]] = {s: [] for s, _ in SUFFIX_MIX}
        net = DnsName.from_text("net")
        for h in range(HOSTING_PROVIDERS):
            provider = net.prepend(f"host{h}-{token:06x}")
            for k in (1, 2):
                ns = provider.prepend(f"ns{k}")
                zones["net"].append(ResourceRecord(provider, RType.NS, RClass.IN, 86400, ns))
                zones["net"].append(ResourceRecord(ns, RType.A, RClass.IN, 86400,
                                                   IPv4Address(f"100.64.{h}.{k}")))
        for j, (suffix, kind) in enumerate(pairs):
            domain = DnsName.from_text(f"d{j}-{token:06x}.{suffix}")
            for label in rng.sample(("www", "mail", "api", "cdn", "shop"), 1 + rng.randrange(3)):
                hostnames.append(domain.prepend(label))
            if kind == "glue":
                for k in (1, 2):
                    ns = domain.prepend(f"ns{k}")
                    address = IPv4Address(0x0B000000 + 2 * j + k)
                    zones[suffix].append(ResourceRecord(domain, RType.NS, RClass.IN, 86400, ns))
                    zones[suffix].append(ResourceRecord(ns, RType.A, RClass.IN, 86400, address))
                    truth.add((domain, str(address)))
            elif kind == "hosted":
                h = rng.randrange(HOSTING_PROVIDERS)
                provider = net.prepend(f"host{h}-{token:06x}")
                for k in (1, 2):
                    zones[suffix].append(ResourceRecord(domain, RType.NS, RClass.IN, 86400,
                                                        provider.prepend(f"ns{k}")))
                    truth.add((domain, f"100.64.{h}.{k}"))
            else:  # lame: the nameserver's name does not exist
                zones[suffix].append(ResourceRecord(domain, RType.NS, RClass.IN, 86400,
                                                    net.prepend(f"gone{j}").prepend("ns1")))
        rng.shuffle(hostnames)
        parent_zones = []
        for suffix, records in zones.items():
            apex = DnsName.from_text(suffix)
            records = [authsim.make_soa(apex),
                       ResourceRecord(apex, RType.NS, RClass.IN, 86400, apex.prepend("a-ns")),
                       *records]
            parent_zones.append((PARENT, authsim.ZoneConfig.build(apex, Primary(), Deny(), records)))
        return hostnames, truth, parent_zones

    # report inputs

    def _report_inputs(self, rng: random.Random):
        csirt_types = list(analytics.CsirtType)
        csirts = [analytics.CsirtInfo(f"cert-{c}", f"CERT-{c.upper()}", analytics.CsirtType.NATIONAL,
                                      1 << (16 + rng.randrange(8))) for c in COUNTRIES]
        for k in range(3 * len(COUNTRIES)):
            csirts.append(analytics.CsirtInfo(f"sector-{k}", f"Sector CSIRT {k}",
                                              csirt_types[1 + k % (len(csirt_types) - 1)],
                                              1 << (12 + rng.randrange(8))))
        prefixes, networks = [], []
        blocks = rng.sample(range(20 * 256, 60 * 256), self.prefixes)
        for k, block in enumerate(blocks):
            country = COUNTRIES[rng.randrange(len(COUNTRIES))]
            ids = (f"cert-{country}",)
            if rng.random() < 0.3:
                ids += (f"sector-{rng.randrange(3 * len(COUNTRIES))}",)
            length = 16 if k % 5 else 24  # every fifth prefix is a more-specific /24
            prefix = f"{block >> 8}.{block & 0xFF}.0.0/16" if length == 16 else \
                f"{block >> 8}.{block & 0xFF}.{rng.randrange(256)}.0/24"
            networks.append(prefix)
            prefixes.append((prefix, analytics.Attribution(str(64500 + k), country, ids)))
        attribution = analytics.AttributionMap(prefixes, csirts)

        def address_in(prefix: str) -> str:
            base = prefix.split("/")[0].split(".")
            if prefix.endswith("/24"):
                return f"{base[0]}.{base[1]}.{base[2]}.{1 + rng.randrange(254)}"
            return f"{base[0]}.{base[1]}.{rng.randrange(256)}.{1 + rng.randrange(254)}"

        vulnerable_pairs = self.tested_pairs // 10
        n_ns = max(10, vulnerable_pairs * 3 // 20)
        nameservers = [address_in(networks[rng.randrange(len(networks))]) if rng.random() < 0.95
                       else f"192.0.2.{rng.randrange(256)}" for _ in range(n_ns)]
        token = rng.getrandbits(24)
        next_domain = [0]

        def new_pairs(count: int) -> set[tuple[str, str]]:
            out = set()
            while len(out) < count:
                domain = f"v{next_domain[0]}-{token:06x}.example"
                next_domain[0] += 1
                # a skewed draw concentrates domains on the first nameservers
                first = int(n_ns * rng.random() ** 2)
                out.add((domain, nameservers[first]))
                if rng.random() < 0.45:
                    out.add((domain, nameservers[rng.randrange(n_ns)]))
            return out

        tested = analytics.CategoryCounts(domains=self.tested_pairs * 6 // 10,
                                          nameservers=self.tested_pairs // 12,
                                          pairs=self.tested_pairs)
        t0 = 1_700_000_000.0
        current = new_pairs(vulnerable_pairs)
        snapshots = [analytics.ScanSnapshot.from_pairs(t0, tested, current)]
        for week in range(1, 9):
            live_ns = sorted({a for _, a in current})
            fixed = set(rng.sample(live_ns, len(live_ns) * 12 // 100))
            current = {p for p in sorted(current) if p[1] not in fixed and rng.random() >= 0.03}
            current |= new_pairs(vulnerable_pairs // 50)
            snapshots.append(analytics.ScanSnapshot.from_pairs(t0 + week * WEEK, tested, current))
        domain_group = {}
        for zone, addr in sorted(snapshots[0].vulnerable_pairs):
            domain_group.setdefault(zone, attribution.lookup(addr).country)
        csirt_group = {c.csirt_id: c.type.value for c in csirts}
        return dict(snapshots=snapshots, attribution=attribution, domain_group=domain_group.get,
                    csirt_group=lambda cid: csirt_group.get(cid, "unattributed"),
                    notified_at=t0 + 86400.0)

    def setup(self):
        rng = random.Random(f"ingest-report:{self.seed}")
        hostnames, truth, parent_zones = self._ingest_inputs(rng)
        bus = transport.DatagramBus(clock=transport.ManualClock(), rng=random.Random(self.seed),
                                    delay_fn=lambda dgram: PARENT_ONE_WAY_S)
        authsim.build_fleet(bus, parent_zones)
        report = self._report_inputs(rng)
        return dict(bus=bus, hostnames=hostnames, truth=truth, rules=ingest.SuffixRuleSet.bundled(),
                    **report)

    def run(self, st, timer: Timer) -> Pass:
        bus = st["bus"]
        failed_checks: list[str] = []
        # ingest: registrable domains, then NS/glue resolution
        random.seed(self.seed)  # resolve_targets draws query ids from the global generator
        domains = timer.call("registrable", registrable_domains, st["hostnames"], st["rules"])
        client = CountingTransport(bus, INGEST_CLIENT)
        sim0 = bus.clock.now()
        universe, stats = ingest.resolve_targets(timer.each("ops", domains), PARENT, client)
        timer.add("rest", timer.cursor, perf())
        sim_s = bus.clock.now() - sim0
        bus.detach(INGEST_CLIENT)
        pairs = universe.pairs
        if pairs != st["truth"]:
            failed_checks.append(f"ingest-report: resolved {len(pairs)} pairs, "
                                 f"{len(pairs ^ st['truth'])} differ from ground truth")
        # report
        bad, report_steps = self._report(st, timer)
        failed_checks += bad
        counts = dict(attempted=len(domains) + report_steps, failed=0,
                      completed_pairs=len(pairs),
                      client_datagrams=client.sent, sim_s=sim_s)
        layer = {
            "ingest.queries_per_domain": client.sent / len(domains),
            "ingest.resolved_ratio": stats.resolved_domains / len(domains),
            "transport.tap_entries": len(bus.tap),
        }
        return Pass(counts, layer, failed_checks)

    def _report(self, st, timer: Timer) -> tuple[list[str], int]:
        """The report's failed checks, and the number of steps it timed."""
        snaps, attribution = st["snapshots"], st["attribution"]
        baseline, latest = snaps[0], snaps[-1]
        bad: list[str] = []
        steps = [0]

        def step(fn, *args, **kwargs):
            steps[0] += 1
            return timer.call("report", fn, *args, **kwargs)

        for snap in snaps:
            rates = step(analytics.compute_rates, snap)
            for category, row in rates.items():
                if row.fraction != row.vulnerable / row.tested or \
                        row.vulnerable != getattr(snap.vulnerable, category):
                    bad.append(f"ingest-report: rate {category} disagrees with counts")
        for key in analytics.AggregationKey:
            agg = step(analytics.aggregate, latest, attribution, key)
            step(analytics.aggregate_csv, agg,
                 attribution.csirts if key is analytics.AggregationKey.CSIRT else None)
            if (agg.total_domains, agg.total_nameservers, agg.total_pairs) != \
                    (latest.vulnerable.domains, latest.vulnerable.nameservers, latest.vulnerable.pairs):
                bad.append(f"ingest-report: aggregate {key.value} totals differ from snapshot")
            if key is not analytics.AggregationKey.CSIRT and \
                    sum(r.vulnerable_nameservers for r in agg.rows) != latest.vulnerable.nameservers:
                bad.append(f"ingest-report: aggregate {key.value} rows do not partition "
                           "the nameservers")
        for earlier, later in zip(snaps, snaps[1:]):
            diff = step(analytics.diff_scans, earlier, later)
            for part, e, l in ((diff.pairs, earlier.vulnerable_pairs, later.vulnerable_pairs),
                               (diff.domains, earlier.domains(), later.domains()),
                               (diff.nameservers, earlier.nameservers(), later.nameservers())):
                if part.earlier_count != len(e) or len(part.persistent) + len(part.new) != len(l):
                    bad.append("ingest-report: diff partitions do not add up")
        subjects = step(analytics.subjects_from_snapshots, snaps, st["notified_at"],
                        scope="domain", group_of=st["domain_group"])
        curves = [step(analytics.kaplan_meier, subjects)]
        curves += step(analytics.survival_by_group, subjects).values()
        for curve in curves:
            s = curve.survival
            if any(not 0.0 <= v <= 1.0 for v in s) or any(b > a for a, b in zip(s, s[1:])):
                bad.append("ingest-report: survival leaves [0, 1] or increases")
        step(analytics.remediation_summary, baseline, latest, attribution, st["csirt_group"])
        entries = step(analytics.notification_entries, baseline, latest, attribution)
        batch = step(analytics.make_notification_batch, entries,
                     analytics.NotificationTemplate("https://example.org/guide"))
        if len(batch) != sum(1 for e in entries if e.vulnerable_domains):
            bad.append("ingest-report: notification batch size differs from entries")
        return sorted(set(bad)), steps[0]

    @staticmethod
    def summarize(best: dict[str, list[float]], counts) -> dict[str, float]:
        ingest_s = best["registrable"][0] + sum(best["ops"]) + best["rest"][0]
        report_s = sum(best["report"])
        metrics = scan_metrics(best["ops"], ingest_s, ingest_s + report_s, counts)
        metrics["stage.ingest_s"] = ingest_s
        metrics["stage.report_s"] = report_s
        return metrics


WORKLOADS = {w.name: w for w in (FleetScan, HostingScan, IngestReport)}
