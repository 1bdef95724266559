"""Time the campaign report against snapshot size and the number of rescans.

Usage: PYTHONPATH=src python3 tools/bench_analytics.py [--seed N] [--repeats N]

For each shape it builds a seeded campaign: a baseline scan of about
10,000 or 100,000 vulnerable (domain, nameserver) pairs and weekly rescans
after it, 9 or 26 scans in all. Each week 12% of the live nameservers are
fixed, 3% of the other pairs go, and 2% new pairs appear; domains cluster
on a few nameservers, and 95% of the nameservers fall inside one of 300
attributed prefixes. It then times:

- subjects: ``subjects_from_snapshots`` at domain scope, grouped by country;
- kaplan_meier: ``kaplan_meier`` over those subjects;
- report: the step list of the benchmark's ingest-report workload (rates of
  every scan, the three aggregates and their CSV, every consecutive diff,
  subjects, the overall and per-group curves, the remediation summary, the
  notification entries and batch), on a freshly built attribution map.

It prints, per shape, the subject and event-time counts and the median over
the repeats of each time in ms.
"""

from __future__ import annotations

import random

import _kit as kit
from zptoolkit import analytics
from zptoolkit.analytics import (AggregationKey, Attribution, AttributionMap, CategoryCounts,
                                 CsirtInfo, CsirtType, ScanSnapshot)

SHAPES = ((10_000, 9), (10_000, 26), (100_000, 9), (100_000, 26))  # (baseline pairs, scans)
PREFIXES = 300
COUNTRIES = tuple(f"c{i:02d}" for i in range(30))
WEEK = 7 * 86400.0
T0 = 1_700_000_000.0


def attribution_inputs(rng: random.Random) -> tuple[list, list, list[str]]:
    """(prefixes, CSIRTs, prefix texts) of a seeded attribution map."""
    types = list(CsirtType)
    csirts = [CsirtInfo(f"cert-{c}", f"CERT-{c.upper()}", CsirtType.NATIONAL, 1 << 20)
              for c in COUNTRIES]
    csirts += [CsirtInfo(f"sector-{k}", f"Sector CSIRT {k}", types[1 + k % (len(types) - 1)], 1 << 14)
               for k in range(len(COUNTRIES))]
    prefixes, networks = [], []
    for k, block in enumerate(rng.sample(range(20 * 256, 60 * 256), PREFIXES)):
        country = rng.choice(COUNTRIES)
        ids = (f"cert-{country}",) + ((f"sector-{rng.randrange(len(COUNTRIES))}",)
                                      if rng.random() < 0.3 else ())
        if k % 5:
            prefix = f"{block >> 8}.{block & 0xFF}.0.0/16"
        else:  # every fifth prefix is a more-specific /24
            prefix = f"{block >> 8}.{block & 0xFF}.{rng.randrange(256)}.0/24"
        networks.append(prefix)
        prefixes.append((prefix, Attribution(str(64500 + k), country, ids)))
    return prefixes, csirts, networks


def campaign(pairs: int, scans: int, networks: list[str], rng: random.Random) -> list[ScanSnapshot]:
    """A baseline of ``pairs`` vulnerable pairs, then weekly rescans, ``scans`` in all."""
    def address_in(prefix: str) -> str:
        a, b, c, _ = prefix.split("/")[0].split(".")
        third = c if prefix.endswith("/24") else rng.randrange(256)
        return f"{a}.{b}.{third}.{1 + rng.randrange(254)}"

    n_ns = max(10, pairs * 3 // 20)
    nameservers = [address_in(rng.choice(networks)) if rng.random() < 0.95
                   else f"192.0.2.{rng.randrange(256)}" for _ in range(n_ns)]
    next_domain = 0

    # pairs sit in insertion-ordered dicts, so that no draw follows the hash seed
    def new_pairs(count: int) -> dict[tuple[str, str], None]:
        nonlocal next_domain
        out = {}
        while len(out) < count:
            domain = f"v{next_domain}.example"
            next_domain += 1
            out[domain, nameservers[int(n_ns * rng.random() ** 2)]] = None  # skewed to the first
            if rng.random() < 0.45:
                out[domain, rng.choice(nameservers)] = None
        return out

    tested = CategoryCounts(domains=pairs * 6, nameservers=pairs * 10 // 12, pairs=pairs * 10)
    current = new_pairs(pairs)
    snapshots = [ScanSnapshot.from_pairs(T0, tested, current)]
    for week in range(1, scans):
        live = list(dict.fromkeys(a for _, a in current))
        fixed = set(rng.sample(live, len(live) * 12 // 100))
        current = {p: None for p in current if p[1] not in fixed and rng.random() >= 0.03}
        current |= new_pairs(pairs // 50)
        snapshots.append(ScanSnapshot.from_pairs(T0 + week * WEEK, tested, current))
    return snapshots


def report(snapshots: list[ScanSnapshot], attribution: AttributionMap, domain_group,
           csirt_group) -> None:
    """The benchmark's ingest-report step list, without its checks."""
    baseline, latest = snapshots[0], snapshots[-1]
    for snap in snapshots:
        analytics.compute_rates(snap)
    for key in AggregationKey:
        agg = analytics.aggregate(latest, attribution, key)
        analytics.aggregate_csv(agg, attribution.csirts if key is AggregationKey.CSIRT else None)
    for earlier, later in zip(snapshots, snapshots[1:]):
        analytics.diff_scans(earlier, later)
    subjects = analytics.subjects_from_snapshots(snapshots, T0 + 86400.0, scope="domain",
                                                 group_of=domain_group)
    analytics.kaplan_meier(subjects)
    analytics.survival_by_group(subjects)
    analytics.remediation_summary(baseline, latest, attribution, csirt_group)
    entries = analytics.notification_entries(baseline, latest, attribution)
    analytics.make_notification_batch(entries, analytics.NotificationTemplate("https://example.org/guide"))


def measure_shape(pairs: int, scans: int, seed: int, repeats: int) -> dict:
    rng = random.Random(seed * 1_000_003 + pairs * 31 + scans)
    prefixes, csirts, networks = attribution_inputs(rng)
    snapshots = campaign(pairs, scans, networks, rng)
    grouping = AttributionMap(prefixes, csirts)
    domain_group = {}
    for zone, addr in sorted(snapshots[0].vulnerable_pairs):
        domain_group.setdefault(zone, grouping.lookup(addr).country)
    csirt_type = {c.csirt_id: c.type.value for c in csirts}

    def csirt_group(cid: str) -> str:
        return csirt_type.get(cid, "unattributed")

    made = {}

    def subjects() -> None:
        made["subjects"] = analytics.subjects_from_snapshots(
            snapshots, T0 + 86400.0, scope="domain", group_of=domain_group.get)

    def kaplan_meier() -> None:
        made["curve"] = analytics.kaplan_meier(made["subjects"])

    times = {"subjects": kit.per_call(subjects, repeats),
             "kaplan_meier": kit.per_call(kaplan_meier, repeats),
             # a fresh map each repeat: no answers kept from an earlier report
             "report": kit.per_call(
                 lambda attribution: report(snapshots, attribution, domain_group.get, csirt_group),
                 repeats, setup=lambda _: AttributionMap(prefixes, csirts))}
    return {"pairs": len(snapshots[0].vulnerable_pairs), "scans": scans,
            "subjects": len(made["subjects"]), "event_times": len(made["curve"].times),
            **{f"{name}_ms_median": round(t.median * 1e3, 2) for name, t in times.items()}}


def measure(seed: int, repeats: int) -> dict:
    return {"shapes": [measure_shape(pairs, scans, seed, repeats) for pairs, scans in SHAPES]}


if __name__ == "__main__":
    kit.main(measure, repeats=3)
