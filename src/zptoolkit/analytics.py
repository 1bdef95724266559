"""Campaign analytics: rate arithmetic, attribution aggregation, rescan
diffing, Kaplan-Meier survival with interval-censored remediation times,
and notification-message generation.

Everything here is a pure transformation over immutable snapshots.
"""

from __future__ import annotations

import csv
import io
import statistics
from bisect import bisect_left
from collections import Counter, defaultdict
from dataclasses import dataclass
from enum import Enum
from ipaddress import ip_address, ip_network
from operator import itemgetter
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .transport import parse_endpoint
from .wire import _builder, _slot_init

Pair = tuple[str, str]  # (zone, nameserver address)

_zone_of = itemgetter(0)
_nameserver_of = itemgetter(1)


class AnalyticsError(Exception):
    pass


class ZeroTested(AnalyticsError):
    """A rate was requested for a category with zero tested resources."""


class NegativeTime(AnalyticsError):
    """A survival time came out negative: observation precedes notification."""


class MissingBaseline(AnalyticsError):
    """Nameservers-fixed count is uncomputable without a baseline snapshot."""


# --- snapshots ---


@dataclass(frozen=True)
class CategoryCounts:
    domains: int
    nameservers: int
    pairs: int


@dataclass(frozen=True)
class ScanSnapshot:
    """Timestamped scan result: tested totals and the vulnerable pair set.

    Aggregate-only snapshots (e.g. seeded from published totals) carry
    counts without the pair list; operations that need pair identity
    (diffing, survival) refuse to run on those. Given pairs and
    ``vulnerable=None``, the counts are derived from the pairs; given both,
    they must agree.
    """

    timestamp: float
    tested: CategoryCounts
    vulnerable: Optional[CategoryCounts]
    vulnerable_pairs: Optional[frozenset[Pair]] = None

    def __post_init__(self):
        unchecked = self.vulnerable_pairs
        if self.vulnerable is None:
            if unchecked is None:
                raise ValueError("a snapshot needs vulnerable counts or pairs")
            object.__setattr__(self, "vulnerable", derive_counts(unchecked))
            unchecked = None  # counts derived from the pairs agree with them
        for category in ("domains", "nameservers", "pairs"):
            if getattr(self.vulnerable, category) > getattr(self.tested, category):
                raise ValueError(f"vulnerable {category} exceed tested {category}")
        if unchecked is not None and derive_counts(unchecked) != self.vulnerable:
            raise ValueError("vulnerable counts disagree with the pair set")

    @classmethod
    def from_pairs(cls, timestamp: float, tested: CategoryCounts,
                   pairs: Iterable[Pair]) -> "ScanSnapshot":
        return cls(timestamp, tested, None, frozenset(pairs))

    @classmethod
    def from_counts(cls, timestamp: float, tested: CategoryCounts,
                    vulnerable: CategoryCounts) -> "ScanSnapshot":
        return cls(timestamp, tested, vulnerable, None)

    def domains(self) -> frozenset[str]:
        self._need_pairs("domains")
        return frozenset(map(_zone_of, self.vulnerable_pairs))

    def nameservers(self) -> frozenset[str]:
        self._need_pairs("nameservers")
        return frozenset(map(_nameserver_of, self.vulnerable_pairs))

    def _need_pairs(self, what: str) -> None:
        if self.vulnerable_pairs is None:
            raise AnalyticsError(f"snapshot holds no pair identities; cannot compute {what}")

    def to_json_obj(self) -> dict:
        obj = {
            "ts": self.timestamp,
            "tested": {"domains": self.tested.domains, "ns": self.tested.nameservers,
                       "pairs": self.tested.pairs},
        }
        if self.vulnerable_pairs is not None:
            obj["vulnerable"] = [{"zone": z, "ns": a} for z, a in sorted(self.vulnerable_pairs)]
        else:
            obj["vulnerable_counts"] = {"domains": self.vulnerable.domains,
                                        "ns": self.vulnerable.nameservers,
                                        "pairs": self.vulnerable.pairs}
        return obj

    @classmethod
    def from_json_obj(cls, obj: Mapping) -> "ScanSnapshot":
        tested = CategoryCounts(obj["tested"]["domains"], obj["tested"]["ns"], obj["tested"]["pairs"])
        if "vulnerable" in obj:
            pairs = frozenset((e["zone"], e["ns"]) for e in obj["vulnerable"])
            return cls.from_pairs(obj["ts"], tested, pairs)
        vc = obj["vulnerable_counts"]
        return cls.from_counts(obj["ts"], tested, CategoryCounts(vc["domains"], vc["ns"], vc["pairs"]))


def derive_counts(pairs: Iterable[Pair]) -> CategoryCounts:
    if not isinstance(pairs, (set, frozenset)):
        pairs = set(pairs)
    return CategoryCounts(
        domains=len(set(map(_zone_of, pairs))),
        nameservers=len(set(map(_nameserver_of, pairs))),
        pairs=len(pairs),
    )


# --- rates (tested / vulnerable / ratio) ---


@dataclass(frozen=True)
class RateRow:
    tested: int
    vulnerable: int
    fraction: float
    percent: str


def compute_rates(snapshot: ScanSnapshot, decimals: int = 3) -> dict[str, RateRow]:
    """Vulnerability ratio per category, with the percent rendered at ``decimals`` places."""
    rows = {}
    for category in ("domains", "nameservers", "pairs"):
        tested = getattr(snapshot.tested, category)
        vulnerable = getattr(snapshot.vulnerable, category)
        if tested == 0:
            raise ZeroTested(f"no tested {category}")
        fraction = vulnerable / tested
        rows[category] = RateRow(tested, vulnerable, fraction, f"{fraction * 100:.{decimals}f}%")
    return rows


# --- attribution ---


class CsirtType(Enum):
    NATIONAL = "national"
    GOVERNMENTAL = "governmental"
    MILITARY = "military"
    RESEARCH_EDUCATION = "research-education"
    CIIP = "CIIP"
    NON_COMMERCIAL = "non-commercial"


@dataclass(frozen=True)
class Attribution:
    asn: str
    country: str
    csirt_ids: tuple[str, ...]


@dataclass(frozen=True)
class CsirtInfo:
    csirt_id: str
    name: str
    type: CsirtType
    space_size: int


UNKNOWN = Attribution("unknown", "unknown", ("unknown",))


class AttributionMap:
    """Longest-prefix address attribution plus CSIRT metadata.

    Prefixes sit in one exact-match table per IP version and prefix length,
    ``{network address as int: Attribution}``. A lookup masks the address
    to each length of its version, longest first, and the first table that
    holds the result wins, so its cost grows with the number of distinct
    prefix lengths, not of prefixes (Waldvogel et al., SIGCOMM 1997). Of
    duplicate prefixes, the first one given wins. Unattributable addresses
    fall into the ``unknown`` bin rather than being dropped. Each answer is
    kept per address string, so a report that attributes one nameserver in
    several folds parses it once; the kept answers grow with the distinct
    strings asked, and the prefixes never change after construction.
    """

    def __init__(self, prefixes: Iterable[tuple[str, Attribution]] = (),
                 csirts: Iterable[CsirtInfo] = ()):
        by_length: dict[tuple[int, int], tuple[int, dict[int, Attribution]]] = {}
        for p, attr in prefixes:
            net = ip_network(p)
            _, table = by_length.setdefault((net.version, net.prefixlen), (int(net.netmask), {}))
            table.setdefault(int(net.network_address), attr)
        # per IP version, (netmask, table) pairs, longest prefix first
        self._tables: dict[int, list[tuple[int, dict[int, Attribution]]]] = {4: [], 6: []}
        for (version, _), entry in sorted(by_length.items(), reverse=True):
            self._tables[version].append(entry)
        self.csirts = {c.csirt_id: c for c in csirts}
        self._answers: dict[str, Attribution] = {}

    def lookup(self, address: str) -> Attribution:
        attr = self._answers.get(address)
        if attr is None:
            attr = self._answers[address] = self._longest_prefix(address)
        return attr

    def _longest_prefix(self, address: str) -> Attribution:
        try:
            addr = ip_address(parse_endpoint(address)[0])
        except ValueError:
            return UNKNOWN
        bits = int(addr)
        for mask, table in self._tables[addr.version]:
            attr = table.get(bits & mask)
            if attr is not None:
                return attr
        return UNKNOWN

    @classmethod
    def from_csv(cls, prefix_csv: str, csirt_csv: str = "") -> "AttributionMap":
        """Load `prefix,asn,country,csirt_id` rows (ids ';'-separated) and
        `csirt_id,name,type,space_size` rows; a leading header line is skipped."""
        prefixes = []
        for row in _csv_rows(prefix_csv, 4, header_key="prefix"):
            prefix, asn, country, ids = row
            prefixes.append((prefix, Attribution(asn, country, tuple(i for i in ids.split(";") if i))))
        csirts = []
        for row in _csv_rows(csirt_csv, 4, header_key="csirt_id"):
            cid, name, ctype, size = row
            csirts.append(CsirtInfo(cid, name, CsirtType(ctype), int(size)))
        return cls(prefixes, csirts)


def _csv_rows(text: str, width: int, header_key: str) -> list[list[str]]:
    rows = []
    for row in csv.reader(io.StringIO(text)):
        if not row or row[0].startswith("#"):
            continue
        if row[0] == header_key:
            continue
        if len(row) != width:
            raise ValueError(f"expected {width} CSV fields, got {row!r}")
        rows.append([c.strip() for c in row])
    return rows


# --- aggregation by attribution key ---


# nameservers whose share of the vulnerable domains ``aggregate`` reports
TOP_K = 3


class AggregationKey(Enum):
    ASN = "asn"
    COUNTRY = "country"
    CSIRT = "csirt"


@dataclass(frozen=True)
class AggregateRow:
    key: str
    vulnerable_domains: int
    vulnerable_nameservers: int


@dataclass(frozen=True)
class ConcentrationStats:
    top_k: int
    top_share: float  # share of vulnerable domains served by the top_k nameservers
    mean_domains_per_nameserver: float
    mean_pairs_per_nameserver: float


@dataclass(frozen=True)
class AggregateReport:
    key: AggregationKey
    rows: tuple[AggregateRow, ...]
    total_domains: int
    total_nameservers: int
    total_pairs: int
    concentration: ConcentrationStats


def _zones_by_nameserver(pairs: Iterable[Pair]) -> dict[str, set[str]]:
    zones_by_ns: defaultdict[str, set[str]] = defaultdict(set)
    for zone, addr in pairs:
        zones_by_ns[addr].add(zone)
    return zones_by_ns


def _nameservers_by_value(nameservers: Iterable[str], lookup: Callable[[str], Attribution],
                          key: AggregationKey) -> dict[str, list[str]]:
    """The distinct ``nameservers`` under each ``key`` value, one lookup per nameserver."""
    nameservers_of: dict[str, list[str]] = {}
    for addr in nameservers:
        attr = lookup(addr)
        values = (attr.asn,) if key is AggregationKey.ASN else \
            (attr.country,) if key is AggregationKey.COUNTRY else attr.csirt_ids
        for value in values:
            nameservers_of.setdefault(value, []).append(addr)
    return nameservers_of


def _attribution_fold(zones_by_ns: Mapping[str, set[str]], lookup: Callable[[str], Attribution],
                      key: AggregationKey) -> dict[str, tuple[frozenset[str], frozenset[str]]]:
    """Vulnerable (domains, nameservers) per ``key`` value, one lookup per nameserver."""
    return {v: (frozenset().union(*map(zones_by_ns.__getitem__, addrs)), frozenset(addrs))
            for v, addrs in _nameservers_by_value(zones_by_ns, lookup, key).items()}


def _top_share(zones_by_ns: Mapping[str, set[str]], k: int, total_domains: int) -> float:
    if not zones_by_ns:
        return 0.0
    # ties at the k boundary break on the address so the result is stable
    ranked = sorted(zones_by_ns.items(), key=lambda e: (-len(e[1]), e[0]))
    return len(set().union(*(domains for _, domains in ranked[:k]))) / total_domains


def aggregate(snapshot: ScanSnapshot, attribution: AttributionMap,
              key: AggregationKey) -> AggregateReport:
    """Distinct vulnerable domains/nameservers per attribution key, ranked; each nameserver attributed once."""
    snapshot._need_pairs("aggregation")
    zones_by_ns = _zones_by_nameserver(snapshot.vulnerable_pairs)
    folded = _attribution_fold(zones_by_ns, attribution.lookup, key)
    rows = tuple(sorted(
        (AggregateRow(v, len(domains), len(nameservers))
         for v, (domains, nameservers) in folded.items()),
        key=lambda r: (-r.vulnerable_domains, -r.vulnerable_nameservers, r.key),
    ))
    counts = snapshot.vulnerable
    concentration = ConcentrationStats(
        top_k=TOP_K,
        top_share=_top_share(zones_by_ns, TOP_K, counts.domains),
        mean_domains_per_nameserver=counts.domains / counts.nameservers if counts.nameservers else 0.0,
        mean_pairs_per_nameserver=counts.pairs / counts.nameservers if counts.nameservers else 0.0,
    )
    return AggregateReport(key, rows, counts.domains, counts.nameservers, counts.pairs, concentration)


def aggregate_csv(report: AggregateReport,
                  csirts: Optional[Mapping[str, CsirtInfo]] = None) -> str:
    """Ranked table as CSV; with CSIRT metadata a space_size column is added,
    giving the size-versus-vulnerable-resources scatter data directly."""
    out = io.StringIO()
    writer = csv.writer(out)
    header = [report.key.value, "vulnerable_domains", "vulnerable_nameservers"]
    if csirts is not None:
        header.append("space_size")
    writer.writerow(header)
    for row in report.rows:
        cells = [row.key, row.vulnerable_domains, row.vulnerable_nameservers]
        if csirts is not None:
            info = csirts.get(row.key)
            cells.append(info.space_size if info else "")
        writer.writerow(cells)
    return out.getvalue()


# --- rescan diffing ---


@dataclass(frozen=True)
class DiffSets:
    remediated: frozenset
    persistent: frozenset
    new: frozenset

    @property
    def earlier_count(self) -> int:
        return len(self.remediated) + len(self.persistent)

    @property
    def remediated_rate(self) -> float:
        return len(self.remediated) / self.earlier_count if self.earlier_count else 0.0


@dataclass(frozen=True)
class ScanDiff:
    pairs: DiffSets
    domains: DiffSets
    nameservers: DiffSets


def diff_scans(earlier: ScanSnapshot, later: ScanSnapshot) -> ScanDiff:
    """Partition earlier/later vulnerable sets into remediated, persistent, and new.

    The pairs are partitioned once: R = E - L, P = E & L and N = L - E for
    the earlier and later pair sets E and L. Each scope's partition comes
    from the projections r, p and n of those three sets, so each pair is
    projected once per scope: remediated is r - p - n, persistent
    p | (r & n), and new n - p - r.
    """
    earlier._need_pairs("diffing")
    later._need_pairs("diffing")
    before, after = earlier.vulnerable_pairs, later.vulnerable_pairs
    pairs = DiffSets(remediated=before - after, persistent=before & after, new=after - before)

    def scope(project) -> DiffSets:
        r, p, n = (frozenset(map(project, part))
                   for part in (pairs.remediated, pairs.persistent, pairs.new))
        return DiffSets(remediated=r - p - n, persistent=p | (r & n), new=n - p - r)

    return ScanDiff(pairs=pairs, domains=scope(_zone_of), nameservers=scope(_nameserver_of))


def csirt_view(snapshot: ScanSnapshot,
               attribution: AttributionMap) -> dict[str, tuple[frozenset[str], frozenset[str]]]:
    """Vulnerable (domains, nameservers) under each CSIRT's jurisdiction; each nameserver attributed once."""
    snapshot._need_pairs("per-CSIRT view")
    return _attribution_fold(_zones_by_nameserver(snapshot.vulnerable_pairs), attribution.lookup,
                             AggregationKey.CSIRT)


def _csirt_nameservers(snapshot: ScanSnapshot,
                       attribution: AttributionMap) -> dict[str, frozenset[str]]:
    """The nameservers of ``csirt_view``, without its domains, at the same lookups."""
    snapshot._need_pairs("per-CSIRT view")
    nameservers = dict.fromkeys(map(_nameserver_of, snapshot.vulnerable_pairs))
    return {cid: frozenset(addrs) for cid, addrs in
            _nameservers_by_value(nameservers, attribution.lookup, AggregationKey.CSIRT).items()}


@dataclass(frozen=True)
class GroupPhaseStats:
    """One campaign group's remediation outcome for one resource scope.

    Totals are resource counts across the group's CSIRTs; max/median/mean/sd
    summarize the per-CSIRT remediated and still-vulnerable counts.
    """

    group: str
    csirts: int
    remediated_total: int
    vulnerable_total: int
    remediated_share: float
    max: tuple[int, int]              # (remediated, still vulnerable)
    median: tuple[float, float]
    mean: tuple[float, float]
    sd: tuple[float, float]


def remediation_summary(baseline: ScanSnapshot, current: ScanSnapshot,
                        attribution: AttributionMap,
                        group_of: Callable[[str], str],
                        scope: str = "nameserver") -> dict[str, GroupPhaseStats]:
    """Per-group remediation statistics over per-CSIRT counts.

    ``group_of`` maps a CSIRT id to its campaign group (e.g. notified vs
    control, or constituency type); ``scope`` is ``"domain"`` or
    ``"nameserver"``, as in ``subjects_from_snapshots``. A CSIRT's
    remediated count is its baseline resources no longer vulnerable in the
    current scan.
    """
    if scope == "nameserver":
        before = _csirt_nameservers(baseline, attribution)
        after = _csirt_nameservers(current, attribution)
    elif scope == "domain":
        before = {cid: domains for cid, (domains, _) in csirt_view(baseline, attribution).items()}
        after = {cid: domains for cid, (domains, _) in csirt_view(current, attribution).items()}
    else:
        raise ValueError(f"scope must be domain or nameserver, not {scope!r}")
    per_group: dict[str, list[tuple[int, int]]] = {}
    for cid, baseline_items in before.items():
        still = baseline_items & after.get(cid, frozenset())
        per_group.setdefault(group_of(cid), []).append(
            (len(baseline_items) - len(still), len(still)))
    out = {}
    for group, counts in sorted(per_group.items()):
        remediated = [r for r, _ in counts]
        vulnerable = [v for _, v in counts]
        total = sum(remediated) + sum(vulnerable)
        out[group] = GroupPhaseStats(
            group=group,
            csirts=len(counts),
            remediated_total=sum(remediated),
            vulnerable_total=sum(vulnerable),
            remediated_share=sum(remediated) / total if total else 0.0,
            max=(max(remediated), max(vulnerable)),
            median=(statistics.median(remediated), statistics.median(vulnerable)),
            mean=(statistics.fmean(remediated), statistics.fmean(vulnerable)),
            sd=(statistics.stdev(remediated) if len(remediated) > 1 else 0.0,
                statistics.stdev(vulnerable) if len(vulnerable) > 1 else 0.0),
        )
    return out


# --- Kaplan-Meier survival of vulnerable resources after notification ---


@_slot_init
@dataclass(frozen=True, slots=True)
class RemediationSubject:
    """One notified resource: when it was last seen vulnerable and, if ever,
    first seen remediated. ``first_seen_remediated=None`` means still vulnerable."""

    notified_at: float
    last_seen_vulnerable: float
    first_seen_remediated: Optional[float] = None
    group: str = ""

    def __post_init__(self):
        if self.first_seen_remediated is not None and self.last_seen_vulnerable > self.first_seen_remediated:
            raise ValueError("last_seen_vulnerable must not exceed first_seen_remediated")


_swept_subject = _builder(RemediationSubject)


@dataclass(frozen=True)
class SurvivalCurve:
    """Right-continuous product-limit survival estimate.

    Remediation times are interval-censored between consecutive scans; the
    event time is the interval midpoint measured from notification.
    Still-vulnerable subjects are right-censored at their last observation.
    """

    times: tuple[float, ...]
    at_risk: tuple[int, ...]
    events: tuple[int, ...]
    survival: tuple[float, ...]

    def survival_at(self, t: float) -> float:
        s = 1.0
        for ti, si in zip(self.times, self.survival):
            if ti <= t:
                s = si
            else:
                break
        return s

    def series(self) -> list[tuple[float, float, int, int]]:
        return [(t, s, n, d) for t, s, n, d in
                zip(self.times, self.survival, self.at_risk, self.events)]


def kaplan_meier(subjects: Sequence[RemediationSubject]) -> SurvivalCurve:
    """Product-limit estimate over interval-censored remediation observations.

    One sort of the sample times: the at-risk count at an event time is read
    by bisection, so the estimate costs O(N log N) for N subjects.
    """
    sample_times: list[float] = []  # time since notification, event or censored
    events_at: Counter[float] = Counter()
    for s in subjects:
        lo = s.last_seen_vulnerable - s.notified_at
        if s.first_seen_remediated is None:
            if lo < 0:
                raise NegativeTime(f"censoring time {lo} precedes notification")
            sample_times.append(lo)
        else:
            hi = s.first_seen_remediated - s.notified_at
            t = (lo + hi) / 2
            if t < 0:
                raise NegativeTime(f"event time {t} precedes notification")
            sample_times.append(t)
            events_at[t] += 1
    sample_times.sort()
    times, at_risk, events, survival = [], [], [], []
    s = 1.0
    for t in sorted(events_at):
        # tie convention: subjects censored exactly at t are still at risk at t
        n = len(sample_times) - bisect_left(sample_times, t)
        d = events_at[t]
        s *= 1.0 - d / n
        times.append(t)
        at_risk.append(n)
        events.append(d)
        survival.append(s)
    return SurvivalCurve(tuple(times), tuple(at_risk), tuple(events), tuple(survival))


def survival_by_group(subjects: Sequence[RemediationSubject]) -> dict[str, SurvivalCurve]:
    """One curve per subject group (e.g. CSIRT constituency type)."""
    groups: dict[str, list[RemediationSubject]] = {}
    for s in subjects:
        groups.setdefault(s.group, []).append(s)
    return {g: kaplan_meier(members) for g, members in sorted(groups.items())}


def survival_series_csv(curve: SurvivalCurve) -> str:
    lines = ["t,S(t),n_risk,d"]
    for t, s, n, d in curve.series():
        lines.append(f"{t:g},{s:.10g},{n},{d}")
    return "\n".join(lines) + "\n"


def subjects_from_snapshots(snapshots: Sequence[ScanSnapshot], notified_at: float,
                            scope: str = "domain",
                            group_of=None) -> list[RemediationSubject]:
    """Derive interval-censored subjects from a baseline plus rescans.

    The subject universe is the first snapshot's vulnerable set; a subject's
    event interval spans its last sighting and the first later scan where it
    is gone. Subjects present in the final scan are right-censored there.
    """
    if len(snapshots) < 1:
        raise ValueError("need at least a baseline snapshot")
    projections = {"domain": _zone_of, "nameserver": _nameserver_of, "pair": None}
    if scope not in projections:
        raise ValueError(f"scope must be domain, nameserver or pair, not {scope!r}")
    project = projections[scope]

    def items_of(snap: ScanSnapshot) -> Iterable:
        snap._need_pairs(f"{scope} subjects")
        pairs = snap.vulnerable_pairs
        return pairs if project is None else map(project, pairs)

    ordered = sorted(snapshots, key=lambda s: s.timestamp)
    # one sweep in time order: an item's last write is its last sighting
    last_seen: dict = {}
    for snap in ordered:
        last_seen.update(dict.fromkeys(items_of(snap), snap.timestamp))
    times = [snap.timestamp for snap in ordered]
    # each scan time -> the next strictly later one; the last scan has none
    next_scan = {t: later for t, later in zip(times, times[1:]) if later > t}
    subjects = []
    for item in sorted(set(items_of(ordered[0]))):
        last = last_seen[item]
        # no interval check: the remediation time is a scan strictly later than ``last``
        subjects.append(_swept_subject(notified_at, last, next_scan.get(last),
                                       group_of(item) if group_of else ""))
    return subjects


# --- notifications ---


SUBJECT_TEMPLATE = "{xx} domain(s) still vulnerable to zone poisoning, {yy} nameservers fixed"
# the signature of every notification body
NOTIFICATION_SENDER = "security research team"


@dataclass(frozen=True)
class NotificationEntry:
    csirt_id: str
    recipient: str
    vulnerable_domains: tuple[str, ...]
    vulnerable_nameservers: tuple[str, ...]
    nameservers_fixed: Optional[int]
    managing_orgs: tuple[str, ...] = ()


@dataclass(frozen=True)
class NotificationTemplate:
    guide_url: str


@dataclass(frozen=True)
class Notification:
    recipient: str
    subject: str
    body: str


_PROBLEM_TEXT = (
    "Authoritative nameservers under your constituency accept unauthenticated "
    "DNS dynamic update (RFC 2136 UPDATE) requests from arbitrary sources. "
    "A single UDP datagram lets anyone add or delete records in the listed "
    "zones: traffic redirection, mail interception, and fraudulent "
    "certificate issuance all become possible."
)

_REMEDIATION_STEPS = (
    "1. Disable dynamic updates unless they are operationally required.\n"
    "2. Never use source-IP allow lists alone; UDP sources are forgeable.\n"
    "3. Require TSIG-signed updates (key-based ACLs) on every writable zone.\n"
    "4. Re-test each nameserver after the configuration change."
)


def make_notification_batch(entries: Sequence[NotificationEntry],
                            template: NotificationTemplate) -> list[Notification]:
    """One message per CSIRT with vulnerable resources; zero-domain entries are skipped."""
    batch = []
    for entry in entries:
        if not entry.vulnerable_domains:
            continue
        if entry.nameservers_fixed is None:
            raise MissingBaseline(f"no baseline for {entry.csirt_id}; nameservers-fixed unknown")
        subject = SUBJECT_TEMPLATE.format(xx=len(entry.vulnerable_domains),
                                          yy=entry.nameservers_fixed)
        body = "\n".join([
            "i. Problem",
            _PROBLEM_TEXT,
            "",
            "ii. Vulnerable resources",
            "domains: " + ", ".join(sorted(entry.vulnerable_domains)),
            "nameservers: " + ", ".join(sorted(entry.vulnerable_nameservers)),
            "",
            "iii. Managing organizations",
            ", ".join(entry.managing_orgs) if entry.managing_orgs else "unknown",
            "",
            "iv. Remediation steps",
            _REMEDIATION_STEPS,
            f"Guide: {template.guide_url}",
            "",
            f"-- {NOTIFICATION_SENDER}",
        ])
        batch.append(Notification(entry.recipient, subject, body))
    return batch


def notification_entries(baseline: ScanSnapshot, current: ScanSnapshot,
                         attribution: AttributionMap) -> list[NotificationEntry]:
    """Assemble per-CSIRT notification inputs from a baseline and the current scan."""
    before = _csirt_nameservers(baseline, attribution)
    current._need_pairs("per-CSIRT view")
    zones_by_ns = _zones_by_nameserver(current.vulnerable_pairs)
    attributions = {addr: attribution.lookup(addr) for addr in zones_by_ns}
    after = _attribution_fold(zones_by_ns, attributions.__getitem__, AggregationKey.CSIRT)
    empty = (frozenset(), frozenset())
    entries = []
    for cid in sorted(set(before) | set(after)):
        info = attribution.csirts.get(cid)
        domains, nameservers = after.get(cid, empty)
        entries.append(NotificationEntry(
            csirt_id=cid,
            recipient=info.name if info else cid,
            vulnerable_domains=tuple(sorted(domains)),
            vulnerable_nameservers=tuple(sorted(nameservers)),
            nameservers_fixed=len(before.get(cid, frozenset()) - nameservers),
            managing_orgs=tuple(sorted({f"AS{attributions[addr].asn}" for addr in nameservers})),
        ))
    return entries
