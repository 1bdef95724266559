"""Campaign analytics: rates, aggregation, diffing, survival, notifications."""

import math
import random
import tracemalloc
from ipaddress import ip_address, ip_network

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zptoolkit.analytics import (
    AggregateRow,
    AggregationKey,
    AnalyticsError,
    Attribution,
    AttributionMap,
    CategoryCounts,
    CsirtInfo,
    CsirtType,
    MissingBaseline,
    NegativeTime,
    Notification,
    NotificationEntry,
    NotificationTemplate,
    RemediationSubject,
    ScanSnapshot,
    TOP_K,
    UNKNOWN,
    ZeroTested,
    aggregate,
    aggregate_csv,
    compute_rates,
    csirt_view,
    derive_counts,
    diff_scans,
    kaplan_meier,
    make_notification_batch,
    notification_entries,
    remediation_summary,
    subjects_from_snapshots,
    survival_by_group,
    survival_series_csv,
)
from zptoolkit.transport import parse_endpoint

GLOBAL_TESTED = CategoryCounts(353_870_510, 3_855_615, 5_032_117_394)
GLOBAL_VULNERABLE = CategoryCounts(381_965, 5_575, 679_930)
SUBDOMAIN_TESTED = CategoryCounts(35_382_217, 722_989, 104_955_041)
SUBDOMAIN_VULNERABLE = CategoryCounts(399, 401, 520)


def pair_snapshot(ts, pairs, tested=None):
    pairs = frozenset(pairs)
    tested = tested or derive_counts(pairs)
    return ScanSnapshot.from_pairs(ts, tested, pairs)


def top_share_by_hand(pairs, k=TOP_K):
    """Share of the domains served by the k nameservers that serve the most, ties on the address."""
    domains_by_ns = {}
    for zone, addr in pairs:
        domains_by_ns.setdefault(addr, set()).add(zone)
    ranked = sorted(domains_by_ns, key=lambda a: (-len(domains_by_ns[a]), a))[:k]
    covered = {z for z, a in pairs if a in ranked}
    return len(covered) / len({z for z, _ in pairs}) if pairs else 0.0


class TestComputeRates:
    def test_global_scan_percentages(self):
        snap = ScanSnapshot.from_counts(0.0, GLOBAL_TESTED, GLOBAL_VULNERABLE)
        rows = compute_rates(snap)
        assert rows["domains"].percent == "0.108%"
        assert rows["nameservers"].percent == "0.145%"
        assert rows["pairs"].percent == "0.014%"

    def test_subdomain_scan_percentages(self):
        snap = ScanSnapshot.from_counts(0.0, SUBDOMAIN_TESTED, SUBDOMAIN_VULNERABLE)
        rows = compute_rates(snap, decimals=4)
        assert rows["domains"].percent == "0.0011%"
        assert rows["nameservers"].percent == "0.0555%"
        assert rows["pairs"].percent == "0.0005%"

    def test_zero_vulnerable(self):
        snap = ScanSnapshot.from_counts(0.0, CategoryCounts(10, 10, 10),
                                        CategoryCounts(0, 0, 0))
        assert compute_rates(snap)["domains"].percent == "0.000%"

    def test_zero_tested_raises(self):
        snap = ScanSnapshot.from_counts(0.0, CategoryCounts(0, 0, 0), CategoryCounts(0, 0, 0))
        with pytest.raises(ZeroTested):
            compute_rates(snap)


class TestSnapshot:
    def test_vulnerable_bounded_by_tested(self):
        with pytest.raises(ValueError):
            ScanSnapshot.from_counts(0.0, CategoryCounts(1, 1, 1), CategoryCounts(2, 1, 1))

    def test_json_round_trip_with_pairs(self):
        snap = pair_snapshot(42.0, {("a.test", "10.0.0.1"), ("b.test", "10.0.0.2")},
                             tested=CategoryCounts(5, 4, 6))
        again = ScanSnapshot.from_json_obj(snap.to_json_obj())
        assert again == snap
        obj = snap.to_json_obj()
        assert set(obj) == {"ts", "tested", "vulnerable"}
        assert obj["tested"] == {"domains": 5, "ns": 4, "pairs": 6}
        assert {"zone": "a.test", "ns": "10.0.0.1"} in obj["vulnerable"]

    def test_json_round_trip_counts_only(self):
        snap = ScanSnapshot.from_counts(1.0, GLOBAL_TESTED, GLOBAL_VULNERABLE)
        assert ScanSnapshot.from_json_obj(snap.to_json_obj()) == snap


class TestAggregate:
    def attribution(self):
        prefixes = [
            ("10.1.0.0/16", Attribution("64500", "JP", ("jp-cert",))),
            ("10.2.0.0/16", Attribution("64501", "DE", ("de-cert",))),
            ("10.2.7.0/24", Attribution("64502", "DE", ("de-cert", "de-gov"))),
        ]
        csirts = [CsirtInfo("jp-cert", "JP CERT", CsirtType.NATIONAL, 6_000_000),
                  CsirtInfo("de-cert", "DE CERT", CsirtType.NATIONAL, 4_000_000),
                  CsirtInfo("de-gov", "DE GOV", CsirtType.GOVERNMENTAL, 1_000_000)]
        return AttributionMap(prefixes, csirts)

    def test_top3_share_reproduces_concentration_fixture(self):
        # 3 of 20 nameservers serve 87 of 100 domains
        pairs = set()
        for i in range(87):
            pairs.add((f"big{i}.test", f"10.1.0.{i % 3 + 1}"))
        for i in range(13):
            pairs.add((f"small{i}.test", f"10.2.0.{i + 10}"))
        for i in range(4):  # four more nameservers without unique domains
            pairs.add(("small0.test", f"10.2.0.{i + 100}"))
        snap = pair_snapshot(0.0, pairs)
        assert snap.vulnerable.nameservers == 20
        assert snap.vulnerable.domains == 100
        concentration = aggregate(snap, self.attribution(), AggregationKey.ASN).concentration
        assert concentration.top_k == TOP_K == 3
        assert concentration.top_share == top_share_by_hand(pairs) == pytest.approx(0.87)

    def test_uniform_fixture_symmetry(self):
        pairs = {(f"d{a}{n}{i}.test", f"10.{a}.{n}.1")
                 for a in range(5) for n in range(2) for i in range(10)}
        prefixes = [(f"10.{a}.0.0/16", Attribution(f"6450{a}", f"C{a}", (f"cert{a}",)))
                    for a in range(5)]
        report = aggregate(pair_snapshot(0.0, pairs), AttributionMap(prefixes),
                           AggregationKey.ASN)
        assert len(report.rows) == 5
        assert len({(r.vulnerable_domains, r.vulnerable_nameservers) for r in report.rows}) == 1

    def test_mean_division_matches_hand_arithmetic(self):
        pairs = {(f"d{i}.test", f"10.1.0.{i % 4}") for i in range(20)}
        report = aggregate(pair_snapshot(0.0, pairs), self.attribution(), AggregationKey.ASN)
        assert report.concentration.mean_domains_per_nameserver == pytest.approx(20 / 4)
        assert report.concentration.mean_pairs_per_nameserver == pytest.approx(20 / 4)

    def test_both_load_statistics_exposed(self):
        # same domain on several nameservers: pairs/ns and domains/ns diverge
        pairs = {("one.test", f"10.1.0.{i}") for i in range(5)}
        report = aggregate(pair_snapshot(0.0, pairs), self.attribution(), AggregationKey.ASN)
        assert report.concentration.mean_domains_per_nameserver == pytest.approx(1 / 5)
        assert report.concentration.mean_pairs_per_nameserver == pytest.approx(1.0)

    def test_per_key_counts_and_unknown_bin(self):
        pairs = {("a.test", "10.1.0.1"), ("b.test", "10.2.7.9"), ("c.test", "172.16.0.1")}
        report = aggregate(pair_snapshot(0.0, pairs), self.attribution(), AggregationKey.CSIRT)
        by_key = {r.key: r for r in report.rows}
        assert by_key["jp-cert"].vulnerable_domains == 1
        assert by_key["de-cert"].vulnerable_domains == 1
        assert by_key["de-gov"].vulnerable_domains == 1   # longest-prefix row has two ids
        assert by_key["unknown"].vulnerable_domains == 1
        total_ns = sum(r.vulnerable_nameservers for r in report.rows)
        assert total_ns >= report.total_nameservers  # keys may share nameservers

    def test_global_counts_invariant_under_key_choice(self):
        pairs = {("a.test", "10.1.0.1"), ("b.test", "10.2.7.9")}
        snap = pair_snapshot(0.0, pairs)
        reports = [aggregate(snap, self.attribution(), key) for key in AggregationKey]
        assert len({(r.total_domains, r.total_nameservers, r.total_pairs) for r in reports}) == 1

    def test_csv_shape(self):
        pairs = {("a.test", "10.1.0.1")}
        report = aggregate(pair_snapshot(0.0, pairs), self.attribution(), AggregationKey.COUNTRY)
        lines = aggregate_csv(report).strip().splitlines()
        assert lines[0] == "country,vulnerable_domains,vulnerable_nameservers"
        assert lines[1] == "JP,1,1"

    def test_csv_size_scatter_column(self):
        amap = self.attribution()
        pairs = {("a.test", "10.1.0.1"), ("b.test", "10.2.7.9")}
        report = aggregate(pair_snapshot(0.0, pairs), amap, AggregationKey.CSIRT)
        lines = aggregate_csv(report, amap.csirts).strip().splitlines()
        assert lines[0] == "csirt,vulnerable_domains,vulnerable_nameservers,space_size"
        by_key = {l.split(",")[0]: l for l in lines[1:]}
        assert by_key["jp-cert"].endswith(",6000000")
        assert by_key["de-gov"].endswith(",1000000")

    def test_csv_loading(self):
        prefix_csv = "prefix,asn,country,csirt_id\n10.1.0.0/16,64500,JP,jp-cert\n"
        csirt_csv = "csirt_id,name,type,space_size\njp-cert,JP CERT,national,6000000\n"
        amap = AttributionMap.from_csv(prefix_csv, csirt_csv)
        assert amap.lookup("10.1.2.3").country == "JP"
        assert amap.lookup("192.0.2.1").asn == "unknown"
        assert amap.csirts["jp-cert"].type is CsirtType.NATIONAL


class TestDiffScans:
    def test_identical_snapshots(self):
        snap = pair_snapshot(1.0, {("a.test", "1"), ("b.test", "2")})
        later = pair_snapshot(2.0, {("a.test", "1"), ("b.test", "2")})
        diff = diff_scans(snap, later)
        assert not diff.pairs.remediated and not diff.pairs.new
        assert diff.pairs.persistent == snap.vulnerable_pairs

    def test_set_arithmetic_fixture(self):
        earlier = pair_snapshot(1.0, {(f"d{i}.test", "1") for i in range(100)})
        persist = {(f"d{i}.test", "1") for i in range(30)}
        new = {(f"n{i}.test", "1") for i in range(12)}
        later = pair_snapshot(2.0, persist | new)
        diff = diff_scans(earlier, later)
        assert len(diff.pairs.remediated) == 70
        assert len(diff.pairs.persistent) == 30
        assert len(diff.pairs.new) == 12
        assert diff.pairs.remediated_rate == pytest.approx(0.70)

    def test_campaign_end_rates(self):
        # tuned to the campaign outcome: 97.96% of domains and 53.59% of
        # nameservers remediated (10,000 of each, disjoint blocks)
        fixed_block = {(f"d{i}.test", f"ns{i % 5_359}") for i in range(9_796)}
        persistent_block = {(f"d{9_796 + (j % 204)}.test", f"ns{5_359 + j}")
                            for j in range(4_641)}
        diff = diff_scans(pair_snapshot(1.0, fixed_block | persistent_block),
                          pair_snapshot(2.0, persistent_block))
        assert diff.domains.earlier_count == 10_000
        assert diff.nameservers.earlier_count == 10_000
        assert f"{diff.domains.remediated_rate:.2%}" == "97.96%"
        assert f"{diff.nameservers.remediated_rate:.2%}" == "53.59%"

    def test_persistence_rates_track_not_fixed(self):
        earlier = pair_snapshot(1.0, {(f"d{i}.test", f"n{i}") for i in range(1000)})
        keep = {(f"d{i}.test", f"n{i}") for i in range(214)}
        diff = diff_scans(earlier, pair_snapshot(2.0, keep))
        assert len(diff.domains.persistent) / diff.domains.earlier_count == pytest.approx(0.214)

    @given(st.sets(st.tuples(st.sampled_from([f"d{i}.t" for i in range(20)]),
                             st.sampled_from([f"n{i}" for i in range(8)]))),
           st.sets(st.tuples(st.sampled_from([f"d{i}.t" for i in range(20)]),
                             st.sampled_from([f"n{i}" for i in range(8)]))))
    @settings(max_examples=120, deadline=None)
    def test_partition_invariants(self, earlier_pairs, later_pairs):
        earlier_snap, later_snap = pair_snapshot(1.0, earlier_pairs), pair_snapshot(2.0, later_pairs)
        diff = diff_scans(earlier_snap, later_snap)
        for scope in (diff.pairs, diff.domains, diff.nameservers):
            earlier = scope.remediated | scope.persistent
            assert scope.remediated & scope.persistent == set()
            assert scope.new & earlier == set()
        assert diff.pairs.remediated | diff.pairs.persistent == frozenset(earlier_pairs)
        # each scope is the set definition over that scope's projections
        for scope, e, l in ((diff.pairs, frozenset(earlier_pairs), frozenset(later_pairs)),
                            (diff.domains, earlier_snap.domains(), later_snap.domains()),
                            (diff.nameservers, earlier_snap.nameservers(),
                             later_snap.nameservers())):
            assert (scope.remediated, scope.persistent, scope.new) == (e - l, e & l, l - e)

    def test_counts_only_snapshot_refused(self):
        counted = ScanSnapshot.from_counts(0.0, GLOBAL_TESTED, GLOBAL_VULNERABLE)
        with pytest.raises(Exception):
            diff_scans(counted, counted)


class TestKaplanMeier:
    def test_hand_computed_four_subject_example(self):
        # oracle by hand: S(1) = 1 - 1/4 = 0.75; S(3) = 0.75 * (1 - 1/2) = 0.375
        subjects = [
            RemediationSubject(0.0, 1.0, 1.0),
            RemediationSubject(0.0, 2.0, None),
            RemediationSubject(0.0, 3.0, 3.0),
            RemediationSubject(0.0, 4.0, None),
        ]
        curve = kaplan_meier(subjects)
        assert curve.survival_at(1) == pytest.approx(0.75)
        assert curve.survival_at(3) == pytest.approx(0.375)
        assert curve.at_risk == (4, 2)
        assert curve.events == (1, 1)

    def test_no_events_survival_stays_one(self):
        subjects = [RemediationSubject(0.0, float(t), None) for t in range(1, 6)]
        curve = kaplan_meier(subjects)
        assert curve.times == ()
        assert curve.survival_at(100.0) == 1.0

    def test_all_events_same_time_jump_to_zero(self):
        subjects = [RemediationSubject(0.0, 5.0, 5.0)] * 4
        curve = kaplan_meier(subjects)
        assert curve.survival_at(4.999) == 1.0
        assert curve.survival_at(5.0) == 0.0

    def test_survival_monotone_and_bounded(self):
        rng = random.Random(5)
        subjects = [RemediationSubject(0.0, rng.uniform(0, 10),
                                       None if rng.random() < 0.4 else rng.uniform(10, 20))
                    for _ in range(50)]
        curve = kaplan_meier(subjects)
        assert curve.survival_at(0) == 1.0
        values = [1.0] + list(curve.survival)
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))
        assert all(0.0 <= s <= 1.0 for s in curve.survival)

    def test_interval_midpoint_event_time(self):
        subject = RemediationSubject(10.0, 14.0, 20.0)
        curve = kaplan_meier([subject])
        assert curve.times == (7.0,)  # midpoint of (4, 10] after notification

    def test_negative_time_raises(self):
        with pytest.raises(NegativeTime):
            kaplan_meier([RemediationSubject(10.0, 2.0, None)])

    def test_a_curve_holds_its_event_times_not_its_subjects(self):
        """The bytes a curve keeps do not grow with the subjects behind the same
        event times (the estimator keeps no per-subject record)."""
        def retained_bytes(n):
            # four event times and one censoring time, whatever the subject count
            subjects = [RemediationSubject(0.0, float(i % 5), None if i % 5 == 4 else i % 5 + 1.0)
                        for i in range(n)]
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                curve = kaplan_meier(subjects)
                kept = tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()
            assert len(curve.times) == 4
            return kept

        assert abs(retained_bytes(10_000) - retained_bytes(1_000)) < 2_000
        with pytest.raises(NegativeTime):
            kaplan_meier([RemediationSubject(10.0, 2.0, 4.0)])

    def test_inverted_interval_rejected(self):
        with pytest.raises(ValueError):
            RemediationSubject(0.0, 5.0, 3.0)

    def test_zero_censoring_equals_empirical_survival(self):
        # oracle: direct counting of survivors
        rng = random.Random(11)
        for _ in range(25):
            n = rng.randrange(1, 60)
            times = [round(rng.uniform(0.5, 30.0), 2) for _ in range(n)]
            subjects = [RemediationSubject(0.0, t, t) for t in times]
            curve = kaplan_meier(subjects)
            for t in sorted(set(times)):
                empirical = sum(1 for u in times if u > t) / n
                assert math.isclose(curve.survival_at(t), empirical, abs_tol=1e-12)

    def test_survival_by_group(self):
        subjects = [RemediationSubject(0.0, 1.0, 1.0, group="military"),
                    RemediationSubject(0.0, 9.0, None, group="research-education")]
        curves = survival_by_group(subjects)
        assert set(curves) == {"military", "research-education"}
        assert curves["military"].survival_at(1.0) == 0.0
        assert curves["research-education"].survival_at(1.0) == 1.0

    def test_series_csv_format(self):
        curve = kaplan_meier([RemediationSubject(0.0, 2.0, 2.0)])
        text = survival_series_csv(curve)
        assert text.splitlines()[0] == "t,S(t),n_risk,d"
        assert text.splitlines()[1] == "2,0,1,1"


class TestSubjectsFromSnapshots:
    def snapshots(self):
        return [
            pair_snapshot(10.0, {("a.test", "1"), ("b.test", "1"), ("c.test", "2")}),
            pair_snapshot(20.0, {("a.test", "1"), ("c.test", "2")}),
            pair_snapshot(30.0, {("c.test", "2")}),
        ]

    def test_intervals_and_censoring(self):
        subjects = subjects_from_snapshots(self.snapshots(), notified_at=10.0, scope="domain")
        by_interval = {s.last_seen_vulnerable: s for s in subjects}
        assert by_interval[20.0].first_seen_remediated == 30.0   # a.test
        assert by_interval[10.0].first_seen_remediated == 20.0   # b.test
        assert by_interval[30.0].first_seen_remediated is None   # c.test, censored

    def test_scopes(self):
        for scope, expected in (("domain", 3), ("nameserver", 2), ("pair", 3)):
            assert len(subjects_from_snapshots(self.snapshots(), 10.0, scope=scope)) == expected

    def test_no_snapshot_refused(self):
        with pytest.raises(ValueError, match="baseline"):
            subjects_from_snapshots([], 10.0)

    def test_bad_scope_rejected(self):
        with pytest.raises(ValueError):
            subjects_from_snapshots(self.snapshots(), 10.0, scope="pairs")

    def test_pipeline_into_estimator(self):
        subjects = subjects_from_snapshots(self.snapshots(), notified_at=10.0)
        curve = kaplan_meier(subjects)
        assert curve.survival_at(5.0) == pytest.approx(2 / 3)    # b.test at midpoint 5
        assert curve.survival_at(15.0) == pytest.approx(1 / 3)   # a.test at midpoint 15


class TestNotifications:
    def entry(self, domains=40, fixed=12):
        return NotificationEntry(
            csirt_id="xx-cert",
            recipient="XX CERT",
            vulnerable_domains=tuple(f"d{i}.test" for i in range(domains)),
            vulnerable_nameservers=("10.0.0.1", "10.0.0.2"),
            nameservers_fixed=fixed,
            managing_orgs=("AS64500",),
        )

    def test_subject_format_exact(self):
        (note,) = make_notification_batch([self.entry()], NotificationTemplate("https://g.test"))
        assert note.subject == "40 domain(s) still vulnerable to zone poisoning, 12 nameservers fixed"

    def test_zero_vulnerable_excluded(self):
        entry = self.entry(domains=0)
        assert make_notification_batch([entry], NotificationTemplate("https://g.test")) == []

    def test_body_sections_ordered(self):
        (note,) = make_notification_batch([self.entry()], NotificationTemplate("https://g.test"))
        positions = [note.body.index(h) for h in
                     ("i. Problem", "ii. Vulnerable resources",
                      "iii. Managing organizations", "iv. Remediation steps")]
        assert positions == sorted(positions)
        assert "https://g.test" in note.body
        assert "d0.test" in note.body and "10.0.0.1" in note.body and "AS64500" in note.body

    def test_missing_baseline(self):
        entry = NotificationEntry("xx", "XX", ("d.test",), ("1",), nameservers_fixed=None)
        with pytest.raises(MissingBaseline):
            make_notification_batch([entry], NotificationTemplate("https://g.test"))

    def test_entries_from_snapshots(self):
        amap = AttributionMap(
            [("10.1.0.0/16", Attribution("64500", "JP", ("jp-cert",)))],
            [CsirtInfo("jp-cert", "JP CERT", CsirtType.NATIONAL, 1000)],
        )
        baseline = pair_snapshot(1.0, {("a.test", "10.1.0.1"), ("b.test", "10.1.0.2")})
        current = pair_snapshot(2.0, {("a.test", "10.1.0.1")})
        (entry,) = notification_entries(baseline, current, amap)
        assert entry.recipient == "JP CERT"
        assert entry.vulnerable_domains == ("a.test",)
        assert entry.nameservers_fixed == 1
        (note,) = make_notification_batch([entry], NotificationTemplate("https://g.test"))
        assert note.subject == "1 domain(s) still vulnerable to zone poisoning, 1 nameservers fixed"


class TestRemediationSummary:
    def attribution(self):
        prefixes = [(f"10.{i}.0.0/16", Attribution(f"6450{i}", "XX", (f"cert{i}",)))
                    for i in range(4)]
        csirts = [CsirtInfo(f"cert{i}", f"CERT {i}",
                            CsirtType.NATIONAL if i < 2 else CsirtType.MILITARY, 1000)
                  for i in range(4)]
        return AttributionMap(prefixes, csirts)

    def snapshots(self):
        # cert0: 4 ns, 3 fixed; cert1: 2 ns, 1 fixed; cert2: 3 ns, 0 fixed;
        # cert3: 1 ns, 1 fixed
        baseline = set()
        current = set()
        layout = {0: (4, 3), 1: (2, 1), 2: (3, 0), 3: (1, 1)}
        for cid, (total, fixed) in layout.items():
            for k in range(total):
                pair = (f"d{cid}-{k}.test", f"10.{cid}.0.{k + 1}")
                baseline.add(pair)
                if k >= fixed:
                    current.add(pair)
        return pair_snapshot(1.0, baseline), pair_snapshot(2.0, current)

    def test_group_statistics_match_hand_arithmetic(self):
        amap = self.attribution()
        baseline, current = self.snapshots()
        groups = {f"cert{i}": ("notified" if i < 2 else "control") for i in range(4)}
        stats = remediation_summary(baseline, current, amap, groups.__getitem__,
                                    scope="nameserver")
        notified = stats["notified"]   # cert0 (3 fixed, 1 left), cert1 (1 fixed, 1 left)
        assert notified.csirts == 2
        assert notified.remediated_total == 4 and notified.vulnerable_total == 2
        assert notified.remediated_share == pytest.approx(4 / 6)
        assert notified.max == (3, 1)
        assert notified.median == (2.0, 1.0)
        assert notified.mean == (2.0, 1.0)
        control = stats["control"]     # cert2 (0 fixed, 3 left), cert3 (1 fixed, 0 left)
        assert control.remediated_total == 1 and control.vulnerable_total == 3
        assert control.max == (1, 3)

    def test_domain_scope_and_group_by_type(self):
        amap = self.attribution()
        baseline, current = self.snapshots()
        by_type = lambda cid: amap.csirts[cid].type.value
        stats = remediation_summary(baseline, current, amap, by_type, scope="domain")
        assert set(stats) == {"national", "military"}
        national = stats["national"]
        assert national.remediated_total == 4 and national.vulnerable_total == 2

    def test_bad_scope_rejected(self):
        amap = self.attribution()
        baseline, current = self.snapshots()
        for scope in ("pairs", "domains", "nameservers"):
            with pytest.raises(ValueError, match="scope must be domain or nameserver"):
                remediation_summary(baseline, current, amap, lambda c: "all", scope=scope)

    def test_csirt_view_shapes(self):
        amap = self.attribution()
        baseline, _ = self.snapshots()
        view = csirt_view(baseline, amap)
        assert set(view) == {"cert0", "cert1", "cert2", "cert3"}
        domains, nameservers = view["cert0"]
        assert len(domains) == 4 and len(nameservers) == 4


# nested prefixes (/8 > /16 > /24 > /25 and /32 > /48), multi-CSIRT and empty id tuples,
# unattributable addresses, host:port strings and a name that is no address at all
_FOLD_NETWORKS = ("10.0.0.0/8", "10.1.0.0/16", "10.1.2.0/24", "10.1.2.128/25", "10.2.0.0/16",
                  "2001:db8::/32", "2001:db8:1::/48")
_FOLD_ADDRESSES = [f"10.{a}.{b}.{c}" for a in (0, 1, 2) for b in (0, 2) for c in (1, 130)] + [
    "192.0.2.1", "2001:db8::1", "2001:db8:1::1", "10.1.2.130:53", "10.2.0.1:5353",
    "192.0.2.7:53", "ns1.example"]
_FOLD_PAIRS = st.frozensets(st.tuples(st.sampled_from([f"d{i}.test" for i in range(8)]),
                                      st.sampled_from(_FOLD_ADDRESSES)), max_size=30)
_FOLD_MAPS = st.dictionaries(
    st.sampled_from(_FOLD_NETWORKS),
    st.builds(Attribution, st.sampled_from(["64500", "64501", "64502"]), st.sampled_from(["JP", "DE"]),
              st.lists(st.sampled_from(["cert-a", "cert-b", "cert-c"]), max_size=3,
                       unique=True).map(tuple)),
).map(lambda prefixes: AttributionMap(prefixes.items(), [
    CsirtInfo("cert-a", "CERT A", CsirtType.NATIONAL, 100),
    CsirtInfo("cert-b", "CERT B", CsirtType.MILITARY, 10)]))


def per_pair_view(pairs, amap, values_of):
    """Brute force: (domains, nameservers) per key value, one lookup per pair."""
    view = {}
    for zone, addr in pairs:
        for value in values_of(amap.lookup(addr)):
            domains, nameservers = view.setdefault(value, (set(), set()))
            domains.add(zone)
            nameservers.add(addr)
    return {v: (frozenset(d), frozenset(n)) for v, (d, n) in view.items()}


_VALUES_OF = {
    AggregationKey.ASN: lambda attr: (attr.asn,),
    AggregationKey.COUNTRY: lambda attr: (attr.country,),
    AggregationKey.CSIRT: lambda attr: attr.csirt_ids,
}


class CountingMap(AttributionMap):
    def __init__(self, *args):
        super().__init__(*args)
        self.looked_up = []

    def lookup(self, address):
        self.looked_up.append(address)
        return super().lookup(address)


class TestAttributionFold:
    @given(_FOLD_PAIRS, _FOLD_PAIRS, _FOLD_MAPS)
    @settings(max_examples=200, deadline=None)
    def test_views_match_per_pair_oracle(self, baseline_pairs, current_pairs, amap):
        baseline, current = pair_snapshot(1.0, baseline_pairs), pair_snapshot(2.0, current_pairs)
        for key, values_of in _VALUES_OF.items():
            view = per_pair_view(current_pairs, amap, values_of)
            expected = tuple(sorted(
                (AggregateRow(v, len(d), len(n)) for v, (d, n) in view.items()),
                key=lambda r: (-r.vulnerable_domains, -r.vulnerable_nameservers, r.key)))
            assert aggregate(current, amap, key).rows == expected
        csirts = _VALUES_OF[AggregationKey.CSIRT]
        before = per_pair_view(baseline_pairs, amap, csirts)
        after = per_pair_view(current_pairs, amap, csirts)
        assert csirt_view(current, amap) == after
        empty = (frozenset(), frozenset())
        expected_entries = [NotificationEntry(
            csirt_id=cid,
            recipient=amap.csirts[cid].name if cid in amap.csirts else cid,
            vulnerable_domains=tuple(sorted(after.get(cid, empty)[0])),
            vulnerable_nameservers=tuple(sorted(after.get(cid, empty)[1])),
            nameservers_fixed=len(before.get(cid, empty)[1] - after.get(cid, empty)[1]),
            managing_orgs=tuple(sorted({f"AS{amap.lookup(a).asn}" for _, a in current_pairs
                                        if cid in amap.lookup(a).csirt_ids})),
        ) for cid in sorted(set(before) | set(after))]
        assert notification_entries(baseline, current, amap) == expected_entries
        for key in AggregationKey:
            assert aggregate(current, amap, key).concentration.top_share == \
                top_share_by_hand(current_pairs)

    def test_each_nameserver_looked_up_once(self):
        amap = CountingMap([("10.1.0.0/16", Attribution("64500", "JP", ("jp-cert", "jp-gov"))),
                            ("10.1.2.0/24", Attribution("64501", "JP", ("jp-cert",)))])
        # five domains on each of three nameservers, one of them unattributable
        pairs = {(f"d{i}.test", addr) for i in range(5)
                 for addr in ("10.1.0.1", "10.1.2.3:53", "192.0.2.1")}
        snap = pair_snapshot(0.0, pairs)
        for key in AggregationKey:
            amap.looked_up.clear()
            aggregate(snap, amap, key)
            assert sorted(amap.looked_up) == sorted(snap.nameservers())
        amap.looked_up.clear()
        csirt_view(snap, amap)
        assert sorted(amap.looked_up) == sorted(snap.nameservers())
        for scope in ("domain", "nameserver"):  # once in the baseline, once in the current scan
            amap.looked_up.clear()
            remediation_summary(snap, snap, amap, str, scope=scope)
            assert sorted(amap.looked_up) == sorted([*snap.nameservers()] * 2)
        amap.looked_up.clear()
        notification_entries(snap, snap, amap)
        assert sorted(amap.looked_up) == sorted([*snap.nameservers()] * 2)

    @given(_FOLD_PAIRS, _FOLD_PAIRS, _FOLD_MAPS)
    @settings(max_examples=200, deadline=None)
    def test_remediation_summary_matches_per_pair_oracle(self, baseline_pairs, current_pairs,
                                                        amap):
        baseline, current = pair_snapshot(1.0, baseline_pairs), pair_snapshot(2.0, current_pairs)
        before = per_pair_view(baseline_pairs, amap, _VALUES_OF[AggregationKey.CSIRT])
        after = per_pair_view(current_pairs, amap, _VALUES_OF[AggregationKey.CSIRT])
        group_of = lambda cid: {"cert-a": "a", "cert-b": "a"}.get(cid, "other")
        for index, scope in enumerate(("domain", "nameserver")):
            counts = {}  # group -> per-CSIRT (remediated, still vulnerable)
            for cid, sets in before.items():
                still = sets[index] & after.get(cid, (frozenset(), frozenset()))[index]
                counts.setdefault(group_of(cid), []).append(
                    (len(sets[index]) - len(still), len(still)))
            summary = remediation_summary(baseline, current, amap, group_of, scope=scope)
            assert sorted(summary) == sorted(counts)
            for group, rows in counts.items():
                stats = summary[group]
                assert (stats.csirts, stats.remediated_total, stats.vulnerable_total) == \
                    (len(rows), sum(r for r, _ in rows), sum(v for _, v in rows))
                assert stats.max == tuple(map(max, zip(*rows)))


# lookup targets and prefix bases share a small pool, so prefixes nest, repeat and cover
# the addresses; the lengths include /0 and the full-length host prefixes
_LOOKUP_HOSTS = ("10.1.2.3", "10.1.2.200", "10.1.9.9", "10.200.0.1", "192.0.2.1", "0.0.0.0",
                 "255.255.255.255", "2001:db8::1", "2001:db8:1::1", "2001:db8:1::ffff", "::",
                 "fe80::1")
_LOOKUP_LENGTHS = {4: (0, 8, 16, 24, 25, 31, 32), 6: (0, 16, 32, 48, 64, 127, 128)}
_LOOKUP_HOST = st.one_of(st.sampled_from(_LOOKUP_HOSTS), st.ip_addresses().map(str))
_LOOKUP_PREFIX = _LOOKUP_HOST.flatmap(lambda host: st.sampled_from(
    _LOOKUP_LENGTHS[ip_address(host).version]).map(
        lambda length: str(ip_network(f"{host}/{length}", strict=False))))
_LOOKUP_ADDRESS = st.one_of(
    _LOOKUP_HOST,
    st.sampled_from(_LOOKUP_HOSTS[:7]).map(lambda host: f"{host}:53"),
    st.sampled_from(["ns1.example", "", "10.1.2.3:abc", "[2001:db8::1]:53", "10.1.2.3/32",
                     "999.0.2.1"]))


def scan_lookup(prefixes, address):
    """Brute force: every prefix of the address's version that holds it; longest, then first, wins."""
    try:
        addr = ip_address(parse_endpoint(address)[0])
    except ValueError:
        return UNKNOWN
    best = None
    for prefix, attr in prefixes:
        net = ip_network(prefix)
        if net.version == addr.version and addr in net and (best is None or net.prefixlen > best[0]):
            best = (net.prefixlen, attr)
    return best[1] if best is not None else UNKNOWN


class TestAttributionLookup:
    @given(st.lists(_LOOKUP_PREFIX, max_size=25), st.lists(_LOOKUP_ADDRESS, min_size=1, max_size=10))
    @settings(max_examples=300, deadline=None)
    def test_matches_scan_oracle(self, networks, addresses):
        # one distinct attribution per entry, so a duplicate prefix shows which entry won
        prefixes = [(p, Attribution(f"645{i:02d}", "JP", (f"cert-{i}",)))
                    for i, p in enumerate(networks)]
        amap = AttributionMap(prefixes)
        for address in addresses:
            assert amap.lookup(address) == scan_lookup(prefixes, address)

    def test_endpoint_forms_share_the_host_attribution(self):
        v6 = Attribution("64501", "DE", ("de-cert",))
        v4 = Attribution("64500", "JP", ("jp-cert",))
        amap = AttributionMap([("2001:db8::/32", v6), ("10.0.0.0/8", v4)])
        for address in ("2001:db8::1", "[2001:db8::1]", "[2001:db8::1]:53"):
            assert amap.lookup(address) == v6
        assert amap.lookup("10.1.2.3:5300") == v4
        # an endpoint whose port is not a port names no address
        for address in ("10.1.2.3:abc", "10.1.2.3:70000", "[2001:db8::1]x"):
            assert amap.lookup(address) == UNKNOWN

    def test_csv_comment_rows_skipped_and_short_rows_refused(self):
        header = "prefix,asn,country,csirt_id\n"
        amap = AttributionMap.from_csv(header + "# JP space\n10.1.0.0/16,64500,JP,jp-cert\n")
        assert amap.lookup("10.1.2.3").country == "JP"
        with pytest.raises(ValueError, match="expected 4 CSV fields"):
            AttributionMap.from_csv(header + "10.1.0.0/16,64500,JP\n")

    def test_csv_prefix_with_host_bits_raises(self):
        with pytest.raises(ValueError):
            AttributionMap.from_csv("prefix,asn,country,csirt_id\n10.1.2.3/16,64500,JP,jp-cert\n")


# --- the one-pass report functions against the implementations they replaced ---


def rescan_kaplan_meier(subjects):
    """Oracle: the estimator that rescans every sample once per event time."""
    samples = []
    for s in subjects:
        lo = s.last_seen_vulnerable - s.notified_at
        if s.first_seen_remediated is None:
            if lo < 0:
                raise NegativeTime(f"censoring time {lo} precedes notification")
            samples.append((lo, False))
        else:
            hi = s.first_seen_remediated - s.notified_at
            t = (lo + hi) / 2
            if t < 0:
                raise NegativeTime(f"event time {t} precedes notification")
            samples.append((t, True))
    event_times = sorted({t for t, is_event in samples if is_event})
    times, at_risk, events, survival = [], [], [], []
    s = 1.0
    for t in event_times:
        n = sum(1 for u, _ in samples if u >= t)
        d = sum(1 for u, is_event in samples if u == t and is_event)
        s *= 1.0 - d / n
        times.append(t)
        at_risk.append(n)
        events.append(d)
        survival.append(s)
    return (tuple(times), tuple(at_risk), tuple(events), tuple(survival))


def rescan_survival_by_group(subjects):
    groups = {}
    for s in subjects:
        groups.setdefault(s.group, []).append(s)
    return {g: rescan_kaplan_meier(members) for g, members in sorted(groups.items())}


def rescan_subjects(snapshots, notified_at, scope="domain", group_of=None):
    """Oracle: per-subject scans over every snapshot's projected set."""
    extract = {
        "domain": lambda snap: snap.domains(),
        "nameserver": lambda snap: snap.nameservers(),
        "pair": lambda snap: frozenset(snap.vulnerable_pairs),
    }[scope]
    ordered = sorted(snapshots, key=lambda s: s.timestamp)
    sets = [(snap.timestamp, extract(snap)) for snap in ordered]
    subjects = []
    for item in sorted(sets[0][1]):
        last_seen = max(ts for ts, items in sets if item in items)
        later = [ts for ts, _ in sets if ts > last_seen]
        subjects.append(RemediationSubject(notified_at, last_seen, min(later) if later else None,
                                           group_of(item) if group_of else ""))
    return subjects


def curve_tuple(curve):
    return (curve.times, curve.at_risk, curve.events, curve.survival)


def outcome(fn, *args, **kwargs):
    """The result, or the type and text of the exception raised."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - compared, not swallowed
        return type(exc), str(exc)


# few distinct times, so event times tie, censoring lands on event midpoints and
# scans share timestamps; the floats reach fractions that do not round-trip halving
_KM_TIME = st.one_of(st.sampled_from([0.0, 1.0, 2.0, 3.0, 4.0, 6.0]),
                     st.floats(0.0, 1e9, allow_nan=False, allow_infinity=False))
_KM_SUBJECT = st.builds(
    lambda notified, lo, gap, group: RemediationSubject(
        notified, notified + lo, None if gap is None else notified + lo + gap, group),
    st.sampled_from([0.0, 1.0, 1_700_000_000.0]),
    st.one_of(_KM_TIME, st.sampled_from([-1.0, -0.5])),
    st.one_of(st.none(), _KM_TIME),
    st.sampled_from(["", "national", "military"]))
_SUBJECT_ITEMS = st.frozensets(st.tuples(st.sampled_from(["a.test", "b.test", "c.test", "d.test"]),
                                         st.sampled_from(["10.0.0.1", "10.0.0.2", "192.0.2.1:53"])),
                               max_size=10)
_SNAPSHOT = st.builds(pair_snapshot, st.sampled_from([0.0, 5.0, 10.0, 10.0, 20.0, 3.5]),
                      _SUBJECT_ITEMS)


class TestOnePassAgainstRescans:
    @given(st.lists(_KM_SUBJECT, max_size=40))
    @settings(max_examples=400, deadline=None)
    def test_kaplan_meier_matches_rescan(self, subjects):
        got = outcome(lambda: curve_tuple(kaplan_meier(subjects)))
        assert got == outcome(rescan_kaplan_meier, subjects)
        got = outcome(lambda: {g: curve_tuple(c) for g, c in survival_by_group(subjects).items()})
        assert got == outcome(rescan_survival_by_group, subjects)

    def test_censoring_at_an_event_time_stays_at_risk(self):
        subjects = [RemediationSubject(0.0, 2.0, 4.0), RemediationSubject(0.0, 3.0, None),
                    RemediationSubject(0.0, 3.0, 3.0), RemediationSubject(0.0, 5.0, None)]
        curve = kaplan_meier(subjects)
        assert curve_tuple(curve) == rescan_kaplan_meier(subjects)
        assert curve.times == (3.0,) and curve.at_risk == (4,) and curve.events == (2,)

    @given(st.lists(_SNAPSHOT, min_size=1, max_size=6), st.sampled_from(["domain", "nameserver", "pair"]),
           st.booleans(), st.randoms(use_true_random=False))
    @settings(max_examples=400, deadline=None)
    def test_subjects_match_rescan(self, snapshots, scope, grouped, rng):
        group_of = (lambda item: f"g{len(str(item)) % 3}") if grouped else None
        rng.shuffle(snapshots)  # the given order is not the time order
        # of baselines tied on the earliest time, both take the first given
        expected = rescan_subjects(snapshots, 1.0, scope, group_of)
        got = subjects_from_snapshots(snapshots, 1.0, scope, group_of)
        assert got == expected
        # the sweep fills subjects positionally: each must pass the checked constructor
        checked = [RemediationSubject(s.notified_at, s.last_seen_vulnerable,
                                      s.first_seen_remediated, s.group) for s in got]
        assert got == checked and list(map(hash, got)) == list(map(hash, checked))
        assert all(type(s) is RemediationSubject and not hasattr(s, "__dict__") for s in got)
        assert outcome(kaplan_meier, got) == outcome(kaplan_meier, expected)

    @pytest.mark.parametrize("scope", ["domain", "nameserver"])
    def test_aggregate_only_snapshot_refused_like_rescan(self, scope):
        snapshots = [pair_snapshot(0.0, {("a.test", "10.0.0.1")}),
                     ScanSnapshot.from_counts(5.0, CategoryCounts(1, 1, 1), CategoryCounts(1, 1, 1))]
        expected = outcome(rescan_subjects, snapshots, 1.0, scope)
        assert expected[0] is AnalyticsError
        assert outcome(subjects_from_snapshots, snapshots, 1.0, scope)[0] is AnalyticsError

    def test_pair_scope_refuses_aggregate_only_snapshot(self):
        # the rescan raised TypeError here, from frozenset(None)
        snapshots = [pair_snapshot(0.0, {("a.test", "10.0.0.1")}),
                     ScanSnapshot.from_counts(5.0, CategoryCounts(1, 1, 1), CategoryCounts(1, 1, 1))]
        with pytest.raises(AnalyticsError):
            subjects_from_snapshots(snapshots, 1.0, "pair")

    @given(_FOLD_PAIRS, _FOLD_MAPS, st.sampled_from(list(AggregationKey)))
    @settings(max_examples=100, deadline=None)
    def test_aggregate_share_is_the_concentration(self, pairs, amap, key):
        report = aggregate(pair_snapshot(1.0, pairs), amap, key)
        assert report.concentration.top_share == top_share_by_hand(pairs)


_REPEATED_ADDRESSES = ("10.1.2.3:53", "10.1.2.3", "[2001:db8::1]:53", "[2001:db8::1]", "2001:db8::1",
                       "ns1.example", "10.1.2.3:abc", "", "999.0.2.1", "192.0.2.1", "192.0.2.1:53",
                       "[fe80::1]")


class TestRememberedLookups:
    @given(st.lists(_LOOKUP_PREFIX, max_size=12),
           st.lists(st.one_of(_LOOKUP_ADDRESS, st.sampled_from(_REPEATED_ADDRESSES)), min_size=1,
                    max_size=12))
    @example(["10.0.0.0/8", "2001:db8::/32"], list(_REPEATED_ADDRESSES))
    @settings(max_examples=200, deadline=None)
    def test_repeated_and_fresh_lookups_agree(self, networks, addresses):
        prefixes = [(p, Attribution(f"645{i:02d}", "JP", (f"cert-{i}",)))
                    for i, p in enumerate(networks)]
        shared = AttributionMap(prefixes)
        for address in addresses + addresses[::-1]:
            assert shared.lookup(address) == AttributionMap(prefixes).lookup(address) == \
                scan_lookup(prefixes, address)


class TestSnapshotCounts:
    def test_from_pairs_derives_counts_once(self, monkeypatch):
        import zptoolkit.analytics as analytics

        calls = []
        real = analytics.derive_counts
        monkeypatch.setattr(analytics, "derive_counts", lambda pairs: calls.append(1) or real(pairs))
        pairs = {("a.test", "10.0.0.1"), ("a.test", "10.0.0.2"), ("b.test", "10.0.0.1")}
        snap = ScanSnapshot.from_pairs(0.0, CategoryCounts(5, 5, 5), pairs)
        assert calls == [1]
        assert snap.vulnerable == CategoryCounts(2, 2, 3)

    def test_direct_construction_is_validated(self):
        pairs = frozenset({("a.test", "10.0.0.1"), ("b.test", "10.0.0.1")})
        tested = CategoryCounts(5, 5, 5)
        assert ScanSnapshot(0.0, tested, CategoryCounts(2, 1, 2), pairs).vulnerable_pairs == pairs
        assert ScanSnapshot(0.0, tested, None, pairs).vulnerable == CategoryCounts(2, 1, 2)
        with pytest.raises(ValueError, match="disagree"):
            ScanSnapshot(0.0, tested, CategoryCounts(2, 2, 2), pairs)
        with pytest.raises(ValueError, match="exceed"):
            ScanSnapshot(0.0, CategoryCounts(1, 5, 5), None, pairs)
        with pytest.raises(ValueError):
            ScanSnapshot(0.0, tested, None, None)

    @pytest.mark.parametrize("make", [set, frozenset, list, iter], ids=["set", "frozenset", "list", "iter"])
    def test_derive_counts_of_any_iterable(self, make):
        pairs = [("a.test", "10.0.0.1"), ("a.test", "10.0.0.2"), ("b.test", "10.0.0.1"),
                 ("a.test", "10.0.0.1")]
        assert derive_counts(make(pairs)) == CategoryCounts(2, 2, 3)
