"""Input shaping: public-suffix rules, delegated subdomain zones, NS/glue resolution."""

import random
from importlib import resources
from ipaddress import IPv4Address

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zptoolkit import authsim
from zptoolkit.authsim import Deny, Open, ZoneConfig, make_soa
from zptoolkit.ingest import (
    IngestConfig,
    SuffixRuleSet,
    read_domain_lines,
    registrable_domain,
    resolve_targets,
)
from zptoolkit.scanner import ProbeConfig, ProbeTarget, Verdict, run_scan
from zptoolkit.transport import SimDatagram, SimTransport
from zptoolkit.wire import DnsName, InvalidLabel, RClass, ResourceRecord, RType

from conftest import SCANNER_SOURCE, attach_server, basic_zone

N = DnsName.from_text
RULES = SuffixRuleSet.from_text("""
// test rules
com
uk
co.uk
jp
co.jp
*.ck
!www.ck
""")


class TestRegistrableDomain:
    def test_second_level_under_multi_label_suffix(self):
        assert registrable_domain(N("www.example.co.uk"), RULES) == N("example.co.uk")

    def test_bare_suffix_not_registrable(self):
        assert registrable_domain(N("com"), RULES) is None
        assert registrable_domain(N("co.uk"), RULES) is None

    def test_deep_name_truncates_to_registrable(self):
        assert registrable_domain(N("a.b.example.com"), RULES) == N("example.com")

    def test_wildcard_and_exception_rules(self):
        assert registrable_domain(N("x.foo.ck"), RULES) == N("x.foo.ck")
        assert registrable_domain(N("foo.ck"), RULES) is None
        assert registrable_domain(N("www.ck"), RULES) == N("www.ck")  # exception rule
        assert registrable_domain(N("sub.www.ck"), RULES) == N("www.ck")

    def test_unlisted_tld_falls_to_default_rule(self):
        assert registrable_domain(N("example.zz"), RULES) == N("example.zz")
        assert registrable_domain(N("zz"), RULES) is None

    def test_case_preserved_in_result(self):
        reg = registrable_domain(N("WWW.Example.CO.UK"), RULES)
        assert reg == N("example.co.uk")
        assert reg.to_text() == "Example.CO.UK"

    @given(st.lists(st.text(alphabet="abcdefghij", min_size=1, max_size=6),
                    min_size=1, max_size=5))
    @settings(max_examples=100, deadline=None)
    def test_idempotent(self, labels):
        name = DnsName.from_text(".".join(labels) + ".co.uk")
        once = registrable_domain(name, RULES)
        assert once is not None
        assert registrable_domain(once, RULES) == once

    def test_bundled_snapshot_loads(self):
        rules = SuffixRuleSet.bundled()
        assert registrable_domain(N("www.example.co.uk"), rules) == N("example.co.uk")
        assert registrable_domain(N("example.github.io"), rules) == N("example.github.io")


def per_suffix_registrable(name: DnsName, text: str):
    """The oracle: rules read into sets of names, and every suffix of ``name``
    built as a name and looked up in each set, longest exception first."""
    rules, wildcards, exceptions = set(), set(), set()
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("//") or line.startswith("#"):
            continue
        try:
            rule = DnsName.from_text(line.lstrip("!"))
        except (UnicodeEncodeError, InvalidLabel):
            continue
        if line.startswith("!"):
            exceptions.add(rule)
        elif rule.labels[:1] == (b"*",):
            wildcards.add(rule.parent())
        else:
            rules.add(rule)
    tails = [*name.suffixes()][::-1]  # tails[k] is the suffix of k labels
    best_exception = best = 0
    for k in range(1, len(tails)):
        if tails[k] in exceptions:
            best_exception = max(best_exception, k - 1)
        if tails[k] in rules:
            best = max(best, k)
        if k >= 2 and tails[k - 1] in wildcards:
            best = max(best, k)
    count = best_exception or best or min(1, len(tails) - 1)
    return None if len(tails) - 1 <= count else tails[count + 1]


# label texts: case variants, a label holding a "." byte, and the wildcard label
_LABELS = st.sampled_from(["a", "B", "co", "CO", "uk", "ck", "Ck", "www", "x\\.y", "*"])
_RULE = st.tuples(st.sampled_from(["", "!", "*."]), st.lists(_LABELS, min_size=1, max_size=3))
_RULE_TEXT = st.lists(_RULE, max_size=8).map(
    lambda rules: "\n".join(kind + ".".join(labels) for kind, labels in rules))


class TestRegistrableDomainOracle:
    @given(_RULE_TEXT, st.lists(_LABELS, max_size=3), st.lists(_LABELS, max_size=3),
           st.data())
    @settings(max_examples=400, deadline=None)
    def test_matches_per_suffix_oracle(self, text, head, tail, data):
        """Names are the root, bare rules, and rules with labels before them."""
        bodies = [line.lstrip("!*.") for line in text.splitlines()]
        body = data.draw(st.sampled_from(bodies)) if bodies and data.draw(st.booleans()) else \
            ".".join(tail)
        name = DnsName.from_text(".".join([*head, body]) if body else ".".join(head))
        found = registrable_domain(name, SuffixRuleSet.from_text(text))
        expected = per_suffix_registrable(name, text)
        assert found == expected
        if expected is not None:
            assert found.to_text() == expected.to_text()  # the case of the input is kept

    def test_bundled_rules_match_the_oracle(self):
        text = resources.files("zptoolkit").joinpath("data/public_suffix_snapshot.dat") \
            .read_text("utf-8")
        rules = SuffixRuleSet.bundled()
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("//"):
                continue
            body = line.lstrip("!*.")
            for name in (N(body), N("x." + body), N("Y.x." + body.upper()), N("a.b.c." + body)):
                assert registrable_domain(name, rules) == per_suffix_registrable(name, text)


def test_parent_vs_child_policy_divergence(bus):
    # a delegated subdomain zone is a scan target apart from its registrable
    # parent: the parent refuses updates, the child accepts them, and only the
    # child shows up vulnerable
    parent = basic_zone("example.com", Deny())
    child_apex = N("y.example.com")
    child = ZoneConfig.build(child_apex, authsim.Primary(), Open(), [
        make_soa(child_apex),
        ResourceRecord(child_apex, RType.NS, RClass.IN, 60, child_apex.prepend("ns1")),
    ])
    attach_server(bus, "10.0.0.1", parent)
    attach_server(bus, "10.0.0.2", child)
    targets = [ProbeTarget(N("example.com"), "10.0.0.1"), ProbeTarget(child_apex, "10.0.0.2")]
    result = run_scan(targets, ProbeConfig(), SimTransport(bus, SCANNER_SOURCE),
                      bus.clock, random.Random(1))
    by_zone = {o.target.zone.to_text(): o.verdict for o in result.outcomes}
    assert by_zone["example.com"] is Verdict.NOT_VULNERABLE
    assert by_zone["y.example.com"] is Verdict.VULNERABLE_CONFIRMED


def resolver_fixture(bus):
    """One authoritative server for everything under .test, with NS and glue data."""
    apex = N("test")
    records = [make_soa(apex), ResourceRecord(apex, RType.NS, RClass.IN, 60, apex.prepend("ns1"))]

    def ns(zone_text, ns_text):
        records.append(ResourceRecord(N(zone_text), RType.NS, RClass.IN, 60, N(ns_text)))

    def glue(ns_text, addr):
        records.append(ResourceRecord(N(ns_text), RType.A, RClass.IN, 60, IPv4Address(addr)))

    # alpha.test: 2 NS x 2 addresses -> 4 pairs
    ns("alpha.test", "ns1.alpha.test")
    ns("alpha.test", "ns2.alpha.test")
    glue("ns1.alpha.test", "10.1.0.1")
    glue("ns1.alpha.test", "10.1.0.2")
    glue("ns2.alpha.test", "10.1.0.3")
    glue("ns2.alpha.test", "10.1.0.4")
    # beta.test: shares ns2.alpha.test -> 2 pairs
    ns("beta.test", "ns2.alpha.test")
    # gamma.test: NS name with no addresses -> 0 pairs, counted unresolved
    ns("gamma.test", "ns1.gamma.test")
    # delta.test: no NS records at all
    zone = ZoneConfig.build(apex, authsim.Primary(), Deny(), records)
    return attach_server(bus, "10.0.53.53", zone)


def glueless_fixture(bus):
    """One server for ``example`` and ``other.example``. ``child.example`` is
    delegated to ``ns.other.example``, whose address only ``other.example``
    holds, so the referral carries no glue; ``one.example`` and
    ``two.example`` are delegated to ``ns.gone.example``, which has none."""
    apex, other = N("example"), N("other.example")
    records = [make_soa(apex), ResourceRecord(apex, RType.NS, RClass.IN, 60, apex.prepend("ns1")),
               ResourceRecord(N("child.example"), RType.NS, RClass.IN, 60, N("ns.other.example"))]
    for zone_text in ("one.example", "two.example"):
        records.append(ResourceRecord(N(zone_text), RType.NS, RClass.IN, 60, N("ns.gone.example")))
    other_records = [make_soa(other), ResourceRecord(N("ns.other.example"), RType.A, RClass.IN,
                                                     60, IPv4Address("192.0.2.9"))]
    return attach_server(bus, "10.0.53.53",
                         ZoneConfig.build(apex, authsim.Primary(), Deny(), records),
                         ZoneConfig.build(other, authsim.Primary(), Deny(), other_records))


class TestResolveTargets:
    def test_nameserver_without_glue_is_resolved_by_its_own_query(self, bus, sim_transport):
        glueless_fixture(bus)
        universe, stats = resolve_targets([N("child.example")], "10.0.53.53", sim_transport)
        assert universe.pairs == {(N("child.example"), "192.0.2.9")}
        assert stats.resolved_domains == 1 and stats.unresolved_ns == 0
        assert len(bus.tap) == 4  # NS query and referral, A query and answer

    def test_nameserver_that_failed_once_is_not_queried_again(self, bus, sim_transport):
        glueless_fixture(bus)
        universe, stats = resolve_targets([N("one.example"), N("two.example")], "10.0.53.53",
                                          sim_transport)
        assert not universe.pairs
        assert stats.unresolved_ns == 1 and stats.domains_without_ns == 2
        assert len(bus.tap) == 6  # two NS queries and referrals, one A query and its NXDOMAIN

    def test_pairs_match_hand_enumerated_ground_truth(self, bus, sim_transport):
        resolver_fixture(bus)
        domains = [N("alpha.test"), N("beta.test"), N("gamma.test"), N("delta.test")]
        universe, stats = resolve_targets(domains, "10.0.53.53", sim_transport)
        expected = {
            (N("alpha.test"), "10.1.0.1"), (N("alpha.test"), "10.1.0.2"),
            (N("alpha.test"), "10.1.0.3"), (N("alpha.test"), "10.1.0.4"),
            (N("beta.test"), "10.1.0.3"), (N("beta.test"), "10.1.0.4"),
        }
        assert universe.pairs == expected
        assert stats.resolved_domains == 2
        assert stats.unresolved_ns == 1       # ns1.gamma.test has no address
        assert stats.domains_without_ns == 2  # gamma (no usable ns) + delta (no ns)

    def test_two_ns_times_two_addresses_is_four_pairs(self, bus, sim_transport):
        resolver_fixture(bus)
        universe, _ = resolve_targets([N("alpha.test")], "10.0.53.53", sim_transport)
        assert len(universe.pairs) == 4

    def test_ingest_twice_is_identical(self, bus, sim_transport):
        resolver_fixture(bus)
        domains = [N("alpha.test"), N("beta.test")]
        u1, _ = resolve_targets(domains, "10.0.53.53", sim_transport)
        u2, _ = resolve_targets(domains + domains, "10.0.53.53", sim_transport)
        assert u1.pairs == u2.pairs
        assert u1.counts() == u2.counts()

    def test_failing_domain_listed_twice_is_queried_and_counted_once(self, bus, sim_transport):
        resolver_fixture(bus)
        _, stats = resolve_targets([N("gamma.test"), N("gamma.test")], "10.0.53.53",
                                   sim_transport)
        assert len(bus.tap) == 4  # NS query and reply, glue A query and reply
        assert stats.domains_without_ns == 1

    def test_pairs_invariant_holds(self, bus, sim_transport):
        resolver_fixture(bus)
        universe, _ = resolve_targets([N("alpha.test"), N("beta.test")],
                                      "10.0.53.53", sim_transport)
        rebuilt = {(z, a) for z in universe.domains
                   for n in universe.ns_names[z] for a in universe.ns_addresses.get(n, ())}
        assert rebuilt == universe.pairs

    def test_require_soa_filter(self, bus, sim_transport):
        resolver_fixture(bus)  # fixture has no SOA for alpha.test itself
        universe, stats = resolve_targets([N("alpha.test")], "10.0.53.53", sim_transport,
                                          IngestConfig(require_soa=True))
        assert not universe.domains
        assert stats.domains_without_soa == 1

    def test_undecodable_resolver_reply_counts_as_no_answer(self, bus, sim_transport):
        bus.attach("10.0.53.53", lambda d, now: [SimDatagram("10.0.53.53", d.source, b"\xff\xff")])
        universe, stats = resolve_targets([N("alpha.test")], "10.0.53.53", sim_transport)
        assert not universe.domains
        assert stats.domains_without_ns == 1

    def test_query_ids_follow_the_rng_not_the_global_random(self, bus, sim_transport):
        resolver_fixture(bus)
        domains = [N("alpha.test"), N("beta.test"), N("gamma.test")]
        runs = []
        for global_seed in (1, 2):
            random.seed(global_seed)
            start = len(bus.tap)
            resolve_targets(domains, "10.0.53.53", sim_transport, rng=random.Random(5))
            runs.append([e.datagram.payload for e in bus.tap[start:]])
        assert runs[0] == runs[1]


def test_read_domain_lines():
    names = read_domain_lines(["example.com", "", "# note", "www.other.test # glue"])
    assert names == [N("example.com"), N("www.other.test")]
    with pytest.raises(ValueError, match="^line 3: label"):
        read_domain_lines(["example.com", "# note", "a..example.com"])
