"""Attack taxonomy: per-scenario effects, policy columns, stealth bookkeeping."""

import hashlib

import pytest

from zptoolkit import attacklab
from zptoolkit.attacklab import (
    ATTACKER_MAIL,
    ATTACKER_PROXY,
    ATTACKER_WEB,
    TRUSTED_SOURCE,
    VICTIM_APEX,
    VICTIM_WEB,
    AttackLab,
    FixtureMismatch,
    ScenarioName,
    execute_scenario,
    run_taxonomy_matrix,
    signed_key_policy,
    victim_zone,
)
from zptoolkit.authsim import IpAcl, Open, ZoneConfig
from zptoolkit.wire import RType

IPACL = IpAcl(frozenset({TRUSTED_SOURCE}))

DOS_SCENARIOS = {ScenarioName.DOS_DELETE_A, ScenarioName.DOS_DELETE_MX,
                 ScenarioName.DOS_SPF_LOCKOUT}
SHADOW_SCENARIOS = {ScenarioName.SHADOW_ADD_A, ScenarioName.SHADOW_DELEGATE_NS}
DCV_SCENARIOS = {ScenarioName.DCV_HTTP_REDIRECT, ScenarioName.DCV_CNAME_INSERT}


@pytest.mark.parametrize("scenario", list(ScenarioName))
def test_every_scenario_succeeds_against_open(scenario):
    report = execute_scenario(scenario, Open(), seed=3)
    assert report.succeeded, report.observations
    assert report.datagrams_sent  # every datagram is on the record


@pytest.mark.parametrize("scenario", list(ScenarioName))
def test_every_scenario_fails_against_signedkey_and_zone_unchanged(scenario):
    lab = AttackLab(signed_key_policy(), seed=4)
    fixture = lab.zone().records
    report = execute_scenario(scenario, signed_key_policy(), lab=lab)
    assert not report.succeeded
    assert lab.zone().records == fixture  # not even the serial moved


@pytest.mark.parametrize("scenario", list(ScenarioName))
def test_ipacl_column_only_spoofing_wins(scenario):
    report = execute_scenario(scenario, IPACL, spoofing_enabled=True, seed=5)
    expected = scenario is ScenarioName.SPOOFED_ACL_BYPASS
    assert report.succeeded == expected


def test_spoofed_bypass_needs_a_forgeable_transport():
    enabled = execute_scenario(ScenarioName.SPOOFED_ACL_BYPASS, IPACL, spoofing_enabled=True)
    disabled = execute_scenario(ScenarioName.SPOOFED_ACL_BYPASS, IPACL, spoofing_enabled=False)
    assert enabled.succeeded and not disabled.succeeded


class TestScenarioEffects:
    def test_dos_delete_a_empties_the_answer(self):
        lab = AttackLab(Open())
        execute_scenario(ScenarioName.DOS_DELETE_A, Open(), lab=lab)
        assert lab.addresses(VICTIM_APEX) == set()
        assert not lab.zone().rrset(VICTIM_APEX, RType.A)

    def test_dos_delete_mx_removes_the_rrset(self):
        lab = AttackLab(Open())
        execute_scenario(ScenarioName.DOS_DELETE_MX, Open(), lab=lab)
        assert not lab.zone().rrset(VICTIM_APEX, RType.MX)

    def test_dos_spf_lockout_rewrites_the_policy_record(self):
        lab = AttackLab(Open())
        execute_scenario(ScenarioName.DOS_SPF_LOCKOUT, Open(), lab=lab)
        (txt,) = lab.zone().rrset(VICTIM_APEX, RType.TXT)
        assert txt.rdata.to_text() == "v=spf1 -all"

    def test_hijack_a_redirects_to_attacker(self):
        lab = AttackLab(Open())
        execute_scenario(ScenarioName.HIJACK_A, Open(), lab=lab)
        assert lab.addresses(VICTIM_APEX) == {ATTACKER_WEB}

    def test_hijack_mx_points_exchange_at_attacker(self):
        lab = AttackLab(Open())
        execute_scenario(ScenarioName.HIJACK_MX, Open(), lab=lab)
        (mx,) = lab.zone().rrset(VICTIM_APEX, RType.MX)
        assert mx.rdata.exchange == ATTACKER_MAIL

    def test_mitm_relays_traffic_to_the_original_host(self):
        lab = AttackLab(Open())
        report = execute_scenario(ScenarioName.MITM_REDIRECT, Open(), lab=lab)
        assert report.succeeded
        assert lab.addresses(VICTIM_APEX) == {ATTACKER_PROXY}
        assert lab.proxy.forwarded  # the relay stub carried the client request
        assert any(d.source == lab.proxy.address for d in lab.web_sink.inbox)

    def test_shadow_add_a_is_additions_only(self):
        lab = AttackLab(Open())
        before = lab.zone().normalized_records()
        execute_scenario(ScenarioName.SHADOW_ADD_A, Open(), lab=lab)
        after = lab.zone().normalized_records()
        assert before < after                      # strictly grew
        assert lab.addresses(VICTIM_APEX) == {VICTIM_WEB}  # apex untouched
        added = after - before
        assert len(added) == attacklab.SHADOW_SUBDOMAIN_COUNT
        assert all(rr.rtype == RType.A for rr in added)

    def test_shadow_delegation_served_by_attacker_instance(self):
        lab = AttackLab(Open())
        report = execute_scenario(ScenarioName.SHADOW_DELEGATE_NS, Open(), lab=lab)
        assert report.succeeded
        target = VICTIM_APEX.prepend("account").prepend("paypal")
        assert lab.resolve_following_referrals(target, RType.A) == {ATTACKER_WEB}

    @pytest.mark.parametrize("scenario", sorted(DCV_SCENARIOS, key=lambda s: s.value))
    def test_dcv_scenarios_leave_fixture_equal_zone(self, scenario):
        lab = AttackLab(Open())
        report = execute_scenario(scenario, Open(), lab=lab)
        assert report.succeeded
        assert lab.fixture_intact()

    def test_dcv_cname_served_during_the_window(self):
        lab = AttackLab(Open())
        execute_scenario(ScenarioName.DCV_CNAME_INSERT, Open(), lab=lab)
        # after completion the challenge name is gone again
        challenge = VICTIM_APEX.prepend("_dcv-challenge")
        assert not lab.zone().rrset(challenge, RType.CNAME)

    def test_dos_changes_existing_names_shadow_does_not(self):
        for scenario in sorted(DOS_SCENARIOS, key=lambda s: s.value):
            lab = AttackLab(Open())
            before = {(rr.name, rr.rtype): rr for rr in lab.zone().normalized_records()}
            execute_scenario(scenario, Open(), lab=lab)
            after = {(rr.name, rr.rtype): rr for rr in lab.zone().normalized_records()}
            touched = {k for k in before if before[k] != after.get(k)}
            assert touched, scenario  # an existing name's answer changed
        for scenario in sorted(SHADOW_SCENARIOS, key=lambda s: s.value):
            lab = AttackLab(Open())
            before = lab.zone().normalized_records()
            execute_scenario(scenario, Open(), lab=lab)
            assert before <= lab.zone().normalized_records(), scenario


class TestFixtureChecks:
    def test_fixture_mismatch_raised(self):
        zone = victim_zone(Open())
        stripped = ZoneConfig.build(
            VICTIM_APEX, zone.role, zone.policy,
            [rr for rr in zone.records if rr.rtype != RType.MX])
        lab = AttackLab(Open())
        lab.victim.add_zone(stripped)
        with pytest.raises(FixtureMismatch):
            execute_scenario(ScenarioName.HIJACK_MX, Open(), lab=lab)

    def test_fresh_lab_restores_fixture_between_runs(self):
        report1 = execute_scenario(ScenarioName.DOS_DELETE_A, Open(), seed=9)
        report2 = execute_scenario(ScenarioName.DOS_DELETE_A, Open(), seed=9)
        assert report1.succeeded and report2.succeeded
        assert report1.datagrams_sent == report2.datagrams_sent


class TestMatrix:
    def test_matrix_shape_and_columns(self):
        matrix = run_taxonomy_matrix(seed=1)
        assert matrix.policies == ("deny", "open", "ipacl", "signedkey")
        assert [name for name, _ in matrix.cells] == list(ScenarioName)
        for scenario, row in matrix.cells:
            expected_ipacl = scenario is ScenarioName.SPOOFED_ACL_BYPASS
            assert row == (False, True, expected_ipacl, False)

    def test_matrix_deterministic_under_fixed_seed(self):
        assert run_taxonomy_matrix(seed=5) == run_taxonomy_matrix(seed=5)

    def test_matrix_csv(self):
        matrix = run_taxonomy_matrix(seed=1)
        csv_text = matrix.to_csv()
        header, *rows = csv_text.strip().splitlines()
        assert header == "scenario,deny,open,ipacl,signedkey"
        assert len(rows) == len(ScenarioName)
        assert all(row.split(",")[2] == "success" for row in rows)  # open column


def _lab_digest() -> str:
    """The matrix CSV with spoofing on and off at two seeds, then every scenario's
    report (success, observations, datagrams) against every policy, the same way."""
    digest = hashlib.sha256()
    for spoofing in (True, False):
        for seed in (1, 6):
            digest.update(run_taxonomy_matrix(spoofing_enabled=spoofing, seed=seed)
                          .to_csv().encode())
            for scenario in ScenarioName:
                for policy in attacklab.all_policies():
                    report = execute_scenario(scenario, policy, spoofing_enabled=spoofing,
                                              seed=seed)
                    digest.update(repr((report.scenario.value, report.policy, report.succeeded,
                                        report.observations,
                                        report.datagrams_sent)).encode())
    return digest.hexdigest()


LAB_DIGEST = "c311cfcb293e9c935ed994835ad7c35438dac862628be4c43bc50c804903f4fc"


def test_attack_lab_output_is_unchanged():
    """Every cell, observation and datagram of the lab, pinned so that a rebuild
    of the lab from other parts keeps its output byte for byte."""
    assert _lab_digest() == LAB_DIGEST
