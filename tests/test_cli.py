"""Operator surface: subcommand flows, file outputs, exit codes, determinism."""

import json
import socket
import threading
import time
from ipaddress import IPv4Address
from pathlib import Path

import pytest

from zptoolkit.authsim import parse_fleet_text
from zptoolkit.cli import ATTRIBUTION_ENV, main
from zptoolkit.transport import UdpTransport
from zptoolkit.tsig import TsigKey, sign_message
from zptoolkit.wire import (
    AddRecord,
    DnsName,
    RClass,
    Rcode,
    ResourceRecord,
    RType,
    decode_message,
    encode_message,
    make_query,
    make_update,
)

FLEET_OPEN = """\
@server 10.0.0.1
@policy open
@role primary
example.com. 3600 IN SOA ns1.example.com. hostmaster.example.com. 1 7200 900 1209600 86400
example.com. 3600 IN NS ns1.example.com.
ns1.example.com. 3600 IN A 10.0.0.1
example.com. 3600 IN A 192.0.2.1
@server 10.0.0.2
@policy deny
@role primary
other.test. 3600 IN SOA ns1.other.test. hostmaster.other.test. 1 7200 900 1209600 86400
other.test. 3600 IN NS ns1.other.test.
"""


def serve_one(args, request: bytes, host: str = "127.0.0.1", bind_prefix: str | None = None):
    """Run ``zptool sim ARGS --bind PREFIXPORT`` on a free loopback port of ``host``
    for one datagram; send it ``request`` (resent until the server is up) and
    decode its reply. The prefix defaults to ``host:``."""
    family = socket.AF_INET6 if ":" in host else socket.AF_INET
    with socket.socket(family, socket.SOCK_DGRAM) as free:
        free.bind((host, 0))
        port = free.getsockname()[1]
    bind = f"{host}:{port}" if bind_prefix is None else f"{bind_prefix}{port}"
    server = threading.Thread(target=main, args=(
        [*args, "--bind", bind, "--max-requests", "1"],))
    server.start()
    try:
        with socket.socket(family, socket.SOCK_DGRAM) as client:
            client.settimeout(0.2)
            for _ in range(50):
                client.sendto(request, (host, port))
                try:
                    return decode_message(client.recv(65535))
                except socket.timeout:
                    continue
        raise AssertionError("no reply from the --bind server")
    finally:
        server.join(timeout=10)
        assert not server.is_alive()


@pytest.fixture
def fleet_file(tmp_path):
    path = tmp_path / "fleet.txt"
    path.write_text(FLEET_OPEN)
    return str(path)


@pytest.fixture
def pairs_file(tmp_path):
    path = tmp_path / "pairs.csv"
    path.write_text("example.com,10.0.0.1\nother.test,10.0.0.2\n")
    return str(path)


class TestScan:
    def test_sim_scan_writes_outcomes_and_snapshot(self, tmp_path, fleet_file, pairs_file):
        out = tmp_path / "outcomes.jsonl"
        snap = tmp_path / "snapshot.json"
        code = main(["scan", "--pairs", pairs_file, "--transport", "sim",
                     "--fleet", fleet_file, "--out", str(out), "--snapshot", str(snap),
                     "--seed", "7"])
        assert code == 0
        outcomes = [json.loads(l) for l in out.read_text().splitlines()]
        verdicts = {o["zone"]: o["verdict"] for o in outcomes}
        assert verdicts == {"example.com": "vulnerable_confirmed",
                            "other.test": "not_vulnerable"}
        snapshot = json.loads(snap.read_text())
        assert snapshot["tested"] == {"domains": 2, "ns": 2, "pairs": 2}
        assert snapshot["vulnerable"] == [{"zone": "example.com", "ns": "10.0.0.1"}]

    def test_scan_deterministic_under_seed(self, tmp_path, fleet_file, pairs_file):
        outputs = []
        for run in range(2):
            out = tmp_path / f"o{run}.jsonl"
            main(["scan", "--pairs", pairs_file, "--fleet", fleet_file,
                  "--out", str(out), "--seed", "3"])
            outputs.append(out.read_text())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("port", ["abc", "70000"])
    def test_bad_nameserver_port_is_rejected_before_any_probe(self, tmp_path, fleet_file, port,
                                                               capsys):
        pairs = tmp_path / "bad.csv"
        pairs.write_text(f"example.com,10.0.0.1\nexample.com,10.0.0.1:{port}\n")
        out = tmp_path / "o.jsonl"
        code = main(["scan", "--pairs", str(pairs), "--fleet", fleet_file, "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("zptool: ")
        assert not out.exists()

    def test_udp_scan_requires_attestation(self, tmp_path, pairs_file):
        code = main(["scan", "--pairs", pairs_file, "--transport", "udp",
                     "--out", str(tmp_path / "o.jsonl"), "--timeout", "0.05"])
        assert code == 2

    def test_unattested_udp_scan_sends_nothing_in_auto_resolve_mode(self, tmp_path, monkeypatch):
        sent = []
        monkeypatch.setattr(UdpTransport, "exchange",
                            lambda self, payload, destination, timeout: sent.append(destination))
        domains = tmp_path / "zones.txt"
        domains.write_text("alpha.test\n")
        code = main(["scan", "--domains", str(domains), "--resolver", "127.0.0.1:5399",
                     "--transport", "udp", "--out", str(tmp_path / "o.jsonl")])
        assert code == 2
        assert sent == []  # not even the resolver queries

    @pytest.mark.parametrize("flag,value", [("--timeout", "-1"), ("--ttl", "-5"),
                                            ("--timeout", "inf"), ("--rate", "0")])
    def test_impossible_timeout_or_ttl_is_2_before_any_probe(self, tmp_path, fleet_file,
                                                             pairs_file, flag, value, capsys):
        out = tmp_path / "o.jsonl"
        code = main(["scan", "--pairs", pairs_file, "--fleet", fleet_file, "--out", str(out),
                     flag, value])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("zptool: ")
        assert not out.exists()

    def test_sim_scan_without_fleet_is_runtime_error(self, tmp_path, pairs_file):
        code = main(["scan", "--pairs", pairs_file, "--out", str(tmp_path / "o.jsonl")])
        assert code == 2

    def test_auto_resolve_scan_without_resolver_is_2(self, tmp_path, fleet_file, capsys):
        domains = tmp_path / "zones.txt"
        domains.write_text("example.com\n")
        assert main(["scan", "--domains", str(domains), "--fleet", fleet_file,
                     "--out", str(tmp_path / "o.jsonl")]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "zptool: auto-resolve mode needs --resolver"]

    def test_auto_resolve_scan_mode(self, tmp_path):
        fleet = tmp_path / "fleet.txt"
        fleet.write_text("""\
@server 10.0.53.53
@policy deny
@role primary
test. 3600 IN SOA ns1.test. hostmaster.test. 1 7200 900 1209600 86400
test. 3600 IN NS ns1.test.
alpha.test. 3600 IN NS ns1.alpha.test.
ns1.alpha.test. 3600 IN A 10.1.0.1
@server 10.1.0.1
@policy open
@role primary
alpha.test. 3600 IN SOA ns1.alpha.test. hostmaster.alpha.test. 1 7200 900 1209600 86400
alpha.test. 3600 IN NS ns1.alpha.test.
""")
        domains = tmp_path / "zones.txt"
        domains.write_text("alpha.test\n")
        out = tmp_path / "o.jsonl"
        code = main(["scan", "--domains", str(domains), "--resolver", "10.0.53.53",
                     "--fleet", str(fleet), "--out", str(out)])
        assert code == 0
        (outcome,) = [json.loads(l) for l in out.read_text().splitlines()]
        assert outcome == dict(outcome, zone="alpha.test", ns="10.1.0.1",
                               verdict="vulnerable_confirmed")


SOA_LINE = ("example.com. 3600 IN SOA ns1.example.com. hostmaster.example.com. "
            "1 7200 900 1209600 86400\n")


class TestSim:
    @pytest.mark.parametrize("fleet, where", [
        pytest.param("@server 10.0.0.1\n@role\n" + SOA_LINE, "@server 10.0.0.1: line 2:",
                     id="bare-role"),
        pytest.param("@server 10.0.0.1\n@role secondary\n" + SOA_LINE, "@server 10.0.0.1: line 2:",
                     id="secondary-without-address"),
        pytest.param("@server 10.0.0.1\n@role primary\n@policy\n" + SOA_LINE,
                     "@server 10.0.0.1: line 3:", id="policy-without-argument"),
        pytest.param("@server\n" + SOA_LINE, "line 1:", id="server-without-address"),
    ])
    def test_malformed_seed_directive_is_2_with_one_line(self, tmp_path, capsys, fleet, where):
        path = tmp_path / "fleet.txt"
        path.write_text(fleet)
        assert main(["sim", "--fleet", str(path)]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"zptool: {where} expected")

    @pytest.mark.parametrize("record, message", [
        pytest.param("www.example.com. abc IN A 192.0.2.1", "invalid literal", id="ttl-not-a-number"),
        pytest.param("www.example.com. 60 IN A 999.0.2.1", "999", id="a-rdata-out-of-range"),
        pytest.param("example.com. 60 IN SOA ns1.example.com. hostmaster.example.com. 1 2 3",
                     "SOA needs 7 fields", id="five-field-soa"),
        pytest.param("a..example.com. 60 IN A 192.0.2.1", "label", id="empty-label"),
    ])
    def test_malformed_record_line_is_2_naming_the_line(self, tmp_path, capsys, record, message):
        path = tmp_path / "fleet.txt"
        path.write_text("@server 10.0.0.1\n" + SOA_LINE + record + "\n")
        assert main(["sim", "--fleet", str(path)]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("zptool: @server 10.0.0.1: line 3: ")
        assert message in line

    @pytest.mark.parametrize("fleet, message", [
        pytest.param("@server 10.0.0.1\n@policy ipacl\n" + SOA_LINE,
                     "@server 10.0.0.1: line 2: ipacl policy needs a source list",
                     id="ipacl-without-list"),
        pytest.param("@server 10.0.0.1\n@policy key\n" + SOA_LINE,
                     "@server 10.0.0.1: line 2: key policy needs a key name", id="key-without-name"),
        pytest.param("@server 10.0.0.1\n" + SOA_LINE + "www.example.com. 60 IN A\n",
                     "@server 10.0.0.1: line 3: expected 'name TTL class type rdata'",
                     id="four-fields"),
        pytest.param("@server 10.0.0.1\n" + SOA_LINE + "www.example.com. 60 CH A 192.0.2.1\n",
                     "@server 10.0.0.1: line 3: only class IN zone data is supported",
                     id="class-ch"),
        pytest.param("@server 10.0.0.1\nexample.com. 60 IN A 192.0.2.1\n",
                     "@server 10.0.0.1: line 1: zone seed must contain exactly one SOA record",
                     id="no-soa"),
        pytest.param("# a fleet\n@policy open\n@server 10.0.0.1\n" + SOA_LINE,
                     "line 2: fleet file must start with a @server line", id="text-before-server"),
        # line 7 of the file, and line 2 of its block
        pytest.param("@server 10.0.0.1\n" + SOA_LINE + "\n# the second server\n@server 10.0.0.2\n"
                     + SOA_LINE + "www.example.com. 60 IN A\n",
                     "@server 10.0.0.2: line 7: expected 'name TTL class type rdata'",
                     id="second-block"),
    ])
    def test_malformed_seed_file_is_2_with_one_line(self, tmp_path, capsys, fleet, message):
        path = tmp_path / "fleet.txt"
        path.write_text(fleet)
        assert main(["sim", "--fleet", str(path)]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"zptool: {message}")

    def test_readme_fleet_example_loads(self, tmp_path, capsys):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("\n### Fleet files\n", 1)[1].split("\n### ", 1)[0]
        example = section.split("```text\n", 1)[1].split("```", 1)[0]
        assert [addr for addr, _ in parse_fleet_text(example)] == ["10.0.0.1"]
        path = tmp_path / "fleet.txt"
        path.write_text(example)
        assert main(["sim", "--fleet", str(path)]) == 0
        assert "example.com" in capsys.readouterr().out

    def test_bad_key_line_is_2_naming_the_line(self, tmp_path, fleet_file, capsys):
        keys = tmp_path / "keys.txt"
        keys.write_text("# lab keys\nlab-key 0123456789abcdef\nshort-key 0123\n")
        assert main(["sim", "--fleet", fleet_file, "--keys", str(keys)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "zptool: line 3: TSIG secret must be at least 16 bytes"]

    def test_bind_on_a_fleet_of_two_servers_is_2(self, fleet_file, capsys):
        assert main(["sim", "--fleet", fleet_file, "--bind", "127.0.0.1:0"]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "zptool: --bind serves exactly one fleet server; split the fleet file"]

    def test_summary_mode(self, fleet_file, capsys):
        assert main(["sim", "--fleet", fleet_file]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert any("example.com" in l and "policy=open" in l for l in lines)
        assert any("other.test" in l and "policy=deny" in l for l in lines)

    def test_honeypot_journal_written(self, tmp_path, pairs_file, fleet_file):
        journal = tmp_path / "journal.jsonl"
        single = tmp_path / "single.txt"
        single.write_text(FLEET_OPEN.split("@server 10.0.0.2")[0])
        # drive updates through the fleet via a scan against the honeypot sim
        code = main(["scan", "--pairs", str(pairs_file), "--fleet", str(single)])
        assert code == 0
        code = main(["sim", "--fleet", str(single), "--honeypot", str(journal)])
        assert code == 0  # journal configured; no traffic -> file may not exist yet
        assert not journal.exists() or journal.read_text() == ""

    def test_real_socket_bind_serves_a_probe(self, tmp_path, fleet_file, pairs_file):
        single = tmp_path / "single.txt"
        single.write_text(FLEET_OPEN.split("@server 10.0.0.2")[0])
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as probe_sock:
            probe_sock.bind(("127.0.0.1", 0))
            port = probe_sock.getsockname()[1]
        # the scanner sends 5 datagrams against an open zone: probe update,
        # verify query, delete update, absence query -> serve them all
        server = threading.Thread(target=main, args=(
            ["sim", "--fleet", str(single), "--bind", f"127.0.0.1:{port}",
             "--max-requests", "4"],))
        server.start()
        try:
            real_pairs = tmp_path / "real_pairs.csv"
            real_pairs.write_text(f"example.com,127.0.0.1:{port}\n")
            out = tmp_path / "real.jsonl"
            code = main(["scan", "--pairs", str(real_pairs), "--transport", "udp",
                         "--i-own-the-probe-address", "--timeout", "2.0",
                         "--out", str(out)])
            assert code == 0
            (outcome,) = [json.loads(l) for l in out.read_text().splitlines()]
            assert outcome["verdict"] == "vulnerable_confirmed"
            assert outcome["cleanup_ok"] is True
        finally:
            server.join(timeout=10)
        assert not server.is_alive()

    def test_bind_checks_tsig_time_against_the_wall_clock(self, tmp_path):
        key = TsigKey(DnsName.from_text("lab-key"), b"0123456789abcdef")
        keys = tmp_path / "keys.txt"
        keys.write_text("lab-key 0123456789abcdef\n")
        fleet = tmp_path / "signed.txt"
        fleet.write_text("@server 10.0.0.1\n@policy key lab-key\n" + SOA_LINE)
        apex = DnsName.from_text("example.com")
        sentinel = ResourceRecord(apex.prepend("researchstudyzp"), RType.A, RClass.IN, 120,
                                  IPv4Address("192.0.2.80"))
        update = sign_message(make_update(apex, [AddRecord(sentinel)], msg_id=7), key,
                              int(time.time()))
        reply = serve_one(["sim", "--fleet", str(fleet), "--keys", str(keys)],
                          encode_message(update))
        assert (reply.is_response, reply.id, reply.rcode) == (True, 7, Rcode.NOERROR)

    def test_bind_server_at_the_client_address_answers_a_query(self, tmp_path):
        fleet = tmp_path / "loopback.txt"
        fleet.write_text("@server 127.0.0.1\n@policy deny\n" + SOA_LINE
                         + "example.com. 3600 IN A 192.0.2.1\n")
        query = make_query(DnsName.from_text("example.com"), RType.A, msg_id=9)
        reply = serve_one(["sim", "--fleet", str(fleet)], encode_message(query))
        assert (reply.is_response, reply.id, reply.rcode) == (True, 9, Rcode.NOERROR)
        assert [str(rr.rdata) for rr in reply.answers] == ["192.0.2.1"]

    @pytest.mark.parametrize("host, bind_prefix", [("127.0.0.1", ":"), ("::1", "[::1]:")])
    def test_bind_endpoint_forms(self, tmp_path, host, bind_prefix):
        # ':PORT' serves on 127.0.0.1; '[v6]:PORT' serves on the bracketed address
        if ":" in host:
            try:
                with socket.socket(socket.AF_INET6, socket.SOCK_DGRAM) as probe_sock:
                    probe_sock.bind((host, 0))
            except OSError:
                pytest.skip("no IPv6 loopback")
        fleet = tmp_path / "deny.txt"
        fleet.write_text("@server 10.0.0.1\n@policy deny\n" + SOA_LINE
                         + "example.com. 3600 IN A 192.0.2.1\n")
        query = make_query(DnsName.from_text("example.com"), RType.A, msg_id=11)
        reply = serve_one(["sim", "--fleet", str(fleet)], encode_message(query), host, bind_prefix)
        assert (reply.is_response, reply.id, reply.rcode) == (True, 11, Rcode.NOERROR)
        assert [str(rr.rdata) for rr in reply.answers] == ["192.0.2.1"]


class TestAttack:
    def test_matrix_csv_open_column_all_success(self, tmp_path, capsys):
        out = tmp_path / "matrix.csv"
        assert main(["attack", "--out", str(out), "--seed", "1"]) == 0
        header, *rows = out.read_text().strip().splitlines()
        cols = header.split(",")
        open_idx = cols.index("open")
        assert len(rows) == 11
        assert all(row.split(",")[open_idx] == "success" for row in rows)
        table = capsys.readouterr().out
        assert "SpoofedAclBypass" in table

    def test_single_scenario(self, capsys):
        assert main(["attack", "--scenario", "HijackA", "--policy", "open"]) == 0
        assert "HijackA vs open: success" in capsys.readouterr().out


class TestIngest:
    def test_registrable_extraction_only(self, tmp_path):
        domains = tmp_path / "domains.txt"
        domains.write_text("www.example.co.uk\nexample.co.uk\nco.uk\n")
        out = tmp_path / "registrable.txt"
        assert main(["ingest", "--domains", str(domains), "--domains-out", str(out)]) == 0
        assert out.read_text() == "example.co.uk\n"

    def test_custom_suffix_list_is_read_from_psl(self, tmp_path):
        psl = tmp_path / "psl.dat"
        psl.write_text("// a private suffix below a public one\ntest\nalpha.test\n")
        domains = tmp_path / "domains.txt"
        domains.write_text("www.shop.alpha.test\nwww.beta.test\n")
        out = tmp_path / "registrable.txt"
        assert main(["ingest", "--domains", str(domains), "--psl", str(psl),
                     "--domains-out", str(out)]) == 0
        assert out.read_text() == "shop.alpha.test\nbeta.test\n"

    def test_resolver_without_fleet_is_2(self, tmp_path, capsys):
        domains = tmp_path / "domains.txt"
        domains.write_text("www.alpha.test\n")
        assert main(["ingest", "--domains", str(domains), "--resolver", "10.0.53.53"]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "zptool: --resolver needs --fleet (simulated resolution)"]

    def test_resolution_to_pairs(self, tmp_path):
        fleet = tmp_path / "resolver.txt"
        fleet.write_text("""\
@server 10.0.53.53
@policy deny
@role primary
test. 3600 IN SOA ns1.test. hostmaster.test. 1 7200 900 1209600 86400
test. 3600 IN NS ns1.test.
alpha.test. 3600 IN NS ns1.alpha.test.
ns1.alpha.test. 3600 IN A 10.1.0.1
ns1.alpha.test. 3600 IN A 10.1.0.2
""")
        domains = tmp_path / "domains.txt"
        domains.write_text("www.alpha.test\n")
        pairs_out = tmp_path / "pairs.csv"
        universe_out = tmp_path / "universe.json"
        code = main(["ingest", "--domains", str(domains), "--resolver", "10.0.53.53",
                     "--fleet", str(fleet), "--pairs-out", str(pairs_out),
                     "--universe-out", str(universe_out)])
        assert code == 0
        assert pairs_out.read_text() == "alpha.test,10.1.0.1\nalpha.test,10.1.0.2\n"
        counts = json.loads(universe_out.read_text())
        assert counts["pairs"] == 2 and counts["domains"] == 1


class TestReport:
    def write_snapshot(self, path, ts, pairs, tested=None):
        from zptoolkit.analytics import ScanSnapshot, derive_counts

        snap = ScanSnapshot.from_pairs(ts, tested or derive_counts(frozenset(pairs)),
                                       frozenset(pairs))
        path.write_text(json.dumps(snap.to_json_obj()))

    def test_rates(self, tmp_path, capsys):
        snap = tmp_path / "s.json"
        snap.write_text(json.dumps({
            "ts": 0, "tested": {"domains": 353870510, "ns": 3855615, "pairs": 5032117394},
            "vulnerable_counts": {"domains": 381965, "ns": 5575, "pairs": 679930}}))
        assert main(["report", "rates", "--snapshot", str(snap)]) == 0
        out = capsys.readouterr().out
        assert "0.108%" in out and "0.145%" in out and "0.014%" in out

    def test_diff(self, tmp_path):
        earlier, later = tmp_path / "a.json", tmp_path / "b.json"
        self.write_snapshot(earlier, 1.0, {("a.test", "1"), ("b.test", "2")})
        self.write_snapshot(later, 2.0, {("a.test", "1"), ("c.test", "3")})
        out = tmp_path / "diff.json"
        assert main(["report", "diff", "--earlier", str(earlier), "--later", str(later),
                     "--out", str(out)]) == 0
        diff = json.loads(out.read_text())
        assert diff["pairs"] == {"remediated": 1, "persistent": 1, "new": 1,
                                 "remediated_rate": 0.5}

    def test_survival_series(self, tmp_path):
        base, r1, r2 = (tmp_path / n for n in ("base.json", "r1.json", "r2.json"))
        self.write_snapshot(base, 10.0, {("a.test", "1"), ("b.test", "2")})
        self.write_snapshot(r1, 20.0, {("a.test", "1")})
        self.write_snapshot(r2, 30.0, {("a.test", "1")})
        out = tmp_path / "curve.csv"
        assert main(["report", "survival", "--baseline", str(base), "--rescans",
                     str(r1), str(r2), "--notified-at", "10", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,S(t),n_risk,d"
        assert lines[1].startswith("5,0.5")

    def test_notify(self, tmp_path):
        attribution = tmp_path / "prefix.csv"
        attribution.write_text("10.0.0.0/8,64500,JP,jp-cert\n")
        csirts = tmp_path / "csirts.csv"
        csirts.write_text("jp-cert,JP CERT,national,1000\n")
        base, cur = tmp_path / "base.json", tmp_path / "cur.json"
        self.write_snapshot(base, 1.0, {("a.test", "10.0.0.1"), ("b.test", "10.0.0.2")})
        self.write_snapshot(cur, 2.0, {("a.test", "10.0.0.1")})
        out = tmp_path / "batch.jsonl"
        assert main(["report", "notify", "--baseline", str(base), "--current", str(cur),
                     "--attribution", str(attribution), "--csirts", str(csirts),
                     "--guide-url", "https://g.test", "--out", str(out)]) == 0
        (note,) = [json.loads(l) for l in out.read_text().splitlines()]
        assert note["subject"] == "1 domain(s) still vulnerable to zone poisoning, 1 nameservers fixed"
        assert note["recipient"] == "JP CERT"

    def test_option_of_another_mode_is_a_usage_error(self, tmp_path, capsys):
        snap = tmp_path / "s.json"
        self.write_snapshot(snap, 1.0, {("a.test", "10.0.0.1")})
        assert main(["report", "rates", "--snapshot", str(snap)]) == 0
        capsys.readouterr()
        assert main(["report", "rates", "--snapshot", str(snap), "--key", "asn"]) == 1
        assert capsys.readouterr().err.splitlines()[-1].endswith("unrecognized arguments: --key asn")

    def test_aggregate_without_an_attribution_map_is_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv(ATTRIBUTION_ENV, raising=False)
        snap = tmp_path / "s.json"
        self.write_snapshot(snap, 1.0, {("a.test", "10.0.0.1")})
        assert main(["report", "aggregate", "--snapshot", str(snap)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"zptool: attribution map required: --attribution or ${ATTRIBUTION_ENV}"]

    def test_aggregate(self, tmp_path, capsys):
        attribution = tmp_path / "prefix.csv"
        attribution.write_text("10.0.0.0/8,64500,JP,jp-cert\n")
        snap = tmp_path / "s.json"
        self.write_snapshot(snap, 1.0, {("a.test", "10.0.0.1"), ("b.test", "10.0.0.1")})
        out = tmp_path / "agg.csv"
        assert main(["report", "aggregate", "--snapshot", str(snap), "--attribution",
                     str(attribution), "--key", "asn", "--out", str(out)]) == 0
        assert out.read_text().splitlines()[1] == "64500,2,1"


class TestExitCodes:
    def test_usage_error_is_1(self):
        assert main(["scan", "--transport", "carrier-pigeon"]) == 1
        assert main(["no-such-command"]) == 1
        assert main([]) == 1

    @pytest.mark.parametrize("mode, missing", [
        ("rates", "--snapshot"), ("aggregate", "--snapshot"), ("diff", "--earlier and --later"),
        ("survival", "--baseline"), ("notify", "--baseline and --current"),
    ])
    def test_report_without_its_input_is_1_naming_it(self, capsys, mode, missing):
        assert main(["report", mode]) == 1
        line = capsys.readouterr().err.splitlines()[-1]
        assert line.startswith(f"zptool report {mode}: error: the following arguments are required")
        assert all(option in line for option in missing.split(" and "))

    def test_runtime_error_is_2(self, tmp_path):
        assert main(["report", "rates", "--snapshot", str(tmp_path / "missing.json")]) == 2
        assert main(["scan"]) == 2  # neither --pairs nor --domains

    def test_wire_error_is_2_with_one_line(self, tmp_path, fleet_file, capsys):
        pairs = tmp_path / "pairs.csv"
        pairs.write_text(f"{'a' * 64}.example.com,10.0.0.1\n")
        code = main(["scan", "--pairs", str(pairs), "--fleet", fleet_file,
                     "--out", str(tmp_path / "o.jsonl")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("zptool: ") and err.count("\n") == 1
