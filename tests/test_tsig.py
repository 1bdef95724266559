"""Transaction signatures: identity, tampering, time window, keyring handling."""

import dataclasses
import hashlib
import hmac
from ipaddress import IPv4Address

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zptoolkit import tsig
from zptoolkit.authsim import SignedKey
from zptoolkit.transport import ClientEndpoint
from zptoolkit.tsig import (
    Accept,
    AlreadySigned,
    Reject,
    RejectReason,
    TsigKey,
    sign_message,
    verify_message,
)
from zptoolkit.wire import (
    AddRecord,
    DnsName,
    RClass,
    Rcode,
    ResourceRecord,
    RType,
    TsigData,
    WireError,
    decode_message,
    encode_message,
    make_update,
)

from conftest import attach_server, basic_zone

KEY_A = TsigKey(DnsName.from_text("key-a"), b"secret-a-0123456789abc")
KEY_B = TsigKey(DnsName.from_text("key-b"), b"secret-b-0123456789abc")


def probe_update(msg_id=77):
    rr = ResourceRecord(DnsName.from_text("researchstudyzp.example.com"),
                        RType.A, RClass.IN, 120, IPv4Address("192.0.2.80"))
    return make_update(DnsName.from_text("example.com"), [AddRecord(rr)], msg_id=msg_id)


def test_sign_then_verify_accepts_and_strips():
    signed = sign_message(probe_update(), KEY_A, now=1_000_000)
    result = verify_message(signed, {KEY_A}, now=1_000_000)
    assert isinstance(result, Accept)
    assert result.message == probe_update()  # TSIG stripped, core intact


def test_signed_message_survives_wire_round_trip():
    signed = sign_message(probe_update(), KEY_A, now=1_000_000)
    again = decode_message(encode_message(signed))
    assert isinstance(verify_message(again, {KEY_A}, now=1_000_100), Accept)


def test_tsig_record_with_empty_rdata_is_a_bad_signature(bus):
    """A TSIG record whose rdata is empty carries no MAC to check: verification
    rejects it, and a signed-key primary answers NOTAUTH and keeps its zone."""
    empty = ResourceRecord(KEY_A.key_name, RType.TSIG, RClass.ANY, 0, b"")
    msg = decode_message(encode_message(dataclasses.replace(probe_update(), additional=(empty,))))
    assert msg.additional[-1].rdata == b""
    assert verify_message(msg, {KEY_A}, now=0) == Reject(RejectReason.BAD_SIGNATURE)
    zone = basic_zone("example.com", SignedKey((KEY_A,)))
    server = attach_server(bus, "10.0.0.1", zone)
    raw = ClientEndpoint(bus, "198.51.100.99").exchange(encode_message(msg), "10.0.0.1", 1.0)
    assert decode_message(raw).rcode == Rcode.NOTAUTH
    assert server.zones[zone.apex].records == zone.records


def test_other_additional_record_is_kept_and_signed():
    glue = ResourceRecord(DnsName.from_text("ns1.example.com"), RType.A, RClass.IN, 60,
                          IPv4Address("192.0.2.53"))
    unsigned = dataclasses.replace(probe_update(), additional=(glue,))
    signed = decode_message(encode_message(sign_message(unsigned, KEY_A, now=1000)))
    assert len(signed.additional) == 2
    result = verify_message(signed, {KEY_A}, now=1000)
    assert isinstance(result, Accept) and result.message == unsigned  # only the TSIG goes
    forged = dataclasses.replace(glue, rdata=IPv4Address("192.0.2.54"))
    tampered = dataclasses.replace(signed, additional=(forged, signed.additional[1]))
    assert verify_message(tampered, {KEY_A}, now=1000) == Reject(RejectReason.BAD_SIGNATURE)


def test_tsig_record_is_read_only_as_the_last_additional_record():
    # RFC 8945 §5.2: the TSIG record comes last, and there is at most one
    glue = ResourceRecord(DnsName.from_text("ns1.example.com"), RType.A, RClass.IN, 60,
                          IPv4Address("192.0.2.53"))
    signed = sign_message(probe_update(), KEY_A, now=1000)
    (tsig_rr,) = signed.additional
    repeated = dataclasses.replace(signed, additional=(tsig_rr, tsig_rr))
    assert verify_message(repeated, {KEY_A}, now=1000) == Reject(RejectReason.BAD_SIGNATURE)
    not_last = dataclasses.replace(signed, additional=(tsig_rr, glue))
    assert verify_message(not_last, {KEY_A}, now=1000) == Reject(RejectReason.NO_SIGNATURE)


def test_tampered_payload_rejected():
    signed = sign_message(probe_update(), KEY_A, now=1000)
    blob = bytearray(encode_message(signed))
    idx = blob.index(IPv4Address("192.0.2.80").packed)
    blob[idx] ^= 0x01
    result = verify_message(decode_message(bytes(blob)), {KEY_A}, now=1000)
    assert result == Reject(RejectReason.BAD_SIGNATURE)


def test_mismatched_original_id_rejected():
    # the MAC covers the header with the Original ID in it, so a forged one breaks the MAC
    signed = sign_message(probe_update(msg_id=77), KEY_A, now=1000)
    *rest, tsig_rr = signed.additional
    forged = dataclasses.replace(tsig_rr, rdata=dataclasses.replace(tsig_rr.rdata, original_id=78))
    result = verify_message(dataclasses.replace(signed, additional=(*rest, forged)), {KEY_A},
                            now=1000)
    assert result == Reject(RejectReason.BAD_SIGNATURE)


def test_id_rewritten_in_flight_verifies_against_the_original_id():
    # a forwarder sends the signed message on under an id of its own (RFC 8945 §4.3.3)
    signed = sign_message(probe_update(msg_id=77), KEY_A, now=1000)
    wire = encode_message(signed)
    forwarded = decode_message((4242).to_bytes(2, "big") + wire[2:])
    result = verify_message(forwarded, {KEY_A}, now=1000)
    assert isinstance(result, Accept)
    assert result.message == dataclasses.replace(probe_update(msg_id=77), id=4242)
    # the rewritten id is the only change the Original ID excuses
    tampered = bytearray(wire)
    tampered[0:2] = (4242).to_bytes(2, "big")
    tampered[2] ^= 0x01  # the RD flag: a header bit outside the id
    assert verify_message(decode_message(bytes(tampered)), {KEY_A}, now=1000) == \
        Reject(RejectReason.BAD_SIGNATURE)


def test_time_window_boundary():
    # fudge is fixed at 300 s: t+300 still verifies, t+301 does not
    signed = sign_message(probe_update(), KEY_A, now=5000)
    assert isinstance(verify_message(signed, {KEY_A}, now=5300), Accept)
    assert verify_message(signed, {KEY_A}, now=5301) == Reject(RejectReason.BAD_TIME)
    assert verify_message(signed, {KEY_A}, now=4699) == Reject(RejectReason.BAD_TIME)


def test_unsigned_message_rejected():
    assert verify_message(probe_update(), {KEY_A}, now=0) == Reject(RejectReason.NO_SIGNATURE)


def test_unknown_key_rejected():
    signed = sign_message(probe_update(), KEY_A, now=0)
    assert verify_message(signed, {KEY_B}, now=0) == Reject(RejectReason.UNKNOWN_KEY)


def test_keyring_with_matching_key_accepts():
    signed = sign_message(probe_update(), KEY_A, now=0)
    assert isinstance(verify_message(signed, {KEY_A, KEY_B}, now=0), Accept)


def test_outcome_independent_of_keyring_order():
    signed = sign_message(probe_update(), KEY_A, now=0)
    assert isinstance(verify_message(signed, [KEY_A, KEY_B], now=0), Accept)
    assert isinstance(verify_message(signed, [KEY_B, KEY_A], now=0), Accept)
    assert verify_message(signed, [KEY_B], now=0) == Reject(RejectReason.UNKNOWN_KEY)


def test_double_sign_refused():
    signed = sign_message(probe_update(), KEY_A, now=0)
    with pytest.raises(AlreadySigned):
        sign_message(signed, KEY_A, now=0)
    # a TSIG record that is not last still counts as a signature
    glue = ResourceRecord(DnsName.from_text("ns1.example.com"), RType.A, RClass.IN, 60,
                          IPv4Address("192.0.2.53"))
    with pytest.raises(AlreadySigned):
        sign_message(dataclasses.replace(signed, additional=(*signed.additional, glue)), KEY_A, 0)


def test_secret_never_in_repr():
    assert b"secret-a" not in repr(KEY_A).encode()
    assert "redacted" in repr(KEY_A)


def test_short_secret_rejected():
    with pytest.raises(ValueError):
        TsigKey(DnsName.from_text("weak"), b"tooshort")


def test_a_message_naming_another_algorithm_is_unknown_key():
    # only hmac-sha256 is implemented, so no key may name another algorithm, and
    # a message naming hmac-md5 over a valid HMAC-SHA256 MAC is not accepted
    md5 = DnsName.from_text("hmac-md5.sig-alg.reg.int")
    with pytest.raises(TypeError):
        TsigKey(DnsName.from_text("key-a"), KEY_A.secret, algorithm=md5)
    assert "algorithm" not in repr(KEY_A)
    core = probe_update()
    mac = tsig._compute_mac(KEY_A.secret, encode_message(core), KEY_A.key_name._wire, RClass.ANY,
                            0, md5._wire, 0, tsig.FUDGE_SECONDS, 0, b"")
    record = ResourceRecord(KEY_A.key_name, RType.TSIG, RClass.ANY, 0,
                            TsigData(md5, 0, tsig.FUDGE_SECONDS, mac, core.id, 0, b""))
    forged = dataclasses.replace(core, additional=(record,))
    assert verify_message(forged, {KEY_A}, now=0) == Reject(RejectReason.UNKNOWN_KEY)


def test_key_name_case_insensitive():
    signed = sign_message(probe_update(), KEY_A, now=0)
    shouting = TsigKey(DnsName.from_text("KEY-A"), KEY_A.secret)
    assert isinstance(verify_message(signed, {shouting}, now=0), Accept)


@given(st.integers(min_value=0))
@settings(max_examples=300, deadline=None)
def test_any_single_bit_mutation_rejected(position):
    signed = sign_message(probe_update(), KEY_A, now=123456)
    blob = bytearray(encode_message(signed))
    bit = position % (len(blob) * 8)
    blob[bit // 8] ^= 1 << (bit % 8)
    try:
        mutated = decode_message(bytes(blob))
    except WireError:
        return  # undecodable counts as rejected
    result = verify_message(mutated, {KEY_A}, now=123456)
    if bit < 16:
        # the id is the one field a forwarder may rewrite: the MAC is checked
        # with the Original ID in its place (RFC 8945 §4.3.3)
        assert result == Accept(dataclasses.replace(probe_update(), id=mutated.id))
    else:
        assert isinstance(result, Reject)


@given(st.integers(min_value=0, max_value=0xFFFF), st.integers(min_value=0, max_value=10**9))
@settings(max_examples=50, deadline=None)
def test_sign_verify_identity_property(msg_id, now):
    signed = sign_message(probe_update(msg_id), KEY_A, now=now)
    assert isinstance(verify_message(signed, {KEY_A}, now=now), Accept)


# --- the MAC against stdlib hmac, keyed afresh per call ---


def _fresh_mac(secret, core_wire, name_wire, rclass, ttl, algorithm_wire, time_signed, fudge,
               error, other) -> bytes:
    """RFC 2845 §3.4: the message, then the TSIG variables, under a fresh HMAC-SHA256."""
    data = (core_wire + name_wire + rclass.to_bytes(2, "big") + ttl.to_bytes(4, "big")
            + algorithm_wire + time_signed.to_bytes(6, "big") + fudge.to_bytes(2, "big")
            + error.to_bytes(2, "big") + len(other).to_bytes(2, "big") + other)
    return hmac.new(secret, data, hashlib.sha256).digest()


mac_inputs = st.tuples(
    st.binary(min_size=1, max_size=100),  # past 64 bytes the key is hashed first (RFC 2104)
    st.binary(max_size=300), st.sampled_from([KEY_A.key_name._wire, b"\x00"]),
    st.sampled_from([255, 1]), st.integers(0, 2**32 - 1),
    st.sampled_from([tsig.HMAC_SHA256._wire, DnsName.from_text("hmac-md5")._wire]),
    st.integers(0, 2**48 - 1), st.integers(0, 0xFFFF), st.integers(0, 0xFFFF),
    st.binary(max_size=8))


@given(st.lists(mac_inputs, min_size=1, max_size=6), st.data())
@settings(max_examples=200, deadline=None)
def test_compute_mac_matches_a_freshly_keyed_hmac(calls, data):
    """Each MAC, including a secret's second MAC, equals stdlib hmac keyed for
    that call alone."""
    for args in calls + [data.draw(st.sampled_from(calls))]:
        assert tsig._compute_mac(*args) == _fresh_mac(*args)
