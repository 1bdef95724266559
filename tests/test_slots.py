"""The values kept in bulk, and the messages every exchange builds, are slotted:
no instance dict, whichever way a value is made (constructor, decoder, message
builders, zone patch, ``derive``, ``dataclasses.replace``), and the same
equality, hashing and pickling as the plain dataclasses had."""

import dataclasses
import pickle
import random
from ipaddress import IPv4Address, IPv6Address

import pytest

from zptoolkit import authsim, transport, wire
from zptoolkit.authsim import Open, Primary, Secondary, ZoneConfig, apply_update, make_soa
from zptoolkit.scanner import ProbeConfig, ProbeOutcome, ProbeTarget, Verdict, parse_pair_lines, \
    run_probe
from zptoolkit.transport import DatagramBus, ManualClock, SimDatagram, SimTransport, TapEntry
from zptoolkit.tsig import Accept, TsigKey, sign_message, verify_message
from zptoolkit.wire import (
    AddRecord,
    DeleteExactRecord,
    DeleteRRset,
    DnsMessage,
    DnsName,
    MxData,
    Opcode,
    Question,
    RClass,
    Rcode,
    ResourceRecord,
    RType,
    SoaData,
    TsigData,
    TxtData,
    decode_message,
    encode_message,
    make_query,
    make_update,
)

from conftest import SCANNER_SOURCE, attach_server, basic_zone

APEX = DnsName.from_text("example.com")
WWW = APEX.prepend("www")
DEEP = WWW.prepend("a").prepend("b")  # three labels below the apex: two ancestors are indexed
KEY = TsigKey(DnsName.from_text("update-key"), b"update-key-secret-123456")

SLOTTED = (ResourceRecord, SoaData, MxData, TxtData, TsigData, DnsMessage, Question, SimDatagram,
           TapEntry, ProbeTarget, ProbeOutcome, ZoneConfig)


def constructed_records() -> list[ResourceRecord]:
    return [
        ResourceRecord(WWW, RType.A, RClass.IN, 300, IPv4Address("192.0.2.1")),
        ResourceRecord(WWW, RType.AAAA, RClass.IN, 300, IPv6Address("2001:db8::1")),
        make_soa(APEX, serial=7),
        ResourceRecord(APEX, RType.MX, RClass.IN, 300, MxData(10, APEX.prepend("mail"))),
        ResourceRecord(APEX, RType.TXT, RClass.IN, 300, TxtData.from_text("v=spf1", "-all")),
        ResourceRecord(APEX, RType.NS, RClass.IN, 300, APEX.prepend("ns1")),
    ]


def decoded_records() -> list[ResourceRecord]:
    msg = DnsMessage(id=1, is_response=True, answers=tuple(constructed_records()))
    return list(decode_message(encode_message(msg)).answers)


def signed_update() -> DnsMessage:
    record = ResourceRecord(WWW, RType.A, RClass.IN, 300, IPv4Address("192.0.2.2"))
    return sign_message(make_update(APEX, [AddRecord(record)], msg_id=5), KEY, now=100)


def built_messages() -> list[DnsMessage]:
    """Messages from each builder: query, update, signing, stripping, a server response."""
    signed = signed_update()
    verified = verify_message(signed, [KEY], now=100)
    assert isinstance(verified, Accept)
    return [make_query(WWW, RType.A, msg_id=3), signed_update(), signed, verified.message,
            authsim.NameServer("10.0.0.1")._response(signed, Rcode.REFUSED)]


def deep_zone() -> ZoneConfig:
    return basic_zone("example.com", Open(), extra=[
        ResourceRecord(DEEP, RType.A, RClass.IN, 300, IPv4Address("192.0.2.9"))])


def probed_outcome() -> ProbeOutcome:
    bus = DatagramBus(clock=ManualClock(), rng=random.Random(0))
    attach_server(bus, "10.0.0.1", basic_zone("example.com", Open()))
    transport = SimTransport(bus, SCANNER_SOURCE)
    return run_probe(ProbeTarget(APEX, "10.0.0.1"), ProbeConfig(), transport, bus.clock,
                     random.Random(1))


def tapped() -> list[TapEntry]:
    bus = DatagramBus(clock=ManualClock(2.5))
    bus.send(SimDatagram("198.51.100.1", "10.0.0.1", b"\x00\x01payload"))
    return bus.tap


def patched_zones() -> list[ZoneConfig]:
    """Zone versions made by ``_patch``: through ``apply_update``, directly, and by ``derive``."""
    zone = deep_zone()
    added = ResourceRecord(WWW.prepend("c"), RType.A, RClass.IN, 60, IPv4Address("192.0.2.3"))
    after_add, rc = apply_update(zone, make_update(APEX, [AddRecord(added)], msg_id=1))
    assert rc == Rcode.NOERROR
    after_delete, rc = apply_update(after_add, make_update(APEX, [DeleteExactRecord(added)],
                                                           msg_id=2))
    assert rc == Rcode.NOERROR
    dropped = zone._patch([(DEEP, ())])
    derived = zone.derive(zone.records_at(DEEP), [added])
    return [after_add, after_delete, dropped, derived]


def replaced() -> list:
    """One value of each slotted class made by ``dataclasses.replace``."""
    rr = constructed_records()[0]
    soa = make_soa(APEX).rdata
    outcome = probed_outcome()
    return [
        dataclasses.replace(rr, ttl=60),
        dataclasses.replace(soa, serial=99),
        dataclasses.replace(MxData(10, APEX), preference=20),
        dataclasses.replace(TxtData.from_text("a"), strings=(b"b",)),
        dataclasses.replace(signed_update().additional[-1].rdata, error=16),
        dataclasses.replace(SimDatagram("a", "b", b"x"), source="c"),
        dataclasses.replace(tapped()[0], ts=9.0),
        dataclasses.replace(ProbeTarget(APEX, "10.0.0.1"), nameserver="10.0.0.2"),
        dataclasses.replace(outcome, ts=outcome.ts + 1),
        dataclasses.replace(deep_zone(), role=Secondary("10.0.0.1")),
        dataclasses.replace(signed_update(), rcode=Rcode.REFUSED, is_response=True),
        dataclasses.replace(signed_update().question[0], rtype=RType.A),
    ]


# each way of making values, and the values it makes
MADE = {
    "constructor": lambda: [*constructed_records(), *(rr.rdata for rr in constructed_records()),
                            TsigData(APEX, 100, 300, b"mac", 5, 0, b""),
                            SimDatagram("a", "b", b"x"),
                            TapEntry(1.0, SimDatagram("a", "b", b"x")),
                            ProbeTarget(APEX, "10.0.0.1"), probed_outcome(), deep_zone()],
    "decoder": lambda: [*decoded_records(), *(rr.rdata for rr in decoded_records()),
                        *decode_message(encode_message(signed_update())).additional,
                        decode_message(encode_message(signed_update())).additional[-1].rdata,
                        decode_message(encode_message(signed_update())),
                        *decode_message(encode_message(signed_update())).question],
    "builders": lambda: [*built_messages(), *(q for m in built_messages() for q in m.question)],
    "bus": lambda: [*tapped(), tapped()[0].datagram],
    "parser": lambda: list(parse_pair_lines(["example.com,10.0.0.1"])),
    "patch": lambda: [z for zone in patched_zones() for z in (zone, zone.soa, zone.soa.rdata)],
    "replace": replaced,
}


def test_every_bulk_class_is_slotted():
    for cls in SLOTTED:
        assert "__slots__" in cls.__dict__, cls.__name__
        assert "__dict__" not in cls.__dict__, cls.__name__


@pytest.mark.parametrize("way", MADE)
def test_no_instance_dict(way):
    values = MADE[way]()
    assert values
    for value in values:
        if isinstance(value, IPv4Address | IPv6Address | DnsName):
            continue
        assert isinstance(value, SLOTTED), value
        assert not hasattr(value, "__dict__"), value


@pytest.mark.parametrize("way", MADE)
def test_pickle_round_trip_is_equal_and_hashes_equal(way):
    for value in MADE[way]():
        if isinstance(value, ZoneConfig):
            continue  # zones compare by identity; see the zone test below
        copy = pickle.loads(pickle.dumps(value))
        assert type(copy) is type(value)
        assert copy == value
        assert hash(copy) == hash(value)
        assert not hasattr(copy, "__dict__")


def test_decoded_record_equals_and_hashes_as_constructed():
    for built, decoded in zip(constructed_records(), decoded_records(), strict=True):
        assert decoded == built and hash(decoded) == hash(built)
        assert type(decoded.rdata) is type(built.rdata)
        assert decoded.rdata == built.rdata and hash(decoded.rdata) == hash(built.rdata)
    signed = signed_update()
    decoded = decode_message(encode_message(signed)).additional[-1]
    assert decoded == signed.additional[-1] and hash(decoded) == hash(signed.additional[-1])


def test_records_stay_frozen_and_compare_by_value():
    a, b = constructed_records()[:2]
    assert a != b and a == dataclasses.replace(b, rtype=RType.A, rdata=a.rdata)
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.ttl = 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        patched_zones()[0].role = Secondary("10.0.0.1")
    assert "_below" not in repr(deep_zone())


NAMES = [APEX, WWW, WWW.prepend("a"), DEEP, DEEP.prepend("x"), APEX.parent(),
         DnsName.from_text("other.org"), APEX.prepend("ns1"), WWW.prepend("c")]


def answers(zone: ZoneConfig) -> list[bool]:
    return [zone.has_node(name) for name in NAMES]


def test_replaced_zone_answers_has_node_as_the_original():
    zone = deep_zone()
    assert zone._below  # the index is exercised, not empty
    secondary = dataclasses.replace(zone, role=Secondary("10.0.0.1"))
    assert secondary.role == Secondary("10.0.0.1") and secondary.by_name is zone.by_name
    assert answers(secondary) == answers(zone) == \
        [True, True, True, True, False, True, False, True, False]
    assert secondary._below == zone._below


def test_patched_zones_answer_as_zones_built_from_their_records():
    for zone in patched_zones():
        rebuilt = ZoneConfig.build(zone.apex, Primary(), Open(), zone.records)
        assert answers(zone) == answers(rebuilt)
        assert zone._below == rebuilt._below


def test_zone_pickle_round_trip_keeps_every_field():
    for zone in [deep_zone(), *patched_zones()]:
        copy = pickle.loads(pickle.dumps(zone))
        assert copy is not zone and copy != zone  # zones compare by identity
        assert (copy.apex, copy.role, copy.policy) == (zone.apex, zone.role, zone.policy)
        assert copy.by_name == zone.by_name and copy._below == zone._below
        assert answers(copy) == answers(zone)
        assert not hasattr(copy, "__dict__")


def test_with_serial_builds_the_constructed_soa():
    soa = make_soa(APEX, serial=7)
    bumped = authsim._with_serial(soa, 8)
    assert bumped == dataclasses.replace(soa, rdata=dataclasses.replace(soa.rdata, serial=8))
    assert hash(bumped) == hash(make_soa(APEX, serial=8))


def test_positional_builders_equal_the_constructors():
    question = Question(APEX, RType.SOA, RClass.IN)
    built = wire._question(APEX, RType.SOA, RClass.IN)
    assert built == question and hash(built) == hash(question)
    records = constructed_records()
    fields = dict(id=7, opcode=Opcode.UPDATE, rcode=Rcode.NXDOMAIN, is_response=True,
                  authoritative=True, question=(question,), answers=tuple(records[:1]),
                  authority=tuple(records[1:3]), additional=tuple(records[3:]),
                  extra_flags=0x0100)
    message = DnsMessage(**fields)
    built = wire._message(*fields.values())
    assert built == message and hash(built) == hash(message)
    for name, value in fields.items():  # each argument lands in its own field
        assert getattr(built, name) is value
    assert make_query(WWW, RType.A, msg_id=3) == DnsMessage(3, question=(Question(WWW, RType.A),))
    assert transport._datagram("a", "b", b"x") == SimDatagram("a", "b", b"x")


def test_make_update_builds_the_constructed_records():
    add = ResourceRecord(WWW, RType.A, RClass.IN, 300, IPv4Address("192.0.2.1"))
    odd_class = dataclasses.replace(add, rclass=RClass.ANY)
    msg = make_update(APEX, [AddRecord(add), AddRecord(odd_class), DeleteRRset(WWW, RType.TXT),
                             DeleteExactRecord(add)], msg_id=9)
    assert msg.updates[0] is add  # a class IN add goes out as the caller's record
    assert msg.updates == (add, add, ResourceRecord(WWW, RType.TXT, RClass.ANY, 0, b""),
                           ResourceRecord(WWW, RType.A, RClass.NONE, 0, add.rdata))
    assert msg == DnsMessage(9, Opcode.UPDATE, question=(Question(APEX, RType.SOA),),
                             authority=msg.updates)
