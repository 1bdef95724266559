"""Transaction signatures (TSIG, RFC 2845) over UPDATE and QUERY messages.

One algorithm is supported: hmac-sha256. The MAC covers the rendered
message without its TSIG record plus the canonical TSIG variables; the
validity window is a fixed fudge of 300 seconds around the signing time.
"""

from __future__ import annotations

import hmac
import struct
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Union

from .wire import (
    DnsMessage,
    DnsName,
    RClass,
    ResourceRecord,
    RType,
    TsigData,
    _message,
    _record,
    _slot_init,
    _tsig_data,
    encode_message,
)

HMAC_SHA256 = DnsName.from_text("hmac-sha256")
FUDGE_SECONDS = 300
MIN_SECRET_BYTES = 16


class TsigError(Exception):
    pass


class AlreadySigned(TsigError):
    """sign_message refuses to add a second TSIG record."""


@dataclass(frozen=True)
class TsigKey:
    key_name: DnsName
    secret: bytes = field(repr=False)

    def __post_init__(self):
        if len(self.secret) < MIN_SECRET_BYTES:
            raise ValueError(f"TSIG secret must be at least {MIN_SECRET_BYTES} bytes")

    def __repr__(self) -> str:
        # the secret stays out of logs and reports
        return f"TsigKey(key_name={self.key_name!r}, secret=<redacted>)"


class RejectReason(Enum):
    NO_SIGNATURE = "NoSignature"
    UNKNOWN_KEY = "UnknownKey"
    BAD_SIGNATURE = "BadSignature"
    BAD_TIME = "BadTime"


@_slot_init
@dataclass(frozen=True, slots=True)
class Accept:
    """Verification succeeded; ``message`` is the core message with the TSIG stripped."""

    message: DnsMessage


@dataclass(frozen=True)
class Reject:
    reason: RejectReason


VerifyResult = Union[Accept, Reject]

# a rejection carries nothing but its reason, so every rejection is one of these
_NO_SIGNATURE = Reject(RejectReason.NO_SIGNATURE)
_UNKNOWN_KEY = Reject(RejectReason.UNKNOWN_KEY)
_BAD_SIGNATURE = Reject(RejectReason.BAD_SIGNATURE)
_BAD_TIME = Reject(RejectReason.BAD_TIME)

_TSIG, _CLASS_ANY = RType.TSIG, RClass.ANY
_pack_class_ttl = struct.Struct("!HI").pack
_pack_fudge_error_other = struct.Struct("!HHH").pack


def _find_tsig(msg: DnsMessage) -> ResourceRecord | None:
    """The TSIG record, which must be the last additional record (RFC 8945 §5.2)."""
    additional = msg.additional
    if additional and additional[-1].rtype == _TSIG:
        return additional[-1]
    return None


def _with_additional(msg: DnsMessage, additional: tuple[ResourceRecord, ...]) -> DnsMessage:
    """``msg`` with its additional section replaced, filled positionally."""
    return _message(msg.id, msg.opcode, msg.rcode, msg.is_response, msg.authoritative,
                    msg.question, msg.answers, msg.authority, additional, msg.extra_flags)


def _compute_mac(secret: bytes, core_wire: bytes, name_wire: bytes, rclass: int, ttl: int,
                 algorithm_wire: bytes, time_signed: int, fudge: int, error: int,
                 other: bytes) -> bytes:
    """RFC 2845 §3.4: one HMAC-SHA256 under ``secret`` over the message without its
    TSIG, then the TSIG variables. Name and algorithm enter exactly as carried on
    the wire, so that every bit of the signed datagram stays tamper-evident."""
    variables = (name_wire + _pack_class_ttl(rclass, ttl) + algorithm_wire
                 + time_signed.to_bytes(6, "big") + _pack_fudge_error_other(fudge, error, len(other))
                 + other)
    return hmac.digest(secret, core_wire + variables, "sha256")


def sign_message(msg: DnsMessage, key: TsigKey, now: int) -> DnsMessage:
    """Append a TSIG meta-record computed over the rendered message."""
    if any(rr.rtype == _TSIG for rr in msg.additional):  # wherever it stands
        raise AlreadySigned("message already carries a TSIG record")
    time_signed = int(now)
    name = key.key_name
    mac = _compute_mac(key.secret, encode_message(msg), name._wire, _CLASS_ANY, 0,
                       HMAC_SHA256._wire, time_signed, FUDGE_SECONDS, 0, b"")
    tsig_rr = _record(name, _TSIG, _CLASS_ANY, 0,
                      _tsig_data(HMAC_SHA256, time_signed, FUDGE_SECONDS, mac, msg.id, 0, b""))
    return _with_additional(msg, (*msg.additional, tsig_rr))


def verify_message(msg: DnsMessage, keyring: Iterable[TsigKey], now: int) -> VerifyResult:
    """Check a message's TSIG against a keyring.

    The outcome never depends on keyring iteration order: keys are matched
    by name, and any matching key with a valid MAC accepts.
    """
    tsig_rr = _find_tsig(msg)
    if tsig_rr is None:
        return _NO_SIGNATURE
    tsig: TsigData = tsig_rr.rdata
    if not isinstance(tsig, TsigData):
        return _BAD_SIGNATURE
    name, algorithm = tsig_rr.name, tsig.algorithm
    if algorithm != HMAC_SHA256:  # no key holds a secret for another algorithm
        return _UNKNOWN_KEY
    core = core_wire = None
    for key in keyring:
        if key.key_name != name:
            continue
        if core is None:
            core = _with_additional(msg, msg.additional[:-1])
            # the MAC is checked over a re-encoding of the unsigned message, not
            # over the bytes received: a signer that compresses names differently
            # is rejected (RFC 8945 §4.3.3 wants the received prefix; ROADMAP item 2)
            core_wire = encode_message(core)
            if tsig.original_id != msg.id:
                # a forwarder gave the message an id of its own: the MAC covers
                # the header as signed, with the Original ID (RFC 8945 §4.3.3)
                core_wire = tsig.original_id.to_bytes(2, "big") + core_wire[2:]
        mac = _compute_mac(key.secret, core_wire, name._wire, tsig_rr.rclass, tsig_rr.ttl,
                           algorithm._wire, tsig.time_signed, tsig.fudge, tsig.error, tsig.other)
        if hmac.compare_digest(mac, tsig.mac):
            break
    else:
        return _UNKNOWN_KEY if core is None else _BAD_SIGNATURE
    if abs(int(now) - tsig.time_signed) > tsig.fudge:
        return _BAD_TIME
    return Accept(core)
