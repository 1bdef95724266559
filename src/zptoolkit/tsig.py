"""Transaction signatures (TSIG, RFC 2845) over UPDATE and QUERY messages.

One algorithm is supported: hmac-sha256. The MAC covers the rendered
message without its TSIG record plus the canonical TSIG variables; the
validity window is a fixed fudge of 300 seconds around the signing time.
"""

from __future__ import annotations

import hashlib
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
    algorithm: DnsName = HMAC_SHA256

    def __post_init__(self):
        if len(self.secret) < MIN_SECRET_BYTES:
            raise ValueError(f"TSIG secret must be at least {MIN_SECRET_BYTES} bytes")

    def __repr__(self) -> str:
        # the secret stays out of logs and reports
        return f"TsigKey(key_name={self.key_name!r}, secret=<redacted>, algorithm={self.algorithm!r})"


class RejectReason(Enum):
    NO_SIGNATURE = "NoSignature"
    UNKNOWN_KEY = "UnknownKey"
    BAD_SIGNATURE = "BadSignature"
    BAD_TIME = "BadTime"


@dataclass(frozen=True)
class Accept:
    """Verification succeeded; ``message`` is the core message with the TSIG stripped."""

    message: DnsMessage


@dataclass(frozen=True)
class Reject:
    reason: RejectReason


VerifyResult = Union[Accept, Reject]


def _find_tsig(msg: DnsMessage) -> ResourceRecord | None:
    for rr in msg.additional:
        if rr.rtype == RType.TSIG:
            return rr
    return None


def _with_additional(msg: DnsMessage, additional: tuple[ResourceRecord, ...]) -> DnsMessage:
    """``msg`` with its additional section replaced, filled positionally."""
    return _message(msg.id, msg.opcode, msg.rcode, msg.is_response, msg.authoritative,
                    msg.question, msg.answers, msg.authority, additional, msg.extra_flags)


def _strip_tsig(msg: DnsMessage) -> DnsMessage:
    return _with_additional(msg, tuple(rr for rr in msg.additional if rr.rtype != RType.TSIG))


def _compute_mac(secret: bytes, core_wire: bytes, *, name_wire: bytes, rclass: int, ttl: int,
                 algorithm_wire: bytes, time_signed: int, fudge: int,
                 error: int = 0, other: bytes = b"") -> bytes:
    # RFC 2845 §3.4 composition: whole message (sans TSIG) + the TSIG
    # variables. Name and algorithm enter exactly as carried on the wire so
    # that every bit of the signed datagram stays tamper-evident.
    variables = (
        name_wire
        + struct.pack("!HI", rclass, ttl)
        + algorithm_wire
        + time_signed.to_bytes(6, "big")
        + struct.pack("!H", fudge)
        + struct.pack("!H", error)
        + struct.pack("!H", len(other))
        + other
    )
    return hmac.new(secret, core_wire + variables, hashlib.sha256).digest()


def sign_message(msg: DnsMessage, key: TsigKey, now: int) -> DnsMessage:
    """Append a TSIG meta-record computed over the rendered message."""
    if _find_tsig(msg) is not None:
        raise AlreadySigned("message already carries a TSIG record")
    time_signed = int(now)
    mac = _compute_mac(
        key.secret, encode_message(msg),
        name_wire=key.key_name.to_wire(), rclass=RClass.ANY, ttl=0,
        algorithm_wire=key.algorithm.to_wire(), time_signed=time_signed, fudge=FUDGE_SECONDS,
    )
    tsig_rr = ResourceRecord(
        name=key.key_name,
        rtype=RType.TSIG,
        rclass=RClass.ANY,
        ttl=0,
        rdata=TsigData(key.algorithm, time_signed, FUDGE_SECONDS, mac, msg.id, 0, b""),
    )
    return _with_additional(msg, msg.additional + (tsig_rr,))


def verify_message(msg: DnsMessage, keyring: Iterable[TsigKey], now: int) -> VerifyResult:
    """Check a message's TSIG against a keyring.

    The outcome never depends on keyring iteration order: keys are matched
    by name, and any matching key with a valid MAC accepts.
    """
    tsig_rr = _find_tsig(msg)
    if tsig_rr is None:
        return Reject(RejectReason.NO_SIGNATURE)
    tsig: TsigData = tsig_rr.rdata
    if not isinstance(tsig, TsigData):
        return Reject(RejectReason.BAD_SIGNATURE)
    candidates = [k for k in keyring if k.key_name == tsig_rr.name and k.algorithm == tsig.algorithm]
    if not candidates:
        return Reject(RejectReason.UNKNOWN_KEY)
    core = _strip_tsig(msg)
    # the MAC is checked over a re-encoding of the unsigned message, not over
    # the bytes received: a signer that compresses names differently is
    # rejected (RFC 8945 §4.3.3 wants the received prefix; ROADMAP item 2)
    core_wire = encode_message(core)
    if tsig.original_id != msg.id:
        # a forwarder gave the message an id of its own: the MAC covers the
        # header as signed, with the Original ID (RFC 8945 §4.3.3)
        core_wire = tsig.original_id.to_bytes(2, "big") + core_wire[2:]
    valid = any(
        hmac.compare_digest(
            _compute_mac(key.secret, core_wire,
                         name_wire=tsig_rr.name.to_wire(), rclass=tsig_rr.rclass,
                         ttl=tsig_rr.ttl, algorithm_wire=tsig.algorithm.to_wire(),
                         time_signed=tsig.time_signed, fudge=tsig.fudge,
                         error=tsig.error, other=tsig.other),
            tsig.mac)
        for key in candidates
    )
    if not valid:
        return Reject(RejectReason.BAD_SIGNATURE)
    if abs(int(now) - tsig.time_signed) > tsig.fudge:
        return Reject(RejectReason.BAD_TIME)
    return Accept(core)
