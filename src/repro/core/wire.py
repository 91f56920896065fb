"""Wire formats: JSON-compatible encoding of Blockplane records.

The simulator passes Python objects by reference, but a production
deployment ships bytes. This module proves the protocol's artifacts are
cleanly serializable: every record that crosses a machine boundary —
signatures, quorum proofs, transmission records, mirror entries, log
entries — round-trips through a JSON-compatible dict representation
(and therefore through ``json.dumps``). Digests are computed over
canonical values, so a decoded record produces the same digest as the
original, keeping proofs valid across the wire.

Payloads must themselves be JSON-compatible values (str, int, float,
bool, None, lists, dicts) — the same constraint any RPC layer imposes.
"""

from __future__ import annotations

import json
from typing import Any, Dict

from repro.core.records import (
    LogEntry,
    MirrorEntry,
    SealedTransmission,
    TransmissionRecord,
)
from repro.crypto.signatures import QuorumProof, Signature
from repro.errors import ProtocolError


def encode_signature(signature: Signature) -> Dict[str, Any]:
    """Signature → dict."""
    return {
        "signer": signature.signer,
        "digest": signature.digest,
        "mac": signature.mac,
    }


def decode_signature(data: Dict[str, Any]) -> Signature:
    """Dict → Signature."""
    try:
        return Signature(
            signer=data["signer"], digest=data["digest"], mac=data["mac"]
        )
    except (KeyError, TypeError) as exc:
        raise ProtocolError(f"malformed signature: {exc}") from exc


def encode_proof(proof: QuorumProof) -> Dict[str, Any]:
    """QuorumProof → dict."""
    return {
        "digest": proof.digest,
        "signatures": [
            encode_signature(signature) for signature in proof.signatures
        ],
    }


def decode_proof(data: Dict[str, Any]) -> QuorumProof:
    """Dict → QuorumProof."""
    try:
        return QuorumProof(
            digest=data["digest"],
            signatures=tuple(
                decode_signature(item) for item in data["signatures"]
            ),
        )
    except (KeyError, TypeError) as exc:
        raise ProtocolError(f"malformed proof: {exc}") from exc


def encode_transmission_record(record: TransmissionRecord) -> Dict[str, Any]:
    """TransmissionRecord → dict."""
    return {
        "source": record.source,
        "destination": record.destination,
        "message": record.message,
        "source_position": record.source_position,
        "prev_position": record.prev_position,
        "payload_bytes": record.payload_bytes,
    }


def decode_transmission_record(data: Dict[str, Any]) -> TransmissionRecord:
    """Dict → TransmissionRecord."""
    try:
        return TransmissionRecord(
            source=data["source"],
            destination=data["destination"],
            message=data["message"],
            source_position=data["source_position"],
            prev_position=data["prev_position"],
            payload_bytes=data.get("payload_bytes", 0),
        )
    except (KeyError, TypeError) as exc:
        raise ProtocolError(f"malformed transmission record: {exc}") from exc


def encode_sealed(sealed: SealedTransmission) -> Dict[str, Any]:
    """SealedTransmission → dict (including geo proofs)."""
    return {
        "record": encode_transmission_record(sealed.record),
        "proof": encode_proof(sealed.proof),
        "geo_proofs": [
            {"participant": participant, "proof": encode_proof(proof)}
            for participant, proof in sealed.geo_proofs
        ],
    }


def decode_sealed(data: Dict[str, Any]) -> SealedTransmission:
    """Dict → SealedTransmission."""
    try:
        return SealedTransmission(
            record=decode_transmission_record(data["record"]),
            proof=decode_proof(data["proof"]),
            geo_proofs=tuple(
                (item["participant"], decode_proof(item["proof"]))
                for item in data.get("geo_proofs", [])
            ),
        )
    except (KeyError, TypeError) as exc:
        raise ProtocolError(f"malformed sealed transmission: {exc}") from exc


def encode_log_entry(entry: LogEntry) -> Dict[str, Any]:
    """LogEntry → dict. Received records nest their sealed payload."""
    value: Any = entry.value
    if isinstance(value, SealedTransmission):
        value = {"__sealed__": encode_sealed(value)}
    return {
        "position": entry.position,
        "record_type": entry.record_type,
        "value": value,
        "meta": entry.meta,
        "payload_bytes": entry.payload_bytes,
    }


def decode_log_entry(data: Dict[str, Any]) -> LogEntry:
    """Dict → LogEntry.

    JSON turns tuples into lists and canonical digests distinguish the
    two, so decoded payloads keep lists as lists; callers whose protocol
    uses tuples in payloads must normalize on receipt.
    """
    try:
        value = data["value"]
        if isinstance(value, dict) and "__sealed__" in value:
            value = decode_sealed(value["__sealed__"])
        return LogEntry(
            position=data["position"],
            record_type=data["record_type"],
            value=value,
            meta=data["meta"],
            payload_bytes=data.get("payload_bytes", 0),
        )
    except (KeyError, TypeError) as exc:
        raise ProtocolError(f"malformed log entry: {exc}") from exc


def encode_mirror_entry(entry: MirrorEntry) -> Dict[str, Any]:
    """MirrorEntry → dict."""
    return {
        "source": entry.source,
        "position": entry.position,
        "record_type": entry.record_type,
        "value": entry.value,
        "meta": entry.meta,
    }


def decode_mirror_entry(data: Dict[str, Any]) -> MirrorEntry:
    """Dict → MirrorEntry."""
    try:
        return MirrorEntry(
            source=data["source"],
            position=data["position"],
            record_type=data["record_type"],
            value=data["value"],
            meta=data["meta"],
        )
    except (KeyError, TypeError) as exc:
        raise ProtocolError(f"malformed mirror entry: {exc}") from exc


#: One pre-configured encoder instance: ``json.dumps`` with keyword
#: options re-resolves them into a fresh encoder on every call, which
#: shows up in the wire micro-benchmarks; ``encode`` on a shared
#: instance skips that setup entirely.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def to_json(data: Dict[str, Any]) -> str:
    """Serialize an encoded record to a JSON string."""
    return _ENCODER.encode(data)


def from_json(text: str) -> Dict[str, Any]:
    """Parse a JSON string back to a dict."""
    try:
        return json.loads(text)
    except ValueError as exc:
        raise ProtocolError(f"malformed wire JSON: {exc}") from exc
