"""Wire-format round-trip tests (plus hypothesis payload fuzzing)."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.records import (
    LogEntry,
    MirrorEntry,
    RECORD_LOG_COMMIT,
    RECORD_RECEIVED,
    SealedTransmission,
    TransmissionRecord,
)
from repro.core.wire import (
    decode_log_entry,
    decode_mirror_entry,
    decode_proof,
    decode_sealed,
    decode_signature,
    encode_log_entry,
    encode_mirror_entry,
    encode_proof,
    encode_sealed,
    encode_signature,
    from_json,
    to_json,
)
from repro.crypto.keys import KeyRegistry
from repro.crypto.signatures import QuorumProof, collect_signatures, sign
from repro.errors import ProtocolError

json_payloads = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-(2**31), max_value=2**31),
        st.text(max_size=30),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=12,
)


@pytest.fixture
def registry():
    reg = KeyRegistry(seed=4)
    reg.register_all(["A-0", "A-1", "A-2", "A-3"])
    return reg


def test_signature_roundtrip(registry):
    signature = sign(registry, "A-0", "ab" * 32)
    decoded = decode_signature(from_json(to_json(encode_signature(signature))))
    assert decoded == signature


def test_proof_roundtrip_stays_valid(registry):
    digest = "cd" * 32
    proof = QuorumProof.build(
        digest, collect_signatures(registry, ["A-0", "A-1"], digest)
    )
    decoded = decode_proof(from_json(to_json(encode_proof(proof))))
    assert decoded.is_valid(registry, 2, allowed_signers=["A-0", "A-1"])


def test_transmission_record_digest_survives_the_wire(registry):
    record = TransmissionRecord(
        source="A",
        destination="B",
        message={"type": "paxos-propose", "slot": 1},
        source_position=7,
        prev_position=3,
        payload_bytes=100,
    )
    sealed = SealedTransmission(
        record=record,
        proof=QuorumProof.build(
            record.digest(),
            collect_signatures(registry, ["A-0", "A-1"], record.digest()),
        ),
    )
    decoded = decode_sealed(from_json(to_json(encode_sealed(sealed))))
    assert decoded.record.digest() == record.digest()
    assert decoded.proof.is_valid(registry, 2)


def test_sealed_with_geo_proofs_roundtrip(registry):
    record = TransmissionRecord("A", "B", "m", 1, None)
    proof = QuorumProof.build(
        record.digest(),
        collect_signatures(registry, ["A-0", "A-1"], record.digest()),
    )
    sealed = SealedTransmission(
        record=record, proof=proof, geo_proofs=(("V", proof),)
    )
    decoded = decode_sealed(from_json(to_json(encode_sealed(sealed))))
    assert decoded.geo_proofs[0][0] == "V"
    assert decoded.geo_proofs[0][1].digest == proof.digest


def test_log_entry_roundtrip_with_nested_sealed(registry):
    record = TransmissionRecord("A", "B", "msg", 1, None)
    sealed = SealedTransmission(
        record=record,
        proof=QuorumProof.build(
            record.digest(),
            collect_signatures(registry, ["A-0", "A-1"], record.digest()),
        ),
    )
    entry = LogEntry(3, RECORD_RECEIVED, sealed, meta={"source": "A"})
    decoded = decode_log_entry(from_json(to_json(encode_log_entry(entry))))
    assert isinstance(decoded.value, SealedTransmission)
    assert decoded.value.record.digest() == record.digest()
    assert decoded.position == 3


def test_mirror_entry_digest_survives_the_wire():
    entry = MirrorEntry("A", 4, RECORD_LOG_COMMIT, {"k": "v"}, None)
    decoded = decode_mirror_entry(
        from_json(to_json(encode_mirror_entry(entry)))
    )
    assert decoded.digest() == entry.digest()


def test_malformed_inputs_raise_protocol_errors():
    with pytest.raises(ProtocolError):
        decode_signature({"signer": "x"})
    with pytest.raises(ProtocolError):
        decode_proof({"digest": "x"})
    with pytest.raises(ProtocolError):
        decode_sealed({"record": {}})
    with pytest.raises(ProtocolError):
        decode_log_entry({})
    with pytest.raises(ProtocolError):
        decode_mirror_entry({})
    with pytest.raises(ProtocolError):
        from_json("{")


@given(payload=json_payloads)
@settings(max_examples=100, deadline=None)
def test_any_json_payload_roundtrips(payload):
    record = TransmissionRecord("A", "B", payload, 1, None)
    decoded = decode_sealed(
        from_json(
            to_json(
                encode_sealed(
                    SealedTransmission(
                        record=record,
                        proof=QuorumProof(digest=record.digest(), signatures=()),
                    )
                )
            )
        )
    )
    assert decoded.record.message == payload
    assert decoded.record.digest() == record.digest()


def test_json_is_actually_json():
    entry = LogEntry(1, RECORD_LOG_COMMIT, {"a": [1, 2]}, None)
    text = to_json(encode_log_entry(entry))
    json.loads(text)  # raises if not valid JSON
