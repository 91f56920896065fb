"""Property-based tests for the generated wire codec (hypothesis).

Instance strategies are derived from the codec's own field-spec trees
(:func:`repro.core.codec._field_specs`), so every class in the MANIFEST
is exercised with arbitrary well-typed payloads — the properties cannot
drift out of sync with the manifest when a wire class gains a field.

Three invariants:

* ``decode_wire(encode_wire(x)) == x`` for every wire class (the
  tuple/list distinction in ``Any`` payloads included);
* the generated canonical-digest expanders and immutability verdicts
  agree with the reference walks in :mod:`repro.crypto.digest` (same
  ``stable_digest`` and same ``_deeply_immutable`` verdict with them
  installed or removed);
* on payloads the hand-written JSON walker in :mod:`repro.core.wire`
  can represent (no tuples or bytes inside ``Any`` fields), the codec
  round-trip and the ``wire.py`` round-trip produce equal objects with
  equal digests — and on tuple-carrying payloads the codec is lossless
  where ``wire.py`` documentedly is not.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import codec, wire
from repro.core.codec import (
    MANIFEST,
    decode_wire,
    decode_wire_bytes,
    encode_wire,
    encode_wire_bytes,
)
from repro.core.records import (
    LogEntry,
    MirrorEntry,
    SealedTransmission,
    TransmissionRecord,
)
from repro.crypto.digest import (
    _deeply_immutable,
    set_canonical_expanders,
    set_immutability_verdicts,
    stable_digest,
)
from repro.crypto.signatures import QuorumProof, Signature

_KEY_TEXT = st.text(alphabet="abcdef", max_size=4)

_ANY_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**53), max_value=2**53),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=12),
)


def _any_values(tuples: bool, binary: bool) -> st.SearchStrategy:
    """Trees the ``Any``-value walkers accept. The ``wire.py``
    comparison property excludes tuples (tuple→list loss is that
    walker's documented behavior) and bytes (JSON cannot carry them)."""
    base = _ANY_SCALARS
    if binary:
        base = base | st.binary(max_size=8)

    def extend(children):
        options = [
            st.lists(children, max_size=3),
            st.dictionaries(_KEY_TEXT, children, max_size=3),
        ]
        if tuples:
            options.append(st.lists(children, max_size=3).map(tuple))
        return st.one_of(*options)

    return st.recursive(base, extend, max_leaves=8)


class _StrategyBuilder:
    """Builds per-class instance strategies from codec spec trees."""

    def __init__(self, any_values: st.SearchStrategy) -> None:
        self.any_values = any_values
        self._classes: dict = {}

    def for_class(self, cls: type) -> st.SearchStrategy:
        strategy = self._classes.get(cls)
        if strategy is None:
            # Deferred so mutually referencing classes cannot recurse
            # during construction.
            strategy = st.deferred(lambda cls=cls: self._build(cls))
            self._classes[cls] = strategy
        return strategy

    def _build(self, cls: type) -> st.SearchStrategy:
        return st.builds(
            cls,
            **{
                fname: self.for_spec(spec)
                for fname, spec in zip(MANIFEST[cls][1], codec._field_specs(cls))
            },
        )

    def for_spec(self, spec) -> st.SearchStrategy:
        kind = spec[0]
        if kind == "str":
            return st.text(max_size=12)
        if kind == "int":
            return st.integers(min_value=-(2**53), max_value=2**53)
        if kind == "float":
            return st.floats(allow_nan=False, allow_infinity=False)
        if kind == "bool":
            return st.booleans()
        if kind == "opt":
            return st.none() | self.for_spec(spec[1])
        if kind == "vtuple":
            return st.lists(self.for_spec(spec[1]), max_size=3).map(tuple)
        if kind == "ftuple":
            return st.tuples(*(self.for_spec(s) for s in spec[1]))
        if kind == "list":
            return st.lists(self.for_spec(spec[1]), max_size=3)
        if kind == "dicts":
            return st.dictionaries(_KEY_TEXT, self.for_spec(spec[1]), max_size=3)
        if kind == "dicti":
            return st.dictionaries(
                st.integers(min_value=-100, max_value=100),
                self.for_spec(spec[1]),
                max_size=3,
            )
        if kind == "cls":
            return self.for_class(spec[1])
        if kind == "any":
            return self.any_values
        raise AssertionError(f"unhandled codec spec {spec!r}")


_FULL = _StrategyBuilder(_any_values(tuples=True, binary=True))
_JSON_SAFE = _StrategyBuilder(_any_values(tuples=False, binary=False))

_ALL_CLASSES = sorted(MANIFEST, key=lambda cls: cls.__name__)

#: The record classes ``wire.py`` hand-walks: class → (encode, decode).
_WIRE_WALKERS = {
    Signature: (wire.encode_signature, wire.decode_signature),
    QuorumProof: (wire.encode_proof, wire.decode_proof),
    TransmissionRecord: (
        wire.encode_transmission_record, wire.decode_transmission_record,
    ),
    SealedTransmission: (wire.encode_sealed, wire.decode_sealed),
    LogEntry: (wire.encode_log_entry, wire.decode_log_entry),
    MirrorEntry: (wire.encode_mirror_entry, wire.decode_mirror_entry),
}
_WIRE_CLASSES = sorted(_WIRE_WALKERS, key=lambda cls: cls.__name__)


def _via_wire_py(obj):
    encode, decode = _WIRE_WALKERS[obj.__class__]
    return decode(wire.from_json(wire.to_json(encode(obj))))


@pytest.mark.parametrize(
    "cls", _ALL_CLASSES, ids=[cls.__name__ for cls in _ALL_CLASSES]
)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_round_trip_is_identity(cls, data):
    """encode→decode reproduces the instance exactly, per wire class."""
    obj = data.draw(_FULL.for_class(cls))
    assert decode_wire(encode_wire(obj)) == obj


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_round_trip_through_bytes(data):
    cls = data.draw(st.sampled_from(_ALL_CLASSES))
    obj = data.draw(_FULL.for_class(cls))
    assert decode_wire_bytes(encode_wire_bytes(obj)) == obj


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_generated_digest_expanders_match_generic_walk(data):
    """stable_digest is byte-identical with the codec's generated
    canonical expanders installed and with the generic walk."""
    cls = data.draw(st.sampled_from(_ALL_CLASSES))
    obj = data.draw(_FULL.for_class(cls))
    with_expanders = stable_digest(obj)
    set_canonical_expanders(None)
    try:
        without_expanders = stable_digest(obj)
    finally:
        set_canonical_expanders(codec._EXPANDERS)
    assert with_expanders == without_expanders


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_generated_immutability_verdicts_match_reflective_walk(data):
    """The codec's generated immutability verdicts agree with the
    reflective ``_deeply_immutable`` walk on every well-typed instance —
    the digest memo must make identical cache/no-cache decisions with
    the verdicts installed or removed."""
    cls = data.draw(st.sampled_from(_ALL_CLASSES))
    obj = data.draw(_FULL.for_class(cls))
    with_verdicts = _deeply_immutable(obj)
    set_immutability_verdicts(None)
    try:
        without_verdicts = _deeply_immutable(obj)
    finally:
        set_immutability_verdicts(codec._IMMUTABILITY)
    assert with_verdicts == without_verdicts


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_codec_agrees_with_wire_py_on_json_safe_payloads(data):
    """Where ``wire.py``'s hand-walked JSON can represent the value at
    all, both paths decode to equal objects with equal digests."""
    cls = data.draw(st.sampled_from(_WIRE_CLASSES))
    obj = data.draw(_JSON_SAFE.for_class(cls))
    via_codec = decode_wire(encode_wire(obj))
    via_wire_py = _via_wire_py(obj)
    assert via_codec == via_wire_py == obj
    assert stable_digest(via_codec) == stable_digest(via_wire_py)


def test_codec_preserves_any_tuples_where_wire_py_does_not():
    """The decisive divergence: a tuple inside an ``Any`` payload
    survives the generated codec but degrades to a list through
    ``wire.py`` — which changes the record digest. This is why wire
    fidelity transcodes with the generated codec."""
    payload = ("k", ("nested", 2))
    record = TransmissionRecord("A", "B", payload, 1, None)
    signature = Signature(signer="a", digest="d", mac="m")
    proof = QuorumProof(digest=record.digest(), signatures=(signature,))
    lossy = [
        LogEntry(1, "communication", payload, None),
        MirrorEntry("A", 1, "communication", payload, None),
        record,
        SealedTransmission(record=record, proof=proof),
    ]
    for obj in lossy:
        assert decode_wire(encode_wire(obj)) == obj
        degraded = _via_wire_py(obj)
        assert degraded != obj
        assert stable_digest(degraded) != stable_digest(obj)
    assert _via_wire_py(lossy[0]).value == ["k", ["nested", 2]]
    # Typed tuple fields (not Any) are spec-driven and survive both.
    for obj in (signature, proof):
        assert decode_wire(encode_wire(obj)) == obj
        assert _via_wire_py(obj) == obj
