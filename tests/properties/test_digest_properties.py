"""Property-based tests for the canonical digest (hypothesis)."""

import dataclasses
import string
from typing import Any

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.caches import set_caches_enabled
from repro.crypto.digest import (
    _DIGEST_CACHE,
    _canonical_into,
    _deeply_immutable,
    cached_digest,
    clear_digest_cache,
    stable_digest,
)
from repro.crypto.keys import KeyRegistry
from repro.crypto.signatures import QuorumProof, collect_signatures, sign, verify

# JSON-ish values that stable_digest must canonicalize.
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**63), max_value=2**63),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=40),
    st.binary(max_size=40),
)
values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.dictionaries(st.text(max_size=8), children, max_size=5),
        st.tuples(children, children),
    ),
    max_leaves=20,
)


@given(values)
@settings(max_examples=200, deadline=None)
def test_digest_is_deterministic(value):
    assert stable_digest(value) == stable_digest(value)


@given(st.dictionaries(st.text(max_size=8), scalars, min_size=2, max_size=6))
@settings(max_examples=100, deadline=None)
def test_digest_ignores_dict_insertion_order(mapping):
    items = list(mapping.items())
    reversed_mapping = dict(reversed(items))
    assert stable_digest(mapping) == stable_digest(reversed_mapping)


@given(values, values)
@settings(max_examples=200, deadline=None)
def test_distinct_values_rarely_collide(a, b):
    if a != b:
        # SHA-256 collisions are out of reach; any equality here means a
        # canonicalization bug (two distinct values mapping to one form).
        da, db = stable_digest(a), stable_digest(b)
        if da == db:
            # Permit int/float equal values like 1 == 1.0? We digest
            # them differently on purpose, so even that must not collide.
            raise AssertionError(f"collision: {a!r} vs {b!r}")


@given(st.text(alphabet=string.ascii_letters, min_size=1, max_size=10))
@settings(max_examples=50, deadline=None)
def test_any_registered_node_signature_verifies(node_id):
    registry = KeyRegistry(seed=5)
    registry.register(node_id)
    digest = stable_digest(("payload", node_id))
    assert verify(registry, sign(registry, node_id, digest), digest)


@given(
    st.lists(
        st.sampled_from(["n0", "n1", "n2", "n3", "n4", "n5"]),
        min_size=0,
        max_size=6,
        unique=True,
    ),
    st.integers(min_value=1, max_value=4),
)
@settings(max_examples=100, deadline=None)
def test_proof_validity_iff_enough_distinct_signers(signers, required):
    registry = KeyRegistry(seed=6)
    registry.register_all(["n0", "n1", "n2", "n3", "n4", "n5"])
    digest = stable_digest("quorum-payload")
    proof = QuorumProof.build(
        digest, collect_signatures(registry, signers, digest)
    )
    assert proof.is_valid(registry, required) == (len(signers) >= required)


# ----------------------------------------------------------------------
# The identity memo's immutability proof
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class _Frozen:
    left: Any
    right: Any


@dataclasses.dataclass
class _Thawed:
    item: Any


hashables = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.tuples(children, children),
        st.frozensets(children, max_size=3),
    ),
    max_leaves=4,
)
trees = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.tuples(children, children),
        st.tuples(children, children, children),
        st.lists(children, max_size=3),
        st.dictionaries(st.text(max_size=4), children, max_size=3),
        st.sets(hashables, max_size=3),
        st.frozensets(hashables, max_size=3),
        st.builds(_Frozen, children, children),
        st.builds(_Thawed, children),
    ),
    max_leaves=16,
)


def _reference_immutable(value: Any) -> bool:
    """The definition, recursively and with no memo: immutable leaves,
    tuples, frozensets and frozen dataclasses of immutable values."""
    if isinstance(value, (type(None), bool, int, float, str, bytes)):
        return True
    if isinstance(value, (tuple, frozenset)):
        return all(_reference_immutable(item) for item in value)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return type(value).__dataclass_params__.frozen and all(
            _reference_immutable(getattr(value, field.name))
            for field in dataclasses.fields(value)
        )
    return False


def _subtrees(value: Any) -> list:
    """Every node of ``value`` (the value itself first)."""
    nodes = [value]
    for node in nodes:
        if isinstance(node, (tuple, list, set, frozenset)):
            nodes.extend(node)
        elif isinstance(node, dict):
            nodes.extend(node.values())
        elif dataclasses.is_dataclass(node):
            nodes.extend(
                getattr(node, field.name) for field in dataclasses.fields(node)
            )
    return nodes


@given(trees, st.data())
@settings(max_examples=300, deadline=None)
def test_memo_never_loosens_the_immutability_proof(tree, data):
    previous = set_caches_enabled(True)
    try:
        clear_digest_cache()
        expected = _reference_immutable(tree)
        assert _deeply_immutable(tree) == expected
        # The walk's by-product verdict is exact or defers (None) to the
        # reflective check; it never claims more than the definition.
        fused = _canonical_into(tree, [])
        assert fused is None or fused == expected

        nodes = _subtrees(tree)
        memoized = data.draw(
            st.sets(st.integers(0, len(nodes) - 1), max_size=len(nodes))
        )
        for index in sorted(memoized):
            assert cached_digest(nodes[index]) == stable_digest(nodes[index])
        assert _deeply_immutable(tree) == expected

        assert cached_digest(tree) == stable_digest(tree)
        assert _DIGEST_CACHE.holds(tree) == expected
        assert cached_digest(tree) == stable_digest(tree)
        # Nothing that reaches a list, dict, set or non-frozen
        # dataclass is ever pinned.
        for obj, _ in _DIGEST_CACHE._entries.values():
            assert _reference_immutable(obj)
    finally:
        clear_digest_cache()
        set_caches_enabled(previous)
