"""Canonical digests of protocol values.

Protocol payloads are arbitrary Python values (the paper's interface
takes "an arbitrary string"; we are slightly more liberal and accept any
tree of basic types and dataclasses). :func:`stable_digest` serializes
such a value canonically — independent of dict insertion order — and
hashes it with SHA-256 so that two honest nodes always derive the same
digest for the same logical value.

The canonicalizer is iterative (an explicit stack instead of one Python
frame per tree node) with single-append fast paths for the str/int/
bytes leaves that dominate real payloads. :func:`cached_digest` adds an
identity-keyed memo on top for the frozen record objects the simulator
passes between replicas by reference — the same ``TransmissionRecord``
has its digest requested at every replica of every unit it crosses.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Any, Callable, List, Optional

from repro.crypto.caches import IdentityLRU, caches_enabled
from repro.errors import CryptoError


class _Emit:
    """Stack marker: literal bytes to append when popped (container
    closers). A distinct type so byte *values* can never alias it."""

    __slots__ = ("data",)

    def __init__(self, data: bytes) -> None:
        self.data = data


_CLOSE_LIST = _Emit(b"]")
_CLOSE_TUPLE = _Emit(b")")
_CLOSE_DICT = _Emit(b"}")
_CLOSE_SET = _Emit(b")")
_CLOSE_DATACLASS = _Emit(b">")

#: Per-class canonical expanders installed by :mod:`repro.core.codec`:
#: generated functions that push one dataclass's fields onto the walk
#: stack with the field-name encodings precomputed. Byte-identical to
#: the generic dataclass branch in :func:`_canonical_slow` — only the
#: per-field ``dataclasses.fields``/encode overhead is removed. Empty
#: until the codec is imported; tests remove them to compare against
#: the generic walk.
_CANONICAL_EXPANDERS: dict = {}


def set_canonical_expanders(mapping: Optional[dict]) -> None:
    """Install (or, with None, remove) generated per-class expanders."""
    global _CANONICAL_EXPANDERS
    _CANONICAL_EXPANDERS = mapping if mapping is not None else {}


def canonical_field_marker(name: str) -> _Emit:
    """Precomputed canonical encoding of a dataclass field name, for
    generated expanders (``s<len>:<name>`` merged into one append)."""
    encoded = name.encode("utf-8")
    return _Emit(b"s%d:" % len(encoded) + encoded)


def canonical_dataclass_close() -> _Emit:
    """The dataclass close marker, shared with generated expanders."""
    return _CLOSE_DATACLASS


def _canonical_into(value: Any, out: List[bytes]) -> Optional[bool]:
    """Append the canonical byte representation of ``value`` to ``out``.

    Iterative depth-first walk; children are pushed in reverse so pops
    emit them in order. Exact types take the fast path; subclasses fall
    back to the isinstance chain so e.g. ``IntEnum`` members serialize
    exactly as before.

    Returns the walk's by-product deep-immutability verdict: False once
    a list, dict or set is met; None if the tree holds a dataclass or a
    subclass of a basic type, which only :func:`_deeply_immutable`
    decides; True when every node was an exact immutable leaf, tuple or
    frozenset.
    """
    append = out.append
    stack: List[Any] = [value]
    pop = stack.pop
    verdict: Optional[bool] = True
    while stack:
        v = pop()
        cls = v.__class__
        if cls is _Emit:
            append(v.data)
        elif cls is str:
            encoded = v.encode("utf-8")
            append(b"s%d:" % len(encoded))
            append(encoded)
        elif cls is int:
            append(b"i%d" % v)
        elif cls is bool:
            append(b"b1" if v else b"b0")
        elif v is None:
            append(b"n")
        elif cls is bytes:
            append(b"y%d:" % len(v))
            append(v)
        elif cls is float:
            append(b"f" + repr(v).encode())
        elif cls is tuple:
            # Tuples and lists are distinct values and must never
            # collide (``(None, None)`` vs ``[None, None]``) — the wire
            # layer documents that JSON's tuple→list conversion changes
            # the digest and callers normalize on receipt.
            append(b"t%d(" % len(v))
            stack.append(_CLOSE_TUPLE)
            for item in reversed(v):
                stack.append(item)
        elif cls is list:
            verdict = False
            append(b"l%d[" % len(v))
            stack.append(_CLOSE_LIST)
            for item in reversed(v):
                stack.append(item)
        elif cls is dict:
            verdict = False
            append(b"d%d{" % len(v))
            stack.append(_CLOSE_DICT)
            try:
                items = sorted(v.items(), key=_repr_of_key)
            except TypeError as exc:  # unsortable keys
                raise CryptoError(
                    f"cannot canonicalize dict keys: {exc}"
                ) from exc
            for key, item in reversed(items):
                stack.append(item)
                stack.append(key)
        elif cls is set or cls is frozenset:
            if cls is set:
                verdict = False
            append(b"S%d(" % len(v))
            stack.append(_CLOSE_SET)
            for item in sorted(v, key=repr, reverse=True):
                stack.append(item)
        else:
            if verdict:
                verdict = None
            expander = _CANONICAL_EXPANDERS.get(cls)
            if expander is not None:
                expander(v, append, stack)
            else:
                _canonical_slow(v, append, stack)
    return verdict


def _repr_of_key(kv: Any) -> str:
    return repr(kv[0])


def _canonical_slow(v: Any, append: Callable, stack: List[Any]) -> None:
    """Subclass / dataclass / unknown-type path of the canonical walk.

    Mirrors the exact-type dispatch with isinstance checks so values of
    derived types keep their historical encodings.
    """
    if isinstance(v, bool):
        append(b"b1" if v else b"b0")
    elif isinstance(v, int):
        append(b"i" + str(v).encode())
    elif isinstance(v, float):
        append(b"f" + repr(v).encode())
    elif isinstance(v, str):
        encoded = v.encode("utf-8")
        append(b"s%d:" % len(encoded))
        append(encoded)
    elif isinstance(v, bytes):
        append(b"y%d:" % len(v))
        append(v)
    elif isinstance(v, tuple):
        append(b"t%d(" % len(v))
        stack.append(_CLOSE_TUPLE)
        for item in reversed(v):
            stack.append(item)
    elif isinstance(v, list):
        append(b"l%d[" % len(v))
        stack.append(_CLOSE_LIST)
        for item in reversed(v):
            stack.append(item)
    elif isinstance(v, dict):
        append(b"d%d{" % len(v))
        stack.append(_CLOSE_DICT)
        try:
            items = sorted(v.items(), key=_repr_of_key)
        except TypeError as exc:
            raise CryptoError(f"cannot canonicalize dict keys: {exc}") from exc
        for key, item in reversed(items):
            stack.append(item)
            stack.append(key)
    elif isinstance(v, (set, frozenset)):
        append(b"S%d(" % len(v))
        stack.append(_CLOSE_SET)
        for item in sorted(v, key=repr, reverse=True):
            stack.append(item)
    elif dataclasses.is_dataclass(v) and not isinstance(v, type):
        append(b"D" + type(v).__name__.encode() + b"<")
        stack.append(_CLOSE_DATACLASS)
        for field in reversed(dataclasses.fields(v)):
            stack.append(getattr(v, field.name))
            stack.append(field.name)
    else:
        raise CryptoError(
            f"cannot canonicalize value of type {type(v).__name__}"
        )


def stable_digest(value: Any) -> str:
    """Return a hex SHA-256 digest of ``value``'s canonical form.

    Raises:
        CryptoError: If the value contains a type with no canonical
            representation (e.g. an arbitrary object).
    """
    out: List[bytes] = []
    _canonical_into(value, out)
    return hashlib.sha256(b"".join(out)).hexdigest()


# ----------------------------------------------------------------------
# Identity-keyed digest memo
# ----------------------------------------------------------------------

#: Shared memo for :func:`cached_digest`. Entries pin their keyed
#: object, so identity keys cannot be recycled while cached (see
#: :class:`~repro.crypto.caches.IdentityLRU`). Only values that passed
#: the deep-immutability check are stored, so a pinned object's whole
#: subtree is proven immutable for as long as its entry lives.
_DIGEST_CACHE = IdentityLRU(maxsize=8192)

#: Leaf types that can never change value in place.
_IMMUTABLE_LEAVES = (type(None), bool, int, float, str, bytes)

#: The same leaves as exact classes, for a set test ahead of the
#: verdict lookup (subclasses still take the isinstance check).
_LEAF_CLASSES = frozenset(_IMMUTABLE_LEAVES)

#: Per-class immutability verdicts installed by :mod:`repro.core.codec`:
#: for a MANIFEST class, ``False`` means "never deeply immutable" (not
#: frozen, or a field is always a mutable container) and a callable
#: isinstance-checks the scalar fields and pushes only the fields the
#: spec cannot decide statically. A verdict may only be *stricter* than
#: the reflective walk — refusing to memoize is always safe, memoizing a
#: mutable value never is. Empty until the codec is imported; tests
#: remove them to compare against the reflective walk.
_IMMUTABILITY_VERDICTS: dict = {}


def set_immutability_verdicts(mapping: Optional[dict]) -> None:
    """Install (or, with None, remove) generated per-class verdicts."""
    global _IMMUTABILITY_VERDICTS
    _IMMUTABILITY_VERDICTS = mapping if mapping is not None else {}


def _deeply_immutable(value: Any) -> bool:
    """Whether ``value`` is a tree of immutable values all the way down.

    Only such values are safe to memoize by identity with no
    invalidation protocol: nothing reachable from them can be mutated
    into a different canonical form. Frozen dataclasses qualify when
    every field value does; lists, dicts, sets, and non-frozen
    dataclasses do not.

    Sub-objects pinned in the digest memo are skipped: they were proven
    immutable before they were stored, so the proof is paid once per
    object rather than once per enclosing record.
    """
    verdicts = _IMMUTABILITY_VERDICTS
    leaves = _LEAF_CLASSES
    pinned = _DIGEST_CACHE.holds
    stack = [value]
    pop = stack.pop
    while stack:
        v = pop()
        cls = v.__class__
        if cls in leaves or pinned(v):
            continue
        verdict = verdicts.get(cls)
        if verdict is not None:
            if verdict is False:
                return False
            if verdict(v, stack):
                continue
            return False
        if isinstance(v, _IMMUTABLE_LEAVES):
            continue
        if isinstance(v, (tuple, frozenset)):
            stack.extend(v)
            continue
        if dataclasses.is_dataclass(v) and not isinstance(v, type):
            params = getattr(type(v), "__dataclass_params__", None)
            if params is None or not params.frozen:
                return False
            for field in dataclasses.fields(v):
                stack.append(getattr(v, field.name))
            continue
        return False
    return True


def cached_digest(
    obj: Any, compute: Optional[Callable[[Any], str]] = None
) -> str:
    """Identity-memoized digest of ``obj``.

    Args:
        obj: The value to digest. Cache hits require the *same object*
            (``is``-identity); equal-but-distinct objects recompute and
            agree with :func:`stable_digest` by construction.
        compute: Digest function applied on a miss; defaults to
            :func:`stable_digest` of ``obj`` itself. Record classes pass
            a function digesting their identity tuple so the cached
            value is byte-for-byte the historical formula.

    Mutable values (anything failing the deep-immutability check) are
    never cached — they take the compute path every time, so the memo
    needs no invalidation hooks. With the default ``compute`` the
    verdict comes from the canonical walk itself; only a tree holding
    dataclasses or subclasses is walked a second time.
    """
    if not caches_enabled():
        return (compute or stable_digest)(obj)
    hit = _DIGEST_CACHE.lookup(obj)
    if hit is not None:
        return hit
    if compute is None:
        out: List[bytes] = []
        immutable = _canonical_into(obj, out)
        digest = hashlib.sha256(b"".join(out)).hexdigest()
        if immutable is None:
            immutable = _deeply_immutable(obj)
    else:
        digest = compute(obj)
        immutable = _deeply_immutable(obj)
    if immutable:
        _DIGEST_CACHE.store(obj, digest)
    return digest


def clear_digest_cache() -> None:
    """Drop every memoized digest (used when caches are disabled)."""
    _DIGEST_CACHE.clear()


def digest_cache_stats() -> dict:
    """Hit/miss/size counters for the shared digest memo."""
    return {
        "hits": _DIGEST_CACHE.hits,
        "misses": _DIGEST_CACHE.misses,
        "size": len(_DIGEST_CACHE),
    }
