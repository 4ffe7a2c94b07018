"""Canonical, cross-version-stable keys for ordering and hashing.

Several layers need a deterministic total order (or a deterministic
serialisation) over heterogeneous values:

* :meth:`repro.sim.runner.ExecutionResult.brief` sorts the distinct
  decided values of an execution;
* the campaign engine's content-hash cache keys
  (:attr:`repro.experiments.campaign.CampaignUnit.unit_id`) must not
  drift between runs, machines, or Python versions.

``sorted(values, key=repr)`` is *not* that: ``repr`` of sets and
frozensets follows hash-table iteration order (randomised per process
for strings), and ``repr`` formatting of builtins has changed across
Python releases.  This module provides the one canonicalisation both
layers share:

* :func:`canonical_key` -- a type-tagged, recursively canonical string;
  container contents are themselves canonicalised and unordered
  containers are sorted by their elements' canonical keys, so equal
  values always map to equal keys and the induced order is stable.
* :func:`canonical_json` -- compact JSON with sorted object keys and a
  :func:`canonical_key` fallback for non-JSON values; byte-stable input
  for content hashes.
"""

from __future__ import annotations

import json
import zlib
from typing import Any, Mapping

__all__ = [
    "canonical_key",
    "canonical_json",
    "canonical_state_key",
    "stable_seed",
]


def canonical_key(value: Any) -> str:
    """A deterministic, type-tagged string key for ``value``.

    Equal values produce equal keys; distinct primitive types are kept
    apart by an explicit tag (so ``1``, ``True`` and ``"1"`` never
    collide the way ad-hoc ``repr`` schemes can).  Sets, frozensets and
    mappings are serialised in the order of their elements' canonical
    keys -- never in hash-table iteration order.

    Free-form text (string contents, fallback reprs) is JSON-quoted, so
    a child key can never forge the structural separators (``,``, ``=``,
    brackets) and structurally distinct values cannot collide.

    Args:
        value: Any value; containers are handled recursively, unknown
            objects fall back to ``obj:type-name:quoted-repr``.

    Returns:
        The canonical key string.
    """
    if value is None:
        return "null"
    if isinstance(value, bool):  # before int: bool is an int subclass
        return f"bool:{value}"
    if isinstance(value, int):
        return f"int:{value}"
    if isinstance(value, float):
        return f"float:{value!r}"
    if isinstance(value, str):
        return f"str:{json.dumps(value)}"
    if isinstance(value, bytes):
        return f"bytes:{value.hex()}"
    if isinstance(value, (tuple, list)):
        return "seq:[" + ",".join(canonical_key(v) for v in value) + "]"
    if isinstance(value, (set, frozenset)):
        return "set:{" + ",".join(sorted(canonical_key(v) for v in value)) + "}"
    if isinstance(value, Mapping):
        items = sorted(
            (canonical_key(k), canonical_key(v)) for k, v in value.items()
        )
        return "map:{" + ",".join(f"{k}={v}" for k, v in items) + "}"
    return f"obj:{type(value).__name__}:{json.dumps(repr(value))}"


#: ``object.__getstate__`` (Python 3.11+), or ``None`` before it existed.
_OBJECT_GETSTATE = getattr(object, "__getstate__", None)


def canonical_state_key(value: Any, _seen: frozenset[int] = frozenset()) -> str:
    """A :func:`canonical_key` that recurses into plain objects.

    :func:`canonical_key` degrades unknown objects to ``repr``, which
    embeds memory addresses for anything without a custom ``__repr__``
    -- useless as an equivalence key across deep copies.  The strategy
    explorer needs exactly that equivalence: two process objects that
    went through different Byzantine histories but ended in the *same
    state* must produce the *same* digest, or its transposition table
    never collapses anything.

    This variant therefore serialises objects structurally: instance
    attributes from ``__dict__`` and ``__slots__`` (including inherited
    slots), tagged with the type name and sorted by attribute name.
    A class that overrides ``__getstate__`` with a dict-valued state
    (the state copies and pickles carry) is digested by that state
    instead, so attributes that only cache work stay out of the key.
    Mapping/set contents are canonically sorted exactly as in
    :func:`canonical_key`.  Cycles degrade to a ``cycle`` marker rather
    than recursing forever.

    Args:
        value: Any value; objects are decomposed recursively.
        _seen: Internal cycle guard (ids on the current recursion path).

    Returns:
        The canonical state-key string.
    """
    if value is None:
        return "null"
    if isinstance(value, bool):
        return f"bool:{value}"
    if isinstance(value, int):
        return f"int:{value}"
    if isinstance(value, float):
        return f"float:{value!r}"
    if isinstance(value, str):
        return f"str:{json.dumps(value)}"
    if isinstance(value, bytes):
        return f"bytes:{value.hex()}"
    if id(value) in _seen:
        return "cycle"
    seen = _seen | {id(value)}
    if isinstance(value, (tuple, list)):
        return "seq:[" + ",".join(canonical_state_key(v, seen) for v in value) + "]"
    if isinstance(value, (set, frozenset)):
        return (
            "set:{"
            + ",".join(sorted(canonical_state_key(v, seen) for v in value))
            + "}"
        )
    if isinstance(value, Mapping):
        items = sorted(
            (canonical_state_key(k, seen), canonical_state_key(v, seen))
            for k, v in value.items()
        )
        return "map:{" + ",".join(f"{k}={v}" for k, v in items) + "}"
    attrs: dict[str, Any] = {}
    for klass in reversed(type(value).__mro__):
        for slot in getattr(klass, "__slots__", ()):
            if hasattr(value, slot):
                attrs[slot] = getattr(value, slot)
    attrs.update(getattr(value, "__dict__", {}))
    getstate = getattr(type(value), "__getstate__", _OBJECT_GETSTATE)
    if getstate is not _OBJECT_GETSTATE:
        state = value.__getstate__()
        if isinstance(state, dict):
            attrs = dict(state)
    # Dunder entries (e.g. an enum member's __objclass__) point back at
    # class-level machinery whose digest would be address-dependent
    # noise; instance state never lives under dunder names.
    attrs = {k: v for k, v in attrs.items() if not k.startswith("__")}
    if attrs:
        body = ",".join(
            f"{json.dumps(name)}={canonical_state_key(attr, seen)}"
            for name, attr in sorted(attrs.items())
        )
        return f"obj:{type(value).__name__}:{{{body}}}"
    return f"obj:{type(value).__name__}:{json.dumps(repr(value))}"


def stable_seed(value: Any) -> int:
    """A cross-run-stable 32-bit RNG seed derived from ``value``.

    The seeded simulation layers (per-link drop decisions in
    :class:`repro.sim.partial.RandomDrops`, per-message delays in
    :mod:`repro.sim.delay`) need one independent, deterministic RNG per
    ``(seed, round/tick, sender, recipient)`` key.  Python's builtin
    ``hash`` is *not* that: string hashing is salted per interpreter run
    (``PYTHONHASHSEED``), so a key containing any string -- or any value
    whose hash delegates to one -- yields different "deterministic"
    behaviour between runs.  This helper digests a deterministic
    encoding of the value with CRC-32 instead -- a direct tag+length
    encoding for flat int/str tuples (the hot-path shape), the
    :func:`canonical_key` for everything else -- which is bit-stable
    across runs, machines and Python versions.

    Args:
        value: Any :func:`canonical_key`-able value (tuples of the key
            components, typically).

    Returns:
        An unsigned 32-bit seed.
    """
    if type(value) is tuple and all(type(v) in (int, str) for v in value):
        # Hot path: the seeded simulation layers call this once per
        # network edge per round, always with a flat tuple of small
        # ints (plus the occasional phase-marker string).  A direct
        # unambiguous encoding (type tag + length-prefixed text) skips
        # the general JSON canonicalisation, which is ~30x slower.
        key = "|".join(
            f"i:{v}" if type(v) is int else f"s{len(v)}:{v}" for v in value
        )
    else:
        key = canonical_key(value)
    return zlib.crc32(key.encode("utf-8"))


def canonical_json(value: Any) -> str:
    """Compact, byte-stable JSON serialisation of ``value``.

    Object keys are sorted and separators carry no whitespace, so the
    output is suitable as content-hash input.  Values JSON cannot
    express are replaced by their :func:`canonical_key`.

    Args:
        value: A JSON-compatible value (other objects degrade to their
            canonical key string).

    Returns:
        The JSON document as a string.
    """
    return json.dumps(
        value, sort_keys=True, separators=(",", ":"), default=canonical_key
    )
