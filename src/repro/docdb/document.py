"""Document primitives: ids, normalization, dotted-path access.

Documents are plain dicts restricted to JSON-compatible values; every
stored document carries an ``_id``.  The paper uses *compound string
ids* (``"2_15"`` for path 15 of destination 2, ``"2_15_<ts>"`` for one
measurement of it, §4.2.1), so ids here are any hashable scalar.
"""

from __future__ import annotations

import copy
import itertools
import secrets
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.errors import QueryError, ValidationError

_JSON_SCALARS = (str, int, float, bool, type(None))
#: Exact scalar types the fused insert walk stores without a call.
_SCALAR_TYPES = frozenset(_JSON_SCALARS)
#: Deepest nesting level a stored value may sit at (the document is 0).
_MAX_DEPTH = 64


def new_object_id() -> str:
    """A random 12-byte hex id, shaped like Mongo's ObjectId."""
    return secrets.token_hex(12)


def normalize_document(
    doc: Dict[str, Any], *, ensure_id: bool = True, deep_copy: bool = True
) -> Dict[str, Any]:
    """Deep-copy and validate a document; assign an ``_id`` if missing.

    The copy and the validation are one walk (:func:`_checked_copy`):
    every value is copied as it is checked, so an insert touches each
    value once.  ``deep_copy=False`` skips the defensive copy for
    callers that provably own the dict — the recovery loaders pass
    documents fresh out of ``json.loads`` (snapshot lines, WAL
    payloads), where copying them again roughly triples recovery time.
    Validation always runs, with the same errors either way.
    """
    if not isinstance(doc, dict):
        raise ValidationError(f"document must be a dict, got {type(doc).__name__}")
    if deep_copy:
        out = _checked_copy(doc, 0)
    else:
        _check_value(doc, depth=0)
        out = doc
    if ensure_id and "_id" not in out:
        out["_id"] = new_object_id()
    return out


def json_deepcopy(value: Any) -> Any:
    """Deep copy for JSON-shaped values, far cheaper than ``copy.deepcopy``.

    Validated documents only ever contain dicts with string keys, lists,
    tuples and immutable scalars (:func:`normalize_document` enforces
    this on the way in, and rejects cyclic structures via its depth
    limit), so the generic deepcopy machinery — memo dict, reductor
    dispatch — is pure overhead on the storage hot path.  Semantics match
    ``copy.deepcopy`` for that value domain: containers are rebuilt,
    immutable scalars returned as-is.
    """
    if isinstance(value, dict):
        return {k: json_deepcopy(v) for k, v in value.items()}
    if isinstance(value, list):
        return [json_deepcopy(v) for v in value]
    if isinstance(value, tuple):
        return tuple(json_deepcopy(v) for v in value)
    return value


def _check_value(value: Any, depth: int) -> None:
    if depth > _MAX_DEPTH:
        raise ValidationError("document nesting too deep")
    if isinstance(value, dict):
        for key, sub in value.items():
            if not isinstance(key, str):
                raise ValidationError(f"document keys must be strings: {key!r}")
            _check_value(sub, depth + 1)
    elif isinstance(value, (list, tuple)):
        for sub in value:
            _check_value(sub, depth + 1)
    elif not isinstance(value, _JSON_SCALARS):
        raise ValidationError(
            f"unsupported value type in document: {type(value).__name__}"
        )


def _checked_copy(value: Any, depth: int) -> Any:
    """:func:`_check_value` and :func:`json_deepcopy` in one walk.

    Raises exactly what ``_check_value`` raises, for the first bad value
    in the same depth-first order, and otherwise returns what
    ``json_deepcopy`` returns.  Exact builtin types are dispatched on
    ``type()`` and scalar members are stored without a call; subclasses
    (an ``OrderedDict``, a str-valued enum, a namedtuple) take the
    ``isinstance`` fallback, which copies them like ``json_deepcopy``.
    """
    if depth > _MAX_DEPTH:
        raise ValidationError("document nesting too deep")
    kind = type(value)
    if kind in _SCALAR_TYPES:
        return value
    # Members of a container at the depth limit sit one level too deep,
    # so only shallower containers may store scalar members inline.
    inline = depth < _MAX_DEPTH
    if kind is dict or isinstance(value, dict):
        out: Dict[str, Any] = {}
        for key, sub in value.items():
            if not isinstance(key, str):
                raise ValidationError(f"document keys must be strings: {key!r}")
            if inline and type(sub) in _SCALAR_TYPES:
                out[key] = sub
            else:
                out[key] = _checked_copy(sub, depth + 1)
        return out
    if isinstance(value, (list, tuple)):
        items = [
            sub if inline and type(sub) in _SCALAR_TYPES else _checked_copy(sub, depth + 1)
            for sub in value
        ]
        return items if isinstance(value, list) else tuple(items)
    if isinstance(value, _JSON_SCALARS):
        return value
    raise ValidationError(f"unsupported value type in document: {kind.__name__}")


# ---------------------------------------------------------------------------
# dotted-path resolution (Mongo semantics)
# ---------------------------------------------------------------------------


_MISSING = object()


def get_path(doc: Any, path: str) -> Tuple[bool, Any]:
    """Resolve ``"a.b.0.c"`` in ``doc``; returns (found, value).

    Follows Mongo rules: a numeric component indexes into arrays; a
    non-numeric component applied to an array maps over its elements
    (handled by callers via :func:`iter_path_values`).
    """
    values = list(iter_path_values(doc, path))
    if not values:
        return False, None
    return True, values[0]


def iter_path_values(doc: Any, path: str) -> Iterator[Any]:
    """Yield every value reachable at ``path`` (array fan-out included)."""
    parts = path.split(".") if path else []
    yield from _walk(doc, parts)


def _walk(value: Any, parts: List[str]) -> Iterator[Any]:
    if not parts:
        yield value
        return
    head, rest = parts[0], parts[1:]
    if isinstance(value, dict):
        if head in value:
            yield from _walk(value[head], rest)
    elif isinstance(value, list):
        if head.isdigit():
            idx = int(head)
            if 0 <= idx < len(value):
                yield from _walk(value[idx], rest)
        else:
            for element in value:
                if isinstance(element, dict) and head in element:
                    yield from _walk(element[head], rest)


def set_path(doc: Dict[str, Any], path: str, value: Any) -> None:
    """Set ``path`` in ``doc``, creating intermediate objects.

    Numeric components extend lists with ``None`` padding like Mongo.
    """
    parts = path.split(".")
    target: Any = doc
    for i, part in enumerate(parts[:-1]):
        nxt_is_index = parts[i + 1].isdigit()
        if isinstance(target, list):
            if not part.isdigit():
                raise QueryError(f"cannot index list with {part!r} in path {path!r}")
            idx = int(part)
            while len(target) <= idx:
                target.append(None)
            if not isinstance(target[idx], (dict, list)) or target[idx] is None:
                target[idx] = [] if nxt_is_index else {}
            target = target[idx]
        elif isinstance(target, dict):
            if part not in target or not isinstance(target[part], (dict, list)):
                target[part] = [] if nxt_is_index else {}
            target = target[part]
        else:
            raise QueryError(f"cannot descend into {type(target).__name__} at {part!r}")
    last = parts[-1]
    if isinstance(target, list):
        if not last.isdigit():
            raise QueryError(f"cannot index list with {last!r} in path {path!r}")
        idx = int(last)
        while len(target) <= idx:
            target.append(None)
        target[idx] = value
    elif isinstance(target, dict):
        target[last] = value
    else:
        raise QueryError(f"cannot set {path!r} inside {type(target).__name__}")


def unset_path(doc: Dict[str, Any], path: str) -> bool:
    """Remove ``path`` from ``doc``; returns True if something was removed."""
    parts = path.split(".")
    target: Any = doc
    for part in parts[:-1]:
        if isinstance(target, dict) and part in target:
            target = target[part]
        elif isinstance(target, list) and part.isdigit() and int(part) < len(target):
            target = target[int(part)]
        else:
            return False
    last = parts[-1]
    if isinstance(target, dict) and last in target:
        del target[last]
        return True
    if isinstance(target, list) and last.isdigit() and int(last) < len(target):
        # Mongo nulls out list slots rather than shifting.
        target[int(last)] = None
        return True
    return False
