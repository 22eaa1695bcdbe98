"""A subset of the Mongo aggregation pipeline.

Stages: ``$match``, ``$project``, ``$group``, ``$sort``, ``$limit``,
``$skip``, ``$unwind``, ``$count``, ``$addFields``, ``$lookup`` (left
outer equality join).  Group accumulators: ``$sum``, ``$avg``,
``$min``, ``$max``, ``$stdDevPop``, ``$push``, ``$addToSet``,
``$first``, ``$last``.  Expressions are field references
(``"$field.path"``) or constants — enough for the analysis queries of
the reproduction (e.g. average latency per ISD set, Fig 6) and the
selection engine's per-path summaries.
"""

from __future__ import annotations

import copy
from numbers import Number
from typing import Any, Dict, List, Tuple

import numpy as np

from repro.docdb.document import get_path
from repro.docdb.query import matches
from repro.errors import QueryError

_ACCUMULATORS = frozenset(
    {
        "$sum", "$avg", "$min", "$max", "$stdDevPop",
        "$push", "$addToSet", "$first", "$last",
    }
)

#: Exact types an accumulator counts as numeric without the slower
#: ``numbers.Number`` check (bool, an int subclass, is not one of them).
_PLAIN_NUMBERS = frozenset({int, float})

#: Stages the pipeline executor implements (kept in sync with
#: ``run_pipeline``'s dispatch; docs/DATABASE.md documents each one).
SUPPORTED_STAGES = frozenset(
    {
        "$match", "$project", "$group", "$sort", "$limit", "$skip",
        "$unwind", "$count", "$addFields", "$lookup",
    }
)


def split_leading_match(
    pipeline: List[Dict[str, Any]]
) -> Tuple[Dict[str, Any], List[Dict[str, Any]]]:
    """Split a pipeline into (leading ``$match`` filter, remaining stages).

    The filter is what :meth:`~repro.docdb.collection.Collection.
    aggregate` pushes down into the query planner so a leading match can
    ride an index instead of forcing a full collection scan.  Returns an
    empty filter when the pipeline does not start with ``$match``.
    """
    if (
        pipeline
        and isinstance(pipeline[0], dict)
        and len(pipeline[0]) == 1
        and "$match" in pipeline[0]
        and isinstance(pipeline[0]["$match"], dict)
    ):
        return pipeline[0]["$match"], list(pipeline[1:])
    return {}, list(pipeline)


def run_pipeline(
    docs: List[Dict[str, Any]], pipeline: List[Dict[str, Any]]
) -> List[Dict[str, Any]]:
    """Run ``pipeline`` over ``docs`` and return the resulting documents.

    No stage modifies its input documents (stages that rewrite a
    document work on a copy), so ``docs`` may be the stored documents
    themselves.  The output may share values with them; callers that
    hand it out copy it.
    """
    current = docs
    for stage in pipeline:
        if not isinstance(stage, dict) or len(stage) != 1:
            raise QueryError(f"each pipeline stage must have exactly one key: {stage}")
        op, spec = next(iter(stage.items()))
        if op == "$match":
            current = [d for d in current if matches(d, spec)]
        elif op == "$project":
            current = [_project_stage(d, spec) for d in current]
        elif op == "$group":
            current = _group_stage(current, spec)
        elif op == "$sort":
            current = _sort_stage(current, spec)
        elif op == "$limit":
            current = current[: int(spec)]
        elif op == "$skip":
            current = current[int(spec):]
        elif op == "$unwind":
            current = _unwind_stage(current, spec)
        elif op == "$count":
            current = [{str(spec): len(current)}]
        elif op == "$addFields":
            current = [_add_fields(d, spec) for d in current]
        elif op == "$lookup":
            current = _lookup_stage(current, spec)
        else:
            raise QueryError(f"unsupported pipeline stage: {op}")
    return current


def evaluate(doc: Dict[str, Any], expr: Any) -> Any:
    """Evaluate an expression against a document."""
    if isinstance(expr, str) and expr.startswith("$"):
        path = expr[1:]
        if path and "." not in path and isinstance(doc, dict):
            # A top-level field: exactly what ``get_path`` resolves,
            # without building its generator chain per document.
            return doc.get(path)
        found, value = get_path(doc, path)
        return value if found else None
    if isinstance(expr, dict):
        return {k: evaluate(doc, v) for k, v in expr.items()}
    if isinstance(expr, list):
        return [evaluate(doc, e) for e in expr]
    return expr


def _project_stage(doc: Dict[str, Any], spec: Dict[str, Any]) -> Dict[str, Any]:
    out: Dict[str, Any] = {}
    keep_id = spec.get("_id", 1)
    for key, expr in spec.items():
        if key == "_id":
            continue
        if expr in (1, True):
            found, value = get_path(doc, key)
            if found:
                out[key] = copy.deepcopy(value)
        elif expr in (0, False):
            continue
        else:
            out[key] = evaluate(doc, expr)
    if keep_id in (1, True) and "_id" in doc:
        out["_id"] = doc["_id"]
    return out


def _group_stage(
    docs: List[Dict[str, Any]], spec: Dict[str, Any]
) -> List[Dict[str, Any]]:
    if "_id" not in spec:
        raise QueryError("$group requires an _id expression")
    key_expr = spec["_id"]
    groups: Dict[str, Tuple[Any, List[Dict[str, Any]]]] = {}
    for doc in docs:
        key_value = evaluate(doc, key_expr)
        bucket = groups.setdefault(repr(key_value), (key_value, []))
        bucket[1].append(doc)

    out: List[Dict[str, Any]] = []
    for key_value, members in groups.values():
        result: Dict[str, Any] = {"_id": key_value}
        for field_name, acc_spec in spec.items():
            if field_name == "_id":
                continue
            if not isinstance(acc_spec, dict) or len(acc_spec) != 1:
                raise QueryError(f"bad accumulator for {field_name!r}: {acc_spec}")
            acc, expr = next(iter(acc_spec.items()))
            if acc not in _ACCUMULATORS:
                raise QueryError(f"unsupported accumulator: {acc}")
            result[field_name] = _accumulate(acc, expr, members)
        out.append(result)
    return out


def _accumulate(acc: str, expr: Any, members: List[Dict[str, Any]]) -> Any:
    path = expr[1:] if isinstance(expr, str) and expr.startswith("$") else ""
    if path and "." not in path:
        # evaluate()'s top-level field read, hoisted out of the loop.
        values = [
            d.get(path) if type(d) is dict else evaluate(d, expr) for d in members
        ]
    else:
        values = [evaluate(d, expr) for d in members]
    if acc == "$push":
        return values
    if acc == "$addToSet":
        out: List[Any] = []
        for v in values:
            if v not in out:
                out.append(v)
        return out
    if acc == "$first":
        return values[0] if values else None
    if acc == "$last":
        return values[-1] if values else None
    numeric = [
        v
        for v in values
        if type(v) in _PLAIN_NUMBERS
        or (isinstance(v, Number) and not isinstance(v, bool))
    ]
    if acc == "$sum":
        return sum(numeric) if numeric else 0
    if acc == "$avg":
        return sum(numeric) / len(numeric) if numeric else None
    if acc == "$min":
        return min(numeric) if numeric else None
    if acc == "$max":
        return max(numeric) if numeric else None
    if acc == "$stdDevPop":
        return float(np.std(numeric)) if numeric else None
    raise QueryError(f"unhandled accumulator: {acc}")  # pragma: no cover


def _sort_stage(
    docs: List[Dict[str, Any]], spec: Dict[str, int]
) -> List[Dict[str, Any]]:
    from repro.docdb.collection import _sorted_docs

    return _sorted_docs(docs, list(spec.items()))


def _unwind_stage(docs: List[Dict[str, Any]], spec: Any) -> List[Dict[str, Any]]:
    path = spec if isinstance(spec, str) else spec.get("path", "")
    if not path.startswith("$"):
        raise QueryError("$unwind path must start with '$'")
    field_path = path[1:]
    out: List[Dict[str, Any]] = []
    for doc in docs:
        found, value = get_path(doc, field_path)
        if not found or value is None:
            continue
        if not isinstance(value, list):
            out.append(doc)
            continue
        for element in value:
            clone = copy.deepcopy(doc)
            from repro.docdb.document import set_path

            set_path(clone, field_path, element)
            out.append(clone)
    return out


def _add_fields(doc: Dict[str, Any], spec: Dict[str, Any]) -> Dict[str, Any]:
    """$addFields: evaluate expressions and merge them into the document."""
    out = copy.deepcopy(doc)
    from repro.docdb.document import set_path

    for path, expr in spec.items():
        set_path(out, path, evaluate(doc, expr))
    return out


def _lookup_stage(
    docs: List[Dict[str, Any]], spec: Dict[str, Any]
) -> List[Dict[str, Any]]:
    """$lookup: left outer equality join against another collection.

    ``from`` may be a :class:`~repro.docdb.collection.Collection` object
    or a plain list of documents; ``localField``/``foreignField`` use
    dotted paths; matches land as an array under ``as``.
    """
    for key in ("from", "localField", "foreignField", "as"):
        if key not in spec:
            raise QueryError(f"$lookup requires {key!r}")
    source = spec["from"]
    foreign_docs = source.find() if hasattr(source, "find") else list(source)
    local_field = str(spec["localField"])
    foreign_field = str(spec["foreignField"])
    target = str(spec["as"])

    # Index the foreign side once (hashable keys only).
    by_key: Dict[Any, List[Dict[str, Any]]] = {}
    for fdoc in foreign_docs:
        found, value = get_path(fdoc, foreign_field)
        key = repr(value) if found else repr(None)
        by_key.setdefault(key, []).append(fdoc)

    out: List[Dict[str, Any]] = []
    for doc in docs:
        found, value = get_path(doc, local_field)
        key = repr(value) if found else repr(None)
        joined = copy.deepcopy(doc)
        from repro.docdb.document import set_path

        set_path(joined, target, copy.deepcopy(by_key.get(key, [])))
        out.append(joined)
    return out
