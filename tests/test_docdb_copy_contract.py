"""Copy discipline of the docdb: one copy on write, none on internal reads.

* Public reads (``find``, ``find_one``, ``aggregate``) hand the caller a
  copy it owns: scribbling over it changes neither the stored documents
  nor the query cache.
* The uncopied internal reads (``_find``, ``_aggregate``) that the
  selection engine uses return cached results themselves, under a
  no-mutation contract.  :func:`frozen_state_guard` checks the contract
  on whole workloads: every committed document and every cached value
  must still serialise the same at the end as when it was stored.
* ``normalize_document`` validates and copies in one walk; its output
  and errors equal the two-pass ``_check_value`` + ``json_deepcopy``.
* ``$group``'s top-level field read equals ``get_path``.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Tuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.docdb.aggregate import evaluate, run_pipeline
from repro.docdb.cache import QueryCache
from repro.docdb.client import DocDBClient
from repro.docdb.collection import Collection
from repro.docdb.document import (
    _check_value,
    get_path,
    json_deepcopy,
    normalize_document,
)
from repro.errors import NoPathError, ValidationError
from repro.monitor.scenario import run_outage_scenario
from repro.scion.snet import ScionHost
from repro.selection.engine import PathSelector
from repro.suite.cli import seed_servers
from repro.suite.collect import PathsCollector
from repro.suite.config import SuiteConfig
from repro.suite.runner import TestRunner
from repro.upin.controller import PathController
from tests.test_selection_reads import POOL_SEED, WORLD_SEED, intent_pool


def _dump(value: Any) -> str:
    return json.dumps(value, sort_keys=True, default=repr)


@contextmanager
def frozen_state_guard() -> Iterator[List[Tuple[Any, str, str]]]:
    """Fail if anything stored or cached inside the block is mutated later.

    Every document committed to a collection and every value put into a
    query cache is remembered with its serialisation at that moment; on
    exit each must still serialise the same.  Stored documents are
    replaced on update, never edited, so any difference is a reader
    that mutated what it was handed.
    """
    seen: List[Tuple[Any, str, str]] = []
    commit, replace, put = (
        Collection._commit_insert,
        Collection._replace_committed,
        QueryCache.put,
    )

    def guarded_commit(self, stored):
        commit(self, stored)
        seen.append((stored, _dump(stored), f"{self.name} document {stored['_id']!r}"))

    def guarded_replace(self, old, new):
        replace(self, old, new)
        seen.append((new, _dump(new), f"{self.name} document {new['_id']!r}"))

    def guarded_put(self, key, epoch, value):
        put(self, key, epoch, value)
        seen.append((value, _dump(value), f"cache entry {key!r}"))

    with mock.patch.multiple(
        Collection, _commit_insert=guarded_commit, _replace_committed=guarded_replace
    ), mock.patch.object(QueryCache, "put", guarded_put):
        yield seen
    changed = [label for value, before, label in seen if _dump(value) != before]
    assert changed == []


def _db_state(db) -> Dict[str, Tuple[List[str], Dict[str, str]]]:
    """Serialised stored documents and query-cache entries per collection."""
    return {
        name: (
            [_dump(d) for d in db[name]._docs.values()],
            {repr(k): _dump(v) for k, (_, _, v) in db[name].cache._entries.items()},
        )
        for name in db.list_collection_names()
    }


@pytest.fixture(scope="module")
def selection_world():
    """The seeded selection world and 200-intent pool of the golden test."""
    host = ScionHost.scionlab(seed=WORLD_SEED)
    db = DocDBClient()["upin"]
    seed_servers(db)
    config = SuiteConfig(iterations=2)
    PathsCollector(host, db, config).collect()
    TestRunner(host, db, config).run()
    pool = intent_pool(db, host.topology, np.random.default_rng(POOL_SEED))
    return host, db, pool


def _apply_pool(controller: PathController, pool) -> List[Any]:
    out: List[Any] = []
    for i, request in enumerate(pool):
        try:
            rule = controller.apply_intent(f"user-{i}", request)
        except NoPathError as exc:
            out.append(str(exc))
            continue
        out.append((rule.path_id, rule.server_address, rule.selection.format_text()))
    return out


class TestInternalReadsMutateNothing:
    def test_selection_pool_leaves_store_and_cache_unchanged(self, selection_world):
        host, db, pool = selection_world
        assert len(pool) == 200
        selector = PathSelector(db, host.topology)
        with frozen_state_guard() as seen:
            # Misses fill the query caches; the memo is then bypassed so
            # every intent re-reads through the shared cached results.
            first = _apply_pool(PathController(host, selector), pool)
            before = _db_state(db)
            second = _apply_pool(PathController(host, selector), pool)
        assert seen, "the pool put nothing into a query cache"
        assert _db_state(db) == before
        assert second == first

    def test_outage_scenario_mutates_nothing_it_shared(self):
        with frozen_state_guard() as seen:
            scenario = run_outage_scenario(extra_flows=200)
        assert len(scenario.path_history) > 1  # it failed over
        assert any(label.startswith("cache entry") for _, _, label in seen)


def _scribble(value: Any) -> None:
    """Mutate every container reachable from ``value``."""
    if isinstance(value, dict):
        for sub in list(value.values()):
            _scribble(sub)
        value["scribbled"] = True
    elif isinstance(value, list):
        for sub in list(value):
            _scribble(sub)
        value.append("scribbled")


PUBLIC_READS = {
    "find": lambda c: c.find({"server_id": 1}, sort=[("_id", 1)]),
    "find_projected": lambda c: c.find({"server_id": 1}, {"hops": 1}),
    "find_one": lambda c: c.find_one({"server_id": 1}),
    "aggregate": lambda c: c.aggregate(
        [
            {"$match": {"server_id": 1}},
            {
                "$group": {
                    "_id": "$server_id",
                    "hops": {"$push": "$hops"},
                    "first": {"$first": "$hops"},
                }
            },
        ]
    ),
    "aggregate_match_only": lambda c: c.aggregate([{"$match": {"server_id": 1}}]),
}


class TestPublicReadsAreCopies:
    @staticmethod
    def _collection() -> Collection:
        coll = Collection("stats")
        coll.create_index("server_id")
        coll.insert_many(
            [
                {
                    "_id": f"1_{i}",
                    "server_id": 1,
                    "hops": {"ases": ["a", "b"], "ifs": [[1, 2], [3, 4]]},
                    "tags": ["x", {"k": [i]}],
                }
                for i in range(3)
            ]
        )
        return coll

    @pytest.mark.parametrize("read", sorted(PUBLIC_READS))
    def test_mutating_a_result_changes_neither_store_nor_cache(self, read):
        coll = self._collection()
        query = PUBLIC_READS[read]
        stored = [_dump(d) for d in coll.all_documents()]
        first = query(coll)  # a miss: computed, then cached
        expected = _dump(first)
        cached = {repr(k): _dump(v) for k, (_, _, v) in coll.cache._entries.items()}
        assert cached
        _scribble(first)
        hits = coll.stats["cache_hits"]
        second = query(coll)  # a hit
        assert coll.stats["cache_hits"] == hits + 1
        assert _dump(second) == expected
        _scribble(second)
        assert [_dump(d) for d in coll.all_documents()] == stored
        assert {
            repr(k): _dump(v) for k, (_, _, v) in coll.cache._entries.items()
        } == cached
        assert _dump(query(coll)) == expected


# -- normalize_document: one walk, same outcome as two ------------------------


def _two_pass(doc: Dict[str, Any]) -> Any:
    """What ``normalize_document`` did before the fused walk."""
    _check_value(doc, depth=0)
    return json_deepcopy(doc)


def _outcome(fn, doc) -> Tuple[str, str]:
    try:
        return "ok", repr(fn(doc))
    except ValidationError as exc:
        return "error", str(exc)


def _container_ids(value: Any) -> set:
    if isinstance(value, dict):
        return {id(value)}.union(*(_container_ids(v) for v in value.values()))
    if isinstance(value, (list, tuple)) and value:
        return {id(value)}.union(*(_container_ids(v) for v in value))
    return set()


def _fused(doc):
    return normalize_document(doc, ensure_id=False)


class _Str(str):
    pass


class _List(list):
    pass


leaves = st.one_of(
    st.integers(),
    st.floats(),
    st.text(max_size=4),
    st.booleans(),
    st.none(),
    st.sampled_from([np.float64(1.5), _Str("s"), True]),
    # Unsupported values: rejected by both walks with one message.
    st.sampled_from([np.int64(3), b"raw", frozenset({1}), object]),
)
keys = st.one_of(
    st.text(max_size=4),
    st.text(max_size=4),
    st.sampled_from([1, None, ("t",), 2.5]),
)
values = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.lists(children, max_size=3).map(tuple),
        st.lists(children, max_size=3).map(_List),
        st.dictionaries(keys, children, max_size=3),
    ),
    max_leaves=12,
)
documents = st.dictionaries(keys, values, max_size=4)


def _nested(kinds: List[str], leaf: Any) -> Dict[str, Any]:
    """``{"v": ...}`` with ``leaf`` under one container per kind (so the
    leaf sits at depth ``len(kinds) + 1``)."""
    value = leaf
    for kind in reversed(kinds):
        value = {"k": value} if kind == "dict" else [value]
        if kind == "tuple":
            value = tuple(value)
    return {"v": value}


class TestFusedNormalize:
    @given(documents)
    def test_equals_check_then_copy(self, doc):
        assert _outcome(_fused, doc) == _outcome(_two_pass, doc)

    @given(documents)
    def test_output_shares_no_container_with_input(self, doc):
        try:
            out = _fused(doc)
        except ValidationError:
            return
        assert not _container_ids(out) & _container_ids(doc)

    @given(
        st.lists(st.sampled_from(["dict", "list", "tuple"]), min_size=60, max_size=67),
        st.sampled_from([1, "s", None, {}, [], (), {"x": 1}, [2], np.int64(1)]),
    )
    def test_depth_limit_equals_check_then_copy(self, kinds, leaf):
        doc = _nested(kinds, leaf)
        assert _outcome(_fused, doc) == _outcome(_two_pass, doc)

    @pytest.mark.parametrize("kind", ["dict", "list", "tuple"])
    def test_scalar_at_depth_64_passes_and_65_fails(self, kind):
        assert _fused(_nested([kind] * 63, 1.5)) == _two_pass(_nested([kind] * 63, 1.5))
        with pytest.raises(ValidationError, match="nesting too deep"):
            _fused(_nested([kind] * 64, 1.5))


# -- $group field access ----------------------------------------------------------

top_keys = st.one_of(
    st.sampled_from(["a", "lat", "0", "_id"]),
    st.text(min_size=1, max_size=5).filter(lambda k: "." not in k),
)
field_values = st.recursive(
    st.one_of(st.integers(), st.floats(), st.text(max_size=4), st.booleans(), st.none()),
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(st.sampled_from(["a", "b", "0"]), children, max_size=3),
    ),
    max_leaves=8,
)


class TestTopLevelFieldRead:
    @given(st.dictionaries(top_keys, field_values, max_size=5), top_keys)
    def test_equals_get_path(self, doc, key):
        found, value = get_path(doc, key)
        assert evaluate(doc, "$" + key) is (value if found else None)

    def test_dotted_paths_still_walk(self):
        doc = {"a": [{"b": 1}, {"b": 2}], "c": {"d": None}}
        assert evaluate(doc, "$a.b") == 1
        assert evaluate(doc, "$a.1.b") == 2
        assert evaluate(doc, "$c.d") is None
        assert evaluate(doc, "$c.e") is None
        assert evaluate(doc, "$") is doc

    @given(st.lists(st.dictionaries(top_keys, field_values, max_size=4), max_size=5), top_keys)
    def test_group_push_equals_get_path(self, docs, key):
        out = run_pipeline(docs, [{"$group": {"_id": None, "v": {"$push": "$" + key}}}])
        expected = []
        for doc in docs:
            found, value = get_path(doc, key)
            expected.append(value if found else None)
        pushed = out[0]["v"] if docs else []
        assert len(pushed) == len(expected)
        assert all(a is b for a, b in zip(pushed, expected))

    def test_group_dotted_fields_still_walk(self):
        docs = [{"h": {"a": 1}}, {"h": [{"a": 2}]}, {"h": {"b": 3}}, {"h.a": 4}]
        out = run_pipeline(
            docs, [{"$group": {"_id": None, "v": {"$push": "$h.a"}}}]
        )
        assert out[0]["v"] == [1, 2, None, None]

    def test_numeric_accumulators_skip_bools_and_non_numbers(self):
        docs = [
            {"v": v}
            for v in (1, True, 2.5, np.float64(1.5), None, "x", np.int64(2), [3])
        ]
        out = run_pipeline(
            docs,
            [{"$group": {"_id": None, "s": {"$sum": "$v"}, "n": {"$max": "$v"}}}],
        )
        assert out[0]["s"] == 7.0
        assert out[0]["n"] == 2.5


# -- updates validate before they commit -----------------------------------------


#: Updates whose resulting document is not JSON-shaped.
BAD_UPDATES = [
    {"$set": {"b": np.int64(3)}},
    {"$set": {"m": {1: 2}}},
    {"$push": {"arr": object()}},
    {"b": np.int64(3)},  # a replacement document
]


class TestUpdateValidation:
    """An update's resulting documents are validated (and copied, like an
    insert) before any of them is committed: a rejected update leaves
    memory, the query cache's view and the WAL exactly as they were."""

    @staticmethod
    def _seed(coll: Collection) -> None:
        coll.insert_many(
            [{"_id": i, "b": i, "m": {}, "arr": [], "grp": "x"} for i in range(3)]
        )

    @pytest.mark.parametrize("update", BAD_UPDATES)
    def test_durable_update_rejected_with_memory_and_wal_unchanged(
        self, tmp_path, update
    ):
        directory = str(tmp_path / "db")
        client = DocDBClient.open(directory)
        coll = client["upin"]["docs"]
        self._seed(coll)
        before = _dump(coll.find())
        lsn, epoch = client.wal.last_lsn, coll.epoch
        with pytest.raises(ValidationError):
            coll.update_one({"_id": 1}, update)
        assert _dump(coll.find()) == before
        assert client.wal.last_lsn == lsn
        assert coll.epoch == epoch
        client.close()
        reopened = DocDBClient.open(directory)
        try:
            assert _dump(reopened["upin"]["docs"].find()) == before
        finally:
            reopened.close()

    @pytest.mark.parametrize("update", BAD_UPDATES)
    def test_volatile_update_rejected(self, update):
        coll = DocDBClient()["upin"]["docs"]
        self._seed(coll)
        before = _dump(coll.find())
        with pytest.raises(ValidationError):
            coll.update_one({"_id": 1}, update)
        assert _dump(coll.find()) == before

    def test_update_many_is_all_or_nothing(self, tmp_path):
        client = DocDBClient.open(str(tmp_path / "db"))
        coll = client["upin"]["docs"]
        self._seed(coll)
        coll.create_index("b")
        before = _dump(coll.find())
        lsn = client.wal.last_lsn
        # Only the last matched document turns invalid; the first two
        # would be valid on their own, and none of the three may land.
        with pytest.raises(ValidationError):
            coll.update_many(
                {"grp": "x"},
                {"$set": {"b": 7}, "$push": {"arr": np.int64(1)}},
            )
        with pytest.raises(ValidationError):
            coll.update_many(
                {"grp": "x"}, {"$inc": {"b": 10}, "$set": {"m": {2: "x"}}}
            )
        assert _dump(coll.find()) == before
        assert coll.find({"b": 7}) == [] and coll.count_documents({"b": 1}) == 1
        assert client.wal.last_lsn == lsn
        client.close()

    def test_valid_update_stores_its_own_copy(self):
        coll = DocDBClient()["upin"]["docs"]
        self._seed(coll)
        payload = {"deep": [1, {"x": 2}]}
        coll.update_one({"_id": 0}, {"$set": {"p": payload}})
        payload["deep"][1]["x"] = 99
        assert coll.find_one({"_id": 0})["p"] == {"deep": [1, {"x": 2}]}
