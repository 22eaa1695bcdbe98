"""The aggregation read path: ``$stdDevPop``, copy discipline, locking.

A leading ``$match`` is planned directly (no ``find()``), the remaining
stages run over the stored documents themselves, and only the output is
copied — so these tests pin that no caller can reach a stored document
or a cached result through what ``aggregate`` returns.
"""

from __future__ import annotations

import threading
from unittest import mock

import numpy as np
import pytest

from repro.docdb.client import DocDBClient
from repro.docdb.collection import Collection

LATS = [40.0, 50.0, None, 47.5, True, "n/a", 41.25, 3]


def _stats():
    c = Collection("stats")
    c.create_index("server_id")
    c.insert_many(
        [
            {"_id": f"1_{i}", "server_id": 1, "lat": lat, "hops": {"ases": ["a", "b"]}}
            for i, lat in enumerate(LATS)
        ]
        + [
            {"_id": "2_0", "server_id": 2, "lat": None},
            {"_id": "3_0", "server_id": 3, "lat": 9.5},
        ]
    )
    return c


def _std_by_server(coll):
    out = coll.aggregate(
        [{"$group": {"_id": "$server_id", "sd": {"$stdDevPop": "$lat"}}}]
    )
    return {g["_id"]: g["sd"] for g in out}


def _stored_lats(coll):
    """``lat`` of server 1's documents in the order a query yields them."""
    return [d["lat"] for d in coll.find({"server_id": 1})]


class TestStdDevPop:
    def test_equals_np_std_over_numeric_values_in_order(self):
        coll = _stats()
        out = coll.aggregate(
            [
                {"$match": {"server_id": 1}},
                {
                    "$group": {
                        "_id": None,
                        "lats": {"$push": "$lat"},
                        "sd": {"$stdDevPop": "$lat"},
                    }
                },
            ]
        )
        numeric = [
            v
            for v in out[0]["lats"]
            if isinstance(v, (int, float)) and not isinstance(v, bool)
        ]
        assert sorted(numeric) == [3, 40.0, 41.25, 47.5, 50.0]
        assert type(out[0]["sd"]) is float
        assert repr(out[0]["sd"]) == repr(float(np.std(numeric)))
        assert _std_by_server(coll)[1] == out[0]["sd"]

    def test_none_without_numeric_values(self):
        assert _std_by_server(_stats())[2] is None

    def test_single_value_is_zero(self):
        assert _std_by_server(_stats())[3] == 0.0


class TestAggregateCopies:
    PIPELINE = [
        {"$match": {"server_id": 1}},
        {
            "$group": {
                "_id": "$server_id",
                "lats": {"$push": "$lat"},
                "hops": {"$push": "$hops"},
                "first": {"$first": "$hops"},
            }
        },
    ]

    def test_mutating_output_touches_neither_store_nor_cache(self):
        coll = _stats()
        stored_before = coll.all_documents()
        out = coll.aggregate(self.PIPELINE)
        fresh = coll.aggregate(self.PIPELINE)  # served from the cache
        assert fresh == out
        out[0]["lats"].append(1.0)
        out[0]["hops"][0]["ases"].append("zz")
        out[0]["first"]["ases"].clear()
        fresh[0]["first"]["extra"] = True
        assert coll.all_documents() == stored_before
        hits = coll.stats["cache_hits"]
        again = coll.aggregate(self.PIPELINE)
        assert coll.stats["cache_hits"] == hits + 1
        assert again[0]["lats"] == _stored_lats(coll)
        assert again[0]["first"] == {"ases": ["a", "b"]}
        assert again[0]["hops"][0] == {"ases": ["a", "b"]}

    def test_uncacheable_output_is_a_copy_too(self):
        coll = _stats()
        pipeline = [
            {"$match": {"_id": "1_0"}},
            {
                "$lookup": {
                    "from": [], "localField": "_id", "foreignField": "x", "as": "j",
                }
            },
        ]
        out = coll.aggregate(pipeline)
        out[0]["hops"]["ases"].append("zz")
        assert coll.find_one({"_id": "1_0"})["hops"] == {"ases": ["a", "b"]}

    # A numpy scalar in the filter makes the pipeline uncacheable, so the
    # stored documents would reach the caller without the output copy.
    @pytest.mark.parametrize(
        "server_id", [1, np.int64(1)], ids=["cacheable", "uncacheable"]
    )
    def test_match_only_pipeline_returns_copies(self, server_id):
        coll = _stats()
        stored_before = coll.all_documents()
        out = coll.aggregate([{"$match": {"server_id": server_id}}])
        assert out == coll.find({"server_id": 1})
        for doc in out:
            doc["hops"]["ases"].append("zz")
            doc["lat"] = -1.0
        assert coll.all_documents() == stored_before
        assert coll.aggregate([{"$match": {"server_id": server_id}}]) == coll.find(
            {"server_id": 1}
        )

    def test_cache_miss_does_not_call_find(self):
        coll = _stats()
        with mock.patch.object(Collection, "find", side_effect=AssertionError):
            out = coll.aggregate(self.PIPELINE)
        assert coll.stats["cache_misses"] == 1
        assert out[0]["lats"] == _stored_lats(coll)


class TestLookupFromCollection:
    @pytest.fixture()
    def db(self):
        db = DocDBClient()["upin"]
        db["paths"].insert_many([{"_id": "p0"}, {"_id": "p1"}])
        db["paths_stats"].insert_many(
            [
                {"_id": "s0", "path_id": "p0", "lat": 1.0},
                {"_id": "s1", "path_id": "p0", "lat": 2.0},
            ]
        )
        return db

    def _join(self, db):
        """Samples joined onto each path, by path id."""
        out = db["paths"].aggregate(
            [
                {"$match": {"_id": {"$in": ["p0", "p1"]}}},
                {
                    "$lookup": {
                        "from": db["paths_stats"],
                        "localField": "_id",
                        "foreignField": "path_id",
                        "as": "samples",
                    }
                },
            ]
        )
        return {d["_id"]: d["samples"] for d in out}

    def test_join_still_works(self, db):
        out = self._join(db)
        assert {k: len(v) for k, v in out.items()} == {"p0": 2, "p1": 0}
        next(s for s in out["p0"] if s["_id"] == "s0")["lat"] = 99.0
        assert db["paths_stats"].find_one({"_id": "s0"})["lat"] == 1.0

    def test_local_lock_is_free_during_the_foreign_read(self, db):
        local = db["paths"]
        foreign = db["paths_stats"]
        real_find = Collection.find
        free = []

        def probing_find(self, *args, **kwargs):
            if self is foreign:
                # Another thread must be able to take the local lock now.
                got = []

                def grab():
                    ok = local._lock.acquire(timeout=5)
                    got.append(ok)
                    if ok:
                        local._lock.release()

                t = threading.Thread(target=grab)
                t.start()
                t.join(timeout=10)
                assert not t.is_alive()
                free.extend(got)
            return real_find(self, *args, **kwargs)

        with mock.patch.object(Collection, "find", probing_find):
            out = self._join(db)
        assert free == [True]
        assert {k: len(v) for k, v in out.items()} == {"p0": 2, "p1": 0}
