"""Best-path selection: pinned answers and the read cost of one miss.

The golden digest covers every intent of a seeded pool over all 21
destinations, built the way the best-path benchmark builds its pool:
per destination and metric, no exclusion, up to two avoidable countries
and one avoidable operator.  It was computed before the selection miss
path was reworked and must stay byte-identical.
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Tuple
from unittest import mock

import numpy as np
import pytest

from repro.docdb.client import DocDBClient
from repro.docdb.collection import Collection
from repro.errors import NoPathError
from repro.scion.snet import ScionHost
from repro.selection.engine import PathSelector
from repro.selection.request import Metric, UserRequest
from repro.suite.cli import seed_servers
from repro.suite.collect import PathsCollector
from repro.suite.config import (
    PATHS_COLLECTION,
    SERVERS_COLLECTION,
    STATS_COLLECTION,
    SuiteConfig,
)
from repro.suite.runner import TestRunner
from repro.topology.isd_as import ISDAS
from repro.upin.controller import PathController

METRICS = (Metric.LATENCY, Metric.JITTER, Metric.BANDWIDTH_DOWN, Metric.LOSS)

WORLD_SEED = 5
POOL_SEED = 5

#: sha256 over ``select()`` for every intent of the pool (see
#: :func:`selection_digest`), pinned before the miss path was reworked.
SELECTION_GOLDEN_SHA256 = (
    "3241efc499e154e87da302b0cdb4d458b6875d22d0267b3b9838535e34c25fcb"
)


def _traversed(topology, path_doc: Dict[str, Any]) -> Tuple[frozenset, frozenset]:
    ases = [topology.as_of(ia) for ia in path_doc["ases"]]
    return (
        frozenset(a.country.upper() for a in ases),
        frozenset(a.operator for a in ases),
    )


def _avoidable(sets: List[frozenset]) -> List[str]:
    """What some but not all of the paths cross."""
    return sorted(frozenset().union(*sets) - frozenset.intersection(*sets))


def intent_pool(db, topology, rng: np.random.Generator) -> List[UserRequest]:
    """Every destination x metric, with no exclusion, one of up to two
    countries or one operator (all drawn among avoidable ones)."""
    pool: List[UserRequest] = []
    for server in db[SERVERS_COLLECTION].find(sort=[("_id", 1)]):
        sid = int(server["_id"])
        docs = db[PATHS_COLLECTION].find({"server_id": sid})
        if not docs:
            continue
        crossed = [_traversed(topology, d) for d in docs]
        countries = _avoidable([c for c, _ in crossed])
        operators = _avoidable([o for _, o in crossed])
        exclusions: List[Dict[str, List[str]]] = [{}]
        exclusions += [
            {"exclude_countries": [str(c)]} for c in rng.permutation(countries)[:2]
        ]
        exclusions += [
            {"exclude_operators": [str(o)]} for o in rng.permutation(operators)[:1]
        ]
        for metric in METRICS:
            for excl in exclusions:
                pool.append(UserRequest.make(sid, metric, **excl))
    return pool


def selection_digest(selector: PathSelector, pool: List[UserRequest]) -> str:
    """sha256 over every ranked answer and exclusion reason of ``pool``."""
    h = hashlib.sha256()
    for request in pool:
        try:
            result = selector.select(request)
        except NoPathError as exc:
            h.update(f"nopath|{exc}\n".encode())
            continue
        for ranked in result.ranked:
            agg = ranked.aggregate
            h.update(
                "|".join(
                    (
                        agg.path_id,
                        repr(ranked.score),
                        ranked.explanation,
                        ranked.sequence,
                        ranked.hops_display,
                        repr(agg.latency_stddev_ms),
                    )
                ).encode()
                + b"\n"
            )
        for path_id in sorted(result.excluded):
            h.update(f"x|{path_id}|{sorted(result.excluded[path_id])}\n".encode())
        h.update(b"--\n")
    return h.hexdigest()


@pytest.fixture(scope="module")
def world():
    host = ScionHost.scionlab(seed=WORLD_SEED)
    db = DocDBClient()["upin"]
    seed_servers(db)
    # Two samples per path: index hits come back in set order, which
    # varies with PYTHONHASHSEED, and only two-term float sums are
    # order-independent, so the digest holds in every process.
    config = SuiteConfig(iterations=2)
    PathsCollector(host, db, config).collect()
    TestRunner(host, db, config).run()
    pool = intent_pool(db, host.topology, np.random.default_rng(POOL_SEED))
    return host, db, pool


#: Where each docdb read is counted: the shared implementations that the
#: public ``find``/``aggregate`` and the selection engine's uncopied
#: internal reads both go through, plus ``find_one``.
READ_HOOKS = {"_find": "find", "find_one": "find_one", "_aggregate": "aggregate"}


@contextmanager
def counted_reads() -> Iterator[List[Tuple[str, str]]]:
    """Record ``(read, collection name)`` for every docdb read call,
    nested ones included."""
    calls: List[Tuple[str, str]] = []

    def wrap(name, fn):
        def counted(self, *args, **kwargs):
            calls.append((name, self.name))
            return fn(self, *args, **kwargs)

        return counted

    with mock.patch.multiple(
        Collection,
        **{
            attr: wrap(name, getattr(Collection, attr))
            for attr, name in READ_HOOKS.items()
        },
    ):
        yield calls


class TestSelectionGolden:
    def test_pool_covers_every_destination(self, world):
        _, db, pool = world
        assert {r.server_id for r in pool} == {
            int(s["_id"]) for s in db[SERVERS_COLLECTION].find()
        }
        assert len({r.server_id for r in pool}) == 21

    def test_answers_match_pinned_digest(self, world):
        host, db, pool = world
        selector = PathSelector(db, host.topology)
        assert selection_digest(selector, pool) == SELECTION_GOLDEN_SHA256


class TestSelectionMissReads:
    def test_one_miss_is_one_aggregate_and_one_paths_read(self, world):
        host, db, pool = world
        selector = PathSelector(db, host.topology)
        request = pool[0]
        # Cold query caches: the miss cannot be served from any of them.
        for name in (STATS_COLLECTION, PATHS_COLLECTION):
            db[name].cache.clear()
        with counted_reads() as calls:
            result = selector.select(request)
        assert result.best is not None
        assert calls.count(("aggregate", STATS_COLLECTION)) == 1
        assert calls.count(("find", PATHS_COLLECTION)) == 1
        assert [c for c in calls if c[0] == "find_one"] == []
        assert len(calls) == 2

    def test_apply_intent_memo_hit_makes_no_reads(self, world):
        host, db, pool = world
        controller = PathController(host, PathSelector(db, host.topology))
        request = pool[0]
        first = controller.apply_intent("alice", request)
        with counted_reads() as calls:
            again = controller.apply_intent("alice", request)
        assert calls == []
        assert controller.selection_cache_info()["hits"] == 1
        assert again.selection is first.selection
        assert (again.server_address, again.path) == (first.server_address, first.path)


@contextmanager
def server_changed(db, server_id: int, **fields: Any) -> Iterator[Dict[str, Any]]:
    """``$set`` fields of one server document, restored on exit."""
    servers = db[SERVERS_COLLECTION]
    before = servers.find_one({"_id": server_id})
    servers.update_one({"_id": server_id}, {"$set": fields})
    try:
        yield before
    finally:
        servers.replace_one({"_id": server_id}, before)


class TestServerChangeInvalidatesMemo:
    """The memo entry carries the resolved server, so a write to the
    ``servers`` collection must reach the next ``apply_intent``."""

    def test_new_address_reaches_the_next_rule(self, world):
        host, db, pool = world
        controller = PathController(host, PathSelector(db, host.topology))
        request = pool[0]
        old = controller.apply_intent("alice", request)
        with server_changed(db, request.server_id, address="10.99.0.1"):
            new = controller.apply_intent("alice", request)
        assert old.server_address != "10.99.0.1"
        assert new.server_address == "10.99.0.1"
        assert controller.selection_cache_info()["misses"] == 2

    def test_new_isd_as_reaches_the_path_lookup(self, world):
        host, db, pool = world
        controller = PathController(host, PathSelector(db, host.topology))
        request = pool[0]
        controller.apply_intent("alice", request)
        other = next(
            s["isd_as"]
            for s in db[SERVERS_COLLECTION].find(sort=[("_id", 1)])
            if s["_id"] != request.server_id
        )
        daemon = host.daemon
        with mock.patch.object(
            daemon, "path_by_sequence", wraps=daemon.path_by_sequence
        ) as spy, server_changed(db, request.server_id, isd_as=other):
            try:
                controller.apply_intent("alice", request)
            except NoPathError:
                pass  # the old sequence need not lead to the new AS
        assert str(spy.call_args.args[0]) == str(ISDAS.parse(other))
