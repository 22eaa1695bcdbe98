#!/usr/bin/env python
"""CI gate on the docdb reads of one best-path selection miss.

Builds a seeded SCIONLab world (volatile client, one measurement
iteration over every destination), then, for every destination and
metric, clears the docdb query caches and counts the docdb reads of one
``PathController.cached_select`` miss (no timing):

* ``paths_stats`` aggregations must be exactly 1;
* ``paths`` reads must be exactly 1 (the candidates' path documents);
* ``find_one`` calls must be 0 (ranking reuses those documents);
* ``Collection.find`` calls made inside the aggregation must be 0 (its
  leading ``$match`` goes straight to the query planner).

It then applies the same intent twice: the first ``apply_intent``
resolves the destination server into the memo entry, and the second, a
pure memo hit, must make 0 docdb reads.

Counts, not seconds, so the gate is immune to machine speed.

Usage::

    PYTHONPATH=src python tools/check_selection_reads.py [--seed 5]
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from contextlib import contextmanager
from typing import Dict, Iterator, List, Tuple

from repro.docdb.client import DocDBClient
from repro.docdb.collection import Collection
from repro.scion.snet import ScionHost
from repro.selection.engine import PathSelector
from repro.selection.request import Metric, UserRequest
from repro.suite.cli import seed_servers
from repro.suite.collect import PathsCollector
from repro.suite.config import PATHS_COLLECTION, STATS_COLLECTION, SuiteConfig
from repro.suite.runner import TestRunner
from repro.upin.controller import PathController

METRICS = (Metric.LATENCY, Metric.JITTER, Metric.BANDWIDTH_DOWN, Metric.LOSS)
#: Read name per hooked ``Collection`` attribute.  ``_find`` and
#: ``_aggregate`` are the shared implementations behind the public
#: ``find``/``aggregate`` and the selection engine's uncopied reads, so
#: every read is counted once whichever entry point it came through.
READS = {"_find": "find", "find_one": "find_one", "_aggregate": "aggregate"}


@contextmanager
def counted_reads() -> Iterator[List[Tuple[str, str, bool]]]:
    """Record ``(read, collection, inside_aggregate)`` per docdb read."""
    calls: List[Tuple[str, str, bool]] = []
    originals = {attr: getattr(Collection, attr) for attr in READS}
    depth = [0]

    def wrap(name, fn):
        def counted(self, *args, **kwargs):
            calls.append((name, self.name, depth[0] > 0))
            depth[0] += name == "aggregate"
            try:
                return fn(self, *args, **kwargs)
            finally:
                depth[0] -= name == "aggregate"

        return counted

    for attr, fn in originals.items():
        setattr(Collection, attr, wrap(READS[attr], fn))
    try:
        yield calls
    finally:
        for attr, fn in originals.items():
            setattr(Collection, attr, fn)


def count_misses(seed: int) -> List[Dict[str, int]]:
    """Read counts of one selection miss, and of one ``apply_intent``
    memo hit, per destination and metric."""
    host = ScionHost.scionlab(seed=seed)
    db = DocDBClient()["upin"]
    seed_servers(db)
    config = SuiteConfig(iterations=1)
    PathsCollector(host, db, config).collect()
    TestRunner(host, db, config).run()
    server_ids = sorted(db[PATHS_COLLECTION].distinct("server_id"))
    out: List[Dict[str, int]] = []
    for sid in server_ids:
        for metric in METRICS:
            controller = PathController(host, PathSelector(db, host.topology))
            for name in (STATS_COLLECTION, PATHS_COLLECTION):
                db[name].cache.clear()
            request = UserRequest.make(sid, metric)
            with counted_reads() as calls:
                controller.cached_select(request)
            controller.apply_intent("gate", request)
            with counted_reads() as hit_calls:
                controller.apply_intent("gate", request)
            tally = Counter((m, c) for m, c, _ in calls)
            out.append(
                {
                    "server_id": sid,
                    "stats_aggregates": tally["aggregate", STATS_COLLECTION],
                    "paths_reads": tally["find", PATHS_COLLECTION]
                    + tally["find_one", PATHS_COLLECTION],
                    "find_one": sum(n for (m, _), n in tally.items() if m == "find_one"),
                    "find_inside_aggregate": sum(
                        1 for m, _, inner in calls if inner and m == "find"
                    ),
                    "reads": len(calls),
                    "misses": controller.selection_cache_misses,
                    "hit_reads": len(hit_calls),
                    "hits": controller.selection_cache_hits,
                }
            )
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=5)
    args = parser.parse_args()

    rows = count_misses(args.seed)
    want = {
        "stats_aggregates": 1,
        "paths_reads": 1,
        "find_one": 0,
        "find_inside_aggregate": 0,
        "reads": 2,
        "misses": 1,
        "hit_reads": 0,
        "hits": 2,
    }
    failures = []
    for row in rows:
        for key, expected in want.items():
            if row[key] != expected:
                failures.append(
                    f"server {row['server_id']}: {key}={row[key]} (want {expected})"
                )
    totals = {key: sum(row[key] for row in rows) for key in want}
    print(
        f"{len(rows)} selection misses: "
        + ", ".join(f"{k}={v}" for k, v in totals.items())
    )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print(
            "selection miss OK: one paths_stats aggregate, one paths read, "
            "no find_one, no find inside the aggregate; "
            "apply_intent memo hit OK: no docdb read"
        )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
