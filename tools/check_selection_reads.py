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
READS = ("find", "find_one", "aggregate")


@contextmanager
def counted_reads() -> Iterator[List[Tuple[str, str, bool]]]:
    """Record ``(method, collection, inside_aggregate)`` per docdb read."""
    calls: List[Tuple[str, str, bool]] = []
    originals = {name: getattr(Collection, name) for name in READS}
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

    for name, fn in originals.items():
        setattr(Collection, name, wrap(name, fn))
    try:
        yield calls
    finally:
        for name, fn in originals.items():
            setattr(Collection, name, fn)


def count_misses(seed: int) -> List[Dict[str, int]]:
    """Read counts of one selection miss per destination and metric."""
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
            with counted_reads() as calls:
                controller.cached_select(UserRequest.make(sid, metric))
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
            "no find_one, no find inside the aggregate"
        )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
