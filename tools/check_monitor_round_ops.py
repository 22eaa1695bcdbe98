#!/usr/bin/env python
"""CI gate on the operation counts of one batched monitor pass.

Builds a durable SCIONLab world, installs ``--flows`` monitored flows
over the paper's five study destinations (one per destination/metric
pair, round robin), runs one measurement round so every pinned path
has fresh ``paths_stats`` samples, then counts the operations of one
``FlowMonitor.after_round`` (no timing):

* batch-engine echo calls (``NetCounters.batch_series``) must equal the
  number of distinct pinned paths among the probed flows;
* ``flow_events`` WAL records must be exactly 1;
* ``paths_stats`` queries must be exactly 1 (the grouped ``$in`` one).

Counts, not seconds, so the gate is immune to machine speed.

Usage::

    PYTHONPATH=src python tools/check_monitor_round_ops.py [--flows 1000]
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from typing import Any, Dict, List

from repro.docdb.client import DocDBClient
from repro.monitor.health import FlowHealth
from repro.monitor.journal import FLOW_EVENTS_COLLECTION
from repro.monitor.loop import FlowMonitor
from repro.scion.snet import ScionHost
from repro.scionlab.defaults import study_destination_ids
from repro.selection.engine import PathSelector
from repro.selection.request import Metric, UserRequest
from repro.suite.cli import seed_servers
from repro.suite.collect import PathsCollector
from repro.suite.config import STATS_COLLECTION, SuiteConfig
from repro.suite.runner import TestRunner
from repro.upin.controller import PathController

METRICS = (Metric.LATENCY, Metric.JITTER, Metric.BANDWIDTH_DOWN, Metric.LOSS)


def count_one_pass(directory: str, flows: int, seed: int) -> Dict[str, int]:
    """Operation counts of one monitor pass over ``flows`` flows."""
    client = DocDBClient.open(directory, fsync="batch")
    try:
        db = client["upin"]
        seed_servers(db)
        host = ScionHost.scionlab(seed=seed)
        config = SuiteConfig(iterations=1, destination_ids=study_destination_ids())
        PathsCollector(host, db, config).collect()
        TestRunner(host, db, config).run()
        controller = PathController(host, PathSelector(db, host.topology))
        monitor = FlowMonitor(host, db, controller)
        pool = [
            UserRequest.make(sid, metric)
            for sid in study_destination_ids()
            for metric in METRICS
        ]
        for i in range(flows):
            monitor.watch(controller.apply_intent(f"flow-{i:05d}", pool[i % len(pool)]))
        TestRunner(host, db, config).run()  # fresh samples for the ingest

        probed_paths = {
            rule.path_id
            for rule in controller.flows()
            if monitor.tracker.state_of(rule.key) is not FlowHealth.DEAD
        }
        wal_colls: List[Any] = []
        real_append = client.wal.append

        def counting_append(op, db_name, coll, payload):
            wal_colls.append(coll)
            return real_append(op, db_name, coll, payload)

        stats = db[STATS_COLLECTION]
        stats_queries: List[Any] = []
        real_find = stats.find

        def counting_find(*args, **kwargs):
            stats_queries.append(args)
            return real_find(*args, **kwargs)

        client.wal.append = counting_append
        stats.find = counting_find
        series_before = host.network.counters.batch_series
        monitor.after_round()
        return {
            "flows": flows,
            "distinct_pinned_paths": len(probed_paths),
            "batch_series": host.network.counters.batch_series - series_before,
            "flow_events_wal_records": wal_colls.count(FLOW_EVENTS_COLLECTION),
            "stats_queries": len(stats_queries),
        }
    finally:
        client.close()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--flows", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=5)
    args = parser.parse_args()

    with tempfile.TemporaryDirectory(prefix="monitor-ops-") as directory:
        counts = count_one_pass(directory, args.flows, args.seed)
    print("one monitor pass: " + ", ".join(f"{k}={v}" for k, v in counts.items()))

    failures = []
    if counts["batch_series"] != counts["distinct_pinned_paths"]:
        failures.append(
            f"{counts['batch_series']} batch echo calls for "
            f"{counts['distinct_pinned_paths']} distinct pinned paths"
        )
    if counts["flow_events_wal_records"] != 1:
        failures.append(
            f"{counts['flow_events_wal_records']} flow_events WAL records (want 1)"
        )
    if counts["stats_queries"] != 1:
        failures.append(f"{counts['stats_queries']} paths_stats queries (want 1)")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print("monitor pass OK: one probe call per path, one WAL record, one query")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
