#!/usr/bin/env python
"""CI gate on the data plane's operation counts over a small campaign.

Runs a 1-iteration study campaign over the paper's five study
destinations on a volatile client and counts (no timing):

* ``NetworkSim.link_state`` calls made while measuring.  Each measured
  path resolves its lanes once (:meth:`repro.scion.path.Path.plan`), so
  the calls must not exceed the number of distinct (path, link,
  direction) lanes the measured paths cross: forward and return, two
  per link of each distinct path.  Resolving per call instead (ping and
  four fluid transfers per measurement) makes three times as many;
* grid storage of every ``UtilizationProcess``: at most 16 bytes per
  generated cell (the ``float64`` buffer at most doubles past its
  length; a list of boxed floats holds about 32).

Counts, not seconds, so the gate is immune to machine speed.

Usage::

    PYTHONPATH=src python tools/check_dataplane_ops.py [--seed 5]
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict

from repro.docdb.client import DocDBClient
from repro.netsim.link import LinkDirection
from repro.scion.snet import ScionHost
from repro.scionlab.defaults import study_destination_ids
from repro.suite.cli import seed_servers
from repro.suite.collect import PathsCollector
from repro.suite.config import SuiteConfig
from repro.suite.runner import TestRunner

#: Grid storage bound, bytes per generated cell.
MAX_GRID_BYTES_PER_CELL = 16


def count_campaign(seed: int) -> Dict[str, float]:
    """Operation counts of one 1-iteration, 5-destination campaign."""
    db = DocDBClient()["upin"]
    seed_servers(db)
    host = ScionHost.scionlab(seed=seed)
    config = SuiteConfig(iterations=1, destination_ids=study_destination_ids())
    PathsCollector(host, db, config).collect()
    runner = TestRunner(host, db, config)
    network = host.network

    measured = {}
    real_resolve = runner._resolve

    def recording_resolve(path_doc, dst_ia):
        path = real_resolve(path_doc, dst_ia)
        measured[path.sequence()] = path
        return path

    lookups = [0]
    real_link_state = network.link_state

    def counting_link_state(spec):
        lookups[0] += 1
        return real_link_state(spec)

    runner._resolve = recording_resolve
    network.link_state = counting_link_state
    report = runner.run()
    network.link_state = real_link_state

    procs = [
        real_link_state(spec).lane(direction).util
        for spec in host.topology.links()
        for direction in LinkDirection
    ]
    worst = max(
        (proc.nbytes / proc.cells for proc in procs if proc.cells > 1), default=0.0
    )
    return {
        "paths_tested": report.paths_tested,
        "distinct_paths": len(measured),
        "distinct_lanes": sum(2 * path.n_links for path in measured.values()),
        "link_state_calls": lookups[0],
        "grid_cells": sum(proc.cells for proc in procs),
        "grid_bytes": sum(proc.nbytes for proc in procs),
        "worst_grid_bytes_per_cell": round(worst, 3),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=5)
    args = parser.parse_args()

    counts = count_campaign(args.seed)
    print("1-iteration campaign: " + ", ".join(f"{k}={v}" for k, v in counts.items()))

    failures = []
    if counts["paths_tested"] < 1:
        failures.append("the campaign measured no path")
    if counts["link_state_calls"] > counts["distinct_lanes"]:
        failures.append(
            f"{counts['link_state_calls']} link_state calls for "
            f"{counts['distinct_lanes']} distinct measured (path, link, direction) lanes"
        )
    if counts["worst_grid_bytes_per_cell"] > MAX_GRID_BYTES_PER_CELL:
        failures.append(
            f"a utilization grid holds {counts['worst_grid_bytes_per_cell']} bytes "
            f"per generated cell (max {MAX_GRID_BYTES_PER_CELL})"
        )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print("data plane OK: lanes resolved once per path, compact AR(1) grids")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
