"""Every program counter the benchmark reads from outside, in one place.

The program keeps its counters in several shapes: ``Collection.stats``
dicts, ``DocDBClient.wal_stats()``, ``PathController.
selection_cache_info()``, the ``NetCounters`` slots of each
``NetworkSim``, and the ``FlowMonitor`` metrics registry and journal.
This module is the only code in the benchmark that touches them, so a
telemetry refactor has one place to repoint.  ``spec.json`` names the
source of each derived metric.

A :class:`CounterSources` is built per workload unit; ``read()`` returns
a flat ``{name: int}`` snapshot, and the caller takes the difference of
two snapshots around the timed window.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.suite import metrics as m

#: Raw counters, each a plain int summed over every source registered.
RAW_COUNTERS = (
    "net.batch_packets",
    "net.scalar_probes",
    "net.sampler_hits",
    "net.sampler_misses",
    "docdb.inserts",
    "docdb.docs_examined",
    "docdb.cache_hits",
    "docdb.cache_misses",
    "wal.appends",
    "wal.bytes_written",
    "wal.fsyncs",
    "upin.selection_hits",
    "upin.selection_misses",
    "monitor.failovers",
    "monitor.journal_events",
)


class CounterSources:
    """The networks, clients, controllers and monitors a unit reads."""

    def __init__(self) -> None:
        self._networks: List[object] = []
        self._clients: List[object] = []
        self._controllers: List[object] = []
        self._monitors: List[object] = []

    def add(
        self,
        *,
        network: Optional[object] = None,
        client: Optional[object] = None,
        controller: Optional[object] = None,
        monitor: Optional[object] = None,
    ) -> None:
        if network is not None:
            self._networks.append(network)
        if client is not None:
            self._clients.append(client)
        if controller is not None:
            self._controllers.append(controller)
        if monitor is not None:
            self._monitors.append(monitor)

    def read(self) -> Dict[str, int]:
        out = dict.fromkeys(RAW_COUNTERS, 0)
        for network in self._networks:
            net = network.counters  # NetCounters
            out["net.batch_packets"] += net.batch_packets
            out["net.scalar_probes"] += net.scalar_probes
            out["net.sampler_hits"] += net.sampler_hits
            out["net.sampler_misses"] += net.sampler_misses
        for client in self._clients:
            for coll in _collections(client):
                stats = coll.stats  # Collection.stats
                out["docdb.inserts"] += stats["inserts"]
                out["docdb.docs_examined"] += stats["docs_examined"]
                out["docdb.cache_hits"] += stats["cache_hits"]
                out["docdb.cache_misses"] += stats["cache_misses"]
            wal = client.wal_stats()  # {} for a volatile client
            out["wal.appends"] += int(wal.get("appends", 0))
            out["wal.bytes_written"] += int(wal.get("bytes_written", 0))
            out["wal.fsyncs"] += int(wal.get("fsyncs", 0))
        for controller in self._controllers:
            info = controller.selection_cache_info()
            out["upin.selection_hits"] += info["hits"]
            out["upin.selection_misses"] += info["misses"]
        for monitor in self._monitors:
            out["monitor.failovers"] += int(
                m.counter_value(monitor.metrics.snapshot(), m.MON_FAILOVERS)
            )
            # Without a filter this is the collection size: no query runs.
            out["monitor.journal_events"] += len(monitor.journal)
        return out


def _collections(client) -> Iterable[object]:
    for db_name in client.list_database_names():
        db = client[db_name]
        for coll_name in db.list_collection_names():
            yield db[coll_name]


def delta(after: Dict[str, int], before: Dict[str, int]) -> Dict[str, int]:
    return {name: after[name] - before[name] for name in RAW_COUNTERS}


def ratio(num: float, den: float) -> float:
    """``num / den``, or 0.0 when the layer did no such work."""
    return float(num) / float(den) if den else 0.0
