"""In-memory span recorder wrapped around the program's public functions.

The program has no spans of its own yet, so the traced run wraps the
public functions below at their class, records one span per call
(name, start, end, parent) while a timed window is open, and derives
per-layer figures afterwards.  A layer's *self time* is its span's
duration minus the time its child spans cover; everything runs in one
thread, so children nest strictly inside their parent.
"""

from __future__ import annotations

import importlib
import json
from contextlib import contextmanager
from typing import Dict, Iterator, List, Tuple

from perfbench import pace
from perfbench.counters import ratio

#: (span name, module, class, method) — the layer boundaries traced.
SPAN_TARGETS: Tuple[Tuple[str, str, str, str], ...] = (
    ("netsim.probe_batch", "repro.netsim.network", "NetworkSim", "probe_batch"),
    ("netsim.fluid_transfer", "repro.netsim.network", "NetworkSim", "fluid_transfer"),
    ("scion.echo_series", "repro.scion.scmp", "ScmpService", "echo_series"),
    ("scion.path_by_sequence", "repro.scion.daemon", "Sciond", "path_by_sequence"),
    ("apps.ping", "repro.apps.ping", "PingApp", "run"),
    ("apps.bwtest", "repro.apps.bwtester", "BwtestApp", "run"),
    ("suite.measure_path", "repro.suite.runner", "TestRunner", "measure_path"),
    ("suite.flush", "repro.suite.storage", "StatsRepository", "flush"),
    ("docdb.insert_many", "repro.docdb.collection", "Collection", "insert_many"),
    ("docdb.insert_one", "repro.docdb.collection", "Collection", "insert_one"),
    ("docdb.find", "repro.docdb.collection", "Collection", "find"),
    ("docdb.find_one", "repro.docdb.collection", "Collection", "find_one"),
    ("docdb.aggregate", "repro.docdb.collection", "Collection", "aggregate"),
    ("docdb.wal_append", "repro.docdb.wal", "WalWriter", "append"),
    ("selection.select", "repro.selection.engine", "PathSelector", "select"),
    ("upin.apply_intent", "repro.upin.controller", "PathController", "apply_intent"),
    ("upin.cached_select", "repro.upin.controller", "PathController", "cached_select"),
    ("monitor.after_round", "repro.monitor.loop", "FlowMonitor", "after_round"),
    ("monitor.try_failover", "repro.monitor.failover", "FailoverEngine", "try_failover"),
    ("monitor.observe", "repro.monitor.health", "FlowHealthTracker", "observe"),
    ("monitor.journal_append", "repro.monitor.journal", "FlowEventJournal", "append"),
)

SPAN_NAMES = tuple(target[0] for target in SPAN_TARGETS)

#: docdb reads whose result size counts towards ``docdb.docs_returned``
#: when no other docdb read encloses them (``find_one`` and
#: ``aggregate`` call ``find`` internally).
_READS = frozenset({"docdb.find", "docdb.find_one", "docdb.aggregate"})


class SpanRecorder:
    """Spans kept in parallel lists; recording only while ``active``."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.active = False
        self.docs_returned = 0
        self._stack: List[int] = []

    def _wrap(self, name: str, fn):
        rec = self
        is_read = name in _READS

        def traced(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            stack = rec._stack
            parent = stack[-1] if stack else -1
            idx = len(rec.names)
            rec.names.append(name)
            rec.parents.append(parent)
            rec.ends.append(0.0)
            stack.append(idx)
            rec.starts.append(pace.now())
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.ends[idx] = pace.now()
                stack.pop()
            if is_read and (parent < 0 or rec.names[parent] not in _READS):
                if isinstance(result, list):
                    rec.docs_returned += len(result)
                elif result is not None:
                    rec.docs_returned += 1
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    @contextmanager
    def installed(self) -> Iterator["SpanRecorder"]:
        """Patch every target class for the duration of the block."""
        originals = []
        try:
            for name, module, cls_name, attr in SPAN_TARGETS:
                cls = getattr(importlib.import_module(module), cls_name)
                original = cls.__dict__[attr]
                originals.append((cls, attr, original))
                setattr(cls, attr, self._wrap(name, original))
            yield self
        finally:
            for cls, attr, original in reversed(originals):
                setattr(cls, attr, original)

    # -- derived figures -----------------------------------------------------

    def layer_times(self) -> Dict[str, Dict[str, float]]:
        """``{span name: {"calls": n, "self_s": s}}`` for every target."""
        child = [0.0] * len(self.names)
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[idx] - self.starts[idx]
        out = {name: {"calls": 0, "self_s": 0.0} for name in SPAN_NAMES}
        for idx, name in enumerate(self.names):
            entry = out[name]
            entry["calls"] += 1
            entry["self_s"] += (self.ends[idx] - self.starts[idx]) - child[idx]
        return out

    def covered_s(self) -> float:
        """Wall time under some top-level span."""
        return sum(
            self.ends[i] - self.starts[i]
            for i, parent in enumerate(self.parents)
            if parent < 0
        )

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for idx, name in enumerate(self.names):
                fh.write(
                    json.dumps(
                        {
                            "id": idx,
                            "name": name,
                            "start": self.starts[idx],
                            "end": self.ends[idx],
                            "parent": self.parents[idx],
                        }
                    )
                    + "\n"
                )


def per_layer(
    recorder: SpanRecorder, window
) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Per-layer metrics of one traced window: (counts, times).

    Counts are exact and repeat for a seed; times are wall-clock.
    ``window.counters`` holds the program counter deltas over the window.
    """
    c = window.counters
    counts: Dict[str, float] = {}
    times: Dict[str, float] = {}
    for name, entry in recorder.layer_times().items():
        counts[f"{name}.calls"] = entry["calls"]
        times[f"{name}.self_s"] = entry["self_s"]
    returned = recorder.docs_returned
    failovers = c["monitor.failovers"]
    counts.update(
        {
            "netsim.probe_packets": c["net.batch_packets"] + c["net.scalar_probes"],
            "netsim.sampler_hit_ratio": ratio(
                c["net.sampler_hits"], c["net.sampler_hits"] + c["net.sampler_misses"]
            ),
            "docdb.docs_written": c["docdb.inserts"],
            "docdb.docs_returned": returned,
            "docdb.examined_per_returned": ratio(c["docdb.docs_examined"], returned),
            "docdb.query_cache_hit_ratio": ratio(
                c["docdb.cache_hits"], c["docdb.cache_hits"] + c["docdb.cache_misses"]
            ),
            "docdb.wal_bytes_written": c["wal.bytes_written"],
            "docdb.wal_fsyncs": c["wal.fsyncs"],
            "upin.selection_cache_hit_ratio": ratio(
                c["upin.selection_hits"],
                c["upin.selection_hits"] + c["upin.selection_misses"],
            ),
            "monitor.failovers": failovers,
            "monitor.failover_swap_ratio": ratio(
                failovers, counts["monitor.try_failover.calls"]
            ),
            "monitor.journal_events": c["monitor.journal_events"],
        }
    )
    times["trace.wall_s"] = window.wall_s
    times["trace.uncovered_share"] = ratio(
        window.wall_s - recorder.covered_s(), window.wall_s
    )
    return counts, times
