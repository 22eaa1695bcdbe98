"""The three benchmark workloads, each a closed loop with one client.

A workload *unit* is one seeded instance: ``setup()`` builds the world
(timed by the caller as set-up), ``run()`` executes the timed window,
``check()`` verifies the outputs afterwards and ``close()`` releases
what the unit opened.  Units are pure functions of their seed, so two
units built with one seed do exactly the same work and every program
counter repeats.

* ``study_campaign`` — the paper's §6 campaign: 5 study destinations,
  about 3,000 samples, one ``TestRunner.run`` on a durable client.
  Operation: one ``TestRunner.measure_path``.
* ``best_path_intents`` — a UPIN domain answers a Zipf-skewed burst of
  user intents with ``PathController.apply_intent`` between rare
  ingests of real held-back destination batches (volatile client).
  Operation: one ``apply_intent``.
* ``monitor_1000`` — 1000 flows watched by ``FlowMonitor`` riding
  ``MonitoringScheduler`` on a durable client through a congestion
  episode and a revocation.  Operation: one ``FlowMonitor.after_round``.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from perfbench import pace
from perfbench.counters import CounterSources, delta
from repro.docdb.client import DocDBClient
from repro.errors import NoPathError
from repro.monitor.health import FlowHealth, replay_events
from repro.monitor.loop import FlowMonitor
from repro.monitor.revocation import Revocation
from repro.monitor.scenario import pick_breakable_interface
from repro.netsim.congestion import CongestionEpisode
from repro.scion.snet import ScionHost
from repro.scionlab.defaults import study_destination_ids
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
from repro.suite.scheduler import MonitoringScheduler
from repro.topology.isd_as import ISDAS
from repro.upin.controller import PathController

METRICS = (Metric.LATENCY, Metric.JITTER, Metric.BANDWIDTH_DOWN, Metric.LOSS)


def unit_seed(seed: int, unit: int) -> int:
    """Seed of unit ``unit`` of a run started with ``seed``."""
    state = np.random.SeedSequence([seed & 0xFFFFFFFF, unit]).generate_state(1)
    return int(state[0])


def timed(fn, sink: List[float]):
    """``fn`` with each call's time on the paced clock appended to ``sink``."""

    def call(*args, **kwargs):
        start = pace.now()
        try:
            return fn(*args, **kwargs)
        finally:
            sink.append(pace.now() - start)

    return call


@dataclass
class Outcome:
    """What one unit's checks found."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)


class Window:
    """The timed window of a unit: its time plus counter deltas.

    ``wall_s`` is read on the paced clock (``perfbench.pace``), which
    every figure the benchmark reports uses; ``raw_s`` is plain wall
    time, which paces the run itself.  Counters are read outside the
    timed interval; the span recorder, if any, records only inside it.
    """

    def __init__(self, sources: CounterSources, recorder=None) -> None:
        self._read = sources.read
        self._recorder = recorder
        self.wall_s = 0.0
        self.raw_s = 0.0
        self.counters: Dict[str, int] = {}

    def __enter__(self) -> "Window":
        self._before = self._read()
        if self._recorder is not None:
            self._recorder.active = True
        self._raw0 = time.perf_counter()
        self._t0 = pace.now()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.wall_s = pace.now() - self._t0
        self.raw_s = time.perf_counter() - self._raw0
        if self._recorder is not None:
            self._recorder.active = False
        self.counters = delta(self._read(), self._before)
        # Keep no reference to the unit, so a finished unit can be freed.
        self._read = self._recorder = None


class Workload:
    """Base of one unit; subclasses fill in setup/run/check."""

    name = ""
    #: The workload's own end-to-end figures: (name, sample kind or
    #: "throughput", percentile, scale from seconds, unit).
    REPORT: Tuple[Tuple[str, str, float, float, str], ...] = ()
    #: Size of one unit; ``tiny`` is the smoke test's.
    full: Dict[str, Any] = {}
    tiny: Dict[str, Any] = {}

    def __init__(self, seed: int, workdir: str, *, size: str = "full") -> None:
        self.seed = seed
        self.workdir = workdir
        self.size = dict(self.full if size == "full" else self.tiny)
        self.sources = CounterSources()
        #: Latency samples (s) by kind; "op" is the workload's operation.
        self.samples: Dict[str, List[float]] = {"op": []}
        #: Operations completed in the window (the throughput numerator).
        self.ops = 0
        self.window: Optional[Window] = None
        self._dir: Optional[str] = None

    def _tmpdir(self) -> str:
        self._dir = tempfile.mkdtemp(prefix=f"{self.name}-", dir=self.workdir)
        return self._dir

    def setup(self) -> None:
        raise NotImplementedError

    def run(self, recorder=None) -> None:
        raise NotImplementedError

    def check(self) -> Outcome:
        raise NotImplementedError

    def close(self) -> None:
        client = getattr(self, "client", None)
        if client is not None:
            client.close()  # seals a durable client's WAL
        if self._dir is not None:
            shutil.rmtree(self._dir, ignore_errors=True)
            self._dir = None


# -- study_campaign ------------------------------------------------------------


class StudyCampaign(Workload):
    name = "study_campaign"
    REPORT = (
        ("campaign_samples_per_s", "throughput", 0, 1.0, "1/s"),
        ("path_measure_ms_p50", "op", 50, 1e3, "ms"),
        ("path_measure_ms_p99", "op", 99, 1e3, "ms"),
        ("flush_ms_p50", "flush", 50, 1e3, "ms"),
        ("flush_ms_p95", "flush", 95, 1e3, "ms"),
    )
    # 38 iterations x 80 paths = 3,040 samples, the paper's ~3,000.
    full = {"iterations": 38}
    tiny = {"iterations": 1}

    def setup(self) -> None:
        self.directory = self._tmpdir()
        self.client = DocDBClient.open(self.directory, fsync="batch")
        self.db = self.client["upin"]
        seed_servers(self.db)
        self.host = ScionHost.scionlab(seed=self.seed)
        self.config = SuiteConfig(
            iterations=self.size["iterations"],
            destination_ids=study_destination_ids(),
        )
        PathsCollector(self.host, self.db, self.config).collect()
        self.runner = TestRunner(self.host, self.db, self.config)
        self.samples["flush"] = []
        self.runner.measure_path = timed(
            self.runner.measure_path, self.samples["op"]
        )
        self.runner.stats.flush = timed(
            self.runner.stats.flush, self.samples["flush"]
        )
        self.sources.add(network=self.host.network, client=self.client)

    def run(self, recorder=None) -> None:
        with Window(self.sources, recorder) as self.window:
            self.report = self.runner.run()
        self.ops = self.report.stats_stored

    def check(self) -> Outcome:
        report = self.report
        out = Outcome(
            attempted=report.paths_tested + report.measurement_errors,
            failed=report.measurement_errors + report.stats_lost,
        )
        if report.stats_stored != report.paths_tested:
            out.problems.append(
                f"stored {report.stats_stored} stats for "
                f"{report.paths_tested} paths tested"
            )
        stored = self.db[STATS_COLLECTION].count_documents()
        self.client.close()
        reopened = DocDBClient.open(self.directory, fsync="batch")
        try:
            recovered = reopened["upin"][STATS_COLLECTION].count_documents()
        finally:
            reopened.close()
        if recovered != stored or stored != report.stats_stored:
            out.problems.append(
                f"paths_stats: {report.stats_stored} reported, {stored} "
                f"stored, {recovered} recovered after reopening"
            )
        return out


# -- best_path_intents ---------------------------------------------------------


def _traversed(topology, path_doc: Dict[str, Any]) -> Tuple[frozenset, frozenset]:
    """(countries, operators) of the ASes a stored path crosses."""
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
    countries or one operator.

    Exclusions are drawn among what some but not all of the
    destination's stored paths cross, so every intent stays admissible.
    """
    pool: List[UserRequest] = []
    for server in db[SERVERS_COLLECTION].find(sort=[("_id", 1)]):
        sid = int(server["_id"])
        docs = db[PATHS_COLLECTION].find({"server_id": sid})
        if not docs:
            continue
        crossed = [_traversed(topology, d) for d in docs]
        countries = _avoidable([c for c, _ in crossed])
        operators = _avoidable([o for _, o in crossed])
        exclusions = [{}]
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


class BestPathIntents(Workload):
    name = "best_path_intents"
    REPORT = (
        ("intent_ms_p50", "op", 50, 1e3, "ms"),
        ("intent_ms_p99", "op", 99, 1e3, "ms"),
        ("intents_per_s", "throughput", 0, 1.0, "1/s"),
    )
    full = {
        "campaign_iterations": 5,
        "intents": 10000,
        "ingest_every": 500,
        "check_every": 50,
        "zipf_s": 1.1,
    }
    tiny = {
        "campaign_iterations": 1,
        "intents": 400,
        "ingest_every": 100,
        "check_every": 5,
        "zipf_s": 1.1,
    }

    def setup(self) -> None:
        size = self.size
        self.host = ScionHost.scionlab(seed=self.seed)
        self.client = DocDBClient()
        self.db = self.client["upin"]
        seed_servers(self.db)
        config = SuiteConfig(iterations=size["campaign_iterations"])
        PathsCollector(self.host, self.db, config).collect()
        TestRunner(self.host, self.db, config).run()
        self.batches = self._held_back_batches()
        self.controller = PathController(
            self.host, PathSelector(self.db, self.host.topology)
        )
        self.apply_intent = timed(self.controller.apply_intent, self.samples["op"])
        self.sources.add(
            network=self.host.network,
            client=self.client,
            controller=self.controller,
        )
        rng = np.random.default_rng(self.seed)
        self.pool = intent_pool(self.db, self.host.topology, rng)
        ranks = np.arange(1, len(self.pool) + 1, dtype=float)
        weights = ranks ** -size["zipf_s"]
        popularity = rng.permutation(len(self.pool))
        self.draws = [
            int(popularity[r])
            for r in rng.choice(
                len(self.pool), size=size["intents"], p=weights / weights.sum()
            )
        ]
        order = rng.permutation(len(self.batches))
        self.batches = [self.batches[i] for i in order]
        if (size["intents"] - 1) // size["ingest_every"] > len(self.batches):
            raise ValueError("more ingests than held-back batches")

    def _held_back_batches(self) -> List[List[Dict[str, Any]]]:
        """One more campaign iteration, stored aside: one batch per
        destination, as the runner would have flushed them."""
        side = DocDBClient()["upin"]
        seed_servers(side)
        side[PATHS_COLLECTION].insert_many(self.db[PATHS_COLLECTION].find())
        TestRunner(self.host, side, SuiteConfig(iterations=1)).run()
        by_server: Dict[int, List[Dict[str, Any]]] = {}
        for doc in side[STATS_COLLECTION].find(sort=[("timestamp_ms", 1)]):
            by_server.setdefault(int(doc["server_id"]), []).append(doc)
        return [by_server[sid] for sid in sorted(by_server)]

    def run(self, recorder=None) -> None:
        size = self.size
        # The data as of the window's start, for the oracle in check().
        self.snapshot = {
            name: self.db[name].all_documents()
            for name in (SERVERS_COLLECTION, PATHS_COLLECTION, STATS_COLLECTION)
        }
        stats = self.db[STATS_COLLECTION]
        every = size["ingest_every"]
        answers: List[Optional[str]] = []
        pool, draws, apply_intent = self.pool, self.draws, self.apply_intent
        with Window(self.sources, recorder) as self.window:
            for i, k in enumerate(draws):
                if i and i % every == 0:
                    stats.insert_many(self.batches[i // every - 1])
                try:
                    answers.append(apply_intent(f"user-{i:05d}", pool[k]).path_id)
                except NoPathError:
                    answers.append(None)
        self.answers = answers
        self.ops = len(answers)

    def check(self, answers: Optional[List[Optional[str]]] = None) -> Outcome:
        """Refusals, exclusion violations and oracle mismatches.

        ``answers`` defaults to the run's own; the smoke test passes a
        doctored copy to prove the checks fire.
        """
        answers = self.answers if answers is None else answers
        size = self.size
        out = Outcome(attempted=len(answers))
        wrong = set()
        topology = self.host.topology
        crossed = {
            str(d["_id"]): _traversed(topology, d)
            for d in self.snapshot[PATHS_COLLECTION]
        }
        for i, (k, answer) in enumerate(zip(self.draws, answers)):
            if answer is None:
                out.failed += 1
                continue
            countries, operators = crossed[answer]
            request = self.pool[k]
            excluded = (countries & request.exclude_countries) | (
                operators & request.exclude_operators
            )
            if excluded:
                wrong.add(i)
                out.problems.append(
                    f"intent {i}: {answer} traverses excluded {sorted(excluded)}"
                )
        oracle = self._oracle_db()
        selector = PathSelector(oracle, topology)
        every = size["ingest_every"]
        ingested = 0
        for i in range(0, len(answers), size["check_every"]):
            # Replay the ingests the run made before intent i.
            while ingested < i // every:
                oracle[STATS_COLLECTION].insert_many(self.batches[ingested])
                ingested += 1
            if answers[i] is None:
                continue
            try:
                best = selector.select(self.pool[self.draws[i]]).best
            except NoPathError:
                best = None
            expected = best.aggregate.path_id if best is not None else None
            if expected != answers[i]:
                wrong.add(i)
                out.problems.append(
                    f"intent {i}: answered {answers[i]}, fresh selection "
                    f"gives {expected}"
                )
        out.failed += len(wrong)
        return out

    def _oracle_db(self):
        """An independent copy of the window's starting data."""
        db = DocDBClient()["upin"]
        stats = db[STATS_COLLECTION]
        stats.create_index("path_id")
        stats.create_index("server_id")
        stats.create_index([("server_id", 1), ("timestamp_ms", 1)])
        db[PATHS_COLLECTION].create_index("server_id")
        for name, docs in self.snapshot.items():
            db[name].insert_many(docs)
        return db


# -- monitor_1000 --------------------------------------------------------------


class Monitor1000(Workload):
    name = "monitor_1000"
    REPORT = (
        ("monitor_pass_s_p50", "op", 50, 1.0, "s"),
        ("monitor_flow_checks_per_s", "throughput", 0, 1.0, "1/s"),
    )
    full = {"flows": 1000, "rounds": 8}
    # The script needs the revocation round (6) inside the run.
    tiny = {"flows": 20, "rounds": 7}

    PERIOD_S = 120.0
    CONGEST_ROUNDS = (2, 5)
    REVOKE_ROUND = 6

    def setup(self) -> None:
        size = self.size
        self.directory = self._tmpdir()
        self.client = DocDBClient.open(self.directory, fsync="batch")
        self.db = self.client["upin"]
        seed_servers(self.db)
        self.host = ScionHost.scionlab(seed=self.seed)
        config = SuiteConfig(iterations=1, destination_ids=study_destination_ids())
        PathsCollector(self.host, self.db, config).collect()
        TestRunner(self.host, self.db, config).run()  # warm-up: selection data
        self.controller = PathController(
            self.host, PathSelector(self.db, self.host.topology)
        )
        self.monitor = FlowMonitor(self.host, self.db, self.controller)
        pool = [
            UserRequest.make(sid, metric)
            for sid in study_destination_ids()
            for metric in METRICS
        ]
        for i in range(size["flows"]):
            rule = self.controller.apply_intent(f"flow-{i:04d}", pool[i % len(pool)])
            self.monitor.watch(rule)
        self.scheduler = MonitoringScheduler(
            self.host, self.db, config,
            period_s=self.PERIOD_S, recollect_every=size["rounds"],
        )
        self.scheduler.add_round_hook(
            timed(self.monitor.after_round, self.samples["op"])
        )
        self.sources.add(
            network=self.host.network,
            client=self.client,
            controller=self.controller,
            monitor=self.monitor,
        )
        self._script_outage()

    def _most_used_rule(self):
        counts = Counter(rule.path_id for rule in self.controller.flows())
        path_id = min(counts, key=lambda p: (-counts[p], p))
        return next(r for r in self.controller.flows() if r.path_id == path_id)

    def _breakable(self, rule) -> Tuple[str, int]:
        docs = self.db[PATHS_COLLECTION].find({"server_id": rule.server_id})
        return pick_breakable_interface(rule, docs)

    def _script_outage(self) -> None:
        """The outage of ``repro.monitor.scenario``, aimed at the busiest path."""
        host, period = self.host, self.PERIOD_S
        origin = host.clock.now_s
        ia, ifid = self._breakable(self._most_used_rule())
        host.network.add_episode(
            CongestionEpisode.on_links(
                [host.topology.link_at(ia, ifid)],
                origin + self.CONGEST_ROUNDS[0] * period,
                origin + self.CONGEST_ROUNDS[1] * period,
                loss=1.0,
                capacity_factor=0.0,
                reason="scripted congestion",
            )
        )

        def fire_revocation() -> None:
            ia_str, interface = self._breakable(self._most_used_rule())
            now = host.clock.now_s
            self.monitor.revoke(
                Revocation(
                    isd_as=ISDAS.parse(ia_str),
                    interface=interface,
                    issued_at_s=now,
                    expires_at_s=now + 2 * period * self.size["rounds"],
                    reason="scripted maintenance",
                ),
                blackhole=True,
            )

        self.scheduler.events.schedule(
            origin + self.REVOKE_ROUND * period + 1.0, fire_revocation
        )

    def run(self, recorder=None) -> None:
        rounds = self.size["rounds"]
        with Window(self.sources, recorder) as self.window:
            self.scheduler.run(rounds=rounds)
        self.ops = self.size["flows"] * rounds

    def check(self) -> Outcome:
        monitor = self.monitor
        flows = self.controller.flows()
        out = Outcome(attempted=len(flows))
        now = self.host.clock.now_s
        bad = set()
        for rule in flows:
            state = monitor.tracker.state_of(rule.key)
            if state in (FlowHealth.DEAD, FlowHealth.VIOLATED):
                bad.add(rule.key)
            revocation = monitor.revocations.affecting_path(rule.path, now)
            if revocation is not None:
                bad.add(rule.key)
                out.problems.append(
                    f"flow {rule.key} pinned across live revocation {revocation}"
                )
        out.failed = len(bad)
        replayed = replay_events(monitor.journal.events())
        if replayed.snapshot() != monitor.tracker.snapshot():
            out.problems.append("journal replay differs from the live tracker")
        return out


WORKLOADS = {
    cls.name: cls for cls in (StudyCampaign, BestPathIntents, Monitor1000)
}
