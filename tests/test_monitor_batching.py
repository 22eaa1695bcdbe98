"""The batched monitor pass against a per-flow reference pass.

``FlowMonitor.after_round`` probes every flow of a pass with one batch
call per pinned path, ingests ``paths_stats`` with one grouped query
and journals the pass with one ``insert_many``.  These tests pin what
that batching must preserve:

(a) with each link's noise generator stubbed to constants, the batched
    pass and :func:`reference_after_round` (one stats query and one
    ``echo_series`` per flow, at the same slots) write byte-identical
    journals;
(b) with real noise the two agree statistically per flow;
(c) every stats document is folded exactly once per flow, across
    failovers that happen mid-ingest;
(d) an exception mid-pass still journals what the pass did, and a
    crash at the pass's WAL append recovers to a pass boundary.
"""

import json

import numpy as np
import pytest

from repro.docdb.client import DocDBClient
from repro.experiments.world import run_campaign
from repro.monitor.health import FlowHealth, HealthSample, replay_events
from repro.monitor.journal import FLOW_EVENTS_COLLECTION
from repro.monitor.loop import FlowMonitor
from repro.monitor.scenario import run_outage_scenario
from repro.netsim.link import LinkState
from repro.scion.snet import ScionHost
from repro.selection.engine import PathSelector
from repro.selection.request import Metric, UserRequest
from repro.suite import metrics as m
from repro.suite.cli import seed_servers
from repro.suite.collect import PathsCollector
from repro.suite.config import STATS_COLLECTION, SuiteConfig
from repro.suite.faults import CrashPlan, SimulatedCrash
from repro.suite.runner import TestRunner
from repro.topology.isd_as import ISDAS
from repro.upin.controller import PathController


def reference_after_round(self, record=None):
    """Per-flow pass: one stats query and one ``echo_series`` per flow.

    Same snapshot, slots and fold order as the batched pass; every
    event is its own ``insert_one``.
    """
    self._handle_revocations(self.clock.now_s)
    slot = self.clock.now_s
    width = self.probe_count * self.probe_interval_s
    for rule in self.controller.flows():
        key = rule.key
        if not self.tracker.is_tracked(key):
            continue
        if self.tracker.state_of(key) is FlowHealth.DEAD:
            self._attempt_failover(rule, cause="path dead", force=True)
            continue
        self.clock.advance_to(slot)
        slot += width
        docs = self.db[STATS_COLLECTION].find(
            {
                "path_id": rule.path_id,
                "timestamp_ms": {"$gte": self._stats_cursor_ms.get(key, 0)},
            },
            sort=[("timestamp_ms", 1)],
        )
        if self._ingest_stats(rule, docs):
            continue
        _, dst_ip = ISDAS.parse_address(rule.server_address)
        stats = self.host.scmp.echo_series(
            rule.path, dst_ip,
            count=self.probe_count, interval_s=self.probe_interval_s,
        )
        self.metrics.inc(m.MON_PROBES, self.probe_count)
        self._feed(rule, HealthSample(
            t_s=self.clock.now_s,
            loss_pct=stats.loss_pct,
            latency_ms=stats.avg_ms if stats.rtts_ms else None,
            bw_down_mbps=None,
            source="probe",
        ))
    self.rounds_observed += 1


class ConstantNoise:
    """Stand-in link noise generator: no jitter, drop only if survive < 0.5."""

    def normal(self, loc=0.0, scale=1.0, size=None):
        return 0.0 if size is None else np.zeros(size)

    def random(self, size=None):
        return 0.5 if size is None else np.full(size, 0.5)


@pytest.fixture
def constant_noise(monkeypatch):
    original = LinkState.__init__

    def init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        self._noise = ConstantNoise()

    monkeypatch.setattr(LinkState, "__init__", init)


def _assert_same_journal(a, b):
    """Byte-identical journals; on failure name the first diverging seq.

    Compares plain booleans so a mismatch does not make pytest diff two
    megabyte-sized strings.
    """
    def dump(events):
        return json.dumps(events, sort_keys=True, default=str)

    events_a, events_b = a.journal.events(), b.journal.events()
    if dump(events_a) != dump(events_b):
        seq = next(
            (x["seq"] for x, y in zip(events_a, events_b) if dump(x) != dump(y)),
            min(len(events_a), len(events_b)),
        )
        pytest.fail(f"journals diverge at seq {seq}")


# -- (a) exact equivalence -----------------------------------------------------


class TestExactEquivalence:
    def test_journals_byte_identical_with_constant_noise(
        self, constant_noise, monkeypatch
    ):
        batched = run_outage_scenario(extra_flows=200)
        with monkeypatch.context() as patch:
            patch.setattr(FlowMonitor, "after_round", reference_after_round)
            reference = run_outage_scenario(extra_flows=200)
        assert batched.journal.failovers(), "scenario must fail over"
        _assert_same_journal(batched, reference)
        same_state = (
            batched.monitor.tracker.snapshot()
            == reference.monitor.tracker.snapshot()
        )
        assert same_state
        assert batched.monitor.metrics.counter(m.MON_PROBES) == \
            reference.monitor.metrics.counter(m.MON_PROBES)

    def test_matrix_rows_equal_per_series_calls(self, constant_noise):
        """One (flows × probes) call equals one call per row."""
        host = ScionHost.scionlab(seed=11)
        path = host.paths("16-ffaa:0:1002", max_paths=1)[0]
        times = 5.0 + np.arange(12, dtype=np.float64).reshape(4, 3) * 0.05
        matrix = host.scmp.echo_batch(path, times)
        assert matrix.rtt_ms.shape == (4, 3)
        for row, row_times in zip(matrix.rtt_ms, times):
            np.testing.assert_array_equal(
                row, host.scmp.echo_batch(path, row_times).rtt_ms
            )


# -- (b) statistical agreement -------------------------------------------------


def _probe_samples(scenario):
    """flow key -> list of (latency_ms or None, loss_pct) probe samples."""
    out = {}
    for doc in scenario.journal.events(event_type="sample"):
        if doc["source"] == "probe":
            out.setdefault((doc["user"], doc["server_id"]), []).append(
                (doc["latency_ms"], doc["loss_pct"])
            )
    return out


class TestStatisticalAgreement:
    def test_per_flow_rtt_and_loss_agree_at_1000_flows(self, monkeypatch):
        kwargs = dict(extra_flows=999, rounds=2, congest_rounds=(50, 51))
        batched = _probe_samples(run_outage_scenario(**kwargs))
        with monkeypatch.context() as patch:
            patch.setattr(FlowMonitor, "after_round", reference_after_round)
            reference = _probe_samples(run_outage_scenario(**kwargs))
        assert batched.keys() == reference.keys()
        assert len(batched) == 1000

        def per_flow(samples):
            rtts = [lat for lat, _ in samples if lat is not None]
            loss = sum(loss for _, loss in samples) / (100.0 * len(samples))
            return (float(np.mean(rtts)) if rtts else np.nan), loss

        keys = sorted(batched)
        b = np.array([per_flow(batched[k]) for k in keys])
        r = np.array([per_flow(reference[k]) for k in keys])
        # Same slots see the same utilization, so flows pair up; only
        # the jitter/drop draws differ.  The paired mean difference must
        # sit within 4 standard errors of zero.
        diff = b[:, 0] - r[:, 0]
        diff = diff[~np.isnan(diff)]
        assert diff.size > 900
        stderr = diff.std(ddof=1) / np.sqrt(diff.size)
        assert abs(diff.mean()) <= 4 * stderr
        assert np.nanmean(b[:, 0]) == pytest.approx(
            np.nanmean(r[:, 0]), rel=0.01
        )
        assert abs(b[:, 1].mean() - r[:, 1].mean()) < 0.01


# -- (c) grouped ingest --------------------------------------------------------


@pytest.fixture
def small_world():
    return run_campaign([3], iterations=1, seed=77002)


def _new_monitor(world):
    controller = PathController(
        world.host, PathSelector(world.db, world.host.topology)
    )
    return controller, FlowMonitor(world.host, world.db, controller)


def _add_stats(world, path_id, timestamps_ms, loss_pct):
    """Store synthetic campaign samples for ``path_id``."""
    coll = world.db[STATS_COLLECTION]
    template = dict(coll.find({"path_id": path_id}, limit=1)[0])
    coll.insert_many([
        dict(template, _id=f"syn_{path_id}_{ts}", timestamp_ms=ts,
             loss_pct=loss_pct)
        for ts in timestamps_ms
    ])


def _assert_each_doc_folded_once(monitor, db):
    """Per flow registration, the folded stats are the docs at or after
    its cursor, in order: all of them, or a prefix when it failed over."""
    epochs = {}
    for ev in monitor.journal.events():
        key = (ev["user"], ev["server_id"])
        if ev["type"] == "flow_registered":
            epochs.setdefault(key, []).append(
                (ev["path_id"], ev["timestamp_ms"], [])
            )
        elif ev["type"] == "sample" and ev["source"] == "stats":
            path_id, _, folded = epochs[key][-1]
            assert ev["path_id"] == path_id
            folded.append(round(ev["t_s"] * 1000.0))
    cut_short = 0
    for key, flow_epochs in epochs.items():
        for i, (path_id, cursor, folded) in enumerate(flow_epochs):
            expected = [
                d["timestamp_ms"]
                for d in db[STATS_COLLECTION].find(
                    {"path_id": path_id, "timestamp_ms": {"$gte": cursor}},
                    sort=[("timestamp_ms", 1)],
                )
            ]
            if i == len(flow_epochs) - 1:
                assert folded == expected, key
            else:
                assert folded == expected[: len(folded)], key
                cut_short += len(folded) < len(expected)
    return epochs, cut_short


class TestGroupedIngest:
    def test_each_stats_doc_folded_once_across_failover(self, small_world):
        world = small_world
        controller, monitor = _new_monitor(world)
        clock = world.host.clock
        lossy = UserRequest.make(3, Metric.LOSS)
        fast = UserRequest.make(3, Metric.LATENCY)
        monitor.watch(controller.apply_intent("a", lossy))
        monitor.watch(controller.apply_intent("c", fast))
        early = clock.now_ms
        clock.advance(10.0)
        monitor.watch(controller.apply_intent("b", lossy))
        late = clock.now_ms
        bad_path = controller.active_flow("a", 3).path_id
        good_path = controller.active_flow("c", 3).path_id
        assert bad_path != good_path

        # "a" sees one clean sample before "b" registered, then both
        # see three lossy ones: K=2 of N=3 trips mid-ingest.
        _add_stats(world, bad_path, [early + 1000], 0.0)
        _add_stats(world, bad_path, [late + 1000, late + 2000, late + 3000], 100.0)
        _add_stats(world, good_path, [early + 500, late + 500], 0.0)
        clock.advance(5.0)
        monitor.after_round()
        assert controller.active_flow("a", 3).path_id != bad_path
        assert controller.active_flow("b", 3).path_id != bad_path

        # Next round: fresh samples on every stored path.
        now = clock.now_ms
        for path_id in sorted({d["path_id"] for d in
                               world.db[STATS_COLLECTION].find({})}):
            _add_stats(world, path_id, [now + 1000, now + 2000], 0.0)
        clock.advance(5.0)
        monitor.after_round()

        epochs, cut_short = _assert_each_doc_folded_once(monitor, world.db)
        assert len(epochs[("a", 3)]) == 2 and len(epochs[("b", 3)]) == 2
        assert cut_short == 2  # both failed over before their last doc
        assert len(epochs[("c", 3)]) == 1

    def test_one_grouped_stats_query_per_pass(self, small_world, monkeypatch):
        world = small_world
        controller, monitor = _new_monitor(world)
        for i, metric in enumerate([Metric.LOSS, Metric.LATENCY] * 3):
            monitor.watch(
                controller.apply_intent(f"u{i}", UserRequest.make(3, metric))
            )
        stats_coll = world.db[STATS_COLLECTION]
        calls = []
        real_find = stats_coll.find
        monkeypatch.setattr(
            stats_coll, "find",
            lambda *a, **kw: calls.append(a) or real_find(*a, **kw),
        )
        series_before = world.host.network.counters.batch_series
        monitor.after_round()
        assert len(calls) == 1
        paths = {rule.path_id for rule in controller.flows()}
        assert sorted(calls[0][0]["path_id"]["$in"]) == sorted(paths)
        assert world.host.network.counters.batch_series - series_before \
            == len(paths)


# -- (d) errors and crashes ----------------------------------------------------


class TestErrorsAndCrashes:
    def test_failover_error_still_flushes_the_pass(self, small_world, monkeypatch):
        world = small_world
        controller, monitor = _new_monitor(world)
        clock = world.host.clock
        rule = controller.apply_intent("x", UserRequest.make(3, Metric.LOSS))
        monitor.watch(rule)
        monitor.watch(controller.apply_intent("y", UserRequest.make(3)))
        start = clock.now_ms
        _add_stats(world, rule.path_id, [start + 1000, start + 2000], 100.0)
        clock.advance(5.0)
        before = len(monitor.journal)

        def explode(*args, **kwargs):
            raise RuntimeError("reselection backend down")

        monkeypatch.setattr(monitor.engine, "try_failover", explode)
        with pytest.raises(RuntimeError):
            monitor.after_round()
        events = monitor.journal.events()
        assert len(events) > before
        assert len(monitor.journal) == len(events)  # nothing left buffered
        assert monitor.tracker.state_of(rule.key) is FlowHealth.VIOLATED
        assert replay_events(events).snapshot() == monitor.tracker.snapshot()

    @pytest.mark.parametrize("torn", [False, True])
    def test_crash_at_pass_append_recovers_to_pass_boundary(
        self, tmp_path, torn
    ):
        client = DocDBClient.open(str(tmp_path), fsync="batch")
        db = client["upin"]
        seed_servers(db)
        host = ScionHost.scionlab(seed=77003)
        config = SuiteConfig(iterations=1, destination_ids=[3])
        PathsCollector(host, db, config).collect()
        TestRunner(host, db, config).run()
        controller = PathController(host, PathSelector(db, host.topology))
        monitor = FlowMonitor(host, db, controller)
        for i, metric in enumerate([Metric.LOSS, Metric.LATENCY] * 10):
            monitor.watch(
                controller.apply_intent(f"f{i:02d}", UserRequest.make(3, metric))
            )

        lsn = client.wal.last_lsn
        monitor.after_round()
        assert client.wal.last_lsn == lsn + 1  # one pass, one WAL record
        boundaries = [len(monitor.journal)]

        host.clock.advance(60.0)
        plan = CrashPlan(torn_at_append=1) if torn else CrashPlan(at_append=1)
        plan.install(client.wal)
        with pytest.raises(SimulatedCrash):
            monitor.after_round()
        boundaries.append(monitor.journal._seq)

        recovered = DocDBClient.open(str(tmp_path))
        try:
            seqs = sorted(
                d["seq"] for d in recovered["upin"][FLOW_EVENTS_COLLECTION].find({})
            )
        finally:
            recovered.close()
        assert seqs == list(range(len(seqs)))
        assert len(seqs) == boundaries[0 if torn else 1]
        assert boundaries[1] > boundaries[0]
