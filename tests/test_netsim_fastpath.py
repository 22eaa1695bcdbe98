"""The vectorized measurement fast path and its determinism contract.

Covers the batch engine end to end:

* seeded determinism of :func:`repro.netsim.batch.probe_batch` (same
  seed ⇒ byte-identical rtt vectors, property-tested over seeds),
* batch/reference statistical agreement on mean RTT and loss fraction
  at count ≥ 1000, against the per-packet walker in
  ``tests/reference_walker.py``,
* monitor-revocation blackholes drop 100 % of batch probes too,
* the reference walker reproducing the pre-batch campaign and seeded
  traceroute byte-for-byte (pinned sha256 and RTT goldens),
* goldens pinning the batch-engine campaign, traceroute and monitor
  journals,
* traceroute argument validation,
* the flow ledger staying bounded under ``register_flow=True``,
* the sciond sequence index (no recombination on repeated lookups),
* the link sampling cache (hits + epoch invalidation),
* NET_* counters flowing into campaign metric snapshots.
"""

import hashlib
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.docdb.client import DocDBClient
from repro.errors import ValidationError
from repro.monitor.revocation import Revocation, RevocationStore
from repro.monitor.scenario import run_outage_scenario
from repro.netsim.batch import probe_batch, roundtrip_steps
from repro.netsim.config import NetworkConfig
from repro.netsim.congestion import CongestionEpisode
from repro.netsim.link import LinkDirection
from repro.netsim.network import LinkTraversal, NetworkSim, ServerHealth
from repro.netsim.packet import PacketSpec
from repro.scion.scmp import ScmpService
from repro.scion.snet import ScionHost
from repro.scionlab.defaults import study_destination_ids
from repro.suite import metrics as m
from repro.suite.cli import seed_servers
from repro.suite.collect import PathsCollector
from repro.suite.config import STATS_COLLECTION, SuiteConfig
from repro.suite.runner import TestRunner
from repro.topology.isd_as import ISDAS
from repro.topology.scionlab import (
    MY_AS,
    build_scionlab_world,
    scionlab_network_config,
)

from tests import reference_walker
from tests.helpers import build_tiny_world

FAST_SETTINGS = settings(max_examples=10, deadline=None)
SLOW_SETTINGS = settings(max_examples=5, deadline=None)

#: sha256 over the sorted stats documents of the seeded study campaign
#: (seed 20231112, 1 iteration, 5 destinations, 80 docs), captured on
#: the packet-at-a-time data plane *before* the batch engine landed.
#: The reference walker still reproduces it.
PRE_BATCH_CAMPAIGN_SHA256 = (
    "0c83761f92109849855e8015ebde47c1e52ab0b25c30fc017ff058af5bdf62e3"
)

#: The same campaign on the batch engine, captured before the scalar
#: walker left ``src/``: deleting it must not move a single byte.
BATCH_CAMPAIGN_SHA256 = (
    "5235d7d75502654dea24e1dd827bfafc8c206df5b5e610ff682b042c914e2100"
)

#: sha256 of ``json.dumps(events, sort_keys=True, default=str)`` over
#: the scripted outage's journal (``run_outage_scenario(rounds=8)``,
#: 24 events) and the same with ``extra_flows=200`` (4626 events),
#: captured before the scalar walker left ``src/``.
OUTAGE_JOURNAL_SHA256 = (
    24,
    "d1d92589cd9cb3725d06722ea8084405581725b7b62c4943210a5255ab31a5ba",
)
OUTAGE_200_FLOWS_JOURNAL_SHA256 = (
    4626,
    "a691bfe6ec0e24028c6fbd47d030b54d5030c319a81c03c4f45ebe72f43380d7",
)

#: Seeded traceroute golden of the per-packet walker
#: (ScionHost.scionlab(seed=7), best path to 16-ffaa:0:1002).  Pins the
#: reference walker's interleaved per-link stream consumption: probe
#: depth 2 advances link 1's stream past what depth 1 saw.
TRACEROUTE_GOLDEN = [
    (1, "17-ffaa:0:1107", 3, [9.358807, 9.499288, 9.779065]),
    (2, "17-ffaa:0:1102", 2, [10.614123, 10.734314, 10.328839]),
    (3, "19-ffaa:0:1301", 4, [19.73079, 20.690527, 19.938622]),
    (4, "16-ffaa:0:1001", 7, [24.763844, 25.496291, 25.290918]),
    (5, "16-ffaa:0:1002", 1, [40.266703, 42.175547, 41.283817]),
]

#: The same traceroute on the batch engine: one ``probe_batch`` call
#: per hop over the hop's traversal prefix.
BATCH_TRACEROUTE_GOLDEN = [
    (1, "17-ffaa:0:1107", 3, [9.211037, 9.417593, 9.819304]),
    (2, "17-ffaa:0:1102", 2, [10.662512, 10.196335, 10.401965]),
    (3, "19-ffaa:0:1301", 4, [20.760542, 19.244496, 19.934685]),
    (4, "16-ffaa:0:1001", 7, [25.042517, 25.607221, 24.70639]),
    (5, "16-ffaa:0:1002", 1, [41.612137, 41.544283, 40.384614]),
]


def _path_user_to_leaf(topology):
    """user -> ap -> core1a -> core2 -> leaf as LinkTraversals."""
    hops = ["1-ffaa:1:1", "1-ffaa:0:3", "1-ffaa:0:1", "2-ffaa:0:1", "2-ffaa:0:2"]
    steps = []
    for a, b in zip(hops, hops[1:]):
        link = topology.link_between(a, b)[0]
        steps.append(LinkTraversal(link=link, sender=ISDAS.parse(a)))
    return steps


def _packet(n_hops=5):
    return PacketSpec(payload_bytes=16, n_hops=n_hops, n_segments=2)


def _times(count, interval=0.1, t0=0.0):
    """Send times of one echo series: ``t0 + i * interval``."""
    return t0 + np.arange(count, dtype=np.float64) * interval


def _fresh_net(seed):
    return NetworkSim(build_tiny_world(), NetworkConfig(seed=seed))


# -- shape + bookkeeping -------------------------------------------------------


class TestBatchSeriesShape:
    def test_validation(self):
        net = _fresh_net(7)
        steps = _path_user_to_leaf(net.topology)
        with pytest.raises(ValidationError):
            probe_batch(net, [], _packet(), _times(10))
        with pytest.raises(ValidationError):
            probe_batch(net, steps, _packet(), _times(0))
        with pytest.raises(ValidationError):
            probe_batch(net, steps, _packet(), np.array([-1.0]))

    def test_send_times_and_alignment(self):
        net = _fresh_net(7)
        steps = _path_user_to_leaf(net.topology)
        series = net.probe_batch(steps, _packet(), _times(30, 0.1, 5.0))
        assert series.count == 30
        assert series.send_times_s[0] == pytest.approx(5.0)
        assert series.send_times_s[-1] == pytest.approx(5.0 + 29 * 0.1)
        assert series.rtt_ms.shape == series.send_times_s.shape
        assert series.received == 30 - int(np.count_nonzero(series.lost_mask))
        assert len(series.received_rtts()) == series.received

    def test_roundtrip_steps_mirror(self):
        net = _fresh_net(7)
        steps = _path_user_to_leaf(net.topology)
        full = roundtrip_steps(steps)
        assert len(full) == 2 * len(steps)
        assert list(full[: len(steps)]) == list(steps)
        # The return half crosses the same links with swapped senders,
        # in reverse order.
        for fwd, back in zip(steps, reversed(full[len(steps):])):
            assert back.link is fwd.link
            assert back.sender == fwd.link.other(fwd.sender)

    def test_does_not_advance_clock(self):
        net = _fresh_net(7)
        steps = _path_user_to_leaf(net.topology)
        before = net.clock.now_s
        net.probe_batch(steps, _packet(), _times(30, 0.1))
        assert net.clock.now_s == before

    def test_counters_increment(self):
        net = _fresh_net(7)
        steps = _path_user_to_leaf(net.topology)
        net.probe_batch(steps, _packet(), _times(30, 0.1))
        net.probe_batch(steps, _packet(), _times(10, 0.1))
        assert net.counters.batch_series == 2
        assert net.counters.batch_packets == 40

    def test_rtts_exceed_static_floor(self):
        """Every surviving RTT ≥ round-trip propagation (sanity bound)."""
        net = _fresh_net(7)
        steps = _path_user_to_leaf(net.topology)
        floor_ms = 2 * sum(
            net.link_state(s.link).propagation_ms for s in steps
        )
        series = net.probe_batch(steps, _packet(), _times(200, 0.1))
        assert all(r >= floor_ms for r in series.received_rtts())


# -- determinism contract ------------------------------------------------------


class TestSeededDeterminism:
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @FAST_SETTINGS
    def test_probe_batch_is_seed_deterministic(self, seed):
        """Same seed ⇒ byte-identical rtt vectors, run after run."""

        def run():
            net = _fresh_net(seed)
            steps = _path_user_to_leaf(net.topology)
            return net.probe_batch(steps, _packet(), _times(100, 0.1))

        first, second = run(), run()
        np.testing.assert_array_equal(first.send_times_s, second.send_times_s)
        np.testing.assert_array_equal(first.rtt_ms, second.rtt_ms)

    def test_echo_series_deterministic_across_hosts(self):
        """Two freshly built hosts with the same seed agree byte-for-byte."""

        def run():
            host = ScionHost.scionlab(seed=42)
            path = host.paths("16-ffaa:0:1002", max_paths=1)[0]
            return host.ping("16-ffaa:0:1002", "10.2.0.2", path=path, count=60)

        a, b = run(), run()
        assert a.rtts_ms == b.rtts_ms
        assert a.received == b.received

    def test_different_seeds_differ(self):
        steps_a = _path_user_to_leaf(build_tiny_world())
        net_a = _fresh_net(1)
        net_b = _fresh_net(2)
        sa = net_a.probe_batch(
            _path_user_to_leaf(net_a.topology), _packet(), _times(50, 0.1)
        )
        sb = net_b.probe_batch(
            _path_user_to_leaf(net_b.topology), _packet(), _times(50, 0.1)
        )
        assert not np.array_equal(sa.rtt_ms, sb.rtt_ms)
        assert len(steps_a) == 4


class TestBatchScalarAgreement:
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @SLOW_SETTINGS
    def test_mean_rtt_and_loss_agree_at_1k(self, seed):
        """The batch engine and the per-packet reference walker agree
        statistically at count ≥ 1000.

        They consume the per-link streams in different chunk shapes, so
        the comparison is distributional, not sample-wise: matched mean
        RTT (within 2 % or 0.5 ms) and loss fraction (within 2 points)
        over 1000 probes.
        """
        count = 1000
        packet = _packet()

        net = _fresh_net(seed)
        steps = _path_user_to_leaf(net.topology)
        rtts = [
            reference_walker.probe_roundtrip(net, steps, packet, i * 0.1)
            for i in range(count)
        ]
        received = [r for r in rtts if r is not None]
        scalar_mean = float(np.mean(received))
        scalar_loss = 1.0 - len(received) / count

        net = _fresh_net(seed)
        series = net.probe_batch(
            _path_user_to_leaf(net.topology), packet, _times(count, 0.1)
        )
        batch_mean = float(np.mean(series.received_rtts()))
        batch_loss = 1.0 - series.received / count

        assert batch_mean == pytest.approx(
            scalar_mean, rel=0.02, abs=0.5
        ), "mean RTT diverged between the batch engine and the reference"
        assert abs(batch_loss - scalar_loss) < 0.02


class TestRevocationBlackhole:
    def test_blackholed_link_drops_everything_in_batch_mode(self):
        """A monitor revocation must kill batch probes like scalar ones."""
        net = _fresh_net(7)
        steps = _path_user_to_leaf(net.topology)
        link = steps[2].link  # core1a <-> core2, on the path
        ifid = link.interface_of(ISDAS.parse("1-ffaa:0:1"))
        store = RevocationStore(net.topology)
        store.inject(
            Revocation(
                isd_as=ISDAS.parse("1-ffaa:0:1"),
                interface=ifid,
                issued_at_s=0.0,
                expires_at_s=1e6,
                reason="link down",
            ),
            network=net,
        )
        series = net.probe_batch(steps, _packet(), _times(500, 0.1, 10.0))
        assert series.received == 0
        assert bool(series.lost_mask.all())

    def test_blackhole_window_is_respected(self):
        """Probes outside the revocation validity window survive."""
        net = _fresh_net(7)
        steps = _path_user_to_leaf(net.topology)
        net.add_episode(
            CongestionEpisode.on_links([steps[0].link], 10.0, 20.0, loss=1.0)
        )
        series = net.probe_batch(steps, _packet(), _times(300, 0.1))
        send = series.send_times_s
        inside = (send >= 10.0) & (send < 20.0)
        assert bool(series.lost_mask[inside].all())
        # Most probes outside the window survive (residual loss only).
        outside_received = int(np.count_nonzero(~series.lost_mask[~inside]))
        assert outside_received > 0.9 * int(np.count_nonzero(~inside))


# -- goldens -------------------------------------------------------------------


def _campaign_digest():
    client = DocDBClient()
    db = client["upin"]
    seed_servers(db)
    host = ScionHost(
        build_scionlab_world(), MY_AS, config=scionlab_network_config(seed=20231112)
    )
    config = SuiteConfig(iterations=1, destination_ids=study_destination_ids())
    PathsCollector(host, db, config).collect()
    report = TestRunner(host, db, config).run()
    docs = sorted(db[STATS_COLLECTION].find({}), key=lambda d: d["_id"])
    blob = json.dumps(docs, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest(), report


def _journal_digest(scenario):
    events = scenario.journal.events()
    blob = json.dumps(events, sort_keys=True, default=str).encode()
    return len(events), hashlib.sha256(blob).hexdigest()


def _seeded_traceroute(traceroute):
    """``traceroute(scmp, path)`` on the seed-7 world, rounded to 1 ns."""
    host = ScionHost.scionlab(seed=7)
    path = host.paths("16-ffaa:0:1002", max_paths=1)[0]
    hops = traceroute(host.scmp, path)
    got = [
        (
            h.index,
            str(h.isd_as),
            h.interface,
            [None if r is None else round(r, 6) for r in h.rtts_ms],
        )
        for h in hops
    ]
    return got, host.clock.now_s


class TestScalarFallbackGolden:
    def test_scalar_fallback_reproduces_pre_batch_campaign(self):
        """The reference walker, patched in for ``echo_series``, is
        byte-identical to the pre-batch engine."""
        with mock.patch.object(
            ScmpService, "echo_series", reference_walker.echo_series
        ):
            digest, report = _campaign_digest()
        assert report.stats_stored == 80
        assert digest == PRE_BATCH_CAMPAIGN_SHA256

    def test_batch_campaign_is_deterministic_but_differs_from_scalar(self):
        """The batch engine re-chunks the RNG streams: deterministic per
        seed, pinned, and different draws from the reference walker."""
        digest_a, report = _campaign_digest()
        digest_b, _ = _campaign_digest()
        assert digest_a == digest_b == BATCH_CAMPAIGN_SHA256
        assert digest_a != PRE_BATCH_CAMPAIGN_SHA256
        assert report.stats_stored == 80
        # The whole campaign rode the fast path: one batch series per
        # ping, and nothing walked packet by packet.
        assert m.counter_value(report.metrics, m.NET_BATCH_SERIES) == 80
        assert m.counter_value(report.metrics, m.NET_SCALAR_PROBES) == 0


class TestMonitorJournalGolden:
    def test_outage_journal_pinned(self):
        assert _journal_digest(run_outage_scenario(rounds=8)) == (
            OUTAGE_JOURNAL_SHA256
        )

    def test_outage_journal_with_200_extra_flows_pinned(self):
        assert _journal_digest(
            run_outage_scenario(rounds=8, extra_flows=200)
        ) == OUTAGE_200_FLOWS_JOURNAL_SHA256


class TestTracerouteGolden:
    def test_seeded_traceroute_pins_partial_probe_streams(self):
        """The reference walker keeps the pre-batch traceroute: its
        prefix probes interleave the shared per-link streams."""
        got, _ = _seeded_traceroute(reference_walker.traceroute)
        assert got == TRACEROUTE_GOLDEN

    def test_batch_traceroute_golden(self):
        got, _ = _seeded_traceroute(ScmpService.traceroute)
        assert got == BATCH_TRACEROUTE_GOLDEN

    def test_clock_matches_reference(self):
        """Both engines step the clock once per probe, bit for bit."""
        _, batch_clock = _seeded_traceroute(ScmpService.traceroute)
        _, reference_clock = _seeded_traceroute(reference_walker.traceroute)
        assert batch_clock == reference_clock


class TestEchoSeriesDownServer:
    def test_clock_steps_once_per_probe_like_reference(self):
        """A DOWN server answers nothing, and the clock takes one step
        per unanswered probe, bit for bit where the reference leaves it
        (30 steps of 0.1 s do not sum to exactly 3.0)."""
        clocks = []
        for echo_series in (ScmpService.echo_series, reference_walker.echo_series):
            host = ScionHost.scionlab(seed=7)
            path = host.paths("16-ffaa:0:1002", max_paths=1)[0]
            host.network.servers.set_health(path.dst, "10.2.0.2", ServerHealth.DOWN)
            stats = echo_series(host.scmp, path, "10.2.0.2", count=30)
            assert (stats.sent, stats.received, stats.rtts_ms) == (30, 0, ())
            clocks.append(host.clock.now_s)
        assert clocks[0] == clocks[1] != 3.0


class TestTracerouteLoss:
    def test_hops_behind_a_blackout_read_none(self):
        """Lost probes (NaN lanes) come back as ``None``, per hop."""
        host = ScionHost.scionlab(seed=7)
        path = host.paths("16-ffaa:0:1002", max_paths=1)[0]
        third_link = path.traversals(host.topology)[2].link
        host.network.add_episode(
            CongestionEpisode.on_links([third_link], 0.0, 1e6, loss=1.0)
        )
        hops = host.scmp.traceroute(path)
        assert all(r is not None for h in hops[:2] for r in h.rtts_ms)
        assert all(r is None for h in hops[2:] for r in h.rtts_ms)


class TestTracerouteValidation:
    """Bad arguments fail before the clock moves or a link draws noise."""

    @staticmethod
    def _state(host, path):
        noise = [
            host.network.link_state(step.link)._noise.bit_generator.state
            for step in path.traversals(host.topology)
        ]
        return host.clock.now_s, noise

    @pytest.mark.parametrize(
        "kwargs", [{"probes_per_hop": 0}, {"interval_s": -0.05}]
    )
    def test_rejected_before_any_draw(self, kwargs):
        host = ScionHost.scionlab(seed=7)
        path = host.paths("16-ffaa:0:1002", max_paths=1)[0]
        before = self._state(host, path)
        with pytest.raises(ValidationError):
            host.scmp.traceroute(path, **kwargs)
        assert self._state(host, path) == before

    def test_zero_interval_allowed(self):
        host = ScionHost.scionlab(seed=7)
        path = host.paths("16-ffaa:0:1002", max_paths=1)[0]
        before = host.clock.now_s
        hops = host.scmp.traceroute(path, probes_per_hop=2, interval_s=0.0)
        assert [len(h.rtts_ms) for h in hops] == [2] * len(hops)
        assert host.clock.now_s == before


class TestBadTimesRejected:
    """Non-finite or negative times fail with ``ValidationError`` before
    the clock moves, the ledger is pruned or any link draws noise."""

    @staticmethod
    def _state(net, steps):
        noise = [net.link_state(step.link)._noise.bit_generator.state for step in steps]
        transfer_noise = net._streams.get("bwtest:noise").bit_generator.state
        return net.clock.now_s, noise, transfer_noise, len(net.flows)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_probe_batch_rejects_non_finite_send_times(self, bad):
        net = _fresh_net(7)
        steps = _path_user_to_leaf(net.topology)
        net.clock.advance(5.0)
        before = self._state(net, steps)
        times = _times(10, t0=5.0)
        times[3] = bad
        with pytest.raises(ValidationError, match="finite"):
            probe_batch(net, steps, _packet(), times)
        with pytest.raises(ValidationError, match="finite"):
            net.probe_batch(steps, _packet(), times.reshape(2, 5))
        assert self._state(net, steps) == before

    @pytest.mark.parametrize("t_s", [-10.0, -1e-9, np.nan, np.inf, -np.inf])
    def test_fluid_transfer_rejects_bad_start(self, t_s):
        net = _fresh_net(7)
        steps = _path_user_to_leaf(net.topology)
        packet = PacketSpec(payload_bytes=1400, n_hops=5, n_segments=2)
        net.fluid_transfer(steps, 5e6, packet, duration_s=3.0, register_flow=True)
        before = self._state(net, steps)
        with pytest.raises(ValidationError, match="transfer start"):
            net.fluid_transfer(
                steps, 5e6, packet, duration_s=3.0, t_s=t_s, register_flow=True
            )
        assert self._state(net, steps) == before

    def test_fluid_transfer_start_at_zero_allowed(self):
        net = _fresh_net(7)
        steps = _path_user_to_leaf(net.topology)
        packet = PacketSpec(payload_bytes=1400, n_hops=5, n_segments=2)
        result = net.fluid_transfer(steps, 5e6, packet, duration_s=3.0, t_s=0.0)
        assert 0.0 < result.achieved_bps <= 5e6


# -- flow ledger ---------------------------------------------------------------


class TestFlowLedgerBounded:
    def test_ledger_stays_bounded_over_1000_transfers(self):
        """Sequential registered transfers prune as the clock advances."""
        net = _fresh_net(7)
        steps = _path_user_to_leaf(net.topology)
        packet = PacketSpec(payload_bytes=1400, n_hops=5, n_segments=2)
        high_water = 0
        for _ in range(1000):
            net.fluid_transfer(
                steps, 5e6, packet, duration_s=3.0, register_flow=True
            )
            net.clock.advance(4.0)  # next transfer starts after this one ends
            high_water = max(high_water, len(net.flows))
        # 4 links × 1 open flow each, plus at most one generation awaiting
        # the next prune: bounded, not O(transfers).
        assert high_water <= 2 * len(steps)
        assert net.counters.ledger_pruned_flows > 0

    def test_overlapping_flows_survive_prune(self):
        net = _fresh_net(7)
        steps = _path_user_to_leaf(net.topology)
        packet = PacketSpec(payload_bytes=1400, n_hops=5, n_segments=2)
        net.fluid_transfer(steps, 5e6, packet, duration_s=100.0, register_flow=True)
        before = len(net.flows)
        net.clock.advance(1.0)
        net.fluid_transfer(steps, 5e6, packet, duration_s=1.0, register_flow=True)
        # The long-lived flow still overlaps: nothing pruned from it.
        assert len(net.flows) == before + len(steps)

    def test_competing_flow_reduces_throughput(self):
        """The indexed ledger still feeds contention into fluid_share."""
        net = _fresh_net(7)
        steps = _path_user_to_leaf(net.topology)
        packet = PacketSpec(payload_bytes=1400, n_hops=5, n_segments=2)
        alone = net.fluid_transfer(steps, 30e6, packet, duration_s=3.0)
        net.fluid_transfer(steps, 30e6, packet, duration_s=3.0, register_flow=True)
        contended = net.fluid_transfer(steps, 30e6, packet, duration_s=3.0)
        assert contended.achieved_bps < alone.achieved_bps


# -- sciond sequence index -----------------------------------------------------


class TestSequenceIndex:
    def test_repeated_lookups_do_not_recombine(self, monkeypatch):
        host = ScionHost.scionlab(seed=7)
        calls = {"n": 0}
        import repro.scion.daemon as daemon_mod

        real = daemon_mod.combine_paths

        def counting(*args, **kwargs):
            calls["n"] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(daemon_mod, "combine_paths", counting)
        paths = host.paths("16-ffaa:0:1002", max_paths=None)
        baseline = calls["n"]
        for path in paths:
            for _ in range(3):
                found = host.daemon.path_by_sequence(
                    "16-ffaa:0:1002", path.sequence()
                )
                assert found is not None
                assert found.sequence() == path.sequence()
        assert calls["n"] == baseline  # index served every lookup

    def test_index_invalidated_by_flush(self):
        host = ScionHost.scionlab(seed=7)
        path = host.paths("16-ffaa:0:1002", max_paths=1)[0]
        assert host.daemon.path_by_sequence(
            "16-ffaa:0:1002", path.sequence()
        ) is not None
        host.daemon.flush()
        # After a flush the index rebuilds from a fresh combination and
        # still resolves the same sequence.
        again = host.daemon.path_by_sequence("16-ffaa:0:1002", path.sequence())
        assert again is not None
        assert again.sequence() == path.sequence()

    def test_unknown_sequence_returns_none(self):
        host = ScionHost.scionlab(seed=7)
        assert host.daemon.path_by_sequence("16-ffaa:0:1002", "1-0:0:1#0,0") is None


# -- fluid-transfer windows -----------------------------------------------------


class TestFluidWindow:
    def test_window_after_add_episode_reflects_it(self):
        net = _fresh_net(7)
        steps = _path_user_to_leaf(net.topology)
        link = steps[0].link
        state = net.link_state(link)
        direction = state.direction_from(steps[0].sender)
        clean = state.fluid_share(direction, 1e12, 1e3, 0.0, 3.0)
        assert net.episodes.window_disturbance(link, 0.0, 3.0) == (0.0, 1.0)
        net.add_episode(CongestionEpisode.on_links([link], 0.0, 3.0, loss=0.5))
        # The same window, computed after the episode, sees it.
        ep_loss, _ = net.episodes.window_disturbance(link, 0.0, 3.0)
        assert ep_loss == pytest.approx(0.5)
        disturbed = state.fluid_share(direction, 1e12, 1e3, 0.0, 3.0)
        assert disturbed[0] < clean[0]


# -- metrics plumbing ----------------------------------------------------------


class TestNetMetrics:
    def test_snapshot_names_cover_all_counters(self):
        net = _fresh_net(7)
        snapshot = m.network_stats_snapshot(net)
        slots = set(net.counters.snapshot())
        assert set(m._NET_STAT_NAMES) == slots

    def test_campaign_report_carries_data_plane_counters(self):
        digest, report = _campaign_digest()
        assert m.counter_value(report.metrics, m.NET_BATCH_PACKETS) == 80 * 30
        text = m.format_metrics(report.metrics)
        assert "data plane:" in text
        assert "batch series" in text


# -- vectorized utilization reads ---------------------------------------------


class TestValuesAt:
    def test_matches_scalar_reads_any_order(self):
        net = _fresh_net(7)
        steps = _path_user_to_leaf(net.topology)
        state = net.link_state(steps[0].link)
        direction = state.direction_from(steps[0].sender)
        proc = state._util[direction]
        times = np.array([7.3, 0.4, 99.0, 12.8, 0.4])
        vector = proc.values_at(times)
        scalars = np.array([proc.value_at(float(t)) for t in times])
        np.testing.assert_allclose(vector, scalars)

    def test_rejects_negative_times(self):
        net = _fresh_net(7)
        steps = _path_user_to_leaf(net.topology)
        state = net.link_state(steps[0].link)
        proc = state._util[LinkDirection.A_TO_B]
        with pytest.raises(ValidationError):
            proc.values_at(np.array([-1.0]))
