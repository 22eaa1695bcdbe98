"""Tests for link dynamics, congestion and the network facade."""

import numpy as np
import pytest

from repro.errors import TopologyError, ValidationError
from repro.netsim.config import NetworkConfig, PpsLimits
from repro.netsim.congestion import CongestionEpisode, EpisodeSchedule
from repro.netsim.link import LinkDirection
from repro.netsim.network import (
    LinkTraversal,
    NetworkSim,
    ServerDirectory,
    ServerHealth,
)
from repro.netsim.packet import PacketSpec
from repro.topology.isd_as import ISDAS

from tests.helpers import build_tiny_world


@pytest.fixture()
def net():
    return NetworkSim(build_tiny_world(), NetworkConfig(seed=7))


def _path_user_to_leaf(topology):
    """user -> ap -> core1a -> core2 -> leaf as LinkTraversals."""
    hops = ["1-ffaa:1:1", "1-ffaa:0:3", "1-ffaa:0:1", "2-ffaa:0:1", "2-ffaa:0:2"]
    steps = []
    for a, b in zip(hops, hops[1:]):
        link = topology.link_between(a, b)[0]
        steps.append(LinkTraversal(link=link, sender=ISDAS.parse(a)))
    return steps


class TestCongestionEpisode:
    def test_requires_target(self):
        with pytest.raises(ValidationError):
            CongestionEpisode(start_s=0, end_s=1)

    def test_requires_positive_duration(self):
        with pytest.raises(ValidationError):
            CongestionEpisode.on_ases(["1-0:0:1"], 5, 5)

    def test_active_window_half_open(self):
        ep = CongestionEpisode.on_ases(["1-0:0:1"], 1.0, 2.0)
        assert not ep.active_at(0.99)
        assert ep.active_at(1.0)
        assert ep.active_at(1.99)
        assert not ep.active_at(2.0)

    def test_affects_by_as(self):
        topo = build_tiny_world()
        link = topo.link_between("1-ffaa:0:1", "2-ffaa:0:1")[0]
        ep = CongestionEpisode.on_ases(["2-ffaa:0:1"], 0, 1)
        assert ep.affects(link)
        other = topo.link_between("1-ffaa:0:3", "1-ffaa:1:1")[0]
        assert not ep.affects(other)

    def test_affects_by_link(self):
        topo = build_tiny_world()
        link = topo.link_between("1-ffaa:0:1", "2-ffaa:0:1")[0]
        ep = CongestionEpisode.on_links([link], 0, 1)
        assert ep.affects(link)

    def test_schedule_composition(self):
        topo = build_tiny_world()
        link = topo.link_between("1-ffaa:0:1", "2-ffaa:0:1")[0]
        sched = EpisodeSchedule(
            [
                CongestionEpisode.on_links([link], 0, 10, loss=0.5, capacity_factor=0.5),
                CongestionEpisode.on_links([link], 0, 10, loss=0.5, capacity_factor=0.5),
            ]
        )
        loss, cap = sched.disturbance(link, 5.0)
        assert loss == pytest.approx(0.75)  # 1 - 0.5*0.5
        assert cap == pytest.approx(0.25)

    def test_window_disturbance_time_weighted(self):
        topo = build_tiny_world()
        link = topo.link_between("1-ffaa:0:1", "2-ffaa:0:1")[0]
        sched = EpisodeSchedule(
            [CongestionEpisode.on_links([link], 5.0, 10.0, loss=1.0)]
        )
        loss, _cap = sched.window_disturbance(link, 0.0, 10.0)
        assert loss == pytest.approx(0.5)

    def test_inactive_schedule_is_clean(self):
        topo = build_tiny_world()
        link = topo.link_between("1-ffaa:0:1", "2-ffaa:0:1")[0]
        loss, cap = EpisodeSchedule().disturbance(link, 0.0)
        assert loss == 0.0 and cap == 1.0


class TestLinkState:
    def test_propagation_from_geography(self, net):
        topo = net.topology
        short = net.link_state(topo.link_between("1-ffaa:0:1", "1-ffaa:0:3")[0])
        long = net.link_state(topo.link_between("2-ffaa:0:1", "2-ffaa:0:2")[0])
        assert long.propagation_ms > short.propagation_ms

    def test_direction_from(self, net):
        link = net.topology.link_between("1-ffaa:0:1", "2-ffaa:0:1")[0]
        state = net.link_state(link)
        assert state.direction_from(link.a) is LinkDirection.A_TO_B
        assert state.direction_from(link.b) is LinkDirection.B_TO_A

    def test_transit_packet_delay_positive(self, net):
        link = net.topology.link_between("1-ffaa:0:1", "2-ffaa:0:1")[0]
        state = net.link_state(link)
        delay_ms, _ = state.transit_batch(
            LinkDirection.A_TO_B, 1000, 1, np.zeros(1)
        )
        assert delay_ms[0] > state.propagation_ms

    def test_blackout_episode_drops_everything(self, net):
        link = net.topology.link_between("1-ffaa:0:1", "2-ffaa:0:1")[0]
        net.add_episode(CongestionEpisode.on_links([link], 0.0, 100.0, loss=1.0))
        state = net.link_state(link)
        _, dropped = state.transit_batch(
            LinkDirection.A_TO_B, 100, 1, np.full(20, 1.0)
        )
        assert dropped.all()

    def test_fluid_share_clips_offered_load(self, net):
        link = net.topology.link_between("1-ffaa:0:3", "1-ffaa:1:1")[0]
        state = net.link_state(link)
        # Upstream (user -> ap) capacity is 16 Mbps; offer 160 Mbps.
        byte_ratio, _ = state.fluid_share(
            LinkDirection.B_TO_A, 160e6, 1000.0, 0.0, 3.0
        )
        assert byte_ratio < 0.15

    def test_fluid_share_pps_budget(self):
        config = NetworkConfig(
            seed=7,
            pps_overrides={ISDAS.parse("1-ffaa:1:1"): PpsLimits(send=1000, recv=1000)},
        )
        net = NetworkSim(build_tiny_world(), config)
        link = net.topology.link_between("1-ffaa:0:3", "1-ffaa:1:1")[0]
        state = net.link_state(link)
        _, pps_ratio = state.fluid_share(LinkDirection.B_TO_A, 1e6, 10_000.0, 0.0, 3.0)
        assert pps_ratio == pytest.approx(0.1)


def _oneway_ms(net, steps, packet, t_s):
    """Forward delay of one packet sent at ``t_s``, link by link."""
    total_ms = 0.0
    for step in steps:
        state = net.link_state(step.link)
        delay_ms, _ = state.transit_batch(
            state.direction_from(step.sender),
            packet.total_wire_bytes,
            packet.fragments,
            np.array([t_s + total_ms / 1e3]),
        )
        total_ms += float(delay_ms[0])
    return total_ms


def _rtt_ms(net, steps, packet, t_s):
    """RTT of one echo sent at ``t_s`` (NaN when lost)."""
    return float(net.probe_batch(steps, packet, np.array([t_s])).rtt_ms[0])


class TestNetworkSim:
    def test_oneway_transit_accumulates_delay(self, net):
        steps = _path_user_to_leaf(net.topology)
        packet = PacketSpec(payload_bytes=64, n_hops=5)
        # Amsterdam->Zurich->Frankfurt->Dublin
        assert _oneway_ms(net, steps, packet, 0.0) > 10.0

    def test_empty_path_rejected(self, net):
        with pytest.raises(ValidationError):
            net.probe_batch(
                [], PacketSpec(payload_bytes=64, n_hops=1), np.zeros(1)
            )

    def test_roundtrip_roughly_double_oneway(self, net):
        steps = _path_user_to_leaf(net.topology)
        packet = PacketSpec(payload_bytes=64, n_hops=5)
        one = _oneway_ms(net, steps, packet, 0.0)
        rtt = _rtt_ms(net, steps, packet, 0.0)
        assert one < rtt
        assert rtt == pytest.approx(2 * one, rel=0.5)

    def test_probe_partial_shorter_than_full(self, net):
        """A probe to the first router beats one to the destination."""
        steps = _path_user_to_leaf(net.topology)
        packet = PacketSpec(payload_bytes=64, n_hops=5)
        partial = _rtt_ms(net, steps[:1], packet, 0.0)
        full = _rtt_ms(net, steps, packet, 0.0)
        assert partial < full

    def test_probe_lost_during_blackout(self, net):
        steps = _path_user_to_leaf(net.topology)
        net.add_episode(CongestionEpisode.on_ases(["2-ffaa:0:1"], 0.0, 100.0))
        packet = PacketSpec(payload_bytes=64, n_hops=5)
        assert np.isnan(_rtt_ms(net, steps, packet, 1.0))

    def test_unknown_link_rejected(self, net):
        from repro.topology.entities import LinkKind, LinkSpec

        foreign = LinkSpec(
            a=ISDAS.parse("1-ffaa:0:1"), a_ifid=90,
            b=ISDAS.parse("2-ffaa:0:1"), b_ifid=91, kind=LinkKind.CORE,
        )
        with pytest.raises(TopologyError):
            net.link_state(foreign)

    def test_fluid_transfer_at_low_rate_near_target(self, net):
        steps = _path_user_to_leaf(net.topology)
        packet = PacketSpec(payload_bytes=1472, n_hops=5)
        result = net.fluid_transfer(steps, 1e6, packet, 3.0)
        assert result.achieved_bps == pytest.approx(1e6, rel=0.2)
        assert result.loss_fraction < 0.1

    def test_fluid_transfer_clipped_at_capacity(self, net):
        steps = _path_user_to_leaf(net.topology)
        packet = PacketSpec(payload_bytes=1472, n_hops=5)
        result = net.fluid_transfer(steps, 200e6, packet, 3.0)
        assert result.achieved_bps < 40e6

    def test_fluid_transfer_counts_packets(self, net):
        steps = _path_user_to_leaf(net.topology)
        packet = PacketSpec(payload_bytes=1000, n_hops=5)
        result = net.fluid_transfer(steps, 8e6, packet, 3.0)
        assert result.sent_packets == 3000
        assert 0 < result.received_packets <= result.sent_packets

    def test_fluid_transfer_validation(self, net):
        steps = _path_user_to_leaf(net.topology)
        packet = PacketSpec(payload_bytes=64, n_hops=5)
        with pytest.raises(ValidationError):
            net.fluid_transfer(steps, 0.0, packet, 3.0)
        with pytest.raises(ValidationError):
            net.fluid_transfer([], 1e6, packet, 3.0)

    def test_blackout_zeroes_fluid_transfer(self, net):
        steps = _path_user_to_leaf(net.topology)
        net.add_episode(
            CongestionEpisode.on_ases(["2-ffaa:0:1"], 0.0, 100.0, loss=1.0)
        )
        packet = PacketSpec(payload_bytes=1472, n_hops=5)
        result = net.fluid_transfer(steps, 1e6, packet, 3.0)
        assert result.achieved_bps < 5e4
        assert result.loss_fraction > 0.95

    def test_determinism_across_instances(self):
        topo = build_tiny_world()
        results = []
        for _ in range(2):
            net = NetworkSim(topo, NetworkConfig(seed=99))
            steps = _path_user_to_leaf(topo)
            packet = PacketSpec(payload_bytes=64, n_hops=5)
            rtt = _rtt_ms(net, steps, packet, 0.0)
            bw = net.fluid_transfer(steps, 5e6, packet, 3.0).achieved_bps
            results.append((rtt, bw))
        assert results[0] == results[1]


class TestServerDirectory:
    def test_default_up(self):
        d = ServerDirectory()
        assert d.health("1-0:0:1", "10.0.0.1") is ServerHealth.UP

    def test_set_and_reset(self):
        d = ServerDirectory()
        d.set_health("1-0:0:1", "10.0.0.1", ServerHealth.DOWN)
        assert d.health("1-0:0:1", "10.0.0.1") is ServerHealth.DOWN
        # Distinct IPs on the same AS tracked separately.
        assert d.health("1-0:0:1", "10.0.0.2") is ServerHealth.UP
        d.reset()
        assert d.health("1-0:0:1", "10.0.0.1") is ServerHealth.UP
