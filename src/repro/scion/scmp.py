"""SCMP services: echo (ping) and traceroute over the simulated network.

These are the network-level primitives behind ``scion ping`` and
``scion traceroute`` (§3.3).  Every probe goes through the batch engine
(:meth:`~repro.netsim.network.NetworkSim.probe_batch`): a ping series is
one call, a traceroute one call per hop.  Echo probes advance the shared
simulation clock by their send interval, so a 30-probe ping occupies 3
simulated seconds — which is what lets time-windowed congestion
episodes knock out *consecutive* measurements exactly as in Fig 9.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ValidationError
from repro.netsim.batch import BatchEchoSeries
from repro.netsim.clock import SimClock
from repro.netsim.network import NetworkSim, ServerHealth
from repro.netsim.packet import SCMP_HEADER_BYTES, PacketSpec
from repro.scion.path import Path
from repro.topology.isd_as import ISDAS

DEFAULT_PROBE_PAYLOAD = 8  # SCMP echo data bytes used by scion ping


@dataclass(frozen=True)
class EchoStats:
    """The statistics block ``scion ping`` reports after a run."""

    destination: str
    sent: int
    received: int
    rtts_ms: Tuple[float, ...]

    @property
    def loss_fraction(self) -> float:
        return 1.0 - self.received / self.sent if self.sent else 0.0

    @property
    def loss_pct(self) -> float:
        return 100.0 * self.loss_fraction

    @property
    def min_ms(self) -> float:
        return min(self.rtts_ms) if self.rtts_ms else math.nan

    @property
    def avg_ms(self) -> float:
        return sum(self.rtts_ms) / len(self.rtts_ms) if self.rtts_ms else math.nan

    @property
    def max_ms(self) -> float:
        return max(self.rtts_ms) if self.rtts_ms else math.nan

    @property
    def mdev_ms(self) -> float:
        if len(self.rtts_ms) < 2:
            return 0.0
        avg = self.avg_ms
        return math.sqrt(sum((r - avg) ** 2 for r in self.rtts_ms) / len(self.rtts_ms))


@dataclass(frozen=True)
class TracerouteHop:
    """Per-router result of a traceroute: three probe RTTs (None = lost)."""

    index: int
    isd_as: ISDAS
    interface: int
    rtts_ms: Tuple[Optional[float], ...]


class ScmpService:
    """Echo/traceroute client bound to a network simulator."""

    def __init__(self, network: NetworkSim) -> None:
        self.network = network

    # -- echo -----------------------------------------------------------------

    def _echo_packet(
        self, path: Path, payload_bytes: int = DEFAULT_PROBE_PAYLOAD
    ) -> PacketSpec:
        """The wire shape of one SCMP echo request along ``path``."""
        return PacketSpec(
            payload_bytes=payload_bytes + SCMP_HEADER_BYTES,
            n_hops=path.hop_count,
            n_segments=path.n_segments,
            underlay_mtu=self.network.config.underlay_mtu,
        )

    def answers(self, path: Path, dst_ip: str) -> bool:
        """False when the destination server is DOWN (no echo replies)."""
        return self.network.servers.health(path.dst, dst_ip) is not ServerHealth.DOWN

    def echo_batch(
        self,
        path: Path,
        send_times_s: "np.ndarray",
        *,
        payload_bytes: int = DEFAULT_PROBE_PAYLOAD,
    ) -> BatchEchoSeries:
        """Echo probes along ``path`` departing at ``send_times_s``.

        One :meth:`~repro.netsim.network.NetworkSim.probe_batch` call
        over a send-time array of any shape — the flow monitor passes a
        (flows × probes) matrix for every flow pinned to ``path``.
        Neither advances the clock nor checks server health: callers
        own both (see :meth:`answers`).
        """
        return self.network.probe_batch(
            path.traversals(self.network.topology),
            self._echo_packet(path, payload_bytes),
            send_times_s,
        )

    def echo_series(
        self,
        path: Path,
        dst_ip: str,
        *,
        count: int = 30,
        interval_s: float = 0.1,
        payload_bytes: int = DEFAULT_PROBE_PAYLOAD,
    ) -> EchoStats:
        """Send ``count`` SCMP echoes along ``path``; advances the clock.

        Matches the paper's measurement command: 30 probes at 0.1 s
        intervals (§5.3).  Probe *i* departs at ``t0 + i * interval_s``
        and the whole series is one :meth:`echo_batch` call; the clock
        then advances by ``count * interval_s``.  A DOWN server answers
        nothing.
        """
        if count < 1:
            raise ValidationError(f"echo count must be >= 1: {count}")
        if interval_s <= 0:
            raise ValidationError("echo interval must be positive")
        clock = self.network.clock
        destination = path.dst.address(dst_ip)
        if not self.answers(path, dst_ip):
            # One step per probe: ``count`` additions of ``interval_s``
            # need not equal ``count * interval_s``, and the seeded
            # outputs of fault-injected campaigns depend on these exact
            # clock values.
            for _ in range(count):
                clock.advance(interval_s)
            return EchoStats(
                destination=destination, sent=count, received=0, rtts_ms=()
            )
        series = self.echo_batch(
            path,
            clock.now_s + np.arange(count, dtype=np.float64) * interval_s,
            payload_bytes=payload_bytes,
        )
        clock.advance(count * interval_s)
        return EchoStats(
            destination=destination,
            sent=count,
            received=series.received,
            rtts_ms=series.received_rtts(),
        )

    # -- traceroute ------------------------------------------------------------------

    def traceroute(
        self,
        path: Path,
        *,
        probes_per_hop: int = 3,
        interval_s: float = 0.05,
    ) -> List[TracerouteHop]:
        """Probe every router interface along ``path`` in order.

        Each hop is one :meth:`~repro.netsim.network.NetworkSim.
        probe_batch` call over the hop's traversal prefix, with an
        empty payload.  Probe *j* of a hop departs at the clock value
        read before its ``advance(interval_s)``, so the clock steps once
        per probe.  Lost probes read ``None``.
        """
        if probes_per_hop < 1:
            raise ValidationError(
                f"traceroute needs >= 1 probe per hop: {probes_per_hop}"
            )
        if interval_s < 0:
            raise ValidationError("traceroute interval must not be negative")
        traversals = path.traversals(self.network.topology)
        packet = self._echo_packet(path, payload_bytes=0)
        clock = self.network.clock
        hops: List[TracerouteHop] = []
        for idx in range(1, len(traversals) + 1):
            send_times = np.empty(probes_per_hop, dtype=np.float64)
            for j in range(probes_per_hop):
                send_times[j] = clock.now_s
                clock.advance(interval_s)
            series = self.network.probe_batch(traversals[:idx], packet, send_times)
            step = traversals[idx - 1]
            arrived = step.link.other(step.sender)
            hops.append(
                TracerouteHop(
                    index=idx,
                    isd_as=arrived,
                    interface=step.link.interface_of(arrived),
                    rtts_ms=tuple(
                        None if math.isnan(rtt) else float(rtt)
                        for rtt in series.rtt_ms
                    ),
                )
            )
        return hops
