"""Discrete-event network substrate standing in for the live SCIONLab WAN.

The paper measures a real overlay testbed; offline we reproduce the
*mechanisms* that shaped its results:

* per-link propagation delay derived from great-circle geography
  (dominant latency factor, §6.1),
* stochastic cross-traffic (AR(1) utilization processes) producing
  queueing delay, jitter and sample spread,
* directional link capacities and router packet-per-second limits —
  the sources of the upstream/downstream and 64 B/MTU bandwidth
  structure (Fig 7),
* UDP-overlay encapsulation with fragmentation of MTU-sized SCION
  packets, whose compounding fragment loss under overload produces the
  12 Mbps -> 150 Mbps trend reversal (Fig 8),
* scheduled congestion episodes, reproducing the transient 100 %-loss
  path cluster of Fig 9.

Everything is seeded through :class:`repro.util.rng.RngStreams`.
"""

from repro.netsim.clock import SimClock
from repro.netsim.events import EventQueue
from repro.netsim.config import NetworkConfig
from repro.netsim.packet import (
    OVERLAY_HEADER_BYTES,
    scion_header_bytes,
    wire_size_bytes,
    fragment_count,
)
from repro.netsim.congestion import CongestionEpisode
from repro.netsim.link import LinkDirection, LinkLane, LinkState
from repro.netsim.network import LinkTraversal, NetworkSim, PathPlan, TransferResult

__all__ = [
    "SimClock",
    "EventQueue",
    "NetworkConfig",
    "OVERLAY_HEADER_BYTES",
    "scion_header_bytes",
    "wire_size_bytes",
    "fragment_count",
    "CongestionEpisode",
    "LinkDirection",
    "LinkLane",
    "LinkState",
    "LinkTraversal",
    "NetworkSim",
    "PathPlan",
    "TransferResult",
]
