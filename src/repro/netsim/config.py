"""Tunable parameters of the network substrate.

All knobs live here so experiments can state their world in one place
and tests can build small, fast configurations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro.netsim.packet import DEFAULT_UNDERLAY_MTU
from repro.topology.isd_as import ISDAS


@dataclass
class PpsLimits:
    """Router packet-per-second processing limits for one AS.

    ``send`` bounds packets the AS can emit per second, ``recv`` packets
    it can absorb.  SCIONLab user ASes are software routers inside small
    VMs, so their limits sit far below the hardware-ish defaults — this
    is what caps small-packet bandwidth tests (Fig 7's 64-byte whiskers).
    """

    send: float = 50_000.0
    recv: float = 50_000.0


@dataclass
class UtilizationParams:
    """AR(1) cross-traffic utilization process parameters.

    ``u[k+1] = mean + rho * (u[k] - mean) + sigma * eps``, sampled every
    ``step_s`` simulated seconds, clamped to ``[floor, ceil]``.
    """

    mean: float = 0.25
    rho: float = 0.9
    sigma: float = 0.06
    step_s: float = 1.0
    floor: float = 0.0
    ceil: float = 0.93


@dataclass
class NetworkConfig:
    """Complete parameterisation of :class:`repro.netsim.network.NetworkSim`."""

    #: Root seed for every stochastic stream in the simulator.
    seed: int = 20231112  # SC'23 workshop date

    #: Fibre circuity multiplier applied to great-circle distances.
    circuity: float = 1.4

    #: Baseline per-transit jitter (std-dev, ms) added at each hop.
    base_jitter_ms: float = 0.35

    #: Extra per-transit jitter for specific ASes (paper §6.1 calls out
    #: 16-ffaa:0:1007 and 16-ffaa:0:1004).  Keyed by ISD-AS.
    extra_jitter_ms: Dict[ISDAS, float] = field(default_factory=dict)

    #: Queueing delay scale: queue_ms = scale * rho / (1 - rho).
    queue_scale_ms: float = 0.8

    #: Per-link residual loss applied even when idle.
    default_base_loss: float = 0.0008

    #: Underlay MTU for fragmentation decisions.
    underlay_mtu: int = DEFAULT_UNDERLAY_MTU

    #: Default router pps limits; override per AS for small VMs.
    default_pps: PpsLimits = field(default_factory=PpsLimits)
    pps_overrides: Dict[ISDAS, PpsLimits] = field(default_factory=dict)

    #: Cross-traffic processes per link kind ("core"/"parent"/"peer").
    utilization: Dict[str, UtilizationParams] = field(
        default_factory=lambda: {
            "core": UtilizationParams(mean=0.30, sigma=0.07),
            "parent": UtilizationParams(mean=0.22, sigma=0.06),
            "peer": UtilizationParams(mean=0.20, sigma=0.05),
        }
    )

    #: Relative noise (std dev) on achieved bandwidth of fluid transfers,
    #: modelling measurement granularity of the real bwtester.
    bw_noise_rel: float = 0.04

    #: SCMP probe timeout — probes slower than this count as lost.
    probe_timeout_s: float = 2.0

    def pps_for(self, ia: ISDAS) -> PpsLimits:
        return self.pps_overrides.get(ia, self.default_pps)

    def jitter_for(self, ia: ISDAS) -> float:
        return self.base_jitter_ms + self.extra_jitter_ms.get(ia, 0.0)

    def utilization_for(self, kind: str) -> UtilizationParams:
        return self.utilization.get(kind, UtilizationParams())
