"""Per-link dynamic state: delay, jitter, queueing, loss, capacity shares.

A :class:`LinkState` is the simulator's live counterpart of a static
:class:`repro.topology.entities.LinkSpec`.  Direction matters: each
direction has its own capacity, its own cross-traffic process, and its
own pps budget (taken from the sending AS's router limits).
"""

from __future__ import annotations

import enum
from typing import Optional, Tuple

import numpy as np

from repro.netsim.config import NetworkConfig
from repro.netsim.congestion import EpisodeSchedule
from repro.netsim.counters import NetCounters
from repro.netsim.procs import UtilizationProcess
from repro.topology.entities import AutonomousSystem, LinkSpec
from repro.topology.isd_as import ISDAS
from repro.util.geo import propagation_delay_ms
from repro.util.rng import RngStreams

class LinkDirection(enum.Enum):
    """Traffic direction relative to the LinkSpec's (a, b) endpoints."""

    A_TO_B = "ab"
    B_TO_A = "ba"


class LinkState:
    """Dynamic behaviour of one inter-AS link."""

    def __init__(
        self,
        spec: LinkSpec,
        a_sys: AutonomousSystem,
        b_sys: AutonomousSystem,
        config: NetworkConfig,
        streams: RngStreams,
        episodes: EpisodeSchedule,
        counters: Optional[NetCounters] = None,
    ) -> None:
        self.spec = spec
        self.config = config
        self.episodes = episodes
        self.counters = counters if counters is not None else NetCounters()
        self._a = a_sys
        self._b = b_sys
        self.propagation_ms = propagation_delay_ms(
            a_sys.location, b_sys.location, circuity=config.circuity
        )
        util_params = config.utilization_for(spec.kind.value)
        key = f"link:{spec.a}#{spec.a_ifid}>{spec.b}#{spec.b_ifid}"
        self._util = {
            LinkDirection.A_TO_B: UtilizationProcess(
                util_params, streams.get(f"{key}:util:ab")
            ),
            LinkDirection.B_TO_A: UtilizationProcess(
                util_params, streams.get(f"{key}:util:ba")
            ),
        }
        self._noise = streams.get(f"{key}:noise")
        # Per-direction constants, resolved once: capacity, the receiving
        # AS's jitter scale, the min of sender-send/receiver-recv pps
        # budgets, and the residual loss floor.  All are immutable for
        # the lifetime of the LinkState, and the transit/fluid hot paths
        # re-read them for every traversal step of every measurement.
        self._cap_bps = {
            LinkDirection.A_TO_B: spec.capacity_ab_mbps * 1e6,
            LinkDirection.B_TO_A: spec.capacity_ba_mbps * 1e6,
        }
        self._jitter_scale = {
            d: config.jitter_for(self._receiver_sys(d).isd_as)
            for d in LinkDirection
        }
        self._pps_budget = {
            d: min(
                config.pps_for(self._sender_sys(d).isd_as).send,
                config.pps_for(self._receiver_sys(d).isd_as).recv,
            )
            for d in LinkDirection
        }
        self._base_loss = spec.base_loss + config.default_base_loss

    # -- direction helpers -----------------------------------------------------

    def direction_from(self, sender: ISDAS) -> LinkDirection:
        return (
            LinkDirection.A_TO_B if sender == self.spec.a else LinkDirection.B_TO_A
        )

    def _sender_sys(self, direction: LinkDirection) -> AutonomousSystem:
        return self._a if direction is LinkDirection.A_TO_B else self._b

    def _receiver_sys(self, direction: LinkDirection) -> AutonomousSystem:
        return self._b if direction is LinkDirection.A_TO_B else self._a

    def mean_utilization(
        self, direction: LinkDirection, t0_s: float, t1_s: float
    ) -> float:
        return self._util[direction].mean_over(t0_s, t1_s)

    # -- packet transit -----------------------------------------------------------

    def transit_batch(
        self,
        direction: LinkDirection,
        wire_bytes: int,
        n_fragments: int,
        t_array: "np.ndarray",
    ) -> Tuple["np.ndarray", "np.ndarray"]:
        """Delay and drop for a batch of packets crossing this link.

        ``t_array`` holds the per-packet arrival times at this link;
        returns ``(delay_ms, dropped)`` arrays of the same shape.
        Delay = propagation + serialization + utilization-driven
        queueing + per-transit jitter (the receiving AS's router adds
        the jitter — this is where §6.1's jittery ASes enter).  The
        static terms are computed once, utilization is gathered via
        :meth:`UtilizationProcess.values_at`, jitter is one
        ``normal(size=n)`` vector and the drop decision (residual loss,
        fragment compounding, episodes) one vectorized Bernoulli, both
        drawn from this link's named RNG stream, so a fixed sequence of
        calls is seed-deterministic.
        """
        if isinstance(t_array, np.ndarray) and t_array.dtype == np.float64:
            t = t_array
        else:
            t = np.asarray(t_array, dtype=np.float64)
        n = t.size
        cap = self._cap_bps[direction]
        rho = self._util[direction].values_at(t)

        serialization_ms = wire_bytes * 8.0 / cap * 1e3
        queue_ms = self.config.queue_scale_ms * rho / np.maximum(1e-6, 1.0 - rho)
        jitter_ms = np.abs(self._noise.normal(0.0, self._jitter_scale[direction], size=n))

        base = self._base_loss
        if len(self.episodes):
            extra_loss, cap_factor = self.episodes.disturbance_at(self.spec, t)
            per_fragment_survive = (1.0 - base) * (1.0 - extra_loss)
            per_fragment_survive = np.where(
                (cap_factor <= 0.0) & (extra_loss >= 1.0),
                0.0,
                per_fragment_survive,
            )
        else:
            # Empty schedule fast path: extra_loss is identically 0 and
            # cap_factor 1, so ``per_fragment_survive`` collapses to the
            # scalar ``(1 - base) * (1 - 0)`` — bit-identical to the
            # array expression, minus three array temporaries per step.
            per_fragment_survive = (1.0 - base) * 1.0
        survive = per_fragment_survive ** max(1, n_fragments)
        dropped = self._noise.random(size=n) > survive

        delay_ms = self.propagation_ms + serialization_ms + queue_ms + jitter_ms
        return delay_ms, dropped

    # -- fluid-transfer accounting --------------------------------------------------

    def fluid_share(
        self,
        direction: LinkDirection,
        offered_bps: float,
        offered_pps: float,
        t0_s: float,
        t1_s: float,
        *,
        competing_bps: float = 0.0,
    ) -> Tuple[float, float]:
        """(byte_accept_ratio, pps_accept_ratio) for a transfer window.

        ``byte_accept_ratio`` compares offered wire bits/s against the
        capacity left over by cross traffic (scaled down by any active
        congestion episode) and by ``competing_bps`` of other registered
        foreground flows; ``pps_accept_ratio`` compares offered packets/s
        against the *sending* router's pps budget.
        """
        rho = self.mean_utilization(direction, t0_s, t1_s)
        ep_loss, cap_factor = self.episodes.window_disturbance(self.spec, t0_s, t1_s)
        capacity = self._cap_bps[direction]
        available = max(0.0, capacity * (1.0 - rho) - competing_bps)
        if ep_loss > 0.0:
            available = available * (1.0 - ep_loss) * max(cap_factor, 0.0) + 1e-9

        byte_ratio = min(1.0, available / max(offered_bps, 1e-9))

        # min(send, recv) / offered == min(send/offered, recv/offered)
        # exactly (IEEE division is monotone for a positive divisor), so
        # the budget min is folded into a per-direction constant.
        pps_ratio = min(
            1.0, self._pps_budget[direction] / max(offered_pps, 1e-9)
        )
        return byte_ratio, pps_ratio
