"""Per-link dynamic state: delay, jitter, queueing, loss, capacity shares.

A :class:`LinkState` is the simulator's live counterpart of a static
:class:`repro.topology.entities.LinkSpec`.  Direction matters: each
direction has its own capacity, its own cross-traffic process, and its
own pps budget (taken from the sending AS's router limits), resolved
once into a :class:`LinkLane` that the data plane walks.
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


class LinkLane:
    """One direction of a :class:`LinkState`, resolved for the data plane.

    Everything a packet transit or a fluid window needs from the link
    in that direction, fixed when the link state is built: the
    cross-traffic process, capacity, the receiving AS's jitter scale,
    the pps budget, the residual loss floor and the link key.
    ``reverse`` is the lane of the opposite direction.  A forwarding
    path resolves once into a tuple of lanes (see
    :class:`~repro.netsim.network.PathPlan`), so the probe engine and
    fluid transfers never look a link up again.

    :meth:`transit_batch` and :meth:`fluid_share` hold the data plane's
    per-step arithmetic.
    """

    __slots__ = (
        "state",
        "direction",
        "link",
        "key",
        "util",
        "cap_bps",
        "jitter_scale",
        "pps_budget",
        "base_loss",
        "fluid_keep",
        "propagation_ms",
        "queue_scale_ms",
        "episodes",
        "reverse",
    )

    def __init__(self, state: "LinkState", direction: LinkDirection) -> None:
        spec, config = state.spec, state.config
        a_to_b = direction is LinkDirection.A_TO_B
        sender = state._a if a_to_b else state._b
        receiver = state._b if a_to_b else state._a
        self.state = state
        self.direction = direction
        self.link = spec
        self.key = spec.key()
        self.util: UtilizationProcess = state._util[direction]
        self.cap_bps = (spec.capacity_ab_mbps if a_to_b else spec.capacity_ba_mbps) * 1e6
        self.jitter_scale = config.jitter_for(receiver.isd_as)
        # min(send, recv) / offered == min(send/offered, recv/offered)
        # exactly (IEEE division is monotone for a positive divisor), so
        # the budget min is folded into one per-direction constant.
        self.pps_budget = min(
            config.pps_for(sender.isd_as).send,
            config.pps_for(receiver.isd_as).recv,
        )
        self.base_loss = spec.base_loss + config.default_base_loss
        # Per-fragment survival factor of a fluid transfer before the
        # capacity share, in the fluid model's own operand order.
        self.fluid_keep = 1.0 - config.default_base_loss - spec.base_loss
        self.propagation_ms = state.propagation_ms
        self.queue_scale_ms = config.queue_scale_ms
        self.episodes = state.episodes
        self.reverse: "LinkLane" = self

    # -- packet transit -----------------------------------------------------------

    def transit_batch(
        self, wire_bytes: int, n_fragments: int, t: "np.ndarray"
    ) -> Tuple["np.ndarray", "np.ndarray"]:
        """Delay and drop for a batch of packets crossing this lane.

        ``t`` holds the per-packet arrival times at this link: a
        non-empty ``float64`` array of finite times ``>= 0`` (checked by
        the caller); returns ``(delay_ms, dropped)`` arrays of its shape.
        Delay = propagation + serialization + utilization-driven
        queueing + per-transit jitter (the receiving AS's router adds
        the jitter — this is where §6.1's jittery ASes enter).  The
        static terms are scalars, utilization is gathered from the
        AR(1) grid, jitter is one ``normal(size=n)`` vector and the drop
        decision (residual loss, fragment compounding, episodes) one
        vectorized Bernoulli, both drawn from the link's named RNG
        stream, so a fixed sequence of calls is seed-deterministic.
        """
        n = t.size
        # Both directions draw from the link's one noise stream, read
        # through the link state so a replaced stream is seen here.
        noise = self.state._noise
        rho = self.util.gather(t)

        serialization_ms = wire_bytes * 8.0 / self.cap_bps * 1e3
        queue_ms = self.queue_scale_ms * rho / np.maximum(1e-6, 1.0 - rho)
        jitter_ms = np.abs(noise.normal(0.0, self.jitter_scale, size=n))

        base = self.base_loss
        if len(self.episodes):
            extra_loss, cap_factor = self.episodes.disturbance_at(self.link, t)
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
        dropped = noise.random(size=n) > survive

        delay_ms = self.propagation_ms + serialization_ms + queue_ms + jitter_ms
        return delay_ms, dropped

    # -- fluid-transfer accounting --------------------------------------------------

    def fluid_share(
        self,
        offered_bps: float,
        offered_pps: float,
        t0_s: float,
        t1_s: float,
        competing_bps: float = 0.0,
    ) -> Tuple[float, float]:
        """(byte_accept_ratio, pps_accept_ratio) for a transfer window.

        ``byte_accept_ratio`` compares offered wire bits/s against the
        capacity left over by cross traffic (scaled down by any active
        congestion episode) and by ``competing_bps`` of other registered
        foreground flows; ``pps_accept_ratio`` compares offered packets/s
        against the *sending* router's pps budget.
        """
        rho = self.util.mean_over(t0_s, t1_s)
        available = max(0.0, self.cap_bps * (1.0 - rho) - competing_bps)
        if len(self.episodes):
            ep_loss, cap_factor = self.episodes.window_disturbance(
                self.link, t0_s, t1_s
            )
            if ep_loss > 0.0:
                available = available * (1.0 - ep_loss) * max(cap_factor, 0.0) + 1e-9

        byte_ratio = min(1.0, available / max(offered_bps, 1e-9))
        pps_ratio = min(1.0, self.pps_budget / max(offered_pps, 1e-9))
        return byte_ratio, pps_ratio


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
        ab = LinkLane(self, LinkDirection.A_TO_B)
        ba = LinkLane(self, LinkDirection.B_TO_A)
        ab.reverse, ba.reverse = ba, ab
        self._lanes = {LinkDirection.A_TO_B: ab, LinkDirection.B_TO_A: ba}

    # -- direction helpers -----------------------------------------------------

    def direction_from(self, sender: ISDAS) -> LinkDirection:
        return (
            LinkDirection.A_TO_B if sender == self.spec.a else LinkDirection.B_TO_A
        )

    def lane(self, direction: LinkDirection) -> LinkLane:
        """The resolved data-plane lane for ``direction``."""
        return self._lanes[direction]

    def lane_from(self, sender: ISDAS) -> LinkLane:
        """The lane a packet sent by ``sender`` crosses."""
        return self._lanes[self.direction_from(sender)]
