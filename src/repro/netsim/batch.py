"""The data plane's probe engine: whole echo series in O(links).

The paper's test-suite is measurement-bound: every campaign iteration
runs ``scion ping -c 30 --interval 0.1s`` plus four bwtest transfers
over every retained path to 21 destinations (§3.3, §5.3).  Walking every
link once *per packet* with scalar numpy RNG calls would cost
O(count × links) Python work; :func:`probe_batch` computes a series in
O(links) numpy operations over the path's round-trip lanes
(:class:`~repro.netsim.network.PathPlan`, resolved once per path):

* per-link static terms (propagation, serialization) are scalars read
  off the :class:`~repro.netsim.link.LinkLane`;
* send times are checked once per call (finite, ``>= 0``), and
  cross-traffic utilization is gathered straight from the shared
  AR(1) grid buffer
  (:meth:`~repro.netsim.procs.UtilizationProcess.gather`);
* per-link jitter is one ``normal`` vector and the drop decision one
  vectorized Bernoulli per link/direction, over all probes of the call;
* cumulative delays propagate by running vector sums, and a first-drop
  mask guarantees a packet dropped at link *k* never contributes
  downstream draws that change observable results (each step's draws
  are fixed-size vectors, so a dropped packet keeps its slot without
  perturbing any other packet's samples).

It is the only probe code path.  The caller passes a plan (ping and
the flow monitor, via :meth:`~repro.scion.path.Path.plan`) or forward
traversals resolved for the one call (traceroute, ``showpaths
--probe``), and the send times, in any shape: ``echo_series`` one
``t0 + arange(count) * interval`` vector, traceroute one vector per hop
over the hop's traversal prefix, ``showpaths --probe`` a single send
time, the flow monitor a (flows × probes) matrix per pinned path, so
one call probes every flow on that path.  Noise is drawn over the probes in row-major order.

Determinism contract (property-tested in
``tests/test_netsim_fastpath.py``): same seed and same calls ⇒
byte-identical series across runs, and a destination measured alone
matches the same destination inside a full per-destination campaign.
A per-packet reference walker in ``tests/reference_walker.py`` draws
the same streams one packet at a time; the two agree statistically
(matched mean RTT and loss fraction on ≥1k-sample series), not
sample-for-sample, because a batch draw consumes a link's stream in
vector-sized chunks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Tuple

import numpy as np

from repro.errors import ValidationError
from repro.netsim.packet import PacketSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.netsim.network import NetworkSim, Route


@dataclass(frozen=True)
class BatchEchoSeries:
    """One vectorized echo series: per-packet send times and RTTs.

    ``rtt_ms`` is aligned with ``send_times_s``; lost probes (dropped on
    either direction, or slower than the SCMP deadline) hold ``NaN``.
    """

    send_times_s: "np.ndarray"
    rtt_ms: "np.ndarray"

    @property
    def count(self) -> int:
        return int(self.rtt_ms.size)

    @property
    def lost_mask(self) -> "np.ndarray":
        return np.isnan(self.rtt_ms)

    @property
    def received(self) -> int:
        return int(np.count_nonzero(~self.lost_mask))

    def received_rtts(self) -> Tuple[float, ...]:
        """Surviving RTTs in send order (the ``PingStats`` payload)."""
        return tuple(float(r) for r in self.rtt_ms[~self.lost_mask])


def probe_batch(
    network: "NetworkSim",
    route: "Route",
    packet: PacketSpec,
    send_times_s: "np.ndarray",
) -> BatchEchoSeries:
    """Compute echo probes along one path in O(links) numpy operations.

    ``route`` is a :class:`~repro.netsim.network.PathPlan` or the
    forward traversals (resolved here, once).  ``send_times_s`` holds
    one departure time per probe, in any shape: a
    ``t0 + arange(count) * interval`` vector for one echo series, or a
    (flows × probes) matrix for every flow pinned to this path in one
    monitor pass.  Each link draws its jitter and drop vectors over the
    probes in row-major order.  A packet's arrival time at each link is
    its send time plus the accumulated delay so far.  Probes slower than
    ``config.probe_timeout_s`` count as lost, like the real
    ``scion ping`` deadline.  The result has the shape of
    ``send_times_s``.
    """
    lanes = network.plan(route).roundtrip
    if not lanes:
        raise ValidationError("empty path")
    send_times = np.asarray(send_times_s, dtype=np.float64)
    if send_times.size < 1:
        raise ValidationError("echo probes need at least one send time")
    flat_times = send_times.reshape(-1)
    # The only time check of the call: every later arrival time adds
    # non-negative delay to a checked send time.
    earliest = float(flat_times.min())
    if not (math.isfinite(earliest) and math.isfinite(float(flat_times.max()))):
        raise ValidationError("echo send times must be finite")
    if earliest < 0:
        raise ValidationError(f"negative simulation time: {earliest}")

    wire_bytes = packet.total_wire_bytes
    fragments = packet.fragments
    delay_ms = np.zeros(flat_times.size, dtype=np.float64)
    dropped = np.zeros(flat_times.size, dtype=bool)

    for lane in lanes:
        t = flat_times + delay_ms / 1e3
        step_ms, step_drop = lane.transit_batch(wire_bytes, fragments, t)
        # First-drop masking: a packet dropped upstream keeps its slot
        # (the per-step draws are fixed-size vectors) but its RTT is
        # already unobservable, so downstream contributions only need to
        # stay out of *other* packets' slots — which vector ops give us
        # for free.  Accumulate delay for all slots; OR in new drops.
        delay_ms = delay_ms + step_ms
        dropped |= step_drop

    rtt = np.where(dropped, np.nan, delay_ms)
    rtt = np.where(rtt > network.config.probe_timeout_s * 1e3, np.nan, rtt)

    network.counters.batch_series += 1
    network.counters.batch_packets += flat_times.size
    return BatchEchoSeries(
        send_times_s=send_times, rtt_ms=rtt.reshape(send_times.shape)
    )
