"""Per-packet reference walker: the scalar data plane as a test oracle.

``src/`` probes only through the batch engine
(:func:`repro.netsim.batch.probe_batch`).  This module keeps the old
packet-at-a-time walker so tests and benchmarks can compare against it:
each packet crosses each link in turn, drawing one jitter and one drop
sample from the link's noise stream, and stops drawing at its first
drop.  It reproduces the pre-batch campaign and traceroute byte for
byte.  :func:`echo_series` and :func:`traceroute` take the same
arguments as the :class:`~repro.scion.scmp.ScmpService` methods, so
``mock.patch.object(ScmpService, "echo_series", echo_series)`` swaps the
oracle into a whole campaign.
"""

from dataclasses import dataclass

from repro.netsim.link import LinkDirection
from repro.scion.scmp import EchoStats, TracerouteHop


@dataclass(frozen=True)
class TransitSample:
    """One packet's delay over one link or path, and whether it was lost."""

    delay_ms: float
    dropped: bool


def transit_packet(state, direction, packet, t_s):
    """Sample delay and drop for one packet crossing one link at ``t_s``.

    Capacity, jitter scale and loss floor come from the link's spec and
    config, not from the per-direction constants the batch engine reads.
    """
    spec, config = state.spec, state.config
    if direction is LinkDirection.A_TO_B:
        cap_bps, receiver = spec.capacity_ab_mbps * 1e6, spec.b
    else:
        cap_bps, receiver = spec.capacity_ba_mbps * 1e6, spec.a
    rho = state._util[direction].value_at(t_s)
    extra_loss, cap_factor = state.episodes.disturbance(spec, t_s)
    serialization_ms = packet.total_wire_bytes * 8.0 / cap_bps * 1e3
    queue_ms = config.queue_scale_ms * rho / max(1e-6, 1.0 - rho)
    jitter_ms = float(abs(state._noise.normal(0.0, config.jitter_for(receiver))))
    base = spec.base_loss + config.default_base_loss
    per_fragment_survive = (1.0 - base) * (1.0 - extra_loss)
    if cap_factor <= 0.0 and extra_loss >= 1.0:
        per_fragment_survive = 0.0
    survive = per_fragment_survive ** max(1, packet.fragments)
    dropped = bool(state._noise.random() > survive)
    delay_ms = state.propagation_ms + serialization_ms + queue_ms + jitter_ms
    return TransitSample(delay_ms, dropped)


def oneway_transit(network, traversals, packet, t_s):
    """Push one packet along ``traversals``, stopping at its first drop."""
    total_ms = 0.0
    for step in traversals:
        state = network.link_state(step.link)
        direction = state.direction_from(step.sender)
        sample = transit_packet(state, direction, packet, t_s + total_ms / 1e3)
        total_ms += sample.delay_ms
        if sample.dropped:
            return TransitSample(total_ms, True)
    return TransitSample(total_ms, False)


def probe_roundtrip(network, traversals, packet, t_s):
    """RTT of one echo (forward, then the reversed path); ``None`` if lost."""
    fwd = oneway_transit(network, traversals, packet, t_s)
    if fwd.dropped:
        return None
    back_path = [step.reversed() for step in reversed(traversals)]
    back = oneway_transit(network, back_path, packet, t_s + fwd.delay_ms / 1e3)
    if back.dropped:
        return None
    rtt = fwd.delay_ms + back.delay_ms
    return None if rtt > network.config.probe_timeout_s * 1e3 else rtt


def echo_series(scmp, path, dst_ip, *, count=30, interval_s=0.1, payload_bytes=8):
    """``ScmpService.echo_series``, one probe per clock step."""
    network, clock = scmp.network, scmp.network.clock
    traversals = path.traversals(network.topology)
    packet = scmp._echo_packet(path, payload_bytes)
    server_up = scmp.answers(path, dst_ip)
    rtts = []
    for _ in range(count):
        if server_up:
            rtt = probe_roundtrip(network, traversals, packet, clock.now_s)
            if rtt is not None:
                rtts.append(rtt)
        clock.advance(interval_s)
    return EchoStats(path.dst.address(dst_ip), count, len(rtts), tuple(rtts))


def traceroute(scmp, path, *, probes_per_hop=3, interval_s=0.05):
    """``ScmpService.traceroute``, each probe walked on the hop's prefix."""
    network, clock = scmp.network, scmp.network.clock
    traversals = path.traversals(network.topology)
    packet = scmp._echo_packet(path, payload_bytes=0)
    hops = []
    for idx, step in enumerate(traversals, start=1):
        rtts = []
        for _ in range(probes_per_hop):
            prefix = traversals[:idx]
            rtts.append(probe_roundtrip(network, prefix, packet, clock.now_s))
            clock.advance(interval_s)
        arrived = step.link.other(step.sender)
        interface = step.link.interface_of(arrived)
        hops.append(TracerouteHop(idx, arrived, interface, tuple(rtts)))
    return hops
