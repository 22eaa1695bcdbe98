"""The array-backed AR(1) grid and the per-path data-plane plan.

* :class:`~repro.netsim.procs.UtilizationProcess` keeps its grid in a
  growable ``float64`` buffer.  Random interleavings of ``value_at``,
  ``values_at`` and ``mean_over`` must equal a pure-Python list
  reference of the same recurrence bit for bit, across buffer growth and
  for windows both under and from 8 cells, and the buffer never holds
  more than 16 bytes per generated cell.
* :meth:`~repro.scion.path.Path.plan` memoizes a path's lanes per
  ``(network, topology.epoch)``: each network measures with its own
  links and streams, a topology mutation re-resolves, and the probe
  engine still rejects bad send times before any draw.
"""

from __future__ import annotations

from typing import List

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.netsim.config import NetworkConfig, UtilizationParams
from repro.netsim.network import NetworkSim, PathPlan
from repro.netsim.procs import EXTEND_CHUNK, UtilizationProcess
from repro.scion.scmp import ScmpService
from repro.scion.snet import ScionHost
from repro.topology.isd_as import ISDAS

from tests.helpers import build_tiny_world

PARAMS = [
    UtilizationParams(mean=0.30, sigma=0.07),
    UtilizationParams(mean=0.5, rho=0.95, sigma=0.3, step_s=0.5, floor=0.1, ceil=0.8),
]


class ListGrid:
    """The recurrence as a plain list with one scalar draw per cell."""

    def __init__(self, params: UtilizationParams, seed: int) -> None:
        self.p = params
        self.rng = np.random.default_rng(seed)
        first = params.mean + params.sigma * float(self.rng.standard_normal())
        self.values: List[float] = [min(max(first, params.floor), params.ceil)]

    def _cell(self, k: int) -> int:
        p = self.p
        while len(self.values) <= k:
            eps = p.sigma * float(self.rng.standard_normal())
            nxt = p.mean + p.rho * (self.values[-1] - p.mean) + eps
            self.values.append(min(max(nxt, p.floor), p.ceil))
        return k

    def value_at(self, t: float) -> float:
        return self.values[self._cell(int(t / self.p.step_s))]

    def mean_over(self, t0: float, t1: float) -> float:
        k0 = int(t0 / self.p.step_s)
        k1 = self._cell(int(t1 / self.p.step_s))
        window = self.values[k0 : k1 + 1]
        if len(window) < 8:
            return sum(window) / len(window)
        return float(np.mean(window))


_time = st.floats(min_value=0.0, max_value=5 * EXTEND_CHUNK, allow_nan=False)
_op = st.one_of(
    st.tuples(st.just("value_at"), _time),
    st.tuples(st.just("values_at"), st.lists(_time, min_size=1, max_size=12)),
    # Window widths in seconds: under and from 8 grid cells at either step.
    st.tuples(st.just("mean_over"), _time, st.floats(min_value=0.0, max_value=24.0)),
)


class TestArrayGrid:
    @settings(max_examples=40, deadline=None)
    @given(
        params=st.sampled_from(PARAMS),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        ops=st.lists(_op, min_size=1, max_size=25),
    )
    def test_interleaved_reads_equal_list_reference(self, params, seed, ops):
        proc = UtilizationProcess(params, np.random.default_rng(seed))
        ref = ListGrid(params, seed)
        for op in ops:
            if op[0] == "value_at":
                got = proc.value_at(op[1])
                assert type(got) is float
                assert got == ref.value_at(op[1])
            elif op[0] == "values_at":
                got = proc.values_at(np.array(op[1]))
                assert got.tolist() == [ref.value_at(t) for t in op[1]]
            else:
                _, t0, width = op
                assert proc.mean_over(t0, t0 + width) == ref.mean_over(t0, t0 + width)
            assert proc.cells >= len(ref.values)
            assert proc.nbytes <= 16 * proc.cells

    def test_growth_crosses_buffer_boundaries_bit_for_bit(self):
        params = PARAMS[0]
        proc = UtilizationProcess(params, np.random.default_rng(3))
        ref = ListGrid(params, 3)
        sizes = []
        for t in (0.0, 255.0, 256.0, 700.0, 2049.0, 5000.0):
            proc.value_at(t)
            sizes.append(proc.nbytes)
        assert len(set(sizes)) > 3  # the buffer grew several times
        n = proc.cells
        ref.value_at(float(n - 1))
        assert proc.values_at(np.arange(n, dtype=np.float64)).tolist() == ref.values[:n]
        assert proc.nbytes <= 16 * n

    def test_negative_window_start_counts_from_generated_cells(self):
        """A negative cell index reads like the list grid did: from the
        last generated cell, never from spare buffer capacity."""
        proc = UtilizationProcess(PARAMS[0], np.random.default_rng(5))
        ref = ListGrid(PARAMS[0], 5)
        proc.value_at(300.0)
        proc.value_at(400.0)  # regrows the buffer with spare capacity
        last = float(proc.cells - 1)
        ref.value_at(last)
        assert proc.nbytes > 8 * proc.cells  # there is spare capacity
        got = proc.mean_over(-3.0, last)
        assert got == ref.mean_over(-3.0, last)
        assert got == sum(ref.values[-3:]) / 3

    def test_rejects_negative_times(self):
        proc = UtilizationProcess(PARAMS[0], np.random.default_rng(1))
        with pytest.raises(ValidationError):
            proc.value_at(-1.0)
        with pytest.raises(ValidationError):
            proc.values_at(np.array([3.0, -0.5]))


# -- the per-path plan memo ------------------------------------------------------


def _series(scmp: ScmpService, path, t0: float) -> List[float]:
    times = t0 + np.arange(30, dtype=np.float64) * 0.1
    return scmp.echo_batch(path, times).rtt_ms.tolist()


def _leaf_path(host: ScionHost):
    return host.paths(ISDAS.parse("2-ffaa:0:2"), max_paths=None)[0]


class TestPlanMemo:
    def test_each_network_measures_with_its_own_lanes(self):
        topology = build_tiny_world()
        host = ScionHost(topology, "1-ffaa:1:1", config=NetworkConfig(seed=1))
        other = NetworkSim(topology, NetworkConfig(seed=2))
        path = _leaf_path(host)
        scmp_a, scmp_b = host.scmp, ScmpService(other)
        # Alternate the two networks on the one Path object.
        got = [
            _series(scmp_a, path, 0.0),
            _series(scmp_b, path, 0.0),
            _series(scmp_a, path, 5.0),
            _series(scmp_b, path, 5.0),
        ]
        # Each network alone, measured through plain traversals.
        fresh_a = NetworkSim(topology, NetworkConfig(seed=1))
        fresh_b = NetworkSim(topology, NetworkConfig(seed=2))
        steps = path.traversals(topology)
        packet = scmp_a._echo_packet(path)

        def alone(net, t0):
            times = t0 + np.arange(30, dtype=np.float64) * 0.1
            return net.probe_batch(steps, packet, times).rtt_ms.tolist()

        want = [
            alone(fresh_a, 0.0),
            alone(fresh_b, 0.0),
            alone(fresh_a, 5.0),
            alone(fresh_b, 5.0),
        ]
        np.testing.assert_array_equal(np.array(got), np.array(want))
        assert got[0] != got[1]
        assert path.plan(other).forward[0].state is other.link_state(steps[0].link)

    def test_plan_is_memoized_per_network(self):
        host = ScionHost(build_tiny_world(), "1-ffaa:1:1")
        path = _leaf_path(host)
        plan = path.plan(host.network)
        assert isinstance(plan, PathPlan)
        assert path.plan(host.network) is plan
        assert len(plan.forward) == path.n_links
        assert plan.roundtrip == plan.forward + plan.back

    def test_topology_epoch_bump_re_resolves(self):
        host = ScionHost(build_tiny_world(), "1-ffaa:1:1")
        path = _leaf_path(host)
        plan = path.plan(host.network)
        host.topology._epoch += 1  # what a mutating topology API must do
        replanned = path.plan(host.network)
        assert replanned is not plan
        assert replanned.roundtrip == plan.roundtrip  # same links, same lanes
        assert path.plan(host.network) is replanned

    @pytest.mark.parametrize("bad", [-1.0, -1e-9, np.nan, np.inf])
    def test_bad_send_time_raises_before_any_draw(self, bad):
        host = ScionHost(build_tiny_world(), "1-ffaa:1:1")
        path = _leaf_path(host)
        plan = path.plan(host.network)

        def state():
            return [
                (lane.state._noise.bit_generator.state, lane.util.cells)
                for lane in plan.roundtrip
            ]

        before = state()
        times = np.arange(10, dtype=np.float64)
        times[4] = bad
        with pytest.raises(ValidationError):
            host.scmp.echo_batch(path, times)
        with pytest.raises(ValidationError):
            host.network.probe_batch(
                plan, host.scmp._echo_packet(path), times.reshape(2, 5)
            )
        assert state() == before
