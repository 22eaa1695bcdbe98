"""Fast-path bench: vectorized batch probing vs the per-packet walker.

The per-packet walker is the reference oracle in
``tests/reference_walker.py`` (``src/`` has only the batch engine), so
run with ``PYTHONPATH=src:.``.  Two measurements, written to
``benchmarks/output/netsim_fastpath.txt``:

1. **Microbenchmark** — one echo series per call over chain paths of
   1/3/7 links (2/4/8 ASes): packets/second through the reference
   walker's ``probe_roundtrip`` (scalar) versus
   :meth:`~repro.netsim.network.NetworkSim.probe_batch`.
2. **Campaign** — the seeded §6 study campaign end to end with the
   reference walker patched in for ``ScmpService.echo_series`` versus
   the batch engine.

``tools/check_fastpath_speedup.py`` parses the table and fails CI when
the batch engine stops paying for itself (<10x micro, <3x campaign).
Run standalone with ``--smoke`` for a scaled-down version of the same
table (fewer probes, one campaign iteration).
"""

from __future__ import annotations

import argparse
import time
from typing import List, Sequence, Tuple
from unittest import mock

import numpy as np

from benchmarks.conftest import BENCH_SEED, write_figure
from repro.docdb.client import DocDBClient
from repro.netsim.config import NetworkConfig
from repro.netsim.network import LinkTraversal, NetworkSim
from repro.netsim.packet import PacketSpec
from repro.scion.scmp import ScmpService
from repro.scion.snet import ScionHost
from repro.scionlab.defaults import study_destination_ids
from repro.suite.cli import seed_servers
from repro.suite.collect import PathsCollector
from repro.suite.config import SuiteConfig
from repro.suite.runner import TestRunner
from repro.topology.builder import TopologyBuilder
from repro.topology.entities import ASRole
from repro.topology.isd_as import ISDAS
from repro.topology.scionlab import (
    MY_AS,
    build_scionlab_world,
    scionlab_network_config,
)
from tests import reference_walker

OUTPUT_NAME = "netsim_fastpath.txt"
CHAIN_LINKS = (1, 3, 7)  # 2-, 4- and 8-AS paths
FULL_PROBES = 3000
SMOKE_PROBES = 400


def _chain_world(n_links: int):
    """A provider chain: one core AS with ``n_links`` descendants."""
    b = TopologyBuilder()
    b.add_as("1-ffaa:0:1", "chain0", role=ASRole.CORE, lat=47.4, lon=8.5,
             country="CH", operator="Op", ip="10.0.0.1")
    for i in range(1, n_links + 1):
        b.add_as(f"1-ffaa:0:{i + 1}", f"chain{i}", role=ASRole.NON_CORE,
                 lat=47.4 + 0.3 * i, lon=8.5 + 0.3 * i, country="CH",
                 operator="Op", ip=f"10.0.0.{i + 1}")
        b.parent_link(f"1-ffaa:0:{i}", f"1-ffaa:0:{i + 1}")
    return b.build()


def _chain_traversals(topology, n_links: int) -> List[LinkTraversal]:
    steps = []
    for i in range(1, n_links + 1):
        link = topology.link_between(f"1-ffaa:0:{i}", f"1-ffaa:0:{i + 1}")[0]
        steps.append(LinkTraversal(link=link, sender=ISDAS.parse(f"1-ffaa:0:{i}")))
    return steps


def _micro_row(n_links: int, probes: int) -> Tuple[float, float, float]:
    """(scalar pkt/s, batch pkt/s, speedup) for one chain length.

    Each mode gets its own seeded network so stream state is identical;
    only engine overhead differs.
    """
    topology = _chain_world(n_links)
    packet = PacketSpec(payload_bytes=16, n_hops=n_links + 1, n_segments=2)

    net = NetworkSim(topology, NetworkConfig(seed=BENCH_SEED))
    steps = _chain_traversals(topology, n_links)
    start = time.perf_counter()
    for i in range(probes):
        reference_walker.probe_roundtrip(net, steps, packet, i * 0.1)
    scalar_s = time.perf_counter() - start

    net = NetworkSim(topology, NetworkConfig(seed=BENCH_SEED))
    steps = _chain_traversals(topology, n_links)
    send_times = np.arange(probes, dtype=np.float64) * 0.1
    start = time.perf_counter()
    series = net.probe_batch(steps, packet, send_times)
    batch_s = time.perf_counter() - start
    assert series.count == probes

    return probes / scalar_s, probes / batch_s, scalar_s / batch_s


#: Campaign timings are best-of-N: single cold runs on a shared machine
#: jitter by 30%+, which would make the CI speedup gate flaky.
CAMPAIGN_REPEATS = 3


def _one_campaign_run(*, scalar: bool, iterations: int) -> float:
    client = DocDBClient()
    db = client["upin"]
    seed_servers(db)
    host = ScionHost(
        build_scionlab_world(), MY_AS, config=scionlab_network_config(seed=BENCH_SEED)
    )
    config = SuiteConfig(
        iterations=iterations, destination_ids=study_destination_ids()
    )
    PathsCollector(host, db, config).collect()
    echo_series = reference_walker.echo_series if scalar else ScmpService.echo_series
    with mock.patch.object(ScmpService, "echo_series", echo_series):
        start = time.perf_counter()
        report = TestRunner(host, db, config).run()
        elapsed = time.perf_counter() - start
    assert report.paths_tested == 80 * iterations
    return elapsed


def _campaign_pair(iterations: int) -> Tuple[float, float]:
    """(scalar_s, batch_s), repeats interleaved scalar/batch/scalar/batch.

    Interleaving means background load on a shared CI machine drifts
    into both modes' samples equally instead of skewing whichever mode
    happened to run during the noisy stretch; the min of each side is
    then a fair same-conditions comparison.
    """
    scalar_ts, batch_ts = [], []
    for _ in range(CAMPAIGN_REPEATS):
        scalar_ts.append(_one_campaign_run(scalar=True, iterations=iterations))
        batch_ts.append(_one_campaign_run(scalar=False, iterations=iterations))
    return min(scalar_ts), min(batch_ts)


def run_fastpath_table(*, probes: int, iterations: int) -> str:
    lines = [
        "netsim fast path: vectorized batch probing vs per-packet walker",
        "",
        f"  microbenchmark: one echo series per call ({probes} probes)",
        f"  {'links':>5}  {'ases':>4}  {'scalar pkt/s':>12}  "
        f"{'batch pkt/s':>12}  {'speedup':>8}",
    ]
    for n_links in CHAIN_LINKS:
        scalar_pps, batch_pps, ratio = _micro_row(n_links, probes)
        lines.append(
            f"  {n_links:>5}  {n_links + 1:>4}  {scalar_pps:>12.0f}  "
            f"{batch_pps:>12.0f}  {ratio:>7.1f}x"
        )

    scalar_s, batch_s = _campaign_pair(iterations)
    lines += [
        "",
        f"  study campaign end to end (5 destinations x {iterations} "
        f"iteration(s), 80 paths/iteration)",
        f"  reference walker     : {scalar_s:>7.2f} s",
        f"  batch engine         : {batch_s:>7.2f} s",
        f"  campaign speedup: {scalar_s / batch_s:.1f}x",
    ]
    return "\n".join(lines)


def test_fastpath_speedup_table():
    """Regenerate the committed table (full-size probe counts)."""
    text = run_fastpath_table(probes=FULL_PROBES, iterations=1)
    write_figure(OUTPUT_NAME, text)
    # The hard gates live in tools/check_fastpath_speedup.py (CI); keep
    # a soft floor here so local bench runs flag regressions too.
    from tools.check_fastpath_speedup import parse_speedups

    micro, campaign = parse_speedups(text)
    assert min(micro) >= 10.0
    assert campaign >= 3.0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="scaled-down run (fewer probes, 1 campaign iteration)",
    )
    args = parser.parse_args()
    probes = SMOKE_PROBES if args.smoke else FULL_PROBES
    text = run_fastpath_table(probes=probes, iterations=1)
    write_figure(OUTPUT_NAME, text)
    print(text)


if __name__ == "__main__":
    main()
