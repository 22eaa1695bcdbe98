"""Bench: per-destination campaign throughput under injected faults (§4.1.2).

Runs the 5-destination study campaign with a 10 % per-flush data-loss
probability plus a one-iteration outage on the first destination, and
checks the graceful-degradation bookkeeping: every batch is either
stored or counted lost, nothing aborts, and the injected-fault tallies
are reflected in the campaign telemetry.
"""

import pytest

from benchmarks.conftest import BENCH_ITERATIONS, BENCH_SEED, write_figure
from repro.docdb.client import DocDBClient
from repro.netsim.network import ServerHealth
from repro.scion.snet import ScionHost
from repro.scionlab.defaults import study_destination_ids
from repro.suite import metrics as m
from repro.suite.cli import seed_servers
from repro.suite.collect import PathsCollector
from repro.suite.config import SuiteConfig
from repro.suite.faults import DataLossFault, FaultPlan, ServerOutage
from repro.suite.parallel import ParallelCampaign
from repro.topology.scionlab import MY_AS, scionlab_network_config

LOSS_PROBABILITY = 0.10


def _faulted_env():
    client = DocDBClient()
    db = client["upin"]
    seed_servers(db)
    host = ScionHost.scionlab(seed=BENCH_SEED)
    dest_ids = study_destination_ids()
    config = SuiteConfig(
        iterations=BENCH_ITERATIONS, destination_ids=dest_ids, max_retries=1
    )
    PathsCollector(host, db, config).collect()
    plan = FaultPlan(
        outages=[ServerOutage(dest_ids[0], 0, 1, ServerHealth.DOWN)],
        data_loss=DataLossFault(probability=LOSS_PROBABILITY, seed=BENCH_SEED),
    )
    return host, db, config, plan


def test_parallel_campaign_under_injected_faults(benchmark):
    def run():
        host, db, config, plan = _faulted_env()
        campaign = ParallelCampaign(
            host.topology, MY_AS, db, config,
            base_config=scionlab_network_config(seed=BENCH_SEED),
            seed=BENCH_SEED,
            faults=plan,
        )
        report = campaign.run(iterations=BENCH_ITERATIONS)
        return report, plan

    report, plan = benchmark.pedantic(run, rounds=1, iterations=1)

    # Graceful degradation: faults were really injected, nothing aborted.
    assert not report.failed_destinations
    assert plan.injected_outages >= 1
    assert plan.injected_losses >= 1
    assert report.stats_lost > 0
    assert report.stats_stored > 0
    # Conservation: every measured path either landed or was counted lost.
    assert report.stats_stored + report.stats_lost == report.paths_tested
    # Telemetry agrees with the report.
    merged = report.metrics
    assert m.counter_value(merged, m.DOCS_LOST) == report.stats_lost
    assert m.counter_value(merged, m.FLUSH_FAILURES) == plan.injected_losses

    wall = m.histogram_stats(merged, m.DEST_WALL_S)
    throughput = (
        report.paths_tested / wall["total"] if wall and wall["total"] else 0.0
    )
    write_figure(
        "parallel_faults.txt",
        f"parallel campaign under {LOSS_PROBABILITY:.0%} data loss: "
        f"{report.stats_stored} stored, {report.stats_lost} lost, "
        f"{plan.injected_outages} outages, {plan.injected_losses} crashed "
        f"flushes, {m.counter_value(merged, m.RETRIES):g} retries, "
        f"{throughput:.0f} path tests / second",
    )
