"""Fault isolation, fault injection and determinism of per-destination campaigns."""

import json
from dataclasses import replace

import pytest

from repro.crypto.rsa import keypair_from_seed
from repro.docdb.auth import SIGNATURE_FIELD, SignedDocumentVerifier
from repro.docdb.client import DocDBClient
from repro.errors import MeasurementError
from repro.netsim.network import ServerHealth
from repro.scion.snet import ScionHost
from repro.scionlab.defaults import study_destination_ids
from repro.suite import metrics as m
from repro.suite.cli import seed_servers
from repro.suite.collect import PathsCollector
from repro.suite.config import PATHS_COLLECTION, STATS_COLLECTION, SuiteConfig
from repro.suite.faults import DataLossFault, FaultPlan, ServerOutage
from repro.suite.parallel import ParallelCampaign
from repro.suite.runner import TestRunner
from repro.topology.scionlab import MY_AS, scionlab_network_config

SEED = 3


def fresh_env(dest_ids, **config_kwargs):
    client = DocDBClient()
    db = client["upin"]
    seed_servers(db)
    host = ScionHost.scionlab(seed=SEED)
    config = SuiteConfig(iterations=1, destination_ids=list(dest_ids), **config_kwargs)
    PathsCollector(host, db, config).collect()
    return host, db, config


def make_campaign(host, db, config, **kwargs):
    return ParallelCampaign(
        host.topology, MY_AS, db, config,
        base_config=scionlab_network_config(seed=SEED), seed=SEED,
        **kwargs,
    )


def paths_per_destination(db):
    counts = {}
    for doc in db[PATHS_COLLECTION].find():
        counts[doc["server_id"]] = counts.get(doc["server_id"], 0) + 1
    return counts


class TestFaultIsolation:
    """§4.1.2: one bad destination must never kill the fleet."""

    def test_one_crashing_worker_does_not_abort_the_fleet(self):
        dest_ids = study_destination_ids()
        assert len(dest_ids) >= 5
        bad = dest_ids[0]
        host, db, config = fresh_env(
            dest_ids, continue_on_error=False, max_retries=0
        )
        plan = FaultPlan(outages=[ServerOutage(bad, 0, 1, ServerHealth.DOWN)])
        campaign = make_campaign(host, db, config, faults=plan)
        report = campaign.run(iterations=1)

        # Every destination is accounted for; exactly one failed.
        assert set(report.per_destination) == set(dest_ids)
        assert set(report.failed_destinations) == {bad}
        assert "unreachable" in report.failed_destinations[bad]
        assert report.per_destination[bad].failed
        assert report.per_destination[bad].stats_stored == 0

        # The healthy destinations completed in full...
        counts = paths_per_destination(db)
        healthy_total = sum(counts[d] for d in dest_ids if d != bad)
        assert report.stats_stored == healthy_total

        # ...and match a serial campaign over the healthy subset.
        healthy = [d for d in dest_ids if d != bad]
        shost, sdb, sconfig = fresh_env(healthy)
        serial = TestRunner(shost, sdb, sconfig).run()
        assert report.stats_stored == serial.stats_stored
        assert report.paths_tested == serial.paths_tested

    def test_fail_fast_escape_hatch_reraises(self):
        dest_ids = [3, 5]
        host, db, config = fresh_env(
            dest_ids, continue_on_error=False, max_retries=0
        )
        plan = FaultPlan(outages=[ServerOutage(3, 0, 1, ServerHealth.DOWN)])
        campaign = make_campaign(host, db, config, faults=plan, fail_fast=True)
        with pytest.raises(MeasurementError):
            campaign.run(iterations=1)

    def test_fail_fast_stops_before_later_destinations(self):
        # Destinations run in _id order: 3 fails, so 5 never runs.
        for _ in range(3):
            host, db, config = fresh_env(
                [3, 5], continue_on_error=False, max_retries=0
            )
            plan = FaultPlan(outages=[ServerOutage(3, 0, 1, ServerHealth.DOWN)])
            campaign = make_campaign(host, db, config, faults=plan, fail_fast=True)
            with pytest.raises(MeasurementError):
                campaign.run(iterations=1)
            assert db[STATS_COLLECTION].count_documents({"server_id": 5}) == 0

    def test_parallel_report_format_text(self):
        host, db, config = fresh_env([3, 5], continue_on_error=False, max_retries=0)
        plan = FaultPlan(outages=[ServerOutage(3, 0, 1, ServerHealth.DOWN)])
        report = make_campaign(host, db, config, faults=plan).run(iterations=1)
        text = report.format_text()
        assert "destinations: 1 ok, 1 failed" in text
        assert "- 3: ServerUnreachableError" in text


class TestParallelFaultInjection:
    """FaultPlan and the signer must be live in parallel mode."""

    def test_fault_plan_is_plumbed_through_workers(self):
        host, db, config = fresh_env([3, 5], max_retries=0)
        plan = FaultPlan(
            outages=[ServerOutage(3, 0, 1, ServerHealth.DOWN)],
            data_loss=DataLossFault(probability=1.0),
        )
        campaign = make_campaign(host, db, config, faults=plan)
        report = campaign.run(iterations=2)

        counts = paths_per_destination(db)
        # Destination 3 loses its iteration-1 batch (iteration 0 produced
        # nothing: the server was down); destination 5 loses both batches.
        expected_lost = counts[3] + 2 * counts[5]
        assert plan.injected_outages >= 1
        assert plan.injected_losses == 3
        assert report.stats_stored == 0
        assert report.stats_lost == expected_lost
        # Non-double-counted: destination 5 lost exactly 2 batches' worth,
        # not 1x the first + 2x the cumulative counter.
        assert report.per_destination[5].stats_lost == 2 * counts[5]
        # The loss shows up in the merged telemetry too.
        assert m.counter_value(report.metrics, m.DOCS_LOST) == expected_lost
        assert m.counter_value(report.metrics, m.FLUSH_FAILURES) == 3

    def test_signer_is_plumbed_through_workers(self):
        host, db, config = fresh_env([3, 5])
        kp = keypair_from_seed(9, bits=256)
        verifier = SignedDocumentVerifier()
        verifier.register_writer("17-ffaa:1:e01", kp.public)
        db[STATS_COLLECTION].validator = verifier
        campaign = make_campaign(
            host, db, config, signer=kp, signer_subject="17-ffaa:1:e01"
        )
        report = campaign.run(iterations=1)
        assert report.stats_stored == 8
        doc = db[STATS_COLLECTION].find_one()
        assert SIGNATURE_FIELD in doc
        verifier(doc)  # signature survives storage


def stats_docs(run_ids, fault_plan_factory=None):
    """Run a campaign over ``run_ids`` in a world that collected the paths
    of destinations 3 and 5; returns each run destination's stats docs,
    serialized, and the fault plan."""
    host, db, config = fresh_env([3, 5], max_retries=0)
    faults = fault_plan_factory() if fault_plan_factory is not None else None
    config = replace(config, destination_ids=list(run_ids))
    make_campaign(host, db, config, faults=faults).run(iterations=2)
    docs = {
        d: json.dumps(
            db[STATS_COLLECTION].find({"server_id": d}, sort=[("_id", 1)]),
            sort_keys=True,
        )
        for d in run_ids
    }
    return docs, faults


def outage_and_loss_plan():
    return FaultPlan(
        outages=[ServerOutage(3, 0, 1, ServerHealth.DOWN)],
        data_loss=DataLossFault(probability=0.5, seed=99),
    )


class TestSchedulingIndependence:
    """A destination's results do not depend on the destinations around it."""

    def test_alone_equals_full_campaign(self):
        full, _ = stats_docs([3, 5])
        for d in (3, 5):
            alone, _ = stats_docs([d])
            assert alone[d] == full[d]
        assert full[3] != "[]" and full[5] != "[]"

    def test_alone_equals_full_under_fault_plan(self):
        full, plan = stats_docs([3, 5], outage_and_loss_plan)
        tallies = {"injected_losses": 0, "injected_outages": 0}
        for d in (3, 5):
            alone, alone_plan = stats_docs([d], outage_and_loss_plan)
            assert alone[d] == full[d]
            for name in tallies:
                tallies[name] += getattr(alone_plan, name)
        # The injected-fault tallies of the solo runs add up to the
        # full campaign's.
        assert tallies == {
            "injected_losses": plan.injected_losses,
            "injected_outages": plan.injected_outages,
        }
        assert plan.injected_losses > 0 and plan.injected_outages > 0

    def test_scoped_views_share_counters_with_parent(self):
        plan = FaultPlan(data_loss=DataLossFault(probability=1.0))
        view = plan.scoped(3)
        with pytest.raises(Exception):
            view.flush_hook([{"_id": "x"}])
        assert plan.injected_losses == 1
