"""Tests for the parallel campaign and the test-suite CLI."""

import pytest

from repro.docdb.client import DocDBClient
from repro.scion.snet import ScionHost
from repro.suite.cli import build_parser, main, seed_servers
from repro.suite.collect import PathsCollector
from repro.suite.config import STATS_COLLECTION, SERVERS_COLLECTION, SuiteConfig
from repro.suite.parallel import ParallelCampaign
from repro.topology.scionlab import (
    MY_AS,
    build_scionlab_world,
    scionlab_network_config,
)


class TestParallelCampaign:
    @pytest.fixture()
    def env(self):
        client = DocDBClient()
        db = client["upin"]
        seed_servers(db)
        host = ScionHost.scionlab(seed=3)
        config = SuiteConfig(iterations=1, destination_ids=[3, 5])
        PathsCollector(host, db, config).collect()
        return host, db, config

    def test_all_destinations_measured(self, env):
        host, db, config = env
        campaign = ParallelCampaign(
            host.topology, MY_AS, db, config,
            base_config=scionlab_network_config(seed=3), seed=3,
        )
        report = campaign.run(iterations=1)
        assert set(report.per_destination) == {3, 5}
        assert report.stats_stored == 8  # 6 Magdeburg + 2 KAIST paths
        assert report.measurement_errors == 0
        assert db[STATS_COLLECTION].count_documents() == 8

    def test_results_repeat_in_a_fresh_database(self, env):
        host, db, config = env

        def run():
            client = DocDBClient()
            fresh = client["upin"]
            seed_servers(fresh)
            PathsCollector(
                ScionHost.scionlab(seed=3), fresh, config
            ).collect()
            ParallelCampaign(
                host.topology, MY_AS, fresh, config,
                base_config=scionlab_network_config(seed=3), seed=3,
            ).run(iterations=1)
            docs = fresh[STATS_COLLECTION].find(sort=[("_id", 1)])
            return [
                (d["path_id"], round(d["avg_latency_ms"], 6)) for d in docs
            ]

        assert run() == run()


class TestSuiteCli:
    def test_parser_mirrors_test_suite_sh(self):
        args = build_parser().parse_args(["100", "--skip"])
        assert args.iterations == 100 and args.skip and not args.some_only

    def test_some_only_flag(self):
        args = build_parser().parse_args(["10", "--some_only"])
        assert args.some_only

    def test_seed_servers_idempotent(self):
        db = DocDBClient()["upin"]
        assert seed_servers(db) == 21
        assert seed_servers(db) == 21
        assert db[SERVERS_COLLECTION].count_documents() == 21

    def test_main_some_only(self, capsys):
        assert main(["1", "--some_only"]) == 0
        out = capsys.readouterr().out
        assert "collected 22 paths" in out
        assert "stats stored" in out

    def test_main_skip_without_paths_stores_nothing(self, capsys):
        assert main(["1", "--skip", "--some_only"]) == 0
        out = capsys.readouterr().out
        assert "campaign: 0 stats stored" in out

    def test_main_persists_db(self, tmp_path, capsys):
        db_dir = str(tmp_path / "db")
        assert main(["1", "--some_only", "--db-dir", db_dir]) == 0
        restored = DocDBClient.load_from(db_dir)
        assert restored["upin"][STATS_COLLECTION].count_documents() == 22

    def test_parallel_takes_no_value(self):
        assert build_parser().parse_args(["1", "--parallel"]).parallel
        with pytest.raises(SystemExit):
            build_parser().parse_args(["1", "--parallel", "2"])

    def test_main_parallel_mode(self, capsys):
        assert main(["1", "--some_only", "--parallel"]) == 0
        assert "parallel campaign" in capsys.readouterr().out

    def test_main_metrics_flag(self, capsys):
        assert main(["1", "--some_only", "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "metrics:" in out
        assert "batches:" in out

    def test_main_parallel_metrics_and_fail_fast_flags(self, capsys):
        assert main(
            ["1", "--some_only", "--parallel", "--metrics", "--fail-fast"]
        ) == 0
        out = capsys.readouterr().out
        assert "parallel campaign" in out
        assert "metrics:" in out

    def test_main_parallel_signed(self, capsys):
        assert main(["1", "--some_only", "--parallel", "--sign"]) == 0
        out = capsys.readouterr().out
        assert "signing stats as" in out
        assert "parallel campaign: 22 stats stored" in out
