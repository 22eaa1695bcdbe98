"""Shared fixtures.

Session-scoped fixtures build the (deterministic) SCIONLab world and a
small measured campaign once; tests that mutate state build their own
objects instead.
"""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.docdb.client import DocDBClient
from repro.experiments.world import run_campaign
from repro.scion.snet import ScionHost
from repro.suite.cli import seed_servers
from repro.suite.config import SuiteConfig
from tests.helpers import build_tiny_world


TEST_SEED = 424242

# Property tests are judged on their examples, not on how fast a loaded
# machine runs them: no per-example deadline anywhere.  Suites set only
# their example counts and health checks.
settings.register_profile("repro", deadline=None)
settings.load_profile("repro")


@pytest.fixture(scope="session")
def tiny_topology():
    return build_tiny_world()


@pytest.fixture(scope="session")
def tiny_host(tiny_topology):
    return ScionHost(tiny_topology, "1-ffaa:1:1")


@pytest.fixture(scope="session")
def world_host():
    """The canonical SCIONLab world (read-only use!)."""
    return ScionHost.scionlab(seed=TEST_SEED)


@pytest.fixture()
def fresh_world_host():
    """A SCIONLab host tests may freely mutate (episodes, health, clock)."""
    return ScionHost.scionlab(seed=TEST_SEED)


@pytest.fixture(scope="session")
def measured_world():
    """A small but complete campaign: Ireland + Magdeburg, 2 iterations."""
    return run_campaign([1, 3], iterations=2, seed=TEST_SEED)


@pytest.fixture()
def seeded_db():
    """A fresh database with the availableServers collection populated."""
    client = DocDBClient()
    db = client["upin"]
    seed_servers(db)
    return db
