"""Per-destination campaigns: scale-out across destinations (§4.1.1 + §4.1.2).

The paper's scalability requirement — "the system's capability to adapt
to a larger workload ... the amount of data generated grows both with
the number of tests performed per destination, as well as the number of
destinations tested" — is met by sharding the campaign per destination.
Each destination runs on its *own* simulated network client (its own
clock and RNG streams, seeded per destination), so its results are the
same whether it runs alone or inside the full campaign.  Destinations
run one after another in ``_id`` order: the work is GIL-bound numpy on
tiny arrays, and a thread pool measured no faster than this loop.

Fault isolation (§4.1.2) is the second half of the contract: one
unreachable or misbehaving destination must never abort the fleet.  A
destination that raises is converted into a failed
:class:`~repro.suite.runner.CampaignReport` (the error recorded in
``ParallelReport.failed_destinations``) while every other destination's
results are kept.  ``fail_fast=True`` restores abort-on-first-error for
debugging: the campaign stops at the failing destination, and the
destinations sorted after it never run.

Fault *injection* is live here too: a shared
:class:`~repro.suite.faults.FaultPlan` is sliced into per-destination
views (deterministic loss streams, shared counters) and the signing
keypair is forwarded to every destination's runner.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, Optional

from repro.crypto.rsa import RSAKeyPair
from repro.docdb.database import Database
from repro.netsim.config import NetworkConfig
from repro.scion.snet import ScionHost
from repro.suite import metrics as m
from repro.suite.config import SERVERS_COLLECTION, SuiteConfig
from repro.suite.faults import FaultPlan
from repro.suite.runner import CampaignReport, TestRunner
from repro.topology.graph import Topology
from repro.topology.isd_as import ISDAS
from repro.util.rng import derive_seed


@dataclass
class ParallelReport:
    """Aggregate of the per-destination campaign reports."""

    per_destination: Dict[int, CampaignReport] = field(default_factory=dict)
    #: server_id -> error string for destinations whose whole campaign died.
    failed_destinations: Dict[int, str] = field(default_factory=dict)

    @property
    def stats_stored(self) -> int:
        return sum(r.stats_stored for r in self.per_destination.values())

    @property
    def paths_tested(self) -> int:
        return sum(r.paths_tested for r in self.per_destination.values())

    @property
    def stats_lost(self) -> int:
        return sum(r.stats_lost for r in self.per_destination.values())

    @property
    def measurement_errors(self) -> int:
        return sum(r.measurement_errors for r in self.per_destination.values())

    @property
    def completed_destinations(self) -> int:
        return len(self.per_destination) - len(self.failed_destinations)

    @property
    def metrics(self) -> Dict[str, Any]:
        """Campaign-wide metrics: per-destination snapshots, folded.

        The fold is commutative, so the merged values are independent of
        the order the destinations ran in.
        """
        return m.merge_snapshots(
            self.per_destination[sid].metrics
            for sid in sorted(self.per_destination)
        )

    def format_text(self) -> str:
        lines = [
            f"parallel campaign: {self.stats_stored} stats stored, "
            f"{self.paths_tested} path tests, "
            f"{self.stats_lost} lost, {self.measurement_errors} errors",
            f"  destinations: {self.completed_destinations} ok, "
            f"{len(self.failed_destinations)} failed",
        ]
        for sid in sorted(self.failed_destinations):
            lines.append(f"    - {sid}: {self.failed_destinations[sid]}")
        metrics_block = m.format_metrics(self.metrics)
        if metrics_block:
            lines.append(metrics_block)
        return "\n".join(lines)


class ParallelCampaign:
    """Runs one single-destination campaign per destination, in turn.

    ``faults`` and ``signer``/``signer_subject`` are forwarded to every
    destination's :class:`TestRunner` (the plan through a per-destination
    :meth:`~repro.suite.faults.FaultPlan.scoped` view so injected-loss
    draws do not depend on which destinations ran before).  With the
    default ``fail_fast=False`` a crashing destination is isolated: it is
    reported in :attr:`ParallelReport.failed_destinations` and every
    other destination completes normally.
    """

    def __init__(
        self,
        topology: Topology,
        local_ia: "ISDAS | str",
        db: Database,
        config: SuiteConfig,
        *,
        base_config: Optional[NetworkConfig] = None,
        seed: int = 20231112,
        faults: Optional[FaultPlan] = None,
        signer: Optional[RSAKeyPair] = None,
        signer_subject: str = "",
        fail_fast: bool = False,
    ) -> None:
        self.topology = topology
        self.local_ia = ISDAS.parse(local_ia)
        self.db = db
        self.config = config
        self.base_config = base_config
        self.seed = seed
        self.faults = faults
        self.signer = signer
        self.signer_subject = signer_subject
        self.fail_fast = fail_fast

    def _host_for(self, server_id: int) -> ScionHost:
        """A fresh host whose network is seeded per destination."""
        if self.base_config is not None:
            net_config = replace(
                self.base_config, seed=derive_seed(self.seed, f"dest:{server_id}")
            )
        else:
            net_config = NetworkConfig(seed=derive_seed(self.seed, f"dest:{server_id}"))
        return ScionHost(self.topology, self.local_ia, config=net_config)

    def run(self, *, iterations: int = 1) -> ParallelReport:
        """Measure every configured destination, one after another.

        A destination's exception never aborts the fleet (unless
        ``fail_fast``): it becomes a failed :class:`CampaignReport` for
        that destination and an entry in
        :attr:`ParallelReport.failed_destinations`.
        """
        servers = self.db[SERVERS_COLLECTION].find(sort=[("_id", 1)])
        if self.config.destination_ids is not None:
            wanted = set(self.config.destination_ids)
            servers = [s for s in servers if s["_id"] in wanted]
        if self.config.some_only:
            servers = servers[:1]

        report = ParallelReport()
        for server in servers:
            server_id = int(server["_id"])
            try:
                report.per_destination[server_id] = self._run_destination(
                    server_id, iterations
                )
            except Exception as exc:  # per-destination isolation boundary
                if self.fail_fast:
                    raise
                failure = f"{type(exc).__name__}: {exc}"
                failed = CampaignReport(failure=failure)
                failed.record_error(f"destination {server_id}: {failure}")
                report.per_destination[server_id] = failed
                report.failed_destinations[server_id] = failure
        return report

    def _run_destination(self, server_id: int, iterations: int) -> CampaignReport:
        host = self._host_for(server_id)
        config = replace(
            self.config,
            destination_ids=[server_id],
            some_only=False,
            iterations=iterations,
        )
        runner = TestRunner(
            host,
            self.db,
            config,
            faults=self.faults.scoped(server_id) if self.faults is not None else None,
            signer=self.signer,
            signer_subject=self.signer_subject,
        )
        return runner.run()
