"""The monitor control loop: one batched pass per measurement round.

:class:`FlowMonitor` is the piece that ties the subsystem together and
plugs into :class:`~repro.suite.scheduler.MonitoringScheduler` as a
round hook.  Each pass handles every flow at once:

1. reacts to revocations — flows pinned to a revoked interface are
   marked DEAD and force-failed-over immediately;
2. snapshots the tracked flows and gives each one that is not DEAD a
   fixed probe slot, in ``controller.flows()`` order: slot *k* starts
   at ``pass_start + k * probe_count * probe_interval_s`` (summed the
   way the clock adds, so slot *k + 1* starts exactly where slot *k*'s
   probe series leaves the clock);
3. runs **one** grouped ``paths_stats`` query over every pinned path
   (``path_id $in …``, ``timestamp_ms`` from the lowest per-flow
   cursor) and splits it per path; each flow folds only the samples
   at or after its own cursor, so every sample is folded exactly once;
4. computes every flow's targeted SCMP probe (3 echoes by default)
   with **one** batch-engine call per distinct pinned path, over a
   (flows × probes) send-time matrix; flows whose server is DOWN read
   as 100 % loss;
5. folds flow by flow, moving the clock to each flow's slot first, and
   hands VIOLATED flows to the :class:`~repro.monitor.failover.
   FailoverEngine` (which respects the SLO cooldown).  A flow that
   fails over on its stats leaves its slot idle and its probe lanes
   unused; swapped flows are re-registered on their new path.

Every event of a pass lands in ``flow_events`` through one
``insert_many`` (:meth:`FlowEventJournal.batch`) — one WAL record, so
a crash loses a whole pass or nothing of it.  Everything runs on the
shared :class:`~repro.netsim.clock.SimClock`; two runs with equal seeds
produce byte-identical journals (pinned by the determinism test).
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.docdb.database import Database
from repro.errors import ValidationError
from repro.monitor import journal as jn
from repro.monitor.failover import FailoverEngine
from repro.monitor.health import (
    FlowHealth,
    FlowHealthTracker,
    FlowKey,
    HealthSample,
    Transition,
)
from repro.monitor.journal import FLOW_EVENTS_COLLECTION, FlowEventJournal
from repro.monitor.revocation import Revocation, RevocationStore
from repro.monitor.slo import FlowSLO
from repro.scion.snet import ScionHost
from repro.selection.request import UserRequest
from repro.suite import metrics as m
from repro.suite.config import STATS_COLLECTION
from repro.topology.isd_as import ISDAS
from repro.upin.controller import FlowRule, PathController

DEFAULT_PROBE_COUNT = 3
DEFAULT_PROBE_INTERVAL_S = 0.05


class FlowMonitor:
    """Keeps every installed flow rule inside its SLO."""

    def __init__(
        self,
        host: ScionHost,
        db: Database,
        controller: PathController,
        *,
        probe_count: int = DEFAULT_PROBE_COUNT,
        probe_interval_s: float = DEFAULT_PROBE_INTERVAL_S,
        ewma_alpha: float = 0.4,
        slo_factory: Optional[Callable[[UserRequest], FlowSLO]] = None,
        metrics: Optional[m.MetricsRegistry] = None,
    ) -> None:
        if probe_count > 0 and probe_interval_s <= 0:
            raise ValidationError("probe interval must be positive")
        self.host = host
        self.db = db
        self.controller = controller
        self.probe_count = probe_count
        self.probe_interval_s = probe_interval_s
        self.slo_factory = slo_factory or FlowSLO.from_request
        self.metrics = metrics if metrics is not None else m.MetricsRegistry()
        self.tracker = FlowHealthTracker(ewma_alpha=ewma_alpha)
        self.revocations = RevocationStore(host.topology)
        self.journal = FlowEventJournal(db[FLOW_EVENTS_COLLECTION])
        self.engine = FailoverEngine(
            self.controller, self.revocations, self.journal,
            metrics=self.metrics,
        )
        #: Per-flow high-water mark over ``paths_stats`` timestamps so
        #: each stored sample is folded into the tracker exactly once.
        self._stats_cursor_ms: Dict[FlowKey, int] = {}
        self.rounds_observed = 0

    @property
    def clock(self):
        return self.host.clock

    # -- flow registration -----------------------------------------------------

    def watch(self, rule: FlowRule, slo: Optional[FlowSLO] = None) -> FlowSLO:
        """Put an installed flow under SLA monitoring."""
        slo = slo if slo is not None else self.slo_factory(rule.request)
        now = self.clock.now_s
        self.tracker.register(rule.key, slo, rule.path_id, now)
        self._stats_cursor_ms[rule.key] = self.clock.now_ms
        self.journal.append(
            jn.EVENT_FLOW_REGISTERED,
            now,
            user=rule.user,
            server_id=rule.server_id,
            path_id=rule.path_id,
            slo=slo.to_document(),
        )
        return slo

    def unwatch(self, user: str, server_id: int) -> bool:
        key = (user, server_id)
        if not self.tracker.unregister(key):
            return False
        self._stats_cursor_ms.pop(key, None)
        self.journal.append(
            jn.EVENT_FLOW_WITHDRAWN,
            self.clock.now_s,
            user=user,
            server_id=server_id,
        )
        return True

    # -- revocations -----------------------------------------------------------

    def revoke(self, revocation: Revocation, *, blackhole: bool = True) -> None:
        """Learn (and optionally enact in netsim) an interface revocation.

        Flows whose pinned path crosses the revoked interface are marked
        DEAD and failed over *now*, bypassing any cooldown.  The events
        this writes form one journal batch.
        """
        self.revocations.inject(
            revocation, network=self.host.network if blackhole else None
        )
        self.metrics.inc(m.MON_REVOCATIONS)
        with self.journal.batch():
            self.journal.append(
                jn.EVENT_REVOCATION,
                self.clock.now_s,
                isd_as=str(revocation.isd_as),
                interface=revocation.interface,
                issued_at_s=revocation.issued_at_s,
                expires_at_s=revocation.expires_at_s,
                reason=revocation.reason,
            )
            self._handle_revocations(self.clock.now_s)

    # -- the per-round pass ----------------------------------------------------

    def after_round(self, record: Any = None) -> None:
        """One monitoring pass; scheduler round hook (record unused)."""
        start_wall = time.perf_counter()
        with self.journal.batch():
            self._handle_revocations(self.clock.now_s)
            flows = [
                rule for rule in self.controller.flows()
                if self.tracker.is_tracked(rule.key)
            ]
            probed = [
                rule for rule in flows
                if self.tracker.state_of(rule.key) is not FlowHealth.DEAD
            ]
            slots = self._probe_slots(len(probed))
            stats = self._fresh_stats(probed)
            if self.probe_count > 0:
                probes = self._probe_all(probed, slots)
            slot_index = {rule.key: k for k, rule in enumerate(probed)}
            for rule in flows:
                k = slot_index.get(rule.key)
                if k is None:
                    # A dead flow that could not fail over yet: retry.
                    self._attempt_failover(rule, cause="path dead", force=True)
                    continue
                self.clock.advance_to(slots[k])
                if self._ingest_stats(rule, stats.get(rule.path_id, ())):
                    continue  # failed over; slot idle, fresh path next round
                if self.probe_count > 0:
                    self.clock.advance(self.probe_count * self.probe_interval_s)
                    loss_pct, latency_ms = probes[k]
                    self.metrics.inc(m.MON_PROBES, self.probe_count)
                    self._feed(rule, HealthSample(
                        t_s=self.clock.now_s,
                        loss_pct=loss_pct,
                        latency_ms=latency_ms,
                        bw_down_mbps=None,
                        source="probe",
                    ))
                else:
                    self._check_staleness(rule)
        self.rounds_observed += 1
        self.metrics.observe(
            m.MON_ROUND_WALL_S, time.perf_counter() - start_wall
        )

    # -- internals -------------------------------------------------------------

    def _handle_revocations(self, now_s: float) -> None:
        if not len(self.revocations):
            return
        for rule in self.controller.flows():
            key = rule.key
            if not self.tracker.is_tracked(key):
                continue
            revocation = self.revocations.affecting_path(rule.path, now_s)
            if revocation is None:
                continue
            if self.tracker.state_of(key) is not FlowHealth.DEAD:
                transition = self.tracker.mark_dead(
                    key, f"revoked: {revocation.isd_as}#{revocation.interface}",
                    now_s,
                )
                if transition is not None:
                    self._journal_transition(rule, transition)
            self._attempt_failover(
                rule,
                cause=(
                    f"revocation {revocation.isd_as}#{revocation.interface} "
                    f"({revocation.reason})"
                ),
                force=True,
            )

    def _probe_slots(self, n: int) -> List[float]:
        """Start time of each probed flow's slot, as a running clock sum."""
        width = self.probe_count * self.probe_interval_s
        slots: List[float] = []
        t = self.clock.now_s
        for _ in range(n):
            slots.append(t)
            t += width
        return slots

    def _fresh_stats(
        self, rules: List[FlowRule]
    ) -> Dict[str, List[Dict[str, Any]]]:
        """Campaign samples per pinned path, from one grouped query."""
        if not rules:
            return {}
        cursor = min(self._stats_cursor_ms.get(rule.key, 0) for rule in rules)
        docs = self.db[STATS_COLLECTION].find(
            {
                "path_id": {"$in": sorted({rule.path_id for rule in rules})},
                "timestamp_ms": {"$gte": cursor},
            },
            sort=[("timestamp_ms", 1)],
        )
        by_path: Dict[str, List[Dict[str, Any]]] = {}
        for doc in docs:
            by_path.setdefault(doc["path_id"], []).append(doc)
        return by_path

    def _ingest_stats(
        self, rule: FlowRule, docs: Sequence[Dict[str, Any]]
    ) -> bool:
        """Fold the samples at or after the flow's cursor; True on swap."""
        key = rule.key
        cursor = self._stats_cursor_ms.get(key, 0)
        for doc in docs:
            if doc["timestamp_ms"] < cursor:
                continue
            self._stats_cursor_ms[key] = int(doc["timestamp_ms"]) + 1
            sample = HealthSample(
                t_s=float(doc["timestamp_ms"]) / 1000.0,
                loss_pct=float(doc["loss_pct"]),
                latency_ms=doc.get("avg_latency_ms"),
                bw_down_mbps=doc.get("bw_down_mtu_mbps"),
                source="stats",
            )
            if self._feed(rule, sample):
                return True
        return False

    def _probe_all(
        self, rules: List[FlowRule], slots: List[float]
    ) -> List[Tuple[float, Optional[float]]]:
        """``(loss_pct, latency_ms)`` of every flow's probe series.

        One batch-engine call per distinct pinned path, over the
        (flows × probes) matrix of send times of the flows on it whose
        server answers; the others read as 100 % loss.  Latency is the
        mean of the received RTTs summed in send order (``None`` when
        all were lost) — the figures ``echo_series`` reports.
        """
        count = self.probe_count
        offsets = np.arange(count, dtype=np.float64) * self.probe_interval_s
        results: List[Tuple[float, Optional[float]]] = [(100.0, None)] * len(rules)
        groups: Dict[str, List[int]] = {}
        for k, rule in enumerate(rules):
            _, dst_ip = ISDAS.parse_address(rule.server_address)
            if self.host.scmp.answers(rule.path, dst_ip):
                groups.setdefault(rule.path_id, []).append(k)
        for lanes in groups.values():
            send_times = np.asarray([slots[k] for k in lanes])[:, None] + offsets
            rtt = self.host.scmp.echo_batch(rules[lanes[0]].path, send_times).rtt_ms
            lost = np.isnan(rtt)
            received = count - np.count_nonzero(lost, axis=1)
            total = np.zeros(len(lanes))
            for j in range(count):  # sequential sum, as sum() over a tuple
                total += np.where(lost[:, j], 0.0, rtt[:, j])
            loss_pct = 100.0 * (1.0 - received / count)
            for k, loss, got, tot in zip(
                lanes, loss_pct.tolist(), received.tolist(), total.tolist()
            ):
                results[k] = (loss, tot / got if got else None)
        return results

    def _feed(self, rule: FlowRule, sample: HealthSample) -> bool:
        """Fold one sample; journal it; failover on VIOLATED."""
        key = rule.key
        observation = self.tracker.observe(key, sample)
        self.metrics.inc(m.MON_SAMPLES)
        if observation.breached:
            self.metrics.inc(m.MON_BREACHES)
        self.journal.append(
            jn.EVENT_SAMPLE,
            sample.t_s,
            user=rule.user,
            server_id=rule.server_id,
            path_id=rule.path_id,
            breach=observation.breached,
            **sample.to_payload(),
        )
        if observation.transition is not None:
            self._journal_transition(rule, observation.transition)
        if self.tracker.state_of(key) is FlowHealth.VIOLATED:
            reasons = self.tracker.breach_reasons(key)
            cause = "; ".join(reasons) if reasons else "SLO breached"
            return self._attempt_failover(rule, cause=cause)
        return False

    def _check_staleness(self, rule: FlowRule) -> None:
        """Probe-less monitoring: breach on samples older than the SLO."""
        transition = self.tracker.observe_staleness(rule.key, self.clock.now_s)
        if transition is not None:
            self._journal_transition(rule, transition)
            if transition.to_state is FlowHealth.VIOLATED:
                self._attempt_failover(rule, cause="staleness")

    def _attempt_failover(
        self, rule: FlowRule, *, cause: str, force: bool = False
    ) -> bool:
        key = rule.key
        slo = self.tracker.slo_of(key)
        outcome = self.engine.try_failover(
            rule,
            slo,
            cause,
            self.clock.now_s,
            detected_at_s=self.tracker.first_breach_of(key),
            force=force,
        )
        if not outcome.swapped:
            return False
        assert outcome.new_rule is not None
        self.watch(outcome.new_rule, slo)
        return True

    def _journal_transition(self, rule: FlowRule, transition: Transition) -> None:
        self.metrics.inc(m.MON_TRANSITIONS)
        self.journal.append(
            jn.EVENT_STATE_TRANSITION,
            transition.t_s,
            user=rule.user,
            server_id=rule.server_id,
            path_id=rule.path_id,
            **{
                "from": transition.from_state.value,
                "to": transition.to_state.value,
            },
            cause=transition.cause,
            first_breach_s=transition.first_breach_s,
        )

    # -- reporting -------------------------------------------------------------

    def metrics_snapshot(self) -> Dict[str, Any]:
        return self.metrics.snapshot()

    def format_status(self) -> str:
        """One line per monitored flow: state, path, smoothed health."""
        lines = ["monitored flows:"]
        snap = self.tracker.snapshot()
        if not snap:
            return "monitored flows:\n  (none)"
        for flow, st in snap.items():
            lat = st["ewma_latency_ms"]
            loss = st["ewma_loss_pct"]
            lat_txt = f"{lat:7.1f}ms" if lat is not None else "    n/a  "
            loss_txt = f"{loss:5.1f}%" if loss is not None else "  n/a "
            lines.append(
                f"  {flow:16s} {st['state']:9s} path {st['path_id']:12s} "
                f"lat {lat_txt} loss {loss_txt}  samples {st['samples']} "
                f"breaches {st['breaches']}"
            )
        counts = self.tracker.counts_by_state()
        lines.append(
            "  totals: "
            + "  ".join(f"{state}={n}" for state, n in sorted(counts.items()))
        )
        return "\n".join(lines)
