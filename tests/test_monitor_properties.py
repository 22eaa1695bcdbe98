"""Property tests for the monitor's hysteresis laws.

Three laws, stated in ``repro.monitor.health`` and pinned here:

1. a flow never alarms (transitions to VIOLATED) unless at least K of
   its last N samples breached the SLO — one bad probe never reroutes
   anybody;
2. a flow that just failed over is never rerouted again inside its
   cooldown window (unless the trigger is forced, i.e. a revocation);
3. the tracker is a pure fold over its observation stream: replaying
   the journal reconstructs the exact tracker state.
"""

import itertools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.docdb.client import DocDBClient
from repro.experiments.world import run_campaign
from repro.monitor.failover import FailoverEngine
from repro.monitor.health import (
    FlowHealth,
    FlowHealthTracker,
    HealthSample,
    replay_events,
)
from repro.monitor.journal import FlowEventJournal
from repro.monitor.revocation import RevocationStore
from repro.monitor.slo import FlowSLO
from repro.selection.engine import PathSelector
from repro.selection.request import UserRequest
from repro.upin.controller import PathController

# -- strategies ---------------------------------------------------------------

slo_shapes = st.tuples(
    st.integers(min_value=1, max_value=4),  # breach_k
    st.integers(min_value=0, max_value=3),  # window_n = k + extra
    st.floats(min_value=10.0, max_value=90.0, allow_nan=False),  # max_loss
)

loss_streams = st.lists(
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    min_size=1,
    max_size=40,
)


def make_slo(shape):
    k, extra, max_loss = shape
    return FlowSLO(max_loss_pct=max_loss, breach_k=k, window_n=k + extra)


def feed(tracker, key, losses, *, dt_s=10.0):
    """Lazily observe a loss stream, yielding each Observation.

    Lazy on purpose: callers assert on the tracker's state *between*
    samples, so the fold must not run ahead of the iteration.
    """
    for i, loss in enumerate(losses):
        sample = HealthSample(t_s=(i + 1) * dt_s, loss_pct=loss)
        yield tracker.observe(key, sample)


class TestKofNLaw:
    @given(slo_shapes, loss_streams)
    def test_never_violated_without_k_of_n_breaches(self, shape, losses):
        slo = make_slo(shape)
        tracker = FlowHealthTracker()
        key = ("u", 1)
        tracker.register(key, slo, "p", 0.0)
        breach_flags = []
        for obs in feed(tracker, key, losses):
            breach_flags.append(obs.breached)
            if obs.transition is not None and (
                obs.transition.to_state is FlowHealth.VIOLATED
            ):
                recent = breach_flags[-slo.window_n:]
                assert sum(recent) >= slo.breach_k, (
                    "alarmed with fewer than K of the last N breaching"
                )

    @given(slo_shapes, loss_streams)
    def test_ok_implies_window_fully_clean(self, shape, losses):
        slo = make_slo(shape)
        tracker = FlowHealthTracker()
        key = ("u", 1)
        tracker.register(key, slo, "p", 0.0)
        breach_flags = []
        for obs in feed(tracker, key, losses):
            breach_flags.append(obs.breached)
            if tracker.state_of(key) is FlowHealth.OK and breach_flags:
                assert not any(breach_flags[-slo.window_n:]), (
                    "flow reported OK with breaches still in the window"
                )

    @given(slo_shapes, loss_streams)
    def test_single_breach_never_alarms_when_k_above_one(self, shape, losses):
        k, extra, max_loss = shape
        if k < 2:
            k = 2
        slo = FlowSLO(max_loss_pct=max_loss, breach_k=k, window_n=k + extra)
        tracker = FlowHealthTracker()
        key = ("u", 1)
        tracker.register(key, slo, "p", 0.0)
        breach_flags = []
        for obs in feed(tracker, key, losses):
            breach_flags.append(obs.breached)
            if sum(breach_flags) <= 1:  # at most one breach ever seen
                assert tracker.state_of(key) is not FlowHealth.VIOLATED

    @given(slo_shapes, loss_streams)
    def test_dead_is_sticky_under_any_samples(self, shape, losses):
        slo = make_slo(shape)
        tracker = FlowHealthTracker()
        key = ("u", 1)
        tracker.register(key, slo, "p", 0.0)
        tracker.mark_dead(key, "revoked", 0.5)
        for obs in feed(tracker, key, losses):
            assert obs.transition is None
            assert tracker.state_of(key) is FlowHealth.DEAD


class TestJournalReplayLaw:
    @given(slo_shapes, loss_streams, st.booleans())
    def test_replay_reconstructs_exact_tracker_state(
        self, shape, losses, kill_midway
    ):
        """Live tracker vs journal replay: snapshots must be equal."""
        slo = make_slo(shape)
        live = FlowHealthTracker()
        journal = FlowEventJournal(DocDBClient()["j"]["flow_events"])
        key = ("user-a", 7)
        live.register(key, slo, "path-1", 0.0)
        journal.append(
            "flow_registered", 0.0, user=key[0], server_id=key[1],
            path_id="path-1", slo=slo.to_document(),
        )
        for i, loss in enumerate(losses):
            t_s = (i + 1) * 10.0
            if kill_midway and i == len(losses) // 2:
                transition = live.mark_dead(key, "revoked: test", t_s)
                if transition is not None:
                    journal.append(
                        "state_transition", t_s,
                        user=key[0], server_id=key[1], path_id="path-1",
                        **{"from": transition.from_state.value,
                           "to": transition.to_state.value},
                        cause=transition.cause,
                    )
            sample = HealthSample(t_s=t_s, loss_pct=loss)
            obs = live.observe(key, sample)
            journal.append(
                "sample", t_s, user=key[0], server_id=key[1],
                path_id="path-1", breach=obs.breached,
                **sample.to_payload(),
            )
            if obs.transition is not None:
                journal.append(
                    "state_transition", t_s,
                    user=key[0], server_id=key[1], path_id="path-1",
                    **{"from": obs.transition.from_state.value,
                       "to": obs.transition.to_state.value},
                    cause=obs.transition.cause,
                )
        replayed = replay_events(journal.events())
        assert replayed.snapshot() == live.snapshot()

    @given(slo_shapes, loss_streams)
    def test_replay_is_idempotent(self, shape, losses):
        slo = make_slo(shape)
        journal = FlowEventJournal(DocDBClient()["j"]["flow_events"])
        key = ("user-b", 3)
        journal.append(
            "flow_registered", 0.0, user=key[0], server_id=key[1],
            path_id="p", slo=slo.to_document(),
        )
        for i, loss in enumerate(losses):
            sample = HealthSample(t_s=(i + 1) * 5.0, loss_pct=loss)
            journal.append(
                "sample", sample.t_s, user=key[0], server_id=key[1],
                path_id="p", breach=False, **sample.to_payload(),
            )
        events = journal.events()
        assert replay_events(events).snapshot() == \
            replay_events(events).snapshot()


# -- cooldown law against the real engine -------------------------------------


@pytest.fixture(scope="module")
def cooldown_world():
    return run_campaign([3], iterations=1, seed=99001)


_journal_counter = itertools.count()

gap_streams = st.lists(
    st.floats(min_value=0.0, max_value=400.0, allow_nan=False),
    min_size=1,
    max_size=8,
)


class TestCooldownLaw:
    @settings(
        max_examples=20,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(gaps=gap_streams, force=st.booleans())
    def test_no_flap_within_cooldown_window(
        self, cooldown_world, gaps, force
    ):
        """swapped ⇒ outside cooldown; suppressed ⇒ inside (unless forced)."""
        world = cooldown_world
        selector = PathSelector(world.db, world.host.topology)
        controller = PathController(world.host, selector)
        user = f"prop-{next(_journal_counter)}"
        controller.apply_intent(user, UserRequest.make(3))
        slo = FlowSLO(cooldown_s=120.0)
        journal = FlowEventJournal(DocDBClient()["j"]["flow_events"])
        engine = FailoverEngine(
            controller, RevocationStore(world.host.topology), journal
        )
        now = 1000.0
        last_swap = None
        for gap in gaps:
            now += gap
            rule = controller.active_flow(user, 3)
            outcome = engine.try_failover(
                rule, slo, "prop test", now, force=force
            )
            in_cooldown = (
                last_swap is not None and now - last_swap < slo.cooldown_s
            )
            if force:
                assert not outcome.suppressed
            if outcome.swapped:
                assert force or not in_cooldown
                last_swap = now
            elif outcome.suppressed:
                assert in_cooldown and not force
