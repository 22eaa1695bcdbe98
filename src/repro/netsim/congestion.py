"""Scheduled congestion episodes.

The paper's Fig 9 shows a cluster of consecutive N. Virginia paths
measured at **100 % packet loss**; the authors hypothesise that "one or
more of these common nodes experienced a period of congestion" during
the (sequential) measurements.  We model exactly that: an episode pins a
set of ASes (all their links) or individual links to a loss/overload
level during a time window on the simulation clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Iterable, Optional, Tuple

import numpy as np

from repro.errors import ValidationError
from repro.topology.entities import LinkSpec
from repro.topology.isd_as import ISDAS


@dataclass(frozen=True)
class CongestionEpisode:
    """A time-windowed capacity/loss disturbance.

    ``loss`` is the extra drop probability applied to every packet
    crossing an affected link while the episode is active (1.0 = total
    blackout, the Fig 9 case).  ``capacity_factor`` scales the remaining
    usable capacity for fluid transfers (0.0 = none).
    """

    start_s: float
    end_s: float
    ases: FrozenSet[ISDAS] = frozenset()
    link_keys: FrozenSet[Tuple[str, int, str, int]] = frozenset()
    loss: float = 1.0
    capacity_factor: float = 0.0
    reason: str = "congestion"

    def __post_init__(self) -> None:
        if self.end_s <= self.start_s:
            raise ValidationError("episode must have positive duration")
        if not (0.0 <= self.loss <= 1.0):
            raise ValidationError(f"loss out of range: {self.loss}")
        if not (0.0 <= self.capacity_factor <= 1.0):
            raise ValidationError(f"capacity_factor out of range: {self.capacity_factor}")
        if not self.ases and not self.link_keys:
            raise ValidationError("episode must target at least one AS or link")

    @classmethod
    def on_ases(
        cls,
        ases: Iterable["ISDAS | str"],
        start_s: float,
        end_s: float,
        *,
        loss: float = 1.0,
        capacity_factor: float = 0.0,
        reason: str = "congestion",
    ) -> "CongestionEpisode":
        return cls(
            start_s=start_s,
            end_s=end_s,
            ases=frozenset(ISDAS.parse(a) for a in ases),
            loss=loss,
            capacity_factor=capacity_factor,
            reason=reason,
        )

    @classmethod
    def on_links(
        cls,
        links: Iterable[LinkSpec],
        start_s: float,
        end_s: float,
        *,
        loss: float = 1.0,
        capacity_factor: float = 0.0,
        reason: str = "congestion",
    ) -> "CongestionEpisode":
        return cls(
            start_s=start_s,
            end_s=end_s,
            link_keys=frozenset(l.key() for l in links),
            loss=loss,
            capacity_factor=capacity_factor,
            reason=reason,
        )

    def active_at(self, t_s: float) -> bool:
        return self.start_s <= t_s < self.end_s

    def affects(self, link: LinkSpec) -> bool:
        if link.key() in self.link_keys:
            return True
        return link.a in self.ases or link.b in self.ases


class EpisodeSchedule:
    """The set of episodes a :class:`NetworkSim` consults per transit.

    Nothing derived from the schedule is memoized: every packet transit
    and every fluid-transfer window reads the live episode list, so an
    episode added mid-run — including the monitor blackholing a link
    after a revocation — shows up in the very next measurement.
    """

    def __init__(self, episodes: Iterable[CongestionEpisode] = ()) -> None:
        self._episodes = list(episodes)

    def add(self, episode: CongestionEpisode) -> None:
        self._episodes.append(episode)

    def clear(self) -> None:
        self._episodes.clear()

    def __len__(self) -> int:
        return len(self._episodes)

    def disturbance(self, link: LinkSpec, t_s: float) -> Tuple[float, float]:
        """Aggregate (extra_loss, capacity_factor) for ``link`` at ``t_s``.

        Overlapping episodes compose: losses combine as independent drop
        events, capacity factors multiply.
        """
        survive = 1.0
        cap = 1.0
        for ep in self._episodes:
            if ep.active_at(t_s) and ep.affects(link):
                survive *= 1.0 - ep.loss
                cap *= ep.capacity_factor
        return 1.0 - survive, cap

    def disturbance_at(
        self, link: LinkSpec, t_array: "np.ndarray"
    ) -> Tuple["np.ndarray", "np.ndarray"]:
        """Vectorized :meth:`disturbance`: per-time (extra_loss, cap_factor).

        ``t_array`` is a numpy float array of simulation times; returns
        two arrays of the same shape.  For any time *t*,
        ``disturbance_at(link, [t])`` equals ``disturbance(link, t)``
        exactly — overlapping episodes compose identically (losses as
        independent drop events, capacity factors multiplicatively).
        Cost is O(active episodes) numpy masks instead of O(times ×
        episodes) Python comparisons.
        """
        t = np.asarray(t_array, dtype=np.float64)
        survive = np.ones_like(t)
        cap = np.ones_like(t)
        for ep in self._episodes:
            if not ep.affects(link):
                continue
            active = (t >= ep.start_s) & (t < ep.end_s)
            if not active.any():
                continue
            survive[active] *= 1.0 - ep.loss
            cap[active] *= ep.capacity_factor
        return 1.0 - survive, cap

    def window_disturbance(
        self, link: LinkSpec, t0_s: float, t1_s: float
    ) -> Tuple[float, float]:
        """Time-weighted (extra_loss, capacity_factor) over a window."""
        if not self._episodes:
            return 0.0, 1.0  # common case: skip the cut-set machinery
        if t1_s <= t0_s:
            return self.disturbance(link, t0_s)
        # Integrate piecewise over episode boundaries.
        cuts = {t0_s, t1_s}
        for ep in self._episodes:
            if ep.affects(link):
                if t0_s < ep.start_s < t1_s:
                    cuts.add(ep.start_s)
                if t0_s < ep.end_s < t1_s:
                    cuts.add(ep.end_s)
        points = sorted(cuts)
        total = t1_s - t0_s
        loss_acc = 0.0
        cap_acc = 0.0
        for lo, hi in zip(points, points[1:]):
            w = (hi - lo) / total
            loss, cap = self.disturbance(link, (lo + hi) / 2.0)
            loss_acc += w * loss
            cap_acc += w * cap
        return loss_acc, cap_acc
