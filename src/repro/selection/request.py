"""User requests: performance preferences plus exclusion constraints.

A UPIN user states *what the path should optimise* (latency, latency
consistency, bandwidth, loss — or a weighted blend) and *what it must
avoid*: countries and operators (sovereignty, paper abstract), specific
ASes (the §6.1 jitter offenders), or whole ISDs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Optional

from repro.errors import ValidationError
from repro.topology.isd_as import ISDAS


class Metric(enum.Enum):
    """Path qualities a user can optimise for."""

    LATENCY = "latency"
    JITTER = "jitter"  # latency consistency (VoIP/streaming, §6.1)
    BANDWIDTH_DOWN = "bandwidth_down"
    BANDWIDTH_UP = "bandwidth_up"
    LOSS = "loss"
    COMPOSITE = "composite"


@dataclass(frozen=True)
class UserRequest:
    """One user's path intent towards a destination server."""

    server_id: int
    metric: Metric = Metric.LATENCY
    #: For ``Metric.COMPOSITE``: weight per metric name.
    weights: Dict[str, float] = field(default_factory=dict)

    # -- exclusions (sovereignty / geography / trust) ---------------------------
    exclude_countries: FrozenSet[str] = frozenset()
    exclude_operators: FrozenSet[str] = frozenset()
    exclude_ases: FrozenSet[str] = frozenset()
    exclude_isds: FrozenSet[int] = frozenset()
    #: Specific stored path ids to avoid — the failover engine's channel
    #: for "anything but the path that just died / was revoked".
    exclude_paths: FrozenSet[str] = frozenset()

    # -- hard performance requirements ---------------------------------------------
    max_latency_ms: Optional[float] = None
    max_loss_pct: Optional[float] = None
    min_bandwidth_down_mbps: Optional[float] = None

    def __post_init__(self) -> None:
        if self.server_id < 1:
            raise ValidationError(f"invalid server id: {self.server_id}")
        if self.metric is Metric.COMPOSITE and not self.weights:
            raise ValidationError("composite metric requires weights")
        # Canonical forms, so exclusions compare equal to the AS strings
        # and upper-case country codes that stored paths and the
        # topology use (and equal requests share one cache key).
        object.__setattr__(
            self,
            "exclude_ases",
            frozenset(str(ISDAS.parse(ia)) for ia in self.exclude_ases),
        )
        object.__setattr__(
            self,
            "exclude_countries",
            frozenset(c.upper() for c in self.exclude_countries),
        )

    @classmethod
    def make(
        cls,
        server_id: int,
        metric: "Metric | str" = Metric.LATENCY,
        *,
        weights: Optional[Dict[str, float]] = None,
        exclude_countries: Iterable[str] = (),
        exclude_operators: Iterable[str] = (),
        exclude_ases: Iterable[str] = (),
        exclude_isds: Iterable[int] = (),
        exclude_paths: Iterable[str] = (),
        max_latency_ms: Optional[float] = None,
        max_loss_pct: Optional[float] = None,
        min_bandwidth_down_mbps: Optional[float] = None,
    ) -> "UserRequest":
        """Convenience constructor accepting loose types."""
        return cls(
            server_id=server_id,
            metric=Metric(metric) if isinstance(metric, str) else metric,
            weights=dict(weights or {}),
            exclude_countries=frozenset(exclude_countries),
            exclude_operators=frozenset(exclude_operators),
            exclude_ases=frozenset(exclude_ases),
            exclude_isds=frozenset(int(i) for i in exclude_isds),
            exclude_paths=frozenset(str(p) for p in exclude_paths),
            max_latency_ms=max_latency_ms,
            max_loss_pct=max_loss_pct,
            min_bandwidth_down_mbps=min_bandwidth_down_mbps,
        )
