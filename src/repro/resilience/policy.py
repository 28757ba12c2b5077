"""Resilience policies: what enterprise middleware does when a hop fails.

A :class:`ResiliencePolicy` bundles the four standard reaction knobs —
request timeouts, bounded retries with exponential backoff + jitter,
per-destination circuit breaking and queue-depth load shedding — into
one immutable value the cascade machinery consults at every hop.  A
:class:`ResilienceConfig` maps policies onto the system: one default
plus optional per-tier-kind and per-application overrides, and the
health-check cadence of the tier failover monitor.

The contract mirrors the tracing layer's: **zero cost when off**.  With
no config armed (or :meth:`ResiliencePolicy.off`) the cascade code path
is byte-for-byte the legacy one, so validation experiments reproduce
seed-state numbers exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Mapping, Optional

from repro.core.errors import ResilienceError


@dataclass(frozen=True)
class ResiliencePolicy:
    """Per-hop fault-handling knobs (all simulated seconds).

    Parameters
    ----------
    timeout_s:
        Abandon an attempt that has not completed after this long; the
        in-flight work is orphaned (it still burns simulated capacity,
        like a real server finishing a request nobody waits for).
        ``None`` disables timeouts.
    max_attempts:
        Total tries per message (1 = no retries).
    backoff_base_s / backoff_multiplier / backoff_jitter:
        Retry ``n`` (0-based) waits ``base * multiplier**n`` scaled by a
        uniform ``1 ± jitter`` factor before re-resolving a destination.
    breaker_window_s:
        Sliding window of per-destination outcomes feeding the circuit
        breaker; ``None`` disables circuit breaking.
    breaker_min_calls / breaker_failure_rate:
        The breaker opens when the window holds at least ``min_calls``
        outcomes and the failure fraction reaches ``failure_rate``.
    breaker_open_s:
        How long an open breaker rejects before moving to half-open.
    breaker_half_open_probes:
        Concurrent probe requests admitted while half-open.
    shed_queue_depth:
        Reject (shed) a request whose destination server already holds
        this many jobs; ``None`` disables load shedding.
    """

    timeout_s: Optional[float] = 5.0
    max_attempts: int = 3
    backoff_base_s: float = 0.25
    backoff_multiplier: float = 2.0
    backoff_jitter: float = 0.1
    breaker_window_s: Optional[float] = 30.0
    breaker_min_calls: int = 8
    breaker_failure_rate: float = 0.5
    breaker_open_s: float = 10.0
    breaker_half_open_probes: int = 1
    shed_queue_depth: Optional[int] = None

    def __post_init__(self) -> None:
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ResilienceError("timeout_s must be positive or None")
        if self.max_attempts < 1:
            raise ResilienceError("max_attempts must be >= 1")
        if self.backoff_base_s < 0 or self.backoff_multiplier < 1.0:
            raise ResilienceError(
                "backoff base must be >= 0 and multiplier >= 1"
            )
        if not 0.0 <= self.backoff_jitter < 1.0:
            raise ResilienceError("backoff_jitter must be in [0, 1)")
        if self.breaker_window_s is not None:
            if self.breaker_window_s <= 0:
                raise ResilienceError("breaker_window_s must be positive")
            if self.breaker_min_calls < 1:
                raise ResilienceError("breaker_min_calls must be >= 1")
            if not 0.0 < self.breaker_failure_rate <= 1.0:
                raise ResilienceError(
                    "breaker_failure_rate must be in (0, 1]"
                )
            if self.breaker_open_s <= 0:
                raise ResilienceError("breaker_open_s must be positive")
            if self.breaker_half_open_probes < 1:
                raise ResilienceError(
                    "breaker_half_open_probes must be >= 1"
                )
        if self.shed_queue_depth is not None and self.shed_queue_depth < 1:
            raise ResilienceError("shed_queue_depth must be >= 1 or None")

    # ------------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        """Whether any mechanism is active (False = plain message path)."""
        return (
            self.timeout_s is not None
            or self.max_attempts > 1
            or self.breaker_window_s is not None
            or self.shed_queue_depth is not None
        )

    @property
    def breaker_enabled(self) -> bool:
        return self.breaker_window_s is not None

    @classmethod
    def off(cls) -> "ResiliencePolicy":
        """A policy with every mechanism disabled (seed-state behaviour)."""
        return cls(timeout_s=None, max_attempts=1, breaker_window_s=None,
                   shed_queue_depth=None)

    @classmethod
    def default(cls) -> "ResiliencePolicy":
        return cls()

    def backoff_delay(self, attempt: int, rng: random.Random) -> float:
        """Backoff before retry ``attempt`` (0-based), jittered."""
        delay = self.backoff_base_s * self.backoff_multiplier ** attempt
        if self.backoff_jitter > 0.0:
            delay *= 1.0 + self.backoff_jitter * rng.uniform(-1.0, 1.0)
        return delay

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "timeout_s": self.timeout_s,
            "max_attempts": self.max_attempts,
            "backoff_base_s": self.backoff_base_s,
            "backoff_multiplier": self.backoff_multiplier,
            "backoff_jitter": self.backoff_jitter,
            "breaker_window_s": self.breaker_window_s,
            "breaker_min_calls": self.breaker_min_calls,
            "breaker_failure_rate": self.breaker_failure_rate,
            "breaker_open_s": self.breaker_open_s,
            "breaker_half_open_probes": self.breaker_half_open_probes,
            "shed_queue_depth": self.shed_queue_depth,
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "ResiliencePolicy":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(d) - known
        if unknown:
            raise ResilienceError(
                f"unknown resilience policy keys: {sorted(unknown)}"
            )
        return cls(**dict(d))

    def with_(self, **changes: Any) -> "ResiliencePolicy":
        """A copy with some knobs changed (dataclasses.replace sugar)."""
        return replace(self, **changes)


@dataclass(frozen=True)
class ResilienceConfig:
    """Policy assignment across the simulated software stack.

    Precedence when resolving the policy for a message: the destination
    tier's override, then the application's override, then ``default``.
    ``health_check_interval_s`` drives the tier health monitor that
    force-ejects down servers from load balancing and re-admits repaired
    ones through half-open probes (``None`` disables the monitor; the
    balancer still skips unavailable servers instantaneously).
    """

    default: ResiliencePolicy = field(default_factory=ResiliencePolicy)
    tiers: Mapping[str, ResiliencePolicy] = field(default_factory=dict)
    applications: Mapping[str, ResiliencePolicy] = field(default_factory=dict)
    health_check_interval_s: Optional[float] = 1.0

    def __post_init__(self) -> None:
        if (self.health_check_interval_s is not None
                and self.health_check_interval_s <= 0):
            raise ResilienceError(
                "health_check_interval_s must be positive or None"
            )

    # ------------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        """Whether arming this config can change simulated behaviour."""
        return (
            self.default.enabled
            or any(p.enabled for p in self.tiers.values())
            or any(p.enabled for p in self.applications.values())
        )

    def for_message(self, application: str, dst_role: str) -> ResiliencePolicy:
        """Resolve the policy governing one message delivery."""
        if dst_role in self.tiers:
            return self.tiers[dst_role]
        if application in self.applications:
            return self.applications[application]
        return self.default

    @classmethod
    def coerce(
        cls, obj: "ResilienceConfig | ResiliencePolicy | Mapping | None"
    ) -> Optional["ResilienceConfig"]:
        """Accept a config, a bare policy, a JSON dict, or None."""
        if obj is None or isinstance(obj, cls):
            return obj
        if isinstance(obj, ResiliencePolicy):
            return cls(default=obj)
        if isinstance(obj, Mapping):
            return cls.from_dict(obj)
        raise ResilienceError(
            f"cannot build a ResilienceConfig from {type(obj).__name__}"
        )

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {"default": self.default.to_dict()}
        if self.tiers:
            doc["tiers"] = {k: p.to_dict() for k, p in self.tiers.items()}
        if self.applications:
            doc["applications"] = {
                k: p.to_dict() for k, p in self.applications.items()
            }
        doc["health_check_interval_s"] = self.health_check_interval_s
        return doc

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "ResilienceConfig":
        known = {"default", "tiers", "applications",
                 "health_check_interval_s"}
        unknown = set(d) - known
        if unknown:
            raise ResilienceError(
                f"unknown resilience config keys: {sorted(unknown)}"
            )
        return cls(
            default=ResiliencePolicy.from_dict(d.get("default", {})),
            tiers={k: ResiliencePolicy.from_dict(v)
                   for k, v in d.get("tiers", {}).items()},
            applications={k: ResiliencePolicy.from_dict(v)
                          for k, v in d.get("applications", {}).items()},
            health_check_interval_s=d.get("health_check_interval_s", 1.0),
        )
