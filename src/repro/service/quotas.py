"""Per-tenant token-bucket quotas and fairness accounting.

The daemon serves many tenants from one bounded worker pool; without
rate limiting, one chatty client starves everyone else *before* the
admission queue even gets a say.  Each tenant owns a token bucket
(``rate`` tokens/second, capacity ``burst``): a submit spends one token
or is rejected with a typed :class:`~repro.errors.QuotaExceeded` naming
the earliest moment a token will be available (``retry_after_s``), so
clients can back off precisely instead of hammering.

Buckets are lazy — tokens accrue arithmetically from the last-touched
timestamp, no background refill task — and the clock is injectable, so
tests drive time explicitly instead of sleeping.

Fairness is *accounted*, not enforced beyond the buckets: the manager
keeps per-tenant counters (admitted/rejected/completed/failed and busy
seconds actually consumed) that the ``stats`` wire op exposes, so a
skewed share of the pool is visible in one snapshot.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict

from ..errors import QuotaExceeded


@dataclass
class TokenBucket:
    """A lazily refilled token bucket (``rate``/s, capacity ``burst``)."""

    rate: float
    burst: float
    tokens: float
    updated: float

    def _refill(self, now: float) -> None:
        elapsed = max(0.0, now - self.updated)
        self.tokens = min(self.burst, self.tokens + elapsed * self.rate)
        self.updated = now

    def try_take(self, now: float, amount: float = 1.0) -> float:
        """Spend *amount* tokens; 0.0 on success, else seconds to wait.

        The wait is exact under the lazy-refill arithmetic: after that
        many seconds the bucket will hold *amount* tokens (barring
        competing takers).
        """
        self._refill(now)
        if self.tokens >= amount:
            self.tokens -= amount
            return 0.0
        if self.rate <= 0:
            return float("inf")
        return (amount - self.tokens) / self.rate


@dataclass
class TenantUsage:
    """Fairness accounting for one tenant (exposed via the stats op)."""

    submitted: int = 0
    admitted: int = 0
    rejected: int = 0
    completed: int = 0
    failed: int = 0
    busy_seconds: float = 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "submitted": self.submitted,
            "admitted": self.admitted,
            "rejected": self.rejected,
            "completed": self.completed,
            "failed": self.failed,
            "busy_seconds": round(self.busy_seconds, 6),
        }


def check_quota(rate: float, burst: float) -> None:
    """Reject a quota that could never admit anything.

    *rate* must be a number (NaN compares false everywhere and would
    enable limiting at an undefined rate).  With limiting on
    (``rate > 0``), *burst* must be at least 1: a bucket that can never
    hold one whole token rejects every submit forever.

    Raises:
        ValueError: naming the bad field.
    """
    if math.isnan(rate):
        raise ValueError("quota_rate must be a number, got nan")
    if rate > 0 and not burst >= 1:
        raise ValueError(
            f"quota_burst must be >= 1 when quota_rate > 0 (a bucket "
            f"that holds less than one token admits nothing), got {burst}"
        )


@dataclass
class QuotaManager:
    """One token bucket + usage record per tenant.

    ``rate <= 0`` disables rate limiting entirely (every admit
    succeeds); usage is accounted either way.  With ``rate > 0``,
    ``burst`` must be at least 1 (:func:`check_quota`).  *clock* must
    be a monotonic-seconds callable.
    """

    rate: float = 0.0
    burst: float = 8.0
    clock: Callable[[], float] = time.monotonic
    buckets: Dict[str, TokenBucket] = field(default_factory=dict)
    usage: Dict[str, TenantUsage] = field(default_factory=dict)

    def __post_init__(self) -> None:
        check_quota(self.rate, self.burst)

    def usage_for(self, tenant: str) -> TenantUsage:
        record = self.usage.get(tenant)
        if record is None:
            record = TenantUsage()
            self.usage[tenant] = record
        return record

    def admit(self, tenant: str) -> None:
        """Spend one of *tenant*'s tokens.

        Raises:
            QuotaExceeded: when the bucket is empty; carries the tenant
                and ``retry_after_s``.
        """
        usage = self.usage_for(tenant)
        usage.submitted += 1
        if self.rate <= 0:
            usage.admitted += 1
            return
        bucket = self.buckets.get(tenant)
        now = self.clock()
        if bucket is None:
            bucket = TokenBucket(
                rate=self.rate, burst=self.burst,
                tokens=self.burst, updated=now,
            )
            self.buckets[tenant] = bucket
        wait = bucket.try_take(now)
        if wait > 0.0:
            usage.rejected += 1
            raise QuotaExceeded(
                f"tenant {tenant!r} is over quota "
                f"({self.rate:g}/s, burst {self.burst:g}); retry in "
                f"{wait:.3f}s",
                tenant=tenant,
                retry_after_s=round(wait, 3),
            )
        usage.admitted += 1

    def account(
        self,
        tenant: str,
        *,
        completed: int = 0,
        failed: int = 0,
        busy_seconds: float = 0.0,
    ) -> None:
        """Fold one finished job's outcome into *tenant*'s usage."""
        usage = self.usage_for(tenant)
        usage.completed += completed
        usage.failed += failed
        usage.busy_seconds += busy_seconds

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Per-tenant usage, JSON-ready (the stats op's ``tenants``)."""
        return {
            tenant: usage.as_dict()
            for tenant, usage in sorted(self.usage.items())
        }


__all__ = ["QuotaManager", "TenantUsage", "TokenBucket", "check_quota"]
