"""Leases.

Leases (Gray & Cheriton) bound how long cached state remains valid without a
refresh.  All three modelled protocols use a 1800 s lease for registrations
and subscriptions; lessees renew periodically, and when renewals stop (e.g.
because of an interface failure) the lessor purges the state when the lease
expires, after which the purge-rediscovery techniques PR1-PR5 take over.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class Lease:
    """A time-bounded grant that can be renewed."""

    duration: float
    granted_at: float

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ValueError("lease duration must be positive")
        self.expires_at = self.granted_at + self.duration

    def is_valid(self, now: float) -> bool:
        """``True`` while the lease has not expired."""
        return now < self.expires_at

    def renew(self, now: float, duration: float | None = None) -> None:
        """Extend the lease from ``now`` (optionally with a new duration)."""
        if duration is not None:
            if duration <= 0:
                raise ValueError("lease duration must be positive")
            self.duration = duration
        self.granted_at = now
        self.expires_at = now + self.duration
