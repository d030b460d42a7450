"""Subscriptions.

A User subscribes either directly to the Manager (2-party subscription) or to
a Registry (3-party subscription) to receive update notifications.  The
subscription remains valid as long as the subscription lease does not expire;
Users renew periodically with ``SubscriptionRenew`` style messages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.discovery.lease import Lease
from repro.net.addressing import Address


@dataclass
class Subscription:
    """One subscriber's interest in updates for one service."""

    subscriber: Address
    service_id: str
    lease: Lease
    #: Version of the service description the subscriber last acknowledged /
    #: is known to hold.  Used by SRN2 (retry on renewal from an inconsistent
    #: User) and SRC2 (monitoring of missed updates).
    acked_version: int = 0

    def is_valid(self, now: float) -> bool:
        """``True`` while the subscription lease has not expired."""
        return self.lease.is_valid(now)


class SubscriptionTable:
    """All subscriptions held by a Manager or a Registry for its services."""

    def __init__(self, default_lease: float = 1800.0) -> None:
        self.default_lease = default_lease
        self._subs: Dict[tuple, Subscription] = {}

    @staticmethod
    def _key(subscriber: Address, service_id: str) -> tuple:
        return (subscriber, service_id)

    def subscribe(
        self,
        subscriber: Address,
        service_id: str,
        now: float,
        lease_duration: Optional[float] = None,
        acked_version: int = 0,
    ) -> Subscription:
        """Create or refresh a subscription; returns the (new) record."""
        duration = lease_duration if lease_duration is not None else self.default_lease
        key = self._key(subscriber, service_id)
        sub = self._subs.get(key)
        if sub is None:
            sub = Subscription(
                subscriber=subscriber,
                service_id=service_id,
                lease=Lease(duration, now),
                acked_version=acked_version,
            )
            self._subs[key] = sub
        else:
            sub.lease.renew(now, duration)
            sub.acked_version = max(sub.acked_version, acked_version)
        return sub

    def renew(self, subscriber: Address, service_id: str, now: float) -> Optional[Subscription]:
        """Renew an existing subscription; returns ``None`` when unknown (purged)."""
        sub = self._subs.get(self._key(subscriber, service_id))
        if sub is None:
            return None
        sub.lease.renew(now)
        return sub

    def get(self, subscriber: Address, service_id: str) -> Optional[Subscription]:
        """Return the subscription record, if any."""
        return self._subs.get(self._key(subscriber, service_id))

    def unsubscribe(self, subscriber: Address, service_id: str) -> Optional[Subscription]:
        """Remove a subscription."""
        return self._subs.pop(self._key(subscriber, service_id), None)

    def purge_expired(self, now: float) -> List[Subscription]:
        """Drop expired subscriptions; return the purged records."""
        expired = [key for key, sub in self._subs.items() if not sub.lease.is_valid(now)]
        purged = []
        for key in expired:
            purged.append(self._subs.pop(key))
        return purged

    def subscribers_for(self, service_id: str, now: Optional[float] = None) -> List[Subscription]:
        """All (valid) subscriptions for ``service_id``."""
        out = []
        for sub in self._subs.values():
            if sub.service_id != service_id:
                continue
            if now is not None and not sub.is_valid(now):
                continue
            out.append(sub)
        return out
