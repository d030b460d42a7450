"""Leases: the one table every lessor keeps its lessees' state in.

Leases (Gray & Cheriton) bound how long a lessor keeps state about another
node without hearing from it.  All three modelled protocols grant 1800 s
leases for registrations and subscriptions (Table 4); lessees renew
periodically, and when renewals stop (e.g. because of an interface failure)
the lessor purges the state once the lease has expired, after which the
purge-rediscovery techniques PR1-PR5 take over.

A :class:`LeaseTable` holds one lessor's records of one kind, in grant
order, under the one lease duration it is built with.  Each record carries
its own ``expires_at`` (grant or last renewal plus the lease) and is valid
while ``now < expires_at``.  A renewal finds a record, expired or not, until
:meth:`LeaseTable.purge_expired` (or a lessor's explicit
:meth:`LeaseTable.pop`) removes it; iteration and purges follow grant order,
and a renewal keeps a record's place.

Two kinds of record live in these tables, each with its module functions:

* :class:`Registration`, a Registry's stored service description keyed by
  service id (:func:`store`, :func:`find`);
* :class:`Subscription`, a subscriber's interest in one service keyed by
  ``(subscriber, service_id)`` (:func:`subscribe`, :func:`subscribers_for`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Union

from repro.discovery.service import ServiceDescription, ServiceQuery
from repro.net.addressing import Address


@dataclass
class Registration:
    """A registered service description, keyed by its service id."""

    sd: ServiceDescription
    expires_at: float = field(default=0.0, init=False)


@dataclass
class Subscription:
    """One subscriber's interest in updates for one service."""

    subscriber: Address
    service_id: str
    #: Version of the service description the subscriber last acknowledged /
    #: is known to hold.  Used by SRN2 (retry on renewal from an inconsistent
    #: User) and SRC2 (monitoring of missed updates).
    acked_version: int = 0
    expires_at: float = field(default=0.0, init=False)


Record = Union[Registration, Subscription]


class LeaseTable:
    """One lessor's records under one lease duration, in grant order."""

    def __init__(self, lease: float) -> None:
        if lease <= 0:
            raise ValueError("lease duration must be positive")
        self.lease = lease
        self._records: Dict[Hashable, Record] = {}

    def get(self, key: Hashable) -> Optional[Record]:
        """The record under ``key``, expired or not; ``None`` when there is none."""
        return self._records.get(key)

    def grant(self, key: Hashable, record: Record, now: float) -> None:
        """Store ``record`` under ``key`` with a lease from ``now``."""
        record.expires_at = now + self.lease
        self._records[key] = record

    def renew(self, key: Hashable, now: float) -> Optional[Record]:
        """Extend the lease of the record under ``key`` from ``now``.

        Returns the record, or ``None`` when there is none.  An expired
        record that no purge has removed yet is renewed too.
        """
        record = self._records.get(key)
        if record is not None:
            record.expires_at = now + self.lease
        return record

    def pop(self, key: Hashable) -> Optional[Record]:
        """Remove and return the record under ``key`` (``None`` when there is none)."""
        return self._records.pop(key, None)

    def records(self, now: Optional[float] = None) -> List[Record]:
        """Every record in grant order; with ``now``, only those still valid."""
        if now is None:
            return list(self._records.values())
        return [record for record in self._records.values() if now < record.expires_at]

    def purge_expired(self, now: float) -> List[Record]:
        """Remove every record whose lease has expired; return them in grant order."""
        # Purge scans run every minute on every table and mostly find nothing,
        # so the pops are a plain loop rather than a second comprehension.
        purged = []
        for key in [key for key, record in self._records.items() if record.expires_at <= now]:
            purged.append(self._records.pop(key))
        return purged


def store(table: LeaseTable, sd: ServiceDescription, now: float) -> bool:
    """Register ``sd`` or refresh its registration, renewing the lease either way.

    A description at least as new as the stored one is adopted; an older one
    is not.  Returns ``True`` for a new service or a newer version.
    """
    held = table.renew(sd.service_id, now)
    if held is None:
        table.grant(sd.service_id, Registration(sd), now)
        return True
    changed = sd.version > held.sd.version
    if sd.version >= held.sd.version:
        held.sd = sd
    return changed


def find(
    table: LeaseTable, query: ServiceQuery, now: Optional[float] = None
) -> List[ServiceDescription]:
    """Every registered description matching ``query`` (with ``now``, only valid ones)."""
    return [reg.sd for reg in table.records(now) if query.matches(reg.sd)]


def subscribe(
    table: LeaseTable,
    subscriber: Address,
    service_id: str,
    now: float,
    acked_version: int = 0,
) -> None:
    """Grant or renew ``subscriber``'s subscription to ``service_id``.

    A renewal keeps the higher of the held and the given acknowledged version.
    """
    key = (subscriber, service_id)
    sub = table.renew(key, now)
    if sub is None:
        table.grant(key, Subscription(subscriber, service_id, acked_version), now)
    else:
        sub.acked_version = max(sub.acked_version, acked_version)


def subscribers_for(table: LeaseTable, service_id: str, now: float) -> List[Subscription]:
    """The valid subscriptions to ``service_id``, in grant order."""
    return [sub for sub in table.records(now) if sub.service_id == service_id]
