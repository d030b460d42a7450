"""Lease-based service caches.

A Registry (the FRODO Central, a Jini Lookup Service) caches registered
service descriptions together with a registration lease.  Entries whose
lease expires without a refresh are purged, which is what triggers the
purge-rediscovery techniques (PR1-PR5) in the paper.  A User holds its one
service description directly (``sd``) and keeps no lease on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.discovery.lease import Lease
from repro.discovery.service import ServiceDescription, ServiceQuery


@dataclass
class CacheEntry:
    """A cached service description and its registration lease."""

    sd: ServiceDescription
    lease: Lease

    def refresh(self, sd: ServiceDescription, now: float) -> bool:
        """Refresh the lease and adopt ``sd`` if it is at least as new.

        Returns ``True`` when the stored version changed.
        """
        changed = sd.is_newer_than(self.sd)
        if changed or sd.version == self.sd.version:
            self.sd = sd
        self.lease.renew(now)
        return changed


class ServiceCache:
    """Mapping of ``service_id`` to :class:`CacheEntry` with lease enforcement."""

    def __init__(self, default_lease: float = 1800.0) -> None:
        self.default_lease = default_lease
        self._entries: Dict[str, CacheEntry] = {}

    def service_ids(self) -> List[str]:
        """All cached service identifiers."""
        return list(self._entries.keys())

    def store(
        self,
        sd: ServiceDescription,
        now: float,
        lease_duration: Optional[float] = None,
    ) -> bool:
        """Insert or refresh an entry.  Returns ``True`` when the stored version changed."""
        duration = lease_duration if lease_duration is not None else self.default_lease
        entry = self._entries.get(sd.service_id)
        if entry is None:
            self._entries[sd.service_id] = CacheEntry(sd=sd, lease=Lease(duration, now))
            return True
        if lease_duration is not None:
            entry.lease.duration = lease_duration
        return entry.refresh(sd, now)

    def get(self, service_id: str) -> Optional[CacheEntry]:
        """Return the entry for ``service_id`` or ``None``."""
        return self._entries.get(service_id)

    def get_sd(self, service_id: str) -> Optional[ServiceDescription]:
        """Return the cached SD for ``service_id`` or ``None``."""
        entry = self._entries.get(service_id)
        return entry.sd if entry is not None else None

    def touch(self, service_id: str, now: float) -> bool:
        """Renew the lease of an entry without changing its contents."""
        entry = self._entries.get(service_id)
        if entry is None:
            return False
        entry.lease.renew(now)
        return True

    def purge_expired(self, now: float) -> List[str]:
        """Remove all entries whose lease has expired; return their service ids."""
        expired = [sid for sid, entry in self._entries.items() if not entry.lease.is_valid(now)]
        for sid in expired:
            del self._entries[sid]
        return expired

    def find(self, query: ServiceQuery, now: Optional[float] = None) -> List[ServiceDescription]:
        """Return all cached SDs matching ``query`` (optionally only valid ones)."""
        out = []
        for entry in self._entries.values():
            if now is not None and not entry.lease.is_valid(now):
                continue
            if query.matches(entry.sd):
                out.append(entry.sd)
        return out
