"""Consistency tracking.

"Consistency" is the state where the User holds the correct service
information after the service changes (Section 4 of the paper).  The
:class:`ConsistencyTracker` is the measurement harness: protocol User nodes
report every change of their cached view, the Manager reports every change of
the authoritative service description, and the tracker derives, per change,
the time U(i, j) at which each User j regained consistency — the quantity all
Update Metrics are computed from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.discovery.service import ServiceDescription


@dataclass
class UserViewRecord:
    """History of one User's view of the service."""

    user_id: str
    #: (time, version) pairs, in report order.
    history: List[tuple] = field(default_factory=list)

    def first_time_at_or_above(self, version: int) -> Optional[float]:
        """First time the User's view reached ``version`` (or newer)."""
        for time, seen in self.history:
            if seen >= version:
                return time
        return None


class ConsistencyTracker:
    """Observes the authoritative service state and every User's view of it."""

    def __init__(self) -> None:
        self._users: Dict[str, UserViewRecord] = {}
        #: version -> time the Manager switched to that version.
        self.change_times: Dict[int, float] = {}
        self.authoritative_version: int = 0

    # ------------------------------------------------------------------ registration
    def register_user(self, user_id: str) -> None:
        """Declare a User whose consistency should be measured."""
        self._users.setdefault(user_id, UserViewRecord(user_id=user_id))

    # ------------------------------------------------------------------ reporting
    def record_authoritative(self, sd: ServiceDescription, time: float) -> None:
        """Report that the Manager's service is now at ``sd.version`` (from ``time``)."""
        if sd.version > self.authoritative_version:
            self.authoritative_version = sd.version
            self.change_times[sd.version] = time

    def record_view(self, user_id: str, version: int, time: float) -> None:
        """Report that ``user_id`` now holds ``version`` of the service description."""
        record = self._users.get(user_id)
        if record is None:
            # Users not registered for measurement (e.g. the Backup's cache)
            # are ignored silently.
            return
        if record.history and record.history[-1][1] == version:
            return
        record.history.append((time, version))

    # ------------------------------------------------------------------ queries
    def change_time(self, version: Optional[int] = None) -> Optional[float]:
        """Time of the change to ``version`` (default: the latest change)."""
        if not self.change_times:
            return None
        if version is None:
            version = self.authoritative_version
        return self.change_times.get(version)

    def update_times(self, version: Optional[int] = None) -> Dict[str, Optional[float]]:
        """Per-User time of regaining consistency with ``version`` (``None`` = never)."""
        if version is None:
            version = self.authoritative_version
        return {
            user_id: record.first_time_at_or_above(version)
            for user_id, record in self._users.items()
        }
