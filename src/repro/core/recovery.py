"""Classification of consistency-maintenance recovery techniques.

This module encodes Tables 1, 2 and 4 of the paper as queryable data:

* **Subscription-recovery** techniques take effect while the subscription
  lease is still valid:

  - SRC1 — acknowledgements and unbounded retransmission of critical-update
    notifications,
  - SRC2 — active User/Registry monitoring of updates (sequence numbers or
    expected periods) with explicit re-requests for missed updates,
  - SRN1 — acknowledgements and bounded retransmission of non-critical
    update notifications,
  - SRN2 — future retry of an unsuccessful notification when a message
    (e.g. a subscription-lease renewal) arrives from the inconsistent User.

* **Purge-rediscovery** techniques take effect after the subscription lease
  expires:

  - PR1 — the Manager and the Registry rediscover each other (announcements);
    on re-registration the Registry notifies interested Users,
  - PR2 — the User rediscovers the Registry and queries it for the service,
  - PR3 — the Registry rediscovers (hears from) a purged User and requests
    resubscription,
  - PR4 — the Manager rediscovers (hears from) a purged User and requests
    resubscription,
  - PR5 — the User purges the Manager and rediscovers it through multicast
    queries, Manager announcements, or a unicast query to the Registry.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, FrozenSet


class RecoveryTechnique(str, Enum):
    """All recovery techniques defined by the paper."""

    SRC1 = "SRC1"
    SRC2 = "SRC2"
    SRN1 = "SRN1"
    SRN2 = "SRN2"
    PR1 = "PR1"
    PR2 = "PR2"
    PR3 = "PR3"
    PR4 = "PR4"
    PR5 = "PR5"


@dataclass(frozen=True)
class ProtocolProfile:
    """Consistency-maintenance profile of a protocol (a row of Table 2/Table 4)."""

    name: str
    subscription_model: str
    techniques: FrozenSet[RecoveryTechnique]
    #: Techniques provided only through TCP's reliability (not by the protocol itself).
    tcp_dependent: FrozenSet[RecoveryTechnique] = frozenset()
    #: Zero-failure update message count m' for the standard scenario (N = 5 Users).
    m_prime: int = 7
    notes: str = ""


def expected_update_messages(
    system: str, n_users: int, with_tcp: bool = False, registries: int = 1
) -> int:
    """Table 2's closed-form update message counts for N Users, 1 Manager.

    ``system`` is one of ``"upnp"``, ``"jini"`` or ``"frodo"``.  For Jini,
    ``registries`` scales the count as ``y (2N + 2)`` when TCP messages are
    included (and ``registries * (N + 2)`` without).
    """
    if n_users < 0:
        raise ValueError("n_users must be non-negative")
    system = system.lower()
    if system == "upnp":
        return 5 * n_users if with_tcp else 3 * n_users
    if system == "jini":
        per_registry = (2 * n_users + 2) if with_tcp else (n_users + 2)
        return registries * per_registry
    if system == "frodo":
        return n_users + 2
    raise ValueError(f"unknown system {system!r}")


#: Table 2 / Table 4: which techniques each modelled system employs.
PROTOCOL_PROFILES: Dict[str, ProtocolProfile] = {
    "upnp": ProtocolProfile(
        name="UPnP",
        subscription_model="2-party",
        techniques=frozenset(
            {
                RecoveryTechnique.SRC1,
                RecoveryTechnique.SRN1,
                RecoveryTechnique.PR4,
                RecoveryTechnique.PR5,
            }
        ),
        tcp_dependent=frozenset({RecoveryTechnique.SRC1, RecoveryTechnique.SRN1}),
        m_prime=15,
        notes="Invalidation-based notification; Users poll back for the update.",
    ),
    "jini1": ProtocolProfile(
        name="Jini (1 Registry)",
        subscription_model="3-party",
        techniques=frozenset(
            {
                RecoveryTechnique.SRC1,
                RecoveryTechnique.SRC2,
                RecoveryTechnique.SRN1,
                RecoveryTechnique.PR1,
                RecoveryTechnique.PR2,
                RecoveryTechnique.PR3,
            }
        ),
        tcp_dependent=frozenset({RecoveryTechnique.SRC1, RecoveryTechnique.SRN1}),
        m_prime=7,
        notes="PR1 only covers future registrations; PR2 compensates with queries.",
    ),
    "jini2": ProtocolProfile(
        name="Jini (2 Registries)",
        subscription_model="3-party",
        techniques=frozenset(
            {
                RecoveryTechnique.SRC1,
                RecoveryTechnique.SRC2,
                RecoveryTechnique.SRN1,
                RecoveryTechnique.PR1,
                RecoveryTechnique.PR2,
                RecoveryTechnique.PR3,
            }
        ),
        tcp_dependent=frozenset({RecoveryTechnique.SRC1, RecoveryTechnique.SRN1}),
        m_prime=14,
        notes="Redundant Registries double the update traffic.",
    ),
    "frodo3": ProtocolProfile(
        name="FRODO (3-party subscription)",
        subscription_model="3-party",
        techniques=frozenset(
            {
                RecoveryTechnique.SRC1,
                RecoveryTechnique.SRC2,
                RecoveryTechnique.SRN1,
                RecoveryTechnique.SRN2,
                RecoveryTechnique.PR1,
                RecoveryTechnique.PR3,
                RecoveryTechnique.PR5,
            }
        ),
        m_prime=7,
        notes="UDP-only; the Central notifies interested Users of existing registrations.",
    ),
    "frodo2": ProtocolProfile(
        name="FRODO (2-party subscription)",
        subscription_model="2-party",
        techniques=frozenset(
            {
                RecoveryTechnique.SRC1,
                RecoveryTechnique.SRC2,
                RecoveryTechnique.SRN1,
                RecoveryTechnique.SRN2,
                RecoveryTechnique.PR1,
                RecoveryTechnique.PR4,
                RecoveryTechnique.PR5,
            }
        ),
        m_prime=7,
        notes="300D Managers notify subscribed Users directly; SRN2 retries on renewals.",
    ),
}
