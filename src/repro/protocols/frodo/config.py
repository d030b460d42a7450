"""FRODO model parameters.

Defaults follow Section 5 of the paper (Steps 4 and 5) and Table 4:
1800 s registration and subscription leases, Registry announcements of 2
multicast messages every 1200 s, UDP-only transport with acknowledgements and
retransmissions for selected messages only, and the full set of FRODO
recovery techniques, each individually toggleable for the ablation studies
(Figure 7 toggles PR1).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class SubscriptionMode(str, Enum):
    """Which subscription scheme the deployment uses."""

    #: 3D/3C Manager: Users subscribe at the Central, which relays updates.
    THREE_PARTY = "3party"
    #: 300D Manager: Users subscribe directly at the Manager.
    TWO_PARTY = "2party"


@dataclass
class FrodoConfig:
    """All tunable parameters of the FRODO model."""

    subscription_mode: SubscriptionMode = SubscriptionMode.THREE_PARTY

    # ------------------------------------------------------------------ leases
    #: Registration lease at the Central (seconds).
    registration_lease: float = 1800.0
    #: Subscription lease at the Central / 300D Manager (seconds).
    subscription_lease: float = 1800.0
    #: Lessees renew after this fraction of the lease has elapsed.
    renewal_fraction: float = 0.5

    # ------------------------------------------------------------------ announcements
    #: Period of the Central's multicast announcements (seconds).
    registry_announce_interval: float = 1200.0
    #: Number of copies per Central announcement ("2 multicast announcements every 1200 s").
    registry_announce_copies: int = 2
    #: Period of node presence announcements while the Central is unknown (seconds).
    node_announce_interval: float = 30.0

    # ------------------------------------------------------------------ SRN1 / SRC1
    #: Acknowledgement time-out for acknowledged messages (seconds).
    ack_timeout: float = 2.0
    #: Retransmission limit for non-critical update notifications (SRN1).
    srn1_retries: int = 3
    #: Retransmission limit for registrations.
    registration_retries: int = 4

    # ------------------------------------------------------------------ recovery technique toggles
    enable_srn1: bool = True
    #: SRN2: the 300D Manager retries an unsuccessful update when it receives a
    #: subscription renewal from an inconsistent User (2-party only).
    enable_srn2: bool = True
    #: SRC2: the Central monitors version numbers carried on registration
    #: renewals and requests missed updates from the Manager; 3-party Users
    #: monitor the version piggy-backed on subscription renewal acknowledgements.
    enable_src2: bool = True
    #: PR1: on (re-)registration the Central notifies interested Users
    #: (existing registrations included, unlike Jini).
    enable_pr1: bool = True
    #: PR3: the Central asks a purged User that renews to resubscribe.
    enable_pr3: bool = True
    #: PR4: the 300D Manager asks a purged User that renews to resubscribe.
    enable_pr4: bool = True
    #: PR5: the User purges the Manager and rediscovers it via the Registry
    #: (unicast query) or multicast queries.
    enable_pr5: bool = True

    # ------------------------------------------------------------------ purge / rediscovery pacing
    #: Period of the Central's purge scan (seconds).
    purge_scan_interval: float = 60.0
    #: How long a User waits for the Registry before falling back to a multicast query (PR5).
    pr5_registry_timeout: float = 10.0
    #: Period of a User's rediscovery attempts while it has no service (seconds).
    rediscovery_interval: float = 120.0
    #: Delay before an unanswered service query is retried during initial discovery.
    query_retry_interval: float = 10.0

    # ------------------------------------------------------------------ Central / Backup
    #: Whether a Backup node is deployed (2-party topology of Table 4).
    enable_backup: bool = True
    #: Duration of the start-up leader election window (seconds).
    election_window: float = 5.0
    #: The Backup takes over after this many missed announcement periods.
    backup_takeover_periods: float = 2.5

    @property
    def renewal_interval(self) -> float:
        """Interval between lease renewals (``renewal_fraction * lease``)."""
        return self.renewal_fraction * self.subscription_lease

    @property
    def backup_takeover_timeout(self) -> float:
        """Silence (in seconds) after which the Backup promotes itself."""
        return self.backup_takeover_periods * self.registry_announce_interval
