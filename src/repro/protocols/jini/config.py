"""Jini model parameters.

Defaults follow Table 3/Table 4 and standard Jini practice: Lookup-Service
announcements every 120 s, and 1800 s registration and event leases renewed
at half-life.  Table 3's wire behaviour is not a parameter: every multicast
goes out as ``messages.MULTICAST_COPIES`` (6) copies, a constant of the node
classes, and every unicast exchange runs over TCP.
As with FRODO and UPnP, every periodic grid avoids the default 2000 s
service-change time so the zero-failure baseline is exactly m'.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class JiniConfig:
    """All tunable parameters of the Jini model."""

    # ------------------------------------------------------------------ discovery
    #: Period of Lookup Service multicast announcements (seconds).  Ticks at
    #: 120 k s; 2000 s (the default change time) is not on the grid.
    announce_interval: float = 120.0
    #: Period of a node's multicast discovery requests while it knows no
    #: Lookup Service (seconds).
    discovery_interval: float = 120.0

    # ------------------------------------------------------------------ leases
    #: Service-registration lease at the Lookup Service (seconds).
    registration_lease: float = 1800.0
    #: Remote-event registration lease at the Lookup Service (seconds).
    event_lease: float = 1800.0
    #: Lessees renew after this fraction of the lease has elapsed.
    renewal_fraction: float = 0.5

    # ------------------------------------------------------------------ recovery pacing
    #: Delay before an unanswered lookup is retried during initial discovery.
    lookup_retry_interval: float = 10.0
    #: PR2: a client purges a Lookup Service whose announcements have been
    #: silent for this long (seconds; 5 announcement periods).
    registry_silence_timeout: float = 600.0
    #: Period of the Lookup Service's purge scan (seconds).
    purge_scan_interval: float = 60.0
    #: How long an in-flight registration/update suppresses a duplicate before
    #: it is presumed lost (covers the case where the request leg was
    #: delivered but the acknowledgement leg ended in a Remote Exception;
    #: must exceed TCP's worst-case connection-retry schedule of ~78 s).
    response_timeout: float = 120.0

    # ------------------------------------------------------------------ recovery technique toggles
    #: SRC2: versions on renewal acknowledgements trigger explicit lookups /
    #: update requests for missed updates.
    enable_src2: bool = True

    @property
    def renewal_interval(self) -> float:
        """Interval between lease renewals (``renewal_fraction * lease``)."""
        return self.renewal_fraction * self.event_lease
