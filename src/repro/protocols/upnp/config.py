"""UPnP model parameters.

Defaults follow Table 3/Table 4 of the paper: an 1800 s subscription lease
renewed at half-life.  Table 3's wire behaviour is not a parameter: every
announcement or search goes out as ``messages.MULTICAST_COPIES`` (6) copies,
a constant of the node classes, and description fetches and GENA eventing
run over TCP.  Like FRODO's defaults, every periodic grid is chosen *off*
the default service-change time (2000 s) so the zero-failure baseline is
exactly m'.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class UpnpConfig:
    """All tunable parameters of the UPnP model."""

    # ------------------------------------------------------------------ SSDP
    #: Period of the root device's ssdp:alive announcements (seconds).
    #: Ticks at 800/1600/2400 s never coincide with the 2000 s change.
    announce_interval: float = 800.0
    #: Delay before an unanswered M-SEARCH is repeated during initial discovery.
    search_retry_interval: float = 10.0

    # ------------------------------------------------------------------ GENA subscription
    #: Subscription lease (GENA SUBSCRIBE timeout), seconds.
    subscription_lease: float = 1800.0
    #: Subscribers renew after this fraction of the lease has elapsed.
    renewal_fraction: float = 0.5

    # ------------------------------------------------------------------ PR5 rediscovery
    #: Period of a control point's M-SEARCH attempts after purging the device.
    rediscovery_interval: float = 120.0
    #: How long an in-flight description fetch / subscription suppresses a
    #: duplicate before it is presumed lost (covers the case where the request
    #: leg was delivered but the reply leg ended in a Remote Exception; must
    #: exceed TCP's worst-case connection-retry schedule of ~78 s).
    response_timeout: float = 120.0

    @property
    def renewal_interval(self) -> float:
        """Interval between subscription renewals (``renewal_fraction * lease``)."""
        return self.renewal_fraction * self.subscription_lease
