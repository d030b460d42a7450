"""UPnP message kinds.

The wire vocabulary of the UPnP model and its update-message accounting
declaration.  The zero-failure update flow is invalidation-based: per
subscriber one ``event_notify`` (GENA NOTIFY, no service description), one
``description_get`` and one ``description_response`` — 3N messages, matching
Table 2's UPnP count (m' = 15 for N = 5).  Searches and their responses are
update-related like FRODO's queries: before the change they fall outside the
accounting window, after the change they are exactly the PR5 recovery traffic
the Efficiency Degradation metric is supposed to see.
"""

from __future__ import annotations

from typing import FrozenSet

PROTOCOL = "upnp"

#: Copies of every multicast (Table 3: UPnP and Jini send each one 6 times).
MULTICAST_COPIES = 6

# ------------------------------------------------------------------ SSDP (multicast, 6 copies)
SSDP_ALIVE = "ssdp_alive"
MSEARCH = "msearch"
SEARCH_RESPONSE = "search_response"  # unicast UDP reply to an M-SEARCH

# ------------------------------------------------------------------ description (HTTP over TCP)
DESCRIPTION_GET = "description_get"
DESCRIPTION_RESPONSE = "description_response"

# ------------------------------------------------------------------ GENA eventing (TCP)
SUBSCRIBE_REQUEST = "subscribe_request"
SUBSCRIBE_ACK = "subscribe_ack"
SUBSCRIBE_ERROR = "subscribe_error"  # renewal of an unknown subscription (412)
SUBSCRIBE_RENEW = "subscribe_renew"
SUBSCRIBE_RENEW_ACK = "subscribe_renew_ack"
EVENT_NOTIFY = "event_notify"  # invalidation: carries the version, not the SD

#: Message kinds counted towards *y* in the efficiency metrics.
UPDATE_RELATED_KINDS: FrozenSet[str] = frozenset(
    {
        MSEARCH,
        SEARCH_RESPONSE,
        DESCRIPTION_GET,
        DESCRIPTION_RESPONSE,
        SUBSCRIBE_ACK,
        EVENT_NOTIFY,
    }
)
