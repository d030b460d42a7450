"""Jini message kinds.

The wire vocabulary of the Jini model and its update-message accounting
declaration.  The zero-failure update flow per Lookup Service is one
``service_update`` (the Manager's re-registration with changed attributes),
one ``update_ack`` and one ``remote_event`` per client — ``N + 2`` messages,
matching Table 2's Jini count (m' = 7 for one Registry, 14 for two).
Lookups and their responses are update-related like FRODO's queries: before
the change they fall outside the accounting window, afterwards they are
exactly the SRC2/PR2/PR3 recovery traffic the degradation metric measures.

Between themselves, federated Lookup Services exchange four more TCP kinds:

* ``fed_pull`` / ``fed_pull_response`` — pull-on-miss: a registry whose
  entry is missing or older than the cache TTL asks its topology neighbours
  (plus the well-known home registry as fallback) for their current
  entries; receivers answer from what they hold without recursing.
* ``fed_gossip`` / ``fed_gossip_ack`` — periodic anti-entropy: a registry
  sends its entries to one neighbour per tick (round-robin); the receiver
  merges newer entries and replies with anything *it* holds that is newer.

All four count towards *y*: they are exactly the traffic an update needs to
cross the federation, the federated analogue of the Manager's
``service_update``.  Push-mode federations never send them.
"""

from __future__ import annotations

from typing import FrozenSet

PROTOCOL = "jini"

#: Copies of every multicast (Table 3: UPnP and Jini send each one 6 times).
MULTICAST_COPIES = 6

# ------------------------------------------------------------------ discovery (multicast, 6 copies)
REGISTRAR_ANNOUNCE = "registrar_announce"
DISCOVERY_REQUEST = "discovery_request"
REGISTRAR_HERE = "registrar_here"  # unicast reply to a discovery request

# ------------------------------------------------------------------ service registration (TCP)
REGISTER = "register"
REGISTER_ACK = "register_ack"
REGISTER_RENEW = "register_renew"
REGISTER_RENEW_ACK = "register_renew_ack"
REGISTER_RENEW_ERROR = "register_renew_error"  # UnknownLeaseException -> re-register

# ------------------------------------------------------------------ update propagation (TCP)
SERVICE_UPDATE = "service_update"
UPDATE_ACK = "update_ack"
UPDATE_REQUEST = "update_request"  # SRC2: the Lookup Service missed an update
REMOTE_EVENT = "remote_event"  # carries the new service item to a client

# ------------------------------------------------------------------ lookup / remote events (TCP)
LOOKUP = "lookup"
LOOKUP_RESPONSE = "lookup_response"
NOTIFY_REQUEST = "notify_request"  # remote-event registration
NOTIFY_ACK = "notify_ack"
EVENT_RENEW = "event_renew"
EVENT_RENEW_ACK = "event_renew_ack"
EVENT_RENEW_ERROR = "event_renew_error"  # PR3: the registration was purged

# ------------------------------------------------------------------ inter-registry federation (TCP)
FED_PULL = "fed_pull"
FED_PULL_RESPONSE = "fed_pull_response"
FED_GOSSIP = "fed_gossip"
FED_GOSSIP_ACK = "fed_gossip_ack"

#: Message kinds counted towards *y* in the efficiency metrics.
UPDATE_RELATED_KINDS: FrozenSet[str] = frozenset(
    {
        REGISTER,
        REGISTER_ACK,
        SERVICE_UPDATE,
        UPDATE_ACK,
        UPDATE_REQUEST,
        REMOTE_EVENT,
        LOOKUP,
        LOOKUP_RESPONSE,
        FED_PULL,
        FED_PULL_RESPONSE,
        FED_GOSSIP,
        FED_GOSSIP_ACK,
    }
)
