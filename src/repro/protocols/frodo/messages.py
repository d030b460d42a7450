"""FRODO message kinds.

Central place for the wire vocabulary of the FRODO model, together with the
accounting flags used by the efficiency metrics.  A message kind is
*update-related* when it either carries a service description after the
change or is an explicit request for one (queries, update requests) or an
acknowledgement on the Manager <-> Central leg of the update handshake; see
EXPERIMENTS.md for the full accounting rules and how they calibrate to
Table 2's ``N + 2`` count.
"""

from __future__ import annotations

from typing import FrozenSet

PROTOCOL = "frodo"

# ------------------------------------------------------------------ announcements / discovery
CENTRAL_ANNOUNCE = "central_announce"
NODE_ANNOUNCE = "node_announce"
REGISTRY_HERE = "registry_here"
ELECTION_ANNOUNCE = "election_announce"

# ------------------------------------------------------------------ registration (Manager <-> Central)
REGISTRATION = "registration"
REGISTRATION_ACK = "registration_ack"
REGISTRATION_RENEW = "registration_renew"
REGISTRATION_RENEW_ACK = "registration_renew_ack"
REREGISTER_REQUEST = "reregister_request"

# ------------------------------------------------------------------ update propagation
SERVICE_UPDATE = "service_update"
UPDATE_ACK = "update_ack"            # Central -> Manager acknowledgement of an update
USER_UPDATE_ACK = "user_update_ack"  # User -> Central/Manager acknowledgement of an update
UPDATE_REQUEST = "update_request"    # explicit request for a missed update (SRC2)

# ------------------------------------------------------------------ subscriptions
SUBSCRIBE_REQUEST = "subscribe_request"
SUBSCRIBE_ACK = "subscribe_ack"
SUBSCRIPTION_RENEW = "subscription_renew"
SUBSCRIPTION_RENEW_ACK = "subscription_renew_ack"
RESUBSCRIBE_REQUEST = "resubscribe_request"
INTEREST_REQUEST = "interest_request"
INTEREST_RENEW = "interest_renew"

# ------------------------------------------------------------------ queries / purge notifications
SERVICE_QUERY = "service_query"
SERVICE_QUERY_RESPONSE = "service_query_response"
MULTICAST_QUERY = "multicast_query"
MANAGER_PURGED = "manager_purged"

# ------------------------------------------------------------------ Central / Backup coordination
BACKUP_APPOINT = "backup_appoint"
BACKUP_SYNC = "backup_sync"

#: Message kinds counted towards *y* in the efficiency metrics.
UPDATE_RELATED_KINDS: FrozenSet[str] = frozenset(
    {
        REGISTRATION,
        REGISTRATION_ACK,
        SERVICE_UPDATE,
        UPDATE_ACK,
        UPDATE_REQUEST,
        SUBSCRIBE_ACK,
        SERVICE_QUERY,
        SERVICE_QUERY_RESPONSE,
        MULTICAST_QUERY,
    }
)
