"""UPnP protocol model (Table 2 / Table 4).

UPnP is the 2-party system of the comparison: there is no Registry.  The root
device (the Manager) advertises itself with redundant SSDP multicast
announcements, control points (the Users) search with redundant multicast
M-SEARCH queries, and eventing is GENA-style over TCP: a service change is
propagated as an *invalidation* event, after which each subscriber fetches
the updated description ("Users poll back for the update"), giving the
paper's 3N update messages (m' = 15 for N = 5 Users).

Recovery techniques (Table 2): SRC1/SRN1 only through TCP's bounded
connection retries, PR4 (a renewal from a dropped subscriber is answered with
an error that triggers resubscription) and PR5 (a control point that loses
its device purges it and rediscovers via multicast).
"""

from repro.protocols.upnp.builder import build_upnp
from repro.protocols.upnp.config import UpnpConfig

__all__ = ["UpnpConfig", "build_upnp"]
