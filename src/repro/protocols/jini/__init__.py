"""Jini protocol model (Table 2 / Table 4) as a family of K Lookup Services.

Jini is the 3-party system of the comparison: Lookup Services (the
Registries) mediate between the service provider (the Manager) and the
clients (the Users).  Discovery uses redundant multicast (announcements from
the Lookup Service, discovery requests from nodes); all unicast control
traffic — registration, lookup, remote-event notification, lease renewal —
runs over TCP with the Table 3 failure response.

A service change is propagated as a re-registration at each Lookup Service,
which fires a remote event (carrying the new service item) to every client
with a live event registration: ``registries * (N + 2)`` update messages,
m' = 7 for ``jini1`` and 14 for ``jini2``.

Recovery techniques (Table 2): SRC1/SRN1 only through TCP's bounded retries,
SRC2 (version numbers on lease-renewal acknowledgements trigger explicit
lookups), PR1 (events fire on re-registration — future registrations only),
PR2 (clients purge a silent Lookup Service and rediscover via multicast) and
PR3 (a renewal of a purged event registration is answered with an error that
triggers re-registration).

The paper's one- and two-registry variants generalise to K registries
connected by a topology (full mesh, star, ring, line;
:mod:`repro.protocols.jini.topology`).  Users are partitioned or
multi-homed across them, and registrations/updates propagate between
registries by eager push (the paper's replicated model), pull-on-miss with a
cache TTL, or periodic gossip — with stale-entry fallback and cross-registry
consistency metrics (:mod:`repro.protocols.jini.monitor`).  ``build_jini``
is the single constructor of the family: ``jini1``/``jini2`` are frozen
aliases of ``jini@k=1``/``jini@k=2``.
"""

from repro.protocols.jini.builder import JiniDeployment, build_jini
from repro.protocols.jini.config import JiniConfig

__all__ = ["JiniConfig", "JiniDeployment", "build_jini"]
