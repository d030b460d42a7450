"""Protocol models.

One subpackage per modelled system:

* :mod:`repro.protocols.frodo` — the paper's own protocol (registry names
  ``frodo2``/``frodo3``: 2-party and 3-party subscription, UDP-only,
  Central/Backup, SRN1/SRN2/SRC1/SRC2, PR1/PR3/PR4/PR5),
* :mod:`repro.protocols.jini` — Jini as a family of K Lookup Services on a
  registry graph with push/pull/gossip propagation (``jini@k=...``, with the
  alias rows ``jini1``/``jini2`` pinned to k = 1 and k = 2: 3-party remote
  events over TCP, PR1/PR2/PR3, SRC2),
* :mod:`repro.protocols.upnp` — UPnP (``upnp``: 2-party GENA eventing over
  TCP, invalidation-based notification, PR4/PR5).

:mod:`repro.protocols.base` defines the :class:`~repro.protocols.base.ProtocolDeployment`
the experiment harness drives, and :mod:`repro.protocols.registry` holds
:data:`SYSTEMS`, one table row per system name above with its builder (one
per family) and its closed-form m' (Table 2), the one source of m' for
every run; it is a :class:`~repro.tokens.Registry`, like the scenario
families' table.  Each
subpackage's ``messages`` module declares which message kinds are
update-related (``UPDATE_RELATED_KINDS``); every node class of the protocol
carries that set as its ``update_related_kinds`` attribute, the one rule
that decides what a send counts toward *y*.
"""

from repro.protocols.base import ProtocolDeployment
from repro.protocols.registry import SYSTEMS

__all__ = ["ProtocolDeployment", "SYSTEMS"]
