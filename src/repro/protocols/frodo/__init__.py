"""FRODO protocol model.

FRODO (Section 3 of the paper) targets the home environment and is built
around two objectives:

* **Resource awareness** — devices are classified as 3C (Managers only),
  3D (Managers and limited Users) or 300D (Managers, Users, and Registry
  capable).  Resource-lean 3D/3C Managers delegate subscription handling to
  the Central (3-party subscription); 300D Managers handle their own
  subscribers (2-party subscription).
* **Robustness** — 300D nodes elect the most capable node as the *Central*
  (the Registry); a *Backup* stores configuration information and takes over
  automatically when the Central fails.  All unicast traffic uses UDP; the
  service-discovery layer implements its own acknowledgements and
  retransmissions for selected messages (SRN1/SRC1) plus SRN2, SRC2 and the
  purge-rediscovery techniques PR1, PR3, PR4 and PR5.
"""

from repro.protocols.frodo.config import FrodoConfig, SubscriptionMode
from repro.protocols.frodo.central import FrodoCentral
from repro.protocols.frodo.manager import FrodoManager
from repro.protocols.frodo.user import FrodoUser
from repro.protocols.frodo.builder import build_frodo

__all__ = [
    "FrodoConfig",
    "SubscriptionMode",
    "FrodoCentral",
    "FrodoManager",
    "FrodoUser",
    "build_frodo",
]
