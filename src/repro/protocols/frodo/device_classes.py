"""FRODO device classification (Section 3 of the paper).

* **3C (Cent)** — simple devices with restricted resources (e.g. sensors);
  Managers only.
* **3D (Dollar)** — medium-complexity devices; Managers and limited Users.
* **300D (Dollar)** — powerful devices; Managers, Users and Registry capable
  (eligible for Central election).
"""

from __future__ import annotations

from enum import Enum


class DeviceClass(str, Enum):
    """The three FRODO device classes."""

    CENT_3C = "3C"
    DOLLAR_3D = "3D"
    DOLLAR_300D = "300D"

    @property
    def uses_two_party_subscription(self) -> bool:
        """300D Managers handle their own subscribers (2-party subscription)."""
        return self is DeviceClass.DOLLAR_300D
