"""Service descriptions and queries.

A service description (SD) describes a service in terms of device type,
service type and an attribute list (Section 1 of the paper), for example::

    SD = {DeviceType=Printer, ServiceType=ColorPrinter,
          AttributeList{PaperSize=A4, Location=Study}}

Any change to the structure or to an attribute-value pair produces a new
*version* of the SD; consistency maintenance is about propagating the newest
version to all interested Users.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, Mapping, Optional


@dataclass(frozen=True)
class ServiceDescription:
    """Immutable snapshot of a service at a particular version."""

    service_id: str
    manager_id: str
    device_type: str
    service_type: str
    attributes: Mapping[str, Any] = field(default_factory=dict)
    version: int = 1

    def __post_init__(self) -> None:
        # Freeze the attribute mapping so cached copies cannot be mutated in place.
        object.__setattr__(self, "attributes", dict(self.attributes))

    def with_update(self, changed_at: float) -> "ServiceDescription":
        """The next version of this SD, its ``changed_at`` attribute set to the change time."""
        return replace(
            self,
            attributes={**self.attributes, "changed_at": changed_at},
            version=self.version + 1,
        )


@dataclass(frozen=True)
class ServiceQuery:
    """A User's requirements for the services it needs."""

    device_type: Optional[str] = None
    service_type: Optional[str] = None
    attributes: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "attributes", dict(self.attributes))

    def to_payload(self) -> Dict[str, Any]:
        """The query as a message payload, the one :meth:`from_payload` reads."""
        return {
            "device_type": self.device_type,
            "service_type": self.service_type,
            "attributes": dict(self.attributes),
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "ServiceQuery":
        """The query a message payload carries."""
        return cls(
            device_type=payload.get("device_type"),
            service_type=payload.get("service_type"),
            attributes=payload.get("attributes", {}) or {},
        )

    def matches(self, sd: ServiceDescription) -> bool:
        """``True`` when ``sd`` satisfies every constraint of the query.

        Attribute constraints are matched exactly; the service type is *not*
        required to match attribute changes (a query for a printer still
        matches after its service type changes), so only the device type and
        explicitly constrained attributes are compared by default.
        """
        if self.device_type is not None and sd.device_type != self.device_type:
            return False
        if self.service_type is not None and sd.service_type != self.service_type:
            return False
        for key, value in self.attributes.items():
            if sd.attributes.get(key) != value:
                return False
        return True


def default_service(manager_id: str) -> ServiceDescription:
    """The paper's example service description (a colour printer)."""
    return ServiceDescription(
        service_id="printer-service",
        manager_id=manager_id,
        device_type="Printer",
        service_type="ColorPrinter",
        attributes={"PaperSize": "A4", "Location": "Study"},
        version=1,
    )


def default_query() -> ServiceQuery:
    """Every User's requirement: any printer."""
    return ServiceQuery(device_type="Printer")
