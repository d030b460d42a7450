"""Common service-discovery abstractions shared by all protocol models.

This package provides the entities that Section 4 of the paper defines:
service descriptions (device type, service type, attribute list) and
queries, the lease table every lessor keeps its registrations and
subscriptions in, and the base node machinery (sending and message
dispatch) used by the FRODO, Jini and UPnP models.
"""

from repro.discovery.service import ServiceDescription, ServiceQuery
from repro.discovery.lease import LeaseTable, Registration, Subscription
from repro.discovery.node import DiscoveryNode

__all__ = [
    "ServiceDescription",
    "ServiceQuery",
    "LeaseTable",
    "Registration",
    "Subscription",
    "DiscoveryNode",
]
