"""Common service-discovery abstractions shared by all protocol models.

This package provides the entities that Section 4 of the paper defines:
service descriptions (device type, service type, attribute list), leases,
the Registries' lease-based caches, subscriptions, and the base node
machinery (sending and message dispatch) used by the FRODO, Jini and UPnP
models.
"""

from repro.discovery.service import ServiceDescription, ServiceQuery
from repro.discovery.lease import Lease
from repro.discovery.cache import CacheEntry, ServiceCache
from repro.discovery.subscription import Subscription, SubscriptionTable
from repro.discovery.node import DiscoveryNode

__all__ = [
    "ServiceDescription",
    "ServiceQuery",
    "Lease",
    "CacheEntry",
    "ServiceCache",
    "Subscription",
    "SubscriptionTable",
    "DiscoveryNode",
]
