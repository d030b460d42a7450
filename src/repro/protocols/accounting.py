"""Per-protocol update-message accounting registry.

The Update Efficiency / Efficiency Degradation metrics count *update-related*
discovery-layer messages (EXPERIMENTS.md, rules 1-5).  Which message kinds
qualify is a property of each protocol's wire vocabulary, not of the metrics:
FRODO's ``service_update``, UPnP's ``event_notify``/``description_get`` pair
and Jini's ``remote_event`` all propagate a changed service description, while
announcements and lease renewals never do.

Each protocol's :mod:`messages` module declares its ``UPDATE_RELATED_KINDS``
and registers them here at import time; :class:`~repro.discovery.node.DiscoveryNode`
consults this registry to stamp the ``update_related`` flag on outgoing
messages, so the tagging rule lives in exactly one place per protocol instead
of being repeated (and drifting) across call sites.
"""

from __future__ import annotations

import importlib
from typing import Dict, FrozenSet

#: protocol tag ("frodo", "upnp", "jini") -> update-related message kinds.
_KINDS_BY_PROTOCOL: Dict[str, FrozenSet[str]] = {}

#: Memoised ``(protocol, kind) -> bool`` answers for :func:`is_update_related`,
#: which runs once per outgoing message.  Invalidated on (re-)registration so
#: a replaced declaration is always honoured.
_IS_UPDATE_RELATED_CACHE: Dict[tuple, bool] = {}


def register_update_related_kinds(protocol: str, kinds: FrozenSet[str]) -> None:
    """Declare the update-related message kinds of ``protocol``.

    Called by each protocol's ``messages`` module at import time.  Re-registering
    the same protocol replaces the previous declaration (idempotent imports).
    """
    if not protocol:
        raise ValueError("protocol tag must be non-empty")
    _KINDS_BY_PROTOCOL[protocol] = frozenset(kinds)
    _IS_UPDATE_RELATED_CACHE.clear()


def update_related_kinds(protocol: str) -> FrozenSet[str]:
    """The update-related kinds declared by ``protocol`` (empty when unknown).

    Falls back to importing ``repro.protocols.<protocol>.messages`` so the
    declaration is found even when a node is constructed before its protocol
    package was imported through the registry.
    """
    kinds = _KINDS_BY_PROTOCOL.get(protocol)
    if kinds is not None:
        return kinds
    try:
        importlib.import_module(f"repro.protocols.{protocol}.messages")
    except ImportError:
        _KINDS_BY_PROTOCOL.setdefault(protocol, frozenset())
    return _KINDS_BY_PROTOCOL.get(protocol, frozenset())


def is_update_related(protocol: str, kind: str) -> bool:
    """Whether messages of ``kind`` count towards *y* for ``protocol``."""
    key = (protocol, kind)
    cached = _IS_UPDATE_RELATED_CACHE.get(key)
    if cached is None:
        cached = _IS_UPDATE_RELATED_CACHE[key] = kind in update_related_kinds(protocol)
    return cached
