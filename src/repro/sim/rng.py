"""Deterministic random-number streams.

Every stochastic decision in a run (transmission delay, failure onset,
service-change time, announcement jitter, ...) draws from a named stream so
that adding a new consumer of randomness never perturbs the draws seen by
existing consumers.  Streams are derived from a master seed by hashing the
stream key, which makes runs reproducible across processes and platforms.
"""

from __future__ import annotations

import hashlib
import random
from typing import Any, Dict, Tuple


def derive_seed(master_seed: int, *key: Any) -> int:
    """Derive a 64-bit child seed from ``master_seed`` and a hashable key.

    The derivation uses SHA-256 over the repr of the key parts, so it is
    stable across Python processes (unlike the built-in ``hash``).
    """
    material = repr((int(master_seed),) + tuple(key)).encode("utf-8")
    digest = hashlib.sha256(material).digest()
    return int.from_bytes(digest[:8], "little")


class RngRegistry:
    """Factory of named, independently seeded :class:`random.Random` streams."""

    def __init__(self, master_seed: int) -> None:
        self.master_seed = int(master_seed)
        self._streams: Dict[Tuple[Any, ...], random.Random] = {}

    def stream(self, *key: Any) -> random.Random:
        """Return the RNG for ``key``, creating (and caching) it on first use."""
        key_t = tuple(key)
        rng = self._streams.get(key_t)
        if rng is None:
            rng = random.Random(derive_seed(self.master_seed, *key_t))
            self._streams[key_t] = rng
        return rng
