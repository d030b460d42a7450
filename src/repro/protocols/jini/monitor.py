"""Cross-registry consistency accounting.

The :class:`FederationMonitor` is a passive observer shared by every
registry of one federated deployment: registries report when they first
store each service-description version, the deployment reports the
authoritative change, and after the run the monitor condenses both into
the consistency metrics of the federated comparison:

* **staleness window** per registry — how long the registry served the old
  version after the authoritative change (``first_store - change_time``);
* **convergence time** — when the *last* registry caught up (the maximum
  staleness; ``None`` while any registry still lags);
* **per-registry m'** — each registry's share of the update-related traffic
  (sent messages, accounting rules of EXPERIMENTS.md), read from the
  network's windowed send counter.

The monitor only does bookkeeping — it never sends messages, draws random
numbers, or schedules events — so attaching it cannot perturb a run.  That
property is what keeps push-mode federations byte-identical to the legacy
``jini1``/``jini2`` systems.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.net.stats import MessageStats


class FederationMonitor:
    """Records propagation timing across one federation's registries."""

    def __init__(self, k: int, mode: str, topology: str, assign: str) -> None:
        self.k = k
        self.mode = mode
        self.topology = topology
        self.assign = assign
        #: Latest authoritative version and when it was published.
        self.change_version = 0
        self.change_time: Optional[float] = None
        #: registry id -> version -> time the registry *first* stored it.
        self._store_times: Dict[str, Dict[int, float]] = {}

    # ------------------------------------------------------------------ recording
    def record_change(self, version: int, time: float) -> None:
        """The deployment published a new authoritative version."""
        if version > self.change_version:
            self.change_version = version
            self.change_time = time

    def record_store(self, registry_id: str, version: int, time: float) -> None:
        """``registry_id`` stored ``version`` (first store wins)."""
        times = self._store_times.setdefault(registry_id, {})
        times.setdefault(version, time)

    def registry_version(self, registry_id: str) -> int:
        """Latest version the registry has stored (0 = nothing yet)."""
        times = self._store_times.get(registry_id)
        return max(times) if times else 0

    # ------------------------------------------------------------------ metrics
    def staleness_windows(self, registry_ids: List[str]) -> Dict[str, Optional[float]]:
        """Per-registry delay from the change to its first store of the
        changed version (``None`` = the registry never caught up)."""
        windows: Dict[str, Optional[float]] = {}
        for registry_id in registry_ids:
            stored = self._store_times.get(registry_id, {}).get(self.change_version)
            if stored is None or self.change_time is None:
                windows[registry_id] = None
            else:
                windows[registry_id] = max(0.0, stored - self.change_time)
        return windows

    def convergence_time(self, registry_ids: List[str]) -> Optional[float]:
        """Delay until the *last* registry stored the changed version."""
        windows = self.staleness_windows(registry_ids)
        if any(value is None for value in windows.values()):
            return None
        return max(windows.values(), default=None)

    def summary(self, stats: MessageStats, registry_ids: List[str]) -> Dict[str, object]:
        """The ``details["federation"]`` block of a run result."""
        windows = self.staleness_windows(registry_ids)
        # Each registry's share of y: its windowed update-related sends.
        sent = dict.fromkeys(registry_ids, 0)
        for (sender, _protocol, _kind), count in stats.windowed.items():
            if sender in sent:
                sent[sender] += count
        return {
            "k": self.k,
            "mode": self.mode,
            "topology": self.topology,
            "assign": self.assign,
            "registry_ids": list(registry_ids),
            "change_version": self.change_version,
            "registry_versions": {
                registry_id: self.registry_version(registry_id) for registry_id in registry_ids
            },
            "staleness": windows,
            "convergence_time": self.convergence_time(registry_ids),
            "converged_registries": sum(
                1 for value in windows.values() if value is not None
            ),
            "per_registry_update_messages": sent,
        }
