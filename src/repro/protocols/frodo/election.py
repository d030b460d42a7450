"""Central (Registry) election among 300D nodes.

The paper (Section 3): "the 300D nodes elect the most powerful node as the
Registry.  We call the Registry the Central ...  A Backup is appointed by the
Central to store configuration information.  The Backup takes over
automatically in case of Central failure."

The election here is capability based: every registry-capable node announces
its capability during a short election window; at the end of the window the
node that heard no higher capability (ties broken by node id) declares itself
Central and announces.  The same comparison rule resolves conflicts later on:
a Central that hears an announcement from a more capable Central steps down.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple


@dataclass(frozen=True, order=True)
class Candidate:
    """An election candidate, ordered by (capability, node id)."""

    capability: int
    node_id: str


@dataclass
class ElectionState:
    """Book-keeping for one node's view of the election."""

    own: Candidate
    #: Candidates heard so far (including self).
    heard: Dict[str, Candidate] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.heard[self.own.node_id] = self.own

    def observe(self, node_id: str, capability: int) -> None:
        """Record a candidate announcement."""
        self.heard[node_id] = Candidate(capability=capability, node_id=node_id)

    def best(self) -> Candidate:
        """The winning candidate among everything heard so far."""
        return max(self.heard.values())

    def i_win(self) -> bool:
        """``True`` when this node is the current winner."""
        return self.best() == self.own

    def ranking(self) -> Tuple[Candidate, ...]:
        """All candidates, best first."""
        return tuple(sorted(self.heard.values(), reverse=True))

    def backup_candidate(self) -> Optional[Candidate]:
        """The runner-up (the node the Central appoints as Backup), if any."""
        ranking = self.ranking()
        return ranking[1] if len(ranking) > 1 else None
