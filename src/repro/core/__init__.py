"""Core of the reproduction: the paper's contribution.

* :mod:`repro.core.consistency` — tracking when each User regains consistency
  after a service change (the raw data behind all Update Metrics).
* :mod:`repro.core.metrics` — the NIST Update Metrics (Responsiveness,
  Effectiveness, Efficiency) and the paper's Efficiency Degradation metric.
* :mod:`repro.core.recovery` — the classification of recovery techniques
  (Tables 1, 2 and 4 of the paper).

The Section 5 experiment scenario, the failure-rate sweep driver and the
result reporting live in :mod:`repro.experiments`; the protocol topologies
they drive are looked up through :mod:`repro.protocols.registry`.
"""

from repro.core.consistency import ConsistencyTracker, UserViewRecord
from repro.core.metrics import (
    MetricSummary,
    RunResult,
    effectiveness,
    efficiency_degradation,
    relative_latencies,
    responsiveness,
    update_efficiency,
)
from repro.core.recovery import (
    RecoveryTechnique,
    PROTOCOL_PROFILES,
    ProtocolProfile,
)

__all__ = [
    "ConsistencyTracker",
    "UserViewRecord",
    "MetricSummary",
    "RunResult",
    "effectiveness",
    "efficiency_degradation",
    "relative_latencies",
    "responsiveness",
    "update_efficiency",
    "RecoveryTechnique",
    "PROTOCOL_PROFILES",
    "ProtocolProfile",
]
