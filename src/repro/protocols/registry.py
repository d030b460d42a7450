"""The table of deployable systems.

Every modelled system is one row of :data:`SYSTEMS` under its name
("frodo2", "frodo3", "upnp", the parameterised "jini" family and its
aliases "jini1"/"jini2"); the experiment harness builds deployments by
system token instead of hard-coding protocol construction, so adding a
protocol is one :class:`SystemEntry` row and no runner change.

A *builder* is a callable ``(sim, network, tracker, n_users=5, **options)
-> ProtocolDeployment``: ``n_users`` is the number of measured Users in the
topology (Table 4 uses 5), and ``options`` are the row's defaults with the
token's options merged over them, each passed every time.  A builder
decides its topology and protocol config itself; nothing else about it is
settable.

:data:`SYSTEMS` is a :class:`~repro.tokens.Registry`, the type of the
scenario-family table too: :meth:`~repro.tokens.Registry.resolve` turns a
``--system`` token such as ``jini@k=8,mode=gossip`` into the row, its
typed options and the canonical token, so a bad name or a mistyped value
is a spec error before any cell runs, and a bare name resolves to itself,
so its cell keys, seeds and sweep output are untouched.  A row's range
check (:attr:`SystemEntry.check`) runs when a run's spec is validated
(:meth:`~repro.experiments.scenario.ScenarioSpec.validate`).

``m_prime`` is a *closed form*, not an N=5 constant: each row carries a
callable ``m_prime(n_users, **options) -> int`` (Table 2's per-system
update message count).  It is the one source of m': the runner records it
per run at the run's topology size, and no deployment computes its own.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Optional

from repro.core.consistency import ConsistencyTracker
from repro.core.recovery import expected_update_messages
from repro.net.network import Network
from repro.protocols.base import ProtocolDeployment
from repro.protocols.frodo.builder import build_frodo
from repro.protocols.frodo.config import SubscriptionMode
from repro.protocols.jini.builder import JINI_PARAM_DEFAULTS, build_jini, check_jini_params
from repro.protocols.upnp.builder import build_upnp
from repro.sim.engine import Simulator
from repro.tokens import Registry

#: Signature of a deployment builder.
DeploymentBuilder = Callable[..., ProtocolDeployment]

#: Signature of a closed-form m' — ``(n_users, **options) -> int``.
MPrimeForm = Callable[..., int]


@dataclass(frozen=True)
class SystemEntry:
    """One row of :data:`SYSTEMS`: its builder plus the metadata the sweep needs."""

    name: str
    builder: DeploymentBuilder
    #: The system's zero-failure update message count as a closed form:
    #: ``m_prime(n_users, **options) -> int`` (m' in the paper).
    m_prime: MPrimeForm
    #: Human-readable closed form, e.g. ``"(N + 2) * k"`` (CLI listing).
    m_prime_form: str
    description: str
    #: Option names with their typed default values (empty = no options).
    defaults: Mapping[str, Any] = field(default_factory=dict)
    #: The token this row is an alias of ("" = none): its defaults are that
    #: token's options, and it accepts no option of its own.
    alias_of: str = ""
    #: Range check of the merged options (``None`` = types only); raises
    #: :class:`ValueError`.
    check: Optional[Callable[[Mapping[str, Any]], None]] = None

    def m_prime_at(self, n_users: int, options: Optional[Mapping[str, Any]] = None) -> int:
        """The closed-form m' at ``n_users`` with ``options`` over the defaults."""
        return int(self.m_prime(n_users, **{**self.defaults, **(options or {})}))


class DeploymentRegistry(Registry):
    """The system table: a :class:`~repro.tokens.Registry` that builds deployments."""

    def build(
        self,
        token: str,
        sim: Simulator,
        network: Network,
        tracker: ConsistencyTracker,
        n_users: int = 5,
    ) -> ProtocolDeployment:
        """Construct the deployment of ``n_users`` Users that a system token selects."""
        entry, options, _ = self.resolve(token)
        return entry.builder(sim, network, tracker, n_users=n_users, **options)


# Every ``m_prime`` is Table 2's closed form from
# :func:`repro.core.recovery.expected_update_messages`.
def _frodo_m_prime(n_users: int, **_options: Any) -> int:
    return expected_update_messages("frodo", n_users)


def _upnp_m_prime(n_users: int, **_options: Any) -> int:
    return expected_update_messages("upnp", n_users)


def _jini_m_prime(n_users: int, k: int, **_options: Any) -> int:
    return expected_update_messages("jini", n_users, registries=k)


#: The systems of the paper's comparison (Table 4), one row each.  The
#: legacy names ``jini1``/``jini2`` pin the federation-details block off:
#: their per-run output predates it and must stay byte-identical.
SYSTEMS = DeploymentRegistry(
    "system",
    (
        SystemEntry(
            "frodo3",
            functools.partial(build_frodo, mode=SubscriptionMode.THREE_PARTY),
            _frodo_m_prime,
            "N + 2",
            "FRODO, 3-party subscription (3D Manager, Central relays updates)",
        ),
        SystemEntry(
            "frodo2",
            functools.partial(build_frodo, mode=SubscriptionMode.TWO_PARTY),
            _frodo_m_prime,
            "N + 2",
            "FRODO, 2-party subscription (300D Manager notifies Users directly)",
        ),
        SystemEntry(
            "upnp",
            build_upnp,
            _upnp_m_prime,
            "3N",
            "UPnP (2-party GENA eventing over TCP, SSDP rediscovery, 6-copy multicast)",
        ),
        SystemEntry(
            "jini",
            build_jini,
            _jini_m_prime,
            "(N + 2) * k",
            "Jini, K federated Lookup Services "
            "(mesh/star/ring/line topology; push/pull/gossip propagation)",
            defaults=JINI_PARAM_DEFAULTS,
            check=check_jini_params,
        ),
        SystemEntry(
            "jini1",
            build_jini,
            _jini_m_prime,
            "(N + 2) * k",
            "Jini, 1 Lookup Service (frozen alias of jini@k=1)",
            defaults={**JINI_PARAM_DEFAULTS, "k": 1, "report": False},
            alias_of="jini@k=1,report=false",
        ),
        SystemEntry(
            "jini2",
            build_jini,
            _jini_m_prime,
            "(N + 2) * k",
            "Jini, 2 Lookup Services (frozen alias of jini@k=2)",
            defaults={**JINI_PARAM_DEFAULTS, "k": 2, "report": False},
            alias_of="jini@k=2,report=false",
        ),
    ),
)
