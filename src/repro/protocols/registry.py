"""Registry of protocol deployments.

Every modelled system is registered here under its name ("frodo2", "frodo3",
"upnp", the parameterised "jini" family); the experiment harness looks
builders up by name instead of hard-coding protocol construction, so adding
a new protocol is one ``SYSTEMS.register(...)`` call and no runner changes.
:data:`SYSTEMS` is the one registry: every run builds its deployment
through :meth:`DeploymentRegistry.build` on it, and a name is registered
once (a duplicate raises).

A *builder* is a callable ``(sim, network, tracker, **options) ->
ProtocolDeployment``.  Options every builder must accept (with defaults):

* ``n_users`` — number of measured Users in the topology (Table 4 uses 5).

Systems can declare typed *parameters* (:attr:`SystemEntry.params`): the CLI
selects them with ``name@key=value,...`` tokens — ``--system
jini@k=8,mode=gossip`` — sharing the grammar of ``--scenario`` tokens
(:mod:`repro.experiments.tokens`).  :meth:`DeploymentRegistry.resolve` turns
a token into a :class:`ResolvedSystem` (entry + validated parameters +
canonical token); bare legacy names resolve to themselves, so existing cell
keys, seeds and sweep output are untouched.

``m_prime`` is a *closed form*, not an N=5 constant: each entry carries a
callable ``m_prime(n_users, **params) -> int`` (Table 2's per-system update
message count).  It is the one source of m': the runner records it per run
at the run's topology size, and no deployment computes its own.

The module-level :data:`SYSTEMS` instance is the registry of the runner, the
sweep driver and the ``python -m repro`` CLI; tests can construct private
:class:`DeploymentRegistry` instances.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Tuple

from repro.core.consistency import ConsistencyTracker
from repro.net.network import Network
from repro.protocols.base import ProtocolDeployment
from repro.sim.engine import Simulator

#: Signature of a deployment builder.
DeploymentBuilder = Callable[..., ProtocolDeployment]

#: Signature of a closed-form m' — ``(n_users, **params) -> int``.
MPrimeForm = Callable[..., int]

#: Reference topology size for registration-time sanity checks and registry
#: fingerprints (Table 4's N).
REFERENCE_N_USERS = 5


class UnknownSystemError(KeyError):
    """Raised when a system name is not registered."""

    def __init__(self, name: str, known: List[str]) -> None:
        super().__init__(name)
        self.name = name
        self.known = known

    def __str__(self) -> str:
        return f"unknown system {self.name!r}; registered systems: {', '.join(self.known) or '(none)'}"


# --------------------------------------------------------------------------- CLI tokens
def system_token(name: str, options: Mapping[str, Any]) -> str:
    """Canonical ``name@key=value,...`` token of a system selection.

    Shares the scenario-token grammar (:mod:`repro.experiments.tokens`):
    options sorted by key, floats via ``repr``, bare name when there are no
    options — so legacy names ("jini2") canonicalise to themselves and
    parameterised selections always produce equal tokens for equal
    selections (the property cell keys and seeds rely on).
    """
    from repro.experiments.tokens import canonical_token

    return canonical_token(name, options)


def parse_system(text: str) -> Tuple[str, Dict[str, Any]]:
    """Parse a CLI system token: ``jini@k=8,mode=gossip`` -> name + options.

    Values parse as ``true``/``false``, int, float, or fall back to string
    (identical to ``--scenario`` parsing — one grammar, two front ends).
    The name is *not* resolved against the registry here — callers use
    :meth:`DeploymentRegistry.resolve` so errors carry the known names.
    """
    from repro.experiments.tokens import parse_token

    return parse_token(text, label="system")


@dataclass(frozen=True)
class SystemEntry:
    """One registered system: its builder plus the metadata the sweep needs."""

    name: str
    builder: DeploymentBuilder
    #: The system's zero-failure update message count as a closed form:
    #: ``m_prime(n_users, **params) -> int`` (m' in the paper).
    m_prime: MPrimeForm
    description: str = ""
    #: Parameter names with their default values (typed; unknown parameters
    #: and wrongly-typed values are rejected).  Empty = no parameters.
    params: Dict[str, Any] = field(default_factory=dict)
    #: Human-readable closed form, e.g. ``"(N + 2) * k"`` (CLI listing).
    m_prime_form: str = ""
    #: Frozen entries (legacy aliases like "jini1") accept no parameter
    #: overrides: their parameters are pinned at registration.
    frozen: bool = False
    #: Canonical token the entry is an alias of (informational; "" = none).
    alias_of: str = ""

    def validate_params(self, options: Mapping[str, Any]) -> Dict[str, Any]:
        """Merge ``options`` over the parameter defaults, rejecting unknown
        names and mistyped values (the scenario options' rule, from
        :func:`~repro.experiments.tokens.validate_options`)."""
        from repro.experiments.tokens import validate_options

        return validate_options("system", self.name, self.params, options)

    def m_prime_at(self, n_users: int, options: Optional[Mapping[str, Any]] = None) -> int:
        """The closed-form m' at ``n_users`` with ``options`` over the defaults."""
        merged = self.validate_params(options or {})
        return int(self.m_prime(n_users, **merged))


@dataclass(frozen=True)
class ResolvedSystem:
    """A system token resolved against a registry: entry + validated parameters.

    This is what flows through the sweep: :attr:`token` is the canonical
    system string (== the bare entry name for legacy selections), and
    :meth:`m_prime`/:meth:`build` apply the selection's parameters.
    """

    entry: SystemEntry
    #: The selected options, validated and merged over the entry's defaults.
    params: Dict[str, Any]
    #: Canonical token of the selection (cell keys, seeds, JSON output).
    token: str

    @property
    def name(self) -> str:
        """Bare registry name of the entry."""
        return self.entry.name

    def m_prime(self, n_users: int) -> int:
        """Closed-form m' of this selection at ``n_users``."""
        return int(self.entry.m_prime(n_users, **self.params))

    def build(
        self,
        sim: Simulator,
        network: Network,
        tracker: ConsistencyTracker,
        **options: object,
    ) -> ProtocolDeployment:
        """Construct the deployment with the selection's parameters applied."""
        merged = dict(self.params)
        merged.update(options)
        return self.entry.builder(sim, network, tracker, **merged)


class DeploymentRegistry:
    """Name -> deployment-builder mapping with metadata."""

    def __init__(self) -> None:
        self._entries: Dict[str, SystemEntry] = {}

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[SystemEntry]:
        return iter(self._entries.values())

    def register(
        self,
        name: str,
        builder: DeploymentBuilder,
        m_prime: MPrimeForm,
        description: str = "",
        params: Optional[Mapping[str, Any]] = None,
        m_prime_form: str = "",
    ) -> SystemEntry:
        """Register ``builder`` under ``name``; a duplicate name raises.

        ``m_prime`` is the closed form ``(n_users, **params) -> int``; it
        must be positive at the reference topology size.
        """
        if not name:
            raise ValueError("system name must be non-empty")
        if name in self._entries:
            raise ValueError(f"system {name!r} already registered")
        entry = SystemEntry(
            name=name,
            builder=builder,
            m_prime=m_prime,
            description=description,
            params=dict(params or {}),
            m_prime_form=m_prime_form,
        )
        if entry.m_prime_at(REFERENCE_N_USERS) <= 0:
            raise ValueError("m_prime must be positive")
        self._entries[name] = entry
        return entry

    def register_alias(self, name: str, target: str, description: str = "") -> SystemEntry:
        """Register ``name`` as a *frozen* alias of the system token ``target``.

        The alias shares the target's builder and closed form with the
        token's parameters pinned; resolving the alias with any explicit
        option is rejected, so a legacy name can never silently drift from
        the topology it historically selected.
        """
        resolved = self.resolve(target)
        pinned = resolved.params
        target_m_prime = resolved.entry.m_prime

        def alias_m_prime(n_users: int, **overrides: Any) -> int:
            merged = dict(pinned)
            merged.update(overrides)
            return target_m_prime(n_users, **merged)

        if name in self._entries:
            raise ValueError(f"system {name!r} already registered")
        entry = SystemEntry(
            name=name,
            builder=resolved.entry.builder,
            m_prime=alias_m_prime,
            description=description or resolved.entry.description,
            params=pinned,
            m_prime_form=resolved.entry.m_prime_form,
            frozen=True,
            alias_of=resolved.token,
        )
        self._entries[name] = entry
        return entry

    def get(self, name: str) -> SystemEntry:
        """Look up a *bare* system name; raises :class:`UnknownSystemError`.

        Parameterised selections go through :meth:`resolve`, which accepts
        full ``name@key=value,...`` tokens.
        """
        try:
            return self._entries[name]
        except KeyError:
            raise UnknownSystemError(name, self.names()) from None

    def resolve(self, token: str) -> ResolvedSystem:
        """Resolve a system token (bare name or ``name@key=value,...``).

        Validates the parameters against the entry's typed defaults and
        canonicalises the token, so equal selections resolve to equal
        :attr:`ResolvedSystem.token` strings.  Frozen aliases reject any
        explicit option.
        """
        name, options = parse_system(token)
        entry = self.get(name)
        if options and entry.frozen:
            raise ValueError(
                f"system {name!r} is a frozen alias of {entry.alias_of!r} "
                f"and accepts no options (use {entry.alias_of.partition('@')[0]!r} "
                f"with explicit parameters instead)"
            )
        params = entry.validate_params(options)
        return ResolvedSystem(entry=entry, params=params, token=system_token(name, options))

    def names(self) -> List[str]:
        """All registered system names, sorted."""
        return sorted(self._entries.keys())

    def build(
        self,
        name: str,
        sim: Simulator,
        network: Network,
        tracker: ConsistencyTracker,
        **options: object,
    ) -> ProtocolDeployment:
        """Construct a system's deployment on the given substrate.

        ``name`` may be a bare registry name or a full system token; the
        token's parameters are merged into the builder options.
        """
        resolved = self.resolve(name)
        deployment = resolved.build(sim, network, tracker, **options)
        if not isinstance(deployment, ProtocolDeployment):
            raise TypeError(
                f"builder for {name!r} returned {type(deployment).__name__}, "
                "expected a ProtocolDeployment"
            )
        return deployment


#: The registry every standard system registers into.
SYSTEMS = DeploymentRegistry()


# --------------------------------------------------------------------------- standard systems
def _register_standard_systems() -> None:
    """Register the systems of the paper's comparison (Table 4).

    Every ``m_prime`` is Table 2's closed form from
    :func:`repro.core.recovery.expected_update_messages` — the one source of
    m' for every run.
    """
    import dataclasses

    from repro.core.recovery import expected_update_messages
    from repro.protocols.frodo.builder import build_frodo
    from repro.protocols.frodo.config import FrodoConfig, SubscriptionMode
    from repro.protocols.jini.builder import JINI_PARAM_DEFAULTS, build_jini
    from repro.protocols.upnp.builder import build_upnp
    from repro.protocols.upnp.config import UpnpConfig

    def _frodo_builder(mode: SubscriptionMode) -> DeploymentBuilder:
        def _build(
            sim: Simulator,
            network: Network,
            tracker: ConsistencyTracker,
            n_users: int = 5,
            config: Optional[FrodoConfig] = None,
        ) -> ProtocolDeployment:
            # Copy before pinning the mode: the caller's config object must
            # not be mutated (it may be shared across sweep replications).
            base = config if config is not None else FrodoConfig()
            cfg = dataclasses.replace(base, subscription_mode=mode)
            return build_frodo(sim, network, tracker, config=cfg, n_users=n_users)

        return _build

    def _frodo_m_prime(n_users: int, **_params: Any) -> int:
        return expected_update_messages("frodo", n_users)

    SYSTEMS.register(
        "frodo3",
        _frodo_builder(SubscriptionMode.THREE_PARTY),
        m_prime=_frodo_m_prime,
        m_prime_form="N + 2",
        description="FRODO, 3-party subscription (3D Manager, Central relays updates)",
    )
    SYSTEMS.register(
        "frodo2",
        _frodo_builder(SubscriptionMode.TWO_PARTY),
        m_prime=_frodo_m_prime,
        m_prime_form="N + 2",
        description="FRODO, 2-party subscription (300D Manager notifies Users directly)",
    )

    def _build_upnp(
        sim: Simulator,
        network: Network,
        tracker: ConsistencyTracker,
        n_users: int = 5,
        config: Optional[UpnpConfig] = None,
    ) -> ProtocolDeployment:
        return build_upnp(sim, network, tracker, config=config, n_users=n_users)

    SYSTEMS.register(
        "upnp",
        _build_upnp,
        m_prime=lambda n_users, **_params: expected_update_messages("upnp", n_users),
        m_prime_form="3N",
        description="UPnP (2-party GENA eventing over TCP, SSDP rediscovery, 6-copy multicast)",
    )

    SYSTEMS.register(
        "jini",
        build_jini,
        m_prime=lambda n_users, k=1, **_params: expected_update_messages(
            "jini", n_users, registries=int(k)
        ),
        params=JINI_PARAM_DEFAULTS,
        m_prime_form="(N + 2) * k",
        description=(
            "Jini, K federated Lookup Services "
            "(mesh/star/ring/line topology; push/pull/gossip propagation)"
        ),
    )
    # The legacy names pin the federation-details block off: their per-run
    # output predates it and must stay byte-identical.
    SYSTEMS.register_alias(
        "jini1",
        "jini@k=1,report=false",
        description="Jini, 1 Lookup Service (frozen alias of jini@k=1)",
    )
    SYSTEMS.register_alias(
        "jini2",
        "jini@k=2,report=false",
        description="Jini, 2 Lookup Services (frozen alias of jini@k=2)",
    )


_register_standard_systems()
