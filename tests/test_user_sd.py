"""A User holds one service description and adopts one only when it is at least as new.

Every User class keeps the description it holds in ``sd``; ``held_version``
and ``has_service`` read it.  A stale description (a query response from a
Registry that missed the update, a late event) must not replace a newer one,
and a purge drops the description but keeps ``service_id``, which tells a
User that once held the service from one that never did.
"""

import pytest

from repro.core.consistency import ConsistencyTracker
from repro.net.network import Network
from repro.protocols.registry import SYSTEMS
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry

#: One case per User class and configuration: the FRODO User in both
#: subscription modes, the Jini client and the UPnP control point.
USER_SYSTEMS = ("frodo3", "frodo2", "jini1", "upnp")
#: The User classes with a PR5 purge of the held description.
PURGING_SYSTEMS = ("frodo3", "frodo2", "upnp")


def build_user(system):
    sim = Simulator()
    deployment = SYSTEMS.build(system, sim, Network(sim, RngRegistry(7)), ConsistencyTracker())
    return deployment.users[0], deployment.managers[0].sd


@pytest.mark.parametrize("system", USER_SYSTEMS)
def test_user_keeps_the_newer_description(system):
    user, v1 = build_user(system)
    v2 = v1.with_update(changed_at=0.0)
    assert (user.has_service, user.held_version) == (False, 0)

    user._adopt_sd(v2)
    user._adopt_sd(v1)
    assert user.has_service
    assert user.held_version == 2
    assert user.sd is v2

    # An equal version is adopted.
    v2_again = v1.with_update(changed_at=0.0)
    user._adopt_sd(v2_again)
    assert user.sd is v2_again

    if system in PURGING_SYSTEMS:
        user._purge_and_rediscover(reason="test")
        assert (user.has_service, user.held_version) == (False, 0)
        assert user.service_id == v1.service_id
