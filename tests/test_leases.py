"""The lease table's rules, which every lessor's decisions rest on.

Every Registry and lessor (the FRODO Central and 2-party Manager, the Jini
Lookup Service, the UPnP root device) keeps its registrations and
subscriptions in a :class:`~repro.discovery.lease.LeaseTable`.  The rules
pinned here decide purges, PR1/PR3/PR4 and lookups, yet a wrong one can leave
every sweep result unchanged: a lease that is valid *at* its expiry time, or
a stale registration that does not renew its lease, never shows in the
Table 4 grid.
"""

import pytest

from repro.discovery.lease import LeaseTable, Subscription, find, store, subscribe, subscribers_for
from repro.discovery.service import ServiceQuery, default_service

LEASE = 1800.0


def test_a_lease_is_valid_until_and_not_at_its_expiry():
    table = LeaseTable(LEASE)
    table.grant("key", Subscription("user", "svc"), 100.0)
    expires_at = 100.0 + LEASE

    assert table.records(expires_at - 0.5) == [table.get("key")]
    assert table.records(expires_at) == []
    assert table.records() == [table.get("key")]

    assert table.purge_expired(expires_at - 0.5) == []
    assert table.get("key") is not None
    assert [r.expires_at for r in table.purge_expired(expires_at)] == [expires_at]
    assert table.get("key") is None


def test_renew_finds_an_expired_record_until_a_purge_removes_it():
    table = LeaseTable(LEASE)
    table.grant("key", Subscription("user", "svc"), 0.0)

    late = LEASE + 10.0  # expired, but no purge has run
    record = table.renew("key", late)
    assert record is table.get("key")
    assert record.expires_at == late + LEASE

    assert table.purge_expired(record.expires_at) == [record]
    assert table.renew("key", record.expires_at + 1.0) is None
    assert table.renew("never-granted", 0.0) is None


def test_store_adopts_at_least_as_new_and_renews_on_every_arrival():
    table = LeaseTable(LEASE)
    v1 = default_service("manager")
    v2 = v1.with_update(changed_at=5.0)
    query = ServiceQuery(device_type=v1.device_type)
    key = v1.service_id

    assert store(table, v1, 0.0) is True  # a new service
    assert store(table, v2, 10.0) is True  # a newer version
    assert table.get(key).sd is v2

    # An older version arriving later is not adopted, yet it renews the lease.
    assert store(table, v1, 20.0) is False
    assert table.get(key).sd is v2
    assert table.get(key).expires_at == 20.0 + LEASE

    # An equal version replaces the stored object.
    v2_again = v1.with_update(changed_at=5.0)
    assert store(table, v2_again, 30.0) is False
    assert table.get(key).sd is v2_again

    expires_at = 30.0 + LEASE
    assert find(table, query, expires_at - 0.5) == [v2_again]
    assert find(table, query, expires_at) == []
    assert find(table, query) == [v2_again]  # lease-expired entries included
    assert find(table, ServiceQuery(device_type="Scanner")) == []


def test_subscriptions_keep_the_highest_ack_and_their_grant_order():
    table = LeaseTable(10.0)
    subscribe(table, "user-a", "svc", 0.0, acked_version=3)
    subscribe(table, "user-b", "svc", 1.0)
    subscribe(table, "user-x", "other", 1.5)
    subscribe(table, "user-c", "svc", 2.0)

    # A renewal keeps the higher acknowledged version and the record's place.
    subscribe(table, "user-a", "svc", 2.0, acked_version=1)
    assert table.get(("user-a", "svc")).acked_version == 3
    subscribe(table, "user-a", "svc", 2.0, acked_version=5)
    assert table.get(("user-a", "svc")).acked_version == 5

    def subscribers(now):
        return [sub.subscriber for sub in subscribers_for(table, "svc", now)]

    assert subscribers(2.0) == ["user-a", "user-b", "user-c"]
    # user-b's lease (granted at 1.0) has expired at 11.0; the others hold.
    assert subscribers(11.0) == ["user-a", "user-c"]

    # Purged in grant order, not in expiry order (user-b expired first).
    purged = table.purge_expired(12.0)
    assert [sub.subscriber for sub in purged] == ["user-a", "user-b", "user-x", "user-c"]
    assert table.records() == []


def test_a_lease_must_be_positive():
    with pytest.raises(ValueError):
        LeaseTable(0.0)
