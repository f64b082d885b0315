"""Tests for repro.network.gossip."""

import pytest
from hypothesis import given, strategies as st

from repro.network.gossip import GossipRelay, SolidificationBuffer


class TestGossipRelay:
    def test_mark_seen_first_time(self):
        relay = GossipRelay()
        assert relay.mark_seen(b"item-1")
        assert relay.has_seen(b"item-1")

    def test_mark_seen_repeat_is_not_new(self):
        relay = GossipRelay()
        relay.mark_seen(b"item-1")
        assert not relay.mark_seen(b"item-1")
        assert relay.has_seen(b"item-1")
        assert not relay.has_seen(b"item-2")

    def test_relay_targets_exclude_source(self):
        relay = GossipRelay(peers=["a", "b", "c"])
        assert relay.relay_targets(b"x", exclude="b") == ["a", "c"]

    def test_relay_targets_full_fanout(self):
        relay = GossipRelay(peers=["a", "b"])
        assert relay.relay_targets(b"x") == ["a", "b"]

    def test_peer_management(self):
        relay = GossipRelay()
        relay.add_peer("a")
        relay.add_peer("a")  # idempotent
        relay.add_peer("b")
        assert relay.peers == ["a", "b"]
        relay.remove_peer("a")
        relay.remove_peer("ghost")  # no-op
        assert relay.peers == ["b"]

    def test_has_peer(self):
        relay = GossipRelay(peers=["a", "b"])
        assert relay.has_peer("a")
        assert not relay.has_peer("ghost")
        relay.remove_peer("a")
        assert not relay.has_peer("a")


class TestSolidificationBuffer:
    def test_park_and_satisfy(self):
        buffer = SolidificationBuffer()
        buffer.park(b"child", "child-item", [b"parent"])
        assert b"child" in buffer
        released = buffer.satisfy(b"parent")
        assert released == [(b"child", "child-item")]
        assert b"child" not in buffer

    def test_multiple_dependencies(self):
        buffer = SolidificationBuffer()
        buffer.park(b"child", "item", [b"p1", b"p2"])
        assert buffer.satisfy(b"p1") == []
        assert buffer.satisfy(b"p2") == [(b"child", "item")]

    def test_satisfy_releases_all_waiters(self):
        buffer = SolidificationBuffer()
        buffer.park(b"a", "A", [b"p"])
        buffer.park(b"b", "B", [b"p"])
        released = dict(buffer.satisfy(b"p"))
        assert released == {b"a": "A", b"b": "B"}

    def test_satisfy_unknown_dependency_is_noop(self):
        buffer = SolidificationBuffer()
        assert buffer.satisfy(b"nothing") == []

    def test_park_requires_missing(self):
        buffer = SolidificationBuffer()
        with pytest.raises(ValueError):
            buffer.park(b"x", "item", [])

    def test_double_park_is_idempotent(self):
        buffer = SolidificationBuffer()
        buffer.park(b"x", "item", [b"p"])
        buffer.park(b"x", "item", [b"p"])
        assert len(buffer) == 1

    def test_capacity_evicts_oldest(self):
        buffer = SolidificationBuffer(capacity=2)
        buffer.park(b"a", "A", [b"p"])
        buffer.park(b"b", "B", [b"p"])
        buffer.park(b"c", "C", [b"p"])
        assert buffer.evictions == 1
        assert b"a" not in buffer
        released = dict(buffer.satisfy(b"p"))
        assert set(released) == {b"b", b"c"}

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            SolidificationBuffer(capacity=0)

    def test_eviction_order_survives_satisfy_and_repark(self):
        # Regression for the OrderedDict-backed queue: eviction must
        # still walk strict park order, with a satisfied-then-reparked
        # id treated as new (back of the queue), and an idempotent
        # double park keeping its original slot.
        buffer = SolidificationBuffer(capacity=3)
        buffer.park(b"a", "A", [b"p"])
        buffer.park(b"b", "B", [b"q"])
        buffer.park(b"c", "C", [b"p"])
        buffer.park(b"b", "B", [b"q"])  # idempotent: keeps slot 2
        assert buffer.satisfy(b"q") == [(b"b", "B")]
        buffer.park(b"b", "B", [b"q"])  # reparked: now newest
        buffer.park(b"d", "D", [b"p"])  # over capacity: evicts a
        assert buffer.evictions == 1
        assert b"a" not in buffer
        buffer.park(b"e", "E", [b"p"])  # evicts c (b was reparked later)
        assert buffer.evictions == 2
        assert b"c" not in buffer
        assert b"b" in buffer

    def test_eviction_order_matches_list_reference(self):
        # Byte-identical eviction order versus a naive list-backed
        # simulation of the pre-OrderedDict implementation.
        import random

        rng = random.Random(0xB107)
        buffer = SolidificationBuffer(capacity=8)
        reference_order = []  # the old _insertion_order list
        evicted = []
        original_evict = buffer._evict_oldest

        def traced_evict():
            next(iter(buffer._parked))  # peek before eviction
            oldest = reference_order.pop(0)
            evicted.append(oldest)
            original_evict()

        buffer._evict_oldest = traced_evict
        for step in range(300):
            item_id = bytes([rng.randrange(32)])
            action = rng.random()
            if action < 0.7:
                if item_id not in buffer and len(buffer) >= 8:
                    pass  # traced_evict pops the reference head
                already = item_id in buffer
                buffer.park(item_id, step, [bytes([rng.randrange(8)]) + b"p"])
                if not already:
                    reference_order.append(item_id)
            else:
                released = buffer.satisfy(bytes([rng.randrange(8)]) + b"p")
                for released_id, _ in released:
                    reference_order.remove(released_id)
            assert list(buffer._parked) == reference_order
        assert buffer.evictions == len(evicted)

    @given(st.lists(st.integers(min_value=0, max_value=9), min_size=1,
                    max_size=30, unique=True))
    def test_property_all_parked_eventually_released(self, ids):
        buffer = SolidificationBuffer()
        dependency = b"shared-parent"
        for i in ids:
            buffer.park(bytes([i]), i, [dependency])
        released = buffer.satisfy(dependency)
        assert sorted(item for _, item in released) == sorted(ids)
        assert len(buffer) == 0
