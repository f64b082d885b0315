"""Tests for repro.network.transport."""

import random

import pytest

from repro.network.transport import (
    BACKBONE_LINK,
    LOCAL_LINK,
    WIRELESS_SENSOR_LINK,
    LatencyModel,
    Message,
)


class TestLatencyModel:
    def test_base_latency_only(self):
        model = LatencyModel(base_latency=0.1)
        assert model.sample_delay(random.Random(1)) == 0.1

    def test_jitter_bounds(self):
        model = LatencyModel(base_latency=0.1, jitter=0.05)
        rng = random.Random(2)
        for _ in range(100):
            delay = model.sample_delay(rng)
            assert 0.1 <= delay <= 0.15

    def test_loss_rate(self):
        model = LatencyModel(base_latency=0.01, loss_rate=0.5)
        rng = random.Random(3)
        results = [model.sample_delay(rng) for _ in range(1000)]
        dropped = sum(1 for r in results if r is None)
        assert 400 < dropped < 600

    def test_zero_loss_never_drops(self):
        model = LatencyModel(loss_rate=0.0)
        rng = random.Random(4)
        assert all(model.sample_delay(rng) is not None for _ in range(100))

    def test_bandwidth_adds_transmission_delay(self):
        model = LatencyModel(base_latency=0.0,
                             bandwidth_bytes_per_second=1000.0)
        assert model.sample_delay(random.Random(1), size_bytes=500) == 0.5

    def test_zero_size_ignores_bandwidth(self):
        model = LatencyModel(base_latency=0.1,
                             bandwidth_bytes_per_second=1000.0)
        assert model.sample_delay(random.Random(1), size_bytes=0) == 0.1

    @pytest.mark.parametrize("kwargs", [
        {"base_latency": -0.1},
        {"jitter": -0.1},
        {"loss_rate": -0.1},
        {"loss_rate": 1.0},
        {"bandwidth_bytes_per_second": -1.0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            LatencyModel(**kwargs)

    def test_builtin_links_ordered_by_speed(self):
        assert BACKBONE_LINK.base_latency < WIRELESS_SENSOR_LINK.base_latency
        assert LOCAL_LINK.base_latency == 0.0


class TestMessage:
    def test_bare_messages_carry_no_id(self):
        # Message ids are allocated by transports, not by the
        # dataclass: a bare Message is id 0 and never consults any
        # process-global state.
        a = Message("s", "r", "k", None, 0.0)
        b = Message("s", "r", "k", None, 0.0)
        assert a.message_id == 0
        assert b.message_id == 0

    def test_ids_scoped_per_network(self):
        # Regression for the old module-global counter: two Networks
        # in one process must each hand out an independent 1, 2, 3, …
        # sequence, so sim runs are reproducible regardless of what
        # other transports the process has already constructed.
        from repro.network.network import Network, NetworkNode
        from repro.network.simulator import EventScheduler

        class Sink(NetworkNode):
            def __init__(self, address):
                super().__init__(address)
                self.ids = []

            def handle_message(self, message):
                self.ids.append(message.message_id)

        def run_network():
            scheduler = EventScheduler()
            network = Network(scheduler, rng=random.Random(0))
            sink = Sink("b")
            network.attach(Sink("a"))
            network.attach(sink)
            for _ in range(3):
                network.send("a", "b", "ping", None)
            scheduler.run()
            return sink.ids

        assert run_network() == [1, 2, 3]
        # A second, entirely separate Network restarts from 1.
        assert run_network() == [1, 2, 3]

    def test_repr(self):
        message = Message("alice", "bob", "ping", None, 1.5)
        assert "ping" in repr(message)
        assert "alice" in repr(message)
