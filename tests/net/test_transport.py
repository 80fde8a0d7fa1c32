"""Unit tests for the actor transport."""

from random import Random
import pytest

from repro.faults.netfaults import NetworkFaultPlane
from repro.net.latency import FixedLatency
from repro.net.transport import Transport
from repro.sim.actor import Actor


class Recorder(Actor):
    """Test actor that records everything it receives."""

    def __init__(self, sim, node_id, *, is_infra=True):
        super().__init__(sim, node_id, is_infra=is_infra)
        self.received = []

    def receive(self, message, src_id):
        self.received.append((self.sim.now, message, src_id))


@pytest.fixture
def net(sim, rng: Random):
    return Transport(sim, rng, lan_model=FixedLatency(0.001), wan_model=FixedLatency(0.050))


class TestRegistration:
    def test_register_and_lookup(self, sim, net):
        actor = Recorder(sim, "a")
        port = net.register(actor)
        assert net.actor("a") is actor
        assert net.port("a") is port
        assert actor.transport is net

    def test_duplicate_id_rejected(self, sim, net):
        net.register(Recorder(sim, "a"))
        with pytest.raises(ValueError):
            net.register(Recorder(sim, "a"))

    def test_unregister(self, sim, net):
        actor = Recorder(sim, "a")
        net.register(actor)
        net.unregister("a")
        assert net.actor("a") is None
        assert actor.transport is None


class TestDelivery:
    def test_infra_to_infra_uses_lan(self, sim, net):
        a, b = Recorder(sim, "a"), Recorder(sim, "b")
        net.register(a)
        net.register(b)
        a.send("b", "ping", 10)
        sim.run_until(1.0)
        assert b.received == [(0.001, "ping", "a")]

    def test_client_to_infra_uses_wan(self, sim, net):
        client = Recorder(sim, "c", is_infra=False)
        server = Recorder(sim, "s")
        net.register(client)
        net.register(server)
        client.send("s", "hello", 10)
        sim.run_until(1.0)
        assert server.received[0][0] == pytest.approx(0.050)

    def test_infra_to_client_uses_wan(self, sim, net):
        client = Recorder(sim, "c", is_infra=False)
        server = Recorder(sim, "s")
        net.register(client)
        net.register(server)
        server.send("c", "notify", 10)
        sim.run_until(1.0)
        assert client.received[0][0] == pytest.approx(0.050)

    def test_transmission_delay_added_for_limited_port(self, sim, net):
        a, b = Recorder(sim, "a"), Recorder(sim, "b")
        net.register(a, egress_capacity_bps=1000.0)
        net.register(b)
        a.send("b", "big", 500)  # 0.5 s transmission
        sim.run_until(1.0)
        assert b.received[0][0] == pytest.approx(0.501)

    def test_min_completion_floor(self, sim, net):
        a, b = Recorder(sim, "a"), Recorder(sim, "b")
        net.register(a)
        net.register(b)
        completion, delivery = net.send("a", "b", "m", 10, min_completion=2.0)
        assert completion == pytest.approx(2.0)
        sim.run_until(5.0)
        assert b.received[0][0] == pytest.approx(2.001)

    def test_messages_to_unknown_destination_dropped(self, sim, net):
        a = Recorder(sim, "a")
        net.register(a)
        a.send("ghost", "m", 10)
        sim.run_until(1.0)
        assert net.messages_dropped == 1

    def test_messages_to_dead_actor_dropped_on_arrival(self, sim, net):
        a, b = Recorder(sim, "a"), Recorder(sim, "b")
        net.register(a)
        net.register(b)
        a.send("b", "m", 10)
        b.shutdown()  # dies while the message is in flight
        sim.run_until(1.0)
        assert b.received == []
        assert net.messages_dropped == 1

    def test_unknown_sender_raises(self, sim, net):
        net.register(Recorder(sim, "b"))
        with pytest.raises(KeyError):
            net.send("nobody", "b", "m", 10)

    def test_in_order_delivery_same_route(self, sim, net):
        """FIFO port + fixed latency => messages arrive in send order."""
        a, b = Recorder(sim, "a"), Recorder(sim, "b")
        net.register(a, egress_capacity_bps=10_000.0)
        net.register(b)
        for i in range(10):
            a.send("b", i, 100)
        sim.run_until(1.0)
        assert [m for __, m, __ in b.received] == list(range(10))

    def test_send_without_transport_raises(self, sim):
        lone = Recorder(sim, "x")
        with pytest.raises(RuntimeError):
            lone.send("y", "m", 1)


class TestDropReasons:
    def _trio(self, sim, net):
        actors = [Recorder(sim, node_id) for node_id in ("a", "b", "c")]
        for actor in actors:
            net.register(actor)
        plane = NetworkFaultPlane(Random(7))
        plane.partition("a", "b")
        net.fault_plane = plane
        return actors

    @pytest.mark.parametrize("mode", ["send", "many", "fanout", "fanout1"])
    def test_fault_plane_and_dead_destination_counted_apart(self, sim, net, mode):
        a, b, c = self._trio(sim, net)
        c.shutdown()
        if mode == "send":
            net.send("a", "b", "m", 10)
            net.send("a", "c", "m", 10)
        elif mode == "many":
            net.send_many("a", ["b", "c"], "m", 10)
        elif mode == "fanout":
            net.send_fanout("a", ["b", "c"], net.fanout_states("a", ["b", "c"]), "m", 10)
        else:
            for dst in ("b", "c"):
                net.send_fanout("a", [dst], net.fanout_states("a", [dst]), "m", 10)
        sim.run_until(1.0)
        assert net.dropped_fault_plane == 1
        assert net.dropped_dead == 1
        assert net.messages_dropped == 2

    def test_death_in_flight_counts_as_dead(self, sim, net):
        a, b, c = self._trio(sim, net)
        net.send("a", "c", "m", 10)
        c.shutdown()
        sim.run_until(1.0)
        assert (net.dropped_dead, net.dropped_fault_plane) == (1, 0)

    def test_messages_dropped_is_read_only(self, net):
        with pytest.raises(AttributeError):
            net.messages_dropped = 0
