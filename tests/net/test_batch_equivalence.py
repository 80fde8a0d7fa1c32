"""Bulk send paths must be indistinguishable from one message at a time.

``EgressPort.transmit_many`` against sequential ``transmit`` calls, and
``Transport.send_fanout`` / ``send_many`` against sequential ``send``:
same completion and delivery times, same per-second byte buckets, same
RNG state afterwards and same drop counts -- including batches the
kernel splits into several runs (mixed LAN/WAN legs, FIFO clamps).
"""

from random import Random

import pytest

from repro.net.latency import FixedLatency, UniformLatency
from repro.net.link import EgressPort
from repro.net.transport import Transport
from repro.sim.actor import Actor
from repro.sim.kernel import Simulator


def _port_state(port):
    return (
        dict(port.buckets._buckets),
        port.busy_until,
        port.total_bytes,
        port.total_messages,
    )


class TestTransmitManyEquivalence:
    @pytest.mark.parametrize(
        "capacity, now, size, count",
        [
            (1_000.0, 0.0, 10, 1),
            (1_000.0, 0.95, 10, 1),
            (1_000.0, 0.95, 10, 350),  # spans four seconds
            (7_777.0, 12.3456, 333, 500),
            (1e9, 3.999999, 1, 1_000),  # completes right at a boundary
            (None, 2.5, 10, 1),
            (None, 2.5, 10, 40),
            (1_000.0, 0.5, 0, 5),  # zero-size: equal completions
            (0.5, 0.25, 1, 3),  # 2 s per message: skips whole seconds
        ],
    )
    def test_matches_sequential_transmit(self, capacity, now, size, count):
        bulk = EgressPort(capacity)
        single = EgressPort(capacity)
        # A prior backlog so the burst starts behind busy_until.
        bulk.transmit(0.0, 100)
        single.transmit(0.0, 100)
        completions = bulk.transmit_many(now, size, count)
        expected = [single.transmit(now, size) for _ in range(count)]
        assert completions == expected
        assert _port_state(bulk) == _port_state(single)

    def test_empty_burst_is_a_no_op(self):
        port = EgressPort(1_000.0)
        assert port.transmit_many(1.0, 10, 0) == []
        assert _port_state(port) == ({}, 0.0, 0, 0)


class _Stamper(Actor):
    def __init__(self, sim, node_id, log, *, is_infra):
        super().__init__(sim, node_id, is_infra=is_infra)
        self.log = log

    def receive(self, message, src_id):
        self.log.append((self.node_id, self.sim.now, message))


_IDS = [f"d{i}" for i in range(9)]


def _deliver(mode, *, jitter=False, capacity=8_000.0, dead=(), clamp=None):
    """Send one message to every destination in ``mode``; return the outcome."""
    sim = Simulator()
    if jitter:
        net = Transport(
            sim,
            Random(5),
            lan_model=UniformLatency(0.001, 0.01),
            wan_model=UniformLatency(0.02, 0.2),
        )
    else:
        net = Transport(
            sim, Random(5), lan_model=FixedLatency(0.001), wan_model=FixedLatency(0.05)
        )
    log = []
    net.register(_Stamper(sim, "src", log, is_infra=True), egress_capacity_bps=capacity)
    # Every third destination is infrastructure (LAN leg), the rest are
    # clients (WAN leg): the batch's delivery times go up and down.
    for index, node_id in enumerate(_IDS):
        net.register(_Stamper(sim, node_id, log, is_infra=index % 3 == 0))
    for node_id in dead:
        net.actor(node_id).shutdown()
    if clamp is not None:
        # An earlier message with a late completion floor: the batch's
        # delivery on this connection is clamped up to it.
        net.send("src", clamp, "first", 10, min_completion=0.5)
    if mode == "send":
        for node_id in _IDS:
            net.send("src", node_id, "x", 10)
    elif mode == "many":
        net.send_many("src", _IDS, "x", 10)
    else:
        net.send_fanout("src", _IDS, net.fanout_states("src", _IDS), "x", 10)
    pending = sim.pending_count
    sim.run_until(5.0)
    return {
        "log": log,
        "pending": pending,
        "rng": net._rng.getstate(),
        "sent": net.messages_sent,
        "dropped": net.messages_dropped,
        "port": _port_state(net.port("src")),
    }


class TestFanoutEquivalence:
    @pytest.mark.parametrize(
        "options",
        [
            {},
            {"capacity": None},  # equal completions: ties within each leg
            {"dead": ("d1", "d3", "d7")},
            {"clamp": "d4"},  # raises a time in the middle of the batch
            {"clamp": "d3", "dead": ("d5",)},
        ],
    )
    def test_bulk_paths_match_sequential_send(self, options):
        outcomes = [_deliver(mode, **options) for mode in ("send", "many", "fanout")]
        assert outcomes[0]["log"]
        assert outcomes[1] == outcomes[0]
        assert outcomes[2] == outcomes[0]

    def test_mixed_legs_interleave_delivery_times(self):
        outcome = _deliver("fanout")
        times = [time for _, time, _ in outcome["log"]]
        assert times == sorted(times)
        # LAN deliveries of later destinations overtake WAN deliveries of
        # earlier ones: the batch was not in time order.
        order = [node_id for node_id, _, _ in outcome["log"]]
        assert order != _IDS
        assert outcome["pending"] == len(_IDS)

    @pytest.mark.parametrize("clamp", [None, "d4"])
    def test_fanout_matches_send_many_under_jitter(self, clamp):
        # Random legs: both bulk paths draw one sample per leg, in the
        # same order, so RNG state and delivery times still agree.
        many = _deliver("many", jitter=True, clamp=clamp)
        fanout = _deliver("fanout", jitter=True, clamp=clamp)
        assert many == fanout
        assert many["rng"] != Random(5).getstate()

    def test_all_dead_batch_draws_nothing(self):
        dead = tuple(_IDS)
        outcomes = [
            _deliver(mode, jitter=True, dead=dead) for mode in ("send", "many", "fanout")
        ]
        for outcome in outcomes:
            assert outcome["log"] == []
            assert outcome["dropped"] == len(_IDS)
            assert outcome["rng"] == Random(5).getstate()
        assert outcomes[1] == outcomes[0]
        assert outcomes[2] == outcomes[0]
