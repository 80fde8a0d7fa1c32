"""What a message in flight finds when it arrives.

A send resolves its destination once; the destination can then shut
down, leave the network, or be replaced by a new actor under the same id
before the message lands.  Every send path -- ``send``, ``send_many``,
multi- and one-destination ``send_fanout`` -- must treat the three cases
the same way: a shut-down or departed destination drops the message and
counts it, a replacement registered under the same id receives it.
"""

from random import Random

import pytest

from repro.net.latency import FixedLatency
from repro.net.transport import Transport
from repro.sim.actor import Actor
from repro.sim.kernel import Simulator


class _Recorder(Actor):
    def __init__(self, sim, node_id, log):
        super().__init__(sim, node_id, is_infra=True)
        self.log = log

    def receive(self, message, src_id):
        self.log.append((self, message, src_id))


def _send(net, mode, dst_ids):
    if mode == "send":
        for dst_id in dst_ids:
            net.send("src", dst_id, "m", 10)
    elif mode == "many":
        net.send_many("src", dst_ids, "m", 10)
    else:
        net.send_fanout("src", dst_ids, net.fanout_states("src", dst_ids), "m", 10)


MODES = ["send", "many", "fanout"]
#: one destination exercises send_fanout's single-destination path
WIDTHS = [1, 3]


def _setup(width):
    sim = Simulator()
    net = Transport(sim, Random(3), lan_model=FixedLatency(0.01))
    log = []
    net.register(_Recorder(sim, "src", log))
    dst_ids = [f"d{i}" for i in range(width)]
    for dst_id in dst_ids:
        net.register(_Recorder(sim, dst_id, log))
    return sim, net, log, dst_ids


@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("mode", MODES)
class TestArrival:
    def test_shut_down_before_arrival_drops(self, mode, width):
        sim, net, log, dst_ids = _setup(width)
        _send(net, mode, dst_ids)
        net.actor("d0").shutdown()
        sim.run_until(1.0)
        assert [actor.node_id for actor, _, _ in log] == dst_ids[1:]
        assert net.messages_dropped == 1
        assert net.messages_sent == width

    def test_unregistered_before_arrival_drops(self, mode, width):
        sim, net, log, dst_ids = _setup(width)
        _send(net, mode, dst_ids)
        net.unregister("d0")
        sim.run_until(1.0)
        assert [actor.node_id for actor, _, _ in log] == dst_ids[1:]
        assert net.messages_dropped == 1

    def test_replacement_under_same_id_receives(self, mode, width):
        sim, net, log, dst_ids = _setup(width)
        _send(net, mode, dst_ids)
        old = net.actor("d0")
        net.unregister("d0")
        new = _Recorder(sim, "d0", log)
        net.register(new)
        sim.run_until(1.0)
        receivers = [actor for actor, _, _ in log]
        assert new in receivers
        assert old not in receivers
        assert [actor.node_id for actor in receivers] == dst_ids
        assert log[0][1:] == ("m", "src")
        assert net.messages_dropped == 0

    def test_replacement_shut_down_drops(self, mode, width):
        sim, net, log, dst_ids = _setup(width)
        _send(net, mode, dst_ids)
        net.unregister("d0")
        new = _Recorder(sim, "d0", log)
        net.register(new)
        new.shutdown()
        sim.run_until(1.0)
        assert [actor.node_id for actor, _, _ in log] == dst_ids[1:]
        assert net.messages_dropped == 1
