"""Memory layout guard for the per-subscriber client objects.

Clients are slotted (DESIGN.md §6f): state that ``__init__`` sets without
declaring it in ``DynamothClient.__slots__`` silently lands in a
per-instance dict again.  Instance-level overrides must keep working --
benchmark ledgers wrap ``publish`` / ``subscribe`` / ``unsubscribe`` on
client instances.
"""

from repro.core.client import DynamothClient, _PlanEntry, _Subscription
from repro.core.plan import ChannelMapping, ReplicationMode
from tests.helpers import make_static_cluster


def test_created_client_keeps_all_state_in_slots():
    cluster = make_static_cluster(initial_servers=1)
    client = cluster.create_client("c0")
    assert vars(client) == {}


def test_plan_entry_and_subscription_are_slotted():
    mapping = ChannelMapping(ReplicationMode.SINGLE, ("s0",), 1)
    assert not hasattr(_PlanEntry(mapping, 0.0), "__dict__")
    assert not hasattr(_Subscription(lambda *args: None), "__dict__")


def test_instance_override_of_publish_takes_effect():
    cluster = make_static_cluster(initial_servers=1)
    client = cluster.create_client("c0")
    calls = []
    publish = client.publish

    def wrapped(channel, body, payload_size):
        calls.append(channel)
        return publish(channel, body, payload_size)

    client.publish = wrapped
    msg_id = client.publish("ch", "x", 10)
    assert calls == ["ch"]
    assert msg_id
    assert client.published == 1
    # The override lives on the instance only.
    assert "publish" in vars(client)
    assert DynamothClient.publish is not wrapped
