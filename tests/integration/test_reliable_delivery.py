"""Reliable-delivery tier, end to end: reconnect replay, lossy-link
repair, truthful eviction, zero-budget degradation, and the dedup-window
regression.

These tests drive the full broker/client stack (real transport, real
reconnect path) rather than the unit-level state machines covered by
tests/core/test_reliability.py.  The canonical loss shape: a server
closes the subscriber's connection, publications land while the client
is away, and the resume point on re-SUBSCRIBE turns the outage into a
gap replay.
"""

from __future__ import annotations

from random import Random

import pytest

from repro.broker.config import BrokerConfig
from repro.core.client import DynamothClient
from repro.core.cluster import BALANCER_NONE, DynamothCluster
from repro.core.config import DynamothConfig
from repro.core.hashing import ConsistentHashRing
from repro.faults.injector import FaultInjector
from repro.faults.schedule import ChaosSchedule, DegradeLink
from repro.obs.export import event_to_json
from repro.obs.trace import ReplayEvent, ReplayGapEvent, Tracer
from repro.sim.kernel import Simulator
from repro.sim.timers import PeriodicTask


def _cluster(config: DynamothConfig, *, tracer=None, seed: int = 0) -> DynamothCluster:
    return DynamothCluster(
        seed=seed,
        config=config,
        initial_servers=3,
        balancer=BALANCER_NONE,
        tracer=tracer,
    )


def _outage_run(config: DynamothConfig, *, away: int = 2, tracer=None):
    """Publish 3 messages, kill the connection, publish ``away`` more
    while the subscriber is gone, then let it reconnect and settle.

    Returns (cluster, subscriber client, received bodies, home server).
    """
    cluster = _cluster(config, tracer=tracer)
    got = []
    sub = cluster.create_client("sub")
    sub.subscribe("arena", lambda ch, body, env: got.append(body))
    pub = cluster.create_client("pub")
    cluster.run_for(1.0)
    for i in range(3):
        pub.publish("arena", f"live{i}", 60)
    cluster.run_for(1.0)

    home = cluster.plan.ring.lookup("arena")
    server = cluster.servers[home]
    server.close_all_connections()
    cluster.run_for(0.05)
    for i in range(away):
        pub.publish("arena", f"away{i}", 60)
    cluster.run_for(6.0)  # reconnect + resume replay + cooldown retries
    return cluster, sub, got, server


class TestReconnectReplay:
    def test_resume_point_replays_the_outage_window(self):
        tracer = Tracer()
        config = DynamothConfig(delivery_tier="at_least_once")
        cluster, sub, got, server = _outage_run(config, tracer=tracer)
        # Every publication arrived at least once, outage included.
        assert set(got) == {"live0", "live1", "live2", "away0", "away1"}
        assert server.reliability is not None
        assert server.reliability.replayed_messages >= 2
        replays = [e for e in tracer.events if isinstance(e, ReplayEvent)]
        assert replays, "no replay event traced"
        assert replays[0].client == "sub"
        # Nothing was evicted, so no gap notice was warranted.
        assert not any(isinstance(e, ReplayGapEvent) for e in tracer.events)

    def test_exactly_once_delivers_the_outage_window_without_duplicates(self):
        config = DynamothConfig(delivery_tier="exactly_once")
        cluster, sub, got, server = _outage_run(config)
        assert sorted(got) == ["away0", "away1", "live0", "live1", "live2"]


def _lossy_window_run(tier: str, *, channels: int = 8, subs: int = 5):
    """A steady multi-channel workload whose first two channels' subscriber
    links to every broker drop 40% of messages for the middle third of a
    10 s publishing window -- the canonical gap-producing fault, identical
    across tiers (same seed, same fault plane).

    Returns (app deliveries, replayed messages summed over the brokers).
    """
    duration = 10.0
    cluster = DynamothCluster(
        seed=0,
        config=DynamothConfig(max_servers=2, delivery_tier=tier),
        broker_config=BrokerConfig(nominal_egress_bps=8_000_000.0),
        initial_servers=2,
        balancer=BALANCER_NONE,
    )
    delivered = [0]

    def on_delivery(channel, body, envelope) -> None:
        delivered[0] += 1

    subscribers = []
    tasks = []
    for c in range(channels):
        channel = f"tile:{c}"
        for s in range(subs):
            client = cluster.create_client(f"sub-{c}-{s}")
            client.subscribe(channel, on_delivery)
            subscribers.append(client)
        publisher = cluster.create_client(f"pub-{c}")

        def tick(now: float, publisher=publisher, channel=channel) -> None:
            publisher.publish(channel, ("tick", publisher.published), 200)

        tasks.append(PeriodicTask(cluster.sim, 0.5, tick))
    lossy_from = 1.0 + duration / 3.0
    lossy_until = 1.0 + 2.0 * duration / 3.0
    faults = tuple(
        DegradeLink(lossy_from, sub.node_id, server_id, loss=0.4, until=lossy_until)
        for sub in subscribers[: 2 * subs]
        for server_id in sorted(cluster.servers)
    )
    FaultInjector(cluster, ChaosSchedule(faults)).arm()
    cluster.run_until(1.0)
    for task in tasks:
        task.start()
    cluster.run_until(1.0 + duration)
    for task in tasks:
        task.stop()
    cluster.run_for(2.0)  # let replay requests drain
    replayed = sum(
        server.reliability.replayed_messages
        for server in cluster.servers.values()
        if server.reliability is not None
    )
    return delivered[0], replayed


class TestLossyLinkWindow:
    @pytest.fixture(scope="class")
    def runs(self):
        return {
            tier: _lossy_window_run(tier)
            for tier in ("at_most_once", "at_least_once", "exactly_once")
        }

    def test_every_tier_delivers(self, runs):
        for delivered, _ in runs.values():
            assert delivered > 0

    def test_reliable_tiers_repair_the_lossy_window(self, runs):
        lossy, replayed = runs["at_most_once"]
        assert replayed == 0
        # The window really drops messages when nothing repairs it.
        assert lossy < runs["exactly_once"][0]
        for tier in ("at_least_once", "exactly_once"):
            delivered, replayed = runs[tier]
            assert delivered >= lossy
            assert replayed > 0


class TestEvictionTruthfulness:
    def test_replay_after_eviction_reports_the_gap(self):
        """An evicted prefix yields a truthful gap notice, not silence:
        the client is told which seqs are gone and stops chasing them."""
        tracer = Tracer()
        config = DynamothConfig(
            delivery_tier="at_least_once", replay_cache_max_msgs=2
        )
        cluster, sub, got, server = _outage_run(config, away=6, tracer=tracer)
        # Only the newest two outage messages survived the cache.
        assert set(got) == {"live0", "live1", "live2", "away4", "away5"}
        gaps = [e for e in tracer.events if isinstance(e, ReplayGapEvent)]
        assert gaps, "eviction produced no gap event"
        assert server.reliability.unrecoverable_gaps >= 1
        # The client wrote the evicted seqs off instead of retrying forever.
        assert sub._rel is not None
        assert sub._rel.unrecoverable >= 4
        stream = sub._rel.stream(server.node_id, "arena")
        assert not stream.missing

    def test_zero_budget_cache_degrades_to_plain_at_most_once(self):
        """cache budget 0 => no stamping, no replay: the run's trace is
        byte-identical to an at_most_once run of the same seed."""

        def run(config: DynamothConfig) -> bytes:
            tracer = Tracer()
            cluster, sub, got, server = _outage_run(config, tracer=tracer)
            body = "\n".join(event_to_json(e) for e in tracer.events)
            return body.encode("utf-8")

        reliable_zero = run(
            DynamothConfig(delivery_tier="exactly_once", replay_cache_max_msgs=0)
        )
        plain = run(DynamothConfig(delivery_tier="at_most_once"))
        assert reliable_zero == plain


class TestKillSwitchSilence:
    def test_disabled_replay_is_fully_silent(self):
        """The test-only kill switch: brokers stamp but never answer a
        replay or resume request -- no entries, no gap notice, nothing.
        (This is the seeded loss the gap-free oracle must detect.)"""
        tracer = Tracer()
        config = DynamothConfig(
            delivery_tier="at_least_once", reliable_replay_enabled=False
        )
        cluster, sub, got, server = _outage_run(config, tracer=tracer)
        # A post-reconnect publication makes the seq hole visible to the
        # client (the outage messages alone just never arrive).
        late = cluster.create_client("late-pub")
        late.publish("arena", "post", 60)
        cluster.run_for(3.0)
        # The outage window is simply lost.
        assert set(got) == {"live0", "live1", "live2", "post"}
        assert server.reliability.replayed_messages == 0
        assert not any(
            isinstance(e, (ReplayEvent, ReplayGapEvent)) for e in tracer.events
        )
        # The client noticed the hole and asked; the ask went unanswered.
        assert sub._rel is not None and sub._rel.gap_requests >= 1


class TestDedupWindowRegression:
    def test_replay_refreshes_the_dedup_window(self):
        """Regression: under active replay the same msg id keeps arriving;
        a plain FIFO window expires the id *between* two replays and the
        second replay double-counts.  The count-aware LRU refreshes the
        id's recency on every duplicate hit instead."""
        sim = Simulator()
        client = DynamothClient(
            sim, "c", ConsistentHashRing(["s1"]), Random(0), dedup_window=2
        )
        assert not client._is_duplicate("m1")
        assert not client._is_duplicate("x1")
        # First replay of m1: a duplicate, and its recency is refreshed.
        assert client._is_duplicate("m1")
        assert not client._is_duplicate("x2")
        # Second replay: still recognized.  The old FIFO window held
        # [x1, x2] at this point and would have let m1 through again.
        assert client._is_duplicate("m1")

    def test_expiry_still_works_once_replays_stop(self):
        sim = Simulator()
        client = DynamothClient(
            sim, "c", ConsistentHashRing(["s1"]), Random(0), dedup_window=2
        )
        assert not client._is_duplicate("m1")
        for i in range(4):
            assert not client._is_duplicate(f"x{i}")
        # m1's last occurrence left the window long ago.
        assert not client._is_duplicate("m1")
