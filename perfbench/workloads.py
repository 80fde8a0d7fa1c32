"""The benchmark's three workloads, built only from the public ``repro`` API.

Every workload is open-loop in simulated time: publishers are fixed-rate
:class:`~repro.sim.timers.PeriodicTask` ticks (RGame players tick the same
way) that never look at broker backlog, so simulated latency includes
queueing, and a discrete-event generator is never late -- its lateness is
zero by construction.  Wall-clock time is a batch job: each workload has a
fixed simulated size and the harness reports work done per second
(wall seconds converted to reference-host seconds, see :mod:`perfbench.bench`).

A workload's inputs come from the seed alone: the cluster's RNG streams
(WAN samples, jitter, balancer choices) and the benchmark's own input RNG
(payload sizes, publisher phases).  ``tiny`` sizes exist for the
benchmark's own tests.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from random import Random
from typing import Any, Callable, Dict, List, Optional

from repro.broker import BrokerConfig
from repro.core.cluster import BALANCER_DYNAMOTH, BALANCER_NONE, DynamothCluster
from repro.core.config import DynamothConfig
from repro.faults import ChaosSchedule, CrashServer, DegradeLink, FaultInjector, RestartServer
from repro.net.latency import UniformLatency
from repro.sim.timers import PeriodicTask
from repro.workload.rgame import RGameConfig, RGameWorkload
from repro.workload.schedules import steps

from perfbench.ledger import CallbackHook, Ledger


@dataclass
class Scenario:
    """A built workload: cluster, ledger and its simulated timeline.

    ``window_start``/``window_end`` bound the publications the ledger
    tracks; the measured wall window also covers ``drain_s`` afterwards so
    in-flight deliveries land.
    """

    cluster: DynamothCluster
    ledger: Ledger
    window_start: float
    window_end: float
    drain_s: float
    delivery_tier: str
    #: publisher ticks started at ``window_start`` and stopped at its end
    tasks: List[PeriodicTask] = field(default_factory=list)

    def run_window(self) -> None:
        """Publish through the window, then drain in-flight deliveries."""
        for task in self.tasks:
            task.start(start_delay=0.0)
        self.cluster.run_until(self.window_end)
        for task in self.tasks:
            task.stop()
        self.cluster.run_until(self.window_end + self.drain_s)


#: build(seed, tiny, callback_hook) -> Scenario
Build = Callable[[int, bool, Optional[CallbackHook]], Scenario]


def _publish_tick(
    publisher: Any, channel: str, sizes: List[int]
) -> Callable[[float], None]:
    """Fixed-rate publisher cycling through seed-drawn payload sizes."""
    numbers = itertools.count()

    def tick(now: float) -> None:
        n = next(numbers)
        publisher.publish(channel, n, sizes[n % len(sizes)])

    return tick


def build_fanout_hot(
    seed: int, tiny: bool, hook: Optional[CallbackHook] = None
) -> Scenario:
    """One channel, ~10^4 subscribers, one publisher, one broker.

    The WAN leg is a narrow uniform band instead of the King model: the
    transport samples one propagation delay per fan-out batch, so with
    King's heavy tail the p99.9 of 60 publications would be decided by a
    single draw.  Here the tail is broker queueing (CPU plus the position
    in the NIC batch), which is what this workload exists to measure.
    """
    subscribers = 300 if tiny else 10_000
    window_start, window_end = 1.0, (2.0 if tiny else 7.0)
    broker = BrokerConfig(
        nominal_egress_bps=200_000_000.0,
        cpu_per_publish_s=5e-6,
        cpu_per_delivery_s=1e-6,
        per_connection_bps=None,
        output_buffer_limit_bytes=1 << 30,
    )
    cluster = DynamothCluster(
        seed=seed,
        config=DynamothConfig(max_servers=1, min_servers=1),
        broker_config=broker,
        initial_servers=1,
        balancer=BALANCER_NONE,
        wan_model=UniformLatency(0.025, 0.040),
        gc_managed=True,
    )
    ledger = Ledger(
        cluster.sim, window_start, window_end, settle_s=0.5, callback_hook=hook
    )
    for i in range(subscribers):
        ledger.attach(cluster.create_client(f"sub{i}")).subscribe("hot", None)
    publisher = ledger.attach(cluster.create_client("pub"))
    inputs = Random(seed)
    sizes = [inputs.randint(150, 250) for __ in range(64)]
    task = PeriodicTask(cluster.sim, 0.1, _publish_tick(publisher, "hot", sizes))
    return Scenario(
        cluster, ledger, window_start, window_end, 0.5, "at_most_once", [task]
    )


def build_rgame_ramp(
    seed: int, tiny: bool, hook: Optional[CallbackHook] = None
) -> Scenario:
    """The paper's RGame, ramping from under one server's capacity to past it.

    150 players roam an 8x8 tile grid (3 updates/s each); over 30 s the
    population doubles, which pushes the single bootstrap server's load
    ratio past ``lr_high``, so the Dynamoth balancer rents a second server
    and migrates tiles; a 30 s plateau follows.  NIC headroom is 1.5x the
    advertised capacity so the balancer's reaction time (load window,
    spawn delay, T_wait) never tips the system into saturation: latency
    stays WAN-dominated, near the paper's 150 ms limit.
    """
    start_pop, end_pop = (12, 24) if tiny else (150, 300)
    tiles = 3 if tiny else 8
    window_start = 5.0
    ramp_s, hold_s = (10.0, 10.0) if tiny else (30.0, 30.0)
    window_end = window_start + ramp_s + hold_s
    broker = BrokerConfig(
        nominal_egress_bps=50_000.0 if tiny else 1_200_000.0,
        egress_headroom=1.5,
        cpu_per_publish_s=10e-6,
        cpu_per_delivery_s=5e-6,
        per_connection_bps=None,
        output_buffer_limit_bytes=8 * 1_048_576,
    )
    cluster = DynamothCluster(
        seed=seed,
        config=DynamothConfig(max_servers=4, min_servers=1),
        broker_config=broker,
        initial_servers=1,
        balancer=BALANCER_DYNAMOTH,
        gc_managed=True,
    )
    ledger = Ledger(
        cluster.sim, window_start, window_end, settle_s=1.0, callback_hook=hook
    )
    create_client = cluster.create_client
    # RGame creates its players through the cluster; route each through
    # the ledger on the way out (instance attribute: this cluster only).
    cluster.create_client = lambda client_id: ledger.attach(create_client(client_id))
    game = RGameWorkload(cluster, RGameConfig(tiles_per_side=tiles, updates_per_s=3.0))
    game.follow(
        steps(
            [
                (0.0, start_pop),
                (window_start, start_pop),
                (window_start + ramp_s, end_pop),
                (window_end, end_pop),
            ]
        )
    )
    return Scenario(cluster, ledger, window_start, window_end, 2.0, "at_most_once")


def build_failover_reliable(
    seed: int, tiny: bool, hook: Optional[CallbackHook] = None
) -> Scenario:
    """Steady multi-channel load under exactly_once, with a crash and loss.

    32 channels x 24 subscribers on three brokers; one broker crashes
    15 s into the window and restarts 15 s later, and afterwards the
    subscriber links of the first four channels drop 30% of messages for
    8 s.  Clients ping their servers (1 s) so they can fail over.
    """
    channels, per_channel = (4, 5) if tiny else (32, 24)
    window_start = 2.0
    crash_at, restart_at = window_start + 15.0, window_start + 30.0
    lossy_from, lossy_until = window_start + 40.0, window_start + 48.0
    window_end = window_start + 60.0
    cluster = DynamothCluster(
        seed=seed,
        config=DynamothConfig(
            max_servers=3,
            delivery_tier="exactly_once",
            client_ping_interval_s=1.0,
        ),
        broker_config=BrokerConfig(per_connection_bps=None),
        initial_servers=3,
        balancer=BALANCER_DYNAMOTH,
        gc_managed=True,
    )
    ledger = Ledger(
        cluster.sim, window_start, window_end, settle_s=1.0, callback_hook=hook
    )
    inputs = Random(seed)
    lossy_subscribers: List[str] = []
    tasks: List[PeriodicTask] = []
    for c in range(channels):
        channel = f"room:{c}"
        for s in range(per_channel):
            client = ledger.attach(cluster.create_client(f"sub-{c}-{s}"))
            client.subscribe(channel, None)
            if c < 4:
                lossy_subscribers.append(client.node_id)
        publisher = ledger.attach(cluster.create_client(f"pub-{c}"))
        sizes = [inputs.randint(100, 300) for __ in range(16)]
        task = PeriodicTask(
            cluster.sim,
            0.2,
            _publish_tick(publisher, channel, sizes),
            jitter=0.02,
            rng=Random(inputs.getrandbits(32)),
        )
        tasks.append(task)
    servers = sorted(cluster.servers)
    faults = [CrashServer(crash_at, servers[1]), RestartServer(restart_at, servers[1])]
    faults.extend(
        DegradeLink(lossy_from, node, server, loss=0.3, until=lossy_until)
        for node in lossy_subscribers
        for server in servers
    )
    FaultInjector(cluster, ChaosSchedule(tuple(faults))).arm()
    return Scenario(
        cluster, ledger, window_start, window_end, 5.0, "exactly_once", tasks
    )


#: name -> build function; why each workload exists is recorded in BENCHMARK.json
WORKLOADS: Dict[str, Build] = {
    "fanout_hot": build_fanout_hot,
    "rgame_ramp": build_rgame_ramp,
    "failover_reliable": build_failover_reliable,
}
