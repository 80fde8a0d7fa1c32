"""One measured run of one workload (in-process), untraced or traced.

:func:`run_workload` builds the scenario, runs the warm-up, then times the
measured window: publishers run from ``window_start`` to ``window_end`` and
the drain lets their in-flight deliveries land.  Everything before the
window is set-up (cluster, clients, subscriptions, warm-up).

The result holds the end-to-end inputs (wall times, deliveries, host
speed, peak RSS, the ledger verdict, rented server-seconds) and, for a
traced run, the per-layer numbers.

An untraced run also gauges the host's speed during the window: every
:data:`GAUGE_EVERY_EVENTS` simulated events a fixed pure-Python reference
loop (:func:`reference_loop`) is timed from the simulator's sample hook.
On a shared cloud host the speed of a vCPU drifts by tens of percent over
tens of seconds; the reference loop drifts with it, so deliveries per
*reference* second stay steady where deliveries per wall second do not
(:mod:`perfbench.run` converts set-up time the same way).  The reference
loop's own time is taken out of the window's wall time.

Simulated outputs (``sim`` block) are deterministic per seed;
:mod:`perfbench.run` compares them across processes.
"""

from __future__ import annotations

import gc
import resource
import time
from array import array
from pathlib import Path
from random import Random
from typing import Any, Dict, List, Optional

from repro.sim.kernel import Simulator

from perfbench import tracing
from perfbench.ledger import CallbackHook, percentile
from perfbench.workloads import WORKLOADS

#: simulated events between two host-speed samples (~20 ms of wall time)
GAUGE_EVERY_EVENTS = 2000
#: seconds one :func:`reference_loop` call takes on the reference host, the
#: host on which ``host_speed`` reads 1.0
REFERENCE_LOOP_S = 300e-6

# 1 MiB of 8-byte slots read at 1500 scattered positions: random reads
# that miss the core's private caches, as the simulator's pointer-chasing
# does.  A compute-only loop (dict reads on a few KiB) tracked the host's
# drift about half as well.  Values are 41-bit so each read allocates an
# int, which the garbage collector does not track.
_REFERENCE_SLOTS = array("q", range(1 << 40, (1 << 40) + (1 << 17)))
_REFERENCE_INDEXES = tuple(Random(1).choices(range(1 << 17), k=1500))


def reference_loop() -> int:
    """Fixed interpreter work the system under test never touches."""
    acc = 0
    slots = _REFERENCE_SLOTS
    for index in _REFERENCE_INDEXES:
        acc ^= slots[index]
    return acc


class HostGauge:
    """Times :func:`reference_loop` on demand; see the module docstring."""

    def __init__(self) -> None:
        self.samples = 0
        self.seconds = 0.0

    def sample(self, *__: Any) -> None:
        clock = time.perf_counter
        start = clock()
        reference_loop()
        self.seconds += clock() - start
        self.samples += 1

    def speed(self) -> float:
        """Host speed relative to the reference host (higher is faster)."""
        return REFERENCE_LOOP_S * self.samples / self.seconds


def run_workload(
    name: str,
    seed: int,
    *,
    tiny: bool = False,
    traced: bool = False,
    callback_hook: Optional[CallbackHook] = None,
    process_start: Optional[float] = None,
    spans_dir: Optional[Path] = None,
) -> Dict[str, Any]:
    """Build, warm up and measure one workload; see the module docstring.

    ``process_start`` is the ``time.monotonic()`` instant the run's process
    was launched (defaults to now).  ``spans_dir`` receives the span table
    of a traced run.
    """
    started = time.monotonic() if process_start is None else process_start
    build = WORKLOADS[name]
    spans = probes = patches = None
    if traced:
        spans = tracing.Spans()
        probes = tracing.Probes()
        patches = tracing.instrument(spans, probes)
        user_hook = callback_hook

        def callback_hook(kind, fn):  # type: ignore[no-redef]
            if user_hook is not None:
                fn = user_hook(kind, fn)
            return spans.wrap("bench.ledger", fn)

    try:
        scenario = build(seed, tiny, callback_hook)
        cluster = scenario.cluster
        ledger = scenario.ledger
        if probes is not None:
            cluster.sim.set_sample_hook(probes.sample_pending(cluster.sim), every=1000)
        cluster.run_until(scenario.window_start)

        before: Dict[str, Any] = {}
        if traced:
            before = {
                "spans": spans.snapshot(),
                "counters": tracing.instance_counters(probes, cluster.sim),
                "plans": len(cluster.balancer.plan_history) if cluster.balancer else 0,
                "waits": (len(probes.egress_wait_s), len(probes.cpu_backlog_s)),
            }
        gauge = None
        if not traced:
            # The traced run's probes own the sample hook; it needs no gauge.
            gauge = HostGauge()
            cluster.sim.set_sample_hook(gauge.sample, every=GAUGE_EVERY_EVENTS)
        delivered_before = ledger.delivery_count()
        rented_before = cluster.server_seconds()
        window_start_mono = time.monotonic()
        wall_start = time.perf_counter()
        scenario.run_window()
        wall_s = time.perf_counter() - wall_start
        host_speed = None
        if gauge is not None:
            cluster.sim.set_sample_hook(None)
            wall_s -= gauge.seconds
            # Two samples outside the window, so even a short window has some.
            gauge.sample()
            gauge.sample()
            host_speed = gauge.speed()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        deliveries = ledger.delivery_count() - delivered_before

        verdict = ledger.report()
        cost_until = max(verdict["last_delivery_t"], scenario.window_start)
        server_seconds = cluster.server_seconds(cost_until) - rented_before
        result: Dict[str, Any] = {
            "workload": name,
            "seed": seed,
            "traced": traced,
            "delivery_tier": scenario.delivery_tier,
            "setup_s": window_start_mono - started,
            "window_wall_s": wall_s,
            "host_speed": host_speed,
            "host_samples": gauge.samples if gauge is not None else 0,
            "deliveries": deliveries,
            "peak_rss_mb": peak_rss_mb,
            "sim": {
                "expected": verdict["expected"],
                "lost": verdict["lost"],
                "late": verdict["late"],
                "app_duplicates": verdict["app_duplicates"],
                "publications": verdict["publications"],
                "first_deliveries": verdict["first_deliveries"],
                "latency_p50_ms": verdict["latency_p50_s"] * 1e3,
                "latency_p999_ms": verdict["latency_p999_s"] * 1e3,
                "server_seconds": server_seconds,
                "digest": verdict["digest"],
            },
        }
        if traced:
            result["layers"] = _layer_metrics(
                spans, probes, before, cluster, wall_s, deliveries, verdict
            )
            if spans_dir is not None:
                spans.write(spans_dir, name)
        return result
    finally:
        if patches is not None:
            patches.restore()
        # The managed GC policy froze this run's object graph; release it
        # so a later run in the same process starts clean.
        Simulator.gc_release()
        gc.collect()


def _layer_metrics(
    spans: Any,
    probes: Any,
    before: Dict[str, Any],
    cluster: Any,
    wall_s: float,
    deliveries: int,
    verdict: Dict[str, Any],
) -> Dict[str, float]:
    """Per-layer numbers of the measured window (window deltas)."""
    setup_self, __ = before["spans"]
    total_self, total_calls = spans.snapshot()
    __, calls_before = before["spans"]
    self_s = {k: v - setup_self.get(k, 0.0) for k, v in total_self.items()}
    calls = {k: v - calls_before.get(k, 0) for k, v in total_calls.items()}
    counters = tracing.instance_counters(probes, cluster.sim)
    delta = {k: v - before["counters"][k] for k, v in counters.items()}

    by_layer = {layer: 0.0 for layer in tracing.LAYERS}
    for span_name, seconds in self_s.items():
        layer = span_name.split(".", 1)[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + seconds
    covered = sum(by_layer.values())

    transport = cluster.transport
    wait_from, backlog_from = before["waits"]
    waits = sorted(probes.egress_wait_s[wait_from:])
    backlogs = sorted(probes.cpu_backlog_s[backlog_from:])
    lookups = delta["broker.fanout_cache_hits"] + delta["broker.fanout_cache_builds"]
    client_seen = delta["client.delivered"] + delta["client.duplicates"]
    replays = delta["reliability.replays_useful"] + delta["reliability.replays_suppressed"]
    migrations = 0
    if cluster.balancer is not None:
        history: List[Any] = cluster.balancer.plan_history
        for index in range(max(1, before["plans"]), len(history)):
            migrations += len(history[index - 1][1].diff(history[index][1]))
    expected = max(1, verdict["expected"])

    def named(span_name: str) -> int:
        return calls.get(span_name, 0)

    return {
        "sim.events": delta["sim.events"],
        "sim.events_per_delivery": delta["sim.events"] / max(1, deliveries),
        "sim.self_s": by_layer["sim"],
        "sim.pending_peak": probes.pending_peak,
        "sim.compactions": delta["sim.compactions"],
        "net.send_calls": named("net.send"),
        "net.send_fanout_calls": named("net.send_fanout"),
        "net.self_s": by_layer["net"],
        "net.messages_dropped": transport.messages_dropped,
        "net.pair_states": transport.pair_state_count(),
        "net.egress_wait_ms_p99": percentile(waits, 0.99) * 1e3,
        "broker.receive_calls": named("broker.receive"),
        "broker.self_s": by_layer["broker"],
        "broker.deliveries": delta["broker.deliveries"],
        "broker.fanout_cache_hits": delta["broker.fanout_cache_hits"],
        "broker.fanout_cache_lookups": lookups,
        "broker.fanout_cache_hit_ratio": delta["broker.fanout_cache_hits"] / max(1, lookups),
        "broker.connections_killed": delta["broker.connections_killed"],
        "broker.cpu_backlog_ms_p99": percentile(backlogs, 0.99) * 1e3,
        "client.publish_calls": named("client.publish"),
        "client.subscribe_calls": named("client.subscribe"),
        "client.unsubscribe_calls": named("client.unsubscribe"),
        "client.receive_calls": named("client.receive"),
        "client.self_s": by_layer["client"],
        "client.setup_self_s": sum(
            v for k, v in setup_self.items() if k.startswith("client.")
        ),
        "client.duplicate_ratio": delta["client.duplicates"] / max(1, client_seen),
        "client.switches": delta["client.switches"],
        "client.redirects": delta["client.redirects"],
        "client.resubscribes": delta["client.resubscribes"],
        "dispatcher.receive_calls": named("dispatcher.receive"),
        "dispatcher.self_s": by_layer["dispatcher"],
        "dispatcher.forwarded_publications": delta["dispatcher.forwarded_publications"],
        "dispatcher.redirects_sent": delta["dispatcher.redirects_sent"],
        "balancer.self_s": by_layer["balancer"],
        "balancer.plan_pushes": delta["balancer.plan_pushes"],
        "balancer.migrations": migrations,
        "lla.reports": delta["lla.reports"],
        "policy.decide_calls": named("policy.decide"),
        "policy.self_s": by_layer["policy"],
        "reliability.stamp_calls": named("reliability.stamp"),
        "reliability.self_s": by_layer["reliability"],
        "reliability.replayed_messages": delta["reliability.replayed_messages"],
        "reliability.replays_observed": replays,
        "reliability.replay_useful_ratio": delta["reliability.replays_useful"] / max(1, replays),
        "reliability.gap_requests": delta["reliability.gap_requests"],
        "reliability.unrecoverable_gaps": delta["reliability.unrecoverable_gaps"],
        "faults.actions_applied": delta["faults.actions_applied"],
        "faults.self_s": by_layer["faults"],
        "workload.self_s": by_layer["workload"],
        "bench.ledger_self_s": by_layer["bench"],
        "bench.other_self_s": by_layer.get("other", 0.0),
        "bench.traced_wall_s": wall_s,
        "bench.uncovered_share": (wall_s - covered) / wall_s if wall_s > 0 else 0.0,
        "ledger.lost_ratio": verdict["lost"] / expected,
        "ledger.sla_miss_ratio": (verdict["lost"] + verdict["late"]) / expected,
        "ledger.duplicates": verdict["duplicates"],
        "ledger.app_duplicates": verdict["app_duplicates"],
    }
