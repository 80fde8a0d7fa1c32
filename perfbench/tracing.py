"""Span tracing for the traced run, installed from the benchmark's own files.

Nothing under ``src/`` knows about this module.  :func:`instrument` patches
the public entry points of each layer on their *classes* (so it must run
before the cluster is built: instances bind callbacks such as the
dispatcher's broker observers at construction) and :meth:`Patches.restore`
undoes every patch.

Three kinds of span sources cover the call tree:

* entry-point methods -- ``Simulator.run_until``, ``Transport.send*``,
  ``PubSubServer.receive``, ``DynamothClient.publish/subscribe/...``,
  ``Dispatcher.receive``, ``LoadBalancer.receive``,
  ``RebalancePolicy.decide``, the reliability state machines;
* kernel dispatch -- every callback handed to ``Simulator.schedule_at`` or
  ``schedule_batch`` is wrapped in a span named after its owner's layer
  (``net.deliver``, ``broker.complete_publish``, ``faults.execute``...),
  so work the kernel runs directly is never billed to the kernel;
* registered callbacks -- ``PeriodicTask`` callbacks and the broker's
  loopback observers/listeners get spans named after *their* owner.

A span records name, start, end and parent in flat arrays that stay in
memory until :meth:`Spans.write`.  Self time (duration minus the time of
child spans) is accumulated per span name as spans close.
"""

from __future__ import annotations

import json
import time
from array import array
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.broker.commands import PublishCmd
from repro.broker.server import PubSubServer
from repro.core.balancer import LoadBalancer
from repro.core.client import DynamothClient
from repro.core.cluster import DynamothCluster
from repro.core.dispatcher import Dispatcher
from repro.core.lla import LocalLoadAnalyzer
from repro.core.messages import PlanPush
from repro.core.policy import RebalancePolicy
from repro.core.reliability import BrokerReliability, ClientReliability
from repro.faults import FaultInjector
from repro.net.link import EgressPort
from repro.net.transport import Transport
from repro.sim.kernel import Simulator
from repro.sim.timers import PeriodicTask

#: module prefix -> layer, first match wins
_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("repro.sim", "sim"),
    ("repro.net", "net"),
    ("repro.broker", "broker"),
    ("repro.core.client", "client"),
    ("repro.core.dispatcher", "dispatcher"),
    ("repro.core.policy", "policy"),
    ("repro.core.reliability", "reliability"),
    # the balancer's cloud operations (spawn/decommission completion)
    ("repro.core.cluster", "balancer"),
    ("repro.core", "balancer"),
    ("repro.faults", "faults"),
    ("repro.workload", "workload"),
    # the benchmark's own publisher ticks
    ("perfbench", "workload"),
)

#: every layer row of the attribution table, in call-stack order
LAYERS = (
    "sim", "net", "broker", "client", "dispatcher", "balancer", "policy",
    "reliability", "faults", "workload", "bench",
)


def layer_of(module: str) -> str:
    for prefix, layer in _LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return "other"


def callback_name(fn: Any) -> str:
    """``layer.operation`` for a callable, from its owner's module."""
    owner = getattr(fn, "__self__", None)
    module = type(owner).__module__ if owner is not None else getattr(fn, "__module__", "")
    op = getattr(fn, "__name__", "call").lstrip("_") or "call"
    return f"{layer_of(module or '')}.{op}"


class Spans:
    """In-memory span table with per-name self-time accounting."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_id = array("I")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.self_s: List[float] = []
        self.calls: List[int] = []
        self._open: List[int] = []
        self._child: List[float] = []

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.self_s.append(0.0)
            self.calls.append(0)
        return nid

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` wrapped in a span called ``name``."""
        nid = self._id(name)
        names, starts, ends, parents = self.name_id, self.start, self.end, self.parent
        open_spans, child = self._open, self._child
        self_s, calls = self.self_s, self.calls
        clock = time.perf_counter

        def span(*args: Any, **kwargs: Any) -> Any:
            index = len(starts)
            parents.append(open_spans[-1] if open_spans else -1)
            names.append(nid)
            ends.append(0.0)
            open_spans.append(index)
            child.append(0.0)
            t0 = clock()
            starts.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                ends[index] = t1
                open_spans.pop()
                duration = t1 - t0
                self_s[nid] += duration - child.pop()
                calls[nid] += 1
                if child:
                    child[-1] += duration

        return span

    def snapshot(self) -> Tuple[Dict[str, float], Dict[str, int]]:
        """Per-name (self seconds, calls) so far."""
        return dict(zip(self.names, self.self_s)), dict(zip(self.names, self.calls))

    def write(self, directory: Path, stem: str) -> None:
        """Spill the span table: a JSON index plus raw little arrays."""
        directory.mkdir(parents=True, exist_ok=True)
        columns = {
            "name_id": self.name_id,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
        }
        for column, values in columns.items():
            with open(directory / f"{stem}.{column}.bin", "wb") as fh:
                values.tofile(fh)
        index = {
            "names": self.names,
            "spans": len(self.start),
            "columns": {c: v.typecode for c, v in columns.items()},
        }
        (directory / f"{stem}.json").write_text(json.dumps(index, indent=1) + "\n")


class Probes:
    """Counters and samples the span tree does not give directly."""

    def __init__(self) -> None:
        self.servers: List[PubSubServer] = []
        self.clients: List[DynamothClient] = []
        self.dispatchers: List[Dispatcher] = []
        self.llas: List[LocalLoadAnalyzer] = []
        self.injectors: List[FaultInjector] = []
        #: NIC backlog ahead of each transmission on capacity-limited ports
        self.egress_wait_s = array("d")
        #: broker CPU backlog ahead of each inbound publish
        self.cpu_backlog_s = array("d")
        self.pending_peak = 0
        self.plan_pushes = 0
        self._last_push: Optional[float] = None
        self.replayed_messages = 0
        self.unrecoverable_gaps = 0
        self.replays_useful = 0
        self.replays_suppressed = 0
        self.gap_requests = 0

    def sample_pending(self, sim: Simulator) -> Callable[[float, int], None]:
        def hook(now: float, events: int) -> None:
            if sim.pending_count > self.pending_peak:
                self.pending_peak = sim.pending_count

        return hook

    def note_push(self, now: float) -> None:
        if self._last_push != now:
            self._last_push = now
            self.plan_pushes += 1


_MISSING = object()


class Patches:
    """Class attributes replaced by :func:`instrument`, restorable."""

    def __init__(self) -> None:
        self._undo: List[Tuple[type, str, Any]] = []

    def replace(self, owner: type, attr: str, make: Callable[[Any], Any]) -> None:
        """Set ``owner.attr`` to ``make(current value)``."""
        self._undo.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, make(getattr(owner, attr)))

    def restore(self) -> None:
        for owner, attr, raw in reversed(self._undo):
            if raw is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)
        self._undo.clear()


def _registry(target: List[Any]) -> Callable[[Any], Any]:
    def make(init: Callable[..., None]) -> Callable[..., None]:
        def wrapped(self: Any, *args: Any, **kwargs: Any) -> None:
            init(self, *args, **kwargs)
            target.append(self)

        return wrapped

    return make


def instrument(spans: Spans, probes: Probes) -> Patches:
    """Patch every layer's entry points; returns the undo handle."""
    patches = Patches()
    wrap = spans.wrap
    dispatch_names: Dict[Tuple[type, str], str] = {}

    def dispatched(fn: Any) -> Any:
        owner = getattr(fn, "__self__", None)
        key = (type(owner), getattr(fn, "__name__", ""))
        name = dispatch_names.get(key)
        if name is None:
            name = dispatch_names[key] = callback_name(fn)
        return wrap(name, fn)

    def span(name: str) -> Callable[[Any], Any]:
        return lambda fn: wrap(name, fn)

    # --- sim: the run loop is the root span; kernel-run callbacks -------
    patches.replace(Simulator, "run_until", span("sim.run"))
    patches.replace(
        Simulator,
        "schedule_at",
        lambda orig: lambda self, t, fn, *args: orig(self, t, dispatched(fn), *args),
    )
    patches.replace(
        Simulator,
        "schedule_batch",
        lambda orig: lambda self, fn, times, args_seq: orig(
            self, dispatched(fn), times, args_seq
        ),
    )

    def periodic_init(init: Callable[..., None]) -> Callable[..., None]:
        def wrapped(self: Any, sim: Any, period: float, callback: Any, **kw: Any) -> None:
            init(self, sim, period, wrap(callback_name(callback), callback), **kw)

        return wrapped

    patches.replace(PeriodicTask, "__init__", periodic_init)

    # --- net ----------------------------------------------------------
    for op in ("send", "send_many", "send_fanout", "fanout_states"):
        patches.replace(Transport, op, span(f"net.{op}"))

    def egress(orig: Callable[..., Any]) -> Callable[..., Any]:
        waits = probes.egress_wait_s

        def wrapped(self: EgressPort, now: float, *args: Any) -> Any:
            if self.capacity_bps is not None:
                waits.append(self.queued_delay(now))
            return orig(self, now, *args)

        return wrapped

    patches.replace(EgressPort, "transmit", egress)
    patches.replace(EgressPort, "transmit_many", egress)

    # --- broker -------------------------------------------------------
    def broker_receive(orig: Callable[..., Any]) -> Callable[..., Any]:
        backlog = probes.cpu_backlog_s

        def wrapped(self: PubSubServer, message: Any, src_id: str) -> None:
            if isinstance(message, PublishCmd):
                backlog.append(self.cpu_backlog(self.sim.now))
            orig(self, message, src_id)

        return wrap("broker.receive", wrapped)

    patches.replace(PubSubServer, "receive", broker_receive)
    patches.replace(PubSubServer, "__init__", _registry(probes.servers))
    # Loopback observers/listeners run inside the broker but belong to
    # whoever registered them (the dispatcher).  The memo keeps
    # ``unsubscribe_local`` able to find the wrapper it must remove.
    loopback: Dict[Any, Any] = {}

    def registered(fn: Any) -> Any:
        wrapped = loopback.get(fn)
        if wrapped is None:
            wrapped = loopback[fn] = wrap(callback_name(fn), fn)
        return wrapped

    for op in ("add_observer", "add_subscribe_listener", "add_unsubscribe_listener"):
        patches.replace(
            PubSubServer,
            op,
            lambda orig: lambda self, callback: orig(self, registered(callback)),
        )
    for op in ("subscribe_local", "unsubscribe_local"):
        patches.replace(
            PubSubServer,
            op,
            lambda orig: lambda self, channel, callback: orig(
                self, channel, registered(callback)
            ),
        )

    # --- client -------------------------------------------------------
    for op in ("receive", "publish", "subscribe", "unsubscribe"):
        patches.replace(DynamothClient, op, span(f"client.{op}"))
    patches.replace(DynamothClient, "__init__", _registry(probes.clients))
    patches.replace(DynamothCluster, "create_client", span("client.create"))

    # --- dispatcher ---------------------------------------------------
    patches.replace(Dispatcher, "receive", span("dispatcher.receive"))
    patches.replace(Dispatcher, "__init__", _registry(probes.dispatchers))

    # --- balancer, LLA, policy ------------------------------------------
    patches.replace(LoadBalancer, "receive", span("balancer.receive"))

    def balancer_send(orig: Callable[..., Any]) -> Callable[..., Any]:
        def wrapped(self: LoadBalancer, dst_id: str, message: Any, size: int) -> None:
            if isinstance(message, PlanPush):
                probes.note_push(self.sim.now)
            orig(self, dst_id, message, size)

        return wrapped

    patches.replace(LoadBalancer, "send", balancer_send)
    patches.replace(LocalLoadAnalyzer, "__init__", _registry(probes.llas))
    patches.replace(RebalancePolicy, "decide", span("policy.decide"))

    # --- reliability --------------------------------------------------
    patches.replace(BrokerReliability, "stamp_and_cache", span("reliability.stamp"))

    def replay_slice(orig: Callable[..., Any]) -> Callable[..., Any]:
        def wrapped(self: BrokerReliability, *args: Any) -> Any:
            result = orig(self, *args)
            if result is not None:
                probes.replayed_messages += len(result.entries)
                if result.gap_through > 0:
                    probes.unrecoverable_gaps += 1
            return result

        return wrap("reliability.replay_slice", wrapped)

    patches.replace(BrokerReliability, "replay_slice", replay_slice)

    def observe(orig: Callable[..., Any]) -> Callable[..., Any]:
        def wrapped(
            self: ClientReliability, server: str, channel: str, seq: int,
            epoch: int, replayed: bool, now: float,
        ) -> Any:
            outcome = orig(self, server, channel, seq, epoch, replayed, now)
            if replayed:
                if outcome.deliver:
                    probes.replays_useful += 1
                else:
                    probes.replays_suppressed += 1
            if outcome.request is not None:
                probes.gap_requests += 1
            return outcome

        return wrap("reliability.observe", wrapped)

    patches.replace(ClientReliability, "observe", observe)

    # --- faults -------------------------------------------------------
    patches.replace(FaultInjector, "__init__", _registry(probes.injectors))
    return patches


def instance_counters(probes: Probes, sim: Simulator) -> Dict[str, float]:
    """Cumulative counters summed over every instance created so far."""
    totals: Dict[str, float] = {
        "sim.events": sim.events_processed,
        "sim.compactions": sim.compactions,
        "broker.deliveries": sum(s.delivery_count for s in probes.servers),
        "broker.fanout_cache_hits": sum(s.fanout_cache_hits for s in probes.servers),
        "broker.fanout_cache_builds": sum(s.fanout_cache_builds for s in probes.servers),
        "broker.connections_killed": sum(s.killed_connections for s in probes.servers),
        "client.delivered": sum(c.delivered for c in probes.clients),
        "client.duplicates": sum(c.duplicates for c in probes.clients),
        "client.switches": sum(c.switches for c in probes.clients),
        "client.redirects": sum(c.redirects for c in probes.clients),
        "client.resubscribes": sum(c.resubscribes for c in probes.clients),
        "dispatcher.forwarded_publications": sum(
            d.forwarded_publications for d in probes.dispatchers
        ),
        "dispatcher.redirects_sent": sum(d.redirects_sent for d in probes.dispatchers),
        "lla.reports": sum(lla.reports_sent for lla in probes.llas),
        "faults.actions_applied": sum(
            i.crashes + i.restarts + i.partitions + i.heals + i.link_faults + i.lla_stalls
            for i in probes.injectors
        ),
        "balancer.plan_pushes": probes.plan_pushes,
        "reliability.replayed_messages": probes.replayed_messages,
        "reliability.unrecoverable_gaps": probes.unrecoverable_gaps,
        "reliability.replays_useful": probes.replays_useful,
        "reliability.replays_suppressed": probes.replays_suppressed,
        "reliability.gap_requests": probes.gap_requests,
    }
    return totals
