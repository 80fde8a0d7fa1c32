"""Message transport between actors.

:class:`Transport` is the glue between the actor layer and the network
model.  Sending a message involves, in order:

1. queuing on the sender's :class:`~repro.net.link.EgressPort` (transmission
   delay = backlog + size/capacity);
2. one-way propagation delay sampled from the LAN model (both endpoints are
   infrastructure) or the WAN model (one endpoint is a client), mirroring
   the paper's latency-injection rules in section V-B;
3. delivery via ``dst.receive(message, src_id)`` -- unless the destination
   has shut down in the meantime, in which case the message is dropped and
   counted.

Every scheduled delivery carries the destination *actor* the send
resolved, not its id.  On arrival :meth:`Transport._deliver` checks that
actor in two slot reads -- still attached to this transport and alive --
and hands it the message.  When the check fails the actor was shut down,
or unregistered (and perhaps replaced) while the message was in flight;
the delivery then falls back to a lookup by id: an actor registered
under the same id since then receives it, otherwise it is dropped and
counted in :attr:`Transport.dropped_dead`.  Arrival semantics are
therefore exactly those of a lookup by id on every delivery.

Hot-path notes: all per-connection state lives in one flat table keyed by
``(src, dst)`` tuples -- the resolved destination actor, which latency
model the pair uses (it never changes while both endpoints stay
registered), the model's constant sample when it declares a
``fixed_delay`` (constant models never touch the RNG), and the FIFO clamp.
One dict lookup per message covers all four.  :meth:`send_many` (and
:meth:`send_fanout`, its pre-resolved twin) is the bulk fan-out API: it
computes the NIC drain incrementally, samples propagation once per *leg*
(latency model) per batch, and hands all deliveries to
:meth:`~repro.sim.kernel.Simulator.schedule_batch` in destination order.
The kernel stores the batch as runs of non-decreasing delivery times --
one run for a single-leg fan-out, more when LAN and WAN legs interleave
or a FIFO clamp raises a time mid-batch -- and delivery ``i`` keeps the
sequence number sequential :meth:`send` calls would have given it, so
bulk and one-at-a-time sends deliver in the same order.  The ``times``
and ``args_seq`` lists are built fresh per call and never touched again,
as the kernel's cursor requires.
"""

from __future__ import annotations

from random import Random
from typing import Any, Dict, List, Optional, Protocol, Sequence, Tuple

from repro.net.latency import KingLatencyModel, LanLatency, LatencyModel
from repro.net.link import EgressPort
from repro.sim.actor import Actor
from repro.sim.kernel import Simulator

# Indices into a per-pair state list (a mutable list rather than a small
# object: one allocation per pair for the lifetime of the pair).
_P_DST = 0  # resolved destination Actor
_P_MODEL = 1  # LatencyModel, or None for loopback
_P_FIXED = 2  # constant sample when the model declares one, else None
_P_FIFO = 3  # last scheduled delivery time on this connection


class FaultPlane(Protocol):
    """Per-message verdict hook for injected network faults.

    :meth:`apply` returns extra one-way delay in seconds (0.0 for a healthy
    link), or ``None`` when the message is lost (partitioned link, or a
    sampled loss event).  Implementations must draw randomness only from
    their own RNG stream so installing a plane with no active faults leaves
    the simulation byte-identical.
    """

    def apply(self, src_id: str, dst_id: str) -> Optional[float]: ...


class Transport:
    """Routes messages between registered actors with realistic delays."""

    def __init__(
        self,
        sim: Simulator,
        rng: Random,
        lan_model: Optional[LatencyModel] = None,
        wan_model: Optional[LatencyModel] = None,
    ) -> None:
        self.sim = sim
        self._rng = rng
        self.lan_model: LatencyModel = lan_model if lan_model is not None else LanLatency()
        self.wan_model: LatencyModel = wan_model if wan_model is not None else KingLatencyModel()
        self._actors: Dict[str, Actor] = {}
        self._ports: Dict[str, EgressPort] = {}
        #: per (src, dst) connection state: ``[dst_actor, model,
        #: fixed_delay, fifo_time]``.  The FIFO clamp enforces the ordering
        #: a TCP connection provides -- without it, two messages on the
        #: same logical connection could reorder (each samples its own
        #: propagation delay), breaking protocols that rely on in-order
        #: SUBSCRIBE/UNSUBSCRIBE processing.  Model choice and actor
        #: resolution depend only on registration-time facts, so entries
        #: stay valid until either endpoint unregisters (which prunes
        #: them).
        self._pairs: Dict[Tuple[str, str], List[Any]] = {}
        #: bumped on every :meth:`unregister` -- the only operation that
        #: prunes pair states.  Callers that hold resolved state refs
        #: across calls (the broker's per-channel subscriber arrays)
        #: compare this against the epoch they captured at build time and
        #: rebuild when it moved, so they can never fan out along a
        #: pruned entry.
        self.pair_epoch: int = 0
        self.messages_sent: int = 0
        #: messages whose destination was gone, at send or at arrival
        self.dropped_dead: int = 0
        #: messages the fault plane lost (partition or sampled loss)
        self.dropped_fault_plane: int = 0
        #: optional network fault plane (installed by
        #: :class:`repro.faults.FaultInjector`).  Consulted per message:
        #: may drop it (partition, loss) or add delay (jitter).  ``None``
        #: -- the default -- costs one attribute check per send, and the
        #: plane draws from its own RNG stream, so fault-free runs are
        #: byte-identical with or without it installed.
        self.fault_plane: Optional["FaultPlane"] = None

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(self, actor: Actor, egress_capacity_bps: Optional[float] = None) -> EgressPort:
        """Attach ``actor`` to the network.

        ``egress_capacity_bps`` is the actual NIC drain rate; ``None`` means
        unlimited (appropriate for client nodes).
        """
        if actor.node_id in self._actors:
            raise ValueError(f"duplicate node id: {actor.node_id}")
        port = EgressPort(egress_capacity_bps)
        self._actors[actor.node_id] = actor
        self._ports[actor.node_id] = port
        actor.transport = self
        return port

    def unregister(self, node_id: str) -> None:
        """Detach a node; in-flight messages to it are dropped on arrival.

        All per-pair connection state touching the node is pruned so long
        churny runs do not leak an entry per (departed node, peer) pair --
        and so a later re-registration under the same id starts from a
        clean slate instead of inheriting cached routing state.
        """
        actor = self._actors.pop(node_id, None)
        self._ports.pop(node_id, None)
        stale = [key for key in self._pairs if key[0] == node_id or key[1] == node_id]
        for key in stale:
            del self._pairs[key]
        self.pair_epoch += 1
        if actor is not None:
            actor.transport = None

    @property
    def messages_dropped(self) -> int:
        """Every dropped message, whatever the reason."""
        return self.dropped_dead + self.dropped_fault_plane

    def actor(self, node_id: str) -> Optional[Actor]:
        return self._actors.get(node_id)

    def port(self, node_id: str) -> Optional[EgressPort]:
        return self._ports.get(node_id)

    def pair_state_count(self) -> int:
        """Entries in the per-pair connection table (leak diagnostics)."""
        return len(self._pairs)

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    # repro: scope[hot]
    def send(
        self,
        src_id: str,
        dst_id: str,
        message: Any,
        size_bytes: int,
        *,
        min_completion: float = 0.0,
        fifo: bool = True,
    ) -> Tuple[float, float]:
        """Send ``message`` from ``src_id`` to ``dst_id``.

        ``min_completion`` lets callers impose an additional completion
        floor, used by the pub/sub server to model per-connection drain
        ceilings on top of the shared NIC.

        ``fifo=False`` lets a message overtake the connection's queued
        stream -- used for out-of-band connection teardown (a TCP RST is
        not queued behind the data the peer will never read).

        Returns ``(transmit_completion, delivery_time)`` so callers that
        model higher-level buffers (the pub/sub server's per-connection
        output buffers) can account for queued bytes.
        """
        if src_id not in self._actors:
            raise KeyError(f"unknown sender: {src_id}")
        port = self._ports[src_id]
        now = self.sim.now
        completion = port.transmit(now, size_bytes)
        if min_completion > completion:
            completion = min_completion

        plane = self.fault_plane
        if plane is not None:
            extra = plane.apply(src_id, dst_id)
            if extra is None:
                # Lost in the network: the bytes still occupied the NIC.
                self.dropped_fault_plane += 1
                return completion, completion
        else:
            extra = 0.0

        key = (src_id, dst_id)
        state = self._pairs.get(key)
        if state is None:
            state = self._classify_pair(key)
        if state is None or not state[_P_DST].alive:
            # Destination already gone: the bytes still occupied the NIC,
            # but nothing arrives.
            self.dropped_dead += 1
            return completion, completion

        fixed = state[_P_FIXED]
        if fixed is not None:
            latency = fixed
        else:
            latency = state[_P_MODEL].sample(self._rng)
        delivery_time = completion + latency + extra
        if fifo:
            if delivery_time < state[_P_FIFO]:
                delivery_time = state[_P_FIFO]  # FIFO: never overtake
            state[_P_FIFO] = delivery_time
        self.sim.schedule_at(
            delivery_time, self._deliver, state[_P_DST], message, src_id
        )
        self.messages_sent += 1
        return completion, delivery_time

    # repro: scope[hot]
    def send_many(
        self,
        src_id: str,
        dst_ids: Sequence[str],
        message: Any,
        size_bytes: int,
        *,
        min_completions: Optional[Sequence[float]] = None,
    ) -> List[float]:
        """Fan one ``message`` out to many destinations in a single batch.

        The shared NIC is charged incrementally -- equivalent to sending
        the messages back to back -- and propagation is sampled **once per
        leg** (latency model) for the whole batch: the deliveries of one
        fan-out instant share the network-weather sample instead of paying
        one RNG draw each.  Per-connection FIFO order against earlier and
        later sends is preserved through the same ``(src, dst)`` clamp as
        :meth:`send`.

        ``min_completions``, when given, is a parallel sequence of
        per-destination completion floors (the pub/sub server's
        per-connection drain ceilings).

        Returns the transmit-completion time per destination, in order.
        Destinations that are dead or lose the message to the fault plane
        are skipped and counted in :attr:`dropped_dead` or
        :attr:`dropped_fault_plane`; their bytes still occupied the NIC.
        """
        if src_id not in self._actors:
            raise KeyError(f"unknown sender: {src_id}")
        port = self._ports[src_id]
        sim = self.sim
        completions = port.transmit_many(sim.now, size_bytes, len(dst_ids))
        if min_completions is not None:
            for index, floor in enumerate(min_completions):
                if floor > completions[index]:
                    completions[index] = floor
        plane = self.fault_plane
        pairs = self._pairs
        rng = self._rng
        #: one propagation sample per latency model ("leg") per batch
        leg_samples: Dict[int, float] = {}
        times: List[float] = []
        args_seq: List[Tuple[Any, ...]] = []
        add_time = times.append
        add_args = args_seq.append
        dead = lost = 0
        extra = 0.0
        for index, dst_id in enumerate(dst_ids):
            if plane is not None:
                verdict = plane.apply(src_id, dst_id)
                if verdict is None:
                    lost += 1
                    continue
                extra = verdict
            state = pairs.get((src_id, dst_id))
            if state is None:
                state = self._classify_pair((src_id, dst_id))
            if state is None or not state[_P_DST].alive:
                dead += 1
                continue
            fixed = state[_P_FIXED]
            if fixed is not None:
                latency = fixed
            else:
                model = state[_P_MODEL]
                leg = id(model)
                latency = leg_samples.get(leg)
                if latency is None:
                    latency = model.sample(rng)
                    leg_samples[leg] = latency
            delivery_time = completions[index] + latency + extra
            if delivery_time < state[_P_FIFO]:
                delivery_time = state[_P_FIFO]
            state[_P_FIFO] = delivery_time
            add_time(delivery_time)
            add_args((state[_P_DST], message, src_id))
        if times:
            sim.schedule_batch(self._deliver, times, args_seq)
            self.messages_sent += len(times)
        if dead:
            self.dropped_dead += dead
        if lost:
            self.dropped_fault_plane += lost
        return completions

    def fanout_states(
        self, src_id: str, dst_ids: Sequence[str]
    ) -> List[Optional[List[Any]]]:
        """Resolve pair states for a fan-out source, one per destination.

        Entries are the live objects from the pair table -- the same lists
        :meth:`send_many` would fetch -- so a caller may hold them across
        calls and pass them back through :meth:`send_fanout` for as long
        as :attr:`pair_epoch` stays unchanged.  ``None`` entries mean the
        destination is not currently registered; :meth:`send_fanout`
        re-probes those per call so a later registration is picked up.
        """
        pairs = self._pairs
        states: List[Optional[List[Any]]] = []
        for dst_id in dst_ids:
            state = pairs.get((src_id, dst_id))
            if state is None:
                state = self._classify_pair((src_id, dst_id))
            states.append(state)
        return states

    # repro: scope[hot]
    def send_fanout(
        self,
        src_id: str,
        dst_ids: Sequence[str],
        states: Sequence[Optional[List[Any]]],
        message: Any,
        size_bytes: int,
        *,
        min_completions: Optional[Sequence[float]] = None,
    ) -> List[float]:
        """Fan out along pre-resolved pair states (:meth:`fanout_states`).

        Semantically identical to :meth:`send_many` -- same NIC charges,
        same lazy once-per-leg propagation sampling (and therefore the
        same RNG draw order), same FIFO clamps and drop accounting -- but
        the per-destination ``(src, dst)`` key-tuple allocation and table
        lookup are gone: the caller supplies the resolved states, which
        the broker's per-channel subscriber arrays cache across
        publications.  A one-destination batch takes a dedicated fast
        path that skips the batch machinery entirely (sparse chaos
        workloads are dominated by tiny fan-outs).
        """
        sim = self.sim
        plane = self.fault_plane
        if len(dst_ids) == 1:
            # Single-destination fast path: no completion list, no batch
            # lists, no leg-sample table.  Float math matches the batch
            # path exactly (transmit == transmit_many for one message).
            dst_id = dst_ids[0]
            port = self._ports[src_id]
            completion = port.transmit(sim.now, size_bytes)
            if min_completions is not None and min_completions[0] > completion:
                completion = min_completions[0]
            if plane is not None:
                extra = plane.apply(src_id, dst_id)
                if extra is None:
                    self.dropped_fault_plane += 1
                    return [completion]
            else:
                extra = 0.0
            state = states[0]
            if state is None:
                state = self._pairs.get((src_id, dst_id))
                if state is None:
                    state = self._classify_pair((src_id, dst_id))
            if state is None or not state[_P_DST].alive:
                self.dropped_dead += 1
                return [completion]
            fixed = state[_P_FIXED]
            if fixed is not None:
                latency = fixed
            else:
                latency = state[_P_MODEL].sample(self._rng)
            delivery_time = completion + latency + extra
            if delivery_time < state[_P_FIFO]:
                delivery_time = state[_P_FIFO]
            state[_P_FIFO] = delivery_time
            sim.schedule_batch(
                self._deliver, (delivery_time,), ((state[_P_DST], message, src_id),)
            )
            self.messages_sent += 1
            return [completion]
        port = self._ports[src_id]
        completions = port.transmit_many(sim.now, size_bytes, len(dst_ids))
        if min_completions is not None:
            for index, floor in enumerate(min_completions):
                if floor > completions[index]:
                    completions[index] = floor
        pairs = self._pairs
        rng = self._rng
        #: one propagation sample per latency model ("leg") per batch; the
        #: identity compare against the previous destination's model keeps
        #: uniform batches (every subscriber behind the same WAN leg) to
        #: one pointer compare per destination instead of a dict probe.
        leg_samples: Optional[Dict[int, float]] = None
        last_model: Optional[LatencyModel] = None
        last_latency = 0.0
        times: List[float] = []
        args_seq: List[Tuple[Any, ...]] = []
        add_time = times.append
        add_args = args_seq.append
        dead = lost = 0
        extra = 0.0
        for dst_id, state, completion in zip(dst_ids, states, completions):
            if plane is not None:
                verdict = plane.apply(src_id, dst_id)
                if verdict is None:
                    lost += 1
                    continue
                extra = verdict
            if state is None:
                state = pairs.get((src_id, dst_id))
                if state is None:
                    state = self._classify_pair((src_id, dst_id))
                    if state is None:
                        dead += 1
                        continue
            dst = state[_P_DST]
            if not dst.alive:
                dead += 1
                continue
            fixed = state[_P_FIXED]
            if fixed is not None:
                latency = fixed
            else:
                model = state[_P_MODEL]
                if model is last_model:
                    latency = last_latency
                else:
                    if leg_samples is None:
                        leg_samples = {}
                    leg = id(model)
                    cached = leg_samples.get(leg)
                    if cached is None:
                        cached = model.sample(rng)
                        leg_samples[leg] = cached
                    latency = cached
                    last_model = model
                    last_latency = cached
            delivery_time = completion + latency + extra
            if delivery_time < state[_P_FIFO]:
                delivery_time = state[_P_FIFO]
            state[_P_FIFO] = delivery_time
            add_time(delivery_time)
            add_args((dst, message, src_id))
        if times:
            sim.schedule_batch(self._deliver, times, args_seq)
            self.messages_sent += len(times)
        if dead:
            self.dropped_dead += dead
        if lost:
            self.dropped_fault_plane += lost
        return completions

    def _classify_pair(self, key: Tuple[str, str]) -> Optional[List[Any]]:
        """Resolve and cache an endpoint pair's connection state.

        Returns ``None`` -- without caching -- when the destination is not
        currently registered, so a later registration is picked up.
        """
        src_id, dst_id = key
        dst = self._actors.get(dst_id)
        if dst is None:
            return None
        if src_id == dst_id:
            state: List[Any] = [dst, None, 0.0, 0.0]
        else:
            if self._actors[src_id].is_infra and dst.is_infra:
                model: LatencyModel = self.lan_model
            else:
                # Client <-> infrastructure: one WAN sample per direction,
                # exactly as the paper injects King samples.  (Client <->
                # client direct messages do not occur in Dynamoth's two-hop
                # architecture.)
                model = self.wan_model
            state = [dst, model, getattr(model, "fixed_delay", None), 0.0]
        self._pairs[key] = state
        return state

    def _deliver(self, dst: Actor, message: Any, src_id: str) -> None:
        if dst.transport is self and dst.alive:
            dst.receive(message, src_id)
            return
        # Shut down, or unregistered while the message was in flight: an
        # actor registered under the same id since then receives it.
        current = self._actors.get(dst.node_id)
        if current is None or not current.alive:
            self.dropped_dead += 1
            return
        current.receive(message, src_id)
