"""The discrete-event simulation kernel.

A :class:`Simulator` owns a virtual clock (a float, in seconds) and a queue
of pending events.  Components schedule callbacks at future points in time;
:meth:`Simulator.run_until` pops events in timestamp order and invokes
them.  Ties are broken by insertion order, which makes runs fully
deterministic for a fixed seed.

The event queue is a binary heap of tuples whose ``(time, seq)`` prefix is
unique, so every comparison stays inside C and never reaches the payload.

Bulk callers that never need a cancel handle (the transport's fan-out
path) use :meth:`Simulator.schedule_batch`.  A batch is stored as *runs*:
maximal stretches of non-decreasing times, each one heap entry holding a
cursor into the caller's ``times`` / ``args_seq``.  The run loop executes
a run inline for as long as its next item is still the global ``(time,
seq)`` minimum, and otherwise puts it back under that item's key -- so a
10k-destination fan-out costs one heap push and pop instead of 10k.  Item
``i`` of a batch keeps sequence number ``seq0 + i`` exactly as if it had
been scheduled on its own, so the execution order, the event counters and
every hook are unchanged.
"""

from __future__ import annotations

import gc
import heapq
from typing import Any, Callable, List, Optional, Sequence, Tuple

#: Queue entry.  Two shapes exist:
#:
#: * ``(time, seq, event)`` -- a cancellable :class:`ScheduledEvent` handle
#:   created by :meth:`Simulator.schedule` / :meth:`Simulator.schedule_at`.
#: * ``(time, seq, None, run)`` -- a batch *run* (see :data:`_R_IDX`);
#:   ``(time, seq)`` is the key of its next unexecuted item.
#:
#: The ``(time, seq)`` prefix is unique, so tuple comparison never falls
#: through to the third element and the shapes order consistently.
_Entry = Tuple[Any, ...]

#: Index of the cursor in a run ``[fn, times, args_seq, idx, end,
#: seq0]``: items ``idx .. end-1`` of the caller's parallel sequences are
#: still pending, their times are non-decreasing, and item ``i`` has
#: sequence number ``seq0 + i``.  A run is a mutable list so the cursor
#: advances in place.
_R_IDX = 3


class ScheduledEvent:
    """Handle for a scheduled callback.

    Returned by :meth:`Simulator.schedule`; calling :meth:`cancel` prevents
    the callback from firing (cancellation is O(1) -- the event stays in the
    queue but is skipped when popped).

    :meth:`Simulator.schedule_batch` never creates these at all: batch
    items are queued as runs with no handle.
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "_sim")

    def __init__(
        self, time: float, seq: int, fn: Callable[..., None], args: Tuple[Any, ...]
    ) -> None:
        self.time = time
        self.seq = seq
        self.fn: Optional[Callable[..., None]] = fn
        self.args = args
        self.cancelled = False
        #: back-reference to the owning simulator while the event is in its
        #: queue, so cancellations can be counted for compaction.
        self._sim: Optional["Simulator"] = None

    def cancel(self) -> None:
        """Prevent this event from firing.  Idempotent."""
        if self.cancelled:
            return
        self.cancelled = True
        # Drop references so cancelled events do not pin large objects in
        # memory while they wait to be popped from the queue.
        self.fn = None
        self.args = ()
        sim = self._sim
        self._sim = None
        if sim is not None:
            sim._note_cancelled()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<ScheduledEvent t={self.time:.6f} seq={self.seq} {state}>"


class Simulator:
    """A deterministic discrete-event simulator.

    Typical usage::

        sim = Simulator()
        sim.schedule(1.0, lambda: print("one second in"))
        sim.run_until(10.0)

    The clock unit is seconds.  Events scheduled for the same instant fire in
    the order they were scheduled.
    """

    #: Compaction floor: queues smaller than this are never compacted (the
    #: rebuild would cost more than the memory it frees).
    COMPACT_MIN_CANCELLED = 64

    #: Executed events between explicit young-generation collections while
    #: the managed GC policy is active.
    GC_MAINTENANCE_EVENTS = 1_000_000

    def __init__(self, *, gc_managed: bool = False) -> None:
        #: Managed GC policy (opt-in): on first entry into a run loop the
        #: long-lived object graph built so far (topology: actors, clients,
        #: connections) is collected once and frozen into the permanent
        #: generation, and automatic collection is suspended while events
        #: execute -- CPython's default full-heap collections otherwise
        #: re-scan the entire static topology every ~70k allocations, which
        #: dominates large fan-out runs.  Explicit young-generation
        #: collections every :data:`GC_MAINTENANCE_EVENTS` events keep
        #: cyclic garbage bounded.  Automatic GC is re-enabled whenever the
        #: run loop returns.  The policy never affects simulation results,
        #: only wall-clock time.
        self.gc_managed = gc_managed
        self._gc_frozen = False
        self._now: float = 0.0
        self._seq: int = 0
        self._events_processed: int = 0
        self._cancelled_pending: int = 0
        self._compactions: int = 0
        self._running = False
        self._heap: List[_Entry] = []
        #: run entries currently in ``_heap`` (a run being executed inline
        #: has been popped and is not counted)
        self._runs_queued: int = 0
        #: ``_batch_debt - _events_processed`` is the number of batch items
        #: not yet executed: :meth:`schedule_batch` adds its item count and
        #: every executed plain event adds one, so only batch items pay the
        #: debt down.  Keeps :attr:`pending_count` exact without a per-item
        #: counter in the run loop.
        self._batch_debt: int = 0
        #: Optional observability hook ``(now, events_processed) -> None``,
        #: invoked after each executed event.  Hoisted into a local at run
        #: entry (``None`` then costs nothing per event), so it must be
        #: installed *before* entering a run loop, never from inside an
        #: executing event; the hook must not schedule events or touch any
        #: RNG so instrumented runs stay deterministic.
        self.event_hook: Optional[Callable[[float, int], None]] = None
        #: Optional sim-profiler (``repro.obs.profile.SimProfiler``-shaped:
        #: anything with ``record_event(fn, now)``).  Fed the executed
        #: callback after each event; same determinism contract as
        #: :attr:`event_hook` (counts and virtual time only, no wall clock).
        self.profiler: Optional[Any] = None
        #: Low-frequency sampling hook installed via :meth:`set_sample_hook`;
        #: unlike :attr:`event_hook` it fires only every ``sample_every``
        #: executed events, so per-event cost is one integer compare.
        self.sample_hook: Optional[Callable[[float, int], None]] = None
        self.sample_every: int = 0
        self._sample_next: float = float("inf")

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total number of events executed so far (diagnostic)."""
        return self._events_processed

    @property
    def pending_count(self) -> int:
        """Number of events still queued, including cancelled ones.

        Every not-yet-executed batch item counts as one event, whether or
        not it shares a heap entry with others.
        """
        return (
            len(self._heap)
            - self._runs_queued
            + self._batch_debt
            - self._events_processed
        )

    @property
    def cancelled_pending(self) -> int:
        """Cancelled events still occupying queue slots (diagnostic)."""
        return self._cancelled_pending

    @property
    def compactions(self) -> int:
        """Number of queue compactions performed so far (diagnostic)."""
        return self._compactions

    @property
    def running(self) -> bool:
        """True while :meth:`run` / :meth:`run_until` is executing events."""
        return self._running

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., None], *args: Any) -> ScheduledEvent:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now.

        ``delay`` must be non-negative; a zero delay runs the callback after
        all events already scheduled for the current instant.
        """
        if delay < 0:
            raise ValueError(f"negative delay: {delay!r}")
        return self.schedule_at(self._now + delay, fn, *args)

    def schedule_at(self, time: float, fn: Callable[..., None], *args: Any) -> ScheduledEvent:
        """Schedule ``fn(*args)`` at absolute virtual time ``time``."""
        if time < self._now:
            raise ValueError(f"cannot schedule in the past: {time} < {self._now}")
        seq = self._seq
        self._seq = seq + 1
        event = ScheduledEvent(time, seq, fn, args)
        event._sim = self
        heapq.heappush(self._heap, (time, seq, event))
        return event

    def schedule_batch(
        self,
        fn: Callable[..., None],
        times: Sequence[float],
        args_seq: Sequence[Tuple[Any, ...]],
    ) -> int:
        """Bulk-schedule ``fn(*args)`` at many absolute times.

        ``times`` and ``args_seq`` are parallel sequences (kept separate so
        bulk callers need not build a pair tuple per event).  Batch events
        are fire-and-forget: no :class:`ScheduledEvent` is allocated, no
        handle is returned, and batch events cannot be cancelled by
        callers -- in exchange the run loop pays zero handle bookkeeping
        for them.  Item ``i`` gets sequence number ``seq0 + i``, so it
        orders exactly as if scheduled on its own with :meth:`schedule_at`.

        The batch is split into runs of non-decreasing times,
        one heap entry each, that keep cursors into ``times`` and
        ``args_seq``: the caller hands both sequences over and must not
        mutate them afterwards.

        The batch is atomic: every time is validated before anything is
        enqueued, so a rejected batch leaves the queue untouched.
        Returns the number of events scheduled.
        """
        count = len(times)
        if len(args_seq) != count:
            raise ValueError(
                f"times and args_seq differ in length: {count} != {len(args_seq)}"
            )
        if not count:
            return 0
        now = self._now
        # Split into runs: a run starts wherever a time drops below its
        # predecessor.  Runs never decrease, so the earliest time of the
        # batch is the earliest run start.
        earliest = prev = times[0]
        starts: Optional[List[int]] = None
        for index, time in enumerate(times):
            if time < prev:
                if starts is None:
                    starts = [0]
                starts.append(index)
                if time < earliest:
                    earliest = time
            prev = time
        if earliest < now:
            raise ValueError(f"cannot schedule in the past: {earliest} < {now}")
        seq = self._seq
        self._seq = seq + count
        self._batch_debt += count
        if starts is None:
            # One run (every single-item and every sorted batch).
            heapq.heappush(
                self._heap, (earliest, seq, None, [fn, times, args_seq, 0, count, seq])
            )
            self._runs_queued += 1
            return count
        stops = starts[1:]
        stops.append(count)
        heap = self._heap
        for start, stop in zip(starts, stops):
            heapq.heappush(
                heap, (times[start], seq + start, None, [fn, times, args_seq, start, stop, seq])
            )
        self._runs_queued += len(starts)
        return count

    # ------------------------------------------------------------------
    # Queue compaction
    # ------------------------------------------------------------------
    def _note_cancelled(self) -> None:
        """Called by :meth:`ScheduledEvent.cancel` while the event is queued.

        Long chaos runs cancel timers constantly (heartbeats, retry
        backoffs); without compaction those tombstones accumulate until
        they are popped, which for far-future deadlines can take the whole
        run.  Once cancelled events outnumber live ones (and the queue is
        big enough to matter), rebuild the queue without them.
        """
        self._cancelled_pending += 1
        if (
            self._cancelled_pending >= self.COMPACT_MIN_CANCELLED
            and self._cancelled_pending * 2 > self.pending_count
        ):
            self._compact()

    def _compact(self) -> None:
        live_entries = []
        for entry in self._heap:
            event = entry[2]
            # Batch runs (event is None) are kept whole.
            if event is None or not event.cancelled:
                live_entries.append(entry)
        self._heap = live_entries
        heapq.heapify(self._heap)
        self._cancelled_pending = 0
        self._compactions += 1

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def set_sample_hook(
        self, fn: Optional[Callable[[float, int], None]], every: int = 100_000
    ) -> None:
        """Install (or clear, with ``fn=None``) the periodic sampling hook.

        ``fn(now, events_processed)`` fires after every ``every`` executed
        events -- used by the benchmark harness for periodic gauges.  The hook
        must follow the :attr:`event_hook` determinism contract.
        """
        if fn is None:
            self.sample_hook = None
            self.sample_every = 0
            self._sample_next = float("inf")
            return
        if every < 1:
            raise ValueError(f"sample_every must be >= 1: {every!r}")
        self.sample_hook = fn
        self.sample_every = every
        self._sample_next = self._events_processed + every

    def _release(self, event: ScheduledEvent) -> Tuple[Callable[..., None], Tuple[Any, ...]]:
        """Take a popped handle's callback and mark the handle spent.

        The handle state is released *before* running so an event
        rescheduling itself does not grow memory.
        """
        fn = event.fn
        args = event.args
        assert fn is not None  # non-cancelled events carry a callback
        # This event already left the queue, so its self-cancel must
        # not count toward the compaction trigger.
        event._sim = None
        event.cancelled = True
        event.fn = None
        event.args = ()
        return fn, args

    def _execute(self, fn: Callable[..., None], args: Tuple[Any, ...]) -> None:
        """Run one callback and fire the instrumentation hooks."""
        self._events_processed += 1
        fn(*args)
        hook = self.event_hook
        if hook is not None:
            hook(self._now, self._events_processed)
        profiler = self.profiler
        if profiler is not None:
            profiler.record_event(fn, self._now)
        if self._events_processed >= self._sample_next:
            self._sample_next = self._events_processed + self.sample_every
            sample = self.sample_hook
            if sample is not None:
                sample(self._now, self._events_processed)

    def _gc_suspend(self) -> bool:
        """Apply the managed GC policy on run-loop entry.

        Returns ``True`` when automatic collection was disabled here and
        must be re-enabled when the loop exits.  Re-entrant runs are safe:
        the nested call sees collection already disabled and does nothing.
        """
        if not self.gc_managed or not gc.isenabled():
            return False
        if not self._gc_frozen:
            # One full collection before the very first freeze, so dead
            # setup-time cycles do not get pinned forever.
            gc.collect()
            self._gc_frozen = True
        # Freeze on *every* entry, not just the first: topology wired during
        # an earlier run (e.g. a subscription storm inside the warm-up
        # ``run_until``) would otherwise sit in the young generations for
        # the whole process -- automatic collection is disabled while events
        # execute, so nothing ever promotes it -- and every mid-run
        # maintenance collection would re-scan all of it.  Freezing is a
        # cheap list splice; anything alive right now is long-lived by
        # construction.  Cycles alive at a freeze point stay uncollectable
        # for the process lifetime, which is acceptable for bounded
        # simulation runs and never affects results.
        gc.freeze()
        gc.disable()
        return True

    @staticmethod
    def gc_release() -> None:
        """Undo the managed policy's freezes and reclaim dead cycles.

        ``gc.freeze`` is process-global: once a managed run froze its
        topology, that graph stays uncollectable even after the simulation
        is dropped.  A harness running several independent simulations in
        one process (e.g. sweep workers) calls this between runs
        so each finished topology's cycles are actually reclaimed.
        """
        gc.unfreeze()
        gc.collect()

    def step(self) -> bool:
        """Execute the single next pending event.

        Returns ``True`` if an event ran, ``False`` if the queue is empty.
        Cancelled events are discarded silently.  A batch run executes one
        item per call.
        """
        heap = self._heap
        while heap:
            entry = heapq.heappop(heap)
            event = entry[2]
            if event is None:
                run = entry[3]
                fn, times, args_seq, idx, end, seq0 = run
                nxt = idx + 1
                if nxt < end:
                    run[_R_IDX] = nxt
                    heapq.heappush(heap, (times[nxt], seq0 + nxt, None, run))
                else:
                    self._runs_queued -= 1
                args = args_seq[idx]
            elif event.cancelled:
                self._cancelled_pending -= 1
                continue
            else:
                fn, args = self._release(event)
                self._batch_debt += 1
            self._now = entry[0]
            self._execute(fn, args)
            return True
        return False

    def run_until(self, time: float) -> None:
        """Run all events with timestamp <= ``time``; advance clock to ``time``.

        The clock always ends exactly at ``time`` even if the queue drains
        early, so periodic processes can be resumed from a known instant.
        """
        if time < self._now:
            raise ValueError(f"cannot run backwards: {time} < {self._now}")
        gc_restore = self._gc_suspend()
        gc_next = (
            self._events_processed + self.GC_MAINTENANCE_EVENTS
            if gc_restore
            else float("inf")
        )
        self._running = True
        try:
            # Instrumentation hooks are hoisted into locals once per run
            # entry: a None hook costs nothing per event instead of an
            # attribute load + test.  Hooks must therefore be installed
            # before the run loop starts (Tracer.attach_kernel and the
            # benchmark harness both do), never from inside an executing
            # event.
            hook = self.event_hook
            profiler = self.profiler
            pause_next = self._sample_next if self._sample_next < gc_next else gc_next
            # The heap loop is the simulator's hottest code: callback
            # execution is inlined to shave per-event call overhead
            # (identical observable behaviour).
            heap = self._heap
            pop = heapq.heappop
            push = heapq.heappush
            while heap:
                entry = heap[0]
                event = entry[2]
                if event is None:
                    # A batch run: execute its items inline while the
                    # next one is still the global (time, seq) minimum.
                    t = entry[0]
                    if t > time:
                        break
                    pop(heap)
                    self._runs_queued -= 1
                    run = entry[3]
                    fn, times, args_seq, idx, end, seq0 = run
                    try:
                        while True:
                            self._now = t
                            self._events_processed += 1
                            args = args_seq[idx]
                            idx += 1
                            fn(*args)
                            if hook is not None:
                                hook(self._now, self._events_processed)
                            if profiler is not None:
                                profiler.record_event(fn, self._now)
                            if self._events_processed >= pause_next:
                                if self._events_processed >= self._sample_next:
                                    self._sample_next = (
                                        self._events_processed + self.sample_every
                                    )
                                    sample = self.sample_hook
                                    if sample is not None:
                                        sample(self._now, self._events_processed)
                                if self._events_processed >= gc_next:
                                    gc.collect(1)
                                    gc_next = (
                                        self._events_processed
                                        + self.GC_MAINTENANCE_EVENTS
                                    )
                                pause_next = (
                                    self._sample_next
                                    if self._sample_next < gc_next
                                    else gc_next
                                )
                            if idx == end:
                                break
                            t = times[idx]
                            # Callbacks may have pushed events (or compacted
                            # the heap): yield to anything now ahead.
                            heap = self._heap
                            if t <= time:
                                if not heap:
                                    continue
                                head = heap[0]
                                head_t = head[0]
                                if t < head_t or (t == head_t and seq0 + idx < head[1]):
                                    continue
                            run[_R_IDX] = idx
                            push(heap, (t, seq0 + idx, None, run))
                            self._runs_queued += 1
                            break
                    except BaseException:
                        # A callback raised: keep the run's unexecuted
                        # items queued so the simulation can resume.
                        if idx < end:
                            run[_R_IDX] = idx
                            push(self._heap, (times[idx], seq0 + idx, None, run))
                            self._runs_queued += 1
                        raise
                    heap = self._heap
                    continue
                if event.cancelled:
                    pop(heap)
                    self._cancelled_pending -= 1
                    continue
                if entry[0] > time:
                    break
                pop(heap)
                self._now = entry[0]
                fn = event.fn
                args = event.args
                # Already out of the queue: the self-cancel marker
                # must not count toward the compaction trigger.
                event._sim = None
                event.cancelled = True
                event.fn = None
                event.args = ()
                self._batch_debt += 1
                self._events_processed += 1
                fn(*args)
                if hook is not None:
                    hook(self._now, self._events_processed)
                if profiler is not None:
                    profiler.record_event(fn, self._now)
                if heap is not self._heap:
                    heap = self._heap  # compaction rebuilt it
                if self._events_processed >= pause_next:
                    # Combined threshold: one compare per event covers
                    # both the sampling hook and GC maintenance.
                    if self._events_processed >= self._sample_next:
                        self._sample_next = (
                            self._events_processed + self.sample_every
                        )
                        sample = self.sample_hook
                        if sample is not None:
                            sample(self._now, self._events_processed)
                    if self._events_processed >= gc_next:
                        gc.collect(1)
                        gc_next = (
                            self._events_processed + self.GC_MAINTENANCE_EVENTS
                        )
                    pause_next = (
                        self._sample_next
                        if self._sample_next < gc_next
                        else gc_next
                    )
        finally:
            self._running = False
            if gc_restore:
                gc.enable()
        self._now = time

    def run(self, max_events: Optional[int] = None) -> None:
        """Run until the event queue is exhausted.

        ``max_events`` bounds the number of events executed -- a safety net
        against accidental infinite self-rescheduling loops.  When the bound
        trips, a ``RuntimeError`` is raised with the simulator left in a
        clean, resumable state: :attr:`running` is ``False``, the clock
        stays at the last executed event, and the remaining queue is intact.
        """
        executed = 0
        gc_restore = self._gc_suspend()
        self._running = True
        try:
            while self.step():
                executed += 1
                if max_events is not None and executed >= max_events:
                    raise RuntimeError(
                        f"simulation exceeded max_events={max_events}; "
                        "likely a runaway periodic process"
                    )
        finally:
            self._running = False
            if gc_restore:
                gc.enable()
