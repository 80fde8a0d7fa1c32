"""Tests for the kernel's hot-path machinery (PR 4, PR 9).

Covers the calendar-queue scheduler, the fire-and-forget
``schedule_batch`` path, its interaction with compaction, the managed GC
policy, and the clean failure state of ``run(max_events=...)``.
"""

import gc
from random import Random

import pytest

from repro.sim import kernel
from repro.sim.kernel import Simulator


def _mixed_workload(sim: Simulator, log: list) -> None:
    """A deterministic workload mixing ties, nesting, and cancellations."""
    rng = Random(7)
    for i in range(200):
        sim.schedule_at(round(rng.uniform(0.0, 3.0), 3), log.append, ("a", i))
    # Exact ties: insertion order must win.
    for i in range(20):
        sim.schedule_at(1.5, log.append, ("tie", i))
    # Nested scheduling, including zero-delay and into earlier buckets.
    def nest(depth: int) -> None:
        log.append(("nest", depth, sim.now))
        if depth:
            sim.schedule(0.0, nest, depth - 1)
            sim.schedule(0.004, nest, 0)  # lands inside the current bucket
    sim.schedule_at(2.0, nest, 3)
    # Cancellations interleaved with live events.
    doomed = [sim.schedule_at(2.5, log.append, ("never", i)) for i in range(50)]
    for handle in doomed[::2]:
        handle.cancel()
    sim.schedule_at(2.5, lambda: [h.cancel() for h in doomed[1::2]])
    # A batch of fire-and-forget events.
    times = [0.25 * k for k in range(1, 9)]
    sim.schedule_batch(log.append, times, [(("batch", k),) for k in range(8)])


class TestCalendarScheduler:
    def test_rejects_unknown_scheduler(self):
        with pytest.raises(ValueError):
            Simulator(scheduler="wheel")

    def test_rejects_non_positive_bucket(self):
        with pytest.raises(ValueError):
            Simulator(scheduler="calendar", calendar_bucket_s=0.0)

    def test_matches_heap_order_exactly(self):
        logs = []
        for scheduler in ("heap", "calendar"):
            sim = Simulator(scheduler=scheduler)
            log: list = []
            _mixed_workload(sim, log)
            sim.run_until(5.0)
            assert sim.pending_count == 0
            logs.append(log)
        assert logs[0] == logs[1]

    def test_step_and_run_agree(self):
        sim_a = Simulator(scheduler="calendar")
        sim_b = Simulator(scheduler="calendar")
        log_a: list = []
        log_b: list = []
        _mixed_workload(sim_a, log_a)
        _mixed_workload(sim_b, log_b)
        sim_a.run_until(5.0)
        while sim_b.step():
            pass
        assert log_a == log_b

    def test_schedule_into_earlier_bucket_while_draining(self):
        # With a large bucket the current bucket spans [0, 10): an event
        # executed at t=1 schedules one at t=0.5 -- the queue must not run
        # it (the past is rejected) but an earlier *bucket* insert from a
        # later bucket must still win over the current remainder.
        sim = Simulator(scheduler="calendar", calendar_bucket_s=1.0)
        order = []
        sim.schedule_at(5.5, order.append, "far")
        sim.schedule_at(5.2, lambda: sim.schedule_at(5.3, order.append, "mid"))
        sim.schedule_at(0.1, lambda: sim.schedule_at(0.9, order.append, "near"))
        sim.run_until(10.0)
        assert order == ["near", "mid", "far"]

    def test_compaction_on_calendar(self):
        sim = Simulator(scheduler="calendar")
        live = []
        doomed = [sim.schedule_at(100.0 + i, live.append, "no") for i in range(200)]
        sim.schedule_at(1.0, live.append, "yes")
        for handle in doomed:
            handle.cancel()
        assert sim.compactions >= 1
        assert sim.pending_count < 201  # tombstones actually freed
        sim.run_until(300.0)  # past every tombstone's timestamp
        assert live == ["yes"]
        assert sim.pending_count == 0


class TestScheduleBatch:
    def test_parallel_sequences(self, sim):
        seen = []
        count = sim.schedule_batch(
            lambda tag, n: seen.append((tag, n)),
            [0.3, 0.1, 0.2],
            [("a", 0), ("b", 1), ("c", 2)],
        )
        assert count == 3
        sim.run_until(1.0)
        assert seen == [("b", 1), ("c", 2), ("a", 0)]

    def test_past_time_rejected(self, sim):
        sim.run_until(5.0)
        with pytest.raises(ValueError):
            sim.schedule_batch(lambda: None, [4.0], [()])

    @pytest.mark.parametrize("scheduler", ["heap", "calendar"])
    def test_rejected_batch_leaves_queue_untouched(self, scheduler):
        # A past time in the *middle* of a batch must reject the whole
        # batch before anything is enqueued or a sequence number is used.
        sim = Simulator(scheduler=scheduler)
        sim.run_until(5.0)
        fired = []
        with pytest.raises(ValueError):
            sim.schedule_batch(fired.append, [6.0, 4.0], [("a",), ("b",)])
        assert sim.pending_count == 0
        sim.schedule_at(6.0, fired.append, "plain")
        sim.schedule_batch(fired.append, [6.0], [("batch",)])
        assert sim.pending_count == 2
        sim.run_until(10.0)
        assert fired == ["plain", "batch"]
        assert sim.pending_count == 0

    def test_mismatched_lengths_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.schedule_batch(lambda: None, [1.0, 2.0], [()])
        assert sim.pending_count == 0

    def test_ties_with_schedule_interleave_by_insertion(self, sim):
        order = []
        sim.schedule_at(1.0, order.append, "plain-1")
        sim.schedule_batch(order.append, [1.0, 1.0], [("batch-1",), ("batch-2",)])
        sim.schedule_at(1.0, order.append, "plain-2")
        sim.run_until(1.0)
        assert order == ["plain-1", "batch-1", "batch-2", "plain-2"]

    def test_batch_entries_are_fire_and_forget(self, sim, monkeypatch):
        # Batch events carry no ScheduledEvent handle at all, yet each one
        # counts as a pending event until it runs.
        created = []

        class CountingEvent(kernel.ScheduledEvent):
            __slots__ = ()

            def __init__(self, *args):
                created.append(args)
                super().__init__(*args)

        monkeypatch.setattr(kernel, "ScheduledEvent", CountingEvent)
        fired = []
        sim.schedule_batch(fired.append, [0.1] * 16, [(k,) for k in range(16)])
        assert sim.pending_count == 16
        sim.run_until(1.0)
        assert created == []
        assert fired == list(range(16))
        assert sim.pending_count == 0
        assert sim.events_processed == 16

    @pytest.mark.parametrize("scheduler", ["heap", "calendar"])
    def test_raising_callback_keeps_rest_of_batch_queued(self, scheduler):
        sim = Simulator(scheduler=scheduler)
        fired = []

        def deliver(k):
            fired.append(k)
            if k == 2:
                raise RuntimeError("boom")

        sim.schedule_batch(deliver, [1.0 + 0.1 * k for k in range(6)], [(k,) for k in range(6)])
        with pytest.raises(RuntimeError, match="boom"):
            sim.run_until(5.0)
        assert fired == [0, 1, 2]
        assert sim.pending_count == 3
        sim.run_until(5.0)
        assert fired == list(range(6))
        assert sim.pending_count == 0

    def test_repeated_batches_preserve_args(self, sim):
        seen = []
        for round_no in range(3):
            base = sim.now
            sim.schedule_batch(
                lambda r, k: seen.append((r, k)),
                [base + 0.1 * (k + 1) for k in range(5)],
                [(round_no, k) for k in range(5)],
            )
            sim.run_until(base + 1.0)
        assert seen == [(r, k) for r in range(3) for k in range(5)]


class TestBatchCompactionInteraction:
    """Compaction must keep fire-and-forget entries while dropping
    cancelled ScheduledEvent tombstones around them."""

    def test_compaction_preserves_batch_entries(self, sim):
        fired = []
        sim.schedule_batch(fired.append, [100.0 + i for i in range(10)],
                           [(i,) for i in range(10)])
        doomed = [sim.schedule_at(150.0 + i, fired.append, -i) for i in range(200)]
        for handle in doomed:
            handle.cancel()
        assert sim.compactions >= 1
        # The tombstones are freed; the batch items all still count.
        assert 10 <= sim.pending_count < 210
        sim.run_until(300.0)
        assert fired == list(range(10))
        assert sim.pending_count == 0

    @pytest.mark.parametrize("scheduler", ["heap", "calendar"])
    def test_compaction_inside_a_batch_callback(self, scheduler):
        # The first batch item cancels enough timers to compact the queue,
        # then schedules an event that must run before the next item.
        sim = Simulator(scheduler=scheduler)
        order = []
        doomed = [sim.schedule_at(10.0, order.append, "never") for _ in range(100)]

        def first(tag):
            order.append(tag)
            for handle in doomed:
                handle.cancel()
            sim.schedule_at(1.5, order.append, "pushed")

        sim.schedule_batch(
            lambda tag: first(tag) if tag == "item-0" else order.append(tag),
            [1.0, 2.0, 3.0],
            [("item-0",), ("item-1",), ("item-2",)],
        )
        sim.run_until(20.0)
        assert sim.compactions >= 1
        assert order == ["item-0", "pushed", "item-1", "item-2"]

    def test_compaction_on_calendar_preserves_batch_entries(self):
        sim = Simulator(scheduler="calendar")
        fired = []
        sim.schedule_batch(fired.append, [100.0 + i for i in range(10)],
                           [(i,) for i in range(10)])
        doomed = [sim.schedule_at(150.0 + i, fired.append, -i) for i in range(200)]
        for handle in doomed:
            handle.cancel()
        assert sim.compactions >= 1
        assert sim.pending_count < 210
        sim.run_until(300.0)
        assert fired == list(range(10))


class TestRunCleanState:
    def test_max_events_leaves_clean_resumable_state(self, sim):
        ticks = []

        def tick():
            ticks.append(sim.now)
            if len(ticks) < 500:
                sim.schedule(1.0, tick)

        sim.schedule(1.0, tick)
        with pytest.raises(RuntimeError, match="max_events=100"):
            sim.run(max_events=100)
        # Clean state: not running, clock at the last executed event, the
        # remaining queue intact -- and the run is resumable.
        assert sim.running is False
        assert sim.now == 100.0
        assert sim.pending_count == 1
        sim.run()
        assert len(ticks) == 500
        assert sim.running is False

    def test_run_until_not_marked_running_after_return(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.run_until(2.0)
        assert sim.running is False

    def test_running_is_true_inside_callback(self, sim):
        observed = []
        sim.schedule(1.0, lambda: observed.append(sim.running))
        sim.run_until(2.0)
        assert observed == [True]


class TestManagedGc:
    def test_results_identical_with_gc_managed(self):
        logs = []
        for managed in (False, True):
            sim = Simulator(gc_managed=managed)
            log: list = []
            _mixed_workload(sim, log)
            sim.run_until(5.0)
            logs.append(log)
        assert logs[0] == logs[1]

    def test_gc_reenabled_after_run(self):
        assert gc.isenabled()
        sim = Simulator(gc_managed=True)
        sim.schedule(1.0, lambda: None)
        sim.run_until(2.0)
        assert gc.isenabled()

    def test_gc_reenabled_after_runtime_error(self):
        sim = Simulator(gc_managed=True)

        def forever():
            sim.schedule(1.0, forever)

        sim.schedule(1.0, forever)
        with pytest.raises(RuntimeError):
            sim.run(max_events=10)
        assert gc.isenabled()

    def test_nested_run_does_not_reenable_early(self):
        # A callback that itself drives the simulator (run_until on a
        # sub-interval is not allowed, but run() on a drained queue is a
        # no-op) must not re-enable GC for the outer loop.
        sim = Simulator(gc_managed=True)
        states = []

        def probe():
            states.append(gc.isenabled())

        sim.schedule(1.0, probe)
        sim.schedule(2.0, probe)
        sim.run_until(3.0)
        assert states == [False, False]
        assert gc.isenabled()


class TestEarlierBucketDirtyFlag:
    """The run loop's earlier-bucket re-check is gated on a flag set at
    insert time (``_cal_earlier``).  These pin the one scenario that
    needs it: the clock idles behind a partially drained bucket, then an
    insert lands in an *earlier* bucket than the current remainder."""

    def test_idle_insert_into_earlier_bucket_wins_over_remainder(self):
        sim = Simulator(scheduler="calendar", calendar_bucket_s=0.01)
        order: list = []
        # Two events in one far-future bucket; drain only the first.
        sim.schedule_at(1.000, order.append, "first")
        sim.schedule_at(1.009, order.append, "remainder")
        sim.run_until(1.000)
        assert order == ["first"]
        # The clock idles behind the remainder; schedule into an earlier
        # bucket, both via a handle and via the batch fast path.
        sim.schedule_at(1.002, order.append, "earlier-handle")
        sim.schedule_batch(order.append, [1.003], [("earlier-batch",)])
        sim.run_until(2.0)
        assert order == ["first", "earlier-handle", "earlier-batch", "remainder"]

    def test_step_also_respects_earlier_insert(self):
        sim = Simulator(scheduler="calendar", calendar_bucket_s=0.01)
        order: list = []
        sim.schedule_at(1.000, order.append, "first")
        sim.schedule_at(1.009, order.append, "remainder")
        sim.run_until(1.000)
        sim.schedule_at(1.002, order.append, "earlier")
        while sim.step():
            pass
        assert order == ["first", "earlier", "remainder"]
