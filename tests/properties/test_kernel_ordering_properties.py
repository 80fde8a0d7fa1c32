"""Property tests for the kernel's event ordering across queue shapes.

Random interleavings of ``schedule``, ``schedule_at`` and
``schedule_batch`` (non-monotone batches, equal-time ties, batches
scheduled from inside callbacks at ``now``, cancels that force
compaction) driven by ``run_until``, ``step`` and ``run(max_events)``.
A reference model checks every executed event against the pending set:
it must be the ``(time, insertion order)`` minimum.  The heap and the
calendar queue must produce the same execution log, and the event
counters must be exact at every sample-hook call.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.kernel import Simulator

# Multiples of 0.5 s: exact float sums and plenty of equal-time ties.
_delay = st.integers(min_value=0, max_value=6).map(lambda k: k * 0.5)

# How many live handles one cancel op cancels (bursts force compaction).
_burst = st.integers(min_value=1, max_value=4)

# What an executed event does in turn (nested events do nothing).
_child = st.one_of(
    st.tuples(st.just("at"), _delay),
    st.tuples(st.just("batch"), st.lists(_delay, max_size=5)),
    st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=30), _burst),
)
_children = st.lists(_child, max_size=3).map(tuple)

_op = st.one_of(
    st.tuples(st.just("at"), _delay, _children),
    st.tuples(st.just("delay"), _delay, _children),
    st.tuples(st.just("batch"), st.lists(_delay, max_size=8), _children),
    st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=30), _burst),
    st.tuples(st.just("run_until"), _delay),
    st.tuples(st.just("step"),),
    st.tuples(st.just("run"), st.integers(min_value=1, max_value=6)),
)


class _Driver:
    """Applies one op sequence to a simulator and to the reference model."""

    def __init__(self, scheduler: str) -> None:
        self.sim = Simulator(scheduler=scheduler)
        # Compact whenever tombstones are the majority, so compaction
        # also happens while a batch run is executing.
        self.sim.COMPACT_MIN_CANCELLED = 1
        self.sim.set_sample_hook(self._sample, every=1)
        self.log = []
        #: reference model: insertion id -> time, for live unexecuted events
        self.pending = {}
        self.handles = []
        self.next_id = 0
        self.executed = 0
        self.samples = 0

    def _new_ids(self, times):
        first = self.next_id
        self.next_id += len(times)
        for offset, time in enumerate(times):
            self.pending[first + offset] = time
        return range(first, self.next_id)

    def _fire(self, ident, children):
        key = (self.sim.now, ident)
        assert key == min((time, i) for i, time in self.pending.items())
        del self.pending[ident]
        self.executed += 1
        self.log.append(key)
        for child in children:
            self.apply(child)

    def _sample(self, now, events_processed):
        self.samples += 1
        assert events_processed == self.executed
        assert self.sim.events_processed == self.executed
        live = self.sim.pending_count - self.sim.cancelled_pending
        assert live == len(self.pending)

    def apply(self, op) -> None:
        sim = self.sim
        kind = op[0]
        if kind in ("at", "delay"):
            children = op[2] if len(op) > 2 else ()
            (ident,) = self._new_ids([sim.now + op[1]])
            if kind == "at":
                handle = sim.schedule_at(sim.now + op[1], self._fire, ident, children)
            else:
                handle = sim.schedule(op[1], self._fire, ident, children)
            self.handles.append((ident, handle))
        elif kind == "batch":
            children = op[2] if len(op) > 2 else ()
            times = [sim.now + delay for delay in op[1]]
            ids = self._new_ids(times)
            count = sim.schedule_batch(
                self._fire, times, [(ident, children) for ident in ids]
            )
            assert count == len(times)
        elif kind == "cancel":
            live = [(i, h) for i, h in self.handles if i in self.pending]
            for ident, handle in live[op[1] % max(len(live), 1):][: op[2]]:
                handle.cancel()
                del self.pending[ident]
        elif kind == "run_until":
            horizon = sim.now + op[1]
            sim.run_until(horizon)
            assert sim.now == horizon
            assert all(time > horizon for time in self.pending.values())
        elif kind == "step":
            ran = sim.step()
            assert ran or not self.pending
        elif kind == "run":
            try:
                sim.run(max_events=op[1])
            except RuntimeError:
                pass
            else:
                assert not self.pending
        self.check_counters()

    def check_counters(self) -> None:
        sim = self.sim
        assert sim.events_processed == self.executed
        assert sim.pending_count - sim.cancelled_pending == len(self.pending)


class TestKernelOrderingProperties:
    @settings(max_examples=300, deadline=None)
    @given(ops=st.lists(_op, max_size=30))
    def test_heap_and_calendar_follow_the_reference_order(self, ops):
        logs = []
        for scheduler in ("heap", "calendar"):
            driver = _Driver(scheduler)
            for op in ops:
                driver.apply(op)
            # Drain whatever is left.
            driver.apply(("run_until", 1000.0))
            assert not driver.pending
            assert driver.sim.pending_count == 0
            assert driver.samples == driver.executed
            logs.append(driver.log)
        assert logs[0] == logs[1]
