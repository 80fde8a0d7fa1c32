"""The benchmark's correctness ledger, kept outside the system under test.

The ledger sits at the application boundary of every client the benchmark
(or the RGame workload) creates: it wraps the client *instance's*
``publish``, ``subscribe`` and ``unsubscribe`` and the delivery callback
handed to ``subscribe``.  From what the application asked for and what the
application saw it derives:

* **expected** deliveries -- every window publication on a channel paired
  with every subscription interval that covers it with ``settle_s`` of
  slack on both ends (a subscribe or unsubscribe races publications that
  are already in flight, so the edges are neither owed nor counted lost);
* **lost** -- expected deliveries never seen by the application;
* **late** -- expected deliveries whose first arrival took longer than the
  latency limit (``sla_s``, 150 ms in the paper);
* **app-visible duplicates** -- a publication reaching one subscription's
  callback more than once -- and, when a hook installs the client's
  ``on_wire_delivery`` tap (the traced run does), **duplicates**: extra
  copies arriving off the wire before the client's own sequence/msg-id
  suppression.  The tap costs about a tenth of ``fanout_hot``'s
  throughput, so untraced runs go without it;
* the simulated publish-to-callback latency of every first delivery, in
  arrival order, which is also the determinism digest of the run.

Memory stays at two bytes per delivery: each subscription interval owns
two ``bytearray``s indexed by the channel-local number of the window
publication -- callback marks (0 = unseen, 1 = on time, 2 = late, +4 =
seen again) and wire marks (0 = unseen, 1 = seen).
"""

from __future__ import annotations

import hashlib
from array import array
from bisect import bisect_left, bisect_right
from typing import Any, Callable, Dict, List, Optional

#: ``hook(kind, fn) -> fn'`` wraps each callable the ledger hands a client:
#: kind ``"deliver"`` (the subscription callback) or ``"wire"`` (the
#: ``on_wire_delivery`` tap, installed only when a hook is given).  The
#: traced run wraps both in spans; the benchmark's tests drop deliveries
#: before the ledger sees them.
CallbackHook = Callable[[str, Callable[..., None]], Callable[..., None]]


class _Interval:
    """One app-level subscription of one client to one channel."""

    __slots__ = ("channel", "t_sub", "t_unsub", "base", "marks", "wire", "count")

    def __init__(self, channel: str, t_sub: float, base: int) -> None:
        self.channel = channel
        self.t_sub = t_sub
        self.t_unsub = float("inf")
        #: channel-local number of the first window publication that can
        #: belong to this interval (publications before it never can)
        self.base = base
        self.marks = bytearray()
        self.wire = bytearray()
        #: callback invocations, duplicates included
        self.count = 0


class Ledger:
    """Publications, subscription intervals and deliveries of one run."""

    def __init__(
        self,
        sim: Any,
        window_start: float,
        window_end: float,
        *,
        settle_s: float,
        sla_s: float = 0.150,
        callback_hook: Optional[CallbackHook] = None,
    ) -> None:
        self._sim = sim
        self.window_start = window_start
        self.window_end = window_end
        self.settle_s = settle_s
        self.sla_s = sla_s
        self._hook = callback_hook
        #: channel -> publish times of its window publications, in order
        self._pub_times: Dict[str, List[float]] = {}
        #: msg id -> channel-local publication number (window only)
        self._pub_number: Dict[str, int] = {}
        self._intervals: List[_Interval] = []
        #: first-arrival latencies (seconds), in arrival order
        self.latencies = array("d")
        #: sim time of the newest first arrival
        self.last_delivery_t = window_start
        self.app_duplicates = 0
        self.duplicates = 0
        self.publications = 0

    # ------------------------------------------------------------------
    # Attaching to clients
    # ------------------------------------------------------------------
    def attach(self, client: Any) -> Any:
        """Route ``client``'s pub/sub calls through the ledger; returns it."""
        publish = client.publish
        subscribe = client.subscribe
        unsubscribe = client.unsubscribe
        current: Dict[str, _Interval] = {}
        sim = self._sim
        numbers = self._pub_number

        def ledger_publish(channel: str, body: Any, payload_size: int) -> str:
            msg_id = publish(channel, body, payload_size)
            now = sim.now
            if self.window_start <= now < self.window_end:
                times = self._pub_times.setdefault(channel, [])
                numbers[msg_id] = len(times)
                times.append(now)
                self.publications += 1
            return msg_id

        def ledger_subscribe(channel: str, callback: Any) -> None:
            interval = current.get(channel)
            if interval is None:
                interval = _Interval(
                    channel, sim.now, len(self._pub_times.get(channel, ()))
                )
                self._intervals.append(interval)
                current[channel] = interval
            deliver = self._callback(interval, callback)
            if self._hook is not None:
                deliver = self._hook("deliver", deliver)
            subscribe(channel, deliver)

        def ledger_unsubscribe(channel: str) -> None:
            interval = current.pop(channel, None)
            if interval is not None:
                interval.t_unsub = sim.now
            unsubscribe(channel)

        def on_wire(channel: str, delivery: Any) -> None:
            interval = current.get(channel)
            if interval is None:
                return
            number = numbers.get(delivery.payload.msg_id)
            if number is None or number < interval.base:
                return
            offset = number - interval.base
            seen = interval.wire
            if offset >= len(seen):
                seen.extend(bytes(offset + 64 - len(seen)))
            if seen[offset]:
                self.duplicates += 1
            else:
                seen[offset] = 1

        client.publish = ledger_publish
        client.subscribe = ledger_subscribe
        client.unsubscribe = ledger_unsubscribe
        if self._hook is not None:
            client.on_wire_delivery = self._hook("wire", on_wire)
        return client

    def _callback(
        self, interval: _Interval, app_callback: Optional[Callable[..., None]]
    ) -> Callable[..., None]:
        sim = self._sim
        numbers = self._pub_number
        marks = interval.marks
        base = interval.base
        sla = self.sla_s
        record = self.latencies.append

        def on_delivery(channel: str, body: Any, envelope: Any) -> None:
            interval.count += 1
            number = numbers.get(envelope.msg_id)
            if number is not None and number >= base:
                offset = number - base
                if offset >= len(marks):
                    marks.extend(bytes(offset + 64 - len(marks)))
                mark = marks[offset]
                if mark:
                    marks[offset] = mark | 4
                    self.app_duplicates += 1
                else:
                    now = sim.now
                    latency = now - envelope.sent_at
                    marks[offset] = 1 if latency <= sla else 2
                    record(latency)
                    self.last_delivery_t = now
            if app_callback is not None:
                app_callback(channel, body, envelope)

        return on_delivery

    # ------------------------------------------------------------------
    # Verdict
    # ------------------------------------------------------------------
    def delivery_count(self) -> int:
        """Callback invocations so far, duplicates included."""
        return sum(i.count for i in self._intervals)

    def report(self) -> Dict[str, Any]:
        """Expected/lost/late counts, latency percentiles and the digest."""
        expected = lost = late = 0
        settle = self.settle_s
        for interval in self._intervals:
            times = self._pub_times.get(interval.channel)
            if not times:
                continue
            first = max(bisect_left(times, interval.t_sub + settle), interval.base)
            last = bisect_right(times, interval.t_unsub - settle)
            if last <= first:
                continue
            owed = last - first
            seen = interval.marks[first - interval.base:last - interval.base]
            expected += owed
            lost += seen.count(0) + (owed - len(seen))
            late += seen.count(2) + seen.count(6)
        ordered = sorted(self.latencies)
        return {
            "publications": self.publications,
            "deliveries": self.delivery_count(),
            "first_deliveries": len(ordered),
            "expected": expected,
            "lost": lost,
            "late": late,
            "duplicates": self.duplicates,
            "app_duplicates": self.app_duplicates,
            "latency_p50_s": percentile(ordered, 0.50),
            "latency_p999_s": percentile(ordered, 0.999),
            "last_delivery_t": self.last_delivery_t,
            "digest": hashlib.sha256(self.latencies.tobytes()).hexdigest(),
        }


def percentile(ordered: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (0.0 when empty)."""
    if not ordered:
        return 0.0
    rank = max(1, -(-int(q * 1_000_000) * len(ordered) // 1_000_000))
    return ordered[min(rank, len(ordered)) - 1]
