"""The discrete-event simulation engine.

:class:`Simulator` owns the virtual clock, the event queues and the
seeded random generator. Everything else in the library —
network links, consensus protocols, the middleware, workloads — schedules
work through it, so a whole deployment advances deterministically from a
single seed.

The scheduler keeps two containers behind one API. Heap entries are
plain ``(time, seq, event)`` tuples, so heap sift comparisons resolve at
C speed. Zero-delay events — the deliver→handle→send cascades produced
by the generator-process machinery, the dominant event class in macros
— skip the heap entirely and go through a FIFO ready queue; the heap is
reserved for genuinely future work (timers, RTT-delayed arrivals).

Events fire in exactly ``(time, seq)`` order: ready-queue events always
carry the current virtual time (zero delay), the queue drains in seq
order before the clock can advance, and a same-time heap entry with a
smaller seq is fired ahead of the ready head.
"""

from __future__ import annotations

import heapq
from collections import deque
import random
from typing import Any, Callable, Generator, Optional

from repro.errors import SimulationError
from repro.sim.events import Event


class Simulator:
    """A deterministic discrete-event simulator with a millisecond clock.

    Args:
        seed: Seed for the simulation's random generator.

    Example:
        >>> sim = Simulator(seed=7)
        >>> fired = []
        >>> _ = sim.schedule(5.0, fired.append, "a")
        >>> _ = sim.schedule(1.0, fired.append, "b")
        >>> sim.run()
        >>> fired
        ['b', 'a']
        >>> sim.now
        5.0
    """

    #: Tombstone floor: compaction never triggers below this heap size
    #: (rebuilding tiny heaps would cost more than the tombstones do).
    COMPACT_MIN_TOMBSTONES = 64

    def __init__(self, seed: int = 0) -> None:
        self.now: float = 0.0
        self.rng = random.Random(seed)
        self._heap: list = []
        # Zero-delay ready queue. Invariant: every event in it has
        # ``time == self.now``; the queue drains before the clock
        # advances, so FIFO order here is exactly seq order.
        self._ready: deque = deque()
        self._seq = 0
        self._events_processed = 0
        self._running = False
        # Live/tombstone counters keep ``pending_events`` O(1) and
        # drive tombstone compaction; maintained by the schedule/cancel/
        # pop paths (events report their own cancellation via
        # ``Event.owner``). Ready-queue tombstones are tracked
        # separately: they are swept lazily at the queue head and never
        # participate in heap compaction (the queue drains within the
        # current virtual instant, so they cannot accumulate).
        self._live = 0
        self._tombstones = 0
        self._ready_tombstones = 0
        self._compactions = 0
        self._events_cancelled = 0

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` milliseconds from now.

        Args:
            delay: Non-negative offset from the current virtual time.
            fn: Callback to invoke.
            *args: Positional arguments for the callback.

        Returns:
            The scheduled :class:`Event`; call its :meth:`Event.cancel`
            to revoke it.

        Raises:
            SimulationError: If ``delay`` is negative.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay} ms in the past")
        # ``delay >= 0`` already guarantees ``when >= now``, so the
        # relative form pushes directly instead of re-validating through
        # :meth:`schedule_at` (this is the hottest call in the library —
        # every message hop and timer goes through it).
        seq = self._seq
        self._seq = seq + 1
        self._live += 1
        if delay == 0.0:
            event = Event(self.now, seq, fn, args, False, self, True)
            self._ready.append(event)
        else:
            when = self.now + delay
            event = Event(when, seq, fn, args, False, self)
            heapq.heappush(self._heap, (when, seq, event))
        return event

    def schedule_at(self, when: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute virtual time ``when``."""
        if when < self.now:
            raise SimulationError(
                f"cannot schedule at t={when} before current time t={self.now}"
            )
        seq = self._seq
        self._seq = seq + 1
        self._live += 1
        event = Event(when, seq, fn, args, False, self)
        heapq.heappush(self._heap, (when, seq, event))
        return event

    def _note_cancelled(self, event: Event) -> None:
        """Called by :meth:`Event.cancel` while the event is queue-held.

        Keeps the live count exact and sweeps the heap once tombstones
        outnumber live events (retransmission timers cancel far more
        events than ever fire; without compaction they dominate the
        heap and every push/pop pays their log factor).
        """
        self._live -= 1
        self._events_cancelled += 1
        if event.fast:
            # Ready-queue tombstone: swept when it reaches the queue
            # head, within the current virtual instant. Kept out of the
            # heap tombstone counter so it cannot skew the compaction
            # trigger (which is sized against ``len(self._heap)``).
            self._ready_tombstones += 1
            return
        self._tombstones += 1
        if (
            self._tombstones >= self.COMPACT_MIN_TOMBSTONES
            and self._tombstones * 2 > len(self._heap)
        ):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap without tombstones (O(n), amortized free)."""
        live = []
        for entry in self._heap:
            event = entry[2]
            if event.cancelled:
                event.owner = None  # fully detached now
            else:
                live.append(entry)
        # In-place replacement: the run loop holds a direct
        # reference to the heap list across callbacks, and a callback
        # may cancel enough timers to trigger this sweep — rebinding
        # ``self._heap`` to a new list would strand that reference.
        self._heap[:] = live
        heapq.heapify(self._heap)
        self._tombstones = 0
        self._compactions += 1

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Fire the single next pending event.

        Returns:
            True if an event fired, False if no events are pending.
        """
        event = self._next_live()
        if event is None:
            return False
        self._fire(event)
        return True

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> None:
        """Run events until the queues drain or a bound is hit.

        Args:
            until: Stop once the next event would fire after this virtual
                time; the clock is advanced to ``until``.
            max_events: Stop after firing this many events (safety valve
                against livelock in buggy protocols).
        """
        if self._running:
            raise SimulationError("Simulator.run() is not reentrant")
        self._running = True
        try:
            self._run_loop(until, max_events)
        finally:
            self._running = False

    def _run_loop(
        self,
        until: Optional[float],
        max_events: Optional[int],
    ) -> None:
        """The event loop, inlined.

        Functionally identical to a :meth:`step` loop — same tombstone
        sweeps, same (time, seq) tie-break between the ready queue and
        the heap, same counter updates — but fused into one frame with
        every queue handle bound locally. The loop body runs once per
        event (hundreds of thousands of times per macro), so the two
        method calls plus a dozen attribute loads a :meth:`step` loop
        pays per event are worth eliminating. Counters
        (``now``, ``_live``, ``_events_processed``) are still written
        through ``self`` every iteration because event callbacks read
        them mid-run.

        Only called from :meth:`run` with ``_running`` held; relies on
        :meth:`_compact` mutating the heap list in place.
        """
        heap = self._heap
        ready = self._ready
        pop = heapq.heappop
        popleft = ready.popleft
        if until is None and max_events is None:
            # Unbounded drain — the macro/experiment shape (``run()``
            # with no arguments). Identical event selection without the
            # per-event bound checks of the general loop below.
            while True:
                while ready and ready[0].cancelled:
                    tombstone = popleft()
                    tombstone.owner = None
                    self._ready_tombstones -= 1
                while heap and heap[0][2].cancelled:
                    tombstone = pop(heap)[2]
                    tombstone.owner = None
                    self._tombstones -= 1
                if ready:
                    event = ready[0]
                    if heap:
                        top = heap[0]
                        if top[0] < event.time or (
                            top[0] == event.time and top[1] < event.seq
                        ):
                            event = top[2]
                elif heap:
                    event = heap[0][2]
                else:
                    return
                if event.fast:
                    popleft()
                else:
                    pop(heap)
                    self.now = event.time
                self._live -= 1
                event.owner = None
                self._events_processed += 1
                event.fn(*event.args)
        fired = 0
        limit = -1 if max_events is None else max_events
        while True:
            if fired == limit:
                return
            while ready and ready[0].cancelled:
                tombstone = popleft()
                tombstone.owner = None
                self._ready_tombstones -= 1
            while heap and heap[0][2].cancelled:
                tombstone = pop(heap)[2]
                tombstone.owner = None
                self._tombstones -= 1
            if ready:
                event = ready[0]
                if heap:
                    top = heap[0]
                    if top[0] < event.time or (
                        top[0] == event.time and top[1] < event.seq
                    ):
                        event = top[2]
            elif heap:
                event = heap[0][2]
            else:
                break
            if until is not None and event.time > until:
                if until > self.now:
                    self.now = until
                return
            if event.fast:
                popleft()
            else:
                pop(heap)
                self.now = event.time
            self._live -= 1
            event.owner = None
            self._events_processed += 1
            event.fn(*event.args)
            fired += 1
        if until is not None and until > self.now:
            self.now = until

    def run_until_resolved(self, future: "Future", max_events: int = 10_000_000):
        """Run until ``future`` resolves; return its value.

        Raises:
            SimulationError: If the event queues drain (or ``max_events``
                events fire) while the future is still pending.
        """
        fired = 0
        while not future.resolved:
            if fired >= max_events:
                raise SimulationError(
                    f"future still pending after {max_events} events"
                )
            if not self.step():
                raise SimulationError(
                    "event heap drained before the awaited future resolved"
                )
            fired += 1
        return future.result()

    def _next_live(self) -> Optional[Event]:
        """Discard tombstones at the queue fronts; return (without
        popping) the next live event, or None if everything drained.

        The next event is the (time, seq)-minimum across the ready
        queue and the heap. The ready head always carries the current
        virtual time, so the heap top only wins with an equal time and
        a smaller seq (scheduled earlier via :meth:`schedule_at`).
        """
        heap = self._heap
        ready = self._ready
        while ready and ready[0].cancelled:
            tombstone = ready.popleft()
            tombstone.owner = None
            self._ready_tombstones -= 1
        while heap and heap[0][2].cancelled:
            tombstone = heapq.heappop(heap)[2]
            tombstone.owner = None
            self._tombstones -= 1
        if ready:
            head = ready[0]
            if heap:
                top = heap[0]
                if top[0] < head.time or (
                    top[0] == head.time and top[1] < head.seq
                ):
                    return top[2]
            return head
        return heap[0][2] if heap else None

    def _fire(self, event: Event) -> None:
        """Pop ``event`` (the live front of its queue) and invoke it."""
        if event.fast:
            # Ready-queue events carry the current virtual time by
            # construction, so the clock needs no update.
            self._ready.popleft()
        else:
            heapq.heappop(self._heap)
            self.now = event.time
        self._live -= 1
        event.owner = None
        self._events_processed += 1
        event.fn(*event.args)

    @property
    def pending_events(self) -> int:
        """Number of not-yet-cancelled events still queued (O(1):
        maintained by the schedule/cancel/pop paths)."""
        return self._live

    @property
    def heap_size(self) -> int:
        """Physical queue length — heap plus ready queue, tombstones
        included (for diagnostics and the heap-hygiene regression
        tests)."""
        return len(self._heap) + len(self._ready)

    @property
    def compactions(self) -> int:
        """How many tombstone compaction sweeps have run."""
        return self._compactions

    @property
    def events_cancelled(self) -> int:
        """Total events cancelled while queued since construction."""
        return self._events_cancelled

    @property
    def events_processed(self) -> int:
        """Total number of events fired since construction."""
        return self._events_processed

    # ------------------------------------------------------------------
    # Processes
    # ------------------------------------------------------------------
    def spawn(self, generator: Generator) -> "Process":
        """Start a generator-based process; see :mod:`repro.sim.process`."""
        from repro.sim.process import Process

        process = Process(self, generator)
        process.start()
        return process

    def sleep(self, delay: float) -> "Future":
        """Return a future that resolves ``delay`` milliseconds from now.

        Intended to be ``yield``-ed from inside a process.
        """
        from repro.sim.process import Future

        future = Future(self)
        self.schedule(delay, future.resolve, None)
        return future
