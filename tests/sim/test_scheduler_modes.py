"""Scheduler ordering specification, and timer-cancellation hygiene
under a macro-shaped load.

The scheduler keeps two containers — a tuple heap for future work and a
FIFO ready queue for zero-delay events — behind one contract: events
fire in strictly increasing ``(time, seq)`` order, every scheduled,
uncancelled event fires exactly once, and no cancelled event fires.
The tests check that contract with the specification itself as the
oracle, and pin a seeded sustained macro's work counters exactly, so
any change to event selection shows up as a counter diff.
"""

import random

import pytest

import repro.bench.macro as macro
from repro.sim.simulator import Simulator


def _random_workload(sim: Simulator, fired: list, seed: int) -> list:
    """Schedule a deterministic tangle: mixed delays, zero-delay
    cascades, absolute-time ties, and cancellations.

    Each firing appends ``(now, event)`` to ``fired``. Returns every
    event scheduled, cascades included once the run is over.
    """
    rng = random.Random(seed)
    scheduled: list = []

    def track(schedule, when):
        # The callback gets a cell holding its own event, so a firing
        # is recorded from the event object itself.
        cell: list = []
        event = schedule(when, fire, cell)
        cell.append(event)
        scheduled.append(event)
        return event

    def fire(cell):
        fired.append((sim.now, cell[0]))
        if rng.random() < 0.4:
            track(sim.schedule, 0.0)  # ready-queue cascade
        if rng.random() < 0.3:
            track(sim.schedule, rng.choice([0.0, 1.0, 2.5]))

    cancellable = []
    for _ in range(200):
        event = track(sim.schedule, rng.uniform(0.0, 50.0))
        if rng.random() < 0.5:
            cancellable.append(event)
        if rng.random() < 0.2:
            track(sim.schedule_at, round(rng.uniform(0.0, 50.0)))
    for event in cancellable[::2]:
        event.cancel()
    return scheduled


def _assert_specification(fired: list, scheduled: list) -> None:
    keys = [(event.time, event.seq) for _now, event in fired]
    assert all(now == event.time for now, event in fired)
    assert all(a < b for a, b in zip(keys, keys[1:]))
    fired_seqs = [event.seq for _now, event in fired]
    assert len(fired_seqs) == len(set(fired_seqs))
    assert not any(event.cancelled for _now, event in fired)
    expected = {event.seq for event in scheduled if not event.cancelled}
    assert set(fired_seqs) == expected


class TestSchedulerModeEquivalence:
    """The ordering contract shared by the heap and the ready queue."""

    @pytest.mark.parametrize("seed", [1, 7, 23])
    def test_fire_order_follows_spec(self, seed):
        sim = Simulator(seed=seed)
        fired: list = []
        scheduled = _random_workload(sim, fired, seed)
        sim.run()
        assert any(event.cancelled for event in scheduled)
        _assert_specification(fired, scheduled)
        assert sim.pending_events == 0

    def test_run_until_stops_at_bound(self):
        sim = Simulator(seed=3)
        fired: list = []
        scheduled = _random_workload(sim, fired, 3)
        sim.run(until=20.0)
        assert sim.now == 20.0
        assert fired and all(event.time <= 20.0 for _now, event in fired)
        keys = [(event.time, event.seq) for _now, event in fired]
        assert all(a < b for a, b in zip(keys, keys[1:]))
        # Resuming fires the rest: the split run meets the whole-run
        # specification.
        sim.run()
        _assert_specification(fired, scheduled)

    def test_zero_delay_interleaves_with_same_time_heap_event(self):
        """A schedule_at for the current instant with a smaller seq must
        fire before a later-scheduled zero-delay event."""
        sim = Simulator(seed=0)
        fired = []
        sim.schedule_at(0.0, fired.append, "heap-first")
        sim.schedule(0.0, fired.append, "ready-second")
        sim.run()
        assert fired == ["heap-first", "ready-second"]

    def test_cancelled_ready_event_never_fires(self):
        sim = Simulator(seed=0)
        fired = []
        event = sim.schedule(0.0, fired.append, "doomed")
        sim.schedule(0.0, fired.append, "kept")
        event.cancel()
        sim.run()
        assert fired == ["kept"]


class TestMacroShapedCancellation:
    """Regression: protocol timers (PBFT watchdogs, daemon retransmits,
    signature-collection deadlines) must be *cancelled* when their work
    completes, and the cancelled population must actually reach the
    compaction sweep — before this, macros fired thousands of dead
    timers and compaction never ran outside synthetic tests."""

    #: Exact work counters of ``_make_sustained(seed=11)`` at 300 ops.
    #: Any change to event selection, transport scheduling or timer
    #: cancellation moves at least one of them.
    GOLDEN = {
        "completed_ops": 300,
        "events_processed": 18470,
        "messages_sent": 11718,
        "virtual_ms": 1000.0,
        "timers_cancelled": 1935,
        "heap_compactions": 29,
        "retained_high_water": 182,
    }

    def _sustained(self, monkeypatch) -> dict:
        monkeypatch.setattr(macro, "SUSTAINED_OPS", 300)
        operation, _ops = macro._make_sustained(seed=11)
        return operation()

    def test_sustained_macro_cancels_and_compacts(self, monkeypatch):
        stats = self._sustained(monkeypatch)
        # Healthy-path timers (request retries, slot watchdogs, ship
        # retransmits) complete long before they fire; each completion
        # must cancel its timer instead of leaving a guaranteed no-op
        # firing in the heap.
        assert stats["timers_cancelled"] > 100
        # Enough tombstones accumulate between firings that the
        # compaction sweep must trigger under real load, not only in
        # synthetic mass-cancellation tests.
        assert stats["heap_compactions"] > 0

    def test_sustained_macro_golden_counters(self, monkeypatch):
        stats = self._sustained(monkeypatch)
        assert {key: stats[key] for key in self.GOLDEN} == self.GOLDEN
