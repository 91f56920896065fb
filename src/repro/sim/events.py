"""Scheduled events for the discrete-event simulator.

An :class:`Event` is a callback scheduled at a virtual timestamp. Events
are ordered by ``(time, seq)`` where ``seq`` is a monotonically increasing
insertion counter — two events at the same instant always fire in the
order they were scheduled, which keeps every simulation deterministic.

The simulator (see :mod:`repro.sim.simulator`) stores heap entries as
plain ``(time, seq, event)`` tuples, so ordering is resolved by C-level
tuple comparison and events themselves need no ordering methods.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Optional, Tuple


@dataclasses.dataclass(slots=True)
class Event:
    """A callback scheduled on the simulator's virtual clock.

    Attributes:
        time: Virtual timestamp (milliseconds) at which the event fires.
        seq: Insertion sequence number used to break timestamp ties.
        fn: The callback to invoke.
        args: Positional arguments passed to ``fn``.
        cancelled: When true the event is skipped at fire time. Use
            :meth:`cancel` rather than mutating this directly.
        owner: The simulator whose heap currently holds this event; set
            at schedule time and cleared when the event leaves the heap.
            Lets :meth:`cancel` report to the owner's live-event
            counters without the simulator scanning its heap.
        fast: True when the event lives in the owner's zero-delay ready
            queue instead of the time-ordered heap. Maintained by the
            simulator; cancellation bookkeeping differs between the two
            containers (ready-queue tombstones are swept in FIFO order,
            never compacted).
    """

    time: float
    seq: int
    fn: Callable[..., Any]
    args: Tuple[Any, ...] = ()
    cancelled: bool = False
    owner: Optional[Any] = dataclasses.field(default=None, repr=False)
    fast: bool = False

    def cancel(self) -> None:
        """Prevent this event from firing.

        Cancelling is O(1): the event stays in its queue as a tombstone
        and is discarded when popped (or swept by the owner's
        compaction pass if tombstones come to dominate the heap).
        Cancelling an event that already fired, or a second time, is a
        no-op.
        """
        if self.cancelled:
            return
        self.cancelled = True
        owner = self.owner
        if owner is not None:
            owner._note_cancelled(self)
