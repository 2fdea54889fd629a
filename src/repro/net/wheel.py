"""Future-event list for the interconnect timing model.

Pending events live on one ``(time, seq, fn)`` min-heap; ``seq`` is a
monotone counter, so two events at the same time fire in scheduling
order and the model is deterministic.  Popping the next event jumps
straight to its time, so idle gaps between network events (memory
latency, far-future completions) cost nothing.

Events are plain callbacks invoked as ``fn(time)``.  Callbacks may
schedule further events at or after the time currently being processed;
scheduling into the past clamps to the present, which is how the
near-sorted request streams of the multiprocessor executor (per-thread
virtual clocks, batched slices) are absorbed without a global sort.
"""

from __future__ import annotations

from heapq import heappop, heappush


class EventWheel:
    """Heap-ordered future-event list."""

    __slots__ = ("_heap", "_now", "_running", "_seq")

    def __init__(self) -> None:
        self._heap: list = []  # (time, seq, fn)
        self._now = 0
        self._running = False
        self._seq = 0

    def schedule(self, time: int, fn) -> None:
        """Enqueue ``fn`` to run at ``time``.

        While events are in flight, scheduling into the past clamps to
        the present (time never rewinds mid-run).  With no events
        pending the clock simply rewinds — each network transaction is
        resolved to quiescence, so a later query carrying an earlier
        per-CPU timestamp starts a fresh, correctly-timed run.
        """
        if time < self._now:
            if self._running or self._heap:
                time = self._now
            else:
                self._now = time
        self._seq += 1
        heappush(self._heap, (time, self._seq, fn))

    def run(self) -> int:
        """Process every pending event in time order; returns the final
        time.  The list stays usable afterwards."""
        heap = self._heap
        self._running = True
        try:
            while heap:
                time, _, fn = heappop(heap)
                self._now = time
                # ``_running`` keeps the list non-idle while the callback
                # runs, so scheduling into the past clamps to the present.
                fn(time)
        finally:
            self._running = False
        return self._now
