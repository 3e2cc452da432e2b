"""The simulator: a clock plus an event loop.

A :class:`Simulator` drains its :class:`~repro.sim.event.EventQueue` in
time order, advancing the clock to each event's timestamp.  Simulated
processes (see :mod:`repro.sim.process`) are layered on top: spawning a
process schedules its first step as an ordinary event.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Iterable

from repro.errors import SimulationError
from repro.sim.event import Event, EventQueue, PRIORITY_NORMAL
from repro.sim.rng import RngStreams
from repro.sim.trace import NullTracer, Tracer


#: An event key: ``(time, priority, seq)``, the heap ordering triple.
EventKey = tuple[float, int, int]


def _require_nonnegative_delay(delay: float) -> None:
    """Shared negative-delay guard for every relative-scheduling entry point.

    One helper instead of four copy-pasted checks; the message is part of
    the public error contract and must not change.
    """
    if delay < 0:
        raise SimulationError(f"cannot schedule in the past: delay={delay}")


class Simulator:
    """A deterministic discrete-event simulator.

    Args:
        seed: Master seed for the simulator's named random streams.
        tracer: Event tracer; defaults to a no-op tracer.
    """

    def __init__(self, seed: int = 0, tracer: Tracer | None = None) -> None:
        self._queue = EventQueue()
        self._now = 0.0
        self._running = False
        #: Key of the event currently (or most recently) executing under
        #: :meth:`run_window` — the shard router reads it to stamp the
        #: emitting event onto cross-shard sends.  Plain :meth:`run`
        #: leaves it ``None``; serial runs never pay for the bookkeeping.
        self.current_key: EventKey | None = None
        self.rng = RngStreams(seed)
        self.tracer = tracer if tracer is not None else NullTracer()
        #: Cached ``tracer.enabled`` so hot paths pay one attribute read
        #: instead of a property call per event.  The tracer is fixed at
        #: construction time, so the flag never goes stale.
        self.trace_enabled: bool = self.tracer.enabled
        self._processes: list["Process"] = []  # noqa: F821 - forward ref
        #: Heap events fired by :meth:`step`, :meth:`run` and
        #: :meth:`run_window` so far.  A batch of same-instant message
        #: deliveries (see :func:`~repro.net.message.fire_batch`) is one
        #: event.
        self.events_fired = 0

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def pending_events(self) -> int:
        """Number of live (non-cancelled) events in the queue."""
        return len(self._queue)

    def schedule(
        self,
        delay: float,
        fn: Callable[[], Any],
        priority: int = PRIORITY_NORMAL,
    ) -> Event:
        """Schedule ``fn`` to run ``delay`` seconds from now."""
        _require_nonnegative_delay(delay)
        return self._queue.push(self._now + delay, fn, priority)

    def at(
        self,
        time: float,
        fn: Callable[[], Any],
        priority: int = PRIORITY_NORMAL,
    ) -> Event:
        """Schedule ``fn`` at absolute simulated ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule in the past: time={time} < now={self._now}"
            )
        return self._queue.push(time, fn, priority)

    def schedule_fn(
        self,
        delay: float,
        fn: Callable[[], Any],
        priority: int = PRIORITY_NORMAL,
    ) -> None:
        """Schedule ``fn`` after ``delay`` with no cancellable handle.

        The hot-path variant of :meth:`schedule` for fire-and-forget
        events; see :meth:`EventQueue.push_fn`.
        """
        _require_nonnegative_delay(delay)
        self._queue.push_fn(self._now + delay, fn, priority)

    def at_fn(
        self,
        time: float,
        fn: Callable[[], Any],
        priority: int = PRIORITY_NORMAL,
    ) -> None:
        """Schedule ``fn`` at absolute ``time`` with no cancellable handle."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule in the past: time={time} < now={self._now}"
            )
        self._queue.push_fn(time, fn, priority)

    def cancel(self, event: Event) -> None:
        """Cancel a previously scheduled event (idempotent)."""
        event.cancel()

    def spawn(
        self,
        gen: Generator[Any, Any, Any],
        name: str = "process",
    ) -> "Process":  # noqa: F821 - forward ref
        """Create and start a simulated process from a generator.

        The generator may yield floats (sleep), :class:`~repro.sim.waiters.Signal`
        or :class:`~repro.sim.waiters.Future` objects (wait), or another
        :class:`Process` (join).  See :mod:`repro.sim.process`.
        """
        from repro.sim.process import Process

        process = Process(self, gen, name)
        self._processes.append(process)
        return process

    @property
    def processes(self) -> Iterable["Process"]:  # noqa: F821
        """All processes ever spawned, in spawn order."""
        return tuple(self._processes)

    def step(self) -> float:
        """Fire the single earliest event; return the new simulated time."""
        event = self._queue.pop()
        if event.time < self._now:
            raise SimulationError(
                f"event queue went backwards: {event.time} < {self._now}"
            )
        self._now = event.time
        self.events_fired += 1
        event.fn()
        return self._now

    def run(self, until: float | None = None, max_events: int | None = None) -> float:
        """Drain the event queue.

        Args:
            until: Stop once the clock would pass this time.  Events at
                exactly ``until`` still fire.
            max_events: Safety valve; raise if more events than this fire.
                It counts heap events, like :attr:`events_fired`: a
                batch of same-instant deliveries from one fanout is one
                event, however many messages it carries.

        Returns:
            The simulated time when the run stopped.
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run)")
        self._running = True
        fired = 0
        # The loop below is a manually inlined pop/advance cycle: it
        # peeks and pops heap tuples directly instead of going through
        # EventQueue.pop + Simulator.step, which removes two Python
        # method calls per event on the hottest path in the simulator.
        # Heap entries carry a cancellable Event handle, a bare callback
        # (push_fn), or a callback plus one argument (push_call).
        queue = self._queue
        heap = queue._heap
        heappop = heapq.heappop
        event_cls = Event
        # The pop count is kept in a local and folded into the queue's
        # live count on exit: nothing observes pending_events mid-run,
        # and a local integer add is far cheaper than an attribute
        # read-modify-write per event.  Cancellations and pushes during
        # callbacks still adjust _live directly, which composes with the
        # deferred subtraction.
        popped = 0
        try:
            if until is None and max_events is None:
                # The common run-to-completion case gets the leanest
                # loop: no bound checks at all.
                while heap:
                    entry = heap[0]
                    target = entry[3]
                    is_event = target.__class__ is event_cls
                    if is_event and target.cancelled:
                        heappop(heap)
                        continue
                    time = entry[0]
                    heappop(heap)
                    popped += 1
                    if time < self._now:
                        raise SimulationError(
                            f"event queue went backwards: {time} < {self._now}"
                        )
                    self._now = time
                    if is_event:
                        target._queue = None
                        target.fn()
                    elif len(entry) == 5:
                        target(entry[4])
                    else:
                        target()
                return self._now
            # Bounded run: sentinels keep the per-event checks single
            # comparisons rather than None tests.
            time_limit = float("inf") if until is None else until
            event_limit = max_events if max_events is not None else float("inf")
            while heap:
                entry = heap[0]
                target = entry[3]
                is_event = target.__class__ is event_cls
                if is_event and target.cancelled:
                    heappop(heap)
                    continue
                time = entry[0]
                if time > time_limit:
                    self._now = until
                    break
                heappop(heap)
                popped += 1
                if time < self._now:
                    raise SimulationError(
                        f"event queue went backwards: {time} < {self._now}"
                    )
                self._now = time
                if is_event:
                    target._queue = None
                    target.fn()
                elif len(entry) == 5:
                    target(entry[4])
                else:
                    target()
                fired += 1
                if fired > event_limit:
                    raise SimulationError(
                        f"exceeded max_events={max_events}; likely a livelock"
                    )
        finally:
            queue._live -= popped
            self.events_fired += popped
            self._running = False
        return self._now

    def run_window(
        self,
        limit: EventKey,
        max_events: int | None = None,
    ) -> tuple[int, EventKey | None]:
        """Drain every event whose ``(time, priority, seq)`` key is ``< limit``.

        The shard-aware run facade: a shard's local virtual time (LVT)
        advances through this method, bounded by the coordinator's
        current horizon key (GVT plus the sync policy's window).  The
        loop is the same manually inlined, closure-free pop/advance
        cycle as :meth:`run` — the compile-ready hot path — extended
        with a full-key bound (so a replay can stop *exactly* before a
        straggler's key, mid-timestamp) and with ``current_key``
        tracking so the shard router can attribute emitted messages to
        the event that sent them.

        Args:
            limit: Exclusive upper bound key.  Events compare by
                ``(time, priority, seq)``; an event equal to ``limit``
                does not fire.
            max_events: Optional budget; the drain stops (without error)
                after this many events, used to amortize checkpoint
                replica catch-up.

        Returns:
            ``(fired, last_key)``: how many events fired and the key of
            the last one (``None`` if nothing fired).
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run)")
        self._running = True
        queue = self._queue
        heap = queue._heap
        heappop = heapq.heappop
        event_cls = Event
        limit_time, limit_priority, limit_seq = limit
        budget = max_events if max_events is not None else -1
        fired = 0
        popped = 0
        last_key: EventKey | None = None
        try:
            while heap:
                if fired == budget:
                    break
                entry = heap[0]
                target = entry[3]
                is_event = target.__class__ is event_cls
                if is_event and target.cancelled:
                    heappop(heap)
                    continue
                time = entry[0]
                if time > limit_time:
                    break
                if time == limit_time:
                    priority = entry[1]
                    if priority > limit_priority or (
                        priority == limit_priority and entry[2] >= limit_seq
                    ):
                        break
                heappop(heap)
                popped += 1
                if time < self._now:
                    raise SimulationError(
                        f"event queue went backwards: {time} < {self._now}"
                    )
                self._now = time
                last_key = (time, entry[1], entry[2])
                self.current_key = last_key
                if is_event:
                    target._queue = None
                    target.fn()
                elif len(entry) == 5:
                    target(entry[4])
                else:
                    target()
                fired += 1
        finally:
            queue._live -= popped
            self.events_fired += popped
            self._running = False
        return fired, last_key

    def blocked_processes(self) -> list["Process"]:  # noqa: F821
        """Processes that have not finished (killed ones count as done)."""
        return [p for p in self._processes if not p.finished]

    def check_quiescent(self) -> None:
        """Raise unless every spawned process has finished.

        Workload drivers call this after :meth:`run` to catch deadlocks:
        a process still waiting when the event queue is empty can never
        make progress again.  The report names each blocked process and
        what it is waiting on (the signal, future, or join target).
        """
        stuck = self.blocked_processes()
        if stuck:
            details = "\n".join(
                f"  - {p.name}: {p.describe_wait()}" for p in stuck
            )
            raise SimulationError(
                f"simulation ended at t={self._now:.9g} with {len(stuck)} "
                "blocked process(es) (deadlock?):\n" + details
            )
