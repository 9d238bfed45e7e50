"""A small deterministic discrete-event simulation engine.

The engine is intentionally minimal: an agenda (binary heap) of entries
processed in ``(time, insertion order)`` order.  All randomness flows through
a single seeded :class:`random.Random` instance owned by the simulator, so
every run is exactly reproducible from its seed.

Fast-path design
----------------

The agenda is the hottest structure of the whole simulator, so it avoids
per-event Python niceties:

* heap entries are plain lists ``[time, sequence, tag, payload, cancelled,
  owner]`` (see :mod:`repro.simulation.events`); sequences are unique, so
  heap comparisons resolve at C speed on the first two elements and never
  touch the payload,
* dispatch goes through a four-slot jump table indexed by the entry's int
  ``tag`` (computed once at schedule time) instead of ``isinstance`` chains
  — deliveries, timers, actions and critical-section request arrivals,
* :attr:`Simulator.pending_events` is a live counter maintained on schedule,
  cancel and pop — not an O(n) scan of the heap,
* :meth:`Simulator.run` inlines the pop/dispatch loop so the common case
  (thousands of deliveries) costs one heap pop, one counter update and one
  jump-table call per event.

Determinism is unchanged by all of this: entries are still ordered by
``(time, sequence)`` exactly as before, so a given seed produces a
byte-identical event order (pinned by ``tests/simulation/test_determinism``).

The engine knows nothing about mutual exclusion; the
:class:`~repro.simulation.cluster.SimulatedCluster` layers the network,
failure and metrics semantics on top by registering delivery and timer
handlers.
"""

from __future__ import annotations

import heapq
import random
from typing import Any, Callable

from repro.exceptions import SimulationError
from repro.simulation.events import (
    TAG_ACTION,
    TAG_DELIVERY,
    TAG_REQUEST,
    TAG_TIMER,
    MessageDelivery,
    ScheduledAction,
    TimerExpiry,
)

__all__ = ["Simulator"]

#: Agenda entry layout: [time, sequence, tag, payload, cancelled, owner].
AgendaEntry = list

_TAG_OF = {MessageDelivery: TAG_DELIVERY, TimerExpiry: TAG_TIMER, ScheduledAction: TAG_ACTION}


def _run_action(payload: ScheduledAction) -> None:
    payload.action()


def _no_delivery_handler(payload: Any) -> None:
    raise SimulationError("no delivery handler registered")


def _no_timer_handler(payload: Any) -> None:
    raise SimulationError("no timer handler registered")


def _no_request_handler(payload: Any) -> None:
    raise SimulationError("no request handler registered")


class Simulator:
    """Deterministic discrete-event loop.

    Args:
        seed: seed of the simulator-owned random number generator.
    """

    def __init__(self, seed: int = 0) -> None:
        self._heap: list[AgendaEntry] = []
        self._time: float = 0.0
        self._sequence: int = 0
        self._processed: int = 0
        self._pending: int = 0
        self._peak_pending: int = 0
        self.rng = random.Random(seed)
        # Jump table indexed by the entry tag — the single source of truth
        # for dispatch; mutated in place so loops that hold a local
        # reference always see the current handlers.
        self._jump: list[Callable[[Any], None]] = [
            _no_delivery_handler,
            _no_timer_handler,
            _run_action,
            _no_request_handler,
        ]

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def set_delivery_handler(
        self, handler: Callable[[tuple[int, int, Any, float]], None]
    ) -> None:
        """Register the callable invoked for each message delivery event.

        The handler receives the delivery as a plain tuple
        ``(sender, dest, message, sent_at)``.
        """
        self._jump[TAG_DELIVERY] = handler

    def set_timer_handler(self, handler: Callable[[TimerExpiry], None]) -> None:
        """Register the callable invoked for each timer expiry event."""
        self._jump[TAG_TIMER] = handler

    def set_request_handler(
        self, handler: Callable[[tuple[int, int, Any, Any]], None]
    ) -> None:
        """Register the callable invoked for each request-arrival event.

        The handler receives the arrival as a plain tuple
        ``(node, request_id, hold, feeder)`` — ``feeder`` is an arrival
        iterator to pull the next streamed arrival from, or ``None`` for
        one-shot requests (see :meth:`schedule_request`).
        """
        self._jump[TAG_REQUEST] = handler

    # ------------------------------------------------------------------
    # Clock and agenda
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._time

    @property
    def pending_events(self) -> int:
        """Number of not-yet-processed (and not cancelled) agenda entries.

        Maintained as a live counter (no heap scan).  Contract: the value is
        exact between :meth:`run` calls and after every :meth:`step`, but a
        handler executing *inside* :meth:`run` observes the value as of run()
        entry (plus any events it scheduled or cancelled itself) — the run
        loop batches its decrements for speed.
        """
        return self._pending

    @property
    def peak_pending(self) -> int:
        """High-water mark of the agenda (heap) size over the run so far.

        Sampled after every push — pops only shrink the heap, so push-time
        sampling is exact.  Unlike :attr:`pending_events` it counts
        cancelled-but-not-yet-popped entries too, which is the honest
        memory figure.  With eager workload scheduling this is O(requests);
        with the bounded-window feeder it stays O(active + window) — the
        number the scale benchmark reports as ``agenda_peak``.
        """
        return self._peak_pending

    @property
    def processed_events(self) -> int:
        """Number of events processed since the simulator was created.

        Same freshness contract as :attr:`pending_events`: exact between
        :meth:`run` calls and after every :meth:`step`; stale for handlers
        reading it from inside a :meth:`run` loop.
        """
        return self._processed

    def schedule_at(
        self, time: float, payload: MessageDelivery | TimerExpiry | ScheduledAction
    ) -> AgendaEntry:
        """Schedule ``payload`` at absolute simulated time ``time``.

        Returns the agenda entry, an opaque handle usable with :meth:`cancel`.
        """
        if time < self._time:
            raise SimulationError(
                f"cannot schedule an event at {time} before current time {self._time}"
            )
        tag = _TAG_OF.get(type(payload))
        if tag is None:
            # Subclasses of the payload types still dispatch correctly; truly
            # unknown payloads fail fast here rather than at dispatch time.
            if isinstance(payload, MessageDelivery):
                tag = TAG_DELIVERY
            elif isinstance(payload, TimerExpiry):
                tag = TAG_TIMER
            elif isinstance(payload, ScheduledAction):
                tag = TAG_ACTION
            else:
                raise SimulationError(f"unknown event payload {payload!r}")
        if tag == TAG_DELIVERY:
            # Deliveries are stored (and handed to the delivery handler) as
            # plain tuples; see schedule_delivery.
            payload = (payload.sender, payload.dest, payload.message, payload.sent_at)
        self._sequence += 1
        entry: AgendaEntry = [time, self._sequence, tag, payload, False, self]
        heap = self._heap
        heapq.heappush(heap, entry)
        self._pending += 1
        if len(heap) > self._peak_pending:
            self._peak_pending = len(heap)
        return entry

    def schedule_delivery(
        self, time: float, sender: int, dest: int, message: Any, sent_at: float
    ) -> AgendaEntry:
        """Fast-path scheduling of one message delivery.

        This is called once per simulated message, so it cuts every corner
        :meth:`schedule_at` keeps for generality: no payload tag lookup and
        no :class:`MessageDelivery` wrapper — the delivery handler receives
        the plain tuple ``(sender, dest, message, sent_at)``.
        """
        if time < self._time:
            raise SimulationError(
                f"cannot schedule an event at {time} before current time {self._time}"
            )
        seq = self._sequence + 1
        self._sequence = seq
        entry: AgendaEntry = [time, seq, TAG_DELIVERY, (sender, dest, message, sent_at), False, self]
        heap = self._heap
        heapq.heappush(heap, entry)
        self._pending += 1
        if len(heap) > self._peak_pending:
            self._peak_pending = len(heap)
        return entry

    def schedule_request(
        self, time: float, payload: tuple[int, int, Any, Any]
    ) -> AgendaEntry:
        """Fast-path scheduling of one critical-section request arrival.

        ``payload`` is the plain tuple ``(node, request_id, hold, feeder)``
        handed verbatim to the request handler — no per-request closure, no
        wrapper object.  ``feeder`` is an arrival iterator the handler pulls
        the next streamed arrival from (bounded-window workload feeding), or
        ``None`` for one-shot requests.
        """
        if time < self._time:
            raise SimulationError(
                f"cannot schedule an event at {time} before current time {self._time}"
            )
        seq = self._sequence + 1
        self._sequence = seq
        entry: AgendaEntry = [time, seq, TAG_REQUEST, payload, False, self]
        heap = self._heap
        heapq.heappush(heap, entry)
        self._pending += 1
        if len(heap) > self._peak_pending:
            self._peak_pending = len(heap)
        return entry

    def schedule(
        self, delay: float, payload: MessageDelivery | TimerExpiry | ScheduledAction
    ) -> AgendaEntry:
        """Schedule ``payload`` after a relative ``delay``."""
        if delay < 0:
            raise SimulationError(f"delay must be non-negative, got {delay}")
        return self.schedule_at(self._time + delay, payload)

    def call_at(self, time: float, action: Callable[[], None], label: str = "action") -> AgendaEntry:
        """Schedule an arbitrary callable at absolute time ``time``."""
        return self.schedule_at(time, ScheduledAction(label=label, action=action))

    def call_after(self, delay: float, action: Callable[[], None], label: str = "action") -> AgendaEntry:
        """Schedule an arbitrary callable after ``delay`` time units."""
        return self.schedule(delay, ScheduledAction(label=label, action=action))

    @staticmethod
    def cancel(event: AgendaEntry) -> None:
        """Mark a scheduled event as cancelled (it will be skipped).

        Safe to call more than once and after the event has been processed.
        """
        if not event[4]:
            event[4] = True
            owner = event[5]
            if owner is not None:
                owner._pending -= 1
                event[5] = None

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Process the next event; return ``False`` when the agenda is empty."""
        heap = self._heap
        while heap:
            entry = heapq.heappop(heap)
            if entry[4]:
                continue
            entry[5] = None
            self._pending -= 1
            self._time = entry[0]
            self._processed += 1
            self._jump[entry[2]](entry[3])
            return True
        return False

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Run until the agenda is empty, ``until`` is reached, or a budget hit.

        Args:
            until: stop before processing any event scheduled after this time
                (the clock is left at the last processed event).
            max_events: safety valve against runaway protocols; at most
                ``max_events`` events are processed, and attempting to process
                one more raises :class:`SimulationError` so bugs surface as
                failures rather than hangs.
        """
        heap = self._heap
        jump = self._jump
        pop = heapq.heappop
        budget = -1 if max_events is None else max_events
        processed = 0
        # `_processed`/`_pending` are batched: they are only read through the
        # reporting properties, never by event handlers mid-run, so updating
        # them once per run() (exception-safely) instead of once per event
        # keeps the loop tight.  `_time` must stay live: handlers read `now`.
        try:
            if until is None:
                # Fast path (run_until_quiescent): pop unconditionally, no
                # peek needed because nothing can stop us except the budget.
                while heap:
                    entry = pop(heap)
                    if entry[4]:
                        continue
                    if processed == budget:
                        heapq.heappush(heap, entry)
                        raise SimulationError(
                            f"exceeded the event budget of {max_events} events; "
                            "the protocol is probably not quiescing"
                        )
                    entry[5] = None
                    self._time = entry[0]
                    processed += 1
                    jump[entry[2]](entry[3])
                return
            while heap:
                entry = heap[0]
                if entry[4]:
                    pop(heap)
                    continue
                if entry[0] > until:
                    break
                if processed == budget:
                    raise SimulationError(
                        f"exceeded the event budget of {max_events} events; "
                        "the protocol is probably not quiescing"
                    )
                pop(heap)
                entry[5] = None
                self._time = entry[0]
                processed += 1
                jump[entry[2]](entry[3])
        finally:
            self._processed += processed
            self._pending -= processed

    def advance_to(self, time: float) -> None:
        """Advance the clock to ``time`` without processing events.

        Only valid when no pending event is scheduled before ``time``.
        """
        next_entry = self._peek()
        if next_entry is not None and next_entry[0] < time:
            raise SimulationError(
                "cannot advance the clock past pending events; call run() instead"
            )
        if time < self._time:
            raise SimulationError("cannot move the clock backwards")
        self._time = time

    def _peek(self) -> AgendaEntry | None:
        heap = self._heap
        while heap and heap[0][4]:
            heapq.heappop(heap)
        return heap[0] if heap else None
