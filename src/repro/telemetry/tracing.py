"""Causal request/token tracing over the telemetry hook stream.

The paper's contribution is *where the token travels*: a request walks up
the open-cube information structure and the token walks back down.  The
aggregate telemetry (sketch quantiles, Jain index, alert counters) cannot
answer "why did this acquire take 1.04 s?" — this module can, for a
deterministic sample of requests, in constant memory.

Design contract (the golden-digest guarantee):

* Sampling is a **pure function** of ``(seed, request_id)`` — a SplitMix64
  hash.  The recorder never draws from any simulator RNG and never
  schedules events, so enabling tracing cannot perturb event order and the
  golden trace digests are byte-identical with tracing on or off.
* The recorder observes hooks the cluster already fires (issue, send,
  deliver, drop, grant, cs-exit, failure) and keeps only plain dicts of
  primitives, so it pickles with the rest of the telemetry hub.
* Memory is bounded: at most ``trace_limit`` finished traces are retained
  (overflow is counted, not stored) and each trace records at most
  ``max_hops`` message hops.

Span model (one trace per sampled request)::

    issue ──► [REQUEST hop]* ──► [token/grant hop]* ──► grant ──► cs ──► exit

Hop attribution is heuristic but causal: while a sampled request is
waiting, every send carrying that requester's id (``message.requester``)
is a *request* hop, and every token-like message (``Token`` / ``Grant`` /
``Reply`` kinds) addressed to the waiting node is a *token* hop.  If a node
has several outstanding requests the newest one owns the hops — a
documented approximation, not an error.

``chrome_trace_events`` converts a traces block into Chrome trace-event
JSON (load it at ``ui.perfetto.dev`` or ``chrome://tracing``): one process
per request, complete ("X") spans for wait/cs/hops, instants for
grant/exit/drops.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from repro.exceptions import ConfigurationError

__all__ = [
    "RequestTraceRecorder",
    "chrome_trace_events",
    "sample_request",
    "trace_id_for",
]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# Substrings of message kinds that move the privilege *toward* a waiting
# requester: "Token" covers the open-cube/Raymond/Naimi-Trehel/Suzuki-Kasami
# tokens (kind is the message class name, possibly "+regenerated"), "Grant"
# the central coordinator, "Reply" the Ricart-Agrawala permission message.
_TOKEN_KIND_HINTS = ("Token", "Grant", "Reply")


def _mix64(z: int) -> int:
    """SplitMix64 finaliser."""
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return z ^ (z >> 31)


def sample_request(seed: int, request_id: int, rate: float) -> bool:
    """Deterministic head-sampling decision for one request id.

    Pure function of ``(seed, request_id)`` — no RNG state anywhere, so the
    decision is identical on the eager and streamed paths and can
    be re-derived offline from a row's seed.
    """
    if rate >= 1.0:
        return True
    z = _mix64(((seed & _MASK64) * _GOLDEN + request_id) & _MASK64)
    return (z >> 11) * 2.0**-53 < rate


def trace_id_for(seed: int, request_id: int) -> str:
    """A stable 16-hex-digit trace id for a sampled request.

    Decorrelated from the sampling hash by an extra mixing round so trace
    ids don't leak the sampling threshold ordering.
    """
    z = _mix64((seed & _MASK64) ^ ((request_id * _GOLDEN) & _MASK64))
    return f"{_mix64((z + _GOLDEN) & _MASK64):016x}"


class RequestTraceRecorder:
    """Records span trees for a deterministic sample of requests.

    All state is plain dicts/lists/primitives, so the recorder pickles; all
    hooks are O(1) with an early ``if not self._waiting`` exit so unsampled
    traffic costs one dict check per send.
    """

    __slots__ = (
        "seed",
        "rate",
        "limit",
        "max_hops",
        "sampled_total",
        "truncated",
        "_active",
        "_waiting",
        "_in_cs",
        "_pending",
        "_done",
    )

    def __init__(
        self,
        rate: float,
        *,
        limit: int = 16,
        max_hops: int = 256,
        seed: int = 0,
    ) -> None:
        if not 0.0 < rate <= 1.0:
            raise ConfigurationError(
                f"trace_sample must be in (0, 1], got {rate!r}"
            )
        if limit < 1:
            raise ConfigurationError(f"trace_limit must be >= 1, got {limit!r}")
        self.seed = seed
        self.rate = rate
        self.limit = limit
        self.max_hops = max_hops
        self.sampled_total = 0  # requests that matched the sampling predicate
        self.truncated = 0  # sampled traces dropped beyond ``limit``
        self._active: dict[int, dict[str, Any]] = {}  # rid -> trace being built
        self._waiting: dict[int, int] = {}  # node -> waiting sampled rid
        self._in_cs: dict[int, int] = {}  # node -> sampled rid in its CS
        # (sender, dest, kind) -> FIFO of hop dicts awaiting deliver/drop.
        self._pending: dict[tuple[Any, Any, str], deque[dict[str, Any]]] = {}
        self._done: list[dict[str, Any]] = []

    def bind_seed(self, seed: int) -> None:
        """Pin the sampling seed; must happen before the first issue."""
        self.seed = seed

    # ------------------------------------------------------------------
    # Hooks (fired by the telemetry hub / simulated cluster)
    # ------------------------------------------------------------------

    def on_issue(self, request_id: int, node: int, time: float) -> None:
        if not sample_request(self.seed, request_id, self.rate):
            return
        self.sampled_total += 1
        trace = {
            "request_id": request_id,
            "trace_id": trace_id_for(self.seed, request_id),
            "node": node,
            "issued_at": time,
            "granted_at": None,
            "exited_at": None,
            "hops": [],
        }
        self._active[request_id] = trace
        self._waiting[node] = request_id

    def on_send(self, time: float, sender: Any, dest: Any, message: Any) -> None:
        waiting = self._waiting
        if not waiting:
            return
        kind = message.kind
        requester = getattr(message, "requester", None)
        if requester is not None and requester in waiting:
            rid, category = waiting[requester], "request"
        elif dest in waiting and any(hint in kind for hint in _TOKEN_KIND_HINTS):
            rid, category = waiting[dest], "token"
        else:
            return
        trace = self._active.get(rid)
        if trace is None:
            return
        hops = trace["hops"]
        if len(hops) >= self.max_hops:
            trace["hops_truncated"] = trace.get("hops_truncated", 0) + 1
            return
        hop = {
            "kind": kind,
            "category": category,
            "from": sender,
            "to": dest,
            "sent_at": time,
            "delivered_at": None,
        }
        hops.append(hop)
        self._pending.setdefault((sender, dest, kind), deque()).append(hop)

    def on_deliver(self, time: float, sender: Any, dest: Any, message: Any) -> None:
        if not self._pending:
            return
        key = (sender, dest, message.kind)
        queue = self._pending.get(key)
        if not queue:
            return
        hop = queue.popleft()
        hop["delivered_at"] = time
        if not queue:
            del self._pending[key]

    def on_drop(
        self, time: float, sender: Any, dest: Any, message: Any, fault: str = "drop"
    ) -> None:
        if not self._pending:
            return
        key = (sender, dest, message.kind)
        queue = self._pending.get(key)
        if not queue:
            return
        hop = queue.popleft()
        hop["dropped"] = fault
        hop["dropped_at"] = time
        if not queue:
            del self._pending[key]

    def on_grant(self, request_id: int, time: float) -> None:
        trace = self._active.get(request_id)
        if trace is None:
            return
        trace["granted_at"] = time
        node = trace["node"]
        if self._waiting.get(node) == request_id:
            del self._waiting[node]
        self._in_cs[node] = request_id

    def on_cs_exit(self, node: int, time: float) -> None:
        request_id = self._in_cs.pop(node, None)
        if request_id is None:
            return
        trace = self._active.pop(request_id, None)
        if trace is None:
            return
        trace["exited_at"] = time
        self._finish(trace)

    def on_failure(self, node: int, time: float) -> None:
        """Close the node's sampled trace (if any) as failed, not granted."""
        request_id = self._waiting.pop(node, None)
        if request_id is None:
            request_id = self._in_cs.pop(node, None)
        if request_id is None:
            return
        trace = self._active.pop(request_id, None)
        if trace is None:
            return
        trace["failed_at"] = time
        self._finish(trace)

    def finalize(self, end_time: float) -> None:
        """Close still-open traces (starved or mid-CS at horizon) unfinished."""
        for request_id in sorted(self._active):
            trace = self._active[request_id]
            trace["open_at_end"] = end_time
            self._finish(trace)
        self._active.clear()
        self._waiting.clear()
        self._in_cs.clear()
        self._pending.clear()

    # ------------------------------------------------------------------
    # Aggregation / export
    # ------------------------------------------------------------------

    def _finish(self, trace: dict[str, Any]) -> None:
        if len(self._done) < self.limit:
            self._done.append(trace)
        else:
            self.truncated += 1

    def block(self) -> dict[str, Any]:
        """Compact JSON-ready block for scenario rows."""
        return {
            "sample_rate": self.rate,
            "seed": self.seed,
            "sampled": self.sampled_total,
            "retained": len(self._done),
            "limit": self.limit,
            "truncated": self.truncated,
            "traces": list(self._done),
        }

    def chrome_trace(self) -> dict[str, Any]:
        return chrome_trace_events(self.block())


def _microseconds(t: float) -> float:
    return round(t * 1e6, 3)


def chrome_trace_events(block: dict[str, Any]) -> dict[str, Any]:
    """Convert a traces block into Chrome trace-event JSON (Perfetto-loadable).

    One process per sampled request (pid = request id), one thread per node
    a span runs on.  ``X`` complete events carry wait/cs/hop durations in
    microseconds; ``i`` instants mark grant/exit/drops.
    """
    events: list[dict[str, Any]] = []
    for trace in block.get("traces", ()):
        pid = trace["request_id"]
        node = trace["node"]
        issued = trace["issued_at"]
        granted = trace.get("granted_at")
        exited = trace.get("exited_at")
        closed = trace.get("failed_at") or trace.get("open_at_end")
        end = next(
            (t for t in (exited, granted, closed) if t is not None), issued
        )
        events.append(
            {
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "name": "process_name",
                "args": {
                    "name": (
                        f"request {pid} (node {node},"
                        f" trace {trace.get('trace_id', '?')})"
                    )
                },
            }
        )
        wait_end = granted if granted is not None else end
        events.append(
            {
                "ph": "X",
                "pid": pid,
                "tid": node,
                "name": "wait",
                "cat": "request",
                "ts": _microseconds(issued),
                "dur": _microseconds(wait_end - issued),
                "args": {"request_id": pid, "node": node},
            }
        )
        if granted is not None:
            events.append(
                {
                    "ph": "i",
                    "pid": pid,
                    "tid": node,
                    "name": "grant",
                    "cat": "request",
                    "ts": _microseconds(granted),
                    "s": "p",
                }
            )
            events.append(
                {
                    "ph": "X",
                    "pid": pid,
                    "tid": node,
                    "name": "cs",
                    "cat": "cs",
                    "ts": _microseconds(granted),
                    "dur": _microseconds((exited if exited is not None else granted) - granted),
                    "args": {"request_id": pid, "node": node},
                }
            )
        if exited is not None:
            events.append(
                {
                    "ph": "i",
                    "pid": pid,
                    "tid": node,
                    "name": "exit",
                    "cat": "request",
                    "ts": _microseconds(exited),
                    "s": "p",
                }
            )
        for hop in trace.get("hops", ()):
            sent = hop["sent_at"]
            delivered = hop.get("delivered_at")
            if delivered is not None:
                events.append(
                    {
                        "ph": "X",
                        "pid": pid,
                        "tid": hop["from"],
                        "name": f"{hop['kind']} {hop['from']}→{hop['to']}",
                        "cat": hop["category"],
                        "ts": _microseconds(sent),
                        "dur": _microseconds(delivered - sent),
                        "args": dict(hop),
                    }
                )
            else:
                events.append(
                    {
                        "ph": "i",
                        "pid": pid,
                        "tid": hop["from"],
                        "name": (
                            f"{hop['kind']} {hop['from']}→{hop['to']}"
                            f" ({hop.get('dropped', 'in flight')})"
                        ),
                        "cat": hop["category"],
                        "ts": _microseconds(sent),
                        "s": "p",
                    }
                )
    return {"traceEvents": events, "displayTimeUnit": "ms"}
