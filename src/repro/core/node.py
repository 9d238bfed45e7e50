"""The open-cube mutual exclusion node, failure-free version (Section 3).

:class:`OpenCubeMutexNode` is a direct, event-driven transcription of the
paper's pseudocode.  The four "events" of the formal description map to:

====================================  =======================================
paper                                 this class
====================================  =======================================
``enter_cs`` local call               :meth:`acquire`
``exit_cs`` local call                :meth:`release`
receipt of ``request(j)``             :meth:`on_message` with RequestMessage
receipt of ``token(j)`` from ``k``    :meth:`on_message` with TokenMessage
====================================  =======================================

The ``wait (not asking_i)`` precondition of the paper becomes an explicit
FIFO queue of deferred work items (:attr:`pending`): any local wish or remote
request that arrives while ``asking`` is ``True`` is queued and served, in
order, as soon as ``asking`` falls back to ``False``.  The FIFO policy is one
of the fair service policies the paper allows.

The node is *sans-I/O*: all effects go through the injected
:class:`~repro.simulation.process.Environment`.  The fault-tolerant extension
of Section 5 lives in :class:`repro.core.fault_tolerant_node.FaultTolerantOpenCubeNode`,
which subclasses this one and overrides the ``_hook_*`` extension points.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Sequence

from repro.core.messages import Message, RequestMessage, TokenMessage
from repro.core.topology import OpenCubeTopology
from repro.exceptions import InvalidTopologyError, ProtocolError
from repro.simulation.process import MutexNode

__all__ = ["OpenCubeMutexNode"]


class OpenCubeMutexNode(MutexNode):
    """One node of the open-cube token algorithm (no failure handling).

    Args:
        node_id: this node's identity (1-based, as in the paper's figures).
        n: total number of nodes; must be a power of two.
        father: initial father in the open-cube (``None`` for the root).
        has_token: whether this node initially holds the token (exactly one
            node of the cluster must).
        topology: the immutable :class:`OpenCubeTopology` shared by every
            node of the cluster; the process-wide shared instance for ``n``
            is used when omitted.  Construction is O(1) per node — distances
            are O(1) bit operations on the labels, never materialised rows.
        dist_row: explicit opt-in (tests, analysis) that materialises this
            node's row of the distance matrix as :attr:`dist`; it must match
            the canonical labelling.  The algorithm itself never needs it.
    """

    #: Whether any ``_hook_*`` extension point is overridden.  The hooks sit
    #: on the per-message hot path, so the failure-free class skips the empty
    #: calls entirely; ``__init_subclass__`` flips the flag automatically for
    #: subclasses that define hooks (e.g. the fault-tolerant node).
    _HAS_HOOKS = False

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if any(name.startswith("_hook_") for name in vars(cls)):
            cls._HAS_HOOKS = True

    __slots__ = (
        "pmax",
        "topology",
        "_xor",
        "_dist_row",
        "father",
        "token_here",
        "asking",
        "mandator",
        "mandate_source",
        "lender",
        "pending",
        "_loan_counter",
        "requests_forwarded",
        "requests_proxied",
        "tokens_handled",
        "cs_entries",
    )

    def __init__(
        self,
        node_id: int,
        n: int,
        *,
        father: int | None,
        has_token: bool,
        topology: OpenCubeTopology | None = None,
        dist_row: Sequence[int] | None = None,
    ) -> None:
        super().__init__(node_id, n)
        if topology is None:
            topology = OpenCubeTopology.shared(n)
        elif topology.n != n:
            raise InvalidTopologyError(
                f"topology has n={topology.n} but node {node_id} was built with n={n}"
            )
        self.topology = topology
        self.pmax = topology.pmax
        # dist(i, j) == ((i-1) ^ (j-1)).bit_length(): the hot paths XOR this
        # cached index against the peer's index instead of indexing a
        # materialised row, so per-node construction is O(1) and a whole
        # cluster builds in O(n).
        self._xor = node_id - 1
        if dist_row is None:
            self._dist_row: list[int] | None = None
        else:
            row = [0, *dist_row] if len(dist_row) == n else list(dist_row)
            if row != topology.dist_row(node_id):
                raise InvalidTopologyError(
                    f"dist_row for node {node_id} does not match the canonical "
                    "open-cube labelling"
                )
            self._dist_row = row
        self.father: int | None = father
        self.token_here: bool = has_token
        self.asking: bool = False
        self.mandator: int | None = None
        self.mandate_source: int | None = None
        self.lender: int = node_id
        self.pending: deque[tuple] = deque()
        self._loan_counter = 0
        # Statistics kept by the node itself (useful for workload-adaptivity
        # experiments: the paper argues a node's workload should track its own
        # request frequency, unlike Raymond's algorithm).
        self.requests_forwarded = 0
        self.requests_proxied = 0
        self.tokens_handled = 0
        self.cs_entries = 0

    # ------------------------------------------------------------------
    # Derived state
    # ------------------------------------------------------------------
    @property
    def dist(self) -> list[int]:
        """This node's row ``dist_i(.)`` of the distance matrix (1-indexed).

        Materialised lazily on first access (O(n)) and cached; the algorithm
        itself never touches it — the hot paths compute distances as O(1)
        bit operations.  Kept for tests and analysis code that inspect whole
        rows (and for the explicit ``dist_row`` constructor opt-in).
        """
        row = self._dist_row
        if row is None:
            row = self.topology.dist_row(self.node_id)
            self._dist_row = row
        return row

    def distance_to(self, other: int) -> int:
        """Return ``dist_i(other)`` (Definition 2.2, O(1))."""
        if not 1 <= other <= self.n:
            raise ProtocolError(f"node {self.node_id} asked distance to unknown node {other}")
        return (self._xor ^ (other - 1)).bit_length()

    @property
    def power(self) -> int:
        """Current power of the node (Proposition 2.1)."""
        if self.father is None:
            return self.pmax
        return (self._xor ^ (self.father - 1)).bit_length() - 1

    @property
    def is_root(self) -> bool:
        """Whether the node currently believes it is the root."""
        return self.father is None

    # ------------------------------------------------------------------
    # Application interface
    # ------------------------------------------------------------------
    def acquire(self) -> None:
        """Local wish to enter the critical section (paper's ``enter_cs``)."""
        if self.asking:
            self.pending.append(("local",))
            return
        self._start_local_request()

    def release(self) -> None:
        """Leave the critical section (paper's ``exit_cs``)."""
        if not self.in_critical_section:
            raise ProtocolError(f"node {self.node_id} released a CS it does not hold")
        self.notify_released()
        if self.lender != self.node_id:
            self._env_send(self.lender, TokenMessage(lender=None))
            self.token_here = False
            if self._HAS_HOOKS:
                self._hook_token_given_back()
        self.asking = False
        if self.pending:
            self._process_pending()

    # ------------------------------------------------------------------
    # Message handling
    # ------------------------------------------------------------------
    def on_message(self, sender: int, message: Message) -> None:
        """Dispatch a protocol message."""
        # Exact-type dispatch: the protocol message types are never
        # subclassed (regenerated variants are flagged instances of the same
        # classes), and `type(...) is` beats isinstance on the hot path.
        kind = type(message)
        if kind is RequestMessage:
            self._receive_request(sender, message)
        elif kind is TokenMessage:
            self._receive_token(sender, message)
        else:
            self._handle_extension_message(sender, message)

    def _handle_extension_message(self, sender: int, message: Message) -> None:
        """Hook for subclasses handling extra message types (Section 5)."""
        raise ProtocolError(
            f"node {self.node_id} received unsupported message {message.kind} from {sender}"
        )

    # ------------------------------------------------------------------
    # enter_cs
    # ------------------------------------------------------------------
    def _start_local_request(self) -> None:
        """Body of ``enter_cs`` once the ``not asking`` precondition holds."""
        self.asking = True
        if self.token_here:
            # The node is the root and idle: it enters immediately, keeping
            # the token (lender stays equal to the node itself).
            self.lender = self.node_id
            self._enter_critical_section()
            return
        self.mandator = self.node_id
        self._send_request(requester=self.node_id, source=self.node_id)

    def _enter_critical_section(self) -> None:
        self.cs_entries += 1
        self.notify_granted()

    # ------------------------------------------------------------------
    # receive request(j)
    # ------------------------------------------------------------------
    def _receive_request(self, sender: int, message: RequestMessage) -> None:
        if self.asking:
            self.pending.append(("request", sender, message))
            return
        self._process_request(sender, message)

    def _process_request(self, sender: int, message: RequestMessage) -> None:
        """Body of ``receive request(j)`` once ``not asking`` holds."""
        requester = message.requester
        if not 1 <= requester <= self.n:
            raise ProtocolError(
                f"node {self.node_id} received a request for unknown node {requester}"
            )
        if self._HAS_HOOKS and not self._hook_before_process_request(sender, message):
            return
        if self._decide_behaviour(message) == "proxy":
            self._behave_as_proxy(message)
        else:
            self._behave_as_transit(message)

    def _decide_behaviour(self, message: RequestMessage) -> str:
        """Return ``"transit"`` or ``"proxy"`` for an incoming request.

        The open-cube rule of the paper: transit exactly when the request
        reached this node through its last son, i.e. when
        ``dist_i(j) == dist_i(father_i) - 1`` (equivalently ``== power(i)``).
        The general scheme of [1] allows any rule here; see
        :mod:`repro.scheme` for other instances (Raymond, Naimi-Trehel).
        """
        # `requester` was validated by _process_request, so compute the
        # distance directly; `power` stays a property call because the
        # fault-tolerant subclass overrides it during searches.
        if (self._xor ^ (message.requester - 1)).bit_length() == self.power:
            return "transit"
        return "proxy"

    def _behave_as_proxy(self, message: RequestMessage) -> None:
        """Proxy behaviour: request (or lend) the token on behalf of ``j``."""
        requester = message.requester
        self.requests_proxied += 1
        self.asking = True
        if self.token_here:
            # Temporarily lend the token; it must come back to this node.
            self.token_here = False
            self.tokens_handled += 1
            loan_id = self._new_loan_id()
            self._env_send(requester, TokenMessage(lender=self.node_id, loan_id=loan_id))
            if self._HAS_HOOKS:
                self._hook_token_lent(
                    borrower=requester, source=message.source, loan_id=loan_id
                )
        else:
            self.mandator = requester
            self.mandate_source = message.source
            self._send_request(requester=self.node_id, source=message.source)

    def _behave_as_transit(self, message: RequestMessage) -> None:
        """Transit behaviour: give up the token or forward the request."""
        requester = message.requester
        self.requests_forwarded += 1
        if self.token_here:
            # Give the token up for good: the requester becomes the new root.
            self.token_here = False
            self.tokens_handled += 1
            self._env_send(requester, TokenMessage(lender=None))
        else:
            if self.father is None:
                raise ProtocolError(
                    f"node {self.node_id} is the root without the token but is not asking; "
                    "this cannot happen in a correct run"
                )
            self._env_send(self.father, message)
        # First half of the b-transformation: the requester becomes this
        # node's father; the requester completes the swap when it receives
        # the token (or records its proxy as father).
        self.father = requester

    # ------------------------------------------------------------------
    # receive token(j) from k
    # ------------------------------------------------------------------
    def _receive_token(self, sender: int, message: TokenMessage) -> None:
        if not self.asking:
            raise ProtocolError(
                f"node {self.node_id} received a token while not asking (from {sender})"
            )
        self.token_here = True
        self.tokens_handled += 1
        if self._HAS_HOOKS:
            self._hook_token_received(sender, message)
        if self.mandator is None:
            # Return of the token after a loan by this node.
            self.asking = False
            if self._HAS_HOOKS:
                self._hook_token_returned()
            if self.pending:
                self._process_pending()
        elif self.mandator == self.node_id:
            # This node's own claim is satisfied.
            if message.lender is None:
                self.lender = self.node_id
                self.father = None
            else:
                self.lender = message.lender
                self.father = sender
            self.mandator = None
            self.mandate_source = None
            self._enter_critical_section()
            # `asking` stays True until the critical section is left.
        else:
            # Honour the mandator's request.
            borrower = self.mandator
            source = self.mandate_source if self.mandate_source is not None else borrower
            self.mandator = None
            self.mandate_source = None
            self.token_here = False
            if message.lender is None:
                # The token has no lender: this node becomes the root and
                # lends the token to its mandator.
                self.father = None
                self.lender = self.node_id
                loan_id = self._new_loan_id()
                self._env_send(
                    borrower, TokenMessage(lender=self.node_id, loan_id=loan_id)
                )
                if self._HAS_HOOKS:
                    self._hook_token_lent(borrower=borrower, source=source, loan_id=loan_id)
                # `asking` stays True until the token comes back.
            else:
                self.father = sender
                self._env_send(
                    borrower,
                    TokenMessage(lender=message.lender, loan_id=message.loan_id),
                )
                self.asking = False
                if self.pending:
                    self._process_pending()

    # ------------------------------------------------------------------
    # Pending-queue service
    # ------------------------------------------------------------------
    def _can_serve_pending(self) -> bool:
        """Whether a queued work item may be served right now.

        The failure-free precondition is simply ``not asking``; the
        fault-tolerant subclass also refuses while it is reconnecting.
        """
        return not self.asking

    def _process_pending(self) -> None:
        """Serve queued work items while the service precondition holds."""
        while self.pending and self._can_serve_pending():
            item = self.pending.popleft()
            if item[0] == "local":
                self._start_local_request()
            elif item[0] == "request":
                _, sender, message = item
                self._process_request(sender, message)
            else:  # pragma: no cover - defensive
                raise ProtocolError(f"unknown pending item {item!r}")

    # ------------------------------------------------------------------
    # Sending helpers
    # ------------------------------------------------------------------
    def _new_loan_id(self) -> tuple[int, int]:
        """Return a fresh identifier for a token loan made by this node."""
        self._loan_counter += 1
        return (self.node_id, self._loan_counter)

    def _send_request(self, requester: int, source: int, *, regenerated: bool = False) -> None:
        """Send ``request(requester)`` to the current father."""
        if self.father is None:
            raise ProtocolError(
                f"node {self.node_id} has no father to send a request to; "
                "a root without the token must be asking"
            )
        self._env_send(
            self.father,
            RequestMessage(requester=requester, source=source, regenerated=regenerated),
        )
        if self._HAS_HOOKS:
            self._hook_request_sent(requester=requester, source=source)

    # ------------------------------------------------------------------
    # Extension hooks (overridden by the fault-tolerant subclass)
    # ------------------------------------------------------------------
    def _hook_before_process_request(self, sender: int, message: RequestMessage) -> bool:
        """Return ``False`` to abort normal processing of a request."""
        return True

    def _hook_request_sent(self, requester: int, source: int) -> None:
        """Called after a request message has been sent to the father."""

    def _hook_token_received(self, sender: int, message: TokenMessage) -> None:
        """Called as soon as a token message arrives (before branching)."""

    def _hook_token_lent(
        self, borrower: int, source: int, loan_id: tuple[int, int] | None = None
    ) -> None:
        """Called when this node lends the token and expects it back."""

    def _hook_token_returned(self) -> None:
        """Called when a lent token has come back to this node."""

    def _hook_token_given_back(self) -> None:
        """Called when this node returns a borrowed token to its lender."""

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """Return the local variables of the paper plus bookkeeping counters."""
        base = super().snapshot()
        base.update(
            {
                "father": self.father,
                "token_here": self.token_here,
                "asking": self.asking,
                "mandator": self.mandator,
                "lender": self.lender,
                "power": self.power,
                "pending": len(self.pending),
                "requests_forwarded": self.requests_forwarded,
                "requests_proxied": self.requests_proxied,
                "cs_entries": self.cs_entries,
            }
        )
        return base

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"OpenCubeMutexNode(id={self.node_id}, father={self.father}, "
            f"token={self.token_here}, asking={self.asking})"
        )
