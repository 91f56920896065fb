"""The PBFT replica state machine.

Each :class:`PBFTReplica` is a simulated machine participating in one
PBFT group of ``n = 3f + 1`` members. The normal case follows Castro &
Liskov exactly: the leader orders a client request with a pre-prepare,
replicas echo prepares, and — once *prepared* — broadcast commit votes.
An entry executes when it has ``2f + 1`` commit votes and every lower
sequence number has executed. The submitter learns the outcome from
``f + 1`` matching replies.

Blockplane's modifications (Section IV-B of the paper):

* every proposal carries a ``record_type`` annotation, and
* between the prepared state and the commit broadcast the replica runs
  the user-supplied **verification routine**; a replica never votes to
  commit a value that is not a valid state transition of the wrapped
  protocol.

Replicas in this module are honest; byzantine variants used by the test
suite live in :mod:`repro.pbft.byzantine`.
"""

from __future__ import annotations

import bisect
import dataclasses
import hashlib
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.crypto.digest import cached_digest, stable_digest
from repro.errors import ProtocolError, VerificationFailed
from repro.obs.hub import DISABLED
from repro.pbft.config import PBFTConfig
from repro.pbft.messages import (
    CatchUpRequest,
    CatchUpResponse,
    Checkpoint,
    CheckpointCertificate,
    ClientRequest,
    Commit,
    CommittedEntry,
    NewView,
    PrePrepare,
    Prepare,
    PreparedCertificate,
    RejectRequest,
    Reply,
    SnapshotResponse,
    ViewChange,
)
from repro.pbft.quorums import (
    commit_quorum,
    max_faulty,
    reply_quorum,
    unit_size,
)
from repro.sim.node import Node
from repro.sim.process import Future

#: Verification routine signature: receives the proposed value, its
#: record-type annotation, and the submitter metadata; returns True to
#: accept the state transition. See Section III-C of the paper.
Verifier = Callable[[Any, str, Optional[Dict[str, Any]]], bool]

#: Filler proposal used to plug sequence holes after a view change.
#: Verification routines must accept it; executors must ignore it.
NOOP_VALUE = "__pbft_noop__"
NOOP_RECORD_TYPE = "noop"


def request_digest(
    value: Any, record_type: str, request_id: Tuple[str, int]
) -> str:
    """The digest a proposal binds its request to.

    The (possibly large) application value is folded in as
    ``cached_digest(value)`` — the same string whether or not the memo
    is enabled — so a value object that already passed through the
    digest memo (record digests, earlier proposals) costs nothing to
    bind again. Every request-digest computation in the protocol (and
    in the byzantine forgers) goes through this one helper; the two
    sides of a digest comparison always agree on the formula.
    """
    return stable_digest((cached_digest(value), record_type, request_id))


def catch_up_digest(value: Any, record_type: str, seq: int) -> str:
    """Digest peers vote on when vouching a caught-up entry for a slot
    (same value-folding rationale as :func:`request_digest`)."""
    return stable_digest((cached_digest(value), record_type, seq))


def checkpoint_digest(seq: int, state_digest: str, snapshot_digest: str) -> str:
    """The digest a signed checkpoint vote covers: the watermark, the
    execution chain head, and the middleware snapshot digest together.
    Both sides of a vote/certificate check use this one formula."""
    return stable_digest((seq, state_digest, snapshot_digest))


#: Digest of the hole-filler proposal. It is a constant of the protocol
#: (value, type, and the null request id never vary), yet a new leader
#: plugging a deposed leader's holes used to recompute it per slot.
_NOOP_FILL_DIGEST = request_digest(NOOP_VALUE, NOOP_RECORD_TYPE, ("", 0))


@dataclasses.dataclass
class _Slot:
    """Book-keeping for one sequence number."""

    view: int = 0
    digest: str = ""
    value: Any = None
    record_type: str = ""
    meta: Optional[Dict[str, Any]] = None
    request_id: Tuple[str, int] = ("", 0)
    payload_bytes: int = 0
    has_pre_prepare: bool = False
    # Vote tallies map replica → the digest it voted for. Votes can
    # arrive before the pre-prepare fixes this slot's digest, so the
    # digest must travel with the vote — counting bare replica ids
    # would let votes for a *different* proposal at this sequence
    # number (crossed over from a concurrent view) fill the quorum.
    prepares: Dict[str, str] = dataclasses.field(default_factory=dict)
    commits: Dict[str, str] = dataclasses.field(default_factory=dict)
    prepare_sent: bool = False
    commit_sent: bool = False
    committed: bool = False
    executed: bool = False
    # Observability: virtual-time phase stamps (-1 = not reached) and
    # the originating commit's trace context, if any.
    t_pre_prepare: float = -1.0
    t_prepared: float = -1.0
    trace: Optional[Tuple[int, int]] = None
    #: The armed execution-watchdog timer (cancelled on execution — in
    #: the healthy path every slot executes long before its watchdog
    #: fires, and a cancelled timer is a heap tombstone the simulator
    #: sweeps instead of a live event it must fire).
    timer: Any = None


@dataclasses.dataclass
class _PendingRequest:
    """Origin-side state for a submitted request."""

    future: Future
    value: Any
    record_type: str
    meta: Optional[Dict[str, Any]]
    payload_bytes: int
    replies: Dict[str, Tuple[int, int, str]] = dataclasses.field(
        default_factory=dict
    )
    retries: int = 0
    trace_ctx: Optional[Tuple[int, int]] = None
    span: Any = None  # open "pbft.consensus" span at the origin
    timer: Any = None  # the armed retry timer; cancelled at completion


class PBFTReplica(Node):
    """One member of a PBFT group.

    Args:
        sim: Owning simulator.
        network: Transport.
        node_id: This replica's id; must appear in ``peers``.
        site: Datacenter name.
        peers: Ordered ids of *all* group members (including this one).
            The leader of view ``v`` is ``peers[v % len(peers)]``.
        config: Timing/log parameters.
        verifier: Optional Blockplane verification routine consulted
            before this replica casts a commit vote.

    Attributes:
        on_executed: Callbacks invoked with each :class:`CommittedEntry`
            as it executes, in sequence order. Blockplane attaches its
            Local-Log append here.
    """

    def __init__(
        self,
        sim,
        network,
        node_id: str,
        site: str,
        peers: List[str],
        config: Optional[PBFTConfig] = None,
        verifier: Optional[Verifier] = None,
        obs=None,
    ) -> None:
        super().__init__(sim, network, node_id, site)
        #: Observability hub (shared no-op instance when disabled).
        self.obs = obs if obs is not None else DISABLED
        if node_id not in peers:
            raise ProtocolError(f"{node_id} missing from its own peer list")
        if len(peers) < unit_size(1):
            raise ProtocolError(
                f"PBFT needs at least {unit_size(1)} replicas (3f+1), "
                f"got {len(peers)}"
            )
        self.peers = list(peers)
        # The group never reconfigures, so the quorum thresholds are
        # constants of the replica; the quorum checks run on every vote
        # and must not recompute ``(n - 1) // 3`` arithmetic each time.
        self._commit_quorum = commit_quorum(max_faulty(len(self.peers)))
        self.config = config or PBFTConfig()
        self.verifier = verifier
        self.view = 0
        self.in_view_change = False
        self.next_seq = 1  # used only while leader
        self.last_executed = 0
        self.stable_checkpoint = 0
        self.slots: Dict[int, _Slot] = {}
        self.executed_entries: List[CommittedEntry] = []
        self.on_executed: List[Callable[[CommittedEntry], None]] = []
        self._exec_chain = hashlib.sha256(b"genesis").hexdigest()
        self._request_counter = 0
        self._pending: Dict[Tuple[str, int], _PendingRequest] = {}
        self._assigned_requests: Dict[Tuple[str, int], int] = {}
        self._executed_requests: set = set()
        self._request_watchdogs: Dict[Tuple[str, int], int] = {}
        # request_id → its armed watchdog timer, cancelled on execution
        # (watchdog delays double per firing, so a stale one can sit in
        # the heap for many seconds of virtual time otherwise).
        self._request_watchdog_timers: Dict[Tuple[str, int], Any] = {}
        self._view_change_votes: Dict[int, Dict[str, ViewChange]] = {}
        self._voted_view = 0
        # Virtual time this replica entered its current view change
        # (None outside one); bounds the "pbft.view_change" span the
        # critical-path attributor charges failover stalls to.
        self._view_change_started: Optional[float] = None
        self._highest_vote: Dict[str, int] = {}
        self._last_view_change_vote: Optional[ViewChange] = None
        self._escalations = 0
        # seq → replica → its Checkpoint vote (digests + signature).
        self._checkpoints: Dict[int, Dict[str, Checkpoint]] = {}
        #: Certificate of the latest stable checkpoint (None until the
        #: first one stabilizes).
        self.stable_certificate: Optional[CheckpointCertificate] = None
        # Snapshot payloads taken at our own checkpoint broadcasts,
        # kept until their watermark stabilizes (then only the stable
        # one survives).
        self._checkpoint_payloads: Dict[int, Any] = {}
        self._stable_snapshot_payload: Any = None
        # Highest seq garbage-collected out of ``executed_entries``
        # (0 = full log retained). Catch-up requests at or below it are
        # served by snapshot state transfer instead of entry replay.
        self._executed_gc_seq = 0
        #: Checkpoint certificates this replica formed from 2f+1 votes.
        self.checkpoint_certificates = 0
        #: Diagnostics for the state-transfer path.
        self.snapshot_installs = 0
        self.snapshot_install_seq = 0
        self.snapshots_served = 0
        self.snapshot_offers_rejected = 0
        #: seq → trace context of a just-executed traced slot; consumed
        #: by subclasses that attach further spans (Blockplane's Local
        #: Log apply pops entries as it handles them).
        self._slot_traces: Dict[int, Tuple[int, int]] = {}
        # Metric handles for the per-slot phase metrics, resolved once
        # instead of per executed slot.
        self._phase_histograms: Optional[Tuple[Histogram, Histogram]] = None
        self._commit_counters: Dict[str, Any] = {}
        self._deferred_verification: set = set()
        self._catch_up_tally: Dict[int, Dict[str, set]] = {}
        self._catch_up_values: Dict[Tuple[int, str], CommittedEntry] = {}

    # ------------------------------------------------------------------
    # Group arithmetic
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Group size."""
        return len(self.peers)

    @property
    def f(self) -> int:
        """Tolerated byzantine failures: ``(n - 1) // 3``."""
        return max_faulty(self.n)

    def leader_of(self, view: int) -> str:
        """Deterministic leader rotation: the view number modulo n."""
        return self.peers[view % self.n]

    @property
    def is_leader(self) -> bool:
        """Whether this replica leads the current view."""
        return self.leader_of(self.view) == self.node_id

    # ------------------------------------------------------------------
    # Submission (the "client" side lives on the replicas themselves:
    # in Blockplane, the submitter is the middleware node co-located
    # with the application)
    # ------------------------------------------------------------------
    def submit(
        self,
        value: Any,
        record_type: str = "log-commit",
        meta: Optional[Dict[str, Any]] = None,
        payload_bytes: int = 0,
        trace_ctx: Optional[Tuple[int, int]] = None,
    ) -> Future:
        """Submit a value for total-order commitment.

        Args:
            trace_ctx: Optional observability trace context
                ``(trace_id, parent_span_id)``; when tracing is on the
                consensus round and its phases are recorded as child
                spans of it.

        Returns:
            A future resolving with the :class:`CommittedEntry` once
            ``f + 1`` replicas have replied with matching execution
            results. The future outlives leader failures: the request is
            retried into new views until it commits.
        """
        self._request_counter += 1
        request_id = (self.node_id, self._request_counter)
        pending = _PendingRequest(
            future=Future(self.sim, label=f"pbft:{request_id}"),
            value=value,
            record_type=record_type,
            meta=meta,
            payload_bytes=payload_bytes,
            trace_ctx=trace_ctx,
        )
        if trace_ctx is not None and self.obs.tracing:
            pending.span = self.obs.begin_span(
                "pbft.consensus", trace_ctx,
                participant=self.site, node=self.node_id,
                record_type=record_type,
            )
        self._pending[request_id] = pending
        self._dispatch_request(request_id)
        pending.timer = self.set_timer(
            self.config.request_timeout_ms, self._request_timeout, request_id
        )
        return pending.future

    def _dispatch_request(self, request_id: Tuple[str, int]) -> None:
        pending = self._pending.get(request_id)
        if pending is None:
            return
        request = ClientRequest(
            payload_bytes=pending.payload_bytes,
            request_id=request_id,
            value=pending.value,
            record_type=pending.record_type,
            meta=pending.meta,
            trace=pending.trace_ctx,
        )
        leader = self.leader_of(self.view)
        if leader == self.node_id:
            self.handle_client_request(request, self.node_id)
        else:
            self.send(leader, request)

    def _request_timeout(self, request_id: Tuple[str, int]) -> None:
        pending = self._pending.get(request_id)
        if pending is None:
            return
        pending.retries += 1
        # If we lead and already proposed this request, retransmit the
        # pre-prepare (a quorum member may have been down and missed the
        # original round). Otherwise suspect the leader.
        seq = self._assigned_requests.get(request_id)
        if self.is_leader and seq is not None:
            slot = self.slots.get(seq)
            if slot is not None and slot.has_pre_prepare and not slot.executed:
                self.broadcast(
                    self.peers,
                    PrePrepare(
                        payload_bytes=slot.payload_bytes,
                        view=slot.view,
                        seq=seq,
                        digest=slot.digest,
                        request_id=slot.request_id,
                        value=slot.value,
                        record_type=slot.record_type,
                        meta=slot.meta,
                        trace=slot.trace,
                    ),
                )
        else:
            self._start_view_change(self.view + 1)
            # Broadcast the request to the whole group (standard PBFT):
            # every replica forwards it to the leader and arms its own
            # watchdog, so the group — not just this origin — suspects
            # a leader that fails to order it.
            request = ClientRequest(
                payload_bytes=pending.payload_bytes,
                request_id=request_id,
                value=pending.value,
                record_type=pending.record_type,
                meta=pending.meta,
                trace=pending.trace_ctx,
            )
            self.broadcast(self.peers, request)
            self._dispatch_request(request_id)
        pending.timer = self.set_timer(
            self.config.request_timeout_ms * (pending.retries + 1),
            self._request_timeout,
            request_id,
        )

    #: How many leader suspicions one stuck request may trigger at a
    #: non-origin replica. Bounded so a request the leader legitimately
    #: *rejected* (which never executes) cannot drive view changes
    #: forever — the origin's own retry timer carries liveness beyond
    #: this budget.
    WATCHDOG_BUDGET = 8

    def _client_request_watchdog(self, request_id: Tuple[str, int]) -> None:
        """A forwarded client request never executed: suspect the
        leader, and keep watching until it executes or the budget ends."""
        if request_id in self._executed_requests:
            self._request_watchdogs.pop(request_id, None)
            self._request_watchdog_timers.pop(request_id, None)
            return
        fired = self._request_watchdogs.get(request_id, 0)
        if fired >= self.WATCHDOG_BUDGET:
            self._request_watchdog_timers.pop(request_id, None)
            return
        self._request_watchdogs[request_id] = fired + 1
        self._start_view_change(self.view + 1)
        self._request_watchdog_timers[request_id] = self.set_timer(
            2 * self.config.request_timeout_ms * (fired + 1),
            self._client_request_watchdog,
            request_id,
        )

    def _slot_timeout(self, seq: int, view: int) -> None:
        """An accepted proposal did not execute in time: suspect the
        leader of that view (unless we have moved past it already)."""
        slot = self.slots.get(seq)
        if slot is None or slot.executed or seq <= self.last_executed:
            return
        if self.view != view:
            return
        self._start_view_change(self.view + 1)

    def _has_progress_pressure(self) -> bool:
        """Is there work stuck behind the current (suspect) leader?"""
        if self._pending:
            return True
        return any(
            slot.has_pre_prepare and not slot.executed
            for slot in self.slots.values()
        )

    # ------------------------------------------------------------------
    # Normal case
    # ------------------------------------------------------------------
    def handle_client_request(self, msg: ClientRequest, src: str) -> None:
        """Leader: assign a sequence number and broadcast pre-prepare."""
        if not self.is_leader or self.in_view_change:
            # Forward to whoever we believe leads, and arm a watchdog:
            # if the request never executes, this replica joins the
            # suspicion against the leader (PBFT's liveness rule).
            leader = self.leader_of(self.view)
            if leader != self.node_id and src == msg.request_id[0]:
                self.send(leader, msg)
            if msg.request_id not in self._request_watchdogs:
                self._request_watchdogs[msg.request_id] = 0
                self._request_watchdog_timers[msg.request_id] = self.set_timer(
                    2 * self.config.request_timeout_ms,
                    self._client_request_watchdog,
                    msg.request_id,
                )
            return
        if msg.request_id in self._assigned_requests:
            return  # duplicate (client retry); already in flight
        reject_reason = self._pre_validate(msg)
        if reject_reason is not None:
            rejection = RejectRequest(
                request_id=msg.request_id,
                reason=reject_reason,
                replica=self.node_id,
            )
            if msg.request_id[0] == self.node_id:
                self.handle_reject_request(rejection, self.node_id)
            else:
                self.send(msg.request_id[0], rejection)
            return
        seq = self.next_seq
        self.next_seq += 1
        self._assigned_requests[msg.request_id] = seq
        digest = request_digest(msg.value, msg.record_type, msg.request_id)
        pre_prepare = PrePrepare(
            payload_bytes=msg.payload_bytes,
            view=self.view,
            seq=seq,
            digest=digest,
            request_id=msg.request_id,
            value=msg.value,
            record_type=msg.record_type,
            meta=msg.meta,
            trace=msg.trace,
        )
        self.broadcast(self.peers, pre_prepare)
        self.handle_pre_prepare(pre_prepare, self.node_id)

    def _pre_validate(self, msg: ClientRequest) -> Optional[str]:
        """Leader-side gate before assigning a sequence number.

        Returns None to accept, or a human-readable reason to refuse.
        An honest leader refuses values its own verification routine
        would reject — otherwise it would burn a sequence number on a
        proposal that can never gather commit votes. Subclasses extend
        this (e.g. Blockplane's duplicate-transmission check).
        """
        if self.verifier is None:
            return None
        slot_like = _Slot(
            value=msg.value, record_type=msg.record_type, meta=msg.meta
        )
        verdict = self._verify_slot(slot_like)
        if verdict is False:
            return "verification routine rejected the value"
        return None

    def handle_reject_request(self, msg: RejectRequest, src: str) -> None:
        """Origin side: fail the submit future with the leader's reason.

        Only the current leader's word is taken; a byzantine non-leader
        cannot kill someone else's request this way.
        """
        if src != self.leader_of(self.view) and src != msg.replica:
            return
        if msg.replica != self.leader_of(self.view):
            return
        pending = self._pending.pop(msg.request_id, None)
        if pending is None:
            return
        if pending.timer is not None:
            pending.timer.cancel()
        if pending.span is not None:
            self.obs.end_span(pending.span, rejected=msg.reason)
        if not pending.future.resolved:
            pending.future.reject(
                VerificationFailed(
                    f"request {msg.request_id} rejected by leader: {msg.reason}"
                )
            )

    def handle_pre_prepare(self, msg: PrePrepare, src: str) -> None:
        """Accept the leader's ordering proposal and echo a prepare."""
        if msg.view != self.view or self.in_view_change:
            return
        if src != self.leader_of(msg.view):
            return  # only the view's leader may pre-prepare
        if self.obs.forensics:
            self.obs.event(
                "pbft.pre_prepare", participant=self.site, node=self.node_id,
                trace=msg.trace, view=msg.view, seq=msg.seq,
                digest=msg.digest, leader=src, request_id=msg.request_id,
            )
        slot = self.slots.get(msg.seq)
        if slot is not None and slot.has_pre_prepare:
            if slot.digest == msg.digest and (
                slot.view == msg.view or slot.executed
            ):
                # Retransmitted pre-prepare (the leader healing a lost
                # round, a recovered replica's gap, or a new view
                # re-proposing a slot we already executed): re-send our
                # own votes so the quorum can re-form for laggards.
                if slot.prepare_sent:
                    self.broadcast(
                        self.peers,
                        Prepare(
                            view=slot.view, seq=msg.seq, digest=slot.digest,
                            replica=self.node_id,
                        ),
                    )
                if slot.commit_sent:
                    self.broadcast(
                        self.peers,
                        Commit(
                            view=slot.view, seq=msg.seq, digest=slot.digest,
                            replica=self.node_id,
                        ),
                    )
                return
            if slot.executed:
                # The executed value is final; a conflicting re-proposal
                # (even from a higher view) must never replace it or
                # attract our votes.
                return
            if slot.view >= msg.view:
                return  # already accepted a proposal for this slot
        if slot is None and msg.seq <= self.last_executed:
            # Checkpoint-truncated sequence number: it is stably
            # committed by 2f+1 replicas — laggards recover it through
            # catch-up, not through fresh votes.
            return
        if slot is None or msg.view > slot.view:
            slot = _Slot()
            self.slots[msg.seq] = slot
        slot.view = msg.view
        slot.digest = msg.digest
        slot.value = msg.value
        slot.record_type = msg.record_type
        slot.meta = msg.meta
        slot.request_id = msg.request_id
        slot.payload_bytes = msg.payload_bytes
        slot.has_pre_prepare = True
        if self.obs.enabled and slot.t_pre_prepare < 0:
            slot.t_pre_prepare = self.sim.now
            slot.trace = msg.trace
        if not slot.prepare_sent:
            slot.prepare_sent = True
            slot.prepares[self.node_id] = msg.digest
            prepare = Prepare(
                view=msg.view, seq=msg.seq, digest=msg.digest,
                replica=self.node_id,
            )
            self.broadcast(self.peers, prepare)
        # Execution watchdog: an accepted proposal that never executes
        # makes this replica suspect the leader (standard PBFT timer —
        # this is what lets non-submitting replicas join view changes).
        if slot.timer is not None:
            slot.timer.cancel()  # re-proposal: the old view's watchdog is dead
        slot.timer = self.set_timer(
            self.config.request_timeout_ms * 2,
            self._slot_timeout,
            msg.seq,
            msg.view,
        )
        self._check_prepared(msg.seq)

    @staticmethod
    def _matching_votes(votes: Dict[str, str], digest: str) -> int:
        """Count votes cast for exactly this digest."""
        return sum(1 for voted in votes.values() if voted == digest)

    def handle_prepare(self, msg: Prepare, src: str) -> None:
        """Tally a prepare vote.

        The digest travels with the vote: votes may arrive before the
        pre-prepare, and only votes matching the eventually-fixed
        digest count toward the quorum.
        """
        if self.obs.forensics:
            self.obs.event(
                "pbft.vote", participant=self.site, node=self.node_id,
                phase="prepare", view=msg.view, seq=msg.seq,
                digest=msg.digest, voter=msg.replica, src=src,
            )
        if msg.replica != src:
            return  # a replica may only vote as itself
        slot = self.slots.get(msg.seq)
        if slot is None:
            slot = self.slots[msg.seq] = _Slot(view=msg.view)
        slot.prepares[src] = msg.digest
        self._check_prepared(msg.seq)

    def _check_prepared(self, seq: int) -> None:
        """Prepared ⇒ run the verification routine, then vote commit."""
        slot = self.slots.get(seq)
        if slot is None or not slot.has_pre_prepare or slot.commit_sent:
            return
        # Count matching prepares inline: this runs per vote received,
        # and a generator-expression ``sum`` costs a frame per call.
        digest = slot.digest
        votes = 0
        for voted in slot.prepares.values():
            if voted == digest:
                votes += 1
        if votes < self._commit_quorum:
            return
        if self.obs.enabled and slot.t_prepared < 0:
            slot.t_prepared = self.sim.now
        # --- Blockplane modification #2: the verification routine runs
        # between the prepared state and the commit broadcast. A routine
        # may return None to *defer* (e.g. a received record whose chain
        # predecessor has not been voted yet); the check is retried when
        # earlier slots make progress.
        verdict = self._verify_slot(slot)
        if verdict is None:
            self._deferred_verification.add(seq)
            return
        if not verdict:
            if self.obs.enabled:
                self.obs.counter(
                    "pbft_verify_rejects_total", participant=self.site
                ).inc()
                if self.obs.forensics:
                    self.obs.event(
                        "pbft.verify_reject", participant=self.site,
                        node=self.node_id, trace=slot.trace,
                        view=slot.view, seq=seq,
                        record_type=slot.record_type, digest=slot.digest,
                        leader=self.leader_of(slot.view),
                    )
            return
        slot.commit_sent = True
        slot.commits[self.node_id] = slot.digest
        commit = Commit(
            view=slot.view, seq=seq, digest=slot.digest, replica=self.node_id
        )
        self.broadcast(self.peers, commit)
        self._check_committed(seq)
        self._retry_deferred_verification()

    def _retry_deferred_verification(self) -> None:
        """Re-run verification for slots that previously deferred."""
        if not self._deferred_verification:
            return
        pending = sorted(self._deferred_verification)
        self._deferred_verification.clear()
        for seq in pending:
            self._check_prepared(seq)

    def _verify_slot(self, slot: _Slot) -> Optional[bool]:
        if slot.record_type == NOOP_RECORD_TYPE:
            return True  # hole fillers are always legal
        if self.verifier is None:
            return True
        try:
            verdict = self.verifier(slot.value, slot.record_type, slot.meta)
        except Exception:
            # A crashing verification routine must read as a rejection:
            # byzantine proposals may be arbitrarily malformed.
            return False
        if verdict is None:
            return None
        return bool(verdict)

    def handle_commit(self, msg: Commit, src: str) -> None:
        """Tally a commit vote; execute once a quorum exists in order."""
        if self.obs.forensics:
            self.obs.event(
                "pbft.vote", participant=self.site, node=self.node_id,
                phase="commit", view=msg.view, seq=msg.seq,
                digest=msg.digest, voter=msg.replica, src=src,
            )
        if msg.replica != src:
            return
        slot = self.slots.get(msg.seq)
        if slot is None:
            slot = self.slots[msg.seq] = _Slot(view=msg.view)
        slot.commits[src] = msg.digest
        self._check_committed(msg.seq)

    def _check_committed(self, seq: int) -> None:
        slot = self.slots.get(seq)
        if slot is None or slot.committed or not slot.has_pre_prepare:
            return
        digest = slot.digest
        votes = 0
        for voted in slot.commits.values():
            if voted == digest:
                votes += 1
        if votes < self._commit_quorum:
            return
        if not slot.commit_sent:
            return  # our own verification routine has not accepted it
        slot.committed = True
        self._execute_ready()

    def _execute_ready(self) -> None:
        """Execute committed slots in strict sequence order."""
        while True:
            slot = self.slots.get(self.last_executed + 1)
            if slot is None or not slot.committed or slot.executed:
                break
            slot.executed = True
            self.last_executed += 1
            if slot.timer is not None:
                slot.timer.cancel()
                slot.timer = None
            rid = slot.request_id
            if rid != ("", 0):
                watchdog = self._request_watchdog_timers.pop(rid, None)
                if watchdog is not None:
                    watchdog.cancel()
                    self._request_watchdogs.pop(rid, None)
            if rid != ("", 0) and rid in self._executed_requests:
                # A request retried across a view change can commit in
                # two slots; every honest replica executes the second
                # occurrence as a no-op (still replying, in case the
                # origin missed the first round's replies).
                entry = CommittedEntry(
                    seq=self.last_executed,
                    view=slot.view,
                    value=NOOP_VALUE,
                    record_type=NOOP_RECORD_TYPE,
                    meta=None,
                    payload_bytes=0,
                )
                self._apply(entry, slot)
            else:
                if rid != ("", 0):
                    self._executed_requests.add(rid)
                entry = CommittedEntry(
                    seq=self.last_executed,
                    view=slot.view,
                    value=slot.value,
                    record_type=slot.record_type,
                    meta=slot.meta,
                    payload_bytes=slot.payload_bytes,
                    request_id=rid,
                )
                self._apply(entry, slot)
            self._retry_deferred_verification()

    def _apply(self, entry: CommittedEntry, slot: _Slot) -> None:
        self.executed_entries.append(entry)
        self._exec_chain = hashlib.sha256(
            (self._exec_chain + slot.digest).encode()
        ).hexdigest()
        if self.obs.enabled and entry.record_type != NOOP_RECORD_TYPE:
            self._record_slot_obs(entry, slot)
        for callback in self.on_executed:
            callback(entry)
        origin = slot.request_id[0]
        if origin:
            reply = Reply(
                view=slot.view, seq=entry.seq, digest=slot.digest,
                request_id=slot.request_id, replica=self.node_id,
            )
            if origin == self.node_id:
                self.handle_reply(reply, self.node_id)
            else:
                self.send(origin, reply)
        if (
            self.config.checkpoint_interval
            and entry.seq % self.config.checkpoint_interval == 0
        ):
            self._broadcast_checkpoint(entry.seq)

    def _record_slot_obs(self, entry: CommittedEntry, slot: _Slot) -> None:
        """Phase metrics and spans for a just-executed slot.

        Recorded only at the request's *origin* replica so each commit
        contributes exactly one sample per phase (every replica sees
        the same virtual-time quorum points; sampling all of them would
        just quadruple identical data).
        """
        if slot.request_id[0] != self.node_id or slot.t_pre_prepare < 0:
            return
        now = self.sim.now
        site = self.site
        obs = self.obs
        prepared = slot.t_prepared if slot.t_prepared >= 0 else now
        histograms = self._phase_histograms
        if histograms is None:
            histograms = self._phase_histograms = (
                obs.histogram(
                    "pbft_preprepare_to_prepared_ms", participant=site
                ),
                obs.histogram(
                    "pbft_prepared_to_committed_ms", participant=site
                ),
            )
        histograms[0].observe(prepared - slot.t_pre_prepare, at=now)
        histograms[1].observe(now - prepared, at=now)
        counter = self._commit_counters.get(entry.record_type)
        if counter is None:
            counter = self._commit_counters[entry.record_type] = obs.counter(
                "pbft_commits_total", participant=site,
                record_type=entry.record_type,
            )
        counter.value += 1.0
        if not obs.tracing or slot.trace is None:
            return
        self._slot_traces[entry.seq] = slot.trace
        pending = self._pending.get(slot.request_id)
        parent = pending.span if pending is not None else None
        ctx = (
            obs.ctx_of(parent) if parent is not None else slot.trace
        )
        common = dict(participant=site, node=self.node_id, seq=entry.seq)
        obs.complete_span(
            "pbft.pre_prepare", slot.t_pre_prepare, slot.t_pre_prepare,
            ctx, **common,
        )
        obs.complete_span(
            "pbft.prepare", slot.t_pre_prepare, prepared, ctx, **common
        )
        obs.complete_span(
            "pbft.verify", prepared, prepared, ctx,
            record_type=entry.record_type, **common,
        )
        obs.complete_span("pbft.commit", prepared, now, ctx, **common)

    def handle_reply(self, msg: Reply, src: str) -> None:
        """Origin side: resolve the submit future on f+1 matching
        replies."""
        pending = self._pending.get(msg.request_id)
        if pending is None:
            return
        pending.replies[msg.replica] = (msg.view, msg.seq, msg.digest)
        matching = [
            replica
            for replica, (view, seq, digest) in pending.replies.items()
            if (seq, digest) == (msg.seq, msg.digest)
        ]
        if len(matching) < reply_quorum(self.f):
            return
        del self._pending[msg.request_id]
        if pending.timer is not None:
            # The request is done: the armed retry timer will never do
            # anything again. Cancelling turns it into a heap tombstone
            # (swept by compaction) instead of a guaranteed future
            # no-op firing — in a sustained run these dead retry timers
            # are the dominant long-dated heap population.
            pending.timer.cancel()
        entry = CommittedEntry(
            seq=msg.seq,
            view=msg.view,
            value=pending.value,
            record_type=pending.record_type,
            meta=pending.meta,
            payload_bytes=pending.payload_bytes,
        )
        if pending.span is not None:
            self.obs.end_span(pending.span, seq=msg.seq)
        if not pending.future.resolved:
            pending.future.resolve(entry)

    # ------------------------------------------------------------------
    # Checkpoints
    # ------------------------------------------------------------------
    @property
    def low_water(self) -> int:
        """The low-water mark: the latest stable checkpoint's seq."""
        return self.stable_checkpoint

    # --- hooks overridden by middleware subclasses (Blockplane nodes
    # attach a Local Log snapshot and HMAC signatures; plain PBFT
    # groups checkpoint unsigned execution digests only) ---
    def _checkpoint_payload(self, seq: int) -> Any:
        """Middleware snapshot taken at a checkpoint broadcast (None
        for plain PBFT)."""
        return None

    def _snapshot_digest_of(self, payload: Any) -> str:
        """Digest of a checkpoint's snapshot payload ("" for None)."""
        if payload is None:
            return ""
        return payload.digest()

    def _sign_checkpoint(self, digest: str) -> Any:
        """Sign our checkpoint vote (None = unsigned)."""
        return None

    def _checkpoint_vote_valid(self, msg: Checkpoint) -> bool:
        """Whether a peer's checkpoint vote is admissible (subclasses
        verify the signature before the vote can count)."""
        return True

    def _certificate_valid(self, certificate: CheckpointCertificate) -> bool:
        """Whether a *fetched* certificate proves its watermark. Plain
        PBFT votes are unsigned, so nothing transferable can be proved
        — subclasses with signing keys override this."""
        return False

    def _install_snapshot_payload(self, payload: Any, seq: int) -> bool:
        """Install a certified snapshot's middleware state (Blockplane
        restores its Local Log here). Returns False to refuse."""
        return payload is None

    def _on_stable_checkpoint(
        self,
        seq: int,
        certificate: CheckpointCertificate,
        payload: Any,
    ) -> None:
        """Subclass hook fired after a checkpoint stabilizes locally
        (Blockplane's gateway proposes Local Log truncation here)."""

    def _broadcast_checkpoint(self, seq: int) -> None:
        if seq <= self.stable_checkpoint:
            # A quorum already certified this watermark (we learned the
            # certificate before executing the slot ourselves); voting
            # again would only leak a payload nobody can count.
            return
        payload = self._checkpoint_payload(seq)
        snapshot_digest = self._snapshot_digest_of(payload)
        if payload is not None:
            self._checkpoint_payloads[seq] = payload
        checkpoint = Checkpoint(
            seq=seq,
            state_digest=self._exec_chain,
            snapshot_digest=snapshot_digest,
            signature=self._sign_checkpoint(
                checkpoint_digest(seq, self._exec_chain, snapshot_digest)
            ),
            replica=self.node_id,
        )
        self.broadcast(self.peers, checkpoint)
        self.handle_checkpoint(checkpoint, self.node_id)

    def handle_checkpoint(self, msg: Checkpoint, src: str) -> None:
        """Gather checkpoint votes; stabilize on a quorum of matching
        (state, snapshot) digests."""
        if msg.replica != src or msg.seq <= self.stable_checkpoint:
            return
        if not self._checkpoint_vote_valid(msg):
            return
        votes = self._checkpoints.setdefault(msg.seq, {})
        votes[src] = msg
        tally: Dict[Tuple[str, str], int] = {}
        for vote in votes.values():
            key = (vote.state_digest, vote.snapshot_digest)
            tally[key] = tally.get(key, 0) + 1
        for (state_digest, snapshot_digest), count in tally.items():
            if count >= commit_quorum(self.f):
                self._stabilize_checkpoint(
                    msg.seq, state_digest, snapshot_digest, votes
                )
                return

    def _stabilize_checkpoint(
        self,
        seq: int,
        state_digest: str,
        snapshot_digest: str,
        votes: Dict[str, Checkpoint],
    ) -> None:
        signatures = tuple(
            (replica, vote.signature)
            for replica, vote in sorted(votes.items())
            if vote.signature is not None
            and (vote.state_digest, vote.snapshot_digest)
            == (state_digest, snapshot_digest)
        )
        certificate = CheckpointCertificate(
            seq=seq,
            state_digest=state_digest,
            snapshot_digest=snapshot_digest,
            signatures=signatures,
        )
        self.checkpoint_certificates += 1
        self.stable_checkpoint = seq
        self.stable_certificate = certificate
        # Our own payload for this watermark becomes the served stable
        # snapshot — but only if it matches what the quorum certified
        # (a divergent local state must never be served as certified).
        payload = None
        for pending_seq in [s for s in self._checkpoint_payloads if s <= seq]:
            stored = self._checkpoint_payloads.pop(pending_seq)
            if pending_seq == seq:
                payload = stored
        if (
            payload is not None
            and self._snapshot_digest_of(payload) == snapshot_digest
        ):
            self._stable_snapshot_payload = payload
        for slot_seq in [s for s in self.slots if s <= seq]:
            if self.slots[slot_seq].executed:
                del self.slots[slot_seq]
        for vote_seq in [s for s in self._checkpoints if s <= seq]:
            del self._checkpoints[vote_seq]
        dead = min(seq, self.last_executed)
        for tally_seq in [s for s in self._catch_up_tally if s <= dead]:
            del self._catch_up_tally[tally_seq]
        for key in [k for k in self._catch_up_values if k[0] <= dead]:
            del self._catch_up_values[key]
        if self.config.gc_executed_log:
            self._truncate_executed_entries(min(seq, self.last_executed))
        if self.obs.forensics:
            self.obs.event(
                "pbft.stable_checkpoint", participant=self.site,
                node=self.node_id, seq=seq,
                snapshot_digest=snapshot_digest,
            )
        if seq <= self.last_executed:
            self._on_stable_checkpoint(
                seq, certificate, self._stable_snapshot_payload
            )
            # Verifications deferred on checkpoint lag (e.g. Blockplane
            # truncation proposals) may be decidable now.
            self._retry_deferred_verification()
        else:
            # 2f+1 replicas checkpointed state we have not even
            # executed: proof we are behind — state-transfer.
            self._request_catch_up()

    def _truncate_executed_entries(self, seq: int) -> None:
        """Drop executed entries at or below ``seq`` (the retained
        suffix stays served by catch-up; anything lower is reachable
        only through snapshot state transfer)."""
        if seq <= self._executed_gc_seq:
            return
        self._executed_gc_seq = seq
        cut = bisect.bisect_right(
            self.executed_entries, seq, key=lambda entry: entry.seq
        )
        if cut:
            del self.executed_entries[:cut]

    # ------------------------------------------------------------------
    # View changes
    # ------------------------------------------------------------------
    def _start_view_change(self, new_view: int) -> None:
        if new_view <= self.view or new_view <= self._voted_view:
            return
        self._voted_view = new_view
        self.in_view_change = True
        if self._view_change_started is None:
            self._view_change_started = self.sim.now
        # Certificates cover every prepared slot above the stable
        # checkpoint — *including executed ones* (Castro & Liskov §4.4:
        # executed slots are only safe to omit once a checkpoint proves
        # them). Dropping them would let a lagging new leader plug a
        # committed sequence number with a no-op or a stale value, and
        # commit it on other laggards: a fork.
        prepared = [
            PreparedCertificate(
                view=slot.view,
                seq=seq,
                digest=slot.digest,
                value=slot.value,
                record_type=slot.record_type,
                meta=slot.meta,
                request_id=slot.request_id,
                trace=slot.trace,
            )
            for seq, slot in sorted(self.slots.items())
            if slot.has_pre_prepare
            and (
                self._matching_votes(slot.prepares, slot.digest)
                >= commit_quorum(self.f)
                or slot.executed
            )
        ]
        vote = ViewChange(
            new_view=new_view,
            last_executed=self.last_executed,
            prepared=prepared,
            replica=self.node_id,
        )
        self._last_view_change_vote = vote
        if self.obs.enabled:
            self.obs.counter(
                "pbft_view_changes_total", participant=self.site
            ).inc()
            if self.obs.forensics:
                self.obs.event(
                    "pbft.view_change", participant=self.site,
                    node=self.node_id, new_view=new_view,
                    last_executed=self.last_executed,
                    suspected_leader=self.leader_of(self.view),
                )
        self.broadcast(self.peers, vote)
        self.handle_view_change(vote, self.node_id)
        # Exponential backoff (standard PBFT): if view changes keep
        # failing — e.g. too many replicas are down for any progress —
        # escalation slows instead of spinning.
        self._escalations += 1
        backoff = self.config.view_change_timeout_ms * (
            2 ** min(self._escalations - 1, 8)
        )
        self.set_timer(backoff, self._view_change_timeout, new_view)

    def _view_change_timeout(self, voted_view: int) -> None:
        if self.view >= voted_view or self._voted_view != voted_view:
            return
        # A stuck view change often means we — not the leader — are the
        # problem: a recovered or isolated replica suspecting a group
        # that is live without it. Probe for committed state we missed;
        # if f+1 peers vouch for entries beyond our watermark, the
        # catch-up path rejoins the current view.
        self._request_catch_up()
        # Escalate when work is stuck behind the suspect leader, and
        # also when the stalled view gathered a full quorum of votes:
        # its prospective leader had everything needed to install the
        # view and never did (e.g. it is silently byzantine), so waiting
        # for it is hopeless. Without the quorum clause, replicas with
        # no local pending work would re-announce the same vote forever
        # and the f+1 join rule could never advance past the dead view.
        votes_for_view = len(self._view_change_votes.get(voted_view, {}))
        if self._has_progress_pressure() or votes_for_view >= commit_quorum(self.f):
            # The view change itself is stuck (its leader may be down):
            # escalate.
            self._start_view_change(voted_view + 1)
        else:
            # Nothing urgent; keep re-announcing our vote so recovered
            # replicas can join, and check again later.
            if self._last_view_change_vote is not None:
                self.broadcast(self.peers, self._last_view_change_vote)
            self.set_timer(
                self.config.view_change_timeout_ms,
                self._view_change_timeout,
                voted_view,
            )

    def handle_view_change(self, msg: ViewChange, src: str) -> None:
        """Tally view-change votes; the new leader installs the view."""
        if msg.replica != src or msg.new_view <= self.view:
            return
        votes = self._view_change_votes.setdefault(msg.new_view, {})
        votes[src] = msg
        self._highest_vote[src] = max(
            self._highest_vote.get(src, 0), msg.new_view
        )
        # Join rule: once f+1 distinct replicas demand views above ours,
        # at least one of them is honest — adopt the (f+1)-th highest
        # demanded view so votes can converge even if suspecters
        # escalated at different rates.
        higher = sorted(
            (view for view in self._highest_vote.values() if view > self.view),
            reverse=True,
        )
        if len(higher) >= reply_quorum(self.f):
            target = higher[self.f]
            if target > self._voted_view:
                self._start_view_change(target)
        if len(votes) < commit_quorum(self.f):
            return
        if self.leader_of(msg.new_view) != self.node_id:
            return
        self._install_view_as_leader(msg.new_view, list(votes.values()))

    def _install_view_as_leader(
        self, new_view: int, votes: List[ViewChange]
    ) -> None:
        best: Dict[int, PreparedCertificate] = {}
        for vote in votes:
            for cert in vote.prepared:
                current = best.get(cert.seq)
                if current is None or cert.view > current.view:
                    best[cert.seq] = cert
        max_executed = max(vote.last_executed for vote in votes)
        max_executed = max(max_executed, self.last_executed)
        pre_prepares = []
        for seq in sorted(best):
            if seq <= self.last_executed:
                continue
            cert = best[seq]
            pre_prepares.append(
                PrePrepare(
                    view=new_view,
                    seq=seq,
                    digest=cert.digest,
                    request_id=cert.request_id,
                    value=cert.value,
                    record_type=cert.record_type,
                    meta=cert.meta,
                    trace=cert.trace,
                )
            )
        self.view = new_view
        self.in_view_change = False
        self._record_view_change_span(new_view)
        self._escalations = 0
        self.next_seq = max(
            [max_executed + 1] + [pp.seq + 1 for pp in pre_prepares]
        )
        # Fill sequence holes left by the deposed leader (numbers it
        # assigned to proposals that can never commit) with no-ops so
        # in-order execution cannot stall behind them.
        proposed_seqs = {pp.seq for pp in pre_prepares}
        for seq in range(self.last_executed + 1, self.next_seq):
            if seq in proposed_seqs:
                continue
            slot = self.slots.get(seq)
            if slot is not None and (slot.committed or slot.commit_sent):
                continue
            noop_rid = ("", 0)
            pre_prepares.append(
                PrePrepare(
                    view=new_view,
                    seq=seq,
                    digest=_NOOP_FILL_DIGEST,
                    request_id=noop_rid,
                    value=NOOP_VALUE,
                    record_type=NOOP_RECORD_TYPE,
                    meta=None,
                )
            )
        pre_prepares.sort(key=lambda pp: pp.seq)
        new_view_msg = NewView(
            new_view=new_view, pre_prepares=pre_prepares, replica=self.node_id
        )
        if self.obs.forensics:
            self.obs.event(
                "pbft.new_view", participant=self.site, node=self.node_id,
                view=new_view, reproposed=len(pre_prepares),
            )
        self.broadcast(self.peers, new_view_msg)
        for pre_prepare in pre_prepares:
            self.handle_pre_prepare(pre_prepare, self.node_id)
        self._resubmit_pending()
        if self.last_executed < max_executed:
            self._request_catch_up()

    def handle_new_view(self, msg: NewView, src: str) -> None:
        """Adopt the announced view and replay re-proposed slots."""
        if msg.new_view <= self.view or src != self.leader_of(msg.new_view):
            return
        self.view = msg.new_view
        self.in_view_change = False
        self._record_view_change_span(msg.new_view)
        self._escalations = 0
        self._voted_view = max(self._voted_view, msg.new_view)
        for pre_prepare in msg.pre_prepares:
            self.handle_pre_prepare(pre_prepare, src)
        # The new leader only re-proposes above its own execution
        # watermark; if ours is further behind, the gap is stably
        # committed elsewhere — fetch it.
        first = min(
            (pre_prepare.seq for pre_prepare in msg.pre_prepares),
            default=None,
        )
        if first is not None and first > self.last_executed + 1:
            self._request_catch_up()
        self._resubmit_pending()

    def _record_view_change_span(self, new_view: int) -> None:
        """Close out the failover window on every traced pending
        request, so the critical-path attributor charges the stall to
        a named ``pbft.view_change`` segment instead of folding it
        into consensus self-time. Only the origin replica holds
        pending requests, so each trace gets the span once."""
        started = self._view_change_started
        self._view_change_started = None
        if started is None or not self.obs.tracing:
            return
        for pending in self._pending.values():
            ctx = self.obs.ctx_of(pending.span) or pending.trace_ctx
            if ctx is None:
                continue
            self.obs.complete_span(
                "pbft.view_change", started, self.sim.now, ctx,
                participant=self.site, node=self.node_id,
                new_view=new_view,
            )

    def _resubmit_pending(self) -> None:
        for request_id in list(self._pending):
            self._dispatch_request(request_id)

    # ------------------------------------------------------------------
    # Catch-up / recovery
    # ------------------------------------------------------------------
    def on_recover(self) -> None:
        """After a benign crash, re-fetch the suffix of the log."""
        self._request_catch_up()
        if self.in_view_change:
            # Timers armed before the crash were suppressed while the
            # node was down. A replica that crashed mid-view-change may
            # have missed the NewView entirely (installed while it was
            # dark); without a fresh timeout it would wait forever. The
            # timeout path retries catch-up and re-announces the vote
            # until the replica converges on the group's current view.
            self.set_timer(
                self.config.view_change_timeout_ms,
                self._view_change_timeout,
                self._voted_view,
            )

    def _request_catch_up(self) -> None:
        request = CatchUpRequest(
            from_seq=self.last_executed + 1, replica=self.node_id
        )
        self.broadcast(self.peers, request)

    def handle_catch_up_request(self, msg: CatchUpRequest, src: str) -> None:
        """Serve committed entries above the requester's watermark —
        or, when the requester needs history we garbage-collected,
        the stable certificate + snapshot + retained suffix."""
        if msg.from_seq <= self._executed_gc_seq:
            certificate = self.stable_certificate
            payload = self._stable_snapshot_payload
            if (
                certificate is not None
                and self._snapshot_digest_of(payload)
                == certificate.snapshot_digest
            ):
                start = bisect.bisect_left(
                    self.executed_entries,
                    certificate.seq + 1,
                    key=lambda entry: entry.seq,
                )
                entries = self.executed_entries[start:]
                self.snapshots_served += 1
                self.send(
                    src,
                    SnapshotResponse(
                        payload_bytes=sum(
                            entry.payload_bytes for entry in entries
                        ),
                        certificate=certificate,
                        snapshot=payload,
                        entries=entries,
                        replica=self.node_id,
                    ),
                )
                return
            # No servable certificate (e.g. we just caught up ourselves
            # and our payload predates the quorum's): fall through and
            # serve whatever suffix we still retain — another peer's
            # snapshot offer completes the transfer.
        # ``executed_entries`` is append-only in execution order, so the
        # suffix starts at a binary-searchable index — a full scan here
        # made every catch-up O(total log).
        start = bisect.bisect_left(
            self.executed_entries, msg.from_seq, key=lambda entry: entry.seq
        )
        entries = self.executed_entries[start:]
        if entries:
            payload = sum(entry.payload_bytes for entry in entries)
            self.send(
                src,
                CatchUpResponse(
                    payload_bytes=payload, entries=entries, replica=self.node_id
                ),
            )

    def handle_catch_up_response(self, msg: CatchUpResponse, src: str) -> None:
        """Adopt entries vouched for by f+1 distinct peers."""
        if msg.replica != src:
            return
        self._tally_catch_up_entries(msg.entries, src)

    def _tally_catch_up_entries(
        self, entries: List[CommittedEntry], src: str
    ) -> None:
        for entry in entries:
            if entry.seq <= self.last_executed:
                continue
            digest = catch_up_digest(entry.value, entry.record_type, entry.seq)
            tally = self._catch_up_tally.setdefault(entry.seq, {})
            tally.setdefault(digest, set()).add(src)
            # Staging, not state: _apply_caught_up installs an entry
            # only once reply_quorum(f) sources vouch for its digest.
            self._catch_up_values[  # bp-lint: disable=BP009 -- pre-quorum staging
                (entry.seq, digest)
            ] = entry
        self._apply_caught_up()

    def handle_snapshot_response(self, msg: SnapshotResponse, src: str) -> None:
        """State transfer: install a certified snapshot if it beats our
        watermark, then tally the accompanying suffix like any other
        catch-up response."""
        if msg.replica != src:
            return
        certificate = msg.certificate
        if certificate is not None and certificate.seq > self.last_executed:
            if (
                self._certificate_valid(certificate)
                and self._snapshot_digest_of(msg.snapshot)
                == certificate.snapshot_digest
                and self._install_snapshot_payload(msg.snapshot, certificate.seq)
            ):
                self._adopt_snapshot(certificate, msg.snapshot)
            else:
                self.snapshot_offers_rejected += 1
                if self.obs.forensics:
                    self.obs.event(
                        "pbft.snapshot_reject", participant=self.site,
                        node=self.node_id, src=src, seq=certificate.seq,
                        snapshot_digest=certificate.snapshot_digest,
                    )
                return  # a lying offer taints the whole response
        self._tally_catch_up_entries(msg.entries, src)

    def _adopt_snapshot(
        self, certificate: CheckpointCertificate, payload: Any
    ) -> None:
        """Jump execution state to a certified watermark (the snapshot
        payload was already installed by the subclass hook)."""
        seq = certificate.seq
        self.snapshot_installs += 1
        self.snapshot_install_seq = seq
        self.last_executed = seq
        self._exec_chain = certificate.state_digest
        self.stable_checkpoint = seq
        self.stable_certificate = certificate
        self._stable_snapshot_payload = payload
        self._executed_gc_seq = max(self._executed_gc_seq, seq)
        # Everything we retained is below the watermark (install only
        # happens for certificates beyond our execution point).
        cut = bisect.bisect_right(
            self.executed_entries, seq, key=lambda entry: entry.seq
        )
        del self.executed_entries[:cut]
        for slot_seq in [s for s in self.slots if s <= seq]:
            del self.slots[slot_seq]
        for vote_seq in [s for s in self._checkpoints if s <= seq]:
            del self._checkpoints[vote_seq]
        for tally_seq in [s for s in self._catch_up_tally if s <= seq]:
            del self._catch_up_tally[tally_seq]
        for key in [k for k in self._catch_up_values if k[0] <= seq]:
            del self._catch_up_values[key]
        if self.obs.forensics:
            self.obs.event(
                "pbft.snapshot_install", participant=self.site,
                node=self.node_id, seq=seq,
                snapshot_digest=certificate.snapshot_digest,
            )
        if self.in_view_change:
            # Same rationale as in ``_apply_caught_up``: the group is
            # provably live beyond our old watermark.
            self.in_view_change = False
            self._escalations = 0
        self._execute_ready()
        self._retry_deferred_verification()

    def _apply_caught_up(self) -> None:
        advanced = False
        while True:
            seq = self.last_executed + 1
            tally = self._catch_up_tally.get(seq)
            if tally is None:
                break
            adopted = None
            for digest, voters in tally.items():
                if len(voters) >= reply_quorum(self.f):
                    adopted = self._catch_up_values[(seq, digest)]
                    break
            if adopted is None:
                break
            advanced = True
            slot = self.slots.setdefault(seq, _Slot(view=adopted.view))
            slot.view = adopted.view
            slot.digest = catch_up_digest(
                adopted.value, adopted.record_type, adopted.seq
            )
            slot.value = adopted.value
            slot.record_type = adopted.record_type
            slot.meta = adopted.meta
            slot.request_id = adopted.request_id
            slot.payload_bytes = adopted.payload_bytes
            slot.has_pre_prepare = True
            slot.committed = True
            slot.commit_sent = True
            slot.executed = True
            if slot.timer is not None:
                slot.timer.cancel()
                slot.timer = None
            self.last_executed = seq
            del self._catch_up_tally[seq]
            if adopted.request_id != ("", 0):
                watchdog = self._request_watchdog_timers.pop(
                    adopted.request_id, None
                )
                if watchdog is not None:
                    watchdog.cancel()
                    self._request_watchdogs.pop(adopted.request_id, None)
                # Without this, a later re-commit of the same request
                # (retried across a view change) would be applied as a
                # real value here while every normally-executing peer
                # applies it as a duplicate no-op — a log fork.
                self._executed_requests.add(adopted.request_id)
            entry = CommittedEntry(
                seq=seq,
                view=adopted.view,
                value=adopted.value,
                record_type=adopted.record_type,
                meta=adopted.meta,
                payload_bytes=adopted.payload_bytes,
                request_id=adopted.request_id,
            )
            self.executed_entries.append(entry)
            self._exec_chain = hashlib.sha256(
                (self._exec_chain + slot.digest).encode()
            ).hexdigest()
            for callback in self.on_executed:
                callback(entry)
        if advanced and self.in_view_change:
            # f+1 peers vouched for commits beyond our old watermark:
            # the group is live without us, so our leader suspicion was
            # founded on stale state. Rejoin the current view rather
            # than waiting for view-change support that will never come
            # (an honest majority making progress never joins it).
            self.in_view_change = False
            self._escalations = 0
        if advanced:
            # Entries below the new watermark can now be truncated if a
            # quorum checkpointed past them; more importantly, anything
            # deferred on execution order may now be ready.
            self._execute_ready()
            self._retry_deferred_verification()
