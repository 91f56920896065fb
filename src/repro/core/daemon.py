"""Communication daemons and reserves (Algorithm 2, Section IV-C).

A **communication daemon** watches its participant's Local Log for
communication records addressed to one destination. For each one it
builds a transmission record (content + source position + pointer to
the previous record to the same destination), gathers ``fi + 1`` unit
signatures attesting its accuracy, and ships it to nodes of the
destination unit.

A **reserve daemon** guards against a byzantine daemon that silently
withholds traffic: it periodically asks ``> fi`` nodes at the remote
participant for the last position they received from us, derives a
trustworthy lower bound (any ``fi + 1`` responses contain an honest
one), and promotes itself to a full daemon when the gap exceeds a
threshold.

Duplicated deliveries caused by multiple active daemons are harmless —
the receive verification routine drops duplicates.
"""

from __future__ import annotations

import zlib
from typing import TYPE_CHECKING, Dict, Optional

from repro.core.messages import GapQuery, GapResponse, TransmissionMessage
from repro.core.records import (
    LogEntry,
    RECORD_COMMUNICATION,
    SealedTransmission,
    TransmissionRecord,
)
from repro.pbft.quorums import commit_quorum

if TYPE_CHECKING:
    from repro.core.geo import GeoCoordinator
    from repro.core.node import BlockplaneNode


def retry_delay(
    base_ms: float,
    backoff: float,
    attempts: int,
    max_delay_ms: float,
    node_id: str,
    destination: str,
) -> float:
    """Exponential retransmission backoff, capped and jittered.

    The exponential delay is clamped to ``max_delay_ms`` (0 disables the
    cap), then stretched by a deterministic jitter of up to 10% derived
    from the (node, destination, attempt) identity — daemons retrying
    the same outage do not thunder in lockstep, yet runs stay exactly
    reproducible.
    """
    delay = base_ms * (backoff ** attempts)
    if max_delay_ms > 0:
        delay = min(delay, max_delay_ms)
    jitter = (
        zlib.crc32(f"{node_id}:{destination}:{attempts}".encode()) % 997
    ) / 997.0
    return delay * (1.0 + 0.1 * jitter)


class CommunicationDaemon:
    """Ships communication records from one node to one destination.

    Args:
        node: The Blockplane node this daemon runs on (normally the
            unit's gateway/leader node).
        destination: Target participant name.
        geo: The node's geo coordinator, when ``fg > 0`` — transmissions
            then carry the entry's mirror proofs.
        active: Reserve daemons start inactive and only ship after
            promotion.
    """

    def __init__(
        self,
        node: "BlockplaneNode",
        destination: str,
        geo: Optional["GeoCoordinator"] = None,
        active: bool = True,
    ):
        self.node = node
        self.destination = destination
        self.geo = geo
        self.active = active
        self.shipped: set = set()
        #: source position -> re-ship attempts already used (present
        #: while a transport ack from the destination is outstanding).
        self._awaiting_ack: Dict[int, int] = {}
        #: Source positions the destination has acknowledged receiving
        #: (transport-level). Bounds Local Log truncation: the gateway
        #: never folds a shipped-but-unacked communication record.
        self._acked_positions: set = set()
        #: position → the armed retransmission timer. Acks cancel it —
        #: in the healthy path every transmission is acked within one
        #: RTT while the timer is dated a full retry timeout out, so
        #: without cancellation the heap carries one dead timer per
        #: transmission ever sent.
        self._retry_timers: Dict[int, object] = {}
        node.on_log_append.append(self._on_append)
        node.comm_daemons.append(self)

    def _on_append(self, entry: LogEntry) -> None:
        if not self.active or self.node.crashed:
            return
        if entry.record_type != RECORD_COMMUNICATION:
            return
        if entry.destination != self.destination:
            return
        self.ship(entry)

    def ship(self, entry: LogEntry) -> None:
        """Build, attest, and transmit one communication record."""
        if entry.position in self.shipped:
            return
        self.shipped.add(entry.position)
        obs = self.node.obs
        if obs.forensics:
            # Journaled at intent time (synchronously with the append or
            # catch-up that triggered it), so the auditor's withholding
            # timeline cannot be skewed by in-flight tail work.
            obs.event(
                "daemon.ship", participant=self.node.participant,
                node=self.node.node_id,
                trace=obs.entry_trace(self.node.participant, entry.position),
                destination=self.destination, position=entry.position,
            )
        self.node.sim.spawn(self._ship_process(entry))

    def _ship_process(self, entry: LogEntry):
        node = self.node
        obs = node.obs
        log = node.local_log
        ctx = None
        ship_span = None
        if obs.tracing:
            ctx = obs.entry_trace(node.participant, entry.position)
            # An unsampled commit has no entry trace; skip the ship
            # span rather than opening a stray root trace for it.
            if ctx is not None:
                ship_span = obs.begin_span(
                    "daemon.ship", ctx,
                    participant=node.participant, node=node.node_id,
                    destination=self.destination, position=entry.position,
                )
        record = TransmissionRecord(
            source=node.participant,
            destination=self.destination,
            message=entry.value,
            source_position=entry.position,
            prev_position=log.previous_communication_position(
                self.destination, entry.position
            ),
            payload_bytes=entry.payload_bytes,
        )
        # Gather f_i + 1 signatures from local nodes (one local round).
        sign_started = node.sim.now
        proof = yield node.collect_local_signatures(
            entry.position, record.digest(), purpose="transmission"
        )
        if obs.enabled:
            obs.histogram(
                "daemon_sign_ms", participant=node.participant
            ).observe(node.sim.now - sign_started, at=node.sim.now)
            if ship_span is not None:
                obs.complete_span(
                    "sign.collect", sign_started, node.sim.now,
                    obs.ctx_of(ship_span),
                    participant=node.participant, node=node.node_id,
                    position=entry.position,
                )
        geo_proofs = ()
        if self.geo is not None and node.bp_config.f_geo > 0:
            geo_proofs = yield self.geo.ensure_proofs(entry)
        sealed = SealedTransmission(
            record=record, proof=proof, geo_proofs=tuple(geo_proofs)
        )
        targets = node.directory.unit_members(self.destination)
        fanout = min(node.bp_config.transmission_fanout, len(targets))
        trace_field = None
        if ship_span is not None:
            wan_span = obs.begin_wan_span(
                node.participant, self.destination, entry.position,
                obs.ctx_of(ship_span), node=node.node_id,
            )
            trace_field = obs.ctx_of(wan_span)
            obs.end_span(ship_span)
        message = TransmissionMessage(sealed=sealed, trace=trace_field)
        for target in targets[:fanout]:
            node.send(target, message)
        if node.bp_config.transmission_retry_limit > 0:
            attempts = self._awaiting_ack.setdefault(entry.position, 0)
            delay = retry_delay(
                node.bp_config.transmission_retry_timeout_ms,
                node.bp_config.transmission_retry_backoff,
                attempts,
                node.bp_config.transmission_retry_max_delay_ms,
                node.node_id,
                self.destination,
            )
            stale = self._retry_timers.get(entry.position)
            if stale is not None:
                stale.cancel()  # superseded by this attempt's timer
            self._retry_timers[entry.position] = node.set_timer(
                delay, self._retransmit_if_unacked, entry.position, attempts
            )
        if obs.enabled:
            obs.counter(
                "bp_transmissions_total",
                source=node.participant, destination=self.destination,
            ).inc()

    # ------------------------------------------------------------------
    # Ack-driven retransmission
    # ------------------------------------------------------------------
    def on_ack(self, msg, src: str) -> None:
        """Cancel retransmission for an acknowledged record (wired via
        the node's :meth:`handle_transmission_ack`)."""
        if msg.source_participant != self.node.participant:
            return
        if msg.receiver_participant != self.destination:
            return
        self._awaiting_ack.pop(msg.source_position, None)
        self._acked_positions.add(msg.source_position)
        timer = self._retry_timers.pop(msg.source_position, None)
        if timer is not None:
            timer.cancel()

    def delivery_floor(self) -> Optional[int]:
        """Oldest retained communication record to this destination not
        yet transport-acknowledged, or None when everything retained was
        acked. Local Log truncation never folds past this: a record the
        destination may still be missing must stay re-shippable."""
        base = self.node.local_log.base_position
        if self._acked_positions:
            # Positions folded by a past truncation can never be asked
            # about again; drop them so the set tracks the window.
            self._acked_positions = {
                position
                for position in self._acked_positions
                if position >= base
            }
        for position in self.node.local_log.communication_positions(
            self.destination
        ):
            if position not in self._acked_positions:
                return position
        return None

    def _retransmit_if_unacked(self, position: int, attempts_at_send: int) -> None:
        """Re-ship a transmission whose transport ack never arrived."""
        node = self.node
        attempts = self._awaiting_ack.get(position)
        if attempts is None or attempts != attempts_at_send:
            return  # acked, or a newer attempt owns the timer
        self._retry_timers.pop(position, None)  # this firing consumed it
        if not self.active or node.crashed:
            return
        if not node.local_log.covers(position):
            # Folded by truncation — only possible once acked (the
            # delivery floor holds truncation back), so nothing to do.
            self._awaiting_ack.pop(position, None)
            return
        if attempts >= node.bp_config.transmission_retry_limit:
            # Out of budget: leave recovery to the reserve-daemon path.
            self._awaiting_ack.pop(position, None)
            return
        self._awaiting_ack[position] = attempts + 1
        if node.obs.enabled:
            node.obs.counter(
                "bp_transmission_retries_total",
                source=node.participant, destination=self.destination,
            ).inc()
        self.shipped.discard(position)
        self.ship(node.local_log.read(position))

    def catch_up(self, acked_source_position: int) -> None:
        """(Re-)ship every communication record above a known-received
        position (used by reserves at promotion time and on persistent
        gaps — earlier attempts may have been lost in transit)."""
        for position in self.node.local_log.communication_positions(
            self.destination
        ):
            if position > acked_source_position:
                self.shipped.discard(position)
                self.ship(self.node.local_log.read(position))


class ReserveDaemon:
    """A standby daemon that watches for withheld traffic.

    Args:
        node: The Blockplane node this reserve runs on (a different node
            than the active daemon's).
        destination: The participant whose reception it audits.
    """

    def __init__(
        self,
        node: "BlockplaneNode",
        destination: str,
        geo: Optional["GeoCoordinator"] = None,
    ):
        self.node = node
        self.destination = destination
        self.promoted: Optional[CommunicationDaemon] = None
        self._geo = geo
        self._responses: Dict[str, int] = {}
        self._probe_round = 0
        interval = node.bp_config.reserve_poll_interval_ms
        # Stagger the first probe so reserves do not fire in lockstep:
        # a deterministic per-daemon fraction of one interval, derived
        # from the (node, destination) identity so every reserve of a
        # unit lands at a different offset yet runs stay reproducible.
        stagger = (
            zlib.crc32(f"{node.node_id}:{destination}".encode()) % 997
        ) / 997.0
        node.set_timer(interval * (1.0 + stagger), self._probe)

    def _probe(self) -> None:
        if self.node.crashed:
            return
        self._probe_round += 1
        self._responses = {}
        members = self.node.directory.unit_members(self.destination)
        # Ask more than f+1 so a single slow/malicious responder cannot
        # force a spurious promotion (Section IV-C's discussion).
        ask = min(len(members), commit_quorum(self.node.bp_config.f_independent))
        if self.node.obs.forensics:
            self.node.obs.event(
                "reserve.probe", participant=self.node.participant,
                node=self.node.node_id, destination=self.destination,
                round=self._probe_round, asked=ask,
            )
        query = GapQuery(source_participant=self.node.participant)
        for member in members[:ask]:
            self.node.send(member, query)
        self.node.set_timer(
            self.node.bp_config.reserve_poll_interval_ms, self._evaluate
        )

    def handle_gap_response(self, msg: GapResponse, src: str) -> None:
        """Record one remote node's claim (wired via the node)."""
        if msg.source_participant != self.node.participant:
            return
        # The node fans every GapResponse to all of its reserves, so a
        # response from another unit's probe would land here too. Only
        # members of the audited destination may contribute: a claim
        # from a third participant reflects *its* reception state and
        # would inflate the trusted floor, hiding the destination's gap.
        if src not in self.node.directory.unit_members(self.destination):
            return
        if self.node.obs.forensics:
            self.node.obs.event(
                "reserve.response", participant=self.node.participant,
                node=self.node.node_id, destination=self.destination,
                src=src, claim=msg.last_source_position,
                round=self._probe_round,
            )
        self._responses[src] = msg.last_source_position

    def _evaluate(self) -> None:
        if self.node.crashed:
            return
        needed = self.node.bp_config.proof_size  # f_i + 1
        if len(self._responses) >= needed:
            # The best trustworthy bound: choose the f+1 responses that
            # maximize the smallest claimed position; that minimum is
            # honest-backed.
            claims = sorted(self._responses.values(), reverse=True)
            trusted_floor = claims[needed - 1]
            positions = self.node.local_log.communication_positions(
                self.destination
            )
            latest = positions[-1] if positions else 0
            gap = len([p for p in positions if p > trusted_floor])
            if gap > self.node.bp_config.reserve_gap_threshold:
                if self.promoted is None:
                    self._promote(trusted_floor, latest)
                else:
                    # Still behind after promotion: earlier attempts may
                    # have been lost — re-ship the gap.
                    self.promoted.catch_up(trusted_floor)
        self.node.set_timer(
            self.node.bp_config.reserve_poll_interval_ms, self._probe
        )

    def _promote(self, trusted_floor: int, latest: int) -> None:
        """Become a full communication daemon (suspected withholding)."""
        if self.node.obs.enabled:
            self.node.obs.counter(
                "bp_reserve_promotions_total",
                participant=self.node.participant,
                destination=self.destination,
            ).inc()
            if self.node.obs.forensics:
                self.node.obs.event(
                    "reserve.promoted", participant=self.node.participant,
                    node=self.node.node_id, destination=self.destination,
                    floor=trusted_floor, latest=latest,
                )
        self.promoted = CommunicationDaemon(
            self.node, self.destination, geo=self._geo, active=True
        )
        self.promoted.catch_up(trusted_floor)
