"""The benchmark's workloads: seeded arrivals, the drivers that offer
them, and the per-op record each run keeps.

A workload turns ``--seed`` into a fixed set of arrivals (due times,
kinds, payloads, destinations) and offers them to a deployment built
through the library's public entry points. The library sees only those
arrivals; the seed also seeds the ``Simulator``.

* ``steady`` -- open loop on three symmetric sites (40 ms RTT), fi=1,
  fg=0: Poisson arrivals at 2000 ops/s per site with a 50-op burst every
  500 arrivals, 96-byte payloads, four ``log_commit`` in five and one
  ``send``. Checkpoint interval 64, log truncation and an admission
  window of 256: the ``macro.commits.sustained`` configuration at five
  times its rate. Loads the simulator, PBFT and the Local Log.
* ``geo_bulk`` -- closed loop on the paper's Table I topology, fi=1,
  fg=1, wire fidelity on: two clients per site, each alternating a
  ``log_commit`` and a ``send`` of a nested-int-tuple payload. Loads
  crypto, the codec, geo replication and the daemons, with few ops in
  flight.
* ``failover`` -- open loop on three symmetric sites at fi=2 (seven
  nodes per unit): half ``log_commit``, half reads of recent positions
  over all four read paths, while site A's view-0 primary (its
  configured gateway) crashes early and recovers mid-run. The only
  workload that exercises view change, catch-up and the read path.
"""

from __future__ import annotations

import math
import random
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core import BlockplaneConfig, BlockplaneDeployment, ReadStrategy
from repro.errors import Overloaded, ReproError
from repro.pbft.config import PBFTConfig
from repro.sim.faults import FaultInjector
from repro.sim.network import NetworkOptions
from repro.sim.simulator import Simulator
from repro.sim.topology import aws_four_dc_topology, symmetric_topology

COMMIT = "commit"
SEND = "send"
#: Read kinds of ``failover``; ``read_proven`` is the fourth read path.
READ_KINDS = ("read_one", "read_quorum", "linearizable", "read_proven")
_READ_STRATEGY = {
    "read_one": ReadStrategy.READ_ONE,
    "read_quorum": ReadStrategy.READ_QUORUM,
    "linearizable": ReadStrategy.LINEARIZABLE,
}

def _beta_cdf(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta function I_x(a, b), by Lentz's
    evaluation of its continued fraction."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    if x > (a + 1.0) / (a + b + 2.0):
        return 1.0 - _beta_cdf(1.0 - x, b, a)
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    ) / a
    if front == 0.0:
        return 0.0
    tiny = 1e-300
    f = c = 1.0
    d = 0.0
    for i in range(1000):
        m = i // 2
        if i == 0:
            term = 1.0
        elif i % 2 == 0:
            term = m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m))
        else:
            term = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))
        d = 1.0 + term * d
        d = 1.0 / (d if abs(d) > tiny else tiny)
        c = 1.0 + term / c
        c = c if abs(c) > tiny else tiny
        f *= c * d
        if abs(1.0 - c * d) < 1e-15:
            break
    return front * (f - 1.0)


def percentile(values: List[float], q: float) -> float:
    """Harrell-Davis estimate of the ``q`` quantile (0.0 if empty).

    A weighted mean of every order statistic with Beta((n+1)q,
    (n+1)(1-q)) weights. Latencies caught by a stall sit on plateaus a
    retry timeout apart (``failover``), so the single order statistic a
    linear-interpolation p99 picks jumps by a whole timeout from seed to
    seed as the plateaus' sizes move; this estimate moves with them.
    """
    n = len(values)
    if n == 0:
        return 0.0
    ordered = sorted(values)
    if n == 1:
        return ordered[0]
    a = (n + 1) * q
    b = (n + 1) * (1.0 - q)
    total = 0.0
    previous = 0.0
    for i, value in enumerate(ordered):
        current = _beta_cdf((i + 1) / n, a, b)
        total += (current - previous) * value
        previous = current
    return total


#: Uniform extra delay in [0, _JITTER_MS] on every network hop. Without
#: it every latency is a sum of a few fixed link delays, so medians and
#: tails sit on the same values for every seed; 20 us is a tenth of an
#: intra-datacenter hop.
_JITTER_MS = 0.02
#: Virtual ms between samples of every replica's retained footprint.
_FOOTPRINT_SAMPLE_MS = 200.0
#: Virtual ms the deployment runs after the last settlement, before the
#: invariant checks, so every replica converges.
_SETTLE_MS = 5_000.0
#: Virtual ms a run may take beyond its arrival window before the
#: benchmark declares that the deployment stopped draining.
_DRAIN_CEILING_MS = 120_000.0


class Ledger:
    """What happened to every offered op of one run.

    ``start`` is the op's due time (open loop) or submit time (closed
    loop); ``end`` its settlement, when it committed or failed. A
    ``send`` is additionally tracked until the destination's
    ``receive()`` returns it.
    """

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.kind: List[str] = []
        self.site: List[str] = []
        self.start: List[float] = []
        self.end: List[Optional[float]] = []
        self.ok: List[bool] = []
        self.received: List[List[float]] = []
        #: ``(site, position) -> value`` of every commit that resolved,
        #: including attempts that resolved after their op settled.
        self.committed_values: Dict[Tuple[str, int], Any] = {}
        #: Per-site virtual times at which a write resolved.
        self.write_times: Dict[str, List[float]] = {}
        self.absent_reads = 0
        self.wrong_reads: List[str] = []
        self.unknown_receives: List[str] = []
        self.pending = 0
        self.undelivered = 0
        #: Wall clock (``time.perf_counter``) of the last settlement.
        self.settled_wall: Optional[float] = None

    def add(self, kind: str, site: str, start: float) -> int:
        self.kind.append(kind)
        self.site.append(site)
        self.start.append(start)
        self.end.append(None)
        self.ok.append(False)
        self.received.append([])
        self.pending += 1
        return len(self.kind) - 1

    def _settle(self, op: int, ok: bool) -> None:
        self.end[op] = self.sim.now
        self.ok[op] = ok
        self.pending -= 1
        if ok and self.kind[op] == SEND and not self.received[op]:
            # With geo tolerance the destination can receive a send
            # before the source's proofs resolve its future.
            self.undelivered += 1
        self._note_progress()

    def _note_progress(self) -> None:
        if self.pending == 0 and self.undelivered == 0:
            self.settled_wall = time.perf_counter()

    def fail(self, op: int) -> None:
        if self.end[op] is None:
            self._settle(op, False)

    def commit_resolved(self, op: int, position: int, value: Any) -> None:
        """A ``log_commit``/``send`` attempt of ``op`` resolved."""
        site = self.site[op]
        self.committed_values[(site, position)] = value
        if self.kind[op] == COMMIT:
            self.write_times.setdefault(site, []).append(self.sim.now)
        if self.end[op] is None:
            self._settle(op, True)

    def read_resolved(
        self, op: int, position: int, entry: Any
    ) -> None:
        """A read attempt of ``op`` returned ``entry`` for ``position``."""
        key = (self.site[op], position)
        if entry is None:
            # Not yet applied at the serving node, or folded by
            # truncation: allowed, and counted.
            if self.end[op] is None:
                self.absent_reads += 1
        elif key in self.committed_values and (
            entry.value != self.committed_values[key]
        ):
            self.wrong_reads.append(
                f"op {op} ({self.kind[op]}) read {entry.value!r} at "
                f"{self.site[op]}:{position}, expected "
                f"{self.committed_values[key]!r}"
            )
        if self.end[op] is None:
            self._settle(op, True)

    def receive(self, message: Any) -> None:
        """The destination's ``receive()`` returned ``message``."""
        op = _op_of(message)
        if op is None or op >= len(self.kind) or self.kind[op] != SEND:
            self.unknown_receives.append(repr(message)[:80])
            return
        self.received[op].append(self.sim.now)
        if len(self.received[op]) == 1 and self.ok[op]:
            self.undelivered -= 1
            self._note_progress()

    @property
    def done(self) -> bool:
        return self.pending == 0 and self.undelivered == 0

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def latencies(self, kinds: Tuple[str, ...]) -> List[float]:
        """Settlement latencies of committed ops of the given kinds."""
        return [
            self.end[op] - self.start[op]
            for op in range(len(self.kind))
            if self.ok[op] and self.kind[op] in kinds
        ]

    def delivery_latencies(self) -> List[float]:
        return [
            self.received[op][0] - self.start[op]
            for op in range(len(self.kind))
            if self.kind[op] == SEND and self.ok[op] and self.received[op]
        ]

    def violations(self) -> List[str]:
        """Broken end-to-end promises: unsettled ops, committed sends not
        returned exactly once, reads of a value never committed there."""
        out: List[str] = []
        if self.pending:
            out.append(f"{self.pending} offered ops never settled")
        for op in range(len(self.kind)):
            if self.kind[op] != SEND:
                continue
            copies = len(self.received[op])
            if self.ok[op] and copies != 1:
                out.append(f"send op {op} returned by receive() {copies} times")
        out.extend(self.wrong_reads[:10])
        out.extend(
            f"receive() returned an unknown message {text}"
            for text in self.unknown_receives[:10]
        )
        return out


def _text_payload(op: int, size: int) -> str:
    """A ``size``-character payload naming its op."""
    header = f"{op}:"
    return header + "x" * (size - len(header))


def _op_of(message: Any) -> Optional[int]:
    """The op index a benchmark payload carries."""
    if isinstance(message, str):
        head = message.split(":", 1)[0]
        return int(head) if head.isdigit() else None
    if isinstance(message, tuple) and message and isinstance(message[0], tuple):
        return message[0][0]
    return None


class Offerer:
    """Offers ops to one site's API under an open-loop schedule.

    A submission shed by admission control backs off and is offered
    again; an attempt that has not resolved after ``attempt_timeout_ms``
    is superseded by a new one (the old attempt may still commit); an
    op not committed ``deadline_ms`` after it was due has failed.
    """

    def __init__(
        self,
        sim: Simulator,
        ledger: Ledger,
        submit: Callable[[int], Any],
        resolved: Callable[[int, Any], None],
        attempt_timeout_ms: float,
        deadline_ms: float,
        backoff_ms: float,
    ) -> None:
        self.sim = sim
        self.ledger = ledger
        self.submit = submit
        self.resolved = resolved
        self.attempt_timeout_ms = attempt_timeout_ms
        self.deadline_ms = deadline_ms
        self.backoff_ms = backoff_ms
        self.admitted = 0
        self.shed = 0
        self.timeouts = 0
        self.errors = 0

    def offer(self, op: int) -> None:
        ledger = self.ledger
        if ledger.end[op] is not None:
            return
        if self.sim.now - ledger.start[op] >= self.deadline_ms:
            ledger.fail(op)
            return
        try:
            future = self.submit(op)
        except Overloaded:
            self.shed += 1
            self.sim.schedule(self.backoff_ms, self.offer, op)
            return
        self.admitted += 1
        timer = self.sim.schedule(
            self.attempt_timeout_ms, self._timed_out, op, future
        )
        future.add_done_callback(
            lambda done: self._done(op, done, timer)
        )

    def _timed_out(self, op: int, future) -> None:
        if not future.resolved and self.ledger.end[op] is None:
            self.timeouts += 1
            self.offer(op)

    def _done(self, op: int, future, timer) -> None:
        timer.cancel()
        if future.exception is not None:
            self.errors += 1
            if self.ledger.end[op] is None:
                self.sim.schedule(self.backoff_ms, self.offer, op)
            return
        self.resolved(op, future.result())


def _schedule_process(sim: Simulator, due: List[Tuple[float, int]], offer):
    """Offer each ``(due time, op)`` when it comes due, whatever the
    deployment is doing (open loop)."""
    for at, op in due:
        if at > sim.now:
            yield sim.sleep(at - sim.now)
        offer(op)


def _receiver_process(api, ledger: Ledger):
    while True:
        message = yield api.receive()
        ledger.receive(message)


def _retained_footprint(node) -> int:
    """Local Log entries, live PBFT slots and retained executed entries
    a replica holds (the ``macro.commits.sustained`` footprint)."""
    return (
        node.local_log.retained_count
        + len(node.slots)
        + len(node.executed_entries)
    )


def _sample_footprints(deployment, high_water: Dict[str, int]) -> None:
    for node in deployment.all_nodes():
        footprint = _retained_footprint(node)
        if footprint > high_water.get(node.node_id, 0):
            high_water[node.node_id] = footprint


def _footprint_process(sim: Simulator, deployment, high_water: Dict[str, int]):
    while True:
        _sample_footprints(deployment, high_water)
        yield sim.sleep(_FOOTPRINT_SAMPLE_MS)


class Workload:
    """One run of one workload: built by the constructor (set-up),
    driven by :meth:`drive` (the timed part), then settled and checked.
    """

    #: Arrival window in virtual ms; set by each workload.
    window_ms = 0.0
    #: Latency series the workload produces, each needing
    #: ``min_samples`` committed ops so its p99 has ten beyond it.
    series: Tuple[str, ...] = ("commit",)
    min_samples = 1_000

    def __init__(self, seed: int, obs=None) -> None:
        self.seed = seed
        self.sim = Simulator(seed=seed)
        self.ledger = Ledger(self.sim)
        self.deployment = self.build(obs)
        self.apis = {
            site: self.deployment.api(site)
            for site in self.deployment.participants
        }
        self.offerers: List[Offerer] = []
        self.high_water: Dict[str, int] = {}
        self.sim.spawn(
            _footprint_process(self.sim, self.deployment, self.high_water)
        )
        for api in self.apis.values():
            self.sim.spawn(_receiver_process(api, self.ledger))
        self.spawn_clients()

    def build(self, obs) -> BlockplaneDeployment:
        raise NotImplementedError

    def spawn_clients(self) -> None:
        raise NotImplementedError

    @property
    def offered(self) -> int:
        return len(self.ledger.kind)

    def drive(self, between: Optional[Callable[[], None]] = None) -> None:
        """Run until every offered op settled and every committed send
        was received, calling ``between`` (if given) before each
        simulation step, so never after the last settlement."""
        ceiling = self.window_ms + _DRAIN_CEILING_MS
        while not self.ledger.done:
            if between is not None:
                between()
            if self.sim.now >= ceiling:
                raise RuntimeError(
                    f"{self.ledger.pending} ops still unsettled and "
                    f"{self.ledger.undelivered} sends undelivered at "
                    f"{self.sim.now:.0f} virtual ms"
                )
            self.sim.run(until=self.sim.now + 100.0)

    def settle(self) -> None:
        self.sim.run(until=self.sim.now + _SETTLE_MS)
        _sample_footprints(self.deployment, self.high_water)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def virtual_metrics(self) -> Dict[str, float]:
        """Virtual-time end-to-end metrics: a function of the seed."""
        ledger = self.ledger
        failed = sum(1 for ok in ledger.ok if not ok)
        out = {
            "failed": failed,
            "failed_frac": failed / self.offered,
            "offered": self.offered,
            "absent_reads": ledger.absent_reads,
        }
        series = {
            "commit": ledger.latencies((COMMIT,)),
            "delivery": ledger.delivery_latencies(),
            "read": ledger.latencies(READ_KINDS),
        }
        for kind in READ_KINDS:
            series[kind] = ledger.latencies((kind,))
        for name, values in series.items():
            out[f"{name}_samples"] = len(values)
            out[f"{name}_mean_ms"] = sum(values) / len(values) if values else 0.0
            out[f"{name}_p50_ms"] = percentile(values, 0.50)
            out[f"{name}_p99_ms"] = percentile(values, 0.99)
        out.update(self.extra_metrics())
        return out

    def extra_metrics(self) -> Dict[str, float]:
        return {}

    def counters(self) -> Dict[str, int]:
        """Exact work counters, read from public attributes."""
        sim = self.sim
        network = self.deployment.network
        nodes = self.deployment.all_nodes()
        cache = self.deployment.registry.verification_cache
        return {
            "events": sim.events_processed,
            "timers_cancelled": sim.events_cancelled,
            "messages": network.messages_sent,
            "bytes": network.bytes_sent,
            "wire_transcodes": network.wire_transcodes,
            "verifies_computed": cache.misses,
            "verify_hits": cache.hits,
            "view_changes": sum(
                max(node.view for node in unit.nodes)
                for unit in self.deployment.units.values()
            ),
            "snapshot_installs": sum(node.snapshot_installs for node in nodes),
            "retained_high_water": max(self.high_water.values()),
            "admitted": sum(o.admitted for o in self.offerers),
            "shed": sum(o.shed for o in self.offerers),
            "attempt_timeouts": sum(o.timeouts for o in self.offerers),
            "attempt_errors": sum(o.errors for o in self.offerers),
        }

    def violations(self) -> List[str]:
        """Run the correctness checks; empty means correct."""
        from repro.chaos import invariants

        out = self.ledger.violations()
        deployment = self.deployment
        for check in (
            invariants.check_post_heal,
            invariants.check_local_log_agreement,
            invariants.check_transmission_chains,
            invariants.check_at_most_once,
            invariants.check_geo_mirrors,
            invariants.check_snapshot_certificates,
        ):
            out.extend(str(v) for v in check(deployment))
        metrics = self.virtual_metrics()
        for name in self.series:
            count = metrics[f"{name}_samples"]
            if count < self.min_samples:
                out.append(
                    f"only {count} {name} samples; a p99 needs "
                    f"{self.min_samples}"
                )
        return out


# ----------------------------------------------------------------------
# steady
# ----------------------------------------------------------------------
class Steady(Workload):
    series = ("commit", "delivery")
    sites = ("A", "B", "C")
    rate_per_s = 2_000.0
    ops_per_site = 2_000
    burst_every = 500
    burst_size = 50
    payload_bytes = 96
    send_every = 5

    def build(self, obs) -> BlockplaneDeployment:
        return BlockplaneDeployment(
            self.sim,
            symmetric_topology(self.sites, 40.0),
            BlockplaneConfig(
                f_independent=1,
                f_geo=0,
                pbft=PBFTConfig(checkpoint_interval=64, gc_executed_log=True),
                admission_max_in_flight=256,
            ),
            network_options=NetworkOptions(jitter_ms=_JITTER_MS),
            obs=obs,
        )

    def arrivals(
        self, rng: random.Random, site: str
    ) -> List[Tuple[float, str, str]]:
        """``(due ms, kind, destination)`` of one site's arrivals."""
        others = [other for other in self.sites if other != site]
        mean_gap = 1_000.0 / self.rate_per_s
        due = 0.0
        out = []
        while len(out) < self.ops_per_site:
            due += rng.expovariate(1.0 / mean_gap)
            burst = (
                self.burst_size
                if (len(out) + 1) % self.burst_every == 0 else 0
            )
            for _ in range(1 + burst):
                if len(out) == self.ops_per_site:
                    break
                if len(out) % self.send_every == 0:
                    out.append((due, SEND, rng.choice(others)))
                else:
                    out.append((due, COMMIT, ""))
        return out

    def spawn_clients(self) -> None:
        ledger = self.ledger
        for site_index, site in enumerate(self.sites):
            api = self.apis[site]
            rng = random.Random(self.seed * 1_000_003 + site_index)
            schedule = []
            destination: Dict[int, str] = {}
            for at, kind, to in self.arrivals(rng, site):
                op = ledger.add(kind, site, at)
                schedule.append((at, op))
                if kind == SEND:
                    destination[op] = to
            self.window_ms = max(self.window_ms, schedule[-1][0])
            offerer = Offerer(
                self.sim,
                ledger,
                self._submitter(api, destination),
                lambda op, position: ledger.commit_resolved(
                    op, position, None
                ),
                attempt_timeout_ms=30_000.0,
                deadline_ms=30_000.0,
                backoff_ms=2.0,
            )
            self.offerers.append(offerer)
            self.sim.spawn(_schedule_process(self.sim, schedule, offerer.offer))

    def _submitter(self, api, destination: Dict[int, str]):
        size = self.payload_bytes

        def submit(op: int):
            value = _text_payload(op, size)
            to = destination.get(op)
            if to is None:
                return api.log_commit(value, payload_bytes=size)
            return api.send(value, to=to, payload_bytes=size)

        return submit

    def violations(self) -> List[str]:
        from repro.bench.macro import SUSTAINED_RETAINED_BOUND

        out = super().violations()
        worst = max(self.high_water.values())
        if worst > SUSTAINED_RETAINED_BOUND:
            out.append(
                f"retained footprint {worst} exceeds "
                f"{SUSTAINED_RETAINED_BOUND} entries"
            )
        return out


# ----------------------------------------------------------------------
# geo_bulk
# ----------------------------------------------------------------------
class GeoBulk(Workload):
    series = ("commit", "delivery")
    clients_per_site = 2
    #: log_commit + send pairs per client: 1024 samples of each kind.
    rounds = 128
    payload_ints = 256
    payload_bytes = 1_000
    think_ms = (1.0, 5.0)

    def build(self, obs) -> BlockplaneDeployment:
        topology = aws_four_dc_topology()
        self.sites = topology.site_names
        return BlockplaneDeployment(
            self.sim,
            topology,
            BlockplaneConfig(f_independent=1, f_geo=1),
            network_options=NetworkOptions(
                wire_fidelity=True, jitter_ms=_JITTER_MS
            ),
            obs=obs,
        )

    def spawn_clients(self) -> None:
        for site_index, site in enumerate(self.sites):
            for client in range(self.clients_per_site):
                rng = random.Random(
                    (self.seed * 1_000_003 + site_index) * 16 + client
                )
                # Registered up front so the run is not over between
                # one client op and the next; each start is set at submit.
                ops = [
                    self.ledger.add(kind, site, 0.0)
                    for _ in range(self.rounds)
                    for kind in (COMMIT, SEND)
                ]
                self.sim.spawn(self._client(site, ops, rng))

    def _payload(self, op: int, rng: random.Random) -> Tuple:
        return (
            (op, "bulk"),
            tuple(rng.randrange(1 << 30) for _ in range(self.payload_ints)),
        )

    def _client(self, site: str, ops: List[int], rng: random.Random):
        """Closed loop: each op is submitted once the previous one
        committed, after a short think time."""
        sim = self.sim
        ledger = self.ledger
        api = self.apis[site]
        others = [other for other in self.sites if other != site]
        for op in ops:
            yield sim.sleep(rng.uniform(*self.think_ms))
            ledger.start[op] = sim.now
            value = self._payload(op, rng)
            if ledger.kind[op] == COMMIT:
                future = api.log_commit(value, payload_bytes=self.payload_bytes)
            else:
                future = api.send(
                    value, to=rng.choice(others),
                    payload_bytes=self.payload_bytes,
                )
            try:
                position = yield future
            except ReproError:
                ledger.fail(op)
                continue
            ledger.commit_resolved(op, position, None)


# ----------------------------------------------------------------------
# failover
# ----------------------------------------------------------------------
class Failover(Workload):
    series = ("commit", "read")
    sites = ("A", "B", "C")
    rate_per_s = 10.0
    window_ms = 70_000.0
    crash_at_ms = 3_000.0
    recover_at_ms = 30_000.0
    payload_bytes = 96
    #: Reads target one of this many most recent commits of their site.
    read_depth = 16
    #: Larger than the steady window: attempts submitted through the
    #: recovered gateway while it is stuck never resolve and keep their
    #: admission slot (reported as ``core.leaked_in_flight``), and a
    #: 256-slot window would fill with them before the run ends.
    admission_window = 1_024

    def build(self, obs) -> BlockplaneDeployment:
        return BlockplaneDeployment(
            self.sim,
            symmetric_topology(self.sites, 40.0),
            BlockplaneConfig(
                f_independent=2,
                f_geo=0,
                admission_max_in_flight=self.admission_window,
            ),
            network_options=NetworkOptions(jitter_ms=_JITTER_MS),
            obs=obs,
        )

    def spawn_clients(self) -> None:
        ledger = self.ledger
        self.read_target: Dict[int, int] = {}
        primary = self.deployment.unit(self.sites[0]).nodes[0]
        FaultInjector(self.sim, self.deployment.network).crash_cycle(
            primary, self.crash_at_ms, self.recover_at_ms
        )
        gap = 1_000.0 / self.rate_per_s
        for site_index, site in enumerate(self.sites):
            rng = random.Random(self.seed * 1_000_003 + site_index)
            api = self.apis[site]
            plan: Dict[int, Tuple[str, int]] = {}
            schedule = []
            at = rng.uniform(0.0, gap)
            index = 0
            while at < self.window_ms:
                kind = COMMIT if index % 2 == 0 else rng.choice(READ_KINDS)
                op = ledger.add(kind, site, at)
                plan[op] = (kind, rng.randrange(self.read_depth))
                schedule.append((at, op))
                at += gap
                index += 1
            recent: List[int] = []
            offerer = Offerer(
                self.sim,
                ledger,
                self._submitter(api, plan, recent),
                self._resolver(plan, recent),
                attempt_timeout_ms=2_000.0,
                deadline_ms=30_000.0,
                backoff_ms=100.0,
            )
            self.offerers.append(offerer)
            self.sim.spawn(_schedule_process(self.sim, schedule, offerer.offer))

    def _submitter(self, api, plan, recent: List[int]):
        size = self.payload_bytes

        def submit(op: int):
            kind, depth = plan[op]
            if kind == COMMIT:
                return api.log_commit(_text_payload(op, size), payload_bytes=size)
            if op not in self.read_target:
                # Fixed at the first attempt: the depth-th most recent
                # commit this site has seen.
                self.read_target[op] = (
                    recent[-1 - min(depth, len(recent) - 1)] if recent else 1
                )
            position = self.read_target[op]
            if kind == "read_proven":
                return api.read_proven(position)
            return api.read(position, _READ_STRATEGY[kind])

        return submit

    def _resolver(self, plan, recent: List[int]):
        ledger = self.ledger
        size = self.payload_bytes

        def resolved(op: int, result: Any) -> None:
            kind, _depth = plan[op]
            if kind == COMMIT:
                recent.append(result)
                del recent[: -self.read_depth]
                ledger.commit_resolved(op, result, _text_payload(op, size))
                return
            if kind == "read_proven" and result is not None:
                result = result[0]
            ledger.read_resolved(op, self.read_target[op], result)

        return resolved

    def extra_metrics(self) -> Dict[str, float]:
        """``outage_ms``: the longest interval between the crash and the
        end of the arrival window with no write committed at the
        faulted site."""
        times = sorted(
            t
            for t in self.ledger.write_times.get(self.sites[0], [])
            if self.crash_at_ms < t < self.window_ms
        )
        points = [self.crash_at_ms] + times + [self.window_ms]
        return {
            "outage_ms": max(b - a for a, b in zip(points, points[1:]))
        }


WORKLOADS: Dict[str, type] = {
    "steady": Steady,
    "geo_bulk": GeoBulk,
    "failover": Failover,
}
