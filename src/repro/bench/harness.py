"""Benchmark registration and execution.

A :class:`Benchmark` wraps a setup function (untimed: builds whatever
state the operation needs) and an operation function (timed: runs
``ops`` operations against that state and returns bench-specific
counters). The harness times ``warmup + repeats`` calls, keeps the best
repeat (minimum wall time — the standard estimator for CPU-bound micro
work, least polluted by scheduler noise), and normalizes to ns/op and
ops/sec.

Determinism contract: every benchmark receives an explicit ``seed``;
the *work done* (operation counts, event counts, committed entries)
must be a pure function of it. Only the wall-clock readings vary
between invocations, and those are confined to
:mod:`repro.bench.timer`.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.bench import timer
from repro.bench.schema import SCHEMA_NAME, SCHEMA_VERSION
from repro.crypto.caches import set_caches_enabled


@dataclasses.dataclass(frozen=True)
class Benchmark:
    """One registered benchmark.

    Attributes:
        name: Dotted identifier, e.g. ``micro.digest.stable``.
        kind: ``micro`` or ``macro``.
        make: ``seed -> (operation, ops)``: builds the timed closure and
            declares how many logical operations one call performs. The
            closure may return a dict of extra counters (or None).
    """

    name: str
    kind: str
    make: Callable[[int], Any]


@dataclasses.dataclass
class BenchResult:
    """Measured outcome of one benchmark."""

    name: str
    kind: str
    ops: int
    repeats: int
    samples_ns: List[int]
    extra: Dict[str, Any]

    @property
    def best_ns(self) -> int:
        return min(self.samples_ns)

    @property
    def ns_per_op(self) -> float:
        return self.best_ns / self.ops

    @property
    def ops_per_sec(self) -> float:
        return 1e9 * self.ops / self.best_ns

    def to_dict(self) -> Dict[str, Any]:
        document = {
            "name": self.name,
            "kind": self.kind,
            "ops": self.ops,
            "repeats": self.repeats,
            "ns_per_op": self.ns_per_op,
            "ops_per_sec": self.ops_per_sec,
            "samples_ns": list(self.samples_ns),
            "extra": dict(self.extra),
        }
        # Sustained-load benchmarks report memory counters in extra;
        # lift them into the schema-v2 ``memory`` block so validators
        # and dashboards need not know per-benchmark extra keys.
        if "retained_high_water" in self.extra:
            document["memory"] = {
                "retained_high_water": int(self.extra["retained_high_water"]),
                "retained_bound": int(self.extra.get("retained_bound", 0)),
                "by_node": {
                    str(node): int(value)
                    for node, value in self.extra.get(
                        "retained_high_water_by_node", {}
                    ).items()
                },
            }
        # The critical-path attribution report is likewise lifted into
        # the schema-v4 ``latency`` block — and removed from ``extra``,
        # where duplicating a multi-kilobyte report would double the
        # artifact for nothing.
        if "latency" in self.extra:
            document["latency"] = document["extra"].pop("latency")
        return document


def run_benchmark(
    benchmark: Benchmark, seed: int, repeats: int, warmup: int
) -> BenchResult:
    """Execute one benchmark and normalize its readings."""
    operation, ops = benchmark.make(seed)
    samples, last = timer.repeat_ns(operation, repeats=repeats, warmup=warmup)
    extra = dict(last) if isinstance(last, dict) else {}
    return BenchResult(
        name=benchmark.name,
        kind=benchmark.kind,
        ops=ops,
        repeats=max(1, repeats),
        samples_ns=samples,
        extra=extra,
    )


def run_suite(
    benchmarks: Sequence[Benchmark],
    seed: int,
    repeats: int,
    warmup: int,
    caches: bool = True,
    progress: Optional[Callable[[str], None]] = None,
) -> List[BenchResult]:
    """Run ``benchmarks`` with the crypto caches on or off.

    Repeats are interleaved round-robin across the suite (every
    benchmark's repeat *k* runs before any benchmark's repeat *k+1*)
    instead of back-to-back per benchmark, so slow machine drift —
    thermal throttling, a co-tenant waking up — lands on every
    benchmark's sample set alike. Paired comparisons between suite
    members (``macro.commits.recorder_on`` against
    ``macro.commits.3site_f1``) depend on this: a sequential schedule
    puts the entire drift between the two timing blocks into their
    ratio.

    The previous cache setting is restored afterwards, so a control
    pass cannot leak into later measurements.
    """
    previous = set_caches_enabled(caches)
    try:
        operations = []
        for benchmark in benchmarks:
            if progress is not None:
                label = "" if caches else " [no caches]"
                progress(f"  {benchmark.name}{label} ...")
            operation, ops = benchmark.make(seed)
            last = None
            for _ in range(max(0, warmup)):
                last = operation()
            operations.append([benchmark, operation, ops, [], last])
        for _ in range(max(1, repeats)):
            for entry in operations:
                ns, entry[4] = timer.elapsed_ns(entry[1])
                entry[3].append(ns)
        return [
            BenchResult(
                name=benchmark.name,
                kind=benchmark.kind,
                ops=ops,
                repeats=max(1, repeats),
                samples_ns=samples,
                extra=dict(last) if isinstance(last, dict) else {},
            )
            for benchmark, _operation, ops, samples, last in operations
        ]
    finally:
        set_caches_enabled(previous)


def build_document(
    seed: int,
    repeats: int,
    warmup: int,
    results: Sequence[BenchResult],
    control: Optional[Sequence[BenchResult]] = None,
    wire_fidelity: bool = False,
) -> Dict[str, Any]:
    """Assemble the schema-versioned BENCH document."""
    document: Dict[str, Any] = {
        "schema": SCHEMA_NAME,
        "schema_version": SCHEMA_VERSION,
        "seed": seed,
        "repeats": max(1, repeats),
        "warmup": max(0, warmup),
        "caches_enabled": True,
        "wire_fidelity": bool(wire_fidelity),
        "results": [result.to_dict() for result in results],
    }
    by_name = {result.name: result for result in results}
    if control is not None:
        document["control"] = {
            "caches_enabled": False,
            "results": [result.to_dict() for result in control],
        }
        comparison: Dict[str, Any] = {}
        for controlled in control:
            cached = by_name.get(controlled.name)
            if cached is None:
                continue
            comparison[controlled.name] = {
                "cached_ops_per_sec": cached.ops_per_sec,
                "control_ops_per_sec": controlled.ops_per_sec,
                "speedup": cached.ops_per_sec / controlled.ops_per_sec,
            }
        document["comparison"] = comparison
    return document
