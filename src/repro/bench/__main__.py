"""CLI for the performance harness.

Examples::

    # Full suite, cache-on measurements only.
    python -m repro.bench --out BENCH_0004.json

    # Include the cache-off control pass and the speedup comparison.
    python -m repro.bench --out BENCH_0004.json --disable-caches

    # CI smoke: micro suite, one repeat, schema-checked.
    python -m repro.bench --only micro --repeats 1 --out bench-smoke.json

    # Validate an existing record without running anything.
    python -m repro.bench --validate BENCH_0004.json
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List

from repro.bench import latency, macro, micro
from repro.bench.harness import Benchmark, build_document, run_suite
from repro.bench.schema import check, validate
from repro.sim.network import set_wire_fidelity


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Run the repro micro/macro benchmark suite.",
    )
    parser.add_argument(
        "--out", metavar="FILE",
        help="write the BENCH JSON record here (default: stdout)",
    )
    parser.add_argument(
        "--repeats", type=int, default=3,
        help="timed repeats per benchmark (best is kept; default 3)",
    )
    parser.add_argument(
        "--warmup", type=int, default=1,
        help="untimed warmup runs per benchmark (default 1)",
    )
    parser.add_argument(
        "--seed", type=int, default=7,
        help="workload seed (default 7)",
    )
    parser.add_argument(
        "--only", choices=("micro", "macro"),
        help="run only one suite",
    )
    parser.add_argument(
        "--filter", metavar="SUBSTR",
        help="run only benchmarks whose name contains SUBSTR",
    )
    parser.add_argument(
        "--sustained-ops", type=int, metavar="N",
        help="override the sustained soak's offered-operation total "
        f"(default {macro.SUSTAINED_OPS}; CI smoke uses ~10000)",
    )
    parser.add_argument(
        "--disable-caches", action="store_true",
        help="additionally run a cache-disabled control pass and emit "
        "the control/comparison sections",
    )
    parser.add_argument(
        "--wire-fidelity", action="store_true",
        help="route every cross-site delivery through encode->bytes->"
        "decode in all passes (virtual time is unaffected; the "
        "serialization work becomes real)",
    )
    parser.add_argument(
        "--gate-wire-codec", type=float, metavar="X",
        help="fail (exit 1) unless micro.wire.encode/decode run at "
        "least X times faster than their _legacy counterparts — the "
        "CI smoke gate on the generated codecs",
    )
    parser.add_argument(
        "--gate-latency-regression", metavar="BASELINE",
        help="fail (exit 1) if any latency-attribution p99 (end-to-end "
        "or per-segment) regressed beyond the tolerance versus the "
        "latency blocks in a prior BENCH file — latencies are virtual-"
        "time and seed-deterministic, so this compares like for like",
    )
    parser.add_argument(
        "--latency-tolerance", type=float, metavar="X",
        default=latency.DEFAULT_TOLERANCE,
        help="multiplicative headroom for --gate-latency-regression "
        f"(default ×{latency.DEFAULT_TOLERANCE:g})",
    )
    parser.add_argument(
        "--validate", metavar="FILE",
        help="validate an existing BENCH record and exit",
    )
    return parser


def _selected(args: argparse.Namespace) -> List[Benchmark]:
    benchmarks: List[Benchmark] = []
    if args.only in (None, "micro"):
        benchmarks += micro.BENCHMARKS
    if args.only in (None, "macro"):
        benchmarks += macro.BENCHMARKS
    if args.filter:
        benchmarks = [
            benchmark
            for benchmark in benchmarks
            if args.filter in benchmark.name
        ]
    return benchmarks


#: The codec/legacy benchmark pairs the ``--gate-wire-codec`` smoke
#: gate compares. Both sides run in the same suite invocation, so the
#: interleaved-repeat schedule absorbs machine drift out of the ratio.
_WIRE_GATE_PAIRS = (
    ("micro.wire.encode", "micro.wire.encode_legacy"),
    ("micro.wire.decode", "micro.wire.decode_legacy"),
)


def _gate_wire_codec(results, minimum: float, progress) -> int:
    """Exit code for the codec smoke gate: 0 iff every generated codec
    micro beats its legacy counterpart by at least ``minimum``×."""
    by_name = {result.name: result for result in results}
    failed = False
    for fast_name, legacy_name in _WIRE_GATE_PAIRS:
        fast = by_name.get(fast_name)
        legacy = by_name.get(legacy_name)
        if fast is None or legacy is None:
            progress(
                f"gate: {fast_name} vs {legacy_name}: benchmark missing "
                "from the selection"
            )
            failed = True
            continue
        ratio = fast.ops_per_sec / legacy.ops_per_sec
        verdict = "ok" if ratio >= minimum else "FAIL"
        progress(
            f"gate: {fast_name} ×{ratio:.2f} vs legacy "
            f"(minimum ×{minimum:g}) {verdict}"
        )
        if ratio < minimum:
            failed = True
    return 1 if failed else 0


def _gate_latency(document, baseline_path: str, tolerance: float, progress) -> int:
    """Exit code for the latency regression gate: 0 iff the baseline
    carries latency blocks and no segment or end-to-end p99 in
    ``document`` regressed versus it."""
    try:
        with open(baseline_path, "r", encoding="utf-8") as handle:
            baseline = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        progress(f"gate: cannot read latency baseline {baseline_path}: {exc}")
        return 1
    violations = latency.gate_latency_regression(
        document, baseline, tolerance=tolerance
    )
    gated = sum(
        1
        for result in baseline.get("results", [])
        if isinstance(result, dict) and "latency" in result
    )
    if not gated:
        # A baseline without latency blocks would gate nothing; passing
        # it would turn a wrong or stale baseline into a silent pass.
        progress(
            f"gate: {baseline_path} carries no latency blocks "
            "(pre-v4 baseline); FAIL"
        )
        return 1
    for violation in violations:
        progress(f"gate: latency regression: {violation}")
    verdict = "FAIL" if violations else "ok"
    progress(
        f"gate: latency vs {baseline_path} "
        f"(x{tolerance:g} tolerance, {gated} baseline result(s)) {verdict}"
    )
    return 1 if violations else 0


def _validate_file(path: str) -> int:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        return 2
    errors = validate(document)
    if errors:
        for error in errors:
            print(f"schema violation: {error}", file=sys.stderr)
        return 1
    results = document.get("results", [])
    print(f"{path}: valid ({len(results)} result(s))")
    return 0


def main(argv: List[str] = None) -> int:
    args = _parser().parse_args(argv)
    if args.validate:
        return _validate_file(args.validate)

    benchmarks = _selected(args)
    if not benchmarks:
        print("error: no benchmarks match the selection", file=sys.stderr)
        return 2
    if args.sustained_ops is not None:
        if args.sustained_ops < len(macro.SITES):
            print(
                "error: --sustained-ops must be at least "
                f"{len(macro.SITES)} (one op per site)",
                file=sys.stderr,
            )
            return 2
        macro.SUSTAINED_OPS = args.sustained_ops

    def progress(line: str) -> None:
        print(line, file=sys.stderr, flush=True)

    progress(
        f"running {len(benchmarks)} benchmark(s): "
        f"seed={args.seed} repeats={args.repeats} warmup={args.warmup}"
        + (" wire-fidelity" if args.wire_fidelity else "")
    )
    previous_fidelity = set_wire_fidelity(args.wire_fidelity)
    try:
        results = run_suite(
            benchmarks, args.seed, args.repeats, args.warmup,
            caches=True, progress=progress,
        )
        control = None
        if args.disable_caches:
            progress("control pass (caches disabled):")
            control = run_suite(
                benchmarks, args.seed, args.repeats, args.warmup,
                caches=False, progress=progress,
            )
    finally:
        set_wire_fidelity(previous_fidelity)

    document = build_document(
        args.seed, args.repeats, args.warmup, results, control,
        wire_fidelity=args.wire_fidelity,
    )
    check(document)

    text = json.dumps(document, indent=2, sort_keys=False) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        progress(f"wrote {args.out}")
    else:
        print(text, end="")

    for result in results:
        progress(
            f"  {result.name}: {result.ns_per_op:,.0f} ns/op "
            f"({result.ops_per_sec:,.1f} ops/sec)"
        )
    if control is not None:
        comparison = document.get("comparison", {})
        for name, numbers in comparison.items():
            progress(f"  {name}: speedup ×{numbers['speedup']:.2f}")
    for result in results:
        block = result.extra.get("latency")
        if not block:
            continue
        tail = block.get("tail", {})
        conservation = block.get("conservation", {})
        progress(
            f"  {result.name}: latency e2e p99 "
            f"{block['end_to_end_ms']['p99']:.3f} ms, tail dominated by "
            f"{tail.get('dominant_segment', '?')}, unattributed p99 "
            f"fraction {conservation.get('unattributed_p99_fraction', 0.0):.4f}"
        )
    exit_code = 0
    if args.gate_wire_codec is not None:
        exit_code = _gate_wire_codec(results, args.gate_wire_codec, progress)
    if args.gate_latency_regression is not None:
        latency_code = _gate_latency(
            document, args.gate_latency_regression,
            args.latency_tolerance, progress,
        )
        exit_code = exit_code or latency_code
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
