"""The repository benchmark.

Run from the repository root::

    python3 perfbench/run.py --workload steady --seed 1 --seconds 40 --trace 0

Workloads are ``steady``, ``geo_bulk`` and ``failover`` (see
``perfbench/workloads.py`` and ``perfbench/README.md``). Every run is a
fresh interpreter (``perfbench/worker.py``), started one after another,
so process-global caches (digest memo, verification cache, codec memo)
carry nothing from one run into the next and ``setup_s`` and
``peak_rss_mb`` are per-run values.

``--trace 0`` first sets up ``SETUP_REPEATS`` deployments without
driving them, then repeats untraced runs of the seed while one more
still fits in ``--seconds`` (at least two) and reports the end-to-end
metrics: medians of the wall-clock ones (``setup_s`` over the set-ups
that are not driven), both in reference seconds (``calibration.py``), and
the virtual-time ones, which every run of a seed must reproduce
exactly. ``--trace 1``
repeats, in the same way, a triple -- untraced, flight recorder on,
traced -- and reports the per-layer metrics; the recorder and traced
runs must reproduce the untraced run's virtual-time metrics and work
counters exactly (passivity).

Every metric is printed as ``name value unit``; the last line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The run exits non-zero without that line if a run cannot complete.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from calibration import calibrate, scale  # noqa: E402
from layers import LAYERS, UNATTRIBUTED  # noqa: E402

WORKLOADS = ("steady", "geo_bulk", "failover")
#: Every run of one invocation must end within this many wall seconds.
HARD_LIMIT_S = 170.0
#: Set-ups without a run; ``setup_s`` is their median.
SETUP_REPEATS = 10
#: Rounds of the calibration loop timed before the first set-up and
#: after each, about 55 ms.
SETUP_LOOP_ROUNDS = 40_000


class BenchError(RuntimeError):
    """A run could not complete; no result is printed."""


def _spawn(src: Path, workload: str, seed: int, mode: str, limit: float) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), workload, str(seed),
             mode, repr(spawned)],
            env=env, capture_output=True, text=True,
            timeout=max(limit - spawned, 1.0),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} run of {workload} exceeded the time limit")
    if proc.returncode != 0:
        raise BenchError(
            f"{mode} run of {workload} exited {proc.returncode}:\n"
            + proc.stderr[-3000:]
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _mismatches(reference: dict, run: dict) -> List[str]:
    out = []
    for part in ("virtual", "counters"):
        for key in sorted(set(reference[part]) | set(run[part])):
            if reference[part].get(key) != run[part].get(key):
                out.append(
                    f"{run['mode']} run: {part}.{key} = {run[part].get(key)!r}, "
                    f"first untraced run had {reference[part].get(key)!r}"
                )
    return out


def end_to_end(
    batches: List[List[dict]], setups: List[float]
) -> Dict[str, Tuple[float, str]]:
    """``setups`` are in reference seconds already; each gauged run
    carries its own ``scale``."""
    plain = [batch[0] for batch in batches]
    virtual = plain[0]["virtual"]
    median = statistics.median
    return {
        "setup_s": (median(setups), "s"),
        "wall_ops_s": (
            median(virtual["offered"] / (r["run_s"] * r["scale"]) for r in plain),
            "ops/s",
        ),
        "peak_rss_mb": (median(r["peak_rss_mb"] for r in plain), "MB"),
        "commit_p50_ms": (virtual["commit_p50_ms"], "ms"),
        "commit_p99_ms": (virtual["commit_p99_ms"], "ms"),
    }


#: Virtual-time results reported with the per-layer metrics: some
#: workloads lack them (0 there), and the commit mean moves too much
#: from seed to seed on failover to carry a bound (perfbench/README.md).
WORKLOAD_SPECIFIC = {
    "commit_mean_ms": "ms",
    "delivery_p50_ms": "ms",
    "delivery_p99_ms": "ms",
    "read_p50_ms": "ms",
    "read_p99_ms": "ms",
    "failed_frac": "ratio",
    "outage_ms": "ms",
}


def per_layer(batches: List[List[dict]]) -> Dict[str, Tuple[float, str]]:
    plain, _recorder, traced = batches[0]
    virtual = plain["virtual"]
    counters = plain["counters"]
    ops = virtual["offered"]
    median = statistics.median
    out: Dict[str, Tuple[float, str]] = {}
    for layer in list(LAYERS) + [UNATTRIBUTED]:
        out[f"{layer}.self_us_per_op"] = (
            median(b[2]["profile"]["self_s"].get(layer, 0.0) for b in batches)
            * 1e6 / ops,
            "us",
        )
        if layer != UNATTRIBUTED:
            out[f"{layer}.calls_per_op"] = (
                traced["profile"]["calls"].get(layer, 0) / ops, "count"
            )
    def per_op(counter: str) -> float:
        return counters[counter] / ops

    out.update({
        "sim.events_per_op": (per_op("events"), "count"),
        "sim.timers_cancelled_per_op": (per_op("timers_cancelled"), "count"),
        "sim.network.messages_per_op": (per_op("messages"), "count"),
        "sim.network.bytes_per_op": (per_op("bytes"), "B"),
        "sim.network.wire_transcodes_per_op": (
            per_op("wire_transcodes"), "count"
        ),
        "pbft.view_changes": (counters["view_changes"], "count"),
        "pbft.snapshot_installs": (counters["snapshot_installs"], "count"),
        "core.admission_shed_ratio": (
            counters["shed"] / max(counters["shed"] + counters["admitted"], 1),
            "ratio",
        ),
        "core.leaked_in_flight": (counters["leaked_in_flight"], "count"),
        "core.retained_high_water": (counters["retained_high_water"], "count"),
        "core.reads.read_one_p99_ms": (virtual["read_one_p99_ms"], "ms"),
        "core.reads.quorum_p99_ms": (virtual["read_quorum_p99_ms"], "ms"),
        "core.reads.linearizable_p99_ms": (virtual["linearizable_p99_ms"], "ms"),
        "core.reads.proven_p99_ms": (virtual["read_proven_p99_ms"], "ms"),
        "crypto.digests_computed_per_op": (per_op("digests_computed"), "count"),
        "crypto.digest_hit_ratio": (
            counters["digest_hits"]
            / max(counters["digest_hits"] + counters["digests_computed"], 1),
            "ratio",
        ),
        "crypto.verifies_computed_per_op": (
            per_op("verifies_computed"), "count"
        ),
        "obs.recorder_overhead_ratio": (
            median(b[1]["run_s"] / b[0]["run_s"] for b in batches), "ratio"
        ),
        "trace.overhead_ratio": (
            median(b[2]["run_s"] / b[0]["run_s"] for b in batches), "ratio"
        ),
    })
    critpath = dict(traced["critpath"])
    del critpath["traced_ops"]
    out["critpath.unattributed.p99_fraction"] = (
        critpath.pop("unattributed_p99_fraction"), "ratio"
    )
    for segment, p99 in critpath.items():
        out[f"critpath.{segment}.p99_ms"] = (p99, "ms")
    for name, unit in WORKLOAD_SPECIFIC.items():
        out[name] = (virtual.get(name, 0.0), unit)
    return out


def run(args) -> int:
    src = Path.cwd() / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(
            "perfbench: no src/repro here; run from the repository root",
            file=sys.stderr,
        )
        return 2
    started = time.monotonic()
    limit = started + HARD_LIMIT_S
    modes = ("plain", "recorder", "traced") if args.trace else ("gauged",)
    minimum = 1 if args.trace else 2
    # Per-layer times stay in wall seconds: they are compared within one
    # traced run, never across runs.
    setups: List[float] = []
    loops = [] if args.trace else [calibrate(SETUP_LOOP_ROUNDS)]
    for _ in range(0 if args.trace else SETUP_REPEATS):
        setup_s = _spawn(src, args.workload, args.seed, "setup", limit)["setup_s"]
        loops.append(calibrate(SETUP_LOOP_ROUNDS))
        setups.append(
            setup_s * scale(2 * SETUP_LOOP_ROUNDS, loops[-2] + loops[-1])
        )
    batches: List[List[dict]] = []
    while True:
        batch_started = time.monotonic()
        batches.append([
            _spawn(src, args.workload, args.seed, mode, limit) for mode in modes
        ])
        now = time.monotonic()
        # Start another batch only if one more, as long as the last,
        # still ends within --seconds.
        if len(batches) >= minimum and (
            now + (now - batch_started) - started > args.seconds
        ):
            break

    problems: List[str] = []
    reference = batches[0][0]
    for batch in batches:
        for result in batch:
            problems.extend(result["violations"])
            if result is not reference:
                problems.extend(_mismatches(reference, result))
    metrics = per_layer(batches) if args.trace else end_to_end(batches, setups)

    virtual = reference["virtual"]
    print(
        f"# {args.workload} seed {args.seed}: {len(batches)} x "
        f"{'/'.join(modes)} runs, {virtual['offered']} ops each"
    )
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print("# virtual-time results (identical in every run of this seed):")
    for name, value in sorted(virtual.items()):
        print(f"#   {name} {value:.6g}")
    print("# work counters:")
    for name, value in sorted(reference["counters"].items()):
        print(f"#   {name} {value}")
    if not args.trace:
        print("# set-up reference s: " + " ".join(f"{s:.3f}" for s in setups))
        print("# set-up loop s: " + " ".join(f"{s:.3f}" for s in loops))
        scales = " ".join(f"{batch[0]['scale']:.3f}" for batch in batches)
        print(f"# reference s per wall s, per run: {scales}")
    for index, mode in enumerate(modes):
        walls = " ".join(f"{batch[index]['run_s']:.3f}" for batch in batches)
        print(f"# {mode} wall s per run: {walls}")
    for problem in problems[:20]:
        print(f"# PROBLEM: {problem}")
    runs = [result for batch in batches for result in batch]
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r["virtual"]["offered"] for r in runs),
        "failed": sum(r["virtual"]["failed"] for r in runs),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    try:
        return run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
