"""One benchmark run in a fresh interpreter; prints one JSON line.

Usage: ``python3 perfbench/worker.py WORKLOAD SEED MODE SPAWNED``

``MODE`` is ``plain`` (observability off), ``recorder`` (the flight
recorder on: ``Observability(enabled=True, tracing=False)``),
``traced`` (layer wrappers plus commit tracing), ``gauged`` (``plain``
with slices of the calibration loop between simulation steps, whose
time ``run_s`` leaves out; ``scale`` converts ``run_s`` to reference
seconds, see ``calibration.py``) or ``setup`` (build the deployment,
report ``setup_s`` and stop without driving it). ``SPAWNED`` is the
parent's ``time.monotonic()`` just before it started this interpreter,
so ``setup_s`` covers interpreter start, imports (the codec generates
its functions at import) and building the deployment.
``src`` must be on ``PYTHONPATH``.
"""

from __future__ import annotations

import json
import resource
import sys
import time

#: Commit-trace sampling stride of the traced run: every commit gets a
#: span tree, so the critical-path p99s rest on as many samples as the
#: end-to-end ones.
TRACE_SAMPLE_EVERY = 1
#: Critical-path segments whose p99 the traced run reports.
CRITPATH_SEGMENTS = (
    "pbft.prepare", "pbft.commit", "pbft.reply",
    "sign.collect", "wan.transmit", "geo.proofs",
)


def main(argv) -> int:
    name, seed, mode, spawned = argv[0], int(argv[1]), argv[2], float(argv[3])
    import calibration
    import workloads
    from repro.crypto.digest import digest_cache_stats
    from repro.obs import Observability

    obs = None
    profile = None
    if mode == "recorder":
        obs = Observability(enabled=True, tracing=False)
    elif mode == "traced":
        import layers

        obs = Observability(
            enabled=True, tracing=True, forensics=False, max_spans=None,
            trace_sample_every=TRACE_SAMPLE_EVERY,
        )
        profile = layers.Profile()
        wrapped = layers.install(profile)
    elif mode not in ("plain", "gauged", "setup"):
        raise SystemExit(f"unknown mode {mode!r}")

    run = workloads.WORKLOADS[name](seed, obs)
    digests_before = digest_cache_stats()
    setup_s = time.monotonic() - spawned
    if mode == "setup":
        print(json.dumps({"mode": mode, "setup_s": setup_s}))
        return 0
    gauge = calibration.SliceGauge() if mode == "gauged" else None
    first = time.perf_counter()
    if profile is not None:
        profile.start()
    run.drive(gauge.tick if gauge is not None else None)
    if profile is not None:
        profile.stop()
    run_s = run.ledger.settled_wall - first
    if gauge is not None:
        run_s -= gauge.spent_s
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    digests = digest_cache_stats()
    counters = run.counters()
    counters["digests_computed"] = digests["misses"] - digests_before["misses"]
    counters["digest_hits"] = digests["hits"] - digests_before["hits"]
    run.settle()
    counters["leaked_in_flight"] = sum(api.in_flight for api in run.apis.values())
    result = {
        "workload": name,
        "seed": seed,
        "mode": mode,
        "setup_s": setup_s,
        "run_s": run_s,
        "peak_rss_mb": peak_rss_mb,
        "virtual": run.virtual_metrics(),
        "counters": counters,
        "violations": run.violations(),
    }
    if gauge is not None:
        result["scale"] = gauge.scale()
    if profile is not None:
        if profile.conservation_error_s() > 1e-9 * profile.total_s:
            result["violations"].append(
                "layer self times do not add up to the traced total: off by "
                f"{profile.conservation_error_s():.3g} s"
            )
        result["profile"] = {
            "wrapped_functions": wrapped,
            "total_s": profile.total_s,
            "self_s": profile.self_s,
            "calls": profile.calls,
            "conservation_error_s": profile.conservation_error_s(),
        }
        result["critpath"] = _critpath(obs, result["violations"])
    print(json.dumps(result, sort_keys=True))
    return 0


def _critpath(obs, violations) -> dict:
    """p99 of the named segments over the sampled commit traces, and the
    p99 share of a commit's window that no span explains.

    A decomposition that does not partition its window exactly, or a
    run with no decomposed commit, is a violation. The unattributed
    share is reported, not checked: the engine's own 5% bar
    (``critpath.UNATTRIBUTED_P99_BOUND``) is a tracing-coverage target,
    and ``geo_bulk`` misses it on some seeds (perfbench/README.md).
    """
    from repro.obs import critpath

    attribution = critpath.attribute(critpath.decompose_all(obs.spans))
    conservation = attribution["conservation"]
    if (
        attribution["ops"] == 0
        or conservation["max_error_ms"] > conservation["tolerance_ms"]
    ):
        violations.append(f"critical-path conservation failed: {conservation}")
    p99 = {entry["segment"]: entry["p99"] for entry in attribution["segments"]}
    out = {segment: p99.get(segment, 0.0) for segment in CRITPATH_SEGMENTS}
    out["traced_ops"] = attribution["ops"]
    out["unattributed_p99_fraction"] = conservation["unattributed_p99_fraction"]
    return out


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
