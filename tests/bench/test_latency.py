"""The latency-attribution bench plumbing and the regression gate."""

import json
from pathlib import Path

import pytest

from repro.bench.__main__ import _gate_latency
from repro.bench.latency import (
    ABSOLUTE_SLACK_MS,
    LatencyConservationError,
    gate_latency_regression,
    latency_block,
)
from repro.obs import Observability
from repro.obs.demo import trace_commit_lifecycle

REPO_ROOT = Path(__file__).resolve().parents[2]


def _doc(p99_by_series, name="macro.commits.sustained"):
    """A minimal BENCH document with one latency-bearing result.

    ``p99_by_series`` maps "end_to_end" plus segment names to p99 ms.
    """
    segments = [
        {"segment": series, "p50": 0.0, "p90": 0.0, "p99": p99,
         "mean": 0.0, "max": p99, "total_ms": p99, "share": 0.1,
         "present_ops": 1}
        for series, p99 in p99_by_series.items()
        if series != "end_to_end"
    ]
    return {
        "results": [
            {
                "name": name,
                "latency": {
                    "ops": 100,
                    "end_to_end_ms": {
                        "p50": 1.0, "p90": 2.0,
                        "p99": p99_by_series.get("end_to_end", 3.0),
                        "mean": 1.2, "max": 5.0,
                    },
                    "segments": segments,
                    "conservation": {"ok": True},
                },
            }
        ]
    }


# ----------------------------------------------------------------------
# latency_block
# ----------------------------------------------------------------------
def test_latency_block_from_demo_trace():
    obs = Observability(enabled=True)
    trace_commit_lifecycle(obs)
    block = latency_block(obs, sample_every=1)
    assert block["sample_every"] == 1
    assert block["ops"] > 0
    assert block["conservation"]["ok"] is True
    assert "slo" in block
    for numbers in block["slo"].values():
        assert numbers["ops"] == block["ops"]


def test_latency_block_raises_on_broken_conservation():
    # An untraced hub decomposes zero ops, which the attribution
    # report refuses to bless — the block must raise, not record.
    obs = Observability(enabled=True, tracing=False)
    with pytest.raises(LatencyConservationError):
        latency_block(obs, sample_every=1)


# ----------------------------------------------------------------------
# gate_latency_regression
# ----------------------------------------------------------------------
def test_gate_passes_identical_documents():
    doc = _doc({"end_to_end": 20.0, "wan.transmit": 18.0})
    assert gate_latency_regression(doc, doc) == []


def test_gate_passes_within_tolerance():
    baseline = _doc({"end_to_end": 20.0})
    current = _doc({"end_to_end": 24.0})  # x1.2 < x1.25
    assert gate_latency_regression(current, baseline) == []


def test_gate_fails_synthetically_slowed_run():
    baseline = _doc({"end_to_end": 20.0, "wan.transmit": 18.0})
    slowed = _doc({"end_to_end": 40.0, "wan.transmit": 36.0})  # x2
    violations = gate_latency_regression(slowed, baseline)
    assert len(violations) == 2
    assert any("end_to_end" in v for v in violations)
    assert any("wan.transmit" in v for v in violations)


def test_gate_absolute_slack_forgives_micro_segments():
    baseline = _doc({"end_to_end": 20.0, "pbft.prepare": 0.001})
    current = _doc({"end_to_end": 20.0, "pbft.prepare": 0.03})
    # x30 growth, but under the absolute slack — float dust, not a
    # regression.
    assert current["results"][0]["latency"]["segments"][0]["p99"] < (
        0.001 * 1.25 + ABSOLUTE_SLACK_MS
    )
    assert gate_latency_regression(current, baseline) == []


def test_gate_vanished_segment_is_an_improvement():
    baseline = _doc({"end_to_end": 20.0, "pbft.view_change": 15.0})
    current = _doc({"end_to_end": 20.0})
    assert gate_latency_regression(current, baseline) == []


def test_gate_missing_current_latency_is_a_violation():
    baseline = _doc({"end_to_end": 20.0})
    current = {"results": [{"name": "macro.commits.sustained"}]}
    violations = gate_latency_regression(current, baseline)
    assert violations and "recorded none" in violations[0]


def test_gate_pre_v4_baseline_has_nothing_to_compare():
    baseline = {"results": [{"name": "macro.commits.sustained"}]}
    current = _doc({"end_to_end": 99.0})
    assert gate_latency_regression(current, baseline) == []


def test_gate_rejects_non_gating_tolerance():
    doc = _doc({"end_to_end": 20.0})
    with pytest.raises(ValueError):
        gate_latency_regression(doc, doc, tolerance=1.0)


# ----------------------------------------------------------------------
# The CLI gate (``--gate-latency-regression``)
# ----------------------------------------------------------------------
def test_cli_gate_fails_when_baseline_has_no_latency_blocks(tmp_path):
    baseline = tmp_path / "baseline.json"
    baseline.write_text(
        json.dumps({"results": [{"name": "macro.commits.sustained"}]})
    )
    current = _doc({"end_to_end": 20.0})
    messages = []
    assert _gate_latency(current, str(baseline), 1.25, messages.append) == 1
    assert any("no latency blocks" in m for m in messages)


def test_cli_gate_passes_the_committed_baseline_against_itself():
    path = REPO_ROOT / "ci" / "latency-smoke.json"
    document = json.loads(path.read_text(encoding="utf-8"))
    assert _gate_latency(document, str(path), 1.25, lambda _: None) == 0
