"""Smoke tests: every experiment driver runs and returns sane shapes.

The full-size assertions live in ``benchmarks/``; these quick versions
keep the drivers themselves under unit-test coverage.
"""

import pytest

from repro.experiments import (
    ablations,
    fig4_local_commit,
    fig5_geo,
    fig6_communication,
    fig7_consensus,
    fig8_failures,
    table1_topology,
    table2_scalability,
)


def test_table1_is_the_paper_matrix():
    matrix = table1_topology.run()
    assert matrix[("C", "O")] == 19.0
    assert matrix[("V", "I")] == 70.0


def test_fig4_driver_small():
    result = fig4_local_commit.run_one(
        batch_bytes=100_000, measured=20, warmup=2
    )
    assert 0.8 < result["latency_ms"] < 2.0
    assert 50.0 < result["throughput_mb_s"] < 120.0


def test_table2_driver_small():
    metrics = table2_scalability.run_one(f_independent=2, measured=10, warmup=2)
    assert metrics["nodes"] == 7
    assert metrics["latency_ms"] > 1.2


def test_fig5_driver_small():
    latency = fig5_geo.run_one("C", 1, measured=5, warmup=1)
    assert 19.0 < latency < 30.0


def test_fig6_driver_small():
    latency = fig6_communication.run_pair("C", "O", rounds=3, warmup=1)
    assert 19.0 < latency < 30.0


def test_fig7_driver_small():
    paxos = fig7_consensus.run_paxos("C", rounds=3)
    blockplane = fig7_consensus.run_blockplane_paxos("C", rounds=3)
    assert paxos < blockplane < paxos * 1.4


def test_fig8_backup_driver_small():
    result = fig8_failures.run_backup_failure(batches=20, fail_at=10)
    assert result["steady_after_ms"] > result["steady_before_ms"]


def test_fig8_primary_driver_small():
    result = fig8_failures.run_primary_failure(batches=30, fail_at=10)
    assert result["final_primary"] == "V"
    assert result["steady_after_ms"] > result["steady_before_ms"]


def test_transmission_fanout_ablation_smallest():
    result = ablations.run_transmission_fanout(fanouts=(1,))
    assert result == {
        1: {
            "delivery_ms": pytest.approx(11.064575),
            "committed_receptions": 10.0,
            "duplicates_suppressed": 0.0,
        }
    }
