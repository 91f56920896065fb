"""Tests for the chaos run orchestrator.

These use deliberately small plans (short horizon, few batches) so the
whole file stays fast; the full-size sweeps live in CI's chaos-smoke
job, not the unit suite.
"""

import json
import os

from repro.chaos.plan import FaultAction, FaultBudget, FaultPlan
from repro.chaos.runner import ChaosRunner, write_artifacts


def tiny_plan(*actions, seed=5, batches=1):
    return FaultPlan(
        seed=seed,
        profile="crash",
        budget=FaultBudget(f_independent=1, f_geo=0,
                           horizon_ms=3_000.0, settle_ms=1_500.0),
        actions=tuple(actions),
        batches=batches,
    )


def test_fault_free_plan_runs_clean():
    result = ChaosRunner(tiny_plan()).run()
    assert result.ran
    assert result.violations == []
    assert result.stats["communications_committed"] > 0
    assert result.stats["virtual_ms"] > 3_000.0


def test_single_crash_within_budget_runs_clean():
    plan = tiny_plan(
        FaultAction(kind="crash", site="V", node_index=2,
                    start=600.0, end=1_200.0),
    )
    result = ChaosRunner(plan).run()
    assert result.ran
    assert result.violations == []


def test_over_budget_plan_is_refused_statically():
    plan = tiny_plan(
        FaultAction(kind="crash", site="V", node_index=1,
                    start=500.0, end=1_500.0),
        FaultAction(kind="crash", site="V", node_index=2,
                    start=800.0, end=1_400.0),
    )
    result = ChaosRunner(plan).run()
    assert not result.ran
    assert result.violations
    assert all(v.invariant == "budget" for v in result.violations)
    # Refused before building a deployment: nothing was simulated.
    assert result.stats == {}


def test_runs_are_deterministic():
    plan = tiny_plan(
        FaultAction(kind="crash", site="O", node_index=1,
                    start=700.0, end=1_300.0),
    )
    first = ChaosRunner(plan).run()
    second = ChaosRunner(plan).run()
    assert first.stats == second.stats
    assert first.violations == second.violations


def test_byzantine_plants_swap_the_node_class():
    plan = tiny_plan(
        FaultAction(kind="byzantine", site="V", node_index=2,
                    behavior="silent"),
    )
    runner = ChaosRunner(plan)
    result = runner.run()
    assert result.ran and result.violations == []
    planted = runner.deployment.unit("V").nodes[2]
    honest = runner.deployment.unit("V").nodes[1]
    assert type(planted) is not type(honest)


def test_write_artifacts_round_trips_the_plan(tmp_path):
    plan = tiny_plan()
    result = ChaosRunner(plan).run()
    paths = write_artifacts(result, str(tmp_path / "run-0"))
    assert os.path.exists(paths["plan"])
    assert os.path.exists(paths["violations"])
    with open(paths["plan"], "r", encoding="utf-8") as handle:
        assert FaultPlan.from_dict(json.load(handle)) == plan
    with open(paths["violations"], "r", encoding="utf-8") as handle:
        assert "no violations" in handle.read()


def test_checkpointed_run_truncates_and_stays_clean():
    # Aggressive checkpointing under a crash window: truncation commits
    # ride alongside the workload and every invariant (including the
    # snapshot-certificate checks) must still pass.
    plan = tiny_plan(
        FaultAction(kind="crash", site="V", node_index=2,
                    start=600.0, end=1_200.0),
        batches=6,
    )
    runner = ChaosRunner(plan, checkpoint_interval=2)
    result = runner.run()
    assert result.ran
    assert result.violations == []
    assert result.stats["truncations_applied"], "no unit ever truncated"
    # A marker is only proposed above the current base, so every unit
    # that applied one has folded entries.
    assert set(result.stats["truncations_applied"]) <= set(
        result.stats["entries_truncated"]
    )
    assert "snapshot_installs" in result.stats


def test_expect_snapshot_recovery_flags_a_node_that_never_installed():
    plan = tiny_plan(batches=2)
    runner = ChaosRunner(
        plan, checkpoint_interval=2, expect_snapshot_recovery=("V-1",)
    )
    result = runner.run()
    # Fault-free run: V-1 never fell behind, so demanding a snapshot
    # install from it must surface as a recovery-from-snapshot
    # violation — proving the check is wired into the dynamic suite.
    assert "recovery-from-snapshot" in [
        violation.invariant for violation in result.violations
    ]
