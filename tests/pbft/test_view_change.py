"""PBFT view-change tests: leader failure, re-election, safety."""

from repro.obs import Observability
from repro.pbft.config import PBFTConfig
from tests.pbft.helpers import assert_honest_agreement, commit_values, make_group

FAST = PBFTConfig(request_timeout_ms=20.0, view_change_timeout_ms=40.0)


def test_leader_crash_triggers_view_change_and_commit_resumes():
    sim, replicas = make_group(config=FAST)
    commit_values(sim, replicas[0], ["before"])
    replicas[0].crash()
    future = replicas[1].submit("after")
    entry = sim.run_until_resolved(future, max_events=20_000_000)
    assert entry.value == "after"
    live = replicas[1:]
    assert max(r.view for r in live) >= 1
    sim.run(until=sim.now + 50)
    assert_honest_agreement(live)
    values = [e.value for e in replicas[1].executed_entries]
    assert values[0] == "before"
    assert "after" in values


def test_new_leader_is_view_mod_n():
    sim, replicas = make_group(config=FAST)
    replicas[0].crash()
    future = replicas[1].submit("x")
    sim.run_until_resolved(future, max_events=20_000_000)
    view = max(r.view for r in replicas[1:])
    leader_id = replicas[1].leader_of(view)
    assert leader_id != "r0"


def test_in_flight_request_survives_leader_crash():
    sim, replicas = make_group(config=FAST)
    # Submit from a follower, then immediately crash the leader before
    # it can commit.
    future = replicas[1].submit("survivor")
    sim.run(until=0.05)  # request reaches the leader, nothing committed
    replicas[0].crash()
    entry = sim.run_until_resolved(future, max_events=20_000_000)
    assert entry.value == "survivor"


def test_two_successive_leader_failures():
    sim, replicas = make_group(config=FAST)
    commit_values(sim, replicas[0], ["a"])
    replicas[0].crash()
    entry = sim.run_until_resolved(
        replicas[1].submit("b"), max_events=20_000_000
    )
    assert entry.value == "b"
    # The old leader returns (f = 1 allows only one failure at a time),
    # then the new leader fails too.
    replicas[0].recover()
    sim.run(until=sim.now + 200)
    view = max(r.view for r in replicas if not r.crashed)
    new_leader_id = replicas[1].leader_of(view)
    new_leader = next(r for r in replicas if r.node_id == new_leader_id)
    new_leader.crash()
    submitter = next(
        r for r in replicas if not r.crashed and r is not replicas[0]
    )
    entry = sim.run_until_resolved(
        submitter.submit("c"), max_events=40_000_000
    )
    assert entry.value == "c"


def test_committed_entries_survive_view_change():
    sim, replicas = make_group(config=FAST)
    commit_values(sim, replicas[0], ["a", "b", "c"])
    replicas[0].crash()
    sim.run_until_resolved(replicas[1].submit("d"), max_events=20_000_000)
    sim.run(until=sim.now + 100)
    live = replicas[1:]
    assert_honest_agreement(live)
    values = [e.value for e in live[0].executed_entries]
    assert values[:3] == ["a", "b", "c"]
    assert values[-1] == "d" or "d" in values


def test_view_change_vote_traced():
    obs = Observability()
    sim, replicas = make_group(config=FAST, obs=obs)
    replicas[0].crash()
    sim.run_until_resolved(replicas[1].submit("x"), max_events=20_000_000)
    assert len(obs.journal.of_kind("pbft.view_change")) >= 1
    assert len(obs.journal.of_kind("pbft.new_view")) >= 1
    assert obs.counter(
        "pbft_view_changes_total", participant="DC"
    ).value >= 1


def test_recovered_old_leader_catches_up():
    sim, replicas = make_group(config=FAST)
    commit_values(sim, replicas[0], ["a"])
    replicas[0].crash()
    sim.run_until_resolved(replicas[1].submit("b"), max_events=20_000_000)
    replicas[0].recover()
    sim.run(until=sim.now + 200)
    assert replicas[0].last_executed >= 2
    values = [e.value for e in replicas[0].executed_entries]
    assert "a" in values and "b" in values
