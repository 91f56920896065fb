"""PBFT byzantine-behaviour tests: safety with f arbitrary nodes.

These validate the claims Blockplane inherits from PBFT: with at most
``f`` byzantine unit members, honest replicas never diverge and
progress continues.
"""

from repro.obs import Observability
from repro.pbft.byzantine import (
    BogusProposer,
    EquivocatingLeader,
    SilentReplica,
    TamperingVoter,
)
from repro.pbft.config import PBFTConfig
from tests.pbft.helpers import assert_honest_agreement, commit_values, make_group

FAST = PBFTConfig(request_timeout_ms=20.0, view_change_timeout_ms=40.0)


def test_silent_replica_does_not_block_commit():
    sim, replicas = make_group(overrides={3: SilentReplica})
    commit_values(sim, replicas[0], ["a", "b"])
    sim.run(until=sim.now + 10)
    assert_honest_agreement(replicas[:3], expected_length=2)
    assert replicas[3].executed_entries == []


def test_equivocating_leader_cannot_split_honest_replicas():
    obs = Observability()
    sim, replicas = make_group(
        overrides={0: EquivocatingLeader},
        config=FAST,
        override_kwargs={"forged_value": "EVIL"},
        obs=obs,
    )
    # Submit through a follower so the byzantine leader orders it.
    future = replicas[1].submit("GOOD")
    sim.run(until=500.0, max_events=20_000_000)
    honest = replicas[1:]
    # Safety: honest replicas never execute conflicting values at the
    # same sequence number.
    logs = [[(e.seq, e.value) for e in r.executed_entries] for r in honest]
    longest = max(logs, key=len)
    for log in logs:
        assert log == longest[: len(log)]
    # The forged value never executes anywhere honest: at most one of
    # the two conflicting proposals can gather a prepare quorum.
    for log in logs:
        assert ("EVIL" not in [value for _seq, value in log])
    # Liveness: the request eventually commits (possibly after a view
    # change deposes the equivocator).
    assert future.resolved or obs.journal.of_kind("pbft.view_change")


def test_tampering_voter_cannot_corrupt_agreement():
    sim, replicas = make_group(overrides={2: TamperingVoter})
    commit_values(sim, replicas[0], ["a", "b", "c"])
    sim.run(until=sim.now + 10)
    honest = [replicas[0], replicas[1], replicas[3]]
    assert_honest_agreement(honest, expected_length=3)


def test_bogus_proposer_rejected_by_verification_routines():
    def verifier(value, record_type, meta):
        return value != ("illegal-transition",)

    obs = Observability()
    sim, replicas = make_group(
        overrides={0: BogusProposer},
        config=FAST,
        verifier=verifier,
        obs=obs,
    )
    future = replicas[1].submit("legal-value")
    sim.run(until=500.0, max_events=20_000_000)
    honest = replicas[1:]
    for replica in honest:
        executed = [e.value for e in replica.executed_entries]
        assert ("illegal-transition",) not in executed
    assert obs.journal.of_kind("pbft.verify_reject")
    assert obs.counter(
        "pbft_verify_rejects_total", participant="DC"
    ).value > 0


def test_f_byzantine_is_masked_but_f_plus_one_can_stall():
    # With two silent replicas out of four (beyond f=1), no quorum forms.
    sim, replicas = make_group(
        overrides={2: SilentReplica, 3: SilentReplica}, config=FAST
    )
    future = replicas[0].submit("never")
    sim.run(until=200.0, max_events=20_000_000)
    assert not future.resolved
    for replica in replicas[:2]:
        assert replica.executed_entries == []
