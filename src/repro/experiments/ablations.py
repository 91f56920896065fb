"""Ablation studies for Blockplane's design choices.

Not figures from the paper — these quantify the design decisions its
text argues for (Sections IV, VI-A, VI-C and the DESIGN.md inventory):

* **read strategies** — the latency price of byzantine-safe reads
  (read-1 vs 2f+1 vs linearizable, Section VI-A);
* **batching** — group commit amortizing PBFT rounds over many small
  commands (Section VI-C);
* **transmission fanout** — shipping each transmission record to more
  destination nodes buys failure masking with negligible latency cost
  because the receiver deduplicates;
* **intra-datacenter latency sensitivity** — how the local-commit
  calibration parameter propagates into wide-area overhead.
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.core import BlockplaneConfig, BlockplaneDeployment
from repro.core.batching import Batcher
from repro.core.reads import ReadStrategy
from repro.experiments.report import fmt_ms, format_table
from repro.pbft.quorums import unit_size
from repro.sim.metrics import LatencySeries
from repro.sim.simulator import Simulator
from repro.sim.topology import (
    aws_four_dc_topology,
    single_dc_topology,
    symmetric_topology,
)


def run_read_strategies(
    rounds: int = 50, seed: int = 0
) -> Dict[str, float]:
    """Mean read latency (ms) per strategy on a warm single-DC unit."""
    results: Dict[str, float] = {}
    for strategy in ReadStrategy:
        sim = Simulator(seed=seed)
        deployment = BlockplaneDeployment(
            sim, single_dc_topology("V"), BlockplaneConfig(f_independent=1)
        )
        api = deployment.api("V")
        series = LatencySeries()

        def workload():
            position = yield api.log_commit("warm", payload_bytes=1000)
            yield sim.sleep(5.0)  # let every replica apply
            for _round in range(rounds):
                start = sim.now
                yield api.read(position, strategy)
                series.add(sim.now - start)

        sim.run_until_resolved(sim.spawn(workload()), max_events=50_000_000)
        results[strategy.value] = series.mean
    return results


def run_batching(
    commands: int = 400,
    command_bytes: int = 250,
    max_batch_commands: int = 64,
    seed: int = 0,
) -> Dict[str, float]:
    """Commands/second with and without group commit."""
    def _run(batched: bool) -> float:
        sim = Simulator(seed=seed)
        deployment = BlockplaneDeployment(
            sim, single_dc_topology("V"), BlockplaneConfig(f_independent=1)
        )
        api = deployment.api("V")
        if batched:
            batcher = Batcher(api, max_batch_commands=max_batch_commands)
            futures = [
                batcher.submit(f"cmd{i}", payload_bytes=command_bytes)
                for i in range(commands)
            ]

            def wait():
                yield futures
        else:
            def wait():
                for index in range(commands):
                    yield api.log_commit(
                        f"cmd{index}", payload_bytes=command_bytes
                    )

        sim.run_until_resolved(sim.spawn(wait()), max_events=100_000_000)
        return commands / (sim.now / 1000.0)

    return {
        "unbatched_cmd_per_s": _run(batched=False),
        "batched_cmd_per_s": _run(batched=True),
    }


def run_transmission_fanout(
    fanouts: Sequence[int] = (1, 2, 4),
    rounds: int = 10,
    seed: int = 0,
) -> Dict[int, Dict[str, float]]:
    """Delivery latency and duplicate commits per fanout level."""
    results: Dict[int, Dict[str, float]] = {}
    for fanout in fanouts:
        sim = Simulator(seed=seed)
        deployment = BlockplaneDeployment(
            sim,
            aws_four_dc_topology(),
            BlockplaneConfig(f_independent=1, transmission_fanout=fanout),
        )
        api_c = deployment.api("C")
        api_o = deployment.api("O")
        series = LatencySeries()

        def sender():
            for index in range(rounds):
                start = sim.now
                yield api_c.send(f"m{index}", to="O", payload_bytes=1000)
                yield api_o_received[index]
                series.add(sim.now - start)

        # Simple rendezvous: resolve one future per received message.
        from repro.sim.process import Future

        api_o_received = [Future(sim) for _ in range(rounds)]

        def receive_pump():
            for index in range(rounds):
                yield api_o.receive("C")
                api_o_received[index].resolve(None)

        sim.spawn(receive_pump())
        sim.run_until_resolved(sim.spawn(sender()), max_events=100_000_000)
        log_o = deployment.unit("O").gateway_node().local_log
        received = sum(
            1 for entry in log_o if entry.record_type == "received"
        )
        results[fanout] = {
            "delivery_ms": series.mean,
            "committed_receptions": float(received),
            "duplicates_suppressed": float(
                sum(
                    node.duplicate_receptions
                    for node in deployment.all_nodes()
                )
            ),
        }
    return results


def run_intra_dc_sensitivity(
    one_way_values_ms: Sequence[float] = (0.05, 0.18, 0.5, 1.0),
    rounds: int = 20,
    seed: int = 0,
) -> Dict[float, float]:
    """Local-commit latency as a function of intra-DC one-way latency."""
    results: Dict[float, float] = {}
    for one_way in one_way_values_ms:
        sim = Simulator(seed=seed)
        deployment = BlockplaneDeployment(
            sim,
            single_dc_topology("V", intra_dc_one_way_ms=one_way),
            BlockplaneConfig(f_independent=1),
        )
        api = deployment.api("V")
        series = LatencySeries()

        def workload():
            for index in range(rounds):
                start = sim.now
                yield api.log_commit(f"v{index}", payload_bytes=1000)
                series.add(sim.now - start)

        sim.run_until_resolved(sim.spawn(workload()), max_events=50_000_000)
        results[one_way] = series.mean
    return results


def run_fi_scaling(
    fi_values: Sequence[int] = (1, 2, 3),
    rounds: int = 10,
    seed: int = 0,
) -> Dict[int, Dict[str, float]]:
    """Beyond the paper's Figure 7: byzantine resilience vs wide-area
    latency.

    Compares Blockplane-Paxos (leader at C) with flat wide-area PBFT as
    ``fi`` grows. Blockplane absorbs the extra replicas *inside* each
    datacenter (latency nearly flat); flat PBFT must add wide-area
    replicas (3·fi+1 sites would be needed — we approximate by keeping
    4 sites and noting PBFT cannot even be configured beyond fi=1
    there). This quantifies the paper's argument that the hierarchy
    makes resilience a local, not global, cost.
    """
    from repro.apps.bp_paxos import BlockplanePaxosParticipant, PaxosVerification

    results: Dict[int, Dict[str, float]] = {}
    for fi in fi_values:
        sim = Simulator(seed=seed)
        topology = aws_four_dc_topology()
        deployment = BlockplaneDeployment(
            sim,
            topology,
            BlockplaneConfig(f_independent=fi),
            routines_factory=lambda _name: PaxosVerification(),
        )
        participants = {
            site: BlockplanePaxosParticipant(
                deployment.api(site), topology.site_names
            )
            for site in topology.site_names
        }
        for participant in participants.values():
            participant.start()
        leader = participants["C"]
        sim.run_until_resolved(
            sim.spawn(leader.leader_election()), max_events=200_000_000
        )
        series = LatencySeries()

        def workload():
            for index in range(rounds):
                start = sim.now
                yield leader.replicate(f"v{index}", payload_bytes=1000)
                series.add(sim.now - start)

        sim.run_until_resolved(sim.spawn(workload()), max_events=400_000_000)
        results[fi] = {
            "nodes_per_datacenter": float(unit_size(fi)),
            "blockplane_paxos_ms": series.mean,
        }
    return results


def run_participant_scaling(
    counts: Sequence[int] = (2, 4, 6, 8),
    rtt_ms: float = 60.0,
    rounds: int = 10,
    seed: int = 0,
) -> Dict[int, float]:
    """Beyond the paper: geo-commit latency vs participant count.

    Symmetric topology (every pair ``rtt_ms`` apart), fg = 1. The
    expected flat curve demonstrates the locality argument: commits
    need proofs from fg closest peers regardless of how many
    participants exist, so Blockplane's wide-area cost does not grow
    with the federation size.
    """
    results: Dict[int, float] = {}
    for count in counts:
        sites = [f"P{index}" for index in range(count)]
        sim = Simulator(seed=seed)
        topology = symmetric_topology(sites, rtt_ms)
        deployment = BlockplaneDeployment(
            sim, topology, BlockplaneConfig(f_independent=1, f_geo=1)
        )
        api = deployment.api(sites[0])
        series = LatencySeries()

        def workload():
            for index in range(rounds):
                start = sim.now
                yield api.log_commit(f"v{index}", payload_bytes=1000)
                series.add(sim.now - start)

        sim.run_until_resolved(sim.spawn(workload()), max_events=100_000_000)
        results[count] = series.mean
    return results


def main() -> None:
    """Print all ablations."""
    print("Ablation: read strategies (Section VI-A)")
    reads = run_read_strategies()
    print(
        format_table(
            ["strategy", "latency ms"],
            [[name, fmt_ms(latency)] for name, latency in reads.items()],
        )
    )
    print()
    print("Ablation: batching / group commit (Section VI-C)")
    batching = run_batching()
    print(
        format_table(
            ["mode", "commands/s"],
            [[k, f"{v:.0f}"] for k, v in batching.items()],
        )
    )
    print()
    print("Ablation: transmission fanout")
    fanout = run_transmission_fanout()
    print(
        format_table(
            ["fanout", "delivery ms", "committed", "dups suppressed"],
            [
                [
                    str(level),
                    fmt_ms(metrics["delivery_ms"]),
                    f"{metrics['committed_receptions']:.0f}",
                    f"{metrics['duplicates_suppressed']:.0f}",
                ]
                for level, metrics in fanout.items()
            ],
        )
    )
    print()
    print("Ablation: intra-datacenter latency sensitivity")
    sensitivity = run_intra_dc_sensitivity()
    print(
        format_table(
            ["one-way ms", "local commit ms"],
            [[f"{k:.2f}", fmt_ms(v)] for k, v in sensitivity.items()],
        )
    )
    print()
    print("Ablation: participant scaling (fg=1, symmetric 60 ms RTTs)")
    scaling = run_participant_scaling()
    print(
        format_table(
            ["participants", "geo-commit ms"],
            [[str(k), fmt_ms(v)] for k, v in scaling.items()],
        )
    )
    print()
    print("Ablation: byzantine resilience is a local cost (leader C)")
    fi_scaling = run_fi_scaling()
    print(
        format_table(
            ["fi", "nodes/DC", "blockplane-paxos ms"],
            [
                [
                    str(fi),
                    f"{metrics['nodes_per_datacenter']:.0f}",
                    fmt_ms(metrics["blockplane_paxos_ms"]),
                ]
                for fi, metrics in fi_scaling.items()
            ],
        )
    )


if __name__ == "__main__":
    main()
