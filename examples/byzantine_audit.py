#!/usr/bin/env python3
"""Watching Blockplane mask byzantine behaviour.

Plants a silent node and a forging node inside one unit, runs a
workload, checks that no honest log holds the forged value, and prints
the reason the unit's PBFT leader gave the forger when it refused the
proposal.

Run:
    python examples/byzantine_audit.py
"""

from repro.core import BlockplaneConfig, BlockplaneDeployment
from repro.core.verification import VerificationRoutines
from repro.sim import Simulator, aws_four_dc_topology


class PositiveNumbersOnly(VerificationRoutines):
    """The wrapped protocol's legal transitions: positive ints."""

    def verify_log_commit(self, value, meta):
        return isinstance(value, int) and value > 0


def main() -> None:
    sim = Simulator(seed=23)
    deployment = BlockplaneDeployment(
        sim,
        aws_four_dc_topology(),
        BlockplaneConfig(f_independent=1),
        routines_factory=lambda _name: PositiveNumbersOnly(),
    )
    unit = deployment.unit("C")
    api = deployment.api("C")

    # Byzantine node 1: goes completely silent.
    unit.nodes[3].on_message = lambda message, src: None
    # Byzantine node 2: tries to commit an illegal transition directly.
    corrupt = unit.nodes[2]
    forged = []

    def workload():
        for value in (10, 20, 30):
            position = yield api.log_commit(value, payload_bytes=64)
            print(f"[{sim.now:7.2f} ms] committed {value} at position "
                  f"{position} (despite one silent unit member)")
        # The corrupt node proposes -5 directly to the unit's PBFT.
        forged.append(corrupt.local_commit(-5, "log-commit", None, 64))
        yield sim.sleep(500.0)

    process = sim.spawn(workload())
    sim.run(until=10_000.0)
    assert process.resolved

    honest_logs = [
        [entry.value for entry in node.local_log]
        for node in unit.nodes
        if node is not unit.nodes[3]
    ]
    print()
    print(f"Honest logs agree: {all(l == honest_logs[0] for l in honest_logs)}")
    print(f"Illegal value -5 in any honest log: "
          f"{any(-5 in log for log in honest_logs)}")
    print()
    print("Leader's verdict on the forged proposal:")
    print(f"  {forged[0].exception}")


if __name__ == "__main__":
    main()
