"""Smoke tests: the runnable examples execute end to end."""

import runpy
import sys


def run_example(path):
    argv = sys.argv
    sys.argv = [path]
    try:
        runpy.run_path(path, run_name="__main__")
    finally:
        sys.argv = argv


def test_quickstart_example(capsys):
    run_example("examples/quickstart.py")
    out = capsys.readouterr().out
    assert "V received: 'hello from California'" in out
    assert "'received'" in out


def test_counter_example(capsys):
    run_example("examples/counter_protocol.py")
    out = capsys.readouterr().out
    assert "V's counter: 3" in out
    assert "mallory rejected" in out


def test_bank_example(capsys):
    run_example("examples/bank_ledger.py")
    out = capsys.readouterr().out
    assert "Total money in the system: $175" in out
    assert "Forged $1M credit rejected: True" in out


def test_byzantine_audit_example(capsys):
    run_example("examples/byzantine_audit.py")
    out = capsys.readouterr().out
    assert "Honest logs agree: True" in out
    assert "Illegal value -5 in any honest log: False" in out
    assert (
        "request ('C-2', 1) rejected by leader: "
        "verification routine rejected the value"
    ) in out


def test_byzantized_paxos_example(capsys):
    run_example("examples/byzantized_paxos.py")
    out = capsys.readouterr().out
    assert "paxos                 61.0 ms" in out
    assert "blockplane-paxos      67.2 ms" in out
    assert "hierarchical-pbft     63.3 ms" in out
    assert "pbft                  98.0 ms" in out


def test_geo_failover_example(capsys):
    run_example("examples/geo_failover.py")
    out = capsys.readouterr().out
    assert "*** killing the California primary" in out
    assert "batch 29 committed at V" in out
    assert "Final primary: V (started at C)" in out


def test_lock_coordination_example(capsys):
    run_example("examples/lock_coordination.py")
    out = capsys.readouterr().out
    assert "granted: False (held by Oregon)" in out
    assert out.count("granted: True") == 2
    for replica in ("V-0", "V-1", "V-2", "V-3"):
        assert f"{replica}: cal-batch" in out
