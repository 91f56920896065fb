"""Every file a build gate compares against must be under version
control, and no build step may write over one that is.

A baseline that only exists in one developer's working tree makes the
gate fail on every clean checkout (or, worse, pass against a stale
local copy). The Makefile and the CI workflow name their gate inputs as
the argument of a ``--gate-*`` flag; every such path must be tracked.
Their outputs are the argument of ``--out``; none may be tracked, or
running the target silently rewrites an archived record.
"""

import re
import shutil
import subprocess
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
GATE_FILES = ("Makefile", ".github/workflows/ci.yml")
_GATE_ARG = re.compile(r"--gate-[a-z-]+\s+([^\s\\]+)")
_GATE_FLAG = re.compile(r"--gate-[a-z-]+")
_OUT_ARG = re.compile(r"(?<![\w-])--out[\s=]+([^\s\\]+)")


def _arguments(pattern):
    return {
        value
        for name in GATE_FILES
        for value in pattern.findall(
            (REPO_ROOT / name).read_text(encoding="utf-8")
        )
    }


def _gate_inputs():
    """Path arguments of ``--gate-*`` flags (numeric floors skipped)."""
    inputs = set()
    for value in _arguments(_GATE_ARG):
        try:
            float(value)
        except ValueError:
            inputs.add(value)
    return inputs


def _tracked_files():
    if shutil.which("git") is None:
        pytest.skip("git is not installed")
    proc = subprocess.run(
        ["git", "ls-files"], cwd=REPO_ROOT, capture_output=True, text=True
    )
    if proc.returncode != 0:
        pytest.skip("not a git checkout")
    return set(proc.stdout.splitlines())


def test_gate_inputs_are_found():
    # The scan must see the latency baseline, or the check below would
    # pass vacuously after a change to how the gates are spelled.
    assert "ci/latency-smoke.json" in _gate_inputs()


def test_every_gate_input_is_tracked():
    tracked = _tracked_files()
    untracked = sorted(path for path in _gate_inputs() if path not in tracked)
    assert untracked == [], f"gate inputs missing from git: {untracked}"


def test_every_makefile_gate_runs_in_ci():
    # A gate only the Makefile passes never guards a merge.
    def flags(name):
        return set(
            _GATE_FLAG.findall((REPO_ROOT / name).read_text(encoding="utf-8"))
        )

    makefile_gates = flags("Makefile")
    assert "--gate-wire-codec" in makefile_gates
    missing = sorted(makefile_gates - flags(".github/workflows/ci.yml"))
    assert missing == [], f"Makefile gates CI never runs: {missing}"


def test_outputs_are_found():
    assert "bench-smoke.json" in _arguments(_OUT_ARG)


def test_no_output_overwrites_a_tracked_file():
    tracked = _tracked_files()
    clobbered = sorted(path for path in _arguments(_OUT_ARG) if path in tracked)
    assert clobbered == [], f"build outputs that are tracked files: {clobbered}"
