"""Every file a build gate compares against must be under version control.

A baseline that only exists in one developer's working tree makes the
gate fail on every clean checkout (or, worse, pass against a stale
local copy). The Makefile and the CI workflow name their gate inputs as
the argument of a ``--gate-*`` flag; every such path must be tracked.
"""

import re
import shutil
import subprocess
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
GATE_FILES = ("Makefile", ".github/workflows/ci.yml")
_GATE_ARG = re.compile(r"--gate-[a-z-]+\s+([^\s\\]+)")


def _gate_inputs():
    """Path arguments of ``--gate-*`` flags (numeric floors skipped)."""
    inputs = set()
    for name in GATE_FILES:
        text = (REPO_ROOT / name).read_text(encoding="utf-8")
        for value in _GATE_ARG.findall(text):
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
