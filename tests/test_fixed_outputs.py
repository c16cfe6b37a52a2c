"""Byte-for-byte outputs: the `fast` acceptance report and the demo transcripts.

A refactor keeps these bytes.  A change that moves any of them must list
each moved value and why, and rewrite the fixture with the new output.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

from areavar import acceptance
from areavar.util import to_json

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_fast_acceptance_report_bytes():
    report = to_json(acceptance.run_all(seed=2026, profile="fast"))
    assert report.encode() == (FIXTURES / "acceptance_fast_seed2026.json").read_bytes()


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_stdout_bytes(demo):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, env=env, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (FIXTURES / f"demo_{demo.stem}.stdout").read_bytes()
