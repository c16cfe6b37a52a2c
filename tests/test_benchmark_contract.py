"""The benchmark's use of the program: every traced name resolves, and one
round of each workload at its small size runs with every gate passing.

The benchmark calls areavar's public functions by name and position, so a
signature or name it relies on cannot change without this test failing.
"""
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load("spans")
workloads = _load("workloads")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_small_round_passes_every_gate(name, tmp_path):
    recorder = spans.Recorder()
    recorder.install()
    try:
        tally = workloads.Tally(recorder)
        tally.start_round()
        workloads.WORKLOADS[name](3, workloads.SIZES["small"][name], str(tmp_path)).round(0, tally)
    finally:
        recorder.uninstall()
    assert tally.attempted > 0
    assert tally.failed == 0, tally.failures
