"""Self-test of the benchmark at small sizes.

    python3 perfbench/selftest.py

Checks that every workload prints exactly the metrics BENCHMARK.json names,
each with its unit, untraced and traced, with every gate passing; that a
deliberately corrupted result (an energy or a density 5% off) is counted as
a failure; and that without the program's sources the benchmark exits
non-zero without printing a result.  Exits 0 when all of that holds.
"""
from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import run

ROOT = run.ROOT
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(["--workload", workload, "--seed", "3", "--seconds", "1",
                         "--trace", str(trace), "--size", "small"])
    assert code == 0, f"{workload}: exit code {code}"
    result = json.loads(buf.getvalue().strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    return result


def check_metrics() -> None:
    expected = {0: SPEC["end_to_end"], 1: SPEC["per_layer"]}
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, metrics in expected.items():
            result = bench(workload, trace)
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, \
                f"{workload} trace={trace}: {result['failed']} of {result['attempted']} failed"
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            assert printed == {m["name"]: m["unit"] for m in metrics}, \
                f"{workload} trace={trace}: printed metrics differ from BENCHMARK.json"
            assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
            if trace:
                m = result["metrics"]
                assert m["trace.self_s_total"]["value"] <= m["trace.wall_s"]["value"] * (1 + 1e-9)
            print(f"ok  {workload} trace={trace}: {len(printed)} metrics")


def check_corruption() -> None:
    from areavar import geometry, solver
    from spans import replace_everywhere, restore

    def five_percent_energy(fn):
        def corrupted(*args, **kwargs):
            res = fn(*args, **kwargs)
            return replace(res, energy=1.05 * res.energy)
        return corrupted

    def five_percent(fn):
        return lambda *args, **kwargs: 1.05 * fn(*args, **kwargs)

    cases = [
        ("solve_large", solver.continuation_minimize, five_percent_energy),
        ("solve_small_batch", solver.continuation_minimize, five_percent_energy),
        ("certify_saddle", solver.continuation_minimize, five_percent_energy),
        ("cli_fields", geometry.graph_area_density, five_percent),
    ]
    for workload, original, corrupt in cases:
        patches = replace_everywhere(original, corrupt(original))
        try:
            result = bench(workload, 0)
        finally:
            restore(patches)
        assert not result["correct"] and result["failed"] > 0, f"{workload}: corruption not caught"
        print(f"ok  {workload}: corrupted result counted, {result['failed']} of {result['attempted']} failed")


def check_without_program() -> None:
    bare = run.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "solve_large",
                               "--seed", "0", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    print(f"ok  without the program: exit code {proc.returncode}, nothing printed")


if __name__ == "__main__":
    check_metrics()
    check_corruption()
    check_without_program()
    print("selftest passed")
