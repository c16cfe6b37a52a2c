"""areavar benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload solve_large --seed 0 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/` directory.  The workload's inputs are generated from `--seed`.  After
set-up (input generation and a warm-up round at tiny size) the workload's
rounds, each the same work on the same inputs, run until `--seconds` would
be exceeded, at least one round.  Set-up is timed five times, once before
the rounds and four times after, each time with the program's import time
in a fresh interpreter; `setup_s` is the median.  Every time in the
end-to-end metrics is scaled to a nominal host speed by a reference kernel
timed every 0.2 s (see hostspeed.py).  Every output is checked; the last
line of standard output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with `--trace 0`, the per-layer metrics
with `--trace 1`.  A traced run times each round twice, untraced and then
traced, so the difference is the tracing overhead; its spans are written to
`perfbench/out/`.  A failed check is reported in that object (`correct`
false, `failed` > 0) and the exit code is still 0; the exit code is 2, with
no result printed, when the program cannot be imported.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
HELD_OUT_SEED = 7919          # never used while tuning; see README.md
SETUP_REPEATS = 5
SETUP_KERNELS = 3             # kernels timed before and after each set-up
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# the keys of workloads.WORKLOADS, known before numpy is imported
WORKLOAD_NAMES = ("solve_large", "solve_small_batch", "certify_saddle", "cli_fields")
IMPORT_PROBE = ("import time; t = time.perf_counter(); "
                "from areavar import cli, grids, measures, solver, variation; "
                "print(time.perf_counter() - t)")


def cap_threads() -> int:
    """Cap BLAS/OpenMP threads at the usable CPU count; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        cap = min(int(current), nproc) if current.isdigit() and int(current) > 0 else nproc
        os.environ[var] = str(cap)
    return nproc


def import_seconds(src: Path) -> float:
    """Time to import the program's modules in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=120, check=True)
    return float(proc.stdout)


def l3_cache() -> str:
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(base.glob("index*")):
            if (index / "level").read_text().strip() == "3":
                return (index / "size").read_text().strip()
    except OSError:
        pass
    return "unknown"


def tail(samples: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples beyond); with ten samples or fewer
    it is the maximum, at percentile 100 with none beyond.
    """
    s = sorted(samples)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0, 0
    r = n - 11
    return s[r], 100.0 * (r + 1) / n, n - 1 - r


def measure(workload, tallies, seconds: float, recorder=None) -> int:
    """Run rounds until the next one would overrun `seconds`; return the count.

    `tallies` holds one Tally, or with a recorder an (untraced, traced) pair:
    each round then runs untraced, and again with the wrappers installed.
    """
    start = perf_counter()
    k = 0
    while True:
        for tally in tallies:
            if tally.recorder is not None:
                recorder.install()
            tally.start_round()
            try:
                workload.round(k, tally)
            finally:
                if recorder is not None:
                    recorder.uninstall()
        k += 1
        elapsed = perf_counter() - start
        if elapsed + elapsed / k > seconds:
            return k


def end_to_end(tally, speed, setups: list[float]) -> dict:
    """The bounded metrics: set-up, the median round and operation, memory.

    Times are in seconds at the nominal host speed of `hostspeed.REF_S`.
    """
    rounds = [speed.scaled(segments) for segments in tally.segments]
    ops = [speed.scaled(op) for round_ops in tally.ops for op in round_ops]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "round_s": (statistics.median(rounds), "s"),
        "op_s.p50": (statistics.median(ops), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


# per-layer span metrics: (span name, statistic, unit); values are per round
SPAN_METRICS = (
    ("solver.solve_regularized", "self_s", "s"),
    ("solver.harmonic_extension", "s", "s"),
    ("solver.comparison_check", "s", "s"),
    ("solver.energy_bound_check", "s", "s"),
    *((f"measures.{f}", stat, unit)
      for f in ("first_variation_pm", "second_variation", "line_energy", "singular_epsilons")
      for stat, unit in (("s", "s"), ("calls", "count"))),
    *((f"grids.{f}", stat, unit)
      for f in ("area_energy", "singular_set", "field_to_measure", "gradient")
      for stat, unit in (("s", "s"), ("calls", "count"))),
    ("grids.write_cell_csv", "s", "s"),
    ("variation.minimizer_first_variation", "self_s", "s"),
    ("variation.second_variation_graph", "self_s", "s"),
    ("variation.fd_validate", "self_s", "s"),
    ("variation.angle_condition", "s", "s"),
    ("geometry.graph_area_density", "s", "s"),
    ("geometry.graph_area_density", "calls", "count"),
    ("geometry.mean_curvature_euclidean", "s", "s"),
    ("geometry.p_mean_curvature", "s", "s"),
    ("cli.main", "self_s", "s"),
    ("cli.main", "calls", "count"),
)


def per_layer(recorder, plain, traced, rounds: int) -> dict:
    totals = recorder.totals()

    def span(name, stat):
        return totals.get(name, {}).get(stat, 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    c = traced.counts
    sr_self = span("solver.solve_regularized", "self_s")
    out = {f"{name}.{stat}": (span(name, stat) / rounds, unit) for name, stat, unit in SPAN_METRICS}
    traced_wall = sum(traced.round_s) / rounds
    out.update({
        "solver.newton_steps": (ratio(c["newton_steps"], c["solves"]), "count"),
        "solver.stages": (ratio(c["stages"], c["solves"]), "count"),
        "solver.s_per_newton_step": (ratio(sr_self, c["newton_steps"]), "s"),
        "solver.ns_per_unknown_step": (1e9 * ratio(sr_self, c["unknown_steps"]), "ns"),
        "measures.singular_epsilons.entries_per_s": (
            ratio(c["singular_entries"], span("measures.singular_epsilons", "s")), "1/s"),
        "trace.wall_s": (traced_wall, "s"),
        "trace.self_s_total": (sum(t["self_s"] for t in totals.values()) / rounds, "s"),
        "trace.overhead_s": (traced_wall - sum(plain.round_s) / rounds, "s"),
    })
    return out


def workload_report(name: str, tally, speed, metrics: dict) -> dict:
    """All figures under the names they have for this workload.

    The `raw.` figures are unscaled wall-clock seconds; `host` is the
    reference kernel's timings over the run.
    """
    rep = dict(metrics)
    rep["failure_ratio"] = (tally.failed / tally.attempted, "ratio")
    rep["raw.wall_s"] = (statistics.median(tally.round_s), "s", {"rounds": len(tally.round_s)})
    op = "raw.solve_s" if name.startswith("solve") else "raw.op_s"
    samples = tally.op_s
    rep[f"{op}.p50"] = (statistics.median(samples), "s", {"samples": len(samples)})
    value, pct, beyond = tail(samples)
    rep[f"{op}.tail"] = (value, "s", {"percentile": pct, "beyond": beyond})
    items = {"certify_saddle": "directions_per_s", "cli_fields": "cells_per_s"}.get(name, "items_per_s")
    rep[items] = (tally.items / len(tally.round_s) / metrics["round_s"][0], "1/s")
    rep["host"] = speed.summary()
    if name.startswith("solve"):
        rep["newton_steps"] = (tally.counts["newton_steps"] / tally.counts["solves"], "count")
    return rep


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "small"), default="full",
                   help="problem sizes; 'small' is for the self-test")
    args = p.parse_args(argv)
    nproc = cap_threads()

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import numpy
        import scipy
        import areavar
        from spans import Recorder
        from hostspeed import HostSpeed
        import workloads
    except ImportError as exc:
        print(f"cannot import the program from {src}: {exc}", file=sys.stderr)
        return 2
    if not Path(areavar.__file__).resolve().is_relative_to(src.resolve()):
        print(f"areavar was imported from {areavar.__file__}, not from {src}", file=sys.stderr)
        return 2

    env = {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_cap": {var: os.environ[var] for var in THREAD_VARS},
        "l3_cache": l3_cache(),
        "machine": platform.machine(),
        "processes": 1,
    }
    print("env: " + json.dumps(env))
    print("seeds: " + json.dumps({"seed": args.seed, "held_out_seed": HELD_OUT_SEED,
                                  "held_out": args.seed == HELD_OUT_SEED}))

    cls = workloads.WORKLOADS[args.workload]
    sizes = workloads.SIZES[args.size][args.workload]
    warmup = workloads.SIZES["warmup"][args.workload]
    workdir = OUT / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)

    def set_up():
        t = perf_counter()
        workload = cls(args.seed, sizes, str(workdir))
        warm = workloads.Tally()
        warm.start_round()
        cls(args.seed, warmup, str(workdir / "warmup")).round(0, warm)
        return workload, perf_counter() - t

    def timed_set_up(speed):
        """One set-up with a fresh import, in seconds at the nominal host speed."""
        speed.probe(SETUP_KERNELS)
        t0 = perf_counter()
        seconds = import_seconds(src)
        workload, more = set_up()
        mid = 0.5 * (t0 + perf_counter())
        speed.probe(SETUP_KERNELS)
        return workload, (seconds + more) * speed.scale(mid)

    try:
        if args.trace:
            workload, _ = set_up()
            plain = workloads.Tally()
            recorder = Recorder()
            traced = workloads.Tally(recorder)
            rounds = measure(workload, (plain, traced), args.seconds, recorder)
            with traced.op("trace self-time check", sample=False):
                self_total = sum(t["self_s"] for t in recorder.totals().values())
                traced.gate(self_total <= sum(traced.round_s),
                            f"span self times {self_total} exceed traced wall {sum(traced.round_s)}")
            metrics = per_layer(recorder, plain, traced, rounds)
            tallies = (plain, traced)
            OUT.mkdir(exist_ok=True)
            recorder.write(OUT / f"trace-{args.workload}-seed{args.seed}.json",
                           {"workload": args.workload, "seed": args.seed, "rounds": rounds, "env": env})
        else:
            speed = HostSpeed()
            workload, seconds = timed_set_up(speed)
            setups = [seconds]
            plain = workloads.Tally(speed=speed)
            with speed:
                rounds = measure(workload, (plain,), args.seconds)
            speed.probe(SETUP_KERNELS)
            setups += [timed_set_up(speed)[1] for _ in range(SETUP_REPEATS - 1)]
            metrics = end_to_end(plain, speed, setups)
            tallies = (plain,)
            report = workload_report(args.workload, plain, speed, metrics)
            print("report: " + json.dumps({"workload": args.workload, "rounds": rounds,
                                           "metrics": report}))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    failures = [msg for t in tallies for msg in t.failures]
    if failures:
        print("failures: " + json.dumps(failures[:20]))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v[0], "unit": v[1]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
