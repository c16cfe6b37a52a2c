"""Time the `areavar area` and `curvature` CLI calls in process, phase by phase.

    python tools/bench_cli.py 128 256 [--src path/to/src]

Per grid size one fresh process makes the five calls of the benchmark's
cli_fields workload through `cli.main`: `area` for the euclidean, heisenberg
and intrinsic kinds and `curvature` for the euclidean and horizontal
operators, each on [-1, 1]^2 with n x n cells and a smooth field
c0 + c1 x + c2 y + c3 xy + c4 sin(k1 x + p1) cos(k2 y + p2) drawn by
RandomState(0) as that workload draws its seed-0 fields.  Each call runs
REPEATS times after one warm-up call, and each phase is reported as its
median over those runs:

- `field`: evaluating the field expression (`cli._scalar_field`);
- `density_or_curvature`: the rest of `cli._density_field`, or
  `mean_curvature_euclidean` / `p_mean_curvature`;
- `csv`: `write_cell_csv`;
- `report`: writing `report.json` (`cli._write_json`);
- `parser_and_config`: the rest of `cli.main`: building and running the
  argument parser, reading the JSON config, the domain and the output
  directory.

Also the sha256 of every file a call writes, so that two source trees can be
checked to write the same bytes, and the process's peak RSS.  Each line of
output is one JSON object.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
REPEATS = 9
COMMANDS = (("area", "euclidean"), ("area", "heisenberg"), ("area", "intrinsic"),
            ("curvature", "euclidean"), ("curvature", "horizontal"))
# the name in the cli module that each timed phase wraps
TIMED = {"_scalar_field": "field", "_density_field": "density_or_curvature",
         "mean_curvature_euclidean": "density_or_curvature",
         "p_mean_curvature": "density_or_curvature", "write_cell_csv": "csv",
         "_write_json": "report"}


def _expression(rng) -> str:
    c = (0.5 * rng.randn(5)).tolist()
    k = rng.uniform(0.5, 1.5, 2).tolist()
    p = rng.uniform(0.0, 2 * math.pi, 2).tolist()
    return (f"{c[0]!r} + {c[1]!r}*x + {c[2]!r}*y + {c[3]!r}*x*y"
            f" + {c[4]!r}*sin({k[0]!r}*x + {p[0]!r})*cos({k[1]!r}*y + {p[1]!r})")


class _Phases:
    """Self time per phase of the wrapped calls: a call's time less that of
    the wrapped calls it makes."""

    def __init__(self):
        self.s: Counter = Counter()
        self._open: list[float] = []

    def wrap(self, phase: str, fn):
        def timed(*args, **kwargs):
            self._open.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self.s[phase] += dt - self._open.pop()
                if self._open:
                    self._open[-1] += dt
        return timed


def _call(cli, argv: list[str]) -> dict:
    phases = _Phases()
    saved = {name: getattr(cli, name) for name in TIMED}
    for name, phase in TIMED.items():
        setattr(cli, name, phases.wrap(phase, saved[name]))
    try:
        t0 = perf_counter()
        code = cli.main(argv)
        total = perf_counter() - t0
    finally:
        for name, fn in saved.items():
            setattr(cli, name, fn)
    if code != 0:
        raise SystemExit(f"{' '.join(argv)}: exit code {code}")
    out = dict(phases.s)
    out["parser_and_config"] = total - sum(phases.s.values())
    out["total"] = total
    return out


def run_one(n: int) -> dict:
    import numpy as np
    from areavar import cli

    rng = np.random.RandomState(0)
    calls = {}
    with tempfile.TemporaryDirectory() as tmp:
        for command, variant in COMMANDS:
            key = "kind" if command == "area" else "operator"
            cfg = {"domain": {"extents": [[-1.0, 1.0], [-1.0, 1.0]], "n_cells": [n, n]},
                   key: variant, "field": {"expression": _expression(rng)}}
            out = os.path.join(tmp, f"{command}-{variant}")
            os.makedirs(out)
            path = os.path.join(out, "config.json")
            with open(path, "w") as fh:
                json.dump(cfg, fh)
            argv = [command, "--config", path, "--out", out, "--seed", "0"]
            _call(cli, argv)
            runs = [_call(cli, argv) for _ in range(REPEATS)]
            calls[f"{command} {variant}"] = {
                "median_s": {phase: round(statistics.median(r.get(phase, 0.0) for r in runs), 6)
                             for phase in ("total", "parser_and_config", "field",
                                           "density_or_curvature", "csv", "report")},
                "sha256": {name: hashlib.sha256(Path(out, name).read_bytes()).hexdigest()
                           for name in sorted(os.listdir(out)) if name != "config.json"},
            }
    return {
        "n": n,
        "repeats": REPEATS,
        "calls": calls,
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("sizes", type=int, nargs="*")
    p.add_argument("--src", default=str(ROOT / "src"), help="the areavar source tree to time")
    p.add_argument("--one", type=int, help=argparse.SUPPRESS)
    args = p.parse_args()
    if args.one is not None:
        sys.path.insert(0, args.src)
        print(json.dumps(run_one(args.one)), flush=True)
        return 0
    for n in args.sizes:
        subprocess.run([sys.executable, __file__, "--one", str(n), "--src", args.src], check=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
