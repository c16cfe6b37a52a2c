"""Time the kink search `measures.singular_epsilons` and a certify_saddle round.

    python tools/bench_measures.py 64 128 256 512 [--src path/to/src] [--round 256]

The measure is the saddle's: `continuation_minimize` of the p_area problem on
[-1, 1]^2 with n x n cells and boundary data xy (its harmonic start is
already the solution, so no Newton step runs), then `field_to_measure`.  The
direction is the first of the seeded directions (1 - x^2)(1 - y^2) p(x, y),
p a random polynomial-trigonometric field, drawn by RandomState(0) as the
benchmark's certify_saddle workload draws them.  Per grid size one fresh
process reports the best of 5 calls of `singular_epsilons`, the entries
(cells plus atoms) per second of that call, and a digest of the returned
list, so that two source trees can be checked to return the same values;
also the best of 5 calls of `harmonic_extension`, the continuation's
initial guess, on the same data.

With `--round n` one more process runs one untraced certify_saddle-shaped
round at n x n cells and splits its wall time into the solve (the
continuation, `singular_set`, `field_to_measure`, `angle_condition`), the
certification of 8 directions and the kink search (`singular_epsilons` for
every 4th direction).  The certification is split further into its five
calls per direction: `minimizer_first_variation`, both modes of
`second_variation_graph` and both modes of `fd_validate`.  Each line of
output is one JSON object.  These are single runs.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import resource
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
REPEATS = 5
DIRECTIONS = 8
SINGULAR_EVERY = 4


def _setup(n: int):
    import numpy as np
    from areavar import grids, solver, variation

    dom = grids.GridDomain(((-1.0, 1.0), (-1.0, 1.0)), (n, n))
    spec = grids.EnergySpec(preset="p_area")
    X, Y = np.meshgrid(dom.axis_nodes(0), dom.axis_nodes(1), indexing="ij")
    phi = grids.ScalarField(dom, X * Y)
    rng = np.random.RandomState(0)
    directions = []
    for _ in range(DIRECTIONS):
        c = rng.randn(8)
        p = (c[0] + c[1] * X + c[2] * Y + c[3] * X * Y
             + c[4] * np.sin(2.0 * X + c[5]) + c[6] * np.cos(2.0 * Y + c[7]))
        vals = (1.0 - X * X) * (1.0 - Y * Y) * p
        vals[dom.boundary_mask()] = 0.0
        directions.append(variation.DirectionField(grids.ScalarField(dom, vals)))
    return dom, spec, phi, directions, solver


def _best(fn, *args) -> tuple[float, object]:
    """Best of REPEATS calls, and the last call's result."""
    times = []
    for _ in range(REPEATS):
        t0 = perf_counter()
        out = fn(*args)
        times.append(perf_counter() - t0)
    return min(times), out


def kink_search(n: int) -> dict:
    from areavar import grids, measures

    dom, spec, phi, directions, solver = _setup(n)
    harmonic, _ = _best(solver.harmonic_extension, dom, phi)
    res = solver.continuation_minimize(dom, spec, phi)
    mu, _ = grids.field_to_measure(res.u, spec)
    nu = directions[0].measure()
    best, eps = _best(measures.singular_epsilons, mu, nu)
    entries = mu.n_cells + len(set(mu.atom_sites()) | set(nu.atom_sites()))
    return {
        "n": n,
        "entries": entries,
        "best_s": round(best, 6),
        "entries_per_s": round(entries / best),
        "kinks": len(eps),
        "digest": hashlib.sha256(repr(eps).encode()).hexdigest()[:16],
        "harmonic_extension_best_s": round(harmonic, 6),
    }


def certify_round(n: int) -> dict:
    from areavar import grids, measures, variation

    dom, spec, phi, directions, solver = _setup(n)
    phases = {"solve": 0.0, "certification": 0.0, "kink_search": 0.0}
    calls = {
        "minimizer_first_variation": lambda u, d: variation.minimizer_first_variation(u, spec, d),
        "second_variation_graph_area": lambda u, d: variation.second_variation_graph(u, spec, d, "area"),
        "second_variation_graph_riemannian":
            lambda u, d: variation.second_variation_graph(u, spec, d, "riemannian"),
        "fd_validate_area": lambda u, d: variation.fd_validate(u, spec, d),
        "fd_validate_riemannian": lambda u, d: variation.fd_validate(u, spec, d, mode="riemannian"),
    }
    certification = dict.fromkeys(calls, 0.0)
    t0 = perf_counter()
    res = solver.continuation_minimize(dom, spec, phi)
    grids.singular_set(res.u, spec)
    mu, _ = grids.field_to_measure(res.u, spec)
    variation.angle_condition(res.u, spec)
    phases["solve"] = perf_counter() - t0
    for j, d in enumerate(directions):
        for name, call in calls.items():
            t0 = perf_counter()
            call(res.u, d)
            certification[name] += perf_counter() - t0
        if j % SINGULAR_EVERY == 0:
            t0 = perf_counter()
            measures.singular_epsilons(mu, d.measure())
            phases["kink_search"] += perf_counter() - t0
    phases["certification"] = sum(certification.values())
    return {
        "n": n,
        "round_s": round(sum(phases.values()), 3),
        "phases_s": {k: round(v, 3) for k, v in phases.items()},
        "certification_s": {k: round(v, 4) for k, v in certification.items()},
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("sizes", type=int, nargs="*")
    p.add_argument("--src", default=str(ROOT / "src"), help="the areavar source tree to time")
    p.add_argument("--round", type=int, help="also time one certify_saddle-shaped round at this size")
    p.add_argument("--one", type=int, help=argparse.SUPPRESS)
    p.add_argument("--one-round", type=int, help=argparse.SUPPRESS)
    args = p.parse_args()
    if args.one is not None or args.one_round is not None:
        sys.path.insert(0, args.src)
        out = kink_search(args.one) if args.one is not None else certify_round(args.one_round)
        print(json.dumps(out), flush=True)
        return 0
    jobs = [["--one", str(n)] for n in args.sizes]
    if args.round is not None:
        jobs.append(["--one-round", str(args.round)])
    for job in jobs:
        subprocess.run([sys.executable, __file__, *job, "--src", args.src], check=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
