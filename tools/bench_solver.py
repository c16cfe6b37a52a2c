"""Time `continuation_minimize` end to end and split it into phases.

    python tools/bench_solver.py 64 128 256 [--src path/to/src]

For each grid size n, one fresh process solves the p_area problem on
[-1, 1]^2 with n x n cells, boundary data xy + 0.3 sin(2x + 0.3y) and the
default SolverConfig: once untimed by the profiler (wall time, Newton steps
in all and per stage, factorizations, PCG iterations, minor page faults of
the solve, peak RSS, and a digest of the final nodal values, so that two
source trees can be checked to return the same field bit for bit), then
once more the same way for the minor page faults of a second solve in the
same process (the first solve's count varies from run to run at 128^2 and
over, where the heap is new), then once under cProfile for the per-phase
split and, beside the phases, the seconds of the matrix products inside
PCG (part of the "pcg" phase).  Each line of output is one JSON object,
with the BLAS thread cap (OPENBLAS_NUM_THREADS, unset unless the caller
sets it) and the usable CPU count.  These are single runs.

The profiled phases overstate any layer that makes many small Python-level
calls, because cProfile charges each of them.  Building the Hessian's
`dia_array` runs about fifteen such calls in scipy and numpy (shape,
index-dtype and duplicate-offset checks), so the profiled
"hessian_assembly" of a 32^2 solve reads 19-21 ms where its unprofiled
calls take 13-15 ms; compare wall times, not phases, across such changes.
"""
from __future__ import annotations

import argparse
import cProfile
import hashlib
import json
import os
import pstats
import resource
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


def _edge(stats: dict, callee: str, callers: tuple[str, ...], file: str = "") -> float:
    """Cumulative seconds of `callee` when called from one of `callers`."""
    total = 0.0
    for (f, _, name), (_, _, _, _, edges) in stats.items():
        if name == callee and f.endswith(file):
            total += sum(e[3] for (_, _, c), e in edges.items() if c in callers)
    return total


def _own(stats: dict, name: str, column: int, file: str = "") -> float:
    """Own (column 2) or cumulative (column 3) seconds of every `name`;
    column 1 counts its calls."""
    return sum(v[column] for (f, _, n), v in stats.items() if n == name and f.endswith(file))


GSTRF = "<built-in method scipy.sparse.linalg._dsolve._superlu.gstrf>"   # SuperLU factorization
BAND = "_band_cholesky"     # band Cholesky factorization: band copy and dpbtrf


def run_one(n: int) -> dict:
    import numpy as np
    from areavar.grids import EnergySpec, GridDomain, ScalarField
    from areavar.solver import continuation_minimize

    dom = GridDomain(((-1.0, 1.0), (-1.0, 1.0)), (n, n))
    phi = ScalarField.from_function(dom, lambda x, y: x * y + 0.3 * np.sin(2 * x + 0.3 * y))
    spec = EnergySpec(preset="p_area")
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    t0 = perf_counter()
    res = continuation_minimize(dom, spec, phi)
    wall = perf_counter() - t0
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    faults_second = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    again = continuation_minimize(dom, spec, phi)
    faults_second = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults_second
    if again.u.values.tobytes() != res.u.values.tobytes():
        raise RuntimeError("a second solve in the same process returned other values")
    del again

    prof = cProfile.Profile()
    prof.runcall(continuation_minimize, dom, spec, phi)
    st = pstats.Stats(prof).stats
    newton = ("_newton", "solve_regularized", "_tangent")   # Newton and tangent solves
    phases = {
        "assembler_setup": _edge(st, "__init__", ("continuation_minimize", "solve_regularized"),
                                 "solver.py"),
        "initial_guess": _own(st, "harmonic_extension", 3),
        "kinematics": _edge(st, "kinematics", newton),
        "gradient": _edge(st, "gradient_full", newton),
        "tangent_rhs": _edge(st, "gradient_a", newton),
        # profiled, this includes cProfile's charge for the ~15 Python-level
        # calls of each dia_array build (see the module docstring)
        "hessian_assembly": _edge(st, "hessian_interior", newton),
        # over the band limit: the stencil gathered into nested-dissection
        # CSC order, and the pattern built at the first call
        "csc_gather": _own(st, "_nested_dissection_csc", 3, "solver.py"),
        "factorization": _own(st, GSTRF, 2) + _own(st, BAND, 3, "solver.py"),
        # direct solves after a factorization (by `_spd_solve` or `solve` in
        # older checkouts), SuperLU's or the band factor's `solve`; the
        # solves inside PCG are in "pcg"
        "triangular_solve": _edge(st, "<method 'solve' of 'SuperLU' objects>",
                                  ("_solve", "solve", "_spd_solve"))
        + _edge(st, "solve", ("_solve", "solve"), "solver.py"),
        "pcg": _own(st, "_pcg", 3, "solver.py"),
        "line_search": sum(_edge(st, f, newton) for f in ("energy", "residual_norm", "scatter_interior")),
        "predictor": _own(st, "_euler_predict", 3),
    }
    total = _own(st, "continuation_minimize", 3)
    phases["other"] = total - sum(phases.values())
    return {
        "n": n,
        "wall_s": round(wall, 3),
        "newton_steps": res.iterations,
        "stages": len(res.stages),
        "stage_steps": [s[1] for s in res.stages],
        # a checkout without the counter has only SuperLU's, counted by the profiler
        "factorizations": res.factorizations if hasattr(res, "factorizations")
        else _own(st, GSTRF, 1),
        "pcg_iterations": getattr(res, "pcg_iterations", 0),
        "converged": bool(res.converged),
        "digest": hashlib.sha256(res.u.values.tobytes()).hexdigest()[:16],
        "minor_faults": faults,
        "minor_faults_second": faults_second,
        "peak_rss_mb": round(rss, 1),
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "profiled_s": round(total, 3),
        "phases_s": {k: round(v, 3) for k, v in phases.items()},
        # every A @ x inside `_pcg`: the stencil's product, or the CSC
        # matrix's over 64 cells across
        "pcg_matmul_s": round(_edge(st, "__matmul__", ("_pcg",)), 3),
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
