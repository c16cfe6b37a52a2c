"""The benchmark's workloads: seeded inputs, timed rounds and correctness gates.

A workload is built from a seed, a size table and a directory it may write
to; the program only sees the generated fields.  One `round` is the
workload's unit of work.  Calls into areavar go through `Tally.call`, which
times them (and, in a traced run, lets the span recorder see them); the
benchmark's own oracles run between those calls and are never timed.  Every gate is no looser than the
acceptance suite's threshold for the same property.
"""
from __future__ import annotations

import json
import math
import os
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from areavar import cli, grids, measures, solver, variation

SQUARE = ((-1.0, 1.0), (-1.0, 1.0))
SPEC = grids.EnergySpec(preset="p_area")
NEWTON_TOL = solver.SolverConfig().newton_tol      # 1e-10, the default schedule's target

# "full" is what the benchmark measures: each round is short enough that a
# run repeats it several times and the medians rest on several samples.  "small" is for the self-test, large enough that every gate
# holds (the curvature gates need h^2 small); "warmup" runs the same code
# paths during set-up, its gates are ignored.
SIZES = {
    "full": {
        "solve_large": {"n": 64, "directions": 3},
        "solve_small_batch": {"n": 32, "pairs": 4},
        "certify_saddle": {"n": 256, "directions": 8, "singular_every": 4},
        "cli_fields": {"n": 128},
    },
    "small": {
        "solve_large": {"n": 16, "directions": 2},
        "solve_small_batch": {"n": 8, "pairs": 2},
        "certify_saddle": {"n": 32, "directions": 2, "singular_every": 2},
        "cli_fields": {"n": 128},
    },
    "warmup": {
        "solve_large": {"n": 8, "directions": 1},
        "solve_small_batch": {"n": 8, "pairs": 1},
        "certify_saddle": {"n": 16, "directions": 1, "singular_every": 1},
        "cli_fields": {"n": 16},
    },
}


class Tally:
    """Timings, samples and gate outcomes of the rounds of one run.

    `segments` holds, per round, the program's time as (midpoint, seconds)
    segments, and `ops` each sampled operation as the list of its segments,
    so that a `hostspeed.HostSpeed` can scale each by the host's speed at its
    time.  A call is one segment, or with a `speed` several: the speed
    probes that fell inside it are taken out.
    """

    def __init__(self, recorder=None, speed=None):
        self.recorder = recorder
        self.speed = speed
        self.round_s: list[float] = []
        self.segments: list[list[tuple[float, float]]] = []
        self.ops: list[list[list[tuple[float, float]]]] = []
        self.items = 0
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.counts: Counter = Counter()
        self._op = None                 # [segments, ok] of the open operation

    def start_round(self) -> None:
        self.round_s.append(0.0)
        self.segments.append([])
        self.ops.append([])

    @property
    def op_s(self) -> list[float]:
        return [sum(dt for _, dt in op) for ops in self.ops for op in ops]

    @contextmanager
    def timed(self):
        rec, speed = self.recorder, self.speed
        if rec is not None:
            rec.active = True
        mark = speed.since() if speed is not None else 0
        t0 = perf_counter()
        try:
            yield
        finally:
            t1 = perf_counter()
            if rec is not None:
                rec.active = False
            segments = speed.segments(t0, t1, mark) if speed is not None else [(0.5 * (t0 + t1), t1 - t0)]
            self.round_s[-1] += sum(dt for _, dt in segments)
            self.segments[-1] += segments
            if self._op is not None:
                self._op[0] += segments

    def call(self, fn, *args, **kwargs):
        """A timed call into the program."""
        with self.timed():
            return fn(*args, **kwargs)

    @contextmanager
    def op(self, label: str, sample: bool = True):
        """One attempted operation: it fails if a gate inside it fails or it raises.

        With `sample` its program time is one sample in `ops`.
        """
        self._op = [[], True]
        try:
            yield
        except Exception as exc:  # a crashing program call is a failed operation, not a crash
            self.gate(False, f"{label}: {type(exc).__name__}: {exc}")
        finally:
            segments, ok = self._op
            self._op = None
            self.attempted += 1
            self.failed += not ok
            if sample:
                self.ops[-1].append(segments)

    def gate(self, ok: bool, message: str) -> None:
        """Record a check of the open operation; a failed one fails the operation."""
        if not ok:
            self._op[1] = False
            self.failures.append(message)


# ---- independent numpy oracles ------------------------------------------------


def _domain(n: int) -> grids.GridDomain:
    return grids.GridDomain(SQUARE, (n, n))


def _nodes(dom):
    return np.meshgrid(dom.axis_nodes(0), dom.axis_nodes(1), indexing="ij")


def _centers(dom):
    return np.meshgrid(dom.axis_centers(0), dom.axis_centers(1), indexing="ij")


def _cell_gradient(v: np.ndarray, dom) -> tuple[np.ndarray, np.ndarray]:
    hx, hy = dom.spacing
    gx = (v[1:, :-1] - v[:-1, :-1] + v[1:, 1:] - v[:-1, 1:]) / (2.0 * hx)
    gy = (v[:-1, 1:] - v[:-1, :-1] + v[1:, 1:] - v[1:, :-1]) / (2.0 * hy)
    return gx, gy


def _midpoint_energy(v: np.ndarray, dom) -> float:
    """Midpoint area energy with the p_area drift F = (-y, x) and H = 0."""
    gx, gy = _cell_gradient(v, dom)
    xc, yc = _centers(dom)
    return float(np.sum(np.hypot(gx - yc, gy + xc)) * dom.cell_volume)


def _poly_trig(c):
    return lambda x, y: (c[0] + c[1] * x + c[2] * y + c[3] * x * y
                         + c[4] * np.sin(2.0 * x + c[5]) + c[6] * np.cos(2.0 * y + c[7]))


def _direction(dom, rng) -> variation.DirectionField:
    """A smooth direction vanishing on the boundary, as in the acceptance suite."""
    base = _poly_trig(rng.randn(8))
    X, Y = _nodes(dom)
    vals = (1.0 - X * X) * (1.0 - Y * Y) * base(X, Y)
    vals[dom.boundary_mask()] = 0.0
    return variation.DirectionField(grids.ScalarField(dom, vals))


# ---- gates shared by the workloads --------------------------------------------


def gate_solve(t: Tally, res, phi, label: str) -> None:
    dom = phi.dom
    t.gate(res.converged and res.residual_norm <= NEWTON_TOL,
           f"{label}: not converged (residual {res.residual_norm:.3e})")
    bmask = dom.boundary_mask()
    t.gate(np.array_equal(res.u.values[bmask], phi.values[bmask]),
           f"{label}: boundary data not reproduced")
    oracle = _midpoint_energy(res.u.values, dom)
    t.gate(abs(res.energy - oracle) <= 1e-9 * (1.0 + abs(oracle)),
           f"{label}: reported energy {res.energy!r} != energy of the field {oracle!r}")
    t.counts["solves"] += 1
    t.counts["newton_steps"] += res.iterations
    t.counts["stages"] += len(res.stages)
    t.counts["unknown_steps"] += res.iterations * (dom.n_cells[0] - 1) * (dom.n_cells[1] - 1)


def gate_sandwich(t: Tally, rep, label: str) -> None:
    tol = 1e-4 * (1.0 + rep.F_value)
    t.gate(rep.Fprime_minus <= tol and rep.Fprime_plus >= -tol,
           f"{label}: optimality sandwich fails ({rep.Fprime_minus!r}, {rep.Fprime_plus!r})")


# ---- workloads ----------------------------------------------------------------


class SolveLarge:
    """continuation_minimize, p_area drift, 64^2, saddle plus a smooth perturbation."""

    def __init__(self, seed: int, size: dict, workdir: str):
        rng = np.random.RandomState(seed)
        # seed 0 is the reference case xy + 0.3 sin(2x + 0.3y); other seeds
        # move the wave vector and phase a little, so every seed asks for a
        # similar number of Newton steps.
        dk1, dk2, ph = (0.0, 0.0, 0.0) if seed == 0 else rng.uniform(-0.03, 0.03, 3)
        self.dom = _domain(size["n"])
        X, Y = _nodes(self.dom)
        self.phi = grids.ScalarField(self.dom, X * Y + 0.3 * np.sin((2.0 + dk1) * X + (0.3 + dk2) * Y + ph))
        self.directions = [_direction(self.dom, rng) for _ in range(size["directions"])]

    def round(self, k: int, t: Tally) -> None:
        res = None
        with t.op("solve"):
            res = t.call(solver.continuation_minimize, self.dom, SPEC, self.phi)
            gate_solve(t, res, self.phi, "solve")
            t.items += 1
        with t.op("solve checks", sample=False):
            bound = t.call(solver.energy_bound_check, res, SPEC, self.phi)
            t.gate(bound["passed"], f"solve: energy bound fails {bound}")
            for j, d in enumerate(self.directions):
                rep = t.call(variation.minimizer_first_variation, res.u, SPEC, d)
                gate_sandwich(t, rep, f"solve direction {j}")


def _ordered_pair(dom, rng):
    """Ordered boundary data upper >= lower, in the pattern of criteria 06/07."""
    base = _poly_trig(0.4 * rng.randn(8))
    gap0 = rng.uniform(0.05, 0.5)
    g1 = rng.uniform(0.0, 0.6)
    s = rng.uniform(0.0, 2 * np.pi)
    X, Y = _nodes(dom)
    lower = base(X, Y)
    upper = lower + gap0 + g1 * 0.5 * (1.0 + np.sin(3.0 * X - Y + s))
    return grids.ScalarField(dom, upper), grids.ScalarField(dom, lower)


class SolveSmallBatch:
    """Ordered boundary-data pairs at 32^2, each solved and compared, all in every round."""

    def __init__(self, seed: int, size: dict, workdir: str):
        rng = np.random.RandomState(seed)
        self.dom = _domain(size["n"])
        self.pairs = [_ordered_pair(self.dom, rng) for _ in range(size["pairs"])]

    def round(self, k: int, t: Tally) -> None:
        for i, phis in enumerate(self.pairs):
            self._pair(t, i, phis)

    def _pair(self, t: Tally, i: int, phis) -> None:
        results = []
        for side, phi in zip(("upper", "lower"), phis):
            label = f"pair {i} {side}"
            with t.op(label):
                res = t.call(solver.continuation_minimize, self.dom, SPEC, phi)
                results.append(res)
                gate_solve(t, res, phi, label)
                t.items += 1
        with t.op(f"pair {i} checks", sample=False):
            for res, phi in zip(results, phis):
                bound = t.call(solver.energy_bound_check, res, SPEC, phi)
                t.gate(bound["passed"], f"pair {i}: energy bound fails {bound}")
            rep = t.call(solver.comparison_check, *results, *phis, SPEC)
            t.gate(not rep["refused"] and rep["passed"], f"pair {i}: comparison fails {rep}")


class CertifySaddle:
    """Saddle xy at 256^2: solve, then certify seeded directions."""

    def __init__(self, seed: int, size: dict, workdir: str):
        rng = np.random.RandomState(seed)
        self.dom = _domain(size["n"])
        X, Y = _nodes(self.dom)
        self.phi = grids.ScalarField(self.dom, X * Y)
        self.singular_every = size["singular_every"]
        self.directions = [_direction(self.dom, rng) for _ in range(size["directions"])]

    def round(self, k: int, t: Tally) -> None:
        dom = self.dom
        res = sing = mu = None
        with t.op("saddle solve", sample=False):
            res = t.call(solver.continuation_minimize, dom, SPEC, self.phi)
            gate_solve(t, res, self.phi, "saddle solve")
            t.gate(abs(res.energy - 4.0) / 4.0 <= 0.01, f"saddle energy {res.energy!r} is not 4")
            sing = t.call(grids.singular_set, res.u, SPEC).mask
            mu, _ = t.call(grids.field_to_measure, res.u, SPEC)
        with t.op("angle condition", sample=False):
            curves = t.call(variation.angle_condition, res.u, SPEC)
            t.gate(len(curves) == 1, f"{len(curves)} singular curves, expected 1")
            t.gate(all(r <= 5.0 * dom.h_max for _, r in curves),
                   f"angle residuals {[r for _, r in curves]} above 5h")
        for j, d in enumerate(self.directions):
            with t.op(f"direction {j}"):
                self._certify(t, res, sing, d, f"direction {j}")
                t.items += 1
            # a kink search costs ten times a certification: kept out of the
            # per-direction samples so that their distribution stays unimodal
            if j % self.singular_every == 0:
                with t.op(f"kinks {j}", sample=False):
                    self._kinks(t, mu, d, f"direction {j}")

    def _certify(self, t: Tally, res, sing, d, label: str) -> None:
        dom = self.dom
        rep = t.call(variation.minimizer_first_variation, res.u, SPEC, d)
        gate_sandwich(t, rep, label)
        fm, fp = rep.Fprime_minus, rep.Fprime_plus
        gx, gy = _cell_gradient(d.phi.values, dom)
        jump = 2.0 * float(np.sum(np.hypot(gx, gy)[sing])) * dom.cell_volume
        t.gate(abs((fp - fm) - jump) <= 1e-12, f"{label}: jump identity off by {(fp - fm) - jump:.3e}")
        for mode in ("area", "riemannian"):
            sv = t.call(variation.second_variation_graph, res.u, SPEC, d, mode)
            t.gate(math.isfinite(sv) and sv >= 0.0, f"{label}: {mode} second variation {sv!r}")
        # E is convex and its one-sided slopes lie in [F'(0-), F'(0+)], so
        # the difference quotients must too, up to the step's curvature term
        fd = t.call(variation.fd_validate, res.u, SPEC, d)
        row = min(fd["rows"], key=lambda r: r["h"])
        slack = 1e-3 * (1.0 + max(abs(fm), abs(fp)))
        t.gate(fm - slack <= row["q_minus"] <= row["q_plus"] <= fp + slack,
               f"{label}: quotients {row['q_minus']!r}, {row['q_plus']!r} outside [{fm!r}, {fp!r}]")
        fdr = t.call(variation.fd_validate, res.u, SPEC, d, mode="riemannian")
        row = max(fdr["rows"], key=lambda r: r["h"])
        t.gate(row["err_second"] / (1.0 + abs(fdr["analytic_second"])) <= 1e-2,
               f"{label}: lifted second quotient off by {row['err_second']!r}")

    def _kinks(self, t: Tally, mu, d, label: str) -> None:
        eps = t.call(lambda: measures.singular_epsilons(mu, d.measure()))
        t.counts["singular_entries"] += mu.n_cells + len(mu.atoms)
        arr = np.asarray(eps)
        t.gate(arr.size > 0 and np.all(np.isfinite(arr)) and np.all(np.diff(arr) > 0)
               and 0.0 in eps, f"{label}: kink parameters {eps[:5]} malformed")
        for e in eps[:3]:
            lo, hi = measures.first_variation_pm(mu, d.measure(), e)
            t.gate(hi - lo > 1e-13, f"{label}: no kink at eps={e!r}")


def _expression(rng) -> tuple[str, dict]:
    """A seeded smooth field as a CLI expression plus its coefficients."""
    c = (0.5 * rng.randn(5)).tolist()
    k = rng.uniform(0.5, 1.5, 2).tolist()
    p = rng.uniform(0.0, 2 * np.pi, 2).tolist()
    expr = (f"{c[0]!r} + {c[1]!r}*x + {c[2]!r}*y + {c[3]!r}*x*y"
            f" + {c[4]!r}*sin({k[0]!r}*x + {p[0]!r})*cos({k[1]!r}*y + {p[1]!r})")
    return expr, {"c": c, "k": k, "p": p}


def _field_jet(q: dict, x, y):
    """Value and derivatives (u, ux, uy, uxx, uyy, uxy) of an `_expression` field."""
    c, k, p = q["c"], q["k"], q["p"]
    s, co = np.sin(k[0] * x + p[0]), np.cos(k[0] * x + p[0])
    t, ct = np.sin(k[1] * y + p[1]), np.cos(k[1] * y + p[1])
    u = c[0] + c[1] * x + c[2] * y + c[3] * x * y + c[4] * s * ct
    ux = c[1] + c[3] * y + c[4] * k[0] * co * ct
    uy = c[2] + c[3] * x - c[4] * k[1] * s * t
    uxx = -c[4] * k[0] ** 2 * s * ct
    uyy = -c[4] * k[1] ** 2 * s * ct
    uxy = c[3] - c[4] * k[0] * k[1] * co * t
    return u, ux, uy, uxx, uyy, uxy


class CliFields:
    """In-process `areavar area` (three kinds) and `curvature` (two operators) calls."""

    COMMANDS = (("area", "euclidean"), ("area", "heisenberg"), ("area", "intrinsic"),
                ("curvature", "euclidean"), ("curvature", "horizontal"))

    def __init__(self, seed: int, size: dict, workdir: str):
        rng = np.random.RandomState(seed)
        self.seed = seed
        self.n = size["n"]
        self.dom = _domain(self.n)
        self.jobs = []
        for command, variant in self.COMMANDS:
            expr, q = _expression(rng)
            key = "kind" if command == "area" else "operator"
            cfg = {"domain": {"extents": [list(e) for e in SQUARE], "n_cells": [self.n, self.n]},
                   key: variant, "field": {"expression": expr}}
            out = os.path.join(workdir, f"{command}-{variant}")
            os.makedirs(out, exist_ok=True)
            path = os.path.join(out, "config.json")
            with open(path, "w") as fh:
                json.dump(cfg, fh)
            self.jobs.append((command, variant, q, path, out))

    def round(self, k: int, t: Tally) -> None:
        for command, variant, q, path, out in self.jobs:
            label = f"{command} {variant}"
            with t.op(label):
                code = t.call(cli.main, [command, "--config", path, "--out", out, "--seed", str(self.seed)])
                t.gate(code == 0, f"{label}: exit code {code}")
                if code == 0:
                    check = self._check_area if command == "area" else self._check_curvature
                    check(t, variant, q, out, label)
                t.items += self.n * self.n

    def _load(self, out: str, name: str):
        data = np.loadtxt(os.path.join(out, name), delimiter=",", skiprows=1)
        with open(os.path.join(out, "report.json")) as fh:
            report = json.load(fh)
        return data[:, 4].reshape(self.n, self.n), report

    def _check_area(self, t: Tally, kind: str, q: dict, out: str, label: str) -> None:
        dens, report = self._load(out, "density.csv")
        dom = self.dom
        X, Y = _nodes(dom)
        v = _field_jet(q, X, Y)[0]
        gx, gy = _cell_gradient(v, dom)
        xc, yc = _centers(dom)
        if kind == "euclidean":
            oracle = np.sqrt(1.0 + gx * gx + gy * gy)
        elif kind == "heisenberg":
            oracle = np.hypot(yc - gx, xc + gy)
        else:
            avg = 0.25 * (v[:-1, :-1] + v[1:, :-1] + v[:-1, 1:] + v[1:, 1:])
            oracle = np.sqrt((gx - 2.0 * avg * gy) ** 2 + 1.0)
        err = float(np.max(np.abs(dens - oracle) / (1.0 + oracle)))
        t.gate(err <= 1e-12, f"{label}: density off the closed form by {err:.3e}")
        t.gate(report["cells"] == self.n * self.n and report["max_density"] == float(dens.max()),
               f"{label}: report disagrees with the CSV")

    def _check_curvature(self, t: Tally, operator: str, q: dict, out: str, label: str) -> None:
        curv, report = self._load(out, "curvature.csv")
        valid = np.isfinite(curv)
        interior = (self.n - 2) ** 2
        t.gate(valid.sum() >= 0.8 * interior, f"{label}: only {int(valid.sum())} cells valid")
        if operator == "euclidean":
            xc, yc = _centers(self.dom)
            _, ux, uy, uxx, uyy, uxy = _field_jet(q, xc, yc)
            w = np.sqrt(1.0 + ux * ux + uy * uy)
            exact = ((1.0 + uy * uy) * uxx - 2.0 * ux * uy * uxy + (1.0 + ux * ux) * uyy) / w**3
            err = float(np.max(np.abs(curv - exact)[valid]))
            t.gate(err <= 0.04, f"{label}: curvature off the closed form by {err:.3e}")
        else:
            # The analytic horizontal curvature is no oracle here: the scheme's
            # O(h^2) truncation error grows like 1/|grad u + F|^3 and reaches
            # 0.17 at 128^2 on some seeded fields.  The discrete operator is:
            # central differences of the unit field (grad u + F)/|grad u + F|.
            dom = self.dom
            X, Y = _nodes(dom)
            gx, gy = _cell_gradient(_field_jet(q, X, Y)[0], dom)
            xc, yc = _centers(dom)
            m1, m2 = gx - yc, gy + xc
            r = np.hypot(m1, m2)
            n1, n2 = m1 / r, m2 / r
            hx, hy = dom.spacing
            oracle = np.full_like(curv, np.nan)
            oracle[1:-1, 1:-1] = ((n1[2:, 1:-1] - n1[:-2, 1:-1]) / (2.0 * hx)
                                  + (n2[1:-1, 2:] - n2[1:-1, :-2]) / (2.0 * hy))
            err = float(np.max(np.abs(curv - oracle)[valid] / (1.0 + np.abs(oracle[valid]))))
            t.gate(err <= 1e-8, f"{label}: curvature off the discrete operator by {err:.3e}")
        t.gate(report["valid_cells"] == int(valid.sum()), f"{label}: report disagrees with the CSV")


WORKLOADS = {
    "solve_large": SolveLarge,
    "solve_small_batch": SolveSmallBatch,
    "certify_saddle": CertifySaddle,
    "cli_fields": CliFields,
}
