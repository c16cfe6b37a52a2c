"""In-memory span recorder that times calls into areavar's public functions.

The benchmark measures each package module (layer) from outside: it replaces
a public function by a timing wrapper in every areavar module that holds it
by name, so calls between layers are seen as well as the benchmark's own
calls.  Spans (name, start, end, parent) are kept in memory while a timed
segment is open and written out once, when the run ends.
"""
from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

# The public functions timed in a traced run, by layer.  Every per-layer
# metric in BENCHMARK.json is derived from spans of these names.
TRACED = {
    "measures": ("first_variation_pm", "second_variation", "line_energy", "singular_epsilons"),
    "grids": ("area_energy", "singular_set", "field_to_measure", "gradient", "write_cell_csv"),
    "solver": (
        "continuation_minimize", "solve_regularized", "harmonic_extension",
        "comparison_check", "energy_bound_check",
    ),
    "variation": (
        "minimizer_first_variation", "second_variation_graph", "fd_validate", "angle_condition",
    ),
    "geometry": ("graph_area_density", "mean_curvature_euclidean", "p_mean_curvature"),
    "cli": ("main",),
}


def replace_everywhere(original, replacement) -> list[tuple[object, str, object]]:
    """Rebind `original` to `replacement` in every loaded areavar module.

    Returns the patches, for `restore`.
    """
    patches = []
    for key, mod in list(sys.modules.items()):
        if key != "areavar" and not key.startswith("areavar."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                patches.append((mod, attr, original))
    return patches


def restore(patches) -> None:
    for mod, attr, original in patches:
        setattr(mod, attr, original)


class Recorder:
    """Collects spans of wrapped calls; records only while `active` is set."""

    def __init__(self):
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.active = False
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        rec = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            idx = len(rec.names)
            rec.names.append(name)
            rec.parent.append(rec._stack[-1] if rec._stack else -1)
            rec.start.append(0.0)
            rec.end.append(0.0)
            rec._stack.append(idx)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec.end[idx] = perf_counter()
                rec.start[idx] = t0
                rec._stack.pop()

        return timed

    def install(self) -> None:
        """Replace each traced function in every loaded areavar module."""
        if self._patches:
            return
        for layer, fnames in TRACED.items():
            home = sys.modules[f"areavar.{layer}"]
            for fname in fnames:
                original = getattr(home, fname)
                self._patches += replace_everywhere(original, self.wrap(f"{layer}.{fname}", original))

    def uninstall(self) -> None:
        restore(self._patches)
        self._patches.clear()

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: total seconds, self seconds and call count.

        Self time is a span's duration minus the durations of its direct
        children; calls are sequential, so children never overlap.
        """
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * len(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        out: dict[str, dict[str, float]] = {}
        for i, name in enumerate(self.names):
            t = out.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
            t["s"] += dur[i]
            t["self_s"] += dur[i] - child[i]
            t["calls"] += 1
        return out

    def write(self, path, meta: dict) -> None:
        """Write the spans as a trace artifact, times relative to the first span."""
        table = sorted(set(self.names))
        ids = {n: k for k, n in enumerate(table)}
        t0 = self.start[0] if self.start else 0.0
        spans = [
            [ids[n], round(s - t0, 9), round(e - t0, 9), p]
            for n, s, e, p in zip(self.names, self.start, self.end, self.parent)
        ]
        with open(path, "w") as fh:
            json.dump({"meta": meta, "names": table,
                       "columns": ["name", "start_s", "end_s", "parent"], "spans": spans}, fh)
