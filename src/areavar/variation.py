"""First and second variation of the area energy at solved fields.

The bridge between grid fields and measure calculus: a solution u induces
the measure (grad u + F) dx with its singular cells zeroed, a test function
phi vanishing on the boundary induces the direction measure (grad phi) dx,
and the one-sided derivatives / curvature of eps -> F(u + eps*phi) come out
of the measure formulas exactly.  Singular sets are always detected at
singular_set's default threshold.  Finite differencing of the grid energy is
kept here only as a validation oracle (fd_validate), whose analytic values
are those of minimizer_first_variation and second_variation_graph.  The
2-component contractions of cell arrays use util.dot2, which gives
np.einsum's bits; the measure formulas themselves stay in the measures
module.

Each quantity of a solved field along a direction is computed once: a
SolvedField asked under its own spec keeps one direction slot (grids._kept,
keyed on the direction's read-only values) holding the VariationReport, the
area-mode second variation and the lifted first and second variations of
the last direction asked about, and grad phi until those three are kept.
It also keeps its own area energy and lifted area, the difference
quotients' base values.  A plain ScalarField, or another spec object,
computes each call afresh.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
from scipy import ndimage

from . import measures
from .grids import (
    EnergySpec,
    ScalarField,
    _kept,
    _line_energies,
    area_energy,
    field_to_measure,
    gradient,
    gradient_measure,
    singular_set,
)
from .measures import VariationReport, VectorMeasure
from .util import dot2, pairwise_sum, rotate_quarter


@dataclass(frozen=True)
class DirectionField:
    """A variation direction: nodal data vanishing exactly on the boundary.

    Frozen, and phi's values are marked read-only at construction, so what
    a solved field keeps along a direction cannot go stale.
    """

    phi: ScalarField

    def __post_init__(self):
        b = self.phi.values[self.phi.dom.boundary_mask()]
        if np.any(b != 0.0):
            raise ValueError("direction field must vanish exactly on boundary nodes")
        self.phi.values.flags.writeable = False

    def measure(self) -> measures.VectorMeasure:
        return gradient_measure(self.phi)

    @staticmethod
    def from_function(dom, fn) -> "DirectionField":
        f = ScalarField.from_function(dom, fn)
        vals = f.values.copy()
        vals[dom.boundary_mask()] = 0.0
        return DirectionField(ScalarField(dom, vals))


@dataclass
class SingularCurve:
    """A chain of singular cells with one-sided unit fields along it.

    points    -- (K, 2) physical chain coordinates (one per grid slice)
    tau       -- (K', 2) unit tangents at the interior chain points
    nu_plus   -- (K', 2) one-sided unit field limit on the tangent's right
    nu_minus  -- (K', 2) limit on the left side
    dots      -- (K', 2) the two projections (e1+ . tau, e1- . tau)
    """

    cells: list
    points: np.ndarray
    tau: np.ndarray
    nu_plus: np.ndarray
    nu_minus: np.ndarray
    dots: np.ndarray
    nu_mismatch: float
    low_confidence: bool


def _h_term(spec: EnergySpec, f: ScalarField) -> float:
    """The bulk term sum(H * cell average of f) * cell volume; 0.0 for a
    scalar H = 0, skipped as in grids.area_energy."""
    H = spec._bulk_H(f.dom)
    if H is None:
        return 0.0
    return pairwise_sum((H * f.cell_average()).ravel() * f.dom.cell_volume)


def _area_second(m: np.ndarray, sing: np.ndarray, gphi: np.ndarray, vol: float) -> float:
    """Area-mode second variation from per-cell m = grad u + F, mask and grad phi."""
    m2 = dot2(m, m)
    g2 = dot2(gphi, gphi)
    dot = dot2(gphi, m)
    safe = np.where(sing, 1.0, m2)
    terms = np.where(sing, 0.0, (safe * g2 - dot * dot) / np.sqrt(safe) ** 3)
    return pairwise_sum(np.maximum(terms, 0.0).ravel() * vol)


def _lifted_variations(gu: np.ndarray, gphi: np.ndarray, vol: float) -> tuple[float, float]:
    """First and second variation of the lifted graph area along phi, from
    the cell gradients of u and phi."""
    g2 = dot2(gphi, gphi)
    u2 = dot2(gu, gu)
    dot = dot2(gphi, gu)
    W = np.sqrt(1.0 + u2)
    first = pairwise_sum((dot / W).ravel() * vol)
    terms = (g2 * (1.0 + u2) - dot * dot) / W**3
    return first, pairwise_sum(np.maximum(terms, 0.0).ravel() * vol)


def _same_grid(u: ScalarField, direction: DirectionField) -> None:
    if direction.phi.dom != u.dom:
        raise ValueError("direction lives on a different grid")


# the slot's quantities formed from grad phi
_FROM_GRAD_PHI = {"report", "area_second", "lifted"}


def _along(u: ScalarField, spec: EnergySpec, direction: DirectionField, name: str,
           compute: Callable):
    """compute(), the quantity `name` of u along direction.

    u's direction slot is kept under u's own spec and keyed on phi's
    read-only values: while one direction is asked about, each quantity is
    computed once; another direction replaces the slot.  grad phi is
    dropped from it once the three closed forms made from it are kept.
    """
    slot = _kept(u, "direction", dict, spec, key=direction.phi.values)
    if name not in slot:
        slot[name] = compute()
        if _FROM_GRAD_PHI <= slot.keys():
            slot.pop("grad_phi", None)
    return slot[name]



def _grad_phi(u: ScalarField, spec: EnergySpec, direction: DirectionField) -> np.ndarray:
    return _along(u, spec, direction, "grad_phi", lambda: gradient(direction.phi).values)


def _lifted_pair(u: ScalarField, spec: EnergySpec, direction: DirectionField
                 ) -> tuple[float, float]:
    return _along(u, spec, direction, "lifted", lambda: _lifted_variations(
        gradient(u).values, _grad_phi(u, spec, direction), u.dom.cell_volume))


def _lifted_area(u: ScalarField) -> float:
    """The lifted graph area of u; kept on a SolvedField."""
    return _kept(u, "lifted_area", lambda: _line_energies(u, None)[0])


def minimizer_first_variation(
    u: ScalarField, spec: EnergySpec, direction: DirectionField
) -> VariationReport:
    """One-sided derivatives of eps -> F(u + eps*phi) at eps = 0.

    The area part comes from the measure formulas (smooth term plus the
    one-sided singular-set term), the bulk part contributes the exact
    linear term integral of H*phi.  For a minimizer the report satisfies
    Fprime_minus <= tol <= ... <= Fprime_plus up to the scale-free
    tolerance 1e-4 * (1 + F(0)); this function only reports, the caller
    asserts.  The report is measures.line_variation at eps = 0 with the
    bulk terms of u (in F_value) and of phi (in both slopes) added.
    """
    _same_grid(u, direction)
    return _along(u, spec, direction, "report", lambda: _first_variation(u, spec, direction))


def _first_variation(u: ScalarField, spec: EnergySpec, direction: DirectionField
                     ) -> VariationReport:
    mu, _ = field_to_measure(u, spec)
    # direction.measure(), on mu's equal weights and the slot's grad phi
    nu = VectorMeasure(mu.dimension, mu.cell_weights,
                       _grad_phi(u, spec, direction).reshape(mu.n_cells, mu.dimension))
    rep = measures.line_variation(mu, nu, 0.0)
    ht = _h_term(spec, direction.phi)
    return replace(rep, F_value=rep.F_value + _h_term(spec, u),
                   Fprime_minus=rep.Fprime_minus + ht, Fprime_plus=rep.Fprime_plus + ht)


def second_variation_graph(
    u: ScalarField, spec: EnergySpec, direction: DirectionField, mode: str = "area"
) -> float:
    """Closed-form second variation of the graph energy along phi.

    mode="area": sum over non-singular cells of
        (|m|^2 |grad phi|^2 - (m . grad phi)^2) / |m|^3 * w,  m = grad u + F.
    mode="riemannian": the lifted graph-area version, every cell counts:
        (|grad phi|^2 (1 + |grad u|^2) - (grad phi . grad u)^2) / W^3 * w.
    Both are nonnegative (Cauchy's inequality) and agree with the measure
    second variation of the corresponding lifted measures.
    """
    _same_grid(u, direction)
    if mode == "riemannian":
        return _lifted_pair(u, spec, direction)[1]
    if mode != "area":
        raise ValueError(f"unknown mode {mode!r}")

    def area_second() -> float:
        ss = singular_set(u, spec)
        return _area_second(ss.drift, ss.mask, _grad_phi(u, spec, direction), u.dom.cell_volume)

    return _along(u, spec, direction, "area_second", area_second)


def fd_validate(
    u: ScalarField,
    spec: EnergySpec,
    direction: DirectionField,
    h_list=(1e-3, 1e-4, 1e-5),
    mode: str = "area",
) -> dict:
    """Difference quotients of the grid energy against the closed formulas.

    Tabulates one-sided first quotients and the central second quotient of
    eps -> E(u + eps*phi) for each step in h_list, together with the
    analytic values and observed convergence orders.  In "riemannian" mode
    the energy is the lifted graph area; in "area" mode it is the grid
    energy of the given spec (including its H term).  The analytic values
    are those of minimizer_first_variation and second_variation_graph (the
    lifted first variation from the same kept pair), and E(u) is u's own
    energy, which is bitwise E(u + 0*phi).  Every step must be finite and
    positive; the steps are checked before anything is evaluated.
    """
    _same_grid(u, direction)
    steps = tuple(h_list)
    if not all(math.isfinite(h) and h > 0 for h in steps):
        raise ValueError("steps must be finite and positive")

    if mode == "riemannian":
        fp, analytic_second = _lifted_pair(u, spec, direction)
        fm = fp
        E0, energy_spec = _lifted_area(u), None
    elif mode == "area":
        rep = minimizer_first_variation(u, spec, direction)
        fm, fp = rep.Fprime_minus, rep.Fprime_plus
        analytic_second = second_variation_graph(u, spec, direction, "area")
        E0, energy_spec = area_energy(u, spec), spec
    else:
        raise ValueError(f"unknown mode {mode!r}")

    energies = _line_energies(u, energy_spec, direction.phi.values,
                              [s for h in steps for s in (h, -h)])
    rows = []
    for h, Ep, Em in zip(steps, energies[0::2], energies[1::2]):
        rows.append(
            {
                "h": h,
                "q_plus": (Ep - E0) / h,
                "q_minus": (E0 - Em) / h,
                "q_second": (Ep - 2.0 * E0 + Em) / (h * h),
                "err_plus": abs((Ep - E0) / h - fp),
                "err_minus": abs((E0 - Em) / h - fm),
                "err_second": abs((Ep - 2.0 * E0 + Em) / (h * h) - analytic_second),
            }
        )

    def _orders(key: str) -> list:
        out = []
        for r0, r1 in zip(rows, rows[1:]):
            e0, e1 = r0[key], r1[key]
            if e0 > 0 and e1 > 0 and r1["h"] < r0["h"]:
                out.append(float(np.log(e0 / e1) / np.log(r0["h"] / r1["h"])))
        return out

    return {
        "rows": rows,
        "analytic_plus": fp,
        "analytic_minus": fm,
        "analytic_second": analytic_second,
        "orders_plus": _orders("err_plus"),
        "orders_minus": _orders("err_minus"),
        "orders_second": _orders("err_second"),
    }


# ---- singular-curve geometry -------------------------------------------------


def _unit(v: np.ndarray) -> np.ndarray:
    n = float(np.hypot(v[0], v[1]))
    return v / n if n > 0 else v


def _sample_side(
    N: np.ndarray, sing: np.ndarray, start: tuple[int, int], step: tuple[int, int],
    max_walk: int = 8,
) -> np.ndarray | None:
    """One-sided limit of the unit field: first two non-singular cells in
    the step direction, linearly extrapolated back to the chain."""
    ncx, ncy = sing.shape
    i, j = start
    d1 = None
    for k in range(1, max_walk + 1):
        ii, jj = i + k * step[0], j + k * step[1]
        if not (0 <= ii < ncx and 0 <= jj < ncy):
            return None
        if not sing[ii, jj]:
            d1 = k
            break
    if d1 is None:
        return None
    i2, j2 = i + (d1 + 1) * step[0], j + (d1 + 1) * step[1]
    if not (0 <= i2 < ncx and 0 <= j2 < ncy) or sing[i2, j2]:
        return None
    N1 = N[i + d1 * step[0], j + d1 * step[1]]
    N2 = N[i2, j2]
    return _unit(N1 + float(d1) * (N1 - N2))


def angle_condition(u: ScalarField, spec: EnergySpec) -> list[tuple[SingularCurve, float]]:
    """Incidence/reflection balance along singular curves of a stationary u.

    For each curve-like connected component of the singular set, the unit
    field (grad u + F)/|grad u + F| has one-sided limits nu+ and nu- across
    the curve; rotating each by +90 degrees gives the characteristic
    directions e1+/-, whose projections on the curve tangent must balance:
    residual = |e1+ . tau - e1- . tau| per chain point, reported as the
    maximum along the curve.  Point-like components (fewer than 3 usable
    chain slices) are skipped; chains with gaps, blobs or failed side
    sampling are flagged low-confidence.
    """
    dom = u.dom
    ss = singular_set(u, spec)
    sing, m, norms = ss.mask, ss.drift, ss.norms
    N = np.where(norms[..., None] > 0, m / np.where(norms == 0, 1.0, norms)[..., None], 0.0)
    xc = dom.axis_centers(0)
    yc = dom.axis_centers(1)

    labels, n_comp = ndimage.label(sing, structure=np.ones((3, 3), dtype=int))
    out: list[tuple[SingularCurve, float]] = []
    for comp in range(1, n_comp + 1):
        cells = np.argwhere(labels == comp)
        if len(cells) < 3:
            continue
        span_i = cells[:, 0].max() - cells[:, 0].min()
        span_j = cells[:, 1].max() - cells[:, 1].min()
        low_confidence = False
        # parametrize along the longer axis; a curve needs at least 3 slices
        axis = 1 if span_j >= span_i else 0
        other = 1 - axis
        tvals = np.unique(cells[:, axis])
        if tvals.size < 3:
            continue
        if tvals.size != tvals.max() - tvals.min() + 1:
            low_confidence = True      # gaps along the chain
        points = []
        spine_cells = []
        for t in tvals:
            rows = cells[cells[:, axis] == t][:, other]
            if rows.size > 4:
                low_confidence = True  # blob-like cross-section
            s = float(rows.mean())
            idx = [0.0, 0.0]
            idx[axis] = float(t)
            idx[other] = s
            spine_cells.append((int(round(idx[0])), int(round(idx[1]))))
            points.append(
                [
                    np.interp(idx[0], np.arange(xc.size), xc),
                    np.interp(idx[1], np.arange(yc.size), yc),
                ]
            )
        points = np.asarray(points)

        taus, nps, nms, dots = [], [], [], []
        mismatch = 0.0
        for k in range(1, len(points) - 1):
            tau = _unit(points[k + 1] - points[k - 1])
            normal = np.array([tau[1], -tau[0]])       # right-hand side of tau
            step = (int(np.sign(round(normal[0]))), int(np.sign(round(normal[1]))))
            if step == (0, 0):
                low_confidence = True
                continue
            start = spine_cells[k]
            nu_p = _sample_side(N, sing, start, step)
            nu_m = _sample_side(N, sing, start, (-step[0], -step[1]))
            if nu_p is None or nu_m is None:
                low_confidence = True
                continue
            e1p = rotate_quarter(nu_p)
            e1m = rotate_quarter(nu_m)
            taus.append(tau)
            nps.append(nu_p)
            nms.append(nu_m)
            dots.append([float(e1p @ tau), float(e1m @ tau)])
            mismatch = max(mismatch, float(np.hypot(*(nu_p + nu_m))))
        if not taus:
            continue
        dots = np.asarray(dots)
        curve = SingularCurve(
            cells=[tuple(c) for c in cells],
            points=points,
            tau=np.asarray(taus),
            nu_plus=np.asarray(nps),
            nu_minus=np.asarray(nms),
            dots=dots,
            nu_mismatch=mismatch,
            low_confidence=low_confidence,
        )
        residual = float(np.abs(dots[:, 0] - dots[:, 1]).max())
        out.append((curve, residual))
    return out
