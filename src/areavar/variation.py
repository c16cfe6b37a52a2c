"""First and second variation of the area energy at solved fields.

The bridge between grid fields and measure calculus: a solution u induces
the measure (grad u + F) dx with its singular cells zeroed, a test function
phi vanishing on the boundary induces the direction measure (grad phi) dx,
and the one-sided derivatives / curvature of eps -> F(u + eps*phi) come out
of the measure formulas exactly.  Singular sets are always detected at
singular_set's default threshold.  Finite differencing of the grid energy is
kept here only as a validation oracle (fd_validate).  The 2-component
contractions of cell arrays use util.dot2, which gives np.einsum's bits; the
measure formulas themselves stay in the measures module.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from . import measures
from .grids import (
    EnergySpec,
    ScalarField,
    area_energy,
    field_to_measure,
    gradient,
    gradient_measure,
    singular_set,
)
from .measures import VariationReport
from .util import dot2, pairwise_sum, rotate_quarter


@dataclass
class DirectionField:
    """A variation direction: nodal data vanishing exactly on the boundary."""

    phi: ScalarField

    def __post_init__(self):
        b = self.phi.values[self.phi.dom.boundary_mask()]
        if np.any(b != 0.0):
            raise ValueError("direction field must vanish exactly on boundary nodes")

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
    if np.isscalar(spec.H) and spec.H == 0:
        return 0.0
    dom = f.dom
    H = spec.H_cells(dom)
    return pairwise_sum((H * f.cell_average()).ravel() * dom.cell_volume)


def _area_second(m: np.ndarray, sing: np.ndarray, gphi: np.ndarray, vol: float) -> float:
    """Area-mode second variation from per-cell m = grad u + F, mask and grad phi."""
    m2 = dot2(m, m)
    g2 = dot2(gphi, gphi)
    dot = dot2(gphi, m)
    safe = np.where(sing, 1.0, m2)
    terms = np.where(sing, 0.0, (safe * g2 - dot * dot) / np.sqrt(safe) ** 3)
    return pairwise_sum(np.maximum(terms, 0.0).ravel() * vol)


def _lifted_variations(u: ScalarField, phi: ScalarField) -> tuple[float, float]:
    """First and second variation of the lifted graph area along phi."""
    vol = u.dom.cell_volume
    gu = gradient(u).values
    gphi = gradient(phi).values
    g2 = dot2(gphi, gphi)
    u2 = dot2(gu, gu)
    dot = dot2(gphi, gu)
    W = np.sqrt(1.0 + u2)
    first = pairwise_sum((dot / W).ravel() * vol)
    terms = (g2 * (1.0 + u2) - dot * dot) / W**3
    return first, pairwise_sum(np.maximum(terms, 0.0).ravel() * vol)


def minimizer_first_variation(
    u: ScalarField, spec: EnergySpec, direction: DirectionField
) -> VariationReport:
    """One-sided derivatives of eps -> F(u + eps*phi) at eps = 0.

    The area part comes from the measure formulas (smooth term plus the
    one-sided singular-set term), the bulk part contributes the exact
    linear term integral of H*phi.  For a minimizer the report satisfies
    Fprime_minus <= tol <= ... <= Fprime_plus up to the scale-free
    tolerance 1e-4 * (1 + F(0)); this function only reports, the caller
    asserts.  The measure pair is aligned once, and its entry norms serve
    the energy and both measure kernels: the values are those of
    measures.line_energy, first_variation_pm and second_variation at eps = 0.
    """
    if direction.phi.dom != u.dom:
        raise ValueError("direction lives on a different grid")
    mu, _ = field_to_measure(u, spec)
    z, y, _ = measures._combine(mu, direction.measure(), 0.0)
    nz = measures._entry_norms(z)
    fm, fp = measures._first_pm(z, y, nz)
    ht = _h_term(spec, direction.phi)
    return VariationReport(
        F_value=pairwise_sum(nz) + _h_term(spec, u),
        Fprime_minus=fm + ht,
        Fprime_plus=fp + ht,
        Fsecond=measures._second(z, y, nz),
        epsilon=0.0,
        is_regular=bool(fp - fm <= 1e-14 * (1.0 + abs(fp) + abs(fm))),
    )


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
    if direction.phi.dom != u.dom:
        raise ValueError("direction lives on a different grid")
    if mode == "riemannian":
        return _lifted_variations(u, direction.phi)[1]
    if mode != "area":
        raise ValueError(f"unknown mode {mode!r}")
    ss = singular_set(u, spec)
    return _area_second(ss.drift, ss.mask, gradient(direction.phi).values, u.dom.cell_volume)


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
    are those of minimizer_first_variation and second_variation_graph.
    """
    if direction.phi.dom != u.dom:
        raise ValueError("direction lives on a different grid")
    dom = u.dom
    phi = direction.phi

    if mode == "riemannian":
        def energy_at(eps: float) -> float:
            g = gradient(ScalarField(dom, u.values + eps * phi.values)).values
            dens = np.sqrt(1.0 + dot2(g, g))
            return pairwise_sum(dens.ravel() * dom.cell_volume)

        fp, analytic_second = _lifted_variations(u, phi)
        fm = fp
    elif mode == "area":
        def energy_at(eps: float) -> float:
            return area_energy(ScalarField(dom, u.values + eps * phi.values), spec)

        # u's measure is zeroed exactly on its singular cells
        mu, _ = field_to_measure(u, spec)
        nu = direction.measure()
        ht = _h_term(spec, phi)
        fm, fp = (v + ht for v in measures.first_variation_pm(mu, nu, 0.0))
        m = mu.ac_density
        analytic_second = _area_second(m, ~m.any(axis=1), nu.ac_density, dom.cell_volume)
    else:
        raise ValueError(f"unknown mode {mode!r}")

    E0 = energy_at(0.0)
    rows = []
    for h in h_list:
        if h <= 0:
            raise ValueError("steps must be positive")
        Ep, Em = energy_at(h), energy_at(-h)
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
