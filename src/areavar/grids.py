"""Rectangular grids, the generalized area energy, and singular-set tools.

Scalar unknowns live on grid nodes; gradients, drift fields and energy
densities live at cell centers.  The cell-centered gradient is the average
of the four surrounding forward differences, which is exact on affine
functions — that exactness is the calibration requirement for everything
downstream (plane reproduction, measure consistency).

Every 2-component contraction of cell arrays goes through util.dot2, which
gives np.einsum's bits at a fraction of its cost; the general-d contractions
of the measures module stay einsum.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from .measures import VectorMeasure
from .util import dot2, g17, pairwise_sum, rotate_pairs


@dataclass(frozen=True)
class GridDomain:
    """Axis-aligned box [x0,x1] x [y0,y1] split into n_cells per axis.

    Nodal arrays have shape (nx+1, ny+1), cell arrays (nx, ny), both
    indexed [i, j] with i along the first axis.
    """

    extents: tuple[tuple[float, float], ...]
    n_cells: tuple[int, ...]

    def __post_init__(self):
        if len(self.extents) != 2 or len(self.n_cells) != 2:
            raise ValueError("a grid domain has exactly 2 axes")
        for (lo, hi), n in zip(self.extents, self.n_cells):
            # a finite length implies finite ends; Python floats overflow quietly
            if not math.isfinite(float(hi) - float(lo)):
                raise ValueError("each extent must be finite, with a finite length")
            if not hi > lo:
                raise ValueError("each extent must be a nondegenerate interval")
            if n < 2:
                raise ValueError("need at least 2 cells per axis")

    @property
    def m(self) -> int:
        return 2

    @property
    def spacing(self) -> tuple[float, ...]:
        return tuple(
            (hi - lo) / n for (lo, hi), n in zip(self.extents, self.n_cells)
        )

    @property
    def h_max(self) -> float:
        return max(self.spacing)

    @property
    def cell_volume(self) -> float:
        hx, hy = self.spacing
        return hx * hy

    def axis_nodes(self, k: int) -> np.ndarray:
        lo, hi = self.extents[k]
        return np.linspace(lo, hi, self.n_cells[k] + 1)

    def axis_centers(self, k: int) -> np.ndarray:
        nodes = self.axis_nodes(k)
        return 0.5 * (nodes[:-1] + nodes[1:])

    def node_coords(self) -> tuple[np.ndarray, ...]:
        return tuple(np.meshgrid(self.axis_nodes(0), self.axis_nodes(1), indexing="ij"))

    def center_coords(self) -> tuple[np.ndarray, ...]:
        return tuple(np.meshgrid(self.axis_centers(0), self.axis_centers(1), indexing="ij"))

    def boundary_mask(self) -> np.ndarray:
        nx, ny = self.n_cells
        mask = np.ones((nx + 1, ny + 1), dtype=bool)
        mask[1:-1, 1:-1] = False
        return mask

    @property
    def perimeter(self) -> float:
        (x0, x1), (y0, y1) = self.extents
        return 2.0 * ((x1 - x0) + (y1 - y0))

    @property
    def area(self) -> float:
        (x0, x1), (y0, y1) = self.extents
        return (x1 - x0) * (y1 - y0)


@dataclass
class ScalarField:
    """Nodal scalar data on a grid; boundary trace = values on boundary nodes."""

    dom: GridDomain
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        expected = tuple(n + 1 for n in self.dom.n_cells)
        if self.values.shape != expected:
            raise ValueError(
                f"nodal array has shape {self.values.shape}, expected {expected}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("nodal values must be finite")

    @staticmethod
    def from_function(dom: GridDomain, fn: Callable) -> "ScalarField":
        return ScalarField(dom, fn(*dom.node_coords()) + np.zeros(tuple(n + 1 for n in dom.n_cells)))

    def cell_average(self) -> np.ndarray:
        v = self.values
        return 0.25 * (v[:-1, :-1] + v[1:, :-1] + v[:-1, 1:] + v[1:, 1:])


class SolvedField(ScalarField):
    """A solver's nodal solution: read-only, with the EnergySpec it was
    solved under.

    Its values are marked read-only and no attribute can be rebound, so
    what is derived from them cannot go stale: `gradient`, `area_energy`,
    `singular_set` and `field_to_measure` compute their result for a solved
    field once and keep it (see `_kept`), with every array of that result
    marked read-only as well.  The gradient is kept for any spec; the
    energy, the singular set and the measure only for `spec` itself, the
    same object, at the default tol.  The variation module keeps the
    lifted area here too, and one slot for the last direction it was asked
    about.
    """

    def __init__(self, dom: GridDomain, values: np.ndarray, spec: EnergySpec):
        super().__init__(dom, values)
        self.values.flags.writeable = False
        self.spec = spec
        self._kept = {}

    def __setattr__(self, name, value):
        if "_kept" in self.__dict__:
            raise AttributeError(f"a solved field is read-only: cannot set {name!r}")
        super().__setattr__(name, value)


@dataclass
class VectorField:
    """Cell-centered d-vector data on a grid."""

    dom: GridDomain
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        expected = tuple(self.dom.n_cells)
        if self.values.shape[:-1] != expected:
            raise ValueError(
                f"cell array has shape {self.values.shape}, expected {expected} + (d,)"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("cell values must be finite")

    @property
    def d(self) -> int:
        return self.values.shape[-1]


@dataclass
class CellScalarField:
    """Cell-centered scalar data with a validity mask (True = trustworthy)."""

    dom: GridDomain
    values: np.ndarray
    mask: np.ndarray


# ---- energy specification --------------------------------------------------

_PRESETS = ("zero", "p_area", "minus_X_star", "custom")


@dataclass
class EnergySpec:
    """Drift field F and bulk weight H of the energy  sum(|grad u + F| + H u).

    F is either a named preset or an explicit cell-centered field:
      zero         -- plain area / total-variation energy
      p_area       -- F = (-y, x) in the plane, the horizontal-area drift
                      (alias: minus_X_star)
      custom       -- use the supplied VectorField
    H may be a constant or a per-cell array.
    """

    preset: str = "zero"
    F_field: VectorField | None = None
    H: float | np.ndarray = 0.0

    def __post_init__(self):
        if self.preset not in _PRESETS:
            raise ValueError(f"unknown preset {self.preset!r}; use one of {_PRESETS}")
        if self.preset == "custom" and (self.F_field is None or self.F_field.d != 2):
            raise ValueError("preset 'custom' requires an F_field with 2 components")

    def F_cells(self, dom: GridDomain) -> np.ndarray:
        """Drift evaluated at cell centers, shape (*n_cells, 2)."""
        return self.F_at(dom, dom.axis_centers(0)[:, None], dom.axis_centers(1)[None, :])

    def F_at(self, dom: GridDomain, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Drift at points given per cell, shape (ncx, ncy, ..., 2): the
        components of `_F_parts`, stacked."""
        return np.stack(self._F_parts(dom, x, y), axis=-1)

    def _F_parts(self, dom: GridDomain, x: np.ndarray, y: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray]:
        """The drift's two components at points given per cell, each of
        shape (ncx, ncy, ...).

        x and y must broadcast to a shape (ncx, ncy, ...) whose entry
        [i, j, ...] lies in cell (i, j).  Analytic presets evaluate exactly
        at each point; a custom field is constant on each cell, so its cell
        value is broadcast to every point of that cell.  Each component is
        a read-only broadcast view: of zero, of -y or x, or of the custom
        field's cell values, so points given as (ncx, 1, G) and (1, ncy, G)
        arrays cost no array of the full shape.
        """
        shape = np.broadcast_shapes(np.shape(x), np.shape(y))
        if shape[:2] != tuple(dom.n_cells):
            raise ValueError(
                f"points of shape {shape} are not given per cell of a {dom.n_cells} grid"
            )
        if self.preset == "zero":
            zero = np.broadcast_to(0.0, shape)
            return zero, zero
        if self.preset in ("p_area", "minus_X_star"):
            # -X* with X* = (y, -x): (x, y) -> (-y, x)
            return np.broadcast_to(-np.asarray(y), shape), np.broadcast_to(x, shape)
        f = self.F_field
        if f.dom != dom:
            raise ValueError("custom drift lives on a different grid")
        per_cell = f.values.reshape(f.values.shape[:2] + (1,) * (len(shape) - 2) + (2,))
        return (np.broadcast_to(per_cell[..., 0], shape),
                np.broadcast_to(per_cell[..., 1], shape))

    def H_cells(self, dom: GridDomain) -> np.ndarray:
        if np.isscalar(self.H):
            return np.full(tuple(dom.n_cells), float(self.H))
        H = np.asarray(self.H, dtype=np.float64)
        if H.shape != tuple(dom.n_cells):
            raise ValueError("per-cell H has the wrong shape")
        return H

    def _bulk_H(self, dom: GridDomain) -> np.ndarray | None:
        """H_cells, or None for a scalar H = 0: its bulk term would only add
        +-0 to every cell, so every energy skips it."""
        if np.isscalar(self.H) and self.H == 0:
            return None
        return self.H_cells(dom)


# ---- core operations --------------------------------------------------------


def _kept(u: ScalarField, name: str, compute: Callable, spec: EnergySpec | None = None,
          tol: float = 1.0, key: object = None):
    """compute(), the result `name` of the field u.

    On a SolvedField asked under its own spec (the same object; None for a
    result that does not depend on one) at the default tol, it is computed
    once per key, its arrays are marked read-only, and it is kept on u with
    that key: asked again with the same key object it comes back as kept,
    asked with another it is computed afresh and replaces the kept one.
    Every other field, spec or tol gets it computed afresh.
    """
    if not isinstance(u, SolvedField) or tol != 1.0 or (spec is not None and spec is not u.spec):
        return compute()
    kept = u._kept.get(name)
    if kept is None or kept[0] is not key:
        result = compute()
        for part in result if isinstance(result, tuple) else (result,):
            for a in getattr(part, "__dict__", {}).values():
                if isinstance(a, np.ndarray):
                    a.flags.writeable = False
        kept = u._kept[name] = (key, result)
    return kept[1]


def gradient(u: ScalarField) -> VectorField:
    """Cell-centered gradient: average of the four forward differences.

    Exact for affine nodal data on any grid.  Kept on a SolvedField.
    """
    shape = tuple(u.dom.n_cells)
    return _kept(u, "gradient", lambda: VectorField(
        u.dom, _gradient(u.dom, u.values, np.empty(shape + (2,)), np.empty(shape))))


def _gradient(dom: GridDomain, v: np.ndarray, g: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The cell gradient of the nodal values v, written into g (shape
    (nx, ny, 2)) through the scratch array t (shape (nx, ny)); returns g."""
    hx, hy = dom.spacing
    # gx = (v[1:, :-1] - v[:-1, :-1] + v[1:, 1:] - v[:-1, 1:]) / (2 hx) and
    # gy = (v[:-1, 1:] - v[:-1, :-1] + v[1:, 1:] - v[1:, :-1]) / (2 hy),
    # evaluated left to right
    np.subtract(v[1:, :-1], v[:-1, :-1], out=t)
    t += v[1:, 1:]
    t -= v[:-1, 1:]
    np.divide(t, 2.0 * hx, out=g[..., 0])
    np.subtract(v[:-1, 1:], v[:-1, :-1], out=t)
    t += v[1:, 1:]
    t -= v[1:, :-1]
    np.divide(t, 2.0 * hy, out=g[..., 1])
    return g


def area_energy(u: ScalarField, spec: EnergySpec) -> float:
    """Midpoint quadrature of  |grad u + F| + H * u  over the domain.

    The cell average of the four corner values stands in for u in the bulk
    term, consistent with the cell-centered gradient.  A scalar H = 0 skips
    the bulk term: it would add +-0 to every cell.  Kept on a SolvedField
    for its own spec.
    """
    return _kept(u, "area_energy", lambda: _line_energies(u, spec)[0], spec)


def _line_energies(u: ScalarField, spec: EnergySpec | None, phi: np.ndarray | None = None,
                   steps: Iterable[float] = (0.0,)) -> list[float]:
    """The midpoint energies of the nodal values u + s * phi, one per s in
    steps; with phi None, the one energy of u itself, from its gradient.

    With an EnergySpec the energy is area_energy's; with spec None it is
    the lifted graph area, the sum of sqrt(1 + |grad v|^2) * cell volume.
    One set of buffers serves every step and the drift at the cell centres
    is formed once.  Each u + s * phi is checked finite, and so is its
    gradient, as a ScalarField and a VectorField check theirs.
    """
    dom = u.dom
    shape = tuple(dom.n_cells)
    m = np.empty(shape + (2,))
    dens = np.empty(shape)
    # the drift as F_cells forms it, in two views that allocate nothing
    F = None if spec is None else spec._F_parts(dom, dom.axis_centers(0)[:, None],
                                                 dom.axis_centers(1)[None, :])
    H = None if spec is None else spec._bulk_H(dom)
    v = u.values if phi is None else np.empty_like(u.values)
    out = []
    for s in steps:
        if phi is None:
            g = gradient(u).values
        else:
            g = m
            np.multiply(phi, s, out=v)
            v += u.values
            _gradient(dom, v, g, dens)
            if not np.isfinite(g).all():
                raise ValueError("nodal values must be finite" if not np.isfinite(v).all()
                                 else "cell values must be finite")
        if F is not None:
            for k in (0, 1):
                np.add(g[..., k], F[k], out=m[..., k])
            g = m
        # dens = dot2(g, g), then the density
        with np.errstate(over="ignore", invalid="ignore"):
            np.multiply(g, g, out=m)
            np.add(m[..., 0], m[..., 1], out=dens)
        if F is None:
            dens += 1.0
        np.sqrt(dens, out=dens)
        if H is not None:
            # H times the cell average of v, formed in m's first component
            t = m[..., 0]
            np.add(v[:-1, :-1], v[1:, :-1], out=t)
            t += v[:-1, 1:]
            t += v[1:, 1:]
            t *= 0.25
            t *= H
            dens += t
        dens *= dom.cell_volume
        out.append(pairwise_sum(dens))
    return out


@dataclass(frozen=True)
class SingularSet:
    """Cells where |grad u + F| falls below the detection threshold, with
    the cell values of grad u + F and of |grad u + F| it thresholded."""

    mask: np.ndarray          # (nx, ny) bool
    measure: float            # count * cell volume
    threshold: float
    drift: np.ndarray         # (nx, ny, 2) grad u + F
    norms: np.ndarray         # (nx, ny) |grad u + F|


def singular_set(u: ScalarField, spec: EnergySpec, tol: float = 1.0) -> SingularSet:
    """Detect the near-vanishing set of grad u + F.

    The threshold is tol * h * max(median |grad u + F|, h) with h the
    largest spacing: a cell is flagged when its density is at most one
    cell's worth of variation of a typical density.  A small relative slack
    keeps cells sitting exactly at the threshold (the generic situation for
    piecewise-linear fields) robust against roundoff in the solver output.
    With tol = 0 only exact zeros are flagged.  Kept on a SolvedField for
    its own spec at the default tol.
    """
    if tol < 0:
        raise ValueError("tol must be >= 0")
    return _kept(u, "singular_set", lambda: _singular_set(u, spec, tol), spec, tol)


def _singular_set(u: ScalarField, spec: EnergySpec, tol: float) -> SingularSet:
    dom = u.dom
    m = gradient(u).values + spec.F_cells(dom)
    norms = np.sqrt(dot2(m, m))
    h = dom.h_max
    med = float(np.median(norms))
    threshold = tol * h * max(med, h)
    mask = norms <= threshold * (1.0 + 1e-4)
    return SingularSet(mask=mask, measure=float(mask.sum()) * dom.cell_volume,
                       threshold=threshold, drift=m, norms=norms)


def field_to_measure(
    u: ScalarField, spec: EnergySpec, tol: float = 1.0
) -> tuple[VectorMeasure, VectorMeasure]:
    """Vector measure with densities grad u + F, zeroed on the singular set.

    Zeroing makes the singular cells genuinely off-support, so that the
    decomposition of a direction measure against this one sends direction
    mass on those cells to the mutually singular remainder.  Also returns a
    zero measure on the same complex as a template for building directions:
    it shares the first's weights, and its density is a read-only broadcast
    zero that allocates nothing.  Both are kept on a SolvedField for its own
    spec at the default tol.
    """
    return _kept(u, "measure", lambda: _field_to_measure(u, spec, tol), spec, tol)


def _field_to_measure(
    u: ScalarField, spec: EnergySpec, tol: float
) -> tuple[VectorMeasure, VectorMeasure]:
    dom = u.dom
    sing = singular_set(u, spec, tol)
    m = sing.drift.copy()
    m[sing.mask] = 0.0
    n = m.shape[0] * m.shape[1]
    weights = np.full(n, dom.cell_volume)
    mu = VectorMeasure(dom.m, weights, m.reshape(n, dom.m))
    template = VectorMeasure(dom.m, weights, np.broadcast_to(0.0, (n, dom.m)))
    return mu, template


def gradient_measure(phi: ScalarField) -> VectorMeasure:
    """The measure (grad phi) dx on the cell complex (no zeroing)."""
    dom = phi.dom
    g = gradient(phi).values
    n = g.shape[0] * g.shape[1]
    weights = np.full(n, dom.cell_volume)
    return VectorMeasure(dom.m, weights, g.reshape(n, dom.m))


def hypothesis_checks(
    dom: GridDomain, spec: EnergySpec, f_list: list[ScalarField] | None = None
) -> dict:
    """Check the structural hypotheses on the drift field.

    * gradient compatibility: each component relation d_K F_I = d_I f_K
      against user-supplied potentials f_K, by central differences on
      interior cells;
    * positivity of the divergence of the rotated drift (F_2, -F_1), the
      quantity whose sign drives the comparison principle.
    """
    F = spec.F_cells(dom)
    hx, hy = dom.spacing

    def _central_dx(c):
        return (c[2:, 1:-1] - c[:-2, 1:-1]) / (2.0 * hx)

    def _central_dy(c):
        return (c[1:-1, 2:] - c[1:-1, :-2]) / (2.0 * hy)

    report: dict = {}
    if f_list is not None:
        if len(f_list) != dom.m:
            raise ValueError(f"need {dom.m} potential candidates, got {len(f_list)}")
        resid = 0.0
        dF = [
            [_central_dx(F[..., i]) for i in range(2)],
            [_central_dy(F[..., i]) for i in range(2)],
        ]
        for k, f in enumerate(f_list):
            gf = gradient(f).values
            for i in range(2):
                diff = dF[k][i] - gf[1:-1, 1:-1, i]
                resid = max(resid, float(np.abs(diff).max()))
        report["gradient_compat_residual"] = resid
        report["gradient_compat_ok"] = resid <= 1e-10

    Fstar = rotate_pairs(F)
    div = _central_dx(Fstar[..., 0]) + _central_dy(Fstar[..., 1])
    report["min_rotated_divergence"] = float(div.min())
    report["rotated_divergence_positive"] = bool(div.min() > 0.0)
    return report


# ---- CSV I/O -----------------------------------------------------------------


def _write_grid_csv(path, header: list[str], xs: np.ndarray, ys: np.ndarray,
                    values: np.ndarray) -> None:
    """One CSV row i, j, x, y, *values[i, j] per point of the xs x ys grid,
    i-major; `values` has shape (xs.size, ys.size) or (xs.size, ys.size, d).

    The bytes are csv.writer's excel dialect with every float as g17 (a
    numeral, nan or inf, never quoted).  One template holds a whole grid
    line: j and g17(y) filled in, "\\0" and "\\1" for i and x, and a "%.17g"
    per value, which formats exactly as g17 does.  Each line i fills in i
    and x and formats its values with one %, so memory stays O(ys.size * d).
    """
    sep, end = csv.excel.delimiter, csv.excel.lineterminator
    cells = sep.join(["%.17g"] * (len(header) - 4))
    line = "".join(f"\0{sep}{j}{sep}\1{sep}{g17(y)}{sep}{cells}{end}"
                   for j, y in enumerate(ys.tolist()))
    with open(path, "w", newline="") as fh:
        fh.write(sep.join(header) + end)
        for i, x in enumerate(xs.tolist()):
            filled = line.replace("\0", str(i)).replace("\1", g17(x))
            fh.write(filled % tuple(values[i].ravel().tolist()))


def write_scalar_csv(u: ScalarField, path) -> None:
    dom = u.dom
    _write_grid_csv(
        path, ["i", "j", "x", "y", "value"], dom.axis_nodes(0), dom.axis_nodes(1), u.values
    )


def read_scalar_csv(path) -> ScalarField:
    """Rebuild a nodal field (and its grid) from the i,j,x,y,value format.

    Each node (i, j) with i, j >= 0 must appear exactly once, at
    coordinates within 1e-9 of the axis length of the uniform grid spanned
    by the first and last nodes; anything else raises ValueError.
    """
    rows = []
    with open(path, newline="") as fh:
        r = csv.reader(fh)
        header = next(r, None)
        if header is None or [c.strip() for c in header[:5]] != ["i", "j", "x", "y", "value"]:
            raise ValueError(f"{path}: expected header i,j,x,y,value")
        for line in r:
            if not line:
                continue
            if len(line) < 5:
                raise ValueError(f"{path}: line {r.line_num} has fewer than 5 fields")
            rows.append((int(line[0]), int(line[1]), float(line[2]), float(line[3]), float(line[4])))
    if not rows:
        raise ValueError(f"{path}: no data rows")
    ii, jj, x, y, v = zip(*rows)
    if min(ii) < 0 or min(jj) < 0:
        raise ValueError(f"{path}: negative node index")
    if len(set(zip(ii, jj))) < len(rows):
        raise ValueError(f"{path}: duplicate (i, j) rows")
    ni, nj = max(ii) + 1, max(jj) + 1
    if len(rows) != ni * nj:
        raise ValueError(f"{path}: incomplete grid data")
    ii, jj, x, y = np.array(ii), np.array(jj), np.array(x), np.array(y)
    vals = np.empty((ni, nj))
    vals[ii, jj] = v
    xs = np.empty(ni)
    xs[ii] = x
    ys = np.empty(nj)
    ys[jj] = y
    dom = GridDomain(
        extents=((float(xs[0]), float(xs[-1])), (float(ys[0]), float(ys[-1]))),
        n_cells=(ni - 1, nj - 1),
    )
    for k, (coord, idx) in enumerate(((x, ii), (y, jj))):
        lo, hi = dom.extents[k]
        if not np.all(np.abs(coord - dom.axis_nodes(k)[idx]) <= 1e-9 * (hi - lo)):
            raise ValueError(f"{path}: {'xy'[k]} coordinates off the uniform grid")
    return ScalarField(dom, vals)


def write_cell_csv(field: VectorField | CellScalarField, path) -> None:
    dom = field.dom
    if isinstance(field, VectorField):
        header = [f"v{k + 1}" for k in range(field.d)]
        values = field.values
    else:
        header = ["value"]
        values = np.where(field.mask, field.values, np.nan)
    _write_grid_csv(
        path, ["i", "j", "x", "y"] + header, dom.axis_centers(0), dom.axis_centers(1), values
    )
