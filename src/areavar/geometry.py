"""Area elements and mean curvatures of graph surfaces via coframe data.

A surface given as a level set {psi = 0} carries an area element whose
coefficient in the ambient coframe is determined by the Gram matrix of the
coframe and the components v_i of d(psi): the single formula

    coeff = ((-1)^(dim-1) / v_last) * sqrt(v . G . v)

specializes to the Euclidean graph area, the horizontal (sub-Riemannian)
graph area, and the intrinsic-graph density, depending only on which frame
and defining data are plugged in.  A small exterior-algebra evaluator
provides an independent oracle for the contraction (interior-product)
coefficients.  Mean curvatures are evaluated from discrete second
derivatives at cell centers.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .grids import CellScalarField, EnergySpec, GridDomain, ScalarField, gradient, singular_set


@dataclass
class Coframe:
    """An orthonormality table for a coframe: Gram matrix of the 1-forms.

    gram[i, j] = <w^i, w^j>; symmetric positive semidefinite (null
    directions, e.g. a contact form, are allowed).
    """

    dim: int
    gram: np.ndarray

    def __post_init__(self):
        self.gram = np.asarray(self.gram, dtype=float)
        if self.gram.shape != (self.dim, self.dim):
            raise ValueError("gram shape does not match dim")
        if not np.all(np.isfinite(self.gram)):
            raise ValueError("gram must be finite")
        if not np.allclose(self.gram, self.gram.T, atol=1e-12, rtol=0.0):
            raise ValueError("gram must be symmetric")
        if np.linalg.eigvalsh(self.gram).min() < -1e-12:
            raise ValueError("gram must be positive semidefinite")


@dataclass
class DefiningData:
    """Components of d(psi) in the coframe for a level-set surface {psi=0}.

    v has shape (..., dim): one jet, or any array of jets along the leading
    axes.  The last component scales the area element and must not vanish.
    """

    v: np.ndarray

    def __post_init__(self):
        self.v = np.asarray(self.v, dtype=float)
        if self.v.ndim == 0 or not np.all(np.isfinite(self.v)):
            raise ValueError("defining components must be finite vectors")
        if np.any(self.v[..., -1] == 0.0):
            raise ValueError("last defining component must be nonzero")


def contract_form(lam: np.ndarray, frame: Coframe) -> np.ndarray:
    """Coefficients of the interior product of a 1-form with the top form.

    For omega = sum lam_i w^i, the contraction omega -| (w^1 ^ ... ^ w^d)
    equals sum_i c_i (-1)^(i-1) w^1 ^ ... (skip i) ... ^ w^d with
    c = gram @ lam; this is the raising of the index by the coframe metric.
    """
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (frame.dim,):
        raise ValueError("covector length does not match frame dimension")
    return frame.gram @ lam


# ---- exterior-algebra oracle -------------------------------------------------
# Forms are dicts {sorted index tuple: coefficient}; used only to verify the
# contraction coefficients against the defining identity
#     eta ^ (omega -| dv) = <eta, omega> dv
# by literal wedge arithmetic.


def _perm_sign(seq) -> int:
    sign = 1
    seq = list(seq)
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                sign = -sign
    return sign


def wedge(a: dict, b: dict) -> dict:
    out: dict = {}
    for ia, ca in a.items():
        for ib, cb in b.items():
            if set(ia) & set(ib):
                continue
            idx = ia + ib
            key = tuple(sorted(idx))
            coeff = _perm_sign(idx) * ca * cb
            out[key] = out.get(key, 0.0) + coeff
    return {k: c for k, c in out.items() if c != 0.0}


def interior_top(coeffs: np.ndarray) -> dict:
    """The (d-1)-form  omega -| (w^1 ^ ... ^ w^d)  given contraction coeffs."""
    d = len(coeffs)
    out = {}
    for i in range(d):
        key = tuple(j for j in range(d) if j != i)
        out[key] = ((-1) ** i) * float(coeffs[i])
    return out


def contraction_identity_residual(frame: Coframe, lam: np.ndarray, eta: np.ndarray) -> float:
    """Entrywise residual of  eta ^ (omega -| dv) = <eta, omega> dv.

    Left side by literal wedge arithmetic on the contraction coefficients,
    right side by the Gram pairing; the maximum absolute coefficient
    difference over all top-form entries is returned.
    """
    lam = np.asarray(lam, dtype=float)
    eta = np.asarray(eta, dtype=float)
    d = frame.dim
    eta_form = {(i,): float(eta[i]) for i in range(d)}
    left = wedge(eta_form, interior_top(contract_form(lam, frame)))
    inner = float(eta @ frame.gram @ lam)
    top = tuple(range(d))
    resid = abs(left.get(top, 0.0) - inner)
    for key, c in left.items():
        if key != top:
            resid = max(resid, abs(c))
    return resid


# ---- area elements -----------------------------------------------------------


def area_element_coeff(frame: Coframe, dd: DefiningData):
    """Signed coefficient of the area element of {psi = 0} in the coframe.

    coeff = ((-1)^(dim-1) / v_last) * sqrt(v . gram . v); the sign tracks
    the orientation induced by psi (flips when psi is negated), the
    magnitude is the area density.  Defining data of shape (..., dim) give
    coefficients of the leading shape (a scalar for a single jet).
    """
    v = dd.v
    if v.shape[-1] != frame.dim:
        raise ValueError("defining data length does not match frame dimension")
    # optimize=True rounds like `v @ gram @ v` on a single jet, so a grid of
    # jets gives the per-jet values bit for bit up to dim 3 (the default
    # einsum loop is 1 ulp off on 9-16% of random jets)
    q = np.einsum("...i,ij,...j->...", v, frame.gram, v, optimize=True)
    return ((-1.0) ** (frame.dim - 1) / v[..., -1]) * np.sqrt(np.maximum(q, 0.0))


def euclidean_graph_frame(n: int) -> Coframe:
    return Coframe(n + 1, np.eye(n + 1))


def euclidean_defining(grad) -> DefiningData:
    grad = np.atleast_1d(np.asarray(grad, dtype=float))
    return DefiningData(np.concatenate([-grad, np.ones(grad.shape[:-1] + (1,))], axis=-1))


def heisenberg_graph_frame(n: int = 1) -> Coframe:
    g = np.eye(2 * n + 1)
    g[-1, -1] = 0.0
    return Coframe(2 * n + 1, g)


def heisenberg_defining(point, grad, n: int = 1) -> DefiningData:
    """Graph u over the horizontal coordinates: v pairs (y_j - u_xj, x_j + u_yj)."""
    point = np.asarray(point, dtype=float)
    grad = np.asarray(grad, dtype=float)
    if point.shape[-1:] != (2 * n,) or grad.shape[-1:] != (2 * n,):
        raise ValueError("point and gradient must have length 2n")
    pairs = np.stack([point[..., n:] - grad[..., :n], point[..., :n] + grad[..., n:]], axis=-1)
    comps = pairs.reshape(pairs.shape[:-2] + (2 * n,))
    return DefiningData(np.concatenate([comps, np.ones(comps.shape[:-1] + (1,))], axis=-1))


def intrinsic_graph_frame() -> Coframe:
    return Coframe(3, np.diag([1.0, 0.0, 1.0]))


def intrinsic_defining(phi, phi_eta, phi_tau) -> DefiningData:
    comps = np.broadcast_arrays(-(phi_eta - 2.0 * phi * phi_tau), -phi_tau, 1.0)
    return DefiningData(np.stack(comps, axis=-1))


def area_element(kind: str, point, jet):
    """(orientation sign, density) of the area element for a graph kind.

    kind="euclidean":  jet = gradient of u (any dimension), point unused.
    kind="heisenberg": point = (x_1..x_n, y_1..y_n), jet = gradient of u.
    kind="intrinsic":  jet = (phi, phi_eta, phi_tau), point unused.

    point (..., 2n) and jet (..., dim) may carry leading axes; the frame is
    built once and both results have the leading shape.
    """
    jet = np.asarray(jet, dtype=float)
    if kind == "euclidean":
        grad = np.atleast_1d(jet)
        frame, dd = euclidean_graph_frame(grad.shape[-1]), euclidean_defining(grad)
    elif kind == "heisenberg":
        point = np.atleast_1d(np.asarray(point, dtype=float))
        n = point.shape[-1] // 2
        frame, dd = heisenberg_graph_frame(n), heisenberg_defining(point, jet, n)
    elif kind == "intrinsic":
        phi, phi_eta, phi_tau = np.moveaxis(jet, -1, 0)
        frame, dd = intrinsic_graph_frame(), intrinsic_defining(phi, phi_eta, phi_tau)
    else:
        raise ValueError(f"unknown kind {kind!r}")
    coeff = area_element_coeff(frame, dd)
    return np.where(coeff < 0, -1.0, 1.0)[()], np.abs(coeff)


def graph_area_density(kind: str, point, jet):
    """Area density of a graph surface; the magnitude of area_element."""
    return area_element(kind, point, jet)[1]


# ---- mean curvatures ---------------------------------------------------------


def _cell_hessian(u: ScalarField):
    """O(h^2) second derivatives at cell centers from nodal values.

    Mixed derivative from the corner cross-difference (exactly centered);
    pure second derivatives from half-offset four-point columns/rows of
    edge-averaged values.  Valid on cells 1..nc-2 in each direction.
    """
    dom = u.dom
    hx, hy = dom.spacing
    v = u.values
    # edge averages: vx[i, j] over the y-edge of column i, cell row j
    vx = 0.5 * (v[:, :-1] + v[:, 1:])          # (nx+1, ncy)
    vy = 0.5 * (v[:-1, :] + v[1:, :])          # (ncx, ny+1)
    ncx, ncy = dom.n_cells
    uxx = np.full((ncx, ncy), np.nan)
    uyy = np.full((ncx, ncy), np.nan)
    uxx[1:-1, :] = (vx[3:, :] - vx[2:-1, :] - vx[1:-2, :] + vx[:-3, :]) / (2.0 * hx * hx)
    uyy[:, 1:-1] = (vy[:, 3:] - vy[:, 2:-1] - vy[:, 1:-2] + vy[:, :-3]) / (2.0 * hy * hy)
    uxy = (v[1:, 1:] - v[:-1, 1:] - v[1:, :-1] + v[:-1, :-1]) / (hx * hy)
    mask = np.zeros((ncx, ncy), dtype=bool)
    mask[1:-1, 1:-1] = True
    return uxx, uyy, uxy, mask


def mean_curvature_euclidean(u: ScalarField) -> CellScalarField:
    """div(grad u / W), W = sqrt(1 + |grad u|^2), from the curvature trace.

    Evaluated as [(1+u_y^2) u_xx - 2 u_x u_y u_xy + (1+u_x^2) u_yy] / W^3
    with O(h^2) discrete derivatives at cell centers; boundary-ring cells
    are masked out.
    """
    g = gradient(u).values
    ux, uy = g[..., 0], g[..., 1]
    uxx, uyy, uxy, mask = _cell_hessian(u)
    W = np.sqrt(1.0 + ux * ux + uy * uy)
    H = np.where(
        mask,
        ((1.0 + uy * uy) * uxx - 2.0 * ux * uy * uxy + (1.0 + ux * ux) * uyy) / W**3,
        np.nan,
    )
    return CellScalarField(u.dom, H, mask)


def p_mean_curvature(u: ScalarField, spec: EnergySpec | None = None) -> CellScalarField:
    """div((grad u + F)/|grad u + F|) with the horizontal-area drift.

    Central differences of the cell-centered unit field; cells whose
    stencil touches the singular set, and the boundary ring, are masked.
    """
    if spec is None:
        spec = EnergySpec(preset="p_area")
    dom = u.dom
    hx, hy = dom.spacing
    ss = singular_set(u, spec)
    m, sing, norms = ss.drift, ss.mask, ss.norms
    safe = np.where(norms == 0.0, 1.0, norms)
    N = np.where(sing[..., None], np.nan, m / safe[..., None])
    ncx, ncy = dom.n_cells
    div = np.full((ncx, ncy), np.nan)
    div[1:-1, 1:-1] = (N[2:, 1:-1, 0] - N[:-2, 1:-1, 0]) / (2.0 * hx) + (
        N[1:-1, 2:, 1] - N[1:-1, :-2, 1]
    ) / (2.0 * hy)
    bad = ndimage.binary_dilation(
        sing, structure=np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)
    )
    mask = ~bad
    mask[0, :] = mask[-1, :] = mask[:, 0] = mask[:, -1] = False
    div = np.where(mask, div, np.nan)
    return CellScalarField(dom, div, mask)
