"""Constructive minimization of the regularized area energy.

For a > 0 the energy  E_a(u) = sum over cells of quadrature of
sqrt(a^2 + |grad u + F|^2) + H u  is smooth and strictly convex in the
nodal values, so the Dirichlet problem for its Euler-Lagrange equation
(the divergence of the unit-scaled field equals H) is solved by damped
Newton iteration on the energy itself.  Continuation drives a -> 0 with
warm starts, producing the area-minimizing limit.

The unknown is bilinear on each cell and the energy is integrated with a
tensor Gauss rule.  A one-point rule would be blind to the checkerboard
nodal mode (its cell-centered gradient cancels exactly) and carries an
O(h^2) consistency error on planes with the horizontal-area drift; with
k x k Gauss points the quadrature error on such exact solutions drops to
O(h^{2k}), which is what makes plane reproduction at 1e-8 possible.

The interior is numbered line by line, short axis first, so the Newton
Hessian is a 9-point stencil of half-bandwidth min(ncx, ncy): its
diagonals are summed straight from the cell blocks into a scipy
`dia_array`.  One
`_LinearSolver` per solve, made for the grid's n_cells, picks the
factorization from that half-bandwidth: band Cholesky (LAPACK dpbtrf) up
to _BAND_LIMIT; above it, SuperLU on the stencil gathered into a CSC
matrix in nested-dissection order.  It keeps the latest factor; once
Newton converges quadratically, and for each stage's tangent, it first
runs conjugate gradients preconditioned with that factor.

Up to _BAND_LIMIT a continuation's Newton steps, predictor and tangents
work in one workspace, a dict of named buffers (see `_array`): the
kinematics, the gradients' and the Hessian's scratch arrays and the
stencil's diagonals are kept for the whole solve and filled in place by
the same numpy operations, in the same order, as the kernels called
without it run on fresh arrays, so every value keeps its bits.  Each
stage hands its state on as a `_Stage`; in a workspace that includes its
final kinematics, which the stage's tangent reuses.  The one SolveResult
is built after the last stage.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dpbtrf, dpbtrs

from .grids import (
    EnergySpec,
    GridDomain,
    ScalarField,
    SolvedField,
    area_energy,
    hypothesis_checks,
)
from .util import dot2, fixed_dot, pairwise_sum

# a = 4^-k down to 2^-12: from the Euler predictor, Newton corrects a quartering
# of a in barely more steps than a halving, so halving stages mostly add
# factorizations (the final field agrees to roundoff)
_DEFAULT_SCHEDULE = tuple(4.0 ** (-k) for k in range(7))
# Armijo backtracking: the step shrinks by this factor, at most this many times
_LINE_SEARCH_FACTOR = 0.5
_LINE_SEARCH_MAX = 30
# Lagged preconditioner (Knoll & Keyes, J. Comput. Phys. 193 (2004)): once the
# last accepted Newton step cut the sup residual by _REUSE_GATE (the quadratic
# phase), the next step's Hessian is solved by CG preconditioned with the held
# factor of an earlier one, to relative residual _PCG_RTOL in at most
# _PCG_MAXITER iterations, else refactorized.  The stage's tangent is solved the
# same way to _TANGENT_RTOL.  Convergence is still judged on the true gradient
_REUSE_GATE = 10.0
_PCG_RTOL = 1e-6
_PCG_MAXITER = 5
_TANGENT_RTOL = 1e-8
# Stencils of half-bandwidth min(ncx, ncy) at most this are factorized by band
# Cholesky: at 32^2 and 64^2 dpbtrf factorizes about 4x and 2x faster than
# SuperLU.  Above, nested dissection's smaller fill wins at 256^2, and with two
# BLAS threads dpbtrf turned erratic at 96^2-128^2 (BENCH_solver.json
# "band_limit", a 2-core host)
_BAND_LIMIT = 64
# Gauss points per axis of the energy quadrature (the module docstring says why)
_QUAD_ORDER = 4


@dataclass
class SolverConfig:
    """Knobs of the Newton/continuation scheme (defaults fit unit-size boxes)."""

    a_schedule: tuple = _DEFAULT_SCHEDULE
    newton_tol: float = 1e-10
    max_newton_iters: int = 50
    continuation_stop: float = 1e-6

    def __post_init__(self):
        # float(True) is 1.0: a boolean is refused wherever a number is read
        for name, x in (("newton_tol", self.newton_tol),
                        ("continuation_stop", self.continuation_stop),
                        *(("a_schedule", a) for a in self.a_schedule)):
            if isinstance(x, (bool, np.bool_)):
                raise ValueError(f"{name} must be a number, got {x!r}")
        sched = tuple(float(a) for a in self.a_schedule)
        if not sched or any(not 0 < a < math.inf for a in sched):
            raise ValueError("a_schedule must be finite and positive")
        if any(b >= a for a, b in zip(sched, sched[1:])):
            raise ValueError("a_schedule must be strictly decreasing")
        self.a_schedule = sched
        n = self.max_newton_iters
        if isinstance(n, bool) or not isinstance(n, numbers.Integral):
            raise ValueError(f"max_newton_iters must be an integer, got {n!r}")
        # every condition is False for NaN, so NaN is rejected as well
        for ok, msg in (
            (0 < self.newton_tol < math.inf, "newton_tol must be finite and > 0"),
            (0 <= self.continuation_stop < math.inf, "continuation_stop must be finite and >= 0"),
            (self.max_newton_iters >= 1, "max_newton_iters must be >= 1"),
        ):
            if not ok:
                raise ValueError(msg)


@dataclass
class SolveResult:
    """Outcome of a whole continuation (a fixed-a solve is the one-stage
    continuation): the last stage's iterate, residual, energies and
    convergence, with the iterations, stages and linear-solver counts of
    every stage.

    u is read-only and keeps its gradient, singular set and measure once
    asked for them (grids.SolvedField)."""

    u: SolvedField
    residual_norm: float
    a_final: float
    iterations: int
    energy: float                 # area part at a = 0, H = 0 (midpoint rule)
    converged: bool
    energy_regularized: float = math.nan   # quadrature energy at a_final, incl. H
    newton_energies: tuple = ()   # energy after each accepted Newton step
                                  # of the last stage
    stages: tuple = ()            # continuation log: (a, iterations, sup diff)
    factorizations: int = 0       # Hessian factorizations of the whole call
    pcg_iterations: int = 0       # CG iterations on a held factor, likewise


class _Assembler:
    """Per-domain tables for the Gauss-quadrature energy and its derivatives."""

    def __init__(self, dom: GridDomain, spec: EnergySpec, quad_order: int = _QUAD_ORDER):
        self.dom = dom
        self.spec = spec
        hx, hy = dom.spacing
        self.vol = hx * hy
        ncx, ncy = dom.n_cells
        self.ncx, self.ncy = ncx, ncy
        self.n_int = (ncx - 1) * (ncy - 1)

        t, w = np.polynomial.legendre.leggauss(quad_order)
        t = (t + 1.0) / 2.0
        w = w / 2.0
        xi = np.repeat(t, quad_order)
        eta = np.tile(t, quad_order)
        self.wq = np.repeat(w, quad_order) * np.tile(w, quad_order)
        G = xi.size
        self.G = G

        # bilinear shapes at the quadrature points, corners ordered
        # (i,j), (i+1,j), (i,j+1), (i+1,j+1)
        self.S = np.stack(
            [(1 - xi) * (1 - eta), xi * (1 - eta), (1 - xi) * eta, xi * eta],
            axis=1,
        )
        self.Dx = np.stack(
            [-(1 - eta), (1 - eta), -eta, eta], axis=1
        ) / hx
        self.Dy = np.stack(
            [-(1 - xi), -xi, (1 - xi), xi], axis=1
        ) / hy

        xs = dom.axis_nodes(0)[:-1]
        ys = dom.axis_nodes(1)[:-1]
        Xg = xs[:, None, None] + xi[None, None, :] * hx    # (ncx, 1, G)
        Yg = ys[None, :, None] + eta[None, None, :] * hy   # (1, ncy, G)
        F = spec.F_at(dom, Xg, Yg)                         # (ncx, ncy, G, 2)
        self.Fx, self.Fy = F[..., 0], F[..., 1]

        # linear bulk term: integral of H * shape_k over each cell; None for
        # a scalar H = 0, whose term would add +-0 to every cell (as in
        # grids.area_energy)
        self.Hlin = None
        if not (np.isscalar(spec.H) and spec.H == 0):
            Hc = spec.H_cells(dom)
            self.Hlin = self.vol * Hc[..., None] * (self.wq[None, None, :] @ self.S)

        # shape gradients with the weights wq * vol folded in, (G, 4): the
        # nodal load of the fluxes (wx, wy) is wx @ WDx + wy @ WDy
        wv = (self.wq * self.vol)[:, None]
        self.WDx = wv * self.Dx
        self.WDy = wv * self.Dy
        # weighted shape-gradient outer products per quadrature point, (G,16):
        # the cell stiffness is a11 @ Txx + a12 @ Txy + a22 @ Tyy
        self.Txx = (self.WDx[:, :, None] * self.Dx[:, None, :]).reshape(G, 16)
        self.Tyy = (self.WDy[:, :, None] * self.Dy[:, None, :]).reshape(G, 16)
        self.Txy = (
            self.WDx[:, :, None] * self.Dy[:, None, :]
            + self.WDy[:, :, None] * self.Dx[:, None, :]
        ).reshape(G, 16)

    # -- kinematics ---------------------------------------------------------

    def corners(self, values: np.ndarray) -> np.ndarray:
        return np.stack(
            [values[:-1, :-1], values[1:, :-1], values[:-1, 1:], values[1:, 1:]],
            axis=-1,
        )

    def field_at_quad(self, values: np.ndarray, ws: dict | None = None
                      ) -> tuple[np.ndarray, np.ndarray]:
        U = self.corners(values).reshape(-1, 4)
        shape = (self.ncx, self.ncy, self.G)
        mx, my = (_array(ws, name, shape) for name in ("mx", "my"))
        np.matmul(U, self.Dx.T, out=mx.reshape(-1, self.G))
        np.matmul(U, self.Dy.T, out=my.reshape(-1, self.G))
        mx += self.Fx
        my += self.Fy
        return mx, my

    def kinematics(self, values: np.ndarray, a: float, ws: dict | None = None) -> tuple:
        """(mx, my, r) at every quadrature point: m = grad u + F and
        r = sqrt(a^2 + |m|^2), in ws's kinematics buffers if ws is given.
        The `kin` argument of the methods below takes this tuple for the
        same values and a, to share it."""
        mx, my = self.field_at_quad(values, ws)
        # a huge field makes r, and so the energy, inf: `_newton` reports
        # that as non-convergence, without numpy's overflow warning
        with np.errstate(over="ignore"):
            if ws is None:
                # numpy works its temporaries in place here; allocating r
                # and a scratch array instead raised a 128^2 solve's peak
                # RSS (BENCH_solver.json "not_kept")
                return mx, my, np.sqrt(a * a + mx * mx + my * my)
            # the same sum, (a^2 + mx^2) + my^2, in ws's buffers
            r, t = (_array(ws, name, mx.shape) for name in ("r", "s0"))
            np.multiply(mx, mx, out=r)
            r += a * a
            np.multiply(my, my, out=t)
            r += t
            np.sqrt(r, out=r)
        return mx, my, r

    # -- energy / gradient / hessian ----------------------------------------

    def energy(self, values: np.ndarray, a: float, kin: tuple | None = None,
               ws: dict | None = None) -> float:
        r = (kin or self.kinematics(values, a, ws))[2]
        cell = self.vol * (r.reshape(-1, self.G) @ self.wq)
        if self.Hlin is not None:
            U = self.corners(values).reshape(-1, 4)
            cell += np.einsum("ck,ck->c", self.Hlin.reshape(-1, 4), U)
        return pairwise_sum(cell)

    def _node_gradient(self, wx: np.ndarray, wy: np.ndarray, h_term: bool = True) -> np.ndarray:
        """Nodal load of the quadrature fluxes (wx, wy), plus the H term
        unless h_term is False, shape (nx+1, ny+1)."""
        G = self.G
        C = wx.reshape(-1, G) @ self.WDx
        C += wy.reshape(-1, G) @ self.WDy
        if h_term and self.Hlin is not None:
            C += self.Hlin.reshape(-1, 4)
        C = C.reshape(self.ncx, self.ncy, 4)
        out = np.zeros((self.ncx + 1, self.ncy + 1))
        out[:-1, :-1] += C[..., 0]
        out[1:, :-1] += C[..., 1]
        out[:-1, 1:] += C[..., 2]
        out[1:, 1:] += C[..., 3]
        return out

    def gradient_full(self, values: np.ndarray, a: float, kin: tuple | None = None,
                      ws: dict | None = None) -> np.ndarray:
        """dE/du at every node, shape (nx+1, ny+1)."""
        mx, my, r = kin or self.kinematics(values, a, ws)
        wx, wy = (_array(ws, name, r.shape) for name in ("s0", "s1"))
        np.divide(mx, r, out=wx)
        np.divide(my, r, out=wy)
        return self._node_gradient(wx, wy)

    def gradient_a(self, values: np.ndarray, a: float, kin: tuple | None = None,
                   ws: dict | None = None) -> np.ndarray:
        """d/da of dE/du at every node: the load of -a m / r^3 (H does not
        depend on a)."""
        mx, my, r = kin or self.kinematics(values, a, ws)
        c, wx, wy = (_array(ws, name, r.shape) for name in ("s0", "s1", "s2"))
        np.multiply(r, r, out=c)
        c *= r
        np.divide(-a, c, out=c)
        np.multiply(c, mx, out=wx)
        np.multiply(c, my, out=wy)
        return self._node_gradient(wx, wy, h_term=False)

    def residual_norm(self, values: np.ndarray, a: float, kin: tuple | None = None,
                      ws: dict | None = None) -> float:
        # the interior in any order: max is exact
        g = self.gradient_full(values, a, kin, ws)[1:-1, 1:-1]
        return float(np.abs(g).max()) / self.vol

    def _band_interior(self, full: np.ndarray) -> np.ndarray:
        """The view of a nodal array's interior whose C order is the
        stencil's numbering, short axis fastest: transposed when y is the
        long axis."""
        inner = full[1:-1, 1:-1]
        return inner.T if self.ncy > self.ncx else inner

    def gather_interior(self, full: np.ndarray) -> np.ndarray:
        """The interior entries of a nodal array (nx+1, ny+1), in the
        stencil's numbering."""
        return self._band_interior(full).ravel()

    def scatter_interior(self, values: np.ndarray, d_int: np.ndarray) -> np.ndarray:
        """`values` with d_int, in the stencil's numbering, added to its
        interior nodes."""
        out = values.copy()
        inner = self._band_interior(out)
        inner += d_int.reshape(inner.shape)
        return out

    def _stencil(self, K: np.ndarray, ws: dict | None = None) -> sp.dia_array:
        """The interior matrix of the (cells, 16) cell blocks K as its 9
        diagonals, data[k, col] = A[col - offsets[k], col] with the offsets
        ascending, rows and columns numbered as in `_strides`.  Each diagonal
        is summed from strided slices of the blocks: every entry adds its
        cell terms in ascending cell order, as np.add.reduceat would.  Slots
        that hold no entry are 0: those past the matrix's edge, and those of
        node pairs that are not neighbours.  The array keeps `data` without
        a copy, and its product adds each row's terms in ascending offset,
        that is ascending column, order into zeros: the bits of the CSC
        product.  With ws, `data` is ws's stencil buffer: every call writes
        the same slots, so the others stay the zeros it was allocated with,
        and the array is valid until the next stencil made in ws."""
        B = K.reshape(self.ncx, self.ncy, 4, 4)     # [ci, cj, row corner, col corner]
        offsets, terms = self._stencil_terms
        data = _array(ws, "stencil", (offsets.size, self.n_int), np.zeros)
        # each data[k] as the (ncx - 1, ncy - 1) interior, indexed like the nodes
        if self.ncy > self.ncx:
            inner = data.reshape(-1, self.ncy - 1, self.ncx - 1).transpose(0, 2, 1)
        else:
            inner = data.reshape(-1, self.ncx - 1, self.ncy - 1)
        for k, dst, cells in terms:
            out = inner[k][dst]
            x = [B[c] for c in cells]
            if len(x) == 1:
                out[...] = x[0]
            elif len(x) == 2:
                np.add(x[0], x[1], out=out)
            else:                                   # reduceat's x0 + ((x1 + x2) + x3)
                t = x[1] + x[2]
                t += x[3]
                np.add(x[0], t, out=out)
        return sp.dia_array((data, offsets), shape=(self.n_int, self.n_int))

    @cached_property
    def _stencil_terms(self) -> tuple:
        """The stencil's offsets, ascending and distinct, and for each of a
        node's 9 neighbour relations: its row in the data, the slice of
        interior nodes (as columns) that have that neighbour inside, and
        the cell-block slices that sum to the entry, in ascending cell
        order.  On a grid 2 or 3 cells across two relations can share an
        offset; their nodes never overlap."""
        ncx, ncy = self.ncx, self.ncy
        sx, sy = _strides(ncx, ncy)
        rel = [(di, dj) for di in (-1, 0, 1) for dj in (-1, 0, 1)]
        # data[k, col] = A[col - off, col]: the row node is (i + di, j + dj)
        offsets = np.unique([-(di * sx + dj * sy) for di, dj in rel])
        terms = []
        for di, dj in rel:
            # column nodes i0 <= i < i1, j0 <= j < j1 with the row node inside
            i0, i1 = max(1, 1 - di), min(ncx, ncx - di)
            j0, j1 = max(1, 1 - dj), min(ncy, ncy - dj)
            if i0 >= i1 or j0 >= j1:
                continue
            cells = []
            for si in (-1, 0):                      # cell (i + si, j + sj)
                for sj in (-1, 0):
                    if di - si in (0, 1) and dj - sj in (0, 1):
                        row = (di - si) + 2 * (dj - sj)
                        col = -si - 2 * sj
                        cells.append((slice(i0 + si, i1 + si), slice(j0 + sj, j1 + sj), row, col))
            k = int(np.searchsorted(offsets, -(di * sx + dj * sy)))
            terms.append((k, (slice(i0 - 1, i1 - 1), slice(j0 - 1, j1 - 1)), cells))
        return offsets, terms

    def hessian_interior(
        self, values: np.ndarray, a: float, kin: tuple | None = None,
        ws: dict | None = None,
    ) -> sp.dia_array:
        """Interior Hessian, a `dia_array`: the stencil of the cell blocks
        a11 @ Txx + a22 @ Tyy + a12 @ Txy of the coefficients
        1/r - m m^T / r^3, summed in that order (the tests check it bit for
        bit against that sum formed at once).

        Each coefficient is formed in one scratch array c and contracted
        into the cell blocks K before the next one is formed.  Beside the
        kinematics that takes four arrays of the quadrature size: K, 1/r,
        1/r^3 and c, with the products c @ Tyy and c @ Txy written into
        1/r's array once a22 is formed.  With ws they are ws's buffers "K",
        "s0", "s1" and "s2", filled in place, and so is the stencil's
        `data`; without, each is allocated afresh.
        """
        mx, my, r = kin or self.kinematics(values, a, ws)
        G = self.G
        K = _array(ws, "K", (self.ncx * self.ncy, 16))
        inv_r, inv_r3, c = (_array(ws, name, r.shape) for name in ("s0", "s1", "s2"))
        np.divide(1.0, r, out=inv_r)
        np.divide(inv_r, r, out=inv_r3)
        inv_r3 *= inv_r
        np.multiply(mx, mx, out=c)
        c *= inv_r3
        np.subtract(inv_r, c, out=c)                     # a11
        np.matmul(c.reshape(-1, G), self.Txx, out=K)
        np.multiply(my, my, out=c)
        c *= inv_r3
        np.subtract(inv_r, c, out=c)                     # a22
        product = inv_r.reshape(-1, G)                   # 1/r is dead from here
        np.matmul(c.reshape(-1, G), self.Tyy, out=product)
        K += product
        np.negative(mx, out=c)
        c *= my
        c *= inv_r3                                      # a12
        np.matmul(c.reshape(-1, G), self.Txy, out=product)
        K += product
        # without ws, free the scratch before the stencil's data is allocated
        del inv_r, inv_r3, c, product
        return self._stencil(K, ws)


def _array(ws: dict | None, name: str, shape: tuple, alloc=np.empty) -> np.ndarray:
    """The workspace ws's buffer `name`, allocated by `alloc` at its first
    use; a fresh array from `alloc` without ws.

    A workspace holds the quadrature-size arrays of one solve's Newton
    path, kept from step to step so that `_Assembler`'s kernels fill them
    in place (numpy's `out=`) instead of allocating, and faulting in, fresh
    ones each call.  The buffers are named by role: "mx", "my" and "r" hold
    the latest kinematics; "s0", "s1", "s2" and "K" are the scratch of the
    gradients and the Hessian, and "stencil" is the Hessian's diagonals.
    A kernel overwrites what an earlier one left in the buffers it uses,
    so only the Newton path (`_newton`, `_euler_predict`, `_tangent`)
    passes a workspace, one per solve, and a Hessian made in it is valid
    until the next one."""
    if ws is None:
        return alloc(shape)
    buf = ws.get(name)
    if buf is None:
        buf = ws[name] = alloc(shape)
    return buf


def _strides(ncx: int, ncy: int) -> tuple[int, int]:
    """(sx, sy): interior node (i, j) of an ncx x ncy cell grid is number
    (i - 1) sx + (j - 1) sy of the stencil's numbering, line by line with
    the shorter axis (y on a square) fastest, so a node's 8 neighbours are
    at most min(ncx, ncy) numbers away."""
    ns = min(ncx, ncy) - 1
    return (1, ns) if ncy > ncx else (ns, 1)


def _nested_dissection(ncx: int, ncy: int) -> np.ndarray:
    """Node indices of the interior of an ncx x ncy cell grid, numbered by
    geometric nested dissection (George 1973): split the longer side at its
    middle line, number both halves, then the separator; blocks of at most
    16 nodes are numbered row by row."""
    ny1 = ncy + 1
    blocks = []

    def number(i0, i1, j0, j1):      # interior nodes i0 <= i < i1, j0 <= j < j1
        ni, nj = i1 - i0, j1 - j0
        if ni * nj <= 16:
            blocks.append((np.arange(i0, i1)[:, None] * ny1 + np.arange(j0, j1)).ravel())
        elif ni >= nj:
            mid = (i0 + i1) // 2
            number(i0, mid, j0, j1)
            number(mid + 1, i1, j0, j1)
            blocks.append(mid * ny1 + np.arange(j0, j1))
        else:
            mid = (j0 + j1) // 2
            number(i0, i1, j0, mid)
            number(i0, i1, mid + 1, j1)
            blocks.append(np.arange(i0, i1) * ny1 + mid)

    number(1, ncx, 1, ncy)
    return np.concatenate(blocks)


class _LinearSolver:
    """SPD solves of one Newton solve on a grid of n_cells =
    (ncx, ncy) cells, holding the latest factor and counting factorizations
    and CG iterations.

    `solve(A, b, rtol)` first runs CG on A preconditioned with the held
    factor of an earlier matrix, starting from the factor's solve of b, and
    accepts |b - A x| <= rtol |b| within _PCG_MAXITER iterations.
    Otherwise, or with rtol None or no factor held, it factorizes A and
    solves directly (b may then have several columns).

    A is a stencil from `_Assembler`, a `dia_array`; its half-bandwidth
    kd = max(offsets) picks the factorization.  Up to _BAND_LIMIT it is
    band Cholesky, (kd + 1) n doubles (2.1 MB at 64^2).  Above, the stencil
    is gathered into a CSC matrix whose rows and columns are numbered by
    nested dissection, and b is permuted into that order: the matrix gets a
    SuperLU factor in natural column order with diagonal pivots (about
    60 MB at 256^2, 286 MB at 512^2, about half the fill of COLAMD's
    order), and both the direct solve and PCG run on it before x is
    permuted back.  The numbering, `_nested_dissection` of n_cells, and the
    CSC pattern are built at the first such factorization and kept.  The
    factor lives until the next factorization.  A factorization that meets
    a non-positive pivot (SuperLU: an exactly zero one) raises
    np.linalg.LinAlgError and leaves no factor held.
    """

    def __init__(self, n_cells: tuple[int, int]):
        self.n_cells = n_cells
        self.lu = None
        self.factorizations = 0
        self.pcg_iterations = 0
        self.nd_pattern = None
        self.nd_data = None     # the CSC data, refilled in place by each gather

    def solve(self, A: sp.dia_array, b: np.ndarray, rtol: float | None = None) -> np.ndarray:
        if A.offsets[-1] <= _BAND_LIMIT:
            return self._solve(A, b, rtol, _band_cholesky)
        perm, C = self._nested_dissection_csc(A)
        x = np.empty_like(b)
        x[perm] = self._solve(C, b[perm], rtol, _superlu)
        return x

    def _nested_dissection_csc(self, A: sp.dia_array) -> tuple[np.ndarray, sp.csc_matrix]:
        """(perm, C): the stencil A gathered into the CSC matrix C whose
        i-th row and column are A's perm[i]-th.  C's data is the solver's
        one gather buffer, so C is valid until the next gather; SuperLU
        copies it into its factor."""
        if self.nd_pattern is None:
            self.nd_pattern = _nested_dissection_pattern(A, self.n_cells)
            self.nd_data = np.empty(self.nd_pattern[1].size)
        perm, slots, indices, indptr = self.nd_pattern
        # the slots are in range by construction; under the default
        # mode="raise" numpy would gather into a temporary and copy it
        np.take(A.data.reshape(-1), slots, out=self.nd_data, mode="clip")
        C = sp.csc_matrix((self.nd_data, indices, indptr), shape=A.shape)
        C.has_canonical_format = True
        return perm, C

    def _solve(self, A: sp.dia_array | sp.csc_matrix, b: np.ndarray, rtol: float | None,
               factorize) -> np.ndarray:
        """`solve` on the matrix A as given, factorized by `factorize`."""
        if rtol is not None and self.lu is not None:
            x = self._pcg(A, b, rtol)
            if x is not None:
                return x
        # drop the old factor first: two factors are never alive at once
        self.lu = None
        self.lu = factorize(A)
        self.factorizations += 1
        return self.lu.solve(b)

    def _pcg(self, A: sp.dia_array | sp.csc_matrix, b: np.ndarray,
             rtol: float) -> np.ndarray | None:
        precond = self.lu.solve
        x = precond(b)
        r = b - A @ x
        tol = rtol * math.sqrt(fixed_dot(b, b))
        p = rho = None
        for _ in range(_PCG_MAXITER):
            if math.sqrt(fixed_dot(r, r)) <= tol:
                return x
            z = precond(r)
            rho_new = fixed_dot(r, z)
            p = z if p is None else z + (rho_new / rho) * p
            q = A @ p
            alpha = rho_new / fixed_dot(p, q)
            x += alpha * p
            r -= alpha * q
            rho = rho_new
            self.pcg_iterations += 1
        return x if math.sqrt(fixed_dot(r, r)) <= tol else None


def _nested_dissection_pattern(A: sp.dia_array, n_cells: tuple[int, int]) -> tuple:
    """The stencil A of an n_cells grid renumbered by `_nested_dissection`, as
    (perm, slots, indices, indptr): perm[i] is the stencil number of the
    i-th node in nested-dissection order, and the CSC matrix with
    `indices`/`indptr` and data A.data.reshape(-1)[slots] is that matrix,
    every entry one slot of A, rows ascending in each column.  Its entries
    therefore keep the stencil's bits."""
    ncx, ncy = n_cells
    n = A.shape[0]
    i, j = np.divmod(_nested_dissection(ncx, ncy), ncy + 1)
    sx, sy = _strides(ncx, ncy)
    perm = (i - 1) * sx + (j - 1) * sy
    number = np.empty(n, dtype=np.int32)        # nested-dissection number of each stencil number
    number[perm] = np.arange(n, dtype=np.int32)
    rows, cols, slots = [], [], []
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            # columns whose row node (i + di, j + dj) is interior
            col = np.flatnonzero((0 < i + di) & (i + di < ncx) & (0 < j + dj) & (j + dj < ncy))
            off = -(di * sx + dj * sy)
            k = int(np.searchsorted(A.offsets, off))
            rows.append(number[perm[col] - off])
            cols.append(col.astype(np.int32))
            slots.append(k * n + perm[col])
    rows, cols, slots = (np.concatenate(x) for x in (rows, cols, slots))
    order = np.lexsort((rows, cols))
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(cols, minlength=n), out=indptr[1:])
    return perm, slots[order], rows[order], indptr


def _superlu(A: sp.csc_matrix) -> spla.SuperLU:
    """SuperLU factor of the SPD matrix A in natural column order with
    diagonal pivots."""
    try:
        return spla.splu(A, permc_spec="NATURAL", diag_pivot_thresh=0.0,
                         options=dict(SymmetricMode=True))
    except RuntimeError as err:     # "Factor is exactly singular"
        raise np.linalg.LinAlgError(str(err)) from err


class _BandCholesky:
    """A lower band Cholesky factor in LAPACK's Fortran-order band storage,
    with SuperLU's `solve(b)` (dpbtrs; b may have several columns)."""

    def __init__(self, ab: np.ndarray):
        self.ab = ab

    def solve(self, b: np.ndarray) -> np.ndarray:
        return dpbtrs(self.ab, b, lower=1)[0]


def _band_cholesky(A: sp.dia_array) -> _BandCholesky:
    """Factorize the SPD stencil A by dpbtrf: its diagonals with offset
    -k <= 0 are rows k of a zeroed (kd + 1, n) lower band, kd = max(offsets),
    which dpbtrf overwrites with the factor.  The band is Fortran-ordered
    because the LAPACK wrapper would copy a C-ordered one."""
    ab = np.zeros((A.offsets[-1] + 1, A.shape[0]), order="F")
    for d, off in zip(A.data, A.offsets):
        if off <= 0:
            ab[-off] = d
    ab, info = dpbtrf(ab, lower=1, overwrite_ab=1)
    if info > 0:
        raise np.linalg.LinAlgError(f"band Cholesky: non-positive pivot in column {info}")
    return _BandCholesky(ab)


def harmonic_extension(dom: GridDomain, phi: ScalarField) -> ScalarField:
    """Extend boundary data into the interior by one Laplace solve.

    This is the standard initial guess: cheap, and already exact whenever
    the target solution happens to be harmonic (affine data, saddle data).
    The 2-point Gauss rule integrates Q1 gradient products exactly, so on
    the uniform grid the matrix is Kx (x) My + Mx (x) Ky with 1D stiffness
    K = tridiag(-1, 2, -1)/h and mass M = h tridiag(1, 4, 1)/6, both
    diagonalized by the type-I sine transform: the solve is exact.
    """
    # imported here: scipy.fft adds about 75 ms and 5 MB to a process's
    # start-up, which the CLI's field commands never need
    from scipy.fft import dstn, idstn

    asm = _Assembler(dom, EnergySpec(preset="zero", H=0.0), 2)
    values = phi.values.copy()
    r = asm._node_gradient(*asm.field_at_quad(values))
    (Kx, Mx), (Ky, My) = (_laplace_eigs(n, h) for n, h in zip(dom.n_cells, dom.spacing))
    lam = Kx[:, None] * My[None, :] + Mx[:, None] * Ky[None, :]
    values[1:-1, 1:-1] += idstn(dstn(-r[1:-1, 1:-1], type=1) / lam, type=1)
    return ScalarField(dom, values)


def _laplace_eigs(n: int, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of the 1D Q1 stiffness and mass on n cells of width h."""
    c = np.cos(np.pi * np.arange(1, n) / n)
    return (2.0 - 2.0 * c) / h, h * (4.0 + 2.0 * c) / 6.0


def solve_regularized(
    dom: GridDomain,
    spec: EnergySpec,
    a: float,
    phi: ScalarField,
    cfg: SolverConfig | None = None,
) -> SolveResult:
    """Minimize the regularized energy at fixed a with Dirichlet data phi:
    the one-stage continuation with a_schedule (a,), so a must be finite
    and positive.

    Newton steps on the nodal energy with Armijo backtracking; the residual
    reported is the sup norm of the nodal energy gradient per unit cell
    volume (a discrete divergence defect), evaluated at interior nodes.
    """
    return continuation_minimize(dom, spec, phi, replace(cfg or SolverConfig(), a_schedule=(a,)))


@dataclass
class _Stage:
    """Where `_newton` left a stage at level a: the iterate, its energy E_a
    and residual, the accepted steps and the energy after each.  In a
    workspace, `kin` is the converged iterate's kinematics, views of the
    workspace's buffers valid until the next kernel call in it; else None,
    so that nothing of the quadrature size outlives the stage."""

    values: np.ndarray
    energy: float
    residual: float
    iterations: int
    converged: bool
    energies: tuple
    kin: tuple | None


def _newton(
    asm: _Assembler, a: float, values: np.ndarray, cfg: SolverConfig,
    solver: _LinearSolver, step: np.ndarray | None = None,
    ws: dict | None = None,
) -> _Stage:
    """Damped Newton on the energy at level a from `values`, whose boundary
    already holds the Dirichlet data, or from `values` moved by the
    interior predictor `step` if that has the lower energy.

    Every step assembles the Hessian.  Once the previous accepted step cut
    the residual by _REUSE_GATE, `solver` tries PCG on its held factor
    before it factorizes; a stage's first step always factorizes.  With
    the solve's workspace `ws` the kernels work in its buffers, and a
    converged stage hands on its kinematics; without, they allocate their
    arrays.  No step writes an iterate in place (`scatter_interior` copies).
    """
    energies = []
    iterations = 0
    if step is None:
        kin = asm.kinematics(values, a, ws)
        E = asm.energy(values, a, kin)
    else:
        # a rejected prediction returns no kinematics: in a workspace, the
        # candidate's overwrote those of `values`
        values, kin, E = _euler_predict(asm, a, values, step, ws)
        kin = kin or asm.kinematics(values, a, ws)
    res_prev = 0.0              # no accepted step yet: the gate is closed
    for _ in range(cfg.max_newton_iters):
        g_int = asm.gather_interior(asm.gradient_full(values, a, kin, ws))
        res = float(np.abs(g_int).max()) / asm.vol
        if res <= cfg.newton_tol:
            break
        H = asm.hessian_interior(values, a, kin, ws)
        # without a workspace, release the kinematics (both names of the
        # accepted trial's) before the solve: a factorization is the step's
        # memory peak
        kin = kin_trial = None
        quadratic = res * _REUSE_GATE <= res_prev
        try:
            d = solver.solve(H, -g_int, _PCG_RTOL if quadratic else None)
        except np.linalg.LinAlgError:
            break               # a failed factorization: the stage does not converge
        slope = fixed_dot(g_int, d)
        if slope > 0:           # safeguard: fall back to steepest descent
            d = -g_int
            slope = fixed_dot(g_int, d)
        # once the predicted decrease drops below the resolution of the
        # energy sum itself, the energy can no longer certify a step;
        # fall back to judging trial steps by their residual instead
        endgame = abs(slope) <= 64.0 * np.finfo(float).eps * (1.0 + abs(E))
        t = 1.0
        accepted = False
        for _ in range(_LINE_SEARCH_MAX + 1):
            trial = asm.scatter_interior(values, t * d)
            kin_trial = asm.kinematics(trial, a, ws)
            E_trial = asm.energy(trial, a, kin_trial)
            if E_trial <= E + 1e-4 * t * slope or E_trial <= E:
                accepted = True
                break
            if endgame and asm.residual_norm(trial, a, kin_trial, ws) <= 0.9 * res:
                accepted = True
                break
            t *= _LINE_SEARCH_FACTOR
        if not accepted:
            break               # `res` is still the residual of `values`
        values, kin = trial, kin_trial
        E = E_trial
        res_prev = res
        energies.append(E)
        iterations += 1
    else:
        res = asm.residual_norm(values, a, kin, ws)

    # an overflowing energy has a zero gradient, so its residual proves nothing
    converged = res <= cfg.newton_tol and math.isfinite(E)
    return _Stage(values, E, res, iterations, converged, tuple(energies),
                  kin if converged and ws is not None else None)


def _tangent(
    asm: _Assembler, a: float, stage: _Stage, solver: _LinearSolver,
    ws: dict | None = None,
) -> np.ndarray | None:
    """du/da on the interior at the converged iterate of `stage` at level
    a, -H^-1 dg/da: by PCG on the held factor of the stage's last Newton
    step, else by a new factorization; None, no prediction, if that
    factorization fails.  The kinematics are the stage's own when it
    carries them (in a workspace), else computed here and released before
    the solve, so that none of the quadrature size lives through a
    factorization."""
    kin = stage.kin or asm.kinematics(stage.values, a, ws)
    H = asm.hessian_interior(stage.values, a, kin, ws)
    rhs = -asm.gather_interior(asm.gradient_a(stage.values, a, kin, ws))
    kin = None                  # released before a possible factorization
    try:
        return solver.solve(H, rhs, _TANGENT_RTOL)
    except np.linalg.LinAlgError:
        return None


def _euler_predict(
    asm: _Assembler, a: float, values: np.ndarray, step: np.ndarray,
    ws: dict | None = None,
) -> tuple[np.ndarray, tuple | None, float]:
    """`values` moved by `step` on the interior, with its kinematics and
    E_a, if that lowers E_a; else `values`, None and its E_a.  The energy
    of `values` comes first: its kinematics share ws's buffers with the
    candidate's."""
    E = asm.energy(values, a, ws=ws)
    cand = asm.scatter_interior(values, step)
    kin = asm.kinematics(cand, a, ws)
    E_cand = asm.energy(cand, a, kin)
    if E_cand < E:
        return cand, kin, E_cand
    return values, None, E


def continuation_minimize(
    dom: GridDomain,
    spec: EnergySpec,
    phi: ScalarField,
    cfg: SolverConfig | None = None,
) -> SolveResult:
    """Drive the regularization parameter down the schedule with warm starts.

    Each stage after the first starts from the Euler predictor
    u(a_prev) + (a - a_prev) du/da, where du/da is solved at the previous
    stage's converged iterate, unless that raises the energy at a; every
    stage is still solved to newton_tol.  One linear solver, and its held
    factor, serves every stage.  Stops early once consecutive stage
    solutions differ by less than continuation_stop in sup norm.  The
    result is built once, from the last stage run: its field is the
    SolvedField of that iterate (which marks its values read-only) and its
    energy the unregularized area energy (midpoint rule, H = 0).
    """
    cfg = cfg or SolverConfig()
    asm = _Assembler(dom, spec)
    solver = _LinearSolver(dom.n_cells)
    # the Newton path's workspace, up to _BAND_LIMIT.  There the Hessian
    # assembly is a step's memory peak, and the kept buffers are no more
    # than it allocates anyway.  Over it SuperLU's factorization is the
    # peak.  Kept through it, the buffers raised a 512^2 solve's peak RSS
    # from 736 to 828 MB.  Freed before it and allocated again after, they
    # fragmented the heap: a 128^2 solve peaked at 123-141 MB against
    # 115-126 MB.  So those grids allocate as the kernels go
    # (BENCH_solver.json "workspace_limit")
    ws = {} if min(dom.n_cells) <= _BAND_LIMIT else None
    values = harmonic_extension(dom, phi).values
    stages = []
    prev_values = None
    tangent = None
    a_prev = None
    total_iters = 0
    for k, a in enumerate(cfg.a_schedule):
        step = None if tangent is None else (a - a_prev) * tangent
        stage = _newton(asm, a, values, cfg, solver, step, ws)
        a_prev = a
        values = stage.values
        total_iters += stage.iterations
        diff = float(np.abs(values - prev_values).max()) if prev_values is not None else math.inf
        stages.append((a, stage.iterations, diff))
        if not stage.converged:
            break
        if prev_values is not None and diff <= cfg.continuation_stop:
            break
        prev_values = values
        # a stage that took no Newton step predicts nothing
        last = k + 1 == len(cfg.a_schedule)
        tangent = None if last or not stage.iterations else _tangent(asm, a, stage, solver, ws)
    u = SolvedField(dom, values, spec)
    return SolveResult(
        u=u,
        residual_norm=stage.residual,
        a_final=a,
        iterations=total_iters,
        energy=area_energy(u, EnergySpec(preset=spec.preset, F_field=spec.F_field, H=0.0)),
        converged=stage.converged,
        energy_regularized=stage.energy,
        newton_energies=stage.energies,
        stages=tuple(stages),
        factorizations=solver.factorizations,
        pcg_iterations=solver.pcg_iterations,
    )


# ---- a-posteriori checks -----------------------------------------------------


def comparison_check(
    r1: SolveResult,
    r2: SolveResult,
    phi1: ScalarField,
    phi2: ScalarField,
    spec: EnergySpec,
    tol: float = 1e-6,
) -> dict:
    """Ordering and translation bound for two solutions with ordered data.

    For boundary data phi1 >= phi2 the solutions must satisfy
    0 <= u1 - u2 <= max boundary gap, up to the stated tolerance.  The
    check refuses (rather than fails) when the structural hypothesis
    min div(rotated F) > 0 does not hold, since the bound is not implied
    then.
    """
    dom = r1.u.dom
    report: dict = {"refused": False, "reason": "", "tol": tol}
    if r1.a_final != r2.a_final:
        report["refused"] = True
        report["reason"] = (
            "solutions are at different regularization levels "
            f"(a = {r1.a_final:g} vs {r2.a_final:g}); the ordering bound "
            "compares solutions of the same equation"
        )
        return report
    if not (r1.converged and r2.converged):
        report["refused"] = True
        report["reason"] = "at least one input did not converge"
        return report
    hyp = hypothesis_checks(dom, spec)
    report["min_rotated_divergence"] = hyp["min_rotated_divergence"]
    if not hyp["rotated_divergence_positive"]:
        report["refused"] = True
        report["reason"] = (
            "rotated drift divergence is not strictly positive; "
            "the ordering bound is not guaranteed"
        )
        return report
    bmask = dom.boundary_mask()
    gap = phi1.values[bmask] - phi2.values[bmask]
    if gap.min() < -1e-12:
        report["refused"] = True
        report["reason"] = "boundary data are not ordered (phi1 < phi2 somewhere)"
        return report
    diff = r1.u.values - r2.u.values
    report["min_diff"] = float(diff.min())
    report["max_diff"] = float(diff.max())
    report["upper_bound"] = float(np.abs(gap).max())
    report["lower_ok"] = report["min_diff"] >= -tol
    report["upper_ok"] = report["max_diff"] <= report["upper_bound"] + tol
    report["passed"] = bool(report["lower_ok"] and report["upper_ok"])
    return report


def energy_bound_check(r: SolveResult, spec: EnergySpec, phi: ScalarField) -> dict:
    """A-priori bound: area energy <= sup|phi| * perimeter + sup|F| * area.

    Checked with an O(h) slack of 10 h * perimeter to absorb quadrature
    and trace-approximation differences.
    """
    dom = r.u.dom
    F = spec.F_cells(dom)
    Fmax = float(np.sqrt(dot2(F, F)).max())
    phimax = float(np.abs(phi.values[dom.boundary_mask()]).max())
    slack = 10.0 * dom.h_max * dom.perimeter
    bound = phimax * dom.perimeter + Fmax * dom.area + slack
    lhs = r.energy
    return {
        "energy": lhs,
        "bound": bound,
        "sup_phi": phimax,
        "sup_F": Fmax,
        "slack": slack,
        "passed": bool(lhs <= bound),
    }
