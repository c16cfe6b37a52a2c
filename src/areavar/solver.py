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
`dia_array`.  One `_LinearSolver` per solve, made for the grid's n_cells,
picks the factorization from that half-bandwidth: band Cholesky (LAPACK
dpbtrf) up to _BAND_LIMIT; above it, SuperLU on the stencil gathered into a
CSC matrix in nested-dissection order.  It keeps the latest factor; once
Newton converges quadratically, and for each stage's tangent, it first runs
conjugate gradients preconditioned with that factor.

The quadrature layer runs over strips of whole cell rows
(`_Assembler.evaluate`), in buffers the assembler allocates once, with the
bits of kernels run over the whole grid: each point the Newton path visits
is evaluated in one pass.  Each stage hands its last point on as a
`_Stage`, with the tangent's system; one SolveResult follows the last stage.
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
# Quadrature kernels run over strips of whole cell rows: up to _ONE_STRIP
# cells the grid is one strip, else strips of 4k rows and about _STRIP cells.
# Under OpenBLAS 0.3.31, on one or two threads, that split keeps each
# product's bits (tests/test_solver.py pins it): (m, 4) @ (4, 16) and
# (m, 16) @ (16, 16) under any split, (m, 16) @ (16,) when each strip but the
# last holds 4k cells.  (m, 16) @ (16, 4), the nodal loads, switches kernels
# between 8 192 and 16 384 rows; zero-padded to (16, 16) it has the bits of
# the whole-grid product from 16 384 rows up, so strips form loads that way.
# Another BLAS may need the loads written without it
_ONE_STRIP = 2 ** 14
_STRIP = 2 ** 12


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
    """Per-domain tables for the Gauss-quadrature energy and its derivatives,
    and the buffers its strips are evaluated in (see `evaluate`)."""

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
        # (ncx, ncy, G) views that broadcast Xg, Yg or the cell values
        self.Fx, self.Fy = spec._F_parts(dom, Xg, Yg)

        # linear bulk term: integral of H * shape_k over each cell, (cells,
        # 4); None for a scalar H = 0, whose term would add +-0 to every
        # cell (as in grids.area_energy)
        self.Hlin = None
        if not (np.isscalar(spec.H) and spec.H == 0):
            Hc = spec.H_cells(dom)
            Hlin = self.vol * Hc[..., None] * (self.wq[None, None, :] @ self.S)
            self.Hlin = Hlin.reshape(-1, 4)

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

        # the strips of whole cell rows, (i0, i1), and the load tables: WDx
        # and WDy, zero-padded to 16 columns over one strip (_STRIP says why)
        cut = 4 * max(1, round(_STRIP / (4 * ncy)))
        self.rows = ncx if ncx * ncy <= _ONE_STRIP else min(cut, ncx)
        self.strips = [(i, min(i + self.rows, ncx)) for i in range(0, ncx, self.rows)]
        self.LDx, self.LDy = self.WDx, self.WDy
        if len(self.strips) > 1:
            self.LDx, self.LDy = (np.hstack([W, np.zeros((G, 12))]) for W in (self.WDx, self.WDy))
        self.buffers = {}

    def _array(self, name: str, shape: tuple, alloc=np.empty) -> np.ndarray:
        """The per-cell buffer `name`, allocated by `alloc` at its first use
        and kept, for `evaluate` to fill in place (numpy's `out=`): "cells"
        the energy's cell sums, "loads" the gradients' (cells, 4) loads, "K"
        the Hessian's cell blocks and "stencil" its diagonals, so a Hessian
        is valid until the next one."""
        buf = self.buffers.get(name)
        if buf is None:
            buf = self.buffers[name] = alloc(shape)
        return buf

    def _strip(self, n: int) -> dict:
        """The strip buffers for a strip of n cells, kept like `_array`'s:
        "U" its corner values, "mx", "my" and "r" its kinematics, "s0"-"s2"
        scratch and "P" the loads' products; views of a full strip's."""
        if n not in self.buffers:
            m, w = self.rows * self.ncy, {"U": 4, "P": self.LDx.shape[1]}
            names = ("U", "mx", "my", "r", "s0", "s1", "s2", "P")
            full = self._strip(m) if n < m else {k: np.empty((m, w.get(k, self.G))) for k in names}
            self.buffers[n] = {name: a[:n] for name, a in full.items()}
        return self.buffers[n]

    # -- kinematics ---------------------------------------------------------

    def _field(self, values: np.ndarray, i0: int, i1: int, U: np.ndarray,
               mx: np.ndarray, my: np.ndarray) -> None:
        """Fill U, (cells, 4), with the corner values of the cell rows
        i0 <= i < i1, and mx, my, (cells, G), with grad u + F at their
        quadrature points."""
        V = U.reshape(i1 - i0, self.ncy, 4)
        for k, (di, dj) in enumerate(((0, 0), (1, 0), (0, 1), (1, 1))):
            V[..., k] = values[i0 + di:i1 + di, dj:dj + self.ncy]
        np.matmul(U, self.Dx.T, out=mx)
        np.matmul(U, self.Dy.T, out=my)
        for m, F in ((mx, self.Fx), (my, self.Fy)):
            m3 = m.reshape(i1 - i0, self.ncy, self.G)
            m3 += F[i0:i1]

    def field_load(self, values: np.ndarray) -> np.ndarray:
        """The nodal load, (nx+1, ny+1), of the flux grad u + F over the whole
        grid at once, in fresh arrays, with no H term: `harmonic_extension`'s."""
        n = self.ncx * self.ncy
        mx, my = np.empty((n, self.G)), np.empty((n, self.G))
        self._field(values, 0, self.ncx, np.empty((n, 4)), mx, my)
        C = mx @ self.WDx
        C += my @ self.WDy
        return self._scatter(C)

    def kinematics(self, values: np.ndarray, a: float, i0: int, i1: int) -> tuple:
        """(U, mx, my, r) of the cell rows i0 <= i < i1 (one strip), in the
        strip buffers: the corner values, and m = grad u + F and
        r = sqrt(a^2 + |m|^2) at the quadrature points."""
        b = self._strip((i1 - i0) * self.ncy)
        U, mx, my, r, t = b["U"], b["mx"], b["my"], b["r"], b["s0"]
        self._field(values, i0, i1, U, mx, my)
        # a huge field makes r, and so the energy, inf: `_newton` reports
        # that as non-convergence, without numpy's overflow warning
        with np.errstate(over="ignore"):
            np.multiply(mx, mx, out=r)              # (a^2 + mx^2) + my^2
            r += a * a
            np.multiply(my, my, out=t)
            r += t
            np.sqrt(r, out=r)
        return U, mx, my, r

    # -- energy / gradient / hessian ----------------------------------------

    def evaluate(self, values: np.ndarray, a: float, more=(False, False),
                 gradient: bool = True) -> _Point:
        """The point `values` at level a: E_a and, unless `gradient` is
        False, the nodal gradient dE/du with its residual, in one pass over
        the strips.  `more`, or more(point) once those are known, is a pair
        of flags: add the interior Hessian, add d/da of the nodal gradient
        (the load of -a m / r^3).  A second pass forms them, from the
        kinematics the first left in the buffers on a one-strip grid, else
        from each strip's formed again.  Each value is formed by the numpy
        operations of a whole-grid kernel, in its order, and each product
        keeps its bits under the split (_STRIP)."""
        n_cells = self.ncx * self.ncy
        cells = self._array("cells", (n_cells,))
        loads = self._array("loads", (n_cells, 4))
        for i0, i1 in self.strips:
            c = slice(i0 * self.ncy, i1 * self.ncy)
            U, mx, my, r = kin = self.kinematics(values, a, i0, i1)
            np.matmul(r, self.wq, out=cells[c])
            cells[c] *= self.vol
            if self.Hlin is not None:
                cells[c] += np.einsum("ck,ck->c", self.Hlin[c], U)
            if gradient:
                b = self._strip(len(r))
                wx, wy = b["s0"], b["s1"]
                np.divide(mx, r, out=wx)
                np.divide(my, r, out=wy)
                self._loads(wx, wy, loads[c])
        point = _Point(values, pairwise_sum(cells))
        if not gradient:
            return point
        if self.Hlin is not None:
            loads += self.Hlin
        point.gradient = self._scatter(loads)
        # the interior in any order: max is exact
        point.residual = float(np.abs(point.gradient[1:-1, 1:-1]).max()) / self.vol
        hessian, tangent = more(point) if callable(more) else more
        if not (hessian or tangent):
            return point
        K = self._array("K", (n_cells, 16)) if hessian else None
        for i0, i1 in self.strips:
            c = slice(i0 * self.ncy, i1 * self.ncy)
            _, mx, my, r = kin = self.kinematics(values, a, i0, i1) if len(self.strips) > 1 else kin
            if hessian:
                self._cell_blocks(mx, my, r, K[c])
            if tangent:
                b = self._strip(len(r))
                s, wx, wy = b["s0"], b["s1"], b["s2"]
                np.multiply(r, r, out=s)
                s *= r
                np.divide(-a, s, out=s)
                np.multiply(s, mx, out=wx)
                np.multiply(s, my, out=wy)
                self._loads(wx, wy, loads[c])
        if hessian:
            data = self._array("stencil", (self._stencil_terms[0].size, self.n_int), np.zeros)
            point.hessian = self._stencil(K, data)
        if tangent:
            point.gradient_a = self._scatter(loads)
        return point

    def _loads(self, wx: np.ndarray, wy: np.ndarray, out: np.ndarray) -> None:
        """out = wx @ WDx + wy @ WDy: the (cells, 4) nodal loads of a
        strip's fluxes at its quadrature points, through the load tables."""
        P = self._strip(len(out))["P"]
        np.matmul(wx, self.LDx, out=P)
        out[...] = P[:, :4]
        np.matmul(wy, self.LDy, out=P)
        out += P[:, :4]

    def _scatter(self, C: np.ndarray) -> np.ndarray:
        """The nodal array, (nx+1, ny+1), of the (cells, 4) corner loads C."""
        C = C.reshape(self.ncx, self.ncy, 4)
        out = np.zeros((self.ncx + 1, self.ncy + 1))
        out[:-1, :-1] += C[..., 0]
        out[1:, :-1] += C[..., 1]
        out[:-1, 1:] += C[..., 2]
        out[1:, 1:] += C[..., 3]
        return out

    def _cell_blocks(self, mx: np.ndarray, my: np.ndarray, r: np.ndarray,
                     K: np.ndarray) -> None:
        """K, (cells, 16): a strip's Hessian cell blocks a11 @ Txx + a22 @ Tyy
        + a12 @ Txy of the coefficients 1/r - m m^T / r^3, summed in that
        order.  Each coefficient is formed in the scratch c and contracted
        into K before the next; later products go to 1/r's array."""
        b = self._strip(len(r))
        inv_r, inv_r3, c = b["s0"], b["s1"], b["s2"]
        np.divide(1.0, r, out=inv_r)
        np.divide(inv_r, r, out=inv_r3)
        inv_r3 *= inv_r
        np.multiply(mx, mx, out=c)
        c *= inv_r3
        np.subtract(inv_r, c, out=c)                     # a11
        np.matmul(c, self.Txx, out=K)
        np.multiply(my, my, out=c)
        c *= inv_r3
        np.subtract(inv_r, c, out=c)                     # a22
        np.matmul(c, self.Tyy, out=inv_r)                # 1/r is dead from here
        K += inv_r
        np.negative(mx, out=c)
        c *= my
        c *= inv_r3                                      # a12
        np.matmul(c, self.Txy, out=inv_r)
        K += inv_r

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

    def _stencil(self, K: np.ndarray, data: np.ndarray) -> sp.dia_array:
        """The interior matrix of the (cells, 16) cell blocks K as its 9
        diagonals, data[k, col] = A[col - offsets[k], col] with the offsets
        ascending, rows and columns numbered as in `_strides`.  Each diagonal
        is summed from strided slices of the blocks: every entry adds its
        cell terms in ascending cell order, as np.add.reduceat would.  Slots
        that hold no entry are 0: those past the matrix's edge, and those of
        node pairs that are not neighbours.  The array keeps `data` without
        a copy, and its product adds each row's terms in ascending offset,
        that is ascending column, order into zeros: the bits of the CSC
        product.  `data` is zeros, or a buffer an earlier call filled: every
        call writes the same slots."""
        B = K.reshape(self.ncx, self.ncy, 4, 4)     # [ci, cj, row corner, col corner]
        offsets, terms = self._stencil_terms
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
    r = asm.field_load(values)
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
class _Point:
    """A point at level a as `_Assembler.evaluate` left it: values, E_a,
    nodal gradient and residual sup|g|/vol over the interior nodes, and as
    asked for, the interior Hessian and d/da of the nodal gradient."""

    values: np.ndarray
    energy: float
    gradient: np.ndarray | None = None
    residual: float = math.nan
    hessian: sp.dia_array | None = None
    gradient_a: np.ndarray | None = None


@dataclass
class _Stage:
    """Where `_newton` left a stage: its last point, steps and energies."""

    point: _Point
    iterations: int
    converged: bool
    energies: tuple


def _newton(
    asm: _Assembler, a: float, values: np.ndarray, cfg: SolverConfig,
    solver: _LinearSolver, step: np.ndarray | None = None, tangent=None,
) -> _Stage:
    """Damped Newton on the energy at level a from `values`, whose boundary
    already holds the Dirichlet data, or from `values` moved by the
    interior predictor `step` if that has the lower energy.

    Each point visited is evaluated once; an iterate also gets the Hessian
    for its step or, once it ends a stage that took a step, the Hessian
    and dg/da for `_tangent` if `tangent`, a function of its values, says
    that a tangent follows there.  Once the previous accepted step
    cut the residual by _REUSE_GATE, `solver` tries PCG on its held factor
    before it factorizes; a stage's first step always factorizes.  No step
    writes an iterate in place (`scatter_interior` copies).
    """
    tol = cfg.newton_tol
    energies = []

    def more(q: _Point, steps: int) -> tuple[bool, bool]:
        # an iterate after `steps` accepted steps: the Hessian for a further
        # step, or the tangent's system once it converged after a step
        if q.residual > tol:
            return steps < cfg.max_newton_iters, False
        return (steps > 0 and math.isfinite(q.energy) and tangent is not None
                and tangent(q.values),) * 2

    if step is None:
        p = asm.evaluate(values, a, lambda q: more(q, 0))
    else:
        p = _euler_predict(asm, a, values, step, lambda q: more(q, 0))
    res_prev = 0.0              # no accepted step yet: the gate is closed
    while p.residual > tol and len(energies) < cfg.max_newton_iters:
        g_int = asm.gather_interior(p.gradient)
        quadratic = p.residual * _REUSE_GATE <= res_prev
        try:
            d = solver.solve(p.hessian, -g_int, _PCG_RTOL if quadratic else None)
        except np.linalg.LinAlgError:
            break               # a failed factorization: the stage does not converge
        slope = fixed_dot(g_int, d)
        if slope > 0:           # safeguard: fall back to steepest descent
            d = -g_int
            slope = fixed_dot(g_int, d)
        # once the predicted decrease drops below the resolution of the
        # energy sum itself, the energy can no longer certify a step;
        # fall back to judging trial steps by their residual instead
        endgame = abs(slope) <= 64.0 * np.finfo(float).eps * (1.0 + abs(p.energy))
        t = 1.0

        def accepts(q: _Point) -> bool:
            return (q.energy <= p.energy + 1e-4 * t * slope or q.energy <= p.energy
                    or endgame and q.residual <= 0.9 * p.residual)

        for _ in range(_LINE_SEARCH_MAX + 1):
            trial = asm.evaluate(asm.scatter_interior(p.values, t * d), a, lambda q: (
                more(q, len(energies) + 1) if accepts(q) else (False, False)))
            if accepts(trial):
                break
            t *= _LINE_SEARCH_FACTOR
        else:
            break               # p is still the last iterate
        res_prev = p.residual
        p = trial
        energies.append(p.energy)

    # an overflowing energy has a zero gradient, so its residual proves nothing
    converged = p.residual <= tol and math.isfinite(p.energy)
    return _Stage(p, len(energies), converged, tuple(energies))


def _tangent(asm: _Assembler, stage: _Stage, solver: _LinearSolver) -> np.ndarray | None:
    """du/da on the interior at the converged iterate of `stage`,
    -H^-1 dg/da from the system its point holds (`_newton` with `tangent`):
    by PCG on the held factor of the stage's last Newton step, else by a new
    factorization; None, no prediction, if that factorization fails."""
    try:
        return solver.solve(stage.point.hessian, -asm.gather_interior(stage.point.gradient_a),
                            _TANGENT_RTOL)
    except np.linalg.LinAlgError:
        return None


def _euler_predict(asm: _Assembler, a: float, values: np.ndarray, step: np.ndarray,
                   more) -> _Point:
    """The point of `values` moved by `step` on the interior if that lowers
    E_a, else the point of `values`, evaluated with `more` (see
    `_Assembler.evaluate`).  The energy of `values` comes first, alone."""
    E = asm.evaluate(values, a, gradient=False).energy
    cand = asm.evaluate(asm.scatter_interior(values, step), a,
                        lambda q: more(q) if q.energy < E else (False, False))
    return cand if cand.energy < E else asm.evaluate(values, a, more)


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
    stage is still solved to newton_tol.  One assembler, with its buffers,
    and one linear solver, with its held factor, serve every stage.  Stops
    early once consecutive stage solutions differ by less than
    continuation_stop in sup norm.  The result is built once, from the
    last stage run: its field is the SolvedField of that iterate (which
    marks its values read-only) and its energy the unregularized area
    energy (midpoint rule, H = 0).
    """
    cfg = cfg or SolverConfig()
    asm = _Assembler(dom, spec)
    solver = _LinearSolver(dom.n_cells)
    values = harmonic_extension(dom, phi).values
    stages = []
    prev_values = None
    tangent = None
    a_prev = None
    total_iters = 0
    for k, a in enumerate(cfg.a_schedule):
        step = None if tangent is None else (a - a_prev) * tangent
        last = k + 1 == len(cfg.a_schedule)
        stage = _newton(asm, a, values, cfg, solver, step, None if last else (   # unless it stops
            lambda v, p=prev_values: p is None or not np.abs(v - p).max() <= cfg.continuation_stop))
        a_prev = a
        values = stage.point.values
        total_iters += stage.iterations
        diff = float(np.abs(values - prev_values).max()) if prev_values is not None else math.inf
        stages.append((a, stage.iterations, diff))
        if not stage.converged or diff <= cfg.continuation_stop:
            break
        prev_values = values
        # a stage that took no Newton step predicts nothing
        tangent = None if last or not stage.iterations else _tangent(asm, stage, solver)
    u = SolvedField(dom, values, spec)
    return SolveResult(
        u=u,
        residual_norm=stage.point.residual,
        a_final=a,
        iterations=total_iters,
        energy=area_energy(u, EnergySpec(preset=spec.preset, F_field=spec.F_field, H=0.0)),
        converged=stage.converged,
        energy_regularized=stage.point.energy,
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
