import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from scipy.sparse import csc_matrix, dia_array

import areavar.solver as solver_module
from areavar.grids import (
    EnergySpec,
    GridDomain,
    ScalarField,
    VectorField,
    area_energy,
    singular_set,
)
from areavar.solver import (
    _BAND_LIMIT,
    _PCG_MAXITER,
    _PCG_RTOL,
    _TANGENT_RTOL,
    SolverConfig,
    _Assembler,
    _euler_predict,
    _LinearSolver,
    _nested_dissection,
    _nested_dissection_pattern,
    _newton,
    _tangent,
    comparison_check,
    continuation_minimize,
    energy_bound_check,
    harmonic_extension,
    solve_regularized,
)
from areavar.util import fixed_dot

SQ = ((-1.0, 1.0), (-1.0, 1.0))
P_AREA = EnergySpec(preset="p_area")
ZERO = EnergySpec(preset="zero")


def dom_n(n):
    return GridDomain(SQ, (n, n))


def field(dom, fn):
    return ScalarField.from_function(dom, fn)


# ---- oracles ----------------------------------------------------------------------
# independent references the shipped assembly and solver are checked against

# the Picard oracle's residual tolerance, iteration cap and step damping
_PICARD_TOL = 1e-9
_PICARD_MAX_ITERS = 500
_PICARD_DAMPING = 0.7


def _stiffness(asm, a11, a12, a22):
    """Interior stiffness of the per-quadrature-point coefficient matrix
    [[a11, a12], [a12, a22]] (each (ncx, ncy, G); a12=None means 0), as
    the `dia_array` of `_stencil`."""
    G = asm.G
    K = a11.reshape(-1, G) @ asm.Txx
    K += a22.reshape(-1, G) @ asm.Tyy
    if a12 is not None:
        K += a12.reshape(-1, G) @ asm.Txy
    return asm._stencil(K)


def _quadratic_gradient(asm, values, coeff):
    """Gradient of the frozen quadratic (plus the H term) at every node."""
    mx, my = asm.field_at_quad(values)
    return asm._node_gradient(coeff * mx, coeff * my)


def _picard(dom, spec, a, phi):
    """Damped lagged-coefficient (Picard) iteration (Vogel & Oman, SIAM J.
    Sci. Comput. 17 (1996)): freezes the weight 1/sqrt(a^2 + |grad u + F|^2)
    at the current iterate, solves the frozen linear problem and moves a
    damped step toward its minimizer.  Converges linearly; an
    algorithmically independent cross-check of the Newton solver.  Returns
    the converged nodal values, or None."""
    asm = _Assembler(dom, spec)
    solver = _LinearSolver(dom.n_cells)
    values = harmonic_extension(dom, phi).values
    for _ in range(_PICARD_MAX_ITERS):
        kin = asm.kinematics(values, a)
        if asm.residual_norm(values, a, kin) <= _PICARD_TOL:
            return values
        # the frozen quadratic 0.5 * sum wq * coeff * |grad u + F|^2
        coeff = 1.0 / kin[2]
        A = _stiffness(asm, coeff, None, coeff)
        r = asm.gather_interior(_quadratic_gradient(asm, values, coeff))
        # PCG on the previous frozen matrix's factor, else a new factor
        d = solver.solve(A, -r, _PCG_RTOL)
        values = asm.scatter_interior(values, _PICARD_DAMPING * d)
    return None


# ---- exactness ------------------------------------------------------------------


def test_affine_data_reproduced_exactly():
    dom = dom_n(32)
    phi = field(dom, lambda x, y: 2.0 * x - 0.7 * y + 0.3)
    res = solve_regularized(dom, ZERO, 1.0, phi)
    assert res.converged
    assert res.residual_norm <= 1e-12
    assert np.abs(res.u.values - phi.values).max() <= 1e-12


def test_affine_data_continuation_stops_immediately():
    dom = dom_n(32)
    phi = field(dom, lambda x, y: -x + 0.5 * y)
    res = continuation_minimize(dom, ZERO, phi)
    assert res.converged
    assert len(res.stages) == 2  # the first repeat already matches
    assert np.abs(res.u.values - phi.values).max() <= 1e-10


def test_plane_solves_drift_equation_for_every_a():
    dom = dom_n(64)
    phi = field(dom, lambda x, y: 2.0 * x - y + 1.0)
    for a in (1.0, 0.25):
        res = solve_regularized(dom, P_AREA, a, phi)
        assert res.converged
        assert res.residual_norm <= 1e-10
        assert np.abs(res.u.values - phi.values).max() <= 1e-8
    res = continuation_minimize(dom, P_AREA, phi)
    assert np.abs(res.u.values - phi.values).max() <= 1e-8


def test_agrees_with_damped_fixed_point_oracle():
    dom = dom_n(64)
    phi = field(dom, lambda x, y: x * x - y * y)
    newton = solve_regularized(dom, ZERO, 1.0, phi)
    picard = _picard(dom, ZERO, 1.0, phi)
    assert newton.converged and picard is not None
    assert np.abs(newton.u.values - picard).max() <= 1e-6


OFFSET_BOX = ((-1.0, 0.4), (0.2, 1.1))


@pytest.mark.parametrize("n_cells", [(2, 2), (2, 5), (7, 3), (32, 35)])
def test_harmonic_extension_matches_assembled_direct_solve(n_cells):
    # non-square grids: swapped eigenvalue axes would not survive this
    dom = GridDomain(OFFSET_BOX, n_cells)
    phi = field(dom, lambda x, y: np.sin(3 * x) * np.exp(y) + x * y * y)
    asm = _Assembler(dom, ZERO, 2)
    ones = np.ones((asm.ncx, asm.ncy, asm.G))
    r = asm.gather_interior(_quadratic_gradient(asm, phi.values, ones))
    d = spla.spsolve(_stiffness(asm, ones, None, ones).tocsc(), -r)
    direct = asm.scatter_interior(phi.values, d)
    assert np.abs(harmonic_extension(dom, phi).values - direct).max() <= 1e-12


def test_harmonic_extension_keeps_bilinear_data():
    dom = GridDomain(OFFSET_BOX, (7, 3))
    phi = field(dom, lambda x, y: 0.3 - 1.1 * x + 0.8 * y + 2.0 * x * y)
    assert np.abs(harmonic_extension(dom, phi).values - phi.values).max() <= 1e-14


def test_xy_limit_energy_and_band():
    dom = dom_n(64)
    phi = field(dom, lambda x, y: x * y)
    res = continuation_minimize(dom, P_AREA, phi)
    assert res.converged
    # analytic area of the stationary graph: integral of |2x| over the square
    assert abs(res.energy - 4.0) <= 0.04
    ss = singular_set(res.u, P_AREA)
    xc = dom.axis_centers(0)
    cells = np.argwhere(ss.mask)
    assert len(cells) > 0
    assert max(abs(xc[i]) for i, _ in cells) <= 2.0 * dom.h_max


# ---- invariants of the iteration ----------------------------------------------------


def test_newton_steps_never_increase_energy():
    dom = dom_n(32)
    phi = field(dom, lambda x, y: np.sin(2 * x) * np.cos(y) + 0.4 * x * y)
    res = solve_regularized(dom, P_AREA, 0.5, phi)
    assert res.converged
    # a fixed-a solve is the one-stage continuation
    assert res.stages == ((0.5, res.iterations, math.inf),)
    es = res.newton_energies
    assert len(es) >= 1
    for e1, e2 in zip(es, es[1:]):
        assert e2 <= e1 + 1e-12 * (1.0 + abs(e1))


def test_stage_energies_decrease_with_a():
    dom = dom_n(32)
    phi = field(dom, lambda x, y: x * y)
    cfg = SolverConfig()
    asm = _Assembler(dom, P_AREA)
    values = harmonic_extension(dom, phi).values
    prev = None
    for a in (1.0, 0.5, 0.25, 0.125, 0.0625):
        stage = _newton(asm, a, values, cfg, _LinearSolver(dom.n_cells))
        assert stage.converged
        values = stage.values
        if prev is not None:
            assert stage.energy <= prev + 1e-10
        prev = stage.energy


def test_monotone_boundary_approximation():
    dom = dom_n(24)
    base = field(dom, lambda x, y: x * y)
    a = 1.0 / 16.0
    star = solve_regularized(dom, P_AREA, a, base)
    prev = None
    for j in (1, 2, 3, 4):
        phi_j = ScalarField(dom, base.values - 1.0 / j)
        r_j = solve_regularized(dom, P_AREA, a, phi_j)
        assert r_j.converged
        # solutions increase with the boundary data and approach the limit
        if prev is not None:
            assert (r_j.u.values - prev).min() >= -1e-8
        assert abs(np.abs(r_j.u.values - star.u.values).max() - 1.0 / j) <= 1e-6
        prev = r_j.u.values


def test_continuation_limit_is_minimal_under_perturbations():
    dom = dom_n(32)
    phi = field(dom, lambda x, y: x * y)
    res = continuation_minimize(dom, P_AREA, phi)
    e0 = res.energy
    rng = np.random.RandomState(11)
    Xn, Yn = dom.node_coords()
    window = (1 - Xn**2) * (1 - Yn**2)
    for _ in range(20):
        amp = 10.0 ** rng.uniform(-2, 0)
        psi = window * (
            rng.randn() * np.sin(rng.randn() + 2 * Xn) * np.cos(rng.randn() + 2 * Yn)
            + 0.3 * rng.randn()
        )
        psi = amp * psi / max(1e-12, np.abs(psi).max())
        perturbed = ScalarField(dom, res.u.values + psi)
        assert area_energy(perturbed, P_AREA) >= e0 - 1e-9


# ---- comparison principle ---------------------------------------------------------


def test_comparison_translation_invariance():
    dom = dom_n(32)
    phi2 = field(dom, lambda x, y: x * y)
    phi1 = ScalarField(dom, phi2.values + 1.0)
    r2 = solve_regularized(dom, P_AREA, 0.25, phi2)
    r1 = solve_regularized(dom, P_AREA, 0.25, phi1)
    assert np.abs((r1.u.values - r2.u.values) - 1.0).max() <= 1e-8
    rep = comparison_check(r1, r2, phi1, phi2, P_AREA)
    assert not rep["refused"]
    assert rep["passed"]
    assert abs(rep["upper_bound"] - 1.0) <= 1e-15


def test_comparison_identical_data():
    dom = dom_n(24)
    phi = field(dom, lambda x, y: np.sin(x) + 0.2 * y)
    r1 = solve_regularized(dom, P_AREA, 0.5, phi)
    r2 = solve_regularized(dom, P_AREA, 0.5, phi)
    rep = comparison_check(r1, r2, phi, phi, P_AREA)
    assert rep["passed"]
    assert abs(rep["min_diff"]) <= 1e-10 and abs(rep["max_diff"]) <= 1e-10


def test_comparison_random_ordered_pairs():
    dom = dom_n(24)
    rng = np.random.RandomState(30)
    a = 0.125
    for _ in range(3):
        c = rng.randn(4) * 0.5
        lower = field(dom, lambda x, y: c[0] * x + c[1] * y + 0.3 * np.sin(x + c[2]))
        gap = rng.uniform(0.05, 0.5)
        upper = ScalarField(
            dom, lower.values + gap * (1.0 + 0.5 * np.sin(3 * dom.node_coords()[0] + c[3]))
        )
        r_lo = solve_regularized(dom, P_AREA, a, lower)
        r_hi = solve_regularized(dom, P_AREA, a, upper)
        rep = comparison_check(r_hi, r_lo, upper, lower, P_AREA)
        assert not rep["refused"]
        assert rep["passed"]


def test_comparison_refusals():
    dom = dom_n(16)
    phi = field(dom, lambda x, y: x * y)
    r_half = solve_regularized(dom, P_AREA, 0.5, phi)
    r_quart = solve_regularized(dom, P_AREA, 0.25, phi)
    rep = comparison_check(r_half, r_quart, phi, phi, P_AREA)
    assert rep["refused"] and "regularization" in rep["reason"]

    bad = replace(r_half, converged=False)
    rep = comparison_check(bad, r_half, phi, phi, P_AREA)
    assert rep["refused"]

    # zero drift has no strictly positive rotated divergence: refuse
    r1 = solve_regularized(dom, ZERO, 0.5, phi)
    r2 = solve_regularized(dom, ZERO, 0.5, phi)
    rep = comparison_check(r1, r2, phi, phi, ZERO)
    assert rep["refused"] and "divergence" in rep["reason"]

    # unordered boundary data: refuse rather than compare
    other = field(dom, lambda x, y: x * y + np.sin(3 * x))
    r3 = solve_regularized(dom, P_AREA, 0.5, other)
    rep = comparison_check(r_half, r3, phi, other, P_AREA)
    assert rep["refused"] and "ordered" in rep["reason"]


# ---- energy bounds ----------------------------------------------------------------


def test_energy_bound_xy():
    dom = dom_n(64)
    phi = field(dom, lambda x, y: x * y)
    res = continuation_minimize(dom, P_AREA, phi)
    rep = energy_bound_check(res, P_AREA, phi)
    assert rep["passed"]
    assert abs(rep["sup_phi"] - 1.0) <= 1e-15
    # the drift sup is taken over cell centers, half a spacing inside the corner
    assert abs(rep["sup_F"] - math.sqrt(2.0) * (1.0 - 0.5 * dom.h_max)) <= 1e-12
    # analytic energy 4 against the explicit bound 8 + 4 sqrt(2) (plus slack)
    assert rep["energy"] <= 8.0 + 4.0 * math.sqrt(2.0)


def test_energy_bound_plane_strict():
    dom = dom_n(32)
    phi = field(dom, lambda x, y: 0.5 * x - 0.25 * y)
    res = continuation_minimize(dom, P_AREA, phi)
    rep = energy_bound_check(res, P_AREA, phi)
    assert rep["passed"]
    assert rep["energy"] < rep["bound"] - rep["slack"]


# ---- assembly ---------------------------------------------------------------------


@pytest.mark.parametrize("a", [1.0, 1e-2])
def test_assembled_matrices_are_derivatives_of_the_gradients(a):
    dom = dom_n(6)
    asm = _Assembler(dom, EnergySpec(preset="p_area", H=0.3), 4)
    rng = np.random.RandomState(5)
    u = rng.randn(7, 7)
    v_int = rng.randn(asm.n_int)
    v = asm.scatter_interior(np.zeros((7, 7)), v_int)
    coeff = rng.uniform(0.5, 2.0, (6, 6, asm.G))
    eps = 1e-6

    def central(grad):
        return asm.gather_interior((grad(u + eps * v) - grad(u - eps * v)) / (2 * eps))

    def rel(x, y):
        return np.linalg.norm(x - y) / np.linalg.norm(y)

    H = asm.hessian_interior(u, a)
    assert rel(H @ v_int, central(lambda w: asm.gradient_full(w, a))) <= 1e-6
    Q = _stiffness(asm, coeff, None, coeff)
    assert rel(Q @ v_int, central(lambda w: _quadratic_gradient(asm, w, coeff))) <= 1e-6
    for A in (H.tocsc(), Q.tocsc()):
        assert A.shape == (asm.n_int, asm.n_int)
        assert abs(A - A.T).max() <= 1e-14 * abs(A).max()


@pytest.mark.parametrize("a", [1.0, 1e-2])
def test_gradient_a_is_the_a_derivative_of_the_gradient(a):
    dom = dom_n(6)
    asm = _Assembler(dom, EnergySpec(preset="p_area", H=0.3), 4)
    u = np.random.RandomState(7).randn(7, 7)
    eps = 1e-4 * a
    central = (asm.gradient_full(u, a + eps) - asm.gradient_full(u, a - eps)) / (2 * eps)
    ga = asm.gradient_a(u, a)
    assert np.linalg.norm(ga - central) <= 1e-6 * np.linalg.norm(central)
    # the shared kinematics give the same bits as fresh ones
    kin = asm.kinematics(u, a)
    assert np.array_equal(asm.gradient_a(u, a, kin), ga)
    assert np.array_equal(asm.gradient_full(u, a, kin), asm.gradient_full(u, a))
    assert asm.energy(u, a, kin) == asm.energy(u, a)


@pytest.mark.parametrize("preset", ["p_area", "zero"])
def test_scalar_zero_H_skips_the_bulk_term_bit_for_bit(preset):
    dom = GridDomain(OFFSET_BOX, (7, 5))
    scalar = _Assembler(dom, EnergySpec(preset=preset, H=0.0), 4)
    per_cell = _Assembler(dom, EnergySpec(preset=preset, H=np.zeros((7, 5))), 4)
    assert scalar.Hlin is None and per_cell.Hlin is not None
    u = np.random.RandomState(9).randn(8, 6)
    for a in (1.0, 1e-3):
        assert np.float64(scalar.energy(u, a)).view(np.int64) == \
            np.float64(per_cell.energy(u, a)).view(np.int64)
        for grad in ("gradient_full", "gradient_a"):
            g, ref = (getattr(asm, grad)(u, a) for asm in (scalar, per_cell))
            assert np.array_equal(g.view(np.int64), ref.view(np.int64))


def test_stiffness_matches_per_point_reference():
    asm = _Assembler(dom_n(6), P_AREA, 4)
    a11, a12, a22 = np.random.RandomState(6).randn(3, 6, 6, asm.G)
    # one cell and one Gauss point at a time
    ref = np.zeros((49, 49))
    corners = _corner_nodes(6, 6)
    for i in range(6):
        for j in range(6):
            nodes = corners[i, j]
            for g in range(asm.G):
                B = np.stack([asm.Dx[g], asm.Dy[g]])
                C = np.array([[a11[i, j, g], a12[i, j, g]], [a12[i, j, g], a22[i, j, g]]])
                ref[np.ix_(nodes, nodes)] += asm.wq[g] * asm.vol * B.T @ C @ B
    interior = asm.gather_interior(np.arange(49).reshape(7, 7))
    ref = ref[np.ix_(interior, interior)]
    K = _stiffness(asm, a11, a12, a22).tocsc().toarray()
    assert np.abs(K - ref).max() <= 1e-13 * np.abs(ref).max()


def test_hessian_is_the_stiffness_of_its_coefficients():
    # formed one coefficient at a time, the Hessian keeps stiffness's bits,
    # on a band grid and over _BAND_LIMIT cells across
    for n in (9, 65):
        asm = _Assembler(dom_n(n), EnergySpec(preset="p_area", H=0.3), 4)
        u = np.random.RandomState(8).randn(n + 1, n + 1)
        for a in (1.0, 1e-3):
            mx, my, r = asm.kinematics(u, a)
            inv_r = 1.0 / r
            inv_r3 = inv_r / r * inv_r
            H = asm.hessian_interior(u, a)
            S = _stiffness(asm, inv_r - mx * mx * inv_r3, -mx * my * inv_r3,
                           inv_r - my * my * inv_r3)
            assert type(H) is type(S) is dia_array
            assert H.shape == S.shape == (asm.n_int, asm.n_int)
            for attr in ("data", "offsets"):
                assert np.array_equal(getattr(H, attr), getattr(S, attr))


def _node_ids(n_cells):
    return np.arange((n_cells[0] + 1) * (n_cells[1] + 1)).reshape(n_cells[0] + 1, -1)


@pytest.mark.parametrize("n_cells", [(2, 2), (2, 5), (7, 3), (32, 35)])
def test_interior_ordering_is_a_permutation_of_the_interior_nodes(n_cells):
    dom = GridDomain(OFFSET_BOX, n_cells)
    asm = _Assembler(dom, ZERO, 2)
    interior = asm.gather_interior(_node_ids(n_cells))
    expected = np.flatnonzero(~dom.boundary_mask().ravel())
    assert interior.size == asm.n_int == expected.size
    assert np.array_equal(np.sort(interior), expected)
    # scatter_interior puts each entry where gather_interior takes it from
    spread = asm.scatter_interior(np.zeros(dom.boundary_mask().shape), np.arange(asm.n_int))
    assert np.array_equal(spread.ravel()[interior], np.arange(asm.n_int))
    assert not spread[dom.boundary_mask()].any()
    # the solver's renumbering is a permutation onto nested dissection
    ones = np.ones((asm.ncx, asm.ncy, asm.G))
    perm = _nested_dissection_pattern(_stiffness(asm, ones, None, ones), n_cells)[0]
    assert np.array_equal(np.sort(perm), np.arange(asm.n_int))
    assert np.array_equal(interior[perm], _nested_dissection(*n_cells))


@pytest.mark.parametrize("n_cells", [(2, 2), (7, 3), (32, 35), (64, 12), (65, 70), (72, 65)])
def test_interior_is_numbered_by_nested_dissection_on_first_use(monkeypatch, n_cells):
    # the stencil numbers the interior line by line with the short axis
    # fastest on every grid; over _BAND_LIMIT cells across, a solver
    # renumbers it by nested dissection of its own n_cells at its first solve
    asm = _Assembler(GridDomain(OFFSET_BOX, n_cells), ZERO, 2)
    interior = asm.gather_interior(_node_ids(n_cells))
    assert np.array_equal(interior, _short_axis_first(*n_cells))
    i, j = np.divmod(interior, n_cells[1] + 1)
    long_axis, short_axis = (i, j) if n_cells[1] <= n_cells[0] else (j, i)
    assert np.array_equal(np.lexsort((short_axis, long_axis)), np.arange(asm.n_int))
    ones = np.ones((asm.ncx, asm.ncy, asm.G))
    A = _stiffness(asm, ones, None, ones)
    assert A.offsets[-1] == min(n_cells)
    solver = _LinearSolver(n_cells)
    assert solver.nd_pattern is None
    numbered = []
    nested_dissection = solver_module._nested_dissection
    monkeypatch.setattr(solver_module, "_nested_dissection",
                        lambda *grid: numbered.append(grid) or nested_dissection(*grid))
    solver.solve(A, np.ones(asm.n_int))
    if min(n_cells) <= _BAND_LIMIT:
        assert solver.nd_pattern is None and numbered == []
        return
    assert numbered == [n_cells]
    assert np.array_equal(interior[solver.nd_pattern[0]], _nested_dissection(*n_cells))


def test_csc_pattern_is_built_by_the_first_newton_step():
    # over _BAND_LIMIT cells across, once per solver; band grids never build
    # it: their Hessian is factorized as a stencil
    for n_cells in ((9, 12), (65, 70)):
        _check_csc_pattern_built_once(n_cells, banded=min(n_cells) <= _BAND_LIMIT)


def _check_csc_pattern_built_once(n_cells, banded):
    dom = GridDomain(OFFSET_BOX, n_cells)
    cfg = SolverConfig(max_newton_iters=1)
    asm = _Assembler(dom, P_AREA)
    solver = _LinearSolver(dom.n_cells)
    # the saddle xy is exact at every a: 0 Newton steps, no Hessian
    xy = harmonic_extension(dom, field(dom, lambda x, y: x * y)).values
    stage = _newton(asm, 1.0, xy, cfg, solver)
    assert stage.iterations == 0 and solver.nd_pattern is None
    phi = field(dom, lambda x, y: x * y + 0.3 * np.sin(2 * x + 0.3 * y))
    stage = _newton(asm, 1.0, harmonic_extension(dom, phi).values, cfg, solver)
    assert stage.iterations == 1
    if banded:
        assert solver.nd_pattern is None
        return
    pattern = solver.nd_pattern
    assert pattern is not None
    # the next solve, the stage's tangent, reuses it
    assert _tangent(asm, 1.0, stage, solver) is not None
    assert solver.nd_pattern is pattern


def test_csc_gather_fills_one_kept_buffer():
    # over _BAND_LIMIT every factorization gathers the stencil's data into
    # the solver's one buffer, in place: no array of that size is allocated
    n_cells = (70, 66)
    asm, u, A, _ = _smooth_hessian(n_cells)
    solver = _LinearSolver(n_cells)
    _, C = solver._nested_dissection_csc(A)
    buf = solver.nd_data
    assert np.shares_memory(C.data, buf)
    B = asm.hessian_interior(u, 0.5)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        _, C = solver._nested_dissection_csc(B)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert solver.nd_data is buf and np.shares_memory(C.data, buf)
    assert peak - current < buf.nbytes // 4
    slots = solver.nd_pattern[1]
    assert np.array_equal(_bits(C.data), _bits(B.data.reshape(-1)[slots]))


def _custom_drift(dom):
    Xc, Yc = dom.center_coords()
    return VectorField(dom, np.stack([np.sin(3 * Xc) - Yc, Xc * Yc + 0.5], axis=-1))


@pytest.mark.parametrize("quad_order", [1, 2, 4])
def test_custom_drift_is_its_cell_value_at_every_gauss_point(quad_order):
    dom = GridDomain(OFFSET_BOX, (7, 11))
    F = _custom_drift(dom)
    asm = _Assembler(dom, EnergySpec(preset="custom", F_field=F), quad_order)
    G = quad_order * quad_order
    assert asm.Fx.shape == asm.Fy.shape == (7, 11, G)
    assert np.array_equal(asm.Fx, np.repeat(F.values[..., 0:1], G, axis=-1))
    assert np.array_equal(asm.Fy, np.repeat(F.values[..., 1:2], G, axis=-1))


def test_custom_drift_needs_points_per_cell_on_its_own_grid():
    dom = GridDomain(OFFSET_BOX, (7, 11))
    spec = EnergySpec(preset="custom", F_field=_custom_drift(dom))
    Xc, Yc = dom.center_coords()
    assert np.array_equal(spec.F_at(dom, Xc, Yc), spec.F_field.values)
    X, Y = dom.node_coords()                  # (8, 12): one more than per cell
    with pytest.raises(ValueError, match="per cell"):
        spec.F_at(dom, X, Y)
    with pytest.raises(ValueError, match="per cell"):
        spec.F_at(dom, Xc.T, Yc.T)            # (11, 7): axes swapped
    with pytest.raises(ValueError, match="per cell"):
        spec.F_at(dom, Xc[0], Yc[0])          # one row of cells
    other = GridDomain(OFFSET_BOX, (7, 10))
    Xo, Yo = other.center_coords()
    with pytest.raises(ValueError, match="different grid"):
        spec.F_at(other, Xo, Yo)


def test_newton_direction_matches_spsolve():
    dom = GridDomain(OFFSET_BOX, (32, 35))
    asm = _Assembler(dom, EnergySpec(preset="p_area", H=0.3), 4)
    u = field(dom, lambda x, y: x * y + 0.3 * np.sin(2 * x + 0.3 * y)).values
    for a in (1.0, 1e-3):
        g = asm.gather_interior(asm.gradient_full(u, a))
        A = asm.hessian_interior(u, a)
        C = A.tocsc()
        ref = spla.spsolve(C, -g)
        # band Cholesky, then SuperLU as the over-limit grids call it
        for d in (_LinearSolver(dom.n_cells).solve(A, -g), _superlu_reference(C).solve(-g)):
            assert np.abs(d - ref).max() <= 1e-12 * np.abs(ref).max()


def test_two_column_solve_matches_spsolve_per_column():
    dom = GridDomain(OFFSET_BOX, (32, 35))
    asm = _Assembler(dom, EnergySpec(preset="p_area", H=0.3), 4)
    u = field(dom, lambda x, y: x * y + 0.3 * np.sin(2 * x + 0.3 * y)).values
    a = 1e-2
    A = asm.hessian_interior(u, a)
    rhs = -np.column_stack([
        asm.gather_interior(asm.gradient_full(u, a)),
        asm.gather_interior(asm.gradient_a(u, a)),
    ])
    C = A.tocsc()
    refs = [spla.spsolve(C, rhs[:, k]) for k in range(2)]
    # band Cholesky, then SuperLU as the over-limit grids call it
    for x in (_LinearSolver(dom.n_cells).solve(A, rhs), _superlu_reference(C).solve(rhs)):
        assert x.shape == rhs.shape
        for k, ref in enumerate(refs):
            assert np.abs(x[:, k] - ref).max() <= 1e-12 * np.abs(ref).max()


def test_linear_solver_runs_pcg_on_its_held_factor(monkeypatch):
    # 32^2 factorizes by band Cholesky, 72^2 by SuperLU
    for n in (32, 72):
        with monkeypatch.context() as patch:
            _check_pcg_on_held_factor(patch, n)


def _check_pcg_on_held_factor(monkeypatch, n):
    dom = dom_n(n)
    asm = _Assembler(dom, P_AREA, 4)
    u = field(dom, lambda x, y: x * y + 0.3 * np.sin(2 * x + 0.3 * y)).values
    b = -asm.gather_interior(asm.gradient_full(u, 0.1))
    # the Hessian at a = 0.1, a perturbed copy near it and one far from it
    A, near, far = (asm.hessian_interior(u, a) for a in (0.1, 0.09, 0.01))
    solver = _LinearSolver(dom.n_cells)
    splu = spla.splu
    module, name = (solver_module, "_band_cholesky") if n <= _BAND_LIMIT else (spla, "splu")
    factorize = getattr(module, name)
    dropped = []

    def spy(*args, **kwargs):
        dropped.append(solver.lu is None)       # the old factor is released first
        return factorize(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    solver.solve(A, b)
    held = solver.lu
    assert (solver.factorizations, solver.pcg_iterations) == (1, 0)

    x = solver.solve(near, b, 1e-6)
    ref = splu(near.tocsc()).solve(b)
    assert solver.lu is held and solver.factorizations == 1
    assert 1 <= solver.pcg_iterations <= _PCG_MAXITER
    assert np.abs(x - ref).max() <= 1e-6 * np.abs(ref).max()

    # PCG passes its iteration cap on the far matrix: it is refactorized
    before = solver.pcg_iterations
    x = solver.solve(far, b, 1e-6)
    ref = splu(far.tocsc()).solve(b)
    assert solver.lu is not held and solver.factorizations == 2
    assert solver.pcg_iterations == before + _PCG_MAXITER
    assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()
    # without a tolerance the solver always factorizes
    solver.solve(far, b)
    assert solver.factorizations == 3 and solver.pcg_iterations == before + _PCG_MAXITER
    assert dropped == [True, True, True]


# ---- reference CSC assembly -------------------------------------------------------


def _corner_nodes(ncx, ncy):
    """Node ids of each cell's corners (i,j), (i+1,j), (i,j+1), (i+1,j+1),
    shape (ncx, ncy, 4)."""
    ny1 = ncy + 1
    n00 = np.arange(ncx)[:, None] * ny1 + np.arange(ncy)
    return np.stack([n00, n00 + ny1, n00 + 1, n00 + ny1 + 1], axis=-1)


def _short_axis_first(ncx, ncy):
    """Interior node ids line by line, the shorter axis (y on a square)
    fastest."""
    nodes = np.arange(1, ncx)[:, None] * (ncy + 1) + np.arange(1, ncy)
    return (nodes if ncy <= ncx else nodes.T).ravel()


def _oracle_csc(n_cells, K, interior):
    """The interior CSC matrix of the (cells, 16) cell blocks K, its rows
    and columns numbered in the order of the node ids `interior`, by a
    gather of K and np.add.reduceat: each entry sums its cell terms in
    ascending cell order.  This is how the solver assembled CSC matrices
    before every Hessian became a stencil."""
    ncx, ncy = n_cells
    n = interior.size
    idx = np.full((ncx + 1) * (ncy + 1), -1)
    idx[interior] = np.arange(n)
    local = idx[_corner_nodes(ncx, ncy)].reshape(-1, 4)
    rows = np.repeat(local, 4, axis=1).ravel()
    cols = np.tile(local, (1, 4)).ravel()
    keep = np.flatnonzero((rows >= 0) & (cols >= 0))
    rows, cols = rows[keep], cols[keep]
    order = np.lexsort((rows, cols))            # stable: duplicates keep cell order
    rows, cols = rows[order], cols[order]
    first = np.ones(order.size, dtype=bool)
    first[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
    starts = np.flatnonzero(first)
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(cols[starts], minlength=n), out=indptr[1:])
    data = np.add.reduceat(K.reshape(-1)[keep[order]], starts)
    return csc_matrix((data, rows[starts].astype(np.int32), indptr), shape=(n, n))


def _superlu_reference(C):
    """SuperLU on C as the solver factorizes over _BAND_LIMIT cells across."""
    return spla.splu(C, permc_spec="NATURAL", diag_pivot_thresh=0.0,
                     options=dict(SymmetricMode=True))


def _reference_pcg(C, b, lu):
    """CG on C preconditioned with lu from lu's solve of b, step for step
    as the solver runs it (its 1-D reductions by util.fixed_dot), to
    relative residual _PCG_RTOL."""
    x = lu.solve(b)
    r = b - C @ x
    tol = _PCG_RTOL * math.sqrt(fixed_dot(b, b))
    p = rho = None
    for _ in range(_PCG_MAXITER):
        if math.sqrt(fixed_dot(r, r)) <= tol:
            return x
        z = lu.solve(r)
        rho_new = fixed_dot(r, z)
        p = z if p is None else z + (rho_new / rho) * p
        q = C @ p
        alpha = rho_new / fixed_dot(p, q)
        x += alpha * p
        r -= alpha * q
        rho = rho_new
    assert math.sqrt(fixed_dot(r, r)) <= tol
    return x


def _bits(x):
    return x.view(np.int64)


@pytest.mark.parametrize("n_cells", [(65, 65), (65, 70), (72, 65), (66, 130)])
def test_nested_dissection_csc_is_the_oracle_bit_for_bit(monkeypatch, n_cells):
    # over _BAND_LIMIT cells across, SuperLU gets the stencil gathered in
    # nested-dissection order: that matrix, its direct solve and PCG on its
    # factor keep the bits of the CSC assembly numbered that way
    dom = GridDomain(OFFSET_BOX, n_cells)
    asm = _Assembler(dom, EnergySpec(preset="p_area", H=0.3), 4)
    u = field(dom, lambda x, y: x * y + 0.3 * np.sin(2 * x + 0.3 * y)).values
    nd = _nested_dissection(*n_cells)
    g = -asm.gradient_full(u, 0.1)
    rhs = (g, 2.0 * g - 1.0)                    # two columns, as a direct solve allows
    b_int = np.column_stack([asm.gather_interior(c) for c in rhs])
    b_nd = np.column_stack([c.ravel()[nd] for c in rhs])
    (A, K), (near, K_near) = (_hessian_and_blocks(monkeypatch, asm, u, a) for a in (0.1, 0.09))
    C, C_near = (_oracle_csc(n_cells, blocks, nd) for blocks in (K, K_near))

    # each nested-dissection position's stencil number, from node ids alone
    where = np.empty(u.size, dtype=np.intp)
    where[_short_axis_first(*n_cells)] = np.arange(asm.n_int)

    def permuted_back(x_nd):
        x = np.empty_like(x_nd)
        x[where[nd]] = x_nd
        return x

    factored = []
    splu = spla.splu
    solver = _LinearSolver(dom.n_cells)
    with monkeypatch.context() as patch:
        patch.setattr(spla, "splu", lambda M, **kw: factored.append(M) or splu(M, **kw))
        x = solver.solve(A, b_int)
    (M,) = factored
    assert np.array_equal(_bits(M.data), _bits(C.data))
    assert np.array_equal(M.indices, C.indices) and np.array_equal(M.indptr, C.indptr)
    lu = _superlu_reference(C)
    assert np.array_equal(_bits(x), _bits(permuted_back(lu.solve(b_nd))))

    x = solver.solve(near, b_int[:, 0], _PCG_RTOL)
    assert solver.factorizations == 1 and solver.pcg_iterations >= 1
    ref = permuted_back(_reference_pcg(C_near, b_nd[:, 0], lu))
    assert np.array_equal(_bits(x), _bits(ref))


# ---- band Cholesky path ---------------------------------------------------------


def _smooth_hessian(n_cells, a=1e-2):
    dom = GridDomain(OFFSET_BOX, n_cells)
    asm = _Assembler(dom, EnergySpec(preset="p_area", H=0.3), 4)
    u = field(dom, lambda x, y: x * y + 0.3 * np.sin(2 * x + 0.3 * y)).values
    return asm, u, asm.hessian_interior(u, a), -asm.gather_interior(asm.gradient_full(u, a))


def _hessian_and_blocks(monkeypatch, asm, u, a):
    """The Hessian at (u, a) and the (cells, 16) cell blocks it sums."""
    blocks = []
    stencil = asm._stencil

    def spy(K, *args):
        blocks.append(K.copy())
        return stencil(K, *args)

    with monkeypatch.context() as patch:
        patch.setattr(asm, "_stencil", spy)
        A = asm.hessian_interior(u, a)
    return A, blocks[0]


@pytest.mark.parametrize("n_cells", [
    (32, 32), (12, 40), (40, 12),
    (2, 2), (2, 5), (5, 2), (7, 3), (3, 7), (32, 35), (64, 12), (12, 64),
])
def test_band_scatter_holds_every_lower_csc_entry(monkeypatch, n_cells):
    # the stencil, its product and its band are the CSC matrix's, bit for bit
    for H in (0.0, 0.3):
        for a in (1.0, 1e-3):
            with monkeypatch.context() as patch:
                _check_stencil_against_csc(patch, n_cells, H, a)


def _check_stencil_against_csc(monkeypatch, n_cells, H, a):
    dom = GridDomain(OFFSET_BOX, n_cells)
    asm = _Assembler(dom, EnergySpec(preset="p_area", H=H), 4)
    rng = np.random.RandomState(11)
    u = field(dom, lambda x, y: x * y + 0.3 * np.sin(2 * x + 0.3 * y)).values
    u[1:-1, 1:-1] += 0.1 * rng.randn(*(n - 1 for n in n_cells))
    A, K = _hessian_and_blocks(monkeypatch, asm, u, a)
    C = _oracle_csc(n_cells, K, _short_axis_first(*n_cells))
    kd = min(n_cells)
    assert isinstance(A, dia_array) and isinstance(C, csc_matrix)
    assert A.shape == C.shape == (asm.n_int, asm.n_int)
    assert np.all(np.diff(A.offsets) > 0) and A.offsets[-1] == kd

    # data[k, col] = C[col - offsets[k], col], and 0 off C's pattern
    rows = C.indices
    cols = np.repeat(np.arange(asm.n_int), np.diff(C.indptr))
    k = np.searchsorted(A.offsets, cols - rows)
    assert np.array_equal(A.offsets[k], cols - rows)
    assert np.array_equal(A.data[k, cols].view(np.int64), C.data.view(np.int64))
    off_pattern = np.ones(A.data.shape, dtype=bool)
    off_pattern[k, cols] = False
    assert not A.data[off_pattern].any()

    x = rng.randn(asm.n_int)
    assert np.array_equal((A @ x).view(np.int64), (C @ x).view(np.int64))

    bands = []
    dpbtrf = solver_module.dpbtrf

    def spy(ab, **kwargs):
        bands.append((ab.flags.f_contiguous, ab.copy()))
        return dpbtrf(ab, **kwargs)

    monkeypatch.setattr(solver_module, "dpbtrf", spy)
    _LinearSolver(dom.n_cells).solve(A, -asm.gather_interior(asm.gradient_full(u, a)))
    ((fortran, ab),) = bands
    assert fortran and ab.shape == (kd + 1, asm.n_int)
    # the CSC matrix's lower entries scattered to row - col + (kd + 1) col
    lower = rows >= cols
    ref = np.zeros(ab.shape, order="F")
    ref.reshape(-1, order="F")[(rows - cols + (kd + 1) * cols)[lower]] = C.data[lower]
    assert np.array_equal(ab.view(np.int64), ref.view(np.int64))
    # row k of the lower band is the k-th subdiagonal, zero-padded at its end
    D = C.toarray()
    assert np.abs(np.tril(D, -kd - 1)).max(initial=0.0) == 0.0
    for k in range(kd + 1):
        sub = np.diagonal(D, -k)
        assert np.array_equal(ab[k, : sub.size].view(np.int64), sub.view(np.int64))
        assert not ab[k, sub.size:].any()


@pytest.mark.parametrize("n_cells", [(32, 32), (12, 40), (40, 12)])
def test_band_and_superlu_solves_agree(n_cells):
    asm, _, A, b = _smooth_hessian(n_cells)
    assert A.offsets[-1] == min(n_cells)
    band = _LinearSolver(asm.dom.n_cells)
    x = band.solve(A, b)
    assert isinstance(band.lu, solver_module._BandCholesky)
    ref = _superlu_reference(A.tocsc()).solve(b)
    assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("n, banded", [(64, True), (65, False)])
def test_band_path_runs_up_to_the_limit(n, banded):
    assert _BAND_LIMIT == 64
    asm, _, A, b = _smooth_hessian((n, n))
    solver = _LinearSolver(asm.dom.n_cells)
    solver.solve(A, b)
    assert A.offsets[-1] == n                   # the half-bandwidth picks the path
    assert isinstance(solver.lu, solver_module._BandCholesky) is banded
    assert isinstance(solver.lu, spla.SuperLU) is not banded


def test_band_two_column_solve_is_two_single_solves():
    asm, u, A, g = _smooth_hessian((32, 35))
    rhs = np.column_stack([g, -asm.gather_interior(asm.gradient_a(u, 1e-2))])
    solver = _LinearSolver(asm.dom.n_cells)
    x = solver.solve(A, rhs)
    assert x.shape == rhs.shape and A.offsets[-1] == 32 <= _BAND_LIMIT
    for k in range(2):
        assert np.array_equal(x[:, k], solver.lu.solve(rhs[:, k]))


def _fail_band(ab, **kwargs):
    return ab, 3                    # dpbtrf's info: a non-positive pivot at column 3


def _fail_superlu(*args, **kwargs):
    raise RuntimeError("Factor is exactly singular")


@pytest.mark.parametrize("n, module, name, fail", [
    (16, solver_module, "dpbtrf", _fail_band),
    (65, spla, "splu", _fail_superlu),
])
def test_failed_factorization_ends_the_stage_unconverged(monkeypatch, n, module, name, fail):
    monkeypatch.setattr(module, name, fail)
    asm, u, A, b = _smooth_hessian((n, n))
    solver = _LinearSolver(asm.dom.n_cells)
    with pytest.raises(np.linalg.LinAlgError):
        solver.solve(A, b)
    assert solver.lu is None and solver.factorizations == 0
    phi = field(asm.dom, lambda x, y: x * y + 0.3 * np.sin(2 * x + 0.3 * y))
    res = continuation_minimize(asm.dom, P_AREA, phi)
    assert not res.converged and res.iterations == 0 and res.factorizations == 0
    assert res.stages == ((1.0, 0, math.inf),)
    assert np.isfinite(res.residual_norm) and res.residual_norm > SolverConfig().newton_tol


def test_failed_tangent_factorization_predicts_nothing(monkeypatch):
    dom = dom_n(16)
    phi = field(dom, lambda x, y: x * y + 0.3 * np.sin(2 * x + 0.3 * y))
    solve = _LinearSolver.solve

    def fail_tangent(self, A, b, rtol=None):
        if rtol == _TANGENT_RTOL:
            raise np.linalg.LinAlgError("band Cholesky: non-positive pivot in column 1")
        return solve(self, A, b, rtol)

    monkeypatch.setattr(_LinearSolver, "solve", fail_tangent)
    asm = _Assembler(dom, P_AREA)
    solver = _LinearSolver(dom.n_cells)
    stage = _newton(asm, 1.0, harmonic_extension(dom, phi).values, SolverConfig(), solver)
    assert _tangent(asm, 1.0, stage, solver) is None
    # every stage then starts from the last one's end, and still converges
    res = continuation_minimize(dom, P_AREA, phi, SolverConfig(a_schedule=(1.0, 0.25)))
    assert res.converged
    values = stage.values
    for a in (1.0, 0.25):
        chain = _newton(asm, a, values, SolverConfig(), _LinearSolver(dom.n_cells))
        values = chain.values
    assert np.array_equal(res.u.values, values)


def test_solve_large_reference_problem_reuses_factors():
    # the benchmark's 64^2 solve_large problem at seed 0
    dom = dom_n(64)
    phi = field(dom, lambda x, y: x * y + 0.3 * np.sin(2 * x + 0.3 * y))
    res = continuation_minimize(dom, P_AREA, phi)
    assert res.converged and res.residual_norm <= SolverConfig().newton_tol
    assert res.iterations == 34
    # every stage's first step factorizes; the quadratic phase runs PCG
    assert len(res.stages) <= res.factorizations < res.iterations
    assert res.pcg_iterations > 0


# ---- Euler predictor ----------------------------------------------------------------


def test_continuation_matches_unpredicted_chain_in_fewer_steps():
    dom = dom_n(32)
    phi = field(dom, lambda x, y: x * y + 0.3 * np.sin(2 * x + 0.3 * y))
    cfg = SolverConfig()
    res = continuation_minimize(dom, P_AREA, phi, cfg)
    assert res.converged
    assert len(res.stages) == len(cfg.a_schedule)
    asm = _Assembler(dom, P_AREA)
    values = harmonic_extension(dom, phi).values
    chain_steps = 0
    for a in cfg.a_schedule:
        chain = _newton(asm, a, values, cfg, _LinearSolver(dom.n_cells))
        assert chain.converged
        values = chain.values
        chain_steps += chain.iterations
    assert np.abs(res.u.values - chain.values).max() <= 1e-12
    assert res.iterations < chain_steps


def test_default_schedule_matches_the_halving_schedule():
    dom = dom_n(32)
    phi = field(dom, lambda x, y: x * y + 0.3 * np.sin(2 * x + 0.3 * y))
    cfg = SolverConfig()
    halving = replace(cfg, a_schedule=tuple(2.0 ** (-k) for k in range(13)))
    res = continuation_minimize(dom, P_AREA, phi, cfg)
    ref = continuation_minimize(dom, P_AREA, phi, halving)
    assert res.converged and ref.converged
    assert len(res.stages) == 7 and len(ref.stages) == 13
    assert res.a_final == ref.a_final == 2.0 ** -12
    assert np.abs(res.u.values - ref.u.values).max() <= 1e-12
    assert res.iterations < ref.iterations


@pytest.mark.parametrize("a", [0.5, 0.05])
def test_newton_tangent_is_the_a_derivative_of_the_solution(a):
    dom = dom_n(16)
    phi = field(dom, lambda x, y: x * y + 0.3 * np.sin(2 * x + 0.3 * y))
    cfg = SolverConfig()
    asm = _Assembler(dom, P_AREA)
    solver = _LinearSolver(dom.n_cells)
    stage = _newton(asm, a, harmonic_extension(dom, phi).values, cfg, solver)
    assert stage.converged
    tangent = _tangent(asm, a, stage, solver)
    da = 1e-3 * a
    up = _newton(asm, a + da, stage.values, cfg, _LinearSolver(dom.n_cells))
    down = _newton(asm, a - da, stage.values, cfg, _LinearSolver(dom.n_cells))
    fd = asm.gather_interior((up.values - down.values) / (2 * da))
    assert np.abs(tangent - fd).max() <= 1e-5 * np.abs(fd).max()


def test_zero_step_stage_gives_no_prediction():
    dom = dom_n(16)
    phi = field(dom, lambda x, y: x * y)
    cfg = SolverConfig()
    asm = _Assembler(dom, P_AREA)
    start = harmonic_extension(dom, phi).values
    solver = _LinearSolver(dom.n_cells)
    stage = _newton(asm, 1.0, start, cfg, solver)
    assert stage.iterations == 0 and solver.factorizations == 0
    # no step, no tangent: the next stage starts where this one ended
    res = continuation_minimize(dom, P_AREA, phi, cfg)
    assert res.factorizations == 0 and res.pcg_iterations == 0
    assert res.stages == ((1.0, 0, math.inf), (cfg.a_schedule[1], 0, 0.0))
    assert np.array_equal(res.u.values, harmonic_extension(dom, phi).values)


def test_predictor_is_used_only_when_it_lowers_the_energy():
    dom = dom_n(16)
    phi = field(dom, lambda x, y: x * y + 0.3 * np.sin(2 * x + 0.3 * y))
    cfg = SolverConfig()
    asm = _Assembler(dom, P_AREA)
    solver = _LinearSolver(dom.n_cells)
    stage = _newton(asm, 1.0, harmonic_extension(dom, phi).values, cfg, solver)
    tangent = _tangent(asm, 1.0, stage, solver)
    values, a = stage.values, 0.5
    pred, kin, E = _euler_predict(asm, a, values, (a - 1.0) * tangent)
    assert pred is not values
    assert asm.energy(pred, a) < asm.energy(values, a)
    assert np.array_equal(kin[2], asm.kinematics(pred, a)[2])
    assert E.hex() == asm.energy(pred, a).hex()
    # in a workspace the energy of `values` is taken first: the kinematics
    # returned, in the workspace's buffers, are still the candidate's
    ws = {}
    pred_ws, kin_ws, E_ws = _euler_predict(asm, a, values, (a - 1.0) * tangent, ws)
    assert np.array_equal(pred_ws, pred) and E_ws.hex() == E.hex()
    assert all(x is ws[name] for x, name in zip(kin_ws, ("mx", "my", "r")))
    for x, y in zip(kin_ws, asm.kinematics(pred, a)):
        assert np.array_equal(x, y)
    # a step against the tangent raises the energy: keep the old start
    bad = (1.0 - a) * tangent
    kept, kin, E = _euler_predict(asm, a, values, bad)
    assert kept is values and kin is None
    assert E.hex() == asm.energy(values, a).hex()
    unpredicted = _newton(asm, a, values, cfg, _LinearSolver(dom.n_cells))
    guarded = _newton(asm, a, values, cfg, _LinearSolver(dom.n_cells), bad)
    assert np.array_equal(guarded.values, unpredicted.values)
    assert guarded.iterations == unpredicted.iterations


# ---- workspace ------------------------------------------------------------------------


def _kernels(asm, u, a, ws=None):
    """Every kernel's output at (u, a), computed in ws if given."""
    kin = asm.kinematics(u, a, ws)
    out = [x.copy() for x in kin]
    out.append(np.array(asm.energy(u, a, kin)))
    out.append(asm.gradient_full(u, a, kin, ws))
    out.append(asm.gradient_a(u, a, kin, ws))
    out.append(asm.hessian_interior(u, a, kin, ws).data.copy())
    out.append(np.array(asm.residual_norm(u, a, None, ws)))
    return out


@pytest.mark.parametrize("n_cells", [(12, 20), (20, 12), (72, 66)])
def test_kernels_in_a_workspace_keep_the_bits_of_fresh_arrays(n_cells):
    dom = GridDomain(OFFSET_BOX, n_cells)
    asm = _Assembler(dom, EnergySpec(preset="p_area", H=0.3))
    u = field(dom, lambda x, y: x * y + 0.3 * np.sin(2 * x + 0.3 * y)).values
    ws = {}
    for a in (1.0, 1e-3, 1.0):                  # the buffers are refilled
        ref = _kernels(asm, u, a)
        for x, y in zip(_kernels(asm, u, a, ws), ref):
            assert np.array_equal(_bits(x), _bits(y))
    # the same buffers every time; without a workspace, fresh arrays
    assert asm.kinematics(u, 0.5, ws)[2] is asm.kinematics(u, 1.0, ws)[2]
    assert asm.kinematics(u, 0.5)[2] is not asm.kinematics(u, 0.5)[2]
    H_ws = asm.hessian_interior(u, 0.5, ws=ws)
    assert np.shares_memory(H_ws.data, asm.hessian_interior(u, 0.1, ws=ws).data)
    H = asm.hessian_interior(u, 0.5)
    assert not np.shares_memory(H.data, asm.hessian_interior(u, 0.5).data)


@pytest.mark.parametrize("n_cells, schedule", [
    ((16, 16), SolverConfig().a_schedule),
    ((_BAND_LIMIT + 1, _BAND_LIMIT), (1.0, 0.25, 0.0625)),
    ((72, 66), (1.0, 0.25, 0.0625)),
], ids=["band_16x16", "band_65x64", "superlu_72x66"])
def test_continuation_tangents_compute_no_kinematics(monkeypatch, n_cells, schedule):
    # up to the band limit, on the shorter axis, a solve's Newton path works
    # in one workspace and each stage hands its tangent the kinematics of
    # its iterate; over it no stage keeps them, and each tangent computes
    # them once, for itself
    banded = min(n_cells) <= _BAND_LIMIT
    dom = GridDomain(SQ, n_cells)
    phi = field(dom, lambda x, y: x * y + 0.3 * np.sin(2 * x + 0.3 * y))
    cfg = SolverConfig(a_schedule=schedule)
    ref = continuation_minimize(dom, P_AREA, phi, cfg)
    newton, tangent, kinematics = solver_module._newton, solver_module._tangent, _Assembler.kinematics
    workspaces, stages, tangents, per_tangent, inside = [], [], [], [], []

    def spy_newton(*args):
        workspaces.append(args[-1])
        stages.append(newton(*args))
        return stages[-1]

    def spy_tangent(*args):
        per_tangent.append(0)                   # kinematics computed by this tangent
        inside.append(True)
        try:
            tangents.append(tangent(*args))
        finally:
            inside.pop()
        return tangents[-1]

    def spy_kinematics(self, *args):
        if inside:
            per_tangent[-1] += 1
        return kinematics(self, *args)

    monkeypatch.setattr(solver_module, "_newton", spy_newton)
    monkeypatch.setattr(solver_module, "_tangent", spy_tangent)
    monkeypatch.setattr(_Assembler, "kinematics", spy_kinematics)
    res = continuation_minimize(dom, P_AREA, phi, cfg)
    assert res.converged and len(stages) == len(res.stages) == len(schedule)
    assert len(tangents) == len(res.stages) - 1 and all(t is not None for t in tangents)
    if banded:
        assert all(type(ws) is dict and ws is workspaces[0] for ws in workspaces)
        assert all(stage.kin is not None for stage in stages)
        assert per_tangent == [0] * len(tangents)
    else:
        assert workspaces == [None] * len(stages)
        assert all(stage.kin is None for stage in stages)
        assert per_tangent == [1] * len(tangents)
    assert res.u.values.tobytes() == ref.u.values.tobytes()


def test_continuation_computes_its_reported_energy_once(monkeypatch):
    # the stages hand on their state: only the last one's iterate becomes a
    # SolvedField, and only its area energy is computed
    dom = dom_n(16)
    phi = field(dom, lambda x, y: x * y + 0.3 * np.sin(2 * x + 0.3 * y))
    ref = continuation_minimize(dom, P_AREA, phi)
    calls = {"area_energy": 0, "SolvedField": 0}

    def counted(name, fn):
        def spy(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return spy

    for name in calls:
        monkeypatch.setattr(solver_module, name, counted(name, getattr(solver_module, name)))
    res = continuation_minimize(dom, P_AREA, phi)
    assert len(res.stages) == 7 and calls == {"area_energy": 1, "SolvedField": 1}
    assert res.u.values.tobytes() == ref.u.values.tobytes()
    assert res.energy.hex() == ref.energy.hex()
    assert res.energy_regularized.hex() == ref.energy_regularized.hex()
    # a stage's energy is E_a of its iterate, bit for bit: also that of an
    # accepted Euler prediction, here with a tolerance so loose that the
    # stage takes no Newton step after it
    asm = _Assembler(dom, P_AREA)
    solver = _LinearSolver(dom.n_cells)
    stage = _newton(asm, 1.0, harmonic_extension(dom, phi).values, SolverConfig(), solver)
    assert stage.converged and stage.energy.hex() == asm.energy(stage.values, 1.0).hex()
    tangent = _tangent(asm, 1.0, stage, solver)
    a = 0.5
    for ws in (None, {}):
        predicted = _newton(asm, a, stage.values, SolverConfig(newton_tol=1e3), solver,
                            (a - 1.0) * tangent, ws)
        assert predicted.iterations == 0 and predicted.values is not stage.values
        assert predicted.energy.hex() == asm.energy(predicted.values, a).hex()


def test_newton_step_allocates_no_quadrature_size_array():
    # the benchmark's 64^2 solve_large problem: after the first step has
    # filled the workspace, a further step works in its buffers
    dom = dom_n(64)
    phi = field(dom, lambda x, y: x * y + 0.3 * np.sin(2 * x + 0.3 * y))
    asm = _Assembler(dom, P_AREA)
    solver = _LinearSolver(dom.n_cells)
    ws = {}
    one_step = SolverConfig(max_newton_iters=1)
    quad_bytes = asm.ncx * asm.ncy * asm.G * 8
    tracemalloc.start()
    try:
        stage = _newton(asm, 0.25, harmonic_extension(dom, phi).values, one_step, solver, ws=ws)
        assert stage.iterations == 1 and not stage.converged
        tracemalloc.reset_peak()
        stage = _newton(asm, 0.25, stage.values, one_step, solver, ws=ws)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert stage.iterations == 1 and solver.factorizations == 2
    assert peak - current < quad_bytes


# ---- configuration and failure paths ----------------------------------------------


_DIGEST_SCRIPT = """
import hashlib
import numpy as np
from areavar.grids import EnergySpec, GridDomain, ScalarField
from areavar.solver import SolverConfig, continuation_minimize
dom = GridDomain(((-1.0, 1.0), (-1.0, 1.0)), (104, 104))
phi = ScalarField.from_function(dom, lambda x, y: x * y + 0.3 * np.sin(2 * x + 0.3 * y))
res = continuation_minimize(dom, EnergySpec(preset="p_area"), phi,
                            SolverConfig(a_schedule=(1.0, 0.25)))
assert res.converged and res.pcg_iterations > 0
print(hashlib.sha256(res.u.values.tobytes()).hexdigest())
"""


def test_solved_field_has_the_same_bits_under_one_and_two_blas_threads():
    # 103^2 interior unknowns: OpenBLAS would split each ddot of the Newton
    # slope and of PCG across threads (over 10 000 entries)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    digests = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", _DIGEST_SCRIPT],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        digests.add(proc.stdout.strip())
    assert len(digests) == 1


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(a_schedule=(0.5, 0.5))
    with pytest.raises(ValueError):
        SolverConfig(a_schedule=(1.0, -0.5))
    with pytest.raises(TypeError):
        SolverConfig(not_a_knob=1)
    with pytest.raises(TypeError):
        SolverConfig(cg_rtol=1e-12)   # removed option
    with pytest.raises(TypeError):
        SolverConfig(line_search_max=0)   # removed option
    for removed in ({"quad_order": 0}, {"quad_order": 4}):
        with pytest.raises(TypeError):
            SolverConfig(**removed)
    for bad in (
        {"newton_tol": 0.0},
        {"newton_tol": -1.0},
        {"newton_tol": math.nan},
        {"continuation_stop": -1e-6},
        {"max_newton_iters": 0},
        {"max_newton_iters": 2.5},
        {"max_newton_iters": 3.0},
        {"max_newton_iters": True},
        {"max_newton_iters": np.True_},
        {"max_newton_iters": "3"},
        {"newton_tol": math.inf},
        {"continuation_stop": math.inf},
        {"a_schedule": (math.inf, 1.0)},
        {"a_schedule": (1.0, math.nan)},
        {"newton_tol": True},
        {"newton_tol": np.True_},
        {"continuation_stop": False},
        {"a_schedule": (True,)},
        {"a_schedule": (2.0, np.True_)},
    ):
        with pytest.raises(ValueError):
            SolverConfig(**bad)
    cfg = SolverConfig(a_schedule=[1, 0.5], newton_tol=1e-8)
    assert cfg.a_schedule == (1.0, 0.5) and cfg.newton_tol == 1e-8
    # the boundary values themselves are accepted
    cfg = SolverConfig(continuation_stop=0.0, max_newton_iters=1)
    assert cfg.continuation_stop == 0.0
    # numpy integers count as integers
    assert SolverConfig(max_newton_iters=np.int64(3)).max_newton_iters == 3


def test_rejects_nonpositive_a():
    dom = dom_n(8)
    phi = field(dom, lambda x, y: x)
    for a in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            solve_regularized(dom, ZERO, a, phi)


def test_nonconvergence_is_reported_not_raised():
    dom = dom_n(24)
    phi = field(dom, lambda x, y: np.sin(4 * x) * np.cos(3 * y))
    cfg = SolverConfig(max_newton_iters=1, a_schedule=(0.01,))
    res = solve_regularized(dom, P_AREA, 0.01, phi, cfg)
    assert not res.converged
    assert np.isfinite(res.residual_norm)
    cont = continuation_minimize(dom, P_AREA, phi, cfg)
    assert not cont.converged
    assert cont.a_final == 0.01


def test_converged_implies_residual_below_tol():
    dom = dom_n(24)
    phi = field(dom, lambda x, y: 0.3 * x + np.sin(y))
    cfg = SolverConfig(newton_tol=1e-9)
    res = solve_regularized(dom, P_AREA, 0.5, phi, cfg)
    assert res.converged
    assert res.residual_norm <= cfg.newton_tol
