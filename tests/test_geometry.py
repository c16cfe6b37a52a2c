import math

import numpy as np
import pytest

from areavar.geometry import (
    Coframe,
    DefiningData,
    area_element,
    area_element_coeff,
    contract_form,
    contraction_identity_residual,
    euclidean_defining,
    euclidean_graph_frame,
    graph_area_density,
    heisenberg_defining,
    heisenberg_graph_frame,
    intrinsic_defining,
    intrinsic_graph_frame,
    mean_curvature_euclidean,
    p_mean_curvature,
)
from areavar.grids import EnergySpec, GridDomain, ScalarField, gradient

SQ = ((-1.0, 1.0), (-1.0, 1.0))


def dom_n(n, extents=SQ):
    return GridDomain(extents, (n, n))


# ---- coframes and contraction -----------------------------------------------------


def test_contract_form_euclidean_identity():
    frame = Coframe(2, np.eye(2))
    assert np.array_equal(contract_form(np.array([1.0, 0.0]), frame), [1.0, 0.0])


def test_contract_form_null_direction():
    frame = heisenberg_graph_frame(1)
    c = contract_form(np.array([0.0, 0.0, 1.0]), frame)
    assert np.array_equal(c, np.zeros(3))


def test_contract_form_scaled_metric():
    frame = Coframe(2, np.diag([1.0, 4.0]))
    assert np.array_equal(contract_form(np.array([0.0, 1.0]), frame), [0.0, 4.0])


def test_contract_form_length_mismatch():
    with pytest.raises(ValueError):
        contract_form(np.array([1.0, 0.0]), heisenberg_graph_frame(1))


def test_contraction_identity_random_frames():
    rng = np.random.RandomState(60)
    worst = 0.0
    for _ in range(100):
        dim = rng.randint(2, 6)
        B = rng.randn(dim, dim)
        gram = B @ B.T * np.exp(rng.randn())
        frame = Coframe(dim, gram)
        lam = rng.randn(dim)
        eta = rng.randn(dim)
        worst = max(worst, contraction_identity_residual(frame, lam, eta))
    assert worst <= 1e-12


def test_contraction_identity_degenerate_gram():
    frame = heisenberg_graph_frame(1)
    rng = np.random.RandomState(61)
    for _ in range(50):
        lam, eta = rng.randn(3), rng.randn(3)
        assert contraction_identity_residual(frame, lam, eta) <= 1e-12


def test_coframe_validation():
    with pytest.raises(ValueError):
        Coframe(2, np.array([[1.0, 0.5], [0.0, 1.0]]))  # not symmetric
    with pytest.raises(ValueError):
        Coframe(2, np.array([[1.0, 0.0], [0.0, -1.0]]))  # negative direction
    with pytest.raises(ValueError):
        Coframe(3, np.eye(2))  # wrong shape


def test_defining_data_validation():
    with pytest.raises(ValueError):
        DefiningData(np.array([1.0, 2.0, 0.0]))
    with pytest.raises(ValueError):
        DefiningData(np.array([1.0, np.inf, 1.0]))


# ---- area elements ----------------------------------------------------------------


def test_area_element_euclidean_closed_form():
    rng = np.random.RandomState(62)
    for _ in range(50):
        n = rng.randint(1, 5)
        grad = rng.randn(n)
        coeff = area_element_coeff(euclidean_graph_frame(n), euclidean_defining(grad))
        expected = (-1.0) ** n * math.sqrt(1.0 + float(grad @ grad))
        assert abs(coeff - expected) <= 1e-14 * (1 + abs(expected))


def test_area_element_heisenberg_flat_graph():
    rng = np.random.RandomState(63)
    for _ in range(50):
        x, y = rng.randn(2)
        coeff = area_element_coeff(
            heisenberg_graph_frame(1), heisenberg_defining((x, y), (0.0, 0.0))
        )
        assert abs(coeff - math.hypot(x, y)) <= 1e-14 * (1 + math.hypot(x, y))


def test_area_element_degenerate_is_zero():
    frame = heisenberg_graph_frame(1)
    dd = DefiningData(np.array([0.0, 0.0, 1.0]))
    assert area_element_coeff(frame, dd) == 0.0


def test_area_element_sign_tracks_orientation():
    frame = euclidean_graph_frame(2)
    dd = euclidean_defining(np.array([0.3, -0.7]))
    c = area_element_coeff(frame, dd)
    flipped = area_element_coeff(frame, DefiningData(-dd.v))
    assert abs(flipped + c) <= 1e-15
    sign, density = area_element("euclidean", None, np.array([0.3, -0.7]))
    assert density == abs(c)
    assert sign == math.copysign(1.0, c)


def test_area_element_coeff_shape_checks():
    with pytest.raises(ValueError):
        area_element_coeff(euclidean_graph_frame(2), euclidean_defining([0.5]))
    with pytest.raises(ValueError):
        area_element("martian", None, (0.0,))


# ---- graph densities -----------------------------------------------------------------


def test_density_intrinsic_examples():
    assert graph_area_density("intrinsic", None, (0.7, 0.0, 0.0)) == 1.0
    assert abs(graph_area_density("intrinsic", None, (0.0, 1.0, 0.0)) - math.sqrt(2.0)) <= 1e-15


def test_density_intrinsic_closed_form():
    rng = np.random.RandomState(64)
    for _ in range(100):
        phi, pe, pt = rng.randn(3)
        got = graph_area_density("intrinsic", None, (phi, pe, pt))
        expected = math.sqrt(1.0 + (pe - 2.0 * phi * pt) ** 2)
        assert abs(got - expected) <= 1e-14 * (1 + expected)


def test_density_heisenberg_xy_graph():
    rng = np.random.RandomState(65)
    for _ in range(100):
        x, y = rng.randn(2)
        got = graph_area_density("heisenberg", (x, y), (y, x))  # grad of u = xy
        assert abs(got - 2.0 * abs(x)) <= 1e-14 * (1 + abs(x))


def test_density_equals_coeff_magnitude():
    rng = np.random.RandomState(66)
    for _ in range(100):
        grad = rng.randn(3)
        d1 = graph_area_density("euclidean", None, grad)
        c1 = area_element_coeff(euclidean_graph_frame(3), euclidean_defining(grad))
        assert d1 == abs(c1)
        x = rng.randn(2)
        g = rng.randn(2)
        d2 = graph_area_density("heisenberg", x, g)
        c2 = area_element_coeff(heisenberg_graph_frame(1), heisenberg_defining(x, g))
        assert d2 == abs(c2)
        jet = rng.randn(3)
        d3 = graph_area_density("intrinsic", None, jet)
        c3 = area_element_coeff(intrinsic_graph_frame(), intrinsic_defining(*jet))
        assert d3 == abs(c3)


def test_heisenberg_defining_higher_n():
    point = np.array([1.0, 2.0, 3.0, 4.0])  # (x1, x2, y1, y2)
    grad = np.array([0.1, 0.2, 0.3, 0.4])
    dd = heisenberg_defining(point, grad, n=2)
    assert np.allclose(dd.v, [3.0 - 0.1, 1.0 + 0.3, 4.0 - 0.2, 2.0 + 0.4, 1.0])
    with pytest.raises(ValueError):
        heisenberg_defining(point, grad[:2], n=2)


# ---- arrays of jets ------------------------------------------------------------------

BATCH_KINDS = [("euclidean", 2), ("euclidean", 4), ("heisenberg", 2), ("heisenberg", 4), ("intrinsic", 3)]


def _batch(kind, dim, rng):
    point = rng.randn(5, 7, dim) * 2.0 if kind == "heisenberg" else None
    return point, rng.randn(5, 7, dim) * 2.0


@pytest.mark.parametrize("kind, dim", BATCH_KINDS)
def test_area_element_batch_matches_per_jet(kind, dim):
    rng = np.random.RandomState(67 + dim)
    point, jet = _batch(kind, dim, rng)
    sign, dens = area_element(kind, point, jet)
    assert sign.shape == dens.shape == (5, 7)
    assert np.array_equal(graph_area_density(kind, point, jet), dens)
    for i in range(5):
        for j in range(7):
            p = None if point is None else point[i, j]
            s1, d1 = area_element(kind, p, jet[i, j])
            assert np.ndim(s1) == 0 and np.ndim(d1) == 0
            assert sign[i, j] == s1
            assert abs(dens[i, j] - d1) <= 1e-15 * d1
            assert abs(graph_area_density(kind, p, jet[i, j]) - dens[i, j]) <= 1e-15 * d1


def test_area_element_coeff_batch_signs():
    rng = np.random.RandomState(70)
    v = rng.randn(5, 7, 3)
    coeff = area_element_coeff(intrinsic_graph_frame(), DefiningData(v))
    assert coeff.shape == (5, 7)
    for idx in np.ndindex(5, 7):
        one = area_element_coeff(intrinsic_graph_frame(), DefiningData(v[idx]))
        assert np.sign(coeff[idx]) == np.sign(one) == np.sign(v[idx][-1])
        assert abs(coeff[idx] - one) <= 1e-15 * abs(one)


def test_area_element_batch_rejects_zero_last_component():
    v = np.random.RandomState(71).randn(5, 7, 3)
    v[3, 2, -1] = 0.0
    with pytest.raises(ValueError, match="nonzero"):
        DefiningData(v)
    v[3, 2, -1] = np.nan
    with pytest.raises(ValueError, match="finite"):
        DefiningData(v)


def test_area_element_batch_rejects_length_mismatch():
    rng = np.random.RandomState(73)
    with pytest.raises(ValueError):
        area_element_coeff(heisenberg_graph_frame(1), DefiningData(rng.randn(5, 7, 4) + 5.0))
    with pytest.raises(ValueError):
        area_element("intrinsic", None, rng.randn(5, 7, 2))
    with pytest.raises(ValueError):
        area_element("heisenberg", rng.randn(5, 7, 2), rng.randn(5, 7, 3))


# ---- mean curvature --------------------------------------------------------------------


def test_mean_curvature_affine_is_zero():
    dom = dom_n(16)
    u = ScalarField.from_function(dom, lambda x, y: 3.0 * x - 2.0 * y + 1.0)
    H = mean_curvature_euclidean(u)
    assert np.abs(H.values[H.mask]).max() <= 1e-12
    assert not H.mask[0, 0]  # boundary ring masked


def test_mean_curvature_paraboloid_matches_trace_formula():
    dom = dom_n(64)
    u = ScalarField.from_function(dom, lambda x, y: 0.5 * (x * x + y * y))
    H = mean_curvature_euclidean(u)
    Xc, Yc = dom.center_coords()
    r2 = Xc**2 + Yc**2
    ref = (2.0 + r2) / (1.0 + r2) ** 1.5
    err = np.abs(np.where(H.mask, H.values - ref, 0.0)).max()
    assert err <= 1e-12  # all stencils are exact on quadratics
    center = H.values[31, 31]
    assert abs(center - 2.0) <= 5e-3  # vertex curvature 2, one half-cell away


def test_mean_curvature_sphere_cap():
    dom = dom_n(64, ((-0.6, 0.6), (-0.6, 0.6)))
    u = ScalarField.from_function(dom, lambda x, y: np.sqrt(1.0 - x * x - y * y))
    H = mean_curvature_euclidean(u)
    vals = H.values[H.mask]
    assert np.abs(vals + 2.0).max() <= 0.04


def test_mean_curvature_first_order_against_flux_divergence():
    # independent one-sided flux-divergence oracle: the gap shrinks first order
    def forward_div(u):
        d = u.dom
        hx, hy = d.spacing
        g = gradient(u).values
        W = np.sqrt(1.0 + np.einsum("...k,...k->...", g, g))
        N = g / W[..., None]
        out = np.full(tuple(d.n_cells), np.nan)
        out[1:-1, 1:-1] = (N[2:, 1:-1, 0] - N[1:-1, 1:-1, 0]) / hx + (
            N[1:-1, 2:, 1] - N[1:-1, 1:-1, 1]
        ) / hy
        return out

    fn = lambda x, y: np.sin(1.3 * x + 0.4) * np.cos(0.9 * y - 0.3) + 0.3 * x * x * y
    errs = []
    for n in (32, 64, 128):
        dom = dom_n(n)
        u = ScalarField.from_function(dom, fn)
        H = mean_curvature_euclidean(u)
        gap = np.abs(H.values - forward_div(u))[H.mask & np.isfinite(forward_div(u))]
        errs.append(gap.max())
    for e1, e2 in zip(errs, errs[1:]):
        assert 1.7 <= e1 / e2 <= 2.6


# ---- horizontal mean curvature -------------------------------------------------------------


def test_p_mean_curvature_plane_vanishes_away_from_point():
    dom = dom_n(64)
    u = ScalarField.from_function(dom, lambda x, y: 0.5 * x - 0.3 * y)
    P = p_mean_curvature(u)
    Xc, Yc = dom.center_coords()
    dist = np.hypot(Xc - 0.3, Yc - 0.5)
    sel = P.mask & (dist >= 0.25)
    assert sel.sum() > 1000
    assert np.abs(P.values[sel]).max() <= 0.05


def test_p_mean_curvature_xy_exactly_zero_off_band():
    dom = dom_n(64)
    u = ScalarField.from_function(dom, lambda x, y: x * y)
    P = p_mean_curvature(u)
    assert (~P.mask).sum() > 0  # band and ring masked
    assert np.abs(P.values[P.mask]).max() == 0.0


def test_p_mean_curvature_flat_graph():
    dom = dom_n(64)
    u = ScalarField.from_function(dom, lambda x, y: 0.0 * x)
    P = p_mean_curvature(u)
    Xc, Yc = dom.center_coords()
    sel = P.mask & (np.hypot(Xc, Yc) >= 0.25)
    assert np.abs(P.values[sel]).max() <= 0.05


def test_p_mean_curvature_masks_are_nan():
    dom = dom_n(32)
    u = ScalarField.from_function(dom, lambda x, y: x * y)
    P = p_mean_curvature(u)
    assert np.all(np.isnan(P.values[~P.mask]))
    assert np.all(np.isfinite(P.values[P.mask]))


def test_p_mean_curvature_custom_spec():
    dom = dom_n(32)
    u = ScalarField.from_function(dom, lambda x, y: 0.2 * x)
    # zero drift: unit field of a tilted plane is constant, divergence zero
    P = p_mean_curvature(u, EnergySpec(preset="zero"))
    assert np.abs(P.values[P.mask]).max() <= 1e-12
