import numpy as np
import pytest

import areavar.grids as grids_module
from areavar import measures
from areavar.grids import (
    EnergySpec,
    GridDomain,
    ScalarField,
    SolvedField,
    area_energy,
    field_to_measure,
    gradient,
    gradient_measure,
    singular_set,
)
from areavar.solver import continuation_minimize
from areavar.util import pairwise_sum
from areavar.variation import (
    DirectionField,
    angle_condition,
    fd_validate,
    minimizer_first_variation,
    second_variation_graph,
)

SQ = ((-1.0, 1.0), (-1.0, 1.0))
P_AREA = EnergySpec(preset="p_area")
ZERO = EnergySpec(preset="zero")


def dom_n(n):
    return GridDomain(SQ, (n, n))


def bump_direction(dom, fn):
    return DirectionField.from_function(dom, fn)


# ---- direction fields -----------------------------------------------------------


def test_direction_must_vanish_on_boundary():
    dom = dom_n(8)
    good = ScalarField.from_function(dom, lambda x, y: (1 - x * x) * (1 - y * y))
    DirectionField(good)
    with pytest.raises(ValueError):
        DirectionField(ScalarField.from_function(dom, lambda x, y: 1.0 + 0.0 * x))


def test_from_function_zeroes_boundary():
    dom = dom_n(8)
    d = DirectionField.from_function(dom, lambda x, y: np.cos(x) + y)
    assert np.all(d.phi.values[dom.boundary_mask()] == 0.0)
    assert np.any(d.phi.values != 0.0)


# ---- second variation -------------------------------------------------------------


def test_riemannian_second_variation_flat_base():
    # over u = 0 the lifted second variation is exactly the Dirichlet energy
    dom = dom_n(32)
    u = ScalarField.from_function(dom, lambda x, y: 0.0 * x)
    d = bump_direction(dom, lambda x, y: (1 - x * x) * (1 - y * y) * np.sin(x + 2 * y))
    g = gradient(d.phi).values
    dirichlet = pairwise_sum(
        np.einsum("...k,...k->...", g, g).ravel() * dom.cell_volume
    )
    got = second_variation_graph(u, ZERO, d, mode="riemannian")
    assert abs(got - dirichlet) <= 1e-14 * (1 + dirichlet)


def test_second_variation_matches_lifted_measures():
    rng = np.random.RandomState(50)
    dom = dom_n(24)
    n = 24 * 24
    for _ in range(20):
        u = ScalarField(dom, rng.randn(25, 25))
        d = DirectionField.from_function(
            dom, lambda x, y: rng.randn() * np.sin(x) + rng.randn() * x * y
        )
        gu = gradient(u.values if False else u).values.reshape(n, 2)
        gphi = gradient(d.phi).values.reshape(n, 2)
        w = np.full(n, dom.cell_volume)
        mu_hat = measures.VectorMeasure(
            3, w, np.column_stack([gu, np.ones(n)])
        )
        nu_hat = measures.VectorMeasure(
            3, w.copy(), np.column_stack([gphi, np.zeros(n)])
        )
        lifted = measures.second_variation(mu_hat, nu_hat, 0.0)
        got = second_variation_graph(u, ZERO, d, mode="riemannian")
        assert abs(got - lifted) <= 1e-12 * (1 + abs(lifted))


def test_second_variation_area_matches_measures():
    rng = np.random.RandomState(51)
    dom = dom_n(24)
    for _ in range(10):
        u = ScalarField(dom, rng.randn(25, 25))
        d = DirectionField.from_function(
            dom, lambda x, y: np.cos(2 * x + rng.randn()) * np.sin(y)
        )
        mu, _ = field_to_measure(u, P_AREA)
        nu = gradient_measure(d.phi)
        ref = measures.second_variation(mu, nu, 0.0)
        got = second_variation_graph(u, P_AREA, d, mode="area")
        assert abs(got - ref) <= 1e-12 * (1 + abs(ref))


def test_second_variation_vanishes_on_aligned_directions():
    dom = dom_n(16)
    base = DirectionField.from_function(
        dom, lambda x, y: (1 - x * x) * (1 - y * y) * (1 + 0.5 * x)
    )
    u = base.phi
    d = DirectionField(ScalarField(dom, 0.7 * u.values))
    assert second_variation_graph(u, ZERO, d, mode="area") <= 1e-13


def test_second_variation_nonnegative_random():
    rng = np.random.RandomState(52)
    dom = dom_n(16)
    for _ in range(50):
        u = ScalarField(dom, rng.randn(17, 17))
        d = DirectionField.from_function(
            dom, lambda x, y: rng.randn() * x + rng.randn() * np.sin(3 * y)
        )
        for mode in ("area", "riemannian"):
            assert second_variation_graph(u, P_AREA, d, mode=mode) >= 0.0


def test_second_variation_against_central_quotient():
    # a direction cut off away from the singular band sees the smooth energy
    dom = dom_n(64)
    u = ScalarField.from_function(dom, lambda x, y: x * y)
    Xn, Yn = dom.node_coords()
    vals = np.where(Xn >= 0.25, np.exp(-((Xn - 0.5) ** 2 + Yn**2) / 0.02), 0.0)
    vals[dom.boundary_mask()] = 0.0
    d = DirectionField(ScalarField(dom, vals))
    fd = fd_validate(u, P_AREA, d, h_list=(3e-5,), mode="area")
    row = fd["rows"][0]
    s2 = fd["analytic_second"]
    assert s2 > 0
    assert row["err_second"] <= 1e-2 * s2
    assert row["err_plus"] <= 1e-3
    assert row["err_minus"] <= 1e-3


# ---- first variation at minimizers ---------------------------------------------------


def _random_directions(dom, rng, count):
    out = []
    for _ in range(count):
        c = rng.randn(8) * 0.5
        out.append(
            DirectionField.from_function(
                dom,
                lambda x, y: (1 - x * x)
                * (1 - y * y)
                * (
                    c[0]
                    + c[1] * x
                    + c[2] * y
                    + c[3] * np.sin(3 * x)
                    + c[4] * np.cos(2 * y)
                    + c[5] * x * y
                    + c[6] * np.sin(x + y)
                    + c[7] * x * x
                ),
            )
        )
    return out


def test_minimizer_sandwich_plane():
    dom = dom_n(32)
    phi = ScalarField.from_function(dom, lambda x, y: 2.0 * x - y + 1.0)
    res = continuation_minimize(dom, P_AREA, phi)
    rng = np.random.RandomState(53)
    for d in _random_directions(dom, rng, 10):
        rep = minimizer_first_variation(res.u, P_AREA, d)
        tol = 1e-4 * (1.0 + rep.F_value)
        assert rep.Fprime_minus <= tol
        assert rep.Fprime_plus >= -tol
        assert rep.Fsecond >= 0.0


def test_minimizer_sandwich_xy():
    dom = dom_n(64)
    phi = ScalarField.from_function(dom, lambda x, y: x * y)
    res = continuation_minimize(dom, P_AREA, phi)
    rng = np.random.RandomState(54)
    for d in _random_directions(dom, rng, 10):
        rep = minimizer_first_variation(res.u, P_AREA, d)
        tol = 1e-4 * (1.0 + rep.F_value)
        assert rep.Fprime_minus <= tol
        assert rep.Fprime_plus >= -tol


def test_jump_identity_exact():
    # the derivative jump is exactly twice the direction mass on the band
    dom = dom_n(64)
    u = ScalarField.from_function(dom, lambda x, y: x * y)
    band = singular_set(u, P_AREA).mask
    rng = np.random.RandomState(55)
    for d in _random_directions(dom, rng, 10):
        rep = minimizer_first_variation(u, P_AREA, d)
        g = gradient(d.phi).values
        norms = np.sqrt(np.einsum("...k,...k->...", g, g))
        expected = 2.0 * pairwise_sum(norms[band].ravel() * dom.cell_volume)
        assert abs((rep.Fprime_plus - rep.Fprime_minus) - expected) <= 1e-12 * (
            1 + expected
        )


def test_h_weight_contributes_linear_term():
    dom = dom_n(32)
    spec = EnergySpec(preset="p_area", H=1.5)
    u = ScalarField.from_function(dom, lambda x, y: 2.0 * x - y + 1.0)
    d = bump_direction(dom, lambda x, y: (1 - x * x) * (1 - y * y))
    plain = minimizer_first_variation(u, P_AREA, d)
    weighted = minimizer_first_variation(u, spec, d)
    bulk = 1.5 * pairwise_sum(d.phi.cell_average().ravel() * dom.cell_volume)
    assert abs((weighted.Fprime_plus - plain.Fprime_plus) - bulk) <= 1e-13
    assert abs((weighted.Fprime_minus - plain.Fprime_minus) - bulk) <= 1e-13
    assert abs(
        (weighted.F_value - plain.F_value)
        - 1.5 * pairwise_sum(u.cell_average().ravel() * dom.cell_volume)
    ) <= 1e-12


def test_minimizer_first_variation_is_the_public_measure_calculus():
    # one aligned pair inside, the public functions' values bit for bit
    rng = np.random.RandomState(57)
    dom = dom_n(48)
    saddle = continuation_minimize(dom, P_AREA, ScalarField.from_function(dom, lambda x, y: x * y)).u
    weighted = EnergySpec(preset="p_area", H=0.7)
    cases = [(saddle, P_AREA, d) for d in _random_directions(dom, rng, 2)]
    cases += [(saddle, weighted, d) for d in _random_directions(dom, rng, 2)]
    for u, spec, d in cases:
        rep = minimizer_first_variation(u, spec, d)
        mu, _ = field_to_measure(u, spec)
        nu = d.measure()
        fm, fp = measures.first_variation_pm(mu, nu, 0.0)
        ht = pairwise_sum((spec.H_cells(dom) * d.phi.cell_average()).ravel() * dom.cell_volume)
        hu = pairwise_sum((spec.H_cells(dom) * u.cell_average()).ravel() * dom.cell_volume)
        assert rep.F_value == measures.line_energy(mu, nu, 0.0) + hu
        assert rep.Fprime_minus == fm + ht
        assert rep.Fprime_plus == fp + ht
        assert rep.Fsecond == measures.second_variation(mu, nu, 0.0)
        assert rep.epsilon == 0.0
        assert rep.is_regular == bool(fp - fm <= 1e-14 * (1.0 + abs(fp) + abs(fm)))


def test_fd_validate_zero_base_energy_is_direction_mass():
    # over the degenerate base every quotient reproduces the direction mass
    dom = dom_n(32)
    u = ScalarField.from_function(dom, lambda x, y: 0.0 * x)
    d = bump_direction(dom, lambda x, y: (1 - x * x) * (1 - y * y) * np.cos(x))
    nu = gradient_measure(d.phi)
    tv = measures.total_variation(nu)
    fd = fd_validate(u, ZERO, d, h_list=(1e-4,), mode="area")
    row = fd["rows"][0]
    assert abs(fd["analytic_plus"] - tv) <= 1e-12 * (1 + tv)
    assert abs(fd["analytic_minus"] + tv) <= 1e-12 * (1 + tv)
    assert abs(row["q_plus"] - tv) <= 1e-3 * (1 + tv)
    assert row["err_plus"] <= 1e-10
    assert row["err_minus"] <= 1e-10


def _sharing_cases():
    rng = np.random.RandomState(56)
    dom = dom_n(64)
    phi = ScalarField.from_function(dom, lambda x, y: x * y)
    saddle = continuation_minimize(dom, P_AREA, phi).u
    assert singular_set(saddle, P_AREA).mask.any()
    for d in _random_directions(dom, rng, 3):
        yield saddle, P_AREA, d
    for n, spec in ((16, P_AREA), (17, EnergySpec(preset="p_area", H=0.4)), (24, ZERO)):
        dom = dom_n(n)
        for _ in range(4):
            u = ScalarField(dom, rng.randn(n + 1, n + 1))
            vals = rng.randn(n + 1, n + 1)
            vals[dom.boundary_mask()] = 0.0
            yield u, spec, DirectionField(ScalarField(dom, vals))


def test_fd_validate_shares_the_closed_forms():
    # the analytic values are the public functions' own, bit for bit
    for u, spec, d in _sharing_cases():
        fd = fd_validate(u, spec, d, h_list=(1e-4,))
        rep = minimizer_first_variation(u, spec, d)
        assert fd["analytic_plus"] == rep.Fprime_plus
        assert fd["analytic_minus"] == rep.Fprime_minus
        assert fd["analytic_second"] == second_variation_graph(u, spec, d, "area")
        fdr = fd_validate(u, spec, d, h_list=(1e-4,), mode="riemannian")
        assert fdr["analytic_second"] == second_variation_graph(u, spec, d, "riemannian")
        gu = gradient(u).values
        W = np.sqrt(1.0 + np.einsum("...k,...k->...", gu, gu))
        smooth = np.einsum("...k,...k->...", gu, gradient(d.phi).values) / W
        lifted = pairwise_sum(smooth.ravel() * u.dom.cell_volume)
        assert fdr["analytic_plus"] == fdr["analytic_minus"] == lifted


# ---- solved fields keep what is derived from them --------------------------------


def _solved(n, fn):
    dom = dom_n(n)
    return continuation_minimize(dom, P_AREA, ScalarField.from_function(dom, fn))


def _kept_results(u, spec):
    """Every array of u's gradient, singular set and measure pair, in order."""
    sing = singular_set(u, spec)
    mu, template = field_to_measure(u, spec)
    return [gradient(u).values, sing.mask, sing.drift, sing.norms,
            mu.ac_density, mu.cell_weights, template.ac_density, template.cell_weights]


@pytest.mark.parametrize("n, fn", [
    (16, lambda x, y: x * y + 0.3 * np.sin(2 * x + 0.3 * y)),   # band grid, Newton steps
    (72, lambda x, y: x * y),                                   # over 64 across, a singular band
])
def test_solved_field_keeps_the_bits_of_a_fresh_field(n, fn):
    res = _solved(n, fn)
    u = res.u
    assert isinstance(u, SolvedField) and u.spec is P_AREA
    fresh = ScalarField(u.dom, u.values.copy())
    kept = _kept_results(u, P_AREA)
    for a, b in zip(kept, _kept_results(fresh, P_AREA)):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    sing, ref = singular_set(u, P_AREA), singular_set(fresh, P_AREA)
    assert (sing.measure, sing.threshold) == (ref.measure, ref.threshold)
    # asked again, the same objects come back
    assert singular_set(u, P_AREA) is sing
    assert field_to_measure(u, P_AREA) is field_to_measure(u, P_AREA)
    assert gradient(u) is gradient(u)
    if n == 72:
        assert sing.mask.any()


def test_solved_field_and_its_kept_arrays_are_read_only():
    res = _solved(16, lambda x, y: x * y)
    u = res.u
    with pytest.raises(ValueError):
        u.values[3, 3] = 1.0
    for a in _kept_results(u, P_AREA):
        with pytest.raises(ValueError):
            a.flat[0] = a.flat[0]
    with pytest.raises(AttributeError):
        u.values = u.values.copy()
    with pytest.raises(AttributeError):
        u.spec = ZERO
    sing = singular_set(u, P_AREA)
    with pytest.raises(AttributeError):
        sing.mask = ~sing.mask


def test_kept_measure_attributes_cannot_be_rebound():
    u = _solved(8, lambda x, y: x * y).u
    mu, template = field_to_measure(u, P_AREA)
    density = mu.ac_density.copy()
    for m in (mu, template):
        for name, value in (("ac_density", np.zeros_like(m.ac_density)),
                            ("cell_weights", np.ones_like(m.cell_weights)),
                            ("atoms", ()), ("dimension", 3)):
            with pytest.raises(AttributeError):
                setattr(m, name, value)
    again, _ = field_to_measure(u, P_AREA)
    assert again is mu and again.ac_density.any()
    assert again.ac_density.tobytes() == density.tobytes()


def test_other_spec_or_tol_is_computed_afresh():
    res = _solved(24, lambda x, y: x * y)
    u = res.u
    kept_sing = singular_set(u, P_AREA)
    kept_mu, _ = field_to_measure(u, P_AREA)
    twin = EnergySpec(preset="p_area")      # equal, but not the solve's spec
    for sing in (singular_set(u, twin), singular_set(u, P_AREA, tol=0.5)):
        assert sing is not kept_sing and sing.norms.flags.writeable
    assert singular_set(u, twin) is not singular_set(u, twin)
    for mu, _ in (field_to_measure(u, twin), field_to_measure(u, P_AREA, tol=0.5)):
        assert mu is not kept_mu and mu.ac_density.flags.writeable
    # a plain field with the same values keeps nothing
    plain = ScalarField(u.dom, u.values.copy())
    assert gradient(plain) is not gradient(plain)
    assert singular_set(plain, P_AREA) is not singular_set(plain, P_AREA)


def test_certification_detects_the_singular_set_once(monkeypatch):
    # eight directions certified as one round of the saddle benchmark does:
    # one detection, one measure, no gradient of u beyond the solve's own
    rng = np.random.RandomState(41)
    res = _solved(48, lambda x, y: x * y)
    u = res.u
    calls = {"singular_set": 0, "field_to_measure": 0, "gradient": 0}

    def spy(name):
        compute = getattr(grids_module, f"_{name}")

        def counted(field, *args):
            calls[name] += field is u
            return compute(field, *args)
        monkeypatch.setattr(grids_module, f"_{name}", counted)

    for name in calls:
        spy(name)
    angle_condition(u, P_AREA)
    for d in _random_directions(u.dom, rng, 8):
        minimizer_first_variation(u, P_AREA, d)
        for mode in ("area", "riemannian"):
            second_variation_graph(u, P_AREA, d, mode)
            fd_validate(u, P_AREA, d, h_list=(1e-4,), mode=mode)
    assert calls == {"singular_set": 1, "field_to_measure": 1, "gradient": 0}


def test_fd_validate_riemannian_orders():
    dom = dom_n(64)
    u = ScalarField.from_function(dom, lambda x, y: 0.3 * x * x + 0.1 * x * y - 0.2 * y * y)
    d = bump_direction(dom, lambda x, y: (1 - x * x) * (1 - y * y) * np.sin(x + 2 * y))
    fd = fd_validate(u, ZERO, d, h_list=(3e-2, 1e-2, 3e-3), mode="riemannian")
    assert fd["orders_plus"] and fd["orders_second"]
    assert all(o >= 0.9 for o in fd["orders_plus"])
    assert all(o >= 0.9 for o in fd["orders_second"])
    assert fd["rows"][-1]["err_second"] <= 1e-2 * (1 + fd["analytic_second"])


def test_fd_validate_rejects_bad_input():
    dom = dom_n(8)
    u = ScalarField.from_function(dom, lambda x, y: x)
    d = bump_direction(dom, lambda x, y: (1 - x * x) * (1 - y * y))
    with pytest.raises(ValueError):
        fd_validate(u, ZERO, d, h_list=(0.0,))
    with pytest.raises(ValueError):
        fd_validate(u, ZERO, d, mode="bogus")
    other = dom_n(10)
    d2 = bump_direction(other, lambda x, y: (1 - x * x) * (1 - y * y))
    with pytest.raises(ValueError):
        minimizer_first_variation(u, ZERO, d2)


# ---- singular-curve geometry -----------------------------------------------------------


def test_angle_condition_xy_vertical_line():
    dom = dom_n(64)
    u = ScalarField.from_function(dom, lambda x, y: x * y)
    curves = angle_condition(u, P_AREA)
    assert len(curves) == 1
    curve, residual = curves[0]
    assert not curve.low_confidence
    assert residual <= 5.0 * dom.h_max
    assert curve.nu_mismatch <= 0.05
    # the chain runs along x = 0: tangents vertical, one-sided fields +/- e2
    assert np.abs(np.abs(curve.tau[:, 1]) - 1.0).max() <= 1e-12
    assert np.abs(curve.tau[:, 0]).max() <= 1e-12
    for k in range(curve.tau.shape[0]):
        pair = {tuple(np.round(curve.nu_plus[k], 6)), tuple(np.round(curve.nu_minus[k], 6))}
        assert pair == {(0.0, 1.0), (0.0, -1.0)}
    assert np.abs(curve.dots).max() <= 5.0 * dom.h_max
    assert np.abs(curve.points[:, 0]).max() <= dom.h_max


def test_angle_condition_solved_xy():
    dom = dom_n(64)
    phi = ScalarField.from_function(dom, lambda x, y: x * y)
    res = continuation_minimize(dom, P_AREA, phi)
    curves = angle_condition(res.u, P_AREA)
    assert len(curves) >= 1
    worst = max(r for _, r in curves)
    assert worst <= 5.0 * dom.h_max


def test_angle_condition_plane_has_no_curve():
    dom = dom_n(64)
    u = ScalarField.from_function(dom, lambda x, y: 0.5 * x - 0.3 * y)
    assert angle_condition(u, P_AREA) == []


def test_angle_condition_smooth_field_empty():
    dom = dom_n(32)
    u = ScalarField.from_function(dom, lambda x, y: 3.0 * x + np.sin(y))
    assert angle_condition(u, P_AREA) == []
