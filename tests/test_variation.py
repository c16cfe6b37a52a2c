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

        def counted(*args):
            # _singular_set and _field_to_measure take u, _gradient its values
            calls[name] += any(a is u or a is u.values for a in args)
            return compute(*args)
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


def test_fd_validate_refuses_a_bad_step_before_evaluating(monkeypatch):
    dom = dom_n(8)
    u = ScalarField.from_function(dom, lambda x, y: x * y)
    d = bump_direction(dom, lambda x, y: (1 - x * x) * (1 - y * y))
    gradients = []
    compute = grids_module._gradient
    monkeypatch.setattr(grids_module, "_gradient",
                        lambda *args: gradients.append(1) or compute(*args))
    for steps in ((np.nan,), (np.inf,), (-np.inf,), (0.0,), (-1e-3,), (1e-3, np.nan), (1e-3, 0.0)):
        for mode in ("area", "riemannian"):
            with pytest.raises(ValueError, match="steps must be finite and positive"):
                fd_validate(u, ZERO, d, h_list=steps, mode=mode)
    assert gradients == []
    fd_validate(u, ZERO, d, h_list=(1e-3,))
    assert gradients


# ---- one certification per direction ----------------------------------------------


def _certify(u, spec, d):
    """The five calls certify_saddle times for one direction."""
    return [minimizer_first_variation(u, spec, d),
            second_variation_graph(u, spec, d, "area"),
            second_variation_graph(u, spec, d, "riemannian"),
            fd_validate(u, spec, d, h_list=(1e-3, 1e-4)),
            fd_validate(u, spec, d, h_list=(1e-3, 1e-4), mode="riemannian")]


def _bits(value):
    """value with every float replaced by its hex form, for bitwise equality."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {k: _bits(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_bits(v) for v in value]
    if hasattr(value, "__dataclass_fields__"):
        return _bits(dict(vars(value)))
    return value


def _spies(monkeypatch, u, d):
    """Count grad phi, the closed-form kernels and the base energies E(u)."""
    import areavar.variation as variation_module
    calls = {"grad_phi": 0, "line_variation": 0, "_area_second": 0, "_lifted_variations": 0,
             "E_area": 0, "E_lifted": 0}

    def counted(module, name, key, when=lambda *args: True):
        fn = getattr(module, name)

        def spy(*args, **kwargs):
            calls[key] += bool(when(*args, **kwargs))
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, spy)

    counted(grids_module, "_gradient", "grad_phi", lambda dom, v, g, t: v is d.phi.values)
    counted(measures, "line_variation", "line_variation")
    for name in ("_area_second", "_lifted_variations"):
        counted(variation_module, name, name)
    for module in (grids_module, variation_module):
        counted(module, "_line_energies", "E_area",
                lambda w, spec, phi=None, steps=(0.0,): w is u and phi is None and spec is not None)
        counted(module, "_line_energies", "E_lifted",
                lambda w, spec, phi=None, steps=(0.0,): w is u and phi is None and spec is None)
    return calls


def _solved_32():
    dom = dom_n(32)
    res = continuation_minimize(dom, P_AREA, ScalarField.from_function(dom, lambda x, y: x * y))
    assert isinstance(res.u, SolvedField) and singular_set(res.u, P_AREA).mask.any()
    return res.u


def test_one_direction_forms_each_quantity_once(monkeypatch):
    u = _solved_32()
    d1, d2 = _random_directions(u.dom, np.random.RandomState(7), 2)
    calls = _spies(monkeypatch, u, d1)
    _certify(u, P_AREA, d1)
    assert calls == {"grad_phi": 1, "line_variation": 1, "_area_second": 1, "_lifted_variations": 1,
                     "E_area": 1, "E_lifted": 1}
    # asked again, nothing is formed again
    _certify(u, P_AREA, d1)
    assert calls == {"grad_phi": 1, "line_variation": 1, "_area_second": 1, "_lifted_variations": 1,
                     "E_area": 1, "E_lifted": 1}
    # a second direction forms its own closed forms, but not E(u)
    _certify(u, P_AREA, d2)
    assert calls == {"grad_phi": 1, "line_variation": 2, "_area_second": 2, "_lifted_variations": 2,
                     "E_area": 1, "E_lifted": 1}


def test_kept_certification_has_the_bits_of_a_plain_field():
    u = _solved_32()
    plain = ScalarField(u.dom, u.values.copy())
    d1, d2 = _random_directions(u.dom, np.random.RandomState(8), 2)
    fresh = {id(d): _bits(_certify(plain, P_AREA, d)) for d in (d1, d2)}
    assert fresh[id(d1)] != fresh[id(d2)]
    # d1, then d2, then d1 again: each gets its own bits back
    for d in (d1, d2, d1):
        assert _bits(_certify(u, P_AREA, d)) == fresh[id(d)]
    # interleaved calls replace the slot in mid-certification
    for d in (d1, d2):
        first = minimizer_first_variation(u, P_AREA, d)
        other = d2 if d is d1 else d1
        second_variation_graph(u, P_AREA, other, "area")
        assert _bits([first] + _certify(u, P_AREA, d)[1:]) == fresh[id(d)]


def test_a_plain_field_or_another_spec_computes_afresh(monkeypatch):
    u = _solved_32()
    (d,) = _random_directions(u.dom, np.random.RandomState(9), 1)
    twin = EnergySpec(preset="p_area")      # equal, but not the solve's spec
    plain = ScalarField(u.dom, u.values.copy())
    ref = _bits(_certify(u, P_AREA, d))
    calls = _spies(monkeypatch, u, d)
    for field, spec in ((u, twin), (plain, P_AREA)):
        for _ in range(2):
            assert _bits(_certify(field, spec, d)) == ref
    # in each of the four certifications every call forms grad phi afresh,
    # the area fd_validate twice: in the two public calls it reads
    assert calls["line_variation"] == calls["_area_second"] == 4 * 2
    assert calls["_lifted_variations"] == 4 * 2
    assert calls["grad_phi"] == 4 * (1 + 1 + 1 + 2 + 1)
    assert minimizer_first_variation(u, twin, d) is not minimizer_first_variation(u, twin, d)


def test_a_direction_is_read_only():
    dom = dom_n(8)
    vals = ScalarField.from_function(dom, lambda x, y: (1 - x * x) * (1 - y * y)).values
    d = DirectionField(ScalarField(dom, vals))
    assert d.phi.values is vals and not vals.flags.writeable
    with pytest.raises(ValueError):
        d.phi.values[3, 3] = 1.0
    with pytest.raises(AttributeError):
        d.phi = ScalarField(dom, vals.copy())
    u = _solved(8, lambda x, y: x * y).u
    rep = minimizer_first_variation(u, P_AREA, d)
    with pytest.raises(AttributeError):
        rep.Fprime_plus = 0.0
    assert minimizer_first_variation(u, P_AREA, d) is rep


def test_base_energy_is_the_energy_at_step_zero():
    # E(u), kept on a solved field, is bitwise E(u + 0*phi), also where u has
    # -0 entries that adding 0*phi turns into +0
    spec = EnergySpec(preset="p_area", H=0.4)
    dom = dom_n(24)
    res = continuation_minimize(dom, spec, ScalarField.from_function(dom, lambda x, y: x * y))
    vals = res.u.values.copy()
    X, Y = dom.node_coords()
    vals[np.abs(X) + np.abs(Y) <= 0.5] = -0.0
    u = SolvedField(dom, vals, spec)
    (d,) = _random_directions(dom, np.random.RandomState(10), 1)
    at_zero = ScalarField(dom, u.values + 0.0 * d.phi.values)
    assert at_zero.values.tobytes() != u.values.tobytes()
    for w in (u, ScalarField(dom, vals.copy())):
        assert area_energy(w, spec).hex() == area_energy(at_zero, spec).hex()
    # the quotients as the parent formed them, from E(u + 0*phi)
    lifted = lambda f: pairwise_sum(np.sqrt(1.0 + np.einsum(
        "...k,...k->...", gradient(f).values, gradient(f).values)).ravel() * dom.cell_volume)
    for mode, energy in (("area", lambda f: area_energy(f, spec)), ("riemannian", lifted)):
        fd = fd_validate(u, spec, d, h_list=(1e-3, 1e-4), mode=mode)
        E0 = energy(at_zero)
        for row in fd["rows"]:
            h = row["h"]
            Ep = energy(ScalarField(dom, u.values + h * d.phi.values))
            Em = energy(ScalarField(dom, u.values + (-h) * d.phi.values))
            assert row["q_plus"].hex() == ((Ep - E0) / h).hex()
            assert row["q_minus"].hex() == ((E0 - Em) / h).hex()
            assert row["q_second"].hex() == ((Ep - 2.0 * E0 + Em) / (h * h)).hex()


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
