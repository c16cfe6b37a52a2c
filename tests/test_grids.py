import csv
import math

import numpy as np
import pytest

from areavar import measures
from areavar.grids import (
    CellScalarField,
    EnergySpec,
    GridDomain,
    ScalarField,
    VectorField,
    area_energy,
    field_to_measure,
    gradient,
    gradient_measure,
    hypothesis_checks,
    read_scalar_csv,
    singular_set,
    write_cell_csv,
    write_scalar_csv,
)
from areavar.geometry import mean_curvature_euclidean
from areavar.util import pairwise_sum

SQ = ((-1.0, 1.0), (-1.0, 1.0))
SQ01 = ((0.0, 1.0), (0.0, 1.0))


def dom_n(n):
    return GridDomain(SQ, (n, n))


# ---- gradient -------------------------------------------------------------------


def test_gradient_constant_is_zero():
    u = ScalarField.from_function(dom_n(8), lambda x, y: 0.0 * x + 2.5)
    assert np.all(gradient(u).values == 0.0)


def test_gradient_exact_on_affines():
    dom = GridDomain(((-1.0, 2.0), (0.5, 1.25)), (7, 5))
    u = ScalarField.from_function(dom, lambda x, y: 3.0 * x + 2.0 * y - 0.75)
    g = gradient(u).values
    assert np.abs(g[..., 0] - 3.0).max() <= 1e-13
    assert np.abs(g[..., 1] - 2.0).max() <= 1e-13


def test_gradient_quadratic_at_cell_centers():
    # u = x^2 with spacing 0.5: averaged forward differences give the exact
    # derivative 2x at cell centers (first center at x = 0.25 -> 0.5)
    dom = GridDomain(((0.0, 1.0), (0.0, 1.0)), (2, 2))
    u = ScalarField.from_function(dom, lambda x, y: x * x)
    g = gradient(u).values
    assert abs(g[0, 0, 0] - 0.5) <= 1e-15
    xc = dom.axis_centers(0)
    assert np.abs(g[..., 0] - 2.0 * xc[:, None]).max() <= 1e-14


# ---- energy -----------------------------------------------------------------------


def test_energy_zero_field():
    spec = EnergySpec(preset="zero")
    u = ScalarField.from_function(GridDomain(((0.0, 1.0), (0.0, 1.0)), (8, 8)),
                                  lambda x, y: 0.0 * x)
    assert area_energy(u, spec) == 0.0


def test_energy_unit_slope():
    spec = EnergySpec(preset="zero")
    dom = GridDomain(((0.0, 1.0), (0.0, 1.0)), (16, 16))
    u = ScalarField.from_function(dom, lambda x, y: x)
    assert abs(area_energy(u, spec) - 1.0) <= 1e-13


def test_energy_radial_drift_against_closed_form():
    # with u = 0 the p-area energy is the integral of |(x, y)| over the square,
    # whose closed form is (4/3) (sqrt 2 + asinh 1)
    spec = EnergySpec(preset="p_area")
    u = ScalarField.from_function(dom_n(256), lambda x, y: 0.0 * x)
    ref = (4.0 / 3.0) * (math.sqrt(2.0) + math.asinh(1.0))
    e = area_energy(u, spec)
    assert abs(e - ref) <= 2e-3
    assert abs(e - 3.0608) <= 2e-3


def test_energy_bulk_term():
    dom = GridDomain(((0.0, 1.0), (0.0, 1.0)), (32, 32))
    spec = EnergySpec(preset="zero", H=2.0)
    u = ScalarField.from_function(dom, lambda x, y: x)
    # |grad u| integrates to 1; the bulk part adds 2 * integral of x = 1
    assert abs(area_energy(u, spec) - 2.0) <= 1e-12


def test_energy_skips_a_zero_bulk_term_exactly():
    # H = 0 adds +-0 to every cell: skipping it changes no bit
    rng = np.random.RandomState(8)
    for spec in (EnergySpec(preset="p_area"), EnergySpec(preset="zero", H=0)):
        for n in (9, 16):
            dom = dom_n(n)
            u = ScalarField(dom, rng.randn(n + 1, n + 1))
            m = gradient(u).values + spec.F_cells(dom)
            dens = np.sqrt(np.einsum("...k,...k->...", m, m))
            explicit = pairwise_sum((dens + 0.0 * u.cell_average()).ravel() * dom.cell_volume)
            assert area_energy(u, spec) == explicit


def _energy_oracle(v, dom, spec):
    """The midpoint energy of nodal values v, each value through a fresh
    field as area_energy forms it; spec None: the lifted graph area."""
    f = ScalarField(dom, v)
    if spec is not None:
        m = gradient(f).values + spec.F_cells(dom)
        integrand = np.sqrt(np.einsum("...k,...k->...", m, m))
        if not (np.isscalar(spec.H) and spec.H == 0):
            integrand = integrand + spec.H_cells(dom) * f.cell_average()
    else:
        g = gradient(f).values
        integrand = np.sqrt(1.0 + np.einsum("...k,...k->...", g, g))
    return pairwise_sum(integrand.ravel() * dom.cell_volume)


def test_line_energies_keep_the_bits_of_fresh_fields():
    from areavar.grids import _line_energies
    rng = np.random.RandomState(3)
    dom = GridDomain(((-1.0, 2.0), (0.0, 1.5)), (13, 9))
    custom = VectorField(dom, rng.randn(13, 9, 2))
    specs = [None, EnergySpec(preset="zero"), EnergySpec(preset="p_area"),
             EnergySpec(preset="p_area", H=-0.7), EnergySpec(preset="custom", F_field=custom,
                                                            H=rng.randn(13, 9))]
    u = ScalarField(dom, rng.randn(14, 10))
    u.values[::3, ::2] = -0.0
    phi = rng.randn(14, 10)
    steps = [1e-3, -1e-3, 0.0, 0.25, -7.5]
    for spec in specs:
        got = _line_energies(u, spec, phi, steps)
        want = [_energy_oracle(u.values + s * phi, dom, spec) for s in steps]
        assert [e.hex() for e in got] == [e.hex() for e in want]
        assert _line_energies(u, spec)[0].hex() == _energy_oracle(u.values, dom, spec).hex()
    # a step whose values or gradient are not finite is refused, as the fields refuse it
    huge = np.zeros((14, 10))
    huge[5, 5], huge[6, 5] = 1.7e308, -1.7e308
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="nodal values must be finite"):
            _line_energies(u, specs[2], huge, [1e-3, 10.0])
        for spec in (specs[2], None):
            with pytest.raises(ValueError, match="cell values must be finite"):
                _line_energies(u, spec, huge, [1.0])
            with pytest.raises(ValueError, match="cell values must be finite"):
                _energy_oracle(u.values + huge, dom, spec)


def test_energy_matches_onesided_tv_at_first_order():
    # the cell-centered energy and a staggered one-sided total variation
    # agree up to O(h): halving h halves the gap
    spec = EnergySpec(preset="zero")

    def onesided_tv(u):
        d = u.dom
        hx, hy = d.spacing
        v = u.values
        gx = (v[1:, :-1] - v[:-1, :-1]) / hx
        gy = (v[:-1, 1:] - v[:-1, :-1]) / hy
        return pairwise_sum(np.sqrt(gx * gx + gy * gy).ravel() * d.cell_volume)

    fn = lambda x, y: np.sin(1.3 * x + 0.4) * np.cos(0.9 * y - 0.3) + 0.5 * x
    gaps = []
    for n in (32, 64, 128):
        u = ScalarField.from_function(dom_n(n), fn)
        gaps.append(abs(area_energy(u, spec) - onesided_tv(u)))
    for g1, g2 in zip(gaps, gaps[1:]):
        assert 1.7 <= g1 / g2 <= 2.3


def test_energy_convex():
    rng = np.random.RandomState(20)
    dom = dom_n(16)
    shape = tuple(n + 1 for n in dom.n_cells)
    for spec in (EnergySpec(preset="zero"), EnergySpec(preset="p_area")):
        for _ in range(50):
            u = ScalarField(dom, rng.randn(*shape))
            v = ScalarField(dom, rng.randn(*shape))
            t = rng.rand()
            w = ScalarField(dom, t * u.values + (1 - t) * v.values)
            assert (
                area_energy(w, spec)
                <= t * area_energy(u, spec) + (1 - t) * area_energy(v, spec) + 1e-12
            )


def test_energy_equals_line_energy_of_measure():
    rng = np.random.RandomState(21)
    dom = dom_n(24)
    spec = EnergySpec(preset="p_area")
    shape = tuple(n + 1 for n in dom.n_cells)
    for _ in range(10):
        u = ScalarField(dom, rng.randn(*shape))
        mu, template = field_to_measure(u, spec, tol=0.0)
        e = measures.line_energy(mu, template, 0.0)
        assert abs(e - area_energy(u, spec)) <= 1e-12 * (1 + abs(e))


def test_energy_lower_bounded_by_smooth_pairings():
    # pairing grad u + F against any unit-capped test field underestimates
    # the energy; the exact unit field attains it
    rng = np.random.RandomState(22)
    dom = dom_n(32)
    spec = EnergySpec(preset="p_area")
    u = ScalarField.from_function(dom, lambda x, y: np.sin(x + y) + 0.3 * x * x)
    m = singular_set(u, spec).drift
    e = area_energy(u, spec)
    Xc, Yc = dom.center_coords()
    best = -np.inf
    for k in range(20):
        c = rng.randn(6) * 0.7
        p1 = c[0] + c[1] * Xc + c[2] * np.sin(Yc + c[3])
        p2 = c[4] + c[5] * Xc * Yc
        norm = np.maximum(1.0, np.hypot(p1, p2))
        pairing = pairwise_sum(
            ((m[..., 0] * p1 + m[..., 1] * p2) / norm).ravel() * dom.cell_volume
        )
        best = max(best, pairing)
        assert pairing <= e + 1e-10
    norms = np.sqrt(np.einsum("...k,...k->...", m, m))
    unit = m / np.where(norms == 0.0, 1.0, norms)[..., None]
    exact = pairwise_sum(
        np.einsum("...k,...k->...", m, unit).ravel() * dom.cell_volume
    )
    assert abs(exact - e) <= 1e-12 * (1 + e)
    assert best <= exact


# ---- singular set -----------------------------------------------------------------


def test_singular_set_xy_band():
    spec = EnergySpec(preset="p_area")
    for n in (32, 64):
        dom = dom_n(n)
        h = dom.h_max
        u = ScalarField.from_function(dom, lambda x, y: x * y)
        ss = singular_set(u, spec)
        xc = dom.axis_centers(0)
        cells = np.argwhere(ss.mask)
        assert len(cells) == 2 * n
        assert max(abs(xc[i]) for i, _ in cells) <= h
        assert abs(ss.measure - 2.0 * h * 2.0) <= 1e-14


def test_singular_set_exact_tolerance():
    spec = EnergySpec(preset="p_area")
    dom = dom_n(32)
    u = ScalarField.from_function(dom, lambda x, y: x * y)
    # no cell center sits exactly on x = 0, so tol = 0 flags nothing
    assert singular_set(u, spec, tol=0.0).mask.sum() == 0


def test_singular_set_degenerate_everything():
    spec = EnergySpec(preset="zero")
    dom = dom_n(16)
    u = ScalarField.from_function(dom, lambda x, y: 0.0 * x)
    ss = singular_set(u, spec)
    assert ss.mask.all()
    assert abs(ss.measure - dom.area) <= 1e-14


def test_singular_set_plane_is_a_point():
    spec = EnergySpec(preset="p_area")
    for n in (64, 128):
        dom = dom_n(n)
        h = dom.h_max
        u = ScalarField.from_function(dom, lambda x, y: 0.5 * x - 0.3 * y)
        ss = singular_set(u, spec)
        cells = np.argwhere(ss.mask)
        assert len(cells) >= 1
        xc, yc = dom.axis_centers(0), dom.axis_centers(1)
        dists = [math.hypot(xc[i] - 0.3, yc[j] - 0.5) for i, j in cells]
        assert max(dists) <= 2.0 * h
        assert ss.measure <= 8.0 * h * h


def test_singular_set_rejects_negative_tol():
    dom = dom_n(8)
    u = ScalarField.from_function(dom, lambda x, y: x)
    with pytest.raises(ValueError):
        singular_set(u, EnergySpec(preset="zero"), tol=-1.0)


# ---- measures from fields ------------------------------------------------------------


def test_field_to_measure_plane_densities():
    dom = dom_n(16)
    spec = EnergySpec(preset="p_area")
    a, b = 0.4, -0.2
    u = ScalarField.from_function(dom, lambda x, y: a * x + b * y)
    mu, _ = field_to_measure(u, spec, tol=0.0)
    Xc, Yc = dom.center_coords()
    expected = np.stack([a - Yc, b + Xc], axis=-1).reshape(-1, 2)
    assert np.abs(mu.ac_density - expected).max() <= 1e-13


def test_field_to_measure_zeroes_singular_band():
    dom = dom_n(32)
    spec = EnergySpec(preset="p_area")
    u = ScalarField.from_function(dom, lambda x, y: x * y)
    mu, _ = field_to_measure(u, spec)
    dens = mu.ac_density.reshape(32, 32, 2)
    band = singular_set(u, spec).mask
    assert np.all(dens[band] == 0.0)
    assert np.all(dens[~band] != 0.0) or True
    # a boundary-vanishing direction decomposes with its band mass singular
    phi = ScalarField.from_function(dom, lambda x, y: (1 - x * x) * (1 - y * y))
    nu = gradient_measure(phi)
    dec = measures.decompose(nu, mu)
    sing_cells = {tuple(c) for c in np.argwhere(band)}
    nus_dens = dec.nu_s.ac_density.reshape(32, 32, 2)
    carried = {tuple(c) for c in np.argwhere(np.any(nus_dens != 0.0, axis=-1))}
    assert carried <= sing_cells


def test_field_to_measure_zero_base():
    dom = dom_n(8)
    spec = EnergySpec(preset="zero")
    u = ScalarField.from_function(dom, lambda x, y: 0.0 * x)
    mu, _ = field_to_measure(u, spec)
    assert measures.total_variation(mu) == 0.0
    phi = ScalarField.from_function(dom, lambda x, y: np.sin(x) * np.sin(y))
    nu = gradient_measure(phi)
    dec = measures.decompose(nu, mu)
    assert abs(
        measures.total_variation(dec.nu_s) - measures.total_variation(nu)
    ) <= 1e-14


# ---- drift hypotheses -----------------------------------------------------------------


def test_hypothesis_checks_p_area():
    dom = dom_n(32)
    spec = EnergySpec(preset="p_area")
    # potentials satisfying d_K F_I = d_I f_K for F = (-y, x)
    f1 = ScalarField.from_function(dom, lambda x, y: y)
    f2 = ScalarField.from_function(dom, lambda x, y: -x)
    rep = hypothesis_checks(dom, spec, [f1, f2])
    assert rep["gradient_compat_residual"] <= 1e-10
    assert abs(rep["min_rotated_divergence"] - 2.0) <= 1e-10
    assert rep["rotated_divergence_positive"]


def test_hypothesis_checks_zero_drift():
    dom = dom_n(16)
    spec = EnergySpec(preset="zero")
    zero = ScalarField.from_function(dom, lambda x, y: 0.0 * x)
    rep = hypothesis_checks(dom, spec, [zero, zero])
    assert rep["gradient_compat_residual"] == 0.0
    assert abs(rep["min_rotated_divergence"]) <= 1e-14
    assert not rep["rotated_divergence_positive"]


def test_hypothesis_checks_wrong_list_length():
    dom = dom_n(8)
    z = ScalarField.from_function(dom, lambda x, y: 0.0 * x)
    with pytest.raises(ValueError):
        hypothesis_checks(dom, EnergySpec(preset="zero"), [z])


# ---- spec validation ----------------------------------------------------------------


def test_energy_spec_validation():
    with pytest.raises(ValueError):
        EnergySpec(preset="bogus")
    with pytest.raises(ValueError):
        EnergySpec(preset="custom")


def test_energy_spec_rejects_custom_drift_without_2_components():
    dom = dom_n(4)
    for d in (1, 3):
        with pytest.raises(ValueError, match="2 components"):
            EnergySpec(preset="custom", F_field=VectorField(dom, np.zeros((4, 4, d))))
    EnergySpec(preset="custom", F_field=VectorField(dom, np.zeros((4, 4, 2))))


def test_energy_spec_custom_field_and_alias():
    dom = dom_n(8)
    Xc, Yc = dom.center_coords()
    F = VectorField(dom, np.stack([-Yc, Xc], axis=-1))
    custom = EnergySpec(preset="custom", F_field=F)
    alias = EnergySpec(preset="minus_X_star")
    preset = EnergySpec(preset="p_area")
    u = ScalarField.from_function(dom, lambda x, y: x * y)
    e = area_energy(u, preset)
    assert area_energy(u, custom) == e
    assert area_energy(u, alias) == e
    other = dom_n(10)
    with pytest.raises(ValueError):
        custom.F_cells(other)


def test_F_cells_equals_the_meshgrid_evaluation():
    rng = np.random.RandomState(9)
    dom = GridDomain(((-1.0, 2.0), (0.5, 1.5)), (7, 11))
    custom = EnergySpec(preset="custom", F_field=VectorField(dom, rng.randn(7, 11, 2)))
    for spec in (EnergySpec(preset="p_area"), custom):
        assert np.array_equal(spec.F_cells(dom), spec.F_at(dom, *dom.center_coords()))


def test_per_cell_H_shape_check():
    dom = dom_n(8)
    with pytest.raises(ValueError):
        EnergySpec(preset="zero", H=np.ones((3, 3))).H_cells(dom)


def test_domain_validation():
    with pytest.raises(ValueError):
        GridDomain(((0.0, 1.0),), (2, 2))
    with pytest.raises(ValueError):
        GridDomain(((0.0, 1.0),) * 3, (2, 2, 2))
    with pytest.raises(ValueError):
        GridDomain(((1.0, 0.0), (0.0, 1.0)), (4, 4))
    with pytest.raises(ValueError):
        GridDomain(SQ, (1, 4))
    for bad in ((-math.inf, math.inf), (0.0, math.inf), (math.nan, 1.0), (-1e308, 1e308)):
        with pytest.raises(ValueError):
            GridDomain((bad, (0.0, 1.0)), (4, 4))


def test_scalar_field_validation():
    dom = dom_n(4)
    with pytest.raises(ValueError):
        ScalarField(dom, np.zeros((4, 4)))
    bad = np.zeros((5, 5))
    bad[2, 2] = np.nan
    with pytest.raises(ValueError):
        ScalarField(dom, bad)


# ---- CSV round trips --------------------------------------------------------------------


def test_scalar_csv_round_trip(tmp_path):
    dom = GridDomain(((-1.5, 0.5), (0.0, 2.0)), (6, 9))
    rng = np.random.RandomState(23)
    u = ScalarField(dom, rng.randn(7, 10) * 1e3)
    path = tmp_path / "u.csv"
    write_scalar_csv(u, path)
    back = read_scalar_csv(path)
    assert back.dom == dom
    assert np.array_equal(back.values, u.values)


def test_cell_csv_vector_and_masked_scalar(tmp_path):
    dom = dom_n(8)
    u = ScalarField.from_function(dom, lambda x, y: 0.5 * (x * x + y * y))
    g = gradient(u)
    vec_path = tmp_path / "grad.csv"
    write_cell_csv(g, vec_path)
    lines = vec_path.read_text().strip().splitlines()
    assert lines[0] == "i,j,x,y,v1,v2"
    assert len(lines) == 1 + 8 * 8

    H = mean_curvature_euclidean(u)
    cur_path = tmp_path / "curv.csv"
    write_cell_csv(H, cur_path)
    lines = cur_path.read_text().strip().splitlines()
    assert lines[0] == "i,j,x,y,value"
    values = [row.split(",")[4] for row in lines[1:]]
    assert any(v == "nan" for v in values)  # masked boundary ring
    finite = [float(v) for v in values if v != "nan"]
    assert len(finite) == 6 * 6


def test_cell_csv_exact_bytes(tmp_path):
    # 17 significant digits, -0, tiny and huge values, masked cells as nan,
    # excel line endings: the bytes the CLI's density and curvature files carry
    dom = GridDomain(((-1.0, 0.5), (0.0, 1.0)), (3, 2))
    vals = np.array([[[0.1, -0.0], [1.0 / 3.0, 1e-300]],
                     [[-2.5, 7.0], [1e17, 123456789.0]],
                     [[2.0 ** -40, -1.0 / 7.0], [0.0, 3.0]]])
    vec_path = tmp_path / "vec.csv"
    write_cell_csv(VectorField(dom, vals), vec_path)
    assert vec_path.read_bytes() == (
        b"i,j,x,y,v1,v2\r\n"
        b"0,0,-0.75,0.25,0.10000000000000001,-0\r\n"
        b"0,1,-0.75,0.75,0.33333333333333331,1e-300\r\n"
        b"1,0,-0.25,0.25,-2.5,7\r\n"
        b"1,1,-0.25,0.75,1e+17,123456789\r\n"
        b"2,0,0.25,0.25,9.0949470177292824e-13,-0.14285714285714285\r\n"
        b"2,1,0.25,0.75,0,3\r\n"
    )
    mask = np.array([[True, False], [True, True], [False, True]])
    cell_path = tmp_path / "cell.csv"
    write_cell_csv(CellScalarField(dom, vals[..., 0], mask), cell_path)
    assert cell_path.read_bytes() == (
        b"i,j,x,y,value\r\n"
        b"0,0,-0.75,0.25,0.10000000000000001\r\n"
        b"0,1,-0.75,0.75,nan\r\n"
        b"1,0,-0.25,0.25,-2.5\r\n"
        b"1,1,-0.25,0.75,1e+17\r\n"
        b"2,0,0.25,0.25,nan\r\n"
        b"2,1,0.25,0.75,0\r\n"
    )


def _reference_csv(path, header, xs, ys, values):
    """The writer as it was before line templates: csv.writer's excel
    dialect, one row per point, format(v, ".17g") per float."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for i, x in enumerate(xs.tolist()):
            for j, y in enumerate(ys.tolist()):
                w.writerow([i, j, format(x, ".17g"), format(y, ".17g")]
                           + [format(v, ".17g") for v in np.ravel(values[i, j]).tolist()])
    return path.read_bytes()


SPECIAL = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1.7976931348623157e308, 2.0 ** -40,
           3.0, -12.0, 1e17]


@pytest.mark.parametrize("n_cells", [(11, 13), (13, 11)])
def test_csv_writers_match_the_reference_writer(tmp_path, n_cells):
    # off-centre grids where i and j reach two digits, either axis the longer
    dom = GridDomain(((-0.3, 1.7), (0.2, 1.15)), n_cells)
    rng = np.random.RandomState(sum(n_cells))
    xs, ys = dom.axis_nodes(0), dom.axis_nodes(1)
    u = ScalarField(dom, rng.randn(xs.size, ys.size) * 10.0 ** rng.randint(-5, 6, (xs.size, ys.size)))
    write_scalar_csv(u, tmp_path / "u.csv")
    assert (tmp_path / "u.csv").read_bytes() == _reference_csv(
        tmp_path / "u_ref.csv", ["i", "j", "x", "y", "value"], xs, ys, u.values)

    xc, yc = dom.axis_centers(0), dom.axis_centers(1)
    for d in (2, 3):
        vals = rng.randn(*n_cells, d)
        write_cell_csv(VectorField(dom, vals), tmp_path / "v.csv")
        header = ["i", "j", "x", "y"] + [f"v{k + 1}" for k in range(d)]
        assert (tmp_path / "v.csv").read_bytes() == _reference_csv(
            tmp_path / "v_ref.csv", header, xc, yc, vals)

    vals = rng.randn(*n_cells)
    vals.flat[:len(SPECIAL)] = SPECIAL
    vals.flat[-len(SPECIAL):] = SPECIAL
    mask = rng.rand(*n_cells) < 0.8
    mask.flat[:len(SPECIAL)] = mask.flat[-len(SPECIAL):] = True
    assert not mask.all()
    write_cell_csv(CellScalarField(dom, vals, mask), tmp_path / "c.csv")
    assert (tmp_path / "c.csv").read_bytes() == _reference_csv(
        tmp_path / "c_ref.csv", ["i", "j", "x", "y", "value"], xc, yc,
        np.where(mask, vals, np.nan))


def test_read_scalar_csv_rejects_garbage(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("i,j,x,y,value\n0,0,zero,0,1\n")
    with pytest.raises(ValueError):
        read_scalar_csv(path)


def _csv_lines(tmp_path, n_cells):
    """The lines write_scalar_csv gives for x + 2y on [0, 1]^2."""
    dom = GridDomain(SQ01, n_cells)
    path = tmp_path / "good.csv"
    write_scalar_csv(ScalarField.from_function(dom, lambda x, y: x + 2 * y), path)
    return path.read_text().splitlines()


def _read_lines(tmp_path, lines):
    path = tmp_path / "edited.csv"
    path.write_text("\n".join(lines) + "\n")
    return read_scalar_csv(path)


@pytest.mark.parametrize(
    "n_cells, edit, message",
    [
        # column i = 1 of [0, 1] at x = 0.9 instead of 0.5
        ((2, 2), lambda line: line.replace(",0.5,", ",0.9,", 1) if line.startswith("1,") else line,
         "x coordinates off"),
        # node (0, 1) 2e-9 off y = 0.5
        ((2, 2), lambda line: "0,1,0,0.500000002,1" if line.startswith("0,1,") else line,
         "y coordinates off"),
        # the last column i = 3 numbered -1: it would index the grid from its end
        ((3, 2), lambda line: "-1" + line[1:] if line.startswith("3,") else line, "negative"),
    ],
)
def test_read_scalar_csv_rejects_edited_rows(tmp_path, n_cells, edit, message):
    lines = _csv_lines(tmp_path, n_cells)
    with pytest.raises(ValueError, match=message):
        _read_lines(tmp_path, [edit(line) for line in lines])


def test_read_scalar_csv_rejects_duplicate_rows(tmp_path):
    lines = _csv_lines(tmp_path, (2, 2)) + ["1,1,0.5,0.5,99"]
    with pytest.raises(ValueError, match="duplicate"):
        _read_lines(tmp_path, lines)


def test_read_scalar_csv_accepts_coordinates_within_tolerance(tmp_path):
    lines = _csv_lines(tmp_path, (2, 2))
    assert lines[2] == "0,1,0,0.5,1"
    lines[2] = "0,1,0,0.5000000001,1"        # 1e-10 off y = 0.5
    u = _read_lines(tmp_path, lines)
    assert u.dom == GridDomain(SQ01, (2, 2)) and u.values[0, 1] == 1.0


def test_read_scalar_csv_rejects_short_rows(tmp_path):
    lines = _csv_lines(tmp_path, (2, 2))
    lines[3] = "0,2,0"
    with pytest.raises(ValueError, match="fewer than 5 fields"):
        _read_lines(tmp_path, lines)


@pytest.mark.parametrize(
    "extents, n_cells",
    [(((-1.0, 0.4), (0.2, 1.1)), (7, 13)), (((0.1, 0.3), (-1e3, 7.0)), (33, 2))],
)
def test_scalar_csv_round_trip_within_coordinate_tolerance(tmp_path, extents, n_cells):
    # the g17 coordinates of linspace nodes read back onto the same nodes
    dom = GridDomain(extents, n_cells)
    u = ScalarField(dom, np.random.RandomState(5).randn(n_cells[0] + 1, n_cells[1] + 1))
    path = tmp_path / "u.csv"
    write_scalar_csv(u, path)
    back = read_scalar_csv(path)
    assert back.dom == dom
    assert np.array_equal(back.values, u.values)
