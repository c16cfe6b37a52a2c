import math

import numpy as np
import pytest

from areavar.measures import (
    CANCEL_REL_TOL,
    VectorMeasure,
    _entry_norms,
    _support,
    add_scaled,
    aligned_masses,
    decompose,
    first_variation_pm,
    line_energy,
    second_variation,
    singular_epsilons,
    structural_identity_residual,
    total_variation,
)


def vm(cells, weights, d=2, atoms=()):
    dens = np.atleast_2d(np.asarray(cells, dtype=float))
    w = np.broadcast_to(np.asarray(weights, dtype=float), (dens.shape[0],)).copy()
    return VectorMeasure(d, w, dens, atoms)


def rand_pair(rng, d=None):
    """A random measure pair on a shared complex, with off-support rows and atoms."""
    d = d if d is not None else rng.randint(2, 7)
    n = rng.randint(4, 25)
    w = np.exp(0.5 * rng.randn(n))
    mu_d = rng.randn(n, d)
    nu_d = rng.randn(n, d)
    kill = rng.rand(n) < 0.25
    mu_d[kill] = 0.0
    atoms_mu, atoms_nu = [], []
    for k in range(rng.randint(0, 4)):
        site = f"s{k}"
        which = rng.randint(3)
        if which in (0, 2):
            atoms_mu.append((site, rng.randn(d)))
        if which in (1, 2):
            atoms_nu.append((site, rng.randn(d)))
    return (
        VectorMeasure(d, w, mu_d, tuple(atoms_mu)),
        VectorMeasure(d, w.copy(), nu_d, tuple(atoms_nu)),
    )


def regular_eps(rng, mu, nu, gap=3e-2, lo=-2.0, hi=2.0):
    kinks = singular_epsilons(mu, nu)
    for _ in range(200):
        e = rng.uniform(lo, hi)
        if all(abs(e - k) > gap for k in kinks):
            return e
    raise AssertionError("could not sample a regular parameter")


# ---- total variation ---------------------------------------------------------


def test_total_variation_single_cell():
    assert total_variation(vm([(3.0, 4.0)], 1.0)) == 5.0


def test_total_variation_zero():
    assert total_variation(vm([(0.0, 0.0)], 1.0)) == 0.0


def test_total_variation_two_cells_weighted():
    m = vm([(1.0, 0.0), (0.0, 1.0)], 0.25)
    assert total_variation(m) == 0.5


def test_total_variation_includes_atoms():
    m = vm([(3.0, 4.0)], 1.0, atoms=(("a", (0.0, 2.0)),))
    assert total_variation(m) == 7.0


# ---- decomposition -----------------------------------------------------------


def test_decompose_proportional():
    mu, _ = rand_pair(np.random.RandomState(3))
    nu = VectorMeasure(
        mu.dimension,
        mu.cell_weights.copy(),
        2.0 * mu.ac_density,
        tuple((s, 2.0 * m) for s, m in mu.atoms),
    )
    dec = decompose(nu, mu)
    assert np.allclose(dec.A[dec.support], 2.0 * dec.N[dec.support], atol=1e-14)
    assert total_variation(dec.nu_s) == 0.0


def test_decompose_disjoint_supports():
    mu = vm([(1.0, 0.0), (0.0, 0.0)], 1.0)
    nu = vm([(0.0, 0.0), (0.0, 2.0)], 1.0)
    dec = decompose(nu, mu)
    assert np.array_equal(dec.A[1], np.zeros(2))
    # the remainder is all of nu
    assert total_variation(dec.nu_s) == total_variation(nu)


def test_decompose_shared_cell():
    mu = vm([(1.0, 0.0)], 1.0)
    nu = vm([(1.0, 1.0)], 1.0)
    dec = decompose(nu, mu)
    assert np.array_equal(dec.N[0], np.array([1.0, 0.0]))
    assert np.array_equal(dec.A[0], np.array([1.0, 1.0]))
    assert total_variation(dec.nu_s) == 0.0


def test_decompose_reconstructs_nu():
    rng = np.random.RandomState(4)
    for _ in range(200):
        mu, nu = rand_pair(rng)
        dec = decompose(nu, mu)
        from areavar.measures import aligned_masses

        (xm, ym), sites = aligned_masses(mu, nu)
        (_, ys), _ = aligned_masses(mu, dec.nu_s)
        mu_norm = np.sqrt(np.einsum("ij,ij->i", xm, xm))
        recon = dec.A * mu_norm[:, None] + ys
        scale = np.abs(ym).max() + 1.0
        assert np.abs(recon - ym).max() <= 1e-14 * scale
        # unit directions exactly on the support, zero off it
        n_norm = np.sqrt(np.einsum("ij,ij->i", dec.N, dec.N))
        assert np.abs(n_norm[dec.support] - 1.0).max() <= 1e-14
        assert not dec.support.all() or True
        assert np.all(n_norm[~dec.support] == 0.0)


def test_decompose_mutually_singular_at_distinct_kinks():
    # one kink per cell at different parameters: the remainders live on
    # disjoint parts of the complex
    mu = vm([(2.0, 0.0), (0.0, 3.0)], 1.0)
    nu = vm([(-1.0, 0.0), (0.0, -1.0)], 1.0)
    eps = singular_epsilons(mu, nu)
    assert eps == [2.0, 3.0]
    supports = []
    for e in eps:
        dec = decompose(nu, add_scaled(mu, nu, e))
        cells = {i for i in range(nu.n_cells) if np.any(dec.nu_s.ac_density[i] != 0.0)}
        cells |= set(dec.nu_s.atom_sites())
        supports.append(cells)
    assert supports[0] == {0} and supports[1] == {1}
    assert not (supports[0] & supports[1])


# ---- line energy ---------------------------------------------------------------


def test_line_energy_zero_direction_is_constant():
    mu = vm([(3.0, 4.0)], 1.0)
    nu = vm([(0.0, 0.0)], 1.0)
    for e in (-2.0, 0.0, 0.7):
        assert line_energy(mu, nu, e) == 5.0


def test_line_energy_zero_base_is_absolute_value():
    mu = vm([(0.0, 0.0)], 1.0)
    nu = vm([(1.0, 0.0)], 1.0)
    for e in (-1.5, -0.25, 0.0, 2.0):
        assert line_energy(mu, nu, e) == abs(e)


def test_line_energy_orthogonal_pair():
    mu = vm([(1.0, 0.0)], 1.0)
    nu = vm([(0.0, 1.0)], 1.0)
    for e in (-1.0, 0.0, 0.5, 3.0):
        assert abs(line_energy(mu, nu, e) - math.hypot(1.0, e)) <= 1e-15


def test_line_energy_lipschitz():
    rng = np.random.RandomState(5)
    for _ in range(100):
        mu, nu = rand_pair(rng)
        tv_nu = total_variation(nu)
        e1, e2 = rng.uniform(-2, 2, size=2)
        gap = abs(line_energy(mu, nu, e1) - line_energy(mu, nu, e2))
        assert gap <= tv_nu * abs(e1 - e2) + 1e-12


def test_line_energy_convex():
    rng = np.random.RandomState(6)
    for _ in range(300):
        mu, nu = rand_pair(rng)
        e1, e2 = rng.uniform(-2, 2, size=2)
        t = rng.rand()
        lhs = line_energy(mu, nu, t * e1 + (1 - t) * e2)
        rhs = t * line_energy(mu, nu, e1) + (1 - t) * line_energy(mu, nu, e2)
        assert lhs <= rhs + 1e-12


# ---- first variation ------------------------------------------------------------


def test_first_variation_zero_base():
    mu = vm([(0.0, 0.0), (0.0, 0.0)], 1.0)
    nu = vm([(1.0, 1.0), (2.0, 0.0)], 1.0)
    fm, fp = first_variation_pm(mu, nu, 0.0)
    tv = total_variation(nu)
    assert fm == -tv and fp == tv


def test_first_variation_parallel():
    rng = np.random.RandomState(7)
    mu, _ = rand_pair(rng)
    nu = VectorMeasure(
        mu.dimension,
        mu.cell_weights.copy(),
        2.0 * mu.ac_density,
        tuple((s, 2.0 * m) for s, m in mu.atoms),
    )
    fm, fp = first_variation_pm(mu, nu, 0.0)
    tv2 = 2.0 * total_variation(mu)
    assert abs(fm - tv2) <= 1e-12 * (1 + tv2)
    assert abs(fp - tv2) <= 1e-12 * (1 + tv2)


def test_first_variation_orthogonal_is_flat():
    mu = vm([(1.0, 0.0)], 1.0)
    nu = vm([(0.0, 1.0)], 1.0)
    assert first_variation_pm(mu, nu, 0.0) == (0.0, 0.0)


def test_first_variation_difference_quotient_oracle():
    rng = np.random.RandomState(8)
    for _ in range(60):
        mu, nu = rand_pair(rng)
        e = regular_eps(rng, mu, nu)
        fm, fp = first_variation_pm(mu, nu, e)
        assert abs(fp - fm) <= 1e-12 * (1 + abs(fp))
        scale = abs(fp) + total_variation(nu) + 1e-12
        errs = []
        for h in (1e-3, 1e-4, 1e-5):
            q = (line_energy(mu, nu, e + h) - line_energy(mu, nu, e)) / h
            errs.append(abs(q - fp))
        assert errs[-1] <= 1e-3 * scale


def test_first_variation_at_planted_kink():
    rng = np.random.RandomState(9)
    for _ in range(40):
        mu, nu = rand_pair(rng)
        kinks = singular_epsilons(mu, nu)
        if not kinks:
            continue
        e0 = kinks[len(kinks) // 2]
        fm, fp = first_variation_pm(mu, nu, e0)
        assert fp >= fm - 1e-12
        scale = abs(fp) + abs(fm) + total_variation(nu) + 1e-12
        for h in (1e-4, 1e-5):
            qp = (line_energy(mu, nu, e0 + h) - line_energy(mu, nu, e0)) / h
            qm = (line_energy(mu, nu, e0) - line_energy(mu, nu, e0 - h)) / h
            if h == 1e-5:
                assert abs(qp - fp) <= 1e-3 * scale
                assert abs(qm - fm) <= 1e-3 * scale


def test_first_variation_monotone_in_eps():
    rng = np.random.RandomState(10)
    for _ in range(50):
        mu, nu = rand_pair(rng)
        es = sorted(regular_eps(rng, mu, nu) for _ in range(8))
        slopes = [first_variation_pm(mu, nu, e)[1] for e in es]
        for s1, s2 in zip(slopes, slopes[1:]):
            assert s2 >= s1 - 1e-10


# ---- second variation ------------------------------------------------------------


def test_second_variation_parallel_is_zero():
    mu = vm([(2.0, 1.0), (0.5, -3.0)], 1.0)
    nu = vm([(4.0, 2.0), (1.0, -6.0)], 1.0)
    assert second_variation(mu, nu, 0.0) == 0.0


def test_second_variation_orthogonal_values():
    mu = vm([(1.0, 0.0)], 1.0)
    nu = vm([(0.0, 1.0)], 1.0)
    assert second_variation(mu, nu, 0.0) == 1.0
    val = second_variation(mu, nu, 1.0)
    assert abs(val - 1.0 / (2.0 * math.sqrt(2.0))) <= 1e-15


def test_second_variation_difference_quotient_oracle():
    rng = np.random.RandomState(11)
    for _ in range(60):
        mu, nu = rand_pair(rng)
        e = regular_eps(rng, mu, nu)
        s2 = second_variation(mu, nu, e)
        h = 1e-4
        q = (
            line_energy(mu, nu, e + h)
            - 2.0 * line_energy(mu, nu, e)
            + line_energy(mu, nu, e - h)
        ) / (h * h)
        assert abs(q - s2) <= 1e-3 * (1 + abs(s2))


def test_second_variation_nonnegative():
    rng = np.random.RandomState(12)
    for _ in range(200):
        mu, nu = rand_pair(rng)
        assert second_variation(mu, nu, rng.uniform(-2, 2)) >= 0.0


def test_matched_one_sided_slopes_near_kink():
    # just left/right of a cancellation parameter the one-sided slopes match
    # the interior derivative there
    rng = np.random.RandomState(13)
    checked = 0
    for _ in range(100):
        mu, nu = rand_pair(rng)
        kinks = singular_epsilons(mu, nu)
        if not kinks:
            continue
        e0 = kinks[0]
        fm0, fp0 = first_variation_pm(mu, nu, e0)
        scale = abs(fm0) + abs(fp0) + total_variation(nu) + 1e-9
        for h in (1e-3, 1e-4):
            _, fp_left = first_variation_pm(mu, nu, e0 - h)
            fm_right, _ = first_variation_pm(mu, nu, e0 + h)
            assert abs(fp_left - fm0) <= 1e-2 * scale
            assert abs(fm_right - fp0) <= 1e-2 * scale
        checked += 1
    assert checked >= 20


# ---- cancellation parameters -------------------------------------------------------


def test_singular_epsilons_examples():
    assert singular_epsilons(vm([(1.0, 0.0)], 1.0), vm([(-1.0, 0.0)], 1.0)) == [1.0]
    assert singular_epsilons(vm([(1.0, 0.0)], 1.0), vm([(0.0, 1.0)], 1.0)) == []
    mu = vm([(2.0, 0.0), (0.0, 3.0)], 1.0)
    nu = vm([(-1.0, 0.0), (0.0, -1.0)], 1.0)
    assert singular_epsilons(mu, nu) == [2.0, 3.0]


def test_singular_epsilons_zero_base_and_dedup():
    mu = vm([(0.0, 0.0), (0.0, 0.0)], 1.0)
    nu = vm([(1.0, 2.0), (0.0, -1.0)], 1.0)
    assert singular_epsilons(mu, nu) == [0.0]


def test_singular_epsilons_locate_actual_kinks():
    rng = np.random.RandomState(14)
    for _ in range(50):
        mu, nu = rand_pair(rng)
        for e0 in singular_epsilons(mu, nu):
            fm, fp = first_variation_pm(mu, nu, e0)
            # a reported parameter always carries a genuine one-sided kink
            assert fp - fm >= -1e-12
            z = add_scaled(mu, nu, e0)
            norms = np.sqrt(np.einsum("ij,ij->i", z.cell_masses(), z.cell_masses()))
            top = norms.max() if norms.size else 0.0
            has_cell_zero = bool(np.any(norms <= 1e-12 * max(top, 1.0)))
            sites_gone = (set(mu.atom_sites()) | set(nu.atom_sites())) - set(
                z.atom_sites()
            )
            assert has_cell_zero or sites_gone


def test_planted_nonzero_kink_and_jump():
    rng = np.random.RandomState(17)
    for _ in range(40):
        mu, nu = rand_pair(rng)
        eps0 = float(rng.uniform(0.2, 1.5) * rng.choice([-1.0, 1.0]))
        mu.ac_density[0] = -eps0 * nu.ac_density[0]
        kinks = singular_epsilons(mu, nu)
        assert any(abs(k - eps0) <= 1e-9 * (1 + abs(eps0)) for k in kinks)
        fm, fp = first_variation_pm(mu, nu, eps0)
        expected_jump = 2.0 * float(
            np.linalg.norm(nu.ac_density[0] * nu.cell_weights[0])
        )
        assert abs((fp - fm) - expected_jump) <= 1e-12 * (1 + expected_jump)


def loop_singular_epsilons(mu, nu):
    """Reference oracle: the cancellation search one entry at a time."""
    (x, y), _ = aligned_masses(mu, nu)
    nx = _entry_norms(x)
    ny = _entry_norms(y)
    supp_x = _support(nx)
    supp_y = _support(ny)
    candidates = []
    for i in range(x.shape[0]):
        if not supp_y[i]:
            continue
        if not supp_x[i]:
            candidates.append(0.0)
            continue
        k = int(np.argmax(np.abs(y[i])))
        eps = -x[i, k] / y[i, k]
        resid = x[i] + eps * y[i]
        scale = np.maximum(np.abs(x[i]), np.abs(eps * y[i]))
        if np.all(np.abs(resid) <= CANCEL_REL_TOL * scale):
            candidates.append(float(eps))
    candidates.sort()
    merged = []
    for e in candidates:
        if merged and abs(e - merged[-1]) <= CANCEL_REL_TOL * max(
            1.0, abs(e), abs(merged[-1])
        ):
            continue
        merged.append(e)
    return merged


def cancelling_pair(rng, d):
    """A measure pair whose rows cancel at shared, distinct and near-equal
    parameters, with tied |y| components, zero rows, rows just inside and
    just outside the cancellation tolerance, and atoms on shared and
    disjoint sites."""
    n = rng.randint(0, 30)
    w = np.exp(0.5 * rng.randn(n))
    x = rng.randn(n, d)
    y = rng.randn(n, d)
    shared = float(rng.uniform(-2.0, 2.0))
    for i in range(n):
        kind = rng.randint(9)
        if kind == 0:
            x[i] = -shared * y[i]
        elif kind == 1:
            x[i] = -rng.uniform(-2.0, 2.0) * y[i]
        elif kind == 2:
            x[i] = 0.0
        elif kind == 3:
            y[i] = 0.0
        elif kind == 4:   # ties in |y|, e.g. (1, -1): the first maximum decides
            y[i] = rng.choice([-1.0, 1.0], d) * rng.uniform(0.5, 2.0)
            if rng.rand() < 0.5:
                x[i] = -shared * y[i] * (1.0 + 1e-13 * rng.randn(d))
        elif kind == 5:   # a distinct but mergeable parameter
            x[i] = -shared * (1.0 + 3e-13 * rng.randn()) * y[i]
        elif kind == 6:   # at the edge of the per-component tolerance
            x[i] = -shared * y[i] * (1.0 + 1e-12 * rng.randn(d))
        elif kind == 7:   # below nu's support threshold
            y[i] *= 1e-16
        elif kind == 8:   # a component where both masses vanish
            x[i] = -shared * y[i]
            j = rng.randint(d)
            x[i, j] = y[i, j] = 0.0
    sites = [f"s{k}" for k in range(rng.randint(0, 5))]
    atoms_mu, atoms_nu = [], []
    for site in sites:
        which = rng.randint(4)
        b = rng.randn(d)
        if which == 0:
            atoms_mu.append((site, rng.randn(d)))
        elif which == 1:
            atoms_nu.append((site, b))
        else:
            e = shared if which == 2 else rng.uniform(-2.0, 2.0)
            atoms_mu.append((site, -e * b))
            atoms_nu.append((site, b))
    return (
        VectorMeasure(d, w, x, tuple(atoms_mu)),
        VectorMeasure(d, w.copy(), y, tuple(atoms_nu)),
    )


def test_singular_epsilons_matches_the_entrywise_loop():
    rng = np.random.RandomState(19)
    nonzero = 0
    for trial in range(240):
        mu, nu = cancelling_pair(rng, d=1 + trial % 4)
        got = singular_epsilons(mu, nu)
        want = loop_singular_epsilons(mu, nu)
        assert got == want
        assert [repr(e) for e in got] == [repr(e) for e in want]
        assert all(type(e) is float for e in got)
        nonzero += sum(e != 0.0 for e in got)
    assert nonzero >= 200


def test_singular_epsilons_empty_cases():
    with pytest.raises(ValueError, match="d must be >= 1"):
        VectorMeasure(0, np.ones(3), np.zeros((3, 0)))     # no zero-dimensional measures
    mu = vm([(1.0, 2.0), (0.0, 0.0)], 1.0, atoms=(("a", (1.0, 0.0)),))
    assert singular_epsilons(mu, vm([(0.0, 0.0), (0.0, 0.0)], 1.0)) == []
    empty = VectorMeasure(2, np.ones(0), np.zeros((0, 2)))
    assert singular_epsilons(empty, empty) == []


# ---- structural identity -------------------------------------------------------------


def test_structural_identity_orthogonal_unit_pair():
    mu = vm([(1.0, 0.0)], 1.0)
    mu2 = vm([(0.0, 1.0)], 1.0)
    assert structural_identity_residual(mu, mu2) <= 1e-15


def test_structural_identity_equal_measures():
    rng = np.random.RandomState(15)
    mu, _ = rand_pair(rng)
    assert structural_identity_residual(mu, mu) <= 1e-12


def test_structural_identity_one_sided_support():
    mu = vm([(1.0, 0.0)], 1.0)
    mu2 = vm([(0.0, 0.0)], 1.0)
    assert structural_identity_residual(mu, mu2) <= 1e-15


def test_structural_identity_random_pairs():
    rng = np.random.RandomState(16)
    worst = 0.0
    for _ in range(300):
        mu, mu2 = rand_pair(rng)
        worst = max(worst, structural_identity_residual(mu, mu2))
    assert worst <= 1e-12


# ---- validation ------------------------------------------------------


def test_validation_errors():
    with pytest.raises(ValueError):
        vm([(1.0, 0.0)], -1.0)  # weight must be positive
    with pytest.raises(ValueError):
        VectorMeasure(2, np.ones(2), np.zeros((3, 2)))  # cell count mismatch
    with pytest.raises(ValueError):
        VectorMeasure(2, np.ones(1), np.zeros((1, 3)))  # wrong dimension
    with pytest.raises(ValueError):
        vm([(1.0, 0.0)], 1.0, atoms=(("a", (1.0, 0.0)), ("a", (0.0, 1.0))))
    with pytest.raises(ValueError):
        vm([(1.0, 0.0)], 1.0, atoms=(("a", (1.0, 0.0, 0.0)),))


def test_alignment_rejects_mismatched_complexes():
    mu = vm([(1.0, 0.0)], 1.0)
    nu = vm([(1.0, 0.0), (0.0, 1.0)], 1.0)
    with pytest.raises(ValueError):
        line_energy(mu, nu, 0.0)
    nu3 = VectorMeasure(3, np.ones(1), np.zeros((1, 3)))
    with pytest.raises(ValueError):
        line_energy(mu, nu3, 0.0)
