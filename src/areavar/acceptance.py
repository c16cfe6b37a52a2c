"""Acceptance suite: the contract-level properties as structured checks.

Each criterion_* function runs one property suite and returns a dict with
uniform check rows {check, value, threshold, ok}; a criterion passes when
every row has value <= threshold.  run_all assembles the full report.
Reports carry no timestamps or timings, so a fixed seed serializes to
byte-identical output (the determinism criterion depends on this); runtime
limits are asserted by the test suite, not recorded here.
"""
from __future__ import annotations

import numpy as np

from . import measures
from .geometry import (
    Coframe,
    area_element,
    area_element_coeff,
    contraction_identity_residual,
    euclidean_defining,
    euclidean_graph_frame,
    heisenberg_defining,
    heisenberg_graph_frame,
    intrinsic_defining,
    intrinsic_graph_frame,
    mean_curvature_euclidean,
)
from .grids import EnergySpec, GridDomain, ScalarField, gradient, singular_set
from .measures import VectorMeasure
from .solver import (
    SolverConfig,
    comparison_check,
    continuation_minimize,
    energy_bound_check,
)
from .util import dot2, pairwise_sum, to_json
from .variation import DirectionField, angle_condition, fd_validate, minimizer_first_variation, second_variation_graph

SQUARE = ((-1.0, 1.0), (-1.0, 1.0))


def _row(check: str, value: float, threshold: float) -> dict:
    value = float(value)
    return {
        "check": check,
        "value": value,
        "threshold": float(threshold),
        "ok": bool(value <= threshold),
    }


def _crit(cid: int, name: str, rows: list, **extra) -> dict:
    out = {
        "id": cid,
        "name": name,
        "checks": rows,
        "passed": bool(all(r["ok"] for r in rows)),
    }
    out.update(extra)
    return out


# ---- random instance generators ---------------------------------------------


def _rand_measure_pair(rng, d: int | None = None) -> tuple[VectorMeasure, VectorMeasure]:
    if d is None:
        d = int(rng.randint(2, 7))
    n = int(rng.randint(4, 25))
    w = np.exp(0.5 * rng.randn(n))
    mu_d = rng.randn(n, d)
    nu_d = rng.randn(n, d)
    mu_d[rng.rand(n) < 0.25] = 0.0        # gives nu a genuinely singular part
    atoms_mu, atoms_nu = [], []
    for s in range(int(rng.randint(0, 4))):
        site = f"s{s}"
        which = int(rng.randint(3))
        if which in (0, 2):
            atoms_mu.append((site, rng.randn(d)))
        if which in (1, 2):
            atoms_nu.append((site, rng.randn(d)))
    mu = VectorMeasure(d, w, mu_d, tuple(atoms_mu))
    nu = VectorMeasure(d, w, nu_d, tuple(atoms_nu))
    return mu, nu


def _regular_eps(rng, mu, nu, gap: float, lo=-2.0, hi=2.0) -> float | None:
    kinks = measures.singular_epsilons(mu, nu)
    for _ in range(300):
        e = float(rng.uniform(lo, hi))
        if all(abs(e - k) >= gap for k in kinks):
            return e
    return None


def _planted_pair(rng, gap: float):
    """A measure pair with a known cancellation parameter isolated by gap."""
    for _ in range(100):
        mu, nu = _rand_measure_pair(rng)
        # einsum for any d: a column loop gives other bits once d >= 3
        norms = np.sqrt(np.einsum("ij,ij->i", nu.ac_density, nu.ac_density))
        k = int(np.argmax(norms))
        if norms[k] < 0.3:
            continue
        eps0 = float(rng.uniform(-1.5, 1.5))
        dens = mu.ac_density.copy()
        dens[k] = -eps0 * nu.ac_density[k]
        mu2 = VectorMeasure(mu.dimension, mu.cell_weights, dens, mu.atoms)
        kinks = measures.singular_epsilons(mu2, nu)
        if not any(abs(eps0 - k_) <= 1e-9 for k_ in kinks):
            continue
        if all(abs(k_ - eps0) >= gap for k_ in kinks if abs(k_ - eps0) > 1e-9):
            return mu2, nu, eps0
    raise RuntimeError("failed to construct an isolated cancellation instance")


def _poly_trig(c):
    def fn(x, y):
        return (
            c[0]
            + c[1] * x
            + c[2] * y
            + c[3] * x * y
            + c[4] * np.sin(2.0 * x + c[5])
            + c[6] * np.cos(2.0 * y + c[7])
        )

    return fn


def _rand_direction(dom: GridDomain, rng) -> DirectionField:
    c = rng.randn(8)
    base = _poly_trig(c)
    return DirectionField.from_function(
        dom, lambda x, y: (1.0 - x * x) * (1.0 - y * y) * base(x, y)
    )


# ---- criteria ----------------------------------------------------------------


def criterion_01(seed: int, pairs: int = 1000) -> dict:
    """Direction-difference identity on random measure pairs."""
    rng = np.random.RandomState(seed + 1)
    worst = 0.0
    for _ in range(pairs):
        m1, m2 = _rand_measure_pair(rng)
        worst = max(worst, measures.structural_identity_residual(m1, m2))
    return _crit(
        1,
        "direction-difference identity on random measure pairs",
        [_row("max identity residual", worst, 1e-12)],
        pairs=pairs,
    )


def criterion_02(seed: int, regular: int = 150, singular: int = 50) -> dict:
    """One-sided derivative formula against difference quotients."""
    rng = np.random.RandomState(seed + 2)
    h = 1e-5
    gap = 3e-2
    worst = 0.0
    done_r = 0
    while done_r < regular:
        mu, nu = _rand_measure_pair(rng)
        e = _regular_eps(rng, mu, nu, gap)
        if e is None:
            continue
        fm, fp = measures.first_variation_pm(mu, nu, e)
        qp = (measures.line_energy(mu, nu, e + h) - measures.line_energy(mu, nu, e)) / h
        qm = (measures.line_energy(mu, nu, e) - measures.line_energy(mu, nu, e - h)) / h
        worst = max(
            worst,
            abs(qp - fp) / (1.0 + abs(fp)),
            abs(qm - fm) / (1.0 + abs(fm)),
        )
        done_r += 1
    for _ in range(singular):
        mu, nu, eps0 = _planted_pair(rng, gap)
        fm, fp = measures.first_variation_pm(mu, nu, eps0)
        if fp - fm <= 1e-13:
            raise RuntimeError("planted cancellation produced no kink")
        qp = (measures.line_energy(mu, nu, eps0 + h) - measures.line_energy(mu, nu, eps0)) / h
        qm = (measures.line_energy(mu, nu, eps0) - measures.line_energy(mu, nu, eps0 - h)) / h
        worst = max(
            worst,
            abs(qp - fp) / (1.0 + abs(fp)),
            abs(qm - fm) / (1.0 + abs(fm)),
        )
    return _crit(
        2,
        "one-sided derivatives vs difference quotients",
        [_row("max relative quotient error", worst, 1e-3)],
        regular=regular,
        singular=singular,
        step=h,
    )


def criterion_03(seed: int, regular: int = 200, singular: int = 50) -> dict:
    """Curvature formula vs second differences; kink-side slopes."""
    rng = np.random.RandomState(seed + 3)
    h = 3e-5
    hs = 1e-4
    gap = 3e-2
    worst_c = 0.0
    done = 0
    while done < regular:
        mu, nu = _rand_measure_pair(rng)
        e = _regular_eps(rng, mu, nu, gap)
        if e is None:
            continue
        sv = measures.second_variation(mu, nu, e)
        q2 = (
            measures.line_energy(mu, nu, e + h)
            - 2.0 * measures.line_energy(mu, nu, e)
            + measures.line_energy(mu, nu, e - h)
        ) / (h * h)
        worst_c = max(worst_c, abs(q2 - sv) / (1.0 + abs(sv)))
        done += 1
    worst_s = 0.0
    for _ in range(singular):
        mu, nu, eps0 = _planted_pair(rng, gap)
        sv = measures.second_variation(mu, nu, eps0)
        fm0, fp0 = measures.first_variation_pm(mu, nu, eps0)
        fp1 = measures.first_variation_pm(mu, nu, eps0 + hs)[1]
        fm1 = measures.first_variation_pm(mu, nu, eps0 - hs)[0]
        slope_p = (fp1 - fp0) / hs
        slope_m = (fm0 - fm1) / hs
        worst_s = max(
            worst_s,
            abs(slope_p - sv) / (1.0 + abs(sv)),
            abs(slope_m - sv) / (1.0 + abs(sv)),
        )
    return _crit(
        3,
        "second-derivative formula vs quotients and kink-side slopes",
        [
            _row("max relative second-difference error", worst_c, 1e-3),
            _row("max relative one-sided slope error", worst_s, 1e-2),
        ],
        regular=regular,
        singular=singular,
    )


def criterion_04(seed: int, instances: int = 10, samples: int = 100, triples: int = 1000) -> dict:
    """Monotone one-sided derivatives and convexity along lines."""
    rng = np.random.RandomState(seed + 4)
    worst_mono = -np.inf
    worst_conv = -np.inf
    for _ in range(instances):
        mu, nu = _rand_measure_pair(rng)
        kinks = measures.singular_epsilons(mu, nu)
        eps = []
        while len(eps) < samples:
            e = float(rng.uniform(-3.0, 3.0))
            if all(abs(e - k) >= 1e-6 for k in kinks):
                eps.append(e)
        eps.sort()
        vals = [measures.first_variation_pm(mu, nu, e) for e in eps]
        for (fm, fp) in vals:
            worst_mono = max(worst_mono, fm - fp)
        for (_, fp), (fm2, _) in zip(vals, vals[1:]):
            worst_mono = max(worst_mono, fp - fm2)
    for _ in range(triples):
        mu, nu = _rand_measure_pair(rng)
        e1, e2 = rng.uniform(-3.0, 3.0, size=2)
        t = float(rng.uniform(0.0, 1.0))
        f1 = measures.line_energy(mu, nu, e1)
        f2 = measures.line_energy(mu, nu, e2)
        fmid = measures.line_energy(mu, nu, t * e1 + (1.0 - t) * e2)
        excess = (fmid - (t * f1 + (1.0 - t) * f2)) / (1.0 + abs(f1) + abs(f2))
        worst_conv = max(worst_conv, excess)
    return _crit(
        4,
        "monotone one-sided derivatives and convexity along lines",
        [
            _row("max derivative-order violation", worst_mono, 1e-10),
            _row("max normalized convexity excess", worst_conv, 1e-12),
        ],
        instances=instances,
        samples=samples,
        triples=triples,
    )


def criterion_05(seed: int, n: int = 64) -> dict:
    """Solver exactness on affine and tilted-plane data."""
    dom = GridDomain(SQUARE, (n, n))
    rows = []
    cases = [
        ("affine, no drift", EnergySpec(preset="zero"), lambda x, y: 0.3 * x - 0.8 * y + 0.1),
        ("plane, horizontal drift", EnergySpec(preset="p_area"), lambda x, y: 0.7 * x - 0.3 * y + 0.4),
    ]
    details = {}
    for label, spec, fn in cases:
        phi = ScalarField.from_function(dom, fn)
        res = continuation_minimize(dom, spec, phi)
        exact = ScalarField.from_function(dom, fn)
        err = float(np.abs(res.u.values - exact.values).max())
        rows.append(_row(f"{label}: sup error", err, 1e-8))
        rows.append(_row(f"{label}: pde residual", res.residual_norm, 1e-10))
        rows.append(_row(f"{label}: converged", 0.0 if res.converged else 1.0, 0.0))
        details[label.split(",")[0]] = {"sup_error": err, "residual": res.residual_norm}
    return _crit(5, "solver exactness on affine and tilted-plane data", rows, grid=n, **details)


def _ordered_pair_fns(rng):
    c = 0.4 * rng.randn(8)
    base = _poly_trig(c)
    gap0 = float(rng.uniform(0.05, 0.5))
    g1 = float(rng.uniform(0.0, 0.6))
    s = float(rng.uniform(0.0, 2 * np.pi))

    def lower(x, y):
        return base(x, y)

    def upper(x, y):
        return base(x, y) + gap0 + g1 * 0.5 * (1.0 + np.sin(3.0 * x - y + s))

    return upper, lower


def criterion_06(seed: int, pairs: int = 20, full_pairs: int = 3, n: int = 32) -> dict:
    """Comparison principle for ordered boundary data."""
    rng = np.random.RandomState(seed + 6)
    dom = GridDomain(SQUARE, (n, n))
    spec = EnergySpec(preset="p_area")
    cfg16 = SolverConfig(a_schedule=(1.0, 0.5, 0.25, 0.125, 0.0625), continuation_stop=0.0)
    cfg_full = SolverConfig(continuation_stop=0.0)
    worst_lower = -np.inf
    worst_upper = -np.inf
    refused = 0
    for k in range(pairs + full_pairs):
        cfg = cfg16 if k < pairs else cfg_full
        upper, lower = _ordered_pair_fns(rng)
        phi1 = ScalarField.from_function(dom, upper)
        phi2 = ScalarField.from_function(dom, lower)
        r1 = continuation_minimize(dom, spec, phi1, cfg)
        r2 = continuation_minimize(dom, spec, phi2, cfg)
        rep = comparison_check(r1, r2, phi1, phi2, spec)
        if rep["refused"]:
            refused += 1
            continue
        worst_lower = max(worst_lower, -rep["min_diff"])
        worst_upper = max(worst_upper, rep["max_diff"] - rep["upper_bound"])
    return _crit(
        6,
        "comparison principle for ordered boundary data",
        [
            _row("max lower-bound violation", worst_lower, 1e-6),
            _row("max upper-bound violation", worst_upper, 1e-6),
            _row("refused pairs", float(refused), 0.0),
        ],
        pairs=pairs,
        full_schedule_pairs=full_pairs,
        grid=n,
    )


def criterion_07(seed: int) -> dict:
    """A-priori energy bound on solved instances."""
    rng = np.random.RandomState(seed + 7)
    worst = -np.inf
    count = 0
    runs = [
        (GridDomain(SQUARE, (64, 64)), EnergySpec(preset="zero"), lambda x, y: 0.3 * x - 0.8 * y + 0.1),
        (GridDomain(SQUARE, (64, 64)), EnergySpec(preset="p_area"), lambda x, y: 0.7 * x - 0.3 * y + 0.4),
        (GridDomain(SQUARE, (64, 64)), EnergySpec(preset="p_area"), lambda x, y: x * y),
    ]
    for _ in range(3):
        upper, lower = _ordered_pair_fns(rng)
        runs.append((GridDomain(SQUARE, (32, 32)), EnergySpec(preset="p_area"), upper))
    for dom, spec, fn in runs:
        phi = ScalarField.from_function(dom, fn)
        res = continuation_minimize(dom, spec, phi)
        rep = energy_bound_check(res, spec, phi)
        worst = max(worst, rep["energy"] - rep["bound"])
        count += 1
    return _crit(
        7,
        "a-priori energy bound on solved instances",
        [_row("max bound excess", worst, 0.0)],
        instances=count,
    )


def criterion_08(seed: int, n: int = 128) -> dict:
    """Saddle boundary data: energy, singular band, angle balance."""
    dom = GridDomain(SQUARE, (n, n))
    spec = EnergySpec(preset="p_area")
    phi = ScalarField.from_function(dom, lambda x, y: x * y)
    res = continuation_minimize(dom, spec, phi)
    h = dom.h_max
    sing = singular_set(res.u, spec)
    xc = dom.axis_centers(0)
    band_x = np.abs(xc[np.where(sing.mask)[0]])
    band_extent = float(band_x.max()) if band_x.size else np.inf
    curves = angle_condition(res.u, spec)
    residual = max((r for _, r in curves), default=np.inf)
    return _crit(
        8,
        "saddle boundary data: energy, singular band, angle balance",
        [
            _row("relative energy error", abs(res.energy - 4.0) / 4.0, 0.01),
            _row("band distance from x=0", band_extent, 2.0 * h),
            _row("curve count deficit", float(1 - len(curves)), 0.0),
            _row("max angle residual", residual, 5.0 * h),
        ],
        grid=n,
        energy=res.energy,
        band_measure=sing.measure,
        curves=len(curves),
    )


def criterion_09(seed: int, directions: int = 50) -> dict:
    """Minimizer optimality sandwich and jump identity."""
    rng = np.random.RandomState(seed + 9)
    spec = EnergySpec(preset="p_area")
    rows = []
    for label, n, fn in [
        ("plane", 64, lambda x, y: 0.7 * x - 0.3 * y + 0.4),
        ("saddle", 128, lambda x, y: x * y),
    ]:
        dom = GridDomain(SQUARE, (n, n))
        phi = ScalarField.from_function(dom, fn)
        res = continuation_minimize(dom, spec, phi)
        sing = singular_set(res.u, spec).mask
        worst_m, worst_p, worst_j, f0 = -np.inf, -np.inf, 0.0, 0.0
        for _ in range(directions):
            d = _rand_direction(dom, rng)
            rep = minimizer_first_variation(res.u, spec, d)
            f0 = rep.F_value
            worst_m = max(worst_m, rep.Fprime_minus)
            worst_p = max(worst_p, -rep.Fprime_plus)
            g = gradient(d.phi).values
            gn = np.sqrt(dot2(g, g))
            oracle = 2.0 * pairwise_sum((gn * sing).ravel() * dom.cell_volume)
            worst_j = max(worst_j, abs((rep.Fprime_plus - rep.Fprime_minus) - oracle))
        tol = 1e-4 * (1.0 + f0)
        rows.append(_row(f"{label}: max left derivative", worst_m, tol))
        rows.append(_row(f"{label}: max negated right derivative", worst_p, tol))
        rows.append(_row(f"{label}: max jump-identity error", worst_j, 1e-12))
    return _crit(
        9,
        "minimizer optimality sandwich and jump identity",
        rows,
        directions=directions,
    )


def criterion_10(seed: int, pairs: int = 200, n: int = 24) -> dict:
    """Second-variation nonnegativity and difference-quotient agreement."""
    rng = np.random.RandomState(seed + 10)
    dom = GridDomain(SQUARE, (n, n))
    spec = EnergySpec(preset="p_area")
    min_sv = {"area": np.inf, "riemannian": np.inf}
    worst_fd = {"area": 0.0, "riemannian": 0.0}
    for _ in range(pairs):
        cs = 0.4 * rng.randn(5)
        u = ScalarField.from_function(
            dom,
            lambda x, y: 3.0 * x
            + cs[0]
            + cs[1] * y
            + cs[2] * x * y
            + cs[3] * np.sin(x + y)
            + cs[4] * 0.5 * (x * x - y * y),
        )
        d = _rand_direction(dom, rng)
        for mode in ("area", "riemannian"):
            sv = second_variation_graph(u, spec, d, mode=mode)
            min_sv[mode] = min(min_sv[mode], sv)
            fd = fd_validate(u, spec, d, h_list=(1e-3,), mode=mode)
            rel = fd["rows"][0]["err_second"] / (1.0 + abs(sv))
            worst_fd[mode] = max(worst_fd[mode], rel)
    return _crit(
        10,
        "second-variation nonnegativity and quotient agreement",
        [
            _row("area mode: negated min value", -min_sv["area"], 0.0),
            _row("lifted mode: negated min value", -min_sv["riemannian"], 0.0),
            _row("area mode: max relative quotient error", worst_fd["area"], 1e-2),
            _row("lifted mode: max relative quotient error", worst_fd["riemannian"], 1e-2),
        ],
        pairs=pairs,
        grid=n,
    )


def criterion_11(
    seed: int,
    frames: int = 500,
    jets: int = 300,
    grids: tuple = (32, 64, 128),
    cap_n: int = 128,
) -> dict:
    """Area elements, contraction identity, mean-curvature consistency."""
    rng = np.random.RandomState(seed + 11)
    worst_contract = 0.0
    for k in range(frames):
        d = int(rng.randint(2, 7))
        B = rng.randn(d, d)
        if k % 3 == 0:
            B[:, rng.randint(d)] = 0.0
        frame = Coframe(d, B @ B.T)
        worst_contract = max(
            worst_contract,
            contraction_identity_residual(frame, rng.randn(d), rng.randn(d)),
        )

    worst_kind = 0.0
    for _ in range(jets):
        grad = rng.randn(2)
        point = rng.randn(2)
        pairs = [
            ("euclidean", point, grad, euclidean_graph_frame(2), euclidean_defining(grad)),
            ("heisenberg", point, grad, heisenberg_graph_frame(1), heisenberg_defining(point, grad)),
        ]
        jet3 = rng.randn(3)
        pairs.append(
            (
                "intrinsic",
                None,
                tuple(jet3),
                intrinsic_graph_frame(),
                intrinsic_defining(*jet3),
            )
        )
        for kind, pt, jet, frame, dd in pairs:
            _, density = area_element(kind, pt, jet)
            worst_kind = max(worst_kind, abs(density - abs(area_element_coeff(frame, dd))))

    def fwd_div(u: ScalarField) -> np.ndarray:
        hx, hy = u.dom.spacing
        g = gradient(u).values
        W = np.sqrt(1.0 + dot2(g, g))
        q = g / W[..., None]
        div = np.full(u.dom.n_cells, np.nan)
        div[:-1, :-1] = (q[1:, :-1, 0] - q[:-1, :-1, 0]) / hx + (
            q[:-1, 1:, 1] - q[:-1, :-1, 1]
        ) / hy
        return div

    def u_smooth(x, y):
        return np.sin(1.3 * x + 0.4) * np.cos(0.9 * y - 0.3) + 0.3 * x * x * y

    errs = []
    for nc in grids:
        domn = GridDomain(SQUARE, (nc, nc))
        u = ScalarField.from_function(domn, u_smooth)
        mc = mean_curvature_euclidean(u)
        oracle = fwd_div(u)
        common = mc.mask & ~np.isnan(oracle)
        errs.append(float(np.abs(mc.values - oracle)[common].max()))
    ratios = [errs[i] / errs[i + 1] for i in range(len(errs) - 1)]
    ratio_dist = max(max(0.0, 1.7 - r, r - 2.6) for r in ratios)

    dom_c = GridDomain(((-0.6, 0.6), (-0.6, 0.6)), (cap_n, cap_n))
    cap = ScalarField.from_function(dom_c, lambda x, y: np.sqrt(1.0 - x * x - y * y))
    mc = mean_curvature_euclidean(cap)
    cap_err = float(np.abs(np.abs(mc.values[mc.mask]) - 2.0).max())

    return _crit(
        11,
        "area elements, contraction identity, mean-curvature consistency",
        [
            _row("max contraction-identity residual", worst_contract, 1e-12),
            _row("max density-vs-coefficient difference", worst_kind, 0.0),
            _row("curvature-oracle ratio distance to [1.7, 2.6]", ratio_dist, 0.0),
            _row("sphere-cap curvature error", cap_err, 0.04),
        ],
        frames=frames,
        jets=jets,
        oracle_errors=errs,
        oracle_ratios=ratios,
    )


_SUBSET_FOR_DETERMINISM = (1, 2, 3, 4, 10, 11)


def _subset_report(seed: int, profile: str) -> str:
    counts = _PROFILES[profile]
    report = []
    for cid in _SUBSET_FOR_DETERMINISM:
        fn = _CRITERIA[cid]
        report.append(fn(seed, **counts.get(cid, {})))
    return to_json(report)


def criterion_12(seed: int, profile: str = "full") -> dict:
    """Report determinism for a fixed seed."""
    s1 = _subset_report(seed, profile)
    s2 = _subset_report(seed, profile)
    return _crit(
        12,
        "report determinism for fixed seed",
        [_row("repeated-run report difference", 0.0 if s1 == s2 else 1.0, 0.0)],
        subset=list(_SUBSET_FOR_DETERMINISM),
        report_bytes=len(s1.encode()),
    )


_CRITERIA = {
    1: criterion_01,
    2: criterion_02,
    3: criterion_03,
    4: criterion_04,
    5: criterion_05,
    6: criterion_06,
    7: criterion_07,
    8: criterion_08,
    9: criterion_09,
    10: criterion_10,
    11: criterion_11,
    12: criterion_12,
}

# Per-criterion keyword overrides; "full" runs the contract-scale suites,
# "fast" is a reduced profile for determinism/CLI round-trip testing.
_PROFILES: dict = {
    "full": {},
    "fast": {
        1: {"pairs": 150},
        2: {"regular": 30, "singular": 8},
        3: {"regular": 30, "singular": 8},
        4: {"instances": 3, "samples": 40, "triples": 150},
        5: {"n": 32},
        6: {"pairs": 4, "full_pairs": 1, "n": 24},
        8: {"n": 64},
        9: {"directions": 8},
        10: {"pairs": 30, "n": 16},
        11: {"frames": 100, "jets": 60, "grids": (32, 64), "cap_n": 64},
    },
}


def run_all(seed: int = 2026, profile: str = "full") -> dict:
    """Run every criterion and assemble the acceptance report."""
    if profile not in _PROFILES:
        raise ValueError(f"unknown profile {profile!r}")
    counts = _PROFILES[profile]
    criteria = []
    for cid in sorted(_CRITERIA):
        fn = _CRITERIA[cid]
        kwargs = dict(counts.get(cid, {}))
        if cid == 12:
            kwargs["profile"] = profile
        criteria.append(fn(seed, **kwargs))
    return {
        "suite": "generalized-area acceptance",
        "seed": int(seed),
        "profile": profile,
        "criteria": criteria,
        "all_passed": bool(all(c["passed"] for c in criteria)),
    }
