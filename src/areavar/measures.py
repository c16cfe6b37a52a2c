"""Discrete vector-valued measures and the calculus of their line variations.

A measure carries an absolutely continuous part (one d-vector density per
cell of a fixed cell complex, integrated against a positive weight) and an
atomic part (point masses on a separate site space).  Cells and sites never
coincide, so the two parts are mutually singular by construction.

The central objects are the one-parameter family ``mu + eps * nu`` and the
scalar map ``eps -> |mu + eps*nu|(X)``, which is convex and piecewise smooth.
Its one-sided derivatives, its second derivative, and the finitely many
parameter values where cell masses cancel are all computed in closed form
here; finite differences of the energy are used only in tests, as an oracle.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .util import pairwise_sum

# A density whose norm is below ZERO_REL_TOL times the largest density norm
# of the same measure is treated as exactly zero (off-support).
ZERO_REL_TOL = 1e-14
# Per-component relative tolerance of the cancellation test used when
# locating the parameters where a cell mass of mu + eps*nu vanishes.
CANCEL_REL_TOL = 1e-12


@dataclass(frozen=True)
class VectorMeasure:
    """A d-vector measure: cell densities against weights, plus atoms.

    cell_weights  -- (n_cells,) strictly positive Lebesgue weights
    ac_density    -- (n_cells, d) densities of the absolutely continuous part
    atoms         -- sequence of (site_id, mass) pairs; site ids are opaque
                     hashable labels disjoint from cell indices

    Its attributes cannot be rebound, so a measure a solved field keeps
    (grids.field_to_measure) cannot be replaced piecewise under its holder.
    """

    dimension: int
    cell_weights: np.ndarray
    ac_density: np.ndarray
    atoms: tuple = ()

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("d must be >= 1")
        # frozen: the normalized fields are set through object.__setattr__
        object.__setattr__(self, "cell_weights",
                           np.asarray(self.cell_weights, dtype=np.float64).ravel())
        object.__setattr__(self, "ac_density", np.asarray(self.ac_density, dtype=np.float64))
        if self.ac_density.ndim != 2 or self.ac_density.shape[1] != self.dimension:
            raise ValueError(
                f"ac_density must have shape (n_cells, {self.dimension})"
            )
        if self.cell_weights.shape[0] != self.ac_density.shape[0]:
            raise ValueError("cell_weights and ac_density disagree on cell count")
        if not np.all(np.isfinite(self.cell_weights)) or np.any(self.cell_weights <= 0):
            raise ValueError("cell weights must be finite and strictly positive")
        if not np.all(np.isfinite(self.ac_density)):
            raise ValueError("densities must be finite")
        atoms = []
        seen = set()
        for site, mass in self.atoms:
            m = np.asarray(mass, dtype=np.float64).ravel()
            if m.shape[0] != self.dimension:
                raise ValueError(f"atom mass at site {site!r} has wrong dimension")
            if not np.all(np.isfinite(m)):
                raise ValueError(f"atom mass at site {site!r} is not finite")
            if site in seen:
                raise ValueError(f"duplicate atom site {site!r}")
            seen.add(site)
            atoms.append((site, m))
        object.__setattr__(self, "atoms", tuple(atoms))

    @property
    def n_cells(self) -> int:
        return self.ac_density.shape[0]

    def cell_masses(self) -> np.ndarray:
        """Cell masses density*weight, shape (n_cells, d)."""
        return self.ac_density * self.cell_weights[:, None]

    def atom_sites(self) -> list:
        return [site for site, _ in self.atoms]


@dataclass
class RNDecomposition:
    """Density/remainder split of nu against |mu|.

    N     -- (n_entries, d) unit directions of mu, zero off its support
    A     -- (n_entries, d) densities of nu against |mu|, zero off support
    nu_s  -- the part of nu living where mu vanishes (mutually singular)

    Entries are ordered cells first (in complex order), then atoms sorted by
    site id; ``sites`` records the atom ordering.
    """

    N: np.ndarray
    A: np.ndarray
    nu_s: VectorMeasure
    support: np.ndarray
    sites: list = field(default_factory=list)


@dataclass(frozen=True)
class VariationReport:
    """Value, one-sided slopes and curvature of eps -> |mu + eps*nu|(X) at
    one eps, as line_variation gives them.

    Frozen: a solved field keeps the report of the last direction it was
    asked about (variation.minimizer_first_variation) and returns it again.
    """

    F_value: float
    Fprime_minus: float
    Fprime_plus: float
    Fsecond: float
    epsilon: float
    is_regular: bool


# ---- alignment ------------------------------------------------------------


def _sorted_sites(*measures: VectorMeasure) -> list:
    sites = set()
    for m in measures:
        sites.update(m.atom_sites())
    return sorted(sites, key=repr)


def aligned_masses(*measures: VectorMeasure) -> tuple[list[np.ndarray], list]:
    """Stack each measure into one (n_cells + n_sites, d) mass array.

    All measures must live on the same cell complex (identical weights);
    atoms are aligned on the sorted union of their sites, missing atoms
    count as zero mass.  Returns the mass arrays and the site ordering.
    """
    if not measures:
        return [], []
    first = measures[0]
    for m in measures[1:]:
        if m.dimension != first.dimension:
            raise ValueError("measures have different dimensions")
        if m.n_cells != first.n_cells or not np.array_equal(
            m.cell_weights, first.cell_weights
        ):
            raise ValueError("measures live on different cell complexes")
    sites = _sorted_sites(*measures)
    out = []
    for m in measures:
        if not sites:
            out.append(m.cell_masses())
            continue
        lookup = {s: mass for s, mass in m.atoms}
        atom_block = np.zeros((len(sites), m.dimension))
        for k, s in enumerate(sites):
            if s in lookup:
                atom_block[k] = lookup[s]
        out.append(np.vstack([m.cell_masses(), atom_block]))
    return out, sites


def _entry_norms(masses: np.ndarray) -> np.ndarray:
    # einsum for any d: a column loop gives other bits once d >= 3
    return np.sqrt(np.einsum("ij,ij->i", masses, masses))


def _support(norms: np.ndarray) -> np.ndarray:
    top = norms.max() if norms.size else 0.0
    return (norms >= ZERO_REL_TOL * top) & (norms > 0.0)


def _line(mu: VectorMeasure, nu: VectorMeasure, eps: float) -> tuple:
    """Aligned masses z = mu + eps*nu and y = nu, and the entry norms of z."""
    (x, y), _ = aligned_masses(mu, nu)
    z = x + eps * y
    return z, y, _entry_norms(z)


# ---- operations -----------------------------------------------------------


def total_variation(m: VectorMeasure) -> float:
    """Total-variation mass: sum of |density|*weight over cells plus |atom|."""
    masses, _ = aligned_masses(m)
    return pairwise_sum(_entry_norms(masses[0]))


def line_energy(mu: VectorMeasure, nu: VectorMeasure, eps: float) -> float:
    """Total variation of mu + eps*nu."""
    return pairwise_sum(_line(mu, nu, eps)[2])


def _slopes(z: np.ndarray, y: np.ndarray, nz: np.ndarray) -> tuple:
    """first_variation_pm on _line's output, then the support of z, and |z|
    and z.y/|z| set to 1 and 0 off it, which the curvature reuses."""
    supp = _support(nz)
    safe = np.where(supp, nz, 1.0)
    smooth = np.where(supp, np.einsum("ij,ij->i", z, y) / safe, 0.0)
    # the kink term's norms only where z vanishes, written into zeros
    off = ~supp
    kink = np.zeros(nz.shape)
    kink[off] = _entry_norms(y[off])
    interior = pairwise_sum(smooth)
    singular = pairwise_sum(kink)
    return interior - singular, interior + singular, supp, safe, smooth


def decompose(nu: VectorMeasure, mu: VectorMeasure) -> RNDecomposition:
    """Split nu into a density against |mu| plus a part singular to mu.

    On the support of mu the density of nu against |mu| is A = nu/|mu|
    entrywise (well defined because cells and atoms are shared); off the
    support the whole nu mass goes to the singular remainder nu_s.
    """
    (y, x), sites = aligned_masses(nu, mu)
    nx = _entry_norms(x)
    supp = _support(nx)
    N = np.zeros_like(x)
    A = np.zeros_like(y)
    N[supp] = x[supp] / nx[supp, None]
    A[supp] = y[supp] / nx[supp, None]

    n_cells = mu.n_cells
    sing_density = np.where(
        supp[:n_cells, None], 0.0, nu.ac_density
    )
    sing_atoms = []
    for k, site in enumerate(sites):
        if not supp[n_cells + k] and np.any(y[n_cells + k] != 0.0):
            sing_atoms.append((site, y[n_cells + k].copy()))
    nu_s = VectorMeasure(
        nu.dimension, mu.cell_weights, sing_density, tuple(sing_atoms)
    )
    return RNDecomposition(N=N, A=A, nu_s=nu_s, support=supp, sites=sites)


def line_variation(mu: VectorMeasure, nu: VectorMeasure, eps: float) -> VariationReport:
    """line_energy, first_variation_pm and second_variation at eps, bit for
    bit, from one alignment of the pair; is_regular when the slopes F'-,
    F'+ satisfy F'+ - F'- <= 1e-14 * (1 + |F'-| + |F'+|)."""
    z, y, nz = _line(mu, nu, eps)
    fm, fp, supp, safe, smooth = _slopes(z, y, nz)
    ny2 = np.einsum("ij,ij->i", y, y)
    terms = np.where(supp, (ny2 - smooth * smooth) / safe, 0.0)
    return VariationReport(
        F_value=pairwise_sum(nz),
        Fprime_minus=fm,
        Fprime_plus=fp,
        Fsecond=pairwise_sum(np.maximum(terms, 0.0)),
        epsilon=eps,
        is_regular=bool(fp - fm <= 1e-14 * (1.0 + abs(fp) + abs(fm))),
    )


def first_variation_pm(
    mu: VectorMeasure, nu: VectorMeasure, eps: float
) -> tuple[float, float]:
    """One-sided derivatives of s -> |mu + s*nu|(X) at s = eps.

    Entries where mu + eps*nu is nonzero contribute the smooth term
    unit(mu_eps) . nu; entries where it vanishes contribute |nu| with sign
    +/- depending on the side.  Both values are exact derivatives of the
    piecewise-smooth convex map, not finite differences.
    """
    fm, fp, *_ = _slopes(*_line(mu, nu, eps))
    return fm, fp


def second_variation(mu: VectorMeasure, nu: VectorMeasure, eps: float) -> float:
    """Second derivative of s -> |mu + s*nu|(X) at a regular point s = eps.

    Per entry on the support of mu_eps the contribution is
    (|A|^2 - (A.N)^2) |mu_eps| = (|nu|^2 - (nu.N)^2) / |mu_eps|,
    which is nonnegative; entries off the support contribute nothing (their
    one-sided slopes are constant on each side).  At a cancellation value of
    eps this equals the matched limit of the one-sided difference quotients.
    """
    return line_variation(mu, nu, eps).Fsecond


def singular_epsilons(mu: VectorMeasure, nu: VectorMeasure) -> list[float]:
    """All parameters where some mass of mu + eps*nu cancels exactly.

    A cell or atom with nu-mass y != 0 cancels at eps iff mu-mass x = -eps*y
    componentwise; the candidate is read off the largest component of y and
    accepted under a per-component relative tolerance.  Entries with x = 0
    and y != 0 cancel at eps = 0.  Returns the sorted, deduplicated values.
    """
    (x, y), _ = aligned_masses(mu, nu)
    supp_x = _support(_entry_norms(x))
    supp_y = _support(_entry_norms(y))
    both = supp_x & supp_y
    candidates = np.empty(0)
    if np.any(both):
        xb, yb = x[both], y[both]
        rows = np.arange(xb.shape[0])
        k = np.argmax(np.abs(yb), axis=1)
        eps = -xb[rows, k] / yb[rows, k]
        ey = eps[:, None] * yb
        scale = np.maximum(np.abs(xb), np.abs(ey))
        candidates = eps[np.all(np.abs(xb + ey) <= CANCEL_REL_TOL * scale, axis=1)]
    if np.any(supp_y & ~supp_x):
        candidates = np.append(candidates, 0.0)
    # exact duplicates change nothing the merge keeps
    merged: list[float] = []
    for e in np.unique(candidates).tolist():
        if merged and abs(e - merged[-1]) <= CANCEL_REL_TOL * max(
            1.0, abs(e), abs(merged[-1])
        ):
            continue
        merged.append(e)
    return merged


def structural_identity_residual(mu: VectorMeasure, mu2: VectorMeasure) -> float:
    """Pointwise residual of the direction-difference identity.

    With unit directions N, N' (extended by zero off the supports) and the
    support indicators chi, chi' chosen so that an entry carried by only one
    of the measures counts once, the identity reads

        (N - N') . (x - x')
            = (1 - N.N') (|x| + |x'|)
            = |N - N'|^2 (|x| + |x'|) / (chi + chi')

    entrywise.  Returns the largest absolute mismatch across both equalities
    and all entries; for exact arithmetic this is zero.
    """
    (x, y), _ = aligned_masses(mu, mu2)
    nx = _entry_norms(x)
    ny = _entry_norms(y)
    sx = _support(nx)
    sy = _support(ny)
    N = np.zeros_like(x)
    M = np.zeros_like(y)
    N[sx] = x[sx] / nx[sx, None]
    M[sy] = y[sy] / ny[sy, None]
    # chi counts an entry for the first measure unless it is carried by the
    # second measure alone; symmetrically for chi'.
    chi = np.where(~sx & sy, 0.0, 1.0)
    chi2 = np.where(sy, 1.0, 0.0)
    denom = chi + chi2
    denom = np.where(denom == 0.0, 1.0, denom)

    diff = N - M
    lhs = np.einsum("ij,ij->i", diff, x - y)
    mid = (1.0 - np.einsum("ij,ij->i", N, M)) * (nx + ny)
    mid = np.where(sx | sy, mid, 0.0)
    rhs = np.einsum("ij,ij->i", diff, diff) * (nx + ny) / denom
    r1 = np.abs(lhs - mid).max() if lhs.size else 0.0
    r2 = np.abs(mid - rhs).max() if lhs.size else 0.0
    return float(max(r1, r2))


def add_scaled(mu: VectorMeasure, nu: VectorMeasure, eps: float) -> VectorMeasure:
    """The measure mu + eps*nu on the shared complex / site union."""
    (x, y), sites = aligned_masses(mu, nu)
    z = x + eps * y
    n_cells = mu.n_cells
    density = z[:n_cells] / mu.cell_weights[:, None]
    atoms = tuple(
        (site, z[n_cells + k].copy())
        for k, site in enumerate(sites)
        if np.any(z[n_cells + k] != 0.0)
    )
    return VectorMeasure(mu.dimension, mu.cell_weights, density, atoms)
