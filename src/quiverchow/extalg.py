"""Graded dimensions of extension-algebra blocks, two ways.

The geometric series for a block $(i, j)$ sums over the orbit strata of the
nilpotent representation space: each stratum contributes the product of the
cell polynomials of the two flag fibers, a Tate twist by the stratum
codimension, and the Chow series of the automorphism group of the orbit
(a product of $\\mathrm{bgl}$ factors).  Pavings make the strata sum with no
correction terms.

The algebraic series is the graded dimension of a block of the quiver Hecke
algebra read off from its permutation basis: one monomial $u^{\\deg_w(i)}$
for every $w$ carrying the word $i$ to $j$, times $(1-u^2)^{-n}$ for the
polynomial part.  The two sides agree after a single normalization shift
$u^{d_j - d_i}$; `compare_block` certifies that identity coefficientwise.

Both sides are an integer Laurent polynomial times a product of
$\\mathrm{bgl}$ factors, and both form it with the one kernel
`series.times_bgl`: division by each $1 - u^{2k}$ as a running sum over one
dense list of exact integers, to $u^N$ and no further.

Every block of one $(Q, d)$ sums over the same strata, so the geometric side
reads them from a `Strata` object: the strata of $\\mathrm{Rep}_d$, each
stratum's orbit dimension and automorphism exponents (computed on first use),
and one row per composition holding its `dim_qvariety` and its paving cell
counts in every stratum.  The object lives as long as the caller holds it
(one table, one suite case); nothing is cached at module level.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .nilrep import aut_series_exponents, enumerate_nilreps, orbit_dim
from .paving import paving_cells
from .quiver import (
    Composition,
    DimVector,
    Quiver,
    dim_qvariety,
    enumerate_compositions,
    permutation_degrees,
)
from .series import DEFAULT_TRUNC, HalfLaurentSeries, bgl, first_discrepancy, times_bgl


@dataclass(frozen=True)
class BlockKey:
    """Index of one block: a pair of compositions of the same vector."""

    quiver: Quiver
    dim: DimVector
    source: Composition
    target: Composition

    def __post_init__(self) -> None:
        if self.source.target != self.target.target:
            raise ValueError("source and target compositions refine different vectors")

    def __str__(self) -> str:
        return f"{self.source}|{self.target}"


@dataclass(frozen=True)
class GdimReport:
    """Outcome of comparing the two series for one complete block; `shift`
    is the exponent of the normalization u^{d_j - d_i}."""

    geometric: HalfLaurentSeries
    algebraic: HalfLaurentSeries
    shift: int
    normalized_match: bool
    first_discrepancy: int | None


def _check_comp(d: DimVector, c: Composition, n: int) -> None:
    target = c.target if c.parts else DimVector((0,) * n)
    if tuple(target) != tuple(d):
        raise ValueError(f"composition {c} does not refine {d}")


class Strata:
    """The orbit strata of Rep_d for one (Q, d), shared by the blocks of a call.

    `reps` is `enumerate_nilreps(Q, d)`.  `orbit(k)` gives the orbit
    dimension and automorphism exponents of stratum k, computed on first
    use, so a stratum no block reaches costs nothing.  `row(c)` gives, for a
    composition c of d, `dim_qvariety(Q, c)` and the paving cell counts of
    c in every stratum (no counts where the variety is empty); it checks
    once that c refines d and keeps the row.  Filling the same entry twice
    stores the same value, so blocks may read one object from several
    threads.
    """

    def __init__(self, Q: Quiver, d: DimVector):
        self.Q = Q
        self.d = d
        self._orbits: dict[int, tuple[int, tuple[int, ...]]] = {}
        self._rows: dict[Composition, tuple[int, tuple[tuple[tuple[int, int], ...], ...]]] = {}

    @functools.cached_property
    def reps(self):
        return enumerate_nilreps(self.Q, self.d)

    def orbit(self, k: int) -> tuple[int, tuple[int, ...]]:
        hit = self._orbits.get(k)
        if hit is None:
            M = self.reps[k]
            hit = self._orbits[k] = (orbit_dim(self.Q, M), tuple(aut_series_exponents(M)))
        return hit

    def row(self, c: Composition) -> tuple[int, tuple[tuple[tuple[int, int], ...], ...]]:
        hit = self._rows.get(c)
        if hit is None:
            _check_comp(self.d, c, self.Q.n)
            cells = tuple(paving_cells(self.Q, M, c).counts for M in self.reps)
            hit = self._rows[c] = (dim_qvariety(self.Q, c), cells)
        return hit


def gdim_geo(
    Q: Quiver,
    d: DimVector,
    i: Composition,
    j: Composition,
    N: int = DEFAULT_TRUNC,
    strata: Strata | None = None,
) -> HalfLaurentSeries:
    """Stratified Chow series of the block (i, j), truncated at u^N.

    Every stratum M contributes u^{2(d_j - orbit_dim(M))} times the product
    of the two cell count polynomials, sum of m u^{-2c} over the (c, m)
    counts of each paving, times the automorphism-group series of M, the
    product of bgl(m) over `aut_series_exponents(M)`.  Strata with the same
    exponents are summed first and multiplied by their bgl product once,
    with `times_bgl` on integer coefficients, exact to u^N (it is linear in
    the polynomial); the exponent grid is even.  `strata` holds the strata
    of (Q, d) across calls; a fresh one is built when it is absent.
    """
    if strata is None:
        strata = Strata(Q, d)
    elif strata.Q != Q or strata.d != d:
        raise ValueError(f"strata of {strata.Q} {strata.d} given for {Q} {d}")
    row_i = strata.row(i)[1]
    dj, row_j = strata.row(j)
    groups: dict[tuple[int, ...], dict[int, int]] = {}
    for k, (cells_i, cells_j) in enumerate(zip(row_i, row_j)):
        if not cells_i or not cells_j:
            continue
        shift, exps = strata.orbit(k)
        coeffs = groups.setdefault(exps, {})
        top = dj - shift
        for c1, m1 in cells_i:
            for c2, m2 in cells_j:
                e = 2 * (top - c1 - c2)
                coeffs[e] = coeffs.get(e, 0) + m1 * m2
    total: dict[int, int] = {}
    for exps, coeffs in groups.items():
        for e, c in times_bgl(coeffs, exps, N).items():
            total[e] = total.get(e, 0) + c
    return HalfLaurentSeries.from_map(total, N)


def gdim_alg_klr(
    Q: Quiver,
    d: DimVector,
    i: tuple[int, ...],
    j: tuple[int, ...],
    N: int = DEFAULT_TRUNC,
) -> HalfLaurentSeries:
    """Permutation-basis graded dimension of the (i, j) block: one term
    u^{deg_w(i)} per permutation w with w.i = j, with deg_w summing
    -cartan(i_k, i_l) over inversions, all times (1 - u^2)^{-n}, formed
    exactly to u^N by `times_bgl` with n factors bgl(1)."""
    i = tuple(i)
    j = tuple(j)
    n = d.total
    if len(d) != Q.n:
        raise ValueError("dimension vector does not match the quiver")
    content = [v for v in Q.vertices for _ in range(d[v])]
    if sorted(i) != content or sorted(j) != content:
        raise ValueError(f"words {i} and {j} must both have content {tuple(d)}")
    coeffs: dict[int, int] = {}
    for _, deg in permutation_degrees(Q, i, j):
        coeffs[deg] = coeffs.get(deg, 0) + 1
    return HalfLaurentSeries.from_map(times_bgl(coeffs, [1] * n, N), N)


def compare_block(
    Q: Quiver,
    d: DimVector,
    i: tuple[int, ...],
    j: tuple[int, ...],
    N: int = DEFAULT_TRUNC,
    strata: Strata | None = None,
) -> GdimReport:
    """Compare the two series for a complete block, coefficientwise to u^N,
    after the normalization shift u^{d_j - d_i}; `strata` is passed on to
    `gdim_geo`.  The KLR formula does not cover a loop vertex, so a quiver
    with a loop is refused."""
    if any(Q.arrow_count(v, v) for v in Q.vertices):
        raise ValueError(f"{Q} has a loop, which the KLR block formula does not cover")
    i = tuple(i)
    j = tuple(j)
    ci = Composition.from_word(i, Q.n)
    cj = Composition.from_word(j, Q.n)
    shift = dim_qvariety(Q, cj) - dim_qvariety(Q, ci)
    # the algebraic side first: it refuses a block past the permutation bound
    alg_wide = gdim_alg_klr(Q, d, i, j, max(N, N - shift))
    geo = gdim_geo(Q, d, ci, cj, N, strata)
    alg = alg_wide.truncate(N)
    shifted = alg_wide.mul(HalfLaurentSeries.monomial(shift)).truncate(N)
    gap = first_discrepancy(geo, shifted)
    return GdimReport(geo, alg, shift, gap is None, gap)


def gdim_schur_table(
    Q: Quiver, d: DimVector, N: int = DEFAULT_TRUNC
) -> dict[BlockKey, HalfLaurentSeries]:
    """Geometric series for every pair of compositions of d, complete or
    not; the coarse blocks have no independent algebraic formula here."""
    comps = enumerate_compositions(d)
    strata = Strata(Q, d)
    table: dict[BlockKey, HalfLaurentSeries] = {}
    for ci in comps:
        for cj in comps:
            table[BlockKey(Q, d, ci, cj)] = gdim_geo(Q, d, ci, cj, N, strata)
    return table


def springer_smash_gdim(n: int, N: int = DEFAULT_TRUNC) -> HalfLaurentSeries:
    """Graded dimension n! (1 - u^2)^{-n} of the smash product of the
    polynomial ring on n variables (degree 2 each) with S_n."""
    if n < 1:
        raise ValueError("n must be positive")
    fact = 1
    for k in range(2, n + 1):
        fact *= k
    return bgl(1, N).pow(n).scale(fact)
