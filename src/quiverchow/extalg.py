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
dense list of exact integers, to $u^N$ and no further.  Nothing is cached.
"""

from __future__ import annotations

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
    """Outcome of comparing the two series for one complete block."""

    geometric: HalfLaurentSeries
    algebraic: HalfLaurentSeries
    normalized_match: bool
    first_discrepancy: int | None


def _check_comp(d: DimVector, c: Composition, n: int) -> None:
    target = c.target if c.parts else DimVector((0,) * n)
    if tuple(target) != tuple(d):
        raise ValueError(f"composition {c} does not refine {d}")


def gdim_geo(
    Q: Quiver,
    d: DimVector,
    i: Composition,
    j: Composition,
    N: int = DEFAULT_TRUNC,
) -> HalfLaurentSeries:
    """Stratified Chow series of the block (i, j), truncated at u^N.

    Every stratum M contributes u^{2(d_j - orbit_dim(M))} times the product
    of the two cell count polynomials, sum of m u^{-2c} over the (c, m)
    counts of each paving, times the automorphism-group series of M, the
    product of bgl(m) over `aut_series_exponents(M)`.  Each product is
    formed exactly to u^N by `times_bgl` on integer coefficients, and the
    strata are summed into one map; the exponent grid is even.
    """
    _check_comp(d, i, Q.n)
    _check_comp(d, j, Q.n)
    dj = dim_qvariety(Q, j)
    total: dict[int, int] = {}
    for M in enumerate_nilreps(Q, d):
        cells_i = paving_cells(Q, M, i)
        cells_j = paving_cells(Q, M, j)
        if cells_i.is_empty_variety() or cells_j.is_empty_variety():
            continue
        shift = orbit_dim(Q, M)
        coeffs: dict[int, int] = {}
        for c1, m1 in cells_i.counts:
            for c2, m2 in cells_j.counts:
                e = 2 * (dj - shift - c1 - c2)
                coeffs[e] = coeffs.get(e, 0) + m1 * m2
        for e, c in times_bgl(coeffs, aut_series_exponents(M), N).items():
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
) -> GdimReport:
    """Compare the two series for a complete block, coefficientwise to u^N,
    after the normalization shift u^{d_j - d_i}.  The KLR formula does not
    cover a loop vertex, so a quiver with a loop is refused."""
    if any(Q.arrow_count(v, v) for v in Q.vertices):
        raise ValueError(f"{Q} has a loop, which the KLR block formula does not cover")
    i = tuple(i)
    j = tuple(j)
    ci = Composition.from_word(i, Q.n)
    cj = Composition.from_word(j, Q.n)
    shift = dim_qvariety(Q, cj) - dim_qvariety(Q, ci)
    # the algebraic side first: it refuses a block past the permutation bound
    alg_wide = gdim_alg_klr(Q, d, i, j, max(N, N - shift))
    geo = gdim_geo(Q, d, ci, cj, N)
    alg = alg_wide.truncate(N)
    shifted = alg_wide.mul(HalfLaurentSeries.monomial(shift)).truncate(N)
    gap = first_discrepancy(geo, shifted)
    return GdimReport(geo, alg, gap is None, gap)


def gdim_schur_table(
    Q: Quiver, d: DimVector, N: int = DEFAULT_TRUNC
) -> dict[BlockKey, HalfLaurentSeries]:
    """Geometric series for every pair of compositions of d, complete or
    not; the coarse blocks have no independent algebraic formula here."""
    comps = enumerate_compositions(d)
    table: dict[BlockKey, HalfLaurentSeries] = {}
    for ci in comps:
        for cj in comps:
            table[BlockKey(Q, d, ci, cj)] = gdim_geo(Q, d, ci, cj, N)
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
