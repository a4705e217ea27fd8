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
dense list of exact integers, to a given power of u and no further.

The geometric side is a bilinear form over the strata $M$, in $t = u^2$:
$\\sum_M P_i(M) R_j(M)$, with $P_i(M)$ the cell polynomial of $i$ in
$t^{-1}$ and $R_j(M) = t^{D_j - \\dim O_M} P_j(M) H_M$, $H_M$ the
automorphism-group series.  Every block of one $(Q, d)$ sums over the same
strata, so it reads them from a `Strata` object: the strata of
$\\mathrm{Rep}_d$, each stratum's orbit dimension and automorphism exponents
(computed on first use), one row per composition holding its
`dim_qvariety` and its paving cell counts in every stratum, and one pack
per (composition, truncation) holding both factors of the composition,
each stratum's as one Python integer by Kronecker substitution: one slot
of W bits per power of t.  A block is then one integer product per
stratum, summed, and one decode of the slots.  Every slot is a
non-negative integer and carries only move upward, so a W from an exact
bound on the decoded coefficients (`Strata.width`) reads every one of them
exactly.  The decode reads only the summed integer, the lowest power of t
of the target's pack (`lo`) and the truncation N (W and the complete flag
dimension h are fixed per object and N), so `Strata` also keeps one
decoded series per (sum, lo, N): the many blocks with equal stalk rows
(the 1,936 blocks of the A3 (1,2,1) table take 27 sums) decode once and
share one immutable series.  The object lives as long as the caller holds
it (one table, one suite case); nothing is cached at module level.
"""

from __future__ import annotations

import functools
from math import comb, factorial, prod
from operator import mul
from typing import NamedTuple

from .nilrep import aut_series_exponents, enumerate_nilreps, orbit_dim
from .paving import paving_cells
from .quiver import (
    Composition,
    DimVector,
    Quiver,
    dim_qvariety,
    permutation_degrees,
)
from .series import DEFAULT_TRUNC, HalfLaurentSeries, bgl, first_discrepancy, times_bgl


class GdimReport(NamedTuple):
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


def _slot_width(bound: int) -> int:
    """Bits per slot of a packed series whose decoded slots are
    non-negative integers at most `bound`: its bit length, so that the
    largest slot, 2^W - 1 at most, never carries into the next one."""
    return bound.bit_length()


def _unpack(value: int, width: int, e0: int, N: int) -> HalfLaurentSeries:
    """The series with one coefficient per `width`-bit slot of `value`:
    slot s is the coefficient of u^(e0 + 2s), read up to u^N."""
    mask = (1 << width) - 1
    coeffs = []
    for e in range(e0, N + 1, 2):
        if not value:
            break
        c = value & mask
        if c:
            coeffs.append((e, c))
        value >>= width
    # ascending exponents up to N, non-zero int slots: canonical as read
    return HalfLaurentSeries._canonical(tuple(coeffs), N)


class Strata:
    """The orbit strata of Rep_d for one (Q, d), shared by the blocks of a call.

    `reps` is `enumerate_nilreps(Q, d)`.  `orbit(k)` gives the orbit
    dimension and automorphism exponents of stratum k, computed on first
    use, so a stratum where every composition's paving is empty costs
    nothing.  `word(w)` gives the complete composition of a word w and its
    `dim_qvariety`, converted once per word and not checked against d.
    `row(c)` gives, for a composition c of d, `dim_qvariety(Q, c)` and the
    paving cell counts of c in every stratum (no counts where the variety
    is empty); it checks once that c refines d and keeps the row.
    `pack(c, N)` gives the two factors of c in `gdim_geo` to u^N,
    each stratum's as one integer.  `decode(total, lo, N)` gives the
    series of a block whose packed sum is `total` and whose target pack
    starts at t^lo: with h and `width(N)` fixed, those three determine it,
    so equal blocks decode once and share one immutable series.  Filling
    the same entry twice stores the same value, so blocks may read one
    object from several threads: two threads may both decode one key, and
    either stored copy is the same series.

    `h`, the dimension of the complete flag variety of d, bounds every
    cell dimension: a flag of any type lies in a partial flag variety of d.
    """

    def __init__(self, Q: Quiver, d: DimVector):
        self.Q = Q
        self.d = d
        self.h = sum(comb(e, 2) for e in d)
        self._orbits: dict[int, tuple[int, tuple[int, ...]]] = {}
        self._words: dict[tuple[int, ...], tuple[Composition, int]] = {}
        self._rows: dict[Composition, tuple[int, tuple[tuple[tuple[int, int], ...], ...]]] = {}
        self._widths: dict[int, int] = {}
        self._packs: dict[tuple[Composition, int], tuple[int, tuple[int, ...], tuple[int, ...]]] = {}
        self._series: dict[tuple[int, int, int], HalfLaurentSeries] = {}

    @functools.cached_property
    def reps(self):
        return enumerate_nilreps(self.Q, self.d)

    def orbit(self, k: int) -> tuple[int, tuple[int, ...]]:
        hit = self._orbits.get(k)
        if hit is None:
            M = self.reps[k]
            hit = self._orbits[k] = (orbit_dim(self.Q, M), tuple(aut_series_exponents(M)))
        return hit

    def word(self, w: tuple[int, ...]) -> tuple[Composition, int]:
        hit = self._words.get(w)
        if hit is None:
            c = Composition.from_word(w, self.Q.n)
            hit = self._words[w] = (c, dim_qvariety(self.Q, c))
        return hit

    def row(self, c: Composition) -> tuple[int, tuple[tuple[tuple[int, int], ...], ...]]:
        hit = self._rows.get(c)
        if hit is None:
            _check_comp(self.d, c, self.Q.n)
            cells = tuple(paving_cells(self.Q, M, c).counts for M in self.reps)
            hit = self._rows[c] = (dim_qvariety(self.Q, c), cells)
        return hit

    def width(self, N: int) -> int:
        """Slot width of every pack to u^N, from a bound on the coefficients
        of any block to u^N that no composition can exceed.

        Write t = u^2.  The coefficient of t^x in a block (i, j) is
        sum over strata M and cells (c1, m1) of i, (c2, m2) of j of
        m1 m2 H_M[x + c1 + c2 - D_j + orbit_dim(M)], with H_M the product of
        bgl(m) over the automorphism exponents of M.  The paving recursion
        picks per step and vertex a subset of at most r_v socle lines, r_v
        the dimension left, so a flag type has at most prod_v d_v! cells in
        M; each cell dimension is at most h, D_j >= 0 and orbit_dim(M) <=
        sum_v d_v^2, so for x <= N/2 the index is at most K = N//2 + 2h +
        sum_v d_v^2.  M has at most n = total(d) segments, so H_M is
        coefficientwise at most (1 - t)^(-n), whose coefficients
        C(k + n - 1, n - 1) grow with k.  The coefficient is therefore at
        most #strata * (prod_v d_v!)^2 * C(K + n - 1, n - 1)."""
        hit = self._widths.get(N)
        if hit is None:
            n = self.d.total
            cells = prod(factorial(e) for e in self.d)
            K = max(N // 2 + 2 * self.h + sum(e * e for e in self.d), 0)
            aut = comb(K + n - 1, n - 1) if n else 1
            hit = self._widths[N] = _slot_width(len(self.reps) * cells * cells * aut)
        return hit

    def pack(
        self, c: Composition, N: int
    ) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
        """(lo, left, right) for c to u^N, one integer per stratum M in each
        factor, slots of `width(N)` bits, one per power of t = u^2.

        With P_c(M) = sum of m t^(-k) over the cells (k, m) of c in M,
        `left` packs t^h P_c(M): slot h - k holds m.  `right` packs R_c(M) =
        t^(D_c - orbit_dim(M)) P_c(M) H_M, exact up to t^(N//2 + h), with
        slot x - lo for t^x; lo is the lowest exponent of any stratum's
        R_c.  Both are 0 where the paving of c is empty.  Every slot is a
        non-negative integer: cell counts and partition counts."""
        key = (c, N)
        hit = self._packs.get(key)
        if hit is None:
            D, cells = self.row(c)
            W = self.width(N)
            h = self.h
            top = N // 2 + h
            left = tuple(sum(m << W * (h - k) for k, m in counts) for counts in cells)
            lows = {
                k: D - self.orbit(k)[0] - counts[-1][0]
                for k, counts in enumerate(cells) if counts
            }
            lo = min(lows.values(), default=0)
            right = []
            for k, counts in enumerate(cells):
                if k not in lows or lows[k] > top:
                    right.append(0)
                    continue
                shift, exps = self.orbit(k)
                poly = {2 * (D - shift - c2): m for c2, m in counts}
                series = times_bgl(poly, exps, 2 * top)
                right.append(sum(v << W * (e // 2 - lo) for e, v in series.items()))
            hit = self._packs[key] = (lo, left, tuple(right))
        return hit

    def decode(self, total: int, lo: int, N: int) -> HalfLaurentSeries:
        """The series of a packed block sum `total` whose right factor
        starts at t^lo, to u^N: slot s is the coefficient of
        u^(2 (lo - h) + 2s).  `_unpack` reads nothing else, so one series
        serves every block with this (total, lo, N)."""
        key = (total, lo, N)
        hit = self._series.get(key)
        if hit is None:
            hit = self._series[key] = _unpack(total, self.width(N), 2 * (lo - self.h), N)
        return hit


def _strata_for(Q: Quiver, d: DimVector, strata: Strata | None) -> Strata:
    """`strata` once it is checked to be of (Q, d); fresh strata when None."""
    if strata is None:
        return Strata(Q, d)
    # tuples compare items by identity first, so the caller's own Q and d
    # (every block of a table) cost no field-by-field comparison
    if (strata.Q, strata.d) != (Q, d):
        raise ValueError(f"strata of {strata.Q} {strata.d} given for {Q} {d}")
    return strata


def gdim_geo(
    Q: Quiver,
    d: DimVector,
    i: Composition,
    j: Composition,
    N: int = DEFAULT_TRUNC,
    strata: Strata | None = None,
) -> HalfLaurentSeries:
    """Stratified Chow series of the block (i, j), truncated at u^N.

    In t = u^2 it is the sum over strata M of P_i(M) R_j(M): P_i(M) is
    the cell polynomial of i in M, sum of m t^(-c) over its (c, m) counts,
    and R_j(M) = t^(D_j - orbit_dim(M)) P_j(M) H_M, with H_M the product
    of bgl(m) over `aut_series_exponents(M)` (the form u^(D_j - D_i) sum
    of p̄_i(M) p̄_j(M) H_M in the stalk vectors p_c(M) = u^(orbit_dim(M)
    - D_c) P_c(M)(u^-2)).  `Strata.pack` holds both factors of every
    composition, each stratum's as one integer with a slot per power of t,
    so the sum is one integer product per stratum and one decode.  The
    decode is `Strata.decode`, kept per (sum, lo, N): blocks with the same
    sum and the same `lo` of j are the same series, so they decode once
    and return one shared immutable object.

    Every slot of the sum is a non-negative integer, so carries only move
    upward, and `Strata.width` bounds every coefficient up to u^N, so those
    slots decode exactly.  R_j is exact to t^(N//2 + h) and no cell of i is
    above h, so each of them is complete.  `strata` holds the strata of
    (Q, d), the packs and the decoded series across calls, for as long as
    the caller keeps it; a fresh one is built when it is absent.  Threads
    sharing it may both decode one block, and either stored copy is equal.
    """
    strata = _strata_for(Q, d, strata)
    left = strata.pack(i, N)[1]
    lo, _, right = strata.pack(j, N)
    return strata.decode(sum(map(mul, left, right)), lo, N)


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
    # times_bgl keeps ascending exponents up to N with non-zero int values
    return HalfLaurentSeries._canonical(tuple(times_bgl(coeffs, [1] * n, N).items()), N)


def compare_block(
    Q: Quiver,
    d: DimVector,
    i: tuple[int, ...],
    j: tuple[int, ...],
    N: int = DEFAULT_TRUNC,
    strata: Strata | None = None,
) -> GdimReport:
    """Compare the two series for a complete block, coefficientwise to u^N,
    after the normalization shift u^{d_j - d_i}.  The compositions of the
    words and their dimensions d_c come from `strata.word` (fresh strata
    when `strata` is None), which `gdim_geo` then reads.  The KLR formula
    does not cover a loop vertex, so a quiver with a loop is refused."""
    if any(Q.arrow_count(v, v) for v in Q.vertices):
        raise ValueError(f"{Q} has a loop, which the KLR block formula does not cover")
    i = tuple(i)
    j = tuple(j)
    strata = _strata_for(Q, d, strata)
    ci, di = strata.word(i)
    cj, dj = strata.word(j)
    shift = dj - di
    # the algebraic side first: it refuses a block past the permutation bound
    alg_wide = gdim_alg_klr(Q, d, i, j, max(N, N - shift))
    geo = gdim_geo(Q, d, ci, cj, N, strata)
    alg = alg_wide.truncate(N)
    # alg_wide is exact to u^(N - shift) at least, so its shift is exact to u^N
    gap = first_discrepancy(geo, alg_wide.shifted(shift, N))
    return GdimReport(geo, alg, shift, gap is None, gap)


def springer_smash_gdim(n: int, N: int = DEFAULT_TRUNC) -> HalfLaurentSeries:
    """Graded dimension n! (1 - u^2)^{-n} of the smash product of the
    polynomial ring on n variables (degree 2 each) with S_n."""
    if n < 1:
        raise ValueError("n must be positive")
    fact = 1
    for k in range(2, n + 1):
        fact *= k
    return bgl(1, N).pow(n).scale(fact)
