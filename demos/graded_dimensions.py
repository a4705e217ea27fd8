"""Graded dimensions of convolution blocks, two ways.

The geometric series for a block $(i,j)$ sums paving cell counts
against automorphy series over the strata; the algebraic series counts
the quiver Hecke basis $\\{\\psi_w x^\\alpha e(i)\\}$.  They agree up to
a monomial shift in flag variety dimensions.  The script prints both
sides for the $A_2$ blocks, then the one-vertex closed forms: the nil
Hecke algebra $(\\sum_w u^{-2\\ell(w)})(1-u^2)^{-n}$ and the smash
product $n!\\,(1-u^2)^{-n}$.

Run:  python3 demos/graded_dimensions.py
"""

from __future__ import annotations

from itertools import permutations

from quiverchow.extalg import Strata, compare_block, gdim_geo, springer_smash_gdim
from quiverchow.quiver import (
    DimVector,
    enumerate_complete_comps,
    enumerate_compositions,
    parse_quiver,
)
from quiverchow.series import HalfLaurentSeries, bgl


def show(name: str, series) -> None:
    coeffs = " ".join(f"u^{e}:{c}" for e, c in sorted(series.as_map().items())[:7])
    print(f"  {name:18s} {coeffs} ...")


def main() -> None:
    A2 = parse_quiver("A2")
    d = DimVector((1, 1))

    print("== A_2, d = (1,1): geometric vs algebraic per block ==")
    for i in ((0, 1), (1, 0)):
        for j in ((0, 1), (1, 0)):
            rep = compare_block(A2, d, i, j, 16)
            verdict = "match" if rep.normalized_match else "MISMATCH"
            print(f"  block {i}|{j}: {verdict}")
            show("    geometric", series=rep.geometric)
            show("    algebraic", series=rep.algebraic)

    print()
    print("== nil Hecke closed form on one vertex ==")
    A1 = parse_quiver("A1")
    for n in (1, 2, 3):
        dv = DimVector((n,))
        comp = enumerate_complete_comps(A1, dv)[0]
        geo = gdim_geo(A1, dv, comp, comp, 16)
        numer = HalfLaurentSeries.zero()
        for w in permutations(range(n)):
            inv = sum(1 for a in range(n) for b in range(a + 1, n) if w[a] > w[b])
            numer = numer.add(HalfLaurentSeries.monomial(-2 * inv))
        closed = numer.mul(bgl(1, 16).pow(n))
        show(f"rank {n} geometric", series=geo)
        show(f"rank {n} closed", series=closed.truncate(16))

    print()
    print("== loop quiver block carries the smash product ==")
    LOOP = parse_quiver("cyclic:1")
    for n in (1, 2):
        dv = DimVector((n,))
        comp = enumerate_complete_comps(LOOP, dv)[0]
        show(f"n={n} geometric", series=gdim_geo(LOOP, dv, comp, comp, 12))
        show(f"n={n} n!(1-u^2)^-n", series=springer_smash_gdim(n, 12))

    print()
    print("== the full table over all compositions, A_1 d = 2 ==")
    A1, d2 = parse_quiver("A1"), DimVector((2,))
    comps = enumerate_compositions(d2)
    strata = Strata(A1, d2)
    for ci in comps:
        for cj in comps:
            show(f"{ci}|{cj}", series=gdim_geo(A1, d2, ci, cj, 10, strata))


if __name__ == "__main__":
    main()
