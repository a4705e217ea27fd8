"""Nilpotent classes, affine pavings, and point counts.

Walks the smallest interesting example end to end: the loop quiver in
dimension 3, whose nilpotent classes are the partitions of 3.  For the
subregular class $(0,2)+(0,1)$ the complete flag fiber is a union of
two projective lines meeting in a point, so its Poincaré polynomial is
$1 + 2q$ and it has $q^2$-free point counts $5$ over $F_2$ and $7$
over $F_3$.

Run:  python3 demos/orbits_and_pavings.py
"""

from __future__ import annotations

from quiverchow.nilrep import enumerate_nilreps, orbit_dim, parse_multisegment
from quiverchow.paving import count_points, paving_cells
from quiverchow.quiver import DimVector, enumerate_compositions, parse_composition, parse_quiver


def main() -> None:
    LOOP = parse_quiver("cyclic:1")
    d = DimVector((3,))

    print("== nilpotent classes on the loop quiver, dim 3 ==")
    for M in enumerate_nilreps(LOOP, d):
        print(f"  {str(M):24s} orbit dim {orbit_dim(LOOP, M)}")

    print()
    print("== subregular class, complete flags ==")
    M = parse_multisegment("(0,2)+(0,1)")
    comp = parse_composition("1;1;1", 1)
    cells = paving_cells(LOOP, M, comp)
    print(f"  cells by dimension: {sorted(cells.dims)}")
    print(f"  poincare: {dict(cells.counts)}")
    for q in (2, 3, 5):
        brute = count_points(LOOP, M, comp, q)
        print(f"  |Fl(F_{q})| = {brute}, polynomial predicts {cells.evaluate(q)}")

    print()
    print("== every flag type of the regular class ==")
    reg = parse_multisegment("(0,3)")
    for comp in enumerate_compositions(d):
        cells = paving_cells(LOOP, reg, comp)
        print(f"  type {str(comp):8s} poincare {dict(cells.counts)}")
    print("  (only the complete type admits a stable flag, the kernel")
    print("   filtration, so every coarser flag variety paves empty)")


if __name__ == "__main__":
    main()
