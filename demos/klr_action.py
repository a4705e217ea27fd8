"""The quiver Hecke algebra acting on labeled polynomials.

Operators are words in $e(i)$, $x_k$, $\\psi_r$; they act on sums
$f \\cdot 1_i$ with $f$ a polynomial and $i$ a word.  Equal-label
crossings act by divided differences (so they square to zero),
unequal-label crossings swap with an arrow-counting factor.  The
script shows single actions, verifies a relation sample, and computes
the graded center of the smash product, whose dimensions are
partition counts.

Run:  python3 demos/klr_action.py
"""

from __future__ import annotations

from quiverchow.klrpoly import (
    KLROperator,
    LabeledPoly,
    Poly,
    SmashElement,
    relation_suite,
    smash_center_dims,
    smash_mul,
)
from quiverchow.quiver import DimVector, parse_quiver


def main() -> None:
    A2 = parse_quiver("A2")
    A1 = parse_quiver("A1")

    print("== single generator actions ==")
    f = LabeledPoly.from_poly((0, 0), Poly.x(2, 1).mul(Poly.x(2, 1)))
    psi = KLROperator.psi(A1, 2, 1)
    out = psi.apply(f)
    print(f"  psi_1 . (x1^2 . 1_(0,0)) = {out}")
    g = LabeledPoly.from_poly((0, 1), Poly.one(2))
    crossed = KLROperator.psi(A2, 2, 1).apply(g)
    print(f"  psi_1 . (1 . 1_(0,1))   = {crossed}   (crossing the arrow)")
    back = KLROperator.psi(A2, 2, 1).apply(LabeledPoly.from_poly((1, 0), Poly.one(2)))
    print(f"  psi_1 . (1 . 1_(1,0))   = {back}   (with the arrow, free)")

    print()
    print("== psi squares to zero on equal labels ==")
    twice = psi.apply(psi.apply(LabeledPoly.from_poly((0, 0), Poly.x(2, 1))))
    print(f"  psi_1^2 . (x1 . 1_(0,0)) = {twice or '0'}")

    print()
    print("== randomized relation verdicts, cyclic:2 at d = (1,1) ==")
    report = relation_suite(parse_quiver("cyclic:2"), DimVector((1, 1)),
                            trials=25, seed=42)
    for v in report.verdicts:
        print(f"  {v.name:22s} {v.trials} trials, {v.failures} failures")

    print()
    print("== smash product: conjugation and center ==")
    s1 = SmashElement.s(2, 1)
    x1 = SmashElement.x(2, 1)
    print(f"  s1 x1 s1 = {smash_mul(smash_mul(s1, x1), s1)}")
    dims = smash_center_dims(3, 6)
    print(f"  center dims, n=3, degrees 0..6: {dims}")
    print("  (partition counts with parts at most 3)")


if __name__ == "__main__":
    main()
