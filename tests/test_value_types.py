"""Value semantics of the immutable value types.

`Quiver`, `Composition`, `Segment`, `Multisegment`, `CellSet`,
`HalfLaurentSeries`, `KLROperator` and `BlockKey` are plain classes with
slots.  Equal instances hash alike, an instance equals only instances of
its own class (never the tuple of its fields), fields cannot be assigned
or deleted, and each constructor keeps its validation and normalisation.
"""

from __future__ import annotations

import copy
import pickle
from fractions import Fraction

import pytest

from quiverchow.extalg import BlockKey
from quiverchow.klrpoly import KLROperator
from quiverchow.nilrep import Multisegment, Segment
from quiverchow.paving import CellSet
from quiverchow.quiver import Composition, DimVector, Quiver, parse_composition
from quiverchow.series import INF, HalfLaurentSeries

A2 = Quiver("linear", 2)


def _pairs():
    """(make, fields): `make()` builds a fresh instance each call, and
    `fields` is the tuple of its field values in constructor order."""
    comp = parse_composition("1,0;0,1", 2)
    comp2 = parse_composition("1,1", 2)
    segs = (Segment(1, 2), Segment(0, 1))
    return [
        (lambda: Quiver("linear", 2), ("linear", 2)),
        (lambda: parse_composition("1,0;0,1", 2), (comp.parts,)),
        (lambda: Segment(1, 2), (1, 2)),
        (lambda: Multisegment(segs), (tuple(sorted(segs)),)),
        (lambda: CellSet(((0, 1), (2, 3))), (((0, 1), (2, 3)),)),
        (lambda: HalfLaurentSeries(((2, 1), (0, Fraction(4, 2))), 5), (((0, 2), (2, 1)), 5)),
        (lambda: KLROperator.x(A2, 2, 1) + KLROperator.one(A2, 2),
         (A2, 2, ((1, ()), (1, (("x", 1),))))),
        (lambda: BlockKey(A2, DimVector((1, 1)), comp, comp2),
         (A2, DimVector((1, 1)), comp, comp2)),
    ]


@pytest.mark.parametrize("make, fields", _pairs())
def test_equal_instances_hash_alike_and_differ_from_their_tuple(make, fields):
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert tuple(getattr(a, f) for f in a._fields) == fields
    assert a != fields and fields != a
    assert len({a, b, fields}) == 2


@pytest.mark.parametrize("make, fields", _pairs())
def test_fields_cannot_be_assigned_or_deleted(make, fields):
    a = make()
    for name in a._fields:
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert tuple(getattr(a, f) for f in a._fields) == fields


@pytest.mark.parametrize("make, fields", _pairs())
def test_repr_names_the_fields_and_copies_go_through_the_constructor(make, fields):
    a = make()
    if type(a) is not KLROperator:  # whose repr is its str
        args = ", ".join(f"{f}={v!r}" for f, v in zip(a._fields, fields))
        assert repr(a) == f"{type(a).__name__}({args})"
    for twin in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(twin) is type(a) and twin == a and hash(twin) == hash(a)


def test_instances_of_different_classes_are_never_equal():
    assert Segment(0, 1) != Quiver("linear", 1)
    assert CellSet(()) != Multisegment(())
    assert HalfLaurentSeries(()) != CellSet(())


def test_sorted_segments_follow_socle_vertex_then_length():
    segs = [Segment(2, 1), Segment(0, 3), Segment(1, 1), Segment(0, 1), Segment(1, 4)]
    assert [(s.socle_vertex, s.length) for s in sorted(segs)] == sorted(
        (s.socle_vertex, s.length) for s in segs
    )
    assert Segment(0, 3) < Segment(1, 1) <= Segment(1, 1) < Segment(1, 2)
    assert Segment(2, 1) > Segment(1, 9) >= Segment(1, 9)
    with pytest.raises(TypeError):
        Segment(0, 1) < (0, 2)
    assert Multisegment(segs).segments == tuple(sorted(segs))


def test_constructors_refuse_bad_input():
    with pytest.raises(ValueError, match="unknown quiver kind 'loop'"):
        Quiver("loop", 1)
    with pytest.raises(ValueError, match="at least one vertex"):
        Quiver("linear", 0)
    with pytest.raises(ValueError, match="must be nonzero"):
        Composition((DimVector((1, 0)), DimVector((0, 0))))
    with pytest.raises(ValueError, match="different vertex sets"):
        Composition((DimVector((1, 0)), DimVector((1,))))
    a, b = parse_composition("1;1", 1), parse_composition("1;1;1", 1)
    with pytest.raises(ValueError, match="refine different vectors"):
        BlockKey(Quiver("linear", 1), DimVector((2,)), a, b)


def test_constructors_normalise():
    s = HalfLaurentSeries(((3, 1), (-1, Fraction(6, 3)), (1, 0), (9, 5)), 4)
    assert s.coeffs == ((-1, 2), (3, 1)) and type(s.coeffs[0][1]) is int
    op = KLROperator(A2, 2, ((2, (("x", 1),)), (1, ()), (-2, (("x", 1),)), (Fraction(3, 3), ())))
    assert op.terms == ((2, ()),) and type(op.terms[0][0]) is int
    assert Multisegment((Segment(1, 1), Segment(0, 2))).segments == (Segment(0, 2), Segment(1, 1))
    assert Composition((DimVector((1, 0)), DimVector((1, 1)))).target == DimVector((2, 1))


@pytest.mark.parametrize("coeffs, trunc", [
    ((), INF),
    (((0, 1),), INF),
    (((-2, Fraction(1, 3)), (0, 4), (5, -1)), 5),
    (((1, 7), (3, Fraction(-5, 2))), 3),
])
def test_canonical_equals_the_normalised_constructor(coeffs, trunc):
    fast = HalfLaurentSeries._canonical(coeffs, trunc)
    slow = HalfLaurentSeries(tuple(reversed(coeffs)), trunc)
    assert fast == slow and hash(fast) == hash(slow)
    assert fast.coeffs == slow.coeffs and fast.trunc == slow.trunc
