"""Combinatorial layer: quivers, dimension vectors, compositions.

A composition of a dimension vector $d$ is an ordered list of nonzero
dimension vectors summing to $d$; it is complete when every part is a
unit vector.  Complete compositions of $d$ on vertex set $I$ biject
with words of content $d$, so their number is the multinomial
coefficient $(\\sum d_v)! / \\prod d_v!$.
"""

from __future__ import annotations

import itertools
import math
import random

import pytest

from quiverchow.quiver import (
    Composition,
    DimVector,
    Quiver,
    cartan,
    count_compositions,
    dim_flag,
    dim_qvariety,
    enumerate_complete_comps,
    enumerate_compositions,
    parse_composition,
    parse_dimvector,
    parse_quiver,
    parse_word,
    permutation_degrees,
    unit_vector,
)


def test_parse_quiver_linear_and_cyclic():
    A3 = parse_quiver("A3")
    assert A3.n == 3
    assert A3.arrow_count(0, 1) == 1
    assert A3.arrow_count(1, 2) == 1
    assert A3.arrow_count(2, 0) == 0
    assert A3.arrow_count(1, 0) == 0

    C3 = parse_quiver("cyclic:3")
    assert C3.n == 3
    assert C3.arrow_count(2, 0) == 1
    assert C3.arrow_count(0, 2) == 0

    loop = parse_quiver("cyclic:1")
    assert loop.n == 1
    assert loop.arrow_count(0, 0) == 1


@pytest.mark.parametrize("spec", ["A1", "A3", "cyclic:1", "cyclic:2", "cyclic:3"])
def test_arrow_table_agrees_with_checked_arrow_count(spec):
    Q = parse_quiver(spec)
    assert Q.arrow_table == tuple(
        tuple(Q.arrow_count(v, w) for w in Q.vertices) for v in Q.vertices
    )
    assert Q.arrow_table is Q.arrow_table
    # the public lookup still refuses a vertex out of range
    for v, w in ((Q.n, 0), (0, -1)):
        with pytest.raises(ValueError):
            Q.arrow_count(v, w)


def test_parse_quiver_rejects_garbage():
    for bad in ("A0", "B2", "cyclic:0", "cyclic:x", "", "A"):
        with pytest.raises(ValueError):
            parse_quiver(bad)


def test_cartan_matrix_values():
    # off-diagonal: minus the number of arrows between v and w, both ways;
    # diagonal: 2, by convention also at a loop vertex
    A2 = parse_quiver("A2")
    assert [[cartan(A2, v, w) for w in range(2)] for v in range(2)] == [[2, -1], [-1, 2]]

    loop = parse_quiver("cyclic:1")
    assert cartan(loop, 0, 0) == 2

    C2 = parse_quiver("cyclic:2")
    assert cartan(C2, 0, 1) == -2  # arrows both ways


def test_dimvector_arithmetic_and_parse():
    d = parse_dimvector("1,2,0")
    assert tuple(d) == (1, 2, 0)
    assert d.total == 3
    assert not d.is_zero()
    assert DimVector((0, 0)).is_zero()
    e = unit_vector(3, 1)
    assert tuple(d + e) == (1, 3, 0)
    assert tuple(d - e) == (1, 1, 0)
    with pytest.raises(ValueError):
        parse_dimvector("1,-2,0")


def test_composition_roundtrip_and_word():
    c = parse_composition("1,0;0,1", 2)
    assert str(c) == "1,0;0,1"
    assert tuple(c.target) == (1, 1)
    assert c.complete
    assert c.word() == (0, 1)

    c2 = parse_composition("1;1;1", 1)
    assert c2.word() == (0, 0, 0)

    mixed = parse_composition("1,1;0,1", 2)
    assert not mixed.complete
    with pytest.raises(ValueError):
        mixed.word()

    # zero parts are not allowed
    with pytest.raises(ValueError):
        parse_composition("0,0;1,1", 2)


def test_composition_from_word_roundtrip():
    word = (0, 1, 1, 0)
    c = Composition.from_word(word, 2)
    assert c.complete
    assert c.word() == word
    assert c == Composition(tuple(unit_vector(2, v) for v in word))
    assert all(type(p) is DimVector for p in c.parts)
    assert Composition.from_word((), 3) == Composition(())
    for bad in ((0, 2), (0, -1)):
        with pytest.raises(ValueError, match="not a vertex"):
            Composition.from_word(bad, 2)


def test_complete_comps_count_is_multinomial():
    rng = random.Random(11)
    for _ in range(12):
        n = rng.randint(1, 3)
        Q = parse_quiver(f"cyclic:{n}") if rng.random() < 0.5 else parse_quiver(f"A{n}")
        d = DimVector(tuple(rng.randint(0, 2) for _ in range(n)))
        comps = enumerate_complete_comps(Q, d)
        letters = [v for v in Q.vertices for _ in range(d[v])]
        assert [c.word() for c in comps] == sorted(set(itertools.permutations(letters)))
        expect = math.factorial(d.total)
        for dv in d:
            expect //= math.factorial(dv)
        assert len(comps) == expect
        assert len(set(map(str, comps))) == len(comps)
        for c in comps:
            assert c.complete
            if c.parts:
                assert tuple(c.target) == tuple(d)


def test_enumerate_compositions_small_cases():
    assert [str(c) for c in enumerate_compositions(DimVector((2,)))] == ["1;1", "2"]
    comps = enumerate_compositions(DimVector((1, 1)))
    assert sorted(str(c) for c in comps) == ["0,1;1,0", "1,0;0,1", "1,1"]
    # the zero vector has exactly the empty composition
    empty = enumerate_compositions(DimVector((0, 0)))
    assert len(empty) == 1 and empty[0].parts == ()


def test_enumerate_compositions_counts_by_refinement():
    # compositions of (n,) on one vertex are the 2^(n-1) integer compositions
    for n in range(1, 7):
        assert len(enumerate_compositions(DimVector((n,)))) == 2 ** (n - 1)


def test_count_compositions_matches_enumeration():
    for d in ((0, 0), (1,), (4,), (6,), (2, 2), (3, 1), (0, 2, 1), (1, 2, 1),
              (2, 2, 2), (1, 1, 1, 1)):
        dv = DimVector(d)
        assert count_compositions(dv) == len(enumerate_compositions(dv)), d
    # far past what enumeration reaches in a test
    assert count_compositions(DimVector((3, 3, 3))) == 64324


def test_dim_flag_sums_products_of_steps():
    # flag variety of type (1,1,1) in k^3 has dimension 3, type (1,2) gives P^2
    assert dim_flag(parse_composition("1;1;1", 1)) == 3
    assert dim_flag(parse_composition("1;2", 1)) == 2
    assert dim_flag(parse_composition("2;1", 1)) == 2
    assert dim_flag(parse_composition("3", 1)) == 0


def test_dim_qvariety_adds_arrow_positions():
    loop = parse_quiver("cyclic:1")
    # strictly stable flags: flag part plus one triangular arrow block
    full = parse_composition("1;1;1", 1)
    assert dim_qvariety(loop, full) == dim_flag(full) + 3
    A2 = parse_quiver("A2")
    c = parse_composition("1,0;0,1", 2)
    assert dim_qvariety(A2, c) >= dim_flag(c)


def test_parse_word():
    assert parse_word("0,1,0") == (0, 1, 0)
    assert parse_word("") == ()


def test_permutation_degrees_refuses_a_long_walk_before_it_starts():
    A1 = parse_quiver("A1")
    with pytest.raises(ValueError, match="362880 permutations"):
        permutation_degrees(A1, (0,) * 9, (0,) * 9)
    # at the bound the walk is handed back, not started
    permutation_degrees(A1, (0,) * 8, (0,) * 8)
    # equal letters only are permuted: A3 (2,2,2) walks 2!^3 = 8
    A3 = parse_quiver("A3")
    assert len(list(permutation_degrees(A3, (0, 0, 1, 1, 2, 2), (2, 1, 0, 2, 1, 0)))) == 8
