"""Nilpotent representations of cyclic and linear quivers.

Every nilpotent representation is a direct sum of segments $E(i,l)$,
the string module with socle at vertex $i$ and length $l$, so
isomorphism classes are multisegments.  On the loop quiver this is
Jordan theory: multisegments of total dimension $d$ are partitions of
$d$, and $\\hom(E(0,l), E(0,m)) = \\min(l,m)$.

The closed-form hom_dim is checked against intertwiner_dim, a
test-only reference kept here, which ranks the actual linear system $X N_A = N_B X$ cell by cell and does
not share any code path with the formula.
"""

from __future__ import annotations

import random

import pytest

from quiverchow import nilrep
from quiverchow.linalg import rank_int
from quiverchow.nilrep import (
    Multisegment,
    Segment,
    aut_series_exponents,
    enumerate_nilreps,
    hom_dim,
    orbit_dim,
    parse_multisegment,
    quotient_by_socles,
    semisimple_class,
    socle_basis,
)
from quiverchow.quiver import DimVector, Quiver, dim_qvariety, parse_quiver


LOOP = parse_quiver("cyclic:1")


def intertwiner_dim(Q: Quiver, A: Segment, B: Segment) -> int:
    """Brute-force dim Hom(E(A), E(B)) via the intertwiner linear system.

    Materializes both segments with their shift bases, writes the unknown
    map as one scalar per (source position, target position) pair at equal
    vertices, imposes commutation with every arrow, and returns the
    dimension of the solution space.  Independent of hom_dim.
    """
    sa = A.support(Q)
    sb = B.support(Q)
    # unknowns: phi[p][q] = coefficient of target basis vector q in the
    # image of source basis vector p; nonzero only at matching vertices
    unknowns = [
        (p, q) for p in range(A.length) for q in range(B.length) if sa[p] == sb[q]
    ]
    index = {u: k for k, u in enumerate(unknowns)}
    rows: list[list[int]] = []
    # the arrow action shifts position p to p+1 and kills the socle; the
    # intertwiner condition phi(rho(e_p)) = rho(phi(e_p)) is compared
    # coefficientwise on the target basis.  Conditions at a vertex with no
    # outgoing arrow (linear quiver, last vertex) are vacuous because no
    # matching positions exist there.
    for p in range(A.length):
        for qq in range(B.length):
            coeffs = [0] * len(unknowns)
            if p + 1 < A.length and sa[p + 1] == sb[qq]:
                coeffs[index[(p + 1, qq)]] += 1
            if qq >= 1 and sa[p] == sb[qq - 1]:
                coeffs[index[(p, qq - 1)]] -= 1
            if any(coeffs):
                rows.append(coeffs)
    rank = rank_int(rows, len(unknowns))
    return len(unknowns) - rank


def partitions_count(n: int) -> int:
    # Euler recurrence via restricted parts table
    table = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            table[total] += table[total - part]
    return table[n]


def test_multisegment_string_roundtrip():
    M = parse_multisegment("(0,2)+(0,1)")
    assert str(M) == "(0,1)+(0,2)"  # canonical sort
    assert str(parse_multisegment(str(M))) == str(M)
    assert parse_multisegment("0").is_empty()
    assert str(parse_multisegment("0")) == "0"


def test_multisegment_rejects_malformed():
    for bad in ("(0,0)", "(0,1)+", "(0,1)(0,2)", "((0,1))", "0+0"):
        with pytest.raises(ValueError):
            parse_multisegment(bad)


def test_dim_vector_accumulates_support():
    A2 = parse_quiver("A2")
    M = parse_multisegment("(1,2)+(1,1)")
    # E(1,2) covers vertices 0 and 1 with socle at 1, E(1,1) sits at vertex 1
    assert tuple(M.dim_vector(A2)) == (1, 2)
    loop = parse_multisegment("(0,3)")
    assert tuple(loop.dim_vector(LOOP)) == (3,)


def test_segment_validity_respects_quiver_shape():
    # arrows feed the socle: E(i,l) is supported on the l vertices ending at i
    A2 = parse_quiver("A2")
    assert Segment(1, 2).valid_on(A2)
    assert not Segment(0, 2).valid_on(A2)  # nothing maps into vertex 0
    assert not Segment(1, 3).valid_on(A2)  # would run off the end of A2
    assert Segment(0, 7).valid_on(LOOP)  # wraps freely


def test_loop_quiver_classes_are_partitions():
    for d in range(1, 7):
        classes = enumerate_nilreps(LOOP, DimVector((d,)))
        assert len(classes) == partitions_count(d)
        assert sorted(str(M) for M in classes) == [str(M) for M in classes]


def test_enumerate_nilreps_dims_match():
    rng = random.Random(5)
    for _ in range(8):
        n = rng.randint(1, 3)
        Q = parse_quiver(rng.choice([f"A{n}", f"cyclic:{n}"]))
        d = DimVector(tuple(rng.randint(0, 2) for _ in range(n)))
        for M in enumerate_nilreps(Q, d):
            assert tuple(M.dim_vector(Q)) == tuple(d)


def test_enumerate_nilreps_zero_dim():
    classes = enumerate_nilreps(LOOP, DimVector((0,)))
    assert len(classes) == 1 and classes[0].is_empty()


def test_enumerate_nilreps_refuses_past_the_class_bound(monkeypatch):
    # the uncached function, so no earlier call answers from the cache
    enumerate_uncached = enumerate_nilreps.__wrapped__
    assert len(enumerate_uncached(LOOP, DimVector((20,)))) == partitions_count(20) == 627
    monkeypatch.setattr(nilrep, "MAX_STRATA", partitions_count(6))
    assert len(enumerate_uncached(LOOP, DimVector((6,)))) == partitions_count(6)
    with pytest.raises(ValueError, match="nilpotent classes"):
        enumerate_uncached(LOOP, DimVector((7,)))
    # one recursion level per chosen segment type: a remainder that no
    # longer segment fits is left without a level per segment type tried
    # (900 levels would pass the interpreter's recursion limit)
    monkeypatch.setattr(nilrep, "MAX_STRATA", 1)
    with pytest.raises(ValueError, match="nilpotent classes"):
        enumerate_uncached(LOOP, DimVector((900,)))


def test_hom_dim_jordan_blocks():
    for l in range(1, 6):
        for m in range(1, 6):
            A, B = Segment(0, l), Segment(0, m)
            assert hom_dim(LOOP, A, B) == min(l, m)


def test_hom_dim_equals_intertwiner_oracle_everywhere():
    # closed form against the linear-system rank, all pairs length <= 5
    for spec in ("A1", "A2", "A3", "cyclic:1", "cyclic:2", "cyclic:3"):
        Q = parse_quiver(spec)
        segs = [Segment(i, l) for i in range(Q.n) for l in range(1, 6)
                if Segment(i, l).valid_on(Q)]
        for A in segs:
            for B in segs:
                assert hom_dim(Q, A, B) == intertwiner_dim(Q, A, B), (spec, A, B)


def test_orbit_dim_via_endomorphisms():
    # dim O_M = dim G - dim Stab = sum_v d_v^2 - dim End(M);
    # Aut(M) is open in End(M), so the stabilizer dimension is the End dimension
    rng = random.Random(17)
    for _ in range(10):
        n = rng.randint(1, 3)
        Q = parse_quiver(rng.choice([f"A{n}", f"cyclic:{n}"]))
        d = DimVector(tuple(rng.randint(0, 2) for _ in range(n)))
        for M in enumerate_nilreps(Q, d):
            end = sum(hom_dim(Q, A, B) for A in M.segments for B in M.segments)
            assert orbit_dim(Q, M) == sum(x * x for x in d) - end


def test_semisimple_class_is_all_length_one():
    M = semisimple_class(LOOP, DimVector((3,)))
    assert str(M) == "(0,1)+(0,1)+(0,1)"
    assert M.is_semisimple()
    A2 = parse_quiver("A2")
    assert str(semisimple_class(A2, DimVector((1, 2)))) == "(0,1)+(1,1)+(1,1)"


def test_socle_and_quotient_regular_nilpotent():
    # regular nilpotent on the loop: socle is one line, quotient drops length by 1
    M = parse_multisegment("(0,3)")
    sb = socle_basis(LOOP, M)
    assert len(sb) == 1 and len(sb[0]) == 1
    N = quotient_by_socles(LOOP, M, [[0]])
    assert str(N) == "(0,2)"


def test_quotient_by_socles_partial_choice():
    M = parse_multisegment("(0,2)+(0,1)")
    sb = socle_basis(LOOP, M)
    assert [len(group) for group in sb] == [2]
    # quotient by the full socle of the length-2 segment only
    full = quotient_by_socles(LOOP, M, [[0, 1]])
    assert tuple(full.dim_vector(LOOP)) == (1,)


def test_aut_series_exponents_are_multiplicities():
    # Aut of a sum of E_k^{m_k} retracts onto the product of GL_{m_k};
    # the exponents are the multiplicities m_k
    M = parse_multisegment("(0,1)+(0,1)")
    assert aut_series_exponents(M) == [2]
    single = parse_multisegment("(0,4)")
    assert aut_series_exponents(single) == [1]
    mixed = parse_multisegment("(0,1)+(0,2)")
    assert aut_series_exponents(mixed) == [1, 1]


def test_orbit_stratification_exhausts_rep_space():
    # top stratum: some orbit has dimension equal to a known open-orbit count
    M = parse_multisegment("(0,2)+(0,1)")
    assert orbit_dim(LOOP, M) == 4  # subregular in gl_3: 9 - 3 - 2
    reg = parse_multisegment("(0,3)")
    assert orbit_dim(LOOP, reg) == 6  # regular: n^2 - n
