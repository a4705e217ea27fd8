"""Affine pavings of quiver flag varieties and point counts.

The variety $Fl(M, \\underline{d})$ of strictly $\\rho$-stable flags
admits a paving by affine cells, so its Poincaré polynomial in $q$
both lists the cells by dimension and counts its points over $F_q$:
$|Fl(M,\\underline{d})(F_q)| = \\sum_c q^{\\dim c}$.

count_points brute-forces flags over the actual finite field and
shares no code with the paving recursion; agreement between the two is
the load-bearing check here.
"""

from __future__ import annotations

import itertools
import random
import sys
from math import factorial

import pytest

from quiverchow.cli import SUITE_QUIVERS, paving_oracle_cases
from quiverchow.linalg import rref_fractions, solve_exact
from quiverchow.nilrep import enumerate_nilreps, parse_multisegment, semisimple_class
from quiverchow import paving
from quiverchow.paving import (
    CellSet,
    EchelonForms,
    FqGraph,
    _MatRep,
    _rref_matrices,
    count_points,
    is_prime,
    paving_cells,
)
from quiverchow.quiver import (
    Composition,
    DimVector,
    enumerate_compositions,
    parse_composition,
    parse_quiver,
)


LOOP = parse_quiver("cyclic:1")


def test_zero_representation_gives_classical_flags():
    # rho = 0 imposes nothing: Fl(M, d) is the classical partial flag variety
    M = semisimple_class(LOOP, DimVector((2,)))
    P = paving_cells(LOOP, M, parse_composition("1;1", 1))
    assert dict(P.counts) == {0: 1, 1: 1}  # P^1
    G = paving_cells(LOOP, semisimple_class(LOOP, DimVector((3,))),
                     parse_composition("1;2", 1))
    assert dict(G.counts) == {0: 1, 1: 1, 2: 1}  # Gr(1,3) = P^2
    # complete flags in k^n: cells counted by inversions, the Mahonian
    # numbers, i.e. the coefficients of [n]_q! = prod_k (1 + q + ... + q^{k-1})
    mahonian = [1]
    for n in range(1, 8):
        grown = [0] * (len(mahonian) + n - 1)
        for e, c in enumerate(mahonian):
            for k in range(n):
                grown[e + k] += c
        mahonian = grown
        if n < 4:
            continue
        cells = paving_cells(LOOP, semisimple_class(LOOP, DimVector((n,))),
                             parse_composition(";".join(["1"] * n), 1))
        assert cells.counts == tuple(enumerate(mahonian)), n
        assert cells.cell_count == factorial(n)
        assert len(cells.dims) == factorial(n)
        assert list(cells.dims) == sorted(cells.dims)


def test_subregular_fiber_poincare_and_counts():
    M = parse_multisegment("(0,2)+(0,1)")
    comp = parse_composition("1;1;1", 1)
    P = paving_cells(LOOP, M, comp)
    assert dict(P.counts) == {0: 1, 1: 2}
    assert count_points(LOOP, M, comp, 2) == 5
    assert count_points(LOOP, M, comp, 3) == 7
    assert P.evaluate(2) == 5 and P.evaluate(3) == 7


def test_regular_nilpotent_fiber_is_a_point():
    M = parse_multisegment("(0,3)")
    P = paving_cells(LOOP, M, parse_composition("1;1;1", 1))
    assert dict(P.counts) == {0: 1}
    assert count_points(LOOP, M, parse_composition("1;1;1", 1), 5) == 1


def test_empty_composition_of_zero_class():
    M = parse_multisegment("0")
    P = paving_cells(LOOP, M, Composition(()))
    assert dict(P.counts) == {0: 1}
    assert P.cell_count == 1
    assert count_points(LOOP, M, Composition(()), 2) == 1


def test_cellset_records_dimensions():
    cells = paving_cells(LOOP, parse_multisegment("(0,2)+(0,1)"),
                         parse_composition("1;1;1", 1))
    assert sorted(cells.dims) == [0, 1, 1]
    assert cells.cell_count == 3
    assert not cells.is_empty_variety()


def test_unreachable_flag_type_paves_empty():
    # one-step flag on the regular class: stability forces rho = 0, impossible
    M = parse_multisegment("(0,2)")
    comp = parse_composition("2", 1)
    cells = paving_cells(LOOP, M, comp)
    assert cells.is_empty_variety()
    assert paving_cells(LOOP, M, comp).cell_count == 0
    assert count_points(LOOP, M, comp, 2) == 0


def test_mismatched_total_dimension_rejected():
    M = parse_multisegment("(0,3)")
    with pytest.raises(ValueError):
        paving_cells(LOOP, M, parse_composition("1;1", 1))


def test_poincare_equals_point_count_randomized():
    # small random spot checks; the exhaustive sweep lives in the acceptance suite
    rng = random.Random(7)
    specs = ["A1", "A2", "cyclic:1", "cyclic:2"]
    for _ in range(6):
        Q = parse_quiver(rng.choice(specs))
        d = DimVector(tuple(rng.randint(0, 2) for _ in range(Q.n)))
        if d.total > 3:
            continue
        for M in enumerate_nilreps(Q, d):
            for comp in enumerate_compositions(d):
                P = paving_cells(Q, M, comp)
                for q in (2, 3):
                    assert P.evaluate(q) == count_points(Q, M, comp, q), (
                        str(Q), str(M), str(comp), q)


def _naive_f2_count(Q, M, comp) -> int:
    """Strictly lowering flags of type comp in M over F_2, by listing every
    chain of graded subspaces.  Vectors are bitmasks; M is written out as
    shift matrices here, without the oracle's matrix code."""
    dims = [0] * Q.n
    images: dict[tuple[int, int], dict[int, int]] = {a: {} for a in Q.arrows()}
    for seg in M.segments:
        supp = seg.support(Q)  # head first, socle last
        index = []
        for v in supp:
            index.append(dims[v])
            dims[v] += 1
        for pos in range(len(supp) - 1):
            arrow = (supp[pos], supp[pos + 1])
            images[arrow][index[pos]] = 1 << index[pos + 1]

    def apply(arrow, vec):
        out = 0
        for i, img in images[arrow].items():
            if vec >> i & 1:
                out ^= img
        return out

    def subspaces(d):
        found = {frozenset([0])}
        for gens in itertools.chain.from_iterable(
                itertools.combinations(range(1, 2 ** d), k) for k in range(d + 1)):
            span = {0}
            for g in gens:
                span |= {x ^ g for x in span}
            found.add(frozenset(span))
        return found

    spaces = [subspaces(d) for d in dims]

    def chains(prev, j, level):
        if j == len(comp.parts):
            return 1
        level = [a + b for a, b in zip(level, comp.parts[j])]
        total = 0
        for graded in itertools.product(*(
                [U for U in spaces[v] if len(U) == 2 ** level[v] and prev[v] <= U]
                for v in Q.vertices)):
            if all(apply((s, t), x) in prev[t]
                   for (s, t) in Q.arrows() for x in graded[s]):
                total += chains(graded, j + 1, level)
        return total

    return chains([frozenset([0])] * Q.n, 0, [0] * Q.n)


def test_count_points_matches_naive_chain_enumeration_over_f2():
    # a third side for the oracle: every chain of graded subspaces over F_2,
    # with the arrow condition checked on each vector
    checked = 0
    for spec in ("A2", "cyclic:1"):
        Q = parse_quiver(spec)
        for total in range(1, 4):
            for d in itertools.product(range(total + 1), repeat=Q.n):
                if sum(d) != total:
                    continue
                dv = DimVector(d)
                for M in enumerate_nilreps(Q, dv):
                    for comp in enumerate_compositions(dv):
                        assert _naive_f2_count(Q, M, comp) == count_points(
                            Q, M, comp, 2), (spec, str(M), str(comp))
                        checked += 1
    assert checked > 50


def _reference_quotient(rep, sub_bases):
    """The quotient by solving: each image of a complement vector (a
    standard vector off the subspace's pivot columns) is solved with
    `solve_exact` in the basis (subspace vectors, complement vectors), and
    its complement coordinates are the quotient column."""
    p = rep.p
    complements, full_bases = [], []
    for v in rep.Q.vertices:
        d = rep.dims[v]
        _, pivots = rref_fractions(sub_bases[v], p)
        comp = [[int(i == j) for i in range(d)] for j in range(d) if j not in pivots]
        complements.append(comp)
        full_bases.append([list(u) for u in sub_bases[v]] + comp)
    mats = {}
    for (s, t), mat in rep.mats.items():
        cols = []
        for cvec in complements[s]:
            img = [sum(a * b for a, b in zip(row, cvec)) % p for row in mat]
            coords = solve_exact(full_bases[t], img, p)
            assert coords is not None
            cols.append(coords[len(sub_bases[t]):])
        mats[(s, t)] = [[col[i] for col in cols] for i in range(len(complements[t]))]
    return [len(c) for c in complements], mats


def _random_socle_subspace(rep, rng):
    """A random graded subspace of the socle kernel, drawn as the oracle
    draws its first steps: a reduced echelon matrix over the kernel basis."""
    sub = []
    for v, kernel in enumerate(rep.socle_kernels()):
        rmat = rng.choice(list(_rref_matrices(rng.randint(0, len(kernel)),
                                              len(kernel), rep.p)))
        sub.append([
            [sum(row[a] * kernel[a][i] for a in range(len(kernel))) % rep.p
             for i in range(rep.dims[v])]
            for row in rmat
        ])
    return sub


def test_quotient_matches_the_full_basis_solve():
    rng = random.Random(16)
    cases = [("A2", (2, 1)), ("A3", (1, 2, 1)), ("cyclic:1", (3,)),
             ("cyclic:2", (2, 2)), ("cyclic:3", (1, 1, 2))]
    wrapping = compared = 0
    for q in (2, 3, 5):
        for spec, d in cases:
            Q = parse_quiver(spec)
            for M in enumerate_nilreps(Q, DimVector(d)):
                wrapping += spec.startswith("cyclic") and any(
                    seg.length > Q.n for seg in M.segments)
                for _ in range(3):
                    # quotients of quotients carry entries other than 0 and 1
                    rep = _MatRep.from_multisegment(Q, M, q)
                    while any(rep.dims):
                        sub = _random_socle_subspace(rep, rng)
                        got = rep.quotient(sub)
                        assert (got.dims, got.mats) == _reference_quotient(rep, sub), (
                            spec, str(M), q, sub)
                        compared += 1
                        rep = got
    assert wrapping > 0
    assert compared > 500


def test_poincare_polynomial_accessors():
    M = parse_multisegment("(0,2)+(0,1)")
    P = paving_cells(LOOP, M, parse_composition("1;1;1", 1))
    assert P.counts == ((0, 1), (1, 2))
    assert P.cell_count == 3
    assert P.evaluate(1) == 3  # Euler characteristic
    assert str(P) == "1 + 2*q"
    assert str(CellSet(((0, 1), (1, 1), (2, 3)))) == "1 + q + 3*q^2"
    assert str(CellSet(())) == "0" and CellSet(()).evaluate(5) == 0


def test_is_prime():
    assert [p for p in range(2, 20) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert not is_prime(1) and not is_prime(0) and not is_prime(9)


def test_count_points_rejects_nonprime_field_size():
    M = parse_multisegment("(0,2)")
    with pytest.raises(ValueError):
        count_points(LOOP, M, parse_composition("1;1", 1), 4)


def test_shared_oracle_counts_equal_fresh_counts():
    # one graph per (M, q) serves every composition, in the reverse order,
    # so later counts read nodes, children and counts left by earlier
    # compositions; every count also equals the paving at q, on every class
    # up to total 4 of the suite quivers
    compared = 0
    for spec in SUITE_QUIVERS:
        Q = parse_quiver(spec)
        for d in itertools.product(range(5), repeat=Q.n):
            dv = DimVector(d)
            if not 0 < dv.total <= 4:
                continue
            comps = list(enumerate_compositions(dv))[::-1]
            for M in enumerate_nilreps(Q, dv):
                for q in (2, 3, 5):
                    graph = FqGraph(Q, q)
                    shared = [count_points(Q, M, c, q, graph) for c in comps]
                    fresh = [count_points(Q, M, c, q) for c in comps]
                    paved = [paving_cells(Q, M, c).evaluate(q) for c in comps]
                    assert shared == fresh == paved, (spec, str(M), q)
                    compared += len(comps)
    assert compared > 10_000


def _node_key(rep):
    return rep.Q, rep.p, tuple(rep.dims), tuple(
        x for mat in rep.mats.values() for row in mat for x in row)


def test_socle_kernels_once_per_distinct_node(monkeypatch):
    # a sweep holds one graph per (quiver, q), so (quiver, q, dims, entries)
    # tells its nodes apart: over the whole sweep, not only within a case,
    # no node's socle kernels and no quotient by one of its echelon first
    # steps is formed twice
    kernels, quotients = [], []
    real_kernels, real_quotient = _MatRep.socle_kernels, _MatRep.quotient

    def counted_kernels(rep):
        kernels.append(_node_key(rep))
        return real_kernels(rep)

    def counted_quotient(rep, sub_bases):
        quotients.append(_node_key(rep) + (repr(sub_bases),))
        return real_quotient(rep, sub_bases)

    monkeypatch.setattr(_MatRep, "socle_kernels", counted_kernels)
    monkeypatch.setattr(_MatRep, "quotient", counted_quotient)
    for name, check in paving_oracle_cases(3):
        assert check()[0], name
    assert len(set(kernels)) == len(kernels)
    assert all(any(key[3]) for key in kernels)
    # every first step of a node is enumerated once, after its kernels
    assert len(set(quotients)) == len(quotients)
    assert {key[:4] for key in quotients} <= set(kernels)
    assert (len(kernels), len(quotients)) == (114, 309)


def test_each_class_is_materialized_once_per_graph(monkeypatch):
    # a graph keeps the top node of each M, so the compositions of a class,
    # and the subregular case after its class, share one materialization
    made = []
    real = _MatRep.from_multisegment

    def counted(Q, M, p):
        made.append((str(Q), str(M), p))
        return real(Q, M, p)

    monkeypatch.setattr(_MatRep, "from_multisegment", staticmethod(counted))
    cases = paving_oracle_cases(3)
    for name, check in cases:
        assert check()[0], name
    assert len(made) == len(set(made)) == 3 * (len(cases) - 1)


def test_oracle_for_another_rep_or_field_is_refused():
    # a graph serves every M of its (Q, q), each from its own top node; an M
    # of another dimension than the composition's target is refused
    M = parse_multisegment("(0,2)+(0,1)")
    comp = parse_composition("1;1;1", 1)
    graph = FqGraph(LOOP, 3)
    assert count_points(LOOP, M, comp, 3, graph) == 7
    other = parse_multisegment("(0,3)")
    assert count_points(LOOP, other, comp, 3, graph) == count_points(LOOP, other, comp, 3) == 1
    assert count_points(LOOP, M, comp, 3, graph) == 7
    assert set(graph._tops) == {M, other}
    with pytest.raises(ValueError, match="dimension mismatch"):
        count_points(LOOP, parse_multisegment("(0,2)"), comp, 3, graph)


def test_graph_of_another_quiver_or_field_is_refused():
    M = parse_multisegment("(0,2)+(0,1)")
    comp = parse_composition("1;1;1", 1)
    graph = FqGraph(LOOP, 3)
    assert count_points(LOOP, M, comp, 3, graph) == 7
    with pytest.raises(ValueError, match="graph built for"):
        count_points(LOOP, M, comp, 2, graph)
    with pytest.raises(ValueError, match="graph built for"):
        count_points(parse_quiver("cyclic:2"), parse_multisegment("(0,1)"),
                     parse_composition("1,0", 2), 3, graph)
    with pytest.raises(ValueError):
        FqGraph(LOOP, 4)
    with pytest.raises(ValueError):
        FqGraph(LOOP, 3, EchelonForms(2))
    with pytest.raises(ValueError):
        EchelonForms(4)
    assert FqGraph(LOOP, 3, graph.echelons).echelons is graph.echelons


def test_shared_graph_counts_equal_fresh_counts():
    # one graph per (Q, q) serves every class, so later classes read nodes,
    # children and counts that earlier classes left
    compared = 0
    for spec, d in (("A3", (1, 2, 1)), ("cyclic:3", (2, 1, 1))):
        Q = parse_quiver(spec)
        dv = DimVector(d)
        comps = list(enumerate_compositions(dv))
        classes = list(enumerate_nilreps(Q, dv))
        for q in (2, 3, 5):
            graph = FqGraph(Q, q)
            for M in classes:
                shared = [count_points(Q, M, c, q, graph) for c in comps]
                fresh = [count_points(Q, M, c, q) for c in comps]
                assert shared == fresh, (spec, str(M), q)
                compared += len(comps)
            assert len(graph._nodes) > len(classes)
    assert compared > 1000


def test_one_echelon_list_per_grassmannian_per_field(monkeypatch):
    # a sweep holds one graph per (quiver, q) and one EchelonForms per q,
    # so the echelon forms of each Gr(k, m) over F_q are enumerated once
    # for every quiver, for their steps and their point counts
    calls = []
    real = paving._rref_matrices

    def counted(k, m, p):
        store = sys._getframe(1).f_locals["self"]
        assert isinstance(store, EchelonForms) and store.q == p
        calls.append((store, k, m))
        return real(k, m, p)

    monkeypatch.setattr(paving, "_rref_matrices", counted)
    for name, check in paving_oracle_cases(3):
        assert check()[0], name
    assert len({(store.q, k, m) for store, k, m in calls}) == len(calls)
    assert sorted({id(store): store.q for store, _, _ in calls}.values()) == [2, 3, 5]
    assert len(calls) == 24


def test_one_part_counts_one_exactly_on_semisimple_classes():
    # a one-step flag is the whole space, strictly lowering only when every
    # arrow acts by zero, i.e. every segment has length 1
    seen = set()
    for spec, d in (("A3", (1, 1, 1)), ("cyclic:2", (2, 1)), ("cyclic:1", (3,))):
        Q = parse_quiver(spec)
        dv = DimVector(d)
        comp = Composition((dv,))
        for M in enumerate_nilreps(Q, dv):
            semisimple = all(seg.length == 1 for seg in M.segments)
            for q in (2, 3):
                assert count_points(Q, M, comp, q) == int(semisimple), (spec, str(M), q)
            seen.add(semisimple)
    assert seen == {True, False}


def test_semisimple_counts_equal_the_paving_at_q():
    # every arrow of a semisimple class acts by zero, so the oracle counts
    # the first steps without forming them and one quotient once; one
    # graph per (M, q) serves every composition
    compared = 0
    for spec in ("A1", "A2", "A3", "cyclic:1", "cyclic:2", "cyclic:3"):
        Q = parse_quiver(spec)
        for d in itertools.product(range(4), repeat=Q.n):
            dv = DimVector(d)
            if not 0 < dv.total <= 4:
                continue
            M = semisimple_class(Q, dv)
            comps = list(enumerate_compositions(dv))
            for q in (2, 3, 5):
                graph = FqGraph(Q, q)
                for c in comps:
                    want = paving_cells(Q, M, c).evaluate(q)
                    assert count_points(Q, M, c, q, graph) == want, (spec, d, str(c), q)
                    compared += 1
    assert compared > 1000
    # the largest flag type `count` accepts on four points of the loop
    M = parse_multisegment("(0,1)+(0,1)+(0,1)+(0,1)")
    comp = parse_composition("2;2", 1)
    assert count_points(LOOP, M, comp, 17) == paving_cells(LOOP, M, comp).evaluate(17) == 89_030
