"""Exact linear algebra over the integers, the rationals and F_p."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from quiverchow.linalg import kernel_basis, rank_int, rref_fractions, solve_exact


def test_rank_known_matrices():
    assert rank_int([[1, 0], [0, 1]], 2) == 2
    assert rank_int([[1, 2], [2, 4]], 2) == 1
    assert rank_int([[0, 0], [0, 0]], 2) == 0
    assert rank_int([], 3) == 0
    # wide and tall
    assert rank_int([[1, 2, 3]], 3) == 1
    assert rank_int([[1], [2], [3]], 1) == 1


def test_rank_survives_large_entries():
    # gcd normalization must keep intermediate entries bounded
    rows = [[10**12, 1, 0], [0, 10**12, 1], [1, 0, 10**12]]
    assert rank_int(rows, 3) == 3


def test_kernel_over_q_complements_fraction_free_rank():
    # rank_int (fraction-free) and kernel_basis (Fractions) are computed
    # independently; rank plus nullity must be the width
    rng = random.Random(23)
    for _ in range(20):
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        rows = [[rng.randint(-4, 4) for _ in range(c)] for _ in range(r)]
        assert rank_int([row[:] for row in rows], c) + len(
            kernel_basis([row[:] for row in rows], c)) == c


def test_rref_pivot_columns():
    mat, pivots = rref_fractions([[2, 4, 0], [1, 2, 1]])
    assert pivots == [0, 2]
    assert mat[0][0] == 1 and mat[0][1] == 2
    assert mat[1][2] == 1


def test_solve_exact_consistent_system():
    # columns c1, c2 with rhs = 3 c1 - 2 c2
    c1, c2 = [1, 0, 2], [0, 1, 1]
    rhs = [3, -2, 4]
    sol = solve_exact([c1, c2], rhs)
    assert sol == [Fraction(3), Fraction(-2)]


def test_solve_exact_inconsistent_returns_none():
    assert solve_exact([[1, 1]], [1, 2]) is None
    assert solve_exact([[1, 0, 0], [0, 1, 0]], [0, 0, 1]) is None


def test_solve_exact_rejects_ragged_shapes():
    with pytest.raises(ValueError):
        solve_exact([[1, 0], [0, 1]], [0, 0, 1])


def test_solve_exact_rational_solution():
    sol = solve_exact([[2, 0], [0, 3]], [1, 1])
    assert sol == [Fraction(1, 2), Fraction(1, 3)]


def test_solve_exact_random_roundtrip():
    rng = random.Random(41)
    for _ in range(25):
        rows, cols = rng.randint(1, 5), rng.randint(1, 4)
        columns = [[rng.randint(-3, 3) for _ in range(rows)] for _ in range(cols)]
        coeffs = [rng.randint(-3, 3) for _ in range(cols)]
        rhs = [sum(c * col[r] for c, col in zip(coeffs, columns))
               for r in range(rows)]
        sol = solve_exact(columns, rhs)
        assert sol is not None
        rebuilt = [sum(c * col[r] for c, col in zip(sol, columns))
                   for r in range(rows)]
        assert rebuilt == [Fraction(v) for v in rhs]


PRIMES = (2, 3, 5)


def _mul(rows, vec, p=None):
    out = [sum(a * b for a, b in zip(row, vec)) for row in rows]
    return out if p is None else [x % p for x in out]


def test_rref_over_small_prime_fields():
    # [[1, 1, 0], [1, 0, 1]]: over F_2 the rows reduce to [1,0,1], [0,1,1]
    mat, pivots = rref_fractions([[1, 1, 0], [1, 0, 1]], 2)
    assert (mat, pivots) == ([[1, 0, 1], [0, 1, 1]], [0, 1])
    # [[1, 2], [2, 1]] has determinant -3: rank 1 over F_3, rank 2 over F_5
    assert rref_fractions([[1, 2], [2, 1]], 3) == ([[1, 2]], [0])
    assert rref_fractions([[1, 2], [2, 1]], 5) == ([[1, 0], [0, 1]], [0, 1])
    # the pivot is scaled by its inverse mod p and entries land in [0, p)
    assert rref_fractions([[3, 4, -1]], 5) == ([[1, 3, 3]], [0])
    assert rref_fractions([[0, 2, 4], [0, 0, 0]], 2) == ([], [])
    assert rref_fractions([], 3) == ([], [])


def test_kernel_basis_is_annihilated_and_has_the_right_size():
    rng = random.Random(7)
    for p in PRIMES + (None,):
        for _ in range(30):
            r, c = rng.randint(0, 5), rng.randint(1, 5)
            rows = [[rng.randrange(-4, 5) for _ in range(c)] for _ in range(r)]
            basis = kernel_basis(rows, c, p)
            _, pivots = rref_fractions(rows, p)
            assert len(basis) == c - len(pivots)
            for vec in basis:
                assert len(vec) == c
                assert not any(_mul(rows, vec, p))
                if p is not None:
                    assert all(0 <= x < p for x in vec)


def test_kernel_basis_of_no_rows_is_the_standard_basis():
    assert kernel_basis([], 2, 3) == [[1, 0], [0, 1]]


def test_solve_exact_over_small_prime_fields():
    # consistent and random right-hand sides; the span is listed by brute
    # force over all p^width coefficient vectors
    rng = random.Random(11)
    for p in PRIMES:
        for trial in range(40):
            height, width = rng.randint(1, 5), rng.randint(1, 4)
            columns = [[rng.randrange(p) for _ in range(height)]
                       for _ in range(width)]

            def combine(coeffs):
                return [sum(c * col[i] for c, col in zip(coeffs, columns)) % p
                        for i in range(height)]

            span = {tuple(combine(cs))
                    for cs in itertools.product(range(p), repeat=width)}
            if trial % 2:
                rhs = [rng.randrange(p) for _ in range(height)]
            else:
                rhs = combine([rng.randrange(p) for _ in range(width)])
            sol = solve_exact(columns, rhs, p)
            if tuple(rhs) not in span:
                assert sol is None
                continue
            assert sol is not None and all(0 <= x < p for x in sol)
            assert combine(sol) == rhs


def test_solve_exact_over_prime_fields_reports_inconsistency():
    # the same system is consistent over Q and inconsistent over F_2, F_3
    assert solve_exact([[2]], [1]) == [Fraction(1, 2)]
    assert solve_exact([[2]], [1], 2) is None
    assert solve_exact([[1, 1]], [1, 2], 5) is None
    assert solve_exact([[3, 0], [0, 3]], [1, 1], 3) is None
    assert solve_exact([[3, 0], [0, 3]], [1, 1], 5) == [2, 2]
    assert solve_exact([], [0, 3], 3) == []
    assert solve_exact([], [0, 1], 3) is None
