"""Truncated Laurent series in $u$ with exact integer coefficients.

A HalfLaurentSeries stores finitely many exponents below zero and a
truncation order above; arithmetic tracks the tightest valid
truncation.  The graded dimension of $BGL_m$ is the generating
function $\\prod_{k=1}^{m} (1-u^{2k})^{-1}$, whose coefficients count
partitions with at most $m$ part sizes.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from quiverchow.series import (
    DEFAULT_TRUNC,
    INF,
    HalfLaurentSeries,
    bgl,
    first_discrepancy,
    times_bgl,
)


def test_monomial_and_coefficient():
    s = HalfLaurentSeries.monomial(-2, 3)
    assert s.coefficient(-2) == 3
    assert s.coefficient(0) == 0
    assert HalfLaurentSeries.one().coefficient(0) == 1


def test_add_and_scale_exact():
    a = HalfLaurentSeries.from_map({0: 1, 2: 4}, trunc=10)
    b = HalfLaurentSeries.from_map({2: -4, 4: 1}, trunc=10)
    c = a.add(b)
    assert c.coefficient(2) == 0
    assert c.coefficient(4) == 1
    assert a.scale(-2).coefficient(2) == -8


def test_mul_truncation_is_tightest_valid():
    # multiplying by u^{-2} must lower the reliable truncation by 2
    a = HalfLaurentSeries.from_map({0: 1, 1: 1}, trunc=5)
    shift = HalfLaurentSeries.monomial(-2)
    prod = a.mul(shift)
    assert prod.trunc == 3
    assert prod.coefficient(-2) == 1


def test_geometric_series_inverse():
    # (1 - u^2) * sum u^{2k} = 1 up to the truncation order
    geom = bgl(1, trunc=20)
    one_minus = HalfLaurentSeries.from_map({0: 1, 2: -1}, trunc=INF)
    prod = geom.mul(one_minus)
    assert first_discrepancy(prod, HalfLaurentSeries.one().truncate(20)) is None


def test_bgl_counts_bounded_partitions():
    # coefficient of u^{2j} in bgl(m) counts partitions of j with parts <= m
    table = [1] + [0] * 12
    for part in range(1, 3):
        for total in range(part, 13):
            table[total] += table[total - part]
    series = bgl(2, trunc=24)
    for j in range(13):
        assert series.coefficient(2 * j) == table[j]
    for j in range(12):
        assert series.coefficient(2 * j + 1) == 0


def test_pow_matches_repeated_mul():
    rng = random.Random(3)
    base = HalfLaurentSeries.from_map(
        {e: rng.randint(-3, 3) for e in range(-2, 6)}, trunc=12)
    acc = HalfLaurentSeries.one()
    for k in range(4):
        assert first_discrepancy(base.pow(k), acc) is None
        acc = acc.mul(base)


def test_shifted_equals_mul_by_a_monomial_then_truncate():
    # the same series, tuple and window as the product, on exact, truncated,
    # zero and Fraction-valued inputs, for shifts of either sign
    rng = random.Random(5)
    inputs = [HalfLaurentSeries.zero(), HalfLaurentSeries.zero().truncate(3),
              HalfLaurentSeries.from_map({-1: Fraction(1, 2), 2: 3}, trunc=6), bgl(2, 9)]
    inputs += [HalfLaurentSeries.from_map({e: rng.randint(-2, 2) for e in range(-3, 8)},
                                          trunc=rng.choice([INF, 4, 7])) for _ in range(6)]
    for s in inputs:
        for k in (-4, -1, 0, 2, 6):
            for trunc in (INF, -2, 3, 10):
                want = s.mul(HalfLaurentSeries.monomial(k)).truncate(trunc)
                got = s.shifted(k, trunc)
                assert (got.coeffs, got.trunc) == (want.coeffs, want.trunc), (s, k, trunc)


def test_truncate_discards_high_terms():
    s = HalfLaurentSeries.from_map({0: 1, 6: 5}, trunc=10)
    t = s.truncate(4)
    assert t.trunc == 4
    assert t.coefficient(6) == 0
    # truncation is monotone: re-truncating higher does not resurrect terms
    assert t.truncate(10).trunc == 4


def test_first_discrepancy_finds_lowest_mismatch():
    a = HalfLaurentSeries.from_map({0: 1, 2: 2, 4: 3}, trunc=8)
    b = HalfLaurentSeries.from_map({0: 1, 2: 5, 4: 9}, trunc=8)
    assert first_discrepancy(a, b) == 2
    assert first_discrepancy(a, a) is None


def test_first_discrepancy_at_an_exponent_only_one_series_has():
    # u^-2 is in b alone and u^6 in a alone; the lower one is the answer,
    # in either order, and a term above the common window does not count
    a = HalfLaurentSeries.from_map({0: 1, 2: 2, 6: 1}, trunc=8)
    b = HalfLaurentSeries.from_map({-2: 3, 0: 1, 2: 2}, trunc=8)
    assert first_discrepancy(a, b) == -2
    assert first_discrepancy(b, a) == -2
    c = HalfLaurentSeries.from_map({0: 1, 2: 2}, trunc=8)
    assert first_discrepancy(a, c) == 6
    assert first_discrepancy(c, a) == 6
    assert first_discrepancy(a, c.truncate(4)) is None
    assert first_discrepancy(HalfLaurentSeries.zero(), c) == 0


def test_agreement_respects_common_truncation():
    # series equal below the tighter truncation agree, whatever lies above it
    a = HalfLaurentSeries.from_map({0: 1, 2: 1}, trunc=2)
    b = HalfLaurentSeries.from_map({0: 1, 2: 1, 4: 99}, trunc=8)
    assert first_discrepancy(a, b) is None


def test_default_truncation_order():
    assert DEFAULT_TRUNC == 24
    assert bgl(1).trunc == 24


def test_zero_and_one_identities():
    z = HalfLaurentSeries.zero()
    s = bgl(2, trunc=10)
    assert first_discrepancy(s.add(z), s) is None
    assert first_discrepancy(s.mul(HalfLaurentSeries.one()), s) is None
    assert z.mul(s).is_zero()
    assert not s.is_zero()


def _times_bgl_by_mul(coeffs, ms, N):
    """The same product by series multiplication: the exact polynomial
    times one bgl(m) series per m, each truncated where it still decides
    the coefficients up to u^N."""
    poly = HalfLaurentSeries.from_map(coeffs)
    if poly.is_zero():
        return {}
    factors = HalfLaurentSeries.one().truncate(N - poly.min_exp)
    for m in ms:
        factors = factors.mul(bgl(m, N - poly.min_exp))
    return poly.mul(factors).truncate(N).as_map()


def test_times_bgl_matches_series_multiplication():
    rng = random.Random(12)
    ms_choices = ([], [1], [1] * 4, [3], [2, 1], [3, 2, 2, 1], [5])
    checked = 0
    for _ in range(60):
        low = rng.randint(-9, 4)
        coeffs = {e: rng.randint(-5, 5) for e in range(low, low + rng.randint(1, 9))}
        coeffs[low] = rng.choice([-3, -1, 1, 2])
        for ms in ms_choices:
            for N in (0, low - 1, low, low + 1, 7, 20):
                got = times_bgl(coeffs, ms, N)
                assert got == _times_bgl_by_mul(coeffs, ms, N), (coeffs, ms, N)
                assert all(e <= N and c for e, c in got.items())
                checked += 1
    assert checked == 60 * 7 * 6


def test_times_bgl_edge_cases():
    assert times_bgl({}, [1, 2], 10) == {}
    # a zero entry below the lowest term changes nothing
    assert times_bgl({-4: 0, 1: 1}, [1], 5) == {1: 1, 3: 1, 5: 1}
    # lowest exponent above N: nothing is exact yet
    assert times_bgl({3: 1, 5: 2}, [1], 2) == {}
    # N = 0 keeps only the constant term and what lies below it
    assert times_bgl({-2: 1, 0: 1, 2: 1}, [1], 0) == {-2: 1, 0: 2}
    # no factor: the polynomial cut at N, cancelled terms dropped
    assert times_bgl({-1: 4, 1: 0, 3: -2, 9: 1}, [], 5) == {-1: 4, 3: -2}
    # odd exponents stay on their own residue class
    assert times_bgl({1: 1}, [1], 7) == {1: 1, 3: 1, 5: 1, 7: 1}
    # bgl(2) counts partitions into parts <= 2
    assert times_bgl({0: 1}, [2], 10) == {0: 1, 2: 1, 4: 2, 6: 2, 8: 3, 10: 3}


def test_times_bgl_is_linear_in_the_polynomial():
    # the product is linear in the polynomial at every truncation, also
    # below the lowest exponent of either summand
    rng = random.Random(7)

    def add(x, y):
        out = dict(x)
        for e, c in y.items():
            out[e] = out.get(e, 0) + c
        return {e: c for e, c in out.items() if c}

    for _ in range(40):
        a = {rng.randint(-10, 6): rng.randint(-4, 4) or 1 for _ in range(rng.randint(1, 5))}
        b = {rng.randint(-10, 6): rng.randint(-4, 4) or 1 for _ in range(rng.randint(1, 5))}
        low = min(min(a), min(b))
        for ms in ([], [1], [2, 1], [3, 1, 1]):
            for N in (low - 3, low - 1, low, low + 1, 0, 5, 18):
                assert times_bgl(add(a, b), ms, N) == add(
                    times_bgl(a, ms, N), times_bgl(b, ms, N)
                ), (a, b, ms, N)
