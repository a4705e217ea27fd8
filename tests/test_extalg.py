"""Graded dimensions of convolution blocks.

For a pair of compositions $i, j$ of $d$ the geometric series
gdim_geo sums, over the strata $M$, the cell counts of the two
pavings against the automorphy series of the stratum.  The algebraic
series gdim_alg_klr counts the basis $\\{\\psi_w x^\\alpha e(i)\\}$ of
the corresponding quiver Hecke block.  The two agree up to the
monomial shift $u^{\\dim_j - \\dim_i}$ in the flag-variety dimensions,
which is the graded shadow of formality.

The one-vertex specializations are classical: complete blocks of
$A_1$ in rank $n$ carry the nil Hecke algebra with graded dimension
$(\\sum_{w \\in S_n} u^{-2\\ell(w)})(1-u^2)^{-n}$, and the loop quiver
block carries $S(V) \\rtimes k[S_n]$ with $n!\\,(1-u^2)^{-n}$.
"""

from __future__ import annotations

import sys
from concurrent.futures import ThreadPoolExecutor
from itertools import permutations, product

import pytest

from quiverchow.extalg import (
    GdimReport,
    Strata,
    _slot_width,
    _unpack,
    compare_block,
    gdim_alg_klr,
    gdim_geo,
    springer_smash_gdim,
)
from quiverchow.nilrep import aut_series_exponents, enumerate_nilreps, orbit_dim
from quiverchow.paving import paving_cells
from quiverchow.quiver import (
    Composition,
    DimVector,
    cartan,
    content_words,
    dim_qvariety,
    enumerate_complete_comps,
    enumerate_compositions,
    parse_composition,
    parse_quiver,
)
from quiverchow.series import HalfLaurentSeries, bgl, first_discrepancy


A1 = parse_quiver("A1")
A2 = parse_quiver("A2")
LOOP = parse_quiver("cyclic:1")
D11 = DimVector((1, 1))


def series_of(coeffs: dict[int, int], trunc: int) -> HalfLaurentSeries:
    return HalfLaurentSeries.from_map(coeffs, trunc=trunc)


def test_a2_identity_block_is_two_variable_polynomial_ring():
    c = Composition.from_word((0, 1), 2)
    geo = gdim_geo(A2, D11, c, c, 12)
    assert first_discrepancy(geo, bgl(1, 12).pow(2)) is None


def test_a2_cross_blocks():
    up = Composition.from_word((0, 1), 2)
    dn = Composition.from_word((1, 0), 2)
    # crossing against the arrow costs u^2, with it nothing
    geo_ud = gdim_geo(A2, D11, up, dn, 12)
    expect = bgl(1, 12).pow(2).mul(HalfLaurentSeries.monomial(2))
    assert first_discrepancy(geo_ud, expect.truncate(12)) is None
    geo_du = gdim_geo(A2, D11, dn, up, 12)
    assert first_discrepancy(geo_du, bgl(1, 12).pow(2)) is None


def test_a2_algebraic_one_crossing_block():
    alg = gdim_alg_klr(A2, D11, (0, 1), (1, 0), 12)
    # single crossing of degree 1 on top of the polynomial part
    expect = bgl(1, 12).pow(2).mul(HalfLaurentSeries.monomial(1))
    assert first_discrepancy(alg, expect.truncate(12)) is None


def test_compare_block_matches_with_dimension_shift():
    for i in ((0, 1), (1, 0)):
        for j in ((0, 1), (1, 0)):
            rep = compare_block(A2, D11, i, j, 12)
            assert rep.normalized_match, (i, j)
            assert rep.first_discrepancy is None
            ci, cj = Composition.from_word(i, 2), Composition.from_word(j, 2)
            shift = dim_qvariety(A2, cj) - dim_qvariety(A2, ci)
            shifted = rep.algebraic.mul(HalfLaurentSeries.monomial(shift))
            assert first_discrepancy(rep.geometric, shifted) is None


def test_nil_hecke_closed_form_small_rank():
    for n in range(1, 8):
        d = DimVector((n,))
        comp = enumerate_complete_comps(A1, d)[0]
        geo = gdim_geo(A1, d, comp, comp, 16)
        numer = HalfLaurentSeries.zero()
        for w in permutations(range(n)):
            inv = sum(1 for a in range(n) for b in range(a + 1, n) if w[a] > w[b])
            numer = numer.add(HalfLaurentSeries.monomial(-2 * inv))
        expect = numer.mul(bgl(1, 16).pow(n))
        assert first_discrepancy(geo, expect.truncate(16)) is None, n


def test_loop_block_is_smash_product_series():
    for n in (1, 2):
        d = DimVector((n,))
        comp = enumerate_complete_comps(LOOP, d)[0]
        geo = gdim_geo(LOOP, d, comp, comp, 14)
        assert first_discrepancy(geo, springer_smash_gdim(n, 14)) is None


def test_springer_smash_gdim_values():
    s = springer_smash_gdim(2, 10)
    # 2 (1 + u^2 + 2u^4 + ...) with partition-like growth from (1-u^2)^{-2}
    assert s.coefficient(0) == 2
    assert s.coefficient(2) == 4
    assert first_discrepancy(s, bgl(1, 10).pow(2).scale(2)) is None


def _all_comps_table(Q, d, N) -> dict:
    """The geometric series of every pair of compositions of d, complete
    or not, as `gdim-table --all-comps` forms them: one `Strata` for all."""
    comps = enumerate_compositions(d)
    strata = Strata(Q, d)
    return {f"{ci}|{cj}": gdim_geo(Q, d, ci, cj, N, strata) for ci in comps for cj in comps}


def test_schur_table_single_vertex_rank_two():
    tab = _all_comps_table(A1, DimVector((2,)), 12)
    assert set(tab) == {"1;1|1;1", "1;1|2", "2|1;1", "2|2"}
    assert first_discrepancy(tab["2|2"], bgl(2, 12)) is None
    # the complete block on a table's strata is the block on its own
    c = parse_composition("1;1", 1)
    complete = gdim_geo(A1, DimVector((2,)), c, c, 12)
    assert first_discrepancy(tab["1;1|1;1"], complete) is None


def test_schur_table_zero_dimension_vector():
    tab = _all_comps_table(A2, DimVector((0, 0)), 8)
    assert list(tab) == ["|"]
    assert first_discrepancy(tab["|"], HalfLaurentSeries.one().truncate(8)) is None


def test_transpose_symmetry_of_geometric_blocks():
    # swapping i and j shifts every exponent by 2(dim_i - dim_j)
    comps = enumerate_complete_comps(A2, D11)
    N = 12
    for ci in comps:
        for cj in comps:
            fwd = gdim_geo(A2, D11, ci, cj, N)
            bwd = gdim_geo(A2, D11, cj, ci, N)
            delta = 2 * (dim_qvariety(A2, ci) - dim_qvariety(A2, cj))
            for m in range(-N, N // 2):
                if m > N or m + delta > N:
                    continue
                assert fwd.coefficient(m) == bwd.coefficient(m + delta)


def _reversal_failures(spec: str, reverse: bool, relabel: bool) -> tuple[int, int]:
    """(failing, all) complete blocks of total 1-3 on spec for the map
    sending the block (i, j) of d to (s(rev i), s(rev j)) of s(d), with rev
    the word reversal if `reverse` and s the vertex reversal sigma if
    `relabel` (sigma(v) = n - 1 - v on A_n, -v mod e on cyclic:e)."""
    Q = parse_quiver(spec)
    n = Q.n
    if not relabel:
        sigma = list(range(n))
    elif Q.kind == "linear":
        sigma = [n - 1 - v for v in range(n)]
    else:
        sigma = [-v % n for v in range(n)]

    def image(word):
        return tuple(sigma[v] for v in (word[::-1] if reverse else word))

    failed = blocks = 0
    for d in product(range(4), repeat=n):
        if not 1 <= sum(d) <= 3:
            continue
        dv = DimVector(d)
        sd = DimVector(tuple(d[sigma[v]] for v in range(n)))  # sigma is an involution
        strata, strata_s = Strata(Q, dv), Strata(Q, sd)
        words = content_words(Q, dv)
        for i in words:
            for j in words:
                here = gdim_geo(Q, dv, Composition.from_word(i, n),
                                Composition.from_word(j, n), strata=strata)
                there = gdim_geo(Q, sd, Composition.from_word(image(i), n),
                                 Composition.from_word(image(j), n), strata=strata_s)
                failed += here != there
                blocks += 1
    return failed, blocks


@pytest.mark.parametrize("spec, blocks, control", [
    ("A2", 28, 14), ("A3", 111, 46), ("cyclic:2", 28, 0), ("cyclic:3", 111, 60),
])
def test_reversal_symmetry_of_geometric_blocks(spec, blocks, control):
    # transposing identifies Rep(Q) with Rep(Q^op), and sigma identifies
    # Q^op with Q, so gdim_geo(d, i, j) = gdim_geo(sigma d, sigma rev i,
    # sigma rev j); the reversal alone, or sigma alone, fails the same
    # blocks (on cyclic:2 sigma is the identity, so neither fails)
    assert _reversal_failures(spec, True, True) == (0, blocks)
    assert _reversal_failures(spec, True, False) == (control, blocks)
    assert _reversal_failures(spec, False, True) == (control, blocks)


def test_shared_strata_refuse_a_composition_not_refining_d():
    d = DimVector((2,))
    strata = Strata(A1, d)
    ok = parse_composition("1;1", 1)
    gdim_geo(A1, d, ok, ok, 8, strata)
    for bad in ("1", "1;1;1", "3"):
        with pytest.raises(ValueError, match="does not refine"):
            gdim_geo(A1, d, parse_composition(bad, 1), ok, 8, strata)
        with pytest.raises(ValueError, match="does not refine"):
            gdim_geo(A1, d, ok, parse_composition(bad, 1), 8, strata)
    # a refused composition leaves no row behind
    assert list(strata._rows) == [ok]


def test_strata_of_another_dimension_vector_are_refused():
    strata = Strata(A1, DimVector((2,)))
    c = parse_composition("1;1;1", 1)
    with pytest.raises(ValueError, match="strata of"):
        gdim_geo(A1, DimVector((3,)), c, c, 8, strata)
    with pytest.raises(ValueError, match="strata of"):
        gdim_geo(LOOP, DimVector((2,)), c, c, 8, strata)


def test_strata_fill_orbit_data_only_where_a_block_reaches():
    # A2 (1,1) has two strata, the semisimple one and the indecomposable
    # (1,2); the word (0,1) has an empty paving on (1,2), so its block
    # alone never needs the orbit data of (1,2)
    strata = Strata(A2, D11)
    up = Composition.from_word((0, 1), 2)
    gdim_geo(A2, D11, up, up, 8, strata)
    assert [str(M) for M in strata.reps] == ["(0,1)+(1,1)", "(1,2)"]
    assert sorted(strata._orbits) == [0]
    dn = Composition.from_word((1, 0), 2)
    gdim_geo(A2, D11, dn, dn, 8, strata)
    assert sorted(strata._orbits) == [0, 1]


def test_one_strata_object_serves_many_threads():
    # more threads than cores fill and read one Strata, with a short switch
    # interval; every block equals its value from a fresh object, and the
    # decoded series are those one thread stores
    Q = parse_quiver("cyclic:2")
    d = DimVector((2, 1))
    comps = enumerate_compositions(d)
    pairs = [(ci, cj) for ci in comps for cj in comps]
    want = [gdim_geo(Q, d, ci, cj, 12) for ci, cj in pairs]
    one = Strata(Q, d)
    assert [gdim_geo(Q, d, ci, cj, 12, one) for ci, cj in pairs] == want
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            strata = Strata(Q, d)
            with ThreadPoolExecutor(max_workers=8) as pool:
                got = list(pool.map(
                    lambda p: gdim_geo(Q, d, p[0], p[1], 12, strata), pairs, timeout=60
                ))
            assert got == want
            assert len(strata._rows) == len(comps)
            assert strata._series == one._series
    finally:
        sys.setswitchinterval(old)


def test_gdim_alg_rejects_mismatched_content():
    for i, j in (((0, 1), (0, 0)), ((0, 0), (0, 0))):
        with pytest.raises(ValueError):
            gdim_alg_klr(A2, D11, i, j, 8)


def test_report_is_frozen_record():
    rep = compare_block(A2, D11, (0, 1), (0, 1), 10)
    assert isinstance(rep, GdimReport)
    with pytest.raises(AttributeError):
        rep.normalized_match = False  # type: ignore[misc]


def _geo_by_series_mul(Q, d, ci, cj, N):
    """gdim_geo by truncated series products: per stratum, the exact cell
    polynomial times the product of bgl(m, N - m0) series, summed."""
    dj = dim_qvariety(Q, cj)
    total = HalfLaurentSeries.zero()
    for M in enumerate_nilreps(Q, d):
        cells_i = paving_cells(Q, M, ci)
        cells_j = paving_cells(Q, M, cj)
        if cells_i.is_empty_variety() or cells_j.is_empty_variety():
            continue
        coeffs: dict[int, int] = {}
        for c1, m1 in cells_i.counts:
            for c2, m2 in cells_j.counts:
                e = 2 * (dj - orbit_dim(Q, M) - c1 - c2)
                coeffs[e] = coeffs.get(e, 0) + m1 * m2
        m0 = min(coeffs)
        aut = HalfLaurentSeries.one().truncate(N - m0)
        for m in aut_series_exponents(M):
            aut = aut.mul(bgl(m, N - m0))
        total = total.add(HalfLaurentSeries.from_map(coeffs).mul(aut))
    return total.truncate(N)


def _alg_by_series_mul(Q, i, j, N):
    """gdim_alg_klr by series products: the permutation polynomial, with
    cartan looked up per inversion, times bgl(1, N - m0)^n."""
    n = len(i)
    coeffs: dict[int, int] = {}
    for w in permutations(range(n)):
        if any(j[w[k]] != i[k] for k in range(n)):
            continue
        deg = sum(-cartan(Q, i[k], i[l])
                  for k in range(n) for l in range(k + 1, n) if w[k] > w[l])
        coeffs[deg] = coeffs.get(deg, 0) + 1
    m0 = min(coeffs)
    poly_part = bgl(1, N - m0).pow(n) if n else HalfLaurentSeries.one().truncate(N - m0)
    return HalfLaurentSeries.from_map(coeffs).mul(poly_part).truncate(N)


@pytest.mark.parametrize("spec,dims", [
    ("A1", [(1,), (2,), (3,), (4,), (5,)]),
    ("A2", [(1, 1), (2, 1), (2, 2)]),
    ("A3", [(1, 2, 1)]),
    ("cyclic:1", [(1,), (2,), (3,), (4,)]),
    ("cyclic:2", [(2, 1)]),
    ("cyclic:3", [(1, 1, 1)]),
])
def test_blocks_equal_series_multiplication_reference(spec, dims):
    # every block over all compositions (geometric side) and every pair of
    # words (algebraic side) equals the series-product formula, as values:
    # the same coefficients and the same truncation order
    # with one Strata shared by every block of d and with a fresh one each
    Q = parse_quiver(spec)
    for d in map(DimVector, dims):
        comps = enumerate_compositions(d)
        shared = Strata(Q, d)
        for N in (0, 1, 2, 7, 24):
            for ci in comps:
                for cj in comps:
                    want = _geo_by_series_mul(Q, d, ci, cj, N)
                    assert gdim_geo(Q, d, ci, cj, N) == want, (d, str(ci), str(cj), N)
                    got = gdim_geo(Q, d, ci, cj, N, shared)
                    assert got == want, ("shared", d, str(ci), str(cj), N)
        words = [c.word() for c in enumerate_complete_comps(Q, d)]
        for N in (-1, 0, 1, 2, 7, 24):
            for i in words:
                for j in words:
                    got = gdim_alg_klr(Q, d, i, j, N)
                    assert got == _alg_by_series_mul(Q, i, j, N), (d, i, j, N)


def test_a_slot_at_two_to_the_width_minus_one_decodes_exactly():
    # two strata, in t = u^2: (1 + 2t)(102 + t) + 3 * 51 has slots 255, 205
    # and 2; 255 = 2^8 - 1 bounds them, so slots are 8 bits wide, and at 7
    # bits the lowest slot carries into the next one
    def packed(slots, width):
        return sum(c << width * k for k, c in enumerate(slots))

    def decode(width):
        left = [packed([1, 2], width), packed([3], width)]
        right = [packed([102, 1], width), packed([51], width)]
        return _unpack(sum(a * b for a, b in zip(left, right)), width, -2, 6)

    want = series_of({-2: 255, 0: 205, 2: 2}, 6)
    width = _slot_width(255)
    assert width == 8
    assert decode(width) == want
    assert decode(width - 1) != want
    # slots above u^N are not read
    assert decode(width) == decode(width).truncate(6)
    assert _unpack(packed([255, 205, 2], width), width, -2, 0) == series_of({-2: 255, 0: 205}, 0)


def test_rows_filled_after_the_first_block_equal_the_reference():
    # one Strata answers a block, then takes the rows and packs of every
    # other composition at two truncations; its width for N does not depend
    # on which compositions came first
    Q = parse_quiver("cyclic:2")
    d = DimVector((2, 1))
    comps = enumerate_compositions(d)
    strata = Strata(Q, d)
    first = comps[len(comps) // 2]
    assert gdim_geo(Q, d, first, first, 24, strata) == _geo_by_series_mul(Q, d, first, first, 24)
    assert list(strata._rows) == [first]
    for N in (24, 7):
        for ci in comps:
            for cj in comps:
                want = _geo_by_series_mul(Q, d, ci, cj, N)
                assert gdim_geo(Q, d, ci, cj, N, strata) == want, (str(ci), str(cj), N)
    assert len(strata._rows) == len(comps)
    assert strata.width(24) == Strata(Q, d).width(24)


def test_directly_built_series_are_canonical(monkeypatch):
    # every series built without the normalising constructor equals its
    # normalised copy, with the same coefficient tuple and int entries: over
    # every block of the A3 (1,2,1) table and every klr-match block
    from quiverchow.cli import klr_match_cases

    make = HalfLaurentSeries._canonical
    producers: dict[str, int] = {}
    decoded = []

    def checked(coeffs, trunc):
        s = make(coeffs, trunc)
        again = HalfLaurentSeries(s.coeffs, s.trunc)
        assert again == s and again.coeffs == s.coeffs, s.coeffs
        assert all(type(e) is int and type(c) is int for e, c in s.coeffs), s.coeffs
        caller = sys._getframe(1).f_code.co_name
        producers[caller] = producers.get(caller, 0) + 1
        if caller == "_unpack":
            decoded.append(s)
        return s

    monkeypatch.setattr(HalfLaurentSeries, "_canonical", staticmethod(checked))
    Q = parse_quiver("A3")
    d = DimVector((1, 2, 1))
    comps = enumerate_compositions(d)
    kept = []
    for N in (-1, 0, 1, 7, 24):
        strata = Strata(Q, d)
        for ci in comps:
            for cj in comps:
                kept.append(gdim_geo(Q, d, ci, cj, N, strata))
        for name, check in klr_match_cases(N):
            assert check()[0], (name, N)
    assert set(producers) == {"_unpack", "gdim_alg_klr", "truncate", "shifted"}
    # each table block is a series that was checked as it was decoded (both
    # lists keep their series alive, so no id is reused); equal packed
    # blocks decode once
    assert len(kept) == 5 * len(comps) ** 2
    decoded_ids = set(map(id, decoded))
    assert all(id(s) in decoded_ids for s in kept)
    assert producers["_unpack"] == 652


def test_equal_packed_blocks_decode_once_to_one_series(monkeypatch):
    # the benchmark table: 1,936 blocks, 27 distinct (sum, lo) keys, so 27
    # decodes; blocks with one key are one object
    import quiverchow.extalg as extalg

    decodes = []
    real_unpack = extalg._unpack

    def counted(*args):
        decodes.append(args)
        return real_unpack(*args)

    monkeypatch.setattr(extalg, "_unpack", counted)
    Q = parse_quiver("A3")
    d = DimVector((1, 2, 1))
    comps = enumerate_compositions(d)
    strata = Strata(Q, d)
    by_key: dict[tuple[int, int], list[HalfLaurentSeries]] = {}
    for ci in comps:
        for cj in comps:
            s = gdim_geo(Q, d, ci, cj, strata=strata)
            lo, _, right = strata.pack(cj, 24)
            total = sum(a * b for a, b in zip(strata.pack(ci, 24)[1], right))
            by_key.setdefault((total, lo), []).append(s)
    assert len(comps) ** 2 == 1936
    assert len(decodes) == len(by_key) == 27
    assert all(all(s is group[0] for s in group) for group in by_key.values())
    # sums that differ only above u^24 decode to equal series
    assert len({group[0] for group in by_key.values()}) == 17
    # a second pass decodes nothing
    for ci in comps:
        gdim_geo(Q, d, ci, comps[0], strata=strata)
    assert len(decodes) == 27


@pytest.mark.parametrize("spec,dims", [("A2", (2, 2)), ("cyclic:2", (2, 1)), ("cyclic:1", (3,))])
def test_a_reused_strata_gives_what_fresh_strata_give(spec, dims):
    # one Strata across two truncations against a fresh Strata per block
    Q = parse_quiver(spec)
    d = DimVector(dims)
    comps = enumerate_compositions(d)
    strata = Strata(Q, d)
    for N in (6, 24):
        for ci in comps:
            for cj in comps:
                want = gdim_geo(Q, d, ci, cj, N, Strata(Q, d))
                assert gdim_geo(Q, d, ci, cj, N, strata) == want, (str(ci), str(cj), N)


def test_one_sum_at_another_lo_or_truncation_decodes_again(monkeypatch):
    # no real table has two blocks with one packed sum and different lo, so
    # the packs are stubbed: j starts three powers of t above i, with the
    # same factors, and every truncation reads the same sum
    Q = parse_quiver("A1")
    d = DimVector((2,))
    ci, cj = enumerate_compositions(d)
    W = 8
    left = (1 | 2 << W,)
    right = (3 | 1 << W | 5 << 3 * W,)
    monkeypatch.setattr(Strata, "width", lambda self, N: W)
    monkeypatch.setattr(Strata, "pack", lambda self, c, N: ({ci: 0, cj: 3}[c], left, right))
    strata = Strata(Q, d)
    for N in (6, 24):
        base = gdim_geo(Q, d, ci, ci, N, strata)
        assert base == gdim_geo(Q, d, ci, ci, N, Strata(Q, d))
        assert base.trunc == N and base.coeffs[-1][0] == 8 - 2 * strata.h
        up = gdim_geo(Q, d, ci, cj, N, strata)
        assert up == gdim_geo(Q, d, ci, cj, N, Strata(Q, d))
        assert up == base.shifted(6, N)


def test_compare_block_converts_each_word_once(monkeypatch):
    # one Strata serves every block of (Q, d): each word becomes a
    # composition once, and its dim_qvariety comes with it
    import quiverchow.extalg as extalg

    calls = {"from_word": 0, "dim_qvariety": 0}
    from_word = Composition.from_word

    def counted_from_word(word, n):
        calls["from_word"] += 1
        return from_word(word, n)

    def counted_dim(Q, c):
        calls["dim_qvariety"] += 1
        return dim_qvariety(Q, c)

    Q = parse_quiver("A3")
    d = DimVector((1, 2, 1))
    words = [c.word() for c in enumerate_complete_comps(Q, d)]
    monkeypatch.setattr(Composition, "from_word", staticmethod(counted_from_word))
    monkeypatch.setattr(extalg, "dim_qvariety", counted_dim)
    strata = Strata(Q, d)
    for i in words:
        for j in words:
            rep = compare_block(Q, d, i, j, 12, strata)
            assert rep.normalized_match
            assert rep.shift == dim_qvariety(Q, from_word(j, 3)) - dim_qvariety(Q, from_word(i, 3))
    # one conversion per word; one dim_qvariety per word and one per row
    assert calls == {"from_word": len(words), "dim_qvariety": 2 * len(words)}
    assert compare_block(Q, d, words[0], words[-1], 12) == compare_block(
        Q, d, words[0], words[-1], 12, strata
    )
    with pytest.raises(ValueError, match="strata of"):
        compare_block(Q, DimVector((1, 1, 1)), (0, 1, 2), (0, 1, 2), 12, strata)
