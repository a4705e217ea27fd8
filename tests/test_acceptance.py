"""End to end checks at desk scale, one printed verdict line per check.

Each test here pins an identity between two independently implemented
sides: affine pavings against brute-force point counts over $F_q$,
geometric graded dimensions against quiver Hecke basis counts,
closed-form series against enumerative formulas, algebra relations
against the faithful polynomial action, and homotopy invariants
against Gaussian-elimination minimization.  Budgeted sweeps also
assert their wall-clock targets.

Run with -s to see the verdict lines; each test prints exactly one.
"""

from __future__ import annotations

import json
import random
import time
from itertools import permutations

from quiverchow.cli import main
from quiverchow.extalg import compare_block, gdim_geo
from quiverchow.homotopy import (
    complexes_equal,
    cone,
    euler_symbol,
    identity_map,
    minimize,
    parse_handle,
    random_complex,
    validate,
    weight_truncate,
)
from quiverchow.klrpoly import relation_suite, smash_center_dims
from quiverchow.nilrep import (
    Segment,
    enumerate_nilreps,
    hom_dim,
    intertwiner_dim,
    parse_multisegment,
)
from quiverchow.paving import count_points, poincare
from quiverchow.quiver import (
    DimVector,
    dim_qvariety,
    enumerate_complete_comps,
    enumerate_compositions,
    parse_composition,
    parse_quiver,
)
from quiverchow.series import HalfLaurentSeries, bgl, first_discrepancy


QUIVER_SPECS = ("A1", "A2", "A3", "cyclic:1", "cyclic:2", "cyclic:3")
HANDLE_SPECS = ("nilhecke:2", "klr:A2:1,1", "klr:cyclic:2:1,1", "smash:2")


def dim_vectors(n: int, total: int) -> list[tuple[int, ...]]:
    if n == 1:
        return [(total,)]
    return [(h,) + rest for h in range(total + 1)
            for rest in dim_vectors(n - 1, total - h)]


def test_paving_agrees_with_point_counts_everywhere():
    # every stratum, every flag type, three primes, exact equality
    t0 = time.monotonic()
    checked = 0
    for spec in QUIVER_SPECS:
        Q = parse_quiver(spec)
        for total in range(5):
            for d in dim_vectors(Q.n, total):
                dv = DimVector(d)
                comps = enumerate_compositions(dv)
                for M in enumerate_nilreps(Q, dv):
                    for comp in comps:
                        P = poincare(Q, M, comp)
                        for q in (2, 3, 5):
                            assert P.evaluate(q) == count_points(Q, M, comp, q), (
                                spec, str(M), str(comp), q)
                            checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0, f"paving sweep took {elapsed:.1f}s"
    print(f"PASS paving equals point counts: {checked} comparisons "
          f"in {elapsed:.1f}s")


def test_paving_agrees_with_point_counts_at_total_five():
    # the sweep above stops at total 4; this one adds every total-5 case on
    # the quivers with at most two vertices, at two primes
    t0 = time.monotonic()
    checked = 0
    for spec in ("A1", "cyclic:1", "A2", "cyclic:2"):
        Q = parse_quiver(spec)
        for d in dim_vectors(Q.n, 5):
            dv = DimVector(d)
            comps = enumerate_compositions(dv)
            for M in enumerate_nilreps(Q, dv):
                for comp in comps:
                    P = poincare(Q, M, comp)
                    for q in (2, 3):
                        assert P.evaluate(q) == count_points(Q, M, comp, q), (
                            spec, str(M), str(comp), q)
                        checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0, f"total-5 paving sweep took {elapsed:.1f}s"
    print(f"PASS total-5 paving equals point counts: {checked} comparisons "
          f"in {elapsed:.1f}s")


def test_subregular_springer_fiber():
    # loop quiver, M = (0,2)+(0,1), complete flags: P(q) = 1 + 2q and the
    # finite-field counts are produced by the oracle, not assumed
    LOOP = parse_quiver("cyclic:1")
    M = parse_multisegment("(0,2)+(0,1)")
    comp = parse_composition("1;1;1", 1)
    P = poincare(LOOP, M, comp)
    assert P.as_dict() == {0: 1, 1: 2}
    f2 = count_points(LOOP, M, comp, 2)
    f3 = count_points(LOOP, M, comp, 3)
    assert f2 == 5 and f3 == 7
    assert P.evaluate(2) == f2 and P.evaluate(3) == f3
    print(f"PASS subregular fiber: poincare 1+2q, F_2 count {f2}, F_3 count {f3}")


def _formality_blocks():
    """Every complete block on the two-sided sweep quivers, total(d) <= 3."""
    for spec in ("A2", "A3", "cyclic:2", "cyclic:3"):
        Q = parse_quiver(spec)
        for total in range(1, 4):
            for d in dim_vectors(Q.n, total):
                dv = DimVector(d)
                comps = enumerate_complete_comps(Q, dv)
                for ci in comps:
                    for cj in comps:
                        yield spec, Q, dv, ci, cj


def test_geometric_blocks_match_klr_blocks():
    # gdim_geo = u^{dim_j - dim_i} gdim_alg_klr, coefficientwise to u^24
    t0 = time.monotonic()
    blocks = 0
    for spec, Q, dv, ci, cj in _formality_blocks():
        rep = compare_block(Q, dv, ci.word(), cj.word(), 24)
        assert rep.normalized_match, (spec, str(ci), str(cj),
                                      rep.first_discrepancy)
        blocks += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0, f"block sweep took {elapsed:.1f}s"
    print(f"PASS geometric equals shifted algebraic: {blocks} blocks "
          f"in {elapsed:.1f}s")


def test_nil_hecke_closed_form():
    # one vertex, rank n: gdim = (sum_w u^{-2 l(w)}) (1-u^2)^{-n} to u^24
    A1 = parse_quiver("A1")
    for n in (1, 2, 3):
        dv = DimVector((n,))
        comp = enumerate_complete_comps(A1, dv)[0]
        geo = gdim_geo(A1, dv, comp, comp, 24)
        numer = HalfLaurentSeries.zero()
        for w in permutations(range(n)):
            inv = sum(1 for a in range(n) for b in range(a + 1, n)
                      if w[a] > w[b])
            numer = numer.add(HalfLaurentSeries.monomial(-2 * inv))
        closed = numer.mul(bgl(1, 24).pow(n)).truncate(24)
        gap = first_discrepancy(geo, closed)
        assert gap is None, (n, gap)
    print("PASS nil Hecke closed form: ranks 1,2,3 exact to u^24")


def _check_transpose(Q, dv, ci, cj, N, tag) -> None:
    fwd = gdim_geo(Q, dv, ci, cj, N)
    bwd = gdim_geo(Q, dv, cj, ci, N)
    delta = 2 * (dim_qvariety(Q, ci) - dim_qvariety(Q, cj))
    for m in range(-N, N + 1):
        if m + delta > N:
            continue
        assert fwd.coefficient(m) == bwd.coefficient(m + delta), (
            tag, str(ci), str(cj), m)


def test_transpose_symmetry_on_all_computed_blocks():
    # swapping source and target shifts every exponent by 2(dim_i - dim_j)
    N = 24
    pairs = 0
    seen: set = set()
    for spec, Q, dv, ci, cj in _formality_blocks():
        if (spec, tuple(dv), str(cj), str(ci)) in seen:
            continue
        seen.add((spec, tuple(dv), str(ci), str(cj)))
        _check_transpose(Q, dv, ci, cj, N, spec)
        pairs += 1
    A1 = parse_quiver("A1")
    for n in (1, 2, 3):
        dv = DimVector((n,))
        comp = enumerate_complete_comps(A1, dv)[0]
        _check_transpose(A1, dv, comp, comp, N, "A1")
        pairs += 1
    print(f"PASS transpose symmetry: {pairs} block pairs")


def test_klr_relations_randomized_sweep():
    # 100 seeded trials per relation family per quiver/dimension pair
    t0 = time.monotonic()
    pairs = 0
    trials_seen: set = set()
    for spec in QUIVER_SPECS:
        Q = parse_quiver(spec)
        for total in range(1, 5):
            for d in dim_vectors(Q.n, total):
                report = relation_suite(Q, DimVector(d), trials=100, seed=0)
                bad = [v for v in report.verdicts if v.failures]
                assert report.ok, (spec, d, [(v.name, v.witness) for v in bad])
                assert any(v.name == "degree-homogeneity" for v in report.verdicts)
                for v in report.verdicts:
                    assert v.trials == 100
                    trials_seen.add(v.name)
                pairs += 1
    elapsed = time.monotonic() - t0
    print(f"PASS relation sweep: {pairs} quiver/dim pairs, "
          f"{len(trials_seen)} families, 100 trials each, zero failures "
          f"in {elapsed:.1f}s")


def test_smash_center_dimensions_are_partition_counts():
    # graded center dims up to degree 6, by exact linear solve
    got2 = smash_center_dims(2, 6)
    got3 = smash_center_dims(3, 6)
    assert got2 == [1, 1, 2, 2, 3, 3, 4], got2
    assert got3 == [1, 1, 2, 3, 4, 5, 7], got3
    print(f"PASS smash center dims: n=2 {got2}, n=3 {got3}")


def test_class_counts_and_hom_formula():
    LOOP = parse_quiver("cyclic:1")
    counts = [len(enumerate_nilreps(LOOP, DimVector((d,)))) for d in range(1, 7)]
    assert counts == [1, 2, 3, 5, 7, 11], counts
    pairs = 0
    for spec in QUIVER_SPECS:
        Q = parse_quiver(spec)
        segs = [Segment(i, l) for i in range(Q.n) for l in range(1, 6)
                if Segment(i, l).valid_on(Q)]
        for A in segs:
            for B in segs:
                assert hom_dim(Q, A, B) == intertwiner_dim(Q, A, B), (
                    spec, str(A), str(B))
                pairs += 1
    print(f"PASS enumeration: loop counts {counts}, hom formula on "
          f"{pairs} segment pairs")


def test_homotopy_invariants_on_randomized_corpus():
    per_handle = 200
    for spec in HANDLE_SPECS:
        handle = parse_handle(spec)
        for t in range(per_handle):
            rng = random.Random(f"acceptance:{spec}:{t}")
            c = random_complex(handle, rng)
            assert validate(c).ok, spec

            collapsed = minimize(cone(identity_map(c)))
            assert len(collapsed) == 0, spec

            m = minimize(c)
            assert validate(m).ok, spec
            assert euler_symbol(m) == euler_symbol(c), spec
            assert complexes_equal(minimize(m), m), spec

            degs = sorted({g.cohdeg for g in c.generators})
            n = degs[len(degs) // 2]
            upper, lower, inc = weight_truncate(c, n)
            assert complexes_equal(minimize(cone(inc)), minimize(lower)), spec
    print(f"PASS homotopy invariants: {per_handle} complexes per handle "
          f"on {len(HANDLE_SPECS)} handles")


def test_byte_identical_output_across_threads(capsys):
    commands = [
        ["suite", "klr-match", "--trunc", "16", "--seed", "9"],
        ["suite", "homotopy", "--count", "25", "--seed", "9"],
        ["suite", "relations", "--trials", "10", "--max-total", "3",
         "--seed", "9"],
        ["gdim-table", "--quiver", "A2", "--dim", "1,1", "--all-comps",
         "--trunc", "12"],
    ]
    compared = 0
    for base in commands:
        outputs = []
        for threads in ("1", "2", "4"):
            code = main(base + ["--threads", threads])
            out = capsys.readouterr().out
            assert code == 0, base
            json.loads(out)  # must be well-formed JSON
            outputs.append(out)
        assert outputs[0] == outputs[1] == outputs[2], base
        compared += 1
    with capsys.disabled():
        print(f"\nPASS determinism: {compared} commands byte-identical "
              f"at threads 1, 2, 4")
