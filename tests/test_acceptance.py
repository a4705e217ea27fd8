"""End to end checks at desk scale, one printed verdict line per check.

Each test here pins an identity between two independently implemented
sides: affine pavings against brute-force point counts over $F_q$,
geometric graded dimensions against quiver Hecke basis counts,
closed-form series against enumerative formulas, algebra relations
against the faithful polynomial action, and homotopy invariants
against Gaussian-elimination minimization.

The four standing sweeps run the very cases that `quiverchow suite`
runs: each test takes the case list from the suite's factory in
`quiverchow.cli`, pins its length so a sweep cannot shrink unnoticed,
runs every case and asserts a wall-clock budget.  The paving sweep also
runs at the suite's bound, `suite paving-oracle --max-total 5`.  One sweep
no suite covers is test-only: every complete block of A3 (2,2,2), through
the klr-match case builder.

Run with -s to see the verdict lines; each test prints exactly one.
"""

from __future__ import annotations

import json
import time

from quiverchow import cli
from quiverchow.klrpoly import smash_center_dims
from quiverchow.nilrep import Segment, enumerate_nilreps, hom_dim
from quiverchow.quiver import DimVector, parse_quiver

from test_nilrep import intertwiner_dim


def _run_sweep(name: str, cases, budget: float) -> list[str]:
    """Run every (case_id, fn) pair; fail naming each failing case.
    Returns the detail of every case, in order."""
    t0 = time.monotonic()
    failed = []
    details = []
    for case_id, fn in cases:
        ok, detail = fn()
        details.append(detail)
        if not ok:
            failed.append(f"{case_id}: {detail}")
    elapsed = time.monotonic() - t0
    assert not failed, (f"{name}: {len(failed)} of {len(cases)} cases failed\n"
                        + "\n".join(failed))
    assert elapsed < budget, f"{name} took {elapsed:.1f}s, budget {budget:.0f}s"
    print(f"PASS {name}: {len(cases)} cases in {elapsed:.1f}s")
    return details


def test_paving_agrees_with_point_counts_everywhere():
    # every stratum and flag type up to total 4 at q in {2,3,5}, exact
    # equality; plus the subregular Springer fibre, P(q) = 1 + 2q with
    # F_2 and F_3 counts 5 and 7 produced by the oracle
    cases = cli.paving_oracle_cases(4)
    assert len(cases) == 226
    _run_sweep("paving equals point counts", cases, 300.0)


def test_paving_agrees_with_point_counts_at_total_five():
    # the suite sweep at its bound: every class up to total 5 of the six
    # suite quivers at q in {2,3,5}, one oracle per (M, q) shared by the
    # compositions
    cases = cli.paving_oracle_cases(5)
    assert len(cases) == 448
    _run_sweep("total-5 paving equals point counts", cases, 300.0)


def test_geometric_blocks_match_klr_blocks():
    # every complete block on A2, A3, cyclic:2, cyclic:3 up to total 3:
    # gdim_geo = u^{dim_j - dim_i} gdim_alg_klr and the transpose symmetry,
    # to u^24; plus the nil Hecke closed form for ranks 1, 2, 3
    cases = cli.klr_match_cases(24)
    assert len(cases) == 59
    _run_sweep("geometric equals shifted algebraic", cases, 120.0)


def test_geometric_blocks_match_klr_blocks_on_a3_222():
    # every complete block of A3 (2,2,2), 90 words and 8,100 blocks, under
    # the same checks as a klr-match case; test-only, so the suite's bytes
    # stay as they are
    check = cli.klr_block_check(parse_quiver("A3"), DimVector((2, 2, 2)), 24)
    details = _run_sweep("A3 (2,2,2) geometric equals shifted algebraic",
                         [("A3 (2,2,2)", check)], 120.0)
    assert details == ["8100 blocks match; symmetry holds"]


def test_klr_relations_randomized_sweep():
    # 100 seeded trials per relation family per quiver/dimension pair
    cases = cli.relations_cases(4, 100, 0)
    assert len(cases) == 104
    _run_sweep("relation sweep", cases, 300.0)


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
    for spec in cli.SUITE_QUIVERS:
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
    # 200 complexes per handle, drawn from the "acceptance:{handle}:{t}"
    # corpus, a different one from any integer suite seed
    cases = cli.homotopy_cases(200, "acceptance")
    assert len(cases) == 4
    _run_sweep("homotopy invariants", cases, 300.0)


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
            code = cli.main(base + ["--threads", threads])
            out = capsys.readouterr().out
            assert code == 0, base
            json.loads(out)  # must be well-formed JSON
            outputs.append(out)
        assert outputs[0] == outputs[1] == outputs[2], base
        compared += 1
    with capsys.disabled():
        print(f"\nPASS determinism: {compared} commands byte-identical "
              f"at threads 1, 2, 4")
