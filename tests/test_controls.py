"""Negative controls: each identity suite fails when one side is wrong.

A suite whose two sides cannot disagree checks nothing.  Each test here
breaks one producer of one side with `monkeypatch`, runs the suite's own
case factory, and asserts how many cases fail and that each detail names
where the sides differ: the block and first coefficient for klr-match,
the composition and field for paving-oracle.  Nothing in the package
changes; the patch is undone after each test.
"""

from __future__ import annotations

import re

from quiverchow import cli, extalg, paving

# the detail of a failing `klr_block_check` case
BLOCK_MISMATCH = re.compile(r"block \(\(.*\),\(.*\)\) mismatch at u\^-?\d+$")
# the detail of a failing `paving_oracle_cases` class
COUNT_MISMATCH = re.compile(r"comp \S+, q=\d: count \d+ != poincare \d+$")


def _failures(cases) -> list[tuple[str, str]]:
    out = []
    for case_id, check in cases:
        ok, detail = check()
        if not ok:
            out.append((case_id, detail))
    return out


def test_klr_match_passes_unpatched():
    assert _failures(cli.klr_match_cases()) == []


def test_klr_match_catches_an_orbit_one_dimension_too_high(monkeypatch):
    # the stratum of a class with a segment longer than 1 is not semisimple
    real = extalg.orbit_dim

    def off_by_one(Q, M):
        return real(Q, M) + (1 if any(s.length > 1 for s in M.segments) else 0)

    monkeypatch.setattr(extalg, "orbit_dim", off_by_one)
    failed = _failures(cli.klr_match_cases())
    assert len(failed) == 23
    assert failed[0] == ("A2 1,1", "block ((1, 0),(1, 0)) mismatch at u^-2")
    assert all(BLOCK_MISMATCH.match(detail) for _, detail in failed), failed


def test_klr_match_catches_automorphism_exponents_one_too_low(monkeypatch):
    real = extalg.aut_series_exponents
    monkeypatch.setattr(extalg, "aut_series_exponents", lambda M: [m - 1 for m in real(M)])
    cases = cli.klr_match_cases()
    failed = dict(_failures(cases))
    assert len(failed) == len(cases) == 59
    for n in (1, 2, 3):
        assert failed.pop(f"nilhecke n={n}") == (
            f"gdim_geo differs from the closed form for n={n}"
        )
    assert failed["A2 0,1"] == "block ((1,),(1,)) mismatch at u^2"
    assert all(BLOCK_MISMATCH.match(detail) for detail in failed.values()), failed


def test_klr_match_catches_a_cartan_sign_flip(monkeypatch):
    # each inversion of letters a, b adds +cartan(a, b) instead of -cartan;
    # the nil Hecke closed form does not read `permutation_degrees`, and a
    # block on one strand has no inversion
    real = extalg.permutation_degrees

    def flipped(Q, i, j):
        return ((w, -deg) for w, deg in real(Q, i, j))

    monkeypatch.setattr(extalg, "permutation_degrees", flipped)
    failed = _failures(cli.klr_match_cases())
    assert len(failed) == 45
    assert failed[0] == ("A2 0,2", "block ((1, 1),(1, 1)) mismatch at u^-2")
    assert all(BLOCK_MISMATCH.match(detail) for _, detail in failed), failed


def test_paving_oracle_catches_a_cell_one_dimension_too_high(monkeypatch):
    # the recursion returns the top cell of a class with a segment longer
    # than 1 one dimension higher, its quotients' cells included; the cache
    # holds the slipped cells, so it is emptied before and after
    real = paving._cells

    def too_high(Q, M, parts):
        out = real(Q, M, parts)
        if out and any(s.length > 1 for s in M.segments):
            d, m = out[-1]
            out = out[:-1] + (((d, m - 1),) if m > 1 else ()) + ((d + 1, 1),)
        return out

    monkeypatch.setattr(paving, "_cells", too_high)
    paving._paving_cache.clear()
    try:
        failed = _failures(cli.paving_oracle_cases(3))
    finally:
        paving._paving_cache.clear()
    assert len(failed) == 39
    assert failed[0] == ("subregular", "poincare 1 + q + q^3, expected 1 + 2*q")
    assert failed[1] == ("A2 1,1 (1,2)", "comp 0,1;1,0, q=2: count 1 != poincare 2")
    assert all(COUNT_MISMATCH.match(detail) for _, detail in failed[1:]), failed
