"""Negative controls: each identity suite fails when one side is wrong.

A suite whose two sides cannot disagree checks nothing.  Each test here
breaks one producer of one side with `monkeypatch`, runs the suite's own
case factory, and asserts that cases fail with a detail that names the
case's block and the first coefficient where the sides differ.  Nothing in
the package changes; the patch is undone after each test.
"""

from __future__ import annotations

import re

from quiverchow import cli, extalg

# the detail of a failing `klr_block_check` case
BLOCK_MISMATCH = re.compile(r"block \(\(.*\),\(.*\)\) mismatch at u\^-?\d+$")


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
