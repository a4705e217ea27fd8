"""Command line surface: argument handling, schemas, exit codes.

Exit code contract: 0 success, 1 usage or parse errors, 2 for a
mathematical mismatch found by a check.  JSON output uses compact
separators and a schema tag, and must not depend on --threads.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import subprocess
import sys
import threading
import time
from math import comb

import pytest

import quiverchow
from quiverchow import cli, klrpoly, quiver
from quiverchow.cli import main
from quiverchow.homotopy import complex_to_json, parse_handle, random_complex
from quiverchow.nilrep import parse_multisegment, semisimple_class
from quiverchow.paving import count_points
from quiverchow.quiver import (
    DimVector,
    count_compositions,
    multinomial,
    parse_composition,
    parse_quiver,
)


def run_cli(capsys, *argv: str) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_orbits_lists_strata_with_dimensions(capsys):
    code, out = run_cli(capsys, "orbits", "--quiver", "cyclic:2",
                        "--dim", "1,1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "orbits/1"
    assert len(doc["orbits"]) == 3
    assert [row["orbit_dim"] for row in doc["orbits"]] == [0, 1, 1]


def test_paving_subregular_json_is_stable(capsys):
    code, out = run_cli(capsys, "paving", "--quiver", "cyclic:1", "--dim", "3",
                        "--rep", "(0,1)+(0,2)", "--comp", "1;1;1")
    assert code == 0
    assert out.strip() == (
        '{"schema":"paving/1","quiver":"cyclic:1","dim":[3],'
        '"rep":"(0,1)+(0,2)","comp":"1;1;1","cells":[0,1,1],'
        '"poincare":{"0":1,"1":2},"euler":3}')


def test_count_requires_prime_field(capsys):
    code, out = run_cli(capsys, "count", "--quiver", "cyclic:1", "--dim", "3",
                        "--rep", "(0,1)+(0,2)", "--comp", "1;1;1", "--q", "3")
    assert code == 0
    assert json.loads(out)["count"] == 7
    code, _ = run_cli(capsys, "count", "--quiver", "cyclic:1", "--dim", "3",
                      "--rep", "(0,1)+(0,2)", "--comp", "1;1;1", "--q", "4")
    assert code == 1


def test_gdim_compare_reports_match(capsys):
    code, out = run_cli(capsys, "gdim", "--quiver", "A2", "--dim", "1,1",
                        "--mode", "compare", "--word-i", "0,1",
                        "--word-j", "1,0", "--trunc", "12")
    assert code == 0
    doc = json.loads(out)
    assert doc["match"] is True
    assert doc["first_discrepancy"] is None


def test_gdim_geo_accepts_compositions(capsys):
    code, out = run_cli(capsys, "gdim", "--quiver", "A1", "--dim", "2",
                        "--mode", "geo", "--comp-i", "1;1", "--comp-j", "1;1",
                        "--trunc", "8")
    assert code == 0
    doc = json.loads(out)
    assert doc["series"]["coeffs"]["-2"] == 1
    assert doc["series"]["coeffs"]["0"] == 3


def test_gdim_table_threads_do_not_change_bytes(capsys):
    # the A3 table is the benchmark's 1,936 blocks, with their recorded bytes
    for argv, threads, digest in (
        (["--quiver", "A2", "--dim", "1,1", "--all-comps", "--trunc", "10"], ("1", "2", "4"), None),
        (["--quiver", "A3", "--dim", "1,2,1", "--all-comps"], ("1", "2"), "370091adaa657da2"),
    ):
        outs = []
        for t in threads:
            code, out = run_cli(capsys, "gdim-table", *argv, "--threads", t)
            assert code == 0
            outs.append(out)
        assert len(set(outs)) == 1, argv
        if digest is not None:
            assert hashlib.sha256(outs[0].encode()).hexdigest()[:16] == digest


def test_gdim_table_formats_and_shapes_bytes_are_pinned(capsys):
    # equal blocks share one series and one JSON dict in the document; the
    # text table, another truncation, a complete-word table and a cyclic
    # table keep the bytes they had with a dict per block, on one and two
    # threads
    for argv, digest in (
        (["--quiver", "A3", "--dim", "1,2,1", "--all-comps", "--format", "table"],
         "847e9c1018f32486"),
        (["--quiver", "A3", "--dim", "1,2,1", "--all-comps", "--trunc", "6"], "97b88044acbd3929"),
        (["--quiver", "A3", "--dim", "2,2,2"], "e6ddac751ce0fb6c"),
        (["--quiver", "cyclic:2", "--dim", "2,2", "--all-comps"], "e698b6302338b020"),
    ):
        for t in ("1", "2"):
            code, out = run_cli(capsys, "gdim-table", *argv, "--threads", t)
            assert code == 0, argv
            assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest, (argv, t)


def test_gdim_table_calls_gdim_geo_once_per_block(capsys, monkeypatch):
    # equal blocks share their decode inside `Strata`, not by skipping
    # calls: each block is still one `gdim_geo` call, on either thread count
    real = cli.gdim_geo
    calls = []

    def counted(Q, d, ci, cj, *rest):
        calls.append((str(ci), str(cj)))
        return real(Q, d, ci, cj, *rest)

    monkeypatch.setattr(cli, "gdim_geo", counted)
    for t in ("1", "2"):
        calls.clear()
        code, out = run_cli(capsys, "gdim-table", "--quiver", "A3", "--dim", "1,2,1",
                            "--all-comps", "--threads", t)
        assert code == 0
        blocks = [(b["i"], b["j"]) for b in json.loads(out)["blocks"]]
        assert len(blocks) == 1936
        assert sorted(calls) == sorted(blocks)


def test_gdim_command_set_bytes_are_pinned(capsys):
    # the benchmark's other two gdim parts, with their recorded bytes
    word = ",".join("0" * 7)
    for argv, digest in (
        (["suite", "klr-match"], "db74182ea5e0e53d"),
        (["gdim", "--quiver", "A1", "--dim", "7", "--mode", "geo",
          "--word-i", word, "--word-j", word], "982aa9c96c72aad6"),
    ):
        code, out = run_cli(capsys, *argv)
        assert code == 0, argv
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest, argv


def test_paving_oracle_bytes_are_pinned(capsys):
    # the oracle graphs are shared by the cases of a sweep; neither that nor
    # a second thread racing to build a node changes a byte
    outs = []
    for threads in ("1", "2"):
        code, out = run_cli(capsys, "suite", "paving-oracle", "--max-total", "3",
                            "--threads", threads)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    assert hashlib.sha256(outs[0].encode()).hexdigest()[:16] == "4ce5e29172fe1d5e"
    code, out = run_cli(capsys, "suite", "paving-oracle", "--max-total", "4")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == "6a3d5f763c36093e"


def test_klr_selftest_passes(capsys):
    code, out = run_cli(capsys, "klr-selftest", "--quiver", "A2",
                        "--dim", "1,1", "--trials", "5", "--seed", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "klr-selftest/1"
    assert doc["ok"] is True


def test_complex_validate_and_minimize_via_stdin(capsys, monkeypatch):
    doc = {
        "schema": "complex/1",
        "handle": "nilhecke:2",
        "generators": [[[0, 0], 0, 0], [[0, 0], 0, 1], [[0, 0], 1, 1]],
        "differential": [[1, 0, "e(0,0)"], [2, 0, "x1*e(0,0)"]],
    }
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
    code, out = run_cli(capsys, "complex", "--input", "-", "--op", "minimize")
    assert code == 0
    reduced = json.loads(out)
    assert reduced["schema"] == "complex/1"
    assert len(reduced["generators"]) == 1
    assert reduced["differential"] == []


def test_complex_validate_flags_bad_input_with_exit_2(capsys, tmp_path):
    bad = {
        "schema": "complex/1",
        "handle": "nilhecke:2",
        "generators": [[[0, 0], 0, 0], [[0, 0], 2, 1]],
        "differential": [[1, 0, "x1*e(0,0)"]],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, out = run_cli(capsys, "complex", "--input", str(path),
                        "--op", "validate")
    assert code == 2
    doc = json.loads(out)
    assert doc["ok"] is False and doc["problems"]


_TWO_GENS = [[[0, 0], 0, 0], [[0, 0], 0, 1]]


@pytest.mark.parametrize("doc, op", [
    ({"generators": _TWO_GENS}, "validate"),
    ([1, 2], "validate"),
    ({"handle": "nilhecke:2", "generators": _TWO_GENS,
      "differential": [[1, 0, "psi7"]]}, "validate"),
    ({"handle": "nilhecke:2", "generators": _TWO_GENS,
      "differential": [[1, 0, "1/0"]]}, "validate"),
    ({"handle": "nilhecke:2", "generators": _TWO_GENS,
      "differential": [[5, 0, "e(0,0)"]]}, "minimize"),
    ({"handle": "nilhecke:2", "generators": _TWO_GENS,
      "differential": [[1, 0, "(" * 400 + "x1" + ")" * 400]]}, "validate"),
    ({"handle": "klr:A2:1,1,1", "generators": [[[0, 1], 0, 0]]}, "validate"),
    ({"handle": "nilhecke:12", "generators": [[[0] * 12, 0, 0]]}, "validate"),
], ids=["missing-handle", "json-list", "crossing-out-of-range",
        "zero-denominator", "entry-out-of-range", "deep-parentheses",
        "dimension-vector-of-wrong-length", "handle-past-the-input-bound"])
def test_complex_bad_input_ends_in_one_error_line(capsys, tmp_path, doc, op):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    code = main(["complex", "--input", str(path), "--op", op])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


def test_complex_refuses_a_huge_exponent_quickly(capsys, tmp_path):
    # the bound is checked before the power is multiplied out
    path = tmp_path / "c.json"
    path.write_text(json.dumps({
        "handle": "nilhecke:2", "generators": _TWO_GENS,
        "differential": [[1, 0, "x1^99999"]],
    }))
    t0 = time.monotonic()
    code = main(["complex", "--input", str(path), "--op", "validate"])
    elapsed = time.monotonic() - t0
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "64" in captured.err
    assert captured.err.count("\n") == 1
    assert elapsed < 2.0, f"refusal took {elapsed:.1f}s"


def test_complex_refuses_a_power_of_a_sum_quickly(capsys, tmp_path):
    # formal products never collect terms: (x1+x2)^64 would have 2^64
    # terms, so the term bound refuses it before it multiplies out
    path = tmp_path / "c.json"
    path.write_text(json.dumps({
        "handle": "nilhecke:2", "generators": _TWO_GENS,
        "differential": [[1, 0, "(x1+x2)^64"]],
    }))
    t0 = time.monotonic()
    code = main(["complex", "--input", str(path), "--op", "validate"])
    elapsed = time.monotonic() - t0
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "term pairs" in captured.err
    assert captured.err.count("\n") == 1
    assert elapsed < 2.0, f"refusal took {elapsed:.1f}s"


def test_complex_refuses_deeply_nested_json(capsys, tmp_path):
    path = tmp_path / "c.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code = main(["complex", "--input", str(path), "--op", "validate"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


_FUZZ_ATOMS = {
    "nilhecke:2": ("x1", "x2", "psi1", "e(0,0)", "0", "1", "2", "1/2", "-3/4"),
    "smash:2": ("x1", "x2", "s1", "e", "0", "1", "2", "1/2", "-3/4"),
}
_FUZZ_NOISE = ("+", "-", "*", "^", "^2", "^70", "(", ")", ",", "/", "e",
               "e(0,1)", "psi2", "s1", "x3", "q")


def _fuzz_expression(rng: random.Random, atoms: tuple, depth: int = 0) -> str:
    roll = rng.random()
    if roll < 0.1:
        # token soup: mostly malformed
        return "".join(rng.choice(atoms + _FUZZ_NOISE)
                       for _ in range(rng.randint(1, 12)))
    if depth > 3 or roll < 0.4:
        return rng.choice(atoms)
    left = _fuzz_expression(rng, atoms, depth + 1)
    right = _fuzz_expression(rng, atoms, depth + 1)
    shape = rng.randrange(5)
    if shape == 0:
        return f"{left}{rng.choice('+-*')}{right}"
    if shape == 1:
        return f"({left}+{right})^{rng.randint(0, 66)}"
    if shape == 2:
        return f"-({left})"
    if shape == 3:
        return f"{left}*({right})"
    return f"({left})^{rng.randint(0, 4)}"


def test_complex_validate_fuzz_never_crashes(capsys, tmp_path):
    # every expression either validates (0), fails the check (2) or is
    # refused with one error line (1), in bounded time and without a traceback
    rng = random.Random(20240)
    gens = {"nilhecke:2": _TWO_GENS, "smash:2": [["e", 0, 0], ["e", 0, 1]]}
    path = tmp_path / "c.json"
    seen = set()
    for trial in range(300):
        handle = ("nilhecke:2", "smash:2")[trial % 2]
        expr = _fuzz_expression(rng, _FUZZ_ATOMS[handle])
        path.write_text(json.dumps({
            "handle": handle, "generators": gens[handle],
            "differential": [[1, 0, expr]],
        }))
        t0 = time.monotonic()
        code = main(["complex", "--input", str(path), "--op", "validate"])
        elapsed = time.monotonic() - t0
        captured = capsys.readouterr()
        assert code in (0, 1, 2), (handle, expr)
        assert "Traceback" not in captured.err, (handle, expr)
        if code == 1:
            assert captured.err.startswith("error: "), (handle, expr)
            assert captured.err.count("\n") == 1, (handle, expr)
        assert elapsed < 2.0, f"{handle} {expr!r} took {elapsed:.1f}s"
        seen.add(code)
    assert seen == {0, 1, 2}


_GEO_QUIVERS = ("A1", "A2", "A3", "cyclic:1", "cyclic:2", "cyclic:3")
_GEO_NOISE = ("", " ", ",", ";", "+", "(", ")", "-1", "x", ",,", "0", "()",
              "(0,0)", "(9,1)", "(-1,2)", "1;", "99")


def _noisy(rng: random.Random, text: str) -> str:
    roll = rng.random()
    if roll < 0.1:
        return "".join(rng.choice(_GEO_NOISE) for _ in range(rng.randint(1, 4)))
    if roll < 0.2:
        k = rng.randint(0, len(text))
        return text[:k] + rng.choice(_GEO_NOISE) + text[k:]
    return text


def _fuzz_geometric_argv(rng: random.Random) -> list[str]:
    """A paving, count, gdim or gdim-table command line on a small random
    representation, mostly well formed, with noise spliced into its
    --dim, --rep, --comp and --word-i/--word-j values."""
    spec = rng.choice(_GEO_QUIVERS) if rng.random() < 0.93 else rng.choice(
        ("A0", "B2", "cyclic:0", "cyclic:-1", "", "cyclic:x"))
    n = int(spec[-1]) if spec[-1:] in ("1", "2", "3") else rng.randint(1, 3)
    cyclic = spec.startswith("cyclic")
    command = rng.choice(("paving", "count", "gdim", "gdim-table"))
    segments = []
    for _ in range(rng.randint(0, 2 if command == "gdim-table" else 3)):
        v = rng.randrange(n) if rng.random() < 0.95 else rng.choice((-1, n))
        top = 3 if cyclic else v + 1 if 0 <= v < n else 2
        segments.append((v, rng.randint(1, top) if rng.random() < 0.95 else rng.choice((0, 4))))
    d = [0] * n
    for v, length in segments:
        for k in range(length):
            u = v - length + 1 + k
            d[u % n if cyclic else min(max(u, 0), n - 1)] += 1
    if rng.random() < 0.1:
        d[rng.randrange(n)] += rng.choice((-1, 1))
    argv = [command, "--quiver", spec, "--dim", _noisy(rng, ",".join(map(str, d)))]
    if command in ("paving", "count"):
        rep = "+".join(f"({v},{length})" for v, length in segments) or "0"
        parts = [[0] * n for _ in range(rng.randint(1, 4))]
        for v, dv in enumerate(d):
            for _ in range(max(dv, 0)):
                rng.choice(parts)[v] += 1
        comp = ";".join(",".join(map(str, p)) for p in parts if any(p) or rng.random() < 0.05)
        argv += ["--rep", _noisy(rng, rep), "--comp", _noisy(rng, comp)]
        if command == "count":
            argv += ["--q", rng.choice(("2", "3", "5", "4", "1", "x"))]
    elif command == "gdim":
        argv += ["--mode", rng.choice(("geo", "alg", "compare")),
                 "--trunc", rng.choice(("0", "4", "8"))]
        for flag in ("--word-i", "--word-j"):
            if rng.random() < 0.95:
                word = [v for v in range(n) for _ in range(max(d[v], 0))]
                rng.shuffle(word)
                if word and rng.random() < 0.1:
                    word[rng.randrange(len(word))] = rng.choice((-1, n))
                argv += [flag, _noisy(rng, ",".join(map(str, word)))]
    else:
        argv += ["--trunc", rng.choice(("0", "4"))]
        if rng.random() < 0.5:
            argv.append("--all-comps")
    return argv


def test_geometric_commands_fuzz_never_crash(capsys):
    # every command line ends in a JSON document (0) or one error line (1),
    # in bounded time and without a traceback; all run in this process
    rng = random.Random(20260)
    ran = set()
    for _ in range(300):
        argv = _fuzz_geometric_argv(rng)
        t0 = time.monotonic()
        try:
            code = main(argv)
        except Exception as exc:  # a traceback on the command line
            pytest.fail(f"{argv}: {exc!r}")
        elapsed = time.monotonic() - t0
        captured = capsys.readouterr()
        assert code in (0, 1), argv
        if code == 0:
            json.loads(captured.out)
            ran.add(argv[0])
        else:
            assert captured.out == "", argv
            lines = captured.err.splitlines()
            assert sum("error: " in line for line in lines) == 1, argv
            assert lines[-1].startswith(("error: ", f"quiverchow {argv[0]}: error: ")), argv
        assert elapsed < 2.0, f"{argv} took {elapsed:.1f}s"
    assert ran == {"paving", "count", "gdim", "gdim-table"}


def test_geometric_commands_refuse_a_large_total(capsys):
    # totals 992 and 199 are above cli.MAX_DIM_TOTAL: unbounded, 992
    # recursed past the interpreter's limit and 199 enumerated the
    # partitions of 199 for minutes; 64 points on the loop are inside it
    # but have more nilpotent classes than nilrep.MAX_STRATA
    for argv in (
        ["gdim-table", "--quiver", "A1", "--dim", "992", "--trunc", "0"],
        ["gdim-table", "--quiver", "cyclic:1", "--dim", "992", "--trunc", "4"],
        ["orbits", "--quiver", "cyclic:1", "--dim", "992"],
        ["gdim-table", "--quiver", "cyclic:1", "--dim", "199", "--trunc", "4"],
        ["gdim-table", "--quiver", "cyclic:1", "--dim", str(cli.MAX_DIM_TOTAL)],
    ):
        t0 = time.monotonic()
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1, argv
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, argv
        assert time.monotonic() - t0 < 2.0, argv


@pytest.mark.parametrize("argv", [
    ["suite", "relations", "--trials", "-3"],
    ["klr-selftest", "--quiver", "A2", "--dim", "1,1", "--trials", "0"],
    ["suite", "homotopy", "--count", "0"],
    ["gdim", "--quiver", "A1", "--dim", "2", "--mode", "geo",
     "--word-i", "0,0", "--word-j", "0,0", "--trunc", "-4"],
    ["suite", "paving-oracle", "--max-total", "-1"],
    ["suite", "relations", "--threads", "-3"],
    ["gdim-table", "--quiver", "A2", "--dim", "1,1", "--threads", "0"],
    ["gdim", "--quiver", "A2", "--dim", "1,1", "--mode", "compare",
     "--word-i", "0,1", "--word-j", "1,0", "--trunc", "1000000000"],
    ["suite", "relations", "--trials", str(cli.MAX_TRIALS + 1)],
    ["klr-selftest", "--quiver", "A2", "--dim", "1,1", "--trials", str(cli.MAX_TRIALS + 1)],
    ["suite", "homotopy", "--count", str(cli.MAX_TRIALS + 1)],
], ids=["trials", "selftest-trials", "count", "trunc", "max-total", "threads",
        "threads-zero", "trunc-huge", "trials-huge", "selftest-trials-huge", "count-huge"])
def test_out_of_range_flags_are_usage_errors(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "error: argument --" in captured.err


@pytest.mark.parametrize("argv", [
    ["klr-selftest", "--quiver", "A2", "--dim", "0,0"],
    ["gdim", "--quiver", "cyclic:1", "--dim", "2", "--mode", "compare",
     "--word-i", "0,0", "--word-j", "0,0"],
    ["suite", "relations", "--max-total", "0"],
], ids=["selftest-empty-dim", "compare-loop", "suite-no-cases"])
def test_out_of_domain_inputs_are_refused(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("argv, words", [
    (["klr-selftest", "--quiver", "A3", "--dim", "7,7,7", "--trials", "1"], "399072960 words"),
    (["klr-selftest", "--quiver", "A1", "--dim", "100000000"], "100000000 strands"),
    (["suite", "relations", "--max-total", "13"], "60060 words"),
    (["suite", "relations", "--max-total", "1000000"], "65 strands"),
], ids=["selftest-words", "selftest-strands", "suite-words", "suite-strands"])
def test_relation_suite_size_is_refused_before_any_word_is_listed(capsys, monkeypatch,
                                                                   argv, words):
    # A3 (7,7,7) has 21!/(7!)^3 words, far above the bound, and A1 at 10^8
    # strands would draw 10^8 exponents per trial; suite relations checks
    # every (Q, d) before its first case, so no relation suite runs either
    def refuse(*args):
        raise AssertionError("content_words ran")

    monkeypatch.setattr(klrpoly, "content_words", refuse)
    if argv[0] == "suite":
        monkeypatch.setattr(cli, "relation_suite", refuse)
    t0 = time.monotonic()
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert words in captured.err
    assert time.monotonic() - t0 < 1.0


def test_paving_oracle_total_above_the_bound_is_refused(capsys):
    assert cli.MAX_ORACLE_TOTAL == 5
    t0 = time.monotonic()
    for total in ("6", "30"):
        code = main(["suite", "paving-oracle", "--max-total", total])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == (f"error: suite paving-oracle --max-total {total} is above "
                                f"the bound of 5\n")
    assert time.monotonic() - t0 < 1.0
    # the bound itself is allowed: its cases are built (not run here)
    assert len(cli.paving_oracle_cases(5)) > len(cli.paving_oracle_cases(4))


def test_gdim_table_refuses_too_many_blocks_before_any_work(capsys):
    # A3 (3,3,3) has 64,324 compositions (about 4.1e9 blocks), at least
    # 2^8 by cutting one word into runs, and 1,680 words; none is
    # enumerated, and both tables are refused at once
    t0 = time.monotonic()
    for extra, blocks in ((["--all-comps"], "at least 4^8 blocks"), ([], str(1680**2))):
        code = main(["gdim-table", "--quiver", "A3", "--dim", "3,3,3"] + extra)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert blocks in captured.err
        assert str(cli.MAX_TABLE_BLOCKS) in captured.err
    assert time.monotonic() - t0 < 1.0
    # the largest tables in use stay allowed: 1,936 and 8,100 blocks
    assert count_compositions(DimVector((1, 2, 1))) ** 2 <= cli.MAX_TABLE_BLOCKS
    assert multinomial(DimVector((2, 2, 2))) ** 2 <= cli.MAX_TABLE_BLOCKS


def test_gdim_table_all_comps_refusal_skips_the_exact_count(capsys, monkeypatch):
    # 2^999 compositions at least: the lower bound refuses, so the exact
    # count (31 s at this size) is never called
    def boom(d):
        raise AssertionError("count_compositions called")

    monkeypatch.setattr(cli, "count_compositions", boom)
    code = main(["gdim-table", "--quiver", "A1", "--dim", "1000", "--all-comps"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert "4^999" in captured.err


def _no_count_work(monkeypatch):
    def boom(*args):
        raise AssertionError("count did work before refusing")

    monkeypatch.setattr(cli, "is_prime", boom)
    monkeypatch.setattr(cli, "count_points", boom)


def test_count_refuses_a_huge_q_before_the_primality_test(capsys, monkeypatch):
    # trial division of this prime was still running after 10 s
    _no_count_work(monkeypatch)
    t0 = time.monotonic()
    code = main(["count", "--quiver", "A1", "--dim", "1", "--rep", "(0,1)",
                 "--comp", "1", "--q", "1000000000000000003"])
    captured = capsys.readouterr()
    assert time.monotonic() - t0 < 1.0
    assert code == 1
    assert captured.out == ""
    last = captured.err.splitlines()[-1]
    assert "error: argument --q" in last and str(cli.MAX_Q) in last
    assert captured.err.count("error:") == 1


def test_count_refuses_too_many_flags_before_any_work(capsys, monkeypatch):
    # [3]_q! = (1 + q)(1 + q + q^2), about 10^12 flags at q = 10007
    _no_count_work(monkeypatch)
    t0 = time.monotonic()
    code = main(["count", "--quiver", "cyclic:1", "--dim", "3",
                 "--rep", "(0,1)+(0,1)+(0,1)", "--comp", "1;1;1", "--q", "10007"])
    captured = capsys.readouterr()
    assert time.monotonic() - t0 < 1.0
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert str(cli.MAX_COUNT_FLAGS) in captured.err


def test_paving_and_gdim_refuse_a_step_past_the_candidate_bound(capsys, monkeypatch):
    # "32;32" in the semisimple A1 class of total 64 has C(64, 32) first
    # steps, which the paving recursion would enumerate one by one
    def boom(*args):
        raise AssertionError("paving work before the refusal")

    monkeypatch.setattr(cli, "paving_cells", boom)
    monkeypatch.setattr(cli, "gdim_geo", boom)
    rep = "+".join(["(0,1)"] * 64)
    for argv in (
        ["paving", "--quiver", "A1", "--dim", "64", "--rep", rep, "--comp", "32;32"],
        ["gdim", "--quiver", "A1", "--dim", "64", "--mode", "geo",
         "--comp-i", "64", "--comp-j", "32;32"],
        ["gdim", "--quiver", "A1", "--dim", "64", "--mode", "geo",
         "--comp-i", "32;32", "--comp-j", "64", "--format", "table"],
    ):
        t0 = time.monotonic()
        code = main(argv)
        captured = capsys.readouterr()
        assert time.monotonic() - t0 < 1.0, argv
        assert code == 1, argv
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert str(comb(64, 32)) in captured.err and str(cli.MAX_PAVING_STEPS) in captured.err


def test_first_step_candidates_are_binomials_of_the_socle_room(capsys):
    # C(14, 7) = 3,432 is inside the bound and C(16, 8) = 12,870 is not; in
    # M = (0,8)+(0,8) a step has room for min(r, 2) socle lines, so C(2, 8)
    # = 0 candidates: no flag, and no refusal
    assert comb(14, 7) <= cli.MAX_PAVING_STEPS < comb(16, 8)
    for n, code in ((14, 0), (16, 1)):
        rep = "+".join(["(0,1)"] * n)
        got = main(["paving", "--quiver", "A1", "--dim", str(n), "--rep", rep,
                    "--comp", f"{n // 2};{n // 2}"])
        captured = capsys.readouterr()
        assert got == code, n
        if code == 0:
            assert json.loads(captured.out)["euler"] == comb(n, n // 2)
    code, out = run_cli(capsys, "paving", "--quiver", "cyclic:1", "--dim", "16",
                        "--rep", "(0,8)+(0,8)", "--comp", "8;8")
    assert code == 0 and json.loads(out)["cells"] == []


def test_paving_refuses_a_flag_type_past_the_cell_bound(capsys, monkeypatch):
    # "2;2;...;2" on the semisimple A1 class has n!/2^(n/2) cells and every
    # step within MAX_PAVING_STEPS: 2,520 at n = 8 print, 113,400 at n = 10
    # and about 3e79 at n = 64 are refused, the semisimple ones before the
    # paving recursion (5.9 s alone at n = 64 in-process, 2 cores, Python
    # 3.11); C(14, 7) is the largest count the other paving tests print
    assert max(comb(14, 7), 2_520) <= cli.MAX_PAVING_CELLS < 113_400
    for fmt in ("json", "table"):
        code, out = run_cli(capsys, "paving", "--quiver", "A1", "--dim", "8",
                            "--rep", "+".join(["(0,1)"] * 8), "--comp", "2;2;2;2",
                            "--format", fmt)
        assert code == 0
        assert ("2520" in out) if fmt == "table" else json.loads(out)["euler"] == 2_520
    paving_cells = cli.paving_cells

    def boom(*args):
        raise AssertionError("paving work before the refusal")

    for n in (10, 64):
        monkeypatch.setattr(cli, "paving_cells", boom)
        for fmt in ("json", "table"):
            t0 = time.monotonic()
            code = main(["paving", "--quiver", "A1", "--dim", str(n),
                         "--rep", "+".join(["(0,1)"] * n),
                         "--comp", ";".join(["2"] * (n // 2)), "--format", fmt])
            captured = capsys.readouterr()
            assert time.monotonic() - t0 < 1.0, n
            assert code == 1 and captured.out == ""
            assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
            assert str(cli.MAX_PAVING_CELLS) in captured.err
    # on a semisimple class the step binomials multiply to the cell count
    for spec, dim in (("A2", (2, 1)), ("A3", (1, 2, 1)), ("cyclic:2", (2, 2))):
        d = DimVector(dim)
        M = _semisimple(spec, dim)
        for comp in quiver.enumerate_compositions(d):
            assert cli._check_first_steps(comp, d.total) == paving_cells(
                parse_quiver(spec), M, comp).cell_count, (spec, str(comp))
    # a class that is not semisimple is refused on its counted cells: the
    # complete flags of (0,2)^5 on the loop are 10!/2^5 = 113,400 cells
    monkeypatch.setattr(cli, "paving_cells", paving_cells)
    code = main(["paving", "--quiver", "cyclic:1", "--dim", "10",
                 "--rep", "+".join(["(0,2)"] * 5), "--comp", ";".join(["1"] * 10)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert "113400 cells" in captured.err and captured.err.count("\n") == 1


def _semisimple(spec: str, dim: tuple[int, ...]):
    return semisimple_class(parse_quiver(spec), DimVector(dim))


def test_count_flag_bound_is_the_gaussian_binomial_product():
    # a semisimple M has a segment per dimension, so the socle bound never
    # binds: [3]_3! = 1 * 4 * 13; [2 choose 1]_5 at vertex 0, then 1s
    assert cli._flag_bound(_semisimple("cyclic:1", (3,)),
                           parse_composition("1;1;1", 1), 3) == 52
    assert cli._flag_bound(_semisimple("A2", (2, 1)),
                           parse_composition("1,1;1,0", 2), 5) == 6
    assert cli._flag_bound(_semisimple("cyclic:1", (0,)),
                           parse_composition("", 1), 5) == 1
    # [4 choose 2]_17 = 89,030 is the largest two-step type allowed at n = 4
    assert cli._flag_bound(_semisimple("cyclic:1", (4,)),
                           parse_composition("2;2", 1), 17) == 89_030
    assert cli._flag_bound(_semisimple("cyclic:1", (4,)),
                           parse_composition("2;2", 1), 19) is None
    # one part needs no enumeration, however large
    assert cli._flag_bound(_semisimple("cyclic:1", (1000,)),
                           parse_composition("1000", 1), 999_983) == 1


def test_count_flag_bound_reads_the_segments_of_m():
    LOOP = parse_quiver("cyclic:1")
    # two segments: each step chooses a line in at most a plane, (q+1)^2
    two = parse_multisegment("(0,1)+(0,2)")
    assert cli._flag_bound(two, parse_composition("1;1;1", 1), 101) == 102**2
    # one segment: its socle is one line at every step
    assert cli._flag_bound(parse_multisegment("(0,3)"),
                           parse_composition("1;1;1", 1), 999_983) == 1
    # a step wider than the socle bound: no flags, which is not a refusal
    assert cli._flag_bound(parse_multisegment("(0,3)"),
                           parse_composition("2;1", 1), 2) == 0
    assert cli._flag_bound(two, parse_composition("3", 1), 2) == 0
    # the bound holds: it is at least the count, on every type of total 4
    for M in ("(0,4)", "(0,3)+(0,1)", "(0,2)+(0,2)", "(0,2)+(0,1)+(0,1)"):
        M = parse_multisegment(M)
        for comp in ("1;1;1;1", "2;1;1", "1;2;1", "1;1;2", "2;2", "1;3", "3;1"):
            comp = parse_composition(comp, 1)
            for q in (2, 3):
                assert cli._flag_bound(M, comp, q) >= count_points(LOOP, M, comp, q)


def test_count_runs_a_type_that_is_cheap_in_m(capsys):
    # 1,050,906 flags in the ambient space, but only (q+1)^2 = 10,404 by
    # the segments of M: counted, 203 flags
    code, out = run_cli(capsys, "count", "--quiver", "cyclic:1", "--dim", "3",
                        "--rep", "(0,1)+(0,2)", "--comp", "1;1;1", "--q", "101")
    assert code == 0
    assert json.loads(out)["count"] == 203


@pytest.mark.parametrize("mode", ["alg", "compare"])
def test_gdim_refuses_a_block_past_the_permutation_bound(capsys, mode):
    # nine equal letters: 9! = 362,880 permutations, refused before the walk
    word = ",".join("0" * 9)
    t0 = time.monotonic()
    code = main(["gdim", "--quiver", "A1", "--dim", "9", "--mode", mode,
                 "--word-i", word, "--word-j", word, "--trunc", "4"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert "362880" in captured.err and "40320" in captured.err
    assert time.monotonic() - t0 < 1.0


def test_gdim_table_of_one_long_word_is_quick(capsys):
    # twelve equal letters make one word: the words are built one after
    # another, not filtered from the 12! permutations of the letters
    t0 = time.monotonic()
    code, out = run_cli(capsys, "gdim-table", "--quiver", "A1", "--dim", "12",
                        "--trunc", "0")
    elapsed = time.monotonic() - t0
    assert code == 0
    assert len(json.loads(out)["blocks"]) == 1
    assert elapsed < 2.0, f"one block took {elapsed:.1f}s"


def test_complex_ops_render_the_same_bytes(capsys, tmp_path):
    # pinned output of the parse -> operate -> render path: one SHA-256 over
    # the exit code and stdout of 250 runs, 5 ops on 10 seeded random
    # complexes per handle
    digest = hashlib.sha256()
    path = tmp_path / "c.json"
    t0 = time.monotonic()
    for spec in ("smash:2", "smash:3", "nilhecke:2", "klr:A2:1,1", "klr:cyclic:2:1,1"):
        handle = parse_handle(spec)
        for t in range(10):
            c = random_complex(handle, random.Random(f"corpus:{spec}:{t}"))
            path.write_text(json.dumps(complex_to_json(c)))
            for op in ("validate", "minimize", "cone-id", "truncate:0", "shift:1"):
                code, out = run_cli(capsys, "complex", "--input", str(path), "--op", op)
                digest.update(f"{spec} {t} {op} {code}\n{out}".encode())
    elapsed = time.monotonic() - t0
    assert digest.hexdigest() == (
        "4c39d9e579da914ae68000a1a019015afb7f2ba92e7e891fbb5bab1f556c874a"
    )
    assert elapsed < 2.0, f"the corpus took {elapsed:.1f}s"


def test_complex_truncate_emits_triangle(capsys, tmp_path):
    doc = {
        "schema": "complex/1",
        "handle": "smash:2",
        "generators": [["e", 0, 0], ["e", 0, 1]],
        "differential": [[1, 0, "s1"]],
    }
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(capsys, "complex", "--input", str(path),
                        "--op", "truncate:0")
    assert code == 0
    tri = json.loads(out)
    assert tri["schema"] == "complex-truncate/1"
    assert {g[2] for g in tri["upper"]["generators"]} == {1}
    assert {g[2] for g in tri["lower"]["generators"]} == {0}
    assert tri["inclusion"]


def test_gdim_alg_rejects_words_of_wrong_content(capsys):
    code = main(["gdim", "--quiver", "A2", "--dim", "1,1", "--mode", "alg",
                 "--word-i", "0,0", "--word-j", "0,0", "--trunc", "4"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


def test_suite_relations_small_run(capsys):
    code, out = run_cli(capsys, "suite", "relations", "--trials", "3",
                        "--max-total", "2", "--seed", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "suite/1"
    assert doc["ok"] is True
    assert doc["cases"] and all(case["ok"] for case in doc["cases"])


def test_relations_fold_inputs_do_not_depend_on_threads(monkeypatch, capsys):
    # the bytes are all PASS lines, so a race in the shared trial store
    # that changed a draw would show only in what the cases fold
    local = threading.local()
    real_suite, real_apply = cli.relation_suite, klrpoly._apply_terms
    folds: dict = {}

    def suite(Q, d, *args, **kwargs):
        local.h = folds[f"{Q} {d}"] = hashlib.sha256()
        return real_suite(Q, d, *args, **kwargs)

    def recorded(Q, terms, flat):
        local.h.update(repr((terms, sorted(flat.items()))).encode())
        return real_apply(Q, terms, flat)

    monkeypatch.setattr(cli, "relation_suite", suite)
    monkeypatch.setattr(klrpoly, "_apply_terms", recorded)
    runs = []
    for threads in ("1", "2"):
        folds.clear()
        code, _ = run_cli(capsys, "suite", "relations", "--trials", "10",
                          "--max-total", "4", "--threads", threads)
        assert code == 0
        runs.append({case: h.hexdigest() for case, h in folds.items()})
    assert runs[0] == runs[1]
    assert len(runs[0]) == len(cli.relations_cases(4, 10, 0))


def test_paving_oracle_cases_share_one_composition_list_per_d(monkeypatch):
    # built lazily, by the first case of each d
    calls = []

    def counted(d):
        calls.append(d)
        return quiver.enumerate_compositions(d)

    monkeypatch.setattr(cli, "enumerate_compositions", counted)
    cases = cli.paving_oracle_cases(2)
    assert calls == []
    serial = [fn() for _, fn in cases]
    assert all(ok for ok, _ in serial)
    assert len(cases) > len(calls) == len(set(calls)) > 1
    # two threads may both build a list; the verdicts are the same
    assert cli._fan_out(lambda case: case[1](), cli.paving_oracle_cases(2), 2) == serial


def test_suite_reports_a_failing_case(capsys, monkeypatch):
    # run_suite looks the factory up in cli's globals at call time
    def cases(max_total, trials, seed):
        return [("good", lambda: (True, "fine")),
                ("bad", lambda: (False, "x-commute: 1 failures; trial 0"))]
    monkeypatch.setattr(cli, "relations_cases", cases)
    code, out = run_cli(capsys, "suite", "relations")
    assert code == 2
    doc = json.loads(out)
    assert doc["ok"] is False
    assert doc["cases"][1] == {"case": "bad", "ok": False,
                               "detail": "x-commute: 1 failures; trial 0"}
    code, out = run_cli(capsys, "suite", "relations", "--format", "table")
    assert code == 2
    assert out.splitlines() == [
        "PASS good: fine",
        "FAIL bad: x-commute: 1 failures; trial 0",
        "suite relations: 1/2 passed",
    ]


def test_suite_rejects_unknown_name(capsys):
    code = main(["suite", "everything"])
    capsys.readouterr()
    assert code == 1


def test_usage_errors_exit_1(capsys):
    for argv in (
        ["orbits", "--quiver", "B7", "--dim", "1"],
        ["orbits", "--quiver", "A2", "--dim", "1,x"],
        ["paving", "--quiver", "cyclic:1", "--dim", "3",
         "--rep", "(0,1)+", "--comp", "1;1;1"],
        ["nonsense"],
        [],
    ):
        code = main(argv)
        capsys.readouterr()
        assert code == 1, argv


@pytest.mark.parametrize("argv", [
    ["orbits", "--quiver", "A2", "--dim", "1,1", "--threads", "2"],
    ["orbits", "--quiver", "A2", "--dim", "1,1", "--trunc", "4"],
    ["orbits", "--quiver", "A2", "--dim", "1,1", "--seed", "1"],
    ["paving", "--quiver", "cyclic:1", "--dim", "2", "--rep", "(0,2)",
     "--comp", "1;1", "--trunc", "4"],
    ["paving", "--quiver", "cyclic:1", "--dim", "2", "--rep", "(0,2)",
     "--comp", "1;1", "--threads", "2"],
    ["paving", "--quiver", "cyclic:1", "--dim", "2", "--rep", "(0,2)",
     "--comp", "1;1", "--seed", "1"],
    ["count", "--quiver", "cyclic:1", "--dim", "2", "--rep", "(0,2)",
     "--comp", "1;1", "--trunc", "4"],
    ["count", "--quiver", "cyclic:1", "--dim", "2", "--rep", "(0,2)",
     "--comp", "1;1", "--threads", "2"],
    ["count", "--quiver", "cyclic:1", "--dim", "2", "--rep", "(0,2)",
     "--comp", "1;1", "--seed", "1"],
    ["gdim", "--quiver", "A1", "--dim", "1", "--mode", "geo",
     "--word-i", "0", "--word-j", "0", "--threads", "2"],
    ["gdim", "--quiver", "A1", "--dim", "1", "--mode", "geo",
     "--word-i", "0", "--word-j", "0", "--seed", "1"],
    ["gdim-table", "--quiver", "A1", "--dim", "1", "--seed", "1"],
    ["klr-selftest", "--quiver", "A1", "--dim", "1", "--trunc", "4"],
    ["klr-selftest", "--quiver", "A1", "--dim", "1", "--threads", "2"],
    ["complex", "--input", "-", "--op", "validate", "--trunc", "4"],
    ["complex", "--input", "-", "--op", "validate", "--threads", "2"],
    ["complex", "--input", "-", "--op", "validate", "--seed", "1"],
], ids=lambda argv: f"{argv[0]}{argv[-2]}")
def test_subcommands_refuse_shared_flags_they_do_not_read(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.count("error: ") == 1
    assert f"unrecognized arguments: {argv[-2]} {argv[-1]}" in captured.err


def test_json_output_is_compact(capsys):
    _, out = run_cli(capsys, "count", "--quiver", "cyclic:1", "--dim", "2",
                     "--rep", "(0,2)", "--comp", "1;1", "--q", "2")
    assert ": " not in out and ", " not in out


def test_table_format_renders_text(capsys):
    code, out = run_cli(capsys, "paving", "--quiver", "cyclic:1", "--dim", "3",
                        "--rep", "(0,1)+(0,2)", "--comp", "1;1;1",
                        "--format", "table")
    assert code == 0
    assert "poincare" in out and "euler" in out and "{" not in out


def test_console_script_is_wired():
    proc = subprocess.run(
        ["quiverchow", "count", "--quiver", "cyclic:1", "--dim", "3",
         "--rep", "(0,1)+(0,2)", "--comp", "1;1;1", "--q", "2"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["count"] == 5


def test_module_runs_without_install():
    src = os.path.dirname(os.path.dirname(quiverchow.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "quiverchow", "count", "--quiver", "cyclic:1",
         "--dim", "3", "--rep", "(0,1)+(0,2)", "--comp", "1;1;1", "--q", "2"],
        capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["count"] == 5


def test_import_loads_neither_dataclasses_nor_the_thread_pool():
    src = os.path.dirname(os.path.dirname(quiverchow.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import sys, quiverchow, quiverchow.cli; "
            "print(sorted(m for m in ('dataclasses', 'inspect', 'concurrent.futures') "
            "if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_demos_run():
    src = os.path.dirname(os.path.dirname(quiverchow.__file__))
    demos = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    names = sorted(f for f in os.listdir(demos) if f.endswith(".py"))
    assert names == ["complexes.py", "graded_dimensions.py", "klr_action.py",
                     "orbits_and_pavings.py"]
    for name in names:
        proc = subprocess.run([sys.executable, os.path.join(demos, name)],
                              capture_output=True, text=True, timeout=120, env=env)
        assert proc.returncode == 0, (name, proc.stderr)
