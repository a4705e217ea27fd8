"""Command line surface for the package.

Subcommands: orbits, paving, count, gdim, gdim-table, klr-selftest,
complex, suite.  Output is JSON by default (one versioned document per
run, compact separators) or a plain table with --format table.  Exit codes:
0 on success, 1 on usage errors (bad flags, malformed quiver/composition/
multisegment strings, non-prime --q), 2 when a comparison or self-test
command finds a mismatch.  Runs are deterministic given flags and --seed;
--threads only fans out independent cases and never changes output bytes.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import sys
from math import comb, prod
from typing import NamedTuple

from .extalg import Strata, compare_block, gdim_alg_klr, gdim_geo
from .homotopy import (
    complex_from_json,
    complex_to_json,
    complexes_equal,
    cone,
    euler_symbol,
    identity_map,
    minimize,
    parse_handle,
    random_complex,
    shift,
    twist,
    validate,
    weight_truncate,
)
from .klrpoly import TrialStreams, check_suite_size, inversions, relation_suite
from .nilrep import (
    Multisegment,
    Segment,
    aut_series_exponents,
    enumerate_nilreps,
    orbit_dim,
    parse_multisegment,
)
from .paving import EchelonForms, FqGraph, FqOracle, count_points, is_prime, paving_cells
from .quiver import (
    Composition,
    DimVector,
    Quiver,
    content_words,
    count_compositions,
    enumerate_complete_comps,
    enumerate_compositions,
    multinomial,
    parse_composition,
    parse_dimvector,
    parse_quiver,
    parse_word,
)
from .series import DEFAULT_TRUNC, HalfLaurentSeries, bgl, first_discrepancy

INF = float("inf")

# orbits, paving, count, gdim and gdim-table refuse a dimension vector of
# larger total before any work: the paving recursion and the oracle go one
# level deeper per flag step, up to total(d) levels (the same bound as the
# strands of klrpoly.MAX_SUITE_STRANDS).
MAX_DIM_TOTAL = 64

# --trunc above this is refused: a truncated product is held as one dense
# list over the exponents up to --trunc.
MAX_TRUNC = 1000

# gdim-table computes one gdim_geo per block, the square of the number of
# compositions; a larger table is refused before any composition is built.
MAX_TABLE_BLOCKS = 10_000

# count: --q above this is refused before the primality test, whose trial
# division grows with q.
MAX_Q = 10**6

# count enumerates the graded subspaces of each flag step over F_q; a flag
# type whose bound from M (the product of Gaussian binomials at q in
# `_flag_bound`) exceeds this is refused before any work.
MAX_COUNT_FLAGS = 100_000

# paving and gdim --mode geo enumerate, at each flag step, every choice of
# socle lines for the step; a flag type with a step of more such candidates
# (`_check_first_steps`) is refused before any work.  A candidate
# cost 25-70 us at total 10-16 and 40-150 us at total 32-64 (one quotient
# each; A1 and cyclic:1, 2 cores, Python 3.11), so a step stays under 1 s.
MAX_PAVING_STEPS = 5_000

# paving prints every cell once (the `cells` list, or the table's line),
# 3-4 bytes each for A1 at total 7-14 (a 10,000-cell document is about 40
# KB); a flag type with more cells is refused before that list is built,
# and on a semisimple M before the paving recursion.
MAX_PAVING_CELLS = 10_000

# --trials (relation trials per family) and --count (complexes per homotopy
# handle) above this are usage errors.
MAX_TRIALS = 10_000

# suite paving-oracle: a --max-total above this is refused before any case
# is built; 5 takes 1.6-1.7 s as a process on a 2-core machine (Python 3.11.7),
# and each unit more multiplies the multisegments, compositions and flags
# to count.
MAX_ORACLE_TOTAL = 5


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _series_json(s: HalfLaurentSeries) -> dict:
    """A graded dimension as JSON; its coefficients are `int`s (canonical
    form, see `series`), which json writes as they are."""
    return {
        "trunc": None if s.trunc == INF else s.trunc,
        "coeffs": {str(e): c for e, c in s.coeffs},
    }


def _dumps(doc: dict) -> str:
    return json.dumps(doc, separators=(",", ":"))


# ---------------------------------------------------------------------------
# flag plumbing


def _int_at_least(low: int, high: int | None = None):
    """argparse type: an integer >= low, and <= high when given."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid integer {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}, got {value}")
        return value
    return parse


def _shared_flags(p: argparse.ArgumentParser, *names: str) -> None:
    """--format, plus those of --trunc, --threads and --seed that `names`
    lists; a subcommand registers only the shared flags it reads."""
    if "trunc" in names:
        p.add_argument("--trunc", type=_int_at_least(0, MAX_TRUNC), default=DEFAULT_TRUNC,
                       help=f"series truncation exponent in u (default 24, "
                            f"at most {MAX_TRUNC})")
    p.add_argument("--format", choices=("json", "table"), default="json")
    if "threads" in names:
        p.add_argument("--threads", type=_int_at_least(1), default=1,
                       help="worker pool size for independent cases")
    if "seed" in names:
        p.add_argument("--seed", type=int, default=0)


def _quiver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--quiver", required=True, help='"A<n>" or "cyclic:<n>"')
    p.add_argument("--dim", required=True, help='dimension vector, e.g. "1,2,1"')


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="quiverchow", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("orbits", help="nilpotent classes with orbit data")
    _quiver_flags(p)
    _shared_flags(p)

    p = sub.add_parser("paving", help="paving cells of one flag variety")
    _quiver_flags(p)
    p.add_argument("--rep", required=True, help='multisegment, e.g. "(0,2)+(0,1)"')
    p.add_argument("--comp", required=True, help='composition, e.g. "1,0;0,1"')
    _shared_flags(p)

    p = sub.add_parser("count", help="point count of one flag variety over F_q")
    _quiver_flags(p)
    p.add_argument("--rep", required=True)
    p.add_argument("--comp", required=True)
    p.add_argument("--q", type=_int_at_least(2, MAX_Q), default=2,
                   help=f"prime field size (at most {MAX_Q})")
    _shared_flags(p)

    p = sub.add_parser("gdim", help="graded dimension of one block")
    _quiver_flags(p)
    p.add_argument("--mode", choices=("geo", "alg", "compare"), required=True)
    p.add_argument("--word-i", help='complete word, e.g. "0,1"')
    p.add_argument("--word-j", help='complete word, e.g. "1,0"')
    p.add_argument("--comp-i", help="composition (geo mode only)")
    p.add_argument("--comp-j", help="composition (geo mode only)")
    _shared_flags(p, "trunc")

    p = sub.add_parser("gdim-table", help="geometric series for every block")
    _quiver_flags(p)
    p.add_argument("--all-comps", action="store_true",
                   help="all compositions, not only complete ones")
    _shared_flags(p, "trunc", "threads")

    p = sub.add_parser("klr-selftest", help="relation suite on one algebra")
    _quiver_flags(p)
    p.add_argument("--trials", type=_int_at_least(1, MAX_TRIALS), default=100,
                   help=f"relation trials per family (at most {MAX_TRIALS})")
    _shared_flags(p, "seed")

    p = sub.add_parser("complex", help="operate on a JSON chain complex")
    p.add_argument("--handle",
                   help='algebra handle, e.g. "nilhecke:2", "klr:A2:1,1", '
                        '"smash:2" (defaults to the document handle)')
    p.add_argument("--input", required=True, help="JSON file path, or - for stdin")
    p.add_argument("--op", required=True,
                   help="validate | minimize | cone-id | shift:N | twist:N | truncate:N")
    _shared_flags(p)

    p = sub.add_parser("suite", help="run a named acceptance battery")
    p.add_argument("name", choices=("paving-oracle", "klr-match", "relations", "homotopy"))
    p.add_argument("--max-total", type=_int_at_least(0), default=4,
                   help=f"dimension bound for paving-oracle (at most {MAX_ORACLE_TOTAL}) "
                        f"and relations")
    p.add_argument("--trials", type=_int_at_least(1, MAX_TRIALS), default=100,
                   help=f"relation trials per family (at most {MAX_TRIALS})")
    p.add_argument("--count", type=_int_at_least(1, MAX_TRIALS), default=200,
                   help=f"homotopy corpus size per handle (at most {MAX_TRIALS})")
    _shared_flags(p, "trunc", "threads", "seed")

    return parser


# ---------------------------------------------------------------------------
# small commands


def _bounded_total(d: DimVector) -> DimVector:
    if d.total > MAX_DIM_TOTAL:
        raise ValueError(
            f"dimension vector {d} has total {d.total}, above the bound of {MAX_DIM_TOTAL}"
        )
    return d


def cmd_orbits(args) -> tuple[int, str]:
    Q = parse_quiver(args.quiver)
    d = _bounded_total(parse_dimvector(args.dim))
    rows = [
        {
            "rep": str(M),
            "orbit_dim": orbit_dim(Q, M),
            "aut_exponents": list(aut_series_exponents(M)),
        }
        for M in enumerate_nilreps(Q, d)
    ]
    rows.sort(key=lambda r: (r["orbit_dim"], r["rep"]))
    if args.format == "table":
        lines = [f"{r['rep']}\torbit_dim={r['orbit_dim']}\taut={r['aut_exponents']}" for r in rows]
        return 0, "\n".join(lines)
    doc = {
        "schema": "orbits/1",
        "quiver": str(Q),
        "dim": list(d),
        "orbits": rows,
    }
    return 0, _dumps(doc)


def _parse_rep(Q: Quiver, d: DimVector, text: str) -> Multisegment:
    M = parse_multisegment(text)
    for seg in M:
        if not seg.valid_on(Q):
            raise ValueError(f"segment {seg} does not fit on {Q}")
    if tuple(M.dim_vector(Q)) != tuple(d):
        raise ValueError(f"multisegment {M} has dimension {M.dim_vector(Q)}, not {d}")
    return M


def cmd_paving(args) -> tuple[int, str]:
    Q = parse_quiver(args.quiver)
    d = _bounded_total(parse_dimvector(args.dim))
    M = _parse_rep(Q, d, args.rep)
    comp = parse_composition(args.comp, Q.n)
    bound = _check_first_steps(comp, len(M.segments))
    if M.is_semisimple() and comp.target == d:
        _check_cell_count(comp, bound)
    cells = paving_cells(Q, M, comp)
    _check_cell_count(comp, cells.cell_count)
    if args.format == "table":
        return 0, f"cells: {list(cells.dims)}\npoincare: {cells}\neuler: {cells.cell_count}"
    doc = {
        "schema": "paving/1",
        "quiver": str(Q),
        "dim": list(d),
        "rep": str(M),
        "comp": str(comp),
        "cells": list(cells.dims),
        "poincare": {str(e): c for e, c in cells.counts},
        "euler": cells.cell_count,
    }
    return 0, _dumps(doc)


def _steps(comp: Composition, socle: int):
    """(room, part) for every step of comp: room[v] = min(r_v, socle), with
    r_v the dimension left at v before the step."""
    remaining = list(comp.target)
    for part in comp.parts:
        yield [min(r, socle) for r in remaining], part
        remaining = [r - k for r, k in zip(remaining, part)]


def _flag_bound(M: Multisegment, comp: Composition, q: int) -> int | None:
    """An upper bound on the flags of type comp in M over F_q, and on the
    subspaces the oracle enumerates: the product over steps and vertices of
    the Gaussian binomials [min(r_v, s) choose k_v]_q, with r_v the dimension
    left at v before the step, k_v its size and s the number of segments of
    M.  Each step is a subspace of the socle of a quotient of M, and that
    socle has at most s lines: a nilpotent representation of a linear or
    cyclic quiver has one socle line per summand, and a quotient of M has
    at most as many summands as M, whose top has s lines.

    0 at the first step that exceeds this (there is no flag, and the steps
    before it were within the bound); None once the product is known to
    exceed MAX_COUNT_FLAGS, where [r choose k]_q >= q^(k(r-k)) stops that
    before any large factor is formed."""
    total = 1
    for room, part in _steps(comp, len(M.segments)):
        if any(k > r for k, r in zip(part, room)):
            return 0
        for r, k in zip(room, part):
            k = min(k, r - k)
            if k * (r - k) >= MAX_COUNT_FLAGS.bit_length():
                return None
            num = den = 1
            for t in range(k):
                num *= q ** (r - t) - 1
                den *= q ** (t + 1) - 1
            total *= num // den
            if total > MAX_COUNT_FLAGS:
                return None
    return total


def _check_first_steps(comp: Composition, socle: int) -> int:
    """Refuse comp when one of its steps has more than MAX_PAVING_STEPS
    candidate first steps in a representation with `socle` segments: the
    product over vertices of C(min(r_v, socle), k_v), the factor of
    `_flag_bound` at q = 1, which bounds the socle line subsets the paving
    recursion enumerates for that step.

    Returns the product of those counts over the steps, a bound on the
    cells of comp.  On a semisimple M of dimension comp.target it is their
    number: there every r_v is at most `socle`, and every choice of socle
    lines is a cell whose quotient is semisimple again."""
    total = 1
    for room, part in _steps(comp, socle):
        count = prod(comb(r, k) for r, k in zip(room, part))
        if count > MAX_PAVING_STEPS:
            raise ValueError(
                f"flag type {comp} has a step with {count} candidate first steps "
                f"(binomials C(min(r_v, {socle}), k_v)), above the bound of {MAX_PAVING_STEPS}"
            )
        total *= count
    return total


def _check_cell_count(comp: Composition, count: int) -> None:
    if count > MAX_PAVING_CELLS:
        raise ValueError(
            f"flag type {comp} has {count} cells, above the bound of {MAX_PAVING_CELLS} "
            f"that paving prints"
        )


def cmd_count(args) -> tuple[int, str]:
    Q = parse_quiver(args.quiver)
    d = _bounded_total(parse_dimvector(args.dim))
    M = _parse_rep(Q, d, args.rep)
    comp = parse_composition(args.comp, Q.n)
    if _flag_bound(M, comp, args.q) is None:
        raise ValueError(
            f"flags of type {comp} in {M} over F_{args.q} may number more than "
            f"{MAX_COUNT_FLAGS} (a product of Gaussian binomials at q), above the "
            f"bound of count"
        )
    if not is_prime(args.q):
        raise ValueError(f"--q must be prime, got {args.q}")
    n = count_points(Q, M, comp, args.q)
    if args.format == "table":
        return 0, f"|Fl(M)({args.q})| = {n}"
    doc = {
        "schema": "count/1",
        "quiver": str(Q),
        "dim": list(d),
        "rep": str(M),
        "comp": str(comp),
        "q": args.q,
        "count": n,
    }
    return 0, _dumps(doc)


def cmd_gdim(args) -> tuple[int, str]:
    Q = parse_quiver(args.quiver)
    d = _bounded_total(parse_dimvector(args.dim))
    N = args.trunc
    doc = {"schema": "gdim/1", "quiver": str(Q), "dim": list(d), "mode": args.mode,
           "trunc": N}
    code = 0
    if args.mode == "geo":
        ci = _geo_comp(Q, args.comp_i, args.word_i, "--comp-i/--word-i")
        cj = _geo_comp(Q, args.comp_j, args.word_j, "--comp-j/--word-j")
        # the semisimple stratum has total(d) segments, the most of any; a
        # word's steps have at most total(d) candidates each, so the words of
        # mode compare never reach the bound
        for c in (ci, cj):
            _check_first_steps(c, d.total)
        series = gdim_geo(Q, d, ci, cj, N)
        doc.update({"i": str(ci), "j": str(cj), "series": _series_json(series)})
        lines = [f"gdim_geo[{ci} | {cj}] = {series}"]
    else:
        if args.word_i is None or args.word_j is None:
            raise ValueError(f"mode {args.mode} needs --word-i and --word-j")
        i = parse_word(args.word_i)
        j = parse_word(args.word_j)
        if args.mode == "alg":
            series = gdim_alg_klr(Q, d, i, j, N)
            doc.update({
                "i": ",".join(map(str, i)),
                "j": ",".join(map(str, j)),
                "series": _series_json(series),
            })
            lines = [f"gdim_alg[{i} | {j}] = {series}"]
        else:
            rep = compare_block(Q, d, i, j, N)
            doc.update({
                "i": ",".join(map(str, i)),
                "j": ",".join(map(str, j)),
                "geometric": _series_json(rep.geometric),
                "algebraic": _series_json(rep.algebraic),
                "shift": rep.shift,
                "match": rep.normalized_match,
                "first_discrepancy": rep.first_discrepancy,
            })
            lines = [
                f"geometric: {rep.geometric}",
                f"algebraic: {rep.algebraic}",
                f"shift: u^{rep.shift}",
                f"match: {rep.normalized_match}",
            ]
            if not rep.normalized_match:
                lines.append(f"first discrepancy at u^{rep.first_discrepancy}")
                code = 2
    return code, "\n".join(lines) if args.format == "table" else _dumps(doc)


def _geo_comp(Q: Quiver, comp_text, word_text, flag: str) -> Composition:
    if comp_text is not None:
        return parse_composition(comp_text, Q.n)
    if word_text is not None:
        return Composition.from_word(parse_word(word_text), Q.n)
    raise ValueError(f"mode geo needs {flag}")


def cmd_gdim_table(args) -> tuple[int, str]:
    Q = parse_quiver(args.quiver)
    d = parse_dimvector(args.dim)
    N = args.trunc
    # every cut of one word into runs is a composition, so there are at
    # least 2^(total-1); past the bound that refuses before the exact count
    if args.all_comps and d.total > 0 and 4 ** (d.total - 1) > MAX_TABLE_BLOCKS:
        raise ValueError(
            f"gdim-table would compute at least 4^{d.total - 1} blocks (at least "
            f"2^{d.total - 1} compositions squared), above the bound of {MAX_TABLE_BLOCKS}"
        )
    _bounded_total(d)
    n_comps = count_compositions(d) if args.all_comps else multinomial(d)
    if n_comps**2 > MAX_TABLE_BLOCKS:
        raise ValueError(
            f"gdim-table would compute {n_comps**2} blocks ({n_comps} compositions "
            f"squared), above the bound of {MAX_TABLE_BLOCKS}"
        )
    if args.all_comps:
        comps = enumerate_compositions(d)
    else:
        comps = enumerate_complete_comps(Q, d)
    # blocks in the order of (str(i), str(j)); the names are distinct
    named = sorted(((str(c), c) for c in comps), key=lambda nc: nc[0])
    # one stratification per table, every pack filled before the fan-out
    strata = Strata(Q, d)
    for _, c in named:
        strata.pack(c, N)
    pairs = [(i, j) for i in named for j in named]

    def one(pair):
        (_, ci), (_, cj) = pair
        return gdim_geo(Q, d, ci, cj, N, strata)

    series_list = _fan_out(one, pairs, args.threads)
    # equal blocks are one shared series: each distinct one becomes JSON once
    as_json = {s: _series_json(s) for s in set(series_list)}
    blocks = [
        {"i": ni, "j": nj, "series": as_json[s]}
        for ((ni, _), (nj, _)), s in zip(pairs, series_list)
    ]
    if args.format == "table":
        lines = [f"[{b['i']} | {b['j']}]  " + _series_str(b) for b in blocks]
        return 0, "\n".join(lines)
    doc = {
        "schema": "gdim-table/1",
        "quiver": str(Q),
        "dim": list(d),
        "trunc": N,
        "all_comps": bool(args.all_comps),
        "blocks": blocks,
    }
    return 0, _dumps(doc)


def _series_str(block: dict) -> str:
    coeffs = block["series"]["coeffs"]
    return " ".join(f"u^{e}:{c}" for e, c in coeffs.items()) or "0"


def cmd_klr_selftest(args) -> tuple[int, str]:
    Q = parse_quiver(args.quiver)
    d = parse_dimvector(args.dim)
    report = relation_suite(Q, d, trials=args.trials, seed=args.seed)
    doc = {
        "schema": "klr-selftest/1",
        "quiver": str(Q),
        "dim": list(d),
        "trials": args.trials,
        "seed": args.seed,
        "relations": [
            {
                "name": v.name,
                "trials": v.trials,
                "failures": v.failures,
                "witness": v.witness,
            }
            for v in report.verdicts
        ],
        "ok": report.ok,
    }
    if args.format == "table":
        lines = [
            f"{'PASS' if v.failures == 0 else 'FAIL'} {v.name} "
            f"({v.trials} trials, {v.failures} failures)"
            + (f" witness: {v.witness}" if v.witness else "")
            for v in report.verdicts
        ]
        return (0 if report.ok else 2), "\n".join(lines)
    return (0 if report.ok else 2), _dumps(doc)


def cmd_complex(args) -> tuple[int, str]:
    if args.input == "-":
        text = sys.stdin.read()
    else:
        with open(args.input, "r", encoding="utf-8") as fh:
            text = fh.read()
    try:
        doc = json.loads(text)
    except RecursionError:
        raise ValueError("input JSON is nested too deeply") from None
    handle = parse_handle(args.handle) if args.handle else None
    c = complex_from_json(doc, handle)
    op = args.op
    if op == "validate":
        report = validate(c)
        out = {
            "schema": "complex-validate/1",
            "handle": c.handle.name,
            "equality_bound": None,
            "ok": report.ok,
            "problems": list(report.problems),
        }
        if args.format == "table":
            body = "ok" if report.ok else "\n".join(report.problems)
            return (0 if report.ok else 2), body
        return (0 if report.ok else 2), _dumps(out)
    if op == "minimize":
        result = minimize(c)
    elif op == "cone-id":
        result = cone(identity_map(c))
    elif op.startswith("shift:"):
        result = shift(c, int(op.split(":", 1)[1]))
    elif op.startswith("twist:"):
        result = twist(c, int(op.split(":", 1)[1]))
    elif op.startswith("truncate:"):
        n = int(op.split(":", 1)[1])
        upper, lower, inclusion = weight_truncate(c, n)
        out = {
            "schema": "complex-truncate/1",
            "at": n,
            "upper": complex_to_json(upper),
            "lower": complex_to_json(lower),
            "inclusion": [
                [row, col, c.handle.render(el)]
                for (row, col), el in sorted(inclusion.entries.items())
            ],
        }
        return 0, _table_complexes(out) if args.format == "table" else _dumps(out)
    else:
        raise ValueError(f"unknown complex op {op!r}")
    out = complex_to_json(result)
    if args.format == "table":
        return 0, _render_complex_table(out)
    return 0, _dumps(out)


def _render_complex_table(doc: dict) -> str:
    lines = [f"handle: {doc['handle']}"]
    lines.append("generators:")
    for k, (idem, s, cd) in enumerate(doc["generators"]):
        lines.append(f"  {k}: e{idem} <{s}> @ {cd}")
    lines.append("differential:")
    for row, col, expr in doc["differential"]:
        lines.append(f"  ({row},{col}): {expr}")
    return "\n".join(lines)


def _table_complexes(doc: dict) -> str:
    parts = [f"truncated at {doc['at']}"]
    parts.append("upper:\n" + _render_complex_table(doc["upper"]))
    parts.append("lower:\n" + _render_complex_table(doc["lower"]))
    return "\n".join(parts)


# ---------------------------------------------------------------------------
# suites


class CaseResult(NamedTuple):
    case: str
    ok: bool
    detail: str


class SuiteResult(NamedTuple):
    name: str
    cases: tuple[CaseResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.cases)


def _fan_out(fn, items, threads: int) -> list:
    if threads and threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


SUITE_QUIVERS = ("A1", "A2", "A3", "cyclic:1", "cyclic:2", "cyclic:3")
HOMOTOPY_HANDLES = ("nilhecke:2", "klr:A2:1,1", "klr:cyclic:2:1,1", "smash:2")


def _dim_vectors(n: int, total: int):
    if n == 1:
        yield DimVector((total,))
        return
    for first in range(total + 1):
        for rest in _dim_vectors(n - 1, total - first):
            yield DimVector((first,) + tuple(rest))


def paving_oracle_cases(max_total: int = 4):
    """One case per (quiver, multisegment): Poincaré polynomial equals the
    point-count oracle at q in {2,3,5} for every composition, with one
    `FqOracle` per q shared by the compositions; plus the named subregular
    case with its frozen oracle values.  A max_total above
    MAX_ORACLE_TOTAL is refused.

    Every oracle of a quiver at one q, the subregular case's included,
    counts through one `FqGraph` of that (quiver, q), made empty here and
    filled only while the cases run, so a class reuses the literal
    quotients that earlier classes of its quiver left; the graphs of one q
    read their Grassmannian echelon lists from one `EchelonForms(q)`.  The
    graphs live as long as the case list; each count is still a direct
    enumeration on literal matrices.  Cases on several threads may both
    build a node or a list, and either copy counts correctly."""
    if max_total > MAX_ORACLE_TOTAL:
        raise ValueError(
            f"suite paving-oracle --max-total {max_total} is above the bound of "
            f"{MAX_ORACLE_TOTAL}"
        )
    cases = []
    # one composition list per d, built by the first case that needs it;
    # two threads may both build it, and either equal list serves
    comps_of: dict = {}
    echelons = {q: EchelonForms(q) for q in (2, 3, 5)}
    graphs = {
        (qspec, q): FqGraph(parse_quiver(qspec), q, echelons[q])
        for qspec in SUITE_QUIVERS for q in (2, 3, 5)
    }

    def subregular():
        Q = parse_quiver("cyclic:1")
        M = parse_multisegment("(0,2)+(0,1)")
        comp = parse_composition("1;1;1", 1)
        P = paving_cells(Q, M, comp)
        want = {(0, 1), (1, 2)}
        got = set(P.counts)
        c2, c3 = (
            count_points(Q, M, comp, q, FqOracle(Q, M, q, graphs[("cyclic:1", q)]))
            for q in (2, 3)
        )
        if got != want:
            return False, f"poincare {P}, expected 1 + 2*q"
        if (c2, c3) != (5, 7):
            return False, f"counts ({c2},{c3}), expected (5,7)"
        return True, "1 + 2*q; F_2 = 5, F_3 = 7"

    cases.append(("subregular", subregular))

    for qspec in SUITE_QUIVERS:
        Q = parse_quiver(qspec)
        for total in range(0, max_total + 1):
            for d in _dim_vectors(Q.n, total):
                for M in enumerate_nilreps(Q, d):
                    def check(Q=Q, qspec=qspec, d=d, M=M):
                        oracles = {
                            q: FqOracle(Q, M, q, graphs[(qspec, q)]) for q in (2, 3, 5)
                        }
                        comps = comps_of.get(d)
                        if comps is None:
                            comps = comps_of[d] = enumerate_compositions(d)
                        for comp in comps:
                            P = paving_cells(Q, M, comp)
                            for q, oracle in oracles.items():
                                got = count_points(Q, M, comp, q, oracle)
                                want = P.evaluate(q)
                                if got != want:
                                    return False, (
                                        f"comp {comp}, q={q}: "
                                        f"count {got} != poincare {want}"
                                    )
                        return True, "all compositions at q in {2,3,5}"
                    cases.append((f"{qspec} {d} {M}", check))
    return cases


def klr_match_cases(trunc: int = DEFAULT_TRUNC):
    """One case per (quiver, d): every complete block matches after the
    normalization shift, and the transpose symmetry holds; plus the nil
    Hecke closed form for one vertex."""
    cases = []

    def nilhecke(n: int):
        def check():
            Q = parse_quiver("A1")
            d = DimVector((n,))
            comp = Composition.from_word((0,) * n, 1)
            geo = gdim_geo(Q, d, comp, comp, trunc)
            coeffs: dict[int, int] = {}
            for w in itertools.permutations(range(n)):
                inv = inversions(w)
                coeffs[-2 * inv] = coeffs.get(-2 * inv, 0) + 1
            m0 = min(coeffs)
            want = (
                HalfLaurentSeries.from_map(coeffs)
                .mul(bgl(1, trunc - m0).pow(n))
                .truncate(trunc)
            )
            if geo != want:
                return False, f"gdim_geo differs from the closed form for n={n}"
            return True, f"closed form matches to u^{trunc}"
        return check

    for n in (1, 2, 3):
        cases.append((f"nilhecke n={n}", nilhecke(n)))

    for qspec in ("A2", "A3", "cyclic:2", "cyclic:3"):
        Q = parse_quiver(qspec)
        for total in range(1, 4):
            for d in _dim_vectors(Q.n, total):
                cases.append((f"{qspec} {d}", klr_block_check(Q, d, trunc)))
    return cases


def klr_block_check(Q: Quiver, d: DimVector, trunc: int):
    """A case over every complete block of (Q, d): each matches after the
    normalization shift, and the transpose symmetry holds, to u^trunc."""
    words = content_words(Q, d)

    def check():
        strata = Strata(Q, d)
        reports = {}
        for i in words:
            for j in words:
                rep = compare_block(Q, d, i, j, trunc, strata)
                if not rep.normalized_match:
                    return False, (
                        f"block ({i},{j}) mismatch at "
                        f"u^{rep.first_discrepancy}"
                    )
                reports[(i, j)] = rep
        for i in words:
            for j in words:
                shifted = reports[(j, i)].geometric.shifted(2 * reports[(i, j)].shift)
                gap = first_discrepancy(reports[(i, j)].geometric, shifted)
                if gap is not None:
                    return False, (
                        f"transpose symmetry fails at ({i},{j}), u^{gap}"
                    )
        return True, f"{len(words) ** 2} blocks match; symmetry holds"

    return check


def relations_cases(max_total: int = 4, trials: int = 100, seed: int = 0):
    """One case per (quiver, d) with 1 <= total(d) <= max_total: every
    relation family, degree homogeneity among them, ran `trials` seeded
    trials without a failure.  Every (quiver, d) is checked against the
    relation-suite bounds before any case runs.

    Every case reads its trial inputs from one `TrialStreams` store, made
    empty here and filled only while the cases run.  A trial's input is
    drawn as indices from the words of its key f"{seed}:{name}:{t}", and
    depends only on that key and the case's shape (n strands, nw content
    words), not on the quiver: the 104 cases at total 4 fall on 10 shapes.
    So the first case of a shape draws each of its trials' inputs and
    every later case of that shape reads them back, the same inputs a
    fresh generator would give.  Cases on several threads may share the
    store; two of them may both draw an input, and either copy is the
    same."""
    cases = []
    streams = TrialStreams()
    for qspec in SUITE_QUIVERS:
        Q = parse_quiver(qspec)
        for total in range(1, max_total + 1):
            for d in _dim_vectors(Q.n, total):
                check_suite_size(Q, d)
                def check(Q=Q, d=d):
                    report = relation_suite(Q, d, trials=trials, seed=seed, streams=streams)
                    short = next((v for v in report.verdicts if v.trials != trials), None)
                    if short is not None:
                        return False, f"{short.name}: ran {short.trials} of {trials} trials"
                    if all(v.name != "degree-homogeneity" for v in report.verdicts):
                        return False, "no degree-homogeneity verdict"
                    if report.ok:
                        names = len(report.verdicts)
                        return True, f"{names} relation families, {trials} trials each"
                    bad = next(v for v in report.verdicts if not v.ok)
                    return False, f"{bad.name}: {bad.failures} failures; {bad.witness}"
                cases.append((f"{qspec} {d}", check))
    return cases


def homotopy_cases(count: int = 200, seed: int | str = 0):
    """One case per algebra handle: a corpus of randomized valid complexes
    where cone(id) minimizes to zero, euler_symbol is invariant under
    minimize, minimize is idempotent, and weight truncation reassembles.
    Trial t of a handle draws from `random.Random(f"{seed}:{handle}:{t}")`."""
    cases = []
    for spec in HOMOTOPY_HANDLES:
        def check(spec=spec):
            handle = parse_handle(spec)
            for t in range(count):
                rng = random.Random(f"{seed}:{spec}:{t}")
                c = random_complex(handle, rng)
                label = f"trial {t}"
                report = validate(c)
                if not report.ok:
                    return False, f"{label}: invalid complex: {report.problems[0]}"
                if len(minimize(cone(identity_map(c)))) != 0:
                    return False, f"{label}: cone(id) did not minimize to zero"
                m = minimize(c)
                if not validate(m).ok:
                    return False, f"{label}: minimize broke validity"
                if euler_symbol(m) != euler_symbol(c):
                    return False, f"{label}: euler symbol changed under minimize"
                if not complexes_equal(minimize(m), m):
                    return False, f"{label}: minimize not idempotent"
                degs = c.cohdegs()
                n = rng.choice(degs) if degs else 0
                upper, lower, inc = weight_truncate(c, n)
                if not complexes_equal(minimize(cone(inc)), minimize(lower)):
                    return False, f"{label}: truncation reassembly failed at {n}"
            return True, f"{count} randomized complexes"
        cases.append((spec, check))
    return cases


def run_suite(
    name: str,
    threads: int = 1,
    seed: int = 0,
    max_total: int = 4,
    trials: int = 100,
    count: int = 200,
    trunc: int = DEFAULT_TRUNC,
) -> SuiteResult:
    if name == "paving-oracle":
        cases = paving_oracle_cases(max_total)
    elif name == "klr-match":
        cases = klr_match_cases(trunc)
    elif name == "relations":
        cases = relations_cases(max_total, trials, seed)
    elif name == "homotopy":
        cases = homotopy_cases(count, seed)
    else:
        raise ValueError(f"unknown suite {name!r}")
    if not cases:
        raise ValueError(f"suite {name} has no case for these flags")

    def run_case(item):
        case_id, fn = item
        ok, detail = fn()
        return CaseResult(case_id, ok, detail)

    results = _fan_out(run_case, cases, threads)
    return SuiteResult(name, tuple(results))


def cmd_suite(args) -> tuple[int, str]:
    result = run_suite(
        args.name,
        threads=args.threads,
        seed=args.seed,
        max_total=args.max_total,
        trials=args.trials,
        count=args.count,
        trunc=args.trunc,
    )
    if args.format == "table":
        lines = [
            f"{'PASS' if c.ok else 'FAIL'} {c.case}: {c.detail}" for c in result.cases
        ]
        passed = sum(1 for c in result.cases if c.ok)
        lines.append(f"suite {result.name}: {passed}/{len(result.cases)} passed")
        return (0 if result.ok else 2), "\n".join(lines)
    doc = {
        "schema": "suite/1",
        "name": result.name,
        "seed": args.seed,
        "cases": [
            {"case": c.case, "ok": c.ok, "detail": c.detail} for c in result.cases
        ],
        "ok": result.ok,
    }
    return (0 if result.ok else 2), _dumps(doc)


# ---------------------------------------------------------------------------
# entry point

_HANDLERS = {
    "orbits": cmd_orbits,
    "paving": cmd_paving,
    "count": cmd_count,
    "gdim": cmd_gdim,
    "gdim-table": cmd_gdim_table,
    "klr-selftest": cmd_klr_selftest,
    "complex": cmd_complex,
    "suite": cmd_suite,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code or 0
    try:
        code, text = _HANDLERS[args.command](args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if text:
        print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
