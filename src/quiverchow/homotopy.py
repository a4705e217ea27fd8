"""Bounded complexes of graded free modules, with weight truncation.

Objects here are complexes of free graded right modules $\\bigoplus
e_iA\\langle s\\rangle$ over a locally unital graded algebra $A$.  The
elements carry their own arithmetic (`+`, `-`, `*`, `scale`); an
`AlgebraHandle` supplies what needs the algebra itself: idempotents, zero
and units, a zero test, homogeneity checking, and a degree-zero
invertibility test.  Three handles ship: the nil Hecke and quiver Hecke
algebras (elements act on labeled polynomials; equality is decided exactly
on the n! Artin monomials under each idempotent, a basis of the polynomial
representation over the central symmetric polynomials, all held in one
input-tagged map that a decision folds an element through once) and the smash
product of a polynomial ring with a symmetric group (exact arithmetic,
invertibility by a linear solve on the group algebra's regular
representation).  Every shipped handle decides equality exactly, and
keeps its costly decisions in a memo keyed on the element's value, so a
minimization that scans the same entry again decides it once.  Validation
builds no element it only throws away: a composite entry that no middle
generator reaches is zero without a test.

The operations are the desk-scale shadow of the weight-structure toolkit:
cohomological shift and internal twist, mapping cones, stupid (weight)
truncation, and Gaussian-elimination minimization.  Minimization cancels
generator pairs joined by an invertible degree-zero differential entry and
applies the Schur-complement update; it terminates, preserves the homotopy
type, and fixes minimal complexes.  The decategorified check is
`euler_symbol`, the signed generator count per (idempotent, twist).
"""

from __future__ import annotations

import functools
import itertools
import random
import re
from fractions import Fraction
from math import factorial
from typing import NamedTuple

from .klrpoly import (
    KLROperator,
    Poly,
    SmashElement,
    _apply_terms,
    _checked_index,
    identity_perm,
    monomials_of_degree,
    perm_to_word,
    word_offset,
)
from .linalg import solve_exact
from .quiver import (
    DimVector,
    Quiver,
    content_words,
    multinomial,
    parse_dimvector,
    parse_quiver,
    permutation_degrees,
)

MAX_EQUALITY_PERMUTATIONS = 720
# largest exponent accepted in an expression, with nested exponents
# multiplied together; checked before multiplying
MAX_EXPONENT = 64
# a product of sums grows as the product of their term counts (KLR products
# never collect terms): refuse a product of more term pairs
MAX_PRODUCT_TERMS = 4096
# deepest nesting of parentheses and unary minus in an expression; checked
# before the recursive-descent parser runs out of interpreter stack
MAX_NESTING = 100
# a handle builds its inputs eagerly: n! Artin monomials per word for the
# quiver Hecke handles, the n! permutations for smash; a handle needing more
# is refused before anything is built
MAX_HANDLE_INPUTS = 40_320


def _check_handle_size(name: str, words: int, n: int) -> None:
    size = words * factorial(n)
    if size > MAX_HANDLE_INPUTS:
        raise ValueError(
            f"handle {name} needs {size} inputs ({words} x {n}!), "
            f"above the bound of {MAX_HANDLE_INPUTS}"
        )


# ---------------------------------------------------------------------------
# algebra handles

_MISS = object()


def _memoised(method):
    """Keep a handle method's answers in the handle's `_memo` dict, keyed on
    the method name and its positional arguments by value, so each element
    is decided once per handle: a `KLROperator` hashes by (Q, n, canonical
    merged terms) and a `SmashElement` by its terms, never by identity.
    A hit returns the very object the first call returned.  That is safe
    because results are never modified: nothing in the package mutates an
    element's `terms` in place, and callers only read a `block_basis` list.
    The memo lives as long as its handle."""
    name = method.__name__

    @functools.wraps(method)
    def memoised(self, *args):
        key = (name, *args)
        out = self._memo.get(key, _MISS)
        if out is _MISS:
            out = self._memo[key] = method(self, *args)
        return out

    return memoised


class AlgebraHandle:
    """What a complex needs from its algebra beyond element arithmetic.

    Elements add, subtract, negate and multiply with `+`, `-` and `*`, and
    scale with `scale(c)`.  Concrete handles define: `name`,
    `units_per_shift` (native internal degree carried by one twist unit),
    `idempotents`, `zero` and `unit(idem)`, the exact decisions `is_zero`,
    `is_block_homogeneous` and `invert_degree_zero`, `block_basis`, and the
    expression atoms used by the parser and renderer.  A handle whose
    decisions are costly wraps them in `_memoised` and owns a `_memo` dict.
    """

    name: str
    units_per_shift: int
    idempotents: tuple

    def zero(self):
        raise NotImplementedError

    def unit(self, idem):
        raise NotImplementedError

    def term_count(self, a) -> int:
        """Number of terms of a, which bounds the cost of a product."""
        return len(a.terms)

    def is_zero(self, a) -> bool:
        raise NotImplementedError

    def equal(self, a, b) -> bool:
        return self.is_zero(a - b)

    def is_block_homogeneous(self, a, frm, to, degree: int) -> bool:
        """Whether a lies in e_to A e_frm, homogeneous of native degree."""
        raise NotImplementedError

    def block_basis(self, frm, to, degree: int) -> list:
        """Spanning elements of the (frm -> to) block in one native degree."""
        raise NotImplementedError

    def invert_degree_zero(self, a, frm, to):
        """Two-sided inverse of a degree-0 entry as a map e_frm A -> e_to A,
        or None when no inverse is found."""
        raise NotImplementedError

    def gen_element(self, kind: str, arg):
        raise NotImplementedError

    def render(self, a) -> str:
        return str(a)

    def render_idem(self, idem):
        raise NotImplementedError

    def parse_idem(self, obj):
        raise NotImplementedError

    def random_block_element(self, rng: random.Random, frm, to, degree: int):
        if degree < 0:
            return None
        basis = self.block_basis(frm, to, degree)
        if not basis:
            return None
        out = None
        for _ in range(rng.randint(1, 2)):
            coeff = rng.choice([-2, -1, 1, 2, 3])
            term = rng.choice(basis).scale(coeff)
            out = term if out is None else out + term
        return out


class _ArtinTag:
    """The last exponent coordinate of one Artin input x^a e(i) in a
    `KLRHandle` fold: it names the input by its word i and graded degree
    2|a| + word_offset(i).  No generator reads past strand n, so the tag
    rides along unchanged and results of different inputs never merge.  It
    is not a number: an atom that did reach it (say x_{n+1}, which no
    constructor emits) raises instead of moving a key to another input."""

    __slots__ = ("word", "degree")

    def __init__(self, word: tuple[int, ...], degree: int):
        self.word = word
        self.degree = degree


class KLRHandle(AlgebraHandle):
    """Quiver Hecke algebra of (Q, d) through its polynomial action.

    The action on labeled polynomials is faithful (Khovanov-Lauda), and the
    diagonal symmetric polynomials sum_i f e(i) are central, so every element
    commutes with multiplication by them.  k[x_1..x_n] is free over the
    symmetric polynomials on the Artin monomials x^a with a_k <= k - 1, so
    an element is zero exactly when it kills x^a e(i) for every Artin
    exponent a and idempotent i: n! inputs per idempotent, and equality,
    homogeneity and degree-zero inversion are exact decisions.  The handle
    holds every input in one flat map, each key closed by an `_ArtinTag`,
    so a decision folds an element's terms once over all inputs
    (`klrpoly._apply_terms`).  Each decision, each block basis and each
    unit is memoised per handle on the element's value and the other
    arguments (`_memoised`), so minimizing a complex decides a repeated
    entry once.
    """

    def __init__(self, Q: Quiver, d: DimVector, name: str | None = None):
        if d.total < 1:
            raise ValueError("handle needs a positive total dimension")
        self.name = name or f"klr:{Q}:{','.join(str(e) for e in d)}"
        _check_handle_size(self.name, multinomial(d), d.total)
        self.Q = Q
        self.d = d
        self.n = d.total
        self.units_per_shift = 2
        self.idempotents = tuple(content_words(Q, d))
        self._offsets = {w: word_offset(Q, w) for w in self.idempotents}
        artin = list(itertools.product(*(range(k + 1) for k in range(self.n))))
        self._inputs = {
            (w, exps + (_ArtinTag(w, 2 * sum(exps) + self._offsets[w]),)): 1
            for w in self.idempotents
            for exps in artin
        }
        self._memo: dict = {}

    def _fold(self, a) -> dict:
        """a on every Artin input at once: {(word, exponents + (tag,)): c},
        where a cancelled key stays with c = 0."""
        if a.n != self.n:
            raise ValueError(f"an element on {a.n} strands for a handle on {self.n}")
        return _apply_terms(self.Q, a.terms, self._inputs)

    def zero(self):
        return KLROperator.zero(self.Q, self.n)

    @_memoised
    def unit(self, idem):
        return KLROperator.e(self.Q, self.n, idem)

    @_memoised
    def is_zero(self, a) -> bool:
        return not any(self._fold(a).values())

    @_memoised
    def is_block_homogeneous(self, a, frm, to, degree: int) -> bool:
        offsets = self._offsets
        for (w, e), c in self._fold(a).items():
            if not c:
                continue
            tag = e[-1]
            if tag.word != frm or w != to:
                return False
            if 2 * sum(e[:-1]) + offsets[w] - tag.degree != degree:
                return False
        return True

    @_memoised
    def block_basis(self, frm, to, degree: int) -> list:
        """psi_w x^a e(frm) for each w carrying frm to to, in lexicographic
        order of w, and each exponent vector a filling up the degree."""
        Q, n = self.Q, self.n
        idem = KLROperator.e(Q, n, frm)
        basis = []
        for w, deg_w in sorted(permutation_degrees(Q, frm, to)):
            rem = degree - deg_w
            if rem < 0 or rem % 2:
                continue
            psi = KLROperator.one(Q, n)
            for r in perm_to_word(w):
                psi = psi * KLROperator.psi(Q, n, r)
            for exps in monomials_of_degree(n, rem // 2):
                basis.append(psi * KLROperator.from_poly(Q, n, Poly.monomial(n, exps)) * idem)
        return basis

    @_memoised
    def invert_degree_zero(self, a, frm, to):
        """The combination inv of block_basis(to, frm, 0) with inv * a =
        e(frm) and a * inv = e(to) on every input, by one exact solve: a row
        per (side, output key).  The reduced echelon form, and so the
        solution with free unknowns zero, does not depend on the row order."""
        basis = self.block_basis(to, frm, 0)
        if not basis:
            return None

        def sides(left, right) -> dict:
            rows = {("L", key): c for key, c in self._fold(left).items() if c}
            rows.update((("R", key), c) for key, c in self._fold(right).items() if c)
            return rows

        col_maps = [sides(b * a, a * b) for b in basis]
        rhs_map = sides(self.unit(frm), self.unit(to))
        keys = list(dict.fromkeys(itertools.chain(rhs_map, *col_maps)))
        columns = [[m.get(k, 0) for k in keys] for m in col_maps]
        rhs = [rhs_map.get(k, 0) for k in keys]
        sol = solve_exact(columns, rhs)
        if sol is None:
            return None
        return KLROperator(
            self.Q,
            self.n,
            tuple((c * k, atoms) for k, b in zip(sol, basis) if k for c, atoms in b.terms),
        )

    def gen_element(self, kind: str, arg):
        if kind == "e":
            if arg is None:
                raise ValueError("this handle needs an idempotent word, e.g. e(0,0)")
            return KLROperator.e(self.Q, self.n, self.parse_idem(arg))
        if kind == "x":
            return KLROperator.x(self.Q, self.n, arg)
        if kind == "psi":
            return KLROperator.psi(self.Q, self.n, arg)
        if kind == "num":
            return KLROperator.one(self.Q, self.n).scale(arg)
        raise ValueError(f"symbol {kind!r} has no meaning for this handle")

    def render_idem(self, idem):
        return list(idem)

    def parse_idem(self, obj):
        word = tuple(obj) if isinstance(obj, (list, tuple)) else obj
        if word not in self.idempotents:
            raise ValueError(f"unknown idempotent word {word}")
        return word


class SmashHandle(AlgebraHandle):
    """Smash product of the polynomial ring on n variables (degree 1 each)
    with S_n; exact arithmetic, one idempotent, unital.  The degree-zero
    inverse, a linear solve on the regular representation, is memoised per
    handle on the element's value; the zero test and homogeneity read the
    reduced terms directly and cost about as much as a lookup."""

    def __init__(self, n: int, name: str | None = None):
        if n < 1:
            raise ValueError("n must be positive")
        self.name = name or f"smash:{n}"
        _check_handle_size(self.name, 1, n)
        self.n = n
        self.units_per_shift = 1
        self.idempotents = ("e",)
        self._perms = sorted(itertools.permutations(range(n)))
        self._memo: dict = {}

    def zero(self):
        return SmashElement.zero(self.n)

    def unit(self, idem):
        return SmashElement.unit(self.n)

    def is_zero(self, a) -> bool:
        return a.is_zero()

    def is_block_homogeneous(self, a, frm, to, degree: int) -> bool:
        return a.degrees() <= {degree}

    def block_basis(self, frm, to, degree: int) -> list:
        if degree < 0:
            return []
        return [
            SmashElement(self.n, {w: Poly.monomial(self.n, exps)})
            for exps in monomials_of_degree(self.n, degree)
            for w in self._perms
        ]

    @_memoised
    def invert_degree_zero(self, a, frm, to):
        constant = (0,) * self.n
        if any(e != constant for _, e in a.terms):
            return None
        coeffs = {w: c for (w, _), c in a.terms.items()}
        if not coeffs:
            return None
        perms = self._perms
        index = {w: k for k, w in enumerate(perms)}
        columns = []
        for v in perms:
            col = [0] * len(perms)
            for w, c in coeffs.items():
                wk = tuple(w[v[k]] for k in range(self.n))
                col[index[wk]] += c
            columns.append(col)
        rhs = [0] * len(perms)
        rhs[index[identity_perm(self.n)]] = 1
        sol = solve_exact(columns, rhs)
        if sol is None:
            return None
        inv = SmashElement._flat(self.n, {(v, constant): c for v, c in zip(perms, sol)})
        if inv * a != self.unit("e") or a * inv != self.unit("e"):
            return None
        return inv

    def gen_element(self, kind: str, arg):
        if kind == "e":
            if arg is not None:
                raise ValueError("this handle has a single unnamed idempotent")
            return SmashElement.unit(self.n)
        if kind == "x":
            return SmashElement.x(self.n, _checked_index(kind, arg, self.n))
        if kind == "s":
            return SmashElement.s(self.n, _checked_index(kind, arg, self.n))
        if kind == "num":
            return SmashElement.scalar(self.n, arg)
        raise ValueError(f"symbol {kind!r} has no meaning for this handle")

    def render_idem(self, idem):
        return "e"

    def parse_idem(self, obj):
        if obj != "e":
            raise ValueError("this handle has a single idempotent 'e'")
        return "e"


_HANDLE_FORMS = {"nilhecke": "nilhecke:<n>", "klr": "klr:<quiver>:<dims>", "smash": "smash:<n>"}


def parse_handle(spec: str) -> AlgebraHandle:
    """Parse "nilhecke:<n>", "klr:<quiver>:<dims>", or "smash:<n>".  A spec
    that does not parse is one ValueError naming it and its form."""
    spec = spec.strip()
    kind, _, rest = spec.partition(":")
    form = _HANDLE_FORMS.get(kind)
    if form is None:
        raise ValueError(f"unknown handle spec {spec!r}: the forms are "
                         + ", ".join(_HANDLE_FORMS.values()))
    try:
        if kind == "klr":
            qspec, dims = rest.rsplit(":", 1)
            Q, d = parse_quiver(qspec), parse_dimvector(dims)
        else:
            n = int(rest)
    except ValueError:
        raise ValueError(f"handle spec {spec!r} is not of the form {form}") from None
    if kind == "klr":
        return KLRHandle(Q, d, name=spec)
    if kind == "nilhecke":
        return KLRHandle(parse_quiver("A1"), DimVector((n,)), name=spec)
    return SmashHandle(n, name=spec)


# ---------------------------------------------------------------------------
# element expressions

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<name>psi\d+|x\d+|s\d+|e)|(?P<op>[()+\-*/^,]))"
)


def _tokenize(text: str) -> list[tuple[str, object]]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise ValueError(f"bad expression near {text[pos:pos + 12]!r}")
            break
        pos = m.end()
        if m.group("num") is not None:
            out.append(("num", int(m.group("num"))))
        elif m.group("name") is not None:
            out.append(("name", m.group("name")))
        else:
            out.append(("op", m.group("op")))
    return out


class _ExprParser:
    """Recursive-descent parser for the algebra-term grammar: rationals,
    idempotents e / e(i), x_k, psi_r, s_r, +, -, *, ^, parentheses."""

    def __init__(self, handle: AlgebraHandle, text: str):
        self.handle = handle
        self.tokens = _tokenize(text)
        self.pos = 0
        # one entry per factor being parsed (below a root entry): the
        # largest combined exponent of the powers inside it so far
        self.scales = [1]

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect_op(self, op: str) -> None:
        kind, val = self.take()
        if kind != "op" or val != op:
            raise ValueError(f"expected {op!r}, found {val!r}")

    def parse(self):
        value = self.expr()
        if self.pos != len(self.tokens):
            raise ValueError("trailing tokens in expression")
        return value

    def expr(self):
        value = self.term()
        while True:
            kind, val = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                rhs = self.term()
                value = value - rhs if val == "-" else value + rhs
            else:
                return value

    def term(self):
        value = self.factor()
        while True:
            kind, val = self.peek()
            if kind == "op" and val == "*":
                self.take()
                value = self.mul(value, self.factor())
            else:
                return value

    def factor(self):
        self.scales.append(1)
        if len(self.scales) > MAX_NESTING:
            raise ValueError(f"expression nested deeper than {MAX_NESTING}")
        kind, val = self.peek()
        if kind == "op" and val == "-":
            self.take()
            value = -self.factor()
        else:
            value = self.primary()
            kind, val = self.peek()
            if kind == "op" and val == "^":
                self.take()
                k2, v2 = self.take()
                if k2 != "num":
                    raise ValueError("exponent must be a number")
                self.scales[-1] *= v2
                if self.scales[-1] > MAX_EXPONENT:
                    raise ValueError(
                        f"exponent {self.scales[-1]} exceeds the bound "
                        f"{MAX_EXPONENT} (nested exponents multiply)"
                    )
                out = self.handle.gen_element("num", 1)
                for _ in range(v2):
                    out = self.mul(out, value)
                value = out
        scale = self.scales.pop()
        self.scales[-1] = max(self.scales[-1], scale)
        return value

    def mul(self, a, b):
        pairs = self.handle.term_count(a) * self.handle.term_count(b)
        if pairs > MAX_PRODUCT_TERMS:
            raise ValueError(
                f"product of {pairs} term pairs exceeds the bound {MAX_PRODUCT_TERMS}"
            )
        return a * b

    def primary(self):
        kind, val = self.take()
        if kind == "num":
            k2, v2 = self.peek()
            if k2 == "op" and v2 == "/":
                self.take()
                k3, v3 = self.take()
                if k3 != "num":
                    raise ValueError("bad rational")
                if v3 == 0:
                    raise ValueError(f"zero denominator in {val}/0")
                return self.handle.gen_element("num", Fraction(val, v3))
            return self.handle.gen_element("num", val)
        if kind == "name":
            if val == "e":
                k2, v2 = self.peek()
                if k2 == "op" and v2 == "(":
                    self.take()
                    word = [self.num_entry()]
                    while True:
                        k3, v3 = self.take()
                        if k3 == "op" and v3 == ",":
                            word.append(self.num_entry())
                        elif k3 == "op" and v3 == ")":
                            break
                        else:
                            raise ValueError("bad idempotent word")
                    return self.handle.gen_element("e", tuple(word))
                return self.handle.gen_element("e", None)
            head = val.rstrip("0123456789")
            return self.handle.gen_element(head, int(val[len(head):]))
        if kind == "op" and val == "(":
            value = self.expr()
            self.expect_op(")")
            return value
        raise ValueError(f"unexpected token {val!r}")

    def num_entry(self) -> int:
        kind, val = self.take()
        if kind == "op" and val == "-":
            kind, val = self.take()
            if kind != "num":
                raise ValueError("bad number")
            return -val
        if kind != "num":
            raise ValueError("bad number")
        return val


def parse_element(handle: AlgebraHandle, text: str):
    return _ExprParser(handle, text).parse()


# ---------------------------------------------------------------------------
# complexes


class Generator(NamedTuple):
    """One free summand e_idem A <shift> sitting in a cohomological degree."""

    idem: object
    shift: int
    cohdeg: int


class GradedComplex:
    """Generators plus a differential matrix raising cohomological degree
    by one; entries indexed (target_index, source_index)."""

    __slots__ = ("handle", "generators", "diff")

    def __init__(self, handle: AlgebraHandle, generators, diff: dict):
        self.handle = handle
        self.generators = tuple(generators)
        self.diff = dict(diff)

    def entry(self, row: int, col: int):
        return self.diff.get((row, col))

    def cohdegs(self) -> list[int]:
        return sorted({g.cohdeg for g in self.generators})

    def restrict(self, indices) -> "GradedComplex":
        """The generators at `indices`, renumbered in that order, with the
        entries between them."""
        pos = {orig: new for new, orig in enumerate(indices)}
        gens = [self.generators[k] for k in indices]
        diff = {
            (pos[row], pos[col]): el
            for (row, col), el in self.diff.items()
            if row in pos and col in pos
        }
        return GradedComplex(self.handle, gens, diff)

    def __len__(self) -> int:
        return len(self.generators)


class ChainMap(NamedTuple):
    """Degree-0 map of complexes; entries indexed (target generator index
    in the target complex, source generator index in the source complex)."""

    source: GradedComplex
    target: GradedComplex
    entries: dict


class ValidationReport(NamedTuple):
    ok: bool
    problems: tuple[str, ...]


def _composite(outer: dict, inner: dict, k: int, i: int, mids):
    """The (k, i) entry of the product outer * inner: the sum over j in
    mids, in order, of outer[k, j] * inner[j, i], a missing entry counting
    as zero.  None when no j has both entries: the entry is then zero
    without a test, and no element is built for it."""
    acc = None
    for j in mids:
        a = outer.get((k, j))
        b = inner.get((j, i))
        if a is not None and b is not None:
            ab = a * b
            acc = ab if acc is None else acc + ab
    return acc


def validate(c: GradedComplex) -> ValidationReport:
    """Check entry block-homogeneity and d after d = 0."""
    h = c.handle
    problems = []
    gens = c.generators
    for (row, col), el in sorted(c.diff.items()):
        if not (0 <= row < len(gens) and 0 <= col < len(gens)):
            problems.append(f"entry ({row},{col}) out of range")
            continue
        tg, sg = gens[row], gens[col]
        if tg.cohdeg != sg.cohdeg + 1:
            problems.append(
                f"entry ({row},{col}) spans cohdeg {sg.cohdeg}->{tg.cohdeg}"
            )
            continue
        need = (tg.shift - sg.shift) * h.units_per_shift
        if not h.is_block_homogeneous(el, sg.idem, tg.idem, need):
            problems.append(
                f"entry ({row},{col}) is not e_j A e_i homogeneous of degree {need}"
            )
    by_deg: dict[int, list[int]] = {}
    for k, g in enumerate(gens):
        by_deg.setdefault(g.cohdeg, []).append(k)
    for c0 in sorted(by_deg):
        mids = by_deg.get(c0 + 1, [])
        tops = by_deg.get(c0 + 2, [])
        for i in by_deg[c0]:
            for k in tops:
                dd = _composite(c.diff, c.diff, k, i, mids)
                if dd is not None and not h.is_zero(dd):
                    problems.append(f"d after d is nonzero from {i} to {k}")
    return ValidationReport(not problems, tuple(problems))


def shift(c: GradedComplex, n: int) -> GradedComplex:
    """Cohomological shift [n]: degrees drop by n, differential picks up
    the sign (-1)^n."""
    gens = [Generator(g.idem, g.shift, g.cohdeg - n) for g in c.generators]
    sign = -1 if n % 2 else 1
    diff = {
        key: (el.scale(-1) if sign < 0 else el)
        for key, el in c.diff.items()
    }
    return GradedComplex(c.handle, gens, diff)


def twist(c: GradedComplex, n: int) -> GradedComplex:
    """Internal twist <n>: every generator's shift grows by n; entries keep
    their degrees."""
    gens = [Generator(g.idem, g.shift + n, g.cohdeg) for g in c.generators]
    return GradedComplex(c.handle, gens, dict(c.diff))


def identity_map(c: GradedComplex) -> ChainMap:
    entries = {
        (k, k): c.handle.unit(g.idem) for k, g in enumerate(c.generators)
    }
    return ChainMap(c, c, entries)


def validate_chain_map(f: ChainMap) -> ValidationReport:
    h = f.source.handle
    problems = []
    sg = f.source.generators
    tg = f.target.generators
    for (row, col), el in sorted(f.entries.items()):
        t, s = tg[row], sg[col]
        if t.cohdeg != s.cohdeg:
            problems.append(f"map entry ({row},{col}) shifts cohdeg")
            continue
        need = (t.shift - s.shift) * h.units_per_shift
        if not h.is_block_homogeneous(el, s.idem, t.idem, need):
            problems.append(f"map entry ({row},{col}) not block-homogeneous")
    for i in range(len(sg)):
        for k in range(len(tg)):
            if tg[k].cohdeg != sg[i].cohdeg + 1:
                continue
            d_after_f = _composite(f.target.diff, f.entries, k, i, range(len(tg)))
            f_after_d = _composite(f.entries, f.source.diff, k, i, range(len(sg)))
            if f_after_d is None:
                gap = d_after_f
            elif d_after_f is None:
                gap = f_after_d
            else:
                gap = d_after_f - f_after_d
            if gap is not None and not h.is_zero(gap):
                problems.append(f"square at source {i}, target {k} does not commute")
    return ValidationReport(not problems, tuple(problems))


def cone(f: ChainMap) -> GradedComplex:
    """Mapping cone: source shifted up one degree with negated
    differential, glued to the target along f."""
    report = validate_chain_map(f)
    if not report.ok:
        raise ValueError("not a chain map: " + report.problems[0])
    h = f.source.handle
    src = f.source
    tgt = f.target
    gens = [Generator(g.idem, g.shift, g.cohdeg - 1) for g in src.generators]
    offset = len(gens)
    gens.extend(tgt.generators)
    diff: dict = {}
    for (row, col), el in src.diff.items():
        diff[(row, col)] = -el
    for (row, col), el in f.entries.items():
        diff[(offset + row, col)] = el
    for (row, col), el in tgt.diff.items():
        diff[(offset + row, offset + col)] = el
    return GradedComplex(h, gens, diff)


def weight_truncate(
    c: GradedComplex, n: int
) -> tuple[GradedComplex, GradedComplex, ChainMap]:
    """Stupid truncation at n: (upper, lower, inclusion) with upper the
    cohomological degrees >= n+1, lower the degrees <= n, and inclusion the
    identity-entry chain map upper -> c."""
    upper_idx = [k for k, g in enumerate(c.generators) if g.cohdeg >= n + 1]
    upper = c.restrict(upper_idx)
    lower = c.restrict([k for k, g in enumerate(c.generators) if g.cohdeg <= n])
    entries = {
        (orig, new): c.handle.unit(c.generators[orig].idem)
        for new, orig in enumerate(upper_idx)
    }
    return upper, lower, ChainMap(upper, c, entries)


def minimize(c: GradedComplex) -> GradedComplex:
    """Cancel generator pairs joined by invertible degree-zero entries.

    Scan order: lowest source cohomological degree, then smallest source
    and target indices; each cancellation removes the pair and applies the
    Schur-complement correction d[t][s] -= d[t][p] a^{-1} d[q][s].  The
    result has no invertible degree-zero entries and the same homotopy
    type."""
    h = c.handle
    c = GradedComplex(h, c.generators, c.diff)  # its own diff, updated in place
    while True:
        gens, diff = c.generators, c.diff
        candidates = sorted(
            (
                (gens[col].cohdeg, col, row)
                for (row, col) in diff
                if gens[row].shift == gens[col].shift
            ),
        )
        found = None
        for _, col, row in candidates:
            el = diff[(row, col)]
            if h.is_zero(el):
                continue
            inv = h.invert_degree_zero(el, gens[col].idem, gens[row].idem)
            if inv is not None:
                found = (row, col, inv)
                break
        if found is None:
            return GradedComplex(h, gens, {k: v for k, v in diff.items() if not h.is_zero(v)})
        q, p, inv = found
        into_q = {
            col: el for (row, col), el in diff.items() if row == q and col != p
        }
        from_p = {
            row: el for (row, col), el in diff.items() if col == p and row != q
        }
        for t, d_tp in from_p.items():
            for s, d_qs in into_q.items():
                corr = d_tp * inv * d_qs
                old = diff.get((t, s))
                diff[(t, s)] = -corr if old is None else old - corr
        c = c.restrict([k for k in range(len(gens)) if k not in (p, q)])


def euler_symbol(c: GradedComplex) -> dict:
    """Signed generator count per (idempotent, twist)."""
    out: dict = {}
    for g in c.generators:
        key = (g.idem, g.shift)
        out[key] = out.get(key, 0) + (-1) ** (g.cohdeg % 2)
    return {k: v for k, v in out.items() if v}


def complexes_equal(a: GradedComplex, b: GradedComplex) -> bool:
    """Entrywise equality after canonical generator ordering, allowing any
    matching of generators with identical (cohdeg, idempotent, twist).

    Past MAX_EQUALITY_PERMUTATIONS matchings only the identity matching is
    tried: a match there returns True, anything else raises ValueError,
    because equality is then undecided."""
    if a.handle.name != b.handle.name:
        return False
    h = a.handle

    def canonical(c: GradedComplex):
        order = sorted(
            range(len(c.generators)),
            key=lambda k: (
                c.generators[k].cohdeg,
                repr(c.generators[k].idem),
                c.generators[k].shift,
                k,
            ),
        )
        r = c.restrict(order)
        return r.generators, r.diff

    ga, da = canonical(a)
    gb, db = canonical(b)
    keys_a = [(g.cohdeg, repr(g.idem), g.shift) for g in ga]
    keys_b = [(g.cohdeg, repr(g.idem), g.shift) for g in gb]
    if keys_a != keys_b:
        return False

    def entries_match(perm: list[int]) -> bool:
        moved = {(perm[row], perm[col]): el for (row, col), el in db.items()}
        for key in set(da) | set(moved):
            x = da.get(key)
            y = moved.get(key)
            if x is None:
                if not h.is_zero(y):
                    return False
            elif y is None:
                if not h.is_zero(x):
                    return False
            elif not h.equal(x, y):
                return False
        return True

    groups: list[list[int]] = []
    start = 0
    for k in range(1, len(keys_a) + 1):
        if k == len(keys_a) or keys_a[k] != keys_a[start]:
            groups.append(list(range(start, k)))
            start = k
    size = 1
    for g in groups:
        for m in range(2, len(g) + 1):
            size *= m
    if size > MAX_EQUALITY_PERMUTATIONS:
        if entries_match(list(range(len(gb)))):
            return True
        raise ValueError(
            f"complex equality undecided: {size} generator matchings exceed "
            f"the bound {MAX_EQUALITY_PERMUTATIONS}"
        )
    for combo in itertools.product(*[itertools.permutations(g) for g in groups]):
        perm = [0] * len(gb)
        for group, images in zip(groups, combo):
            for orig, img in zip(group, images):
                perm[orig] = img
        if entries_match(perm):
            return True
    return False


# ---------------------------------------------------------------------------
# JSON form


def complex_to_json(c: GradedComplex) -> dict:
    h = c.handle
    return {
        "schema": "complex/1",
        "handle": h.name,
        "equality_bound": None,
        "generators": [
            [h.render_idem(g.idem), g.shift, g.cohdeg] for g in c.generators
        ],
        "differential": [
            [row, col, h.render(el)] for (row, col), el in sorted(c.diff.items())
        ],
    }


def _triples(doc: dict, key: str, default=None) -> list:
    rows = doc.get(key, default)
    if not isinstance(rows, list) or not all(
        isinstance(r, list) and len(r) == 3 for r in rows
    ):
        raise ValueError(f'"{key}" must be a list of 3-element lists')
    return rows


def _integer(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def complex_from_json(doc: dict, handle: AlgebraHandle | None = None) -> GradedComplex:
    """Read a complex/1 document; malformed input raises ValueError."""
    if not isinstance(doc, dict):
        raise ValueError("a complex document must be a JSON object")
    if doc.get("schema") not in (None, "complex/1"):
        raise ValueError(f"unknown schema {doc.get('schema')!r}")
    if handle is None:
        if not isinstance(doc.get("handle"), str):
            raise ValueError('the document names no "handle" and none was given')
        handle = parse_handle(doc["handle"])
    gens = [
        Generator(handle.parse_idem(idem), _integer(s, "shift"), _integer(cd, "cohdeg"))
        for idem, s, cd in _triples(doc, "generators")
    ]
    diff = {}
    for row, col, expr in _triples(doc, "differential", []):
        key = (_integer(row, "row"), _integer(col, "column"))
        if not all(0 <= k < len(gens) for k in key):
            raise ValueError(f"entry {key} lies outside the {len(gens)} generators")
        if not isinstance(expr, str):
            raise ValueError(f"entry {key} must be an expression string")
        diff[key] = parse_element(handle, expr)
    return GradedComplex(handle, gens, diff)


# ---------------------------------------------------------------------------
# randomized corpus


def random_complex(
    handle: AlgebraHandle, rng: random.Random, max_levels: int = 3
) -> GradedComplex:
    """A random valid complex: random generators on 1-3 consecutive
    cohomological degrees, random block-homogeneous entries, then entry
    removal until d after d = 0 (removal is deterministic given the rng
    stream)."""
    levels = rng.randint(1, max_levels)
    base = rng.randint(-1, 1)
    gens: list[Generator] = []
    for lvl in range(levels):
        for _ in range(rng.randint(1, 3)):
            gens.append(
                Generator(
                    rng.choice(handle.idempotents),
                    lvl + rng.randint(-1, 1),
                    base + lvl,
                )
            )
    diff: dict = {}
    for row, tg in enumerate(gens):
        for col, sg in enumerate(gens):
            if tg.cohdeg != sg.cohdeg + 1 or rng.random() >= 0.75:
                continue
            deg = (tg.shift - sg.shift) * handle.units_per_shift
            el = handle.random_block_element(rng, sg.idem, tg.idem, deg)
            if el is not None and not handle.is_zero(el):
                diff[(row, col)] = el
    while True:
        bad = None
        for i, si in enumerate(gens):
            for k, tk in enumerate(gens):
                if tk.cohdeg != si.cohdeg + 2:
                    continue
                used = [j for j in range(len(gens)) if (k, j) in diff and (j, i) in diff]
                if used and not handle.is_zero(_composite(diff, diff, k, i, used)):
                    bad = (k, used[0])
                    break
            if bad:
                break
        if bad is None:
            return GradedComplex(handle, gens, diff)
        diff.pop((bad[0], bad[1]))
