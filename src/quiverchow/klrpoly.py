"""Polynomial realizations of the convolution algebras.

Two concrete algebras act here.  The quiver Hecke algebra on a dimension
vector d is generated by idempotents e(i) indexed by words of content d,
polynomial generators x_1..x_n, and crossings psi_1..psi_{n-1}; it acts
faithfully on word-labeled polynomials: e(i) projects, x_k multiplies, and
psi_r either applies the divided difference (equal adjacent labels) or swaps
the labels, permutes the variables, and multiplies by one linear factor per
arrow from the left label to the right one.  A `LabeledPoly` is stored
flat, as {(word, exponents): coefficient}, and the action runs on that map:
each generator rewrites exponent tuples directly (`_act`), and one kernel,
`_apply_terms`, folds a sum of (coefficient, atoms) terms through the
input's map; `KLROperator.apply` calls it and wraps the result as a
`LabeledPoly`.  `relation_suite` checks the defining relations of this
presentation on seeded random inputs, drawn straight into flat maps: each
relation side is a term list folded by the same kernel, so no operator is
multiplied out.  It is the normative gate for the sign conventions.  Trial
t of family `name` draws its input with the methods of
`Random(f"{seed}:{name}:{t}")`; tests pin the draws by digests.  The input
is drawn as indices, so it depends on the trial key and the case's shape
(strands, word count) alone, and a `TrialInputs` store draws each once and
hands it to every later case of that shape: a sweep shares one across its
cases.

The second algebra is the smash product of a polynomial ring with the
symmetric group, S # Q[S_n], with multiplication (f.w)(g.v) = f w(g) . wv;
its degree-slice centralizer dimensions reproduce partition counts.  A
`SmashElement` is stored flat too, as {(permutation, exponents): coefficient}.
`Poly`, `LabeledPoly` and `SmashElement` share one sparse base, `_Sparse`,
for equality, hashing and the linear operations.

All arithmetic is exact (ints and Fractions); nothing here floats.
"""

from __future__ import annotations

import itertools
import sys
from math import comb
from random import Random
from typing import NamedTuple

from .linalg import rank_int
from .quiver import DimVector, Frozen, Quiver, cartan, content_words, multinomial
from .series import _norm_coeff

_set = object.__setattr__


# ---------------------------------------------------------------------------
# exact multivariate polynomials


class _Sparse:
    """A finite map from keys to nonzero coefficients, normalised so that an
    integral Fraction is stored as an int; the subclass fixes what a key
    means.  Equality, hashing and the linear operations, also spelled
    +, - and unary -, live here once."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms=None):
        self.n = n
        self.terms = {k: _norm_coeff(c) for k, c in terms.items() if c != 0} if terms else {}

    @classmethod
    def _flat(cls, n: int, terms: dict):
        """An instance built directly from its key -> coefficient map."""
        out = cls.__new__(cls)
        _Sparse.__init__(out, n, terms)
        return out

    @classmethod
    def zero(cls, n: int):
        return cls(n)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def add(self, other):
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0) + c
        return self._flat(self.n, out)

    def neg(self):
        return self._flat(self.n, {k: -c for k, c in self.terms.items()})

    def sub(self, other):
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0) - c
        return self._flat(self.n, out)

    __add__ = add
    __neg__ = neg
    __sub__ = sub

    def scale(self, factor):
        return self._flat(self.n, {k: c * factor for k, c in self.terms.items()})

    def __repr__(self) -> str:
        return str(self)


def _flatten(components) -> dict:
    """Flat {(label, exponents): coefficient} terms from {label: Poly}."""
    return {(w, e): c for w, f in (components or {}).items() for e, c in f.terms.items()}


def _by_label(n: int, terms: dict) -> dict:
    """{label: Poly} from flat {(label, exponents): coefficient} terms."""
    out: dict = {}
    for (label, e), c in terms.items():
        out.setdefault(label, {})[e] = c
    return {label: Poly(n, t) for label, t in out.items()}


class Poly(_Sparse):
    """Polynomial in x_1..x_n: dict from exponent tuples to coefficients."""

    __slots__ = ()

    @staticmethod
    def constant(n: int, c) -> "Poly":
        return Poly(n, {(0,) * n: c})

    @staticmethod
    def one(n: int) -> "Poly":
        return Poly.constant(n, 1)

    @staticmethod
    def x(n: int, k: int) -> "Poly":
        """The variable x_k, 1-based."""
        if not 1 <= k <= n:
            raise ValueError(f"x_{k} out of range for {n} variables")
        e = tuple(1 if i == k - 1 else 0 for i in range(n))
        return Poly(n, {e: 1})

    @staticmethod
    def monomial(n: int, exps, coeff=1) -> "Poly":
        return Poly(n, {tuple(exps): coeff})

    def mul(self, other: "Poly") -> "Poly":
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return Poly(self.n, out)

    def pow(self, k: int) -> "Poly":
        if k < 0:
            raise ValueError(f"negative exponent {k}")
        out = Poly.one(self.n)
        for _ in range(k):
            out = out.mul(self)
        return out

    def permute(self, perm: tuple[int, ...]) -> "Poly":
        """Variable permutation: x_k goes to x_{perm[k]+1} (perm 0-based)."""
        out: dict = {}
        for e, c in self.terms.items():
            b = [0] * self.n
            for k, a in enumerate(e):
                b[perm[k]] = a
            out[tuple(b)] = out.get(tuple(b), 0) + c
        return Poly(self.n, out)

    def swap(self, a: int, b: int) -> "Poly":
        """Transposition of variables at 0-based positions a, b."""
        perm = list(range(self.n))
        perm[a], perm[b] = perm[b], perm[a]
        return self.permute(tuple(perm))

    def divided_difference(self, a: int, b: int) -> "Poly":
        """(f - t f) / (x_{a+1} - x_{b+1}) for the transposition t of the
        0-based variable positions a and b; exact, no division happens.

        On a monomial with exponents (p, q) at (a, b) the quotient is a
        signed sum of p+q-1-degree monomials interpolating between them.
        """
        out: dict = {}
        for e, c in self.terms.items():
            p, q = e[a], e[b]
            if p == q:
                continue
            sign = 1 if p > q else -1
            lo, hi = min(p, q), max(p, q)
            for t in range(hi - lo):
                ne = list(e)
                ne[a] = lo + t
                ne[b] = hi - 1 - t
                key = tuple(ne)
                out[key] = out.get(key, 0) + sign * c
        return Poly(self.n, out)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        chunks = []
        for e, c in sorted(self.terms.items()):
            factors = []
            for k, a in enumerate(e):
                if a == 1:
                    factors.append(f"x{k + 1}")
                elif a > 1:
                    factors.append(f"x{k + 1}^{a}")
            if not factors:
                chunks.append(str(c))
            elif c == 1:
                chunks.append("*".join(factors))
            elif c == -1:
                chunks.append("-" + "*".join(factors))
            else:
                chunks.append(f"{c}*" + "*".join(factors))
        return " + ".join(chunks).replace("+ -", "- ")


# ---------------------------------------------------------------------------
# words and labeled polynomials


def word_offset(Q: Quiver, word: tuple[int, ...]) -> int:
    """Grading offset of the word component: one unit per ordered pair of
    positions k < l with an arrow from the k-th label to the l-th.  With
    this offset the crossing action is homogeneous of degree
    -cartan(i_r, i_{r+1}) even though the arrow factor is asymmetric."""
    for v in word:
        Q.check_vertex(v)
    table = Q.arrow_table
    total = 0
    for k, v in enumerate(word):
        row = table[v]
        for u in word[k + 1:]:
            total += row[u]
    return total


class LabeledPoly(_Sparse):
    """Finite map from words (all of one content) to polynomials, stored
    flat as {(word, exponents): coefficient}.  The constructor takes
    {word: Poly}, and `components` gives that view back."""

    __slots__ = ()

    def __init__(self, n: int, components=None):
        super().__init__(n, _flatten(components))

    @property
    def components(self) -> dict:
        """{word: Poly}, one nonzero polynomial per word present."""
        return _by_label(self.n, self.terms)

    @staticmethod
    def from_poly(word: tuple[int, ...], f: Poly) -> "LabeledPoly":
        return LabeledPoly(f.n, {word: f})

    def offset_degrees(self, Q: Quiver) -> set[int]:
        """All graded degrees present: twice the polynomial degree plus the
        word offset, over every monomial."""
        return {2 * sum(e) + word_offset(Q, w) for w, e in self.terms}

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " ; ".join(
            f"[{','.join(map(str, w))}] {f}" for w, f in sorted(self.components.items())
        )


# ---------------------------------------------------------------------------
# the quiver Hecke action


def _checked_index(kind: str, k: int, n: int) -> int:
    """k itself when x_k (1..n) or the crossing psi_k / s_k (1..n-1)
    exists on n strands."""
    top = n if kind == "x" else n - 1
    if not 1 <= k <= top:
        raise ValueError(f"{kind}{k} does not exist on {n} strands (index 1..{top})")
    return k


def _act(Q: Quiver, atom: tuple, flat: dict) -> dict:
    """One generator on a flat labeled polynomial {(word, exponents): c}.

    Exponent tuples are rewritten in place of Poly arithmetic; a key whose
    coefficient cancels is dropped, so an empty result is the zero map.
    """
    kind, arg = atom
    if kind == "e":
        return {key: c for key, c in flat.items() if key[0] == arg}
    if kind == "x":
        k = arg - 1
        return {(w, e[:k] + (e[k] + 1,) + e[k + 1:]): c for (w, e), c in flat.items()}
    if kind != "psi":
        raise ValueError(f"unknown atom {atom!r}")
    k = arg - 1  # crossing of the 0-based positions k, k+1
    arrow_table = Q.arrow_table
    out: dict = {}
    get = out.get
    for (w, e), c in flat.items():
        v, u = w[k], w[k + 1]
        p, q = e[k], e[k + 1]
        head, tail = e[:k], e[k + 2:]
        if v == u:
            # divided difference, as in Poly.divided_difference
            if p == q:
                continue
            if p > q:
                lo, hi, signed = q, p, c
            else:
                lo, hi, signed = p, q, -c
            for t in range(hi - lo):
                key = (w, head + (lo + t, hi - 1 - t) + tail)
                out[key] = get(key, 0) + signed
            continue
        # swap letters and exponents, then one factor (x_r - x_{r+1}) per
        # arrow v -> u, expanded binomially
        sw = w[:k] + (u, v) + w[k + 2:]
        arrows = arrow_table[v][u]
        if not arrows:
            # the swap is a bijection on keys, and no other branch writes a
            # word with these letters at k, k+1, so this key is written once
            out[(sw, head + (q, p) + tail)] = c
            continue
        for j in range(arrows + 1):
            key = (sw, head + (q + arrows - j, p + j) + tail)
            out[key] = get(key, 0) + (-1) ** j * comb(arrows, j) * c
    return {key: c for key, c in out.items() if c != 0}


def _apply_terms(Q: Quiver, terms, flat: dict) -> dict:
    """A sum of (coefficient, atoms) terms on a flat labeled polynomial:
    each term's atoms fold through `_act`, rightmost first, and the
    results add up.  A key whose coefficients cancel stays, with value 0."""
    total: dict = {}
    for c, atoms in terms:
        cur = flat
        for atom in reversed(atoms):
            if not cur:
                break
            cur = _act(Q, atom, cur)
        for key, v in cur.items():
            total[key] = total.get(key, 0) + c * v
    return total


def _poly_terms(f: Poly, tail: tuple = ()) -> list:
    """Multiplication by f, after the atoms of tail, as (coefficient,
    atoms) terms: one x-monomial atom string per monomial of f."""
    return [
        (c, tuple(("x", k + 1) for k, a in enumerate(e) for _ in range(a)) + tail)
        for e, c in f.terms.items()
    ]


def atom_degree(Q: Quiver, atom: tuple, word: tuple[int, ...]) -> int:
    """Declared degree of a generator applied to the given word."""
    kind = atom[0]
    if kind == "e":
        return 0
    if kind == "x":
        return 2
    r = atom[1]
    return -cartan(Q, word[r - 1], word[r])


class KLROperator(Frozen):
    """Formal sum of generator compositions, evaluated by action.

    Terms are (coefficient, atoms) with atoms written left to right in
    operator order: the rightmost atom acts first.  Elements are never
    normal-formed; equality questions go through the action.  `apply`
    folds the terms through the input's flat map {(word, exponents):
    coefficient} with `_apply_terms`; the generator constructors refuse
    indices and words outside the algebra on n strands.
    """

    __slots__ = ("Q", "n", "terms")
    _fields = ("Q", "n", "terms")

    def __init__(self, Q: Quiver, n: int, terms: tuple[tuple[object, tuple[tuple, ...]], ...]):
        merged: dict[tuple, object] = {}
        for c, atoms in terms:
            merged[atoms] = merged.get(atoms, 0) + c
        _set(self, "Q", Q)
        _set(self, "n", n)
        _set(self, "terms", tuple(
            (_norm_coeff(c), atoms) for atoms, c in sorted(merged.items()) if c != 0
        ))

    def __eq__(self, other):
        if other.__class__ is KLROperator:
            return (self.Q, self.n, self.terms) == (other.Q, other.n, other.terms)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.Q, self.n, self.terms))

    # constructors

    @staticmethod
    def zero(Q: Quiver, n: int) -> "KLROperator":
        return KLROperator(Q, n, ())

    @staticmethod
    def one(Q: Quiver, n: int) -> "KLROperator":
        return KLROperator(Q, n, ((1, ()),))

    @staticmethod
    def e(Q: Quiver, n: int, word) -> "KLROperator":
        word = tuple(word)
        if len(word) != n or not set(word) <= set(Q.vertices):
            raise ValueError(f"e{word} is not a word of length {n} on the vertices of {Q}")
        return KLROperator(Q, n, ((1, (("e", word),)),))

    @staticmethod
    def x(Q: Quiver, n: int, k: int) -> "KLROperator":
        return KLROperator(Q, n, ((1, (("x", _checked_index("x", k, n)),)),))

    @staticmethod
    def psi(Q: Quiver, n: int, r: int) -> "KLROperator":
        return KLROperator(Q, n, ((1, (("psi", _checked_index("psi", r, n)),)),))

    @staticmethod
    def from_poly(Q: Quiver, n: int, f: Poly) -> "KLROperator":
        """Multiplication by a polynomial, as a sum of x-monomial atoms."""
        return KLROperator(Q, n, tuple(_poly_terms(f)))

    # arithmetic

    def _check_same_algebra(self, other: "KLROperator") -> None:
        if (self.Q, self.n) != (other.Q, other.n):
            raise ValueError(
                f"operators on ({self.Q}, {self.n}) and ({other.Q}, {other.n}) do not combine"
            )

    def __add__(self, other: "KLROperator") -> "KLROperator":
        self._check_same_algebra(other)
        return KLROperator(self.Q, self.n, self.terms + other.terms)

    def __sub__(self, other: "KLROperator") -> "KLROperator":
        self._check_same_algebra(other)
        return KLROperator(
            self.Q, self.n, self.terms + tuple((-c, atoms) for c, atoms in other.terms)
        )

    def scale(self, factor) -> "KLROperator":
        return KLROperator(
            self.Q, self.n, tuple((c * factor, atoms) for c, atoms in self.terms)
        )

    def __neg__(self) -> "KLROperator":
        return self.scale(-1)

    def __mul__(self, other: "KLROperator") -> "KLROperator":
        self._check_same_algebra(other)
        out = []
        for c1, a1 in self.terms:
            for c2, a2 in other.terms:
                out.append((c1 * c2, a1 + a2))
        return KLROperator(self.Q, self.n, tuple(out))

    def apply(self, m: LabeledPoly) -> LabeledPoly:
        if m.n != self.n:
            raise ValueError(f"a polynomial in {m.n} variables on {self.n} strands")
        return LabeledPoly._flat(self.n, _apply_terms(self.Q, self.terms, m.terms))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        chunks = []
        for c, atoms in self.terms:
            names = []
            for atom in atoms:
                if atom[0] == "e":
                    names.append("e(" + ",".join(map(str, atom[1])) + ")")
                elif atom[0] == "x":
                    names.append(f"x{atom[1]}")
                else:
                    names.append(f"psi{atom[1]}")
            body = "*".join(names) if names else "1"
            if c == 1:
                chunks.append(body)
            elif c == -1:
                chunks.append("-" + body)
            else:
                chunks.append(f"{c}*{body}")
        return " + ".join(chunks).replace("+ -", "- ")

    __repr__ = __str__


def q_factor(Q: Quiver, n: int, v: int, u: int, r: int) -> Poly:
    """The polynomial Q_{vu}(x_r, x_{r+1}) appearing in the square of a
    crossing: one factor (x_{r+1} - x_r) per arrow v -> u and one factor
    (x_r - x_{r+1}) per arrow u -> v; zero for equal labels."""
    if v == u:
        return Poly.zero(n)
    fwd = Q.arrow_count(v, u)
    bwd = Q.arrow_count(u, v)
    xr = Poly.x(n, r)
    xr1 = Poly.x(n, r + 1)
    return xr1.sub(xr).pow(fwd).mul(xr.sub(xr1).pow(bwd))


def braid_correction(Q: Quiver, n: int, word: tuple[int, ...], r: int) -> Poly:
    """Right-hand side of the braid relation at positions r, r+1, r+2:
    nonzero only when the outer labels agree, in which case it is the
    divided difference of Q_{i_r, i_{r+1}}(x_r, x_{r+1}) with respect to
    the outer variable pair."""
    if word[r - 1] != word[r + 1]:
        return Poly.zero(n)
    q = q_factor(Q, n, word[r - 1], word[r], r)
    return q.divided_difference(r - 1, r + 1)


# ---------------------------------------------------------------------------
# relation suite


class RelationVerdict(NamedTuple):
    name: str
    trials: int
    failures: int
    witness: str | None

    @property
    def ok(self) -> bool:
        return self.failures == 0


class SuiteReport(NamedTuple):
    quiver: str
    dim: str
    seed: int
    verdicts: tuple[RelationVerdict, ...]

    @property
    def ok(self) -> bool:
        return all(v.ok for v in self.verdicts)


_COEFFS = (-3, -2, -1, 1, 2, 3)

# relation_suite refuses, before listing any word, a (Q, d) with more
# strands than MAX_SUITE_STRANDS (each trial works on tuples of n exponents
# and the degree check walks n^2 letter pairs) or with more words of
# content d than MAX_SUITE_WORDS (every word is listed, to draw from).
# Together they bound the time and memory of one case before it starts;
# the strand cap also keeps every stored value but a word index at most 64,
# so that it fits in one byte.
MAX_SUITE_STRANDS = 64
MAX_SUITE_WORDS = 40_320


def check_suite_size(Q: Quiver, d: DimVector) -> None:
    """Refuses a (Q, d) past the relation-suite bounds, from d alone: the
    word count is total(d)! / prod d_v!, and the strand cap is checked
    first so no large factorial is formed."""
    if d.total > MAX_SUITE_STRANDS:
        raise ValueError(
            f"the relation suite on {Q} {d} has {d.total} strands, above the bound "
            f"of {MAX_SUITE_STRANDS}"
        )
    count = multinomial(d)
    if count > MAX_SUITE_WORDS:
        raise ValueError(
            f"the relation suite on {Q} {d} has {count} words of content {d} "
            f"(total(d)! / prod d_v!), above the bound of {MAX_SUITE_WORDS}"
        )


class TrialInputs:
    """The inputs of relation-suite trials, drawn once per trial key and
    shape.

    A trial's input depends only on its key f"{seed}:{name}:{t}" and on
    the shape (n, nw) of its case, n strands and nw content words: every
    draw is below a bound made of n, nw and earlier draws, and words
    enter only as indices into the case's word list.  So `inputs` keeps
    the index-level input of each (n, nw, key), one `bytes` per key in one
    dict per shape, and a case of that shape on any quiver reads it back
    without drawing.  A miss draws it from a fresh `Random(key)`.

    Call-scoped, like `paving.FqGraph`: it lives as long as its holder
    keeps it (`cli.relations_cases` keeps one for a sweep).  Two threads
    may share the store.  Entries are never changed in place; two threads
    may both draw the same input, and whichever copy is stored first is
    kept, the other being identical."""

    def __init__(self):
        self._inputs: dict[tuple[int, int], dict[str, bytes | tuple]] = {}

    def inputs(self, key: str, n: int, nw: int, step):
        """The index-level input of trial `key` on n strands and nw words:
        step(Random(key)) the first time, stored as `bytes` (a tuple past
        256 words, whose indices need more than one byte; every other value
        is at most the strand cap, 64), and that stored copy on every later
        call.  step must read only n, nw and its draws."""
        shape = self._inputs.get((n, nw))
        if shape is None:
            shape = self._inputs.setdefault((n, nw), {})
        entry = shape.get(key)
        if entry is None:
            key = sys.intern(key)  # one key string for every shape
            ints = step(Random(key))
            entry = shape.setdefault(key, bytes(ints) if nw <= 256 else tuple(ints))
        return entry


def _rand_terms(rng: Random, n: int, nw: int) -> list:
    """A random labeled polynomial on n strands and nw words, by index:
    one or two words, each with one or two monomials of exponents at most
    2 and total degree at most 6, as n + 2 ints per monomial: the word's
    index, the index of its coefficient in `_COEFFS`, and the exponents.
    An exponent is `rng.randrange(3)` inlined, which is `getrandbits(2)`
    drawn again while it is 3, at a fraction of the call's cost.
    `_flat_of` reads the polynomial back."""
    bits = rng.getrandbits
    out = []
    for wi in rng.sample(range(nw), min(nw, rng.randint(1, 2))):
        for _ in range(rng.randint(1, 2)):
            exps = []
            for _ in range(n):
                e = bits(2)
                while e == 3:
                    e = bits(2)
                exps.append(e)
            while sum(exps) > 6:
                exps[rng.randrange(n)] = 0
            out += (wi, rng.randrange(6), *exps)
    return out


def _flat_of(inputs, start: int, n: int, words) -> dict:
    """The flat map {(word, exponents): coefficient} of the monomials that
    `_rand_terms` drew, read from inputs[start:] on the given words: the
    coefficients of one key add up, and a key whose sum is 0 is dropped."""
    flat: dict = {}
    for p in range(start, len(inputs), n + 2):
        key = (words[inputs[p]], tuple(inputs[p + 2:p + 2 + n]))
        flat[key] = flat.get(key, 0) + _COEFFS[inputs[p + 1]]
    return {key: c for key, c in flat.items() if c != 0}


def relation_suite(
    Q: Quiver, d: DimVector, trials: int = 100, seed: int = 0,
    store: TrialInputs | None = None,
) -> SuiteReport:
    """Checks the defining relations of the labeled-polynomial action on
    seeded random inputs; also checks degree homogeneity of every
    generator.  Zero failures is the correctness gate for the crossing
    conventions.

    Each relation side is a list of (coefficient, atoms) terms, atoms in
    operator order; a relation holds on an input when `_apply_terms`
    folds lhs - rhs over its flat map to all-zero coefficients.  No
    operator is multiplied out.  Each family has two steps.  Its draw
    step draws an index-level input for trial t from
    `Random(f"{seed}:{name}:{t}")`: word indices into the content words,
    exponents, coefficient indices and positions.  It reads only n =
    total(d), the word count nw and its draws, so the input depends on
    the key and (n, nw) alone, never on the quiver or the words.  Its check step maps the indices to this case's words and
    folds.  The inputs come from `store`, a `TrialInputs` that draws each
    (key, n, nw) once: `cli.relations_cases` shares one across its cases,
    whose keys and shapes repeat, and a call without one makes its own,
    where every key is new.  A (Q, d) past `check_suite_size` is refused
    before any word is listed."""
    if d.total < 1:
        raise ValueError("the relation suite needs a dimension vector with positive total")
    check_suite_size(Q, d)
    words = content_words(Q, d)
    n = d.total
    nw = len(words)
    # the polynomial right sides of psi-square and braid, as terms, on
    # (v, u, r) and (i_r, i_{r+1}, i_{r+2}, r)
    square_rhs: dict = {}
    braid_rhs: dict = {}
    content = frozenset(words)

    def E(w):
        return ("e", w)

    def X(k):
        return ("x", k)

    def PSI(r):
        return ("psi", r)

    def check_equal(lhs: list, rhs: list, f: dict) -> bool:
        diff = _apply_terms(Q, lhs + [(-c, atoms) for c, atoms in rhs], f)
        return not any(diff.values())

    def show(f: dict) -> LabeledPoly:
        return LabeledPoly._flat(n, f)

    def after_e(memo: dict, key: tuple, poly, i: tuple) -> list:
        """Multiplication by the polynomial poly() after e(i), as terms;
        poly() is built and expanded once per key."""
        terms = memo.get(key)
        if terms is None:
            terms = memo[key] = _poly_terms(poly())
        return [(c, atoms + (E(i),)) for c, atoms in terms]

    def flat(inputs) -> dict:
        """The random polynomial of a two-value input (`drawn`)."""
        return _flat_of(inputs, 2, n, words)

    def drawn(first: int, second: int):
        """The draw step of a family that draws a random polynomial, then
        `rng.randrange(first)` and `rng.randrange(second)`: the two values,
        then the polynomial's `_rand_terms`."""
        def step(rng: Random) -> list:
            terms = _rand_terms(rng, n, nw)
            a = rng.randrange(first)
            return [a, rng.randrange(second)] + terms
        return step

    families: list[tuple[str, object, object]] = []

    def fam(name, step):
        def wrap(check):
            families.append((name, step, check))
            return check
        return wrap

    @fam("idempotents", drawn(nw, nw))
    def _idem(inputs) -> str | None:
        f = flat(inputs)
        i, j = words[inputs[0]], words[inputs[1]]
        if not check_equal([(1, (E(i), E(j)))], [(1, (E(i),))] if i == j else [], f):
            return f"e({i})e({j}) on {show(f)}"
        # e(w) keeps the keys of f on word w, so each content word that f
        # carries adds a term and every other e(w) acts by zero: the terms
        # are read off one pass over f's keys, grouped by word
        carried = dict.fromkeys(w for w, _ in f)
        idempotent_sum = [(1, (E(w),)) for w in carried if w in content]
        if not check_equal(idempotent_sum, [(1, ())], f):
            return f"sum of idempotents on {show(f)}"
        return None

    @fam("x-commute", drawn(n, n))
    def _xcomm(inputs) -> str | None:
        f = flat(inputs)
        k, l = 1 + inputs[0], 1 + inputs[1]
        if not check_equal([(1, (X(k), X(l)))], [(1, (X(l), X(k)))], f):
            return f"x{k} x{l} on {show(f)}"
        return None

    if n >= 2:

        @fam("label-exchange", drawn(n - 1, nw))
        def _exchange(inputs) -> str | None:
            f = flat(inputs)
            r, i = 1 + inputs[0], words[inputs[1]]
            si = i[:r - 1] + (i[r], i[r - 1]) + i[r + 1:]
            if not check_equal([(1, (PSI(r), E(i)))], [(1, (E(si), PSI(r)))], f):
                return f"psi{r} e({i}) exchange on {show(f)}"
            return None

        @fam("mixed-left", drawn(n - 1, nw))
        def _mixed_left(inputs) -> str | None:
            f = flat(inputs)
            r, i = 1 + inputs[0], words[inputs[1]]
            lhs = [(1, (PSI(r), X(r), E(i))), (-1, (X(r + 1), PSI(r), E(i)))]
            rhs = [(1, (E(i),))] if i[r - 1] == i[r] else []
            if not check_equal(lhs, rhs, f):
                return f"(psi{r} x{r} - x{r + 1} psi{r}) e({i}) on {show(f)}"
            return None

        @fam("mixed-right", drawn(n - 1, nw))
        def _mixed_right(inputs) -> str | None:
            f = flat(inputs)
            r, i = 1 + inputs[0], words[inputs[1]]
            lhs = [(1, (X(r), PSI(r), E(i))), (-1, (PSI(r), X(r + 1), E(i)))]
            rhs = [(1, (E(i),))] if i[r - 1] == i[r] else []
            if not check_equal(lhs, rhs, f):
                return f"(x{r} psi{r} - psi{r} x{r + 1}) e({i}) on {show(f)}"
            return None

        @fam("psi-square", drawn(n - 1, nw))
        def _square(inputs) -> str | None:
            f = flat(inputs)
            r, i = 1 + inputs[0], words[inputs[1]]
            key = (i[r - 1], i[r], r)
            rhs = after_e(square_rhs, key, lambda: q_factor(Q, n, *key), i)
            if not check_equal([(1, (PSI(r), PSI(r), E(i)))], rhs, f):
                return f"psi{r}^2 e({i}) on {show(f)}"
            return None

    if n >= 3:

        # s is a choice among the n - 2 positions other than r, r + 1, in order
        @fam("x-distant", drawn(n - 1, n - 2))
        def _xdist(inputs) -> str | None:
            f = flat(inputs)
            r, s = 1 + inputs[0], 1 + inputs[1]
            if s >= r:
                s += 2
            if not check_equal([(1, (PSI(r), X(s)))], [(1, (X(s), PSI(r)))], f):
                return f"psi{r} x{s} on {show(f)}"
            return None

        @fam("braid", drawn(n - 2, nw))
        def _braid(inputs) -> str | None:
            f = flat(inputs)
            r, i = 1 + inputs[0], words[inputs[1]]
            lhs = [
                (1, (PSI(r), PSI(r + 1), PSI(r), E(i))),
                (-1, (PSI(r + 1), PSI(r), PSI(r + 1), E(i))),
            ]
            key = (i[r - 1], i[r], i[r + 1], r)
            rhs = after_e(braid_rhs, key, lambda: braid_correction(Q, n, i, r), i)
            if not check_equal(lhs, rhs, f):
                return f"braid at {r} on e({i}), {show(f)}"
            return None

    if n >= 4:

        def _psidist_draw(rng: Random) -> list:
            """r - 1, then s - r - 2 for an s in r + 2..n, then the terms."""
            terms = _rand_terms(rng, n, nw)
            r = rng.randrange(n - 3)
            return [r, rng.randrange(n - r - 3)] + terms

        @fam("psi-distant", _psidist_draw)
        def _psidist(inputs) -> str | None:
            f = flat(inputs)
            r = 1 + inputs[0]
            s = r + 2 + inputs[1]
            if not check_equal([(1, (PSI(r), PSI(s)))], [(1, (PSI(s), PSI(r)))], f):
                return f"psi{r} psi{s} on {show(f)}"
            return None

    def _homog_draw(rng: Random) -> list:
        """A word, exponents below 3, a coefficient and one generator, as
        [word, coefficient, kind, argument, exponents...]: the generator
        is a choice among e(word), x_k and, on two or more strands, psi_r,
        each drawn first; kind indexes ("e", "x", "psi")."""
        i = rng.randrange(nw)
        exps = [rng.randrange(3) for _ in range(n)]
        c = rng.randrange(3)
        args = [rng.randrange(nw), 1 + rng.randrange(n)]
        if n >= 2:
            args.append(1 + rng.randrange(n - 1))
        kind = rng.randrange(len(args))
        return [i, c, kind, args[kind]] + exps

    @fam("degree-homogeneity", _homog_draw)
    def _homog(inputs) -> str | None:
        i = words[inputs[0]]
        exps = tuple(inputs[4:])
        f = {(i, exps): (1, 2, -1)[inputs[1]]}
        in_deg = 2 * sum(exps) + word_offset(Q, i)
        kind, arg = ("e", "x", "psi")[inputs[2]], inputs[3]
        atom = (kind, words[arg] if kind == "e" else arg)
        shift = atom_degree(Q, atom, i)
        degs = show(_apply_terms(Q, [(1, (atom,))], f)).offset_degrees(Q)
        if degs and degs != {in_deg + shift}:
            return f"{atom} on {show(f)}: degrees {sorted(degs)}, expected {in_deg + shift}"
        return None

    if store is None:
        store = TrialInputs()
    verdicts = []
    for name, step, check in families:
        failures = 0
        witness = None
        for t in range(trials):
            w = check(store.inputs(f"{seed}:{name}:{t}", n, nw, step))
            if w is not None:
                failures += 1
                if witness is None:
                    witness = f"trial {t}: {w}"
        verdicts.append(RelationVerdict(name, trials, failures, witness))
    return SuiteReport(str(Q), str(d), seed, tuple(verdicts))


# ---------------------------------------------------------------------------
# the smash product S # Q[W]


def perm_compose(w: tuple[int, ...], v: tuple[int, ...]) -> tuple[int, ...]:
    """(w v)(k) = w(v(k))."""
    return tuple(w[v[k]] for k in range(len(v)))


def identity_perm(n: int) -> tuple[int, ...]:
    return tuple(range(n))


def adjacent_transposition(n: int, r: int) -> tuple[int, ...]:
    """s_r swapping 1-based positions r, r+1."""
    p = list(range(n))
    p[r - 1], p[r] = p[r], p[r - 1]
    return tuple(p)


def perm_to_word(w: tuple[int, ...]) -> tuple[int, ...]:
    """A reduced word (list of 1-based adjacent transposition indices) for
    w, produced by bubble sort; deterministic."""
    n = len(w)
    cur = list(w)
    word = []
    changed = True
    while changed:
        changed = False
        for r in range(n - 1):
            if cur[r] > cur[r + 1]:
                cur[r], cur[r + 1] = cur[r + 1], cur[r]
                word.append(r + 1)
                changed = True
    # the collected swaps sort w to the identity: w = s_{r1} ... s_{rk}
    # applied in reverse order
    return tuple(reversed(word))


def inversions(w: tuple[int, ...]) -> int:
    n = len(w)
    return sum(1 for k in range(n) for l in range(k + 1, n) if w[k] > w[l])


class SmashElement(_Sparse):
    """Element of S # Q[S_n], stored flat as {(permutation, exponents):
    coefficient}: the term x^e . w.  The constructor takes {permutation:
    Poly}."""

    __slots__ = ()

    def __init__(self, n: int, components=None):
        super().__init__(n, _flatten(components))

    @staticmethod
    def unit(n: int) -> "SmashElement":
        return SmashElement(n, {identity_perm(n): Poly.one(n)})

    @staticmethod
    def scalar(n: int, c) -> "SmashElement":
        return SmashElement(n, {identity_perm(n): Poly.constant(n, c)})

    @staticmethod
    def x(n: int, k: int) -> "SmashElement":
        return SmashElement(n, {identity_perm(n): Poly.x(n, k)})

    @staticmethod
    def s(n: int, r: int) -> "SmashElement":
        return SmashElement(n, {adjacent_transposition(n, r): Poly.one(n)})

    @staticmethod
    def from_poly(f: Poly) -> "SmashElement":
        return SmashElement(f.n, {identity_perm(f.n): f})

    def degrees(self) -> set[int]:
        return {sum(e) for _, e in self.terms}

    def __mul__(self, other: "SmashElement") -> "SmashElement":
        return smash_mul(self, other)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        chunks = []
        for w, f in sorted(_by_label(self.n, self.terms).items()):
            word = perm_to_word(w)
            wname = "*".join(f"s{r}" for r in word) if word else "e"
            chunks.append(f"({f})*{wname}")
        return " + ".join(chunks)


def smash_mul(a: SmashElement, b: SmashElement) -> SmashElement:
    """(f.w)(g.v) = f w(g) . wv, extended bilinearly; on monomials
    (x^e1 . w)(x^e2 . v) = x^(e1 + w.e2) . wv, where w moves exponent k of
    e2 to position w[k]."""
    if a.n != b.n:
        raise ValueError("size mismatch")
    out: dict = {}
    for (w, e1), c1 in a.terms.items():
        for (v, e2), c2 in b.terms.items():
            e = list(e1)
            for k, p in enumerate(e2):
                e[w[k]] += p
            key = (perm_compose(w, v), tuple(e))
            out[key] = out.get(key, 0) + c1 * c2
    return SmashElement._flat(a.n, out)


def monomials_of_degree(n: int, deg: int) -> list[tuple[int, ...]]:
    if n == 1:
        return [(deg,)]
    out = []
    for first in range(deg + 1):
        for rest in monomials_of_degree(n - 1, deg - first):
            out.append((first,) + rest)
    return out


def smash_center_dims(n: int, maxdeg: int) -> list[int]:
    """Dimension, per degree, of the elements commuting with x_1 and all
    adjacent transpositions, found by an exact nullity computation on each
    degree slice.  Equals the partition counts with parts of size <= n."""
    perms = list(itertools.permutations(range(n)))
    gens = [adjacent_transposition(n, r) for r in range(1, n)]
    dims = []
    for deg in range(maxdeg + 1):
        monos = monomials_of_degree(n, deg)
        basis = [(m, w) for m in monos for w in perms]
        col = {b: k for k, b in enumerate(basis)}
        rows: dict[tuple, list[int]] = {}

        def row_for(key) -> list[int]:
            if key not in rows:
                rows[key] = [0] * len(basis)
            return rows[key]

        for (mono, w) in basis:
            k = col[(mono, w)]
            # commutator with x_1: (mono.w) x_1 = mono * x_{w(0)+1} . w
            # while x_1 (mono.w) = mono * x_1 . w
            if w[0] != 0:
                up = list(mono)
                up[w[0]] += 1
                row_for(("x", tuple(up), w))[k] += 1
                down = list(mono)
                down[0] += 1
                row_for(("x", tuple(down), w))[k] -= 1
            # commutator with each s_r: (mono.w) s_r = mono . (w s_r)
            # while s_r (mono.w) = s_r(mono) . (s_r w)
            for g_idx, t in enumerate(gens):
                right = perm_compose(w, t)
                row_for(("s", g_idx, mono, right))[k] += 1
                left = perm_compose(t, w)
                smono = Poly.monomial(n, mono).permute(t)
                (sm, _c) = next(iter(smono.terms.items()))
                row_for(("s", g_idx, sm, left))[k] -= 1
        mat = [r for r in rows.values() if any(r)]
        dims.append(len(basis) - rank_int(mat, len(basis)))
    return dims
