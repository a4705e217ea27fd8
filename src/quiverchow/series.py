"""Exact truncated Laurent series in the half-twist variable u.

Graded dimensions in this package live on a single exponent lattice: the
Chow-theoretic twist contributes even powers (q = u^2) while algebra
generators can sit in odd u-degree, so everything is a Laurent series in u.
A series carries an inclusive truncation order: coefficients are exact for
every exponent up to and including `trunc`.  Polynomials and monomials are
exact everywhere and carry an infinite truncation; finite orders enter
through inversion and propagate through arithmetic as the minimum of the
operands' orders shifted by the other factor's lowest exponent.
`times_bgl` forms an integer polynomial times bgl factors without building
series: a running sum per factor over one dense list, exact to a given u^N.

Every series is held in canonical form: distinct exponents in ascending
order, each at most `trunc`, with non-zero coefficients, integral ones as
`int`.  The public constructor (and `from_map`) puts any input with
distinct exponents into that form.  A producer whose output is canonical
by construction builds it with `HalfLaurentSeries._canonical` instead,
skipping that pass: `truncate` and `shifted` (the exponent shift that
`extalg.compare_block` and the transpose check in `cli.klr_block_check`
use) filter a canonical tuple, and `extalg._unpack` and
`extalg.gdim_alg_klr` read ascending non-zero `int` slots up to u^N.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from itertools import accumulate

from .quiver import Frozen

DEFAULT_TRUNC = 24

INF = float("inf")


def _norm_coeff(c):
    if type(c) is Fraction and c.denominator == 1:
        return int(c)
    return c


_set = object.__setattr__


class HalfLaurentSeries(Frozen):
    """coeffs: sorted tuple of (exponent, nonzero coefficient); trunc is the
    last exponent guaranteed exact (float("inf") for exact polynomials).
    Construction puts coeffs in the canonical form of the module docstring;
    only `_canonical`, for the producers named there, skips that."""

    __slots__ = ("coeffs", "trunc")
    _fields = ("coeffs", "trunc")

    def __init__(self, coeffs: tuple[tuple[int, int | Fraction], ...], trunc: int | float = INF):
        _set(self, "coeffs", tuple(
            sorted((e, _norm_coeff(c)) for e, c in coeffs if c != 0 and e <= trunc)
        ))
        _set(self, "trunc", trunc)

    def __eq__(self, other):
        if other.__class__ is HalfLaurentSeries:
            return self.coeffs == other.coeffs and self.trunc == other.trunc
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.coeffs, self.trunc))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "HalfLaurentSeries":
        return HalfLaurentSeries((), INF)

    @staticmethod
    def one() -> "HalfLaurentSeries":
        return HalfLaurentSeries(((0, 1),), INF)

    @staticmethod
    def monomial(exp: int, coeff=1) -> "HalfLaurentSeries":
        return HalfLaurentSeries(((exp, coeff),), INF)

    @staticmethod
    def from_map(coeffs: dict, trunc=INF) -> "HalfLaurentSeries":
        return HalfLaurentSeries(tuple(coeffs.items()), trunc)

    @staticmethod
    def _canonical(coeffs: tuple, trunc) -> "HalfLaurentSeries":
        """The series with exactly these coeffs, not normalised.  The caller
        guarantees the canonical form: exponents distinct and ascending,
        each at most `trunc`, coefficients non-zero and either `int` or a
        `Fraction` that is not integral; so the result equals
        `HalfLaurentSeries(coeffs, trunc)`, with the same tuple."""
        s = object.__new__(HalfLaurentSeries)
        _set(s, "coeffs", coeffs)
        _set(s, "trunc", trunc)
        return s

    # -- structure ---------------------------------------------------------

    @property
    def min_exp(self):
        """Lowest exponent with a nonzero coefficient; INF for the zero
        series (so that zero times anything keeps an infinite window)."""
        return self.coeffs[0][0] if self.coeffs else INF

    def coefficient(self, e: int):
        for exp, c in self.coeffs:
            if exp == e:
                return c
        return 0

    def is_zero(self) -> bool:
        return not self.coeffs

    def as_map(self) -> dict[int, int | Fraction]:
        return dict(self.coeffs)

    # -- arithmetic --------------------------------------------------------

    def add(self, other: "HalfLaurentSeries") -> "HalfLaurentSeries":
        trunc = min(self.trunc, other.trunc)
        out: dict[int, object] = dict(self.coeffs)
        for e, c in other.coeffs:
            out[e] = out.get(e, 0) + c
        return HalfLaurentSeries(tuple(out.items()), trunc)

    def neg(self) -> "HalfLaurentSeries":
        return HalfLaurentSeries(tuple((e, -c) for e, c in self.coeffs), self.trunc)

    def sub(self, other: "HalfLaurentSeries") -> "HalfLaurentSeries":
        return self.add(other.neg())

    def scale(self, factor) -> "HalfLaurentSeries":
        return HalfLaurentSeries(
            tuple((e, c * factor) for e, c in self.coeffs), self.trunc
        )

    def mul(self, other: "HalfLaurentSeries") -> "HalfLaurentSeries":
        trunc = min(self.trunc + other.min_exp, other.trunc + self.min_exp)
        out: dict[int, object] = {}
        for e1, c1 in self.coeffs:
            for e2, c2 in other.coeffs:
                e = e1 + e2
                if e <= trunc:
                    out[e] = out.get(e, 0) + c1 * c2
        return HalfLaurentSeries(tuple(out.items()), trunc)

    def pow(self, k: int) -> "HalfLaurentSeries":
        out = HalfLaurentSeries.one()
        for _ in range(k):
            out = out.mul(self)
        return out

    def invert_unit(self, trunc=None) -> "HalfLaurentSeries":
        """Multiplicative inverse.  The lowest coefficient must be a nonzero
        rational; the result window is the input's shifted by twice the
        lowest exponent, capped at `trunc` (default DEFAULT_TRUNC when the
        input is exact)."""
        if self.is_zero():
            raise ValueError("cannot invert the zero series")
        m = self.min_exp
        c0 = self.coeffs[0][1]
        natural = self.trunc - 2 * m
        if trunc is None:
            trunc = natural
        else:
            trunc = min(trunc, natural)
        if trunc == INF:
            trunc = DEFAULT_TRUNC
        trunc = int(trunc)
        lead = Fraction(1, 1) / Fraction(c0)
        a = self.as_map()
        b: dict[int, object] = {-m: lead}
        # coefficient recurrence from (self * result) = 1, solved upward
        for e in range(-m + 1, trunc + 1):
            acc = 0
            for i in range(m + 1, e + 2 * m + 1):
                ai = a.get(i, 0)
                if ai:
                    acc += ai * b.get(e + m - i, 0)
            if acc:
                b[e] = -lead * acc
        return HalfLaurentSeries(tuple(b.items()), trunc)

    def shifted(self, k: int, trunc=INF) -> "HalfLaurentSeries":
        """The series times u^k, to u^min(trunc, self.trunc + k): what
        `mul(monomial(k))` and then `truncate(trunc)` give, read off the
        canonical tuple in one pass."""
        window = min(trunc, self.trunc + k)
        return HalfLaurentSeries._canonical(
            tuple((e + k, c) for e, c in self.coeffs if e + k <= window), window
        )

    def truncate(self, trunc) -> "HalfLaurentSeries":
        """The series to u^trunc; `self` when that keeps every exponent it
        guarantees."""
        if trunc >= self.trunc:
            return self
        kept = tuple(ec for ec in self.coeffs if ec[0] <= trunc)
        return HalfLaurentSeries._canonical(kept, trunc)

    # -- comparison and rendering ------------------------------------------

    def __str__(self) -> str:
        if not self.coeffs:
            body = "0"
        else:
            chunks = []
            for e, c in self.coeffs:
                if e == 0:
                    chunks.append(str(c))
                else:
                    head = "" if c == 1 else ("-" if c == -1 else f"{c}*")
                    chunks.append(f"{head}u^{e}" if e != 1 else f"{head}u")
            body = " + ".join(chunks).replace("+ -", "- ")
        if self.trunc == INF:
            return body
        return f"{body} + O(u^{int(self.trunc) + 1})"


def first_discrepancy(a: HalfLaurentSeries, b: HalfLaurentSeries) -> int | None:
    """Smallest exponent within both windows where the coefficients differ,
    None when the series agree on the common window.  One pass over the
    exponents of either series, each looked up in both coefficient maps."""
    window = min(a.trunc, b.trunc)
    ca = dict(a.coeffs)
    cb = dict(b.coeffs)
    gaps = [e for e in ca.keys() | cb.keys() if e <= window and ca.get(e, 0) != cb.get(e, 0)]
    return min(gaps, default=None)


@functools.lru_cache(maxsize=None)
def bgl(m: int, trunc=DEFAULT_TRUNC) -> HalfLaurentSeries:
    """Poincare series of the Chow ring of the classifying space of GL_m in
    q = u^2: the product over k <= m of (1 - u^{2k})^{-1}.  Coefficient of
    u^{2k} counts partitions of k into parts of size at most m.  Computed
    once per argument pair; the series is immutable, so callers share it."""
    out = HalfLaurentSeries.one()
    for k in range(1, m + 1):
        factor = HalfLaurentSeries.one().sub(HalfLaurentSeries.monomial(2 * k))
        out = out.mul(factor.invert_unit(trunc))
    return out.truncate(trunc)


def times_bgl(coeffs: dict[int, int], ms, N: int) -> dict[int, int]:
    """Exact coefficients up to u^N of the Laurent polynomial `coeffs`
    (integer coefficients) times the product of bgl(m) over m in `ms`.

    The polynomial is loaded into one dense list over the exponents
    m0..N, m0 its lowest exponent; dividing by each factor 1 - u^{2k},
    k = 1..m, is the running sum a[x] += a[x - 2k] taken upward, done on
    every residue class of the index mod 2k.  Terms above u^N never reach
    a lower exponent, so they are dropped on loading; m0 > N leaves
    nothing.
    """
    if not coeffs:
        return {}
    m0 = min(coeffs)
    if m0 > N:
        return {}
    a = [0] * (N - m0 + 1)
    for e, c in coeffs.items():
        if e <= N:
            a[e - m0] += c
    for m in ms:
        for k in range(1, m + 1):
            step = 2 * k
            for r in range(min(step, len(a))):
                a[r::step] = accumulate(a[r::step])
    return {m0 + x: c for x, c in enumerate(a) if c}
