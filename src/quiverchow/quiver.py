"""Quiver shapes, dimension vectors and compositions.

Two families of quivers are supported: the linear quiver $A_n$ with arrows
$i \\to i+1$ for $0 \\le i < n-1$, and the cyclic quiver on $n$ vertices with
arrows $i \\to i+1 \\bmod n$ (for $n = 1$ this is a single loop).  Vertices
are 0-indexed.  A composition of a dimension vector $d$ is an ordered list
of nonzero dimension vectors summing to $d$; it records the type of a flag
of graded subspaces.  A composition is complete when every part is a unit
vector, in which case it is just a word in the vertex alphabet.
"""

from __future__ import annotations

import itertools
from math import comb, factorial, prod

_set = object.__setattr__


class Frozen:
    """Base of the package's immutable value types.  A subclass lists its
    fields in `_fields` (constructor order) and in `__slots__`, sets them
    once in `__init__` through `object.__setattr__`, and writes its own
    `__eq__` (true only between instances of one class) and `__hash__`.
    Assigning or deleting an attribute afterwards raises AttributeError;
    `repr` shows the fields, and copying or pickling goes through the
    constructor."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({args})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self._fields)


class Quiver(Frozen):
    """kind is "linear" or "cyclic"; n is the number of vertices.  The hash
    is computed once, at construction."""

    __slots__ = ("kind", "n", "_hash", "_arrow_table")
    _fields = ("kind", "n")

    def __init__(self, kind: str, n: int) -> None:
        if kind not in ("linear", "cyclic"):
            raise ValueError(f"unknown quiver kind {kind!r}")
        if n < 1:
            raise ValueError("quiver needs at least one vertex")
        _set(self, "kind", kind)
        _set(self, "n", n)
        _set(self, "_hash", hash((kind, n)))
        _set(self, "_arrow_table", None)

    def __eq__(self, other):
        if other.__class__ is Quiver:
            return self.kind == other.kind and self.n == other.n
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    @property
    def vertices(self) -> range:
        return range(self.n)

    @property
    def cyclic(self) -> bool:
        return self.kind == "cyclic"

    def check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range for {self}")

    def arrow_count(self, v: int, w: int) -> int:
        """Number of arrows v -> w."""
        self.check_vertex(v)
        self.check_vertex(w)
        if self.cyclic:
            return 1 if (v + 1) % self.n == w else 0
        return 1 if w == v + 1 else 0

    @property
    def arrow_table(self) -> tuple[tuple[int, ...], ...]:
        """arrow_table[v][w] is arrow_count(v, w), built once per quiver and
        read without vertex checks: for hot loops over validated labels."""
        table = self._arrow_table
        if table is None:
            table = tuple(tuple(self.arrow_count(v, w) for w in self.vertices) for v in self.vertices)
            _set(self, "_arrow_table", table)
        return table

    def arrows(self) -> list[tuple[int, int]]:
        """All arrows as (source, target) pairs."""
        if self.cyclic:
            return [(v, (v + 1) % self.n) for v in range(self.n)]
        return [(v, v + 1) for v in range(self.n - 1)]

    def __str__(self) -> str:
        return f"A{self.n}" if self.kind == "linear" else f"cyclic:{self.n}"


def parse_quiver(spec: str) -> Quiver:
    """Parse "A<n>" (linear) or "cyclic:<n>"."""
    spec = spec.strip()
    if spec.startswith("cyclic:"):
        return Quiver("cyclic", int(spec[len("cyclic:"):]))
    if spec.startswith("A") and spec[1:].isdigit():
        return Quiver("linear", int(spec[1:]))
    raise ValueError(f"cannot parse quiver spec {spec!r}")


class DimVector(tuple):
    """Vertex-indexed tuple of nonnegative integers."""

    def __new__(cls, entries) -> "DimVector":
        entries = tuple(int(e) for e in entries)
        if any(e < 0 for e in entries):
            raise ValueError("dimension vector entries must be nonnegative")
        return super().__new__(cls, entries)

    @property
    def total(self) -> int:
        return sum(self)

    def __add__(self, other) -> "DimVector":
        return DimVector(a + b for a, b in zip(self, other, strict=True))

    def __sub__(self, other) -> "DimVector":
        return DimVector(a - b for a, b in zip(self, other, strict=True))

    def is_zero(self) -> bool:
        return all(e == 0 for e in self)

    def __str__(self) -> str:
        return ",".join(str(e) for e in self)


def unit_vector(n: int, v: int) -> DimVector:
    return DimVector(1 if i == v else 0 for i in range(n))


def parse_dimvector(s: str) -> DimVector:
    return DimVector(int(t) for t in s.strip().split(","))


class Composition(Frozen):
    """Ordered list of nonzero dimension vectors; a flag type.  The hash is
    computed once, at construction, and `target` on first use."""

    __slots__ = ("parts", "_hash", "_target")
    _fields = ("parts",)

    def __init__(self, parts: tuple[DimVector, ...]) -> None:
        for p in parts:
            if p.is_zero():
                raise ValueError("composition parts must be nonzero")
        n = {len(p) for p in parts}
        if len(n) > 1:
            raise ValueError("composition parts live over different vertex sets")
        _set(self, "parts", parts)
        _set(self, "_hash", hash((parts,)))
        _set(self, "_target", None)

    def __eq__(self, other):
        if other.__class__ is Composition:
            return self.parts == other.parts
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    @property
    def target(self) -> DimVector:
        total = self._target
        if total is None:
            if not self.parts:
                total = DimVector(())
            else:
                total = self.parts[0]
                for p in self.parts[1:]:
                    total = total + p
            _set(self, "_target", total)
        return total

    @property
    def complete(self) -> bool:
        return all(p.total == 1 for p in self.parts)

    def word(self) -> tuple[int, ...]:
        """Vertex word of a complete composition."""
        if not self.complete:
            raise ValueError("only complete compositions have a word form")
        return tuple(p.index(1) for p in self.parts)

    @staticmethod
    def from_word(word, n: int) -> "Composition":
        """The complete composition of a word in the vertices 0..n-1.  The n
        unit vectors are built once per call, as tuples of 0 and 1 that need
        no validation, and shared by the letters."""
        units = [tuple.__new__(DimVector, (0,) * v + (1,) + (0,) * (n - 1 - v)) for v in range(n)]
        parts = []
        for v in word:
            if not 0 <= v < n:
                raise ValueError(f"letter {v} of word {tuple(word)} is not a vertex of 0..{n - 1}")
            parts.append(units[v])
        return Composition(tuple(parts))

    def __str__(self) -> str:
        return ";".join(str(p) for p in self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __getitem__(self, k):
        return self.parts[k]


def parse_composition(s: str, n: int) -> Composition:
    """Parse the semicolon form "1,0;0,1"; each part must have n entries."""
    s = s.strip()
    if not s:
        return Composition(())
    parts = []
    for chunk in s.split(";"):
        p = parse_dimvector(chunk)
        if len(p) != n:
            raise ValueError(f"part {chunk!r} has {len(p)} entries, expected {n}")
        parts.append(p)
    return Composition(tuple(parts))


def parse_word(s: str) -> tuple[int, ...]:
    s = s.strip()
    if not s:
        return ()
    return tuple(int(t) for t in s.split(","))


def cartan(Q: Quiver, v: int, w: int) -> int:
    """Symmetrized Cartan pairing of the underlying graph.

    2 on the diagonal (by convention also for the loop vertex), and minus
    the number of arrows between v and w in either direction off it.
    """
    Q.check_vertex(v)
    Q.check_vertex(w)
    if v == w:
        return 2
    return -(Q.arrow_count(v, w) + Q.arrow_count(w, v))


def content_words(Q: Quiver, d: DimVector) -> list[tuple[int, ...]]:
    """All words with content d (d_v letters v), each once, in
    lexicographic order.  Each word is the next permutation of the one
    before, so the cost follows the number of words, not total(d)!.

    >>> content_words(Quiver("linear", 2), DimVector((2, 1)))
    [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
    """
    if len(d) != Q.n:
        raise ValueError(f"dimension vector {d} has {len(d)} entries, {Q} has {Q.n} vertices")
    word = [v for v in Q.vertices for _ in range(d[v])]
    out = [tuple(word)]
    while True:
        k = len(word) - 2
        while k >= 0 and word[k] >= word[k + 1]:
            k -= 1
        if k < 0:
            return out
        l = len(word) - 1
        while word[l] <= word[k]:
            l -= 1
        word[k], word[l] = word[l], word[k]
        word[k + 1:] = reversed(word[k + 1:])
        out.append(tuple(word))


def enumerate_complete_comps(Q: Quiver, d: DimVector) -> list[Composition]:
    """All complete compositions of d, in the order of `content_words`."""
    return [Composition.from_word(w, Q.n) for w in content_words(Q, d)]


# permutation_degrees walks prod_v d_v! permutations, one per reordering of
# equal letters; a longer walk is refused before it starts
MAX_WORD_PERMUTATIONS = 40_320


def permutation_degrees(Q: Quiver, i: tuple[int, ...], j: tuple[int, ...]):
    """An iterator of (w, deg) for every permutation w with j[w(k)] = i[k],
    for words i and j of equal content, where deg sums -cartan(i_k, i_l)
    over the inversions k < l, w(k) > w(l).  Only the positions of equal
    letters are permuted, so repeated letters cost no filtering.  A walk
    of more than MAX_WORD_PERMUTATIONS is refused here, before any step."""
    slots: dict[int, list[int]] = {}
    for pos, letter in enumerate(j):
        slots.setdefault(letter, []).append(pos)
    count = prod(factorial(len(s)) for s in slots.values())
    if count > MAX_WORD_PERMUTATIONS:
        raise ValueError(
            f"the block of words {','.join(map(str, i))} and {','.join(map(str, j))} "
            f"has {count} permutations (the product of d_v!), above the bound of "
            f"{MAX_WORD_PERMUTATIONS}"
        )
    return _walk_permutations(Q, i, slots)


def _walk_permutations(Q: Quiver, i: tuple[int, ...], slots: dict):
    n = len(i)
    letters = sorted(slots)
    positions = {a: [k for k, b in enumerate(i) if b == a] for a in letters}
    cost = [[-cartan(Q, a, b) for b in i] for a in i]
    for combo in itertools.product(*(itertools.permutations(slots[a]) for a in letters)):
        w = [0] * n
        for a, perm in zip(letters, combo):
            for src, tgt in zip(positions[a], perm):
                w[src] = tgt
        deg = 0
        for k in range(n):
            wk = w[k]
            row = cost[k]
            for l in range(k + 1, n):
                if wk > w[l]:
                    deg += row[l]
        yield tuple(w), deg


def multinomial(d: DimVector) -> int:
    out = factorial(d.total)
    for e in d:
        out //= factorial(e)
    return out


def enumerate_compositions(d: DimVector) -> list[Composition]:
    """All compositions of d (ordered lists of nonzero subvectors), in
    lexicographic order on the part sequences."""
    n = len(d)

    def subvectors(rem: DimVector):
        ranges = [range(e + 1) for e in rem]
        for entries in itertools.product(*ranges):
            v = DimVector(entries)
            if not v.is_zero():
                yield v

    def rec(rem: DimVector):
        if rem.is_zero():
            yield ()
            return
        for first in subvectors(rem):
            for rest in rec(rem - first):
                yield (first,) + rest

    return [Composition(parts) for parts in sorted(rec(d))]


def count_compositions(d: DimVector) -> int:
    """The number of compositions of d, len(enumerate_compositions(d)),
    counted without building them.  Ordered k-tuples of vectors in N^n
    with sum d, zero vectors allowed, number prod_v C(d_v + k - 1, k - 1);
    inclusion-exclusion over the zero entries leaves the tuples of k
    nonzero parts.  A composition has at most total(d) parts; the zero
    vector has one, the empty composition."""
    if d.is_zero():
        return 1
    total = 0
    for k in range(1, d.total + 1):
        for j in range(k):
            ways = 1
            for e in d:
                ways *= comb(e + k - j - 1, k - j - 1)
            total += (-1) ** j * comb(k, j) * ways
    return total


def dim_flag(comp: Composition) -> int:
    """Dimension of the product of partial flag varieties of type comp."""
    parts = comp.parts
    total = 0
    for a in range(len(parts)):
        for b in range(a + 1, len(parts)):
            total += sum(x * y for x, y in zip(parts[a], parts[b]))
    return total


def dim_qvariety(Q: Quiver, comp: Composition) -> int:
    """dim_flag plus the rank of the bundle of strictly flag-lowering
    representations: an arrow block from part a to part b is allowed only
    when b < a (the flag step strictly drops)."""
    parts = comp.parts
    extra = 0
    for (s, t) in Q.arrows():
        for a in range(len(parts)):
            for b in range(a):
                extra += parts[b][t] * parts[a][s]
    return dim_flag(comp) + extra
