"""Nilpotent representations as multisegments.

An indecomposable nilpotent representation of a linear or cyclic quiver is a
string module $E(i,l)$: one basis vector on each of the $l$ vertices ending
at the socle vertex $i$, with the arrow action shifting basis vectors toward
the socle and killing it.  Every nilpotent representation is a direct sum of
such segments, so isomorphism classes are multisets of pairs $(i,l)$.

This module enumerates classes of a given dimension vector, computes the
socle data and socle quotients consumed by the paving recursion, and knows
closed forms for Hom spaces between segments (cross-checked in the tests
against a brute-force intertwiner solve) and for orbit dimensions.
"""

from __future__ import annotations

import functools
import itertools
import re

from .quiver import DimVector, Frozen, Quiver

_set = object.__setattr__


@functools.total_ordering
class Segment(Frozen):
    """String module with socle at `socle_vertex` and `length` basis vectors.
    Segments are ordered by (socle_vertex, length)."""

    __slots__ = ("socle_vertex", "length")
    _fields = ("socle_vertex", "length")

    def __init__(self, socle_vertex: int, length: int) -> None:
        _set(self, "socle_vertex", socle_vertex)
        _set(self, "length", length)

    def __eq__(self, other):
        if other.__class__ is Segment:
            return self.socle_vertex == other.socle_vertex and self.length == other.length
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.socle_vertex, self.length))

    def __lt__(self, other):
        if other.__class__ is Segment:
            return (self.socle_vertex, self.length) < (other.socle_vertex, other.length)
        return NotImplemented

    def support(self, Q: Quiver) -> list[int]:
        """Vertices carrying the basis vectors, socle last; cyclic quivers
        wrap (a vertex may appear several times), linear ones must fit."""
        i, l = self.socle_vertex, self.length
        if Q.cyclic:
            return [(i - l + 1 + k) % Q.n for k in range(l)]
        verts = [i - l + 1 + k for k in range(l)]
        if verts[0] < 0 or verts[-1] >= Q.n:
            raise ValueError(f"segment {self} does not fit on {Q}")
        return verts

    def valid_on(self, Q: Quiver) -> bool:
        if self.length < 1 or not 0 <= self.socle_vertex < Q.n:
            return False
        return Q.cyclic or self.socle_vertex - self.length + 1 >= 0

    def __str__(self) -> str:
        return f"({self.socle_vertex},{self.length})"


class Multisegment(Frozen):
    """Multiset of segments in canonical sorted order; an isomorphism class.
    The hash is computed once, at construction."""

    __slots__ = ("segments", "_hash")
    _fields = ("segments",)

    def __init__(self, segments) -> None:
        segments = tuple(sorted(segments))
        _set(self, "segments", segments)
        _set(self, "_hash", hash((segments,)))

    def __eq__(self, other):
        if other.__class__ is Multisegment:
            return self.segments == other.segments
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    @functools.lru_cache(maxsize=None)
    def dim_vector(self, Q: Quiver) -> DimVector:
        counts = [0] * Q.n
        for s in self.segments:
            for v in s.support(Q):
                counts[v] += 1
        return DimVector(counts)

    def is_empty(self) -> bool:
        return not self.segments

    def is_semisimple(self) -> bool:
        return all(s.length == 1 for s in self.segments)

    def __str__(self) -> str:
        if not self.segments:
            return "0"
        return "+".join(str(s) for s in self.segments)

    def __iter__(self):
        return iter(self.segments)

    def __len__(self) -> int:
        return len(self.segments)


_SEGMENT_RE = re.compile(r"\(\s*(-?\d+)\s*,\s*(\d+)\s*\)")


def parse_multisegment(s: str) -> Multisegment:
    """Parse "(0,2)+(0,1)"; "0" or the empty string denote the zero class."""
    s = s.strip()
    if s in ("", "0"):
        return Multisegment(())
    chunks = [c.strip() for c in s.split("+")]
    segs = []
    for c in chunks:
        m = _SEGMENT_RE.fullmatch(c)
        if not m:
            raise ValueError(f"cannot parse segment {c!r}")
        seg = Segment(int(m.group(1)), int(m.group(2)))
        if seg.length < 1:
            raise ValueError(f"segment {c!r} must have positive length")
        segs.append(seg)
    return Multisegment(tuple(segs))


def all_segments(Q: Quiver, max_length: int) -> list[Segment]:
    out = []
    for l in range(1, max_length + 1):
        for i in Q.vertices:
            s = Segment(i, l)
            if s.valid_on(Q):
                out.append(s)
    return out


# enumerate_nilreps refuses a dimension vector with more classes than this;
# every geometric computation over d visits each class at least once.
MAX_STRATA = 1_000


@functools.lru_cache(maxsize=None)
def enumerate_nilreps(Q: Quiver, d: DimVector) -> tuple[Multisegment, ...]:
    """All multisegments with dimension vector d, canonically ordered.

    Segment lengths never exceed total(d), so the search space is finite.
    Each recursion level chooses one more segment type with at least one
    copy, so the depth is at most total(d).  More than `MAX_STRATA` classes
    is a ValueError, raised while enumerating.  Computed once per (Q, d);
    the result is an immutable tuple shared by every caller.
    """
    if len(d) != Q.n:
        raise ValueError("dimension vector does not match the quiver")
    segs = [(s, s.support(Q)) for s in all_segments(Q, d.total)]
    results: list[Multisegment] = []

    def rec(start: int, remaining: list[int], chosen: list[Segment]) -> None:
        if not any(remaining):
            if len(results) == MAX_STRATA:
                raise ValueError(
                    f"dimension vector {d} on {Q} has more than {MAX_STRATA} "
                    f"nilpotent classes, above the bound"
                )
            results.append(Multisegment(tuple(chosen)))
            return
        for idx in range(start, len(segs)):
            s, supp = segs[idx]
            # most copies of this segment that still fit
            most = min(remaining[v] // supp.count(v) for v in set(supp))
            for copies in range(most, 0, -1):
                left = remaining[:]
                for v in supp:
                    left[v] -= copies
                rec(idx + 1, left, chosen + [s] * copies)

    rec(0, list(d), [])
    return tuple(sorted(results, key=lambda m: m.segments))


def socle_basis(Q: Quiver, M: Multisegment) -> list[list[Segment]]:
    """Per-vertex lists of the segments socled there, longest first.

    The socle of a segment of length l sits in the (l-1)-st radical power,
    so ordering by decreasing length refines the radical filtration of the
    socle; ties are between isomorphic summands and are interchangeable.
    """
    out: list[list[Segment]] = [[] for _ in Q.vertices]
    for s in M.segments:
        out[s.socle_vertex].append(s)
    for v in Q.vertices:
        out[v].sort(key=lambda s: (-s.length, s.socle_vertex))
    return out


def quotient_by_socles(
    Q: Quiver, M: Multisegment, chosen: list[list[int]]
) -> Multisegment:
    """Quotient of M by the chosen socle lines.

    `chosen[v]` indexes entries of socle_basis(Q, M)[v].  A chosen segment
    (i, l) loses its socle vector and becomes (i-1, l-1) (vertex arithmetic
    modular exactly for cyclic quivers); length-0 segments are dropped.
    """
    basis = socle_basis(Q, M)
    for v in Q.vertices:
        if not all(0 <= k < len(basis[v]) for k in chosen[v]):
            raise ValueError(f"invalid socle reference at vertex {v}")
    return _quotient_of_basis(Q, basis, chosen)


def _quotient_of_basis(
    Q: Quiver, basis: list[list[Segment]], chosen: list[list[int]]
) -> Multisegment:
    """`quotient_by_socles` on a socle basis already formed, with indices
    already known to be in range."""
    new_segs: list[Segment] = []
    for v in Q.vertices:
        picked = set(chosen[v])
        for k, s in enumerate(basis[v]):
            if k in picked:
                if s.length > 1:
                    nv = (s.socle_vertex - 1) % Q.n if Q.cyclic else s.socle_vertex - 1
                    new_segs.append(Segment(nv, s.length - 1))
            else:
                new_segs.append(s)
    return Multisegment(tuple(new_segs))


def hom_dim(Q: Quiver, A: Segment, B: Segment) -> int:
    """dim Hom(E(A), E(B)).

    A nonzero map factors a length-m quotient of A (head fixed) onto a
    length-m submodule of B (socle fixed); the head/socle vertices agree
    exactly when m = i_B - i_A + l_A modulo n (exact equality for linear
    quivers).  Each admissible m in [1, min(l_A, l_B)] contributes one
    dimension.
    """
    lo = min(A.length, B.length)
    target = B.socle_vertex - A.socle_vertex + A.length - 1
    count = 0
    for a in range(lo):
        if Q.cyclic:
            if (a - target) % Q.n == 0:
                count += 1
        else:
            if a == target:
                count += 1
    return count


def hom_dim_multi(Q: Quiver, M: Multisegment, N: Multisegment) -> int:
    return sum(hom_dim(Q, a, b) for a in M for b in N)


def orbit_dim(Q: Quiver, M: Multisegment) -> int:
    """Dimension of the isomorphism-class stratum of M inside Rep(d):
    dim of the base-change group minus dim End(M)."""
    d = M.dim_vector(Q)
    group_dim = sum(e * e for e in d)
    return group_dim - hom_dim_multi(Q, M, M)


def aut_series_exponents(M: Multisegment) -> list[int]:
    """Multiplicities of the distinct segment classes of M, descending.

    The reductive quotient of Aut(M) is a product of GL_{m} over the
    distinct classes; these m feed the classifying-space series factors.
    """
    counts = [len(list(g)) for _, g in itertools.groupby(M.segments)]
    return sorted(counts, reverse=True)


def semisimple_class(Q: Quiver, d: DimVector) -> Multisegment:
    segs = []
    for v in Q.vertices:
        segs.extend([Segment(v, 1)] * d[v])
    return Multisegment(tuple(segs))
