"""Affine pavings of quiver flag varieties, with a point-count oracle.

The variety in question parametrizes strictly lowering flags inside a fixed
nilpotent representation M: graded subspaces $0 = V^0 \\subset V^1 \\subset
\\dots$ with prescribed step dimensions, such that every arrow maps $V^j$
into $V^{j-1}$.  It is paved by affine cells, found recursively: the first
flag step must be a graded subspace of the socle of M, the choices of
coordinate subspaces spanned by socle lines enumerate the cells of a product
of Grassmannian Schubert pavings, and each choice contributes its Schubert
cell dimension plus the cells of the quotient representation with the
remaining steps.

`count_points` certifies the paving: it materializes M as shift matrices
over a prime field and counts the flags by direct enumeration of graded
subspaces, with no reference to the recursion.  For a variety paved by
affine cells the point count over F_q equals the Poincare polynomial at q.
Its kernels and echelon forms are Gaussian elimination over F_q, done by
`linalg` (the same routine that eliminates over Q elsewhere); a quotient
reads each image column's coordinates off after reducing it by the
subspace's echelon rows, with no linear solve.
Within one call it counts each literal quotient (the same matrices with the
same remaining steps) once; that memo lives only for the call.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .linalg import kernel_basis, rref_fractions
from .nilrep import Multisegment, quotient_by_socles, socle_basis
from .quiver import Composition, DimVector, Quiver


@dataclass(frozen=True)
class CellSet:
    """Multiset of affine cell dimensions, stored as counts: (dim,
    multiplicity) pairs with ascending dim and positive multiplicity.  No
    counts means the empty variety.  They are also the coefficients of the
    Poincare polynomial, which `evaluate` and `str` read."""

    counts: tuple[tuple[int, int], ...]

    @property
    def dims(self) -> tuple[int, ...]:
        """Every cell dimension once per cell, ascending."""
        return tuple(d for d, m in self.counts for _ in range(m))

    @property
    def cell_count(self) -> int:
        return sum(m for _, m in self.counts)

    def is_empty_variety(self) -> bool:
        return not self.counts

    def __iter__(self):
        return iter(self.dims)

    def evaluate(self, q: int) -> int:
        """The Poincare polynomial, sum of q^dim over cells, at q."""
        return sum(m * q**d for d, m in self.counts)

    def __str__(self) -> str:
        """The Poincare polynomial in q, e.g. "1 + 2*q + q^2"."""
        if not self.counts:
            return "0"
        chunks = []
        for d, m in self.counts:
            if d == 0:
                chunks.append(str(m))
            else:
                head = "" if m == 1 else f"{m}*"
                chunks.append(f"{head}q" if d == 1 else f"{head}q^{d}")
        return " + ".join(chunks)


_paving_cache: dict[
    tuple[Quiver, Multisegment, tuple[DimVector, ...]], tuple[tuple[int, int], ...]
] = {}


def _subset_choices(basis_sizes: list[int], step: DimVector):
    """All per-vertex index subsets with the prescribed sizes."""
    per_vertex = [
        list(itertools.combinations(range(size), step[v]))
        for v, size in enumerate(basis_sizes)
    ]
    return itertools.product(*per_vertex)


def _schubert_dim(choice) -> int:
    # dimension of the coordinate cell: for each chosen line, the number of
    # unchosen lines preceding it in the socle order
    total = 0
    for picked in choice:
        picked_set = set(picked)
        for k in picked:
            total += sum(1 for j in range(k) if j not in picked_set)
    return total


def _cells(
    Q: Quiver, M: Multisegment, parts: tuple[DimVector, ...]
) -> tuple[tuple[int, int], ...]:
    key = (Q, M, parts)
    hit = _paving_cache.get(key)
    if hit is not None:
        return hit
    if not parts:
        out = ((0, 1),) if M.is_empty() else ()
        # the precondition at the public entry point guarantees M is empty
        # here; the empty tuple branch is unreachable from paving_cells
        _paving_cache[key] = out
        return out
    basis = socle_basis(Q, M)
    counts: dict[int, int] = {}
    for choice in _subset_choices([len(b) for b in basis], parts[0]):
        d0 = _schubert_dim(choice)
        quotient = quotient_by_socles(Q, M, [list(c) for c in choice])
        for rest, m in _cells(Q, quotient, parts[1:]):
            counts[d0 + rest] = counts.get(d0 + rest, 0) + m
    out = tuple(sorted(counts.items()))
    _paving_cache[key] = out
    return out


def _check_target(Q: Quiver, M: Multisegment, comp: Composition) -> None:
    target = comp.target if comp.parts else DimVector((0,) * Q.n)
    if M.dim_vector(Q) != target or len(target) != Q.n:
        raise ValueError(
            f"dimension mismatch: M has {M.dim_vector(Q)}, comp targets {target}"
        )


def paving_cells(Q: Quiver, M: Multisegment, comp: Composition) -> CellSet:
    """Affine cells, counted by dimension, of the variety of strictly
    lowering flags of type comp in M.  Raises on a dimension mismatch."""
    _check_target(Q, M, comp)
    return CellSet(_cells(Q, M, comp.parts))


# ---------------------------------------------------------------------------
# finite-field oracle

def is_prime(q: int) -> bool:
    if q < 2:
        return False
    f = 2
    while f * f <= q:
        if q % f == 0:
            return False
        f += 1
    return True


def _rref_matrices(k: int, m: int, p: int):
    """All k x m matrices in reduced row echelon form with rank k over F_p;
    enumerates the Schubert decomposition of the Grassmannian Gr(k, m)."""
    if k == 0:
        yield []
        return
    if k > m:
        return
    for pivots in itertools.combinations(range(m), k):
        free_pos = [
            (i, j)
            for i in range(k)
            for j in range(pivots[i] + 1, m)
            if j not in pivots
        ]
        for values in itertools.product(range(p), repeat=len(free_pos)):
            mat = [[0] * m for _ in range(k)]
            for i, pc in enumerate(pivots):
                mat[i][pc] = 1
            for (i, j), val in zip(free_pos, values):
                mat[i][j] = val
            yield mat


class _MatRep:
    """A representation over F_p: one matrix per arrow, dense lists."""

    def __init__(self, Q: Quiver, dims: list[int], mats: dict[tuple[int, int], list[list[int]]], p: int):
        self.Q = Q
        self.dims = dims
        self.mats = mats
        self.p = p

    @staticmethod
    def from_multisegment(Q: Quiver, M: Multisegment, p: int) -> "_MatRep":
        # basis of V_v: pairs (segment index, position); position runs from
        # the head to the socle, the arrow action shifts position by one
        index: dict[tuple[int, int], int] = {}
        dims = [0] * Q.n
        for si, seg in enumerate(M.segments):
            for pos, v in enumerate(seg.support(Q)):
                index[(si, pos)] = dims[v]
                dims[v] += 1
        mats = {
            (s, t): [[0] * dims[s] for _ in range(dims[t])] for (s, t) in Q.arrows()
        }
        for si, seg in enumerate(M.segments):
            supp = seg.support(Q)
            for pos in range(seg.length - 1):
                s, t = supp[pos], supp[pos + 1]
                mats[(s, t)][index[(si, pos + 1)]][index[(si, pos)]] = 1
        return _MatRep(Q, dims, mats, p)

    def socle_kernels(self) -> list[list[list[int]]]:
        """Per vertex, a basis (list of vectors) of the joint kernel of all
        arrows leaving the vertex."""
        out = []
        for v in self.Q.vertices:
            rows: list[list[int]] = []
            for (s, t), mat in self.mats.items():
                if s == v:
                    rows.extend(mat)
            out.append(kernel_basis(rows, self.dims[v], self.p))
        return out

    def quotient(self, sub_bases: list[list[list[int]]]) -> "_MatRep":
        """Quotient by the graded subspace spanned by sub_bases (per-vertex
        lists of vectors contained in the socle kernel).

        At each vertex the quotient keeps the standard basis vectors off the
        pivot columns of the subspace's reduced echelon form.  An image
        column reduced by the echelon rows is zero at every pivot column, so
        its entries at the kept columns are its quotient coordinates."""
        p = self.p
        echelon = [rref_fractions(sub_bases[v], p) for v in self.Q.vertices]
        keep = [
            [j for j in range(self.dims[v]) if j not in echelon[v][1]]
            for v in self.Q.vertices
        ]
        new_mats = {}
        for (s, t), mat in self.mats.items():
            rows_t, pivots_t = echelon[t]
            cols = []
            for j in keep[s]:
                col = [row[j] for row in mat]
                for row, pc in zip(rows_t, pivots_t):
                    f = col[pc]
                    if f:
                        col = [(a - f * b) % p for a, b in zip(col, row)]
                cols.append([col[i] for i in keep[t]])
            new_mats[(s, t)] = [
                [col[i] for col in cols] for i in range(len(keep[t]))
            ]
        return _MatRep(self.Q, [len(k) for k in keep], new_mats, p)


def _count_flags(
    rep: _MatRep, parts: tuple[DimVector, ...], memo: dict[tuple, int]
) -> int:
    if not parts:
        return 1 if all(d == 0 for d in rep.dims) else 0
    # the literal matrices, not their isomorphism class: Q and p are fixed
    # within one count_points call, so dims, entries and parts pin the count
    key = (
        tuple(rep.dims),
        tuple(x for a in rep.Q.arrows() for row in rep.mats[a] for x in row),
        parts,
    )
    hit = memo.get(key)
    if hit is not None:
        return hit
    step = parts[0]
    kernels = rep.socle_kernels()
    p = rep.p
    for v in rep.Q.vertices:
        if step[v] > len(kernels[v]):
            memo[key] = 0
            return 0
    total = 0
    per_vertex_choices = []
    for v in rep.Q.vertices:
        m = len(kernels[v])
        choices_v = []
        for rmat in _rref_matrices(step[v], m, p):
            # rows of rmat give coordinates in the kernel basis
            vecs = [
                [sum(row[a] * kernels[v][a][i] for a in range(m)) % p
                 for i in range(rep.dims[v])]
                for row in rmat
            ]
            choices_v.append(vecs)
        per_vertex_choices.append(choices_v)
    for graded_choice in itertools.product(*per_vertex_choices):
        sub = rep.quotient(list(graded_choice))
        total += _count_flags(sub, parts[1:], memo)
    memo[key] = total
    return total


def count_points(Q: Quiver, M: Multisegment, comp: Composition, q: int) -> int:
    """Number of strictly lowering flags of type comp in M over F_q.

    Independent of the paving recursion: the representation is materialized
    as shift matrices, the first flag step is enumerated as an actual graded
    subspace of the kernel of the arrow action via reduced echelon forms,
    and the count proceeds on the matrix quotient.  Distinct first steps
    often give matrix-for-matrix identical quotients, so each call keeps a
    memo of counts keyed on the literal quotient (dimensions, every matrix
    entry, remaining parts).  It never identifies isomorphic quotients,
    never consults the paving recursion or its cache, and is dropped when
    the call returns.
    """
    if not is_prime(q):
        raise ValueError(f"{q} is not prime")
    _check_target(Q, M, comp)
    rep = _MatRep.from_multisegment(Q, M, q)
    return _count_flags(rep, comp.parts, {})
