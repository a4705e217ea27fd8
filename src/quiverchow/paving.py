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
Its socle kernels are Gaussian elimination over F_q, done by `linalg` (the
same routine that eliminates over Q elsewhere), and come out in reduced row
echelon form, so every enumerated first step is in that form too: a
quotient reads the pivots off the step's rows and reduces each image column
by them, with no elimination and no linear solve.
An `FqGraph(Q, q)` holds a graph of nodes, one per literal quotient (the
same dims and the same matrices) of representations of Q over F_q, and
reads the Gr(k, m)(F_q) echelon forms, one list per (k, m), from an
`EchelonForms(q)` that the graphs of several quivers may share.  The
graph keeps the node of each materialized M, so every composition of M,
and every class counted through the same graph, reads the nodes the
others left.  A node forms its socle kernels at most once, and for each
first step its children once: the distinct quotients its enumerated
first steps leave, each with the number of steps that leave it.  A count
is the sum over the children of multiplicity times the child's count with
the remaining steps, kept once per (node, steps).  When every arrow acts
by zero, every first step leaves the same zero quotient, so that node has
one child, whose multiplicity is the number of echelon forms, the length
of the echelon lists, without forming the steps.  `count_points` without
a graph builds a fresh one for the call; `cli.paving_oracle_cases` keeps
one graph per (quiver, q), and one `EchelonForms` per q, for a whole
sweep.  However long the graph lives, the count is still a direct
enumeration on literal matrices: it uses no formula for the count, no
paving recursion, and never identifies isomorphic quotients.
"""

from __future__ import annotations

import itertools
from math import prod
from operator import mul

from .linalg import kernel_basis
from .nilrep import Multisegment, _quotient_of_basis, socle_basis
from .quiver import Composition, DimVector, Frozen, Quiver

_set = object.__setattr__


class CellSet(Frozen):
    """Multiset of affine cell dimensions, stored as counts: (dim,
    multiplicity) pairs with ascending dim and positive multiplicity.  No
    counts means the empty variety.  They are also the coefficients of the
    Poincare polynomial, which `evaluate` and `str` read."""

    __slots__ = ("counts",)
    _fields = ("counts",)

    def __init__(self, counts: tuple[tuple[int, int], ...]) -> None:
        _set(self, "counts", counts)

    def __eq__(self, other):
        if other.__class__ is CellSet:
            return self.counts == other.counts
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.counts,))

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
        quotient = _quotient_of_basis(Q, basis, choice)
        for rest, m in _cells(Q, quotient, parts[1:]):
            counts[d0 + rest] = counts.get(d0 + rest, 0) + m
    out = tuple(sorted(counts.items()))
    _paving_cache[key] = out
    return out


def _check_target(Q: Quiver, dim: DimVector, comp: Composition) -> None:
    target = comp.target if comp.parts else DimVector((0,) * Q.n)
    if dim != target or len(target) != Q.n:
        raise ValueError(f"dimension mismatch: M has {dim}, comp targets {target}")


def paving_cells(Q: Quiver, M: Multisegment, comp: Composition) -> CellSet:
    """Affine cells, counted by dimension, of the variety of strictly
    lowering flags of type comp in M.  Raises on a dimension mismatch."""
    _check_target(Q, M.dim_vector(Q), comp)
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
    """All k x m matrices in reduced row echelon form with rank k over F_p,
    each a tuple of row tuples; enumerates the Schubert decomposition of
    the Grassmannian Gr(k, m).  The matrices of one pivot set share their
    row tuples, so a kept list of them holds each row once."""
    for pivots in itertools.combinations(range(m), k):
        per_row = []
        for pc in pivots:
            free = [j for j in range(pc + 1, m) if j not in pivots]
            rows = []
            for values in itertools.product(range(p), repeat=len(free)):
                row = [0] * m
                row[pc] = 1
                for j, val in zip(free, values):
                    row[j] = val
                rows.append(tuple(row))
            per_row.append(rows)
        yield from itertools.product(*per_row)


class _MatRep:
    """A representation over F_p: one matrix per arrow, dense lists, in
    `Q.arrows()` order."""

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
        """Per vertex, a basis of the joint kernel of all arrows leaving the
        vertex, in reduced row echelon form.

        It is the kernel basis of the column-reversed matrix, each vector
        read backwards and the list reversed: every vector then leads with
        1 at its own free column, which the other vectors leave zero."""
        out = []
        for v in self.Q.vertices:
            rows: list[list[int]] = []
            for (s, t), mat in self.mats.items():
                if s == v:
                    rows.extend(row[::-1] for row in mat)
            kernel = kernel_basis(rows, self.dims[v], self.p)
            out.append([vec[::-1] for vec in reversed(kernel)])
        return out

    def quotient(self, sub_bases: list[list[list[int]]]) -> "_MatRep":
        """Quotient by the graded subspace spanned by sub_bases: per vertex,
        the rows of a reduced row echelon form of a subspace of the socle
        kernel, so each row's leading column is a pivot.

        At each vertex the quotient keeps the standard basis vectors off the
        pivot columns.  An image column reduced by the echelon rows is zero
        at every pivot column, so its entries at the kept columns are its
        quotient coordinates."""
        p = self.p
        pivots = [
            [next(j for j, x in enumerate(row) if x) for row in rows]
            for rows in sub_bases
        ]
        keep = [
            [j for j in range(d) if j not in piv]
            for d, piv in zip(self.dims, pivots)
        ]
        new_mats = {}
        for (s, t), mat in self.mats.items():
            ks, kt = keep[s], keep[t]
            block = [[mat[i][j] for j in ks] for i in kt]
            # block row i loses row[i] times the image row at each pivot
            for pc, row in zip(pivots[t], sub_bases[t]):
                top = [mat[pc][j] for j in ks]
                if not any(top):
                    continue
                for r, i in enumerate(kt):
                    f = row[i]
                    if f:
                        block[r] = [(a - f * b) % p for a, b in zip(block[r], top)]
            new_mats[(s, t)] = block
        return _MatRep(self.Q, [len(k) for k in keep], new_mats, p)


class _Node:
    """One literal quotient in a graph, keyed there on its dims and every
    matrix entry in arrow order.  `rep` is None when every arrow acts by
    zero.  The socle kernels are formed at most once; `children` maps a
    first step to its (child node, multiplicity) pairs, and `counts` maps
    the remaining parts to the flag count."""

    __slots__ = ("dims", "rep", "kernels", "children", "counts")

    def __init__(self, dims: tuple[int, ...], rep: _MatRep | None):
        self.dims = dims
        self.rep = rep
        self.kernels: list[list[list[int]]] | None = None
        self.children: dict[DimVector, tuple[tuple[_Node, int], ...]] = {}
        self.counts: dict[tuple[DimVector, ...], int] = {}


class EchelonForms:
    """The Gr(k, m)(F_q) echelon forms of one field F_q, one list per
    (k, m), enumerated on first use and shared by every `FqGraph` over F_q
    built on it: the lists depend on (k, m, q) only, not on the quiver.
    Call-scoped: `cli.paving_oracle_cases` keeps one per q for a sweep.
    Two threads may both build a list; either copy serves."""

    def __init__(self, q: int):
        if not is_prime(q):
            raise ValueError(f"{q} is not prime")
        self.q = q
        self._lists: dict[tuple[int, int], list[tuple[tuple[int, ...], ...]]] = {}

    def forms(self, k: int, m: int) -> list[tuple[tuple[int, ...], ...]]:
        forms = self._lists.get((k, m))
        if forms is None:
            forms = self._lists[(k, m)] = list(_rref_matrices(k, m, self.q))
        return forms


class FqGraph:
    """The literal quotients of representations of one quiver Q over one
    field F_q, shared by every `count_points` call given it.

    Call-scoped, like `extalg.Strata`: it holds one node per literal
    quotient (dimensions and every matrix entry in arrow order), and reads
    the Gr(k, m)(F_q) echelon forms from `echelons`, an `EchelonForms(q)`:
    a fresh one when None, or one shared with the graphs of other quivers
    over F_q; one of another field is a ValueError.  A node's children
    for a first step are the distinct quotients that the enumerated
    echelon first steps leave, each with the number of steps that leave
    it, so the count of (node, parts) is the sum over children of
    multiplicity times the count of (child, parts[1:]), kept once per node
    and parts.  Q and q are fixed per graph, so they are not in the key;
    two representations whose quotients agree matrix for matrix reach the
    same node, whichever M they came from; the node of M itself, its
    shift matrices, is kept per M, so its compositions start from it
    without materializing M again.  The graph lives as long as its
    holder keeps it (`cli.paving_oracle_cases` keeps one per (quiver, q)
    for a sweep), and the count is still a direct enumeration: it never
    identifies isomorphic quotients and never consults the paving
    recursion or its cache.  Two threads may both build a node, the node
    of an M, a child list or an echelon list; either copy counts
    correctly, so a graph may serve several threads."""

    def __init__(self, Q: Quiver, q: int, echelons: EchelonForms | None = None):
        if echelons is None:
            echelons = EchelonForms(q)
        elif echelons.q != q:
            raise ValueError(f"echelon forms over F_{echelons.q}, asked for F_{q}")
        self.Q, self.q = Q, q
        self.echelons = echelons
        self._nodes: dict[tuple, _Node] = {}
        self._tops: dict[Multisegment, tuple[DimVector, _Node]] = {}

    def _top(self, M: Multisegment) -> tuple[DimVector, _Node]:
        """The dimension vector of M and the node of M materialized as
        shift matrices over F_q, kept per M on first use."""
        top = self._tops.get(M)
        if top is None:
            rep = _MatRep.from_multisegment(self.Q, M, self.q)
            top = self._tops[M] = (M.dim_vector(self.Q), self._node(rep))
        return top

    def _node(self, rep: _MatRep) -> _Node:
        # every matrix entry, row by row, in arrow order
        entries = tuple(itertools.chain.from_iterable(
            itertools.chain.from_iterable(rep.mats.values())))
        dims = tuple(rep.dims)
        key = (dims, entries)
        node = self._nodes.get(key)
        if node is None:
            node = self._nodes[key] = _Node(dims, rep if any(entries) else None)
        return node

    def _gr_points(self, k: int, m: int) -> int:
        return len(self.echelons.forms(k, m))

    def _children(self, node: _Node, step: DimVector) -> tuple[tuple[_Node, int], ...]:
        kids = node.children.get(step)
        if kids is not None:
            return kids
        rep = node.rep
        found: dict[_Node, int] = {}
        if rep is None:
            # every arrow acts by zero: the kernel is the whole space, and
            # every first step leaves the same zero quotient on dims - step
            steps = prod(self._gr_points(k, m) for k, m in zip(step, node.dims))
            if steps:
                dims = [m - k for k, m in zip(step, node.dims)]
                zero = {
                    (s, t): [[0] * dims[s] for _ in range(dims[t])] for (s, t) in self.Q.arrows()
                }
                found[self._node(_MatRep(self.Q, dims, zero, self.q))] = steps
        else:
            if node.kernels is None:
                node.kernels = rep.socle_kernels()
            kernels = node.kernels
            p = self.q
            if all(step[v] <= len(kernels[v]) for v in self.Q.vertices):
                # a reduced echelon R times the reduced echelon kernel K is
                # again reduced echelon, so each first step R.K reaches
                # `quotient` in the form it reads pivots from
                per_vertex_choices = []
                for v, kernel in enumerate(kernels):
                    columns = list(zip(*kernel))
                    per_vertex_choices.append([
                        [[sum(map(mul, row, col)) % p for col in columns] for row in rmat]
                        for rmat in self.echelons.forms(step[v], len(kernel))
                    ])
                for graded_choice in itertools.product(*per_vertex_choices):
                    child = self._node(rep.quotient(list(graded_choice)))
                    found[child] = found.get(child, 0) + 1
        kids = node.children[step] = tuple(found.items())
        return kids

    def _count_flags(self, node: _Node, parts: tuple[DimVector, ...]) -> int:
        if len(parts) <= 1:
            # the target check makes the dims equal the one part left (or
            # zero with none left), so the only candidate step is the whole
            # space: a flag exactly when every arrow matrix is zero
            return int(node.rep is None)
        hit = node.counts.get(parts)
        if hit is not None:
            return hit
        rest = parts[1:]
        total = sum(
            m * self._count_flags(child, rest) for child, m in self._children(node, parts[0])
        )
        node.counts[parts] = total
        return total


def count_points(
    Q: Quiver, M: Multisegment, comp: Composition, q: int, graph: FqGraph | None = None,
) -> int:
    """Number of strictly lowering flags of type comp in M over F_q.

    Independent of the paving recursion: the representation is materialized
    as shift matrices, the first flag step is enumerated as an actual graded
    subspace of the kernel of the arrow action via reduced echelon forms,
    and the count proceeds on the matrix quotient.  Distinct first steps
    often give matrix-for-matrix identical quotients, and so do the
    compositions of one M and other classes of Q, so the quotients and
    counts are kept in `graph`, an `FqGraph(Q, q)`: a fresh one when None,
    or one shared with other calls of the same (Q, q), whose nodes outlive
    this one.  A graph of another (Q, q) is a ValueError.
    """
    if graph is None:
        graph = FqGraph(Q, q)
    elif (graph.Q, graph.q) != (Q, q):
        raise ValueError(
            f"graph built for {graph.Q} over F_{graph.q}, asked for {Q} over F_{q}"
        )
    dim, top = graph._top(M)
    _check_target(Q, dim, comp)
    return graph._count_flags(top, comp.parts)
