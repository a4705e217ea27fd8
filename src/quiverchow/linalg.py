"""Small exact dense linear algebra over Q, or over F_p for a prime p.

Everything here works on lists of lists of ints or Fractions; sizes are
desk scale (a few hundred unknowns at most), so plain Gaussian elimination
is fine and keeps the arithmetic exact.  `rref_fractions` is the one
reduced-echelon routine: Fractions over Q (p=None), ints mod p over F_p.
"""

from __future__ import annotations

from fractions import Fraction


def rank_int(rows: list[list[int]], width: int) -> int:
    """Rank of an integer matrix, by fraction-free elimination.

    Rows are divided by their gcd after each update, which keeps the
    entries small on the sparse incidence-style systems this package
    produces while staying exact.
    """
    from math import gcd

    mat = [r[:] for r in rows]
    rank = 0
    col = 0
    while rank < len(mat) and col < width:
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col] != 0), None)
        if pivot is None:
            col += 1
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        pv = mat[rank][col]
        for r in range(rank + 1, len(mat)):
            if mat[r][col] != 0:
                f = mat[r][col]
                new = [pv * a - f * b for a, b in zip(mat[r], mat[rank])]
                g = 0
                for x in new:
                    g = gcd(g, x)
                mat[r] = [x // g for x in new] if g > 1 else new
        rank += 1
        col += 1
    return rank


def rref_fractions(rows: list[list], p: int | None = None) -> tuple[list, list[int]]:
    """Reduced row echelon form over Q, or over F_p when p is given (entries
    Fractions, or ints in [0, p)); returns (nonzero rows, pivot columns)."""
    if p is None:
        mat = [[Fraction(x) for x in r] for r in rows]
    else:
        mat = [[x % p for x in r] for r in rows]
    width = len(mat[0]) if mat else 0
    pivots: list[int] = []
    rank = 0
    for col in range(width):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        if p is None:
            inv = 1 / mat[rank][col]
            mat[rank] = [x * inv for x in mat[rank]]
        else:
            inv = pow(mat[rank][col], -1, p)
            mat[rank] = [x * inv % p for x in mat[rank]]
        top = mat[rank]
        for r in range(len(mat)):
            f = mat[r][col]
            if r != rank and f:
                if p is None:
                    mat[r] = [a - f * b for a, b in zip(mat[r], top)]
                else:
                    mat[r] = [(a - f * b) % p for a, b in zip(mat[r], top)]
        pivots.append(col)
        rank += 1
    return mat[:rank], pivots


def kernel_basis(rows: list[list], width: int, p: int | None = None) -> list[list]:
    """Basis of the right kernel over Q, or over F_p when p is given: one
    vector per non-pivot column of the matrix (rows of length width)."""
    red, pivots = rref_fractions(rows, p)
    basis = []
    for fc in range(width):
        if fc in pivots:
            continue
        vec = [0] * width
        vec[fc] = 1
        for row, pc in zip(red, pivots):
            vec[pc] = -row[fc]
        basis.append(vec if p is None else [x % p for x in vec])
    return basis


def solve_exact(columns: list[list], rhs: list, p: int | None = None) -> list | None:
    """One exact solution x of (columns as matrix) . x = rhs, over Q, or
    over F_p when p is given; None when the system is inconsistent.

    Free variables are set to zero, so the answer is deterministic.
    """
    height = len(rhs)
    if any(len(col) != height for col in columns):
        raise ValueError("column heights and rhs length must agree")
    width = len(columns)
    aug = [[col[i] for col in columns] + [rhs[i]] for i in range(height)]
    red, pivots = rref_fractions(aug, p)
    if width in pivots:
        return None  # inconsistent system
    x = [Fraction(0) if p is None else 0] * width
    for row, pc in zip(red, pivots):
        x[pc] = row[width]
    return x
