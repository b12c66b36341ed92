"""Small exact linear algebra toolkit over the rationals.

Matrices are tuples of tuples of ``fractions.Fraction`` in row-major order.
Everything here is exact; sizes stay tiny (n <= 6), so Gaussian elimination
with Fraction arithmetic is entirely adequate.  The ultrametric core uses
the integer helpers ``clear_denominators`` and ``bareiss`` instead.
"""

import math
from fractions import Fraction

from .errors import UsageError


def frac(x):
    """Coerce ints, strings like '3/4', and Fractions to Fraction (exact)."""
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


def mat(rows):
    """Deep-convert an iterable of iterables into an immutable Fraction matrix."""
    return tuple(tuple(frac(x) for x in row) for row in rows)


def vec(entries):
    return tuple(frac(x) for x in entries)


def identity(n):
    return tuple(
        tuple(Fraction(1) if i == j else Fraction(0) for j in range(n))
        for i in range(n)
    )


def matmul(a, b):
    bt = list(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def column(a, j):
    return tuple(row[j] for row in a)


def from_columns(cols):
    return tuple(tuple(col[i] for col in cols) for i in range(len(cols[0])))


def clear_denominators(rows):
    """(integer rows, d) with rows = integer rows / d, d the least common denominator."""
    d = math.lcm(*(x.denominator for row in rows for x in row))
    return [[x.numerator * (d // x.denominator) for x in row] for row in rows], d


def bareiss(rows):
    """Fraction-free Gauss-Jordan (Bareiss 1968) on integer rows [A | C].

    Returns (d, d A^{-1} [A | C]) with d = +-det(A), or (0, None) if A is
    singular; every division is exact.
    """
    out = [list(r) for r in rows]
    n = len(out)
    prev = 1
    for k in range(n):
        piv = next((r for r in range(k, n) if out[r][k]), None)
        if piv is None:
            return 0, None
        out[k], out[piv] = out[piv], out[k]
        top = out[k]
        d = top[k]
        for r in range(n):
            if r != k:
                f = out[r][k]
                out[r] = [(d * x - f * y) // prev for x, y in zip(out[r], top)]
        prev = d
    return prev, out


def _elim(a):
    """Fraction-exact row echelon; returns (echelon rows, det, rank)."""
    rows = [list(r) for r in a]
    n = len(rows)
    m = len(rows[0]) if n else 0
    det = Fraction(1)
    rank = 0
    for col in range(m):
        if rank == n:
            break
        piv = next((r for r in range(rank, n) if rows[r][col] != 0), None)
        if piv is None:
            det = Fraction(0)
            continue
        if piv != rank:
            rows[rank], rows[piv] = rows[piv], rows[rank]
            det = -det
        det *= rows[rank][col]
        inv = 1 / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for r in range(n):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rows, det, rank


def det(a):
    n = len(a)
    if any(len(row) != n for row in a):
        raise UsageError("det expects a square matrix")
    _, d, _ = _elim(a)
    return d


def rank(a):
    _, _, r = _elim(a)
    return r


def inv(a):
    """Exact inverse via Gauss-Jordan; raises UsageError on a singular input."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise UsageError("inv expects a square matrix")
    aug = [list(row) + list(e) for row, e in zip(a, identity(n))]
    red, d, _ = _elim(aug)
    if d == 0:
        raise UsageError("matrix is singular")
    # a nonzero det puts every pivot in the left block, which _elim reduces to I
    return tuple(tuple(red[i][n:]) for i in range(n))


def solve(a, b):
    """Solve a x = b exactly for a single right-hand side vector."""
    n = len(a)
    aug = [list(row) + [frac(bi)] for row, bi in zip(a, b)]
    red, d, _ = _elim(aug)
    if d == 0:
        raise UsageError("singular system")
    return tuple(red[i][n] for i in range(n))
