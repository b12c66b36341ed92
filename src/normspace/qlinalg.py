"""Small exact linear algebra toolkit over the rationals, on integers.

The one exact elimination is ``echelon`` on integer rows, with ``bareiss``
its square case: callers clear denominators first (``clear_denominators``)
and read determinants, ranks, pivots, inverses and solutions off one
fraction-free pass.
"""

import math


# Kept only because the benchmark's ball sessions (perfbench/workloads.py)
# call it; ROADMAP's Benchmark upkeep deletes it.
def matmul(a, b):
    bt = list(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def clear_denominators(rows):
    """(integer rows, d) with rows = integer rows / d, d the least common
    denominator; entries are ints, Fractions or floats, a float read as its
    binary rational."""
    return clear_ratios([[x.as_integer_ratio() for x in row] for row in rows])


def clear_ratios(rows):
    """`clear_denominators` for entries given as (numerator, denominator > 0)
    pairs; d is least when the pairs are in lowest terms."""
    d = math.lcm(*(q for row in rows for _, q in row))
    return [[p * (d // q) for p, q in row] for row in rows], d


def echelon(rows, ncols):
    """Fraction-free reduced row echelon form (Bareiss 1968) of integer rows
    [A | C], A their first ncols columns.

    A column with no pivot left is skipped, so the pivot columns are the
    first independent columns of A and their number is its rank.  Returns
    (d, out, pivots): out = d A_P^{-1} [A | C] on its first rank rows, A_P
    the pivot columns of the pivot rows and d = +-det(A_P); every division
    is exact.
    """
    out = [list(r) for r in rows]
    prev, pivots = 1, []
    for c in range(ncols):
        k = len(pivots)
        piv = next((r for r in range(k, len(out)) if out[r][c]), None)
        if piv is None:
            continue
        out[k], out[piv] = out[piv], out[k]
        top = out[k]
        d = top[c]
        for r in range(len(out)):
            if r != k:
                f = out[r][c]
                out[r] = [(d * x - f * y) // prev for x, y in zip(out[r], top)]
        prev = d
        pivots.append(c)
    return prev, out, pivots


def bareiss(rows):
    """`echelon` with A square: (d, d A^{-1} [A | C]) with d = +-det(A), or
    (0, None) if A is singular."""
    d, out, pivots = echelon(rows, len(rows))
    return (d, out) if len(pivots) == len(rows) else (0, None)
