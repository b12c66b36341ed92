"""Admissible and extremal functions on finite metric spaces.

A function f is admissible when f(x) + f(y) >= d(x, y) for all pairs, and
extremal when additionally f(x) = max_y (d(x, y) - f(y)) for every x: the
extremal functions form the tight span, the smallest hyperconvex space
containing X.  Two arithmetic modes share each operation: binary64 with a
1e-9 tolerance, and exact Fractions when the input matrix is rational.

The extremal closure is one ascending sweep f(x) <- max(0, max_{y != x}
(d(x, y) - f(y))).  Each update sets f(x) to the least value that keeps f
admissible, so f stays admissible and never rises.  Once x is updated it is
tight; later updates only lower other values, which can only raise the terms
d(x, y) - f(y), and admissibility caps them at f(x), so x stays tight.
"""

import functools
import itertools
import math
from fractions import Fraction

import numpy as np

from . import qlinalg
from .errors import MALFORMED, InfeasibleScaleError, UsageError

TOL = 1e-9
MAX_SPAN_POINTS = 6


def _is_exact_scalar(x):
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


class FiniteMetric:
    """A finite (pseudo)metric space with validated axioms.

    Construction from ints/Fractions selects the exact mode; floats select
    the binary64 mode.  `tol` is the mode's comparison tolerance (0 or TOL)
    and `dist` is always available as a float array.
    """

    __slots__ = ("labels", "rows", "exact", "tol", "dist")

    def __init__(self, d, labels=None):
        rows = [list(r) for r in d]
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise UsageError("distance matrix must be square")
        exact = all(_is_exact_scalar(x) for r in rows for x in r)
        if exact:
            rows = [[Fraction(x) for x in r] for r in rows]
        else:
            rows = [[float(x) for x in r] for r in rows]
            if not np.all(np.isfinite(rows)):
                raise UsageError("distances must be finite")
        if labels is None:
            labels = [str(i) for i in range(n)]
        labels = [str(x) for x in labels]
        if len(labels) != n:
            raise UsageError("labels must match the matrix size")
        self.tol = tol = 0 if exact else TOL
        for i in range(n):
            if abs(rows[i][i]) > tol:
                raise UsageError("nonzero diagonal")
            for j in range(n):
                if rows[i][j] < -tol:
                    raise UsageError("negative distance")
                if abs(rows[i][j] - rows[j][i]) > tol:
                    raise UsageError("asymmetric matrix")
                for k in range(n):
                    if rows[i][j] > rows[i][k] + rows[k][j] + tol:
                        raise UsageError(
                            f"triangle inequality fails at ({i},{j},{k})"
                        )
        self.labels = tuple(labels)
        self.rows = tuple(tuple(r) for r in rows)
        self.exact = exact
        self.dist = np.array([[float(x) for x in r] for r in rows])

    @property
    def n(self):
        return len(self.labels)

    def d(self, i, j):
        return self.rows[i][j]

    def to_json(self):
        return {
            "labels": list(self.labels),
            "d": [[int(x) if self.exact and Fraction(x).denominator == 1
                   else float(x) for x in r] for r in self.rows],
        }

    @classmethod
    def from_json(cls, obj):
        try:
            return cls(obj["d"], labels=obj.get("labels"))
        except MALFORMED as exc:
            raise UsageError(f"bad FiniteMetric JSON: {exc}") from exc

    def __repr__(self):
        return f"FiniteMetric(n={self.n}, exact={self.exact})"


def _coerce_f(f, space):
    try:
        if len(f) != space.n:
            raise UsageError("function length does not match the space")
        if space.exact:
            return [Fraction(x) if _is_exact_scalar(x) else Fraction(float(x)) for x in f]
        ff = [float(x) for x in f]
    except MALFORMED as exc:
        raise UsageError(f"function values must be finite numbers: {exc}") from exc
    if not all(map(math.isfinite, ff)):
        raise UsageError("function values must be finite numbers")
    return ff


def is_admissible(f, space):
    """f(x) + f(y) >= d(x, y) for all pairs, and f >= 0."""
    ff = _coerce_f(f, space)
    tol = space.tol
    if any(x < -tol for x in ff):
        return False
    n = space.n
    return all(
        ff[i] + ff[j] >= space.d(i, j) - tol
        for i in range(n)
        for j in range(i, n)
    )


def is_extremal(f, space):
    """The fixed-point identity f(x) = max_y (d(x, y) - f(y)) for every x."""
    ff = _coerce_f(f, space)
    if not is_admissible(ff, space):
        raise UsageError("function is not admissible")
    tol = space.tol
    n = space.n
    if n == 1:
        return abs(ff[0]) <= tol
    for x in range(n):
        sup = max(space.d(x, y) - ff[y] for y in range(n))
        if abs(ff[x] - sup) > tol:
            return False
    return True


def ts_distance(f, g):
    """Supremum distance max_x |f(x) - g(x)|."""
    if len(f) != len(g):
        raise UsageError("length mismatch")
    return max(abs(a - b) for a, b in zip(f, g))


def kuratowski_embed(space):
    """The canonical embedding x -> d(x, .); each image is extremal and the
    embedding is isometric for the sup distance."""
    out = [list(space.rows[i]) for i in range(space.n)]
    for row in out:
        if not is_extremal(row, space):
            raise RuntimeError("kuratowski image failed the extremal identity")
    return out


def extremal_closure(f, space):
    """A minimal admissible function below f, certified extremal.

    One ascending sweep of f(x) <- max(0, max_{y != x} (d(x, y) - f(y))) in
    the space's own arithmetic reaches the fixed point (see the module
    docstring); the result is checked with `is_extremal` before it returns.
    """
    ff = _coerce_f(f, space)
    if not is_admissible(ff, space):
        raise UsageError("closure input must be admissible")
    zero = Fraction(0) if space.exact else 0.0
    for x in range(space.n):
        ff[x] = max([zero] + [space.d(x, y) - ff[y] for y in range(space.n) if y != x])
    # is_extremal calls an inadmissible f a usage error; here it would be ours
    if not (is_admissible(ff, space) and is_extremal(ff, space)):
        raise RuntimeError("extremal closure failed the extremal identity")
    return ff


def _pair_rows(pairs, n):
    """The 0/1/2 matrix A of f(i) + f(j) over the pairs (i = j gives a 2)."""
    rows = []
    for i, j in pairs:
        row = [0] * n
        row[i] += 1
        row[j] += 1
        rows.append(row)
    return rows


def _nonsingular(pairs, n):
    """Whether the pair matrix A of n pairs on n points is nonsingular.

    A is the unsigned edge-vertex incidence matrix of the pair graph (i = j
    a loop), which is nonsingular exactly when every connected component
    has one cycle and that cycle is odd.  Union-find with parity: an edge
    inside a component closes a cycle, odd when its ends have equal parity.
    With n edges on n vertices, at most one cycle per component means
    exactly one.
    """
    parent, parity, cyclic = list(range(n)), [0] * n, [False] * n

    def find(x):
        par = 0
        while parent[x] != x:
            par ^= parity[x]
            x = parent[x]
        return x, par

    for i, j in pairs:
        (ri, pi), (rj, pj) = find(i), find(j)
        if ri == rj:
            if cyclic[ri] or pi != pj:
                return False
            cyclic[ri] = True
        elif cyclic[ri] and cyclic[rj]:
            return False
        else:
            parent[ri], parity[ri] = rj, pi ^ pj ^ 1
            cyclic[rj] = cyclic[rj] or cyclic[ri]
    return True


@functools.cache
def _pair_sets(n):
    """The n-subsets of pairs (i <= j < n) with a nonsingular A, in
    `combinations` order: singularity depends only on the set, so it is
    decided once per set, by a graph test (only the pairs are kept)."""
    all_pairs = [(i, j) for i in range(n) for j in range(i, n)]
    return tuple(
        combo for combo in itertools.combinations(all_pairs, n) if _nonsingular(combo, n)
    )


def _solve_candidate(space, pairs):
    """Solve f(i)+f(j) = d(i,j) over the given tight pairs.

    In exact mode one integer Bareiss pass on [A | D d] (D the common
    denominator) gives f_i = out[i][n] / (det D), or None when A is
    singular.  Float mode takes its pairs from `_pair_sets`, so A is not.
    """
    n = space.n
    rows = _pair_rows(pairs, n)
    if space.exact:
        (rhs,), den = qlinalg.clear_denominators([[space.d(i, j) for i, j in pairs]])
        d, out = qlinalg.bareiss([row + [x] for row, x in zip(rows, rhs)])
        return None if d == 0 else [Fraction(r[n], d * den) for r in out]
    return list(np.linalg.solve(np.array(rows, dtype=float),
                                np.array([space.dist[i, j] for i, j in pairs])))


def tight_span_vertices(space):
    """All 0-cells of the tight span (extremal functions pinned by a
    full-rank set of tight pairs); includes every Kuratowski image."""
    n = space.n
    if n > MAX_SPAN_POINTS:
        raise InfeasibleScaleError(f"tight span enumeration is limited to {MAX_SPAN_POINTS} points")
    found = []
    seen = set()
    for combo in _pair_sets(n):
        f = _solve_candidate(space, combo)
        if not (is_admissible(f, space) and is_extremal(f, space)):
            continue
        key = tuple(f) if space.exact else tuple(round(x / TOL) for x in f)
        if key not in seen:
            seen.add(key)
            found.append(f)
    for e in kuratowski_embed(space):
        if not any(ts_distance(e, f) <= 10 * space.tol for f in found):
            raise RuntimeError("tight span enumeration missed a Kuratowski image")
    found.sort(key=lambda f: [float(x) for x in f])
    return found
