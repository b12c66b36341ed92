"""Admissible and extremal functions on finite metric spaces.

A function f is admissible when f(x) + f(y) >= d(x, y) for all pairs, and
extremal when additionally f(x) = max_y (d(x, y) - f(y)) for every x: the
extremal functions form the tight span, the smallest hyperconvex space
containing X.

There is one arithmetic, exact.  Distances and function values are ints,
Fractions or floats, a float read as the binary rational it denotes.  A
metric keeps its matrix once, as integers over one common denominator L;
each check brings f onto a common denominator with it and compares
integers, with no tolerance.  Results are Fractions.

The 0-cells of the tight span are the vertices of {f : f(i) + f(j) >=
d(i, j)} (Dress 1984), so f = g / t for the rays (g, t) with t > 0 of the
cone L g(i) + L g(j) - D(i, j) t >= 0, t >= 0, where d = D / L.  One
certified `polyhedra.extreme_rays` call gives them exactly, up to
MAX_SPAN_POINTS.  Its row 0, t >= 0, cuts out the recession orthant: the n
rays (e_k, 0), which lie on most rows.  The vertex rays lie off that face,
so the certificate skips the edge check at the orthant's rays and
enumerates a tangent cone only at a degenerate vertex, one tight at more
than n pairs.

The extremal closure is one ascending sweep f(x) <- max(0, max_{y != x}
(d(x, y) - f(y))).  Each update sets f(x) to the least value that keeps f
admissible, so f stays admissible and never rises.  Once x is updated it is
tight; later updates only lower other values, which can only raise the terms
d(x, y) - f(y), and admissibility caps them at f(x), so x stays tight.
"""

import itertools
import math
from fractions import Fraction

from . import polyhedra, qlinalg
from .errors import MALFORMED, InfeasibleScaleError, UsageError, malformed

MAX_SPAN_POINTS = 10  # 56 rows, below polyhedra.FILTER_MIN: a span never loads numpy


def _number(x):
    """x itself if it is an int, Fraction or float of finite value within
    the float range (results print as floats); anything else, bools
    included, is refused."""
    # math.isfinite raises OverflowError beyond the float range
    if isinstance(x, bool) or not isinstance(x, (float, int, Fraction)) or not math.isfinite(x):
        raise UsageError("distances and function values must be finite numbers")
    return x


class FiniteMetric:
    """A finite (pseudo)metric space, its axioms checked exactly.

    The matrix is kept as integers `num` over the common denominator `den`.
    `exact` records that no entry was a float: the JSON form then writes
    integral distances as integers.
    """

    __slots__ = ("labels", "num", "den", "exact")

    def __init__(self, d, labels=None):
        rows = [[_number(x) for x in r] for r in d]
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise UsageError("distance matrix must be square")
        if labels is None:
            labels = [str(i) for i in range(n)]
        labels = [str(x) for x in labels]
        if len(labels) != n:
            raise UsageError("labels must match the matrix size")
        num, den = qlinalg.clear_denominators(rows)
        if any(r[i] for i, r in enumerate(num)):
            raise UsageError("nonzero diagonal")
        if any(x < 0 for r in num for x in r):
            raise UsageError("negative distance")
        if num != [list(c) for c in zip(*num)]:
            raise UsageError("asymmetric matrix")
        for i, j in itertools.combinations(range(n), 2):
            x = num[i][j]
            if any(x > a + b for a, b in zip(num[i], num[j])):
                raise UsageError(f"triangle inequality fails at d({i}, {j})")
        self.labels = tuple(labels)
        self.num = tuple(map(tuple, num))
        self.den = den
        self.exact = not any(isinstance(x, float) for r in rows for x in r)

    @property
    def n(self):
        return len(self.labels)

    @property
    def rows(self):
        """The distances as Fractions."""
        return tuple(tuple(Fraction(x, self.den) for x in r) for r in self.num)

    def to_json(self):
        den = self.den
        return {
            "labels": list(self.labels),
            "d": [[x // den if self.exact and x % den == 0 else x / den for x in r]
                  for r in self.num],
        }

    @classmethod
    def from_json(cls, obj):
        try:
            return cls(obj["d"], labels=obj.get("labels"))
        except MALFORMED as exc:
            raise malformed("bad FiniteMetric JSON", exc) from exc

    def __repr__(self):
        return f"FiniteMetric(n={self.n}, exact={self.exact})"


def _on_common_denominator(f, space):
    """(F, D, L): f = F / L and d = D / L with F and D integers."""
    try:
        if len(f) != space.n:
            raise UsageError("function length does not match the space")
        (num,), q = qlinalg.clear_denominators([[_number(x) for x in f]])
    except MALFORMED as exc:
        raise malformed("function values must be finite numbers", exc) from exc
    big = math.lcm(q, space.den)
    a, b = big // q, big // space.den
    dmat = space.num if b == 1 else [[x * b for x in r] for r in space.num]
    return [x * a for x in num], dmat, big


def _admissible(fi, dmat):
    return all(x >= 0 for x in fi) and all(
        fi[i] + fi[j] >= dmat[i][j] for i in range(len(fi)) for j in range(i + 1, len(fi)))


def is_extremal(f, space):
    """The fixed-point identity f(x) = max_y (d(x, y) - f(y)) for every x."""
    fi, dmat, _ = _on_common_denominator(f, space)
    if not _admissible(fi, dmat):
        raise UsageError("function is not admissible")
    return all(fx == max(a - b for a, b in zip(row, fi)) for fx, row in zip(fi, dmat))


def kuratowski_embed(space):
    """The canonical embedding x -> d(x, .); each image is extremal and the
    embedding is isometric for the sup distance."""
    out = [list(r) for r in space.rows]
    for row in out:
        if not is_extremal(row, space):
            raise RuntimeError("kuratowski image failed the extremal identity")
    return out


def extremal_closure(f, space):
    """A minimal admissible function below f, certified extremal.

    One ascending sweep of f(x) <- max(0, max_{y != x} (d(x, y) - f(y))) on
    integers over a common denominator reaches the fixed point (see the
    module docstring); the result is checked with `is_extremal` before it
    returns.
    """
    fi, dmat, big = _on_common_denominator(f, space)
    if not _admissible(fi, dmat):
        raise UsageError("closure input must be admissible")
    for x, row in enumerate(dmat):
        # the term y = x is -f(x) <= 0
        fi[x] = max(0, *(a - b for a, b in zip(row, fi)))
    out = [Fraction(x, big) for x in fi]
    # is_extremal calls an inadmissible f a usage error; here it would be ours
    if not (_admissible(fi, dmat) and is_extremal(out, space)):
        raise RuntimeError("extremal closure failed the extremal identity")
    return out


def tight_span_vertices(space):
    """All 0-cells of the tight span (see the module docstring), as exact
    Fractions in lexicographic order."""
    n = space.n
    if n > MAX_SPAN_POINTS:
        raise InfeasibleScaleError(f"tight span enumeration is limited to {MAX_SPAN_POINTS} points")
    rows = [[0] * n + [1]]
    for i, r in enumerate(space.num):
        for j in range(i, n):
            rows.append([space.den * ((k == i) + (k == j)) for k in range(n)] + [-r[j]])
    return sorted([Fraction(x, v[n]) for x in v[:n]]
                  for v, _ in polyhedra.extreme_rays(rows) if v[n])
