"""Admissible and extremal functions on finite metric spaces.

A function f is admissible when f(x) + f(y) >= d(x, y) for all pairs, and
extremal when additionally f(x) = max_y (d(x, y) - f(y)) for every x: the
extremal functions form the tight span, the smallest hyperconvex space
containing X.  Two arithmetic modes share each operation: binary64 with a
1e-9 tolerance, and exact Fractions when the input matrix is rational.

The 0-cells of the tight span are the vertices of {f : f(i) + f(j) >=
d(i, j)} (Dress 1984), so f = g / t for the rays (g, t) with t > 0 of the
cone q g(i) + q g(j) - p t >= 0, t >= 0, where d(i, j) = p / q; a float
metric enters on its binary-rational entries.  One certified
`polyhedra.extreme_rays` call gives them exactly, up to MAX_SPAN_POINTS.

The extremal closure is one ascending sweep f(x) <- max(0, max_{y != x}
(d(x, y) - f(y))).  Each update sets f(x) to the least value that keeps f
admissible, so f stays admissible and never rises.  Once x is updated it is
tight; later updates only lower other values, which can only raise the terms
d(x, y) - f(y), and admissibility caps them at f(x), so x stays tight.
"""

import math
from fractions import Fraction

import numpy as np

from . import polyhedra
from .errors import MALFORMED, InfeasibleScaleError, UsageError, malformed

TOL = 1e-9
MAX_SPAN_POINTS = 8


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
            raise malformed("bad FiniteMetric JSON", exc) from exc

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
        raise malformed("function values must be finite numbers", exc) from exc
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


def tight_span_vertices(space):
    """All 0-cells of the tight span (see the module docstring), sorted by
    their floats; float mode rounds each correctly and keeps one per grid
    cell of TOL times the largest distance."""
    n = space.n
    if n > MAX_SPAN_POINTS:
        raise InfeasibleScaleError(f"tight span enumeration is limited to {MAX_SPAN_POINTS} points")
    rows = [[0] * n + [1]]
    for i in range(n):
        for j in range(i, n):
            p, q = Fraction(space.d(i, j)).as_integer_ratio()
            rows.append([q * ((k == i) + (k == j)) for k in range(n)] + [-p])
    # float cells are TOL times the largest distance (1 for a zero metric) wide
    big_p, big_q = max((abs(x) for r in space.rows for x in r), default=0).as_integer_ratio()
    tol_p, tol_q = TOL.as_integer_ratio()
    tol_p, tol_q = tol_p * (big_p or 1), tol_q * big_q
    found = {}
    for v, _ in polyhedra.extreme_rays(rows):
        if v[n]:  # int / int rounds correctly
            f = [Fraction(x, v[n]) if space.exact else x / v[n] for x in v[:n]]
            # the cell round(f_i / cell width), in integers: no float overflow
            key = tuple(f) if space.exact else tuple(
                (2 * x * tol_q + v[n] * tol_p) // (2 * v[n] * tol_p) for x in v[:n])
            found.setdefault(key, f)
    return sorted(found.values(), key=lambda f: [float(x) for x in f])
