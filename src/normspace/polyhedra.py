"""Exact vertex/facet enumeration for centrally symmetric polytopes, dim <= 3.

Everything runs on Fractions.  Both enumerations share one polar hull route:
the facets of conv(+-w_i) are found directly, and the vertices of
{x : |<a_i, x>| <= b_i} are the facets (n, c) of conv(+-a_i/b_i) mapped to
n/c.  In 2D the hull is a monotone chain; in 3D the combinatorics are seeded
by Qhull on float images and every plane is certified exactly, with a
brute-force fallback for small inputs if certification fails.  Repeated and
antipodal inputs are kept once, at their first index.
"""

import itertools
from fractions import Fraction

import numpy as np

from . import qlinalg
from .errors import InfeasibleScaleError, UsageError

BRUTE_FORCE_FACET_CAP = 60


def _fr(x):
    return x if isinstance(x, Fraction) else Fraction(x)


def _dedup_exact(points):
    seen = {}
    for idx, p in enumerate(points):
        seen.setdefault(tuple(p), idx)
    uniq = list(seen.keys())
    back = list(seen.values())
    return uniq, back


def _canon_sign(vec):
    for x in vec:
        if x != 0:
            return vec if x > 0 else tuple(-y for y in vec)
    return vec


def _primitive(normal, offset):
    """Canonical scaling of a rational plane: divide by max |entry| of the
    normal, so entries land in [-1, 1] with at least one equal to +-1.
    (Float-safe, unlike clearing denominators, which can explode.)"""
    mx = max(abs(x) for x in normal)
    if mx == 0:
        raise UsageError("zero normal")
    return tuple(x / mx for x in normal), offset / mx


# ---------------------------------------------------------------------------
# 2D: exact monotone chain
# ---------------------------------------------------------------------------

def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def hull2d(points):
    """Indices of hull vertices in CCW order (collinear points dropped)."""
    idx = sorted(range(len(points)), key=lambda i: points[i])
    if len(idx) < 3:
        return idx
    lower = []
    for i in idx:
        while len(lower) >= 2 and _cross(points[lower[-2]], points[lower[-1]], points[i]) <= 0:
            lower.pop()
        lower.append(i)
    upper = []
    for i in reversed(idx):
        while len(upper) >= 2 and _cross(points[upper[-2]], points[upper[-1]], points[i]) <= 0:
            upper.pop()
        upper.append(i)
    return lower[:-1] + upper[:-1]


# ---------------------------------------------------------------------------
# 3D: Qhull-seeded exact hull planes
# ---------------------------------------------------------------------------

def _plane_through(p, q, r):
    u = tuple(q[i] - p[i] for i in range(3))
    v = tuple(r[i] - p[i] for i in range(3))
    n = (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )
    if all(x == 0 for x in n):
        return None
    c = sum(n[i] * p[i] for i in range(3))
    if c < 0:
        n, c = tuple(-x for x in n), -c
    if c == 0:
        return None  # plane through the origin cannot support a symmetric hull
    return _primitive(tuple(Fraction(x) for x in n), Fraction(c))


def _brute_hull3d_planes(points):
    planes = {}
    m = len(points)
    for i, j, k in itertools.combinations(range(m), 3):
        pl = _plane_through(points[i], points[j], points[k])
        if pl is None or pl in planes:
            continue
        n, c = pl
        vals = [sum(n[t] * p[t] for t in range(3)) for p in points]
        if all(v <= c for v in vals):
            planes[pl] = True
    return list(planes)


def _exact_violations(points, arr, normal, offset):
    """Indices of points with <n, x> > c, exactly.

    A float prefilter with a conservative guard band skips points that are
    strictly inside by a wide margin; only near-boundary points are checked
    with exact arithmetic, so the result is still exact.
    """
    nf = np.array([float(x) for x in normal])
    cf = float(offset)
    vals = arr @ nf
    scale = max(1.0, abs(cf), float(np.max(np.abs(vals))))
    guard = 1e-9 * scale
    suspects = np.nonzero(vals > cf - guard)[0]
    out = []
    for i in suspects:
        v = sum(normal[t] * points[i][t] for t in range(3))
        if v > offset:
            out.append(int(i))
    return out


def hull3d_planes(points):
    """Exact facet planes (n, c) with <n, x> <= c of conv(points), 0 interior.

    Qhull proposes the combinatorics on the float image; each proposed plane
    is recomputed exactly and certified to support all points.  If Qhull
    rejects the input or the seed is inconsistent, the computation falls back
    to exhaustive triples (small inputs only).
    """
    # Imported here because scipy.spatial is most of the package's import time
    # and only 3D hulls use it.
    from scipy.spatial import ConvexHull, QhullError

    arr = np.array([[float(x) for x in p] for p in points], dtype=float)
    try:
        simplices = ConvexHull(arr).simplices
    except QhullError:
        simplices = []  # no seed: fall back below
    planes = {}
    ok = True
    for simplex in simplices:
        pl = _plane_through(*(points[i] for i in simplex))
        if pl is None or pl in planes:
            continue
        if _exact_violations(points, arr, *pl):
            ok = False
            break
        planes[pl] = True
    if ok and planes:
        return list(planes)
    if len(points) > BRUTE_FORCE_FACET_CAP:
        raise InfeasibleScaleError(
            f"exact 3D hull certification failed for {len(points)} points"
        )
    return _brute_hull3d_planes(points)


# ---------------------------------------------------------------------------
# polytope enumeration via polarity
# ---------------------------------------------------------------------------

def _check_dim(n):
    if n not in (2, 3):
        raise InfeasibleScaleError(
            f"exact enumeration supports dimension 2 and 3, got {n}"
        )


def _rank_full(vectors, n):
    return qlinalg.rank(qlinalg.mat(vectors)) == n


def _hull_planes(points, n):
    """Facet planes of conv(+-points) and the inputs that are hull vertices.

    points must span R^n, so the origin is interior and every plane (a, b)
    with <a, x> <= b on the hull has b > 0.  In 2D a plane is the outward
    normal of a CCW edge p -> q with b = det(p, q); in 3D it comes certified
    from hull3d_planes.  keep lists, in increasing order, the inputs whose
    point is a hull vertex; an input that repeats an earlier point or its
    antipode is never kept.
    """
    signed = []
    for p in points:
        signed.append(p)
        signed.append(tuple(-x for x in p))
    uniq, back = _dedup_exact(signed)  # back[h] // 2 is the input of uniq[h]

    if n == 2:
        hull = hull2d(uniq)
        planes = []
        for t, h in enumerate(hull):
            p, q = uniq[h], uniq[hull[(t + 1) % len(hull)]]
            planes.append(((q[1] - p[1], p[0] - q[0]), p[0] * q[1] - p[1] * q[0]))
        return planes, sorted({back[h] // 2 for h in hull})

    planes = hull3d_planes(uniq)
    # a point is extreme iff the planes through it span the whole space; the
    # hull is symmetric, so the first signed copy of each input decides
    plane_arr = np.array([[float(x) for x in a] for a, _ in planes])
    offs = np.array([float(b) for _, b in planes])
    keep = []
    for p, first in zip(uniq, back):
        if first % 2:
            continue
        vals = plane_arr @ np.array([float(x) for x in p])
        scale = np.maximum(1.0, np.maximum(np.abs(offs), np.abs(vals)))
        touching = []
        for t in np.nonzero(np.abs(vals - offs) <= 1e-9 * scale)[0]:
            a, b = planes[int(t)]
            if sum(a[r] * p[r] for r in range(n)) == b:
                touching.append(a)
        if touching and _rank_full(touching, n):
            keep.append(first // 2)
    return planes, keep


def vertex_enum_exact(facets):
    """Vertices of {x : |<a_i, x>| <= b_i}, plus the irredundant facet indices.

    facets: list of (a, b) with a a Fraction tuple (one per antipodal pair)
    and b > 0.  Returns (vertices, keep) where vertices hold one
    representative per antipodal pair and keep indexes the facets that
    actually support the body.  By polarity, the hull facet (n, c) of the
    points a_i/b_i is the vertex n/c.
    """
    if not facets:
        raise UsageError("no facets")
    n = len(facets[0][0])
    _check_dim(n)
    for a, b in facets:
        if b <= 0:
            raise UsageError("facet offsets must be positive")
    if not _rank_full([a for a, _ in facets], n):
        raise UsageError("facet normals do not span: body is unbounded")
    planes, keep = _hull_planes([tuple(x / b for x in a) for a, b in facets], n)
    verts = {_canon_sign(tuple(x / c for x in nrm)): True for nrm, c in planes}
    return list(verts), keep


def facet_enum_exact(vertices):
    """Irredundant facets (a, b) of conv(+-vertices), one per antipodal pair,
    plus the indices of the input vertices that are extreme."""
    if not vertices:
        raise UsageError("no vertices")
    n = len(vertices[0])
    _check_dim(n)
    if not _rank_full(list(vertices), n):
        raise UsageError("vertices do not span: body has empty interior")
    planes, keep = _hull_planes([tuple(_fr(x) for x in w) for w in vertices], n)
    out = {}
    for nrm, c in planes:
        a, b = _primitive(nrm, c)
        out[(_canon_sign(a), b)] = True
    return list(out), keep
