"""Exact vertex/facet enumeration for centrally symmetric polytopes, dim <= 3.

Everything runs on Fractions.  The workhorse is polar duality: the vertices
of {x : |<a_i, x>| <= b_i} are dual to the hull facets of the polar points
+-a_i/b_i, so enumeration reduces to exact convex hulls.  In 2D the hull is
a monotone chain; in 3D the combinatorics are seeded by Qhull on float
images and then certified exactly, with a brute-force fallback for small
inputs if certification fails.
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
    is recomputed exactly and certified to support all points.  If the seed
    is inconsistent the computation falls back to exhaustive triples (small
    inputs only).
    """
    # Imported here because scipy.spatial is most of the package's import time
    # and only 3D hulls use it; outside the try so that a failed import is not
    # taken for a rejected Qhull seed.
    from scipy.spatial import ConvexHull

    arr = np.array([[float(x) for x in p] for p in points], dtype=float)
    try:
        hull = ConvexHull(arr)
        planes = {}
        ok = True
        for simplex in hull.simplices:
            pl = _plane_through(*(points[i] for i in simplex))
            if pl is None:
                continue
            if pl not in planes:
                n, c = pl
                if _exact_violations(points, arr, n, c):
                    ok = False
                    break
                planes[pl] = True
        if ok and planes:
            return list(planes)
    except Exception:
        pass
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


def vertex_enum_exact(facets):
    """Vertices of {x : |<a_i, x>| <= b_i}, plus the irredundant facet indices.

    facets: list of (a, b) with a a Fraction tuple (one per antipodal pair)
    and b > 0.  Returns (vertices, keep) where vertices hold one
    representative per antipodal pair and keep indexes the facets that
    actually support the body.
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
    polar_pts = []
    owner = []
    for i, (a, b) in enumerate(facets):
        p = tuple(x / b for x in a)
        polar_pts.append(p)
        owner.append(i)
        polar_pts.append(tuple(-x for x in p))
        owner.append(i)
    uniq, back = _dedup_exact(polar_pts)

    if n == 2:
        hull = hull2d(uniq)
        keep = sorted({owner[back[h]] for h in hull})
        verts = {}
        for t in range(len(hull)):
            p = uniq[hull[t]]
            q = uniq[hull[(t + 1) % len(hull)]]
            det = p[0] * q[1] - p[1] * q[0]
            if det == 0:
                raise UsageError("degenerate facet pair (origin on hull edge)")
            v = ((q[1] - p[1]) / det, (p[0] - q[0]) / det)
            verts[_canon_sign(v)] = True
        return list(verts), keep

    planes = hull3d_planes(uniq)
    # dual vertex of each hull facet, certified against every input facet
    facet_pts = [tuple(x / b for x in a) for a, b in facets]
    facet_arr = np.array([[float(x) for x in p] for p in facet_pts])
    verts = {}
    for nrm, c in planes:
        v = tuple(x / c for x in nrm)
        vf = np.array([float(x) for x in v])
        vals = np.abs(facet_arr @ vf)  # |<a_i, v>| / b_i
        scale = max(1.0, float(np.max(vals)))
        for i in np.nonzero(vals > 1 - 1e-9 * scale)[0]:
            a, b = facets[int(i)]
            s = sum(a[t] * v[t] for t in range(n))
            if s > b or -s > b:
                raise RuntimeError(
                    "dual vertex escapes a facet: incomplete hull combinatorics"
                )
        verts[_canon_sign(v)] = True
    # facet i is irredundant iff its polar point is extreme: the planes
    # through it must span the whole space
    plane_arr = np.array([[float(x) for x in nrm] for nrm, _ in planes])
    offs = np.array([float(c) for _, c in planes])
    keep = []
    seen_pts = set()
    for i, p in enumerate(facet_pts):
        if p in seen_pts:
            continue  # exact duplicate facet: keep only the first
        seen_pts.add(p)
        pf = np.array([float(x) for x in p])
        vals = plane_arr @ pf
        scale = np.maximum(1.0, np.maximum(np.abs(offs), np.abs(vals)))
        touching = []
        for t in np.nonzero(np.abs(vals - offs) <= 1e-9 * scale)[0]:
            nrm, c = planes[int(t)]
            if sum(nrm[r] * p[r] for r in range(n)) == c:
                touching.append(nrm)
        if touching and _rank_full(touching, n):
            keep.append(i)
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
    pts = []
    owner = []
    for i, w in enumerate(vertices):
        pts.append(tuple(_fr(x) for x in w))
        owner.append(i)
        pts.append(tuple(-_fr(x) for x in w))
        owner.append(i)
    uniq, back = _dedup_exact(pts)

    if n == 2:
        hull = hull2d(uniq)
        keep = sorted({owner[back[h]] for h in hull})
        out = {}
        for t in range(len(hull)):
            p = uniq[hull[t]]
            q = uniq[hull[(t + 1) % len(hull)]]
            a = (q[1] - p[1], p[0] - q[0])  # outward normal for CCW order
            b = a[0] * p[0] + a[1] * p[1]
            if b == 0:
                raise UsageError("degenerate edge through the origin")
            if b < 0:
                a, b = (-a[0], -a[1]), -b
            a, b = _primitive(a, b)
            out[(_canon_sign(a), b)] = True
        return [(a, b) for a, b in out], keep

    planes = hull3d_planes(uniq)
    out = {}
    for nrm, c in planes:
        out[(_canon_sign(nrm), c)] = True
    plane_arr = np.array([[float(x) for x in nrm] for nrm, _ in planes])
    offs = np.array([float(c) for _, c in planes])
    keep = []
    for i, w in enumerate(vertices):
        p = tuple(_fr(x) for x in w)
        pf = np.array([float(x) for x in p])
        vals = plane_arr @ pf
        scale = np.maximum(1.0, np.maximum(np.abs(offs), np.abs(vals)))
        touching = []
        for t in np.nonzero(np.abs(vals - offs) <= 1e-9 * scale)[0]:
            nrm, c = planes[int(t)]
            if sum(nrm[r] * p[r] for r in range(n)) == c:
                touching.append(nrm)
        if touching and _rank_full(touching, n):
            keep.append(i)
    return [(a, b) for a, b in out], keep
