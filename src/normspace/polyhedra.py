"""Exact vertex/facet enumeration for centrally symmetric polytopes, dim <= 3.

Everything runs on Fractions.  Both enumerations share one polar hull route:
the facets of conv(+-w_i) are found directly, and the vertices of
{x : |<a_i, x>| <= b_i} are the facets (n, c) of conv(+-a_i/b_i) mapped to
n/c.  In 2D the hull is a monotone chain; in 3D it is gift wrapping, each
pivot proposed in float and certified in Fraction, and the finished hull is
certified complete.  Repeated and antipodal inputs are kept once, at their
first index.
"""

from fractions import Fraction

import numpy as np

from . import qlinalg
from .errors import InfeasibleScaleError, UsageError


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
# 3D: exact gift wrapping
# ---------------------------------------------------------------------------

def _plane_through(p, q, r):
    u = tuple(q[i] - p[i] for i in range(3))
    v = tuple(r[i] - p[i] for i in range(3))
    n = (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )
    c = sum(n[i] * p[i] for i in range(3))
    if c < 0:
        n, c = tuple(-x for x in n), -c
    if c == 0:
        return None  # collinear points, or a plane through the origin
    return _primitive(tuple(Fraction(x) for x in n), Fraction(c))


def _exact_violations(points, arr, normal, offset):
    """Indices of points with <n, x> > c, and of points with <n, x> = c.

    A float prefilter with a conservative guard band skips points that are
    strictly inside by a wide margin; only near-boundary points are checked
    with exact arithmetic, so both lists are still exact.
    """
    nf = np.array([float(x) for x in normal])
    cf = float(offset)
    vals = arr @ nf
    guard = 1e-9 * max(1.0, abs(cf), float(np.max(np.abs(vals))))
    over, on = [], []
    for i in np.nonzero(vals > cf - guard)[0]:
        v = sum(normal[t] * points[i][t] for t in range(3))
        if v > offset:
            over.append(int(i))
        elif v == offset:
            on.append(int(i))
    return over, on


def _wrap(points, arr, a, b, normal, inside):
    """Turn a supporting plane about the line ab as far as the points allow.

    normal is the outward normal of the known supporting plane through the
    line, inside (float) a point of it off the line on the side the plane
    turns away from.  The pivot of largest rotation angle is proposed in
    float; its exact plane is certified, and each exact violator turns the
    plane strictly further.  Returns (plane, indices of the points on it).
    """
    pa = np.array([float(x) for x in a])
    u = np.array([float(x) for x in b]) - pa
    v = np.asarray(inside) - pa
    v -= (v @ u) / (u @ u) * u
    nf = np.array([float(x) for x in normal])
    d = arr - pa
    x, y = d @ (v / np.linalg.norm(v)), d @ (nf / np.linalg.norm(nf))
    off_line = np.hypot(x, y) > 1e-12 * np.max(np.abs(arr))
    # the angle turned is pi/2 - arctan2(x, -y), continuous where -y = +-0
    q = int(np.argmin(np.where(off_line, np.arctan2(x, -y), np.inf)))
    while True:
        plane = _plane_through(a, b, points[q])
        if plane is None:
            raise RuntimeError("exact 3D hull: degenerate wrap pivot")
        over, on = _exact_violations(points, arr, *plane)
        if not over:
            return plane, on
        q = over[0]


def hull3d_planes(points):
    """Exact facet planes (n, c) with <n, x> <= c of conv(points), 0 interior,
    and the sorted indices of the hull's vertices.

    Gift wrapping (Chand-Kapur 1970): two wraps about lines through the point
    s with the largest first coordinate turn the plane x = x_s into a first
    facet, then each edge with one known face is wrapped to its other face.
    A face is the exact 2D hull of the points exactly on its plane, seen
    along the normal's largest coordinate.  The hull is certified complete:
    every edge lies in exactly two faces and V - E + F = 2.
    """
    arr = np.array([[float(x) for x in p] for p in points], dtype=float)
    faces = {}  # plane -> face vertex indices in cyclic order
    edges = {}  # (i, j) with i < j -> set of the planes of the faces through it
    todo = []

    def add(plane, on):
        if plane in faces:
            raise RuntimeError("exact 3D hull: a wrap returned a known face")
        if len(on) > 3:  # three points off one line are already a face
            drop = max(range(3), key=lambda t: abs(plane[0][t]))
            on = [on[h] for h in hull2d(
                [tuple(points[i][t] for t in range(3) if t != drop) for i in on])]
        faces[plane] = on
        for i, j in zip(on, on[1:] + on[:1]):
            edge = (min(i, j), max(i, j))
            edges.setdefault(edge, set()).add(plane)
            todo.append(edge)

    s = max(range(len(points)), key=points.__getitem__)
    a = points[s]
    plane, on = _wrap(points, arr, a, (a[0], a[1], a[2] + 1), (1, 0, 0),
                      arr[s] + (0, 1, 0))
    q = next(i for i in on if points[i][:2] != a[:2])  # off the first line
    add(*_wrap(points, arr, a, points[q], plane[0], arr[s] + (0, 0, 1)))
    while todo:
        i, j = todo.pop()
        if len(edges[i, j]) == 1:
            (plane,) = edges[i, j]
            add(*_wrap(points, arr, points[i], points[j], plane[0],
                       arr[faces[plane]].mean(axis=0)))
    verts = sorted({i for face in faces.values() for i in face})
    if (any(len(planes) != 2 for planes in edges.values())
            or len(verts) - len(edges) + len(faces) != 2):
        raise RuntimeError("exact 3D hull: the faces do not close up")
    return list(faces), verts


# ---------------------------------------------------------------------------
# polytope enumeration via polarity
# ---------------------------------------------------------------------------

def _check_dim(n):
    if n not in (2, 3):
        raise InfeasibleScaleError(
            f"exact enumeration supports dimension 2 and 3, got {n}"
        )


def _rank_full(vectors, n):
    """The rational rows span R^n iff their integer Gram matrix is nonsingular."""
    a, _ = qlinalg.clear_denominators(vectors)
    gram = [[sum(r[i] * r[j] for r in a) for j in range(n)] for i in range(n)]
    return qlinalg.bareiss(gram)[0] != 0


def _hull_planes(points, n):
    """Facet planes of conv(+-points) and the inputs that are hull vertices.

    points must span R^n, so the origin is interior and every plane (a, b)
    with <a, x> <= b on the hull has b > 0.  In 2D a plane is the outward
    normal of a CCW edge p -> q with b = det(p, q); in 3D it comes certified
    from hull3d_planes.  keep lists, in increasing order, the inputs whose
    point is a hull vertex; an input that repeats an earlier point or its
    antipode is never kept.
    """
    seen = {}  # each point -> its first index, input i at 2i and -input i at 2i + 1
    for idx, p in enumerate(q for p in points for q in (p, tuple(-x for x in p))):
        seen.setdefault(p, idx)
    uniq, back = list(seen), list(seen.values())  # back[h] // 2 is the input of uniq[h]

    if n == 2:
        hull = hull2d(uniq)
        planes = []
        for t, h in enumerate(hull):
            p, q = uniq[h], uniq[hull[(t + 1) % len(hull)]]
            planes.append(((q[1] - p[1], p[0] - q[0]), p[0] * q[1] - p[1] * q[0]))
    else:
        planes, hull = hull3d_planes(uniq)
    return planes, sorted({back[h] // 2 for h in hull})


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
    vertices = [qlinalg.vec(w) for w in vertices]
    if not _rank_full(vertices, n):
        raise UsageError("vertices do not span: body has empty interior")
    planes, keep = _hull_planes(vertices, n)
    out = {}
    for nrm, c in planes:
        a, b = _primitive(nrm, c)
        out[(_canon_sign(a), b)] = True
    return list(out), keep
