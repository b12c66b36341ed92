"""The one exact enumerator: extreme rays of integer cones, and through
them the vertices and facets of centrally symmetric polytopes in any
dimension.

`extreme_rays` is a fraction-free double description (Fukuda-Prodon 1996)
of a pointed cone {x : A x >= 0}, certified before it returns: every ray
is valid, primitive, distinct and extreme, no nonzero row vanishes at
every ray, and the rays are closed under the edges of the cone, checked at
the rays off the face of row 0 (at all rays when none is off it).  The facets
(a, b) of conv(+-w_i) are the rays of {(b, a) : b >= |<a, w_i>|}, and the
vertices of {x : |<a_i, x>| <= b_i} are the facets (n, c) of
conv(+-a_i/b_i) mapped to n/c; tight spans (normspace.tightspan) are the
rays of one more cone.  Outputs are sorted; repeated and antipodal inputs
are kept once, at their first index.
"""

import math
import operator
from fractions import Fraction

from . import qlinalg
from .errors import UsageError


def _canon_sign(vec):
    for x in vec:
        if x != 0:
            return vec if x > 0 else tuple(-y for y in vec)
    return vec


# ---------------------------------------------------------------------------
# the kernel: extreme rays of {x : A x >= 0}
# ---------------------------------------------------------------------------

def _dot(row, v):
    return sum(map(operator.mul, row, v))


def _bits(mask):  # the set bits, lowest first
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _reduced(v):
    g = math.gcd(*v)
    return tuple(x // g for x in v)


FILTER_MIN = 64  # rows from which numpy signs beat exact integer dots


def _filter(rows):
    """numpy and the float image of rows when the sign filter is on (from
    FILTER_MIN rows), else (None, None): smaller cones never import numpy."""
    if len(rows) < FILTER_MIN:
        return None, None
    import numpy as np

    return np, _image(np, rows)


def _image(np, vecs):
    """Floats of integer vectors for the sign filter; inf past the float range."""
    try:
        return np.array(vecs, dtype=float)
    except OverflowError:
        return np.array([[float(x) if x.bit_length() < 1024 else math.inf for x in v] for v in vecs])


def _split(np, w, fw, vs, ids, fvs):
    """The t in ids with <vs[t], w> < 0, = 0 and >= 0, decided exactly.  With
    float images (np and fvs are None below FILTER_MIN rows) a float product
    settles a sign when it exceeds (d + 4) 2^-50 |fvs| @ |fw|, a bound on
    its rounding error; an exact dot decides the rest."""
    if fvs is None:
        vals = [_dot(vs[t], w) for t in ids]
    else:
        ids = np.asarray(ids, dtype=np.intp)
        f = fvs[ids]
        with np.errstate(invalid="ignore", over="ignore"):  # an inf or a NaN settles nothing
            fx = f @ fw
            vals = np.where(np.abs(fx) > (len(w) + 4) * 2.0**-50 * (np.abs(f) @ np.abs(fw)), fx, 0.0)
        for k in np.flatnonzero(vals == 0):
            x = _dot(vs[ids[k]], w)
            vals[k] = (x > 0) - (x < 0)
        return ids[vals < 0].tolist(), ids[vals == 0].tolist(), ids[vals >= 0].tolist()
    return ([t for t, x in zip(ids, vals) if x < 0], [t for t, x in zip(ids, vals) if x == 0],
            [t for t, x in zip(ids, vals) if x >= 0])


def _double_description(rows):
    """The extreme rays of the pointed cone {x : rows x >= 0} with their zero
    sets, or None when the rows do not span.

    The first independent rows B, found by one `qlinalg.echelon` pass on
    [A^T | I], cut out a simplicial cone with rays +-det A_B^{-1} e_k.  Each
    further row keeps the rays on its side and joins each adjacent pair it
    separates: no third ray is tight at every row the two share (the
    combinatorial test).  holders[i] masks the live rays tight at row i.
    From FILTER_MIN rows on, `_split` reads signs off float images.
    """
    m, d = len(rows), len(rows[0])
    det, out, basis = qlinalg.echelon(
        [list(col) + [int(i == j) for j in range(d)] for i, col in enumerate(zip(*rows))], m)
    if len(basis) < d:
        return None
    sign = 1 if det > 0 else -1
    done = sum(1 << i for i in basis)
    vecs = [_reduced([sign * x for x in out[k][m:]]) for k in range(d)]
    zs = [done & ~(1 << b) for b in basis]
    holders = [sum(1 << t for t in range(d) if zs[t] >> i & 1) for i in range(m)]
    live, alive = list(range(d)), (1 << d) - 1
    np, fr = _filter(rows)
    fv = None if np is None else _image(np, vecs)
    for i in range(m):
        if done >> i & 1:
            continue
        row = rows[i]
        neg, zero, live = _split(np, row, fr if fr is None else fr[i], vecs, live, fv)
        negs, zeros, born = sum(1 << t for t in neg), sum(1 << t for t in zero), len(vecs)
        for q in neg:
            near = alive
            if d > 2:  # an adjacent ray shares d - 2 >= 1 rows with q
                near = 0
                for j in _bits(zs[q]):
                    near |= holders[j]
            for p in _bits(near & ~negs & ~zeros):  # the rays on the positive side
                common, share = zs[p] & zs[q], alive
                for j in _bits(common):
                    share &= holders[j]
                if common.bit_count() >= d - 2 and share.bit_count() == 2:  # p, q alone
                    a, b = _dot(row, vecs[p]), _dot(row, vecs[q])
                    vecs.append(_reduced([a * y - b * x for x, y in zip(vecs[p], vecs[q])]))
                    zs.append(common | 1 << i)
        for t in zero:
            zs[t] |= 1 << i
        holders[i] |= zeros
        alive &= ~negs
        for t in neg:
            for j in _bits(zs[t]):
                holders[j] &= ~(1 << t)
        live += range(born, len(vecs))
        for t in range(born, len(vecs)):
            alive |= 1 << t
            for j in _bits(zs[t]):
                holders[j] |= 1 << t
        if fv is not None and len(vecs) > born:
            fv = np.vstack([fv, _image(np, vecs[born:])])
    return [(vecs[t], zs[t]) for t in live]


def _certify(rows, rays, ids, memo):
    """The zero sets of the rays, once they are shown to be exactly the
    extreme rays of the pointed cone {x : rows x >= 0}.

    1. Valid: every row is >= 0 at every ray; the rays are distinct,
       primitive and at least one.
    2. Full-dimensional: no nonzero row vanishes at every ray, as an
       implicit equality of a flat cone would.
    3. Extreme: the rows tight at each ray have rank d - 1.  For d >= 2
       this and step 2 make the cone pointed: each such ray would lie on
       the lineality line, where every row vanishes.
    4. Closed under edges: each edge at a ray v, an extreme ray of the
       tangent cone at v (its tight rows, v projected out by dropping a
       coordinate where v is nonzero), ends at another ray whose zero set
       holds the edge's.  With d - 1 tight rows each edge drops one of
       them; otherwise the tangent cone's rays are enumerated and certified.
    The graph of a pointed cone is connected, so rays closed under edges
    are all of them.  Step 4 skips the rays on the face of row 0 whenever
    some ray lies off it.  The rays off it are the vertices of the
    polyhedron P = {x : rows x >= 0, row_0 x = 1}, joined by its bounded
    edges; each ray r on it, an extreme ray of P's recession cone, is the
    direction of an unbounded edge at some vertex v, the edge cone(v, r)
    that step 4 at v enumerates.  Any failure raises RuntimeError.  Zero
    sets are masks over ids[i], the name of row i in the outermost cone;
    memo keeps the edges of each tangent cone by its tight rows, met again
    on other paths.
    """
    d = len(rows[0])
    tights, zs, holders = [], [], {}  # holders: row id -> mask of the rays tight there
    np, fr = _filter(rows)
    for t, v in enumerate(rays):
        neg, tight, _ = _split(np, v, fr if fr is None else _image(np, [v])[0], rows,
                               range(len(rows)), fr)
        if neg or math.gcd(*v) != 1:
            raise RuntimeError("exact extreme rays: a ray is invalid")
        tights.append(tight)
        zs.append(sum(1 << ids[i] for i in tights[-1]))
        for i in tights[-1]:
            holders[ids[i]] = holders.get(ids[i], 0) | 1 << t
    if not rays or len(set(rays)) < len(rays):
        raise RuntimeError("exact extreme rays: no rays, or a repeated ray")
    every = (1 << len(rays)) - 1
    if any(holders.get(i) == every and any(row) for i, row in zip(ids, rows)):
        raise RuntimeError("exact extreme rays: the rays do not span")
    face = holders.get(ids[0], 0)
    if face == every:  # no ray off the face: row 0 is zero
        face = 0
    for t, (v, z, idx) in enumerate(zip(rays, zs, tights)):
        tight = [rows[i] for i in idx]
        if len(qlinalg.echelon(tight, d)[2]) != d - 1:
            raise RuntimeError("exact extreme rays: a ray is not extreme")
        if face >> t & 1:
            continue
        if len(idx) == d - 1:
            edges = [z & ~(1 << ids[i]) for i in idx]
        elif z in memo:
            edges = memo[z]
        else:
            k = next(j for j, x in enumerate(v) if x)
            sub = [r[:k] + r[k + 1:] for r in tight]
            edges = memo[z] = [e for _, e in _certify(
                sub, [r for r, _ in _double_description(sub)], [ids[i] for i in idx], memo)]
        for e in edges:
            ends = (1 << len(rays)) - 1 & ~(1 << t)
            for j in _bits(e):
                ends &= holders[j]
            if not ends:
                raise RuntimeError("exact extreme rays: an edge leaves the rays")
    return list(zip(rays, zs))


def extreme_rays(rows):
    """Primitive integer extreme rays of {x : rows x >= 0}, each with its
    zero set (bit i set when row i vanishes at the ray), certified by
    `_certify`; None when the rows do not span R^d.  The cone must be
    full-dimensional; the integer rows must all have length d.  Zero rows
    constrain nothing: they are left out of the enumeration and the
    certificate, and their bits are set in every zero set."""
    ids = [i for i, row in enumerate(rows) if any(row)]
    zero = sum(1 << i for i, row in enumerate(rows) if not any(row))
    rows = [rows[i] for i in ids]
    rays = _double_description(rows) if rows else None
    if rays is None:
        return None
    return [(v, z | zero) for v, z in _certify(rows, [v for v, _ in rays], ids, {})]


# ---------------------------------------------------------------------------
# polytope enumeration via polarity
# ---------------------------------------------------------------------------

def _hull_planes(points, flat):
    """Integer facet planes (a, b) with <a, x> <= b of conv(+-points), the
    rays (b, a) of {b - <q, a> >= 0 : q = +-points}; UsageError(flat) when
    the points do not span.  Each point q / t is given homogeneously as
    (t, *q) with t > 0 (entries ints, Fractions or floats) and cleared to
    the primitive integer row (t', -q'), the same for every positive scale.
    keep lists in increasing order the inputs whose row is a facet of the
    cone: its rays lie in no other row's strictly larger set.  An input that
    repeats an earlier point or its antipode is never kept.
    """
    seen = {}  # each row -> its first index: input i at 2i, its antipode at 2i + 1
    for i, point in enumerate(points):
        (row,), _ = qlinalg.clear_denominators([point])
        t, *q = _reduced(row)
        seen.setdefault((t, *(-x for x in q)), 2 * i)
        seen.setdefault((t, *q), 2 * i + 1)
    rows, back = list(seen), list(seen.values())  # back[h] // 2 is the input of rows[h]
    rays = extreme_rays(rows)
    if rays is None:
        raise UsageError(flat)
    on = [0] * len(rows)  # on[h]: the rays tight at row h; a larger set holds its first ray
    for r, (_, z) in enumerate(rays):
        for h in _bits(z):
            on[h] |= 1 << r
    keep = {back[h] // 2 for h, s in enumerate(on) if s and not any(
        s & on[u] == s != on[u] for u in _bits(rays[(s & -s).bit_length() - 1][1]))}
    planes = [(v[1:], v[0]) for v, _ in rays]
    return planes, sorted(keep)


def vertex_enum_exact(facets):
    """Vertices of {x : |<a_i, x>| <= b_i}, plus the irredundant facet indices.

    facets: list of (a, b), one per antipodal pair, with b > 0 and the
    entries of a and b ints, Fractions or floats.  Returns (vertices, keep)
    where vertices hold one representative per antipodal pair, in
    increasing order, and keep indexes the facets that actually support the
    body.  By polarity, the hull facet (n, c) of the points a_i/b_i is the
    vertex n/c.
    """
    if not facets:
        raise UsageError("no facets")
    if any(b <= 0 for _, b in facets):
        raise UsageError("facet offsets must be positive")
    planes, keep = _hull_planes([(b, *a) for a, b in facets],
                                "facet normals do not span: body is unbounded")
    verts = {_canon_sign(tuple(Fraction(x, c) for x in nrm)) for nrm, c in planes}
    return sorted(verts), keep


def facet_enum_exact(vertices):
    """Irredundant facets (a, b) of conv(+-vertices), one per antipodal pair
    and in increasing order, plus the indices of the input vertices that are
    extreme; vertex entries are ints, Fractions or floats."""
    if not vertices:
        raise UsageError("no vertices")
    planes, keep = _hull_planes([(1, *w) for w in vertices],
                                "vertices do not span: body has empty interior")
    out = set()
    for nrm, c in planes:  # scaled to max |a_i| = 1
        m = max(map(abs, nrm))
        out.add((_canon_sign(tuple(Fraction(x, m) for x in nrm)), Fraction(c, m)))
    return sorted(out), keep
