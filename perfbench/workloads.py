"""Seeded workload inputs and the outside checks of every result.

A workload run repeats one pass: a fixed list of CLI invocations whose
arguments are drawn from ``SeedSequence([seed, workload_id])``, in an order
that is the same for every seed.  The program only ever sees the JSON
arguments built here.  Each check below evaluates an invariant of the
answer with this module's own arithmetic, never with the library's
certifiers, and raises ``CheckFailed`` when the result is wrong.
"""

import json
import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from normspace import bodies as bod
from normspace import building as bld
from normspace import qlinalg
from normspace import valued as val

WORKLOADS = ("ball", "helly-na", "bodies-span")
_WORKLOAD_IDS = {"ball": 1, "helly-na": 2, "bodies-span": 3}

# Thickening-graph ball sizes |B(v, r)| for (n, p, r).  They do not depend
# on the center v: every vertex has the same neighbourhood structure.
# r = 1 is the number of submodules of (Z/p^2)^n.
BALL_SIZES = {
    (2, 2, 1): 15, (2, 2, 2): 83,
    (2, 3, 1): 23, (2, 3, 2): 237,
    (3, 2, 1): 129,
}

# Ball sessions in one pass: (n, p, radii) -> count.  A session starts from
# an empty neighbour cache.  A session of two radii asks for both balls
# around one lattice, given in two bases, so its second op finds every
# neighbour it needs cached.  Sorted by cost the kinds do not overlap, so
# the median of a pass falls inside the cold (2, 2, 2) balls and the tail
# percentile inside the (3, 2, 1) balls.  Every op stays sub-second.  Left
# out on purpose: ball(2) at n=3, p=2 (about 15 s for one op) and anything
# at n=3, p=3 (one neighbour enumeration takes minutes).
BALL_SESSIONS = {
    (2, 2, (1,)): 4,
    (2, 3, (1,)): 8,
    (2, 2, (2,)): 12,
    (3, 2, (1,)): 12,
    (2, 2, (2, 1)): 10,
    (2, 3, (2, 1)): 4,
}
CENTER_WALK = 2  # random_vertex walk length of the ball centers
HELLY_NA_FAMILIES = 120  # ten of each of the 12 (p, n, size) classes
# Seed of what every seed shares: the op order and the bodies-span instances.
LAYOUT_SEED = 1000

FLOAT_TOL = 1e-8  # outside-check tolerance for float tight spans


class CheckFailed(Exception):
    """A result that fails its outside check."""


@dataclass(frozen=True)
class Op:
    """One CLI invocation with what its outside check needs."""

    kind: str
    argv: tuple
    expect: dict
    digest: bool = False  # payload bytes enter the workload's sha256
    fresh: bool = True  # empty the neighbour cache first: a new session


def _rng(*keys):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(list(keys))))


def _dumps(obj):
    return json.dumps(obj, separators=(",", ":"))


def make_pass(workload, seed):
    """The ops of one pass, in the order they run.

    The makers return sessions, lists of ops that share the neighbour
    cache.  Sessions are shuffled once, in the same order for every seed.
    """
    sessions = _MAKERS[workload](_rng(int(seed), _WORKLOAD_IDS[workload]))
    order = _rng(LAYOUT_SEED, _WORKLOAD_IDS[workload]).permutation(len(sessions))
    return [replace(op, fresh=k == 0) for i in order for k, op in enumerate(sessions[i])]


# ---------------------------------------------------------------------------
# ball
# ---------------------------------------------------------------------------

def _ball_op(center, n, p, r):
    return Op(
        f"ball-n{n}p{p}r{r}",
        ("ball", "--center", _dumps(center.to_json()), "--radius", str(r)),
        {"n": n, "p": p, "r": r},
        digest=True,
    )


def _ball_sessions(rng):
    """Sessions around seeded random_vertex centers, as BALL_SESSIONS lists."""
    sessions = []
    for (n, p, radii), count in BALL_SESSIONS.items():
        ctx = val.PAdicContext(p)
        for _ in range(count):
            center = bld.random_vertex(int(rng.integers(0, 2 ** 32)), CENTER_WALK, ctx, n).norm
            session = []
            for r in radii:
                session.append(_ball_op(center, n, p, r))
                basis = qlinalg.matmul(center.basis, _unimodular(rng, n))
                center = val.DiagNorm(ctx, basis, center.weights)
            sessions.append(session)
    return sessions


def check_ball(doc, n, p, r):
    verts = doc["vertices"]
    size = BALL_SIZES[(n, p, r)]
    if doc["count"] != size or len(verts) != size:
        raise CheckFailed(f"ball has {doc['count']}/{len(verts)} vertices, expected {size}")
    depths = [v["depth"] for v in verts]
    if any(not 0 <= d <= r for d in depths) or depths.count(0) != 1:
        raise CheckFailed(f"ball depths outside [0, {r}] or not one center")
    if len({v["key"] for v in verts}) != size:
        raise CheckFailed("ball keys are not distinct")


# ---------------------------------------------------------------------------
# helly-na
# ---------------------------------------------------------------------------

def _unimodular(rng, n, steps=6, kmax=2):
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.integers(0, n, size=2)
        if i == j:
            continue
        k = int(rng.integers(-kmax, kmax + 1))
        for row in m:
            row[i] += k * row[j]
    return m


def _diag_norm(rng, ctx, n):
    weights = []
    for _ in range(n):
        den = int(rng.integers(1, 4))
        weights.append(Fraction(int(rng.integers(-3 * den, 3 * den + 1)), den))
    return val.DiagNorm(ctx, _unimodular(rng, n), weights)


def _helly_na_sessions(rng):
    """Families of each (p, n, size) class in turn, sized as acceptance test 2."""
    ops = []
    for t in range(HELLY_NA_FAMILIES):
        p = (2, 3, 5)[t % 3]
        n = 2 if t % 2 else 3
        k = 3 + t % 4
        ctx = val.PAdicContext(p)
        family = [_diag_norm(rng, ctx, n) for _ in range(k)]
        dmax = [max(val.gi_distance(a, b) for b in family if b is not a) for a in family]
        radii = [str(d / 2 + Fraction(1 + s, 7)) for s, d in enumerate(dmax)]
        arg = {"norms": [eta.to_json() for eta in family], "radii": radii}
        ops.append(Op(
            f"helly-na-p{p}n{n}k{k}",
            ("helly-na", "--family", _dumps(arg)),
            {"radii": radii},
            digest=True,
        ))
    return [[op] for op in ops]


def check_helly_na(doc, radii):
    dists = doc["distances"]
    if len(dists) != len(radii):
        raise CheckFailed("one distance per ball expected")
    for s, (d, r) in enumerate(zip(dists, radii)):
        if Fraction(d) > Fraction(r):
            raise CheckFailed(f"witness at distance {d} > radius {r} of ball {s}")


# ---------------------------------------------------------------------------
# bodies-span
# ---------------------------------------------------------------------------

def _polygon(rng, k=6):
    ang = np.sort(rng.uniform(0, math.pi, size=k))
    rad = rng.uniform(0.5, 2.0, size=k)
    return np.stack([rad * np.cos(ang), rad * np.sin(ang)], axis=1)


def _cloud3(rng, k):
    pts = rng.standard_normal((k, 3))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    return pts * rng.uniform(0.6, 1.8, size=(k, 1))


def _spd_matrix(rng, n):
    g = rng.standard_normal((n, n))
    return g.T @ g + 0.25 * np.eye(n)


def _orthogonal(rng, n):
    """A Haar-random orthogonal matrix."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _moved_spd(a, q):
    """The ellipsoid {x^T a x <= 1} mapped by the orthogonal q."""
    m = q @ a @ q.T
    return bod.SpdNorm(0.5 * (m + m.T))


def _helly_bodies_op(kind, family):
    dmat = [[bod.gi_distance_bodies(a, b) for b in family] for a in family]
    radii = [max(row) / 2 + 0.05 for row in dmat]
    arg = {"bodies": [bod.body_to_json(b) for b in family], "radii": radii}
    return Op(kind, ("helly-bodies", "--family", _dumps(arg)), {"count": len(family)})


def _body_metric(rng, k):
    """Float metric of k random SPD bodies in R^2 under the body distance."""
    pts = [bod.SpdNorm(_spd_matrix(rng, 2)) for _ in range(k)]
    d = [[0.0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            d[i][j] = d[j][i] = bod.gi_distance_bodies(pts[i], pts[j])
    return d


def _int_metric(rng, k):
    """Shortest-path metric of random integer edge weights in [1, 9]."""
    d = [[0 if i == j else int(rng.integers(1, 10)) for j in range(k)] for i in range(k)]
    for i in range(k):
        for j in range(i):
            d[i][j] = d[j][i]
    for m in range(k):
        for i in range(k):
            for j in range(k):
                d[i][j] = min(d[i][j], d[i][m] + d[m][j])
    return d


def _relabeled(d, perm):
    return [[d[i][j] for j in perm] for i in perm]


def _tight_span_op(kind, d, exact):
    return Op(kind, ("tight-span", "--metric", _dumps({"d": d})),
              {"d": d, "exact": exact}, digest=exact)


def _body_op(kind, subcommand, body):
    return Op(kind, (subcommand, "--body", _dumps(bod.body_to_json(body))), {})


def _bodies_span_sessions(rng):
    """The Archimedean mix, cheapest kinds first.

    Every input is a fixed instance, drawn from LAYOUT_SEED, moved by a
    seeded symmetry that leaves the answer's geometry unchanged: bodies and
    point sets by an orthogonal map, metrics by relabelling their points.
    Each seed thus asks for the same work in other coordinates.

    The counts place the median of a pass inside the 2D polytope Helly
    families (5 to 9 ms each) and the tail percentile inside the 2D SPD
    Helly families (100 to 170 ms), so neither lands on the edge between
    two kinds of op.  The 3D John and MVEE inputs are sized to stay above
    the median group; Gaussian MVEE clouds converge in a steady number of
    iterations, unlike points on a sphere.  No op takes much more than a
    tenth of a second, so a run repeats the pass often enough for every op
    to meet a quiet moment of the machine.
    """
    base = _rng(LAYOUT_SEED, _WORKLOAD_IDS["bodies-span"])
    ops = []
    for _ in range(14):
        d = _relabeled(_body_metric(base, 5), rng.permutation(5))
        f = [max(row) for row in d]
        ops.append(Op("extremal", ("extremal", "--metric", _dumps({"d": d}),
                                   "--f", _dumps(f)), {"d": d, "f": f}))
    for _ in range(12):
        verts = _polygon(base) @ _orthogonal(rng, 2).T
        ops.append(_body_op("john-2d", "john", bod.PolyNorm.from_vertices(verts)))
    for _ in range(12):
        q = _orthogonal(rng, 2)
        fam = [bod.PolyNorm.from_vertices(_polygon(base) @ q.T) for _ in range(4)]
        ops.append(_helly_bodies_op("helly-bodies-poly2d", fam))
    for _ in range(3):
        verts = _cloud3(base, 20) @ _orthogonal(rng, 3).T
        ops.append(_body_op("john-3d", "john", bod.PolyNorm.from_vertices(verts)))
        pts = (base.standard_normal((200, 3)) @ _orthogonal(rng, 3).T).tolist()
        ops.append(Op("mvee-3d", ("mvee", "--points", _dumps(pts)), {"points": pts}))
    for _ in range(2):
        d = _relabeled(_body_metric(base, 5), rng.permutation(5))
        ops.append(_tight_span_op("tight-span-float5", d, False))
        d = _relabeled(_int_metric(base, 4), rng.permutation(4))
        ops.append(_tight_span_op("tight-span-exact4", d, True))
    for _ in range(16):
        q = _orthogonal(rng, 2)
        fam = [_moved_spd(_spd_matrix(base, 2), q) for _ in range(4)]
        ops.append(_helly_bodies_op("helly-bodies-spd2d", fam))
    return [[op] for op in ops]


def check_john(doc):
    if doc["bound_check"] is not True or not doc["distance"] <= doc["bound"]:
        raise CheckFailed(f"John distance {doc['distance']} exceeds bound {doc['bound']}")


def check_mvee(doc, points):
    if not doc["epsilon"] <= 1e-6:
        raise CheckFailed(f"MVEE epsilon {doc['epsilon']} > 1e-6")
    a = np.array(doc["ellipsoid"]["matrix"], dtype=float)
    x = np.array(points, dtype=float)
    worst = float(np.max(np.sum((x @ a) * x, axis=1)))
    if not worst <= 1 + 1e-9:
        raise CheckFailed(f"a point lies outside the MVEE: x^T A x = {worst}")


def check_helly_bodies(doc, count):
    dists, allowed = doc["distances"], doc["allowed"]
    if len(dists) != count or len(allowed) != count:
        raise CheckFailed("one distance per ball expected")
    for s, (d, a) in enumerate(zip(dists, allowed)):
        if not d <= a:
            raise CheckFailed(f"witness at distance {d} > allowed {a} for ball {s}")


def _span_point_check(f, d, tol):
    """f is admissible and every point has a tight partner."""
    k = len(d)
    if len(f) != k:
        raise CheckFailed("function length does not match the metric")
    for i in range(k):
        slack = [f[i] + f[j] - d[i][j] for j in range(k)]
        if min(slack) < -tol:
            raise CheckFailed(f"f({i}) + f(j) < d({i}, j) for some j")
        if min(slack) > tol:
            raise CheckFailed(f"no tight partner for point {i}")


def check_tight_span(doc, d, exact):
    verts = doc["vertices"]
    if exact:
        tol = 0
        d = [[Fraction(x) for x in row] for row in d]
        verts = [[Fraction(x) for x in f] for f in verts]
    else:
        tol = FLOAT_TOL
    if doc["exact_mode"] is not exact:
        raise CheckFailed(f"exact_mode {doc['exact_mode']}, expected {exact}")
    for f in verts:
        _span_point_check(f, d, tol)
    for i, row in enumerate(d):
        if not any(max(abs(a - b) for a, b in zip(row, f)) <= tol for f in verts):
            raise CheckFailed(f"Kuratowski row {i} missing from the vertices")


def check_extremal(doc, d, f):
    closure = doc["closure"]
    if doc["is_extremal"] is not True:
        raise CheckFailed("closure reported as not extremal")
    _span_point_check(closure, d, FLOAT_TOL)
    if any(c > x + FLOAT_TOL for c, x in zip(closure, f)):
        raise CheckFailed("closure rises above the input function")


_MAKERS = {
    "ball": _ball_sessions,
    "helly-na": _helly_na_sessions,
    "bodies-span": _bodies_span_sessions,
}

_CHECKS = {
    "ball": check_ball,
    "helly-na": check_helly_na,
    "john": check_john,
    "mvee": check_mvee,
    "helly-bodies": check_helly_bodies,
    "tight-span": check_tight_span,
    "extremal": check_extremal,
}


def check(op, code, stdout):
    """Raise CheckFailed unless the op exited 0 with a verified payload."""
    if code != 0:
        raise CheckFailed(f"exit code {code}")
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"payload is not JSON: {exc}") from exc
    try:
        _CHECKS[op.argv[0]](doc, **op.expect)
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckFailed(f"malformed payload: {type(exc).__name__}: {exc}") from exc
