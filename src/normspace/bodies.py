"""Archimedean norms on R^n as symmetric convex bodies.

Three representations: positive-definite quadratic forms (ellipsoid unit
balls), centrally symmetric polytopes (facets plus one vertex per antipodal
pair), and meets of scaled bodies (gauge max_k gauge(K_k) e^{-r_k}).
Distances use closed forms: generalized eigenvalues for ellipsoid pairs,
vertex/facet evaluations otherwise.  The John ellipsoid is the polar of the
minimum-volume ellipsoid of the polar vertices, and the meet of a ball
family, certified by its pairwise distances, realizes the Helly property.

Structural tolerance is 1e-9, optimization tolerance 1e-6; exact rational
arithmetic is confined to normspace.polyhedra.
"""

import math
from fractions import Fraction

import numpy as np

from . import _kernels, polyhedra
from .errors import MALFORMED, PairwiseRadiusError, UsageError, malformed

STRUCT_TOL = 1e-9
OPT_TOL = 1e-6
# Stopping rule of the MVEE kernel: eps <= MVEE_TOL or MVEE_MAX_ITER outer
# steps.  At m = 2000 points in R^4 on one core of a 2-core Xeon, an outer
# step (a line-search step, a support cut and a Newton solve) took at most
# 5.7 ms and a step of the Frank-Wolfe kernel this one replaced 0.13 ms, so
# the cap costs no more than the 2,000,000 steps that kernel was allowed.
MVEE_TOL = 1e-9
MVEE_MAX_ITER = 40_000
MAX_LOG_SCALE = math.log(np.finfo(float).max)


def _finite(arr, what):
    if not np.all(np.isfinite(arr)):
        raise UsageError(f"{what} must be finite")
    return arr


def _readonly(arr):
    arr = np.array(arr, dtype=float)
    arr.flags.writeable = False
    return arr


class SpdNorm:
    """Euclidean norm v -> sqrt(v^T A v); unit ball {v^T A v <= 1}."""

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        a = _finite(np.array(matrix, dtype=float), "SPD matrix entries")
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise UsageError("SPD matrix must be square")
        if not np.all(np.abs(a - a.T) <= 1e-12):
            raise UsageError("SPD matrix must be symmetric within 1e-12")
        a = 0.5 * (a + a.T)
        if np.linalg.eigvalsh(a).min() <= 0:
            raise UsageError("SPD matrix must be positive definite")
        object.__setattr__(self, "matrix", _readonly(a))

    def __setattr__(self, *a):
        raise AttributeError("SpdNorm is immutable")

    @property
    def dim(self):
        return self.matrix.shape[0]

    def __repr__(self):
        return f"SpdNorm(n={self.dim})"


class PolyNorm:
    """Polytope norm: facets |<a_i, x>| <= b_i plus vertex representatives."""

    __slots__ = ("a", "b", "vertices")

    def __init__(self, facets_a, facets_b, vertices):
        a = _readonly(np.atleast_2d(facets_a))
        b = _readonly(np.ravel(np.array(facets_b, dtype=float)))
        w = _readonly(np.atleast_2d(vertices))
        if a.shape[0] != b.shape[0]:
            raise UsageError("facet normals and offsets disagree in length")
        if a.shape[1] != w.shape[1]:
            raise UsageError("facet/vertex dimension mismatch")
        for arr in (a, b, w):
            _finite(arr, "polytope entries")
        if np.any(b <= 0):
            raise UsageError("facet offsets must be positive")
        n = a.shape[1]
        if np.linalg.matrix_rank(w, tol=1e-9) < n:
            raise UsageError("vertices do not span: empty interior")
        vals = np.abs(w @ a.T) / b  # (k, m)
        if np.any(vals > 1 + STRUCT_TOL):
            raise UsageError("a vertex violates a facet beyond 1e-9")
        if np.any(vals.max(axis=0) < 1 - STRUCT_TOL):
            raise UsageError("a facet is unsupported by every vertex")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "vertices", w)

    def __setattr__(self, *a):
        raise AttributeError("PolyNorm is immutable")

    @property
    def dim(self):
        return self.a.shape[1]

    def __repr__(self):
        return f"PolyNorm(n={self.dim}, facets={len(self.b)}, vertices={len(self.vertices)})"

    @classmethod
    def from_facets(cls, facets_a, facets_b):
        """Build from halfspaces alone; vertices are enumerated exactly and
        redundant facets are dropped."""
        a = _finite(np.atleast_2d(np.array(facets_a, dtype=float)), "facet normals")
        b = _finite(np.ravel(np.array(facets_b, dtype=float)), "facet offsets")
        fr = [
            (tuple(Fraction(x) for x in row), Fraction(float(off)))
            for row, off in zip(a, b)
        ]
        verts, keep = polyhedra.vertex_enum_exact(fr)
        return cls(a[keep], b[keep], [[float(x) for x in v] for v in verts])

    @classmethod
    def from_vertices(cls, vertices):
        """Build from vertex representatives; facets are enumerated exactly
        and non-extreme points are dropped."""
        w = _finite(np.atleast_2d(np.array(vertices, dtype=float)), "vertices")
        fr = [tuple(Fraction(x) for x in row) for row in w]
        facets, keep = polyhedra.facet_enum_exact(fr)
        fa = [[float(x) for x in a] for a, _ in facets]
        fb = [float(bb) for _, bb in facets]
        return cls(fa, fb, w[keep])


Body = (SpdNorm, PolyNorm)


class MeetNorm:
    """Meet of scaled bodies: unit ball the intersection of the e^{r_k} K_k,
    gauge x -> max_k gauge(K_k, x) e^{-r_k}."""

    __slots__ = ("parts", "log_scales")

    def __init__(self, parts, log_scales):
        parts = tuple(parts)
        scales = tuple(float(r) for r in log_scales)
        if not parts or len(parts) != len(scales):
            raise UsageError("a meet needs at least one body and one radius per body")
        # the meet scales body k by e^{r_k}, which must be a finite float
        if not all(0 <= r <= MAX_LOG_SCALE for r in scales):
            raise UsageError("radii (log scales) must be finite, nonnegative and at "
                             f"most log(max float) = {MAX_LOG_SCALE:.2f}")
        if not all(isinstance(p, Body) for p in parts):
            raise UsageError("meet parts must be ellipsoids or polytopes")
        if any(p.dim != parts[0].dim for p in parts):
            raise UsageError("dimension mismatch among the meet's bodies")
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "log_scales", scales)

    def __setattr__(self, *a):
        raise AttributeError("MeetNorm is immutable")

    @property
    def dim(self):
        return self.parts[0].dim

    def __repr__(self):
        return f"MeetNorm(n={self.dim}, parts={len(self.parts)})"


def gauge(body, v):
    """Minkowski gauge of the body at v (vectorized over rows of v)."""
    x = np.atleast_2d(np.array(v, dtype=float))
    if x.shape[1] != body.dim:
        raise UsageError("direction dimension mismatch")
    if isinstance(body, MeetNorm):
        out = np.max([gauge(p, x) * math.exp(-r)
                      for p, r in zip(body.parts, body.log_scales)], axis=0)
    elif isinstance(body, SpdNorm):
        out = _kernels.spd_gauge_batch(body.matrix, x)
    else:
        out = _kernels.poly_gauge_batch(body.a, 1.0 / body.b, x)
    return float(out[0]) if np.ndim(v) == 1 else out


def polar(body):
    """Polar polytope: facets and vertices swap ((a, b) <-> a/b)."""
    if not isinstance(body, PolyNorm):
        raise UsageError("polar expects a PolyNorm")
    new_facets = body.vertices
    new_b = np.ones(len(body.vertices))
    new_vertices = body.a / body.b[:, None]
    return PolyNorm(new_facets, new_b, new_vertices)


def _spd_pair_distance(a1, a2):
    """0.5 max |log lam| over the pencil a1 - lam a2, whitened by a2, or by
    a1 when that overflows: the eigenvalues invert and the distance stays.

    When both whitenings fail, a1 is scaled by 2^k, with k centering the
    log2 ratios of the diagonals, and k ln 2 comes off the logs: pencils
    whose spectrum fits the float range only once centered, such as
    diag(1e-200, 1) against diag(1e200, 1), are answered.  Wider ones are
    refused with the first attempt's error.
    """
    try:
        return _whitened_distance(a1, a2, 0)
    except UsageError as exc:
        r = np.log2(np.diag(a1)) - np.log2(np.diag(a2))  # SPD diagonals are positive
        k = -round(0.5 * float(r.max() + r.min()))
        scaled = np.ldexp(a1, k)
        if k == 0 or not np.all(np.isfinite(scaled)):
            raise
        try:
            return _whitened_distance(scaled, a2, k)
        except UsageError:
            raise exc from None


def _whitened_distance(a1, a2, k):
    """`_spd_pair_distance` of a1 / 2^k and a2, given a1 and a2."""
    for a, b, sign in ((a1, a2, 1), (a2, a1, -1)):
        ell = np.linalg.cholesky(b)
        s = np.linalg.solve(ell, a)
        mid = np.linalg.solve(ell, s.T).T
        if np.all(np.isfinite(mid)):  # eigvalsh would turn an overflow into NaN
            break
    else:
        raise UsageError("the SPD pencil must be finite: the two forms differ in "
                         "scale beyond the float range")
    lam = np.linalg.eigvalsh(0.5 * (mid + mid.T))
    if lam.min() <= 0:
        raise UsageError("singular pencil: inputs are not both SPD")
    logs = np.log(lam)
    if k:  # whitened by a2 the eigenvalues carry 2^k, by a1 they carry 2^-k
        logs -= sign * k * math.log(2)
    return 0.5 * float(np.max(np.abs(logs)))


def _sup_gauge_over(body, other):
    """sup over the unit sphere of `other` of gauge(body), via closed forms."""
    if isinstance(other, PolyNorm):
        return float(np.max(gauge(body, other.vertices)))
    # other is an ellipsoid: sup over {x^T A x = 1} of gauge(body, x)
    ainv = np.linalg.inv(other.matrix)
    if isinstance(body, SpdNorm):
        raise AssertionError("spd/spd pairs use the eigenvalue route")
    return float(np.max(_kernels.spd_gauge_batch(ainv, body.a) / body.b))


def gi_distance_bodies(k1, k2):
    """Goldman-Iwahori (log Banach-Mazur) distance between two bodies."""
    if k1.dim != k2.dim:
        raise UsageError("dimension mismatch")
    if isinstance(k1, MeetNorm) or isinstance(k2, MeetNorm):
        raise UsageError("no closed-form distance to a meet body")
    if isinstance(k1, SpdNorm) and isinstance(k2, SpdNorm):
        # one canonical order, so that d(a, b) and d(b, a) agree to the bit
        return _spd_pair_distance(*sorted((k1.matrix, k2.matrix), key=np.ndarray.tobytes))
    s12 = _sup_gauge_over(k1, k2)
    s21 = _sup_gauge_over(k2, k1)
    return max(math.log(s12), math.log(s21))


def sampled_sup_ratio(k1, k2, n_samples, seed):
    """Lower bound for the distance from seeded unit directions (PCG64)."""
    if k1.dim != k2.dim:
        raise UsageError("dimension mismatch")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([int(seed)])))
    dirs = rng.standard_normal((int(n_samples), k1.dim))
    norms = np.linalg.norm(dirs, axis=1)
    ok = norms > 1e-12
    dirs = dirs[ok] / norms[ok, None]
    g1 = gauge(k1, dirs)
    g2 = gauge(k2, dirs)
    return float(np.max(np.abs(np.log(g1) - np.log(g2))))


# ---------------------------------------------------------------------------
# minimum-volume enclosing ellipsoid and the John ellipsoid
# ---------------------------------------------------------------------------

def mvee_certified(points):
    """MVEE of a symmetric point set with its optimality certificate.

    Returns (SpdNorm, info) where info carries the achieved eps
    (max_i w_i / n - 1, from the returned weights) and the kernel's outer
    step count.  All points are inside the returned ellipsoid exactly (up to
    float roundoff) and its volume is within (1+eps)^{n/2} of optimal.
    """
    pts = _finite(np.array(points, dtype=float), "MVEE points")
    if pts.ndim != 2 or pts.size == 0:
        raise UsageError("MVEE points must be a nonempty list of vectors")
    with np.errstate(over="ignore"):  # an overflow is refused just below
        _finite(pts.T @ pts, "products of MVEE point coordinates")
    m, n = pts.shape
    if np.linalg.matrix_rank(pts, tol=1e-12) < n:
        raise UsageError("points do not span: degenerate MVEE input")
    u, iters, _ = _kernels.mvee_weights(np.ascontiguousarray(pts), MVEE_TOL, MVEE_MAX_ITER)
    # M(u) = R^T R from the weighted support, so w_i = |x_i^T R^{-1}|^2 is
    # accurate to cond(R), not cond(M), times the unit roundoff
    on = u > 0.0
    rinv = np.linalg.inv(np.linalg.qr(pts[on] * np.sqrt(u[on])[:, None], mode="r"))
    w = np.sum((pts @ rinv) ** 2, axis=1)
    eps = float(np.max(w)) / n - 1.0
    if eps > OPT_TOL:
        raise RuntimeError(f"MVEE did not converge: eps={eps:.3e} after {iters} iterations")
    a = rinv @ rinv.T / float(np.max(w))
    return SpdNorm(0.5 * (a + a.T)), {"eps": eps, "iterations": int(iters)}


def john_ellipsoid(body):
    """Maximal-volume inscribed ellipsoid of a polytope norm.

    Computed as the polar of the MVEE of the polar's vertices; the inscribed
    condition a_i^T Q a_i <= b_i^2 (1+1e-6) and the distance bound
    d(E, K) <= log sqrt(n) + 1e-6 are verified before returning.
    """
    if not isinstance(body, PolyNorm):
        raise UsageError("john_ellipsoid expects a PolyNorm")
    n = body.dim
    outer, info = mvee_certified(body.a / body.b[:, None])
    a_out = outer.matrix
    vals = np.sum((body.a @ a_out) * body.a, axis=1)
    if np.any(vals > body.b ** 2 * (1 + OPT_TOL)):
        raise RuntimeError("inscribed ellipsoid escapes a facet")
    b_mat = np.linalg.inv(a_out)
    john = SpdNorm(0.5 * (b_mat + b_mat.T))
    if not gi_distance_bodies(john, body) <= math.log(math.sqrt(n)) + OPT_TOL:
        raise RuntimeError("John bound violated: MVEE certificate broken")
    return john


# ---------------------------------------------------------------------------
# the intersection witness
# ---------------------------------------------------------------------------

def coarse_helly_details(bodies, radii):
    """Intersection witness for balls of bodies, with verification data.

    The witness is the meet W of the balls e^{r_i} K_i, so W lies in each.
    As K_i lies in e^{d_ik} K_k, d(W, K_i) <= max(r_i, max_k d_ik - r_k),
    which the pairwise check holds within r_i + STRUCT_TOL.  A polytope-only
    meet is enumerated exactly into a polytope, and its distances measured
    within r_i + OPT_TOL.
    """
    meet = MeetNorm(bodies, radii)  # checks the family and its radii
    bodies, radii = meet.parts, meet.log_scales
    dmat = np.zeros((len(bodies), len(bodies)))
    for s in range(len(bodies)):
        for t in range(s + 1, len(bodies)):
            d = gi_distance_bodies(bodies[s], bodies[t])
            if not d <= radii[s] + radii[t] + STRUCT_TOL:  # NaN fails too
                raise PairwiseRadiusError(
                    (s, t), d - radii[s] - radii[t],
                    f"bodies {s} and {t}: d = {d:.9g} exceeds "
                    f"{radii[s]:.9g} + {radii[t]:.9g}",
                )
            dmat[s, t] = dmat[t, s] = d
    if any(isinstance(b, SpdNorm) for b in bodies):
        witness = meet
        # the diagonal term -r_i never exceeds r_i
        dists = np.maximum(radii, np.max(dmat - radii, axis=1)).tolist()
        allowed = [r + STRUCT_TOL for r in radii]
    else:
        with np.errstate(over="ignore"):  # an overflow is refused just below
            pooled_b = np.concatenate([b.b * math.exp(r) for b, r in zip(bodies, radii)])
        if not np.all(np.isfinite(pooled_b)):
            raise UsageError("radii too large: a scaled facet offset b e^r overflows a float")
        witness = PolyNorm.from_facets(np.vstack([b.a for b in bodies]), pooled_b)
        dists = [gi_distance_bodies(witness, b) for b in bodies]
        allowed = [r + OPT_TOL for r in radii]
    for s, (d, a) in enumerate(zip(dists, allowed)):
        if not d <= a:
            raise RuntimeError(f"intersection witness escaped ball {s}: {d:.9g} > {a:.9g}")
    return {"witness": witness, "distances": dists, "allowed": allowed}


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------

def body_to_json(body):
    if isinstance(body, MeetNorm):
        return {"kind": "meet", "parts": [body_to_json(p) for p in body.parts],
                "log_scales": list(body.log_scales)}
    if isinstance(body, SpdNorm):
        return {"kind": "spd", "matrix": [[float(x) for x in row] for row in body.matrix]}
    return {
        "kind": "polytope",
        "facets": [
            {"a": [float(x) for x in a], "b": float(b)}
            for a, b in zip(body.a, body.b)
        ],
        "vertices": [[float(x) for x in w] for w in body.vertices],
    }


def body_from_json(obj):
    try:
        kind = obj["kind"]
        if kind == "spd":
            return SpdNorm(obj["matrix"])
        if kind == "polytope":
            fa = [f["a"] for f in obj["facets"]]
            fb = [f["b"] for f in obj["facets"]]
            return PolyNorm(fa, fb, obj["vertices"])
        if kind == "meet":
            return MeetNorm([body_from_json(p) for p in obj["parts"]], obj["log_scales"])
    except MALFORMED as exc:
        raise malformed("bad body JSON", exc) from exc
    raise UsageError(f"unknown body kind {obj.get('kind')!r}")
