"""Archimedean norms on R^n as symmetric convex bodies.

Three representations: positive-definite quadratic forms (ellipsoid unit
balls), centrally symmetric polytopes (facets plus one vertex per antipodal
pair), and meets of scaled bodies (gauge max_k gauge(K_k) e^{-r_k}).
Each ellipsoid stores its Cholesky factor L, A = L L^T, and every ellipsoid
computation reads it: the gauge is |L^T x|, the distance of two ellipsoids
the largest |ln s| over the singular values s of the factor quotient
L_big^-1 L_small; other pairs use vertex/facet evaluations.  The John
ellipsoid is the polar of the minimum-volume ellipsoid of the polar
vertices, and the meet of a ball family, certified by its pairwise
distances, realizes the Helly property.

Structural tolerance is 1e-9, optimization tolerance 1e-6; exact rational
arithmetic is confined to normspace.polyhedra.
"""

import math

import numpy as np

from . import _kernels, polyhedra
from .errors import MALFORMED, Frozen, PairwiseRadiusError, UsageError, malformed

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


class SpdNorm(Frozen):
    """Euclidean norm v -> sqrt(v^T A v); unit ball {v^T A v <= 1}.

    `factor` is the lower Cholesky factor L of A = L L^T and `log_det`
    is ln det A; both are fixed at construction."""

    __slots__ = ("matrix", "factor", "log_det")

    def __init__(self, matrix):
        a = _finite(np.array(matrix, dtype=float), "SPD matrix entries")
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise UsageError("SPD matrix must be square")
        # halves overflow neither in a difference nor in a sum; an entry equal
        # to its transpose keeps its bits, however large or subnormal
        half = 0.5 * a
        if not np.all(np.abs(half - half.T) <= 0.5e-12):
            raise UsageError("SPD matrix must be symmetric within 1e-12")
        a = np.where(a == a.T, a, half + half.T)
        try:
            ell = np.linalg.cholesky(a)
        except np.linalg.LinAlgError:
            raise UsageError("SPD matrix must be positive definite") from None
        self._store(a, ell)

    def _store(self, a, ell):
        """Keep A and its lower factor L (positive diagonal), A = L L^T."""
        self._set(matrix=_readonly(a), factor=_readonly(ell),
                  log_det=2.0 * sum(map(math.log, ell.diagonal().tolist())))

    @property
    def dim(self):
        return self.matrix.shape[0]

    def __repr__(self):
        return f"SpdNorm(n={self.dim})"


class PolyNorm(Frozen):
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
        self._set(a=a, b=b, vertices=w)

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
        verts, keep = polyhedra.vertex_enum_exact(list(zip(a.tolist(), b.tolist())))
        return cls(a[keep], b[keep], [[float(x) for x in v] for v in verts])

    @classmethod
    def from_vertices(cls, vertices):
        """Build from vertex representatives; facets are enumerated exactly
        and non-extreme points are dropped."""
        w = _finite(np.atleast_2d(np.array(vertices, dtype=float)), "vertices")
        facets, keep = polyhedra.facet_enum_exact(w.tolist())
        fa = [[float(x) for x in a] for a, _ in facets]
        fb = [float(bb) for _, bb in facets]
        return cls(fa, fb, w[keep])


Body = (SpdNorm, PolyNorm)


class MeetNorm(Frozen):
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
        self._set(parts=parts, log_scales=scales)

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
        # |L^T x| with no square formed; reduced down the columns of L^T x^T
        out = np.hypot.reduce(body.factor.T @ x.T, axis=0, initial=0.0)
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


def _spd_pair_distance(k1, k2):
    """0.5 max |ln lam| over the pencil A_1 - lam A_2: the largest |ln s|
    over the singular values s of L_big^-1 L_small.

    The divisor L_big is the factor of larger determinant, ties going by
    the matrix bytes, so that d(a, b) and d(b, a) agree to the bit.  The
    factors span half the log range of the forms; a quotient beyond the
    float range is refused.
    """
    if (k1.log_det, k1.matrix.tobytes()) < (k2.log_det, k2.matrix.tobytes()):
        k1, k2 = k2, k1
    quot = np.linalg.solve(k1.factor, k2.factor)
    if np.isfinite(quot).all():
        s = np.linalg.svd(quot, compute_uv=False)  # descending
        if 0.0 < s[-1] and s[0] < math.inf:
            return max(math.log(s[0]), -math.log(s[-1]))
    raise UsageError("the SPD pencil must be finite: the two forms differ in "
                     "scale beyond the float range")


def _sup_gauge_over(body, other):
    """sup over the unit sphere of `other` of gauge(body), via closed forms."""
    if isinstance(other, PolyNorm):
        return float(np.max(gauge(body, other.vertices)))
    if isinstance(body, SpdNorm):
        raise AssertionError("spd/spd pairs use the factor quotient")
    # sup over {|L^T x| = 1} of |<a_i, x>| / b_i is |L^-1 a_i| / b_i
    z = np.linalg.solve(other.factor, body.a.T)
    return float(np.max(np.hypot.reduce(z, axis=0, initial=0.0) / body.b))


def gi_distance_bodies(k1, k2):
    """Goldman-Iwahori (log Banach-Mazur) distance between two bodies."""
    if k1.dim != k2.dim:
        raise UsageError("dimension mismatch")
    if isinstance(k1, MeetNorm) or isinstance(k2, MeetNorm):
        raise UsageError("no closed-form distance to a meet body")
    if isinstance(k1, SpdNorm) and isinstance(k2, SpdNorm):
        return _spd_pair_distance(k1, k2)
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        s12 = _sup_gauge_over(k1, k2)
        s21 = _sup_gauge_over(k2, k1)
    if not (0.0 < s12 < math.inf and 0.0 < s21 < math.inf):  # NaN fails too
        raise UsageError("the gauge ratios must be finite: the two bodies differ "
                         "in scale beyond the float range")
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
    (max_i w_i / n - 1, from the returned weights), the kernel's outer step
    count, and R and max_w with A = R^-1 R^-T / max_w.  All points are inside
    the returned ellipsoid exactly (up to float roundoff) and its volume is
    within (1+eps)^{n/2} of optimal.
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
    r = np.linalg.qr(pts[on] * np.sqrt(u[on])[:, None], mode="r")
    rinv = np.linalg.inv(r)
    w = np.sum((pts @ rinv) ** 2, axis=1)
    max_w = float(np.max(w))
    eps = max_w / n - 1.0
    if eps > OPT_TOL:
        raise RuntimeError(f"MVEE did not converge: eps={eps:.3e} after {iters} iterations")
    a = rinv @ rinv.T / max_w
    return SpdNorm(0.5 * (a + a.T)), {"eps": eps, "iterations": int(iters), "r": r, "max_w": max_w}


def john_details(body):
    """Maximal-volume inscribed ellipsoid E of a polytope norm K, with the
    check that certified it: {"ellipsoid": E, "distance": d(E, K),
    "bound": log sqrt(n) + 1e-6}.

    Computed as the polar of the MVEE of the polar's vertices: with the
    MVEE A = R^-1 R^-T / max_w, John's form is max_w R^T R, whose Cholesky
    factor is sqrt(max_w) R^T with its diagonal signs made positive.  The
    inscribed condition a_i^T A a_i <= b_i^2 (1+1e-6) and the distance bound
    d(E, K) <= log sqrt(n) + 1e-6 are verified before returning.
    """
    if not isinstance(body, PolyNorm):
        raise UsageError("John's ellipsoid needs a polytope body")
    n = body.dim
    outer, info = mvee_certified(body.a / body.b[:, None])
    a_out = outer.matrix
    vals = np.sum((body.a @ a_out) * body.a, axis=1)
    if np.any(vals > body.b ** 2 * (1 + OPT_TOL)):
        raise RuntimeError("inscribed ellipsoid escapes a facet")
    r, max_w = info["r"], info["max_w"]
    b_mat = max_w * (r.T @ r)
    john = object.__new__(SpdNorm)
    john._store(0.5 * (b_mat + b_mat.T), math.sqrt(max_w) * r.T * np.sign(np.diag(r)))
    d, bound = gi_distance_bodies(john, body), math.log(math.sqrt(n)) + OPT_TOL
    if not d <= bound:
        raise RuntimeError("John bound violated: MVEE certificate broken")
    return {"ellipsoid": john, "distance": d, "bound": bound}


def john_ellipsoid(body):
    """The John ellipsoid of a polytope norm, as certified by `john_details`."""
    return john_details(body)["ellipsoid"]


# ---------------------------------------------------------------------------
# the intersection witness
# ---------------------------------------------------------------------------

def coarse_helly_details(bodies, radii):
    """Intersection witness for balls of bodies, with verification data.

    The witness is the meet W of the balls e^{r_i} K_i, so W lies in each.
    As K_i lies in e^{d_ik} K_k, d(W, K_i) <= max(r_i, max_k d_ik - r_k):
    that bound is the returned distance, which the pairwise check holds
    within r_i + STRUCT_TOL.  Nothing but the pairwise distances is measured.
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
    # the diagonal term -r_i never exceeds r_i
    dists = np.maximum(radii, np.max(dmat - radii, axis=1)).tolist()
    allowed = [r + STRUCT_TOL for r in radii]
    for s, (d, a) in enumerate(zip(dists, allowed)):
        if not d <= a:
            raise RuntimeError(f"intersection witness escaped ball {s}: {d:.9g} > {a:.9g}")
    return {"witness": meet, "distances": dists, "allowed": allowed}


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


def refuse_booleans(doc):
    """doc, a JSON document, once no value in it is a boolean (TypeError):
    numpy would read true and false as 1 and 0."""
    if isinstance(doc, bool):
        raise TypeError(f"{doc!r} is not a number")
    for x in doc.values() if isinstance(doc, dict) else doc if isinstance(doc, list) else ():
        refuse_booleans(x)
    return doc


def body_from_json(obj):
    try:
        kind = refuse_booleans(obj)["kind"]
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
