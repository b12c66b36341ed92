"""Integer-weight vertices of the extended building of GL(n, Q_p).

A vertex is an ultrametric norm with values in q^Z, i.e. a lattice over the
localization Z_(p).  The thickening graph puts an edge between vertices at
Goldman-Iwahori distance exactly 1; its combinatorial balls are certified
against the exact metric, and small Helly instances can be checked
exhaustively.  Enumeration is limited to n <= 3, p <= 3 and |weights| <= 100.
A vertex's key is the plain integer tuple (p, s, rows), rows / p^s being its
Hermite form.  The key's text (`_key_text`, e.g. p2:1,0;0,1/4) is the
vertex's printed form, and it is accepted as input: `LatticeVertex.from_json`
reads it as the lattice on the columns of its rows.  Keys, Hermite forms,
neighbour bases, the depth audit and the JSON of a neighbour are all computed
on integers: a neighbour is its key alone, and builds its Fraction norm only
when something reads it.  The neighbours of every vertex come from one cached
list per (n, p) of the integer Hermite forms between p^2 Z^n and Z^n, listed
directly by diagonal and reduced entries.  A ball keys its center once; every
other vertex is reached in its own Hermite basis K, and its children K F / p
are in Hermite form after a reduction with no pivot search.  So a vertex
prints the same bytes in every ball, whatever basis the center was given in.
Each ball is audited against the exact metric, from the center's given basis,
and its size against Birkhoff's count of the submodules of (Z/p^{2r})^n.  A
vertex's neighbours are its radius-1 ball after the center, so they are
audited the same way.
"""

import functools
import itertools
import math
import operator
from fractions import Fraction

from . import qlinalg
from .errors import MALFORMED, Frozen, InfeasibleScaleError, UsageError, malformed
from .valued import DiagNorm, gi_distance, helly_witness_na, norm_json, pval_int, ratio_texts

MAX_DIM = 3
MAX_PRIME = 3
MAX_WEIGHT = 100  # lattice entries carry p^m: the cap bounds their size
MAX_BALL = 2 ** 17  # ball vertices: admits (n, p, r) = (3, 2, 3) with 108,325, refuses (2, 3, 5)


def _hermite(cols, p):
    """Z_(p) Hermite form (its n columns) of integer columns spanning a lattice.

    Bottom-up pivoting on the least valuation by fraction-free operations
    u*col - (w/p^a)*pcol (pivot entry p^a u), each changed column divided by
    its content prime to p.  The lattice contains p^K Z_(p)^n, K = sum a_i,
    so diagonal units are inverted mod p^K (modular HNF: Domich-Kannan-Trotter
    1987; Cohen 1993, 2.4), and entries above pivot p^{a_i} go into [0, p^{a_i}).
    """
    n = len(cols[0])
    work = [list(c) for c in cols]
    placed = [None] * n
    exps = [0] * n
    for row in range(n - 1, -1, -1):
        nonzero = [(pval_int(col[row], p), k) for k, col in enumerate(work) if col[row]]
        if not nonzero:
            raise UsageError("columns do not span a full lattice")
        exps[row], k = min(nonzero)
        pcol = placed[row] = work.pop(k)
        pa = p ** exps[row]
        u = pcol[row] // pa
        for k, col in enumerate(work):
            w = col[row] // pa  # exact: the pivot has the least valuation
            if w:
                col = [u * x - w * y for x, y in zip(col, pcol)]
                g = math.gcd(*col)
                while g and g % p == 0:
                    g //= p
                work[k] = [x // g for x in col] if g > 1 else col
    mod = p ** sum(exps)
    for j, col in enumerate(placed):
        t = pow(col[j] // p ** exps[j], -1, mod)
        col = [t * x % mod for x in col]
        col[j] = p ** exps[j]
        placed[j] = _reduce(col, placed[:j])  # columns i < j are already in final form
    return placed


def _reduce(col, done):
    """col with each entry i < len(done) taken into [0, done[i][i]) by
    subtracting multiples of the column done[i], bottom up: the last stage of
    a Hermite form whose columns done are final."""
    for i in range(len(done) - 1, -1, -1):
        o = done[i]
        q = col[i] // o[i]
        if q:
            col = [x - q * y for x, y in zip(col, o)]
    return col


def _lattice_key(p, rows, s):
    """Canonical key (p, s, rows) of the lattice whose Hermite form is rows / p^s.

    `rows` are row-major integers and s is made the least exponent that keeps
    them integral, so two lattices are equal exactly when their keys are.
    """
    t = pval_int(math.gcd(*itertools.chain.from_iterable(rows)), p)
    if t:
        rows, s = tuple(tuple(x // p ** t for x in row) for row in rows), s - t
    return p, s, rows


def _key_text(key):
    """The key as text: p, then the Hermite form's rational rows, e.g. p2:1,0;0,1/4."""
    p, s, rows = key
    mul, den = (1, p ** s) if s > 0 else (p ** -s, 1)
    return f"p{p}:" + ";".join(",".join(ratio_texts([x * mul for x in row], den)) for row in rows)


def _key_order(key):
    """Sort key ordering lattice keys as (p, rational Hermite form rows)."""
    p, s, rows = key
    den = Fraction(p) ** s
    return p, tuple(tuple(x / den for x in row) for row in rows)


def _key_norm(text):
    """The norm with weights 0 on the columns of the rows of key text as
    `_key_text` prints it, in ASCII digits.  Other text, and rows that are
    not square or are singular, are a UsageError."""
    import re  # loaded with argparse and json: no cost to a fresh process
    if not re.fullmatch(r"p\d+:-?\d+(/\d+)?([,;]-?\d+(/\d+)?)*", text, re.ASCII):
        raise UsageError(f"bad vertex key {text[:40]!r}: expected p<prime>:<rows>")
    head, body = text[1:].split(":")
    rows = [row.split(",") for row in body.split(";")]
    try:
        return DiagNorm(int(head), rows, [0] * len(rows))
    except MALFORMED as exc:
        raise malformed("bad vertex key", exc) from exc


class LatticeVertex(Frozen):
    """A norm with integer weights, canonicalized as a Z_(p)-lattice.

    The key text (`key_string`) is the vertex's printed form, and
    `from_json` reads it back.  A vertex made by `neighbors` or `ball_bfs`
    holds only its key: its basis is its Hermite form with weights 0, and
    its norm is built the first time it is read.
    """

    __slots__ = ("_norm", "_key", "_ctx", "_lattice")

    def __init__(self, norm):
        if norm._w[1] != 1:
            raise UsageError("vertex weights must be integers")
        self._set(_norm=norm, _key=None, _ctx=norm.ctx, _lattice=None)

    @classmethod
    def _lazy(cls, key, ctx):
        """The vertex with key `key`, weights 0 on its Hermite basis."""
        self = object.__new__(cls)
        self._set(_norm=None, _key=key, _ctx=ctx, _lattice=None)
        return self

    @property
    def norm(self):
        if self._norm is None:
            cols, den = self.lattice_ints()
            self._set(_norm=DiagNorm._of_ints(self._ctx, cols, den, (0,) * len(cols), 1))
        return self._norm

    @property
    def ctx(self):
        return self._ctx

    @property
    def dim(self):
        return len(self._key[2]) if self._norm is None else self._norm.dim

    def lattice_ints(self):
        """(cols, den): column j of cols / den is p^{m_j} times basis vector j.
        A lazy vertex's are its key's Hermite rows, built on each read."""
        if self._lattice is None:
            if self._norm is None:
                p, s, rows = self._key
                if s >= 0:
                    return list(zip(*rows)), p ** s
                return [[x * p ** -s for x in col] for col in zip(*rows)], 1
            p, (b_int, den, _, _), (w, _) = self.ctx.p, self._norm._ints, self._norm._w
            if max(map(abs, w)) > MAX_WEIGHT:
                raise InfeasibleScaleError(f"vertex weights are limited to |m| <= {MAX_WEIGHT}")
            s = max(0, -min(w))  # the basis times p^m is B_int p^(m + s) / (D p^s)
            cols = [[x * p ** (m + s) for x in col] for col, m in zip(zip(*b_int), w)]
            self._set(_lattice=(cols, den * p ** s))
        return self._lattice

    @property
    def canonical_key(self):
        if self._key is None:
            p, (cols, den) = self.ctx.p, self.lattice_ints()
            self._set(_key=_lattice_key(p, tuple(zip(*_hermite(cols, p))), pval_int(den, p)))
        return self._key

    @property
    def key_string(self):
        return _key_text(self.canonical_key)

    def __eq__(self, other):
        return isinstance(other, LatticeVertex) and self.canonical_key == other.canonical_key

    def __hash__(self):
        return hash(self.canonical_key)

    def __repr__(self):
        return f"LatticeVertex({self.key_string})"

    @classmethod
    def standard(cls, ctx, n):
        return cls(DiagNorm.standard(ctx, [0] * n))

    def to_json(self):
        if self._norm is not None:
            return self._norm.to_json()
        cols, den = self.lattice_ints()
        return norm_json(self.ctx.p, cols, den, [0] * len(cols), 1)

    @classmethod
    def from_json(cls, obj):
        """A vertex from its norm JSON, or from its key text."""
        return cls(_key_norm(obj) if type(obj) is str else DiagNorm.from_json(obj))


@functools.cache
def _standard_forms(n, p):
    """Integer Hermite forms H (as column lists) with p^2 Z^n ⊆ H Z^n ⊆ Z^n.

    Each is p H_s for one lattice pZ^n ⊆ H_s Z^n ⊆ p^{-1}Z^n, i.e. one
    submodule of (Z/p^2)^n.  Such an H has diagonal p^{a_i}, a_i in {0, 1, 2},
    and entries above pivot i in [0, p^{a_i}); a candidate is kept exactly
    when it is the Hermite form of p^2 Z^n + H Z^n.
    """
    eye = [[p * p * (i == j) for i in range(n)] for j in range(n)]
    above = [(i, j) for j in range(n) for i in range(j)]
    forms = []
    for exps in itertools.product(range(3), repeat=n):
        for entries in itertools.product(*(range(p ** exps[i]) for i, _ in above)):
            h = [[p ** exps[j] * (i == j) for i in range(n)] for j in range(n)]
            for (i, j), x in zip(above, entries):
                h[j][i] = x
            if _hermite(eye + h, p) == h:
                forms.append(h)
    return forms


def _frame_product(b, form):
    """The Hermite form of b·form, for integer column lists b and form.

    Both are upper triangular with p-power diagonals, so their product is
    too: its Hermite form reduces each column by the earlier, already reduced
    ones (`_reduce`), with no pivot search.  b need not be reduced itself.
    With b a vertex's Hermite form, this is the form of one child.
    """
    key = []
    for fc in form:
        col = None  # the columns of b that fc combines, fc[j] != 0 among them
        for bk, f in zip(b, fc):
            if not f:
                continue
            if col is None:
                col = bk if f == 1 else [x * f for x in bk]
            else:
                col = [x + y * f for x, y in zip(col, bk)]
        key.append(tuple(_reduce(col, key)))
    return tuple(key)


def neighbors(vertex):
    """All vertices at Goldman-Iwahori distance exactly 1, in key order: the
    radius-1 ball of `ball_bfs` after its center, with its depth audit and
    Birkhoff's count.

    These are the lattices L' with pL ⊆ L' ⊆ p^{-1}L other than L itself,
    one per listed form p H_s (see _standard_forms), each in its own
    Hermite basis.
    """
    return tuple(u for u, _ in itertools.islice(ball_bfs(vertex, 1).values(), 1, None))


def _cross(a, b):
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def _det_minors(x):
    """(det X, gcd of the (n-1)-minors of X) for a square integer matrix X, n <= 3.

    The minors are the entries of adj(X): 1 at n = 1, X's own entries at
    n = 2, and the cross products of pairs of rows at n = 3.
    """
    if len(x) == 1:
        return x[0][0], 1
    if len(x) == 2:
        (a, b), (c, d) = x
        return a * d - b * c, math.gcd(a, b, c, d)
    r0, r1, r2 = x
    cof = _cross(r1, r2)
    return sum(map(operator.mul, r0, cof)), math.gcd(*cof, *_cross(r2, r0), *_cross(r0, r1))


def _distance_from(center):
    """V -> the exact Goldman-Iwahori distance d(center, V), on integers, n <= 3.

    With lattice bases C = C_int / c, V = V_int / e and Bareiss giving
    M_C = d_C C_int^{-1}, let X = M_C V_int.  Then C^{-1}V = c X / (d_C e)
    and V^{-1}C = e d_C adj(X) / (c det X), and the distance is the larger
    of their -v_p; v_p of a matrix is v_p of the gcd of its entries, and
    adj(X) has the (n-1)-minors of X as entries (`_det_minors`).  One
    product per vertex and no elimination past the center's.
    """
    p = center.ctx.p
    c_cols, c = center.lattice_ints()
    n = len(c_cols)
    d_c, out = qlinalg.bareiss([list(r) + [int(i == j) for j in range(n)]
                                for i, r in enumerate(zip(*c_cols))])
    m_c = [r[n:] for r in out]
    shift = pval_int(d_c, p) - pval_int(c, p)

    def dist(vertex):
        cols, e = vertex.lattice_ints()
        x = [[sum(map(operator.mul, row, col)) for col in cols] for row in m_c]
        det, h = _det_minors(x)
        v_e = pval_int(e, p)
        g = math.gcd(*itertools.chain.from_iterable(x))
        return max(shift + v_e - pval_int(g, p), pval_int(det, p) - pval_int(h, p) - v_e - shift)

    return dist


def ball_sizes(n, p, radius):
    """[|B(L, r)| for r = 0, ..., radius] in the thickening graph of
    GL(n, Q_p), for any vertex L; a ball of more than MAX_BALL vertices is
    refused (InfeasibleScaleError) as soon as it is counted.

    The ball is the lattices L' with p^r L ⊆ L' ⊆ p^{-r} L, i.e. the
    submodules of (Z/p^{2r})^n.  Birkhoff's count (Birkhoff 1935; Butler
    1994) sums, over the partitions mu with at most n parts each at most 2r,
    prod_{i=1}^{2r} p^{mu'_{i+1} (n - mu'_i)} [n - mu'_{i+1} choose
    mu'_i - mu'_{i+1}]_p, with mu' the conjugate partition (n >= mu'_1 >= ...
    >= mu'_{2r} >= 0) and mu'_{2r+1} = 0.  A factor depends on one step of
    the chain mu', so the sum is a power of the step matrix: O(r n^2) in all.
    """
    def gauss(m, k):  # [m choose k]_p, the k-dimensional subspaces of F_p^m
        return (math.prod(p ** (m - i) - 1 for i in range(k))
                // math.prod(p ** i - 1 for i in range(1, k + 1)))

    step = [[p ** (b * (n - a)) * gauss(n - b, a - b) for b in range(a + 1)]
            for a in range(n + 1)]
    chains, sizes = [1] + [0] * n, [1]  # chains by first entry a: a >= ... >= 0
    while len(sizes) <= radius:
        for _ in range(2):
            chains = [sum(map(operator.mul, row, chains)) for row in step]
        sizes.append(sum(chains))
        if sizes[-1] > MAX_BALL:
            raise InfeasibleScaleError(f"balls are limited to {MAX_BALL} vertices; at n={n}, "
                                       f"p={p} the ball of radius {len(sizes) - 1} has {sizes[-1]}")
    return sizes


def ball_bfs(center, radius):
    """BFS ball in the thickening graph, certified against the exact metric.

    The center is keyed once (`_hermite`).  A vertex with Hermite form
    K = K_int / p^s has as neighbours the lattices between pL and p^{-1}L,
    i.e. K_int F / p^{s+1} for the forms F = p H_s (`_standard_forms`); since
    K_int and F are triangular with p-power diagonals, `_frame_product`
    returns each child's Hermite form with no pivot search.  A child whose
    key is new is a vertex of the ball, holding only that key, and the new
    children of one vertex are added in the keys' rational order.  Then
    every vertex but the center has its BFS depth checked against its exact
    distance to the center, from the center's given basis, on integers
    (`_distance_from`), and each sphere's size against Birkhoff's count
    (`ball_sizes`); a mismatch is fatal.  Distinct keys, each at its depth,
    as many per sphere as the ball has, are exactly the ball.  A ball that
    the count puts over MAX_BALL vertices is refused before any vertex is
    built.  Returns {canonical_key: (vertex, depth)}.
    """
    if radius < 0:
        raise UsageError("radius must be nonnegative")
    if not radius:  # the center alone, in any dimension
        return {center.canonical_key: (center, 0)}
    n, p = center.dim, center.ctx.p
    if n > MAX_DIM or p > MAX_PRIME:
        raise InfeasibleScaleError(f"neighbor enumeration is limited to n <= {MAX_DIM}, "
                                   f"p <= {MAX_PRIME} (requested n={n}, p={p})")
    sizes = ball_sizes(n, p, radius)

    ctx, forms = center.ctx, _standard_forms(n, p)
    found = {center.canonical_key: (center, 0)}
    frontier = [center.canonical_key]
    for depth in range(1, radius + 1):
        nxt = []
        for _, s, rows in frontier:
            cols = list(zip(*rows))
            kids = []
            for form in forms:
                frame = tuple(zip(*_frame_product(cols, form)))
                key = _lattice_key(p, frame, s + 1)
                if key not in found:
                    kids.append((frame, key))
            # distinct forms give distinct lattices, and all frames share the
            # exponent s + 1, so this is the keys' rational order (_key_order)
            kids.sort()
            for _, key in kids:
                found[key] = (LatticeVertex._lazy(key, ctx), depth)
            if depth < radius:
                nxt += (key for _, key in kids)
        frontier = nxt
    dist = _distance_from(center)
    for v, depth in itertools.islice(found.values(), 1, None):
        if dist(v) != depth:
            raise RuntimeError(
                "BFS depth disagrees with the metric at "
                f"{v.key_string}: depth {depth}"
            )
    spheres = [0] * (radius + 1)
    for _, depth in found.values():
        spheres[depth] += 1
    for depth, size in enumerate(spheres):
        want = sizes[depth] - (sizes[depth - 1] if depth else 0)
        if size != want:
            raise RuntimeError(
                f"the sphere of radius {depth} has {size} vertices, Birkhoff's count {want}"
            )
    return found


class BallCertificate:
    """Outcome of a Helly check over a family of combinatorial balls;
    `outcome` is "witness" or "empty".  Compared by value, so unhashable."""

    __hash__ = None

    def __init__(self, centers, radii, mode, outcome, witness=None, offending_pair=None,
                 stats=None):
        self.centers, self.radii, self.mode, self.outcome = centers, radii, mode, outcome
        self.witness, self.offending_pair = witness, offending_pair
        self.stats = {} if stats is None else stats

    def __eq__(self, other):
        return vars(self) == vars(other) if other.__class__ is self.__class__ else NotImplemented

    def to_json(self):
        return {
            "schema_version": 1,
            "mode": self.mode,
            "outcome": self.outcome,
            "radii": [int(r) for r in self.radii],
            "centers": [c.to_json() for c in self.centers],
            "witness": None if self.witness is None else self.witness.to_json(),
            "offending_pair": (
                None if self.offending_pair is None else list(self.offending_pair)
            ),
            "stats": self.stats,
        }


def helly_check_building(family, mode="witness"):
    """Check that a family of balls has a common vertex.

    family: list of (LatticeVertex, integer radius) pairs.
    Witness mode builds the join witness, whose memberships
    ``helly_witness_na`` certifies.
    Exhaustive mode enumerates the ball vertex sets and intersects them;
    an empty intersection despite pairwise-compatible radii would falsify
    the Helly property of the thickening and raises a fatal error.
    """
    if mode not in ("witness", "exhaustive"):
        raise UsageError(f"unknown mode {mode!r}")
    if not family:
        raise UsageError("empty ball family")
    centers = [v for v, _ in family]
    radii = [Fraction(r) for _, r in family]
    if any(r < 0 or r.denominator != 1 for r in radii):
        raise UsageError("radii must be nonnegative integers")
    radii = [int(r) for r in radii]
    if mode == "witness":
        # helly_witness_na certifies the join's memberships, which prove the
        # pairwise condition by the triangle inequality; only when one fails
        # does it measure the pairs, raising PairwiseRadiusError
        theta, _ = helly_witness_na([c.norm for c in centers], radii)
        return BallCertificate(centers, radii, mode, "witness", witness=LatticeVertex(theta))

    bad_pair = None
    for s in range(len(family)):
        for t in range(s + 1, len(family)):
            d = gi_distance(centers[s].norm, centers[t].norm)
            if d > radii[s] + radii[t]:
                bad_pair = (s, t, d - radii[s] - radii[t])
                break
        if bad_pair:
            break
    balls = [ball_bfs(c, r) for c, r in zip(centers, radii)]
    sizes = [len(b) for b in balls]
    common = set(balls[0])
    for b in balls[1:]:
        common &= set(b)
    stats = {"ball_sizes": sizes}
    if common:
        kmin = min(common, key=_key_order)
        witness = balls[0][kmin][0]
        for s, (c, r) in enumerate(zip(centers, radii)):
            if gi_distance(witness.norm, c.norm) > r:
                raise RuntimeError(f"exhaustive witness escaped ball {s}")
        return BallCertificate(
            centers, radii, mode, "witness", witness=witness, stats=stats
        )
    if bad_pair is None:
        raise RuntimeError(
            "pairwise-intersecting balls with empty global intersection: "
            "this falsifies the Helly property and indicates an enumeration bug"
        )
    return BallCertificate(
        centers, radii, mode, "empty",
        offending_pair=bad_pair[:2], stats=stats,
    )


def helly_triple_campaign(ctx, n, center_radius, max_radius):
    """Exhaustively certify the Helly property for triples of balls.

    Considers every ball B(c, r) with c in ball_bfs(standard, center_radius)
    and 0 <= r <= max_radius, and every pairwise-intersecting triple of such
    balls; each triple must have a common vertex.  Ball membership is reduced
    to per-ball bitmasks over the union of the enumerated ball vertex sets,
    so the triple loop is cheap.  Returns a statistics dict; raises on a
    counterexample (which would falsify the Helly property).
    """
    std = LatticeVertex.standard(ctx, n)
    center_ball = ball_bfs(std, center_radius)
    centers = [v for v, _ in (center_ball[k] for k in sorted(center_ball))]
    # enumerate each ball once; the union of their key sets is the universe
    ball_keys = {}
    for c in centers:
        full = ball_bfs(c, max_radius)
        for r in range(max_radius + 1):
            ball_keys[(c.canonical_key, r)] = frozenset(
                k for k, (_, depth) in full.items() if depth <= r
            )
    universe = sorted(set().union(*ball_keys.values()))
    index = {k: i for i, k in enumerate(universe)}
    masks = {}
    for bk, keys in ball_keys.items():
        mask = 0
        for k in keys:
            mask |= 1 << index[k]
        masks[bk] = mask
    balls = [
        (c, r, masks[(c.canonical_key, r)])
        for c in centers
        for r in range(max_radius + 1)
    ]
    # pairwise intersection table straight from the masks
    nb = len(balls)
    inter = [[False] * nb for _ in range(nb)]
    for a in range(nb):
        for b in range(a, nb):
            inter[a][b] = inter[b][a] = bool(balls[a][2] & balls[b][2])
    triples = 0
    for a in range(nb):
        ia = inter[a]
        ma = balls[a][2]
        for b in range(a + 1, nb):
            if not ia[b]:
                continue
            mab = ma & balls[b][2]
            ib = inter[b]
            for c in range(b + 1, nb):
                if ia[c] and ib[c]:
                    triples += 1
                    if not (mab & balls[c][2]):
                        raise RuntimeError(
                            "Helly counterexample among triples: "
                            f"balls {a}, {b}, {c} (this indicates a bug)"
                        )
    return {
        "centers": len(centers),
        "balls": nb,
        "universe": len(universe),
        "pairwise_intersecting_triples": triples,
        "counterexamples": 0,
    }


def random_vertex(seed, radius_bound, ctx, n):
    """Deterministic random vertex within distance radius_bound of standard.

    A walk alternating random integral unimodular basis changes (which fix
    the current vertex) with weight shifts of sup-norm <= 1; entries stay in
    Z[1/p].  PRNG: numpy PCG64 seeded with SeedSequence([seed]); numpy is
    imported here, so the rest of the building runs without it.
    """
    import numpy as np

    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([int(seed)])))
    w = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(int(radius_bound)):
        for _ in range(2):
            i, j = rng.integers(0, n, size=2)
            if i == j:
                continue
            k = int(rng.integers(-2, 3))
            for r in range(n):
                w[r][i] = w[r][i] + k * w[r][j]
        delta = rng.integers(-1, 2, size=n)
        for j in range(n):
            f = Fraction(ctx.p) ** int(delta[j])
            for r in range(n):
                w[r][j] = w[r][j] * f
    return LatticeVertex(DiagNorm(ctx, w, [0] * n))

