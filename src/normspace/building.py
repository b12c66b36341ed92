"""Integer-weight vertices of the extended building of GL(n, Q_p).

A vertex is an ultrametric norm with values in q^Z, i.e. a lattice over the
localization Z_(p).  The thickening graph puts an edge between vertices at
Goldman-Iwahori distance exactly 1; its combinatorial balls are certified
against the exact metric, and small Helly instances can be checked
exhaustively.  Enumeration is limited to n <= 3, p <= 3 and |weights| <= 100.
Hermite forms, neighbour bases, vertex keys, the depth audit and the JSON of
a neighbour are all computed on integers: a neighbour builds its Fraction
norm only when something reads it, and a ball reads none.  The neighbours
of every vertex come from one cached list per (n, p) of the integer Hermite
forms between p^2 Z^n and Z^n, listed directly by diagonal and reduced
entries.  Neighbours themselves are not cached: each call builds them from
the basis of the vertex it is given, so a result depends only on its
arguments, never on earlier calls about the same lattice in another basis.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import qlinalg
from .errors import InfeasibleScaleError, UsageError
from .valued import DiagNorm, gi_distance, helly_witness_na, pval_int

MAX_DIM = 3
MAX_PRIME = 3
MAX_WEIGHT = 100  # lattice entries carry p^m, and pval_int is linear in the valuation


def _check_scale(n, p):
    if n > MAX_DIM or p > MAX_PRIME:
        raise InfeasibleScaleError(
            f"neighbor enumeration is limited to n <= {MAX_DIM}, p <= {MAX_PRIME}"
            f" (requested n={n}, p={p})"
        )


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
        col[:] = [t * x % mod for x in col]
        col[j] = p ** exps[j]
        for i in range(j - 1, -1, -1):  # columns i < j are already in final form
            q = col[i] // placed[i][i]
            if q:
                for r in range(i + 1):
                    col[r] -= q * placed[i][r]
    return placed


@functools.total_ordering
class LatticeKey:
    """Canonical key of a Z_(p)-lattice: its Hermite form as integers over p^s.

    `rows` are the row-major integers of the Hermite form times p^s, with s
    the least exponent that makes them integral, so two lattices are equal
    exactly when their (p, s, rows) are.  The hash is taken once.  Keys
    order as the tuples (p, rows of rational entries) do.
    """

    __slots__ = ("p", "s", "rows", "_hash", "_text")

    def __init__(self, p, rows, s):
        """rows: integer Hermite form (row-major) of p^s times the lattice."""
        t = pval_int(math.gcd(*itertools.chain.from_iterable(rows)), p)
        if t:
            rows, s = _scaled(rows, 1, p ** t), s - t
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "_hash", hash((p, s, rows)))
        object.__setattr__(self, "_text", None)

    def __setattr__(self, *a):
        raise AttributeError("LatticeKey is immutable")

    def __eq__(self, other):
        if not isinstance(other, LatticeKey):
            return NotImplemented
        return self.p == other.p and self.s == other.s and self.rows == other.rows

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        if not isinstance(other, LatticeKey):
            return NotImplemented
        if self.p != other.p:
            return self.p < other.p
        # bring both to the larger exponent: x / p^s < y / p^s' iff x p^(s'-s) < y
        d = other.s - self.s
        a = _scaled(self.rows, self.p ** d, 1) if d > 0 else self.rows
        b = _scaled(other.rows, self.p ** -d, 1) if d < 0 else other.rows
        return a < b

    def __str__(self):
        if self._text is None:
            mul, den = (1, self.p ** self.s) if self.s > 0 else (self.p ** -self.s, 1)
            body = ";".join(",".join(_ratio_text(x * mul, den) for x in row)
                            for row in self.rows)
            object.__setattr__(self, "_text", f"p{self.p}:{body}")
        return self._text

    def __repr__(self):
        return f"LatticeKey({self})"


def _scaled(rows, mul, div):
    return tuple(tuple(x * mul // div for x in row) for row in rows)


def _ratio_text(x, den):
    """str(Fraction(x, den)) for den > 0, without building the Fraction."""
    g = math.gcd(x, den)
    return str(x // g) if g == den else f"{x // g}/{den // g}"


class LatticeVertex:
    """A norm with integer weights, canonicalized as a Z_(p)-lattice.

    A vertex made by `neighbors` holds only its key and integer lattice
    basis; its norm is built the first time it is read.
    """

    __slots__ = ("_norm", "_key", "_ctx", "_lattice")

    def __init__(self, norm):
        if not all(w.denominator == 1 for w in norm.weights):
            raise UsageError("vertex weights must be integers")
        object.__setattr__(self, "_norm", norm)
        object.__setattr__(self, "_key", None)
        object.__setattr__(self, "_ctx", norm.ctx)
        object.__setattr__(self, "_lattice", None)

    @classmethod
    def _lazy(cls, key, ctx, cols, den):
        """The vertex with key `key`, weights 0 and basis columns cols / den."""
        self = object.__new__(cls)
        object.__setattr__(self, "_norm", None)
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_ctx", ctx)
        object.__setattr__(self, "_lattice", (cols, den))
        return self

    def __setattr__(self, *a):
        raise AttributeError("LatticeVertex is immutable")

    @property
    def norm(self):
        if self._norm is None:
            cols, den = self._lattice
            n = len(cols)
            basis = [[Fraction(col[i], den) for col in cols] for i in range(n)]
            object.__setattr__(self, "_norm", DiagNorm(self._ctx, basis, (Fraction(0),) * n))
        return self._norm

    @property
    def ctx(self):
        return self._ctx

    @property
    def dim(self):
        return self._norm.dim if self._lattice is None else len(self._lattice[0])

    def lattice_ints(self):
        """(cols, den): column j of cols / den is p^{m_j} times basis vector j."""
        if self._lattice is None:
            p, b, w = Fraction(self.ctx.p), self.norm.basis, self.norm.weights
            if max(map(abs, w)) > MAX_WEIGHT:
                raise InfeasibleScaleError(f"vertex weights are limited to |m| <= {MAX_WEIGHT}")
            cols = [[row[j] * p ** w[j] for row in b] for j in range(self.dim)]
            object.__setattr__(self, "_lattice", qlinalg.clear_denominators(cols))
        return self._lattice

    @property
    def canonical_key(self):
        if self._key is None:
            p, (cols, den) = self.ctx.p, self.lattice_ints()
            key = LatticeKey(p, tuple(zip(*_hermite(cols, p))), pval_int(den, p))
            object.__setattr__(self, "_key", key)
        return self._key

    @property
    def key_string(self):
        return str(self.canonical_key)

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
        cols, den = self._lattice
        return {"p": self.ctx.p, "basis": [[_ratio_text(x, den) for x in col] for col in cols],
                "weights": ["0"] * len(cols)}

    @classmethod
    def from_json(cls, obj):
        return cls(DiagNorm.from_json(obj))


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


def neighbors(vertex):
    """All vertices at Goldman-Iwahori distance exactly 1.

    These are the lattices L' with pL ⊆ L' ⊆ p^{-1}L other than L itself,
    one per listed form p H_s (see _standard_forms).  With W = W_int / D the
    lattice basis of L, neighbour s has basis W H_s = W_int (p H_s) / (D p):
    it is keyed from those integers, and its norm is built only when read.
    Uncached: the neighbour bases always come from this vertex's own basis.
    """
    n, p = vertex.dim, vertex.ctx.p
    _check_scale(n, p)
    w_cols, den = vertex.lattice_ints()
    w_rows = list(zip(*w_cols))
    exp = pval_int(den * p, p)
    self_key = vertex.canonical_key
    out = []
    for form in _standard_forms(n, p):
        cols = [[sum(x * y for x, y in zip(wr, hc)) for wr in w_rows] for hc in form]
        rows = tuple(zip(*_hermite(cols, p)))
        key = LatticeKey(p, rows, exp)
        if key != self_key:
            out.append((rows, LatticeVertex._lazy(key, vertex.ctx, cols, den * p)))
    # distinct forms give distinct lattices, and all rows share the exponent
    # exp, so they sort as the keys do
    out.sort(key=lambda e: e[0])
    return tuple(v for _, v in out)


def _distance_from(center):
    """V -> the exact Goldman-Iwahori distance d(center, V), on integers.

    With lattice bases C = C_int / c, V = V_int / e and Bareiss giving
    M_C = d_C C_int^{-1} and M_V C_int = d_V V_int^{-1} C_int, the distance is
    the larger -v_p of C^{-1}V = c M_C V_int / (d_C e) and V^{-1}C =
    e M_V C_int / (d_V c); v_p of a matrix is v_p of the gcd of its entries.
    """
    p = center.ctx.p
    c_cols, c = center.lattice_ints()
    n = len(c_cols)
    c_rows = list(zip(*c_cols))
    d_c, out = qlinalg.bareiss([list(r) + [int(i == j) for j in range(n)]
                                for i, r in enumerate(c_rows)])
    m_c = [r[n:] for r in out]
    v_c, v_dc = pval_int(c, p), pval_int(d_c, p)

    def dist(vertex):
        cols, e = vertex.lattice_ints()
        g = math.gcd(*(sum(x * y for x, y in zip(row, col)) for row in m_c for col in cols))
        d_v, out = qlinalg.bareiss([list(r) + list(s) for r, s in zip(zip(*cols), c_rows)])
        h = math.gcd(*(x for r in out for x in r[n:]))
        v_e = pval_int(e, p)
        return max(v_dc - v_c + v_e - pval_int(g, p), pval_int(d_v, p) - v_e + v_c - pval_int(h, p))

    return dist


def ball_bfs(center, radius):
    """BFS ball in the thickening graph, certified against the exact metric.

    Every vertex found has its BFS depth checked against its exact distance
    to the center, on integers (`_distance_from`); a mismatch is fatal.
    Returns {canonical_key: (vertex, depth)}.
    """
    if radius < 0:
        raise UsageError("radius must be nonnegative")
    found = {center.canonical_key: (center, 0)}
    frontier = [center]
    for depth in range(1, radius + 1):
        nxt = []
        for v in frontier:
            for u in neighbors(v):
                k = u.canonical_key
                if k not in found:
                    found[k] = (u, depth)
                    nxt.append(u)
        frontier = nxt
    dist = _distance_from(center)
    for v, depth in found.values():
        if dist(v) != depth:
            raise RuntimeError(
                "BFS depth disagrees with the metric at "
                f"{v.key_string}: depth {depth}"
            )
    return found


@dataclass
class BallCertificate:
    """Outcome of a Helly check over a family of combinatorial balls."""

    centers: list
    radii: list
    mode: str
    outcome: str  # "witness" | "empty"
    witness: LatticeVertex | None = None
    offending_pair: tuple | None = None
    stats: dict = field(default_factory=dict)

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
        # helly_witness_na checks the pairs and raises PairwiseRadiusError
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
        kmin = min(common)
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
    Z[1/p].  PRNG: numpy PCG64 seeded with SeedSequence([seed]).
    """
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([int(seed)])))
    w = [list(row) for row in qlinalg.identity(n)]
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


def adjacency_json(vertices):
    """JSON adjacency list keyed by canonical key strings."""
    verts = {v.canonical_key: v for v in vertices}
    out = {}
    for k in sorted(verts):
        v = verts[k]
        nbrs = [u.key_string for u in neighbors(v) if u.canonical_key in verts]
        out[v.key_string] = {"norm": v.to_json(), "neighbors": sorted(nbrs)}
    return {"schema_version": 1, "vertices": out}


def graphml(vertices):
    """Minimal GraphML export of the induced thickening subgraph."""
    verts = {v.canonical_key: v for v in vertices}
    ids = {k: f"v{i}" for i, k in enumerate(sorted(verts))}
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">',
        '<key id="key" for="node" attr.name="lattice" attr.type="string"/>',
        '<graph edgedefault="undirected">',
    ]
    for k in sorted(verts):
        lines.append(
            f'<node id="{ids[k]}"><data key="key">{verts[k].key_string}</data></node>'
        )
    seen = set()
    for k in sorted(verts):
        for u in neighbors(verts[k]):
            ku = u.canonical_key
            if ku in verts:
                edge = tuple(sorted((ids[k], ids[ku])))
                if edge not in seen:
                    seen.add(edge)
                    lines.append(f'<edge source="{edge[0]}" target="{edge[1]}"/>')
    lines.append("</graph></graphml>")
    return "\n".join(lines)
