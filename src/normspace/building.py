"""Integer-weight vertices of the extended building of GL(n, Q_p).

A vertex is an ultrametric norm with values in q^Z, i.e. a lattice over the
localization Z_(p).  The thickening graph puts an edge between vertices at
Goldman-Iwahori distance exactly 1; its combinatorial balls are certified
against the exact metric, and small Helly instances can be checked
exhaustively.  Enumeration is limited to n <= 3 and p <= 3.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import qlinalg
from .errors import InfeasibleScaleError, PairwiseRadiusError, UsageError
from .valued import DiagNorm, gi_distance, helly_witness_na, pval

MAX_DIM = 3
MAX_PRIME = 3


def _check_scale(n, p):
    if n > MAX_DIM or p > MAX_PRIME:
        raise InfeasibleScaleError(
            f"neighbor enumeration is limited to n <= {MAX_DIM}, p <= {MAX_PRIME}"
            f" (requested n={n}, p={p})"
        )


def reduce_mod_ppow(x, k, p):
    """Canonical representative of x modulo p^k Z_(p), in [0, p^k) ∩ Z[1/p]."""
    if x == 0:
        return Fraction(0)
    v = pval(x, p)
    if v >= k:
        return Fraction(0)
    num, den = x.numerator, x.denominator
    while num % p == 0:
        num //= p
    while den % p == 0:
        den //= p
    modulus = p ** (k - v)
    c = (num * pow(den, -1, modulus)) % modulus
    return Fraction(c) * Fraction(p) ** v


def hnf_dvr(columns, p):
    """Column Hermite form over Z_(p) of a full-rank rational column family.

    Output is upper triangular with diagonal p^{a_i} and the entries above
    each pivot reduced modulo p^{a_i}; it is the canonical basis of the
    lattice spanned by the input columns.
    """
    n = len(columns[0])
    work = [[qlinalg.frac(x) for x in col] for col in columns]
    avail = list(range(len(work)))
    placed = [None] * n
    for row in range(n - 1, -1, -1):
        best = None
        for idx in avail:
            x = work[idx][row]
            if x != 0:
                v = pval(x, p)
                if best is None or v < best[0]:
                    best = (v, idx)
        if best is None:
            raise UsageError("columns do not span a full lattice")
        pidx = best[1]
        pcol = work[pidx]
        avail.remove(pidx)
        for idx in avail:
            x = work[idx][row]
            if x != 0:
                c = x / pcol[row]  # valuation >= 0 by pivot minimality
                for r in range(row + 1):
                    work[idx][r] -= c * pcol[r]
        placed[row] = pcol
    exps = []
    for j in range(n):
        d = placed[j][j]
        a = pval(d, p)
        unit = d / Fraction(p) ** a
        placed[j] = [x / unit for x in placed[j]]
        exps.append(a)
    for j in range(n):
        for i in range(j - 1, -1, -1):
            x = placed[j][i]
            target = reduce_mod_ppow(x, exps[i], p)
            if x != target:
                t = (x - target) / placed[i][i]
                for r in range(i + 1):
                    placed[j][r] -= t * placed[i][r]
    return tuple(tuple(placed[j][i] for j in range(n)) for i in range(n))


class LatticeVertex:
    """A norm with integer weights, canonicalized as a Z_(p)-lattice."""

    __slots__ = ("norm", "_key")

    def __init__(self, norm):
        if not all(w.denominator == 1 for w in norm.weights):
            raise UsageError("vertex weights must be integers")
        object.__setattr__(self, "norm", norm)
        object.__setattr__(self, "_key", None)

    def __setattr__(self, *a):
        raise AttributeError("LatticeVertex is immutable")

    @property
    def ctx(self):
        return self.norm.ctx

    @property
    def dim(self):
        return self.norm.dim

    def lattice_basis(self):
        """Weight-absorbed basis: column j is p^{m_j} times basis vector j."""
        p = Fraction(self.ctx.p)
        return [
            tuple(self.norm.basis[i][j] * p ** self.norm.weights[j]
                  for i in range(self.dim))
            for j in range(self.dim)
        ]

    @property
    def canonical_key(self):
        if self._key is None:
            h = hnf_dvr(self.lattice_basis(), self.ctx.p)
            object.__setattr__(self, "_key", (self.ctx.p, h))
        return self._key

    @property
    def key_string(self):
        p, h = self.canonical_key
        body = ";".join(",".join(str(x) for x in row) for row in h)
        return f"p{p}:{body}"

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
        return self.norm.to_json()

    @classmethod
    def from_json(cls, obj):
        return cls(DiagNorm.from_json(obj))


def vertices_equal(u, v):
    """Exact lattice equality: both transition matrices are p-integral."""
    if u.ctx != v.ctx or u.dim != v.dim:
        raise UsageError("vertices live in different spaces")
    p = u.ctx.p
    wu = qlinalg.from_columns(u.lattice_basis())
    wv = qlinalg.from_columns(v.lattice_basis())
    t = qlinalg.matmul(qlinalg.inv(wu), wv)
    tinv = qlinalg.inv(t)
    for mtx in (t, tinv):
        for row in mtx:
            for x in row:
                if x != 0 and pval(x, p) < 0:
                    return False
    return True


def _extend_subgroup(elems, gen, p2, n):
    out = set()
    for s in elems:
        cur = s
        for _ in range(p2):
            out.add(cur)
            cur = tuple((cur[i] + gen[i]) % p2 for i in range(n))
    return frozenset(out)


_SUBMODULE_CACHE = {}


def submodule_generators(n, p):
    """Generating sets (<= n generators) for every submodule of (Z/p^2)^n.

    Built by closing one added generator at a time with deduplication; the
    result is cached per (n, p).
    """
    key = (n, p)
    if key in _SUBMODULE_CACHE:
        return _SUBMODULE_CACHE[key]
    p2 = p * p
    elems = list(itertools.product(range(p2), repeat=n))
    zero = tuple([0] * n)
    trivial = frozenset([zero])
    found = {trivial: ()}
    frontier = [trivial]
    for _ in range(n):
        new_frontier = []
        for sub in frontier:
            gens = found[sub]
            for g in elems:
                if g in sub:
                    continue
                bigger = _extend_subgroup(sub, g, p2, n)
                if bigger not in found:
                    found[bigger] = gens + (g,)
                    new_frontier.append(bigger)
        frontier = new_frontier
    out = sorted(found.values())
    _SUBMODULE_CACHE[key] = out
    return out


@functools.lru_cache(maxsize=65536)
def neighbors(vertex):
    """All vertices at Goldman-Iwahori distance exactly 1.

    These are the lattices L' with pL ⊆ L' ⊆ p^{-1}L other than L itself,
    one per submodule of p^{-1}L / pL ≅ (Z/p^2)^n.
    """
    n, p = vertex.dim, vertex.ctx.p
    _check_scale(n, p)
    ctx = vertex.ctx
    w_cols = vertex.lattice_basis()
    w_mat = qlinalg.from_columns(w_cols)
    self_key = vertex.canonical_key
    zero_w = [0] * n
    out = {}
    for gens in submodule_generators(n, p):
        cols = [
            tuple(Fraction(p) if i == j else Fraction(0) for i in range(n))
            for j in range(n)
        ]
        for g in gens:
            cols.append(tuple(Fraction(c, p) for c in g))
        h = hnf_dvr(cols, p)
        basis_std = qlinalg.matmul(w_mat, h)
        cand = LatticeVertex(DiagNorm(ctx, basis_std, zero_w))
        k = cand.canonical_key
        if k != self_key and k not in out:
            out[k] = cand
    return tuple(out[k] for k in sorted(out))


def ball_bfs(center, radius):
    """BFS ball in the thickening graph, certified against the exact metric.

    Every discovered vertex has its BFS depth compared with its
    Goldman-Iwahori distance to the center; a mismatch is a fatal defect.
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
    for v, depth in found.values():
        if gi_distance(center.norm, v.norm) != depth:
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
    Witness mode builds the join witness and re-verifies memberships.
    Exhaustive mode enumerates the ball vertex sets and intersects them;
    an empty intersection despite pairwise-compatible radii would falsify
    the Helly property of the thickening and raises a fatal error.
    """
    if mode not in ("witness", "exhaustive"):
        raise UsageError(f"unknown mode {mode!r}")
    if not family:
        raise UsageError("empty ball family")
    centers = [v for v, _ in family]
    radii = [int(r) for _, r in family]
    if any(r < 0 for r in radii):
        raise UsageError("radii must be nonnegative integers")
    bad_pair = None
    for s in range(len(family)):
        for t in range(s + 1, len(family)):
            d = gi_distance(centers[s].norm, centers[t].norm)
            if d > radii[s] + radii[t]:
                bad_pair = (s, t, d - radii[s] - radii[t])
                break
        if bad_pair:
            break

    if mode == "witness":
        if bad_pair:
            raise PairwiseRadiusError(bad_pair[:2], bad_pair[2])
        theta = helly_witness_na([c.norm for c in centers], radii)
        witness = LatticeVertex(theta)
        for s, (c, r) in enumerate(zip(centers, radii)):
            if gi_distance(witness.norm, c.norm) > r:
                raise RuntimeError(f"witness escaped ball {s}")
        return BallCertificate(centers, radii, mode, "witness", witness=witness)

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
