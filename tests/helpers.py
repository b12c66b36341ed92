"""Shared generators and independent oracles for the test suite.

The Fraction matrix helpers (`mat`, `vec`, `identity`, `from_columns`,
`matmul`) live here, not in the library, which reads exact data into
integers; so do the helpers that only tests call: `log_sup_ratio` (the
library's integer log-sup ratio as a Fraction), the Fraction admissibility
test `is_admissible` and the sup distance `ts_distance` of functions on a
finite metric.  The oracles here (integer Smith normal form, Fraction Gauss-Jordan
elimination, Fraction basis inverses and common-basis pivoting,
brute-force log-sup ratios, the Fraction Hermite form and
Fraction distances, submodule closures, entrywise adapted-basis and
lattice-equality tests, loop-structured float kernels, exact closure sweeps,
the Fraction tight-pair solve, the Fraction and Bareiss pair-set filters
and the subset-search tight span, the Hermite-filter listing of
the ball forms with Smith-divisor depths, the per-vertex ball BFS with its
Bareiss depth audit, the eager pairwise-first Helly witness, brute-force cube isometries, signed
permutation matrices and inverses, hulls in any dimension, the
tangent-polytope witness of a body ball family, which for polytopes is their
meet as one polytope)
deliberately do not share code with the library paths they check.
"""

import functools
import itertools
import math
from fractions import Fraction

import numpy as np

from normspace import (DiagNorm, InfeasibleScaleError, PairwiseRadiusError, SignedPerm,
                       UsageError, eval_log_norm, gi_distance, is_extremal, join_norms,
                       qlinalg, scale_norm, valued)
from normspace import bodies
from normspace.building import _hermite, neighbors
from normspace.valued import pval, pval_int


def mat(rows):
    """Deep-convert an iterable of iterables into an immutable Fraction matrix."""
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def vec(entries):
    return tuple(Fraction(x) for x in entries)


def identity(n):
    return tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))


def from_columns(cols):
    return tuple(tuple(col[i] for col in cols) for i in range(len(cols[0])))


def matmul(a, b):
    bt = list(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def rng_for(seed):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed])))


def random_unimodular(rng, n, steps=6, kmax=2):
    """Random integer matrix with determinant +-1 (elementary products)."""
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.integers(0, n, size=2)
        if i == j:
            continue
        k = int(rng.integers(-kmax, kmax + 1))
        for r in range(n):
            m[r][i] += k * m[r][j]
    if rng.integers(0, 2):
        i, j = rng.integers(0, n, size=2)
        if i != j:
            for r in range(n):
                m[r][i], m[r][j] = m[r][j], m[r][i]
    return m


def random_weights(rng, n, den_choices=(1, 2, 3), span=3):
    out = []
    for _ in range(n):
        den = int(den_choices[rng.integers(0, len(den_choices))])
        num = int(rng.integers(-span * den, span * den + 1))
        out.append(Fraction(num, den))
    return out


def random_diag_norm(rng, ctx, n, integer_weights=False):
    basis = random_unimodular(rng, n)
    if integer_weights:
        weights = [int(rng.integers(-3, 4)) for _ in range(n)]
    else:
        weights = random_weights(rng, n)
    return DiagNorm(ctx, basis, weights)


def nasty_norm(rng, ctx, n):
    """Unimodular mixing plus p-power column scalings and rational weights:
    transitions with spread valuations exercise every pivoting branch."""
    u = random_unimodular(rng, n)
    exps = [int(rng.integers(-2, 3)) for _ in range(n)]
    cols = [
        [Fraction(u[i][j]) * Fraction(ctx.p) ** exps[j] for j in range(n)]
        for i in range(n)
    ]
    return DiagNorm(ctx, cols, random_weights(rng, n, den_choices=(1, 2, 3, 4)))


def brute_force_log_sup(eta, etap, box):
    """max over integer vectors in [-box, box]^n of log eta(v) - log eta'(v)."""
    n = eta.dim
    best = None
    for v in itertools.product(range(-box, box + 1), repeat=n):
        if all(x == 0 for x in v):
            continue
        r = eval_log_norm(eta, v) - eval_log_norm(etap, v)
        if best is None or r > best:
            best = r
    return best


def basis_inv(eta):
    """The inverse of a norm's basis as Fractions, D M / d."""
    _, den, m, d = eta._ints
    return tuple(tuple(Fraction(den * x, d) for x in row) for row in m)


def common_adapted_basis_fraction(eta, etap):
    """Weighted Smith pivoting on the Fraction transition matrix, unverified:
    (basis, m, m') with the library's scan order and tie-break."""
    n = eta.dim
    p = eta.ctx.p
    m = list(eta.weights)
    mp = list(etap.weights)
    # g[i][j] = coordinate i of eta'-basis vector j, in eta's (current) basis
    g = [list(row) for row in matmul(basis_inv(eta), etap.basis)]
    f_cols = [list(col) for col in zip(*etap.basis)]  # std coords
    rows = list(range(n))
    cols = list(range(n))
    sigma = {}
    pivots = {}
    for _ in range(n):
        best = None
        for i in rows:
            for j in cols:
                if g[i][j] == 0:
                    continue
                w = m[i] - mp[j] - pval(g[i][j], p)
                if best is None or w > best[0]:
                    best = (w, i, j)
        _, i0, j0 = best
        piv = g[i0][j0]
        for i in rows:
            if i == i0 or g[i][j0] == 0:
                continue
            c = g[i][j0] / piv
            for j in cols:
                g[i][j] -= c * g[i0][j]
        for j in cols:
            if j == j0 or g[i0][j] == 0:
                continue
            c = g[i0][j] / piv
            for i in range(n):
                g[i][j] -= c * g[i][j0]
            for i in range(n):
                f_cols[j][i] -= c * f_cols[j0][i]
        sigma[j0] = i0
        pivots[j0] = piv
        rows.remove(i0)
        cols.remove(j0)
    basis = from_columns(f_cols)
    mm = tuple(m[sigma[j]] - pval(pivots[j], p) for j in range(n))
    return basis, mm, tuple(mp)


def log_max_unpruned(eta, cols, shift, offsets):
    """`valued._log_max` visiting every row of every column, no early stop:
    (numerator, denominator) of the maximum, or None."""
    p = eta.ctx.p
    e = math.lcm(*(w.denominator for w in eta.weights + tuple(offsets)))
    _, den, m, d = eta._ints
    terms = [
        w * e - o * e - e * pval_int(y, p)
        for col, o in zip(cols, offsets)
        for row, w in zip(m, eta.weights)
        if (y := sum(x * c for x, c in zip(row, col)))
    ]
    if not terms:
        return None
    return max(terms) + e * (shift + pval_int(d, p) - pval_int(den, p)), e


def smith_divisors(mat):
    """Elementary divisors of an integer matrix (textbook Smith reduction)."""
    a = [list(map(int, row)) for row in mat]
    n, m = len(a), len(a[0])
    divs = []
    top = 0
    while top < min(n, m):
        # locate a nonzero entry of minimal absolute value in the minor
        piv = None
        for i in range(top, n):
            for j in range(top, m):
                if a[i][j] != 0 and (piv is None or abs(a[i][j]) < abs(a[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        i0, j0 = piv
        a[top], a[i0] = a[i0], a[top]
        for row in a:
            row[top], row[j0] = row[j0], row[top]
        dirty = False
        for i in range(top + 1, n):
            q = a[i][top] // a[top][top]
            if q:
                for j in range(top, m):
                    a[i][j] -= q * a[top][j]
            if a[i][top] != 0:
                dirty = True
        for j in range(top + 1, m):
            q = a[top][j] // a[top][top]
            if q:
                for i in range(top, n):
                    a[i][j] -= q * a[i][top]
            if a[top][j] != 0:
                dirty = True
        if dirty:
            continue
        # pivot must divide the remaining minor
        bad = None
        for i in range(top + 1, n):
            for j in range(top + 1, m):
                if a[i][j] % a[top][top] != 0:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            for j in range(top, m):
                a[top][j] += a[bad][j]
            continue
        divs.append(abs(a[top][top]))
        top += 1
    return divs


def cartan_distance_oracle(g_int, p):
    """Distance between L and g L for an integer transition via Smith divisors."""
    divs = smith_divisors(g_int)
    vals = [pval(Fraction(d), p) for d in divs]
    return max(max(vals), -min(vals), 0)


# ---------------------------------------------------------------------------
# Fraction oracles of the integer exact core
# ---------------------------------------------------------------------------

def gauss_jordan(a):
    """Fraction-exact reduced row echelon form; returns (rows, det, rank)."""
    rows = [[Fraction(x) for x in r] for r in a]
    n = len(rows)
    m = len(rows[0]) if n else 0
    det = Fraction(1)
    rank = 0
    for col in range(m):
        if rank == n:
            break
        piv = next((r for r in range(rank, n) if rows[r][col] != 0), None)
        if piv is None:
            det = Fraction(0)
            continue
        if piv != rank:
            rows[rank], rows[piv] = rows[piv], rows[rank]
            det = -det
        det *= rows[rank][col]
        scale = 1 / rows[rank][col]
        rows[rank] = [x * scale for x in rows[rank]]
        for r in range(n):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rows, det, rank


def inv(a):
    """Exact inverse of a square rational matrix; UsageError when singular."""
    n = len(a)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
    red, d, _ = gauss_jordan(aug)
    if d == 0:
        raise UsageError("matrix is singular")
    # a nonzero det puts every pivot in the left block, which is reduced to I
    return tuple(tuple(red[i][n:]) for i in range(n))


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
    """The library's Z_(p) Hermite form of rational columns, as Fractions.

    Output is upper triangular with diagonal p^{a_i} and the entries above
    each pivot reduced modulo p^{a_i} into [0, p^{a_i}) ∩ Z[1/p]: the
    integer form `building._hermite` of the cleared columns over p^{v_p(den)},
    for comparison with the Fraction oracle `hnf_dvr_fraction`.
    """
    cols, den = qlinalg.clear_denominators(columns)
    ps = p ** pval_int(den, p)
    return tuple(tuple(Fraction(x, ps) for x in row) for row in zip(*_hermite(cols, p)))


def hnf_dvr_fraction(columns, p):
    """Column Hermite form over Z_(p), by Fraction elimination."""
    n = len(columns[0])
    work = [[Fraction(x) for x in col] for col in columns]
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


def eval_log_norm_fraction(eta, v):
    """log_q eta(v) from the Fraction inverse of the basis; None iff v = 0."""
    x = [sum(a * b for a, b in zip(row, vec(v))) for row in inv(eta.basis)]
    vals = [m - pval(xi, eta.ctx.p) for m, xi in zip(eta.weights, x) if xi != 0]
    return max(vals) if vals else None


def log_sup_ratio_fraction(eta, etap):
    """max_j (log eta(f_j) - m'_j) over the basis vectors f_j of eta'."""
    return max(
        eval_log_norm_fraction(eta, col) - w for col, w in zip(zip(*etap.basis), etap.weights)
    )


def log_sup_ratio(eta, etap):
    """The library's integer log-sup ratio (`valued._log_sup`) as a Fraction."""
    return Fraction(*valued._log_sup(eta, etap))


def gi_distance_fraction(eta, etap):
    return max(log_sup_ratio_fraction(eta, etap), log_sup_ratio_fraction(etap, eta))


# ---------------------------------------------------------------------------
# entrywise oracles for adapted bases and lattice equality
# ---------------------------------------------------------------------------

def adapted_transition_check(u, m_from, m_to, p):
    """True iff the columns of u (coordinates in an m_from-adapted basis)
    define an m_to-adapted basis of the same norm.

    Entrywise criterion: m_from[i] - v_p(u[i][k]) <= m_to[k] for u, and the
    mirrored condition for u^{-1}; together they force norm equality.
    """
    u = mat(u)
    uinv = inv(u)
    n = len(u)
    for i in range(n):
        for k in range(n):
            if u[i][k] != 0 and m_from[i] - pval(u[i][k], p) > m_to[k]:
                return False
            if uinv[i][k] != 0 and m_to[i] - pval(uinv[i][k], p) > m_from[k]:
                return False
    return True


def stabilizer_check(u, m, ctx):
    """True iff u and u^{-1} preserve the diagonal norm with weights m."""
    m = vec(m)
    return adapted_transition_check(u, m, m, ctx.p)


def lattice_basis(v):
    """A vertex's weight-absorbed lattice basis as Fraction columns."""
    cols, den = v.lattice_ints()
    return [tuple(Fraction(x, den) for x in col) for col in cols]


def vertices_equal(u, v):
    """Exact lattice equality: both transition matrices are p-integral."""
    if u.ctx != v.ctx or u.dim != v.dim:
        raise UsageError("vertices live in different spaces")
    p = u.ctx.p
    wu = from_columns(lattice_basis(u))
    wv = from_columns(lattice_basis(v))
    t = matmul(inv(wu), wv)
    tinv = inv(t)
    for mtx in (t, tinv):
        for row in mtx:
            for x in row:
                if x != 0 and pval(x, p) < 0:
                    return False
    return True


def distance_from_oracle(center):
    """V -> d(center, V) on integers, by one Bareiss pass per vertex.

    With lattice bases C = C_int / c, V = V_int / e and Bareiss giving
    M_C = d_C C_int^{-1} and M_V C_int = d_V V_int^{-1} C_int, the distance
    is the larger -v_p of C^{-1}V = c M_C V_int / (d_C e) and
    V^{-1}C = e M_V C_int / (d_V c).
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


def ball_forms_oracle(n, p, r):
    """{H: depth} for the integer Hermite forms H (tuples of columns) with
    p^{2r} Z^n ⊆ H Z^n ⊆ Z^n: every triangular candidate with diagonal
    p^{a_i}, a_i <= 2r, and entries above pivot i in [0, p^{a_i}) is kept
    when it is the pivoting Hermite form of p^{2r} Z^n + H Z^n.  The depth
    of p^{-r} H Z^n from Z^n comes from H's Smith divisors d_1 | ... | d_n:
    max(r - v_p(d_1), v_p(d_n) - r)."""
    eye = [[p ** (2 * r) * (i == j) for i in range(n)] for j in range(n)]
    above = [(i, j) for j in range(n) for i in range(j)]
    forms = {}
    for exps in itertools.product(range(2 * r + 1), repeat=n):
        for entries in itertools.product(*(range(p ** exps[i]) for i, _ in above)):
            h = [[p ** exps[j] * (i == j) for i in range(n)] for j in range(n)]
            for (i, j), x in zip(above, entries):
                h[j][i] = x
            if _hermite(eye + h, p) == h:
                divs = smith_divisors(h)
                forms[tuple(map(tuple, h))] = max(r - pval_int(divs[0], p),
                                                  pval_int(divs[-1], p) - r)
    return forms


def ball_bfs_oracle(center, radius):
    """The thickening-graph ball by BFS over every vertex's full `neighbors`
    list, keyed by each child's own Hermite form, with the Bareiss depth
    audit; {canonical_key: (vertex, depth)} in discovery order.  Each list
    is the library's radius-1 ball about that vertex, so from depth 2 on
    this walk of the graph checks that the direct listing of one `ball_bfs`
    gives the same vertices at the same depths, the BFS depths being the
    metric's, and prints them in the same bases."""
    found = {center.canonical_key: (center, 0)}
    frontier = [center]
    for depth in range(1, radius + 1):
        nxt = []
        for v in frontier:
            for u in neighbors(v):
                if u.canonical_key not in found:
                    found[u.canonical_key] = (u, depth)
                    nxt.append(u)
        frontier = nxt
    dist = distance_from_oracle(center)
    for v, depth in found.values():
        if dist(v) != depth:
            raise RuntimeError(f"BFS depth disagrees with the metric at {v.key_string}")
    return found


def helly_witness_na_eager(norms, radii):
    """`helly_witness_na` as it was before the pairwise check became lazy:
    every input pair is measured, in order, before the join is built.  It
    shares the join and the distance with the library; only the order of
    the checks differs."""
    norms = list(norms)
    radii = [Fraction(r) for r in radii]
    if len(norms) != len(radii):
        raise UsageError("norms and radii must have equal length")
    if not norms:
        raise UsageError("empty ball family")
    if any(r < 0 for r in radii):
        raise UsageError("radii must be nonnegative")
    for s in range(len(norms)):
        for t in range(s + 1, len(norms)):
            d = gi_distance(norms[s], norms[t])
            if d > radii[s] + radii[t]:
                raise PairwiseRadiusError(
                    (s, t), d - radii[s] - radii[t],
                    f"balls {s} and {t} do not intersect: "
                    f"d = {d} > {radii[s]} + {radii[t]}",
                )
    theta = join_norms([scale_norm(eta, -a) for eta, a in zip(norms, radii)])
    dists = [gi_distance(theta, eta) for eta in norms]
    for s, (d, a) in enumerate(zip(dists, radii)):
        if d > a:
            raise RuntimeError(f"witness escaped ball {s}: join construction bug")
    return theta, dists


def _extend_subgroup(elems, gen, p2, n):
    out = set()
    for s in elems:
        cur = s
        for _ in range(p2):
            out.add(cur)
            cur = tuple((cur[i] + gen[i]) % p2 for i in range(n))
    return frozenset(out)


def submodule_generators(n, p):
    """Generating sets (<= n generators) for every submodule of (Z/p^2)^n,
    found by closing frozensets of elements one added generator at a time."""
    p2 = p * p
    elems = list(itertools.product(range(p2), repeat=n))
    trivial = frozenset([(0,) * n])
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
    return sorted(found.values())


def sample_vectors(rng, n, count, lo=-6, hi=6):
    out = []
    while len(out) < count:
        v = [int(x) for x in rng.integers(lo, hi + 1, size=n)]
        if any(v):
            out.append(v)
    return out


# ---------------------------------------------------------------------------
# loop oracles for the numpy kernels in normspace._kernels
# ---------------------------------------------------------------------------

def poly_gauge_batch_loops(a, binv, x):
    m, n = a.shape
    out = np.empty(x.shape[0])
    for r in range(x.shape[0]):
        best = 0.0
        for i in range(m):
            s = 0.0
            for j in range(n):
                s += a[i, j] * x[r, j]
            s = abs(s) * binv[i]
            if s > best:
                best = s
        out[r] = best
    return out


def spd_gauge_batch_loops(mat, x):
    n = mat.shape[0]
    out = np.empty(x.shape[0])
    for r in range(x.shape[0]):
        acc = 0.0
        for i in range(n):
            row = 0.0
            for j in range(n):
                row += mat[i, j] * x[r, j]
            acc += row * x[r, i]
        if acc < 0.0:
            acc = 0.0
        out[r] = np.sqrt(acc)
    return out


def mvee_weights_loops(pts, tol, max_iter):
    m, n = pts.shape
    u = np.full(m, 1.0 / m)
    eps = np.inf
    it = 0
    while it < max_iter:
        mmat = pts.T @ (pts * u.reshape(m, 1))
        minv = np.linalg.inv(mmat)
        w = np.sum((pts @ minv) * pts, axis=1)
        j = 0
        wmax = -np.inf
        for i in range(m):
            if w[i] > wmax:
                wmax = w[i]
                j = i
        eps = wmax / n - 1.0
        if eps <= tol:
            break
        k = -1
        wmin = np.inf
        for i in range(m):
            if u[i] > 0.0 and w[i] < wmin:
                wmin = w[i]
                k = i
        if (wmax - n) >= (n - wmin):
            beta = (wmax - n) / (n * (wmax - 1.0))
            u = u * (1.0 - beta)
            u[j] += beta
        else:
            bmin = -u[k] / (1.0 - u[k])
            if wmin > 1.0:
                beta = (wmin - n) / (n * (wmin - 1.0))
                if beta < bmin:
                    beta = bmin
            else:
                beta = bmin
            u = u * (1.0 - beta)
            u[k] += beta
            if u[k] < 0.0:
                u[k] = 0.0
        it += 1
    return u, it, eps


def matrix_isometry_enumeration(k):
    """Brute-force oracle (k <= 3): all {-1,0,1} matrices with one nonzero
    entry per row and column that preserve the sup norm on sample vectors."""
    if k > 3:
        raise InfeasibleScaleError("matrix-level verification is limited to k <= 3")
    samples = list(itertools.product((-1, 0, 1, 2), repeat=k))
    found = []
    for entries in itertools.product((-1, 0, 1), repeat=k * k):
        m = [list(entries[i * k:(i + 1) * k]) for i in range(k)]
        if any(sum(1 for x in row if x) != 1 for row in m):
            continue
        if any(sum(1 for r in range(k) if m[r][c]) != 1 for c in range(k)):
            continue
        ok = True
        for v in samples:
            img = [sum(m[r][c] * v[c] for c in range(k)) for r in range(k)]
            if max(map(abs, img)) != max(map(abs, v)):
                ok = False
                break
        if ok:
            found.append(m)
    return found


def signed_perm_matrix(g):
    """The matrix of g: column i is signs[i] e_{perm[i]}."""
    m = [[0] * g.k for _ in range(g.k)]
    for i in range(g.k):
        m[g.perm[i]][i] = g.signs[i]
    return m


def signed_perm_from_matrix(m):
    """The SignedPerm of a signed permutation matrix; UsageError otherwise."""
    k = len(m)
    perm = [None] * k
    signs = [0] * k
    for i in range(k):
        hits = [(r, m[r][i]) for r in range(k) if m[r][i] != 0]
        if len(hits) != 1 or hits[0][1] not in (1, -1):
            raise UsageError("not a signed permutation matrix")
        perm[i], signs[i] = hits[0]
    out = SignedPerm(tuple(perm), tuple(signs))
    if signed_perm_matrix(out) != [list(r) for r in m]:
        raise UsageError("not a signed permutation matrix")
    return out


def signed_perm_inverse(g):
    ip = [0] * g.k
    isg = [1] * g.k
    for i in range(g.k):
        ip[g.perm[i]] = i
        isg[g.perm[i]] = g.signs[i]
    return SignedPerm(tuple(ip), tuple(isg))


def is_admissible(f, space):
    """f >= 0 and f(x) + f(y) >= d(x, y) for every pair, in Fractions (a
    float is read as its binary rational)."""
    f, rows = [Fraction(x) for x in f], space.rows
    return all(x >= 0 for x in f) and all(
        f[i] + f[j] >= rows[i][j] for i, j in itertools.combinations(range(len(f)), 2))


def ts_distance(f, g):
    """Supremum distance max_x |f(x) - g(x)| of two functions on one space."""
    assert len(f) == len(g)
    return max(abs(a - b) for a, b in zip(f, g))


def exact_closure_loops(rows, f):
    """Exact closure oracle: ascending sweeps over Fraction rows until a
    whole sweep leaves f unchanged (at most 4n + 8 sweeps)."""
    n = len(rows)
    f = [Fraction(x) for x in f]
    for _ in range(4 * n + 8):
        moved = False
        for x in range(n):
            best = max([Fraction(0)] + [rows[x][y] - f[y] for y in range(n) if y != x])
            if best != f[x]:
                f[x] = best
                moved = True
        if not moved:
            return f
    raise RuntimeError("exact closure did not stabilize")


def solve_candidate_fraction(rows, pairs):
    """Tight-pair solve f(i) + f(j) = d(i, j) by Fraction Gauss-Jordan on
    the Fraction distance rows; None when the system is singular."""
    n = len(rows)
    aug = []
    for i, j in pairs:
        row = [Fraction(0)] * (n + 1)
        row[i] += 1
        row[j] += 1
        row[n] = rows[i][j]
        aug.append(row)
    red, d, _ = gauss_jordan(aug)
    return None if d == 0 else [red[i][n] for i in range(n)]


def pair_sets_with_nonzero(n, det):
    """The n-subsets of pairs (i <= j < n), in combinations order, whose
    pair matrix has det(matrix) != 0."""
    all_pairs = [(i, j) for i in range(n) for j in range(i, n)]
    out = []
    for combo in itertools.combinations(all_pairs, n):
        mat = [[0] * n for _ in combo]
        for row, (i, j) in zip(mat, combo):
            row[i] += 1
            row[j] += 1
        if det(mat) != 0:
            out.append(combo)
    return out


@functools.cache
def nonsingular_pair_sets_float(n):
    """Pair sets whose integer matrix has a float determinant that rounds
    to a nonzero integer."""
    return pair_sets_with_nonzero(n, lambda mat: round(np.linalg.det(np.array(mat, dtype=float))))


def nonsingular_pair_sets_fraction(n):
    """Pair sets whose matrix has a nonzero Fraction Gauss-Jordan determinant."""
    return pair_sets_with_nonzero(n, lambda mat: gauss_jordan(mat)[1])


# circumscribed-polytope approximation of an ellipsoid: number of antipodal
# direction pairs per dimension and the worst-case log gauge ratio of the
# resulting tangent polytope (measured covering radius of the direction set)
SPD_APPROX_PAIRS = {2: 64, 3: 242}
SPD_APPROX_LOG_BOUND = {2: 3.1e-4, 3: 8.5e-3}


def pair_directions(n):
    """SPD_APPROX_PAIRS[n] unit directions, one per antipodal pair: evenly
    spaced angles in 2D, a Fibonacci hemisphere in 3D."""
    if n == 2:
        k = SPD_APPROX_PAIRS[2]
        th = np.arange(k) * math.pi / k
        return np.stack([np.cos(th), np.sin(th)], axis=1)
    k = SPD_APPROX_PAIRS[3]
    idx = np.arange(k)
    z = (idx + 0.5) / k
    r = np.sqrt(1.0 - z * z)
    ang = math.pi * (3.0 - math.sqrt(5.0)) * idx
    return np.stack([r * np.cos(ang), r * np.sin(ang), z], axis=1)


def spd_to_polytope(body):
    """Facets (a, b) of the circumscribed tangent polytope of an ellipsoid in
    2D or 3D.  Tangent planes are taken at contact points spread evenly in
    the ellipsoid's own geometry, so the gauge error is at most
    SPD_APPROX_LOG_BOUND[n] regardless of conditioning; every offset is 1."""
    lam, vecs = np.linalg.eigh(body.matrix)
    sqrt_a = (vecs * np.sqrt(lam)) @ vecs.T
    normals = pair_directions(body.dim) @ sqrt_a.T
    return normals, np.ones(len(normals))


def tangent_polytope_witness(family, radii):
    """The pooled polytope of the balls e^{r_i} T_i, where T_i is body i
    itself or, for an ellipsoid, its circumscribed tangent polytope.  It
    contains the meet of the balls, and its gauge is within
    SPD_APPROX_LOG_BOUND[n] of the meet's.  Of a family of polytopes it is
    the meet itself, enumerated exactly from the offsets b e^r."""
    rows = [spd_to_polytope(b) if isinstance(b, bodies.SpdNorm) else (b.a, b.b)
            for b in family]
    return bodies.PolyNorm.from_facets(
        np.vstack([a for a, _ in rows]),
        np.concatenate([b * math.exp(r) for (_, b), r in zip(rows, radii)]),
    )


def _det(m):
    """Integer determinant by Laplace expansion along the first row."""
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** j * x * _det([r[:j] + r[j + 1:] for r in m[1:]])
               for j, x in enumerate(m[0]) if x)


def brute_hull(points):
    """Exact hull oracle in any dimension n by exhaustive n-subsets, in
    integer arithmetic.

    A facet misses the origin, which must be interior, so it passes through
    n linearly independent points p and is the plane <a, x> = c with
    a = adj(P) 1 and c = det P (Cramer's rule).  Returns (planes, vertices):
    the sorted facet planes (a, c) with <a, x> <= c in polyhedra's canonical
    form (max |a_i| = 1, c > 0) and the sorted indices of the points whose
    facets' normals span R^n, i.e. the hull vertices.
    """
    n = len(points[0])
    den = math.lcm(*(Fraction(x).denominator for p in points for x in p))
    ints = [[int(x * den) for x in p] for p in points]
    found = set()
    for combo in itertools.combinations(ints, n):
        c = _det(combo)
        if c == 0:
            continue
        a = [_det([r[:j] + [1] + r[j + 1:] for r in combo]) for j in range(n)]
        if c < 0:
            a, c = [-x for x in a], -c
        if any(sum(x * y for x, y in zip(a, w)) > c for w in ints):
            continue
        g = math.gcd(*a, c)
        found.add((tuple(x // g for x in a), c // g))
    planes = []
    for a, c in found:
        m = max(abs(x) for x in a)
        planes.append((tuple(Fraction(x, m) for x in a), Fraction(c, m * den)))
    vertices = []
    for i, w in enumerate(ints):
        touching = [a for a, c in found if sum(x * y for x, y in zip(a, w)) == c]
        if touching and gauss_jordan(touching)[2] == n:
            vertices.append(i)
    return sorted(planes), vertices


def tight_span_oracle(space):
    """Tight span vertices by subset search: the admissible and extremal
    solutions of the nonsingular sets of n tight pairs, as Fractions in
    lexicographic order.  A batched float solve proposes the sets whose
    solution is admissible within 1e-6 of the largest distance;
    `solve_candidate_fraction` solves those exactly and the library's
    admissibility and extremality tests accept them."""
    n = space.n
    rows = space.rows
    dist = np.array([[float(x) for x in r] for r in rows])
    sets = nonsingular_pair_sets_float(n)
    mats = np.zeros((len(sets), n, n))
    rhs = np.zeros((len(sets), n))
    for s, pairs in enumerate(sets):
        for r, (i, j) in enumerate(pairs):
            mats[s, r, i] += 1
            mats[s, r, j] += 1
            rhs[s, r] = dist[i, j]
    f = np.linalg.solve(mats, rhs[..., None])[..., 0]
    slack = f[:, :, None] + f[:, None, :] - dist
    near = np.nonzero(slack.min(axis=(1, 2)) >= -1e-6 * max(1.0, dist.max()))[0]
    found = set()
    for s in near:
        f = solve_candidate_fraction(rows, sets[s])
        if f is not None and is_admissible(f, space) and is_extremal(f, space):
            found.add(tuple(f))
    return sorted(map(list, found))
