"""Diagonalizable ultrametric norms on Q^n with the p-adic absolute value.

A norm is an invertible rational basis matrix (column j = j-th
basis vector in standard coordinates) together with a rational weight
vector m.  Writing x for the coordinates of v in that basis, the norm value
is q^max_i(m_i - v_p(x_i)) with q = p.  A norm's data are integers: the
basis B_int / D and the weights a_i / e over their least denominators, and
the inverse D M / d with M = d B_int^{-1}.  Every input, JSON or Python, is
read entry by entry into them (`read_ratio`: ints and canonical "a/b" text
without a Fraction) and printed from them (`norm_json`); values, distances
and the pivoting of common adapted bases are computed on them.  Fractions
are built only where they are read: the `basis` and `weights` of a norm,
returned values and distances, and other input spellings.  A float input
is read as its binary rational; no floating point is computed with.

Two facts keep the certificates cheap without making them optional.  The
determinant norm (Goldman-Iwahori 1963): for a norm diagonal in a basis B
with weights m, log_q of its value at e_1 ^ ... ^ e_n is
vol = sum_i m_i + v_p(det B), the same for every adapted basis.  Two norms
eta <= theta with vol(eta) = vol(theta) are equal: in a basis adapted to
both, with weights a and b, eta <= theta reads a_i <= b_i for every i, and
equal volumes give sum a = sum b, so a = b.  And the triangle inequality:
a witness theta with d(theta, eta_s) <= a_s for every s already proves
d(eta_s, eta_t) <= a_s + a_t, so the pairwise condition of the Helly
theorem is measured only when a membership fails.
"""

import itertools
import math
from fractions import Fraction

from . import qlinalg
from .errors import MALFORMED, Frozen, PairwiseRadiusError, UsageError, malformed


# Miller-Rabin on the prime bases up to 41 is exact below this bound
# (Sorenson and Webster 2015); larger p are refused.
MAX_P = 3317044064679887385961981


def is_prime(p):
    """Deterministic Miller-Rabin, exact for p < MAX_P."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if p < 2 or p in bases:
        return p in bases
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = 2^s d with d odd
    for a in bases:
        x = pow(a, (p - 1) >> s, p)
        if x != 1 and all(pow(x, 2 ** r, p) != p - 1 for r in range(s)):
            return False
    return True


class PAdicContext(Frozen):
    """The prime p; values of the absolute value live in p^Z (q = p)."""

    __slots__ = ("p",)

    def __init__(self, p):
        if type(p) is not int or p >= MAX_P or not is_prime(p):
            raise UsageError(f"p must be a prime integer below {MAX_P}, got {p!r}")
        self._set(p=p)

    def __eq__(self, other):
        return self.p == other.p if other.__class__ is PAdicContext else NotImplemented

    def __hash__(self):
        return hash((self.p,))

    def __repr__(self):
        return f"PAdicContext(p={self.p})"


def pval_int(n, p):
    """Exact p-adic valuation v of a nonzero integer: one bit operation for
    p = 2; otherwise a few divisions by p, then O(log v) divisions by p,
    p^2, p^4, ... while they divide, then what is left bit by bit."""
    if n == 0:
        raise UsageError("valuation of zero is undefined")
    if p == 2:
        return (n & -n).bit_length() - 1
    v = 0
    while v < 4:  # most valuations are small: plain division is cheapest
        if n % p:
            return v
        n //= p
        v += 1
    q, k = p, 1
    while n % q == 0:
        n //= q
        v += k
        q *= q
        k += k
    while k > 1:
        k >>= 1
        q = p ** k
        if n % q == 0:
            n //= q
            v += k
    return v


def pval(x, p):
    """Exact p-adic valuation of a nonzero rational."""
    a, b = read_ratio(x)
    return pval_int(a, p) - pval_int(b, p)


class DiagNorm(Frozen):
    """An ultrametric norm diagonal in an explicit rational basis.

    Its data are integers: weights a_i / e and basis B_int / D, each over its
    least denominator, and M = d B_int^{-1}, d = +-det B_int.  The Fraction
    `basis` and `weights` are views built each time they are read.  The
    basis is given by rows and its entries, like the weights, are anything
    `read_ratio` reads.
    """

    __slots__ = ("ctx", "_ints", "_w", "_desc")

    def __init__(self, ctx, basis, weights):
        if not isinstance(ctx, PAdicContext):
            ctx = PAdicContext(ctx)
        rows = qlinalg.clear_ratios([[read_ratio(x) for x in row] for row in basis])
        (a,), e = qlinalg.clear_ratios([[read_ratio(x) for x in weights]])
        self._fill(ctx, *rows, (tuple(a), e))

    @classmethod
    def _of_ints(cls, ctx, cols, den, a, e):
        """The norm with weights a_i / e on the basis cols[j] / den, for
        integers a and cols and den, e > 0."""
        g = math.gcd(den, *itertools.chain.from_iterable(cols))
        out = object.__new__(cls)
        out._fill(ctx, [[x // g for x in row] for row in zip(*cols)], den // g, _lowest(a, e))
        return out

    def _fill(self, ctx, b_int, den, w):
        n = len(w[0])
        if len(b_int) != n or any(len(row) != n for row in b_int):
            raise UsageError("basis must be square and match the weight length")
        # M = d * B_int^{-1}, d = +-det B_int, from one Bareiss pass on [B_int | I]
        d, out = qlinalg.bareiss([r + [int(i == j) for j in range(n)]
                                  for i, r in enumerate(b_int)])
        if d == 0:
            raise UsageError("basis matrix is singular")
        self._set(ctx=ctx, _ints=(b_int, den, [r[n:] for r in out], d), _w=w,
                  _desc=_descending(w[0]))

    @property
    def basis(self):
        """The basis matrix (column j = j-th basis vector) as Fractions."""
        b_int, den = self._ints[:2]
        return tuple(tuple(Fraction(x, den) for x in row) for row in b_int)

    @property
    def weights(self):
        a, e = self._w
        return tuple(Fraction(x, e) for x in a)

    @property
    def dim(self):
        return len(self._w[0])

    def _reweighted(self, a, e):
        """The norm on this basis with weights a_i / e; it shares the integer
        data, so no elimination runs."""
        out = object.__new__(DiagNorm)
        w = _lowest(a, e)
        out._set(ctx=self.ctx, _ints=self._ints, _w=w, _desc=_descending(w[0]))
        return out

    @classmethod
    def standard(cls, ctx, weights):
        n = len(weights)
        return cls(ctx, [[int(i == j) for j in range(n)] for i in range(n)], weights)

    def __eq__(self, other):  # least denominators make the integers canonical
        return (
            isinstance(other, DiagNorm)
            and self.ctx == other.ctx
            and self._ints[:2] == other._ints[:2]
            and self._w == other._w
        )

    def __hash__(self):
        return hash((self.ctx, self._w, self._ints[1], *map(tuple, self._ints[0])))

    def __repr__(self):
        return f"DiagNorm(p={self.ctx.p}, n={self.dim})"

    def to_json(self):
        (b_int, den, _, _), (a, e) = self._ints, self._w
        return norm_json(self.ctx.p, zip(*b_int), den, a, e)

    @classmethod
    def from_json(cls, obj):
        try:
            p = obj["p"]
            cols = [[read_ratio(x) for x in col] for col in obj["basis"]]
            (a,), e = qlinalg.clear_ratios([[read_ratio(x) for x in obj["weights"]]])
        except MALFORMED as exc:
            raise malformed("bad DiagNorm JSON", exc) from exc
        if not cols or any(len(col) != len(cols) for col in cols):
            raise UsageError("bad DiagNorm JSON: basis must be n columns of length n >= 1")
        return cls._of_ints(PAdicContext(p), *qlinalg.clear_ratios(cols), a, e)


def _lowest(a, e):
    """Integer weights a_i / e over their least common denominator."""
    g = math.gcd(e, *a)
    return tuple(x // g for x in a), e // g


def _descending(a):
    """Indices of the weights a_i, largest first (ties in index order)."""
    return sorted(range(len(a)), key=lambda i: -a[i])


def norm_json(p, cols, den, a, e):
    """The JSON of the norm with weights a_i / e on the basis cols[j] / den:
    rationals as "num/den" strings, the basis as a list of columns."""
    return {"p": p, "basis": [ratio_texts(col, den) for col in cols], "weights": ratio_texts(a, e)}


def read_ratio(x):
    """Fraction(x).as_integer_ratio() for a value x that is not a bool.  An
    int and "a" or "a/b" text (an optional "-", ASCII digits, a nonzero
    denominator) are read as integers; a bool is refused (TypeError), and
    anything else, accepted or refused, goes to Fraction."""
    if type(x) is int:
        return x, 1
    if type(x) is str and x.isascii():
        num, slash, den = x.partition("/")
        if (num[1:] if num[:1] == "-" else num).isdigit() and (
                den.isdigit() and int(den) or not slash):
            a, b = int(num), int(den or 1)
            g = math.gcd(a, b)
            return a // g, b // g
    if type(x) is bool:
        raise TypeError(f"{x!r} is not a rational number")
    return Fraction(x).as_integer_ratio()


def ratio_texts(xs, den):
    """[str(Fraction(x, den)) for x in xs] for integers xs and den > 0,
    without building a Fraction."""
    out = []
    for x in xs:
        g = math.gcd(x, den)
        out.append(str(x // g) if g == den else f"{x // g}/{den // g}")
    return out


def _require_same_space(a, b):
    if a.ctx != b.ctx:
        raise UsageError(f"context mismatch: p={a.ctx.p} vs p={b.ctx.p}")
    if a.dim != b.dim:
        raise UsageError(f"dimension mismatch: {a.dim} vs {b.dim}")


def _log_max(eta, cols, shift, offsets):
    """max_j (log_q eta(c_j / E) - o_j / f) for integer columns c_j, v_p(E) =
    shift and offsets (o, f), as (numerator, denominator).

    c_j / E has coordinates D (M c_j) / (d E) in eta's basis, so only
    valuations of integer products enter and no Fraction is built; None iff
    every M c_j is 0.  With eta's weights a_i / e, terms are kept over e f.
    A term a_i - o_j - v_p(y) is at most a_i - o_j, so the rows run in
    decreasing weight (eta's `_desc`, kept with its weights) and stop once
    that bound cannot beat the best term.
    """
    p = eta.ctx.p
    (a, e), (o, f) = eta._w, offsets
    _, den, m, d = eta._ints
    ef = e * f
    rows = [(a[i] * f, m[i]) for i in eta._desc]
    best = None
    for col, oj in zip(cols, o):
        oj *= e
        for ai, row in rows:
            if best is not None and ai - oj <= best:
                break
            y = sum(x * c for x, c in zip(row, col))
            if y:
                t = ai - oj - ef * pval_int(y, p)
                if best is None or t > best:
                    best = t
    if best is None:
        return None
    return best + ef * (shift + pval_int(d, p) - pval_int(den, p)), ef


def eval_log_norm(eta, v):
    """log_q eta(v) as a Fraction; None iff v = 0."""
    v = [read_ratio(x) for x in v]
    if len(v) != eta.dim:
        raise UsageError(f"vector has dimension {len(v)}, norm expects {eta.dim}")
    (v_int,), e = qlinalg.clear_ratios([v])
    top = _log_max(eta, [v_int], pval_int(e, eta.ctx.p), ((0,), 1))
    return None if top is None else Fraction(*top)


def _log_sup(eta, etap):
    """Exact log_q sup_{v != 0} eta(v)/eta'(v) as (numerator, denominator).

    The sup is attained at a basis vector f_j of eta' (ultrametric
    inequality), so it is max_j (log eta(f_j) - m'_j), read off M B'_int.
    """
    _require_same_space(eta, etap)
    b_int, den, _, _ = etap._ints
    return _log_max(eta, list(zip(*b_int)), pval_int(den, eta.ctx.p), etap._w)


def leq_norms(eta, etap):
    """True iff eta(v) <= eta'(v) for all v (exact)."""
    return _log_sup(eta, etap)[0] <= 0


def scale_norm(eta, a):
    """The norm q^a * eta: all weights shifted by a."""
    (w, e), (a, f) = eta._w, read_ratio(a)
    return eta._reweighted([x * f + a * e for x in w], e * f)


def gi_distance(eta, etap):
    """Exact Goldman-Iwahori distance sup_v |log_q eta(v)/eta'(v)|."""
    (a, e), (b, f) = _log_sup(eta, etap), _log_sup(etap, eta)
    d = Fraction(a, e) if a * f >= b * e else Fraction(b, f)
    if d < 0:
        raise RuntimeError("negative distance: broken norm input")
    return d


def common_adapted_basis(eta, etap):
    """eta and eta' rewritten on one basis that diagonalizes both.

    Returns (theta, theta') with theta = eta and theta' = eta' as norms,
    both on the same invertible rational basis; theta' keeps eta''s weights
    in their positions.  The basis comes from weighted Smith pivoting on the
    transition matrix: the pivot (i, j) maximizes m_i - m'_j - v_p(g_ij),
    which makes every elementary multiplier pass the stabilizer valuation
    test, so each side keeps its norm while the matrix is reduced to a
    scaled permutation.  The output is verified before returning, by
    eta <= theta and equal determinant norms (see `_verify_common_basis`);
    a pivoting bug cannot escape silently.
    """
    _require_same_space(eta, etap)
    return _verify_common_basis(eta, etap, *_smith_pivot(eta, etap))


def _smith_pivot(eta, etap):
    """The pivoting of `common_adapted_basis` on integers: (cols, D, m, m')
    with the common basis cols[j] / D and the weights m, m' as (integers,
    denominator) pairs.

    The transition matrix is (D / (d D')) M B'_int.  Its row i is kept as
    s_i g_i with g_i integer and only off_i = v_p(s_i) tracked, so the pivot
    weights are a_i - a'_j - e (v_p(g_ij) + off_i), all weights scaled by e.
    The fraction-free row update g_i <- piv g_i - g_ij0 g_i0 lowers off_i by
    v_p(piv).  Column j0 is then clear outside row i0, which leaves with the
    pivot, so column clearing only updates the eta'-basis vectors, kept as
    (integer column, denominator) in standard coordinates.
    """
    n, p = eta.dim, eta.ctx.p
    (a, ea), (ap, eb) = eta._w, etap._w
    e = math.lcm(ea, eb)
    a, ap = [x * (e // ea) for x in a], [x * (e // eb) for x in ap]
    _, den, m, d = eta._ints
    b_int, denp, _, _ = etap._ints
    f_cols, f_dens = [list(col) for col in zip(*b_int)], [denp] * n
    g = [[sum(x * y for x, y in zip(row, col)) for col in f_cols] for row in m]
    off = [pval_int(den, p) - pval_int(d, p) - pval_int(denp, p)] * n
    rows, cols = list(range(n)), list(range(n))
    mm = [None] * n
    for _ in range(n):
        best = None
        for i in rows:
            for j in cols:
                if g[i][j]:
                    w = a[i] - ap[j] - e * (pval_int(g[i][j], p) + off[i])
                    if best is None or w > best[0]:
                        best = (w, i, j)
        _, i0, j0 = best
        top = g[i0]
        piv = top[j0]
        v = pval_int(piv, p)
        # pivot maximality makes every multiplier pass the stabilizer test,
        # so row clearing keeps eta's weights and column clearing keeps eta'
        for i in rows:
            c = g[i][j0]
            if i != i0 and c:
                g[i] = [piv * x - c * y for x, y in zip(g[i], top)]
                off[i] -= v
        f0, e0 = f_cols[j0], f_dens[j0]
        for j in cols:
            c = top[j]
            if j != j0 and c:  # f_j <- f_j - (c / piv) f_j0
                num = [piv * e0 * x - c * f_dens[j] * y for x, y in zip(f_cols[j], f0)]
                den_j = piv * e0 * f_dens[j]
                q = math.gcd(*num, den_j)
                f_cols[j], f_dens[j] = [x // q for x in num], den_j // q
        mm[j0] = a[i0] - e * (v + off[i0])
        rows.remove(i0)
        cols.remove(j0)
    cols, den = qlinalg.clear_ratios([[(x, fd) for x in col] for col, fd in zip(f_cols, f_dens)])
    return cols, den, (mm, e), etap._w


def _det_valuation(eta):
    """v_p(det B) of eta's basis B = B_int / D: v_p(d) - n v_p(D)."""
    _, den, _, d = eta._ints
    p = eta.ctx.p
    return pval_int(d, p) - eta.dim * pval_int(den, p)


def _volumes_agree(eta, theta):
    """True iff eta and theta have one determinant norm: sum of weights plus
    v_p(det basis) agree, compared as integers."""
    (a, e), (b, f) = eta._w, theta._w
    return sum(a) * f - sum(b) * e == e * f * (_det_valuation(theta) - _det_valuation(eta))


def _verify_common_basis(eta, etap, cols, den, mm, mmp):
    """(theta, theta') on the basis cols[j] / den with weights mm and mm'
    ((integers, denominator) pairs), certified equal to (eta, eta') as norms.

    Each side costs one `leq_norms` and one volume comparison: eta <= theta
    and equal determinant norms force theta = eta (module docstring).  The
    weight gap needs no recheck against `gi_distance`: theta and theta' are
    diagonal in one basis, so their distance is the largest weight gap.
    """
    cand = DiagNorm._of_ints(eta.ctx, cols, den, *mm)
    candp = cand._reweighted(*mmp)
    if not (_volumes_agree(eta, cand) and leq_norms(eta, cand)):
        raise RuntimeError("common basis does not reproduce the first norm")
    if not (_volumes_agree(etap, candp) and leq_norms(etap, candp)):
        raise RuntimeError("common basis does not reproduce the second norm")
    return cand, candp


def join_norms(norms):
    """Least upper bound of a nonempty family (pointwise supremum).

    In a common adapted basis the pointwise sup of two diagonal norms is the
    diagonal norm with coordinatewise-max weights; joins of longer families
    iterate the pairwise join.
    """
    norms = list(norms)
    if not norms:
        raise UsageError("join of an empty family")
    out = norms[0]
    for other in norms[1:]:
        theta, thetap = common_adapted_basis(out, other)
        (a, e), (b, f) = theta._w, thetap._w
        out = theta._reweighted([max(x * f, y * e) for x, y in zip(a, b)], e * f)
    return out


def helly_witness_na(norms, radii):
    """A norm inside every ball B(eta_s, a_s) of a pairwise-compatible family.

    Builds the join theta of the scaled-down norms q^{-a_s} eta_s and
    measures the ball memberships.  When all hold, the pairwise condition
    d(eta_s, eta_t) <= a_s + a_t follows by the triangle inequality through
    theta, so no input pair is measured.  When one fails, the pairs are
    measured in order and the first that breaks the condition raises
    PairwiseRadiusError; if none does, the join is at fault (RuntimeError).
    Returns (theta, [d(theta, eta_s)]), the distances that the membership
    check measured.
    """
    norms = list(norms)
    radii = [Fraction(r) for r in radii]
    if len(norms) != len(radii):
        raise UsageError("norms and radii must have equal length")
    if not norms:
        raise UsageError("empty ball family")
    if any(r < 0 for r in radii):
        raise UsageError("radii must be nonnegative")
    theta = join_norms([scale_norm(eta, -a) for eta, a in zip(norms, radii)])
    dists = [gi_distance(theta, eta) for eta in norms]
    escaped = [s for s, (d, a) in enumerate(zip(dists, radii)) if d > a]
    if not escaped:
        return theta, dists
    for s in range(len(norms)):
        for t in range(s + 1, len(norms)):
            d = gi_distance(norms[s], norms[t])
            if d > radii[s] + radii[t]:
                raise PairwiseRadiusError(
                    (s, t), d - radii[s] - radii[t],
                    f"balls {s} and {t} do not intersect: "
                    f"d = {d} > {radii[s]} + {radii[t]}",
                )
    raise RuntimeError(f"witness escaped ball {escaped[0]}: join construction bug")
