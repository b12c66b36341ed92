"""Diagonalizable ultrametric norms on Q^n with the p-adic absolute value.

A norm is stored as an invertible rational basis matrix (column j = j-th
basis vector in standard coordinates) together with a rational weight
vector m.  Writing x for the coordinates of v in that basis, the norm value
is q^max_i(m_i - v_p(x_i)) with q = p.  Values and distances are computed
on integers (basis = B_int / D, inverse = D M / d with M = d B_int^{-1});
Fractions appear only at the boundary: inputs, weights and returned values.
No floating point enters this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import qlinalg
from .errors import MALFORMED, PairwiseRadiusError, UsageError, malformed
from .qlinalg import frac, mat, vec


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


@dataclass(frozen=True)
class PAdicContext:
    """The prime p; values of the absolute value live in p^Z (q = p)."""

    p: int

    def __post_init__(self):
        if type(self.p) is not int or self.p >= MAX_P or not is_prime(self.p):
            raise UsageError(f"p must be a prime integer below {MAX_P}, got {self.p!r}")


def pval_int(n, p):
    """Exact p-adic valuation v of a nonzero integer, in O(log v) divisions:
    by p, p^2, p^4, ... while they divide, then what is left bit by bit."""
    if n == 0:
        raise UsageError("valuation of zero is undefined")
    if n % p:
        return 0
    n //= p
    v, q, k = 1, p * p, 2
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
    x = frac(x)
    if x == 0:
        raise UsageError("valuation of zero is undefined")
    return pval_int(x.numerator, p) - pval_int(x.denominator, p)


class DiagNorm:
    """An ultrametric norm diagonal in an explicit rational basis."""

    __slots__ = ("ctx", "basis", "weights", "_ints")

    def __init__(self, ctx, basis, weights):
        if not isinstance(ctx, PAdicContext):
            ctx = PAdicContext(ctx)
        basis = mat(basis)
        weights = vec(weights)
        n = len(weights)
        if len(basis) != n or any(len(row) != n for row in basis):
            raise UsageError("basis must be square and match the weight length")
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "weights", weights)
        # (B_int, D, M, d): basis = B_int / D and M = d * B_int^{-1}, d = +-det B_int,
        # from one Bareiss pass on [B_int | I]
        b_int, den = qlinalg.clear_denominators(basis)
        d, out = qlinalg.bareiss([r + [int(i == j) for j in range(n)]
                                  for i, r in enumerate(b_int)])
        if d == 0:
            raise UsageError("basis matrix is singular")
        object.__setattr__(self, "_ints", (b_int, den, [r[n:] for r in out], d))

    def __setattr__(self, *a):  # immutable by construction
        raise AttributeError("DiagNorm is immutable")

    @property
    def dim(self):
        return len(self.weights)

    @property
    def basis_inv(self):
        _, den, m, d = self._ints
        return tuple(tuple(Fraction(den * x, d) for x in row) for row in m)

    @classmethod
    def standard(cls, ctx, weights):
        weights = vec(weights)
        return cls(ctx, qlinalg.identity(len(weights)), weights)

    def __eq__(self, other):
        return (
            isinstance(other, DiagNorm)
            and self.ctx == other.ctx
            and self.basis == other.basis
            and self.weights == other.weights
        )

    def __hash__(self):
        return hash((self.ctx, self.basis, self.weights))

    def __repr__(self):
        return f"DiagNorm(p={self.ctx.p}, n={self.dim})"

    # -- JSON: rationals as "num/den" strings, basis as a list of columns --

    def to_json(self):
        cols = [
            [str(self.basis[i][j]) for i in range(self.dim)]
            for j in range(self.dim)
        ]
        return {
            "p": self.ctx.p,
            "basis": cols,
            "weights": [str(w) for w in self.weights],
        }

    @classmethod
    def from_json(cls, obj):
        try:
            p = obj["p"]
            cols = [[frac(x) for x in col] for col in obj["basis"]]
            weights = [frac(x) for x in obj["weights"]]
        except MALFORMED as exc:
            raise malformed("bad DiagNorm JSON", exc) from exc
        if not cols or any(len(col) != len(cols) for col in cols):
            raise UsageError("bad DiagNorm JSON: basis must be n columns of length n >= 1")
        return cls(PAdicContext(p), qlinalg.from_columns(cols), weights)


def _require_same_space(a, b):
    if a.ctx != b.ctx:
        raise UsageError(f"context mismatch: p={a.ctx.p} vs p={b.ctx.p}")
    if a.dim != b.dim:
        raise UsageError(f"dimension mismatch: {a.dim} vs {b.dim}")


def _log_max(eta, cols, shift, offsets):
    """max_j (log_q eta(c_j / E) - offsets_j) for integer columns c_j, v_p(E) = shift.

    c_j / E has coordinates D (M c_j) / (d E) in eta's basis, so only
    valuations of integer products enter; the result is the only Fraction
    built, and None iff every M c_j is 0.
    """
    p = eta.ctx.p
    e = math.lcm(*(w.denominator for w in eta.weights + offsets))
    a = [w.numerator * (e // w.denominator) for w in eta.weights]
    _, den, m, d = eta._ints
    best = None
    for col, off in zip(cols, offsets):
        o = off.numerator * (e // off.denominator)
        for row, ai in zip(m, a):
            y = sum(x * c for x, c in zip(row, col))
            if y:
                t = ai - o - e * pval_int(y, p)
                if best is None or t > best:
                    best = t
    if best is None:
        return None
    return Fraction(best + e * (shift + pval_int(d, p) - pval_int(den, p)), e)


def eval_log_norm(eta, v):
    """log_q eta(v) as a Fraction; None iff v = 0."""
    v = vec(v)
    if len(v) != eta.dim:
        raise UsageError(f"vector has dimension {len(v)}, norm expects {eta.dim}")
    (v_int,), e = qlinalg.clear_denominators([v])
    return _log_max(eta, [v_int], pval_int(e, eta.ctx.p), (Fraction(0),))


def log_sup_ratio(eta, etap):
    """Exact log_q sup_{v != 0} eta(v)/eta'(v).

    The sup is attained at a basis vector f_j of eta' (ultrametric
    inequality), so it is max_j (log eta(f_j) - m'_j), read off M B'_int.
    """
    _require_same_space(eta, etap)
    b_int, den, _, _ = etap._ints
    return _log_max(eta, list(zip(*b_int)), pval_int(den, eta.ctx.p), etap.weights)


def leq_norms(eta, etap):
    """True iff eta(v) <= eta'(v) for all v (exact)."""
    return log_sup_ratio(eta, etap) <= 0


def scale_norm(eta, a):
    """The norm q^a * eta: all weights shifted by a."""
    a = frac(a)
    return DiagNorm(eta.ctx, eta.basis, tuple(w + a for w in eta.weights))


def gi_distance(eta, etap):
    """Exact Goldman-Iwahori distance sup_v |log_q eta(v)/eta'(v)|."""
    a = log_sup_ratio(eta, etap)
    b = log_sup_ratio(etap, eta)
    d = max(a, b)
    if d < 0:
        raise RuntimeError("negative distance: broken norm input")
    return d


def common_adapted_basis(eta, etap):
    """A basis diagonalizing both norms, with their weights in that basis.

    Returns (basis, m, m') with basis an invertible rational matrix whose
    columns are the common basis vectors in standard coordinates.  The
    algorithm is weighted Smith pivoting on the transition matrix: the pivot
    (i, j) maximizes m_i - m'_j - v_p(g_ij), which makes every elementary
    multiplier pass the stabilizer valuation test, so each side keeps its
    norm while the matrix is reduced to a scaled permutation.  The output is
    verified before returning; a pivoting bug cannot escape silently.
    """
    _require_same_space(eta, etap)
    n = eta.dim
    p = eta.ctx.p
    m = list(eta.weights)
    mp = list(etap.weights)
    # g[i][j] = coordinate i of eta'-basis vector j, in eta's (current) basis
    g = [list(row) for row in qlinalg.matmul(eta.basis_inv, etap.basis)]
    f_cols = [list(qlinalg.column(etap.basis, j)) for j in range(n)]  # std coords
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
        # Row clearing absorbs f_{j0} into the eta-adapted basis; pivot
        # maximality makes the multipliers pass the stabilizer test, so the
        # positional weights m stay valid.
        for i in rows:
            if i == i0 or g[i][j0] == 0:
                continue
            c = g[i][j0] / piv
            for j in cols:
                g[i][j] -= c * g[i0][j]
        # Column clearing runs elementary operations on the eta'-adapted
        # basis (tracked in standard coordinates), preserving eta'.
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
    basis = qlinalg.from_columns(f_cols)
    mm = tuple(m[sigma[j]] - pval(pivots[j], p) for j in range(n))
    mmp = tuple(mp[j] for j in range(n))
    _verify_common_basis(eta, etap, basis, mm, mmp)
    return basis, mm, mmp


def _verify_common_basis(eta, etap, basis, mm, mmp):
    cand = DiagNorm(eta.ctx, basis, mm)
    candp = DiagNorm(eta.ctx, basis, mmp)
    if not (leq_norms(cand, eta) and leq_norms(eta, cand)):
        raise RuntimeError("common basis does not reproduce the first norm")
    if not (leq_norms(candp, etap) and leq_norms(etap, candp)):
        raise RuntimeError("common basis does not reproduce the second norm")
    gap = max(abs(a - b) for a, b in zip(mm, mmp))
    if gap != gi_distance(eta, etap):
        raise RuntimeError("weight gap does not match the distance")


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
        basis, mm, mmp = common_adapted_basis(out, other)
        out = DiagNorm(out.ctx, basis, tuple(max(a, b) for a, b in zip(mm, mmp)))
    return out


def helly_witness_na(norms, radii):
    """A norm inside every ball B(eta_s, a_s) of a pairwise-compatible family.

    Checks the pairwise condition d(eta_s, eta_t) <= a_s + a_t, then builds
    the join theta of the scaled-down norms q^{-a_s} eta_s and re-verifies
    the ball memberships.  Returns (theta, [d(theta, eta_s)]), the distances
    that the membership check measured.
    """
    norms = list(norms)
    radii = [frac(r) for r in radii]
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
