"""Shared generators and independent oracles for the test suite.

The oracles here (integer Smith normal form, brute-force log-sup ratios,
loop-structured float kernels, brute-force cube isometries) deliberately do
not share code with the library paths they check.
"""

import itertools
from fractions import Fraction

import numpy as np

from normspace import DiagNorm, InfeasibleScaleError, eval_log_norm
from normspace.valued import pval


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


def brute_force_log_sup(eta, etap, box):
    """max over integer vectors in [-box, box]^n of log eta(v) - log eta'(v)."""
    n = eta.dim
    best = None
    for v in itertools.product(range(-box, box + 1), repeat=n):
        if all(x == 0 for x in v):
            continue
        r = eval_log_norm(eta, v).value - eval_log_norm(etap, v).value
        if best is None or r > best:
            best = r
    return best


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
