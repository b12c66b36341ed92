"""Hot numeric kernels: one numpy implementation each.

The tests compare every kernel with a plain-Python loop oracle in
``tests/helpers.py``.
"""

import numpy as np

# Kept as a constant because the benchmark's run context (perfbench/measure.py)
# reports it.
HAVE_NUMBA = False


# ---------------------------------------------------------------------------
# gauge evaluation over direction batches
# ---------------------------------------------------------------------------

def poly_gauge_batch(a, binv, x):
    """max_i |<a_i, x>| / b_i for each row of x; a is (m, n), binv = 1/b."""
    return np.max(np.abs(x @ a.T) * binv, axis=1)


def spd_gauge_batch(mat, x):
    """sqrt(x^T A x) for each row of x."""
    return np.sqrt(np.maximum(np.sum((x @ mat) * x, axis=1), 0.0))


# ---------------------------------------------------------------------------
# minimum-volume enclosing ellipsoid of a symmetric point set
# ---------------------------------------------------------------------------
# Maximize log det M(u), M(u) = sum_i u_i x_i x_i^T, over the simplex.  At the
# optimum w_i = x_i^T M^{-1} x_i <= n on all points, with equality where
# u_i > 0; eps = max_i w_i / n - 1 certifies a (1+eps)^{n/2} volume ratio and
# containment within sqrt(1+eps).
#
# Active-set Newton, a fully corrective Frank-Wolfe.  The points are
# whitened by a QR factorization, which leaves every w_i unchanged.  Unless
# the uniform weights already meet tol, the support starts on n spanning
# points picked by largest residual (Kumar and Yildirim 2005).  Each outer
# step moves weight to the point of largest w_i by exact line search, then
# cuts the support until its outer products are linearly independent (so at
# most n(n+1)/2 points), then maximizes log det on the support by Newton's
# method.  A cut moves along z with sum_i z_i x_i x_i^T = 0 and sum z <= 0
# until a weight reaches zero: M is unchanged, so after renormalizing, log
# det has not dropped.  Independence keeps Newton's KKT matrix nonsingular.
# Newton steps are damped by 1/(1 + lambda) (log det is self-concordant, so
# each one gains) until lambda^2 < 1e-10, and full after that; a weight a
# step would take below zero is set to exactly zero and leaves the support.
# The loop ends at tol, after max_iter outer steps, or when a converged
# support optimum already holds the point of largest w_i: there eps is at
# its roundoff floor.

CUT_TOL = 1e-10  # relative singular value below which outer products count as dependent
NEWTON_STEPS = 50


def _spanning(q):
    """n rows of q, each of largest residual after the ones before it."""
    r = q.copy()
    picked = []
    for _ in range(q.shape[1]):
        k = int(np.argmax(np.einsum("ij,ij->i", r, r)))
        picked.append(k)
        r -= np.outer(r @ r[k], r[k] / (r[k] @ r[k]))
    return picked


def _room(v, d):
    """(k, t): the longest step t with v + t d >= 0, and the weight k it
    takes to zero."""
    room = np.full(len(v), np.inf)
    room[d < 0.0] = v[d < 0.0] / -d[d < 0.0]
    k = int(np.argmin(room))
    return k, room[k]


def _cut(z, u):
    """Zero weights of u, in place, until the outer products z_i z_i^T on
    its support are linearly independent; z holds the points as columns,
    in any whitening."""
    while True:
        sup = np.flatnonzero(u)
        s = len(sup)
        outer = np.einsum("ij,kj->jik", z[:, sup], z[:, sup]).reshape(s, -1)
        left, sig, _ = np.linalg.svd(outer)
        if len(sig) == s and sig[-1] > CUT_TOL * sig[0]:
            return
        null = left[:, -1] if np.sum(left[:, -1]) <= 0.0 else -left[:, -1]
        k, room = _room(u[sup], null)
        u[sup] = np.maximum(u[sup] + room * null, 0.0)
        u[sup[k]] = 0.0
        u /= np.sum(u)


def _newton(q, u):
    """Maximize log det M(u) on the support of u, in place; True when the
    Newton decrement reached its floor."""
    sup = np.flatnonzero(u)
    v = u[sup]
    y = q[sup]
    converged = False
    for _ in range(NEWTON_STEPS):
        s = len(v)
        g = y @ np.linalg.solve(y.T @ (y * v[:, None]), y.T)
        kkt = np.ones((s + 1, s + 1))
        kkt[:s, :s] = hess = g * g
        kkt[s, s] = 0.0
        d = np.linalg.solve(kkt, np.append(np.diag(g), 0.0))[:s]
        lam2 = float(d @ hess @ d)
        if lam2 < 1e-24:
            converged = True
            break
        step = 1.0 if lam2 < 1e-10 else 1.0 / (1.0 + np.sqrt(lam2))
        k, room = _room(v, d)
        v = np.maximum(v + min(step, room) * d, 0.0)
        if room <= step:
            v[k] = 0.0
            keep = v > 0.0
            sup, v, y = sup[keep], v[keep], y[keep]
        v /= np.sum(v)
    u[:] = 0.0
    u[sup] = v
    return converged


def mvee_weights(pts, tol, max_iter):
    """Weights u on the rows of pts, the outer steps taken and eps."""
    m, n = pts.shape
    q = np.linalg.qr(pts)[0]
    u = np.full(m, 1.0 / m)
    eps = m * float(np.max(np.einsum("ij,ij->i", q, q))) / n - 1.0
    if eps <= tol:
        return u, 0, eps
    u = np.zeros(m)
    u[_spanning(q)] = 1.0 / n
    converged = True  # equal weights on n independent points: w_i = n on each
    it = 0
    while True:
        on = u > 0.0
        ell = np.linalg.cholesky(q[on].T @ (q[on] * u[on, None]))
        z = np.linalg.solve(ell, q.T)
        w = np.einsum("ij,ij->j", z, z)
        j = int(np.argmax(w))
        eps = float(w[j]) / n - 1.0
        if eps <= tol or it == max_iter or (converged and u[j] > 0.0):
            return u, it, eps
        it += 1
        beta = (w[j] - n) / (n * (w[j] - 1.0))
        u *= 1.0 - beta
        u[j] += beta
        _cut(z, u)
        converged = _newton(q, u)
