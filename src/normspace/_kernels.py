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
# Maximize log det sum_i u_i x_i x_i^T over the simplex (Frank-Wolfe with
# away steps, exact line search).  At the optimum w_i = x_i^T M^{-1} x_i <= n
# on all points; eps = max_i w_i / n - 1 certifies a (1+eps)^{n/2} volume
# ratio and containment within sqrt(1+eps).

def mvee_weights(pts, tol, max_iter):
    m, n = pts.shape
    u = np.full(m, 1.0 / m)
    eps = np.inf
    it = 0
    while it < max_iter:
        mmat = pts.T @ (pts * u.reshape(m, 1))
        minv = np.linalg.inv(mmat)
        w = np.sum((pts @ minv) * pts, axis=1)
        j = int(np.argmax(w))
        wmax = w[j]
        eps = wmax / n - 1.0
        if eps <= tol:
            break
        on_support = u > 0.0
        k = int(np.argmin(np.where(on_support, w, np.inf)))
        wmin = w[k]
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


# ---------------------------------------------------------------------------
# cyclic coordinate descent to the extremal fixed point of a finite metric
# ---------------------------------------------------------------------------

def closure_sweeps(dmat, f, tol, max_sweeps):
    k = dmat.shape[0]
    f = f.copy()
    sweeps = 0
    while sweeps < max_sweeps:
        move = 0.0
        for x in range(k):
            best = 0.0
            row = dmat[x] - f
            for y in range(k):
                if y != x and row[y] > best:
                    best = row[y]
            move = max(move, abs(f[x] - best))
            f[x] = best
        sweeps += 1
        if move <= tol:
            break
    return f, sweeps

