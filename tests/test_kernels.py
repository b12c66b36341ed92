import numpy as np

import helpers
from normspace import _kernels as K


# Each agreement test compares the numpy kernel with its plain-Python loop
# oracle in helpers.py.

def test_poly_gauge_paths_agree():
    rng = helpers.rng_for(600)
    a = rng.standard_normal((7, 2))
    b = rng.uniform(0.5, 2.0, size=7)
    x = rng.standard_normal((500, 2))
    ref = helpers.poly_gauge_batch_loops(a, 1.0 / b, x)
    assert np.allclose(K.poly_gauge_batch(a, 1.0 / b, x), ref, rtol=1e-13, atol=1e-15)


def test_spd_gauge_paths_agree():
    rng = helpers.rng_for(601)
    g = rng.standard_normal((3, 3))
    mat = g.T @ g + 0.25 * np.eye(3)
    x = rng.standard_normal((500, 3))
    ref = helpers.spd_gauge_batch_loops(mat, x)
    assert np.allclose(K.spd_gauge_batch(mat, x), ref, rtol=1e-12, atol=1e-14)


def test_mvee_paths_agree():
    rng = helpers.rng_for(602)
    pts = np.ascontiguousarray(rng.standard_normal((30, 2)))
    u2, it2, eps2 = helpers.mvee_weights_loops(pts, 1e-9, 100000)
    assert eps2 <= 1e-9
    m2 = pts.T @ (pts * u2[:, None])
    u1, it1, eps1 = K.mvee_weights(pts, 1e-9, 100000)
    assert eps1 <= 1e-9
    m1 = pts.T @ (pts * u1[:, None])
    assert np.allclose(m1, m2, atol=1e-7)


def test_closure_paths_agree():
    rng = helpers.rng_for(603)
    pts = rng.standard_normal((5, 2))
    d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    f0 = d.max(axis=1) + rng.uniform(0, 1, size=5)
    out, sweeps = K.closure_sweeps(d, f0.copy(), 1e-12, 1000)
    # the fixed point: out[x] = max_{y != x} d[x, y] - out[y]
    off_diagonal = ~np.eye(5, dtype=bool)
    expected = np.max(np.where(off_diagonal, d - out[None, :], -np.inf), axis=1)
    assert np.allclose(out, expected, rtol=0, atol=1e-12)
    # admissible and below the start, so an extremal closure of f0
    assert np.all(out[:, None] + out[None, :] >= d - 1e-12)
    assert np.all(out <= f0 + 1e-12)
    assert sweeps <= 4  # one sweep reaches the fixed point, one verifies
