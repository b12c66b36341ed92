import itertools

import numpy as np

import helpers
from normspace import FiniteMetric, SpdNorm, extremal_closure, gauge
from normspace import _kernels as K


# Each agreement test compares a library path with its plain-Python loop
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
    assert np.allclose(gauge(SpdNorm(mat), x), ref, rtol=1e-12, atol=1e-14)


def _regular_polygon(k, phase=0.0):
    th = phase + 2 * np.pi * np.arange(k) / k
    return np.stack([np.cos(th), np.sin(th)], axis=1)


def _mvee_inputs():
    rng = helpers.rng_for(602)
    yield "gaussian", rng.standard_normal((30, 2))
    for k in range(3, 13):
        # the k-gon alone is optimal at the uniform weights; the inner copy
        # must lose all its weight to a face of optima
        yield f"{k}-gon", np.vstack([_regular_polygon(k), 0.5 * _regular_polygon(k, np.pi / k)])
    for n in (3, 4):
        cube = np.array(list(itertools.product([-1.0, 1.0], repeat=n)))
        yield f"cube{n}", cube
        yield f"cross{n}", np.vstack([np.eye(n), -np.eye(n)])
        yield f"cube{n}+cross{n}", np.vstack([cube, 1.5 * np.eye(n)])
    yield "repeated", np.repeat(rng.standard_normal((10, 3)), 4, axis=0)
    for n in (2, 3, 4):
        yield f"m=n={n}", rng.standard_normal((n, n))
    for scale in (1e-3, 1e3):
        yield f"scaled{scale:g}", scale * rng.standard_normal((30, 3))
    sphere = rng.standard_normal((300, 3))
    yield "sphere", sphere / np.linalg.norm(sphere, axis=1)[:, None]


def test_mvee_paths_agree():
    for name, pts in _mvee_inputs():
        pts = np.ascontiguousarray(pts)
        u2, _, eps2 = helpers.mvee_weights_loops(pts, 1e-9, 100000)
        assert eps2 <= 1e-9, name
        m2 = pts.T @ (pts * u2[:, None])
        u1, _, eps1 = K.mvee_weights(pts, 1e-9, 100000)
        assert eps1 <= 1e-9, name
        assert np.all(u1 >= 0.0) and abs(np.sum(u1) - 1.0) <= 1e-12, name
        m1 = pts.T @ (pts * u1[:, None])
        scale = np.max(np.abs(m2))
        assert np.allclose(m1 / scale, m2 / scale, rtol=0, atol=1e-7), name
        # the kernel takes eps in whitened coordinates; a fresh inverse in
        # the input's coordinates certifies the same weights
        w = np.sum((pts @ np.linalg.inv(m1)) * pts, axis=1)
        assert np.max(w) / pts.shape[1] - 1.0 <= 1e-9, name


def test_closure_paths_agree():
    # extremal_closure (one sweep, no kernel) against the multi-sweep exact
    # loop oracle, on a float metric read as its binary rationals
    rng = helpers.rng_for(603)
    pts = rng.standard_normal((5, 2))
    d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    f0 = (d.max(axis=1) + rng.uniform(0, 1, size=5)).tolist()
    space = FiniteMetric(d.tolist())
    out = extremal_closure(f0, space)
    rows = space.rows
    assert out == helpers.exact_closure_loops(rows, f0)
    for x in range(5):
        # the fixed point: out[x] = max_{y != x} d[x, y] - out[y]
        assert out[x] == max(rows[x][y] - out[y] for y in range(5) if y != x)
        # admissible and below the start, so an extremal closure of f0
        assert all(out[x] + out[y] >= rows[x][y] for y in range(5))
        assert out[x] <= f0[x]
