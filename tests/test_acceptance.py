"""Acceptance criteria, one test per criterion, tolerances pinned inline.

Each test prints a single PASS line (with its runtime) once its assertions
hold; FAIL lines come from the wrapper when an assertion trips.  Run with
`pytest tests/test_acceptance.py -s` to see the lines.
"""

import math
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

import helpers
from normspace import (
    DiagNorm,
    FiniteMetric,
    LatticeVertex,
    PAdicContext,
    PolyNorm,
    SpdNorm,
    ball_bfs,
    cube_isometries,
    gi_distance,
    gi_distance_bodies,
    helly_triple_campaign,
    helly_witness_na,
    injective_hom_decision,
    john_ellipsoid,
    kuratowski_embed,
    neighbors,
    sampled_sup_ratio,
    tight_span_vertices,
)


@contextmanager
def criterion(num, limit_s, label):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num}: FAIL ({time.perf_counter() - t0:.2f}s) {label}")
        raise
    elapsed = time.perf_counter() - t0
    assert elapsed < limit_s, f"criterion {num} exceeded {limit_s}s: {elapsed:.1f}s"
    print(f"ACCEPTANCE {num}: PASS ({elapsed:.2f}s) {label}")


def test_acceptance_1_apartment_identity():
    with criterion(1, 10, "apartment sup-metric identity, 1000 exact pairs"):
        rng = helpers.rng_for(11)
        primes = [2, 3, 5]
        for trial in range(1000):
            p = primes[trial % 3]
            n = 2 + trial % 3  # dimensions 2..4
            ctx = PAdicContext(p)
            basis = helpers.random_unimodular(rng, n)
            m1 = helpers.random_weights(rng, n)
            m2 = helpers.random_weights(rng, n)
            eta = DiagNorm(ctx, basis, m1)
            etap = DiagNorm(ctx, basis, m2)
            gap = max(abs(a - b) for a, b in zip(m1, m2))
            assert gi_distance(eta, etap) == gap


def test_acceptance_2_helly_witness_na():
    with criterion(2, 60, "non-Archimedean Helly witness, 500 exact families"):
        rng = helpers.rng_for(22)
        primes = [2, 3, 5]
        for trial in range(500):
            p = primes[trial % 3]
            n = 2 if trial % 2 else 3
            ctx = PAdicContext(p)
            k = 3 + trial % 4
            family = [helpers.random_diag_norm(rng, ctx, n) for _ in range(k)]
            dmax = [
                max(gi_distance(a, b) for b in family if b is not a)
                for a in family
            ]
            radii = [d / 2 + Fraction(1 + s, 7) for s, d in enumerate(dmax)]
            theta, _ = helly_witness_na(family, radii)
            for eta, r in zip(family, radii):
                assert gi_distance(theta, eta) <= r


def test_acceptance_3_thickening_degree():
    with criterion(3, 1, "degree 14 at the standard vertex (n=2, p=2)"):
        std = LatticeVertex.standard(PAdicContext(2), 2)
        assert len(neighbors(std)) == 14


def test_acceptance_4_graph_distance_equals_metric():
    with criterion(4, 300, "BFS depth = distance on ball(3) n=2 and ball(2) n=3"):
        std2 = LatticeVertex.standard(PAdicContext(2), 2)
        ball3 = ball_bfs(std2, 3)  # per-vertex depth audit runs inside
        assert len(ball3) > 83
        for v, depth in ball3.values():
            assert gi_distance(std2.norm, v.norm) == depth
        std3 = LatticeVertex.standard(PAdicContext(2), 3)
        ball2 = ball_bfs(std3, 2)
        assert len(ball2) > 129
        for v, depth in ball2.values():
            assert gi_distance(std3.norm, v.norm) == depth


def test_acceptance_5_exhaustive_helly_triples():
    with criterion(5, 300, "exhaustive Helly triples, radii <= 2 on ball(2), n=2 p=2"):
        stats = helly_triple_campaign(PAdicContext(2), 2, 2, 2)
        assert stats["counterexamples"] == 0
        assert stats["pairwise_intersecting_triples"] > 0
        assert stats["centers"] == 83


def test_acceptance_6_john_bound():
    with criterion(6, 60, "John bound log sqrt(n) + 1e-6, cubes and 50+50 random"):
        square = PolyNorm.from_vertices([[1, 1], [1, -1]])
        d2 = gi_distance_bodies(john_ellipsoid(square), square)
        assert abs(d2 - math.log(math.sqrt(2))) <= 1e-6
        cube = PolyNorm.from_vertices(
            [[1, 1, 1], [1, 1, -1], [1, -1, 1], [1, -1, -1]]
        )
        d3 = gi_distance_bodies(john_ellipsoid(cube), cube)
        assert abs(d3 - math.log(math.sqrt(3))) <= 1e-6
        rng = helpers.rng_for(66)
        for _ in range(50):
            k = int(rng.integers(4, 9))
            ang = np.sort(rng.uniform(0, math.pi, size=k))
            rad = rng.uniform(0.5, 2.0, size=k)
            body = PolyNorm.from_vertices(
                np.stack([rad * np.cos(ang), rad * np.sin(ang)], axis=1)
            )
            d = gi_distance_bodies(john_ellipsoid(body), body)
            assert d <= math.log(math.sqrt(2)) + 1e-6
        for _ in range(50):
            pts = rng.standard_normal((int(rng.integers(5, 10)), 3))
            pts /= np.linalg.norm(pts, axis=1)[:, None]
            pts *= rng.uniform(0.6, 1.8, size=(len(pts), 1))
            body = PolyNorm.from_vertices(pts)
            d = gi_distance_bodies(john_ellipsoid(body), body)
            assert d <= math.log(math.sqrt(3)) + 1e-6


def test_acceptance_7_spd_formula_vs_sampling():
    with criterion(7, 30, "eigenvalue distance vs 1e5 sampled directions, 100 pairs"):
        rng = helpers.rng_for(77)
        for trial in range(100):
            g1 = rng.standard_normal((2, 2))
            g2 = rng.standard_normal((2, 2))
            k1 = SpdNorm(g1.T @ g1 + 0.25 * np.eye(2))
            k2 = SpdNorm(g2.T @ g2 + 0.25 * np.eye(2))
            d = gi_distance_bodies(k1, k2)
            s = sampled_sup_ratio(k1, k2, 100_000, seed=trial)
            assert s <= d + 1e-9
            assert d - s <= 0.01


def test_acceptance_8_intersection_witness():
    with criterion(8, 60, "polytope intersection witness, 200 families in R^2"):
        rng = helpers.rng_for(88)
        for trial in range(200):
            count = 3 + trial % 3
            fam = []
            for _ in range(count):
                k = int(rng.integers(4, 9))
                ang = np.sort(rng.uniform(0, math.pi, size=k))
                rad = rng.uniform(0.5, 2.0, size=k)
                fam.append(PolyNorm.from_vertices(
                    np.stack([rad * np.cos(ang), rad * np.sin(ang)], axis=1)
                ))
            dmat = [[gi_distance_bodies(a, b) for b in fam] for a in fam]
            radii = [max(row) / 2 + 0.02 for row in dmat]
            from normspace.bodies import coarse_helly_details

            details = coarse_helly_details(fam, radii)
            for d, r in zip(details["distances"], radii):
                assert d <= r + 1e-6


def test_acceptance_9_tight_spans():
    with criterion(9, 10, "tight span closed forms + isometric embedding"):
        two = FiniteMetric([[0, 6], [6, 0]])
        assert tight_span_vertices(two) == [[0, 6], [6, 0]]
        tri = FiniteMetric([[0, 3, 4], [3, 0, 5], [4, 5, 0]])
        verts = tight_span_vertices(tri)
        assert verts == [
            [0, 3, 4], [1, 2, 3], [3, 0, 5], [4, 5, 0]]
        assert all(isinstance(x, Fraction) for v in verts for x in v)
        rng = helpers.rng_for(99)
        for _ in range(5):
            mats = []
            for _ in range(6):
                g = rng.standard_normal((2, 2))
                mats.append(SpdNorm(g.T @ g + 0.25 * np.eye(2)))
            d = [[gi_distance_bodies(a, b) for b in mats] for a in mats]
            for i in range(6):
                d[i][i] = 0.0
            space = FiniteMetric(d)
            e = kuratowski_embed(space)
            for i in range(6):
                for j in range(6):
                    assert helpers.ts_distance(e[i], e[j]) == space.rows[i][j]


def test_acceptance_10_obstruction():
    with criterion(10, 60, "special-linear obstruction endgame"):
        assert len(cube_isometries(2)) == 8
        assert len(cube_isometries(3)) == 48
        expected_reasons = {
            3: "element-order",
            5: "lagrange", 6: "lagrange", 7: "lagrange",
            8: "simplicity",
            9: "lagrange", 10: "lagrange", 11: "lagrange", 12: "lagrange",
        }
        for n, reason in expected_reasons.items():
            rep = injective_hom_decision(n)
            assert rep.verdict == "impossible", n
            assert rep.reason == reason, (n, rep.reason)
        rep4 = injective_hom_decision(4)
        assert rep4.verdict == "exists"
        from normspace.obstruction import verify_embedding_certificate

        assert verify_embedding_certificate(4, rep4.certificate)
