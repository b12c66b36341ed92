import math

import numpy as np
import pytest

import helpers
from normspace import (
    MeetNorm,
    PairwiseRadiusError,
    PolyNorm,
    SpdNorm,
    UsageError,
    body_from_json,
    body_to_json,
    gauge,
    gi_distance_bodies,
    john_ellipsoid,
    polar,
    sampled_sup_ratio,
)
from normspace import polyhedra
from normspace.bodies import MVEE_TOL, coarse_helly_details, mvee_certified

SQUARE = PolyNorm.from_vertices([[1, 1], [1, -1]])
DISC = SpdNorm(np.eye(2))
CROSS2 = PolyNorm.from_vertices([[1, 0], [0, 1]])


def random_polygon(rng, k=None):
    k = k or int(rng.integers(4, 9))
    ang = np.sort(rng.uniform(0, np.pi, size=k))
    rad = rng.uniform(0.5, 2.0, size=k)
    pts = np.stack([rad * np.cos(ang), rad * np.sin(ang)], axis=1)
    return PolyNorm.from_vertices(pts)


def random_symmetric_polytope3(rng, k=8):
    pts = rng.standard_normal((k, 3))
    pts /= np.linalg.norm(pts, axis=1)[:, None] / rng.uniform(0.6, 1.8, size=(k, 1)).ravel()[:, None]
    return PolyNorm.from_vertices(pts)


def random_spd(rng, n):
    g = rng.standard_normal((n, n))
    return SpdNorm(g.T @ g + 0.25 * np.eye(n))


def helly_radii(fam, pad=0.05):
    """Radii max_k d(K_i, K_k) / 2 + pad, which pass the pairwise check."""
    return [max(gi_distance_bodies(a, b) for b in fam) / 2 + pad for a in fam]


# -- construction guards --

def test_spd_validation():
    with pytest.raises(UsageError):
        SpdNorm([[1, 0.1], [0, 1]])  # asymmetric beyond 1e-12
    with pytest.raises(UsageError):
        SpdNorm([[1, 0], [0, -1]])  # not positive definite


def test_polynorm_validation():
    with pytest.raises(UsageError):
        PolyNorm([[1, 0], [0, 1]], [1, 1], [[2, 0]])  # vertex escapes a facet
    with pytest.raises(UsageError):
        PolyNorm([[1, 0], [0, 1]], [1, -1], [[0.5, 0.5]])  # negative offset
    with pytest.raises(UsageError):
        PolyNorm([[1, 0]], [1], [[1, 0], [-1, 0]])  # vertices do not span


@pytest.mark.parametrize("build", [
    lambda: SpdNorm([[1, 0], [0, np.nan]]),
    lambda: PolyNorm([[1, 0], [0, 1]], [1, np.inf], [[1, 1], [1, -1]]),
    lambda: PolyNorm([[1, 0], [0, 1]], [1, 1], [[1, np.nan], [1, -1]]),
    lambda: PolyNorm.from_facets([[1, 0], [0, 1]], [1, np.nan]),
    lambda: PolyNorm.from_facets([[1, 0], [np.inf, 1]], [1, 1]),
    lambda: PolyNorm.from_vertices([[1, np.nan], [1, -1]]),
    lambda: mvee_certified([[np.nan, 0], [0, 1]]),
    lambda: coarse_helly_details([SQUARE, SQUARE], [np.nan, 0.1]),
    lambda: coarse_helly_details([SQUARE, SQUARE], [np.inf, 0.1]),
], ids=["spd", "poly-offset", "poly-vertex", "from-facets-offset",
        "from-facets-normal", "from-vertices", "mvee", "radius-nan", "radius-inf"])
def test_non_finite_input_is_usage_error(build):
    with pytest.raises(UsageError, match="finite"):
        build()


# -- gauge --

def test_gauge_examples():
    assert gauge(SQUARE, [1, 1]) == pytest.approx(1.0)
    assert gauge(DISC, [3, 4]) == pytest.approx(5.0)
    assert gauge(SQUARE, [0, 0]) == 0.0


def test_gauge_homogeneous():
    rng = helpers.rng_for(400)
    body = random_polygon(rng)
    v = rng.standard_normal(2)
    assert gauge(body, 3.5 * v) == pytest.approx(3.5 * gauge(body, v))
    assert gauge(body, -v) == pytest.approx(gauge(body, v))


def test_gauge_membership_matches_lp():
    rng = helpers.rng_for(401)
    body = random_polygon(rng)
    a = np.vstack([body.a, -body.a])
    b = np.concatenate([body.b, body.b])
    for _ in range(40):
        v = 2.0 * rng.standard_normal(2)
        inside_lp = bool(np.all(a @ v <= b + 1e-12))
        assert inside_lp == (gauge(body, v) <= 1 + 1e-12)


# -- distances --

def test_flat_identity_diagonal_spd():
    m = np.array([1.0, -3.0])
    a1 = SpdNorm(np.diag(np.exp(2 * m)))
    a2 = SpdNorm(np.eye(2))
    assert gi_distance_bodies(a1, a2) == pytest.approx(3.0, abs=1e-12)


def test_flat_identity_random_weights():
    rng = helpers.rng_for(402)
    for n in (2, 3):
        for _ in range(20):
            m1 = rng.uniform(-2, 2, size=n)
            m2 = rng.uniform(-2, 2, size=n)
            k1 = SpdNorm(np.diag(np.exp(2 * m1)))
            k2 = SpdNorm(np.diag(np.exp(2 * m2)))
            assert gi_distance_bodies(k1, k2) == pytest.approx(
                np.max(np.abs(m1 - m2)), abs=1e-9
            )


def test_distance_zero_and_symmetry():
    rng = helpers.rng_for(403)
    for make in (lambda: random_spd(rng, 2), lambda: random_polygon(rng)):
        k = make()
        assert gi_distance_bodies(k, k) <= 1e-12
    a, b = random_spd(rng, 2), random_polygon(rng)
    assert gi_distance_bodies(a, b) == gi_distance_bodies(b, a)
    for _ in range(300):  # SPD pairs too: symmetric to the bit
        a, b = random_spd(rng, 2), random_spd(rng, 2)
        assert gi_distance_bodies(a, b) == gi_distance_bodies(b, a)


def test_disc_vs_square():
    assert gi_distance_bodies(DISC, SQUARE) == pytest.approx(0.5 * math.log(2), abs=1e-12)


def test_metric_axioms_mixed_triples():
    rng = helpers.rng_for(404)
    for _ in range(15):
        ks = [random_spd(rng, 2), random_polygon(rng), random_polygon(rng)]
        d01 = gi_distance_bodies(ks[0], ks[1])
        d02 = gi_distance_bodies(ks[0], ks[2])
        d12 = gi_distance_bodies(ks[1], ks[2])
        assert d01 >= 0 and d02 >= 0 and d12 >= 0
        assert d02 <= d01 + d12 + 1e-7


def test_eigen_formula_dominates_sampling():
    rng = helpers.rng_for(405)
    for trial in range(10):
        k1, k2 = random_spd(rng, 2), random_spd(rng, 2)
        d = gi_distance_bodies(k1, k2)
        s = sampled_sup_ratio(k1, k2, 100_000, seed=trial)
        assert s <= d + 1e-9
        assert d - s <= 0.01


def test_sampled_ratio_identical_bodies():
    assert sampled_sup_ratio(SQUARE, SQUARE, 1000, seed=1) == 0.0


def test_sampled_ratio_disc_square():
    s = sampled_sup_ratio(DISC, SQUARE, 100_000, seed=7)
    assert abs(s - 0.5 * math.log(2)) < 0.01


def test_sampled_ratio_monotone_in_sample_count():
    # the PCG64 stream makes smaller samples prefixes of larger ones
    rng = helpers.rng_for(416)
    k1, k2 = random_spd(rng, 2), random_polygon(rng)
    vals = [sampled_sup_ratio(k1, k2, n, seed=3) for n in (100, 1000, 10_000)]
    assert vals[0] <= vals[1] <= vals[2]


# -- polar --

def test_polar_cube_cross():
    p = polar(SQUARE)
    assert gi_distance_bodies(p, CROSS2) <= 1e-12
    again = polar(p)
    assert gi_distance_bodies(again, SQUARE) <= 1e-12


def test_polar_gauge_duality():
    rng = helpers.rng_for(406)
    body = random_polygon(rng)
    pol = polar(body)
    full = np.vstack([body.vertices, -body.vertices])
    for _ in range(1000):
        u = rng.standard_normal(2)
        expect = np.max(full @ u)
        assert gauge(pol, u) == pytest.approx(expect, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("n", [2, 3])
def test_polar_duality_preserves_distance(n):
    # d(polar K, polar L) = d(K, L); each polar is enumerated exactly from
    # the facets |<w, x>| <= 1 over the vertices w of the body
    rng = helpers.rng_for(407 + n)
    for _ in range(8):
        pair = [PolyNorm.from_vertices(rng.standard_normal((8, n))) for _ in range(2)]
        polars = [PolyNorm.from_facets(b.vertices, np.ones(len(b.vertices))) for b in pair]
        assert gi_distance_bodies(*polars) == pytest.approx(gi_distance_bodies(*pair), rel=1e-9)


# -- mvee --

def test_mvee_square_vertices():
    ell, info = mvee_certified([[1, 1], [1, -1]])
    assert info["eps"] <= 1e-6
    # disc of radius sqrt(2): matrix I/2
    assert np.allclose(ell.matrix, np.eye(2) / 2, atol=1e-7)


def test_mvee_axis_aligned_ellipse_recovered():
    th = np.arange(7) * np.pi / 7
    pts = np.stack([3 * np.cos(th), 0.5 * np.sin(th)], axis=1)
    ell, info = mvee_certified(pts)
    assert info["eps"] <= 1e-6
    assert np.allclose(ell.matrix, np.diag([1 / 9, 4.0]), atol=1e-6)


def test_mvee_random_certificate():
    rng = helpers.rng_for(407)
    for n in (2, 3):
        pts = rng.standard_normal((20, n))
        ell, info = mvee_certified(pts)
        assert info["eps"] <= 1e-6
        g = gauge(ell, pts)
        assert np.max(g) <= 1 + 1e-9  # containment is exact after rescaling


def test_mvee_jittered_polygon_converges_in_few_steps():
    # near-ties among 100 almost-active points: Frank-Wolfe with away steps
    # took 751,372 steps on this input
    th = 2 * np.pi * np.arange(100) / 100
    pts = np.stack([np.cos(th), np.sin(th)], axis=1)
    pts += 1e-6 * helpers.rng_for(431).standard_normal(pts.shape)
    ell, info = mvee_certified(pts)
    assert info["eps"] <= MVEE_TOL and info["iterations"] <= 50
    assert np.max(gauge(ell, pts)) <= 1 + 1e-9


def test_mvee_degenerate_raises():
    with pytest.raises(UsageError):
        mvee_certified([[1, 0], [2, 0], [-1, 0]])


def test_mvee_matches_sdp_oracle():
    cp = pytest.importorskip("cvxpy")
    rng = helpers.rng_for(417)
    for n in (2, 3):
        pts = rng.standard_normal((12, n))
        amat = cp.Variable((n, n), PSD=True)
        cons = [cp.quad_form(p, amat) <= 1 for p in pts]
        prob = cp.Problem(cp.Maximize(cp.log_det(amat)), cons)
        prob.solve()
        assert prob.status == "optimal"
        ours, info = mvee_certified(pts)
        assert info["eps"] <= 1e-6
        # agreement is limited by the SDP solver's own feasibility tolerance
        assert np.max(np.abs(amat.value - ours.matrix)) < 1e-4


def test_mvee_matches_the_frank_wolfe_oracle():
    # the same clouds as the SDP oracle above, against the loop oracle in
    # helpers, which needs no solver: A = M(u)^{-1} / max_i w_i
    rng = helpers.rng_for(417)
    for n in (2, 3):
        pts = rng.standard_normal((12, n))
        u, _, eps = helpers.mvee_weights_loops(pts, 1e-9, 100000)
        assert eps <= 1e-9
        minv = np.linalg.inv(pts.T @ (pts * u[:, None]))
        oracle = minv / np.max(np.sum((pts @ minv) * pts, axis=1))
        ours, info = mvee_certified(pts)
        assert info["eps"] <= 1e-6
        assert np.max(np.abs(oracle - ours.matrix)) < 1e-4


@pytest.mark.parametrize("n", [2, 3, 4])
def test_mvee_meets_johns_optimality_condition(n):
    # John (1948): {x^T A x <= 1} is the least-volume centred ellipsoid
    # around the points iff A^{-1} = n sum_i u_i x_i x_i^T for some u >= 0
    # with sum u = 1, supported on the contact points x_i^T A x_i = 1
    from scipy.optimize import nnls

    rng = helpers.rng_for(430 + n)
    for k in (2 * n, 12, 60):
        pts = rng.standard_normal((k, n))
        ell, _ = mvee_certified(pts)
        amat = ell.matrix
        contact = pts[np.sum((pts @ amat) * pts, axis=1) >= 1 - 1e-6]
        target = np.linalg.inv(amat)
        lhs = np.vstack([n * np.einsum("ki,kj->ijk", contact, contact).reshape(n * n, -1),
                         np.ones(len(contact))])
        rhs = np.append(target.ravel(), 1.0)
        _, residual = nnls(lhs, rhs)
        assert residual <= 1e-5 * np.linalg.norm(rhs)
        # the same test refuses a slightly shrunk ellipsoid's inverse
        _, off = nnls(lhs, np.append(1.01 * target.ravel(), 1.0))
        assert off > 1e-4


def test_spd_distance_matches_lapack_generalized_eig():
    from scipy.linalg import eigh as scipy_eigh

    rng = helpers.rng_for(418)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        k1, k2 = random_spd(rng, n), random_spd(rng, n)
        lam = scipy_eigh(k1.matrix, k2.matrix, eigvals_only=True)
        oracle = 0.5 * np.max(np.abs(np.log(lam)))
        assert gi_distance_bodies(k1, k2) == pytest.approx(oracle, abs=1e-10)


# -- john ellipsoid --

def test_john_square_is_unit_disc():
    ell = john_ellipsoid(SQUARE)
    assert np.allclose(ell.matrix, np.eye(2), atol=1e-7)
    assert gi_distance_bodies(ell, SQUARE) == pytest.approx(
        math.log(math.sqrt(2)), abs=1e-6
    )


def test_john_cross_polytope():
    ell = john_ellipsoid(CROSS2)
    # inscribed disc of radius 1/sqrt(2): matrix 2 I
    assert np.allclose(ell.matrix, 2 * np.eye(2), atol=1e-6)


def test_john_bound_random_2d_3d():
    rng = helpers.rng_for(408)
    for _ in range(10):
        body = random_polygon(rng)
        ell = john_ellipsoid(body)
        assert gi_distance_bodies(ell, body) <= math.log(math.sqrt(2)) + 1e-6
    for _ in range(5):
        body = random_symmetric_polytope3(rng)
        ell = john_ellipsoid(body)
        assert gi_distance_bodies(ell, body) <= math.log(math.sqrt(3)) + 1e-6


def test_john_inscribed_facet_condition():
    rng = helpers.rng_for(409)
    body = random_polygon(rng)
    ell = john_ellipsoid(body)
    q = np.linalg.inv(ell.matrix)
    vals = np.sum((body.a @ q) * body.a, axis=1)
    assert np.all(vals <= body.b ** 2 * (1 + 1e-6))


def test_john_reads_its_form_and_factor_off_the_mvee(monkeypatch):
    """John's form is max_w R^T R and its factor sqrt(max_w) R^T with a
    positive diagonal, read off the MVEE's R: a call inverts nothing past
    the MVEE's R and factors no form past the MVEE's own.  Both certificates
    stay live: a corrupted MVEE matrix escapes a facet, a corrupted max_w
    breaks the John bound."""
    calls = {"inv": 0, "SpdNorm": 0}
    inv, spd_init = np.linalg.inv, SpdNorm.__init__

    def counted_inv(*args):
        calls["inv"] += 1
        return inv(*args)

    def counted_init(self, *args):
        calls["SpdNorm"] += 1
        spd_init(self, *args)

    rng = helpers.rng_for(410)
    polys = [PolyNorm.from_vertices(rng.standard_normal((n + 3, n))) for n in (2, 3, 4)]
    monkeypatch.setattr(np.linalg, "inv", counted_inv)
    monkeypatch.setattr(SpdNorm, "__init__", counted_init)
    for body in polys:
        calls.update(inv=0, SpdNorm=0)
        john = john_ellipsoid(body)
        assert calls == {"inv": 1, "SpdNorm": 1}
        ell = john.factor
        assert np.array_equal(ell, np.tril(ell)) and np.all(np.diag(ell) > 0)
        assert np.allclose(ell @ ell.T, john.matrix, rtol=1e-13, atol=0)
        outer, _ = mvee_certified(body.a / body.b[:, None])
        assert np.allclose(john.matrix @ outer.matrix, np.eye(body.dim), atol=1e-9)
    monkeypatch.undo()
    real = mvee_certified
    for corrupt, message in ((lambda ell, info: (SpdNorm(4 * ell.matrix), info), "escapes a facet"),
                             (lambda ell, info: (ell, {**info, "max_w": 4 * info["max_w"]}),
                              "John bound violated")):
        monkeypatch.setattr("normspace.bodies.mvee_certified",
                            lambda pts, corrupt=corrupt: corrupt(*real(pts)))
        with pytest.raises(RuntimeError, match=message):
            john_ellipsoid(polys[0])


# -- the meet of a ball family, certified by its pairwise distances --

def test_spd_to_polytope_error_bound():
    # the tangent-polytope oracle's own bound, which the comparison below uses
    rng = helpers.rng_for(410)
    for n in (2, 3):
        for _ in range(3):
            ell = random_spd(rng, n)
            poly = PolyNorm.from_facets(*helpers.spd_to_polytope(ell))
            d = gi_distance_bodies(poly, ell)
            assert d <= helpers.SPD_APPROX_LOG_BOUND[n]


def spd_families(n):
    """An SPD-only family and, in 2D and 3D, a mixed one."""
    rng = helpers.rng_for(417 + n)
    count = 3 if n == 2 else 2
    yield [random_spd(rng, n) for _ in range(count)]
    if n <= 3:
        yield [random_spd(rng, n), random_polytope(rng, n), random_spd(rng, n)]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_meet_distances_bound_the_sampled_ratios(n):
    for fam in spd_families(n):
        details = coarse_helly_details(fam, helly_radii(fam))
        w = details["witness"]
        assert isinstance(w, MeetNorm)
        for i, body in enumerate(fam):
            # the bound r_i is attained where part i is active; the sampled
            # log(gauge_i e^{-r_i}) - log(gauge_i) reaches it up to rounding
            low = sampled_sup_ratio(w, body, 20000, 430 + 10 * n + i)
            assert low <= details["distances"][i] + 1e-12
            assert details["distances"][i] <= details["allowed"][i]


@pytest.mark.parametrize("n", [2, 3])
def test_witness_matches_the_per_body_oracle(n):
    # the oracle replaces each ellipsoid by its tangent polytope: it contains
    # the meet, and its gauge is within its log bound of the meet's
    dirs = helpers.rng_for(420 + n).standard_normal((5000, n))
    for fam in spd_families(n):
        radii = helly_radii(fam)
        w = coarse_helly_details(fam, radii)["witness"]
        oracle = helpers.tangent_polytope_witness(fam, radii)
        gap = np.log(gauge(w, dirs)) - np.log(gauge(oracle, dirs))
        assert gap.min() >= -1e-12
        assert gap.max() <= helpers.SPD_APPROX_LOG_BOUND[n]


def test_a_polytope_family_gets_the_meet_and_no_enumeration(monkeypatch):
    rng = helpers.rng_for(419)
    fam = [random_polygon(rng) for _ in range(3)]
    radii = helly_radii(fam)
    calls = []
    monkeypatch.setattr(polyhedra, "vertex_enum_exact", lambda f: calls.append(f))
    w = coarse_helly_details(fam, radii)["witness"]
    assert isinstance(w, MeetNorm)
    assert (w.parts, w.log_scales) == (tuple(fam), tuple(radii))
    assert calls == []


def test_witness_identical_bodies_radius_zero():
    details = coarse_helly_details([SQUARE, SQUARE], [0.0, 0.0])
    assert details["distances"] == [0.0, 0.0]
    w = helpers.tangent_polytope_witness(details["witness"].parts, [0.0, 0.0])
    assert gi_distance_bodies(w, SQUARE) <= 1e-12


def test_witness_scaled_copies():
    k1 = SQUARE
    k2 = PolyNorm.from_vertices(2.0 * np.asarray(SQUARE.vertices))
    r = 0.5 * math.log(2)
    details = coarse_helly_details([k1, k2], [r, r])
    assert details["distances"] == [r, r]
    # the meet is sqrt(2) K1, at distance exactly r from both
    w = helpers.tangent_polytope_witness([k1, k2], [r, r])
    assert gi_distance_bodies(w, k1) == pytest.approx(r, abs=1e-9)
    assert gi_distance_bodies(w, k2) == pytest.approx(r, abs=1e-9)


def test_witness_random_polygon_families():
    rng = helpers.rng_for(411)
    for _ in range(15):
        fam = [random_polygon(rng) for _ in range(int(rng.integers(3, 6)))]
        dmat = [[gi_distance_bodies(a, b) for b in fam] for a in fam]
        radii = [max(row) / 2 + 0.05 for row in dmat]
        details = coarse_helly_details(fam, radii)
        # the returned distances bound those of the meet, enumerated exactly
        meet = helpers.tangent_polytope_witness(fam, radii)
        for body, d, allowed in zip(fam, details["distances"], details["allowed"]):
            assert gi_distance_bodies(meet, body) <= d + 1e-12
            assert d <= allowed


def test_witness_mixed_spd_polytope():
    rng = helpers.rng_for(412)
    fam = [random_spd(rng, 2), random_polygon(rng), random_polygon(rng)]
    dmat = [[gi_distance_bodies(a, b) for b in fam] for a in fam]
    radii = [max(row) / 2 + 0.05 for row in dmat]
    details = coarse_helly_details(fam, radii)
    assert isinstance(details["witness"], MeetNorm)
    for d, allowed in zip(details["distances"], details["allowed"]):
        assert d <= allowed


def test_witness_3d_polytopes():
    rng = helpers.rng_for(413)
    cube = PolyNorm.from_vertices([[1, 1, 1], [1, 1, -1], [1, -1, 1], [1, -1, -1]])
    octa = PolyNorm.from_vertices([[1.3, 0, 0], [0, 1.1, 0], [0, 0, 0.9]])
    rnd = random_symmetric_polytope3(rng, 7)
    fam = [cube, octa, rnd]
    dmat = [[gi_distance_bodies(a, b) for b in fam] for a in fam]
    radii = [max(row) / 2 + 0.05 for row in dmat]
    details = coarse_helly_details(fam, radii)
    for d, allowed in zip(details["distances"], details["allowed"]):
        assert d <= allowed


def test_witness_3d_with_spd_input():
    rng = helpers.rng_for(414)
    cube = PolyNorm.from_vertices([[1, 1, 1], [1, 1, -1], [1, -1, 1], [1, -1, -1]])
    ell = random_spd(rng, 3)
    fam = [ell, cube]
    dmat = [[gi_distance_bodies(a, b) for b in fam] for a in fam]
    radii = [max(row) / 2 + 0.05 for row in dmat]
    details = coarse_helly_details(fam, radii)
    assert isinstance(details["witness"], MeetNorm)
    for d, allowed in zip(details["distances"], details["allowed"]):
        assert d <= allowed


def test_mvee_anisotropic_inputs():
    rng = helpers.rng_for(415)
    for scale in (1e2, 1e3):
        pts = rng.standard_normal((25, 2)) * np.array([scale, 1.0 / scale])
        _, info = mvee_certified(pts)
        assert info["eps"] <= 1e-6
        pts3 = rng.standard_normal((30, 3)) * np.array([scale, 1.0, 1.0 / scale])
        _, info = mvee_certified(pts3)
        assert info["eps"] <= 1e-6


def test_witness_violation_reports_pair():
    far = PolyNorm.from_vertices(100.0 * np.asarray(SQUARE.vertices))
    with pytest.raises(PairwiseRadiusError) as exc:
        coarse_helly_details([SQUARE, far], [0.1, 0.1])
    assert exc.value.pair == (0, 1)


# -- GL-equivariance: d(gK, gK') = d(K, K'), and witnesses move with g --

ROT90 = [[0.0, -1.0], [1.0, 0.0]]
ROT90_Z = [[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]


def moved(g, body):
    """The image gK, whose gauge is y -> gauge_K(g^{-1} y)."""
    g = np.asarray(g, dtype=float)
    ginv = np.linalg.inv(g)
    if isinstance(body, MeetNorm):
        return MeetNorm([moved(g, k) for k in body.parts], body.log_scales)
    if isinstance(body, SpdNorm):
        m = ginv.T @ body.matrix @ ginv
        return SpdNorm(0.5 * (m + m.T))
    return PolyNorm(body.a @ ginv, body.b, body.vertices @ g.T)


def seeded_maps(n, seed):
    """A quarter turn plus three seeded maps in GL_n(R) with |det| >= 0.3."""
    rng = helpers.rng_for(seed)
    maps = [ROT90 if n == 2 else ROT90_Z]
    while len(maps) < 4:
        g = rng.standard_normal((n, n))
        if abs(np.linalg.det(g)) >= 0.3:
            maps.append(g)
    return maps


def random_polytope(rng, n):
    return random_polygon(rng) if n == 2 else random_symmetric_polytope3(rng)


@pytest.mark.parametrize("n", [2, 3])
def test_distance_is_gl_equivariant(n):
    rng = helpers.rng_for(470 + n)
    spd = [random_spd(rng, n) for _ in range(2)]
    poly = [random_polytope(rng, n) for _ in range(2)]
    pairs = [(spd[0], spd[1]), (spd[0], poly[0]), (poly[1], spd[1]), (poly[0], poly[1])]
    for g in seeded_maps(n, 472 + n):
        for k1, k2 in pairs:
            d = gi_distance_bodies(k1, k2)
            assert gi_distance_bodies(moved(g, k1), moved(g, k2)) == pytest.approx(d, rel=1e-9)


@pytest.mark.parametrize("n", [2, 3])
def test_polytope_witness_is_gl_equivariant(n):
    rng = helpers.rng_for(474 + n)
    polys = [random_polytope(rng, n) for _ in range(3)]
    x = rng.standard_normal((200, n))
    spds = [random_spd(rng, n) for _ in range(3)]
    for fam in (polys, spds, [spds[0], polys[0], polys[1]]):
        radii = helly_radii(fam)
        w = coarse_helly_details(fam, radii)["witness"]
        for g in seeded_maps(n, 476 + n):
            wg = coarse_helly_details([moved(g, k) for k in fam], radii)["witness"]
            if isinstance(w, PolyNorm):
                assert gi_distance_bodies(wg, moved(g, w)) <= 1e-9
            else:  # gauge(W(gK), g x) = gauge(W(K), x)
                assert gauge(wg, x @ np.asarray(g).T) == pytest.approx(gauge(w, x), rel=1e-12)


def test_quarter_turn_invariant_family_has_invariant_witness():
    fam = [SQUARE, PolyNorm.from_vertices(1.5 * np.asarray(SQUARE.vertices)),
           SpdNorm(0.8 * np.eye(2))]
    for k in fam:
        assert gi_distance_bodies(moved(ROT90, k), k) <= 1e-12
    w = coarse_helly_details(fam, helly_radii(fam, pad=0.01))["witness"]
    x = helpers.rng_for(478).standard_normal((200, 2))
    assert gauge(moved(ROT90, w), x) == pytest.approx(gauge(w, x), rel=1e-12)


# -- serialization --

MEET = MeetNorm([SQUARE, DISC], [0.1, 0.2])


def test_body_json_roundtrip():
    for body in (SQUARE, DISC, MEET):
        doc = body_to_json(body)
        again = body_from_json(doc)
        assert body_to_json(again) == doc
        if not isinstance(body, MeetNorm):
            assert gi_distance_bodies(body, again) <= 1e-12
    with pytest.raises(UsageError):
        body_from_json({"kind": "mystery"})


MEET_PARTS = [body_to_json(SQUARE), body_to_json(DISC)]


@pytest.mark.parametrize("doc", [
    {"kind": "meet", "parts": MEET_PARTS, "log_scales": [0.1]},
    {"kind": "meet", "parts": MEET_PARTS, "log_scales": [0.1, -0.2]},
    {"kind": "meet", "parts": MEET_PARTS, "log_scales": [0.1, float("nan")]},
    {"kind": "meet", "parts": MEET_PARTS, "log_scales": [0.1, float("inf")]},
    {"kind": "meet", "parts": [MEET_PARTS[0], body_to_json(SpdNorm(np.eye(3)))],
     "log_scales": [0.1, 0.2]},
    {"kind": "meet", "parts": [body_to_json(MEET), MEET_PARTS[1]], "log_scales": [0.1, 0.2]},
    {"kind": "meet", "parts": [], "log_scales": []},
    {"kind": "meet", "parts": MEET_PARTS},
    {"kind": "meet", "parts": MEET_PARTS, "log_scales": ["x", 0.2]},
], ids=["unequal-lengths", "negative-scale", "nan-scale", "inf-scale", "mixed-dimensions",
        "nested", "empty", "missing-scales", "string-scale"])
def test_malformed_meet_json_is_usage_error(doc):
    with pytest.raises(UsageError):
        body_from_json(doc)


def test_meet_has_no_closed_form_distance_and_no_john_ellipsoid():
    for pair in ((MEET, DISC), (SQUARE, MEET)):
        with pytest.raises(UsageError, match="meet"):
            gi_distance_bodies(*pair)
    with pytest.raises(UsageError):
        john_ellipsoid(MEET)


def test_json_floats_roundtrip_exactly():
    import json

    body = SpdNorm([[1 / 3, 0.0], [0.0, math.pi]])
    doc = json.loads(json.dumps(body_to_json(body)))
    again = body_from_json(doc)
    assert np.array_equal(again.matrix, body.matrix)


TINY_SPD = SpdNorm([[1e-310, 0.0], [0.0, 1.0]])
FLIPPED_SPD = SpdNorm([[1.0, 0.0], [0.0, 1e-310]])


# equal determinants, so the factor quotient is diag(1e154 / 2.2e-162, ...):
# its larger singular value, e^d with d about 727, is beyond the float range
HUGE_SPD = SpdNorm(np.diag([1e308, 5e-324]))
HUGE_FLIPPED_SPD = SpdNorm(np.diag([5e-324, 1e308]))


def test_an_spd_pencil_beyond_the_float_range_is_a_usage_error():
    for a, b in ((HUGE_SPD, HUGE_FLIPPED_SPD), (HUGE_FLIPPED_SPD, HUGE_SPD)):
        with pytest.raises(UsageError, match="pencil must be finite.*beyond the float range"):
            gi_distance_bodies(a, b)
    with pytest.raises(UsageError, match="pencil must be finite"):
        coarse_helly_details([HUGE_SPD, HUGE_FLIPPED_SPD], [400.0, 400.0])


def test_an_spd_pencil_overflowing_both_whitenings_answers():
    # whitened by either form the pencil has an entry near 1e310; the factor
    # quotient diag(1e155, 1e-155) does not leave the float range
    want = 0.5 * abs(math.log(1e-310))
    got = {gi_distance_bodies(a, b) for a, b in ((FLIPPED_SPD, TINY_SPD), (TINY_SPD, FLIPPED_SPD))}
    assert got == {356.9006894140771}
    assert got.pop() == pytest.approx(want, rel=1e-14)
    details = coarse_helly_details([FLIPPED_SPD, TINY_SPD], [400.0, 400.0])
    assert all(d <= r for d, r in zip(details["distances"], details["allowed"]))


def test_an_spd_pencil_with_a_subnormal_form_answers_in_both_orders():
    # A = diag(1e-310, 1) against the identity: the factor quotient's singular
    # values are 1e-155 and 1, so both orders give 0.5 |ln 1e-310| to the bit
    want = 0.5 * abs(math.log(1e-310))
    assert gi_distance_bodies(DISC, TINY_SPD) == gi_distance_bodies(TINY_SPD, DISC) == want


WIDE_SPD = (SpdNorm([[1e-200, 0.0], [0.0, 1.0]]), SpdNorm([[1e200, 0.0], [0.0, 1.0]]))


def test_an_spd_pencil_spanning_1e400_answers_in_both_orders():
    # the pencil's spectrum 1e-200, 1e200 is wider than the float range; the
    # factor quotient's singular values are its square roots, 1e-100 and 1e100
    want = 200 * math.log(10)  # 0.5 ln(1e400)
    a, b = WIDE_SPD
    assert gi_distance_bodies(a, b) == gi_distance_bodies(b, a)
    assert gi_distance_bodies(a, b) == pytest.approx(want, rel=1e-14)
    details = coarse_helly_details(list(WIDE_SPD), [231.0, 231.0])
    assert all(d <= r for d, r in zip(details["distances"], details["allowed"]))


def test_an_spd_pencil_wider_than_the_float_range_answers():
    # the pencil's spectrum is 1e-320, 1e300, wider than the float range
    # even centered by a power of two; the factor quotient's is its square
    # root, diag(1e-160, 1e150)
    a, b = SpdNorm(np.diag([1e-300, 1e10])), SpdNorm(np.diag([1e20, 1e-290]))
    got = {gi_distance_bodies(a, b), gi_distance_bodies(b, a)}
    assert got == {368.4136148790473}
    assert got.pop() == pytest.approx(160 * math.log(10), rel=1e-14)


def test_symmetrizing_neither_overflows_nor_rounds_subnormals():
    big = SpdNorm(np.diag([1e308, 1e308]))
    assert np.array_equal(big.matrix, np.diag([1e308, 1e308]))
    assert SpdNorm(np.diag([5e-324, 1.0])).matrix[0, 0] == 5e-324
    small = SpdNorm(np.diag([1e-309, 1e-309]))
    got = {gi_distance_bodies(big, small), gi_distance_bodies(small, big)}
    assert got == {710.347501188663}
    assert got.pop() == pytest.approx(0.5 * (math.log(1e308) - math.log(1e-309)), rel=1e-14)


def test_a_form_that_cholesky_cannot_factor_is_refused():
    # eigvalsh puts its smallest eigenvalue at 2.8e-17 > 0, but the form is
    # singular to working precision and has no Cholesky factor
    with pytest.raises(UsageError, match="positive definite"):
        SpdNorm([[0.8427598944009403, 0.36402699733708765],
                 [0.36402699733708765, 0.15724010559905943]])


def test_a_polytope_against_a_tiny_ellipsoid_never_reads_nan():
    # inverting diag(1e-310, 1) overflows to inf and inf * 0 gave NaN; the
    # factor gives |L^-1 a_i| / b_i = 1e155 for the facet (1, 0)
    got = {gi_distance_bodies(SQUARE, TINY_SPD), gi_distance_bodies(TINY_SPD, SQUARE)}
    assert got == {356.9006894140771}
    assert got.pop() == pytest.approx(0.5 * abs(math.log(1e-310)), rel=1e-14)


def test_a_gauge_ratio_beyond_the_float_range_is_a_usage_error():
    huge = PolyNorm.from_vertices([[1e300, 1e300], [1e300, -1e300]])
    ball = SpdNorm(1e300 * np.eye(2))
    for a, b in ((huge, ball), (ball, huge)):
        with pytest.raises(UsageError, match="beyond the float range"):
            gi_distance_bodies(a, b)


def _seeded_spd_pairs(seed, count):
    rng = helpers.rng_for(seed)
    for i in range(count):
        n = (2, 3, 4)[i % 3]
        yield random_spd(rng, n), random_spd(rng, n)


def test_ellipsoid_distance_is_symmetric_to_the_bit():
    for a, b in _seeded_spd_pairs(440, 60):
        assert gi_distance_bodies(a, b) == gi_distance_bodies(b, a)


def test_ellipsoid_distance_is_congruence_invariant():
    # d(M^T A M, M^T B M) = d(A, B) for invertible M (GL-invariance)
    rng = helpers.rng_for(441)
    for a, b in _seeded_spd_pairs(442, 60):
        q = np.linalg.qr(rng.standard_normal((a.dim, a.dim)))[0]
        m = q * np.exp(rng.uniform(-1, 1, size=a.dim))  # condition number below e^2
        want = gi_distance_bodies(a, b)
        got = gi_distance_bodies(SpdNorm(m.T @ a.matrix @ m), SpdNorm(m.T @ b.matrix @ m))
        assert abs(got - want) <= 1e-12 * max(1.0, want)


def test_ellipsoid_distance_scales_by_log_two():
    # d(A, 4^k A) = k ln 2; the singular values of the quotient carry a few
    # ulps of roundoff (LAPACK's SVD of the exact quotient 0.5 I of
    # diag(1/3, pi) returns 0.5 - 2^-54), and the identity none
    rng = helpers.rng_for(443)
    forms = [np.diag([1 / 3, math.pi])]
    forms += [random_spd(rng, n).matrix for n in (2, 3, 4) for _ in range(5)]
    for k in (1, 5, 100):
        want = k * math.log(2)
        assert gi_distance_bodies(SpdNorm(np.eye(3)), SpdNorm(4.0 ** k * np.eye(3))) == want
        for mat in forms:
            got = gi_distance_bodies(SpdNorm(mat), SpdNorm(4.0 ** k * mat))
            assert abs(got - want) <= 4 * math.ulp(want)


def test_an_ellipsoid_pair_costs_one_svd(monkeypatch):
    calls = {"svd": 0, "eigvalsh": 0, "eigh": 0, "inv": 0}

    def counted(name):
        real = getattr(np.linalg, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    a, b = random_spd(helpers.rng_for(444), 3), random_spd(helpers.rng_for(445), 3)
    for name in calls:
        monkeypatch.setattr(np.linalg, name, counted(name))
    gi_distance_bodies(a, b)
    assert calls == {"svd": 1, "eigvalsh": 0, "eigh": 0, "inv": 0}


def test_a_nan_distance_fails_the_pairwise_check(monkeypatch):
    from normspace import bodies

    monkeypatch.setattr(bodies, "gi_distance_bodies", lambda k1, k2: math.nan)
    with pytest.raises(PairwiseRadiusError):
        coarse_helly_details([SQUARE, SQUARE], [0.0, 0.0])
