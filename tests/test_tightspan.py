import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import helpers
from normspace import polyhedra, qlinalg, tightspan
from normspace import (
    FiniteMetric,
    InfeasibleScaleError,
    SpdNorm,
    UsageError,
    extremal_closure,
    gi_distance_bodies,
    is_extremal,
    kuratowski_embed,
    tight_span_vertices,
)

TWO = FiniteMetric([[0, 6], [6, 0]])
TRI = FiniteMetric([[0, 3, 4], [3, 0, 5], [4, 5, 0]])


def random_spd_metric(rng, k):
    mats = []
    for _ in range(k):
        g = rng.standard_normal((2, 2))
        mats.append(SpdNorm(g.T @ g + 0.25 * np.eye(2)))
    d = [[gi_distance_bodies(a, b) for b in mats] for a in mats]
    for i in range(k):
        d[i][i] = 0.0
    return FiniteMetric(d)


def random_l1_metric(rng, k, dens):
    """L1 metric of k seeded planar points with coordinates in (1/den) Z."""
    pts = [[Fraction(int(rng.integers(-12, 13)), int(rng.choice(dens))) for _ in range(2)]
           for _ in range(k)]
    return FiniteMetric([[sum(abs(a - b) for a, b in zip(p, q)) for q in pts] for p in pts])


def random_euclidean_metric(rng, k):
    pts = rng.standard_normal((k, 2))
    return FiniteMetric([[float(np.linalg.norm(p - q)) for q in pts] for p in pts])


def test_metric_validation():
    with pytest.raises(UsageError):
        FiniteMetric([[0, 1], [2, 0]])  # asymmetric
    with pytest.raises(UsageError):
        FiniteMetric([[1, 0], [0, 0]])  # nonzero diagonal
    with pytest.raises(UsageError):
        FiniteMetric([[0, 1, 9], [1, 0, 1], [9, 1, 0]])  # triangle fails
    with pytest.raises(UsageError):
        FiniteMetric([[0, True], [True, 0]])
    assert TWO.exact and not random_spd_metric(helpers.rng_for(1), 3).exact


@pytest.mark.parametrize("d", [
    [[0.0, 3e-10, 1e-10], [3e-10, 0.0, 1e-10], [1e-10, 1e-10, 0.0]],
    [[0.0, 1e-10], [3e-10, 0.0]],
    [[0.0, 1.0], [math.nextafter(1.0, 2.0), 0.0]],
    [[5e-324, 1.0], [1.0, 0.0]],
], ids=["triangle-3e-10", "asymmetric-2e-10", "asymmetric-1-ulp", "diagonal-subnormal"])
def test_a_float_metric_failing_an_axiom_by_any_amount_is_refused(d):
    with pytest.raises(UsageError):
        FiniteMetric(d)


def test_admissible_examples():
    assert helpers.is_admissible([0, 6], TWO)  # d(x0, .)
    assert not helpers.is_admissible([1, 1], TWO)
    assert helpers.is_admissible([3.5, 2.5], TWO)
    assert not helpers.is_admissible([-1, 8], TWO)


def test_extremal_examples():
    assert is_extremal([2, 4], TWO)
    assert not is_extremal([4, 4], TWO)
    assert is_extremal([1, 2, 3], TRI)
    assert not is_extremal([2, 2, 3], TRI)
    with pytest.raises(UsageError):
        is_extremal([0, 0], TWO)  # inadmissible input


def test_one_point_space():
    one = FiniteMetric([[0]])
    assert is_extremal([0], one)
    assert not is_extremal([1], one)
    assert extremal_closure([5], one) == [0]


def test_kuratowski_two_and_one_point():
    assert kuratowski_embed(FiniteMetric([[0]])) == [[0]]
    e = kuratowski_embed(TWO)
    assert e == [[0, 6], [6, 0]]
    assert helpers.ts_distance(e[0], e[1]) == 6


def test_kuratowski_isometric_on_body_metric():
    rng = helpers.rng_for(500)
    space = random_spd_metric(rng, 6)
    e = kuratowski_embed(space)
    for i in range(6):
        for j in range(6):
            assert helpers.ts_distance(e[i], e[j]) == space.rows[i][j]


def test_closure_trace_example():
    # one ascending sweep: f(0) <- 6 - 4 = 2, then f(1) <- 6 - 2 = 4
    assert extremal_closure([4, 4], TWO) == [2, 4]


def test_closure_idempotent_on_extremal():
    assert extremal_closure([2, 4], TWO) == [2, 4]
    assert extremal_closure([1, 2, 3], TRI) == [1, 2, 3]


def test_closure_random_inputs_become_extremal():
    rng = helpers.rng_for(501)
    for trial in range(20):
        space = random_spd_metric(rng, 4)
        start = [float(max(r)) + float(rng.uniform(0, 2)) for r in space.rows]
        assert helpers.is_admissible(start, space)
        out = extremal_closure(start, space)
        assert is_extremal(out, space)
        assert all(a <= b for a, b in zip(out, start))


def test_closure_exact_mode():
    f = extremal_closure([Fraction(9, 2), Fraction(11, 2)], TWO)
    assert f == [Fraction(1, 2), Fraction(11, 2)]
    assert is_extremal(f, TWO)


def _oracle_starts(rng, space, count):
    """Admissible starts above the row maxima of a metric with float row
    maxima: Fraction offsets and float relative offsets in turn."""
    for t in range(count):
        if t % 2:
            yield [float(max(r)) * (1 + float(rng.uniform(0, 1))) for r in space.rows]
        else:
            yield [max(r) + Fraction(int(rng.integers(0, 20)), int(rng.integers(1, 4)))
                   for r in space.rows]


def test_exact_closure_matches_the_sweep_oracle():
    rng = helpers.rng_for(506)
    for trial in range(60):
        k = int(rng.integers(2, 8))
        pts = rng.integers(-20, 21, size=(k, 3))
        space = FiniteMetric([[int(np.abs(a - b).sum()) for b in pts] for a in pts])
        for start in _oracle_starts(rng, space, 3):
            out = extremal_closure(start, space)
            assert out == helpers.exact_closure_loops(space.rows, start)
            assert is_extremal(out, space)


def test_float_closure_matches_the_sweep_oracle_bit_for_bit():
    # float metrics (Euclidean and body metrics) at scales from 1e-6 to
    # 1e12: one sweep returns the exact oracle's converged values on the
    # same binary rationals
    rng = helpers.rng_for(507)
    for scale in (1e-6, 1.0, 1e6, 1e9, 1e12):
        for trial in range(12):
            k = int(rng.integers(2, 8))
            if trial % 2:
                pts = rng.standard_normal((k, 3))
                d = (np.linalg.norm(pts[:, None] - pts[None], axis=2) * scale).tolist()
            else:
                mats = [SpdNorm(g.T @ g + 0.25 * np.eye(2))
                        for g in rng.standard_normal((k, 2, 2))]
                d = [[0.0] * k for _ in range(k)]
                for i in range(k):
                    for j in range(i + 1, k):
                        d[i][j] = d[j][i] = gi_distance_bodies(mats[i], mats[j]) * scale
            space = FiniteMetric(d)
            for start in _oracle_starts(rng, space, 2):
                out = extremal_closure(start, space)
                assert out == helpers.exact_closure_loops(space.rows, start)
                assert is_extremal(out, space)


def test_float_closure_on_a_nearly_symmetric_metric():
    # gi_distance_bodies(a, b) and (b, a) are bit-symmetric, so a body metric
    # read from both orders is a metric and its closure is the exact
    # oracle's; one ulp of asymmetry makes the matrix no metric at all
    rng = helpers.rng_for(508)
    for trial in range(20):
        space = random_spd_metric(rng, int(rng.integers(2, 6)))
        for start in _oracle_starts(rng, space, 2):
            out = extremal_closure(start, space)
            assert out == helpers.exact_closure_loops(space.rows, start)
            assert is_extremal(out, space)
        d = [[float(x) for x in r] for r in space.rows]
        d[0][1] = math.nextafter(d[0][1], math.inf)
        with pytest.raises(UsageError):
            FiniteMetric(d)


def test_closure_certificate_failure_raises(monkeypatch):
    monkeypatch.setattr(tightspan, "is_extremal", lambda f, space: False)
    with pytest.raises(RuntimeError):
        extremal_closure([4, 4], TWO)


def test_closure_rejects_inadmissible():
    with pytest.raises(UsageError):
        extremal_closure([1, 1], TWO)


def test_closure_nonexpansive_on_samples():
    rng = helpers.rng_for(502)
    space = random_spd_metric(rng, 4)
    for _ in range(10):
        f = [Fraction(max(r)) + Fraction(rng.uniform(0, 1)) for r in space.rows]
        g = [Fraction(max(r)) + Fraction(rng.uniform(0, 1)) for r in space.rows]
        cf, cg = extremal_closure(f, space), extremal_closure(g, space)
        assert helpers.ts_distance(cf, cg) <= helpers.ts_distance(f, g)


def test_tight_span_two_points():
    verts = tight_span_vertices(TWO)
    assert verts == [[0, 6], [6, 0]]


def test_tight_span_tripod():
    verts = tight_span_vertices(TRI)
    assert [list(map(int, v)) for v in verts] == [
        [0, 3, 4], [1, 2, 3], [3, 0, 5], [4, 5, 0]]


def _line(scale):
    return FiniteMetric([[0.0, scale, 2 * scale], [scale, 0.0, scale], [2 * scale, scale, 0.0]])


@pytest.mark.parametrize("scale", [1e-300, 1.0, 1e300])
def test_float_tight_span_cells_scale_with_the_metric(scale):
    """Three points on a line have three vertices, the Kuratowski rows, at
    any scale, exactly."""
    assert tight_span_vertices(_line(scale)) == kuratowski_embed(_line(scale))


def test_no_tolerance_at_a_small_scale():
    # f misses the identity at x = 0 by 5e-10, far above every distance
    space = _line(1e-300)
    f = [5e-10, 0, 4e-10]
    assert helpers.is_admissible(f, space) and not is_extremal(f, space)
    assert extremal_closure(f, space) == [Fraction(1e-300), 0, Fraction(1e-300)]


def test_float_tight_span_of_a_zero_metric_is_one_point():
    assert tight_span_vertices(FiniteMetric([[0.0, 0.0], [0.0, 0.0]])) == [[0.0, 0.0]]


def test_tight_span_linf_square_sample():
    # four points at the corners of a side-2 sup-norm square
    pts = [(0, 0), (2, 0), (0, 2), (2, 2)]
    d = [[max(abs(a[0] - b[0]), abs(a[1] - b[1])) for b in pts] for a in pts]
    space = FiniteMetric(d)
    verts = tight_span_vertices(space)
    keys = {tuple(v) for v in verts}
    for e in kuratowski_embed(space):
        assert tuple(e) in keys
    # the vertex list is closed under the square's isometries: (x,y)->(y,x)
    # permutes the points by (1 2), and (x,y)->(2-y,2-x) by (0 3)
    assert {(v[0], v[2], v[1], v[3]) for v in keys} == keys
    assert {(v[3], v[1], v[2], v[0]) for v in keys} == keys


def test_tight_span_coverage_identity():
    rng = helpers.rng_for(503)
    space = random_spd_metric(rng, 4)
    verts = tight_span_vertices(space)
    e = kuratowski_embed(space)
    for x in range(4):
        assert min(v[x] for v in verts) == 0
        assert e[x] in verts


def test_extremal_functions_are_lipschitz():
    rng = helpers.rng_for(504)
    space = random_spd_metric(rng, 5)
    for trial in range(10):
        start = [float(max(r)) + float(rng.uniform(0, 1)) for r in space.rows]
        f = extremal_closure(start, space)
        for x in range(5):
            for y in range(5):
                assert abs(f[x] - f[y]) <= space.rows[x][y]


def test_size_guard():
    d = np.zeros((11, 11))
    with pytest.raises(InfeasibleScaleError):
        tight_span_vertices(FiniteMetric(d))


def l1_space(seed, k):
    """Integer L1 distances of k seeded points of Z^3."""
    pts = helpers.rng_for(seed).integers(-9, 10, size=(k, 3))
    return FiniteMetric([[int(np.abs(a - b).sum()) for b in pts] for a in pts])


def assert_large_span(space, perm):
    """The vertices of a span, checked: each is extremal and pinned by n
    tight pairs of full rank, each Kuratowski image is one, the other reading
    of the distances (floats for integers, Fractions for floats) gives the
    same vertices, and relabelling the points by perm permutes them."""
    n, d = space.n, space.rows
    verts = tight_span_vertices(space)
    for f in verts:
        assert is_extremal(f, space)
        tight = [[(k == i) + (k == j) for k in range(n)]
                 for i in range(n) for j in range(i, n) if f[i] + f[j] == d[i][j]]
        assert helpers.gauss_jordan(tight)[2] == n
    assert all(e in verts for e in kuratowski_embed(space))
    other = FiniteMetric([[float(x) for x in r] for r in d] if space.exact else d)
    assert other.exact != space.exact and tight_span_vertices(other) == verts
    moved = FiniteMetric([[d[i][j] for j in perm] for i in perm])
    assert tight_span_vertices(moved) == sorted([f[i] for i in perm] for f in verts)
    return verts


def test_eight_point_tight_span():
    verts = assert_large_span(l1_space(620, 8), [3, 7, 0, 5, 1, 6, 2, 4])
    assert len(verts) > 8


def test_eight_point_float_body_span():
    # 8 SPD bodies under the float GI distance: a generic span
    verts = assert_large_span(random_spd_metric(helpers.rng_for(621), 8), [3, 7, 0, 5, 1, 6, 2, 4])
    assert len(verts) == 128


@pytest.mark.parametrize("kind", ["integer", "float"])
@pytest.mark.parametrize("n", [9, 10])
def test_nine_and_ten_point_tight_spans(n, kind):
    space = (l1_space(620 + n, n) if kind == "integer"
             else random_euclidean_metric(helpers.rng_for(630 + n), n))
    verts = assert_large_span(space, list(range(n))[::-1])
    assert len(verts) > n


def test_an_eight_point_span_certifies_in_few_tangent_cones(monkeypatch):
    # the metric of test_eight_point_tight_span has degenerate vertices, each
    # certified through a tangent cone: 92 calls in all
    calls = []
    real = polyhedra._certify
    monkeypatch.setattr(polyhedra, "_certify", lambda *a: calls.append(1) or real(*a))
    tight_span_vertices(l1_space(620, 8))
    assert len(calls) <= 100


def test_extremal_radii_feed_the_intersection_witness():
    # an extremal function on a 4-point body metric gives exactly-compatible
    # radii (f(s) + f(t) >= d(s, t)), so the intersection witness must land
    # inside every ball the tight span predicts feasible
    from normspace import PolyNorm
    from normspace.bodies import coarse_helly_details

    rng = helpers.rng_for(505)
    for trial in range(5):
        fam = []
        for _ in range(4):
            k = int(rng.integers(4, 8))
            ang = np.sort(rng.uniform(0, np.pi, size=k))
            rad = rng.uniform(0.5, 2.0, size=k)
            fam.append(PolyNorm.from_vertices(
                np.stack([rad * np.cos(ang), rad * np.sin(ang)], axis=1)
            ))
        d = [[gi_distance_bodies(a, b) for b in fam] for a in fam]
        for i in range(4):
            d[i][i] = 0.0
        space = FiniteMetric(d)
        start = [float(max(r)) + float(rng.uniform(0, 1)) for r in space.rows]
        f = extremal_closure(start, space)
        assert is_extremal(f, space)
        details = coarse_helly_details(fam, [float(x) for x in f])
        for dist, r in zip(details["distances"], f):
            assert dist <= r + 1e-6


def test_json_roundtrip():
    doc = TRI.to_json()
    assert doc["labels"] == ["0", "1", "2"]
    again = FiniteMetric.from_json(doc)
    assert again.exact
    assert again.rows == TRI.rows


@pytest.mark.parametrize("dens", [(1,), (1, 2, 3)], ids=["integer", "rational"])
@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_exact_tight_span_matches_the_fraction_oracle(k, dens):
    space = random_l1_metric(helpers.rng_for(600 + k), k, dens)
    assert space.exact
    assert tight_span_vertices(space) == helpers.tight_span_oracle(space)


@pytest.mark.parametrize("dens", [(1,), (1, 2, 3)], ids=["integer", "rational"])
def test_exact_six_point_solves_match_the_fraction_oracle(dens):
    # the oracle solves all 21,169 nonsingular six-pair systems
    space = random_l1_metric(helpers.rng_for(606), 6, dens)
    assert tight_span_vertices(space) == helpers.tight_span_oracle(space)


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_float_tight_span_is_bit_identical_to_the_oracle(k):
    # a float metric has the exact vertices of its binary-rational entries,
    # the same as the metric given as those Fractions
    space = random_euclidean_metric(helpers.rng_for(610 + k), k)
    got = tight_span_vertices(space)
    assert got == helpers.tight_span_oracle(space)
    exact = FiniteMetric(space.rows)
    assert exact.exact and not space.exact
    assert tight_span_vertices(exact) == got


@pytest.mark.parametrize("n, count", [(1, 1), (2, 3), (3, 17), (4, 141), (5, 1548)])
def test_pair_sets_are_the_nonsingular_combinations(n, count):
    # the tight span oracle's float filter against the Fraction one
    want = helpers.nonsingular_pair_sets_fraction(n)
    assert helpers.nonsingular_pair_sets_float(n) == want
    assert len(want) == count


@pytest.mark.parametrize("n", range(1, 7))
def test_pair_sets_match_the_bareiss_filter(n):
    # qlinalg.bareiss, a square echelon pass, calls singular exactly the
    # pair matrices whose float determinant rounds to 0
    bareiss_sets = helpers.pair_sets_with_nonzero(n, lambda mat: qlinalg.bareiss(mat)[0])
    assert helpers.nonsingular_pair_sets_float(n) == bareiss_sets


# -- exact symmetries: relabelling the points and scaling by 2^k --

_PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def _metric_and_start(draw, euclidean):
    """Float Euclidean or integer L1 distances of 2 to 5 integer points in
    the plane, and an admissible start above the row maxima."""
    k = draw(st.integers(2, 5))
    pts = draw(st.lists(st.tuples(st.integers(-9, 9), st.integers(-9, 9)), min_size=k, max_size=k))
    if euclidean:
        d = [[math.dist(p, q) for q in pts] for p in pts]
    else:
        d = [[abs(p[0] - q[0]) + abs(p[1] - q[1]) for q in pts] for p in pts]
    try:
        FiniteMetric(d)
    except UsageError:  # Euclidean distances whose roundings break a triangle
        assume(False)
    start = [max(r) + Fraction(draw(st.integers(0, 12)), draw(st.integers(1, 4))) for r in d]
    return d, start


@pytest.mark.parametrize("euclidean", [True, False], ids=["float", "integer"])
@given(data=st.data())
@_PROPERTY
def test_relabelling_permutes_vertices_and_closure_fixed_points(euclidean, data):
    # the one-sweep closure visits the points in label order, so a relabelled
    # start may close to another extremal function; it is extremal, below the
    # start, and every relabelled vertex is closed to itself
    d, start = data.draw(_metric_and_start(euclidean))
    perm = data.draw(st.permutations(range(len(d))))
    space = FiniteMetric(d)
    moved = FiniteMetric([[d[i][j] for j in perm] for i in perm])
    verts = tight_span_vertices(space)
    moved_verts = tight_span_vertices(moved)
    assert moved_verts == sorted([v[i] for i in perm] for v in verts)
    assert all(extremal_closure(v, moved) == v for v in moved_verts)
    out = extremal_closure([start[i] for i in perm], moved)
    back = [None] * len(d)
    for a, i in enumerate(perm):
        back[i] = out[a]
    assert is_extremal(back, space) and all(x <= y for x, y in zip(back, start))


@pytest.mark.parametrize("euclidean", [True, False], ids=["float", "integer"])
@given(data=st.data(), k=st.integers(-60, 60))
@_PROPERTY
def test_scaling_by_a_power_of_two_scales_vertices_and_closure(euclidean, data, k):
    d, start = data.draw(_metric_and_start(euclidean))
    scale = Fraction(2) ** k
    scaled = FiniteMetric([[math.ldexp(x, k) if isinstance(x, float) else x * scale for x in r]
                           for r in d])
    space = FiniteMetric(d)
    assert scaled.exact == space.exact
    assert tight_span_vertices(scaled) == [[x * scale for x in v]
                                           for v in tight_span_vertices(space)]
    assert extremal_closure([x * scale for x in start], scaled) == [
        x * scale for x in extremal_closure(start, space)]
