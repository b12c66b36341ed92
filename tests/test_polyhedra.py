import hashlib
import itertools
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import linprog

import helpers
from normspace import FiniteMetric, PolyNorm, UsageError, polyhedra, tight_span_vertices
from normspace.polyhedra import (
    extreme_rays,
    facet_enum_exact,
    vertex_enum_exact,
    _canon_sign,
)

F = Fraction


def _signed(points):
    """Input i at index 2i and its antipode at 2i + 1, as _hull_planes does."""
    return [q for p in points for q in (p, tuple(-x for x in p))]


def _pair_planes(planes):
    """One plane (a, b) per antipodal pair, as the enumerations return them."""
    return sorted({(_canon_sign(a), b) for a, b in planes})


def test_hull2d_square_with_interior_points():
    pts = [(F(1), F(1)), (F(-1), F(1)), (F(-1), F(-1)), (F(1), F(-1)),
           (F(0), F(0)), (F(1), F(0)), (F(1, 2), F(1, 2))]
    facets, keep = facet_enum_exact(pts)
    # repeated antipodes keep inputs 0 and 1; the collinear boundary point is dropped too
    assert keep == [0, 1]
    assert facets == [((F(0), F(1)), F(1)), ((F(1), F(0)), F(1))]
    assert facets == _pair_planes(helpers.brute_hull(pts)[0])


@pytest.mark.parametrize("n", [2, 4])
def test_hulls_match_the_brute_force_oracle_in_2d_and_4d(n):
    rng = helpers.rng_for(302 + n)
    for _ in range(4):
        pts = [tuple(F(float(x)) for x in p) for p in rng.standard_normal((8, n))]
        facets, keep = facet_enum_exact(pts)
        planes, verts = helpers.brute_hull(_signed(pts))
        assert facets == _pair_planes(planes)
        assert keep == [i for i in range(len(pts)) if 2 * i in verts]
        dual, dual_keep = vertex_enum_exact(facets)
        assert dual_keep == list(range(len(facets)))
        assert dual == sorted(_canon_sign(p) for p in (pts[i] for i in keep))


def test_outputs_are_sorted_whatever_the_input_order():
    rng = helpers.rng_for(305)
    pts = [tuple(F(float(x)) for x in p) for p in rng.standard_normal((9, 3))]
    facets, _ = facet_enum_exact(pts)
    assert facets == sorted(facets)
    assert facet_enum_exact(pts[::-1])[0] == facets
    verts, _ = vertex_enum_exact(facets[::-1])
    assert verts == sorted(verts) == vertex_enum_exact(facets)[0]


def test_vertex_enum_square():
    facets = [((F(1), F(0)), F(1)), ((F(0), F(1)), F(1))]
    verts, keep = vertex_enum_exact(facets)
    assert keep == [0, 1]
    assert sorted(tuple(map(abs, v)) for v in verts) == [(1, 1), (1, 1)]


def test_vertex_enum_drops_redundant_facet():
    facets = [((F(1), F(0)), F(1)), ((F(0), F(1)), F(1)), ((F(1), F(1)), F(3))]
    verts, keep = vertex_enum_exact(facets)
    assert keep == [0, 1]
    assert len(verts) == 2


def test_two_squares_at_45_degrees_make_an_octagon():
    c = F(np.cos(np.pi / 4))
    s = F(np.sin(np.pi / 4))
    facets = [
        ((F(1), F(0)), F(1)),
        ((F(0), F(1)), F(1)),
        ((c, s), F(1)),
        ((-s, c), F(1)),
    ]
    verts, keep = vertex_enum_exact(facets)
    assert keep == [0, 1, 2, 3]
    assert len(verts) == 4  # 8 vertices = 4 antipodal pairs
    # near-regular octagon: all vertex norms agree to float accuracy
    norms = sorted(float(x) ** 2 + float(y) ** 2 for x, y in verts)
    assert abs(norms[0] - norms[-1]) < 1e-12


def test_facet_enum_square_and_cross():
    facets, keep = facet_enum_exact([(F(1), F(1)), (F(1), F(-1))])
    assert keep == [0, 1]
    assert sorted((abs(a[0]), abs(a[1]), b) for a, b in facets) == [
        (0, 1, 1), (1, 0, 1)]
    facets, keep = facet_enum_exact([(F(1), F(0)), (F(0), F(1))])
    assert len(facets) == 2  # cross-polytope: |x|+|y| <= 1 split per pair
    for a, b in facets:
        assert (abs(a[0]), abs(a[1])) == (1, 1) and b == 1


def test_facet_enum_drops_non_extreme_vertex():
    verts = [(F(1), F(1)), (F(1), F(-1)), (F(1), F(0)), (F(0), F(0))]
    facets, keep = facet_enum_exact(verts)
    assert keep == [0, 1]


def test_roundtrip_reproduces_irredundant_facets():
    rng = helpers.rng_for(300)
    for _ in range(10):
        k = int(rng.integers(4, 8))
        ang = np.sort(rng.uniform(0, np.pi, size=k))
        rad = rng.uniform(0.5, 2.0, size=k)
        verts = [(F(float(r * np.cos(a))), F(float(r * np.sin(a))))
                 for r, a in zip(rad, ang)]
        facets, keep1 = facet_enum_exact(verts)
        verts2, keep2 = vertex_enum_exact(facets)
        facets2, _ = facet_enum_exact(verts2)
        assert sorted(facets) == sorted(facets2)
        # LP oracle: every reported facet is genuinely irredundant
        a_arr = np.array([[float(x) for x in a] for a, _ in facets])
        b_arr = np.array([float(b) for _, b in facets])
        full_a = np.vstack([a_arr, -a_arr])
        full_b = np.concatenate([b_arr, b_arr])
        for i in range(len(a_arr)):
            others = [r for r in range(len(full_a)) if r != i]
            res = linprog(
                -a_arr[i], A_ub=full_a[others], b_ub=full_b[others],
                bounds=[(None, None)] * 2, method="highs",
            )
            # dropping facet i must change the body: the relaxed maximum of
            # <a_i, x> exceeds b_i (possibly unboundedly)
            assert res.status in (0, 3)
            assert res.status == 3 or -res.fun > b_arr[i] + 1e-9


def test_hull3d_cube_planes():
    pts = [tuple(F(x) for x in p)
           for p in [(1, 1, 1), (1, 1, -1), (1, -1, 1), (1, -1, -1),
                     (-1, 1, 1), (-1, 1, -1), (-1, -1, 1), (-1, -1, -1)]]
    facets, keep = facet_enum_exact(pts)
    assert len(facets) == 3
    assert keep == [0, 1, 2, 3]  # the other four are antipodes of these
    planes, verts = helpers.brute_hull(pts)
    assert len(planes) == 6 and verts == list(range(8))
    assert facets == _pair_planes(planes)


def test_vertex_enum_cube_and_octahedron():
    facets = [((F(1), F(0), F(0)), F(1)), ((F(0), F(1), F(0)), F(1)),
              ((F(0), F(0), F(1)), F(1))]
    verts, keep = vertex_enum_exact(facets)
    assert keep == [0, 1, 2]
    assert len(verts) == 4  # 8 cube vertices = 4 antipodal pairs
    # x + y <= 2 touches the cube along an edge only: redundant
    verts, keep = vertex_enum_exact(facets + [((F(1), F(1), F(0)), F(2))])
    assert keep == [0, 1, 2]
    assert len(verts) == 4
    facets = [((F(1), F(1), F(1)), F(1)), ((F(1), F(1), F(-1)), F(1)),
              ((F(1), F(-1), F(1)), F(1)), ((F(1), F(-1), F(-1)), F(1))]
    verts, keep = vertex_enum_exact(facets)
    assert len(verts) == 3  # octahedron: +-e_i
    assert sorted(tuple(map(abs, v)) for v in verts) == [
        (0, 0, 1), (0, 1, 0), (1, 0, 0)]


def test_vertex_enum_3d_matches_brute_force_random():
    rng = helpers.rng_for(301)
    for _ in range(5):
        dirs = rng.standard_normal((6, 3))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        offs = rng.uniform(1.0, 1.5, size=6)  # some facets come out redundant
        facets = [(tuple(F(float(x)) for x in d), F(float(b)))
                  for d, b in zip(dirs, offs)]
        verts, keep = vertex_enum_exact(facets)
        polar_pts = [tuple(x / b for x in a) for a, b in facets]
        signed = polar_pts + [tuple(-x for x in p) for p in polar_pts]
        brute_planes, brute_verts = helpers.brute_hull(signed)
        # polarity: the vertices are the brute-force planes (n, c) as n/c ...
        assert verts == sorted(
            {_canon_sign(tuple(x / c for x in nrm)) for nrm, c in brute_planes})
        # ... and facet i is kept iff its polar point is a hull vertex
        assert keep == [i for i in brute_verts if i < len(polar_pts)]


# Each base set is in convex position, +-symmetrically, and so is its polar:
# a hexagon in 2D, the cross-polytope/cube pair in 3D.
KEEP_BASES = {
    2: [(1, 0), (1, 1), (0, 1)],
    3: [(1, 0, 0), (0, 1, 0), (0, 0, 1)],
}


@pytest.mark.parametrize("route", ["vertex", "facet"])
@pytest.mark.parametrize("n", [2, 3])
def test_repeated_and_antipodal_inputs_are_kept_once(n, route):
    b0, b1, b2 = [tuple(F(x) for x in p) for p in KEEP_BASES[n]]
    # input 1 repeats input 0; input 3 is the antipode of input 2
    pts = [b0, b0, b1, tuple(-x for x in b1), b2]
    if route == "vertex":
        # a facet (a, b) is the same at every positive scale: (2a, 2b) after (a, b)
        for scales in ([1] * 5, [1, 2, 1, 3, 1], [F(1, 3), 2.0, 5, F(1, 2), 1]):
            facets = [(tuple(s * x for x in p), s) for p, s in zip(pts, scales)]
            _, keep = vertex_enum_exact(facets)
            assert keep == [0, 2, 4]
            body = PolyNorm.from_facets([[float(x) for x in a] for a, _ in facets],
                                        [float(b) for _, b in facets])
            assert body.a.tolist() == [[float(x) for x in facets[i][0]] for i in keep]
            assert body.b.tolist() == [float(facets[i][1]) for i in keep]
    else:
        # a vertex is the same given as ints, floats or Fractions
        for first, second in itertools.permutations((int, float, F), 2):
            given = [tuple(map(first, b0)), tuple(map(second, b0)), b1,
                     tuple(first(-x) for x in b1), b2]
            _, keep = facet_enum_exact(given)
            assert keep == [0, 2, 4]
            body = PolyNorm.from_vertices(given)
            assert body.vertices.tolist() == [[float(x) for x in p] for p in (b0, b1, b2)]


CUBE = [tuple(F(x) for x in p) for p in itertools.product((1, -1), repeat=3)]


def _assert_hull_matches_oracle(points, keep):
    """The facets of conv(+-points) equal the brute-force oracle's, and keep
    lists the inputs that are hull vertices."""
    facets, got_keep = facet_enum_exact(points)
    brute_planes, brute_verts = helpers.brute_hull(_signed(points))
    assert facets == _pair_planes(brute_planes)
    assert got_keep == keep == [i for i in range(len(points)) if 2 * i in brute_verts]


def _half_grid(ranges):
    """Integer grid points with a positive first nonzero coordinate."""
    pts = []
    for p in itertools.product(*ranges):
        if next((x for x in p if x), 0) > 0:
            pts.append(tuple(F(x) for x in p))
    return pts


HULL_INPUTS = {
    "cube": CUBE[:4],
    "cross-polytope": [(F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(1))],
    "grid-3x3x3": _half_grid([(-1, 0, 1)] * 3),
    "grid-2x3x3": _half_grid([(1, 2), (-1, 0, 1), (-1, 0, 1)]),
    "grid-2x2x5": _half_grid([(1, 3), (-1, 2), (-2, -1, 0, 1, 2)]),
}


@pytest.mark.parametrize("name", sorted(HULL_INPUTS))
def test_hull3d_matches_the_oracle_on_degenerate_inputs(name):
    points = HULL_INPUTS[name]
    _, keep = facet_enum_exact(points)
    _assert_hull_matches_oracle(points, keep)


@pytest.mark.parametrize("seed", range(30))
def test_hull3d_matches_the_oracle_on_round_trips(seed):
    # The float facets of a random polytope put the polar points of a vertex
    # of degree d > 3 off one plane by about 1e-17 relative, so the exact hull
    # splits that face into near-coplanar triangles.
    rng = np.random.Generator(np.random.PCG64(seed))
    body = PolyNorm.from_vertices(rng.standard_normal((10, 3)))
    facets = [(tuple(F(float(x)) for x in a), F(float(b)))
              for a, b in zip(body.a, body.b)]
    verts, keep = vertex_enum_exact(facets)
    polar_pts = [tuple(x / b for x in a) for a, b in facets]
    _assert_hull_matches_oracle(polar_pts, keep)
    assert verts == sorted({_canon_sign(tuple(x / c for x in nrm))
                            for nrm, c in helpers.brute_hull(_signed(polar_pts))[0]})
    assert len(PolyNorm.from_facets(body.a, body.b).a) == len(keep)


def _metric(pts):
    return FiniteMetric([[sum(abs(a - b) for a, b in zip(p, q)) for q in pts] for p in pts])


def _float_metric(seed, k):
    pts = helpers.rng_for(seed).standard_normal((k, 2))
    return FiniteMetric([[float(np.linalg.norm(p - q)) for q in pts] for p in pts])


def _polytope(seed, n, k):
    return [tuple(F(float(x)) for x in p) for p in helpers.rng_for(seed).standard_normal((k, n))]


# one call per case, each running extreme_rays once at its top level: tight
# spans of exact and float metrics from 4 to 8 points, polytopes in 2D to 4D
# (both routes, one with enough rows for the float sign filter), and
# degenerate 3D polytopes
FAULT_CASES = {
    "span-exact4": lambda: tight_span_vertices(_metric([(0, 0), (3, 1), (1, 5), (4, 4)])),
    "span-float5": lambda: tight_span_vertices(_float_metric(310, 5)),
    "span-l1-6": lambda: tight_span_vertices(
        _metric([(0, 0, 0), (3, 1, 4), (1, 5, 9), (2, 6, 5), (5, 3, 5), (8, 9, 7)])),
    "span-float8": lambda: tight_span_vertices(_float_metric(311, 8)),
    "facets-3d-filtered": lambda: facet_enum_exact(_polytope(316, 3, 40)),
    "facets-2d": lambda: facet_enum_exact(_polytope(312, 2, 7)),
    "facets-3d": lambda: facet_enum_exact(_polytope(313, 3, 8)),
    "facets-4d": lambda: facet_enum_exact(_polytope(314, 4, 7)),
    "vertices-3d": lambda: vertex_enum_exact([(p, F(1)) for p in _polytope(315, 3, 7)]),
    "cube": lambda: facet_enum_exact(CUBE),
    "grid-3x3x3": lambda: facet_enum_exact(HULL_INPUTS["grid-3x3x3"]),
}


def _faulty_kernel(monkeypatch, fault):
    """Make the top-level double description return fault(rays); calls
    inside the certificate run unchanged.  Returns the list of top-level
    ray counts."""
    real = polyhedra._double_description
    counts = []

    def faulty(rows):
        rays = real(rows)
        if not counts:
            counts.append(len(rays))
            return fault(rays)
        return rays

    monkeypatch.setattr(polyhedra, "_double_description", faulty)
    return counts


@pytest.mark.parametrize("case", sorted(FAULT_CASES))
def test_certificate_rejects_every_dropped_ray(monkeypatch, case):
    counts = _faulty_kernel(monkeypatch, lambda rays: rays)
    FAULT_CASES[case]()
    (total,) = counts
    # every ray of the small cases, four spread over the larger ones
    drops = range(total) if total <= 30 else range(0, total, total // 3)
    for k in drops:
        _faulty_kernel(monkeypatch, lambda rays: rays[:k] + rays[k + 1:])
        with pytest.raises(RuntimeError, match="an edge leaves the rays"):
            FAULT_CASES[case]()


@pytest.mark.parametrize("fault, message", [
    (lambda rays: rays + rays[:1], "a repeated ray"),
    (lambda rays: rays + [(polyhedra._reduced([x + y for x, y in zip(rays[0][0], rays[1][0])]), 0)],
     "not extreme"),
    (lambda rays: rays + [(tuple(-x for x in rays[0][0]), 0)], "invalid"),
    (lambda rays: [], "no rays"),
], ids=["repeated", "inner", "outside", "empty"])
@pytest.mark.parametrize("points", [CUBE, _polytope(317, 3, 40)], ids=["cube", "filtered"])
def test_certificate_rejects_extra_and_missing_rays(monkeypatch, fault, message, points):
    _faulty_kernel(monkeypatch, fault)
    with pytest.raises(RuntimeError, match=message):
        facet_enum_exact(points)


FILTER_INPUTS = {  # (points, the largest share of signs left to exact dots)
    "random-3d": (_polytope(318, 3, 60), 0.25),
    "random-4d": (_polytope(319, 4, 33), 0.25),
    # coplanar grid points: many signs are exact zeros, never settled by a float
    "grid-5x5x5": (_half_grid([(-2, -1, 0, 1, 2)] * 3), 0.75),
    # entries past the float range: every image is inf, every sign exact
    "beyond-floats": ([tuple(x * F(1, 2 ** 1100) for x in p) for p in _polytope(320, 3, 40)], 1),
}


@pytest.mark.parametrize("name", sorted(FILTER_INPUTS))
def test_the_float_sign_filter_changes_no_output(monkeypatch, name):
    points, share = FILTER_INPUTS[name]
    dots = []
    real = polyhedra._dot
    monkeypatch.setattr(polyhedra, "_dot", lambda row, v: dots.append(1) or real(row, v))
    facets, keep = facet_enum_exact(points)
    with_filter = len(dots)
    verts = vertex_enum_exact(facets)
    monkeypatch.setattr(polyhedra, "FILTER_MIN", 10 ** 9)
    dots.clear()
    assert facet_enum_exact(points) == (facets, keep)
    assert with_filter <= share * len(dots)
    assert with_filter < len(dots) or share == 1
    assert vertex_enum_exact(facets) == verts
    assert verts[1] == list(range(len(facets)))


def test_extreme_rays_of_small_cones():
    # the orthant: the unit vectors, each tight at the other two rows
    assert extreme_rays([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == [
        ((1, 0, 0), 0b110), ((0, 1, 0), 0b101), ((0, 0, 1), 0b011)]
    # a square cone: x +- y >= 0 and x +- z >= 0 in R^3, primitive rays
    rays = extreme_rays([[1, 1, 0], [1, -1, 0], [2, 0, 2], [2, 0, -2]])
    assert sorted(v for v, _ in rays) == [(1, -1, -1), (1, -1, 1), (1, 1, -1), (1, 1, 1)]
    assert all(z.bit_count() == 2 for _, z in rays)
    # rows that do not span leave the cone without a vertex
    assert extreme_rays([[1, 0, 0], [0, 1, 0], [1, 1, 0]]) is None


def test_dimension_guard():
    # no dimension cap: one facet in R^4 is refused as unbounded, and the
    # cube and cross-polytope of R^1 and R^4 are enumerated
    with pytest.raises(UsageError, match="unbounded"):
        vertex_enum_exact([((F(1), F(0), F(0), F(0)), F(1))])
    assert vertex_enum_exact([((F(2),), F(1))]) == ([(F(1, 2),)], [0])
    unit = [tuple(F(int(i == j)) for j in range(4)) for i in range(4)]
    verts, keep = vertex_enum_exact([(e, F(1)) for e in unit])
    assert keep == [0, 1, 2, 3] and len(verts) == 8
    facets, keep = facet_enum_exact(unit)
    assert keep == [0, 1, 2, 3] and len(facets) == 8
    assert all(b == 1 and all(abs(x) == 1 for x in a) for a, b in facets)


def test_unbounded_guard():
    with pytest.raises(UsageError):
        vertex_enum_exact([((F(1), F(0)), F(1))])


def test_coplanar_3d_rows_do_not_span():
    # 242 float rows on the plane z = x: the exact Gram determinant is 0
    rng = helpers.rng_for(61)
    xy = rng.standard_normal((242, 2))
    rows = np.column_stack([xy[:, 0], xy[:, 1], xy[:, 0]])
    with pytest.raises(UsageError, match="vertices do not span"):
        PolyNorm.from_vertices(rows)
    with pytest.raises(UsageError, match="facet normals do not span"):
        PolyNorm.from_facets(rows, np.ones(len(rows)))


def _certify_calls(monkeypatch):
    """Count `_certify` calls, the top level and every tangent cone."""
    calls = []
    real = polyhedra._certify
    monkeypatch.setattr(polyhedra, "_certify", lambda *a: calls.append(1) or real(*a))
    return calls


def _cone_over(facets):
    """The rows (b, -a) of the cone {(t, x) : b t - <a, x> >= 0} over the
    polytope {x : <a, x> <= b}."""
    return [[b] + [-x for x in a] for a, b in facets]


# (rows, _certify calls).  The apex of the square pyramid and every
# cuboctahedron vertex lie on four facets in R^3, so their tangent cones are
# enumerated, unless they lie on the face of row 0 and the rule skips them.
SQUARE_PYRAMID_SIDES = [((1, 0, 1), 1), ((-1, 0, 1), 1), ((0, 1, 1), 1), ((0, -1, 1), 1)]
CUBOCTAHEDRON_SQUARES = [(tuple(s * int(i == j) for j in range(3)), 1) for i in range(3) for s in (1, -1)]
CUBOCTAHEDRON_TRIANGLES = [(s, 2) for s in itertools.product((1, -1), repeat=3)]
FACE_CONES = {
    # row 0 on the base: the apex lies off the face and recurses
    "pyramid-base": (_cone_over([((0, 0, -1), 0)] + SQUARE_PYRAMID_SIDES), 2),
    # row 0 on a side: the apex lies on the face and is skipped
    "pyramid-side": (_cone_over(SQUARE_PYRAMID_SIDES + [((0, 0, -1), 0)]), 1),
    # row 0 on a square: its four vertices are skipped, the other eight recurse
    "cuboctahedron-square": (_cone_over(CUBOCTAHEDRON_SQUARES + CUBOCTAHEDRON_TRIANGLES), 9),
    # row 0 on a triangle: its three vertices are skipped, the other nine recurse
    "cuboctahedron-triangle": (_cone_over(CUBOCTAHEDRON_TRIANGLES + CUBOCTAHEDRON_SQUARES), 10),
}


@pytest.mark.parametrize("name", sorted(FACE_CONES))
def test_the_face_rule_recurses_only_off_the_face_of_row_0(monkeypatch, name):
    rows, count = FACE_CONES[name]
    calls = _certify_calls(monkeypatch)
    rays = extreme_rays(rows)
    assert len(rays) == (5 if name.startswith("pyramid") else 12)
    assert all(v[0] == 1 for v, _ in rays)
    # one tangent cone at each degenerate ray off the face, none on it
    assert len(calls) == count == 1 + sum(1 for _, z in rays if not z & 1 and z.bit_count() > 3)


def test_certificate_rejects_a_lower_dimensional_cone():
    # {x : x_0 = 0, x_1 >= 0} is pointed and its one ray is valid and extreme
    with pytest.raises(RuntimeError, match="the rays do not span"):
        polyhedra._certify([(1, 0), (-1, 0), (0, 1)], [(0, 1)], range(3), {})


def test_a_zero_first_row_skips_no_edge_check():
    # every ray lies on the face of a zero row 0, so none is skipped: three
    # of the square cone's four rays span R^3 and still fail the certificate
    rows = [[0, 0, 0], [1, 1, 0], [1, -1, 0], [2, 0, 2], [2, 0, -2]]
    rays = [v for v, _ in polyhedra._double_description(rows)]
    assert len(rays) == 4
    with pytest.raises(RuntimeError):
        polyhedra._certify(rows, rays[1:], range(5), {})


def _l1_metric(seed, n, repeat):
    """An integer L1 metric on n seeded points of a small grid; with repeat,
    the last point copies the first, a zero off the diagonal."""
    pts = helpers.rng_for(seed).integers(0, 6, size=(n, 3))
    if repeat and n > 1:
        pts[-1] = pts[0]
    return _metric([tuple(int(x) for x in p) for p in pts])


def _float_pseudometric(seed, n):
    pts = helpers.rng_for(seed).standard_normal((n, 2))
    pts[-1] = pts[0]
    return FiniteMetric([[float(np.linalg.norm(p - q)) for q in pts] for p in pts])


SPAN_METRICS = {
    "float": lambda n: _float_metric(330 + n, n),
    "float-zero": lambda n: _float_pseudometric(340 + n, n),
    "l1": lambda n: _l1_metric(350 + n, n, False),
    "l1-zero": lambda n: _l1_metric(350 + n, n, True),
}
RULE_SPANS = {f"{kind}-{n}": lambda make=make, n=n: tight_span_vertices(make(n))
              for kind, make in SPAN_METRICS.items() for n in range(1, 11)}
RULE_HULLS = {name: case for name, case in FAULT_CASES.items() if not name.startswith("span")}
# sha256 of repr(output) under the simplicial face rule, whose outputs
# matched the full edge check at every ray for every case up to 8 points;
# the 9- and 10-point spans were computed under it with the size limit lifted
RULE_OUTPUTS = {
    "float-1": "fd8f7d7bf877f6fa89cc84645feaffb47b96ae52b75f279a996440e5c579d849",
    "float-2": "6eac9c9bc927f4455e49c6055d55874fc901cbc091b697cbe7e6b3a266a43731",
    "float-3": "fb5cf2c4e7313a062c37463d3e8bb762fb79649b50da86d2215b3c07dd0d3f5b",
    "float-4": "768661df938e93ce9b0878fde62a7f35f66de5d841545b3c04caefd1534edf4e",
    "float-5": "7cb1121be6adeea0241991cb1350bdc0b3008c715385d4f32d48cfaa1b6ce96b",
    "float-6": "39a14698ee782497b9a144967e38fd40bfd69c5b9ad1c8a2d20ed3524d0e647d",
    "float-7": "9b050962bf81cf7c2d5591e46e03129b0480e590435a2b9a3277bbef73195c13",
    "float-8": "1de739b76fc72da0935d7a0aedb198191845385f8b4cb8956622d6b0a4a121cb",
    "float-9": "aaa93ec22a6005fc0323d374e7a193f9c537337327404e69caaffd242371d2b7",
    "float-10": "bd54deac3440ecb313bc48ef354043d00fde1cd14e5374a25b8fa281e79a97f5",
    "float-zero-1": "fd8f7d7bf877f6fa89cc84645feaffb47b96ae52b75f279a996440e5c579d849",
    "float-zero-2": "26819990c0153f8e0dfefed14fc4ce2286e8ec2d24404ff0fd8b048927c10c69",
    "float-zero-3": "d2e0d08f7d12c6dcea0afda90f383e92a594ab9eb5779268032bdca6f96aa402",
    "float-zero-4": "ef85edd29fe014fa717994fe425c6bcbb46fbaef8090f7de2458796b67a69b86",
    "float-zero-5": "27b9bfd1b132f6d053268e8ee9de0cd4a511e8a6d0d000a6ac4e8bc1b52b009a",
    "float-zero-6": "455331ed3efd80ca03a0d44b31007d09296a569c8bbe5fd860a2e06b018e4d43",
    "float-zero-7": "fde4abe4603ba041e182e5a086588e1262677dc1848cbd50747b4274cc7eb43d",
    "float-zero-8": "cca1cf9e1ad294a8fbd5dcbfee90003ac507adc110a0b0f12eafb3ad8b8bc160",
    "float-zero-9": "56a98fc06f78a908f8831e7ea3512dbedf4ff03da722b351fd9101f20b13791a",
    "float-zero-10": "10caa7460c6fa426ea13cd70de144626616f159f57b08855c5f49aaf44993b3d",
    "l1-1": "fd8f7d7bf877f6fa89cc84645feaffb47b96ae52b75f279a996440e5c579d849",
    "l1-2": "7472a4776d50021efe97b4fbc5925f15c531e6e780565298d9c37901c9d3e2b5",
    "l1-3": "d288b74bf8960c7e80a84b576760ae5a35dbd3edf4177f503ac0a982a6d9ece1",
    "l1-4": "9cba2c833bfaa5bb2f0c7f8e4e43c7d83db987e02adc15b0c2620189d56c31eb",
    "l1-5": "e86cd496a3a6d760eb623b9901754cd4f8b03c8ff48d01228dae959642eae689",
    "l1-6": "1f8df823b5c6438f83be9503796eeb2ec8165f02652746c1fb4380b3ace08455",
    "l1-7": "35beecd66dae10148df74b14f2b58dd7ba0bc40d93a2aa42d0cf1f7a4ca2b028",
    "l1-8": "87725216fd3fe9ba41a6055b333d4709b67c744ad8dda95a56e97f96b3bfedf1",
    "l1-9": "74bc56b2d2cca0312cb1c4dc277d3b7c31714ad8bdb9a95f6e99aa2365e39683",
    "l1-10": "dcf24968344894f4952f6f12d36220d36b8f241f9abc2fdd09230433fb95c70c",
    "l1-zero-1": "fd8f7d7bf877f6fa89cc84645feaffb47b96ae52b75f279a996440e5c579d849",
    "l1-zero-2": "26819990c0153f8e0dfefed14fc4ce2286e8ec2d24404ff0fd8b048927c10c69",
    "l1-zero-3": "c4017e8085871d048cd4c344469b03aa560adf01bad927b0cc112dd01161480f",
    "l1-zero-4": "2b865741525ef48ea2bfdf18016c4da67a85d190f1ace4abedeaaa06c1892dc3",
    "l1-zero-5": "cfab9484a7d109c62088472bc74789d492ed376b98853ae8bb32b45a72581d1c",
    "l1-zero-6": "a41b8fb55bfadd30e3636f0812b54dd214cbb5891cb540d05db233a58d397de1",
    "l1-zero-7": "4acdd8516e2ce60baf862a2341006f95da57e7b445b454e78f7bf4d1dc75631b",
    "l1-zero-8": "b1cada91446a0eb380fc324f35f294ad39e1ebb131ed24d21075cf553bc2d244",
    "l1-zero-9": "108be0fe366e50b56c2f9a888cd3f08beeed7f33334c0f56067ad0a00401b416",
    "l1-zero-10": "db8e7235a9ec0be91f284226ae75e4e9f617feb6386a6e217369b76cfab1a752",
    "cube": "2fa748886701e7efd6e3733db2cf63cb0d118fff62e6edf078a1edb7ce03c4c4",
    "facets-2d": "9a6facd5ffb00ac6d67b82ff63e6957ed6a9d304bc9a4b37f1d0491d5f95966a",
    "facets-3d": "9e3b3cacbe24e29a1918fcb388e93a4e2223ac431514e350e055ed3324c050b4",
    "facets-3d-filtered": "a1b204d34cdaa7cd66d006866985b7c93af99a8d3435c01091e432bf87540f26",
    "facets-4d": "926eeddf05785a5808084d54f752400ddbdc36c63cb6997a79f884dd1d172291",
    "grid-3x3x3": "f15eb078e7f29908734e5a4f9b08a4dafd44e26a5333a549179745cafc92cbec",
    "vertices-3d": "c8af325614396384d69b3addd3d0d9c8b540bc71d2686eb9eceef23d65f3d40d",
}


@pytest.mark.parametrize("case", sorted(RULE_OUTPUTS))
def test_the_face_rule_changes_no_output(case):
    out = {**RULE_SPANS, **RULE_HULLS}[case]()
    assert hashlib.sha256(repr(out).encode()).hexdigest() == RULE_OUTPUTS[case]


DROP_CASES = {**FAULT_CASES, "span-l1-9": RULE_SPANS["l1-9"]}


@pytest.mark.parametrize("case", ["cube", "facets-3d", "span-exact4", "span-float8", "span-l1-6",
                                  "span-l1-9"])
def test_certificate_rejects_every_dropped_recession_ray(monkeypatch, case):
    # the rays on the face of row 0 are the recession rays of the polyhedron
    # {x : rows x >= 0, row_0 x = 1}, the rays off it its vertices; without
    # any one of them, on the face or off it, the certificate must fail
    rays = []
    _faulty_kernel(monkeypatch, lambda r: rays.extend(r) or r)
    DROP_CASES[case]()
    face = [k for k, (_, z) in enumerate(rays) if z & 1]  # none in facets-3d: point 0 is inner
    assert len(face) < len(rays)
    # every ray of the small cases; of the larger ones every face ray and a
    # seeded sample of the vertex rays
    off = [k for k in range(len(rays)) if k not in face]
    drops = range(len(rays)) if len(rays) <= 40 else face + sorted(
        helpers.rng_for(360).choice(off, 12, replace=False).tolist())
    for k in drops:
        _faulty_kernel(monkeypatch, lambda r: r[:k] + r[k + 1:])
        with pytest.raises(RuntimeError, match="an edge leaves the rays"):
            DROP_CASES[case]()
    # the face alone, with no ray off it, does not span
    if face:
        _faulty_kernel(monkeypatch, lambda r: [r[k] for k in face])
        with pytest.raises(RuntimeError, match="the rays do not span"):
            DROP_CASES[case]()


@pytest.mark.parametrize("case", ["span-float5", "span-float8"])
def test_generic_float_spans_certify_without_recursion(monkeypatch, case):
    # every vertex of a generic span is simple and the recession rays are
    # skipped, so no tangent cone is enumerated
    calls = _certify_calls(monkeypatch)
    FAULT_CASES[case]()
    assert len(calls) == 1


@pytest.mark.parametrize("at", [0, 2])
def test_extreme_rays_ignore_a_zero_row(at):
    # the square cone with a zero row put in at index `at`: the same rays,
    # and the zero row's bit set in every zero set
    square = [[1, 1, 0], [1, -1, 0], [2, 0, 2], [2, 0, -2]]
    rows = square[:at] + [[0, 0, 0]] + square[at:]

    def spread(z):  # a zero set over `square` as one over `rows`
        return sum(1 << (i + (i >= at)) for i in range(4) if z >> i & 1) | 1 << at

    assert extreme_rays(rows) == [(v, spread(z)) for v, z in extreme_rays(square)]
    assert extreme_rays([[0, 0, 0]] + rows) is not None
    assert extreme_rays([[0, 0], [0, 0]]) is None
