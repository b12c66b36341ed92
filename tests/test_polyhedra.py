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
        _, keep = vertex_enum_exact([(p, F(1)) for p in pts])
        body = PolyNorm.from_facets(pts, [1] * len(pts))
        rows = body.a
    else:
        _, keep = facet_enum_exact(pts)
        body = PolyNorm.from_vertices(pts)
        rows = body.vertices
    assert keep == [0, 2, 4]
    assert rows.tolist() == [[float(x) for x in p] for p in (b0, b1, b2)]


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


@pytest.mark.parametrize("case", ["span-l1-6", "span-float8"])
def test_certificate_rejects_every_dropped_recession_ray(monkeypatch, case):
    # the rays (e_k, t = 0) make the face of row 0 (t >= 0) simplicial; without
    # one of them the face is not certified and the full check must catch it
    rays = []
    _faulty_kernel(monkeypatch, lambda r: rays.extend(r) or r)
    FAULT_CASES[case]()
    flat = [k for k, (v, _) in enumerate(rays) if v[-1] == 0]
    assert len(flat) == len(rays[0][0]) - 1
    for k in flat:
        _faulty_kernel(monkeypatch, lambda r: r[:k] + r[k + 1:])
        with pytest.raises(RuntimeError, match="an edge leaves the rays"):
            FAULT_CASES[case]()
    # the face alone, with no ray off it, is not certified either
    _faulty_kernel(monkeypatch, lambda r: [r[k] for k in flat])
    with pytest.raises(RuntimeError, match="an edge leaves the rays"):
        FAULT_CASES[case]()


def _cone_over(facets):
    """The rows (b, -a) of the cone {(t, x) : b t - <a, x> >= 0} over the
    polytope {x : <a, x> <= b}."""
    return [[b] + [-x for x in a] for a, b in facets]


# (rows, _certify calls with the rule, without it).  The apex of the square
# pyramid and every cuboctahedron vertex lie on four facets in R^3, so their
# tangent cones are certified by recursion unless the rule skips them.
SQUARE_PYRAMID_SIDES = [((1, 0, 1), 1), ((-1, 0, 1), 1), ((0, 1, 1), 1), ((0, -1, 1), 1)]
CUBOCTAHEDRON_SQUARES = [(tuple(s * int(i == j) for j in range(3)), 1) for i in range(3) for s in (1, -1)]
CUBOCTAHEDRON_TRIANGLES = [(s, 2) for s in itertools.product((1, -1), repeat=3)]
FACE_CONES = {
    # row 0 on the base: four rays on the face, the rule does not apply
    "pyramid-base": (_cone_over([((0, 0, -1), 0)] + SQUARE_PYRAMID_SIDES), 2, 2),
    # row 0 on a side: a certified triangle holding the apex
    "pyramid-side": (_cone_over(SQUARE_PYRAMID_SIDES + [((0, 0, -1), 0)]), 1, 2),
    # row 0 on a square: its four degenerate vertices still recurse
    "cuboctahedron-square": (_cone_over(CUBOCTAHEDRON_SQUARES + CUBOCTAHEDRON_TRIANGLES), 13, 13),
    # row 0 on a triangle: its three vertices are skipped
    "cuboctahedron-triangle": (_cone_over(CUBOCTAHEDRON_TRIANGLES + CUBOCTAHEDRON_SQUARES), 10, 13),
}


@pytest.mark.parametrize("name", sorted(FACE_CONES))
def test_the_face_rule_fires_only_on_a_certified_simplicial_face(monkeypatch, name):
    rows, with_rule, without = FACE_CONES[name]
    calls = _certify_calls(monkeypatch)
    rays = extreme_rays(rows)
    assert len(calls) == with_rule
    assert len(rays) == (5 if name.startswith("pyramid") else 12)
    assert all(v[0] == 1 for v, _ in rays)
    calls.clear()
    monkeypatch.setattr(polyhedra, "_simplicial_face", lambda *a: 0)
    assert extreme_rays(rows) == rays
    assert len(calls) == without


def test_simplicial_face_needs_every_condition():
    # d = 4 and four rays: rows 0..3 hold rays {0, 1, 2}, {1, 2, 3}, {0, 2, 3}
    # and {0, 1, 3}, so rows 1, 2 and 3 each cut one ray off the face of row 0
    holders = {0: 0b0111, 1: 0b1110, 2: 0b1101, 3: 0b1011}
    assert polyhedra._simplicial_face(4, range(4), holders, 4) == 0b0111
    # no row cuts ray 2 off the face
    assert polyhedra._simplicial_face(4, range(3), holders, 4) == 0
    # no ray lies off the face
    assert polyhedra._simplicial_face(4, range(4), holders, 3) == 0
    # d - 2 or d rays on the face
    assert polyhedra._simplicial_face(5, range(4), holders, 5) == 0
    assert polyhedra._simplicial_face(3, range(4), holders, 4) == 0


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
              for kind, make in SPAN_METRICS.items() for n in range(1, 9)}
RULE_HULLS = {name: case for name, case in FAULT_CASES.items() if not name.startswith("span")}


@pytest.mark.parametrize("case", sorted(RULE_SPANS) + sorted(RULE_HULLS))
def test_the_face_rule_changes_no_output(monkeypatch, case):
    # with the rule off, _certify runs the full edge check at every ray
    run = {**RULE_SPANS, **RULE_HULLS}[case]
    outputs, faces = [], []
    real, real_face = polyhedra.extreme_rays, polyhedra._simplicial_face
    monkeypatch.setattr(polyhedra, "extreme_rays", lambda rows: outputs.append(real(rows)) or outputs[-1])
    monkeypatch.setattr(polyhedra, "_simplicial_face", lambda *a: faces.append(real_face(*a)) or faces[-1])
    result = run()
    assert faces[0] or case in RULE_HULLS  # every span's recession face is skipped
    monkeypatch.setattr(polyhedra, "_simplicial_face", lambda *a: 0)
    assert run() == result
    assert len(outputs) == 2 and outputs[0] == outputs[1]


@pytest.mark.parametrize("case", ["span-float5", "span-float8"])
def test_generic_float_spans_certify_without_recursion(monkeypatch, case):
    # every vertex of a generic span is simple and the recession rays are
    # skipped, so no tangent cone is enumerated
    calls = _certify_calls(monkeypatch)
    FAULT_CASES[case]()
    assert len(calls) == 1
