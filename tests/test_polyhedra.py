import itertools
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import linprog

import helpers
from normspace import InfeasibleScaleError, PolyNorm, UsageError, polyhedra
from normspace.polyhedra import (
    facet_enum_exact,
    hull2d,
    hull3d_planes,
    vertex_enum_exact,
    _canon_sign,
)

F = Fraction


def test_hull2d_square_with_interior_points():
    pts = [(F(1), F(1)), (F(-1), F(1)), (F(-1), F(-1)), (F(1), F(-1)),
           (F(0), F(0)), (F(1), F(0)), (F(1, 2), F(1, 2))]
    hull = hull2d(pts)
    assert sorted(hull) == [0, 1, 2, 3]  # collinear boundary point dropped too


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
    planes, verts = hull3d_planes(pts)
    assert len(planes) == 6
    assert verts == list(range(8))
    assert sorted(planes) == sorted(helpers.brute_hull3d(pts)[0])


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
        brute_planes, brute_verts = helpers.brute_hull3d(signed)
        assert sorted(brute_planes) == sorted(hull3d_planes(signed)[0])
        # polarity: the vertices are the brute-force planes (n, c) as n/c ...
        assert sorted(verts) == sorted(
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


def _signed(points):
    """Input i at index 2i and its antipode at 2i + 1, as _hull_planes does."""
    return [q for p in points for q in (p, tuple(-x for x in p))]


def _assert_hull_matches_oracle(points, keep):
    """Planes and vertices of conv(+-points) equal the brute-force oracle's,
    and keep lists the inputs that are hull vertices."""
    signed = _signed(points)
    planes, verts = hull3d_planes(signed)
    brute_planes, brute_verts = helpers.brute_hull3d(signed)
    assert sorted(planes) == sorted(brute_planes)
    assert verts == brute_verts
    assert keep == [i for i in range(len(points)) if 2 * i in brute_verts]


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
    _, keep = vertex_enum_exact(facets)
    _assert_hull_matches_oracle([tuple(x / b for x in a) for a, b in facets], keep)
    assert len(PolyNorm.from_facets(body.a, body.b).a) == len(keep)


TOP = ((F(0), F(0), F(1)), F(1))


@pytest.mark.parametrize("fault, message", [
    ("lost", "do not close up"),   # every edge of the top face keeps one face
    ("extra", "do not close up"),  # edges close up, but V - E + F = 3
    ("repeated", "known face"),
])
def test_hull3d_certificate_rejects_a_faulty_wrap(monkeypatch, fault, message):
    real = polyhedra._wrap
    seen = []

    def faulty(*args):
        plane, on = real(*args)
        seen.append(plane)
        if plane != TOP:
            return plane, on
        if fault == "lost":  # the top face comes back empty, under a new plane
            return (plane[0], plane[1] + len(seen)), []
        if fault == "extra":  # one empty face before the real top face
            return ((plane[0], plane[1] + 1), []) if seen.count(TOP) == 1 else (plane, on)
        return seen[0], on  # an earlier face in place of the top one

    monkeypatch.setattr(polyhedra, "_wrap", faulty)
    with pytest.raises(RuntimeError, match=message):
        hull3d_planes(CUBE)
    assert TOP in seen


def test_dimension_guard():
    with pytest.raises(InfeasibleScaleError):
        vertex_enum_exact([((F(1), F(0), F(0), F(0)), F(1))])


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
