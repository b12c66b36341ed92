import itertools
from fractions import Fraction

import numpy as np
import pytest
import scipy.spatial
from scipy.optimize import linprog

import helpers
from normspace import InfeasibleScaleError, PolyNorm, UsageError, polyhedra, qlinalg
from normspace.polyhedra import (
    facet_enum_exact,
    hull2d,
    hull3d_planes,
    vertex_enum_exact,
    _brute_hull3d_planes,
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
    planes = hull3d_planes(pts)
    assert len(planes) == 6
    assert sorted(planes) == sorted(_brute_hull3d_planes(pts))


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
        brute_planes = _brute_hull3d_planes(signed)
        assert sorted(brute_planes) == sorted(hull3d_planes(signed))
        # polarity: the vertices are the brute-force planes (n, c) as n/c ...
        assert sorted(verts) == sorted(
            {_canon_sign(tuple(x / c for x in nrm)) for nrm, c in brute_planes})
        # ... and facet i is kept iff the planes through its polar point span
        full_rank = []
        for i, p in enumerate(polar_pts):
            touching = [nrm for nrm, c in brute_planes
                        if sum(x * y for x, y in zip(nrm, p)) == c]
            if touching and qlinalg.rank(qlinalg.mat(touching)) == 3:
                full_rank.append(i)
        assert keep == full_rank


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


def _fake_convex_hull(monkeypatch, fake):
    """Replace Qhull by `fake` and count the brute-force fallbacks."""
    monkeypatch.setattr(scipy.spatial, "ConvexHull", fake)
    calls = []
    brute = polyhedra._brute_hull3d_planes

    def counted(points):
        calls.append(len(points))
        return brute(points)

    monkeypatch.setattr(polyhedra, "_brute_hull3d_planes", counted)
    return calls


def test_hull3d_rejects_a_seed_with_a_non_facet_triple(monkeypatch):
    real = scipy.spatial.ConvexHull(np.array(CUBE, dtype=float)).simplices

    class Seed:
        # (1,1,1), (1,-1,-1), (-1,1,-1) span x + y - z = 1, which cuts the cube
        simplices = np.vstack([real, [[0, 3, 5]]])

    calls = _fake_convex_hull(monkeypatch, lambda arr: Seed())
    assert sorted(hull3d_planes(CUBE)) == sorted(_brute_hull3d_planes(CUBE))
    assert calls == [8]


def test_hull3d_falls_back_on_qhull_error(monkeypatch):
    def fail(arr):
        raise scipy.spatial.QhullError("QH6154 initial simplex is flat")

    calls = _fake_convex_hull(monkeypatch, fail)
    assert sorted(hull3d_planes(CUBE)) == sorted(_brute_hull3d_planes(CUBE))
    assert calls == [8]


def test_hull3d_lets_other_errors_propagate(monkeypatch):
    def broken(arr):
        raise TypeError("not a Qhull failure")

    calls = _fake_convex_hull(monkeypatch, broken)
    with pytest.raises(TypeError):
        hull3d_planes(CUBE)
    assert calls == []


def test_dimension_guard():
    with pytest.raises(InfeasibleScaleError):
        vertex_enum_exact([((F(1), F(0), F(0), F(0)), F(1))])


def test_unbounded_guard():
    with pytest.raises(UsageError):
        vertex_enum_exact([((F(1), F(0)), F(1))])
