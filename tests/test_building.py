import json
from fractions import Fraction

import numpy as np
import pytest

import helpers
from normspace import (
    DiagNorm,
    InfeasibleScaleError,
    LatticeVertex,
    PAdicContext,
    PairwiseRadiusError,
    UsageError,
    ball_bfs,
    gi_distance,
    helly_check_building,
    neighbors,
    random_vertex,
    scale_norm,
)
from helpers import hnf_dvr, reduce_mod_ppow, submodule_generators, vertices_equal
from normspace import building
from normspace.building import (
    _hermite,
    _standard_forms,
    adjacency_json,
    graphml,
)
from normspace.cli import main

P2 = PAdicContext(2)
P3 = PAdicContext(3)


def vertex(cols, p=2, weights=None):
    n = len(cols)
    basis = [[cols[j][i] for j in range(n)] for i in range(n)]
    return LatticeVertex(DiagNorm(PAdicContext(p), basis, weights or [0] * n))


STD2 = LatticeVertex.standard(P2, 2)


def test_vertex_requires_integer_weights():
    with pytest.raises(UsageError):
        LatticeVertex(DiagNorm(P2, [[1, 0], [0, 1]], [Fraction(1, 2), 0]))


def test_reduce_mod_ppow():
    assert reduce_mod_ppow(Fraction(7), 2, 2) == 3
    assert reduce_mod_ppow(Fraction(8), 2, 2) == 0
    assert reduce_mod_ppow(Fraction(1, 3), 1, 2) == 1  # 1/3 = 1 mod 2Z_(2)
    assert reduce_mod_ppow(Fraction(3, 2), 2, 2) == Fraction(3, 2)
    assert reduce_mod_ppow(Fraction(13, 2), 2, 2) == Fraction(5, 2)  # 13/2 - 5/2 = 4


def test_hnf_canonical_for_same_lattice():
    rng = helpers.rng_for(200)
    base = [(Fraction(2), Fraction(0)), (Fraction(1), Fraction(1))]
    h0 = hnf_dvr(base, 2)
    for _ in range(20):
        u = helpers.random_unimodular(rng, 2)
        # recombine columns by a unimodular integer matrix: same lattice
        cols = [
            tuple(sum(base[k][i] * u[k][j] for k in range(2)) for i in range(2))
            for j in range(2)
        ]
        assert hnf_dvr(cols, 2) == h0
    # p-adically irrelevant odd scalings keep the lattice too
    cols = [tuple(x * 3 for x in base[0]), tuple(x * Fraction(5, 7) for x in base[1])]
    assert hnf_dvr(cols, 2) == h0


def test_hnf_shape():
    h = hnf_dvr([(Fraction(2), Fraction(0)), (Fraction(1), Fraction(1))], 2)
    assert h[1][0] == 0
    # diagonal entries are powers of p, off-diagonal reduced mod the pivot
    assert h[0][0] in (Fraction(1), Fraction(2))
    assert 0 <= h[0][1] < h[0][0] or h[0][1] == 0


def test_vertices_equal_examples():
    assert vertices_equal(STD2, STD2)
    same = vertex([(1, 0), (1, 1)])
    assert vertices_equal(STD2, same)
    assert same.canonical_key == STD2.canonical_key
    other = vertex([(2, 0), (1, 1)])
    assert not vertices_equal(STD2, other)
    assert other.canonical_key != STD2.canonical_key


def test_vertices_equal_matches_distance_zero():
    rng = helpers.rng_for(201)
    for seed in range(12):
        a = random_vertex(seed, 2, P2, 2)
        b = random_vertex(seed + 100, 2, P2, 2)
        eq = vertices_equal(a, b)
        assert eq == (gi_distance(a.norm, b.norm) == 0)
        assert eq == (a.canonical_key == b.canonical_key)


def test_weight_shift_absorbs_into_lattice():
    shifted = LatticeVertex(scale_norm(STD2.norm, 1))
    direct = vertex([(2, 0), (0, 2)])
    assert vertices_equal(shifted, direct)


def _independent_subgroup_count(modulus, n=2):
    """Closure enumeration of <= 2 generators, written independently of the
    library's submodule machinery (numpy grid closures)."""
    import itertools

    import numpy as np

    elems = list(itertools.product(range(modulus), repeat=n))
    grid = np.indices((modulus, modulus)).reshape(2, -1).T
    seen = set()
    for g1 in elems:
        for g2 in elems:
            if g2 < g1:
                continue
            pts = (grid[:, :1] * np.array(g1) + grid[:, 1:] * np.array(g2)) % modulus
            seen.add(np.unique(pts, axis=0).tobytes())
    return len(seen)


def test_submodule_counts():
    assert len(_standard_forms(1, 2)) == 3
    assert len(_standard_forms(2, 2)) == 15
    assert len(_standard_forms(2, 3)) == 23
    assert len(_standard_forms(3, 2)) == 129
    assert len(_standard_forms(3, 3)) == 445
    # independent oracle for the two 2-dimensional cases
    assert _independent_subgroup_count(4) == 15
    assert _independent_subgroup_count(9) == 23


@pytest.mark.parametrize("n,p", [(1, 2), (1, 3), (2, 2), (2, 3), (3, 2)])
def test_standard_forms_match_the_submodule_closure(n, p):
    eye = [[p * p * (i == j) for i in range(n)] for j in range(n)]
    closed = {tuple(map(tuple, _hermite(eye + [list(g) for g in gens], p)))
              for gens in submodule_generators(n, p)}
    listed = [tuple(map(tuple, h)) for h in _standard_forms(n, p)]
    assert len(set(listed)) == len(listed)
    assert set(listed) == closed
    # every form contains p^2 Z^n: p^2 e_k is an integer combination of its columns
    for h in _standard_forms(n, p):
        for k in range(n):
            x = [p * p * (i == k) for i in range(n)]
            for j in range(n - 1, -1, -1):
                q, r = divmod(x[j], h[j][j])
                assert r == 0
                x = [a - q * b for a, b in zip(x, h[j])]
            assert not any(x)


def test_neighbors_dimension_one():
    v = LatticeVertex.standard(P2, 1)
    ns = neighbors(v)
    assert len(ns) == 2
    assert sorted(gi_distance(v.norm, u.norm) for u in ns) == [1, 1]


def test_neighbors_count_standard():
    ns = neighbors(STD2)
    assert len(ns) == 14
    for u in ns:
        assert gi_distance(STD2.norm, u.norm) == 1


def test_neighbors_contains_shifted_vertex():
    shifted = LatticeVertex(scale_norm(STD2.norm, 1))
    assert any(vertices_equal(shifted, u) for u in neighbors(STD2))


def test_neighbor_degree_constant_on_samples():
    for seed in range(6):
        v = random_vertex(seed, 2, P2, 2)
        assert len(neighbors(v)) == 14
    assert len(neighbors(LatticeVertex.standard(P3, 2))) == 22
    assert len(neighbors(LatticeVertex.standard(P2, 3))) == 128
    for seed in (1000, 1001):
        v = random_vertex(seed, 3, P2, 3)
        assert len(neighbors(v)) == 128


def test_neighbors_scale_bound():
    with pytest.raises(InfeasibleScaleError):
        neighbors(LatticeVertex.standard(PAdicContext(5), 2))
    with pytest.raises(InfeasibleScaleError):
        neighbors(LatticeVertex.standard(P2, 4))


def test_ball_radius_zero_and_one():
    b0 = ball_bfs(STD2, 0)
    assert len(b0) == 1
    b1 = ball_bfs(STD2, 1)
    assert len(b1) == 15


def test_ball_two_matches_subgroup_oracle():
    # lattices between p^2 L and p^-2 L correspond to subgroups of (Z/16)^2;
    # an independent enumeration (pair closures over Z/16) counts 83
    assert len(ball_bfs(STD2, 2)) == 83


def test_ball_depth_equals_distance_offcenter():
    center = random_vertex(7, 2, P2, 2)
    ball = ball_bfs(center, 2)  # raises internally on any depth mismatch
    depths = sorted(d for _, d in ball.values())
    assert depths[0] == 0 and depths[-1] == 2


def test_ball_depth_equals_distance_p3():
    # graph metric = norm metric at n=2, p=3 up to radius 2
    std = LatticeVertex.standard(P3, 2)
    ball = ball_bfs(std, 2)
    assert len(ball) > 23
    for v, depth in ball.values():
        assert gi_distance(std.norm, v.norm) == depth


def test_helly_single_ball():
    cert = helly_check_building([(STD2, 1)], mode="witness")
    assert cert.outcome == "witness"
    assert gi_distance(cert.witness.norm, STD2.norm) <= 1
    cert2 = helly_check_building([(STD2, 1)], mode="exhaustive")
    assert cert2.outcome == "witness"
    assert cert2.stats["ball_sizes"] == [15]


def test_helly_adjacent_triple():
    ns = neighbors(STD2)
    a = STD2
    b = ns[0]
    # pick a third vertex adjacent to both
    c = next(
        u for u in neighbors(b)
        if u.canonical_key != a.canonical_key
        and gi_distance(u.norm, a.norm) == 1
    )
    family = [(a, 1), (b, 1), (c, 1)]
    w = helly_check_building(family, mode="witness")
    e = helly_check_building(family, mode="exhaustive")
    assert w.outcome == e.outcome == "witness"
    for v, r in family:
        assert gi_distance(w.witness.norm, v.norm) <= r
        assert gi_distance(e.witness.norm, v.norm) <= r


def test_helly_witness_is_vertex_and_modes_agree():
    rng = helpers.rng_for(202)
    for trial in range(5):
        centers = [random_vertex(50 + trial * 3 + k, 1, P2, 2) for k in range(3)]
        dmax = max(
            gi_distance(a.norm, b.norm) for a in centers for b in centers
        )
        radii = [int(-(-dmax // 2)) + 1] * 3
        family = list(zip(centers, radii))
        w = helly_check_building(family, mode="witness")
        assert all(x.denominator == 1 for x in w.witness.norm.weights)
        e = helly_check_building(family, mode="exhaustive")
        assert e.outcome == "witness"


def test_witness_mode_measures_each_pair_once(monkeypatch):
    import normspace.building
    import normspace.valued

    centers = [random_vertex(80 + k, 1, P2, 2) for k in range(3)]
    dmax = max(gi_distance(a.norm, b.norm) for a in centers for b in centers)
    family = [(c, int(-(-dmax // 2)) + 1) for c in centers]
    norms = {id(c.norm): s for s, c in enumerate(centers)}
    pairs = []

    def counting(a, b):
        if id(a) in norms and id(b) in norms:
            pairs.append((norms[id(a)], norms[id(b)]))
        return gi_distance(a, b)

    monkeypatch.setattr(normspace.building, "gi_distance", counting)
    monkeypatch.setattr(normspace.valued, "gi_distance", counting)
    assert helly_check_building(family, mode="witness").outcome == "witness"
    assert sorted(pairs) == [(0, 1), (0, 2), (1, 2)]


def test_helly_pairwise_violation():
    far = LatticeVertex(scale_norm(STD2.norm, 5))
    with pytest.raises(PairwiseRadiusError) as exc:
        helly_check_building([(STD2, 1), (far, 1)], mode="witness")
    assert exc.value.pair == (0, 1)
    cert = helly_check_building([(STD2, 1), (far, 1)], mode="exhaustive")
    assert cert.outcome == "empty"
    assert cert.offending_pair == (0, 1)


def test_random_vertex_contract():
    v1 = random_vertex(42, 3, P2, 2)
    v2 = random_vertex(42, 3, P2, 2)
    assert vertices_equal(v1, v2)
    assert vertices_equal(random_vertex(9, 0, P2, 2), STD2)
    for seed in range(100):
        r = seed % 4
        v = random_vertex(seed, r, P2, 2)
        assert gi_distance(v.norm, STD2.norm) <= r


def test_certificate_json_roundtrip():
    cert = helly_check_building([(STD2, 1)], mode="witness")
    doc = cert.to_json()
    assert doc["schema_version"] == 1
    assert doc["outcome"] == "witness"
    w = LatticeVertex.from_json(doc["witness"])
    assert vertices_equal(w, cert.witness)


def test_graph_exports():
    ball = ball_bfs(STD2, 1)
    verts = [v for v, _ in ball.values()]
    adj = adjacency_json(verts)
    assert adj["schema_version"] == 1
    assert len(adj["vertices"]) == 15
    std_entry = adj["vertices"][STD2.key_string]
    assert len(std_entry["neighbors"]) == 14
    xml = graphml(verts)
    assert xml.count("<node") == 15
    assert "<edge" in xml


@pytest.mark.parametrize("p, n, r", [(2, 2, 2), (3, 2, 1), (2, 3, 1)])
def test_a_ball_builds_only_the_center_norm(monkeypatch, p, n, r):
    obj = random_vertex(707, 2, PAdicContext(p), n).to_json()
    built = []
    init = DiagNorm.__init__

    def counted(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(DiagNorm, "__init__", counted)
    ball = ball_bfs(LatticeVertex.from_json(obj), r)
    doc = [v.to_json() for v, _ in ball.values()]
    monkeypatch.undo()
    assert len(ball) == {(2, 2, 2): 83, (3, 2, 1): 23, (2, 3, 1): 129}[(p, n, r)]
    assert len(built) == 1
    # the integer emission is the Fraction norm's, byte for byte
    assert doc == [v.norm.to_json() for v, _ in ball.values()]


def test_the_depth_audit_is_live(monkeypatch, capsys):
    """A neighbour form at distance 3 makes the audit raise, and the CLI exit 4."""
    forms = building._standard_forms

    def with_a_far_form(n, p):
        return forms(n, p) + [[[1, 0], [0, p ** 4]]]

    monkeypatch.setattr(building, "_standard_forms", with_a_far_form)
    with pytest.raises(RuntimeError, match="BFS depth disagrees"):
        ball_bfs(STD2, 1)
    code = main(["ball", "--center", json.dumps(STD2.to_json()), "--radius", "1"])
    captured = capsys.readouterr()
    assert code == 4 and captured.out == ""
    doc = json.loads(captured.err)
    assert doc["error"] == "internal" and "BFS depth disagrees" in doc["message"]
