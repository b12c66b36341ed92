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
from normspace.building import _ball_forms, _hermite, _key_order
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
    assert len(_ball_forms(1, 2, 1)) == 3
    assert len(_ball_forms(2, 2, 1)) == 15
    assert len(_ball_forms(2, 3, 1)) == 23
    assert len(_ball_forms(3, 2, 1)) == 129
    assert len(_ball_forms(3, 3, 1)) == 445
    # independent oracle for the two 2-dimensional cases
    assert _independent_subgroup_count(4) == 15
    assert _independent_subgroup_count(9) == 23


@pytest.mark.parametrize("n,p", [(1, 2), (1, 3), (2, 2), (2, 3), (3, 2)])
def test_standard_forms_match_the_submodule_closure(n, p):
    eye = [[p * p * (i == j) for i in range(n)] for j in range(n)]
    closed = {tuple(map(tuple, _hermite(eye + [list(g) for g in gens], p)))
              for gens in submodule_generators(n, p)}
    listed = [h for _, h in _ball_forms(n, p, 1)]
    assert len(set(listed)) == len(listed)
    assert set(listed) == closed
    # every form contains p^2 Z^n: p^2 e_k is an integer combination of its columns
    for h in listed:
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
    """At most once: a witness whose memberships hold proves the pairwise
    condition by the triangle inequality and measures no input pair; a
    violation measures the pairs in order, each once, up to the first
    that breaks the condition."""
    import normspace.building
    import normspace.valued

    centers = [random_vertex(80 + k, 1, P2, 2) for k in range(3)]
    dmax = max(gi_distance(a.norm, b.norm) for a in centers for b in centers)
    family = [(c, int(-(-dmax // 2)) + 1) for c in centers]
    far = LatticeVertex(scale_norm(centers[0].norm, 2 * dmax + 5))
    norms = {id(c.norm): s for s, c in enumerate(centers + [far])}
    pairs = []

    def counting(a, b):
        if id(a) in norms and id(b) in norms:
            pairs.append((norms[id(a)], norms[id(b)]))
        return gi_distance(a, b)

    monkeypatch.setattr(normspace.building, "gi_distance", counting)
    monkeypatch.setattr(normspace.valued, "gi_distance", counting)
    assert helly_check_building(family, mode="witness").outcome == "witness"
    assert pairs == []
    with pytest.raises(PairwiseRadiusError) as exc:
        helly_check_building(family + [(far, 1)], mode="witness")
    assert exc.value.pair == (0, 3)
    assert pairs == [(0, 1), (0, 2), (0, 3)]


def test_witness_mode_violations_match_the_eager_check(monkeypatch, capsys):
    """helly-building prints the eager check's bytes, exit 1 included."""
    import normspace.building

    seen = set()
    for p, n, k in ((2, 2, 3), (3, 2, 4), (5, 3, 3), (2, 3, 6)):
        ctx = PAdicContext(p)
        centers = [random_vertex(300 + 10 * p + s, 3, ctx, n) for s in range(k)]
        for trial in range(4):
            radii = [trial + (s + trial) % 2 for s in range(k)]
            doc = json.dumps({"centers": [c.to_json() for c in centers], "radii": radii})
            outs = []
            for witness in (normspace.valued.helly_witness_na, helpers.helly_witness_na_eager):
                monkeypatch.setattr(normspace.building, "helly_witness_na", witness)
                outs.append((main(["helly-building", "--family", doc]), capsys.readouterr()))
            assert outs[0] == outs[1]
            seen.add(outs[0][0])
    assert seen == {0, 1}


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


@pytest.mark.parametrize("p, n, r", [(2, 2, 2), (3, 2, 1), (2, 3, 1)])
def test_a_ball_builds_only_the_center_norm(monkeypatch, p, n, r):
    obj = random_vertex(707, 2, PAdicContext(p), n).to_json()
    built = []
    fill = DiagNorm._fill  # every norm's integer data is made here

    def counted(self, *args):
        built.append(self)
        fill(self, *args)

    monkeypatch.setattr(DiagNorm, "_fill", counted)
    ball = ball_bfs(LatticeVertex.from_json(obj), r)
    doc = [v.to_json() for v, _ in ball.values()]
    monkeypatch.undo()
    assert len(ball) == {(2, 2, 2): 83, (3, 2, 1): 23, (2, 3, 1): 129}[(p, n, r)]
    assert len(built) == 1
    # the integer emission is the Fraction norm's, byte for byte
    assert doc == [v.norm.to_json() for v, _ in ball.values()]


def test_the_depth_audit_is_live(monkeypatch, capsys):
    """A form listed at depth 1 but at distance 3 makes the audit raise, and
    the CLI exit 4."""
    forms = building._ball_forms

    def with_a_far_form(n, p, r):
        return forms(n, p, r) + [(1, ((1, 0), (0, p ** 4)))]

    monkeypatch.setattr(building, "_ball_forms", with_a_far_form)
    with pytest.raises(RuntimeError, match="listed depth disagrees"):
        ball_bfs(STD2, 1)
    code = main(["ball", "--center", json.dumps(STD2.to_json()), "--radius", "1"])
    captured = capsys.readouterr()
    assert code == 4 and captured.out == ""
    doc = json.loads(captured.err)
    assert doc["error"] == "internal" and "listed depth disagrees" in doc["message"]


# Birkhoff's count of the submodules of (Z/p^{2r})^n, as (n, p, r) -> size
BALL_COUNTS = {(1, 2, 1): 3, (2, 2, 1): 15, (2, 3, 1): 23, (2, 2, 2): 83, (3, 2, 1): 129,
               (2, 3, 2): 237, (3, 3, 1): 445, (3, 5, 1): 2607, (4, 2, 1): 1983,
               (3, 2, 2): 4387, (3, 3, 2): 67969}


def test_ball_size_table():
    assert {k: building.ball_sizes(*k)[-1] for k in BALL_COUNTS} == BALL_COUNTS
    assert [building.ball_sizes(n, p, 0) for n, p in ((1, 2), (4, 5))] == [[1], [1]]
    # ball(1) is the center and its neighbours, one per form between p^2 Z^n and Z^n
    for n, p in ((1, 2), (1, 3), (2, 2), (2, 3), (3, 2), (3, 3)):
        assert building.ball_sizes(n, p, 1)[1] == len(_ball_forms(n, p, 1))


def test_the_ball_cap_admits_every_ball_up_to_its_size():
    assert building.ball_sizes(2, 3, 4)[-1] == 19673
    with pytest.raises(InfeasibleScaleError, match="radius 5 has 177135"):
        building.ball_sizes(2, 3, 5)
    with pytest.raises(InfeasibleScaleError, match="radius 4 has 2344743"):
        ball_bfs(random_vertex(7, 2, PAdicContext(2), 3), 4)


def test_a_line_ball_is_counted_in_linear_time():
    # the partition sum took time cubic in the radius: 30 s at radius 300
    ball = ball_bfs(LatticeVertex.standard(PAdicContext(3), 1), 1000)
    assert len(ball) == building.ball_sizes(1, 3, 1000)[-1] == 2001


@pytest.mark.parametrize("n, p, r", [(1, 2, 5), (1, 3, 3), (2, 2, 3), (2, 3, 2), (3, 2, 1),
                                     (3, 2, 3)])
def test_ball_size_matches_the_bfs(n, p, r):
    ball = ball_bfs(random_vertex(31 + n + p + r, 2, PAdicContext(p), n), r)
    for k, size in enumerate(building.ball_sizes(n, p, r)):
        assert sum(d <= k for _, d in ball.values()) == size


def test_frame_keys_name_the_unreduced_product():
    """B = F1 F2 is a product of two forms at n = 3, p = 2 that is not in
    Hermite form: its entry (1, 2) is 4, past the pivot 2.  The reduce-only
    product of B and any form F must still be the Hermite form of B·F."""
    def product(b, f):
        return [[sum(b[k][i] * col[k] for k in range(3)) for i in range(3)] for col in f]

    def cols(key):
        return [list(col) for col in key]

    forms = [[list(col) for col in h] for _, h in _ball_forms(3, 2, 1)]
    f1, f2 = [[4, 0, 0], [0, 2, 0], [0, 1, 2]], [[4, 0, 0], [0, 1, 0], [0, 0, 4]]
    assert f1 in forms and f2 in forms
    raw = product(f1, f2)
    assert raw != cols(building._frame_product(f1, f2)) == _hermite(raw, 2)
    for f in forms:
        assert cols(building._frame_product(raw, f)) == _hermite(product(raw, f), 2)


def test_the_count_audit_is_live(monkeypatch, capsys):
    """A form gone missing leaves every depth right but a sphere short: the
    count raises, and the CLI exits 4."""
    forms = building._ball_forms
    monkeypatch.setattr(building, "_ball_forms", lambda n, p, r: forms(n, p, r)[:-1])
    with pytest.raises(RuntimeError, match="the sphere of radius 1 has 13 vertices, Birkhoff's count 14"):
        ball_bfs(STD2, 1)
    code = main(["ball", "--center", json.dumps(STD2.to_json()), "--radius", "1"])
    captured = capsys.readouterr()
    assert code == 4 and captured.out == ""
    doc = json.loads(captured.err)
    assert doc["error"] == "internal" and "Birkhoff's count 14" in doc["message"]


def test_a_frame_key_that_merges_lattices_exits_4(monkeypatch, capsys):
    """Forgetting the corner entry of a vertex's product keys it as another
    lattice: that vertex's depth audit catches it, and the CLI exits 4."""
    frame_product = building._frame_product

    def merging(b, form):
        key = [list(col) for col in frame_product(b, form)]
        key[-1][0] = 0
        return tuple(map(tuple, key))

    monkeypatch.setattr(building, "_frame_product", merging)
    center = random_vertex(41, 2, P3, 2)
    code = main(["ball", "--center", json.dumps(center.to_json()), "--radius", "1"])
    captured = capsys.readouterr()
    assert code == 4 and captured.out == ""
    doc = json.loads(captured.err)
    assert doc["error"] == "internal" and "listed depth disagrees with the metric" in doc["message"]


def test_a_frame_key_that_splits_a_lattice_is_fatal(monkeypatch, capsys):
    """A vertex's product that also names its form, by adding the form's
    index times its first column to its last, keys one lattice several ways:
    the form p I keys the center a second time, two vertices sit at depth
    0, and the count raises."""
    frame_product, forms = building._frame_product, [h for _, h in _ball_forms(2, 2, 1)]

    def splitting(b, form):
        key = [list(col) for col in frame_product(b, form)]
        key[-1] = [x + forms.index(form) * y for x, y in zip(key[-1], key[0])]
        return tuple(map(tuple, key))

    monkeypatch.setattr(building, "_frame_product", splitting)
    with pytest.raises(RuntimeError, match="the sphere of radius 0 has 2 vertices, Birkhoff's count 1"):
        ball_bfs(STD2, 1)
    code = main(["ball", "--center", json.dumps(STD2.to_json()), "--radius", "1"])
    captured = capsys.readouterr()
    assert code == 4 and captured.out == ""
    assert "the sphere of radius 0 has 2 vertices" in json.loads(captured.err)["message"]


@pytest.mark.parametrize("n, p, r", [(1, 3, 4), (2, 2, 3), (2, 3, 2), (3, 2, 1), (3, 3, 1), (3, 2, 2)])
def test_ball_bfs_matches_the_per_vertex_oracle(n, p, r):
    obj = random_vertex(600 + 10 * n + p, 2, PAdicContext(p), n).to_json()
    ball = ball_bfs(LatticeVertex.from_json(obj), r)
    oracle = helpers.ball_bfs_oracle(LatticeVertex.from_json(obj), r)
    # the center, then by depth and the keys' rational order
    oracle = dict(sorted(oracle.items(), key=lambda kv: (kv[1][1], _key_order(kv[0]))))
    assert list(ball) == list(oracle)  # keys in insertion order
    assert [d for _, d in ball.values()] == [d for _, d in oracle.values()]
    assert ([json.dumps(v.to_json()) for v, _ in ball.values()]
            == [json.dumps(v.to_json()) for v, _ in oracle.values()])


@pytest.mark.parametrize("n, p, r", [(1, 3, 4), (2, 2, 3), (2, 3, 2), (3, 2, 1), (3, 3, 1), (3, 2, 2)])
def test_ball_forms_match_the_hermite_filter(monkeypatch, n, p, r):
    """The column-by-column listing gives the forms and depths of the
    pivoting Hermite filter, as many as Birkhoff counts, with no `_hermite`."""
    building._ball_forms.cache_clear()
    monkeypatch.setattr(building, "_hermite", None)  # calling it would raise
    listed = building._ball_forms(n, p, r)
    monkeypatch.undo()
    assert len(listed) == building.ball_sizes(n, p, r)[-1]
    assert {h: depth for depth, h in listed} == helpers.ball_forms_oracle(n, p, r)


@pytest.mark.parametrize("n, p, r", [(2, 2, 2), (2, 3, 2), (3, 2, 2)])
def test_a_warm_ball_makes_one_product_per_vertex(monkeypatch, n, p, r):
    """Each vertex is one form's product, the center too (its product repeats
    its key), and no other product is made."""
    center = LatticeVertex.from_json(random_vertex(78, 2, PAdicContext(p), n).to_json())
    ball_bfs(center, r)  # lists the forms and keys the center
    calls = []
    frame_product = building._frame_product
    monkeypatch.setattr(building, "_frame_product",
                        lambda b, form: calls.append(1) or frame_product(b, form))
    ball = ball_bfs(center, r)
    assert len(calls) == len(ball) == building.ball_sizes(n, p, r)[-1]


@pytest.mark.parametrize("n, p, r", [(2, 2, 2), (2, 3, 2), (3, 2, 1), (3, 2, 2)])
def test_a_ball_runs_no_hermite_form_past_the_center(monkeypatch, n, p, r):
    """Every vertex is keyed by its reduce-only product: once the forms and
    the center's key are cached, a ball makes no pivoting Hermite form."""
    _ball_forms(n, p, r)
    center = LatticeVertex.from_json(random_vertex(77, 2, PAdicContext(p), n).to_json())
    center.canonical_key
    calls = []
    hermite = building._hermite
    monkeypatch.setattr(building, "_hermite", lambda cols, q: calls.append(1) or hermite(cols, q))
    ball = ball_bfs(center, r)
    assert len(ball) == building.ball_sizes(n, p, r)[-1] and calls == []


@pytest.mark.parametrize("n", [1, 2, 3])
def test_distance_from_agrees_with_the_oracle_and_gi_distance(n):
    rng = helpers.rng_for(900 + n)
    for p in (2, 3, 5):
        ctx = PAdicContext(p)
        centers = [random_vertex(40 + n, 2, ctx, n),
                   LatticeVertex(helpers.random_diag_norm(rng, ctx, n, integer_weights=True))]
        others = [random_vertex(s, 3, ctx, n) for s in range(6)] + [
            LatticeVertex(helpers.random_diag_norm(rng, ctx, n, integer_weights=True))
            for _ in range(6)]
        for c in centers:
            dist, oracle = building._distance_from(c), helpers.distance_from_oracle(c)
            for v in others + centers:
                assert dist(v) == oracle(v) == gi_distance(c.norm, v.norm)


@pytest.mark.parametrize("center, expected", [
    ({"p": 2, "basis": [["2", "1", "0", "0"], ["0", "1/3", "0", "0"], ["0", "0", "1", "5"],
                        ["0", "0", "0", "4"]], "weights": ["1", "0", "-1", "2"]},
     '{"count":1,"schema_version":2,"vertices":[{"depth":0,'
     '"key":"p2:4,0,0,0;0,1,0,0;0,0,16,13/2;0,0,0,1/2","norm":{"basis":[["2","1","0","0"],'
     '["0","1/3","0","0"],["0","0","1","5"],["0","0","0","4"]],"p":2,'
     '"weights":["1","0","-1","2"]}}]}\n'),
    ({"p": 5, "basis": [["1/5", "2"], ["0", "3"]], "weights": ["2", "-1"]},
     '{"count":1,"schema_version":2,"vertices":[{"depth":0,"key":"p5:5,0;0,1/5",'
     '"norm":{"basis":[["1/5","2"],["0","3"]],"p":5,"weights":["2","-1"]}}]}\n'),
], ids=["n4", "p5"])
def test_a_radius_zero_ball_runs_beyond_the_enumeration_bounds(capsys, center, expected):
    """Only the center, which needs no neighbour and no audit: n = 4 and
    p = 5 print it, though a radius-1 ball there is refused."""
    assert main(["ball", "--center", json.dumps(center), "--radius", "0"]) == 0
    assert capsys.readouterr().out == expected
    assert main(["ball", "--center", json.dumps(center), "--radius", "1"]) == 3
    capsys.readouterr()


@pytest.mark.parametrize("n, p, r", [(1, 3, 3), (2, 2, 2), (2, 3, 1), (3, 2, 1)])
def test_every_ball_row_key_reads_back_as_its_vertex(capsys, n, p, r):
    """A row prints its vertex once, by its key; the key reads back as a
    vertex with that key, in a ball around a center with nonzero weights."""
    center = random_vertex(30 + n + p, 2, PAdicContext(p), n).norm
    center = scale_norm(center, 1)
    assert main(["ball", "--center", json.dumps(center.to_json()), "--radius", str(r)]) == 0
    doc = json.loads(capsys.readouterr().out)
    rows = doc["vertices"]
    assert doc["schema_version"] == 2 and len(rows) == building.ball_sizes(n, p, r)[-1]
    assert rows[0]["norm"] == center.to_json() and rows[0]["depth"] == 0
    assert all(set(row) == {"depth", "key"} for row in rows[1:])
    for row in rows:
        assert LatticeVertex.from_json(row["key"]).key_string == row["key"]


def test_a_row_key_is_a_center(capsys):
    """`ball --center '"<key>"'` at radius 0 prints the key; at radius 1
    it prints the radius-1 ball around that lattice."""
    center = json.dumps(random_vertex(12, 2, P3, 2).to_json())
    assert main(["ball", "--center", center, "--radius", "1"]) == 0
    rows = json.loads(capsys.readouterr().out)["vertices"]
    for row in rows[::5]:
        assert main(["ball", "--center", json.dumps(row["key"]), "--radius", "0"]) == 0
        (only,) = json.loads(capsys.readouterr().out)["vertices"]
        assert only["key"] == row["key"] and only["depth"] == 0
        assert LatticeVertex.from_json(only["norm"]).key_string == row["key"]
    key = json.dumps(rows[0]["key"])
    assert main(["ball", "--center", key, "--radius", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["vertices"][1:] == rows[1:]
