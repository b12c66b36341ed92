"""The integer exact core against its Fraction oracles, plus the metric's
invariances under GL_n(Z) and scaling."""

import math
from fractions import Fraction

import pytest

import helpers
from normspace import (
    DiagNorm,
    LatticeVertex,
    PAdicContext,
    UsageError,
    ball_bfs,
    eval_log_norm,
    gi_distance,
    neighbors,
    random_vertex,
    scale_norm,
)
from normspace import building
from normspace.building import _ball_forms, _distance_from, _key_order, _key_text

PRIMES = (2, 3, 5, 7)


def _entry(rng, p):
    """A rational whose denominator is a unit at p, times p^0 or p^-1."""
    units = [u for u in (1, 2, 3, 5, 7, 11) if u % p]
    den = units[rng.integers(0, len(units))] * p ** int(rng.integers(0, 2))
    return Fraction(int(rng.integers(-9, 10)), den)


def _rational_basis(rng, n, p):
    """An invertible rational basis: a unimodular matrix with columns scaled
    by rationals whose numerators and denominators mix units and powers of p."""
    u = helpers.random_unimodular(rng, n)
    units = [x for x in (1, 2, 3, 5, 7) if x % p]
    scales = [Fraction(units[rng.integers(0, len(units))] * p ** int(rng.integers(0, 3)),
                       units[rng.integers(0, len(units))] * p ** int(rng.integers(0, 2)))
              for _ in range(n)]
    return [[u[i][j] * scales[j] for j in range(n)] for i in range(n)]


def _random_norm(rng, n, p):
    return DiagNorm(PAdicContext(p), _rational_basis(rng, n, p), helpers.random_weights(rng, n))


def test_hnf_matches_fraction_oracle():
    rng = helpers.rng_for(700)
    checked = 0
    for trial in range(400):
        p = PRIMES[trial % 4]
        n = 1 + trial % 4
        cols = [tuple(_entry(rng, p) for _ in range(n))
                for _ in range(n + int(rng.integers(0, 4)))]
        try:
            want = helpers.hnf_dvr_fraction(cols, p)
        except UsageError:
            with pytest.raises(UsageError):
                helpers.hnf_dvr(cols, p)
            continue
        assert helpers.hnf_dvr(cols, p) == want
        checked += 1
    assert checked > 350


def test_hnf_rank_deficient_is_a_usage_error():
    f = Fraction
    with pytest.raises(UsageError):
        helpers.hnf_dvr([(f(1), f(2)), (f(2), f(4)), (f(-3), f(-6))], 3)
    with pytest.raises(UsageError):
        helpers.hnf_dvr([(f(1), f(0), f(0)), (f(0), f(1), f(0))], 2)


def test_singular_basis_is_a_usage_error():
    with pytest.raises(UsageError):
        DiagNorm(PAdicContext(2), [[Fraction(1, 2), 1], [1, 2]], [0, 0])
    with pytest.raises(UsageError):
        DiagNorm(PAdicContext(3), [[1, 2, 3], [4, 5, 6], [7, 8, 9]], [0, 0, 0])


def test_distances_match_fraction_oracle():
    rng = helpers.rng_for(701)
    for trial in range(300):
        p = PRIMES[trial % 4]
        n = 1 + trial % 4
        eta, etap = _random_norm(rng, n, p), _random_norm(rng, n, p)
        assert helpers.log_sup_ratio(eta, etap) == helpers.log_sup_ratio_fraction(eta, etap)
        assert gi_distance(eta, etap) == helpers.gi_distance_fraction(eta, etap)
        v = [_entry(rng, p) for _ in range(n)]
        assert eval_log_norm(eta, v) == helpers.eval_log_norm_fraction(eta, v)
        assert eval_log_norm(eta, [0] * n) is None


def _moved(g, eta):
    """g eta: the norm v -> eta(g^{-1} v), basis g B with the same weights."""
    n = eta.dim
    basis = [[sum(g[i][k] * eta.basis[k][j] for k in range(n)) for j in range(n)]
             for i in range(n)]
    return DiagNorm(eta.ctx, basis, eta.weights)


def test_distance_is_invariant_under_unimodular_maps():
    rng = helpers.rng_for(702)
    for trial in range(120):
        p, n = PRIMES[trial % 4], 2 + trial % 3
        eta, etap = _random_norm(rng, n, p), _random_norm(rng, n, p)
        g = helpers.random_unimodular(rng, n)
        assert gi_distance(_moved(g, eta), _moved(g, etap)) == gi_distance(eta, etap)


def test_distance_under_scaling():
    rng = helpers.rng_for(703)
    for trial in range(120):
        p, n = PRIMES[trial % 4], 1 + trial % 4
        eta, etap = _random_norm(rng, n, p), _random_norm(rng, n, p)
        a = Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 5)))
        d = gi_distance(eta, etap)
        assert gi_distance(scale_norm(eta, a), scale_norm(etap, a)) == d
        assert gi_distance(scale_norm(eta, a), eta) == abs(a)


@pytest.mark.parametrize("p, n", [(2, 2), (3, 2), (2, 3)])
def test_neighbors_commute_with_unimodular_maps(p, n):
    rng = helpers.rng_for(704 + p + n)
    ctx = PAdicContext(p)
    for seed in range(2):
        v = random_vertex(seed, 2, ctx, n)
        g = helpers.random_unimodular(rng, n)
        moved = LatticeVertex(_moved(g, v.norm))
        want = sorted((LatticeVertex(_moved(g, u.norm)).canonical_key for u in neighbors(v)),
                      key=_key_order)
        assert [u.canonical_key for u in neighbors(moved)] == want
    # radius 2 reaches vertices through vertices keyed in their own Hermite
    # bases: ball(gC, 2) is g ball(C, 2), each vertex at its depth
    want = {LatticeVertex(_moved(g, u.norm)).canonical_key: d for u, d in ball_bfs(v, 2).values()}
    got = {k: d for k, (_, d) in ball_bfs(moved, 2).items()}
    assert got == want and len(got) == building.ball_sizes(n, p, 2)[-1]


def _fraction_key(v):
    """The Fraction-tuple key (p, Hermite form rows) of a vertex."""
    return v.ctx.p, helpers.hnf_dvr_fraction(helpers.lattice_basis(v), v.ctx.p)


def test_integer_keys_order_hash_and_print_as_fraction_hermite_forms():
    rng = helpers.rng_for(705)
    verts = []
    for trial in range(80):
        p, n = (2, 3)[trial % 2], 1 + trial % 3
        ctx = PAdicContext(p)
        weights = [int(rng.integers(-2, 3)) for _ in range(n)]
        v = LatticeVertex(DiagNorm(ctx, _rational_basis(rng, n, p), weights))
        # the same lattice in another basis, and the same integers over p^(s+1)
        w = helpers.from_columns(helpers.lattice_basis(v))
        w = helpers.matmul(w, helpers.random_unimodular(rng, n))
        verts += [v, LatticeVertex(DiagNorm(ctx, w, [0] * n)),
                  LatticeVertex(scale_norm(v.norm, -1))]
    keys = [v.canonical_key for v in verts]
    olds = [_fraction_key(v) for v in verts]
    for k, (p, h) in zip(keys, olds):
        assert _key_text(k) == f"p{p}:" + ";".join(",".join(str(x) for x in row) for row in h)
    for a, old_a in zip(keys, olds):
        for b, old_b in zip(keys, olds):
            assert (a == b) == (old_a == old_b)
            assert (_key_order(a) < _key_order(b)) == (old_a < old_b)
            if a == b:
                assert hash(a) == hash(b)
    order = sorted(range(len(keys)), key=lambda i: _key_order(keys[i]))
    assert [olds[i] for i in order] == sorted(olds)


@pytest.mark.parametrize("p, n", [(2, 2), (3, 2), (2, 3)])
def test_neighbour_norms_match_eagerly_built_ones(p, n):
    ctx = PAdicContext(p)
    v = random_vertex(706 + p + n, 2, ctx, n)
    w = helpers.from_columns(helpers.lattice_basis(v))
    eager = {}
    for _, form in _ball_forms(n, p, 1):
        h_s = helpers.from_columns([[Fraction(x, p) for x in col] for col in form])
        u = LatticeVertex(DiagNorm(ctx, helpers.matmul(w, h_s), [0] * n))
        eager[u.canonical_key] = u
    del eager[v.canonical_key]
    got = neighbors(v)
    assert [u.canonical_key for u in got] == sorted(eager, key=_key_order)
    for u in got:
        _, s, rows = u.canonical_key
        h = DiagNorm(ctx, [[x / Fraction(p) ** s for x in row] for row in rows], [0] * n)
        assert u.to_json() == h.to_json()
        assert (u.norm.basis, u.norm.weights) == (h.basis, h.weights)
        assert u.key_string == eager[u.canonical_key].key_string


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("n", [2, 3])
def test_integer_audit_distance_matches_gi_distance(p, n):
    """The depth audit's integer distance equals gi_distance on Fraction norms."""
    ctx = PAdicContext(p)
    rng = helpers.rng_for(708 + 10 * p + n)
    checked = unreduced = fractional = 0
    for seed in range(6):
        basis = _rational_basis(rng, n, p)
        fractional += any(x.denominator > 1 for row in basis for x in row)
        weights = helpers.random_weights(rng, n, den_choices=(1,))
        weights[0] = weights[0] or Fraction(1)
        center = LatticeVertex(DiagNorm(ctx, basis, weights))
        dist = _distance_from(center)
        others = [center, random_vertex(seed + 100, 3, ctx, n)]
        # vertices at depth 2, each in its Hermite basis K over p with
        # weights 1: columns p K over a den that p divides, not reduced (as
        # I/3 with weights (1, 1) at p = 3 is 3 I over 3, the standard vertex)
        depth1 = neighbors(center)
        for u in (depth1[i] for i in rng.choice(len(depth1), 2, replace=False)):
            two = neighbors(u)
            for v in (two[i] for i in rng.choice(len(two), 3, replace=False)):
                w = LatticeVertex(DiagNorm(ctx, [[x / p for x in row] for row in v.norm.basis],
                                           [1] * n))
                cols, den = w.lattice_ints()
                unreduced += math.gcd(den, *(x for col in cols for x in col)) > 1
                assert w == v
                others.append(w)
        for v in others:
            assert dist(v) == gi_distance(center.norm, v.norm)
            checked += 1
    assert checked == 48 and unreduced > 0 and fractional > 0
