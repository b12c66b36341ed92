"""The integer exact core against its Fraction oracles, plus the metric's
invariances under GL_n(Z) and scaling."""

from fractions import Fraction

import pytest

import helpers
from normspace import (
    DiagNorm,
    LatticeVertex,
    PAdicContext,
    UsageError,
    eval_log_norm,
    gi_distance,
    neighbors,
    random_vertex,
    scale_norm,
)
from normspace.building import hnf_dvr
from normspace.valued import log_sup_ratio

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
                hnf_dvr(cols, p)
            continue
        assert hnf_dvr(cols, p) == want
        checked += 1
    assert checked > 350


def test_hnf_rank_deficient_is_a_usage_error():
    f = Fraction
    with pytest.raises(UsageError):
        hnf_dvr([(f(1), f(2)), (f(2), f(4)), (f(-3), f(-6))], 3)
    with pytest.raises(UsageError):
        hnf_dvr([(f(1), f(0), f(0)), (f(0), f(1), f(0))], 2)


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
        assert log_sup_ratio(eta, etap) == helpers.log_sup_ratio_fraction(eta, etap)
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
        want = sorted(LatticeVertex(_moved(g, u.norm)).canonical_key for u in neighbors(v))
        assert [u.canonical_key for u in neighbors(moved)] == want
