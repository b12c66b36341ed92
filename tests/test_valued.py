import itertools
import math
import time
from fractions import Fraction

import pytest

import helpers
from normspace import (
    DiagNorm,
    PAdicContext,
    PairwiseRadiusError,
    UsageError,
    common_adapted_basis,
    eval_log_norm,
    gi_distance,
    helly_witness_na,
    join_norms,
    leq_norms,
    scale_norm,
)
from helpers import adapted_transition_check, stabilizer_check
from normspace.valued import MAX_P, is_prime, pval

P2 = PAdicContext(2)


def std_norm(weights, p=2):
    return DiagNorm.standard(PAdicContext(p), weights)


def lattice_norm(cols, p=2):
    n = len(cols)
    basis = [[cols[j][i] for j in range(n)] for i in range(n)]
    return DiagNorm(PAdicContext(p), basis, [0] * n)


L_PRIME = lattice_norm([(2, 0), (1, 1)])  # span{(2,0),(1,1)} over Z_(2)


def test_context_requires_prime():
    with pytest.raises(UsageError):
        PAdicContext(6)
    with pytest.raises(UsageError):
        PAdicContext(1)
    PAdicContext(2), PAdicContext(97)


def test_is_prime_is_deterministic_miller_rabin():
    def trial(p):
        return p >= 2 and all(p % d for d in range(2, math.isqrt(p) + 1))

    assert [p for p in range(5000) if is_prime(p)] == [p for p in range(5000) if trial(p)]
    assert is_prime(2 ** 61 - 1) and is_prime(2 ** 89 - 1)
    # Carmichael numbers and the least strong pseudoprime to the bases 2..37
    for c in (561, 41041, 3215031751, 318665857834031151167461, (2 ** 61 - 1) ** 2):
        assert not is_prime(c)


@pytest.mark.parametrize("p", [2.5, 2.0, True, "2", None, MAX_P, 10 ** 30])
def test_context_refuses_non_integer_bool_and_huge_p(p):
    with pytest.raises(UsageError):
        PAdicContext(p)
    with pytest.raises(UsageError):
        DiagNorm.from_json({"p": p, "basis": [["1"]], "weights": ["0"]})


def test_a_19_digit_prime_is_checked_at_once():
    start = time.perf_counter()
    assert PAdicContext(2 ** 61 - 1).p == 2 ** 61 - 1
    assert time.perf_counter() - start < 1.0  # trial division took over 20 s


def test_pval():
    assert pval(Fraction(8), 2) == 3
    assert pval(Fraction(3, 4), 2) == -2
    assert pval(Fraction(9, 5), 3) == 2
    with pytest.raises(UsageError):
        pval(Fraction(0), 2)


# -- eval_log_norm: definition arithmetic --

def test_eval_examples():
    assert eval_log_norm(std_norm([0, 0]), [1, 2]) == 0
    assert eval_log_norm(std_norm([3, -1]), [1, 0]) == 3
    assert eval_log_norm(std_norm([0, 0]), [4, 8]) == -2
    assert type(eval_log_norm(std_norm([0, 0]), [1, 2])) is Fraction


def test_eval_bottom_iff_zero():
    eta = std_norm([1, 2])
    assert eval_log_norm(eta, [0, 0]) is None
    assert eval_log_norm(eta, [0, 1]) is not None


def test_eval_dimension_mismatch():
    with pytest.raises(UsageError):
        eval_log_norm(std_norm([0, 0]), [1, 2, 3])


def test_eval_scaling_invariance():
    rng = helpers.rng_for(101)
    eta = helpers.random_diag_norm(rng, P2, 3)
    for v in helpers.sample_vectors(rng, 3, 20):
        base = eval_log_norm(eta, v)
        for alpha in (Fraction(2), Fraction(3, 4), Fraction(-5, 8)):
            scaled = eval_log_norm(eta, [alpha * x for x in v])
            assert scaled == base - pval(alpha, 2)


def test_eval_ultrametric_inequality():
    rng = helpers.rng_for(102)
    eta = helpers.random_diag_norm(rng, P2, 3)
    vs = helpers.sample_vectors(rng, 3, 30)
    for u, v in zip(vs[:15], vs[15:]):
        s = [a + b for a, b in zip(u, v)]
        lhs = eval_log_norm(eta, s)
        rhs = max(eval_log_norm(eta, u), eval_log_norm(eta, v))
        assert lhs is None or lhs <= rhs  # None: u + v = 0


# -- leq_norms --

def test_leq_reflexive_and_scaled():
    rng = helpers.rng_for(103)
    for _ in range(10):
        eta = helpers.random_diag_norm(rng, P2, 2)
        assert leq_norms(eta, eta)
        assert leq_norms(scale_norm(eta, -1), eta)
        assert not leq_norms(scale_norm(eta, Fraction(1, 2)), eta)


def test_leq_sublattice_pair():
    # L' = span{(2,0),(1,1)} sits inside Z^2 with index 2, so the standard
    # norm lies below it (sup ratio exactly 1) but not conversely.
    std = std_norm([0, 0])
    assert leq_norms(std, L_PRIME)
    assert not leq_norms(L_PRIME, std)
    assert helpers.brute_force_log_sup(std, L_PRIME, 8) == 0
    assert helpers.brute_force_log_sup(L_PRIME, std, 8) > 0


def test_leq_incomparable_pair():
    # span{(2,0),(0,1/2)} neither contains nor is contained in Z^2
    std = std_norm([0, 0])
    other = lattice_norm([(2, 0), (0, Fraction(1, 2))])
    assert not leq_norms(std, other)
    assert not leq_norms(other, std)
    # brute force must actually exhibit ratios above 1 in both directions
    assert helpers.brute_force_log_sup(std, other, 8) > 0
    assert helpers.brute_force_log_sup(other, std, 8) > 0


# -- scale_norm --

def test_scale_examples():
    eta = std_norm([0, 0])
    assert scale_norm(eta, 0) == eta
    assert gi_distance(eta, scale_norm(eta, 2)) == 2
    shifted = scale_norm(eta, Fraction(-3, 2))
    assert shifted.weights == (Fraction(-3, 2), Fraction(-3, 2))
    assert gi_distance(eta, shifted) == Fraction(3, 2)


# -- gi_distance --

def test_distance_same_basis_linf():
    assert gi_distance(std_norm([3, -1]), std_norm([0, 0])) == 3


def test_distance_self_zero():
    rng = helpers.rng_for(104)
    for _ in range(5):
        eta = helpers.random_diag_norm(rng, P2, 3)
        assert gi_distance(eta, eta) == 0


def test_distance_standard_vs_sublattice():
    assert gi_distance(std_norm([0, 0]), L_PRIME) == 1
    # independent oracle: Smith divisors of the integer transition
    assert helpers.cartan_distance_oracle([[2, 1], [0, 1]], 2) == 1


def test_distance_matches_smith_oracle_random():
    rng = helpers.rng_for(105)
    std = std_norm([0, 0, 0], p=3)
    for _ in range(20):
        u = helpers.random_unimodular(rng, 3)
        d = [[3 ** int(rng.integers(0, 3)) if i == j else 0 for j in range(3)]
             for i in range(3)]
        g = [[sum(u[i][k] * d[k][j] for k in range(3)) for j in range(3)]
             for i in range(3)]
        eta = DiagNorm(PAdicContext(3), g, [0, 0, 0])
        assert gi_distance(std, eta) == helpers.cartan_distance_oracle(g, 3)


def test_metric_axioms_random_triples():
    # 1000 seeded triples, exact symmetry/nonnegativity/triangle
    rng = helpers.rng_for(106)
    for trial in range(1000):
        p = (2, 3, 5)[trial % 3]
        ctx = PAdicContext(p)
        a = helpers.random_diag_norm(rng, ctx, 2)
        b = helpers.random_diag_norm(rng, ctx, 2)
        c = helpers.random_diag_norm(rng, ctx, 2)
        dab, dba = gi_distance(a, b), gi_distance(b, a)
        assert dab == dba and dab >= 0
        assert gi_distance(a, a) == 0
        assert gi_distance(a, c) <= dab + gi_distance(b, c)


def test_closed_form_dominates_brute_force():
    rng = helpers.rng_for(107)
    for _ in range(8):
        a = helpers.random_diag_norm(rng, P2, 2)
        b = helpers.random_diag_norm(rng, P2, 2)
        brute = max(
            helpers.brute_force_log_sup(a, b, 8),
            helpers.brute_force_log_sup(b, a, 8),
        )
        assert brute <= gi_distance(a, b)


def test_closed_form_attained_when_basis_sampled():
    # small-entry bases put the attaining basis vectors inside the box
    std = std_norm([0, 0])
    for other in (L_PRIME, std_norm([2, -1]), lattice_norm([(4, 0), (3, 1)])):
        brute = max(
            helpers.brute_force_log_sup(std, other, 8),
            helpers.brute_force_log_sup(other, std, 8),
        )
        assert brute == gi_distance(std, other)


def test_ball_equals_interval():
    rng = helpers.rng_for(108)
    for _ in range(25):
        eta = helpers.random_diag_norm(rng, P2, 2)
        etap = helpers.random_diag_norm(rng, P2, 2)
        d = gi_distance(eta, etap)
        for a in (d, d + 1, d - Fraction(1, 2)):
            if a < 0:
                continue
            in_ball = d <= a
            interval = leq_norms(scale_norm(eta, -a), etap) and leq_norms(
                etap, scale_norm(eta, a)
            )
            assert in_ball == interval


# -- stabilizer_check --

def test_stabilizer_examples():
    assert stabilizer_check([[1, 0], [0, 1]], [5, -7], P2)
    assert stabilizer_check([[1, 1], [0, 1]], [0, 0], P2)
    assert stabilizer_check([[1, 1], [0, 1]], [0, 1], P2)
    assert stabilizer_check([[1, Fraction(1, 2)], [0, 1]], [0, 1], P2)
    assert not stabilizer_check([[1, Fraction(1, 4)], [0, 1]], [0, 1], P2)


def test_stabilizer_failure_shows_in_evaluation():
    # u fails the valuation test, so it must move the norm somewhere
    u = [[1, Fraction(1, 4)], [0, 1]]
    eta = std_norm([0, 1])
    moved = None
    for v in itertools.product(range(-4, 5), repeat=2):
        if v == (0, 0):
            continue
        uv = [u[0][0] * v[0] + u[0][1] * v[1], u[1][0] * v[0] + u[1][1] * v[1]]
        if eval_log_norm(eta, uv) != eval_log_norm(eta, list(v)):
            moved = v
            break
    assert moved is not None


def test_stabilizer_singular_raises():
    with pytest.raises(UsageError):
        stabilizer_check([[1, 1], [1, 1]], [0, 0], P2)


def test_stabilizer_matches_evaluation_on_random_inputs():
    rng = helpers.rng_for(109)
    for _ in range(30):
        u = helpers.random_unimodular(rng, 2)
        # random p-power rescale of one column can break the stabilizer
        j = int(rng.integers(0, 2))
        k = int(rng.integers(-1, 2))
        u = [[Fraction(u[i][jj]) * (Fraction(2) ** k if jj == j else 1)
              for jj in range(2)] for i in range(2)]
        m = helpers.random_weights(rng, 2, den_choices=(1, 2))
        eta = std_norm(m)
        ok = stabilizer_check(u, m, P2)
        preserved = all(
            eval_log_norm(eta, [u[0][0] * v[0] + u[0][1] * v[1],
                                u[1][0] * v[0] + u[1][1] * v[1]])
            == eval_log_norm(eta, list(v))
            for v in helpers.sample_vectors(rng, 2, 40)
        )
        if ok:
            assert preserved
        if not preserved:
            assert not ok


# -- common_adapted_basis --

def test_common_basis_shared_basis_is_fixed():
    eta = std_norm([0, 2])
    etap = std_norm([1, 0])
    basis, mm, mmp = common_adapted_basis(eta, etap)
    assert sorted(mm) == [0, 2]
    assert sorted(mmp) == [0, 1]
    assert max(abs(a - b) for a, b in zip(mm, mmp)) == gi_distance(eta, etap)


def test_common_basis_standard_vs_sublattice():
    basis, mm, mmp = common_adapted_basis(std_norm([0, 0]), L_PRIME)
    gaps = sorted(b - a for a, b in zip(mm, mmp))
    assert gaps == [-1, 0] or gaps == [0, 1] or sorted(
        abs(b - a) for a, b in zip(mm, mmp)
    ) == [0, 1]


def test_common_basis_unimodular_precompose_keeps_weights():
    rng = helpers.rng_for(110)
    for _ in range(10):
        m = sorted(helpers.random_weights(rng, 3, den_choices=(1,)))
        eta = std_norm(m + [])
        u = helpers.random_unimodular(rng, 3)
        etap = DiagNorm(P2, u, eta.weights)
        _, mm, mmp = common_adapted_basis(eta, etap)
        assert sorted(mmp) == sorted(eta.weights)
        assert gi_distance(eta, etap) == max(abs(a - b) for a, b in zip(mm, mmp))


def test_common_basis_self_verification_data():
    rng = helpers.rng_for(111)
    from normspace import qlinalg

    for _ in range(15):
        eta = helpers.random_diag_norm(rng, P2, 3)
        etap = helpers.random_diag_norm(rng, P2, 3)
        basis, mm, mmp = common_adapted_basis(eta, etap)
        u = qlinalg.matmul(eta.basis_inv, basis)
        up = qlinalg.matmul(etap.basis_inv, basis)
        assert adapted_transition_check(u, eta.weights, mm, 2)
        assert adapted_transition_check(up, etap.weights, mmp, 2)
        # the eta' transition keeps its weights positionally, so the plain
        # stabilizer test applies to it after shifting by the weight delta
        assert mmp == etap.weights
        assert stabilizer_check(up, etap.weights, P2)
        assert max(abs(a - b) for a, b in zip(mm, mmp)) == gi_distance(eta, etap)


def test_common_basis_rational_weights():
    rng = helpers.rng_for(112)
    for _ in range(10):
        eta = helpers.random_diag_norm(rng, PAdicContext(3), 2)
        etap = helpers.random_diag_norm(rng, PAdicContext(3), 2)
        basis, mm, mmp = common_adapted_basis(eta, etap)
        assert max(abs(a - b) for a, b in zip(mm, mmp)) == gi_distance(eta, etap)


def _nasty_norm(rng, ctx, n):
    # unimodular mixing plus p-power column scalings: transitions with
    # spread valuations exercise every pivoting branch
    u = helpers.random_unimodular(rng, n)
    exps = [int(rng.integers(-2, 3)) for _ in range(n)]
    cols = [
        [Fraction(u[i][j]) * Fraction(ctx.p) ** exps[j] for j in range(n)]
        for i in range(n)
    ]
    return DiagNorm(ctx, cols, helpers.random_weights(rng, n, den_choices=(1, 2, 3, 4)))


def test_common_basis_stress_mixed_valuations():
    # the construction self-verifies, so success of the call is the assertion
    rng = helpers.rng_for(9001)
    for trial in range(300):
        p = (2, 3, 5)[trial % 3]
        n = 2 + trial % 3
        ctx = PAdicContext(p)
        common_adapted_basis(_nasty_norm(rng, ctx, n), _nasty_norm(rng, ctx, n))


def test_join_associativity():
    rng = helpers.rng_for(9002)
    for trial in range(40):
        ctx = PAdicContext((2, 3)[trial % 2])
        a = helpers.random_diag_norm(rng, ctx, 3)
        b = helpers.random_diag_norm(rng, ctx, 3)
        c = helpers.random_diag_norm(rng, ctx, 3)
        j1 = join_norms([a, join_norms([b, c])])
        j2 = join_norms([join_norms([a, b]), c])
        assert gi_distance(j1, j2) == 0


# -- joins --

def test_join_singleton():
    eta = std_norm([1, 2])
    assert join_norms([eta]) == eta


def test_join_same_basis_coordinatewise_max():
    theta = join_norms([std_norm([0, 2]), std_norm([1, 0])])
    assert gi_distance(theta, std_norm([1, 2])) == 0


def test_join_empty_raises():
    with pytest.raises(UsageError):
        join_norms([])


def test_join_pointwise_identity_and_lub():
    rng = helpers.rng_for(113)
    for trial in range(6):
        family = [helpers.random_diag_norm(rng, P2, 2) for _ in range(3)]
        theta = join_norms(family)
        for eta in family:
            assert leq_norms(eta, theta)
        # pointwise-max identity on ~10^3 sampled vectors overall
        for v in helpers.sample_vectors(rng, 2, 170):
            lhs = eval_log_norm(theta, v)
            rhs = max(eval_log_norm(eta, v) for eta in family)
            assert lhs == rhs
        for k in range(10):
            upper = scale_norm(theta, Fraction(k, 7))
            assert leq_norms(theta, upper)


# -- helly witness --

def test_helly_single_ball():
    eta = std_norm([0, 0])
    theta, dists = helly_witness_na([eta], [2])
    assert dists == [gi_distance(theta, eta)] == [2]


def test_helly_two_copies_radius_zero():
    eta = std_norm([1, -1])
    theta, dists = helly_witness_na([eta, eta], [0, 0])
    assert dists == [gi_distance(theta, eta)] * 2 == [0, 0]


def test_helly_violation_reports_pair_and_gap():
    a = std_norm([0, 0])
    b = std_norm([4, 4])
    with pytest.raises(PairwiseRadiusError) as exc:
        helly_witness_na([a, b], [1, 1])
    assert exc.value.pair == (0, 1)
    assert exc.value.gap == 2


def test_helly_random_families():
    rng = helpers.rng_for(114)
    for trial in range(12):
        family = [helpers.random_diag_norm(rng, P2, 2) for _ in range(5)]
        dmax = [
            max(gi_distance(family[s], family[t]) for t in range(5) if t != s)
            for s in range(5)
        ]
        radii = [dmax[s] / 2 + Fraction(s, 7) for s in range(5)]
        theta, dists = helly_witness_na(family, radii)
        for eta, a, d in zip(family, radii, dists):
            assert gi_distance(theta, eta) == d <= a


# -- serialization --

def test_json_roundtrip_exact():
    eta = DiagNorm(
        P2,
        [[Fraction(1), Fraction(1, 2)], [Fraction(0), Fraction(3)]],
        [Fraction(-7, 3), Fraction(2)],
    )
    again = DiagNorm.from_json(eta.to_json())
    assert again == eta
    assert eta.to_json()["weights"] == ["-7/3", "2"]


def test_json_bad_input():
    with pytest.raises(UsageError):
        DiagNorm.from_json({"p": 2, "basis": [["1"]]})
    with pytest.raises(UsageError):
        DiagNorm.from_json(
            {"p": 2, "basis": [["1/0", "0"], ["0", "1"]], "weights": ["0", "0"]}
        )
    with pytest.raises(UsageError):
        DiagNorm.from_json(
            {"p": 2, "basis": [["x", "0"], ["0", "1"]], "weights": ["0", "0"]}
        )
