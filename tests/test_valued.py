import itertools
import json
import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from normspace import qlinalg, valued
from normspace.cli import main
from normspace.valued import MAX_P, is_prime, pval, pval_int

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
    with pytest.raises(UsageError):
        DiagNorm(p, [[1]], [0])


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


def test_pval_int_is_exact_for_random_and_huge_valuations():
    rng = helpers.rng_for(120)
    cases = [(3, 100_000), (2, 4096), (2, 4095)]
    for _ in range(300):
        p = (2, 3, 5, 7, 97)[rng.integers(0, 5)]
        cases.append((p, int(rng.integers(0, (9, 2000)[rng.integers(0, 2)]))))
    for p, v in cases:
        unit = int(rng.integers(1, 10 ** 6)) * p + int(rng.integers(1, p))
        n = (-1) ** int(rng.integers(0, 2)) * unit * p ** v
        assert pval_int(n, p) == v
    with pytest.raises(UsageError):
        pval_int(0, 2)
    start = time.perf_counter()
    pval_int(3 ** 100_000, 3)
    assert time.perf_counter() - start < 1.0  # one division per unit of v took seconds


def _pval_naive(n, p):
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def test_pval_int_matches_the_division_loop():
    """Small valuations (the p = 2 bit trick and the first plain divisions),
    the switch to doubling, and 10^4-digit integers."""
    rng = helpers.rng_for(121)
    cases = [(p, u * p ** v) for p in (2, 3, 5, 7, 97) for v in range(40)
             for u in (1, -1, 3 * p + 1, -(10 ** 20 * p + 1))]
    for p in (2, 3, 5):
        digits = int.from_bytes(rng.bytes(4152)) | 1 << 33_218  # 10^4 digits
        cases += [(p, digits), (p, -digits), (p, digits * p ** 4000),
                  (p, p ** int(10_000 / math.log10(p)))]
    for p, n in cases:
        assert pval_int(n, p) == _pval_naive(n, p), (p, n % 10 ** 12)


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

def _adapted(eta, etap):
    """(basis, m, m') of the two returned norms, which share one basis."""
    theta, thetap = common_adapted_basis(eta, etap)
    assert theta._ints is thetap._ints
    return theta.basis, theta.weights, thetap.weights


def test_common_basis_shared_basis_is_fixed():
    eta = std_norm([0, 2])
    etap = std_norm([1, 0])
    basis, mm, mmp = _adapted(eta, etap)
    assert sorted(mm) == [0, 2]
    assert sorted(mmp) == [0, 1]
    assert max(abs(a - b) for a, b in zip(mm, mmp)) == gi_distance(eta, etap)


def test_common_basis_standard_vs_sublattice():
    basis, mm, mmp = _adapted(std_norm([0, 0]), L_PRIME)
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
        _, mm, mmp = _adapted(eta, etap)
        assert sorted(mmp) == sorted(eta.weights)
        assert gi_distance(eta, etap) == max(abs(a - b) for a, b in zip(mm, mmp))


def test_common_basis_self_verification_data():
    rng = helpers.rng_for(111)
    for _ in range(15):
        eta = helpers.random_diag_norm(rng, P2, 3)
        etap = helpers.random_diag_norm(rng, P2, 3)
        basis, mm, mmp = _adapted(eta, etap)
        u = helpers.matmul(helpers.basis_inv(eta), basis)
        up = helpers.matmul(helpers.basis_inv(etap), basis)
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
        basis, mm, mmp = _adapted(eta, etap)
        assert max(abs(a - b) for a, b in zip(mm, mmp)) == gi_distance(eta, etap)


def test_common_basis_stress_mixed_valuations():
    # the construction self-verifies, so success of the call is the assertion
    rng = helpers.rng_for(9001)
    for trial in range(300):
        p = (2, 3, 5)[trial % 3]
        n = 2 + trial % 3
        ctx = PAdicContext(p)
        common_adapted_basis(helpers.nasty_norm(rng, ctx, n), helpers.nasty_norm(rng, ctx, n))


def test_integer_pivoting_matches_the_fraction_pivoting():
    """Same scan order and tie-break: the integer kernel returns the basis and
    weights of the Fraction pivoting it replaced, entry for entry, as integer
    columns over one denominator; the returned norms hold that basis over
    its least denominator."""
    rng = helpers.rng_for(9001)
    pairs = []
    for trial in range(300):  # the stress pairs above
        ctx = PAdicContext((2, 3, 5)[trial % 3])
        n = 2 + trial % 3
        pairs.append((helpers.nasty_norm(rng, ctx, n), helpers.nasty_norm(rng, ctx, n)))
    rng = helpers.rng_for(9003)
    for p, n in itertools.product((2, 3, 5), (2, 3, 4)):
        ctx = PAdicContext(p)
        for _ in range(8):
            pairs.append((helpers.random_diag_norm(rng, ctx, n),
                          helpers.random_diag_norm(rng, ctx, n)))
    for eta, etap in pairs:
        basis, mm, mmp = helpers.common_adapted_basis_fraction(eta, etap)
        cols, den, (got_mm, e), (got_mmp, f) = valued._smith_pivot(eta, etap)
        assert [Fraction(x, e) for x in got_mm] == list(mm)
        assert [Fraction(x, f) for x in got_mmp] == list(mmp)
        assert [tuple(Fraction(x, den) for x in col) for col in cols] == list(zip(*basis))
        theta, thetap = common_adapted_basis(eta, etap)
        assert theta._ints[:2] == thetap._ints[:2] == tuple(qlinalg.clear_denominators(basis))
        assert _adapted(eta, etap) == (basis, mm, mmp)


def test_log_max_pruning_matches_every_row():
    rng = helpers.rng_for(9004)
    for trial in range(200):
        ctx = PAdicContext((2, 3, 5)[trial % 3])
        n = 2 + trial % 3
        eta = helpers.nasty_norm(rng, ctx, n)
        cols = [[int(x) * ctx.p ** int(rng.integers(0, 3)) for x in rng.integers(-9, 10, n)]
                for _ in range(int(rng.integers(1, 4)))]
        if trial % 10 == 0:
            cols = [[0] * n for _ in cols]  # v = 0: no term at all
        offsets = tuple(helpers.random_weights(rng, len(cols), den_choices=(1, 2, 5)))
        shift = int(rng.integers(-3, 4))
        want = helpers.log_max_unpruned(eta, cols, shift, offsets)
        (o,), f = qlinalg.clear_denominators([offsets])
        got = valued._log_max(eta, cols, shift, (o, f))  # over another denominator
        assert (got is None) == (want is None)
        assert got is None or Fraction(*got) == Fraction(*want)
        assert (want is None) == (trial % 10 == 0)


def _corrupt(kind, p):
    real_pivot = valued._smith_pivot

    def corrupted(eta, etap):
        # the weights are integers over e and f: a weight moves by 1 as e or f
        cols, den, (mm, e), (mmp, f) = real_pivot(eta, etap)
        mm, mmp = list(mm), list(mmp)
        if kind == "weight":
            mm[0] += e
        elif kind == "weight-b":
            mmp[-1] -= f
        elif kind == "swap":  # the volume stays
            mm[0], mm[1] = mm[0] + e, mm[1] - e
        elif kind == "raise-b":
            mmp[-1] += f
        elif kind == "swap-b":
            mmp[0], mmp[1] = mmp[0] - f, mmp[1] + f
        else:  # one basis column scaled by p, its weight unchanged
            cols = [[x * p for x in cols[0]]] + cols[1:]
        return cols, den, (mm, e), (mmp, f)
    return corrupted


@pytest.mark.parametrize("kind, message", [
    ("weight", "reproduce the first norm"),
    ("weight-b", "reproduce the second norm"),
    ("column", "does not reproduce"),
    ("swap", "reproduce the first norm"),
    ("raise-b", "reproduce the second norm"),
    ("swap-b", "reproduce the second norm"),
])
def test_a_wrong_common_basis_is_an_internal_error(monkeypatch, capsys, kind, message):
    """Every check of `_verify_common_basis` fires: a corrupted pivot raises
    in the library and exits 4 in the CLI.  A column scaled by p, or a
    raised weight, passes eta <= theta and only the volume identity catches
    it; two weights moved by +1 and -1 keep the volume and only eta <= theta
    catches them."""
    rng = helpers.rng_for(9005)
    ctx = PAdicContext(3)
    a, b = (helpers.nasty_norm(rng, ctx, 3) for _ in range(2))
    cols, den, mm, mmp = _corrupt(kind, ctx.p)(a, b)
    cand = DiagNorm._of_ints(ctx, cols, den, *mm)
    one_half = {"column": (a, cand), "swap": (a, cand),
                "raise-b": (b, cand._reweighted(*mmp)), "swap-b": (b, cand._reweighted(*mmp))}
    if kind in one_half:
        eta, theta = one_half[kind]
        assert leq_norms(eta, theta) == (kind in ("column", "raise-b"))
        assert valued._volumes_agree(eta, theta) == (kind in ("swap", "swap-b"))
    monkeypatch.setattr(valued, "_smith_pivot", _corrupt(kind, ctx.p))
    with pytest.raises(RuntimeError, match=message):
        common_adapted_basis(a, b)
    family = {"norms": [a.to_json(), b.to_json()], "radii": ["100", "100"]}
    for argv in (["common-basis", "--a", json.dumps(a.to_json()), "--b", json.dumps(b.to_json())],
                 ["helly-na", "--family", json.dumps(family)]):
        assert main(argv) == 4
        out, err = capsys.readouterr()
        assert out == ""
        doc = json.loads(err)
        assert doc["error"] == "internal" and message in doc["message"]


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


def _seeded_ball_family(rng, p, n, k, compatible):
    """k random norms with radii d_s / 2 + (1 + s) / 7 (compatible), or a
    random tenth of d_s, where d_s is the farthest of the others."""
    ctx = PAdicContext(p)
    family = [helpers.random_diag_norm(rng, ctx, n) for _ in range(k)]
    dmax = [max(gi_distance(a, b) for b in family if b is not a) for a in family]
    if compatible:
        radii = [d / 2 + Fraction(1 + s, 7) for s, d in enumerate(dmax)]
    else:
        radii = [d * Fraction(int(rng.integers(0, 11)), 10) for d in dmax]
    return family, radii


def _helly_outcome(witness, family, radii):
    try:
        theta, dists = witness(family, radii)
    except PairwiseRadiusError as exc:
        return "pair", exc.pair, exc.gap, str(exc)
    return "witness", json.dumps(theta.to_json()), dists


def test_the_lazy_pairwise_check_agrees_with_the_eager_oracle(monkeypatch, capsys):
    """Same witness, distances, offending pair, gap and CLI bytes as the
    eager check, on compatible and incompatible seeded families."""
    rng = helpers.rng_for(9006)
    kinds = {True: set(), False: set()}
    for p, n, k in itertools.product((2, 3, 5), (2, 3), range(2, 7)):
        for compatible in (True, False):
            family, radii = _seeded_ball_family(rng, p, n, k, compatible)
            got = _helly_outcome(helly_witness_na, family, radii)
            assert got == _helly_outcome(helpers.helly_witness_na_eager, family, radii)
            kinds[compatible].add(got[0] if got[0] == "witness" else got[1])
            doc = json.dumps({"norms": [eta.to_json() for eta in family],
                              "radii": [str(r) for r in radii]})
            outs = []
            for witness in (helly_witness_na, helpers.helly_witness_na_eager):
                monkeypatch.setattr(valued, "helly_witness_na", witness)
                outs.append((main(["helly-na", "--family", doc]), capsys.readouterr()))
            assert outs[0] == outs[1]
            assert outs[0][0] == (0 if got[0] == "witness" else 1)
    assert kinds[True] == {"witness"}
    # the incompatible families fail at several different first pairs
    assert len(kinds[False] - {"witness"}) >= 5


@pytest.mark.parametrize("k", [2, 3, 6])
def test_a_compatible_family_measures_no_input_pair(monkeypatch, k):
    """Cost guard: k - 1 common bases, at most 2 (k - 1) + 2 k `_log_max`
    evaluations (eta <= theta on each side of each join step, both ways
    for each membership), and no `gi_distance` between two inputs."""
    rng = helpers.rng_for(9007 + k)
    family, radii = _seeded_ball_family(rng, 3, 3, k, True)
    ids = {id(eta) for eta in family}
    bases, evals, pairs = [], [], []
    basis, log_max, distance = valued.common_adapted_basis, valued._log_max, valued.gi_distance

    def counting_distance(a, b):
        if id(a) in ids and id(b) in ids:
            pairs.append((a, b))
        return distance(a, b)

    monkeypatch.setattr(valued, "common_adapted_basis",
                        lambda a, b: bases.append(1) or basis(a, b))
    monkeypatch.setattr(valued, "_log_max", lambda *a: evals.append(1) or log_max(*a))
    monkeypatch.setattr(valued, "gi_distance", counting_distance)
    _, dists = helly_witness_na(family, radii)
    assert all(d <= r for d, r in zip(dists, radii))
    assert len(bases) == k - 1
    assert len(evals) <= 2 * (k - 1) + 2 * k
    assert pairs == []


# -- serialization --

_RATIO_TEXT = st.one_of(
    st.fractions().map(str),  # canonical text
    st.sampled_from(["2/4", "-0", "+3", " 7 ", "007", "1.5", "1e2", "1/0", "²", "",
                     "-", "1/", "/2", "--3", "3/-4", "1_000", "٣", "0/5", "-12/30"]),
    st.text(alphabet="0123456789-+/ .e_²٣", max_size=8),
)


@settings(max_examples=400, derandomize=True, database=None)
@given(x=st.one_of(_RATIO_TEXT, st.integers(), st.floats(allow_subnormal=True),
                   st.sampled_from([True, False, float("inf"), 5e-324, None, [1]])))
def test_read_ratio_matches_fraction(x):
    """The integer reader gives Fraction(x) in lowest terms, or raises
    Fraction's exception with its message; it refuses a bool, which
    Fraction reads as 0 or 1."""
    if isinstance(x, bool):
        with pytest.raises(TypeError, match="is not a rational number"):
            valued.read_ratio(x)
        return
    try:
        want = Fraction(x)
    except Exception as exc:
        with pytest.raises(Exception) as got:
            valued.read_ratio(x)
        assert (type(got.value), str(got.value)) == (type(exc), str(exc))
    else:
        assert valued.read_ratio(x) == want.as_integer_ratio()


def test_json_roundtrip_exact():
    eta = DiagNorm(
        P2,
        [[Fraction(1), Fraction(1, 2)], [Fraction(0), Fraction(3)]],
        [Fraction(-7, 3), Fraction(2)],
    )
    again = DiagNorm.from_json(eta.to_json())
    assert again == eta
    assert eta.to_json()["weights"] == ["-7/3", "2"]


# One rational norm in every spelling the two constructors read: basis rows
# and weights for DiagNorm(ctx, rows, weights), basis columns for from_json.
_ODD = {Fraction(7): " 7 ", Fraction(1, 2): "4/8", Fraction(100): "1e2", Fraction(0): "-0",
        Fraction(-3, 4): "-0.75", Fraction(5, 2): "2.50", Fraction(-3): "-3/1"}
_SPELLINGS = {
    "ints": int, "Fractions": lambda x: x, "floats": float, "canonical": str,
    "odd text": lambda x: _ODD.get(x, str(x)),
}


@pytest.mark.parametrize("spelling", list(_SPELLINGS))
def test_the_two_constructors_agree_on_every_spelling(spelling):
    spell = _SPELLINGS[spelling]
    integral = spelling == "ints"
    rows = [[Fraction(2), Fraction(7)], [Fraction(0), Fraction(100)]]
    weights = [Fraction(-3), Fraction(1)]
    if not integral:
        rows[0][0], weights = Fraction(1, 2), [Fraction(-3, 4), Fraction(5, 2)]
    want = {"p": 3, "basis": [[str(x) for x in col] for col in zip(*rows)],
            "weights": [str(x) for x in weights]}
    ref = DiagNorm.from_json(want)
    rows_s = [[spell(x) for x in row] for row in rows]
    weights_s = [spell(x) for x in weights]
    built = DiagNorm(3, rows_s, weights_s)
    read = DiagNorm.from_json({"p": 3, "basis": [list(col) for col in zip(*rows_s)],
                               "weights": weights_s})
    for eta in (built, read):
        assert eta == ref and hash(eta) == hash(ref)
        assert eta.to_json() == ref.to_json() == want
        assert (eta.basis, eta.weights) == (tuple(map(tuple, rows)), tuple(weights))


SQUARE = "basis must be square and match the weight length"
N_COLUMNS = "bad DiagNorm JSON: basis must be n columns of length n >= 1"


@pytest.mark.parametrize("rows, weights, message, json_message", [
    ([[1, 0], [0]], [0, 0], SQUARE, N_COLUMNS),
    ([[1, 0, 0], [0, 1, 0]], [0, 0], SQUARE, N_COLUMNS),
    ([[1, 0], [0, 1]], [0], SQUARE, SQUARE),
    ([["1/2", 1], [1, 2]], [0, 0], "basis matrix is singular", "basis matrix is singular"),
], ids=["ragged", "non-square", "weight-length", "singular"])
def test_both_constructors_refuse_bad_bases_as_before(rows, weights, message, json_message):
    """The rows, read as columns by from_json, keep their shape and rank."""
    with pytest.raises(UsageError) as got:
        DiagNorm(P2, rows, weights)
    assert str(got.value) == message
    with pytest.raises(UsageError) as got:
        DiagNorm.from_json({"p": 2, "basis": rows, "weights": weights})
    assert str(got.value) == json_message


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
