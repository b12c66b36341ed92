from fractions import Fraction

import pytest

import helpers
from normspace import qlinalg
from normspace.errors import UsageError


def test_mat_and_frac_coercion():
    m = helpers.mat([[1, "1/2"], [Fraction(3, 4), 2]])
    assert m[0][1] == Fraction(1, 2)
    assert m[1][0] == Fraction(3, 4)


def test_matmul_identity():
    a = helpers.mat([[1, 2], [3, 4]])
    assert helpers.matmul(a, helpers.identity(2)) == a


def test_det_exact():
    # |d| = |det A|; d = 0 on a singular matrix
    a, den = qlinalg.clear_denominators(helpers.mat([["1/3", 2], [1, 6]]))
    assert den == 3
    assert qlinalg.bareiss(a) == (0, None)
    d, _ = qlinalg.bareiss([[2, 1], [1, 1]])
    assert abs(d) == 1
    for a in ([[0, 2, 1], [3, 1, 4], [1, 5, 9]], [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]):
        _, det, _ = helpers.gauss_jordan(a)
        assert abs(qlinalg.bareiss(a)[0]) == abs(det) != 0


def test_inv_roundtrip():
    a = helpers.mat([[2, 1, 0], [1, "1/2", 1], [0, 3, 1]])
    ainv = helpers.inv(a)
    assert helpers.matmul(a, ainv) == helpers.identity(3)
    assert helpers.matmul(ainv, a) == helpers.identity(3)
    # Bareiss on [A | I] gives M = d A^{-1}, so A M = d I and M / d is the inverse
    a_int, den = qlinalg.clear_denominators(a)
    d, out = qlinalg.bareiss([r + [int(i == j) for j in range(3)] for i, r in enumerate(a_int)])
    m = [r[3:] for r in out]
    am = [[sum(x * y for x, y in zip(row, col)) for col in zip(*m)] for row in a_int]
    assert am == [[d * (i == j) for j in range(3)] for i in range(3)]
    assert [[Fraction(x * den, d) for x in r] for r in m] == [list(r) for r in ainv]


def test_inv_singular_raises():
    with pytest.raises(UsageError):
        helpers.inv(helpers.mat([[1, 2], [2, 4]]))
    assert qlinalg.bareiss([[1, 2, 1, 0], [2, 4, 0, 1]]) == (0, None)


def test_inv_singular_with_pivots_in_the_identity_block():
    # [A | I] keeps full row rank, so elimination finds its missing pivots in
    # the identity block; neither the rank nor a nonzero reduced diagonal
    # entry (red[0][0] = 1 in the first two) may pass for invertible
    for a in ([[1, 1, 0], [0, 0, 1], [0, 0, 0]],
              [[1, 0, 0], [0, 0, 0], [0, 0, 1]],
              [[0, 0], [0, 1]]):
        with pytest.raises(UsageError):
            helpers.inv(helpers.mat(a))
        n = len(a)
        assert qlinalg.bareiss([r + [int(i == j) for j in range(n)]
                                for i, r in enumerate(a)]) == (0, None)


def test_solve():
    # x = out[:, n] / d from Bareiss on [A | b]
    d, out = qlinalg.bareiss([[1, 1, 3], [1, -1, 1]])
    assert [Fraction(r[2], d) for r in out] == [2, 1]


def test_solve_singular_raises():
    # consistent and inconsistent right-hand sides alike
    for b in (1, 0):
        assert qlinalg.bareiss([[1, 2, 1], [2, 4, 2 * b]]) == (0, None)
    assert qlinalg.bareiss([[1, 0, 0, 1], [0, 0, 0, 0], [0, 0, 1, 1]]) == (0, None)


def test_columns_roundtrip():
    a = helpers.mat([[1, 2], [3, 4]])
    cols = [(1, 3), (2, 4)]
    assert helpers.from_columns(cols) == a
