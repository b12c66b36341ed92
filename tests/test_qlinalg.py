from fractions import Fraction

import pytest

from normspace import qlinalg
from normspace.errors import UsageError


def test_mat_and_frac_coercion():
    m = qlinalg.mat([[1, "1/2"], [Fraction(3, 4), 2]])
    assert m[0][1] == Fraction(1, 2)
    assert m[1][0] == Fraction(3, 4)


def test_matmul_identity():
    a = qlinalg.mat([[1, 2], [3, 4]])
    assert qlinalg.matmul(a, qlinalg.identity(2)) == a


def test_det_exact():
    a = qlinalg.mat([["1/3", 2], [1, 6]])
    assert qlinalg.det(a) == Fraction(0)
    b = qlinalg.mat([[2, 1], [1, 1]])
    assert qlinalg.det(b) == 1


def test_inv_roundtrip():
    a = qlinalg.mat([[2, 1, 0], [1, "1/2", 1], [0, 3, 1]])
    ainv = qlinalg.inv(a)
    assert qlinalg.matmul(a, ainv) == qlinalg.identity(3)
    assert qlinalg.matmul(ainv, a) == qlinalg.identity(3)


def test_inv_singular_raises():
    with pytest.raises(UsageError):
        qlinalg.inv(qlinalg.mat([[1, 2], [2, 4]]))


def test_inv_singular_with_pivots_in_the_identity_block():
    # [A | I] keeps full row rank, so elimination finds its missing pivots in
    # the identity block; neither the rank nor a nonzero reduced diagonal
    # entry (red[0][0] = 1 in the first two) may pass for invertible
    for a in ([[1, 1, 0], [0, 0, 1], [0, 0, 0]],
              [[1, 0, 0], [0, 0, 0], [0, 0, 1]],
              [[0, 0], [0, 1]]):
        with pytest.raises(UsageError):
            qlinalg.inv(qlinalg.mat(a))


def test_solve():
    a = qlinalg.mat([[1, 1], [1, -1]])
    x = qlinalg.solve(a, [3, 1])
    assert x == (Fraction(2), Fraction(1))


def test_solve_singular_raises():
    # consistent and inconsistent right-hand sides alike
    a = qlinalg.mat([[1, 2], [2, 4]])
    for b in ([1, 2], [1, 0]):
        with pytest.raises(UsageError):
            qlinalg.solve(a, b)
    with pytest.raises(UsageError):
        qlinalg.solve(qlinalg.mat([[1, 0, 0], [0, 0, 0], [0, 0, 1]]), [1, 0, 1])


def test_columns_roundtrip():
    a = qlinalg.mat([[1, 2], [3, 4]])
    cols = [qlinalg.column(a, j) for j in range(2)]
    assert qlinalg.from_columns(cols) == a
