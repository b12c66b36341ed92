import math

import pytest

from normspace import (
    InfeasibleScaleError,
    SignedPerm,
    UsageError,
    cube_isometries,
    group_order_tools,
    injective_hom_decision,
)
from helpers import matrix_isometry_enumeration
from normspace.obstruction import (
    alternating_order_spectrum,
    signed_perm_order_spectrum,
    verify_embedding_certificate,
)


def test_signed_perm_composition_matches_matrices():
    a = SignedPerm((1, 2, 0), (1, -1, 1))
    b = SignedPerm((0, 2, 1), (-1, 1, -1))
    ab = a * b
    ma = a.matrix()
    mb = b.matrix()
    prod = [[sum(ma[i][k] * mb[k][j] for k in range(3)) for j in range(3)]
            for i in range(3)]
    assert ab.matrix() == prod
    assert (a * a.inverse()) == SignedPerm.identity(3)
    assert SignedPerm.from_matrix(prod) == ab


def test_signed_perm_validation():
    with pytest.raises(UsageError):
        SignedPerm((0, 0), (1, 1))
    with pytest.raises(UsageError):
        SignedPerm((0, 1), (1, 2))


def test_cube_isometries_orders():
    assert len(cube_isometries(2)) == 8
    assert len(cube_isometries(3)) == 48
    for k in (2, 3):
        assert len(cube_isometries(k)) == 2 ** k * math.factorial(k)


def test_cube_isometries_match_matrix_enumeration():
    for k in (2, 3):
        mats = matrix_isometry_enumeration(k)
        assert len(mats) == len(cube_isometries(k))
        abstract = {tuple(map(tuple, g.matrix())) for g in cube_isometries(k)}
        assert {tuple(map(tuple, m)) for m in mats} == abstract


def test_matrix_isometries_preserve_cube_vertices():
    import itertools

    cube = set(itertools.product((-1, 1), repeat=3))
    for m in matrix_isometry_enumeration(3):
        image = {
            tuple(sum(m[r][c] * v[c] for c in range(3)) for r in range(3))
            for v in cube
        }
        assert image == cube


def test_group_closed_under_product_and_inverse():
    g2 = set(cube_isometries(2))
    for a in g2:
        assert a.inverse() in g2
        for b in g2:
            assert a * b in g2


def test_spectra():
    assert alternating_order_spectrum(3) == (1, 3)
    assert alternating_order_spectrum(5) == (1, 2, 3, 5)
    assert signed_perm_order_spectrum(2) == (1, 2, 4)
    tools = group_order_tools(3)
    assert tools["target_spectrum_enumerated"] == (1, 2, 4)
    assert tools["target_spectrum"] == (1, 2, 4)


def test_spectrum_enumeration_cross_check():
    for n in (3, 4, 5):
        tools = group_order_tools(n)
        assert tools["target_spectrum_enumerated"] == tools["target_spectrum"]


def test_group_order_tools_values():
    t5 = group_order_tools(5)
    assert (t5["alternating_order"], t5["target_order"]) == (60, 384)
    assert not t5["divides"]
    t8 = group_order_tools(8)
    assert (t8["alternating_order"], t8["target_order"]) == (20160, 645120)
    assert t8["divides"]
    with pytest.raises(UsageError):
        group_order_tools(25)


def test_decision_n3_element_order():
    rep = injective_hom_decision(3)
    assert rep.verdict == "impossible"
    assert rep.reason == "element-order"


def test_decision_n4_exists_with_certificate():
    rep = injective_hom_decision(4)
    assert rep.verdict == "exists"
    assert rep.reason == "exhaustive-search"
    assert verify_embedding_certificate(4, rep.certificate)


def test_decision_lagrange_cases():
    for n in (5, 6, 7, 9, 10, 11, 12):
        rep = injective_hom_decision(n)
        assert rep.verdict == "impossible"
        assert rep.reason == "lagrange", n


def test_decision_simplicity_case():
    rep = injective_hom_decision(8)
    assert rep.verdict == "impossible"
    assert rep.reason == "simplicity"


def test_decision_monotone_consistency():
    for n in (3, 5, 6, 7, 8, 9, 10, 11, 12):
        assert injective_hom_decision(n).verdict == "impossible"


def test_decision_range_guard():
    with pytest.raises(UsageError):
        injective_hom_decision(2)
    with pytest.raises(UsageError):
        injective_hom_decision(13)


def test_report_json():
    doc = injective_hom_decision(5).to_json()
    assert doc["schema_version"] == 1
    assert doc["verdict"] == "impossible"
    assert doc["reason"] == "lagrange"
    doc4 = injective_hom_decision(4).to_json()
    assert doc4["certificate"]["s_image"]["perm"] is not None


def test_certificate_tampering_detected():
    rep = injective_hom_decision(4)
    bad = {
        "s_image": {"perm": [0, 1, 2], "signs": [1, 1, 1]},
        "t_image": rep.certificate["t_image"],
    }
    assert not verify_embedding_certificate(4, bad)


def test_isometry_enumeration_guard():
    with pytest.raises(InfeasibleScaleError):
        matrix_isometry_enumeration(4)
    with pytest.raises(InfeasibleScaleError):
        cube_isometries(8)
