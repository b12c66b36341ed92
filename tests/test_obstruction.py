import json
import math

import pytest

import normspace.obstruction
from normspace import (
    BallCertificate,
    InfeasibleScaleError,
    ObstructionReport,
    PAdicContext,
    SignedPerm,
    UsageError,
    cube_isometries,
    injective_hom_decision,
)
from helpers import (
    matrix_isometry_enumeration,
    signed_perm_from_matrix,
    signed_perm_inverse,
    signed_perm_matrix,
)
from normspace.cli import main
from normspace.obstruction import verify_embedding_certificate


def test_signed_perm_composition_matches_matrices():
    a = SignedPerm((1, 2, 0), (1, -1, 1))
    b = SignedPerm((0, 2, 1), (-1, 1, -1))
    ab = a * b
    ma = signed_perm_matrix(a)
    mb = signed_perm_matrix(b)
    prod = [[sum(ma[i][k] * mb[k][j] for k in range(3)) for j in range(3)]
            for i in range(3)]
    assert signed_perm_matrix(ab) == prod
    assert (a * signed_perm_inverse(a)) == SignedPerm.identity(3)
    assert signed_perm_from_matrix(prod) == ab


def test_signed_perm_validation():
    with pytest.raises(UsageError):
        SignedPerm((0, 0), (1, 1))
    with pytest.raises(UsageError):
        SignedPerm((0, 1), (1, 2))


def test_value_classes_compare_hash_and_freeze_as_before():
    """The plain value classes keep the semantics of the dataclasses they
    replaced: frozen ones compare and hash by value and refuse assignment,
    mutable ones compare by value and are unhashable."""
    a, b = SignedPerm((1, 0), (1, -1)), SignedPerm((1, 0), (1, -1))
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != SignedPerm((1, 0), (-1, 1)) and a != (a.perm, a.signs)
    p3 = PAdicContext(3)
    assert p3 == PAdicContext(3) != PAdicContext(5) and hash(p3) == hash(PAdicContext(3))
    assert p3 != 3 and repr(p3) == "PAdicContext(p=3)"
    for obj, name in ((a, "perm"), (p3, "p")):
        with pytest.raises(AttributeError):
            setattr(obj, name, 2)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    with pytest.raises(UsageError):
        PAdicContext(4)
    report = ObstructionReport(4, "exists", "exhaustive-search")
    assert report == ObstructionReport(4, "exists", "exhaustive-search", "", None)
    assert report != ObstructionReport(4, "exists", "exhaustive-search", "found")
    cert = BallCertificate([], [1], "witness", "empty")
    assert cert == BallCertificate([], [1], "witness", "empty", None, None, {})
    assert cert != BallCertificate([], [1], "witness", "empty", stats={"ball_sizes": [1]})
    for obj in (report, cert):
        with pytest.raises(TypeError):
            hash(obj)
        obj.detail = "mutable"


def test_cube_isometries_orders():
    assert len(cube_isometries(2)) == 8
    assert len(cube_isometries(3)) == 48
    for k in (2, 3):
        assert len(cube_isometries(k)) == 2 ** k * math.factorial(k)


def test_cube_isometries_match_matrix_enumeration():
    for k in (2, 3):
        mats = matrix_isometry_enumeration(k)
        assert len(mats) == len(cube_isometries(k))
        abstract = {tuple(map(tuple, signed_perm_matrix(g))) for g in cube_isometries(k)}
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
        assert signed_perm_inverse(a) in g2
        for b in g2:
            assert a * b in g2


def test_decision_n3_element_order():
    rep = injective_hom_decision(3)
    assert rep.verdict == "impossible"
    assert rep.reason == "element-order"


def test_decision_n4_exists_with_certificate():
    rep = injective_hom_decision(4)
    assert rep.verdict == "exists"
    assert rep.reason == "exhaustive-search"
    assert verify_embedding_certificate(4, rep.certificate)


def test_a_missed_n4_search_is_an_internal_error(monkeypatch, capsys):
    # A_4 embeds, so a search that finds nothing is a broken search, not a verdict
    monkeypatch.setattr(normspace.obstruction, "_exhaustive_search", lambda n: None)
    with pytest.raises(RuntimeError, match="no valid embedding of A_4"):
        injective_hom_decision(4)
    assert main(["obstruction", "--n", "4"]) == 4
    out, err = capsys.readouterr()
    assert out == "" and json.loads(err)["error"] == "internal"


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
