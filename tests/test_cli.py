import json
import os
import subprocess
import sys

import normspace
from normspace import DiagNorm, PAdicContext, body_to_json, PolyNorm, SpdNorm
from normspace.cli import main
import numpy as np


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


STD = json.dumps(DiagNorm.standard(PAdicContext(2), [0, 0]).to_json())
SHIFTED = json.dumps(DiagNorm.standard(PAdicContext(2), [3, -1]).to_json())
LPRIME = json.dumps(
    DiagNorm(PAdicContext(2), [[2, 1], [0, 1]], [0, 0]).to_json()
)
SQUARE_BODY = json.dumps(body_to_json(PolyNorm.from_vertices([[1, 1], [1, -1]])))
BALL_FAMILY = json.dumps({"centers": [json.loads(STD), json.loads(LPRIME)], "radii": [1, 1]})


def test_dist(capsys):
    code, out, _ = run_cli(capsys, "dist", "--a", STD, "--b", SHIFTED)
    assert code == 0
    doc = json.loads(out)
    assert doc["distance"] == "3"
    assert doc["schema_version"] == 1


def test_dist_sublattice(capsys):
    code, out, _ = run_cli(capsys, "dist", "--p", "2", "--a", STD, "--b", LPRIME)
    assert code == 0
    assert json.loads(out)["distance"] == "1"


def test_dist_p_mismatch(capsys):
    code, _, err = run_cli(capsys, "dist", "--p", "3", "--a", STD, "--b", STD)
    assert code == 2
    assert json.loads(err)["error"] == "usage"


def test_dist_from_files(capsys, tmp_path):
    fa = tmp_path / "a.json"
    fa.write_text(STD)
    fb = tmp_path / "b.json"
    fb.write_text(SHIFTED)
    code, out, _ = run_cli(capsys, "dist", "--a", str(fa), "--b", str(fb))
    assert code == 0
    assert json.loads(out)["distance"] == "3"


def test_join_and_common_basis(capsys):
    a = json.dumps(DiagNorm.standard(PAdicContext(2), [0, 2]).to_json())
    b = json.dumps(DiagNorm.standard(PAdicContext(2), [1, 0]).to_json())
    code, out, _ = run_cli(capsys, "join", "--inputs", a, b)
    assert code == 0
    doc = json.loads(out)
    assert sorted(doc["norm"]["weights"]) == ["1", "2"]
    code, out, _ = run_cli(capsys, "common-basis", "--a", STD, "--b", LPRIME)
    assert code == 0
    assert json.loads(out)["distance"] == "1"


def test_helly_na_roundtrip(capsys):
    fam = json.dumps({
        "norms": [json.loads(STD), json.loads(SHIFTED)],
        "radii": ["2", "3/2"],
    })
    code, out, _ = run_cli(capsys, "helly-na", "--family", fam)
    assert code == 0
    doc = json.loads(out)
    assert len(doc["distances"]) == 2


def test_helly_na_violation_exit_code(capsys):
    fam = json.dumps({
        "norms": [json.loads(STD), json.loads(SHIFTED)],
        "radii": ["1", "1"],
    })
    code, out, _ = run_cli(capsys, "helly-na", "--family", fam)
    assert code == 1
    doc = json.loads(out)
    assert doc["error"] == "pairwise-radius-violation"
    assert doc["pair"] == [0, 1]


def test_ball_and_scale_error(capsys):
    code, out, _ = run_cli(capsys, "ball", "--center", STD, "--radius", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 15
    big = json.dumps(DiagNorm.standard(PAdicContext(5), [0, 0]).to_json())
    code, _, err = run_cli(capsys, "ball", "--center", big, "--radius", "1")
    assert code == 3
    assert json.loads(err)["error"] == "infeasible-scale"


def test_helly_building(capsys):
    for mode in ("witness", "exhaustive"):
        code, out, _ = run_cli(capsys, "helly-building", "--family", BALL_FAMILY, "--mode", mode)
        assert code == 0
        assert json.loads(out)["outcome"] == "witness"


def test_body_dist_and_john(capsys):
    disc = json.dumps(body_to_json(SpdNorm(np.eye(2))))
    code, out, _ = run_cli(capsys, "body-dist", "--a", disc, "--b", SQUARE_BODY)
    assert code == 0
    assert abs(json.loads(out)["distance"] - 0.5 * np.log(2)) < 1e-9
    code, out, _ = run_cli(capsys, "john", "--body", SQUARE_BODY)
    assert code == 0
    doc = json.loads(out)
    assert doc["bound_check"] is True
    assert np.allclose(doc["ellipsoid"]["matrix"], np.eye(2), atol=1e-7)


def test_mvee(capsys):
    pts = json.dumps([[1, 1], [1, -1]])
    code, out, _ = run_cli(capsys, "mvee", "--points", pts)
    assert code == 0
    doc = json.loads(out)
    assert doc["epsilon"] <= 1e-6
    assert np.allclose(doc["ellipsoid"]["matrix"], np.eye(2) / 2, atol=1e-7)


def test_helly_bodies(capsys):
    fam = json.dumps({
        "bodies": [json.loads(SQUARE_BODY), json.loads(SQUARE_BODY)],
        "radii": [0.0, 0.0],
    })
    code, out, _ = run_cli(capsys, "helly-bodies", "--family", fam)
    assert code == 0
    doc = json.loads(out)
    assert all(d <= a for d, a in zip(doc["distances"], doc["allowed"]))


def test_helly_bodies_with_spd_input(capsys):
    disc = {"kind": "spd", "matrix": [[1.2, 0.1], [0.1, 0.9]]}
    fam = json.dumps({
        "bodies": [disc, json.loads(SQUARE_BODY)],
        "radii": [0.5, 0.5],
    })
    code, out, _ = run_cli(capsys, "helly-bodies", "--family", fam)
    assert code == 0
    doc = json.loads(out)
    # SPD input adds the circumscribed-approximation slack to its allowance
    assert doc["allowed"][0] > doc["allowed"][1]
    assert all(d <= a for d, a in zip(doc["distances"], doc["allowed"]))


def test_tight_span_and_extremal(capsys):
    metric = json.dumps({"labels": ["a", "b", "c"],
                         "d": [[0, 3, 4], [3, 0, 5], [4, 5, 0]]})
    code, out, _ = run_cli(capsys, "tight-span", "--metric", metric)
    assert code == 0
    doc = json.loads(out)
    assert doc["exact_mode"] is True
    assert [1.0, 2.0, 3.0] in doc["vertices"]
    code, out, _ = run_cli(capsys, "extremal", "--metric", metric,
                           "--f", "[2, 2, 3]")
    assert code == 0
    doc = json.loads(out)
    assert doc["is_extremal"] is True


def test_obstruction_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "obstruction", "--n", "5")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "impossible" and doc["reason"] == "lagrange"
    code, out, _ = run_cli(capsys, "obstruction", "--n", "4")
    assert code == 1  # verdict "exists" signals on the exit code
    assert json.loads(out)["verdict"] == "exists"


def test_campaign_json_and_determinism(capsys):
    args = ("campaign", "--suite", "apartment", "--count", "10", "--seed", "7")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical
    doc = json.loads(out1)
    assert doc["passed"] == 10 and doc["failures"] == []


def test_campaign_csv(capsys):
    code, out, _ = run_cli(capsys, "campaign", "--suite", "tight-span",
                           "--count", "3", "--seed", "1", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "instance,passed"
    assert len(lines) == 4


def test_campaign_unknown_suite(capsys):
    code, _, err = run_cli(capsys, "campaign", "--suite", "nope")
    assert code == 2
    assert json.loads(err)["error"] == "usage"


def test_campaign_seed_out_of_range(capsys):
    for seed in ("-1", str(2 ** 64)):
        code, out, err = run_cli(capsys, "campaign", "--suite", "apartment",
                                 "--count", "1", "--seed", seed)
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "usage"


def test_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "normspace", "obstruction", "--n", "3"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["reason"] == "element-order"


def test_cli_import_leaves_scipy_spatial_unloaded():
    src = os.path.dirname(os.path.dirname(os.path.abspath(normspace.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, normspace.cli; print('scipy.spatial' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_determinism_across_subcommands(capsys):
    for args in (
        ("dist", "--a", STD, "--b", LPRIME),
        ("john", "--body", SQUARE_BODY),
        ("obstruction", "--n", "8"),
        ("helly-building", "--family", BALL_FAMILY, "--mode", "witness"),
        ("helly-building", "--family", BALL_FAMILY, "--mode", "exhaustive"),
    ):
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2
