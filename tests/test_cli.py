import json
import os
import subprocess
import sys

import pytest

import normspace
from normspace import DiagNorm, PAdicContext, body_to_json, PolyNorm, SpdNorm
from normspace import cli
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
# the package's src directory, for the PYTHONPATH of fresh interpreters
SRC = os.path.dirname(os.path.dirname(os.path.abspath(normspace.__file__)))
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


def test_ball_at_n3_p3(capsys):
    center = json.dumps(DiagNorm.standard(PAdicContext(3), [0, 0, 0]).to_json())
    code, out, _ = run_cli(capsys, "ball", "--center", center, "--radius", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 445
    assert [v["depth"] for v in doc["vertices"]] == [0] + [1] * 444


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


@pytest.mark.parametrize("tol", ["nan", "-1", "inf", "1e-3"])
def test_mvee_refuses_a_tolerance(monkeypatch, capsys, tol):
    def no_loop(*args):
        raise AssertionError("the MVEE loop ran")

    monkeypatch.setattr(normspace._kernels, "mvee_weights", no_loop)
    code, out, err = run_cli(
        capsys, "mvee", "--points", "[[1, 1], [1, -1], [2, 0], [0, 2]]", "--tol", tol)
    assert (code, out) == (2, "")
    doc = json.loads(err)
    assert doc["schema_version"] == 1 and doc["error"] == "usage"
    assert "unrecognized arguments: --tol" in doc["message"]


@pytest.mark.parametrize("argv, needle", [
    (["dist", "--a", STD, "--b", STD, "--q", "2"], "unrecognized arguments: --q"),
    (["mvee"], "required: --points"),
    (["campaign", "--suite", "john", "--count", "x"], "invalid int value: 'x'"),
    (["helly-building", "--family", BALL_FAMILY, "--mode", "all"], "invalid choice"),
    ([], "required: subcommand"),
])
def test_argparse_errors_are_json_usage_errors(capsys, argv, needle):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    doc = json.loads(err)
    assert sorted(doc) == ["error", "message", "schema_version"]
    assert (doc["schema_version"], doc["error"]) == (1, "usage")
    assert needle in doc["message"]


def test_help_still_prints_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: normspace")


def test_helly_bodies(capsys):
    fam = json.dumps({
        "bodies": [json.loads(SQUARE_BODY), json.loads(SQUARE_BODY)],
        "radii": [0.0, 0.0],
    })
    code, out, _ = run_cli(capsys, "helly-bodies", "--family", fam)
    assert code == 0
    doc = json.loads(out)
    assert (doc["schema_version"], doc["witness"]["kind"]) == (2, "polytope")
    assert all(d <= a for d, a in zip(doc["distances"], doc["allowed"]))


SPD_FAMILY = {
    "bodies": [{"kind": "spd", "matrix": [[1.2, 0.1], [0.1, 0.9]]}, json.loads(SQUARE_BODY)],
    "radii": [0.5, 0.5],
}


def test_helly_bodies_with_spd_input(capsys):
    code, out, _ = run_cli(capsys, "helly-bodies", "--family", json.dumps(SPD_FAMILY))
    assert code == 0
    doc = json.loads(out)
    # the witness is the meet of the balls themselves
    assert doc["schema_version"] == 2
    assert doc["witness"] == {"kind": "meet", "parts": SPD_FAMILY["bodies"],
                              "log_scales": SPD_FAMILY["radii"]}
    assert all(d <= a for d, a in zip(doc["distances"], doc["allowed"]))


NAN_OFFSET_BODY = json.dumps({
    "kind": "polytope",
    "facets": [{"a": [1, 0], "b": float("nan")}, {"a": [0, 1], "b": 1}],
    "vertices": [[1, 1], [1, -1]],
})
METRIC_2 = '{"d": [[0, 1], [1, 0]]}'
MEET_BODY = json.dumps({"kind": "meet", "parts": [json.loads(SQUARE_BODY)], "log_scales": [0.5]})
NESTED_MEET_BODY = json.dumps({"kind": "meet", "parts": [json.loads(MEET_BODY)],
                               "log_scales": [0.5]})
WIDE_BODY = json.dumps(body_to_json(PolyNorm.from_vertices([[3, 3], [3, -3]])))


@pytest.mark.parametrize("argv", [
    ("body-dist", "--a", NAN_OFFSET_BODY, "--b", SQUARE_BODY),
    ("body-dist", "--a", '{"kind": "spd", "matrix": [[1, 0], [0, NaN]]}',
     "--b", SQUARE_BODY),
    ("body-dist", "--a", '{"kind": "spd", "matrix": [[1, "x"], ["x", 1]]}',
     "--b", SQUARE_BODY),
    ("john", "--body", SQUARE_BODY.replace("[1.0, -1.0]", "[Infinity, -1.0]")),
    ("mvee", "--points", "[[NaN, 0], [0, 1]]"),
    ("mvee", "--points", '{"pts": [[1, 0], [0, 1]]}'),
    ("mvee", "--points", '[[1, "x"], [0, 1]]'),
    ("helly-bodies", "--family",
     json.dumps({"bodies": [json.loads(SQUARE_BODY)] * 2, "radii": [float("nan"), 1]})),
    ("tight-span", "--metric", '{"d": [[0, "x"], ["x", 0]]}'),
    ("tight-span", "--metric", '{"d": [[0, NaN], [NaN, 0]]}'),
    ("extremal", "--metric", METRIC_2, "--f", "[NaN, 1]"),
    ("extremal", "--metric", METRIC_2, "--f", '["x", 1]'),
    ("dist", "--a", '{"p": 2, "basis": [["1", "0"], ["1"]], "weights": ["0", "0"]}',
     "--b", STD),
    ("dist", "--a", '{"p": 2, "basis": [], "weights": []}', "--b", STD),
    ("mvee", "--points", "[]"),
    ("helly-bodies", "--family",
     json.dumps({"bodies": [json.loads(SQUARE_BODY)] * 2, "radii": [1e308, 1]})),
    ("helly-bodies", "--family",
     json.dumps({"bodies": [json.loads(SQUARE_BODY), json.loads(WIDE_BODY)], "radii": [1, 709]})),
    ("helly-building", "--family",
     json.dumps({"centers": [json.loads(STD), json.loads(LPRIME)], "radii": [1.5, 1]})),
    ("body-dist", "--a", MEET_BODY, "--b", SQUARE_BODY),
    ("body-dist", "--a", SQUARE_BODY, "--b", NESTED_MEET_BODY),
    ("john", "--body", MEET_BODY),
], ids=["body-nan-offset", "body-nan-spd", "body-string-spd", "john-inf-vertex",
        "mvee-nan", "mvee-missing-points", "mvee-string", "helly-bodies-nan-radius",
        "tight-span-string", "tight-span-nan", "extremal-nan", "extremal-string",
        "dist-ragged-basis", "dist-empty-basis", "mvee-empty",
        "helly-bodies-overflowing-radius", "helly-bodies-overflowing-offset",
        "helly-building-fractional-radius", "body-dist-meet", "body-dist-nested-meet",
        "john-meet"])
@pytest.mark.filterwarnings("error")  # a warning would reach stderr before the JSON
def test_non_finite_and_malformed_inputs_are_usage_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "usage"


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


def _campaign_with(monkeypatch, capsys, check):
    monkeypatch.setitem(cli.CAMPAIGN_SUITES, "apartment", check)
    code, out, _ = run_cli(capsys, "campaign", "--suite", "apartment",
                           "--count", "3", "--seed", "0")
    return code, json.loads(out)


def _family_3d(seed):
    """Three polytopes of 10 Gaussian points in R^3, radii max d / 2 + 0.05."""
    rng = np.random.Generator(np.random.PCG64(seed))
    fam = [PolyNorm.from_vertices(rng.standard_normal((10, 3))) for _ in range(3)]
    dmat = [[normspace.gi_distance_bodies(x, y) for y in fam] for x in fam]
    return json.dumps({"bodies": [body_to_json(b) for b in fam],
                       "radii": [max(row) / 2 + 0.05 for row in dmat]})


@pytest.mark.parametrize("seed", range(10))
def test_helly_bodies_on_3d_polytope_families(capsys, seed):
    # The witness's pooled facets put the polar points of a vertex of degree
    # d > 3 off one plane by about 1e-17 relative: a degenerate exact hull.
    code, out, _ = run_cli(capsys, "helly-bodies", "--family", _family_3d(seed))
    assert code == 0
    doc = json.loads(out)
    assert all(d <= a for d, a in zip(doc["distances"], doc["allowed"]))


def test_internal_check_failure_exits_4(monkeypatch, capsys):
    family = _family_3d(0)
    real = normspace.polyhedra._wrap
    seen = []

    def repeating(*args):  # the two wraps to the first facet, then that facet again
        seen.append(real(*args))
        return seen[min(len(seen), 2) - 1]

    monkeypatch.setattr(normspace.polyhedra, "_wrap", repeating)
    code, out, err = run_cli(capsys, "helly-bodies", "--family", family)
    assert code == 4
    assert out == ""
    doc = json.loads(err)
    assert set(doc) == {"schema_version", "error", "message"}
    assert doc["error"] == "internal"
    assert doc["message"] == "exact 3D hull: a wrap returned a known face"


def test_campaign_records_a_violated_property(monkeypatch, capsys):
    verdicts = iter([True, False, True])
    code, doc = _campaign_with(monkeypatch, capsys, lambda rng: next(verdicts))
    assert code == 1
    assert doc["passed"] == 2
    assert doc["failures"] == [{"instance": 1, "kind": "violated", "type": None,
                                "message": "the property does not hold"}]


def test_campaign_records_a_crash_as_an_error(monkeypatch, capsys):
    def check(rng):
        raise ZeroDivisionError("boom")

    code, doc = _campaign_with(monkeypatch, capsys, check)
    assert code == 1
    assert doc["passed"] == 0
    assert doc["failures"] == [
        {"instance": i, "kind": "error", "type": "ZeroDivisionError", "message": "boom"}
        for i in range(3)]


def test_campaign_unknown_suite(capsys):
    code, _, err = run_cli(capsys, "campaign", "--suite", "nope")
    assert code == 2
    assert json.loads(err)["error"] == "usage"


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_campaign_negative_count(capsys, fmt):
    code, out, err = run_cli(capsys, "campaign", "--suite", "apartment",
                             "--count", "-3", "--format", fmt)
    assert code == 2
    assert out == ""
    assert json.loads(err) == {"schema_version": 1, "error": "usage",
                               "message": "--count must be nonnegative"}


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
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["reason"] == "element-order"


def test_cli_import_leaves_scipy_spatial_unloaded():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, normspace.cli; print('scipy.spatial' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_3d_hulls_leave_scipy_unloaded():
    script = (
        "import contextlib, io, json, sys\n"
        "import numpy as np\n"
        "from normspace import PolyNorm, body_to_json, cli\n"
        "pts = np.random.Generator(np.random.PCG64(5)).standard_normal((3, 10, 3))\n"
        "fam = [body_to_json(PolyNorm.from_vertices(p)) for p in pts]\n"
        "arg = json.dumps({'bodies': fam, 'radii': [3, 3, 3]})\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(['helly-bodies', '--family', arg])\n"
        "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script],
                          env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0 []"


def test_determinism_across_subcommands(capsys):
    for args in (
        ("dist", "--a", STD, "--b", LPRIME),
        ("john", "--body", SQUARE_BODY),
        ("obstruction", "--n", "8"),
        ("helly-building", "--family", BALL_FAMILY, "--mode", "witness"),
        ("helly-building", "--family", BALL_FAMILY, "--mode", "exhaustive"),
        ("helly-bodies", "--family", json.dumps(SPD_FAMILY)),
    ):
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2


def test_repeated_calls_in_one_process(capsys):
    fam = json.dumps({"norms": [json.loads(x) for x in (STD, SHIFTED, LPRIME)],
                      "radii": ["2", "2", "2"]})
    metric = json.dumps({"d": [[0, 3, 4, 5], [3, 0, 5, 4], [4, 5, 0, 3], [5, 4, 3, 0]]})
    outs = {}
    for args in (
        ("ball", "--center", LPRIME, "--radius", "2"),
        ("helly-na", "--family", fam),
        ("tight-span", "--metric", metric),
    ):
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert (code1, code2) == (0, 0)
        assert out1 and out1 == out2
        outs[args[0]] = out1
    # the printed distances are the witness's measured distances
    doc = json.loads(outs["helly-na"])
    witness = DiagNorm.from_json(doc["witness"])
    norms = [DiagNorm.from_json(json.loads(x)) for x in (STD, SHIFTED, LPRIME)]
    assert doc["distances"] == [str(normspace.gi_distance(witness, eta)) for eta in norms]
    code, out, err = run_cli(capsys, "ball", "--center", STD)
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "usage"
    assert cli.build_parser() is cli.build_parser()


def test_campaign_csv_writes_the_summary_on_stderr(monkeypatch, capsys):
    verdicts = iter([True, False, True, True, False, True])
    monkeypatch.setitem(cli.CAMPAIGN_SUITES, "apartment", lambda rng: next(verdicts))
    args = ("campaign", "--suite", "apartment", "--count", "3", "--seed", "5")
    code, out, err = run_cli(capsys, *args, "--format", "csv")
    assert code == 1
    assert out == "instance,passed\n0,1\n1,0\n2,1\n"
    assert err.count("\n") == 1
    summary = json.loads(err)
    assert {k: summary[k] for k in ("suite", "seed", "instances", "passed")} == {
        "suite": "apartment", "seed": 5, "instances": 3, "passed": 2}
    assert summary["failures"] == [{"instance": 1, "kind": "violated", "type": None,
                                    "message": "the property does not hold"}]
    _, json_out, _ = run_cli(capsys, *args)  # the JSON format prints the same summary
    assert json_out == err


def test_helly_building_witness_escape_exits_4(monkeypatch, capsys):
    # ball 1 holds only its center, which lies at distance 2 from the
    # center of ball 0; a join that returns that center lands outside ball 1
    far = json.dumps(DiagNorm.standard(PAdicContext(2), [2, 2]).to_json())
    family = json.dumps({"centers": [json.loads(STD), json.loads(far)], "radii": [2, 0]})
    monkeypatch.setattr(normspace.valued, "join_norms",
                        lambda norms: DiagNorm.standard(PAdicContext(2), [0, 0]))
    with pytest.raises(RuntimeError, match="escaped ball 1"):
        normspace.helly_check_building(
            [(normspace.LatticeVertex.from_json(json.loads(x)), r)
             for x, r in ((STD, 2), (far, 0))])
    code, out, err = run_cli(capsys, "helly-building", "--family", family)
    assert code == 4
    assert out == ""
    assert json.loads(err)["error"] == "internal"
