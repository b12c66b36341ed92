import argparse
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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


def test_float_tight_span_near_the_top_of_the_float_range(capsys):
    # the dedup key f_i / 1e-9 once overflowed to infinity and exited 4
    metric = json.dumps({"d": [[0.0, 1e300, 1.5e300], [1e300, 0.0, 1e300],
                               [1.5e300, 1e300, 0.0]]})
    code, out, _ = run_cli(capsys, "tight-span", "--metric", metric)
    assert code == 0
    doc = json.loads(out)
    assert doc["exact_mode"] is False
    assert doc["vertices"] == [[0.0, 1e300, 1.5e300], [7.5e299, 2.5e299, 7.5e299],
                               [1e300, 0.0, 1e300], [1.5e300, 1e300, 0.0]]


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
    real = normspace.polyhedra._double_description
    calls = []

    def dropping(rows):  # the witness's polytope loses one vertex
        rays = real(rows)
        calls.append(rows)
        return rays[1:] if len(calls) == 1 else rays

    monkeypatch.setattr(normspace.polyhedra, "_double_description", dropping)
    code, out, err = run_cli(capsys, "helly-bodies", "--family", family)
    assert code == 4
    assert out == ""
    doc = json.loads(err)
    assert set(doc) == {"schema_version", "error", "message"}
    assert doc["error"] == "internal"
    assert doc["message"] == "exact extreme rays: an edge leaves the rays"


def test_a_4d_polytope_runs_through_john_and_body_dist(capsys):
    rng = np.random.Generator(np.random.PCG64(44))
    a, b = (json.dumps(body_to_json(PolyNorm.from_vertices(rng.standard_normal((9, 4)))))
            for _ in range(2))
    code, out, _ = run_cli(capsys, "john", "--body", a)
    assert code == 0
    doc = json.loads(out)
    assert doc["bound_check"] is True and len(doc["ellipsoid"]["matrix"]) == 4
    code, out, _ = run_cli(capsys, "body-dist", "--a", a, "--b", b)
    assert code == 0
    assert json.loads(out)["distance"] > 0


@pytest.mark.parametrize("k, code", [(10, 0), (11, 3)])
def test_tight_span_takes_up_to_ten_points(capsys, k, code):
    pts = np.random.Generator(np.random.PCG64(k)).integers(-5, 6, size=(k, 2))
    metric = json.dumps({"d": [[int(np.abs(p - q).sum()) for q in pts] for p in pts]})
    got, out, err = run_cli(capsys, "tight-span", "--metric", metric)
    assert got == code
    if code:
        assert out == "" and json.loads(err)["error"] == "infeasible-scale"
    else:
        assert len(json.loads(out)["vertices"]) >= k


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


# One run of every subcommand; campaign twice, in JSON and in CSV.
EXAMPLES = (
    ("dist", "--a", STD, "--b", LPRIME),
    ("join", "--inputs", STD, SHIFTED),
    ("common-basis", "--a", STD, "--b", LPRIME),
    ("helly-na", "--family", json.dumps({
        "norms": [json.loads(x) for x in (STD, SHIFTED, LPRIME)], "radii": ["2", "2", "2"]})),
    ("ball", "--center", LPRIME, "--radius", "2"),
    ("helly-building", "--family", BALL_FAMILY),
    ("body-dist", "--a", SQUARE_BODY, "--b", '{"kind": "spd", "matrix": [[1.2, 0.1], [0.1, 0.9]]}'),
    ("john", "--body", SQUARE_BODY),
    ("mvee", "--points", "[[1, 0], [0, 1], [0.5, 0.5], [0.25, -1.5]]"),
    ("helly-bodies", "--family", json.dumps({
        "bodies": [{"kind": "spd", "matrix": [[1.2, 0.1], [0.1, 0.9]]}, json.loads(SQUARE_BODY)],
        "radii": [0.5, 0.5]})),
    ("tight-span", "--metric", '{"d": [[0, 0.5, 1], [0.5, 0, 0.75], [1, 0.75, 0]]}'),
    ("extremal", "--metric", '{"d": [[0, 0.5, 1], [0.5, 0, 0.75], [1, 0.75, 0]]}',
     "--f", "[1, 1, 1]"),
    ("obstruction", "--n", "5"),
    ("campaign", "--suite", "building", "--count", "3", "--seed", "11"),
    ("campaign", "--suite", "helly-bodies", "--count", "2", "--seed", "11", "--format", "csv"),
)
# The subcommands that may import numpy (and normspace.bodies) in a fresh process.
NUMPY_SUBCOMMANDS = {"body-dist", "john", "mvee", "helly-bodies", "campaign"}


def _subcommands():
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return set(sub.choices)


def test_every_subcommand_prints_the_same_bytes_in_fresh_processes(capsys):
    assert {argv[0] for argv in EXAMPLES} == _subcommands()
    env = dict(os.environ, PYTHONPATH=SRC)
    for argv in EXAMPLES:
        runs = [subprocess.Popen([sys.executable, "-m", "normspace", *argv], env=env,
                                 stdout=subprocess.PIPE, stderr=subprocess.PIPE)
                for _ in range(2)]
        fresh = [(proc.returncode, out, err)
                 for proc, (out, err) in ((proc, proc.communicate()) for proc in runs)]
        code, out, err = run_cli(capsys, *argv)
        assert code in (0, 1), (argv[0], err)
        assert fresh[0] == fresh[1] == (code, out.encode(), err.encode()), argv[0]


def test_exact_subcommands_leave_numpy_unloaded():
    examples = [argv for argv in EXAMPLES if argv[0] not in NUMPY_SUBCOMMANDS]
    missing = _subcommands() - NUMPY_SUBCOMMANDS - {argv[0] for argv in examples}
    assert not missing, f"add an example run of {sorted(missing)} to EXAMPLES"
    script = (
        "import contextlib, io, json, sys\n"
        "from normspace import cli\n"
        "heavy = ('numpy', 'normspace.bodies', 'normspace._kernels')\n"
        "for argv in json.loads(sys.stdin.read()):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = cli.main(argv)\n"
        "    print(json.dumps([argv[0], code, [m for m in heavy if m in sys.modules]]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], input=json.dumps(examples),
                          env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    rows = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [row[0] for row in rows] == [argv[0] for argv in examples]
    for name, code, loaded in rows:
        assert (code, loaded) == (0, []), name


def test_the_package_serves_body_names_on_first_use():
    script = (
        "import sys, normspace\n"
        "names = {'PolyNorm', 'SpdNorm', 'gi_distance_bodies', 'john_ellipsoid'}\n"
        "print(names <= set(dir(normspace)), 'numpy' in sys.modules)\n"
        "print(normspace.PolyNorm is sys.modules['normspace.bodies'].PolyNorm)\n"
        "print(hasattr(normspace, 'no_such_name'))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script],
                          env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "False", "True", "False"]


def test_a_non_finite_payload_is_an_internal_error(monkeypatch, capsys):
    # strict JSON: NaN never reaches stdout, and no traceback either
    monkeypatch.setattr(normspace.bodies, "gi_distance_bodies", lambda a, b: float("nan"))
    code, out, err = run_cli(capsys, "body-dist", "--a", SQUARE_BODY, "--b", SQUARE_BODY)
    assert (code, out) == (4, "")
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == "internal"


TINY_SPD_BODY = '{"kind": "spd", "matrix": [[1e-310, 0], [0, 1]]}'
UNIT_SPD_BODY = '{"kind": "spd", "matrix": [[1, 0], [0, 1]]}'
# whitened by either form, the pencil of these two has an entry near 1e310
FLIPPED_SPD_BODY = '{"kind": "spd", "matrix": [[1, 0], [0, 1e-310]]}'
# the factor quotient of these two has a singular value near 4.5e315
HUGE_SPD_BODY = '{"kind": "spd", "matrix": [[1e308, 0], [0, 5e-324]]}'
HUGE_FLIPPED_SPD_BODY = '{"kind": "spd", "matrix": [[5e-324, 0], [0, 1e308]]}'


@pytest.mark.parametrize("argv", [
    ("body-dist", "--a", HUGE_SPD_BODY, "--b", HUGE_FLIPPED_SPD_BODY),
    ("body-dist", "--a", HUGE_FLIPPED_SPD_BODY, "--b", HUGE_SPD_BODY),
    ("helly-bodies", "--family", json.dumps({
        "bodies": [json.loads(HUGE_SPD_BODY), json.loads(HUGE_FLIPPED_SPD_BODY)],
        "radii": [400, 400]})),
], ids=["body-dist", "body-dist-swapped", "helly-bodies"])
def test_an_overflowing_spd_pencil_is_a_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert "pencil must be finite" in json.loads(err)["message"]
    assert "beyond the float range" in json.loads(err)["message"]


def _both_orders(capsys, a, b):
    """The one (code, out, err) of body-dist in both argument orders."""
    (res,) = {run_cli(capsys, "body-dist", "--a", u, "--b", v) for u, v in ((a, b), (b, a))}
    return res


@pytest.mark.filterwarnings("error")  # a warning would reach stderr
def test_a_pencil_overflowing_both_whitenings_answers(capsys):
    code, out, err = _both_orders(capsys, FLIPPED_SPD_BODY, TINY_SPD_BODY)
    assert (code, err) == (0, "")
    assert json.loads(out)["distance"] == 356.9006894140771
    family = json.dumps({"bodies": [json.loads(FLIPPED_SPD_BODY), json.loads(TINY_SPD_BODY)],
                         "radii": [400, 400]})
    code, out, err = run_cli(capsys, "helly-bodies", "--family", family)
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert all(d <= r for d, r in zip(doc["distances"], doc["allowed"]))


@pytest.mark.filterwarnings("error")  # a warning would reach stderr
@pytest.mark.parametrize("a, b, want", [
    ('{"kind": "spd", "matrix": [[1e308, 0], [0, 1e308]]}',
     '{"kind": "spd", "matrix": [[1e-309, 0], [0, 1e-309]]}', 710.347501188663),
    (SQUARE_BODY, TINY_SPD_BODY, 356.9006894140771),
], ids=["overflowing-sum", "square-against-tiny"])
def test_extreme_forms_answer_in_both_orders(capsys, a, b, want):
    code, out, err = _both_orders(capsys, a, b)
    assert (code, err) == (0, "")
    assert json.loads(out)["distance"] == want


@pytest.mark.filterwarnings("error")  # a warning would reach stderr
def test_a_gauge_ratio_beyond_the_float_range_exits_2(capsys):
    huge = json.dumps(body_to_json(PolyNorm.from_vertices([[1e300, 1e300], [1e300, -1e300]])))
    ball = json.dumps(body_to_json(SpdNorm(1e300 * np.eye(2))))
    code, out, err = _both_orders(capsys, huge, ball)
    assert (code, out) == (2, "")
    assert "beyond the float range" in json.loads(err)["message"]


@pytest.mark.filterwarnings("error")  # a warning would reach stderr
def test_an_asymmetry_beyond_the_float_range_is_refused_without_a_warning(capsys):
    lopsided = '{"kind": "spd", "matrix": [[1, 1e308], [-1e308, 1]]}'
    code, out, err = _both_orders(capsys, lopsided, UNIT_SPD_BODY)
    assert (code, out) == (2, "")
    assert "symmetric" in json.loads(err)["message"]


def test_a_form_cholesky_cannot_factor_is_refused_when_read(capsys, monkeypatch):
    def no_distance(*args):
        raise AssertionError("a distance was computed")

    monkeypatch.setattr(normspace.bodies, "gi_distance_bodies", no_distance)
    flat = json.dumps({"kind": "spd", "matrix": [
        [0.8427598944009403, 0.36402699733708765], [0.36402699733708765, 0.15724010559905943]]})
    code, out, err = _both_orders(capsys, flat, UNIT_SPD_BODY)
    assert (code, out) == (2, "")
    assert "positive definite" in json.loads(err)["message"]


def test_a_pencil_that_overflows_one_way_is_whitened_the_other(capsys):
    # whitening by the tiny form overflows, by the identity it does not; the
    # distance is 0.5 |log 1e-310| in both argument orders, to the bit
    outs = {run_cli(capsys, "body-dist", "--a", a, "--b", b)
            for a, b in ((UNIT_SPD_BODY, TINY_SPD_BODY), (TINY_SPD_BODY, UNIT_SPD_BODY))}
    ((code, out, err),) = outs
    assert (code, err) == (0, "")
    assert json.loads(out)["distance"] == 0.5 * abs(math.log(1e-310))
    family = json.dumps({"bodies": [json.loads(UNIT_SPD_BODY), json.loads(TINY_SPD_BODY)],
                         "radii": [400, 400]})
    code, out, err = run_cli(capsys, "helly-bodies", "--family", family)
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert all(d <= r for d, r in zip(doc["distances"], doc["allowed"]))


def test_an_spd_pencil_centered_by_a_power_of_two_answers(capsys):
    # d = 0.5 ln(1e400), though whitening by either form leaves float range
    small = '{"kind": "spd", "matrix": [[1e-200, 0], [0, 1]]}'
    large = '{"kind": "spd", "matrix": [[1e200, 0], [0, 1]]}'
    outs = {run_cli(capsys, "body-dist", "--a", a, "--b", b)
            for a, b in ((small, large), (large, small))}
    ((code, out, err),) = outs
    assert (code, err) == (0, "")
    assert json.loads(out)["distance"] == pytest.approx(200 * math.log(10), rel=1e-14)


def test_determinism_across_subcommands(capsys):
    rng = np.random.Generator(np.random.PCG64(17))
    body3 = json.dumps(body_to_json(PolyNorm.from_vertices(rng.standard_normal((10, 3)))))
    cloud = json.dumps(rng.standard_normal((60, 3)).tolist())
    for args in (
        ("dist", "--a", STD, "--b", LPRIME),
        ("john", "--body", SQUARE_BODY),
        ("john", "--body", body3),
        ("mvee", "--points", cloud),
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


def _norm_doc(p, weights=("0", "0")):
    return json.dumps({"p": p, "basis": [["1", "0"], ["0", "1"]], "weights": list(weights)})


@pytest.mark.parametrize("p", [2.5, 2.0, True, "2", 10 ** 30])
def test_a_non_integer_bool_or_huge_p_is_a_usage_error(capsys, p):
    # the parser used to truncate 2.5 to 2 and run the ball at p = 2
    code, out, err = run_cli(capsys, "ball", "--center", _norm_doc(p), "--radius", "1")
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "usage"


def test_a_19_digit_prime_is_accepted_at_once(capsys):
    # trial division took over 20 s on 2^61 - 1, before the ball's scale cap
    p = 2 ** 61 - 1
    code, _, err = run_cli(capsys, "ball", "--center", _norm_doc(p), "--radius", "1")
    assert code == 3 and json.loads(err)["error"] == "infeasible-scale"
    fam = json.dumps({"norms": [json.loads(_norm_doc(p)), json.loads(_norm_doc(p, ["1", "0"]))],
                      "radii": [1, 0]})
    code, out, _ = run_cli(capsys, "helly-na", "--family", fam)
    assert code == 0 and json.loads(out)["witness"]["p"] == p


@pytest.mark.parametrize("weight", ["101", "-1e400", 1e300])
def test_a_ball_refuses_a_huge_weight(capsys, weight):
    # p ** weight once ran without bound
    code, out, err = run_cli(capsys, "ball", "--center", _norm_doc(2, [weight, "0"]),
                             "--radius", "0")
    assert (code, out) == (3, "")
    assert json.loads(err)["error"] == "infeasible-scale"


_ENTRY = st.one_of(
    st.integers(-3, 3), st.sampled_from(["1/2", "-3/4", "2/9", "x", "", "1/0", "1e400"]),
    st.floats(), st.booleans(), st.none(), st.lists(st.integers(-1, 1), max_size=2),
)
_P = st.one_of(
    st.sampled_from([2, 3, 5, 0, 1, -3, 4, 2 ** 61 - 1, 2 ** 89 - 1, cli.val.MAX_P]),
    st.integers(), st.floats(), st.booleans(), st.text(max_size=3), st.none(),
)


@st.composite
def _fuzzed_norm(draw, n=None, p=None):
    """A well-formed norm JSON with at most one defect."""
    n = n or draw(st.integers(1, 3))
    good = st.one_of(st.integers(-3, 3), st.sampled_from(["1/2", "-3/4", "2/9"]))
    basis = [draw(st.lists(good, min_size=n, max_size=n)) for _ in range(n)]
    obj = {"p": p or draw(st.sampled_from([2, 3])), "basis": basis,
           "weights": draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))}
    defect = draw(st.sampled_from(
        [None] * 7 + ["p", "ragged", "empty", "entry", "weight", "length", "missing"]))
    if defect == "p":
        obj["p"] = draw(_P)
    elif defect == "ragged":
        basis[draw(st.integers(0, n - 1))].append(1)
    elif defect == "empty":
        obj["basis"] = draw(st.sampled_from([[], [[]], [[]] * n]))
    elif defect == "entry":
        basis[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = draw(_ENTRY)
    elif defect == "weight":
        obj["weights"][draw(st.integers(0, n - 1))] = draw(_ENTRY)
    elif defect == "length":
        obj["weights"] = draw(st.lists(st.integers(-2, 2), max_size=4).filter(
            lambda w: len(w) != n))
    elif defect == "missing":
        del obj[draw(st.sampled_from(["p", "basis", "weights"]))]
    return obj


_FUZZ = settings(max_examples=150, deadline=None, derandomize=True, database=None,
                 suppress_health_check=[HealthCheck.too_slow])


def _ends_in_one_document(argv, codes):
    # a warning would reach stderr before the JSON: raised here, it exits 4
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(list(argv))
    out, err = out.getvalue(), err.getvalue()
    assert code in codes
    assert len([s for s in (out, err) if s]) == 1
    json.loads(out or err)


@given(center=st.one_of(_fuzzed_norm(), _fuzzed_norm(), _ENTRY),
       radius=st.sampled_from([0, 1, 1, -1]))
@_FUZZ
def test_fuzzed_ball_center_ends_in_one_document(center, radius):
    _ends_in_one_document(("ball", "--center", json.dumps(center),
                                   "--radius", str(radius)), (0, 2, 3))


@st.composite
def _fuzzed_family(draw):
    """A helly-na family of one (n, p), with bad radii, lengths or shapes at times."""
    n, p = draw(st.integers(1, 3)), draw(st.sampled_from([2, 3, 2 ** 61 - 1]))
    norms = draw(st.lists(_fuzzed_norm(n, p), min_size=1, max_size=3))
    good = st.one_of(st.integers(0, 3), st.sampled_from(["1/2", "5/2"]))
    radii = draw(st.lists(st.one_of(good, good, good, _ENTRY), min_size=len(norms),
                          max_size=len(norms) + draw(st.sampled_from([0, 0, 0, 1]))))
    family = {"norms": norms, "radii": radii}
    return draw(st.sampled_from([family] * 6 + [{"norms": norms}, norms, radii]))


@given(family=st.one_of(_fuzzed_family(), _fuzzed_family(), _ENTRY))
@_FUZZ
def test_fuzzed_helly_na_family_ends_in_one_document(family):
    # exit 1 is a pairwise-radius violation, reported with its payload
    _ends_in_one_document(("helly-na", "--family", json.dumps(family)), (0, 1, 2, 3))


# -- documents that no reader can parse, and an operation that breaks --

BIG = "1" * 400  # parses, but beyond float range
HUGE = "1" * 5000  # beyond the 4300-digit limit of integer parsing
DEEP = "[" * 50_000 + "]" * 50_000
BIG_METRIC = '{"d": [[0, %s], [%s, 0]]}' % (BIG, BIG)


@pytest.mark.parametrize("argv", [
    ("body-dist", "--a", '{"kind": "spd", "matrix": [[%s, 0], [0, 1]]}' % BIG,
     "--b", SQUARE_BODY),
    ("john", "--body", SQUARE_BODY.replace("[1.0, -1.0]", "[1.0, -%s]" % BIG)),
    ("mvee", "--points", "[[%s, 0], [0, 1]]" % BIG),
    ("helly-bodies", "--family",
     '{"bodies": [%s, %s], "radii": [%s, 0]}' % (SQUARE_BODY, SQUARE_BODY, BIG)),
    ("tight-span", "--metric", BIG_METRIC),
    ("extremal", "--metric", BIG_METRIC, "--f", "[%s, %s]" % (BIG, BIG)),
], ids=["body-dist", "john", "mvee", "helly-bodies", "tight-span", "extremal"])
@pytest.mark.filterwarnings("error")
def test_a_400_digit_number_is_a_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "usage"


# every subcommand that reads a JSON document; X marks the document
JSON_READERS = {
    "dist": ("dist", "--a", "X", "--b", STD),
    "join": ("join", "--inputs", STD, "X"),
    "common-basis": ("common-basis", "--a", STD, "--b", "X"),
    "helly-na": ("helly-na", "--family", "X"),
    "ball": ("ball", "--center", "X", "--radius", "1"),
    "helly-building": ("helly-building", "--family", "X"),
    "body-dist": ("body-dist", "--a", SQUARE_BODY, "--b", "X"),
    "john": ("john", "--body", "X"),
    "mvee": ("mvee", "--points", "X"),
    "helly-bodies": ("helly-bodies", "--family", "X"),
    "tight-span": ("tight-span", "--metric", "X"),
    "extremal": ("extremal", "--metric", METRIC_2, "--f", "X"),
}


@pytest.mark.parametrize("kind", ["5000-digits", "non-utf8-file", "50000-deep"])
@pytest.mark.parametrize("name", sorted(JSON_READERS))
def test_an_unreadable_document_is_one_usage_error(capsys, tmp_path, name, kind):
    if kind == "non-utf8-file":
        path = tmp_path / "doc.json"
        path.write_bytes(b'{"d": "\xff\xfe"}')
        doc = str(path)
    else:
        doc = {"5000-digits": "[%s]" % HUGE, "50000-deep": DEEP}[kind]
    argv = [doc if x == "X" else x for x in JSON_READERS[name]]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert json.loads(err)["error"] == "usage"


def test_an_unexpected_value_error_in_an_operation_exits_4(monkeypatch, capsys):
    def broken(*args):
        raise ValueError("a bug, not a bad input")

    monkeypatch.setattr(normspace.bodies, "gi_distance_bodies", broken)
    code, out, err = run_cli(capsys, "body-dist", "--a", SQUARE_BODY, "--b", SQUARE_BODY)
    assert (code, out) == (4, "")
    assert err.count("\n") == 1
    assert json.loads(err) == {"schema_version": 1, "error": "internal",
                               "message": "a bug, not a bad input"}


@pytest.mark.parametrize("argv", [
    ("dist", "--a", STD, "--b", '{"p": 2, "basis": [["1", "0"], ["0", "1"]]}'),
    ("join", "--inputs", STD, json.dumps(DiagNorm.standard(PAdicContext(3), [0, 0]).to_json())),
    ("common-basis", "--a", STD, "--b", '{"p": 2, "basis": [["1", "0"], ["2", "0"]], '
     '"weights": ["0", "0"]}'),
    ("helly-na", "--family", json.dumps({"norms": [json.loads(STD)], "radii": ["1/0"]})),
    ("ball", "--center", STD, "--radius", "-1"),
    ("helly-building", "--family", json.dumps({"centers": [json.loads(STD)]})),
    ("body-dist", "--a", SQUARE_BODY, "--b", '{"kind": "ball"}'),
    ("john", "--body", '{"kind": "spd", "matrix": [[1, 0], [0, 1]]}'),
    ("mvee", "--points", "[[1, 0], [0, 1, 2]]"),
    ("helly-bodies", "--family", json.dumps({"bodies": [json.loads(SQUARE_BODY)],
                                             "radii": ["wide"]})),
    ("tight-span", "--metric", '{"d": [[0, 1], [2, 0]]}'),
    ("extremal", "--metric", METRIC_2, "--f", "[0.25, 0.25]"),
    ("obstruction", "--n", "13"),
    ("campaign", "--suite", "apartment", "--seed", "-1"),
], ids=["dist-missing-weights", "join-mixed-p", "common-basis-singular",
        "helly-na-zero-denominator", "ball-negative-radius", "helly-building-no-radii",
        "body-dist-unknown-kind", "john-ellipsoid", "mvee-ragged", "helly-bodies-word-radius",
        "tight-span-asymmetric", "extremal-inadmissible", "obstruction-n13",
        "campaign-negative-seed"])
def test_every_subcommand_refuses_a_malformed_argument(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "") and err.count("\n") == 1
    assert json.loads(err)["error"] == "usage"


@pytest.mark.parametrize("metric", [
    '{"d": [[0.0, 3e-10, 1e-10], [3e-10, 0.0, 1e-10], [1e-10, 1e-10, 0.0]]}',
    '{"d": [[0.0, 1e-10], [3e-10, 0.0]]}',
    '{"d": [[0, true], [true, 0]]}',
], ids=["triangle-3e-10", "asymmetric-2e-10", "boolean"])
@pytest.mark.parametrize("subcommand", ["tight-span", "extremal"])
def test_a_float_metric_off_by_any_amount_is_refused(capsys, subcommand, metric):
    # float entries are read as the binary rationals they denote, and the
    # axioms are checked exactly, with no tolerance
    f = json.dumps([1] * len(json.loads(metric)["d"]))
    argv = ("tight-span", "--metric", metric) if subcommand == "tight-span" else (
        "extremal", "--metric", metric, "--f", f)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "") and err.count("\n") == 1
    assert json.loads(err)["error"] == "usage"


# -- fuzzed bodies, metrics, functions and points --

def _nest(depth):
    return [] if depth == 0 else [_nest(depth - 1)]


# marker strings that _fuzz_text swaps for JSON text json.dumps cannot write
_RAW = {"<5000 digits>": HUGE, "<1e400>": "1e400", "<50000 deep>": DEEP}
_BAD = st.one_of(_ENTRY, st.sampled_from(
    [10 ** 400, -10 ** 400, float("nan"), [], {}, [[]], _nest(300), *_RAW]))


def _fuzz_text(doc):
    text = json.dumps(doc)
    for marker, raw in _RAW.items():
        text = text.replace(json.dumps(marker), raw)
    return text


def _nodes(doc, path=()):
    yield path
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, child in items:
        yield from _nodes(child, path + (key,))


@st.composite
def _defective(draw, doc):
    """A deep copy of the well-formed `doc` with at most one defect: a node
    replaced by a bad value, or a dict entry deleted."""
    doc = json.loads(json.dumps(doc))
    defect = draw(st.sampled_from([None, None, "replace", "replace", "delete"]))
    if defect is None:
        return doc
    path = draw(st.sampled_from(list(_nodes(doc))))
    if not path:
        return draw(_BAD)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if defect == "delete" and isinstance(parent, dict):
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(_BAD)
    return doc


_BODIES = [
    body_to_json(PolyNorm.from_vertices([[1, 1], [1, -1]])),
    body_to_json(PolyNorm.from_vertices([[2, 1], [0, 1], [1, -1]])),
    body_to_json(PolyNorm.from_vertices(np.eye(3))),
    {"kind": "spd", "matrix": [[1.2, 0.1], [0.1, 0.9]]},
    {"kind": "spd", "matrix": [[2, 0, 0], [0, 1, 0], [0, 0, 3]]},
    {"kind": "meet", "parts": [body_to_json(PolyNorm.from_vertices([[1, 1], [1, -1]]))],
     "log_scales": [0.5]},
]
_fuzzed_body = st.sampled_from(_BODIES).flatmap(_defective)


@given(a=_fuzzed_body, b=_fuzzed_body)
@_FUZZ
def test_fuzzed_bodies_end_in_one_document(a, b):
    _ends_in_one_document(("body-dist", "--a", _fuzz_text(a), "--b", _fuzz_text(b)), (0, 2))
    _ends_in_one_document(("john", "--body", _fuzz_text(a)), (0, 2))


@given(family=st.sampled_from([[_BODIES[0], _BODIES[1]], [_BODIES[0], _BODIES[3]],
                               [_BODIES[2], _BODIES[4], _BODIES[2]]]).flatmap(
    lambda bodies: _defective({"bodies": bodies, "radii": [1.5] * len(bodies)})))
@_FUZZ
def test_fuzzed_helly_bodies_family_ends_in_one_document(family):
    # exit 1 is a pairwise-radius violation, reported with its payload
    _ends_in_one_document(("helly-bodies", "--family", _fuzz_text(family)), (0, 1, 2))


_METRICS = [
    {"d": [[0, 1], [1, 0]]},
    {"labels": ["a", "b", "c"], "d": [[0, 3, 4], [3, 0, 5], [4, 5, 0]]},
    {"d": [[0, 0.5, 1.25], [0.5, 0, 1.0], [1.25, 1.0, 0]]},
    {"d": [[0, 3, 4, 5], [3, 0, 5, 4], [4, 5, 0, 3], [5, 4, 3, 0]]},
]


@given(pair=st.sampled_from(_METRICS).flatmap(lambda m: st.tuples(
    _defective(m), _defective([max(row) for row in m["d"]]))))
@_FUZZ
def test_fuzzed_metric_and_function_end_in_one_document(pair):
    metric, f = map(_fuzz_text, pair)
    _ends_in_one_document(("tight-span", "--metric", metric), (0, 2))
    _ends_in_one_document(("extremal", "--metric", metric, "--f", f), (0, 2))


@given(points=st.sampled_from([
    [[1, 1], [1, -1]],
    {"points": [[3, 0], [0, 0.5], [1, 1]]},
    [[1, 0, 0], [0, 2, 0], [0, 0, 1], [1, 1, 1]],
]).flatmap(_defective))
@_FUZZ
def test_fuzzed_points_end_in_one_document(points):
    _ends_in_one_document(("mvee", "--points", _fuzz_text(points)), (0, 2))


@pytest.mark.parametrize("points", ["[3]", '{"points": 2.0}', "[1, 2]", "5"])
def test_mvee_refuses_anything_but_a_list_of_vectors(capsys, points):
    code, out, err = run_cli(capsys, "mvee", "--points", points)
    assert (code, out) == (2, "")
    assert json.loads(err)["message"] == "MVEE points must be a nonempty list of vectors"


def test_an_argument_that_parses_as_json_is_never_a_path(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "0").write_text("[[1, 0], [0, 1]]")
    code, out, err = run_cli(capsys, "mvee", "--points", "0")
    assert (code, out) == (2, "")  # the scalar 0, not the file named 0
    assert json.loads(err)["message"] == "MVEE points must be a nonempty list of vectors"
    code, out, _ = run_cli(capsys, "mvee", "--points", "./0")
    assert code == 0 and json.loads(out)["ellipsoid"]["kind"] == "spd"
    code, out, err = run_cli(capsys, "mvee", "--points", "missing.json")
    assert (code, out) == (2, "")
    assert json.loads(err)["message"] == (
        "bad JSON for --points (no such file): JSONDecodeError: Expecting value: line 1 column 1 (char 0)")


@pytest.mark.parametrize("doc, message", [
    ('{"d": [[0, 1], [1, 0]]', "bad JSON for --metric: JSONDecodeError: Expecting ',' delimiter: "
                               "line 1 column 23 (char 22)"),
    ("[" * 300, "bad JSON for --metric: JSONDecodeError: Expecting value: line 1 column 301 (char 300)"),
    ("x" * 300, "bad JSON for --metric (no such file): JSONDecodeError: Expecting value: "
                "line 1 column 1 (char 0)"),
], ids=["unclosed", "long-json", "long-name"])
def test_malformed_inline_json_reports_its_position(capsys, doc, message):
    code, out, err = run_cli(capsys, "tight-span", "--metric", doc)
    assert (code, out) == (2, "")
    assert json.loads(err)["message"] == message


@pytest.mark.parametrize("argv, message", [
    (("body-dist", "--a", SQUARE_BODY, "--b",
      '{"kind": "polytope", "facets": [{"b": 1}], "vertices": [[1, 0]]}'),
     "bad body JSON: missing key 'a'"),
    (("tight-span", "--metric", '{"dist": [[0]]}'), "bad FiniteMetric JSON: missing key 'd'"),
    (("helly-na", "--family", json.dumps({"norms": [json.loads(STD)]})),
     "bad family JSON: missing key 'radii'"),
    (("dist", "--a", STD, "--b", '{"p": 2, "basis": [["1", "0"], ["0", "1"]]}'),
     "bad DiagNorm JSON: missing key 'weights'"),
], ids=["body", "metric", "family", "norm"])
def test_a_missing_key_is_named_as_missing(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert json.loads(err)["message"] == message
