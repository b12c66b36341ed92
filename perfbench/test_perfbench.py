"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

Corrupted results must count as failed ops, traced counts must repeat for
a seed, and the metric and workload names must match BENCHMARK.json.
"""

import copy
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import layers  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SEED = 7


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_names_match_the_spec():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == ["ball", "helly-na", "bodies-span"]
    assert list(workloads.WORKLOADS) == list(run.WORKLOADS) == ["ball", "helly-na", "bodies-span"]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert list(run.END_TO_END) == [
        "setup_s", "ops_per_s", "op_p50_ms", "op_tail_ms", "peak_rss_mb"]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.LAYER_METRICS
    assert spec["command"] == ["python3", "perfbench/run.py"]


def _subgroup_count(n, p):
    """Subgroups of (Z/p^2)^n, by closing subgroups under one more element."""
    m = p * p
    elements = [tuple((k // m ** i) % m for i in range(n)) for k in range(m ** n)]
    found = {frozenset([(0,) * n])}
    frontier = list(found)
    while frontier:
        grown = []
        for sub in frontier:
            for g in elements:
                if g in sub:
                    continue
                bigger = set(sub)
                multiple = g
                while multiple not in sub:
                    bigger.update(tuple((a + b) % m for a, b in zip(h, multiple)) for h in sub)
                    multiple = tuple((a + b) % m for a, b in zip(multiple, g))
                bigger = frozenset(bigger)
                if bigger not in found:
                    found.add(bigger)
                    grown.append(bigger)
        frontier = grown
    return len(found)


@pytest.mark.parametrize("n,p", [(2, 2), (2, 3), (3, 2)])
def test_pinned_unit_ball_sizes(n, p):
    # B(v, 1) holds one lattice per subgroup of p^-1 L / pL = (Z/p^2)^n
    assert workloads.BALL_SIZES[(n, p, 1)] == _subgroup_count(n, p)


def _op(workload, kind):
    return next(op for op in workloads.make_pass(workload, SEED) if op.kind == kind)


def _result(op):
    code, stdout, error, _ = measure.run_op(op)
    assert error is None
    return code, json.loads(stdout)


def _failed(op, code, doc):
    failures = []
    measure.verify([op], [(code, json.dumps(doc), None, 0.0)], failures)
    return len(failures) == 1


def _corrupt_ball(doc):
    doc["vertices"].pop()
    doc["count"] -= 1


def _deepen(doc):
    doc["vertices"][-1]["depth"] += 1


def _duplicate_key(doc):
    doc["vertices"][-1]["key"] = doc["vertices"][0]["key"]


def _raise_helly_distance(doc, op):
    doc["distances"][0] = str(Fraction(op.expect["radii"][0]) + Fraction(1, 7))


def _shrink_mvee(doc):
    doc["ellipsoid"]["matrix"] = [[2 * x for x in row] for row in doc["ellipsoid"]["matrix"]]


def _drop_kuratowski(doc, op):
    row = [float(x) for x in op.expect["d"][0]]
    doc["vertices"] = [f for f in doc["vertices"] if f != row]


def _lift_closure(doc):
    doc["closure"][0] += 0.5


CORRUPTIONS = [
    ("ball", "ball-n2p2r2", lambda doc, op: _corrupt_ball(doc)),
    ("ball", "ball-n2p3r1", lambda doc, op: doc["vertices"].pop()),
    ("ball", "ball-n2p2r1", lambda doc, op: _deepen(doc)),
    ("ball", "ball-n2p2r1", lambda doc, op: _duplicate_key(doc)),
    ("helly-na", "helly-na-p2n3k3", _raise_helly_distance),
    ("bodies-span", "john-2d", lambda doc, op: doc.update(bound_check=False)),
    ("bodies-span", "mvee-3d", lambda doc, op: _shrink_mvee(doc)),
    ("bodies-span", "helly-bodies-poly2d",
     lambda doc, op: doc["distances"].__setitem__(0, doc["allowed"][0] + 0.01)),
    ("bodies-span", "tight-span-float5", _drop_kuratowski),
    ("bodies-span", "extremal", lambda doc, op: _lift_closure(doc)),
]


@pytest.mark.parametrize("workload,kind,corrupt", CORRUPTIONS,
                         ids=[f"{k}-{i}" for i, (_, k, _) in enumerate(CORRUPTIONS)])
def test_corrupted_result_counts_as_failed(workload, kind, corrupt):
    op = _op(workload, kind)
    code, doc = _result(op)
    assert not _failed(op, code, doc)
    bad = copy.deepcopy(doc)
    corrupt(bad, op)
    assert _failed(op, code, bad)


def test_exact_tight_span_checked_exactly():
    op = _op("bodies-span", "tight-span-exact4")
    code, doc = _result(op)
    assert not _failed(op, code, doc)
    bad = copy.deepcopy(doc)
    bad["vertices"][0][0] += 2.0 ** -40  # below any float tolerance
    assert _failed(op, code, bad)


def test_raising_op_counts_as_failed_with_its_type(monkeypatch):
    op = _op("helly-na", "helly-na-p2n3k3")

    def broken(argv):
        raise ZeroDivisionError("boom")

    monkeypatch.setattr(measure.normspace.cli, "main", broken)
    failures = []
    measure.verify([op], [measure.run_op(op)], failures)
    assert failures == [{"kind": op.kind, "error": "ZeroDivisionError: boom"}]


def test_nonzero_exit_counts_as_failed():
    op = _op("helly-na", "helly-na-p2n3k3")
    assert _failed(op, 2, _result(op)[1])


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=600,
    )


def test_timed_run_reports_every_end_to_end_metric():
    proc = _bench("--workload", "helly-na", "--seed", str(SEED), "--seconds", "1")
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] > 0
    assert set(last["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in last["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat_for_a_seed(workload):
    runs = []
    for _ in range(2):
        proc = _bench("--workload", workload, "--seed", str(SEED), "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    assert set(runs[0]["metrics"]) == set(layers.LAYER_METRICS)
    assert runs[0]["correct"] and runs[1]["correct"]
    counts = [{k: r["metrics"][k]["value"] for k in layers.COUNT_METRICS} for r in runs]
    assert counts[0] == counts[1]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _bench("--workload", "ball", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
