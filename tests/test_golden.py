"""Byte identity of the exact-side CLI payloads.

Each digest is the sha256 of one subcommand's stdout in a fresh process,
recorded from the Fraction-based implementation that preceded the integer
core.  Canonical keys, their order, norms and distances must all print the
same bytes, with these digests unedited, in whatever order the tests run:
a payload depends only on its arguments, never on earlier calls in the
process.  The two ball payloads and the exhaustive witness were re-recorded
once, when every vertex but a center came to be printed in its own Hermite
basis; the digests of their (depth, key) lists and of the witness's key,
recorded before that change, guard the vertex sets unedited.  The ball
payloads were re-recorded again at ball schema version 2, when every row
but the center's came to print its key alone, with no norm.
"""

import hashlib
import json
from fractions import Fraction

import pytest

import helpers
from normspace import DiagNorm, LatticeVertex, PAdicContext, gi_distance, random_vertex
from normspace.cli import main


def _ball_args(seed, n, p, r):
    center = random_vertex(seed, 2, PAdicContext(p), n)
    return ("ball", "--center", json.dumps(center.to_json()), "--radius", str(r))


def _helly_na_args():
    rng = helpers.rng_for(77)
    ctx = PAdicContext(3)
    family = [helpers.random_diag_norm(rng, ctx, 3) for _ in range(6)]
    dmax = [max(gi_distance(a, b) for b in family) for a in family]
    radii = [str(d / 2 + Fraction(1 + s, 7)) for s, d in enumerate(dmax)]
    doc = {"norms": [eta.to_json() for eta in family], "radii": radii}
    return ("helly-na", "--family", json.dumps(doc))


def _join_args():
    """Three norms whose bases carry p-power column scalings: every pairwise
    join pivots on transitions with spread valuations."""
    rng = helpers.rng_for(78)
    ctx = PAdicContext(3)
    norms = [helpers.nasty_norm(rng, ctx, 3) for _ in range(3)]
    return ("join", "--inputs", *(json.dumps(eta.to_json()) for eta in norms))


def _common_basis_args():
    rng = helpers.rng_for(79)
    ctx = PAdicContext(2)
    a, b = (helpers.nasty_norm(rng, ctx, 4) for _ in range(2))
    return ("common-basis", "--a", json.dumps(a.to_json()), "--b", json.dumps(b.to_json()))


def _helly_building_args():
    centers = [random_vertex(90 + k, 2, PAdicContext(2), 3) for k in range(3)]
    dmax = max(gi_distance(a.norm, b.norm) for a in centers for b in centers)
    doc = {"centers": [c.to_json() for c in centers], "radii": [int(dmax)] * 3}
    return ("helly-building", "--family", json.dumps(doc))


def _helly_building_exhaustive_args():
    """The witness is the least of 37 common vertices in the rational order
    of Hermite forms; plain integer-tuple order would pick another one."""
    centers = [random_vertex(40 + k, 2, PAdicContext(2), 2) for k in range(3)]
    doc = {"centers": [c.to_json() for c in centers], "radii": [2, 2, 2]}
    return ("helly-building", "--mode", "exhaustive", "--family", json.dumps(doc))


def _tight_span_args():
    """An exact 5-point metric whose tight span has 15 vertices, half-integer
    ones among them; its digest was recorded from the subset-search
    enumeration that preceded the double description."""
    d = [[0, 7, 9, 4, 6], [7, 0, 5, 8, 3], [9, 5, 0, 6, 7], [4, 8, 6, 0, 5], [6, 3, 7, 5, 0]]
    return ("tight-span", "--metric", json.dumps({"d": d}))


GOLDEN = {
    "ball-n3p2r1": (
        lambda: _ball_args(11, 3, 2, 1),
        "44bb5da590b84149a5be61c13c271b5b9fbcaa30c4f197b202244ac162efbbfa",
    ),
    "ball-n2p3r2": (
        lambda: _ball_args(12, 2, 3, 2),
        "684b53770ff0cb46670f25374433abec1b6b971bf16876a1dd8b0c453b2eca5b",
    ),
    "helly-na-6": (
        _helly_na_args,
        "04a27f4cf54f4e4af2fdddd92434e39e1b517c8e5bb0283a022a189cbf190a0a",
    ),
    "join-3": (
        _join_args,
        "e4cc1ff10aeb428aee4372f000efa7a4bcc8bbea7cc67f44d16a24b9dbed5dd0",
    ),
    "common-basis-n4p2": (
        _common_basis_args,
        "93f1f9644cfa563abf61470e34cc0625899d8945c2537b3643b1d8fbe24b332d",
    ),
    "helly-building-witness": (
        _helly_building_args,
        "54e479c19771bc5f0539bcf16f53f6151d03cc880d2a5b939be16a460b65fba4",
    ),
    "helly-building-exhaustive": (
        _helly_building_exhaustive_args,
        "b8613802b1d8e023074dd6403ff1771b47aaaad014dc9ce46add07a3fc5f0db5",
    ),
    "tight-span-exact5": (
        _tight_span_args,
        "e91e39f9bff0b90d3b061700f68e7f452c898e6a3c7d65d53f091d26478a146a",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_payload_bytes_are_pinned(capsys, name):
    make_args, digest = GOLDEN[name]
    assert main(list(make_args())) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _stdout(capsys, args):
    assert main(list(args)) == 0
    return capsys.readouterr().out


# sha256 of the JSON list of [depth, key] rows of a ball, and of the key of
# the exhaustive witness, as the BFS in the center's basis printed them
VERTEX_SETS = {
    "ball-n3p2r1": "44b67be43d75ed212837f2050c699b380bab1c08105e1309c8e7f7e0c71936aa",
    "ball-n2p3r2": "09a0b736323e5487e3d401580821e001b02f4d6c23b18a3ccf9f552228bf5385",
}
EXHAUSTIVE_WITNESS_KEY = "2bfe64f29f906344e8a2bda51016ab80fda947d3eee67b19cd1761da90105a39"


@pytest.mark.parametrize("name", sorted(VERTEX_SETS))
def test_ball_vertex_sets_are_pinned(capsys, name):
    """The vertices, their depths and their order, whatever basis prints them."""
    rows = json.loads(_stdout(capsys, GOLDEN[name][0]()))["vertices"]
    pairs = json.dumps([[row["depth"], row["key"]] for row in rows])
    assert hashlib.sha256(pairs.encode()).hexdigest() == VERTEX_SETS[name]


def test_the_exhaustive_witness_key_is_pinned(capsys):
    doc = json.loads(_stdout(capsys, _helly_building_exhaustive_args()))
    key = LatticeVertex.from_json(doc["witness"]).key_string
    assert hashlib.sha256(key.encode()).hexdigest() == EXHAUSTIVE_WITNESS_KEY


def test_every_printed_norm_has_its_row_key(capsys):
    """Centers in bases that are not Hermite forms and with nonzero weights,
    in dimensions 1 to 3: the center row's norm is a vertex with the row's
    key, and each row's key reads back as a vertex with that key, at the
    row's depth from the center."""
    for seed, n, p, r in ((5, 1, 3, 3), (6, 2, 2, 2), (7, 3, 2, 1), (8, 3, 3, 1)):
        center = random_vertex(seed, 2, PAdicContext(p), n).norm
        center = DiagNorm(center.ctx, center.basis, [seed % 3 - 1] * n)
        rows = json.loads(_stdout(capsys, ("ball", "--center", json.dumps(center.to_json()),
                                           "--radius", str(r))))["vertices"]
        assert len(rows) > 1 and rows[0]["norm"] == center.to_json()
        assert LatticeVertex.from_json(rows[0]["norm"]).key_string == rows[0]["key"]
        for row in rows:
            vertex = LatticeVertex.from_json(row["key"])
            assert vertex.key_string == row["key"]
            assert gi_distance(center, vertex.norm) == row["depth"]
            assert "norm" not in row or row is rows[0]


def test_ball_bytes_do_not_depend_on_earlier_balls(capsys):
    """One lattice in two bases, one process: each ball prints its
    fresh-process bytes, whichever basis asked about the lattice first, and
    the two differ only in the center's row: every other vertex is printed
    in its own Hermite basis."""
    c = random_vertex(12, 2, PAdicContext(2), 2).norm
    other = DiagNorm(c.ctx, [[row[0], row[0] + row[1]] for row in c.basis], c.weights)
    fresh = {
        "other": "60f43264495a2dcd8cb469bd63cf937a73b923a59d4bc000e2b10316137ace21",
        "c": "9a00a406c1c913b89a60d9c18265c3616d257d67f8e33882f33d677807c1439d",
    }
    rows = {}
    for name, norm in (("other", other), ("c", c), ("other", other)):
        out = _stdout(capsys, ["ball", "--center", json.dumps(norm.to_json()), "--radius", "1"])
        assert hashlib.sha256(out.encode()).hexdigest() == fresh[name], name
        rows[name] = json.loads(out)["vertices"]
    assert rows["c"][0] != rows["other"][0] and rows["c"][1:] == rows["other"][1:]


OBSTRUCTION = {
    3: "02165ed0aa999e371f3ed19ac27b2c8f828e57c3735a82b8e83314c817cd8cf5",
    4: "5630fc15dbfdcffc724b05d5577e2e83fe0e7691c5577e600b1dd940ded19d1b",
    5: "372466adf712edc92a1a2f22800ba214b212ec1db35b84a608e517a47435298f",
    6: "5e80210d629c766fcb8c63f718b7feba7ded8cc23f4090dea81915422ff58608",
    7: "63cbeda4c3747f4a28e0fc6338487bccb87deb21bda03b0a91543b529be9076f",
    8: "a1836bcecf75cef4a2c74cf0325fa3466ebe2893c122806ae782140c9b1c82e7",
    9: "83c21784f154ff8916a0a4b0ec294dadff9fcb5ee9b82934377463e8e37aa2ff",
    10: "bb2a950189895870065f48db78d48a4bec5ebad36a7b61c650893da777fdf83b",
    11: "bda9e2ddf645fe0e86190b3e68e365970271d90495f775602725c5d9122d5b6c",
    12: "e85e285eac05747c4aebf1781f5d14ef8cccefa91e4276ab43cd0a901c112b52",
}


@pytest.mark.parametrize("n", sorted(OBSTRUCTION))
def test_obstruction_bytes_are_pinned(capsys, n):
    """Every `obstruction --n` report, the certificate of n = 4 included."""
    assert main(["obstruction", "--n", str(n)]) == (1 if n == 4 else 0)
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == OBSTRUCTION[n]
