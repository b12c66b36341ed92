"""Byte identity of the exact-side CLI payloads.

Each digest is the sha256 of one subcommand's stdout in a fresh process,
recorded from the Fraction-based implementation that preceded the integer
core.  Canonical keys, their order, norms and distances must all print the
same bytes, with these digests unedited, in whatever order the tests run:
a payload depends only on its arguments, never on earlier calls in the
process.
"""

import hashlib
import json
from fractions import Fraction

import pytest

import helpers
from normspace import DiagNorm, PAdicContext, gi_distance, random_vertex
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


GOLDEN = {
    "ball-n3p2r1": (
        lambda: _ball_args(11, 3, 2, 1),
        "1be74620dfd9d63a96d8e3abfa67661de11cb04f9f6cd6cdd7e98ad340c3d535",
    ),
    "ball-n2p3r2": (
        lambda: _ball_args(12, 2, 3, 2),
        "bd41ab32692c9a5d8d66b256a36338d59b8e7ae9d2e0565709bd06e59068cdb7",
    ),
    "helly-na-6": (
        _helly_na_args,
        "04a27f4cf54f4e4af2fdddd92434e39e1b517c8e5bb0283a022a189cbf190a0a",
    ),
    "helly-building-witness": (
        _helly_building_args,
        "54e479c19771bc5f0539bcf16f53f6151d03cc880d2a5b939be16a460b65fba4",
    ),
    "helly-building-exhaustive": (
        _helly_building_exhaustive_args,
        "d74c31f0f08187c056e306b61e8f8ac8571745666b981752ff1f4d71ef153c3b",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_payload_bytes_are_pinned(capsys, name):
    make_args, digest = GOLDEN[name]
    assert main(list(make_args())) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_ball_bytes_do_not_depend_on_earlier_balls(capsys):
    """One lattice in two bases, one process: each ball prints its
    fresh-process bytes, whichever basis asked about the lattice first."""
    c = random_vertex(12, 2, PAdicContext(2), 2).norm
    other = DiagNorm(c.ctx, [[row[0], row[0] + row[1]] for row in c.basis], c.weights)
    fresh = {
        "other": "815ad85a0076fa07776f937c79a4520d19ff0d05999bd6d23c923852a3d4e3ca",
        "c": "175e0b67bdbc205cffea1574c4a6f9221ee311a8c6d6da8d896412f599a1adc5",
    }
    for name, norm in (("other", other), ("c", c), ("other", other)):
        assert main(["ball", "--center", json.dumps(norm.to_json()), "--radius", "1"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == fresh[name], name


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
