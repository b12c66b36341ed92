"""Command-line front end.

Every subcommand wraps exactly one library operation and emits a single
JSON document (schema_version included) on stdout.  Exit codes: 0 success /
property holds; 1 property violated, verdict "exists", or counterexample
(payload still emitted); 2 usage or parse error; 3 infeasible scale; 4 any
other failure, one that is not the input's fault (such as a broken exact hull
certificate).

Determinism contract: identical arguments (including --seed) produce
byte-identical output.  Seeded randomness uses numpy's PCG64, instance i of
a campaign drawing from SeedSequence([seed, i]).  Output is strict JSON: a
non-finite number in a payload is an internal error (exit 4), never NaN.

Import cost: `import normspace.cli` loads neither numpy nor
`normspace.bodies`.  The handlers of body-dist, john, mvee and helly-bodies,
and the campaign helpers, import them when they run, so the exact
subcommands (dist, join, common-basis, helly-na, ball, helly-building,
tight-span, extremal, obstruction) run in a fresh process without numpy.
"""

import argparse
import errno
import functools
import json
import math
import sys
from fractions import Fraction

from . import building as bld
from . import obstruction as obs
from . import tightspan as ts
from . import valued as val
from .errors import (MALFORMED, InfeasibleScaleError, PairwiseRadiusError, UsageError,
                     malformed)

SCHEMA_VERSION = 1
# helly-bodies results, whose witness became the meet of the balls for
# families with an ellipsoid at version 2 and for every family at version 3
HELLY_BODIES_SCHEMA_VERSION = 3
BALL_SCHEMA_VERSION = 2  # ball results: from version 2 only the center's row has a norm

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_SCALE = 3
EXIT_INTERNAL = 4


def _load_json_arg(value, what="input"):
    """An argument that parses as JSON is inline JSON; anything else is the
    path of a JSON file, unless it starts like JSON or names no file, when
    its JSON error, with the position, is the one reported."""
    try:
        return json.loads(value)
    except MALFORMED as exc:
        bad = exc
    if isinstance(bad, json.JSONDecodeError) and not value.lstrip().startswith(("{", "[")):
        try:
            with open(value, "r", encoding="utf-8") as fh:
                return json.loads(fh.read())
        except (OSError, *MALFORMED) as exc:
            if getattr(exc, "errno", None) not in (errno.ENOENT, errno.ENAMETOOLONG):
                raise malformed(f"cannot read {what} file {value!r}", exc) from exc
            what += " (no such file)"
    raise malformed(f"bad JSON for {what}", bad) from bad


def _emit(doc, stream=None):
    stream = stream or sys.stdout
    stream.write(json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n")


def _emit_csv(rows, header, stream=None):
    stream = stream or sys.stdout
    stream.write(",".join(header) + "\n")
    for row in rows:
        stream.write(",".join(str(x) for x in row) + "\n")


def _norm_arg(value, what="norm"):
    return val.DiagNorm.from_json(_load_json_arg(value, what))


def _family(ns, key, read_item, read_radius):
    """The items under `key` of the --family document, and its radii read
    from their JSON text, so that an exact reader takes 0.1 as 1/10."""
    fam = _load_json_arg(ns.family, "--family")
    try:
        return [read_item(x) for x in fam[key]], [read_radius(str(r)) for r in fam["radii"]]
    except MALFORMED as exc:
        raise malformed("bad family JSON", exc) from exc


def _check_p(norms, p):
    if p is not None:
        for eta in norms:
            if eta.ctx.p != p:
                raise UsageError(f"--p {p} does not match the input (p={eta.ctx.p})")


# ---------------------------------------------------------------------------
# subcommand handlers (return (exit_code, document))
# ---------------------------------------------------------------------------

def _cmd_dist(ns):
    a = _norm_arg(ns.a, "--a")
    b = _norm_arg(ns.b, "--b")
    _check_p((a, b), ns.p)
    d = val.gi_distance(a, b)
    return EXIT_OK, {"schema_version": SCHEMA_VERSION, "distance": str(d)}


def _cmd_join(ns):
    norms = [_norm_arg(x) for x in ns.inputs]
    theta = val.join_norms(norms)
    return EXIT_OK, {"schema_version": SCHEMA_VERSION, "norm": theta.to_json()}


def _cmd_common_basis(ns):
    a = _norm_arg(ns.a, "--a")
    b = _norm_arg(ns.b, "--b")
    theta, thetap = val.common_adapted_basis(a, b)
    return EXIT_OK, {
        "schema_version": SCHEMA_VERSION,
        "basis": theta.to_json()["basis"],
        "weights_a": [str(x) for x in theta.weights],
        "weights_b": [str(x) for x in thetap.weights],
        "distance": str(max(abs(x - y) for x, y in zip(theta.weights, thetap.weights))),
    }


def _cmd_helly_na(ns):
    norms, radii = _family(ns, "norms", val.DiagNorm.from_json, Fraction)
    theta, dists = val.helly_witness_na(norms, radii)
    return EXIT_OK, {
        "schema_version": SCHEMA_VERSION,
        "witness": theta.to_json(),
        "distances": [str(d) for d in dists],
    }


def _cmd_ball(ns):
    center = bld.LatticeVertex.from_json(_load_json_arg(ns.center, "--center"))
    rows = sorted((depth, v.key_string) for v, depth in bld.ball_bfs(center, ns.radius).values())
    vertices = [{"depth": depth, "key": key} for depth, key in rows]
    vertices[0]["norm"] = center.to_json()  # the one vertex at depth 0
    return EXIT_OK, {"schema_version": BALL_SCHEMA_VERSION, "count": len(rows),
                     "vertices": vertices}


def _cmd_helly_building(ns):
    centers, radii = _family(ns, "centers", bld.LatticeVertex.from_json, Fraction)
    cert = bld.helly_check_building(list(zip(centers, radii)), mode=ns.mode)
    code = EXIT_OK if cert.outcome == "witness" else EXIT_VIOLATION
    return code, cert.to_json()


def _cmd_body_dist(ns):
    from . import bodies as bod

    a = bod.body_from_json(_load_json_arg(ns.a, "--a"))
    b = bod.body_from_json(_load_json_arg(ns.b, "--b"))
    return EXIT_OK, {
        "schema_version": SCHEMA_VERSION,
        "distance": bod.gi_distance_bodies(a, b),
    }


def _cmd_john(ns):
    from . import bodies as bod

    john = bod.john_details(bod.body_from_json(_load_json_arg(ns.body, "--body")))
    return EXIT_OK, {
        "schema_version": SCHEMA_VERSION,
        "ellipsoid": bod.body_to_json(john["ellipsoid"]),
        "distance": john["distance"],
        "bound": john["bound"],
        "bound_check": bool(john["distance"] <= john["bound"]),
    }


def _cmd_mvee(ns):
    import numpy as np

    from . import bodies as bod

    try:
        obj = bod.refuse_booleans(_load_json_arg(ns.points, "--points"))
        pts = np.array(obj["points"] if isinstance(obj, dict) else obj, dtype=float)
    except MALFORMED as exc:
        raise malformed("bad points JSON", exc) from exc
    ell, info = bod.mvee_certified(pts)
    return EXIT_OK, {
        "schema_version": SCHEMA_VERSION,
        "ellipsoid": bod.body_to_json(ell),
        "epsilon": info["eps"],
        "iterations": info["iterations"],
    }


def _cmd_helly_bodies(ns):
    from . import bodies as bod

    family, radii = _family(ns, "bodies", bod.body_from_json, float)
    details = bod.coarse_helly_details(family, radii)
    return EXIT_OK, {
        "schema_version": HELLY_BODIES_SCHEMA_VERSION,
        "witness": bod.body_to_json(details["witness"]),
        "distances": details["distances"],
        "allowed": details["allowed"],
    }


def _cmd_tight_span(ns):
    space = ts.FiniteMetric.from_json(_load_json_arg(ns.metric, "--metric"))
    verts = ts.tight_span_vertices(space)
    return EXIT_OK, {
        "schema_version": SCHEMA_VERSION,
        "exact_mode": space.exact,
        "vertices": [[float(x) for x in f] for f in verts],
    }


def _cmd_extremal(ns):
    space = ts.FiniteMetric.from_json(_load_json_arg(ns.metric, "--metric"))
    f = _load_json_arg(ns.f, "--f")
    closure = ts.extremal_closure(f, space)
    return EXIT_OK, {
        "schema_version": SCHEMA_VERSION,
        "closure": [float(x) for x in closure],
        "is_extremal": True,  # extremal_closure certified it
    }


def _cmd_obstruction(ns):
    report = obs.injective_hom_decision(ns.n)
    code = EXIT_VIOLATION if report.verdict == "exists" else EXIT_OK
    return code, report.to_json()


# ---------------------------------------------------------------------------
# campaign: seeded batches of property checks
# ---------------------------------------------------------------------------

def _rng(seed, index):
    import numpy as np

    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, index])))


def _random_norm(rng, ctx, n):
    basis = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(5):
        i, j = rng.integers(0, n, size=2)
        if i == j:
            continue
        k = int(rng.integers(-2, 3))
        for r in range(n):
            basis[r][i] += k * basis[r][j]
    weights = [Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 4))) for _ in range(n)]
    return val.DiagNorm(ctx, basis, weights)


def _random_polygon(rng, k=None):
    import numpy as np

    from . import bodies as bod

    k = k or int(rng.integers(4, 9))
    angles = np.sort(rng.uniform(0, math.pi, size=k))
    radii = rng.uniform(0.5, 2.0, size=k)
    pts = np.stack([radii * np.cos(angles), radii * np.sin(angles)], axis=1)
    return bod.PolyNorm.from_vertices(pts)


def _random_spd(rng, n):
    import numpy as np

    from . import bodies as bod

    g = rng.standard_normal((n, n))
    return bod.SpdNorm(g.T @ g + 0.25 * np.eye(n))


def _campaign_apartment(rng):
    ctx = val.PAdicContext(int([2, 3, 5][rng.integers(0, 3)]))
    n = int(rng.integers(2, 5))
    eta = _random_norm(rng, ctx, n)
    etap = val.DiagNorm(ctx, eta.basis, [Fraction(int(rng.integers(-6, 7)), 2) for _ in range(n)])
    gap = max(abs(a - b) for a, b in zip(eta.weights, etap.weights))
    return val.gi_distance(eta, etap) == gap


def _campaign_helly_na(rng):
    ctx = val.PAdicContext(2)
    fam = [_random_norm(rng, ctx, 2) for _ in range(int(rng.integers(3, 7)))]
    dmax = [max(val.gi_distance(a, b) for b in fam) for a in fam]
    radii = [d / 2 + Fraction(1, 5) for d in dmax]
    _, dists = val.helly_witness_na(fam, radii)
    return all(d <= r for d, r in zip(dists, radii))


def _campaign_john(rng):
    from . import bodies as bod

    john = bod.john_details(_random_polygon(rng))
    return john["distance"] <= john["bound"]


def _campaign_spd_formula(rng):
    from . import bodies as bod

    a = _random_spd(rng, 2)
    b = _random_spd(rng, 2)
    d = bod.gi_distance_bodies(a, b)
    s = bod.sampled_sup_ratio(a, b, 2000, int(rng.integers(0, 2 ** 32)))
    return s <= d + 1e-9 and d - s <= 0.05


def _distance_matrix(bodies):
    """gi_distance_bodies on each unordered pair, with a zero diagonal:
    gi_distance_bodies(K, K) may not be 0.0."""
    from . import bodies as bod

    k = len(bodies)
    dmat = [[0.0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            dmat[i][j] = dmat[j][i] = bod.gi_distance_bodies(bodies[i], bodies[j])
    return dmat


def _campaign_helly_bodies(rng):
    from . import bodies as bod

    fam = [_random_polygon(rng) for _ in range(int(rng.integers(3, 6)))]
    radii = [max(row) / 2 + 0.05 for row in _distance_matrix(fam)]
    details = bod.coarse_helly_details(fam, radii)
    return all(
        d <= allowed for d, allowed in zip(details["distances"], details["allowed"])
    )


def _campaign_tight_span(rng):
    dmat = _distance_matrix([_random_spd(rng, 2) for _ in range(4)])
    space = ts.FiniteMetric(dmat)
    start = [max(row) for row in dmat]
    ts.extremal_closure(start, space)  # raises unless the closure is extremal
    return True


def _campaign_building(rng):
    ctx = val.PAdicContext(2)
    v = bld.random_vertex(int(rng.integers(0, 2 ** 32)), 2, ctx, 2)
    ball = bld.ball_bfs(v, 1)  # depth audit runs internally
    return len(ball) == 15


CAMPAIGN_SUITES = {
    "apartment": _campaign_apartment,
    "helly-na": _campaign_helly_na,
    "john": _campaign_john,
    "spd-formula": _campaign_spd_formula,
    "helly-bodies": _campaign_helly_bodies,
    "tight-span": _campaign_tight_span,
    "building": _campaign_building,
}


def _cmd_campaign(ns):
    if not 0 <= ns.seed < 2 ** 64:
        raise UsageError("--seed must fit in an unsigned 64-bit integer")
    if ns.count < 0:
        raise UsageError("--count must be nonnegative")
    if ns.suite not in CAMPAIGN_SUITES:
        raise UsageError(
            f"unknown suite {ns.suite!r}; choose from {sorted(CAMPAIGN_SUITES)}"
        )
    check = CAMPAIGN_SUITES[ns.suite]
    failures = []
    for i in range(ns.count):
        try:
            if check(_rng(ns.seed, i)):
                continue
            failures.append({"instance": i, "kind": "violated", "type": None,
                             "message": "the property does not hold"})
        except Exception as exc:  # a crash is recorded, never counted as a pass
            failures.append({"instance": i, "kind": "error",
                             "type": type(exc).__name__, "message": str(exc)})
    doc = {
        "schema_version": SCHEMA_VERSION,
        "suite": ns.suite,
        "seed": ns.seed,
        "instances": ns.count,
        "passed": ns.count - len(failures),
        "failures": failures,
    }
    code = EXIT_OK if not failures else EXIT_VIOLATION
    if ns.format == "csv":
        failed = {f["instance"] for f in failures}
        return code, doc, [(i, int(i not in failed)) for i in range(ns.count)]
    return code, doc


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """argparse errors are usage errors: exit 2 with the JSON document."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


@functools.cache
def build_parser():
    """The argument parser, built on first use and shared by later calls."""
    parser = _Parser(
        prog="normspace",
        description="Goldman-Iwahori geometry: norms, buildings, bodies, "
        "tight spans, obstructions",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("dist", help="Goldman-Iwahori distance of two ultrametric norms")
    p.add_argument("--a", required=True, help="DiagNorm JSON (inline or path)")
    p.add_argument("--b", required=True, help="DiagNorm JSON (inline or path)")
    p.add_argument("--p", type=int, default=None, help="expected prime (validated)")
    p.set_defaults(func=_cmd_dist)

    p = sub.add_parser("join", help="least upper bound of ultrametric norms")
    p.add_argument("--inputs", nargs="+", required=True, help="DiagNorm JSONs")
    p.set_defaults(func=_cmd_join)

    p = sub.add_parser("common-basis", help="common adapted basis of two norms")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.set_defaults(func=_cmd_common_basis)

    p = sub.add_parser("helly-na", help="ball-family witness for ultrametric norms")
    p.add_argument("--family", required=True, help='{"norms": [...], "radii": [...]}')
    p.set_defaults(func=_cmd_helly_na)

    p = sub.add_parser("ball", help="BFS ball in the thickening graph")
    p.add_argument("--center", required=True, help="vertex norm JSON or key")
    p.add_argument("--radius", type=int, required=True)
    p.set_defaults(func=_cmd_ball)

    p = sub.add_parser("helly-building", help="Helly check for building balls")
    p.add_argument("--family", required=True, help='{"centers": [...], "radii": [...]}')
    p.add_argument("--mode", choices=["witness", "exhaustive"], default="witness")
    p.set_defaults(func=_cmd_helly_building)

    p = sub.add_parser("body-dist", help="distance between two convex bodies")
    p.add_argument("--a", required=True, help="body JSON")
    p.add_argument("--b", required=True, help="body JSON")
    p.set_defaults(func=_cmd_body_dist)

    p = sub.add_parser("john", help="inscribed John ellipsoid of a polytope")
    p.add_argument("--body", required=True, help="polytope body JSON")
    p.set_defaults(func=_cmd_john)

    p = sub.add_parser("mvee", help="minimum-volume enclosing ellipsoid")
    p.add_argument("--points", required=True, help='[[x, y], ...] or {"points": ...}')
    p.set_defaults(func=_cmd_mvee)

    p = sub.add_parser("helly-bodies", help="intersection witness for body balls")
    p.add_argument("--family", required=True, help='{"bodies": [...], "radii": [...]}')
    p.set_defaults(func=_cmd_helly_bodies)

    p = sub.add_parser("tight-span", help="tight span vertices of a finite metric")
    p.add_argument("--metric", required=True, help="FiniteMetric JSON")
    p.set_defaults(func=_cmd_tight_span)

    p = sub.add_parser("extremal", help="extremal closure of an admissible function")
    p.add_argument("--metric", required=True)
    p.add_argument("--f", required=True, help="JSON array of values")
    p.set_defaults(func=_cmd_extremal)

    p = sub.add_parser("obstruction", help="A_n into the cube isometry group")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_obstruction)

    p = sub.add_parser("campaign", help="seeded batches of property checks")
    p.add_argument("--suite", required=True, help=f"one of {sorted(CAMPAIGN_SUITES)}")
    p.add_argument("--count", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=_cmd_campaign)

    return parser


def main(argv=None):
    try:
        ns = build_parser().parse_args(argv)
        out = ns.func(ns)
        if len(out) == 3:
            code, doc, rows = out
            _emit_csv(rows, ("instance", "passed"))
            _emit(doc, sys.stderr)
        else:
            code, doc = out
            _emit(doc)  # a non-finite number in doc raises before any output
        return code
    except PairwiseRadiusError as exc:
        _emit({
            "schema_version": SCHEMA_VERSION,
            "error": "pairwise-radius-violation",
            "pair": list(exc.pair),
            "gap": str(exc.gap),
        })
        return EXIT_VIOLATION
    except InfeasibleScaleError as exc:
        _emit({"schema_version": SCHEMA_VERSION, "error": "infeasible-scale",
               "message": str(exc)}, sys.stderr)
        return EXIT_SCALE
    except UsageError as exc:
        _emit({"schema_version": SCHEMA_VERSION, "error": "usage",
               "message": str(exc)}, sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # not the input's fault: a check or the program failed
        _emit({"schema_version": SCHEMA_VERSION, "error": "internal",
               "message": str(exc)}, sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
