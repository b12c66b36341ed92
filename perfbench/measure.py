"""The op loop of a workload process and its measurements.

``timed_run`` gives the end-to-end numbers of one run, ``traced_run`` the
per-layer numbers.  Ops go through ``normspace.cli.main(argv)`` in-process
with stdout captured, so an op's latency covers argument parsing, the
computation, the program's own certification and the JSON it emits.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import resource
import sys
import time

import numpy
import scipy

import layers
import normspace
import normspace.cli
import workloads
from normspace import _kernels, building

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# A run repeats its pass at least this often, so every op has a best of
# several latencies.
MIN_PASSES = 2

# The neighbour cache as the program defines it, kept before any tracing
# wrapper replaces the module binding.  Emptying it starts a new session:
# without that, later passes would hit on every lookup and an op's cost
# would depend on how many passes a run happens to reach.
NEIGHBORS = building.neighbors


def clear_cache():
    """Empty the neighbour cache; returns its (hits, misses) since the last clear."""
    info = getattr(NEIGHBORS, "cache_info", None)
    if info is None:
        return 0, 0
    stats = info()
    NEIGHBORS.cache_clear()
    return stats.hits, stats.misses


def run_op(op):
    """Run one op in-process; returns (exit code or None, stdout, error, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = normspace.cli.main(list(op.argv))
        error = None
    except SystemExit as exc:  # argparse rejects the arguments
        code, error = exc.code, None
    except Exception as exc:  # counted as a failed op, never swallowed silently
        code, error = None, f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), error, time.perf_counter() - t0


def run_pass(ops, tracer=None):
    """Run ops back to back, each session from an empty neighbour cache.

    Returns (results, wall seconds, neighbour cache hit ratio).
    """
    hits = misses = 0
    results = []
    t0 = time.perf_counter()
    for i, op in enumerate(ops):
        if op.fresh:
            h, m = clear_cache()
            hits, misses = hits + h, misses + m
        if tracer is None:
            results.append(run_op(op))
        else:
            with tracer.op_span(i, op.kind):
                results.append(run_op(op))
    wall = time.perf_counter() - t0
    h, m = clear_cache()
    hits, misses = hits + h, misses + m
    return results, wall, hits / (hits + misses) if hits + misses else 0.0


def verify(ops, results, failures):
    """Check every result from outside; returns the indices of failed ops.

    Appends one record per failed op to `failures`.
    """
    failed = []
    for i, (op, (code, stdout, error, _)) in enumerate(zip(ops, results)):
        if error is None:
            try:
                workloads.check(op, code, stdout)
                continue
            except workloads.CheckFailed as exc:
                error = f"CheckFailed: {exc}"
        failures.append({"kind": op.kind, "error": error})
        failed.append(i)
    return failed


def payload_digest(ops, results):
    h = hashlib.sha256()
    for op, (_, stdout, _, _) in zip(ops, results):
        if op.digest:
            h.update(stdout.encode())
    return h.hexdigest()


def tail_percentile(n):
    """The highest whole percentile with at least ten of n samples above its rank."""
    return math.floor(100 * (n - 10) / n)


def percentile(sorted_values, q):
    """Nearest-rank percentile and the number of samples above its rank."""
    rank = max(1, math.ceil(q / 100 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def timed_run(workload, seed, seconds):
    """Repeat the pass until its loop has run `seconds`; end-to-end numbers.

    On a machine shared with other tenants the CPU speed drifts by large
    factors over seconds to minutes, so each op's latency is its best over
    the passes, and the timing metrics are computed from those best
    latencies.
    """
    ops = workloads.make_pass(workload, seed)
    best = [math.inf] * len(ops)
    failures = []
    failed_ops = set()
    loop_s = 0.0
    passes = 0
    digest = None
    while passes < MIN_PASSES or loop_s < seconds:
        results, wall, _ = run_pass(ops)
        loop_s += wall
        best = [min(b, r[3]) for b, r in zip(best, results)]
        failed_ops.update(verify(ops, results, failures))
        if passes == 0:
            digest = payload_digest(ops, results)
        passes += 1
    lat = sorted(best)
    q = tail_percentile(len(lat))
    tail, beyond = percentile(lat, q)
    attempted = len(ops) * passes
    return {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "passes": passes,
        "metrics": {
            "ops_per_s": (len(ops) - len(failed_ops)) / sum(best),
            "op_p50_ms": percentile(lat, 50)[0] * 1e3,
            "op_tail_ms": tail * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "fail_ratio": len(failures) / attempted,
        },
        "wall_ops_per_s": (attempted - len(failures)) / loop_s,
        "tail": {"percentile": q, "beyond": beyond},
        "payload_sha256": digest,
    }


def traced_run(workload, seed, spans_path):
    """One pass untraced, then one traced; per-layer numbers of the traced pass."""
    ops = workloads.make_pass(workload, seed)
    failures = []
    plain, plain_s, _ = run_pass(ops)
    verify(ops, plain, failures)
    tracer = layers.Tracer()
    tracer.install()
    try:
        traced, traced_s, hit_ratio = run_pass(ops, tracer)
    finally:
        tracer.uninstall()
    verify(ops, traced, failures)
    metrics = tracer.layer_metrics(hit_ratio)
    metrics["trace.overhead_ratio"] = plain_s / traced_s  # traced / untraced ops_per_s
    tracer.write_spans(spans_path)
    return {
        "attempted": 2 * len(ops),
        "failed": len(failures),
        "failures": failures[:20],
        "metrics": metrics,
        "untraced_layers": tracer.missing,
        "payload_sha256": payload_digest(ops, plain),
    }


def main(argv):
    if os.path.dirname(os.path.abspath(normspace.__file__)) != os.path.join(SRC, "normspace"):
        print(f"normspace imported from {normspace.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if argv[0] == "probe":
        return 0
    _, workload, seed, seconds, trace = argv
    seed, seconds, trace = int(seed), float(seconds), trace == "1"
    if trace:
        out_dir = os.path.join(ROOT, ".perfbench")
        os.makedirs(out_dir, exist_ok=True)
        spans_path = os.path.join(out_dir, f"spans-{workload}-seed{seed}.csv")
        result = traced_run(workload, seed, spans_path)
        result["spans_file"] = os.path.relpath(spans_path, ROOT)
    else:
        result = timed_run(workload, seed, seconds)
    result["context"] = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "have_numba": _kernels.HAVE_NUMBA,
    }
    print(json.dumps(result), flush=True)
    return 0
