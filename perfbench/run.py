#!/usr/bin/env python3
"""The normspace benchmark: end-to-end and per-layer numbers per workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ball --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Each workload runs in a fresh Python process as a closed loop with one
client (see measure.py and workloads.py).  ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a separate
traced pass.  Every op is checked from outside; the last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Run records and trace spans go to ``.perfbench/`` in the checkout.

This process imports only the standard library and layers.py: the program
is imported by the worker processes it starts, never here.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

import layers

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(ROOT, ".perfbench")

WORKLOADS = ("ball", "helly-na", "bodies-span")
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MiB",
}
SETUP_PROBES = 6  # fresh interpreters timed to "imported"; the workload process adds one
IMPORT_PROBES = 3  # -X importtime runs in a traced run
PROCESS_TIMEOUT_S = 170
# Single-threaded by default: one BLAS thread, no campaign threads, and a
# fixed string hash so set and dict orders (and with them the traced
# counts) repeat from run to run.
CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class WorkerError(RuntimeError):
    """A workload process that crashed, timed out or printed no result."""


def _child_env():
    env = dict(os.environ)
    env.pop("NORMSPACE_THREADS", None)
    env.update(CHILD_ENV)
    return env


def _run_worker(args):
    """Start a worker; returns (seconds until it printed ready, rest of stdout)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, WORKER, *args], cwd=ROOT, env=_child_env(),
        stdout=subprocess.PIPE, text=True,
    )
    watchdog = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        ready_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if first.strip() != "ready" or code != 0:
        raise WorkerError(f"worker {' '.join(args)} exited with code {code}")
    return ready_s, rest


def _import_times():
    """Cumulative import seconds of the program and of scipy.spatial."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", WORKER, "probe"], cwd=ROOT,
        env=_child_env(), capture_output=True, text=True, timeout=PROCESS_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise WorkerError(f"import probe exited with code {proc.returncode}")
    program_us = spatial_us = 0
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2].strip()
        top_level = len(parts[2]) - len(parts[2].lstrip()) == 1
        if top_level and (name == "normspace" or name.startswith("normspace.")):
            program_us += int(parts[1])
        elif name == "scipy.spatial":
            spatial_us = int(parts[1])
    return program_us / 1e6, spatial_us / 1e6


def _git_commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_workload(workload, seed, seconds, trace):
    """One workload in fresh processes; returns the run record."""
    args = ["run", workload, str(seed), str(seconds), "1" if trace else "0"]
    if trace:
        _, out = _run_worker(args)
        result = json.loads(out.strip().splitlines()[-1])
        imports = [_import_times() for _ in range(IMPORT_PROBES)]
        result["metrics"]["import.normspace_s"] = statistics.median(t[0] for t in imports)
        result["metrics"]["import.scipy.spatial_s"] = statistics.median(t[1] for t in imports)
        result["samples"] = {"import": IMPORT_PROBES}
    else:
        _run_worker(["probe"])  # unmeasured: writes bytecode and warms the file cache
        setups = [_run_worker(["probe"])[0] for _ in range(SETUP_PROBES)]
        ready_s, out = _run_worker(args)
        setups.append(ready_s)
        result = json.loads(out.strip().splitlines()[-1])
        result["metrics"]["setup_s"] = statistics.median(setups)
        result["samples"] = {"setup_s": len(setups), "ops": result["attempted"]}
    result["context"].update({
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "blas_pin": {k: v for k, v in CHILD_ENV.items() if k.endswith("_THREADS")},
        "normspace_threads": "unset",
        "git_commit": _git_commit(),
        "payload_sha256": result.pop("payload_sha256"),
    })
    return result


def _print_table(workload, result, trace):
    m = result["metrics"]
    if trace:
        units = layers.LAYER_METRICS
        for name in sorted(m):
            print(f"{workload:12s} {name:40s} {m[name]:14.6g} {units[name]}")
        if result.get("untraced_layers"):
            print(f"{workload:12s} untraced (not found): {', '.join(result['untraced_layers'])}")
        return
    n_ops = result["samples"]["ops"]
    tail = result["tail"]
    passes = result["passes"]
    distinct = n_ops // passes
    notes = {
        "setup_s": f"median of {result['samples']['setup_s']} fresh processes",
        "ops_per_s": f"{distinct} ops at their best of {passes} passes;"
                     f" {result['wall_ops_per_s']:.4g} over the whole loop",
        "op_p50_ms": f"p50 of {distinct} best latencies",
        "op_tail_ms": f"p{tail['percentile']} of {distinct} best latencies,"
                      f" {tail['beyond']} beyond",
        "peak_rss_mb": "1 process",
        "fail_ratio": f"{result['failed']} of {n_ops} ops run",
    }
    units = dict(END_TO_END, fail_ratio="ratio")
    for name, note in notes.items():
        print(f"{workload:12s} {name:12s} {m[name]:12.6g} {units[name]:6s} ({note})")
    for failure in result["failures"]:
        print(f"{workload:12s} failed op {failure['kind']}: {failure['error']}")


def _save(record, workload, seed, trace):
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"result-{workload}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "normspace", "cli.py")):
        print(f"no normspace sources under {ROOT}/src: run from a checkout", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("--seed must be nonnegative", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    units = layers.LAYER_METRICS if trace else END_TO_END
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in chosen:
        try:
            result = run_workload(workload, args.seed, args.seconds, trace)
        except (WorkerError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
            print(f"{workload}: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 1
        _save(result, workload, args.seed, trace)
        _print_table(workload, result, trace)
        print(json.dumps({"context": result["context"]}, sort_keys=True))
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        summary["correct"] = summary["correct"] and result["failed"] == 0
        prefix = "" if len(chosen) == 1 else f"{workload}."
        for name, unit in units.items():
            summary["metrics"][prefix + name] = {"value": result["metrics"][name], "unit": unit}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
