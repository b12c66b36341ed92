"""Per-layer tracing from outside the program.

``Tracer.install`` replaces each traced function with a wrapper in every
``normspace`` module that binds it (``building.gi_distance`` and
``valued.gi_distance`` are separate bindings of one function), so calls
are seen whichever module makes them.  Every wrapped call becomes a span
(op, id, parent, name, start, end) kept in memory; ``write_spans`` dumps
them once the pass is over.  A span's self time is its duration minus the
durations of its child spans, which nest because the program runs on one
thread.  A few counters need no span: Fraction constructions, brute-force
hull fallbacks, MVEE iterations and tight-span candidates.
"""

import contextlib
import functools
import sys
import time
from collections import Counter, defaultdict
from fractions import Fraction

# (module, attribute) of every function that gets a span.
SPANNED = (
    ("cli", "_load_json_arg"), ("cli", "_emit"),
    ("qlinalg", "inv"), ("qlinalg", "det"), ("qlinalg", "matmul"),
    ("qlinalg", "solve"), ("qlinalg", "rank"),
    ("valued", "DiagNorm.__init__"), ("valued", "eval_log_norm"),
    ("valued", "gi_distance"), ("valued", "common_adapted_basis"),
    ("valued", "_verify_common_basis"), ("valued", "join_norms"),
    ("building", "hnf_dvr"), ("building", "neighbors"), ("building", "ball_bfs"),
    ("polyhedra", "vertex_enum_exact"), ("polyhedra", "facet_enum_exact"),
    ("polyhedra", "hull3d_planes"),
    ("bodies", "john_ellipsoid"), ("bodies", "coarse_helly_details"),
    ("bodies", "spd_to_polytope"), ("bodies", "mvee_certified"),
    ("bodies", "gi_distance_bodies"),
    ("_kernels", "mvee_weights"), ("_kernels", "closure_sweeps"),
    ("_kernels", "poly_gauge_batch"),
    ("tightspan", "tight_span_vertices"), ("tightspan", "_solve_candidate"),
    ("tightspan", "is_extremal"),
)

# Reported per-layer metrics: name -> unit.  Metric names may not start
# with "_", so the _kernels module reports as "kernels".
LAYER_METRICS = {
    "building.neighbors.calls": "count",
    "building.neighbors.total_s": "s",
    "building.neighbors.hit_ratio": "ratio",
    "building.hnf_dvr.calls": "count",
    "building.hnf_dvr.self_s": "s",
    "building.ball_bfs.self_s": "s",
    "building.audit_s": "s",
    "valued.common_adapted_basis.calls": "count",
    "valued.common_adapted_basis.self_s": "s",
    "valued._verify_common_basis.total_s": "s",
    "valued.join_norms.total_s": "s",
    "valued.gi_distance.calls": "count",
    "valued.gi_distance.total_s": "s",
    "valued.eval_log_norm.calls": "count",
    "valued.eval_log_norm.self_s": "s",
    "valued.DiagNorm.__init__.calls": "count",
    "valued.DiagNorm.__init__.self_s": "s",
    **{f"qlinalg.{f}.{s}": u for f in ("inv", "det", "matmul", "solve", "rank")
       for s, u in (("calls", "count"), ("self_s", "s"))},
    "fractions.Fraction.new_calls": "count",
    "polyhedra.vertex_enum_exact.calls": "count",
    "polyhedra.vertex_enum_exact.total_s": "s",
    "polyhedra.facet_enum_exact.calls": "count",
    "polyhedra.facet_enum_exact.total_s": "s",
    "polyhedra.hull3d_planes.calls": "count",
    "polyhedra.hull3d_planes.self_s": "s",
    "polyhedra.hull3d.brute_calls": "count",
    "bodies.john_ellipsoid.total_s": "s",
    "bodies.coarse_helly_details.total_s": "s",
    "bodies.spd_to_polytope.total_s": "s",
    "bodies.mvee_certified.total_s": "s",
    "bodies.gi_distance_bodies.calls": "count",
    "bodies.gi_distance_bodies.self_s": "s",
    "bodies.mvee.iterations": "count",
    **{f"kernels.{f}.{s}": u for f in ("mvee_weights", "closure_sweeps", "poly_gauge_batch")
       for s, u in (("calls", "count"), ("self_s", "s"))},
    "tightspan.tight_span_vertices.calls": "count",
    "tightspan.tight_span_vertices.total_s": "s",
    "tightspan._solve_candidate.calls": "count",
    "tightspan.candidate_accept_ratio": "ratio",
    "tightspan.is_extremal.calls": "count",
    "tightspan.is_extremal.self_s": "s",
    "cli._load_json_arg.self_s": "s",
    "cli._emit.self_s": "s",
    "import.normspace_s": "s",
    "import.scipy.spatial_s": "s",
    "trace.overhead_ratio": "ratio",
}

# Filled in outside the traced pass: by the import probe and by comparing
# the traced pass with an untraced one.
OUTSIDE_METRICS = ("import.normspace_s", "import.scipy.spatial_s", "trace.overhead_ratio")

# Per-layer metrics that are counts or ratios of counts: they must repeat
# exactly between two traced runs of one seed.
COUNT_METRICS = tuple(
    name for name, unit in LAYER_METRICS.items()
    if unit in ("count", "ratio") and name not in OUTSIDE_METRICS
)


def _span_name(short, attr):
    return f"{'kernels' if short == '_kernels' else short}.{attr}"


class Tracer:
    """Spans and counters for one traced pass; install, run, uninstall."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.op = -1
        self.missing = []
        self._stack = []
        self._next_id = 0
        self._undo = []

    # -- spans --------------------------------------------------------------

    def _open(self):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid, parent, name, t0):
        t1 = time.perf_counter_ns()
        self._stack.pop()
        self.spans.append((self.op, sid, parent, name, t0, t1))

    def _wrap(self, name, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent = tracer._open()
            t0 = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(sid, parent, name, t0)
            if after is not None:
                after(out)
            return out

        return traced

    @contextlib.contextmanager
    def op_span(self, index, kind):
        """The root span of op `index`; the spans inside it carry its index."""
        self.op = index
        sid, parent = self._open()
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            self._close(sid, parent, f"op.{kind}", t0)

    # -- patching -------------------------------------------------------------

    def _rebind(self, orig, replacement):
        """Point every normspace module binding of `orig` at `replacement`."""
        for modname, mod in list(sys.modules.items()):
            if modname != "normspace" and not modname.startswith("normspace."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, replacement)
                    self._undo.append((mod, attr, orig))

    def _count_after(self, key, measure):
        def after(out):
            self.counts[key] += measure(out)
        return after

    def install(self):
        afters = {
            "bodies.mvee_certified": self._count_after(
                "bodies.mvee.iterations", lambda out: out[1]["iterations"]),
            "tightspan._solve_candidate": self._count_after(
                "tightspan.nonsingular_candidates", lambda out: out is not None),
            "tightspan.tight_span_vertices": self._count_after(
                "tightspan.vertices_returned", len),
        }
        for short, attr in SPANNED:
            name = _span_name(short, attr)
            mod = sys.modules.get(f"normspace.{short}")
            owner_name, _, fn_name = attr.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            orig = owner and vars(owner).get(fn_name)
            if orig is None:
                self.missing.append(name)
                continue
            wrapped = self._wrap(name, orig, afters.get(name))
            if owner_name:
                setattr(owner, fn_name, wrapped)
                self._undo.append((owner, fn_name, orig))
            else:
                self._rebind(orig, wrapped)

        brute = getattr(sys.modules["normspace.polyhedra"], "_brute_hull3d_planes", None)
        if brute is None:
            self.missing.append("polyhedra.hull3d.brute_calls")
        else:
            @functools.wraps(brute)
            def counted_brute(*args, **kwargs):
                self.counts["polyhedra.hull3d.brute_calls"] += 1
                return brute(*args, **kwargs)
            self._rebind(brute, counted_brute)

        new = Fraction.__dict__["__new__"]
        new_fn = new.__func__
        counts = self.counts

        def counted_new(cls, *args, **kwargs):
            counts["fractions.Fraction.new_calls"] += 1
            return new_fn(cls, *args, **kwargs)

        Fraction.__new__ = staticmethod(counted_new)
        self._undo.append((Fraction, "__new__", new))

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # -- results --------------------------------------------------------------

    def layer_metrics(self, cache_ratio):
        """Per-layer numbers of the traced pass (import and overhead excluded)."""
        by_id = {}
        child_ns = defaultdict(int)
        for _, sid, parent, name, t0, t1 in self.spans:
            by_id[sid] = name
            child_ns[parent] += t1 - t0
        calls = Counter()
        total_ns = Counter()
        self_ns = Counter()
        audit_ns = 0
        for _, sid, parent, name, t0, t1 in self.spans:
            calls[name] += 1
            total_ns[name] += t1 - t0
            self_ns[name] += t1 - t0 - child_ns[sid]
            if name == "valued.gi_distance" and by_id.get(parent) == "building.ball_bfs":
                audit_ns += t1 - t0
        nonsingular = self.counts["tightspan.nonsingular_candidates"]
        derived = {
            "building.neighbors.hit_ratio": cache_ratio,
            "building.audit_s": audit_ns / 1e9,
            "tightspan.candidate_accept_ratio": (
                self.counts["tightspan.vertices_returned"] / nonsingular if nonsingular else 0.0
            ),
        }
        out = {}
        for metric in LAYER_METRICS:
            head, _, stat = metric.rpartition(".")
            if metric in derived:
                out[metric] = derived[metric]
            elif stat == "calls":
                out[metric] = calls[head]
            elif stat == "total_s":
                out[metric] = total_ns[head] / 1e9
            elif stat == "self_s":
                out[metric] = self_ns[head] / 1e9
            elif metric not in OUTSIDE_METRICS:
                out[metric] = self.counts[metric]
        return out

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op,id,parent,name,start_ns,end_ns\n")
            for span in self.spans:
                fh.write(",".join(str(x) for x in span) + "\n")
