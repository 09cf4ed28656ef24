"""Per-layer tracing of ulamstab from outside the library.

The tracer replaces library callables with timing wrappers for the length of
a traced run and restores them afterwards; no library file changes.  A name
is patched where its caller looks it up, because ``from .x import y`` copies
the binding into the importing module:

* module globals: every ``ulamstab.*`` module attribute bound to the original
  function object is rebound to the wrapper;
* class attributes such as ``SampledMap.try_index`` or ``ShiftNorm.__call__``;
* callables the benchmark passes in, and the entries of ``cli._BUILTIN_F``
  (plus the polynomial f that ``cli._build_f`` returns).

A default argument bound at definition time (``norm=euclidean_norm``) is
reached by none of these routes; ``default_bound_routes`` lists them, and a
call through one of them is not counted.  The four workloads pass the norm
explicitly at every such call site.

Each wrapped call opens a frame on a stack.  Self time is the frame's wall
time minus the time of the wrapped calls inside it, so the self times of all
frames under one benchmark op add up to that op's wall time.  Coarse frames
are kept as spans ``(id, name, start, end, parent_id)`` and written out at
the end; hot leaf frames (f, phi, norms, lookups) are aggregated in place
(calls, total, self) so that memory stays bounded.
"""

from __future__ import annotations

import sys
import time

ROOT = "bench.op"
MAX_SPANS = 200_000


class Tracer:
    def __init__(self):
        # A frame is [name, child_seconds, span_id].
        self.stack = [["", 0.0, -1]]
        self.stats = {}      # name -> [calls, total_s, self_s]
        self.callers = {}    # name -> {parent name: calls}
        self.counts = {}     # counter name -> value
        self.spans = []
        self.spans_dropped = 0
        self._undo = []

    # -- recording ---------------------------------------------------------

    def count(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def reset(self):
        """Start a fresh round: zero every aggregate and counter."""
        for st in self.stats.values():
            st[0] = 0
            st[1] = st[2] = 0.0
        for by in self.callers.values():
            by.clear()
        self.counts.clear()

    def snapshot(self) -> dict:
        return {"stats": {k: list(v) for k, v in self.stats.items()},
                "callers": {k: dict(v) for k, v in self.callers.items()},
                "counts": dict(self.counts)}

    def wrap(self, name, fn, record=False, merge=False, pre=None, post=None, raised=None):
        """Return a timing wrapper of ``fn`` reporting under ``name``.

        ``merge`` folds a call made directly inside a frame of the same name
        into that frame (a norm that calls a norm counts once).  ``pre``,
        ``post`` and ``raised`` are counter hooks run outside the timed
        interval of the call.
        """
        stack = self.stack
        st = self.stats.setdefault(name, [0, 0.0, 0.0])
        by = self.callers.setdefault(name, {})
        spans = self.spans
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1]
            pname = parent[0]
            if merge and pname == name:
                return fn(*args, **kwargs)
            by[pname] = by.get(pname, 0) + 1
            if pre is not None:
                pre(args, kwargs)
            sid = parent[2]
            if record:
                if len(spans) < MAX_SPANS:
                    sid = len(spans)
                    spans.append(None)
                else:
                    tracer.spans_dropped += 1
            frame = [name, 0.0, sid]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                t1 = clock()
                tracer._close(frame, parent, st, t0, t1, record)
                if raised is not None:
                    raised(exc)
                raise
            t1 = clock()
            tracer._close(frame, parent, st, t0, t1, record)
            if post is not None:
                post(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _close(self, frame, parent, st, t0, t1, record):
        self.stack.pop()
        d = t1 - t0
        parent[1] += d
        st[0] += 1
        st[1] += d
        st[2] += d - frame[1]
        if record and frame[2] != parent[2]:
            self.spans[frame[2]] = (frame[2], frame[0], t0, t1, parent[2])

    def call_root(self, fn):
        """Run one benchmark op under the root frame ``bench.op``."""
        return self.wrap(ROOT, fn, record=True)()

    # -- patching ----------------------------------------------------------

    def patch_function(self, original, wrapper):
        """Rebind every ulamstab module global that names ``original``."""
        hits = 0
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "ulamstab" or modname.startswith("ulamstab.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self.patch_attr(mod, key, wrapper)
                    hits += 1
        if not hits:
            raise RuntimeError(f"no module global names {original!r}")

    def patch_attr(self, owner, key, wrapper):
        old = vars(owner)[key]
        self._undo.append(lambda: setattr(owner, key, old))
        setattr(owner, key, wrapper)

    def patch_item(self, mapping, key, wrapper):
        old = mapping[key]
        self._undo.append(lambda: mapping.__setitem__(key, old))
        mapping[key] = wrapper

    def restore(self):
        while self._undo:
            self._undo.pop()()


def install(tracer: Tracer, lib) -> None:
    """Wrap the public functions of each ulamstab module (see module doc)."""
    core, cs, fs = lib.core_spaces, lib.cubic_stability, lib.function_spaces
    mz, fp, cli = lib.metrization, lib.fixed_point, lib.cli
    t = tracer

    def fn(owner, key, name, **kw):
        original = getattr(owner, key)
        t.patch_function(original, t.wrap(name, original, **kw))

    def meth(cls, key, name, **kw):
        t.patch_attr(cls, key, t.wrap(name, cls.__dict__[key], **kw))

    # core_spaces
    fn(core, "euclidean_norm", "core_spaces.norm", merge=True)
    meth(core.QuasiNormedSpace, "norm", "core_spaces.norm", merge=True)
    meth(core.SampledMap, "try_index", "core_spaces.try_index",
         post=lambda a, k, r: r is not None and t.count("core_spaces.try_index.hits"))
    meth(core.SampledMap, "__call__", "core_spaces.sampled_map_eval")

    def triples(a, k, report):
        n = len(a[0])
        if report.passed:
            t.count("core_spaces.validate_b_metric.triples_computed", n ** 3)
        elif report.axiom == "relaxed_triangle":
            # i-slices 0..i were computed before the first violation.
            t.count("core_spaces.validate_b_metric.triples_computed",
                    (report.witness[0] + 1) * n * n)

    fn(core, "validate_b_metric", "core_spaces.validate_b_metric", record=True, post=triples)
    for key in ("load_distance_csv", "load_distance_json", "save_distance_csv"):
        fn(core, key, "core_spaces.distance_io", record=True)

    # function_spaces
    fn(fs, "lhalf_norm", "function_spaces.lhalf_norm", merge=True)
    meth(fs.LHalfSpace, "norm", "function_spaces.lhalf_norm", merge=True)
    fn(fs, "example_corpus", "function_spaces.example_corpus", record=True)

    # metrization: Floyd-Warshall runs only after validation passed.
    def fw(a, k, result):
        n = result.delta.shape[0]
        t.count("metrization.fw.ops_computed", 2 * n ** 3)
        # Per k step: read d, write and read the broadcast sum, write d.
        t.count("metrization.fw.bytes_computed", 4 * n * n * 8 * n)

    fn(mz, "chain_metric", "metrization.chain_metric", record=True, post=fw)

    # fixed_point
    def outcome(a, k, result):
        t.count("fixed_point.iterate.iterations", result.iterations)
        key = {"Converged": "converged", "DivergentInfinite": "divergent"}.get(
            result.outcome.value, "budget_exhausted")
        t.count(f"fixed_point.iterate.outcome.{key}")

    def violation(exc):
        if isinstance(exc, lib.errors.HypothesisViolation):
            t.count("fixed_point.iterate.outcome.violation")

    fn(fp, "iterate", "fixed_point.iterate", record=True, post=outcome, raised=violation)

    # cubic_stability
    def count_samples(key):
        # Both checks take (.., .., .., samples) as their fourth argument.
        return lambda a, k: t.count(key, len(k["samples"] if "samples" in k else a[3]))

    fn(cs, "verify_stability", "cubic_stability.verify_stability", record=True)
    fn(cs, "phi_contractivity_check", "cubic_stability.phi_contractivity_check", record=True,
       pre=count_samples("cubic_stability.phi_contractivity_check.pairs"))
    fn(cs, "hypothesis_defect_check", "cubic_stability.hypothesis_defect_check", record=True,
       pre=count_samples("cubic_stability.hypothesis_defect_check.pairs_offered"))
    fn(cs, "el_defect", "cubic_stability.el_defect")
    fn(cs, "junkim_defect", "cubic_stability.junkim_defect")
    fn(cs, "cubic_approximant", "cubic_stability.cubic_approximant", record=True,
       post=lambda a, k, q: t.count("cubic_stability.cubic_approximant.stages",
                                    q.meta.get("iterations", 0)))
    fn(cs, "stability_bound", "cubic_stability.stability_bound")
    fn(cs, "m_closed_grid", "cubic_stability.m_closed_grid", record=True)

    def solution_pairs(a, k, result):
        t.count("cubic_stability.solution_pairs.checked", result[2])
        t.count("cubic_stability.solution_pairs.candidates", a[3] ** 2)

    fn(cs, "_solution_defects", "cubic_stability.solution_pairs", record=True,
       post=solution_pairs)
    for cls in (cs.ShiftNorm, cs.PowerLaw, cs.ConstantBound):
        meth(cls, "__call__", "cubic_stability.phi_eval")
        meth(cls, "at_zero", "cubic_stability.phi_eval")

    # The f callables: builtin entries, and the polynomial built per config.
    for key, f in list(cli._BUILTIN_F.items()):
        t.patch_item(cli._BUILTIN_F, key, t.wrap("cubic_stability.f_eval", f))
    build_f = cli._build_f

    def traced_build_f(doc):
        f, echo = build_f(doc)
        if getattr(f, "__wrapped__", None) is None:
            f = t.wrap("cubic_stability.f_eval", f)
        return f, echo

    t.patch_function(build_f, traced_build_f)

    # cli
    fn(cli, "main", "cli.main", record=True)
    fn(cli, "run_example_lhalf", "cli.run_example_lhalf", record=True)


def default_bound_routes(lib) -> list[str]:
    """Function parameters whose default is a callable the tracer wraps."""
    core = lib.core_spaces
    targets = {core.euclidean_norm, lib.function_spaces.lhalf_norm}
    found = []
    for modname in ("core_spaces", "cubic_stability", "function_spaces",
                    "metrization", "fixed_point", "cli"):
        mod = getattr(lib, modname)
        for name, obj in vars(mod).items():
            funcs = [(name, obj)]
            if isinstance(obj, type) and obj.__module__ == mod.__name__:
                funcs = [(f"{name}.{k}", v) for k, v in vars(obj).items() if callable(v)]
            for qual, f in funcs:
                code = getattr(f, "__code__", None)
                if code is None:
                    continue
                defaults = (f.__defaults__ or ()) + tuple((f.__kwdefaults__ or {}).values())
                for d in defaults:
                    if any(d is tgt for tgt in targets):
                        found.append(f"{mod.__name__}.{qual}")
    return sorted(set(found))
