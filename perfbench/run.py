"""ulamstab benchmark: four certification workloads, end-to-end and per-layer metrics.

Run from the root of a checkout (the library is imported from ``src/``):

    python3 perfbench/run.py --workload reals-g65 --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` runs traced rounds, which wrap the public functions of each
library module from outside, between two untraced reference rounds, and
reports the per-layer metrics.  ``--smoke`` runs the same code paths on
tiny inputs in a few seconds.

Every metric is printed by name with its unit; the last line of standard
output is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
The exit code is 0 unless the inputs could not be built, the library could
not be imported, or the answers were not reproducible bit for bit.
Metric definitions, workload choices and known defects: NOTES.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join("perfbench", "out")

WORKLOADS = ("lhalf-q1024-g21", "reals-g65", "metrize-k2-n400", "cli-mix")
SETUP_REPEATS = 5
# Child interpreters that time the import of numpy and the library: a
# process imports once, so one in-process sample would carry all its noise.
IMPORT_REPEATS = 5
IMPORT_PROBE = ("import sys, time; t = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
                "import numpy, ulamstab.cli; print(time.perf_counter() - t)")
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")

END_TO_END = (
    ("setup_s", "s"), ("run_s", "s"), ("ops_per_s", "1/s"), ("op_p50_s", "s"),
    ("op_p90_s", "s"), ("peak_rss_mb", "MiB"),
)

LAYER_NAMES = ("core_spaces", "function_spaces", "metrization", "fixed_point",
               "cubic_stability", "cli", "bench")

# (metric, unit, source): source is ("total"|"self"|"calls", span name),
# ("count", counter name) or ("derived", key).
PER_LAYER = (
    ("cubic_stability.verify_stability.s", "s", ("total", "cubic_stability.verify_stability")),
    ("cubic_stability.verify_stability.self_s", "s", ("self", "cubic_stability.verify_stability")),
    ("cubic_stability.phi_contractivity_check.s", "s",
     ("total", "cubic_stability.phi_contractivity_check")),
    ("cubic_stability.phi_contractivity_check.pairs", "count",
     ("count", "cubic_stability.phi_contractivity_check.pairs")),
    ("cubic_stability.hypothesis_defect_check.s", "s",
     ("total", "cubic_stability.hypothesis_defect_check")),
    ("cubic_stability.hypothesis_defect_check.pairs_offered", "count",
     ("count", "cubic_stability.hypothesis_defect_check.pairs_offered")),
    ("cubic_stability.hypothesis_defect_check.pairs_evaluated", "count",
     ("derived", "pairs_evaluated")),
    ("cubic_stability.el_defect.calls", "count", ("calls", "cubic_stability.el_defect")),
    ("cubic_stability.el_defect.s", "s", ("total", "cubic_stability.el_defect")),
    ("cubic_stability.cubic_approximant.s", "s", ("total", "cubic_stability.cubic_approximant")),
    ("cubic_stability.cubic_approximant.stages", "count",
     ("count", "cubic_stability.cubic_approximant.stages")),
    ("cubic_stability.stability_bound.calls", "count",
     ("calls", "cubic_stability.stability_bound")),
    ("cubic_stability.stability_bound.s", "s", ("total", "cubic_stability.stability_bound")),
    ("cubic_stability.solution_pairs.checked", "count",
     ("count", "cubic_stability.solution_pairs.checked")),
    ("cubic_stability.solution_pairs.candidates", "count",
     ("count", "cubic_stability.solution_pairs.candidates")),
    ("cubic_stability.f_eval.calls", "count", ("calls", "cubic_stability.f_eval")),
    ("cubic_stability.f_eval.s", "s", ("total", "cubic_stability.f_eval")),
    ("cubic_stability.phi_eval.calls", "count", ("calls", "cubic_stability.phi_eval")),
    ("cubic_stability.phi_eval.s", "s", ("total", "cubic_stability.phi_eval")),
    ("core_spaces.norm.calls", "count", ("calls", "core_spaces.norm")),
    ("core_spaces.norm.s", "s", ("total", "core_spaces.norm")),
    ("core_spaces.try_index.calls", "count", ("calls", "core_spaces.try_index")),
    ("core_spaces.try_index.hits", "count", ("count", "core_spaces.try_index.hits")),
    ("core_spaces.try_index.s", "s", ("total", "core_spaces.try_index")),
    ("core_spaces.validate_b_metric.s", "s", ("total", "core_spaces.validate_b_metric")),
    ("core_spaces.validate_b_metric.triples_computed", "count",
     ("count", "core_spaces.validate_b_metric.triples_computed")),
    ("function_spaces.lhalf_norm.calls", "count", ("calls", "function_spaces.lhalf_norm")),
    ("function_spaces.lhalf_norm.s", "s", ("total", "function_spaces.lhalf_norm")),
    ("metrization.chain_metric.s", "s", ("total", "metrization.chain_metric")),
    ("metrization.chain_metric.self_s", "s", ("self", "metrization.chain_metric")),
    ("metrization.fw.ops_computed", "count", ("count", "metrization.fw.ops_computed")),
    ("metrization.fw.bytes_computed", "bytes", ("count", "metrization.fw.bytes_computed")),
    ("fixed_point.iterate.calls", "count", ("calls", "fixed_point.iterate")),
    ("fixed_point.iterate.s", "s", ("total", "fixed_point.iterate")),
    ("fixed_point.iterate.iterations", "count", ("count", "fixed_point.iterate.iterations")),
    ("fixed_point.iterate.outcome.converged", "count",
     ("count", "fixed_point.iterate.outcome.converged")),
    ("fixed_point.iterate.outcome.divergent", "count",
     ("count", "fixed_point.iterate.outcome.divergent")),
    ("fixed_point.iterate.outcome.violation", "count",
     ("count", "fixed_point.iterate.outcome.violation")),
    ("cli.main.calls", "count", ("calls", "cli.main")),
    ("cli.main.self_s", "s", ("self", "cli.main")),
    ("cli.report_bytes", "bytes", ("count", "cli.report_bytes")),
    ("cli.exit.0", "count", ("count", "cli.exit.0")),
    ("cli.exit.1", "count", ("count", "cli.exit.1")),
    ("cli.exit.2", "count", ("count", "cli.exit.2")),
) + tuple((f"{layer}.self_s", "s", ("layer", layer)) for layer in LAYER_NAMES) + (
    ("trace.run_s", "s", ("derived", "run_s")),
    ("trace.accounted_ratio", "ratio", ("derived", "accounted_ratio")),
    ("trace.overhead_ratio", "ratio", ("derived", "overhead_ratio")),
    ("process.cpu_s", "s", ("derived", "cpu_s")),
    ("fail_ratio", "ratio", ("derived", "fail_ratio")),
)


class OpError:
    """An op that raised: kept as its result so that the run still reports."""

    def __init__(self, exc):
        self.text = f"{type(exc).__name__}: {exc}"


def import_library():
    """Import numpy and ulamstab from ``src/`` of this checkout only."""
    if not os.path.isfile(os.path.join(SRC, "ulamstab", "__init__.py")):
        raise SystemExit(f"perfbench: no ulamstab sources under {SRC}")
    sys.path.insert(0, SRC)
    import numpy  # noqa: F401
    import ulamstab
    import ulamstab.cli
    if os.path.dirname(os.path.dirname(os.path.abspath(ulamstab.__file__))) != SRC:
        raise SystemExit(f"perfbench: imported ulamstab from {ulamstab.__file__}, not {SRC}")
    return types.SimpleNamespace(**{name: getattr(ulamstab, name) for name in (
        "core_spaces", "cubic_stability", "function_spaces", "metrization",
        "fixed_point", "cli", "errors")})


def import_seconds() -> float:
    """Median time to import numpy and the library in a fresh interpreter."""
    times = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, SRC], capture_output=True,
                              text=True, check=True, timeout=60)
        times.append(float(proc.stdout))
    return statistics.median(times)


def machine_info() -> dict:
    import numpy
    info = {"cpu_model": None, "nproc": len(os.sched_getaffinity(0)), "caches": {},
            "python": platform.python_version(), "numpy": numpy.__version__,
            "thread_env": {k: os.environ.get(k) for k in THREAD_ENV}}
    try:
        with open("/proc/cpuinfo") as fh:
            info["cpu_model"] = next((line.split(":", 1)[1].strip() for line in fh
                                      if line.startswith("model name")), None)
    except OSError:
        pass
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for idx in sorted(os.listdir(base)):
            def read(key):
                with open(os.path.join(base, idx, key)) as fh:
                    return fh.read().strip()
            info["caches"][f"L{read('level')}{read('type')[0].lower()}"] = read("size")
    except OSError:
        pass
    return info


def run_round(wl, tracer=None, keep=False):
    """Run the ops of one round once; results are hashed, and kept if asked,
    so that memory does not grow with the number of rounds."""
    clock = time.perf_counter
    results, lat = [], []
    cpu0 = time.process_time()
    start = clock()
    for op in wl.ops:
        t0 = clock()
        try:
            r = tracer.call_root(op.fn) if tracer is not None else op.fn()
        except Exception as exc:  # the benchmark boundary: record and go on
            r = OpError(exc)
        lat.append(clock() - t0)
        results.append(r)
    wall = clock() - start
    cpu = time.process_time() - cpu0
    h = hashlib.sha256()
    for op, r in zip(wl.ops, results):
        h.update(r.text.encode() if isinstance(r, OpError) else wl.encode(op, r))
        h.update(b"\0")
    return {"lat": lat, "wall": wall, "cpu": cpu, "hash": h.hexdigest(),
            "counts": wl.round_counts(results), "results": results if keep else None}


def set_cpus(cpus) -> None:
    try:
        os.sched_setaffinity(0, cpus)
    except OSError:  # not allowed here: the rounds run where the scheduler puts them
        pass


def timed_rounds(wl, seconds, tracer=None, keep_first=False):
    """Repeat rounds while the next one is expected to end within ``seconds``.

    Successive rounds run on each allowed CPU in turn, so that an op's
    minimum over the rounds is not bound to the one CPU that other load on
    the host may be slowing down for the whole run."""
    cpus = sorted(os.sched_getaffinity(0))
    rounds = []
    start = time.perf_counter()
    try:
        while True:
            set_cpus({cpus[len(rounds) % len(cpus)]})
            if tracer is not None:
                tracer.reset()
            rounds.append(run_round(wl, tracer, keep=keep_first and not rounds))
            if tracer is not None:
                rounds[-1]["trace"] = tracer.snapshot()
            elapsed = time.perf_counter() - start
            if elapsed * (len(rounds) + 1) / len(rounds) > seconds:
                return rounds
    finally:
        set_cpus(cpus)


def layer_values(snap, wall) -> dict:
    stats, counts = snap["stats"], snap["counts"]
    out = {}
    for name, _, (kind, key) in PER_LAYER:
        if kind in ("total", "self", "calls"):
            st = stats.get(key, [0, 0.0, 0.0])
            out[name] = st[{"calls": 0, "total": 1, "self": 2}[kind]]
        elif kind == "count":
            out[name] = counts.get(key, 0)
        elif kind == "layer":
            out[name] = sum(st[2] for n, st in stats.items() if n.split(".", 1)[0] == key)
    out["cubic_stability.hypothesis_defect_check.pairs_evaluated"] = snap["callers"].get(
        "cubic_stability.el_defect", {}).get("cubic_stability.hypothesis_defect_check", 0)
    out["trace.run_s"] = wall
    out["trace.accounted_ratio"] = sum(out[f"{layer}.self_s"] for layer in LAYER_NAMES) / wall
    return out


def quantile(values, q):
    import numpy
    return float(numpy.quantile(numpy.asarray(values, dtype=float), q))


def fmt(name, value, unit):
    return f"  {name:<58} {value!r:>24} {unit}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, same code paths")
    args = ap.parse_args(argv)

    os.chdir(ROOT)  # file arguments are relative, so answers hash the same anywhere
    os.environ.pop("ULAMSTAB_TOL", None)  # the library reads it for its default tol
    lib = import_library()
    import_s = import_seconds()
    sys.path.insert(0, HERE)
    import tracer as tracing
    import workloads

    wl = {cls.name: cls for cls in (workloads.LHalf, workloads.Reals, workloads.Metrize,
                                    workloads.CliMix)}[args.workload](lib, args.seed, args.smoke)

    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t = time.perf_counter()
            wl.setup()
            setup_times.append(time.perf_counter() - t)
        setup_s = import_s + statistics.median(setup_times)

        if args.trace:
            routes = tracing.default_bound_routes(lib)
            reference = run_round(wl, keep=True)
            tr = tracing.Tracer()
            tracing.install(tr, lib)
            wl.trace_hooks(tr)
            try:
                traced = timed_rounds(wl, args.seconds, tr)
            finally:
                tr.restore()
            # A second untraced round after the patches are undone: the
            # first round of a process runs slower than later ones.
            rounds = [reference] + traced + [run_round(wl)]
        else:
            rounds = timed_rounds(wl, args.seconds, keep_first=True)

        # Oracle on the first round; every other round must hash the same.
        statuses = [("wrong", r.text) if isinstance(r, OpError) else wl.check(op, r)
                    for op, r in zip(wl.ops, rounds[0]["results"])]
        hashes = [rnd["hash"] for rnd in rounds]
    finally:
        wl.cleanup()

    reproducible = len(set(hashes)) == 1
    per_round = len(wl.ops)
    attempted = per_round * len(rounds)
    wrong = sum(1 for s, _ in statuses if s == "wrong") * len(rounds)
    known = sum(1 for s, _ in statuses if s == "known") * len(rounds)
    fail_ratio = (wrong + known) / attempted

    info = machine_info()
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}{' smoke' if args.smoke else ''}")
    print("machine: " + json.dumps(info, sort_keys=True))
    print(f"answer_sha256: {hashes[0]}" + ("" if reproducible else
                                           f"  NOT REPRODUCIBLE: {sorted(set(hashes))}"))
    for op, (s, why) in zip(wl.ops, statuses):
        if s != "ok":
            print(f"  op {op.label} {' '.join(op.meta.get('argv', []))}: {s}: {why}")

    if args.trace:
        traced = rounds[1:-1]
        ref = min(rounds[0], rounds[-1], key=lambda rnd: rnd["wall"])
        per = [layer_values(rnd["trace"], rnd["wall"]) for rnd in traced]
        # The least disturbed traced round gives the times; counts repeat exactly.
        best = min(range(len(traced)), key=lambda i: traced[i]["wall"])
        metrics = {name: {"value": per[best].get(name, 0), "unit": unit}
                   for name, unit, _ in PER_LAYER}
        for key, value in traced[best]["counts"].items():
            metrics[key]["value"] = value
        metrics["trace.overhead_ratio"]["value"] = traced[best]["wall"] / ref["wall"]
        metrics["process.cpu_s"]["value"] = ref["cpu"]
        metrics["fail_ratio"]["value"] = fail_ratio
        unstable = [n for n, u, _ in PER_LAYER if u in ("count", "bytes")
                    and any(p.get(n, 0) != per[0].get(n, 0) for p in per)]
        os.makedirs(OUT, exist_ok=True)
        dump = os.path.join(OUT, f"trace-{args.workload}-s{args.seed}.json")
        with open(dump, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "machine": info,
                       "default_bound_routes_unmeasured_if_reached": routes,
                       "spans_dropped": tr.spans_dropped,
                       "spans": [s for s in tr.spans if s is not None],
                       "rounds": [rnd["trace"] for rnd in traced]}, fh)
        print(f"traced rounds: {len(traced)}; spans written to {dump}")
        print("default-bound routes (not counted if reached): " + ", ".join(routes))
        if unstable:
            print("counts that differ between traced rounds: " + ", ".join(unstable))
    else:
        # Every round repeats the same ops; an op's latency is its minimum over
        # the rounds, the execution least disturbed by other load on the host.
        lat = [min(column) for column in zip(*(rnd["lat"] for rnd in rounds))]
        metrics = {
            "setup_s": setup_s,
            "run_s": sum(lat),
            "ops_per_s": per_round / sum(lat),
            "op_p50_s": statistics.median(lat),
            "op_p90_s": quantile(lat, 0.9),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}
        print(f"rounds: {len(rounds)}; ops per round: {per_round}; "
              f"round wall times: {[round(rnd['wall'], 4) for rnd in rounds]}; "
              f"op latencies above p90: {sum(1 for x in lat if x > metrics['op_p90_s']['value'])}")
        print(fmt("fail_ratio", fail_ratio, "ratio"))
    for name, m in metrics.items():
        print(fmt(name, m["value"], m["unit"])
              + (" (computed)" if name.endswith(("_computed", "report_bytes")) else ""))

    correct = reproducible and wrong == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": wrong,
                      "metrics": metrics}))
    if not reproducible:
        print("perfbench: answers differ between rounds", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
