"""The four benchmark workloads.

Each workload makes its inputs from the seed in ``setup`` (repeatable: the
runner calls it several times and reports the median), exposes the ops of
one round as ``ops``, turns each op's result into deterministic answer
bytes (``encode``) and checks it against an independent oracle (``check``).
Every workload is a closed loop with one caller: an op starts when the
previous one has returned.  Why each workload is here is in NOTES.md.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil

import numpy as np

import oracles

OK = ("ok", "")


class Op:
    __slots__ = ("label", "fn", "meta")

    def __init__(self, label, fn, meta=None):
        self.label = label
        self.fn = fn
        self.meta = meta or {}


class Workload:
    name = ""

    def __init__(self, lib, seed: int, smoke: bool):
        self.lib = lib
        self.seed = seed
        self.smoke = smoke
        self.ops: list[Op] = []

    def setup(self) -> None:
        raise NotImplementedError

    def encode(self, op: Op, result) -> bytes:
        raise NotImplementedError

    def check(self, op: Op, result) -> tuple[str, str]:
        """("ok", ""), ("known", defect name) or ("wrong", reason)."""
        raise NotImplementedError

    def trace_hooks(self, tracer) -> None:
        """Wrap the callables this workload passes into the library."""

    def round_counts(self, results) -> dict:
        return {}

    def cleanup(self) -> None:
        pass


def _cubic_plus_linear(u):
    return u**3 + u


# =========================================================================
# lhalf-q1024-g21: the vector-codomain case
# =========================================================================

class LHalf(Workload):
    name = "lhalf-q1024-g21"
    MS = (2.0, 3.0)

    def __init__(self, lib, seed, smoke):
        super().__init__(lib, seed, smoke)
        self.qn, self.nbase = (32, 2) if smoke else (1024, 5)
        self.space = lib.function_spaces.LHalfSpace(self.qn)

    def setup(self):
        cs = self.lib.cubic_stability
        corpus = self.lib.function_spaces.example_corpus(self.qn, seed=self.seed)
        rng = np.random.default_rng(self.seed)
        base = [corpus[i] for i in sorted(rng.choice(len(corpus), size=self.nbase,
                                                     replace=False))]
        self.base = base
        self.grids = {m: cs.m_closed_grid(base, m, levels=1) for m in self.MS}
        self.points = {m: oracles.shift_norm_grid(base, m, levels=1) for m in self.MS}
        self.norms = {m: [oracles.lhalf(x) for x in pts] for m, pts in self.points.items()}
        if any(len(self.grids[m]) != len(self.points[m]) for m in self.MS):
            raise RuntimeError("grid sizes differ from the closed form")
        self._verify(2.0, cs.m_closed_grid(base[:1], 2.0, levels=1))  # warm-up
        self.ops = [Op(f"verify-m{m:g}", (lambda m=m: self._verify(m, self.grids[m])),
                       {"m": m}) for m in self.MS]

    def _verify(self, m, grid):
        # Looked up on each call so that a traced run sees the wrapped names.
        cs = self.lib.cubic_stability
        phi = cs.ShiftNorm(c=oracles.defect_constant(m), m=m, norm=self.space.norm)
        config = cs.StabilityConfig(m=m, L=phi.lipschitz(m), p=0.5,
                                    codomain=self.space.space())
        return cs.verify_stability(self.lib.cli._BUILTIN_F["cubic_plus_linear"], phi,
                                   config, grid)

    def encode(self, op, cert):
        return (json.dumps(cert.to_dict(), sort_keys=True).encode()
                + np.asarray(cert.q.values).tobytes())

    def check(self, op, cert):
        m = op.meta["m"]
        c = oracles.defect_constant(m)
        # The defect of u**3 + u over the base signals, measured by the
        # library, against |2m(1 - m**2)| |x + m y| in closed form.
        f = self.lib.cli._BUILTIN_F["cubic_plus_linear"]
        for x in self.base:
            for y in self.base:
                w = oracles.lhalf(x + m * y)
                if w < 1e-9:
                    continue
                measured = self.lib.cubic_stability.el_defect(f, m, x, y,
                                                              norm=self.space.norm) / w
                if not oracles.close(measured, c, rel=oracles.REL):
                    return "wrong", f"m={m}: measured defect constant {measured!r} != {c!r}"
        why = oracles.check_cubic_linear(cert.to_dict(), self.points[m], self.norms[m], m, c,
                                         L=1.0 / m**2, p=0.5)
        return ("wrong", f"m={m}: {why}") if why else OK


# =========================================================================
# reals-g65: the scalar case, 65 dyadic grid points
# =========================================================================

class Reals(Workload):
    name = "reals-g65"
    M, C = 2.0, 12.0

    def __init__(self, lib, seed, smoke):
        super().__init__(lib, seed, smoke)
        self.nbase, self.levels = (2, 2) if smoke else (8, 3)
        self.f = _cubic_plus_linear

    def setup(self):
        cs = self.lib.cubic_stability
        rng = np.random.default_rng(self.seed)
        # Dyadic k/64 in [1, 2): every product and sum below stays exact.
        base = (rng.choice(np.arange(64, 128), size=self.nbase, replace=False) / 64.0).tolist()
        self.grid = cs.m_closed_grid(base, self.M, levels=self.levels)
        self.xs = oracles.shift_norm_grid(base, self.M, self.levels)
        if len(self.grid) != len(self.xs):
            raise RuntimeError(f"grid has {len(self.grid)} points, expected {len(self.xs)}")
        self._verify(cs.m_closed_grid(base[:1], self.M, levels=1))  # warm-up
        self.ops = [Op("verify", lambda: self._verify(self.grid))]

    def _verify(self, grid):
        # Looked up on each call so that a traced run sees the wrapped names.
        cs = self.lib.cubic_stability
        phi = cs.ShiftNorm(c=self.C, m=self.M, norm=self.lib.core_spaces.euclidean_norm)
        config = cs.StabilityConfig(m=self.M, L=phi.lipschitz(self.M))
        return cs.verify_stability(self.f, phi, config, grid)

    def trace_hooks(self, tracer):
        tracer.patch_attr(self, "f", tracer.wrap("cubic_stability.f_eval", self.f))

    def encode(self, op, cert):
        return json.dumps(cert.to_dict(), sort_keys=True).encode() + cert.q.values.tobytes()

    def check(self, op, cert):
        doc = cert.to_dict()
        measured = self.C * doc["defect_worst_ratio"]
        if not oracles.close(measured, oracles.defect_constant(self.M)):
            return "wrong", f"measured defect constant {measured!r} != 12"
        why = oracles.check_cubic_linear(doc, self.xs, [abs(float(x)) for x in self.xs],
                                         self.M, self.C, L=0.25, p=1.0,
                                         q_values=cert.q.values.tolist())
        return ("wrong", why) if why else OK


# =========================================================================
# metrize-k2-n400: chain metrization of random kappa = 2 b-metrics
# =========================================================================

def kappa2_matrix(rng, n):
    """Euclidean distances of random points in R^3 times symmetric factors in
    [1, 2]: D <= 2 E <= 2 (E + E) <= 2 (D + D), a kappa = 2 b-metric."""
    P = rng.normal(size=(n, 3))
    E = np.sqrt(((P[:, None, :] - P[None, :, :]) ** 2).sum(axis=-1))
    F = np.triu(rng.uniform(1.0, 2.0, size=(n, n)), 1)
    return E * (F + F.T)


def two_block_matrix(rng, n):
    n1 = int(rng.integers(n // 4, 3 * n // 4))
    D = np.full((n, n), math.inf)
    D[:n1, :n1] = kappa2_matrix(rng, n1)
    D[n1:, n1:] = kappa2_matrix(rng, n - n1)
    np.fill_diagonal(D, 0.0)
    return D, np.repeat([0, 1], [n1, n - n1])


class Metrize(Workload):
    name = "metrize-k2-n400"

    def __init__(self, lib, seed, smoke):
        super().__init__(lib, seed, smoke)
        self.n = 60 if smoke else 400

    def setup(self):
        core, n = self.lib.core_spaces, self.n
        rng = np.random.default_rng(self.seed)
        connected = kappa2_matrix(rng, n)
        split, blocks = two_block_matrix(rng, n)
        self.cases = [(connected, np.zeros(n, dtype=int)), (split, blocks)]
        self.spaces = [core.GeneralizedBMetricSpace(D=D, kappa=2.0) for D, _ in self.cases]
        self.sources = rng.choice(n, size=3, replace=False)
        warm = core.GeneralizedBMetricSpace(D=kappa2_matrix(rng, 40), kappa=2.0)
        self.lib.metrization.chain_metric(warm)
        self.ops = [Op(label, (lambda s=s: self.lib.metrization.chain_metric(s)), {"case": i})
                    for i, (label, s) in enumerate(zip(("connected", "two-block"), self.spaces))]

    def encode(self, op, cm):
        return repr(cm.p).encode() + cm.delta.tobytes()

    def check(self, op, cm):
        D, blocks = self.cases[op.meta["case"]]
        why = oracles.check_chain_metric(cm.delta, D, blocks, cm.p, self.sources)
        return ("wrong", why) if why else OK


# =========================================================================
# cli-mix: a seeded sequence of small in-process CLI calls
# =========================================================================

class CliMix(Workload):
    """Requests are generated with their expected exit code and checks.

    Config and matrix files live under ``workdir`` and are named by paths
    relative to the checkout root, so the reports (which echo paths) hash
    the same in any checkout.
    """

    name = "cli-mix"

    def __init__(self, lib, seed, smoke):
        super().__init__(lib, seed, smoke)
        self.workdir = os.path.join("perfbench", "out", f"cli-mix-s{seed}")

    # -- request generation --------------------------------------------------

    def _path(self, name):
        return os.path.join(self.workdir, name)

    def _write(self, name, text):
        with open(self._path(name), "w") as fh:
            fh.write(text)
        return self._path(name)

    def _dyadic(self, rng, k):
        return (rng.choice(np.arange(64, 128), size=k, replace=False) / 64.0).tolist()

    # grid sizes 1 + 2 k (levels + 1): 7, 9, 13, 17, 25, 33 and 65 points
    SIZES = ((1, 2), (1, 3), (2, 2), (2, 3), (4, 2), (4, 3))

    def _requests(self):
        rng = np.random.default_rng(self.seed)
        reps = 1 if self.smoke else 3
        reqs = []
        n = 0

        def verify(kind, doc, expect, extra=(), **meta):
            nonlocal n
            n += 1
            path = self._write(f"verify-{n:03d}.json", json.dumps(doc))
            argv = ["verify", "--config", path, *extra]
            reqs.append((kind, argv, expect, {"doc": doc, **meta}))

        def grid(k, levels, base=None):
            return {"base": base or self._dyadic(rng, k), "levels": levels, "symmetric": True}

        def cycle(count):
            return [self.SIZES[i % len(self.SIZES)] for i in range(count)]

        sizes = cycle(6 * reps) + ([] if self.smoke else [(8, 3)])
        for i, (k, lv) in enumerate(sizes):
            f = ({"name": "cubic_plus_linear"} if i % 2 == 0
                 else {"name": "poly", "coefficients": [0.0, 1.0, 0.0, 1.0]})
            c = [12.0, 16.0][int(rng.integers(2))]
            verify("verify-pass", {"f": f, "m": 2.0, "phi": {"kind": "shift_norm", "c": c},
                                   "grid": grid(k, lv)}, 0)
        for k, lv in cycle(2 * reps):
            c = [3.0, 6.0, 9.0][int(rng.integers(3))]
            verify("verify-c-below-defect", {"f": {"name": "cubic_plus_linear"}, "m": 2.0,
                                             "phi": {"kind": "shift_norm", "c": c},
                                             "grid": grid(k, lv)}, 1)
        for k, lv in cycle(2 * reps):
            verify("verify-power-law", {"f": {"name": "cubic_plus_linear"}, "m": 2.0,
                                        "phi": {"kind": "power_law", "lambda": 24.0, "s": 1.0},
                                        "grid": grid(k, lv)}, 0)
        for k, lv in cycle(reps):
            verify("verify-cubic-constant", {"f": {"name": "cubic"}, "m": 2.0,
                                             "phi": {"kind": "constant", "value": 1.0},
                                             "grid": grid(k, lv)}, 0)
        for k, lv in cycle(reps):
            csv_path = self._path(f"verify-{n + 1:03d}.csv")
            verify("verify-csv", {"f": {"name": "cubic_plus_linear"}, "m": 2.0,
                                  "phi": {"kind": "shift_norm", "c": 12.0},
                                  "grid": grid(k, lv)}, 0, extra=("--csv", csv_path),
                   output=csv_path)
        # Non-dyadic grids: the expected verdict is pass; the known defects
        # can fail them by float rounding (NOTES.md).
        verify("verify-nondyadic", {"f": {"name": "cubic_plus_linear"}, "m": 2.0,
                                    "phi": {"kind": "shift_norm", "c": 12.0},
                                    "grid": grid(1, 2, [0.3])}, 0)
        for _ in range(reps - 1 if reps > 1 else 0):
            k, lv = [(1, 2), (1, 3), (2, 2)][int(rng.integers(3))]
            base = [round(float(b), 6) for b in rng.uniform(0.1, 1.0, size=k)]
            verify("verify-nondyadic", {"f": {"name": "cubic_plus_linear"}, "m": 2.0,
                                        "phi": {"kind": "shift_norm", "c": 12.0},
                                        "grid": grid(k, lv, base)}, 0)

        # Config input errors: each exits 2 by construction.
        bad = [
            {"f": {"name": "cubic"}, "phi": {"kind": "constant", "value": 1.0}},
            {"f": {"name": "quartic"}, "m": 2.0, "phi": {"kind": "constant", "value": 1.0}},
            {"f": {"name": "cubic"}, "m": 2.0, "phi": {"kind": "gauss"}},
            {"f": {"name": "cubic"}, "m": 1.0, "phi": {"kind": "shift_norm", "c": 12.0}},
            {"f": {"name": "poly", "coefficients": [0, 1, 0, 1, 1]}, "m": 2.0,
             "phi": {"kind": "constant", "value": 1.0}},
            {"f": {"name": "cubic"}, "m": 2.0, "phi": {"kind": "shift_norm", "c": -1.0}},
            {"f": {"name": "cubic"}, "m": 2.0, "phi": {"kind": "constant", "value": 1.0},
             "space": {"kind": "banach"}},
            {"f": {"name": "cubic"}, "m": 2.0, "phi": {"kind": "constant", "value": 1.0},
             "grid": {"points": [1.0, 2.0, 4.0]}},
        ]
        for _ in range(reps):
            for doc in bad:
                verify("config-error", doc, 2)
            n += 1
            broken = self._write(f"verify-{n:03d}.json", '{"m": 2.0, "f": ')
            reqs.append(("config-error", ["verify", "--config", broken], 2, {}))
            reqs.append(("config-error", ["verify", "--config", self._path("missing.json")],
                         2, {}))

        # fixpoint: the three outcomes.
        for _ in range(4 * reps):
            x0 = repr(round(float(rng.uniform(0.5, 8.0)), 6))
            L = repr(round(float(rng.uniform(0.5, 0.95)), 6))
            reqs.append(("fixpoint-converged",
                         ["fixpoint", "--scenario", "halving", "--L", L, "--x0", x0], 0, {}))
            reqs.append(("fixpoint-converged",
                         ["fixpoint", "--scenario", "setzero", "--x0", x0], 0, {}))
            reqs.append(("fixpoint-divergent",
                         ["fixpoint", "--scenario", "two-component", "--x0", x0], 1, {}))
            L = repr(round(float(rng.uniform(0.05, 0.45)), 6))
            reqs.append(("fixpoint-violation",
                         ["fixpoint", "--scenario", "halving", "--L", L, "--x0", x0], 1, {}))

        # metrize: JSON and CSV inputs, connected and two-block, some with a
        # relaxed triangle broken on purpose.
        sizes = [40, 60, 80] if self.smoke else [40, 60, 80, 120] * 6
        for i, size in enumerate(sizes):
            blocks = np.zeros(size, dtype=int)
            if i % 3 == 2:
                D, blocks = two_block_matrix(rng, size)
            else:
                D = kappa2_matrix(rng, size)
            expect = 0
            if i % 8 == 5 or (self.smoke and i == 1):
                same = np.flatnonzero(blocks == blocks[0])
                a, b, c = (int(v) for v in rng.choice(same, size=3, replace=False))
                D[a, c] = D[c, a] = 5.0 * (D[a, b] + D[b, c]) + 1.0
                expect = 1
            name = f"metrize-{i:03d}"
            if i % 2 == 0:
                path = self._write(name + ".json", json.dumps(
                    {"kappa": 2.0, "D": D.tolist()}, sort_keys=True))
                argv = ["metrize", "--in", path]
            else:
                path = self._write(name + ".csv", "".join(
                    ",".join("inf" if math.isinf(v) else repr(float(v)) for v in row) + "\n"
                    for row in D))
                argv = ["metrize", "--in", path, "--kappa", "2"]
            meta = {"D": D, "blocks": blocks}
            if i % 4 == 3:
                meta["output"] = self._path(name + "-delta.csv")
                argv += ["--out", meta["output"]]
            reqs.append(("metrize-fail" if expect else "metrize", argv, expect, meta))
        order = rng.permutation(len(reqs))
        return [reqs[i] for i in order]

    def setup(self):
        shutil.rmtree(self.workdir, ignore_errors=True)
        os.makedirs(self.workdir)
        reqs = self._requests()
        self.ops = [Op(kind, (lambda a=argv: self._main(a)),
                       dict(meta, argv=argv, expect=expect, kind=kind))
                    for kind, argv, expect, meta in reqs]
        seen = set()
        for op in self.ops:  # warm-up: one request of each kind
            if op.label not in seen:
                seen.add(op.label)
                op.fn()

    def _main(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.lib.cli.main(argv)
        return code, out.getvalue()

    def _output(self, op) -> bytes:
        path = op.meta.get("output")
        if path is None:
            return b""
        with open(path, "rb") as fh:
            return fh.read()

    def encode(self, op, result):
        code, text = result
        return f"{code}\n{text}".encode() + self._output(op)

    def round_counts(self, results):
        counts = {"cli.report_bytes": sum(len(t.encode()) for _, t in results)}
        for c in (0, 1, 2):
            counts[f"cli.exit.{c}"] = sum(1 for code, _ in results if code == c)
        return counts

    def check(self, op, result):
        code, text = result
        kind, expect = op.meta["kind"], op.meta["expect"]
        doc = json.loads(text) if text else None
        if code != expect:
            if kind == "verify-nondyadic" and code == 1 and doc is not None:
                defect = oracles.known_defect(doc["report"], 2.0)
                if defect:
                    return "known", defect
            return "wrong", f"exit {code}, expected {expect}"
        if code == 2:
            return ("wrong", "input error printed a report") if text else OK
        why = getattr(self, "_check_" + kind.split("-")[0])(op, doc)
        return ("wrong", why) if why else OK

    def _check_verify(self, op, doc):
        kind, cfg, rep = op.meta["kind"], op.meta["doc"], doc["report"]
        if kind == "verify-c-below-defect":
            return None if not rep["hypothesis_defect_ok"] else "defect check passed with c < 12"
        spec = cfg["grid"]
        xs = [float(x) for x in oracles.shift_norm_grid(spec["base"], 2.0, spec["levels"])]
        norms = [abs(x) for x in xs]
        q = rep["q"]["values"]
        if kind == "verify-cubic-constant":
            ok = all(oracles.close(v, x**3, abs_=1e-8) for v, x in zip(q, xs))
            return None if ok and rep["max_error_ratio"] == 0.0 else "cubic f is not its own q"
        if kind == "verify-power-law":
            c_over_norm, L = cfg["phi"]["lambda"], 0.25
        else:
            c_over_norm, L = cfg["phi"]["c"], 0.25
        why = oracles.check_cubic_linear(rep, xs, norms, 2.0, c_over_norm, L, 1.0, q_values=q)
        if why or kind != "verify-csv":
            return why
        rows = self._output(op).decode().splitlines()[1:]
        if len(rows) != len(xs):
            return f"CSV has {len(rows)} rows for {len(xs)} grid points"
        for row, x in zip(rows, xs):
            _, _, defect_y0, phi_x0, _, _ = (float(v) for v in row.split(","))
            if not (oracles.close(defect_y0, 12.0 * abs(x)) and oracles.close(phi_x0, 12.0 * abs(x))):
                return f"CSV row for x = {x!r} disagrees with 12 |x|"
        return None

    def _check_fixpoint(self, op, doc):
        kind, rep = op.meta["kind"], doc["report"]
        if kind == "fixpoint-violation":
            return None if "hypothesis_violation" in rep else "no contraction violation reported"
        want = "Converged" if kind == "fixpoint-converged" else "DivergentInfinite"
        if rep["outcome"] != want:
            return f"outcome {rep['outcome']}, expected {want}"
        if want == "Converged" and not abs(rep["iterate"]) <= rep["error_bound"]:
            return "the fixed point 0 lies outside the certified error bound"
        return None

    def _check_metrize(self, op, doc):
        rep, D, blocks = doc["report"], op.meta["D"], op.meta["blocks"]
        if op.meta["kind"] == "metrize-fail":
            return (None if rep["validation"]["axiom"] == "relaxed_triangle"
                    else f"failed on {rep['validation']['axiom']}, not the relaxed triangle")
        n1 = int(np.sum(blocks == 0))
        if rep["unreachable_pairs"] != n1 * (len(blocks) - n1) or not rep["sandwich_ok"]:
            return "unreachable pair count or sandwich flag is wrong"
        if "output" not in op.meta:
            return None
        delta = np.array([[float(v) for v in line.split(",")]
                          for line in self._output(op).decode().splitlines()])
        return oracles.check_chain_metric(delta, D, blocks, rep["p"], [0])

    def cleanup(self):
        shutil.rmtree(self.workdir, ignore_errors=True)
