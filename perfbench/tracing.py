"""Per-layer tracing from outside the program.

``Tracer.install`` replaces every public function of the pcpsketch modules
with a wrapper that records a span, in every module namespace (and every
module-level dict) that holds a reference to it, so calls from one module
into another are traced wherever the package makes them.  It also wraps
``Projection`` construction, ``Sketch.operator_matrix``, and the
``numpy.linalg`` factorizations the package calls (svd, eigh, eigvalsh),
counting them by kind with a flop estimate from their shapes.

Spans are recorded only while an operation runs (``Tracer.op``); set-up,
warm-up and the benchmark's own checks stay untraced.  Each span keeps its
name, start, end and parent; a layer's self time is its span minus its
child spans.  Spans stay in memory (the first ``SPAN_CAP`` in full, every
one in the aggregates) and ``write`` saves them when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from array import array
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

MODULES = ("cli", "matio", "generators", "rng", "sketch", "linalg", "guarantees", "audit", "solvers")
SPAN_CAP = 200_000


def _nbytes_mb(x) -> float:
    return getattr(x, "nbytes", 0) / 1e6


def _svd_flops(args, kwargs, result) -> float:
    # Golub & Van Loan R-SVD counts: thin U, S, V in 6 p q^2 + 20 q^3 flops,
    # singular values alone in 2 p q^2 + 2 q^3 (p >= q the matrix sides).
    p, q = sorted(np.shape(args[0])[-2:], reverse=True)
    if kwargs.get("compute_uv", True):
        return 6.0 * p * q * q + 20.0 * q**3
    return 2.0 * p * q * q + 2.0 * q**3


def _eigh_flops(args, vectors: bool) -> float:
    # symmetric tridiagonal QR: about 9 n^3 with eigenvectors, 4 n^3 / 3 without
    n = np.shape(args[0])[-1]
    return 9.0 * n**3 if vectors else 4.0 * n**3 / 3.0


class Tracer:
    def __init__(self):
        self.active = False
        self.t0 = perf_counter()
        self._stack = []  # frames [start, child time, span id, parent id]
        self._next_id = 0
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # name -> calls, total s, self s
        self.counters = defaultdict(float)
        self.kind_ops = defaultdict(int)
        self.kind_counts = defaultdict(float)  # (kind, name) -> count during ops of that kind
        self._names: dict = {}
        self._span_cols = {c: array(t) for c, t in (("name", "i"), ("id", "q"), ("parent", "q"), ("start", "d"), ("end", "d"))}
        self.dropped = 0

    # -- span bookkeeping ------------------------------------------------
    def _enter(self) -> list:
        frame = [perf_counter(), 0.0, self._next_id, self._stack[-1][2] if self._stack else -1]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, name: str, frame: list, count_call: bool = True) -> None:
        end = perf_counter()
        self._stack.pop()
        dur = end - frame[0]
        st = self.stats[name]
        st[0] += count_call
        st[1] += dur
        st[2] += dur - frame[1]
        if self._stack:
            self._stack[-1][1] += dur
        cols = self._span_cols
        if len(cols["id"]) < SPAN_CAP:
            cols["name"].append(self._names.setdefault(name, len(self._names)))
            cols["id"].append(frame[2])
            cols["parent"].append(frame[3])
            cols["start"].append(frame[0] - self.t0)
            cols["end"].append(end - self.t0)
        else:
            self.dropped += 1

    def _wrap(self, name: str, fn, post=None):
        tracer = self
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = tracer._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(name, frame)
            if post is not None:
                tracer.counters[post[0]] += post[1](args, kwargs, result)
            return result

        return wrapper

    def _wrap_generator(self, name: str, fn):
        """A generator counts one call at creation and one span per item."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            if not tracer.active:
                return it
            tracer.stats[name][0] += 1

            def traced():
                while True:
                    frame = tracer._enter()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._exit(name, frame, count_call=False)
                    tracer.counters[name + ".yielded"] += 1
                    yield item

            return traced()

        return wrapper

    # -- installation ----------------------------------------------------
    def install(self) -> None:
        pkg = importlib.import_module("pcpsketch")
        mods = {m: importlib.import_module(f"pcpsketch.{m}") for m in MODULES}
        # name -> (counter, amount(args, kwargs, result)) added after each call
        post = {
            "linalg.as_matrix": ("linalg.as_matrix.mb", lambda a, kw, r: _nbytes_mb(r)),
            "matio.load_matrix": ("matio.load_matrix.mb", lambda a, kw, r: _nbytes_mb(r)),
            "matio.save_matrix": ("matio.save_matrix.mb", lambda a, kw, r: _nbytes_mb(np.asarray(a[1]))),
            "audit.generate_probes": ("audit.probes", lambda a, kw, r: len(r)),
            "audit.approx_transfer_check": (
                "audit.transfer_candidates", lambda a, kw, r: len(a[5] if len(a) > 5 else kw["candidates"])),
        }
        replace = {}
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                replace[id(obj)] = self._wrap(name, obj, post.get(name))
        for mod in [pkg, *mods.values()]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replace:
                    setattr(mod, attr, replace[id(obj)])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if id(val) in replace:
                            obj[key] = replace[id(val)]

        proj = mods["linalg"].Projection
        proj.__post_init__ = self._wrap("linalg.Projection", proj.__post_init__)
        sk = mods["sketch"].Sketch
        sk.operator_matrix = self._wrap(
            "sketch.operator_matrix", sk.operator_matrix, ("sketch.operator_matrix.mb", lambda a, kw, r: _nbytes_mb(r)))
        la = np.linalg
        la.svd = self._wrap("lapack.svd", la.svd, ("lapack.flop", _svd_flops))
        la.eigh = self._wrap("lapack.eigh", la.eigh, ("lapack.flop", lambda a, kw, r: _eigh_flops(a, True)))
        la.eigvalsh = self._wrap("lapack.eigh", la.eigvalsh, ("lapack.flop", lambda a, kw, r: _eigh_flops(a, False)))

    # -- operations ------------------------------------------------------
    @contextmanager
    def op(self, kind: str):
        """Trace one benchmark operation as a root span ``op.<kind>``."""
        before = self._per_kind_counts()
        self.active = True
        frame = self._enter()
        try:
            yield
        finally:
            self._exit(f"op.{kind}", frame)
            self.active = False
            self.kind_ops[kind] += 1
            for name, value in self._per_kind_counts().items():
                self.kind_counts[(kind, name)] += value - before[name]

    def _per_kind_counts(self) -> dict:
        """The counts reported per operation kind as well as per operation."""
        return {
            "lapack.svd": self.stats["lapack.svd"][0],
            "solvers.partitions.yielded": self.counters["solvers.partitions.yielded"],
        }

    # -- results ---------------------------------------------------------
    def metrics(self) -> dict:
        """Per-operation layer metrics: name -> (value, unit)."""
        ops = sum(self.kind_ops.values())
        per = 1.0 / max(ops, 1)
        st = self.stats
        out = {}

        def calls(n):
            return st[n][0] * per if n in st else 0.0

        def secs(n):
            return st[n][1] * per if n in st else 0.0

        out["lapack.svd.calls"] = (calls("lapack.svd"), "calls/op")
        out["lapack.eigh.calls"] = (calls("lapack.eigh"), "calls/op")
        out["lapack.s"] = (secs("lapack.svd") + secs("lapack.eigh"), "s/op")
        out["lapack.gflop"] = (self.counters["lapack.flop"] * per / 1e9, "GFLOP/op")
        verifies = self.kind_ops.get("verify", 0)
        out["lapack.svd.calls_per_verify"] = (
            self.kind_counts[("verify", "lapack.svd")] / verifies if verifies else 0.0, "calls/verify")
        for n in ("linalg.svd", "linalg.as_matrix", "linalg.projection_cost", "linalg.Projection",
                  "solvers.cluster_indicator_projection", "rng.rng_for"):
            out[f"{n}.calls"] = (calls(n), "calls/op")
        for n in ("guarantees.certify_matrix_approx", "guarantees.certify_spectral", "audit.generate_probes",
                  "audit.pcp_report", "sketch.make_sketch", "matio.load_matrix", "matio.save_matrix",
                  "audit.approx_transfer_check", "solvers.exhaustive_kmeans", "linalg.orthonormal_columns",
                  "generators.gen_synthetic", "solvers.lloyd_kmeans", "guarantees.jl_moment_estimate",
                  "audit.implication_harness"):
            out[f"{n}.s"] = (secs(n), "s/op")
        for n, unit in (("linalg.as_matrix.mb", "MB/op"), ("sketch.operator_matrix.mb", "MB/op"),
                        ("matio.load_matrix.mb", "MB/op"), ("matio.save_matrix.mb", "MB/op"),
                        ("audit.probes", "probes/op"), ("audit.transfer_candidates", "count/op"),
                        ("solvers.partitions.yielded", "count/op")):
            out[n] = (self.counters[n] * per, unit)
        for mod in MODULES:
            names = [n for n in st if n.startswith(mod + ".")]
            out[f"{mod}.calls"] = (sum(st[n][0] for n in names) * per, "calls/op")
            out[f"{mod}.self_s"] = (sum(st[n][2] for n in names) * per, "s/op")
        return out

    def by_kind(self) -> dict:
        """(kind, name) -> count per operation of that kind."""
        return {(kind, n): v / self.kind_ops[kind] for (kind, n), v in self.kind_counts.items()}

    def write(self, path) -> None:
        cols = {c: np.frombuffer(v, dtype=v.typecode) if len(v) else np.zeros(0) for c, v in self._span_cols.items()}
        names = sorted(self._names, key=self._names.get)
        np.savez(path, names=np.array(names), dropped=np.array(self.dropped), **cols)
