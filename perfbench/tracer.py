"""Benchmark-side tracing: pass-through wrappers around the library's layers.

``Tracer.install()`` replaces each traced function at every module binding
that a caller actually looks up (``numerics.mul_trunc``, ``bivariate.hyp_sum``,
``bivariate.series_geom_pow``, ``multivariate.series_geom_pow``,
``bivariate.monic_eval_gf`` ...) with a wrapper that records one span
(name, start, end, parent span) and one call, then calls the original.
``uninstall()`` puts every original back.  Nothing under ``src/`` changes.

Spans are kept in flat arrays and written once, by ``write_spans``.  A
layer's self time is its inclusive time minus the part covered by child
spans.  Counting hooks (computed kernel op counts, distinct values) run
outside the timed span, and their time is hidden from the parent's self
time as well.
"""

from __future__ import annotations

import gzip
import weakref
from array import array
from collections import Counter
from time import perf_counter

from multimeixner import bivariate, harness, lorentz, multivariate, numerics

# metric name -> [(module, attribute), ...]: every binding a caller looks up.
BINDINGS = {
    "kernel.mul_trunc": [(numerics, "mul_trunc")],
    "kernel.hyp_sum": [(bivariate, "hyp_sum")],
    "numerics.series_geom_pow": [(bivariate, "series_geom_pow"), (multivariate, "series_geom_pow")],
    "numerics.series_mul": [(bivariate, "series_mul"), (multivariate, "series_mul")],
    "numerics.solve_linear_system": [
        (bivariate, "solve_linear_system"),
        (multivariate, "solve_linear_system"),
    ],
    "bivariate.monic_eval_gf": [(bivariate, "monic_eval_gf")],
    "bivariate.monic_eval_raising": [(bivariate, "monic_eval_raising")],
    "bivariate.monic_eval_hyp": [(bivariate, "monic_eval_hyp")],
    "bivariate.monic_poly_coeffs": [(bivariate, "monic_poly_coeffs")],
    "bivariate.factorized_eval": [(bivariate, "factorized_eval")],
    "bivariate.general_sum_eval": [(bivariate, "general_sum_eval")],
    "bivariate.check_recurrence": [(bivariate, "check_recurrence")],
    "bivariate.check_difference": [(bivariate, "check_difference")],
    "bivariate.check_lowering": [(bivariate, "check_lowering")],
    "bivariate.check_duality": [(bivariate, "check_duality")],
    "bivariate.check_orthogonality": [(bivariate, "check_orthogonality")],
    "bivariate.check_addition": [(bivariate, "check_addition")],
    "multivariate.monic_eval_gf_d": [(multivariate, "monic_eval_gf_d")],
    "multivariate.monic_eval_raising_d": [(multivariate, "monic_eval_raising_d")],
    "multivariate.monic_poly_coeffs_d": [(multivariate, "monic_poly_coeffs_d")],
    "multivariate.check_orthogonality_d": [(multivariate, "check_orthogonality_d")],
    "univariate.meixner": [(bivariate, "meixner")],
    "univariate.krawtchouk": [(bivariate, "krawtchouk")],
    "lorentz.product_of": [(harness, "product_of"), (lorentz, "product_of")],
    "harness.run_suite": [(harness, "run_suite")],
}


def mul_trunc_term_pairs(a, b, cutoff):
    """Factor pairs (ea, eb) with |ea| + |eb| <= cutoff: the products the
    kernel forms.  Computed from the inputs, not counted in the kernel."""
    if not a or not b:
        return 0
    hist_b = Counter(sum(e) for e in b)
    below = [0] * (cutoff + 2)
    for deg in range(cutoff + 1):
        below[deg + 1] = below[deg] + hist_b.get(deg, 0)
    return sum(below[cutoff - sum(e) + 1] for e in a if sum(e) <= cutoff)


def hyp_sum_terms(m, n, i, k, negm, negn, negi, negk, invbeta, p11, p21, p12, p22):
    """Innermost terms of the kernel's four-index loop, from the same loop
    bounds and zero skips.  Computed from the inputs."""
    terms = 0
    for mu in range(min(m, i) + 1):
        for rho in range(min(n, i - mu) + 1):
            if not (negi[mu + rho] and p11[mu] and p12[rho]):
                continue
            for nu in range(min(m - mu, k) + 1):
                if not (negm[mu + nu] and p21[nu]):
                    continue
                terms += min(n - rho, k - nu) + 1
    return terms


class _GfValues:
    """Distinct monic_eval_gf values and generating-series builds, per
    system object.  A system's tallies are folded into the totals when it
    is collected, so a reused id() never merges two systems."""

    def __init__(self):
        self.live = {}
        self.distinct = 0
        self.points = 0
        self.builds = 0

    def see(self, sys2, m, n, i, k):
        entry = self.live.get(id(sys2))
        if entry is None:
            ref = weakref.ref(sys2, self._fold_later(id(sys2)))
            entry = self.live[id(sys2)] = (ref, set(), set())
        entry[1].add((m, n, i, k))
        entry[2].add((i, k))
        cached = sys2._gf_cache.get((i, k))
        if cached is None or cached.cutoff < m + n:
            self.builds += 1

    def _fold_later(self, key):
        return lambda _ref: self._fold(key)

    def _fold(self, key):
        _ref, values, points = self.live.pop(key)
        self.distinct += len(values)
        self.points += len(points)

    def finish(self):
        for key in list(self.live):
            self._fold(key)


class Tracer:
    def __init__(self):
        self.names = list(BINDINGS)
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls = [0] * len(self.names)
        self.incl = [0.0] * len(self.names)
        self.self_time = [0.0] * len(self.names)
        self.depth = [0] * len(self.names)
        self.stack = []
        self.term_pairs = 0
        self.hyp_terms = 0
        self.gf = _GfValues()
        self._saved = []

    # -- installation ------------------------------------------------------

    def install(self):
        hooks = {
            "kernel.mul_trunc": self._hook_mul_trunc,
            "kernel.hyp_sum": self._hook_hyp_sum,
            "bivariate.monic_eval_gf": self._hook_gf,
        }
        for nid, name in enumerate(self.names):
            bindings = BINDINGS[name]
            original = getattr(*bindings[0])
            if any(getattr(module, attr) is not original for module, attr in bindings):
                raise RuntimeError(f"bindings of {name} no longer share one function")
            wrapper = self._wrap(nid, original, hooks.get(name))
            for module, attr in bindings:
                self._saved.append((module, attr, original))
                setattr(module, attr, wrapper)
        return self

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        self.gf.finish()

    def _wrap(self, nid, fn, hook):
        stack = self.stack
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        calls, incl, self_time, depth = self.calls, self.incl, self.self_time, self.depth

        def wrapper(*args, **kwargs):
            if hook is not None:
                h0 = perf_counter()
                hook(*args)
                if stack:
                    stack[-1][1] += perf_counter() - h0
            idx = len(span_start)
            span_name.append(nid)
            span_parent.append(stack[-1][0] if stack else -1)
            frame = [idx, 0.0]
            stack.append(frame)
            depth[nid] += 1
            span_end.append(0.0)
            t0 = perf_counter()
            span_start.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                span_end[idx] = t1
                stack.pop()
                dur = t1 - t0
                calls[nid] += 1
                self_time[nid] += dur - frame[1]
                depth[nid] -= 1
                if depth[nid] == 0:
                    incl[nid] += dur
                if stack:
                    stack[-1][1] += dur

        wrapper.__wrapped__ = fn
        return wrapper

    def _hook_mul_trunc(self, a, b, cutoff):
        self.term_pairs += mul_trunc_term_pairs(a, b, cutoff)

    def _hook_hyp_sum(self, *args):
        self.hyp_terms += hyp_sum_terms(*args)

    def _hook_gf(self, sys2, m, n, i, k):
        self.gf.see(sys2, m, n, i, k)

    # -- results -----------------------------------------------------------

    def layer_metrics(self):
        """Per-layer metrics: name -> (value, unit)."""
        out = {}
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = (self.calls[nid], "count")
            out[f"{name}.s"] = (self.incl[nid], "s")
            out[f"{name}.self_s"] = (self.self_time[nid], "s")
        out["kernel.mul_trunc.term_pairs"] = (self.term_pairs, "count")
        out["kernel.hyp_sum.terms"] = (self.hyp_terms, "count")
        gf_calls = self.calls[self.names.index("bivariate.monic_eval_gf")]
        out["bivariate.monic_eval_gf.distinct"] = (self.gf.distinct, "count")
        out["bivariate.monic_eval_gf.useful_ratio"] = (
            self.gf.distinct / gf_calls if gf_calls else 0.0,
            "ratio",
        )
        out["bivariate.gf_series.builds"] = (self.gf.builds, "count")
        out["bivariate.gf_series.builds_per_point"] = (
            self.gf.builds / self.gf.points if self.gf.points else 0.0,
            "ratio",
        )
        info = numerics.pochhammer.cache_info()
        out["numerics.pochhammer.hits"] = (info.hits, "count")
        out["numerics.pochhammer.misses"] = (info.misses, "count")
        out["numerics.pochhammer.entries"] = (info.currsize, "count")
        return out

    def write_spans(self, path):
        """All spans as gzipped CSV: id,name,parent,start_s,end_s."""
        with gzip.open(path, "wt", compresslevel=1, newline="") as out:
            out.write("id,name,parent,start_s,end_s\n")
            names = self.names
            for idx in range(len(self.span_start)):
                out.write(
                    f"{idx},{names[self.span_name[idx]]},{self.span_parent[idx]},"
                    f"{self.span_start[idx]!r},{self.span_end[idx]!r}\n"
                )

