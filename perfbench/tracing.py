"""Spans around the package's public functions, and per-layer probes.

The tracer replaces module attributes with wrappers for the duration of a
traced run.  The package looks these functions up through their modules at
call time (`sd.density_values`, `numkit.ks_test`, the lambdas of the pdf
dispatch), so calls made inside the package are recorded too.  `specfun`
and `_kernels` have no public entry on these paths; their time shows as self
time of the calling span.  All wrapped calls happen on the main thread; the
sampler's worker threads run inside one `sample_wishart` span.

Per-layer metrics come from two sources: spans and counts of the traced
workload, and a fixed probe pass run after it, which times single layers on
models (theta = 12) that no workload draws.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter, defaultdict

import numpy as np

from spiked_eigvec import cli, montecarlo, numkit
from spiked_eigvec import spike_density as sd
from spiked_eigvec import variant_density as vd

MODULES = {
    "cli": cli,
    "spike_density": sd,
    "variant_density": vd,
    "montecarlo": montecarlo,
    "numkit": numkit,
}
TRACED = (
    "cli.main",
    "spike_density.density_values",
    "spike_density.cdf_grid",
    "spike_density.model_cdf_fn",
    "spike_density.pdf_z1",
    "spike_density.pdf_z2",
    "spike_density.pdf_zn",
    "variant_density.pdf_w1_real",
    "variant_density.pdf_y1_singular",
    "variant_density.pdf_yn_singular",
    "montecarlo.sample_wishart",
    "numkit.ks_test",
)


class Tracer:
    """In-memory span recorder: one [name, start, end, parent index] per call."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def wrap(self, name, fn):
        spans, stack = self.spans, self._open

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()

        return traced

    def counted(self, key, fn):
        counts = self.counts

        def counting(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counting

    def _patches(self):
        def density_values(statistic, model, zs, *args, **kwargs):
            self.counts["density_values.points"] += int(np.size(zs))
            return original["spike_density.density_values"](statistic, model, zs, *args, **kwargs)

        def model_cdf_fn(*args, **kwargs):
            return self.counted("model_cdf.calls", original["spike_density.model_cdf_fn"](*args, **kwargs))

        original = {name: getattr(MODULES[name.split(".")[0]], name.split(".")[1]) for name in TRACED}
        inner = {"spike_density.density_values": density_values, "spike_density.model_cdf_fn": model_cdf_fn}
        return original, {name: self.wrap(name, inner.get(name, fn)) for name, fn in original.items()}

    @contextlib.contextmanager
    def installed(self):
        """Replace the traced functions by recording wrappers; restore them on exit."""
        original, wrapped = self._patches()
        try:
            for name, fn in wrapped.items():
                mod, attr = name.split(".")
                setattr(MODULES[mod], attr, fn)
            yield self
        finally:
            for name, fn in original.items():
                mod, attr = name.split(".")
                setattr(MODULES[mod], attr, fn)

    def summary(self) -> dict:
        """Per span name: calls, total seconds, and self seconds (minus child spans)."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for (name, start, end, _), inner in zip(self.spans, child):
            row = out[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - inner
        return dict(out)


def _noop(x):
    return x


def recorder_cost(calls: int = 20000) -> tuple[float, float]:
    """Seconds one span and one counted call add over a bare call."""

    def loop(fn):
        t0 = time.perf_counter()
        for i in range(calls):
            fn(i)
        return (time.perf_counter() - t0) / calls

    bare = loop(_noop)
    scratch = Tracer()
    return loop(scratch.wrap("noop", _noop)) - bare, loop(scratch.counted("noop", _noop)) - bare


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


PROBE_THETA = 12.0
PROBE_POINTS = 64


def probe_layers() -> dict:
    """Time single layers on fixed models outside every workload."""
    zs = np.linspace(0.01, 0.99, PROBE_POINTS)
    full = np.linspace(1e-4, 1.0 - 1e-4, 501)
    out = {}

    def engine(key, fn, model):
        cold = _timed(lambda: fn(model, 0.5))
        warm = _timed(lambda: fn(model, 0.5))
        out[f"{key}.prepare_s"] = (cold - warm, "s")
        per_point = _timed(lambda: fn(model, zs)) / zs.size
        return per_point

    grid = engine("spike_density.pdf_zn", sd.pdf_zn, sd.SpikedModel(6, 8, PROBE_THETA))
    out["spike_density.pdf_zn.grid_s_per_point"] = (grid, "s")
    closed = sum(_timed(lambda: sd.pdf_zn(sd.SpikedModel(n, n + 2, PROBE_THETA), full)) for n in (3, 4))
    out["spike_density.pdf_zn.closed_s_per_point"] = (closed / (2 * full.size), "s")
    z2 = engine("spike_density.pdf_z2", sd.pdf_z2, sd.SpikedModel(4, 5, PROBE_THETA))
    out["spike_density.pdf_z2.s_per_point"] = (z2, "s")
    yn_model = sd.SpikedModel(5, 4, PROBE_THETA, "singular")
    yn = engine("variant_density.pdf_yn_singular", vd.pdf_yn_singular, yn_model)
    out["variant_density.pdf_yn_singular.s_per_point"] = (yn, "s")
    for alpha in (2, 3, 4, 5):
        model = sd.SpikedModel(8, 8 + alpha, PROBE_THETA)
        out[f"spike_density.pdf_z1.s.alpha{alpha}"] = (_timed(lambda: sd.pdf_z1(model, full)), "s")

    def draws(n, m, variant, count, workers=None):
        model = sd.SpikedModel(n, m, PROBE_THETA, variant)
        spike = montecarlo.make_spike(n, 0, real=variant == "real")
        return _timed(lambda: montecarlo.sample_wishart(model, spike, 1, count, workers=workers))

    for n, m, variant, count in ((3, 5, "complex", 8192), (2, 5, "real", 8192),
                                 (4, 3, "singular", 8192), (30, 32, "complex", 4096)):
        secs = draws(n, m, variant, count)
        out[f"montecarlo.sample_wishart.draws_per_s.n{n}_{variant}"] = (count / secs, "draws/s")
    one_worker = draws(30, 32, "complex", 4096, workers=1)
    default = 4096 / out["montecarlo.sample_wishart.draws_per_s.n30_complex"][0]
    out["montecarlo.sample_wishart.speedup_2w"] = (one_worker / default, "ratio")
    return out


def per_layer(tracer: Tracer, probes: dict, span_cost: float, count_cost: float) -> dict:
    """Every per-layer metric of a traced run."""
    summary = tracer.summary()

    def mean(name, key="total_s"):
        row = summary.get(name, {"calls": 0})
        return row[key] / row["calls"] if row["calls"] else 0.0

    ks_calls = summary.get("numkit.ks_test", {"calls": 0})["calls"]
    cdf_calls = tracer.counts["model_cdf.calls"]
    out = {
        "cli.main.self_s": (mean("cli.main", "self_s"), "s"),
        "spike_density.density_values.points": (tracer.counts["density_values.points"], "count"),
        "spike_density.cdf_grid.s": (mean("spike_density.cdf_grid"), "s"),
        "spike_density.model_cdf_fn.s": (mean("spike_density.model_cdf_fn"), "s"),
        "numkit.ks_test.s": (mean("numkit.ks_test"), "s"),
        "numkit.ks_test.cdf_evals": (cdf_calls / ks_calls if ks_calls else 0, "count"),
        "trace.spans": (len(tracer.spans), "count"),
        "trace.overhead_s": (len(tracer.spans) * span_cost + cdf_calls * count_cost, "s"),
    }
    out.update(probes)
    return out
