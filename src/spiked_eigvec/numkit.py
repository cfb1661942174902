"""Overflow-safe determinants, 1-D quadrature, and goodness-of-fit statistics.

The quadrature routines are adaptive Gauss-Legendre: panels whose value does
not survive a node-count doubling are bisected, which grades the mesh toward
integrable endpoint singularities or sharp exponential boundary layers.  The
`max_panels` budget bounds the refinement depth of any one panel chain.

Everything here is pure and safe for concurrent use; integrand callbacks may
be evaluated on whole node arrays at once and must accept ndarray input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np


class QuadratureFailure(RuntimeError):
    """Adaptive quadrature exhausted its panel budget without converging."""


class EmptySample(ValueError):
    """A goodness-of-fit test was handed an empty sample."""


@dataclass(frozen=True)
class ScaledDeterminant:
    """Sign and natural-log magnitude of a determinant.

    `log_magnitude` is meaningless when sign == 0.  The reconstructed value
    sign * exp(log_magnitude) equals the determinant whenever representable.
    """

    sign: int
    log_magnitude: float

    @property
    def value(self) -> float:
        if self.sign == 0:
            return 0.0
        return self.sign * math.exp(self.log_magnitude)


@dataclass(frozen=True)
class QuadratureSpec:
    """Node counts, tolerances, and truncation policy for the integrators."""

    unit_nodes: int = 128
    tail_epsilon: float = 1e-12
    max_panels: int = 64
    panel_growth: float = 1.5

    def __post_init__(self):
        if self.unit_nodes < 8:
            raise ValueError("unit_nodes must be at least 8")
        if self.tail_epsilon <= 0:
            raise ValueError("tail_epsilon must be positive")
        if self.max_panels < 1:
            raise ValueError("max_panels must be positive")
        if self.panel_growth <= 1.0:
            raise ValueError("panel_growth must exceed 1")


DEFAULT_SPEC = QuadratureSpec()


def scaled_det(matrix, d: int | None = None) -> ScaledDeterminant:
    """LU-based determinant in log-scaled form.

    A 0x0 matrix (d = 0) is the empty determinant and evaluates to exactly 1.
    Exact singularity is reported as sign 0 rather than an error.
    """
    a = np.asarray(matrix, dtype=float)
    if a.size == 0:
        a = a.reshape(0, 0)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("scaled_det requires a square matrix")
    if d is not None and d != a.shape[0]:
        raise ValueError("declared dimension does not match the matrix")
    if a.shape[0] == 0:
        return ScaledDeterminant(sign=1, log_magnitude=0.0)
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    sign, logmag = np.linalg.slogdet(a)
    if sign == 0:
        return ScaledDeterminant(sign=0, log_magnitude=-math.inf)
    return ScaledDeterminant(sign=int(round(sign)), log_magnitude=float(logmag))


@lru_cache(maxsize=64)
def _gl_rule(n: int):
    # Nodes/weights on [0, 1].
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def gauss_legendre_panel(a: float, b: float, n: int):
    """Gauss-Legendre nodes and weights mapped onto [a, b]."""
    x, w = _gl_rule(n)
    return a + (b - a) * x, (b - a) * w


def _panel_value(f, a, b, n):
    x, w = gauss_legendre_panel(a, b, n)
    return float(np.dot(w, np.asarray(f(x), dtype=float)))


def _adaptive_interval(f, a: float, b: float, spec: QuadratureSpec) -> float:
    """Adaptive bisection on [a, b] with a refinement-depth budget."""
    coarse = _panel_value(f, a, b, spec.unit_nodes)
    fine = _panel_value(f, a, b, 2 * spec.unit_nodes)
    # (value, error, left, right, depth)
    panels = [(fine, abs(fine - coarse), a, b, 0)]
    total = fine
    for _ in range(200_000):
        scale = max(abs(total), 1e-300)
        err = sum(p[1] for p in panels)
        if err <= spec.tail_epsilon * scale:
            return total
        worst = max(range(len(panels)), key=lambda i: panels[i][1])
        val, perr, lo, hi, depth = panels.pop(worst)
        if depth >= spec.max_panels:
            if perr <= 10 * spec.tail_epsilon * scale:
                # Deepest panel stalled within an order of the target;
                # remaining panels may still converge.
                panels.append((val, 0.0, lo, hi, depth))
                total = sum(p[0] for p in panels)
                continue
            raise QuadratureFailure(
                f"panel [{lo:g},{hi:g}] did not converge at depth {depth}"
            )
        mid = 0.5 * (lo + hi)
        for aa, bb in ((lo, mid), (mid, hi)):
            c = _panel_value(f, aa, bb, spec.unit_nodes)
            fn = _panel_value(f, aa, bb, 2 * spec.unit_nodes)
            panels.append((fn, abs(fn - c), aa, bb, depth + 1))
        total = sum(p[0] for p in panels)
    raise QuadratureFailure("adaptive refinement did not terminate")


def integrate_unit(f, spec: QuadratureSpec = DEFAULT_SPEC) -> float:
    """Integral of f over (0, 1).

    Endpoint singularities of order > -1 are handled by the dyadic
    subdivision toward the offending endpoint.
    """
    return _adaptive_interval(f, 0.0, 1.0, spec)


def integrate_halfline(f, decay_rate: float, spec: QuadratureSpec = DEFAULT_SPEC) -> float:
    """Integral of f over (0, inf) for integrands with an exponential envelope.

    `decay_rate` is the rate lambda of the known envelope
    |f(x)| <= C x^k e^{-lambda x}; panels grow geometrically until the
    envelope tail bound falls below tail_epsilon relative to the estimate.
    """
    if decay_rate <= 0:
        raise ValueError("decay_rate must be positive")
    width = min(1.0, 1.0 / decay_rate)
    lo = 0.0
    total = 0.0
    prev_contrib = math.inf
    for _ in range(spec.max_panels):
        hi = lo + width
        contrib = _adaptive_interval(f, lo, hi, spec)
        total += contrib
        scale = max(abs(total), 1e-300)
        endpoint = float(np.max(np.abs(np.asarray(f(np.array([hi])), dtype=float))))
        tail_bound = 2.0 * endpoint / decay_rate
        past_peak = abs(contrib) < abs(prev_contrib)
        if (
            past_peak
            and abs(contrib) <= spec.tail_epsilon * scale
            and tail_bound <= spec.tail_epsilon * scale
        ):
            return total
        prev_contrib = contrib
        lo = hi
        width *= spec.panel_growth
    raise QuadratureFailure("half-line truncation did not converge within max_panels")


def envelope_end(decay_rate: float, power_hint: float = 0.0, rel_tail: float = 1e-18) -> float:
    """Truncation point where x^k e^{-lambda x} drops rel_tail below its peak."""
    lam = decay_rate
    k = max(power_hint, 0.0)
    peak = max(k / lam, 1e-6)
    log_peak = k * math.log(peak) - lam * peak if k > 0 else 0.0
    x_end = peak
    target = log_peak + math.log(rel_tail)
    while (k * math.log(x_end) if k > 0 else 0.0) - lam * x_end > target:
        x_end *= 1.25
    return x_end * 1.05


def halfline_grid(
    decay_rate: float,
    power_hint: float = 0.0,
    nodes_per_panel: int = 48,
    growth: float = 1.7,
    rel_tail: float = 1e-18,
):
    """Fixed geometric-panel node layout for int_0^inf x^k e^{-lambda x} ... dx.

    Returns (nodes, weights) covering [0, x_end] where the envelope
    x^power_hint e^{-decay_rate x} has dropped rel_tail below its peak.  This
    is the same panel policy integrate_halfline follows, unrolled so callers
    can evaluate vectorized integrands over the whole grid at once.
    """
    lam = decay_rate
    x_end = envelope_end(decay_rate, power_hint, rel_tail)
    width = min(1.0, 1.0 / lam, x_end / 8.0)
    nodes, weights = [], []
    lo = 0.0
    while lo < x_end:
        hi = min(lo + width, x_end)
        x, w = gauss_legendre_panel(lo, hi, nodes_per_panel)
        nodes.append(x)
        weights.append(w)
        lo = hi
        width *= growth
    return np.concatenate(nodes), np.concatenate(weights)


def unit_grid(nodes_per_panel: int = 32, grade_left: int = 0, grade_right: int = 0):
    """Composite Gauss-Legendre layout on [0, 1] with dyadic endpoint grading.

    grade_left/grade_right give the number of dyadic refinement levels toward
    the respective endpoint (0 keeps a single panel on that side).
    """
    edges = [0.0]
    for lev in range(grade_left, 0, -1):
        edges.append(2.0 ** (-lev))
    if not grade_right:
        edges.append(1.0)
    else:
        if edges[-1] < 0.5:
            edges.append(0.5)
        for lev in range(1, grade_right + 1):
            edges.append(1.0 - 2.0 ** (-lev - 1))
        edges.append(1.0)
    edges = sorted(set(edges))
    nodes, weights = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        x, w = gauss_legendre_panel(a, b, nodes_per_panel)
        nodes.append(x)
        weights.append(w)
    return np.concatenate(nodes), np.concatenate(weights)


def geometric_grid(
    start: float,
    end: float,
    nodes_per_panel: int = 24,
    ratio: float = 2.0,
):
    """Panels [0, start], [start, start*ratio], ... covering [0, end].

    Used where the integrand carries structure across many decades (for
    example a Cauchy kernel 1/(w+u) with u spanning [1e-6, 1e2]).
    """
    edges = [0.0, start]
    while edges[-1] < end:
        edges.append(min(edges[-1] * ratio, end))
    nodes, weights = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        x, w = gauss_legendre_panel(a, b, nodes_per_panel)
        nodes.append(x)
        weights.append(w)
    return np.concatenate(nodes), np.concatenate(weights)


@dataclass
class GofReport:
    """Kolmogorov-Smirnov comparison of a sample against a model c.d.f."""

    ks_statistic: float
    sample_count: int
    critical_value_1pct: float
    passed: bool
    histogram: list = field(default_factory=list)
    qq: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "ks_statistic": self.ks_statistic,
            "sample_count": self.sample_count,
            "critical_value_1pct": self.critical_value_1pct,
            "passed": self.passed,
            "histogram": [list(row) for row in self.histogram],
            "qq": [list(row) for row in self.qq],
        }


def ks_test(samples, model_cdf) -> GofReport:
    """Two-sided KS distance of a sample against a model c.d.f.

    The critical value is the asymptotic 1% Kolmogorov point 1.628/sqrt(N).
    The attached histogram uses Freedman-Diaconis bins clipped to the support
    and normalized as a density; the Q-Q table holds 99 evenly spaced
    probability levels, each found by 80 bisection steps run on all levels
    at once.  `model_cdf` must map an array to an array of the same shape.
    """
    arr = np.sort(np.asarray(samples, dtype=float))
    n = arr.size
    if n == 0:
        raise EmptySample("ks_test requires at least one sample")

    def cdf_at(x: np.ndarray) -> np.ndarray:
        out = np.asarray(model_cdf(x), dtype=float)
        if out.shape != x.shape:
            raise ValueError(f"model_cdf returned shape {out.shape} for input shape {x.shape}")
        return out

    cdf_vals = cdf_at(arr)
    i = np.arange(1, n + 1, dtype=float)
    d_plus = np.max(i / n - cdf_vals)
    d_minus = np.max(cdf_vals - (i - 1.0) / n)
    d = float(max(d_plus, d_minus))
    critical = 1.628 / math.sqrt(n)

    support_hi = 1.0 if arr[-1] <= 1.0 else float(arr[-1])
    support_lo = 0.0
    q25, q75 = np.percentile(arr, [25.0, 75.0])
    iqr = q75 - q25
    width = 2.0 * iqr * n ** (-1.0 / 3.0)
    if width <= 0:
        width = (support_hi - support_lo) / 32.0
    nbins = int(np.clip(math.ceil((support_hi - support_lo) / width), 4, 4096))
    edges = np.linspace(support_lo, support_hi, nbins + 1)
    counts, edges = np.histogram(arr, bins=edges)
    dens = counts / (n * np.diff(edges))
    histogram = [
        (float(edges[k]), float(edges[k + 1]), float(dens[k])) for k in range(nbins)
    ]

    levels = np.arange(1, 100) / 100.0
    emp = np.quantile(arr, levels)
    lo = np.full(levels.size, support_lo)
    hi = np.full(levels.size, support_hi)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        below = cdf_at(mid) < levels
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    theo = 0.5 * (lo + hi)
    qq = [(float(t), float(e)) for t, e in zip(theo, emp)]

    return GofReport(
        ks_statistic=d,
        sample_count=int(n),
        critical_value_1pct=critical,
        passed=d <= critical,
        histogram=histogram,
        qq=qq,
    )
