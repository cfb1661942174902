"""Composite Gauss-Legendre node layouts and goodness-of-fit statistics.

The density engines integrate on fixed composite grids: each layout is a
list of panel edges with one Gauss-Legendre rule per panel, so callers
evaluate vectorized integrands over the whole grid at once.

Everything here is pure and safe for concurrent use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np


class EmptySample(ValueError):
    """A goodness-of-fit test was handed an empty sample."""


@lru_cache(maxsize=64)
def _gl_rule(n: int):
    # Nodes/weights on [0, 1].
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def gauss_legendre_panel(a: float, b: float, n: int):
    """Gauss-Legendre nodes and weights mapped onto [a, b]."""
    x, w = _gl_rule(n)
    return a + (b - a) * x, (b - a) * w


def _panels(edges, nodes_per_panel: int):
    """One Gauss-Legendre rule per [edges[i], edges[i+1]], concatenated."""
    rules = [gauss_legendre_panel(a, b, nodes_per_panel) for a, b in zip(edges[:-1], edges[1:])]
    return np.concatenate([x for x, _ in rules]), np.concatenate([w for _, w in rules])


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
    x^power_hint e^{-decay_rate x} has dropped rel_tail below its peak; panel
    widths start at min(1, 1/decay_rate) and grow geometrically.
    """
    x_end = envelope_end(decay_rate, power_hint, rel_tail)
    width = min(1.0, 1.0 / decay_rate, x_end / 8.0)
    edges = [0.0]
    while edges[-1] < x_end:
        edges.append(min(edges[-1] + width, x_end))
        width *= growth
    return _panels(edges, nodes_per_panel)


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
    return _panels(sorted(set(edges)), nodes_per_panel)


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
    return _panels(edges, nodes_per_panel)


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
