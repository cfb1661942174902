"""Composite Gauss-Legendre node layouts, discrete orthogonal polynomials and
goodness-of-fit statistics.

The density engines integrate on fixed composite grids: each layout is a
list of panel edges with one Gauss-Legendre rule per panel, so callers
evaluate vectorized integrands over the whole grid at once.  The
determinants inside the double-integral densities factorize over the
orthogonal polynomials of the quadrature-discretized weight, built here by
the Stieltjes recurrence; `halfline_series` turns their z-dependent inner
sums into power series in 1 - z, so a z grid costs one matrix product.

Everything here is pure and safe for concurrent use.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.special import gammaln


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


def halfline_unit_grids(decay_rate: float, power_hint: float, x_nodes: int, t_nodes: int):
    """The (x, t) layout of the half-line engines: (x, wx, t, wt).

    x is `halfline_grid` for the envelope x^power_hint e^{-decay_rate x}; t
    is `unit_grid` graded toward 0 with one dyadic level per doubling of the
    x range (2 to 40 levels), since e^{-x t} varies on the scale t ~ 1/x.
    """
    x, wx = halfline_grid(decay_rate, power_hint=power_hint, nodes_per_panel=x_nodes)
    levels = int(np.clip(math.ceil(math.log2(max(x[-1], 2.0))), 2, 40))
    t, wt = unit_grid(t_nodes, grade_left=levels)
    return x, wx, t, wt


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


def discrete_orthogonal_basis(x: np.ndarray, t: np.ndarray, wt: np.ndarray,
                              weight_power: float, degree: int):
    """Monic orthogonal polynomials of t^p (1-t)^2 e^{-x t} dt, per x node.

    Runs the Stieltjes recurrence on the quadrature-discretized measure, which
    sidesteps the catastrophic conditioning of the equivalent Hankel moment
    matrices.  Returns (log_norm_product, row_shift, logwq, p_deg) where

      * logwq[ix, q] = log w - row_shift[ix], the log normalized weights,
      * p_deg[ix, q] = values of the monic degree-`degree` polynomial,
      * log_norm_product[ix] = log prod_{k<degree} h_k of the true measure,

    so that det[t A^(p) - A^(p+1)]_{degree x degree} =
    exp(log_norm_product) * p_deg(t) for every x.  The discrete orthogonality
    sum_q exp(logwq_q) t_q^r p_deg_q = 0 (r < degree) holds to rounding, so
    callers can cancel the polynomial part of smooth integrands exactly at
    grid level.
    """
    with np.errstate(divide="ignore"):
        logw = (
            np.log(wt)[None, :]
            + weight_power * np.log(t)[None, :]
            + 2.0 * np.log1p(-t)[None, :]
            - x[:, None] * t[None, :]
        )
    shift = np.max(logw, axis=1)
    logwq = logw - shift[:, None]
    wq = np.exp(logwq)

    nx = x.size
    log_norm = np.zeros(nx)
    p_km1 = np.zeros_like(wq)
    p_k = np.ones_like(wq)
    h_prev = None
    for k in range(degree):
        h_k = np.einsum("xq,xq->x", wq, p_k * p_k)
        a_k = np.einsum("xq,xq->x", wq * t[None, :], p_k * p_k) / h_k
        log_norm += np.log(h_k)
        if k == 0:
            p_next = (t[None, :] - a_k[:, None]) * p_k
        else:
            b_k = h_k / h_prev
            p_next = (t[None, :] - a_k[:, None]) * p_k - b_k[:, None] * p_km1
        h_prev = h_k
        p_km1, p_k = p_k, p_next
    log_norm += degree * shift
    return log_norm, shift, logwq, p_k


@dataclass(frozen=True)
class HalfLineSeries:
    """sum_x exp(log_scale[x] + bx[x] z) sum_k coef[x, k] (1 - z)^powers[k]."""

    bx: np.ndarray
    powers: np.ndarray
    log_scale: np.ndarray
    coef: np.ndarray

    def __call__(self, zs: np.ndarray) -> np.ndarray:
        out, chunk = np.empty(zs.size), 256  # z chunks keep the (x, z) arrays small
        for lo in range(0, zs.size, chunk):
            zc = zs[lo : lo + chunk]
            logv = self.log_scale[:, None] + np.outer(self.bx, zc)
            top = np.max(logv, axis=0)
            inner = self.coef @ (1.0 - zc) ** self.powers[:, None]
            out[lo : lo + chunk] = np.einsum("xz,xz->z", inner, np.exp(logv - top)) * np.exp(top)
        return out


def halfline_series(x, t, a, log_row, beta: float, r0: int, const=0.0):
    """Power series in u = 1 - z of const[x] u^r0 + sum_q a[x, q] sum_{r >= r0}
    (beta x u t_q)^r / r!, scaled by exp(log_row[x]).

    The coefficients (beta x)^r / r! sum_q a[x, q] t_q^r take one matrix
    product.  Weighted by exp(log_row + beta x z), z in [0, 1], the (x, q) term
    is at most exp(lb), lb = log_row + beta x + log|a| + r0 log t_q, because
    e^-v v^r / r! <= 1.  Terms with lb below 1e-20 of the largest are dropped;
    the series stops where Chernoff's bound on P(Poisson(beta x t_q) >= R) puts
    every kept tail below that threshold too.  Rows are rescaled by exact powers
    of two, so the u^r0 coefficient keeps its digits where const cancels it.
    Raises ArithmeticError when the bound is not finite or needs more than
    2 * t.size terms, so the coefficients never outgrow two (x, t) arrays.
    """
    bx, ln2 = beta * x, math.log(2.0)
    with np.errstate(divide="ignore"):
        lb0 = (log_row + bx)[:, None] + np.log(np.abs(a))
        lb = lb0 + r0 * np.log(t)
    thr = np.max(lb) + math.log(1e-20)
    keep = lb >= thr
    lam, lb0 = (bx[:, None] * t)[keep], lb0[keep]
    # Chernoff: P <= e^-lam (e lam / r)^r for r > lam; a non-finite thr never passes.
    powers = range(r0 + 1, r0 + 2 * t.size + 1)
    k = bisect.bisect_left(powers, True, key=lambda r: np.max(
        lb0 + np.where(r > lam, r * (1.0 + np.log(lam / r)) - lam, 0.0), initial=-np.inf) < thr)
    if k == len(powers):
        raise ArithmeticError("the moment series of the inner integral cannot be bounded")
    r = np.arange(r0, powers[k])
    expo = r * np.log(bx)[:, None] - gammaln(r + 1.0)  # (beta x)^r / r! = 2^k2 e^(expo - k2 ln 2)
    k2 = np.floor(expo / ln2)
    mant = (np.where(keep, a, 0.0) @ t[:, None] ** r) * np.exp(expo - k2 * ln2)
    mant[:, 0] += np.ldexp(const, -k2[:, 0].astype(int))
    big = np.max(np.where(mant != 0.0, k2 + np.frexp(mant)[1], -np.inf), axis=1)  # -inf: empty row
    coef = np.ldexp(mant, (k2 - np.nan_to_num(big, neginf=0.0)[:, None]).astype(int))
    return HalfLineSeries(bx, r, log_row + ln2 * big, coef)


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
