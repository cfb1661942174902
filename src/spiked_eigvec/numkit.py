"""Composite Gauss-Legendre node layouts, discrete orthogonal polynomials and
goodness-of-fit statistics.

The density engines integrate on fixed composite grids: each layout is a
list of panel edges with one Gauss-Legendre rule per panel, so callers
evaluate vectorized integrands over the whole grid at once.  The
determinants inside the double-integral densities factorize over the
orthogonal polynomials of the quadrature-discretized weight, built here by
the Stieltjes recurrence.  `halfline_basis` builds the half-line engines'
grids, basis and outer weight, and `halfline_series` turns their inner sums
into power series in u = 1 - z, so a z grid costs one matrix product.

Everything here is pure and safe for concurrent use.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import gammaln


class EmptySample(ValueError):
    """A goodness-of-fit test was handed an empty sample."""


@lru_cache(maxsize=64)
def _gl_rule(n: int):
    """Gauss-Legendre nodes and weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


@lru_cache(maxsize=4)
def _gl_map(n: int):
    """The (n + 1, n) map from values at `_gl_rule(n)`'s nodes to the power coefficients in
    t = 2x - 1 of their interpolant integrated from x = 0 (`leg2poly`, all columns at once)."""
    leg = np.polynomial.legendre
    c = 0.5 * leg.legint(np.linalg.inv(leg.legvander(leg.leggauss(n)[0], n - 1)), lbnd=-1)
    c0, c1 = np.zeros_like(c), np.zeros_like(c)
    c0[0], c1[0] = c[-2], c[-1]
    for i in range(n, 1, -1):  # np.roll multiplies by t: c1's top row is still zero
        c0, c1 = -(c1 * (i - 1)) / i, c0 + np.roll(c1, 1, axis=0) * (2 * i - 1) / i
        c0[0] += c[i - 2]
    return c0 + np.roll(c1, 1, axis=0)


def _panels(edges, nodes_per_panel: int):
    """One Gauss-Legendre rule per [edges[i], edges[i+1]], concatenated
    (edges = [a, b] gives the rule on [a, b])."""
    x, w = _gl_rule(nodes_per_panel)
    a, b = np.asarray(edges[:-1], dtype=float)[:, None], np.asarray(edges[1:], dtype=float)[:, None]
    return (a + (b - a) * x).ravel(), ((b - a) * w).ravel()


# The half-line layouts: panel widths grow by HALFLINE_GROWTH, and a layout
# ends where its envelope has dropped ENVELOPE_REL_TAIL below its peak.
# geometric_grid's panel edges grow by GEOMETRIC_RATIO.
HALFLINE_GROWTH, ENVELOPE_REL_TAIL, GEOMETRIC_RATIO = 1.7, 1e-18, 2.0


def envelope_end(decay_rate: float, power_hint: float) -> float:
    """Truncation point where x^k e^{-lambda x}, k = power_hint > 0, drops
    ENVELOPE_REL_TAIL below its peak."""
    lam, k = decay_rate, power_hint
    peak = max(k / lam, 1e-6)
    target = k * math.log(peak) - lam * peak + math.log(ENVELOPE_REL_TAIL)
    x_end = peak
    while k * math.log(x_end) - lam * x_end > target:
        x_end *= 1.25
    return x_end * 1.05


def halfline_grid(decay_rate: float, power_hint: float, nodes_per_panel: int):
    """Fixed geometric-panel node layout for int_0^inf x^k e^{-lambda x} ... dx.

    Returns (nodes, weights) covering [0, envelope_end(decay_rate,
    power_hint)]; panel widths start at min(1, 1/decay_rate) and grow
    geometrically.
    """
    x_end = envelope_end(decay_rate, power_hint)
    width = min(1.0, 1.0 / decay_rate, x_end / 8.0)
    edges = [0.0]
    while edges[-1] < x_end:
        edges.append(min(edges[-1] + width, x_end))
        width *= HALFLINE_GROWTH
    return _panels(edges, nodes_per_panel)


def unit_grid(nodes_per_panel: int = 32, grade_left: int = 0, grade_right: int = 0):
    """Composite Gauss-Legendre layout on [0, 1] with dyadic endpoint grading.

    grade_left/grade_right give the number of dyadic refinement levels toward
    the respective endpoint (0 keeps a single panel on that side).  The panel
    edges are 0, 1, 2^-k for k = 1..grade_left and, with right grading, 1/2
    and 1 - 2^-(k+1) for k = 1..grade_right.
    """
    edges = {0.0, 1.0, *(2.0**-lev for lev in range(1, grade_left + 1))}
    if grade_right:
        edges |= {0.5, *(1.0 - 2.0 ** (-lev - 1) for lev in range(1, grade_right + 1))}
    return _panels(sorted(edges), nodes_per_panel)


# Gauss-Legendre nodes per panel of the half-line engines' x and t layouts.
X_NODES, T_NODES = 32, 24


def halfline_basis(beta: float, log_pref: float, power: float, grid_power: float,
                   weight_power: float, degree: int) -> dict:
    """The (x, t) arrays of a half-line engine (zn, yn_sing).

    x is `halfline_grid` for the envelope x^grid_power e^{-(1-beta) x}; t is
    `unit_grid` graded toward 0 with one dyadic level per doubling of the x
    range (2 to 40 levels), since e^{-x t} varies on the scale t ~ 1/x.  The
    basis is `discrete_orthogonal_basis(x, t, wt, weight_power, degree)`, and
    log_row = log_pref + power log x - (1-beta) x + log wx + log_norm + shift
    is the log outer weight at z = 1, which `halfline_series` scales by
    e^{-beta x (1-z)}: no term of size x cancels another.  Returns the dict
    (x, t, wt, logwq, p_deg, log_norm, shift, log_row).
    """
    x, wx = halfline_grid(1.0 - beta, grid_power, X_NODES)
    levels = int(np.clip(math.ceil(math.log2(max(x[-1], 2.0))), 2, 40))
    t, wt = unit_grid(T_NODES, grade_left=levels)
    log_norm, shift, logwq, p_deg = discrete_orthogonal_basis(x, t, wt, weight_power, degree)
    log_row = log_pref + power * np.log(x) - (1.0 - beta) * x + np.log(wx) + log_norm + shift
    return dict(x=x, t=t, wt=wt, logwq=logwq, p_deg=p_deg, log_norm=log_norm, shift=shift,
                log_row=log_row)


def geometric_grid(start: float, end: float, nodes_per_panel: int):
    """Panels [0, start], [start, start * GEOMETRIC_RATIO], ... covering [0, end].

    Used where the integrand carries structure across many decades (for
    example the z2 w nodes, which meet the e^{-beta w z} of every z in [0, 1]).
    """
    edges = [0.0, start]
    while edges[-1] < end:
        edges.append(min(edges[-1] * GEOMETRIC_RATIO, end))
    return _panels(edges, nodes_per_panel)


# cauchy_proxies: first-kind Chebyshev nodes on [-1, 1] and their barycentric weights.
PROXY_NODES = 22
_PROXY_ANGLES = (2.0 * np.arange(PROXY_NODES) + 1.0) * math.pi / (2.0 * PROXY_NODES)
_PROXY_T = np.cos(_PROXY_ANGLES)
_PROXY_BARY = (-1.0) ** np.arange(PROXY_NODES) * np.sin(_PROXY_ANGLES)


def cauchy_proxies(u: np.ndarray, q: np.ndarray):
    """Proxy sources (uk, Q) with sum_u q[u] / (w + u) = sum_k Q[k] / (w + uk) for w >= 0.

    u > 0 is cut into dyadic bands [a 2^j, a 2^(j+1)] from a = min u.  Each
    occupied band gets PROXY_NODES first-kind Chebyshev nodes and Q = l^T q,
    where l holds the barycentric Lagrange weights of the band's sources on its
    nodes (the black-box FMM's anterpolation; Fong & Darve, J. Comput. Phys.
    228, 2009).  The pole u = -w <= 0 lies at least three half-widths from a
    band's centre, so the kernel's interpolation error is
    (3 + 2 sqrt 2)^-22 ~ 1.5e-17 of sum |q| / (w + u), for every w >= 0 at
    once.  q is (Nu,) or (Nu, k), and Q is (PROXY_NODES * bands,) or
    (PROXY_NODES * bands, k).  Raises ValueError unless every u is finite and
    positive.
    """
    u = np.asarray(u, dtype=float)
    if not np.all((u > 0.0) & (u < np.inf)):
        raise ValueError("Cauchy proxy sources need finite u > 0")
    a = np.min(u)
    mant, expo = np.frexp(u / a)  # u / a = 2 mant 2^(expo - 1): band expo - 1, t = 4 mant - 3
    order = np.argsort(expo.astype(np.int16), kind="stable")  # int16 sorts by radix
    counts = np.bincount(expo - 1)
    ends = np.cumsum(counts)
    ell = np.subtract.outer(_PROXY_T, 4.0 * mant[order] - 3.0)  # (nodes, sources), band-major
    with np.errstate(divide="ignore"):  # a source on a node: reset below
        np.divide(_PROXY_BARY[:, None], ell, out=ell)
    norm = np.ones(PROXY_NODES) @ ell
    on_node = np.flatnonzero(np.isinf(norm))  # that node is the source's only proxy
    ell[:, on_node], norm[on_node] = np.isinf(ell[:, on_node]), 1.0
    qs = (np.take(q, order, axis=0).T / norm).T
    uk = np.ldexp(0.5 * a * (_PROXY_T + 3.0), np.flatnonzero(counts)[:, None]).ravel()
    return uk, np.concatenate([ell[:, lo:hi] @ qs[lo:hi] for lo, hi in zip(ends - counts, ends) if hi > lo])


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
    grid level.  A norm h_k that is zero or not finite means the basis has
    broken down on this grid, and raises ArithmeticError.
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

    log_norm = np.zeros(x.size)
    p_km1, p_k, h_prev = np.zeros_like(wq), np.ones_like(wq), 1.0
    for k in range(degree):
        h_k = np.einsum("xq,xq->x", wq, p_k * p_k)
        if not np.all((h_k > 0.0) & (h_k < np.inf)):
            raise ArithmeticError(f"the orthogonal basis breaks down at degree {k}")
        a_k = np.einsum("xq,xq->x", wq * t[None, :], p_k * p_k) / h_k
        log_norm += np.log(h_k)
        b_k = h_k / h_prev  # h_{-1} = 1 and p_{-1} = 0: b_0 p_{-1} is exactly 0
        p_next = (t[None, :] - a_k[:, None]) * p_k - b_k[:, None] * p_km1
        h_prev = h_k
        p_km1, p_k = p_k, p_next
    log_norm += degree * shift
    return log_norm, shift, logwq, p_k


@dataclass(frozen=True)
class HalfLineSeries:
    """sum_x exp(log_scale[x] - bx[x] u) sum_k coef[x, k] u^powers[k], u = 1 - z.

    The outer weight lives in the polynomial's variable u, so near z = 1 no
    exponent of size bx cancels against another."""

    bx: np.ndarray
    powers: np.ndarray
    log_scale: np.ndarray
    coef: np.ndarray

    def __call__(self, zs: np.ndarray) -> np.ndarray:
        out, chunk = np.empty(zs.size), 256  # z chunks keep the (x, z) arrays small
        for lo in range(0, zs.size, chunk):
            u = 1.0 - zs[lo : lo + chunk]
            logv = self.log_scale[:, None] - np.outer(self.bx, u)
            top = np.max(logv, axis=0)
            inner = self.coef @ u ** self.powers[:, None]
            out[lo : lo + chunk] = np.einsum("xz,xz->z", inner, np.exp(logv - top)) * np.exp(top)
        return out


def halfline_series(x, t, a, log_row, beta: float, r0: int):
    """Power series in u = 1 - z of sum_q a[x, q] sum_{r >= r0} (beta x u t_q)^r
    / r!, weighted by exp(log_row[x] - beta x u): log_row is the log weight at
    z = 1.

    The coefficients (beta x)^r / r! sum_q a[x, q] t_q^r take one matrix
    product.  For u in [0, 1] the weighted (x, q) sum over r >= r0 is at most
    exp(lb), lb = log_row + log|a| + r0 log t_q + min(0, r0 log(beta x) -
    log r0!): with v = beta x u t_q, e^{-beta x u} sum_{r >= r0} v^r / r! is at
    most 1 and at most (beta x t_q)^r0 / r0!.  The last term keeps rows with
    small beta x from setting a scale that their terms never reach, which
    would stop the series early.  Terms with lb below 1e-20 of the largest
    are dropped; the series stops where Chernoff's bound on
    P(Poisson(beta x t_q) >= R) puts every kept tail below that threshold too.
    Rows are rescaled by exact powers of two, so the rescaling rounds no
    coefficient.
    Raises ArithmeticError when the bound is not finite or needs more than
    2 * t.size terms, so the coefficients never outgrow two (x, t) arrays.
    """
    bx, ln2 = beta * x, math.log(2.0)
    with np.errstate(divide="ignore"):
        lb0 = log_row[:, None] + np.log(np.abs(a))
        lb = lb0 + r0 * np.log(t) + np.minimum(0.0, r0 * np.log(bx) - math.lgamma(r0 + 1.0))[:, None]
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
    histogram: list
    qq: list


def ks_test(samples, model_cdf) -> GofReport:
    """Two-sided KS distance of a sample against a model c.d.f.

    The critical value is the asymptotic 1% Kolmogorov point 1.628/sqrt(N).
    The attached histogram uses Freedman-Diaconis bins clipped to the support
    and normalized as a density; the Q-Q table holds 99 evenly spaced
    probability levels, each bisected from the samples that bracket it down to
    adjacent floats.  `model_cdf` must be non-decreasing and shape-preserving.
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
    j = np.searchsorted(cdf_vals, levels)  # cdf_vals[j - 1] < level <= cdf_vals[j]
    lo, hi = np.append(support_lo, arr)[j], np.append(arr, support_hi)[j]
    for _ in range(80):
        if not np.any(np.nextafter(lo, hi) < hi):  # every bracket is two adjacent floats
            break
        mid = 0.5 * (lo + hi)  # on a collapsed bracket, lo or hi itself
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
