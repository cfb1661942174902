"""Reference routes the tests compare the library against.

None of this runs in the library or the CLI.  It holds the adaptive
Gauss-Legendre integrators and a log-scaled determinant, the scalar special
functions the references call (Gauss 2F1, Tricomi U, Bessel I) with their
term budgets, vectorized 2F1 and iterated Appell F2 sums in a chosen dtype,
the smallest-overlap coefficients by k-tuple enumeration and by mpmath
determinants, the closed alpha in {0, 1} smallest-overlap forms, the closed
n = 2, 3, 4 largest-overlap forms, the Hankel moment stacks of the
largest-overlap integrand, the nested adaptive quadrature of that double
integral, the per-z loops of the zn, yn_sing and z2 grid engines, the
quadrature c.d.f., the Mehta determinant identity and Bessel-determinant
normalization checks, the dense Wishart sampler with its Hermitian
eigendecomposition, the interlacing product for the sampler's overlaps, and
the Gram factors that feed a hand-built tridiagonal to the sampler.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.special import eval_genlaguerre, gammainc, gammaln, roots_genlaguerre

from spiked_eigvec.montecarlo import EigensolverFailure
from spiked_eigvec.numkit import _panels, discrete_orthogonal_basis
from spiked_eigvec.spike_density import (
    DomainError,
    SpikedModel,
    UnsupportedModel,
    _as_z_array,
    _clip_density,
    _max_overlap_log_prefactor,
    _statistic,
    _z1_series,
    _z2_basis,
    _zn_basis,
    _zn_support,
    cdf_nz1_asymptotic,
    density_values,
    pdf_zn,
)
from spiked_eigvec.variant_density import _yn_basis

SERIES_RTOL = 1e-12
# Term budgets of the series: each 2F1 and Bessel I sum, and the iterated F2
# of the closed n = 3, 4 largest-overlap forms.
SERIES_MAX_TERMS = 10_000
F2_MAX_TERMS = 60_000


class NoConvergence(ArithmeticError):
    """A hypergeometric series failed to converge within its term budget."""


class QuadratureFailure(RuntimeError):
    """Adaptive quadrature exhausted its panel budget without converging."""


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
# Total panels one adaptive integral may hold; the oracle tests peak near 80.
_PANEL_BUDGET = 1024


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


def _panel_value(f, a, b, n):
    x, w = _panels([a, b], n)
    return float(np.dot(w, np.asarray(f(x), dtype=float)))


def _adaptive_interval(f, a: float, b: float, spec: QuadratureSpec) -> float:
    """Adaptive bisection on [a, b] with a depth and a panel budget.

    The panel with the largest error estimate splits first (a heap keyed on
    error), and the value and error totals are kept running, so a step costs
    two panel rules plus O(log panels) bookkeeping.
    """

    def panel(lo, hi, depth):
        coarse = _panel_value(f, lo, hi, spec.unit_nodes)
        fine = _panel_value(f, lo, hi, 2 * spec.unit_nodes)
        return (-abs(fine - coarse), lo, hi, depth, fine)

    heap = [panel(a, b, 0)]
    total, err = heap[0][4], -heap[0][0]
    while True:
        scale = max(abs(total), 1e-300)
        if err <= spec.tail_epsilon * scale:
            return math.fsum(p[4] for p in heap)
        if len(heap) >= _PANEL_BUDGET:
            raise QuadratureFailure(f"no convergence within {_PANEL_BUDGET} panels")
        neg_err, lo, hi, depth, val = heapq.heappop(heap)
        if depth >= spec.max_panels:
            if -neg_err <= 10 * spec.tail_epsilon * scale:
                # Deepest panel stalled within an order of the target;
                # remaining panels may still converge.  The error total is
                # recounted exactly, so once every panel has stalled it is 0.
                heapq.heappush(heap, (0.0, lo, hi, depth, val))
                err = math.fsum(-p[0] for p in heap)
                continue
            raise QuadratureFailure(
                f"panel [{lo:g},{hi:g}] did not converge at depth {depth}"
            )
        mid = 0.5 * (lo + hi)
        halves = (panel(lo, mid, depth + 1), panel(mid, hi, depth + 1))
        for h in halves:
            heapq.heappush(heap, h)
        total += halves[0][4] + halves[1][4] - val
        err = max(err + neg_err - halves[0][0] - halves[1][0], 0.0)


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


def _nonpositive_int(x: float) -> bool:
    return x <= 0 and x == round(x)


def gauss_2f1(a: float, b: float, c: float, x):
    """Gauss hypergeometric function 2F1(a, b; c; x).

    Terminating cases (a or b a nonpositive integer) are summed exactly.
    Otherwise the series converges for |x| < 1; negative arguments are mapped
    through the Pfaff transformation x -> x/(x-1).  Accepts a scalar or an
    ndarray whose entries all lie on the same branch.
    """
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0

    terms = []
    if _nonpositive_int(a):
        terms.append(int(-a))
    if _nonpositive_int(b):
        terms.append(int(-b))
    if terms:
        M = min(terms)
        if _nonpositive_int(c) and -c < M:
            raise ValueError("2F1 parameter c hits a pole before termination")
        term = np.ones_like(x)
        acc = term.copy()
        for j in range(M):
            term = term * ((a + j) * (b + j) / ((c + j) * (j + 1.0))) * x
            acc = acc + term
        return float(acc) if scalar else acc

    if _nonpositive_int(c):
        raise ValueError("2F1 undefined for nonpositive integer c")

    if np.all(x == 0):
        out = np.ones_like(x)
        return float(out) if scalar else out
    if np.any(x < 0):
        if not np.all(x <= 0):
            raise ValueError("mixed-sign 2F1 arguments are not supported")
        # Pfaff: 2F1(a,b;c;x) = (1-x)^(-a) 2F1(a, c-b; c; x/(x-1))
        y = x / (x - 1.0)
        out = (1.0 - x) ** (-a) * gauss_2f1(a, c - b, c, y)
        return float(out) if scalar else out
    if np.any(x >= 1):
        raise NoConvergence("2F1 series argument outside |x| < 1")

    # Tail of the ratio-|x| geometric envelope folded into the stop test.
    tail_factor = 1.0 / max(1.0 - float(np.max(x)), 1e-3)
    term = np.ones_like(x)
    acc = term.copy()
    for j in range(SERIES_MAX_TERMS):
        term = term * ((a + j) * (b + j) / ((c + j) * (j + 1.0))) * x
        acc = acc + term
        bound = np.max(np.abs(term)) * tail_factor
        if bound <= SERIES_RTOL * max(np.max(np.abs(acc)), 1e-300):
            return float(acc) if scalar else acc
    raise NoConvergence("2F1 series did not converge within the term budget")


def tricomi_u(a: float, c: float, x: float) -> float:
    """Confluent hypergeometric function of the second kind U(a; c; x).

    Evaluated through the standard integral representation
    int_0^inf e^{-x t} t^{a-1} (1+t)^{c-a-1} dt / Gamma(a), using the shared
    semi-infinite quadrature (relative tolerance below 1e-10 for the
    supported a > 0, x > 0 range).
    """
    if a <= 0:
        raise ValueError("tricomi_u requires a > 0")
    if x <= 0:
        raise ValueError("tricomi_u requires x > 0")
    lg_a = math.lgamma(a)

    def integrand(t):
        t = np.asarray(t, dtype=float)
        with np.errstate(divide="ignore"):
            logt = np.where(t > 0, np.log(np.maximum(t, 1e-300)), -np.inf)
        expo = -x * t + (a - 1.0) * logt + (c - a - 1.0) * np.log1p(t) - lg_a
        out = np.exp(expo)
        if a == 1.0:
            # t^0 = 1 exactly; avoid 0 * (-inf) at the origin.
            out = np.exp(-x * t + (c - a - 1.0) * np.log1p(t) - lg_a)
        return out

    return integrate_halfline(integrand, decay_rate=x)


def bessel_i(p: int, x: float) -> float:
    """Modified Bessel function of the first kind I_p(x), ascending series."""
    if p < 0:
        raise ValueError("bessel_i order must be a nonnegative integer")
    if x < 0:
        raise ValueError("bessel_i argument must be nonnegative")
    if x == 0:
        return 1.0 if p == 0 else 0.0
    half = 0.5 * x
    term = math.exp(p * math.log(half) - math.lgamma(p + 1.0))
    acc = term
    for k in range(SERIES_MAX_TERMS):
        term *= half * half / ((k + 1.0) * (k + 1.0 + p))
        acc += term
        if term <= SERIES_RTOL * acc:
            return acc
    raise NoConvergence("bessel_i series did not converge")


def exp_beta_moment(q: int, x: np.ndarray) -> np.ndarray:
    """int_0^1 t^q (1-t)^2 e^{-x t} dt for integer q >= 0, vectorized in x.

    For x away from zero this is a three-term combination of regularized
    lower incomplete gamma functions; tiny x switches to the Taylor series in
    x to dodge the 0/0 in gamma(a, x)/x^a.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    small = x < 1e-3
    if np.any(small):
        xs = x[small]
        # sum_j (-x)^j / j! * B(q+j+1, 3)
        term = np.ones_like(xs)
        acc = term * _beta3(q + 1)
        for j in range(1, 40):
            term = term * (-xs) / j
            acc = acc + term * _beta3(q + j + 1)
            if np.max(np.abs(term)) * _beta3(q + j + 1) < 1e-17 * np.max(np.abs(acc)):
                break
        out[small] = acc
    big = ~small
    if np.any(big):
        xb = x[big]
        acc = np.zeros_like(xb)
        for r, coef in ((0, 1.0), (1, -2.0), (2, 1.0)):
            a = q + 1 + r
            acc = acc + coef * np.exp(gammaln(a) - a * np.log(xb)) * gammainc(a, xb)
        out[big] = acc
    return out


def _beta3(p: int) -> float:
    # B(p, 3) = 2 / (p (p+1) (p+2))
    return 2.0 / (p * (p + 1.0) * (p + 2.0))


def hankel_entry_stacks(shift: int, d: int, x: np.ndarray) -> np.ndarray:
    """Stack of d x d Hankel-kernel matrices over the x grid.

    Entry (i, j) is B(3, i+j+shift-1) * 1F1(i+j+shift-1; i+j+shift+2; -x),
    which equals the moment int_0^1 t^{i+j+shift-2} (1-t)^2 e^{-xt} dt and is
    evaluated in that form for stability at large x.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty((x.size, d, d))
    moments = {}
    for p in range(2, 2 * d + 1):
        moments[p] = exp_beta_moment(p + shift - 2, x)
    for i in range(1, d + 1):
        for j in range(1, d + 1):
            out[:, i - 1, j - 1] = moments[i + j]
    return out


def min_overlap_coeffs_enumerated(n: int, alpha: int, beta: float):
    """The smallest-overlap coefficients (T, log_shift) by enumeration.

    Every one of the prod_j (n+alpha-j) k-tuples of the alpha-fold finite sum
    takes an alpha x alpha determinant; the library integrates the same sum
    by Andreief's identity (`spike_density._min_overlap_coeffs`).
    """
    if alpha == 0:
        return np.array([1.0 / (n - beta)]), 0.0
    bounds = [n + alpha - j - 1 for j in range(1, alpha + 1)]
    grids = np.meshgrid(*[np.arange(b + 1) for b in bounds], indexing="ij")
    ks = np.stack([g.ravel() for g in grids], axis=1)  # (K, alpha)
    ksum = ks.sum(axis=1)

    logw = gammaln(alpha + ksum + 1.0) - (alpha + ksum + 1.0) * math.log(n - beta)
    for j in range(1, alpha + 1):
        kj = ks[:, j - 1]
        logw += gammaln(n + alpha - j) - gammaln(j + kj + 2.0) - gammaln(kj + 1.0)
    shift = float(np.max(logw))
    w = np.exp(logw - shift)

    # a_{i,j}(k_j) = 1/Gamma(n+i-j-k_j), exactly zero at nonpositive arguments.
    i_idx = np.arange(alpha + 1)[None, :, None]
    j_idx = np.arange(1, alpha + 1)[None, None, :]
    arg = n + i_idx - j_idx - ks[:, None, :]
    a = np.where(arg > 0, np.exp(-gammaln(np.maximum(arg, 1))), 0.0)

    t_coef = np.empty(alpha + 1)
    for i in range(alpha + 1):
        minors = np.linalg.det(np.delete(a, i, axis=1))
        t_coef[i] = float(np.dot(w, minors))
    return t_coef, shift


def min_overlap_coeffs_mpmath(n: int, alpha: int, beta: float, log_shift: float, dps: int = 50):
    """The smallest-overlap coefficients times e^-log_shift, with mpmath
    entries and determinants at the float64 Gauss-Laguerre nodes.

    T_i = c^-(alpha+1) sum_q w_q det M_{-i}(y_q / c), c = n - beta, where
    M[i, j](x) = Gamma(n+alpha-j) sum_k x^k / (Gamma(j+k+2) k! Gamma(n+i-j-k))
    is the undifferenced k-sum matrix.  Its minors have condition numbers
    up to ~1e28 in the tested range, hence the working precision.
    """
    import mpmath

    with mpmath.workdps(dps):
        c = mpmath.mpf(n) - mpmath.mpf(beta)
        deg = alpha * (n + alpha - 1) - alpha * (alpha + 1) // 2
        y, wy = roots_genlaguerre(deg // 2 + 2, alpha)
        fac = mpmath.factorial
        coef = [
            [
                [fac(n + alpha - j - 1) / (fac(j + k + 1) * fac(k) * fac(n + i - j - k - 1))
                 for k in range(n + i - j)][::-1]
                for j in range(1, alpha + 1)
            ]
            for i in range(alpha + 1)
        ]
        t = [mpmath.mpf(0)] * (alpha + 1)
        for yq, wq in zip(y, wy):
            m = [[mpmath.polyval(col, mpmath.mpf(yq) / c) for col in row] for row in coef]
            for i in range(alpha + 1):
                t[i] += mpmath.mpf(wq) * mpmath.det(mpmath.matrix(m[:i] + m[i + 1:]))
        scale = mpmath.exp(-mpmath.mpf(log_shift)) / c ** (alpha + 1)
        return np.array([float(ti * scale) for ti in t])


def pdf_z1_mpmath(n: int, alpha: int, beta: float, z: np.ndarray, dps: int = 50) -> np.ndarray:
    """The smallest-overlap density for n >= 3 in mpmath, from the
    `min_overlap_coeffs_mpmath` T_i and the exact factorial ratios
    Gamma(n+alpha+1) / Gamma(n+i-1): (1-beta)^(n+alpha) (1-z)^(n-2) denom^-(n+1)
    sum_i Gamma(n+alpha+1) / Gamma(n+i-1) T_i r^i, denom = 1 - beta (1-z) and
    r = beta (1-z) / denom.  1 - z is formed exactly from each float z.
    """
    import mpmath

    with mpmath.workdps(dps):
        b = mpmath.mpf(beta)
        # The coefficients come back as floats scaled by e^-log_scale, which keeps them in range.
        log_scale = float(mpmath.loggamma(n) - mpmath.loggamma(n + alpha) - (alpha + 1) * mpmath.log(n - b))
        t = min_overlap_coeffs_mpmath(n, alpha, beta, log_scale, dps)
        coef = [mpmath.exp(log_scale) * mpmath.mpf(ti) * math.perm(n + alpha, alpha + 2 - i)
                for i, ti in enumerate(t)]
        out = []
        for zq in z:
            omz = 1 - mpmath.mpf(zq)
            denom = 1 - b * omz
            poly = mpmath.polyval(coef[::-1], b * omz / denom)
            out.append(float((1 - b) ** (n + alpha) * omz ** (n - 2) / denom ** (n + 1) * poly))
        return np.array(out)


def _pdf_z1_fast(n: int, alpha: int, beta: float, z: np.ndarray) -> np.ndarray:
    """Closed smallest-overlap forms for alpha = 0 and alpha = 1, n >= 3."""
    omz = 1.0 - z
    denom = 1.0 - beta * omz
    if alpha == 0:
        return (
            n
            * (n - 1.0)
            * (1.0 - beta) ** n
            * omz ** (n - 2)
            / ((n - beta) * denom ** (n + 1.0))
        )
    if alpha == 1:
        arg = -1.0 / (n - beta)
        h1 = gauss_2f1(-n + 1.0, 2.0, 3.0, arg)
        h2 = gauss_2f1(-n + 2.0, 2.0, 3.0, arg)
        lead = (
            n
            * (n * n - 1.0)
            * (1.0 - beta) ** (n + 1.0)
            * omz ** (n - 2)
            / (2.0 * (n - beta) ** 2 * denom ** (n + 1.0))
        )
        return lead * (h1 + beta * omz / denom * h2)
    raise ValueError("fast path supports alpha in {0, 1} only")


def pdf_z1_general_vs_fastpath(model: SpikedModel, z) -> tuple:
    """Both routes to the smallest-overlap density, for cross-validation.

    Returns (nested-sum value, closed-form value); requires alpha in {0, 1}
    and n >= 3 so that both routes are defined.
    """
    if model.variant != "complex" or model.n < 3 or model.alpha not in (0, 1):
        raise UnsupportedModel("dual path needs complex variant, n >= 3, alpha in {0,1}")
    z = _as_z_array(z)
    zz = np.atleast_1d(z)
    general = _z1_series(model.n, model.alpha, model.beta)(1.0 - zz, zz)
    fast = _pdf_z1_fast(model.n, model.alpha, model.beta, zz)
    if z.ndim == 0:
        return float(general[0]), float(fast[0])
    return general, fast


def _pdf_zn_adaptive(model: SpikedModel, z: float, spec: QuadratureSpec | None = None) -> float:
    """Reference evaluation by nested adaptive quadrature at a single z.

    Outer semi-infinite integral in x with decay rate 1 - beta z, inner unit
    integral in t.  Kept alongside the grid engine as an independent route
    for the test suite.
    """
    spec = spec or DEFAULT_SPEC
    n, alpha, beta = model.n, model.alpha, model.beta
    d = n - 2
    power = n * n + n * alpha - n + 1
    logpref = _max_overlap_log_prefactor(n, alpha, beta)
    q = 1.0 - (1.0 - z) * beta

    def outer(x_arr):
        x_arr = np.atleast_1d(np.asarray(x_arr, dtype=float))
        vals = np.empty_like(x_arr)
        for ix, xv in enumerate(x_arr):
            if xv <= 0:
                vals[ix] = 0.0
                continue
            a_stack = hankel_entry_stacks(alpha, d, np.array([xv]))[0]
            b_stack = hankel_entry_stacks(alpha + 1, d, np.array([xv]))[0]

            def inner(t_arr):
                t_arr = np.asarray(t_arr, dtype=float)
                mats = t_arr[:, None, None] * a_stack - b_stack
                dd = np.linalg.det(mats)
                return np.exp(-q * xv * t_arr) * t_arr**alpha * (1.0 - t_arr) ** 2 * dd

            j_val = integrate_unit(inner, spec)
            vals[ix] = math.copysign(1.0, j_val) * math.exp(
                logpref + power * math.log(xv) - (1.0 - beta * z) * xv + math.log(abs(j_val) + 1e-300)
            )
        return vals

    return integrate_halfline(outer, decay_rate=1.0 - beta * z, spec=spec)


def pdf_zn_loop(model: SpikedModel, zs: np.ndarray) -> np.ndarray:
    """The zn grid engine's double integral summed z by z on its own (x, t) grid.

    The engine expands the inner sum as a moment series in 1 - z; this loop
    evaluates the same sum directly, one incomplete-gamma array per z.
    """
    prep = _zn_basis(model)
    x, t, logwq, p_deg = prep["x"], prep["t"], prep["logwq"], prep["p_deg"]
    log_row, beta, d = prep["log_row"], model.beta, model.n - 2
    out = np.empty(zs.size)
    for i, z in enumerate(zs):
        # Inner integral: the Taylor part of e^{st}, s = beta x (1-z), up to
        # degree d-1 is annihilated by discrete orthogonality, so only the
        # positive remainder e^{st} P(d, st) is summed (P the regularized
        # lower incomplete gamma function); logwq carries the -x t that keeps
        # the weighted exponential bounded.
        st = (beta * x * (1.0 - z))[:, None] * t[None, :]
        wrem = np.exp(logwq + st) * gammainc(d, st)
        inner = np.einsum("xq,xq->x", wrem, p_deg)
        logv = log_row - beta * x * (1.0 - z)
        mshift = np.max(logv)
        out[i] = float(np.dot(inner, np.exp(logv - mshift))) * math.exp(mshift)
    return out


def pdf_yn_loop(model: SpikedModel, zs: np.ndarray) -> np.ndarray:
    """The yn_sing engine's half-line integral summed z by z on its own (x, t) grid."""
    prep = _yn_basis(model)
    x, t, wt, p_deg = prep["x"], prep["t"], prep["wt"], prep["p_deg"]
    log_norm, beta, m = prep["log_norm"], model.beta, model.m
    base = prep["log_row"] - log_norm - prep["shift"]
    # The paper's Hankel term det[A^(0)] on the same grid: the norm product of
    # the weight (1-t)^2 e^{-x t} up to degree m - 1.
    log_a0 = discrete_orthogonal_basis(x, t, wt, 0.0, m - 1)[0]
    sign_m = (-1.0) ** (m - 1)
    log_t_weight = np.log(wt) + 2.0 * np.log1p(-t)
    out = np.empty(zs.size)
    for i, z in enumerate(zs):
        q = 1.0 - (1.0 - z) * beta
        logw2 = log_t_weight[None, :] - q * x[:, None] * t[None, :]
        shift2 = np.max(logw2, axis=1)
        s_t = np.einsum("xq,xq->x", np.exp(logw2 - shift2[:, None]), p_deg)
        log_j = log_norm + shift2 + np.log(np.maximum(np.abs(s_t), 1e-320))
        sign_j = np.sign(s_t)
        mshift = np.maximum(log_j, log_a0)
        bracket = sign_j * np.exp(log_j - mshift) + sign_m * np.exp(log_a0 - mshift)
        logterm = base - beta * x * (1.0 - z) + mshift
        top = np.max(logterm)
        out[i] = float(np.dot(bracket, np.exp(logterm - top))) * math.exp(top)
    return out


def pdf_z2_loop(model: SpikedModel, zs: np.ndarray) -> np.ndarray:
    """The z2 engine's double integral summed chunk by chunk on its own grids.

    The engine applies the Cauchy kernel once per model and evaluates one
    exponential sum; this loop rebuilds the phi column integrals for every
    z chunk and contracts them with the cofactors there.
    """
    prep = _z2_basis(model)
    u, w, gvec = prep["u"], prep["w"], prep["gvec"]
    cof, sv, su = prep["cof"], prep["sv"], prep["su"]
    pref, beta = prep["pref"], prep["beta"]
    du = gvec.shape[1]
    out = np.empty(zs.size)
    z_chunk = 128
    u_block = 8192
    for lo in range(0, zs.size, z_chunk):
        zc = zs[lo : lo + z_chunk]
        emat = np.exp(-beta * np.outer(w, zc))  # (Nw, nz)
        gz = (gvec[:, :, None] * emat[:, None, :]).reshape(w.size, -1)
        acc = pref * (sv @ np.exp(beta * np.outer(u, zc)))
        for ulo in range(0, u.size, u_block):
            usl = slice(ulo, min(ulo + u_block, u.size))
            bmat = 1.0 / (w[None, :] + u[usl, None])
            phi = (bmat @ gz).reshape(usl.stop - usl.start, du, zc.size)
            u_part = np.einsum("uiz,ui->uz", phi, cof[usl])
            acc -= pref * (su[usl] @ u_part)
        out[lo : lo + z_chunk] = acc
    return out


def _zn_closed_support(model: SpikedModel) -> None:
    _zn_support(model)
    if model.n > 4:
        raise UnsupportedModel("closed form exists for complex n in {2, 3, 4} only")


def pdf_zn_closed(model: SpikedModel, z) -> float | np.ndarray:
    """Closed-form largest-overlap density for n in {2, 3, 4}: the n = 2
    Gauss 2F1 form, the n = 3 F2 difference and the n = 4 F2 assembly.
    Checked and clipped as the library's densities are."""
    _zn_closed_support(model)
    z = _as_z_array(z)
    out = _clip_density(_pdf_zn_closed_body(model, z.ravel()))
    return float(out[0]) if z.ndim == 0 else out.reshape(z.shape)


def _pdf_zn_closed_body(model: SpikedModel, z: np.ndarray) -> np.ndarray:
    n, alpha, beta = model.n, model.alpha, model.beta
    if n == 3:
        return _pdf_zn_closed_n3(alpha, beta, z)
    if n == 4:
        return _pdf_zn_closed_n4(alpha, beta, z)
    logc = (
        math.log(2.0)
        + gammaln(2.0 * alpha + 4.0)
        + (alpha + 2.0) * math.log1p(-beta)
        - gammaln(alpha + 2.0)
        - gammaln(alpha + 4.0)
        - (2.0 * alpha + 4.0) * math.log(2.0 - beta)
    )
    arg = (1.0 - beta * (1.0 - z)) / (2.0 - beta)
    return math.exp(logc) * gauss_2f1(3.0, 2.0 * alpha + 4.0, alpha + 4.0, arg)


def _pdf_zn_closed_n3(alpha: int, beta: float, z: np.ndarray) -> np.ndarray:
    """Closed n = 3 largest-overlap density: a difference of two F2 values."""
    logc = (
        math.log(4.0)
        + gammaln(3.0 * alpha + 8.0)
        + (alpha + 3.0) * math.log1p(-beta)
        - gammaln(alpha + 3.0)
        - gammaln(alpha + 4.0)
        - gammaln(alpha + 5.0)
        - math.log(beta)
        - (3.0 * alpha + 8.0) * math.log(3.0 - beta)
    )
    x0 = 1.0 / (3.0 - beta)
    y = (1.0 - beta * (1.0 - z)) / (3.0 - beta)
    fa = _f2_iterated_vec(3 * alpha + 8.0, 3.0, 3.0, alpha + 4.0, alpha + 5.0, x0, y)
    fb = _f2_iterated_vec(3 * alpha + 8.0, 3.0, 3.0, alpha + 5.0, alpha + 4.0, x0, y)
    return math.exp(logc) * (fa - fb)


def _f21_series_vec(a, b, c, y, dtype=np.float64):
    """2F1 by direct series for 0 <= y < 1, vectorized, chosen dtype."""
    y = np.asarray(y, dtype=dtype)
    term = np.ones_like(y)
    acc = term.copy()
    one = dtype(1.0)
    for j in range(SERIES_MAX_TERMS):
        term = term * ((a + j) * (b + j) / ((c + j) * (j + one))) * y
        acc = acc + term
        if np.max(np.abs(term)) <= 1e-14 * np.max(np.abs(acc)):
            return acc
    raise NoConvergence("vectorized 2F1 series did not converge")


def _f2_iterated_vec(a, b1, b2, c1, c2, x, y, dtype=np.float64):
    """F2(a; b1, b2; c1, c2; x, y) with vector y (and scalar or vector x).

    Iterated form: sum over m of (a)_m (b1)_m x^m / ((c1)_m m!) 2F1(a+m, b2;
    c2; y).  The inner Gauss functions are advanced by the three-term
    contiguous recurrence in the first parameter, carried in term-scaled form
    so neither factor overflows.  Valid for 0 <= x, y and x/(1-y) < 1;
    outside it the terms grow, and the first non-finite one raises
    NoConvergence.
    """
    x = np.asarray(x, dtype=dtype)
    y = np.asarray(y, dtype=dtype)
    one = dtype(1.0)
    f_prev = _f21_series_vec(a, b2, c2, y, dtype)  # m = 0
    f_curr = _f21_series_vec(a + 1.0, b2, c2, y, dtype)  # m = 1
    r_prev = (a * b1 / c1) * x  # C_1 x / C_0
    t_prev = f_prev * np.ones_like(y)
    t_curr = r_prev * f_curr
    total = t_prev + t_curr
    quiet = 0
    am, b1m, c1m = a + 1.0, b1 + 1.0, c1 + 1.0
    m = 1
    while m < F2_MAX_TERMS:
        r_curr = (am * b1m / (c1m * (m + one))) * x  # C_{m+1} x / C_m
        aa = a + m
        coef_prev = (c2 - aa) * r_curr * r_prev
        coef_curr = (2.0 * aa - c2 + (b2 - aa) * y) * r_curr
        with np.errstate(over="ignore", invalid="ignore"):
            t_next = (coef_prev * t_prev + coef_curr * t_curr) / (aa * (one - y))
        tmax = np.max(np.abs(t_next))
        if not np.isfinite(tmax):
            raise NoConvergence("iterated F2 diverged: a term is not finite")
        total = total + t_next
        smax = np.max(np.abs(total))
        if tmax <= 1e-14 * max(smax, 1e-300):
            quiet += 1
            if quiet >= 3:
                return total
        else:
            quiet = 0
        t_prev, t_curr = t_curr, t_next
        r_prev = r_curr
        am += 1.0
        b1m += 1.0
        c1m += 1.0
        m += 1
    raise NoConvergence("iterated F2 did not converge")


_N4_TUPLES = {"a": (5, 5, 4), "b": (7, 6, 6), "c": (6, 4, 5), "d": (6, 7, 5)}


def _pdf_zn_closed_n4(alpha: int, beta: float, z: np.ndarray) -> np.ndarray:
    """Closed n = 4 largest-overlap density, evaluated in extended precision.

    The bracketed combinations cancel many leading digits, so the whole
    assembly runs in long double before the final cast.
    """
    ld = np.longdouble
    zl = z.astype(ld)
    beta_l = ld(beta)
    one = ld(1.0)
    omz = one - zl
    dz = one - beta_l * omz  # 1 - beta (1 - z)

    f2_scalar_cache: dict = {}

    def f2t(a_int: int, b: int, c: int, xval):
        # F2(a, 3, 3, alpha+b, alpha+c; x, x)
        if np.ndim(xval) == 0:
            key = (a_int, b, c, float(xval))
            if key not in f2_scalar_cache:
                val = _f2_iterated_vec(
                    ld(a_int), ld(3), ld(3), ld(alpha + b), ld(alpha + c),
                    np.asarray(xval, dtype=ld), np.asarray(xval, dtype=ld), dtype=ld,
                )
                f2_scalar_cache[key] = val
            return f2_scalar_cache[key]
        return _f2_iterated_vec(
            ld(a_int), ld(3), ld(3), ld(alpha + b), ld(alpha + c), xval, xval, dtype=ld
        )

    def beta3(q: int) -> np.longdouble:
        return ld(2.0) / (ld(q) * ld(q + 1) * ld(q + 2))

    x_zdep = one / (ld(3.0) - beta_l * zl)
    x_fixed = one / (ld(4.0) - beta_l)

    def g_term(n_idx: int, b: int, c: int):
        bb = beta3(alpha + b - 3) * beta3(alpha + c - 3)
        lead = ld(math.factorial(alpha + n_idx)) * dz ** ld(-(alpha + n_idx + 1))
        a1 = 3 * alpha + 13 - n_idx
        t1 = ld(math.factorial(a1 - 1)) * x_zdep ** ld(a1) * f2t(a1, b, c, x_zdep)
        t2 = np.zeros_like(zl)
        for k in range(alpha + n_idx + 1):
            coef = ld(math.factorial(a1 - 1 + k)) / ld(math.factorial(k))
            t2 = t2 + coef * x_fixed ** ld(a1 + k) * dz ** ld(k) * f2t(a1 + k, b, c, x_fixed)
        return bb * lead * (t1 - t2)

    total = np.zeros_like(zl)
    ta, tb = _N4_TUPLES["a"], _N4_TUPLES["b"]
    tc, td = _N4_TUPLES["c"], _N4_TUPLES["d"]
    for k in range(3):
        total = total + (
            g_term(k, ta[k], tb[k])
            - g_term(k, tc[k], td[k])
            - 2.0 * g_term(k + 1, ta[k], tb[k])
            + 2.0 * g_term(k + 1, tc[k], td[k])
            + g_term(k + 2, ta[k], tb[k])
            - g_term(k + 2, tc[k], td[k])
        )
    # The last denominator factorial is (alpha+3)!, not the printed
    # (alpha+4)!: the (alpha+4)! variant integrates to 1/(alpha+4), while
    # this constant normalizes the density to 1 and matches the generic
    # double-integral route pointwise.
    logc = (
        (alpha + 4.0) * math.log1p(-beta)
        - math.log(2.0)
        - gammaln(alpha + 1.0)
        - gammaln(alpha + 2.0)
        - gammaln(alpha + 3.0)
        - gammaln(alpha + 4.0)
        - 2.0 * math.log(beta)
    )
    return (np.exp(ld(logc)) * total).astype(np.float64)


def check_zn_convexity_n2(model: SpikedModel) -> bool:
    """Second central differences of the n = 2 largest-overlap density.

    Returns True when the raw second difference on a 1001-point grid never
    drops below -1e-8, the numerical signature of convexity in z.
    """
    if model.n != 2:
        raise UnsupportedModel("convexity check is defined for n = 2")
    grid = np.linspace(0.0, 1.0, 1001)
    vals = pdf_zn(model, grid)
    second = vals[:-2] - 2.0 * vals[1:-1] + vals[2:]
    return bool(np.min(second) >= -1e-8)


def phi_column_reference(model: SpikedModel, u: float, z: float, i: int) -> float:
    """Finite hypergeometric-sum route to the phi column entries.

    phi_i = (n+i-2)! sum_l (-beta u (1-z))^l / l! U(n+i-1; 3+l; u(1-beta+beta z)).
    Used by the tests to pin the Cauchy-kernel integral route.
    """
    n, beta = model.n, model.beta
    s = u * (1.0 - beta + beta * z)
    v = -beta * u * (1.0 - z)
    total = 0.0
    term = 1.0
    for ell in range(n + i - 4 + 1):
        if ell > 0:
            term *= v / ell
        total += term * tricomi_u(n + i - 1.0, 3.0 + ell, s)
    return math.exp(gammaln(n + i - 1.0)) * total


def phi_column_integral(model: SpikedModel, u: float, z: float, i: int) -> float:
    """Cauchy-kernel integral route to the same phi column entry."""
    n, beta = model.n, model.beta
    c = 1.0 - beta + beta * z

    def f(w_arr):
        w_arr = np.asarray(w_arr, dtype=float)
        return np.exp(-c * w_arr) * w_arr**2 * eval_genlaguerre(n + i - 4, 2, w_arr) / (w_arr + u)

    return integrate_halfline(f, decay_rate=c) / u**2


def cdf(statistic: str, model: SpikedModel, z: float, spec: QuadratureSpec | None = None) -> float:
    """Cumulative distribution of `statistic` at z, by quadrature of its pdf.

    The endpoint-singular real-variant statistics integrate in the
    sin^2-substituted variable, which removes the inverse-square-root
    endpoints exactly.
    """
    if statistic == "nz1_asym":
        return float(cdf_nz1_asymptotic(model.theta, z))
    spec = spec or DEFAULT_SPEC
    z = float(z)
    if z <= 0.0:
        return 0.0
    z = min(z, 1.0)
    f = partial(density_values, statistic, model)
    if _statistic(statistic).arcsine:
        phi_hi = math.asin(math.sqrt(z))

        def g(s):
            phi = phi_hi * np.asarray(s, dtype=float)
            return phi_hi * f(np.sin(phi) ** 2) * np.sin(2.0 * phi)

        val = integrate_unit(g, spec)
    else:
        val = integrate_unit(lambda s: z * f(z * np.asarray(s, dtype=float)), spec)
    return float(np.clip(val, 0.0, 1.0))


def mehta_identity_check(n: int, alpha: int, y: float, x: float) -> tuple[float, float]:
    """Both sides of the orthogonal-polynomial determinant identity.

    Left side: the n-fold integral of Delta^2 prod_j (y - t_j)(x - t_j)^alpha
    t_j^2 e^{-t_j} by tensor-product generalized Gauss-Laguerre quadrature
    (exact for the polynomial integrand).  Right side: the closed determinant
    form with Laguerre columns.
    """
    if n < 1 or n > 4:
        raise ValueError("brute-force side supports n in 1..4")
    if alpha > n + 1:
        raise ValueError("the Laguerre columns need degrees n + 1 - alpha >= 0")
    if x == y and alpha > 0:
        raise DomainError("closed form is singular at x = y for alpha > 0")
    deg = 2 * (n - 1) + alpha + 3
    nodes, weights = roots_genlaguerre(max(deg, 6), 2)
    k = nodes.size
    idx = np.stack(np.meshgrid(*([np.arange(k)] * n), indexing="ij"), axis=0).reshape(n, -1)
    pts = nodes[idx]  # (n, T)
    wts = np.prod(weights[idx], axis=0)
    vandermonde_sq = np.ones(pts.shape[1])
    for i in range(n):
        for j in range(i + 1, n):
            vandermonde_sq *= (pts[j] - pts[i]) ** 2
    factor = np.prod((y - pts) * (x - pts) ** alpha, axis=0)
    lhs = float(np.dot(wts, vandermonde_sq * factor))

    logk = sum(math.lgamma(n + j) for j in range(1, alpha + 2))
    logk += sum(math.lgamma(j + 2.0) + math.lgamma(j + 3.0) for j in range(n))
    logk -= sum(math.lgamma(j + 1.0) for j in range(alpha))
    sign = -1.0 if (n + alpha * (n + alpha)) % 2 else 1.0
    mat = np.empty((alpha + 1, alpha + 1))
    for i in range(1, alpha + 2):
        mat[i - 1, 0] = eval_genlaguerre(n + i - 1, 2, y)
        for j in range(2, alpha + 2):
            mat[i - 1, j - 1] = eval_genlaguerre(n + i + 1 - j, j, x)
    det = scaled_det(mat)
    if alpha == 0:
        denom = 1.0
    else:
        denom = (x - y) ** alpha
    rhs = sign * det.sign * math.exp(logk + det.log_magnitude) / denom
    return lhs, rhs


def kalpha_normalization_check(alpha: int) -> float:
    """Half-line integral of the Bessel-determinant density; contract: 1.

    Evaluates int_0^inf e^{-x} det[I_{j-i+2}(2 sqrt(x))]_{i,j=1..alpha} dx.
    """
    if alpha < 1:
        raise ValueError("alpha must be at least 1")

    def f(x_arr):
        x_arr = np.atleast_1d(np.asarray(x_arr, dtype=float))
        out = np.empty_like(x_arr)
        for k, xv in enumerate(x_arr):
            arg = 2.0 * math.sqrt(max(xv, 0.0))
            mat = np.empty((alpha, alpha))
            for i in range(1, alpha + 1):
                for j in range(1, alpha + 1):
                    p = j - i + 2
                    mat[i - 1, j - 1] = bessel_i(p, arg) if p >= 0 else bessel_i(-p, arg)
            out[k] = math.exp(-xv) * float(np.linalg.det(mat))
        return out

    return integrate_halfline(f, decay_rate=0.4)


@dataclass(eq=False)
class EigenSystem:
    """Ascending eigenvalues with aligned orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def eigh(w) -> EigenSystem:
    """Eigen-decomposition of a Hermitian (or real symmetric) matrix.

    Eigenvalues are returned ascending with matching eigenvector columns;
    the phase of each eigenvector is arbitrary, which is fine because all the
    projection statistics are phase invariant.
    """
    w = np.asarray(w)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError("eigh requires a square matrix")
    scale = np.linalg.norm(w)
    if scale > 0 and np.linalg.norm(w - w.conj().T) > 1e-12 * scale:
        raise ValueError("matrix is not Hermitian to the required tolerance")
    try:
        vals, vecs = np.linalg.eigh(w)
    except np.linalg.LinAlgError as exc:
        raise EigensolverFailure(str(exc)) from exc
    return EigenSystem(eigenvalues=vals, eigenvectors=vecs)


def chunk_projections_dense(model: SpikedModel, v: np.ndarray, seed: int, start: int, stop: int) -> np.ndarray:
    """Projection rows |v^H u_l|^2 for draws [start, stop), from dense matrices.

    Each draw builds the n x m Gaussian factor G from its own Philox
    substream keyed (seed, draw index), forms W = Sigma^{1/2} G G^H
    Sigma^{1/2} with Sigma = I + theta v v^H, and projects v onto every
    eigenvector of W.  Rows have the layout of `montecarlo._chunk_projections`
    (rank = n, or m for the singular variant, ascending eigenvalue), and
    unlike that route they depend on v draw by draw.
    """
    n, m = model.n, model.m
    count = stop - start
    real = model.variant == "real"
    scale = math.sqrt(1.0 + model.theta) - 1.0
    bit_gen = np.random.Philox(key=[seed & (2**64 - 1), 0])
    rng = np.random.Generator(bit_gen)
    state = bit_gen.state
    g = np.empty((count, n, m), dtype=np.float64 if real else np.complex128)
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    for k in range(count):
        state["state"]["key"][1] = (start + k) & (2**64 - 1)
        state["state"]["counter"][:] = 0
        state["buffer_pos"] = 4
        bit_gen.state = state
        gg = rng.standard_normal((1 if real else 2, n, m))
        g[k] = gg[0] if real else (gg[0] + 1j * gg[1]) * inv_sqrt2

    # Sigma^{1/2} G = G + (sqrt(1+theta)-1) v (v^H G): exact rank-one update.
    vh_g = np.einsum("i,kij->kj", v.conj(), g)
    x = g + scale * v[None, :, None] * vh_g[:, None, :]
    w = np.einsum("kij,klj->kil", x, x.conj())
    try:
        _, vecs = np.linalg.eigh(w)
    except np.linalg.LinAlgError as exc:
        raise EigensolverFailure(str(exc)) from exc
    proj = np.abs(np.einsum("i,kij->kj", v.conj(), vecs)) ** 2
    if model.variant == "singular":
        proj = proj[:, n - m:]
    return proj


def chunk_projections_interlacing(t: np.ndarray) -> np.ndarray:
    """Squared first eigenvector components of a batch of tridiagonals, by interlacing.

    With lam the eigenvalues of T and mu those of T without its first row and
    column, u1(lam_k)^2 = prod_j (lam_k - mu_j) / prod_{j != k} (lam_k - lam_j).
    Interlacing pairs mu_j with lam_j below lam_k and with lam_{j+1} above it,
    so each paired ratio lies in (0, 1) and the product cannot overflow.  Rows
    hold every eigenvalue in ascending order; for the singular variant's T the
    zero eigenvalue's column comes first, where `montecarlo._chunk_projections`
    drops it.
    """
    size = t.shape[1]
    if size == 1:
        return np.ones((t.shape[0], 1))
    try:
        lam = np.linalg.eigvalsh(t)
        mu = np.linalg.eigvalsh(t[:, 1:, 1:])
    except np.linalg.LinAlgError as exc:
        raise EigensolverFailure(str(exc)) from exc
    idx = np.arange(size)
    j = np.arange(size - 1)
    partner = j[None, :] + (j[None, :] >= idx[:, None])
    ratio = np.abs(lam[:, :, None] - mu[:, None, :]) / np.abs(lam[:, :, None] - lam[:, partner])
    # Rounding can break the interlacing of nearly equal lam_j and mu_j.
    return np.minimum(np.prod(ratio, axis=2), 1.0)


def gram_factors(a, b2) -> tuple[np.ndarray, np.ndarray]:
    """Squared lower bidiagonal factors (q, e) with L L^T = T + sigma I, for a batch of
    symmetric tridiagonals T of diagonal a and squared subdiagonal b2 (rows are draws).

    q holds the LDL^T pivots of T + sigma I and e_i = b2_i / q_i, the layout of
    `montecarlo._tridiagonal`.  sigma is 0 for a positive definite T and twice T's largest
    Gershgorin row sum otherwise, so T + sigma I is positive definite and has T's
    eigenvectors: the sampler's overlaps of (q, e) are those of T.
    """
    a, b2 = np.atleast_2d(a).astype(float), np.atleast_2d(b2).astype(float)

    def pivots(shift):
        d = a + shift
        for i in range(1, a.shape[1]):
            d[:, i] -= b2[:, i - 1] / d[:, i - 1]
        return d

    with np.errstate(divide="ignore", invalid="ignore"):
        q = pivots(np.zeros((a.shape[0], 1)))
        b = np.sqrt(b2)
        rows = np.abs(a)
        rows[:, 1:] += b
        rows[:, :-1] += b
        sigma = np.where(np.all(q > 0.0, axis=1), 0.0, 2.0 * rows.max(axis=1))
        q = pivots(sigma[:, None])
        return q, b2 / q[:, :-1]
