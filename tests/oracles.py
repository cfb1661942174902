"""Reference routes the tests compare the library against.

None of this runs in the library or the CLI.  It holds the adaptive
Gauss-Legendre integrators and a log-scaled determinant, scalar special
functions (Laguerre, 1F1, U, Appell F2, Bessel I), the Hankel moment stacks
of the largest-overlap integrand, the nested adaptive quadrature of that
double integral, the per-z loops of the zn and yn_sing grid engines, the
quadrature c.d.f., and the Mehta determinant identity and Bessel-determinant
normalization checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.special import eval_genlaguerre, gammainc, gammaln, roots_genlaguerre

from spiked_eigvec.numkit import gauss_legendre_panel
from spiked_eigvec.specfun import (
    SERIES_MAX_TERMS,
    SERIES_RTOL,
    NoConvergence,
    _nonpositive_int,
    gauss_2f1,
)
from spiked_eigvec.spike_density import (
    DomainError,
    SpikedModel,
    UnsupportedModel,
    _as_z_array,
    _max_overlap_log_prefactor,
    _pdf_boundary,
    _pdf_z1_fast,
    _pdf_z1_series,
    _pdf_zn_closed_values,
    _statistic,
    _zn_basis,
    _zn_support,
    cdf_nz1_asymptotic,
    density_values,
    pdf_zn,
)
from spiked_eigvec.variant_density import _yn_basis


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


def pochhammer(a: float, j: int) -> float:
    """Rising factorial a(a+1)...(a+j-1), with (a)_0 = 1.

    For a = -M with M a nonnegative integer the result is exactly 0 whenever
    j > M; the product below produces that zero without rounding because one
    factor is exactly 0.0.
    """
    if j < 0:
        raise ValueError("pochhammer count must be nonnegative")
    out = 1.0
    for k in range(j):
        out *= a + k
        if out == 0.0:
            return 0.0
    return out


def recip_gamma(x: float) -> float:
    """1/Gamma(x); exactly 0 at the poles x = 0, -1, -2, ..."""
    if _nonpositive_int(x):
        return 0.0
    # lgamma avoids overflow of Gamma itself for large x.
    sign = 1.0
    if x < 0:
        # Gamma alternates sign between consecutive negative integers.
        sign = -1.0 if (math.floor(x) % 2 == 0) else 1.0
    return sign * math.exp(-math.lgamma(x) if x > 0 else -_lgamma_abs(x))


def _lgamma_abs(x: float) -> float:
    # log|Gamma(x)| for x < 0 via the reflection formula.
    return (
        math.log(math.pi)
        - math.log(abs(math.sin(math.pi * x)))
        - math.lgamma(1.0 - x)
    )


def laguerre(rho: int, M: int, z):
    """Generalized Laguerre polynomial L^(rho)_M(z).

    Accepts a scalar or ndarray argument.  scipy.special.eval_genlaguerre
    runs the three-term recurrence, which keeps precision for large degree
    and argument where the explicit alternating sum cancels badly.
    """
    if M < 0:
        raise ValueError("laguerre degree must be nonnegative")
    out = eval_genlaguerre(M, rho, z)
    return float(out) if np.ndim(out) == 0 else out


def kummer_1f1(a: float, c: float, x):
    """Confluent hypergeometric function 1F1(a; c; x).

    Nonpositive-integer a terminates the series exactly.  Negative arguments
    are routed through the Kummer transformation e^x 1F1(c-a; c; -x) so the
    summed series has positive terms.
    """
    if _nonpositive_int(c):
        raise ValueError("1F1 undefined for nonpositive integer c")
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0

    if _nonpositive_int(a):
        M = int(-a)
        term = np.ones_like(x)
        acc = term.copy()
        for j in range(M):
            term = term * ((a + j) / ((c + j) * (j + 1.0))) * x
            acc = acc + term
        return float(acc) if scalar else acc

    if np.any(x < 0):
        if not np.all(x <= 0):
            raise ValueError("mixed-sign 1F1 arguments are not supported")
        out = np.exp(x) * kummer_1f1(c - a, c, -x)
        return float(out) if scalar else out

    term = np.ones_like(x)
    acc = term.copy()
    for j in range(SERIES_MAX_TERMS):
        term = term * ((a + j) / ((c + j) * (j + 1.0))) * x
        acc = acc + term
        if np.max(np.abs(term)) <= SERIES_RTOL * max(np.max(np.abs(acc)), 1e-300):
            return float(acc) if scalar else acc
    raise NoConvergence("1F1 series did not converge within the term budget")


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


def appell_f2(
    a: float, b1: float, b2: float, c1: float, c2: float, x: float, y: float
) -> float:
    """Appell hypergeometric function of two variables, second kind.

    F2(a; b1, b2; c1, c2; x, y) = sum_{m,n} (a)_{m+n} (b1)_m (b2)_n /
    ((c1)_m (c2)_n m! n!) x^m y^n.  The double series is used safely inside
    |x|+|y| <= 0.9; closer to the convergence boundary the evaluation falls
    back to the iterated form with an inner 2F1 in y, which converges for
    |x| < 1 - |y|.
    """
    if _nonpositive_int(c1) or _nonpositive_int(c2):
        raise ValueError("F2 undefined for nonpositive integer c1 or c2")
    if y == 0:
        return gauss_2f1(a, b1, c1, x) if x != 0 else 1.0
    if x == 0:
        return gauss_2f1(a, b2, c2, y)

    if abs(x) + abs(y) <= 0.9:
        return _f2_double_series(a, b1, b2, c1, c2, x, y)
    if abs(x) >= 1.0 - abs(y):
        raise NoConvergence("F2 arguments outside both convergence strategies")
    return _f2_iterated(a, b1, b2, c1, c2, x, y)


def _f2_double_series(a, b1, b2, c1, c2, x, y):
    tail = 1.0 / max(1.0 - abs(x) - abs(y), 1e-3)
    total = 0.0
    outer = 1.0  # (a)_m (b1)_m / ((c1)_m m!) x^m
    quiet_rows = 0
    prev_row = 0.0
    for m in range(SERIES_MAX_TERMS):
        inner = outer
        row = inner
        prev_inner = abs(inner)
        for n in range(SERIES_MAX_TERMS):
            inner *= (a + m + n) * (b2 + n) / ((c2 + n) * (n + 1.0)) * y
            row += inner
            decaying = abs(inner) < prev_inner
            prev_inner = abs(inner)
            if decaying and abs(inner) * tail <= SERIES_RTOL * max(
                abs(row), abs(total), 1e-300
            ):
                break
        else:
            raise NoConvergence("F2 inner series did not converge")
        total += row
        if abs(row) < prev_row and abs(row) * tail <= SERIES_RTOL * max(abs(total), 1e-300):
            quiet_rows += 1
            if quiet_rows >= 2:
                return total
        else:
            quiet_rows = 0
        prev_row = abs(row)
        outer *= (a + m) * (b1 + m) / ((c1 + m) * (m + 1.0)) * x
    raise NoConvergence("F2 double series did not converge")


def _f2_iterated(a, b1, b2, c1, c2, x, y, rtol=1e-10):
    total = 0.0
    coef = 1.0  # (a)_m (b1)_m / ((c1)_m m!) x^m
    quiet = 0
    prev = 0.0
    for m in range(SERIES_MAX_TERMS):
        term = coef * gauss_2f1(a + m, b2, c2, y)
        total += term
        # Geometric tail estimate from the observed term ratio.
        ratio = min(abs(term) / abs(prev), 0.995) if prev else 0.5
        bound = abs(term) * ratio / (1.0 - ratio)
        if bound <= rtol * max(abs(total), 1e-300) and m >= 2:
            quiet += 1
            if quiet >= 2:
                return total
        else:
            quiet = 0
        prev = term
        coef *= (a + m) * (b1 + m) / ((c1 + m) * (m + 1.0)) * x
    raise NoConvergence("F2 iterated series did not converge")


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


def pdf_z1_general_vs_fastpath(model: SpikedModel, z) -> tuple:
    """Both routes to the smallest-overlap density, for cross-validation.

    Returns (nested-sum value, closed-form value); requires alpha in {0, 1}
    and n >= 3 so that both routes are defined.
    """
    if model.variant != "complex" or model.n < 3 or model.alpha not in (0, 1):
        raise UnsupportedModel("dual path needs complex variant, n >= 3, alpha in {0,1}")
    z = _as_z_array(z)
    zz = np.atleast_1d(z)
    general = _pdf_z1_series(model.n, model.alpha, model.beta, zz)
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


def pdf_zn_loop(model: SpikedModel, zs: np.ndarray, preset: str) -> np.ndarray:
    """The zn grid engine's double integral summed z by z on its own (x, t) grid.

    The engine expands the inner sum as a moment series in 1 - z; this loop
    evaluates the same sum directly, one incomplete-gamma array per z.
    """
    prep = _zn_basis(model, preset)
    x, t, logwq, p_deg = prep["x"], prep["t"], prep["logwq"], prep["p_deg"]
    base, beta, d = prep["base"], prep["beta"], prep["d"]
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
        logv = base + beta * x * z
        mshift = np.max(logv)
        out[i] = float(np.dot(inner, np.exp(logv - mshift))) * math.exp(mshift)
    return out


def pdf_yn_loop(model: SpikedModel, zs: np.ndarray, preset: str) -> np.ndarray:
    """The yn_sing engine's half-line integral summed z by z on its own (x, t) grid."""
    prep = _yn_basis(model, preset)
    x, t, wt, p_deg = prep["x"], prep["t"], prep["wt"], prep["p_deg"]
    log_c1, log_a0, base = prep["log_c1"], prep["log_a0"], prep["base"]
    beta, m = prep["beta"], prep["m"]
    sign_m = (-1.0) ** (m - 1)
    log_t_weight = np.log(wt) + 2.0 * np.log1p(-t)
    out = np.empty(zs.size)
    for i, z in enumerate(zs):
        q = 1.0 - (1.0 - z) * beta
        logw2 = log_t_weight[None, :] - q * x[:, None] * t[None, :]
        shift2 = np.max(logw2, axis=1)
        s_t = np.einsum("xq,xq->x", np.exp(logw2 - shift2[:, None]), p_deg)
        log_j = log_c1 + shift2 + np.log(np.maximum(np.abs(s_t), 1e-320))
        sign_j = np.sign(s_t)
        mshift = np.maximum(log_j, log_a0)
        bracket = sign_j * np.exp(log_j - mshift) + sign_m * np.exp(log_a0 - mshift)
        logterm = base + beta * x * z + mshift
        top = np.max(logterm)
        out[i] = float(np.dot(bracket, np.exp(logterm - top))) * math.exp(top)
    return out


def _zn_closed_support(model: SpikedModel) -> None:
    _zn_support(model)
    if model.n > 4:
        raise UnsupportedModel("closed form exists for complex n in {2, 3, 4} only")


@_pdf_boundary(_zn_closed_support)
def pdf_zn_closed(model: SpikedModel, z) -> float | np.ndarray:
    """Closed-form largest-overlap density for n in {2, 3, 4}."""
    return _pdf_zn_closed_values(model, z)


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
        mat[i - 1, 0] = laguerre(2, n + i - 1, y)
        for j in range(2, alpha + 2):
            mat[i - 1, j - 1] = laguerre(j, n + i + 1 - j, x)
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
