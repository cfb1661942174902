"""Exact and asymptotic overlap densities for the complex spiked Wishart model.

The statistics are the squared projections of the unit spike direction onto
ordered sample eigenvectors: the smallest-eigenvalue overlap (z1), the
second-smallest (z2), and the largest (zn), plus the scaled limit of n*z1.

The smallest-overlap density has a closed finite-sum form whose nested sums
are collapsed, once per (n, m, theta), into cofactor coefficients of the
z-dependent first determinant column.  The largest and second-smallest
densities are double integrals with determinant integrands on fixed geometric
panel grids.  The n = 2, 3, 4 largest-overlap densities have closed forms.
For n >= 5 the inner integral is a power series in 1 - z built once per model
(`numkit.halfline_series`), so a z grid costs one matrix product.  It is the
only route: its length follows the t weight, not theta (20 terms at theta =
0.1, 134 at 1e4), and a model whose series cannot be bounded raises
ArithmeticError.
Laguerre values and log-gamma come from scipy.special, determinants from
numpy.linalg.

Every density passes through one boundary (`_pdf_boundary`) that checks the
model and z and rejects non-finite output.  All evaluators are pure;
per-model precomputations are memoized in a small cache keyed by the frozen
model.  The cumulative distribution is `model_cdf_fn` / `cdf_grid`.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache, wraps
from typing import Callable

import numpy as np
from scipy.special import eval_genlaguerre, gammaln

from . import numkit, specfun

THETA_EPS = 1e-8


class UnsupportedModel(ValueError):
    """The requested statistic is not defined for this model."""


class DomainError(ValueError):
    """A density argument lies outside its support."""


class ThetaZeroSingularity(ValueError):
    """The formula has a pole at theta = 0 for this configuration."""


@dataclass(frozen=True)
class SpikedModel:
    """Spiked Wishart problem parameters.

    n is the matrix dimension, m the degrees of freedom, theta >= 0 the spike
    strength (finite).  The complex and real variants need m >= n; the
    singular variant needs m < n.
    """

    n: int
    m: int
    theta: float
    variant: str = "complex"

    def __post_init__(self):
        if not (isinstance(self.n, numbers.Integral) and isinstance(self.m, numbers.Integral)):
            raise ValueError("n and m must be integers")
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if not 0.0 <= self.theta < math.inf:
            raise ValueError("theta must be finite and nonnegative")
        if self.variant not in ("complex", "real", "singular"):
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.variant in ("complex", "real") and self.m < self.n:
            raise ValueError("complex/real variants require m >= n")
        if self.variant == "singular" and not (1 <= self.m < self.n):
            raise ValueError("singular variant requires 1 <= m < n")

    @property
    def alpha(self) -> int:
        return self.m - self.n

    @property
    def beta(self) -> float:
        return self.theta / (1.0 + self.theta)


@dataclass
class DensityCurve:
    """A density (or c.d.f.) evaluated on a strictly increasing grid."""

    grid: np.ndarray
    values: np.ndarray
    model: SpikedModel
    statistic: str


def _as_z_array(z):
    z = np.asarray(z, dtype=float)
    if not np.all((z >= 0) & (z <= 1)):
        raise DomainError("z must lie in [0, 1]")
    return z


def _clip_density(values: np.ndarray) -> np.ndarray:
    """Zero out tiny negative quadrature residue; reject anything worse.

    The tolerance is relative to the curve scale: far-tail cancellation in
    the double-integral engines leaves residue up to ~1e-5 of the peak, while
    genuinely negative densities (a formula transcription bug) show up orders
    of magnitude larger.  A non-finite value is never a density.
    """
    if not np.all(np.isfinite(values)):
        raise ArithmeticError("density evaluated to a non-finite value")
    floor = -2e-5 * max(1.0, float(np.max(values, initial=0.0)))
    if np.any(values < floor):
        raise ArithmeticError("density evaluated significantly below zero")
    return np.maximum(values, 0.0)


def _pdf_boundary(support: Callable):
    """Decorator: the one validation boundary every density passes.

    The wrapped body takes (model, z, ...) with z a 1-d float array in
    [0, 1].  The wrapper runs `support(model)`, rejects a theta so large that
    beta = theta/(1+theta) rounds to 1 (the formulas carry 1 - beta factors
    and logs), validates z, clips the body's values with `_clip_density`,
    and returns a float for scalar z and an array of z's shape otherwise.
    """

    def decorate(body):
        @wraps(body)
        def pdf(model: SpikedModel, z, *args, **kwargs):
            support(model)
            if model.beta == 1.0:
                raise ArithmeticError("theta is too large: beta = theta/(1+theta) rounds to 1")
            z = _as_z_array(z)
            out = _clip_density(body(model, z.ravel(), *args, **kwargs))
            return float(out[0]) if z.ndim == 0 else out.reshape(z.shape)

        return pdf

    return decorate


# ---------------------------------------------------------------------------
# Statistic table
# ---------------------------------------------------------------------------


def _theta_pole(model: SpikedModel, what: str) -> None:
    if model.theta < THETA_EPS:
        raise ThetaZeroSingularity(f"{what} has a pole at theta = 0")


def _z1_support(model: SpikedModel) -> None:
    if model.variant != "complex" or model.n < 2:
        raise UnsupportedModel("z1 requires the complex variant with n >= 2")


def _z2_support(model: SpikedModel) -> None:
    if model.variant != "complex" or model.n < 3:
        raise UnsupportedModel("z2 requires the complex variant with n >= 3")
    _theta_pole(model, "the second-overlap density")


def _zn_support(model: SpikedModel) -> None:
    _z1_support(model)
    if model.n >= 3:
        _theta_pole(model, "the largest-overlap density for n >= 3")


def _real_support(model: SpikedModel) -> None:
    if model.variant != "real" or model.n != 2:
        raise UnsupportedModel("real overlap densities are implemented for n = 2")


def _y1_support(model: SpikedModel) -> None:
    if model.variant != "singular" or not (model.m == 1 or model.n - model.m == 1):
        raise UnsupportedModel("y1_sing requires the singular variant with m = 1 or n - m = 1")
    if model.m >= 2:
        _theta_pole(model, "the n - m = 1 smallest-overlap density")


def _yn_support(model: SpikedModel) -> None:
    if model.variant != "singular" or model.n - model.m != 1 or model.m < 2:
        raise UnsupportedModel("yn_sing requires the singular variant with n - m = 1, m >= 2")
    _theta_pole(model, "the singular largest-overlap density")


def _variant_density():
    from . import variant_density

    return variant_density


@dataclass(frozen=True)
class Statistic:
    """Everything the library, sampler and CLI need to know about a statistic.

    `column` indexes the sampler's ascending projection row (None: not
    sampled); `pdf(model, z, preset)` looks its density up through the module
    at call time; `support(model)` raises when the density is undefined for
    the model; `arcsine` marks inverse-square-root endpoints, which the
    c.d.f. integrates in the sin^2-substituted variable.
    """

    variant: str
    column: int | None
    pdf: Callable
    support: Callable
    arcsine: bool = False


STATISTICS = {
    "z1": Statistic("complex", 0, lambda mo, z, p: pdf_z1(mo, z), _z1_support),
    "z2": Statistic("complex", 1, lambda mo, z, p: pdf_z2(mo, z, preset=p), _z2_support),
    "zn": Statistic("complex", -1, lambda mo, z, p: pdf_zn(mo, z, preset=p), _zn_support),
    # The law of n * z1 needs a model on which z1 is defined.
    "nz1_asym": Statistic(
        "complex", None, lambda mo, z, p: pdf_nz1_asymptotic(mo.theta, z), _z1_support
    ),
    "w1_real": Statistic(
        "real", 0, lambda mo, z, p: _variant_density().pdf_w1_real(mo, z), _real_support, True
    ),
    "w2_real": Statistic(
        "real", -1, lambda mo, z, p: _variant_density().pdf_w2_real(mo, z), _real_support, True
    ),
    "y1_sing": Statistic(
        "singular", 0, lambda mo, z, p: _variant_density().pdf_y1_singular(mo, z), _y1_support
    ),
    "yn_sing": Statistic(
        "singular",
        -1,
        lambda mo, z, p: _variant_density().pdf_yn_singular(mo, z, preset=p),
        _yn_support,
    ),
}


# ---------------------------------------------------------------------------
# Smallest-eigenvalue overlap
# ---------------------------------------------------------------------------


@lru_cache(maxsize=256)
def _min_overlap_coeffs(n: int, alpha: int, beta: float):
    """Collapse the nested finite sums of the smallest-overlap density.

    Expanding each determinant along its z-dependent first column turns the
    alpha-fold sum over (k_1..k_alpha) into alpha+1 coefficients T_i; the
    density is then a short polynomial-in-ratio combination per z.  Returns
    (T, log_shift) with the common log scale factored out.
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


def _pdf_z1_series(n: int, alpha: int, beta: float, z: np.ndarray) -> np.ndarray:
    """Nested-finite-sum route for the smallest-overlap density, n >= 3."""
    t_coef, shift = _min_overlap_coeffs(n, alpha, beta)
    omz = 1.0 - z
    denom = 1.0 - beta * omz
    ratio = beta * omz / denom
    acc = np.zeros_like(z)
    for i in range(alpha, -1, -1):
        gr = math.exp(gammaln(n + alpha + 1.0) - gammaln(n + i - 1.0))
        acc = acc * ratio + gr * t_coef[i]
    log_base = shift + (n + alpha) * math.log1p(-beta)
    return math.exp(log_base) * omz ** (n - 2) * denom ** (-(n + 1.0)) * acc


def _pdf_z1_n2(alpha: int, beta: float, z: np.ndarray) -> np.ndarray:
    """Closed finite-k sum for the n = 2 smallest-overlap density."""
    denom = 1.0 - beta * (1.0 - z)
    acc = np.zeros_like(z)
    for k in range(alpha + 1):
        logc = (
            gammaln(k + 3.0)
            + gammaln(2.0 * alpha - k + 1.0)
            - gammaln(k + 1.0)
            - gammaln(alpha - k + 1.0)
            - (2.0 * alpha - k + 1.0) * math.log(2.0 - beta)
        )
        acc += math.exp(logc) * denom ** (-(k + 3.0))
    return math.exp((2.0 + alpha) * math.log1p(-beta) - gammaln(alpha + 2.0)) * acc


def _pdf_z1_fast(n: int, alpha: int, beta: float, z: np.ndarray) -> np.ndarray:
    """Closed forms for alpha = 0 and alpha = 1, n >= 3."""
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
        h1 = specfun.gauss_2f1(-n + 1.0, 2.0, 3.0, arg)
        h2 = specfun.gauss_2f1(-n + 2.0, 2.0, 3.0, arg)
        lead = (
            n
            * (n * n - 1.0)
            * (1.0 - beta) ** (n + 1.0)
            * omz ** (n - 2)
            / (2.0 * (n - beta) ** 2 * denom ** (n + 1.0))
        )
        return lead * (h1 + beta * omz / denom * h2)
    raise ValueError("fast path supports alpha in {0, 1} only")


@_pdf_boundary(_z1_support)
def pdf_z1(model: SpikedModel, z) -> float | np.ndarray:
    """Density of the smallest-eigenvalue overlap |v^H u_1|^2.

    Dispatches to the closed alpha in {0, 1} forms, the n = 2 finite sum, or
    the general nested-sum route; theta = 0 reduces to the Haar density
    (n-1)(1-z)^(n-2).
    """
    n, alpha, beta = model.n, model.alpha, model.beta
    if model.theta == 0.0:
        return (n - 1.0) * (1.0 - z) ** (n - 2)
    if n == 2:
        return _pdf_z1_n2(alpha, beta, z)
    if alpha in (0, 1):
        return _pdf_z1_fast(n, alpha, beta, z)
    return _pdf_z1_series(n, alpha, beta, z)


def pdf_nz1_asymptotic(theta: float, v) -> float | np.ndarray:
    """Limit density of n * z1 as the dimension grows with m - n fixed."""
    if not 0.0 <= theta < math.inf:
        raise DomainError("theta must be finite and nonnegative")
    v = np.asarray(v, dtype=float)
    if not np.all(v >= 0):
        raise DomainError("v must be nonnegative")
    out = (1.0 + theta) * np.exp(-(1.0 + theta) * v)
    return float(out) if out.ndim == 0 else out


def cdf_nz1_asymptotic(theta: float, v) -> float | np.ndarray:
    """Limit c.d.f. 1 - exp(-(1+theta) v) of n * z1."""
    if not 0.0 <= theta < math.inf:
        raise DomainError("theta must be finite and nonnegative")
    v = np.asarray(v, dtype=float)
    if not np.all(v >= 0):
        raise DomainError("v must be nonnegative")
    out = -np.expm1(-(1.0 + theta) * v)
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Largest-eigenvalue overlap
# ---------------------------------------------------------------------------

_PRESETS = {
    "fast": dict(x_nodes=32, t_nodes=24, w_nodes=16, y_nodes=12, z2_x_nodes=48),
    "fine": dict(x_nodes=64, t_nodes=40, w_nodes=24, y_nodes=24, z2_x_nodes=48),
}

# Per-model engine precomputations kept by each prepare function.
ENGINE_CACHE_SIZE = 12


def _max_overlap_log_prefactor(n: int, alpha: int, beta: float) -> float:
    logk = -sum(
        math.lgamma(n - j + 1.0) + math.lgamma(n + alpha - j + 1.0)
        for j in range(1, n + 1)
    )
    out = math.lgamma(n) + logk + (n + alpha) * math.log1p(-beta)
    if n > 2:
        out -= (n - 2) * math.log(beta)
    return out


def _zn_basis(model: SpikedModel, preset: str) -> dict:
    """The (x, t) grid arrays of the zn engine."""
    p = _PRESETS[preset]
    n, alpha, beta = model.n, model.alpha, model.beta
    d = n - 2
    power = n * n + n * alpha - n + 1
    x, wx, t, wt = numkit.halfline_unit_grids(1.0 - beta, power, p["x_nodes"], p["t_nodes"])

    # The determinant in the inner integrand factorizes over the orthogonal
    # polynomials of the weight t^alpha (1-t)^2 e^{-x t}; the factorized form
    # is stable where the raw Hankel assembly loses all digits.
    log_norm, shift, logwq, p_deg = numkit.discrete_orthogonal_basis(x, t, wt, float(alpha), d)
    logpref = _max_overlap_log_prefactor(n, alpha, beta)
    base = logpref + power * np.log(x) - x + log_norm + shift + np.log(wx)
    return dict(x=x, t=t, logwq=logwq, p_deg=p_deg, base=base, beta=beta, d=d)


@lru_cache(maxsize=ENGINE_CACHE_SIZE)
def _zn_prepare(model: SpikedModel, preset: str) -> numkit.HalfLineSeries:
    """The z-grid evaluator: the inner sum e^{st} P(d, st), s = beta x (1-z), as
    a moment series in 1 - z (P the regularized lower incomplete gamma
    function; the Taylor part below degree d is annihilated by orthogonality)."""
    prep = _zn_basis(model, preset)
    a = np.exp(prep["logwq"]) * prep["p_deg"]
    return numkit.halfline_series(prep["x"], prep["t"], a, prep["base"], prep["beta"], prep["d"])


def _pdf_zn_grid(model: SpikedModel, zs: np.ndarray, preset: str) -> np.ndarray:
    return _zn_prepare(model, preset)(zs)


@_pdf_boundary(_zn_support)
def pdf_zn(model: SpikedModel, z, preset: str = "fine") -> float | np.ndarray:
    """Density of the largest-eigenvalue overlap |v^H u_n|^2.

    Closed forms cover n in {2, 3, 4}; larger n evaluates the double-integral
    representation on vectorized panel grids.  For n >= 3 the formula has a
    pole at theta = 0 and such calls raise ThetaZeroSingularity.
    """
    if model.n in (2, 3, 4):
        return _pdf_zn_closed_values(model, z)
    return _pdf_zn_grid(model, z, preset)


def _pdf_zn_closed_values(model: SpikedModel, z: np.ndarray) -> np.ndarray:
    n, alpha, beta = model.n, model.alpha, model.beta
    if n == 2:
        logc = (
            math.log(2.0)
            + gammaln(2.0 * alpha + 4.0)
            + (alpha + 2.0) * math.log1p(-beta)
            - gammaln(alpha + 2.0)
            - gammaln(alpha + 4.0)
            - (2.0 * alpha + 4.0) * math.log(2.0 - beta)
        )
        arg = (1.0 - beta * (1.0 - z)) / (2.0 - beta)
        return math.exp(logc) * specfun.gauss_2f1(3.0, 2.0 * alpha + 4.0, alpha + 4.0, arg)
    if n == 3:
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
    return _pdf_zn_closed_n4(alpha, beta, z)


def _gauss_2f1_series_vec(a, b, c, y, dtype=np.float64):
    """2F1 by direct series for 0 <= y < 1, vectorized, chosen dtype."""
    y = np.asarray(y, dtype=dtype)
    term = np.ones_like(y)
    acc = term.copy()
    one = dtype(1.0)
    for j in range(specfun.SERIES_MAX_TERMS):
        term = term * ((a + j) * (b + j) / ((c + j) * (j + one))) * y
        acc = acc + term
        if np.max(np.abs(term)) <= 1e-14 * np.max(np.abs(acc)):
            return acc
    raise specfun.NoConvergence("vectorized 2F1 series did not converge")


def _f2_iterated_vec(a, b1, b2, c1, c2, x, y, dtype=np.float64, max_terms=60_000):
    """F2(a; b1, b2; c1, c2; x, y) with vector y (and scalar or vector x).

    Iterated form: sum over m of (a)_m (b1)_m x^m / ((c1)_m m!) 2F1(a+m, b2;
    c2; y).  The inner Gauss functions are advanced by the three-term
    contiguous recurrence in the first parameter, carried in term-scaled form
    so neither factor overflows.  Valid for 0 <= x, y and x/(1-y) < 1.
    """
    x = np.asarray(x, dtype=dtype)
    y = np.asarray(y, dtype=dtype)
    one = dtype(1.0)
    f_prev = _gauss_2f1_series_vec(a, b2, c2, y, dtype)  # m = 0
    f_curr = _gauss_2f1_series_vec(a + 1.0, b2, c2, y, dtype)  # m = 1
    r_prev = (a * b1 / c1) * x  # C_1 x / C_0
    t_prev = f_prev * np.ones_like(y)
    t_curr = r_prev * f_curr
    total = t_prev + t_curr
    quiet = 0
    am, b1m, c1m = a + 1.0, b1 + 1.0, c1 + 1.0
    m = 1
    while m < max_terms:
        r_curr = (am * b1m / (c1m * (m + one))) * x  # C_{m+1} x / C_m
        aa = a + m
        coef_prev = (c2 - aa) * r_curr * r_prev
        coef_curr = (2.0 * aa - c2 + (b2 - aa) * y) * r_curr
        t_next = (coef_prev * t_prev + coef_curr * t_curr) / (aa * (one - y))
        total = total + t_next
        tmax = np.max(np.abs(t_next))
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
    raise specfun.NoConvergence("iterated F2 did not converge")


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


# ---------------------------------------------------------------------------
# Second-smallest-eigenvalue overlap
# ---------------------------------------------------------------------------


@lru_cache(maxsize=ENGINE_CACHE_SIZE)
def _z2_prepare(model: SpikedModel, preset: str):
    p = _PRESETS[preset]
    n, alpha, beta = model.n, model.alpha, model.beta
    lam_x = n - 1.0 - beta
    power_x = 5.0 + alpha + (alpha + 1.0) * (n + alpha)
    x, wx = numkit.halfline_grid(lam_x, power_hint=power_x, nodes_per_panel=p["z2_x_nodes"])
    y, wy = numkit.unit_grid(p["y_nodes"], grade_left=2, grade_right=2)
    nx, ny = x.size, y.size

    xu = np.repeat(x, ny)
    yu = np.tile(y, nx)
    wxy = np.outer(wx, wy).ravel()
    u = xu * yu

    # Determinant with columns L^(2)(-u) then L^(j)(-x): z independent.
    dv = alpha + 1
    vmat = np.empty((u.size, dv, dv))
    for i in range(1, dv + 1):
        vmat[:, i - 1, 0] = eval_genlaguerre(n + i - 3, 2, -u)
        for j in range(2, dv + 1):
            vmat[:, i - 1, j - 1] = eval_genlaguerre(n + i - j - 1, j, -xu)
    vdet = np.linalg.det(vmat)

    # Cofactors of the phi column in the (alpha+3) determinant.
    du = alpha + 3
    rest = np.empty((u.size, du, du - 1))
    for i in range(1, du + 1):
        rest[:, i - 1, 0] = eval_genlaguerre(n + i - 4, 2, -u)
        rest[:, i - 1, 1] = eval_genlaguerre(n + i - 5, 3, -u)
        for k in range(4, du + 1):
            rest[:, i - 1, k - 2] = eval_genlaguerre(n + i - k, k - 2, -xu)
    cof = np.empty((u.size, du))
    for i in range(du):
        sign_i = 1.0 if i % 2 == 0 else -1.0
        cof[:, i] = sign_i * np.linalg.det(np.delete(rest, i, axis=1))

    # Shared w grid for the phi-column integrals (Cauchy kernel against u).
    lam_w = 1.0 - beta
    w_end = numkit.envelope_end(lam_w, power_hint=n + alpha + 2.0)
    w, ww = numkit.geometric_grid(1e-7, w_end, nodes_per_panel=p["w_nodes"])
    gvec = np.empty((w.size, du))
    for i in range(1, du + 1):
        gvec[:, i - 1] = ww * w * w * eval_genlaguerre(n + i - 4, 2, w) * np.exp(-lam_w * w)

    r_ratio = math.exp(gammaln(n) - gammaln(n + alpha))
    base = wxy * np.exp(-xu * (n - beta) + u)
    sv = base * xu ** (3.0 + alpha) * yu**2 * r_ratio * vdet * np.exp(-beta * u)
    su = base * xu**3 * yu**2 * (1.0 - yu) ** (-float(alpha))
    logpref = (2.0 - n) * math.log(beta) + (n + alpha) * math.log1p(-beta)
    sign = 1.0 if n % 2 == 0 else -1.0
    pref = sign * math.exp(logpref)

    return dict(u=u, w=w, gvec=gvec, cof=cof, sv=sv, su=su, pref=pref, beta=beta)


def _pdf_z2_grid(model: SpikedModel, zs: np.ndarray, preset: str) -> np.ndarray:
    prep = _z2_prepare(model, preset)
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


@_pdf_boundary(_z2_support)
def pdf_z2(model: SpikedModel, z, preset: str = "fine") -> float | np.ndarray:
    """Density of the second-smallest-eigenvalue overlap |v^H u_2|^2.

    Defined for the complex variant with n >= 3 and theta > 0 (the formula
    carries a beta^(2-n) pole).  Evaluated as a double integral whose
    determinant integrand is expanded along its z-dependent column, with the
    Cauchy-kernel column integrals shared across the z grid.
    """
    return _pdf_z2_grid(model, z, preset)


# ---------------------------------------------------------------------------
# Cumulative distributions
# ---------------------------------------------------------------------------


def _statistic(name: str) -> Statistic:
    if name not in STATISTICS:
        raise UnsupportedModel(f"unknown statistic {name!r}")
    return STATISTICS[name]


def density_values(statistic: str, model: SpikedModel, zs, preset: str = "fine") -> np.ndarray:
    """Density of `statistic` on a z grid."""
    return np.asarray(_statistic(statistic).pdf(model, np.asarray(zs, dtype=float), preset))


# The c.d.f. mesh: 32 uniform panels, the first and last split dyadically 11
# times because the overlap laws put their mass within O(1/n) of z = 0 or near
# z = 1, and 8 nodes per panel (432).  Deeper arcsine grading puts nodes where
# sin^2(s) rounds to 1.
_CDF_PANELS, _CDF_LEVELS, _CDF_ORDER = 32, 11, 8


@lru_cache(maxsize=1)
def _cdf_mesh():
    """Panel edges on [0, 1], nodes on [0, 1] and the cumulative-integration
    matrix: row i < order integrates the panel's degree-(order - 1)
    interpolant from the panel start to node i, the last row over the panel."""
    leg = np.polynomial.legendre
    h = 1.0 / _CDF_PANELS
    ends = h * 2.0 ** -np.arange(_CDF_LEVELS, 0, -1)
    edges = np.concatenate([[0.0], ends, np.linspace(h, 1.0 - h, _CDF_PANELS - 1),
                            1.0 - ends[::-1], [1.0]])
    x, _ = leg.leggauss(_CDF_ORDER)
    lagrange = np.linalg.inv(leg.legvander(x, _CDF_ORDER - 1))
    cumint = 0.5 * leg.legval(np.append(x, 1.0), leg.legint(lagrange, lbnd=-1)).T
    return edges, 0.5 * (x + 1.0), cumint


def _cdf_interpolant(statistic: str, model: SpikedModel, preset: str):
    """Monotone interpolant of the c.d.f. built from one vectorized pdf pass.

    The mesh lives in the variable s with z = sin^2(s) for the arcsine-type
    statistics, which removes their inverse-square-root endpoints, and z = s
    for all others.  The knots are the panel edges and the nodes.  A total
    mass outside 1 +- 1e-4 raises ArithmeticError.
    """
    from scipy.interpolate import PchipInterpolator

    arcsine = _statistic(statistic).arcsine
    edges, gl_x, cumint = _cdf_mesh()
    sb = edges * (0.5 * math.pi if arcsine else 1.0)
    widths = np.diff(sb)
    nodes = sb[:-1, None] + widths[:, None] * gl_x
    to_z = (lambda s: np.sin(s) ** 2) if arcsine else (lambda s: s)
    jac = np.sin(2.0 * nodes) if arcsine else 1.0
    vals = density_values(statistic, model, to_z(nodes.ravel()), preset).reshape(nodes.shape)
    steps = (vals * jac * widths[:, None]) @ cumint.T
    starts = np.concatenate([[0.0], np.cumsum(steps[:, -1])])
    if abs(starts[-1] - 1.0) > 1e-4:
        raise ArithmeticError(f"c.d.f. mass {starts[-1]:.6g} misses 1 by more than 1e-4")
    cum = np.concatenate([[0.0], (starts[:-1, None] + steps).ravel()])
    knots = to_z(np.concatenate([[0.0], np.hstack([nodes, sb[1:, None]]).ravel()]))
    return PchipInterpolator(knots, np.maximum.accumulate(cum), extrapolate=False)


def cdf_grid(statistic: str, model: SpikedModel, zs, preset: str = "fast"):
    """Cumulative distribution at many z values; see model_cdf_fn."""
    return model_cdf_fn(statistic, model, preset)(zs)


def model_cdf_fn(statistic: str, model: SpikedModel, preset: str = "fast"):
    """Vectorized c.d.f. callable suitable for the KS test.

    The pdf is evaluated on the Gauss-Legendre nodes of a graded composite
    mesh, integrated cumulatively to every node and panel edge, and
    interpolated monotonically between them.  The returned values are
    non-decreasing in x, exactly.
    """
    if statistic == "nz1_asym":
        theta = model.theta
        return lambda x: np.asarray(cdf_nz1_asymptotic(theta, np.maximum(np.asarray(x, float), 0.0)))
    interp = _cdf_interpolant(statistic, model, preset)

    def model_cdf(x):
        x = np.asarray(x, dtype=float)
        order = np.argsort(x, axis=None)
        vals = np.clip(interp(np.clip(x.ravel()[order], 0.0, 1.0)), 0.0, 1.0)
        return np.maximum.accumulate(vals)[np.argsort(order)].reshape(x.shape)

    return model_cdf
