"""Exact and asymptotic overlap densities for the complex spiked Wishart model.

The statistics are the squared projections of the unit spike direction onto
ordered sample eigenvectors: the smallest-eigenvalue overlap (z1), the
second-smallest (z2), and the largest (zn), plus the scaled limit of n*z1.

The smallest-overlap density is one degree-(m - n) polynomial in
r = beta (1 - z) / (1 - beta (1 - z)), with coefficients built once per
(n, m, theta).  At n = 2 they are closed sums of binomials; for n >= 3 the
closed form's nested sum is integrated by Andreief/Gauss-Laguerre into
cofactor coefficients of the z-dependent first determinant column, a route
validated for m - n <= 10 and <= 360 nodes that raises ArithmeticError beyond.
The largest and second-smallest densities are double integrals with
determinant integrands on fixed geometric panel grids.  At n = 2 the largest
overlap is the smallest-overlap polynomial reflected (z -> 1 - z).  For
n >= 3 the inner integral is a power series in 1 - z built once per model
(`numkit.halfline_series`), so a z grid costs one matrix product.  Its length
follows the t weight, not theta (20 terms at theta = 0.1, 134 at 1e4), and a
model whose series cannot be bounded raises ArithmeticError; no series here
has a term budget.  The second-smallest density's Laguerre determinants do
not depend on theta: they are built once per (n, m - n), on an x grid laid
out for beta -> 1, into an 8-entry cache (`_z2_minors`).  It applies the
Cauchy kernel of its z-dependent column once per model, through Chebyshev
proxy sources (`numkit.cauchy_proxies`), which leaves one exponential sum in
z; that sum is interpolated once per model on 21 Chebyshev points of each of
dyadic panels graded toward z = 0, and a model whose interpolant's mass
misses 1 by more than 1e-4 raises ArithmeticError.
Laguerre values and log-gamma come from scipy.special, determinants from
numpy.linalg.

Every density passes through one boundary (`_density`) that checks z and
rejects non-finite output.  All evaluators are pure; each model's engine
(`Statistic.prepare`) is built once, after its support check, into one
12-entry cache keyed by (statistic, frozen model) and shared by all statistics
(`_engine`).  The c.d.f. (`model_cdf_fn` / `cdf_grid`) integrates panel interpolants.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable

import numpy as np
from scipy.special import comb, eval_genlaguerre, gammaln, roots_genlaguerre

from . import numkit

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


# ---------------------------------------------------------------------------
# Supports
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


def _yn_support(model: SpikedModel) -> None:
    if model.variant != "singular" or model.n - model.m != 1 or model.m < 2:
        raise UnsupportedModel("yn_sing requires the singular variant with n - m = 1, m >= 2")
    _theta_pole(model, "the singular largest-overlap density")


# ---------------------------------------------------------------------------
# Smallest-eigenvalue overlap
# ---------------------------------------------------------------------------


# Validated ranges.  z1: m - n and the Gauss-Laguerre node count, on an mpmath
# oracle (scipy's weights overflow from 363 nodes on).  z2: m - n; its mass is
# within 1.1e-7 at m - n = 5 and off by up to 6e-4 at 6.
Z1_MAX_ALPHA, Z1_MAX_NODES, Z2_MAX_ALPHA = 10, 360, 5


def _check_mass(what: str, mass: float) -> None:
    """The one mass check of the c.d.f. and the z2 engine."""
    if abs(mass - 1.0) > 1e-4:
        raise ArithmeticError(f"{what} mass {mass:.6g} misses 1 by more than 1e-4")


def _min_overlap_coeffs(n: int, alpha: int, beta: float):
    """The smallest-overlap polynomial in r, as (coefficients, log_shift): closed
    sums at n = 2, and for n >= 3 an Andreief/Gauss-Laguerre integral.

    With Gamma(p) c^-p = int x^(p-1) e^{-cx} dx, c = n - beta, the alpha-fold
    sum over (k_1..k_alpha) moves inside the determinant (Andreief's
    identity): T_i = int x^alpha e^{-cx} det M_{-i}(x) dx.  Differenced in i,
    the rows of M form the Toeplitz matrix G[k, a] = [t^(n+k-a)] (1+t)^n e^{xt},
    a = 2..alpha+1, and det M_{-i} is a scaled sum_{k>=i} C(k, i) det G_{-k}:
    positive polynomials of degree <= D = sum_j (n+alpha-j-1), which D//2 + 2
    Gauss-Laguerre nodes integrate exactly.  At n = 2 the density is
    (1-beta)^(alpha+2) / (alpha+1)! sum_k c_k denom^-(k+3), c_k =
    (k+2)(k+1) (2 alpha-k)! / (alpha-k)! (2-beta)^-(2 alpha-k+1), and
    1/denom = 1 + r gives the coefficients b_j = sum_{k>=j} C(k, j) c_k in r:
    sums of positive terms, with no alpha limit.  For n >= 3 the coefficient of
    r^i is Gamma(n+alpha+1) / Gamma(n+i-1) T_i, which leaves the exact factor
    (n+i)(n+i-1) on the binomial sum and Gamma(n) / Gamma(n+alpha) in the shift.
    """
    idx = np.arange(alpha + 1)
    if n == 2:
        ck = np.exp(gammaln(idx + 3.0) + gammaln(2.0 * alpha - idx + 1.0) - gammaln(idx + 1.0)
                   - gammaln(alpha - idx + 1.0) - (2.0 * alpha - idx + 1.0) * math.log(2.0 - beta))
        return comb(idx, idx[:, None]) @ ck, -math.lgamma(alpha + 2.0)
    nodes = alpha * (2 * n + alpha - 3) // 4 + 2
    if alpha > Z1_MAX_ALPHA or nodes > Z1_MAX_NODES:  # (m - n)(n + m - 3) <= 1434
        raise ArithmeticError(f"z1 is validated for m - n <= {Z1_MAX_ALPHA}, {Z1_MAX_NODES} nodes")
    c = n - beta
    y, wy = roots_genlaguerre(nodes, alpha)
    # g_s(y/c) = sum_e C(n, n+s-e) (y/c)^e / e!, s = -alpha-1..alpha-2, by Horner on
    # correctly rounded coefficients: the minors amplify any rounding of their entries.
    g = np.zeros((y.size, 2 * alpha))
    for e in range(n + alpha - 2, -1, -1):
        g = g * (y / c)[:, None] + [math.comb(n, n + s - e) / math.factorial(e) if e <= n + s
                                    else 0.0 for s in range(-alpha - 1, alpha - 1)]
    keep = [[r for r in idx if r != i] for i in idx]
    u = wy @ np.linalg.det(g[:, idx[:, None] - idx[:alpha] + alpha - 1][:, keep, :])
    coef = (n + idx) * (n + idx - 1.0) * (comb(idx, idx[:, None]) @ u)
    return coef, -math.log(math.perm(n + alpha - 1, alpha)) - (alpha + 1) * math.log(c)


def _z1_series(n: int, alpha: int, beta: float) -> Callable:
    """The smallest-overlap density as (omz, z) -> its values at z = 1 - omz: a
    degree-alpha polynomial in r = beta omz / (1 - beta omz) with the
    `_min_overlap_coeffs` coefficients; 1 - beta omz = (1 - beta) + beta z keeps
    its digits near 1/(1 + theta)."""
    coef, shift = _min_overlap_coeffs(n, alpha, beta)
    scale = math.exp(shift + (alpha - 1.0) * math.log1p(-beta))

    def series(omz: np.ndarray, z: np.ndarray) -> np.ndarray:
        denom = (1.0 - beta) + beta * z
        acc = np.polynomial.polynomial.polyval(beta * omz / denom, coef)
        # (1-beta)^(n+alpha) denom^-(n+1) (1-z)^(n-2) as (1-beta)^(alpha-1) times powers <= 1
        # in logs: their error follows their logarithm, not n roundings of denom or of 1 - z.
        with np.errstate(divide="ignore"):  # log1p(-1) = -inf: the density is 0 at z = 1
            log_edge = (n - 2.0) * np.log1p(-z) if n > 2 else 0.0
        power = np.exp(log_edge - (n + 1.0) * np.log1p(beta * z / (1.0 - beta)))
        return scale * power * acc

    return series


def _z1_prepare(model: SpikedModel) -> Callable:
    if model.theta == 0.0:
        return lambda z: (model.n - 1.0) * (1.0 - z) ** (model.n - 2)
    series = _z1_series(model.n, model.alpha, model.beta)
    return lambda z: series(1.0 - z, z)


def pdf_z1(model: SpikedModel, z) -> float | np.ndarray:
    """Density of the smallest-eigenvalue overlap |v^H u_1|^2.

    One polynomial in r for every n (`_z1_series`); theta = 0 reduces to
    the Haar density (n-1)(1-z)^(n-2).
    """
    return _density("z1", model, z)


def _nz1_exponent(theta: float, v) -> np.ndarray:
    """-(1 + theta) v (-inf past overflow), after the n * z1 law's one input check."""
    if not 0.0 <= theta < math.inf:
        raise DomainError("theta must be finite and nonnegative")
    v = np.asarray(v, dtype=float)
    if not np.all(v >= 0):
        raise DomainError("v must be nonnegative")
    with np.errstate(over="ignore"):
        return -(1.0 + theta) * v


def pdf_nz1_asymptotic(theta: float, v) -> float | np.ndarray:
    """Limit density of n * z1 as the dimension grows with m - n fixed."""
    out = (1.0 + theta) * np.exp(_nz1_exponent(theta, v))
    return float(out) if out.ndim == 0 else out


def cdf_nz1_asymptotic(theta: float, v) -> float | np.ndarray:
    """Limit c.d.f. 1 - exp(-(1+theta) v) of n * z1."""
    out = -np.expm1(_nz1_exponent(theta, v))
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Largest-eigenvalue overlap
# ---------------------------------------------------------------------------

# Gauss-Legendre nodes per panel of the z2 engine's x, y and w grids.
Z2_X_NODES, Z2_Y_NODES, Z2_W_NODES = 48, 12, 16


def _max_overlap_log_prefactor(n: int, alpha: int, beta: float) -> float:
    logk = -sum(
        math.lgamma(n - j + 1.0) + math.lgamma(n + alpha - j + 1.0)
        for j in range(1, n + 1)
    )
    out = math.lgamma(n) + logk + (n + alpha) * math.log1p(-beta)
    if n > 2:
        out -= (n - 2) * math.log(beta)
    return out


def _zn_basis(model: SpikedModel) -> dict:
    """The (x, t) arrays of the zn engine.  The determinant in the inner
    integrand factorizes over the orthogonal polynomials of the weight
    t^alpha (1-t)^2 e^{-x t}; the factorized form is stable where the raw
    Hankel assembly loses all digits."""
    n, alpha, beta = model.n, model.alpha, model.beta
    power = n * n + n * alpha - n + 1
    return numkit.halfline_basis(beta, _max_overlap_log_prefactor(n, alpha, beta), power, power,
                                 alpha, n - 2)


def _zn_prepare(model: SpikedModel) -> Callable:
    """The z-grid evaluator.  At n = 2 the smallest-overlap polynomial reflected;
    for n >= 3 the inner sum e^{st} P(d, st), s = beta x (1-z), as a moment
    series in 1 - z (P the regularized lower incomplete gamma function; the
    Taylor part below degree d = n - 2 is annihilated by orthogonality)."""
    if model.n == 2:
        series = _z1_series(2, model.alpha, model.beta)
        return lambda z: series(z, 1.0 - z)
    prep = _zn_basis(model)
    a = np.exp(prep["logwq"]) * prep["p_deg"]
    return numkit.halfline_series(prep["x"], prep["t"], a, prep["log_row"], model.beta, model.n - 2)


def pdf_zn(model: SpikedModel, z) -> float | np.ndarray:
    """Density of the largest-eigenvalue overlap |v^H u_n|^2.

    n = 2 is the smallest-overlap density reflected (z -> 1 - z), evaluated at
    1 - z = z itself, and n >= 3 the moment series of the double-integral
    representation (`_zn_prepare`).  For n >= 3 the formula has a pole at
    theta = 0 and such calls raise ThetaZeroSingularity.
    """
    return _density("zn", model, z)


# ---------------------------------------------------------------------------
# Second-smallest-eigenvalue overlap
# ---------------------------------------------------------------------------


def _z2_y_grid():
    """The y nodes and weights on [0, 1] of the z2 engine's (x, y) grid."""
    return numkit.unit_grid(Z2_Y_NODES, grade_left=2, grade_right=2)


@lru_cache(maxsize=8)
def _z2_minors(n: int, alpha: int) -> tuple:
    """The theta-free part of the z2 basis, shared by every theta of (n, m):
    the x nodes and weights, the z-free determinant vdet and the phi column's
    cofactors cof, on the (x, y) nodes x-major, as read-only arrays.  Only the
    x envelope e^{-(n-1-beta) x} depends on theta, so the x grid is laid out
    for its slowest decay, beta -> 1."""
    power_x = 5.0 + alpha + (alpha + 1.0) * (n + alpha)
    x, wx = numkit.halfline_grid(n - 2.0, power_hint=power_x, nodes_per_panel=Z2_X_NODES)
    y, _ = _z2_y_grid()
    ny = y.size
    u = np.repeat(x, ny) * np.tile(y, x.size)

    # The (alpha+3) determinant without its phi column: row i = 1..alpha+3
    # holds L_{n+i-4}^(2)(-u), L_{n+i-5}^(3)(-u), then L_{n+i-k}^(k-2)(-x)
    # for k = 4..alpha+3, which depend on x alone and repeat over the y nodes.
    du = alpha + 3
    deg, k = n - 3 + np.arange(du), np.arange(4, du + 1)
    rest = np.empty((u.size, du, du - 1))
    rest[:, :, 0] = eval_genlaguerre(deg, 2, -u[:, None])
    rest[:, :, 1] = eval_genlaguerre(deg - 1, 3, -u[:, None])
    x_cols = eval_genlaguerre(deg[:, None] + 4 - k, k - 2, -x[:, None, None])
    rest[:, :, 2:] = np.repeat(x_cols, ny, axis=0)
    # The z-free determinant is the minor on rows 2..alpha+2 without L^(3)(-u).
    vdet = np.linalg.det(rest[:, 1 : du - 1][:, :, [0, *range(2, du - 1)]])
    # Cofactors of the phi column, one row deleted at a time.
    cof = np.empty((u.size, du))
    for i in range(du):
        sign_i = 1.0 if i % 2 == 0 else -1.0
        cof[:, i] = sign_i * np.linalg.det(rest[:, [r for r in range(du) if r != i]])
    for a in (x, wx, vdet, cof):
        a.flags.writeable = False
    return x, wx, vdet, cof


def _z2_basis(model: SpikedModel) -> dict:
    """The (x, y) and w grid arrays of the z2 engine: `_z2_minors` times the
    theta-dependent factors."""
    n, alpha, beta = model.n, model.alpha, model.beta
    x, wx, vdet, cof = _z2_minors(n, alpha)
    y, wy = _z2_y_grid()
    xu = np.repeat(x, y.size)
    yu = np.tile(y, x.size)
    wxy = np.outer(wx, wy).ravel()
    u = xu * yu

    # Shared w grid for the phi-column integrals (Cauchy kernel against u).
    lam_w = 1.0 - beta
    w_end = numkit.envelope_end(lam_w, power_hint=n + alpha + 2.0)
    w, ww = numkit.geometric_grid(1e-7, w_end, nodes_per_panel=Z2_W_NODES)
    deg = n - 3 + np.arange(alpha + 3)
    gvec = (ww * w * w)[:, None] * eval_genlaguerre(deg, 2, w[:, None]) * np.exp(-lam_w * w)[:, None]

    r_ratio = math.exp(gammaln(n) - gammaln(n + alpha))
    base = wxy * np.exp(-xu * (n - beta) + u)
    sv = base * xu ** (3.0 + alpha) * yu**2 * r_ratio * vdet * np.exp(-beta * u)
    su = base * xu**3 * yu**2 * (1.0 - yu) ** (-float(alpha))
    logpref = (2.0 - n) * math.log(beta) + (n + alpha) * math.log1p(-beta)
    pref = (1.0 if n % 2 == 0 else -1.0) * math.exp(logpref)
    return dict(u=u, w=w, gvec=gvec, cof=cof, sv=sv, su=su, pref=pref, beta=beta)


# The z2 proxy: a degree-20 Chebyshev interpolant on each dyadic panel of [0, 1].
_Z2_ORDER = 21
_Z2_T = np.polynomial.chebyshev.chebpts2(_Z2_ORDER)
_Z2_FROM_VALUES = np.linalg.inv(np.polynomial.chebyshev.chebvander(_Z2_T, _Z2_ORDER - 1))
_Z2_INTEGRALS = np.polynomial.chebyshev.chebval(  # int_{-1}^{1} T_j dt
    1.0, np.polynomial.chebyshev.chebint(np.eye(_Z2_ORDER), lbnd=-1))


def _z2_prepare(model: SpikedModel) -> Callable:
    """The density as Chebyshev panels in z.  e^{-beta w z} is the phi column's
    only z dependence, so its Cauchy kernel is summed once, h[w] = sum_i gvec[w, i]
    sum_u su[u] cof[u, i] / (w + u), through the few hundred proxy sources of
    `numkit.cauchy_proxies` in place of the (x, y) nodes u.  That leaves
    pref * sum_k c_k e^{lam_k z}: lam = beta u with c = sv, and lam = -beta w
    with c = -h.  That sum is entire in z and is evaluated once, on 21
    Chebyshev points of each panel [0, 2^-L], [2^-L, 2^(1-L)], ..., [1/2, 1],
    with L = max(0, ceil(log2(max(1, -min lam) / 16))) so that the fastest
    decay spans at most 16 units of lam z on the first panel.
    coef[:, p] holds panel p's interpolant in t in [-1, 1].  The evaluator checks
    the exact mass on every call, so a model that fails it raises each time
    without a rebuild."""
    if model.alpha > Z2_MAX_ALPHA:
        raise ArithmeticError(f"z2 is validated for m - n <= {Z2_MAX_ALPHA}")
    b = _z2_basis(model)
    u, w, beta = b["u"], b["w"], b["beta"]
    uk, qk = numkit.cauchy_proxies(u, b["su"][:, None] * b["cof"])
    h = np.sum(b["gvec"] * (np.reciprocal(np.add.outer(w, uk)) @ qk), axis=1)
    lam, c = np.concatenate([beta * u, -beta * w]), np.concatenate([b["sv"], -h])
    levels = max(0, math.ceil(math.log2(max(1.0, -np.min(lam)) / 16.0)))
    edges = np.concatenate([[0.0], 2.0 ** np.arange(-levels, 1.0)])
    half = 0.5 * np.diff(edges)
    zs = (edges[:-1, None] + half[:, None] * (_Z2_T + 1.0)).ravel()
    # Pairwise sums, one node at a time: at small theta the terms cancel, and one
    # BLAS product over all of them lands up to 20 times farther from a long-double sum.
    vals = b["pref"] * np.array([np.sum(c * np.exp(lam * z)) for z in zs])
    coef = _Z2_FROM_VALUES @ vals.reshape(half.size, _Z2_ORDER).T
    mass = float(half @ (_Z2_INTEGRALS @ coef))

    def panels(zs: np.ndarray) -> np.ndarray:
        _check_mass("z2", mass)
        panel = np.searchsorted(edges[1:-1], zs, side="right")
        t = (zs - edges[panel]) / half[panel] - 1.0
        return np.polynomial.chebyshev.chebval(t, coef[:, panel], tensor=False)

    return panels


def pdf_z2(model: SpikedModel, z) -> float | np.ndarray:
    """Density of the second-smallest-eigenvalue overlap |v^H u_2|^2.

    Defined for the complex variant with n >= 3 and theta > 0 (the formula
    carries a beta^(2-n) pole).  A double integral whose determinant is expanded
    along its z-dependent column; that column's Cauchy kernel is summed once
    per model, which leaves one exponential sum in z, kept as Chebyshev panels
    (`_z2_prepare`).  Past m - n = Z2_MAX_ALPHA, or when the panels' exact mass
    misses 1 by more than 1e-4, it raises ArithmeticError.
    """
    return _density("z2", model, z)


# ---------------------------------------------------------------------------
# Statistic table, engines and cumulative distributions
# ---------------------------------------------------------------------------


def _variant_density():
    from . import variant_density

    return variant_density


@dataclass(frozen=True)
class Statistic:
    """Everything the library, sampler and CLI need to know about a statistic.

    `column` indexes the sampler's ascending projection row; `support(model)`
    raises when the density is undefined for the model; `prepare(model)` builds
    its engine, a callable from a 1-d z array in [0, 1] to density values, kept
    by `_engine`; `arcsine` marks inverse-square-root endpoints, which the c.d.f.
    integrates in the sin^2-substituted variable.  `law`, set in place of an engine,
    maps "pdf" and "cdf" to f(theta, v) of a limit law of v = n * overlap on [0, inf).
    """

    variant: str
    column: int
    support: Callable
    prepare: Callable | None
    arcsine: bool = False
    law: dict[str, Callable] | None = None


STATISTICS = {
    "z1": Statistic("complex", 0, _z1_support, _z1_prepare),
    "z2": Statistic("complex", 1, _z2_support, _z2_prepare),
    "zn": Statistic("complex", -1, _zn_support, _zn_prepare),
    # The law of n * z1 needs a model on which z1 is defined.
    "nz1_asym": Statistic(
        "complex", 0, _z1_support, None, law={"pdf": pdf_nz1_asymptotic, "cdf": cdf_nz1_asymptotic}
    ),
    # The closed forms keep only their model; variant_density imports this module.
    "w1_real": Statistic(
        "real", 0, _real_support, lambda mo: partial(_variant_density()._pdf_w_real, mo), True
    ),
    "w2_real": Statistic(
        "real", -1, _real_support, lambda mo: partial(_variant_density()._pdf_w_mirror, mo), True
    ),
    "y1_sing": Statistic(
        "singular", 0, _y1_support, lambda mo: partial(_variant_density()._pdf_y1, mo)
    ),
    "yn_sing": Statistic("singular", -1, _yn_support, lambda mo: _variant_density()._yn_prepare(mo)),
}


def _statistic(name: str) -> Statistic:
    if name not in STATISTICS:
        raise UnsupportedModel(f"unknown statistic {name!r}")
    return STATISTICS[name]


ENGINE_CACHE_SIZE = 12  # engines (over all statistics) and c.d.f. meshes kept at once


@lru_cache(maxsize=ENGINE_CACHE_SIZE)
def _engine(statistic: str, model: SpikedModel) -> Callable:
    """The statistic's `prepare(model)`, built once after `support(model)` and a
    check that beta = theta/(1+theta) does not round to 1 (the formulas carry 1 - beta)."""
    entry = _statistic(statistic)
    entry.support(model)
    if model.beta == 1.0:
        raise ArithmeticError("theta is too large: beta = theta/(1+theta) rounds to 1")
    return entry.prepare(model)


def _density(statistic: str, model: SpikedModel, z) -> float | np.ndarray:
    """The one boundary every density passes: checks z in [0, 1], clips the
    engine's values on z flattened with `_clip_density`, and returns a float for
    scalar z and an array of z's shape otherwise."""
    z = _as_z_array(z)
    out = _clip_density(_engine(statistic, model)(z.ravel()))
    return float(out[0]) if z.ndim == 0 else out.reshape(z.shape)


def density_values(statistic: str, model: SpikedModel, zs, preset: str = "fast") -> np.ndarray:
    """Density of `statistic` on a z grid.

    Every engine has one grid; `preset` remains for callers that name it and
    accepts only "fast".
    """
    if preset != "fast":
        raise ValueError(f"unknown preset {preset!r}: the engines have one grid, 'fast'")
    entry = _statistic(statistic)
    if entry.law:
        entry.support(model)
        return np.asarray(entry.law["pdf"](model.theta, zs))
    return np.asarray(_density(statistic, model, zs))


# The c.d.f. mesh: 32 uniform panels of 8 nodes, the first and last split
# dyadically, since the laws put their mass within O(1/n), and O(1/theta), of
# z = 0 or 1: 11 times (432 nodes), once more per doubling of 1 + theta beyond
# 2^14.  Deeper arcsine grading puts nodes where sin^2(s) rounds to 1.
_CDF_PANELS, _CDF_LEVELS, _CDF_ORDER = 32, 11, 8


@lru_cache(maxsize=ENGINE_CACHE_SIZE)
def _cdf_mesh(levels: int):
    """Panel edges on [0, 1], nodes on [0, 1] and the (order + 1, order) matrix
    from a panel's node values to the powers in t in [-1, 1] of its interpolant
    integrated from the panel start, per unit panel width."""
    leg = np.polynomial.legendre
    h = 1.0 / _CDF_PANELS
    ends = h * 2.0 ** -np.arange(levels, 0, -1)
    edges = np.concatenate([[0.0], ends, np.linspace(h, 1.0 - h, _CDF_PANELS - 1),
                            1.0 - ends[::-1], [1.0]])
    x, _ = leg.leggauss(_CDF_ORDER)
    cumint = 0.5 * leg.legint(np.linalg.inv(leg.legvander(x, _CDF_ORDER - 1)), lbnd=-1)
    return edges, 0.5 * (x + 1.0), np.column_stack([leg.leg2poly(c) for c in cumint.T])


def cdf_grid(statistic: str, model: SpikedModel, zs):
    """Cumulative distribution at many z values; see model_cdf_fn."""
    return model_cdf_fn(statistic, model)(zs)


def model_cdf_fn(statistic: str, model: SpikedModel):
    """Vectorized c.d.f. callable suitable for the KS test.

    One pdf pass on the nodes of `_cdf_mesh`; on each panel the c.d.f. is the
    integrated degree-7 interpolant plus the mass of the panels before it.
    The mesh lives in s with z = sin^2(s) for the arcsine-type statistics,
    which removes their inverse-square-root endpoints, and z = s for all
    others.  A total mass outside 1 +- 1e-4 raises ArithmeticError and a NaN
    argument DomainError.  Values lie in [0, 1], non-decreasing in x exactly.
    """
    entry = _statistic(statistic)
    if entry.law:
        entry.support(model)
        return lambda x: np.asarray(entry.law["cdf"](model.theta, np.maximum(x, 0.0)))
    arcsine = entry.arcsine
    grade = 0 if arcsine else math.ceil(math.log2(1.0 + model.theta)) - 3
    edges, gl_x, cumint = _cdf_mesh(max(_CDF_LEVELS, grade))
    sb = edges * (0.5 * math.pi if arcsine else 1.0)
    widths = np.diff(sb)
    nodes = sb[:-1, None] + widths[:, None] * gl_x
    jac = np.sin(2.0 * nodes) if arcsine else 1.0
    vals = density_values(statistic, model, np.sin(nodes) ** 2 if arcsine else nodes)
    coef = cumint @ (vals * jac * widths[:, None]).T  # (order + 1, panels): powers of t
    starts = np.cumsum(coef.sum(axis=0))
    _check_mass("c.d.f.", starts[-1])
    coef[0, 1:] += starts[:-1]

    def model_cdf(x):
        x = np.asarray(x, dtype=float)
        order = np.argsort(x, axis=None)
        s = x.ravel()[order].clip(0.0, 1.0)
        if s.size and np.isnan(s[-1]):  # the sort puts NaN last
            raise DomainError("the c.d.f. argument must not be NaN")
        s = np.arcsin(np.sqrt(s)) if arcsine else s
        runs = np.diff(np.append(np.searchsorted(s, sb[:-1]), s.size))  # sorted: a run per panel
        t = 2.0 * (s - np.repeat(sb[:-1], runs)) / np.repeat(widths, runs) - 1.0
        vals = np.polynomial.polynomial.polyval(t, np.repeat(coef, runs, axis=1), tensor=False)
        out = np.empty(x.size)
        out[order] = np.maximum.accumulate(vals.clip(0.0, 1.0))
        return out.reshape(x.shape)

    return model_cdf
