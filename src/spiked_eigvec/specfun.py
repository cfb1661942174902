"""Scalar special functions used by the overlap-density formulas.

All routines are pure functions with no shared mutable state, so they are safe
to call concurrently.  Terminating hypergeometric series are detected by exact
integer tests on the parameters before any floating-point evaluation, and the
gamma poles at nonpositive integers are handled by returning exact zeros for
the reciprocal.  Factorial-heavy prefactors elsewhere in the package are
carried in log space; the helpers here stay in linear scale because their
arguments are moderate.
"""

from __future__ import annotations

import math

import numpy as np

from ._kernels import lag

SERIES_RTOL = 1e-12
SERIES_MAX_TERMS = 10_000


class NoConvergence(ArithmeticError):
    """A hypergeometric series failed to converge within the term budget."""


def _nonpositive_int(x: float) -> bool:
    return x <= 0 and x == round(x)


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

    Accepts a scalar or ndarray argument.  Evaluated by the three-term
    recurrence, which keeps precision for large degree and argument where
    the explicit alternating sum cancels badly.
    """
    if M < 0:
        raise ValueError("laguerre degree must be nonnegative")
    out = lag(rho, M, z)
    return float(out) if np.ndim(out) == 0 else out


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
    from . import numkit

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

    return numkit.integrate_halfline(integrand, decay_rate=x)


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
