"""The Gauss hypergeometric function used by the closed overlap densities.

The routine is pure, so it is safe to call concurrently.  Terminating series
are detected by exact integer tests on the parameters before any
floating-point evaluation.  The series constants and NoConvergence are shared
with the vectorized series in spike_density.
"""

from __future__ import annotations

import numpy as np

SERIES_RTOL = 1e-12
SERIES_MAX_TERMS = 10_000


class NoConvergence(ArithmeticError):
    """A hypergeometric series failed to converge within the term budget."""


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
