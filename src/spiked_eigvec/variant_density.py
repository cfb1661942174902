"""Closed-form overlap densities for the real (n = 2) and singular variants.

The real spiked case has a closed two-term Gauss-hypergeometric density for
n = 2; its largest-overlap twin is the reflection z -> 1 - z.  The singular
case (m < n) has closed forms for m = 1 and for n - m = 1; the singular
largest-overlap density is a single half-line integral on the same grids,
orthogonal polynomials and moment series (`numkit`) as the complex zn engine.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.special import gammaln

from . import numkit, specfun
from .spike_density import (
    ENGINE_CACHE_SIZE,
    DomainError,
    SpikedModel,
    _PRESETS,
    _pdf_boundary,
    _real_support,
    _y1_support,
    _yn_support,
)


@_pdf_boundary(_real_support)
def pdf_w1_real(model: SpikedModel, z) -> float | np.ndarray:
    """Smallest-overlap density for the real spiked case with n = 2.

    Carries the arcsine-type z^(-1/2) (1-z)^(-1/2) endpoint singularities;
    at theta = 0 it reduces to the arcsine law 1/(pi sqrt(z(1-z))).
    """
    if np.any(z <= 0) or np.any(z >= 1):
        raise DomainError("real overlap density needs z strictly inside (0, 1)")
    m, beta = model.m, model.beta
    u = (1.0 - beta * z) / (1.0 - beta * (1.0 - z))
    h1 = specfun.gauss_2f1(m, (m - 1.0) / 2.0, (m + 1.0) / 2.0, -u)
    h2 = specfun.gauss_2f1(m, (m + 1.0) / 2.0, (m + 3.0) / 2.0, -u)
    pref = 2.0 ** (m - 1.0) * (m - 1.0) / (math.pi * (1.0 + model.theta) ** (m / 2.0))
    return (
        pref
        * z ** (-0.5)
        * (1.0 - z) ** (-0.5)
        * (1.0 - beta * (1.0 - z)) ** (-float(m))
        * (h1 / (m - 1.0) - h2 / (m + 1.0))
    )


def pdf_w2_real(model: SpikedModel, z) -> float | np.ndarray:
    """Largest-overlap density for the real n = 2 case: the z -> 1-z mirror."""
    z = np.asarray(z, dtype=float)
    return pdf_w1_real(model, 1.0 - z)


@_pdf_boundary(_y1_support)
def pdf_y1_singular(model: SpikedModel, z) -> float | np.ndarray:
    """Smallest-positive-overlap density for the singular case.

    Closed forms exist for m = 1 (any theta >= 0) and for n - m = 1
    (theta > 0; the coefficients carry beta poles).
    """
    n, m, beta = model.n, model.m, model.beta
    if m == 1:
        return (n - 1.0) * (1.0 - z) ** (n - 2) / (
            (1.0 + model.theta) * (1.0 - beta * z) ** float(n)
        )
    # n - m = 1
    acc = np.zeros_like(z)
    for ell in range(m - 1):
        for k in range(m - 1 - ell):
            log_a = (
                gammaln(m - ell + 1.0)
                + (m - 2.0 - ell) * math.log(beta)
                - math.log(k + 2.0)
                - gammaln(k + 1.0)
                - gammaln(m - 1.0 - ell - k)
                - (k + 2.0) * math.log(m - beta)
            )
            sign = -1.0 if ell % 2 else 1.0
            acc += (
                sign
                * math.exp(log_a)
                * (1.0 - z) ** (m - 2 - ell)
                / (1.0 - (1.0 - z) * beta) ** (m - ell + 1.0)
            )
    acc += (-1.0) ** (m - 1) / (m - beta * z) ** 2
    return m * (1.0 - beta) ** m / beta ** (m - 1.0) * acc


def _yn_basis(model: SpikedModel, preset: str) -> dict:
    """The (x, t) grid arrays of the yn engine."""
    p = _PRESETS[preset]
    m, beta = model.m, model.beta
    d = m - 2
    power = m * m
    lam = max(1.0 - beta, 1e-3)
    x, wx, t, wt = numkit.halfline_unit_grids(lam, power + 2.0 * m, p["x_nodes"], p["t_nodes"])

    # det[t A^(1) - A^(2)] factorizes over the weight t (1-t)^2 e^{-x t};
    # det[A^(0)] is the plain Hankel of (1-t)^2 e^{-x t} and reduces to the
    # product of its orthogonal-polynomial norms.
    log_c1, _, _, p_deg = numkit.discrete_orthogonal_basis(x, t, wt, 1.0, d)
    log_a0, shift0, logwq0, _ = numkit.discrete_orthogonal_basis(x, t, wt, 0.0, m - 1)

    logpref = m * math.log1p(-beta) + (1.0 - m) * math.log(beta) - 2.0 * sum(
        math.lgamma(m - j + 1.0) for j in range(1, m + 1))
    base = logpref + power * np.log(x) - x + np.log(wx)
    return dict(x=x, t=t, wt=wt, p_deg=p_deg, log_c1=log_c1, log_a0=log_a0, base=base, beta=beta,
                m=m, logwq0=logwq0, shift0=shift0)


@lru_cache(maxsize=ENGINE_CACHE_SIZE)
def _yn_prepare(model: SpikedModel, preset: str) -> numkit.HalfLineSeries:
    """The z-grid evaluator: the bracket as one moment series.  The kernel sum
    expands e^{beta x u t} against (1-t)^2 e^{-x t} from r = 0; the z-free
    Hankel term joins the r = 0 coefficient."""
    prep = _yn_basis(model, preset)
    a = np.exp(prep["logwq0"]) * prep["p_deg"]  # the weight (1-t)^2 e^{-x t}
    hankel = (-1.0) ** (prep["m"] - 1) * np.exp(prep["log_a0"] - prep["log_c1"] - prep["shift0"])
    log_row = prep["base"] + prep["log_c1"] + prep["shift0"]
    return numkit.halfline_series(prep["x"], prep["t"], a, log_row, prep["beta"], 0, hankel)


def _pdf_yn_grid(model: SpikedModel, zs: np.ndarray, preset: str) -> np.ndarray:
    return _yn_prepare(model, preset)(zs)


@_pdf_boundary(_yn_support)
def pdf_yn_singular(model: SpikedModel, z, preset: str = "fine") -> float | np.ndarray:
    """Largest-overlap density for the singular case with n - m = 1.

    A single half-line integral whose integrand combines the inner kernel
    integral with a pure Hankel determinant term; the empty determinant at
    m = 2 is 1 by convention.
    """
    return _pdf_yn_grid(model, z, preset)
