"""Closed-form overlap densities for the real (n = 2) and singular variants.

The real spiked case has a closed density for n = 2, a difference of two
incomplete beta functions; its largest-overlap twin is the reflection
z -> 1 - z.  The singular case (m < n) has closed forms for m = 1 and for
n - m = 1; the singular largest-overlap density is a single half-line
integral on the same grids, orthogonal polynomials and moment series
(`numkit`) as the complex zn engine.  Both singular n - m = 1 densities are
written in the form where the paper's beta^(1-m) pole has already cancelled.
Each density goes through `spike_density._density`, and its engine (a closed
form bound to its model, or the yn_sing series) lives in the shared engine cache.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import betainc, betaln

from . import numkit
from .spike_density import DomainError, SpikedModel, _density


def _pdf_w_real(model: SpikedModel, z: np.ndarray, omz: np.ndarray | None = None) -> np.ndarray:
    """pdf_w1_real at z, given 1 - z as omz (by default 1 - z itself): whichever
    of the pair lies near 0 keeps its relative precision."""
    omz = 1.0 - z if omz is None else omz
    if np.any(z <= 0) or np.any(omz <= 0):
        raise DomainError("real overlap density needs z strictly inside (0, 1)")
    m, theta = model.m, model.theta
    b1, b2 = (m - 1.0) / 2.0, (m + 1.0) / 2.0
    log_near = np.log1p(theta * z)  # log((1+theta) (1 - beta (1 - z)))
    log_far = np.log1p(theta * omz)  # log((1+theta) (1 - beta z))
    log_u = log_far - log_near
    y = np.exp(log_far - math.log(2.0 + theta))
    i1, i2 = betainc(b1, b2, y), betainc(b2, b1, y)
    log_common = (
        (m - 2.0) * math.log(2.0) + math.log(m - 1.0) - math.log(math.pi) + betaln(b1, b2)
        + 0.5 * m * math.log1p(theta) - m * log_near - 0.5 * np.log(z) - 0.5 * np.log(omz)
    )
    # I underflows to 0 only where the density is below the double range.
    with np.errstate(divide="ignore"):
        log_h1 = log_common - b1 * log_u + np.log(i1)
        log_ratio = np.log(i2 / np.maximum(i1, np.finfo(float).tiny)) - log_u
    # h1/(m-1) - h2/(m+1) = e^log_h1 (1 - e^log_ratio), as B(b2, b1) = B(b1, b2).
    # The ratio leaves out log_common, so its rounding stays out of the
    # cancelling difference.
    return np.exp(log_h1) * -np.expm1(log_ratio)


def pdf_w1_real(model: SpikedModel, z) -> float | np.ndarray:
    """Smallest-overlap density for the real spiked case with n = 2.

    Carries the arcsine-type z^(-1/2) (1-z)^(-1/2) endpoint singularities;
    at theta = 0 it reduces to the arcsine law 1/(pi sqrt(z(1-z))).  The
    closed form is a difference of 2F1(m, b; b+1; -u) at b = (m - 1)/2 and
    (m + 1)/2; each equals b u^-b B(b, m-b) I_y(b, m-b), with y = u/(1+u) and
    I the regularized incomplete beta function (DLMF 8.17.7 after the Pfaff
    transformation).  The product is formed in logs, with u and
    1 - beta (1 - z) written in theta so that neither rounds near the ends of
    the support.
    """
    return _density("w1_real", model, z)


def pdf_w2_real(model: SpikedModel, z) -> float | np.ndarray:
    """Largest-overlap density for the real n = 2 case: the z -> 1-z mirror.

    For z >= 1/32 this is pdf_w1_real at the rounded mirror point 1 - z, bit
    for bit: its complement 1 - (1 - z) is exact and within 2^-49 of z,
    relatively.  Below, that rounding grows relative to z (1 - z rounds to 1
    for z < 2^-54), so the body gets z itself as the complement.
    """
    return _density("w2_real", model, z)


def _pdf_w_mirror(model: SpikedModel, z: np.ndarray) -> np.ndarray:
    mirror = 1.0 - z
    return _pdf_w_real(model, mirror, np.where(z < 0.03125, z, 1.0 - mirror))


def pdf_y1_singular(model: SpikedModel, z) -> float | np.ndarray:
    """Smallest-positive-overlap density for the singular case.

    Closed forms exist for m = 1 and for n - m = 1, at every theta >= 0.  For
    n - m = 1 the paper's alternating double sum carries a beta^(1-m) pole; its
    inner sum does not depend on z and the rest is the Taylor remainder of
    (c + (c+1) r)^-2, c = m - beta, so with q = 1 - beta (1 - z),
    r = beta (1 - z) / q and rho = (c+1)/c it sums positive terms:

      m ((1-beta)/q)^m (1-z)^(m-1) / (q c^2) [sum_{i<m-1} (i+1) rho^i
          + rho^(m-1) (m + (m-1) rho r) / (1 + rho r)^2].

    1 - beta is formed as 1/(1 + theta); at theta = 0 this is the Haar density
    m (1-z)^(m-1).
    """
    return _density("y1_sing", model, z)


def _pdf_y1(model: SpikedModel, z: np.ndarray) -> np.ndarray:
    n, m, beta = model.n, model.m, model.beta
    if m == 1:
        return (n - 1.0) * (1.0 - z) ** (n - 2) / (
            (1.0 + model.theta) * (1.0 - beta * z) ** float(n)
        )
    omb = 1.0 / (1.0 + model.theta)
    q = omb + beta * z
    c = m - beta
    rho = (c + 1.0) / c
    rho_r = rho * beta * (1.0 - z) / q
    head = sum((i + 1.0) * rho**i for i in range(m - 1))
    tail = rho ** (m - 1) * (m + (m - 1) * rho_r) / (1.0 + rho_r) ** 2
    return m * (omb / q) ** m * (1.0 - z) ** (m - 1) / (q * c * c) * (head + tail)


def _yn_basis(model: SpikedModel) -> dict:
    """The (x, t) arrays of the yn engine: det[t A^(1) - A^(2)] factorizes over
    the weight t (1-t)^2 e^{-x t}."""
    m, beta = model.m, model.beta
    log_pref = m * math.log1p(-beta) + (1.0 - m) * math.log(beta) - 2.0 * sum(
        math.lgamma(m - j + 1.0) for j in range(1, m + 1))
    return numkit.halfline_basis(beta, log_pref, m * m, m * m + 2.0 * m, 1.0, m - 2)


def _yn_prepare(model: SpikedModel) -> numkit.HalfLineSeries:
    """The z-grid evaluator: the bracket as one moment series.  The kernel sum
    expands e^{beta x u t} against (1-t)^2 e^{-x t}, the power-1 weight over t.
    The Hankel term det[A^(0)] is minus its r = 0 moment (the reproducing
    property of the Christoffel-Darboux kernel), and moments 1..m-2 vanish by
    orthogonality, so the series starts at r = m - 1 with nothing to cancel."""
    prep = _yn_basis(model)
    a = np.exp(prep["logwq"] - np.log(prep["t"])) * prep["p_deg"]
    return numkit.halfline_series(prep["x"], prep["t"], a, prep["log_row"], model.beta, model.m - 1)


def pdf_yn_singular(model: SpikedModel, z) -> float | np.ndarray:
    """Largest-overlap density for the singular case with n - m = 1.

    A single half-line integral whose integrand combines the inner kernel
    integral with a pure Hankel determinant term; the empty determinant at
    m = 2 is 1 by convention.  The Hankel term cancels the kernel sum's
    leading moments exactly, so only the remainder is summed (`_yn_prepare`).
    """
    return _density("yn_sing", model, z)
