"""Vectorized integrand kernels shared by the exact-density evaluators.

These helpers evaluate, over whole node grids at once, the building blocks
that appear inside the density integrals: Laguerre-polynomial stacks,
stacked determinants, the discrete orthogonal polynomials that factorize the
Hankel-type determinants, and the stable exponential remainder they are
integrated against.  They are private to the package; the public contracts
live in spike_density / variant_density.
"""

from __future__ import annotations

import math

import numpy as np


def lag(rho: int, M: int, z: np.ndarray) -> np.ndarray:
    """L^(rho)_M(z) over an array, with the convention L_M = 0 for M < 0.

    Uses the three-term recurrence, which is stable for both signs of z at
    the small degrees the determinant columns need.
    """
    z = np.asarray(z, dtype=float)
    if M < 0:
        return np.zeros_like(z)
    if M == 0:
        return np.ones_like(z)
    lkm1 = np.ones_like(z)
    lk = rho + 1.0 - z
    for k in range(1, M):
        lkm1, lk = lk, ((2.0 * k + 1.0 + rho - z) * lk - (k + rho) * lkm1) / (k + 1.0)
    return lk


def det_stack(mats: np.ndarray) -> np.ndarray:
    """Determinants along the leading axis; 0x0 matrices count as 1."""
    if mats.shape[-1] == 0:
        return np.ones(mats.shape[0])
    return np.linalg.det(mats)


def discrete_orthogonal_basis(x: np.ndarray, t: np.ndarray, wt: np.ndarray,
                              weight_power: float, degree: int):
    """Monic orthogonal polynomials of t^p (1-t)^2 e^{-x t} dt, per x node.

    Runs the Stieltjes recurrence on the quadrature-discretized measure, which
    sidesteps the catastrophic conditioning of the equivalent Hankel moment
    matrices.  Returns (log_norm_product, row_shift, wq, p_deg) where

      * wq[ix, q]  = normalized weights exp(log w - row_shift[ix]),
      * p_deg[ix, q] = values of the monic degree-`degree` polynomial,
      * log_norm_product[ix] = log prod_{k<degree} h_k of the true measure,

    so that det[t A^(p) - A^(p+1)]_{degree x degree} =
    exp(log_norm_product) * p_deg(t) for every x.  The discrete orthogonality
    sum_q wq t_q^r p_deg_q = 0 (r < degree) holds to rounding, so callers can
    cancel the polynomial part of smooth integrands exactly at grid level.
    """
    with np.errstate(divide="ignore"):
        logw = (
            np.log(wt)[None, :]
            + weight_power * np.log(t)[None, :]
            + 2.0 * np.log1p(-t)[None, :]
            - x[:, None] * t[None, :]
        )
    shift = np.max(logw, axis=1)
    wq = np.exp(logw - shift[:, None])

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
    return log_norm, shift, wq, p_k


def weighted_exp_remainder(wq: np.ndarray, logwq: np.ndarray, st: np.ndarray,
                           degree: int) -> np.ndarray:
    """wq * [e^{st} - T_{degree-1}(st)], stable for arbitrarily large st.

    T is the Taylor polynomial of e^y truncated before degree `degree`; the
    product is the weighted remainder whose low-order part a discretely
    orthogonal factor annihilates.  wq = exp(logwq) are normalized weights
    whose log contains the -x t term, so exp(logwq + st) stays bounded even
    when e^{st} alone would overflow.
    """
    if degree == 0:
        return np.exp(logwq + st)
    out = np.empty_like(st)
    small = st < 2.0
    if np.any(small):
        ys = st[small]
        term = ys**degree / math.factorial(degree)
        acc = term.copy()
        r = degree
        for _ in range(60):
            r += 1
            term = term * ys / r
            acc += term
            if np.max(term, initial=0.0) <= 1e-17 * np.max(acc, initial=1e-300):
                break
        out[small] = wq[small] * acc
    big = ~small
    if np.any(big):
        yb = st[big]
        poly = np.ones_like(yb)
        term = np.ones_like(yb)
        for r in range(degree - 1):
            term = term * yb / (r + 1.0)
            poly += term
        with np.errstate(under="ignore"):
            out[big] = np.exp(logwq[big] + yb) * (1.0 - poly * np.exp(-yb))
    return out
