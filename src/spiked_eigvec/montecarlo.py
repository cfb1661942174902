"""Ground-truth sampler for spiked Wishart eigenvector projections.

Draws come from the Dumitriu-Edelman tridiagonal model: 2n - 1 (singular: 2m)
Gamma variates per draw give T's diagonal and squared subdiagonal (`_tridiagonal`).
One batched eigenvalue solve per chunk and an O(n) twisted factorization per
overlap give the projections (`_chunk_projections`).  Their law does not depend
on the spike direction, validated for shape, norm and realness.

Each chunk of CHUNK_SIZE draws owns a counter-based Philox stream keyed by
(seed, index of its first draw).  Chunks are a fixed size independent of the
worker count and are reassembled in draw order, so a batch is bitwise
reproducible across worker counts, and a smaller count is an exact prefix
of a larger one.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .spike_density import STATISTICS, SpikedModel

# Draws per chunk.  Each chunk is one random stream, so this constant fixes
# the draws: changing it changes every seeded output.
CHUNK_SIZE = 2048


class EigensolverFailure(RuntimeError):
    """The eigensolver failed to converge on a draw."""


class InvalidCount(ValueError):
    """A nonpositive sample count was requested."""


def worker_count(requested: int | None = None) -> int:
    """Worker threads to use, capped by SPIKED_EIGVEC_THREADS (a positive integer)."""
    cap = os.environ.get("SPIKED_EIGVEC_THREADS")
    if cap and not (cap.strip().isdecimal() and int(cap) >= 1):
        raise ValueError(f"SPIKED_EIGVEC_THREADS must be a positive integer, got {cap!r}")
    limit = int(cap) if cap else (os.cpu_count() or 1)
    if requested is None:
        requested = min(8, os.cpu_count() or 1)
    return max(1, min(requested, limit))


def make_spike(n: int, seed: int = 0, style: str = "first_basis", real: bool = False) -> np.ndarray:
    """Unit spike direction: either e1 or a normalized Gaussian draw."""
    if n < 1:
        raise ValueError("spike dimension must be positive")
    dtype = np.float64 if real else np.complex128
    if style == "first_basis":
        v = np.zeros(n, dtype=dtype)
        v[0] = 1.0
    elif style == "random":
        key = np.array([seed & (2**64 - 1), 2**64 - 1], dtype=np.uint64)
        rng = np.random.Generator(np.random.Philox(key=key))
        if real:
            v = rng.standard_normal(n)
        else:
            g = rng.standard_normal((2, n))
            v = g[0] + 1j * g[1]
        v = v / np.linalg.norm(v)
    else:
        raise ValueError(f"unknown spike style {style!r}")
    return v


def _tridiagonal(model: SpikedModel, seed: int, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
    """T = D B B^T D of draws [start, stop) as its diagonal a, shape (count, size), and
    squared subdiagonal b2, shape (count, size - 1), with size = min(n, m + 1).

    A draw takes v = e1: reflections that fix e1 reduce the Gaussian factor to a lower
    bidiagonal B and commute with D = diag(sqrt(1+theta), 1, ..., 1).  B[i, i]^2 ~
    Gamma(m - i) and B[i + 1, i]^2 ~ Gamma(n - 1 - i) (real: chi-square, 2 Gamma(k / 2)),
    drawn as one (count, 2 n - 1) array (singular: 2 m) from the Philox stream keyed
    (seed, start).  The singular variant's T has rank m.
    """
    n, m = model.n, model.m
    size = min(n, m + 1)
    # B is n x m lower bidiagonal with nonzero rows 0..size-1; the squares
    # B[i, i]^2 and B[i + 1, i]^2 are Gamma variates with these shapes.
    ndiag = min(n, m)
    shapes = np.concatenate([np.arange(m, m - ndiag, -1), np.arange(n - 1, n - size, -1)])
    rng = np.random.Generator(np.random.Philox(key=[seed & (2**64 - 1), start]))
    chi = 2.0 if model.variant == "real" else 1.0
    squares = chi * rng.standard_gamma(shapes / chi, size=(stop - start, shapes.size))
    d2, s2 = squares[:, :ndiag], squares[:, ndiag:]
    # a_i = d2[i] + s2[i - 1] and b2_i = d2[i] s2[i]; D scales a_0 and b2_0 by 1 + theta.
    d2[:, 0] *= 1.0 + model.theta
    a = np.pad(d2, ((0, 0), (0, size - ndiag)))
    a[:, 1:] += s2
    return a, d2[:, :size - 1] * s2


def _chunk_projections(model: SpikedModel, seed: int, start: int, stop: int,
                       columns: tuple[int, ...] | None = None) -> np.ndarray:
    """Overlaps |v^H u_l|^2 of draws [start, stop): the `columns` (None: all) of a row of
    rank = n (m for the singular variant) overlaps in ascending eigenvalue order, each the
    Gauss weight u(0)^2 of T = `_tridiagonal` at an eigenvalue lam (Golub and Welsch, 1969)
    from a twisted factorization of T - lam (Dhillon and Parlett, 2004; LAPACK dlar1v; README).
    Non-finite T or overlaps outside [0, 1] raise EigensolverFailure.
    """
    a, b2 = _tridiagonal(model, seed, start, stop)
    count, size = a.shape
    rank = model.m if model.variant == "singular" else model.n  # singular T: 0 comes first
    cols = np.arange(size - rank, size)[list(range(rank) if columns is None else columns)]
    t = np.zeros((count, size, size))  # LAPACK reads the lower triangle only
    t[:, range(size), range(size)] = a
    t[:, range(1, size), range(size - 1)] = np.sqrt(b2)
    try:
        lam = np.linalg.eigvalsh(t)[:, cols]
    except np.linalg.LinAlgError as exc:
        raise EigensolverFailure(f"eigenvalue solve failed: {exc}") from exc
    d, b2 = a.T[:, :, None] - lam, b2.T[:, :, None]  # rows lead: a step reads one block
    c, h, dm = np.zeros_like(d), np.zeros_like(d), d[-1].copy()
    floor = np.finfo(float).eps * np.abs(lam) + np.finfo(float).tiny  # for a zero pivot
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for r in range(size - 2, -1, -1):  # up: D-_r = d_r - c_r and H_r = G_r - 1
            np.copyto(dm, floor, where=dm == 0.0)
            np.divide(b2[r], dm, out=c[r])
            np.multiply(c[r] / dm, 1.0 + h[r + 1], out=h[r])
            dm = d[r] - c[r]
        dp, fp, best, proj = d[0].copy(), np.ones((2,) + lam.shape), np.abs(dm), 1.0 / (1.0 + h[0])
        for r in range(1, size):  # down: D+_r, (F_r, P_r); twist at least |D+_r - c_r|
            np.copyto(dp, floor, where=dp == 0.0)
            s = b2[r - 1] / dp
            fp *= s / dp
            fp[0] += 1.0
            dp = d[r] - s
            gamma = np.abs(dp - c[r])
            np.copyto(proj, fp[1] / (fp[0] + h[r]), where=gamma < best)
            best = np.fmin(best, gamma)
    if not np.all((proj >= 0.0) & (proj <= 1.0)):
        raise EigensolverFailure("an overlap is not a number in [0, 1]")
    return proj


def sample_wishart(
    model: SpikedModel,
    spike: np.ndarray,
    seed: int,
    count: int,
    statistics: tuple[str, ...] | None = None,
    workers: int | None = None,
) -> dict[str, np.ndarray]:
    """Draw spiked Wishart overlaps: {statistic: its `count` seeded values}.

    Each chunk runs the tridiagonal model of `_chunk_projections` on its own
    Philox stream keyed (seed, first draw index).  The values do not depend on
    the spike direction; `spike` is checked for shape, unit norm and
    realness only.  The same (model, seed, count) reproduces identical values
    bit for bit, including across different worker counts, and a smaller
    count gives a prefix of a larger one.
    """
    if count < 1:
        raise InvalidCount("count must be at least 1")
    v = np.asarray(spike)
    if model.variant == "real" and np.iscomplexobj(v):
        raise ValueError("real variant requires a real spike vector")
    if v.shape != (model.n,):
        raise ValueError("spike dimension does not match the model")
    if abs(np.linalg.norm(v) - 1.0) > 1e-10:
        raise ValueError("spike vector must have unit norm")
    # A middle column is its own statistic only below the top one: at n = 2
    # the second-smallest eigenvector is the largest.
    rank = model.m if model.variant == "singular" else model.n
    columns = {
        name: entry.column
        for name, entry in STATISTICS.items()
        if entry.variant == model.variant and entry.column is not None
        and (entry.column <= 0 or entry.column < rank - 1)
    }
    statistics = tuple(columns) if statistics is None else statistics
    for stat in statistics:
        if stat not in columns:
            raise ValueError(f"statistic {stat!r} is not sampled for variant {model.variant!r}")

    bounds = [(a, min(a + CHUNK_SIZE, count)) for a in range(0, count, CHUNK_SIZE)]
    wanted = tuple(columns[stat] for stat in statistics)
    nworkers = worker_count(workers)
    if nworkers == 1 or len(bounds) == 1:
        chunks = [_chunk_projections(model, seed, a, b, wanted) for a, b in bounds]
    else:
        with ThreadPoolExecutor(max_workers=nworkers) as pool:
            chunks = list(pool.map(lambda ab: _chunk_projections(model, seed, *ab, wanted), bounds))
    proj = np.concatenate(chunks, axis=0)
    return {stat: proj[:, j].copy() for j, stat in enumerate(statistics)}
