"""Ground-truth sampler for spiked Wishart eigenvector projections.

Each draw owns a counter-based Philox substream keyed by (seed, draw index),
so a batch is bitwise reproducible no matter how it is chunked or how many
worker threads execute the chunks.  Chunks are a fixed size independent of
the worker count and are reassembled in draw order.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .spike_density import STATISTICS, SpikedModel

CHUNK_SIZE = 2048


class EigensolverFailure(RuntimeError):
    """The eigensolver failed to converge on a draw."""


class InvalidCount(ValueError):
    """A nonpositive sample count was requested."""


@dataclass(frozen=True, eq=False)
class SpikeVector:
    """Unit-norm spike direction, with the seed that produced it."""

    entries: np.ndarray
    construction_seed: int


@dataclass(eq=False)
class EigenSystem:
    """Ascending eigenvalues with aligned orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


@dataclass(eq=False)
class SampleBatch:
    """Seeded Monte-Carlo draws of one projection statistic."""

    statistic: str
    model: SpikedModel
    seed: int
    values: np.ndarray


def worker_count(requested: int | None = None) -> int:
    """Worker threads to use, capped by SPIKED_EIGVEC_THREADS."""
    cap = os.environ.get("SPIKED_EIGVEC_THREADS")
    limit = int(cap) if cap else (os.cpu_count() or 1)
    limit = max(1, limit)
    if requested is None:
        requested = min(8, os.cpu_count() or 1)
    return max(1, min(requested, limit))


def make_spike(n: int, seed: int = 0, style: str = "first_basis", real: bool = False) -> SpikeVector:
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
    return SpikeVector(entries=v, construction_seed=seed)


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


def _chunk_projections(model: SpikedModel, v: np.ndarray, seed: int, start: int, stop: int) -> np.ndarray:
    """Projection rows |v^H u_l|^2 for draws [start, stop).

    Returns an array of shape (stop - start, rank) where rank = n for the
    complex/real variants and m for the singular variant, ordered by
    ascending (positive) eigenvalue.
    """
    n, m = model.n, model.m
    count = stop - start
    real = model.variant == "real"
    scale = math.sqrt(1.0 + model.theta) - 1.0
    # One Philox substream per draw, keyed (seed, draw index).  Re-keying a
    # single bit generator through its state dict reproduces exactly the
    # stream of a freshly constructed Philox with that key, at half the cost.
    bit_gen = np.random.Philox(key=[seed & (2**64 - 1), 0])
    rng = np.random.Generator(bit_gen)
    state = bit_gen.state
    if real:
        g = np.empty((count, n, m), dtype=np.float64)
        for k in range(count):
            state["state"]["key"][1] = (start + k) & (2**64 - 1)
            state["state"]["counter"][:] = 0
            state["buffer_pos"] = 4
            bit_gen.state = state
            g[k] = rng.standard_normal((n, m))
    else:
        g = np.empty((count, n, m), dtype=np.complex128)
        inv_sqrt2 = 1.0 / math.sqrt(2.0)
        for k in range(count):
            state["state"]["key"][1] = (start + k) & (2**64 - 1)
            state["state"]["counter"][:] = 0
            state["buffer_pos"] = 4
            bit_gen.state = state
            gg = rng.standard_normal((2, n, m))
            g[k] = (gg[0] + 1j * gg[1]) * inv_sqrt2

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


def sample_wishart(
    model: SpikedModel,
    spike: SpikeVector,
    seed: int,
    count: int,
    statistics: tuple[str, ...] | None = None,
    workers: int | None = None,
) -> dict[str, SampleBatch]:
    """Draw spiked Wishart matrices and emit projection samples per statistic.

    The same (model, spike, seed, count) reproduces identical values bit for
    bit, including across different worker counts.
    """
    if count < 1:
        raise InvalidCount("count must be at least 1")
    v = np.asarray(spike.entries)
    if model.variant == "real" and np.iscomplexobj(v):
        raise ValueError("real variant requires a real spike vector")
    if v.shape != (model.n,):
        raise ValueError("spike dimension does not match the model")
    if abs(np.linalg.norm(v) - 1.0) > 1e-10:
        raise ValueError("spike vector must have unit norm")
    columns = {
        name: entry.column
        for name, entry in STATISTICS.items()
        if entry.variant == model.variant and entry.column is not None
    }
    if statistics is None:
        # A middle column is its own statistic only below the top one: at
        # n = 2 the second-smallest eigenvector is the largest.
        rank = model.m if model.variant == "singular" else model.n
        statistics = tuple(name for name, col in columns.items() if col <= 0 or col < rank - 1)
    for stat in statistics:
        if stat not in columns:
            raise ValueError(f"statistic {stat!r} is not sampled for variant {model.variant!r}")

    starts = list(range(0, count, CHUNK_SIZE))
    bounds = [(s, min(s + CHUNK_SIZE, count)) for s in starts]
    nworkers = worker_count(workers)
    if nworkers == 1 or len(bounds) == 1:
        chunks = [_chunk_projections(model, v, seed, a, b) for a, b in bounds]
    else:
        with ThreadPoolExecutor(max_workers=nworkers) as pool:
            chunks = list(
                pool.map(lambda ab: _chunk_projections(model, v, seed, ab[0], ab[1]), bounds)
            )
    proj = np.concatenate(chunks, axis=0)

    out = {}
    for stat in statistics:
        values = proj[:, columns[stat]].copy()
        out[stat] = SampleBatch(statistic=stat, model=model, seed=seed, values=values)
    return out
