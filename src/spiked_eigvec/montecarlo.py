"""Ground-truth sampler for spiked Wishart eigenvector projections.

Draws come from the Dumitriu-Edelman tridiagonal model: 2n - 1 (singular: 2m)
Gamma variates per draw are the squared entries of a lower bidiagonal L with
T = L L^T (`_tridiagonal`).  A Laguerre iteration on L's Sturm pivots finds each
requested eigenvalue of T (`_eigenvalues`), and an O(n) twisted factorization
per overlap gives the projections (`_chunk_projections`).  No step forms a
dense matrix or calls LAPACK.  The law of the projections does not depend on
the spike direction, validated for shape, norm and realness.

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

# Pivot sweeps after which an eigenvalue iteration that has not converged
# fails.  Laguerre iterations take 5-20; the rest leaves bisection room to
# resolve eigenvalues down to about 1e-22 of the bound it starts from.
MAX_SWEEPS = 128
EPS, TINY = np.finfo(float).eps, np.finfo(float).tiny


class EigensolverFailure(RuntimeError):
    """A drawn square is not finite, an eigenvalue iteration did not converge
    within MAX_SWEEPS, or an overlap is not a number in [0, 1]."""


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
    """T = D B B^T D = L L^T of draws [start, stop) as the squared entries of its lower
    bidiagonal factor L = D B: the diagonal q, shape (count, size), and the subdiagonal e,
    shape (count, size - 1), with size = min(n, m + 1).

    A draw takes v = e1: reflections that fix e1 reduce the Gaussian factor to a lower
    bidiagonal B and commute with D = diag(sqrt(1+theta), 1, ..., 1).  B[i, i]^2 ~
    Gamma(m - i) and B[i + 1, i]^2 ~ Gamma(n - 1 - i) (real: chi-square, 2 Gamma(k / 2)),
    drawn as one (count, 2 n - 1) array (singular: 2 m) from the Philox stream keyed
    (seed, start); D scales q_0 by 1 + theta.  The singular variant's L is (m + 1) x m:
    a final q of 0 makes it square, and its T has rank m.
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
    q = np.pad(squares[:, :ndiag], ((0, 0), (0, size - ndiag)))
    q[:, 0] *= 1.0 + model.theta
    return q, squares[:, ndiag:]


def _transposed_gram(q: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Squares (q', e') of the lower bidiagonal L' with L' L'^T = L^T L, for a singular
    variant's L of squares q (count, m + 1), ending in its padding 0, and e (count, m):
    L' is m x m, so its spectrum is T's without the zero eigenvalue.

    This is the zero-shift differential qd step (Fernando and Parlett, Numer. Math. 67,
    1994).  It only adds, multiplies and divides positive numbers, so the eigenvalues keep
    the relative accuracy of the squares.
    """
    qt, et = np.empty_like(e), np.empty_like(e)
    d = q[:, 0]
    for i in range(e.shape[1]):
        qt[:, i] = d + e[:, i]
        t = q[:, i + 1] / qt[:, i]
        et[:, i] = e[:, i] * t
        d = d * t
    return qt, et[:, :-1]


def _pivots(q: np.ndarray, e: np.ndarray, x: np.ndarray, counted: bool):
    """(G, H, c): G = p'/p and H = -G' of p = det(L L^T - x) and, if `counted`, the Sturm
    count c = #{eigenvalues of L L^T below x} (else None), for rows-leading squares
    q (size, k), e (size - 1, k) and x (k,).

    The stationary qd transform L L^T - x = L+ D+ L+^T (LAPACK dlaneg) runs on the squares:
    s_0 = -x, D+_i = q_i + s_i, s_{i+1} = e_i s_i / D+_i - x, and c counts the negative
    D+_i.  It is mixed relatively stable, so c is right to the relative accuracy of the
    bidiagonal's entries (Demmel and Kahan, 1990).  p = prod D+_i, so G = sum r_i and
    H = sum r_i^2 - s_i'' / D+_i with r_i = s_i' / D+_i; s' and -s'' ride down the same
    recurrence.  For a count, a zero pivot becomes eps |x| (plus the smallest normal number).
    """
    size = q.shape[0]
    s, ds, m, g, h = -x, np.full_like(x, -1.0), np.zeros_like(x), np.zeros_like(x), np.zeros_like(x)
    dp, r, r2, v, t = np.empty((5,) + x.shape)
    if counted:
        floor, neg = EPS * np.abs(x) + TINY, np.empty((size,) + x.shape, dtype=bool)
    for i in range(size):
        np.add(q[i], s, out=dp)
        if counted:
            np.copyto(dp, floor, where=dp == 0.0)
            np.less(dp, 0.0, out=neg[i])
        np.divide(ds, dp, out=r)
        g += r
        np.divide(m, dp, out=v)
        np.multiply(r, r, out=r2)
        v += r2
        h += v
        if i < size - 1:  # with t = e q / D+: s' <- t r - 1 and -s'' <- t (v + r^2)
            np.divide(e[i], dp, out=t)
            s = t * s
            s -= x
            t *= q[i]
            np.multiply(t, r, out=ds)
            ds -= 1.0
            v += r2
            np.multiply(t, v, out=m)
    return g, h, np.count_nonzero(neg, axis=0) if counted else None


def _laguerre(x: np.ndarray, g: np.ndarray, h: np.ndarray, size: int) -> np.ndarray:
    """Laguerre's step from x toward the root nearest to it (in its sense) of a degree-size
    polynomial with p'/p = G and -(p'/p)' = H at x."""
    root = np.sqrt(np.maximum((size - 1.0) * (size * h - g * g), 0.0))
    return x - size / (g + np.copysign(root, g))


def _eigenvalues(q: np.ndarray, e: np.ndarray, index: tuple[int, ...]) -> np.ndarray:
    """Eigenvalues `index` (ascending, 0-based) of each draw's T = L L^T, shape
    (count, len(index)), from L's squares q (count, size) and e (count, size - 1).

    Each value is iterated on its own from its draw by Laguerre steps on the pivots of
    `_pivots`, so asking for fewer indices changes no value.  When all roots are real, a
    step from outside the spectrum approaches the nearest root monotonically and
    cubically, and a step from between two roots stays between them (Li and Zeng,
    SIAM J. Sci. Comput. 15, 1994).  ||L||^2 <= 2 (max q + max e) bounds the spectrum.
    - Index 0 starts from 0 (T is positive semidefinite) and the top index from that
      bound.  No bracket is needed out there, and G / H bounds the distance to the root:
      the iteration stops when a step makes no progress or meets that bound to 2 eps.
    - Any other index keeps a bracket [lo, hi) from each sweep's count, starting from
      [0, the bound for L without its first row), which holds it by Cauchy interlacing
      and is free of theta.  A step is taken only if it heads for eigenvalue k from a
      point with k or k + 1 eigenvalues below it and stays inside the bracket; otherwise
      the point is the bracket's midpoint.  The iteration stops when a step makes no
      progress or the bracket cannot be split.
    An iteration that has not stopped after MAX_SWEEPS sweeps raises EigensolverFailure.
    """
    count, size = q.shape
    k = np.tile(index, count)
    draw = np.repeat(np.arange(count), len(index))
    lam = np.empty(k.size)
    top = e.max(axis=1, initial=0.0)
    outer = np.flatnonzero((k == 0) | (k == size - 1))
    inner = np.flatnonzero((k > 0) & (k < size - 1))
    with np.errstate(all="ignore"):
        if outer.size:
            x = np.where(k[outer] == 0, 0.0, 2.0 * (q.max(axis=1) + top)[draw[outer]])
            lam[outer] = _outside(q.T[:, draw[outer]], e.T[:, draw[outer]], x)
        if inner.size:
            hi = 2.0 * (q[:, 1:].max(axis=1) + top)[draw[inner]]
            lam[inner] = _bracketed(q.T[:, draw[inner]], e.T[:, draw[inner]], k[inner], hi)
    return lam.reshape(count, len(index))


def _outside(qs: np.ndarray, es: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The eigenvalue nearest to each x outside the spectrum (0 or above it); see `_eigenvalues`."""
    size, lam, todo = qs.shape[0], np.empty(x.size), np.arange(x.size)
    rise = np.where(x == 0.0, 1.0, -1.0)
    for _ in range(MAX_SWEEPS):
        g, h, _ = _pivots(qs, es, x, False)
        step = _laguerre(x, g, h, size)
        moved = rise * (step - x) > 0.0
        done = ~moved | (np.abs(x - g / h - step) <= 2.0 * EPS * step)
        lam[todo[done]] = np.where(moved, step, x)[done]
        keep = ~done
        todo, x, rise, qs, es = todo[keep], step[keep], rise[keep], qs[:, keep], es[:, keep]
        if not todo.size:
            return lam
    raise EigensolverFailure(f"an eigenvalue iteration did not converge within {MAX_SWEEPS} sweeps")


def _bracketed(qs: np.ndarray, es: np.ndarray, k: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Eigenvalue k of each draw, in [0, hi); see `_eigenvalues`."""
    size, lam, todo = qs.shape[0], np.empty(k.size), np.arange(k.size)
    lo, x = np.zeros(k.size), 0.5 * hi
    for _ in range(MAX_SWEEPS):
        g, h, c = _pivots(qs, es, x, True)
        below = c <= k
        lo, hi = np.where(below, x, lo), np.where(below, hi, x)
        step = _laguerre(x, g, h, size)
        toward = (c - k) == (g > 0.0)  # up from k eigenvalues below x, down from k + 1
        mid = 0.5 * (lo + hi)
        done = toward & (step == x) | (mid <= lo) | (mid >= hi)
        lam[todo[done]] = x[done]
        keep = ~done
        x = np.where(toward & (lo < step) & (step < hi), step, mid)[keep]
        todo, k, lo, hi, qs, es = todo[keep], k[keep], lo[keep], hi[keep], qs[:, keep], es[:, keep]
        if not todo.size:
            return lam
    raise EigensolverFailure(f"an eigenvalue iteration did not converge within {MAX_SWEEPS} sweeps")


def _chunk_projections(model: SpikedModel, seed: int, start: int, stop: int,
                       columns: tuple[int, ...] | None = None) -> np.ndarray:
    """Overlaps |v^H u_l|^2 of draws [start, stop): the `columns` (None: all) of a row of
    rank = n (m for the singular variant) overlaps in ascending eigenvalue order, each the
    Gauss weight u(0)^2 of T = L L^T (`_tridiagonal`) at an eigenvalue lam (Golub and
    Welsch, 1969).  lam comes from L's Sturm pivots (`_eigenvalues`), the weight from a
    twisted factorization of T - lam (Dhillon and Parlett, 2004; LAPACK dlar1v; README)
    on T's diagonal a_i = q_i + e_{i-1} and squared subdiagonal b2_i = q_i e_i.
    Non-finite squares, an eigenvalue iteration that does not converge and overlaps
    outside [0, 1] raise EigensolverFailure.
    """
    q, e = _tridiagonal(model, seed, start, stop)
    if not (np.all(np.isfinite(q)) and np.all(np.isfinite(e))):
        raise EigensolverFailure("a drawn square is not finite")
    size = q.shape[1]
    cols = np.arange(int(model.variant == "singular"), size)  # singular T: 0 comes first
    cols = cols if columns is None else cols[list(columns)]
    if model.variant == "singular":  # T's nonzero eigenvalues are those of L^T L
        lam = _eigenvalues(*_transposed_gram(q, e), tuple(cols - 1))
    else:
        lam = _eigenvalues(q, e, tuple(cols))
    a = q.copy()
    a[:, 1:] += e
    d, b2 = a.T[:, :, None] - lam, (q[:, :-1] * e).T[:, :, None]  # rows lead: a step reads one block
    c, h, dm = np.zeros_like(d), np.zeros_like(d), d[-1].copy()
    floor = EPS * np.abs(lam) + TINY  # for a zero pivot
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
    Philox stream keyed (seed, first draw index); a statistic with a limit law
    draws n times its column.  The values do not depend on the spike direction;
    `spike` is checked for shape, unit norm and realness only.  The same (model,
    seed, count) reproduces identical values bit for bit, including across
    different worker counts, and a smaller count gives a prefix of a larger one.
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
    sampled = {
        name: entry for name, entry in STATISTICS.items()
        if entry.variant == model.variant and (entry.column <= 0 or entry.column < rank - 1)
    }
    if statistics is None:  # every overlap, without the limit laws' rescaled copies
        statistics = tuple(name for name, entry in sampled.items() if not entry.law)
    for stat in statistics:
        if stat not in sampled:
            raise ValueError(f"statistic {stat!r} is not sampled for variant {model.variant!r}")

    bounds = [(a, min(a + CHUNK_SIZE, count)) for a in range(0, count, CHUNK_SIZE)]
    wanted = tuple(sampled[stat].column for stat in statistics)
    nworkers = worker_count(workers)
    if nworkers == 1 or len(bounds) == 1:
        chunks = [_chunk_projections(model, seed, a, b, wanted) for a, b in bounds]
    else:
        with ThreadPoolExecutor(max_workers=nworkers) as pool:
            chunks = list(pool.map(lambda ab: _chunk_projections(model, seed, *ab, wanted), bounds))
    proj = np.concatenate(chunks, axis=0)
    return {stat: col * (model.n if sampled[stat].law else 1) for stat, col in zip(statistics, proj.T)}
