import math

import numpy as np
import pytest
from scipy.special import betainc

from spiked_eigvec import numkit


def test_ks_single_sample():
    rep = numkit.ks_test([0.5], lambda x: np.asarray(x, dtype=float))
    assert rep.ks_statistic == pytest.approx(0.5, abs=1e-15)
    assert rep.sample_count == 1


def test_ks_quantile_construction():
    n = 1000
    samples = (np.arange(1, n + 1) - 0.5) / n
    rep = numkit.ks_test(samples, lambda x: np.asarray(x, dtype=float))
    assert rep.ks_statistic <= 0.5 / n + 1e-12


def test_ks_beta_vs_uniform_distance():
    # Beta(1,2) samples against the uniform cdf: sup|2z - z^2 - z| = 1/4.
    rng = np.random.default_rng(11)
    u = rng.uniform(size=100_000)
    samples = 1.0 - np.sqrt(1.0 - u)
    rep = numkit.ks_test(samples, lambda x: np.asarray(x, dtype=float))
    assert rep.ks_statistic == pytest.approx(0.25, abs=0.01)
    assert not rep.passed


def test_ks_permutation_invariance():
    rng = np.random.default_rng(2)
    samples = rng.uniform(size=500)
    cdf = lambda x: np.asarray(x, dtype=float)
    a = numkit.ks_test(samples, cdf)
    b = numkit.ks_test(samples[::-1], cdf)
    assert a.ks_statistic == b.ks_statistic


def test_ks_histogram_normalized_and_qq_shape():
    rng = np.random.default_rng(4)
    rep = numkit.ks_test(rng.uniform(size=5000), lambda x: np.asarray(x, dtype=float))
    mass = sum((r - l) * d for l, r, d in rep.histogram)
    assert mass == pytest.approx(1.0, abs=1e-9)
    assert len(rep.qq) == 99
    assert rep.passed == (rep.ks_statistic <= rep.critical_value_1pct)


def test_ks_qq_matches_scalar_bisection():
    cdf = lambda x: np.clip(np.asarray(x, dtype=float), 0.0, 1.0) ** 1.7
    rng = np.random.default_rng(9)
    rep = numkit.ks_test(rng.uniform(size=400), cdf)
    for p, (theo, _) in zip(np.arange(1, 100) / 100.0, rep.qq):
        lo, hi = 0.0, 1.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if cdf(np.array([mid]))[0] < p:
                lo = mid
            else:
                hi = mid
        assert theo == 0.5 * (lo + hi)


@pytest.mark.parametrize("a,b", [(2, 5), (0.5, 0.5), (1, 30), (30, 1)])
def test_ks_qq_bisection_from_sample_brackets(a, b):
    # Against the plain 80-step bisection from [0, 1]: both end on a crossing,
    # two adjacent floats with F(lo) < p <= F(hi).  Where F is non-decreasing
    # in floats that crossing is unique, so the two answers lie within 1 ulp;
    # betainc can step down by an ulp, and then both are crossings.
    calls = []

    def cdf(x):
        calls.append(x.size)
        return betainc(a, b, np.clip(x, 0.0, 1.0))

    rep = numkit.ks_test(np.random.default_rng(5).beta(a, b, size=2000), cdf)
    assert len(calls) < 80
    levels = np.arange(1, 100) / 100.0
    lo, hi = np.zeros(levels.size), np.ones(levels.size)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        below = betainc(a, b, mid) < levels
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    for p, (theo, _), plain in zip(levels, rep.qq, 0.5 * (lo + hi)):
        around = np.array([np.nextafter(theo, 0.0), theo, np.nextafter(theo, 1.0)])
        below = betainc(a, b, around) < p
        assert (below[0] and not below[1]) or (below[1] and not below[2])
        ends = np.sort(np.array([theo, plain])).view(np.int64)
        between = np.arange(ends[0], ends[1] + 1).view(np.float64)
        assert between.size <= 2 or np.any(np.diff(betainc(a, b, between)) < 0)


def test_ks_rejects_scalar_cdf():
    samples = [0.2, 0.5, 0.7]
    with pytest.raises(ValueError):
        numkit.ks_test(samples, lambda x: min(max(x, 0.0), 1.0))
    with pytest.raises(ValueError):
        numkit.ks_test(samples, lambda x: 0.5)


def test_ks_empty_sample():
    with pytest.raises(numkit.EmptySample):
        numkit.ks_test([], lambda x: np.asarray(x, dtype=float))


def _taylor_remainder_sum(x, t, a, log_row, beta, r0, z):
    """sum_x e^{log_row - beta x u} sum_q a e^{y} P(r0, y), u = 1 - z, y = beta x u t_q."""
    from scipy.special import gammainc

    y = beta * x[:, None, None] * (1.0 - z)[None, None, :] * t[None, :, None]
    inner = np.sum(a[:, :, None] * np.exp(y) * gammainc(r0, y), axis=1)
    return np.sum(np.exp(log_row[:, None] - beta * np.outer(x, 1.0 - z)) * inner, axis=0)


def test_halfline_series_sums_the_taylor_remainder():
    x, t = np.array([0.5, 2.0, 5.0]), np.linspace(0.05, 0.95, 16)
    a = np.random.default_rng(7).standard_normal((x.size, t.size))
    log_row, beta, r0 = np.array([-1.0, 0.0, -3.0]), 0.6, 2
    z = np.linspace(0.0, 1.0, 601)  # three 256-z chunks
    expected = _taylor_remainder_sum(x, t, a, log_row, beta, r0, z)
    series = numkit.halfline_series(x, t, a, log_row, beta, r0)
    assert np.max(np.abs(series(z) - expected)) <= 1e-14 * np.max(np.abs(expected))


def test_halfline_series_length_at_small_beta_x():
    # (beta x)^r0 / r0! is 2.5e-21 here: a bound that leaves it out puts every
    # term below 1e-20 of the scale and stops after one.
    x, t = np.array([0.02]), np.linspace(0.05, 0.95, 16)
    a, log_row, beta, r0 = np.ones((1, t.size)), np.zeros(1), 0.5, 8
    z = np.linspace(0.0, 1.0, 11)
    expected = _taylor_remainder_sum(x, t, a, log_row, beta, r0, z)
    series = numkit.halfline_series(x, t, a, log_row, beta, r0)
    assert np.all(np.abs(series(z) - expected) <= 1e-13 * expected)


def test_halfline_series_refuses_what_it_cannot_bound():
    one = np.ones((1, 1))
    # Poisson mean 4500 at t = 0.5: far more terms than 2 * t.size.
    with pytest.raises(ArithmeticError):
        numkit.halfline_series(np.array([1e4]), np.array([0.5]), one, np.zeros(1), 0.9, 0)
    with pytest.raises(ArithmeticError):
        numkit.halfline_series(np.array([1.0]), np.array([0.5]), one, np.array([math.nan]), 0.9, 0)


@pytest.mark.parametrize("grades,edges", [
    ((0, 0), [0.0, 1.0]),
    ((3, 0), [0.0, 0.125, 0.25, 0.5, 1.0]),
    ((0, 2), [0.0, 0.5, 0.75, 0.875, 1.0]),
    ((2, 2), [0.0, 0.25, 0.5, 0.75, 0.875, 1.0]),
    ((16, 16), [0.0, *(2.0**-k for k in range(16, 0, -1)),
                *(1.0 - 2.0**-k for k in range(2, 18)), 1.0]),
], ids=["0-0", "3-0", "0-2", "2-2", "16-16"])
def test_unit_grid_panel_edges(grades, edges):
    # One node per panel is its midpoint, weighted by the panel width.
    mid, width = numkit.unit_grid(1, *grades)
    np.testing.assert_array_equal(np.append(mid - width / 2, 1.0), edges)
    np.testing.assert_array_equal(np.insert(mid + width / 2, 0, 0.0), edges)
    _, w = numkit.unit_grid(12, *grades)
    assert w.sum() == pytest.approx(1.0, abs=1e-14)


W_DECADES = np.concatenate([[0.0], 10.0 ** np.arange(-10, 7)])


def _proxy_error(u, q, w=W_DECADES):
    """max over w and columns of |proxy sum - direct sum| / sum |q| / (w + u)."""
    uk, qk = numkit.cauchy_proxies(u, q)
    direct = (1.0 / np.add.outer(w, u)) @ q
    scale = (1.0 / np.add.outer(w, u)) @ np.abs(q)
    return np.max(np.abs((1.0 / np.add.outer(w, uk)) @ qk - direct) / scale)


def test_cauchy_proxies_match_the_direct_sum_over_twelve_decades():
    rng = np.random.default_rng(3)
    u = 10.0 ** rng.uniform(-6.0, 6.0, 5000)
    q = rng.standard_normal((u.size, 3))
    uk, qk = numkit.cauchy_proxies(u, q)
    assert qk.shape == (uk.size, 3) and uk.size == numkit.PROXY_NODES * 40  # 2^39 < 1e12 < 2^40
    assert _proxy_error(u, q) <= 1e-14
    # A 1-d q is one column.
    assert _proxy_error(u, q[:, 0]) <= 1e-14


def test_cauchy_proxies_single_band():
    u = np.linspace(3.0, 5.9, 50)
    uk, _ = numkit.cauchy_proxies(u, np.ones(u.size))
    assert uk.size == numkit.PROXY_NODES and np.all((uk > 3.0) & (uk < 6.0))
    assert _proxy_error(u, np.linspace(-1.0, 1.0, u.size)) <= 1e-14


def test_cauchy_proxies_sources_on_band_edges_and_nodes():
    # 1, 2, 4 and 8 open their bands (t = -1); the nearest float below 2 ends the
    # first.  The proxies of a first call, fed back as sources, sit on or within a
    # rounding of a node of their band, 28 of them exactly.
    edges = np.array([1.0, np.nextafter(2.0, 0.0), 2.0, 4.0, 8.0])
    uk, _ = numkit.cauchy_proxies(edges, np.ones(edges.size))
    assert uk.size == 4 * numkit.PROXY_NODES
    u = np.concatenate([edges, uk])
    assert np.isin(4.0 * np.frexp(u)[0] - 3.0, numkit._PROXY_T).sum() == 28  # min u = 1
    q = np.cos(np.arange(u.size))
    with np.errstate(all="raise"):
        uk2, qk2 = numkit.cauchy_proxies(u, q)
    assert np.all(np.isfinite(qk2)) and np.array_equal(uk2, uk)
    assert _proxy_error(u, q) <= 1e-14


@pytest.mark.parametrize("bad", [0.0, -1.0, np.inf, np.nan])
def test_cauchy_proxies_reject_sources_off_the_positive_axis(bad):
    with pytest.raises(ValueError, match="finite u > 0"):
        numkit.cauchy_proxies(np.array([1.0, bad, 3.0]), np.ones(3))
