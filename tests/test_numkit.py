import math

import numpy as np
import pytest

from spiked_eigvec import numkit

import oracles


def test_scaled_det_identity():
    d = oracles.scaled_det(np.eye(3))
    assert d.sign == 1 and d.log_magnitude == pytest.approx(0.0, abs=1e-14)


def test_scaled_det_two_by_two():
    d = oracles.scaled_det([[1.0, 2.0], [3.0, 4.0]])
    assert d.sign == -1
    assert d.log_magnitude == pytest.approx(math.log(2.0), rel=1e-12)
    assert d.value == pytest.approx(-2.0, rel=1e-12)


def test_scaled_det_empty_is_unity():
    d = oracles.scaled_det(np.zeros((0, 0)), d=0)
    assert d.sign == 1 and d.log_magnitude == 0.0
    assert d.value == 1.0


def test_scaled_det_singular():
    d = oracles.scaled_det([[1.0, 2.0], [2.0, 4.0]])
    assert d.sign == 0 and d.value == 0.0


def test_scaled_det_row_scaling_property():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((4, 4))
    base = oracles.scaled_det(a)
    scales = np.array([2.0, -3.0, 0.5, -7.0])
    scaled = oracles.scaled_det(scales[:, None] * a)
    shift = np.sum(np.log(np.abs(scales)))
    parity = -1 if (scales < 0).sum() % 2 else 1
    assert scaled.log_magnitude - base.log_magnitude == pytest.approx(shift, abs=1e-10)
    assert scaled.sign == parity * base.sign


def test_integrate_unit_constant():
    assert oracles.integrate_unit(lambda t: np.ones_like(t)) == pytest.approx(1.0, abs=1e-13)


def test_integrate_unit_endpoint_singularity():
    # 0.5 / sqrt(t) integrates to 1; exercises dyadic subdivision toward 0.
    val = oracles.integrate_unit(lambda t: 0.5 / np.sqrt(t))
    assert val == pytest.approx(1.0, abs=1e-9)


def test_integrate_unit_beta_density():
    assert oracles.integrate_unit(lambda t: 6.0 * t * (1.0 - t)) == pytest.approx(1.0, abs=1e-13)


def test_integrate_halfline_exponentials():
    assert oracles.integrate_halfline(lambda x: np.exp(-x), 1.0) == pytest.approx(1.0, rel=1e-12)
    assert oracles.integrate_halfline(lambda x: 0.5 * x**2 * np.exp(-x), 1.0) == pytest.approx(
        1.0, rel=1e-12
    )
    # Gamma(6)/2^6 = 15/8 by hand.
    assert oracles.integrate_halfline(lambda x: x**5 * np.exp(-2 * x), 2.0) == pytest.approx(
        15.0 / 8.0, rel=1e-12
    )


def test_quadrature_linearity():
    f = lambda t: np.sin(3 * t)
    g = lambda t: t**2
    lhs = oracles.integrate_unit(lambda t: 2.0 * f(t) + 5.0 * g(t))
    rhs = 2.0 * oracles.integrate_unit(f) + 5.0 * oracles.integrate_unit(g)
    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_quadrature_spec_validation():
    with pytest.raises(ValueError):
        oracles.QuadratureSpec(unit_nodes=4)
    with pytest.raises(ValueError):
        oracles.QuadratureSpec(tail_epsilon=0.0)


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


def test_ks_rejects_scalar_cdf():
    samples = [0.2, 0.5, 0.7]
    with pytest.raises(ValueError):
        numkit.ks_test(samples, lambda x: min(max(x, 0.0), 1.0))
    with pytest.raises(ValueError):
        numkit.ks_test(samples, lambda x: 0.5)


def test_ks_empty_sample():
    with pytest.raises(numkit.EmptySample):
        numkit.ks_test([], lambda x: np.asarray(x, dtype=float))


def test_halfline_series_sums_the_taylor_remainder():
    # sum_x e^{log_row + beta x z} (const u^r0 + sum_q a e^{y} P(r0, y)),
    # u = 1 - z, y = beta x u t_q.
    from scipy.special import gammainc

    x, t = np.array([0.5, 2.0, 5.0]), np.linspace(0.05, 0.95, 16)
    a = np.random.default_rng(7).standard_normal((x.size, t.size))
    log_row, beta, r0, const = np.array([-1.0, 0.0, -3.0]), 0.6, 2, np.array([0.5, -1.0, 2.0])
    z = np.linspace(0.0, 1.0, 601)  # three 256-z chunks
    y = beta * x[:, None, None] * (1.0 - z)[None, None, :] * t[None, :, None]
    inner = np.sum(a[:, :, None] * np.exp(y) * gammainc(r0, y), axis=1) + np.outer(const, (1.0 - z) ** r0)
    expected = np.sum(np.exp(log_row[:, None] + beta * np.outer(x, z)) * inner, axis=0)
    series = numkit.halfline_series(x, t, a, log_row, beta, r0, const)
    assert np.max(np.abs(series(z) - expected)) <= 1e-14 * np.max(np.abs(expected))


def test_halfline_series_refuses_what_it_cannot_bound():
    one = np.ones((1, 1))
    # Poisson mean 4500 at t = 0.5: far more terms than 2 * t.size.
    with pytest.raises(ArithmeticError):
        numkit.halfline_series(np.array([1e4]), np.array([0.5]), one, np.zeros(1), 0.9, 0)
    with pytest.raises(ArithmeticError):
        numkit.halfline_series(np.array([1.0]), np.array([0.5]), one, np.array([math.nan]), 0.9, 0)
