import math

import numpy as np
import pytest
from scipy.special import comb, gamma as scipy_gamma

import oracles


def test_pochhammer_basics():
    assert oracles.pochhammer(2.5, 0) == 1.0
    assert oracles.pochhammer(-3, 2) == 6.0
    assert oracles.pochhammer(-3, 4) == 0.0


def test_pochhammer_negative_integer_vanishes():
    for big_m in range(31):
        for j in range(big_m + 1, big_m + 5):
            assert oracles.pochhammer(-big_m, j) == 0.0


def test_recip_gamma_values():
    assert oracles.recip_gamma(1.0) == 1.0
    assert oracles.recip_gamma(0.0) == 0.0
    assert oracles.recip_gamma(-2.0) == 0.0
    assert oracles.recip_gamma(4.0) == pytest.approx(1.0 / 6.0, rel=1e-14)


def test_recip_gamma_inverse_property():
    for x in np.arange(0.5, 21.0, 1.0):
        assert oracles.recip_gamma(x) * scipy_gamma(x) == pytest.approx(1.0, rel=1e-12)


def _laguerre_binomial_oracle(rho, deg, z):
    # Independent route: L^(rho)_M(z) = sum_j (-1)^j C(M+rho, M-j) z^j / j!
    return sum(
        (-1.0) ** j * comb(deg + rho, deg - j, exact=True) * z**j / math.factorial(j)
        for j in range(deg + 1)
    )


def test_laguerre_examples():
    assert oracles.laguerre(2, 0, 7.3) == 1.0
    z = 0.37
    assert oracles.laguerre(0, 1, z) == pytest.approx(1.0 - z, rel=1e-14)
    x = 1.9
    assert oracles.laguerre(2, 1, -x) == pytest.approx(3.0 + x, rel=1e-14)


def test_laguerre_against_binomial_oracle():
    rng = np.random.default_rng(1)
    for _ in range(40):
        rho = int(rng.integers(0, 5))
        deg = int(rng.integers(0, 12))
        z = float(rng.uniform(-8, 8))
        assert oracles.laguerre(rho, deg, z) == pytest.approx(
            _laguerre_binomial_oracle(rho, deg, z), rel=1e-11, abs=1e-11
        )


def test_laguerre_at_zero_is_binomial():
    for rho in range(5):
        for deg in range(12):
            assert oracles.laguerre(rho, deg, 0.0) == pytest.approx(
                comb(deg + rho, deg, exact=True), rel=1e-13
            )


def test_laguerre_recurrence_matches_sum_across_switch():
    import mpmath

    z = np.array([-5.0, -1.0, 0.5, 4.0])
    for deg in (29, 30, 31, 35):
        direct = [float(mpmath.laguerre(deg, 2, zz)) for zz in z]
        assert np.allclose(oracles.laguerre(2, deg, z), direct, rtol=1e-10)


def test_laguerre_large_argument():
    # The explicit alternating sum loses 3e-4 relative here; the recurrence does not.
    import mpmath

    exact = float(mpmath.laguerre(25, 6, 10))
    assert oracles.laguerre(6, 25, 10.0) == pytest.approx(exact, rel=1e-10)


def test_laguerre_derivative_identity():
    # d/dz L^(rho)_M = -L^(rho+1)_(M-1), checked by central differences.
    rng = np.random.default_rng(7)
    for _ in range(50):
        rho = int(rng.integers(0, 4))
        deg = int(rng.integers(1, 10))
        z = float(rng.uniform(-4, 4))
        h = 1e-6
        fd = (oracles.laguerre(rho, deg, z + h) - oracles.laguerre(rho, deg, z - h)) / (2 * h)
        assert fd == pytest.approx(-oracles.laguerre(rho + 1, deg - 1, z), rel=2e-6, abs=2e-6)


def test_gauss_2f1_trivial_and_terminating():
    assert oracles.gauss_2f1(1.3, 0.7, 2.2, 0.0) == 1.0
    b, c, x = 1.7, 2.9, 0.41
    assert oracles.gauss_2f1(-1.0, b, c, x) == pytest.approx(1.0 - b * x / c, rel=1e-14)


def test_gauss_2f1_log_value():
    # 2F1(1,1;2;x) = -log(1-x)/x, an independent elementary oracle.
    x = 0.5
    assert oracles.gauss_2f1(1, 1, 2, x) == pytest.approx(-math.log1p(-x) / x, rel=1e-12)
    assert oracles.gauss_2f1(1, 1, 2, x) == pytest.approx(2 * math.log(2), rel=1e-12)


def test_gauss_2f1_negative_argument_transform():
    import mpmath

    for (a, b, c, x) in [(2, 0.5, 1.5, -1.0), (5, 2.5, 3.5, -9.0), (3, 1.0, 4.0, -0.2)]:
        assert oracles.gauss_2f1(a, b, c, x) == pytest.approx(
            float(mpmath.hyp2f1(a, b, c, x)), rel=1e-11
        )


def test_gauss_2f1_no_convergence():
    with pytest.raises(oracles.NoConvergence):
        oracles.gauss_2f1(1.5, 2.5, 3.5, 1.0)


def test_kummer_trivial_and_exponential():
    assert oracles.kummer_1f1(1.2, 3.4, 0.0) == 1.0
    x = 0.9
    assert oracles.kummer_1f1(1, 2, x) == pytest.approx((math.exp(x) - 1) / x, rel=1e-12)


def test_kummer_transformation_examples():
    assert oracles.kummer_1f1(2, 5, -3.0) == pytest.approx(
        math.exp(-3.0) * oracles.kummer_1f1(3, 5, 3.0), rel=1e-12
    )
    rng = np.random.default_rng(3)
    for _ in range(50):
        a = float(rng.uniform(0.5, 5))
        c = a + float(rng.uniform(0.5, 4))
        x = float(rng.uniform(-6, 6))
        lhs = oracles.kummer_1f1(a, c, x)
        rhs = math.exp(x) * oracles.kummer_1f1(c - a, c, -x)
        assert lhs == pytest.approx(rhs, rel=1e-10)


def _e1_series(x):
    # Exponential integral E1 = -gamma - log x - sum_k (-x)^k / (k k!),
    # an independent elementary oracle.
    euler = 0.5772156649015328606
    total = -euler - math.log(x)
    term = 1.0
    for k in range(1, 60):
        term *= -x / k
        total -= term / k
    return total


def test_tricomi_u_closed_forms():
    for x in (0.5, 1.0, 4.0):
        assert oracles.tricomi_u(1, 2, x) == pytest.approx(1.0 / x, rel=1e-10)
        assert oracles.tricomi_u(2, 3, x) == pytest.approx(1.0 / x**2, rel=1e-10)


def test_tricomi_u_e1_value():
    # U(1;1;1) = e * E1(1), with E1 from its own series.
    val = oracles.tricomi_u(1, 1, 1.0)
    assert val == pytest.approx(math.e * _e1_series(1.0), rel=1e-9)
    assert val == pytest.approx(0.596347362323194, rel=1e-9)


def _f2_brute(a, b1, b2, c1, c2, x, y, terms=200):
    # Truncated double series with incrementally updated terms so the
    # individual Pochhammer factors never overflow.
    total = 0.0
    outer = 1.0  # term at (m, 0)
    for m in range(terms):
        t = outer
        for n in range(terms):
            total += t
            t *= (a + m + n) * (b2 + n) / ((c2 + n) * (n + 1.0)) * y
        outer *= (a + m) * (b1 + m) / ((c1 + m) * (m + 1.0)) * x
    return total


def test_appell_f2_trivials():
    assert oracles.appell_f2(3, 1, 1, 2, 2, 0.0, 0.0) == 1.0
    a, b1, b2, c1, c2, x = 2.2, 1.1, 0.7, 3.0, 2.5, 0.3
    assert oracles.appell_f2(a, b1, b2, c1, c2, x, 0.0) == pytest.approx(
        oracles.gauss_2f1(a, b1, c1, x), rel=1e-12
    )


def test_appell_f2_brute_force_oracle():
    val = oracles.appell_f2(3, 1, 1, 2, 2, 0.2, 0.3)
    assert val == pytest.approx(_f2_brute(3, 1, 1, 2, 2, 0.2, 0.3, terms=200), rel=1e-10)


def test_appell_f2_iterated_matches_double():
    # Straddle the strategy switch with an mpmath cross-check.
    import mpmath

    for args in [(3, 1, 1, 2, 2, 0.55, 0.42), (19, 3, 3, 6, 7, 0.4, 0.4)]:
        assert oracles.appell_f2(*args) == pytest.approx(
            float(mpmath.appellf2(*args)), rel=1e-9
        )


def test_appell_f2_no_convergence():
    with pytest.raises(oracles.NoConvergence):
        oracles.appell_f2(2.0, 1.0, 1.0, 3.0, 3.0, 0.7, 0.5)


def _bessel_series_40(p, x):
    return sum(
        (x / 2.0) ** (2 * k + p) / (math.factorial(k) * math.factorial(k + p))
        for k in range(40)
    )


def test_bessel_i_values():
    assert oracles.bessel_i(0, 0.0) == 1.0
    assert oracles.bessel_i(2, 0.0) == 0.0
    assert oracles.bessel_i(1, 2.0) == pytest.approx(_bessel_series_40(1, 2.0), rel=1e-12)
    assert oracles.bessel_i(1, 2.0) == pytest.approx(1.590636854637329, rel=1e-6)
