import math
import time

import numpy as np
import pytest
from scipy.special import comb, eval_genlaguerre, eval_legendre

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


def test_integrate_unit_fails_fast_on_rounding_noise():
    # Noise of 1e-9 at every panel width, as in a density limited by
    # rounding: no refinement reaches the 1e-12 target, and the panel budget
    # stops it within seconds rather than minutes.
    start = time.perf_counter()
    with pytest.raises(oracles.QuadratureFailure):
        oracles.integrate_unit(lambda t: 1.0 + 1e-9 * np.sin(1e15 * t))
    assert time.perf_counter() - start < 5.0


def test_integrate_unit_terminates_once_every_panel_stalls():
    # P_24(2t - 1) integrates to 0 on (0, 1), so the 8-node root panel's
    # error is ~1e5 times the 1e-6 total and a running error sum keeps a
    # rounding residue above the target.  Once every depth-8 panel has
    # stalled within an order of the target, the integral must return.
    spec = oracles.QuadratureSpec(unit_nodes=8, tail_epsilon=1e-12, max_panels=8)
    value = oracles.integrate_unit(lambda t: eval_legendre(24, 2.0 * t - 1.0) + 1e-6, spec)
    assert value == pytest.approx(1e-6, rel=1e-9)


def _laguerre_binomial_oracle(rho, deg, z):
    # Independent route: L^(rho)_M(z) = sum_j (-1)^j C(M+rho, M-j) z^j / j!
    return sum(
        (-1.0) ** j * comb(deg + rho, deg - j, exact=True) * z**j / math.factorial(j)
        for j in range(deg + 1)
    )


def test_laguerre_examples():
    assert eval_genlaguerre(0, 2, 7.3) == 1.0
    z = 0.37
    assert eval_genlaguerre(1, 0, z) == pytest.approx(1.0 - z, rel=1e-14)
    x = 1.9
    assert eval_genlaguerre(1, 2, -x) == pytest.approx(3.0 + x, rel=1e-14)


def test_laguerre_against_binomial_oracle():
    rng = np.random.default_rng(1)
    for _ in range(40):
        rho = int(rng.integers(0, 5))
        deg = int(rng.integers(0, 12))
        z = float(rng.uniform(-8, 8))
        assert eval_genlaguerre(deg, rho, z) == pytest.approx(
            _laguerre_binomial_oracle(rho, deg, z), rel=1e-11, abs=1e-11
        )


def test_laguerre_at_zero_is_binomial():
    for rho in range(5):
        for deg in range(12):
            assert eval_genlaguerre(deg, rho, 0.0) == pytest.approx(
                comb(deg + rho, deg, exact=True), rel=1e-13
            )


def test_laguerre_recurrence_matches_sum_across_switch():
    import mpmath

    z = np.array([-5.0, -1.0, 0.5, 4.0])
    for deg in (29, 30, 31, 35):
        direct = [float(mpmath.laguerre(deg, 2, zz)) for zz in z]
        assert np.allclose(eval_genlaguerre(deg, 2, z), direct, rtol=1e-10)


def test_laguerre_large_argument():
    # The explicit alternating sum loses 3e-4 relative here; the recurrence does not.
    import mpmath

    exact = float(mpmath.laguerre(25, 6, 10))
    assert eval_genlaguerre(25, 6, 10.0) == pytest.approx(exact, rel=1e-10)


def test_laguerre_derivative_identity():
    # d/dz L^(rho)_M = -L^(rho+1)_(M-1), checked by central differences.
    rng = np.random.default_rng(7)
    for _ in range(50):
        rho = int(rng.integers(0, 4))
        deg = int(rng.integers(1, 10))
        z = float(rng.uniform(-4, 4))
        h = 1e-6
        fd = (eval_genlaguerre(deg, rho, z + h) - eval_genlaguerre(deg, rho, z - h)) / (2 * h)
        assert fd == pytest.approx(-eval_genlaguerre(deg - 1, rho + 1, z), rel=2e-6, abs=2e-6)


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


@pytest.mark.parametrize("args", [
    (3, 1, 1, 2, 2, 0.2, 0.3),
    (3, 1, 1, 2, 2, 0.55, 0.42),
    (19, 3, 3, 6, 7, 0.4, 0.4),
    (14, 3, 3, 6, 7, 0.6, 0.35),  # the shape the closed n = 3 form evaluates
])
def test_f2_iterated_vec_matches_mpmath(args):
    import mpmath

    a, b1, b2, c1, c2, x, y = args
    val = oracles._f2_iterated_vec(a, b1, b2, c1, c2, x, np.array([y]))[0]
    assert val == pytest.approx(float(mpmath.appellf2(*args)), rel=1e-11)


def test_f2_iterated_vec_no_convergence():
    # x / (1 - y) = 1.4: the terms grow until one is not finite.
    with pytest.raises(oracles.NoConvergence):
        oracles._f2_iterated_vec(2.0, 1.0, 1.0, 3.0, 3.0, 0.7, np.array([0.5]))


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
