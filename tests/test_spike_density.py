import math
import re

import numpy as np
import pytest

from spiked_eigvec import numkit, spike_density as sd

import oracles

ZGRID = np.array([0.05, 0.2, 0.5, 0.8, 0.95])


def test_model_validation():
    with pytest.raises(ValueError):
        sd.SpikedModel(4, 3, 1.0)  # complex needs m >= n
    with pytest.raises(ValueError):
        sd.SpikedModel(3, 3, 1.0, "singular")
    with pytest.raises(ValueError):
        sd.SpikedModel(3, 5, -0.5)
    with pytest.raises(ValueError):
        sd.SpikedModel(3, 5, math.nan)
    with pytest.raises(ValueError):
        sd.SpikedModel(3, 5, math.inf)
    with pytest.raises(ValueError):
        sd.SpikedModel(3.5, 5, 1.0)
    with pytest.raises(ValueError, match="at least 1"):
        sd.SpikedModel(0, 5, 1.0)
    with pytest.raises(ValueError, match="unknown variant"):
        sd.SpikedModel(3, 5, 1.0, "quaternion")
    m = sd.SpikedModel(3, 5, 3.0)
    assert m.alpha == 2
    assert m.beta == pytest.approx(0.75)


def test_density_values_rejects_unknown_statistic():
    with pytest.raises(sd.UnsupportedModel, match="unknown statistic"):
        sd.density_values("z3", sd.SpikedModel(3, 5, 1.0), ZGRID)


def test_pdf_z1_haar_point():
    model = sd.SpikedModel(5, 8, 0.0)
    assert sd.pdf_z1(model, 0.5) == pytest.approx(4 * 0.5**3, rel=1e-14)


def test_pdf_z1_alpha0_closed_point():
    model = sd.SpikedModel(3, 3, 1.0)
    assert sd.pdf_z1(model, 0.0) == pytest.approx(4.8, rel=1e-13)


def test_pdf_z1_n2_uniform():
    model = sd.SpikedModel(2, 2, 0.0)
    assert np.allclose(sd.pdf_z1(model, ZGRID), 1.0, atol=1e-13)


def test_pdf_z1_domain_and_variant_errors():
    with pytest.raises(sd.DomainError):
        sd.pdf_z1(sd.SpikedModel(3, 5, 1.0), 1.5)
    with pytest.raises(sd.DomainError):
        sd.pdf_z1(sd.SpikedModel(3, 5, 1.0), math.nan)
    with pytest.raises(sd.UnsupportedModel):
        sd.pdf_z1(sd.SpikedModel(2, 5, 1.0, "real"), 0.5)


@pytest.mark.parametrize("n,alpha,theta", [(4, 0, 2.0), (3, 1, 1.0), (6, 1, 0.2), (8, 0, 10.0)])
def test_pdf_z1_dual_path(n, alpha, theta):
    model = sd.SpikedModel(n, n + alpha, theta)
    general, fast = oracles.pdf_z1_general_vs_fastpath(model, ZGRID)
    assert np.max(np.abs(general / fast - 1.0)) < 1e-10


@pytest.mark.parametrize("n,alpha", [(4, 2), (6, 3), (5, 4)])
def test_pdf_z1_series_haar_limit(n, alpha):
    # The nested-sum route at beta -> 0 must collapse to the Haar density.
    vals = sd._z1_series(n, alpha, 1e-13)(1.0 - ZGRID, ZGRID)
    haar = (n - 1.0) * (1.0 - ZGRID) ** (n - 2)
    assert np.max(np.abs(vals / haar - 1.0)) < 1e-10


@pytest.mark.parametrize("n,m,theta", [(2, 18, 1e15), (3, 5, 1e12), (5, 8, 1e12)])
def test_pdf_z1_mass_at_huge_theta(n, m, theta):
    # The mass sits within O(1/theta) of z = 0, where 1 - beta (1 - z) nears
    # 1/(1 + theta): subtracted from 1 it kept ~10 % of its digits at 1e15.
    zq, wq = numkit.unit_grid(16, grade_left=60)
    assert float(wq @ sd.pdf_z1(sd.SpikedModel(n, m, theta), zq)) == pytest.approx(1.0, abs=1e-9)


def _coeff_factor(n, alpha):
    # The exact Gamma(n+alpha+1) / Gamma(n+i-1) that turns the oracles' T_i
    # into the coefficients of r^i.
    return np.array([math.perm(n + alpha, alpha + 2 - i) for i in range(alpha + 1)], dtype=float)


@pytest.mark.parametrize("theta", [0.1, 3.0, 1e4])
def test_min_overlap_coeffs_match_enumeration(theta):
    # The Andreief/Gauss-Laguerre integral against the k-tuple sum it replaced.
    beta = theta / (1.0 + theta)
    for n in range(3, 11):
        for alpha in range(5):
            coef, shift = sd._min_overlap_coeffs(n, alpha, beta)
            ref, ref_shift = oracles.min_overlap_coeffs_enumerated(n, alpha, beta)
            ref = ref * _coeff_factor(n, alpha)
            err = np.max(np.abs(coef * math.exp(shift - ref_shift) - ref))
            assert err <= 1e-12 * np.max(np.abs(ref)), (n, alpha)


# Corners and edges of the validated range m - n <= Z1_MAX_ALPHA = 10 and
# at most Z1_MAX_NODES = 360 Gauss-Laguerre nodes, which reaches n = 718 at
# m - n = 1 and n = 68 at m - n = 10.  A sweep of every alpha <= 10 at 14
# values of n <= 60 and at the node limit, theta in {0.01, 1, 1e4}, read at
# most 2.5e-8 of max T, at (68, 10, 1e4), and 2e-10 for alpha <= 8.
@pytest.mark.parametrize("n,alpha,theta", [
    (3, 10, 100.0), (12, 8, 0.1), (20, 10, 3.0), (60, 3, 1e4), (100, 3, 0.1), (200, 1, 1e4),
    (718, 1, 1.0), pytest.param(68, 10, 1e4, marks=pytest.mark.slow),  # ~20 s
])
def test_min_overlap_coeffs_match_mpmath(n, alpha, theta):
    beta = theta / (1.0 + theta)
    coef, shift = sd._min_overlap_coeffs(n, alpha, beta)
    ref = oracles.min_overlap_coeffs_mpmath(n, alpha, beta, shift) * _coeff_factor(n, alpha)
    assert np.max(np.abs(coef - ref)) <= 1e-7 * np.max(ref)


# Large n, where an exp of log-gamma values near 3,900 would cost ~4e-13, and
# a power n + 1 of a rounded denominator up to n + 1 half-ulps.
@pytest.mark.parametrize("n,alpha,theta", [(200, 1, 1e4), (359, 2, 3.0), (700, 1, 1e4), (718, 1, 1.0)])
def test_pdf_z1_matches_mpmath_at_large_n(n, alpha, theta):
    beta = theta / (1.0 + theta)
    # Out to 12 limit-law means 1 / (n (1 + theta)), at z whose 1 - z is exact
    # (the next test takes z where it rounds).
    z = 1.0 - (1.0 - np.linspace(0.0, 12.0 / (n * (1.0 + theta)), 49))
    ref = oracles.pdf_z1_mpmath(n, alpha, beta, z)
    got = sd.pdf_z1(sd.SpikedModel(n, n + alpha, theta), z)
    assert np.max(np.abs(got - ref)) <= 5e-14 * np.max(ref)


# The same range at z where 1 - z rounds.  (1 - z)^(n - 2) is formed as
# exp((n - 2) log1p(-z)); the power of a rounded 1 - z read up to 3.9e-14.
@pytest.mark.parametrize("n,alpha,theta", [(200, 1, 1e4), (700, 1, 1e4), (718, 1, 1.0)])
def test_pdf_z1_matches_mpmath_where_one_minus_z_rounds(n, alpha, theta):
    beta = theta / (1.0 + theta)
    z = np.linspace(0.0, 12.0 / (n * (1.0 + theta)), 49)[1:]
    assert np.all(1.0 - (1.0 - z) != z)
    ref = oracles.pdf_z1_mpmath(n, alpha, beta, z)
    got = sd.pdf_z1(sd.SpikedModel(n, n + alpha, theta), z)
    assert np.max(np.abs(got - ref)) <= 4e-15 * np.max(ref)


@pytest.mark.parametrize("n,m,theta", [(3, 5, 1.0), (12, 20, 1e4), (718, 719, 1.0)])
def test_pdf_z1_is_zero_at_one(n, m, theta):
    # log1p(-1) = -inf in the edge factor: exactly 0, with no RuntimeWarning.
    model = sd.SpikedModel(n, m, theta)
    assert sd.pdf_z1(model, 1.0) == 0.0
    assert sd.pdf_z1(model, np.array([0.5, 1.0]))[1] == 0.0


def _largest_validated_n(alpha):
    # The largest n whose (n, n + alpha) model takes at most Z1_MAX_NODES
    # Gauss-Laguerre nodes, D//2 + 2 for the minors' degree D.
    return max(n for n in range(3, 2000)
               if alpha * (2 * n + alpha - 3) // 4 + 2 <= sd.Z1_MAX_NODES)


def test_pdf_z1_normalizes_over_validated_range():
    zq, wq = numkit.unit_grid(12, grade_left=16, grade_right=16)
    for alpha in range(1, sd.Z1_MAX_ALPHA + 1):
        for n in (3, 5, 12, 20, 40, 60, _largest_validated_n(alpha)):
            for theta in (0.1, 3.0, 100.0):
                mass = float(wq @ sd.pdf_z1(sd.SpikedModel(n, n + alpha, theta), zq))
                assert abs(mass - 1.0) <= 1e-6, (n, alpha, theta, mass)


@pytest.mark.parametrize("alpha", [1, 2, 10])
def test_pdf_z1_refuses_past_the_node_limit(alpha):
    n = _largest_validated_n(alpha)
    assert np.isfinite(sd.pdf_z1(sd.SpikedModel(n, n + alpha, 1.0), 0.5))
    with pytest.raises(ArithmeticError, match="validated for"):
        sd.pdf_z1(sd.SpikedModel(n + 1, n + 1 + alpha, 1.0), 0.5)


def test_pdf_z1_refuses_past_the_alpha_limit():
    with pytest.raises(ArithmeticError, match="validated for"):
        sd.pdf_z1(sd.SpikedModel(3, 4 + sd.Z1_MAX_ALPHA, 1.0), 0.5)


@pytest.mark.parametrize("alpha", [1, 2])
@pytest.mark.parametrize("theta", [0.5, 3.0])
def test_nz1_limit_law_rate(alpha, theta):
    # The paper's limit n z1 -> chi2_2 / 2(1 + theta), from the exact law: the
    # sup-distance D_n between the c.d.f.s of n z1 and of the limit falls like
    # 1/n (n D_n read 0.078-0.375 over these cells).
    v = np.linspace(0.0, 8.0, 2001)
    dists = []
    for n in (30, 100, 300):
        exact = sd.cdf_grid("z1", sd.SpikedModel(n, n + alpha, theta), v / n)
        dists.append(float(np.max(np.abs(exact + np.expm1(-(1.0 + theta) * v)))))
    assert all(n * d <= 0.5 for n, d in zip((30, 100, 300), dists)), dists
    assert dists[0] >= 2.5 * dists[1] and dists[1] >= 2.5 * dists[2], dists


def test_pdf_z1_closed_cells_have_no_range_limit():
    # m = n (an empty minor) and n = 2 (closed sums) have no range limit.
    for model in (sd.SpikedModel(80, 80, 3.0), sd.SpikedModel(2, 40, 3.0)):
        assert np.all(np.isfinite(sd.pdf_z1(model, ZGRID)))


def test_asymptotic_pdf_cdf():
    assert sd.pdf_nz1_asymptotic(0.0, 0.0) == pytest.approx(1.0)
    v = np.array([0.3, 1.0, 2.5])
    assert np.allclose(sd.cdf_nz1_asymptotic(3.0, v), 1.0 - np.exp(-4.0 * v), rtol=1e-14)
    assert sd.cdf_nz1_asymptotic(1.0, math.log(2) / 2.0) == pytest.approx(0.5, rel=1e-14)
    with pytest.raises(sd.DomainError):
        sd.pdf_nz1_asymptotic(1.0, -0.1)


def test_pdf_zn_n2_theta0_uniform():
    model = sd.SpikedModel(2, 2, 0.0)
    assert np.allclose(sd.pdf_zn(model, ZGRID), 1.0, atol=1e-12)


def test_pdf_zn_theta_zero_singularity():
    with pytest.raises(sd.ThetaZeroSingularity):
        sd.pdf_zn(sd.SpikedModel(3, 5, 0.0), 0.5)
    with pytest.raises(sd.ThetaZeroSingularity):
        sd.pdf_z2(sd.SpikedModel(4, 5, 0.0), 0.5)


@pytest.mark.parametrize("alpha,theta", [(0, 1.0), (3, 5.0), (2, 10.0)])
def test_pdf_zn_n2_reflection(alpha, theta):
    model = sd.SpikedModel(2, 2 + alpha, theta)
    lhs = sd.pdf_zn(model, ZGRID)
    rhs = sd.pdf_z1(model, 1.0 - ZGRID)
    assert np.max(np.abs(lhs - rhs)) < 1e-8


ZN_CLOSED_CELLS = [(3, 2, 3.0), (4, 1, 3.0), (2, 2, 1.0), (4, 0, 0.1), (4, 2, 10.0)]
# n = 3 over the theta range where the oracle's F2 sums converge (not at 1e4).
ZN_N3_CELLS = [(3, alpha, theta) for alpha in (0, 5, 10) for theta in (1e-3, 100.0, 1000.0)]
# Graded toward z = 1, where the large-theta mass sits within O(1/theta).
ZN_PEAK_GRID = 1.0 - np.geomspace(1e-5, 0.999, 60)


@pytest.mark.parametrize("n,alpha,theta", ZN_CLOSED_CELLS + ZN_N3_CELLS)
def test_pdf_zn_closed_vs_generic(n, alpha, theta):
    model = sd.SpikedModel(n, n + alpha, theta)
    closed = oracles.pdf_zn_closed(model, ZN_PEAK_GRID)
    generic = sd._engine("zn", model)(ZN_PEAK_GRID)
    assert np.max(np.abs(generic - closed)) <= 1e-8 * np.max(closed)
    if (n, alpha, theta) in ZN_CLOSED_CELLS:
        # Pointwise too; at large theta the n = 3 values far from z = 1 lie
        # orders of magnitude below the peak, where the F2 difference cancels.
        closed = oracles.pdf_zn_closed(model, ZGRID)
        generic = sd._engine("zn", model)(ZGRID)
        assert np.max(np.abs(generic / closed - 1.0)) < 1e-6


def test_pdf_zn_generic_vs_adaptive_reference():
    # The grid engine against the fully adaptive nested-quadrature route.
    model = sd.SpikedModel(3, 4, 1.0)
    z = 0.4
    grid_val = float(sd._engine("zn", model)(np.array([z]))[0])
    adaptive = oracles._pdf_zn_adaptive(model, z)
    assert grid_val == pytest.approx(adaptive, rel=1e-8)


@pytest.mark.parametrize(
    "alpha,theta", [(0, 1.0), (3, 5.0), (0, 0.0)]
)
def test_zn_convexity_n2(alpha, theta):
    model = sd.SpikedModel(2, 2 + alpha, theta)
    assert oracles.check_zn_convexity_n2(model)


def test_pdf_z2_normalization():
    model = sd.SpikedModel(4, 5, 3.0)
    zq, wq = numkit.unit_grid(32, grade_left=2, grade_right=2)
    total = float(np.dot(wq, sd.pdf_z2(model, zq)))
    assert total == pytest.approx(1.0, abs=1e-4)


def test_pdf_z2_normalization_large_theta():
    # theta > 999 once floored the decay rate, truncating the x and w grids.
    model = sd.SpikedModel(4, 5, 1e4)
    zq, wq = numkit.unit_grid(12, grade_left=16, grade_right=16)
    total = float(np.dot(wq, sd.pdf_z2(model, zq)))
    assert total == pytest.approx(1.0, abs=1e-4)


def test_pdf_z2_alpha_limit(monkeypatch):
    # m - n = Z2_MAX_ALPHA still normalizes (1.1e-7 was the worst of a sweep);
    # one past it raises before any basis is built.
    zq, wq = numkit.unit_grid(16, grade_left=20, grade_right=20)
    total = float(np.dot(wq, sd.pdf_z2(sd.SpikedModel(8, 8 + sd.Z2_MAX_ALPHA, 1.0), zq)))
    assert total == pytest.approx(1.0, abs=1e-6)
    built = []
    monkeypatch.setattr(sd, "_z2_basis", lambda model: built.append(model))
    sd._z2_minors.cache_clear()
    with pytest.raises(ArithmeticError, match="validated for"):
        sd.pdf_z2(sd.SpikedModel(3, 4 + sd.Z2_MAX_ALPHA, 1.0), 0.5)
    assert built == [] and sd._z2_minors.cache_info().misses == 0


def test_pdf_z2_mass_check_raises_on_every_call_from_one_build():
    # The engine keeps a model whose mass check fails at (8, 11, 0.01), so a
    # second call raises again without building the panels again.  The mass is
    # a cancellation residue: its digits are noise, only its distance from 1 is checked.
    sd._engine.cache_clear()
    model = sd.SpikedModel(8, 11, 0.01)
    for _ in range(2):
        with pytest.raises(ArithmeticError) as err:
            sd.pdf_z2(model, 0.5)
        mass = re.fullmatch(r"z2 mass (\S+) misses 1 by more than 1e-4", str(err.value))
        assert mass and abs(float(mass.group(1)) - 1.0) > 1e-4
    assert sd._engine.cache_info().misses == 1


def test_z2_prepare_memory_stays_below_the_kernel_matrix():
    # With its minors built, a (8, 13) prepare holds no (w, u) array: the Cauchy
    # kernel runs through proxies.  The full 528 x 28,800 kernel takes 116 MiB,
    # and building it in 528 x 4,096 slabs peaks at 35.5 MiB.
    import tracemalloc

    sd._z2_minors(8, 5)
    tracemalloc.start()
    try:
        sd._z2_prepare(sd.SpikedModel(8, 13, 3.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 20 * 2**20, peak


def test_z2_minors_are_built_once_per_n_and_alpha():
    sd._engine.cache_clear()
    sd._z2_minors.cache_clear()
    for theta in (0.1, 1.0, 3.0, 10.0):
        sd.pdf_z2(sd.SpikedModel(4, 6, theta), 0.5)
    assert sd._z2_minors.cache_info().misses == 1
    assert all(not a.flags.writeable for a in sd._z2_minors(4, 2))


def test_z2_engine_from_cached_minors_equals_a_fresh_build():
    zs = np.linspace(0.0, 1.0, 201)
    sd._z2_prepare(sd.SpikedModel(5, 6, 0.5))
    warm = sd._z2_prepare(sd.SpikedModel(5, 6, 3.0))(zs)
    sd._z2_minors.cache_clear()
    cold = sd._z2_prepare(sd.SpikedModel(5, 6, 3.0))(zs)
    assert sd._z2_minors.cache_info().misses == 1
    assert np.array_equal(warm, cold)


@pytest.mark.parametrize("n", [3, 5, 8])
@pytest.mark.parametrize("alpha", [1, 2, 3])
def test_pdf_z2_mass_on_an_independent_rule(n, alpha):
    # The loop oracle reads the engine's own grids, so it cannot see a grid that
    # truncates the integral; a rule on z alone can (worst 1.5e-10 over n 3-8).
    zq, wq = numkit.unit_grid(32, grade_left=12, grade_right=4)
    for theta in (1.0, 10.0, 1e3):
        total = float(np.dot(wq, sd.pdf_z2(sd.SpikedModel(n, n + alpha, theta), zq)))
        assert abs(total - 1.0) <= 1e-9, (theta, total)


def test_pdf_zn_normalization_large_theta():
    # At theta = 1e4 the x grid reaches about 1e6; the moment series still
    # fits (about 130 terms), since its length follows the t weight, not x.
    model = sd.SpikedModel(5, 6, 1e4)
    zq, wq = numkit.unit_grid(12, grade_left=16, grade_right=16)
    total = float(np.dot(wq, sd.pdf_zn(model, zq)))
    assert total == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("alpha", [0, 2, 4])
def test_pdf_zn_n4_normalization_small_theta(alpha):
    # theta = 1e-6 is close to the theta = 0 pole of the n >= 3 formula; the
    # n = 4 moment series must still carry the full mass.
    model = sd.SpikedModel(4, 4 + alpha, 1e-6)
    zq, wq = numkit.unit_grid(12, grade_left=16, grade_right=16)
    total = float(np.dot(wq, sd.pdf_zn(model, zq)))
    assert total == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("n,m,theta", [(12, 14, 0.01), (12, 12, 0.003)])
def test_pdf_zn_normalization_small_beta_x(n, m, theta):
    # The series starts at r = n - 2 with (beta x)^r / r! far below 1; a
    # length bound that left that factor out missed by 4.5e-9 and 3.9e-6.
    zq, wq = numkit.unit_grid(16, grade_left=24, grade_right=24)
    total = float(np.dot(wq, sd.pdf_zn(sd.SpikedModel(n, m, theta), zq)))
    assert abs(total - 1.0) <= 1e-10


SHAPE_MODELS = {
    "z1": sd.SpikedModel(4, 6, 1.0),
    "z2": sd.SpikedModel(3, 4, 3.0),
    "zn": sd.SpikedModel(5, 6, 3.0),
    "nz1_asym": sd.SpikedModel(4, 6, 1.0),
    "w1_real": sd.SpikedModel(2, 5, 1.0, "real"),
    "w2_real": sd.SpikedModel(2, 5, 1.0, "real"),
    "y1_sing": sd.SpikedModel(4, 1, 1.0, "singular"),
    "yn_sing": sd.SpikedModel(5, 4, 0.3, "singular"),
}


@pytest.mark.parametrize("stat", sorted(sd.STATISTICS))
def test_density_keeps_z_shape(stat):
    z = np.array([[0.05, 0.3, 0.5], [0.6, 0.8, 0.95]])
    flat = sd.density_values(stat, SHAPE_MODELS[stat], z.ravel())
    grid = sd.density_values(stat, SHAPE_MODELS[stat], z)
    assert grid.shape == z.shape
    assert np.array_equal(grid, flat.reshape(z.shape))


@pytest.mark.parametrize("stat", ["zn", "z2", "yn_sing"])
def test_density_values_has_one_grid(stat):
    z = np.linspace(0.0, 1.0, 11)
    model = SHAPE_MODELS[stat]
    assert np.array_equal(sd.density_values(stat, model, z, preset="fast"),
                          sd.density_values(stat, model, z))
    with pytest.raises(ValueError):
        sd.density_values(stat, model, z, preset="fine")


@pytest.mark.parametrize(
    "n,m,theta,tol",
    [(5, 6, 3.0, 1e-12), (7, 9, 3.0, 1e-12), (8, 12, 10.0, 1e-12), (5, 6, 0.1, 1e-12),
     # x reaches 1e6: exponents r log(beta x) near 1,800 carry ~4e-13 rounding.
     (5, 6, 1e4, 1e-11)],
)
def test_zn_series_matches_loop(n, m, theta, tol):
    model = sd.SpikedModel(n, m, theta)
    zs = np.concatenate([np.linspace(0.0, 0.95, 20), 1.0 - np.geomspace(1e-6, 0.04, 12)])
    assert isinstance(sd._engine("zn", model), numkit.HalfLineSeries)
    loop = oracles.pdf_zn_loop(model, zs)
    series = sd._engine("zn", model)(zs)
    assert np.max(np.abs(series - loop)) <= tol * np.max(loop)


@pytest.mark.parametrize("theta", [1e6, 1e8, 1e12])
@pytest.mark.parametrize("n,m", [(3, 5), (4, 6), (5, 6)])
def test_zn_series_matches_loop_at_large_theta(n, m, theta):
    # x reaches 1e13 at theta = 1e12: an outer weight formed from terms of
    # size x that cancel near z = 1 carried eps x (1e-4 of the peak here).
    model = sd.SpikedModel(n, m, theta)
    zs = 1.0 - np.geomspace(1e-3, 30.0, 60) / theta
    loop = oracles.pdf_zn_loop(model, zs)
    series = sd._engine("zn", model)(zs)
    assert np.max(np.abs(series - loop)) <= 1e-13 * np.max(loop)


@pytest.mark.parametrize("n,m", [(3, 5), (4, 6), (5, 6), (6, 8), (8, 10)])
def test_pdf_zn_mass_at_theta_1e8(n, m):
    theta = 1e8
    zq, wq = numkit.unit_grid(16, 20, math.ceil(math.log2(1.0 + theta)) + 12)
    total = float(np.dot(wq, sd.pdf_zn(sd.SpikedModel(n, m, theta), zq)))
    assert abs(total - 1.0) <= 2e-9


def test_zn_unbounded_series_raises():
    # At theta = 1e15 the orthogonal basis breaks down (a norm is zero or not
    # finite): an error, not a zero density, and no RuntimeWarning on the way.
    sd._engine.cache_clear()
    with pytest.raises(ArithmeticError):
        sd.pdf_zn(sd.SpikedModel(5, 6, 1e15), np.linspace(0.05, 0.95, 7))


def test_zn_series_chunks_do_not_interact():
    model = sd.SpikedModel(5, 6, 3.0)
    zs = np.linspace(0.0, 1.0, 1001)
    engine = sd._engine("zn", model)
    whole = engine(zs)
    pieces = np.concatenate([engine(zs[i : i + 7]) for i in range(0, zs.size, 7)])
    assert np.max(np.abs(whole - pieces)) <= 1e-14 * np.max(whole)


@pytest.mark.parametrize(
    "n,m,theta,tol",
    [(3, 4, 3.0, 1e-13), (5, 8, 10.0, 1e-13), (4, 5, 1e4, 1e-13),
     # 10, 14 and 24 Chebyshev panels, the narrowest 2^-23 wide.
     (3, 8, 100.0, 1e-13), (6, 7, 1e3, 1e-13), (4, 5, 1e6, 1e-13),
     # Small theta: the beta^(2-n) prefactor amplifies the rounding of the
     # cancelling sv and h terms (the two routes sum them in different orders).
     (7, 9, 0.1, 1e-9), (8, 12, 0.1, 1e-9),
     # The tail of a wide panel, where the density is 2e-6 of its peak: 17 points
     # per panel read 2.1e-14 at z = 0.68.
     (8, 13, 1.0, 5e-15)],
)
def test_z2_sum_matches_loop(n, m, theta, tol):
    model = sd.SpikedModel(n, m, theta)
    zs = np.concatenate([np.geomspace(1e-9, 1e-2, 12), np.linspace(0.0, 0.95, 20), [0.68],
                         1.0 - np.geomspace(1e-6, 0.04, 12)])
    loop = oracles.pdf_z2_loop(model, zs)
    assert np.max(np.abs(sd._engine("z2", model)(zs) - loop)) <= tol * np.max(loop)


def test_z2_chunks_do_not_interact():
    model = sd.SpikedModel(5, 6, 3.0)
    zs = np.linspace(0.0, 1.0, 1001)
    engine = sd._engine("z2", model)
    whole = engine(zs)
    pieces = np.concatenate([engine(zs[i : i + 7]) for i in range(0, zs.size, 7)])
    assert np.max(np.abs(whole - pieces)) <= 1e-14 * np.max(whole)


def test_clip_density_rejects_non_finite():
    with pytest.raises(ArithmeticError):
        sd._clip_density(np.array([1.0, math.nan, 0.5]))
    with pytest.raises(ArithmeticError):
        sd._clip_density(np.array([1.0, math.inf]))


def test_clip_density_floor_is_relative_to_the_peak():
    peak = 3.0
    clipped = sd._clip_density(np.array([peak, -1e-5 * peak, 0.5]))
    assert np.array_equal(clipped, [peak, 0.0, 0.5])
    with pytest.raises(ArithmeticError, match="significantly below zero"):
        sd._clip_density(np.array([peak, -1e-3 * peak, 0.5]))


def test_pdf_z2_requires_n3():
    with pytest.raises(sd.UnsupportedModel):
        sd.pdf_z2(sd.SpikedModel(2, 5, 1.0), 0.5)


def test_phi_column_routes_agree():
    model = sd.SpikedModel(5, 6, 3.0)
    for (u, z, i) in [(0.5, 0.3, 1), (2.0, 0.7, 2), (0.05, 0.5, 3)]:
        a = oracles.phi_column_reference(model, u, z, i)
        b = oracles.phi_column_integral(model, u, z, i)
        assert a == pytest.approx(b, rel=1e-10)


def test_cdf_haar_closed_form():
    model = sd.SpikedModel(4, 6, 0.0)
    for z in (0.2, 0.6, 0.9):
        assert oracles.cdf("z1", model, z) == pytest.approx(1.0 - (1.0 - z) ** 3, abs=1e-10)


def test_cdf_endpoints():
    model = sd.SpikedModel(3, 5, 3.0)
    assert oracles.cdf("z1", model, 1.0) == pytest.approx(1.0, abs=1e-6)
    assert oracles.cdf("z1", model, 1e-9) == pytest.approx(0.0, abs=1e-6)


def test_cdf_monotone_grid():
    grid = np.linspace(0.0, 1.0, 1000)
    perm = np.random.default_rng(0).permutation(grid.size)
    for stat, n, m in (("z1", 4, 6), ("zn", 4, 6), ("z1", 10, 15)):
        cdf = sd.model_cdf_fn(stat, sd.SpikedModel(n, m, 3.0))
        vals = cdf(grid)
        assert np.all(np.diff(vals) >= 0), (stat, n, m)
        # Unsorted input gets the same values, position by position.
        assert np.array_equal(cdf(grid[perm]), vals[perm]), (stat, n, m)


@pytest.mark.parametrize("stat,n,m,theta", [
    ("z1", 10, 15, 3.0), ("z1", 40, 42, 1.0), ("zn", 3, 5, 3.0), ("w2_real", 2, 5, 1.0),
    ("z2", 4, 6, 3.0), ("zn", 5, 6, 3.0), ("w1_real", 2, 5, 1.0), ("y1_sing", 4, 3, 0.3),
    ("yn_sing", 5, 4, 0.3)])
def test_model_cdf_matches_quadrature_oracle(stat, n, m, theta):
    # Z1 sits within O(1/n) of 0: the graded mesh must resolve both ends.
    # The oracle's arcsine substitution reaches z below the rounding of 1 - z.
    # The c.d.f. is each panel's integrated interpolant, so it carries only
    # the panel quadrature's error.
    model = sd.SpikedModel(n, m, theta, sd.STATISTICS[stat].variant)
    zs = np.array([0.002, 0.01, 0.04, 0.1, 0.3, 0.7, 0.95, 0.999])
    ref = [oracles.cdf(stat, model, z) for z in zs]
    assert np.max(np.abs(sd.model_cdf_fn(stat, model)(zs) - ref)) < 1e-8


@pytest.mark.parametrize("theta", [1e6, 1e8])
@pytest.mark.parametrize("stat,n,m", [("z1", 5, 6), ("zn", 5, 6), ("z2", 4, 5), ("y1_sing", 4, 3)])
def test_cdf_mesh_depth_follows_theta(stat, n, m, theta):
    # The laws' scale near z = 0 or 1 is about 1/(1 + theta): the end panels
    # split once more per doubling of 1 + theta beyond 2^14.
    model = sd.SpikedModel(n, m, theta, sd.STATISTICS[stat].variant)
    assert sd.model_cdf_fn(stat, model)(1.0) == pytest.approx(1.0, abs=1e-7)


def test_cdf_mesh_is_fixed_up_to_theta_1e4(monkeypatch):
    seen, real = [], sd.density_values

    def density_values(stat, model, zs):
        seen.append(zs)
        return real(stat, model, zs)

    monkeypatch.setattr(sd, "density_values", density_values)
    for theta in (0.5, 1e4):
        sd.model_cdf_fn("z1", sd.SpikedModel(5, 6, theta))
    sd.model_cdf_fn("w1_real", sd.SpikedModel(2, 5, 1e8, "real"))
    sd.model_cdf_fn("z1", sd.SpikedModel(5, 6, 1e6))
    assert [zs.size for zs in seen] == [432, 432, 432, 528]
    assert np.array_equal(seen[0], seen[1])


@pytest.mark.parametrize("stat,n,m,theta", [("z1", 10, 15, 3.0), ("w1_real", 2, 5, 1.0)])
def test_cdf_is_continuous_across_panel_edges(monkeypatch, stat, n, m, theta):
    # z_lo and z_hi are the adjacent floats whose mesh coordinates s straddle
    # an inner panel edge.  F rises between them by f(z) dz/ds (s_hi - s_lo);
    # anything beyond that is a jump between the two panels' polynomials.
    model = sd.SpikedModel(n, m, theta, sd.STATISTICS[stat].variant)
    sd.density_values(stat, model, 0.5)  # the engine's own grids are built now
    meshes, panels = [], numkit._panels
    monkeypatch.setattr(numkit, "_panels", lambda edges, k: meshes.append(edges) or panels(edges, k))
    cdf = sd.model_cdf_fn(stat, model)
    arcsine = sd.STATISTICS[stat].arcsine
    if arcsine:
        s_of, dz_ds = lambda z: np.arcsin(np.sqrt(z)), lambda s: np.sin(2.0 * s)
    else:
        s_of, dz_ds = lambda z: z, lambda s: 1.0
    (edges,) = meshes
    for edge in edges[1:-1]:
        z_lo = np.sin(edge) ** 2 if arcsine else edge
        while s_of(z_lo) >= edge:
            z_lo = np.nextafter(z_lo, 0.0)
        while s_of(np.nextafter(z_lo, 1.0)) < edge:
            z_lo = np.nextafter(z_lo, 1.0)
        z_hi = np.nextafter(z_lo, 1.0)
        rise = sd.density_values(stat, model, z_lo) * dz_ds(edge) * (s_of(z_hi) - s_of(z_lo))
        assert abs(cdf(z_hi) - cdf(z_lo) - rise) <= 1e-15


def test_nz1_asym_density_checks_the_z1_support():
    with pytest.raises(sd.UnsupportedModel):
        sd.density_values("nz1_asym", sd.SpikedModel(1, 3, 1.0), [0.5, 5.0])


def test_nz1_asym_cdf_checks_the_z1_support():
    with pytest.raises(sd.UnsupportedModel):
        sd.model_cdf_fn("nz1_asym", sd.SpikedModel(1, 3, 1.0))


@pytest.mark.parametrize("stat", ["z1", "nz1_asym"])
def test_cdf_rejects_nan(stat):
    with pytest.raises(sd.DomainError):
        sd.cdf_grid(stat, sd.SpikedModel(3, 5, 3.0), [0.1, np.nan, 0.5])


@pytest.mark.parametrize("n,alpha,theta", [(4, 2, 3.0), (6, 4, 0.5)])
def test_universal_normalization_gate(n, alpha, theta):
    # integrate_unit of the density callable is the module-level gate.
    model = sd.SpikedModel(n, n + alpha, theta)
    val = oracles.integrate_unit(lambda s: sd.pdf_z1(model, s))
    assert val == pytest.approx(1.0, abs=1e-6)


def test_haar_mean_is_one_over_n():
    for n in (3, 5, 8):
        model = sd.SpikedModel(n, n + 2, 0.0)
        zq, wq = numkit.unit_grid(48)
        mean = float(np.dot(wq, zq * sd.pdf_z1(model, zq)))
        assert mean == pytest.approx(1.0 / n, abs=1e-8)


def test_mehta_identity_hand_value():
    lhs, rhs = oracles.mehta_identity_check(1, 0, 2.0, 5.0)
    assert lhs == pytest.approx(-2.0, rel=1e-12)
    assert rhs == pytest.approx(-2.0, rel=1e-12)


@pytest.mark.parametrize("n,alpha,y,x", [(2, 1, 1.0, 3.0), (3, 2, 0.5, 2.0)])
def test_mehta_identity_brute_force(n, alpha, y, x):
    lhs, rhs = oracles.mehta_identity_check(n, alpha, y, x)
    assert lhs == pytest.approx(rhs, rel=1e-6)


def test_mehta_identity_singular_point():
    with pytest.raises(sd.DomainError):
        oracles.mehta_identity_check(2, 1, 1.0, 1.0)


def test_mehta_identity_rejects_negative_laguerre_degree():
    # alpha = n + 2 would put a Laguerre polynomial of degree -1 in the last column.
    with pytest.raises(ValueError, match="degree"):
        oracles.mehta_identity_check(1, 3, 0.7, 1.9)


@pytest.mark.parametrize("alpha", [1, 2, 3])
def test_kalpha_normalization(alpha):
    assert oracles.kalpha_normalization_check(alpha) == pytest.approx(1.0, abs=1e-8)


def test_asymptotic_consistency_of_exact_cdf():
    # Exact law of n * z1 approaches the exponential limit at n = 40.
    n, alpha, theta = 40, 2, 1.0
    model = sd.SpikedModel(n, n + alpha, theta)
    v = np.linspace(0.05, 6.0, 25)
    exact = sd.cdf_grid("z1", model, v / n)
    limit = sd.cdf_nz1_asymptotic(theta, v)
    assert np.max(np.abs(exact - limit)) < 0.02
