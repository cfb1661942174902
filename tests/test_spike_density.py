import math

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
    m = sd.SpikedModel(3, 5, 3.0)
    assert m.alpha == 2
    assert m.beta == pytest.approx(0.75)


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
    vals = sd._pdf_z1_series(n, alpha, 1e-13, ZGRID)
    haar = (n - 1.0) * (1.0 - ZGRID) ** (n - 2)
    assert np.max(np.abs(vals / haar - 1.0)) < 1e-10


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


@pytest.mark.parametrize("n,alpha,theta", [(3, 2, 3.0), (4, 1, 3.0), (2, 2, 1.0)])
def test_pdf_zn_closed_vs_generic(n, alpha, theta):
    model = sd.SpikedModel(n, n + alpha, theta)
    closed = oracles.pdf_zn_closed(model, ZGRID)
    generic = sd._pdf_zn_grid(model, ZGRID, "fine")
    assert np.max(np.abs(generic / closed - 1.0)) < 1e-6


def test_pdf_zn_generic_vs_adaptive_reference():
    # The grid engine against the fully adaptive nested-quadrature route.
    model = sd.SpikedModel(3, 4, 1.0)
    z = 0.4
    grid_val = float(sd._pdf_zn_grid(model, np.array([z]), "fine")[0])
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
    total = float(np.dot(wq, sd.pdf_z2(model, zq, preset="fast")))
    assert total == pytest.approx(1.0, abs=1e-4)


def test_pdf_z2_normalization_large_theta():
    # theta > 999 once floored the decay rate, truncating the x and w grids.
    model = sd.SpikedModel(4, 5, 1e4)
    zq, wq = numkit.unit_grid(12, grade_left=16, grade_right=16)
    total = float(np.dot(wq, sd.pdf_z2(model, zq, preset="fast")))
    assert total == pytest.approx(1.0, abs=1e-4)


def test_pdf_zn_normalization_large_theta():
    # At theta = 1e4 the x grid reaches about 1e6; the moment series still
    # fits (about 130 terms), since its length follows the t weight, not x.
    model = sd.SpikedModel(5, 6, 1e4)
    zq, wq = numkit.unit_grid(12, grade_left=16, grade_right=16)
    total = float(np.dot(wq, sd.pdf_zn(model, zq, preset="fast")))
    assert total == pytest.approx(1.0, abs=1e-6)


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
    flat = sd.density_values(stat, SHAPE_MODELS[stat], z.ravel(), preset="fast")
    grid = sd.density_values(stat, SHAPE_MODELS[stat], z, preset="fast")
    assert grid.shape == z.shape
    assert np.array_equal(grid, flat.reshape(z.shape))


@pytest.mark.parametrize("preset", ["fast", "fine"])
@pytest.mark.parametrize(
    "n,m,theta,tol",
    [(5, 6, 3.0, 1e-12), (7, 9, 3.0, 1e-12), (8, 12, 10.0, 1e-12), (5, 6, 0.1, 1e-12),
     # x reaches 1e6: exponents r log(beta x) near 1,800 carry ~4e-13 rounding.
     (5, 6, 1e4, 1e-11)],
)
def test_zn_series_matches_loop(n, m, theta, tol, preset):
    model = sd.SpikedModel(n, m, theta)
    zs = np.concatenate([np.linspace(0.0, 0.95, 20), 1.0 - np.geomspace(1e-6, 0.04, 12)])
    assert isinstance(sd._zn_prepare(model, preset), numkit.HalfLineSeries)
    loop = oracles.pdf_zn_loop(model, zs, preset)
    series = sd._pdf_zn_grid(model, zs, preset)
    assert np.max(np.abs(series - loop)) <= tol * np.max(loop)


def test_zn_unbounded_series_raises():
    # At theta = 1e15 the orthogonal basis breaks down (non-finite norms), so
    # the kernel cannot bound the moment series: an error, not a zero density.
    sd._zn_prepare.cache_clear()
    with np.errstate(all="ignore"), pytest.raises(ArithmeticError):
        sd.pdf_zn(sd.SpikedModel(5, 6, 1e15), np.linspace(0.05, 0.95, 7), preset="fast")


def test_zn_series_chunks_do_not_interact():
    model = sd.SpikedModel(5, 6, 3.0)
    zs = np.linspace(0.0, 1.0, 1001)
    whole = sd._pdf_zn_grid(model, zs, "fast")
    pieces = np.concatenate([sd._pdf_zn_grid(model, zs[i : i + 7], "fast") for i in range(0, zs.size, 7)])
    assert np.max(np.abs(whole - pieces)) <= 1e-14 * np.max(whole)


def test_clip_density_rejects_non_finite():
    with pytest.raises(ArithmeticError):
        sd._clip_density(np.array([1.0, math.nan, 0.5]))
    with pytest.raises(ArithmeticError):
        sd._clip_density(np.array([1.0, math.inf]))


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


@pytest.mark.parametrize("stat,n,m,theta", [("z1", 10, 15, 3.0), ("z1", 40, 42, 1.0),
                                            ("zn", 3, 5, 3.0)])
def test_model_cdf_matches_quadrature_oracle(stat, n, m, theta):
    # Z1 sits within O(1/n) of 0: the graded mesh must resolve both ends.
    model = sd.SpikedModel(n, m, theta)
    zs = np.array([0.002, 0.01, 0.04, 0.1, 0.3, 0.7, 0.95, 0.999])
    ref = [oracles.cdf(stat, model, z) for z in zs]
    assert np.max(np.abs(sd.model_cdf_fn(stat, model)(zs) - ref)) < 1e-4


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
