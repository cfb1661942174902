import math

import numpy as np
import pytest

from spiked_eigvec import numkit, spike_density as sd, variant_density as vd

import oracles

Z = np.array([0.05, 0.25, 0.5, 0.75, 0.95])


def _norm_real(model):
    phi, w = numkit._panels([0.0, math.pi / 2.0], 256)
    return float(np.dot(w, vd.pdf_w1_real(model, np.sin(phi) ** 2) * np.sin(2 * phi)))


def test_w1_arcsine_at_theta_zero():
    model = sd.SpikedModel(2, 2, 0.0, "real")
    expected = 1.0 / (math.pi * np.sqrt(Z * (1.0 - Z)))
    assert np.max(np.abs(vd.pdf_w1_real(model, Z) / expected - 1.0)) < 1e-12


def test_w1_arcsine_symmetry():
    model = sd.SpikedModel(2, 2, 0.0, "real")
    zs = np.linspace(0.01, 0.49, 100)
    assert np.max(np.abs(vd.pdf_w1_real(model, zs) - vd.pdf_w1_real(model, 1.0 - zs))) < 1e-10


@pytest.mark.parametrize("m,theta", [(5, 2.0), (4, 1.0), (8, 10.0), (2, 0.0)])
def test_w1_normalization(m, theta):
    model = sd.SpikedModel(2, m, theta, "real")
    assert _norm_real(model) == pytest.approx(1.0, abs=1e-6)


def _w1_exact(m, theta, z):
    """The printed 2F1 form of w1_real at an mpmath z, as a float."""
    import mpmath

    mm, th = mpmath.mpf(m), mpmath.mpf(theta)
    beta = th / (1 + th)
    u = (1 - beta * z) / (1 - beta * (1 - z))
    h1 = mpmath.hyp2f1(mm, (mm - 1) / 2, (mm + 1) / 2, -u)
    h2 = mpmath.hyp2f1(mm, (mm + 1) / 2, (mm + 3) / 2, -u)
    pref = 2 ** (mm - 1) * (mm - 1) / (mpmath.pi * (1 + th) ** (mm / 2))
    return float(pref / mpmath.sqrt(z * (1 - z)) * (1 - beta * (1 - z)) ** (-mm)
                 * (h1 / (mm - 1) - h2 / (mm + 1)))


@pytest.mark.parametrize("m", [3, 60, 200])
@pytest.mark.parametrize("theta", [1.0, 1e6])
def test_w1_matches_mpmath(m, theta):
    # The incomplete-beta form against the printed 2F1 form in 50 digits, up
    # to 1e-12 from each end; below 1e-300 the exact density underflows.
    import mpmath

    zs = np.concatenate([[1e-12, 1e-9, 1e-6, 1e-3], np.linspace(0.05, 0.95, 7),
                         [1 - 1e-3, 1 - 1e-6, 1 - 1e-9, 1 - 1e-12]])
    with mpmath.workdps(50):
        ref = np.array([_w1_exact(m, theta, mpmath.mpf(z)) for z in zs])
    got = vd.pdf_w1_real(sd.SpikedModel(2, m, theta, "real"), zs)
    assert np.all(np.abs(got - ref) <= 1e-12 * ref + 1e-300)


@pytest.mark.parametrize("theta", [1.0, 1e3])
def test_w2_matches_mpmath_near_zero(theta):
    # w2 at z is w1 at 1 - z taken exactly; 1 - z rounds to 1 below 1.1e-16.
    import mpmath

    zs = np.array([1e-17, 1e-12, 1e-9, 1e-6, 1e-3, 0.02, 0.04])
    with mpmath.workdps(50):
        ref = np.array([_w1_exact(5, theta, 1 - mpmath.mpf(z)) for z in zs])
    got = vd.pdf_w2_real(sd.SpikedModel(2, 5, theta, "real"), zs)
    assert np.all(np.abs(got - ref) <= 1e-12 * ref)


def test_w2_is_reflection():
    model = sd.SpikedModel(2, 4, 1.0, "real")
    assert np.array_equal(vd.pdf_w2_real(model, Z), vd.pdf_w1_real(model, 1.0 - Z))
    m2 = sd.SpikedModel(2, 2, 0.0, "real")
    assert vd.pdf_w2_real(m2, 0.5) == pytest.approx(vd.pdf_w1_real(m2, 0.5), rel=1e-14)


def test_w1_rejects_bad_models():
    with pytest.raises(sd.UnsupportedModel):
        vd.pdf_w1_real(sd.SpikedModel(3, 5, 1.0, "real"), 0.5)
    with pytest.raises(sd.UnsupportedModel):
        vd.pdf_w1_real(sd.SpikedModel(2, 4, 1.0, "complex"), 0.5)
    # The z^(-1/2) (1-z)^(-1/2) endpoints lie outside the open support.
    for pdf in (vd.pdf_w1_real, vd.pdf_w2_real):
        for z in (0.0, 1.0):
            with pytest.raises(sd.DomainError, match="strictly inside"):
                pdf(sd.SpikedModel(2, 5, 1.0, "real"), z)


def test_y1_m1_haar_reduction():
    model = sd.SpikedModel(4, 1, 0.0, "singular")
    assert np.max(np.abs(vd.pdf_y1_singular(model, Z) - 3.0 * (1.0 - Z) ** 2)) < 1e-12


def test_y1_m1_point_value():
    model = sd.SpikedModel(3, 1, 1.0, "singular")
    assert vd.pdf_y1_singular(model, 0.0) == pytest.approx(1.0, rel=1e-14)


@pytest.mark.parametrize("n,theta", [(3, 1.0), (5, 0.3), (7, 10.0)])
def test_y1_nm1_normalization(n, theta):
    model = sd.SpikedModel(n, n - 1, theta, "singular")
    val = oracles.integrate_unit(lambda s: vd.pdf_y1_singular(model, s))
    assert val == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("m", [3, 9])
def test_y1_nm1_theta_zero_is_haar(m):
    # The summed form has no pole: theta = 0 gives the Haar density.
    zs = np.linspace(0.0, 1.0, 21)
    got = vd.pdf_y1_singular(sd.SpikedModel(m + 1, m, 0.0, "singular"), zs)
    assert np.max(np.abs(got - m * (1.0 - zs) ** (m - 1))) <= 1e-14


def _y1_paper_sum(m, theta, z):
    """The paper's n - m = 1 double sum, with its beta^(1-m) pole, in mpmath."""
    import mpmath

    beta = mpmath.mpf(theta) / (1 + mpmath.mpf(theta))
    acc = (-1) ** (m - 1) / (m - beta * z) ** 2
    for ell in range(m - 1):
        for k in range(m - 1 - ell):
            coef = (mpmath.factorial(m - ell) * beta ** (m - 2 - ell) / (k + 2)
                    / (mpmath.factorial(k) * mpmath.factorial(m - 2 - ell - k) * (m - beta) ** (k + 2)))
            acc += (-1) ** ell * coef * (1 - z) ** (m - 2 - ell) / (1 - (1 - z) * beta) ** (m - ell + 1)
    return m * (1 - beta) ** m / beta ** (m - 1) * acc


@pytest.mark.parametrize("m", [2, 5, 9, 12])
@pytest.mark.parametrize("theta", [1e-4, 0.01, 0.3, 100.0, 1e6])
def test_y1_nm1_matches_paper_sum(m, theta):
    # 200 digits absorb the pole's cancellation (44 digits at m = 12, theta = 1e-4).
    import mpmath

    zs = np.array([0.0, 0.1, 0.5, 0.9, 1.0 - 1e-6])
    with mpmath.workdps(200):
        ref = np.array([float(_y1_paper_sum(m, theta, mpmath.mpf(z))) for z in zs])
    got = vd.pdf_y1_singular(sd.SpikedModel(m + 1, m, theta, "singular"), zs)
    assert np.all(np.abs(got - ref) <= 1e-13 * ref)


def test_y1_rejects_deep_rank_gap():
    with pytest.raises(sd.UnsupportedModel):
        vd.pdf_y1_singular(sd.SpikedModel(5, 3, 1.0, "singular"), 0.5)


@pytest.mark.parametrize("n,theta", [(3, 0.3), (4, 0.3), (6, 1.0)])
def test_yn_normalization(n, theta):
    # n = 3 exercises the empty-determinant (m = 2) convention.
    model = sd.SpikedModel(n, n - 1, theta, "singular")
    zq, wq = numkit.unit_grid(32, grade_left=2, grade_right=2)
    total = float(np.dot(wq, vd.pdf_yn_singular(model, zq)))
    assert total == pytest.approx(1.0, abs=1e-5)


@pytest.mark.parametrize("n,theta", [
    # The paper's bracket cancels a Hankel term against the kernel sum; here
    # that cancellation gave masses from 0.9954 to 1.378.
    (3, 1e4), (4, 1e4), (5, 1e4), (6, 300.0), (6, 1e3), (7, 0.01), (7, 300.0), (8, 0.01), (8, 30.0),
    # The series starts at r = m - 1, where (beta x)^r / r! is far below 1.
    (10, 1e-3), (13, 1e-3), (13, 0.01),
])
def test_yn_mass_on_a_graded_grid(n, theta):
    model = sd.SpikedModel(n, n - 1, theta, "singular")
    zq, wq = numkit.unit_grid(16, 24, 24)
    assert abs(float(np.dot(wq, vd.pdf_yn_singular(model, zq))) - 1.0) <= 1e-10


@pytest.mark.parametrize("n", [4, 5, 6])
def test_yn_mass_at_theta_1e8(n):
    # The outer weight is e^{-beta x (1-z)} on its value at z = 1; formed from
    # terms of size x (1e10 here) the mass missed by up to 2e-8.
    theta = 1e8
    zq, wq = numkit.unit_grid(16, 20, math.ceil(math.log2(1.0 + theta)) + 12)
    total = float(np.dot(wq, vd.pdf_yn_singular(sd.SpikedModel(n, n - 1, theta, "singular"), zq)))
    assert abs(total - 1.0) <= 2e-9


@pytest.mark.parametrize("m", range(2, 9))
def test_yn_hankel_term_is_minus_the_kernel_moment(m):
    # det[A^(0)] on the engine grid against the r = 0 moment of the power-1
    # kernel that the series leaves out, node by node.
    prep = vd._yn_basis(sd.SpikedModel(m + 1, m, 1.0, "singular"))
    x, t = prep["x"], prep["t"]
    log_a0 = numkit.discrete_orthogonal_basis(x, t, prep["wt"], 0.0, m - 1)[0]
    hankel = (-1.0) ** (m - 1) * np.exp(log_a0)
    moment = np.exp(prep["log_norm"] + prep["shift"]) * np.sum(
        np.exp(prep["logwq"] - np.log(t)) * prep["p_deg"], axis=1)
    assert np.max(np.abs(hankel + moment) / np.abs(hankel)) <= 1e-12


def test_yn_preconditions():
    with pytest.raises(sd.UnsupportedModel):
        vd.pdf_yn_singular(sd.SpikedModel(5, 3, 1.0, "singular"), 0.5)
    with pytest.raises(sd.ThetaZeroSingularity):
        vd.pdf_yn_singular(sd.SpikedModel(4, 3, 0.0, "singular"), 0.5)


@pytest.mark.parametrize(
    "n,theta,tol",
    # The loop keeps the paper's Hankel term, which cancels the kernel sum to
    # ~1e-14 near z = 1 at theta = 300; a finer (x, t) grid moves the loop
    # itself by 1.7e-9 there.
    [(5, 0.3, 1e-9), (4, 0.1, 1e-9), (4, 300.0, 1e-8)],
)
def test_yn_series_matches_loop(n, theta, tol):
    model = sd.SpikedModel(n, n - 1, theta, "singular")
    zs = np.concatenate([np.linspace(0.0, 0.95, 20), 1.0 - np.geomspace(1e-6, 0.04, 12)])
    assert isinstance(sd._engine("yn_sing", model), numkit.HalfLineSeries)
    loop = oracles.pdf_yn_loop(model, zs)
    series = sd._engine("yn_sing", model)(zs)
    assert np.max(np.abs(series - loop)) <= tol * np.max(loop)


def test_yn_series_chunks_do_not_interact():
    model = sd.SpikedModel(5, 4, 0.3, "singular")
    zs = np.linspace(0.0, 1.0, 1001)
    engine = sd._engine("yn_sing", model)
    whole = engine(zs)
    pieces = np.concatenate([engine(zs[i : i + 7]) for i in range(0, zs.size, 7)])
    assert np.max(np.abs(whole - pieces)) <= 1e-14 * np.max(whole)
