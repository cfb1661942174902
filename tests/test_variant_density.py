import math

import numpy as np
import pytest

from spiked_eigvec import numkit, spike_density as sd, variant_density as vd

import oracles

Z = np.array([0.05, 0.25, 0.5, 0.75, 0.95])


def _norm_real(model):
    phi, w = numkit.gauss_legendre_panel(0.0, math.pi / 2.0, 256)
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


def test_y1_nm1_theta_zero_pole():
    with pytest.raises(sd.ThetaZeroSingularity):
        vd.pdf_y1_singular(sd.SpikedModel(4, 3, 0.0, "singular"), 0.5)


def test_y1_rejects_deep_rank_gap():
    with pytest.raises(sd.UnsupportedModel):
        vd.pdf_y1_singular(sd.SpikedModel(5, 3, 1.0, "singular"), 0.5)


@pytest.mark.parametrize("n,theta", [(3, 0.3), (4, 0.3), (6, 1.0)])
def test_yn_normalization(n, theta):
    # n = 3 exercises the empty-determinant (m = 2) convention.
    model = sd.SpikedModel(n, n - 1, theta, "singular")
    zq, wq = numkit.unit_grid(32, grade_left=2, grade_right=2)
    total = float(np.dot(wq, vd.pdf_yn_singular(model, zq, preset="fast")))
    assert total == pytest.approx(1.0, abs=1e-5)


def test_yn_preconditions():
    with pytest.raises(sd.UnsupportedModel):
        vd.pdf_yn_singular(sd.SpikedModel(5, 3, 1.0, "singular"), 0.5)
    with pytest.raises(sd.ThetaZeroSingularity):
        vd.pdf_yn_singular(sd.SpikedModel(4, 3, 0.0, "singular"), 0.5)


@pytest.mark.parametrize("preset", ["fast", "fine"])
@pytest.mark.parametrize(
    "n,theta,tol",
    # At theta = 300 the Hankel term cancels the kernel sum to ~1e-14 near
    # z = 1; the loop's own fast-vs-fine spread there is 1.7e-9.
    [(5, 0.3, 1e-9), (4, 0.1, 1e-9), (4, 300.0, 1e-8)],
)
def test_yn_series_matches_loop(n, theta, tol, preset):
    model = sd.SpikedModel(n, n - 1, theta, "singular")
    zs = np.concatenate([np.linspace(0.0, 0.95, 20), 1.0 - np.geomspace(1e-6, 0.04, 12)])
    assert isinstance(vd._yn_prepare(model, preset), numkit.HalfLineSeries)
    loop = oracles.pdf_yn_loop(model, zs, preset)
    series = vd._pdf_yn_grid(model, zs, preset)
    assert np.max(np.abs(series - loop)) <= tol * np.max(loop)


def test_yn_series_chunks_do_not_interact():
    model = sd.SpikedModel(5, 4, 0.3, "singular")
    zs = np.linspace(0.0, 1.0, 1001)
    whole = vd._pdf_yn_grid(model, zs, "fast")
    pieces = np.concatenate([vd._pdf_yn_grid(model, zs[i : i + 7], "fast") for i in range(0, zs.size, 7)])
    assert np.max(np.abs(whole - pieces)) <= 1e-14 * np.max(whole)
