"""Property tests over drawn inputs (hypothesis, deterministic profile)."""

import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from spiked_eigvec import montecarlo as mc, numkit, spike_density as sd, variant_density as vd

Z2_MODEL = sd.SpikedModel(3, 4, 3.0)
unit_z = st.floats(0.0, 1.0, allow_nan=False)
# Graded toward both ends: at large theta the z1 mass sits within O(1/theta) of 0.
MASS_Z, MASS_W = numkit.unit_grid(12, grade_left=16, grade_right=16)


@lru_cache(maxsize=1)
def _z2_peak() -> float:
    return float(np.max(sd.pdf_z2(Z2_MODEL, np.linspace(0.0, 1.0, 1001))))


@settings(max_examples=50)
@given(arrays(float, st.integers(1, 40), elements=unit_z))
def test_z2_array_equals_pointwise(zs):
    # Each z reads the Chebyshev panel it falls in; no point may depend on
    # which others share its call.
    whole = sd.pdf_z2(Z2_MODEL, zs)
    alone = np.array([sd.pdf_z2(Z2_MODEL, z) for z in zs])
    assert np.max(np.abs(whole - alone)) <= 1e-14 * _z2_peak()


@given(st.floats(0.5, 1.0, exclude_max=True), st.sampled_from([3, 5, 30]),
       st.sampled_from([0.0, 1.0, 1e3]))
def test_w2_real_mirrors_w1(z, m, theta):
    # For z in [0.5, 1), 1 - z is exact, so the mirror is bit for bit.
    model = sd.SpikedModel(2, m, theta, "real")
    assert vd.pdf_w2_real(model, z) == vd.pdf_w1_real(model, 1.0 - z)


# n = 2 has no alpha limit, but theta = 1e8 overflows from alpha = 34 on, so
# the draws stop at alpha = 40 and theta = 1e4.
n2_models = st.builds(lambda alpha, theta: sd.SpikedModel(2, 2 + alpha, theta),
                      st.integers(0, 40), st.floats(1e-3, 1e4))


@given(st.floats(0.5, 1.0, exclude_max=True), n2_models)
def test_zn_n2_mirrors_z1(z, model):
    # At n = 2 zn is z1 reflected; for z in [0.5, 1), 1 - z is exact, so the
    # mirror is bit for bit.
    assert sd.pdf_zn(model, z) == sd.pdf_z1(model, 1.0 - z)


@settings(max_examples=60)
@given(n2_models)
def test_z1_n2_is_a_density(model):
    # MASS_Z's 2^-16 end panel resolves the O(1/theta) mass up to theta = 1e4.
    vals = sd.pdf_z1(model, MASS_Z)
    assert np.all(np.isfinite(vals)) and np.all(vals >= 0.0)
    assert abs(float(MASS_W @ vals) - 1.0) <= 1e-6


@settings(max_examples=100)
@given(st.integers(2, 12), st.integers(0, 6), st.floats(0.01, 100.0))
def test_z1_is_a_density(n, alpha, theta):
    vals = sd.pdf_z1(sd.SpikedModel(n, n + alpha, theta), MASS_Z)
    assert np.all(np.isfinite(vals)) and np.all(vals >= 0.0)
    assert abs(float(MASS_W @ vals) - 1.0) <= 1e-6


@settings(max_examples=40)
@given(st.integers(0, 10), st.floats(0.01, 1e4))
def test_zn_n3_is_a_density(alpha, theta):
    # n = 3 runs on the moment series at every theta, including theta = 1e4,
    # where the closed F2 form runs out of terms.
    vals = sd.pdf_zn(sd.SpikedModel(3, 3 + alpha, theta), MASS_Z)
    assert np.all(np.isfinite(vals)) and np.all(vals >= 0.0)
    assert abs(float(MASS_W @ vals) - 1.0) <= 1e-8


@settings(max_examples=40)
@given(st.sampled_from([vd.pdf_y1_singular, vd.pdf_yn_singular]), st.integers(2, 12),
       st.floats(0.01, 1e4))
def test_singular_nm1_is_a_density(pdf, m, theta):
    vals = pdf(sd.SpikedModel(m + 1, m, theta, "singular"), MASS_Z)
    assert np.all(np.isfinite(vals)) and np.all(vals >= 0.0)
    assert abs(float(MASS_W @ vals) - 1.0) <= 1e-9


@st.composite
def sampled_models(draw):
    variant = draw(st.sampled_from(["complex", "real", "singular"]))
    if variant == "singular":
        n = draw(st.integers(2, 40))
        m = draw(st.integers(1, n - 1))
    else:
        n = draw(st.integers(1, 40))
        m = n + draw(st.integers(0, 10))
    return sd.SpikedModel(n, m, draw(st.floats(0.0, 1e6)), variant)


@settings(max_examples=60)
@given(sampled_models(), st.integers(0, 2**32))
def test_sampled_rows_are_overlaps(model, seed):
    rows = mc._chunk_projections(model, seed=seed, start=0, stop=64)
    assert np.all(np.isfinite(rows)) and np.all((rows >= 0.0) & (rows <= 1.0))
    sums = rows.sum(axis=1)
    if model.variant == "singular":
        assert np.all(sums < 1.0)
    else:
        assert np.max(np.abs(sums - 1.0)) <= 1e-12


@settings(max_examples=200)
@given(st.integers(1, 30).flatmap(lambda size: st.tuples(
    st.integers(0, 2**32), st.lists(st.booleans(), min_size=size - 1, max_size=size - 1))))
def test_gauss_weights_of_graded_gram_tridiagonals(draw):
    # T = B B^T for a lower bidiagonal B whose squared entries are log-uniform
    # over ten decades; a True in `split` zeroes a subdiagonal entry of B, and
    # so b2 there.  Every warning is an error here.
    seed, split = draw
    rng = np.random.default_rng(seed)
    d2 = 10.0 ** rng.uniform(-5.0, 5.0, len(split) + 1)
    s2 = np.where(split, 0.0, 10.0 ** rng.uniform(-5.0, 5.0, len(split)))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mc, "_tridiagonal", lambda *args: (d2[None], s2[None]))
        rows = mc._chunk_projections(sd.SpikedModel(d2.size, d2.size, 0.0), seed=0, start=0, stop=1)
    assert np.all((rows >= 0.0) & (rows <= 1.0))
    assert abs(rows.sum() - 1.0) <= 1e-13


@settings(max_examples=100)
@given(st.integers(1, 20), st.integers(1, 2), st.booleans(), st.integers(0, 2**32))
def test_eigenvalues_match_eigvalsh(block, copies, singular, seed):
    # Every eigenvalue of a Gram T = L L^T of size 1-40.  Squares of L spread over
    # six decades, some subdiagonal squares are exactly 0, a repeated block gives
    # repeated eigenvalues, and a final q of 0 gives the singular variant's exact 0.
    rng = np.random.default_rng(seed)
    q = np.tile(10.0 ** rng.uniform(-3.0, 3.0, block), copies)
    e = np.append(np.tile(np.append(10.0 ** rng.uniform(-3.0, 3.0, block - 1), 0.0), copies)[:-1], [])
    e[rng.random(e.size) < 0.2] = 0.0
    if singular:
        q[-1] = 0.0
    size = q.size
    low = np.diag(np.sqrt(q)) + np.diag(np.sqrt(e), -1)
    want = np.linalg.eigvalsh(low @ low.T)
    got = mc._eigenvalues(q[None], e[None], tuple(range(size)))[0]
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(want)


@settings(max_examples=100)
@given(st.integers(1, 200), st.floats(-6.0, 6.0), st.floats(0.0, 12.0), st.floats(-12.0, 8.0),
       st.integers(0, 2**32))
def test_cauchy_proxies_match_the_exact_sum(size, low, decades, log_w, seed):
    # Sources over up to 12 decades with signed weights over 10, against an exactly
    # rounded direct sum, at w = 0 and at w = 10^log_w.
    rng = np.random.default_rng(seed)
    u = 10.0 ** (low + decades * rng.random(size))
    q = rng.standard_normal(size) * 10.0 ** rng.uniform(-5.0, 5.0, size)
    uk, qk = numkit.cauchy_proxies(u, q)
    for w in (0.0, 10.0**log_w):
        exact = math.fsum(q / (w + u))
        assert abs(np.sum(qk / (w + uk)) - exact) <= 1e-14 * np.sum(np.abs(q) / (w + u))
