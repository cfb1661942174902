import numpy as np
import pytest
from scipy.stats import ks_2samp

from spiked_eigvec import montecarlo as mc, numkit, spike_density as sd

import oracles

# Two-sample KS gate of the tridiagonal sampler against the dense oracle:
# a correct sampler misses it with chance 1e-3 per statistic.
TWO_SAMPLE_ALPHA = 1e-3


def test_make_spike_first_basis():
    v = mc.make_spike(3, 0, "first_basis")
    assert np.array_equal(v, np.array([1.0, 0.0, 0.0], dtype=complex))


def test_make_spike_random_unit_norm():
    v = mc.make_spike(5, 7, "random")
    assert abs(np.linalg.norm(v) - 1.0) < 1e-12
    again = mc.make_spike(5, 7, "random")
    assert np.array_equal(v, again)
    w = mc.make_spike(5, 7, "random", real=True)
    assert w.dtype == np.float64 and abs(np.linalg.norm(w) - 1.0) < 1e-12
    assert np.array_equal(w, mc.make_spike(5, 7, "random", real=True))


@pytest.mark.parametrize("call,match", [
    (lambda: mc.sample_wishart(sd.SpikedModel(3, 5, 1.0), mc.make_spike(4), seed=1, count=10),
     "does not match"),
    (lambda: mc.sample_wishart(sd.SpikedModel(3, 5, 1.0), 2.0 * mc.make_spike(3), seed=1, count=10),
     "unit norm"),
    (lambda: mc.sample_wishart(sd.SpikedModel(3, 5, 1.0), mc.make_spike(3), seed=1, count=10,
                               statistics=("w1_real",)), "not sampled"),
    (lambda: mc.make_spike(0), "must be positive"),
], ids=["spike_length", "spike_norm", "other_variant_statistic", "zero_dimension"])
def test_sampler_rejects_bad_input(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def test_make_spike_rejects_unknown_style():
    with pytest.raises(ValueError):
        mc.make_spike(3, 0, "diagonal")


def test_eigh_diagonal():
    es = oracles.eigh(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(es.eigenvalues, [1.0, 2.0, 3.0])
    perm = np.abs(es.eigenvectors)
    assert np.allclose(np.sort(perm, axis=0)[-1], 1.0)


def test_eigh_identity_degenerate():
    es = oracles.eigh(np.eye(4))
    assert np.allclose(es.eigenvalues, 1.0)
    resid = np.eye(4) @ es.eigenvectors - es.eigenvectors
    assert np.linalg.norm(resid) < 1e-9


def test_eigh_reconstruction():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    w = a @ a.conj().T
    es = oracles.eigh(w)
    rebuilt = es.eigenvectors @ np.diag(es.eigenvalues) @ es.eigenvectors.conj().T
    assert np.linalg.norm(rebuilt - w) < 1e-9 * np.linalg.norm(w)
    gram = es.eigenvectors.conj().T @ es.eigenvectors
    assert np.max(np.abs(gram - np.eye(6))) < 1e-10
    assert np.all(np.diff(es.eigenvalues) >= -1e-12)


def test_eigh_rejects_non_hermitian():
    with pytest.raises(ValueError):
        oracles.eigh(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_sample_reproducibility_and_workers():
    model = sd.SpikedModel(4, 6, 2.0)
    spike = mc.make_spike(4, 0)
    a = mc.sample_wishart(model, spike, seed=42, count=4000, workers=1)
    b = mc.sample_wishart(model, spike, seed=42, count=4000, workers=4)
    for stat in a:
        assert np.array_equal(a[stat], b[stat])
    c = mc.sample_wishart(model, spike, seed=43, count=4000)
    assert not np.array_equal(a["z1"], c["z1"])


def test_sample_values_in_unit_interval():
    model = sd.SpikedModel(3, 5, 3.0)
    batches = mc.sample_wishart(model, mc.make_spike(3, 0), seed=1, count=2000)
    for values in batches.values():
        assert np.all(values >= 0.0) and np.all(values <= 1.0)


@pytest.mark.parametrize(
    "n,m,variant,keys",
    [
        # At n = 2 the second-smallest eigenvector is the largest one.
        (2, 4, "complex", ("z1", "zn")),
        (3, 5, "complex", ("z1", "z2", "zn")),
        (2, 4, "real", ("w1_real", "w2_real")),
        (4, 3, "singular", ("y1_sing", "yn_sing")),
        (4, 1, "singular", ("y1_sing", "yn_sing")),
    ],
)
def test_default_statistics(n, m, variant, keys):
    model = sd.SpikedModel(n, m, 1.0, variant)
    spike = mc.make_spike(n, 0, real=variant == "real")
    assert tuple(mc.sample_wishart(model, spike, seed=3, count=8)) == keys


def test_limit_law_draws_are_n_times_its_column():
    model = sd.SpikedModel(30, 32, 0.5)
    draws = mc.sample_wishart(model, mc.make_spike(30), 7, 3000, statistics=("z1", "nz1_asym"))
    assert np.array_equal(draws["nz1_asym"], 30 * draws["z1"])


def test_top_column_is_not_sampled_as_z2():
    # At n = 2 column 1 is the largest eigenvector: z2 would repeat zn.
    model = sd.SpikedModel(2, 4, 1.0)
    with pytest.raises(ValueError, match="not sampled"):
        mc.sample_wishart(model, mc.make_spike(2), seed=1, count=5, statistics=("z2",))


def test_per_draw_projection_sum():
    model = sd.SpikedModel(5, 7, 3.0)
    proj = mc._chunk_projections(model, seed=9, start=0, stop=500)
    assert np.max(np.abs(proj.sum(axis=1) - 1.0)) < 1e-10


def test_singular_rank_and_support():
    model = sd.SpikedModel(5, 3, 1.0, "singular")
    proj = mc._chunk_projections(model, seed=9, start=0, stop=200)
    assert proj.shape == (200, 3)
    # rank-m system: total projection mass on the positive eigenspace < 1
    assert np.all(proj.sum(axis=1) < 1.0)


def test_haar_mean():
    model = sd.SpikedModel(4, 6, 0.0)
    batches = mc.sample_wishart(model, mc.make_spike(4, 0), seed=21, count=20_000)
    for stat in ("z1", "z2", "zn"):
        mean = batches[stat].mean()
        # E = 1/4, sd of the mean ~ sqrt(var)/sqrt(N) with var < 0.05
        assert abs(mean - 0.25) < 3.0 * 0.2 / np.sqrt(20_000)


def test_haar_z1_beta_law():
    n = 6
    model = sd.SpikedModel(n, n + 2, 0.0)
    batches = mc.sample_wishart(model, mc.make_spike(n, 0), seed=3, count=20_000,
                                statistics=("z1",))
    cdf = lambda z: 1.0 - (1.0 - np.asarray(z, dtype=float)) ** (n - 1)
    rep = numkit.ks_test(batches["z1"], cdf)
    assert rep.passed


def test_spike_invariance_two_sample():
    # Distributions must agree between basis and random spikes (5% two-sample KS).
    # The tridiagonal route never reads the spike, so this compares two seeds;
    # the dense oracle carries the invariance check (test_matches_dense_oracle).
    model = sd.SpikedModel(4, 6, 2.0)
    count = 50_000
    a = mc.sample_wishart(model, mc.make_spike(4, 0, "first_basis"), seed=5, count=count)
    b = mc.sample_wishart(model, mc.make_spike(4, 17, "random"), seed=6, count=count)
    for stat in ("z1", "zn"):
        x = np.sort(a[stat])
        y = np.sort(b[stat])
        grid = np.concatenate([x, y])
        fx = np.searchsorted(x, grid, side="right") / count
        fy = np.searchsorted(y, grid, side="right") / count
        d = np.max(np.abs(fx - fy))
        crit = 1.358 * np.sqrt(2.0 / count)
        assert d <= crit


def test_invalid_count():
    model = sd.SpikedModel(3, 5, 1.0)
    with pytest.raises(mc.InvalidCount):
        mc.sample_wishart(model, mc.make_spike(3, 0), seed=1, count=0)


def test_real_variant_needs_real_spike():
    model = sd.SpikedModel(2, 4, 1.0, "real")
    with pytest.raises(ValueError):
        mc.sample_wishart(model, mc.make_spike(2, 0), seed=1, count=10)
    ok = mc.sample_wishart(model, mc.make_spike(2, 0, real=True), seed=1, count=10)
    assert set(ok) == {"w1_real", "w2_real"}


def _dense_oracle(model, spike, seed, count):
    return np.concatenate([
        oracles.chunk_projections_dense(model, spike, seed, a, min(a + mc.CHUNK_SIZE, count))
        for a in range(0, count, mc.CHUNK_SIZE)
    ])


@pytest.mark.parametrize(
    "n,m,theta,variant,stats,count,style",
    [
        (30, 32, 1.0, "complex", ("z1", "z2", "zn"), 8192, "first_basis"),
        (4, 6, 3.0, "complex", ("z1", "z2", "zn"), 20_000, "first_basis"),
        (2, 5, 1.0, "real", ("w1_real", "w2_real"), 20_000, "first_basis"),
        (4, 3, 0.3, "singular", ("y1_sing", "yn_sing"), 20_000, "first_basis"),
        (3, 1, 1.0, "singular", ("y1_sing",), 20_000, "first_basis"),
        # The dense oracle projects a random spike draw by draw: the law of
        # the overlaps must not depend on the spike direction.
        (4, 6, 3.0, "complex", ("z1", "z2", "zn"), 20_000, "random"),
    ],
)
def test_matches_dense_oracle(n, m, theta, variant, stats, count, style):
    model = sd.SpikedModel(n, m, theta, variant)
    real = variant == "real"
    fast = mc.sample_wishart(model, mc.make_spike(n, 0, real=real), seed=11, count=count, statistics=stats)
    dense = _dense_oracle(model, mc.make_spike(n, 29, style, real=real), seed=12, count=count)
    for stat in stats:
        p = ks_2samp(fast[stat], dense[:, sd.STATISTICS[stat].column]).pvalue
        assert p >= TWO_SAMPLE_ALPHA, f"{stat} {model}: two-sample KS p = {p:.2e}"


@pytest.mark.parametrize("variant", ["complex", "real"])
def test_one_dimension_is_exactly_one(variant):
    model = sd.SpikedModel(1, 3, 2.0, variant)
    batches = mc.sample_wishart(model, mc.make_spike(1, 0, real=variant == "real"), seed=4, count=50)
    for values in batches.values():
        assert np.array_equal(values, np.ones(50))


@pytest.mark.parametrize(
    "n,m,theta,variant",
    [
        (30, 32, 1.0, "complex"),
        (30, 30, 10.0, "complex"),
        (6, 6, 1e4, "complex"),
        (3, 5, 0.0, "complex"),
        (2, 2, 3.0, "real"),
        (2, 5, 1e4, "real"),
        (4, 1, 1.0, "singular"),
        (4, 3, 0.3, "singular"),
        (5, 4, 1e4, "singular"),
    ],
)
def test_rows_in_unit_interval_and_complete(n, m, theta, variant):
    model = sd.SpikedModel(n, m, theta, variant)
    proj = mc._chunk_projections(model, seed=2, start=0, stop=1000)
    assert proj.shape == (1000, m if variant == "singular" else n)
    assert np.all((proj >= 0.0) & (proj <= 1.0))
    sums = proj.sum(axis=1)
    if variant == "singular":
        assert np.all(sums < 1.0)
    else:
        assert np.max(np.abs(sums - 1.0)) <= 1e-12


@pytest.mark.parametrize(
    "n,m,variant",
    [(4, 6, "complex"), (2, 5, "real"), (4, 3, "singular"), (3, 1, "singular")],
)
def test_bit_identical_across_worker_counts(n, m, variant, monkeypatch):
    monkeypatch.setenv("SPIKED_EIGVEC_THREADS", "3")  # lift the cap of nproc threads
    model = sd.SpikedModel(n, m, 1.5, variant)
    spike = mc.make_spike(n, 0, real=variant == "real")
    count = 2 * mc.CHUNK_SIZE + 77
    runs = [mc.sample_wishart(model, spike, seed=8, count=count, workers=w) for w in (1, 2, 3)]
    for stat, values in runs[0].items():
        assert values.shape == (count,)
        for other in runs[1:]:
            assert np.array_equal(values, other[stat])


@pytest.mark.parametrize("variant", ["complex", "real", "singular"])
@pytest.mark.parametrize("n", [2, 3, 30, 100])
@pytest.mark.parametrize("theta", [0.0, 0.01, 1e4, 1e12])
def test_gauss_weights_match_interlacing_oracle(variant, n, theta):
    # Same variates, same T: the twisted weights against the interlacing product.
    model = sd.SpikedModel(n, n - 1 if variant == "singular" else n + 2, theta, variant)
    oracle = oracles.chunk_projections_interlacing(_dense(*mc._tridiagonal(model, 5, 0, 200)))
    if variant == "singular":
        oracle = oracle[:, 1:]
    proj = mc._chunk_projections(model, seed=5, start=0, stop=200)
    assert np.max(np.abs(proj - oracle)) <= 1e-12


def _dense(q, e):
    """The dense T = L L^T of a batch of squared bidiagonal entries: diagonal q, subdiagonal e."""
    idx = np.arange(q.shape[1])
    low = np.zeros(q.shape + q.shape[1:])
    low[:, idx, idx] = np.sqrt(q)
    low[:, idx[1:], idx[:-1]] = np.sqrt(e)
    return low @ low.transpose(0, 2, 1)


def _symmetric(a, b2):
    """The dense symmetric T of a batch of diagonals a and squared subdiagonals b2."""
    idx = np.arange(a.shape[1])
    t = np.zeros(a.shape + a.shape[1:])
    t[:, idx, idx] = a
    t[:, idx[1:], idx[:-1]] = t[:, idx[:-1], idx[1:]] = np.sqrt(b2)
    return t


def _inject(monkeypatch, a, b2):
    """Make `_chunk_projections` read the (a, b2) batch, as the Gram factors of a shift
    of it with the same eigenvectors (`oracles.gram_factors`); returns its model."""
    q, e = oracles.gram_factors(a, b2)
    monkeypatch.setattr(mc, "_tridiagonal", lambda *args: (q, e))
    return sd.SpikedModel(q.shape[1], q.shape[1], 0.0)


@pytest.mark.parametrize(
    "diag,sub2",
    [
        ([1.0, 2.0], [0.0]),  # lam = 2 = a_1 with b2_0 = 0: a 0/0 pivot
        ([3.0, 1.0, 2.0], [1.0, 0.0]),  # the same one level down
        ([1.0, 2.0, 1.0], [1.0, 0.0]),  # lam = 1 = a_0: a zero pivot above the split
    ],
)
def test_split_tridiagonal_is_right(diag, sub2, monkeypatch):
    model = _inject(monkeypatch, diag, sub2)
    expected = np.linalg.eigh(_symmetric(np.array([diag]), np.array([sub2])))[1][0, 0] ** 2
    for k, want in enumerate(expected):
        got = mc._chunk_projections(model, seed=0, start=0, stop=1, columns=(k,))
        assert abs(got[0, 0] - want) <= 1e-12, (k, got, want)


@pytest.mark.parametrize("size", [2, 3, 4, 5])
def test_nearly_split_tridiagonal_matches_eigh(size, monkeypatch):
    # One squared subdiagonal in [1e-40, 1e-14]: T nearly splits there, and the
    # pivots on one side of it are rounding noise.  The twist must land in the
    # block that holds the eigenvector.
    rng = np.random.default_rng(size)
    count = 500
    a = rng.uniform(0.0, 10.0, (count, size))
    b2 = rng.uniform(0.01, 10.0, (count, size - 1))
    b2[np.arange(count), rng.integers(0, size - 1, count)] = 10.0 ** rng.uniform(-40, -14, count)
    model = _inject(monkeypatch, a, b2)
    got = mc._chunk_projections(model, seed=0, start=0, stop=count)
    assert np.max(np.abs(got - np.linalg.eigh(_symmetric(a, b2))[1][:, 0, :] ** 2)) <= 1e-12


@pytest.mark.parametrize("size", [2, 3, 4, 5])
def test_just_above_old_split_threshold_matches_eigh(size, monkeypatch):
    # One b2_i in [1e-12, 1e-10] a_i a_{i+1}, just above LAPACK's deflation
    # test: a bottom-up sweep alone is 1.9e-12 off eigh at size 3 and divides
    # by an exact-zero pivot at size 5.
    rng = np.random.default_rng(size)
    count = 500
    a = rng.uniform(0.0, 10.0, (count, size))
    b2 = rng.uniform(0.01, 10.0, (count, size - 1))
    rows, i = np.arange(count), rng.integers(0, size - 1, count)
    b2[rows, i] = 10.0 ** rng.uniform(-12, -10, count) * a[rows, i] * a[rows, i + 1]
    model = _inject(monkeypatch, a, b2)
    got = mc._chunk_projections(model, seed=0, start=0, stop=count)
    assert np.max(np.abs(got - np.linalg.eigh(_symmetric(a, b2))[1][:, 0, :] ** 2)) <= 1e-12


def test_graded_tridiagonal_matches_mpmath(monkeypatch):
    # A Gram-form T whose top eigenvalue sits at the bottom row behind small
    # couplings; no b2_i is below 3.6e-4 a_i a_{i+1}.  A bottom-up sweep alone
    # gives that eigenvalue a weight of 1.9e-4 instead of 1.2e-29.
    import mpmath

    diag = [0.253, 0.716, 0.276, 0.00289, 0.0677, 33.6]
    sub2 = [0.181, 7.1e-5, 3.0e-4, 4.8e-5, 0.111]
    model = _inject(monkeypatch, diag, sub2)
    got = mc._chunk_projections(model, seed=0, start=0, stop=1)[0]
    with mpmath.workdps(50):
        t = mpmath.zeros(6)
        for i, d in enumerate(diag):
            t[i, i] = d
        for i, e2 in enumerate(sub2):
            t[i, i + 1] = t[i + 1, i] = mpmath.sqrt(e2)
        lam, u = mpmath.eigsy(t)
        want = [float(u[0, k] ** 2) for k in sorted(range(6), key=lambda k: lam[k])]
    assert want[-1] < 1e-28
    assert np.max(np.abs(got - want)) <= 1e-13


@pytest.mark.parametrize(
    "n,m,theta,seed,start",
    [
        # Draw 929 has b2 = 6.3e-15; one scan of 3.1e7 draws found it.
        (3, 5, 1.0, 7, 10549 * mc.CHUNK_SIZE),
        # One draw has b2 = 2.5e-16 against a diagonal of 18.3 and 2.86.
        (2, 3, 3.0027031298717315, 265984065, 0),
    ],
)
def test_nearly_split_real_draws_match_eigh(n, m, theta, seed, start):
    model = sd.SpikedModel(n, m, theta, "real")
    stop = start + mc.CHUNK_SIZE
    want = np.linalg.eigh(_dense(*mc._tridiagonal(model, seed, start, stop)))[1][:, 0, :] ** 2
    got = mc._chunk_projections(model, seed, start, stop)
    assert np.max(np.abs(got - want)) <= 1e-12


def test_non_finite_square_fails(monkeypatch):
    # An infinite diagonal entry of T gives an infinite square of its factor L;
    # the chunk stops before iterating on it.
    model = _inject(monkeypatch, [np.inf, 1.0, 2.0], [1.0, 1.0])
    with pytest.raises(mc.EigensolverFailure, match="not finite"):
        mc._chunk_projections(model, seed=0, start=0, stop=1)


@pytest.mark.parametrize(
    "n,m,variant",
    [(5, 7, "complex"), (4, 6, "real"), (5, 3, "singular"), (1, 3, "complex")],
)
def test_selected_columns_are_bit_identical(n, m, variant):
    # Each requested column runs its own factorization; asking for fewer must not
    # change a value.
    model = sd.SpikedModel(n, m, 2.0, variant)
    spike = mc.make_spike(n, 0, real=variant == "real")
    count = mc.CHUNK_SIZE + 77
    every = mc.sample_wishart(model, spike, seed=4, count=count)
    for stat, values in every.items():
        alone = mc.sample_wishart(model, spike, seed=4, count=count, statistics=(stat,))
        assert np.array_equal(alone[stat], values)


@pytest.mark.parametrize(
    "n,m,variant",
    [(4, 6, "complex"), (2, 5, "real"), (4, 3, "singular")],
)
def test_smaller_count_is_a_prefix(n, m, variant):
    # Each chunk is keyed by its first draw index, so a shorter batch is the
    # head of a longer one, bit for bit.
    model = sd.SpikedModel(n, m, 1.5, variant)
    spike = mc.make_spike(n, 0, real=variant == "real")
    full = mc.sample_wishart(model, spike, seed=6, count=2 * mc.CHUNK_SIZE + 77)
    for count in (100, mc.CHUNK_SIZE + 5):
        head = mc.sample_wishart(model, spike, seed=6, count=count)
        for stat, values in head.items():
            assert np.array_equal(values, full[stat][:count])


@pytest.mark.parametrize(
    "n,m,theta,variant",
    [(4, 6, 2.0, "complex"), (2, 5, 1.0, "real"), (4, 1, 0.5, "singular"), (4, 3, 3.0, "singular")],
)
def test_trace_mean(n, m, theta, variant):
    # E trace T = E |D X|_F^2 = m (n + theta) in every variant: a wrong Gamma
    # shape or a missing factor 2 on the real chi-square moves the mean.
    model = sd.SpikedModel(n, m, theta, variant)
    trace = sum(squares.sum(axis=1) for squares in mc._tridiagonal(model, 13, 0, 20_000))
    se = trace.std(ddof=1) / np.sqrt(trace.size)
    assert abs(trace.mean() - m * (n + theta)) <= 6.0 * se


@pytest.mark.parametrize("theta,index", [(0.5, 0), (1e12, 29)])
def test_extreme_eigenvalues_match_mpmath(theta, index):
    # The smallest eigenvalue of drawn (30, 32) T and the largest at theta = 1e12
    # (0.5 and 1e12 apart from the rest), against 40-digit mpmath.
    import mpmath

    q, e = mc._tridiagonal(sd.SpikedModel(30, 32, theta), 3, 0, 3)
    got = mc._eigenvalues(q, e, (index,))[:, 0]
    for draw in range(3):
        with mpmath.workdps(40):
            low = mpmath.zeros(30)
            for i in range(30):
                low[i, i] = mpmath.sqrt(q[draw, i])
                if i < 29:
                    low[i + 1, i] = mpmath.sqrt(e[draw, i])
            want = sorted(mpmath.eigsy(low * low.T, eigvals_only=True))[index]
            assert abs(got[draw] - want) <= 1e-14 * want, (draw, got[draw], want)


def test_chunk_memory_is_linear_in_n():
    # One 2,048-draw (100, 102) chunk of one column; a dense T alone would take
    # 2048 * 100^2 * 8 B = 164 MB.
    import tracemalloc

    model = sd.SpikedModel(100, 102, 3.0)
    tracemalloc.start()
    try:
        mc._chunk_projections(model, seed=1, start=0, stop=mc.CHUNK_SIZE, columns=(0,))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6, peak


@pytest.mark.parametrize("n,m,variant,columns", [(5, 7, "complex", (0,)), (5, 7, "complex", (2,)),
                                                 (4, 3, "singular", (0,))])
def test_iteration_cap_fails(n, m, variant, columns, monkeypatch):
    # An eigenvalue iteration that runs out of sweeps raises; it never returns NaN.
    monkeypatch.setattr(mc, "MAX_SWEEPS", 1)
    model = sd.SpikedModel(n, m, 1.0, variant)
    with pytest.raises(mc.EigensolverFailure, match="did not converge"):
        mc._chunk_projections(model, seed=0, start=0, stop=100, columns=columns)
