"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line per criterion (run with `pytest -s` to
see them live).  Sample counts and tolerances are pinned here, not deferred
to calibration.
"""

import os
import time

import numpy as np
import pytest

from spiked_eigvec import montecarlo as mc
from spiked_eigvec import numkit
from spiked_eigvec import spike_density as sd
from spiked_eigvec import variant_density as vd
from spiked_eigvec.cli import main as cli_main

import oracles

pytestmark = pytest.mark.slow

KS_N = 100_000
KS_CRIT = 1.628 / np.sqrt(KS_N)  # ~0.00515

_NORM_Z, _NORM_W = numkit.unit_grid(24, grade_left=2, grade_right=2)


def _report(criterion, ok, detail=""):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def _normalize(stat, model):
    if stat in ("w1_real", "w2_real"):
        phi, w = numkit._panels([0.0, np.pi / 2.0], 192)
        vals = sd.density_values(stat, model, np.sin(phi) ** 2) * np.sin(2 * phi)
        return float(np.dot(w, vals))
    vals = sd.density_values(stat, model, _NORM_Z)
    return float(np.dot(_NORM_W, vals))


def _ks_for(stat, model, count=KS_N, seed=42, scale_by_n=False):
    spike = mc.make_spike(model.n, 0, "first_basis", real=model.variant == "real")
    sample_stat = stat
    batches = mc.sample_wishart(model, spike, seed, count, statistics=(sample_stat,))
    values = batches[sample_stat]
    if scale_by_n:
        values = model.n * values
        cdf = sd.model_cdf_fn("nz1_asym", model)
    else:
        cdf = sd.model_cdf_fn(stat, model)
    rep = numkit.ks_test(values, cdf)
    return rep


THETAS = (0.1, 1.0, 3.0, 10.0)


def test_criterion_1_normalization_suite():
    t0 = time.time()
    worst = {}

    def track(key, stat, model, tol):
        err = abs(_normalize(stat, model) - 1.0)
        worst[key] = max(worst.get(key, 0.0), err)
        assert err <= tol, f"{stat} {model} normalization error {err:.2e} > {tol}"

    for n in range(2, 9):
        for alpha in range(5):
            for theta in THETAS:
                model = sd.SpikedModel(n, n + alpha, theta)
                track("z1", "z1", model, 1e-6)
                track("zn", "zn", model, 1e-6)
                if n >= 3:
                    track("z2", "z2", model, 1e-4)
    for m in range(2, 7):  # real: alpha = m - 2 <= 4
        for theta in THETAS:
            model = sd.SpikedModel(2, m, theta, "real")
            track("w1", "w1_real", model, 1e-6)
            track("w2", "w2_real", model, 1e-6)
    for n in range(2, 9):  # singular m = 1
        for theta in THETAS:
            model = sd.SpikedModel(n, 1, theta, "singular")
            track("y1(m=1)", "y1_sing", model, 1e-6)
    for n in range(3, 8):  # singular n - m = 1 (m <= 6)
        for theta in THETAS:
            model = sd.SpikedModel(n, n - 1, theta, "singular")
            track("y1(nm1)", "y1_sing", model, 1e-6)
            track("yn", "yn_sing", model, 1e-5)
    elapsed = time.time() - t0
    detail = " ".join(f"{k}={v:.1e}" for k, v in worst.items()) + f" runtime={elapsed:.0f}s"
    _report("1 (normalization suite)", elapsed < 300.0, detail)


def test_criterion_2_haar_baseline():
    zs = np.linspace(1e-4, 1.0 - 1e-4, 401)
    worst = 0.0
    for n in range(2, 9):
        model = sd.SpikedModel(n, n + 3, 0.0)
        vals = sd.pdf_z1(model, zs)
        target = (n - 1.0) * (1.0 - zs) ** (n - 2)
        worst = max(worst, float(np.max(np.abs(vals - target))))
    _report("2 (Haar baseline)", worst <= 1e-10, f"max abs dev {worst:.2e}")


def test_criterion_3_dual_path_equality():
    zs = np.linspace(0.02, 0.98, 21)
    worst_z1 = 0.0
    for alpha in (0, 1):
        for n in range(3, 9):
            for theta in (0.5, 2.0, 10.0):
                model = sd.SpikedModel(n, n + alpha, theta)
                general, fast = oracles.pdf_z1_general_vs_fastpath(model, zs)
                worst_z1 = max(worst_z1, float(np.max(np.abs(general / fast - 1.0))))
    ok1 = worst_z1 <= 1e-10

    grid = np.linspace(0.005, 0.995, 101)
    worst_zn = 0.0
    for n in (2, 3, 4):
        for alpha in (0, 1, 2):
            for theta in (1.0, 3.0):
                model = sd.SpikedModel(n, n + alpha, theta)
                closed = oracles.pdf_zn_closed(model, grid)
                generic = sd._zn_prepare(model)(grid)
                worst_zn = max(worst_zn, float(np.max(np.abs(generic / closed - 1.0))))
    ok2 = worst_zn <= 1e-6
    _report(
        "3 (dual-path equality)",
        ok1 and ok2,
        f"z1 rel {worst_z1:.2e} (tol 1e-10), zn rel {worst_zn:.2e} (tol 1e-6)",
    )


def test_criterion_4_monte_carlo_concordance():
    configs = []
    for n in range(3, 8):
        configs.append(("z1", sd.SpikedModel(n, n + 2, 3.0)))
    for theta in (0.1, 1.0, 10.0):
        configs.append(("z1", sd.SpikedModel(3, 5, theta)))
    for n in (2, 3, 4):
        configs.append(("zn", sd.SpikedModel(n, n + 2, 3.0)))
    for n in (4, 5):
        configs.append(("z2", sd.SpikedModel(n, n + 1, 3.0)))

    details = []
    ok = True
    for stat, model in configs:
        t0 = time.time()
        rep = _ks_for(stat, model)
        dt = time.time() - t0
        good = rep.ks_statistic <= KS_CRIT and dt < 60.0
        ok = ok and good
        details.append(f"{stat}(n={model.n},th={model.theta}):D={rep.ks_statistic:.4f},{dt:.0f}s")
        assert good, f"{stat} {model}: D={rep.ks_statistic:.5f} (crit {KS_CRIT:.5f}), {dt:.0f}s"
    _report("4 (MC concordance)", ok, "; ".join(details))


def test_criterion_5_asymptotic_limit():
    details = []
    ok = True
    for theta in (0.5, 1.0, 5.0):
        model = sd.SpikedModel(30, 32, theta)
        rep = _ks_for("z1", model, scale_by_n=True)
        good = rep.ks_statistic <= 0.02
        ok = ok and good
        details.append(f"theta={theta}: D={rep.ks_statistic:.4f}")
    _report("5 (asymptotic limit)", ok, "; ".join(details) + " (gate 0.02)")


def test_criterion_6_variant_suites():
    details = []
    ok = True
    for theta in (0.5, 2.0):
        model = sd.SpikedModel(2, 5, theta, "real")
        rep = _ks_for("w1_real", model)
        good = rep.ks_statistic <= KS_CRIT
        ok = ok and good
        details.append(f"w1(th={theta}):D={rep.ks_statistic:.4f}")
    # real theta = 0 reproduces the arcsine law
    model0 = sd.SpikedModel(2, 5, 0.0, "real")
    spike = mc.make_spike(2, 0, real=True)
    vals = mc.sample_wishart(model0, spike, 42, KS_N, statistics=("w1_real",))["w1_real"]
    arcsine_cdf = lambda z: 2.0 / np.pi * np.arcsin(np.sqrt(np.clip(np.asarray(z, float), 0, 1)))
    rep = numkit.ks_test(vals, arcsine_cdf)
    ok = ok and rep.passed
    details.append(f"arcsine:D={rep.ks_statistic:.4f}")
    for n in (3, 5):
        model = sd.SpikedModel(n, 1, 1.0, "singular")
        rep = _ks_for("y1_sing", model)
        ok = ok and rep.ks_statistic <= KS_CRIT
        details.append(f"y1(m=1,n={n}):D={rep.ks_statistic:.4f}")
    for n in (3, 4, 5):
        model = sd.SpikedModel(n, n - 1, 0.3, "singular")
        for stat in ("y1_sing", "yn_sing"):
            rep = _ks_for(stat, model)
            ok = ok and rep.ks_statistic <= KS_CRIT
            details.append(f"{stat}(n={n}):D={rep.ks_statistic:.4f}")
    _report("6 (variant suites)", ok, "; ".join(details))


def test_criterion_7_identity_oracles():
    ok = True
    details = []
    for n in (1, 2, 3):
        for alpha in (0, 1, 2):
            for (y, x) in ((0.5, 2.0), (1.5, 3.0)):
                lhs, rhs = oracles.mehta_identity_check(n, alpha, y, x)
                rel = abs(lhs - rhs) / max(abs(rhs), 1e-300)
                ok = ok and rel <= 1e-5
                if rel > 1e-5:
                    details.append(f"mehta({n},{alpha},{y},{x}) rel={rel:.1e}")
    for alpha in (1, 2, 3):
        val = oracles.kalpha_normalization_check(alpha)
        ok = ok and abs(val - 1.0) <= 1e-8
        details.append(f"K_{alpha}={val:.10f}")
    _report("7 (identity oracles)", ok, "; ".join(details))


def test_criterion_8_structural_invariants(tmp_path):
    # per-draw completeness
    model = sd.SpikedModel(5, 7, 3.0)
    proj = mc._chunk_projections(model, seed=8, start=0, stop=10_000)
    sum_ok = float(np.max(np.abs(proj.sum(axis=1) - 1.0))) <= 1e-10

    # n=2 reflection
    zs = np.linspace(0.01, 0.99, 99)
    refl_ok = True
    for alpha, theta in ((0, 1.0), (3, 5.0), (2, 0.3)):
        m2 = sd.SpikedModel(2, 2 + alpha, theta)
        refl_ok &= float(np.max(np.abs(sd.pdf_zn(m2, zs) - sd.pdf_z1(m2, 1 - zs)))) <= 1e-8

    # convexity
    conv_ok = True
    for alpha in (0, 3):
        for theta in (0.0, 1.0, 5.0):
            conv_ok &= oracles.check_zn_convexity_n2(sd.SpikedModel(2, 2 + alpha, theta))

    # byte determinism of cmd_simulate across 1 vs 8 workers
    a, b = tmp_path / "w1.csv", tmp_path / "w8.csv"
    args = "simulate --stat z1 --n 4 --m 6 --theta 3 --samples 20000 --seed 42 --out"
    os.environ["SPIKED_EIGVEC_THREADS"] = "1"
    try:
        assert cli_main(args.split() + [str(a)]) == 0
        os.environ["SPIKED_EIGVEC_THREADS"] = "8"
        assert cli_main(args.split() + [str(b)]) == 0
    finally:
        del os.environ["SPIKED_EIGVEC_THREADS"]
    bytes_ok = a.read_bytes() == b.read_bytes()

    ok = sum_ok and refl_ok and conv_ok and bytes_ok
    _report(
        "8 (structural invariants)",
        ok,
        f"sum={sum_ok} reflection={refl_ok} convexity={conv_ok} determinism={bytes_ok}",
    )


def test_criterion_9_negative_control(tmp_path):
    out = tmp_path / "neg.json"
    rc = cli_main(
        "validate --stat z1 --n 3 --m 5 --theta 0 --data-theta 10 --samples 100000 --out".split()
        + [str(out)]
    )
    _report("9 (negative control)", rc == 1, f"exit code {rc} (expected 1)")
