import argparse
import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from spiked_eigvec import cli, montecarlo, numkit
from spiked_eigvec import spike_density as sd
from spiked_eigvec.cli import main


def _read_csv(path):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    data = np.array([[float(v) for v in row] for row in rows[1:]])
    return header, data


def test_pdf_matches_library(tmp_path):
    out = tmp_path / "pdf.csv"
    rc = main(
        "pdf --stat z1 --n 4 --m 6 --theta 3 --grid-points 501 --out".split() + [str(out)]
    )
    assert rc == 0
    header, data = _read_csv(out)
    assert header == ["z", "density"]
    assert data.shape == (501, 2)
    mid = data[250]
    model = sd.SpikedModel(4, 6, 3.0)
    assert mid[1] == pytest.approx(sd.pdf_z1(model, mid[0]), rel=1e-12)


def test_pdf_haar_column(tmp_path):
    out = tmp_path / "pdf0.csv"
    assert main("pdf --stat z1 --n 4 --m 6 --theta 0 --out".split() + [str(out)]) == 0
    _, data = _read_csv(out)
    assert np.allclose(data[:, 1], 3.0 * (1.0 - data[:, 0]) ** 2, rtol=1e-12)


def test_cdf_asymptotic_column(tmp_path):
    out = tmp_path / "cdf.csv"
    assert main(
        "cdf --stat nz1_asym --theta 3 --z-max 2.0 --grid-points 101 --out".split()
        + [str(out)]
    ) == 0
    header, data = _read_csv(out)
    assert header == ["z", "cdf"]
    assert np.allclose(data[:, 1], 1.0 - np.exp(-4.0 * data[:, 0]), rtol=1e-12)


def test_emitted_density_normalizes(tmp_path):
    out = tmp_path / "p.csv"
    assert main("pdf --stat zn --n 3 --m 5 --theta 3 --out".split() + [str(out)]) == 0
    _, data = _read_csv(out)
    assert np.trapezoid(data[:, 1], data[:, 0]) == pytest.approx(1.0, abs=2e-3)


def test_pdf_json_roundtrip(tmp_path):
    out = tmp_path / "pdf.json"
    assert main(
        "pdf --stat z1 --n 3 --m 5 --theta 1 --format json --grid-points 11 --out".split()
        + [str(out)]
    ) == 0
    payload = json.loads(out.read_text())
    assert payload["model"] == {"n": 3, "m": 5, "theta": 1.0, "variant": "complex"}
    assert len(payload["grid"]) == 11
    model = sd.SpikedModel(3, 5, 1.0)
    assert payload["values"][5] == pytest.approx(sd.pdf_z1(model, payload["grid"][5]), rel=1e-12)


def test_simulate_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = "simulate --stat z1 --n 3 --m 5 --theta 3 --samples 2000 --seed 42 --out"
    assert main(args.split() + [str(a)]) == 0
    assert main(args.split() + [str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    meta = json.loads((tmp_path / "a.csv.meta.json").read_text())
    assert meta["seed"] == 42 and meta["count"] == 2000
    _, data = _read_csv(a)
    assert np.all((data[:, 1] >= 0.0) & (data[:, 1] <= 1.0))


def test_simulate_across_worker_counts(tmp_path):
    a, b = tmp_path / "w1.csv", tmp_path / "w8.csv"
    args = "simulate --stat z1 --n 3 --m 5 --theta 1 --samples 3000 --seed 7 --out"
    os.environ["SPIKED_EIGVEC_THREADS"] = "1"
    try:
        assert main(args.split() + [str(a)]) == 0
        os.environ["SPIKED_EIGVEC_THREADS"] = "8"
        assert main(args.split() + [str(b)]) == 0
    finally:
        del os.environ["SPIKED_EIGVEC_THREADS"]
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("cap", ["abc", "0", "-2"])
def test_simulate_rejects_bad_thread_cap(cap, monkeypatch, capsys):
    monkeypatch.setenv("SPIKED_EIGVEC_THREADS", cap)
    assert main("simulate --stat z1 --n 3 --m 5 --theta 1 --samples 10".split()) == 2
    err = capsys.readouterr().err
    assert "SPIKED_EIGVEC_THREADS" in err and repr(cap) in err


def test_simulate_haar_mean(tmp_path):
    out = tmp_path / "h.csv"
    assert main(
        "simulate --stat z1 --n 5 --m 7 --theta 0 --samples 10000 --out".split()
        + [str(out)]
    ) == 0
    _, data = _read_csv(out)
    assert abs(data[:, 1].mean() - 0.2) < 0.005


def test_validate_pass_and_report(tmp_path):
    out = tmp_path / "rep.json"
    rc = main(
        "validate --stat z1 --n 3 --m 5 --theta 3 --samples 20000 --out".split()
        + [str(out)]
    )
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["report"]["passed"] is True
    assert payload["report"]["ks_statistic"] <= payload["report"]["critical_value_1pct"]


def test_validate_nearly_split_real_draw(tmp_path):
    # One of these draws has a squared subdiagonal of 2.5e-16, where a pivot is
    # rounding noise; the chunk once exited 3 on it.
    argv = "validate --stat w1_real --n 2 --m 3 --theta 3.0027031298717315 --samples 2048"
    assert main(argv.split() + ["--seed", "265984065", "--out", str(tmp_path / "v.json")]) == 0


def test_validate_non_finite_square_exits_3(monkeypatch, capsys):
    # A NaN among the drawn squares stops the chunk with exit 3, never a NaN overlap.
    draw = montecarlo._tridiagonal

    def poisoned(*args):
        q, e = draw(*args)
        q[5, 1] = np.nan
        return q, e

    monkeypatch.setattr(montecarlo, "_tridiagonal", poisoned)
    assert main("validate --stat z1 --n 3 --m 5 --theta 1 --samples 4096".split()) == 3
    assert "not finite" in capsys.readouterr().err


def test_validate_negative_control(tmp_path):
    out = tmp_path / "neg.json"
    rc = main(
        "validate --stat z1 --n 3 --m 5 --theta 0 --data-theta 10 --samples 20000 --out".split()
        + [str(out)]
    )
    assert rc == 1
    payload = json.loads(out.read_text())
    assert payload["report"]["passed"] is False


def test_exit_code_invalid_config(capsys):
    assert main("pdf --stat z2 --n 4 --m 6 --theta 0".split()) == 2
    assert main("pdf --stat z1 --n 1 --m 6 --theta 1".split()) == 2
    assert main("pdf --stat w1_real --n 3 --m 5 --theta 1".split()) == 2
    assert main("pdf --stat z1 --n 4 --m 6 --theta 1 --grid-points 1".split()) == 2
    assert main("pdf --stat z1 --n 4 --m 6 --theta nan".split()) == 2
    assert main("pdf --stat z1 --n 4 --m 6 --theta inf".split()) == 2
    assert main("pdf --stat nz1_asym --theta nan".split()) == 2
    assert main("pdf --stat z1 --n 4 --m 6".split()) == 2
    assert main("pdf --stat z1 --n 4 --theta 1".split()) == 2
    assert main("pdf --stat z1 --m 6 --theta 1".split()) == 2
    assert main("pdf --stat z1 --n 4 --m 6 --theta 1 --z-min 0.5 --z-max 0.5".split()) == 2
    assert main("pdf --stat z1 --n 4 --m 6 --theta 1 --z-max 1.5".split()) == 2
    assert main("pdf --stat nz1_asym".split()) == 2
    assert main("pdf --stat w1_real --n 2 --m 5 --theta 1 --z-min 0".split()) == 2  # open support
    assert capsys.readouterr().out == ""


def test_nz1_asym_rejects_infinite_z_max(capsys):
    # An infinite z-max used to reach the grid and exit on "v must be nonnegative".
    assert main("pdf --stat nz1_asym --theta 1 --z-max inf".split()) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "z-max must be finite" in captured.err


@pytest.mark.parametrize("kind,last", [("cdf", 1.0), ("pdf", 0.0)])
def test_nz1_asym_huge_z_max(kind, last, capsys):
    # (1 + theta) v overflows at v = 1e308; the law still reads its limit, and
    # no RuntimeWarning (an error here) is raised.
    assert main(f"{kind} --stat nz1_asym --theta 1 --z-max 1e308 --grid-points 3".split()) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[-1] == f"1e+308,{last:.17g}"


def test_module_entry_point():
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    run = [sys.executable, "-m", "spiked_eigvec.cli", "pdf", "--stat", "zn", "--n", "2", "--m", "4",
           "--theta", "1", "--grid-points", "3"]
    ok = subprocess.run(run, env=env, capture_output=True, text=True)
    assert ok.returncode == 0 and len(ok.stdout.splitlines()) == 4
    bad = subprocess.run(run + ["--bogus"], env=env, capture_output=True, text=True)
    assert bad.returncode == 2 and bad.stdout == ""


def test_cdf_and_validate_leave_scipy_interpolate_unimported(tmp_path):
    # The c.d.f. is its own panel polynomials; no interpolation package loads.
    code = "\n".join([
        "import sys",
        "from spiked_eigvec.cli import main",
        "assert main('cdf --stat z1 --n 3 --m 5 --theta 3 --grid-points 5'.split()) == 0",
        "assert main('validate --stat z1 --n 3 --m 5 --theta 3 --samples 500 --out'.split()"
        " + [sys.argv[1]]) == 0",
        "print('scipy.interpolate' in sys.modules)",
    ])
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    run = subprocess.run([sys.executable, "-c", code, str(tmp_path / "report.json")], env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "False"


def test_pdf_z2_past_validated_alpha_exits_3(capsys):
    # m - n = 10 > Z2_MAX_ALPHA, where the unchecked density reads 4.4e13 at z = 1e-4.
    assert main("pdf --stat z2 --n 4 --m 14 --theta 10".split()) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "validated for" in captured.err


def test_exit_code_beta_rounds_to_one(capsys):
    # beta = theta/(1+theta) is exactly 1 in floating point for theta >~ 9e15.
    assert main("pdf --stat z1 --n 4 --m 6 --theta 1e300".split()) == 3
    assert main("pdf --stat y1_sing --n 4 --m 3 --theta 1e16".split()) == 3
    assert capsys.readouterr().out == ""


def test_pdf_z2_mass_check_exits_3(capsys):
    # The z2 density's beta^(2-n) prefactor cancels its digits at this theta;
    # the engine's exact mass misses 1, so no table is written.
    assert main("pdf --stat z2 --n 8 --m 11 --theta 0.01".split()) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "z2 mass -1.03853" in captured.err


def test_exit_code_cdf_mass_check(capsys):
    # z2 raises on its own mass before the c.d.f. sums its mesh.
    assert main("cdf --stat z2 --n 8 --m 11 --theta 0.01".split()) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "z2 mass -1.03853" in captured.err
    # The arcsine mesh stays at 11 levels and loses mass at this theta.
    assert main("cdf --stat w2_real --n 2 --m 5 --theta 1e12 --z-max 1".split()) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "c.d.f. mass 1.12999" in captured.err


@pytest.mark.parametrize("argv,floor", [
    ("cdf --stat z2 --n 4 --m 5 --theta 3000", 1.0 - 1e-6),
    ("cdf --stat yn_sing --n 5 --m 4 --theta 300", 0.9999),
    ("cdf --stat yn_sing --n 5 --m 4 --theta 1e8 --z-max 1", 1.0 - 1e-4),
], ids=["z2", "yn_sing", "yn_sing_theta1e8"])
def test_cdf_table_reaches_full_mass(argv, floor, tmp_path):
    # These densities pile up near z = 1; the table ends at z-max, the default
    # unless given.  At theta = 1e8 yn_sing keeps all but 1e-14 of its mass
    # above the default z-max.
    out = tmp_path / "cdf.csv"
    assert main(argv.split() + ["--out", str(out)]) == 0
    _, data = _read_csv(out)
    assert data[-1, 1] >= floor
    assert np.all(np.diff(data[:, 1]) >= 0)


def _stat_choices():
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return next(a.choices for a in sub.choices["pdf"]._actions if a.dest == "statistic")


def test_stat_choices_are_the_statistic_table():
    assert list(_stat_choices()) == list(sd.STATISTICS)


@pytest.mark.parametrize("stat", list(sd.STATISTICS))
def test_cli_rejects_exactly_where_the_pdf_raises(stat, tmp_path):
    # `simulate` never evaluates the density, so its exit code shows the
    # CLI's own support check.
    entry = sd.STATISTICS[stat]
    out = str(tmp_path / "sim.csv")
    for n in (2, 3, 4):
        for m in sorted({1, n - 1, n, n + 1}):
            for theta in (0.0, 1e-9, 1.0):
                try:
                    model = sd.SpikedModel(n, m, theta, entry.variant)
                    sd.density_values(stat, model, [0.5])
                    raises = False
                except ValueError:
                    raises = True
                argv = ["simulate", "--stat", stat, "--n", str(n), "--m", str(m),
                        "--theta", repr(theta), "--samples", "4", "--out", out]
                assert (main(argv) == 2) == raises, (n, m, theta)


@pytest.mark.parametrize("stat,n,m,theta", [
    ("z1", 10, 15, "3"), ("zn", 5, 6, "3"), ("zn", 3, 5, "3"), ("z2", 3, 4, "3"),
    ("w1_real", 2, 5, "1"), ("w2_real", 2, 5, "1"), ("y1_sing", 4, 1, "1"),
    ("yn_sing", 5, 4, "0.3"), ("nz1_asym", None, None, "3"),
])
def test_pdf_and_cdf_share_one_engine_build(stat, n, m, theta, capsys):
    # One engine cache serves every statistic; the n * z1 limit law has no engine.
    sd._engine.cache_clear()
    argv = ["--stat", stat, "--theta", theta]
    if n is not None:
        argv += ["--n", str(n), "--m", str(m)]
    assert main(["pdf"] + argv) == 0
    assert main(["cdf"] + argv) == 0
    capsys.readouterr()
    assert sd._engine.cache_info().misses == (0 if stat == "nz1_asym" else 1)


def test_unknown_figure():
    assert main("figure --id fig99".split()) == 2


def test_exit_code_numerical_failure(monkeypatch):
    def boom(*args, **kwargs):
        raise ArithmeticError("synthetic non-convergence")

    monkeypatch.setattr(sd, "density_values", boom)
    assert main("pdf --stat zn --n 5 --m 7 --theta 3".split()) == 3


def test_exit_code_basis_breakdown(capsys):
    # At theta = 1e15 the zn orthogonal basis breaks down: exit 3 with one
    # "numerical error" line and no RuntimeWarning.
    assert main("pdf --stat zn --n 5 --m 6 --theta 1e15".split()) == 3
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("numerical error:")


def test_pdf_w2_real_tiny_z(tmp_path):
    # 1 - 1e-17 rounds to 1; the mirror must still see a z inside (0, 1).
    out = tmp_path / "p.csv"
    argv = "pdf --stat w2_real --n 2 --m 5 --theta 1 --z-min 1e-17 --z-max 0.5 --grid-points 3"
    assert main(argv.split() + ["--out", str(out)]) == 0
    _, data = _read_csv(out)
    assert data[0, 0] == 1e-17 and np.all(np.isfinite(data[:, 1])) and np.all(data[:, 1] > 0)


def test_pdf_z1_huge_theta_at_zero(tmp_path):
    # At theta = 1e12, 1 - beta ~ 1e-12: its -(n+1)-th power alone overflows
    # for n >= 25, so the density forms the bounded ratio (1-beta)/denom.
    out = tmp_path / "p.csv"
    argv = "pdf --stat z1 --n 25 --m 25 --theta 1e12 --z-min 0 --grid-points 11"
    assert main(argv.split() + ["--out", str(out)]) == 0
    _, data = _read_csv(out)
    assert data[0, 0] == 0.0 and np.all(np.isfinite(data[:, 1])) and data[0, 1] > 0


@pytest.mark.parametrize("n,m", [(12, 20), (500, 501)])
def test_pdf_z1_table(n, m, tmp_path):
    # The k-tuple enumeration would take about 3e9 tuples at (12, 20); the
    # Andreief route takes one Gauss-Laguerre rule, 251 nodes at (500, 501).
    out = tmp_path / "p.csv"
    assert main(f"pdf --stat z1 --n {n} --m {m} --theta 3 --out".split() + [str(out)]) == 0
    _, data = _read_csv(out)
    expected = sd.pdf_z1(sd.SpikedModel(n, m, 3.0), data[:, 0])
    assert data[:, 1] == pytest.approx(expected, rel=1e-12)


# Past the alpha limit, and past the node limit at m - n = 2.
@pytest.mark.parametrize("n,m", [(5, 6 + sd.Z1_MAX_ALPHA), (400, 402)])
def test_pdf_z1_outside_validated_range_exits_3(n, m, tmp_path, capsys):
    out = tmp_path / "p.csv"
    argv = f"pdf --stat z1 --n {n} --m {m} --theta 3 --out".split()
    assert main(argv + [str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert len(captured.err.splitlines()) == 1 and "validated for" in captured.err


@pytest.mark.parametrize(
    "stat,n,m,theta,variant",
    [("zn", 2, 5, 300.0, "complex"), ("zn", 2, 5, 1e4, "complex"),
     ("w1_real", 2, 3, 1000.0, "real"), ("w2_real", 2, 3, 1000.0, "real")],
)
def test_pdf_n2_large_theta_tables(stat, n, m, theta, variant, tmp_path):
    # Large theta puts the n = 2 mass within O(1/theta) of an end.  The table
    # is the library density, which integrates to 1 on a graded grid (in s
    # with z = sin^2 s for the arcsine-type real statistics).
    out = tmp_path / "p.csv"
    argv = ["pdf", "--stat", stat, "--n", str(n), "--m", str(m), "--theta", repr(theta),
            "--out", str(out)]
    assert main(argv) == 0
    _, data = _read_csv(out)
    model = sd.SpikedModel(n, m, theta, variant)
    assert np.array_equal(data[:, 1], sd.density_values(stat, model, data[:, 0]))
    tq, wq = numkit.unit_grid(12, grade_left=16, grade_right=16)
    zq = tq
    if sd.STATISTICS[stat].arcsine:  # s = (pi/2) t, dz = sin(2s) ds
        zq, wq = np.sin(0.5 * np.pi * tq) ** 2, 0.5 * np.pi * wq * np.sin(np.pi * tq)
    assert float(np.dot(wq, sd.density_values(stat, model, zq))) == pytest.approx(1.0, abs=1e-6)


def test_zn_n3_large_theta_tables(tmp_path):
    # n = 3 runs on the moment series; the closed F2 form ran out of terms here.
    # The mass sits within O(1/theta) of z = 1: F(1 - 1e-4) is only 0.11, so
    # the c.d.f. table runs to 1 - 1e-6, where F is 0.9985.
    argv = "--stat zn --n 3 --m 5 --theta 1e4".split()
    pdf_out, cdf_out = tmp_path / "p.csv", tmp_path / "c.csv"
    assert main(["pdf"] + argv + ["--out", str(pdf_out)]) == 0
    assert main(["cdf"] + argv + ["--z-max", "0.999999", "--out", str(cdf_out)]) == 0
    _, data = _read_csv(cdf_out)
    assert abs(data[-1, 1] - 1.0) <= 1e-2
    tq, wq = numkit.unit_grid(12, grade_left=16, grade_right=16)
    mass = float(wq @ sd.pdf_zn(sd.SpikedModel(3, 5, 1e4), tq))
    assert mass == pytest.approx(1.0, abs=1e-8)


def test_figure_fig1(tmp_path):
    out = tmp_path / "fig1.csv"
    rc = main("figure --id fig1 --samples 400 --out".split() + [str(out)])
    assert rc == 0
    header, data = _read_csv(out)
    assert header[0] == "z" and len(header) == 6  # n in {3,...,7}
    assert data.shape[0] == 501
    # every emitted density column integrates to ~1 on its grid
    for col in range(1, 6):
        assert np.trapezoid(data[:, col], data[:, 0]) == pytest.approx(1.0, abs=2e-3)
    assert (tmp_path / "fig1.csv.hist.csv").exists()
    meta = json.loads((tmp_path / "fig1.csv.meta.json").read_text())
    assert meta["figure"] == "fig1"


def test_figure_fig14_structure(tmp_path):
    out = tmp_path / "fig14.csv"
    rc = main("figure --id fig14 --samples 300 --grid-points 301 --out".split() + [str(out)])
    assert rc == 0
    header, data = _read_csv(out)
    assert len(header) == 6
    for col in range(1, 6):
        assert np.trapezoid(data[:, col], data[:, 0]) == pytest.approx(1.0, abs=2e-3)


_UNREAD_OPTIONS = [
    ("pdf", "--seed", "1"), ("pdf", "--samples", "10"),
    ("cdf", "--seed", "1"), ("cdf", "--samples", "10"),
    ("simulate", "--format", "json"), ("simulate", "--z-min", "0.1"),
    ("simulate", "--z-max", "0.9"), ("simulate", "--grid-points", "5"),
    ("validate", "--format", "csv"), ("validate", "--z-min", "0.1"),
    ("validate", "--z-max", "0.9"), ("validate", "--grid-points", "5"),
    ("figure", "--format", "json"),
]


@pytest.mark.parametrize("command,option,value", _UNREAD_OPTIONS,
                         ids=[f"{c}{o}" for c, o, _ in _UNREAD_OPTIONS])
def test_subcommand_rejects_options_it_does_not_read(command, option, value, capsys):
    # Each subcommand accepts only the options its handler reads; argparse
    # exits 2 on any other before anything runs.
    base = ["--id", "fig1"] if command == "figure" else "--stat z1 --n 3 --m 5 --theta 1".split()
    with pytest.raises(SystemExit) as exc:
        main([command] + base + [option, value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "unrecognized arguments" in captured.err


@pytest.mark.parametrize("window,first,last", [
    ([], 1e-6, 1.0 - 1e-6),
    (["--z-min", "1e-4"], 1e-4, 1.0 - 1e-6),
    (["--z-max", repr(1.0 - 1e-4)], 1e-6, 1.0 - 1e-4),
], ids=["default", "z-min", "z-max"])
def test_figure_window(window, first, last, tmp_path):
    # figure's own default window is [1e-6, 1 - 1e-6]; an explicit bound is
    # honoured even when it equals the pdf/cdf default.
    out = tmp_path / "fig3.csv"
    argv = "figure --id fig3 --grid-points 3 --samples 50".split() + window
    assert main(argv + ["--out", str(out)]) == 0
    _, data = _read_csv(out)
    assert data[0, 0] == first and data[-1, 0] == last


@pytest.mark.parametrize("points", ["0", "1"])
def test_figure_fig5_rejects_short_grid(points, tmp_path, capsys):
    out = tmp_path / "fig5.csv"
    assert main(["figure", "--id", "fig5", "--grid-points", points, "--out", str(out)]) == 2
    assert not out.exists() and "grid_points must be at least 2" in capsys.readouterr().err


@pytest.mark.parametrize("theta,data_theta", [("0", "3"), ("3", "0")], ids=["tested", "data"])
def test_validate_checks_both_models_before_sampling(theta, data_theta, monkeypatch, capsys):
    # z2 has a pole at theta = 0; neither model may reach the sampler.
    def no_draws(*args, **kwargs):
        raise AssertionError("the sampler ran before the models were checked")

    monkeypatch.setattr(montecarlo, "sample_wishart", no_draws)
    argv = ["validate", "--stat", "z2", "--n", "4", "--m", "6", "--theta", theta,
            "--data-theta", data_theta, "--samples", "400000"]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("config error:")


def test_figure_rejects_draws_before_writing(tmp_path, capsys):
    out = tmp_path / "fig1.csv"
    assert main("figure --id fig1 --samples 0 --grid-points 11 --out".split() + [str(out)]) == 2
    assert list(tmp_path.iterdir()) == []
    assert "samples must be at least 1" in capsys.readouterr().err


def _no_draws(*args, **kwargs):
    raise AssertionError("figure drew samples that no file receives")


def test_figure_to_stdout_makes_no_draws(monkeypatch, capsys):
    # Only a file's .hist.csv sidecar holds the histograms, so stdout needs no draws.
    monkeypatch.setattr(montecarlo, "sample_wishart", _no_draws)
    assert main("figure --id fig1 --grid-points 3".split()) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "z,n3,n4,n5,n6,n7" and len(lines) == 4


def test_figure_to_stdout_rejects_samples(monkeypatch, capsys):
    monkeypatch.setattr(montecarlo, "sample_wishart", _no_draws)
    assert main("figure --id fig1 --samples 0 --grid-points 3".split()) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "samples must be at least 1" in captured.err


@pytest.mark.parametrize("window,first,last", [
    ([], 0.0, 6.0),
    (["--z-min", "0.5", "--z-max", "0.9"], 0.5, 0.9),
], ids=["default", "explicit"])
def test_figure_fig5_window(window, first, last, tmp_path):
    # fig5 tabulates the limit law of n z1 on [0, 6] unless told otherwise.
    out = tmp_path / "fig5.csv"
    argv = "figure --id fig5 --grid-points 5 --samples 50".split() + window
    assert main(argv + ["--out", str(out)]) == 0
    _, data = _read_csv(out)
    assert data[0, 0] == first and data[-1, 0] == last


def test_validate_checks_tested_cdf_before_sampling(monkeypatch, capsys):
    # At theta = 1e17, beta rounds to 1 and the z1 c.d.f. cannot be built.
    def no_draws(*args, **kwargs):
        raise AssertionError("the sampler ran before the tested c.d.f. was built")

    monkeypatch.setattr(montecarlo, "sample_wishart", no_draws)
    argv = "validate --stat z1 --n 3 --m 5 --theta 1e17 --samples 200000".split()
    assert main(argv) == 3
    assert capsys.readouterr().err.startswith("numerical error:")


def test_simulate_nz1_asym_is_n_times_z1(tmp_path):
    # The limit law's draws are n times the z1 column of the same seeded draws.
    rows = {}
    for stat in ("z1", "nz1_asym"):
        out = tmp_path / f"{stat}.csv"
        argv = f"simulate --stat {stat} --n 30 --m 32 --theta 0.5 --seed 7 --samples 5000 --out"
        assert main(argv.split() + [str(out)]) == 0
        rows[stat] = out.read_text().splitlines()[1:]
    assert len(rows["z1"]) == 5000
    for z1, nz1 in zip(rows["z1"], rows["nz1_asym"]):
        assert float(nz1.split(",")[1]) == 30 * float(z1.split(",")[1])


@pytest.mark.parametrize("data_theta,code", [([], 0), (["--data-theta", "3"], 1)],
                         ids=["matched", "control"])
def test_validate_nz1_asym(data_theta, code, tmp_path):
    out = tmp_path / "rep.json"
    argv = "validate --stat nz1_asym --n 30 --m 32 --theta 0.5 --samples 24576".split()
    assert main(argv + data_theta + ["--out", str(out)]) == code
    assert json.loads(out.read_text())["report"]["passed"] is (code == 0)


def test_figure_fig5_tables_the_law_and_histograms_every_curve(tmp_path):
    out = tmp_path / "fig5.csv"
    assert main("figure --id fig5 --grid-points 5 --samples 200 --out".split() + [str(out)]) == 0
    assert out.read_text().splitlines()[0] == "z,theta0.5,theta1.0,theta5.0"
    head, *hist = (tmp_path / "fig5.csv.hist.csv").read_text().splitlines()
    labels = list(dict.fromkeys(row.split(",")[0] for row in hist))
    assert labels == [f"n{n}_theta{t}" for n in (15, 25, 30) for t in (0.5, 1.0, 5.0)]
    # The table is the law's c.d.f., so the sidecar holds the draws' empirical
    # c.d.f. at each bin's right edge: in [0, 1], non-decreasing, ending at 1.
    assert head == "curve,bin_left,bin_right,cdf"
    for label in labels:
        cdf = np.array([float(row.split(",")[3]) for row in hist if row.startswith(label + ",")])
        assert cdf.size == 40 and np.all((cdf >= 0.0) & (cdf <= 1.0))
        assert np.all(np.diff(cdf) >= 0.0) and cdf[-1] == 1.0


def test_figure_density_sidecar_keeps_its_header(tmp_path):
    out = tmp_path / "fig1.csv"
    assert main("figure --id fig1 --grid-points 5 --samples 200 --out".split() + [str(out)]) == 0
    head, first, *_ = (tmp_path / "fig1.csv.hist.csv").read_text().splitlines()
    assert head == "curve,bin_left,bin_right,density" and first.startswith("n3,")


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_back_to_back_calls_do_not_leak_options(tmp_path):
    # One parser serves every call, so each parse must start from the defaults.
    out = tmp_path / "rep.json"
    argv = "validate --stat z1 --n 3 --m 5 --theta 1 --samples 2000 --out".split() + [str(out)]
    assert main(argv + ["--data-theta", "3"]) == 1
    assert json.loads(out.read_text())["data_theta"] == 3.0
    assert main(argv) == 0
    assert json.loads(out.read_text())["data_theta"] == 1.0
    table = tmp_path / "fig1.csv"
    assert main("pdf --stat z1 --n 3 --m 5 --theta 1 --z-min 0.25 --z-max 0.5 --out".split()
                + [str(tmp_path / "pdf.csv")]) == 0
    assert main("figure --id fig1 --grid-points 3 --samples 10 --out".split() + [str(table)]) == 0
    _, data = _read_csv(table)
    assert data[0, 0] == 1e-6 and data[-1, 0] == 1.0 - 1e-6


@pytest.mark.parametrize("stat,code", [("z1 --n 4 --m 6", 2), ("nz1_asym", 0)])
def test_z_max_past_one_only_for_a_limit_law(stat, code, capsys):
    # Only a limit law's variable n z1 runs past 1.
    assert main(f"pdf --stat {stat} --theta 3 --z-max 7 --grid-points 3".split()) == code
    captured = capsys.readouterr()
    if code:
        assert captured.out == "" and "z-max cannot exceed 1" in captured.err
    else:
        assert captured.out.splitlines()[-1].startswith("7,")


@pytest.mark.parametrize("kind", ["pdf", "cdf"])
@pytest.mark.parametrize("sizes", ["--n 1 --m 3", "--n 30", "--m 32"])
def test_nz1_asym_checks_a_given_model(kind, sizes, capsys):
    # Given --n or --m, the limit law's model is built and checked like any
    # other statistic's; with --theta alone the law needs no model.
    assert main(f"{kind} --stat nz1_asym {sizes} --theta 3".split()) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("config error:")
    assert main(f"{kind} --stat nz1_asym --theta 3 --grid-points 3".split()) == 0
    law_only = capsys.readouterr().out
    assert main(f"{kind} --stat nz1_asym --n 30 --m 32 --theta 3 --grid-points 3".split()) == 0
    assert capsys.readouterr().out == law_only
