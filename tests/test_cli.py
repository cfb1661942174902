import argparse
import csv
import json
import os

import numpy as np
import pytest

from spiked_eigvec import cli
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
    assert capsys.readouterr().out == ""


def test_exit_code_beta_rounds_to_one(capsys):
    # beta = theta/(1+theta) is exactly 1 in floating point for theta >~ 9e15.
    assert main("pdf --stat z1 --n 4 --m 6 --theta 1e300".split()) == 3
    assert main("pdf --stat y1_sing --n 4 --m 3 --theta 1e16".split()) == 3
    assert capsys.readouterr().out == ""


def test_exit_code_cdf_mass_check(capsys):
    # The yn_sing density loses its mass at this theta; the c.d.f. mesh
    # total misses 1, so no table is written.
    assert main("cdf --stat yn_sing --n 5 --m 4 --theta 1e8".split()) == 3
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv,floor", [
    ("cdf --stat z2 --n 4 --m 5 --theta 3000", 1.0 - 1e-6),
    ("cdf --stat yn_sing --n 5 --m 4 --theta 300", 0.9999),
], ids=["z2", "yn_sing"])
def test_cdf_table_reaches_full_mass(argv, floor, tmp_path):
    # Both densities pile up near z = 1; the table ends at the default z-max.
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
                    sd.density_values(stat, model, [0.5], preset="fast")
                    raises = False
                except ValueError:
                    raises = True
                argv = ["simulate", "--stat", stat, "--n", str(n), "--m", str(m),
                        "--theta", repr(theta), "--samples", "4", "--out", out]
                assert (main(argv) == 2) == raises, (n, m, theta)


def test_unknown_figure():
    assert main("figure --id fig99".split()) == 2


def test_exit_code_numerical_failure(monkeypatch):
    from spiked_eigvec import specfun

    def boom(*args, **kwargs):
        raise specfun.NoConvergence("synthetic non-convergence")

    monkeypatch.setattr(sd, "density_values", boom)
    assert main("pdf --stat zn --n 5 --m 7 --theta 3".split()) == 3


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
