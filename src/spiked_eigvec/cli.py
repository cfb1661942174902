"""Command-line surface: density/CDF grids, simulation, validation, figures.

All outputs are deterministic: CSV cells carry 17 significant digits with '.'
decimal separators and LF line endings, simulation is reproducible bit for
bit from (model, seed, count) regardless of worker count, and JSON sidecars
echo the full configuration.

Exit codes: 0 success (or validation pass), 1 validation failure, 2 invalid
configuration, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__, montecarlo, numkit, specfun
from . import spike_density as sd

_NUMERICAL_ERRORS = (
    specfun.NoConvergence,
    montecarlo.EigensolverFailure,
    ArithmeticError,
    FloatingPointError,
)


class ConfigError(ValueError):
    """An invalid command configuration (reported with exit code 2)."""


class UnknownFigure(ConfigError):
    """The requested figure id is not in the supported set."""


@dataclass
class RunConfig:
    command: str
    statistic: str | None = None
    n: int | None = None
    m: int | None = None
    theta: float | None = None
    z_min: float = 1e-4
    z_max: float = 1.0 - 1e-4
    grid_points: int = 501
    samples: int = 100_000
    seed: int = 42
    output_path: str = "-"
    fmt: str = "csv"
    data_theta: float | None = None
    figure_id: str | None = None


def build_model(cfg: RunConfig) -> sd.SpikedModel:
    """Validate the (statistic, n, m, theta) combination and build the model."""
    entry = sd.STATISTICS.get(cfg.statistic)
    if entry is None:
        raise ConfigError(f"unknown statistic {cfg.statistic!r}")
    if cfg.theta is None:
        raise ConfigError("--theta is required")
    if cfg.n is None or cfg.m is None:
        raise ConfigError("--n and --m are required for this statistic")
    try:
        model = sd.SpikedModel(cfg.n, cfg.m, cfg.theta, entry.variant)
        entry.support(model)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return model


def _grid(cfg: RunConfig) -> np.ndarray:
    if cfg.grid_points < 2:
        raise ConfigError("grid_points must be at least 2")
    if not (0.0 <= cfg.z_min < cfg.z_max):
        raise ConfigError("need 0 <= z-min < z-max")
    if cfg.statistic != "nz1_asym" and cfg.z_max > 1.0:
        raise ConfigError("z-max cannot exceed 1 for projection statistics")
    if sd.STATISTICS[cfg.statistic].arcsine:
        # sin^2-spaced grid resolves the inverse-square-root endpoints.
        lo = np.arcsin(np.sqrt(cfg.z_min))
        hi = np.arcsin(np.sqrt(cfg.z_max))
        return np.sin(np.linspace(lo, hi, cfg.grid_points)) ** 2
    return np.linspace(cfg.z_min, cfg.z_max, cfg.grid_points)


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)


def _model_echo(model: sd.SpikedModel) -> dict:
    return {"n": model.n, "m": model.m, "theta": model.theta, "variant": model.variant}


def _curve_payload(cfg, curve: sd.DensityCurve, kind) -> str:
    if cfg.fmt == "csv":
        head = "z,density" if kind == "pdf" else "z,cdf"
        rows = [head] + [f"{_fmt(z)},{_fmt(v)}" for z, v in zip(curve.grid, curve.values)]
        return "\n".join(rows) + "\n"
    payload = {
        "kind": kind,
        "statistic": curve.statistic,
        "model": _model_echo(curve.model) if curve.model else {"theta": cfg.theta},
        "grid": [float(z) for z in curve.grid],
        "values": [float(v) for v in curve.values],
        "version": __version__,
    }
    return json.dumps(payload, indent=1) + "\n"


def _evaluate_curve(cfg: RunConfig, kind: str) -> sd.DensityCurve:
    zs = _grid(cfg)
    if cfg.statistic == "nz1_asym":
        if cfg.theta is None or not 0.0 <= cfg.theta < np.inf:
            raise ConfigError("nz1_asym requires a finite theta >= 0")
        fn = sd.pdf_nz1_asymptotic if kind == "pdf" else sd.cdf_nz1_asymptotic
        values = np.asarray(fn(cfg.theta, zs))
        model = None
    else:
        model = build_model(cfg)
        if kind == "pdf":
            values = sd.density_values(cfg.statistic, model, zs)
        else:
            values = sd.cdf_grid(cfg.statistic, model, zs)
    return sd.DensityCurve(grid=zs, values=values, model=model, statistic=cfg.statistic)


def cmd_pdf(cfg: RunConfig) -> int:
    curve = _evaluate_curve(cfg, "pdf")
    _write_text(cfg.output_path, _curve_payload(cfg, curve, "pdf"))
    return 0


def cmd_cdf(cfg: RunConfig) -> int:
    curve = _evaluate_curve(cfg, "cdf")
    _write_text(cfg.output_path, _curve_payload(cfg, curve, "cdf"))
    return 0


def _simulate_values(cfg: RunConfig, theta: float | None = None) -> tuple:
    """Draw the sample batch for cfg (optionally overriding the data theta)."""
    if cfg.samples < 1:
        raise ConfigError("samples must be at least 1")
    stat = cfg.statistic
    data_theta = cfg.theta if theta is None else theta
    sample_stat = "z1" if stat == "nz1_asym" else stat
    data_cfg = RunConfig(**{**asdict(cfg), "theta": data_theta})
    model = build_model(data_cfg)
    spike = montecarlo.make_spike(model.n, cfg.seed, "first_basis", real=model.variant == "real")
    batches = montecarlo.sample_wishart(
        model, spike, cfg.seed, cfg.samples, statistics=(sample_stat,)
    )
    values = batches[sample_stat].values
    if stat == "nz1_asym":
        values = model.n * values
    return model, values


def cmd_simulate(cfg: RunConfig) -> int:
    model, values = _simulate_values(cfg)
    rows = ["index,value"] + [f"{i},{_fmt(v)}" for i, v in enumerate(values)]
    _write_text(cfg.output_path, "\n".join(rows) + "\n")
    meta = {
        "statistic": cfg.statistic,
        "model": _model_echo(model),
        "seed": cfg.seed,
        "count": cfg.samples,
        "version": __version__,
    }
    if cfg.output_path != "-":
        _write_text(cfg.output_path + ".meta.json", json.dumps(meta, indent=1) + "\n")
    return 0


def cmd_validate(cfg: RunConfig) -> int:
    data_theta = cfg.data_theta if cfg.data_theta is not None else cfg.theta
    _, values = _simulate_values(cfg, theta=data_theta)
    model = build_model(cfg)
    report = numkit.ks_test(values, sd.model_cdf_fn(cfg.statistic, model))
    payload = {
        "statistic": cfg.statistic,
        "model": _model_echo(model),
        "data_theta": data_theta,
        "seed": cfg.seed,
        "report": report.to_dict(),
        "version": __version__,
    }
    _write_text(cfg.output_path, json.dumps(payload, indent=1) + "\n")
    return 0 if report.passed else 1


_FIGURES = {
    # figure id -> (statistic, list of (label, n, m, theta))
    "fig1": ("z1", [(f"n{n}", n, n + 2, 3.0) for n in (3, 4, 5, 6, 7)]),
    "fig3": ("z1", [(f"theta{t}", 3, 5, t) for t in (0.1, 1.0, 10.0)]),
    "fig5": ("nz1_asym", [(f"n{n}_theta{t}", n, n + 2, t) for n in (15, 25, 30) for t in (0.5, 1.0, 5.0)]),
    "fig6": ("zn", [(f"n{n}", n, n + 2, 3.0) for n in (3, 4, 5, 6, 7)]),
    "fig8": ("zn", [(f"theta{t}", 3, 5, t) for t in (0.1, 1.0, 10.0)]),
    "fig11": ("z2", [(f"n{n}", n, n + 1, 3.0) for n in (3, 4, 5, 6, 7)]),
    "fig12": ("w1_real", [(f"theta{t}", 2, 5, t) for t in (0.5, 2.0)]),
    "fig14": ("y1_sing", [(f"n{n}", n, n - 1, 0.3) for n in (3, 4, 5, 6, 7)]),
    "fig16": ("yn_sing", [(f"n{n}", n, n - 1, 0.3) for n in (3, 4, 5, 6, 7)]),
}


def cmd_figure(cfg: RunConfig) -> int:
    fid = cfg.figure_id
    if fid not in _FIGURES:
        raise UnknownFigure(f"unknown figure id {fid!r}; supported: {sorted(_FIGURES)}")
    stat, curves = _FIGURES[fid]
    if stat == "nz1_asym":
        zs = np.linspace(0.0, 6.0, cfg.grid_points)
    else:
        # Steep curves hold O(1e-3) mass inside z < 1e-4; widen the default
        # window so every emitted column integrates to 1 within 2e-3.
        zmin = cfg.z_min if cfg.z_min != 1e-4 else 1e-6
        zmax = cfg.z_max if cfg.z_max != 1.0 - 1e-4 else 1.0 - 1e-6
        zs = _grid(RunConfig(**{**asdict(cfg), "statistic": stat, "z_min": zmin, "z_max": zmax}))

    columns, labels = [], []
    if stat == "nz1_asym":
        # Analytic limit curves depend on theta only.
        for t in sorted({c[3] for c in curves}):
            labels.append(f"theta{t}")
            columns.append(np.asarray(sd.cdf_nz1_asymptotic(t, zs)))
    else:
        for label, n, m, theta in curves:
            model = sd.SpikedModel(n, m, theta, sd.STATISTICS[stat].variant)
            labels.append(label)
            columns.append(sd.density_values(stat, model, zs, preset="fast"))
    rows = ["z," + ",".join(labels)]
    for i, z in enumerate(zs):
        rows.append(_fmt(z) + "," + ",".join(_fmt(col[i]) for col in columns))
    _write_text(cfg.output_path, "\n".join(rows) + "\n")

    hist_rows = ["curve,bin_left,bin_right,density"]
    for idx, (label, n, m, theta) in enumerate(curves):
        sim_cfg = RunConfig(
            **{
                **asdict(cfg),
                "statistic": stat,
                "n": n,
                "m": m,
                "theta": theta,
                "seed": cfg.seed + idx,
            }
        )
        _, values = _simulate_values(sim_cfg)
        counts, edges = np.histogram(values, bins=40, density=True)
        for k in range(counts.size):
            hist_rows.append(
                f"{label},{_fmt(edges[k])},{_fmt(edges[k + 1])},{_fmt(counts[k])}"
            )
    if cfg.output_path != "-":
        _write_text(cfg.output_path + ".hist.csv", "\n".join(hist_rows) + "\n")
        meta = {
            "figure": fid,
            "statistic": stat,
            "curves": [
                {"label": lab, "n": n, "m": m, "theta": th} for lab, n, m, th in curves
            ],
            "samples": cfg.samples,
            "seed": cfg.seed,
            "note": "caption-omitted n lists default to {3,4,5,6,7}",
            "version": __version__,
        }
        _write_text(cfg.output_path + ".meta.json", json.dumps(meta, indent=1) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spiked-eigvec",
        description="Exact spiked-Wishart eigenvector overlap densities and their Monte-Carlo validation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, need_stat=True):
        if need_stat:
            p.add_argument("--stat", dest="statistic", choices=list(sd.STATISTICS), required=True)
            p.add_argument("--n", type=int)
            p.add_argument("--m", type=int)
            p.add_argument("--theta", type=float)
        p.add_argument("--out", dest="output_path", default="-")
        p.add_argument("--format", dest="fmt", choices=["csv", "json"], default="csv")
        p.add_argument("--seed", type=int, default=42)
        p.add_argument("--samples", type=int, default=100_000)
        p.add_argument("--z-min", dest="z_min", type=float, default=1e-4)
        p.add_argument("--z-max", dest="z_max", type=float, default=1.0 - 1e-4)
        p.add_argument("--grid-points", dest="grid_points", type=int, default=501)

    for name in ("pdf", "cdf", "simulate", "validate"):
        p = sub.add_parser(name)
        common(p)
        if name == "validate":
            p.add_argument(
                "--data-theta",
                dest="data_theta",
                type=float,
                default=None,
                help="draw samples from this theta while testing against --theta (negative-control harness)",
            )
    p = sub.add_parser("figure")
    p.add_argument("--id", dest="figure_id", required=True)
    common(p, need_stat=False)
    return parser


def _cfg_from_args(args: argparse.Namespace) -> RunConfig:
    known = {f.name for f in RunConfig.__dataclass_fields__.values()}
    kw = {k: v for k, v in vars(args).items() if k in known and v is not None}
    return RunConfig(**kw)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    cfg = _cfg_from_args(args)
    handlers = {
        "pdf": cmd_pdf,
        "cdf": cmd_cdf,
        "simulate": cmd_simulate,
        "validate": cmd_validate,
        "figure": cmd_figure,
    }
    try:
        return handlers[cfg.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (sd.UnsupportedModel, sd.DomainError, sd.ThetaZeroSingularity, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
