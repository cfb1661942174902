"""Command-line surface: density/CDF grids, simulation, validation, figures.

The parsed argparse namespace is the configuration.  Each subcommand accepts
exactly the options its handler reads (`--help` lists them), so argparse
rejects any other option with exit code 2.  A statistic's facts come from
`spike_density.STATISTICS`: a limit law (`Statistic.law`) runs past z = 1, and
pdf and cdf evaluate it from --theta alone unless --n or --m is given.  pdf and
cdf tabulate on [1e-4, 1 - 1e-4] by default, figure on [1e-6, 1 - 1e-6] (fig5
on [0, 6]): steep curves hold O(1e-3) mass inside z < 1e-4, and the wider
window lets every emitted column integrate to 1 within 2e-3.

All outputs are deterministic: CSV cells carry 17 significant digits with '.'
decimal separators and LF line endings, simulation is reproducible bit for
bit from (model, seed, count) regardless of worker count, and JSON sidecars
echo the full configuration.

Exit codes: 0 success (or validation pass), 1 validation failure, 2 invalid
configuration, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys

import numpy as np

from . import __version__, montecarlo, numkit
from . import spike_density as sd

# FloatingPointError and the engines' basis and series breakdowns are ArithmeticErrors.
_NUMERICAL_ERRORS = (montecarlo.EigensolverFailure, ArithmeticError)


class ConfigError(ValueError):
    """An invalid command configuration (reported with exit code 2)."""


def build_model(stat: str, n: int | None, m: int | None, theta: float | None) -> sd.SpikedModel:
    """Validate the (statistic, n, m, theta) combination and build the model;
    the model and support checks raise ValueErrors, which `main` reports."""
    entry = sd.STATISTICS[stat]
    if theta is None:
        raise ConfigError("--theta is required")
    if n is None or m is None:
        raise ConfigError("--n and --m are required for this statistic")
    model = sd.SpikedModel(n, m, theta, entry.variant)
    entry.support(model)
    return model


def _grid(stat: str, z_min: float, z_max: float, points: int) -> np.ndarray:
    if points < 2:
        raise ConfigError("grid_points must be at least 2")
    if not np.isfinite(z_max):
        raise ConfigError(f"z-max must be finite, got {z_max}")
    if not (0.0 <= z_min < z_max):
        raise ConfigError("need 0 <= z-min < z-max")
    if z_max > 1.0 and not sd.STATISTICS[stat].law:
        raise ConfigError("z-max cannot exceed 1 for projection statistics")
    if sd.STATISTICS[stat].arcsine:
        # sin^2-spaced grid resolves the inverse-square-root endpoints.
        lo, hi = np.arcsin(np.sqrt(z_min)), np.arcsin(np.sqrt(z_max))
        return np.sin(np.linspace(lo, hi, points)) ** 2
    return np.linspace(z_min, z_max, points)


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)


def cmd_curve(args: argparse.Namespace) -> int:
    """The pdf or cdf subcommand: one statistic's curve on a z grid."""
    stat, kind = args.statistic, args.command
    zs = _grid(stat, args.z_min, args.z_max, args.grid_points)
    law = sd.STATISTICS[stat].law
    if law and args.theta is not None and args.n is None and args.m is None:
        # With no --n or --m, a limit law takes theta alone; the library checks its value.
        values, echo = np.asarray(law[kind](args.theta, zs)), {"theta": args.theta}
    else:
        model = build_model(stat, args.n, args.m, args.theta)
        curve = sd.density_values if kind == "pdf" else sd.cdf_grid
        values, echo = curve(stat, model, zs), dataclasses.asdict(model)
    if args.fmt == "csv":
        head = "z,density" if kind == "pdf" else "z,cdf"
        rows = [head] + [f"{_fmt(z)},{_fmt(v)}" for z, v in zip(zs, values)]
        text = "\n".join(rows) + "\n"
    else:
        payload = {
            "kind": kind,
            "statistic": stat,
            "model": echo,
            "grid": [float(z) for z in zs],
            "values": [float(v) for v in values],
            "version": __version__,
        }
        text = json.dumps(payload, indent=1) + "\n"
    _write_text(args.output_path, text)
    return 0


def _draw(stat: str, model: sd.SpikedModel, seed: int, samples: int) -> np.ndarray:
    """`samples` seeded draws of `stat` from `model`."""
    spike = montecarlo.make_spike(model.n, real=model.variant == "real")
    return montecarlo.sample_wishart(model, spike, seed, samples, statistics=(stat,))[stat]


def cmd_simulate(args: argparse.Namespace) -> int:
    model = build_model(args.statistic, args.n, args.m, args.theta)
    values = _draw(args.statistic, model, args.seed, args.samples)
    rows = ["index,value"] + [f"{i},{_fmt(v)}" for i, v in enumerate(values)]
    _write_text(args.output_path, "\n".join(rows) + "\n")
    meta = {
        "statistic": args.statistic,
        "model": dataclasses.asdict(model),
        "seed": args.seed,
        "count": args.samples,
        "version": __version__,
    }
    if args.output_path != "-":
        _write_text(args.output_path + ".meta.json", json.dumps(meta, indent=1) + "\n")
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    stat = args.statistic
    data_theta = args.theta if args.data_theta is None else args.data_theta
    # Both models and the tested c.d.f. are checked before the sampler runs.
    data_model = build_model(stat, args.n, args.m, data_theta)
    model = build_model(stat, args.n, args.m, args.theta)
    cdf = sd.model_cdf_fn(stat, model)
    values = _draw(stat, data_model, args.seed, args.samples)
    report = numkit.ks_test(values, cdf)
    payload = {
        "statistic": stat,
        "model": dataclasses.asdict(model),
        "data_theta": data_theta,
        "seed": args.seed,
        "report": dataclasses.asdict(report),
        "version": __version__,
    }
    _write_text(args.output_path, json.dumps(payload, indent=1) + "\n")
    return 0 if report.passed else 1


_FIGURES = {
    # figure id -> (statistic, list of (label, n, m, theta)[, z-min, z-max]); [1e-6, 1 - 1e-6] if none
    "fig1": ("z1", [(f"n{n}", n, n + 2, 3.0) for n in (3, 4, 5, 6, 7)]),
    "fig3": ("z1", [(f"theta{t}", 3, 5, t) for t in (0.1, 1.0, 10.0)]),
    "fig5": ("nz1_asym", [(f"n{n}_theta{t}", n, n + 2, t) for n in (15, 25, 30) for t in (0.5, 1.0, 5.0)],
             0.0, 6.0),
    "fig6": ("zn", [(f"n{n}", n, n + 2, 3.0) for n in (3, 4, 5, 6, 7)]),
    "fig8": ("zn", [(f"theta{t}", 3, 5, t) for t in (0.1, 1.0, 10.0)]),
    "fig11": ("z2", [(f"n{n}", n, n + 1, 3.0) for n in (3, 4, 5, 6, 7)]),
    "fig12": ("w1_real", [(f"theta{t}", 2, 5, t) for t in (0.5, 2.0)]),
    "fig14": ("y1_sing", [(f"n{n}", n, n - 1, 0.3) for n in (3, 4, 5, 6, 7)]),
    "fig16": ("yn_sing", [(f"n{n}", n, n - 1, 0.3) for n in (3, 4, 5, 6, 7)]),
}


def cmd_figure(args: argparse.Namespace) -> int:
    fid = args.figure_id
    if fid not in _FIGURES:
        raise ConfigError(f"unknown figure id {fid!r}; supported: {sorted(_FIGURES)}")
    stat, curves, *window = _FIGURES[fid]
    lo, hi = window or (1e-6, 1.0 - 1e-6)
    zs = _grid(stat, lo if args.z_min is None else args.z_min,
               hi if args.z_max is None else args.z_max, args.grid_points)
    columns, labels = [], []
    law = sd.STATISTICS[stat].law
    if law:
        # A limit law's c.d.f. curves depend on theta only.
        for t in sorted({c[3] for c in curves}):
            labels.append(f"theta{t}")
            columns.append(np.asarray(law["cdf"](t, zs)))
    else:
        for label, n, m, theta in curves:
            labels.append(label)
            columns.append(sd.density_values(stat, build_model(stat, n, m, theta), zs))
    rows = ["z," + ",".join(labels)]
    for i, z in enumerate(zs):
        rows.append(_fmt(z) + "," + ",".join(_fmt(col[i]) for col in columns))
    table = "\n".join(rows) + "\n"
    if args.output_path == "-":  # the histograms go only to a file's sidecar
        _write_text("-", table)
        return 0
    # Every draw is made before anything is written, so a failed draw leaves
    # no partial table behind.  A limit law's table is its c.d.f., so its
    # sidecar holds the draws' empirical c.d.f. at each bin's right edge.
    hist_rows = ["curve,bin_left,bin_right," + ("cdf" if law else "density")]
    for idx, (label, n, m, theta) in enumerate(curves):
        values = _draw(stat, build_model(stat, n, m, theta), args.seed + idx, args.samples)
        counts, edges = np.histogram(values, bins=40, density=not law)
        if law:
            counts = np.cumsum(counts) / values.size
        for k in range(counts.size):
            hist_rows.append(
                f"{label},{_fmt(edges[k])},{_fmt(edges[k + 1])},{_fmt(counts[k])}"
            )
    _write_text(args.output_path, table)
    _write_text(args.output_path + ".hist.csv", "\n".join(hist_rows) + "\n")
    meta = {
        "figure": fid,
        "statistic": stat,
        "curves": [
            {"label": lab, "n": n, "m": m, "theta": th} for lab, n, m, th in curves
        ],
        "samples": args.samples,
        "seed": args.seed,
        "note": "caption-omitted n lists default to {3,4,5,6,7}",
        "version": __version__,
    }
    _write_text(args.output_path + ".meta.json", json.dumps(meta, indent=1) + "\n")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process; each parse starts a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="spiked-eigvec",
        description="Exact spiked-Wishart eigenvector overlap densities and their Monte-Carlo validation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def subcommand(name, run, fmt=False, draws=False, window=None):
        """A subparser whose handler is `run`; the flags add the options it reads."""
        p = sub.add_parser(name)
        p.set_defaults(run=run)
        if name == "figure":
            p.add_argument("--id", dest="figure_id", required=True)
        else:
            p.add_argument("--stat", dest="statistic", choices=list(sd.STATISTICS), required=True)
            p.add_argument("--n", type=int)
            p.add_argument("--m", type=int)
            p.add_argument("--theta", type=float)
        p.add_argument("--out", dest="output_path", default="-")
        if fmt:
            p.add_argument("--format", dest="fmt", choices=["csv", "json"], default="csv")
        if draws:
            p.add_argument("--seed", type=int, default=42)
            p.add_argument("--samples", type=int, default=100_000)
        if window:
            p.add_argument("--z-min", dest="z_min", type=float, default=window[0])
            p.add_argument("--z-max", dest="z_max", type=float, default=window[1])
            p.add_argument("--grid-points", dest="grid_points", type=int, default=501)
        return p

    for name in ("pdf", "cdf"):
        subcommand(name, cmd_curve, fmt=True, window=(1e-4, 1.0 - 1e-4))
    subcommand("simulate", cmd_simulate, draws=True)
    subcommand("validate", cmd_validate, draws=True).add_argument(
        "--data-theta",
        dest="data_theta",
        type=float,
        default=None,
        help="draw samples from this theta while testing against --theta (negative-control harness)",
    )
    # figure's window defaults depend on the figure id; cmd_figure fills them in.
    subcommand("figure", cmd_figure, draws=True, window=(None, None))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # The one sample-count check, made before any subcommand computes or writes.
        if getattr(args, "samples", 1) < 1:
            raise ConfigError("samples must be at least 1")
        return args.run(args)
    except ValueError as exc:  # ConfigError and the density errors included
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
