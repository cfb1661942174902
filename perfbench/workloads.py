"""The operations of each workload, their seeded inputs and their checks.

A run is a sequence of rounds.  Every round holds the same operations; the
run's seed jitters their thetas and draws the sampler seeds.  Each round
has a primary part, which gives the workload its name, and companion parts
of the other two kinds, spread between the primary operations, so that
every end-to-end metric is measured on every workload.  Companions stay off
the zn/z2 grid engines, and the validate companions draw a single sampler
chunk, so sampler worker threads only start on `validate`.

Every check tests a property the method must have; none compares against a
stored copy of earlier output.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import cumulative_trapezoid

import hostspeed
from spiked_eigvec import cli, numkit
from spiked_eigvec import spike_density as sd

WORKLOADS = ("tables", "normalize", "validate")

TABLE_POINTS = 501  # the CLI's default --grid-points
TRAPZ_TOL = 5e-3  # |F(z) - F(z_min) - cumulative trapezoid of the pdf table|
TAIL_TOL = 1e-2  # 1 - F(z_max); the arcsine tails of w1_real leave ~2e-3 above 1 - 1e-4
NORM_GATES = {"z1": 1e-6, "zn": 1e-6, "z2": 1e-4, "yn_sing": 1e-5}
NORM_Z, NORM_W = numkit.unit_grid(24, grade_left=2, grade_right=2)  # 120 nodes
KS_MISS = 1e-6  # chance that a correct sampler and density miss the KS gate
ASYM_GATE = 0.02  # n * z1 at n = 30, theta = 0.5 against its limit law (bias 2.6e-3)
MIN_NORM_CALLS = 40  # the latency tail needs ten samples beyond it

# Every theta below is a design point that the seed jitters upward by less
# than THETA_JITTER: enough to make each model of a run distinct (so every
# operation pays its own engine prepare), too little to change its cost.
THETA_JITTER = 1e-3

# (statistic, n, m, theta)
TABLE_MODELS = (
    ("zn", 5, 6, 3.0),  # double-integral grid route
    ("zn", 3, 5, 3.0),  # closed form
    ("zn", 4, 6, 3.0),  # closed form in extended precision
    ("z2", 3, 4, 3.0),
    ("z1", 10, 15, 3.0),  # alpha = 5 coefficient enumeration
    ("yn_sing", 5, 4, 0.3),
    ("w1_real", 2, 5, 1.0),
    ("y1_sing", 4, 1, 1.0),
)
# The table companion is one closed form at several (alpha, theta) of
# similar cost, so that its throughput averages many short samples.
TABLE_COMPANIONS = tuple(
    ("zn", 3, 3 + alpha, theta) for theta in (0.5, 1.0, 2.0) for alpha in (2, 3, 4, 5)
)
# Rejection of a NaN theta: exit code 2 and no table.
NAN_ARGV = ("pdf", "--stat", "z1", "--n", "4", "--m", "6", "--theta", "nan")

# (statistic, n, alpha); m = n + alpha, or n - 1 for yn_sing.  Round r gives
# cell i the theta NORM_THETAS[(i + r) % 4], the values acceptance criterion 1
# sweeps.  The cells fall in three cost groups (cheap closed forms; z2, yn and
# the mid-cost z1/zn; the zn grid route), sized so that the median and the
# tail rank of a two-round run fall inside a group rather than between two.
NORM_CELLS = (
    ("z1", 4, 3), ("z1", 6, 2), ("z1", 8, 4), ("zn", 3, 2),
    ("yn_sing", 4, None), ("yn_sing", 6, None), ("zn", 4, 3), ("z1", 8, 5),
    ("z2", 3, 1), ("z2", 4, 2), ("z2", 5, 3), ("z2", 6, 1), ("z2", 7, 2),
    ("zn", 5, 1), ("zn", 5, 2), ("zn", 6, 1), ("zn", 6, 2),
    ("zn", 7, 2), ("zn", 7, 3), ("zn", 8, 3), ("zn", 8, 4),
)
# The norm companion is one cell whose cost hardly depends on theta (the
# z1 coefficient build at n = 8, alpha = 4), so that the median and tail
# latencies of a companion are not set by which cells sit at those ranks.
NORM_COMPANION = ("z1", 8, 4)
NORM_COMPANION_CALLS = 80
NORM_THETAS = (0.1, 1.0, 3.0, 10.0)

# (statistic, n, m, theta, samples)
VALIDATE_MODELS = (
    ("z1", 3, 5, 3.0, 16384),
    ("z1", 4, 6, 3.0, 16384),
    ("zn", 3, 5, 3.0, 16384),
    ("zn", 4, 6, 3.0, 16384),
    ("z2", 3, 4, 3.0, 16384),
    ("w1_real", 2, 5, 1.0, 16384),
    ("y1_sing", 4, 1, 1.0, 16384),
    ("y1_sing", 4, 3, 0.3, 16384),
    ("nz1_asym", 30, 32, 0.5, 24576),
)
# One sampler chunk each (2048 draws), so no worker threads start.
VALIDATE_COMPANIONS = tuple(
    (stat, n, m, theta, 2048)
    for theta in (1.0, 2.0, 3.0)
    for stat, n, m in (("z1", 3, 4), ("zn", 3, 4), ("w1_real", 2, 3), ("y1_sing", 3, 1))
)
# Negative control: data drawn at theta = 10, tested against theta = 0.
CONTROL = ("z1", 3, 5, 0.0, 10.0, 4096)


@dataclass
class Result:
    """Outcome of one operation; status is "ok", "failed" or "wrong"."""

    kind: str  # "table", "norm" or "validate"
    label: str
    status: str
    spans: list  # hostspeed.timed spans of the calls into the package
    work: int = 0  # table rows, models or draws delivered; 0 when failed
    detail: str = ""

    @property
    def seconds(self) -> float:
        """Wall time inside the package's calls."""
        return hostspeed.wall(self.spans)


def _variant(stat: str) -> str:
    return {"w": "real", "y": "singular"}.get(stat[0], "complex")


def ks_gate(samples: int) -> float:
    """KS distance a correct sample exceeds with chance at most KS_MISS (DKW-Massart)."""
    return math.sqrt(math.log(2.0 / KS_MISS) / (2.0 * samples))


def run_cli(argv) -> tuple[int, str, tuple]:
    """cli.main with stdout captured; returns (exit code, output, timed span)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc, span = hostspeed.timed(lambda: cli.main([str(a) for a in argv]))
    return rc, out.getvalue(), span


def _parse_table(text: str, head: str) -> tuple[np.ndarray, np.ndarray]:
    lines = text.splitlines()
    if not lines or lines[0] != head:
        raise ValueError(f"table does not start with {head!r}")
    data = np.array([line.split(",") for line in lines[1:]], dtype=float)
    return data[:, 0], data[:, 1]


def check_tables(pdf_text: str, cdf_text: str) -> str:
    """Empty string if a pdf table and a cdf table of one model are consistent."""
    try:
        z, f = _parse_table(pdf_text, "z,density")
        zc, big_f = _parse_table(cdf_text, "z,cdf")
    except (ValueError, IndexError) as exc:
        return f"unreadable table: {exc}"
    if z.size != TABLE_POINTS or not np.array_equal(z, zc) or np.any(np.diff(z) <= 0):
        return "grids differ from the expected increasing 501-point grid"
    if not (np.all(np.isfinite(f)) and np.all(np.isfinite(big_f))):
        return "non-finite value"
    if np.any(f < 0) or np.any(big_f < 0) or np.any(big_f > 1):
        return "pdf below 0 or cdf outside [0, 1]"
    if np.any(np.diff(big_f) < 0):
        return "cdf decreases"
    if 1.0 - big_f[-1] > TAIL_TOL:
        return f"cdf at z_max is {big_f[-1]:.6f}"
    dev = float(np.max(np.abs(big_f - big_f[0] - cumulative_trapezoid(f, z, initial=0.0))))
    if dev > TRAPZ_TOL:
        return f"cumulative trapezoid of the pdf misses the cdf by {dev:.2e}"
    return ""


def check_integral(stat: str, total: float) -> str:
    """Empty string if a normalization integral meets the gate of its statistic."""
    err = abs(total - 1.0)
    return "" if err <= NORM_GATES[stat] else f"integral {total!r} misses 1 by {err:.2e}"


def check_validation(report: dict, rc: int, stat: str, samples: int, control: bool) -> str:
    """Empty string if a validate report is well formed and meets its gate."""
    d = report["ks_statistic"]
    if report["sample_count"] != samples:
        return f"report covers {report['sample_count']} draws, not {samples}"
    if rc != (0 if report["passed"] else 1):
        return f"exit code {rc} contradicts passed={report['passed']}"
    gate = ASYM_GATE if stat == "nz1_asym" else ks_gate(samples)
    if control:
        return "" if rc == 1 and d > gate else f"negative control accepted: D={d:.4f}"
    return "" if d <= gate else f"KS distance {d:.4f} above gate {gate:.4f}"


def _guarded(kind, label, body):
    """Run an operation body; an exception escaping the package fails the operation."""

    def run() -> Result:
        try:
            return body()
        except Exception as exc:  # the run goes on and reports the failure
            return Result(kind, label, "failed", [], detail=f"{type(exc).__name__}: {exc}")

    return run


def table_op(stat, n, m, theta):
    label = f"table {stat} n={n} m={m} theta={theta!r}"
    model = ("--stat", stat, "--n", n, "--m", m, "--theta", repr(theta))

    def run() -> Result:
        rc_pdf, pdf_text, t_pdf = run_cli(("pdf",) + model)
        rc_cdf, cdf_text, t_cdf = run_cli(("cdf",) + model)
        spans = [t_pdf, t_cdf]
        if (rc_pdf, rc_cdf) != (0, 0):
            return Result("table", label, "failed", spans, detail=f"exit {rc_pdf}, {rc_cdf}")
        problem = check_tables(pdf_text, cdf_text)
        rows = pdf_text.count("\n") + cdf_text.count("\n") - 2
        return Result("table", label, "wrong" if problem else "ok", spans, rows, problem)

    return _guarded("table", label, run)


def nan_op():
    label = "table " + " ".join(NAN_ARGV)

    def run() -> Result:
        rc, out, span = run_cli(NAN_ARGV)
        ok = rc == 2 and out == ""
        detail = "" if ok else f"exit {rc} with {out.count(chr(10))} lines written, expected exit 2"
        return Result("table", label, "ok" if ok else "failed", [span], detail=detail)

    return _guarded("table", label, run)


def norm_op(stat, n, alpha, theta):
    m = n - 1 if alpha is None else n + alpha
    model = sd.SpikedModel(n, m, theta, _variant(stat))
    label = f"norm {stat} n={n} m={m} theta={theta!r}"

    def run() -> Result:
        total, span = hostspeed.timed(
            lambda: float(NORM_W @ sd.density_values(stat, model, NORM_Z, preset="fast"))
        )
        problem = check_integral(stat, total)
        return Result("norm", label, "wrong" if problem else "ok", [span], 1, problem)

    return _guarded("norm", label, run)


def validate_op(stat, n, m, theta, samples, seed, data_theta=None):
    argv = ["validate", "--stat", stat, "--n", n, "--m", m, "--theta", repr(theta),
            "--samples", samples, "--seed", seed]
    if data_theta is not None:
        argv += ["--data-theta", repr(data_theta)]
    label = " ".join(map(str, argv))

    def run() -> Result:
        rc, out, span = run_cli(argv)
        if rc not in (0, 1):
            return Result("validate", label, "failed", [span], detail=f"exit {rc}")
        problem = check_validation(
            json.loads(out)["report"], rc, stat, samples, data_theta is not None
        )
        return Result("validate", label, "wrong" if problem else "ok", [span], samples, problem)

    return _guarded("validate", label, run)


def _jitter(rng, theta: float) -> float:
    return float(theta * (1.0 + THETA_JITTER * rng.random()))


def _tables(rng, models):
    return [table_op(s, n, m, _jitter(rng, t)) for s, n, m, t in models]


def _norms(rng, cells, shift):
    return [
        norm_op(s, n, a, _jitter(rng, NORM_THETAS[(i + shift) % len(NORM_THETAS)]))
        for i, (s, n, a) in enumerate(cells)
    ]


def _validates(rng, models):
    return [
        validate_op(s, n, m, _jitter(rng, t), count, int(rng.integers(1, 2**31)))
        for s, n, m, t, count in models
    ]


def _norm_companions(rng):
    """NORM_COMPANION at thetas stratified log-uniformly over [0.1, 10]."""
    u = (np.arange(NORM_COMPANION_CALLS) + rng.random(NORM_COMPANION_CALLS)) / NORM_COMPANION_CALLS
    stat, n, alpha = NORM_COMPANION
    return [norm_op(stat, n, alpha, float(0.1 * 100.0**x)) for x in u]


def _interleave(primary: list, *companions: list) -> list:
    """Spread each list of companion operations evenly between the primary ones,
    so that companion metrics sample the whole round rather than one stretch."""
    out, k = [], len(primary)
    for i, op in enumerate(primary):
        out.append(op)
        for ops in companions:
            out.extend(ops[i * len(ops) // k:(i + 1) * len(ops) // k])
    return out


def make_round(workload: str, seed: int, index: int) -> list:
    """The operations of round `index`; the same (seed, index) gives the same inputs."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload), index])
    if workload == "tables":
        primary = _tables(rng, TABLE_MODELS) + [nan_op()]
        companions = _norm_companions(rng), _validates(rng, VALIDATE_COMPANIONS)
    elif workload == "normalize":
        primary = _norms(rng, NORM_CELLS, index)
        companions = _tables(rng, TABLE_COMPANIONS), _validates(rng, VALIDATE_COMPANIONS)
    else:
        stat, n, m, theta, data_theta, count = CONTROL
        primary = _validates(rng, VALIDATE_MODELS) + [
            validate_op(stat, n, m, theta, count, int(rng.integers(1, 2**31)), data_theta)
        ]
        companions = _tables(rng, TABLE_COMPANIONS), _norm_companions(rng)
    return _interleave(primary, *companions)


def tail(values) -> float:
    """The highest order statistic with at least ten samples beyond it."""
    return float(np.sort(values)[-11])


def end_to_end(results, seconds=lambda r: r.seconds) -> dict:
    """Workload metrics from the operations of a run (setup and memory excluded).

    `seconds(result)` gives the time an operation counts for: its wall time
    by default."""

    def of(kind):
        return [r for r in results if r.kind == kind]

    tables, norms, validates = of("table"), of("norm"), of("validate")
    lat = [seconds(r) for r in norms]
    return {
        "table_points_per_s": (sum(r.work for r in tables) / sum(map(seconds, tables)), "points/s"),
        "norm_models_per_s": (len(norms) / sum(lat), "models/s"),
        "norm_call_p50_s": (float(np.median(lat)), "s"),
        "norm_call_tail_s": (tail(lat), "s"),
        "mc_draws_per_s": (sum(r.work for r in validates) / sum(map(seconds, validates)), "draws/s"),
    }
