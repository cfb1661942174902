"""Benchmark of the spiked-eigvec package: one workload per run.

    python3 perfbench/run.py --workload {tables,normalize,validate} \
        --seed N --seconds S --trace {0,1}

Each run imports the package from this checkout's `src`, measures set-up in
fresh processes, then runs whole rounds of the workload's operations until
S seconds have passed (and at least 40 normalization calls were made).
Every output is checked.  The last line of standard output is one JSON
object with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
metrics with `--trace 0`, the per-layer metrics with `--trace 1`.  The line
before it records the thread environment and, with `--trace 0`, the same
timings in plain wall-clock seconds.  End-to-end timings are in
reference-speed seconds (see `hostspeed.py`); set-up is measured only with
`--trace 0`.  A traced run also writes its spans to `.perfbench_out/` at
the checkout root.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import hostspeed
import warmup

SETUP_SAMPLES = 3
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def measure_setup() -> list:
    """Spans (see `hostspeed.timed`) of fresh interpreters importing and warming up
    the package.  Each one prints the kernel times of its own core last."""
    argv = [sys.executable, str(warmup.ROOT / "perfbench" / "warmup.py")]
    spans = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        out = subprocess.run(argv, check=True, capture_output=True, text=True, timeout=120).stdout
        before, after = map(float, out.split()[-2:])
        spans.append((t0, time.perf_counter(), before, after))
    return spans


def thread_environment() -> dict:
    """The thread settings the run inherited; the benchmark sets none of them."""
    import numpy as np
    from spiked_eigvec import montecarlo

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "SPIKED_EIGVEC_THREADS": os.environ.get("SPIKED_EIGVEC_THREADS"),
        "blas_env": {k: os.environ[k] for k in BLAS_THREAD_VARS if k in os.environ},
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "sampler_workers": montecarlo.worker_count(),
    }


def run_rounds(workload: str, seed: int, seconds: float) -> list:
    """Whole rounds until `seconds` have passed and the norm latency tail is defined."""
    import workloads

    results, index = [], 0
    t_end = time.perf_counter() + seconds
    while True:
        for op in workloads.make_round(workload, seed, index):
            results.append(op())
        index += 1
        norm_calls = sum(r.kind == "norm" for r in results)
        if time.perf_counter() >= t_end and norm_calls >= workloads.MIN_NORM_CALLS:
            return results


def write_trace(workload: str, seed: int, tracer, env: dict) -> None:
    out_dir = warmup.ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    summary = tracer.summary()
    with open(out_dir / f"trace-{workload}-seed{seed}.json", "w") as fh:
        json.dump({"env": env, "summary": summary, "spans": tracer.spans}, fh)
    for name, row in sorted(summary.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"span {name}: {row['calls']} calls, {row['total_s']:.3f} s total, "
              f"{row['self_s']:.3f} s self", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("tables", "normalize", "validate"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    warmup.import_package()
    if args.trace:
        warmup.warm_up()
        import tracing

        env = thread_environment()
        print(json.dumps({"env": env}))
        tracer = tracing.Tracer()
        with tracer.installed():
            results = run_rounds(args.workload, args.seed, args.seconds)
        span_cost, count_cost = tracing.recorder_cost()
        metrics = tracing.per_layer(tracer, tracing.probe_layers(), span_cost, count_cost)
        write_trace(args.workload, args.seed, tracer, env)
    else:
        import workloads

        with hostspeed.Probe() as probe:
            setup = measure_setup()
            warmup.warm_up()
            env = thread_environment()
            results = run_rounds(args.workload, args.seed, args.seconds)
        metrics = workloads.end_to_end(results, lambda r: probe.scaled(r.spans))
        metrics["setup_s"] = (statistics.median(probe.scaled([s]) for s in setup), "s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        wall = workloads.end_to_end(results)
        wall["setup_s"] = (statistics.median(hostspeed.wall([s]) for s in setup), "s")
        slowness = [probe.slowness(span) for r in results for span in r.spans]
        print(json.dumps({"env": env, "wall_clock": {k: v for k, (v, _) in wall.items()},
                          "median_slowness": statistics.median(slowness),
                          "probe_samples": len(probe.costs)}))

    for r in results:
        if r.status != "ok":
            print(f"{r.status}: {r.label}: {r.detail}", file=sys.stderr)
    print(json.dumps({
        "correct": all(r.status != "wrong" for r in results),
        "attempted": len(results),
        "failed": sum(r.status == "failed" for r in results),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
