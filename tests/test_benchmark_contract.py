"""The package surface that `perfbench/` calls.

The benchmark calls `density_values(..., preset="fast")`, `make_spike(n, 0,
real=...)`, `sample_wishart(model, spike, 1, count, workers=...)`,
`worker_count()` and `numkit.unit_grid`, and its tracer patches the module
attributes named in `tracing.TRACED`.  These checks only read `perfbench/`:
bytecode writing is off, so neither leaves a file behind.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_perfbench_selfcheck_passes():
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    run = subprocess.run([sys.executable, str(PERFBENCH / "selfcheck.py")], env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stdout + run.stderr


def test_perfbench_tracer_finds_its_targets(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    for name in tracing.TRACED:
        module, attr = name.split(".")
        assert callable(getattr(tracing.MODULES[module], attr)), name
    assert tracing.MODULES["montecarlo"].worker_count() >= 1  # `run.py` records it
    probes = tracing.probe_layers()
    assert len(probes) == 16
    assert all(math.isfinite(value) for value, _ in probes.values())
