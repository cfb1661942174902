"""Set-up of a fresh process: import the package and run each command once.

The warm-up models use theta = 0.05, which no workload draws, so no engine
cache filled here serves a measured operation.  Run as a script, this file
does one set-up, prints the calibration kernel's time (see `hostspeed.py`)
from before and after it, and exits; `run.py` times that from spawn to exit to get `setup_s`.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WARMUP_THETA = "0.05"
# One small call per density route, then the c.d.f. and validate paths.
WARMUP_PDF = (
    ("zn", 3, 5), ("zn", 4, 6), ("zn", 5, 6), ("z2", 3, 4), ("z1", 4, 7), ("z1", 6, 11),
    ("yn_sing", 4, 3), ("w1_real", 2, 4), ("y1_sing", 3, 1),
)
WARMUP_ARGV = tuple(
    ["pdf", "--stat", stat, "--n", str(n), "--m", str(m), "--theta", WARMUP_THETA,
     "--grid-points", "3"]
    for stat, n, m in WARMUP_PDF
) + (
    ["cdf", "--stat", "z1", "--n", "3", "--m", "5", "--theta", WARMUP_THETA, "--grid-points", "3"],
    ["validate", "--stat", "z1", "--n", "2", "--m", "3", "--theta", WARMUP_THETA,
     "--samples", "64", "--seed", "1"],
)


def import_package():
    """Import the package from this checkout's `src`, refusing any other copy."""
    if not (SRC / "spiked_eigvec" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package source under {SRC}")
    sys.path.insert(0, str(SRC))
    import spiked_eigvec

    if Path(spiked_eigvec.__file__).resolve().parent != (SRC / "spiked_eigvec").resolve():
        raise SystemExit(f"perfbench: imported {spiked_eigvec.__file__}, not the checkout's copy")
    return spiked_eigvec


def warm_up() -> None:
    """Run every command the workloads use once, on a model outside them."""
    from spiked_eigvec import cli

    for argv in WARMUP_ARGV:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
        if rc not in (0, 1):
            raise SystemExit(f"perfbench: warm-up {' '.join(argv)} exited {rc}")


if __name__ == "__main__":
    import hostspeed

    before = hostspeed.kernel_time()
    import_package()
    warm_up()
    print(before, hostspeed.kernel_time())
