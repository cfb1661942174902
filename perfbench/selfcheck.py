"""Show that each correctness check of the benchmark catches a wrong answer.

    python3 perfbench/selfcheck.py

For each check, a correct output must pass and a deliberately wrong one must
fail: a pdf table scaled by 1.01, a normalization integral of a pdf scaled
by 1.01, and a validation run whose data come from a different theta than
the model it is tested against.  Exits 0 when every check behaves so.
"""

from __future__ import annotations

import json
import sys

import warmup


def scaled_pdf_table(text: str, factor: float) -> str:
    head, *rows = text.splitlines()
    out = [head]
    for row in rows:
        z, f = row.split(",")
        out.append(f"{z},{float(f) * factor!r}")
    return "\n".join(out) + "\n"


def main() -> int:
    warmup.import_package()
    import workloads as wl
    from spiked_eigvec import spike_density as sd

    cases = []

    model = ("--stat", "zn", "--n", "3", "--m", "5", "--theta", "3")
    _, pdf_text, _ = wl.run_cli(("pdf",) + model)
    _, cdf_text, _ = wl.run_cli(("cdf",) + model)
    cases.append(("tables: pdf and cdf of one model", wl.check_tables(pdf_text, cdf_text), False))
    cases.append(("tables: pdf scaled by 1.01",
                  wl.check_tables(scaled_pdf_table(pdf_text, 1.01), cdf_text), True))

    vals = sd.density_values("z1", sd.SpikedModel(5, 8, 3.0), wl.NORM_Z, preset="fast")
    for label, factor in (("normalize: z1 pdf", 1.0), ("normalize: z1 pdf scaled by 1.01", 1.01)):
        problem = wl.check_integral("z1", float(wl.NORM_W @ (factor * vals)))
        cases.append((label, problem, factor != 1.0))

    samples = 16384
    for label, data_theta in (("validate: matched theta", None),
                              ("validate: data theta 2 against model theta 3", 2.0)):
        argv = ["validate", "--stat", "z1", "--n", "3", "--m", "5", "--theta", "3",
                "--samples", samples, "--seed", 7]
        if data_theta is not None:
            argv += ["--data-theta", data_theta]
        rc, out, _ = wl.run_cli(argv)
        report = json.loads(out)["report"]
        problem = wl.check_validation(report, rc, "z1", samples, control=False)
        cases.append((label, problem, data_theta is not None))

    ok = True
    for label, problem, must_fail in cases:
        good = bool(problem) == must_fail
        ok &= good
        verdict = f"rejected ({problem})" if problem else "accepted"
        print(f"{'PASS' if good else 'FAIL'} {label}: {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
