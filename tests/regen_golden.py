"""Golden outputs of the `wsfair` commands that `test_golden.py` checks.

Regenerate them with

    PYTHONPATH=src python tests/regen_golden.py

which runs every case through `wsfair.cli.main` and rewrites
`tests/golden/<case>/`. Do so only for a change that alters output bytes on
purpose, and say in CHANGES.md which outputs moved and why.

The cases are the benchmark workloads' `wsfair run` commands at 2,000 rows
per group, an `sbm-sinkhorn` run on lfcount data, whose groups sit 10 to 50
units apart, all at seeds 0, 7 and 100, and the README's three sweeps at
seeds 0 and 1.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"

_PAIR_RUN = ["--direct-lf-eval", "--postprocess", "dp-threshold"]
_PAIR = ["--experiment", "gaussian-pair", "--n", "2000"]
RUNS = {  # workload: (synth arguments, run arguments)
    "pair-linear": (_PAIR, ["--method", "sbm-linear", *_PAIR_RUN]),
    "pair-sinkhorn": (_PAIR, ["--method", "sbm-sinkhorn", "--sinkhorn-max-points", "5000",
                              *_PAIR_RUN]),
    "lfcount-baseline": (["--experiment", "lfcount", "--n", "4000", "--m", "24"],
                         ["--method", "baseline", "--postprocess", "dp-threshold",
                          "--max-iters", "3000"]),
    # far-apart groups: the Sinkhorn fit runs in both directions and absorbs
    "lfcount-sinkhorn": (["--experiment", "lfcount", "--n", "4000", "--m", "12"],
                         ["--method", "sbm-sinkhorn", "--postprocess", "dp-threshold"]),
}
RUN_SEEDS = (0, 7, 100)
SWEEPS = {
    "sweep-samples": ["--experiment", "samples", "--grid", "100,1000,10000",
                      "--eval", "direct-lf", "--methods", "baseline,sbm-linear"],
    "sweep-lfs": ["--experiment", "lfs", "--grid", "3,6,12,24", "--eval", "direct-lf"],
    "sweep-shift": ["--experiment", "shift", "--grid", "0,10,100,1000"],
}
CASES = [f"run-{name}-s{seed}" for name in RUNS for seed in RUN_SEEDS] + list(SWEEPS)


def produce(case: str, workdir: Path) -> Path:
    """Run `case` in `workdir`; return the directory that holds its outputs."""
    from wsfair import cli

    out = workdir / "out"
    if case in SWEEPS:
        argv = ["sweep", *SWEEPS[case], "--seeds", "0..1", "--out", str(out / "summary.csv"),
                "--per-seed-out", str(out / "per_seed.csv")]
    else:
        name, seed = case[len("run-"):].rsplit("-s", 1)
        synth_args, run_args = RUNS[name]
        data = workdir / "data"
        if cli.main(["synth", *synth_args, "--seed", seed, "--outdir", str(data)]) != 0:
            raise RuntimeError(f"{case}: synth failed")
        argv = ["run", "--features", str(data / "features.csv"),
                "--weak", str(data / "weak.csv"), "--labels", str(data / "labels.csv"),
                "--outdir", str(out), "--seed", seed, *run_args]
    if cli.main(argv) != 0:
        raise RuntimeError(f"{case}: {argv[0]} failed")
    return out


def main() -> int:
    for case in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            out = produce(case, Path(tmp))
            shutil.rmtree(GOLDEN / case, ignore_errors=True)
            shutil.copytree(out, GOLDEN / case)
        print(f"wrote {GOLDEN / case}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
