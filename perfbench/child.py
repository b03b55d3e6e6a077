"""One workload in a fresh process: `wsfair synth`, then timed `wsfair run` jobs.

Started by run.py with a JSON spec as its only argument; writes a JSON result
to the spec's `out` path. Roles:

- `setup`: imports plus `wsfair synth`, then exit (a set-up time sample);
- `timed`: set-up, then untraced jobs, at least `min_jobs` and until
  `seconds` have passed since the first job started (run.py gives each
  timed child one job, so that per-process effects such as memory layout
  average out over a run's many processes);
- `traced`: like `timed`, but jobs alternate untraced / traced, starting
  untraced, so the tracing overhead is measured in the same process.

Every job checks its own output: exit code 0, a parsable report.json with
`label_model.accuracy` and `end_model.accuracy` at or above the workload's
floors, and report.json and per_lf.csv bytes equal to those of the first job
of the process. The result carries the SHA-256 of those bytes, so run.py can
compare them across processes too.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np
from wsfair import cli

import spans


def _blas_info() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        return "unknown"


def _check(outdir: Path, floors, first: dict):
    """Return (failure reason or None, parsed report)."""
    try:
        report_bytes = (outdir / "report.json").read_bytes()
        report = json.loads(report_bytes)
        accs = (report["label_model"]["accuracy"], report["end_model"]["accuracy"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return f"report.json missing or unparsable: {exc!r}", None
    per_lf = outdir / "per_lf.csv"
    outputs = {"report.json": report_bytes,
               "per_lf.csv": per_lf.read_bytes() if per_lf.exists() else None}
    if not first:
        first.update(outputs)
    changed = [name for name, data in outputs.items() if data != first[name]]
    if changed:
        return f"bytes differ from the first job: {', '.join(changed)}", report
    for part, acc, floor in zip(("label_model", "end_model"), accs, floors):
        if acc is None or acc < floor:
            return f"{part}.accuracy {acc} below floor {floor}", report
    return None, report


def main(spec: dict) -> dict:
    root = Path(spec["root"])
    if not Path(cli.__file__).resolve().is_relative_to(root / "src"):
        raise RuntimeError(f"wsfair imported from {cli.__file__}, not {root / 'src'}")

    role = spec["role"]
    tracer = spans.Tracer()
    installed = spans.Installed(tracer) if role == "traced" else None
    result = {"python": platform.python_version(), "numpy": np.__version__,
              "blas": _blas_info(),
              "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}

    rc = cli.main(spec["synth"])
    result["setup_s"] = time.monotonic() - spec["t_spawn"]
    if rc != 0:
        raise RuntimeError(f"wsfair synth exited with {rc}")
    if installed is not None:
        result["setup_layers"] = spans.setup_metrics(tracer)
        result["absent"] = installed.absent
    if role == "setup":
        return result

    outdir = Path(spec["outdir"])
    first, jobs = {}, []
    t_first = time.monotonic()
    while (len(jobs) < spec["min_jobs"]
           or time.monotonic() - t_first < spec["seconds"]):
        traced = installed is not None and len(jobs) % 2 == 1
        for name in ("report.json", "per_lf.csv"):
            (outdir / name).unlink(missing_ok=True)
        tracer.reset()
        t0 = time.perf_counter()
        try:
            if traced:
                rc = tracer.call(spans.ROOT_BUCKET, cli.main, (spec["run"],), {})
            else:
                rc = cli.main(spec["run"])
        except Exception as exc:  # a crashing job is a failed job, not a lost run
            traceback.print_exc()
            rc = repr(exc)
        wall = time.perf_counter() - t0
        job = {"wall_s": wall, "traced": traced, "reason": None}
        if rc != 0:
            job["reason"] = f"exit {rc}"
        else:
            job["reason"], report = _check(outdir, spec["floors"], first)
            if report is not None and "quality" not in result:
                result["quality"] = {key: report[part][field] for key, part, field in (
                    ("label_accuracy", "label_model", "accuracy"),
                    ("label_dp_gap", "label_model", "dp_gap"),
                    ("end_accuracy", "end_model", "accuracy"),
                    ("end_dp_gap", "end_model", "dp_gap"))}
        if traced:
            job["layers"] = spans.layer_metrics(tracer)
        jobs.append(job)

    if installed is not None:
        installed.remove()
        result["broken"] = sorted(tracer.broken)
    result["jobs"] = jobs
    result["output_sha256"] = {name: hashlib.sha256(data).hexdigest()
                               for name, data in first.items() if data is not None}
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return result


if __name__ == "__main__":
    spec = json.loads(sys.argv[1])
    result = main(spec)
    Path(spec["out"]).write_text(json.dumps(result), encoding="utf-8")
