"""Benchmark of `wsfair run`: one workload, set-up plus repeated batch jobs.

    python3 perfbench/run.py --workload pair-linear --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a checkout; the package is imported from `src/` there.
Each run starts fresh child processes (child.py), one after another, with
BLAS pinned to one thread. Each timed process does set-up (interpreter start,
imports, `wsfair synth` from the seed) and then one in-process `wsfair run`
job, CSV in, report.json out. Processes are started, at least MIN_PROCESSES,
until the next one would likely end past --seconds; the job time is the
median over them, so per-process effects such as memory layout average out.
Set-up is the median over the same processes, topped up with set-up-only
processes to SETUP_SAMPLES. `--trace 1` instead runs one process that
alternates untraced and traced jobs (spans.py) and reports per-layer metrics.

Human-readable lines come first; the last line of stdout is one JSON object
with `correct`, `attempted`, `failed` and `metrics`. Exit code 2 means the
benchmark could not run at all (no package to import, a crashed child, a
declared metric not produced).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

SETUP_SAMPLES = 5       # set-up is sampled in at least this many processes
MIN_PROCESSES = 2       # timed processes of one run, one job each
RUN_BUDGET_S = 170      # all children of one run; the whole run must end in 180 s
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Each workload keeps a different stage busy and another idle (see README.md).
# `floors` are the lowest label_model and end_model accuracies a correct job
# may report at full size; the smoke sizes only check that every stage runs
# and every metric is emitted, so their floors are looser.
_PAIR_RUN = ["--direct-lf-eval", "--postprocess", "dp-threshold"]
WORKLOADS = {
    "pair-linear": {
        "synth": ["--experiment", "gaussian-pair", "--n", "20000"],
        "smoke_synth": ["--experiment", "gaussian-pair", "--n", "400"],
        "run": ["--method", "sbm-linear"] + _PAIR_RUN,
        "floors": (0.95, 0.80), "smoke_floors": (0.8, 0.7)},
    "pair-sinkhorn": {
        "synth": ["--experiment", "gaussian-pair", "--n", "10000"],
        "smoke_synth": ["--experiment", "gaussian-pair", "--n", "400"],
        "run": ["--method", "sbm-sinkhorn", "--sinkhorn-max-points", "5000"] + _PAIR_RUN,
        "floors": (0.95, 0.80), "smoke_floors": (0.8, 0.7)},
    "lfcount-baseline": {
        "synth": ["--experiment", "lfcount", "--n", "20000", "--m", "24"],
        "smoke_synth": ["--experiment", "lfcount", "--n", "800", "--m", "24"],
        "run": ["--method", "baseline", "--postprocess", "dp-threshold",
                "--max-iters", "3000"],
        "floors": (0.65, 0.5), "smoke_floors": (0.55, 0.5)},
}


def _units(bench: dict, traced: bool) -> dict:
    """Metric name -> unit as BENCHMARK.json declares them for the mode."""
    return {m["name"]: m["unit"] for m in bench["per_layer" if traced else "end_to_end"]}


class BenchError(Exception):
    pass


def _git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _child(spec: dict, workdir: Path, deadline: float) -> dict:
    out = workdir / f"{spec['role']}-{time.monotonic_ns()}.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               **{name: "1" for name in THREAD_ENV})
    spec = dict(spec, root=str(ROOT), out=str(out), t_spawn=time.monotonic())
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), json.dumps(spec)],
                              cwd=workdir, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - spec["t_spawn"]))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{spec['role']} child did not end within the "
                         f"{RUN_BUDGET_S} s budget of a run")
    if proc.returncode != 0 or not out.exists():
        raise BenchError(f"{spec['role']} child failed ({proc.returncode}):\n"
                         f"{proc.stdout[-2000:]}{proc.stderr[-4000:]}")
    return json.loads(out.read_text())


def _run_workload(name: str, seed: int, seconds: float, traced: bool, smoke: bool,
                  workdir: Path) -> dict:
    deadline = time.monotonic() + RUN_BUDGET_S
    wl = WORKLOADS[name]
    synth = ["synth"] + wl["smoke_synth" if smoke else "synth"] + ["--seed", str(seed)]
    floors = wl["smoke_floors" if smoke else "floors"]

    def spec(role: str, k: int, min_jobs: int = 0, run_s: float = 0.0) -> dict:
        data, out = workdir / f"data{k}", workdir / f"out{k}"
        run = ["run", "--features", str(data / "features.csv"),
               "--weak", str(data / "weak.csv"), "--labels", str(data / "labels.csv"),
               "--outdir", str(out), "--seed", str(seed)] + wl["run"]
        return {"role": role, "synth": synth + ["--outdir", str(data)], "run": run,
                "outdir": str(out), "min_jobs": min_jobs, "seconds": run_s,
                "floors": floors}

    if traced:
        result = _child(spec("traced", 0, 2, seconds), workdir, deadline)
        result.update(setup_samples=[result["setup_s"]], processes=1)
        return result

    # One job per process, processes one after another, until the next one
    # would likely end past `seconds`.
    children, t0 = [], time.monotonic()
    while True:
        k = len(children)
        t_child = time.monotonic()
        child = _child(spec("timed", k, 1), workdir, deadline)
        child["duration_s"] = time.monotonic() - t_child
        children.append(child)
        for sub in ("data", "out"):
            shutil.rmtree(workdir / f"{sub}{k}", ignore_errors=True)
        longest = max(c["duration_s"] for c in children)
        if (len(children) >= (1 if smoke else MIN_PROCESSES)
                and time.monotonic() - t0 + longest > seconds):
            break
    setup_s = [c["setup_s"] for c in children]
    for k in range(len(children), SETUP_SAMPLES):
        setup_s.append(_child(spec("setup", k), workdir, deadline)["setup_s"])
        shutil.rmtree(workdir / f"data{k}", ignore_errors=True)

    reference = children[0]["output_sha256"]
    for child in children[1:]:
        changed = sorted(key for key in set(reference) | set(child["output_sha256"])
                         if reference.get(key) != child["output_sha256"].get(key))
        for job in child["jobs"]:
            if changed and job["reason"] is None:
                job["reason"] = ("bytes differ from the run's first process: "
                                 + ", ".join(changed))
    quality = [c["quality"] for c in children if "quality" in c]
    result = {key: children[0][key] for key in ("python", "numpy", "blas", "blas_threads")}
    result.update(jobs=[job for c in children for job in c["jobs"]],
                  setup_samples=setup_s, processes=len(children),
                  peak_rss_mb=statistics.median(c["peak_rss_mb"] for c in children))
    if quality:
        result["quality"] = quality[0]
    return result


def _metrics(result: dict, traced: bool) -> dict:
    jobs = [j for j in result["jobs"] if j["reason"] is None]
    if traced:
        plain = [j["wall_s"] for j in jobs if not j["traced"]]
        layered = [j for j in jobs if j["traced"]]
        if not plain or not layered:
            raise BenchError("no successful untraced and traced job pair")
        values = {key: statistics.median([j["layers"][key] for j in layered])
                  for key in layered[0]["layers"]}
        values.update(result["setup_layers"])
        values["trace.overhead_frac"] = (
            statistics.median([j["wall_s"] for j in layered]) / statistics.median(plain) - 1.0)
        values["trace.absent"] = len(result["absent"]) + len(result["broken"])
        return values
    if not jobs:
        raise BenchError("no successful job")
    q = result["quality"]
    return {"job_s_p50": statistics.median([j["wall_s"] for j in jobs]),
            "peak_rss_mb": result["peak_rss_mb"],
            "setup_s": statistics.median(result["setup_samples"]),
            "label_accuracy": q["label_accuracy"],
            "label_dp_parity": 1.0 - q["label_dp_gap"],
            "end_dp_parity": 1.0 - q["end_dp_gap"]}


def _report(name: str, seed: int, traced: bool, result: dict, values: dict,
            units: dict) -> dict:
    """Print the human-readable lines and return the final JSON object."""
    missing = [key for key in units if key not in values]
    if missing:
        raise BenchError(f"declared metrics not produced: {', '.join(missing)}")
    jobs = result["jobs"]
    failed = [j for j in jobs if j["reason"] is not None]
    print(json.dumps({"conditions": {
        "workload": name, "seed": seed, "trace": int(traced), "git_commit": _git_commit(),
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "python": result["python"], "numpy": result["numpy"], "blas": result["blas"],
        "blas_threads": result["blas_threads"], "jobs": len(jobs),
        "processes": result["processes"],
        "setup_samples": len(result["setup_samples"])}}))
    for job in jobs:
        print(f"job {'traced' if job['traced'] else 'untraced'} {job['wall_s']:.4f} s "
              f"{'ok' if job['reason'] is None else 'FAILED: ' + job['reason']}")
    if not traced:
        q = result["quality"]
        print(f"{'job_s_p50':<26}{values['job_s_p50']:>14.4f} s      "
              f"(median of {len(jobs) - len(failed)} jobs, "
              f"{result['processes']} processes)")
        print(f"{'setup_s':<26}{values['setup_s']:>14.4f} s      "
              f"(median of {len(result['setup_samples'])} set-ups)")
        print(f"{'peak_rss_mb':<26}{values['peak_rss_mb']:>14.1f} MB     "
              f"(median over processes)")
        print(f"{'failed_frac':<26}{len(failed) / len(jobs):>14.4f} frac   "
              f"({len(failed)} of {len(jobs)} jobs)")
        for key in ("label_accuracy", "label_dp_gap", "end_accuracy", "end_dp_gap"):
            print(f"{key:<26}{q[key]:>14.6f} frac")
    else:
        n_traced = sum(j["traced"] for j in jobs)
        print(f"traced jobs: {n_traced}, untraced jobs: {len(jobs) - n_traced}; "
              f"layer values are medians over traced jobs")
        for key in result["absent"] + result["broken"]:
            print(f"absent: {key}")
        for key, unit in units.items():
            print(f"{key:<26}{values[key]:>16.6f} {unit}")
    return {"correct": not failed, "attempted": len(jobs), "failed": len(failed),
            "metrics": {key: {"value": values[key], "unit": unit}
                        for key, unit in units.items()}}


def _smoke(bench: dict, workdir: Path) -> int:
    """Each workload once at tiny size, untraced and traced; check metric names."""
    problems = []
    if [w["name"] for w in bench["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from WORKLOADS")
    for name in WORKLOADS:
        for traced in (False, True):
            result = _run_workload(name, 0, 0, traced, True, workdir / name)
            values, units = _metrics(result, traced), _units(bench, traced)
            out = _report(name, 0, traced, result, values, units)
            if set(values) != set(units):
                problems.append(f"{name} trace={int(traced)}: produced "
                                f"{sorted(set(values) ^ set(units))} not as declared")
            if not out["correct"]:
                problems.append(f"{name} trace={int(traced)}: {out['failed']} failed jobs")
    for line in problems:
        print(f"SMOKE PROBLEM: {line}")
    print("smoke ok" if not problems else "smoke failed")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, every workload, both modes; checks metric names")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if not (ROOT / "src" / "wsfair" / "__init__.py").is_file():
        print(f"error: no package at {ROOT / 'src' / 'wsfair'}", file=sys.stderr)
        return 2

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.smoke:
            for name in WORKLOADS:
                (workdir / name).mkdir()
            return _smoke(bench, workdir)
        traced = bool(args.trace)
        result = _run_workload(args.workload, args.seed, args.seconds, traced, False,
                               workdir)
        out = _report(args.workload, args.seed, traced, result, _metrics(result, traced),
                      _units(bench, traced))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
