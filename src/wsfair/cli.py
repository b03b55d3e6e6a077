"""Batch entry point: dataset synthesis, pipeline runs, sweeps, diagnostics.

Exit codes: 0 success, 1 usage, 2 data (a DataError: the input cannot be
used), 3 numerical (a NumericalError that nothing contained). A command either
writes all of its outputs or none (partial files are removed on failure). A
NumericalError stays in the LFs of the map it hit (`sbm_audit[].error`); a
sweep keeps any other in its cell, as an error row. All randomness flows from
--seed; identical arguments produce byte-identical files. A sweep generates
each (grid value, seed) dataset once and runs every method on it;
WSFAIR_THREADS caps the datasets in flight (absent means one at a time); these
are the package's only threads, and their number does not change results.
"""

from __future__ import annotations

import argparse
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__
from .core import (DataError, GroupAssignment, LabelVector,
                   NumericalError, WeakLabelMatrix, feature_csv_text, format_real,
                   label_csv_text, load_feature_csv, load_label_csv, load_weak_csv,
                   weak_csv_text)
from . import endmodel as em
from . import metrics as mx
from . import sbm
from . import synth
from .transport import OT_KINDS

SPEC_VERSION = "1"

METHODS = ("baseline", *(f"sbm-{kind}" for kind in OT_KINDS))


class BadArgs(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise BadArgs(message)


def _threads() -> int:
    raw = os.environ.get("WSFAIR_THREADS")
    if raw is None:
        return 1
    try:
        val = int(raw)
    except ValueError:
        raise BadArgs(f"WSFAIR_THREADS must be an integer, got {raw!r}")
    if val < 1:
        raise BadArgs("WSFAIR_THREADS must be >= 1")
    return val


class _Outputs:
    """Tracks written files so a failing command leaves nothing behind."""

    def __init__(self):
        self.paths = []

    def write(self, path, text: str):
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        self.paths.append(path)

    def cleanup(self):
        for p in self.paths:
            try:
                p.unlink()
            except OSError:
                pass


def _seed(text: str) -> int:
    """`--seed` value: an integer >= 0, as numpy's SeedSequence requires."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expects an integer, got {text!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {seed}")
    return seed


def _finite(text: str) -> float:
    """`--shift` value: a finite real."""
    try:
        val = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expects a number, got {text!r}") from None
    if not math.isfinite(val):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return val


def _theta(text: str) -> float:
    """`--theta` value: the LF model's finite, positive accuracy scale."""
    theta = _finite(text)
    if not theta > 0.0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text}")
    return theta


def _parse_seed_range(text: str):
    """`k..k+r` inclusive with k >= 0, e.g. `0..9`."""
    try:
        lo, hi = text.split("..")
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise BadArgs(f"--seeds expects k..k+r, got {text!r}")
    if lo < 0:
        raise BadArgs(f"--seeds must start at a seed >= 0, got {text!r}")
    if hi < lo:
        raise BadArgs("--seeds range is empty")
    return list(range(lo, hi + 1))


def _parse_list(text: str, flag: str, convert=str):
    """Comma-separated entries; an empty or repeated entry is a usage error."""
    try:
        vals = [convert(x.strip()) for x in text.split(",")]
    except ValueError:
        raise BadArgs(f"{flag} expects comma-separated integers, got {text!r}")
    if "" in vals or len(set(vals)) != len(vals):
        raise BadArgs(f"{flag} has an empty or repeated entry: {text!r}")
    return vals


def _sbm_config(args, method: str, seed: int):
    """The method's SbmConfig, None for the baseline; bad SBM flags fail for all."""
    try:
        ot_kind = "none" if method == "baseline" else method.removeprefix("sbm-")
        cfg = sbm.SbmConfig(epsilon=args.epsilon, ot_kind=ot_kind,
                            eta=args.eta, knn_k=args.knn_k, seed=seed,
                            sinkhorn_max_points=args.sinkhorn_max_points)
    except ValueError as exc:
        raise BadArgs(str(exc)) from None
    return None if method == "baseline" else cfg


def _check_knn_k(args, methods, smaller: int):
    """`--knn-k` must not exceed the smaller group's rows if an SBM method borrows votes."""
    if any(method != "baseline" for method in methods) and 0 < smaller < args.knn_k:
        raise BadArgs(f"--knn-k must be at most the smaller group's {smaller} rows")


def _load_inputs(args):
    """(features, groups, votes, labels or None) from the CSVs named by `args`.
    The feature ids only align the other files' rows, so they are dropped here."""
    feats, groups, ids = load_feature_csv(args.features)
    weak = load_weak_csv(args.weak, ids)
    return feats, groups, weak, load_label_csv(args.labels, ids) if args.labels else None


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------

def cmd_synth(args, out: _Outputs) -> int:
    outdir = Path(args.outdir)
    if args.experiment in ("lfcount", "shift") and args.m < 3:
        raise BadArgs("--m must be at least 3 for triplet estimation")
    if args.n < 1:
        raise BadArgs("--n must be positive")
    if args.experiment == "lfcount" and args.n < 2:
        raise BadArgs("--n must be at least 2 for --experiment lfcount")
    if args.experiment == "gaussian-pair":
        feats, groups, truth, weak, meta = synth.gen_gaussian_pair_dataset(args.n, args.seed)
    elif args.experiment == "lfcount":
        feats, groups, truth, weak, meta = synth.gen_lfcount_dataset(args.n, args.m,
                                                                     args.seed)
    else:
        feats, groups, truth, weak, meta = synth.gen_shift_dataset(
            args.n, args.seed, theta=args.theta, shift=args.shift, m=args.m)
    out.write(outdir / "features.csv", feature_csv_text(feats, groups))
    out.write(outdir / "weak.csv", weak_csv_text(weak))
    out.write(outdir / "labels.csv", label_csv_text(truth))
    out.write(outdir / "specs.json", json.dumps(meta, indent=2) + "\n")
    return 0


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def _per_lf_csv(weak_pre: WeakLabelMatrix, weak_post: WeakLabelMatrix,
                truth: LabelVector, groups: GroupAssignment) -> str:
    lines = ["lf,group,acc_pre,acc_post"]
    for g in (0, 1):
        rows = groups.indices(g)
        if rows.size == 0:
            continue
        t = truth.labels[rows, None]
        pre = (weak_pre.votes[rows] == t).mean(axis=0).tolist()
        post = (weak_post.votes[rows] == t).mean(axis=0).tolist()
        lines += (f"{name},{g},{format_real(a)},{format_real(b)}"
                  for name, a, b in zip(weak_pre.lf_names, pre, post))
    return "\n".join(lines) + "\n"


def _label_model_fit(result: sbm.PipelineResult, lf_names: tuple) -> list:
    """Per LF: the pooled estimate the label model used, its weight and flags,
    then each group's estimate and clamp flag (null when a group is empty)."""
    est = result.estimate
    cols = [est.per_lf, result.params.weights, est.clamp_flags, est.moment_flags,
            est.tie_flags]
    if result.group_estimates is None:
        cols += [np.full(len(lf_names), None)] * 4
    else:
        est0, est1 = result.group_estimates
        cols += [est0.per_lf, est1.per_lf, est0.clamp_flags, est1.clamp_flags]
    keys = ("lf", "a_hat", "weight", "clamped", "moment_flag", "tie",
            "a0", "a1", "clamped0", "clamped1")
    return [dict(zip(keys, row)) for row in zip(lf_names, *(c.tolist() for c in cols))]


_SWEEP_METRICS = ("accuracy", "f1", "dp_gap", "eo_gap")


def _metrics(preds: list, truth, groups: GroupAssignment):
    """The metric block of `preds`, None entries skipped (None if none is left):
    each of _SWEEP_METRICS averaged over the predictions that define it, then
    n0 and n1. One prediction's block is its fairness_report."""
    blocks = [mx.fairness_report(p, truth, groups) for p in preds if p is not None]
    for k in _SWEEP_METRICS if blocks else ():
        vals = [b[k] for b in blocks if b[k] is not None]
        blocks[0][k] = float(np.mean(vals)) if vals else None
    return blocks[0] if blocks else None


def cmd_run(args, out: _Outputs) -> int:
    cfg = _sbm_config(args, args.method, args.seed)
    try:
        train_cfg = em.TrainConfig(l2=args.l2, max_iters=args.max_iters, tol=args.tol)
    except ValueError as exc:
        raise BadArgs(str(exc)) from None
    if not 0.0 < args.class_prior < 1.0:
        raise BadArgs("--class-prior must lie strictly inside (0, 1)")
    feats, groups, weak, truth = _load_inputs(args)
    if args.direct_lf_eval and not 0 <= args.lf_index < weak.m:
        raise BadArgs(f"--lf-index must index one of {weak.m} LFs")
    _check_knn_k(args, [args.method], min(groups.indices(0).size, groups.indices(1).size))

    result = sbm.run_pipeline(feats, groups, weak, cfg, class_prior=args.class_prior,
                              train_cfg=train_cfg, hard_labels=args.hard_labels,
                              postprocess=args.postprocess == "dp-threshold")

    direct = LabelVector(result.weak_used.votes[:, args.lf_index]) if args.direct_lf_eval else None
    report = {
        "spec_version": SPEC_VERSION,
        "config": {"method": args.method, "epsilon": args.epsilon, "eta": args.eta,
                   "knn_k": args.knn_k, "seed": args.seed,
                   "sinkhorn_max_points": args.sinkhorn_max_points,
                   "postprocess": args.postprocess, "class_prior": args.class_prior,
                   "hard_labels": bool(args.hard_labels),
                   "direct_lf_eval": bool(args.direct_lf_eval),
                   "lf_index": args.lf_index,
                   "endmodel": {"l2": args.l2, "max_iters": args.max_iters,
                                "tol": args.tol}},
        "label_model": _metrics([result.labels], truth, groups),
        "label_model_fit": _label_model_fit(result, weak.lf_names),
        "end_model": _metrics([result.end_labels], truth, groups),
        "end_model_fit": result.end_model.training_meta,
        "end_model_postprocessed": _metrics([result.post_labels], truth, groups),
        "direct_lf": _metrics([direct], truth, groups),
        "thresholds": list(result.thresholds) if result.thresholds else None,
        "sbm_audit": result.audit.to_json() if result.audit else None,
    }
    outdir = Path(args.outdir)
    out.write(outdir / "report.json", json.dumps(report, indent=2) + "\n")
    if truth is not None:
        out.write(outdir / "per_lf.csv", _per_lf_csv(weak, result.weak_used, truth, groups))
    return 0


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def _sweep_cell(experiment: str, x: int, seed: int, methods, args) -> dict:
    """One (grid value, seed) dataset, generated once, and method -> the
    metric block of its pseudolabels, or under direct-lf of the evaluated LF
    columns of the votes used, or the NumericalError that stopped that method.
    The shift experiment scores LF column 0."""
    if experiment == "shift":
        _, _, truth, weak, _ = synth.gen_shift_dataset(args.n, seed, theta=args.theta,
                                                       shift=x)
        acc = float((weak.votes[:, 0] == truth.labels).mean())
        return {"lf": {"accuracy": acc, "f1": None, "dp_gap": None, "eo_gap": None}}
    samples = experiment == "samples"
    feats, groups, truth, weak, _ = (synth.gen_gaussian_pair_dataset(x, seed) if samples
                                     else synth.gen_lfcount_dataset(args.n, x, seed))
    lfs = [0] if samples else range(weak.m)
    results = {}
    for method in methods:             # a numerical failure stays in its method
        cfg = _sbm_config(args, method, seed)
        try:
            if args.eval == "label-model":
                preds = [sbm.run_pipeline(feats, groups, weak, cfg).labels]
            else:                      # the LF columns never reach the label model
                used = weak if cfg is None else sbm.run_sbm(feats, groups, weak, cfg)[0]
                preds = [LabelVector(used.votes[:, j]) for j in lfs]
            results[method] = _metrics(preds, truth, groups)
        except NumericalError as exc:
            results[method] = exc
    return results


def cmd_sweep(args, out: _Outputs) -> int:
    _sbm_config(args, "baseline", 0)     # rejects bad SBM settings up front
    if args.n < 1:
        raise BadArgs("--n must be positive")
    seeds = _parse_seed_range(args.seeds)
    grid = _parse_list(args.grid, "--grid", int)
    if args.experiment == "samples" and min(grid) < 1:
        raise BadArgs("--grid sizes must be positive for --experiment samples")
    if args.experiment == "lfs" and min(grid) < 3:
        raise BadArgs("--grid LF counts must be at least 3 for triplet estimation")
    if args.experiment == "lfs" and args.n < 2:
        raise BadArgs("--n must be at least 2 for --experiment lfs")
    methods = _parse_list(args.methods, "--methods")
    if args.experiment == "shift":
        methods = ["lf"]
    elif not set(methods) <= set(METHODS):
        raise BadArgs(f"unknown method in {args.methods!r}")
    else:          # no seed changes a group's rows: x for samples, and lfs's group 1 has n // 2
        _check_knn_k(args, methods, min(grid) if args.experiment == "samples" else args.n // 2)

    tasks = [(x, seed) for x in grid for seed in seeds]
    with ThreadPoolExecutor(max_workers=_threads()) as pool:
        cells = pool.map(lambda task: _sweep_cell(args.experiment, *task, methods, args),
                         tasks)
        # read inside the pool, so a DataError cancels the cells not yet started
        results = {(x, seed, method): res for (x, seed), cell in zip(tasks, cells)
                   for method, res in cell.items()}
    errors = {t: r for t, r in results.items() if isinstance(r, NumericalError)}
    if len(errors) == len(results):
        raise next(iter(errors.values()))
    for (x, seed, method), exc in errors.items():
        print(f"cell failed: x={x} seed={seed} method={method}: "
              f"{type(exc).__name__}: {exc}")

    lines = ["x,method,metric,mean,sd,lo,hi"]
    per_seed_lines = ["x,seed,method,metric,value"]
    for x in grid:
        for method in methods:
            per_seed_lines += [f"{x},{seed},{method},error,"
                               f"{type(errors[(x, seed, method)]).__name__}"
                               for seed in seeds if (x, seed, method) in errors]
            ok = {seed: results[(x, seed, method)] for seed in seeds
                  if (x, seed, method) not in errors}
            for metric in _SWEEP_METRICS:
                vals = {seed: r[metric] for seed, r in ok.items() if r[metric] is not None}
                if not vals:
                    continue
                per_seed_lines += [f"{x},{seed},{method},{metric},{format_real(v)}"
                                   for seed, v in vals.items()]
                mean, sd = np.mean(list(vals.values())), np.std(list(vals.values()))
                lines.append(f"{x},{method},{metric},{format_real(mean)},"
                             f"{format_real(sd)},{format_real(mean - 1.96 * sd)},"
                             f"{format_real(mean + 1.96 * sd)}")
    out.write(Path(args.out), "\n".join(lines) + "\n")
    if args.per_seed_out:
        out.write(Path(args.per_seed_out), "\n".join(per_seed_lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# center-scan
# ---------------------------------------------------------------------------

def cmd_center_scan(args, out: _Outputs) -> int:
    feats, groups, weak, truth = _load_inputs(args)
    if not 0 <= args.lf < weak.m:
        raise BadArgs(f"--lf must index one of {weak.m} LFs")
    correct = weak.votes[:, args.lf] == truth.labels
    scan = mx.center_scan(feats, correct, groups, seed=args.seed)
    out.write(Path(args.out), scan.to_csv())
    return 0


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------

def _add_sbm_args(p):
    p.add_argument("--epsilon", type=float, default=sbm.SbmConfig.epsilon)
    p.add_argument("--eta", type=float, default=sbm.SbmConfig.eta)
    p.add_argument("--knn-k", dest="knn_k", type=int, default=sbm.SbmConfig.knn_k)
    p.add_argument("--sinkhorn-max-points", dest="sinkhorn_max_points", type=int,
                   default=sbm.SbmConfig.sinkhorn_max_points)


def build_parser() -> _Parser:
    parser = _Parser(prog="wsfair")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate synthetic datasets as CSV")
    p.add_argument("--experiment", choices=("gaussian-pair", "lfcount", "shift"),
                   required=True)
    p.add_argument("--n", type=int, default=10_000)
    p.add_argument("--m", type=int, default=3)
    p.add_argument("--theta", type=_theta, default=2.0)
    p.add_argument("--shift", type=_finite, default=0.0)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--outdir", required=True)

    p = sub.add_parser("run", help="run the pipeline on CSV inputs")
    p.add_argument("--features", required=True)
    p.add_argument("--weak", required=True)
    p.add_argument("--labels", default=None)
    p.add_argument("--outdir", required=True)
    p.add_argument("--method", choices=METHODS, default="baseline")
    _add_sbm_args(p)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--postprocess", choices=("none", "dp-threshold"), default="none")
    p.add_argument("--class-prior", dest="class_prior", type=float, default=0.5)
    p.add_argument("--hard-labels", dest="hard_labels", action="store_true")
    p.add_argument("--direct-lf-eval", dest="direct_lf_eval", action="store_true")
    p.add_argument("--lf-index", dest="lf_index", type=int, default=0)
    p.add_argument("--l2", type=float, default=em.TrainConfig.l2)
    p.add_argument("--max-iters", dest="max_iters", type=int,
                   default=em.TrainConfig.max_iters)
    p.add_argument("--tol", type=float, default=em.TrainConfig.tol)

    p = sub.add_parser("sweep", help="grid sweeps over seeds with CI bands")
    p.add_argument("--experiment", choices=("samples", "lfs", "shift"), required=True)
    p.add_argument("--methods", default="baseline,sbm-linear")
    p.add_argument("--grid", required=True)
    p.add_argument("--seeds", default="0..9")
    p.add_argument("--out", required=True)
    p.add_argument("--per-seed-out", dest="per_seed_out", default=None)
    p.add_argument("--eval", choices=("label-model", "direct-lf"),
                   default="label-model")
    p.add_argument("--n", type=int, default=10_000)
    p.add_argument("--theta", type=_theta, default=2.0)
    _add_sbm_args(p)

    p = sub.add_parser("center-scan", help="locate an LF's high-accuracy region")
    p.add_argument("--features", required=True)
    p.add_argument("--weak", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--lf", type=int, default=0)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True)
    return parser


_COMMANDS = {"synth": cmd_synth, "run": cmd_run, "sweep": cmd_sweep,
             "center-scan": cmd_center_scan}


def main(argv=None) -> int:
    out = _Outputs()
    try:
        args = build_parser().parse_args(argv)
        return _COMMANDS[args.command](args, out)
    except BadArgs as exc:
        print(f"usage error: {exc}")
        out.cleanup()
        return 1
    except (DataError, OSError) as exc:
        print(f"data error: {exc}")
        out.cleanup()
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}")
        out.cleanup()
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
