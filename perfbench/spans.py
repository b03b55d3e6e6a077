"""Span wrappers that time each wsfair layer from outside the package.

A traced run replaces selected module attributes (for example
`wsfair.sbm.fit_map`) with wrappers that record a span around every call made
through that attribute. Nothing under `src/` is edited: the wrappers see the
calls because the package resolves them through module globals at call time.
A span's self time is its duration minus the time covered by its child spans,
so the buckets below add up to the job's wall time.

`wsfair.transport` is reached with `importlib.import_module`, because the
package re-exports a `transport` function under the same name and
`from wsfair import transport` yields that function, not the module.
"""

from __future__ import annotations

import functools
import importlib
import time
import tracemalloc
from collections import defaultdict
from math import comb

ROOT_BUCKET = "cli"


def _rows(x) -> int:
    return len(getattr(x, "values", x))


def _count_csv_rows(tr, args, kwargs, result):
    first = result[0] if isinstance(result, tuple) else result
    tr.counts["core.csv_rows"] += first.n


def _count_triples(tr, args, kwargs, result):
    m = args[0].m
    tr.counts["labelmodel.triples"] += m * comb(m - 1, 2)


def _count_nn_pairs(tr, args, kwargs, result):
    tr.counts["transport.nn_pairs"] += _rows(args[0]) * _rows(args[1])


def _count_fit(tr, args, kwargs, result):
    tr.counts["transport.fits"] += 1
    tr.counts["transport.converged"] += bool(result.converged)


def _count_train(tr, args, kwargs, result):
    cfg = args[2] if len(args) > 2 else kwargs.get("config")
    iters = result.training_meta["iterations"]
    tr.counts["endmodel.fits"] += 1
    tr.counts["endmodel.iterations"] += iters
    tr.counts["endmodel.converged"] += iters < cfg.max_iters


def _count_audit(tr, args, kwargs, result):
    decisions = result[1].per_lf
    tr.counts["sbm.lfs_rewritten"] += sum(d.direction != "none" for d in decisions)
    tr.counts["sbm.rows_rewritten"] += sum(d.rows_rewritten for d in decisions)
    tr.counts["sbm.lf_errors"] += sum(d.error is not None for d in decisions)


# (module, attribute, bucket, counter hook or None, measure tracemalloc peak).
# The attribute is the name the caller looks up, e.g. run_sbm calls fit_map
# through the `wsfair.sbm` namespace, so that is where the wrapper goes.
TARGETS = (
    ("wsfair.synth", "gen_gaussian_pair_dataset", "synth.gen", None, False),
    ("wsfair.synth", "gen_lfcount_dataset", "synth.gen", None, False),
    ("wsfair.cli", "feature_csv_text", "core.csv_write", None, False),
    ("wsfair.cli", "weak_csv_text", "core.csv_write", None, False),
    ("wsfair.cli", "label_csv_text", "core.csv_write", None, False),
    ("wsfair.cli", "load_feature_csv", "core.csv_load", _count_csv_rows, False),
    ("wsfair.cli", "load_weak_csv", "core.csv_load", _count_csv_rows, False),
    ("wsfair.cli", "load_label_csv", "core.csv_load", _count_csv_rows, False),
    ("wsfair.sbm", "split_by_group", "core.split", None, False),
    ("wsfair.sbm", "run_pipeline", "sbm", None, False),
    ("wsfair.sbm", "run_sbm", "sbm", _count_audit, False),
    ("wsfair.labelmodel", "triplet_estimate", "labelmodel.estimate", _count_triples, False),
    ("wsfair.labelmodel", "resolve_signs", "labelmodel.estimate", None, False),
    ("wsfair.labelmodel", "fit_label_model", "labelmodel.aggregate", None, False),
    ("wsfair.labelmodel", "predict_proba", "labelmodel.aggregate", None, False),
    ("wsfair.labelmodel", "predict_labels", "labelmodel.aggregate", None, False),
    ("wsfair.sbm", "fit_map", "transport.fit", _count_fit, True),
    ("wsfair.transport", "pairwise_cost", "transport.cost", None, False),
    ("wsfair.sbm", "apply_map", "transport.apply", None, True),
    ("wsfair.sbm", "knn_borrow", "transport.nn", _count_nn_pairs, False),
    ("wsfair.endmodel", "train_logreg", "endmodel.train", _count_train, False),
    ("wsfair.endmodel", "predict_logreg", "endmodel.predict", None, False),
    ("wsfair.metrics", "dp_threshold", "metrics.dp_threshold", None, False),
)


class Tracer:
    """Per-bucket self time, counters and peak traced memory of one job."""

    def __init__(self):
        self.broken = set()      # counter hooks that could not read a result
        self.reset()

    def reset(self):
        """Start a new job; `broken` is kept for the whole run."""
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self.peak_bytes = 0
        self._stack = []         # child time accumulated by each open span

    def call(self, bucket, fn, args, kwargs, hook=None, peak=False):
        track = peak and not tracemalloc.is_tracing()
        self._stack.append(0.0)
        t0 = time.perf_counter()
        if track:
            tracemalloc.start()
        try:
            result = fn(*args, **kwargs)
        finally:
            if track:
                self.peak_bytes = max(self.peak_bytes, tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
            dur = time.perf_counter() - t0
            self.self_s[bucket] += dur - self._stack.pop()
            if self._stack:
                self._stack[-1] += dur
        if hook is not None:
            try:
                hook(self, args, kwargs, result)
            except Exception:  # a changed return type must not stop the run
                self.broken.add(f"{bucket}:{hook.__name__}")
        return result


class Installed:
    """Wrappers installed on the package; `absent` lists targets not found."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.absent = []
        self._saved = []
        for mod_name, attr, bucket, hook, peak in TARGETS:
            try:
                module = importlib.import_module(mod_name)
            except ImportError:
                self.absent.append(f"{mod_name}.{attr}")
                continue
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.absent.append(f"{mod_name}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, bucket, hook, peak))

    def _wrap(self, fn, bucket, hook, peak):
        tracer = self.tracer

        @functools.wraps(fn)
        def span(*args, **kwargs):
            return tracer.call(bucket, fn, args, kwargs, hook, peak)
        return span

    def remove(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved = []


def layer_metrics(tr: Tracer) -> dict:
    """Per-layer metric values of one traced job, keyed by metric name."""
    s, c = tr.self_s, tr.counts
    fits, trains = c["transport.fits"], c["endmodel.fits"]
    return {
        "cli.self_s": s[ROOT_BUCKET],
        "core.csv_load_s": s["core.csv_load"],
        "core.csv_rows": c["core.csv_rows"],
        "core.split_s": s["core.split"],
        "labelmodel.estimate_s": s["labelmodel.estimate"],
        "labelmodel.triples": c["labelmodel.triples"],
        "labelmodel.aggregate_s": s["labelmodel.aggregate"],
        "sbm.self_s": s["sbm"],
        "sbm.lfs_rewritten": c["sbm.lfs_rewritten"],
        "sbm.rows_rewritten": c["sbm.rows_rewritten"],
        "sbm.lf_errors": c["sbm.lf_errors"],
        "transport.fit_s": s["transport.fit"],
        "transport.cost_s": s["transport.cost"],
        "transport.apply_s": s["transport.apply"],
        "transport.nn_s": s["transport.nn"],
        "transport.nn_pairs": c["transport.nn_pairs"],
        "transport.converged_frac": c["transport.converged"] / fits if fits else 0.0,
        "transport.fit_peak_mb": tr.peak_bytes / 2 ** 20,
        "endmodel.train_s": s["endmodel.train"],
        "endmodel.iterations": c["endmodel.iterations"],
        "endmodel.converged_frac": c["endmodel.converged"] / trains if trains else 0.0,
        "endmodel.predict_s": s["endmodel.predict"],
        "metrics.dp_threshold_s": s["metrics.dp_threshold"],
    }


def setup_metrics(tr: Tracer) -> dict:
    """Per-layer metric values of one traced `wsfair synth` set-up."""
    return {"synth.gen_s": tr.self_s["synth.gen"],
            "core.csv_write_s": tr.self_s["core.csv_write"]}
