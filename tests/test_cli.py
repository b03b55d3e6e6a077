import functools
import json
import os
import re
import shlex
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (estimate_csv, fifos, line_feature_csv_text, line_label_csv_text,
                      line_weak_csv_text, needs_fifo)
from wsfair import endmodel, metrics, synth
from wsfair.cli import _COMMANDS, METHODS, _per_lf_csv, build_parser, main
from wsfair.core import (FeatureMatrix, GroupAssignment, LabelVector, NumericalError,
                         WeakLabelMatrix, feature_csv_text, format_real, label_csv_text,
                         load_feature_csv, load_label_csv, load_weak_csv, weak_csv_text)
from wsfair.endmodel import TrainConfig
from wsfair.metrics import fairness_report
from wsfair.sbm import SbmConfig, run_pipeline, run_sbm


def _run(*argv):
    return main(list(argv))


def _synth_gauss_pair(tmp_path, n=800, seed=0):
    outdir = tmp_path / "data"
    code = _run("synth", "--experiment", "gaussian-pair", "--n", str(n),
                "--seed", str(seed), "--outdir", str(outdir))
    assert code == 0
    return outdir


def test_synth_gauss_pair_row_counts(tmp_path):
    outdir = _synth_gauss_pair(tmp_path, n=1000)
    for name in ("features.csv", "weak.csv", "labels.csv", "specs.json"):
        assert (outdir / name).exists()
    lines = (outdir / "features.csv").read_text().strip().split("\n")
    assert len(lines) == 2001  # header + 2n rows


def test_synth_lfcount_m_too_small_is_usage_error(tmp_path):
    code = _run("synth", "--experiment", "lfcount", "--m", "2",
                "--outdir", str(tmp_path / "x"))
    assert code == 1
    assert not (tmp_path / "x").exists()


def test_synth_lfcount_n_too_small_is_usage_error(tmp_path, capsys):
    code = _run("synth", "--experiment", "lfcount", "--n", "1",
                "--outdir", str(tmp_path / "x"))
    assert code == 1
    assert capsys.readouterr().out.startswith("usage error:")
    assert not (tmp_path / "x").exists()


_PAD = {"decision": "halfspace", "coord": 0, "threshold": 0.5, "flip_prob": 0.05}


@pytest.mark.parametrize("argv, expected", [
    (("--experiment", "gaussian-pair", "--n", "50", "--seed", "4"),
     {"experiment": "gaussian-pair", "seed": 4,
      "lfs": [{"decision": "halfspace", "coord": 0, "threshold": 0.0, "flip_prob": 0.0},
              _PAD, _PAD],
      "transform": {"kind": "affine", "A": [[2.0, 1.0], [1.0, 2.0]], "b": [-4.0, 5.0]}}),
    (("--experiment", "shift", "--n", "50", "--m", "4", "--theta", "1.5",
      "--shift", "3", "--seed", "2"),
     {"experiment": "shift", "seed": 2,
      "lfs": [{"decision": "stochastic", "theta": 1.5, "center": [0.0, 0.0]}] * 4,
      "transform": {"kind": "identity"}}),
])
def test_synth_specs_json_is_the_fixed_descriptor(tmp_path, argv, expected):
    assert _run("synth", *argv, "--outdir", str(tmp_path)) == 0
    assert (tmp_path / "specs.json").read_text() == json.dumps(expected, indent=2) + "\n"


def test_synth_specs_json_is_the_lfcount_generator_meta(tmp_path):
    assert _run("synth", "--experiment", "lfcount", "--n", "60", "--m", "5",
                "--seed", "6", "--outdir", str(tmp_path)) == 0
    specs = json.loads((tmp_path / "specs.json").read_text())
    assert specs == synth.gen_lfcount_dataset(60, 5, 6)[4]
    assert [lf["decision"] for lf in specs["lfs"]] == ["stochastic"] * 5
    b = specs["transform"]["b"]
    assert len(b) == 2 and all(10.0 <= v <= 50.0 for v in b)


def test_synth_byte_identical_reruns(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    for out in (out1, out2):
        assert _run("synth", "--experiment", "lfcount", "--n", "300", "--m", "4",
                    "--seed", "3", "--outdir", str(out)) == 0
    for name in ("features.csv", "weak.csv", "labels.csv", "specs.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_run_missing_weak_file_exits_2(tmp_path):
    outdir = _synth_gauss_pair(tmp_path)
    code = _run("run", "--features", str(outdir / "features.csv"),
                "--weak", str(outdir / "missing.csv"),
                "--outdir", str(tmp_path / "out"))
    assert code == 2


def test_run_baseline_vs_sbm_linear(tmp_path):
    outdir = _synth_gauss_pair(tmp_path, n=1500, seed=1)
    reports = {}
    for method in ("baseline", "sbm-linear"):
        rd = tmp_path / method
        code = _run("run", "--features", str(outdir / "features.csv"),
                    "--weak", str(outdir / "weak.csv"),
                    "--labels", str(outdir / "labels.csv"),
                    "--method", method, "--direct-lf-eval",
                    "--outdir", str(rd))
        assert code == 0
        reports[method] = json.loads((rd / "report.json").read_text())
        assert (rd / "per_lf.csv").exists()
        fit = reports[method]["end_model_fit"]
        assert 0 < fit["iterations"] <= 20 and fit["final_loss"] > 0.0
    base = reports["baseline"]["direct_lf"]
    sbm = reports["sbm-linear"]["direct_lf"]
    assert sbm["dp_gap"] < base["dp_gap"]
    assert sbm["accuracy"] > base["accuracy"]
    assert reports["sbm-linear"]["sbm_audit"] is not None
    assert reports["baseline"]["sbm_audit"] is None


def test_run_without_labels_gives_partial_report(tmp_path):
    outdir = _synth_gauss_pair(tmp_path, n=400, seed=2)
    rd = tmp_path / "out"
    code = _run("run", "--features", str(outdir / "features.csv"),
                "--weak", str(outdir / "weak.csv"), "--outdir", str(rd))
    assert code == 0
    report = json.loads((rd / "report.json").read_text())
    assert report["label_model"]["accuracy"] is None
    assert report["label_model"]["dp_gap"] is not None
    assert not (rd / "per_lf.csv").exists()


def test_postprocess_lowers_dp_gap(tmp_path):
    outdir = _synth_gauss_pair(tmp_path, n=1200, seed=3)
    rd = tmp_path / "pp"
    code = _run("run", "--features", str(outdir / "features.csv"),
                "--weak", str(outdir / "weak.csv"),
                "--labels", str(outdir / "labels.csv"),
                "--method", "baseline", "--postprocess", "dp-threshold",
                "--outdir", str(rd))
    assert code == 0
    report = json.loads((rd / "report.json").read_text())
    assert report["thresholds"] is not None
    post = report["end_model_postprocessed"]["dp_gap"]
    assert post <= report["end_model"]["dp_gap"] + 1e-12


def test_postprocess_keeps_f1_on_lfcount(tmp_path):
    # lfcount end-model scores sit near 0.5 in both groups; the rates must be
    # matched without collapsing to (almost) one predicted class
    data = tmp_path / "data"
    assert _run("synth", "--experiment", "lfcount", "--n", "2000", "--m", "12",
                "--seed", "0", "--outdir", str(data)) == 0
    rd = tmp_path / "pp"
    assert _run("run", "--features", str(data / "features.csv"),
                "--weak", str(data / "weak.csv"), "--labels", str(data / "labels.csv"),
                "--method", "baseline", "--postprocess", "dp-threshold",
                "--outdir", str(rd)) == 0
    report = json.loads((rd / "report.json").read_text())
    post = report["end_model_postprocessed"]
    assert abs(post["f1"] - report["end_model"]["f1"]) <= 0.05
    assert post["dp_gap"] <= 1.0 / (2 * min(post["n0"], post["n1"]))
    assert "grid" not in report["config"]


def test_run_byte_identical_across_thread_settings(tmp_path):
    outdir = _synth_gauss_pair(tmp_path, n=600, seed=4)
    blobs = []
    for i, threads in enumerate(("1", "4")):
        rd = tmp_path / f"det{i}"
        os.environ["WSFAIR_THREADS"] = threads
        try:
            code = _run("run", "--features", str(outdir / "features.csv"),
                        "--weak", str(outdir / "weak.csv"),
                        "--labels", str(outdir / "labels.csv"),
                        "--method", "sbm-linear", "--outdir", str(rd))
        finally:
            del os.environ["WSFAIR_THREADS"]
        assert code == 0
        blobs.append((rd / "report.json").read_bytes()
                     + (rd / "per_lf.csv").read_bytes())
    assert blobs[0] == blobs[1]


@needs_fifo
@pytest.mark.parametrize("command", ["run", "center-scan"])
def test_piped_inputs_write_the_same_bytes_as_the_files(tmp_path, command):
    # as `--features <(cat features.csv)` does: each input is a pipe, read once
    data = tmp_path / "data"
    assert _run("synth", "--experiment", "lfcount", "--n", "2000", "--m", "12",
                "--seed", "3", "--outdir", str(data)) == 0
    names = ("features.csv", "weak.csv", "labels.csv")
    tail = (("--method", "sbm-linear", "--outdir") if command == "run"
            else ("--lf", "0", "--out"))
    blobs = {}
    (tmp_path / "pipes").mkdir()
    with fifos(tmp_path / "pipes", {n: (data / n).read_bytes() for n in names}) as pipes:
        for route, paths in (("file", {n: data / n for n in names}), ("pipe", pipes)):
            out = tmp_path / route
            assert _run(command, "--features", str(paths["features.csv"]),
                        "--weak", str(paths["weak.csv"]), "--labels", str(paths["labels.csv"]),
                        *tail, str(out)) == 0
            blobs[route] = ([(out / f).read_bytes() for f in ("report.json", "per_lf.csv")]
                            if command == "run" else out.read_bytes())
    assert blobs["pipe"] == blobs["file"]


def test_sweep_shift_accuracy_converges_to_half(tmp_path):
    out = tmp_path / "sweep.csv"
    code = _run("sweep", "--experiment", "shift", "--grid", "0,1000",
                "--seeds", "0..2", "--n", "20000", "--theta", "2.0",
                "--out", str(out))
    assert code == 0
    rows = [l.split(",") for l in out.read_text().strip().split("\n")[1:]]
    by_x = {r[0]: float(r[3]) for r in rows if r[2] == "accuracy"}
    assert abs(by_x["1000"] - 0.5) < 0.02
    assert by_x["0"] > by_x["1000"]


def test_synth_shift_lf_1_is_what_the_shift_sweep_scores(tmp_path):
    n, shift, theta, seed = 2000, 10, 1.5, 3
    data = tmp_path / "data"
    assert _run("synth", "--experiment", "shift", "--n", str(n), "--shift", str(shift),
                "--theta", str(theta), "--seed", str(seed), "--outdir", str(data)) == 0
    _, _, ids = load_feature_csv(data / "features.csv")
    weak = load_weak_csv(data / "weak.csv", ids)
    truth = load_label_csv(data / "labels.csv", ids)
    assert weak.lf_names[0] == "lf_1"
    per_seed = tmp_path / "p.csv"
    assert _run("sweep", "--experiment", "shift", "--grid", str(shift), "--n", str(n),
                "--theta", str(theta), "--seeds", f"{seed}..{seed}",
                "--out", str(tmp_path / "s.csv"), "--per-seed-out", str(per_seed)) == 0
    row = per_seed.read_text().splitlines()[1].split(",")
    assert row[:4] == [str(shift), str(seed), "lf", "accuracy"]
    assert float(row[4]) == float((weak.votes[:, 0] == truth.labels).mean())


def test_sweep_generates_each_dataset_once(tmp_path, monkeypatch):
    calls = []
    real = synth.gen_lfcount_dataset
    monkeypatch.setattr(synth, "gen_lfcount_dataset",
                        lambda *a: calls.append(a) or real(*a))
    assert _run("sweep", "--experiment", "lfs", "--grid", "3,4", "--seeds", "0..1",
                "--n", "400", "--eval", "direct-lf", "--methods", "baseline,sbm-linear",
                "--out", str(tmp_path / "s.csv")) == 0
    assert sorted(calls) == [(400, m, seed) for m in (3, 4) for seed in (0, 1)]


def test_sweep_samples_direct_lf(tmp_path):
    out = tmp_path / "sweep.csv"
    code = _run("sweep", "--experiment", "samples", "--grid", "200,400",
                "--seeds", "0..2", "--eval", "direct-lf",
                "--methods", "baseline,sbm-linear", "--out", str(out),
                "--per-seed-out", str(tmp_path / "per_seed.csv"))
    assert code == 0
    text = out.read_text()
    assert text.startswith("x,method,metric,mean,sd,lo,hi\n")
    rows = [l.split(",") for l in text.strip().split("\n")[1:]]
    dp = {(r[0], r[1]): float(r[3]) for r in rows if r[2] == "dp_gap"}
    for x in ("200", "400"):
        assert dp[(x, "sbm-linear")] < dp[(x, "baseline")]
    assert (tmp_path / "per_seed.csv").exists()


def test_sweep_threads_do_not_change_bytes(tmp_path):
    blobs = []
    for i, threads in enumerate(("1", "4")):
        out = tmp_path / f"s{i}.csv"
        os.environ["WSFAIR_THREADS"] = threads
        try:
            code = _run("sweep", "--experiment", "samples", "--grid", "150,300",
                        "--seeds", "0..2", "--eval", "direct-lf",
                        "--methods", "baseline,sbm-linear", "--out", str(out))
        finally:
            del os.environ["WSFAIR_THREADS"]
        assert code == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]


def test_sweep_bad_seed_range_is_usage_error(tmp_path):
    code = _run("sweep", "--experiment", "samples", "--grid", "100",
                "--seeds", "abc", "--out", str(tmp_path / "x.csv"))
    assert code == 1


def _readme_commands():
    """Every `wsfair ...` line of README's sh blocks, continuations joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```sh\n(.*?)^```", text, flags=re.M | re.S)
    lines = "".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True) for line in lines
            if line.startswith("wsfair ")]


def test_readme_commands_parse():
    # a deleted command or flag must not stay documented; parsing runs nothing
    commands = _readme_commands()
    assert {argv[1] for argv in commands} == set(_COMMANDS)
    for argv in commands:
        build_parser().parse_args(argv[1:])


def test_center_scan_cli(tmp_path):
    outdir = _synth_gauss_pair(tmp_path, n=600, seed=6)
    out = tmp_path / "scan.csv"
    code = _run("center-scan", "--features", str(outdir / "features.csv"),
                "--weak", str(outdir / "weak.csv"),
                "--labels", str(outdir / "labels.csv"),
                "--lf", "0", "--out", str(out))
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "group,radius,cum_accuracy"
    assert len(lines) > 10


def test_synth_negative_seed_is_usage_error(tmp_path, capsys):
    code = _run("synth", "--experiment", "gaussian-pair", "--n", "50",
                "--seed", "-1", "--outdir", str(tmp_path / "x"))
    assert code == 1
    assert capsys.readouterr().out.startswith("usage error:")
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("theta", ["0", "-1", "nan", "inf"])
def test_synth_bad_theta_is_usage_error(tmp_path, capsys, theta):
    code = _run("synth", "--experiment", "shift", "--n", "50", f"--theta={theta}",
                "--outdir", str(tmp_path / "x"))
    assert code == 1
    assert capsys.readouterr().out.startswith("usage error:")
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("shift", ["nan", "inf", "-inf"])
def test_synth_bad_shift_is_usage_error(tmp_path, capsys, shift):
    code = _run("synth", "--experiment", "shift", "--n", "50", f"--shift={shift}",
                "--outdir", str(tmp_path / "x"))
    assert code == 1
    assert capsys.readouterr().out.startswith("usage error:")
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("shift", ["1e200", "1e300"])
def test_synth_shift_beyond_squared_range_is_quiet(tmp_path, capsys, shift):
    # squared distances to the LF center overflow; the votes are coin flips
    code = _run("synth", "--experiment", "shift", "--n", "100", "--shift", shift,
                "--outdir", str(tmp_path / "x"))
    assert code == 0
    assert capsys.readouterr().err == ""


def test_center_scan_negative_seed_is_usage_error(tmp_path, capsys):
    outdir = _synth_gauss_pair(tmp_path, n=100, seed=6)
    out = tmp_path / "scan.csv"
    code = _run("center-scan", "--features", str(outdir / "features.csv"),
                "--weak", str(outdir / "weak.csv"),
                "--labels", str(outdir / "labels.csv"),
                "--seed", "-1", "--out", str(out))
    assert code == 1
    assert capsys.readouterr().out.startswith("usage error:")
    assert not out.exists()


def test_failed_command_removes_partial_outputs(tmp_path):
    good = tmp_path / "ok.csv"
    bad = tmp_path / "missing_dir_is_a_file"
    bad.write_text("block")  # per-seed path points inside a non-directory
    code = _run("sweep", "--experiment", "shift", "--grid", "0",
                "--seeds", "0..0", "--n", "500", "--out", str(good),
                "--per-seed-out", str(bad / "nested.csv"))
    assert code == 2
    assert not good.exists()


def test_version_and_unknown_method(tmp_path):
    outdir = _synth_gauss_pair(tmp_path, n=300, seed=7)
    code = _run("sweep", "--experiment", "samples", "--grid", "100",
                "--seeds", "0..0", "--methods", "warp-drive",
                "--out", str(tmp_path / "x.csv"))
    assert code == 1
    # the deleted estimate command: run's report.json holds its numbers
    assert _run("estimate", "--features", str(outdir / "features.csv"),
                "--weak", str(outdir / "weak.csv"), "--out", str(tmp_path / "est.csv")) == 1
    assert not (tmp_path / "est.csv").exists()


def _run_args(outdir, rd, *extra):
    return ("run", "--features", str(outdir / "features.csv"),
            "--weak", str(outdir / "weak.csv"), "--labels", str(outdir / "labels.csv"),
            "--outdir", str(rd)) + extra


@pytest.mark.parametrize("extra", [
    ("--knn-k", "0"),
    ("--class-prior", "1.5"),
    ("--direct-lf-eval", "--lf-index", "9"),
    ("--method", "sbm-sinkhorn", "--sinkhorn-max-points", "0"),
    ("--epsilon", "-1"),
    ("--l2", "nan"),
    ("--l2", "inf"),
    ("--l2", "-1"),
    ("--tol", "nan"),
    ("--tol", "-1"),
    ("--max-iters", "-1"),
    ("--lr", "0.5"),
    ("--method", "sbm-sinkhorn", "--eta", "0"),
    ("--method", "sbm-sinkhorn", "--eta", "nan"),
    ("--method", "sbm-sinkhorn", "--eta", "inf"),
    ("--grid", "101"),
    ("--seed", "-1"),
    ("--method", "sbm-sinkhorn", "--sinkhorn-max-points", "100", "--seed", "-1"),
    ("--method", "sbm-linear", "--knn-k", "201"),
])
def test_run_bad_value_is_usage_error(tmp_path, extra):
    outdir = _synth_gauss_pair(tmp_path, n=200, seed=8)
    rd = tmp_path / "out"
    assert _run(*_run_args(outdir, rd, *extra)) == 1
    assert not rd.exists()


@pytest.mark.parametrize("extra", [
    ("--knn-k", "0"),
    ("--methods", "sbm-sinkhorn", "--sinkhorn-max-points", "0"),
    ("--epsilon", "-1"),
    ("--n", "0"),
    ("--eta", "-1"),
    ("--grid", ","),
    ("--grid", "100,"),
    ("--grid", "100,100"),
    ("--methods", ","),
    ("--methods", "baseline,sbm-linear,baseline"),
    ("--seeds=-1..0",),
    ("--grid", "0"),
    ("--experiment", "lfs", "--grid", "2"),
    ("--experiment", "lfs", "--grid", "3", "--n", "1"),
    ("--experiment", "shift", "--grid", "0,1", "--theta", "0"),
    ("--experiment", "shift", "--grid", "0,1", "--theta=-1"),
    ("--experiment", "shift", "--grid", "0,1", "--theta", "nan"),
    ("--experiment", "shift", "--grid", "0,1", "--theta", "inf"),
])
def test_sweep_bad_value_is_usage_error(tmp_path, capsys, extra):
    code = _run("sweep", "--experiment", "samples", "--grid", "100",
                "--seeds", "0..0", "--out", str(tmp_path / "x.csv"),
                "--per-seed-out", str(tmp_path / "p.csv"), *extra)
    assert code == 1
    assert capsys.readouterr().out.startswith("usage error:")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("extra, smaller", [
    (("--grid", "100,1000", "--knn-k", "500"), 100),
    (("--experiment", "lfs", "--grid", "3,4", "--n", "41", "--knn-k", "21"), 20),
])
def test_sweep_knn_k_above_a_group_is_usage_error(tmp_path, capsys, extra, smaller):
    # the bound holds in every cell, so it is checked before any cell runs;
    # a baseline-only sweep borrows no votes and still runs
    args = ("sweep", "--experiment", "samples", "--seeds", "0..0",
            "--out", str(tmp_path / "x.csv"), "--per-seed-out", str(tmp_path / "p.csv"), *extra)
    assert _run(*args, "--methods", "baseline,sbm-linear") == 1
    assert capsys.readouterr().out == (
        f"usage error: --knn-k must be at most the smaller group's {smaller} rows\n")
    assert list(tmp_path.iterdir()) == []
    assert _run(*args, "--methods", "baseline") == 0
    assert sorted(f.name for f in tmp_path.iterdir()) == ["p.csv", "x.csv"]


def test_sweep_failed_cell_is_an_error_row(tmp_path, capsys):
    # seed 0 of this grid raises DegenerateMoments; seed 1 succeeds
    args = ("sweep", "--experiment", "lfs", "--grid", "3", "--n", "1000",
            "--methods", "baseline")
    blobs = []
    for i, threads in enumerate(("1", "2")):
        os.environ["WSFAIR_THREADS"] = threads
        try:
            code = _run(*args, "--seeds", "0..1", "--out", str(tmp_path / f"s{i}.csv"),
                        "--per-seed-out", str(tmp_path / f"p{i}.csv"))
        finally:
            del os.environ["WSFAIR_THREADS"]
        assert code == 0
        assert capsys.readouterr().out.startswith(
            "cell failed: x=3 seed=0 method=baseline: DegenerateMoments")
        blobs.append(((tmp_path / f"s{i}.csv").read_bytes(),
                      (tmp_path / f"p{i}.csv").read_bytes()))
    assert blobs[0] == blobs[1]
    assert _run(*args, "--seeds", "1..1", "--out", str(tmp_path / "one.csv"),
                "--per-seed-out", str(tmp_path / "one_p.csv")) == 0
    assert blobs[0][0] == (tmp_path / "one.csv").read_bytes()   # sd 0, seed 1's means
    per_seed = blobs[0][1].decode().split("\n")
    assert per_seed[1] == "3,0,baseline,error,DegenerateMoments"
    assert per_seed[2:] == (tmp_path / "one_p.csv").read_text().split("\n")[1:]
    out = tmp_path / "none.csv"
    assert _run(*args, "--seeds", "0..0", "--out", str(out),
                "--per-seed-out", str(tmp_path / "none_p.csv")) == 3
    assert not out.exists() and not (tmp_path / "none_p.csv").exists()


def test_direct_lf_sweep_cell_skips_the_label_model(tmp_path):
    # samples x=100, seed 3, sbm-none: the rewritten votes are fine, but the
    # label model on them raises; a direct-lf cell never fits it
    feats, groups, truth, weak, _ = synth.gen_gaussian_pair_dataset(100, 3)
    cfg = SbmConfig(ot_kind="none", seed=3)
    with pytest.raises(NumericalError):
        run_pipeline(feats, groups, weak, cfg)
    per_seed = tmp_path / "p.csv"
    assert _run("sweep", "--experiment", "samples", "--grid", "100", "--seeds", "3..3",
                "--methods", "sbm-none", "--eval", "direct-lf",
                "--out", str(tmp_path / "s.csv"), "--per-seed-out", str(per_seed)) == 0
    used, _ = run_sbm(feats, groups, weak, cfg)
    want = fairness_report(LabelVector(used.votes[:, 0]), truth, groups)
    rows = [line.split(",") for line in per_seed.read_text().splitlines()[1:]]
    assert {metric: float(v) for _, _, _, metric, v in rows} == {
        k: want[k] for k in ("accuracy", "f1", "dp_gap", "eo_gap")}


@pytest.mark.parametrize("name", ["features.csv", "weak.csv", "labels.csv"])
def test_run_malformed_cell_exits_2(tmp_path, capsys, name):
    outdir = _synth_gauss_pair(tmp_path, n=100, seed=10)
    path = outdir / name
    lines = path.read_text().split("\n")
    lines[3] = lines[3][:-1] + "x"     # the last cell of row 2 no longer parses
    path.write_text("\n".join(lines))
    rd = tmp_path / "out"
    assert _run(*_run_args(outdir, rd)) == 2
    assert name in capsys.readouterr().out
    assert not rd.exists()


@pytest.mark.parametrize("experiment,gen", [
    ("gaussian-pair", lambda: synth.gen_gaussian_pair_dataset(300, 5)),
    ("lfcount", lambda: synth.gen_lfcount_dataset(300, 24, 5)),
    ("shift", lambda: synth.gen_shift_dataset(300, 5, shift=1.5, m=24)),
])
def test_synth_csvs_equal_the_line_writers(tmp_path, experiment, gen):
    # the goldens compare reals to 1e-12, so they cannot see a formatting change
    data = tmp_path / "data"
    assert _run("synth", "--experiment", experiment, "--n", "300", "--m", "24",
                "--shift", "1.5", "--seed", "5", "--outdir", str(data)) == 0
    feats, groups, truth, weak, _ = gen()
    assert (data / "features.csv").read_text() == line_feature_csv_text(feats, groups)
    assert (data / "weak.csv").read_text() == line_weak_csv_text(weak)
    assert (data / "labels.csv").read_text() == line_label_csv_text(truth)


@pytest.mark.parametrize("names", ["lf_1,lf_1,lf_3", ",lf_2,lf_3"])
def test_run_bad_lf_name_exits_2_without_outputs(tmp_path, capsys, names):
    outdir = _synth_gauss_pair(tmp_path, n=100, seed=9)
    path = outdir / "weak.csv"
    path.write_text(path.read_text().replace("id,lf_1,lf_2,lf_3", "id," + names, 1))
    rd = tmp_path / "out"
    assert _run(*_run_args(outdir, rd)) == 2
    assert "weak.csv: LF names must be unique" in capsys.readouterr().out
    assert not rd.exists()


def test_run_one_group_reports_null_gaps(tmp_path):
    data = tmp_path / "data"
    assert _run("synth", "--experiment", "shift", "--n", "300", "--shift", "10",
                "--seed", "1", "--outdir", str(data)) == 0
    rd = tmp_path / "out"
    assert _run(*_run_args(data, rd, "--method", "baseline")) == 0
    report = json.loads((rd / "report.json").read_text())
    for part in ("label_model", "end_model"):
        rep = report[part]
        assert rep["dp_gap"] is None and rep["eo_gap"] is None
        assert rep["n0"] == 300 and rep["n1"] == 0
        assert rep["accuracy"] is not None
    # the pooled fit is there for every LF; the per-group estimates are null
    names = (data / "weak.csv").read_text().split("\n", 1)[0].split(",")[1:]
    fit = report["label_model_fit"]
    assert [e["lf"] for e in fit] == names
    for e in fit:
        assert isinstance(e["a_hat"], float) and isinstance(e["weight"], float)
        assert all(isinstance(e[k], bool) for k in ("clamped", "moment_flag", "tie"))
        assert [e[k] for k in ("a0", "a1", "clamped0", "clamped1")] == [None] * 4


@pytest.mark.parametrize("synth_args", [
    ("gaussian-pair", "--n", "100", "--seed", "85"),   # lf_2 clamped pooled and in group 0
    ("lfcount", "--n", "600", "--m", "12", "--seed", "3")])
def test_label_model_fit_holds_every_number_estimate_printed(tmp_path, synth_args):
    data = tmp_path / "data"
    assert _run("synth", "--experiment", *synth_args, "--outdir", str(data)) == 0
    rd = tmp_path / "out"
    assert _run(*_run_args(data, rd, "--method", "baseline")) == 0
    fit = {e["lf"]: e for e in json.loads((rd / "report.json").read_text())["label_model_fit"]}
    keys = {"all": ("a_hat", "clamped"), "0": ("a0", "clamped0"), "1": ("a1", "clamped1")}
    lines = estimate_csv(data / "features.csv", data / "weak.csv").splitlines()
    assert len(lines) == 1 + 3 * len(fit)
    for line in lines[1:]:
        lf, group, a_hat, clamped = line.split(",")
        a_key, clamped_key = keys[group]
        assert fit[lf][a_key] == float(a_hat), (lf, group)
        assert fit[lf][clamped_key] is bool(int(clamped)), (lf, group)
    for e in fit.values():
        assert e["weight"] == np.log1p(e["a_hat"]) - np.log1p(-e["a_hat"])


def test_run_duplicate_feature_id_exits_2(tmp_path):
    outdir = _synth_gauss_pair(tmp_path, n=100, seed=9)
    path = outdir / "features.csv"
    lines = path.read_text().split("\n")
    lines[2] = "0," + lines[2].split(",", 1)[1]     # row 1 reuses id 0
    path.write_text("\n".join(lines))
    rd = tmp_path / "out"
    assert _run(*_run_args(outdir, rd)) == 2
    assert not rd.exists()


@pytest.mark.parametrize("name", ["weak.csv", "labels.csv"])
def test_run_duplicate_vote_or_label_id_exits_2(tmp_path, capsys, name):
    outdir = _synth_gauss_pair(tmp_path, n=100, seed=9)
    path = outdir / name
    text = path.read_text()
    path.write_text(text + text.rstrip("\n").rsplit("\n", 1)[1] + "\n")   # last id twice
    rd = tmp_path / "out"
    assert _run(*_run_args(outdir, rd)) == 2
    assert f"{name}: row ids must be unique" in capsys.readouterr().out
    assert not rd.exists()


@pytest.mark.parametrize("method", ["baseline", "sbm-linear"])
def test_run_report_formats_one_pipeline_call(tmp_path, method):
    # `wsfair run` only loads, calls run_pipeline and formats its result
    outdir = _synth_gauss_pair(tmp_path, n=600, seed=4)
    rd = tmp_path / "out"
    assert _run(*_run_args(outdir, rd, "--method", method, "--seed", "4",
                           "--hard-labels", "--postprocess", "dp-threshold",
                           "--direct-lf-eval", "--lf-index", "1")) == 0
    report = json.loads((rd / "report.json").read_text())
    feats, groups, ids = load_feature_csv(outdir / "features.csv")
    weak = load_weak_csv(outdir / "weak.csv", ids)
    truth = load_label_csv(outdir / "labels.csv", ids)
    cfg = None if method == "baseline" else SbmConfig(ot_kind="linear", seed=4)
    res = run_pipeline(feats, groups, weak, cfg, train_cfg=TrainConfig(),
                       hard_labels=True, postprocess=True)
    for key, pred in (("label_model", res.labels), ("end_model", res.end_labels),
                      ("end_model_postprocessed", res.post_labels),
                      ("direct_lf", LabelVector(res.weak_used.votes[:, 1]))):
        assert report[key] == fairness_report(pred, truth, groups)
    assert report["thresholds"] == list(res.thresholds)
    assert report["end_model_fit"] == res.end_model.training_meta
    assert report["sbm_audit"] == (res.audit.to_json() if cfg else None)
    est, (est0, est1) = res.estimate, res.group_estimates
    assert report["label_model_fit"] == [
        {"lf": name, "a_hat": float(est.per_lf[j]), "weight": float(res.params.weights[j]),
         "clamped": bool(est.clamp_flags[j]), "moment_flag": bool(est.moment_flags[j]),
         "tie": bool(est.tie_flags[j]), "a0": float(est0.per_lf[j]),
         "a1": float(est1.per_lf[j]), "clamped0": bool(est0.clamp_flags[j]),
         "clamped1": bool(est1.clamp_flags[j])} for j, name in enumerate(weak.lf_names)]


@pytest.mark.parametrize("method", ["baseline", "sbm-linear"])
def test_sweep_cell_equals_run_label_model(tmp_path, method):
    n, seed = 300, 2
    per_seed = tmp_path / "p.csv"
    assert _run("sweep", "--experiment", "samples", "--grid", str(n),
                "--seeds", f"{seed}..{seed}", "--methods", method,
                "--out", str(tmp_path / "s.csv"), "--per-seed-out", str(per_seed)) == 0
    rd = tmp_path / "out"
    assert _run(*_run_args(_synth_gauss_pair(tmp_path, n=n, seed=seed), rd,
                           "--method", method, "--seed", str(seed))) == 0
    label_model = json.loads((rd / "report.json").read_text())["label_model"]
    rows = [line.split(",") for line in per_seed.read_text().splitlines()[1:]]
    assert {metric: float(v) for _, _, _, metric, v in rows} == {
        k: label_model[k] for k in ("accuracy", "f1", "dp_gap", "eo_gap")}


@pytest.mark.parametrize("method", ["baseline", "sbm-linear"])
@pytest.mark.parametrize("experiment,family,lfs", [("samples", "gaussian-pair", [0]),
                                                   ("lfs", "lfcount", [0, 1, 2])],
                         ids=["samples", "lfs"])
def test_direct_lf_sweep_cell_equals_run_direct_lf(tmp_path, method, experiment, family,
                                                   lfs):
    # a samples cell scores LF column 0; an lfs cell at m = 3 averages all three
    n, seed, m = 300, 2, 3
    per_seed = tmp_path / "p.csv"
    assert _run("sweep", "--experiment", experiment, "--n", str(n),
                "--grid", str(n if experiment == "samples" else m),
                "--seeds", f"{seed}..{seed}", "--methods", method, "--eval", "direct-lf",
                "--out", str(tmp_path / "s.csv"), "--per-seed-out", str(per_seed)) == 0
    data = tmp_path / "data"
    assert _run("synth", "--experiment", family, "--n", str(n), "--m", str(m),
                "--seed", str(seed), "--outdir", str(data)) == 0
    blocks = []
    for j in lfs:
        rd = tmp_path / f"out{j}"
        assert _run(*_run_args(data, rd, "--method", method, "--seed", str(seed),
                               "--direct-lf-eval", "--lf-index", str(j))) == 0
        blocks.append(json.loads((rd / "report.json").read_text())["direct_lf"])
    want = {}
    for k in ("accuracy", "f1", "dp_gap", "eo_gap"):
        vals = [b[k] for b in blocks if b[k] is not None]
        if vals:
            want[k] = float(np.mean(vals))
    rows = [line.split(",") for line in per_seed.read_text().splitlines()[1:]]
    assert {metric: float(v) for _, _, _, metric, v in rows} == want


@pytest.mark.parametrize("extra,calls", [
    ((), 2), (("--postprocess", "dp-threshold"), 3),
    (("--postprocess", "dp-threshold", "--direct-lf-eval"), 4)],
    ids=["neither", "postprocess", "postprocess-direct-lf"])
def test_run_scores_only_the_blocks_it_writes(tmp_path, monkeypatch, extra, calls):
    # the 24 LF columns are scored only for the one block --direct-lf-eval writes
    scored = []

    def counted(*args, _fn=metrics.fairness_report):
        scored.append(args[0])
        return _fn(*args)

    monkeypatch.setattr(metrics, "fairness_report", counted)
    data = tmp_path / "data"
    assert _run("synth", "--experiment", "lfcount", "--n", "400", "--m", "24",
                "--seed", "1", "--outdir", str(data)) == 0
    assert _run(*_run_args(data, tmp_path / "out", *extra)) == 0
    assert len(scored) == calls


@pytest.mark.parametrize("method", ["baseline", "sbm-linear"])
def test_run_calls_end_model_stages_through_their_modules(tmp_path, monkeypatch,
                                                          method):
    # the benchmark's span wrappers replace these module attributes; each
    # stage must go through them once, with train_logreg's config third
    calls = {}
    for module, name in ((endmodel, "train_logreg"), (endmodel, "predict_logreg"),
                         (metrics, "dp_threshold")):
        def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
            calls.setdefault(_name, []).append(args)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    outdir = _synth_gauss_pair(tmp_path, n=300, seed=3)
    assert _run(*_run_args(outdir, tmp_path / "out", "--method", method,
                           "--postprocess", "dp-threshold")) == 0
    assert {k: len(v) for k, v in calls.items()} == {
        "train_logreg": 1, "predict_logreg": 1, "dp_threshold": 1}
    assert isinstance(calls["train_logreg"][0][2], TrainConfig)


@functools.lru_cache(maxsize=None)
def _pair_300():
    return synth.gen_gaussian_pair_dataset(300, 0)


@settings(derandomize=True, deadline=None, max_examples=20)
@given(s=st.integers(-300, 300), scaled=st.sampled_from(["group 1", "both"]),
       cut=st.none() | st.tuples(st.sampled_from([0, 1]), st.integers(1, 3)))
@example(s=100, scaled="both", cut=None)       # the linear map overflows
@example(s=154, scaled="group 1", cut=None)    # squared neighbor distances overflow
@example(s=300, scaled="both", cut=None)       # the covariances and the cost overflow
@example(s=-300, scaled="both", cut=None)
@example(s=0, scaled="group 1", cut=(1, 1))    # one row has no covariance
def test_run_contains_every_numerical_failure_of_a_map(s, scaled, cut):
    """Features scaled by 10^s with |s| <= 300, and a group cut to 1-3 rows,
    are usable input: every method exits 0 and writes its outputs, and an LF
    whose map failed keeps its votes and records why."""
    feats, groups, truth, weak, _ = _pair_300()
    g = groups.group_of
    x = feats.values * np.where((g == 1) | (scaled == "both"), 10.0 ** s, 1.0)[:, None]
    keep = np.arange(len(g))
    if cut is not None:
        small, rows = cut
        keep = np.concatenate([np.flatnonzero(g != small), np.flatnonzero(g == small)[:rows]])
    with tempfile.TemporaryDirectory() as tmp:
        data = Path(tmp)
        (data / "features.csv").write_text(
            feature_csv_text(FeatureMatrix(x[keep]), GroupAssignment(g[keep])))
        (data / "weak.csv").write_text(weak_csv_text(WeakLabelMatrix(weak.votes[keep])))
        (data / "labels.csv").write_text(label_csv_text(LabelVector(truth.labels[keep])))
        for method in METHODS:
            out = data / method
            assert main(_run_args(data, out, "--method", method)) == 0, method
            report = json.loads((out / "report.json").read_text())
            acc = {tuple(r.split(",")[:2]): r.split(",")[2:]
                   for r in (out / "per_lf.csv").read_text().split("\n")[1:-1]}
            for lf in report["sbm_audit"] or []:
                picked = lf["a1"] >= lf["a0"] + 0.05 or lf["a0"] >= lf["a1"] + 0.05
                if lf["error"] is not None:
                    assert (lf["direction"], lf["map_id"], lf["rows_rewritten"]) == (
                        "none", None, 0), (method, lf)
                    assert all(pre == post for (name, _), (pre, post) in acc.items()
                               if name == lf["lf"])
                else:
                    assert not picked or lf["map_id"] is not None, (method, lf)


def test_sweep_contains_a_one_row_groups_moment_failure(tmp_path):
    # at one row per group, sbm-linear cannot estimate a covariance: run_sbm
    # keeps the votes, so the cell scores as baseline; seed 1's label model
    # fails in both methods and only those cells become error rows
    per_seed = tmp_path / "p.csv"
    assert _run("sweep", "--experiment", "samples", "--grid", "1,200", "--seeds", "0..1",
                "--methods", "baseline,sbm-linear", "--out", str(tmp_path / "s.csv"),
                "--per-seed-out", str(per_seed)) == 0
    rows = [r.split(",") for r in per_seed.read_text().split("\n")[1:-1]]
    assert [r for r in rows if r[3] == "error"] == [
        ["1", "1", method, "error", "DegenerateMoments"] for method in ("baseline", "sbm-linear")]
    assert {tuple(r[:3]) for r in rows} == {
        (x, seed, method) for x in ("1", "200") for seed in ("0", "1")
        for method in ("baseline", "sbm-linear")}
    one_row = [r for r in rows if r[:2] == ["1", "0"]]
    assert ([r[3:] for r in one_row if r[2] == "baseline"]
            == [r[3:] for r in one_row if r[2] == "sbm-linear"] != [])


@pytest.mark.parametrize("one_group", [False, True])
def test_per_lf_csv_equals_the_per_column_loop(one_group):
    # the vectorised table against the one-column-at-a-time means it replaced
    rng = np.random.default_rng(22)
    n, m = 257, 24
    pre, post = (WeakLabelMatrix(rng.choice([-1, 1], size=(n, m))) for _ in range(2))
    truth = LabelVector(rng.choice([-1, 1], size=n))
    groups = GroupAssignment(np.zeros(n, int) if one_group else rng.integers(0, 2, size=n))
    lines = ["lf,group,acc_pre,acc_post"]
    for g in (0, 1):
        rows = groups.indices(g)
        for j, name in enumerate(pre.lf_names):
            if rows.size:
                a = float((pre.votes[rows, j] == truth.labels[rows]).mean())
                b = float((post.votes[rows, j] == truth.labels[rows]).mean())
                lines.append(f"{name},{g},{format_real(a)},{format_real(b)}")
    assert _per_lf_csv(pre, post, truth, groups) == "\n".join(lines) + "\n"
