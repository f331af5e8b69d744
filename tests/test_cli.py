import hashlib
import json
import csv
import os
import platform
import shlex
import struct
import subprocess
import sys
import tempfile
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _hmm_oracle import oracle_step_labels
from omnitft import cli, labeler
from omnitft.cli import PipelineConfig, main, resolve_configs
from omnitft.ingest import read_split_grids, synthetic_schema
from omnitft.model import Model, ModelConfig, load_checkpoint, save_checkpoint
from omnitft.penalties import PenaltyWeights
from omnitft.schema import load_schema


def run(argv):
    return main(argv)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    code = run([
        "synth", "--patients", "14", "--shock-rate", "0.3", "--seed", "5",
        "--out", str(out), "--encoder-len", "6", "--horizon-len", "3",
        "--min-steps", "24", "--max-steps", "32",
    ])
    assert code == 0
    return out


def test_synth_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        code = run(["synth", "--patients", "6", "--seed", "1", "--out", str(out),
                    "--min-steps", "20", "--max-steps", "24"])
        assert code == 0
    for name in ("data.csv", "schema.json", "truth_labels.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_synth_zero_shock_all_stable(tmp_path):
    out = tmp_path / "calm"
    run(["synth", "--patients", "4", "--shock-rate", "0", "--seed", "2",
         "--out", str(out), "--min-steps", "20", "--max-steps", "24"])
    with open(out / "truth_labels.csv") as fh:
        labels = {row["label"] for row in csv.DictReader(fh)}
    assert labels == {"stable"}


@pytest.mark.parametrize("flags,named", [
    (["--min-steps", "50", "--max-steps", "20"], "--max-steps"),  # was a ValueError traceback
    (["--min-steps", "0", "--max-steps", "4"], "--min-steps"),  # was an IndexError traceback
    (["--grid-step-min", "nan"], "--grid-step-min"),  # wrote a schema every command rejects
    (["--grid-step-min", "0"], "--grid-step-min"),
    (["--patients", "0"], "--patients"),  # wrote an empty cohort
    (["--seed", "-1"], "--seed"),  # was a ValueError traceback
    (["--encoder-len", "0"], "--encoder-len"),  # named the schema fields, not the flag
    (["--horizon-len", "-1"], "--horizon-len"),
    (["--shock-rate", "1"], "--shock-rate"),
])
def test_synth_bad_flag_exits_2_naming_it(tmp_path, capsys, flags, named):
    out = tmp_path / "syn"
    assert run(["synth", "--out", str(out), *flags]) == 2
    assert named in capsys.readouterr().err
    assert not (out / "schema.json").exists()


def test_synth_manifest_lists_three_artifacts(synth_dir):
    manifest = read_json(synth_dir / "manifest.json")
    assert len(manifest["artifacts"]) == 3
    names = {a["path"].rsplit("/", 1)[-1] for a in manifest["artifacts"]}
    assert names == {"data.csv", "schema.json", "truth_labels.csv"}
    for a in manifest["artifacts"]:
        assert len(a["sha256"]) == 64


def test_default_config_reproduces_reference_values():
    model_cfg, train_cfg, extras = resolve_configs({})
    assert train_cfg.lr == 1e-5
    assert train_cfg.batch == 64
    assert train_cfg.clip == 1.0
    assert train_cfg.max_epochs == 300
    assert train_cfg.patience == 10
    assert model_cfg.hidden == 128 and model_cfg.heads == 6 and model_cfg.blocks == 4
    assert model_cfg.dropout == 0.3


def test_train_missing_schema_exits_2(tmp_path, capsys):
    code = run(["train", "--data", str(tmp_path), "--schema",
                str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_train_dry_run(synth_dir, tmp_path):
    code = run([
        "train", "--data", str(synth_dir), "--schema", str(synth_dir / "schema.json"),
        "--out", str(tmp_path / "run"), "--dry-run",
    ])
    assert code == 0


def test_each_command_hashes_data_csv_once(synth_dir, trained_dir, tmp_path, monkeypatch):
    # ingest hashes data.csv for its cache key; the manifest lists it with that digest
    hashed = []
    digest = cli._digest
    monkeypatch.setattr(cli, "_digest", lambda p: hashed.append(Path(p).name) or digest(p))
    data, schema = synth_dir / "data.csv", synth_dir / "schema.json"
    ckpt = trained_dir / "checkpoint.bin"
    commands = {
        "train": (["train", "--schema", str(schema), "--dry-run"], [data, schema]),
        "eval": (["eval", "--checkpoint", str(ckpt)], [data, ckpt]),
        "label": (["label", "--schema", str(schema)], [data, schema]),
    }
    for name, (argv, inputs) in commands.items():
        hashed.clear()
        assert run([*argv, "--data", str(synth_dir), "--out", str(tmp_path / name)]) == 0
        assert hashed.count("data.csv") == 1, (name, hashed)
        assert read_json(tmp_path / name / "manifest.json")["inputs"] == [
            {"path": str(p), "sha256": hashlib.sha256(p.read_bytes()).hexdigest()}
            for p in inputs
        ], name


def test_manifest_records_the_environment_of_the_run(synth_dir, tmp_path):
    src = Path(cli.__file__).resolve().parents[1]
    for threads in ("1", "2"):
        out = tmp_path / f"threads-{threads}"
        done = subprocess.run(
            [sys.executable, "-m", "omnitft.cli", "train", "--data", str(synth_dir),
             "--schema", str(synth_dir / "schema.json"), "--out", str(out), "--dry-run"],
            env={**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": threads},
            capture_output=True, text=True,
        )
        assert done.returncode == 0, done.stderr
        recorded = read_json(out / "manifest.json")["environment"]
        assert recorded["OPENBLAS_NUM_THREADS"] == threads
        assert recorded["python"] == platform.python_version()
        assert recorded["numpy"] == np.__version__
        assert recorded["nproc"] >= 1 and recorded["peak_rss_mb"] > 0


def test_a_failed_environment_lookup_records_null(synth_dir, tmp_path, monkeypatch):
    def fail(error):
        def lookup(*args, **kwargs):
            raise error
        return lookup

    # as numpy before 1.26 answers show_config(mode=...), and a host without affinity
    monkeypatch.setattr(np, "show_config", fail(TypeError("unexpected keyword 'mode'")))
    monkeypatch.setattr(os, "sched_getaffinity", fail(OSError("no affinity")), raising=False)
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    assert run(["train", "--data", str(synth_dir), "--schema", str(synth_dir / "schema.json"),
                "--out", str(tmp_path / "run"), "--dry-run"]) == 0
    recorded = read_json(tmp_path / "run" / "manifest.json")["environment"]
    assert recorded["blas"] is None and recorded["nproc"] is None
    assert recorded["OPENBLAS_NUM_THREADS"] is None


@pytest.mark.parametrize("key,value", [
    ("ratios", [7, 3]),
    ("ratios", [0, 0, 0]),
    ("ratios", [7, -1, 1]),
    ("ratios", "721"),
    ("split_seed", -1),
    ("max_gap_h", -0.5),
    ("missing_threshold", 1.5),
    ("missing_threshold", -0.1),
    ("delta", {"y": "high"}),
])
def test_train_bad_pipeline_setting_exits_2(synth_dir, tmp_path, capsys, key, value):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({key: value}))
    code = run([
        "train", "--data", str(synth_dir), "--schema", str(synth_dir / "schema.json"),
        "--config", str(cfg_path), "--out", str(tmp_path / "run"), "--dry-run",
    ])
    assert code == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("doc,named", [
    ([7, 2, 1], "JSON object"),
    ({"model": {"hidden": "8"}}, "model.hidden"),
    ({"model": {"hiddn": 8}}, "model.hiddn"),
    ({"model": [8]}, "model"),
    ({"lr": "x"}, "lr"),
    ({"seed": -1}, "seed"),
    ({"model_seed": "x"}, "model_seed"),
    ({"quantiles": [0.1, "0.5"]}, "quantiles"),
    ({"weights": {"lambda_embd": 1}}, "weights.lambda_embd"),
    ({"weights": {"lambda_embed": -1}}, "lambda_embed"),
    ({"model": {"quantiles": [0.1, "0.5"]}}, "model.quantiles"),
    ({"bacth": 32, "max_epoch": 2}, "unknown config key 'bacth'"),
    ({"delta": {"y": 1.0, "nope": 2.0}}, "delta.nope"),
    # accepted before: 0 zeroed every gradient, -1 reversed it, and both exited 0
    ({"clip": 0}, "clip"),
    ({"clip": -1}, "clip"),
    ({"delta": {"y": -1}}, "delta.y"),
])
def test_train_malformed_config_exits_2(synth_dir, tmp_path, capsys, doc, named):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(doc))
    code = run([
        "train", "--data", str(synth_dir), "--schema", str(synth_dir / "schema.json"),
        "--config", str(cfg_path), "--out", str(tmp_path / "run"), "--dry-run",
    ])
    assert code == 2
    assert named in capsys.readouterr().err


def _set(key, value):
    return lambda doc: {**doc, key: value}


def _edit_feature(edit):
    def apply(doc):
        edit(doc["features"][0])
        return doc
    return apply


# Every case exited 1 with a traceback, or passed silently, before schema.json
# was checked key by key.
BAD_SCHEMAS = {
    "features-not-a-list": (lambda d: {**d, "features": {f["name"]: f for f in d["features"]}},
                            "'features' must be a list"),
    "json-list": (lambda d: d["features"], "the schema must be a JSON object, got a list"),
    "feature-not-an-object": (lambda d: {**d, "features": ["y"] + d["features"][1:]},
                              "features[0] must be a JSON object, got a str"),
    "encoder-len-missing": (lambda d: {k: v for k, v in d.items() if k != "encoder_len"},
                            "'encoder_len' is missing"),
    "feature-name-missing": (_edit_feature(lambda f: f.pop("name")),
                             "'features[0].name' is missing"),
    "encoder-len-float": (_set("encoder_len", 1.5), "'encoder_len' must be an integer, got 1.5"),
    "encoder-len-string": (_set("encoder_len", "12"), "'encoder_len' must be an integer"),
    "grid-step-string": (_set("grid_step_min", "60"), "'grid_step_min' must be a number"),
    "horizon-len-bool": (_set("horizon_len", True), "'horizon_len' must be an integer"),
    "unknown-feature-key": (_edit_feature(lambda f: f.update(units="bpm")),
                            "unknown schema key 'features[0].units'"),
    "unknown-key": (_set("encoder", 12), "unknown schema key 'encoder'"),
}


def _bad_schema(synth_dir, tmp_path, case) -> Path:
    edit, _ = BAD_SCHEMAS[case]
    path = tmp_path / "schema.json"
    path.write_text(json.dumps(edit(read_json(synth_dir / "schema.json"))))
    return path


@pytest.mark.parametrize("case", sorted(BAD_SCHEMAS))
def test_train_bad_schema_exits_2_naming_file_and_key(synth_dir, tmp_path, capsys, case):
    schema = _bad_schema(synth_dir, tmp_path, case)
    code = run(["train", "--data", str(synth_dir), "--schema", str(schema),
                "--out", str(tmp_path / "run"), "--dry-run"])
    assert code == 2
    err = capsys.readouterr().err
    assert f"{schema}: " in err and BAD_SCHEMAS[case][1] in err


def test_label_bad_schema_exits_2(synth_dir, tmp_path, capsys):
    schema = _bad_schema(synth_dir, tmp_path, "encoder-len-float")
    code = run(["label", "--data", str(synth_dir), "--schema", str(schema),
                "--out", str(tmp_path / "lab")])
    assert code == 2
    assert f"{schema}: schema key 'encoder_len'" in capsys.readouterr().err


def test_label_unknown_config_key_exits_2(synth_dir, tmp_path, capsys):
    cfg = tmp_path / "delta.json"
    cfg.write_text(json.dumps({"detla": {"y": 1.0}}))
    code = run(["label", "--data", str(synth_dir), "--schema",
                str(synth_dir / "schema.json"), "--delta-config", str(cfg),
                "--out", str(tmp_path / "lab")])
    assert code == 2
    assert "unknown config key 'detla'" in capsys.readouterr().err


@pytest.fixture(scope="module")
def trained_dir(synth_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    cfg = {
        "lr": 3e-3, "batch": 32, "max_epochs": 4, "patience": 4, "seed": 0,
        "model": {"hidden": 8, "heads": 2, "blocks": 1, "dropout": 0.0},
    }
    cfg_path = out / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    code = run([
        "train", "--data", str(synth_dir), "--schema", str(synth_dir / "schema.json"),
        "--config", str(cfg_path), "--out", str(out),
    ])
    assert code == 0
    return out


def test_train_artifacts(trained_dir):
    assert (trained_dir / "checkpoint.bin").exists()
    hist = (trained_dir / "history.csv").read_text().splitlines()
    assert hist[0].startswith("epoch,")
    assert len(hist) >= 3
    manifest = read_json(trained_dir / "manifest.json")
    names = {a["path"].rsplit("/", 1)[-1] for a in manifest["artifacts"]}
    assert {"checkpoint.bin", "history.csv", "resolved_config.json",
            "ingest_manifest.json"} <= names
    assert {"grid_train.csv", "mask_train.csv", "grid_val.csv", "grid_test.csv"} <= names
    ingest_manifest = read_json(trained_dir / "ingest_manifest.json")
    assert "medians" in ingest_manifest and "trimmed_steps" in ingest_manifest
    assert sum(ingest_manifest["split_counts"].values()) == ingest_manifest["n_retained"]


def test_a_desk_train_forwards_its_baseline_in_256_window_calls(tmp_path, monkeypatch):
    # one forward per batch made this 88 calls: 41 steps, 41 baseline batches
    # of 32 and three validation calls in each of epochs 0 and 1
    data = tmp_path / "syn"
    assert run(["synth", "--patients", "64", "--seed", "411", "--min-steps", "72",
                "--max-steps", "72", "--out", str(data)]) == 0
    cfg = tmp_path / "desk.json"
    cfg.write_text(json.dumps({"lr": 3e-3, "batch": 32, "max_epochs": 1, "patience": 1,
                               "model": {"hidden": 16, "heads": 2, "blocks": 2}}))
    forward, calls = Model.forward, []

    def counting(model, batch, rng=None):
        calls.append((batch.size, rng is not None))
        return forward(model, batch, rng=rng)

    monkeypatch.setattr(Model, "forward", counting)
    assert run(["train", "--data", str(data), "--schema", str(data / "schema.json"),
                "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
    assert sum(step for _, step in calls) == 41
    assert [n for n, step in calls if not step] == [256] * 5 + [30] + [256, 256, 172] * 2
    assert len(calls) == 53


def test_train_manifest_records_the_run_result(trained_dir):
    result = read_json(trained_dir / "manifest.json")["result"]
    assert set(result) == {"best_epoch", "best_val", "stopped_epoch", "diverged",
                           "single_class", "clip_frac"}
    assert 0.0 <= result["clip_frac"] <= 1.0
    with open(trained_dir / "history.csv") as fh:
        rows = list(csv.DictReader(fh))
    vals = [float(r["val_loss"]) for r in rows]
    assert result["best_val"] == min(vals)
    assert result["best_epoch"] == int(rows[vals.index(min(vals))]["epoch"])
    assert result["stopped_epoch"] == int(rows[-1]["epoch"])
    assert result["diverged"] is False and isinstance(result["single_class"], bool)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_diverged_exit_code(synth_dir, tmp_path):
    out = tmp_path / "boom"
    cfg = {
        "lr": 1e154, "batch": 32, "max_epochs": 6, "patience": 6, "seed": 0,
        "model": {"hidden": 8, "heads": 2, "blocks": 1, "dropout": 0.0},
    }
    cfg_path = tmp_path / "boom.json"
    cfg_path.write_text(json.dumps(cfg))
    code = run([
        "train", "--data", str(synth_dir), "--schema", str(synth_dir / "schema.json"),
        "--config", str(cfg_path), "--out", str(out),
    ])
    assert code == 3
    assert (out / "checkpoint.bin").exists()  # last good parameters still land
    assert read_json(out / "manifest.json")["result"]["diverged"] is True


def test_train_without_validation_split_exits_2(synth_dir, tmp_path, capsys):
    out = tmp_path / "noval"
    cfg = {
        "lr": 3e-3, "batch": 32, "max_epochs": 1, "patience": 1, "ratios": [8, 0, 2],
        "model": {"hidden": 8, "heads": 2, "blocks": 1, "dropout": 0.0},
    }
    (tmp_path / "noval.json").write_text(json.dumps(cfg))
    code = run(["train", "--data", str(synth_dir), "--schema", str(synth_dir / "schema.json"),
                "--config", str(tmp_path / "noval.json"), "--out", str(out)])
    assert code == 2
    assert "no validation windows" in capsys.readouterr().err
    assert not (out / "checkpoint.bin").exists()


# ratios that leave one split without patients: the remainder of the floors
# goes to train, so an empty train split needs a zero share and no remainder
EMPTY_SPLIT_RATIOS = {"train": ([0, 1, 1], "no training windows"),
                      "val": ([8, 0, 2], "no validation windows")}


# a real train without validation windows is test_train_without_validation_split_exits_2
@pytest.mark.parametrize("split,dry_run", [("train", True), ("val", True), ("train", False)],
                         ids=["dry-run-train", "dry-run-val", "train-train"])
def test_train_with_an_empty_split_exits_2(synth_dir, tmp_path, capsys, split, dry_run):
    ratios, message = EMPTY_SPLIT_RATIOS[split]
    cfg = {"ratios": ratios, "max_epochs": 1,
           "model": {"hidden": 8, "heads": 2, "blocks": 1, "dropout": 0.0}}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    out = tmp_path / "run"
    code = run(["train", "--data", str(synth_dir), "--schema", str(synth_dir / "schema.json"),
                "--config", str(tmp_path / "cfg.json"), "--out", str(out)]
               + ["--dry-run"] * dry_run)
    assert code == 2
    captured = capsys.readouterr()
    assert message in captured.err and "dry run ok" not in captured.out
    assert not (out / "checkpoint.bin").exists()


def test_eval_writes_metrics_and_exports(synth_dir, trained_dir, tmp_path):
    out = tmp_path / "eval"
    code = run([
        "eval", "--checkpoint", str(trained_dir / "checkpoint.bin"),
        "--data", str(synth_dir), "--out", str(out), "--split", "test",
    ])
    assert code == 0
    reports = read_json(out / "metrics.json")
    assert len(reports) == 1 and reports[0]["target"] == "y"
    assert (out / "metrics.txt").exists()
    assert (out / "importance_y.csv").exists()
    traj = list(csv.DictReader(open(out / "trajectory_y.csv")))
    assert len(traj) == 6 + 3  # encoder plus horizon rows


@pytest.mark.parametrize("split", ["test", "train"])
def test_eval_enumerates_windows_of_its_split_only(synth_dir, trained_dir, tmp_path,
                                                  monkeypatch, split):
    received = []

    def recording(splits, *rest):
        received.append(sorted(splits))
        return build_window_pools(splits, *rest)

    build_window_pools = cli.build_window_pools
    monkeypatch.setattr(cli, "build_window_pools", recording)
    code = run(["eval", "--checkpoint", str(trained_dir / "checkpoint.bin"),
                "--data", str(synth_dir), "--out", str(tmp_path / "e"), "--split", split])
    assert code == 0
    assert received == [[split]]


def test_eval_deterministic(synth_dir, trained_dir, tmp_path):
    outs = []
    for sub in ("e1", "e2"):
        out = tmp_path / sub
        code = run([
            "eval", "--checkpoint", str(trained_dir / "checkpoint.bin"),
            "--data", str(synth_dir), "--out", str(out),
        ])
        assert code == 0
        outs.append(out)
    assert (outs[0] / "metrics.json").read_bytes() == (outs[1] / "metrics.json").read_bytes()


def _flat_cohort(out):
    """Twelve patients whose target is the constant 42."""
    schema = synthetic_schema(encoder_len=4, horizon_len=2)
    from omnitft.ingest import PatientSeries, write_events_csv
    from omnitft.schema import save_schema

    rng = np.random.default_rng(0)
    series = []
    for p in range(12):
        n = 20
        values = np.zeros((n, len(schema.features)))
        values[:, schema.column("y")] = 42.0
        values[:, schema.column("obs_lag")] = rng.normal(size=n)
        values[:, schema.column("obs_mix")] = rng.normal(size=n)
        values[:, schema.column("age")] = 60.0
        series.append(PatientSeries(f"p{p:02d}", values,
                                    np.ones_like(values, dtype=bool), imputed=True))
    out.mkdir()
    write_events_csv(out / "data.csv", series, schema)
    save_schema(schema, out / "schema.json")
    return schema


def _oracle_eval(tmp_path, quantiles, head_bias):
    """Eval a zeroed model, whose outputs are its head bias, on the flat cohort."""
    data = tmp_path / "flat"
    schema = _flat_cohort(data)
    cfg = ModelConfig(hidden=8, heads=2, blocks=1, dropout=0.0, quantiles=quantiles)
    model = Model(schema, cfg, seed=0)
    for p in model.params.values():
        p.data[:] = 0.0
    model.params["head/b"].data[:] = head_bias
    ckpt = tmp_path / "oracle.bin"
    save_checkpoint(ckpt, model)
    eval_out = tmp_path / "oracle_eval"
    code = run(["eval", "--checkpoint", str(ckpt), "--data", str(data),
                "--out", str(eval_out)])
    return code, eval_out


def test_eval_perfect_oracle_stub_zero_mae(tmp_path):
    # constant-target data plus a zeroed model whose head bias hits it
    code, eval_out = _oracle_eval(tmp_path, (0.1, 0.5, 0.9), 42.0)
    assert code == 0
    report = read_json(eval_out / "metrics.json")[0]
    assert report["mae"] == 0.0
    assert "0.00 (0.00)" in (eval_out / "metrics.txt").read_text()


def test_eval_picks_quantile_columns_by_level(tmp_path):
    # only the 0.5 column hits the target; 0.1 and 0.9 sit at 41 and 43
    code, eval_out = _oracle_eval(
        tmp_path, (0.05, 0.1, 0.5, 0.9, 0.95), np.array([40.0, 41.0, 42.0, 43.0, 44.0])
    )
    assert code == 0
    report = read_json(eval_out / "metrics.json")[0]
    assert report["mae"] == 0.0
    assert report["p10_coverage"] == 0.0 and report["p90_coverage"] == 1.0
    traj = [r for r in csv.DictReader(open(eval_out / "trajectory_y.csv")) if r["p50"]]
    assert {(r["p10"], r["p50"], r["p90"]) for r in traj} == {("41.0", "42.0", "43.0")}


def test_eval_quantile_set_without_reported_levels_exits_2(tmp_path, capsys):
    code, _ = _oracle_eval(tmp_path, (0.05, 0.25, 0.5, 0.75, 0.95), 42.0)
    assert code == 2
    assert "[0.1, 0.9]" in capsys.readouterr().err


def test_eval_schema_mismatch_exits_2(synth_dir, tmp_path, capsys):
    other = synthetic_schema(encoder_len=9, horizon_len=2)
    model = Model(other, ModelConfig(hidden=8, heads=2, blocks=1, dropout=0.0), seed=0)
    ckpt = tmp_path / "other.bin"
    save_checkpoint(ckpt, model)
    code = run(["eval", "--checkpoint", str(ckpt), "--data", str(synth_dir),
                "--out", str(tmp_path / "x")])
    assert code == 2
    assert "schema" in capsys.readouterr().err.lower()


def test_eval_bad_data_dir_schema_exits_2(synth_dir, trained_dir, tmp_path, capsys):
    data = tmp_path / "data"
    data.mkdir()
    (data / "data.csv").write_bytes((synth_dir / "data.csv").read_bytes())
    _bad_schema(synth_dir, data, "json-list")
    code = run(["eval", "--checkpoint", str(trained_dir / "checkpoint.bin"),
                "--data", str(data), "--out", str(tmp_path / "x")])
    assert code == 2
    assert f"{data / 'schema.json'}: the schema must be a JSON object" in capsys.readouterr().err


def test_train_non_finite_value_exits_2(synth_dir, tmp_path, capsys):
    data = tmp_path / "nan_data"
    data.mkdir()
    lines = (synth_dir / "data.csv").read_text().splitlines()
    pid, time_h, feature, _ = lines[5].split(",")
    lines[5] = ",".join([pid, time_h, feature, "nan"])
    (data / "data.csv").write_text("\n".join(lines) + "\n")
    code = run(["train", "--data", str(data), "--schema", str(synth_dir / "schema.json"),
                "--out", str(tmp_path / "run")])
    assert code == 2
    assert "line 6" in capsys.readouterr().err


def _data_with(synth_dir, tmp_path, tail: bytes) -> Path:
    """A copy of the cohort whose data.csv ends in `tail`."""
    data = tmp_path / "data"
    data.mkdir()
    (data / "data.csv").write_bytes((synth_dir / "data.csv").read_bytes() + tail)
    return data


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv", [["train"], ["train", "--dry-run"], ["label", "--method", "hmm"]],
                         ids=["train", "dry-run", "label-hmm"])
@pytest.mark.parametrize("feature,value", [("obs_mix", "1e300"), ("y", "1e200")])
def test_train_overflowing_scaler_exits_2_naming_the_feature(synth_dir, tmp_path, capsys, argv,
                                                           feature, value):
    # squares this large overflow the feature's std to inf, which scaled it to 0;
    # a dry run and label exited 0, label after overflows in the HMM
    data = _data_with(synth_dir, tmp_path, f"p0000,1.0,{feature},{value}\n".encode())
    code = run([argv[0], "--data", str(data), "--schema", str(synth_dir / "schema.json"),
                "--out", str(tmp_path / "run"), *argv[1:]])
    assert code == 2
    err = capsys.readouterr().err
    assert f"{data / 'data.csv'}: scalers.{feature} must be a pair of finite numbers" in err


def test_train_non_utf8_data_exits_2_naming_the_file(synth_dir, tmp_path, capsys):
    data = _data_with(synth_dir, tmp_path, b"\xff")  # was a UnicodeDecodeError traceback
    code = run(["train", "--data", str(data), "--schema", str(synth_dir / "schema.json"),
                "--out", str(tmp_path / "run"), "--dry-run"])
    assert code == 2
    assert f"{data / 'data.csv'} is not UTF-8 text" in capsys.readouterr().err


# -- bad values never reach a grid ----------------------------------------------


@pytest.mark.parametrize("argv", [["train", "--dry-run"], ["train"], ["label", "--method", "hmm"]],
                         ids=["dry-run", "train", "label-hmm"])
def test_an_overflowing_bin_mean_exits_2_naming_patient_feature_and_step(synth_dir, tmp_path,
                                                                        capsys, argv):
    # two finite values whose sum overflows made the bin mean inf: a dry run and
    # label exited 0, and train exited 2 blaming scalers.y
    data = _data_with(synth_dir, tmp_path, b"p0000,1.0,y,1e308\np0000,1.0,y,1e308\n")
    code = run([argv[0], "--data", str(data), "--schema", str(synth_dir / "schema.json"),
                "--out", str(tmp_path / "run"), *argv[1:]])
    assert code == 2
    err = capsys.readouterr().err
    assert f"{data / 'data.csv'}: patient 'p0000': feature 'y' at step 1 bins to inf" in err


def _run_capped(argv) -> subprocess.CompletedProcess:
    """One command in a fresh interpreter under `ulimit -v 3000000` (about
    2.9 GiB of address space), so an oversized grid fails at once."""
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"}
    cmd = shlex.join([sys.executable, "-m", "omnitft.cli", *map(str, argv)])
    return subprocess.run(["bash", "-c", f"ulimit -v 3000000 && exec {cmd}"], env=env,
                          capture_output=True, text=True)


def _schema_with(synth_dir, tmp_path, edit) -> Path:
    doc = read_json(synth_dir / "schema.json")
    edit(doc)
    path = tmp_path / "schema.json"
    path.write_text(json.dumps(doc))
    return path


def test_a_far_time_drops_its_patient_before_allocating_its_grid(synth_dir, tmp_path):
    # one row at 1e12 h asked for a 50.9 TiB grid (exit 1, ArrayMemoryError); so
    # sparse a grid misses more than 0.8 of its observed cells, and filter_patients
    # would drop the patient anyway
    data = _data_with(synth_dir, tmp_path, b"p0000,1e12,y,80.0\n")
    done = _run_capped(["train", "--data", data, "--schema", synth_dir / "schema.json",
                        "--out", tmp_path / "run", "--dry-run"])
    assert done.returncode == 0, done.stderr
    _, _, report, _ = PipelineConfig().ingest(data, load_schema(synth_dir / "schema.json"))
    assert report["n_input_patients"] == 14 and report["n_dropped"] == 1
    assert "p0000" not in report["trimmed_steps"]


def test_a_tiny_grid_step_exits_2_naming_the_file(synth_dir, tmp_path):
    # grid_step_min 1e-6 asked for a 219 GiB grid per patient (exit 1)
    schema = _schema_with(synth_dir, tmp_path, lambda d: d.update(grid_step_min=1e-6))
    done = _run_capped(["train", "--data", synth_dir, "--schema", schema,
                        "--out", tmp_path / "run", "--dry-run"])
    assert done.returncode == 2, done.stderr
    assert (f"{synth_dir / 'data.csv'}: need >= 10 patients, got 0; 14 of 14 dropped as more "
            f"than 0.8 missing") in done.stderr


def test_a_grid_that_cannot_be_allocated_exits_2_naming_patient_and_time(synth_dir, tmp_path):
    # without observed features no missingness bound drops the patient
    def no_observed(doc):
        for f in doc["features"]:
            if f["role"] == "observed_past":
                f["role"] = "known_future"
    schema = _schema_with(synth_dir, tmp_path, no_observed)
    data = _data_with(synth_dir, tmp_path, b"p0000,1e12,y,80.0\n")
    done = _run_capped(["train", "--data", data, "--schema", schema,
                        "--out", tmp_path / "run", "--dry-run"])
    assert done.returncode == 2, done.stderr
    assert (f"{data / 'data.csv'}: patient 'p0000': its last time 1000000000000.0 h needs a grid "
            f"of 1e+12 steps x 7 features, which cannot be allocated") in done.stderr


@pytest.mark.parametrize("text,named", [
    (json.dumps({"model": {"hidden": "8"}}), "config key 'model.hidden' must be an integer"),
    (json.dumps({"model": {"hidden": 4, "heads": 8}}), "heads must be at most hidden (4)"),
    # the penalties' epsilons are fixed, so the config has no key for them
    (json.dumps({"weights": {"eps_std": -1}}), "unknown config key 'weights.eps_std'"),
    (json.dumps({"delta": {"y": True}}), "config key 'delta.y' must be a number >= 0"),
    ('{"lr": 1e-3,}', "Expecting property name"),
    ("\udcff", "can't decode"),
], ids=["string-hidden", "heads-above-hidden", "negative-eps", "bool-cutoff", "bad-json",
        "not-utf8"])
def test_config_errors_name_the_file(synth_dir, tmp_path, capsys, text, named):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_bytes(text.encode("utf-8", "surrogateescape"))
    code = run(["train", "--data", str(synth_dir), "--schema", str(synth_dir / "schema.json"),
                "--config", str(cfg_path), "--out", str(tmp_path / "run"), "--dry-run"])
    assert code == 2
    err = capsys.readouterr().err
    assert f"{cfg_path}: " in err and named in err


def test_train_short_row_exits_2_naming_file_and_line(synth_dir, tmp_path, capsys):
    data = tmp_path / "short_row"
    data.mkdir()
    lines = (synth_dir / "data.csv").read_text().splitlines()
    lines[5] = ",".join(lines[5].split(",")[:3])
    (data / "data.csv").write_text("\n".join(lines) + "\n")
    code = run(["train", "--data", str(data), "--schema", str(synth_dir / "schema.json"),
                "--out", str(tmp_path / "run"), "--dry-run"])
    assert code == 2
    assert f"{data / 'data.csv'}: line 6: expected 4 fields, got 3" in capsys.readouterr().err


@pytest.mark.parametrize("header,message", [
    ("patient_id,time_h,feature,value", "error: data.csv: need >= 10 patients, got 0"),
    ("patient,time_h,feature,value", "data.csv: unexpected CSV header"),
])
def test_train_header_only_or_wrong_header_exits_2(synth_dir, tmp_path, capsys, header, message):
    data = tmp_path / "header"
    data.mkdir()
    (data / "data.csv").write_text(header + "\n")
    code = run(["train", "--data", str(data), "--schema", str(synth_dir / "schema.json"),
                "--out", str(tmp_path / "run"), "--dry-run"])
    assert code == 2
    assert message.replace("data.csv", str(data / "data.csv")) in capsys.readouterr().err


@pytest.mark.parametrize("damage", ["version", "truncated"])
def test_eval_bad_checkpoint_exits_2(synth_dir, trained_dir, tmp_path, capsys, damage):
    raw = bytearray((trained_dir / "checkpoint.bin").read_bytes())
    if damage == "version":
        raw[8:12] = (7).to_bytes(4, "little")
    else:
        raw = raw[: len(raw) // 2]
    ckpt = tmp_path / "damaged.bin"
    ckpt.write_bytes(bytes(raw))
    code = run(["eval", "--checkpoint", str(ckpt), "--data", str(synth_dir),
                "--out", str(tmp_path / "x")])
    assert code == 2
    err = capsys.readouterr().err
    assert ("version 7" if damage == "version" else "truncated") in err


def _rewrite_header(raw: bytes, edit) -> bytes:
    (header_len,) = struct.unpack("<I", raw[12:16])
    header = edit(json.loads(raw[16 : 16 + header_len]))
    text = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    return raw[:12] + struct.pack("<I", len(text)) + text + raw[16 + header_len :]


def _drop_tensors(h):
    del h["tensors"]
    return h


def _misspell_hidden(h):
    h["config"]["hiden"] = h["config"].pop("hidden")
    return h


def _negative_shape(h):
    h["tensors"][0]["shape"] = [-1]
    return h


def _rename_first_tensor(h):
    h["tensors"][0]["name"] = "embed/y/weight"
    return h


def _reshape_first_tensor(h):
    h["tensors"][0]["shape"] = h["tensors"][0]["shape"] + [1]
    return h


def _float_encoder_len(h):
    h["schema"]["encoder_len"] = 1.5
    return h


def _set_header(section, key, value):
    def edit(h):
        h[section][key] = value
        return h
    return lambda raw: _rewrite_header(raw, edit)


def _drop_last_tensor(raw: bytes) -> bytes:
    (header_len,) = struct.unpack("<I", raw[12:16])
    last = json.loads(raw[16 : 16 + header_len])["tensors"][-1]
    raw = _rewrite_header(raw, lambda h: {**h, "tensors": h["tensors"][:-1]})
    return raw[: len(raw) - 8 * int(np.prod(last["shape"]))]


@pytest.mark.parametrize("damage,message", [
    (lambda raw: raw + bytes(8), "has 8 bytes after its last tensor"),
    (lambda raw: _rewrite_header(raw, _drop_tensors), "malformed header: KeyError: 'tensors'"),
    (lambda raw: _rewrite_header(raw, _misspell_hidden), "unexpected keyword argument 'hiden'"),
    (lambda raw: _rewrite_header(raw, lambda h: [h]), "malformed header: TypeError"),
    (lambda raw: _rewrite_header(raw, _negative_shape), "not a list of integers >= 0"),
    (lambda raw: _rewrite_header(raw, _rename_first_tensor),
     "tensor 0 is embed/y/weight [8], the model's is embed/y/w [8]"),
    (lambda raw: _rewrite_header(raw, _reshape_first_tensor),
     "tensor 0 is embed/y/w [8, 1], the model's is embed/y/w [8]"),
    (_drop_last_tensor, "is missing, the model's is head/b [3]"),
    (lambda raw: _rewrite_header(raw, _float_encoder_len),
     "schema key 'encoder_len' must be an integer, got 1.5"),
    (lambda raw: _rewrite_header(raw, lambda h: {**h, "pipeline": 5}),
     "argument after ** must be a mapping, not int"),
    (lambda raw: _rewrite_header(raw, lambda h: {**h, "pipeline": {"ratios": "abc"}}),
     "malformed pipeline: ratios must be three non-negative numbers"),
    (lambda raw: _rewrite_header(raw, lambda h: {**h, "pipeline": {"ratioz": [1, 1, 1]}}),
     "unexpected keyword argument 'ratioz'"),
    # each exited 1 with a traceback, passed silently, or blamed the tensor shapes
    (_set_header("config", "hidden", 8.0), "malformed header: ModelError: hidden must be"),
    (_set_header("config", "blocks", 1.0), "malformed header: ModelError: blocks must be"),
    (_set_header("config", "retro_window", 2.5),
     "malformed header: ModelError: retro_window must be"),
    (_set_header("config", "heads", True), "malformed header: ModelError: heads must be"),
    (_set_header("scalers", "y", [1]), "malformed header: ModelError: scalers.y must be"),
    (_set_header("scalers", "y", "ab"), "malformed header: ModelError: scalers.y must be"),
    # allocated the 224 GiB model it describes before comparing (exit 1)
    (_set_header("config", "hidden", 100000),
     "does not fit the model its config and schema describe: tensor 0 is embed/y/w [8], "
     "the model's is embed/y/w [100000]"),
    # a valid frame that sends the data far out of range overflowed with warnings (exit 0)
    (_set_header("scalers", "tod_sin", [-1e300, 0.6868]),
     "gives no finite forecast of y on the test split"),
], ids=["trailing-bytes", "no-tensors", "unknown-config-key", "list-header", "negative-shape",
        "renamed-tensor", "reshaped-tensor", "dropped-tensor", "float-encoder-len",
        "int-pipeline", "bad-pipeline-ratios", "misspelt-pipeline-key", "float-hidden",
        "float-blocks", "float-retro-window", "bool-heads", "short-scaler", "string-scaler",
        "huge-hidden", "overflowing-scaler"])
def test_eval_malformed_checkpoint_exits_2_naming_it(synth_dir, trained_dir, tmp_path, capsys,
                                                     damage, message):
    ckpt = tmp_path / "malformed.bin"
    ckpt.write_bytes(damage((trained_dir / "checkpoint.bin").read_bytes()))
    code = run(["eval", "--checkpoint", str(ckpt), "--data", str(synth_dir),
                "--out", str(tmp_path / "x")])
    assert code == 2
    err = capsys.readouterr().err
    assert f"checkpoint {ckpt}" in err and message in err


def test_label_threshold_counts(synth_dir, tmp_path):
    out = tmp_path / "lab"
    code = run(["label", "--data", str(synth_dir), "--schema",
                str(synth_dir / "schema.json"), "--out", str(out)])
    assert code == 0
    summary = read_json(out / "label_summary.json")
    with open(out / "window_labels.csv") as fh:
        n_rows = sum(1 for _ in csv.DictReader(fh))
    assert summary["counts"]["stable"] + summary["counts"]["volatile"] == n_rows
    assert summary["total_windows"] == n_rows
    assert "agreement_vs_truth" in summary


def test_label_scores_a_trimmed_series_against_its_own_truth_steps(tmp_path):
    # p0000 loses its obs_lag rows before hour 5, and with an empty train split
    # there is no median to fill them, so ingest trims its first 5 steps
    data, out, cfg = tmp_path / "syn", tmp_path / "lab", tmp_path / "ratios.json"
    assert run(["synth", "--patients", "12", "--seed", "1", "--out", str(data)]) == 0
    lines = (data / "data.csv").read_text().splitlines()
    lines = [line for line in lines if not (line.startswith("p0000,") and ",obs_lag," in line
                                            and float(line.split(",")[1]) < 5)]
    (data / "data.csv").write_text("\n".join(lines) + "\n")
    cfg.write_text(json.dumps({"ratios": [0, 1, 1]}))
    assert run(["label", "--data", str(data), "--schema", str(data / "schema.json"),
                "--delta-config", str(cfg), "--out", str(out)]) == 0
    schema = load_schema(data / "schema.json")
    splits, *_ = PipelineConfig(ratios=(0, 1, 1)).ingest(data, schema)
    trims = {s.patient_id: s.trimmed_steps for name in splits for s in splits[name]}
    assert {p: t for p, t in trims.items() if t} == {"p0000": 5}
    with open(data / "truth_labels.csv", newline="") as fh:
        truth = {(r["patient_id"], int(r["step"])): r["label"] for r in csv.DictReader(fh)}
    E, H = schema.encoder_len, schema.horizon_len
    agree = []
    with open(out / "window_labels.csv", newline="") as fh:
        for r in csv.DictReader(fh):
            first = int(r["start"]) + trims[r["patient_id"]] + E  # raw grid step
            future = [truth[(r["patient_id"], t)] for t in range(first, first + H)]
            agree.append(r["label"] == ("volatile" if "volatile" in future else "stable"))
    assert len(agree) == 676
    assert read_json(out / "label_summary.json")["agreement_vs_truth"] == sum(agree) / len(agree)


@pytest.mark.parametrize("edit,message", [
    (lambda lines: lines[:2] + ["p0000,x,stable"] + lines[3:], "line 3: need an integer step"),
    (lambda lines: lines[:4] + ["p0000,3,calm"] + lines[5:], "line 5: need an integer step"),
    (lambda lines: lines[:6] + ["p0000,5"] + lines[7:], "line 7: need an integer step"),
    (lambda lines: [",".join(line.split(",")[::2]) for line in lines],  # drop the step column
     "line 1: no column(s) ['step']"),
], ids=["non-integer-step", "unknown-label", "short-row", "missing-column"])
def test_label_malformed_truth_file_exits_2_naming_file_and_line(synth_dir, tmp_path, capsys,
                                                                 edit, message):
    data = tmp_path / "syn"
    data.mkdir()
    for name in ("data.csv", "schema.json"):
        (data / name).write_bytes((synth_dir / name).read_bytes())
    lines = (synth_dir / "truth_labels.csv").read_text().splitlines()
    (data / "truth_labels.csv").write_text("\n".join(edit(lines)) + "\n")
    code = run(["label", "--data", str(data), "--schema", str(data / "schema.json"),
                "--out", str(tmp_path / "lab")])
    assert code == 2
    err = capsys.readouterr().err
    assert f"{data / 'truth_labels.csv'}, {message}" in err


def test_label_hmm_reports_method_agreement(synth_dir, tmp_path):
    out = tmp_path / "labhmm"
    code = run(["label", "--data", str(synth_dir), "--schema",
                str(synth_dir / "schema.json"), "--method", "hmm", "--out", str(out)])
    assert code == 0
    summary = read_json(out / "label_summary.json")
    assert "agreement_threshold_vs_hmm" in summary
    assert 0.0 <= summary["agreement_threshold_vs_hmm"] <= 1.0
    assert "unfitted" not in summary  # written only when some fit would overflow


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_label_hmm_names_a_patient_whose_fit_would_overflow(tmp_path):
    # a test-split value the training scaler never sees: its squared diffs
    # overflowed in the HMM's std and emissions, with warnings, and exited 0
    data, out = tmp_path / "syn", tmp_path / "lab"
    assert run(["synth", "--patients", "12", "--seed", "1", "--out", str(data)]) == 0
    with open(data / "data.csv", "a") as fh:
        fh.write("p0001,1.0,y,1e200\n")
    assert run(["label", "--data", str(data), "--schema", str(data / "schema.json"),
                "--method", "hmm", "--out", str(out)]) == 0
    assert read_json(out / "label_summary.json")["unfitted"] == ["p0001"]
    with open(out / "window_labels.csv", newline="") as fh:
        labels = {r["label"] for r in csv.DictReader(fh) if r["patient_id"] == "p0001"}
    assert labels == {"stable"}


def test_label_hmm_on_mixed_lengths_equals_per_patient_fits(tmp_path):
    # patients of 8 to 39 steps; the shortest have windows but too few diffs to fit
    data, out = tmp_path / "syn", tmp_path / "lab"
    assert run(["synth", "--patients", "20", "--seed", "5", "--out", str(data),
                "--encoder-len", "6", "--horizon-len", "3",
                "--min-steps", "8", "--max-steps", "40"]) == 0
    assert run(["label", "--data", str(data), "--schema", str(data / "schema.json"),
                "--method", "hmm", "--out", str(out)]) == 0
    schema = load_schema(data / "schema.json")
    splits, *_ = PipelineConfig().ingest(data, schema)
    col = schema.column("y")
    steps = {s.patient_id: oracle_step_labels(np.diff(s.values[:, col]))
             for name in splits for s in splits[name]}
    with open(out / "window_labels.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    lengths = {len(steps[r["patient_id"]]) for r in rows}
    assert min(lengths) < 11 and len(lengths) > 5
    assert {r["label"] for r in rows} == {"stable", "volatile"}
    for r in rows:
        want = labeler.hmm_window_label(steps[r["patient_id"]], schema.encoder_len,
                                        int(r["start"]), schema.horizon_len)
        assert r["label"] == want, r


def test_label_delta_override_honored(synth_dir, tmp_path):
    cfg = tmp_path / "delta.json"
    cfg.write_text(json.dumps({"delta": {"y": 1e9}}))
    out = tmp_path / "labovr"
    code = run(["label", "--data", str(synth_dir), "--schema",
                str(synth_dir / "schema.json"), "--delta-config", str(cfg),
                "--out", str(out)])
    assert code == 0
    summary = read_json(out / "label_summary.json")
    assert summary["counts"]["volatile"] == 0
    assert summary["deltas"]["y"] == 1e9


# -- one pipeline config: eval and label reuse the train-time split -----------


@pytest.fixture(scope="module")
def resplit_dir(synth_dir, tmp_path_factory):
    """A run trained on a non-default split; 14 patients give 8/4/2, not 11/2/1."""
    out = tmp_path_factory.mktemp("resplit")
    cfg = {
        "lr": 3e-3, "batch": 32, "max_epochs": 1, "patience": 1, "seed": 0,
        "ratios": [5, 3, 2], "split_seed": 4,
        "model": {"hidden": 8, "heads": 2, "blocks": 1, "dropout": 0.0},
    }
    (out / "config.json").write_text(json.dumps(cfg))
    code = run([
        "train", "--data", str(synth_dir), "--schema", str(synth_dir / "schema.json"),
        "--config", str(out / "config.json"), "--out", str(out),
    ])
    assert code == 0
    return out


def _test_split_points(run_dir, schema):
    """Windows x horizon of the test grid the run wrote at train time."""
    test = {"test": read_split_grids(run_dir, schema)["test"]}
    pools, _ = cli.build_window_pools(test, schema, {})
    return sum(len(w) for w in pools["test"].values()) * schema.horizon_len


def test_eval_reuses_train_time_split(synth_dir, resplit_dir, tmp_path):
    schema = load_schema(synth_dir / "schema.json")
    assert len(read_split_grids(resplit_dir, schema)["test"]) == 2
    code = run(["eval", "--checkpoint", str(resplit_dir / "checkpoint.bin"),
                "--data", str(synth_dir), "--out", str(tmp_path / "e"), "--split", "test"])
    assert code == 0
    report = read_json(tmp_path / "e" / "metrics.json")[0]
    assert report["n_points"] == _test_split_points(resplit_dir, schema)


def test_label_with_training_config_reuses_cutoffs(synth_dir, resplit_dir, tmp_path):
    out = tmp_path / "lab"
    code = run(["label", "--data", str(synth_dir), "--schema",
                str(synth_dir / "schema.json"), "--delta-config",
                str(resplit_dir / "config.json"), "--out", str(out)])
    assert code == 0
    resolved = read_json(resplit_dir / "resolved_config.json")
    assert read_json(out / "label_summary.json")["deltas"] == resolved["deltas"]


def test_eval_of_a_split_without_windows_exits_2(synth_dir, resplit_dir, tmp_path, capsys):
    model = load_checkpoint(resplit_dir / "checkpoint.bin")
    model.pipeline["ratios"] = [8, 0, 2]  # no patient in val
    ckpt = tmp_path / "noval.bin"
    save_checkpoint(ckpt, model)
    out = tmp_path / "e"
    code = run(["eval", "--checkpoint", str(ckpt), "--data", str(synth_dir),
                "--out", str(out), "--split", "val"])
    assert code == 2
    assert "the val split has no windows" in capsys.readouterr().err
    assert not (out / "metrics.json").exists()


def test_checkpoint_without_pipeline_evaluates_with_defaults(
    synth_dir, trained_dir, resplit_dir, tmp_path
):
    model = load_checkpoint(resplit_dir / "checkpoint.bin")
    assert model.pipeline["ratios"] == [5, 3, 2]
    model.pipeline = None
    ckpt = tmp_path / "no_pipeline.bin"
    save_checkpoint(ckpt, model)
    assert b'"pipeline"' not in ckpt.read_bytes()
    assert load_checkpoint(ckpt).pipeline is None

    code = run(["eval", "--checkpoint", str(ckpt), "--data", str(synth_dir),
                "--out", str(tmp_path / "e"), "--split", "test"])
    assert code == 0
    # trained_dir ran on the default config, so its grids hold the default split
    report = read_json(tmp_path / "e" / "metrics.json")[0]
    assert report["n_points"] == _test_split_points(trained_dir, model.schema)
    assert report["n_points"] != _test_split_points(resplit_dir, model.schema)


def test_pipeline_config_defaults_match_a_config_without_keys():
    assert resolve_configs({})[2] == PipelineConfig()
    assert PipelineConfig() == PipelineConfig(ratios=(7, 2, 1), split_seed=0, max_gap_h=6.0,
                                              missing_threshold=0.8, delta={})


_finite = st.floats(allow_nan=False, allow_infinity=False, width=64)


@st.composite
def _model_configs(draw):
    hidden = draw(st.integers(1, 6))
    levels = draw(st.lists(st.floats(0.01, 0.99), min_size=1, max_size=5, unique=True))
    return ModelConfig(
        hidden=hidden, heads=draw(st.integers(1, hidden)), blocks=draw(st.integers(1, 2)),
        dropout=draw(st.floats(0.0, 0.9)), quantiles=tuple(sorted(levels)),
        lstm_layers=draw(st.integers(1, 2)), retro_window=draw(st.integers(1, 4)),
    )


_pipelines = st.builds(
    PipelineConfig,
    ratios=st.lists(st.integers(0, 9) | st.floats(0.0, 9.0), min_size=3, max_size=3).filter(
        lambda r: sum(r) > 0
    ),
    split_seed=st.integers(0, 2**32 - 1),
    max_gap_h=st.floats(0.0, 48.0),
    missing_threshold=st.floats(0.0, 1.0),
    delta=st.dictionaries(st.text(max_size=4), _finite.map(abs), max_size=2),  # cutoffs are >= 0
)


@settings(max_examples=25, deadline=None)
@given(config=_model_configs(), pipeline=_pipelines, seed=st.integers(0, 2**16))
def test_checkpoint_round_trip_keeps_config_and_pipeline(config, pipeline, seed):
    schema = synthetic_schema(encoder_len=3, horizon_len=2, site_vocab=3)
    model = Model(schema, config, seed=seed, pipeline=asdict(pipeline))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ckpt.bin"
        save_checkpoint(path, model)
        loaded = load_checkpoint(path)
        save_checkpoint(Path(tmp) / "again.bin", loaded)
        assert (Path(tmp) / "again.bin").read_bytes() == path.read_bytes()
    assert loaded.config == config
    assert PipelineConfig.from_dict(loaded.pipeline) == pipeline
    assert list(loaded.params) == list(model.params)
    for name, p in model.params.items():
        assert np.array_equal(loaded.params[name].data, p.data)


# ---------------------------------------------------------------------------
# exit codes under mutated inputs: a bad input exits 2, never 1 with a traceback

# Huge integers are drawn too: a header's tensor layout and a grid's size are
# checked before anything is allocated, so a huge valid value exits 0 or 2.
_values = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 3), st.sampled_from([10**6, 10**9, 2**62]),
    st.sampled_from([0.0, 0.5, 2.5, 8.0, -1e300, 1e300, float("nan"), float("inf")]),
    st.text(max_size=3), st.lists(st.integers(-1, 2), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(-1, 2), max_size=2),
)


def _paths(node, path=()):
    """The path of `node` and of everything nested in it."""
    yield path
    if isinstance(node, dict):
        items = node.items()
    else:
        items = enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, path + (key,))


@st.composite
def _mutations(draw, doc, skip=()):
    """`doc` with one node deleted, replaced, or given an unknown sibling;
    nothing inside the top-level keys in `skip` is touched."""
    paths = [p for p in _paths(doc) if len(p) < 2 or p[0] not in skip]
    path = draw(st.sampled_from(paths))
    op = draw(st.sampled_from(["delete", "replace", "add"]))
    value = draw(_values)
    if not path:
        return value
    doc = json.loads(json.dumps(doc))
    *head, last = path
    parent = doc
    for key in head:
        parent = parent[key]
    if op == "delete":
        del parent[last]
    elif op == "replace":
        parent[last] = value
    elif isinstance(parent, dict):
        parent["zz"] = value
    else:
        parent.append(value)
    return doc


_FULL_CONFIG = {
    "model": {"hidden": 8, "heads": 2, "blocks": 1, "dropout": 0.0,
              "quantiles": [0.1, 0.5, 0.9], "lstm_layers": 1, "retro_window": 3},
    "model_seed": 0, "lr": 3e-3, "batch": 32, "clip": 1.0, "max_epochs": 1, "patience": 1,
    "seed": 0, "weights": asdict(PenaltyWeights()),
    "ratios": [7, 2, 1], "split_seed": 0, "max_gap_h": 6.0, "missing_threshold": 0.8,
    "delta": {"y": 0.5},
}


def _exit_code(argv) -> int:
    """The exit code of one command, run as the console script runs it: a
    RuntimeWarning is printed, not raised. A header scaler mean of +-1e300 is
    a valid frame, and eval's forward pass overflows on it with warnings."""
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("default", RuntimeWarning)
        return run([*argv, "--out", str(Path(tmp) / "out")])


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_mutated_schema_exits_0_or_2(synth_dir, data):
    doc = data.draw(_mutations(read_json(synth_dir / "schema.json")))
    with tempfile.TemporaryDirectory() as tmp:
        schema = Path(tmp) / "schema.json"
        schema.write_text(json.dumps(doc))
        assert _exit_code(["train", "--data", str(synth_dir), "--schema", str(schema),
                           "--dry-run"]) in (0, 2)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_mutated_training_config_exits_0_or_2(synth_dir, data):
    doc = data.draw(_mutations(_FULL_CONFIG))
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "config.json"
        cfg.write_text(json.dumps(doc))
        assert _exit_code(["train", "--data", str(synth_dir), "--schema",
                           str(synth_dir / "schema.json"), "--config", str(cfg),
                           "--dry-run"]) in (0, 2)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_mutated_checkpoint_header_exits_0_or_2(synth_dir, trained_dir, data):
    raw = (trained_dir / "checkpoint.bin").read_bytes()
    (header_len,) = struct.unpack("<I", raw[12:16])
    header = json.loads(raw[16 : 16 + header_len])
    mutated = data.draw(_mutations(header, skip=("tensors",)))
    with tempfile.TemporaryDirectory() as tmp:
        ckpt = Path(tmp) / "checkpoint.bin"
        ckpt.write_bytes(_rewrite_header(raw, lambda _: mutated))
        assert _exit_code(["eval", "--checkpoint", str(ckpt), "--data", str(synth_dir)]) \
            in (0, 2)
