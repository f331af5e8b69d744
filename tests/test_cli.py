import json
import csv
import tempfile
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from omnitft import cli
from omnitft.cli import PipelineConfig, main, resolve_configs
from omnitft.ingest import read_split_grids, synthetic_schema
from omnitft.model import Model, ModelConfig, load_checkpoint, save_checkpoint
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
    ("patient_id,time_h,feature,value", "error: need >= 10 patients, got 0"),
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


def test_label_hmm_reports_method_agreement(synth_dir, tmp_path):
    out = tmp_path / "labhmm"
    code = run(["label", "--data", str(synth_dir), "--schema",
                str(synth_dir / "schema.json"), "--method", "hmm", "--out", str(out)])
    assert code == 0
    summary = read_json(out / "label_summary.json")
    assert "agreement_threshold_vs_hmm" in summary
    assert 0.0 <= summary["agreement_threshold_vs_hmm"] <= 1.0


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
    delta=st.dictionaries(st.text(max_size=4), _finite, max_size=2),
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
