import json
import csv

import numpy as np
import pytest

from omnitft import cli
from omnitft.cli import main, resolve_configs
from omnitft.ingest import synthetic_schema
from omnitft.model import Model, ModelConfig, save_checkpoint
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


def test_eval_perfect_oracle_stub_zero_mae(tmp_path):
    # constant-target data plus a zeroed model whose head bias hits it
    out = tmp_path / "flat"
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

    model = Model(schema, ModelConfig(hidden=8, heads=2, blocks=1, dropout=0.0), seed=0)
    for p in model.params.values():
        p.data[:] = 0.0
    model.params["head/b"].data[:] = 42.0
    ckpt = tmp_path / "oracle.bin"
    save_checkpoint(ckpt, model)

    eval_out = tmp_path / "oracle_eval"
    code = run(["eval", "--checkpoint", str(ckpt), "--data", str(out),
                "--out", str(eval_out)])
    assert code == 0
    report = read_json(eval_out / "metrics.json")[0]
    assert report["mae"] == 0.0
    assert "0.00 (0.00)" in (eval_out / "metrics.txt").read_text()


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


def test_worker_count_env(monkeypatch):
    monkeypatch.setenv("OMNITFT_THREADS", "4")
    assert cli.worker_count() == 4
    monkeypatch.setenv("OMNITFT_THREADS", "junk")
    assert cli.worker_count() == 1
    monkeypatch.delenv("OMNITFT_THREADS")
    assert cli.worker_count() == 1
