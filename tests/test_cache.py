"""The ingest cache: `train`, `eval` and `label` reuse one entry per
(data.csv bytes, schema, ingest settings) and write the same bytes with it."""

import hashlib
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from omnitft import ingest
from omnitft.cli import PipelineConfig, load_events, main
from omnitft.schema import load_schema

CONFIG = {"model": {"hidden": 8, "heads": 2, "blocks": 1, "dropout": 0.1},
          "lr": 3e-3, "batch": 32, "max_epochs": 1, "patience": 1}
# what each command writes that a rerun must reproduce byte for byte
OUTPUTS = {
    "train": ["checkpoint.bin", "history.csv", "ingest_manifest.json", "resolved_config.json"]
    + [f"{kind}_{split}.csv" for kind in ("grid", "mask") for split in ("train", "val", "test")],
    "eval": ["metrics.json", "metrics.txt", "importance_y.csv", "trajectory_y.csv"],
    "label": ["window_labels.csv", "label_summary.json"],
}


@pytest.fixture(scope="module")
def cohort(tmp_path_factory):
    """A cohort that no test writes into; tests copy it."""
    out = tmp_path_factory.mktemp("cohort")
    assert main(["synth", "--patients", "14", "--seed", "5", "--out", str(out),
                 "--encoder-len", "6", "--horizon-len", "3",
                 "--min-steps", "24", "--max-steps", "32"]) == 0
    (out / "config.json").write_text(json.dumps(CONFIG))
    return out


def _copy(cohort, tmp_path, name="data") -> Path:
    data = tmp_path / name
    data.mkdir()
    for f in ("data.csv", "schema.json", "truth_labels.csv", "config.json"):
        shutil.copy(cohort / f, data / f)
    return data


def _status(out: Path) -> str:
    return json.loads((out / "manifest.json").read_text())["ingest_cache"]["status"]


def _entries(data: Path) -> list:
    return sorted((data / ".omnitft").glob("*")) if (data / ".omnitft").is_dir() else []


def _dry_run(data: Path, out: Path, config=None, schema=None) -> int:
    argv = ["train", "--data", str(data), "--schema", str(schema or data / "schema.json"),
            "--out", str(out), "--dry-run"]
    return main(argv + (["--config", str(config)] if config else []))


def _session(data: Path, out: Path) -> dict:
    """train, eval and label on `data`; each command's cache status."""
    argv = {
        "train": ["train", "--data", data, "--schema", data / "schema.json",
                  "--config", data / "config.json"],
        "eval": ["eval", "--checkpoint", out / "train" / "checkpoint.bin", "--data", data,
                 "--split", "train"],
        "label": ["label", "--data", data, "--schema", data / "schema.json", "--method", "hmm"],
    }
    for command, args in argv.items():
        assert main([str(a) for a in args] + ["--out", str(out / command)]) == 0
    return {command: _status(out / command) for command in argv}


def _same_outputs(a: Path, b: Path):
    for command, names in OUTPUTS.items():
        for name in names:
            assert (a / command / name).read_bytes() == (b / command / name).read_bytes(), name


def test_cold_and_warm_runs_write_the_same_bytes(cohort, tmp_path):
    data = _copy(cohort, tmp_path)
    assert _session(data, tmp_path / "cold") == {"train": "miss", "eval": "hit", "label": "hit"}
    assert _session(data, tmp_path / "warm") == {"train": "hit", "eval": "hit", "label": "hit"}
    _same_outputs(tmp_path / "cold", tmp_path / "warm")
    (entry,) = _entries(data)
    manifest = json.loads((tmp_path / "warm" / "eval" / "manifest.json").read_text())
    assert manifest["ingest_cache"]["path"] == str(entry)
    assert entry.name.startswith("ingest-") and entry.suffix == ".npz"


def test_an_entry_holds_exactly_what_ingest_computes(cohort, tmp_path):
    data = _copy(cohort, tmp_path)
    schema = load_schema(data / "schema.json")
    splits, _, report, record = PipelineConfig().ingest(data, schema)
    assert record["status"] == "miss"
    fresh, _, fresh_report = ingest.ingest_pipeline(load_events(data / "data.csv", schema), schema)
    cached, cached_report = ingest.load_splits(record["path"], schema)
    assert cached_report == fresh_report == report
    for name in ingest.SPLITS:
        assert len(cached[name]) == len(fresh[name]) == len(splits[name])
        for c, f in zip(cached[name], fresh[name]):
            assert (c.patient_id, c.n_steps, c.trimmed_steps, c.imputed) == \
                (f.patient_id, f.n_steps, f.trimmed_steps, f.imputed)
            assert c.values.tobytes() == f.values.tobytes()
            assert c.mask.tobytes() == f.mask.tobytes()


def _edit_data(data):
    text = (data / "data.csv").read_text()
    at = text.index("\n", text.index("\n") + 1) - 1  # last byte of the first row
    (data / "data.csv").write_text(text[:at] + str((int(text[at]) + 1) % 10) + text[at + 1:])


def _edit_schema(data):
    doc = json.loads((data / "schema.json").read_text())
    doc["features"][0]["unit"] = "bpm"
    (data / "schema.json").write_text(json.dumps(doc))


def _set(key, value):
    def edit(data):
        (data / "config.json").write_text(json.dumps({**CONFIG, key: value}))
    return edit


@pytest.mark.parametrize("edit,status,entries", [
    (_edit_data, "miss", 1),  # the old data's entry is deleted
    (_edit_schema, "miss", 2),
    (_set("ratios", [6, 3, 1]), "miss", 2),
    (_set("split_seed", 1), "miss", 2),
    (_set("max_gap_h", 5.0), "miss", 2),
    (_set("missing_threshold", 0.7), "miss", 2),
    (_set("delta", {"y": 1.0}), "hit", 1),  # cutoffs are applied after ingest
    (_set("lr", 1e-3), "hit", 1),
], ids=["data-byte", "schema", "ratios", "split-seed", "max-gap", "missing-threshold",
        "delta", "lr"])
def test_each_input_of_the_key_and_nothing_else_is_a_miss(cohort, tmp_path, edit, status,
                                                          entries):
    data = _copy(cohort, tmp_path)
    assert _dry_run(data, tmp_path / "first", data / "config.json") == 0
    edit(data)
    assert _dry_run(data, tmp_path / "second", data / "config.json") == 0
    assert _status(tmp_path / "second") == status
    assert len(_entries(data)) == entries


def test_writing_an_entry_deletes_only_the_entries_of_other_data(cohort, tmp_path):
    data = _copy(cohort, tmp_path)
    schema = load_schema(data / "schema.json")
    old = PipelineConfig().ingest(data, schema)[3]
    with open(data / "data.csv", "a") as fh:
        fh.write((data / "data.csv").read_text().splitlines()[1] + "\n")
    # the old data's entry goes with the first write; the new data's entry
    # under another split_seed stays through the second
    new = [PipelineConfig(split_seed=seed).ingest(data, schema)[3] for seed in (1, 0)]
    assert [r["status"] for r in (old, *new)] == ["miss", "miss", "miss"]
    assert _entries(data) == sorted(Path(r["path"]) for r in new)
    digest = hashlib.sha256((data / "data.csv").read_bytes()).hexdigest()
    assert all(p.name.startswith(f"ingest-{digest[:16]}-") for p in _entries(data))


def test_a_parse_error_still_names_its_line_after_a_warm_run(cohort, tmp_path, capsys):
    data = _copy(cohort, tmp_path)
    assert _dry_run(data, tmp_path / "warm") == 0
    lines = (data / "data.csv").read_text().splitlines()
    lines[5] = ",".join(lines[5].split(",")[:3] + ["abc"])
    (data / "data.csv").write_text("\n".join(lines) + "\n")
    assert _dry_run(data, tmp_path / "bad") == 2
    assert f"{data / 'data.csv'}: line 6: value 'abc'" in capsys.readouterr().err


def _truncate(entry: Path):
    entry.write_bytes(entry.read_bytes()[: entry.stat().st_size // 2])


def _empty(entry: Path):
    entry.write_bytes(b"")


def _garble(entry: Path):
    entry.write_bytes(b"not an npz file\n" * 100)


def _reshape(entry: Path):
    with np.load(entry) as z:
        arrays = {k: z[k] for k in z.files}
    arrays["values"] = np.concatenate([arrays["values"], arrays["values"][:, :1]], axis=1)
    arrays["mask"] = np.concatenate([arrays["mask"], arrays["mask"][:, :1]], axis=1)
    with open(entry, "wb") as fh:
        np.savez(fh, **arrays)


def _retype(entry: Path):
    with np.load(entry) as z:
        arrays = {k: z[k] for k in z.files}
    arrays["steps"] = arrays["steps"].astype(np.float64)
    with open(entry, "wb") as fh:
        np.savez(fh, **arrays)


def _lose_a_patient(entry: Path):
    with np.load(entry) as z:
        arrays = {k: z[k] for k in z.files}
    meta = json.loads(arrays["meta"].tobytes())
    meta["ids"]["test"] = meta["ids"]["test"][1:]
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    with open(entry, "wb") as fh:
        np.savez(fh, **arrays)


@pytest.mark.parametrize("damage", [_truncate, _empty, _garble, _reshape, _retype,
                                    _lose_a_patient],
                         ids=["truncated", "empty", "garbage", "wrong-shapes", "wrong-dtype",
                              "ids-do-not-fit"])
def test_a_bad_entry_is_recomputed_and_rewritten(cohort, tmp_path, damage):
    data = _copy(cohort, tmp_path)
    label = ["label", "--data", str(data), "--schema", str(data / "schema.json"), "--out"]
    assert main(label + [str(tmp_path / "first")]) == 0
    (entry,) = _entries(data)
    damage(entry)
    assert main(label + [str(tmp_path / "second")]) == 0
    assert _status(tmp_path / "second") == "miss"
    assert main(label + [str(tmp_path / "third")]) == 0
    assert _status(tmp_path / "third") == "hit"
    assert _entries(data) == [entry]
    for run in ("second", "third"):
        for name in OUTPUTS["label"]:
            assert (tmp_path / run / name).read_bytes() == (tmp_path / "first" / name).read_bytes()


def _block_with_a_file(data: Path, monkeypatch):
    (data / ".omnitft").write_text("a file where the cache directory would go\n")


def _refuse_renames(data: Path, monkeypatch):
    def read_only(src, dst):
        raise PermissionError(30, "Read-only file system", str(dst))
    monkeypatch.setattr(ingest.os, "replace", read_only)


@pytest.mark.parametrize("block", [_block_with_a_file, _refuse_renames],
                         ids=["cache-dir-is-a-file", "read-only"])
def test_an_unwritable_data_dir_exits_0_with_the_same_bytes(cohort, tmp_path, monkeypatch, block):
    writable = _copy(cohort, tmp_path, "writable")
    _session(writable, tmp_path / "writable-run")
    data = _copy(cohort, tmp_path)
    block(data, monkeypatch)
    statuses = _session(data, tmp_path / "run")
    assert statuses == dict.fromkeys(statuses, "not written")
    _same_outputs(tmp_path / "writable-run", tmp_path / "run")
    assert not any(p.is_file() and p.name.endswith(".tmp") for p in data.rglob("*"))


@pytest.mark.parametrize("tail", [b"p0000,1.0,y,1e308\np0000,1.0,y,1e308\n",
                                  b"p0001,2.0,y,abc\n"], ids=["overflowing-bin", "parse-error"])
def test_a_failed_ingest_writes_no_entry(cohort, tmp_path, tail):
    data = _copy(cohort, tmp_path)
    (data / "data.csv").write_bytes((data / "data.csv").read_bytes() + tail)
    assert _dry_run(data, tmp_path / "run") == 2
    assert _entries(data) == []
