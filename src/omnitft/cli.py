"""Command-line pipeline: synth | train | eval | label.

Every command is deterministic given its inputs and seeds and writes a
manifest.json into --out listing produced artifacts with sha256 digests
(and, for train, the run's result; for train, eval and label, the ingest
cache entry it used). The manifest also records what the output bits and
the memory used depend on: the Python, numpy and BLAS versions, the BLAS
thread setting, the usable cores and the process's peak RSS.
Exit codes: 0 success, 2 configuration or input error, 3 training diverged,
1 unexpected failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import json
import math
import os
import platform
import sys
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import evalkit, ingest, labeler, sampler, trainer
from .model import (
    MODEL_RULES,
    Model,
    ModelConfig,
    ModelError,
    compute_scalers,
    load_checkpoint,
    save_checkpoint,
)
from .penalties import WEIGHT_RULES, PenaltyError
from .schema import (
    INT_AT_LEAST_0,
    INT_AT_LEAST_1,
    NUMBER_ABOVE_0,
    NUMBER_AT_LEAST_0,
    DatasetSchema,
    check,
    is_number,
    load_schema,
    save_schema,
    schema_to_dict,
    validate_schema,
)


class CliError(Exception):
    pass


class SchemaMismatch(CliError):
    pass


EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_CONFIG = 2
EXIT_DIVERGED = 3


def _digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _attempt(lookup):
    """`lookup()`, or None if it fails: an environment record never fails a command."""
    try:
        return lookup()
    except (AttributeError, ImportError, LookupError, OSError, TypeError, ValueError):
        return None


def _blas() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"name": blas["name"], "version": blas["version"]}


def _peak_rss_mb() -> float:
    import resource

    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return round(peak / (2**20 if sys.platform == "darwin" else 2**10), 1)  # bytes or KiB


def _environment() -> dict:
    """What a run's bits and memory depended on; a lookup that fails is None."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _attempt(_blas),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": _attempt(lambda: len(os.sched_getaffinity(0))),
        "peak_rss_mb": _attempt(_peak_rss_mb),
    }


def _write_manifest(out_dir: Path, command: str, params: dict, inputs: list, artifacts: list,
                    result: dict | None = None, ingest_cache: dict | None = None):
    """`inputs` holds paths, or (path, sha256) pairs for files already hashed."""
    def entry(item):
        path, sha = item if isinstance(item, tuple) else (item, _digest(item))
        return {"path": str(path), "sha256": sha}

    manifest = {
        "command": command,
        "parameters": params,
        "inputs": [entry(p) for p in inputs],
        "artifacts": [entry(p) for p in artifacts],
        "created_utc": datetime.now(timezone.utc).isoformat(),
    }
    if result is not None:
        manifest["result"] = result
    if ingest_cache is not None:
        manifest["ingest_cache"] = ingest_cache
    manifest["environment"] = _environment()
    path = out_dir / "manifest.json"
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


# ---------------------------------------------------------------------------
# shared pipeline pieces


@dataclass(frozen=True)
class PipelineConfig:
    """Ingest, split and volatility-cutoff settings of one training run.

    `train` stores them in the checkpoint, so `eval` rebuilds the exact
    train-time split; `label` reads them from its --delta-config file.
    """

    ratios: tuple = (7, 2, 1)  # train:val:test patient shares
    split_seed: int = 0
    max_gap_h: float = 6.0  # longest forward-filled gap
    missing_threshold: float = 0.8  # patients missing more are dropped
    delta: dict = field(default_factory=dict)  # target -> cutoff override

    def __post_init__(self):
        check(vars(self), PIPELINE_RULES, CliError)
        object.__setattr__(self, "ratios", tuple(self.ratios))

    @classmethod
    def from_dict(cls, doc: dict) -> "PipelineConfig":
        """Read the pipeline keys of a training config; other keys are ignored."""
        return cls(**{k: doc[k] for k in PIPELINE_RULES if k in doc})

    def ingest(self, data_dir: Path, schema: DatasetSchema):
        """data.csv -> (splits, (data path, its sha256), ingest report, cache
        record) under these settings.

        The result is cached in `<data dir>/.omnitft/ingest-<data>-<key>.npz`,
        keyed by `ingest.cache_key` over data.csv's bytes, the schema and the
        four settings ingest reads (`delta` is not one); `<data>` is the first
        16 hex digits of data.csv's digest. An entry that exists and fits is
        loaded; otherwise data.csv is ingested and the entry written, and the
        entries of any other data.csv digest are deleted. The record is the
        entry's path and its status: "hit", "miss" (written) or "not written".
        An ingest error names data.csv.
        """
        data_path = data_dir / "data.csv"
        if not data_path.exists():
            raise CliError(f"no data.csv under {data_dir}")
        settings = {k: v for k, v in asdict(self).items() if k != "delta"}
        # the manifest lists data.csv with this digest rather than reading it again
        data = (data_path, _digest(data_path))
        key = ingest.cache_key(data[1], schema, settings)
        prefix = f"ingest-{data[1][:16]}-"
        entry = data_dir / ".omnitft" / f"{prefix}{key}.npz"
        found = ingest.load_splits(entry, schema)
        if found is not None:
            splits, report = found
            return splits, data, report, {"path": str(entry), "status": "hit"}
        events = load_events(data_path, schema)
        try:
            splits, _, report = ingest.ingest_pipeline(
                events, schema, seed=self.split_seed, ratios=self.ratios,
                missing_threshold=self.missing_threshold, max_gap_h=self.max_gap_h,
            )
        except ingest.IngestError as e:
            raise type(e)(f"{data_path}: {e}") from None
        if not ingest.save_splits(entry, splits, report):
            return splits, data, report, {"path": str(entry), "status": "not written"}
        # one data.csv per directory: entries of its earlier contents go
        for stale in entry.parent.glob("ingest-*.npz"):
            if not stale.name.startswith(prefix):
                with contextlib.suppress(OSError):
                    stale.unlink()
        return splits, data, report, {"path": str(entry), "status": "miss"}


PIPELINE_RULES = {
    "ratios": (False, list, lambda r: len(r) == 3 and all(is_number(v) and v >= 0 for v in r)
               and sum(r) > 0, "three non-negative numbers with a positive sum"),
    "split_seed": INT_AT_LEAST_0,
    "max_gap_h": NUMBER_AT_LEAST_0,
    "missing_threshold": (False, float, lambda v: 0 <= v <= 1, "a number in [0, 1]"),
    "delta": (False, {"*": NUMBER_AT_LEAST_0}, None, None),  # target name -> cutoff
}
# a training config: the trainer's and the pipeline's keys, and two of its own
CONFIG_RULES = {
    **trainer.TRAIN_RULES,
    **PIPELINE_RULES,
    "weights": (False, WEIGHT_RULES, None, None),
    "model": (False, MODEL_RULES, None, None),
    "model_seed": INT_AT_LEAST_0,
}


def load_events(path: Path, schema: DatasetSchema):
    """The events table of the data file at `path`; a parse error names the
    file and the line."""
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            return ingest.parse_events(fh, schema)
        except ingest.IngestError as e:  # parse errors name the line; add the file
            raise type(e)(f"{path}: {e}") from None
        except UnicodeDecodeError as e:
            raise CliError(f"{path} is not UTF-8 text: {e.reason}") from None


def build_window_pools(splits: dict, schema: DatasetSchema, delta_overrides: dict):
    """Per-target window pools for every split, with resolved cutoffs.

    The volatility cutoff per target comes from the override table when
    given, otherwise from the 75th percentile of training-window scores.
    """
    targets = (t.name for t in schema.target_features)  # a cutoff is for a target only
    check(delta_overrides, dict.fromkeys(targets, NUMBER_AT_LEAST_0), CliError, "config key",
          "delta.")
    pools = {name: {} for name in splits}
    deltas = {}
    for t_spec in schema.target_features:
        per_split = {}
        for name, series_list in splits.items():
            wins = []
            for s in series_list:
                try:
                    wins.extend(
                        sampler.enumerate_windows(s, schema, 0.0, target=t_spec.name)
                    )
                except sampler.SeriesTooShort:
                    continue
            per_split[name] = wins
        if t_spec.name in delta_overrides:
            delta = float(delta_overrides[t_spec.name])
        else:
            scores = [w.score for w in per_split.get("train", [])]
            delta = labeler.default_delta(scores) if scores else 0.0
        deltas[t_spec.name] = delta
        for name, wins in per_split.items():
            labels = labeler.threshold_label(np.array([w.score for w in wins]), delta)
            for w, label in zip(wins, labels):
                w.label = label
            pools[name][t_spec.name] = wins
    return pools, deltas


def load_train_config(path):
    """The training config at `path` ({} for none) and the model, trainer and
    pipeline configs it sets; a bad key raises CliError naming the file."""
    try:
        doc = {}
        if path is not None:
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
        return (doc, *resolve_configs(doc))
    except (ValueError, CliError, ModelError, trainer.TrainerError, PenaltyError) as e:
        raise CliError(f"{path}: {e}") from None  # bad JSON or UTF-8 too


def resolve_configs(doc: dict):
    """Split a training-config JSON into model, trainer and pipeline configs."""
    check(doc, CONFIG_RULES, CliError, "config key")
    return (ModelConfig(**doc.get("model", {})),
            trainer.train_config_from_dict({k: doc[k] for k in trainer.TRAIN_RULES if k in doc}),
            PipelineConfig.from_dict(doc))


# ---------------------------------------------------------------------------
# commands


SYNTH_FLAGS = {  # argparse has typed each flag; these are their ranges
    "--patients": INT_AT_LEAST_1,
    "--shock-rate": (False, float, lambda v: 0 <= v < 1, "a number in [0, 1)"),
    "--seed": INT_AT_LEAST_0,
    "--out": (False, str, None, "a path"),
    "--encoder-len": INT_AT_LEAST_1,
    "--horizon-len": INT_AT_LEAST_1,
    "--grid-step-min": NUMBER_ABOVE_0,
    "--min-steps": INT_AT_LEAST_1,
}


def cmd_synth(args) -> int:
    flags = {"--" + k.replace("_", "-"): v for k, v in vars(args).items()
             if k not in ("command", "func")}
    max_steps = (False, int, lambda v: v >= args.min_steps,
                 f"an integer >= --min-steps ({args.min_steps})")
    check(flags, {**SYNTH_FLAGS, "--max-steps": max_steps}, CliError)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    schema = ingest.synthetic_schema(
        encoder_len=args.encoder_len,
        horizon_len=args.horizon_len,
        grid_step_min=args.grid_step_min,
    )
    series, truth = ingest.generate_synthetic(
        args.patients, schema, shock_rate=args.shock_rate, seed=args.seed,
        min_steps=args.min_steps, max_steps=args.max_steps,
    )
    data_path = out / "data.csv"
    ingest.write_events_csv(data_path, series, schema)
    schema_path = out / "schema.json"
    save_schema(schema, schema_path)
    labels_path = out / "truth_labels.csv"
    with open(labels_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["patient_id", "step", "label"])
        for s in series:
            for step, lab in enumerate(truth[s.patient_id]):
                w.writerow([s.patient_id, step, lab])
    _write_manifest(
        out,
        "synth",
        {
            "patients": args.patients,
            "shock_rate": args.shock_rate,
            "seed": args.seed,
            "encoder_len": args.encoder_len,
            "horizon_len": args.horizon_len,
            "grid_step_min": args.grid_step_min,
        },
        inputs=[],
        artifacts=[data_path, schema_path, labels_path],
    )
    print(f"wrote {args.patients} patients to {out}")
    return EXIT_OK


def cmd_train(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    schema = validate_schema(load_schema(args.schema))
    doc, model_cfg, train_cfg, pipeline = load_train_config(args.config)
    model_seed = doc.get("model_seed", 0)

    splits, data, ingest_report, cache = pipeline.ingest(Path(args.data), schema)
    scalers = compute_scalers(splits["train"], schema, where=f"{data[0]}: ")
    pools, deltas = build_window_pools(splits, schema, pipeline.delta)
    val_windows = [w for wins in pools["val"].values() for w in wins]
    trainer.check_windows(pools["train"], val_windows)
    params = {"schema": str(args.schema), "config": str(args.config), "seed": train_cfg.seed}

    if args.dry_run:
        counts = {k: sum(len(v) for v in pools[k].values()) for k in pools}
        _write_manifest(out, "train", {**params, "dry_run": True},
                        inputs=[data, Path(args.schema)], artifacts=[],
                        result={"windows": counts, "deltas": deltas}, ingest_cache=cache)
        print(f"dry run ok: windows per split {counts}, cutoffs {deltas}")
        return EXIT_OK

    model = Model(schema, model_cfg, seed=model_seed, scalers=scalers,
                  pipeline=asdict(pipeline))
    result = trainer.train(model, pools["train"], val_windows, train_cfg)

    ckpt_path = out / "checkpoint.bin"
    save_checkpoint(ckpt_path, model)
    hist_path = out / "history.csv"
    trainer.write_history_csv(hist_path, result.history)
    grid_paths = ingest.write_split_grids(out, splits, schema, ingest_report)
    resolved_path = out / "resolved_config.json"
    with open(resolved_path, "w") as fh:
        json.dump(
            {
                "model": {**model_cfg.__dict__, "quantiles": list(model_cfg.quantiles)},
                "train": trainer.train_config_to_dict(train_cfg),
                "deltas": deltas,
                "pipeline": asdict(pipeline),
                "model_seed": model_seed,
            },
            fh,
            indent=2,
            sort_keys=True,
        )
        fh.write("\n")
    _write_manifest(
        out,
        "train",
        params,
        inputs=[data, Path(args.schema)],
        artifacts=[ckpt_path, hist_path, resolved_path] + [Path(p) for p in grid_paths],
        result={
            "best_epoch": result.best_epoch,
            # null when no validation loss was finite (JSON has no Infinity)
            "best_val": float(result.best_val) if math.isfinite(result.best_val) else None,
            "stopped_epoch": result.stopped_epoch,
            "diverged": result.diverged,
            "single_class": result.single_class,
            "clip_frac": result.clip_frac,
        },
        ingest_cache=cache,
    )
    if result.diverged:
        print("training diverged; last good checkpoint written", file=sys.stderr)
        return EXIT_DIVERGED
    print(
        f"trained {result.stopped_epoch} epochs, best val {result.best_val:.6f} "
        f"at epoch {result.best_epoch}"
    )
    return EXIT_OK


def cmd_eval(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    model = load_checkpoint(args.checkpoint)
    schema = model.schema
    try:  # train stores asdict(PipelineConfig), so any other key or type is malformed
        pipeline = PipelineConfig(**({} if model.pipeline is None else model.pipeline))
    except (CliError, TypeError) as e:
        raise CliError(f"checkpoint {args.checkpoint} has a malformed pipeline: {e}") from None
    lo, mid, hi = evalkit.quantile_columns(model.config.quantiles)

    data_dir = Path(args.data)
    schema_path = data_dir / "schema.json"
    if schema_path.exists():
        disk = schema_to_dict(load_schema(schema_path))
        if disk != schema_to_dict(schema):
            raise SchemaMismatch("checkpoint schema differs from the data directory schema")

    splits, data, _, cache = pipeline.ingest(data_dir, schema)
    # eval reads no label or cutoff, so the other splits' windows are not needed
    pools, _ = build_window_pools({args.split: splits[args.split]}, schema, pipeline.delta)
    eval_pools = pools[args.split]
    if not any(eval_pools.values()):
        raise CliError(f"the {args.split} split has no windows to evaluate")

    reports = []
    artifacts = []
    for t_spec in schema.target_features:
        windows = eval_pools.get(t_spec.name, [])
        if not windows:
            continue
        q, abar, w_hist = [], [], []
        try:  # a forecast computed through an inf or nan is no forecast
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                for _, fp in trainer.graph_free_passes(model, trainer.batches_of(windows, 256)):
                    q.append(fp.quantiles.data)
                    abar.append(fp.abar.data)
                    w_hist.append(fp.w_hist.data)
            q = np.sort(np.concatenate(q), axis=-1)  # (n, H, n_q), non-crossing
            if not np.isfinite(q).all():
                raise FloatingPointError("a forecast is not finite")
        except FloatingPointError as e:
            raise ModelError(f"checkpoint {args.checkpoint} gives no finite forecast of "
                             f"{t_spec.name} on the {args.split} split: {e}") from None
        actual = np.stack([w.fut_target for w in windows])  # (n, H)
        reports.append(evalkit.compute_report(
            t_spec.name, q[..., lo], q[..., mid], q[..., hi], actual))

        table = evalkit.aggregate_importance(
            [(np.concatenate(abar), np.concatenate(w_hist))],
            [f.name for f in schema.past_features], schema.encoder_len, target=t_spec.name,
        )
        imp_path = out / f"importance_{t_spec.name}.csv"
        with open(imp_path, "w", newline="") as fh:
            csv.writer(fh).writerows(table.to_csv_rows())
        artifacts.append(imp_path)

        typical = evalkit.select_typical_window(np.abs(q[..., mid] - actual).mean(axis=1))
        w = windows[typical]
        tgt_col = [f.name for f in schema.past_features].index(t_spec.name)
        rows = evalkit.export_trajectories(
            q[typical], w.enc_past[:, tgt_col], w.fut_target, model.config.quantiles
        )
        traj_path = out / f"trajectory_{t_spec.name}.csv"
        with open(traj_path, "w", newline="") as fh:
            wtr = csv.DictWriter(fh, fieldnames=["t", "history", "actual_future", "p10", "p50", "p90"])
            wtr.writeheader()
            wtr.writerows(rows)
        artifacts.append(traj_path)

    metrics_path = out / "metrics.json"
    evalkit.write_reports_json(metrics_path, reports)
    table_path = out / "metrics.txt"
    with open(table_path, "w") as fh:
        fh.write(evalkit.render_table(reports))
    _write_manifest(
        out,
        "eval",
        {"checkpoint": str(args.checkpoint), "split": args.split, "pipeline": asdict(pipeline)},
        inputs=[data, Path(args.checkpoint)],
        artifacts=[metrics_path, table_path] + artifacts,
        ingest_cache=cache,
    )
    print(evalkit.render_table(reports))
    return EXIT_OK


def _truth_window_labels(data_dir: Path, schema: DatasetSchema):
    """Ground-truth per-window labels from a generator truth file, if any."""
    path = data_dir / "truth_labels.csv"
    if not path.exists():
        return None
    steps: dict = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        columns = ("patient_id", "step", "label")
        missing = [c for c in columns if c not in (reader.fieldnames or ())]
        if missing:
            raise CliError(f"{path}, line 1: no column(s) {missing}")
        for row in reader:
            step, label = row["step"] or "", row["label"]
            if not step.isdecimal() or label not in (labeler.STABLE, labeler.VOLATILE):
                raise CliError(
                    f"{path}, line {reader.line_num}: need an integer step >= 0 and a label "
                    f"{labeler.STABLE} or {labeler.VOLATILE}, got {step!r}, {label!r}"
                )
            steps.setdefault(row["patient_id"], {})[int(step)] = label
    E, H = schema.encoder_len, schema.horizon_len

    def window_label(pid: str, start: int) -> str | None:
        """The truth label of the window whose first step is raw grid step
        `start`; None when a horizon step has no truth row."""
        per = steps.get(pid, {})
        window = [per.get(t) for t in range(start, start + E + H)]
        if None in window[E:]:
            return None
        return labeler.hmm_window_label(window, E, 0, H)

    return window_label


def cmd_label(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    schema = validate_schema(load_schema(args.schema))
    *_, pipeline = load_train_config(args.delta_config)
    data_dir = Path(args.data)
    splits, data, _, cache = pipeline.ingest(data_dir, schema)
    compute_scalers(splits["train"], schema, where=f"{data[0]}: ")  # refuse what train refuses
    pools, deltas = build_window_pools(splits, schema, pipeline.delta)

    all_series = {s.patient_id: s for name in splits for s in splits[name]}
    hmm_steps: dict = {}
    unfitted = []  # patients whose HMM fit would overflow, labelled stable
    if args.method == "hmm":
        for t_spec in schema.target_features:
            col = schema.column(t_spec.name)
            diffs = [np.diff(s.values[:, col]) for s in all_series.values()]
            for pid, step_labels in zip(all_series, labeler.hmm_step_labels(diffs)):
                hmm_steps[(t_spec.name, pid)] = step_labels
            unfitted += [pid for pid, x in zip(all_series, diffs) if labeler.overflows(x)]

    truth_fn = _truth_window_labels(data_dir, schema)

    labels_path = out / "window_labels.csv"
    counts = {"stable": 0, "volatile": 0}
    agree_truth = [0, 0]
    agree_methods = [0, 0]
    with open(labels_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["patient_id", "target", "start", "score", "label"])
        for split_pools in pools.values():
            for tname, wins in split_pools.items():
                for win in wins:
                    if args.method == "hmm":
                        label = labeler.hmm_window_label(
                            hmm_steps[(tname, win.patient_id)],
                            schema.encoder_len, win.start, schema.horizon_len,
                        )
                        thr_label = win.label
                        agree_methods[0] += int(label == thr_label)
                        agree_methods[1] += 1
                    else:
                        label = win.label
                    counts[label] += 1
                    if truth_fn is not None:
                        # the truth counts raw grid steps; the series lost its
                        # trimmed leading steps at ingest
                        trim = all_series[win.patient_id].trimmed_steps
                        t = truth_fn(win.patient_id, win.start + trim)
                        if t is not None:
                            agree_truth[0] += int(label == t)
                            agree_truth[1] += 1
                    w.writerow([win.patient_id, tname, win.start, repr(win.score), label])

    summary = {
        "method": args.method,
        "deltas": deltas,
        "counts": counts,
        "total_windows": counts["stable"] + counts["volatile"],
    }
    if agree_truth[1]:
        summary["agreement_vs_truth"] = agree_truth[0] / agree_truth[1]
    if agree_methods[1]:
        summary["agreement_threshold_vs_hmm"] = agree_methods[0] / agree_methods[1]
    if unfitted:
        summary["unfitted"] = sorted(set(unfitted))
    summary_path = out / "label_summary.json"
    with open(summary_path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _write_manifest(
        out,
        "label",
        {"method": args.method, "schema": str(args.schema)},
        inputs=[data, Path(args.schema)],
        artifacts=[labels_path, summary_path],
        ingest_cache=cache,
    )
    print(json.dumps(summary, indent=2, sort_keys=True))
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="omnitft",
        description="Quantile forecasting pipeline for gridded clinical-style series",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("synth", help="generate a synthetic regime-switching dataset")
    sp.add_argument("--patients", type=int, default=50)
    sp.add_argument("--shock-rate", type=float, default=0.3)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", required=True)
    sp.add_argument("--encoder-len", type=int, default=12)
    sp.add_argument("--horizon-len", type=int, default=4)
    sp.add_argument("--grid-step-min", type=float, default=60.0)
    sp.add_argument("--min-steps", type=int, default=48)
    sp.add_argument("--max-steps", type=int, default=96)
    sp.set_defaults(func=cmd_synth)

    tp = sub.add_parser("train", help="run the full training pipeline")
    tp.add_argument("--data", required=True)
    tp.add_argument("--schema", required=True)
    tp.add_argument("--config", default=None)
    tp.add_argument("--out", required=True)
    tp.add_argument("--dry-run", action="store_true")
    tp.set_defaults(func=cmd_train)

    ep = sub.add_parser("eval", help="evaluate a checkpoint and export artifacts")
    ep.add_argument("--checkpoint", required=True)
    ep.add_argument("--data", required=True)
    ep.add_argument("--out", required=True)
    ep.add_argument("--split", default="test", choices=["train", "val", "test"])
    ep.set_defaults(func=cmd_eval)

    lp = sub.add_parser("label", help="emit per-window regime labels")
    lp.add_argument("--data", required=True)
    lp.add_argument("--schema", required=True)
    lp.add_argument("--method", default="threshold", choices=["threshold", "hmm"])
    lp.add_argument("--delta-config", default=None)
    lp.add_argument("--out", required=True)
    lp.set_defaults(func=cmd_label)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, FileNotFoundError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as e:  # schema/ingest/trainer contract violations
        from . import schema as schema_mod

        known = (
            schema_mod.SchemaError,
            ingest.IngestError,
            sampler.SamplerError,
            labeler.LabelerError,
            trainer.TrainerError,
            evalkit.EvalError,
            ModelError,
            PenaltyError,
        )
        if isinstance(e, known):
            print(f"error: {e}", file=sys.stderr)
            return EXIT_CONFIG
        raise


if __name__ == "__main__":
    sys.exit(main())
