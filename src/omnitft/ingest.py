"""Ingestion: long-format events to imputed per-patient grids, plus splits.

Events are parsed into one table (a structured array, a row per event) and
grouped by patient with one stable sort. The pipeline is then resample ->
filter -> split -> impute, each step a whole-array operation on one patient's
(steps x features) grid. Resampling scatters the events onto the grid in one
pass; bins take the mean for continuous features and the mode for
categoricals. Imputation forward-fills temporal features across gaps of at
most `max_gap_h` hours and falls back to the training-split median (mode for
categoricals) beyond that. A static takes the patient's own first
observation, and the fallback only when the patient never recorded it.
Leading steps are trimmed up to the first step at which every feature is
observed or median-fillable; the fill reads the whole untrimmed series.

A regime-switching synthetic generator is included so the whole pipeline is
testable without any clinical data source. An ingest result can be saved as
one cache entry and loaded back (`save_splits`, `load_splits`), addressed by
`cache_key` over everything it depends on.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import math
import os
import zipfile
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import schema as schema_module
from .schema import (STABLE, VOLATILE, DatasetSchema, FeatureSpec, SchemaError, schema_to_dict,
                     validate_schema)


class IngestError(Exception):
    pass


class UnknownFeature(IngestError):
    pass


class UnparsableValue(IngestError):
    pass


class NegativeTime(IngestError):
    pass


class EmptyPatient(IngestError):
    pass


class TooFewPatients(IngestError):
    pass


class AllMissingFeature(IngestError):
    pass


class NonFiniteBin(IngestError):
    pass


class GridTooLarge(IngestError):
    pass


SPLITS = ("train", "val", "test")

# One row per event: `column` is the feature's schema index, a categorical
# `value` its vocab index; object ids are never truncated, as fixed width could.
EVENT_DTYPE = np.dtype([("patient_id", object), ("time_h", "f8"), ("column", "i8"), ("value", "f8")])


@dataclass
class PatientSeries:
    """One patient's values on the fixed grid, schema feature order."""

    patient_id: str
    values: np.ndarray  # (n_steps, n_features) float64
    mask: np.ndarray  # (n_steps, n_features) bool, true = observed pre-imputation
    imputed: bool = False
    trimmed_steps: int = 0

    @property
    def n_steps(self) -> int:
        return self.values.shape[0]


def parse_events(csv_stream, schema: DatasetSchema) -> np.ndarray:
    """Parse long-format rows (patient_id,time_h,feature,value) into the events table."""
    reader = csv.reader(csv_stream)
    header = next(reader, None)
    if header is None or [h.strip() for h in header] != ["patient_id", "time_h", "feature", "value"]:
        raise IngestError(f"unexpected CSV header: {header}")
    names = {f.name: (j, f) for j, f in enumerate(schema.features)}
    rows = []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 4:
            raise UnparsableValue(f"line {lineno}: expected 4 fields, got {len(row)}")
        pid, time_s, feat, raw = (c.strip() for c in row)
        if not pid:
            raise UnparsableValue(f"line {lineno}: empty patient_id")
        if feat not in names:
            raise UnknownFeature(f"line {lineno}: {feat!r}")
        try:
            t = float(time_s)
        except ValueError:
            raise UnparsableValue(f"line {lineno}: time {time_s!r}") from None
        if not math.isfinite(t):
            raise UnparsableValue(f"line {lineno}: non-finite time {time_s!r}")
        if t < 0:
            raise NegativeTime(f"line {lineno}: time {t}")
        j, spec = names[feat]
        if spec.is_categorical:
            try:
                value = float(raw) + 0.0  # + 0.0: index -0 reads as 0
            except ValueError:
                value = math.nan
            if not math.isfinite(value):  # a label, or nan/inf
                try:
                    value = float(spec.category_index(raw))
                except SchemaError as e:
                    raise UnparsableValue(f"line {lineno}: {e}") from None
            elif value != int(value) or not 0 <= value < spec.vocab_size:
                raise UnparsableValue(f"line {lineno}: index {raw!r} is not an integer "
                                      f"in [0, {spec.vocab_size})")
        else:
            try:
                value = float(raw)
            except ValueError:
                raise UnparsableValue(f"line {lineno}: value {raw!r}") from None
            if not math.isfinite(value):
                raise UnparsableValue(f"line {lineno}: non-finite value {raw!r}")
        rows.append((pid, t, j, value))
    return np.array(rows, dtype=EVENT_DTYPE)


def _bin_mode(values: np.ndarray, cells: np.ndarray):
    """Mode of `values` within each cell id: (cells, modes), ties to the smallest.

    `np.unique` sorts each cell's distinct values; ordering them by count
    (descending) then value keeps the most frequent, smallest value first.
    """
    (cell, value), counts = np.unique(np.stack([cells, values]), axis=1, return_counts=True)
    order = np.lexsort((value, -counts, cell))
    first = np.flatnonzero(np.diff(cell[order], prepend=-1))
    return cell[order][first].astype(np.int64), value[order][first]


def _grid_steps(events: np.ndarray, step_h: float) -> float:
    """Steps of the grid one patient's rows need, as a float (inf when the
    count overflows), so a grid can be sized before it is allocated."""
    last = float(events["time_h"].max()) / step_h + 1e-9
    return math.floor(last) + 1.0 if math.isfinite(last) else math.inf


def resample_to_grid(events: np.ndarray, schema: DatasetSchema) -> PatientSeries:
    """Bin one patient's rows of the events table onto the grid (pre-imputation).

    Each event lands in cell (step, feature) in one scatter: continuous cells
    take the bin mean (bincount sums over counts, in row order), categoricals
    the bin mode; empty bins stay masked out. A grid that cannot be allocated
    raises GridTooLarge and a bin mean that overflows NonFiniteBin, each
    naming the patient.
    """
    if not len(events):
        raise EmptyPatient("no events for patient")
    pid = events["patient_id"][0]
    step_h = schema.grid_step_min / 60.0
    times, cols, vals = events["time_h"], events["column"], events["value"]
    n, n_feat = _grid_steps(events, step_h), len(schema.features)
    try:
        if n * n_feat > 2**62:  # past any memory, and past int64 cell ids
            raise MemoryError
        # step index; the tolerance keeps a grid time t * step_h in step t
        steps = np.floor(times / step_h + 1e-9).astype(np.int64)
        n = int(steps.max()) + 1
        cells = steps * n_feat + cols
        counts = np.bincount(cells, minlength=n * n_feat)
        mask = counts > 0
        values = np.zeros(n * n_feat)
        values[mask] = np.bincount(cells, weights=vals, minlength=n * n_feat)[mask] / counts[mask]
    except MemoryError:
        raise GridTooLarge(
            f"patient {pid!r}: its last time {float(times.max())} h needs a grid of {n:.4g} steps "
            f"x {n_feat} features, which cannot be allocated"
        ) from None
    cat = np.array([f.is_categorical for f in schema.features])[cols]
    if cat.any():
        cat_cells, modes = _bin_mode(vals[cat], cells[cat])
        values[cat_cells] = modes
    bad = ~np.isfinite(values)
    if bad.any():  # a sum of finite values overflowed
        cell = int(bad.argmax())
        step, j = divmod(cell, n_feat)
        raise NonFiniteBin(f"patient {pid!r}: feature {schema.features[j].name!r} at step "
                           f"{step} bins to {values[cell]}")
    return PatientSeries(pid, values.reshape(n, n_feat), mask.reshape(n, n_feat))


def compute_train_stats(series_list: list, schema: DatasetSchema) -> dict:
    """Feature name -> fallback value: the median (mode for categoricals) over
    observed cells. A feature observed nowhere has no entry."""
    stats = {}
    for j, spec in enumerate(schema.features):
        pool = np.concatenate(
            [s.values[s.mask[:, j], j] for s in series_list] or [np.array([])]
        )
        if pool.size == 0:
            continue
        if spec.is_categorical:
            stats[spec.name] = float(_bin_mode(pool, np.zeros(pool.size))[1][0])
        else:
            stats[spec.name] = float(np.median(pool))
    return stats


def impute(
    series: PatientSeries,
    schema: DatasetSchema,
    stats: dict,
    max_gap_h: float = 6.0,
) -> PatientSeries:
    """Fill a resampled series; observed temporal cells keep their values
    bit-exactly, and every cell of a static, observed or not, takes the
    static's first observation.

    Every other cell copies its column's last observed step, if at most
    `max_gap_h` back, or else takes the training fallback. The whole series
    is filled first, then the leading steps before every fallback-less
    feature has been observed are trimmed.
    """
    step_h = schema.grid_step_min / 60.0
    max_steps = int(math.floor(max_gap_h / step_h + 1e-9))
    values, mask = series.values, series.mask
    names = [f.name for f in schema.features]
    fallback = [stats.get(name) for name in names]
    has_fallback = np.array([v is not None for v in fallback])
    steps = np.arange(series.n_steps)[:, None]
    last = np.maximum.accumulate(np.where(mask, steps, -1), axis=0)
    first = np.where(mask.any(axis=0), mask.argmax(axis=0), -1)
    static = np.array([f.role == "static" for f in schema.features])
    ref = np.where(static, first, last)  # -1: nothing observed to copy
    near = (ref >= 0) & (static | (steps - ref <= max_steps))
    copied = values[np.maximum(ref, 0), np.arange(len(names))]
    fill = np.array([0.0 if v is None else v for v in fallback])
    filled = np.where(mask & ~static, values, np.where(near, copied, fill))

    start = int(first[~has_fallback].max(initial=0))
    stuck = ~(mask | near | has_fallback)[start:]
    if stuck.any():
        # no median, and never observed or beyond the forward-fill span
        raise AllMissingFeature(names[np.argmax(stuck.any(axis=0))])
    return PatientSeries(series.patient_id, filled[start:], mask[start:].copy(),
                         imputed=True, trimmed_steps=start)


def filter_patients(series_list: list, schema: DatasetSchema, threshold: float = 0.8) -> list:
    """Drop patients whose static or observed-feature missingness exceeds threshold."""
    static_cols = [j for j, f in enumerate(schema.features) if f.role == "static"]
    obs_cols = [j for j, f in enumerate(schema.features) if f.role == "observed_past"]
    kept = []
    for s in series_list:
        fracs = []
        if static_cols:
            fracs.append(1.0 - s.mask[:, static_cols].any(axis=0).mean())
        if obs_cols:
            fracs.append(1.0 - s.mask[:, obs_cols].mean())
        if fracs and max(fracs) > threshold:  # strictly more-than drops
            continue
        kept.append(s)
    return kept


def split_by_patient(ids, ratios=(7, 2, 1), seed: int = 0) -> dict:
    """Deterministic 7:2:1-style split, split name -> sorted patient ids.

    One permutation of the sorted ids is cut in order: val and test take the
    floor of their share, train the rest.
    """
    ids = sorted(ids)
    if len(ids) < 10:
        raise TooFewPatients(f"need >= 10 patients, got {len(ids)}")
    order = np.random.default_rng(seed).permutation(len(ids))
    total = float(sum(ratios))
    n_val, n_test = (int(math.floor(len(ids) * r / total)) for r in ratios[1:])
    parts = np.split(order, [len(ids) - n_val - n_test, len(ids) - n_test])
    return {name: sorted(ids[i] for i in part) for name, part in zip(SPLITS, parts)}


# ---------------------------------------------------------------------------
# synthetic regime-switching generator


def synthetic_schema(
    encoder_len: int = 12,
    horizon_len: int = 4,
    grid_step_min: float = 60.0,
    site_vocab: int = 20,
) -> DatasetSchema:
    """Schema for the synthetic generator: one target, lagged covariates,
    time-of-day known inputs, and a long-tailed categorical static."""
    sites = tuple(f"site{k:02d}" for k in range(site_vocab))
    return validate_schema(
        DatasetSchema(
            features=(
                FeatureSpec("y", "target", unit="beats/min"),
                FeatureSpec("obs_lag", "observed_past", unit="beats/min"),
                FeatureSpec("obs_mix", "observed_past", unit="a.u."),
                FeatureSpec("tod_sin", "known_future", unit="1"),
                FeatureSpec("tod_cos", "known_future", unit="1"),
                FeatureSpec("site", "static", dtype="categorical", vocab=sites),
                FeatureSpec("age", "static", unit="years"),
            ),
            grid_step_min=grid_step_min,
            encoder_len=encoder_len,
            horizon_len=horizon_len,
        )
    )


def regime_transition(shock_rate: float, mean_volatile_run: float = 5.0) -> np.ndarray:
    """Two-state chain whose stationary volatile fraction equals shock_rate."""
    if not 0.0 <= shock_rate < 1.0:
        raise IngestError("shock_rate must be in [0, 1)")
    leave_v = 1.0 / mean_volatile_run
    enter_v = 0.0 if shock_rate == 0.0 else leave_v * shock_rate / (1.0 - shock_rate)
    enter_v = min(enter_v, 1.0)
    return np.array([[1.0 - enter_v, enter_v], [leave_v, 1.0 - leave_v]])


def simulate_regime_chain(n: int, shock_rate: float, rng,
                          mean_volatile_run: float = 5.0) -> np.ndarray:
    enter_v = regime_transition(shock_rate, mean_volatile_run)[:, 1].tolist()
    states, state = [], 0
    for u in rng.random(n).tolist():  # Python floats: numpy scalars are slower per step
        state = int(u < enter_v[state])
        states.append(state)
    return np.array(states, dtype=int)


_AR_PHI = 0.9
_AR_MEAN = 80.0
_SIGMA_STABLE = 0.3
_SIGMA_VOLATILE = 3.0  # x10 the stable innovation scale


def generate_synthetic(
    n_patients: int,
    schema: DatasetSchema,
    shock_rate: float = 0.3,
    seed: int = 0,
    min_steps: int = 48,
    max_steps: int = 96,
    mean_volatile_run: float = 5.0,
):
    """Regime-switching AR(1) targets with covariates and Zipf statics.

    Returns (series_list, truth) where truth maps patient_id to the per-step
    regime labels the chain actually visited; masks are fully observed.
    """
    rng = np.random.default_rng(seed)
    site_spec = next((f for f in schema.static_features if f.is_categorical), None)
    if site_spec is not None:
        ranks = np.arange(1, site_spec.vocab_size + 1, dtype=np.float64)
        zipf = (1.0 / ranks**1.2) / (1.0 / ranks**1.2).sum()

    series_list, truth = [], {}
    for p in range(n_patients):
        n = int(rng.integers(min_steps, max_steps + 1))
        states = simulate_regime_chain(n, shock_rate, rng, mean_volatile_run)
        sigma = np.where(states == 1, _SIGMA_VOLATILE, _SIGMA_STABLE)
        eps = rng.standard_normal(n)
        shocks = (sigma * eps).tolist()
        y = [_AR_MEAN + shocks[0]]
        for shock in shocks[1:]:  # Python floats round as float64 scalars do
            y.append(_AR_MEAN + _AR_PHI * (y[-1] - _AR_MEAN) + shock)
        y = np.array(y)

        hours = np.arange(n) * schema.grid_step_min / 60.0
        values = np.zeros((n, len(schema.features)))
        for j, spec in enumerate(schema.features):
            if spec.role == "target":
                values[:, j] = y
            elif spec.name == "obs_lag":
                values[:, j] = np.concatenate([[y[0]], y[:-1]]) + 0.5 * rng.standard_normal(n)
            elif spec.name == "obs_mix":
                values[:, j] = 0.5 * y + 40.0 + rng.standard_normal(n)
            elif spec.name == "tod_sin":
                values[:, j] = np.sin(2 * np.pi * (hours % 24.0) / 24.0)
            elif spec.name == "tod_cos":
                values[:, j] = np.cos(2 * np.pi * (hours % 24.0) / 24.0)
            elif spec.role == "static" and spec.is_categorical:
                values[:, j] = float(rng.choice(spec.vocab_size, p=zipf))
            elif spec.role == "static":
                values[:, j] = float(rng.normal(65.0, 10.0))
            elif spec.role == "observed_past":
                values[:, j] = y + rng.standard_normal(n)
            elif spec.role == "known_future":
                values[:, j] = np.sin(2 * np.pi * (hours % 24.0) / 24.0 + j)

        pid = f"p{p:04d}"
        series_list.append(
            PatientSeries(pid, values, np.ones_like(values, dtype=bool), imputed=True)
        )
        truth[pid] = [VOLATILE if s == 1 else STABLE for s in states]
    return series_list, truth


def _csv_cell(text: str) -> str:
    """`text` as a csv.writer field: quoted when it holds a comma, a quote or a line end."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def write_events_csv(path, series_list: list, schema: DatasetSchema):
    """Write gridded series as long-format events, the bytes csv.writer writes.

    Each (patient, feature) pair is one write of its observed steps; statics
    are written once at time 0, and categoricals as their vocab names when
    there is a vocab.
    """
    step_h = schema.grid_step_min / 60.0
    with open(path, "w", newline="") as fh:
        fh.write("patient_id,time_h,feature,value\r\n")
        for s in series_list:
            pid = _csv_cell(s.patient_id)
            for j, spec in enumerate(schema.features):
                steps = np.zeros(1, int) if spec.role == "static" else np.flatnonzero(s.mask[:, j])
                values = s.values[steps, j].tolist()
                if spec.is_categorical and spec.vocab:
                    values = [_csv_cell(spec.vocab[int(v)]) for v in values]
                else:
                    values = map(repr, values)
                times = map(repr, (steps * step_h).tolist())
                feature = _csv_cell(spec.name)
                fh.write("".join([f"{pid},{t},{feature},{v}\r\n" for t, v in zip(times, values)]))


def write_split_grids(out_dir, splits: dict, schema: DatasetSchema, report: dict):
    """Materialize imputed grids per split plus the ingest manifest.

    grid_<split>.csv holds one row per (patient, step) with a column per
    feature; mask_<split>.csv mirrors it with 0/1 observation flags. Each
    series' rows are one write, the bytes csv.writer writes: floats as their
    repr, fields quoted by `_csv_cell`, `\r\n` line ends.
    """
    header = ",".join(map(_csv_cell, ["patient_id", "step", *(f.name for f in schema.features)]))
    paths = []
    for split, series_list in splits.items():
        gpath = os.path.join(out_dir, f"grid_{split}.csv")
        mpath = os.path.join(out_dir, f"mask_{split}.csv")
        with open(gpath, "w", newline="") as gf, open(mpath, "w", newline="") as mf:
            for fh in (gf, mf):
                fh.write(header + "\r\n")
            for s in series_list:
                pid = _csv_cell(s.patient_id)
                for fh, rows in ((gf, s.values.tolist()), (mf, s.mask.astype(int).tolist())):
                    fh.write("".join([f"{pid},{t},{','.join(map(repr, r))}\r\n"
                                      for t, r in enumerate(rows)]))
        paths.extend([gpath, mpath])
    mpath = os.path.join(out_dir, "ingest_manifest.json")
    with open(mpath, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return paths + [mpath]


def read_split_grids(out_dir, schema: DatasetSchema) -> dict:
    """Load grids written by write_split_grids back into PatientSeries."""
    splits = {}
    for split in SPLITS:
        gpath = os.path.join(out_dir, f"grid_{split}.csv")
        mpath = os.path.join(out_dir, f"mask_{split}.csv")
        if not os.path.exists(gpath):
            continue
        per_patient: dict = {}
        with open(gpath, newline="") as gf, open(mpath, newline="") as mf:
            gr, mr = csv.reader(gf), csv.reader(mf)
            next(gr), next(mr)
            for grow, mrow in zip(gr, mr):
                pid = grow[0]
                vals = [float(v) for v in grow[2:]]
                mask = [bool(int(v)) for v in mrow[2:]]
                per_patient.setdefault(pid, ([], []))
                per_patient[pid][0].append(vals)
                per_patient[pid][1].append(mask)
        splits[split] = [
            PatientSeries(pid, np.array(v), np.array(m, dtype=bool), imputed=True)
            for pid, (v, m) in sorted(per_patient.items())
        ]
    return splits


# ---------------------------------------------------------------------------
# full pipeline


def ingest_pipeline(
    events: np.ndarray,
    schema: DatasetSchema,
    seed: int = 0,
    ratios=(7, 2, 1),
    missing_threshold: float = 0.8,
    max_gap_h: float = 6.0,
):
    """events table -> resample -> filter -> split -> impute (train-split medians).

    The one ingest path: train, eval and label all call it with the settings
    of the run's `cli.PipelineConfig`, so they see the same split. One stable
    sort by (patient id, time) groups the events; same-time events keep their
    file order. Returns (splits, stats, report): split name -> imputed
    PatientSeries list, the train-split fallbacks (feature -> value), and
    counts plus trims.

    A patient with k observed-feature events on an n-step grid misses at least
    1 - k / (n * n_obs) of its observed cells; when that bound already exceeds
    `missing_threshold`, `filter_patients` would drop it, so it is dropped
    before its grid is allocated.
    """
    _, code, sizes = np.unique(events["patient_id"], return_inverse=True, return_counts=True)
    table = events[np.lexsort((events["time_h"], code))]
    observed = np.array([f.role == "observed_past" for f in schema.features])
    n_obs, step_h = int(observed.sum()), schema.grid_step_min / 60.0
    resampled = []
    for n, e in zip(sizes, np.cumsum(sizes)):
        rows = table[e - n:e]
        if n_obs:
            k = int(observed[rows["column"]].sum())
            if 1.0 - k / (_grid_steps(rows, step_h) * n_obs) > missing_threshold:
                continue
        resampled.append(resample_to_grid(rows, schema))
    retained = filter_patients(resampled, schema, missing_threshold)
    try:
        split = split_by_patient([s.patient_id for s in retained], ratios, seed)
    except TooFewPatients as e:
        if len(retained) == len(sizes):
            raise
        raise TooFewPatients(f"{e}; {len(sizes) - len(retained)} of {len(sizes)} dropped "
                             f"as more than {missing_threshold} missing") from None

    by_id = {s.patient_id: s for s in retained}
    stats = compute_train_stats([by_id[p] for p in split["train"]], schema)

    splits = {name: [] for name in SPLITS}
    trims = {}
    for name in SPLITS:
        for pid in split[name]:
            imp = impute(by_id[pid], schema, stats, max_gap_h)
            splits[name].append(imp)
            trims[pid] = imp.trimmed_steps

    report = {
        "n_input_patients": len(sizes),
        "n_retained": len(retained),
        "n_dropped": len(sizes) - len(retained),
        "split_counts": {k: len(v) for k, v in splits.items()},
        "medians": {k: stats[k] for k in sorted(stats)},
        "trimmed_steps": trims,
    }
    return splits, stats, report


# ---------------------------------------------------------------------------
# the ingest cache: one entry per (data file, schema, ingest settings)

_ENTRY_ARRAYS = ("values", "mask", "steps", "trimmed", "meta")


def cache_key(data_sha256: str, schema: DatasetSchema, settings: dict) -> str:
    """sha256 over everything an ingest result depends on: the data file's
    digest, the schema, the settings `ingest_pipeline` reads, numpy's version,
    and the source of this module and of `schema.py`, so that an edit or an
    upgrade is never served a stale grid."""
    doc = {"data": data_sha256, "schema": schema_to_dict(schema), "settings": settings,
           "numpy": np.__version__}
    h = hashlib.sha256(json.dumps(doc, sort_keys=True).encode())
    for source in (__file__, schema_module.__file__):
        h.update(Path(source).read_bytes())
    return h.hexdigest()


def save_splits(path, splits: dict, report: dict) -> bool:
    """Write an ingest result to `path` atomically (a temp file, then a
    rename); False when it could not be written, e.g. in a read-only directory.

    The entry is an npz of every split's series back to back: `values` and
    `mask` (steps, features), per series `steps` and `trimmed`, and `meta`, the
    JSON of the patient ids per split and the ingest report.
    """
    series = [s for name in SPLITS for s in splits[name]]
    meta = {"ids": {name: [s.patient_id for s in splits[name]] for name in SPLITS},
            "report": report}
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        path.parent.mkdir(exist_ok=True)
        with open(tmp, "wb") as fh:
            np.savez(
                fh,
                values=np.concatenate([s.values for s in series]),
                mask=np.concatenate([s.mask for s in series]),
                steps=np.array([s.n_steps for s in series], dtype=np.int64),
                trimmed=np.array([s.trimmed_steps for s in series], dtype=np.int64),
                meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
            )
        os.replace(tmp, path)
        return True
    except OSError:
        with contextlib.suppress(OSError):
            tmp.unlink()
        return False


def load_splits(path, schema: DatasetSchema):
    """The (splits, report) that `save_splits` wrote to `path`, or None when
    there is no entry or it does not fit `schema`: a bad entry is a miss."""
    try:
        entry = np.load(path, allow_pickle=False)
        if not isinstance(entry, np.lib.npyio.NpzFile):
            return None
        with entry:
            if sorted(entry.files) != sorted(_ENTRY_ARRAYS):
                return None
            values, mask, steps, trimmed, meta = (entry[k] for k in _ENTRY_ARRAYS)
        doc = json.loads(meta.tobytes().decode())
        ids, report = [doc["ids"][name] for name in SPLITS], doc["report"]
        n = sum(map(len, ids))
        fits = (
            meta.dtype == np.uint8 and isinstance(report, dict)
            and all(isinstance(names, list) and all(isinstance(pid, str) for pid in names)
                    for names in ids)
            and values.dtype == np.float64 and values.ndim == 2
            and values.shape[1] == len(schema.features)
            and mask.dtype == bool and mask.shape == values.shape
            and steps.dtype == trimmed.dtype == np.int64 and steps.shape == trimmed.shape == (n,)
            and (steps > 0).all() and (trimmed >= 0).all() and steps.sum() == len(values)
            and np.isfinite(values).all()
        )
    except (OSError, EOFError, ValueError, KeyError, TypeError, MemoryError,
            zipfile.BadZipFile, zlib.error):  # missing, truncated, garbled or foreign
        return None
    if not fits:
        return None
    bounds = np.cumsum(steps)[:-1]
    series = iter(zip(np.split(values, bounds), np.split(mask, bounds), trimmed.tolist()))
    splits = {}
    for name, names in zip(SPLITS, ids):
        splits[name] = [PatientSeries(pid, v, m, imputed=True, trimmed_steps=t)
                        for pid, (v, m, t) in zip(names, series)]
    return splits, report
