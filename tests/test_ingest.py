import csv
import io
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omnitft import ingest
from omnitft.ingest import (
    EVENT_DTYPE,
    AllMissingFeature,
    EmptyPatient,
    NegativeTime,
    PatientSeries,
    TooFewPatients,
    UnknownFeature,
    UnparsableValue,
    compute_train_stats,
    filter_patients,
    generate_synthetic,
    impute,
    parse_events,
    regime_transition,
    resample_to_grid,
    simulate_regime_chain,
    split_by_patient,
    synthetic_schema,
)
from omnitft.labeler import STABLE, VOLATILE, fluctuation_score
from omnitft.schema import DatasetSchema, FeatureSpec, validate_schema


def small_schema(step=10.0, E=6, H=2):
    return validate_schema(
        DatasetSchema(
            features=(
                FeatureSpec("hr", "target"),
                FeatureSpec("lactate", "observed_past"),
                FeatureSpec("race", "static", dtype="categorical", vocab=("asian", "white")),
            ),
            grid_step_min=step,
            encoder_len=E,
            horizon_len=H,
        )
    )


def events_table(schema, *rows):
    """The events table of (patient_id, time_h, feature name, value) rows."""
    return np.array([(p, t, schema.column(f), v) for p, t, f, v in rows], dtype=EVENT_DTYPE)


def written_events(series, schema) -> str:
    """The text `write_events_csv` writes for `series`."""
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "data.csv"
        ingest.write_events_csv(path, series, schema)
        with open(path, newline="") as fh:
            return fh.read()


def written_rows(series, schema) -> list:
    """The (patient_id, time_h, feature, value) rows `write_events_csv` writes,
    the time a float."""
    rows = list(csv.reader(io.StringIO(written_events(series, schema))))[1:]
    return [(p, float(t), f, v) for p, t, f, v in rows]


def test_parse_direct():
    schema = small_schema()
    rows = "patient_id,time_h,feature,value\np1,0.5,hr,88\n"
    events = parse_events(io.StringIO(rows), schema)
    assert events.dtype == EVENT_DTYPE
    assert events.tolist() == events_table(schema, ("p1", 0.5, "hr", 88.0)).tolist()


def test_parse_negative_time():
    schema = small_schema()
    with pytest.raises(NegativeTime):
        parse_events(io.StringIO("patient_id,time_h,feature,value\np1,-1,hr,88\n"), schema)


def test_parse_vocab_lookup():
    schema = small_schema()
    events = parse_events(
        io.StringIO("patient_id,time_h,feature,value\np1,0,race,asian\n"), schema
    )
    assert events["value"][0] == 0.0


def test_parse_unknown_feature():
    schema = small_schema()
    with pytest.raises(UnknownFeature):
        parse_events(io.StringIO("patient_id,time_h,feature,value\np1,0,abc,1\n"), schema)


def test_parse_unparsable_value():
    schema = small_schema()
    with pytest.raises(UnparsableValue):
        parse_events(io.StringIO("patient_id,time_h,feature,value\np1,0,hr,high\n"), schema)


@pytest.mark.parametrize(
    "row", ["p1,0,hr,nan", "p1,0,hr,inf", "p1,0,hr,-inf", "p1,nan,hr,88", "p1,inf,hr,88",
            "p1,0,race,nan", "p1,0,race,inf"],
)
def test_parse_non_finite_rejected(row):
    schema = small_schema()
    text = f"patient_id,time_h,feature,value\np1,0,hr,80\n{row}\n"
    with pytest.raises(UnparsableValue, match="line 3"):
        parse_events(io.StringIO(text), schema)


@pytest.mark.parametrize("row,message", [
    (",0,hr,88", "line 3: empty patient_id"),  # was a patient named ""
    ("p1,0,race,1.5", "line 3: index '1.5' is not an integer in [0, 2)"),  # was index 1
    ("p1,0,race,-0.5", "line 3: index '-0.5' is not an integer in [0, 2)"),
    ("p1,0,race,2", "line 3: index '2' is not an integer in [0, 2)"),
], ids=["empty-id", "fraction", "negative-fraction", "past-vocab"])
def test_parse_empty_id_and_bad_index_rejected(row, message):
    text = f"patient_id,time_h,feature,value\np1,0,hr,80\n{row}\n"
    with pytest.raises(UnparsableValue) as info:
        parse_events(io.StringIO(text), small_schema())
    assert str(info.value) == message


def test_parse_integer_index_forms():
    rows = "".join(f"p1,{t},race,{v}\n" for t, v in enumerate(["1", "1.0", "-0", "1e0"]))
    events = parse_events(io.StringIO("patient_id,time_h,feature,value\n" + rows), small_schema())
    assert events["value"].tobytes() == np.array([1.0, 1.0, 0.0, 1.0]).tobytes()


@pytest.mark.parametrize("row,k", [("p1,0,hr", 3), ("p1,0,hr,88,x", 5)])
def test_parse_wrong_field_count_rejected(row, k):
    schema = small_schema()
    text = f"patient_id,time_h,feature,value\np1,0,hr,80\n{row}\n"
    with pytest.raises(UnparsableValue, match=f"line 3: expected 4 fields, got {k}"):
        parse_events(io.StringIO(text), schema)


def test_parse_reports_the_first_bad_line():
    schema = small_schema()
    text = "patient_id,time_h,feature,value\np1,0,hr,80\np1,1,hr,x\np1,2,hr,81\np1,3,abc,1\n"
    with pytest.raises(UnparsableValue, match="line 3: value 'x'"):
        parse_events(io.StringIO(text), schema)


@pytest.mark.parametrize("time_s,error,message", [
    ("soon", UnparsableValue, "line 2: time 'soon'"),
    ("inf", UnparsableValue, "line 2: non-finite time 'inf'"),
    ("-1", NegativeTime, "line 2: time -1.0"),
])
def test_parse_bad_time_reported_before_non_finite_value(time_s, error, message):
    text = f"patient_id,time_h,feature,value\np1,{time_s},hr,nan\n"
    with pytest.raises(error) as info:
        parse_events(io.StringIO(text), small_schema())
    assert str(info.value) == message


def test_resample_bin_mean():
    schema = small_schema()
    events = events_table(schema, ("p1", 3 / 60, "hr", 88.0), ("p1", 7 / 60, "hr", 92.0))
    s = resample_to_grid(events, schema)
    j = schema.column("hr")
    assert s.values[0, j] == 90.0
    assert s.mask[0, j]


def test_resample_empty_bin_masked():
    schema = small_schema(step=120.0)
    events = events_table(schema, ("p1", 0.0, "hr", 80.0), ("p1", 5.0, "hr", 90.0))
    s = resample_to_grid(events, schema)
    j = schema.column("lactate")
    assert not s.mask[:, j].any()
    assert s.mask[0, schema.column("hr")]
    assert not s.mask[1, schema.column("hr")]


def test_resample_single_event_bin():
    schema = small_schema()
    s = resample_to_grid(events_table(schema, ("p1", 0.01, "hr", 77.0)), schema)
    assert s.values[0, schema.column("hr")] == 77.0


def test_resample_categorical_mode():
    schema = small_schema(step=60.0)
    events = events_table(
        schema,
        ("p1", 0.1, "race", 1.0),
        ("p1", 0.2, "race", 0.0),
        ("p1", 0.3, "race", 1.0),
        ("p1", 0.9, "hr", 80.0),
    )
    s = resample_to_grid(events, schema)
    assert s.values[0, schema.column("race")] == 1.0


def test_resample_empty_patient():
    with pytest.raises(EmptyPatient):
        resample_to_grid(events_table(small_schema()), small_schema())


def grid_series(schema, hr, mask_hr):
    n = len(hr)
    values = np.zeros((n, len(schema.features)))
    mask = np.zeros((n, len(schema.features)), dtype=bool)
    values[:, schema.column("hr")] = hr
    mask[:, schema.column("hr")] = mask_hr
    values[:, schema.column("lactate")] = 1.5
    mask[:, schema.column("lactate")] = True
    values[0, schema.column("race")] = 1.0
    mask[0, schema.column("race")] = True
    return PatientSeries("p1", values, mask)


def test_impute_forward_fill_within_gap():
    schema = small_schema(step=60.0, E=4, H=2)  # hourly grid
    hr = [80.0, 0, 0, 0, 0, 85.0]
    obs = [True, False, False, False, False, True]
    stats = {"hr": 70.0, "lactate": 1.0, "race": 0.0}
    out = impute(grid_series(schema, hr, obs), schema, stats, max_gap_h=6.0)
    j = schema.column("hr")
    np.testing.assert_allclose(out.values[1:5, j], 80.0)  # 4-h gap forward-filled


def test_impute_median_beyond_gap():
    schema = small_schema(step=60.0, E=4, H=2)
    hr = [80.0] + [0.0] * 8 + [85.0]
    obs = [True] + [False] * 8 + [True]
    stats = {"hr": 70.0, "lactate": 1.0, "race": 0.0}
    out = impute(grid_series(schema, hr, obs), schema, stats, max_gap_h=6.0)
    j = schema.column("hr")
    np.testing.assert_allclose(out.values[1:7, j], 80.0)  # first 6 h forward
    np.testing.assert_allclose(out.values[7:9, j], 70.0)  # beyond 6 h: median


def test_impute_fully_observed_noop():
    schema = small_schema(step=60.0, E=4, H=2)
    hr = [80.0, 81, 82, 83, 84, 85]
    out = impute(grid_series(schema, hr, [True] * 6), schema, {}, 6.0)
    np.testing.assert_array_equal(out.values[:, schema.column("hr")], hr)
    assert out.trimmed_steps == 0


def test_impute_preserves_observed_cells_bit_exact():
    schema = small_schema(step=60.0, E=4, H=2)
    rng = np.random.default_rng(0)
    hr = rng.normal(80, 5, size=12)
    obs = rng.random(12) > 0.4
    obs[0] = True
    series = grid_series(schema, hr, obs)
    before = series.values.copy()
    stats = {"hr": 70.0, "lactate": 1.0, "race": 0.0}
    out = impute(series, schema, stats, 6.0)
    j = schema.column("hr")
    np.testing.assert_array_equal(out.values[obs, j], before[obs, j])


def test_impute_leading_trim_without_median():
    schema = small_schema(step=60.0, E=4, H=2)
    hr = [0.0, 0.0, 80.0, 81.0, 82.0, 83.0]
    obs = [False, False, True, True, True, True]
    stats = {"lactate": 1.0, "race": 0.0}  # no hr median anywhere
    out = impute(grid_series(schema, hr, obs), schema, stats, 6.0)
    assert out.trimmed_steps == 2
    assert out.n_steps == 4


def test_impute_all_missing_feature():
    schema = small_schema(step=60.0, E=4, H=2)
    series = grid_series(schema, [80.0] * 6, [True] * 6)
    series.mask[:, schema.column("lactate")] = False
    with pytest.raises(AllMissingFeature):
        impute(series, schema, {"hr": 70.0, "race": 0.0}, 6.0)


def trim_case(age_step=0):
    """hr everywhere, lactate (never median-fillable) from step 2, age once."""
    schema = validate_schema(DatasetSchema(
        features=(FeatureSpec("hr", "target"), FeatureSpec("lactate", "observed_past"),
                  FeatureSpec("age", "static")),
        grid_step_min=60.0, encoder_len=2, horizon_len=1,
    ))
    values = np.zeros((6, 3))
    mask = np.zeros((6, 3), dtype=bool)
    values[:, 0], mask[:, 0] = np.arange(80.0, 86.0), True
    values[2:, 1], mask[2:, 1] = 1.5, True
    values[age_step, 2], mask[age_step, 2] = 42.0, True
    return schema, PatientSeries("p1", values, mask)


@pytest.mark.parametrize("medians", [{"hr": 70.0, "age": 65.0}, {"hr": 70.0}])
def test_impute_static_read_before_the_trim(medians):
    schema, series = trim_case()
    out = impute(series, schema, medians, 6.0)
    assert out.trimmed_steps == 2
    np.testing.assert_array_equal(out.values[:, schema.column("age")], [42.0] * 4)


def test_impute_static_observed_twice_keeps_its_first_value():
    # age 42 at step 0 and 12.5 at step 3: the grid read 12.5 at step 3 only
    schema, series = trim_case()
    series.values[3, 2], series.mask[3, 2] = 12.5, True
    out = impute(series, schema, {"hr": 70.0, "age": 65.0}, 6.0)
    np.testing.assert_array_equal(out.values[:, schema.column("age")], [42.0] * 4)
    assert out.mask[1, schema.column("age")]  # the mask still records the observation


def test_impute_forward_fill_reads_before_the_trim():
    schema, series = trim_case()
    series.mask[2, 0] = False  # hr missing at the first kept step
    out = impute(series, schema, {"hr": 70.0, "age": 65.0}, 6.0)
    assert out.values[0, schema.column("hr")] == 81.0  # step 1, one hour back
    series.mask[:, 0] = False
    series.mask[[0, 5], 0] = True  # hr has no median: a fill from step 0, not a raise
    out = impute(series, schema, {"age": 65.0}, 6.0)
    np.testing.assert_array_equal(out.values[:, schema.column("hr")], [80.0] * 3 + [85.0])


def test_filter_thresholds():
    schema = small_schema(step=60.0, E=4, H=2)

    def with_missing(frac, pid):
        n = 100
        s = grid_series(schema, [80.0] * n, [True] * n)
        s.patient_id = pid
        j = schema.column("lactate")
        s.mask[:, j] = True
        s.mask[: int(round(frac * n)), j] = False
        return s

    kept = filter_patients(
        [with_missing(0.85, "a"), with_missing(0.0, "b"), with_missing(0.80, "c")],
        schema,
    )
    assert [s.patient_id for s in kept] == ["b", "c"]


def test_split_10_patients():
    split = split_by_patient([f"p{i}" for i in range(10)], seed=1)
    counts = {k: len(v) for k, v in split.items()}
    assert counts == {"train": 7, "val": 2, "test": 1}


def test_split_23_patients_floor_plus_remainder():
    split = split_by_patient([f"p{i}" for i in range(23)], seed=5)
    counts = {k: len(v) for k, v in split.items()}
    assert counts == {"train": 17, "val": 4, "test": 2}


def test_split_deterministic():
    ids = [f"p{i}" for i in range(100)]
    a = split_by_patient(ids, seed=7)
    b = split_by_patient(ids, seed=7)
    assert a == b
    c = split_by_patient(ids, seed=8)
    assert a != c


@pytest.mark.parametrize("seed", range(6))
def test_split_partition_property(seed):
    ids = [f"p{i}" for i in range(37)]
    split = split_by_patient(ids, seed=seed)
    tr, va, te = (set(split[k]) for k in ("train", "val", "test"))
    assert tr | va | te == set(ids)
    assert not (tr & va) and not (tr & te) and not (va & te)


# lists from one permutation per seed, cut in train, val, test order; pinned so
# that a rewrite of the cut cannot move a patient to another split
@pytest.mark.parametrize("n, ratios, seed, expect", [
    (10, (7, 2, 1), 1, {"train": ["p00", "p01", "p02", "p04", "p05", "p07", "p08"],
                        "val": ["p06", "p09"], "test": ["p03"]}),
    (11, (0, 1, 1), 3, {"train": ["p09"], "val": ["p00", "p01", "p02", "p04", "p07"],
                        "test": ["p03", "p05", "p06", "p08", "p10"]}),
    (23, (3, 3, 3), 2, {"train": ["p06", "p07", "p12", "p14", "p16", "p18", "p19", "p21", "p22"],
                        "val": ["p00", "p02", "p10", "p11", "p13", "p15", "p17"],
                        "test": ["p01", "p03", "p04", "p05", "p08", "p09", "p20"]}),
    (13, (0.5, 0.25, 0.25), 4, {"train": ["p00", "p01", "p02", "p07", "p09", "p10", "p12"],
                                "val": ["p04", "p06", "p08"], "test": ["p03", "p05", "p11"]}),
])
def test_split_lists_are_pinned(n, ratios, seed, expect):
    assert split_by_patient([f"p{i:02d}" for i in range(n)], ratios, seed) == expect


def test_split_too_few():
    with pytest.raises(TooFewPatients):
        split_by_patient(["a", "b"], seed=0)


def test_compute_train_stats_median_and_mode():
    schema = small_schema(step=60.0, E=4, H=2)
    s1 = grid_series(schema, [10.0, 20.0, 30.0, 40.0, 50.0, 60.0], [True] * 6)
    stats = compute_train_stats([s1], schema)
    assert stats["hr"] == 35.0
    assert stats["race"] == 1.0  # the observed static value


# ---------------------------------------------------------------------------
# synthetic generator


def test_synthetic_zero_shock_rate_all_stable():
    schema = synthetic_schema()
    _, truth = generate_synthetic(5, schema, shock_rate=0.0, seed=3)
    assert all(set(v) == {STABLE} for v in truth.values())


def test_synthetic_deterministic():
    schema = synthetic_schema()
    a, ta = generate_synthetic(4, schema, shock_rate=0.3, seed=9)
    b, tb = generate_synthetic(4, schema, shock_rate=0.3, seed=9)
    assert ta == tb
    for sa, sb in zip(a, b):
        np.testing.assert_array_equal(sa.values, sb.values)


def reference_chain(n, shock_rate, rng):
    """The numpy-scalar loop `simulate_regime_chain` replaced, kept as its reference."""
    trans = regime_transition(shock_rate)
    states = np.zeros(n, dtype=int)
    u = rng.random(n)
    state = 0
    for t in range(n):
        state = int(u[t] < trans[state, 1])
        states[t] = state
    return states


@pytest.mark.parametrize("shock_rate", [0.0, 0.3, 0.9])
@pytest.mark.parametrize("seed", range(4))
def test_generator_chains_keep_the_bits_of_numpy_scalar_loops(seed, shock_rate):
    schema = synthetic_schema()
    (first, *_), truth = generate_synthetic(2, schema, shock_rate=shock_rate, seed=seed)
    rng = np.random.default_rng(seed)  # replay the first patient's draws
    n = int(rng.integers(48, 97))
    states = reference_chain(n, shock_rate, rng)
    sigma = np.where(states == 1, ingest._SIGMA_VOLATILE, ingest._SIGMA_STABLE)
    eps = rng.standard_normal(n)
    y = np.empty(n)
    y[0] = ingest._AR_MEAN + sigma[0] * eps[0]
    for t in range(1, n):
        y[t] = ingest._AR_MEAN + ingest._AR_PHI * (y[t - 1] - ingest._AR_MEAN) + sigma[t] * eps[t]
    assert truth["p0000"] == [VOLATILE if s else STABLE for s in states]
    assert first.values[:, schema.column("y")].tobytes() == y.tobytes()
    long = [simulate_regime_chain(5000, shock_rate, np.random.default_rng(seed)),
            reference_chain(5000, shock_rate, np.random.default_rng(seed))]
    assert long[0].dtype == long[1].dtype and long[0].tobytes() == long[1].tobytes()


def test_chain_stationary_fraction():
    # analytic stationary volatile mass of the two-state chain is shock_rate
    rng = np.random.default_rng(11)
    trans = regime_transition(0.3)
    enter, leave = trans[0, 1], trans[1, 0]
    stationary = enter / (enter + leave)
    assert np.isclose(stationary, 0.3)
    states = simulate_regime_chain(100_000, 0.3, rng)
    assert abs(states.mean() - stationary) < 0.05


def test_shock_rate_shifts_downstream_fluctuation_scores():
    schema = synthetic_schema(encoder_len=8, horizon_len=4)
    calm, _ = generate_synthetic(12, schema, shock_rate=0.0, seed=21)
    wild, _ = generate_synthetic(12, schema, shock_rate=0.3, seed=21)

    def median_score(series_list):
        scores = []
        col = schema.column("y")
        T, E = schema.window_len, schema.encoder_len
        for s in series_list:
            y = s.values[:, col]
            for t in range(s.n_steps - T + 1):
                scores.append(fluctuation_score(y[t + E : t + T]))
        return np.median(scores)

    assert median_score(calm) < median_score(wild)


def test_synthetic_volatile_fraction_matches_truth():
    schema = synthetic_schema()
    _, truth = generate_synthetic(40, schema, shock_rate=0.3, seed=13)
    labels = [v == VOLATILE for labs in truth.values() for v in labs]
    assert 0.15 < np.mean(labels) < 0.45


def test_split_grid_files_round_trip(tmp_path):
    schema = synthetic_schema(encoder_len=6, horizon_len=2)
    series, _ = generate_synthetic(12, schema, shock_rate=0.2, seed=8,
                                   min_steps=12, max_steps=16)
    splits = {"train": series[:8], "val": series[8:10], "test": series[10:]}
    report = {"n_retained": 12, "split_counts": {k: len(v) for k, v in splits.items()},
              "medians": {}, "trimmed_steps": {}, "n_input_patients": 12, "n_dropped": 0}
    paths = ingest.write_split_grids(tmp_path, splits, schema, report)
    assert len(paths) == 7  # 2 files per split + manifest
    back = ingest.read_split_grids(tmp_path, schema)
    for name in splits:
        assert [s.patient_id for s in back[name]] == sorted(
            s.patient_id for s in splits[name]
        )
        orig = {s.patient_id: s for s in splits[name]}
        for s in back[name]:
            np.testing.assert_array_equal(s.values, orig[s.patient_id].values)
            np.testing.assert_array_equal(s.mask, orig[s.patient_id].mask)


def test_pipeline_end_to_end():
    schema = synthetic_schema(encoder_len=6, horizon_len=2)
    series, _ = generate_synthetic(15, schema, shock_rate=0.2, seed=4, min_steps=20, max_steps=30)
    events = parse_events(io.StringIO(written_events(series, schema)), schema)
    splits, stats, report = ingest.ingest_pipeline(events, schema, seed=0)
    assert report["split_counts"]["train"] >= report["split_counts"]["val"]
    assert sum(report["split_counts"].values()) == report["n_retained"] == 15
    for name, lst in splits.items():
        for s in lst:
            assert s.imputed
            assert np.isfinite(s.values).all()


def test_pipeline_grids_do_not_depend_on_row_order():
    schema = synthetic_schema(encoder_len=2, horizon_len=1)
    series, _ = generate_synthetic(10, schema, seed=3, min_steps=8, max_steps=10)
    rows = written_rows(series, schema)
    # three events in one cell at one time: their file order fixes the float sum
    at = rows.index(("p0003", 2.0, "y", repr(float(series[3].values[2, 0]))))
    rows[at:at + 1] = [("p0003", 2.0, "y", v) for v in ("0.1", "0.2", "0.3")]
    # patients interleaved and time running backwards; ties keep their file order
    shuffled = sorted(rows, key=lambda r: -r[1])

    def ingested(rows):
        text = "patient_id,time_h,feature,value\n" + "".join(
            f"{p},{t!r},{f},{v}\n" for p, t, f, v in rows)
        splits, _, report = ingest.ingest_pipeline(parse_events(io.StringIO(text), schema), schema)
        return report, {s.patient_id: s for v in splits.values() for s in v}

    (report, by_id), (report_shuffled, by_id_shuffled) = ingested(rows), ingested(shuffled)
    assert report_shuffled == report and by_id_shuffled.keys() == by_id.keys()
    for pid, s in by_id.items():
        assert by_id_shuffled[pid].values.tobytes() == s.values.tobytes()
        assert by_id_shuffled[pid].mask.tobytes() == s.mask.tobytes()
    p3 = by_id["p0003"]
    assert p3.values[2 - p3.trimmed_steps, 0] == (0.1 + 0.2 + 0.3) / 3 != (0.3 + 0.2 + 0.1) / 3


# ---------------------------------------------------------------------------
# properties: imputation under random missingness, the event round trip


PROP_SCHEMA = validate_schema(DatasetSchema(
    features=(
        FeatureSpec("hr", "target"),
        FeatureSpec("lactate", "observed_past"),
        FeatureSpec("tod", "known_future"),
        FeatureSpec("race", "static", dtype="categorical", vocab=("a", "b", "c")),
        FeatureSpec("age", "static"),
    ),
    grid_step_min=30.0, encoder_len=2, horizon_len=1,
))
_FINITE = st.floats(-1e6, 1e6, allow_nan=False)


@st.composite
def impute_cases(draw):
    n = draw(st.integers(1, 10))
    columns, observed, medians = [], [], {}
    for spec in PROP_SCHEMA.features:
        value = st.sampled_from([0.0, 1.0, 2.0]) if spec.is_categorical else _FINITE
        if spec.role == "static":  # one value per patient, recorded at any steps
            columns.append([draw(value)] * n)
        else:
            columns.append(draw(st.lists(value, min_size=n, max_size=n)))
        observed.append(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        if draw(st.booleans()):
            medians[spec.name] = draw(value)
    series = PatientSeries("p", np.array(columns).T, np.array(observed).T)
    return series, medians, draw(st.floats(0.0, 4.0))


@settings(max_examples=300, deadline=None)
@given(impute_cases())
def test_impute_property(case):
    series, stats, max_gap_h = case
    values, mask = series.values.copy(), series.mask.copy()
    max_steps = math.floor(max_gap_h / 0.5 + 1e-9)
    fallback = [stats.get(f.name) for f in PROP_SCHEMA.features]
    no_fallback = [j for j, fb in enumerate(fallback) if fb is None]
    if any(not mask[:, j].any() for j in no_fallback):
        with pytest.raises(AllMissingFeature):
            impute(series, PROP_SCHEMA, stats, max_gap_h)
        return
    start = max([int(np.argmax(mask[:, j])) for j in no_fallback], default=0)
    if any(not mask[max(t - max_steps, 0): t + 1, j].any()
           for j in no_fallback if PROP_SCHEMA.features[j].role != "static"
           for t in range(start, len(mask))):
        with pytest.raises(AllMissingFeature):  # a kept cell with no usable value
            impute(series, PROP_SCHEMA, stats, max_gap_h)
        return
    out = impute(series, PROP_SCHEMA, stats, max_gap_h)
    assert out.trimmed_steps == start
    assert np.isfinite(out.values).all()
    np.testing.assert_array_equal(out.mask, mask[start:])
    kept = values[start:]
    assert out.values[out.mask].tobytes() == kept[out.mask].tobytes()  # bit-exact
    for j, spec in enumerate(PROP_SCHEMA.features):
        col = out.values[:, j]
        if spec.role == "static":
            seen = np.flatnonzero(mask[:, j])
            assert (col == (values[seen[0], j] if seen.size else fallback[j])).all()
            continue
        for t in np.flatnonzero(~out.mask[:, j]):
            prior = np.flatnonzero(mask[: start + t + 1, j])
            if prior.size and start + t - prior[-1] <= max_steps:
                assert col[t] == values[prior[-1], j]
            else:
                assert col[t] == fallback[j]


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**16), grid_step_min=st.sampled_from([1.0, 5.0, 10.0, 15.0, 60.0, 90.0]))
def test_event_round_trip_reproduces_the_grid(seed, grid_step_min):
    schema = synthetic_schema(encoder_len=2, horizon_len=1, grid_step_min=grid_step_min)
    series, _ = generate_synthetic(3, schema, seed=seed, min_steps=4, max_steps=30)
    events = parse_events(io.StringIO(written_events(series, schema)), schema)
    temporal = np.array([f.role != "static" for f in schema.features])
    for s in series:
        grid = resample_to_grid(events[events["patient_id"] == s.patient_id], schema)
        # statics are written once, at time 0
        np.testing.assert_array_equal(grid.mask, temporal | (np.arange(s.n_steps)[:, None] == 0))
        assert grid.values[grid.mask].tobytes() == s.values[grid.mask].tobytes()
        filled = impute(grid, schema, compute_train_stats([grid], schema))
        assert filled.values.tobytes() == s.values.tobytes()


def reference_events_csv(series_list, schema) -> str:
    """The per-row csv.writer writer that `write_events_csv` replaced, kept as
    the reference of its bytes."""
    step_h = schema.grid_step_min / 60.0
    text = io.StringIO(newline="")
    writer = csv.writer(text)
    writer.writerow(["patient_id", "time_h", "feature", "value"])
    for s in series_list:
        for j, spec in enumerate(schema.features):
            steps = [0] if spec.role == "static" else [t for t in range(s.n_steps) if s.mask[t, j]]
            for t in steps:
                v = s.values[t, j]
                out = spec.vocab[int(v)] if (spec.is_categorical and spec.vocab) else repr(float(v))
                writer.writerow([s.patient_id, repr(float(t * step_h)), spec.name, out])
    return text.getvalue()


def synth_cohort(patients, seed, **steps):
    schema = synthetic_schema()
    return generate_synthetic(patients, schema, seed=seed, **steps)[0], schema


def unobserved_cohort():
    """Synthetic series with a third of their cells unobserved, statics too."""
    schema = synthetic_schema(grid_step_min=15.0)
    series, _ = generate_synthetic(8, schema, seed=5, min_steps=10, max_steps=30)
    rng = np.random.default_rng(0)
    for s in series:
        s.mask = rng.random(s.mask.shape) > 1 / 3
    return series, schema


def quoted_cohort():
    """Patient ids and vocab names holding a comma or a quote, a categorical
    with a vocab and one without, and unobserved cells."""
    schema = validate_schema(DatasetSchema(
        features=(
            FeatureSpec("hr", "target"),
            FeatureSpec("ward", "observed_past", dtype="categorical",
                        vocab=("icu,east", 'say "ok"', "plain")),
            FeatureSpec("code", "observed_past", dtype="categorical", vocab_size=4),
            FeatureSpec("site", "static", dtype="categorical", vocab=('a "b", c', "d")),
            FeatureSpec("age", "static"),
        ),
        grid_step_min=7.0, encoder_len=2, horizon_len=1,
    ))
    rng = np.random.default_rng(1)
    series = []
    for k, pid in enumerate(("p,1", 'p"2"', "p3")):
        values = np.column_stack([rng.normal(80, 5, 9), rng.integers(0, 3, 9),
                                  rng.integers(0, 4, 9), np.full(9, k % 2), np.full(9, 61.5)])
        series.append(PatientSeries(pid, values.astype(float), rng.random((9, 5)) > 0.25))
    return series, schema


@pytest.mark.parametrize("cohort", [
    lambda: synth_cohort(50, 1),  # `synth`'s defaults: 48 to 96 steps
    lambda: synth_cohort(50, 7),
    *[lambda n=n: synth_cohort(n, 1, min_steps=72, max_steps=72) for n in (12, 64, 100)],
    unobserved_cohort,
    quoted_cohort,
], ids=["synth-seed1", "synth-seed7", "fixed72-12", "fixed72-64", "fixed72-100", "unobserved",
        "quoted"])
def test_events_csv_has_the_bytes_of_the_row_writer(cohort):
    series, schema = cohort()
    assert written_events(series, schema) == reference_events_csv(series, schema)


def reference_split_grid(series_list, schema, mask: bool) -> str:
    """The per-row csv.writer writer that `write_split_grids` replaced, kept
    as the reference of its grid and mask bytes."""
    text = io.StringIO(newline="")
    writer = csv.writer(text)
    writer.writerow(["patient_id", "step"] + [f.name for f in schema.features])
    for s in series_list:
        rows = s.mask.astype(int).tolist() if mask else s.values.tolist()
        writer.writerows([s.patient_id, t, *r] for t, r in enumerate(rows))
    return text.getvalue()


@pytest.mark.parametrize("cohort", [
    lambda: synth_cohort(50, 1),
    *[lambda n=n: synth_cohort(n, 1, min_steps=72, max_steps=72) for n in (12, 100)],
    unobserved_cohort,
    quoted_cohort,
], ids=["synth-seed1", "fixed72-12", "fixed72-100", "unobserved", "quoted"])
def test_split_grids_have_the_bytes_of_the_row_writer(cohort, tmp_path):
    series, schema = cohort()
    splits = {"train": series[1:], "val": series[:1], "test": []}
    ingest.write_split_grids(tmp_path, splits, schema, {})
    for name, part in splits.items():
        for kind in ("grid", "mask"):
            got = (tmp_path / f"{kind}_{name}.csv").read_bytes().decode()
            assert got == reference_split_grid(part, schema, kind == "mask"), (name, kind)


@st.composite
def binned_events(draw):
    rows = []
    for _ in range(draw(st.integers(1, 60))):
        spec = draw(st.sampled_from(PROP_SCHEMA.features))
        value = (draw(st.sampled_from([0.0, 1.0, 2.0])) if spec.is_categorical
                 else draw(st.floats(0.0, 200.0)))
        step, offset = draw(st.integers(0, 5)), draw(st.sampled_from([0.0, 0.1, 0.25, 0.49]))
        rows.append(("p", step * 0.5 + offset, spec.name, value))
    return events_table(PROP_SCHEMA, *rows)


@settings(max_examples=200, deadline=None)
@given(binned_events())
def test_resample_matches_per_cell_oracle(events):
    grid = resample_to_grid(events, PROP_SCHEMA)
    cells = {}
    for _, time_h, j, value in events.tolist():
        cells.setdefault((int(time_h // 0.5), j), []).append(value)
    assert grid.n_steps == 1 + max(t for t, _ in cells)
    assert set(zip(*np.nonzero(grid.mask))) == set(cells)
    for (t, j), vals in cells.items():
        if PROP_SCHEMA.features[j].is_categorical:
            best = max(vals.count(v) for v in vals)
            assert grid.values[t, j] == min(v for v in vals if vals.count(v) == best)
        else:
            assert grid.values[t, j] == pytest.approx(sum(vals) / len(vals), rel=1e-12)
    assert (grid.values[~grid.mask] == 0.0).all()


# ---------------------------------------------------------------------------
# bad values never reach a grid; the ingest cache entry


def test_resample_overflowing_bin_mean_names_patient_feature_and_step():
    schema = small_schema()
    events = events_table(schema, ("p1", 0.0, "hr", 80.0),
                          ("p1", 0.2, "hr", 1e308), ("p1", 0.2, "hr", 1e308))
    message = "patient 'p1': feature 'hr' at step 1 bins to inf"
    with pytest.raises(ingest.NonFiniteBin, match=message):
        resample_to_grid(events, schema)


@pytest.mark.parametrize("time_h", [1e12, 1e300])
def test_resample_refuses_a_grid_past_memory_before_allocating_it(time_h):
    schema = small_schema()
    message = re.escape(f"patient 'p1': its last time {time_h} h")
    with pytest.raises(ingest.GridTooLarge, match=message):
        resample_to_grid(events_table(schema, ("p1", 0.0, "hr", 80.0), ("p1", time_h, "hr", 1.0)),
                         schema)


@st.composite
def sparse_cohorts(draw):
    """Twelve patients with few observed events over long spans, and a threshold."""
    rows = []
    for p in range(12):
        span = draw(st.sampled_from([0.5, 3.0, 40.0, 1e4]))
        rows.append((f"p{p:02d}", 0.0, "hr", 80.0))
        rows.append((f"p{p:02d}", 0.0, "lactate", 1.0))
        rows.append((f"p{p:02d}", 0.0, "race", draw(st.sampled_from([0.0, 1.0]))))
        rows.append((f"p{p:02d}", span, "hr", 81.0))
        for t in draw(st.lists(st.floats(0.0, span), max_size=8)):
            rows.append((f"p{p:02d}", t, draw(st.sampled_from(["hr", "lactate"])), 2.0))
    return events_table(small_schema(step=60.0), *rows), draw(st.sampled_from(
        [0.0, 0.5, 0.8, 0.9, 0.95, 1.0]))


@settings(max_examples=60, deadline=None)
@given(sparse_cohorts())
def test_dropping_before_allocation_keeps_whom_filter_patients_keeps(case):
    events, threshold = case
    schema = small_schema(step=60.0)
    every = [resample_to_grid(events[events["patient_id"] == p], schema)
             for p in sorted(set(events["patient_id"]))]
    kept = sorted(s.patient_id for s in filter_patients(every, schema, threshold))
    if len(kept) < 10:
        with pytest.raises(TooFewPatients):
            ingest.ingest_pipeline(events, schema, missing_threshold=threshold, max_gap_h=1e9)
        return
    splits, _, report = ingest.ingest_pipeline(events, schema, missing_threshold=threshold,
                                               max_gap_h=1e9)
    assert sorted(s.patient_id for v in splits.values() for s in v) == kept
    assert (report["n_input_patients"], report["n_dropped"]) == (12, 12 - len(kept))


def test_split_cache_round_trip_is_bit_exact(tmp_path):
    schema = synthetic_schema(encoder_len=4, horizon_len=2)
    series, _ = generate_synthetic(12, schema, seed=2, min_steps=10, max_steps=20)
    events = parse_events(io.StringIO(written_events(series, schema)), schema)
    splits, _, report = ingest.ingest_pipeline(events, schema)
    path = tmp_path / "cache" / "entry.npz"
    assert ingest.load_splits(path, schema) is None
    assert ingest.save_splits(path, splits, report)
    loaded, loaded_report = ingest.load_splits(path, schema)
    assert loaded_report == report and list(loaded) == list(splits)
    for name in splits:
        assert [s.patient_id for s in loaded[name]] == [s.patient_id for s in splits[name]]
        for a, b in zip(loaded[name], splits[name]):
            assert a.values.tobytes() == b.values.tobytes() and a.values.shape == b.values.shape
            assert a.mask.tobytes() == b.mask.tobytes() and a.trimmed_steps == b.trimmed_steps
    # an entry for a schema of other width does not fit it
    assert ingest.load_splits(path, small_schema()) is None
    assert [p.name for p in path.parent.iterdir()] == ["entry.npz"]
