import numpy as np
import pytest

from omnitft.ingest import PatientSeries, generate_synthetic, synthetic_schema
from omnitft.labeler import STABLE, VOLATILE, fluctuation_score, threshold_label
from omnitft.sampler import (
    SeriesTooShort,
    balanced_epoch,
    enumerate_windows,
)
from omnitft.schema import DatasetSchema, FeatureSpec, validate_schema


def flat_schema(E=4, H=2):
    return validate_schema(
        DatasetSchema(
            features=(FeatureSpec("y", "target"), FeatureSpec("x", "observed_past")),
            grid_step_min=60.0,
            encoder_len=E,
            horizon_len=H,
        )
    )


def series_of(schema, y):
    n = len(y)
    values = np.zeros((n, len(schema.features)))
    values[:, schema.column("y")] = y
    values[:, schema.column("x")] = 1.0
    return PatientSeries("p1", values, np.ones_like(values, dtype=bool), imputed=True)


def test_exact_window_count_at_boundary():
    schema = flat_schema()
    wins = enumerate_windows(series_of(schema, np.arange(6.0)), schema, delta=100.0)
    assert len(wins) == 1
    assert wins[0].enc_past.shape == (4, 2)
    assert wins[0].fut_target.shape == (2,)


def test_window_count_formula():
    schema = flat_schema()
    wins = enumerate_windows(series_of(schema, np.arange(10.0)), schema, delta=100.0)
    assert len(wins) == 10 - 6 + 1  # n - T + 1


def test_constant_series_all_stable():
    schema = flat_schema()
    wins = enumerate_windows(series_of(schema, np.full(12, 5.0)), schema, delta=0.0)
    assert all(w.label == STABLE for w in wins)


def test_too_short_series():
    schema = flat_schema()
    with pytest.raises(SeriesTooShort):
        enumerate_windows(series_of(schema, np.arange(5.0)), schema, delta=1.0)


def test_window_arrays_do_not_alias_the_series_grid():
    # windows outlive edits to the grid they were cut from
    schema = synthetic_schema(encoder_len=4, horizon_len=2)
    series, _ = generate_synthetic(1, schema, seed=2, min_steps=10, max_steps=10)
    grid = series[0].values
    wins = enumerate_windows(series[0], schema, delta=1.0)
    assert len(wins) == 10 - 6 + 1
    for w in wins:
        for arr in (w.enc_past, w.fut_known, w.fut_target, w.statics):
            assert not np.shares_memory(arr, grid)


def _reference_windows(series, schema, delta, target=None):
    """Windows cut one by one, each from its own slices of the grid."""
    spec = schema.feature(target) if target else schema.target_features[0]
    E, T = schema.encoder_len, schema.window_len
    cols = [[schema.column(f.name) for f in fs]
            for fs in (schema.past_features, schema.future_features, schema.static_features)]
    out = []
    for t in range(series.n_steps - T + 1):
        fut_target = series.values[t + E : t + T, schema.column(spec.name)].copy()
        score = fluctuation_score(fut_target)
        out.append(dict(
            patient_id=series.patient_id, start=t, target_name=spec.name,
            target_idx=[f.name for f in schema.target_features].index(spec.name),
            enc_past=series.values[t : t + E, cols[0]], fut_known=series.values[t + E : t + T, cols[1]],
            fut_target=fut_target, statics=series.values[t, cols[2]],
            label=threshold_label(score, delta), score=score,
        ))
    return out


def _two_target_schema():
    return validate_schema(DatasetSchema(
        features=(FeatureSpec("age", "static"), FeatureSpec("y", "target"),
                  FeatureSpec("kf", "known_future"), FeatureSpec("y2", "target")),
        grid_step_min=60.0, encoder_len=3, horizon_len=5,
    ))


@pytest.mark.parametrize("case", ["synthetic", "flat", "second-target", "signed-zeros"])
@pytest.mark.parametrize("delta", [0.0, 1.0])
def test_windows_match_per_window_reference(case, delta):
    # every window of a series is cut by one gather per array kind; each field,
    # its type and the window order match windows cut one by one
    target = None
    if case == "synthetic":
        schema = synthetic_schema(encoder_len=6, horizon_len=3)
        series = generate_synthetic(1, schema, seed=4, min_steps=30, max_steps=30)[0][0]
    else:
        schema = flat_schema() if case == "flat" else _two_target_schema()
        values = np.random.default_rng(3).normal(size=(17, len(schema.features)))
        if case == "signed-zeros":  # a flat future segment of -0.0 and 0.0 spreads 0.0
            values[5:12] = np.array([0.0, -0.0])[np.arange(7) % 2][:, None]
        series = PatientSeries("p7", values, np.ones_like(values, dtype=bool), imputed=True)
        target = "y2" if case == "second-target" else None
    wins = enumerate_windows(series, schema, delta, target=target)
    want = _reference_windows(series, schema, delta, target=target)
    assert isinstance(wins, list) and len(wins) == len(want)
    for w, ref in zip(wins, want):
        for key, value in ref.items():
            got = getattr(w, key)
            assert type(got) is type(value), key
            if isinstance(value, np.ndarray):
                assert got.shape == value.shape and got.tobytes() == value.tobytes(), key
            else:
                assert got == value, key


def test_window_slices_match_series():
    schema = flat_schema()
    y = np.arange(12.0)
    wins = enumerate_windows(series_of(schema, y), schema, delta=0.5)
    w = wins[3]
    np.testing.assert_array_equal(w.fut_target, y[3 + 4 : 3 + 6])
    np.testing.assert_array_equal(w.enc_past[:, 0], y[3 : 3 + 4])
    assert w.label == VOLATILE  # ramp fluctuation = 1 > 0.5


def _labeled_pool(n_stable, n_volatile):
    schema = flat_schema()
    pool = []
    for i in range(n_stable + n_volatile):
        y = np.zeros(6) if i < n_stable else np.linspace(0, 10, 6)
        w = enumerate_windows(series_of(schema, y), schema, delta=1.0)[0]
        w.patient_id = f"p{i}"
        pool.append(w)
    return pool


def test_balanced_epoch_undersamples_majority():
    pool = _labeled_pool(100, 20)
    epoch = balanced_epoch(pool, seed=0)
    assert not epoch.single_class
    assert len(epoch.windows) == 40
    labels = [w.label for w in epoch.windows]
    assert labels.count(STABLE) == labels.count(VOLATILE) == 20


def test_balanced_epoch_even_classes_permutation():
    pool = _labeled_pool(50, 50)
    epoch = balanced_epoch(pool, seed=1)
    assert len(epoch.windows) == 100
    assert sorted(id(w) for w in epoch.windows) == sorted(id(w) for w in pool)


def test_single_class_degrades_with_flag():
    pool = _labeled_pool(100, 0)
    epoch = balanced_epoch(pool, seed=2)
    assert epoch.single_class
    assert len(epoch.windows) == 100


def test_epoch_draws_differ_but_stay_balanced():
    pool = _labeled_pool(30, 10)
    seen = set()
    for seed in range(10):
        epoch = balanced_epoch(pool, seed=seed)
        labels = [w.label for w in epoch.windows]
        assert labels.count(STABLE) == labels.count(VOLATILE) == 10
        seen.add(tuple(sorted(w.patient_id for w in epoch.windows)))
    assert len(seen) > 1  # fresh draw each epoch


def test_majority_coverage_over_epochs():
    pool = _labeled_pool(100, 20)
    stable_seen = set()
    for seed in range(50):
        for w in balanced_epoch(pool, seed=seed).windows:
            if w.label == STABLE:
                stable_seen.add(w.patient_id)
    assert len(stable_seen) >= 95


def test_enumerate_on_synthetic_generator():
    schema = synthetic_schema(encoder_len=6, horizon_len=3)
    series, _ = generate_synthetic(3, schema, shock_rate=0.3, seed=5, min_steps=30, max_steps=40)
    wins = enumerate_windows(series[0], schema, delta=1.0)
    assert len(wins) == series[0].n_steps - schema.window_len + 1
    assert {w.label for w in wins} <= {STABLE, VOLATILE}
    assert all(w.fut_known.shape == (3, 2) for w in wins)
    assert all(w.statics.shape == (2,) for w in wins)
