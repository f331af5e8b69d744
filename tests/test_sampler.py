import numpy as np
import pytest

from omnitft.ingest import PatientSeries, generate_synthetic, synthetic_schema
from omnitft.labeler import STABLE, VOLATILE
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
