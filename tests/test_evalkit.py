from statistics import NormalDist

import numpy as np
import pytest

from omnitft import evalkit as ek
from omnitft.evalkit import (
    AllNearZeroActuals,
    EmptySeries,
    MetricReport,
    aggregate_importance,
    compute_report,
    coverage_below,
    export_trajectories,
    format_cell,
    mae,
    mape,
    pinball_at,
    render_table,
    rmbe,
    rmse,
    select_typical_window,
)


def test_three_point_fixture():
    pred, actual = [1.0, 2.0, 3.0], [2.0, 2.0, 5.0]
    assert abs(mae(pred, actual) - 1.0) <= 1e-9
    assert abs(rmse(pred, actual) - np.sqrt(5.0 / 3.0)) <= 1e-9


def test_perfect_prediction_zero_errors():
    y = [3.0, 4.0, 5.0]
    assert mae(y, y) == 0.0
    assert rmse(y, y) == 0.0
    assert mape(y, y) == 0.0
    assert rmbe(y, y) == 0.0


def test_constant_offset_identities():
    rng = np.random.default_rng(0)
    y = rng.uniform(10, 20, size=200)
    c = 1.7
    assert np.isclose(mae(y + c, y), c)
    assert np.isclose(rmbe(y + c, y), 100.0 * c / y.mean())


def test_mape_excludes_near_zero():
    pred = [1.0, 1.0]
    actual = [0.0, 2.0]
    assert np.isclose(mape(pred, actual), 50.0)
    assert ek.mape_excluded_count(actual) == 1
    with pytest.raises(AllNearZeroActuals):
        mape([1.0], [0.0])


def test_rmbe_signed_and_undefined():
    assert rmbe([2.0, 2.0], [1.0, 1.0]) == 100.0
    assert rmbe([0.0, 0.0], [1.0, 1.0]) == -100.0
    with pytest.raises(AllNearZeroActuals):
        rmbe([1.0, -1.0], [1.0, -1.0])  # mean(actual) = 0


def test_empty_series():
    with pytest.raises(EmptySeries):
        mae([], [])


def test_pinball_values_and_median_identity():
    assert np.isclose(pinball_at(0.9, [0.0], [1.0]), 0.9)
    assert np.isclose(pinball_at(0.9, [1.0], [0.0]), 0.1)
    rng = np.random.default_rng(1)
    y = rng.normal(size=500)
    p50 = rng.normal(size=500)
    assert np.isclose(pinball_at(0.5, p50, y), 0.5 * mae(p50, y))


def test_coverage_extremes_and_calibrated_gaussian():
    y = np.random.default_rng(2).normal(size=100)
    assert coverage_below(0.9, np.full(100, 1e9), y) == 1.0
    rng = np.random.default_rng(3)
    y = rng.normal(size=10_000)
    for q in (0.1, 0.5, 0.9):
        track = np.full(y.size, NormalDist().inv_cdf(q))
        assert abs(coverage_below(q, track, y) - q) < 0.03


def test_rmse_dominates_mae():
    rng = np.random.default_rng(4)
    for _ in range(20):
        pred = rng.normal(size=50)
        actual = rng.normal(size=50)
        assert rmse(pred, actual) >= mae(pred, actual)


def test_coverage_monotone_in_q_for_sorted_tracks():
    rng = np.random.default_rng(5)
    y = rng.normal(size=300)
    tracks = np.sort(rng.normal(size=(300, 3)), axis=1)
    covs = [coverage_below(q, tracks[:, i], y) for i, q in enumerate((0.1, 0.5, 0.9))]
    assert covs[0] <= covs[1] <= covs[2]


def test_metrics_permutation_invariant():
    rng = np.random.default_rng(6)
    pred, actual = rng.normal(size=40), rng.normal(size=40)
    perm = rng.permutation(40)
    assert np.isclose(mae(pred, actual), mae(pred[perm], actual[perm]))
    assert np.isclose(rmse(pred, actual), rmse(pred[perm], actual[perm]))
    assert np.isclose(
        pinball_at(0.9, pred, actual), pinball_at(0.9, pred[perm], actual[perm])
    )


def test_format_cell_reference_layout():
    assert format_cell(5.05, 6.67) == "5.05 (6.67)"
    assert format_cell(26.28, None) == "26.28 (>1)"


def test_report_and_table_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    actual = rng.uniform(50, 100, size=200)
    p50 = actual + rng.normal(0, 2, size=200)
    r = compute_report("hr", p50 - 4, p50, p50 + 4, actual)
    assert 0 <= r.p10_coverage <= 1 and 0 <= r.p90_coverage <= 1
    assert r.rmse >= r.mae >= 0
    txt = render_table([r])
    assert "hr" in txt and "(" in txt
    path = tmp_path / "m.json"
    ek.write_reports_json(path, [r])
    back = ek.reports_from_json(path)
    assert back[0].to_dict() == r.to_dict()


def test_report_sentinel_for_near_zero_targets():
    actual = np.zeros(10)
    r = compute_report("z", np.ones(10), np.ones(10), np.ones(10), actual)
    assert r.mape is None and r.rmbe is None
    assert "(>1)" in render_table([r])


# ---------------------------------------------------------------------------
# importance aggregation


def _bundle(w_hist, abar, H=2):
    from omnitft.model import ForecastBundle, SelectionWeights

    E, N = w_hist.shape
    return ForecastBundle(
        quantiles=np.zeros((H, 3)),
        attention=abar,
        selection=SelectionWeights(w_hist, np.zeros((H, 0))),
        decoder_states=np.zeros((H, 4)),
    )


def test_importance_single_feature_is_one():
    E, H = 3, 2
    T = E + H
    abar = np.tril(np.ones((T, T)))
    abar /= abar.sum(-1, keepdims=True)
    b = _bundle(np.ones((E, 1)), abar, H)
    table = aggregate_importance([[b]], ["only"], E)
    assert table.rows[0].score == 1.0
    assert table.rows[0].rank == 1


def test_importance_normalization_and_ranks():
    rng = np.random.default_rng(8)
    E, H, N = 4, 2, 3
    T = E + H
    bundles = []
    for _ in range(5):
        w = rng.dirichlet(np.ones(N), size=E)
        abar = np.tril(rng.uniform(size=(T, T))) + 1e-9
        abar = np.tril(abar) / np.tril(abar).sum(-1, keepdims=True)
        bundles.append(_bundle(w, abar, H))
    table = aggregate_importance([bundles], ["a", "b", "c"], E)
    total = sum(r.score for r in table.rows)
    assert abs(total - 1.0) <= 1e-9
    assert sorted(r.rank for r in table.rows) == [1, 2, 3]
    ranked = sorted(table.rows, key=lambda r: r.rank)
    assert ranked[0].score >= ranked[1].score >= ranked[2].score


def test_importance_cv_across_runs():
    E, H = 3, 2
    T = E + H
    abar = np.tril(np.ones((T, T)))
    abar /= abar.sum(-1, keepdims=True)
    runs = []
    for scale in (0.2, 0.4, 0.6):
        w = np.column_stack([np.full(E, scale), np.full(E, 1 - scale)])
        runs.append([_bundle(w, abar, H)])
    table = aggregate_importance(runs, ["a", "b"], E)
    assert all(r.cv > 0 for r in table.rows)
    single = aggregate_importance([runs[0]], ["a", "b"], E)
    assert all(r.cv == 0 for r in single.rows)


@pytest.fixture(scope="module")
def trained_with_flatline():
    """Small model trained on data where one observed input is constant."""
    from omnitft.ingest import generate_synthetic, synthetic_schema
    from omnitft.model import Model, ModelConfig, WindowBatch
    from omnitft.sampler import enumerate_windows
    from omnitft.schema import DatasetSchema, FeatureSpec, validate_schema
    from omnitft.trainer import TrainConfig, train

    base = synthetic_schema(encoder_len=8, horizon_len=3)
    feats = list(base.features) + [FeatureSpec("flatline", "observed_past", unit="1")]
    schema = validate_schema(
        DatasetSchema(features=tuple(feats), grid_step_min=base.grid_step_min,
                      encoder_len=8, horizon_len=3)
    )
    series, _ = generate_synthetic(10, schema, shock_rate=0.2, seed=6,
                                   min_steps=30, max_steps=40)
    col = schema.column("flatline")
    for s in series:
        s.values[:, col] = 5.0  # wipe out any information
    windows = []
    for s in series:
        windows.extend(enumerate_windows(s, schema, delta=2.5))
    model = Model(schema, ModelConfig(hidden=16, heads=2, blocks=2, dropout=0.0), seed=0)
    cfg = TrainConfig(lr=5e-3, batch=32, max_epochs=18, patience=18, seed=0)
    train(model, windows[:160], windows[160:190], cfg)
    return schema, model, windows[190:230]


def test_importance_of_constant_feature_below_uniform(trained_with_flatline):
    from omnitft.model import WindowBatch

    schema, model, eval_windows = trained_with_flatline
    batch = WindowBatch.from_windows(eval_windows)
    fp = model.forward(batch)
    bundles = [fp.bundle(i) for i in range(batch.size)]
    names = [f.name for f in schema.past_features]
    table = aggregate_importance([bundles], names, schema.encoder_len)
    score = {r.feature: r.score for r in table.rows}
    assert score["flatline"] < 1.0 / len(names)


# ---------------------------------------------------------------------------
# trajectory export


def test_select_typical_window_nearest_to_mean():
    assert select_typical_window([1.0, 2.0, 9.0]) == 1  # mean 4 -> MAE 2


def test_export_trajectories_layout():
    from omnitft.model import ForecastBundle, SelectionWeights

    E, H = 5, 3
    q = np.column_stack([np.zeros(H) - 1, np.zeros(H), np.zeros(H) + 1])
    b = ForecastBundle(
        quantiles=q[:, ::-1].copy(),  # deliberately crossed raw order
        attention=np.eye(E + H),
        selection=SelectionWeights(np.ones((E, 2)) / 2, np.zeros((H, 0))),
        decoder_states=np.zeros((H, 4)),
    )
    rows = export_trajectories(b, np.arange(E, dtype=float), np.ones(H))
    assert len(rows) == E + H
    hist = [r for r in rows if r["history"] != ""]
    fut = [r for r in rows if r["actual_future"] != ""]
    assert len(hist) == E and len(fut) == H
    assert hist[-1]["t"] == 0 and fut[0]["t"] == 1
    for r in fut:
        assert r["p10"] <= r["p50"] <= r["p90"]
