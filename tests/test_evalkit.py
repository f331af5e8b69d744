import json
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
    assert json.loads(path.read_text()) == [r.to_dict()]


def test_report_sentinel_for_near_zero_targets():
    actual = np.zeros(10)
    r = compute_report("z", np.ones(10), np.ones(10), np.ones(10), actual)
    assert r.mape is None and r.rmbe is None
    assert "(>1)" in render_table([r])


# ---------------------------------------------------------------------------
# importance aggregation


def _causal_uniform(T):
    abar = np.tril(np.ones((T, T)))
    return abar / abar.sum(-1, keepdims=True)


def test_importance_single_feature_is_one():
    E, H = 3, 2
    abar = _causal_uniform(E + H)[None]
    table = aggregate_importance([(abar, np.ones((1, E, 1)))], ["only"], E)
    assert table.rows[0].score == 1.0
    assert table.rows[0].rank == 1


def test_importance_normalization_and_ranks():
    rng = np.random.default_rng(8)
    E, H, N = 4, 2, 3
    T = E + H
    w = rng.dirichlet(np.ones(N), size=(5, E))
    abar = np.tril(rng.uniform(size=(5, T, T))) + 1e-9
    abar = np.tril(abar) / np.tril(abar).sum(-1, keepdims=True)
    table = aggregate_importance([(abar, w)], ["a", "b", "c"], E)
    total = sum(r.score for r in table.rows)
    assert abs(total - 1.0) <= 1e-9
    assert sorted(r.rank for r in table.rows) == [1, 2, 3]
    ranked = sorted(table.rows, key=lambda r: r.rank)
    assert ranked[0].score >= ranked[1].score >= ranked[2].score


def test_importance_cv_across_runs():
    E, H = 3, 2
    abar = _causal_uniform(E + H)[None]
    runs = []
    for scale in (0.2, 0.4, 0.6):
        w = np.column_stack([np.full(E, scale), np.full(E, 1 - scale)])
        runs.append((abar, w[None]))
    table = aggregate_importance(runs, ["a", "b"], E)
    assert all(r.cv > 0 for r in table.rows)
    single = aggregate_importance(runs[:1], ["a", "b"], E)
    assert all(r.cv == 0 for r in single.rows)


def test_importance_without_decoder_mass_on_the_encoder_weighs_steps_uniformly():
    # decoder rows attend only to decoder steps, so every encoder step weighs 1/E
    E, H = 3, 2
    abar = np.eye(E + H)[None]
    w = np.array([[[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]])
    table = aggregate_importance([(abar, w)], ["a", "b"], E)
    assert [r.score for r in table.rows] == pytest.approx([2 / 3, 1 / 3], abs=1e-15)
    assert [r.rank for r in table.rows] == [1, 2]


def test_importance_needs_a_window_in_every_run():
    with pytest.raises(ek.EvalError):
        aggregate_importance([], ["a"], 3)
    with pytest.raises(ek.EvalError):
        aggregate_importance([(np.zeros((0, 5, 5)), np.zeros((0, 3, 1)))], ["a"], 3)


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
    names = [f.name for f in schema.past_features]
    table = aggregate_importance([(fp.abar.data, fp.w_hist.data)], names, schema.encoder_len)
    score = {r.feature: r.score for r in table.rows}
    assert score["flatline"] < 1.0 / len(names)


# ---------------------------------------------------------------------------
# trajectory export


def test_select_typical_window_nearest_to_mean():
    assert select_typical_window([1.0, 2.0, 9.0]) == 1  # mean 4 -> MAE 2


def test_export_trajectories_layout():
    E, H = 5, 3
    levels = (0.05, 0.1, 0.5, 0.9, 0.95)
    q = np.arange(H * 5, dtype=float).reshape(H, 5)  # sorted rows
    rows = export_trajectories(q, np.arange(E, dtype=float), np.ones(H), levels)
    assert len(rows) == E + H
    hist = [r for r in rows if r["history"] != ""]
    fut = [r for r in rows if r["actual_future"] != ""]
    assert len(hist) == E and len(fut) == H
    assert [r["t"] for r in rows] == list(range(-E + 1, H + 1))
    assert all(r["p50"] == "" for r in hist)
    for i, r in enumerate(fut):
        assert (r["p10"], r["p50"], r["p90"]) == (q[i, 1], q[i, 2], q[i, 3])


def test_eval_outputs_equal_the_per_window_reference(tmp_path):
    """eval's metrics, importance scores and typical-window trajectory, bit for
    bit, against the same quantities built one ForwardPass.bundle at a time."""
    import csv
    import io
    import json
    from dataclasses import asdict

    from omnitft import cli
    from omnitft import diffcore as dc
    from omnitft.model import Model, ModelConfig, WindowBatch, compute_scalers, save_checkpoint
    from omnitft.schema import load_schema

    data, out = tmp_path / "syn", tmp_path / "eval"
    assert cli.main(["synth", "--patients", "20", "--seed", "3", "--out", str(data),
                     "--encoder-len", "6", "--horizon-len", "3",
                     "--min-steps", "30", "--max-steps", "40"]) == 0
    schema = load_schema(data / "schema.json")
    pipeline = cli.PipelineConfig()
    splits, *_ = pipeline.ingest(data, schema)
    model = Model(schema, ModelConfig(hidden=8, heads=2, blocks=1, dropout=0.0), seed=4,
                  scalers=compute_scalers(splits["train"], schema), pipeline=asdict(pipeline))
    save_checkpoint(tmp_path / "ckpt.bin", model)
    assert cli.main(["eval", "--checkpoint", str(tmp_path / "ckpt.bin"), "--data", str(data),
                     "--out", str(out), "--split", "train"]) == 0

    windows = cli.build_window_pools({"train": splits["train"]}, schema, {})[0]["train"]["y"]
    assert len(windows) > 256  # more than one forward chunk
    bundles = []
    for i in range(0, len(windows), 256):
        with dc.no_grad():
            fp = model.forward(WindowBatch.from_windows(windows[i : i + 256]), rng=None)
        bundles += [fp.bundle(j) for j in range(fp.quantiles.shape[0])]
    E, lo, mid, hi = schema.encoder_len, 0, 1, 2

    tracks = [[x for b in bundles for x in b.quantiles_sorted[:, c]] for c in (lo, mid, hi)]
    actual = [x for w in windows for x in w.fut_target]
    report = compute_report("y", *tracks, actual).to_dict()
    assert json.loads((out / "metrics.json").read_text()) == [json.loads(json.dumps(report))]

    acc = np.zeros(len(schema.past_features))
    for b in bundles:
        mass = b.attention[E:, :E].sum(axis=0)
        mass = mass / mass.sum() if mass.sum() > 0 else np.full(E, 1.0 / E)
        acc += mass @ b.selection.historical
    acc /= len(bundles)
    want = acc / acc.sum()
    want = want / want.sum()  # the mean over one run, normalized again
    with open(out / "importance_y.csv", newline="") as fh:
        got = [float(r["score"]) for r in csv.DictReader(fh)]
    assert got == list(want)

    maes = [mae(b.quantiles_sorted[:, mid], w.fut_target) for b, w in zip(bundles, windows)]
    typical = select_typical_window(maes)
    w = windows[typical]
    rows = export_trajectories(bundles[typical].quantiles_sorted,
                               w.enc_past[:, [f.name for f in schema.past_features].index("y")],
                               w.fut_target)
    text = io.StringIO(newline="")
    writer = csv.DictWriter(text, fieldnames=["t", "history", "actual_future", "p10", "p50", "p90"])
    writer.writeheader()
    writer.writerows(rows)
    assert (out / "trajectory_y.csv").read_bytes() == text.getvalue().encode()
