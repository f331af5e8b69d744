import copy

import numpy as np
import pytest

from omnitft import trainer as tr
from omnitft.diffcore import Tensor
from omnitft.ingest import generate_synthetic, synthetic_schema
from omnitft.model import Model, ModelConfig, WindowBatch
from omnitft.penalties import PenaltyWeights
from omnitft.sampler import enumerate_windows
from omnitft.schema import build_group_assignment
from omnitft.trainer import (
    AdamState,
    AllMasked,
    TrainConfig,
    adam_step,
    clip_gradients,
    quantile_loss,
    total_objective,
    train,
)


def test_train_config_defaults_match_reference_setup():
    cfg = TrainConfig()
    assert cfg.lr == 1e-5
    assert cfg.batch == 64
    assert cfg.clip == 1.0
    assert cfg.max_epochs == 300
    assert cfg.patience == 10
    w = cfg.weights
    assert (w.lambda_embed, w.lambda_group, w.lambda_shock) == (1e-3, 1e-2, 1e-1)


def test_pinball_hand_values():
    pred = Tensor(np.array([[[0.0]]]))
    assert np.isclose(quantile_loss(pred, [[1.0]], (0.9,)).item(), 0.9)
    pred = Tensor(np.array([[[1.0]]]))
    assert np.isclose(quantile_loss(pred, [[0.0]], (0.9,)).item(), 0.1)


def test_pinball_zero_at_perfect_prediction():
    y = np.array([[2.0, -1.0, 0.5]])
    pred = Tensor(np.repeat(y[..., None], 3, axis=-1))
    assert quantile_loss(pred, y, (0.1, 0.5, 0.9)).item() == 0.0


def test_pinball_masking():
    pred = Tensor(np.zeros((1, 2, 1)))
    y = np.array([[1.0, 100.0]])
    full = quantile_loss(pred, y, (0.5,)).item()
    masked = quantile_loss(pred, y, (0.5,), mask=np.array([[1.0, 0.0]])).item()
    assert np.isclose(masked, 0.5)  # only the first step counts
    assert masked < full
    with pytest.raises(AllMasked):
        quantile_loss(pred, y, (0.5,), mask=np.zeros((1, 2)))


@pytest.fixture(scope="module")
def tiny_setup():
    schema = synthetic_schema(encoder_len=6, horizon_len=4)
    series, _ = generate_synthetic(4, schema, shock_rate=0.3, seed=2,
                                   min_steps=24, max_steps=30)
    windows = []
    for s in series:
        windows.extend(enumerate_windows(s, schema, delta=2.0))
    model = Model(schema, ModelConfig(hidden=8, heads=2, blocks=2, dropout=0.0), seed=0)
    batch = WindowBatch.from_windows(windows[:6])
    return schema, model, batch, windows


def test_zero_lambdas_reduce_to_quantile_loss(tiny_setup):
    schema, model, batch, _ = tiny_setup
    gmat = build_group_assignment(schema).matrix
    fp = model.forward(batch)
    w0 = PenaltyWeights(lambda_embed=0.0, lambda_group=0.0, lambda_shock=0.0)
    total, br = total_objective(model, fp, batch, w0, gmat)
    assert br.l_total == br.l_quantile
    lq = quantile_loss(model.forward(batch).quantiles, batch.fut_target,
                       model.config.quantiles)
    assert np.isclose(total.item(), lq.item())


def test_breakdown_identity(tiny_setup):
    schema, model, batch, _ = tiny_setup
    gmat = build_group_assignment(schema).matrix
    w = PenaltyWeights()
    fp = model.forward(batch)
    total, br = total_objective(model, fp, batch, w, gmat)
    recomposed = (
        br.l_quantile
        + w.lambda_embed * br.c_embed
        + w.lambda_group * br.c_group
        + w.lambda_shock * br.c_shock
    )
    assert abs(br.l_total - recomposed) <= 1e-12
    assert np.isfinite(br.as_row()).all()


def test_clip_small_norm_unchanged():
    grads = {"a": np.array([0.3, 0.4])}  # norm 0.5
    out, norm = clip_gradients(grads, 1.0)
    assert norm == 0.5
    np.testing.assert_array_equal(out["a"], grads["a"])


def test_clip_scales_to_unit_norm():
    grads = {"a": np.array([4.0, 0.0]), "b": np.zeros(2)}
    out, norm = clip_gradients(grads, 1.0)
    assert norm == 4.0
    new_norm = np.sqrt(sum(np.sum(g * g) for g in out.values()))
    assert abs(new_norm - 1.0) <= 1e-9


def test_clip_preserves_direction():
    rng = np.random.default_rng(0)
    g = rng.normal(size=17)
    out, _ = clip_gradients({"a": g * 5}, 1.0)
    cos = np.dot(out["a"], g) / (np.linalg.norm(out["a"]) * np.linalg.norm(g))
    assert np.isclose(cos, 1.0)


def test_adam_zero_grad_keeps_params():
    params = {"a": Tensor(np.array([1.0, 2.0]), requires_grad=True)}
    state = AdamState()
    adam_step(params, {"a": np.zeros(2)}, state, lr=0.1)
    np.testing.assert_array_equal(params["a"].data, [1.0, 2.0])
    assert state.step == 1


def test_adam_first_step_magnitude_is_lr():
    for g in (1e-4, 1.0, 250.0):
        params = {"a": Tensor(np.array([0.0]), requires_grad=True)}
        adam_step(params, {"a": np.array([g])}, AdamState(), lr=0.01)
        # bias-corrected first step is lr * sign(g) up to the 1e-8 eps
        assert abs(abs(params["a"].data[0]) - 0.01) < 1e-5


def test_adam_deterministic():
    rng = np.random.default_rng(1)
    g = [rng.normal(size=4) for _ in range(5)]

    def run():
        params = {"a": Tensor(np.zeros(4), requires_grad=True)}
        state = AdamState()
        for gi in g:
            adam_step(params, {"a": gi.copy()}, state, lr=0.05)
        return params["a"].data.copy()

    np.testing.assert_array_equal(run(), run())


def test_train_loss_decreases_and_history_complete(tiny_setup):
    schema, _, _, windows = tiny_setup
    model = Model(schema, ModelConfig(hidden=8, heads=2, blocks=1, dropout=0.0), seed=1)
    cfg = TrainConfig(lr=5e-3, batch=16, max_epochs=12, patience=12, seed=0)
    result = train(model, windows[:24], windows[24:30], cfg)
    assert not result.diverged
    assert result.history[0]["epoch"] == 0
    first = result.history[1]["l_quantile"]
    last = result.history[-1]["l_quantile"]
    assert last < first
    for row in result.history:
        assert set(row) == set(tr.HISTORY_COLUMNS)
        assert np.isfinite(row["l_total"])


def test_train_same_seed_identical_history(tiny_setup):
    schema, _, _, windows = tiny_setup

    def run():
        model = Model(schema, ModelConfig(hidden=8, heads=2, blocks=1, dropout=0.3), seed=4)
        cfg = TrainConfig(lr=1e-3, batch=16, max_epochs=4, patience=10, seed=9)
        return train(model, windows[:20], windows[20:26], cfg)

    a, b = run(), run()
    assert a.history == b.history


def test_early_stopping_on_worsening_validation(tiny_setup):
    schema, _, _, windows = tiny_setup
    train_w = copy.deepcopy(windows[:20])
    val_w = copy.deepcopy(windows[20:24])
    for w in train_w:
        w.fut_target = w.fut_target + 60.0  # push the train optimum away
    model = Model(schema, ModelConfig(hidden=8, heads=2, blocks=1, dropout=0.0), seed=2)
    cfg = TrainConfig(lr=5e-2, batch=20, max_epochs=100, patience=5, seed=0)
    result = train(model, train_w, val_w, cfg)
    assert result.stopped_epoch < 100  # patience tripped well before the cap
    assert result.stopped_epoch >= result.best_epoch + 5
    vals = [r["val_loss"] for r in result.history]
    assert vals[-1] > min(vals)


def test_best_checkpoint_restored(tiny_setup):
    schema, _, _, windows = tiny_setup
    model = Model(schema, ModelConfig(hidden=8, heads=2, blocks=1, dropout=0.0), seed=3)
    cfg = TrainConfig(lr=1e-2, batch=16, max_epochs=6, patience=6, seed=1)
    result = train(model, windows[:20], windows[20:26], cfg)
    val = tr.evaluate_quantile_loss(model, windows[20:26])
    assert np.isclose(val, result.best_val, rtol=1e-9)


def test_history_csv_round_trip(tmp_path, tiny_setup):
    schema, _, _, windows = tiny_setup
    model = Model(schema, ModelConfig(hidden=8, heads=2, blocks=1, dropout=0.0), seed=5)
    cfg = TrainConfig(lr=1e-3, batch=16, max_epochs=2, patience=5, seed=0)
    result = train(model, windows[:16], windows[16:20], cfg)
    path = tmp_path / "history.csv"
    tr.write_history_csv(path, result.history)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == ",".join(tr.HISTORY_COLUMNS)
    assert len(lines) == len(result.history) + 1


def test_multi_target_round_robin_training():
    from omnitft.schema import DatasetSchema, FeatureSpec, validate_schema

    schema = validate_schema(
        DatasetSchema(
            features=(
                FeatureSpec("hr", "target"),
                FeatureSpec("spo2", "target"),
                FeatureSpec("hour", "known_future"),
            ),
            grid_step_min=60.0, encoder_len=5, horizon_len=3,
        )
    )
    from omnitft.ingest import PatientSeries
    from omnitft.sampler import enumerate_windows

    rng = np.random.default_rng(0)
    pools = {"hr": [], "spo2": []}
    for p in range(4):
        n = 16
        values = np.zeros((n, 3))
        values[:, 0] = 80 + np.cumsum(rng.normal(size=n))
        values[:, 1] = 97 + rng.normal(size=n)
        values[:, 2] = np.sin(np.arange(n))
        s = PatientSeries(f"p{p}", values, np.ones_like(values, dtype=bool), imputed=True)
        for t in ("hr", "spo2"):
            pools[t].extend(enumerate_windows(s, schema, delta=1.0, target=t))
    model = Model(schema, ModelConfig(hidden=8, heads=2, blocks=1, dropout=0.0), seed=0)
    val = pools["hr"][:4] + pools["spo2"][:4]
    cfg = TrainConfig(lr=1e-3, batch=8, max_epochs=3, patience=5, seed=0)
    result = train(model, pools, val, cfg)
    assert len(result.history) == 4
    # target-id embeddings differentiate the two forecasting tasks
    table = model.params["embed/target_id/table"].data
    assert table.shape[0] == 2
    assert not np.allclose(table[0], table[1])


def test_train_config_json_round_trip():
    cfg = TrainConfig(lr=3e-4, batch=8, weights=PenaltyWeights(lambda_shock=0.0))
    doc = tr.train_config_to_dict(cfg)
    back = tr.train_config_from_dict(doc)
    assert back == cfg
