import copy

import numpy as np
import pytest

from omnitft import diffcore as dc
from omnitft import trainer as tr
from omnitft.diffcore import Tensor
from omnitft.ingest import generate_synthetic, synthetic_schema
from omnitft.model import Model, ModelConfig, WindowBatch, compute_scalers
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
from test_model import _two_target_schema


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
    g = np.array([0.3, 0.4])  # norm 0.5
    out, norm = clip_gradients([g.copy()], 1.0)
    assert norm == 0.5
    np.testing.assert_array_equal(out[0], g)


def test_clip_scales_to_unit_norm():
    grads = [np.array([4.0, 0.0]), np.zeros(2)]
    out, norm = clip_gradients(grads, 1.0)
    assert norm == 4.0
    new_norm = np.sqrt(sum(np.sum(g * g) for g in out))
    assert abs(new_norm - 1.0) <= 1e-9


def test_clip_preserves_direction():
    rng = np.random.default_rng(0)
    g = rng.normal(size=17)
    out, _ = clip_gradients([g * 5], 1.0)
    cos = np.dot(out[0], g) / (np.linalg.norm(out[0]) * np.linalg.norm(g))
    assert np.isclose(cos, 1.0)


def test_clip_norm_is_the_per_tensor_sum_and_scales_the_flat_vector():
    rng = np.random.default_rng(3)
    shapes = [(3, 5), (7,), (), (2, 2, 4), (31,)]
    sizes = [int(np.prod(s)) for s in shapes]
    flat = rng.normal(size=sum(sizes)) * 10.0
    before = flat.copy()
    offsets = np.cumsum([0] + sizes)
    views = [flat[i : i + n].reshape(s) for i, n, s in zip(offsets, sizes, shapes)]
    copies = [v.copy() for v in views]
    _, norm = clip_gradients(views, 1.0)
    assert norm == float(np.sqrt(sum(float(np.sum(g * g)) for g in copies)))
    np.testing.assert_array_equal(flat, before * (1.0 / norm))


def _zero_state(n):
    return AdamState(np.zeros(n), np.zeros(n))


def test_adam_zero_grad_keeps_params():
    theta = np.array([1.0, 2.0])
    state = _zero_state(2)
    adam_step(theta, np.zeros(2), state, lr=0.1)
    np.testing.assert_array_equal(theta, [1.0, 2.0])
    assert state.step == 1


def test_adam_first_step_magnitude_is_lr():
    for g in (1e-4, 1.0, 250.0):
        theta = np.array([0.0])
        adam_step(theta, np.array([g]), _zero_state(1), lr=0.01)
        # bias-corrected first step is lr * sign(g) up to the 1e-8 eps
        assert abs(abs(theta[0]) - 0.01) < 1e-5


def test_adam_deterministic():
    rng = np.random.default_rng(1)
    g = [rng.normal(size=4) for _ in range(5)]

    def run():
        theta = np.zeros(4)
        state = _zero_state(4)
        for gi in g:
            adam_step(theta, gi.copy(), state, lr=0.05)
        return theta

    np.testing.assert_array_equal(run(), run())


@pytest.mark.parametrize("n", [1, 1 << 15, (1 << 15) + 7, 3 * (1 << 15) + 1])
def test_adam_step_matches_the_per_tensor_formula(n):
    rng = np.random.default_rng(n)
    theta = rng.normal(size=n)
    state = _zero_state(n)
    # the reference: the textbook update on each tensor, with its own moments
    cuts = sorted({0, n, *rng.integers(0, n, size=3).tolist()})
    ref = [theta[a:b].copy() for a, b in zip(cuts, cuts[1:])]
    m = [np.zeros_like(p) for p in ref]
    v = [np.zeros_like(p) for p in ref]
    lr, b1, b2, eps = 1e-3, 0.9, 0.999, 1e-8
    for t in range(1, 6):
        grad = rng.normal(size=n) * 10.0 ** rng.integers(-6, 3, size=n)
        grad[rng.random(n) < 0.1] = 0.0
        adam_step(theta, grad.copy(), state, lr)
        for j, (a, b) in enumerate(zip(cuts, cuts[1:])):
            g = grad[a:b]
            m[j] *= b1
            m[j] += (1 - b1) * g
            v[j] *= b2
            v[j] += (1 - b2) * g * g
            m_hat = m[j] / (1 - b1**t)
            v_hat = v[j] / (1 - b2**t)
            ref[j] -= lr * m_hat / (np.sqrt(v_hat) + eps)
    assert state.step == 5
    np.testing.assert_array_equal(theta, np.concatenate(ref))
    np.testing.assert_array_equal(state.m, np.concatenate(m))
    np.testing.assert_array_equal(state.v, np.concatenate(v))


@pytest.mark.parametrize("width", [(16, 2, 2), (128, 6, 4)], ids=["desk", "reference"])
def test_a_training_step_reaches_every_parameter(width):
    # train updates every element of the flat vector; that matches skipping
    # tensors without a gradient only because none goes without one
    hidden, heads, blocks = width
    schema = synthetic_schema(encoder_len=12, horizon_len=4)
    series, _ = generate_synthetic(3, schema, shock_rate=0.3, seed=1,
                                   min_steps=40, max_steps=40)
    windows = [w for s in series for w in enumerate_windows(s, schema, delta=2.0)]
    model = Model(schema, ModelConfig(hidden=hidden, heads=heads, blocks=blocks,
                                      dropout=0.1), seed=0)
    batch = WindowBatch.from_windows(windows[::len(windows) // 8][:8])
    fp = model.forward(batch, rng=np.random.default_rng(0))
    loss, _ = total_objective(model, fp, batch, PenaltyWeights(),
                              build_group_assignment(schema).matrix)
    dc.backward(loss)
    missing = [k for k, p in model.params.items() if p.grad is None]
    assert missing == []


def test_train_keeps_parameters_as_views_of_one_vector(tiny_setup):
    schema, _, _, windows = tiny_setup
    model = Model(schema, ModelConfig(hidden=8, heads=2, blocks=1, dropout=0.0), seed=6)
    cfg = TrainConfig(lr=1e-2, batch=16, max_epochs=2, patience=2, seed=0)
    result = train(model, windows[:16], windows[16:20], cfg)
    params = list(model.params.values())
    theta = params[0].data.base
    assert theta.size == sum(p.size for p in params)
    assert all(p.data.base is theta for p in params)
    assert all(p.grad is None for p in params)  # gradients live only within a step
    assert 0.0 <= result.clip_frac <= 1.0


def _written_out_train(model, windows, cfg):
    """The trainer's epochs written out: each step gathers every parameter's
    gradient into a fresh flat vector, zeros where a parameter got none, and
    clips views of it; θ after each epoch, from epoch 0."""
    params = list(model.params.values())
    theta = np.concatenate([p.data.reshape(-1) for p in params])
    offsets = np.cumsum([0] + [p.size for p in params])
    for p, i in zip(params, offsets):
        p.data = theta[i : i + p.size].reshape(p.shape)
    gmat = build_group_assignment(model.schema).matrix
    rng = np.random.default_rng(cfg.seed)
    state = AdamState(np.zeros_like(theta), np.zeros_like(theta))
    thetas = [theta.copy()]
    for epoch in range(1, cfg.max_epochs + 1):
        for batch in tr._epoch_batches({"": windows}, epoch, cfg)[0]:
            fp = model.forward(batch, rng=rng)
            loss, _ = total_objective(model, fp, batch, cfg.weights, gmat)
            dc.backward(loss)
            grad = np.concatenate([np.zeros(p.size) if p.grad is None else p.grad.reshape(-1)
                                   for p in params])
            for p in params:
                p.grad = None
            clip_gradients([grad[i : i + p.size].reshape(p.shape)
                            for p, i in zip(params, offsets)], cfg.clip)
            adam_step(theta, grad, state, cfg.lr)
        thetas.append(theta.copy())
    return thetas


def test_no_gradient_is_held_through_a_forward_and_updates_match_a_written_out_loop(
        tiny_setup, monkeypatch):
    schema, _, _, windows = tiny_setup
    mcfg = ModelConfig(hidden=8, heads=2, blocks=2, dropout=0.3)
    cfg = TrainConfig(lr=1e-2, batch=8, max_epochs=3, patience=3, seed=4)
    model = Model(schema, mcfg, seed=7)
    forward, held = model.forward, []

    def spy(batch, rng=None):
        if rng is not None:  # a training forward, not the baseline or validation
            held.append(sum(p.grad is not None for p in model.params.values()))
        return forward(batch, rng=rng)

    monkeypatch.setattr(model, "forward", spy)
    result = train(model, windows[:24], windows[24:30], cfg)
    assert len(held) > 3 and held == [0] * len(held)
    assert result.best_epoch >= 1

    thetas = _written_out_train(Model(schema, mcfg, seed=7), windows[:24], cfg)
    theta = np.concatenate([p.data.reshape(-1) for p in model.params.values()])
    assert theta.tobytes() == thetas[result.best_epoch].tobytes()


def test_train_without_validation_windows_raises(tiny_setup):
    # early stopping would keep the epoch-0 snapshot: no val loss is ever finite
    schema, _, _, windows = tiny_setup
    model = Model(schema, ModelConfig(hidden=8, heads=2, blocks=1, dropout=0.0), seed=6)
    cfg = TrainConfig(lr=1e-2, batch=16, max_epochs=1, patience=1, seed=0)
    with pytest.raises(tr.TrainerError, match="no validation windows"):
        train(model, windows[:16], [], cfg)


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


# ---------------------------------------------------------------------------
# graph-free passes share forward calls without moving a bit


@pytest.mark.parametrize("width,batch,targets,merges", [
    ((16, 2, 2), 32, ("y",), True),
    ((16, 2, 2), 5, ("y",), False),  # 5 and 30 are not multiples of 4
    ((16, 2, 2), 30, ("y",), False),
    ((128, 6, 4), 64, ("y",), False),  # 64 windows is more than a reference call holds
    ((16, 2, 2), 32, ("y", "y2"), True),  # round-robin: each pool's short batch comes mid-epoch
], ids=["desk-32", "desk-5", "desk-30", "reference-64", "two-targets-32"])
def test_graph_free_passes_give_the_bits_of_one_forward_per_batch(width, batch, targets,
                                                                  merges, monkeypatch):
    hidden, heads, blocks = width
    schema = _two_target_schema()
    series, _ = generate_synthetic(8 if hidden == 16 else 2, schema, seed=7,
                                   min_steps=72, max_steps=72)
    pools = {t: [w for s in series for w in enumerate_windows(s, schema, 2.0, t)]
             for t in targets}
    if hidden == 128:
        pools = {t: w[:100] for t, w in pools.items()}
    model = Model(schema, ModelConfig(hidden=hidden, heads=heads, blocks=blocks), seed=3,
                  scalers=compute_scalers(series, schema))
    cfg = TrainConfig(batch=batch)
    batches = tr._epoch_batches(pools, -1, cfg)[0]
    windows = [w for ws in pools.values() for w in ws]
    gmat = build_group_assignment(schema).matrix

    def baseline(passes):
        with dc.no_grad():
            return np.array([total_objective(model, fp, b, cfg.weights, gmat)[1].as_row()
                             for b, fp in passes])

    want_rows = baseline((b, model.forward(b)) for b in batches)
    want_val = 0.0
    with dc.no_grad():
        for b in tr.batches_of(windows, batch):
            lq = quantile_loss(model.forward(b).quantiles, b.fut_target, model.config.quantiles)
            want_val += lq.item() * b.size
    want_val /= len(windows)

    forward, calls = model.forward, []

    def counting(b, rng=None):
        calls.append(b.size)
        return forward(b, rng=rng)

    monkeypatch.setattr(model, "forward", counting)
    got_rows = baseline(tr.graph_free_passes(model, batches))
    assert got_rows.tobytes() == want_rows.tobytes()
    assert (len(calls) < len(batches)) == merges
    assert max(calls) <= max(batch, 4096 // hidden)
    got_val = tr.evaluate_quantile_loss(model, windows, batch_size=batch)
    assert np.float64(got_val).tobytes() == np.float64(want_val).tobytes()
