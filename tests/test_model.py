import json
import struct
import tracemalloc

import numpy as np
import pytest

from omnitft import diffcore as dc
from omnitft import model as mod
from omnitft.diffcore import Tensor
from omnitft.ingest import generate_synthetic, synthetic_schema
from omnitft.model import Model, ModelConfig, WindowBatch, load_checkpoint, save_checkpoint
from omnitft.penalties import PenaltyWeights
from omnitft.sampler import enumerate_windows
from omnitft.schema import DatasetSchema, FeatureSpec, build_group_assignment, validate_schema
from omnitft.trainer import graph_free_passes, total_objective
from test_acceptance import tiny_model_and_batch

E, H = 6, 4
T = E + H


@pytest.fixture(scope="module")
def schema():
    return synthetic_schema(encoder_len=E, horizon_len=H)


@pytest.fixture(scope="module")
def windows(schema):
    series, _ = generate_synthetic(4, schema, shock_rate=0.3, seed=1,
                                   min_steps=24, max_steps=30)
    wins = []
    for s in series:
        wins.extend(enumerate_windows(s, schema, delta=2.0))
    return wins


@pytest.fixture(scope="module")
def tiny_model(schema):
    cfg = ModelConfig(hidden=8, heads=2, blocks=2, dropout=0.0, lstm_layers=2)
    return Model(schema, cfg, seed=0)


@pytest.fixture(scope="module")
def batch(windows):
    return WindowBatch.from_windows(windows[:5])


def test_config_validation():
    with pytest.raises(mod.ModelError):
        ModelConfig(quantiles=(0.5, 0.1, 0.9))
    with pytest.raises(mod.ModelError):
        ModelConfig(quantiles=(0.0, 0.5, 0.9))
    with pytest.raises(mod.ModelError):
        ModelConfig(dropout=1.0)
    with pytest.raises(mod.ModelError):
        ModelConfig(hidden=4, heads=8)
    cfg = ModelConfig()
    assert (cfg.hidden, cfg.heads, cfg.blocks, cfg.dropout) == (128, 6, 4, 0.3)
    assert cfg.lstm_layers == 2 and cfg.retro_window == 3


def test_embed_continuous_zero_affine(tiny_model, schema):
    m = tiny_model
    m.params["embed/y/w"].data[:] = 0.0
    m.params["embed/y/b"].data[:] = 0.0
    e = m._embed_feature("y", schema.feature("y"), np.array([[0.7, 1.3]]))
    np.testing.assert_array_equal(e.data, 0.0)


def test_embed_categorical_is_row_lookup(tiny_model, schema):
    spec = schema.feature("site")
    table = tiny_model.params["embed/static/site/table"].data
    e = tiny_model._embed_feature("static/site", spec, np.array([3.0, 0.0]))
    np.testing.assert_array_equal(e.data[0], table[3])
    np.testing.assert_array_equal(e.data[1], table[0])


def test_embed_out_of_vocab(tiny_model, schema):
    with pytest.raises(mod.CategoryOutOfVocab):
        tiny_model._embed_feature("static/site", schema.feature("site"), np.array([99.0]))


def test_embed_inputs_shape(tiny_model, schema, batch):
    embs = tiny_model.embed_inputs(batch.enc_past, schema.past_features)
    assert len(embs) == schema.n_past
    assert all(e.shape == (batch.size, E, tiny_model.config.hidden) for e in embs)


def test_variable_select_simplex(tiny_model, schema, batch):
    emb = tiny_model.embed_inputs(batch.enc_past, schema.past_features)
    w, fused = tiny_model.variable_select("past", emb)
    np.testing.assert_allclose(w.data.sum(-1), 1.0, atol=1e-9)
    assert np.all(w.data >= 0)
    assert fused.shape == (batch.size, E, tiny_model.config.hidden)


def test_variable_select_single_variable_weight_is_one(schema):
    from omnitft.schema import DatasetSchema, FeatureSpec, validate_schema

    s1 = validate_schema(
        DatasetSchema(
            features=(FeatureSpec("y", "target"),),
            grid_step_min=60.0, encoder_len=3, horizon_len=2,
        )
    )
    m = Model(s1, ModelConfig(hidden=8, heads=2, blocks=1, dropout=0.0), seed=0)
    emb = m.embed_inputs(np.ones((2, 3, 1)), s1.past_features)
    w, _ = m.variable_select("past", emb)
    np.testing.assert_array_equal(w.data, 1.0)


def test_variable_select_is_linear_mixture(tiny_model, schema, batch):
    m = tiny_model
    emb = m.embed_inputs(batch.enc_past, schema.past_features)
    w, fused = m.variable_select("past", emb)
    # recompute the mixture by hand from the exposed weights and the same
    # per-variable transforms; zero-weight variables contribute nothing
    manual = np.zeros_like(fused.data)
    for j, ej in enumerate(emb):
        vj = m.grn(f"vsn/past/var{j}", ej)
        manual += w.data[..., j : j + 1] * vj.data
    np.testing.assert_allclose(manual, fused.data, atol=1e-12)


def _multiplied_out(e):
    """An embedding formed from primitives: table[x], or x * w + b."""
    if e.bias is None:
        return e.weight[e.x]
    return dc.mul(Tensor(e.x[..., None]), e.weight) + e.bias


def _rel(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


def _stacked_select(m, side, embs, ctx=None, rng=None):
    """Variable selection through one stacked (..., N, d) tensor: each
    embedding multiplied out, reshaped to (..., 1, d) and concatenated, Xi a
    reshape of the stack, and every xi^(j) sliced back out of it, so every
    first layer is a GEMM over Xi or xi^(j)."""
    embs = [_multiplied_out(e) for e in embs]
    emb = dc.concat([dc.reshape(e, e.shape[:-1] + (1, e.shape[-1])) for e in embs], axis=-2)
    n = emb.shape[-2]
    flat = dc.reshape(emb, emb.shape[:-2] + (n * emb.shape[-1],))
    weights = dc.softmax(m.grn(f"vsn/{side}/sel", flat, ctx=ctx, rng=rng), axis=-1)
    processed = []
    for j in range(n):
        vj = m.grn(f"vsn/{side}/var{j}", emb[..., j, :], rng=rng)
        processed.append(dc.reshape(vj, vj.shape[:-1] + (1, vj.shape[-1])))
    stacked = dc.concat(processed, axis=-2)
    fused = dc.reduce_sum(dc.mul(stacked, dc.reshape(weights, weights.shape + (1,))), axis=-2)
    return weights, fused


@pytest.mark.parametrize("hidden,heads", [(16, 2), (128, 6)], ids=["desk", "reference"])
def test_variable_select_matches_stack_then_slice(schema, batch, hidden, heads):
    # all three selection networks in one objective, so the embeddings that the
    # past and future sides share collect gradient from both, as in forward;
    # the folded first layers sum in another order than the GEMMs over Xi
    # and xi^(j), so values and gradients agree to rounding
    m = Model(schema, ModelConfig(hidden=hidden, heads=heads, blocks=1, dropout=0.3), seed=4)
    ctx = np.random.default_rng(6).normal(size=(batch.size, hidden))
    sides = [("static", batch.statics, m.static_specs, "static/", False),
             ("past", batch.enc_past, m.past_specs, "", True),
             ("future", batch.fut_known, m.future_specs, "", True)]
    results = []
    for select in (m.variable_select, lambda *a, **kw: _stacked_select(m, *a, **kw)):
        for p in m.params.values():
            p.grad = None
        c = Tensor(ctx.copy(), requires_grad=True)
        drop = np.random.default_rng(9)
        outs, loss = [], 0.0
        for i, (side, values, specs, prefix, with_ctx) in enumerate(sides):
            embs = m.embed_inputs(values, specs, prefix)
            if side == "static":
                embs.append(dc.Embedding(batch.target_idx, m.params["embed/target_id/table"]))
            w, fused = select(side, embs, ctx=c if with_ctx else None, rng=drop)
            probe = np.random.default_rng(i)
            for t in (w, fused):
                loss = loss + dc.reduce_sum(dc.mul(t, Tensor(probe.normal(size=t.shape))))
            outs += [w.data, fused.data]
        dc.backward(loss)
        grads = {k: p.grad.copy() for k, p in m.params.items()
                 if k.startswith(("vsn/", "embed/"))}
        results.append((outs, grads, c.grad))
    (outs, grads, gctx), (ref_outs, ref_grads, ref_gctx) = results
    for got, want in zip(outs, ref_outs, strict=True):
        assert _rel(got, want) < 1e-12
    assert grads.keys() == ref_grads.keys()
    for name in grads:
        assert _rel(grads[name], ref_grads[name]) < 1e-12, name
    assert _rel(gctx, ref_gctx) < 1e-12


def test_grn_gate_closed_passes_residual(tiny_model):
    m = tiny_model
    x = Tensor(np.random.default_rng(0).normal(size=(3, 8)))
    m.params["enrich/gate/b"].data[:] = -60.0  # saturate the gate shut
    out = m.grn("enrich", x)
    centered = x.data - x.data.mean(axis=-1, keepdims=True)
    normed = centered / np.sqrt((centered**2).mean(axis=-1, keepdims=True) + 1e-5)
    expect = normed * m.params["enrich/ln_g"].data + m.params["enrich/ln_b"].data
    np.testing.assert_allclose(out.data, expect, atol=1e-12)
    m.params["enrich/gate/b"].data[:] = 0.0


def test_grn_output_shape_and_stability(tiny_model):
    x = Tensor(np.full((2, 8), 1e3))
    out = tiny_model.grn("enrich", x)
    assert out.shape == (2, 8)
    assert np.isfinite(out.data).all()


def test_encode_decode_zero_params_zero_output(schema):
    m = Model(schema, ModelConfig(hidden=8, heads=2, blocks=1, dropout=0.0), seed=0)
    for p in m.params.values():
        p.data[:] = 0.0
    zero = Tensor(np.zeros((2, E, 8)))
    zero_f = Tensor(np.zeros((2, H, 8)))
    ctx = Tensor(np.zeros((2, 8)))
    seq, enc, dec = m.encode_decode(zero, zero_f, ctx, ctx)
    np.testing.assert_array_equal(seq.data, 0.0)
    assert seq.shape == (2, T, 8)


def test_encoder_causal_wrt_future_inputs(tiny_model):
    m = tiny_model
    rng = np.random.default_rng(1)
    past = rng.normal(size=(1, E, 8))
    fut = rng.normal(size=(1, H, 8))
    ctx = rng.normal(size=(1, 8))
    _, enc1, _ = m.encode_decode(Tensor(past), Tensor(fut), Tensor(ctx), Tensor(ctx))
    fut2 = fut + rng.normal(size=fut.shape)
    _, enc2, _ = m.encode_decode(Tensor(past), Tensor(fut2), Tensor(ctx), Tensor(ctx))
    np.testing.assert_array_equal(enc1.data, enc2.data)


def _returns_of(monkeypatch, name):
    """What `Model.<name>` returns from here on, one entry per call."""
    returned, method = [], getattr(Model, name)

    def recording(self, *args, **kwargs):
        returned.append(method(self, *args, **kwargs))
        return returned[-1]

    monkeypatch.setattr(Model, name, recording)
    return returned


def test_attention_invariants(tiny_model, batch, monkeypatch):
    attended = _returns_of(monkeypatch, "causal_attention")
    fp = tiny_model.forward(batch)
    abar = fp.abar.data
    heads = attended[0][1].data
    assert heads.shape == (batch.size, tiny_model.config.heads, T, T)
    triu = np.triu_indices(T, k=1)
    assert np.all(abar[:, triu[0], triu[1]] == 0.0)
    np.testing.assert_allclose(abar.sum(-1), 1.0, atol=1e-9)
    assert np.all(heads[..., triu[0], triu[1]] == 0.0)
    np.testing.assert_allclose(heads.sum(-1), 1.0, atol=1e-9)


def test_single_head_average_is_identity(schema, batch, monkeypatch):
    m = Model(schema, ModelConfig(hidden=8, heads=1, blocks=2, dropout=0.0), seed=0)
    attended = _returns_of(monkeypatch, "causal_attention")
    fp = m.forward(batch)
    np.testing.assert_array_equal(fp.abar.data, attended[0][1].data[:, 0])


def _per_head_attention(m, seq, rng=None):
    """Interpretable attention head by head, from primitives: each head's own
    q, k, scores, mask, softmax and A_h @ V, the contexts averaged, every
    block over all rows; the final features are cut to rows E-1.. at the end."""
    cfg = m.config
    T = seq.shape[1]
    mask = np.triu(np.ones((T, T), dtype=bool), k=1)
    x = seq
    for k in range(cfg.blocks):
        value = dc.matmul(x, m.params[f"attn/b{k}/v/w"])
        heads, ctx_sum = [], None
        for h in range(cfg.heads):
            q = dc.matmul(x, m.params[f"attn/b{k}/q{h}/w"])
            key = dc.matmul(x, m.params[f"attn/b{k}/k{h}/w"])
            scores = dc.mul(dc.matmul(q, dc.transpose(key, (0, 2, 1))),
                            1.0 / np.sqrt(cfg.head_dim))
            attn = dc.softmax(dc.masked_fill(scores, mask, -np.inf), axis=-1)
            heads.append(attn)
            ctx = dc.matmul(attn, value)
            ctx_sum = ctx if ctx_sum is None else ctx_sum + ctx
        out = m._dense(f"attn/b{k}/out", dc.mul(ctx_sum, 1.0 / cfg.heads))
        keep = m._keep(out.shape, rng)
        out = out if keep is None else dc.dropout(out, *keep)
        x = m._gate_norm(f"attn/b{k}", out, x)
        x = m.grn(f"attn/b{k}/grn", x, rng=rng)
    abar = heads[0]
    for a in heads[1:]:
        abar = abar + a
    return x[:, m.schema.encoder_len - 1:], heads, dc.mul(abar, 1.0 / cfg.heads)


@pytest.mark.parametrize("hidden,heads", [(8, 1), (8, 2), (8, 3)])
def test_causal_attention_matches_per_head_reference(schema, hidden, heads):
    # 8 wide with 3 heads: head_dim 2, so the heads span 6 of the 8 columns
    m = Model(schema, ModelConfig(hidden=hidden, heads=heads, blocks=2, dropout=0.2), seed=3)
    rng = np.random.default_rng(5)
    seq0 = rng.normal(size=(3, T, hidden))
    probes = [rng.normal(size=s) for s in ((3, H + 1, hidden), (3, heads, T, T), (3, T, T))]
    results = []
    for attend in (m.causal_attention, lambda s, rng: _per_head_attention(m, s, rng)):
        for p in m.params.values():
            p.grad = None
        seq = Tensor(seq0.copy(), requires_grad=True)
        feats, surfaces, abar = attend(seq, rng=np.random.default_rng(9))
        if isinstance(surfaces, list):
            surfaces = dc.concat([dc.reshape(a, (3, 1, T, T)) for a in surfaces], axis=1)
        loss = sum(dc.reduce_sum(dc.mul(t, Tensor(w)))
                   for t, w in zip((feats, surfaces, abar), probes))
        dc.backward(loss)
        grads = {k: p.grad.copy() for k, p in m.params.items() if k.startswith("attn/")}
        results.append(([feats.data, surfaces.data, abar.data], grads, seq.grad))
    (outs, grads, gseq), (ref_outs, ref_grads, ref_gseq) = results
    assert outs[1].shape == (3, heads, T, T)
    for got, want in zip(outs, ref_outs):
        assert _rel(got, want) < 1e-12
    assert grads.keys() == ref_grads.keys()
    for name in grads:
        assert _rel(grads[name], ref_grads[name]) < 1e-12, name
    assert _rel(gseq, ref_gseq) < 1e-12


def test_quantile_head_bias_only(schema, batch):
    m = Model(schema, ModelConfig(hidden=8, heads=2, blocks=1, dropout=0.0), seed=0)
    for p in m.params.values():
        p.data[:] = 0.0
    m.params["head/b"].data[:] = [1.0, 2.0, 3.0]
    fp = m.forward(batch)
    assert fp.quantiles.shape == (batch.size, H, 3)
    expect = np.broadcast_to([1.0, 2.0, 3.0], fp.quantiles.shape)
    np.testing.assert_allclose(fp.quantiles.data, expect)


def test_sorted_view_is_monotone(tiny_model, batch):
    fp = tiny_model.forward(batch)
    b = fp.bundle(0)
    q = b.quantiles_sorted
    assert np.all(q[:, 0] <= q[:, 1]) and np.all(q[:, 1] <= q[:, 2])


def test_forward_deterministic_given_dropout_seed(schema, batch):
    m = Model(schema, ModelConfig(hidden=8, heads=2, blocks=2, dropout=0.3), seed=0)
    a = m.forward(batch, rng=np.random.default_rng(42))
    b = m.forward(batch, rng=np.random.default_rng(42))
    np.testing.assert_array_equal(a.quantiles.data, b.quantiles.data)
    np.testing.assert_array_equal(a.abar.data, b.abar.data)
    c = m.forward(batch, rng=np.random.default_rng(43))
    assert not np.array_equal(a.quantiles.data, c.quantiles.data)


def test_forward_shapes_contract(tiny_model, schema, batch):
    fp = tiny_model.forward(batch)
    d = tiny_model.config.hidden
    B = batch.size
    assert fp.quantiles.shape == (B, H, 3)
    assert fp.abar.shape == (B, T, T)
    assert fp.w_hist.shape == (B, E, schema.n_past)
    assert fp.w_fut.shape == (B, H, schema.n_future)
    assert fp.decoder_states.shape == (B, H, d)
    assert fp.encoder_anchor.shape == (B, d)
    assert np.isfinite(fp.decoder_states.data).all()


def test_forward_causality_in_attention_rows(tiny_model, schema, batch, monkeypatch):
    m = tiny_model
    encoded = _returns_of(monkeypatch, "encode_decode")
    fp1 = m.forward(batch)
    perturbed = WindowBatch(
        enc_past=batch.enc_past.copy(),
        fut_known=batch.fut_known.copy(),
        statics=batch.statics,
        target_idx=batch.target_idx,
        fut_target=batch.fut_target,
    )
    s = 4
    perturbed.enc_past[:, s:, :] += 1.0  # change inputs from step s onward
    fp2 = m.forward(perturbed)
    np.testing.assert_allclose(
        fp1.abar.data[:, :s, :], fp2.abar.data[:, :s, :], atol=1e-12
    )
    (_, enc1, _), (_, enc2, _) = encoded
    np.testing.assert_allclose(enc1.data[:, :s, :], enc2.data[:, :s, :], atol=1e-12)


def test_category_counts(tiny_model, schema, batch):
    counts = tiny_model.batch_category_counts(batch)
    site = counts["embed/static/site/table"]
    assert site.sum() == batch.size
    assert site.shape == (schema.feature("site").vocab_size,)
    tid = counts["embed/target_id/table"]
    assert tid.sum() == batch.size and tid[0] == batch.size


def test_category_counts_sum_encoder_and_decoder_sides():
    # a categorical known-future feature is also a past feature, with one table
    schema = validate_schema(DatasetSchema(
        features=(FeatureSpec("y", "target"),
                  FeatureSpec("shift", "known_future", dtype="categorical", vocab_size=3)),
        grid_step_min=60.0, encoder_len=4, horizon_len=2,
    ))
    m = Model(schema, ModelConfig(hidden=4, heads=1, blocks=1, dropout=0.0), seed=0)
    # every encoder step in category 0, every decoder step in category 2
    batch = WindowBatch(enc_past=np.zeros((2, 4, schema.n_past)),
                        fut_known=np.full((2, 2, 1), 2.0),
                        statics=np.zeros((2, 0)), target_idx=np.zeros(2, dtype=int),
                        fut_target=np.zeros((2, 2)))
    counts = m.batch_category_counts(batch)
    np.testing.assert_array_equal(counts["embed/shift/table"], [8, 0, 4])


def test_quantile_gradient_passes_grad_check(schema, windows):
    from _gradtools import check_param, offkink_targets
    from omnitft.trainer import quantile_loss

    m = Model(schema, ModelConfig(hidden=8, heads=2, blocks=2, dropout=0.0), seed=7)
    batch = WindowBatch.from_windows(windows[:2])
    rng = np.random.default_rng(0)
    batch.fut_target = offkink_targets(m, batch, rng)

    def loss_fn():
        fp = m.forward(batch)
        return quantile_loss(fp.quantiles, batch.fut_target, m.config.quantiles)

    for name in ("head/w", "attn/b1/q0/w", "lstm/enc/l0/x/w", "vsn/past/sel/fc1/w"):
        err = check_param(m, name, loss_fn, rng)
        assert err < 1e-4, name


@pytest.mark.parametrize("case", ["static-side", "single-variable"])
def test_folded_selection_layers_pass_grad_check(schema, windows, case):
    # the embeddings reach the selection networks' first layers only through
    # the folded products, so their gradients and the first layers' come from
    # the fold's VJP: the static side's site and target-id tables and age,
    # and a past side of one variable, whose selection weight is constant
    from _gradtools import check_param, offkink_targets
    from omnitft.trainer import quantile_loss

    if case == "single-variable":
        schema = validate_schema(DatasetSchema(features=(FeatureSpec("y", "target"),),
                                               grid_step_min=60.0, encoder_len=E, horizon_len=H))
        values = np.random.default_rng(2).normal(size=(3, T))
        batch = WindowBatch(enc_past=values[:, :E, None], fut_known=np.zeros((3, H, 0)),
                            statics=np.zeros((3, 0)), target_idx=np.zeros(3, dtype=int),
                            fut_target=values[:, E:])
        names = ("embed/y/w", "embed/y/b", "vsn/past/var0/fc1/w", "vsn/static/var0/fc1/w",
                 "embed/target_id/table")
    else:
        batch = WindowBatch.from_windows(windows[:3])
        names = ("embed/target_id/table", "embed/static/site/table", "embed/static/age/w",
                 "embed/static/age/b", "vsn/static/sel/fc1/w", "vsn/static/sel/skip/w",
                 "vsn/static/var1/fc1/w", "vsn/past/sel/skip/w", "embed/tod_sin/w")
    m = Model(schema, ModelConfig(hidden=8, heads=2, blocks=1, dropout=0.0), seed=5)
    rng = np.random.default_rng(1)
    batch.fut_target = offkink_targets(m, batch, rng)

    def loss_fn():
        fp = m.forward(batch)
        return quantile_loss(fp.quantiles, batch.fut_target, m.config.quantiles)

    for name in names:
        assert check_param(m, name, loss_fn, rng, n_coords=8) < 1e-4, name


def test_checkpoint_round_trip(tmp_path, tiny_model, batch):
    p1 = tmp_path / "a.bin"
    save_checkpoint(p1, tiny_model)
    m2 = load_checkpoint(p1)
    assert m2.config == tiny_model.config
    for k, v in tiny_model.params.items():
        np.testing.assert_array_equal(v.data, m2.params[k].data)
    p2 = tmp_path / "b.bin"
    save_checkpoint(p2, m2)
    assert p1.read_bytes() == p2.read_bytes()
    fp1, fp2 = tiny_model.forward(batch), m2.forward(batch)
    np.testing.assert_array_equal(fp1.quantiles.data, fp2.quantiles.data)


def test_checkpoint_with_retired_raw_decoder_key_loads(tmp_path, tiny_model, batch):
    # checkpoints written before the switch was retired carry it in their config
    plain = tmp_path / "plain.bin"
    save_checkpoint(plain, tiny_model)
    raw = plain.read_bytes()
    (header_len,) = struct.unpack("<I", raw[12:16])
    header = json.loads(raw[16 : 16 + header_len])
    header["config"]["use_raw_decoder_state"] = True
    old = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    legacy = tmp_path / "legacy.bin"
    legacy.write_bytes(raw[:12] + struct.pack("<I", len(old)) + old + raw[16 + header_len:])

    a, b = load_checkpoint(plain), load_checkpoint(legacy)
    assert a.config == b.config
    np.testing.assert_array_equal(a.forward(batch).quantiles.data,
                                  b.forward(batch).quantiles.data)


def test_checkpoint_bad_magic(tmp_path):
    p = tmp_path / "bad.bin"
    p.write_bytes(b"NOTACKPT" + bytes(16))
    with pytest.raises(mod.ModelError, match="not a checkpoint"):
        load_checkpoint(p)


def test_checkpoint_bad_version(tmp_path, tiny_model):
    p = tmp_path / "v.bin"
    save_checkpoint(p, tiny_model)
    raw = bytearray(p.read_bytes())
    raw[8:12] = (99).to_bytes(4, "little")
    p.write_bytes(bytes(raw))
    with pytest.raises(mod.ModelError, match="version 99"):
        load_checkpoint(p)


@pytest.mark.parametrize("cut", [10, 40, -1], ids=["version", "header", "tensor"])
def test_checkpoint_truncated(tmp_path, tiny_model, cut):
    p = tmp_path / "t.bin"
    save_checkpoint(p, tiny_model)
    p.write_bytes(p.read_bytes()[:cut])
    with pytest.raises(mod.ModelError, match="truncated"):
        load_checkpoint(p)


def test_directional_derivative_over_all_parameters():
    # <grad L, v> against a central difference of the whole objective along one
    # random direction v over every parameter at once; each seed keeps the
    # better of two step sizes, since roundoff and truncation bite differently
    weights = PenaltyWeights(lambda_embed=1.0, lambda_group=1.0, lambda_shock=1.0)
    errors = {}
    for seed in range(20):
        schema, m, batch, rng = tiny_model_and_batch(seed)
        gmat = build_group_assignment(schema).matrix

        def loss():
            return total_objective(m, m.forward(batch), batch, weights, gmat)[0]

        dc.backward(loss())
        base = {k: p.data.copy() for k, p in m.params.items()}
        v = {k: rng.normal(size=p.shape) for k, p in m.params.items()}
        analytic = sum(float(np.sum(p.grad * v[k])) for k, p in m.params.items())

        def along(t):
            for k, p in m.params.items():
                p.data = base[k] + t * v[k]
            with dc.no_grad():
                return float(loss().data)

        best = np.inf
        for eps in (1e-5, 1e-4):
            numeric = (along(eps) - along(-eps)) / (2.0 * eps)
            best = min(best, abs(analytic - numeric) / abs(numeric))
        errors[seed] = best
    assert max(errors.values()) < 1e-5, errors


def _train_step_inputs(hidden, heads, blocks, dropout, batch_size):
    schema = synthetic_schema()
    series, _ = generate_synthetic(4, schema, seed=0, min_steps=48, max_steps=48)
    wins = [w for s in series for w in enumerate_windows(s, schema, delta=2.0)]
    m = Model(schema, ModelConfig(hidden=hidden, heads=heads, blocks=blocks,
                                  dropout=dropout), seed=0)
    batch = WindowBatch.from_windows(wins[:batch_size])
    assert batch.size == batch_size
    return m, batch, build_group_assignment(schema).matrix


def _forward_and_objective(m, batch, group_matrix):
    fp = m.forward(batch, rng=np.random.default_rng(0))
    loss, _ = total_objective(m, fp, batch, PenaltyWeights(), group_matrix)
    return fp, loss


def _train_step_nodes(*config):
    _, loss = _forward_and_objective(*_train_step_inputs(*config))
    return len(dc.Tape.from_root(loss).nodes)


def _train_step_retained_bytes(*config):
    """numpy bytes alive once a step's forward and objective have run, the
    caller holding the forward pass and the loss: what backward starts with."""
    step = _train_step_inputs(*config)
    tracemalloc.start()
    try:
        fp, loss = _forward_and_objective(*step)
        held = tracemalloc.take_snapshot().filter_traces(
            [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)])
    finally:
        tracemalloc.stop()
    return sum(t.size for t in held.traces)


def test_desk_train_step_tape_stays_small():
    # each GRN and each gated add-and-norm is one node; composed from
    # primitives, this step built 1055; head by head, attention made it 535;
    # stacking the embeddings and slicing them back out in selection, 520;
    # attention's output dropout as a product with a constant leaf, 490; as a
    # node of its own, and the final block over all T rows, 488; with the
    # embeddings as nodes of their own, 487
    assert _train_step_nodes(16, 2, 2, 0.1, 32) <= 458


def test_reference_train_step_tape_stays_small():
    # a block's heads share one batched score product and one A~ @ V product;
    # head by head (8 nodes per head), this step built 833; the selection
    # networks' stack-then-slice of the embeddings added 30 more, for 642;
    # attention's output dropout as a product with a constant leaf, 612; as a
    # node of its own, and the final block over all T rows, 608; with the
    # embeddings as nodes of their own, 605
    assert _train_step_nodes(128, 6, 4, 0.3, 64) <= 576


# A value that no VJP reads (a matmul result before `+ b`, the LSTM input
# projections, the score copies of attention, ...) dies when the model code
# drops it; while graph nodes held their values, it lived until backward ended.


def test_desk_train_step_retains_only_what_backward_reads():
    # 11.07 MB while graph nodes held their values; 7.32 MB with float64
    # dropout masks; 6.75 MB with boolean ones; 6.20 MB with the final
    # attention block on the rows forward reads; 5.54 MB with the embeddings
    # folded into the selection networks and W_O into attention's values
    assert _train_step_retained_bytes(16, 2, 2, 0.1, 32) <= 5_820_000


def test_reference_train_step_retains_only_what_backward_reads():
    # 209.1 MB while graph nodes held their values; 147.8 MB with float64
    # dropout masks; 135.2 MB with boolean ones; 126.5 MB with the final
    # attention block on the rows forward reads; 114.3 MB with the embeddings
    # folded into the selection networks and W_O into attention's values
    assert _train_step_retained_bytes(128, 6, 4, 0.3, 64) <= 120_000_000


def test_desk_graph_free_forward_peaks_low():
    # a pass with no graph drops each value once read: 6.55 MB above its inputs
    # (bound: that plus 5%); 12.6 MB while attention held its scores to the end
    # of a block, softmax took three buffers and forward held the selection
    # outputs through attention
    schema = synthetic_schema()
    _, wins = _cohort_windows(schema, 8)
    m = Model(schema, ModelConfig(hidden=16, heads=2, blocks=2), seed=0)
    batch = WindowBatch.from_windows(wins[:256])
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        with dc.no_grad():
            fp = m.forward(batch)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert fp.quantiles.shape[0] == 256
    assert peak <= 6_880_000


def test_reference_graph_free_pass_peaks_low():
    # the helper runs a 256-window batch in calls of 32 and gathers its rows:
    # 8.6 MB above its inputs (bound: that plus 5%); 15.5 MB when a forward also
    # returned the per-head surfaces and the encoder outputs, and one call of
    # 256 windows peaked at 50.8 MB
    schema = synthetic_schema()
    _, wins = _cohort_windows(schema, 8)
    m = Model(schema, ModelConfig(hidden=128, heads=6, blocks=4), seed=0)
    batch = WindowBatch.from_windows(wins[:256])
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        ((_, fp),) = graph_free_passes(m, [batch])
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert fp.quantiles.shape[0] == 256
    assert peak <= 9_040_000


# ---------------------------------------------------------------------------
# the final attention block runs on the rows forward reads


def _full_row_attention(m, seq, rng=None):
    """`Model.causal_attention` with its final block run over all T rows, the
    features cut to rows E-1.. only at the end."""
    cfg = m.config
    B, T, _ = seq.shape
    future = np.triu(np.ones((T, T), dtype=bool), k=1)
    x = seq
    for k in range(cfg.blocks):
        w_q = dc.concat([m.params[f"attn/b{k}/q{h}/w"] for h in range(cfg.heads)], axis=1)
        w_k = dc.concat([m.params[f"attn/b{k}/k{h}/w"] for h in range(cfg.heads)], axis=1)
        split = (B, T, cfg.heads, cfg.head_dim)
        q = dc.transpose(dc.reshape(dc.matmul(x, w_q), split), (0, 2, 1, 3))
        k_t = dc.transpose(dc.reshape(dc.matmul(x, w_k), split), (0, 2, 3, 1))
        scores = dc.mul(dc.matmul(q, k_t), 1.0 / np.sqrt(cfg.head_dim))
        heads = dc.softmax(dc.masked_fill(scores, future, -np.inf), axis=-1)
        abar = dc.reduce_mean(heads, axis=1)
        w_vo = dc.matmul(m.params[f"attn/b{k}/v/w"], m.params[f"attn/b{k}/out/w"])
        out = dc.matmul(abar, dc.matmul(x, w_vo)) + m.params[f"attn/b{k}/out/b"]
        x = m._gate_norm(f"attn/b{k}", out, x, m._keep(out.shape, rng))
        x = m.grn(f"attn/b{k}/grn", x, rng=rng)
    return x[:, m.schema.encoder_len - 1:], heads, abar


def _cut_and_full_row_forwards(hidden, heads, blocks, rng_seed, monkeypatch):
    schema = synthetic_schema()
    series, wins = _cohort_windows(schema, 8)
    m = Model(schema, ModelConfig(hidden=hidden, heads=heads, blocks=blocks), seed=3,
              scalers=mod.compute_scalers(series, schema))
    batch = WindowBatch.from_windows(wins[:64])
    runs = []
    for attention in (Model.causal_attention, _full_row_attention):
        monkeypatch.setattr(Model, "causal_attention", attention)
        attended = _returns_of(monkeypatch, "causal_attention")
        rng = None if rng_seed is None else np.random.default_rng(rng_seed)
        fp = m.forward(batch, rng=rng)
        runs.append((fp, rng, attended[0][1]))
    return runs


@pytest.mark.parametrize("hidden,heads,blocks", [(16, 2, 2), (128, 6, 4)], ids=["desk", "reference"])
def test_cut_final_block_gives_the_full_row_block_bits(hidden, heads, blocks, monkeypatch):
    with dc.no_grad():
        (cut, _, cut_heads), (full, _, full_heads) = _cut_and_full_row_forwards(
            hidden, heads, blocks, None, monkeypatch)
    for name in ("quantiles", "abar", "w_hist", "decoder_states", "encoder_anchor"):
        assert getattr(cut, name).data.tobytes() == getattr(full, name).data.tobytes(), name
    assert cut_heads.data.tobytes() == full_heads.data.tobytes()


@pytest.mark.parametrize("hidden,heads,blocks", [(16, 2, 2), (128, 6, 4)], ids=["desk", "reference"])
def test_cut_final_block_draws_the_full_row_dropout_masks(hidden, heads, blocks, monkeypatch):
    (cut, cut_rng, _), (full, full_rng, _) = _cut_and_full_row_forwards(hidden, heads, blocks, 11,
                                                                        monkeypatch)
    assert cut.quantiles.requires_grad and cut.decoder_states.shape == full.decoder_states.shape
    assert cut_rng.bit_generator.state == full_rng.bit_generator.state
    assert cut.quantiles.data.tobytes() == full.quantiles.data.tobytes()


# ---------------------------------------------------------------------------
# inference passes select each distinct step once


def _two_target_schema():
    return validate_schema(DatasetSchema(
        features=(
            FeatureSpec("y", "target"),
            FeatureSpec("y2", "target"),
            FeatureSpec("obs", "observed_past"),
            FeatureSpec("kf", "known_future"),
            FeatureSpec("age", "static"),
        ),
        grid_step_min=60.0, encoder_len=12, horizon_len=4,
    ))


def _cohort_windows(schema, n_patients, targets=(None,)):
    series, _ = generate_synthetic(n_patients, schema, seed=7, min_steps=72, max_steps=72)
    wins = [w for t in targets for s in series for w in enumerate_windows(s, schema, 0.0, t)]
    return series, wins


_SHARED_CASES = {
    "256-sorted": lambda w: w[:256],
    "150-tail": lambda w: w[-150:],
    "64-random": lambda w: [w[i] for i in np.random.default_rng(0).choice(len(w), 64, replace=False)],
    "one": lambda w: w[:1],
    "one-twice": lambda w: [w[5], w[5]],
    "two-adjacent": lambda w: w[7:9],
    "val-split": lambda w: w[-2 * 57:],  # every window of the last two 72-step patients
}


@pytest.mark.parametrize("case", sorted(_SHARED_CASES) + ["two-targets"])
@pytest.mark.parametrize("hidden,heads,blocks", [(16, 2, 2), (128, 6, 4)], ids=["desk", "reference"])
def test_no_grad_forward_equals_graph_forward(case, hidden, heads, blocks):
    # an inference pass selects each distinct (context row, step row) once and
    # gathers the results back; every output keeps the per-window path's bits
    if case == "two-targets":
        schema = _two_target_schema()
        series, wins = _cohort_windows(schema, 3, targets=("y", "y2"))
        picked = wins[:40] + wins[171:211]  # one patient's steps under each target
    else:
        schema = synthetic_schema()
        series, wins = _cohort_windows(schema, 8)
        picked = _SHARED_CASES[case](wins)
    m = Model(schema, ModelConfig(hidden=hidden, heads=heads, blocks=blocks),
              seed=3, scalers=mod.compute_scalers(series, schema))
    batch = WindowBatch.from_windows(picked)
    graph = m.forward(batch)
    assert graph.quantiles.requires_grad
    with dc.no_grad():
        shared = m.forward(batch)
    for name, value in vars(graph).items():
        if isinstance(value, Tensor):
            assert np.array_equal(value.data, getattr(shared, name).data), name
        else:
            assert name == "category_counts"
            assert value.keys() == shared.category_counts.keys()
            for key in value:
                assert np.array_equal(value[key], shared.category_counts[key]), key


def test_inference_pass_selects_each_distinct_step_once(monkeypatch):
    schema = synthetic_schema()
    series, wins = _cohort_windows(schema, 8)
    m = Model(schema, ModelConfig(hidden=16, heads=2, blocks=2), seed=3,
              scalers=mod.compute_scalers(series, schema))
    picked = wins[:256]  # consecutive windows of five patients
    steps = {}  # context group -> distinct encoder-step rows
    for w in picked:  # a window's context depends on its statics and target alone
        group = steps.setdefault((w.statics.tobytes(), w.target_idx), set())
        group.update(row.tobytes() for row in w.enc_past)
    E = schema.encoder_len
    want = sum(-(-len(rows) // E) for rows in steps.values())
    assert len(steps) == 5 and want < 40

    items = []
    select = Model.variable_select

    def counting(self, side, embs, ctx=None, rng=None):
        if side == "past":
            items.append(embs[0].shape[:-1])
        return select(self, side, embs, ctx=ctx, rng=rng)

    monkeypatch.setattr(Model, "variable_select", counting)
    with dc.no_grad():
        m.forward(WindowBatch.from_windows(picked))
    m.forward(WindowBatch.from_windows(picked))  # a graph-building pass keeps one per window
    assert items == [(want, E), (256, E)]
