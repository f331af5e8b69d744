"""The forecasting network.

Per-variable embeddings xi^(j) feed variable-selection networks (encoder
side, known-future side, statics): v = softmax(GRN_v(Xi, c_s)) over
Xi = concat(xi^(1), ..., xi^(N)) weighs the variables, and the selected
input is sum_j v_j GRN_j(xi^(j)). The embeddings are linear (x w + b, or a
table row), so the GRNs' first layers take them as factors: Xi @ W is the
sum over j of x_j (w_j W_j) + b_j W_j or (table_j W_j)[x_j], and Xi is
never formed. A static covariate encoder conditions everything, a 2-layer
LSTM encoder/decoder captures local dynamics, and a stack of causal
interpretable multi-head attention blocks models long-range structure:
H~ = A~ V W_V, where A~ is the mean over heads of
softmax(Q W_Q^h (K W_K^h)^T / sqrt(d_qk)). The heads share one value
projection, so A~ is a meaningful attention map, and each block computes its
output A~ (x W_V W_O) + b_O with the two projections multiplied once. A
shared dense head emits the P10/P50/P90 trajectory.

Everything runs on diffcore tensors; a forward pass exposes every internal
the regularizers consume: per-head attention, selection weights, decoder
representations, and per-batch category counts.
"""

from __future__ import annotations

import itertools
import json
import math
import struct
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from . import diffcore as dc
from .diffcore import Tensor
from .schema import (INT_AT_LEAST_1, DatasetSchema, FeatureSpec, SchemaError, check, is_number,
                     schema_from_dict, schema_to_dict)

_CKPT_MAGIC = b"OTFTCKPT"
_CKPT_VERSION = 1


class ModelError(Exception):
    pass


class CategoryOutOfVocab(ModelError):
    pass


MODEL_RULES = {
    "hidden": INT_AT_LEAST_1,
    "heads": INT_AT_LEAST_1,
    "blocks": INT_AT_LEAST_1,
    "dropout": (False, float, lambda v: 0 <= v < 1, "a number in [0, 1)"),
    "quantiles": (False, list, lambda q: len(q) > 0 and all(is_number(v) and 0 < v < 1 for v in q)
                  and list(q) == sorted(set(q)), "a list of strictly increasing levels in (0, 1)"),
    "lstm_layers": INT_AT_LEAST_1,
    "retro_window": INT_AT_LEAST_1,
}
# a feature's (mean, std) frame, by feature name
SCALER_RULES = {"*": (False, list, lambda v: len(v) == 2 and all(map(is_number, v)) and v[1] > 0,
                      "a pair of finite numbers (mean, std) with std > 0")}


@dataclass(frozen=True)
class ModelConfig:
    hidden: int = 128
    heads: int = 6
    blocks: int = 4
    dropout: float = 0.3
    quantiles: tuple = (0.1, 0.5, 0.9)
    lstm_layers: int = 2
    retro_window: int = 3

    def __post_init__(self):
        check(vars(self), MODEL_RULES, ModelError)
        if self.heads > self.hidden:
            raise ModelError(f"heads must be at most hidden ({self.hidden}), got {self.heads}")
        object.__setattr__(self, "quantiles", tuple(self.quantiles))

    @property
    def head_dim(self) -> int:
        # per-head query/key width; the value projection is shared across
        # heads and heads are averaged, so the width need not divide evenly
        return max(self.hidden // self.heads, 1)


@dataclass
class WindowBatch:
    """Arrays for a batch of windows; categorical entries are index floats."""

    enc_past: np.ndarray  # (B, E, n_past)
    fut_known: np.ndarray  # (B, H, n_future)
    statics: np.ndarray  # (B, n_static)
    target_idx: np.ndarray  # (B,) int
    fut_target: np.ndarray  # (B, H)

    @classmethod
    def from_windows(cls, windows: list) -> "WindowBatch":
        return cls(
            enc_past=np.stack([w.enc_past for w in windows]),
            fut_known=np.stack([w.fut_known for w in windows]),
            statics=np.stack([w.statics for w in windows]),
            target_idx=np.array([w.target_idx for w in windows], dtype=int),
            fut_target=np.stack([w.fut_target for w in windows]),
        )

    @property
    def size(self) -> int:
        return self.enc_past.shape[0]


@dataclass
class SelectionWeights:
    historical: np.ndarray  # (E, n_past) rows on the simplex
    future: np.ndarray  # (H, n_future) rows on the simplex


@dataclass
class ForecastBundle:
    quantiles: np.ndarray  # (H, n_q) raw trajectory, one column per level
    attention: np.ndarray  # (T, T) head-averaged causal surface
    selection: SelectionWeights
    decoder_states: np.ndarray  # (H, d)
    quantiles_sorted: np.ndarray = None  # non-crossing view, metrics only

    def __post_init__(self):
        if self.quantiles_sorted is None:
            self.quantiles_sorted = np.sort(self.quantiles, axis=-1)


@dataclass
class ForwardPass:
    """Batch outputs plus every internal the penalties read. The final
    attention block's features exist for rows E-1..T-1 only: `encoder_anchor`
    is row E-1 and `decoder_states` rows E..T-1, while `abar` covers every
    row."""

    quantiles: Tensor  # (B, H, n_q)
    abar: Tensor  # (B, T, T) final block, all rows
    w_hist: Tensor  # (B, E, n_past)
    w_fut: Tensor | None  # (B, H, n_future); None when no known covariates
    decoder_states: Tensor  # (B, H, d)
    encoder_anchor: Tensor  # (B, d) last encoder-side representation
    category_counts: dict  # table name -> per-category batch counts

    def bundle(self, i: int) -> ForecastBundle:
        w_fut = (
            self.w_fut.data[i]
            if self.w_fut is not None
            else np.zeros((self.decoder_states.shape[1], 0))
        )
        return ForecastBundle(
            quantiles=self.quantiles.data[i].copy(),
            attention=self.abar.data[i].copy(),
            selection=SelectionWeights(self.w_hist.data[i].copy(), np.array(w_fut)),
            decoder_states=self.decoder_states.data[i].copy(),
        )


def _glorot(rng, n_in, n_out):
    limit = np.sqrt(6.0 / (n_in + n_out))
    return rng.uniform(-limit, limit, size=(n_in, n_out))


def param_layout(schema: DatasetSchema, config: ModelConfig):
    """(name, shape, init) of every parameter, in creation order; `init(rng)`
    draws the starting value. Listing the layout allocates no tensor, so a
    checkpoint header is checked against it before anything is read."""
    d = config.hidden

    def glorot(n_in, n_out):
        return (n_in, n_out), lambda rng: _glorot(rng, n_in, n_out)

    def const(n, value):
        return (n,), lambda rng: np.full(n, value)

    def normal(*shape):
        return shape, lambda rng: rng.normal(0.0, 0.05, size=shape)

    def dense(name, n_in, n_out, bias: float = 0.0):
        yield f"{name}/w", *glorot(n_in, n_out)
        yield f"{name}/b", *const(n_out, bias)

    def grn(prefix, d_in, d_out, with_ctx=False):
        yield from dense(f"{prefix}/fc1", d_in, d)
        if with_ctx:
            yield f"{prefix}/ctx/w", *glorot(d, d)
        yield from dense(f"{prefix}/fc2", d, d_out)
        yield from dense(f"{prefix}/gate", d_out, d_out)
        yield from dense(f"{prefix}/val", d_out, d_out)
        if d_in != d_out:
            yield f"{prefix}/skip/w", *glorot(d_in, d_out)
        yield f"{prefix}/ln_g", *const(d_out, 1.0)
        yield f"{prefix}/ln_b", *const(d_out, 0.0)

    def embed(name, spec: FeatureSpec):
        if spec.is_categorical:
            yield f"embed/{name}/table", *normal(spec.vocab_size, d)
        else:
            yield f"embed/{name}/w", *normal(d)
            yield f"embed/{name}/b", *const(d, 0.0)

    # known-future features are past features too and share their embedding
    past, future, static = schema.past_features, schema.future_features, schema.static_features
    for spec in past:
        yield from embed(spec.name, spec)
    for spec in static:
        yield from embed(f"static/{spec.name}", spec)
    yield "embed/target_id/table", *normal(len(schema.target_features), d)

    n_static_vars = len(static) + 1  # + target id
    yield from grn("vsn/static/sel", n_static_vars * d, n_static_vars)
    for j in range(n_static_vars):
        yield from grn(f"vsn/static/var{j}", d, d)
    yield from grn("vsn/past/sel", len(past) * d, len(past), with_ctx=True)
    for j in range(len(past)):
        yield from grn(f"vsn/past/var{j}", d, d)
    if future:
        yield from grn("vsn/future/sel", len(future) * d, len(future), with_ctx=True)
        for j in range(len(future)):
            yield from grn(f"vsn/future/var{j}", d, d)

    for which in ("select", "enrich", "h0", "c0"):
        yield from grn(f"static_ctx/{which}", d, d)

    for side in ("enc", "dec"):
        for layer in range(config.lstm_layers):
            yield f"lstm/{side}/l{layer}/x/w", *glorot(d, 4 * d)
            yield f"lstm/{side}/l{layer}/h/w", *glorot(d, 4 * d)
            # forget-gate slice of the shared bias starts at 1
            yield (f"lstm/{side}/l{layer}/b", (4 * d,),
                   lambda rng: np.repeat([0.0, 1.0, 0.0], [d, d, 2 * d]))

    yield from dense("post_lstm/gate", d, d)
    yield from dense("post_lstm/val", d, d)
    yield "post_lstm/ln_g", *const(d, 1.0)
    yield "post_lstm/ln_b", *const(d, 0.0)

    yield from grn("enrich", d, d, with_ctx=True)

    dqk = config.head_dim
    for k in range(config.blocks):
        for m in range(config.heads):
            yield f"attn/b{k}/q{m}/w", *glorot(d, dqk)
            yield f"attn/b{k}/k{m}/w", *glorot(d, dqk)
        yield f"attn/b{k}/v/w", *glorot(d, d)
        yield from dense(f"attn/b{k}/out", d, d)
        yield from dense(f"attn/b{k}/gate", d, d)
        yield from dense(f"attn/b{k}/val", d, d)
        yield f"attn/b{k}/ln_g", *const(d, 1.0)
        yield f"attn/b{k}/ln_b", *const(d, 0.0)
        yield from grn(f"attn/b{k}/grn", d, d)

    yield from dense("head", d, len(config.quantiles))


def _row_keys(*arrays) -> np.ndarray:
    """One key per row of side-by-side 2-D arrays: its bytes, so 0.0 and -0.0 stay apart."""
    raw = np.concatenate(
        [np.ascontiguousarray(a).view(np.uint8).reshape(len(a), -1) for a in arrays], axis=1
    )
    return raw.view(np.dtype((np.void, raw.shape[1])))[:, 0]


def _distinct_steps(values: np.ndarray, ctx: np.ndarray):
    """Each distinct (context row, step row) pair of a batch, once.

    values: (B, L, n) step rows; ctx: (B, d) each window's context row.
    Returns the distinct step rows (m, n), padded to a multiple of 4 by
    repeating the last so that no GEMM over them has a tail row, their
    context rows (m, d), and each window step's row index (B, L).
    """
    B, L, n = values.shape
    steps = values.reshape(B * L, n)
    _, group = np.unique(_row_keys(ctx), return_inverse=True)  # short keys for the pairs
    _, first, where = np.unique(_row_keys(np.repeat(group.reshape(-1), L)[:, None], steps),
                                return_index=True, return_inverse=True)
    first = np.concatenate([first, np.repeat(first[-1:], -len(first) % 4)])
    return steps[first], ctx[first // L], where.reshape(B, L)


def compute_scalers(series_list: list, schema: DatasetSchema, where: str = "") -> dict:
    """Per-feature (mean, std) over all steps of the given series; none for
    no series.

    Continuous features only; stds are floored so constant features scale to
    zero rather than exploding. Computed on the training split and stored
    with the model so evaluation reuses the same affine frame. A mean or std
    that overflows raises ModelError naming the feature, after `where`.
    """
    scalers = {}
    for j, spec in enumerate(schema.features):
        if spec.is_categorical or not series_list:
            continue
        pool = np.concatenate([s.values[:, j] for s in series_list])
        with np.errstate(over="ignore"):  # the check below names an overflowed feature
            scalers[spec.name] = (float(pool.mean()), float(max(pool.std(), 1e-8)))
    return check(scalers, SCALER_RULES, ModelError, prefix=f"{where}scalers.")


class Model:
    """Network parameters plus the forward pass, bound to one schema.

    `scalers` maps continuous feature names to a (mean, std) frame: inputs
    are standardized on the way in and quantile outputs are anchored back to
    the target's frame on the way out. Missing entries mean identity.
    """

    def __init__(self, schema: DatasetSchema, config: ModelConfig, seed: int = 0,
                 params: dict | None = None, scalers: dict | None = None,
                 pipeline: dict | None = None):
        self.schema = schema
        self.config = config
        scalers = check(scalers or {}, SCALER_RULES, ModelError, prefix="scalers.")
        self.scalers = {k: tuple(v) for k, v in scalers.items()}
        # the training run's `cli.PipelineConfig` as a dict; None: the defaults
        self.pipeline = pipeline
        self.past_specs = schema.past_features
        self.future_specs = schema.future_features
        self.static_specs = schema.static_features
        self.n_targets = len(schema.target_features)
        self.params = params if params is not None else self._init_params(seed)

    # ------------------------------------------------------------------
    # parameters

    def _init_params(self, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        return {name: Tensor(init(rng), requires_grad=True)
                for name, _, init in param_layout(self.schema, self.config)}

    # ------------------------------------------------------------------
    # building blocks

    def _dense(self, name, x):
        return dc.matmul(x, self.params[f"{name}/w"]) + self.params[f"{name}/b"]

    def _keep(self, shape, rng):
        """Inverted dropout's (boolean keep mask, scale 1 / (1 - rate)), or None
        when dropout is off."""
        rate = self.config.dropout
        if rng is None or rate <= 0.0:
            return None
        return rng.random(shape) >= rate, 1.0 / (1.0 - rate)

    def _wb(self, name):
        return self.params[f"{name}/w"], self.params[f"{name}/b"]

    def _ln(self, prefix):
        return self.params[f"{prefix}/ln_g"], self.params[f"{prefix}/ln_b"]

    def _gate_norm(self, prefix, h, skip, keep=None):
        """LN(GLU(keep * h) + skip), with the gate, value and norm stored under
        prefix; keep: a `_keep` pair or None."""
        return dc.gated_add_norm(h, self._wb(f"{prefix}/gate"), self._wb(f"{prefix}/val"),
                                 skip, self._ln(prefix), keep=keep)

    def grn(self, prefix, x, ctx=None, rng=None, keep=None):
        """dense -> ELU -> dense -> GLU, residual-added and layer-normalized;
        dropout's `keep` pair is drawn from rng unless given."""
        p = self.params
        fc2 = self._wb(f"{prefix}/fc2")
        lead = (x[0] if isinstance(x, list) else x).shape[:-1]
        return dc.grn(
            x, self._wb(f"{prefix}/fc1"), fc2, self._wb(f"{prefix}/gate"),
            self._wb(f"{prefix}/val"), self._ln(prefix), skip=p.get(f"{prefix}/skip/w"),
            ctx=None if ctx is None else (ctx, p[f"{prefix}/ctx/w"]),
            keep=keep or self._keep(lead + fc2[0].shape[1:], rng),
        )

    # ------------------------------------------------------------------
    # embeddings

    def _scale(self, name: str, col: np.ndarray) -> np.ndarray:
        mu, sd = self.scalers.get(name, (0.0, 1.0))
        return (col - mu) / sd

    def _embed_feature(self, key, spec: FeatureSpec, col: np.ndarray) -> dc.Embedding:
        """col: (...,) raw values -> their (..., d) embedding, as its factors."""
        if spec.is_categorical:
            idx = col.astype(int)
            if idx.min() < 0 or idx.max() >= spec.vocab_size:
                raise CategoryOutOfVocab(f"{spec.name}: index outside [0, {spec.vocab_size})")
            return dc.Embedding(idx, self.params[f"embed/{key}/table"])
        return dc.Embedding(self._scale(spec.name, col), *self._wb(f"embed/{key}"))

    def embed_inputs(self, values: np.ndarray, specs, key_prefix: str = "") -> list:
        """One (..., d) embedding per variable, in spec order; the selection
        networks fold each into their first layers."""
        return [self._embed_feature(f"{key_prefix}{spec.name}", spec, values[..., j])
                for j, spec in enumerate(specs)]

    # ------------------------------------------------------------------
    # variable selection

    def variable_select(self, side: str, embs: list, ctx=None, rng=None):
        """Simplex weights v over the N (..., d) embeddings xi^(j) in `embs`,
        plus the fused sum_j v_j GRN_j(xi^(j)): (weights (..., N), fused (..., d)).
        GRN_v reads Xi = concat(xi^(1), ..., xi^(N)) as the list itself, so Xi
        is never formed.
        """
        logits = self.grn(f"vsn/{side}/sel", embs, ctx=ctx, rng=rng)
        weights = dc.softmax(logits, axis=-1)
        processed = [self.grn(f"vsn/{side}/var{j}", e, rng=rng) for j, e in enumerate(embs)]
        stacked = dc.reshape(dc.concat(processed, axis=-1), weights.shape + (-1,))  # (..., N, d)
        fused = dc.reduce_sum(
            dc.mul(stacked, dc.reshape(weights, weights.shape + (1,))), axis=-2
        )
        return weights, fused

    def select_steps(self, side: str, values: np.ndarray, ctx: Tensor, rng=None):
        """Embed and select every step of a (B, L, n) window array under the
        windows' (B, d) context rows: (weights (B, L, n), fused (B, L, d)).

        Embeddings and selection are position-wise, so on a pass with no
        dropout and no graph a step's output depends only on its input row
        and its window's context row. Such a pass over two or more windows
        selects each distinct (context row, step row) pair once as flat rows
        and gathers the results back per window. A side whose windows have
        GEMM tail rows (L not a multiple of 4, and a GEMM of at most 3
        columns: N variables or d) stays per window, so bits match.
        """
        specs = self.past_specs if side == "past" else self.future_specs
        tail = values.shape[1] % 4 and min(len(specs), self.config.hidden) <= 3
        if rng is not None or dc.grad_enabled() or len(values) < 2 or tail:
            return self.variable_select(side, self.embed_inputs(values, specs), ctx=ctx, rng=rng)
        rows, row_ctx, where = _distinct_steps(values, ctx.data)
        weights, fused = self.variable_select(side, self.embed_inputs(rows, specs),
                                              ctx=Tensor(row_ctx))
        return Tensor(weights.data[where]), Tensor(fused.data[where])

    # ------------------------------------------------------------------
    # recurrent encoder/decoder

    def _lstm_pass(self, side: str, seq: Tensor, h0: list, c0: list):
        """Run the stacked LSTM over (B, T, d); returns outputs and finals.

        Layer by layer: one matmul projects the layer's whole input
        sequence, one fused node runs the recurrence over it.
        """
        d = self.config.hidden
        x = seq
        hs, cs = [], []
        for layer in range(self.config.lstm_layers):
            name = f"lstm/{side}/l{layer}"
            xp = dc.matmul(x, self.params[f"{name}/x/w"]) + self.params[f"{name}/b"]
            states = dc.lstm_layer(xp, h0[layer], c0[layer], self.params[f"{name}/h/w"])
            x = states[:, :, :d]
            hs.append(states[:, -1, :d])
            cs.append(states[:, -1, d:])
        return x, hs, cs

    def encode_decode(self, fused_past: Tensor, fused_future: Tensor, ctx_h, ctx_c):
        """LSTM over the past, state handoff into the future, gated residual.

        The static context seeds the first encoder layer's initial state;
        decoder layers start from the encoder finals.
        """
        B = fused_past.shape[0]
        d = self.config.hidden
        zero = Tensor(np.zeros((B, d)))
        h0 = [ctx_h] + [zero] * (self.config.lstm_layers - 1)
        c0 = [ctx_c] + [zero] * (self.config.lstm_layers - 1)
        enc_out, h_fin, c_fin = self._lstm_pass("enc", fused_past, h0, c0)
        dec_out, _, _ = self._lstm_pass("dec", fused_future, h_fin, c_fin)

        lstm_seq = dc.concat([enc_out, dec_out], axis=1)
        inputs_seq = dc.concat([fused_past, fused_future], axis=1)
        seq = self._gate_norm("post_lstm", lstm_seq, inputs_seq)
        return seq, enc_out, dec_out

    # ------------------------------------------------------------------
    # attention

    def causal_attention(self, seq: Tensor, rng=None):
        """Stacked causal interpretable attention (Lim et al., TFT).

        Per block, H~ = A~ (x W_V) with A~ = (1/m) sum_h softmax(x W_Q^h
        (x W_K^h)^T / sqrt(d_qk)) under a causal mask: every head's scores
        are one batched (B, m, T, T) product. Nothing nonlinear lies between
        the value and output projections, so the block forms W_V W_O once
        and its output H~ W_O + b_O as A~ (x (W_V W_O)) + b_O, one GEMM over
        the rows fewer. Returns the final block's features for rows E-1..T-1
        alone (B, H + 1, d), the last encoder step and the horizon, which is
        all forward reads, and its per-head surfaces (B, m, T, T) and their
        head average A~ (B, T, T) over every row. From A~ on, that block runs
        on those rows only; its dropout masks are still drawn over all T rows,
        so the rng stream does not depend on the cut.
        """
        cfg = self.config
        B, T, d = seq.shape
        m, dqk = cfg.heads, cfg.head_dim
        future = np.triu(np.ones((T, T), dtype=bool), k=1)
        x = seq
        for k in range(cfg.blocks):
            w_q = dc.concat([self.params[f"attn/b{k}/q{h}/w"] for h in range(m)], axis=1)
            w_k = dc.concat([self.params[f"attn/b{k}/k{h}/w"] for h in range(m)], axis=1)
            q = dc.transpose(dc.reshape(dc.matmul(x, w_q), (B, T, m, dqk)), (0, 2, 1, 3))
            k_t = dc.transpose(dc.reshape(dc.matmul(x, w_k), (B, T, m, dqk)), (0, 2, 3, 1))
            heads = dc.masked_fill(dc.mul(dc.matmul(q, k_t), 1.0 / np.sqrt(dqk)), future, -np.inf)
            del q, k_t  # each value is dropped once read: a graph-free pass holds only its outputs
            heads = dc.softmax(heads, axis=-1)
            abar = dc.reduce_mean(heads, axis=1)
            w_vo = dc.matmul(self.params[f"attn/b{k}/v/w"], self.params[f"attn/b{k}/out/w"])
            value = dc.matmul(x, w_vo)  # x W_V W_O: the output projection folded in
            keeps = [self._keep((B, T, d), rng) for _ in range(2)]  # output projection, then GRN
            attend, skip = abar, x
            if k + 1 < cfg.blocks:
                del heads  # only the final block's per-head weights are returned
            else:
                rows = np.s_[:, self.schema.encoder_len - 1:]
                attend, skip = abar[rows], x[rows]
                keeps = [keep and (keep[0][rows], keep[1]) for keep in keeps]
            out = dc.matmul(attend, value) + self.params[f"attn/b{k}/out/b"]
            del attend, value
            x = self._gate_norm(f"attn/b{k}", out, skip, keeps[0])
            del out, skip
            x = self.grn(f"attn/b{k}/grn", x, keep=keeps[1])
        return x, heads, abar

    def quantile_head(self, decoder_features: Tensor) -> Tensor:
        """Shared dense map to the quantile trajectory; raw, may cross."""
        return self._dense("head", decoder_features)

    # ------------------------------------------------------------------
    # full pass

    def batch_category_counts(self, batch: WindowBatch) -> dict:
        """Per-category counts in the batch, one array per embedding table.

        A known-future feature is also a past feature and shares one table,
        so its encoder-side and decoder-side steps are counted together.
        """
        counts = {}
        for specs, values in ((self.past_specs, batch.enc_past),
                              (self.future_specs, batch.fut_known)):
            for j, spec in enumerate(specs):
                if spec.is_categorical:
                    key = f"embed/{spec.name}/table"
                    c = np.bincount(values[..., j].astype(int).ravel(),
                                    minlength=spec.vocab_size)
                    counts[key] = counts[key] + c if key in counts else c
        for j, spec in enumerate(self.static_specs):
            if spec.is_categorical:
                counts[f"embed/static/{spec.name}/table"] = np.bincount(
                    batch.statics[:, j].astype(int), minlength=spec.vocab_size
                )
        counts["embed/target_id/table"] = np.bincount(
            batch.target_idx, minlength=self.n_targets
        )
        return counts

    def embedding_tables(self) -> dict:
        return {k: v for k, v in self.params.items() if k.endswith("/table")}

    def forward(self, batch: WindowBatch, rng=None) -> ForwardPass:
        """Full pass over a window batch; rng drives dropout (None = off)."""
        static_embs = self.embed_inputs(batch.statics, self.static_specs, "static/")
        static_embs.append(dc.Embedding(batch.target_idx, self.params["embed/target_id/table"]))
        _, static_vec = self.variable_select("static", static_embs, rng=rng)
        ctx_sel = self.grn("static_ctx/select", static_vec, rng=rng)
        ctx_enr = self.grn("static_ctx/enrich", static_vec, rng=rng)
        ctx_h = self.grn("static_ctx/h0", static_vec, rng=rng)
        ctx_c = self.grn("static_ctx/c0", static_vec, rng=rng)

        w_hist, fused_past = self.select_steps("past", batch.enc_past, ctx_sel, rng)

        H = batch.fut_target.shape[1]
        if self.future_specs:
            w_fut, fused_fut = self.select_steps("future", batch.fut_known, ctx_sel, rng)
        else:
            w_fut = None
            fused_fut = Tensor(np.zeros((batch.size, H, self.config.hidden)))

        seq = self.encode_decode(fused_past, fused_fut, ctx_h, ctx_c)[0]
        del fused_past, fused_fut  # nothing after the LSTM reads them
        seq = self.grn("enrich", seq, ctx=ctx_enr, rng=rng)
        features, _, abar = self.causal_attention(seq, rng=rng)  # rows E-1..T-1; no head surfaces
        anchor, dec_repr = features[:, 0], features[:, 1:]
        quantiles = self.quantile_head(dec_repr)
        # anchor outputs in each window's target frame
        t_names = [f.name for f in self.schema.target_features]
        mus = np.array([self.scalers.get(n, (0.0, 1.0))[0] for n in t_names])
        sds = np.array([self.scalers.get(n, (0.0, 1.0))[1] for n in t_names])
        if np.any(mus != 0.0) or np.any(sds != 1.0):
            mu_b = Tensor(mus[batch.target_idx][:, None, None])
            sd_b = Tensor(sds[batch.target_idx][:, None, None])
            quantiles = dc.mul(quantiles, sd_b) + mu_b

        return ForwardPass(
            quantiles=quantiles,
            abar=abar,
            w_hist=w_hist,
            w_fut=w_fut,
            decoder_states=dec_repr,
            encoder_anchor=anchor,
            category_counts=self.batch_category_counts(batch),
        )


# ---------------------------------------------------------------------------
# checkpointing


def save_checkpoint(path, model: Model):
    """Byte-stable container: magic, version, JSON header, raw float64 data."""
    names = list(model.params.keys())
    header = {
        "config": asdict(model.config),
        "schema": schema_to_dict(model.schema),
        "scalers": {k: list(v) for k, v in sorted(model.scalers.items())},
        "tensors": [{"name": n, "shape": list(model.params[n].shape)} for n in names],
    }
    if model.pipeline is not None:
        header["pipeline"] = model.pipeline
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    with open(path, "wb") as fh:
        fh.write(_CKPT_MAGIC)
        fh.write(struct.pack("<II", _CKPT_VERSION, len(header_bytes)))
        fh.write(header_bytes)
        for n in names:
            fh.write(np.ascontiguousarray(model.params[n].data, dtype="<f8").tobytes())


def load_checkpoint(path) -> Model:
    """Read a checkpoint whole (no length field can ask for more than the file
    holds); a damaged or malformed file raises ModelError naming it."""
    raw = Path(path).read_bytes()
    pos = len(_CKPT_MAGIC)

    def take(n: int, what: str) -> bytes:
        nonlocal pos
        if len(raw) - pos < n:
            raise ModelError(
                f"checkpoint {path} is truncated: {what} has {len(raw) - pos} of {n} bytes"
            )
        pos += n
        return raw[pos - n : pos]

    if raw[:pos] != _CKPT_MAGIC:
        raise ModelError(f"not a checkpoint file: {path}")
    version, header_len = struct.unpack("<II", take(8, "the version field"))
    if version != _CKPT_VERSION:
        raise ModelError(f"unsupported checkpoint version {version}")
    text = take(header_len, "the header")
    try:
        header = json.loads(text.decode())
        entries = [(str(e["name"]), tuple(e["shape"])) for e in header["tensors"]]
        if any(type(n) is not int or n < 0 for _, shape in entries for n in shape):
            raise ValueError("a tensor shape is not a list of integers >= 0")
        cfg = dict(header["config"])
        # a retired switch that older checkpoints still carry; it never moved the forecast
        cfg.pop("use_raw_decoder_state", None)
        model = Model(schema_from_dict(header["schema"]), ModelConfig(**cfg), params={},
                      scalers=header.get("scalers"), pipeline=header.get("pipeline"))
    except (KeyError, TypeError, ValueError, ModelError, SchemaError) as e:
        raise ModelError(
            f"checkpoint {path} has a malformed header: {type(e).__name__}: {e}"
        ) from None
    layout = ((n, shape) for n, shape, _ in param_layout(model.schema, model.config))
    for i, (have, want) in enumerate(itertools.zip_longest(entries, layout)):
        if have != want:
            got, need = ("missing" if e is None else f"{e[0]} {list(e[1])}" for e in (have, want))
            raise ModelError(
                f"checkpoint {path} does not fit the model its config and schema "
                f"describe: tensor {i} is {got}, the model's is {need}"
            )
    for name, shape in entries:
        buf = take(8 * math.prod(shape), f"tensor {name}")
        model.params[name] = Tensor(np.frombuffer(buf, "<f8").reshape(shape).copy(),
                                    requires_grad=True)
    if pos != len(raw):
        raise ModelError(f"checkpoint {path} has {len(raw) - pos} bytes after its last tensor")
    return model
