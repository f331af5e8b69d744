"""Training loop: composite objective, Adam, clipping, early stopping.

The loss is the quantile (pinball) loss plus the three weighted penalties;
epochs draw class-balanced window samples, multiple targets interleave
their batches round-robin, and early stopping tracks the validation
quantile loss alone (the penalties shape training, the task metric picks
the checkpoint).

`train` keeps the parameters in one flat float64 vector: every
`model.params[name].data` becomes a view into it, and θ, the Adam moments and
the best-epoch snapshot are flat vectors. Gradients exist only from backward
to the update: backward stores each parameter's own, the step gathers them
into one flat vector for clipping and Adam and then drops it, so no `p.grad`
is held while a forward pass runs.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass, field, asdict

import numpy as np

from . import diffcore as dc
from . import penalties as pen
from .diffcore import Tensor
from .model import Model, WindowBatch, ForwardPass
from .penalties import PenaltyWeights
from .sampler import balanced_epoch
from .schema import INT_AT_LEAST_0, INT_AT_LEAST_1, NUMBER_ABOVE_0, build_group_assignment, check


class TrainerError(Exception):
    pass


class AllMasked(TrainerError):
    pass


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 1e-5
    batch: int = 64
    clip: float = 1.0
    max_epochs: int = 300
    patience: int = 10
    seed: int = 0  # drives dropout masks and epoch draws
    weights: PenaltyWeights = field(default_factory=PenaltyWeights)

    def __post_init__(self):
        check(vars(self), TRAIN_RULES, TrainerError)


TRAIN_RULES = {
    "lr": NUMBER_ABOVE_0,
    "batch": INT_AT_LEAST_1,
    "clip": NUMBER_ABOVE_0,  # 0 would zero every gradient, a negative one reverse it
    "max_epochs": INT_AT_LEAST_1,
    "patience": INT_AT_LEAST_1,
    "seed": INT_AT_LEAST_0,
    "weights": (False, PenaltyWeights, None, "penalty weights"),
}


@dataclass
class ObjectiveBreakdown:
    l_quantile: float
    c_embed: float
    c_group: float
    c_shock: float
    l_total: float

    def as_row(self) -> list:
        return [self.l_quantile, self.c_embed, self.c_group, self.c_shock, self.l_total]


HISTORY_COLUMNS = ["epoch", "l_quantile", "c_embed", "c_group", "c_shock", "l_total", "val_loss"]


def quantile_loss(pred: Tensor, actual, quantiles, mask=None) -> Tensor:
    """Pinball loss averaged over batch, horizon steps, and quantiles.

    pinball_q(e) = max(q e, (q-1) e) with e = y - yhat; at the kink the
    gradient takes the (q-1) branch. `mask` (matching actual) drops steps
    from the average.
    """
    pred = dc.as_tensor(pred)
    y = dc.as_tensor(np.asarray(actual)[..., None])
    qvec = np.asarray(quantiles, dtype=np.float64)
    e = dc.sub(y, pred)
    elems = dc.mul(e, Tensor(qvec - 1.0)) + dc.relu(e)
    if mask is None:
        return dc.reduce_mean(dc.reshape(elems, (-1,)))
    m = np.asarray(mask, dtype=np.float64)
    if m.sum() == 0:
        raise AllMasked("no unmasked target steps")
    weights = np.broadcast_to(m[..., None], elems.shape).copy()
    total = dc.reduce_sum(dc.mul(elems, Tensor(weights)))
    return dc.div(total, float(weights.sum()))


def total_objective(
    model: Model,
    fp: ForwardPass,
    batch: WindowBatch,
    weights: PenaltyWeights,
    group_matrix: np.ndarray,
):
    """The full training objective; returns (loss node, breakdown)."""
    E = model.schema.encoder_len
    H = batch.fut_target.shape[1]

    lq = quantile_loss(fp.quantiles, batch.fut_target, model.config.quantiles)

    ce = pen.c_embed(model.embedding_tables(), fp.category_counts)

    p_hs = pen.group_distribution_past(fp.w_hist, group_matrix)
    # the future side is always (0, 1, 0), entropy exactly 0: c_group's
    # (h_past + 0) * 0.5 equals h_past * 0.5 bit for bit, so skip it
    cg = pen.c_group(p_hs, None)

    if H >= 2:
        retro = pen.retro_mass(fp.abar, model.config.retro_window)
        a_dec = retro[:, E:]
        a_std, flag_a = pen.standardize(a_dec)
        s_raw = pen.rep_first_diff(fp.decoder_states, fp.encoder_anchor)
        s_std, flag_s = pen.standardize(s_raw)
        cs = pen.c_shock(a_std, s_std, flag_a | flag_s)
    else:
        cs = Tensor(0.0)  # a single decoder step has no alignable dynamics

    total = (
        lq
        + dc.mul(ce, weights.lambda_embed)
        + dc.mul(cg, weights.lambda_group)
        + dc.mul(cs, weights.lambda_shock)
    )
    breakdown = ObjectiveBreakdown(
        l_quantile=float(lq.data),
        c_embed=float(ce.data),
        c_group=float(cg.data),
        c_shock=float(cs.data),
        l_total=float(total.data),
    )
    return total, breakdown


def clip_gradients(grads: list, max_norm: float = 1.0):
    """Scale the gradient arrays in place so their global L2 norm is at most
    max_norm; returns (grads, the norm before clipping).

    The squared norm adds one `np.sum` per array, in list order: one sum over
    the flat vector would round differently, and desk training amplifies
    last-bit differences.
    """
    norm = float(np.sqrt(sum(float(np.sum(g * g)) for g in grads)))
    if norm <= max_norm or norm == 0.0:
        return grads, norm
    scale = max_norm / norm
    for g in grads:
        g *= scale
    return grads, norm


# Adam updates this many elements at a time, so its four operand slices stay
# in cache between its passes instead of streaming whole vectors from memory.
_ADAM_CHUNK = 1 << 15


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    step: int = 0


def adam_step(
    theta: np.ndarray,
    grad: np.ndarray,
    state: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
):
    """One bias-corrected Adam update of the flat vector `theta`, in place."""
    state.step += 1
    c1 = 1 - beta1**state.step
    c2 = 1 - beta2**state.step
    for i in range(0, theta.size, _ADAM_CHUNK):
        s = slice(i, i + _ADAM_CHUNK)
        g, m, v = grad[s], state.m[s], state.v[s]
        m *= beta1
        m += (1 - beta1) * g
        v *= beta2
        v += (1 - beta2) * g * g
        theta[s] -= lr * (m / c1) / (np.sqrt(v / c2) + eps)


@dataclass
class TrainResult:
    history: list  # dict rows per epoch
    best_epoch: int
    best_val: float
    stopped_epoch: int
    diverged: bool = False
    single_class: bool = False  # any epoch degraded to one regime class
    clip_frac: float = 0.0  # share of optimiser steps whose gradient norm exceeded clip


def batches_of(windows: list, size: int):
    for i in range(0, len(windows), size):
        yield WindowBatch.from_windows(windows[i : i + size])


# A graph-free call holds at most 4096 // hidden windows, rounded down to a
# multiple of 4: 256 at desk width and 32 at reference width, the activation
# size of a 256-window desk validation call. It is never under 32.
_GRAPH_FREE_CELLS = 4096


def _runs(batches, cap: int):
    """(batch, lo, hi): each batch's rows cut into runs of at most `cap`. A
    one-window tail takes 4 windows from the run before it, since a one-row
    GEMM rounds on another path; runs before the tail stay multiples of 4.
    Longer tails keep their bits: with the embeddings folded into the
    selection networks' first layers, no GEMM of a forward has an inner
    dimension wider than the hidden width or the window, so none takes
    OpenBLAS's small-matrix path (inner dimension over about 400) at the
    widths checked, hidden 16 to 128 with one to six statics."""
    for b in batches:
        cuts = [*range(0, b.size, cap), b.size]
        if len(cuts) > 2 and cuts[-1] - cuts[-2] == 1:
            cuts[-2] -= 4
        for lo, hi in zip(cuts, cuts[1:]):
            yield b, lo, hi


def graph_free_passes(model: Model, batches):
    """Yield (batch, its rows of a ForwardPass) for each WindowBatch, dropout off
    and no graph. `Model.forward` calls hold at most the cap above: a larger
    batch is split across calls, and consecutive runs of rows share a call, a
    run joining only after runs of a multiple of 4 windows, since a GEMM with 3
    or fewer output columns rounds the last M mod 4 rows of a call on another
    path, and a one-window batch runs alone, since a one-row GEMM takes another
    path again. Each batch's rows keep the bits of a forward call of that
    batch, at every width where no GEMM takes OpenBLAS's small-matrix path
    (see `_runs`)."""
    call, cap = [], max(_GRAPH_FREE_CELLS // model.config.hidden // 4 * 4, 32)
    for run in itertools.chain(_runs(batches, cap), [None]):
        if call and (run is None or (call[-1][2] - call[-1][1]) % 4 or run[0].size == 1
                     or sum(hi - lo for _, lo, hi in call) + run[2] - run[1] > cap):
            parts = ([v[lo:hi] for v in vars(b).values()] for b, lo, hi in call)
            with dc.no_grad():
                fp = model.forward(WindowBatch(*map(np.concatenate, zip(*parts))), rng=None)
            at = 0
            for b, lo, hi in call:
                got = {k: v.data[at : at + hi - lo] for k, v in vars(fp).items()
                       if isinstance(v, Tensor)}
                at += hi - lo
                if lo == 0:  # a split batch gathers its runs' rows in arrays of its own
                    rows = got if hi == b.size else {
                        k: np.empty((b.size,) + v.shape[1:]) for k, v in got.items()}
                if rows is not got:
                    for k, v in got.items():
                        rows[k][lo:hi] = v
                if hi == b.size:
                    yield b, ForwardPass(**{**vars(fp), **{k: Tensor(v) for k, v in rows.items()},
                                            "category_counts": model.batch_category_counts(b)})
            del fp, got
            call = []
        call.append(run)


def evaluate_quantile_loss(model: Model, windows: list, batch_size: int = 256) -> float:
    """Mean pinball loss over windows, dropout off, summed per batch of
    `batch_size`; `graph_free_passes` sizes the forward calls."""
    if not windows:
        return float("nan")
    total = 0.0
    with dc.no_grad():
        for batch, fp in graph_free_passes(model, batches_of(windows, batch_size)):
            lq = quantile_loss(fp.quantiles, batch.fut_target, model.config.quantiles)
            total += float(lq.data) * batch.size
    return total / len(windows)


def _epoch_batches(pools: dict, epoch: int, config: TrainConfig):
    """Balanced draw per target pool, then round-robin across targets."""
    single = False
    per_pool = []
    for i, name in enumerate(sorted(pools)):
        if not pools[name]:
            continue
        sample = balanced_epoch(pools[name], seed=config.seed + 7919 * (epoch + 1) + i)
        single = single or sample.single_class
        per_pool.append(list(batches_of(sample.windows, config.batch)))
    batches = []
    for round_idx in range(max(len(b) for b in per_pool)):
        for b in per_pool:
            if round_idx < len(b):
                batches.append(b[round_idx])
    return batches, single


def _gather_gradients(params: list, size: int):
    """Move each parameter's gradient into one flat vector of `size`, in
    `params` order, zeros where a parameter got none, and clear every `p.grad`
    as it goes; returns (the vector, its per-parameter views)."""
    flat = np.empty(size)
    views, i = [], 0
    for p in params:
        view = flat[i : i + p.size].reshape(p.shape)
        if p.grad is None:
            view.fill(0.0)
        else:
            view[...] = p.grad
            p.grad = None
        views.append(view)
        i += p.size
    return flat, views


def check_windows(pools: dict, val_windows: list):
    """Raise TrainerError unless `train` has windows to fit and to validate on."""
    if not any(pools.values()):
        raise TrainerError("no training windows")
    if not val_windows:
        # no validation loss would be finite, so the untrained epoch-0 model would win
        raise TrainerError("no validation windows: early stopping needs a validation split")


def train(model: Model, train_pools, val_windows: list, config: TrainConfig) -> TrainResult:
    """Optimize the composite objective with early stopping on validation
    pinball loss.

    `train_pools` is either a flat window list (single pool) or a mapping of
    target name to window list. The best-validation parameters are restored
    into the model before returning. A non-finite loss aborts training and
    restores the best parameters seen so far.
    """
    pools = train_pools if isinstance(train_pools, dict) else {"": list(train_pools)}
    check_windows(pools, val_windows)

    gmat = build_group_assignment(model.schema).matrix
    dropout_rng = np.random.default_rng(config.seed) if model.config.dropout > 0 else None
    # views into one flat vector, bound here rather than in Model because
    # callers may assign `p.data` on a model after building it
    params = list(model.params.values())
    theta = np.concatenate([p.data.reshape(-1) for p in params])
    i = 0
    for p in params:
        p.data, p.grad = theta[i : i + p.size].reshape(p.shape), None
        i += p.size
    state = AdamState(np.zeros_like(theta), np.zeros_like(theta))
    history: list = []

    def record(epoch, rows, val):
        means = map(float, np.mean(rows, axis=0))
        history.append(dict(zip(HISTORY_COLUMNS, [epoch, *means, float(val)])))

    # epoch 0: evaluation only, the pre-training baseline
    base_batches, single0 = _epoch_batches(pools, -1, config)
    with dc.no_grad():
        rows = [total_objective(model, fp, batch, config.weights, gmat)[1].as_row()
                for batch, fp in graph_free_passes(model, base_batches)]
    val0 = evaluate_quantile_loss(model, val_windows)
    record(0, rows, val0)

    best_val = val0 if np.isfinite(val0) else float("inf")
    best = theta.copy()
    best_epoch = 0
    bad_epochs = 0
    single_any = single0
    diverged = False
    stopped = 0
    steps = clipped = 0

    for epoch in range(1, config.max_epochs + 1):
        batches, single = _epoch_batches(pools, epoch, config)
        single_any = single_any or single
        rows = []
        for batch in batches:
            fp = model.forward(batch, rng=dropout_rng)
            loss, br = total_objective(model, fp, batch, config.weights, gmat)
            if not np.isfinite(br.l_total):
                diverged = True
                break
            rows.append(br.as_row())
            dc.backward(loss)
            del fp, loss  # the next forward must not run beside this step's outputs
            grad, grads = _gather_gradients(params, theta.size)
            norm = clip_gradients(grads, config.clip)[1]
            adam_step(theta, grad, state, config.lr)
            del grad, grads  # nor beside its gradients
            steps += 1
            clipped += norm > config.clip
        if diverged:
            stopped = epoch
            break

        val = evaluate_quantile_loss(model, val_windows)
        record(epoch, rows, val)
        stopped = epoch

        if np.isfinite(val) and val < best_val:
            best_val = val
            best = theta.copy()
            best_epoch = epoch
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= config.patience:
                break

    theta[:] = best
    return TrainResult(
        history=history,
        best_epoch=best_epoch,
        best_val=best_val,
        stopped_epoch=stopped,
        diverged=diverged,
        single_class=single_any,
        clip_frac=clipped / steps if steps else 0.0,
    )


def write_history_csv(path, history: list):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(HISTORY_COLUMNS)
        for row in history:
            w.writerow([repr(row[c]) if isinstance(row[c], float) else row[c]
                        for c in HISTORY_COLUMNS])


def train_config_to_dict(config: TrainConfig) -> dict:
    return asdict(config)


def train_config_from_dict(doc: dict) -> TrainConfig:
    return TrainConfig(**{**doc, "weights": PenaltyWeights(**doc.get("weights", {}))})
