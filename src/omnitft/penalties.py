"""The three training regularizers, differentiable end to end.

* Frequency-aware embedding shrinkage: each embedding row pays an L2 price
  scaled by the inverse square root of its in-batch category frequency, so
  rare rows decay hard while frequent ones are barely touched. Batch
  frequencies are constants of the batch, never differentiated through.
* Group-entropy selection: per-step variable-selection weights are pooled
  into the three structural groups (unknown / known / observed), normalized
  onto the simplex, and penalized by their Shannon entropy so selection
  concentrates on one informative group at a time.
* Shock-aligned attention calibration: the head-averaged attention surface
  is compressed into a short-lag retro mass per decoder step, standardized,
  and pulled toward the standardized first-difference magnitude of the
  decoder representation.

All functions accept and return diffcore Tensors; plain arrays are lifted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import diffcore as dc
from .diffcore import Tensor
from .schema import NUMBER_AT_LEAST_0, check

_LOG_TINY = 1e-300  # keeps p*log(p) finite at exact zeros, 0*log(0) := 0


class PenaltyError(Exception):
    pass


class AllZeroFutureWeights(PenaltyError):
    pass


class TooShortHorizon(PenaltyError):
    pass


class LengthMismatch(PenaltyError):
    pass


@dataclass(frozen=True)
class PenaltyWeights:
    lambda_embed: float = 1e-3
    lambda_group: float = 1e-2
    lambda_shock: float = 1e-1

    def __post_init__(self):
        check(vars(self), WEIGHT_RULES, PenaltyError)


WEIGHT_RULES = dict.fromkeys(("lambda_embed", "lambda_group", "lambda_shock"), NUMBER_AT_LEAST_0)


# ---------------------------------------------------------------------------
# frequency-aware embedding shrinkage


def batch_frequencies(counts: np.ndarray) -> np.ndarray:
    """Category counts -> batch frequencies; all-absent features stay at 0."""
    counts = np.asarray(counts, dtype=np.float64)
    total = counts.sum()
    if total == 0:
        return np.zeros_like(counts)  # every row lands at the 1/sqrt(eps) cap
    return counts / total


def embed_row_penalty(row, p: float, eps: float) -> Tensor:
    """Squared row norm scaled by 1/sqrt(p + eps); p = 0 caps at 1/sqrt(eps)."""
    if not 0.0 <= p <= 1.0:
        raise PenaltyError(f"frequency p={p} outside [0, 1]")
    row = dc.as_tensor(row)
    return dc.reduce_sum(dc.square(row)) * (1.0 / np.sqrt(p + eps))


def c_embed(tables: dict, counts: dict, eps: float = 1e-6) -> Tensor:
    """Vocab-then-feature average of the per-row shrinkage terms.

    `tables` maps feature name to its (V, d) embedding Tensor, `counts` to
    the per-category batch counts. Frequencies enter as constants; only the
    rows themselves are differentiated.
    """
    if not tables:
        return Tensor(0.0)
    per_feature = []
    for name in tables:
        table = tables[name]
        p = batch_frequencies(counts[name])
        if p.shape[0] != table.shape[0]:
            raise PenaltyError(f"{name}: {p.shape[0]} counts for {table.shape[0]} rows")
        inv = 1.0 / np.sqrt(p + eps)
        rows_sq = dc.reduce_sum(dc.square(table), axis=-1)  # (V,)
        per_feature.append(dc.reduce_mean(rows_sq * Tensor(inv)))
    total = per_feature[0]
    for t in per_feature[1:]:
        total = total + t
    return total * (1.0 / len(per_feature))


# ---------------------------------------------------------------------------
# group-entropy variable selection


def group_distribution_past(weights, group_matrix, eps: float = 1e-6) -> Tensor:
    """Pool per-variable selection weights into the 3 groups and normalize.

    weights: (..., N) nonnegative; group_matrix: (3, N) binary one-hot
    columns. Output (..., 3) sums to at most 1, with deficit <= eps share.
    """
    w = dc.as_tensor(weights)
    g = np.asarray(group_matrix, dtype=np.float64)
    s = dc.matmul(w, Tensor(g.T))  # (..., 3)
    denom = dc.reduce_sum(s, axis=-1, keepdims=True) + eps
    return dc.div(s, denom)


def group_distribution_future(weights) -> Tensor:
    """Future-side group distribution: exactly (0, 1, 0).

    Known covariates are the only group structurally present over the
    horizon, so the whole selection mass lands there after normalization;
    the map is constant in the weights (zero gradient by construction).
    """
    w = dc.as_tensor(weights)
    if np.any(w.data < 0):
        raise PenaltyError("future selection weights must be nonnegative")
    totals = w.data.sum(axis=-1)
    if np.any(totals == 0.0):
        raise AllZeroFutureWeights("future selection weights sum to zero")
    out = np.zeros(w.shape[:-1] + (3,))
    out[..., 1] = 1.0
    return Tensor(out)


def entropy(p) -> Tensor:
    """Shannon entropy over the last axis, natural log, 0*log(0) = 0."""
    p = dc.as_tensor(p)
    logp = dc.log(p + _LOG_TINY)
    return -dc.reduce_sum(dc.mul(p, logp), axis=-1)


def c_group(p_past, p_future) -> Tensor:
    """Half the sum of time-averaged entropies of the two group streams.

    Each side is averaged over its own steps (and any batch dims); an empty
    future side (no known covariates) contributes zero.
    """
    h_past = dc.reduce_mean(dc.reshape(entropy(p_past), (-1,)))
    if p_future is None or dc.as_tensor(p_future).size == 0:
        return h_past * 0.5
    h_fut = dc.reduce_mean(dc.reshape(entropy(p_future), (-1,)))
    return (h_past + h_fut) * 0.5


# ---------------------------------------------------------------------------
# shock-aligned attention calibration


def retro_window_mask(T: int, window: int = 3) -> np.ndarray:
    """(T, T) mask selecting lags 1..window behind each row, self excluded."""
    idx = np.arange(T)
    lag = idx[:, None] - idx[None, :]
    return ((lag >= 1) & (lag <= window)).astype(np.float64)


def retro_mass(abar, window: int = 3) -> Tensor:
    """Attention mass each step places on its `window` nearest predecessors.

    abar: (..., T, T) causal row-stochastic surface. Output (..., T), one
    value per query row, each in [0, 1]; out-of-range lags contribute 0.
    """
    a = dc.as_tensor(abar)
    T = a.shape[-1]
    mask = retro_window_mask(T, window)
    return dc.reduce_sum(dc.mul(a, Tensor(mask)), axis=-1)


def rep_first_diff(v, anchor) -> Tensor:
    """Euclidean step-to-step change of the decoder representation.

    v: (..., H, d) decoder states; anchor: (..., d) the last encoder-side
    state, which the first decoder step is differenced against.
    """
    v = dc.as_tensor(v)
    anchor = dc.as_tensor(anchor)
    if v.shape[-2] < 1:
        raise TooShortHorizon("need at least one decoder step")
    prev = dc.concat([dc.reshape(anchor, anchor.shape[:-1] + (1, anchor.shape[-1])),
                      v[..., :-1, :]], axis=-2)
    return dc.l2_norm_rows(dc.sub(v, prev))


def standardize(x, eps_std: float = 1e-8):
    """Per-sequence zero-mean unit-std scaling along the last axis.

    Returns (standardized, constant_mask). Sequences whose population std
    falls below eps_std come back as all zeros with their mask entry set.
    """
    x = dc.as_tensor(x)
    if x.shape[-1] < 2:
        raise PenaltyError("standardize needs sequences of length >= 2")
    mu = dc.reduce_mean(x, axis=-1, keepdims=True)
    centered = dc.sub(x, mu)
    var = dc.reduce_mean(dc.square(centered), axis=-1, keepdims=True)
    # 1e-300 keeps sqrt'(0) finite for flagged-constant rows; the shift is
    # far below any representable effect on non-degenerate sigmas
    sigma = dc.sqrt(var + 1e-300)
    constant = np.asarray(sigma.data[..., 0] < eps_std)
    keep = Tensor((~constant).astype(np.float64)[..., None])
    z = dc.div(centered, sigma + eps_std)
    return dc.mul(z, keep), constant


def c_shock(a_tilde, s_hat, constant_mask=None) -> Tensor:
    """Mean squared gap between the standardized retro-mass and
    representation-change series over decoder steps.

    Sequences flagged constant on either side contribute zero, having no
    alignable dynamics.
    """
    a = dc.as_tensor(a_tilde)
    s = dc.as_tensor(s_hat)
    if a.shape != s.shape:
        raise LengthMismatch(f"{a.shape} vs {s.shape}")
    gap_sq = dc.square(dc.sub(a, s))
    if constant_mask is not None:
        keep = (~np.asarray(constant_mask, dtype=bool)).astype(np.float64)[..., None]
        gap_sq = dc.mul(gap_sq, Tensor(np.broadcast_to(keep, gap_sq.shape).copy()))
    return dc.reduce_mean(dc.reshape(gap_sq, (-1,)))
