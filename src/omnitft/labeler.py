"""Stable/volatile regime labeling.

Two labelers are provided. The canonical one scores a future window by its
max-minus-min fluctuation and thresholds it. The alternative fits a
two-state Gaussian HMM to the step-to-step differences of the whole series
and Viterbi-decodes a per-step state, naming the higher-variance state
volatile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

STABLE = "stable"
VOLATILE = "volatile"

_SIGMA_FLOOR = 1e-6


class LabelerError(Exception):
    pass


class EmptySegment(LabelerError):
    pass


class EmptyScores(LabelerError):
    pass


def fluctuation_score(y_future: np.ndarray) -> float:
    """Spread (max minus min) of the future target segment; same unit as y."""
    y = np.asarray(y_future, dtype=np.float64)
    if y.size == 0:
        raise EmptySegment("future segment has no steps")
    return float(y.max() - y.min())


def threshold_label(score: float, delta: float) -> str:
    """Volatile iff score strictly exceeds delta."""
    if delta < 0:
        raise LabelerError("delta must be nonnegative")
    return VOLATILE if score > delta else STABLE


def default_delta(training_scores) -> float:
    """75th percentile (nearest rank) of training-window scores.

    A configured cutoff always takes precedence; this default just guarantees
    a nonempty volatile class on non-constant data.
    """
    scores = np.asarray(list(training_scores), dtype=np.float64)
    if scores.size == 0:
        raise EmptyScores("cannot derive a cutoff from zero scores")
    ordered = np.sort(scores)
    rank = max(1, math.ceil(0.75 * ordered.size))
    return float(ordered[rank - 1])


# ---------------------------------------------------------------------------
# two-state Gaussian HMM on the differenced signal


@dataclass
class HmmParams:
    transition: np.ndarray  # 2x2 row-stochastic
    means: np.ndarray  # emission means, shape (2,)
    stds: np.ndarray  # emission stds, shape (2,), floored > 0
    initial: np.ndarray  # shape (2,), on the simplex
    log_likelihoods: list  # per-iteration training log-likelihood
    degenerate: bool = False  # single effective regime: constant signal, or a state EM emptied

    def __post_init__(self):
        self.transition = np.asarray(self.transition, dtype=np.float64)
        self.means = np.asarray(self.means, dtype=np.float64)
        self.stds = np.asarray(self.stds, dtype=np.float64)
        self.initial = np.asarray(self.initial, dtype=np.float64)
        if not np.all(np.abs(self.transition.sum(axis=1) - 1.0) <= 1e-9):  # NaN fails too
            raise LabelerError("transition rows must be finite and sum to 1")
        if np.any(self.stds <= 0):
            raise LabelerError("emission stds must be positive")

    @property
    def volatile_state(self) -> int:
        return int(np.argmax(self.stds))


def _log_gauss(x: np.ndarray, mu: float, sigma: float) -> np.ndarray:
    return -0.5 * ((x - mu) / sigma) ** 2 - math.log(sigma) - 0.5 * math.log(2 * math.pi)


def hmm_fit(diff_signal, max_iter: int = 50, tol: float = 1e-6, seed: int = 0) -> HmmParams:
    """Baum-Welch EM for two Gaussian states over a differenced signal.

    Initialized from a two-way split of |diff| at its median. Stops once the
    log-likelihood improves by less than `tol` or after `max_iter` rounds;
    the per-iteration log-likelihood sequence is recorded and non-decreasing.
    A state no expected transition leaves (one collapsed onto the last sample)
    stops the fit, flagged degenerate, with the parameters scored last.
    """
    x = np.asarray(diff_signal, dtype=np.float64)
    n = x.size
    if n < 10:
        raise LabelerError(f"need at least 10 diff samples, got {n}")

    spread = x.max() - x.min()
    if spread < 1e-12:
        # constant signal: one effective regime, flag instead of fitting
        params = HmmParams(
            transition=np.array([[0.5, 0.5], [0.5, 0.5]]),
            means=np.array([x[0], x[0]]),
            stds=np.array([_SIGMA_FLOOR, _SIGMA_FLOOR]),
            initial=np.array([0.5, 0.5]),
            log_likelihoods=[],
            degenerate=True,
        )
        return params

    # init: low-|diff| samples seed state 0, high-|diff| samples state 1
    absx = np.abs(x)
    hard = (absx > np.median(absx)).astype(int)
    means = np.array([x[hard == s].mean() if np.any(hard == s) else 0.0 for s in (0, 1)])
    stds = np.array(
        [max(x[hard == s].std(), _SIGMA_FLOOR) if np.any(hard == s) else spread for s in (0, 1)]
    )
    stay = 0.9
    trans = np.array([[stay, 1 - stay], [1 - stay, stay]])
    init = np.array([0.5, 0.5])

    lls, degenerate = [], False
    for _ in range(max_iter):
        log_b = np.stack([_log_gauss(x, means[s], stds[s]) for s in (0, 1)], axis=1)

        # scaled forward-backward
        alpha = np.zeros((n, 2))
        scale = np.zeros(n)
        b = np.exp(log_b - log_b.max(axis=1, keepdims=True))
        corr = log_b.max(axis=1)  # per-step log scaling pulled out of b
        alpha[0] = init * b[0]
        scale[0] = alpha[0].sum()
        alpha[0] /= scale[0]
        for t in range(1, n):
            alpha[t] = (alpha[t - 1] @ trans) * b[t]
            scale[t] = alpha[t].sum()
            alpha[t] /= scale[t]
        ll = float(np.log(scale).sum() + corr.sum())
        lls.append(ll)

        beta = np.zeros((n, 2))
        beta[-1] = 1.0
        for t in range(n - 2, -1, -1):
            beta[t] = trans @ (b[t + 1] * beta[t + 1]) / scale[t + 1]

        gamma = alpha * beta
        gamma /= gamma.sum(axis=1, keepdims=True)

        # expected transition counts: xi_t(i, j) for every t at once, summed
        xi = ((alpha[:-1, :, None] * trans) * (b[1:] * beta[1:])[:, None, :]
              / scale[1:, None, None]).sum(axis=0)

        # M step
        counts = xi.sum(axis=1, keepdims=True)  # expected transitions out of each state
        if not (counts > 0).all():  # the row would be 0/0
            degenerate = True
            break
        init = gamma[0] / gamma[0].sum()
        trans = xi / np.maximum(counts, 1e-300)
        trans /= trans.sum(axis=1, keepdims=True)
        w = gamma.sum(axis=0)
        means = (gamma * x[:, None]).sum(axis=0) / w
        var = (gamma * (x[:, None] - means[None, :]) ** 2).sum(axis=0) / w
        stds = np.maximum(np.sqrt(var), _SIGMA_FLOOR)

        if len(lls) >= 2 and lls[-1] - lls[-2] < tol:
            break

    return HmmParams(
        transition=trans,
        means=means,
        stds=stds,
        initial=init,
        log_likelihoods=lls,
        degenerate=degenerate,
    )


def hmm_decode(diff_signal, params: HmmParams) -> list:
    """Viterbi path over diff steps, mapped to per-step regime labels.

    The label at position t applies to the series value y[t+1] (diff index t
    compares y[t+1] to y[t]); callers prepend a stable label for y[0].
    """
    x = np.asarray(diff_signal, dtype=np.float64)
    n = x.size
    if params.degenerate:
        return [STABLE] * n

    log_b = np.stack([_log_gauss(x, params.means[s], params.stds[s]) for s in (0, 1)], axis=1)
    log_t = np.log(np.maximum(params.transition, 1e-300))
    log_pi = np.log(np.maximum(params.initial, 1e-300))

    delta = np.zeros((n, 2))
    back = np.zeros((n, 2), dtype=int)
    delta[0] = log_pi + log_b[0]
    for t in range(1, n):
        cand = delta[t - 1][:, None] + log_t
        back[t] = cand.argmax(axis=0)
        delta[t] = cand.max(axis=0) + log_b[t]

    path = np.zeros(n, dtype=int)
    path[-1] = delta[-1].argmax()
    for t in range(n - 2, -1, -1):
        path[t] = back[t + 1][path[t]]

    vol = params.volatile_state
    return [VOLATILE if s == vol else STABLE for s in path]


def hmm_window_label(step_labels, enc_len: int, start: int, horizon: int) -> str:
    """A window is volatile iff any of its horizon steps decodes volatile."""
    future = step_labels[start + enc_len : start + enc_len + horizon]
    return VOLATILE if VOLATILE in future else STABLE
