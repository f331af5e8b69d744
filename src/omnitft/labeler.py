"""Stable/volatile regime labeling.

Two labelers are provided. The canonical one scores a future window by its
max-minus-min fluctuation and thresholds it. The alternative fits a
two-state Gaussian HMM to the step-to-step differences of the whole series
and Viterbi-decodes a per-step state, naming the higher-variance state
volatile.

The HMM code is one batched core over a (rows, steps) array: Baum-Welch and
Viterbi step through time once for all rows, and each row stops at its own
convergence. `hmm_step_labels` labels a cohort by grouping its signals by
length and running each group as one batch; rows are never padded, because
numpy's pairwise sums block by row length and a padded row would round
differently. `hmm_fit` and `hmm_decode` are one-row calls into the same core,
and a row's result is the same bits whichever rows share its batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

STABLE = "stable"
VOLATILE = "volatile"

_SIGMA_FLOOR = 1e-6
_MIN_DIFFS = 10  # shortest diff signal the HMM is fitted to


class LabelerError(Exception):
    pass


class EmptySegment(LabelerError):
    pass


class EmptyScores(LabelerError):
    pass


def fluctuation_score(y_future: np.ndarray):
    """Spread (max minus min) of the future target segment along its last
    axis; same unit as y. A float for one segment, an array for a stack."""
    y = np.asarray(y_future, dtype=np.float64)
    if y.size == 0:
        raise EmptySegment("future segment has no steps")
    spread = y.max(axis=-1) - y.min(axis=-1)
    return float(spread) if spread.ndim == 0 else spread


def threshold_label(score, delta: float):
    """Volatile iff score strictly exceeds delta; a list of labels for an
    array of scores."""
    if delta < 0:
        raise LabelerError("delta must be nonnegative")
    return np.where(np.asarray(score) > delta, VOLATILE, STABLE).tolist()


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
    degenerate: bool = False  # single effective regime: constant signal, or a state EM collapsed

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


def _log_emissions(x: np.ndarray, means: np.ndarray, stds: np.ndarray) -> np.ndarray:
    """log N(x | mean_s, std_s) of both states: (rows, n) -> (rows, n, 2).

    log(std) is taken with math.log, whose rounding can differ from np.log's
    in the last bit; the fit's log-likelihoods are built on the former.
    """
    log_sd = np.array([[math.log(sd) for sd in row] for row in stds]).reshape(-1, 1, 2)
    z = (x[:, :, None] - means[:, None, :]) / stds[:, None, :]
    return -0.5 * z**2 - log_sd - 0.5 * math.log(2 * math.pi)


def _median_split(x: np.ndarray, spread: float):
    """Initial means and stds: low-|diff| samples seed state 0, high-|diff| samples state 1."""
    absx = np.abs(x)
    hard = (absx > np.median(absx)).astype(int)
    means = [x[hard == s].mean() if np.any(hard == s) else 0.0 for s in (0, 1)]
    stds = [max(x[hard == s].std(), _SIGMA_FLOOR) if np.any(hard == s) else spread for s in (0, 1)]
    return means, stds


def _baum_welch(x: np.ndarray, max_iter: int = 50, tol: float = 1e-6) -> list:
    """Baum-Welch EM on every row of x (rows, n) at once; HmmParams fields per row.

    Each E step runs scaled forward-backward (Rabiner 1989) over all active
    rows together. A row leaves the active set on its own: once its
    log-likelihood gains less than `tol`, or when its M step finds a state
    collapsed (no expected transition leaves it, or its std hits the floor),
    in which case it keeps the parameters scored last and is flagged
    degenerate. A constant row is flagged without fitting. Every reduction
    runs along one row, so a row's result does not depend on its batch.
    """
    rows, n = x.shape
    spread = x.max(axis=1) - x.min(axis=1)
    stay = 0.9
    trans = np.tile(np.array([[stay, 1 - stay], [1 - stay, stay]]), (rows, 1, 1))
    init = np.full((rows, 2), 0.5)
    means, stds = np.empty((rows, 2)), np.empty((rows, 2))
    degenerate = spread < 1e-12
    for r in range(rows):
        if degenerate[r]:  # constant signal: one effective regime, flag instead of fitting
            trans[r], means[r], stds[r] = 0.5, x[r, 0], _SIGMA_FLOOR
        else:
            means[r], stds[r] = _median_split(x[r], spread[r])
    lls = [[] for _ in range(rows)]

    active = np.flatnonzero(~degenerate)
    for _ in range(max_iter):
        if active.size == 0:
            break
        xa, ta = x[active], trans[active]
        log_b = _log_emissions(xa, means[active], stds[active])

        # scaled forward-backward
        alpha = np.zeros((active.size, n, 2))
        scale = np.zeros((active.size, n))
        b = np.exp(log_b - log_b.max(axis=2, keepdims=True))
        corr = log_b.max(axis=2)  # per-step log scaling pulled out of b
        alpha[:, 0] = init[active] * b[:, 0]
        scale[:, 0] = alpha[:, 0].sum(axis=1)
        alpha[:, 0] /= scale[:, 0, None]
        for t in range(1, n):
            alpha[:, t] = (alpha[:, t - 1, None, :] @ ta)[:, 0] * b[:, t]
            scale[:, t] = alpha[:, t].sum(axis=1)
            alpha[:, t] /= scale[:, t, None]
        ll = np.log(scale).sum(axis=1) + corr.sum(axis=1)
        for r, v in zip(active, ll):
            lls[r].append(float(v))

        beta = np.zeros((active.size, n, 2))
        beta[:, -1] = 1.0
        for t in range(n - 2, -1, -1):
            nxt = (b[:, t + 1] * beta[:, t + 1])[:, :, None]
            beta[:, t] = (ta @ nxt)[:, :, 0] / scale[:, t + 1, None]

        gamma = alpha * beta
        gamma /= gamma.sum(axis=2, keepdims=True)

        # expected transition counts: xi_t(i, j) for every t at once, summed
        xi = ((alpha[:, :-1, :, None] * ta[:, None]) * (b[:, 1:] * beta[:, 1:])[:, :, None, :]
              / scale[:, 1:, None, None]).sum(axis=1)

        # M step, only on the rows where every state has outgoing transitions
        counts = xi.sum(axis=2, keepdims=True)  # expected transitions out of each state
        ok = (counts > 0).all(axis=(1, 2))  # elsewhere the row would be 0/0
        degenerate[active[~ok]] = True
        sel = np.flatnonzero(ok)
        g = gamma[sel]
        w = g.sum(axis=1)
        mu = (g * xa[sel, :, None]).sum(axis=1) / w
        sd = np.sqrt((g * (xa[sel, :, None] - mu[:, None, :]) ** 2).sum(axis=1) / w)
        collapsed = (sd <= _SIGMA_FLOOR).any(axis=1)  # a state collapsed onto one sample
        degenerate[active[sel[collapsed]]] = True

        sel, keep = sel[~collapsed], ~collapsed
        upd = active[sel]
        g0 = gamma[sel, 0]
        init[upd] = g0 / g0.sum(axis=1, keepdims=True)
        tr = xi[sel] / np.maximum(counts[sel], 1e-300)
        trans[upd] = tr / tr.sum(axis=2, keepdims=True)
        means[upd], stds[upd] = mu[keep], sd[keep]

        active = np.array([r for r in upd if len(lls[r]) < 2 or lls[r][-1] - lls[r][-2] >= tol],
                          dtype=int)

    return [
        dict(transition=trans[r], means=means[r], stds=stds[r], initial=init[r],
             log_likelihoods=lls[r], degenerate=bool(degenerate[r]))
        for r in range(rows)
    ]


def hmm_fit(diff_signal, max_iter: int = 50, tol: float = 1e-6, seed: int = 0) -> HmmParams:
    """Baum-Welch EM for two Gaussian states over a differenced signal.

    Initialized from a two-way split of |diff| at its median. Stops once the
    log-likelihood improves by less than `tol` or after `max_iter` rounds;
    the per-iteration log-likelihood sequence is recorded and non-decreasing.
    A collapsed state (no expected transition leaves it, or its std hits the
    floor) stops the fit, flagged degenerate, with the parameters scored last.

    This is a one-row call into the batched core that `hmm_step_labels` runs
    over each group of equal-length signals; the result is the same bits as
    that row's result in any batch.
    """
    x = np.asarray(diff_signal, dtype=np.float64)
    if x.size < _MIN_DIFFS:
        raise LabelerError(f"need at least {_MIN_DIFFS} diff samples, got {x.size}")
    return HmmParams(**_baum_welch(x.reshape(1, -1), max_iter, tol)[0])


def _decode(x: np.ndarray, params: list) -> list:
    """Per-step labels of every row of x (rows, n), each under its own HmmParams.

    The max-product recursion runs over all rows together; a degenerate fit
    labels its row stable throughout.
    """
    labels = [[STABLE] * x.shape[1] for _ in params]
    live = [i for i, p in enumerate(params) if not p.degenerate]
    if not live:
        return labels
    rows, n = len(live), x.shape[1]
    fits = [params[i] for i in live]
    log_b = _log_emissions(x[live], np.array([p.means for p in fits]),
                           np.array([p.stds for p in fits]))
    log_t = np.log(np.maximum(np.array([p.transition for p in fits]), 1e-300))
    log_pi = np.log(np.maximum(np.array([p.initial for p in fits]), 1e-300))

    delta = np.zeros((rows, n, 2))
    back = np.zeros((rows, n, 2), dtype=int)
    delta[:, 0] = log_pi + log_b[:, 0]
    for t in range(1, n):
        cand = delta[:, t - 1, :, None] + log_t
        back[:, t] = cand.argmax(axis=1)
        delta[:, t] = cand.max(axis=1) + log_b[:, t]

    path = np.zeros((rows, n), dtype=int)
    path[:, -1] = delta[:, -1].argmax(axis=1)
    r = np.arange(rows)
    for t in range(n - 2, -1, -1):  # each step takes the best predecessor of the next
        path[:, t] = back[r, t + 1, path[:, t + 1]]

    for i, p, states in zip(live, fits, path):
        vol = p.volatile_state
        labels[i] = [VOLATILE if s == vol else STABLE for s in states]
    return labels


def hmm_decode(diff_signal, params: HmmParams) -> list:
    """Viterbi path over diff steps, mapped to per-step regime labels.

    The label at position t applies to the series value y[t+1] (diff index t
    compares y[t+1] to y[t]); callers prepend a stable label for y[0].
    """
    x = np.asarray(diff_signal, dtype=np.float64)
    return _decode(x.reshape(1, -1), [params])[0]


def overflows(x: np.ndarray) -> bool:
    """Whether a fit of x could overflow: state means lie in x's range and stds
    are at least `_SIGMA_FLOOR`, so no square it takes exceeds this sum."""
    with np.errstate(over="ignore", invalid="ignore"):
        return not np.isfinite(np.sum((2.0 / _SIGMA_FLOOR * x) ** 2))


def hmm_step_labels(signals) -> list:
    """Per-step labels of every diff signal: stable for y[0], then hmm_decode's labels.

    Signals of one length are fitted and decoded as one (rows, steps) batch,
    never padded, so each gets the labels that hmm_fit and hmm_decode give it
    alone. A signal that cannot be fitted (too few diffs, one that `overflows`,
    or a fit that raises LabelerError) is stable throughout.
    """
    xs = [np.asarray(s, dtype=np.float64) for s in signals]
    labels = [[STABLE] * (x.size + 1) for x in xs]
    by_len: dict = {}
    for i, x in enumerate(xs):
        if x.size >= _MIN_DIFFS and not overflows(x):
            by_len.setdefault(x.size, []).append(i)
    for group in by_len.values():
        batch = np.stack([xs[i] for i in group])
        fitted = []
        for i, fields in zip(group, _baum_welch(batch)):
            try:
                fitted.append((i, HmmParams(**fields)))
            except LabelerError:
                continue
        if not fitted:
            continue
        idx = [i for i, _ in fitted]
        steps = _decode(np.stack([xs[i] for i in idx]), [p for _, p in fitted])
        for i, path in zip(idx, steps):
            labels[i] = [STABLE] + path
    return labels


def hmm_window_label(step_labels, enc_len: int, start: int, horizon: int) -> str:
    """A window is volatile iff any of its horizon steps decodes volatile."""
    future = step_labels[start + enc_len : start + enc_len + horizon]
    return VOLATILE if VOLATILE in future else STABLE
