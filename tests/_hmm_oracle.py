"""The per-patient HMM fit and decoder as they were before the batched core.

Tests compare the batched labeler against these bit for bit. The decoder
backtracks through the decoded states, as a Viterbi decoder does.
"""

import math

import numpy as np

from omnitft.labeler import _SIGMA_FLOOR, STABLE, VOLATILE, HmmParams, LabelerError


def _oracle_log_gauss(x, mu, sigma):
    return -0.5 * ((x - mu) / sigma) ** 2 - math.log(sigma) - 0.5 * math.log(2 * math.pi)


def oracle_fit(diff_signal, max_iter=50, tol=1e-6):
    """The per-patient Baum-Welch that the batched core replaced, as it was."""
    x = np.asarray(diff_signal, dtype=np.float64)
    n = x.size
    if n < 10:
        raise LabelerError(f"need at least 10 diff samples, got {n}")
    spread = x.max() - x.min()
    if spread < 1e-12:
        return HmmParams(
            transition=np.array([[0.5, 0.5], [0.5, 0.5]]),
            means=np.array([x[0], x[0]]),
            stds=np.array([_SIGMA_FLOOR, _SIGMA_FLOOR]),
            initial=np.array([0.5, 0.5]),
            log_likelihoods=[],
            degenerate=True,
        )
    absx = np.abs(x)
    hard = (absx > np.median(absx)).astype(int)
    means = np.array([x[hard == s].mean() if np.any(hard == s) else 0.0 for s in (0, 1)])
    stds = np.array([max(x[hard == s].std(), _SIGMA_FLOOR) if np.any(hard == s)
                     else spread for s in (0, 1)])
    stay = 0.9
    trans = np.array([[stay, 1 - stay], [1 - stay, stay]])
    init = np.array([0.5, 0.5])
    lls, degenerate = [], False
    for _ in range(max_iter):
        log_b = np.stack([_oracle_log_gauss(x, means[s], stds[s]) for s in (0, 1)], axis=1)
        alpha = np.zeros((n, 2))
        scale = np.zeros(n)
        b = np.exp(log_b - log_b.max(axis=1, keepdims=True))
        corr = log_b.max(axis=1)
        alpha[0] = init * b[0]
        scale[0] = alpha[0].sum()
        alpha[0] /= scale[0]
        for t in range(1, n):
            alpha[t] = (alpha[t - 1] @ trans) * b[t]
            scale[t] = alpha[t].sum()
            alpha[t] /= scale[t]
        lls.append(float(np.log(scale).sum() + corr.sum()))
        beta = np.zeros((n, 2))
        beta[-1] = 1.0
        for t in range(n - 2, -1, -1):
            beta[t] = trans @ (b[t + 1] * beta[t + 1]) / scale[t + 1]
        gamma = alpha * beta
        gamma /= gamma.sum(axis=1, keepdims=True)
        xi = ((alpha[:-1, :, None] * trans) * (b[1:] * beta[1:])[:, None, :]
              / scale[1:, None, None]).sum(axis=0)
        counts = xi.sum(axis=1, keepdims=True)
        if not (counts > 0).all():
            degenerate = True
            break
        w = gamma.sum(axis=0)
        mu = (gamma * x[:, None]).sum(axis=0) / w
        sd = np.sqrt((gamma * (x[:, None] - mu[None, :]) ** 2).sum(axis=0) / w)
        if np.any(sd <= _SIGMA_FLOOR):
            degenerate = True
            break
        init = gamma[0] / gamma[0].sum()
        trans = xi / np.maximum(counts, 1e-300)
        trans /= trans.sum(axis=1, keepdims=True)
        means, stds = mu, sd
        if len(lls) >= 2 and lls[-1] - lls[-2] < tol:
            break
    return HmmParams(transition=trans, means=means, stds=stds, initial=init,
                             log_likelihoods=lls, degenerate=degenerate)


def oracle_decode(diff_signal, params):
    """The per-patient decoder that the batched core replaced, its backtrack fixed."""
    x = np.asarray(diff_signal, dtype=np.float64)
    n = x.size
    if params.degenerate:
        return [STABLE] * n
    log_b = np.stack([_oracle_log_gauss(x, params.means[s], params.stds[s]) for s in (0, 1)],
                     axis=1)
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
        path[t] = back[t + 1][path[t + 1]]
    vol = params.volatile_state
    return [VOLATILE if s == vol else STABLE for s in path]


def oracle_step_labels(diff_signal):
    """What the label command gave one patient before the batched core."""
    try:
        params = oracle_fit(diff_signal)
        return [STABLE] + oracle_decode(diff_signal, params)
    except LabelerError:
        return [STABLE] * (len(diff_signal) + 1)
