import numpy as np
import pytest

from omnitft import labeler
from omnitft.ingest import generate_synthetic, synthetic_schema
from omnitft.labeler import (
    STABLE,
    VOLATILE,
    EmptyScores,
    EmptySegment,
    default_delta,
    fluctuation_score,
    hmm_decode,
    hmm_fit,
    threshold_label,
)


def test_fluctuation_score_hand_value():
    assert fluctuation_score([5, 3, 9, 4]) == 6.0


def test_fluctuation_score_constant_and_singleton():
    assert fluctuation_score([4.2, 4.2, 4.2]) == 0.0
    assert fluctuation_score([7.0]) == 0.0


def test_fluctuation_score_empty():
    with pytest.raises(EmptySegment):
        fluctuation_score([])


def test_threshold_strictness():
    assert threshold_label(6.0, 5.0) == VOLATILE
    assert threshold_label(5.0, 5.0) == STABLE
    assert threshold_label(0.0, 0.0) == STABLE


def test_threshold_monotone_in_score():
    labels = [threshold_label(s, 2.0) for s in np.linspace(0, 5, 30)]
    flips = sum(1 for a, b in zip(labels, labels[1:]) if a != b)
    assert flips <= 1 and labels[0] == STABLE and labels[-1] == VOLATILE


def test_scaling_invariance():
    rng = np.random.default_rng(0)
    y = rng.normal(size=12)
    c = 3.7
    s = fluctuation_score(y)
    assert np.isclose(fluctuation_score(c * y), c * s)
    assert threshold_label(s, 1.0) == threshold_label(c * s, c * 1.0)


def test_default_delta_degenerate():
    assert default_delta([4.0] * 10) == 4.0


def test_default_delta_nearest_rank():
    assert default_delta(list(range(1, 101))) == 75


def test_default_delta_quarter_volatile():
    rng = np.random.default_rng(1)
    scores = rng.uniform(0, 1, size=4000)
    d = default_delta(scores)
    frac = np.mean(scores > d)
    assert abs(frac - 0.25) < 0.02


def test_default_delta_empty():
    with pytest.raises(EmptyScores):
        default_delta([])


# ---------------------------------------------------------------------------
# HMM


def _two_regime_diffs(n, rng, ratio=10.0):
    """Alternating runs of low/high variance noise plus the true states."""
    states = np.zeros(n, dtype=int)
    pos = 0
    while pos < n:
        run = int(rng.integers(20, 60))
        states[pos : pos + run] = int(rng.random() < 0.3)
        pos += run
    sigma = np.where(states == 1, ratio, 1.0) * 0.2
    return sigma * rng.standard_normal(n), states


def test_hmm_iid_no_real_regime():
    rng = np.random.default_rng(2)
    params = hmm_fit(rng.standard_normal(600), seed=0)
    hi, lo = params.stds.max(), params.stds.min()
    assert hi / lo < 3.0


def test_hmm_two_regime_variance_ratio():
    rng = np.random.default_rng(3)
    diffs, _ = _two_regime_diffs(800, rng)
    params = hmm_fit(diffs, seed=0)
    assert (params.stds.max() / params.stds.min()) ** 2 > 4.0


def test_hmm_loglik_non_decreasing():
    rng = np.random.default_rng(4)
    diffs, _ = _two_regime_diffs(500, rng)
    params = hmm_fit(diffs, seed=0)
    lls = np.array(params.log_likelihoods)
    assert len(lls) >= 2
    assert np.all(np.diff(lls) >= -1e-9)


def test_hmm_decode_accuracy():
    rng = np.random.default_rng(5)
    diffs, states = _two_regime_diffs(1200, rng)
    params = hmm_fit(diffs, seed=0)
    decoded = np.array([lab == VOLATILE for lab in hmm_decode(diffs, params)], dtype=int)
    acc = np.mean(decoded == states)
    assert acc >= 0.9


def test_hmm_degenerate_constant_signal():
    params = hmm_fit(np.zeros(50), seed=0)
    assert params.degenerate
    labels = hmm_decode(np.zeros(50), params)
    assert set(labels) == {STABLE}


def test_hmm_state_with_no_outgoing_transitions_is_degenerate():
    # p0058's volatile state collapses onto its last diff, leaving that
    # state's transition row without expected counts
    schema = synthetic_schema()
    series, _ = generate_synthetic(100, schema, seed=8, min_steps=72, max_steps=72)
    assert series[58].patient_id == "p0058"
    diffs = np.diff(series[58].values[:, schema.column("y")])
    params = hmm_fit(diffs, seed=0)
    assert params.degenerate
    assert len(params.log_likelihoods) < 50
    for arr in (params.transition, params.means, params.stds, params.initial,
                params.log_likelihoods):
        assert np.isfinite(arr).all()
    assert set(hmm_decode(diffs, params)) == {STABLE}


def test_hmm_params_reject_non_finite_transition():
    with pytest.raises(labeler.LabelerError, match="finite"):
        labeler.HmmParams(np.full((2, 2), np.nan), np.zeros(2), np.ones(2),
                          np.array([0.5, 0.5]), [])


def test_hmm_decode_deterministic():
    rng = np.random.default_rng(6)
    diffs, _ = _two_regime_diffs(300, rng)
    params = hmm_fit(diffs, seed=0)
    assert hmm_decode(diffs, params) == hmm_decode(diffs, params)


def test_hmm_short_signal_rejected():
    with pytest.raises(labeler.LabelerError):
        hmm_fit(np.ones(5))


def test_transition_rows_stochastic():
    rng = np.random.default_rng(7)
    diffs, _ = _two_regime_diffs(400, rng)
    params = hmm_fit(diffs, seed=0)
    np.testing.assert_allclose(params.transition.sum(axis=1), 1.0, atol=1e-9)
    assert np.all(params.stds > 0)


def test_hmm_window_label():
    steps = [STABLE] * 10 + [VOLATILE] + [STABLE] * 10
    assert labeler.hmm_window_label(steps, enc_len=6, start=2, horizon=4) == VOLATILE
    assert labeler.hmm_window_label(steps, enc_len=6, start=9, horizon=4) == STABLE
