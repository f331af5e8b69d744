import numpy as np
import pytest
from _hmm_oracle import oracle_decode, oracle_fit, oracle_step_labels

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


@pytest.mark.parametrize("seed,patient", [(7, 23), (8, 60)])
def test_hmm_state_collapsed_onto_one_sample_is_degenerate(seed, patient):
    # one state's std falls to the floor on a single diff; argmax of the stds
    # would then name the broad state volatile and label nearly every step so
    schema = synthetic_schema()
    series, _ = generate_synthetic(100, schema, seed=seed, min_steps=72, max_steps=72)
    assert series[patient].patient_id == f"p{patient:04d}"
    diffs = np.diff(series[patient].values[:, schema.column("y")])
    params = hmm_fit(diffs, seed=0)
    assert params.degenerate
    assert np.all(params.stds > labeler._SIGMA_FLOOR)  # the parameters scored last
    assert np.all(np.diff(params.log_likelihoods) >= -1e-9)
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


def _joint_log_prob(x, params, states):
    """log p(x, states) of one state path under params, step by step."""
    def log_b(t, s):
        z = (x[t] - params.means[s]) / params.stds[s]
        return -0.5 * z * z - np.log(params.stds[s]) - 0.5 * np.log(2 * np.pi)

    total = np.log(params.initial[states[0]]) + log_b(0, states[0])
    for t in range(1, len(x)):
        total += np.log(params.transition[states[t - 1], states[t]]) + log_b(t, states[t])
    return total


def test_decoded_path_is_the_viterbi_optimum():
    # every path of short signals, brute force; rows decoded together and alone
    import itertools

    rng = np.random.default_rng(11)
    for n in (2, 3, 5, 8):
        xs = rng.normal(scale=1.5, size=(12, n))
        fits = [labeler.HmmParams(rng.dirichlet(np.ones(2), size=2), rng.normal(size=2),
                                  rng.uniform(0.3, 2.0, size=2), rng.dirichlet(np.ones(2)), [])
                for _ in xs]
        batched = labeler._decode(xs, fits)
        assert batched.shape == xs.shape and batched.dtype == bool
        for x, params, flags in zip(xs, fits, batched):
            labels = hmm_decode(x, params)
            assert labels == [VOLATILE if f else STABLE for f in flags]
            vol = params.volatile_state
            states = [vol if lab == VOLATILE else 1 - vol for lab in labels]
            best = max(_joint_log_prob(x, params, p) for p in itertools.product((0, 1), repeat=n))
            assert _joint_log_prob(x, params, states) >= best - 1e-9 * abs(best)


def test_hmm_short_signal_rejected():
    with pytest.raises(labeler.LabelerError):
        hmm_fit(np.ones(5))


def test_transition_rows_stochastic():
    rng = np.random.default_rng(7)
    diffs, _ = _two_regime_diffs(400, rng)
    params = hmm_fit(diffs, seed=0)
    np.testing.assert_allclose(params.transition.sum(axis=1), 1.0, atol=1e-9)
    assert np.all(params.stds > 0)


def test_horizon_flags_equal_a_per_window_loop():
    def per_window(flags, enc_len, horizon):
        n_windows = len(flags) - enc_len - horizon + 1
        return [any(flags[s + enc_len : s + enc_len + horizon]) for s in range(max(n_windows, 0))]

    steps = np.zeros(21, dtype=bool)
    steps[10] = True  # one volatile step
    got = labeler.horizon_flags(steps, enc_len=6, horizon=4)
    assert got.dtype == bool and got.shape == (12,)
    assert got[2] and not got[9]  # horizons 8..11 and 15..18
    assert np.flatnonzero(got).tolist() == [1, 2, 3, 4]

    rng = np.random.default_rng(3)
    for enc_len, horizon in ((1, 1), (6, 1), (6, 3), (12, 4), (3, 9)):
        for n in (0, 1, enc_len + horizon - 1, enc_len + horizon, enc_len + horizon + 1, 40, 97):
            for p in (0.0, 0.05, 0.5, 1.0):
                flags = rng.random(n) < p
                got = labeler.horizon_flags(flags, enc_len, horizon)
                assert got.tolist() == per_window(flags, enc_len, horizon), (enc_len, horizon, n)
                if n < enc_len + horizon:  # shorter than one window
                    assert got.shape == (0,)


# ---------------------------------------------------------------------------
# the batched HMM core against the per-patient fit it replaced


def _assert_same_bits(got, want):
    for name in ("transition", "means", "stds", "initial"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
    assert got.log_likelihoods == want.log_likelihoods
    assert got.degenerate == want.degenerate


@pytest.fixture(scope="module")
def mixed_signals():
    """Diff signals of 71, 40 and 25 steps, a constant one, a too-short one
    and the two kinds of degenerate fit, interleaved."""
    schema = synthetic_schema()
    col = schema.column("y")
    seven, _ = generate_synthetic(100, schema, seed=7, min_steps=72, max_steps=72)
    eight, _ = generate_synthetic(100, schema, seed=8, min_steps=72, max_steps=72)
    rng = np.random.default_rng(12)
    return [
        np.diff(seven[0].values[:, col]),
        _two_regime_diffs(40, rng)[0],
        np.diff(eight[58].values[:, col]),  # a state left with no outgoing transitions
        np.zeros(25),  # constant
        np.diff(seven[1].values[:, col]),
        rng.standard_normal(6),  # fewer than 10 diffs
        _two_regime_diffs(25, rng)[0],
        np.diff(seven[23].values[:, col]),  # a state's std collapses to the floor
        _two_regime_diffs(40, rng)[0],
        np.diff(seven[37].values[:, col]),  # np.log(std) would move its log-likelihood
        _two_regime_diffs(25, rng)[0],
    ]


def test_mixed_signals_cover_every_kind_of_fit(mixed_signals):
    assert sorted({x.size for x in mixed_signals}) == [6, 25, 40, 71]
    assert oracle_fit(mixed_signals[2]).degenerate  # p0058 of seed 8
    assert oracle_fit(mixed_signals[7]).degenerate  # p0023 of seed 7
    assert oracle_fit(mixed_signals[3]).degenerate  # constant
    assert not oracle_fit(mixed_signals[0]).degenerate


def test_batched_fit_equals_per_patient_fit_bit_for_bit(mixed_signals):
    by_len = {}
    for x in mixed_signals:
        if x.size >= 10:
            by_len.setdefault(x.size, []).append(x)
    for group in by_len.values():
        fits = labeler._baum_welch(np.stack(group))
        for x, fields in zip(group, fits):
            want = oracle_fit(x)
            _assert_same_bits(labeler.HmmParams(**fields), want)
            _assert_same_bits(hmm_fit(x, seed=0), want)
            assert hmm_decode(x, want) == oracle_decode(x, want)


def test_step_labels_equal_per_patient_labels(mixed_signals):
    flags, unfitted = labeler.hmm_step_flags(mixed_signals)
    assert unfitted == []
    assert all(f.dtype == bool and f.size == x.size + 1 for f, x in zip(flags, mixed_signals))
    got = [[VOLATILE if v else STABLE for v in f] for f in flags]
    assert got == [oracle_step_labels(x) for x in mixed_signals]
    assert got[5] == [STABLE] * 7  # too short to fit
    assert any(VOLATILE in labels for labels in got)


def test_step_flags_leave_overflowing_signals_unfitted(mixed_signals):
    # one overflowing signal of each kind: long enough to fit, and too short
    huge = [mixed_signals[0].copy(), mixed_signals[5].copy()]
    huge[0][3] = huge[1][2] = 1e200
    signals = [huge[0], mixed_signals[1], huge[1], mixed_signals[4]]
    flags, unfitted = labeler.hmm_step_flags(signals)
    assert unfitted == [0, 2]
    assert not flags[0].any() and not flags[2].any()
    whole, _ = labeler.hmm_step_flags(mixed_signals)
    assert flags[1].tolist() == whole[1].tolist() and flags[3].tolist() == whole[4].tolist()


def test_row_result_does_not_depend_on_its_batch(mixed_signals):
    group = np.stack([x for x in mixed_signals if x.size == 71])
    alone = [labeler._baum_welch(row[None])[0] for row in group]
    for fits in (labeler._baum_welch(group), labeler._baum_welch(group[::-1])[::-1]):
        for got, want in zip(fits, alone):
            _assert_same_bits(labeler.HmmParams(**got), labeler.HmmParams(**want))
    whole = [f.tolist() for f in labeler.hmm_step_flags(mixed_signals)[0]]
    for i in range(len(mixed_signals)):
        assert [f.tolist() for f in labeler.hmm_step_flags([mixed_signals[i]])[0]] == [whole[i]]
    assert [f.tolist() for f in labeler.hmm_step_flags(mixed_signals[::-1])[0]] == whole[::-1]
