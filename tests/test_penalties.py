import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _gradtools import per_coord_rel_errors
from omnitft import diffcore as dc
from omnitft import penalties as pen
from omnitft.diffcore import Tensor


def test_penalty_weights_defaults():
    w = pen.PenaltyWeights()
    assert (w.lambda_embed, w.lambda_group, w.lambda_shock) == (1e-3, 1e-2, 1e-1)
    with pytest.raises(pen.PenaltyError):
        pen.PenaltyWeights(lambda_embed=-1.0)


# ---------------------------------------------------------------------------
# embedding shrinkage


def test_embed_row_penalty_hand_value():
    out = pen.embed_row_penalty(Tensor([3.0, 4.0]), p=0.25, eps=0.0)
    assert out.item() == 25.0 / 0.5


def test_embed_row_penalty_zero_row():
    for p in (0.0, 0.3, 1.0):
        assert pen.embed_row_penalty(Tensor([0.0, 0.0, 0.0]), p, 1e-6).item() == 0.0


def test_embed_row_penalty_rare_cap():
    out = pen.embed_row_penalty(Tensor([3.0, 4.0]), p=0.0, eps=1e-6)
    np.testing.assert_allclose(out.item(), 25.0 * 1000.0)


def test_c_embed_zero_tables():
    tables = {"a": Tensor(np.zeros((4, 3)), requires_grad=True)}
    counts = {"a": np.array([2, 1, 0, 1])}
    assert pen.c_embed(tables, counts, eps=1e-6).item() == 0.0


def test_c_embed_single_row_hand_value():
    tables = {"a": Tensor(np.array([[3.0, 4.0]]), requires_grad=True)}
    counts = {"a": np.array([7])}  # p = 1
    assert pen.c_embed(tables, counts, eps=0.0).item() == 25.0


def test_c_embed_gradient_matches_fd():
    rng = np.random.default_rng(0)
    w0 = rng.normal(size=(5, 3))
    counts = {"a": np.array([4, 0, 1, 2, 0])}

    def f(t):
        return pen.c_embed({"a": t}, counts, eps=1e-6)

    err = per_coord_rel_errors(f, Tensor(w0, requires_grad=True), range(w0.size), (1e-5,))
    assert err < 1e-6


def test_row_gradient_identity():
    # backward of the un-averaged row term must be 2 W[k,:] / sqrt(p + eps)
    rng = np.random.default_rng(1)
    for _ in range(100):
        row = rng.normal(size=4)
        p = float(rng.uniform(0, 1))
        eps = 1e-6
        t = Tensor(row.copy(), requires_grad=True)
        dc.backward(pen.embed_row_penalty(t, p, eps))
        expect = 2.0 * row / np.sqrt(p + eps)
        rel = np.abs(t.grad - expect) / (np.abs(expect) + 1e-300)
        assert rel.max() <= 1e-12


def test_c_embed_all_absent_feature_rows_at_cap():
    # a feature absent from the batch keeps uniform-zero frequencies and
    # every row pays the 1/sqrt(eps) ceiling
    rows = np.array([[1.0, 0.0], [0.0, 2.0]])
    tables = {"gone": Tensor(rows)}
    counts = {"gone": np.zeros(2, dtype=int)}
    got = pen.c_embed(tables, counts, eps=1e-6).item()
    np.testing.assert_allclose(got, 1000.0 * (1.0 + 4.0) / 2.0)


def test_c_embed_invariant_to_empty_zero_feature():
    rng = np.random.default_rng(2)
    w = rng.normal(size=(4, 3))
    tables = {"a": Tensor(w)}
    counts = {"a": np.array([1, 2, 3, 4])}
    base = pen.c_embed(tables, counts, 1e-6).item()
    tables2 = {"a": Tensor(w), "pad": Tensor(np.zeros((9, 3)))}
    counts2 = {**counts, "pad": np.zeros(9, dtype=int)}
    with_pad = pen.c_embed(tables2, counts2, 1e-6).item()
    # the zero feature contributes 0, the feature average halves the total
    np.testing.assert_allclose(with_pad, base / 2)


def test_c_embed_large_vocab_does_not_dominate():
    # rows of equal energy at uniform frequency: the within-feature mean
    # keeps the term at K*sqrt(V); a sum would scale as K*V^{3/2}
    def value(v):
        rows = np.tile([[3.0, 4.0]], (v, 1))
        return pen.c_embed({"f": Tensor(rows)}, {"f": np.ones(v, dtype=int)}, 0.0).item()

    ratio = value(16) / value(4)
    np.testing.assert_allclose(ratio, 2.0, rtol=1e-9)  # sqrt(16/4), not 16/4


def test_c_embed_feature_average_not_sum():
    rng = np.random.default_rng(3)
    wa, wb = rng.normal(size=(3, 2)), rng.normal(size=(5, 2))
    ca, cb = np.array([1, 2, 0]), np.array([1, 1, 1, 0, 2])
    alone_a = pen.c_embed({"a": Tensor(wa)}, {"a": ca}, 1e-6).item()
    alone_b = pen.c_embed({"b": Tensor(wb)}, {"b": cb}, 1e-6).item()
    both = pen.c_embed({"a": Tensor(wa), "b": Tensor(wb)}, {"a": ca, "b": cb}, 1e-6).item()
    np.testing.assert_allclose(both, (alone_a + alone_b) / 2, rtol=1e-12)


# ---------------------------------------------------------------------------
# group entropy


G_ID = np.eye(3)


def test_group_distribution_past_one_observed_var():
    g = np.zeros((3, 4))
    g[2, :] = 1.0  # all four variables observed
    w = np.array([0.0, 0.0, 1.0, 0.0])
    p = pen.group_distribution_past(w, g, eps=1e-6)
    np.testing.assert_allclose(p.data, [0, 0, 1], atol=2e-6)


def test_group_distribution_past_uniform():
    w = np.array([1 / 3, 1 / 3, 1 / 3])
    p = pen.group_distribution_past(w, G_ID, eps=1e-6)
    np.testing.assert_allclose(p.data, 1 / 3, atol=2e-6)


def test_group_distribution_past_all_zero():
    p = pen.group_distribution_past(np.zeros(3), G_ID, eps=1e-6)
    np.testing.assert_allclose(p.data, 0.0)


def test_group_distribution_future_forces_known():
    for w in ([0.2, 0.8], [1.0], [5.0, 5.0, 5.0]):
        p = pen.group_distribution_future(np.array(w))
        np.testing.assert_array_equal(p.data, [0.0, 1.0, 0.0])
        assert pen.entropy(p).item() == 0.0
        assert p.shape == (3,)


def test_group_distribution_future_all_zero_rejected():
    with pytest.raises(pen.AllZeroFutureWeights):
        pen.group_distribution_future(np.zeros(3))


def test_c_group_one_hot_is_zero():
    p_past = np.zeros((5, 3))
    p_past[:, 2] = 1.0
    p_fut = pen.group_distribution_future(np.ones((5, 2)))
    assert pen.c_group(Tensor(p_past), p_fut).item() == 0.0


def test_c_group_uniform_past_one_hot_future():
    p_past = np.full((7, 3), 1 / 3)
    p_fut = pen.group_distribution_future(np.ones((7, 2)))
    val = pen.c_group(Tensor(p_past), p_fut).item()
    np.testing.assert_allclose(val, 0.5 * np.log(3.0), atol=1e-12)
    assert abs(val - 0.5493) < 1e-4


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(1e-6, 1.0), min_size=3, max_size=3))
def test_entropy_never_exceeds_log3(raw):
    p = np.array(raw) / np.sum(raw)
    h = pen.entropy(Tensor(p)).item()
    assert -1e-12 <= h <= np.log(3.0) + 1e-12


def test_c_group_gradient_matches_fd():
    rng = np.random.default_rng(4)
    g = np.zeros((3, 4))
    g[0, 0] = g[1, 1] = g[2, 2] = g[2, 3] = 1.0
    logits0 = rng.normal(size=(6, 4))

    def f(t):
        w = dc.softmax(t, axis=-1)
        p = pen.group_distribution_past(w, g, 1e-6)
        return pen.c_group(p, pen.group_distribution_future(np.ones((6, 2))))

    x = Tensor(logits0, requires_grad=True)
    assert per_coord_rel_errors(f, x, range(x.data.size), (1e-5,)) < 1e-6


# ---------------------------------------------------------------------------
# shock alignment


def test_retro_mass_self_only():
    abar = np.eye(6)  # all mass on the diagonal, self-loops excluded
    a = pen.retro_mass(Tensor(abar), window=3)
    np.testing.assert_allclose(a.data, 0.0)


def test_retro_mass_full_window():
    T = 8
    abar = np.zeros((T, T))
    t = 5
    abar[t, t - 1] = abar[t, t - 2] = abar[t, t - 3] = 1 / 3
    a = pen.retro_mass(Tensor(abar), window=3)
    np.testing.assert_allclose(a.data[t], 1.0)


def test_retro_mass_lag_four_excluded():
    T = 8
    abar = np.zeros((T, T))
    abar[5, 1] = 1.0  # lag 4: outside the window
    a = pen.retro_mass(Tensor(abar), window=3)
    assert a.data[5] == 0.0


def test_retro_mass_bounds_on_random_stochastic_rows():
    rng = np.random.default_rng(5)
    for _ in range(20):
        raw = rng.uniform(size=(7, 7))
        raw = np.tril(raw)
        abar = raw / raw.sum(axis=1, keepdims=True)
        a = pen.retro_mass(Tensor(abar), window=3).data
        assert np.all(a >= 0) and np.all(a <= 1 + 1e-12)


def test_rep_first_diff_values():
    v = np.zeros((3, 4))
    v[1] = [3.0, 4.0, 0.0, 0.0]
    v[2] = [3.0, 4.0, 0.0, 0.0]
    anchor = np.zeros(4)
    s = pen.rep_first_diff(Tensor(v), Tensor(anchor))
    np.testing.assert_allclose(s.data, [0.0, 5.0, 0.0])
    assert np.all(s.data >= 0)


def test_rep_first_diff_constant():
    v = np.ones((4, 3))
    s = pen.rep_first_diff(Tensor(v), Tensor(np.ones(3)))
    np.testing.assert_allclose(s.data, 0.0)


def test_standardize_hand_values():
    z, flag = pen.standardize(Tensor([1.0, 2.0, 3.0]))
    assert not flag
    assert abs(z.data.mean()) < 1e-9
    assert abs(z.data.std() - 1.0) < 1e-6


def test_standardize_constant_flagged():
    z, flag = pen.standardize(Tensor([2.0, 2.0, 2.0]))
    assert flag
    np.testing.assert_allclose(z.data, 0.0)


def test_standardize_affine_invariance():
    rng = np.random.default_rng(6)
    x = rng.normal(size=10)
    z, _ = pen.standardize(Tensor(x))
    za, _ = pen.standardize(Tensor(-2.5 * x + 7.0))
    np.testing.assert_allclose(za.data, -z.data, atol=1e-9)


def test_c_shock_aligned_is_zero():
    a = np.array([[1.0, -1.0, 0.5, -0.5]])
    assert pen.c_shock(Tensor(a), Tensor(a.copy())).item() == 0.0


def test_c_shock_antialigned_hand_value():
    a = np.array([1.0, -1.0])
    s = np.array([-1.0, 1.0])
    assert pen.c_shock(Tensor(a), Tensor(s)).item() == 4.0


def test_c_shock_length_mismatch():
    with pytest.raises(pen.LengthMismatch):
        pen.c_shock(Tensor(np.zeros(3)), Tensor(np.zeros(4)))


def test_c_shock_constant_flag_zeroes_contribution():
    a = np.array([[1.0, -1.0], [3.0, -3.0]])
    s = np.array([[-1.0, 1.0], [-3.0, 3.0]])
    flags = np.array([False, True])
    out = pen.c_shock(Tensor(a), Tensor(s), flags)
    np.testing.assert_allclose(out.item(), (4.0 + 4.0 + 0.0 + 0.0) / 4.0)


def test_c_shock_full_chain_gradient():
    # raw scores -> causal softmax -> retro mass -> standardize -> loss,
    # alongside representation -> first diff -> standardize
    rng = np.random.default_rng(7)
    T, E, d = 9, 5, 4
    mask = np.triu(np.ones((T, T), dtype=bool), k=1)
    v0 = rng.normal(size=(T, d))

    def f(t):
        abar = dc.softmax(dc.masked_fill(t, mask, -np.inf), axis=-1)
        a = pen.retro_mass(abar, window=3)[E:]
        a_std, fa = pen.standardize(dc.reshape(a, (1, T - E)))
        v = Tensor(v0[E:])
        anchor = Tensor(v0[E - 1])
        s = pen.rep_first_diff(v, anchor)
        s_std, fs = pen.standardize(dc.reshape(s, (1, T - E)))
        return pen.c_shock(a_std, s_std, fa | fs)

    x = Tensor(rng.normal(size=(T, T)), requires_grad=True)
    err = per_coord_rel_errors(f, x, range(x.data.size), (1e-5,))
    assert err < 1e-4


def test_c_shock_invariant_under_affine_rescale():
    rng = np.random.default_rng(8)
    a = rng.normal(size=(1, 6))
    s = rng.normal(size=(1, 6))
    za, fa = pen.standardize(Tensor(a.copy()))
    zs, fs = pen.standardize(Tensor(s.copy()))
    base = pen.c_shock(za, zs, fa | fs).item()
    za2, fa2 = pen.standardize(Tensor(3.0 * a + 11.0))
    zs2, fs2 = pen.standardize(Tensor(0.5 * s - 2.0))
    again = pen.c_shock(za2, zs2, fa2 | fs2).item()
    # invariance holds up to the eps_std regularizer in the denominator
    np.testing.assert_allclose(again, base, rtol=1e-6)
