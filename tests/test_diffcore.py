import weakref
import zlib

import numpy as np
import pytest

from _gradtools import per_coord_rel_errors
from omnitft import diffcore as dc
from omnitft.diffcore import Tensor


def test_softmax_symmetry():
    out = dc.softmax(Tensor([0.0, 0.0, 0.0]))
    np.testing.assert_allclose(out.data, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(20, 7)) * 10
    out = dc.softmax(Tensor(x), axis=-1)
    np.testing.assert_allclose(out.data.sum(-1), 1.0, atol=1e-12)


def test_masked_softmax_exact_zeros():
    rng = np.random.default_rng(1)
    x = Tensor(rng.normal(size=(6, 6)))
    mask = np.triu(np.ones((6, 6), dtype=bool), k=1)
    out = dc.softmax(dc.masked_fill(x, mask, -np.inf), axis=-1)
    assert np.all(out.data[mask] == 0.0)
    np.testing.assert_allclose(out.data.sum(-1), 1.0, atol=1e-12)


def test_l2_norm_rows_3_4_5():
    out = dc.l2_norm_rows(Tensor([[3.0, 4.0]]))
    np.testing.assert_allclose(out.data, [5.0])


def test_square_grad():
    x = Tensor([3.0], requires_grad=True)
    dc.backward(dc.reduce_sum(dc.square(x)))
    np.testing.assert_allclose(x.grad, [6.0])


def test_grad_of_sum_softmax_is_zero():
    x = Tensor(np.random.default_rng(2).normal(size=8), requires_grad=True)
    dc.backward(dc.reduce_sum(dc.softmax(x)))
    np.testing.assert_allclose(x.grad, 0.0, atol=1e-15)


def test_grad_check_sum_of_squares():
    f = lambda x: dc.reduce_sum(dc.square(x))  # noqa: E731
    x = Tensor(np.random.default_rng(3).normal(size=9), requires_grad=True)
    err = per_coord_rel_errors(f, x, range(x.data.size), (1e-5,))
    assert err < 1e-7


def test_grad_check_pinball_off_kink():
    # pinball via (q-1)e + relu(e); kinks live at e = 0, so shift away
    y = np.array([1.0, -0.5, 2.0, 0.3])
    q = 0.9

    def f(x):
        e = dc.sub(Tensor(y), x)
        return dc.reduce_mean(dc.mul(e, q - 1.0) + dc.relu(e))

    x0 = y + 1e-3  # perturbed off the kink set {x == y}
    x = Tensor(x0, requires_grad=True)
    err = per_coord_rel_errors(f, x, range(x.data.size), (1e-5,))
    assert err < 1e-6


# Element-wise activations that the fused nodes compute inline; the stepwise
# reference builders below compose them from these test-local primitives.


def _tanh(a):
    out = np.tanh(a.data)
    return dc._make(out, (a,), lambda g: (g * (1.0 - out * out),))


def _sigmoid(a):
    out = 1.0 / (1.0 + np.exp(-a.data))
    return dc._make(out, (a,), lambda g: (g * out * (1.0 - out),))


def _elu(a):
    neg = np.exp(np.minimum(a.data, 0.0)) - 1.0
    out = np.where(a.data > 0.0, a.data, neg)
    return dc._make(out, (a,), lambda g: (g * np.where(a.data > 0.0, 1.0, neg + 1.0),))


smooth_unary = [
    ("log", dc.log, lambda r, n: r.uniform(0.5, 3.0, size=n)),
    ("sqrt", dc.sqrt, lambda r, n: r.uniform(0.5, 3.0, size=n)),
    ("tanh", _tanh, lambda r, n: r.normal(size=n)),
    ("sigmoid", _sigmoid, lambda r, n: r.normal(size=n)),
    ("square", dc.square, lambda r, n: r.normal(size=n)),
    ("softmax", dc.softmax, lambda r, n: r.normal(size=n)),
    ("elu", _elu, lambda r, n: r.normal(size=n) + 0.05),
]


@pytest.mark.parametrize("name,op,sample", smooth_unary, ids=[s[0] for s in smooth_unary])
def test_smooth_primitives_grad_check(name, op, sample):
    # 100 random coordinates per primitive, spread over 10 draws
    # crc32, not hash(): str hashes are randomised per process
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    worst = 0.0
    for _ in range(10):
        x = Tensor(sample(rng, 10), requires_grad=True)
        w = Tensor(rng.normal(size=10))  # random projection breaks symmetry
        f = lambda t: dc.reduce_sum(dc.mul(op(t), w))  # noqa: E731
        worst = max(worst, per_coord_rel_errors(f, x, range(x.data.size), (1e-5,)))
    assert worst <= 1e-6


def test_binary_primitives_grad_check():
    rng = np.random.default_rng(11)
    a0 = rng.normal(size=(4, 5))
    b0 = rng.uniform(0.5, 2.0, size=(4, 5))
    for op in (dc.add, dc.sub, dc.mul, dc.div):
        f = lambda x: dc.reduce_sum(op(x, Tensor(b0)))  # noqa: E731
        assert per_coord_rel_errors(f, Tensor(a0.copy(), requires_grad=True),
                                    range(a0.size), (1e-5,)) < 1e-6
        g = lambda x: dc.reduce_sum(op(Tensor(a0), x))  # noqa: E731
        assert per_coord_rel_errors(g, Tensor(b0.copy(), requires_grad=True),
                                    range(b0.size), (1e-5,)) < 1e-6


def test_matmul_grad_check_batched():
    rng = np.random.default_rng(12)
    b = rng.normal(size=(5, 3))
    f = lambda x: dc.reduce_sum(dc.square(dc.matmul(x, Tensor(b))))  # noqa: E731
    x = Tensor(rng.normal(size=(2, 4, 5)), requires_grad=True)
    assert per_coord_rel_errors(f, x, range(x.data.size), (1e-5,)) < 1e-6


def test_broadcasting_unbroadcast():
    a = Tensor(np.ones((3, 4)), requires_grad=True)
    b = Tensor(np.ones(4), requires_grad=True)
    dc.backward(dc.reduce_sum(dc.add(a, b)))
    np.testing.assert_allclose(b.grad, [3.0, 3.0, 3.0, 3.0])
    np.testing.assert_allclose(a.grad, 1.0)


def test_slice_and_concat_grads():
    x = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
    dc.backward(dc.reduce_sum(x[1:, :2]))
    expect = np.zeros((3, 4))
    expect[1:, :2] = 1.0
    np.testing.assert_allclose(x.grad, expect)

    a = Tensor(np.ones((2, 3)), requires_grad=True)
    b = Tensor(np.ones((2, 2)), requires_grad=True)
    out = dc.concat([a, b], axis=1)
    assert out.shape == (2, 5)
    dc.backward(dc.reduce_sum(dc.mul(out, 2.0)))
    np.testing.assert_allclose(a.grad, 2.0)
    np.testing.assert_allclose(b.grad, 2.0)


def test_gather_accumulates_repeated_rows():
    t = Tensor(np.ones((5, 2)), requires_grad=True)
    dc.backward(dc.reduce_sum(t[np.array([1, 1, 3])]))
    np.testing.assert_allclose(t.grad[:, 0], [0, 2, 0, 1, 0])


def test_reduce_mean_axis_grad():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    dc.backward(dc.reduce_sum(dc.reduce_mean(x, axis=1)))
    np.testing.assert_allclose(x.grad, 1 / 3)


@pytest.mark.parametrize("axes", [(0, 2, 1, 3), (0, 2, 3, 1), (3, 1, 0, 2)])
def test_transpose_grad_check_4d(axes):
    # the permutations attention uses, and one that moves every axis; the last
    # two are not their own inverse, so a VJP that reused `axes` would fail
    rng = np.random.default_rng(13)
    x0 = rng.normal(size=(2, 3, 4, 5))
    proj = Tensor(rng.normal(size=x0.transpose(axes).shape))
    f = lambda x: dc.reduce_sum(dc.mul(dc.transpose(x, axes), proj))  # noqa: E731
    assert dc.transpose(Tensor(x0), axes).shape == x0.transpose(axes).shape
    assert per_coord_rel_errors(f, Tensor(x0.copy(), requires_grad=True), range(x0.size),
                                (1e-5,)) < 1e-6


def test_nonscalar_loss_raises():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(dc.NonScalarLoss):
        dc.backward(dc.square(x))


def test_double_backward_raises():
    x = Tensor([2.0], requires_grad=True)
    loss = dc.reduce_sum(dc.square(x))
    dc.backward(loss)
    with pytest.raises(dc.DoubleBackward):
        dc.backward(loss)


def test_backward_through_a_released_node_raises():
    # a second graph over a consumed node would double-count x or drop a's path
    x = Tensor([1.0, 2.0], requires_grad=True)
    a = dc.square(x)
    dc.backward(dc.reduce_sum(a))
    np.testing.assert_array_equal(x.grad, [2.0, 4.0])
    with pytest.raises(dc.DoubleBackward):
        dc.backward(dc.reduce_sum(dc.mul(a, 3.0)))
    np.testing.assert_array_equal(x.grad, [2.0, 4.0])


def test_backward_releases_every_interior_node():
    arrays, keep = _grn_inputs("2d-skip-ctx-keep", seed=41)
    t = {k: Tensor(a, requires_grad=True) for k, a in arrays.items()}
    out = _grn_call(dc.grn, t, keep)
    # weak references to the node's own work arrays (x's data belongs to the
    # caller), and to the boolean mask, which the caller drops
    own = ("a", "h2", "sig", "v", "normed", "sigma")
    refs = {k: weakref.ref(c.cell_contents) for k, c in
            zip(out.node._vjp.__code__.co_freevars, out.node._vjp.__closure__) if k in own}
    assert len(refs) == len(own)
    refs["mask"] = weakref.ref(keep[0])
    del keep
    loss = dc.reduce_sum(dc.mul(dc.reshape(out, (-1,)) + 1.0, 2.0))
    interior = [n for n in dc.Tape.from_root(loss).nodes if n._parents]
    dc.backward(loss)
    assert all(n._vjp is None and n._parents == () and n._spent for n in interior)
    assert not any(leaf.node._spent for leaf in t.values())
    assert [k for k, r in refs.items() if r() is not None] == []
    np.testing.assert_array_equal(out.grad, 2.0)  # the VJP did not write into it


def _dropped_value_run(build, drop):
    """Build `build(x, w, b)` -> (value, output); the caller holds the value or
    drops it before backward. Returns whether the value's array was freed at
    once, and the leaves' gradients."""
    rng = np.random.default_rng(44)
    t = {k: Tensor(rng.normal(size=shape), requires_grad=True)
         for k, shape in (("x", (5, 4)), ("w", (4, 3)), ("b", (3,)))}
    value, out = build(t["x"], t["w"], t["b"])
    ref = weakref.ref(value.data)
    if drop:
        del value
    freed = ref() is None
    dc.backward(dc.reduce_sum(dc.square(out)))
    return freed, {k: v.grad for k, v in t.items()}


def _matmul_then_add(x, w, b):
    xw = dc.matmul(x, w)  # no VJP reads the product, only add's shapes
    return xw, xw + b


def _mul_by_mask(x, w, b):
    # a product with a constant reads the constant alone: a float mask ...
    h = dc.matmul(x, w) + b
    return h, dc.mul(h, Tensor((np.random.default_rng(45).random((5, 3)) >= 0.3) / 0.7))


def _mul_by_scalar(x, w, b):
    h = dc.matmul(x, w) + b  # ... or attention's 1 / sqrt(d_qk)
    return h, dc.mul(h, 0.5)


def _dropout(x, w, b):
    h = dc.matmul(x, w) + b  # dropout saves its boolean mask alone
    return h, dc.dropout(h, np.random.default_rng(45).random((5, 3)) >= 0.3, 1.0 / 0.7)


_DROPPED_VALUES = {"matmul-then-add": _matmul_then_add, "mul-by-mask": _mul_by_mask,
                   "mul-by-scalar": _mul_by_scalar, "dropout": _dropout}


@pytest.mark.parametrize("case", sorted(_DROPPED_VALUES))
def test_a_value_no_vjp_reads_is_freed_when_the_caller_drops_it(case):
    freed, grads = _dropped_value_run(_DROPPED_VALUES[case], drop=True)
    still_held, held_grads = _dropped_value_run(_DROPPED_VALUES[case], drop=False)
    assert freed and not still_held
    for k, g in grads.items():
        assert g.tobytes() == held_grads[k].tobytes(), k


def test_mul_by_a_constant_computes_no_gradient_for_it():
    h = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    keep = Tensor(np.array([2.0, 0.0, 2.0]))
    out = dc.mul(h, keep)
    saved = [c.cell_contents for c in out.node._vjp.__closure__]
    assert not any(c is h.data for c in saved)
    g_h, g_keep = out.node._vjp(np.ones((2, 3)))
    assert g_keep is None
    np.testing.assert_array_equal(g_h, np.broadcast_to(keep.data, (2, 3)))


def test_dropout_matches_the_product_by_the_float_mask():
    # products by the boolean mask and then the scale round as one product by
    # the float mask, whose entries are exactly 0 or the scale
    rng = np.random.default_rng(46)
    x = rng.normal(size=(4, 5, 6)) * 10.0 ** rng.integers(-200, 200, size=(4, 5, 6))
    mask, scale = rng.random(x.shape) >= 0.3, 1.0 / 0.7
    g = rng.normal(size=x.shape) * 10.0 ** rng.integers(-200, 200, size=x.shape)
    out = dc.dropout(Tensor(x, requires_grad=True), mask, scale)
    ref = dc.mul(Tensor(x, requires_grad=True), Tensor(mask / 0.7))
    assert out.data.tobytes() == ref.data.tobytes()
    saved = [c.cell_contents for c in out.node._vjp.__closure__]
    assert any(c is mask for c in saved) and not any(c is x for c in saved)
    assert out.node._vjp(g)[0].tobytes() == ref.node._vjp(g)[0].tobytes()


@pytest.mark.parametrize("pass_through", ["add", "sub", "reshape", "transpose"])
@pytest.mark.parametrize("held_first", [True, False])
def test_held_interior_gradient_survives_later_accumulation(pass_through, held_first):
    # y hands its own gradient straight through to p; p accumulates again later,
    # which must not write into the gradient the caller reads from y
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    p = dc.mul(x, 2.0)
    y = {"add": lambda: p + 0.0, "sub": lambda: p - 0.0,
         "reshape": lambda: dc.reshape(p, (3, 2)),
         "transpose": lambda: dc.transpose(p, (1, 0))}[pass_through]()
    w = np.arange(1.0, 7.0).reshape(y.shape)
    terms = [dc.reduce_sum(dc.mul(y, Tensor(w))), dc.reduce_sum(dc.mul(p, 5.0))]
    if not held_first:
        terms.reverse()
    dc.backward(terms[0] + terms[1])
    np.testing.assert_array_equal(y.grad, w)
    gp = {"add": w, "sub": w, "reshape": w.reshape(2, 3), "transpose": w.T}[pass_through]
    np.testing.assert_array_equal(p.grad, gp + 5.0)
    np.testing.assert_array_equal(x.grad, 2.0 * (gp + 5.0))


def test_leaf_and_bound_parameter_gradients_are_kept():
    # leaves outlive the graph: a preset gradient buffer is added to out of
    # place, never written into, and a second graph over the same leaves
    # accumulates exactly
    arrays, keep = _grn_inputs("3d-ctx-keep", seed=42)
    t = {k: Tensor(a, requires_grad=True) for k, a in arrays.items()}
    bound = {k: np.zeros_like(a) for k, a in arrays.items() if k != "x"}
    for k, buf in bound.items():
        t[k].grad = buf
    proj = Tensor(np.random.default_rng(43).normal(size=arrays["x"].shape))
    dc.backward(dc.reduce_sum(dc.mul(_grn_call(dc.grn, t, keep), proj)))
    first = {k: v.grad.copy() for k, v in t.items()}
    assert not any(buf.any() for buf in bound.values())
    dc.backward(dc.reduce_sum(dc.mul(_grn_call(dc.grn, t, keep), proj)))
    for k, v in t.items():
        np.testing.assert_array_equal(v.grad, 2.0 * first[k], err_msg=k)
    assert not any(buf.any() for buf in bound.values())


def test_domain_errors():
    with pytest.raises(dc.DomainError):
        dc.log(Tensor([-1.0]))
    with pytest.raises(dc.DomainError):
        dc.sqrt(Tensor([-0.5]))


def test_shape_mismatch():
    with pytest.raises(dc.ShapeMismatch):
        dc.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))))


def test_tape_visits_each_node_once():
    x = Tensor([1.0, 2.0], requires_grad=True)
    y = dc.square(x)
    z = dc.reduce_sum(dc.add(y, y))  # diamond: y used twice
    tape = dc.Tape.from_root(z)
    ids = [id(n) for n in tape.nodes]
    assert len(ids) == len(set(ids))
    dc.backward(z)
    np.testing.assert_allclose(x.grad, [4.0, 8.0])


def test_masked_fill_blocks_gradient():
    x = Tensor(np.ones(4), requires_grad=True)
    mask = np.array([True, False, True, False])
    dc.backward(dc.reduce_sum(dc.masked_fill(x, mask, 0.0)))
    np.testing.assert_allclose(x.grad, [0, 1, 0, 1])


def _reference_lstm(xp, h0, c0, w_h):
    """The fused layer's maths, step by step from the primitives above."""
    d = h0.shape[-1]
    h, c, steps = h0, c0, []
    for t in range(xp.shape[1]):
        z = xp[:, t, :] + dc.matmul(h, w_h)
        i_g = _sigmoid(z[:, 0 * d : 1 * d])
        f_g = _sigmoid(z[:, 1 * d : 2 * d])
        g_g = _tanh(z[:, 2 * d : 3 * d])
        o_g = _sigmoid(z[:, 3 * d : 4 * d])
        c = dc.mul(f_g, c) + dc.mul(i_g, g_g)
        h = dc.mul(o_g, _tanh(c))
        steps.append(dc.reshape(dc.concat([h, c], axis=-1), (h.shape[0], 1, 2 * d)))
    return dc.concat(steps, axis=1)


def _lstm_inputs(rng, B=3, T=4, d=5):
    return [
        rng.normal(size=(B, T, 4 * d)),
        rng.normal(size=(B, d)) * 0.5,
        rng.normal(size=(B, d)) * 0.5,
        rng.normal(size=(d, 4 * d)) * 0.5,
    ]


def test_lstm_layer_matches_stepwise_reference():
    rng = np.random.default_rng(21)
    arrays = _lstm_inputs(rng)
    proj = rng.normal(size=(3, 4, 10))
    fused = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    ref = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out_f = dc.lstm_layer(*fused)
    out_r = _reference_lstm(*ref)
    np.testing.assert_allclose(out_f.data, out_r.data, rtol=1e-12, atol=1e-14)
    dc.backward(dc.reduce_sum(dc.mul(out_f, Tensor(proj))))
    dc.backward(dc.reduce_sum(dc.mul(out_r, Tensor(proj))))
    for a, b in zip(fused, ref):
        np.testing.assert_allclose(a.grad, b.grad, rtol=1e-10, atol=1e-13)


@pytest.mark.parametrize("which", ["xp", "h0", "c0", "w_h"])
def test_lstm_layer_grad_check(which):
    rng = np.random.default_rng(22)
    arrays = _lstm_inputs(rng, B=2, T=3, d=4)
    proj = Tensor(rng.normal(size=(2, 3, 8)))
    pos = ["xp", "h0", "c0", "w_h"].index(which)

    def f(x):
        args = [Tensor(a) for a in arrays]
        args[pos] = x
        return dc.reduce_sum(dc.mul(dc.lstm_layer(*args), proj))

    x = Tensor(arrays[pos].copy(), requires_grad=True)
    assert per_coord_rel_errors(f, x, range(x.data.size), (1e-5,)) < 1e-6


def test_lstm_layer_shape_mismatch():
    xp, h0, c0, w_h = (Tensor(a) for a in _lstm_inputs(np.random.default_rng(23)))
    with pytest.raises(dc.ShapeMismatch):
        dc.lstm_layer(xp, h0, c0, Tensor(np.ones((5, 12))))
    with pytest.raises(dc.ShapeMismatch):
        dc.lstm_layer(xp[:, :, :18], h0, c0, w_h)


def _reference_layernorm(s, gain, bias):
    """The fused nodes' layer norm, step by step from the primitives."""
    centered = dc.sub(s, dc.reduce_mean(s, axis=-1, keepdims=True))
    var = dc.reduce_mean(dc.square(centered), axis=-1, keepdims=True)
    return dc.mul(dc.div(centered, dc.sqrt(var + 1e-5)), gain) + bias


def _reference_glu(h, gate, val):
    return dc.mul(_sigmoid(dc.matmul(h, gate[0]) + gate[1]), dc.matmul(h, val[0]) + val[1])


def _reference_grn(x, fc1, fc2, gate, val, ln, skip=None, ctx=None, keep=None):
    h = dc.matmul(x, fc1[0]) + fc1[1]
    if ctx is not None:
        c = dc.matmul(*ctx)
        if x.ndim == 3:
            c = dc.reshape(c, (c.shape[0], 1, c.shape[-1]))
        h = h + c
    h = dc.matmul(_elu(h), fc2[0]) + fc2[1]
    if keep is not None:
        mask, scale = keep
        h = dc.mul(h, Tensor(mask * scale))  # the float mask: entries 0 or scale
    residual = x if skip is None else dc.matmul(x, skip)
    return _reference_layernorm(_reference_glu(h, gate, val) + residual, *ln)


def _reference_gated_add_norm(h, gate, val, skip, ln):
    return _reference_layernorm(_reference_glu(h, gate, val) + skip, *ln)


# (x shape, output width, with skip projection, with context, with dropout mask)
GRN_CASES = {
    "2d": ((3, 5), 5, False, False, False),
    "2d-skip-ctx-keep": ((3, 6), 4, True, True, True),
    "3d": ((2, 3, 5), 5, False, False, False),
    "3d-ctx-keep": ((2, 3, 5), 5, False, True, True),
    "3d-skip-ctx": ((2, 3, 6), 4, True, True, False),
}


def _grn_inputs(case, seed, d=4):
    """Named input arrays of one GRN case, and its dropout (boolean mask, scale)."""
    x_shape, d_out, with_skip, with_ctx, with_keep = GRN_CASES[case]
    rng = np.random.default_rng(seed)
    d_in = x_shape[-1]
    arrays = {"x": rng.normal(size=x_shape)}
    for name, n_in, n_out in (("fc1", d_in, d), ("fc2", d, d_out),
                              ("gate", d_out, d_out), ("val", d_out, d_out)):
        arrays[f"{name}/w"] = rng.normal(size=(n_in, n_out)) * 0.7
        arrays[f"{name}/b"] = rng.normal(size=n_out) * 0.3
    arrays["ln/g"] = 1.0 + 0.3 * rng.normal(size=d_out)
    arrays["ln/b"] = 0.3 * rng.normal(size=d_out)
    if with_skip:
        arrays["skip/w"] = rng.normal(size=(d_in, d_out)) * 0.7
    if with_ctx:
        arrays["ctx"] = rng.normal(size=(x_shape[0], d))
        arrays["ctx/w"] = rng.normal(size=(d, d)) * 0.7
    keep = None
    if with_keep:
        keep = rng.random(x_shape[:-1] + (d_out,)) >= 0.3, 1.0 / 0.7
    return arrays, keep


def _grn_call(fn, t, keep):
    """Call a GRN implementation on a dict of named tensors."""
    return fn(
        t["x"], (t["fc1/w"], t["fc1/b"]), (t["fc2/w"], t["fc2/b"]),
        (t["gate/w"], t["gate/b"]), (t["val/w"], t["val/b"]), (t["ln/g"], t["ln/b"]),
        skip=t.get("skip/w"), ctx=(t["ctx"], t["ctx/w"]) if "ctx" in t else None,
        keep=keep,
    )


def _gan_inputs(shape, seed):
    rng = np.random.default_rng(seed)
    d = shape[-1]
    return {
        "h": rng.normal(size=shape), "skip": rng.normal(size=shape),
        "gate/w": rng.normal(size=(d, d)) * 0.7, "gate/b": rng.normal(size=d) * 0.3,
        "val/w": rng.normal(size=(d, d)) * 0.7, "val/b": rng.normal(size=d) * 0.3,
        "ln/g": 1.0 + 0.3 * rng.normal(size=d), "ln/b": 0.3 * rng.normal(size=d),
    }


def _gan_call(fn, t, **keep):
    return fn(t["h"], (t["gate/w"], t["gate/b"]), (t["val/w"], t["val/b"]), t["skip"],
              (t["ln/g"], t["ln/b"]), **keep)


def _assert_matches_reference(fused_fn, reference_fn, arrays, seed):
    fused = {k: Tensor(a.copy(), requires_grad=True) for k, a in arrays.items()}
    ref = {k: Tensor(a.copy(), requires_grad=True) for k, a in arrays.items()}
    out_f, out_r = fused_fn(fused), reference_fn(ref)
    np.testing.assert_array_equal(out_f.data, out_r.data)  # same numpy ops, same order
    proj = Tensor(np.random.default_rng(seed).normal(size=out_f.shape))
    dc.backward(dc.reduce_sum(dc.mul(out_f, proj)))
    dc.backward(dc.reduce_sum(dc.mul(out_r, proj)))
    for k in arrays:
        np.testing.assert_allclose(fused[k].grad, ref[k].grad, rtol=1e-10, atol=1e-13,
                                   err_msg=k)


def _grad_check_errors(fn, arrays, out_shape, seed):
    """Per input, the worst finite-difference error over every coordinate of
    <fn(inputs), proj>; returns {name: error}."""
    proj = Tensor(np.random.default_rng(seed).normal(size=out_shape))
    errors = {}
    for name in arrays:
        def f(x, name=name):
            t = {k: Tensor(a) for k, a in arrays.items()}
            t[name] = x
            return dc.reduce_sum(dc.mul(fn(t), proj))

        x = Tensor(arrays[name].copy(), requires_grad=True)
        errors[name] = per_coord_rel_errors(f, x, range(x.data.size), (1e-5,))
    return errors


@pytest.mark.parametrize("case", list(GRN_CASES))
def test_grn_matches_stepwise_reference(case):
    arrays, keep = _grn_inputs(case, seed=31)
    _assert_matches_reference(lambda t: _grn_call(dc.grn, t, keep),
                              lambda t: _grn_call(_reference_grn, t, keep), arrays, seed=32)


@pytest.mark.parametrize("case", list(GRN_CASES))
def test_grn_grad_check_every_input(case):
    arrays, keep = _grn_inputs(case, seed=33)
    out_shape = arrays["x"].shape[:-1] + (GRN_CASES[case][1],)
    errors = _grad_check_errors(lambda t: _grn_call(dc.grn, t, keep), arrays, out_shape, 34)
    assert max(errors.values()) < 1e-6, errors


@pytest.mark.parametrize("shape", [(3, 5), (2, 3, 5)], ids=["2d", "3d"])
def test_gated_add_norm_matches_stepwise_reference(shape):
    _assert_matches_reference(lambda t: _gan_call(dc.gated_add_norm, t),
                              lambda t: _gan_call(_reference_gated_add_norm, t),
                              _gan_inputs(shape, seed=35), seed=36)


@pytest.mark.parametrize("shape", [(3, 5), (2, 3, 5)], ids=["2d", "3d"])
def test_gated_add_norm_grad_check_every_input(shape):
    errors = _grad_check_errors(lambda t: _gan_call(dc.gated_add_norm, t),
                                _gan_inputs(shape, seed=37), shape, 38)
    assert max(errors.values()) < 1e-6, errors


@pytest.mark.parametrize("shape", [(3, 5), (2, 3, 5)], ids=["2d", "3d"])
def test_gated_add_norm_keep_gives_the_bits_of_a_dropout_node(shape):
    # attention's output dropout folded into its gate: the same products in the
    # same order, so the output and every gradient keep their bits
    arrays = _gan_inputs(shape, seed=43)
    rng = np.random.default_rng(44)
    keep = rng.random(shape) >= 0.3, 1.0 / 0.7
    proj = Tensor(rng.normal(size=shape))
    runs = []
    for folded in (True, False):
        t = {k: Tensor(a.copy(), requires_grad=True) for k, a in arrays.items()}
        if folded:
            out = _gan_call(dc.gated_add_norm, t, keep=keep)
        else:
            out = _gan_call(dc.gated_add_norm, {**t, "h": dc.dropout(t["h"], *keep)})
        dc.backward(dc.reduce_sum(dc.mul(out, proj)))
        runs.append([out.data.tobytes()] + [t[k].grad.tobytes() for k in arrays])
    assert runs[0] == runs[1]


# A GRN whose input is the embedding layer: (lead shape, each variable
# continuous or categorical, output width, with skip projection, with
# context, with dropout mask). The selection networks' GRN_v reads every
# variable and projects to one logit each; GRN_j reads one and keeps d.
EMBED_CASES = {
    "selection-3d": ((2, 3), ("cont", "cat", "cont"), 3, True, True, True),
    "static-selection": ((5,), ("cat", "cont", "cat"), 3, True, False, True),
    "single-variable-selection": ((2, 3), ("cont",), 1, True, True, False),  # output constant
    "one-variable-skip": ((2, 3), ("cat",), 3, True, True, True),
    "variable-continuous": ((2, 3), ("cont",), 4, False, False, True),
    "variable-categorical": ((5,), ("cat",), 4, False, False, False),
}


def _embed_grn_inputs(case, seed, d=4, vocab=3):
    """Named arrays of a GRN over embeddings: each variable's factors (x, and
    w and b or a table), and the GRN's own weights; plus its keep pair."""
    lead, kinds, d_out, with_skip, with_ctx, with_keep = EMBED_CASES[case]
    rng = np.random.default_rng(seed)
    arrays = {}
    for j, kind in enumerate(kinds):
        if kind == "cont":
            arrays[f"e{j}/x"] = rng.normal(size=lead)
            arrays[f"e{j}/w"] = rng.normal(size=d) * 0.7
            arrays[f"e{j}/b"] = rng.normal(size=d) * 0.3
        else:  # every category met, some more than once
            arrays[f"e{j}/x"] = rng.permutation(np.arange(np.prod(lead)) % vocab).reshape(lead)
            arrays[f"e{j}/table"] = rng.normal(size=(vocab, d)) * 0.7
    d_in = len(kinds) * d
    for name, n_in, n_out in (("fc1", d_in, d), ("fc2", d, d_out),
                              ("gate", d_out, d_out), ("val", d_out, d_out)):
        arrays[f"{name}/w"] = rng.normal(size=(n_in, n_out)) * 0.7
        arrays[f"{name}/b"] = rng.normal(size=n_out) * 0.3
    arrays["ln/g"] = 1.0 + 0.3 * rng.normal(size=d_out)
    arrays["ln/b"] = 0.3 * rng.normal(size=d_out)
    if with_skip:
        arrays["skip/w"] = rng.normal(size=(d_in, d_out)) * 0.7
    if with_ctx:
        arrays["ctx"] = rng.normal(size=(lead[0], d))
        arrays["ctx/w"] = rng.normal(size=(d, d)) * 0.7
    keep = (rng.random(lead + (d_out,)) >= 0.3, 1.0 / 0.7) if with_keep else None
    return arrays, keep


def _embeddings(t, n):
    """The n embeddings of a dict of named tensors; indices stay arrays."""
    return [dc.Embedding(t[f"e{j}/x"].data.astype(int), t[f"e{j}/table"]) if f"e{j}/table" in t
            else dc.Embedding(t[f"e{j}/x"].data, t[f"e{j}/w"], t[f"e{j}/b"]) for j in range(n)]


def _unfolded(embs):
    """concat(xi^(1), ..., xi^(N)) formed from primitives: table[x], x * w + b."""
    return dc.concat([e.weight[e.x] if e.bias is None
                      else dc.mul(Tensor(e.x[..., None]), e.weight) + e.bias for e in embs],
                     axis=-1)


def _embed_grn_out_shape(case):
    lead, _, d_out, *_ = EMBED_CASES[case]
    return lead + (d_out,)


def _embed_grn_call(t, case, keep, folded=True):
    embs = _embeddings(t, len(EMBED_CASES[case][1]))
    return _grn_call(dc.grn, {**t, "x": embs if folded else _unfolded(embs)}, keep)


def _rel(a, b):
    """Largest difference over the largest reference entry; 0 for two zero arrays."""
    return np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300)


@pytest.mark.parametrize("case", list(EMBED_CASES))
def test_grn_over_embeddings_matches_the_unfolded_composition(case):
    # the folded first layer sums x (w W1) + b W1 per variable, where the
    # composition multiplies Xi out and runs one GEMM: equal to rounding
    arrays, keep = _embed_grn_inputs(case, seed=51)
    proj = Tensor(np.random.default_rng(52).normal(size=_embed_grn_out_shape(case)))
    runs = []
    for folded in (True, False):
        t = {k: Tensor(a.copy(), requires_grad=not k.endswith("/x")) for k, a in arrays.items()}
        out = _embed_grn_call(t, case, keep, folded)
        dc.backward(dc.reduce_sum(dc.mul(out, proj)))
        runs.append([out.data] + [t[k].grad for k in arrays if not k.endswith("/x")])
    for name, got, want in zip(["out", *(k for k in arrays if not k.endswith("/x"))], *runs):
        assert got.shape == want.shape and _rel(got, want) < 1e-12, name


@pytest.mark.parametrize("case", list(EMBED_CASES))
def test_grn_over_embeddings_grad_check(case):
    arrays, keep = _embed_grn_inputs(case, seed=53)
    values = {k: a for k, a in arrays.items() if not k.endswith("/x")}
    indices = {k: Tensor(a) for k, a in arrays.items() if k.endswith("/x")}
    errors = _grad_check_errors(lambda t: _embed_grn_call({**t, **indices}, case, keep),
                                values, _embed_grn_out_shape(case), 54)
    assert max(errors.values()) < 1e-6, errors


def test_fused_nodes_build_no_graph_under_no_grad():
    arrays, keep = _grn_inputs("3d-skip-ctx", seed=39)
    t = {k: Tensor(a, requires_grad=True) for k, a in arrays.items()}
    with dc.no_grad():
        out = _grn_call(dc.grn, t, keep)
        gan = _gan_call(dc.gated_add_norm, {k: Tensor(a, requires_grad=True)
                                            for k, a in _gan_inputs((3, 5), 40).items()})
    assert out.node._parents == () and gan.node._parents == () and not out.requires_grad


@pytest.mark.parametrize("shape", [(3, 4, 5), (2, 3, 4, 5)], ids=["BTk", "BHTk"])
def test_matmul_shared_weight_folded_grad_check(shape):
    rng = np.random.default_rng(24)
    a0 = rng.normal(size=shape)
    w0 = rng.normal(size=(5, 3))
    proj = Tensor(rng.normal(size=shape[:-1] + (3,)))
    f = lambda x: dc.reduce_sum(dc.mul(dc.matmul(x, Tensor(w0)), proj))  # noqa: E731
    g = lambda w: dc.reduce_sum(dc.mul(dc.matmul(Tensor(a0), w), proj))  # noqa: E731
    assert per_coord_rel_errors(f, Tensor(a0.copy(), requires_grad=True), range(a0.size),
                                (1e-5,)) < 1e-6
    assert per_coord_rel_errors(g, Tensor(w0.copy(), requires_grad=True), range(w0.size),
                                (1e-5,)) < 1e-6


@pytest.mark.parametrize("sa, sb", [((2, 3, 4), (2, 4, 5)), ((2, 3, 4, 5), (2, 3, 5, 6))],
                         ids=["Bmk", "BHmk"])
def test_matmul_equal_batch_dims_grad_check(sa, sb):
    # attention's q @ k^T and A~ @ V: both operands carry the same batch dims
    rng = np.random.default_rng(25)
    a0, b0 = rng.normal(size=sa), rng.normal(size=sb)
    proj = Tensor(rng.normal(size=sa[:-1] + sb[-1:]))
    f = lambda x: dc.reduce_sum(dc.mul(dc.matmul(x, Tensor(b0)), proj))  # noqa: E731
    g = lambda y: dc.reduce_sum(dc.mul(dc.matmul(Tensor(a0), y), proj))  # noqa: E731
    assert per_coord_rel_errors(f, Tensor(a0.copy(), requires_grad=True), range(a0.size),
                                (1e-5,)) < 1e-6
    assert per_coord_rel_errors(g, Tensor(b0.copy(), requires_grad=True), range(b0.size),
                                (1e-5,)) < 1e-6


@pytest.mark.parametrize("sa, sb", [((3, 4), (4,)), ((1, 3, 4), (2, 4, 5)), ((3, 4), (2, 4, 5))],
                         ids=["1d-right", "broadcast-batch", "batch-dims-on-the-right-only"])
def test_matmul_rejects_shapes_the_model_does_not_use(sa, sb):
    with pytest.raises(dc.ShapeMismatch):
        dc.matmul(Tensor(np.ones(sa)), Tensor(np.ones(sb)))


def test_aliased_operands_accumulate():
    x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    dc.backward(dc.reduce_sum(x + x))
    np.testing.assert_array_equal(x.grad, [2.0, 2.0, 2.0])
    y = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    dc.backward(dc.reduce_sum(y * y))
    np.testing.assert_array_equal(y.grad, [2.0, -4.0, 6.0])


@pytest.mark.parametrize("add_first", [True, False])
def test_pass_through_gradient_not_shared_between_parents(add_first):
    # add hands one array to both operands; a later += into x must not leak into y
    x = Tensor(np.ones(3), requires_grad=True)
    y = Tensor(np.ones(3), requires_grad=True)
    terms = [dc.reduce_sum(x + y), dc.reduce_sum(dc.mul(x, 3.0))]
    if not add_first:
        terms.reverse()
    dc.backward(terms[0] + terms[1])
    np.testing.assert_array_equal(x.grad, [4.0, 4.0, 4.0])
    np.testing.assert_array_equal(y.grad, [1.0, 1.0, 1.0])


@pytest.mark.parametrize("pass_through", ["add", "sub", "reshape", "transpose"])
def test_pass_through_hands_its_gradient_on_uncopied(pass_through):
    # p's only consumer is y, so p's gradient is y's own, or a view of it
    p = dc.mul(Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True), 2.0)
    y = {"add": lambda: p + 0.0, "sub": lambda: p - 0.0,
         "reshape": lambda: dc.reshape(p, (3, 2)),
         "transpose": lambda: dc.transpose(p, (1, 0))}[pass_through]()
    dc.backward(dc.reduce_sum(dc.mul(y, Tensor(np.arange(1.0, 7.0).reshape(y.shape)))))
    assert np.shares_memory(p.grad, y.grad)


@pytest.mark.parametrize("shared_first", [True, False])
def test_one_fresh_gradient_for_two_parents_is_stored_once(shared_first):
    # a VJP may return one newly made array for both parents; only one of
    # them may keep it uncopied
    x = Tensor(np.ones(3), requires_grad=True)
    y = Tensor(np.ones(3), requires_grad=True)
    both = dc._make(x.data + y.data, (x, y), lambda g: (g * 1.0,) * 2)
    terms = [dc.reduce_sum(both), dc.reduce_sum(dc.mul(x, 3.0))]
    if not shared_first:
        terms.reverse()
    dc.backward(terms[0] + terms[1])
    np.testing.assert_array_equal(x.grad, [4.0, 4.0, 4.0])
    np.testing.assert_array_equal(y.grad, [1.0, 1.0, 1.0])


def test_basic_index_grad_matches_scatter_add():
    x = Tensor(np.arange(24.0).reshape(2, 3, 4), requires_grad=True)
    dc.backward(dc.reduce_sum(dc.square(x[:, -1, 1:3])))
    expect = np.zeros((2, 3, 4))
    np.add.at(expect, (slice(None), -1, slice(1, 3)), 2.0 * x.data[:, -1, 1:3])
    np.testing.assert_array_equal(x.grad, expect)


def test_no_grad_records_nothing():
    w = Tensor(np.ones((3, 2)), requires_grad=True)
    with dc.no_grad():
        out = _tanh(dc.matmul(Tensor(np.ones((4, 3))), w))
    assert out.node._parents == () and out.node._vjp is None and not out.requires_grad
    built = _tanh(dc.matmul(Tensor(np.ones((4, 3))), w))
    assert built.requires_grad and built.node._parents


def test_no_grad_restores_mode_when_body_raises():
    w = Tensor(np.ones(2), requires_grad=True)
    with pytest.raises(RuntimeError):
        with dc.no_grad():
            raise RuntimeError("boom")
    assert dc.square(w).requires_grad
    with dc.no_grad():
        with dc.no_grad():
            pass
        assert not dc.square(w).requires_grad


def test_no_grad_loss_leaves_parameters_untouched():
    params = [Tensor(np.full((2, 2), 0.5), requires_grad=True),
              Tensor(np.zeros(2), requires_grad=True)]
    with dc.no_grad():
        loss = dc.reduce_sum(dc.matmul(Tensor(np.ones((3, 2))), params[0]) + params[1])
    dc.backward(loss)
    assert all(p.grad is None for p in params)
