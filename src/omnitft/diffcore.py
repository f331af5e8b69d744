"""Reverse-mode automatic differentiation over numpy arrays.

A small tape-based engine in the micrograd style: every primitive records
its parents and a vector-Jacobian closure, `backward` replays the tape in
reverse topological order. Every tensor holds float64, so finite-difference
checks are meaningful.

A `Tensor` is a value plus its graph `Node`. The node holds the VJP
closure, the parents' nodes, the gradient and whether backward has run
through it; it holds no forward value. Each VJP saves only the arrays it
reads (shapes alone for add, reshape, concat, the reductions, ...; for mul,
div and matmul, the other operand's array only when this one needs a
gradient). Dropout masks are saved as booleans, one byte an entry, and
applied with their scale 1 / (1 - rate) as a second product. So a forward
value lives while a caller holds its tensor or a VJP saved it, and no
longer: the result of `x @ w` in `x @ w + b` is freed as soon as the model
code drops it, not when backward ends.

Backward consumes the graph: once a node's VJP has run, the node drops its
closure and its parents, so the arrays it saved are freed during the walk,
not when the caller drops the graph. A second backward through any node of
a consumed graph raises `DoubleBackward`. Leaves keep their gradients, and
so does an interior node the caller still holds. A VJP runs at most once, so
the fused nodes may overwrite the arrays they saved. Nothing writes into a
gradient: no VJP writes into the one it receives, and a second contribution
is added out of place. So a pass-through (add, reshape, ...) hands its own
gradient, or a view of it, on uncopied, and a preset one is never written into.

The primitives fit the shapes the model uses: `matmul` takes a weight
shared across batch dims, or two operands with equal batch dims, and each
operand's gradient is one GEMM; `lstm_layer` runs a whole LSTM
layer as one node, and `grn` and `gated_add_norm` run a gated residual
network and a gated add-and-norm as one node each (hand-written VJPs; the
forward repeats the composed primitives' numpy ops in order, so values are
bit-identical). The relu subgradient at 0 is 0, for determinism.

Inference passes run under `no_grad()`, which records no parents and no
closures, so nothing is kept alive for a backward pass that never comes.
"""

from __future__ import annotations

import contextlib
import contextvars

import numpy as np


class DiffcoreError(Exception):
    pass


class ShapeMismatch(DiffcoreError):
    pass


class DomainError(DiffcoreError):
    pass


class NonScalarLoss(DiffcoreError):
    pass


class DoubleBackward(DiffcoreError):
    pass


class Node:
    """A value's place in the graph: its VJP closure, its parents' nodes and
    its gradient. A node holds no forward value."""

    __slots__ = ("grad", "requires_grad", "_parents", "_vjp", "_spent")

    def __init__(self, requires_grad: bool = False):
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._vjp = None
        self._spent = False


class Tensor:
    """N-d array with its graph node: an optional gradient and a record of
    how it was made."""

    __slots__ = ("data", "node")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.node = Node(requires_grad)

    @property
    def grad(self):
        return self.node.grad

    @grad.setter
    def grad(self, value):
        self.node.grad = value

    @property
    def requires_grad(self) -> bool:
        return self.node.requires_grad

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # operator sugar; all routed through the module-level primitives
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return tslice(self, key)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


_grad_enabled = contextvars.ContextVar("diffcore_grad_enabled", default=True)


@contextlib.contextmanager
def no_grad():
    """Build no graph inside the block: outputs carry their data only.

    For forward passes that are never differentiated (validation, eval).
    The previous mode is restored on exit, also when the block raises.
    """
    token = _grad_enabled.set(False)
    try:
        yield
    finally:
        _grad_enabled.reset(token)


def grad_enabled() -> bool:
    """False inside a `no_grad()` block, where no graph is built."""
    return _grad_enabled.get()


def _make(data, parents, vjp) -> Tensor:
    out = Tensor(data)
    if _grad_enabled.get():
        nodes = tuple([p.node for p in parents])
        for n in nodes:
            if n.requires_grad:
                node = out.node
                node.requires_grad, node._parents, node._vjp = True, nodes, vjp
                break
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to the original operand shape."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tape:
    """Reverse-topological record of the subgraph below a root tensor."""

    def __init__(self, nodes: list):
        self.nodes = nodes  # `Node`s in topological order, the root's last

    @classmethod
    def from_root(cls, root: Tensor) -> "Tape":
        order, visited, stack = [], set(), [(root.node, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            if node._spent:
                raise DoubleBackward("backward already ran through this node; rebuild the graph")
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))
        return cls(order)

    def run_backward(self, root: Tensor):
        """Replay the tape in reverse, consuming it: once a node's VJP has run,
        the node drops its closure and parents, so the arrays it saved and the
        gradients of the nodes above it are freed as the walk goes."""
        root.node.grad = np.ones_like(root.data)
        nodes = self.nodes
        while nodes:
            node = nodes.pop()
            vjp, parents = node._vjp, node._parents
            if vjp is None:
                continue
            node._vjp, node._parents, node._spent = None, (), True
            if node.grad is not None:
                _accumulate(parents, vjp(node.grad))


def _accumulate(parents, grads):
    """Store each VJP output as its parent's gradient, or add it out of place."""
    for parent, g in zip(parents, grads):
        if g is not None and parent.requires_grad:
            parent.grad = g if parent.grad is None else parent.grad + g


def backward(loss: Tensor):
    """Accumulate gradients of a scalar loss into every requires_grad tensor.

    Backward consumes the graph below `loss`; a second backward through any
    of its nodes raises `DoubleBackward`.
    """
    if loss.data.size != 1:
        raise NonScalarLoss(f"loss has shape {loss.shape}, expected a scalar")
    tape = Tape.from_root(loss)
    loss.node._spent = True
    tape.run_backward(loss)


# ---------------------------------------------------------------------------
# primitives


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    sa, sb = a.shape, b.shape
    return _make(a.data + b.data, (a, b),
                 lambda g: (_unbroadcast(g, sa), _unbroadcast(g, sb)))


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    sa, sb = a.shape, b.shape
    return _make(a.data - b.data, (a, b),
                 lambda g: (_unbroadcast(g, sa), _unbroadcast(-g, sb)))


def _read_by_other(a, b):
    """(a's array, b's array), each kept only if the other operand's gradient
    reads it, i.e. if the other operand requires grad; else None."""
    return (a.data if b.node.requires_grad else None,
            b.data if a.node.requires_grad else None)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    sa, sb = a.shape, b.shape
    ad, bd = _read_by_other(a, b)

    def vjp(g):
        return (None if bd is None else _unbroadcast(g * bd, sa),
                None if ad is None else _unbroadcast(g * ad, sb))

    return _make(a.data * b.data, (a, b), vjp)


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    sa, sb = a.shape, b.shape
    bd = b.data  # both gradients read b
    ad = a.data if b.node.requires_grad else None
    a_grad = a.node.requires_grad

    def vjp(g):
        ga = _unbroadcast(g / bd, sa) if a_grad else None
        gb = None if ad is None else _unbroadcast(-g * ad / (bd * bd), sb)
        return ga, gb

    return _make(a.data / bd, (a, b), vjp)


def matmul(a, b) -> Tensor:
    """`(..., k) @ (k, n)`, a weight shared across a's batch dims, or
    `(..., m, k) @ (..., k, n)` with equal batch dims; no other shapes."""
    a, b = as_tensor(a), as_tensor(b)
    sa, sb = a.shape, b.shape
    shared = len(sb) == 2 and len(sa) >= 1
    batched = len(sb) > 2 and sa[:-2] == sb[:-2]
    if not (shared or batched) or sa[-1] != sb[-2]:
        raise ShapeMismatch(f"matmul takes (..., k) @ (k, n) or (..., m, k) @ (..., k, n),"
                            f" got {sa} @ {sb}")
    ad, bd = _read_by_other(a, b)

    def vjp(g):
        if shared:  # fold the batch dims into one GEMM
            k, n = sb
            return (None if bd is None else g @ bd.T,
                    None if ad is None else ad.reshape(-1, k).T @ g.reshape(-1, n))
        return (None if bd is None else g @ np.swapaxes(bd, -1, -2),
                None if ad is None else np.swapaxes(ad, -1, -2) @ g)

    return _make(a.data @ b.data, (a, b), vjp)


def log(a) -> Tensor:
    a = as_tensor(a)
    ad = a.data
    if np.any(ad < 0):
        raise DomainError("log of negative value")
    return _make(np.log(ad), (a,), lambda g: (g / ad,))


def sqrt(a) -> Tensor:
    a = as_tensor(a)
    if np.any(a.data < 0):
        raise DomainError("sqrt of negative value")
    out = np.sqrt(a.data)

    def vjp(g):
        return (g / (2.0 * out),)

    return _make(out, (a,), vjp)


def square(a) -> Tensor:
    a = as_tensor(a)
    ad = a.data
    return _make(ad * ad, (a,), lambda g: (2.0 * g * ad,))


def relu(a) -> Tensor:
    a = as_tensor(a)
    # relu'(0) = 0: the "under" branch, keeps kink handling deterministic
    above = a.data > 0.0
    return _make(np.maximum(a.data, 0.0), (a,), lambda g: (g * above,))


def softmax(a, axis: int = -1) -> Tensor:
    """Row-stochastic along `axis`; -inf entries map to exact zeros."""
    a = as_tensor(a)
    out = a.data - np.max(a.data, axis=axis, keepdims=True)
    np.exp(out, out=out)
    out /= np.sum(out, axis=axis, keepdims=True)

    def vjp(g):
        dot = np.sum(g * out, axis=axis, keepdims=True)
        return (out * (g - dot),)

    return _make(out, (a,), vjp)


def dropout(a, mask, scale: float) -> Tensor:
    """Inverted dropout: `a * mask * scale`, with `mask` a boolean keep mask and
    `scale` 1 / (1 - rate). Saves the mask alone; two products give the same
    bits as one product by the float mask, whose entries are 0 or `scale`."""
    a = as_tensor(a)

    def vjp(g):
        ga = g * mask
        ga *= scale
        return (ga,)

    out = a.data * mask
    out *= scale
    return _make(out, (a,), vjp)


def masked_fill(a, mask, value: float) -> Tensor:
    """Replace entries where mask is true; no gradient flows to them."""
    a = as_tensor(a)
    mask = np.broadcast_to(np.asarray(mask, dtype=bool), a.shape)
    out = np.where(mask, value, a.data)
    return _make(out, (a,), lambda g: (np.where(mask, 0.0, g),))


def reduce_sum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    sa = a.shape

    def vjp(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, sa).copy(),)

    return _make(a.data.sum(axis=axis, keepdims=keepdims), (a,), vjp)


def reduce_mean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    sa = a.shape
    n = a.data.size if axis is None else sa[axis]

    def vjp(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, sa) / n,)

    return _make(a.data.mean(axis=axis, keepdims=keepdims), (a,), vjp)


def _is_basic_index(key) -> bool:
    """True for int/slice keys, which select every element at most once."""
    parts = key if isinstance(key, tuple) else (key,)
    return all(
        k is None or k is Ellipsis or isinstance(k, (slice, int, np.integer))
        for k in parts
    )


def tslice(a, key) -> Tensor:
    """Indexing, both basic slices and integer-array gathers (embedding rows)."""
    a = as_tensor(a)
    sa = a.shape
    basic = _is_basic_index(key)

    def vjp(g):
        full = np.zeros(sa)
        if basic:
            full[key] = g
        else:
            np.add.at(full, key, g)  # accumulates over repeated gather indices
        return (full,)

    return _make(a.data[key], (a,), vjp)


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    out = np.concatenate([t.data for t in tensors], axis=axis)
    offsets = np.cumsum([0] + [t.shape[axis] for t in tensors])

    def vjp(g):
        return tuple(
            np.take(g, range(offsets[i], offsets[i + 1]), axis=axis)
            for i in range(len(offsets) - 1)
        )

    return _make(out, tensors, vjp)


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    sa = a.shape
    return _make(a.data.reshape(shape), (a,), lambda g: (g.reshape(sa),))


def transpose(a, axes) -> Tensor:
    a = as_tensor(a)
    inv = np.argsort(axes)
    return _make(a.data.transpose(axes), (a,), lambda g: (g.transpose(inv),))


def l2_norm_rows(a) -> Tensor:
    """Euclidean norm along the last axis. Subgradient 0 at exactly-zero rows."""
    a = as_tensor(a)
    ad = a.data
    out = np.sqrt(np.sum(ad * ad, axis=-1))

    def vjp(g):
        denom = np.where(out == 0.0, 1.0, out)
        scale = np.where(out == 0.0, 0.0, g / denom)
        return (ad * scale[..., None],)

    return _make(out, (a,), vjp)


def lstm_layer(xp, h0, c0, w_h) -> Tensor:
    """One LSTM layer over a whole sequence, as a single node.

    xp: (B, T, 4d) input projections x_t @ W_x + b, gate blocks in the order
    input, forget, cell, output; h0, c0: (B, d) initial state; w_h: (d, 4d)
    recurrent weight. Returns (B, T, 2d) with h_t in [..., :d] and c_t in
    [..., d:]. The VJP is hand-written backpropagation through time, with
    the recurrent weight's gradient taken as one GEMM over all steps.
    """
    xp, h0, c0, w_h = (as_tensor(t) for t in (xp, h0, c0, w_h))
    if xp.ndim != 3 or xp.shape[-1] % 4:
        raise ShapeMismatch(f"lstm_layer input projections {xp.shape}, need (B, T, 4d)")
    B, T, four_d = xp.shape
    d = four_d // 4
    if w_h.shape != (d, four_d) or h0.shape != (B, d) or c0.shape != (B, d):
        raise ShapeMismatch(
            f"lstm_layer state {h0.shape}/{c0.shape}, weight {w_h.shape} for input {xp.shape}"
        )
    w, h0d, c0d = w_h.data, h0.data, c0.data  # the VJP reads no input projection
    out = np.empty((B, T, 2 * d))
    gates = np.empty((B, T, 4, d))  # activated i, f, g, o
    h, c = h0d, c0d
    for t in range(T):
        z = (xp.data[:, t] + h @ w).reshape(B, 4, d)
        act = gates[:, t]
        act[...] = 1.0 / (1.0 + np.exp(-z))
        act[:, 2] = np.tanh(z[:, 2])
        c = act[:, 1] * c + act[:, 0] * act[:, 2]
        h = act[:, 3] * np.tanh(c)
        out[:, t, :d] = h
        out[:, t, d:] = c

    def vjp(g):
        i, f, gg, o = (gates[:, :, k] for k in range(4))
        hs, cs = out[..., :d], out[..., d:]
        c_prev = np.concatenate([c0d[:, None], cs[:, :-1]], axis=1)
        h_prev = np.concatenate([h0d[:, None], hs[:, :-1]], axis=1)
        tc = np.tanh(cs)
        # local derivatives: dz_{i,f,g} = dc * k_{i,f,g}, dz_o = dh * k_o,
        # dc += dh * k_c, all precomputed for every step at once
        k = np.stack(
            [gg * i * (1.0 - i), c_prev * f * (1.0 - f), i * (1.0 - gg * gg),
             tc * o * (1.0 - o)],
            axis=2,
        )
        k_c = o * (1.0 - tc * tc)
        gh, gc = g[..., :d], g[..., d:]
        dz = np.empty((B, T, 4, d))
        dh = np.zeros((B, d))
        dcell = np.zeros((B, d))
        w_t = w.T
        for t in reversed(range(T)):
            dh = dh + gh[:, t]
            dcell = dcell + gc[:, t] + dh * k_c[:, t]
            dz[:, t, :3] = dcell[:, None] * k[:, t, :3]
            dz[:, t, 3] = dh * k[:, t, 3]
            dcell = dcell * f[:, t]
            dh = dz[:, t].reshape(B, four_d) @ w_t
        dz = dz.reshape(B, T, four_d)
        gw = h_prev.reshape(-1, d).T @ dz.reshape(-1, four_d)
        return dz, dh, dcell, gw

    return _make(out, (xp, h0, c0, w_h), vjp)


def _flat(a: np.ndarray) -> np.ndarray:
    return a.reshape(-1, a.shape[-1])


def _glu(h, gate, val):
    """sigmoid(h @ Wg + bg) * (h @ Wv + bv); returns the product and its factors."""
    sig = h @ gate[0].data
    sig += gate[1].data
    np.negative(sig, out=sig)
    np.exp(sig, out=sig)
    sig += 1.0
    np.divide(1.0, sig, out=sig)
    v = h @ val[0].data
    v += val[1].data
    return sig * v, sig, v


def _glu_vjp(g, h, gate, val, sig, v):
    """Gradients of `_glu` for (h, Wg, bg, Wv, bv) given the output's gradient.
    Overwrites `sig` and `v`."""
    gz = g * v
    gz *= sig
    gz *= np.subtract(1.0, sig, out=v)
    gv = np.multiply(g, sig, out=sig)
    gz, gv, hf = _flat(gz), _flat(gv), _flat(h)
    gh = gz @ gate[0].data.T
    gh += gv @ val[0].data.T
    return gh.reshape(h.shape), hf.T @ gz, gz.sum(axis=0), hf.T @ gv, gv.sum(axis=0)


def _layernorm(s, ln):
    """Layer norm over the last axis (Ba et al.), overwriting `s`; returns
    output, normed, sigma."""
    s -= s.mean(axis=-1, keepdims=True)
    out = s * s
    sigma = out.mean(axis=-1, keepdims=True)
    sigma += 1e-5
    np.sqrt(sigma, out=sigma)
    normed = np.divide(s, sigma, out=s)
    np.multiply(normed, ln[0].data, out=out)
    out += ln[1].data
    return out, normed, sigma


def _layernorm_vjp(g, ln, normed, sigma):
    """Gradients of `_layernorm` for (s, gain, bias). Overwrites `normed`."""
    t = g * normed
    g_gain = _flat(t).sum(axis=0)
    gn = g * ln[0].data
    normed *= np.multiply(gn, normed, out=t).mean(axis=-1, keepdims=True)
    gn -= normed
    gn /= sigma
    gn -= gn.mean(axis=-1, keepdims=True)
    return gn, g_gain, _flat(g).sum(axis=0)


def grn(x, fc1, fc2, gate, val, ln, skip=None, ctx=None, keep=None) -> Tensor:
    """A gated residual network (Lim et al., TFT) as a single node:
    LN(x' + GLU(keep * (ELU(x @ W1 + b1 + c @ Wc) @ W2 + b2))), x' = x or x @ skip.

    fc1, fc2, gate, val: (weight, bias) pairs; ln: (gain, bias); skip: a
    projection weight when the output width differs from x's; ctx: a
    (context (B, d), weight) pair, its term shared by every step of a 3-D x;
    keep: a (boolean mask, scale) pair, inverted dropout on the second dense
    layer's output.
    """
    x = as_tensor(x)
    xd = x.data
    h1 = xd @ fc1[0].data
    h1 += fc1[1].data
    if ctx is not None:
        c = ctx[0].data @ ctx[1].data
        h1 += c[:, None, :] if xd.ndim == 3 else c
    neg = np.minimum(h1, 0.0)
    np.exp(neg, out=neg)
    neg -= 1.0
    a = np.maximum(h1, 0.0, out=h1)
    a += neg  # ELU: neg is exactly 0 where h1 > 0, and a == neg where h1 <= 0
    del neg
    h2 = a @ fc2[0].data
    h2 += fc2[1].data
    if keep is not None:
        h2 *= keep[0]
        h2 *= keep[1]
    s, sig, v = _glu(h2, gate, val)
    s += xd if skip is None else xd @ skip.data
    out, normed, sigma = _layernorm(s, ln)
    parents = [x, *fc1, *fc2, *gate, *val, *ln, *([] if skip is None else [skip]), *(ctx or ())]

    def vjp(g):
        gs, g_lng, g_lnb = _layernorm_vjp(g, ln, normed, sigma)
        gh2, *g_glu = _glu_vjp(gs, h2, gate, val, sig, v)
        if keep is not None:
            gh2 *= keep[0]
            gh2 *= keep[1]
        gh2, af, xf = _flat(gh2), _flat(a), _flat(xd)
        gh1 = gh2 @ fc2[0].data.T
        elu_d = np.minimum(af, 0.0)
        elu_d += 1.0  # ELU': exactly 1 where h1 > 0, neg + 1 elsewhere
        gh1 *= elu_d
        gsf = _flat(gs)
        gx = gh1 @ fc1[0].data.T
        gx += gsf if skip is None else gsf @ skip.data.T
        grads = [gx.reshape(xd.shape), xf.T @ gh1, gh1.sum(axis=0),
                 af.T @ gh2, gh2.sum(axis=0), *g_glu, g_lng, g_lnb]
        grads += [] if skip is None else [xf.T @ gsf]
        if ctx is not None:
            gc = gh1.reshape(a.shape)
            gc = gc.sum(axis=1) if xd.ndim == 3 else gc
            grads += [gc @ ctx[1].data.T, ctx[0].data.T @ gc]
        return grads

    return _make(out, parents, vjp)


def gated_add_norm(h, gate, val, skip, ln) -> Tensor:
    """LN(GLU(h) + skip) as a single node: the gate after the LSTM and each
    attention block. gate, val: (weight, bias) pairs; ln: (gain, bias)."""
    h, skip = as_tensor(h), as_tensor(skip)
    hd = h.data
    s, sig, v = _glu(hd, gate, val)
    s += skip.data
    out, normed, sigma = _layernorm(s, ln)

    def vjp(g):
        gs, g_lng, g_lnb = _layernorm_vjp(g, ln, normed, sigma)
        gh, *g_glu = _glu_vjp(gs, hd, gate, val, sig, v)
        return [gh, *g_glu, gs, g_lng, g_lnb]

    return _make(out, [h, *gate, *val, skip, *ln], vjp)
