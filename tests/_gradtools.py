"""Shared finite-difference helpers for the test suite.

Central differences trade truncation error against float64 roundoff, and
both bite on different coordinates (huge curvature through the standardized
shock chain vs nearly-dead selection weights). Each coordinate is therefore
verified at two step sizes and keeps its better estimate: a wrong analytic
gradient fails at every step size, an FD artifact passes at one of them.
"""

import numpy as np

from omnitft import diffcore as dc
from omnitft.diffcore import Tensor


def per_coord_rel_errors(f, x: Tensor, coords, eps_values=(1e-4, 4e-4)) -> float:
    """Max over coords of (min over step sizes) relative gradient error."""
    x.grad = None
    out = f(x)
    dc.backward(out)
    analytic = x.grad.reshape(-1)
    flat = x.data.reshape(-1)
    worst = 0.0
    with dc.no_grad():  # the probes only need values
        for i in coords:
            best = np.inf
            for eps in eps_values:
                orig = flat[i]
                flat[i] = orig + eps
                hi = float(f(x).data)
                flat[i] = orig - eps
                lo = float(f(x).data)
                flat[i] = orig
                numeric = (hi - lo) / (2.0 * eps)
                best = min(best, abs(analytic[i] - numeric) / (abs(numeric) + 1e-8))
            worst = max(worst, best)
    return worst


def check_param(model, name, loss_fn, rng, n_coords=6, eps_values=(1e-4, 4e-4)) -> float:
    """Gradcheck one named parameter tensor against a scalar loss closure."""
    orig = model.params[name]
    x = Tensor(orig.data.copy(), requires_grad=True)

    def f(t):
        model.params[name] = t
        return loss_fn()

    coords = rng.choice(np.arange(x.data.size), size=min(n_coords, x.data.size),
                        replace=False)
    try:
        return per_coord_rel_errors(f, x, coords, eps_values)
    finally:
        model.params[name] = orig


def offkink_targets(model, batch, rng, margin=(0.5, 1.5)):
    """Targets that keep every pinball residual at least `margin` from zero."""
    base = model.forward(batch).quantiles.data
    off = rng.uniform(*margin, size=base.shape[:2]) * rng.choice([-1.0, 1.0],
                                                                 size=base.shape[:2])
    return base[:, :, 1] + off
