"""Small fully-connected regression network trained with full-batch Adam.

Four weight layers with rectified-linear activations between them, squared
error loss. Everything is plain numpy so a fixed random stream fully
determines the trained weights.

Memory layout. Training keeps the weights, their gradients and Adam's first
and second moments in four flat float64 vectors of equal length, ordered
``W0, b0, W1, b1, W2, b2, W3, b3`` with each ``W`` (fan_in, fan_out) in
row-major order. Each layer sees its parameters as ``(W, b)`` views into a
vector, so the per-layer passes and the whole-vector Adam step touch the
same memory. Activations are feature-major, (width, rows): the input is
laid out so once per call, and a :class:`_Workspace` holds every array one
pass writes: per layer the outputs (rectified in place on hidden layers),
the rectifier masks and the backpropagated deltas, plus the flat gradient.
Bias adds then broadcast along the rows, and the bias gradient is one
matrix-vector product ``delta @ ones``. The workspace is built once per
training run and every epoch writes into it.
"""

from __future__ import annotations

import numpy as np

from ..errors import ParameterError


def init_params(rng: np.random.Generator, sizes) -> list[tuple[np.ndarray, np.ndarray]]:
    """He-scaled Gaussian weights, zero biases; sizes = (in, h1, h2, h3, out)."""
    sizes = [int(s) for s in sizes]
    if len(sizes) != 5:
        raise ParameterError(f"expected 5 layer sizes (4 weight layers), got {len(sizes)}")
    if min(sizes) < 1:
        raise ParameterError(f"layer sizes must be positive, got {sizes}")
    params = []
    for fan_in, fan_out in zip(sizes, sizes[1:]):
        w = rng.standard_normal((fan_in, fan_out)) * np.sqrt(2.0 / fan_in)
        params.append((w, np.zeros(fan_out)))
    return params


def _sizes(params) -> tuple[int, ...]:
    return (params[0][0].shape[0], *(w.shape[1] for w, _ in params))


def _layer_views(flat: np.ndarray, sizes) -> list[tuple[np.ndarray, np.ndarray]]:
    """``(W, b)`` views into ``flat`` in the module's parameter order."""
    views = []
    start = 0
    for fan_in, fan_out in zip(sizes, sizes[1:]):
        w = flat[start : start + fan_in * fan_out].reshape(fan_in, fan_out)
        start += fan_in * fan_out
        views.append((w, flat[start : start + fan_out]))
        start += fan_out
    return views


def _packed(params) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
    """A flat copy of ``params`` and its layer views."""
    flat = np.concatenate([part.ravel() for pair in params for part in pair])
    return flat, _layer_views(flat, _sizes(params))


class _Workspace:
    """Every buffer one forward and backward pass writes, for fixed shapes."""

    def __init__(self, sizes, rows: int):
        self.grad = np.empty(sum(a * b + b for a, b in zip(sizes, sizes[1:])))
        self.grads = _layer_views(self.grad, sizes)
        self.outs = [np.empty((s, rows)) for s in sizes[1:]]
        self.masks = [np.empty((s, rows), dtype=bool) for s in sizes[1:-1]]
        self.deltas = [np.empty((s, rows)) for s in sizes[1:]]
        self.ones = np.ones(rows)


def _forward(params, xt: np.ndarray, outs) -> np.ndarray:
    """Write each layer's output into ``outs``; returns the predictions, a view.

    ``xt`` is the input feature-major, (features, rows). Hidden outputs are
    rectified in place, so ``outs[i] > 0`` is exactly the rectifier's on
    pattern ``z > 0`` (NaN included: both are false).
    """
    h = xt
    last = len(params) - 1
    for i, (w, b) in enumerate(params):
        z = outs[i]
        np.matmul(w.T, h, out=z)
        z += b[:, None]
        if i != last:
            np.maximum(z, 0.0, out=z)
        h = z
    return h[0]


def _loss(params, xt: np.ndarray, y: np.ndarray, ws: _Workspace) -> float:
    """Mean squared error; leaves the residuals in the last delta buffer."""
    err = ws.deltas[-1][0]
    np.subtract(_forward(params, xt, ws.outs), y, out=err)
    return float(err @ err) / xt.shape[1]


def forward(params, x: np.ndarray) -> np.ndarray:
    """Predicted values, shape (rows,); input shape (rows, features)."""
    outs = [np.empty((w.shape[1], x.shape[0])) for w, _ in params]
    return _forward(params, np.ascontiguousarray(x.T), outs)


def loss_and_grads(params, x: np.ndarray, y: np.ndarray, workspace: _Workspace | None = None):
    """Mean squared error and its gradient for every weight and bias.

    The gradients are ``(W, b)`` views into ``workspace.grad``; a later call
    with the same workspace overwrites them. Without a workspace each call
    builds its own. A workspace built for other shapes makes the first
    ``out=`` product raise.
    """
    xt = np.ascontiguousarray(x.T)  # a view if x is Fortran-ordered
    ws = _Workspace(_sizes(params), x.shape[0]) if workspace is None else workspace
    loss = _loss(params, xt, y, ws)
    last = len(params) - 1
    delta = ws.deltas[last]
    delta *= 2.0 / x.shape[0]
    for i in range(last, -1, -1):
        gw, gb = ws.grads[i]
        np.matmul(xt if i == 0 else ws.outs[i - 1], delta.T, out=gw)
        np.matmul(delta, ws.ones, out=gb)
        if i > 0:
            w, _ = params[i]
            below = ws.deltas[i - 1]
            if i == last:
                # one output unit: w @ delta is an outer product
                np.multiply(w, delta, out=below)
            else:
                np.matmul(w, delta, out=below)
            mask = ws.masks[i - 1]
            np.greater(ws.outs[i - 1], 0.0, out=mask)
            below *= mask
            delta = below
    return loss, list(ws.grads)


def train_network(
    x: np.ndarray,
    y: np.ndarray,
    widths,
    rng: np.random.Generator,
    epochs: int = 400,
    learning_rate: float = 0.01,
):
    """Fit the network; returns (params, training loss).

    Full-batch Adam with a fixed epoch budget. The returned loss is that of
    the parameters before the final Adam step, the last loss the loop
    computes.

    The returned ``(W, b)`` pairs are views into one flat vector owned by
    this call alone. Adam runs elementwise over the flat vectors in the
    same operation order as a per-array update, so the bits do not depend
    on the layout.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    if x.ndim != 2 or x.shape[0] != len(y):
        raise ParameterError(f"x {x.shape} and y {y.shape} do not align")
    x = np.asfortranarray(x)  # so each epoch's feature-major x.T is a view, not a copy
    sizes = (x.shape[1], *widths, 1)
    theta, params = _packed(init_params(rng, sizes))
    ws = _Workspace(sizes, x.shape[0])
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    step = np.empty_like(theta)
    denom = np.empty_like(theta)
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    loss = np.inf
    for t in range(1, epochs + 1):
        loss, _ = loss_and_grads(params, x, y, ws)
        g = ws.grad
        # m = beta1 * m + (1 - beta1) * g
        m *= beta1
        np.multiply(g, 1 - beta1, out=step)
        m += step
        # v = beta2 * v + (1 - beta2) * g**2
        v *= beta2
        np.multiply(g, g, out=step)
        step *= 1 - beta2
        v += step
        # theta -= lr * (m / corr1) / (sqrt(v / corr2) + eps)
        np.divide(m, 1 - beta1**t, out=step)
        step *= learning_rate
        np.divide(v, 1 - beta2**t, out=denom)
        np.sqrt(denom, out=denom)
        denom += eps
        step /= denom
        theta -= step
    return params, float(loss)
