"""Bitwise oracle for network training, and a drift bound against the original.

The ``_reference_*`` functions are frozen copies of the original per-array
implementation: one fresh array per activation, gradient and Adam
temporary, Adam as separate numpy calls per array, and a separate forward
pass in each of ``forward``, ``loss_and_grads`` and the gradient probe.
They hold activations row-major, (rows, width), and sum bias gradients
with ``delta.sum(axis=0)``.

``network.py`` holds activations feature-major, (width, rows), and takes
bias gradients as ``delta @ ones``. That moves the bits, so the
``_fm_reference_*`` functions restate the same per-array code in that
layout, and every bitwise assertion compares against them; training and
the gradient probe run the frozen per-array Adam and probe over them. Any
rewrite of ``network.py`` must reproduce their bits exactly, because the
ensemble digests at a fixed seed depend on them. The row-major references
bound the drift of the layout change: one ``loss_and_grads`` call and
``forward`` stay within ``rtol=1e-12`` of them.
"""

import numpy as np
import pytest

from gridgap.backcast import forward, loss_and_grads, train_network
from gridgap.backcast.network import _Workspace

from helpers import gradient_check


def _reference_init(rng, sizes):
    params = []
    for fan_in, fan_out in zip(sizes, sizes[1:]):
        w = rng.standard_normal((fan_in, fan_out)) * np.sqrt(2.0 / fan_in)
        params.append((w, np.zeros(fan_out)))
    return params


def _reference_forward(params, x):
    h = x
    last = len(params) - 1
    for i, (w, b) in enumerate(params):
        h = h @ w + b
        if i != last:
            h = np.maximum(h, 0.0)
    return h[:, 0]


def _reference_loss_and_pattern(params, x, y):
    h = x
    last = len(params) - 1
    pattern = []
    for i, (w, b) in enumerate(params):
        z = h @ w + b
        if i != last:
            pattern.append((z > 0.0).tobytes())
            h = np.maximum(z, 0.0)
        else:
            h = z
    err = h[:, 0] - y
    return float(err @ err) / x.shape[0], tuple(pattern)


def _reference_gradient_check(params, x, y, samples, eps, rng, layout=None):
    """``layout`` swaps in another pair of loss functions; None is the frozen row-major one."""
    loss_and_grads_, loss_and_pattern = layout or (
        _reference_loss_and_grads,
        _reference_loss_and_pattern,
    )
    _, grads = loss_and_grads_(params, x, y)
    worst = 0.0
    flat = []
    for i, (w, b) in enumerate(params):
        flat.extend((i, 0, idx) for idx in range(w.size))
        flat.extend((i, 1, idx) for idx in range(b.size))
    chosen = rng.choice(len(flat), size=min(samples, len(flat)), replace=False)
    for c in chosen:
        layer, part, idx = flat[int(c)]
        arrays = [(np.array(w), np.array(b)) for w, b in params]
        target = arrays[layer][part].reshape(-1)
        target[idx] += eps
        up, pattern_up = loss_and_pattern(arrays, x, y)
        target[idx] -= 2 * eps
        down, pattern_down = loss_and_pattern(arrays, x, y)
        target[idx] += eps
        if pattern_up != pattern_down:
            continue
        numeric = (up - down) / (2 * eps)
        analytic = grads[layer][part].reshape(-1)[idx]
        scale = max(abs(numeric), abs(analytic), 1e-8)
        worst = max(worst, abs(numeric - analytic) / scale)
    return worst


def _reference_loss_and_grads(params, x, y):
    acts = [x]
    pre = []
    h = x
    last = len(params) - 1
    for i, (w, b) in enumerate(params):
        z = h @ w + b
        pre.append(z)
        h = np.maximum(z, 0.0) if i != last else z
        acts.append(h)
    rows = x.shape[0]
    err = acts[-1][:, 0] - y
    loss = float(err @ err) / rows
    grads = [None] * len(params)
    delta = (2.0 / rows) * err[:, None]
    for i in range(last, -1, -1):
        w, _ = params[i]
        grads[i] = (acts[i].T @ delta, delta.sum(axis=0))
        if i > 0:
            delta = (delta @ w.T) * (pre[i - 1] > 0.0)
    return loss, grads


def _reference_train(x, y, widths, rng, epochs, learning_rate=0.01,
                     loss_and_grads_=_reference_loss_and_grads):
    """The original training loop; its gradient probe only raises, so it is left out."""
    params = _reference_init(rng, (x.shape[1], *widths, 1))
    m = [(np.zeros_like(w), np.zeros_like(b)) for w, b in params]
    v = [(np.zeros_like(w), np.zeros_like(b)) for w, b in params]
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    loss = np.inf
    for t in range(1, epochs + 1):
        loss, grads = loss_and_grads_(params, x, y)
        new_params = []
        for i, ((w, b), (gw, gb)) in enumerate(zip(params, grads)):
            mw = beta1 * m[i][0] + (1 - beta1) * gw
            mb = beta1 * m[i][1] + (1 - beta1) * gb
            vw = beta2 * v[i][0] + (1 - beta2) * gw**2
            vb = beta2 * v[i][1] + (1 - beta2) * gb**2
            m[i] = (mw, mb)
            v[i] = (vw, vb)
            corr1 = 1 - beta1**t
            corr2 = 1 - beta2**t
            step_w = learning_rate * (mw / corr1) / (np.sqrt(vw / corr2) + eps)
            step_b = learning_rate * (mb / corr1) / (np.sqrt(vb / corr2) + eps)
            new_params.append((w - step_w, b - step_b))
        params = new_params
    return params, float(loss)


def _fm_reference_forward(params, x):
    h = np.ascontiguousarray(x.T)
    last = len(params) - 1
    for i, (w, b) in enumerate(params):
        h = w.T @ h + b[:, None]
        if i != last:
            h = np.maximum(h, 0.0)
    return h[0]


def _fm_reference_loss_and_pattern(params, x, y):
    h = np.ascontiguousarray(x.T)
    last = len(params) - 1
    pattern = []
    for i, (w, b) in enumerate(params):
        z = w.T @ h + b[:, None]
        if i != last:
            pattern.append((z > 0.0).tobytes())
            h = np.maximum(z, 0.0)
        else:
            h = z
    err = h[0] - y
    return float(err @ err) / x.shape[0], tuple(pattern)


def _fm_reference_loss_and_grads(params, x, y):
    h = np.ascontiguousarray(x.T)
    acts = [h]
    pre = []
    last = len(params) - 1
    for i, (w, b) in enumerate(params):
        z = w.T @ h + b[:, None]
        pre.append(z)
        h = np.maximum(z, 0.0) if i != last else z
        acts.append(h)
    rows = x.shape[0]
    err = acts[-1][0] - y
    loss = float(err @ err) / rows
    grads = [None] * len(params)
    delta = (2.0 / rows) * err[None, :]
    ones = np.ones(rows)
    for i in range(last, -1, -1):
        w, _ = params[i]
        grads[i] = (acts[i] @ delta.T, delta @ ones)
        if i > 0:
            delta = (w @ delta) * (pre[i - 1] > 0.0)
    return loss, grads


FEATURE_MAJOR = (_fm_reference_loss_and_grads, _fm_reference_loss_and_pattern)


def _fm_reference_train(x, y, widths, rng, epochs):
    return _reference_train(x, y, widths, rng, epochs, loss_and_grads_=_fm_reference_loss_and_grads)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _assert_pairs_identical(got, want):
    assert len(got) == len(want)
    for (w1, b1), (w2, b2) in zip(got, want):
        assert _same_bits(w1, w2)
        assert _same_bits(b1, b2)


def _data(rows=90, cols=7, seed=11):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((rows, cols))
    y = x @ rng.standard_normal(cols) + 0.1 * rng.standard_normal(rows)
    return x[rng.permutation(rows)], y


WIDTHS = [(1, 1, 1), (8, 8, 8), (64, 17, 3)]


@pytest.mark.parametrize("widths", WIDTHS)
@pytest.mark.parametrize("epochs", [1, 25])
def test_train_network_matches_reference(widths, epochs):
    x, y = _data()
    got, got_loss = train_network(x, y, widths, np.random.default_rng(7), epochs=epochs)
    want, want_loss = _fm_reference_train(x, y, widths, np.random.default_rng(7), epochs)
    _assert_pairs_identical(got, want)
    assert got_loss == want_loss


@pytest.mark.parametrize("widths", WIDTHS)
def test_loss_and_grads_matches_reference(widths):
    x, y = _data(seed=13)
    params = _reference_init(np.random.default_rng(9), (x.shape[1], *widths, 1))
    loss, grads = loss_and_grads(params, x, y)
    want_loss, want_grads = _fm_reference_loss_and_grads(params, x, y)
    assert loss == want_loss
    _assert_pairs_identical(grads, want_grads)
    assert _same_bits(forward(params, x), _fm_reference_forward(params, x))


@pytest.mark.parametrize("widths", WIDTHS)
def test_drift_from_row_major_reference(widths):
    x, y = _data(seed=13)
    params = _reference_init(np.random.default_rng(9), (x.shape[1], *widths, 1))
    loss, grads = loss_and_grads(params, x, y)
    want_loss, want_grads = _reference_loss_and_grads(params, x, y)
    np.testing.assert_allclose(loss, want_loss, rtol=1e-12, atol=0)
    assert len(grads) == len(want_grads)
    for got_pair, want_pair in zip(grads, want_grads):
        for got, want in zip(got_pair, want_pair):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
    np.testing.assert_allclose(forward(params, x), _reference_forward(params, x), rtol=1e-12, atol=0)


@pytest.mark.parametrize("widths", WIDTHS)
@pytest.mark.parametrize("samples", [5, 10_000])
def test_gradient_check_matches_reference(widths, samples):
    x, y = _data(seed=17)
    params = _reference_init(np.random.default_rng(10), (x.shape[1], *widths, 1))
    got = gradient_check(params, x, y, samples, 1e-6, np.random.default_rng(2))
    want = _reference_gradient_check(
        params, x, y, samples, 1e-6, np.random.default_rng(2), FEATURE_MAJOR
    )
    assert got == want


def test_later_training_leaves_earlier_results_alone():
    x, y = _data(seed=14)
    first, _ = train_network(x, y, (8, 8, 8), np.random.default_rng(1), epochs=10)
    saved = [(w.copy(), b.copy()) for w, b in first]
    train_network(x, y, (8, 8, 8), np.random.default_rng(2), epochs=10)
    train_network(x * 2.0, y, (8, 8, 8), np.random.default_rng(1), epochs=10)
    _assert_pairs_identical(first, saved)


def test_reused_workspace_matches_reference():
    x, y = _data(seed=15)
    sizes = (x.shape[1], 64, 17, 3, 1)
    ws = _Workspace(sizes, x.shape[0])
    for seed in (3, 4):
        params = _reference_init(np.random.default_rng(seed), sizes)
        loss, grads = loss_and_grads(params, x, y, ws)
        want_loss, want_grads = _fm_reference_loss_and_grads(params, x, y)
        assert loss == want_loss
        _assert_pairs_identical(grads, want_grads)

