"""model._affine_scan, the one loop over the recurrence x_t = a_t * x_{t-1} + b_t.

It is checked against a plain loop, and every function that calls it against
the hand loop it replaced, byte for byte.  Those loops live on here as oracles.
"""

import numpy as np
import pytest

from ssmcompose import ToyModelConfig, init_params, layer_scan
from ssmcompose.compose import _caso_weights, _cyclic_weights_1layer
from ssmcompose.model import LayerState, _affine_scan
from ssmcompose.trainer import (
    _cyclic_mix_backward,
    _exclusive_products,
    _scan,
    _scan_backward,
    _zero_grads,
)

DECAY_RANGES = [(1e-30, 1e-3), (0.999999, 1.0), (1e-30, 1.0), (0.05, 0.999)]


def same_bytes(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def affine_loop(a, b, x0):
    xs = []
    x = x0
    for t in range(len(a)):
        x = a[t] * x + b[t]
        xs.append(x)
    return np.array(xs).reshape((len(a),) + np.shape(x0))


# ---------------------------------------------------------------------------
# The loops _affine_scan replaced, as they stood in src/
# ---------------------------------------------------------------------------


def layer_scan_loop(gates, drive, x0):
    """model.layer_scan's time loop."""
    xs = np.empty(gates.shape)
    x = x0
    for t in range(gates.shape[0]):
        x = gates[t] * x + drive[t]
        xs[t] = x
    return xs


def scan_backward_loop(
    tokens, x0, scan, params, grads,
    d_xs=None, d_u_extra=None, d_emb_extra=None, g_final=None, g_decay=None, g_window=None,
):
    """trainer._scan_backward with its reverse-time loop over the state gradient."""
    lp = params.layers[0]
    T, m = scan.gates.shape
    w = lp.conv_kernel.shape[1]

    d_gates = np.zeros((T, m))
    d_drive = np.zeros((T, m))

    if g_decay is not None:
        d_gates += g_decay * _exclusive_products(scan.gates)

    gx = np.zeros(m)
    if g_final is not None:
        gx = gx + g_final
    for t in range(T - 1, -1, -1):
        if d_xs is not None:
            gx = gx + d_xs[t]
        x_prev = scan.xs[t - 1] if t > 0 else x0
        d_gates[t] += gx * x_prev
        d_drive[t] += gx
        gx = gx * scan.gates[t]
    g_x0 = gx

    dz = d_gates * scan.gates * (1.0 - scan.gates)
    grads["layer0.w_decay"] += dz.T @ scan.u
    grads["layer0.b_decay"] += dz.sum(axis=0)
    grads["layer0.w_in"] += d_drive.T @ scan.u

    d_u = dz @ lp.w_decay + d_drive @ lp.w_in
    if d_u_extra is not None:
        d_u = d_u + d_u_extra

    d_pad = np.zeros_like(scan.padded)
    for j in range(w):
        d_pad[j : j + T] += d_u * lp.conv_kernel[:, j]
        grads["layer0.conv_kernel"][:, j] += (d_u * scan.padded[j : j + T]).sum(axis=0)
    if g_window is not None:
        for c in range(w):
            d_pad[T - 1 + c] += g_window[:, c]

    g_win0 = np.zeros((params.config.embed_dim, w))
    if w > 1:
        g_win0[:, 1:] = d_pad[: w - 1].T
    d_emb = d_pad[w - 1 :]
    if d_emb_extra is not None:
        d_emb = d_emb + d_emb_extra
    np.add.at(grads["embedding"], tokens, d_emb)
    return g_x0, g_win0


def cyclic_weights_loop(decays):
    """compose._cyclic_weights_1layer with its reverse loop over the doubled decays."""
    n, m = decays.shape
    doubled = np.concatenate([decays, decays], axis=0)
    h = np.empty((2 * n, m))
    h[-1] = 1.0
    for i in range(2 * n - 2, -1, -1):
        np.multiply(doubled[i + 1], h[i + 1], out=h[i])
        h[i] += 1.0
    total = np.prod(decays, axis=0)
    weights = (h[:n] - total * h[n:]) / n if n > 1 else np.ones((1, m))
    return weights, h


def cyclic_mix_backward_loop(decays, h, d_weights):
    """trainer._cyclic_mix_backward with its forward loop over the doubled decays."""
    n, m = decays.shape
    g = d_weights / n
    total = np.prod(decays, axis=0)
    g_h = np.concatenate([g, -total * g], axis=0)
    doubled = np.concatenate([decays, decays], axis=0)
    acc = np.empty((2 * n - 1, m))
    acc[0] = g_h[0]
    for i in range(1, 2 * n - 1):
        np.multiply(doubled[i], acc[i - 1], out=acc[i])
        acc[i] += g_h[i]
    d_doubled = np.zeros((2 * n, m))
    d_doubled[1:] = acc * h[1:]
    g_total = -(g * h[n:]).sum(axis=0)
    return d_doubled[:n] + d_doubled[n:] + g_total * _exclusive_products(decays)


def caso_weights_loop(decays):
    """compose._caso_weights's reverse running product."""
    n, m = decays.shape
    weights = np.ones((n, m))
    run = np.ones(m)
    for i in range(n - 2, -1, -1):
        run = run * decays[i + 1]
        weights[i] = run
    return weights


# ---------------------------------------------------------------------------


class TestAffineScan:
    @pytest.mark.parametrize("T", [0, 1, 2, 57])
    def test_matches_loop(self, T):
        rng = np.random.default_rng(T)
        a, b = rng.uniform(0.0, 1.0, (T, 5)), rng.normal(size=(T, 5))
        x0 = rng.normal(size=5)
        x0.flags.writeable = False
        before = (a.copy(), b.copy(), x0.copy())
        same_bytes(_affine_scan(a, b, x0), affine_loop(a, b, x0))
        for arr, kept in zip((a, b, x0), before):
            same_bytes(arr, kept)


def toy(d=6, m=10, conv_width=4, seed=0):
    cfg = ToyModelConfig(embed_dim=d, state_dim=m, num_layers=1, conv_width=conv_width)
    return cfg, init_params(cfg, seed=seed)


class TestCallersMatchTheirOldLoops:
    @pytest.mark.parametrize("T", [0, 1, 40])
    def test_layer_scan(self, T):
        cfg, params = toy()
        lp = params.layers[0]
        rng = np.random.default_rng(T)
        init = LayerState(rng.normal(size=cfg.state_dim), rng.normal(size=(cfg.embed_dim, 4)))
        res = layer_scan(params.embedding[rng.integers(0, 256, T)], init, lp)
        same_bytes(res.xs, layer_scan_loop(res.gates, res.u @ lp.w_in.T, init.x))

    @pytest.mark.parametrize("T", [1, 2, 33])
    @pytest.mark.parametrize("seeds", ["query", "context", "all"])
    @pytest.mark.parametrize("conv_width", [1, 4])
    def test_scan_backward(self, T, seeds, conv_width):
        cfg, params = toy(conv_width=conv_width)
        m, d, w = cfg.state_dim, cfg.embed_dim, conv_width
        rng = np.random.default_rng(T * 10 + conv_width)
        tokens = rng.integers(0, 256, T)
        x0 = rng.normal(size=m)
        scan = _scan(tokens, params, x0, rng.normal(size=(d, w)))
        query = dict(
            d_xs=rng.normal(size=(T, m)),
            d_u_extra=rng.normal(size=(T, d)),
            d_emb_extra=rng.normal(size=(T, d)),
        )
        context = dict(
            g_final=rng.normal(size=m), g_decay=rng.normal(size=m), g_window=rng.normal(size=(d, w))
        )
        kwargs = {"query": query, "context": context, "all": {**query, **context}}[seeds]
        grads, expected_grads = _zero_grads(params), _zero_grads(params)
        result = _scan_backward(tokens, x0, scan, params, grads, **kwargs)
        expected = scan_backward_loop(tokens, x0, scan, params, expected_grads, **kwargs)
        for got, want in zip(result, expected):
            same_bytes(got, want)
        for name in expected_grads:
            same_bytes(grads[name], expected_grads[name])

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 32])
    @pytest.mark.parametrize("decay_range", DECAY_RANGES)
    def test_cyclic_weights_and_adjoint(self, n, decay_range):
        rng = np.random.default_rng(n)
        decays = rng.uniform(*decay_range, (n, 8))
        weights, h = _cyclic_weights_1layer(decays)
        want_weights, want_h = cyclic_weights_loop(decays)
        same_bytes(weights, want_weights)
        same_bytes(h, want_h)
        d_weights = rng.normal(size=(n, 8))
        same_bytes(
            _cyclic_mix_backward(decays, h, d_weights),
            cyclic_mix_backward_loop(decays, want_h, d_weights),
        )

    @pytest.mark.parametrize("n", [1, 2, 7, 32])
    @pytest.mark.parametrize("decay_range", DECAY_RANGES)
    def test_caso_weights(self, n, decay_range):
        decays = np.random.default_rng(n).uniform(*decay_range, (n, 8))
        same_bytes(_caso_weights(decays), caso_weights_loop(decays))

