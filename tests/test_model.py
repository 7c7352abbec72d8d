"""Core model tests: scans, state sufficiency, decay bookkeeping, losses."""

import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssmcompose import (
    InvalidInputError,
    TokenSequence,
    ToyModelConfig,
    cross_entropy,
    embed,
    encode_context,
    forward,
    init_params,
    layer_scan,
    zero_state,
)
from ssmcompose.model import VOCAB_SIZE, LayerState


def small_model(d=6, m=10, layers=2, conv_width=4, seed=0):
    cfg = ToyModelConfig(embed_dim=d, state_dim=m, num_layers=layers, conv_width=conv_width)
    return cfg, init_params(cfg, seed=seed)


def random_tokens(rng, length):
    return TokenSequence(rng.integers(0, VOCAB_SIZE, length))


def log_decay(res):
    """Exact, unclamped log of a scan's accumulated decay."""
    return np.log(res.gates).sum(axis=0)


class TestTokenSequence:
    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidInputError):
            TokenSequence(np.array([0, 256]))
        with pytest.raises(InvalidInputError):
            TokenSequence(np.array([-1]))

    def test_text_round_trip(self):
        seq = TokenSequence.from_text("hello, state")
        assert seq.to_text() == "hello, state"

    def test_concat(self):
        a = TokenSequence(np.array([1, 2]))
        b = TokenSequence(np.array([3]))
        npt.assert_array_equal(TokenSequence.concat([a, b]).tokens, [1, 2, 3])


class TestEmbed:
    def test_empty_sequence(self):
        _, params = small_model()
        out = embed(TokenSequence(np.zeros(0, dtype=np.int64)), params)
        assert out.shape == (0, 6)

    def test_table_lookup(self):
        _, params = small_model()
        seq = TokenSequence(np.array([5, 7, 5]))
        out = embed(seq, params)
        assert out.shape == (3, 6)
        npt.assert_array_equal(out[0], params.embedding[5])
        npt.assert_array_equal(out[2], out[0])


class TestLayerScan:
    def test_empty_scan_is_identity(self):
        cfg, params = small_model()
        init = zero_state(cfg)[0]
        res = layer_scan(np.zeros((0, cfg.embed_dim)), init, params.layers[0])
        assert res.xs.shape == (0, cfg.state_dim)
        assert res.final is init
        npt.assert_array_equal(res.seg_decay, np.ones(cfg.state_dim))
        npt.assert_array_equal(log_decay(res), np.zeros(cfg.state_dim))

    def test_no_decay_limit_accumulates_drive(self):
        # With the decay gate saturated at ~1 the state is just the summed drive.
        cfg, params = small_model(layers=1)
        lp = params.layers[0]
        lp_sat = type(lp)(
            w_decay=np.zeros_like(lp.w_decay),
            b_decay=np.full(cfg.state_dim, 20.0),
            w_in=lp.w_in,
            w_out=lp.w_out,
            passthrough=lp.passthrough,
            conv_kernel=lp.conv_kernel,
        )
        rng = np.random.default_rng(1)
        inputs = embed(random_tokens(rng, 9), params)
        init = LayerState(rng.normal(size=cfg.state_dim), np.zeros((cfg.embed_dim, 4)))
        res = layer_scan(inputs, init, lp_sat)

        padded = np.concatenate([init.conv_window[:, 1:].T, inputs], axis=0)
        u = sum(padded[j : j + 9] * lp_sat.conv_kernel[:, j] for j in range(4))
        expected = init.x + (u @ lp_sat.w_in.T).sum(axis=0)
        npt.assert_allclose(res.final.x, expected, rtol=1e-6)

    def test_split_scan_equals_unsplit(self):
        cfg, params = small_model(layers=1)
        rng = np.random.default_rng(2)
        inputs = embed(random_tokens(rng, 7), params)
        init = zero_state(cfg)[0]
        whole = layer_scan(inputs, init, params.layers[0])
        first = layer_scan(inputs[:3], init, params.layers[0])
        second = layer_scan(inputs[3:], first.final, params.layers[0])
        npt.assert_allclose(second.final.x, whole.final.x, rtol=1e-6)
        npt.assert_allclose(second.final.conv_window, whole.final.conv_window, rtol=1e-6)
        npt.assert_allclose(np.concatenate([first.xs, second.xs]), whole.xs, rtol=1e-6)
        npt.assert_allclose(
            first.seg_decay * second.seg_decay, whole.seg_decay, rtol=1e-12
        )
        npt.assert_allclose(
            log_decay(first) + log_decay(second), log_decay(whole), rtol=1e-12
        )

    def test_overflow_error_names_time_step(self):
        from ssmcompose import NumericOverflowError

        cfg, params = small_model(layers=1)
        blown = params.with_tensors(
            {
                "embedding": params.embedding * 1e180,
                "layer0.w_in": params.layers[0].w_in * 1e180,
            }
        )
        with np.errstate(all="ignore"), pytest.raises(NumericOverflowError, match="time step"):
            forward(TokenSequence(np.arange(5)), zero_state(cfg), blown)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), length=st.integers(1, 40))
    def test_decay_bookkeeping(self, seed, length):
        cfg, params = small_model(layers=1, seed=seed % 17)
        rng = np.random.default_rng(seed)
        inputs = embed(random_tokens(rng, length), params)
        res = layer_scan(inputs, zero_state(cfg)[0], params.layers[0])
        assert np.all(res.seg_decay > 0.0) and np.all(res.seg_decay <= 1.0)
        unclamped = res.seg_decay > cfg.decay_floor
        npt.assert_allclose(
            np.exp(log_decay(res)[unclamped]), res.seg_decay[unclamped], rtol=1e-5
        )


class TestForward:
    def test_layer_count_mismatch(self):
        cfg, params = small_model()
        with pytest.raises(InvalidInputError):
            forward(TokenSequence(np.array([1])), zero_state(cfg)[:1], params)

    def test_shapes_and_finiteness(self):
        cfg, params = small_model()
        logits, finals = forward(TokenSequence(np.array([3])), zero_state(cfg), params)
        assert logits.shape == (1, VOCAB_SIZE)
        assert np.isfinite(logits).all()
        assert len(finals) == cfg.num_layers

    def test_state_sufficiency_across_concatenation(self):
        # Scanning u then continuing over v from the returned states matches a
        # single scan over u||v, logits included, conv windows included.
        cfg, params = small_model(layers=3)
        rng = np.random.default_rng(3)
        u, v = random_tokens(rng, 11), random_tokens(rng, 6)
        logits_full, finals_full = forward(TokenSequence.concat([u, v]), zero_state(cfg), params)
        _, mid = forward(u, zero_state(cfg), params)
        logits_v, finals_v = forward(v, mid, params)
        npt.assert_allclose(logits_v, logits_full[len(u) :], rtol=1e-6)
        for a, b in zip(finals_v, finals_full):
            npt.assert_allclose(a.x, b.x, rtol=1e-6)
            npt.assert_allclose(a.conv_window, b.conv_window, rtol=1e-6)


class TestEncodeContext:
    def test_rejects_empty(self):
        _, params = small_model()
        with pytest.raises(InvalidInputError):
            encode_context(TokenSequence(np.zeros(0, dtype=np.int64)), params)

    def test_matches_forward_final_state(self):
        cfg, params = small_model()
        rng = np.random.default_rng(4)
        seq = random_tokens(rng, 13)
        state = encode_context(seq, params, context_id="c")
        _, finals = forward(seq, zero_state(cfg), params)
        for layer in range(cfg.num_layers):
            npt.assert_array_equal(state.x_seg[layer], finals[layer].x)
            npt.assert_array_equal(state.conv_tail[layer], finals[layer].conv_window)
        assert state.token_count == 13

    def test_single_token_decay_is_single_gate(self):
        cfg, params = small_model(layers=1)
        seq = TokenSequence(np.array([42]))
        state = encode_context(seq, params)
        res = layer_scan(embed(seq, params), zero_state(cfg)[0], params.layers[0])
        npt.assert_array_equal(state.decay[0], res.seg_decay)
        assert np.all(state.decay[0] > 0) and np.all(state.decay[0] < 1)

    def test_long_strong_decay_hits_floor_but_log_stays_finite(self):
        # Bias the gate to ~sigmoid(-5): 200 steps underflow the 1e-30 floor in
        # linear space while the log form stays exact.
        cfg, params = small_model(layers=1)
        strong = params.with_tensors({"layer0.b_decay": np.full(cfg.state_dim, -5.0)})
        rng = np.random.default_rng(5)
        seq = random_tokens(rng, 200)
        state = encode_context(seq, strong)
        assert np.all(state.decay[0] == cfg.decay_floor)
        res = layer_scan(embed(seq, strong), zero_state(cfg)[0], strong.layers[0])
        assert np.isfinite(log_decay(res)).all()
        assert np.all(log_decay(res) < math.log(cfg.decay_floor))


class TestCrossEntropy:
    def test_uniform_logits_give_log_vocab(self):
        cfg, params = small_model()
        flat = params.with_tensors({"head": np.zeros_like(params.head)})
        rng = np.random.default_rng(6)
        loss = cross_entropy(random_tokens(rng, 20), zero_state(cfg), flat)
        assert loss == pytest.approx(math.log(VOCAB_SIZE), rel=1e-12)

    def test_needs_two_tokens(self):
        cfg, params = small_model()
        with pytest.raises(InvalidInputError):
            cross_entropy(TokenSequence(np.array([1])), zero_state(cfg), params)

    def test_nonnegative(self):
        cfg, params = small_model()
        rng = np.random.default_rng(7)
        assert cross_entropy(random_tokens(rng, 30), zero_state(cfg), params) >= 0.0
