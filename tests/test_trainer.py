"""Objective values, hand-written gradients vs finite differences, SGD loop."""

import numpy as np
import numpy.testing as npt
import pytest

from ssmcompose import (
    InvalidInputError,
    TokenSequence,
    ToyModelConfig,
    TrainingDivergedError,
    UnsupportedConfigError,
    compose_picaso_r,
    continuation_loss,
    cross_entropy,
    encode_context,
    init_params,
    layer_scan,
    picaso_r_weights,
    zero_state,
)
from ssmcompose.compose import _cyclic_weights_1layer
from ssmcompose.trainer import (
    RetrievedContext,
    TrainExample,
    _compose_init,
    _cyclic_mix_backward,
    grad_bp2c,
    grad_bptc,
    gradient_check,
    loss_bp2c,
    loss_bptc,
    train,
)


def toy(d=8, m=16, seed=0):
    cfg = ToyModelConfig(embed_dim=d, state_dim=m, num_layers=1)
    return cfg, init_params(cfg, seed=seed)


def make_example(rng, n_contexts=3, ctx_len=(4, 15), q_len=6, cont_len=4):
    ctxs = tuple(
        RetrievedContext(TokenSequence(rng.integers(0, 256, rng.integers(*ctx_len))))
        for _ in range(n_contexts)
    )
    return TrainExample(
        query=TokenSequence(rng.integers(0, 256, q_len)),
        continuation=TokenSequence(rng.integers(0, 256, cont_len)),
        contexts=ctxs,
    )


class TestLossValues:
    def test_no_contexts_is_plain_cross_entropy(self):
        cfg, params = toy()
        rng = np.random.default_rng(1)
        ex = make_example(rng, n_contexts=0)
        expected = continuation_loss(ex.query, ex.continuation, zero_state(cfg), params)
        assert loss_bptc(ex, params) == pytest.approx(expected, rel=1e-12)

    def test_matches_store_composition_path(self):
        # Same value as composing the encoded context states and evaluating the
        # continuation loss through the plain model API.
        cfg, params = toy()
        rng = np.random.default_rng(2)
        ex = make_example(rng, n_contexts=4)
        states = [encode_context(rc.tokens, params, str(i)) for i, rc in enumerate(ex.contexts)]
        composed = compose_picaso_r(states)
        expected = continuation_loss(
            ex.query, ex.continuation, composed.to_layer_states(), params
        )
        assert loss_bptc(ex, params) == pytest.approx(expected, rel=1e-12)

    def test_objectives_share_values(self):
        _, params = toy()
        rng = np.random.default_rng(3)
        for n in (0, 1, 5):
            ex = make_example(rng, n_contexts=n)
            assert loss_bptc(ex, params) == pytest.approx(loss_bp2c(ex, params), rel=1e-12)

    def test_multi_layer_rejected(self):
        cfg = ToyModelConfig(embed_dim=4, state_dim=4, num_layers=2)
        params = init_params(cfg, seed=4)
        rng = np.random.default_rng(4)
        with pytest.raises(UnsupportedConfigError):
            loss_bptc(make_example(rng), params)

    def test_context_count_capped_at_ten(self):
        rng = np.random.default_rng(5)
        with pytest.raises(InvalidInputError):
            make_example(rng, n_contexts=11)


class TestGradients:
    def test_bptc_matches_finite_differences(self):
        _, params = toy(d=8, m=16)
        rng = np.random.default_rng(5)
        ex = make_example(rng, n_contexts=3)
        report = gradient_check(ex, params, objective="bptc", coords_per_tensor=20)
        assert report.worst < 1e-4, report.max_rel_err

    def test_bp2c_matches_finite_differences_with_frozen_composition(self):
        _, params = toy(d=8, m=16)
        rng = np.random.default_rng(6)
        ex = make_example(rng, n_contexts=3)
        report = gradient_check(ex, params, objective="bp2c", coords_per_tensor=20)
        assert report.worst < 1e-4, report.max_rel_err

    def test_bptc_no_context_matches_finite_differences(self):
        _, params = toy(d=8, m=16)
        rng = np.random.default_rng(7)
        ex = make_example(rng, n_contexts=0)
        report = gradient_check(ex, params, objective="bptc", coords_per_tensor=12)
        assert report.worst < 1e-4, report.max_rel_err

    def test_bp2c_context_only_embedding_rows_get_zero_grad(self):
        # Tokens 250..255 appear only inside contexts; under the stop gradient
        # their embedding rows must receive exactly zero.
        _, params = toy()
        ctx_tokens = TokenSequence(np.array([250, 251, 252, 253, 254, 255]))
        ex = TrainExample(
            query=TokenSequence(np.arange(5)),
            continuation=TokenSequence(np.arange(5, 9)),
            contexts=(RetrievedContext(ctx_tokens),),
        )
        _, g2 = grad_bp2c(ex, params)
        npt.assert_array_equal(g2["embedding"][250:], 0.0)
        _, g1 = grad_bptc(ex, params)
        assert np.abs(g1["embedding"][250:]).max() > 0.0

    @pytest.mark.parametrize("n", [0, 1, 4])
    def test_every_scan_is_the_model_layer_scan(self, n, monkeypatch):
        # One scan per context plus the query scan, all through model.layer_scan.
        _, params = toy()
        ex = make_example(np.random.default_rng(30 + n), n_contexts=n)
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[0].shape[0])
            return layer_scan(*args, **kwargs)

        monkeypatch.setattr("ssmcompose.trainer.layer_scan", counting)
        grad_bptc(ex, params)
        lengths = [len(rc.tokens) for rc in ex.contexts] + [len(ex.query) + len(ex.continuation)]
        assert calls == lengths

    def test_gradients_differ_between_objectives(self):
        _, params = toy()
        rng = np.random.default_rng(8)
        ex = make_example(rng, n_contexts=4)
        _, g1 = grad_bptc(ex, params)
        _, g2 = grad_bp2c(ex, params)
        assert np.abs(g1["layer0.w_in"] - g2["layer0.w_in"]).max() > 0.0


class TestCyclicMix:
    @pytest.mark.parametrize("n", [1, 2, 3, 10])
    def test_backward_matches_finite_differences(self, n):
        # The weights are multilinear in the decays, so central differences are
        # exact up to rounding at any step, even across a floor-clamped channel.
        cfg, _ = toy()
        rng = np.random.default_rng(20 + n)
        m = 4
        decays = rng.uniform(0.05, 1.0, (n, m))
        decays[:, 0] = cfg.decay_floor
        d_weights = rng.normal(size=(n, m))
        _, h = _cyclic_weights_1layer(decays)
        analytic = _cyclic_mix_backward(decays, h, d_weights)

        def loss(d):
            return float(np.sum(d_weights * _cyclic_weights_1layer(d)[0]))

        step = 1e-6
        fd = np.empty((n, m))
        for idx in np.ndindex(n, m):
            bumped = decays.copy()
            bumped[idx] += step
            plus = loss(bumped)
            bumped[idx] -= 2 * step
            fd[idx] = (plus - loss(bumped)) / (2 * step)
        npt.assert_allclose(analytic, fd, rtol=1e-7, atol=1e-8)

    def test_forward_weights_are_the_compose_kernel(self):
        # Bitwise: the trainer mixes with the same kernel, on the same decays,
        # that compose_picaso_r applies to the encoded context states.
        _, params = toy()
        ex = make_example(np.random.default_rng(9), n_contexts=5)
        comp = _compose_init(ex, params)
        states = [encode_context(rc.tokens, params) for rc in ex.contexts]
        npt.assert_array_equal(comp.weights, _cyclic_weights_1layer(comp.decays)[0])
        npt.assert_array_equal(comp.weights, picaso_r_weights(states).per_layer[0])


class TestTrain:
    def _dataset(self, rng, count=6):
        return [make_example(rng, n_contexts=int(rng.integers(0, 4))) for _ in range(count)]

    def test_zero_lr_keeps_params_bit_exact(self):
        _, params = toy()
        rng = np.random.default_rng(9)
        result = train(self._dataset(rng), params, steps=1, lr=0.0, objective="bptc", seed=0)
        for (_, a), (_, b) in zip(params.tensors(), result.params.tensors()):
            assert a.tobytes() == b.tobytes()

    def test_seeded_determinism(self):
        _, params = toy()
        rng = np.random.default_rng(10)
        data = self._dataset(rng)
        r1 = train(data, params, steps=8, lr=0.1, objective="bp2c", seed=3)
        r2 = train(data, params, steps=8, lr=0.1, objective="bp2c", seed=3)
        assert r1.losses == r2.losses
        for (_, a), (_, b) in zip(r1.params.tensors(), r2.params.tensors()):
            assert a.tobytes() == b.tobytes()

    def test_objectives_diverge_in_trajectory(self):
        _, params = toy()
        rng = np.random.default_rng(11)
        data = self._dataset(rng)
        r1 = train(data, params, steps=5, lr=0.2, objective="bptc", seed=1)
        r2 = train(data, params, steps=5, lr=0.2, objective="bp2c", seed=1)
        diffs = [
            np.abs(a - b).max()
            for (_, a), (_, b) in zip(r1.params.tensors(), r2.params.tensors())
        ]
        assert max(diffs) > 0.0

    def test_divergence_raises_with_step_index(self):
        _, params = toy()
        rng = np.random.default_rng(12)
        data = self._dataset(rng)
        with np.errstate(all="ignore"), pytest.raises(TrainingDivergedError) as exc:
            # lr huge enough to blow the loss to non-finite within a few steps
            train(data, params, steps=50, lr=1e9, objective="bptc", seed=0)
        assert exc.value.step >= 0

    def test_loss_decreases_on_tiny_task(self):
        _, params = toy()
        rng = np.random.default_rng(13)
        data = [make_example(rng, n_contexts=1) for _ in range(3)]
        result = train(data, params, steps=60, lr=0.5, objective="bptc", seed=2)
        assert np.mean(result.losses[-10:]) < np.mean(result.losses[:10])

    def test_rejects_bad_args(self):
        _, params = toy()
        rng = np.random.default_rng(14)
        data = self._dataset(rng)
        with pytest.raises(InvalidInputError):
            train(data, params, steps=0, lr=0.1)
        with pytest.raises(InvalidInputError):
            train(data, params, steps=1, lr=0.1, objective="nope")
        with pytest.raises(InvalidInputError):
            train([], params, steps=1, lr=0.1)
