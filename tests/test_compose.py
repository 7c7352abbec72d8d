"""Composition algorithms against brute-force oracles and hand arithmetic."""

import itertools
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
    caso_distance_bound,
    compose_caso,
    compose_picaso_r,
    compose_picaso_s,
    compose_piconcat_r,
    compose_soup,
    encode_context,
    esp_all,
    esp_merge,
    init_params,
    mixing_weights,
)
from ssmcompose.bench import synthetic_contexts
from ssmcompose.compose import OP_COUNTER
from ssmcompose.corpus import generate_corpus
from ssmcompose.model import FORWARD_CALLS, ContextState
from ssmcompose.pipeline import REFERENCE_CONFIG


def scalar_context(x, decay, cid="c"):
    """Single-layer, single-channel context with the given state and decay."""
    return ContextState(
        context_id=cid,
        token_count=1,
        x_seg=(np.array([float(x)]),),
        decay=(np.array([float(decay)]),),
        conv_tail=(np.zeros((1, 1)),),
    )


def random_contexts(rng, n, m=5, layers=1, decay_range=(0.05, 0.999)):
    out = []
    for i in range(n):
        decays = tuple(rng.uniform(*decay_range, m) for _ in range(layers))
        out.append(
            ContextState(
                context_id=f"c{i}",
                token_count=1,
                x_seg=tuple(rng.normal(size=m) for _ in range(layers)),
                decay=decays,
                conv_tail=tuple(rng.normal(size=(3, 2)) for _ in range(layers)),
            )
        )
    return out


def cyclic_weights_direct(decays):
    """Oracle: cyclic weights by direct running products, O(n^2).  decays: (n, m)."""
    n, m = decays.shape
    weights = np.empty((n, m))
    for k in range(n):
        acc = np.ones(m)
        run = np.ones(m)
        for s in range(1, n):
            run = run * decays[(k + s) % n]
            acc = acc + run
        weights[k] = acc / n
    return weights


def caso_weights_running_product(decays):
    """Oracle: W_i = A_{n-1} * ... * A_{i+1}, one scalar product at a time.  decays: (n, m)."""
    n, m = decays.shape
    weights = np.empty((n, m))
    for c in range(m):
        run = 1.0
        for i in range(n - 1, -1, -1):
            weights[i, c] = run
            run = run * float(decays[i, c])
    return weights


def decay_contexts(decays):
    """Single-layer contexts carrying the rows of `decays` (n, m) as decays."""
    return [
        ContextState(
            context_id=str(i),
            token_count=1,
            x_seg=(np.zeros(decays.shape[1]),),
            decay=(row,),
            conv_tail=(np.zeros((2, 2)),),
        )
        for i, row in enumerate(decays)
    ]


def caso_mean_over(orderings, contexts):
    stack = [
        np.stack(compose_caso([contexts[i] for i in order]).x) for order in orderings
    ]
    return np.mean(stack, axis=0)


class TestCaso:
    def test_single_context_is_identity(self):
        c = scalar_context(3.25, 0.5)
        npt.assert_array_equal(compose_caso([c]).x[0], [3.25])

    def test_two_context_arithmetic(self):
        # x_2 + decay_2 * x_1 = 2.0 + 0.5 * 1.0
        out = compose_caso([scalar_context(1.0, 0.25), scalar_context(2.0, 0.5)])
        npt.assert_allclose(out.x[0], [2.5], rtol=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            compose_caso([])

    def test_config_mismatch_rejected(self):
        rng = np.random.default_rng(0)
        a = random_contexts(rng, 1, m=4)[0]
        b = random_contexts(rng, 1, m=5)[0]
        with pytest.raises(InvalidInputError):
            compose_caso([a, b])

    def test_single_layer_matches_concatenated_scan(self):
        # Width-1 conv: the block is exactly the bare recurrence, for which the
        # ordered composition reproduces the concatenated scan.
        cfg = ToyModelConfig(embed_dim=6, state_dim=12, num_layers=1, conv_width=1)
        params = init_params(cfg, seed=11)
        rng = np.random.default_rng(11)
        segs = [TokenSequence(rng.integers(0, 256, rng.integers(1, 30))) for _ in range(5)]
        states = [encode_context(s, params) for s in segs]
        composed = compose_caso(states)
        oracle = encode_context(TokenSequence.concat(segs), params)
        npt.assert_allclose(composed.x[0], oracle.x_seg[0], rtol=1e-6)

    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_kernel_is_the_running_product(self, n):
        rng = np.random.default_rng(20 + n)
        ctxs = random_contexts(rng, n, m=6)
        decays = np.stack([c.decay[0] for c in ctxs])
        weights = caso_weights_running_product(decays)
        npt.assert_array_equal(mixing_weights("caso", ctxs)[0], weights)
        states = np.stack([c.x_seg[0] for c in ctxs])
        npt.assert_array_equal(compose_caso(ctxs).x[0], np.sum(weights * states, axis=0))

    def test_conv_tail_is_mean(self):
        rng = np.random.default_rng(1)
        ctxs = random_contexts(rng, 3)
        out = compose_caso(ctxs)
        npt.assert_allclose(
            out.conv_tail[0], np.mean([c.conv_tail[0] for c in ctxs], axis=0), rtol=1e-12
        )


class TestEsp:
    def test_e0_is_one(self):
        table = esp_all([np.array([0.3, 0.7])])
        npt.assert_array_equal(table[0], [1.0, 1.0])
        npt.assert_array_equal(esp_all([], channels=3)[0], np.ones(3))

    def test_scalar_123(self):
        # Oracle: enumerate subsets of each size and sum their products.
        vals = [1.0, 2.0, 3.0]
        table = esp_all([np.array([v]) for v in vals])
        for size in range(4):
            expected = sum(
                math.prod(c) for c in itertools.combinations(vals, size)
            )
            assert table[size, 0] == pytest.approx(expected, rel=1e-12)

    def test_all_ones_counts_subsets(self):
        k = 6
        table = esp_all([np.ones(2)] * k)
        for size in range(k + 1):
            npt.assert_allclose(table[size], math.comb(k, size), rtol=1e-12)

    def test_merge_with_empty_is_identity(self):
        table = esp_all([np.array([0.4]), np.array([0.9])])
        merged = esp_merge(table, esp_all([], channels=1))
        npt.assert_allclose(merged, table, rtol=1e-15)

    def test_merge_matches_direct(self):
        left = esp_all([np.array([1.0]), np.array([2.0])])
        right = esp_all([np.array([3.0])])
        merged = esp_merge(left, right)
        npt.assert_allclose(merged, esp_all([np.array([v]) for v in (1.0, 2.0, 3.0)]), rtol=1e-12)
        assert merged[2, 0] == pytest.approx(11.0)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_merge_associative(self, seed):
        rng = np.random.default_rng(seed)
        sizes = rng.integers(0, 4, 3)
        tables = [
            esp_all([rng.uniform(0.1, 2.0, 1) for _ in range(s)], channels=1) for s in sizes
        ]
        a, b, c = tables
        left_first = esp_merge(esp_merge(a, b), c)
        right_first = esp_merge(a, esp_merge(b, c))
        npt.assert_allclose(left_first, right_first, rtol=1e-12)

    def test_balanced_merge_tree_equals_flat_recursion(self):
        rng = np.random.default_rng(9)
        for k in (1, 2, 5, 9, 15):
            decays = [rng.uniform(0.05, 1.0, 1) for _ in range(k)]

            def tree(lo, hi):
                if hi - lo == 0:
                    return esp_all([], channels=1)
                if hi - lo == 1:
                    return esp_all(decays[lo:hi])
                mid = (lo + hi) // 2
                return esp_merge(tree(lo, mid), tree(mid, hi))

            npt.assert_allclose(tree(0, k), esp_all(decays), rtol=1e-12)


class TestSymmetricWeights:
    def test_single_context_weight_is_one(self):
        w = mixing_weights("picaso_s", [scalar_context(1.0, 0.5)])
        npt.assert_array_equal(w[0], [[1.0]])

    def test_two_context_formula(self):
        w = mixing_weights("picaso_s", [scalar_context(1.0, 0.25), scalar_context(2.0, 0.5)])
        npt.assert_allclose(w[0], [[0.75], [0.625]], rtol=1e-15)

    def test_identity_decays_give_unit_weights(self):
        ctxs = [scalar_context(float(i), 1.0, cid=str(i)) for i in range(5)]
        w = mixing_weights("picaso_s", ctxs)
        npt.assert_allclose(w[0], np.ones((5, 1)), rtol=1e-12)

    def test_weights_in_unit_interval(self):
        rng = np.random.default_rng(3)
        for n in (2, 4, 7):
            w = mixing_weights("picaso_s", random_contexts(rng, n))[0]
            assert np.all(w > 0.0) and np.all(w <= 1.0 + 1e-12)

    def test_rejects_beyond_float_binomial_range(self):
        # Float binomials are only trusted through n = 64.
        rng = np.random.default_rng(14)
        ctxs = random_contexts(rng, 65, m=1)
        with pytest.raises(InvalidInputError):
            mixing_weights("picaso_s", ctxs)


class TestPicasoS:
    def test_two_contexts_hand_arithmetic(self):
        out = compose_picaso_s([scalar_context(1.0, 0.25), scalar_context(2.0, 0.5)])
        npt.assert_allclose(out.x[0], [2.0], rtol=1e-15)

    def test_matches_mean_over_all_orderings(self):
        rng = np.random.default_rng(4)
        for n in range(2, 7):
            ctxs = random_contexts(rng, n, m=4, layers=2)
            fast = np.stack(compose_picaso_s(ctxs).x)
            oracle = caso_mean_over(itertools.permutations(range(n)), ctxs)
            npt.assert_allclose(fast, oracle, rtol=1e-9)

    def test_identity_decays_sum_states(self):
        ctxs = [scalar_context(float(i + 1), 1.0, cid=str(i)) for i in range(4)]
        npt.assert_allclose(compose_picaso_s(ctxs).x[0], [10.0], rtol=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_shuffle_invariance(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        ctxs = random_contexts(rng, n)
        base = compose_picaso_s(ctxs).x[0]
        perm = rng.permutation(n)
        shuffled = compose_picaso_s([ctxs[i] for i in perm]).x[0]
        npt.assert_allclose(shuffled, base, rtol=1e-9)


class TestPicasoR:
    def test_single_context_weight_is_one(self):
        w = mixing_weights("picaso_r", [scalar_context(1.0, 0.5)])
        npt.assert_array_equal(w[0], [[1.0]])

    def test_three_equal_decays(self):
        ctxs = [scalar_context(1.0, 0.5, cid=str(i)) for i in range(3)]
        w = mixing_weights("picaso_r", ctxs)
        npt.assert_allclose(w[0], np.full((3, 1), (1 + 0.5 + 0.25) / 3), rtol=1e-12)
        npt.assert_allclose(compose_picaso_r(ctxs).x[0], [1.75], rtol=1e-12)

    def test_matches_rotation_mean(self):
        rng = np.random.default_rng(5)
        for n in (2, 3, 8, 17, 64):
            ctxs = random_contexts(rng, n, m=3)
            fast = np.stack(compose_picaso_r(ctxs).x)
            rotations = [[(r + j) % n for j in range(n)] for r in range(n)]
            npt.assert_allclose(fast, caso_mean_over(rotations, ctxs), rtol=1e-9)

    def test_n2_equals_symmetric(self):
        rng = np.random.default_rng(6)
        ctxs = random_contexts(rng, 2)
        npt.assert_allclose(
            compose_picaso_r(ctxs).x[0], compose_picaso_s(ctxs).x[0], rtol=1e-12
        )

    def test_rotation_invariance(self):
        rng = np.random.default_rng(7)
        ctxs = random_contexts(rng, 5)
        base = compose_picaso_r(ctxs).x[0]
        for r in range(1, 5):
            rotated = ctxs[r:] + ctxs[:r]
            npt.assert_allclose(compose_picaso_r(rotated).x[0], base, rtol=1e-9)

    def test_underflow_channels_fall_back_to_direct_form(self):
        # One channel's cumulative decay underflows float range; the recurrence
        # must still match the O(n^2) direct evaluation.
        rng = np.random.default_rng(8)
        n, m = 12, 4
        decays = rng.uniform(0.3, 0.99, (n, m))
        decays[:, 0] = 1e-9  # total log ~ -249, far past the safety threshold
        ctxs = []
        for i in range(n):
            ctxs.append(
                ContextState(
                    context_id=str(i),
                    token_count=1,
                    x_seg=(rng.normal(size=m),),
                    decay=(decays[i],),
                    conv_tail=(np.zeros((2, 2)),),
                )
            )
        w = mixing_weights("picaso_r", ctxs)[0]
        npt.assert_allclose(w, cyclic_weights_direct(decays), rtol=1e-9)
        assert np.isfinite(w).all()

    @pytest.mark.parametrize("n", [1, 2, 5, 32, 64])
    @pytest.mark.parametrize("decay_range", [(1e-30, 1e-3), (0.999999, 1.0), (1e-30, 1.0)])
    def test_recurrence_matches_direct_oracle(self, n, decay_range):
        # Tiny, near-identity and mixed decays all take the one recurrence.
        rng = np.random.default_rng(n)
        decays = rng.uniform(*decay_range, (n, 8))
        w = mixing_weights("picaso_r", decay_contexts(decays))[0]
        npt.assert_allclose(w, cyclic_weights_direct(decays), rtol=1e-12)

    def test_op_count_does_not_depend_on_decays(self):
        # Encoded states (decays ~ 0.005 per context) cost exactly what the
        # synthetic near-identity decays of the same shape cost.
        k = 32
        params = init_params(REFERENCE_CONFIG, seed=0)
        encoded = [
            encode_context(item.context_tokens, params, item.doc_id)
            for item in generate_corpus(seed=3, num_docs=k)
        ]
        synthetic = synthetic_contexts(
            k, REFERENCE_CONFIG.state_dim, 1, np.random.default_rng(3)
        )
        counts = []
        for ctxs in (encoded, synthetic):
            OP_COUNTER.reset()
            mixing_weights("picaso_r", ctxs)
            counts.append(OP_COUNTER.count)
        assert counts[0] == counts[1]

    def test_rejects_nonpositive_decay(self):
        c = scalar_context(1.0, 0.5)
        bad = ContextState(
            context_id="b",
            token_count=1,
            x_seg=c.x_seg,
            decay=(np.array([1.0]),),
            conv_tail=c.conv_tail,
        )
        object.__setattr__(bad, "decay", (np.array([0.0]),))  # bypass constructor guard
        with pytest.raises(InvalidInputError):
            mixing_weights("picaso_r", [c, bad])


class TestSoup:
    def test_identity_and_mean(self):
        c = scalar_context(1.5, 0.9)
        npt.assert_array_equal(compose_soup([c]).x[0], [1.5])
        out = compose_soup([scalar_context(1.0, 0.5), scalar_context(3.0, 0.5)])
        npt.assert_allclose(out.x[0], [2.0], rtol=1e-15)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_shuffle_invariance(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        ctxs = random_contexts(rng, n)
        base = compose_soup(ctxs).x[0]
        perm = rng.permutation(n)
        npt.assert_allclose(compose_soup([ctxs[i] for i in perm]).x[0], base, rtol=1e-12)


class TestPiconcatR:
    def test_single_sequence_equals_encode(self):
        cfg = ToyModelConfig(embed_dim=5, state_dim=8, num_layers=2)
        params = init_params(cfg, seed=12)
        seq = TokenSequence(np.arange(10) % 256)
        out = compose_piconcat_r([seq], params)
        ref = encode_context(seq, params)
        npt.assert_allclose(out.x[0], ref.x_seg[0], rtol=1e-12)
        npt.assert_allclose(out.conv_tail[1], ref.conv_tail[1], rtol=1e-12)

    def test_rotation_invariance_and_call_count(self):
        cfg = ToyModelConfig(embed_dim=5, state_dim=8, num_layers=1)
        params = init_params(cfg, seed=13)
        rng = np.random.default_rng(13)
        seqs = [TokenSequence(rng.integers(0, 256, rng.integers(2, 9))) for _ in range(4)]
        FORWARD_CALLS.reset()
        base = compose_piconcat_r(seqs, params)
        assert FORWARD_CALLS.count == 4
        rotated = compose_piconcat_r(seqs[2:] + seqs[:2], params)
        npt.assert_allclose(np.stack(rotated.x), np.stack(base.x), rtol=1e-9)

    def test_rejects_empty_member(self):
        cfg = ToyModelConfig(embed_dim=5, state_dim=8, num_layers=1)
        params = init_params(cfg, seed=14)
        with pytest.raises(InvalidInputError):
            compose_piconcat_r([TokenSequence(np.zeros(0, dtype=np.int64))], params)


class TestDistanceBound:
    def test_identity_decay_gives_zero(self):
        a = scalar_context(2.0, 1.0, "a")
        b = scalar_context(-3.0, 1.0, "b")
        (lhs, rhs), = caso_distance_bound(a, b)
        assert lhs == 0.0 and rhs == 0.0

    def test_lhs_is_squared_order_gap(self):
        rng = np.random.default_rng(10)
        a, b = random_contexts(rng, 2, m=6)
        (lhs, _), = caso_distance_bound(a, b)
        gap = compose_caso([a, b]).x[0] - compose_caso([b, a]).x[0]
        assert lhs == pytest.approx(float(np.dot(gap, gap)), rel=1e-12)

    def test_rhs_is_squared_triangle_sum(self):
        # rhs is the square of the triangle form: (||pa|| + ||pb||)^2.
        rng = np.random.default_rng(13)
        for _ in range(100):
            a, b = random_contexts(rng, 2, m=8)
            (_, rhs), = caso_distance_bound(a, b)
            pa = (1 - b.decay[0]) * a.x_seg[0]
            pb = (1 - a.decay[0]) * b.x_seg[0]
            want = (np.linalg.norm(pa) + np.linalg.norm(pb)) ** 2
            assert rhs == pytest.approx(float(want), rel=1e-12)

    def test_unsquared_triangle_bound_always_holds(self):
        # The unconditional form of the diagnostic: the norm of the order gap
        # is at most the sum of the two damped-state norms.
        rng = np.random.default_rng(11)
        for _ in range(500):
            a, b = random_contexts(rng, 2, m=8)
            (lhs, _), = caso_distance_bound(a, b)
            pa = (1 - b.decay[0]) * a.x_seg[0]
            pb = (1 - a.decay[0]) * b.x_seg[0]
            assert math.sqrt(lhs) <= np.linalg.norm(pa) + np.linalg.norm(pb) + 1e-12

    def test_lhs_shrinks_along_decay_path_to_identity(self):
        # Pushing both decays linearly toward 1 scales the order gap by t, so
        # lhs falls quadratically and monotonically.
        rng = np.random.default_rng(12)
        a, b = random_contexts(rng, 2, m=6)
        values = []
        for t in (1.0, 0.5, 0.1):
            da = 1.0 - t * (1.0 - a.decay[0])
            db = 1.0 - t * (1.0 - b.decay[0])
            at = ContextState("a", 1, a.x_seg, (da,), a.conv_tail)
            bt = ContextState("b", 1, b.x_seg, (db,), b.conv_tail)
            values.append(caso_distance_bound(at, bt)[0][0])
        assert values[0] > values[1] > values[2]
