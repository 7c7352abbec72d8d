"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 8-10 run against the shared seeded reference pipeline (see conftest):
a single-layer model pretrained on document streams, then fine-tuned for 500
steps on retrieval-composed states.  Criterion 6 checks the order gap of caso
against its sharp squared triangle bound; see its docstring for the identity.
"""

import itertools
import time

import numpy as np
import pytest

from ssmcompose import (
    TokenSequence,
    ToyModelConfig,
    caso_distance_bound,
    compose_caso,
    compose_picaso_r,
    compose_picaso_s,
    encode_context,
    esp_all,
    esp_merge,
    init_params,
)
from ssmcompose.attribution import leave_one_in, leave_one_out
from ssmcompose.bench import run_bench, synthetic_contexts
from ssmcompose.evaluate import evaluate_methods, sign_test
from ssmcompose.model import ContextState
from ssmcompose.pipeline import build_store
from ssmcompose.trainer import RetrievedContext, TrainExample, grad_bp2c, gradient_check


def _report(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion:2d}: {status} — {detail}")


def _rel_err(got: np.ndarray, want: np.ndarray) -> float:
    denom = np.maximum(np.abs(want), 1e-12)
    return float(np.max(np.abs(got - want) / denom))


def test_criterion_01_single_layer_exactness():
    """Ordered composition equals the concatenated scan for one pure layer.

    conv_width is pinned to 1: the claim concerns the bare recurrence, and a
    wider window mixes tokens across segment boundaries that per-segment
    encoding cannot see.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(1001)
    worst = 0.0
    for case in range(100):
        m = int(rng.integers(2, 65))
        cfg = ToyModelConfig(embed_dim=4, state_dim=m, num_layers=1, conv_width=1)
        params = init_params(cfg, seed=int(rng.integers(1 << 30)))
        n = int(rng.integers(1, 11))
        segs = [
            TokenSequence(rng.integers(0, 256, int(rng.integers(1, 51))))
            for _ in range(n)
        ]
        states = [encode_context(s, params, str(i)) for i, s in enumerate(segs)]
        composed = compose_caso(states)
        oracle = encode_context(TokenSequence.concat(segs), params)
        worst = max(worst, _rel_err(composed.x[0], oracle.x_seg[0]))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-6 and elapsed < 10.0
    _report(1, ok, f"max rel err {worst:.2e} over 100 cases in {elapsed:.1f}s")
    assert worst < 1e-6
    assert elapsed < 10.0


def test_criterion_02_symmetric_group_oracle():
    """compose_picaso_s equals the mean of compose_caso over all orderings."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(1002)
    worst = 0.0
    for n in range(2, 7):
        for _ in range(50):
            layers = int(rng.integers(1, 3))
            ctxs = synthetic_contexts(
                n, state_dim=4, num_layers=layers, rng=rng, decay_range=(0.05, 0.999)
            )
            fast = np.stack(compose_picaso_s(ctxs).x)
            oracle = np.mean(
                [
                    np.stack(compose_caso([ctxs[i] for i in order]).x)
                    for order in itertools.permutations(range(n))
                ],
                axis=0,
            )
            worst = max(worst, _rel_err(fast, oracle))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-9 and elapsed < 60.0
    _report(2, ok, f"max rel err {worst:.2e}, brute force over n! orderings, {elapsed:.1f}s")
    assert worst < 1e-9
    assert elapsed < 60.0


def test_criterion_03_cyclic_group_oracle():
    """compose_picaso_r equals the mean of compose_caso over the n rotations."""
    rng = np.random.default_rng(1003)
    worst = 0.0
    for n in (2, 4, 8, 16, 32, 64):
        for _ in range(20):
            ctxs = synthetic_contexts(
                n, state_dim=3, num_layers=1, rng=rng, decay_range=(0.05, 0.999)
            )
            fast = np.stack(compose_picaso_r(ctxs).x)
            rotations = [[(r + j) % n for j in range(n)] for r in range(n)]
            oracle = np.mean(
                [np.stack(compose_caso([ctxs[i] for i in rot]).x) for rot in rotations],
                axis=0,
            )
            worst = max(worst, _rel_err(fast, oracle))
    ok = worst < 1e-9
    _report(3, ok, f"max rel err {worst:.2e} across n up to 64")
    assert worst < 1e-9


def test_criterion_04_esp_merge_tree_equivalence():
    """Balanced split-and-merge ESP evaluation equals the flat recurrence."""
    rng = np.random.default_rng(1004)
    worst = 0.0
    for k in range(1, 17):
        decays = [rng.uniform(0.05, 1.0, 1) for _ in range(k)]

        def tree(lo, hi):
            if hi - lo == 0:
                return esp_all([], channels=1)
            if hi - lo == 1:
                return esp_all(decays[lo:hi])
            mid = (lo + hi) // 2
            return esp_merge(tree(lo, mid), tree(mid, hi))

        flat = esp_all(decays)
        worst = max(worst, _rel_err(tree(0, k), flat))
    ok = worst < 1e-12
    _report(4, ok, f"max rel err {worst:.2e} for up to 16 variables")
    assert worst < 1e-12


def test_criterion_05_complexity_scaling():
    """Instrumented op counts: cyclic weights ~ n, symmetric weights ~ n^3;
    piconcat_r makes exactly n model calls, state mixing makes zero."""
    report = run_bench(n_list=(4, 8, 16, 32), state_dim=16, num_layers=1, repeats=1, seed=5)
    slope_r = report.slopes["picaso_r_weights"]
    slope_s = report.slopes["picaso_s_weights"]
    piconcat_calls = {r.n: r.model_calls for r in report.rows if r.target == "piconcat_r"}
    mixing_calls = [
        r.model_calls
        for r in report.rows
        if r.target in ("caso", "soup", "picaso_r", "picaso_s", "picaso_r_weights", "picaso_s_weights")
    ]
    ok = (
        abs(slope_r - 1.0) <= 0.3
        and abs(slope_s - 3.0) <= 0.3
        and all(piconcat_calls[n] == n for n in (4, 8, 16, 32))
        and all(c == 0 for c in mixing_calls)
    )
    _report(
        5,
        ok,
        f"slopes: cyclic {slope_r:.2f} (target 1.0±0.3), symmetric {slope_s:.2f} "
        f"(target 3.0±0.3); piconcat calls {sorted(piconcat_calls.items())}",
    )
    assert abs(slope_r - 1.0) <= 0.3
    assert abs(slope_s - 3.0) <= 0.3
    assert all(piconcat_calls[n] == n for n in (4, 8, 16, 32))
    assert all(c == 0 for c in mixing_calls)


def test_criterion_06_distance_bound():
    """Squared order-gap bound: lhs <= rhs on 1000 random context pairs.

    With pa = (I-A_b) x_a and pb = (I-A_a) x_b the order gap
    caso(a,b) - caso(b,a) is pb - pa, so lhs = ||pa||^2 + ||pb||^2 - 2<pa,pb>
    and the triangle inequality gives lhs <= rhs = (||pa|| + ||pb||)^2 for
    every pair.  Identity decays give 0 = 0.  Each pair's lhs must equal the
    squared gap of the two caso orderings, and a pair with pb = -c pa must meet
    the bound with equality, so a looser rhs fails this test.
    """
    ident = ContextState(
        "a", 1, (np.array([2.0, -1.0]),), (np.array([1.0, 1.0]),), (np.zeros((1, 1)),)
    )
    ident_b = ContextState(
        "b", 1, (np.array([-3.0, 0.5]),), (np.array([1.0, 1.0]),), (np.zeros((1, 1)),)
    )
    (lhs0, rhs0), = caso_distance_bound(ident, ident_b)
    assert lhs0 == 0.0 and rhs0 == 0.0

    # Opposite-pointing damped states: the bound is attained.
    da = np.array([0.3, 0.8, 0.55])
    db = np.array([0.6, 0.2, 0.9])
    xa = np.array([1.5, -2.0, 0.7])
    xb = -2.5 * (1.0 - db) * xa / (1.0 - da)
    sharp_a = ContextState("a", 1, (xa,), (da,), (np.zeros((1, 1)),))
    sharp_b = ContextState("b", 1, (xb,), (db,), (np.zeros((1, 1)),))
    (lhs_eq, rhs_eq), = caso_distance_bound(sharp_a, sharp_b)
    sharp = lhs_eq == pytest.approx(rhs_eq, rel=1e-12)

    cfg = ToyModelConfig(embed_dim=16, state_dim=32, num_layers=1)
    params = init_params(cfg, seed=2)
    rng = np.random.default_rng(1006)
    violations = 0
    worst_gap_err = 0.0
    for _ in range(1000):
        a = encode_context(TokenSequence(rng.integers(0, 256, int(rng.integers(5, 61)))), params, "a")
        b = encode_context(TokenSequence(rng.integers(0, 256, int(rng.integers(5, 61)))), params, "b")
        (lhs, rhs), = caso_distance_bound(a, b)
        gap = compose_caso([a, b]).x[0] - compose_caso([b, a]).x[0]
        gap_sq = float(np.dot(gap, gap))
        worst_gap_err = max(worst_gap_err, abs(lhs - gap_sq) / max(gap_sq, 1e-300))
        if lhs > rhs * (1 + 1e-12):
            violations += 1
    ok = violations == 0 and worst_gap_err <= 1e-12 and sharp
    _report(
        6, ok,
        f"identity case exact; {violations}/1000 random pairs violate lhs <= rhs; "
        f"lhs vs caso gap rel err {worst_gap_err:.1e}; "
        f"opposite pair lhs/rhs = {lhs_eq / rhs_eq:.15f}",
    )
    assert worst_gap_err <= 1e-12, (
        f"lhs differs from the squared caso order gap by rel {worst_gap_err:.3e}"
    )
    assert violations == 0, (
        f"{violations}/1000 random context pairs violate lhs <= "
        "(||(I-A_b) x_a|| + ||(I-A_a) x_b||)^2"
    )
    assert sharp, (
        f"opposite-pointing damped states give lhs={lhs_eq!r}, rhs={rhs_eq!r}; "
        "the bound must be attained there"
    )


def test_criterion_07_gradient_checks():
    """Both objectives match central finite differences; the stopped path of
    bp2c carries exactly zero gradient."""
    cfg = ToyModelConfig(embed_dim=8, state_dim=16, num_layers=1)
    params = init_params(cfg, seed=7)
    rng = np.random.default_rng(1007)
    ctxs = tuple(
        RetrievedContext(TokenSequence(rng.integers(0, 256, int(rng.integers(4, 15)))))
        for _ in range(3)
    )
    example = TrainExample(
        query=TokenSequence(rng.integers(0, 256, 6)),
        continuation=TokenSequence(rng.integers(0, 256, 5)),
        contexts=ctxs,
    )
    rep_bptc = gradient_check(example, params, objective="bptc", coords_per_tensor=20, step=1e-5)
    rep_bp2c = gradient_check(example, params, objective="bp2c", coords_per_tensor=20, step=1e-5)

    ctx_only = TrainExample(
        query=TokenSequence(np.arange(5)),
        continuation=TokenSequence(np.arange(5, 9)),
        contexts=(RetrievedContext(TokenSequence(np.array([250, 251, 252, 253]))),),
    )
    _, grads = grad_bp2c(ctx_only, params)
    stopped = float(np.abs(grads["embedding"][250:254]).max())

    ok = rep_bptc.worst < 1e-4 and rep_bp2c.worst < 1e-4 and stopped == 0.0
    _report(
        7,
        ok,
        f"bptc worst {rep_bptc.worst:.2e}, bp2c worst {rep_bp2c.worst:.2e}, "
        f"stopped-path grad {stopped:.1e}",
    )
    assert rep_bptc.worst < 1e-4, rep_bptc.max_rel_err
    assert rep_bp2c.worst < 1e-4, rep_bp2c.max_rel_err
    assert stopped == 0.0


def test_criterion_08_method_ordering(ref_corpus, reference_models, eval_store_bptc):
    """Paired sign tests on the fine-tuned reference model at k=5."""
    _, eval_items = ref_corpus
    outcome = evaluate_methods(
        eval_store_bptc,
        reference_models.bptc,
        eval_items,
        methods=("baseline", "concat", "soup", "picaso_r", "caso_worst"),
        k_values=(5,),
    )
    pq = outcome.per_query_losses
    results = {}
    for a, b in (("concat", "baseline"), ("picaso_r", "soup"), ("picaso_r", "caso_worst")):
        wins, n, p = sign_test(pq[(a, 5)], pq[(b, 5)])
        results[f"{a}<{b}"] = (wins, n, p)
    ok = all(p < 0.05 for _, _, p in results.values())
    detail = "; ".join(f"{k} {w}/{n} p={p:.1e}" for k, (w, n, p) in results.items())
    _report(8, ok, detail)
    for key, (_, _, p) in results.items():
        assert p < 0.05, f"{key}: p={p}"


def test_criterion_09_training_direction(ref_corpus, reference_models):
    """500 fine-tuning steps shrink the composed-vs-concat loss gap; the
    stop-gradient variant achieves at least half the reduction."""
    _, eval_items = ref_corpus

    def gap(params):
        store = build_store(eval_items, params)
        outcome = evaluate_methods(
            store, params, eval_items, methods=("concat", "picaso_r"), k_values=(5,)
        )
        losses = {r.method: r.mean_loss for r in outcome.report.rows}
        return losses["picaso_r"] - losses["concat"]

    gap0 = gap(reference_models.pretrained)
    gap_bptc = gap(reference_models.bptc)
    gap_bp2c = gap(reference_models.bp2c)
    red_bptc = gap0 - gap_bptc
    red_bp2c = gap0 - gap_bp2c
    ok = gap_bptc < gap0 and red_bp2c >= 0.5 * red_bptc and gap0 > 0
    _report(
        9,
        ok,
        f"gap: start {gap0:.4f}, bptc {gap_bptc:.4f} (-{red_bptc:.4f}), "
        f"bp2c {gap_bp2c:.4f} (-{red_bp2c:.4f})",
    )
    assert gap0 > 0
    assert gap_bptc < gap0
    assert red_bp2c >= 0.5 * red_bptc


def test_criterion_10_attribution_precision(ref_corpus, reference_models, eval_store_lm):
    """Leave-one-in localizes the relevant context; leave-one-out with cyclic
    weights is at least as precise as with plain averaging."""
    _, eval_items = ref_corpus
    params = reference_models.pretrained
    store = eval_store_lm

    def trial_contexts(rng, i, n):
        it = eval_items[i % len(eval_items)]
        distract = rng.choice(
            [j for j in range(len(eval_items)) if j != i % len(eval_items)],
            n - 1,
            replace=False,
        )
        docs = [it] + [eval_items[int(j)] for j in distract]
        order = rng.permutation(n)
        docs = [docs[int(o)] for o in order]
        rel = int(np.where(order == 0)[0][0])
        ctxs = []
        for d in docs:
            cid = store.query(d.context_tokens, 1)[0][0]
            e = store.entry(cid)
            ctxs.append(RetrievedContext(tokens=e.tokens, state=e.state))
        return it, ctxs, rel

    loi_rng = np.random.default_rng(5)
    loi_hits = 0
    for i in range(200):
        it, ctxs, rel = trial_contexts(loi_rng, i, 5)
        res = leave_one_in(it.query_tokens, it.continuation_tokens, ctxs, params)
        loi_hits += int(res.selected == rel)
    loi_precision = loi_hits / 200

    loo_rng = np.random.default_rng(5)
    loo_hits = {"picaso_r": 0, "soup": 0}
    for i in range(200):
        it, ctxs, rel = trial_contexts(loo_rng, i, 3)
        for method in ("picaso_r", "soup"):
            res = leave_one_out(
                it.query_tokens, it.continuation_tokens, ctxs, params, method=method
            )
            loo_hits[method] += int(res.selected == rel)
    prec_r = loo_hits["picaso_r"] / 200
    prec_soup = loo_hits["soup"] / 200

    ok = loi_precision > 0.8 and prec_r >= prec_soup
    _report(
        10,
        ok,
        f"LOI {loi_precision:.3f} (need > 0.8); LOO cyclic {prec_r:.3f} vs soup {prec_soup:.3f}",
    )
    assert loi_precision > 0.8
    assert prec_r >= prec_soup


def test_criterion_11_store_round_trip(tmp_path):
    """1000 insert/load cycles bit-exact; ranked retrieval byte-identical
    across two independent opens."""
    import json

    from ssmcompose.store import StateStore

    cfg = ToyModelConfig(embed_dim=4, state_dim=4, num_layers=1)
    params = init_params(cfg, seed=11)
    store = StateStore.create(params)
    rng = np.random.default_rng(1011)
    ids = []
    for _ in range(1000):
        tokens = TokenSequence(rng.integers(0, 256, int(rng.integers(1, 21))))
        ids.append(store.insert(tokens, params))
    path = str(tmp_path / "big.ssdb")
    store.save(path)

    loaded = StateStore.open(path)
    mismatches = 0
    for cid in ids:
        a, b = store.entry(cid), loaded.entry(cid)
        if a.tokens.tokens.tobytes() != b.tokens.tokens.tobytes():
            mismatches += 1
            continue
        for layer in range(a.state.num_layers):
            for field in ("x_seg", "decay", "conv_tail"):
                if (
                    getattr(a.state, field)[layer].tobytes()
                    != getattr(b.state, field)[layer].tobytes()
                ):
                    mismatches += 1

    query = TokenSequence(rng.integers(0, 256, 12))
    ranked = [json.dumps(StateStore.open(path).query(query, k=10)) for _ in range(2)]
    ok = mismatches == 0 and ranked[0] == ranked[1]
    _report(11, ok, f"{len(set(ids))} unique entries, {mismatches} mismatches, retrieval stable")
    assert mismatches == 0
    assert ranked[0] == ranked[1]
