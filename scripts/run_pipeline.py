#!/usr/bin/env python3
"""End-to-end demo: corpus -> reference model -> store -> method comparison.

Runs the same pipeline the test suite uses: pretrain a single-layer model on
fact-document streams, fine-tune it on retrieval-composed states, then compare
composition methods at k=5 with paired sign tests and report the
composed-vs-concat gap before and after fine-tuning.

    python scripts/run_pipeline.py           # full run (~1 min)
    python scripts/run_pipeline.py --quick   # reduced schedule (~15 s)
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ssmcompose.corpus import generate_corpus
from ssmcompose.evaluate import evaluate_methods, sign_test
from ssmcompose.pipeline import PRETRAIN_SCHEDULE, build_store, prepare_reference_models


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="reduced pretraining schedule")
    parser.add_argument("--train-docs", type=int, default=400)
    parser.add_argument("--eval-docs", type=int, default=200)
    parser.add_argument("--k", type=int, default=5)
    args = parser.parse_args()

    t0 = time.time()
    train_items = generate_corpus(seed=101, num_docs=args.train_docs)
    eval_items = generate_corpus(seed=202, num_docs=args.eval_docs)
    # The quick schedule is the shortest run where the method separation is
    # already visible; the full schedule gives the margins the tests assert.
    schedule = ((6000, 0.5), (6000, 0.2), (12000, 0.1)) if args.quick else PRETRAIN_SCHEDULE

    print(
        f"preparing reference models ({sum(s for s, _ in schedule)} pretraining steps, "
        "then the bptc and bp2c fine-tunes)..."
    )
    models = prepare_reference_models(train_items, schedule)
    p_lm, p_bptc, p_bp2c = models.pretrained, models.bptc, models.bp2c
    print(f"  done in {time.time() - t0:.0f}s")

    def eval_model(params, methods):
        store = build_store(eval_items, params)
        return evaluate_methods(store, params, eval_items, methods=methods, k_values=(args.k,))

    def gap(params):
        out = eval_model(params, ("concat", "picaso_r"))
        losses = {r.method: r.mean_loss for r in out.report.rows}
        return losses["picaso_r"] - losses["concat"]

    methods = ("baseline", "concat", "caso", "caso_worst", "soup", "picaso_s", "picaso_r")
    outcome = eval_model(p_bptc, methods)
    print(f"\nmean continuation loss at k={args.k} (fine-tuned reference):")
    for row in sorted(outcome.report.rows, key=lambda r: r.mean_loss):
        print(
            f"  {row.method:12s} {row.mean_loss:.4f} nats/token   "
            f"model calls/query {row.model_calls_per_query:.0f}"
        )

    print("\npaired sign tests:")
    pq = outcome.per_query_losses
    for a, b in (("concat", "baseline"), ("picaso_r", "soup"), ("picaso_r", "caso_worst")):
        wins, n, p = sign_test(pq[(a, args.k)], pq[(b, args.k)])
        print(f"  {a} < {b}: {wins}/{n} wins, p = {p:.2e}")

    g0, g1, g2 = gap(p_lm), gap(p_bptc), gap(p_bp2c)
    print("\ncomposed-vs-concat loss gap (picaso_r - concat):")
    print(f"  pretrained            {g0:.4f}")
    print(f"  after 500 bptc steps  {g1:.4f}  (reduction {g0 - g1:.4f})")
    print(f"  after 500 bp2c steps  {g2:.4f}  (reduction {g0 - g2:.4f})")
    print(f"\ntotal {time.time() - t0:.0f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
