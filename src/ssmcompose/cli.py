"""Command-line surface.

Subcommands: gen-corpus, build-db, compose, eval, bench, train, attribute.
Exit codes: 0 success, 2 invalid input, 3 config mismatch, 4 numeric failure.
Every command is deterministic given its --seed.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .attribution import LOO_METHODS, leave_one_in, leave_one_out
from .bench import run_bench
from .compose import METHODS, WEIGHTS
from .corpus import composition_examples, generate_corpus, read_jsonl, write_jsonl
from .errors import ConfigMismatchError, InvalidInputError, SSMComposeError
from .evaluate import METHOD_CHOICES, evaluate_methods
from .model import (
    TokenSequence,
    ToyModelConfig,
    init_params,
    load_params,
    save_params,
)
from .pipeline import build_store
from .store import StateStore, default_store_path, model_fingerprint, save_composed_state
from .trainer import train


def _load_model(args) -> "ToyModelParams":
    if args.model:
        return load_params(args.model)
    config = ToyModelConfig(
        embed_dim=args.embed_dim,
        state_dim=args.state_dim,
        num_layers=args.layers,
    )
    return init_params(config, seed=args.init_seed)


def _add_model_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", help="params .npz file (omit to init a fresh model)")
    p.add_argument("--embed-dim", type=int, default=32)
    p.add_argument("--state-dim", type=int, default=64)
    p.add_argument("--layers", type=int, default=1)
    p.add_argument("--init-seed", type=int, default=0)


def _store_path(args) -> str:
    path = getattr(args, "store", None) or default_store_path()
    if not path:
        raise InvalidInputError("no store path given (use --store or SSMCOMPOSE_STORE)")
    return path


def cmd_gen_corpus(args) -> int:
    items = generate_corpus(seed=args.seed, num_docs=args.num_docs)
    write_jsonl(items, args.out)
    print(f"wrote {len(items)} documents to {args.out}")
    return 0


def cmd_build_db(args) -> int:
    params = _load_model(args)
    store = build_store(read_jsonl(args.corpus), params)
    store.save(_store_path(args))
    print(f"stored {len(store)} context states in {_store_path(args)}")
    return 0


def cmd_compose(args) -> int:
    store = StateStore.open(_store_path(args))
    states = store.load_states(args.ids)
    composed = METHODS[args.method](states)
    save_composed_state(args.out, composed, store.config)
    if args.verbose:
        weights_fn = WEIGHTS.get(args.method)
        if weights_fn is not None:
            w = weights_fn(states)
            for layer, mat in enumerate(w.per_layer):
                summary = ", ".join(f"{row.mean():.4f}" for row in mat)
                print(f"layer {layer} mean weight per context: {summary}")
    print(f"composed {len(states)} states via {args.method} -> {args.out}")
    return 0


def cmd_eval(args) -> int:
    params = _load_model(args)
    store = StateStore.open(_store_path(args))
    items = read_jsonl(args.corpus)
    if args.max_queries:
        items = items[: args.max_queries]
    methods = args.methods.split(",") if args.methods else list(METHOD_CHOICES)
    outcome = evaluate_methods(
        store, params, items, methods=methods, k_values=range(0, args.k_max + 1)
    )
    csv_text = outcome.report.to_csv()
    if args.out_csv:
        with open(args.out_csv, "w") as f:
            f.write(csv_text)
    if args.out_json:
        with open(args.out_json, "w") as f:
            f.write(outcome.report.to_json())
    print(csv_text, end="")
    return 0


def cmd_bench(args) -> int:
    n_list = [int(x) for x in args.n_list.split(",")]
    report = run_bench(
        n_list=n_list,
        state_dim=args.state_dim,
        num_layers=args.layers,
        repeats=args.repeats,
        seed=args.seed,
    )
    if args.out_csv:
        with open(args.out_csv, "w") as f:
            f.write(report.to_csv())
    print(report.to_csv(), end="")
    for target, slope in sorted(report.slopes.items()):
        print(f"# loglog-slope {target} {slope:.3f}")
    return 0


def cmd_train(args) -> int:
    params = _load_model(args)
    items = read_jsonl(args.corpus)
    store = build_store(items, params)
    examples = composition_examples(items, store, seed=args.seed, max_contexts=args.max_contexts)
    result = train(
        examples, params, steps=args.steps, lr=args.lr, objective=args.objective, seed=args.seed
    )
    save_params(args.out_params, result.params)
    lines = ["step,loss"] + [f"{i},{loss:.10g}" for i, loss in enumerate(result.losses)]
    text = "\n".join(lines) + "\n"
    if args.out_csv:
        with open(args.out_csv, "w") as f:
            f.write(text)
    else:
        print(text, end="")
    print(f"saved trained params to {args.out_params}", file=sys.stderr)
    return 0


def cmd_attribute(args) -> int:
    params = _load_model(args)
    store = StateStore.open(_store_path(args))
    if store.fingerprint != model_fingerprint(params):
        raise ConfigMismatchError("store was built with a different model")
    question = TokenSequence.from_text(args.question)
    answer = TokenSequence.from_text(args.answer)
    from .trainer import RetrievedContext

    contexts = [
        RetrievedContext(tokens=store.entry(cid).tokens, state=store.entry(cid).state)
        for cid in args.ids
    ]
    if args.mode == "loi":
        result = leave_one_in(question, answer, contexts, params)
    else:
        result = leave_one_out(question, answer, contexts, params, method=args.method)
    print(
        json.dumps(
            {
                "mode": args.mode,
                "method": result.method,
                "scores": [float(s) for s in result.scores],
                "selected_index": result.selected,
                "selected_id": args.ids[result.selected],
            },
            sort_keys=True,
            indent=2,
        )
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ssmcompose",
        description="Composable SSM states over a persistent state database",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-corpus", help="generate the synthetic fact-recall corpus")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--num-docs", type=int, default=1000)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_gen_corpus)

    p = sub.add_parser("build-db", help="encode a corpus into a state database")
    p.add_argument("--corpus", required=True)
    p.add_argument("--store")
    _add_model_args(p)
    p.set_defaults(fn=cmd_build_db)

    p = sub.add_parser("compose", help="compose stored states into a state file")
    p.add_argument("--store")
    p.add_argument("--method", choices=sorted(METHODS), default="picaso_r")
    p.add_argument("--out", required=True)
    p.add_argument("--verbose", action="store_true")
    p.add_argument("ids", nargs="+")
    p.set_defaults(fn=cmd_compose)

    p = sub.add_parser("eval", help="retrieval + composition evaluation")
    p.add_argument("--store")
    p.add_argument("--corpus", required=True)
    p.add_argument("--methods", help="comma-separated subset of: " + ",".join(METHOD_CHOICES))
    p.add_argument("--k-max", type=int, default=5)
    p.add_argument("--max-queries", type=int)
    p.add_argument("--out-csv")
    p.add_argument("--out-json")
    _add_model_args(p)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("bench", help="composition cost scaling")
    p.add_argument("--n-list", default="4,8,16,32")
    p.add_argument("--state-dim", type=int, default=16)
    p.add_argument("--layers", type=int, default=1)
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-csv")
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("train", help="fine-tune on retrieval-composed states")
    p.add_argument("--corpus", required=True)
    p.add_argument("--objective", choices=("bptc", "bp2c"), default="bptc")
    p.add_argument("--steps", type=int, default=500)
    p.add_argument("--lr", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-contexts", type=int, default=10)
    p.add_argument("--out-params", required=True)
    p.add_argument("--out-csv")
    _add_model_args(p)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("attribute", help="leave-one-in / leave-one-out attribution")
    p.add_argument("--store")
    p.add_argument("--question", required=True)
    p.add_argument("--answer", required=True)
    p.add_argument("--mode", choices=("loi", "loo"), default="loi")
    p.add_argument("--method", choices=LOO_METHODS, default="picaso_r")
    p.add_argument("ids", nargs="+")
    _add_model_args(p)
    p.set_defaults(fn=cmd_attribute)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except SSMComposeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
