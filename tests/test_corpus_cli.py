"""Corpus generation guarantees, CLI round trips, pinned CSV schemas."""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

from ssmcompose import ToyModelConfig, init_params
from ssmcompose.bench import run_bench
from ssmcompose.cli import main
from ssmcompose.corpus import (
    KEY_LETTERS,
    VALUE_LETTERS,
    CorpusItem,
    generate_corpus,
    lm_examples,
    read_jsonl,
    write_jsonl,
)
from ssmcompose.evaluate import evaluate_methods
from ssmcompose.model import TokenSequence, load_params, save_params
from ssmcompose.store import StateStore, load_composed_state

EVAL_CSV_HEADER = (
    "schema_version,method,k,mean_loss,mean_compose_seconds,"
    "model_calls_per_query,ops_per_query,num_queries"
)
BENCH_CSV_HEADER = "schema_version,target,n,wall_seconds,ops,model_calls"


def generate_corpus_pairwise(seed, num_docs):
    """Reference: the generator checking each new word against every used word."""
    rng = np.random.default_rng(seed)
    used = {"the", "code", "is"}

    def fresh_word(letters, lo, hi):
        while True:
            w = bytes(rng.choice(letters, int(rng.integers(lo, hi))).tolist()).decode()
            if w not in used and not any(u.startswith(w) or w.startswith(u) for u in used):
                used.add(w)
                return w

    items = []
    for i in range(num_docs):
        key = fresh_word(KEY_LETTERS, 3, 7)
        value = fresh_word(VALUE_LETTERS, 4, 8)
        items.append(CorpusItem(f"doc{i:05d}", f"{key} : {value} . ", f"{key} :", f" {value}"))
    return items


def lm_streams_listed(items, seed):
    """Reference: lm_examples drawing distractors from an explicit list of the others."""
    rng = np.random.default_rng(seed)
    out = []
    for idx, it in enumerate(items):
        mode = rng.random()
        others = [j for j in range(len(items)) if j != idx]

        def pick(count):
            chosen = rng.choice(len(others), size=min(count, len(others)), replace=False)
            return [items[others[int(p)]].context_text for p in chosen]

        if mode < 0.6:
            docs = [it.context_text] + pick(int(rng.integers(0, 4)))
        elif mode < 0.8:
            docs = [it.context_text] * int(rng.integers(2, 4)) + pick(int(rng.integers(0, 3)))
        else:
            docs = [it.context_text] + pick(int(rng.integers(4, 7)))
        order = rng.permutation(len(docs))
        out.append("".join(docs[int(o)] for o in order) + it.query)
    return out


class TestCorpus:
    def test_seed_reproducible_bytes(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_jsonl(generate_corpus(seed=9, num_docs=50), str(a))
        write_jsonl(generate_corpus(seed=9, num_docs=50), str(b))
        assert a.read_bytes() == b.read_bytes()
        write_jsonl(generate_corpus(seed=10, num_docs=50), str(b))
        assert a.read_bytes() != b.read_bytes()

    def test_answer_verbatim_in_exactly_one_context(self):
        items = generate_corpus(seed=4, num_docs=120)
        for it in items[:40]:
            hits = sum(it.continuation in other.context_text for other in items)
            assert hits == 1

    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "c.jsonl")
        items = generate_corpus(seed=5, num_docs=20)
        write_jsonl(items, path)
        assert read_jsonl(path) == items

    def test_thousand_docs_generate_quickly(self):
        t0 = time.perf_counter()
        items = generate_corpus(seed=6, num_docs=1000)
        assert len(items) == 1000
        assert time.perf_counter() - t0 < 5.0

    @pytest.mark.parametrize("seed,num_docs", [(101, 400), (202, 200), (0, 300)])
    def test_prefix_set_matches_pairwise_check(self, seed, num_docs):
        assert generate_corpus(seed, num_docs) == generate_corpus_pairwise(seed, num_docs)

    @pytest.mark.parametrize("num_docs", [1, 3, 40])
    def test_lm_examples_match_listed_others(self, num_docs):
        items = generate_corpus(seed=8, num_docs=num_docs)
        for seed in (0, 11):
            streams = [ex.query.to_text() for ex in lm_examples(items, seed=seed)]
            assert streams == lm_streams_listed(items, seed)

    def test_lm_examples_deterministic(self):
        items = generate_corpus(seed=7, num_docs=30)
        a = lm_examples(items, seed=3)
        b = lm_examples(items, seed=3)
        assert all(
            np.array_equal(x.query.tokens, y.query.tokens) for x, y in zip(a, b)
        )


class TestParamsIO:
    def test_round_trip_bit_exact(self, tmp_path):
        cfg = ToyModelConfig(embed_dim=5, state_dim=7, num_layers=2, conv_width=3)
        params = init_params(cfg, seed=12)
        path = str(tmp_path / "p.npz")
        save_params(path, params)
        loaded = load_params(path)
        assert loaded.config == cfg
        for (na, a), (nb, b) in zip(params.tensors(), loaded.tensors()):
            assert na == nb and a.tobytes() == b.tobytes()


class TestCliPipeline:
    @pytest.fixture()
    def workspace(self, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        store = tmp_path / "db.ssdb"
        assert main(["gen-corpus", "--seed", "2", "--num-docs", "12", "--out", str(corpus)]) == 0
        assert (
            main(
                [
                    "build-db",
                    "--corpus",
                    str(corpus),
                    "--store",
                    str(store),
                    "--embed-dim",
                    "6",
                    "--state-dim",
                    "8",
                ]
            )
            == 0
        )
        return corpus, store

    @pytest.mark.parametrize("method", ["caso", "soup"])
    def test_compose_verbose_prints_weights_of_every_method(self, workspace, tmp_path, capsys, method):
        _, store_path = workspace
        ids = StateStore.open(str(store_path)).ids()[:3]
        out = tmp_path / "state.ssbl"
        argv = ["compose", "--store", str(store_path), "--method", method, "--out", str(out)]
        assert main(argv + ["--verbose"] + ids) == 0
        assert "mean weight per context" in capsys.readouterr().out

    def test_compose_writes_loadable_state(self, workspace, tmp_path, capsys):
        _, store_path = workspace
        store = StateStore.open(str(store_path))
        ids = store.ids()[:3]
        out = tmp_path / "state.ssbl"
        code = main(
            ["compose", "--store", str(store_path), "--method", "picaso_r", "--out", str(out), "--verbose"]
            + ids
        )
        assert code == 0
        composed = load_composed_state(str(out))
        assert composed.method == "picaso_r"
        assert composed.num_layers == 1
        assert np.isfinite(composed.x[0]).all()
        assert "mean weight per context" in capsys.readouterr().out

    def test_eval_csv_schema_and_k0_rows_agree(self, workspace, tmp_path, capsys):
        corpus, store_path = workspace
        out_csv = tmp_path / "eval.csv"
        code = main(
            [
                "eval",
                "--store",
                str(store_path),
                "--corpus",
                str(corpus),
                "--k-max",
                "2",
                "--max-queries",
                "6",
                "--methods",
                "baseline,soup,picaso_r,concat",
                "--out-csv",
                str(out_csv),
                "--embed-dim",
                "6",
                "--state-dim",
                "8",
            ]
        )
        assert code == 0
        capsys.readouterr()
        lines = out_csv.read_text().strip().split("\n")
        assert lines[0] == EVAL_CSV_HEADER
        rows = [dict(zip(lines[0].split(","), ln.split(","))) for ln in lines[1:]]
        k0 = {r["method"]: r["mean_loss"] for r in rows if r["k"] == "0"}
        assert len(set(k0.values())) == 1  # identical baselines at k=0
        for r in rows:
            if r["method"] in ("soup", "picaso_r", "baseline"):
                assert float(r["model_calls_per_query"]) == 0.0
            if r["method"] == "concat" and r["k"] == "2":
                assert float(r["model_calls_per_query"]) == 1.0

    def test_eval_guards_model_mismatch(self, workspace, tmp_path):
        corpus, store_path = workspace
        code = main(
            [
                "eval",
                "--store",
                str(store_path),
                "--corpus",
                str(corpus),
                "--k-max",
                "1",
                "--embed-dim",
                "6",
                "--state-dim",
                "8",
                "--init-seed",
                "99",
            ]
        )
        assert code == 3

    def test_bench_csv_schema(self, tmp_path, capsys):
        out_csv = tmp_path / "bench.csv"
        code = main(
            ["bench", "--n-list", "2,4", "--state-dim", "4", "--repeats", "1", "--out-csv", str(out_csv)]
        )
        assert code == 0
        capsys.readouterr()
        lines = out_csv.read_text().strip().split("\n")
        assert lines[0] == BENCH_CSV_HEADER

    def test_train_emits_loss_csv_and_params(self, workspace, tmp_path, capsys):
        corpus, _ = workspace
        out_params = tmp_path / "trained.npz"
        out_csv = tmp_path / "losses.csv"
        code = main(
            [
                "train",
                "--corpus",
                str(corpus),
                "--objective",
                "bp2c",
                "--steps",
                "3",
                "--lr",
                "0.05",
                "--seed",
                "1",
                "--out-params",
                str(out_params),
                "--out-csv",
                str(out_csv),
                "--embed-dim",
                "6",
                "--state-dim",
                "8",
            ]
        )
        assert code == 0
        capsys.readouterr()
        lines = out_csv.read_text().strip().split("\n")
        assert lines[0] == "step,loss"
        assert len(lines) == 4
        assert load_params(str(out_params)).config.embed_dim == 6

    def test_attribute_json_output(self, workspace, capsys):
        corpus, store_path = workspace
        items = read_jsonl(str(corpus))
        store = StateStore.open(str(store_path))
        ids = store.ids()[:3]
        code = main(
            [
                "attribute",
                "--store",
                str(store_path),
                "--question",
                items[0].query,
                "--answer",
                items[0].continuation,
                "--mode",
                "loi",
                "--embed-dim",
                "6",
                "--state-dim",
                "8",
            ]
            + ids
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"mode", "method", "scores", "selected_index", "selected_id"}
        assert payload["selected_id"] in ids

    @pytest.mark.parametrize(
        "case",
        [
            "missing_model",
            "garbage_model",
            "npy_model",
            "model_without_config",
            "missing_corpus",
            "corpus_not_json",
            "corpus_missing_field",
            "missing_store",
        ],
    )
    def test_unreadable_input_file_exit_code(self, workspace, tmp_path, capsys, case):
        corpus, _ = workspace
        missing = str(tmp_path / "missing")
        garbage = tmp_path / "garbage.npz"
        garbage.write_bytes(b"not a parameter archive")
        np.save(tmp_path / "plain.npy", np.zeros(3))
        np.savez(tmp_path / "no_config.npz", embedding=np.zeros((256, 6)))
        (tmp_path / "not_json.jsonl").write_text("not json\n")
        (tmp_path / "no_field.jsonl").write_text('{"id": "d0", "context_text": "a : b . "}\n')
        build = ["build-db", "--store", str(tmp_path / "new.ssdb")]
        argv = {
            "missing_model": build + ["--corpus", str(corpus), "--model", missing],
            "garbage_model": build + ["--corpus", str(corpus), "--model", str(garbage)],
            "npy_model": build + ["--corpus", str(corpus), "--model", str(tmp_path / "plain.npy")],
            "model_without_config": build
            + ["--corpus", str(corpus), "--model", str(tmp_path / "no_config.npz")],
            "missing_corpus": build + ["--corpus", missing],
            "corpus_not_json": build + ["--corpus", str(tmp_path / "not_json.jsonl")],
            "corpus_missing_field": build + ["--corpus", str(tmp_path / "no_field.jsonl")],
            "missing_store": ["compose", "--store", missing, "--out", str(tmp_path / "s.ssbl"), "id"],
        }[case]
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: cannot read")

    def test_stale_lock_exit_code(self, workspace, capsys):
        corpus, store_path = workspace
        before = store_path.read_bytes()
        lock = store_path.parent / (store_path.name + ".lock")
        lock.write_bytes(b"")
        capsys.readouterr()
        assert main(["build-db", "--corpus", str(corpus), "--store", str(store_path)]) == 2
        assert str(lock) in capsys.readouterr().err
        assert lock.exists() and store_path.read_bytes() == before

    @pytest.mark.parametrize("command", ["gen-corpus", "build-db", "compose"])
    def test_missing_output_directory_exit_code(self, workspace, tmp_path, capsys, command):
        corpus, store_path = workspace
        nodir = tmp_path / "nodir"
        some_id = StateStore.open(str(store_path)).ids()[0]
        argv = {
            "gen-corpus": ["gen-corpus", "--num-docs", "3", "--out", str(nodir / "c.jsonl")],
            "build-db": ["build-db", "--corpus", str(corpus), "--store", str(nodir / "db.ssdb")],
            "compose": ["compose", "--store", str(store_path), "--out", str(nodir / "x.ssbl"), some_id],
        }[command]
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: cannot write")
        assert not nodir.exists()

    def test_invalid_input_exit_code(self, tmp_path):
        assert main(["gen-corpus", "--seed", "1", "--num-docs", "0", "--out", str(tmp_path / "x")]) == 2

    def test_console_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ssmcompose.cli", "--help"], capture_output=True, text=True
        )
        assert proc.returncode == 0
        assert "gen-corpus" in proc.stdout

    def test_store_path_from_environment(self, workspace, monkeypatch, tmp_path, capsys):
        corpus, store_path = workspace
        monkeypatch.setenv("SSMCOMPOSE_STORE", str(store_path))
        store = StateStore.open(str(store_path))
        out = tmp_path / "env_state.ssbl"
        code = main(["compose", "--method", "soup", "--out", str(out)] + store.ids()[:2])
        assert code == 0
        capsys.readouterr()
        assert load_composed_state(str(out)).method == "soup"
