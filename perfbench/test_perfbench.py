"""Tests of the benchmark itself: counts repeat exactly and checks catch faults.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import facts  # noqa: E402
import numpy as np  # noqa: E402
import pytest  # noqa: E402
import workloads  # noqa: E402
from ssmcompose import compose  # noqa: E402

#: Counts that must not depend on timing: same seed and size, same values.
COUNTS = (
    "store.query.entries_scored",
    "store.query.top1_hit_share",
    "compose.picaso_r.ops",
    "compose.picaso_s.ops",
    "model.checksum.calls_per_insert",
    "store.file_bytes",
    "model.forward_calls_per_request",
    "trainer.context_scans_per_step",
)

TINY = {
    "serve_big_store": dict(docs=64),
    "serve_many_contexts": dict(docs=48),
    "train": dict(docs=24),
}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_counts_repeat_exactly(name, tmp_path):
    wl = dataclasses.replace(workloads.WORKLOADS[name], **TINY[name])
    runs = [
        workloads.run_traced(wl, seed=3, seconds=0, workdir=str(tmp_path), trace_path=None, max_ops=8)
        for _ in range(2)
    ]
    assert [r.failed for r in runs] == [0, 0]
    first, second = ({c: r.metrics[c][0] for c in COUNTS} for r in runs)
    assert first == second
    assert first["model.forward_calls_per_request"] == 1


def test_fact_documents_are_seeded_unique_and_prefix_free():
    items = facts.fact_documents(11, 500)
    assert items == facts.fact_documents(11, 500)
    keys = [it.query[:-2] for it in items]
    values = [it.continuation[1:] for it in items]
    assert len(set(keys)) == len(set(values)) == 500
    assert {len(k) for k in keys} == {facts.KEY_LEN} and {len(v) for v in values} == {facts.VALUE_LEN}
    assert set("".join(keys)) <= set("abcdefghijklm") and set("".join(values)) <= set("nopqrstuvwxyz")
    assert all(it.context_text == f"{k} : {v} . " for it, k, v in zip(items, keys, values))


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    wl = dataclasses.replace(workloads.WORKLOADS["serve_big_store"], docs=64)
    su = workloads.set_up(wl, 5, str(tmp_path_factory.mktemp("store")))
    reference = checks.Retrieval(su.gold, [it.context_tokens for it in su.items])
    operate = workloads.serve_operation(su, wl.k, np.random.default_rng(5), None)
    ops = []
    workloads.closed_loop(operate, workloads.KINDS["serve"], ops, 0, max_ops=4)
    return wl, su, reference, ops


def _failures(served, op) -> int:
    wl, su, reference, _ = served
    return workloads.check_ops([op], su.items, wl.k, reference, np.random.default_rng(5))


def test_checks_pass_on_the_program_outputs(served):
    assert all(_failures(served, op) == 0 for op in served[3])


def test_checks_catch_a_perturbed_composed_state(served):
    for op in served[3]:
        x = op.composed.x
        bumped = compose.ComposedState(
            (x[0] * (1 + 1e-6),) + x[1:], op.composed.conv_tail, op.composed.provenance, op.composed.method
        )
        assert _failures(served, dataclasses.replace(op, composed=bumped)) == 1


def test_checks_catch_a_perturbed_retrieval_list(served):
    for op in served[3]:
        swapped = [op.hits[1], op.hits[0]] + op.hits[2:]
        assert _failures(served, dataclasses.replace(op, hits=swapped)) == 1
        nudged = [(op.hits[0][0], op.hits[0][1] + 1e-12)] + op.hits[1:]
        assert _failures(served, dataclasses.replace(op, hits=nudged)) == 1


def test_checks_catch_a_perturbed_loss_or_extra_model_call(served):
    for op in served[3]:
        assert _failures(served, dataclasses.replace(op, loss=math.nan)) == 1
        assert _failures(served, dataclasses.replace(op, forward_calls=2)) == 1
