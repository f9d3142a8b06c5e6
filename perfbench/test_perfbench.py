"""Toy-scale tests of the benchmark's own machinery.

    PYTHONPATH=src python -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import inputs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Span, Tracer, self_seconds  # noqa: E402

from repro.graph.datasets import load_graph  # noqa: E402
from repro.sharding.engine import ShardedWalkEngine  # noqa: E402
from repro.walks.corpus import WalkCorpus  # noqa: E402
from repro.walks.vectorized import VectorizedWalkEngine  # noqa: E402


def test_benchmark_json_matches_the_code():
    bench = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert sorted(run.WORKLOADS) == sorted(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == workloads.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == workloads.PER_LAYER
    assert any(m["name"] == "setup_s" and m["bound"] == max(x["bound"] for x in bench["end_to_end"])
               for m in bench["end_to_end"])


def test_sharded_corpus_equals_monolithic_numpy_corpus():
    graph = load_graph("web-uk", inputs.TOY_SCALE, seed=3)
    mono = VectorizedWalkEngine(
        graph, "node2vec", "mh", initializer="high-weight", backend="numpy", seed=5, **workloads.NODE2VEC
    ).generate(2, 12)
    with workloads._sharded_engine(graph, 5) as engine:
        assert isinstance(engine, ShardedWalkEngine)
        sharded = engine.generate(2, 12)
    assert np.array_equal(mono.walks, sharded.walks)
    assert np.array_equal(mono.lengths, sharded.lengths)
    assert workloads.corpus_digest(mono) == workloads.corpus_digest(sharded)


def test_inputs_repeat_for_a_seed(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        out.mkdir()
        inputs._serve_inputs(4, out)
    assert (a / "store.emb").read_bytes() == (b / "store.emb").read_bytes()
    keys = np.arange(1000, dtype=np.int64)
    k1, v1 = inputs.upsert_batch(4, 2, keys, 8)
    k2, v2 = inputs.upsert_batch(4, 2, keys, 8)
    assert np.array_equal(k1, k2) and np.array_equal(v1, v2)
    ranks = inputs.zipf_ranks(inputs.seed_rng(4), 5000, 100)
    assert ranks.min() >= 0 and ranks.max() < 100
    assert np.bincount(ranks)[0] > np.bincount(ranks, minlength=100)[50]


def test_walk_check_rejects_a_non_edge_and_a_short_walk():
    graph = load_graph("amazon", 0.05, seed=1)
    corpus = VectorizedWalkEngine(graph, "deepwalk", "mh", seed=2).generate(1, 6)
    checks = workloads.Checks()
    assert workloads.check_walks(checks, graph, corpus, 6, "ok") == 0 and checks.correct
    walks, lengths = corpus.walks.copy(), corpus.lengths.copy()
    first, second = np.flatnonzero(lengths == 6)[:2]
    node = int(walks[first, 0])
    walks[first, 1] = np.flatnonzero(~graph.has_edge_batch(np.full(graph.num_nodes, node),
                                                          np.arange(graph.num_nodes)))[0]
    lengths[second] -= 1
    walks[second, lengths[second]:] = -1
    bad = workloads.check_walks(checks, graph, WalkCorpus(walks, lengths), 6, "broken")
    assert bad == 2 and not checks.correct


def test_topk_check_rejects_a_wrong_neighbour():
    rng = np.random.default_rng(0)
    keys = np.arange(50, dtype=np.int64) * 3
    matrix = rng.normal(size=(50, 8)).astype(np.float32)
    unit = matrix / np.linalg.norm(matrix, axis=1, keepdims=True)
    sims = unit @ unit[0]
    sims[0] = -np.inf
    order = np.argsort(-sims)[: workloads.TOPN]
    good = [(int(keys[r]), float(sims[r])) for r in order]
    checks = workloads.Checks()
    assert workloads.check_topk(checks, keys, matrix, [0], [good], "good") == 0 and checks.correct
    worst = int(np.argmin(np.where(np.isinf(sims), np.inf, sims)))
    wrong = good[:-1] + [(int(keys[worst]), good[-1][1])]
    assert workloads.check_topk(checks, keys, matrix, [0], [wrong], "wrong") == 1
    assert not checks.correct


def test_self_seconds_subtracts_children_and_merges_overlap():
    def span(name, start, end, parent):
        s = Span(name, parent, None)
        s.start, s.end = start, end
        return s

    spans = [
        span("bench.pass", 0.0, 10.0, -1),
        span("embedding.fit", 1.0, 5.0, 0),
        span("client.request", 6.0, 8.0, 0),
        span("client.request", 7.0, 9.0, 0),
    ]
    own = self_seconds(spans)
    assert own["bench"] == pytest.approx(10.0 - 4.0 - 3.0)
    assert own["embedding"] == pytest.approx(4.0)
    assert own["client"] == pytest.approx(3.0)


def test_tracer_adopts_foreign_spans_under_the_enclosing_span():
    tracer = Tracer(True)
    with tracer.span("server.spawn") as outer:
        pass
    mid = (outer.start + outer.end) / 2
    tracer.adopt([["serving.store_open", mid, mid, -1, None]])
    assert tracer.spans[-1].parent == 0
    assert not Tracer(False).spans


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-zipf", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
