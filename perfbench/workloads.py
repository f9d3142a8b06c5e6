"""The measured process: one workload, driven through the program's public calls.

    python3 perfbench/workloads.py --workload W --seed N --seconds S --trace 0|1 \
        --inputs DIR --result FILE

Every workload first runs an untimed warm-up: the imports, the cached
walk-kernel load and one toy pass of the same calls. It then repeats
*set-up* (cold input files to the first useful call) and a *pass* (the
workload's path from there to its result) until ``--seconds`` have gone
by, at least :data:`MIN_PASSES` times, and reports medians. Outputs are
checked for correctness on every pass. With ``--trace 1`` each call into
a layer is wrapped in a span and the per-layer metrics are reported
instead of the end-to-end ones.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
from scipy.stats import rankdata

from inputs import key_order, seed_rng, upsert_batch, zipf_ranks
from spans import Tracer, self_seconds, span_cost_seconds

from repro.embedding.word2vec import Word2Vec
from repro.graph.io import load_edge_list
from repro.serving.framing import FRAME
from repro.serving.server import QueryClient, encode_frame
from repro.serving.service import QueryService
from repro.serving.store import EmbeddingStore
from repro.sharding.engine import ShardedWalkEngine
from repro.walks.vectorized import VectorizedWalkEngine

BENCH_DIR = Path(__file__).resolve().parent
MIN_PASSES = 3
#: server starts timed for set-up in the serve workload, half before and
#: half after the load, so they sample the whole run
SERVER_SPAWNS = 8
TOPN = 10
TOPK_SAMPLE = 64

E2E = {"num_walks": 2, "walk_length": 10, "dimensions": 64}
NODE2VEC = {"p": 0.25, "q": 4.0}
N2V_WALKS = {"num_walks": 8, "walk_length": 40}
SHARDED_WALKS = {"num_walks": 2, "walk_length": 40}
SHARDS = 2
SERVE = {
    "connections": 2,
    "inflight": 64,
    "similarity_share": 0.1,
    "window": 1000,
}

END_TO_END = {"setup_s": "s", "pipeline_s": "s", "peak_rss_mb": "MB"}

#: per-layer metric -> unit; a layer that a workload does not run reads 0
PER_LAYER = {
    "graph.load_edge_list_s": "s",
    "walks.engine_build_s": "s",
    "walks.generate_s": "s",
    "walks.init_s": "s",
    "walks.proposals": "count",
    "walks.accepts": "count",
    "walks.acceptance_ratio": "ratio",
    "walks.cpu_s": "s",
    "walks.walks_per_s": "1/s",
    "sharding.engine_build_s": "s",
    "sharding.generate_s": "s",
    "sharding.migration_rounds": "count",
    "sharding.migrated_walkers": "count",
    "sharding.migration_rate": "ratio",
    "sharding.round_ms": "ms",
    "sharding.node_imbalance": "ratio",
    "sharding.edge_imbalance": "ratio",
    "sharding.driver_cpu_s": "s",
    "sharding.workers_cpu_s": "s",
    "sharding.walks_per_s": "1/s",
    "embedding.fit_s": "s",
    "embedding.tokens": "count",
    "embedding.tokens_per_s": "1/s",
    "embedding.minor_faults": "count",
    "embedding.linkpred_auc": "ratio",
    "serving.store_save_s": "s",
    "serving.store_open_s": "s",
    "serving.index_build_s": "s",
    "serving.most_similar_batch_s": "s",
    "server.spawn_s": "s",
    "server.mean_batch": "count",
    "server.cache_hit_ratio": "ratio",
    "server.dedup_ratio": "ratio",
    "server.cpu_s": "s",
    "server.upsert_ms": "ms",
    "server.upserts": "count",
    "server.shed": "count",
    "server.errors": "count",
    "server.p50_ms_bucketed": "ms",
    "server.p99_ms_bucketed": "ms",
    "client.cpu_s": "s",
    "client.queries_per_s": "1/s",
    "client.query_p50_ms": "ms",
    "client.query_p99_ms": "ms",
    "client.query_samples": "count",
    "process.cpu_self_s": "s",
    "process.cpu_children_s": "s",
    "trace.graph_self_s": "s",
    "trace.walks_self_s": "s",
    "trace.sharding_self_s": "s",
    "trace.embedding_self_s": "s",
    "trace.serving_self_s": "s",
    "trace.server_self_s": "s",
    "trace.client_self_s": "s",
    "trace.bench_self_s": "s",
    "trace.wall_s": "s",
    "trace.passes": "count",
    "trace.spans": "count",
    "trace.overhead_estimate_s": "s",
}


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------
def cpu_self() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def cpu_children() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def peak_rss_mb() -> float:
    """Own peak RSS plus the largest child's (Linux reports KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def median(values) -> float:
    return float(statistics.median(values))


def corpus_digest(corpus) -> str:
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(corpus.walks).tobytes())
    h.update(np.ascontiguousarray(corpus.lengths).tobytes())
    return h.hexdigest()


class Checks:
    """Counts operations and collects every failed correctness check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def require(self, ok, message: str) -> None:
        if not ok:
            self.errors.append(message)

    def ops(self, attempted: int, failed: int = 0) -> None:
        self.attempted += int(attempted)
        self.failed += int(failed)

    @property
    def correct(self) -> bool:
        return not self.errors and self.failed == 0


def check_walks(checks: Checks, graph, corpus, walk_length: int, label: str) -> int:
    """Every walk has its expected length and every step is a graph edge.

    Returns the number of walks that fail either rule.
    """
    degree = np.diff(graph.offsets)
    bad = np.zeros(corpus.num_walks, dtype=bool)
    # in blocks, so the check does not set the run's peak memory
    for lo in range(0, corpus.num_walks, 8192):
        walks, lengths = corpus.walks[lo : lo + 8192], corpus.lengths[lo : lo + 8192]
        expected = np.where(degree[walks[:, 0]] > 0, walk_length, 1)
        src, dst = walks[:, :-1], walks[:, 1:]
        step = dst >= 0
        ok = np.ones(src.shape, dtype=bool)
        ok[step] = graph.has_edge_batch(src[step], dst[step])
        bad[lo : lo + 8192] = (lengths != expected) | ~ok.all(axis=1)
    checks.require(not bad.any(), f"{label}: {int(bad.sum())} walks with a wrong length or a non-edge step")
    return int(bad.sum())


def check_topk(checks: Checks, keys, matrix, query_keys, answers, label: str) -> int:
    """Served top-k answers equal an exact NumPy brute force; returns failures.

    Neighbour scores must match the reference top-k, and each returned
    neighbour's true cosine must match the score served for it, so ties
    broken either way pass and any wrong neighbour fails.
    """
    keys = np.asarray(keys)
    row_of = {int(k): i for i, k in enumerate(keys.tolist())}
    unit = matrix / np.maximum(np.linalg.norm(matrix, axis=1, keepdims=True), 1e-12)
    failures = 0
    for key, got in zip(query_keys, answers):
        row = row_of[int(key)]
        sims = unit @ unit[row]
        sims[row] = -np.inf
        ref = np.sort(sims)[::-1][: min(TOPN, keys.size - 1)]
        got_keys = [int(k) for k, __ in got]
        got_scores = np.array([s for __, s in got], dtype=np.float64)
        true_scores = np.array([sims[row_of[k]] for k in got_keys if k in row_of])
        good = (
            len(got) == ref.size
            and len(set(got_keys)) == len(got_keys)
            and int(key) not in got_keys
            and true_scores.size == len(got_keys)
            and np.allclose(got_scores, ref, atol=1e-4)
            and np.allclose(true_scores, got_scores, atol=1e-4)
        )
        failures += not good
    checks.require(failures == 0, f"{label}: {failures} of {len(answers)} top-{TOPN} answers differ from brute force")
    return failures


def roc_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    ranks = rankdata(scores)
    pos = labels == 1
    n_pos, n_neg = int(pos.sum()), int((~pos).sum())
    return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg))


def run_passes(seconds: float, body) -> list:
    """Repeat ``body(i)`` at least ``MIN_PASSES`` times, then while another fits in ``seconds``."""
    results = []
    start = time.perf_counter()
    last = 0.0
    while len(results) < MIN_PASSES or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        results.append(body(len(results)))
        last = time.perf_counter() - t0
    return results


class Context:
    def __init__(self, args):
        self.seed = args.seed
        self.seconds = args.seconds
        self.inputs = args.inputs
        self.meta = json.loads((args.inputs / "meta.json").read_text())
        self.tracer = Tracer(args.trace)
        self.quiet = Tracer(False)  # warm-up calls are never traced
        self.checks = Checks()
        self.layer: dict[str, float] = {}


# ---------------------------------------------------------------------------
# e2e-deepwalk
# ---------------------------------------------------------------------------
def _deepwalk_pass(ctx, tr, graph_path, num_nodes, store_path, setup_only=False):
    with tr.span("bench.setup") as setup:
        with tr.span("graph.load_edge_list") as s_load:
            graph = load_edge_list(graph_path, directed=True, num_nodes=num_nodes)
        with tr.span("walks.engine_build") as s_build:
            engine = VectorizedWalkEngine(graph, "deepwalk", "mh", backend="cnative", seed=ctx.seed)
    if setup_only:
        return setup.seconds
    with tr.span("bench.pass") as whole:
        with tr.span("walks.generate") as s_walk:
            corpus = engine.generate(E2E["num_walks"], E2E["walk_length"])
        faults0 = minor_faults()
        with tr.span("embedding.fit") as s_fit:
            vectors = Word2Vec(E2E["dimensions"], seed=ctx.seed + 1).fit(corpus, num_nodes=num_nodes)
        fit_faults = minor_faults() - faults0
        with tr.span("serving.store_save") as s_save:
            EmbeddingStore.from_keyed_vectors(vectors).save(store_path)
        with tr.span("serving.store_open") as s_open:
            store = EmbeddingStore.open(store_path)
        with tr.span("serving.index_build") as s_index:
            service = QueryService(store)
        with tr.span("serving.most_similar_batch") as s_topk:
            keys = np.asarray(store.keys)
            answers = service.most_similar_batch(keys, topn=TOPN)
    return {
        "graph": graph, "corpus": corpus, "vectors": vectors, "service": service,
        "keys": keys, "answers": answers,
        "setup_s": setup.seconds, "pipeline_s": whole.seconds,
        "load_s": s_load.seconds, "build_s": s_build.seconds, "walk_s": s_walk.seconds,
        "fit_s": s_fit.seconds, "fit_faults": fit_faults, "save_s": s_save.seconds, "open_s": s_open.seconds,
        "index_s": s_index.seconds, "topk_s": s_topk.seconds,
    }


def e2e_deepwalk(ctx: Context) -> dict:
    work = ctx.inputs
    pairs = np.loadtxt(work / "linkpred_pairs.txt", dtype=np.int64, comments="#", ndmin=2)
    _deepwalk_pass(ctx, ctx.quiet, work / "toy_graph.txt", ctx.meta["toy_num_nodes"], work / "toy.emb")
    checks = ctx.checks
    digests, aucs, setups = [], [], []

    def body(i):
        # one set-up on its own per pass doubles the set-up samples
        setups.append(
            _deepwalk_pass(ctx, ctx.tracer, work / "graph.txt", ctx.meta["num_nodes"], None, setup_only=True)
        )
        r = _deepwalk_pass(ctx, ctx.tracer, work / "graph.txt", ctx.meta["num_nodes"], work / "e2e.emb")
        digests.append(corpus_digest(r["corpus"]))
        bad = 0
        if i == 0:
            bad += check_walks(checks, r["graph"], r["corpus"], E2E["walk_length"], "e2e walks")
        sample = seed_rng(ctx.seed, 9, i).choice(r["keys"].size, TOPK_SAMPLE, replace=False)
        bad += check_topk(
            checks, r["vectors"].keys, r["vectors"].vectors, r["keys"][sample],
            [r["answers"][j] for j in sample], "e2e top-k",
        )
        missing = sum(len(a) != TOPN for a in r["answers"])
        checks.ops(len(r["answers"]), missing + bad)
        aucs.append(roc_auc(r["service"].similarity_batch(pairs[:, 0], pairs[:, 1]), pairs[:, 2]))
        r["tokens"] = int(r["corpus"].lengths.sum())
        for big in ("graph", "corpus", "vectors", "service", "keys", "answers"):
            r.pop(big)
        return r

    passes = run_passes(ctx.seconds, body)
    checks.require(len(set(digests)) == 1, f"e2e corpus digests differ across passes: {set(digests)}")
    checks.require(len(set(aucs)) == 1, f"e2e linkpred_auc differs across passes: {aucs}")
    checks.require(aucs[0] >= 0.85, f"e2e linkpred_auc {aucs[0]:.4f} is below the 0.85 quality floor")
    m = lambda key: median(p[key] for p in passes)  # noqa: E731
    ctx.layer.update({
        "graph.load_edge_list_s": m("load_s"),
        "walks.engine_build_s": m("build_s"),
        "walks.generate_s": m("walk_s"),
        "embedding.fit_s": m("fit_s"),
        "embedding.tokens": passes[0]["tokens"],
        "embedding.tokens_per_s": passes[0]["tokens"] / m("fit_s"),
        "embedding.minor_faults": m("fit_faults"),
        "embedding.linkpred_auc": aucs[0],
        "serving.store_save_s": m("save_s"),
        "serving.store_open_s": m("open_s"),
        "serving.index_build_s": m("index_s"),
        "serving.most_similar_batch_s": m("topk_s"),
    })
    setups += [p["setup_s"] for p in passes]
    return {"passes": passes, "setups": setups, "digest": digests[0], "linkpred_auc": aucs[0]}


# ---------------------------------------------------------------------------
# walk-node2vec and walk-sharded
# ---------------------------------------------------------------------------
def _node2vec_engine(graph, seed):
    return VectorizedWalkEngine(
        graph, "node2vec", "mh", initializer="high-weight", backend="cnative", seed=seed, **NODE2VEC
    )


def _sharded_engine(graph, seed):
    return ShardedWalkEngine(
        graph, "node2vec", "mh", initializer="high-weight", num_shards=SHARDS,
        transport="process", seed=seed, **NODE2VEC,
    )


def _walk_pass(ctx, tr, graph_path, num_nodes, sharded: bool, setup_only=False):
    layer = "sharding" if sharded else "walks"
    shape = SHARDED_WALKS if sharded else N2V_WALKS
    children0 = cpu_children()
    with tr.span("bench.setup") as setup:
        with tr.span("graph.load_edge_list") as s_load:
            graph = load_edge_list(graph_path, directed=True, num_nodes=num_nodes)
        with tr.span(f"{layer}.engine_build") as s_build:
            engine = _sharded_engine(graph, ctx.seed) if sharded else _node2vec_engine(graph, ctx.seed)
    if setup_only:
        if sharded:
            engine.close()
        return setup.seconds
    try:
        cpu0 = cpu_self()
        with tr.span("bench.pass") as whole:
            with tr.span(f"{layer}.generate") as s_walk:
                corpus = engine.generate(shape["num_walks"], shape["walk_length"])
        cpu = cpu_self() - cpu0
        stats = engine.stats()
    finally:
        if sharded:
            engine.close()
    return {
        "graph": graph, "corpus": corpus, "stats": stats,
        "setup_s": setup.seconds, "pipeline_s": whole.seconds,
        "load_s": s_load.seconds, "build_s": s_build.seconds, "walk_s": s_walk.seconds,
        "cpu_s": cpu, "children_cpu_s": cpu_children() - children0,
    }


def walk_workload(ctx: Context, sharded: bool) -> dict:
    work = ctx.inputs
    shape = SHARDED_WALKS if sharded else N2V_WALKS
    _walk_pass(ctx, ctx.quiet, work / "toy_graph.txt", ctx.meta["toy_num_nodes"], sharded)
    checks = ctx.checks
    digests, setups = [], []

    def body(i):
        # one set-up on its own per pass doubles the set-up samples
        setups.append(
            _walk_pass(ctx, ctx.tracer, work / "graph.txt", ctx.meta["num_nodes"], sharded, setup_only=True)
        )
        r = _walk_pass(ctx, ctx.tracer, work / "graph.txt", ctx.meta["num_nodes"], sharded)
        digests.append(corpus_digest(r["corpus"]))
        bad = check_walks(checks, r["graph"], r["corpus"], shape["walk_length"], "walks") if i == 0 else 0
        checks.ops(r["corpus"].num_walks, bad)
        if sharded and i == 0:
            # the monolithic engine on cnative kernels must give the same corpus
            mono = _node2vec_engine(r["graph"], ctx.seed).generate(shape["num_walks"], shape["walk_length"])
            checks.require(
                corpus_digest(mono) == digests[0],
                "sharded corpus differs from the monolithic engine's",
            )
        r["walks"] = r["corpus"].num_walks
        del r["graph"], r["corpus"]
        return r

    passes = run_passes(ctx.seconds, body)
    checks.require(len(set(digests)) == 1, f"corpus digests differ across passes: {set(digests)}")
    m = lambda key: median(p[key] for p in passes)  # noqa: E731
    stats = passes[0]["stats"]
    ctx.layer["graph.load_edge_list_s"] = m("load_s")
    if sharded:
        rounds = stats["migration_rounds"]
        ctx.layer.update({
            "sharding.engine_build_s": m("build_s"),
            "sharding.generate_s": m("walk_s"),
            "sharding.migration_rounds": rounds,
            "sharding.migrated_walkers": stats["migrated_walkers"],
            "sharding.migration_rate": stats["migration_rate"],
            "sharding.round_ms": 1000.0 * m("walk_s") / max(rounds, 1),
            "sharding.node_imbalance": stats["node_imbalance"],
            "sharding.edge_imbalance": stats["edge_imbalance"],
            "sharding.driver_cpu_s": m("cpu_s"),
            "sharding.workers_cpu_s": m("children_cpu_s"),
            "sharding.walks_per_s": passes[0]["walks"] / m("walk_s"),
        })
    else:
        ctx.layer.update({
            "walks.engine_build_s": m("build_s"),
            "walks.generate_s": m("walk_s"),
            "walks.init_s": median(p["stats"]["init_seconds"] for p in passes),
            "walks.proposals": stats["proposals"],
            "walks.accepts": stats["accepts"],
            # M-H accepted moves per proposal (stats' own ratio is samples per proposal, 1 for M-H)
            "walks.acceptance_ratio": stats["accepts"] / max(stats["proposals"], 1),
            "walks.cpu_s": m("cpu_s"),
            "walks.walks_per_s": passes[0]["walks"] / m("walk_s"),
        })
    for p in passes:
        p.pop("stats")
    setups += [p["setup_s"] for p in passes]
    return {"passes": passes, "setups": setups, "digest": digests[0]}


# ---------------------------------------------------------------------------
# serve-zipf
# ---------------------------------------------------------------------------
async def _ask(host, port, requests) -> list:
    """Send ``requests`` one at a time on one connection; the raw responses."""
    client = await QueryClient.connect(host, port)
    try:
        return [await client.request(request) for request in requests]
    finally:
        await client.close()


class ServerProcess:
    """One ``serve_child.py`` process, timed from start to first ping answered."""

    def __init__(self, ctx, store_path: Path, tr: Tracer):
        with tr.span("server.spawn") as sp:
            self.proc = subprocess.Popen(
                [sys.executable, str(BENCH_DIR / "serve_child.py"), "--store", str(store_path),
                 "--seed", str(ctx.seed), "--trace", str(int(tr.enabled))],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            )
            try:
                ready = self.proc.stdout.readline().split()
                if len(ready) != 3 or ready[0] != "READY":
                    raise RuntimeError(f"server did not start (said {ready!r})")
                self.host, self.port = ready[1], int(ready[2])
                (pong,) = asyncio.run(_ask(self.host, self.port, [{"op": "ping", "id": 0}]))
                if pong.get("result") != "pong":
                    raise RuntimeError(f"server ping failed: {pong!r}")
            except BaseException:
                self.proc.kill()
                self.proc.wait()
                raise
        self.spawn_s = sp.seconds

    def command(self, line: str) -> str:
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()
        return self.proc.stdout.readline().strip() if line == "stop" else ""

    def finish(self, tr: Tracer) -> dict:
        """Shut the server down and collect its report."""
        self.proc.stdin.close()
        report = json.loads(self.proc.stdout.readline())
        self.proc.wait(timeout=60)
        self.proc.stdout.close()
        tr.adopt(report.pop("spans"))
        return report


async def _load(ctx, host, port, keys, tr: Tracer) -> dict:
    """Closed loop: each connection keeps ``inflight`` requests outstanding."""
    deadline = time.perf_counter() + ctx.seconds
    order = key_order(ctx.seed, keys)
    latencies, completions = [], []
    failures = [0]
    sent = [0]

    async def connection(conn_id: int):
        rng = seed_rng(ctx.seed, 11, conn_id)
        size = 200_000
        hot = order[zipf_ranks(rng, size, keys.size)]
        other = keys[rng.integers(0, keys.size, size=size)]
        is_sim = rng.random(size) < SERVE["similarity_share"]
        reader, writer = await asyncio.open_connection(host, port)
        pending = []
        head = 0

        def send():
            # each connection replays its own stream; ids are unique across both
            j = len(pending) % size
            rid = len(pending) * SERVE["connections"] + conn_id
            if is_sim[j]:
                req = {"op": "similarity", "a": [int(hot[j])], "b": [int(other[j])], "id": rid}
            else:
                req = {"op": "most_similar", "keys": [int(hot[j])], "topn": TOPN, "id": rid}
            pending.append((rid, time.perf_counter()))
            sent[0] += 1
            writer.write(encode_frame(req))

        try:
            for __ in range(SERVE["inflight"]):
                send()
            await writer.drain()
            while head < len(pending):
                (length,) = FRAME.unpack(await reader.readexactly(FRAME.size))
                response = json.loads(await reader.readexactly(length))
                now = time.perf_counter()
                rid, t_sent = pending[head]
                head += 1
                latencies.append(now - t_sent)
                completions.append(now)
                tr.record("client.request", t_sent, now, rid)
                if response.get("id") != rid or not response.get("ok"):
                    failures[0] += 1
                if now < deadline:
                    send()
                    await writer.drain()
        finally:
            writer.close()
            await writer.wait_closed()

    start = time.perf_counter()
    cpu0 = cpu_self()
    await asyncio.gather(*(connection(c) for c in range(SERVE["connections"])))
    return {
        "start": start,
        "seconds": time.perf_counter() - start,
        "cpu_s": cpu_self() - cpu0,
        "latencies": latencies,
        "completions": completions,
        "sent": sent[0],
        "failures": failures[0],
    }


def _verify_served(ctx, server: ServerProcess, base_store: Path, version: int, order) -> None:
    """Top-k and similarity answers over the wire equal a NumPy brute force."""
    base = EmbeddingStore.open(base_store)
    keys = np.asarray(base.keys).copy()
    matrix = np.asarray(base.decode_all(), dtype=np.float32).copy()
    row_of = {int(k): i for i, k in enumerate(keys.tolist())}
    for number in range(1, version + 1):
        up_keys, up_vecs = upsert_batch(ctx.seed, number, keys, matrix.shape[1])
        matrix[[row_of[int(k)] for k in up_keys]] = up_vecs
    rng = seed_rng(ctx.seed, 13)
    sample = np.concatenate([order[: TOPK_SAMPLE // 2], rng.choice(keys, TOPK_SAMPLE // 2, replace=False)])
    pairs = rng.choice(keys, size=(16, 2))
    requests = [{"op": "most_similar", "keys": [int(k)], "topn": TOPN, "id": i} for i, k in enumerate(sample)]
    requests.append({"op": "similarity", "a": pairs[:, 0].tolist(), "b": pairs[:, 1].tolist(), "id": -1})
    responses = asyncio.run(_ask(server.host, server.port, requests))
    checks = ctx.checks
    bad = sum(not r.get("ok") or r.get("version") != version for r in responses)
    checks.require(bad == 0, f"serve check: {bad} responses failed or came from another version than {version}")
    answers = [[(k, s) for k, s in r["result"][0]] if r.get("ok") else [] for r in responses[:-1]]
    bad += check_topk(checks, keys, matrix, sample, answers, "served top-k")
    unit = matrix / np.linalg.norm(matrix, axis=1, keepdims=True)
    rows = np.array([[row_of[int(a)], row_of[int(b)]] for a, b in pairs])
    expect = np.einsum("ij,ij->i", unit[rows[:, 0]], unit[rows[:, 1]])
    sims_ok = responses[-1].get("ok") and np.allclose(responses[-1]["result"], expect, atol=1e-5)
    checks.require(sims_ok, "served similarity differs from brute force")
    checks.ops(len(requests), bad + (not sims_ok))


def serve_zipf(ctx: Context) -> dict:
    work = ctx.inputs
    tr = ctx.tracer
    toy = ServerProcess(ctx, work / "toy_store.emb", ctx.quiet)
    toy.finish(ctx.quiet)
    spawns = []

    def spawn_and_stop(count):
        for __ in range(count):
            with tr.span("bench.setup"):
                started = ServerProcess(ctx, work / "store.emb", tr)
            spawns.append(started.spawn_s)
            started.finish(tr)

    spawn_and_stop(SERVER_SPAWNS // 2 - 1)
    with tr.span("bench.setup"):
        server = ServerProcess(ctx, work / "store.emb", tr)
    spawns.append(server.spawn_s)
    try:
        keys = np.asarray(EmbeddingStore.open(work / "store.emb").keys).copy()
        server.command("start")
        with tr.span("bench.pass"):
            load = asyncio.run(_load(ctx, server.host, server.port, keys, tr))
        stopped = server.command("stop").split()
        version = int(stopped[1])
        _verify_served(ctx, server, work / "store.emb", version, key_order(ctx.seed, keys))
    finally:
        final = server.finish(tr)
    spawn_and_stop(SERVER_SPAWNS - SERVER_SPAWNS // 2)
    checks = ctx.checks
    checks.ops(load["sent"] + SERVER_SPAWNS, load["failures"])
    checks.require(load["failures"] == 0, f"{load['failures']} load requests failed")
    checks.require(final["upsert_seconds"], "no scripted upsert ran during the load")
    counters = final["counters"]
    checks.require(counters["shed"] == 0 and counters["errors"] == 0, f"server shed/errors: {counters}")

    done = np.sort(np.asarray(load["completions"]))
    w = SERVE["window"]
    edges = np.concatenate([[load["start"]], done[w - 1 :: w]])
    windows = np.diff(edges)
    lat_ms = 1000.0 * np.asarray(load["latencies"])
    lookups = final["cache_hits"] + final["cache_misses"]
    span_med = lambda name: median(  # noqa: E731
        [s.seconds for s in tr.spans if s.name == name] or [0.0]
    )
    ctx.layer.update({
        "serving.store_open_s": span_med("serving.store_open"),
        "serving.index_build_s": span_med("serving.index_build"),
        "server.spawn_s": median(spawns),
        "server.mean_batch": counters["batched_requests"] / max(counters["batches"], 1),
        "server.cache_hit_ratio": final["cache_hits"] / max(lookups, 1),
        "server.dedup_ratio": counters["coalesced_keys"] / max(counters["received"], 1),
        "server.cpu_s": final["cpu_s"],
        "server.upsert_ms": 1000.0 * median(final["upsert_seconds"]),
        "server.upserts": len(final["upsert_seconds"]),
        "server.shed": counters["shed"],
        "server.errors": counters["errors"],
        "server.p50_ms_bucketed": final["p50_ms_bucketed"],
        "server.p99_ms_bucketed": final["p99_ms_bucketed"],
        "client.cpu_s": load["cpu_s"],
        "client.queries_per_s": lat_ms.size / load["seconds"],
        "client.query_p50_ms": float(np.percentile(lat_ms, 50)),
        "client.query_p99_ms": float(np.percentile(lat_ms, 99)),
        "client.query_samples": lat_ms.size,
    })
    return {
        "passes": [],
        "setups": spawns,
        "windows": windows.tolist(),
        "pipeline_s": median(windows),
        "queries": int(lat_ms.size),
        "version": version,
    }


WORKLOADS = {
    "e2e-deepwalk": e2e_deepwalk,
    "walk-node2vec": lambda ctx: walk_workload(ctx, sharded=False),
    "walk-sharded": lambda ctx: walk_workload(ctx, sharded=True),
    "serve-zipf": serve_zipf,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args(argv)
    ctx = Context(args)
    outcome = WORKLOADS[args.workload](ctx)
    passes = outcome["passes"]
    end_to_end = {
        "setup_s": median(outcome["setups"]),
        "pipeline_s": outcome.get("pipeline_s") or median(p["pipeline_s"] for p in passes),
        "peak_rss_mb": peak_rss_mb(),
    }
    if ctx.tracer.enabled:
        spans = ctx.tracer.spans
        own = self_seconds(spans)
        roots = [s for s in spans if s.parent < 0]
        layer = {name: 0.0 for name in PER_LAYER}
        layer.update(ctx.layer)
        for name in ("graph", "walks", "sharding", "embedding", "serving", "server", "client", "bench"):
            layer[f"trace.{name}_self_s"] = own.get(name, 0.0)
        layer["trace.wall_s"] = sum(s.seconds for s in roots)
        layer["trace.passes"] = sum(s.name == "bench.pass" for s in roots)
        layer["trace.spans"] = len(spans)
        layer["trace.overhead_estimate_s"] = len(spans) * span_cost_seconds()
        layer["process.cpu_self_s"] = cpu_self()
        layer["process.cpu_children_s"] = cpu_children()
        metrics = {k: {"value": float(layer[k]), "unit": u} for k, u in PER_LAYER.items()}
        ctx.tracer.write(args.inputs / "spans.json")
    else:
        metrics = {k: {"value": float(end_to_end[k]), "unit": u} for k, u in END_TO_END.items()}
    detail = {k: v for k, v in outcome.items() if k != "passes"}
    detail.update(passes=passes, end_to_end=end_to_end, layer=ctx.layer, errors=ctx.checks.errors)
    (args.inputs / "detail.json").write_text(json.dumps(detail, indent=1, default=str))
    result = {
        "correct": ctx.checks.correct,
        "attempted": ctx.checks.attempted,
        "failed": ctx.checks.failed,
        "metrics": metrics,
    }
    args.result.write_text(json.dumps(result))
    for message in ctx.checks.errors:
        print(f"check failed: {message}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
